//! Observability layer for the Mitosis simulator: span tracing, counters
//! and profile export of the *host-side* work of a run.
//!
//! The layer has two moving parts:
//!
//! - **Spans and counters** — the [`Recorder`] trait with RAII
//!   [`SpanGuard`]s times the host-side phases (trace preparation,
//!   snapshot cloning, per-group replay, per-segment execution) and sums
//!   named counters, without touching simulated results.
//! - **Sinks** — [`MemoryRecorder`] for tests and programmatic export,
//!   [`JsonlRecorder`] for streaming to a file, and
//!   [`ChromeTraceRecorder`] / [`chrome_trace_json`] for chrome://tracing.
//!
//! Simulated metrics do not travel through this layer: a run returns them
//! in its result (`RunMetrics` in `mitosis-sim`).
//!
//! The whole layer is opt-in through the [`Observer`] handle; the default
//! ([`Observer::none`]) records nothing and keeps instrumented code on a
//! `None`-check fast path, leaving simulated metrics bit-identical whether
//! observability is on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod jsonl;
mod memory;
mod observer;
mod recorder;

pub use chrome::{chrome_trace_json, ChromeTraceRecorder};
pub use jsonl::JsonlRecorder;
pub use memory::{MemoryRecorder, RecordedSpan};
pub use observer::{Observer, ENV_JSONL, ENV_TRACE_JSON};
pub use recorder::{FanoutRecorder, Recorder, Span, SpanGuard};
