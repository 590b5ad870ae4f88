//! Trace capture, deterministic replay and parallel replay for the Mitosis
//! simulator.
//!
//! The evaluation loop of the paper — run a memory-intensive workload,
//! measure runtime and page-walk cycles — regenerates every access stream
//! live.  This crate turns those streams into first-class artifacts:
//!
//! * [`format`](mod@format) defines a compact binary trace format: varint-delta encoded
//!   [`Access`](mitosis_workloads::Access) records plus events in
//!   `mitosis-sim`'s own vocabulary — [`SetupStep`]s before the first
//!   lane, [`PhaseChange`] markers inside lanes — behind a versioned
//!   header and a trailing checksum, with streaming
//!   [`TraceWriter`]/[`TraceReader`] codecs;
//! * [`capture`] records any [`AccessStream`](mitosis_workloads::AccessStream)
//!   — and the setup steps of `mitosis-sim` scenarios (engine-level,
//!   workload-migration and multi-socket) — into a [`Trace`]; dynamic runs
//!   record their mid-run phase changes as mid-lane markers at the exact
//!   access index;
//! * [`replay`] feeds a captured trace back through the existing
//!   [`ExecutionEngine`](mitosis_sim::ExecutionEngine), re-applying
//!   mid-lane phase changes at the same boundaries and reproducing the
//!   live run's [`RunMetrics`](mitosis_sim::RunMetrics) bit-for-bit;
//! * [`session`] is the one replay entry point: a [`ReplaySession`]
//!   executes builder-style [`ReplayRequest`]s — serial, lane-selected, or
//!   sharded as per-socket lane groups across a **persistent worker pool**
//!   — with a snapshot cache making repeated and grouped replays cheaper
//!   than one-shot serial replay, bit-identically.  A grouped call returns
//!   serial replay's metrics or a typed [`ReplayError`]: the first failed
//!   lane group, in group order, with a panic caught as
//!   [`ReplayError::Panic`] naming the group;
//! * [`parallel`] holds the report types ([`LaneReplayReport`],
//!   [`ShardDecision`]) and the shardability analysis;
//! * [`faultinject`] makes lane-group panics and delays reproducible from
//!   a seed, for the resilience tests.
//!
//! Bad bytes are an error, never a salvaged prefix: every decode failure
//! is a [`TraceError::Decode`] naming the byte offset where decoding
//! stopped.
//!
//! [`SetupStep`]: mitosis_sim::SetupStep
//! [`PhaseChange`]: mitosis_sim::PhaseChange
//!
//! # Example
//!
//! ```
//! use mitosis_numa::SocketId;
//! use mitosis_sim::SimParams;
//! use mitosis_trace::{capture_engine_run, ReplayRequest, ReplaySession, Trace};
//! use mitosis_workloads::suite;
//!
//! let params = SimParams::quick_test().with_accesses(300);
//! let captured = capture_engine_run(&suite::gups(), &params, &[SocketId::new(0)]).unwrap();
//!
//! // The trace survives serialisation and reproduces the live run exactly.
//! let bytes = captured.trace.to_bytes().unwrap();
//! let trace = Trace::from_bytes(&bytes).unwrap();
//! let mut session = ReplaySession::new(&params);
//! let replayed = session.replay(&trace, &ReplayRequest::new()).unwrap();
//! assert_eq!(replayed.outcome.metrics, captured.live_metrics);
//!
//! // The warm session replays again without re-preparing (snapshot cache),
//! // and grouped requests reuse its persistent worker pool.
//! let again = session.replay(&trace, &ReplayRequest::new()).unwrap();
//! assert_eq!(again.outcome.metrics, captured.live_metrics);
//! ```

#![forbid(unsafe_code)]
// A wire value truncated before encoding still checksums: narrowing goes
// through `try_from` (`checked_socket_u16`).
#![deny(clippy::cast_possible_truncation)]
#![warn(missing_docs)]
// Failure handling is a first-class feature of this crate: fallible paths
// return TraceError/ReplayError instead of unwrapping.  Unit tests are
// exempt (unwrap is the idiomatic test assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod capture;
pub mod faultinject;
pub mod format;
pub mod parallel;
mod pool;
pub mod replay;
pub mod session;

pub use capture::{
    capture_engine_run, capture_engine_run_dynamic, capture_migration_scenario,
    capture_multisocket_scenario, capture_stream, CapturedRun, RecordingSource,
};
pub use faultinject::FaultPlan;
pub use format::{
    checked_socket_u16, MachineFingerprint, Trace, TraceError, TraceItem, TraceLane, TraceMeta,
    TraceReader, TraceWriter, TRACE_MAGIC, TRACE_VERSION,
};
pub use parallel::{LaneReplayReport, ShardDecision};
pub use replay::{
    prepare_replay, LaneCursor, MachineMismatch, ReplayError, ReplayOptions, ReplayOutcome,
    ReplaySnapshot, TraceReplayer,
};
pub use session::{ReplayMode, ReplayRequest, ReplaySession};
