//! `mitosis-lint` — workspace static analysis for the determinism and
//! layering invariants.
//!
//! Every PR since the trace subsystem landed rests on one contract:
//! replaying a trace reproduces the live run's `RunMetrics`
//! bit-for-bit.  The runtime side of that contract is enforced by golden
//! tests and proptests; this crate enforces the *source* side — the code
//! properties that, when violated, produce bugs the runtime suite can
//! only see after they ship (hash-ordered iteration feeding metrics,
//! silent truncating casts on wire values, wall-clock reads in measured
//! paths, stray TLB flushes bypassing the consistency layer, panics
//! escaping worker isolation, and wire-event tables drifting out of sync
//! between capture and replay).
//!
//! The pass is built on a hand-rolled, string/char/comment-aware Rust
//! [lexer] (no `syn` — the build environment has no registry
//! access), a [rule engine](engine) with per-crate scoping, and inline
//! suppressions:
//!
//! ```text
//! // mitosis-lint: allow(<rule>, reason = "why this site is sound")
//! ```
//!
//! A suppression covers its own line and the next code-bearing line, and
//! **must** carry a reason — a reason-less allow is itself a violation.
//!
//! Run it as a binary (`cargo run -p mitosis-lint`), from the tier-1
//! suite (`tests/lint_clean.rs` asserts the workspace is violation-free),
//! or embed a single rule (`tests/shootdown_consistency.rs` runs the
//! layering rule through the same engine).  Diagnostics render as
//! `file:line` text, as JSON lines when `MITOSIS_LINT_JSON` names an
//! output file, and as a `$GITHUB_STEP_SUMMARY` markdown table inside CI.

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use diag::{Diagnostic, LintReport};
pub use engine::LintEngine;
pub use source::{SourceFile, Suppression};
