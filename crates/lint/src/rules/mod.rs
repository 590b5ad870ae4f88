//! The rule set.  Every rule exists because a bug of its class either
//! shipped in an earlier PR or is one refactor away from shipping:
//!
//! * [`nondeterministic-iteration`](iteration) — replay reproduces live
//!   `RunMetrics` bit-for-bit only if nothing in the simulated state
//!   iterates in hash order.
//! * [`wall-clock-in-measured-path`](wall_clock) — `Instant::now` in a
//!   measured path silently turns deterministic metrics into host timings.
//! * [`shootdown-layering`](shootdown) — the PR 9 invariant: TLB
//!   invalidation goes through `MappingTx`/`ShootdownPlan`, never through
//!   scattered `shootdown_all` calls.
//! * [`truncating-cast-in-encoding`](casts) — the PR 5 bug class: a bare
//!   `as u16` on a wire value produces a wrong-but-checksummed trace.
//! * [`panic-hygiene`](panic_hygiene) — worker-thread panics must be
//!   caught at the `catch_unwind` isolation boundary (PR 7's design).
//! * [`trace-event-exhaustiveness`](exhaustiveness) — every wire event
//!   defined in `format.rs` is produced by capture and consumed by replay.
//! * [`observer-in-hot-loop`](hot_loop) — observability stays out of the
//!   engine's per-access function, the one place the non-perturbation
//!   proof does not cover.

use crate::diag::Diagnostic;
use crate::source::SourceFile;

pub mod casts;
pub mod exhaustiveness;
pub mod hot_loop;
pub mod iteration;
pub mod panic_hygiene;
pub mod shootdown;
pub mod wall_clock;

/// A lint rule.  Per-file rules implement [`Rule::check_file`];
/// cross-file rules implement [`Rule::check_workspace`], which runs once
/// after every file has been lexed.
pub trait Rule {
    /// The rule's name, as used in diagnostics and `allow(...)` comments.
    fn name(&self) -> &'static str;

    /// Checks one file.
    fn check_file(&self, _file: &SourceFile, _diags: &mut Vec<Diagnostic>) {}

    /// Checks the whole workspace (runs after all per-file checks).
    fn check_workspace(&self, _files: &[SourceFile], _diags: &mut Vec<Diagnostic>) {}
}

/// Every canonical rule name, including the engine's own
/// `suppression-syntax` rule.  `allow(...)` comments naming anything else
/// are rejected, so a typo in a suppression cannot silently disable it.
pub const RULE_NAMES: &[&str] = &[
    iteration::NAME,
    wall_clock::NAME,
    shootdown::NAME,
    casts::NAME,
    panic_hygiene::NAME,
    exhaustiveness::NAME,
    hot_loop::NAME,
    SUPPRESSION_SYNTAX,
];

/// Rule name under which malformed suppressions are reported.  Not
/// suppressible — a broken allow cannot allow itself.
pub const SUPPRESSION_SYNTAX: &str = "suppression-syntax";

/// The shipped workspace rule set with its canonical configuration — the
/// single source of truth shared by the `mitosis-lint` binary,
/// `tests/lint_clean.rs`, and the layering check in
/// `tests/shootdown_consistency.rs`.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(iteration::NondeterministicIteration::workspace_default()),
        Box::new(wall_clock::WallClock::workspace_default()),
        Box::new(shootdown::ShootdownLayering::workspace_default()),
        Box::new(casts::TruncatingCast::workspace_default()),
        Box::new(panic_hygiene::PanicHygiene::workspace_default()),
        Box::new(exhaustiveness::TraceEventExhaustiveness::workspace_default()),
        Box::new(hot_loop::ObserverInHotLoop::workspace_default()),
    ]
}
