//! The replay entry point: [`ReplaySession`] executes [`ReplayRequest`]s.
//!
//! Every replay is a point in one configuration space — which lanes,
//! serial or grouped, how many workers, observed or not, fault-injected or
//! not — so a session takes one builder-described request and executes it
//! against persistent state:
//!
//! * a **persistent worker pool** — threads are spawned lazily, once, and
//!   live across replay calls, each keeping a warm
//!   [`TraceReplayer`] (pooled execution engine), so
//!   repeated grouped replays pay zero thread-spawn and zero
//!   engine-construction cost;
//! * a **snapshot cache** — the prepared post-setup
//!   [`ReplaySnapshot`] of the last trace is kept (verified against the
//!   request's trace by full equality on every hit) so a warm session skips
//!   setup-event reconstruction entirely.
//!
//! Every lane group replays from its own full clone of the session's
//! snapshot, just as serial replay does.  Replayed metrics are
//! bit-identical across every request shape — serial, grouped, warm or
//! cold pool.
//!
//! # Failures
//!
//! A grouped replay fans out through one pool call that runs one job per
//! lane group and collects the results in group order.  The first failed
//! group in group order is the call's [`ReplayError`]: a panic is
//! [`ReplayError::Panic`] naming the group, and a demand fault the
//! premapped analysis ruled out is [`ReplayError::Mismatch`] naming the
//! group.  Nothing is retried or re-run serially — a deterministic replay
//! that failed once fails again — so a call returns serial replay's
//! metrics or an error, never anything else.  The session stays usable
//! after a failed call.
//!
//! A session replays one decoded [`Trace`] per call: bytes are decoded
//! first ([`Trace::from_bytes`], which refuses damaged bytes with a typed
//! [`TraceError`](crate::TraceError)), and a caller with many traces loops
//! over [`ReplaySession::replay`].
//!
//! # Example
//!
//! ```
//! use mitosis_numa::SocketId;
//! use mitosis_sim::SimParams;
//! use mitosis_trace::{capture_engine_run, ReplayRequest, ReplaySession};
//! use mitosis_workloads::suite;
//!
//! let params = SimParams::quick_test().with_accesses(200);
//! let sockets = [SocketId::new(0), SocketId::new(1)];
//! let captured = capture_engine_run(&suite::gups(), &params, &sockets).unwrap();
//!
//! let mut session = ReplaySession::new(&params);
//! let report = session.replay(&captured.trace, &ReplayRequest::new()).unwrap();
//! assert_eq!(report.outcome.metrics, captured.live_metrics);
//!
//! // The same session replays again from its cached snapshot; a grouped
//! // request shards the two per-socket lane groups across its pool.
//! let again = session
//!     .replay(&captured.trace, &ReplayRequest::new().grouped(2))
//!     .unwrap();
//! assert!(again.sharded());
//! assert_eq!(again.outcome.metrics, captured.live_metrics);
//! ```

// Dispatch code here runs outside the pool's `catch_unwind`, where a panic
// would kill the session instead of failing one call: it returns a
// `ReplayError` instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::faultinject::FaultPlan;
use crate::format::Trace;
use crate::parallel::{lanes_fully_premapped, LaneReplayReport, ShardDecision};
use crate::pool::ReplayPool;
use crate::replay::{
    prepare_replay, validate_lane_selection, ReplayError, ReplayOptions, ReplayOutcome,
    ReplaySnapshot, TraceReplayer,
};
use mitosis_sim::{Observer, RunMetrics, SimParams};
use std::fmt;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How a [`ReplayRequest`] executes the selected lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// All selected lanes replay against one system, driven from the
    /// calling thread with no pool worker.  The engine may still run the
    /// socket groups of a segment it proves fault-free on scoped host
    /// threads ([`ExecutionEngine::last_split`]); the metrics are the same
    /// either way.
    ///
    /// [`ExecutionEngine::last_split`]: mitosis_sim::ExecutionEngine::last_split
    #[default]
    Serial,
    /// Per-socket lane groups fan out across up to `workers` pool threads,
    /// one job per socket group.
    Grouped {
        /// Upper bound on concurrently working pool threads (zero is
        /// rejected as a [`ReplayError::Mismatch`]).
        workers: usize,
    },
}

/// A builder-style description of one replay: which lanes, serial or
/// grouped, machine-check behaviour, fault injection.
///
/// The default request replays every lane serially with strict machine
/// checking.
#[derive(Debug, Clone, Default)]
pub struct ReplayRequest {
    lanes: Option<Vec<usize>>,
    mode: ReplayMode,
    force_machine: bool,
    fault_plan: FaultPlan,
}

impl ReplayRequest {
    /// The default request: every lane, serial, strict machine check, no
    /// fault injection.
    pub fn new() -> Self {
        ReplayRequest::default()
    }

    /// Replays only `lanes` (indices into the trace's lanes, strictly
    /// increasing).
    pub fn lanes(mut self, lanes: Vec<usize>) -> Self {
        self.lanes = Some(lanes);
        self
    }

    /// Replays a single lane.
    pub fn lane(self, lane: usize) -> Self {
        self.lanes(vec![lane])
    }

    /// Serial execution, driven from the calling thread (the default; see
    /// [`ReplayMode::Serial`]).
    pub fn serial(mut self) -> Self {
        self.mode = ReplayMode::Serial;
        self
    }

    /// Grouped execution across up to `workers` pool threads, one job per
    /// per-socket lane group.
    pub fn grouped(mut self, workers: usize) -> Self {
        self.mode = ReplayMode::Grouped { workers };
        self
    }

    /// Downgrades a machine-fingerprint mismatch from an error to a
    /// recorded warning (see
    /// [`ReplayOptions::force_machine`](crate::ReplayOptions)).
    pub fn force_machine(mut self) -> Self {
        self.force_machine = true;
        self
    }

    /// Injects the plan's worker panics and delays into the lane-group
    /// jobs of a grouped replay — how the resilience tests drive the pool's
    /// panic isolation deterministically.  The default plan injects
    /// nothing.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The [`ReplayOptions`] equivalent of this request's machine-check
    /// setting.
    fn options(&self) -> ReplayOptions {
        if self.force_machine {
            ReplayOptions::new().force_machine()
        } else {
            ReplayOptions::new()
        }
    }
}

/// One prepared trace the session keeps warm between calls.
#[derive(Clone)]
struct SessionCache {
    trace: Arc<Trace>,
    snapshot: Arc<ReplaySnapshot>,
    /// Whether the setup events premap every page every lane touches — the
    /// up-front proof that the measured phase cannot demand-fault.
    fully_premapped: bool,
}

/// The unified replay driver: persistent worker pool + snapshot cache +
/// one serial [`TraceReplayer`], executing [`ReplayRequest`]s.
///
/// See the [module docs](self) for the full story.  All request shapes
/// produce bit-identical metrics; the session only changes how much host
/// time they cost.
pub struct ReplaySession {
    params: SimParams,
    observer: Observer,
    pool: ReplayPool,
    driver: TraceReplayer,
    cache: Option<SessionCache>,
}

impl fmt::Debug for ReplaySession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplaySession")
            .field("threads_spawned", &self.pool.threads_spawned())
            .field("cached_snapshot", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

impl ReplaySession {
    /// A session for replays against `params`' machine.  No threads are
    /// spawned and nothing is prepared until the first request needs it.
    pub fn new(params: &SimParams) -> Self {
        ReplaySession {
            params: params.clone(),
            observer: Observer::none(),
            pool: ReplayPool::new(),
            driver: TraceReplayer::new(),
            cache: None,
        }
    }

    /// Installs the observer all subsequent replays report spans and
    /// counters to.  Observing never changes replayed metrics, which reach
    /// the caller only in the replay's report.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// The simulation parameters the session replays against.
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Worker threads spawned by this session so far.  Threads persist
    /// across calls — repeated grouped replays leave this constant, which
    /// the API tests pin.
    pub fn threads_spawned(&self) -> usize {
        self.pool.threads_spawned()
    }

    /// Drops the cached snapshot (if any); the next request re-prepares.
    pub fn clear_snapshot_cache(&mut self) {
        self.cache = None;
    }

    /// Executes `request` against `trace` and returns the full report; the
    /// merged metrics are bit-identical for every request shape.
    ///
    /// # Errors
    ///
    /// Fails when the trace cannot be prepared (machine mismatch, unknown
    /// workload, malformed setup events, a lane on a socket the machine
    /// lacks — see [`prepare_replay`]), when the lane selection is invalid
    /// or the request asks for zero workers, or when a lane group fails:
    /// the first failed group in group order is the error (see the
    /// [module docs](self#failures)).
    pub fn replay(
        &mut self,
        trace: &Trace,
        request: &ReplayRequest,
    ) -> Result<LaneReplayReport, ReplayError> {
        #[expect(clippy::disallowed_methods, reason = "report wall time, not a metric")]
        let start = Instant::now();
        let workers = requested_workers(request.mode)?;
        if let Some(lanes) = &request.lanes {
            validate_lane_selection(trace, lanes)?;
        }

        #[expect(clippy::disallowed_methods, reason = "report setup wall, not a metric")]
        let prepare_start = Instant::now();
        let (
            SessionCache {
                trace: shared_trace,
                snapshot,
                fully_premapped,
            },
            cache_hit,
        ) = self.resolve_snapshot(trace, request)?;
        // The reported setup wall is the reconstruction the caller paid
        // for.  A cache hit reconstructs nothing — its verification cost
        // is part of `wall`, not `setup_wall` (the report docs promise
        // exactly zero on a hit).
        let prepare_wall = if cache_hit {
            Duration::ZERO
        } else {
            prepare_start.elapsed()
        };

        let selected: Vec<usize> = match &request.lanes {
            Some(lanes) => lanes.clone(),
            None => (0..trace.lanes.len()).collect(),
        };
        let groups = socket_groups(trace, &selected);

        // Up-front shardability decision: every reason to go serial is
        // known before any job is submitted.
        let serial_reason = if selected.len() < 2 {
            Some(ShardDecision::SingleLane)
        } else if workers < 2 {
            Some(ShardDecision::SingleWorker)
        } else if groups.len() < 2 {
            Some(ShardDecision::SingleSocketGroup)
        } else if !fully_premapped {
            Some(ShardDecision::DemandFaultRisk)
        } else {
            None
        };
        if let Some(decision) = serial_reason {
            return self.run_serial(
                trace,
                &snapshot,
                request.lanes.as_deref(),
                decision,
                groups.len(),
                start,
            );
        }

        // One job per per-socket group, in group order: the group index
        // keys the fault plan's decisions and the observability track.
        let group_count = groups.len();
        let spawned = workers.min(group_count);
        #[expect(clippy::disallowed_methods, reason = "measured wall, not a metric")]
        let measured_start = Instant::now();
        let observer = self.observer.clone();
        let plan = request.fault_plan;
        let job_snapshot = Arc::clone(&snapshot);
        let results = self.pool.run(spawned, group_count, move |index, replayer| {
            replay_group(
                replayer,
                index,
                &shared_trace,
                &job_snapshot,
                &groups[index],
                &observer,
                plan,
            )
        });
        let outcomes = results.into_iter().collect::<Result<Vec<_>, _>>()?;

        let mut merged = RunMetrics::default();
        let mut clone_wall = Duration::ZERO;
        let mut group_measured_wall = Duration::ZERO;
        for outcome in &outcomes {
            merged.merge(&outcome.metrics);
            clone_wall += outcome.setup_wall;
            group_measured_wall += outcome.measured_wall;
        }
        let Some(first) = outcomes.into_iter().next() else {
            return Err(ReplayError::Mismatch(
                "sharded replay produced no group outcomes".into(),
            ));
        };
        Ok(LaneReplayReport {
            outcome: ReplayOutcome {
                metrics: merged,
                spec: first.spec,
                machine_mismatch: snapshot.machine_mismatch(),
                // Aggregate accounting across the groups: what this call
                // paid for preparation (zero on a snapshot-cache hit) plus
                // every group's clone, vs. total measured-phase worker time.
                setup_wall: prepare_wall + clone_wall,
                measured_wall: group_measured_wall,
            },
            lanes: selected.len(),
            groups: group_count,
            workers: spawned,
            decision: ShardDecision::Sharded,
            wall: start.elapsed(),
            setup_wall: prepare_wall,
            measured_wall: measured_start.elapsed(),
        })
    }

    /// Resolves the prepared snapshot for `trace`: the cached one when the
    /// session has already prepared this exact trace (verified by full
    /// equality — a cache hit is never trusted on shape alone), a fresh
    /// preparation otherwise.  The flag reports which of the two it was.
    fn resolve_snapshot(
        &mut self,
        trace: &Trace,
        request: &ReplayRequest,
    ) -> Result<(SessionCache, bool), ReplayError> {
        if let Some(cache) = &self.cache {
            // A snapshot prepared under force_machine records its mismatch;
            // a later strict request must not ride the downgraded cache
            // entry, so it re-prepares (and errors properly).
            let strict_ok = request.force_machine || cache.snapshot.machine_mismatch().is_none();
            if strict_ok && cache.trace.as_ref() == trace {
                return Ok((cache.clone(), true));
            }
        }
        let snapshot = {
            let _span = self.observer.span("prepare_replay", 0);
            prepare_replay(trace, &self.params, request.options())?
        };
        let cache = SessionCache {
            trace: Arc::new(trace.clone()),
            snapshot: Arc::new(snapshot),
            fully_premapped: lanes_fully_premapped(trace),
        };
        self.cache = Some(cache.clone());
        Ok((cache, false))
    }

    /// The serial path: all selected lanes driven from the driver thread,
    /// one system cloned from the cached snapshot, no pool worker (the
    /// engine may still split a segment's socket groups across scoped
    /// threads).
    fn run_serial(
        &mut self,
        trace: &Trace,
        snapshot: &ReplaySnapshot,
        selection: Option<&[usize]>,
        decision: ShardDecision,
        groups: usize,
        start: Instant,
    ) -> Result<LaneReplayReport, ReplayError> {
        self.driver.set_observer(self.observer.clone());
        self.driver.set_observer_track(0);
        let outcome = match selection {
            Some(lanes) => self.driver.replay_snapshot_lanes(snapshot, trace, lanes)?,
            None => self.driver.replay_snapshot(snapshot, trace)?,
        };
        let setup_wall = outcome.setup_wall;
        let measured_wall = outcome.measured_wall;
        Ok(LaneReplayReport {
            lanes: selection.map_or(trace.lanes.len(), <[usize]>::len),
            outcome,
            groups,
            workers: 1,
            decision,
            wall: start.elapsed(),
            setup_wall,
            measured_wall,
        })
    }
}

/// The upper bound on working threads a request's mode asks for; a
/// grouped request for zero workers is a mismatch, not a panic.
fn requested_workers(mode: ReplayMode) -> Result<usize, ReplayError> {
    match mode {
        ReplayMode::Serial => Ok(1),
        ReplayMode::Grouped { workers: 0 } => Err(ReplayError::Mismatch(
            "request `grouped(0)` asks for zero workers; grouped replay needs at least one".into(),
        )),
        ReplayMode::Grouped { workers } => Ok(workers),
    }
}

/// Partitions `selection` into per-socket groups: one group per distinct
/// socket, each holding its lanes in selection order, groups ordered by
/// first appearance.  Sized by the trace's machine fingerprint, or by the
/// largest lane socket when a lane names a socket beyond the fingerprint's
/// count (the table must never be indexed out of bounds).
pub(crate) fn socket_groups(trace: &Trace, selection: &[usize]) -> Vec<Vec<usize>> {
    let sockets = (trace.meta.machine.sockets as usize).max(
        selection
            .iter()
            .map(|&index| trace.lanes[index].socket as usize + 1)
            .max()
            .unwrap_or(0),
    );
    let mut group_of_socket: Vec<Option<usize>> = vec![None; sockets];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &index in selection {
        let socket = trace.lanes[index].socket as usize;
        match group_of_socket[socket] {
            Some(group) => groups[group].push(index),
            None => {
                group_of_socket[socket] = Some(groups.len());
                groups.push(vec![index]);
            }
        }
    }
    groups
}

/// Replays lane group `index` on a pool worker: the fault plan's injected
/// delay and panic first, then the group's lanes from a clone of the
/// snapshot.  A demand fault is an error: the premapped analysis ruled it
/// out before sharding, and a faulting group would draw frames its
/// siblings' clones never see, so its metrics could differ from serial
/// replay's.
fn replay_group(
    replayer: &mut TraceReplayer,
    index: usize,
    trace: &Trace,
    snapshot: &ReplaySnapshot,
    lanes: &[usize],
    observer: &Observer,
    plan: FaultPlan,
) -> Result<ReplayOutcome, ReplayError> {
    // Track 0 belongs to the driving thread; group G reports on track
    // G + 1, so concurrent groups render as parallel rows.
    let track = index as u64 + 1;
    replayer.set_observer(observer.clone());
    replayer.set_observer_track(track);
    if let Some(delay) = plan.worker_delay(index) {
        observer.counter("fault.worker_slow", 1);
        thread::sleep(delay);
    }
    #[expect(clippy::panic, reason = "injected; pool jobs run in catch_unwind")]
    if plan.worker_panics(index) {
        observer.counter("fault.worker_panic", 1);
        panic!("injected worker panic");
    }
    let outcome = {
        let _span = observer.span("group_replay", track);
        replayer.replay_snapshot_lanes(snapshot, trace, lanes)?
    };
    if outcome.metrics.demand_faults > 0 {
        return Err(ReplayError::Mismatch(format!(
            "lane group {index} took {} demand fault(s) that the premapped \
             analysis ruled out",
            outcome.metrics.demand_faults
        )));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_engine_run;
    use mitosis_numa::SocketId;
    use mitosis_sim::SetupStep;
    use mitosis_workloads::suite;

    #[test]
    fn a_demand_fault_in_a_group_is_a_mismatch_naming_it() {
        // Without its Populate event the trace demand-faults, so the
        // session's analysis keeps it serial; run one group job directly,
        // as if the analysis had wrongly ruled the faults out.
        let params = SimParams::quick_test().with_accesses(100);
        let sockets = [SocketId::new(0), SocketId::new(1)];
        let mut trace = capture_engine_run(&suite::gups(), &params, &sockets)
            .unwrap()
            .trace;
        trace
            .setup_events
            .retain(|step| !matches!(step, SetupStep::Populate { .. }));
        let snapshot = prepare_replay(&trace, &params, ReplayOptions::new()).unwrap();
        let err = replay_group(
            &mut TraceReplayer::new(),
            1,
            &trace,
            &snapshot,
            &[1],
            &Observer::none(),
            FaultPlan::disabled(),
        )
        .unwrap_err();
        match err {
            ReplayError::Mismatch(message) => {
                assert!(message.starts_with("lane group 1 took"), "{message}")
            }
            other => panic!("expected a Mismatch, got {other}"),
        }
    }
}
