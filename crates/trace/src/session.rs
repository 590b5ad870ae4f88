//! The replay entry point: [`ReplaySession`] executes [`ReplayRequest`]s.
//!
//! Every replay is a point in one configuration space — which lanes,
//! serial or grouped, how many workers, observed or not, fault-injected or
//! not, salvage or strict — so a session takes one builder-described
//! request and executes it against persistent state:
//!
//! * a **persistent worker pool** — threads are spawned lazily, once, and
//!   live across replay calls, each keeping a warm
//!   [`TraceReplayer`] (pooled execution engine), so
//!   repeated grouped replays pay zero thread-spawn and zero
//!   engine-construction cost;
//! * a **snapshot cache** — the prepared post-setup
//!   [`ReplaySnapshot`] of the last trace is kept (verified against the
//!   request's trace by full equality on every hit) so a warm session skips
//!   setup-event reconstruction entirely;
//! * **adaptive group sizing** — [`ReplayMode::Auto`] merges per-socket
//!   lane groups down to the host's available parallelism (largest group
//!   first onto the least-loaded unit, never splitting a socket group), so
//!   a 2-core host is not asked to juggle 8 groups.
//!
//! Every grouped unit replays from its own full clone of the session's
//! snapshot, just as serial replay and serial degradation do.  Replayed
//! metrics are bit-identical across every request shape — serial, grouped,
//! merged, warm or cold pool.
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
//! let captured = capture_engine_run(&suite::gups(), &params, &[SocketId::new(0)]).unwrap();
//!
//! let mut session = ReplaySession::new(&params);
//! let report = session.replay(&captured.trace, &ReplayRequest::new()).unwrap();
//! assert_eq!(report.outcome.metrics, captured.live_metrics);
//!
//! // The same session replays again from its cached snapshot and warm
//! // pool; a grouped request shards across per-socket lane groups.
//! let again = session
//!     .replay(&captured.trace, &ReplayRequest::new().auto_grouped())
//!     .unwrap();
//! assert_eq!(again.outcome.metrics, captured.live_metrics);
//! ```

use crate::faultinject::{env_plan, FaultPlan};
use crate::format::Trace;
use crate::parallel::{
    lanes_fully_premapped, panic_message, GroupFailure, GroupFailureKind, LaneReplayReport,
    ReplayReport, ShardDecision, MAX_GROUP_ATTEMPTS,
};
use crate::pool::{PoolJob, ReplayPool};
use crate::replay::{
    prepare_replay, validate_lane_selection, ReplayCompleteness, ReplayError, ReplayOptions,
    ReplayOutcome, ReplaySnapshot, TraceReplayer,
};
use mitosis_sim::{Observer, RunMetrics, SimParams};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
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
    /// one unit per socket group.
    Grouped {
        /// Upper bound on concurrently working pool threads (zero is
        /// rejected as a [`ReplayError::Mismatch`]).
        workers: usize,
    },
    /// Like [`ReplayMode::Grouped`], with the worker count taken from
    /// [`std::thread::available_parallelism`] and the per-socket groups
    /// *merged* down to at most that many units (largest group first onto
    /// the least-loaded unit, never splitting a socket group), so small
    /// hosts run few big units instead of many tiny ones.
    Auto,
}

/// A builder-style description of one replay: which lanes, serial or
/// grouped, salvage and machine-check behaviour, fault injection.
///
/// The default request replays every lane serially with strict machine
/// checking.
#[derive(Debug, Clone, Default)]
pub struct ReplayRequest {
    lanes: Option<Vec<usize>>,
    mode: ReplayMode,
    salvage: bool,
    force_machine: bool,
    fault_plan: Option<FaultPlan>,
}

impl ReplayRequest {
    /// The default request: every lane, serial, strict machine check, no
    /// salvage, fault plan from the environment.
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

    /// Grouped execution across up to `workers` pool threads, one unit per
    /// per-socket lane group.
    pub fn grouped(mut self, workers: usize) -> Self {
        self.mode = ReplayMode::Grouped { workers };
        self
    }

    /// Grouped execution sized to the host (see [`ReplayMode::Auto`]).
    pub fn auto_grouped(mut self) -> Self {
        self.mode = ReplayMode::Auto;
        self
    }

    /// For [`ReplaySession::replay_bytes`]: recover a damaged stream to its
    /// longest checkpoint-attested prefix instead of failing (the outcome
    /// is then marked [`ReplayCompleteness::Salvaged`]).
    pub fn salvage(mut self) -> Self {
        self.salvage = true;
        self
    }

    /// Downgrades a machine-fingerprint mismatch from an error to a
    /// recorded warning (see
    /// [`ReplayOptions::force_machine`](crate::ReplayOptions)).
    pub fn force_machine(mut self) -> Self {
        self.force_machine = true;
        self
    }

    /// Injects worker faults from an explicit plan instead of the
    /// `MITOSIS_FAULT_*` environment — how the resilience tests drive the
    /// panic-isolation machinery deterministically.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
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

    /// Installs the observer all subsequent replays report spans, counters
    /// and interval samples to.  Observing never changes replayed metrics.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// The installed observer.
    pub fn observer(&self) -> &Observer {
        &self.observer
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
    /// workload, malformed setup events — see [`prepare_replay`]), when the
    /// lane selection is invalid or the request asks for zero workers, or
    /// when a lane group fails even its serial degradation replay.
    pub fn replay(
        &mut self,
        trace: &Trace,
        request: &ReplayRequest,
    ) -> Result<LaneReplayReport, ReplayError> {
        let start = Instant::now();
        let workers = requested_workers(request.mode)?;
        if let Some(lanes) = &request.lanes {
            validate_lane_selection(trace, lanes)?;
        }

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

        // Up-front shardability decision, exactly as the old driver made
        // it: every reason to go serial is known before any job is
        // submitted.
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
                1,
                Vec::new(),
                start,
            );
        }

        // The units of fan-out: per-socket groups verbatim for an explicit
        // worker count (preserving the old driver's group indexing for
        // fault injection and observability tracks), merged down to the
        // host's parallelism for Auto.
        let units = match request.mode {
            ReplayMode::Auto => merge_groups(&groups, workers),
            _ => groups.clone(),
        };
        let spawned = workers.min(units.len());
        let measured_start = Instant::now();
        self.pool.ensure_workers(spawned);
        let plan = request.fault_plan.unwrap_or(*env_plan());

        let (sender, results) = mpsc::channel();
        for (index, unit) in units.iter().enumerate() {
            self.pool.submit(unit_job(
                Arc::clone(&shared_trace),
                Arc::clone(&snapshot),
                unit.clone(),
                index,
                self.observer.clone(),
                plan,
                sender.clone(),
            ));
        }
        drop(sender);

        let mut slots: Vec<Option<ReplayOutcome>> = (0..units.len()).map(|_| None).collect();
        let mut failures: Vec<GroupFailure> = Vec::new();
        let mut received = 0;
        while received < units.len() {
            match results.recv() {
                Ok((index, Ok(outcome))) => {
                    slots[index] = Some(outcome);
                    received += 1;
                }
                Ok((_, Err(failure))) => {
                    failures.push(failure);
                    received += 1;
                }
                // All senders gone with results outstanding: a job was lost
                // past even its catch_unwind (worker died).  The missing
                // units are synthesised as failures and serially degraded.
                Err(_) => break,
            }
        }
        for (index, slot) in slots.iter().enumerate() {
            if slot.is_none() && !failures.iter().any(|failure| failure.group == index) {
                failures.push(GroupFailure {
                    group: index,
                    kind: GroupFailureKind::Panicked,
                    error: "worker lost before reporting a result".into(),
                    attempts: MAX_GROUP_ATTEMPTS,
                    recovered: false,
                });
            }
        }
        failures.sort_by_key(|failure| failure.group);
        if !failures.is_empty() {
            self.observer
                .counter("replay.group_failures", failures.len() as u64);
        }

        // Graceful degradation, unchanged from the old driver: every unit
        // whose worker gave up replays serially on the driver thread from
        // the shared snapshot, keeping the merged metrics complete.
        self.driver.set_observer(self.observer.clone());
        self.driver.set_observer_track(0);
        for failure in &mut failures {
            let _span = self.observer.span("serial_degradation", 0);
            let outcome =
                self.driver
                    .replay_snapshot_lanes(&snapshot, trace, &units[failure.group])?;
            slots[failure.group] = Some(outcome);
            failure.recovered = true;
            self.observer.counter("replay.serial_degradations", 1);
        }

        let mut outcomes = Vec::with_capacity(units.len());
        for (index, slot) in slots.into_iter().enumerate() {
            outcomes.push(slot.ok_or_else(|| {
                ReplayError::Mismatch(format!("lane group {index} was never replayed"))
            })?);
        }
        if outcomes
            .iter()
            .any(|outcome| outcome.metrics.demand_faults > 0)
        {
            // The analysis proved this impossible; if it fires anyway,
            // favour correctness and eat the extra serial replay.  The
            // report stays honest: the discarded parallel attempt's cost
            // and any worker failures are included.
            return self.run_serial(
                trace,
                &snapshot,
                request.lanes.as_deref(),
                ShardDecision::DemandFaultsObserved,
                groups.len(),
                spawned,
                failures,
                start,
            );
        }

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
        let decision = if failures.is_empty() {
            ShardDecision::Sharded
        } else {
            ShardDecision::ShardedDegraded
        };
        Ok(LaneReplayReport {
            outcome: ReplayOutcome {
                metrics: merged,
                spec: first.spec,
                machine_mismatch: snapshot.machine_mismatch(),
                // Aggregate accounting across the units: what this call
                // paid for preparation (zero on a snapshot-cache hit) plus
                // every unit's clone, vs. total measured-phase worker time.
                setup_wall: prepare_wall + clone_wall,
                measured_wall: group_measured_wall,
                completeness: ReplayCompleteness::Complete,
            },
            lanes: selected.len(),
            groups: groups.len(),
            workers: spawned,
            decision,
            failures,
            wall: start.elapsed(),
            setup_wall: prepare_wall,
            measured_wall: measured_start.elapsed(),
        })
    }

    /// Replays encoded trace `bytes`: intact bytes decode and replay
    /// normally; with [`ReplayRequest::salvage`], a damaged stream is
    /// recovered to its longest checkpoint-attested prefix and that prefix
    /// replays, marked [`ReplayCompleteness::Salvaged`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReplaySession::replay`]; additionally the
    /// decode error of `bytes` when salvage is off (or no
    /// checkpoint-attested prefix survives).
    pub fn replay_bytes(
        &mut self,
        bytes: &[u8],
        request: &ReplayRequest,
    ) -> Result<LaneReplayReport, ReplayError> {
        match Trace::from_bytes(bytes) {
            Ok(trace) => self.replay(&trace, request),
            Err(error) if !request.salvage => Err(error.into()),
            Err(_) => {
                let salvaged = Trace::recover(bytes)?;
                let mut report = self.replay(&salvaged.trace, request)?;
                report.outcome.completeness = ReplayCompleteness::Salvaged {
                    valid_accesses: salvaged.valid_accesses,
                    lost_accesses: salvaged.lost_accesses,
                };
                self.observer.counter("replay.salvaged", 1);
                self.observer
                    .counter("replay.salvaged_lost_accesses", salvaged.lost_accesses);
                Ok(report)
            }
        }
    }

    /// Replays a batch of traces — serially in input order for
    /// [`ReplayMode::Serial`], sharded across the pool otherwise.  Each
    /// trace replays whole, from its own freshly prepared system.
    ///
    /// # Errors
    ///
    /// Fails if the request selects lanes (a batch replays every lane of
    /// every trace, so a selection would be silently ignored) or asks for
    /// zero workers, or if any trace does not replay; the first error in
    /// input order is returned.
    pub fn replay_batch(
        &mut self,
        traces: &[Trace],
        request: &ReplayRequest,
    ) -> Result<ReplayReport, ReplayError> {
        if let Some(lanes) = &request.lanes {
            return Err(ReplayError::Mismatch(format!(
                "request selects lanes {lanes:?}, but a batch replays every lane \
                 of every trace; replay a lane subset with `replay`"
            )));
        }
        let workers = requested_workers(request.mode)?.min(traces.len()).max(1);
        let options = request.options();
        let start = Instant::now();

        if workers < 2 {
            self.driver.set_observer(self.observer.clone());
            self.driver.set_observer_track(0);
            let results = traces
                .iter()
                .map(|trace| Some(self.driver.replay_full(trace, &self.params, options)))
                .collect();
            return ReplayReport::collect(results, start.elapsed());
        }

        self.pool.ensure_workers(workers);
        let (sender, receiver) = mpsc::channel();
        for (index, trace) in traces.iter().enumerate() {
            // Jobs outlive the borrow of `traces`, so each trace crosses
            // into the pool as its own Arc (one deep copy per trace).
            let trace = Arc::new(trace.clone());
            let params = self.params.clone();
            let observer = self.observer.clone();
            let sender = sender.clone();
            let job: PoolJob = Box::new(move |replayer| {
                replayer.set_observer(observer);
                replayer.set_observer_track(0);
                // A panicking replay is caught at the worker boundary and
                // surfaced as a structured error for its trace; the other
                // traces keep replaying.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    replayer.replay_full(&trace, &params, options)
                }))
                .unwrap_or_else(|payload| Err(ReplayError::Panic(panic_message(payload.as_ref()))));
                let _ = sender.send((index, outcome));
            });
            self.pool.submit(job);
        }
        drop(sender);

        let mut results: Vec<Option<Result<ReplayOutcome, ReplayError>>> =
            (0..traces.len()).map(|_| None).collect();
        while let Ok((index, outcome)) = receiver.recv() {
            results[index] = Some(outcome);
        }
        ReplayReport::collect(results, start.elapsed())
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
    #[allow(clippy::too_many_arguments)]
    fn run_serial(
        &mut self,
        trace: &Trace,
        snapshot: &ReplaySnapshot,
        selection: Option<&[usize]>,
        decision: ShardDecision,
        groups: usize,
        workers: usize,
        failures: Vec<GroupFailure>,
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
            workers,
            decision,
            failures,
            wall: start.elapsed(),
            setup_wall,
            measured_wall,
        })
    }
}

/// The host's available parallelism, 1 when unknown.
fn host_parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
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
        ReplayMode::Auto => Ok(host_parallelism()),
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

/// Merges per-socket groups down to at most `target` units: groups are
/// placed largest-first onto the least-loaded unit (LPT scheduling, load =
/// lane count), socket groups are never split, and each unit's lanes are
/// sorted ascending (group replay is order-sensitive).  Deterministic:
/// ties break towards the lower group / unit index, and the returned units
/// are ordered by their first lane.
fn merge_groups(groups: &[Vec<usize>], target: usize) -> Vec<Vec<usize>> {
    if groups.len() <= target {
        return groups.to_vec();
    }
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&group| (std::cmp::Reverse(groups[group].len()), group));
    let mut loads = vec![0usize; target];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); target];
    for group in order {
        let unit = (0..target).min_by_key(|&unit| loads[unit]).unwrap_or(0);
        loads[unit] += groups[group].len();
        members[unit].push(group);
    }
    let mut units: Vec<Vec<usize>> = members
        .into_iter()
        .filter(|member_groups| !member_groups.is_empty())
        .map(|member_groups| {
            let mut lanes: Vec<usize> = member_groups
                .into_iter()
                .flat_map(|group| groups[group].iter().copied())
                .collect();
            lanes.sort_unstable();
            lanes
        })
        .collect();
    units.sort_by_key(|unit| unit.first().copied());
    units
}

/// Builds the pool job replaying one unit: fault-injection consultation,
/// bounded retries with backoff, panic isolation — the worker body of the
/// old scoped-thread driver, now dispatched to a persistent worker.
fn unit_job(
    trace: Arc<Trace>,
    snapshot: Arc<ReplaySnapshot>,
    unit: Vec<usize>,
    index: usize,
    observer: Observer,
    plan: FaultPlan,
    results: mpsc::Sender<(usize, Result<ReplayOutcome, GroupFailure>)>,
) -> PoolJob {
    Box::new(move |replayer| {
        // Track 0 belongs to the driving thread; unit U reports on track
        // U + 1, so concurrent units render as parallel rows.
        let track = index as u64 + 1;
        replayer.set_observer(observer.clone());
        replayer.set_observer_track(track);
        if let Some(delay) = plan.worker_delay(index) {
            observer.counter("fault.worker_slow", 1);
            thread::sleep(delay);
        }
        let mut last_failure: Option<GroupFailure> = None;
        let mut completed = None;
        for attempt in 0..MAX_GROUP_ATTEMPTS {
            if attempt > 0 {
                // Brief exponential backoff before a retry: a transient
                // host condition (the only way a deterministic replay
                // fails intermittently) gets a moment to clear.
                thread::sleep(Duration::from_millis(1 << attempt));
            }
            // A panic anywhere in the unit replay, injected or real, is
            // caught at the unit boundary instead of unwinding into the pool
            // worker.
            let result = catch_unwind(AssertUnwindSafe(|| {
                if plan.worker_panics(index, attempt) {
                    observer.counter("fault.worker_panic", 1);
                    panic!("injected worker panic (group {index}, attempt {attempt})");
                }
                let _span = observer.span("group_replay", track);
                replayer.replay_snapshot_lanes(&snapshot, &trace, &unit)
            }));
            match result {
                Ok(Ok(outcome)) => {
                    completed = Some(outcome);
                    break;
                }
                Ok(Err(error)) => {
                    observer.counter("replay.group_attempt_failed", 1);
                    last_failure = Some(GroupFailure {
                        group: index,
                        kind: GroupFailureKind::Errored,
                        error: error.to_string(),
                        attempts: attempt + 1,
                        recovered: false,
                    });
                }
                Err(payload) => {
                    observer.counter("replay.group_attempt_failed", 1);
                    last_failure = Some(GroupFailure {
                        group: index,
                        kind: GroupFailureKind::Panicked,
                        error: panic_message(payload.as_ref()),
                        attempts: attempt + 1,
                        recovered: false,
                    });
                }
            }
        }
        let report = match (completed, last_failure) {
            (Some(outcome), _) => Ok(outcome),
            (None, Some(failure)) => Err(failure),
            // mitosis-lint: allow(panic-hygiene, reason = "MAX_GROUP_ATTEMPTS is a nonzero const, so the attempt loop always sets completed or last_failure before reaching this match")
            (None, None) => unreachable!("MAX_GROUP_ATTEMPTS is nonzero"),
        };
        let _ = results.send((index, report));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_groups_respects_target_and_sorts_lanes() {
        // 4 socket groups onto 2 units: LPT pairs the largest with the
        // smallest; lanes within each unit come out ascending.
        let groups = vec![vec![0, 4, 5], vec![1], vec![2, 6], vec![3]];
        let units = merge_groups(&groups, 2);
        assert_eq!(units.len(), 2);
        let mut all: Vec<usize> = units.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5, 6]);
        for unit in &units {
            assert!(unit.windows(2).all(|pair| pair[0] < pair[1]));
        }
        // Largest group (3 lanes) sits alone-ish: its unit has 4 lanes,
        // the other 3 — the balanced LPT split.
        let mut sizes: Vec<usize> = units.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 4]);
    }

    #[test]
    fn merge_groups_is_identity_at_or_above_group_count() {
        let groups = vec![vec![0, 2], vec![1, 3]];
        assert_eq!(merge_groups(&groups, 2), groups);
        assert_eq!(merge_groups(&groups, 8), groups);
    }

    #[test]
    fn merge_groups_never_splits_a_socket_group() {
        let groups = vec![vec![0, 3], vec![1, 4], vec![2, 5]];
        let units = merge_groups(&groups, 2);
        for group in &groups {
            let holder = units
                .iter()
                .filter(|unit| group.iter().any(|lane| unit.contains(lane)))
                .count();
            assert_eq!(holder, 1, "group {group:?} split across units");
        }
    }
}
