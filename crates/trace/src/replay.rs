//! Deterministic trace replay: the layer [`ReplaySession`](crate::ReplaySession)
//! drives.
//!
//! Replay rebuilds the captured experiment from scratch: it builds the
//! trace's setup events, which are the [`SetupStep`]s the capture ran, with
//! [`PreparedSystem::build`] — the interpreter the live run and its capture
//! used — and drives the existing [`ExecutionEngine`] with one
//! [`LaneCursor`] per captured thread.  Mid-lane [`PhaseChange`] markers
//! are lifted back into a [`PhaseSchedule`] and re-applied at the same
//! access-count boundaries.  Because the engine is fed the exact access sequence the
//! capture recorded (and the substrate is fully deterministic), the
//! replayed [`RunMetrics`] are bit-identical to the live run's — for
//! static *and* dynamic captures.
//!
//! Replay is split into *prepare* and *run*: [`prepare_replay`] executes
//! the header checks and setup events once, producing a cloneable
//! [`ReplaySnapshot`] of the full prepared system, and
//! [`TraceReplayer::replay_snapshot`] /
//! [`TraceReplayer::replay_snapshot_lanes`] run the measured phase from a
//! *clone* of that snapshot.  Running from a clone is bit-identical to
//! re-executing the setup — grouped replay relies on this to prepare
//! once and fan copies out to its workers.  [`TraceReplayer`]
//! keeps one [`ExecutionEngine`] (pooled MMUs, allocated caches) across
//! runs, resetting it per trace, which shaves the per-run setup cost that
//! dominates for short traces.

use crate::format::{MachineFingerprint, Trace, TraceError, TraceLane};
use mitosis::MitosisError;
use mitosis_numa::SocketId;
use mitosis_sim::{
    EngineCheckpoint, ExecutionEngine, Observer, PhaseChange, PhaseEvent, PhaseSchedule,
    PreparedSystem, RunMetrics, RunSpec, SetupStep, SimParams, SpanOutcome, ThreadPlacement,
};
use mitosis_vmm::VmError;
use mitosis_workloads::{Access, AccessSource, WorkloadSpec};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors produced while replaying a trace.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace itself could not be decoded.
    Trace(TraceError),
    /// A virtual-memory operation failed during event replay.
    Vm(VmError),
    /// A Mitosis operation failed during event replay.
    Mitosis(MitosisError),
    /// The trace is inconsistent with the replay request (unknown workload,
    /// missing events, mismatched lane lengths, ...).
    Mismatch(String),
    /// A pool job panicked and the panic was caught on the worker instead
    /// of unwinding into the caller.  Names the unit the job replayed
    /// (`lane group 2: ...`, `trace 0: ...`), followed by the panic
    /// payload's message when it was a string.
    Panic(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "replay failed to decode trace: {e}"),
            ReplayError::Vm(e) => write!(f, "replay VM operation failed: {e}"),
            ReplayError::Mitosis(e) => write!(f, "replay Mitosis operation failed: {e}"),
            ReplayError::Mismatch(what) => write!(f, "trace/replay mismatch: {what}"),
            ReplayError::Panic(what) => write!(f, "replay worker panicked: {what}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
            ReplayError::Vm(e) => Some(e),
            ReplayError::Mitosis(e) => Some(e),
            ReplayError::Mismatch(_) | ReplayError::Panic(_) => None,
        }
    }
}

impl ReplayError {
    /// The error for a failed [`PreparedSystem::build`]: a malformed step
    /// list is a [`ReplayError::Mismatch`], a failed VM operation a
    /// [`ReplayError::Vm`], and any other failure a
    /// [`ReplayError::Mitosis`].
    pub(crate) fn of_setup(err: MitosisError) -> Self {
        match err {
            MitosisError::InvalidSetup { .. } => ReplayError::Mismatch(err.to_string()),
            MitosisError::Vm(vm) => ReplayError::Vm(vm),
            other => ReplayError::Mitosis(other),
        }
    }
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

impl From<VmError> for ReplayError {
    fn from(e: VmError) -> Self {
        ReplayError::Vm(e)
    }
}

impl From<MitosisError> for ReplayError {
    fn from(e: MitosisError) -> Self {
        ReplayError::Mitosis(e)
    }
}

/// An [`AccessSource`] feeding a captured lane to the execution engine.
///
/// Aligned to 128 bytes for the reason [`AccessStream`] is: replay keeps
/// its cursors side by side, and a split segment advances them on
/// different host threads.
///
/// [`AccessStream`]: mitosis_workloads::AccessStream
#[derive(Debug, Clone)]
#[repr(align(128))]
pub struct LaneCursor<'a> {
    accesses: &'a [Access],
    position: usize,
    /// One past the largest offset from `position` on, taken once when
    /// the cursor is built (an upper bound for every later position).
    bound: u64,
}

impl<'a> LaneCursor<'a> {
    /// A cursor over `accesses`, starting at the beginning.
    pub fn new(accesses: &'a [Access]) -> Self {
        LaneCursor::at(accesses, 0)
    }

    /// A cursor that has already consumed `position` accesses — the resume
    /// path of checkpoint/resume replay, where the engine restarts mid-lane.
    pub fn at(accesses: &'a [Access], position: usize) -> Self {
        let bound = accesses
            .get(position..)
            .unwrap_or_default()
            .iter()
            .map(|access| access.offset.saturating_add(1))
            .max()
            .unwrap_or(0);
        LaneCursor {
            accesses,
            position,
            bound,
        }
    }

    /// Accesses not yet consumed.
    pub fn remaining(&self) -> usize {
        self.accesses.len() - self.position
    }
}

impl AccessSource for LaneCursor<'_> {
    fn next_access(&mut self) -> Access {
        let access = self.accesses[self.position];
        self.position += 1;
        access
    }

    fn offset_bound(&self) -> Option<u64> {
        Some(self.bound)
    }
}

/// Knobs for [`prepare_replay`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOptions {
    /// Proceed when the trace's recorded machine fingerprint does not match
    /// the replay machine; the downgraded mismatch is recorded on
    /// [`ReplayOutcome::machine_mismatch`].  The replayed metrics are then
    /// **not** comparable to the capture's.
    pub force_machine: bool,
}

impl ReplayOptions {
    /// Default options: machine mismatches are rejected.
    pub fn new() -> Self {
        ReplayOptions::default()
    }

    /// Allows replaying on a machine that differs from the captured one.
    pub fn force_machine(mut self) -> Self {
        self.force_machine = true;
        self
    }
}

/// A machine-fingerprint mismatch that was downgraded to a recorded
/// warning by [`ReplayOptions::force_machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineMismatch {
    /// The machine the trace was captured on.
    pub captured: MachineFingerprint,
    /// The machine the replay actually ran on.
    pub replayed: MachineFingerprint,
}

impl fmt::Display for MachineMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace captured on a different machine (trace: {}; replay: {}); \
             metrics will not match the capture",
            self.captured, self.replayed
        )
    }
}

/// Whether a replay ran the whole captured trace or a salvaged prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayCompleteness {
    /// The full trace was replayed.
    Complete,
    /// The trace bytes were damaged and the replay ran the longest
    /// checkpoint-attested prefix instead (see
    /// [`Trace::recover`]); the metrics cover only that prefix.
    Salvaged {
        /// Accesses (per lane) that survived salvage and were replayed.
        valid_accesses: u64,
        /// Decoded accesses discarded because they were past the last
        /// attested checkpoint.
        lost_accesses: u64,
    },
}

/// Result of replaying one trace.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Metrics of the replayed run — bit-identical to the live run the
    /// trace was captured from.
    pub metrics: RunMetrics,
    /// The workload spec the replay resolved from the trace header.
    pub spec: WorkloadSpec,
    /// `Some` when [`ReplayOptions::force_machine`] downgraded a machine
    /// fingerprint mismatch: the replay ran, but its metrics are not
    /// comparable to the capture's.  Library callers (and tests) observe
    /// the downgrade here instead of on stderr.
    pub machine_mismatch: Option<MachineMismatch>,
    /// Host time spent obtaining the prepared system this outcome ran
    /// from: the full setup-event reconstruction when the replay prepared
    /// its own system, or just the snapshot *clone* when it ran from a
    /// shared [`ReplaySnapshot`] — the difference is the whole point of
    /// snapshot-based replay.
    pub setup_wall: Duration,
    /// Host time of the measured phase alone (the part whose simulated
    /// metrics are reported).  Throughput figures divide by this, not by
    /// `setup_wall + measured_wall`, so they no longer understate the
    /// measured-phase rate by folding setup reconstruction in.
    pub measured_wall: Duration,
    /// Whether the whole trace ran, or only a salvaged prefix of a damaged
    /// one ([`ReplaySession::replay_bytes`](crate::ReplaySession::replay_bytes)
    /// with [`ReplayRequest::salvage`](crate::ReplayRequest::salvage)).
    pub completeness: ReplayCompleteness,
}

/// Rebuilds the phase-change schedule from the mid-lane markers — a
/// per-lane reconstruction.
///
/// Global phase changes fire at one boundary across all threads, so the
/// capture writes their markers into every lane; those markers must agree
/// across lanes, and the redundancy doubles as an integrity check here.
/// *Staggered* markers (format v4) are observed by one thread only and
/// live in that thread's lane alone: each lane's staggered markers are
/// lifted back into thread-filtered [`PhaseEvent`]s targeting that lane's
/// thread index, so the lanes of a staggered capture legitimately
/// disagree.  A staggered marker on a change that cannot be staggered is
/// a [`ReplayError::Mismatch`].
fn schedule_of_lanes(lanes: &[TraceLane]) -> Result<PhaseSchedule, ReplayError> {
    let global_events = |lane: &TraceLane| -> Vec<(u64, PhaseChange)> {
        lane.events
            .iter()
            .filter(|&&(.., staggered)| !staggered)
            .map(|&(position, change, _)| (position, change))
            .collect()
    };
    let reference = global_events(&lanes[0]);
    for (index, lane) in lanes.iter().enumerate().skip(1) {
        if global_events(lane) != reference {
            return Err(ReplayError::Mismatch(format!(
                "lane {index} disagrees with lane 0 on mid-lane phase events \
                 (unstaggered phase changes must fire at one boundary across \
                 all threads)"
            )));
        }
    }
    let mut events: Vec<PhaseEvent> = reference
        .into_iter()
        .map(|(at_access, change)| PhaseEvent {
            at_access,
            change,
            thread: None,
        })
        .collect();
    for (thread, lane) in lanes.iter().enumerate() {
        for &(at_access, change, _) in lane.events.iter().filter(|&&(.., staggered)| staggered) {
            if !change.supports_thread_filter() {
                return Err(ReplayError::Mismatch(format!(
                    "lane {thread} staggers {change:?}, which frees page tables \
                     and fires on every thread at once"
                )));
            }
            events.push(PhaseEvent {
                at_access,
                change,
                thread: Some(thread),
            });
        }
    }
    // `from_events` re-sorts into the canonical firing order (globals
    // before staggered, staggered by thread), which is exactly the order
    // the capture fired and recorded them in — the round trip is exact.
    Ok(PhaseSchedule::from_events(events))
}

/// A captured experiment reconstructed up to the measured phase: the
/// system with every setup event applied, ready to run lanes.
///
/// Produced once per trace by [`prepare_replay`], then *cloned* into every
/// run that needs it — serial re-runs, one copy per lane group in grouped
/// replay — instead of re-executing the setup events per run.  The clone
/// is a deep copy of the full simulated state (see [`PreparedSystem`]), so
/// running from a clone is bit-identical to running after a fresh setup
/// replay; it merely costs a memcpy-shaped copy instead of re-faulting
/// every page of the footprint.
///
/// The snapshot borrows nothing from the [`Trace`]: lane accesses stay in
/// the trace, and the run entry points take both (the snapshot must have
/// been prepared from the same trace, which is checked cheaply via the
/// lane count and per-lane access count).
///
/// A snapshot is not limited to the post-setup boundary:
/// [`TraceReplayer::checkpoint_at`] pauses a whole-trace replay mid-lane
/// and returns a snapshot of the partially run system (`at_access > 0`,
/// with the engine's own checkpoint attached), and
/// [`TraceReplayer::replay_snapshot`] finishes it — bit-identical to the
/// uninterrupted run.
#[derive(Debug, Clone)]
pub struct ReplaySnapshot {
    prepared: PreparedSystem,
    spec: WorkloadSpec,
    lanes: usize,
    accesses_per_thread: u64,
    schedule: PhaseSchedule,
    machine: MachineFingerprint,
    machine_mismatch: Option<MachineMismatch>,
    setup_wall: Duration,
    /// Accesses per lane already consumed: 0 for a post-setup snapshot,
    /// the pause boundary for a mid-run one.
    at_access: u64,
    /// The engine's own mid-run state (per-thread totals, MMU models,
    /// phase-schedule position) when this snapshot paused inside the
    /// measured phase; `None` at the post-setup boundary.
    engine: Option<EngineCheckpoint>,
}

impl ReplaySnapshot {
    /// The workload spec resolved from the trace header.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Accesses per lane already consumed when this snapshot was taken:
    /// 0 for a post-setup snapshot from [`prepare_replay`], the pause
    /// boundary for a mid-run snapshot from [`TraceReplayer::checkpoint_at`].
    pub fn at_access(&self) -> u64 {
        self.at_access
    }

    /// Host time the setup-event reconstruction took — the cost every
    /// additional worker group *avoids* by cloning this snapshot.
    pub fn setup_wall(&self) -> Duration {
        self.setup_wall
    }

    /// The recorded machine-fingerprint mismatch, when
    /// [`ReplayOptions::force_machine`] downgraded one during preparation.
    pub fn machine_mismatch(&self) -> Option<MachineMismatch> {
        self.machine_mismatch
    }

    /// Cheap consistency check that `trace` is plausibly the trace this
    /// snapshot was prepared from: the lane count and *every* lane's
    /// access count must match the prepared shape.  (A shape-identical
    /// but content-different trace is undetectable here; the check exists
    /// to turn the common mix-up into an error instead of an out-of-range
    /// cursor panic or silently wrong metrics.)
    fn check_trace(&self, trace: &Trace) -> Result<(), ReplayError> {
        if trace.lanes.len() != self.lanes
            || trace
                .lanes
                .iter()
                .any(|lane| lane.accesses.len() as u64 != self.accesses_per_thread)
        {
            return Err(ReplayError::Mismatch(
                "snapshot was prepared from a different trace (lane shape differs)".into(),
            ));
        }
        Ok(())
    }
}

/// A reusable replay driver: keeps one [`ExecutionEngine`] (pooled MMUs,
/// allocated per-socket caches) across replays and resets it per trace, so
/// batch replay does not pay the engine construction cost per trace.
///
/// Metrics are bit-identical to a fresh replayer's: a reset engine is
/// indistinguishable from a fresh one.
#[derive(Debug, Default)]
pub struct TraceReplayer {
    /// The pooled engine, tagged with the machine it was built for (an
    /// engine's cache capacities are machine-derived, so a replayer used
    /// across differently scaled machines rebuilds instead of reusing).
    engine: Option<(MachineFingerprint, ExecutionEngine)>,
    /// Observer handed to the engine on every run (spans and counters).
    /// Defaults to [`Observer::none`], which records nothing; replayed
    /// metrics are bit-identical either way.
    observer: Observer,
    /// Track (timeline) this replayer's spans carry — the lane-group track
    /// in parallel replay, 0 otherwise.
    track: u64,
}

impl TraceReplayer {
    /// Creates a replayer with no pooled engine yet.
    pub fn new() -> Self {
        TraceReplayer::default()
    }

    /// Installs the observer later replays report spans and counters to.
    /// Observing never changes replayed metrics, which reach the caller only
    /// in the replay's outcome.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// Sets the track (timeline) this replayer's spans are tagged with.
    pub fn set_observer_track(&mut self, track: u64) {
        self.track = track;
    }

    /// The installed observer.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Prepare + run in one call — the per-trace unit of
    /// [`ReplaySession::replay_batch`](crate::ReplaySession::replay_batch).
    pub(crate) fn replay_full(
        &mut self,
        trace: &Trace,
        params: &SimParams,
        options: ReplayOptions,
    ) -> Result<ReplayOutcome, ReplayError> {
        let prepared = {
            let _span = self.observer.span("prepare_replay", self.track);
            prepare_replay(trace, params, options)?
        };
        self.run_lanes(prepared, trace, None)
    }

    /// Replays all lanes of `trace` from a shared [`ReplaySnapshot`]: the
    /// snapshot is cloned (a deep copy of the prepared system; it stays
    /// reusable) and the clone runs the measured phase from wherever the
    /// snapshot stands, so the setup events are **not** re-executed.  From
    /// a post-setup snapshot that is the whole measured phase; from a
    /// mid-run snapshot taken by [`TraceReplayer::checkpoint_at`] it is the
    /// rest of the run, and the metrics still cover the *whole* measured
    /// phase — per-thread totals carry across the pause.  Either way the
    /// metrics are bit-identical to an uninterrupted replay of the same
    /// trace; the outcome's `setup_wall` records only the clone cost.
    ///
    /// # Errors
    ///
    /// Same conditions as [`prepare_replay`], plus a mismatch when `trace`
    /// is not the trace the snapshot was prepared from.
    pub fn replay_snapshot(
        &mut self,
        snapshot: &ReplaySnapshot,
        trace: &Trace,
    ) -> Result<ReplayOutcome, ReplayError> {
        snapshot.check_trace(trace)?;
        let clone = {
            let _span = self.observer.span("snapshot_clone", self.track);
            clone_snapshot(snapshot)
        };
        self.run_lanes(clone, trace, None)
    }

    /// Replays an ordered subset of `trace`'s lanes from a shared
    /// post-setup [`ReplaySnapshot`] — the per-worker unit of
    /// snapshot-based lane-group replay: every group clones the one
    /// prepared system instead of rebuilding it from events.
    ///
    /// Lanes sharing a socket interact through that socket's
    /// page-table-line cache, so they must replay *together* and in lane
    /// order to reproduce the whole-trace replay.  Mid-lane phase changes
    /// are re-applied at the same boundaries; changes staggered onto lanes
    /// outside `lanes` still mutate the system without any selected lane
    /// observing them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`prepare_replay`], plus a mismatch when `trace`
    /// is not the trace the snapshot was prepared from, for an empty,
    /// out-of-range or not strictly increasing selection, and for a
    /// mid-run snapshot (it paused a whole-trace replay, so running a lane
    /// subset from it would misattribute per-thread state).
    pub fn replay_snapshot_lanes(
        &mut self,
        snapshot: &ReplaySnapshot,
        trace: &Trace,
        lanes: &[usize],
    ) -> Result<ReplayOutcome, ReplayError> {
        snapshot.check_trace(trace)?;
        validate_lane_selection(trace, lanes)?;
        let clone = {
            let _span = self.observer.span("snapshot_clone", self.track);
            clone_snapshot(snapshot)
        };
        self.run_lanes(clone, trace, Some(lanes))
    }

    /// Replays all lanes of `trace` up to `at` accesses per lane and
    /// pauses, returning a mid-run [`ReplaySnapshot`] that
    /// [`TraceReplayer::replay_snapshot`] can finish later — the resumed
    /// run's metrics are bit-identical to an uninterrupted replay.
    /// `at == 0` returns the plain post-setup snapshot (nothing has run
    /// yet).
    ///
    /// The pause lands *before* any phase change scheduled at `at` fires,
    /// so resuming applies it exactly once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`prepare_replay`], plus a mismatch when `at` is
    /// at or past the per-lane access count (there is nothing left to
    /// resume).
    pub fn checkpoint_at(
        &mut self,
        trace: &Trace,
        params: &SimParams,
        options: ReplayOptions,
        at: u64,
    ) -> Result<ReplaySnapshot, ReplayError> {
        let prepared = {
            let _span = self.observer.span("prepare_replay", self.track);
            prepare_replay(trace, params, options)?
        };
        if at == 0 {
            return Ok(prepared);
        }
        if at >= prepared.accesses_per_thread {
            return Err(ReplayError::Mismatch(format!(
                "checkpoint at access {at} is out of range: lanes have {} \
                 accesses (a checkpoint must pause strictly inside the \
                 measured phase)",
                prepared.accesses_per_thread
            )));
        }
        match self.run_lanes_span(prepared, trace, None, Some(at))? {
            LaneRun::Paused(snapshot) => Ok(*snapshot),
            LaneRun::Completed(_) => unreachable!("engine pauses at every in-range stop boundary"),
        }
    }

    /// Runs the measured phase of a prepared replay over all lanes
    /// (`selection == None`) or an ordered subset, consuming the snapshot
    /// (the one-shot path: no clone is paid).
    fn run_lanes(
        &mut self,
        snapshot: ReplaySnapshot,
        trace: &Trace,
        selection: Option<&[usize]>,
    ) -> Result<ReplayOutcome, ReplayError> {
        match self.run_lanes_span(snapshot, trace, selection, None)? {
            LaneRun::Completed(outcome) => Ok(*outcome),
            LaneRun::Paused(_) => unreachable!("no stop boundary was requested"),
        }
    }

    /// Runs a span of the measured phase: from wherever `snapshot` stands
    /// (post-setup, or mid-run for a checkpoint snapshot) to `stop_at` when
    /// given, else to completion.  Pausing returns a new mid-run snapshot;
    /// completing returns the full-run outcome (totals carry across pauses,
    /// so a resumed run's metrics cover the whole measured phase).
    fn run_lanes_span(
        &mut self,
        snapshot: ReplaySnapshot,
        trace: &Trace,
        selection: Option<&[usize]>,
        stop_at: Option<u64>,
    ) -> Result<LaneRun, ReplayError> {
        let ReplaySnapshot {
            prepared,
            spec,
            lanes,
            accesses_per_thread,
            schedule,
            machine,
            machine_mismatch,
            setup_wall,
            at_access,
            engine: engine_checkpoint,
        } = snapshot;
        // A mid-run snapshot paused a whole-trace replay: its engine
        // checkpoint carries one per-thread state per trace lane, so
        // resuming a lane subset would silently misattribute lanes.
        if engine_checkpoint.is_some() && selection.is_some() {
            return Err(ReplayError::Mismatch(
                "mid-run snapshot paused a whole-trace replay and must resume \
                 all lanes"
                    .into(),
            ));
        }
        let PreparedSystem {
            mut system,
            mut mitosis,
            pid,
            region,
        } = prepared;
        let selected: Vec<&crate::format::TraceLane> = match selection {
            Some(indices) => indices.iter().map(|&index| &trace.lanes[index]).collect(),
            None => trace.lanes.iter().collect(),
        };
        // Thread filters in the reconstructed schedule index the *trace's*
        // lanes; the engine indexes the threads it actually runs.  Remap:
        // a filter naming a selected lane becomes that lane's local index,
        // one naming an absent lane goes out of range (the change still
        // fires, no local thread observes it), keeping the system evolution
        // of every lane subset identical to the whole-trace replay.
        let schedule = match selection {
            Some(indices) => schedule
                .retarget_threads(|lane| indices.iter().position(|&selected| selected == lane)),
            None => schedule,
        };
        let threads: Vec<ThreadPlacement> = selected
            .iter()
            .map(|lane| {
                let socket = SocketId::new(lane.socket);
                ThreadPlacement {
                    core: system.machine().first_core_of_socket(socket),
                    socket,
                }
            })
            .collect();
        let position = usize::try_from(at_access).map_err(|_| {
            ReplayError::Mismatch(format!(
                "mid-run snapshot at access {at_access} is past any lane this host can hold"
            ))
        })?;
        let mut cursors: Vec<LaneCursor> = selected
            .iter()
            .map(|lane| LaneCursor::at(&lane.accesses, position))
            .collect();
        let lane_count = cursors.len() as u64;

        let engine = match &mut self.engine {
            Some((pooled_machine, engine)) if *pooled_machine == machine => {
                engine.reset();
                engine
            }
            slot => {
                *slot = Some((machine, ExecutionEngine::new(&system)));
                &mut slot.as_mut().expect("just installed").1
            }
        };
        engine.set_observer(self.observer.clone());
        engine.set_observer_track(self.track);
        #[expect(clippy::disallowed_methods, reason = "measured wall, not a metric")]
        let measured_start = Instant::now();
        let span_outcome = {
            let _span = self.observer.span("replay.measured", self.track);
            let run = RunSpec {
                spec: &spec,
                threads: &threads,
                accesses_per_thread,
                sources: &mut cursors,
                schedule: &schedule,
                resume: engine_checkpoint.as_ref(),
                stop_at,
            };
            engine.execute(&mut system, &mut mitosis, pid, region, run)?
        };
        match span_outcome {
            SpanOutcome::Completed(metrics) => {
                self.observer.counter("replay.runs", 1);
                self.observer.counter("replay.lanes", lane_count);
                Ok(LaneRun::Completed(Box::new(ReplayOutcome {
                    metrics,
                    spec,
                    machine_mismatch,
                    setup_wall,
                    measured_wall: measured_start.elapsed(),
                    completeness: ReplayCompleteness::Complete,
                })))
            }
            SpanOutcome::Paused(checkpoint) => {
                self.observer.counter("replay.checkpoints", 1);
                let at_access = checkpoint.at_access();
                Ok(LaneRun::Paused(Box::new(ReplaySnapshot {
                    prepared: PreparedSystem {
                        system,
                        mitosis,
                        pid,
                        region,
                    },
                    spec,
                    lanes,
                    accesses_per_thread,
                    schedule,
                    machine,
                    machine_mismatch,
                    setup_wall,
                    at_access,
                    engine: Some(checkpoint),
                })))
            }
        }
    }
}

/// Result of running a span of the measured phase: the run either completed
/// or paused at the requested access boundary.
enum LaneRun {
    Completed(Box<ReplayOutcome>),
    Paused(Box<ReplaySnapshot>),
}

/// Validates an explicit lane selection against `trace`: non-empty, in
/// range, strictly increasing (group replay is order-sensitive, so a
/// shuffled selection would silently diverge).
pub(crate) fn validate_lane_selection(trace: &Trace, lanes: &[usize]) -> Result<(), ReplayError> {
    if lanes.is_empty() {
        return Err(ReplayError::Mismatch("empty lane selection".into()));
    }
    if let Some(&lane) = lanes.iter().find(|&&lane| lane >= trace.lanes.len()) {
        return Err(ReplayError::Mismatch(format!(
            "lane {lane} out of range: trace has {} lanes",
            trace.lanes.len()
        )));
    }
    if lanes.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err(ReplayError::Mismatch(
            "lane selection must be strictly increasing (lanes of a group \
             replay in lane order)"
                .into(),
        ));
    }
    Ok(())
}

/// Clones a shared snapshot for one run, re-stamping `setup_wall` with the
/// clone cost: the run it feeds did not pay for setup reconstruction, only
/// for the copy.
fn clone_snapshot(snapshot: &ReplaySnapshot) -> ReplaySnapshot {
    #[expect(clippy::disallowed_methods, reason = "clone cost is setup_wall")]
    let clone_start = Instant::now();
    let mut copy = snapshot.clone();
    copy.setup_wall = clone_start.elapsed();
    copy
}

/// Checks `trace`'s header and builds its setup steps with
/// [`PreparedSystem::build`], returning a cloneable [`ReplaySnapshot`]
/// ready for the measured phase.
///
/// This is the *prepare* half of replay's prepare/run split: every replay
/// path (serial, lane-granular, lane-grouped parallel) goes through one
/// `prepare_replay` call, and the parallel driver clones the result per
/// worker group instead of re-executing the setup events per worker.
///
/// # Errors
///
/// Fails if the machine fingerprint does not match (unless
/// `options.force_machine`), the trace references an unknown workload, its
/// setup steps are malformed (a [`ReplayError::Mismatch`]), its lanes are
/// missing or unequal, a lane runs on a socket the replay machine lacks
/// (a [`ReplayError::Mismatch`] naming the lane and the socket), its
/// mid-lane markers disagree or stagger a change that cannot be staggered
/// (a [`ReplayError::Mismatch`]), or a VM ([`ReplayError::Vm`]) or Mitosis
/// operation fails.
pub fn prepare_replay(
    trace: &Trace,
    params: &SimParams,
    options: ReplayOptions,
) -> Result<ReplaySnapshot, ReplayError> {
    #[expect(clippy::disallowed_methods, reason = "setup wall, not a metric")]
    let setup_start = Instant::now();
    let expected = MachineFingerprint::for_params(params)?;
    let mut machine_mismatch = None;
    if trace.meta.machine != expected {
        if options.force_machine {
            // Recorded on the outcome (not printed): library callers and
            // tests observe the downgrade without capturing stderr.
            machine_mismatch = Some(MachineMismatch {
                captured: trace.meta.machine,
                replayed: expected,
            });
        } else {
            return Err(ReplayError::Mismatch(format!(
                "trace was captured on a different machine (trace: {}; replay: {}); \
                 replay would silently produce different metrics — use the same \
                 machine parameters or force the replay",
                trace.meta.machine, expected
            )));
        }
    }
    let spec = trace.meta.resolve_spec().ok_or_else(|| {
        ReplayError::Mismatch(format!(
            "trace workload {:?} does not resolve to a suite spec",
            trace.meta.workload
        ))
    })?;

    let prepared =
        PreparedSystem::build(params, &trace.setup_events).map_err(ReplayError::of_setup)?;
    if trace.lanes.is_empty() {
        return Err(ReplayError::Mismatch("trace has no access lanes".into()));
    }
    let accesses_per_thread = trace.lanes[0].accesses.len() as u64;
    if trace
        .lanes
        .iter()
        .any(|l| l.accesses.len() as u64 != accesses_per_thread)
    {
        return Err(ReplayError::Mismatch(
            "trace lanes have unequal lengths".into(),
        ));
    }
    // The engine indexes per-socket tables by a lane's socket, so a lane
    // the machine cannot place is refused here, not found out of bounds.
    if let Some((index, lane)) = trace
        .lanes
        .iter()
        .enumerate()
        .find(|(_, lane)| lane.socket >= expected.sockets)
    {
        return Err(ReplayError::Mismatch(format!(
            "lane {index} runs on socket {}, but the replay machine has {} sockets",
            lane.socket, expected.sockets
        )));
    }

    let schedule = schedule_of_lanes(&trace.lanes)?;
    if schedule
        .events()
        .iter()
        .any(|event| event.change.needs_mitosis())
        && !trace.setup_events.contains(&SetupStep::InstallMitosis)
    {
        // The capture side always records InstallMitosis when the schedule
        // carries page-table operations; a trace violating that cannot have
        // come from a live run.
        return Err(ReplayError::Mismatch(
            "mid-lane page-table events without InstallMitosis".into(),
        ));
    }
    Ok(ReplaySnapshot {
        prepared,
        spec,
        lanes: trace.lanes.len(),
        accesses_per_thread,
        schedule,
        machine: expected,
        machine_mismatch,
        setup_wall: setup_start.elapsed(),
        at_access: 0,
        engine: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{TraceLane, TraceMeta, TraceWriter};
    use crate::session::{ReplayRequest, ReplaySession};
    use mitosis_numa::NodeMask;
    use mitosis_pt::VirtAddr;
    use mitosis_vmm::ThpMode;
    use mitosis_workloads::{suite, InitPattern};

    fn replay_via_session(trace: &Trace, params: &SimParams) -> Result<ReplayOutcome, ReplayError> {
        Ok(ReplaySession::new(params)
            .replay(trace, &ReplayRequest::new())?
            .outcome)
    }

    #[test]
    fn lane_cursor_yields_in_order() {
        let accesses = [
            Access {
                offset: 8,
                is_write: false,
            },
            Access {
                offset: 16,
                is_write: true,
            },
        ];
        let mut cursor = LaneCursor::new(&accesses);
        assert_eq!(cursor.remaining(), 2);
        assert_eq!(cursor.next_access(), accesses[0]);
        assert_eq!(cursor.next_access(), accesses[1]);
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn replay_rejects_traces_without_setup() {
        let params = SimParams::quick_test();
        let spec = params.scale_workload(&suite::gups());
        let trace = Trace {
            meta: TraceMeta::for_spec(&spec, &params).unwrap(),
            setup_events: vec![],
            lanes: vec![TraceLane::new(0)],
        };
        let err = replay_via_session(&trace, &params).unwrap_err();
        assert!(matches!(err, ReplayError::Mismatch(_)), "{err}");
    }

    #[test]
    fn install_mitosis_is_honored_anywhere_before_process_creation() {
        // InstallMitosis need not be the very first event (e.g. SetThp may
        // precede it); the replay must still install the Mitosis backend,
        // observable through MigratePageTable succeeding.
        let params = SimParams::quick_test().with_accesses(50);
        let spec = params.scale_workload(&suite::gups());
        let home = SocketId::new(0);
        let mut trace = Trace {
            meta: TraceMeta::for_spec(&spec, &params).unwrap(),
            setup_events: vec![
                SetupStep::SetThp(ThpMode::Never),
                SetupStep::InstallMitosis,
                SetupStep::CreateProcess(home),
                SetupStep::Mmap {
                    len: spec.footprint(),
                    populate: false,
                    thp: true,
                },
                SetupStep::Populate {
                    len: spec.footprint(),
                    init: InitPattern::SingleThread,
                    sockets: NodeMask::single(home),
                },
                SetupStep::Change(PhaseChange::MigratePageTable { target: home }),
            ],
            lanes: vec![crate::capture::capture_stream(&spec, params.seed, 0, 50)],
        };
        replay_via_session(&trace, &params).expect("non-first InstallMitosis must be honored");

        // But after process creation it is an error, not a silent no-op.
        trace.setup_events = vec![
            SetupStep::CreateProcess(home),
            SetupStep::InstallMitosis,
            SetupStep::Mmap {
                len: spec.footprint(),
                populate: false,
                thp: true,
            },
        ];
        let err = replay_via_session(&trace, &params).unwrap_err();
        assert!(matches!(err, ReplayError::Mismatch(_)), "{err}");
    }

    #[test]
    fn replay_rejects_unknown_workloads() {
        let params = SimParams::quick_test();
        let trace = Trace {
            meta: TraceMeta {
                workload: "doom".into(),
                footprint: 1 << 26,
                seed: 7,
                write_fraction: 0.0,
                compute_cycles_per_access: 1,
                bandwidth_intensity: 0.0,
                // Matching machine, so the failure is the unknown workload.
                machine: MachineFingerprint::for_params(&params).unwrap(),
            },
            setup_events: vec![SetupStep::CreateProcess(SocketId::new(0))],
            lanes: vec![],
        };
        let err = replay_via_session(&trace, &params).unwrap_err();
        assert!(matches!(err, ReplayError::Mismatch(_)), "{err}");
    }

    /// Field values for one round-trip case; each variant takes the ones
    /// it needs.
    #[derive(Debug, Clone, Copy)]
    struct Fields {
        socket: SocketId,
        mask: NodeMask,
        addr: VirtAddr,
        len: u64,
        flag: bool,
        other_flag: bool,
    }

    impl Fields {
        fn new(socket: u16, mask: u64, addr: u64, len: u64, flags: (bool, bool)) -> Self {
            Fields {
                socket: SocketId::new(socket),
                mask: NodeMask::from_bits(mask),
                addr: VirtAddr::new(addr % (1 << 48)),
                len,
                flag: flags.0,
                other_flag: flags.1,
            }
        }
    }

    /// The `SetupStep` variant after `step`'s, filled from `fields`, or
    /// `None` after the last.  The match has no wildcard, so a new variant
    /// does not compile until it joins this chain, which the round-trip
    /// tests walk whole.
    fn next_step(step: SetupStep, fields: Fields) -> Option<SetupStep> {
        Some(match step {
            SetupStep::InstallMitosis => SetupStep::SetThp(if fields.flag {
                ThpMode::Always
            } else {
                ThpMode::Never
            }),
            SetupStep::SetThp(_) => SetupStep::PtPlacement(fields.socket),
            SetupStep::PtPlacement(_) => SetupStep::CreateProcess(fields.socket),
            SetupStep::CreateProcess(_) => SetupStep::BindData(fields.socket),
            SetupStep::BindData(_) => SetupStep::InterleaveData(fields.mask),
            SetupStep::InterleaveData(_) => SetupStep::Mmap {
                len: fields.len,
                populate: fields.flag,
                thp: fields.other_flag,
            },
            SetupStep::Mmap { .. } => SetupStep::Populate {
                len: fields.len,
                init: if fields.flag {
                    InitPattern::Parallel
                } else {
                    InitPattern::SingleThread
                },
                sockets: fields.mask,
            },
            SetupStep::Populate { .. } => SetupStep::Change(first_change(fields)),
            SetupStep::Change(_) => return None,
        })
    }

    fn first_change(fields: Fields) -> PhaseChange {
        PhaseChange::MigrateData {
            target: fields.socket,
        }
    }

    /// [`next_step`] for `PhaseChange`.
    fn next_change(change: PhaseChange, fields: Fields) -> Option<PhaseChange> {
        let Fields {
            socket, mask, addr, ..
        } = fields;
        Some(match change {
            PhaseChange::MigrateData { .. } => PhaseChange::MigratePageTable { target: socket },
            PhaseChange::MigratePageTable { .. } => PhaseChange::SetReplicas { sockets: mask },
            PhaseChange::SetReplicas { .. } => PhaseChange::AutoNumaRebalance { sockets: mask },
            PhaseChange::AutoNumaRebalance { .. } => PhaseChange::SetInterference { sockets: mask },
            PhaseChange::SetInterference { .. } => PhaseChange::Fork,
            PhaseChange::Fork => PhaseChange::MmapAt {
                addr,
                length: fields.len,
            },
            PhaseChange::MmapAt { .. } => PhaseChange::MunmapAt {
                addr,
                length: fields.len,
            },
            PhaseChange::MunmapAt { .. } => PhaseChange::PromoteHuge { addr },
            PhaseChange::PromoteHuge { .. } => PhaseChange::DemoteHuge { addr },
            PhaseChange::DemoteHuge { .. } => return None,
        })
    }

    /// Every `SetupStep`, with a `SetupStep::Change` for every phase change.
    fn every_step(fields: Fields) -> Vec<SetupStep> {
        let steps = std::iter::successors(Some(SetupStep::InstallMitosis), |&step| {
            next_step(step, fields)
        });
        let changes = every_change(fields).into_iter().map(SetupStep::Change);
        steps.chain(changes).collect()
    }

    fn every_change(fields: Fields) -> Vec<PhaseChange> {
        std::iter::successors(Some(first_change(fields)), |&change| {
            next_change(change, fields)
        })
        .collect()
    }

    fn meta() -> TraceMeta {
        let params = SimParams::quick_test();
        TraceMeta::for_spec(&params.scale_workload(&suite::gups()), &params).unwrap()
    }

    /// A trace with these setup steps and one empty lane carrying these
    /// markers, written to bytes and read back.
    fn through_the_codec(
        setup_events: Vec<SetupStep>,
        markers: &[(u64, PhaseChange, bool)],
    ) -> Trace {
        let mut lane = TraceLane::new(0);
        lane.events = markers.to_vec();
        let trace = Trace {
            meta: meta(),
            setup_events,
            lanes: vec![lane],
        };
        Trace::from_bytes(&trace.to_bytes().unwrap()).unwrap()
    }

    /// Decodes one staggered `change`, written before the first lane or
    /// inside it.
    fn staggered_marker(change: PhaseChange, in_lane: bool) -> Result<Trace, TraceError> {
        let mut writer = TraceWriter::new(Vec::new(), &meta()).unwrap();
        if in_lane {
            writer.begin_lane(0).unwrap();
        }
        writer.phase_change(change, true).unwrap();
        Trace::from_bytes(&writer.finish().unwrap())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Every setup step, a phase change of each kind included, survives
        /// the codec as a setup event.
        #[test]
        fn every_setup_step_round_trips_through_a_trace(
            socket in proptest::any::<u16>(),
            mask in proptest::any::<u64>(),
            addr in proptest::any::<u64>(),
            len in proptest::any::<u64>(),
            flags in (proptest::any::<bool>(), proptest::any::<bool>()),
        ) {
            let steps = every_step(Fields::new(socket, mask, addr, len, flags));
            let decoded = through_the_codec(steps.clone(), &[]).setup_events;
            proptest::prop_assert_eq!(decoded, steps);
        }

        /// Every phase change, staggered where it may be, survives the
        /// codec as a mid-lane marker.  The reader refuses a staggered one
        /// before the first lane, and a staggered flag on one that cannot
        /// be staggered.
        #[test]
        fn every_phase_change_round_trips_through_a_lane(
            socket in proptest::any::<u16>(),
            mask in proptest::any::<u64>(),
            addr in proptest::any::<u64>(),
            len in proptest::any::<u64>(),
            flags in (proptest::any::<bool>(), proptest::any::<bool>()),
        ) {
            let changes = every_change(Fields::new(socket, mask, addr, len, flags));
            let markers: Vec<(u64, PhaseChange, bool)> = changes
                .iter()
                .flat_map(|&change| {
                    let staggered = change.supports_thread_filter().then_some((0, change, true));
                    std::iter::once((0, change, false)).chain(staggered)
                })
                .collect();
            let lane = &through_the_codec(Vec::new(), &markers).lanes[0];
            proptest::prop_assert_eq!(&lane.events, &markers);
            for change in changes {
                proptest::prop_assert!(matches!(
                    staggered_marker(change, false),
                    Err(TraceError::Corrupt(_))
                ));
                proptest::prop_assert_eq!(
                    staggered_marker(change, true).is_ok(),
                    change.supports_thread_filter()
                );
            }
        }
    }
}
