//! Trace capture: turning live access streams and scenario setups into
//! replayable [`Trace`] artifacts.
//!
//! Three capture granularities are provided:
//!
//! * [`RecordingSource`] wraps any [`AccessSource`] and tees every access it
//!   hands out into a buffer — the building block for capturing whatever
//!   actually fed the engine;
//! * [`capture_engine_run`], [`capture_migration_scenario`] and
//!   [`capture_multisocket_scenario`] run a full experiment while recording
//!   it, returning both the live metrics and the trace whose replay
//!   reproduces them bit-for-bit.  Each builds its system from a list of
//!   [`SetupStep`]s through [`PreparedSystem::build`] — for the scenarios,
//!   the runner's own `setup` — and writes those steps themselves as the
//!   trace's setup events, which replay builds again;
//! * [`capture_engine_run_dynamic`] additionally threads a
//!   [`PhaseSchedule`] of mid-run phase-change events through the run and
//!   records each fired [`PhaseChange`](mitosis_sim::PhaseChange) as a
//!   mid-lane marker at the exact access index, so the dynamic run replays
//!   bit-identically too.

use crate::format::{Trace, TraceLane, TraceMeta};
use crate::replay::ReplayError;
use mitosis_numa::SocketId;
use mitosis_sim::{
    ExecutionEngine, MigrationRun, MultiSocketConfig, MultiSocketScenario, PhaseEvent,
    PhaseSchedule, PreparedSystem, RunMetrics, RunSpec, SetupStep, SimParams, SpanOutcome,
    ThreadPlacement, WorkloadMigrationScenario,
};
use mitosis_vmm::System;
use mitosis_workloads::{Access, AccessSource, AccessStream, WorkloadSpec};

/// An [`AccessSource`] adaptor that records every access it forwards.
#[derive(Debug, Clone)]
pub struct RecordingSource<S> {
    inner: S,
    recorded: Vec<Access>,
}

impl<S: AccessSource> RecordingSource<S> {
    /// Wraps `inner`, recording everything it produces.
    pub fn new(inner: S) -> Self {
        RecordingSource {
            inner,
            recorded: Vec::new(),
        }
    }

    /// The accesses forwarded so far.
    pub fn recorded(&self) -> &[Access] {
        &self.recorded
    }

    /// Consumes the adaptor, returning the recorded accesses.
    pub fn into_recorded(self) -> Vec<Access> {
        self.recorded
    }
}

impl<S: AccessSource> AccessSource for RecordingSource<S> {
    fn next_access(&mut self) -> Access {
        let access = self.inner.next_access();
        self.recorded.push(access);
        access
    }

    fn offset_bound(&self) -> Option<u64> {
        self.inner.offset_bound()
    }
}

/// Captures `accesses` accesses of `spec`'s deterministic stream under
/// `seed` into a lane for a thread on `socket`, without running the engine.
pub fn capture_stream(spec: &WorkloadSpec, seed: u64, socket: u16, accesses: u64) -> TraceLane {
    let mut stream = AccessStream::new(spec, seed);
    let mut lane = TraceLane::new(socket);
    lane.accesses = (0..accesses).map(|_| stream.next_access()).collect();
    lane
}

/// A capture that also ran the experiment live.
#[derive(Debug, Clone)]
pub struct CapturedRun {
    /// The replayable trace.
    pub trace: Trace,
    /// Metrics of the live run that produced the trace; replaying the trace
    /// reproduces exactly these.
    pub live_metrics: RunMetrics,
}

/// Builds `steps`, runs `spec` (already scaled) live on the threads
/// `threads` places, with recording sources and `schedule`, and returns
/// the live metrics with a trace whose setup events are `steps`.
fn capture_steps(
    spec: &WorkloadSpec,
    params: &SimParams,
    steps: &[SetupStep],
    threads: impl FnOnce(&System) -> Vec<ThreadPlacement>,
    schedule: &PhaseSchedule,
) -> Result<CapturedRun, ReplayError> {
    let PreparedSystem {
        mut system,
        mut mitosis,
        pid,
        region,
    } = PreparedSystem::build(params, steps).map_err(ReplayError::of_setup)?;
    let threads = threads(&system);
    if let Some(event) = schedule
        .events()
        .iter()
        .find(|e| e.thread.is_some_and(|t| t >= threads.len()))
    {
        // An unobservable event cannot land in any lane, so the trace
        // could not reproduce the run: reject the capture up front.
        return Err(ReplayError::Mismatch(format!(
            "phase event at access {} targets thread {} but the capture runs {} threads",
            event.at_access,
            // Infallible: the `find` predicate above only matches events
            // whose `thread` is `Some` (is_some_and).
            event.thread.expect("filtered event"),
            threads.len()
        )));
    }
    let mut sources: Vec<RecordingSource<AccessStream>> =
        ExecutionEngine::thread_streams(spec, params, threads.len())
            .into_iter()
            .map(RecordingSource::new)
            .collect();
    let run = RunSpec {
        spec,
        threads: &threads,
        accesses_per_thread: params.accesses_per_thread,
        sources: &mut sources,
        schedule,
        resume: None,
        stop_at: None,
    };
    let live_metrics =
        match ExecutionEngine::new(&system).execute(&mut system, &mut mitosis, pid, region, run)? {
            SpanOutcome::Completed(metrics) => metrics,
            SpanOutcome::Paused(_) => unreachable!("no stop boundary was requested"),
        };
    // Global phase changes fire at the same access boundary on every
    // thread, so every lane carries their markers — replay cross-checks
    // them as an integrity guard.  Staggered (thread-filtered) changes are
    // observed by one thread only and land in that thread's lane alone;
    // the lanes of a staggered capture legitimately disagree (format v4).
    // Events scheduled beyond the run clamp to its end, exactly as the
    // engine fired them.
    let marker_of = |event: &PhaseEvent| {
        (
            event.at_access.min(params.accesses_per_thread),
            event.change,
            event.thread.is_some(),
        )
    };
    let lanes = threads
        .iter()
        .zip(sources)
        .enumerate()
        .map(|(index, (placement, source))| TraceLane {
            socket: u16::from(placement.socket),
            accesses: source.into_recorded(),
            events: schedule
                .events()
                .iter()
                .filter(|event| event.thread.is_none() || event.thread == Some(index))
                .map(marker_of)
                .collect(),
        })
        .collect();
    Ok(CapturedRun {
        trace: Trace {
            meta: TraceMeta::for_spec(spec, params)?,
            setup_events: steps.to_vec(),
            lanes,
        },
        live_metrics,
    })
}

/// Runs `spec` live with one thread per socket in `sockets` (the
/// engine-level experiment shape) while capturing it.
///
/// The returned trace records the full setup — process creation, the lazy
/// mmap, first-touch population — so replay
/// ([`ReplaySession`](crate::ReplaySession)) can reconstruct the run from
/// nothing but the trace and `params`.
///
/// # Errors
///
/// Propagates VM errors from setup and the measured run.
pub fn capture_engine_run(
    spec: &WorkloadSpec,
    params: &SimParams,
    sockets: &[SocketId],
) -> Result<CapturedRun, ReplayError> {
    capture_engine_run_dynamic(spec, params, sockets, &PhaseSchedule::new())
}

/// [`capture_engine_run`] with a schedule of mid-run phase-change events.
///
/// The engine applies the schedule at its access-count boundaries during
/// the measured phase; every fired event lands in each lane as a mid-lane
/// marker at the exact access index, so replay re-applies it at the same
/// boundary and the replayed metrics stay bit-identical.  When the
/// schedule contains page-table operations (replica add/drop, page-table
/// migration), the capture installs the Mitosis backend and records that
/// as a setup event.
///
/// The process lives on `sockets[0]`, the threads keep the caller's order
/// and duplicates, and the distinct sockets initialise the region in
/// ascending order — the order the recorded socket mask replays in.
///
/// # Errors
///
/// Returns [`ReplayError::Mismatch`] for an empty `sockets`, and
/// propagates VM and Mitosis errors from setup, the measured run and event
/// application.
pub fn capture_engine_run_dynamic(
    spec: &WorkloadSpec,
    params: &SimParams,
    sockets: &[SocketId],
    schedule: &PhaseSchedule,
) -> Result<CapturedRun, ReplayError> {
    let &home = sockets
        .first()
        .ok_or_else(|| ReplayError::Mismatch("capture needs at least one socket".into()))?;
    let scaled = params.scale_workload(spec);
    let mut steps = Vec::new();
    if schedule
        .events()
        .iter()
        .any(|event| event.change.needs_mitosis())
    {
        steps.push(SetupStep::InstallMitosis);
    }
    steps.extend([
        SetupStep::CreateProcess(home),
        SetupStep::Mmap {
            len: scaled.footprint(),
            populate: false,
            thp: false,
        },
        SetupStep::Populate {
            len: scaled.footprint(),
            init: scaled.init(),
            sockets: sockets.iter().copied().collect(),
        },
    ]);
    capture_steps(
        &scaled,
        params,
        &steps,
        |system| ExecutionEngine::one_thread_per_socket(system, sockets),
        schedule,
    )
}

/// Runs the paper's multi-socket scenario (`mitosis-sim`'s
/// [`MultiSocketScenario`]: threads on every socket over a shared region,
/// with first-touch or interleaved data placement, optionally AutoNUMA
/// data rebalancing and optionally Mitosis page-table replication) while
/// capturing its setup events and access streams.
///
/// The setup is the runner's own [`MultiSocketScenario::setup`]; the trace
/// records its AutoNUMA, interleave and replication steps as setup events,
/// so replay reconstructs the exact Figure 9 system state before feeding
/// the lanes back.
///
/// `params.threads_per_socket` threads run on every socket (the paper's
/// machines run many threads per socket, not one), so the captured trace
/// carries `sockets × threads_per_socket` lanes — the multi-lane-per-socket
/// shape the per-socket lane groups of
/// [`ReplayRequest::grouped`](crate::ReplayRequest::grouped) shard.
///
/// # Errors
///
/// Propagates VM and Mitosis errors from setup and the measured run.
pub fn capture_multisocket_scenario(
    spec: &WorkloadSpec,
    config: MultiSocketConfig,
    params: &SimParams,
) -> Result<CapturedRun, ReplayError> {
    capture_steps(
        &params.scale_workload(spec),
        params,
        &MultiSocketScenario::setup(spec, config, params),
        |system| MultiSocketScenario::threads(system, params),
        &PhaseSchedule::new(),
    )
}

/// Runs the paper's workload-migration scenario (`mitosis-sim`'s
/// [`WorkloadMigrationScenario`]) while capturing its setup events and
/// access stream.
///
/// The setup is the runner's own [`WorkloadMigrationScenario::setup`]:
/// the trace records its placement dance — remote page tables, data
/// binding, the optional Mitosis page-table migration and interference —
/// as setup events, so the replay reconstructs the exact same system
/// state the live run measured.
///
/// # Errors
///
/// Propagates VM and Mitosis errors from setup and the measured run.
pub fn capture_migration_scenario(
    spec: &WorkloadSpec,
    run: MigrationRun,
    params: &SimParams,
) -> Result<CapturedRun, ReplayError> {
    capture_steps(
        &params.scale_workload(spec),
        params,
        &WorkloadMigrationScenario::setup(spec, run, params),
        WorkloadMigrationScenario::threads,
        &PhaseSchedule::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_workloads::suite;

    #[test]
    fn recording_source_is_transparent() {
        let spec = suite::gups().with_footprint(1 << 26);
        let reference: Vec<Access> = AccessStream::new(&spec, 3).take(100).collect();
        let mut recording = RecordingSource::new(AccessStream::new(&spec, 3));
        let forwarded: Vec<Access> = (0..100).map(|_| recording.next_access()).collect();
        assert_eq!(forwarded, reference);
        assert_eq!(recording.recorded(), &reference[..]);
        assert_eq!(recording.into_recorded(), reference);
    }

    #[test]
    fn capture_stream_matches_live_streams() {
        let spec = suite::btree().with_footprint(1 << 26);
        let lane = capture_stream(&spec, 9, 2, 64);
        assert_eq!(lane.socket, 2);
        let reference: Vec<Access> = AccessStream::new(&spec, 9).take(64).collect();
        assert_eq!(lane.accesses, reference);
    }

    #[test]
    fn captured_engine_run_records_full_setup() {
        let params = SimParams::quick_test().with_accesses(200);
        let captured = capture_engine_run(&suite::gups(), &params, &[SocketId::new(0)]).unwrap();
        assert_eq!(captured.trace.lanes.len(), 1);
        assert_eq!(captured.trace.accesses(), 200);
        assert_eq!(captured.trace.setup_events.len(), 3);
        assert_eq!(captured.live_metrics.accesses, 200);
        assert_eq!(captured.trace.meta.workload, "GUPS");
    }
}
