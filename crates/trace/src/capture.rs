//! Trace capture: turning live access streams and scenario setups into
//! replayable [`Trace`] artifacts.
//!
//! Three capture granularities are provided:
//!
//! * [`RecordingSource`] wraps any [`AccessSource`] and tees every access it
//!   hands out into a buffer — the building block for capturing whatever
//!   actually fed the engine;
//! * [`capture_engine_run`], [`capture_migration_scenario`] and
//!   [`capture_multisocket_scenario`] run a full experiment (the scenario
//!   captures mirror `mitosis-sim`'s runners, including their setup events)
//!   while recording it, returning both the live metrics and the trace
//!   whose replay reproduces them bit-for-bit;
//! * [`capture_engine_run_dynamic`] additionally threads a
//!   [`PhaseSchedule`] of mid-run phase-change events through the run and
//!   records each fired event as a mid-lane marker at the exact access
//!   index, so the dynamic run replays bit-identically too.

use crate::format::{socket_index_u16, Trace, TraceError, TraceEvent, TraceLane, TraceMeta};
use crate::replay::ReplayError;
use mitosis::Mitosis;
use mitosis_mem::{FragmentationModel, PlacementPolicy};
use mitosis_numa::{Interference, NodeMask, SocketId};
use mitosis_sim::{
    ExecutionEngine, MigrationRun, MultiSocketConfig, PhaseChange, PhaseEvent, PhaseSchedule,
    RunMetrics, RunSpec, SimParams, SpanOutcome, ThreadPlacement,
};
use mitosis_vmm::{AutoNuma, MmapFlags, PtPlacement, System, ThpMode};
use mitosis_workloads::{Access, AccessSource, AccessStream, InitPattern, WorkloadSpec};

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

fn socket_mask(sockets: &[SocketId]) -> u64 {
    sockets.iter().fold(0u64, |mask, s| mask | 1 << s.index())
}

/// The mid-lane marker a fired phase change is recorded as; `staggered` is
/// set when the change carried a per-thread filter (the marker then lands
/// only in the targeted lane).
///
/// [`crate::replay`] inverts this mapping to rebuild the
/// [`PhaseSchedule`] from the decoded lanes.
///
/// # Errors
///
/// Returns [`TraceError::UnencodableSocket`] when a target socket does not
/// fit the wire format's `u16` socket field.
///
/// # Panics
///
/// Panics if `staggered` is requested for a change that does not support a
/// thread filter (see
/// [`PhaseChange::supports_thread_filter`]); [`PhaseSchedule`] makes such
/// events unrepresentable, so a panic here means the schedule was built by
/// other means.
pub fn trace_event_of_change(
    change: PhaseChange,
    staggered: bool,
) -> Result<TraceEvent, TraceError> {
    assert!(
        !staggered || change.supports_thread_filter(),
        "{change:?} cannot be staggered"
    );
    Ok(match change {
        PhaseChange::MigrateData { target } => TraceEvent::MigrateData {
            socket: socket_index_u16(target)?,
            staggered,
        },
        PhaseChange::MigratePageTable { target } => TraceEvent::MigratePageTable {
            socket: socket_index_u16(target)?,
        },
        PhaseChange::SetReplicas { sockets } => TraceEvent::Replicate {
            sockets: sockets.bits(),
        },
        PhaseChange::AutoNumaRebalance { sockets } => TraceEvent::AutoNumaRebalance {
            sockets: sockets.bits(),
            staggered,
        },
        PhaseChange::SetInterference { sockets } => TraceEvent::Interference {
            sockets: sockets.bits(),
            staggered,
        },
        PhaseChange::Fork => TraceEvent::Fork,
        PhaseChange::MmapAt { addr, length } => TraceEvent::MmapAt {
            addr: addr.as_u64(),
            len: length,
        },
        PhaseChange::MunmapAt { addr, length } => TraceEvent::MunmapAt {
            addr: addr.as_u64(),
            len: length,
        },
        PhaseChange::PromoteHuge { addr } => TraceEvent::PromoteHuge {
            addr: addr.as_u64(),
        },
        PhaseChange::DemoteHuge { addr } => TraceEvent::DemoteHuge {
            addr: addr.as_u64(),
        },
    })
}

#[allow(clippy::too_many_arguments)]
fn run_and_record(
    system: &mut System,
    mitosis: &mut Mitosis,
    pid: mitosis_vmm::Pid,
    spec: &WorkloadSpec,
    region: mitosis_pt::VirtAddr,
    threads: &[ThreadPlacement],
    params: &SimParams,
    schedule: &PhaseSchedule,
) -> Result<(RunMetrics, Vec<TraceLane>), ReplayError> {
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
        threads,
        accesses_per_thread: params.accesses_per_thread,
        sources: &mut sources,
        schedule,
        resume: None,
        stop_at: None,
    };
    let metrics = match ExecutionEngine::new(system).execute(system, mitosis, pid, region, run)? {
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
    let marker_of = |event: &PhaseEvent| -> Result<(u64, TraceEvent), TraceError> {
        Ok((
            event.at_access.min(params.accesses_per_thread),
            trace_event_of_change(event.change, event.thread.is_some())?,
        ))
    };
    let mut lanes = Vec::with_capacity(threads.len());
    for (index, (placement, source)) in threads.iter().zip(sources).enumerate() {
        lanes.push(TraceLane {
            socket: socket_index_u16(placement.socket)?,
            accesses: source.into_recorded(),
            events: schedule
                .events()
                .iter()
                .filter(|event| event.thread.is_none() || event.thread == Some(index))
                .map(marker_of)
                .collect::<Result<_, _>>()?,
        });
    }
    Ok((metrics, lanes))
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
/// # Errors
///
/// Propagates VM and Mitosis errors from setup, the measured run and event
/// application.
pub fn capture_engine_run_dynamic(
    spec: &WorkloadSpec,
    params: &SimParams,
    sockets: &[SocketId],
    schedule: &PhaseSchedule,
) -> Result<CapturedRun, ReplayError> {
    assert!(!sockets.is_empty(), "capture needs at least one socket");
    let scaled = params.scale_workload(spec);
    let needs_mitosis = schedule.events().iter().any(|event| {
        matches!(
            event.change,
            PhaseChange::MigratePageTable { .. } | PhaseChange::SetReplicas { .. }
        )
    });
    let mut mitosis = Mitosis::new();
    let mut events = Vec::new();
    let mut system = if needs_mitosis {
        events.push(TraceEvent::InstallMitosis);
        mitosis.install(params.machine())
    } else {
        System::new(params.machine())
    };
    if let Some(probability) = params.fragmentation {
        system
            .pt_env_mut()
            .alloc
            .set_fragmentation(FragmentationModel::with_probability(probability));
    }
    system.set_shootdown_mode(params.shootdown_mode);

    let home = sockets[0];
    let pid = system.create_process(home)?;
    events.push(TraceEvent::CreateProcess {
        socket: socket_index_u16(home)?,
    });

    let region = system.mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())?;
    events.push(TraceEvent::Mmap {
        len: scaled.footprint(),
        populate: false,
        thp: false,
    });

    // The Populate event records a socket *bitmask*, which replay expands
    // into the distinct sockets in ascending order — so the live populate
    // must run in exactly that canonical order, or parallel first-touch
    // chunking would land on different sockets than the replay reconstructs
    // (duplicate or unsorted `sockets` lists would silently break
    // bit-identical replay).  Thread placements below keep the caller's
    // order and duplicates; only the one-off initialisation is canonical.
    let mut populate_sockets = sockets.to_vec();
    populate_sockets.sort_by_key(|socket| socket.index());
    populate_sockets.dedup();
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        scaled.init(),
        &populate_sockets,
    )?;
    events.push(TraceEvent::Populate {
        len: scaled.footprint(),
        parallel: scaled.init() == InitPattern::Parallel,
        sockets: socket_mask(sockets),
    });

    let threads = ExecutionEngine::one_thread_per_socket(&system, sockets);
    let (live_metrics, lanes) = run_and_record(
        &mut system,
        &mut mitosis,
        pid,
        &scaled,
        region,
        &threads,
        params,
        schedule,
    )?;
    Ok(CapturedRun {
        trace: Trace {
            meta: TraceMeta::for_spec(&scaled, params)?,
            setup_events: events,
            lanes,
        },
        live_metrics,
    })
}

/// Runs the paper's multi-socket scenario (`mitosis-sim`'s
/// `MultiSocketScenario`: one thread per socket over a shared region, with
/// first-touch or interleaved data placement, optionally AutoNUMA data
/// rebalancing and optionally Mitosis page-table replication) while
/// capturing its setup events and access streams.
///
/// This closes the last uncapturable scenario: the AutoNUMA and interleave
/// placement steps are recorded as [`TraceEvent::AutoNumaRebalance`] and
/// [`TraceEvent::InterleaveData`] setup events, replication as
/// [`TraceEvent::Replicate`], so replay reconstructs the exact Figure 9
/// system state before feeding the lanes back.
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
    let machine = params.machine();
    let sockets: Vec<SocketId> = machine.socket_ids().collect();
    let mut mitosis = Mitosis::new();
    let mut events = Vec::new();
    let mut system = if config.mitosis {
        events.push(TraceEvent::InstallMitosis);
        mitosis.install(machine)
    } else {
        System::new(machine)
    };
    if config.thp {
        system.set_thp(ThpMode::Always);
        events.push(TraceEvent::SetThp(true));
    }
    if let Some(probability) = params.fragmentation {
        system
            .pt_env_mut()
            .alloc
            .set_fragmentation(FragmentationModel::with_probability(probability));
    }
    system.set_shootdown_mode(params.shootdown_mode);

    let pid = system.create_process(sockets[0])?;
    events.push(TraceEvent::CreateProcess {
        socket: socket_index_u16(sockets[0])?,
    });
    if config.data_policy == mitosis_sim::DataPolicyChoice::Interleave {
        system
            .process_mut(pid)?
            .set_data_policy(PlacementPolicy::interleave_all(sockets.len()));
        events.push(TraceEvent::InterleaveData {
            sockets: socket_mask(&sockets),
        });
    }

    let scaled = params.scale_workload(spec);
    let region = system.mmap(pid, scaled.footprint(), MmapFlags::lazy())?;
    events.push(TraceEvent::Mmap {
        len: scaled.footprint(),
        populate: false,
        thp: true,
    });
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        scaled.init(),
        &sockets,
    )?;
    events.push(TraceEvent::Populate {
        len: scaled.footprint(),
        parallel: scaled.init() == InitPattern::Parallel,
        sockets: socket_mask(&sockets),
    });

    if config.autonuma {
        AutoNuma::new().rebalance(&mut system, pid, &sockets)?;
        events.push(TraceEvent::AutoNumaRebalance {
            sockets: socket_mask(&sockets),
            staggered: false,
        });
    }
    if config.mitosis {
        mitosis.enable_for_process(&mut system, pid, None)?;
        events.push(TraceEvent::Replicate {
            sockets: system.machine().all_sockets().bits(),
        });
    }

    let threads = ExecutionEngine::threads_for(&system, &sockets, params.threads_per_socket);
    let (live_metrics, lanes) = run_and_record(
        &mut system,
        &mut mitosis,
        pid,
        &scaled,
        region,
        &threads,
        params,
        &PhaseSchedule::new(),
    )?;
    Ok(CapturedRun {
        trace: Trace {
            meta: TraceMeta::for_spec(&scaled, params)?,
            setup_events: events,
            lanes,
        },
        live_metrics,
    })
}

/// Runs the paper's workload-migration scenario (`mitosis-sim`'s
/// `WorkloadMigrationScenario`) while capturing its setup events and access
/// stream.
///
/// The trace records the scenario's placement dance — remote page tables,
/// data binding, the optional Mitosis page-table migration and interference
/// — as setup events, so the replay reconstructs the exact same system
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
    let machine = params.machine();
    let mut mitosis = Mitosis::new();
    let mut events = Vec::new();
    let mut system = if run.mitosis {
        events.push(TraceEvent::InstallMitosis);
        mitosis.install(machine)
    } else {
        System::new(machine)
    };
    if run.thp {
        system.set_thp(ThpMode::Always);
        events.push(TraceEvent::SetThp(true));
    }
    if let Some(probability) = params.fragmentation {
        system
            .pt_env_mut()
            .alloc
            .set_fragmentation(FragmentationModel::with_probability(probability));
    }
    system.set_shootdown_mode(params.shootdown_mode);

    // Mirrors WorkloadMigrationScenario: the workload runs on socket 0
    // ("A"), everything left behind lives on socket 1 ("B").
    let a = SocketId::new(0);
    let b = SocketId::new(1);

    if run.config.pt_remote() {
        system.set_pt_placement(PtPlacement::Fixed(b));
        events.push(TraceEvent::PtPlacement {
            socket: socket_index_u16(b)?,
        });
    }
    let pid = system.create_process(a)?;
    events.push(TraceEvent::CreateProcess {
        socket: socket_index_u16(a)?,
    });
    let data_socket = if run.config.data_remote() { b } else { a };
    system
        .process_mut(pid)?
        .set_data_policy(PlacementPolicy::Bind(data_socket));
    events.push(TraceEvent::BindData {
        socket: socket_index_u16(data_socket)?,
    });

    let scaled = params.scale_workload(spec);
    let region = system.mmap(pid, scaled.footprint(), MmapFlags::lazy())?;
    events.push(TraceEvent::Mmap {
        len: scaled.footprint(),
        populate: false,
        thp: true,
    });
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        InitPattern::SingleThread,
        &[a],
    )?;
    events.push(TraceEvent::Populate {
        len: scaled.footprint(),
        parallel: false,
        sockets: socket_mask(&[a]),
    });

    if run.mitosis {
        mitosis.migrate_page_table(&mut system, pid, a, true)?;
        events.push(TraceEvent::MigratePageTable {
            socket: socket_index_u16(a)?,
        });
    }
    if run.config.interference() {
        system
            .machine_mut()
            .cost_model_mut()
            .set_interference(Interference::on([b]));
        events.push(TraceEvent::Interference {
            sockets: NodeMask::from_bits(1 << b.index()).bits(),
            staggered: false,
        });
    }

    let threads = ExecutionEngine::one_thread_per_socket(&system, &[a]);
    let (live_metrics, lanes) = run_and_record(
        &mut system,
        &mut mitosis,
        pid,
        &scaled,
        region,
        &threads,
        params,
        &PhaseSchedule::new(),
    )?;
    Ok(CapturedRun {
        trace: Trace {
            meta: TraceMeta::for_spec(&scaled, params)?,
            setup_events: events,
            lanes,
        },
        live_metrics,
    })
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
