//! `churn_replay`: captured traces replayed through `ReplaySession`.
//!
//! Part A replays a 2-socket GUPS trace with a mid-run churn schedule
//! (replicas, forks, mmap/munmap, THP promote/demote, page-table migration)
//! serially from its encoded bytes, and runs the same schedule live for the
//! shootdown counts and the replay-vs-live comparison.  Part B replays an
//! 8-lane premapped multi-socket capture grouped across two pool workers:
//! a cold session's first call, then the warm session again, grouped and
//! serial.
//!
//! Capture only generates the inputs; it runs once, before any pass.

use crate::figures::drain_streams;
use crate::pass::PassOutput;
use crate::recorder::{Phase, Recorder};
use crate::Workload;
use mitosis::{Mitosis, MitosisError};
use mitosis_numa::{NodeMask, SocketId};
use mitosis_pt::VirtAddr;
use mitosis_sim::{
    ExecutionEngine, MultiSocketConfig, PhaseChange, PhaseSchedule, RunMetrics, SimParams,
};
use mitosis_trace::{
    capture_engine_run_dynamic, capture_multisocket_scenario, prepare_replay, FaultPlan,
    LaneReplayReport, ReplayError, ReplayOptions, ReplayRequest, ReplaySession, ShardDecision,
    Trace,
};
use mitosis_vmm::{MmapFlags, System};
use mitosis_workloads::suite;
use std::time::Instant;

/// Where a capture's first mmap lands (the process's mmap base).
const REGION_BASE: u64 = 0x2000_0000_0000;
/// A free VA range for the schedule's extra mappings.
const CHURN_BASE: u64 = 0x7000_0000_0000;
/// Pool workers for the grouped replays.
const WORKERS: usize = 2;

/// Part A: accesses per thread, on two sockets at the paper's scale.
const CHURN_ACCESSES: u64 = 100_000;
/// Part B: accesses per lane, eight lanes on the small (512x) machine.
const LANE_ACCESSES: u64 = 20_000;

fn churn_schedule() -> PhaseSchedule {
    let at = |fraction: u64| CHURN_ACCESSES * fraction / 20;
    PhaseSchedule::new()
        .at(
            at(2),
            PhaseChange::SetReplicas {
                sockets: NodeMask::all(2),
            },
        )
        .at(at(4), PhaseChange::Fork)
        .at(
            at(6),
            PhaseChange::MmapAt {
                addr: VirtAddr::new(CHURN_BASE),
                length: 64 << 12,
            },
        )
        .at(
            at(7),
            PhaseChange::MunmapAt {
                addr: VirtAddr::new(CHURN_BASE + (16 << 12)),
                length: 32 << 12,
            },
        )
        .at(
            at(8),
            PhaseChange::MunmapAt {
                addr: VirtAddr::new(REGION_BASE),
                length: 4 << 20,
            },
        )
        .at(
            at(8),
            // Lazily re-mapped at the same boundary: later accesses
            // demand-fault instead of hitting a hole.
            PhaseChange::MmapAt {
                addr: VirtAddr::new(REGION_BASE),
                length: 4 << 20,
            },
        )
        .at(
            at(10),
            PhaseChange::PromoteHuge {
                addr: VirtAddr::new(REGION_BASE + (8 << 20)),
            },
        )
        .at(at(12), PhaseChange::Fork)
        .at(
            at(14),
            PhaseChange::DemoteHuge {
                addr: VirtAddr::new(REGION_BASE + (8 << 20)),
            },
        )
        .at(
            at(16),
            PhaseChange::SetReplicas {
                sockets: NodeMask::EMPTY,
            },
        )
        .at(
            at(17),
            PhaseChange::MigratePageTable {
                target: SocketId::new(1),
            },
        )
}

/// Anomaly rows for a report's wall, setup and measured time.
const COLD_ROWS: [&str; 3] = [
    "anomaly.cold_grouped_wall_s",
    "anomaly.cold_grouped_setup_s",
    "anomaly.cold_grouped_measured_s",
];
const GROUPED_ROWS: [&str; 3] = [
    "anomaly.grouped_wall_s",
    "anomaly.grouped_setup_s",
    "anomaly.grouped_measured_s",
];
const SERIAL_ROWS: [&str; 3] = [
    "anomaly.serial_wall_s",
    "anomaly.serial_setup_s",
    "anomaly.serial_measured_s",
];

fn split_rows(out: &mut PassOutput, names: [&'static str; 3], report: &LaneReplayReport) {
    let split = [report.wall, report.setup_wall, report.measured_wall];
    for (name, elapsed) in names.into_iter().zip(split) {
        out.row(name, elapsed.as_secs_f64());
    }
}

/// Counts a grouped call and fails it unless it sharded.
fn check_sharded(out: &mut PassOutput, label: &str, report: &LaneReplayReport) {
    out.count("trace.grouped_calls", 1);
    if report.decision == ShardDecision::Sharded {
        out.count("trace.sharded_calls", 1);
    } else {
        let why = format!("grouped replay did not shard: {}", report.decision);
        out.fail(label, why);
    }
}

/// A replay request with fault injection pinned off, whatever the
/// environment says.
fn request() -> ReplayRequest {
    ReplayRequest::new().fault_plan(FaultPlan::disabled())
}

pub struct Churn {
    params_a: SimParams,
    sockets_a: Vec<SocketId>,
    schedule_a: PhaseSchedule,
    bytes_a: Vec<u8>,
    live_a: RunMetrics,
    params_b: SimParams,
    bytes_b: Vec<u8>,
    live_b: RunMetrics,
}

impl Churn {
    /// Captures both input traces and encodes them to bytes.
    pub fn new(seed: u64) -> Result<Self, ReplayError> {
        // Ranged shootdowns, so the consistency layer's ranged path runs.
        let params_a = SimParams::new()
            .with_machine_scale(128)
            .with_accesses(CHURN_ACCESSES)
            .with_seed(seed)
            .with_ranged_shootdowns();
        let sockets_a: Vec<SocketId> = (0..2).map(SocketId::new).collect();
        let schedule_a = churn_schedule();
        let captured_a =
            capture_engine_run_dynamic(&suite::gups(), &params_a, &sockets_a, &schedule_a)?;
        let params_b = SimParams::new()
            .with_machine_scale(512)
            .with_accesses(LANE_ACCESSES)
            .with_threads_per_socket(2)
            .with_seed(seed);
        let captured_b = capture_multisocket_scenario(
            &suite::memcached(),
            MultiSocketConfig::first_touch(),
            &params_b,
        )?;
        Ok(Churn {
            params_a,
            sockets_a,
            schedule_a,
            bytes_a: captured_a.trace.to_bytes()?,
            live_a: captured_a.live_metrics,
            params_b,
            bytes_b: captured_b.trace.to_bytes()?,
            live_b: captured_b.live_metrics,
        })
    }

    /// Records one replay call: its setup / measured split, the run, and
    /// the check against the capture's live metrics.
    fn replayed(
        rec: &mut Recorder,
        out: &mut PassOutput,
        label: &str,
        result: Result<LaneReplayReport, ReplayError>,
        live: &RunMetrics,
    ) -> Option<LaneReplayReport> {
        match result {
            Ok(report) => {
                rec.charge(Phase::Setup, report.setup_wall);
                rec.charge(Phase::Measured, report.measured_wall);
                out.count("trace.accesses", report.outcome.metrics.accesses);
                out.run(label.to_string(), &report.outcome.metrics);
                out.check_equal(
                    label,
                    &report.outcome.metrics,
                    live,
                    "replay != live capture",
                );
                Some(report)
            }
            Err(err) => {
                out.error(label.to_string(), err);
                None
            }
        }
    }

    /// Part A: decode the churn trace and replay it serially on a fresh
    /// session.
    fn part_a_replay(&self, rec: &mut Recorder, out: &mut PassOutput) {
        const LABEL: &str = "churn serial replay";
        let trace = match rec.span("trace.decode", Phase::Setup, |_| {
            Trace::from_bytes(&self.bytes_a)
        }) {
            Ok(trace) => trace,
            Err(err) => return out.error(LABEL.into(), err),
        };
        out.count("trace.bytes", self.bytes_a.len() as u64);
        let mut session = ReplaySession::new(&self.params_a);
        let result = rec.span("trace.replay_serial", Phase::Other, |_| {
            session.replay(&trace, &request().serial())
        });
        if let Some(report) = Self::replayed(rec, out, LABEL, result, &self.live_a) {
            let accesses = report.outcome.metrics.accesses;
            out.row_per_access(
                "anomaly.replay_ns_per_access",
                report.measured_wall,
                accesses,
            );
            out.count("anomaly.churn_accesses", accesses);
        }
        rec.span("vmm.teardown", Phase::Other, |_| drop((session, trace)));
    }

    /// Part A: the same schedule run live, for the engine's shootdown
    /// counts and the replay-vs-live comparison on the same streams.
    fn part_a_live(
        &self,
        rec: &mut Recorder,
        out: &mut PassOutput,
    ) -> Result<RunMetrics, MitosisError> {
        let params = &self.params_a;
        let scaled = params.scale_workload(&suite::gups());
        let mut mitosis = Mitosis::new();
        let (mut system, pid, region) = rec.span("vmm.build", Phase::Setup, |_| {
            let mut system: System = mitosis.install(params.machine());
            system.set_shootdown_mode(params.shootdown_mode);
            let pid = system.create_process(self.sockets_a[0])?;
            let region = system.mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())?;
            Ok::<_, MitosisError>((system, pid, region))
        })?;
        rec.span("vmm.populate", Phase::Setup, |_| {
            ExecutionEngine::populate(
                &mut system,
                pid,
                region,
                scaled.footprint(),
                scaled.init(),
                &self.sockets_a,
            )
        })?;
        let mut engine = rec.span("sim.engine_new", Phase::Setup, |_| {
            ExecutionEngine::new(&system)
        });
        let threads = ExecutionEngine::one_thread_per_socket(&system, &self.sockets_a);
        let metrics = rec.span("sim.run", Phase::Measured, |_| {
            let start = Instant::now();
            let metrics = engine.run_dynamic(
                &mut system,
                &mut mitosis,
                pid,
                &scaled,
                region,
                &threads,
                params,
                &self.schedule_a,
            );
            metrics.map(|metrics| (metrics, start.elapsed()))
        });
        let (metrics, elapsed) = metrics?;
        out.row_per_access("anomaly.live_ns_per_access", elapsed, metrics.accesses);
        out.count("sim.accesses", metrics.accesses);
        let shootdowns = engine.last_shootdowns();
        out.count("sim.shootdown_entries", shootdowns.entries_invalidated);
        out.count("sim.full_flushes", shootdowns.full_flushes);
        out.count("sim.ranged_ranges", shootdowns.ranged_ranges);
        rec.span("vmm.teardown", Phase::Other, |_| drop((system, engine)));
        Ok(metrics)
    }

    /// Part B: the 8-lane capture, cold grouped, warm grouped and warm
    /// serial on one session, plus the explicit prepare and snapshot clone.
    fn part_b(&self, rec: &mut Recorder, out: &mut PassOutput) {
        let trace = match rec.span("trace.decode", Phase::Setup, |_| {
            Trace::from_bytes(&self.bytes_b)
        }) {
            Ok(trace) => trace,
            Err(err) => return out.error("8-lane decode".into(), err),
        };
        out.count("trace.bytes", self.bytes_b.len() as u64);
        match rec.span("trace.prepare", Phase::Setup, |_| {
            prepare_replay(&trace, &self.params_b, ReplayOptions::new())
        }) {
            Ok(snapshot) => {
                let copy = rec.span("trace.snapshot_clone", Phase::Setup, |_| snapshot.clone());
                rec.span("vmm.teardown", Phase::Other, |_| drop((snapshot, copy)));
            }
            Err(err) => out.error("8-lane prepare".into(), err),
        }

        let grouped = request().grouped(WORKERS);
        let mut session = ReplaySession::new(&self.params_b);
        let result = rec.span("trace.replay_cold", Phase::Other, |_| {
            session.replay(&trace, &grouped)
        });
        let label = "8-lane cold grouped";
        if let Some(report) = Self::replayed(rec, out, label, result, &self.live_b) {
            check_sharded(out, label, &report);
            split_rows(out, COLD_ROWS, &report);
        }
        let result = rec.span("trace.replay_grouped", Phase::Other, |_| {
            session.replay(&trace, &grouped)
        });
        let label = "8-lane warm grouped";
        if let Some(report) = Self::replayed(rec, out, label, result, &self.live_b) {
            check_sharded(out, label, &report);
            split_rows(out, GROUPED_ROWS, &report);
            out.count("anomaly.lane_accesses", report.outcome.metrics.accesses);
        }
        let result = rec.span("trace.replay_serial", Phase::Other, |_| {
            session.replay(&trace, &request().serial())
        });
        if let Some(report) = Self::replayed(rec, out, "8-lane warm serial", result, &self.live_b) {
            split_rows(out, SERIAL_ROWS, &report);
        }
        out.count("trace.pool_threads", session.threads_spawned() as u64);
        rec.span("vmm.teardown", Phase::Other, |_| drop((session, trace)));
    }
}

impl Workload for Churn {
    fn pass(&mut self, rec: &mut Recorder, out: &mut PassOutput) {
        self.part_a_replay(rec, out);
        const LIVE: &str = "churn live run";
        match rec.span("bench.scenario", Phase::Other, |rec| {
            self.part_a_live(rec, out)
        }) {
            Ok(metrics) => {
                out.run(LIVE.into(), &metrics);
                out.check_equal(LIVE, &metrics, &self.live_a, "live run != capture");
            }
            Err(err) => out.error(LIVE.into(), err),
        }
        self.part_b(rec, out);
        rec.span("bench.check", Phase::Other, |_| {
            if let (Some(grouped), Some(serial)) = (
                out.metrics("8-lane warm grouped").copied(),
                out.metrics("8-lane warm serial").copied(),
            ) {
                out.check_equal(
                    "8-lane warm grouped",
                    &grouped,
                    &serial,
                    "grouped != serial",
                );
            }
        });
    }

    fn reference_check(&self, _out: &PassOutput) -> Vec<String> {
        // Every run is already checked against the capture's live metrics.
        Vec::new()
    }

    fn generate(&self) -> u64 {
        let a = self.params_a.scale_workload(&suite::gups());
        let b = self.params_b.scale_workload(&suite::memcached());
        drain_streams(&a, &self.params_a, self.live_a.threads)
            + drain_streams(&b, &self.params_b, self.live_b.threads)
    }

    fn workers(&self) -> usize {
        WORKERS
    }
}
