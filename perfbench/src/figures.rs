//! The paper's two headline experiments, run through the simulator's
//! public API with a span around every call into a layer.
//!
//! Each scenario mirrors `mitosis_sim::MultiSocketScenario::run` (Figure 9)
//! or `mitosis_sim::WorkloadMigrationScenario::run` (Figure 10) step for
//! step, minus the page-table dump those runners take for the placement
//! figures.  [`Workload::reference_check`] re-runs the library runners and
//! compares their metrics with the instrumented copies.

use crate::pass::PassOutput;
use crate::recorder::{Phase, Recorder};
use crate::Workload;
use mitosis::{Mitosis, MitosisError};
use mitosis_mem::PlacementPolicy;
use mitosis_numa::{Interference, SocketId};
use mitosis_pt::VirtAddr;
use mitosis_sim::{
    DataPolicyChoice, ExecutionEngine, MigrationConfig, MigrationRun, MultiSocketConfig,
    MultiSocketScenario, RunMetrics, SimParams, WorkloadMigrationScenario,
};
use mitosis_vmm::{MmapFlags, Pid, PtPlacement, System, ThpMode};
use mitosis_workloads::{suite, InitPattern, WorkloadSpec};

/// The paper's machine scale: a 4-socket testbed shrunk 128x in capacity.
const MACHINE_SCALE: u64 = 128;

/// The system state a scenario has built before its measured phase.
struct Built {
    system: System,
    pid: Pid,
    region: VirtAddr,
}

/// The measured tail every live scenario shares: the footprint query, the
/// engine, the measured run, and teardown.
fn measure(
    rec: &mut Recorder,
    out: &mut PassOutput,
    built: Built,
    scaled: &WorkloadSpec,
    threads_on: &[SocketId],
    params: &SimParams,
) -> Result<RunMetrics, MitosisError> {
    let Built {
        mut system,
        pid,
        region,
    } = built;
    let footprint = rec.span("vmm.footprint", Phase::Setup, |_| system.footprint(pid))?;
    out.count("pt.pagetable_bytes", footprint.total_pagetables());
    out.count("mem.data_bytes", footprint.total_data());
    let mut engine = rec.span("sim.engine_new", Phase::Setup, |_| {
        ExecutionEngine::new(&system)
    });
    let threads = ExecutionEngine::one_thread_per_socket(&system, threads_on);
    let metrics = rec.span("sim.run", Phase::Measured, |_| {
        engine.run(&mut system, pid, scaled, region, &threads, params)
    })?;
    out.count("sim.accesses", metrics.accesses);
    rec.span("vmm.teardown", Phase::Other, |_| drop((system, engine)));
    Ok(metrics)
}

/// Draws every thread's access stream of one run without the engine.
pub fn drain_streams(scaled: &WorkloadSpec, params: &SimParams, threads: usize) -> u64 {
    let mut drawn = 0;
    for mut stream in ExecutionEngine::thread_streams(scaled, params, threads) {
        for _ in 0..params.accesses_per_thread {
            std::hint::black_box(stream.next_access());
            drawn += 1;
        }
    }
    drawn
}

/// `fig9_multisocket`: Canneal and Memcached under `F`, `F+M`, `I+M`
/// (4 KiB) and `TF+M` (2 MiB), one simulated thread per socket.
pub struct Fig9 {
    params: SimParams,
    scenarios: Vec<(WorkloadSpec, MultiSocketConfig)>,
}

impl Fig9 {
    /// Measured accesses per simulated thread (four threads per run).
    const ACCESSES_PER_THREAD: u64 = 60_000;

    pub fn new(seed: u64) -> Self {
        let params = SimParams::new()
            .with_machine_scale(MACHINE_SCALE)
            .with_accesses(Self::ACCESSES_PER_THREAD)
            .with_seed(seed);
        let f = MultiSocketConfig::first_touch();
        let configs = [
            f,
            f.with_mitosis(),
            f.with_interleave().with_mitosis(),
            f.with_thp().with_mitosis(),
        ];
        let scenarios = [suite::canneal(), suite::memcached()]
            .into_iter()
            .flat_map(|spec| configs.map(|config| (spec.clone(), config)))
            .collect();
        Fig9 { params, scenarios }
    }

    fn label(spec: &WorkloadSpec, config: MultiSocketConfig) -> String {
        format!("{} {}", spec.name(), config.label())
    }

    fn run_one(
        &self,
        rec: &mut Recorder,
        out: &mut PassOutput,
        spec: &WorkloadSpec,
        config: MultiSocketConfig,
    ) -> Result<RunMetrics, MitosisError> {
        let params = &self.params;
        let scaled = params.scale_workload(spec);
        let mut mitosis = Mitosis::new();
        let mut sockets: Vec<SocketId> = Vec::new();
        let mut built = rec.span("vmm.build", Phase::Setup, |_| {
            let machine = params.machine();
            sockets = machine.socket_ids().collect();
            let mut system = if config.mitosis {
                mitosis.install(machine)
            } else {
                System::new(machine)
            };
            if config.thp {
                system.set_thp(ThpMode::Always);
            }
            system.set_shootdown_mode(params.shootdown_mode);
            let pid = system.create_process(sockets[0])?;
            if config.data_policy == DataPolicyChoice::Interleave {
                system
                    .process_mut(pid)?
                    .set_data_policy(PlacementPolicy::interleave_all(sockets.len()));
            }
            let region = system.mmap(pid, scaled.footprint(), MmapFlags::lazy())?;
            Ok::<_, MitosisError>(Built {
                system,
                pid,
                region,
            })
        })?;
        rec.span("vmm.populate", Phase::Setup, |_| {
            ExecutionEngine::populate(
                &mut built.system,
                built.pid,
                built.region,
                scaled.footprint(),
                scaled.init(),
                &sockets,
            )
        })?;
        if config.mitosis {
            let summary = rec.span("core.replicate", Phase::Setup, |_| {
                mitosis.enable_for_process(&mut built.system, built.pid, None)
            })?;
            out.count("core.replica_tables", summary.replica_tables_created);
        }
        measure(rec, out, built, &scaled, &sockets, params)
    }
}

impl Workload for Fig9 {
    fn pass(&mut self, rec: &mut Recorder, out: &mut PassOutput) {
        for (spec, config) in &self.scenarios {
            let label = Self::label(spec, *config);
            match rec.span("bench.scenario", Phase::Other, |rec| {
                self.run_one(rec, out, spec, *config)
            }) {
                Ok(metrics) => out.run(label, &metrics),
                Err(err) => out.error(label, err),
            }
        }
        rec.span("bench.check", Phase::Other, |_| {
            for name in ["Canneal", "Memcached"] {
                let (f, fm) = (format!("{name} F"), format!("{name} F+M"));
                out.check_not_slower(&f, &fm);
                out.speedup(&f, &fm, "Fig. 9a: 1.02x-1.34x, best 1.34x on Canneal");
            }
        });
    }

    fn reference_check(&self, out: &PassOutput) -> Vec<String> {
        let mut mismatches = Vec::new();
        for (spec, config) in &self.scenarios {
            let label = Self::label(spec, *config);
            match MultiSocketScenario::run(spec, *config, &self.params) {
                Ok(reference) if out.metrics(&label) == Some(&reference.metrics) => {}
                Ok(_) => mismatches.push(format!("{label}: differs from MultiSocketScenario::run")),
                Err(err) => mismatches.push(format!("{label}: reference run failed: {err}")),
            }
        }
        mismatches
    }

    fn generate(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|(spec, _)| drain_streams(&self.params.scale_workload(spec), &self.params, 4))
            .sum()
    }

    fn workers(&self) -> usize {
        1
    }
}

/// `fig10_migration`: GUPS, XSBench (85 GiB) and Redis under `LP-LD`,
/// `RPI-LD`, `RPI-LD+M` and `RPI-RDI`, one simulated thread on socket A.
pub struct Fig10 {
    params: SimParams,
    scenarios: Vec<(WorkloadSpec, MigrationRun)>,
}

impl Fig10 {
    /// Measured accesses of the single simulated thread.
    const ACCESSES_PER_THREAD: u64 = 400_000;

    pub fn new(seed: u64) -> Self {
        let params = SimParams::new()
            .with_machine_scale(MACHINE_SCALE)
            .with_accesses(Self::ACCESSES_PER_THREAD)
            .with_seed(seed);
        let runs = [
            MigrationRun::new(MigrationConfig::LpLd),
            MigrationRun::new(MigrationConfig::RpiLd),
            MigrationRun::new(MigrationConfig::RpiLd).with_mitosis(),
            MigrationRun::new(MigrationConfig::RpiRdi),
        ];
        let specs = [
            suite::gups(),
            suite::xsbench().with_footprint(85 * mitosis_numa::GIB),
            suite::redis(),
        ];
        let scenarios = specs
            .into_iter()
            .flat_map(|spec| runs.map(|run| (spec.clone(), run)))
            .collect();
        Fig10 { params, scenarios }
    }

    fn label(spec: &WorkloadSpec, run: MigrationRun) -> String {
        format!("{} {}", spec.name(), run.label())
    }

    fn run_one(
        &self,
        rec: &mut Recorder,
        out: &mut PassOutput,
        spec: &WorkloadSpec,
        run: MigrationRun,
    ) -> Result<RunMetrics, MitosisError> {
        let params = &self.params;
        let scaled = params.scale_workload(spec);
        let mitosis = Mitosis::new();
        let a = WorkloadMigrationScenario::RUN_SOCKET;
        let b = WorkloadMigrationScenario::REMOTE_SOCKET;
        let mut built = rec.span("vmm.build", Phase::Setup, |_| {
            let machine = params.machine();
            let mut system = if run.mitosis {
                mitosis.install(machine)
            } else {
                System::new(machine)
            };
            if run.thp {
                system.set_thp(ThpMode::Always);
            }
            system.set_shootdown_mode(params.shootdown_mode);
            if run.config.pt_remote() {
                system.set_pt_placement(PtPlacement::Fixed(b));
            }
            let pid = system.create_process(a)?;
            let data_socket = if run.config.data_remote() { b } else { a };
            system
                .process_mut(pid)?
                .set_data_policy(PlacementPolicy::Bind(data_socket));
            let region = system.mmap(pid, scaled.footprint(), MmapFlags::lazy())?;
            Ok::<_, MitosisError>(Built {
                system,
                pid,
                region,
            })
        })?;
        rec.span("vmm.populate", Phase::Setup, |_| {
            ExecutionEngine::populate(
                &mut built.system,
                built.pid,
                built.region,
                scaled.footprint(),
                InitPattern::SingleThread,
                &[a],
            )
        })?;
        if run.mitosis {
            let migration = rec.span("core.migrate_pt", Phase::Setup, |_| {
                mitosis.migrate_page_table(&mut built.system, built.pid, a, true)
            })?;
            out.count("core.pt_tables_migrated", migration.tables_created);
        }
        if run.config.interference() {
            rec.span("numa.set_interference", Phase::Setup, |_| {
                built
                    .system
                    .machine_mut()
                    .cost_model_mut()
                    .set_interference(Interference::on([b]))
            });
        }
        measure(rec, out, built, &scaled, &[a], params)
    }
}

impl Workload for Fig10 {
    fn pass(&mut self, rec: &mut Recorder, out: &mut PassOutput) {
        for (spec, run) in &self.scenarios {
            let label = Self::label(spec, *run);
            match rec.span("bench.scenario", Phase::Other, |rec| {
                self.run_one(rec, out, spec, *run)
            }) {
                Ok(metrics) => out.run(label, &metrics),
                Err(err) => out.error(label, err),
            }
        }
        rec.span("bench.check", Phase::Other, |_| {
            for name in ["GUPS", "XSBench", "Redis"] {
                let base = format!("{name} LP-LD");
                let broken = format!("{name} RPI-LD");
                let repaired = format!("{name} RPI-LD+M");
                if let (Some(b), Some(r)) = (out.metrics(&base), out.metrics(&repaired)) {
                    if b.total_cycles != r.total_cycles {
                        let why = format!(
                            "{repaired} took {} cycles, {base} {}",
                            r.total_cycles, b.total_cycles
                        );
                        out.fail(&repaired, why);
                    }
                }
                out.speedup(&broken, &repaired, "Fig. 10a: up to 3.24x, on GUPS");
            }
        });
    }

    fn reference_check(&self, out: &PassOutput) -> Vec<String> {
        let mut mismatches = Vec::new();
        for (spec, run) in &self.scenarios {
            let label = Self::label(spec, *run);
            match WorkloadMigrationScenario::run(spec, *run, &self.params) {
                Ok(reference) if out.metrics(&label) == Some(&reference.metrics) => {}
                Ok(_) => mismatches.push(format!(
                    "{label}: differs from WorkloadMigrationScenario::run"
                )),
                Err(err) => mismatches.push(format!("{label}: reference run failed: {err}")),
            }
        }
        mismatches
    }

    fn generate(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|(spec, _)| drain_streams(&self.params.scale_workload(spec), &self.params, 1))
            .sum()
    }

    fn workers(&self) -> usize {
        1
    }
}
