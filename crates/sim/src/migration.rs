//! The workload-migration scenario (paper §3.2 and §8.2, Figures 1, 6, 10
//! and 11).
//!
//! A single-socket workload runs on socket A while its page tables and/or
//! data were left behind on socket B (because the NUMA scheduler migrated
//! the process and stock Linux cannot migrate page tables).  Optionally an
//! interfering memory hog loads socket B, and optionally Mitosis migrates
//! the page tables back to socket A before the measured phase.

use crate::configs::MigrationRun;
use crate::dynamics::PhaseChange;
use crate::engine::{ExecutionEngine, ThreadPlacement};
use crate::params::SimParams;
use crate::report::ScenarioResult;
use crate::setup::{PreparedSystem, SetupStep};
use mitosis::MitosisError;
use mitosis_numa::{NodeMask, SocketId};
use mitosis_vmm::{System, ThpMode};
use mitosis_workloads::{InitPattern, WorkloadSpec};

/// Runner for the workload-migration scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadMigrationScenario;

impl WorkloadMigrationScenario {
    /// The socket the workload runs on ("A" in Table 2).
    pub const RUN_SOCKET: SocketId = SocketId::new(0);
    /// The other socket ("B" in Table 2), holding remote page tables, remote
    /// data and/or the interfering process.
    pub const REMOTE_SOCKET: SocketId = SocketId::new(1);

    /// The setup of `spec` under `run`, per Table 2: page tables forced
    /// onto B for the RP* configurations, data bound to A or B, the
    /// process initialising its memory from A, then Mitosis migrating the
    /// page tables back to A and a bandwidth hog loading B when `run` asks
    /// for them.
    pub fn setup(spec: &WorkloadSpec, run: MigrationRun, params: &SimParams) -> Vec<SetupStep> {
        let a = Self::RUN_SOCKET;
        let b = Self::REMOTE_SOCKET;
        let data = if run.config.data_remote() { b } else { a };
        let len = params.scale_workload(spec).footprint();
        let mut steps = Vec::new();
        if run.mitosis {
            steps.push(SetupStep::InstallMitosis);
        }
        if run.thp {
            steps.push(SetupStep::SetThp(ThpMode::Always));
        }
        if run.config.pt_remote() {
            steps.push(SetupStep::PtPlacement(b));
        }
        steps.push(SetupStep::CreateProcess(a));
        steps.push(SetupStep::BindData(data));
        steps.push(SetupStep::Mmap {
            len,
            populate: false,
            thp: true,
        });
        // These are single-socket workloads; the process itself initialises
        // its memory from socket A.
        steps.push(SetupStep::Populate {
            len,
            init: InitPattern::SingleThread,
            sockets: NodeMask::single(a),
        });
        // Mitosis repairs the placement by migrating the page tables to the
        // socket the process actually runs on (paper §5.5, §8.2).
        if run.mitosis {
            steps.push(SetupStep::Change(PhaseChange::MigratePageTable {
                target: a,
            }));
        }
        if run.config.interference() {
            steps.push(SetupStep::Change(PhaseChange::SetInterference {
                sockets: NodeMask::single(b),
            }));
        }
        steps
    }

    /// The measured phase's thread: one, on socket A.
    pub fn threads(system: &System) -> Vec<ThreadPlacement> {
        ExecutionEngine::one_thread_per_socket(system, &[Self::RUN_SOCKET])
    }

    /// Runs `spec` under `run` and returns the scenario result.
    ///
    /// # Errors
    ///
    /// Propagates allocation, page-table and policy errors.
    pub fn run(
        spec: &WorkloadSpec,
        run: MigrationRun,
        params: &SimParams,
    ) -> Result<ScenarioResult, MitosisError> {
        let PreparedSystem {
            mut system,
            pid,
            region,
            ..
        } = PreparedSystem::build(params, &Self::setup(spec, run, params))?;
        let dump = system.page_table_dump_for_socket(pid, Self::RUN_SOCKET)?;
        let remote_leaf_fractions: Vec<f64> = system
            .machine()
            .socket_ids()
            .map(|s| dump.leaf_locality_from(s).remote_fraction())
            .collect();
        let footprint = system.footprint(pid)?;

        let mut engine = ExecutionEngine::new(&system);
        let threads = Self::threads(&system);
        let scaled = params.scale_workload(spec);
        let metrics = engine.run(&mut system, pid, &scaled, region, &threads, params)?;

        Ok(ScenarioResult {
            label: format!("{} {}", spec.name(), run.label()),
            metrics,
            remote_leaf_fractions,
            footprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::MigrationConfig;
    use mitosis_workloads::suite;

    fn params() -> SimParams {
        SimParams::quick_test()
    }

    fn run(spec: &mitosis_workloads::WorkloadSpec, r: MigrationRun) -> ScenarioResult {
        WorkloadMigrationScenario::run(spec, r, &params()).unwrap()
    }

    #[test]
    fn remote_page_tables_slow_the_workload_and_mitosis_repairs_it() {
        let spec = suite::gups();
        let baseline = run(&spec, MigrationRun::new(MigrationConfig::LpLd));
        let remote_pt = run(&spec, MigrationRun::new(MigrationConfig::RpiLd));
        let repaired = run(
            &spec,
            MigrationRun::new(MigrationConfig::RpiLd).with_mitosis(),
        );

        let slowdown = remote_pt.metrics.normalized_to(&baseline.metrics);
        assert!(slowdown > 1.5, "RPI-LD slowdown = {slowdown}");

        let after = repaired.metrics.normalized_to(&baseline.metrics);
        assert!(
            after < slowdown * 0.7,
            "Mitosis should recover most of the slowdown: {after} vs {slowdown}"
        );
        assert!(after < 1.2, "repaired runtime ≈ baseline, got {after}");
    }

    #[test]
    fn placement_of_page_tables_and_data_follows_the_config() {
        // Table 1 migration-scenario footprint (35 GB), not the 145 GB
        // multi-socket variant, so strict binding fits on one scaled socket.
        let spec = suite::btree().with_footprint(35 * mitosis_numa::GIB);
        let a = WorkloadMigrationScenario::RUN_SOCKET.index();
        let b = WorkloadMigrationScenario::REMOTE_SOCKET.index();

        let lp_ld = run(&spec, MigrationRun::new(MigrationConfig::LpLd));
        assert!(lp_ld.footprint.pagetable_bytes[a] > 0);
        assert_eq!(lp_ld.footprint.pagetable_bytes[b], 0);
        assert!(lp_ld.footprint.data_bytes[a] > 0);
        assert_eq!(lp_ld.footprint.data_bytes[b], 0);

        let rp_rd = run(&spec, MigrationRun::new(MigrationConfig::RpRd));
        assert_eq!(rp_rd.footprint.pagetable_bytes[a], 0);
        assert!(rp_rd.footprint.pagetable_bytes[b] > 0);
        assert_eq!(rp_rd.footprint.data_bytes[a], 0);
        assert!(rp_rd.footprint.data_bytes[b] > 0);
        // All leaf PTEs are remote from the running socket (Figure 1 top
        // right: 100 % remote).
        assert!(rp_rd.remote_leaf_fractions[a] > 0.99);
    }

    #[test]
    fn mitosis_migration_moves_page_tables_to_the_run_socket() {
        let spec = suite::hashjoin().with_footprint(17 * mitosis_numa::GIB);
        let repaired = run(
            &spec,
            MigrationRun::new(MigrationConfig::RpiLd).with_mitosis(),
        );
        let a = WorkloadMigrationScenario::RUN_SOCKET.index();
        let b = WorkloadMigrationScenario::REMOTE_SOCKET.index();
        assert!(repaired.footprint.pagetable_bytes[a] > 0);
        assert_eq!(repaired.footprint.pagetable_bytes[b], 0);
        assert!(repaired.remote_leaf_fractions[a] < 0.01);
    }

    #[test]
    fn worst_case_placement_is_the_slowest() {
        let spec = suite::gups();
        let baseline = run(&spec, MigrationRun::new(MigrationConfig::LpLd));
        let remote_data = run(&spec, MigrationRun::new(MigrationConfig::LpRd));
        let worst = run(&spec, MigrationRun::new(MigrationConfig::RpiRdi));
        assert!(remote_data.metrics.total_cycles > baseline.metrics.total_cycles);
        assert!(worst.metrics.total_cycles > remote_data.metrics.total_cycles);
    }

    #[test]
    fn thp_reduces_walk_overheads() {
        let spec = suite::gups();
        let base_4k = run(&spec, MigrationRun::new(MigrationConfig::RpiLd));
        let base_2m = run(&spec, MigrationRun::new(MigrationConfig::RpiLd).with_thp());
        assert!(
            base_2m.metrics.walk_cycle_fraction() < base_4k.metrics.walk_cycle_fraction(),
            "THP should shrink the hashed (walk) portion"
        );
    }
}
