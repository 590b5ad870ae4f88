//! The multi-socket scenario (paper §3.1 and §8.1, Figures 3, 4 and 9).
//!
//! A multi-threaded workload runs with one thread (group) per socket over a
//! shared data structure.  Data placement follows the configured policy,
//! page tables land wherever the faulting thread's socket (and the paper's
//! observation 1) puts them, and — when enabled — Mitosis replicates the
//! page tables onto every socket before the measured phase.

use crate::configs::{DataPolicyChoice, MultiSocketConfig};
use crate::dynamics::PhaseChange;
use crate::engine::{ExecutionEngine, ThreadPlacement};
use crate::params::SimParams;
use crate::report::ScenarioResult;
use crate::setup::{PreparedSystem, SetupStep};
use mitosis::MitosisError;
use mitosis_numa::SocketId;
use mitosis_vmm::{System, ThpMode};
use mitosis_workloads::WorkloadSpec;

/// Runner for the multi-socket scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiSocketScenario;

impl MultiSocketScenario {
    /// The setup of `spec` under `config`: the process lives on socket 0,
    /// every socket initialises its share of the data, then AutoNUMA
    /// rebalances it and Mitosis replicates the page tables onto every
    /// socket when `config` asks for them.
    pub fn setup(
        spec: &WorkloadSpec,
        config: MultiSocketConfig,
        params: &SimParams,
    ) -> Vec<SetupStep> {
        let all = params.machine().all_sockets();
        let scaled = params.scale_workload(spec);
        let mut steps = Vec::new();
        if config.mitosis {
            steps.push(SetupStep::InstallMitosis);
        }
        if config.thp {
            steps.push(SetupStep::SetThp(ThpMode::Always));
        }
        steps.push(SetupStep::CreateProcess(SocketId::new(0)));
        if config.data_policy == DataPolicyChoice::Interleave {
            steps.push(SetupStep::InterleaveData(all));
        }
        steps.push(SetupStep::Mmap {
            len: scaled.footprint(),
            populate: false,
            thp: true,
        });
        steps.push(SetupStep::Populate {
            len: scaled.footprint(),
            init: scaled.init(),
            sockets: all,
        });
        if config.autonuma {
            steps.push(SetupStep::Change(PhaseChange::AutoNumaRebalance {
                sockets: all,
            }));
        }
        if config.mitosis {
            steps.push(SetupStep::Change(PhaseChange::SetReplicas { sockets: all }));
        }
        steps
    }

    /// The measured phase's threads: `params.threads_per_socket` on every
    /// socket, grouped per socket.
    pub fn threads(system: &System, params: &SimParams) -> Vec<ThreadPlacement> {
        let sockets: Vec<SocketId> = system.machine().socket_ids().collect();
        ExecutionEngine::threads_for(system, &sockets, params.threads_per_socket)
    }

    /// Runs `spec` under `config` and returns the scenario result.
    ///
    /// # Errors
    ///
    /// Propagates allocation, page-table and policy errors.
    pub fn run(
        spec: &WorkloadSpec,
        config: MultiSocketConfig,
        params: &SimParams,
    ) -> Result<ScenarioResult, MitosisError> {
        let PreparedSystem {
            mut system,
            pid,
            region,
            ..
        } = PreparedSystem::build(params, &Self::setup(spec, config, params))?;

        // Placement analysis before the measured phase (Figures 3 and 4 use
        // the non-replicated tree; with Mitosis each socket would see its
        // own local replica instead).
        let dump = system.page_table_dump(pid)?;
        let remote_leaf_fractions: Vec<f64> = system
            .machine()
            .socket_ids()
            .map(|s| {
                if config.mitosis {
                    // Each socket walks its local replica.
                    system
                        .page_table_dump_for_socket(pid, s)
                        .map(|d| d.leaf_locality_from(s).remote_fraction())
                        .unwrap_or(0.0)
                } else {
                    dump.leaf_locality_from(s).remote_fraction()
                }
            })
            .collect();
        let footprint = system.footprint(pid)?;

        let mut engine = ExecutionEngine::new(&system);
        let threads = Self::threads(&system, params);
        let scaled = params.scale_workload(spec);
        let metrics = engine.run(&mut system, pid, &scaled, region, &threads, params)?;

        Ok(ScenarioResult {
            label: format!("{} {}", spec.name(), config.label()),
            metrics,
            remote_leaf_fractions,
            footprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_workloads::suite;

    fn params() -> SimParams {
        SimParams::quick_test()
    }

    #[test]
    fn first_touch_sees_remote_leaf_ptes_and_mitosis_makes_them_local() {
        let spec = suite::xsbench();
        let base =
            MultiSocketScenario::run(&spec, MultiSocketConfig::first_touch(), &params()).unwrap();
        // With parallel first-touch init, roughly 3/4 of leaf PTEs are
        // remote from any socket.
        let avg_remote: f64 = base.remote_leaf_fractions.iter().sum::<f64>()
            / base.remote_leaf_fractions.len() as f64;
        assert!(avg_remote > 0.5, "avg remote fraction = {avg_remote}");

        let replicated = MultiSocketScenario::run(
            &spec,
            MultiSocketConfig::first_touch().with_mitosis(),
            &params(),
        )
        .unwrap();
        let avg_replicated: f64 = replicated.remote_leaf_fractions.iter().sum::<f64>()
            / replicated.remote_leaf_fractions.len() as f64;
        assert!(
            avg_replicated < 0.05,
            "replicated remote fraction = {avg_replicated}"
        );
    }

    #[test]
    fn mitosis_does_not_slow_the_workload_down() {
        let spec = suite::canneal();
        let p = params();
        let base = MultiSocketScenario::run(&spec, MultiSocketConfig::first_touch(), &p).unwrap();
        let with_mitosis =
            MultiSocketScenario::run(&spec, MultiSocketConfig::first_touch().with_mitosis(), &p)
                .unwrap();
        assert!(
            with_mitosis.metrics.total_cycles <= base.metrics.total_cycles,
            "Mitosis regressed the multi-socket run: {} vs {}",
            with_mitosis.metrics.total_cycles,
            base.metrics.total_cycles
        );
    }

    #[test]
    fn single_thread_init_skews_page_table_placement() {
        // A footprint that fits within one scaled socket, so the
        // single-threaded initialiser does not spill to other sockets.
        let spec = suite::graph500().with_footprint(32 * mitosis_numa::GIB);
        let result =
            MultiSocketScenario::run(&spec, MultiSocketConfig::first_touch(), &params()).unwrap();
        // The initialising socket holds (almost) all page tables, so other
        // sockets see ~100 % remote leaf PTEs while it sees almost none.
        let max = result
            .remote_leaf_fractions
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let min = result
            .remote_leaf_fractions
            .iter()
            .cloned()
            .fold(1.0f64, f64::min);
        assert!(max > 0.9, "max remote fraction = {max}");
        assert!(min < 0.3, "min remote fraction = {min}");
    }
}
