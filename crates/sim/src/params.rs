//! Simulation parameters.

use mitosis_numa::{Machine, MachineConfig};
use mitosis_vmm::ShootdownMode;
use mitosis_workloads::WorkloadSpec;

/// Parameters shared by every experiment run.
///
/// The defaults reproduce the paper's testbed scaled down by 128x in
/// capacity: latencies, TLB sizes and core counts are real, while memory,
/// last-level cache and workload footprints shrink together so that the
/// pressure *ratios* (footprint vs. TLB reach, page-table size vs. L3) match
/// the originals.
#[derive(Debug, Clone, PartialEq)]
pub struct SimParams {
    /// Capacity scale factor applied to the machine and to workload
    /// footprints.
    pub machine_scale: u64,
    /// Number of accesses each simulated thread replays in the measured
    /// phase.
    pub accesses_per_thread: u64,
    /// Simulated threads per participating socket.
    pub threads_per_socket: usize,
    /// Seed for workload access streams.
    pub seed: u64,
    /// External-fragmentation probability applied to the allocator before
    /// the workload populates its memory (`None` = pristine machine).
    pub fragmentation: Option<f64>,
    /// TLB-consistency model for mapping mutations (`Broadcast` keeps the
    /// historical full-flush behaviour and bit-identical golden metrics).
    pub shootdown_mode: ShootdownMode,
}

impl SimParams {
    /// Default parameters used by the figure harnesses.
    ///
    /// The access count can be overridden through the
    /// `MITOSIS_SIM_ACCESSES` environment variable to trade precision for
    /// run time.
    pub fn new() -> Self {
        let accesses = std::env::var("MITOSIS_SIM_ACCESSES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(60_000);
        SimParams {
            machine_scale: 128,
            accesses_per_thread: accesses,
            threads_per_socket: 1,
            seed: 42,
            fragmentation: None,
            shootdown_mode: ShootdownMode::Broadcast,
        }
    }

    /// Small, fast parameters for unit and doc tests.
    pub fn quick_test() -> Self {
        SimParams {
            machine_scale: 512,
            accesses_per_thread: 2_000,
            threads_per_socket: 1,
            seed: 7,
            fragmentation: None,
            shootdown_mode: ShootdownMode::Broadcast,
        }
    }

    /// Sets the measured access count per thread.
    pub fn with_accesses(mut self, accesses: u64) -> Self {
        self.accesses_per_thread = accesses;
        self
    }

    /// Sets the number of simulated threads per participating socket
    /// (multi-thread-per-socket captures exercise the lane-group parallel
    /// replay path).
    pub fn with_threads_per_socket(mut self, threads: usize) -> Self {
        assert!(threads > 0, "each socket needs at least one thread");
        self.threads_per_socket = threads;
        self
    }

    /// Sets the capacity scale factor.
    pub fn with_machine_scale(mut self, scale: u64) -> Self {
        assert!(scale > 0);
        self.machine_scale = scale;
        self
    }

    /// Applies heavy external fragmentation (the paper's Figure 11 setup).
    pub fn with_heavy_fragmentation(mut self) -> Self {
        self.fragmentation = Some(0.95);
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches mapping mutations to ranged, ASID-tagged shootdowns.
    pub fn with_ranged_shootdowns(mut self) -> Self {
        self.shootdown_mode = ShootdownMode::Ranged;
        self
    }

    /// Builds the simulated machine for these parameters.
    pub fn machine(&self) -> Machine {
        MachineConfig::paper_testbed()
            .with_scale(self.machine_scale)
            .build()
    }

    /// Scales a paper workload's footprint to this machine.
    pub fn scale_workload(&self, spec: &WorkloadSpec) -> WorkloadSpec {
        spec.scaled(self.machine_scale)
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_workloads::suite;

    #[test]
    fn defaults_scale_machine_and_workload_together() {
        let params = SimParams::new().with_machine_scale(64);
        let machine = params.machine();
        assert_eq!(machine.sockets(), 4);
        assert_eq!(machine.memory_per_socket(), (128u64 << 30) / 64);
        let scaled = params.scale_workload(&suite::gups());
        assert_eq!(scaled.footprint(), (64u64 << 30) / 64);
    }

    #[test]
    fn builder_methods() {
        let params = SimParams::quick_test()
            .with_accesses(123)
            .with_seed(9)
            .with_heavy_fragmentation();
        assert_eq!(params.accesses_per_thread, 123);
        assert_eq!(params.seed, 9);
        assert_eq!(params.fragmentation, Some(0.95));
    }

    #[test]
    fn workload_footprint_never_scales_below_the_floor() {
        let params = SimParams::quick_test();
        let scaled = params.scale_workload(&suite::hashjoin());
        assert!(scaled.footprint() >= 64 * 1024 * 1024);
    }
}
