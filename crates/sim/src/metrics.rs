//! Run metrics — the quantities the paper reads from `perf`.

use mitosis_mmu::MmuStats;
use mitosis_numa::Cycles;
use std::fmt;

/// Aggregated result of executing a workload phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunMetrics {
    /// Wall-clock proxy: the largest per-thread cycle count.
    pub total_cycles: Cycles,
    /// Cycles spent in program computation (between memory accesses).
    pub compute_cycles: Cycles,
    /// Cycles spent waiting for data accesses.
    pub data_cycles: Cycles,
    /// Cycles spent translating addresses (TLB penalties plus page walks),
    /// summed over threads.
    pub translation_cycles: Cycles,
    /// Number of simulated threads.
    pub threads: usize,
    /// Total accesses replayed across threads.
    pub accesses: u64,
    /// Merged MMU statistics of all threads.
    pub mmu: MmuStats,
    /// Page faults taken during the measured phase (demand paging).
    pub demand_faults: u64,
}

impl RunMetrics {
    /// The one-line human-readable summary ([`RunMetrics`] also implements
    /// [`std::fmt::Display`] with the same text).
    pub fn summary(&self) -> String {
        self.to_string()
    }

    /// Fraction of the total runtime spent walking page tables — the hashed
    /// portion of the paper's bars.
    pub fn walk_cycle_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        // Walk cycles are accumulated across threads; scale to the same
        // per-thread basis as total_cycles.
        let per_thread_walk = self.mmu.walk.walk_cycles as f64 / self.threads.max(1) as f64;
        (per_thread_walk / self.total_cycles as f64).min(1.0)
    }

    /// Average cycles per access (per thread).
    pub fn cycles_per_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.total_cycles as f64 * self.threads.max(1) as f64) / self.accesses as f64
        }
    }

    /// Runtime of `self` normalised to a baseline run (>1 means slower).
    pub fn normalized_to(&self, baseline: &RunMetrics) -> f64 {
        if baseline.total_cycles == 0 {
            return 0.0;
        }
        self.total_cycles as f64 / baseline.total_cycles as f64
    }

    /// Speedup of a baseline run relative to `self` (>1 means `self` is
    /// faster), the number printed above the green bars in the paper.
    pub fn speedup_over(&self, other: &RunMetrics) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        other.total_cycles as f64 / self.total_cycles as f64
    }

    /// Merges the metrics of a disjoint set of threads (e.g. one replayed
    /// lane, or one per-socket lane *group* of several lanes) into `self`.
    ///
    /// Every field of [`RunMetrics`] aggregates threads with an
    /// order-independent (commutative and associative) operation (`max` for
    /// the wall-clock proxy, sums elsewhere), so merging per-lane or
    /// per-group metrics in any order — and at any grouping granularity —
    /// reproduces the metrics of a single run over all the threads: the
    /// property the lane-granular parallel replay driver relies on.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.total_cycles = self.total_cycles.max(other.total_cycles);
        self.compute_cycles += other.compute_cycles;
        self.data_cycles += other.data_cycles;
        self.translation_cycles += other.translation_cycles;
        self.threads += other.threads;
        self.accesses += other.accesses;
        self.mmu.merge(&other.mmu);
        self.demand_faults += other.demand_faults;
    }

    /// Merges a per-thread contribution into the aggregate.
    #[allow(clippy::too_many_arguments)]
    pub fn absorb_thread(
        &mut self,
        thread_cycles: Cycles,
        compute: Cycles,
        data: Cycles,
        translation: Cycles,
        accesses: u64,
        mmu: &MmuStats,
        demand_faults: u64,
    ) {
        self.total_cycles = self.total_cycles.max(thread_cycles);
        self.compute_cycles += compute;
        self.data_cycles += data;
        self.translation_cycles += translation;
        self.threads += 1;
        self.accesses += accesses;
        self.mmu.merge(mmu);
        self.demand_faults += demand_faults;
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let per_thread = self.accesses / self.threads.max(1) as u64;
        write!(
            f,
            "{} cycles ({} thread(s) x {} accesses, {:.1} cyc/access) | \
             compute {} / data {} / translation {} | \
             TLB miss {:.2}%, walk {:.1}% of runtime, remote walk DRAM {:.1}% | \
             demand faults {}",
            self.total_cycles,
            self.threads,
            per_thread,
            self.cycles_per_access(),
            self.compute_cycles,
            self.data_cycles,
            self.translation_cycles,
            self.mmu.tlb_miss_ratio() * 100.0,
            self.walk_cycle_fraction() * 100.0,
            self.mmu.walk.remote_dram_fraction() * 100.0,
            self.demand_faults,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_and_speedup() {
        let baseline = RunMetrics {
            total_cycles: 1_000,
            ..RunMetrics::default()
        };
        let slower = RunMetrics {
            total_cycles: 3_240,
            ..RunMetrics::default()
        };
        assert!((slower.normalized_to(&baseline) - 3.24).abs() < 1e-9);
        assert!((baseline.speedup_over(&slower) - 3.24).abs() < 1e-9);
        assert_eq!(RunMetrics::default().normalized_to(&baseline), 0.0);
    }

    #[test]
    fn absorb_thread_takes_the_maximum_runtime() {
        let mut metrics = RunMetrics::default();
        let mmu = MmuStats::default();
        metrics.absorb_thread(1_000, 100, 500, 400, 10, &mmu, 0);
        metrics.absorb_thread(2_000, 200, 1_000, 800, 10, &mmu, 1);
        assert_eq!(metrics.total_cycles, 2_000);
        assert_eq!(metrics.threads, 2);
        assert_eq!(metrics.accesses, 20);
        assert_eq!(metrics.demand_faults, 1);
        assert_eq!(metrics.compute_cycles, 300);
    }

    #[test]
    fn merge_is_grouping_independent() {
        // Merging lanes one by one must equal merging pre-merged groups —
        // the algebraic property per-socket lane groups rest on.
        let mmu = MmuStats::default();
        let lanes: Vec<RunMetrics> = (1..=4u64)
            .map(|i| {
                let mut m = RunMetrics::default();
                m.absorb_thread(1_000 * i, 10 * i, 100 * i, 50 * i, 10, &mmu, 0);
                m
            })
            .collect();
        let mut flat = RunMetrics::default();
        for lane in &lanes {
            flat.merge(lane);
        }
        let mut group_a = RunMetrics::default();
        group_a.merge(&lanes[0]);
        group_a.merge(&lanes[2]);
        let mut group_b = RunMetrics::default();
        group_b.merge(&lanes[1]);
        group_b.merge(&lanes[3]);
        let mut grouped = RunMetrics::default();
        grouped.merge(&group_a);
        grouped.merge(&group_b);
        assert_eq!(grouped, flat);
    }

    #[test]
    fn walk_fraction_is_bounded() {
        let mut metrics = RunMetrics {
            total_cycles: 1_000,
            threads: 1,
            ..RunMetrics::default()
        };
        metrics.mmu.walk.walk_cycles = 600;
        assert!((metrics.walk_cycle_fraction() - 0.6).abs() < 1e-9);
        metrics.mmu.walk.walk_cycles = 5_000;
        assert_eq!(metrics.walk_cycle_fraction(), 1.0);
        assert_eq!(RunMetrics::default().walk_cycle_fraction(), 0.0);
    }
}
