//! What one pass over a workload's scenario list produces besides its
//! timings: scenario runs attempted and failed, deterministic work counts,
//! a digest of every run's simulated metrics, and per-pass host-time rows.

use mitosis_sim::RunMetrics;
use std::collections::BTreeMap;
use std::time::Duration;

/// One pass's outputs.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Scenario runs attempted (engine runs and trace replays).
    pub attempted: u64,
    /// Failed runs, keyed by run label: an error, or a failed output check.
    pub failures: BTreeMap<String, String>,
    /// Deterministic work counts, summed over the pass.  They must repeat
    /// exactly in every pass of every run at the same seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Every run's simulated metrics, in run order.
    pub runs: Vec<(String, RunMetrics)>,
    /// Host-time rows for the anomaly table, mostly taken from the
    /// program's own replay reports.
    pub rows: BTreeMap<&'static str, f64>,
    /// Simulated Mitosis speedups: label, speedup, the paper's figure.
    pub speedups: Vec<(String, f64, &'static str)>,
}

impl PassOutput {
    /// Records a completed run and adds its simulated work to the counts.
    pub fn run(&mut self, label: String, metrics: &RunMetrics) {
        self.attempted += 1;
        let mmu = &metrics.mmu;
        let walk = &mmu.walk;
        self.count("sim.total_cycles", metrics.total_cycles);
        self.count("sim.demand_faults", metrics.demand_faults);
        self.count("mmu.accesses", mmu.accesses);
        self.count("mmu.tlb_hits", mmu.tlb_l1_hits + mmu.tlb_l2_hits);
        self.count("mmu.tlb_misses", mmu.tlb_misses);
        self.count("mmu.walks", walk.walks);
        self.count("mmu.walk_levels", walk.levels_accessed);
        self.count("mmu.walk_reads", walk.total_reads());
        self.count("mmu.pte_cache_hits", walk.pte_cache_hits);
        self.count("numa.local_dram_reads", walk.local_dram_accesses);
        self.count("numa.remote_dram_reads", walk.remote_dram_accesses);
        self.runs.push((label, *metrics));
    }

    /// Records a run that returned an error.
    pub fn error(&mut self, label: String, error: impl std::fmt::Display) {
        self.attempted += 1;
        self.failures.insert(label, format!("error: {error}"));
    }

    /// Marks an already recorded run as failing an output check.
    pub fn fail(&mut self, label: &str, why: String) {
        self.failures.entry(label.to_string()).or_insert(why);
    }

    /// Adds `value` to the count `name`.
    pub fn count(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_insert(0) += value;
    }

    /// Sets the host-time row `name`.
    pub fn row(&mut self, name: &'static str, value: f64) {
        self.rows.insert(name, value);
    }

    /// Sets the host-time row `name` to `elapsed` per access, in ns.
    pub fn row_per_access(&mut self, name: &'static str, elapsed: Duration, accesses: u64) {
        self.row(name, elapsed.as_secs_f64() * 1e9 / accesses.max(1) as f64);
    }

    /// The metrics of the run labelled `label`.
    pub fn metrics(&self, label: &str) -> Option<&RunMetrics> {
        self.runs.iter().find(|(l, _)| l == label).map(|(_, m)| m)
    }

    /// FNV-1a digest of every run's label and simulated metrics, plus the
    /// pass's counts.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |text: &str| {
            for byte in text.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (label, metrics) in &self.runs {
            feed(&format!("{label}:{metrics:?};"));
        }
        for (name, value) in &self.counts {
            feed(&format!("{name}={value};"));
        }
        hash
    }

    /// Checks that `faster` never takes more simulated cycles than `base`.
    pub fn check_not_slower(&mut self, base: &str, faster: &str) {
        let (Some(b), Some(f)) = (self.metrics(base), self.metrics(faster)) else {
            return;
        };
        if f.total_cycles > b.total_cycles {
            let why = format!(
                "{faster} took {} cycles, more than {base} ({})",
                f.total_cycles, b.total_cycles
            );
            self.fail(faster, why);
        }
    }

    /// Checks that two runs report identical simulated metrics.
    pub fn check_equal(&mut self, label: &str, got: &RunMetrics, want: &RunMetrics, what: &str) {
        if got != want {
            self.fail(label, format!("{what}: {got:?} != {want:?}"));
        }
    }

    /// Records the simulated speedup of `mitosis` over `base`.
    pub fn speedup(&mut self, base: &str, mitosis: &str, paper: &'static str) {
        if let (Some(b), Some(m)) = (self.metrics(base), self.metrics(mitosis)) {
            let speedup = m.speedup_over(b);
            self.speedups.push((mitosis.to_string(), speedup, paper));
        }
    }
}
