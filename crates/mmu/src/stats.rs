//! Translation statistics, the simulator's equivalent of the performance
//! counters (`dtlb_load_misses.walk_*`) the paper reads with `perf`.

use mitosis_numa::Cycles;

/// Counters describing page-walk activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkStats {
    /// Number of page walks performed.
    pub walks: u64,
    /// Walks that ended at a non-present entry (page faults).
    pub faults: u64,
    /// Total cycles spent walking (the "walk cycles" hashed bars).
    pub walk_cycles: Cycles,
    /// Page-table levels read in total.
    pub levels_accessed: u64,
    /// Walker reads served by the local socket's DRAM.
    pub local_dram_accesses: u64,
    /// Walker reads served by a remote socket's DRAM.
    pub remote_dram_accesses: u64,
    /// Walker reads served from a cached page-table line.
    pub pte_cache_hits: u64,
    /// Walker reads that hit DRAM on a socket loaded by an interfering
    /// process.
    pub interfered_accesses: u64,
}

impl WalkStats {
    /// Total memory reads issued by the walker (DRAM plus cache hits).
    pub fn total_reads(&self) -> u64 {
        self.local_dram_accesses + self.remote_dram_accesses + self.pte_cache_hits
    }

    /// Fraction of DRAM walker reads that were remote.
    pub fn remote_dram_fraction(&self) -> f64 {
        let dram = self.local_dram_accesses + self.remote_dram_accesses;
        if dram == 0 {
            0.0
        } else {
            self.remote_dram_accesses as f64 / dram as f64
        }
    }

    /// The counter deltas accumulated since `earlier` was captured.
    ///
    /// `earlier` must be a previous snapshot of the same monotonic counter
    /// set; every field of the result is `self - earlier`.
    pub fn delta_since(&self, earlier: &WalkStats) -> WalkStats {
        WalkStats {
            walks: self.walks - earlier.walks,
            faults: self.faults - earlier.faults,
            walk_cycles: self.walk_cycles - earlier.walk_cycles,
            levels_accessed: self.levels_accessed - earlier.levels_accessed,
            local_dram_accesses: self.local_dram_accesses - earlier.local_dram_accesses,
            remote_dram_accesses: self.remote_dram_accesses - earlier.remote_dram_accesses,
            pte_cache_hits: self.pte_cache_hits - earlier.pte_cache_hits,
            interfered_accesses: self.interfered_accesses - earlier.interfered_accesses,
        }
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &WalkStats) {
        self.walks += other.walks;
        self.faults += other.faults;
        self.walk_cycles += other.walk_cycles;
        self.levels_accessed += other.levels_accessed;
        self.local_dram_accesses += other.local_dram_accesses;
        self.remote_dram_accesses += other.remote_dram_accesses;
        self.pte_cache_hits += other.pte_cache_hits;
        self.interfered_accesses += other.interfered_accesses;
    }
}

/// Counters describing overall MMU activity of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MmuStats {
    /// Translations requested.
    pub accesses: u64,
    /// Lookups served by the first-level TLB.
    pub tlb_l1_hits: u64,
    /// Lookups served by the second-level TLB.
    pub tlb_l2_hits: u64,
    /// Lookups that missed both TLB levels and required a walk.
    pub tlb_misses: u64,
    /// Cycles spent on translation (TLB penalties plus walk cycles).
    pub translation_cycles: Cycles,
    /// Page-walk detail.
    pub walk: WalkStats,
}

impl MmuStats {
    /// TLB miss ratio over all accesses.
    pub fn tlb_miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.tlb_misses as f64 / self.accesses as f64
        }
    }

    /// The counter deltas accumulated since `earlier` was captured.
    ///
    /// `earlier` must be a previous snapshot of the same monotonic counter
    /// set; every field of the result is `self - earlier`.
    pub fn delta_since(&self, earlier: &MmuStats) -> MmuStats {
        MmuStats {
            accesses: self.accesses - earlier.accesses,
            tlb_l1_hits: self.tlb_l1_hits - earlier.tlb_l1_hits,
            tlb_l2_hits: self.tlb_l2_hits - earlier.tlb_l2_hits,
            tlb_misses: self.tlb_misses - earlier.tlb_misses,
            translation_cycles: self.translation_cycles - earlier.translation_cycles,
            walk: self.walk.delta_since(&earlier.walk),
        }
    }

    /// A TLB half's counters joined with a walk half's (see
    /// [`Mmu`](crate::Mmu)): the walk counters added to `walk`, and their
    /// walk cycles to `translation_cycles`, which the TLB half keeps as
    /// penalties only.  Integer sums, so the result is exact whichever host
    /// thread counted which half.
    pub fn joined(mut self, walk: &WalkStats) -> MmuStats {
        self.translation_cycles += walk.walk_cycles;
        self.walk.merge(walk);
        self
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &MmuStats) {
        self.accesses += other.accesses;
        self.tlb_l1_hits += other.tlb_l1_hits;
        self.tlb_l2_hits += other.tlb_l2_hits;
        self.tlb_misses += other.tlb_misses;
        self.translation_cycles += other.translation_cycles;
        self.walk.merge(&other.walk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        assert_eq!(MmuStats::default().tlb_miss_ratio(), 0.0);
        assert_eq!(WalkStats::default().remote_dram_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = MmuStats {
            accesses: 10,
            tlb_l1_hits: 5,
            tlb_l2_hits: 2,
            tlb_misses: 3,
            translation_cycles: 100,
            walk: WalkStats {
                walks: 3,
                faults: 1,
                walk_cycles: 90,
                levels_accessed: 6,
                local_dram_accesses: 2,
                remote_dram_accesses: 4,
                pte_cache_hits: 1,
                interfered_accesses: 2,
            },
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.accesses, 20);
        assert_eq!(a.walk.walks, 6);
        assert_eq!(a.walk.total_reads(), 14);
        assert!((a.walk.remote_dram_fraction() - 8.0 / 12.0).abs() < 1e-9);
        assert!((a.tlb_miss_ratio() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn delta_since_inverts_merge() {
        let earlier = MmuStats {
            accesses: 10,
            tlb_l1_hits: 5,
            tlb_l2_hits: 2,
            tlb_misses: 3,
            translation_cycles: 100,
            walk: WalkStats {
                walks: 3,
                faults: 1,
                walk_cycles: 90,
                levels_accessed: 6,
                local_dram_accesses: 2,
                remote_dram_accesses: 4,
                pte_cache_hits: 1,
                interfered_accesses: 2,
            },
        };
        let delta = MmuStats {
            accesses: 7,
            tlb_l1_hits: 4,
            tlb_l2_hits: 1,
            tlb_misses: 2,
            translation_cycles: 55,
            walk: WalkStats {
                walks: 2,
                faults: 0,
                walk_cycles: 40,
                levels_accessed: 4,
                local_dram_accesses: 1,
                remote_dram_accesses: 2,
                pte_cache_hits: 1,
                interfered_accesses: 0,
            },
        };
        let mut later = earlier;
        later.merge(&delta);
        assert_eq!(later.delta_since(&earlier), delta);
        assert_eq!(later.delta_since(&later), MmuStats::default());
    }
}
