//! The hardware page-table walker.
//!
//! On a TLB miss the walker reads one entry per level, starting from CR3 (or
//! from a paging-structure-cache hit), until it reaches a leaf entry.  Each
//! read is a real memory access whose cost depends on where the page-table
//! page lives relative to the walking core — the quantity Mitosis optimises.
//! The walker also sets the accessed (and, for stores, dirty) bit in the leaf
//! entry *of the tree it walked*, which is why replicated page tables need
//! OR-consolidation when the OS reads those bits back (paper §5.4).  That
//! update is an atomic OR through a shared `&PtStore`
//! ([`PtStore::mark_accessed_at`]), so walkers on several host threads may
//! share one store: the bits end up the same whatever order they ran in,
//! and no translation depends on them.
//!
//! A core's walker, with its paging-structure caches and walk counters, is
//! the MMU's [`WalkHalf`](crate::WalkHalf); the TLBs are the other half.
//! The walk half consumes TLB misses in order and owns everything it
//! writes except that accessed/dirty OR, so it can run on a host thread of
//! its own while the TLB half runs ahead on another (the execution engine's
//! pipelined schedule).  There the TLB side has already looked the leaf
//! entry up in software, and set its accessed/dirty bits, to fill its
//! TLBs: [`HardwareWalker::walk_known_leaf`] takes that entry instead of
//! reading it again, and charges and counts the walk exactly as
//! [`HardwareWalker::walk`] would.  That holds as long as the walk reaches
//! the same leaf, which it does while its paging-structure caches agree
//! with the tables ([`PagingStructureCache::agrees_with`]).

use crate::pte_cache::PteCache;
use crate::pwc::PagingStructureCache;
use crate::stats::WalkStats;
use mitosis_mem::{FrameId, FrameSpace};
use mitosis_numa::{AccessKind, CostModel, Cycles, SocketId};
use mitosis_pt::{Level, PageSize, PtStore, Pte, Translation, VirtAddr};

/// Fixed pipeline overhead charged per walk, on top of its memory accesses.
const WALK_SETUP_CYCLES: Cycles = 20;

/// Result of one hardware page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// The translation found, or `None` if the walk hit a non-present entry
    /// (which the OS sees as a page fault).
    pub translation: Option<Translation>,
    /// Cycles consumed by the walk.
    pub cycles: Cycles,
    /// Number of page-table levels read.
    pub levels_read: u8,
}

/// The hardware page walker of one core.
#[derive(Debug, Clone, Copy, Default)]
pub struct HardwareWalker;

impl HardwareWalker {
    /// Creates a walker.
    pub fn new() -> Self {
        HardwareWalker
    }

    /// Performs a page walk for `addr` starting at the page table rooted at
    /// `root`, on behalf of a core on `socket`.
    ///
    /// The walk's only write to `store` is the order-independent
    /// accessed/dirty OR on the leaf it reaches; every other argument is a
    /// model the walk consults (paging-structure caches, the socket's L3
    /// page-table lines, the NUMA cost model) or a statistics sink.
    #[allow(clippy::too_many_arguments)]
    pub fn walk(
        &self,
        socket: SocketId,
        root: FrameId,
        addr: VirtAddr,
        is_write: bool,
        store: &PtStore,
        space: &FrameSpace,
        cost: &CostModel,
        pwc: &mut PagingStructureCache,
        pte_cache: &mut PteCache,
        stats: &mut WalkStats,
    ) -> WalkOutcome {
        self.walk_from(
            socket, root, addr, is_write, None, store, space, cost, pwc, pte_cache, stats,
        )
    }

    /// [`walk`](HardwareWalker::walk) for a walk whose leaf entry the caller
    /// has already read from the tree rooted at `root`, and whose
    /// accessed/dirty bits it has already set: `leaf` is the translation
    /// that entry gives.  Every level is charged, cached and counted as in
    /// `walk`, and the entries above the leaf are read from `store`; the
    /// leaf entry is taken from `leaf` and not written.
    #[allow(clippy::too_many_arguments)]
    pub fn walk_known_leaf(
        &self,
        socket: SocketId,
        root: FrameId,
        addr: VirtAddr,
        is_write: bool,
        leaf: &Translation,
        store: &PtStore,
        space: &FrameSpace,
        cost: &CostModel,
        pwc: &mut PagingStructureCache,
        pte_cache: &mut PteCache,
        stats: &mut WalkStats,
    ) -> WalkOutcome {
        let known_leaf = Some((leaf.level, leaf.pte));
        self.walk_from(
            socket, root, addr, is_write, known_leaf, store, space, cost, pwc, pte_cache, stats,
        )
    }

    /// The walk both entry points share.  `known_leaf` is the level and
    /// entry of a leaf the caller has already read and marked; the walk
    /// takes that entry instead of reading and marking it.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn walk_from(
        &self,
        socket: SocketId,
        root: FrameId,
        addr: VirtAddr,
        is_write: bool,
        known_leaf: Option<(Level, Pte)>,
        store: &PtStore,
        space: &FrameSpace,
        cost: &CostModel,
        pwc: &mut PagingStructureCache,
        pte_cache: &mut PteCache,
        stats: &mut WalkStats,
    ) -> WalkOutcome {
        let mut cycles: Cycles = WALK_SETUP_CYCLES;
        let mut levels_read: u8 = 0;
        stats.walks += 1;

        let (mut level, mut table) = match pwc.walk_start(addr) {
            Some((level, table)) => (level, table),
            None => (Level::L4, root),
        };

        loop {
            let index = addr.index_at(level);
            let known = known_leaf.filter(|&(leaf_level, _)| leaf_level == level);
            // Charge the memory access for reading this entry.
            let cached = pte_cache.access(table, index);
            if cached {
                cycles += cost.llc_hit().cycles;
                stats.pte_cache_hits += 1;
            } else {
                let access = cost.dram_access(socket, space.socket_of(table), AccessKind::PageWalk);
                cycles += access.cycles;
                if access.local {
                    stats.local_dram_accesses += 1;
                } else {
                    stats.remote_dram_accesses += 1;
                }
                if access.interfered {
                    stats.interfered_accesses += 1;
                }
            }
            levels_read += 1;
            stats.levels_accessed += 1;

            // One directory resolution per level read; the slot handle
            // serves both the entry read and the accessed/dirty write below.
            let (slot, pte) = match known {
                Some((_, pte)) => (None, pte),
                None => {
                    let slot = store.slot(table);
                    (Some(slot), store.read_at(slot, index))
                }
            };
            if !pte.is_present() {
                stats.faults += 1;
                stats.walk_cycles += cycles;
                return WalkOutcome {
                    translation: None,
                    cycles,
                    levels_read,
                };
            }

            let is_leaf = level == Level::L1 || pte.is_huge();
            if is_leaf {
                let size = match level {
                    Level::L1 => PageSize::Base4K,
                    Level::L2 => PageSize::Huge2M,
                    Level::L3 => PageSize::Giant1G,
                    Level::L4 => {
                        // A huge bit at L4 is architecturally invalid; treat
                        // as a fault.
                        stats.faults += 1;
                        stats.walk_cycles += cycles;
                        return WalkOutcome {
                            translation: None,
                            cycles,
                            levels_read,
                        };
                    }
                };
                // A store through a non-writable leaf is a permission
                // fault (the path copy-on-write resolution takes).
                if is_write && !pte.flags().writable {
                    stats.faults += 1;
                    stats.walk_cycles += cycles;
                    return WalkOutcome {
                        translation: None,
                        cycles,
                        levels_read,
                    };
                }
                if let Some(slot) = slot {
                    store.mark_accessed_at(slot, index, is_write);
                }
                stats.walk_cycles += cycles;
                return WalkOutcome {
                    translation: Some(Translation {
                        frame: pte.frame().expect("present leaf entry has a frame"),
                        size,
                        pte,
                        level,
                    }),
                    cycles,
                    levels_read,
                };
            }

            let child = pte.frame().expect("present table entry has a frame");
            pwc.record(addr, level, child);
            table = child;
            level = level
                .next_lower()
                .expect("non-leaf entries exist above L1 only");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_mem::FrameSpace;
    use mitosis_numa::Interference;
    use mitosis_pt::{Pte, PteFlags};

    /// Builds a page table with the leaf table either on socket 0 (local) or
    /// socket 1 (remote): root@0 -> l3@1 -> l2@2 -> l1@(3 | 10_000) -> data.
    fn build(remote_leaf: bool) -> (PtStore, FrameSpace, FrameId, VirtAddr) {
        let space = FrameSpace::with_frames_per_socket(2, 10_000);
        let mut store = PtStore::new();
        let root = FrameId::new(0);
        let l3 = FrameId::new(1);
        let l2 = FrameId::new(2);
        let l1 = if remote_leaf {
            FrameId::new(10_000)
        } else {
            FrameId::new(3)
        };
        for frame in [root, l3, l2, l1] {
            store.insert_table(frame, None);
        }
        let data = FrameId::new(500);
        let addr = VirtAddr::new(0x4000_0000);
        store.write(
            root,
            addr.index_at(Level::L4),
            Pte::new(l3, PteFlags::table_pointer()),
        );
        store.write(
            l3,
            addr.index_at(Level::L3),
            Pte::new(l2, PteFlags::table_pointer()),
        );
        store.write(
            l2,
            addr.index_at(Level::L2),
            Pte::new(l1, PteFlags::table_pointer()),
        );
        store.write(
            l1,
            addr.index_at(Level::L1),
            Pte::new(data, PteFlags::user_data()),
        );
        (store, space, root, addr)
    }

    fn cost() -> CostModel {
        CostModel::new(2, 280, 580, 42, 28.0, 11.0)
    }

    #[test]
    fn full_walk_reads_four_levels_and_sets_accessed() {
        let (store, space, root, addr) = build(false);
        let walker = HardwareWalker::new();
        let mut pwc = PagingStructureCache::paper_testbed();
        let mut pte_cache = PteCache::new(1024);
        let mut stats = WalkStats::default();
        let outcome = walker.walk(
            SocketId::new(0),
            root,
            addr,
            false,
            &store,
            &space,
            &cost(),
            &mut pwc,
            &mut pte_cache,
            &mut stats,
        );
        assert_eq!(outcome.levels_read, 4);
        let t = outcome.translation.unwrap();
        assert_eq!(t.frame, FrameId::new(500));
        // Accessed bit set in the walked tree, dirty not (read access).
        let leaf = store.read(FrameId::new(3), addr.index_at(Level::L1));
        assert!(leaf.flags().accessed);
        assert!(!leaf.flags().dirty);
        assert_eq!(stats.local_dram_accesses, 4);
        assert_eq!(stats.remote_dram_accesses, 0);
    }

    #[test]
    fn write_walk_sets_dirty() {
        let (store, space, root, addr) = build(false);
        let walker = HardwareWalker::new();
        let mut pwc = PagingStructureCache::paper_testbed();
        let mut pte_cache = PteCache::new(1024);
        let mut stats = WalkStats::default();
        walker.walk(
            SocketId::new(0),
            root,
            addr,
            true,
            &store,
            &space,
            &cost(),
            &mut pwc,
            &mut pte_cache,
            &mut stats,
        );
        let leaf = store.read(FrameId::new(3), addr.index_at(Level::L1));
        assert!(leaf.flags().dirty);
    }

    #[test]
    fn write_through_a_read_only_leaf_faults() {
        let (mut store, space, root, addr) = build(false);
        // Downgrade the leaf to read-only (a CoW mapping).
        let l1 = FrameId::new(3);
        let index = addr.index_at(Level::L1);
        let leaf = store.read(l1, index);
        store.write(
            l1,
            index,
            leaf.with_flags(PteFlags {
                writable: false,
                ..leaf.flags()
            }),
        );
        let walker = HardwareWalker::new();
        let mut pwc = PagingStructureCache::paper_testbed();
        let mut pte_cache = PteCache::new(1024);
        let mut stats = WalkStats::default();
        let read = walker.walk(
            SocketId::new(0),
            root,
            addr,
            false,
            &store,
            &space,
            &cost(),
            &mut pwc,
            &mut pte_cache,
            &mut stats,
        );
        assert!(read.translation.is_some(), "reads still translate");
        let write = walker.walk(
            SocketId::new(0),
            root,
            addr,
            true,
            &store,
            &space,
            &cost(),
            &mut pwc,
            &mut pte_cache,
            &mut stats,
        );
        assert!(write.translation.is_none(), "writes fault");
        assert_eq!(stats.faults, 1);
        // The dirty bit was not set by the faulting write.
        assert!(!store.read(l1, index).flags().dirty);
    }

    #[test]
    fn remote_leaf_table_costs_more() {
        let run = |remote: bool| {
            let (store, space, root, addr) = build(remote);
            let walker = HardwareWalker::new();
            let mut pwc = PagingStructureCache::paper_testbed();
            let mut pte_cache = PteCache::new(1024);
            let mut stats = WalkStats::default();
            let outcome = walker.walk(
                SocketId::new(0),
                root,
                addr,
                false,
                &store,
                &space,
                &cost(),
                &mut pwc,
                &mut pte_cache,
                &mut stats,
            );
            (outcome.cycles, stats)
        };
        let (local_cycles, local_stats) = run(false);
        let (remote_cycles, remote_stats) = run(true);
        assert!(remote_cycles > local_cycles);
        assert_eq!(local_stats.remote_dram_accesses, 0);
        assert_eq!(remote_stats.remote_dram_accesses, 1);
        assert_eq!(remote_cycles - local_cycles, 580 - 280);
    }

    #[test]
    fn interference_on_the_leaf_socket_inflates_walks() {
        let (store, space, root, addr) = build(true);
        let mut cost = cost();
        cost.set_interference(Interference::on([SocketId::new(1)]).with_latency_factor(2.0));
        let walker = HardwareWalker::new();
        let mut pwc = PagingStructureCache::paper_testbed();
        let mut pte_cache = PteCache::new(1024);
        let mut stats = WalkStats::default();
        walker.walk(
            SocketId::new(0),
            root,
            addr,
            false,
            &store,
            &space,
            &cost,
            &mut pwc,
            &mut pte_cache,
            &mut stats,
        );
        assert_eq!(stats.interfered_accesses, 1);
    }

    #[test]
    fn pwc_hit_shortens_subsequent_walks() {
        let (store, space, root, addr) = build(false);
        let walker = HardwareWalker::new();
        let mut pwc = PagingStructureCache::paper_testbed();
        let mut pte_cache = PteCache::new(1); // effectively no PTE cache reuse
        let mut stats = WalkStats::default();
        let first = walker.walk(
            SocketId::new(0),
            root,
            addr,
            false,
            &store,
            &space,
            &cost(),
            &mut pwc,
            &mut pte_cache,
            &mut stats,
        );
        // A neighbouring page in the same 2 MiB region only needs the leaf.
        let neighbour = VirtAddr::new(addr.as_u64() + 4096);
        let second = walker.walk(
            SocketId::new(0),
            root,
            neighbour,
            false,
            &store,
            &space,
            &cost(),
            &mut pwc,
            &mut pte_cache,
            &mut stats,
        );
        assert_eq!(first.levels_read, 4);
        assert_eq!(second.levels_read, 1);
        // The neighbour is unmapped, so it faults.
        assert!(second.translation.is_none());
        assert_eq!(stats.faults, 1);
    }

    #[test]
    fn pte_cache_hit_avoids_dram_cost() {
        let (store, space, root, addr) = build(true);
        let walker = HardwareWalker::new();
        let mut pwc = PagingStructureCache::paper_testbed();
        let mut pte_cache = PteCache::new(1024);
        let mut stats = WalkStats::default();
        let first = walker.walk(
            SocketId::new(0),
            root,
            addr,
            false,
            &store,
            &space,
            &cost(),
            &mut pwc,
            &mut pte_cache,
            &mut stats,
        );
        let second = walker.walk(
            SocketId::new(0),
            root,
            addr,
            false,
            &store,
            &space,
            &cost(),
            &mut pwc,
            &mut pte_cache,
            &mut stats,
        );
        assert!(second.cycles < first.cycles);
        assert!(stats.pte_cache_hits >= 1);
    }
}
