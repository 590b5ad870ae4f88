//! The per-core MMU: a TLB half and a walk half.
//!
//! [`Mmu::access`] translates one access in two steps.  The [`TlbHalf`]
//! counts the access and probes the TLB hierarchy; on a miss the
//! [`WalkHalf`] walks the page table through its paging-structure caches,
//! the socket's page-table-line cache and the cost model, and the TLB half
//! installs the translation the walk found.  The TLB half needs nothing
//! from the walk half but that translation, and the walk half nothing from
//! the TLB half but the ordered stream of misses.  While the page tables
//! stay fixed a walk's translation is a pure function of them, so the
//! halves can run apart: the execution engine's pipelined schedule probes
//! the TLBs on one host thread and fills them from a software lookup of the
//! same tables, which also sets the leaf's accessed/dirty bits, and walks
//! the misses on another ([`WalkHalf::walk_known_leaf`]).  Each half owns
//! its own counters; [`Mmu::stats`] joins them.

use crate::plan::PlanView;
use crate::pte_cache::PteCache;
use crate::pwc::PagingStructureCache;
use crate::stats::{MmuStats, WalkStats};
use crate::tlb::{TlbHierarchy, TlbHit, TlbLevel};
use crate::walker::{HardwareWalker, WalkOutcome};
use mitosis_mem::{FrameId, FrameSpace};
use mitosis_numa::{CoreId, CostModel, Cycles, SocketId};
use mitosis_pt::{PageSize, PtStore, ShootdownPlan, Translation, VirtAddr};

/// Result of one memory access' address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The 4 KiB frame backing the accessed address, if mapped.
    pub frame: Option<FrameId>,
    /// Cycles spent translating (TLB penalties plus any walk).
    pub translation_cycles: Cycles,
    /// The TLB level that served the access, or `None` if a walk was needed.
    pub tlb_hit: Option<TlbLevel>,
    /// Page size of the mapping used (known only if translated).
    pub page_size: Option<PageSize>,
    /// `true` if the access faulted (no valid mapping).
    pub fault: bool,
}

/// The TLB half of a core's MMU: the TLB hierarchy, the loaded ASID and the
/// counters the TLBs keep.
#[derive(Debug, Clone)]
pub struct TlbHalf {
    core: CoreId,
    socket: SocketId,
    /// Address-space identifier of the process currently loaded on this
    /// core; tags every TLB entry (PCID).  ASID 0 — the default — keeps
    /// single-process runs identical to the untagged model.
    asid: u16,
    tlb: TlbHierarchy,
    /// Accesses, hits and misses; `translation_cycles` holds the TLB
    /// penalties only and `walk` stays zero.
    stats: MmuStats,
}

impl TlbHalf {
    /// Counts one access to `addr` and probes the TLBs for each translation
    /// granularity ([`TlbHierarchy::probe`]).  Returns the hit, or `None`
    /// after counting a miss: the caller walks and then
    /// [`fill`](TlbHalf::fill)s.
    #[inline]
    pub fn probe(&mut self, addr: VirtAddr, is_write: bool) -> Option<TlbHit> {
        self.stats.accesses += 1;
        let Some(hit) = self.tlb.probe(self.asid, addr, is_write) else {
            self.stats.tlb_misses += 1;
            return None;
        };
        match hit.level {
            TlbLevel::L1 => self.stats.tlb_l1_hits += 1,
            TlbLevel::L2 => self.stats.tlb_l2_hits += 1,
        }
        self.stats.translation_cycles += hit.penalty;
        Some(hit)
    }

    /// Installs `translation`, the one a walk of `addr` found after
    /// [`probe`](TlbHalf::probe) missed.
    #[inline]
    pub fn fill(&mut self, addr: VirtAddr, translation: &Translation) {
        self.tlb.insert(
            self.asid,
            addr.align_down(translation.size),
            translation.size,
            translation.frame,
            translation.pte.flags().writable,
        );
    }

    /// The TLB half's counters: `translation_cycles` holds the TLB
    /// penalties only and `walk` is zero ([`MmuStats::joined`] adds the
    /// walk half's).
    pub fn stats(&self) -> &MmuStats {
        &self.stats
    }
}

/// The walk half of a core's MMU: the paging-structure caches, the walker
/// and the walk counters.
#[derive(Debug, Clone)]
pub struct WalkHalf {
    socket: SocketId,
    pwc: PagingStructureCache,
    walker: HardwareWalker,
    stats: WalkStats,
}

impl WalkHalf {
    /// Walks the page table rooted at `root` for `addr`, after the TLB half
    /// missed.  `pte_cache` must be the cache of **this core's socket**.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn walk(
        &mut self,
        addr: VirtAddr,
        is_write: bool,
        root: FrameId,
        store: &PtStore,
        space: &FrameSpace,
        cost: &CostModel,
        pte_cache: &mut PteCache,
    ) -> WalkOutcome {
        self.walker.walk(
            self.socket,
            root,
            addr,
            is_write,
            store,
            space,
            cost,
            &mut self.pwc,
            pte_cache,
            &mut self.stats,
        )
    }

    /// [`walk`](WalkHalf::walk) for a miss whose leaf entry the caller has
    /// already looked up in the tree rooted at `root`, and whose
    /// accessed/dirty bits it has already set, to fill the TLB half:
    /// `leaf` is the translation it found
    /// ([`HardwareWalker::walk_known_leaf`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn walk_known_leaf(
        &mut self,
        addr: VirtAddr,
        is_write: bool,
        leaf: &Translation,
        root: FrameId,
        store: &PtStore,
        space: &FrameSpace,
        cost: &CostModel,
        pte_cache: &mut PteCache,
    ) -> WalkOutcome {
        self.walker.walk_known_leaf(
            self.socket,
            root,
            addr,
            is_write,
            leaf,
            store,
            space,
            cost,
            &mut self.pwc,
            pte_cache,
            &mut self.stats,
        )
    }

    /// Whether every paging-structure-cache entry names the table a walk
    /// from `root` reaches, so that every walk translates exactly as a
    /// software lookup of the tables from `root` does
    /// ([`PagingStructureCache::agrees_with`]).
    pub fn agrees_with(&self, store: &PtStore, root: FrameId) -> bool {
        self.pwc.agrees_with(store, root)
    }

    /// The walk counters.
    pub fn stats(&self) -> &WalkStats {
        &self.stats
    }
}

/// A core's memory management unit.
///
/// The MMU owns the core-private structures (TLBs, paging-structure caches,
/// statistics), split into a [`TlbHalf`] and a [`WalkHalf`]; machine-level
/// state (the page tables themselves, per-socket page-table-line caches,
/// the NUMA cost model) is passed in per access.
#[derive(Debug, Clone)]
pub struct Mmu {
    tlbs: TlbHalf,
    walks: WalkHalf,
}

impl Mmu {
    /// Creates the MMU of `core` (which belongs to `socket`), using the
    /// paper-testbed TLB and MMU-cache sizes.
    pub fn new(core: CoreId, socket: SocketId) -> Self {
        Mmu {
            tlbs: TlbHalf {
                core,
                socket,
                asid: 0,
                tlb: TlbHierarchy::paper_testbed(),
                stats: MmuStats::default(),
            },
            walks: WalkHalf {
                socket,
                pwc: PagingStructureCache::paper_testbed(),
                walker: HardwareWalker::new(),
                stats: WalkStats::default(),
            },
        }
    }

    /// The core this MMU belongs to.
    pub fn core(&self) -> CoreId {
        self.tlbs.core
    }

    /// The socket this MMU's core belongs to.
    pub fn socket(&self) -> SocketId {
        self.tlbs.socket
    }

    /// The address-space identifier currently loaded on this core.
    pub fn asid(&self) -> u16 {
        self.tlbs.asid
    }

    /// Loads `asid` without flushing (a PCID-tagged CR3 write): TLB entries
    /// of other address spaces stay resident but cannot hit.
    pub fn set_asid(&mut self, asid: u16) {
        self.tlbs.asid = asid;
    }

    /// Translates one access to `addr` using the page table rooted at `root`
    /// (the CR3 value currently loaded on this core): the TLB half's probe,
    /// then on a miss the walk half's walk and the TLB half's fill.
    ///
    /// `pte_cache` must be the cache of **this core's socket**.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        addr: VirtAddr,
        is_write: bool,
        root: FrameId,
        store: &PtStore,
        space: &FrameSpace,
        cost: &CostModel,
        pte_cache: &mut PteCache,
    ) -> AccessOutcome {
        if let Some(hit) = self.tlbs.probe(addr, is_write) {
            return AccessOutcome {
                frame: Some(hit.frame),
                translation_cycles: hit.penalty,
                tlb_hit: Some(hit.level),
                page_size: Some(hit.size),
                fault: false,
            };
        }
        let walk = self
            .walks
            .walk(addr, is_write, root, store, space, cost, pte_cache);
        let Some(translation) = walk.translation else {
            return AccessOutcome {
                frame: None,
                translation_cycles: walk.cycles,
                tlb_hit: None,
                page_size: None,
                fault: true,
            };
        };
        self.tlbs.fill(addr, &translation);
        AccessOutcome {
            frame: Some(translation.frame_for(addr)),
            translation_cycles: walk.cycles,
            tlb_hit: None,
            page_size: Some(translation.size),
            fault: false,
        }
    }

    /// Splits the MMU into its two halves, so each can run on its own host
    /// thread; [`Mmu::from_halves`] puts them back together.
    pub fn into_halves(self) -> (TlbHalf, WalkHalf) {
        (self.tlbs, self.walks)
    }

    /// Reassembles an MMU from the halves [`Mmu::into_halves`] split off.
    pub fn from_halves(tlbs: TlbHalf, walks: WalkHalf) -> Self {
        debug_assert_eq!(tlbs.socket, walks.socket, "halves of one MMU");
        Mmu { tlbs, walks }
    }

    /// The walk half (see [`WalkHalf::agrees_with`]).
    pub fn walks(&self) -> &WalkHalf {
        &self.walks
    }

    /// Models a context switch (CR3 write): flushes the TLBs and
    /// paging-structure caches.
    pub fn context_switch(&mut self) {
        self.tlbs.tlb.flush();
        self.walks.pwc.flush();
    }

    /// Prepares a pooled MMU for a fresh run: flushes every cached
    /// translation and zeroes the statistics.
    ///
    /// A reset MMU is behaviourally indistinguishable from a newly
    /// constructed one (flushed TLBs probe and evict identically to empty
    /// ones), so the execution engine can reuse MMUs across runs instead of
    /// reallocating the TLB arrays each time — the win is per-run setup
    /// cost for short traces.
    pub fn reset_for_run(&mut self) {
        self.context_switch();
        self.reset_stats();
    }

    /// Models a broadcast full-flush shootdown.
    pub fn shootdown_all(&mut self) {
        self.context_switch();
    }

    /// Applies a ranged shootdown plan to this core alone:
    /// [`Mmu::apply_view`] of a view of `plan` made for this call.  To
    /// deliver one plan to several cores, make one [`PlanView`] that owns
    /// it and apply that to each, so a large plan is coalesced once, in
    /// place.
    pub fn apply_shootdown(&mut self, plan: &ShootdownPlan) -> u64 {
        self.apply_view(&PlanView::from(plan))
    }

    /// Applies a ranged shootdown plan to this core: invalidates the named
    /// page ranges from the TLBs and evicts the covered paging-structure
    /// cache entries.  A plan escalated to `full_flush` flushes everything.
    ///
    /// The plan's size and each structure's geometry pick how: a TLB of at
    /// least as many sets as the plan has ranges, and paging-structure
    /// caches of at least as many slots, go range by range (a range
    /// inside one 2 MiB region, like every copy-on-write break's, is one
    /// key lookup per cache level); a larger plan visits each TLB set and
    /// each cached entry once and looks it up, by binary search, in the
    /// plan's coalesced ranges.  Both remove exactly the entries one
    /// `invalidate_range` per range of the plan removes.
    ///
    /// Returns the number of TLB entries actually invalidated (for a full
    /// flush, the resident count before flushing) — the per-core modelled
    /// shootdown work.
    pub fn apply_view(&mut self, plan: &PlanView<'_>) -> u64 {
        if plan.plan().full_flush {
            let resident = self.tlbs.tlb.occupancy() as u64;
            #[expect(clippy::disallowed_methods, reason = "applying a full-flush plan")]
            self.shootdown_all();
            return resident;
        }
        self.walks.pwc.invalidate_plan(plan);
        self.tlbs.tlb.invalidate_plan(plan) as u64
    }

    /// Accumulated statistics: the TLB half's counters joined with the walk
    /// half's.
    pub fn stats(&self) -> MmuStats {
        self.tlbs.stats.joined(&self.walks.stats)
    }

    /// Resets the statistics.
    pub fn reset_stats(&mut self) {
        self.tlbs.stats = MmuStats::default();
        self.walks.stats = WalkStats::default();
    }

    /// The TLB hierarchy (for tests and reach calculations).
    pub fn tlb(&self) -> &TlbHierarchy {
        &self.tlbs.tlb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_mem::FrameSpace;
    use mitosis_pt::{Level, Pte, PteFlags};

    fn build() -> (PtStore, FrameSpace, FrameId, VirtAddr) {
        let space = FrameSpace::with_frames_per_socket(2, 10_000);
        let mut store = PtStore::new();
        let (root, l3, l2, l1) = (
            FrameId::new(0),
            FrameId::new(1),
            FrameId::new(2),
            FrameId::new(3),
        );
        for frame in [root, l3, l2, l1] {
            store.insert_table(frame, None);
        }
        let data = FrameId::new(600);
        let addr = VirtAddr::new(0x7f00_0000_0000 & ((1 << 48) - 1));
        let addr = VirtAddr::new(addr.as_u64() % (1 << 47));
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
    fn first_access_walks_second_hits_tlb() {
        let (store, space, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        let first = mmu.access(addr, false, root, &store, &space, &cost(), &mut pte_cache);
        assert!(first.tlb_hit.is_none());
        assert!(!first.fault);
        assert_eq!(first.frame, Some(FrameId::new(600)));
        assert!(first.translation_cycles > 0);

        let second = mmu.access(addr, false, root, &store, &space, &cost(), &mut pte_cache);
        assert_eq!(second.tlb_hit, Some(TlbLevel::L1));
        assert_eq!(second.translation_cycles, 0);
        assert_eq!(mmu.stats().tlb_misses, 1);
        assert_eq!(mmu.stats().tlb_l1_hits, 1);
        assert_eq!(mmu.stats().accesses, 2);
    }

    #[test]
    fn context_switch_flushes_translations() {
        let (store, space, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        mmu.access(addr, false, root, &store, &space, &cost(), &mut pte_cache);
        mmu.context_switch();
        let after = mmu.access(addr, false, root, &store, &space, &cost(), &mut pte_cache);
        assert!(after.tlb_hit.is_none());
        assert_eq!(mmu.stats().tlb_misses, 2);
    }

    #[test]
    fn ranged_shootdown_plan_invalidates_cached_translations() {
        let (store, space, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        mmu.access(addr, false, root, &store, &space, &cost(), &mut pte_cache);
        let mut tx = mitosis_pt::MappingTx::new();
        tx.invalidate_page(0, addr, PageSize::Base4K);
        // Resident in L1 and L2 → two entries of modelled work.
        assert_eq!(mmu.apply_shootdown(&tx.take_plan()), 2);
        let after = mmu.access(addr, false, root, &store, &space, &cost(), &mut pte_cache);
        assert!(after.tlb_hit.is_none());
        // A full-flush plan reports the resident count it wiped.
        tx.escalate_full();
        assert_eq!(mmu.apply_shootdown(&tx.take_plan()), 2);
        assert_eq!(mmu.tlb().occupancy(), 0);
    }

    #[test]
    fn asids_partition_the_tlb_between_address_spaces() {
        let (store, space, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        mmu.access(addr, false, root, &store, &space, &cost(), &mut pte_cache);
        // Switching ASID without flushing: the other space cannot hit.
        mmu.set_asid(7);
        assert_eq!(mmu.asid(), 7);
        let other = mmu.access(addr, false, root, &store, &space, &cost(), &mut pte_cache);
        assert!(other.tlb_hit.is_none());
        // Switching back: the original entry is still resident.
        mmu.set_asid(0);
        let back = mmu.access(addr, false, root, &store, &space, &cost(), &mut pte_cache);
        assert!(back.tlb_hit.is_some());
    }

    #[test]
    fn unmapped_access_faults() {
        let (store, space, root, _) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        let outcome = mmu.access(
            VirtAddr::new(0x1000),
            false,
            root,
            &store,
            &space,
            &cost(),
            &mut pte_cache,
        );
        assert!(outcome.fault);
        assert_eq!(outcome.frame, None);
        assert_eq!(mmu.stats().walk.faults, 1);
    }

    #[test]
    fn stats_reset_clears_counters() {
        let (store, space, root, addr) = build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut pte_cache = PteCache::new(1024);
        mmu.access(addr, true, root, &store, &space, &cost(), &mut pte_cache);
        assert!(mmu.stats().accesses > 0);
        mmu.reset_stats();
        assert_eq!(mmu.stats().accesses, 0);
        assert_eq!(mmu.stats().walk.walks, 0);
    }
}
