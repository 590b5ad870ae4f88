//! The execution engine's per-access steps: [`step_access`], which the
//! serial and split schedules share, and the pipelined schedule's
//! [`tlb_step`] and [`walk_step`], with the state they read and write.
//! Both proven schedules read each block of accesses' leaf entries ahead
//! of stepping it through [`LeafTables::touch`].
//!
//! They live in this crate so that no simulated access can reach an
//! observer: `mitosis-obs` declares a dependency on `mitosis-mmu`, so
//! nothing here can name it, and the observer's non-perturbation stays a
//! fact of the dependency graph.  The engine observes around segments and
//! after a run, outside these functions.

use crate::mmu::{Mmu, TlbHalf, WalkHalf};
use crate::pte_cache::PteCache;
use mitosis_mem::{FrameId, FrameSpace};
use mitosis_numa::{CostModel, Cycles};
use mitosis_pt::{translate_entry, Level, PageSize, PtSlot, PtStore, Translation, VirtAddr};
use std::sync::Arc;

/// One thread's cycle and fault accumulators, carried across run segments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ThreadTotals {
    /// Compute cycles charged per access.
    pub compute: Cycles,
    /// Data-access cycles.
    pub data: Cycles,
    /// Address-translation cycles: TLB penalties plus page walks.
    pub translation: Cycles,
    /// Demand faults the thread took.
    pub demand_faults: u64,
}

/// One thread's translation view, fixed until the thread's next boundary:
/// the cost-model view an interference toggle rewrites, the
/// per-target-socket data-cost table derived from it, and the CR3 that
/// replica add/drop or page-table migration retargets.  Threads refreshing
/// at the same segment start share one cost-model clone behind the `Arc`.
#[derive(Debug, Clone)]
pub struct ThreadPhase {
    /// The cost model the thread's walks are charged with.
    pub cost: Arc<CostModel>,
    /// Cycles of one data access from the thread's socket, indexed by the
    /// socket holding the data.
    pub data_cost: Vec<Cycles>,
    /// The page-table root the thread loads.
    pub cr3: FrameId,
}

/// What every access of a run reads and none writes, beyond the tables.
#[derive(Clone, Copy)]
pub struct AccessCtx<'a> {
    /// Virtual address of the start of the accessed region.
    pub region: u64,
    /// Compute cycles charged per access.
    pub compute_cycles: Cycles,
    /// Which socket each frame, data or page table, belongs to.
    pub frame_space: &'a FrameSpace,
}

impl AccessCtx<'_> {
    /// The address an access at `offset` touches: accesses are 8-byte word
    /// granular within the region.
    #[inline(always)]
    pub fn addr(&self, offset: u64) -> VirtAddr {
        VirtAddr::new(self.region + (offset & !0x7))
    }
}

/// Translates one access of a thread through [`Mmu::access`], charging its
/// compute and translation cycles, and on success its data access.  A
/// fault returns the faulting address with no data charged: the engine's
/// serial path handles it (demand paging, copy-on-write) and retries, a
/// split socket group reports it as an error.
#[expect(clippy::too_many_arguments, reason = "callers borrow these separately")]
#[inline(always)]
pub fn step_access(
    offset: u64,
    is_write: bool,
    mmu: &mut Mmu,
    totals: &mut ThreadTotals,
    pte_cache: &mut PteCache,
    phase: &ThreadPhase,
    store: &PtStore,
    ctx: AccessCtx<'_>,
) -> Result<(), VirtAddr> {
    let addr = ctx.addr(offset);
    totals.compute += ctx.compute_cycles;
    let outcome = mmu.access(
        addr,
        is_write,
        phase.cr3,
        store,
        ctx.frame_space,
        &phase.cost,
        pte_cache,
    );
    totals.translation += outcome.translation_cycles;
    if outcome.fault {
        return Err(addr);
    }
    let frame = outcome.frame.expect("non-faulting access yields a frame");
    totals.data += phase.data_cost[ctx.frame_space.socket_of(frame).index()];
    Ok(())
}

/// A TLB miss as the pipelined schedule's walk stage receives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Miss {
    addr: VirtAddr,
    is_write: bool,
    /// The translation the TLB stage filled, from the leaf entry it read
    /// and marked accessed (and dirty, for a store).
    leaf: Translation,
}

/// Where a 2 MiB region's leaf entries live, as [`LeafTables`] remembers it.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    slot: PtSlot,
    level: Level,
    size: PageSize,
}

/// A proven segment's page-table lookups.  A proven segment's tables stay
/// fixed, so the table holding each 2 MiB region's leaf entries is found
/// by one full lookup and remembered for the rest of the segment; later
/// lookups in the region read one entry.
///
/// The pipelined TLB stage fills its TLBs from a lookup that also sets the
/// entry's accessed/dirty bits while its cache line is at hand, so the walk
/// stage need not touch the leaf at all.  Both proven schedules read ahead
/// with [`LeafTables::touch`], which writes nothing.
pub struct LeafTables<'a> {
    store: &'a PtStore,
    /// The CR3 the remembered tables hang off.
    root: Option<FrameId>,
    /// Index of the first remembered 2 MiB region of the address space.
    first: u64,
    leaves: Vec<Option<Leaf>>,
}

impl<'a> LeafTables<'a> {
    /// Lookups that remember the regions of `[region, region + bound)`.
    pub fn new(store: &'a PtStore, region: VirtAddr, bound: u64) -> Self {
        let shift = Level::L2.index_shift();
        let first = region.as_u64() >> shift;
        let last = (region.as_u64() + bound.max(1) - 1) >> shift;
        LeafTables {
            store,
            root: None,
            first,
            leaves: vec![None; (last - first + 1) as usize],
        }
    }

    /// The index in `leaves` of the 2 MiB region holding `addr`, if the
    /// remembered span covers it.
    #[inline(always)]
    fn region_of(&self, addr: VirtAddr) -> Option<usize> {
        let region = (addr.as_u64() >> Level::L2.index_shift()).wrapping_sub(self.first);
        usize::try_from(region)
            .ok()
            .filter(|&index| index < self.leaves.len())
    }

    /// Where the leaf entry of `addr` lives in the tree at `root`, or `None`
    /// where a walk of `addr` from `root` meets a non-present entry first.
    /// Remembered for the regions of the span; a lookup outside it is not.
    #[inline(always)]
    fn leaf_of(&mut self, root: FrameId, addr: VirtAddr) -> Option<Leaf> {
        if self.root != Some(root) {
            self.root = Some(root);
            self.leaves.fill(None);
        }
        let region = self.region_of(addr);
        if let Some(leaf) = region.and_then(|index| self.leaves[index]) {
            return Some(leaf);
        }
        let (table, translation) = translate_entry(self.store, root, addr)?;
        let leaf = Leaf {
            slot: self.store.slot(table),
            level: translation.level,
            size: translation.size,
        };
        if let Some(index) = region {
            self.leaves[index] = Some(leaf);
        }
        Some(leaf)
    }

    /// Reads the leaf entry of `addr` in the tree at `root` and returns its
    /// bits: those of the entry [`translate_entry`] returns, or 0 where
    /// `addr` is unmapped or outside the remembered span.  Writes no entry.
    ///
    /// A proven schedule touches a block of accesses before it steps them,
    /// so that the host's cache misses on their leaf entries overlap.
    #[inline]
    pub fn touch(&mut self, root: FrameId, addr: VirtAddr) -> u64 {
        if self.region_of(addr).is_none() {
            return 0;
        }
        self.leaf_of(root, addr).map_or(0, |leaf| {
            self.store
                .read_at(leaf.slot, addr.index_at(leaf.level))
                .to_bits()
        })
    }

    /// The translation a walk of `addr` from `root` finds, or `None` where
    /// that walk faults: what [`Mmu::access`] fills the TLBs with when the
    /// paging-structure caches agree with the tables.  Like that walk, a
    /// lookup that translates sets the leaf's accessed bit, and for a store
    /// its dirty bit.
    #[inline]
    fn lookup_and_mark(
        &mut self,
        root: FrameId,
        addr: VirtAddr,
        is_write: bool,
    ) -> Option<Translation> {
        let Leaf { slot, level, size } = self.leaf_of(root, addr)?;
        let index = addr.index_at(level);
        let pte = self.store.read_at(slot, index);
        if !pte.is_present() || (is_write && !pte.flags().writable) {
            return None;
        }
        let translation = Translation {
            frame: pte.frame()?,
            size,
            pte,
            level,
        };
        self.store.mark_accessed_at(slot, index, is_write);
        Some(translation)
    }
}

/// The pipelined schedule's per-access step on the TLB stage: charges one
/// access's compute cycles, probes the thread's TLBs, and on a miss fills
/// them from [`LeafTables`] and queues the miss for the walk stage; then
/// charges the data access.  A fault returns the faulting address.
#[expect(clippy::too_many_arguments, reason = "callers borrow these separately")]
#[inline(always)]
pub fn tlb_step(
    offset: u64,
    is_write: bool,
    tlbs: &mut TlbHalf,
    totals: &mut ThreadTotals,
    leaves: &mut LeafTables<'_>,
    phase: &ThreadPhase,
    ctx: AccessCtx<'_>,
    misses: &mut Vec<Miss>,
) -> Result<(), VirtAddr> {
    let addr = ctx.addr(offset);
    totals.compute += ctx.compute_cycles;
    let frame = match tlbs.probe(addr, is_write) {
        Some(hit) => {
            totals.translation += hit.penalty;
            hit.frame
        }
        None => {
            let leaf = leaves
                .lookup_and_mark(phase.cr3, addr, is_write)
                .ok_or(addr)?;
            tlbs.fill(addr, &leaf);
            misses.push(Miss {
                addr,
                is_write,
                leaf,
            });
            leaf.frame_for(addr)
        }
    };
    totals.data += phase.data_cost[ctx.frame_space.socket_of(frame).index()];
    Ok(())
}

/// The pipelined schedule's per-miss step on the walk stage: walks one TLB
/// miss through the thread's paging-structure caches, the socket's
/// page-table-line cache and the cost model, down to the leaf entry the
/// TLB stage already read and marked ([`WalkHalf::walk_known_leaf`]).  The
/// walk's cycles and counters stay in its walk half.
#[inline(always)]
pub fn walk_step(
    miss: Miss,
    walks: &mut WalkHalf,
    pte_cache: &mut PteCache,
    phase: &ThreadPhase,
    store: &PtStore,
    space: &FrameSpace,
) {
    let walk = walks.walk_known_leaf(
        miss.addr,
        miss.is_write,
        &miss.leaf,
        phase.cr3,
        store,
        space,
        &phase.cost,
        pte_cache,
    );
    debug_assert_eq!(walk.translation, Some(miss.leaf), "a proven walk diverged");
}
