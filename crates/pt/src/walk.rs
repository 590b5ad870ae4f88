//! Software page-table walks (reads only).
//!
//! These helpers walk a page-table radix tree directly through the
//! [`PtStore`], the way the OS inspects its own page tables (the hardware
//! walker with its cost model lives in `mitosis-mmu`).

use crate::addr::{Level, PageSize, VirtAddr};
use crate::entry::Pte;
use crate::store::{set_bits, MaskWord, PtStore, OCC_WORDS};
use mitosis_mem::FrameId;

/// Result of translating a virtual address in software.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// First frame of the mapped page.
    pub frame: FrameId,
    /// Size of the mapping.
    pub size: PageSize,
    /// The leaf entry that produced the translation.
    pub pte: Pte,
    /// Level at which the leaf entry was found.
    pub level: Level,
}

impl Translation {
    /// Returns the exact 4 KiB frame backing `addr` (for huge pages this is
    /// an offset into the contiguous run).
    pub fn frame_for(&self, addr: VirtAddr) -> FrameId {
        let offset_frames = addr.page_offset(self.size) / PageSize::Base4K.bytes();
        self.frame.offset(offset_frames)
    }
}

/// One leaf mapping enumerated from a page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafMapping {
    /// First virtual address of the mapping.
    pub addr: VirtAddr,
    /// First frame of the mapping.
    pub frame: FrameId,
    /// Size of the mapping.
    pub size: PageSize,
    /// The leaf entry.
    pub pte: Pte,
}

/// Translates `addr` by walking the radix tree rooted at `root`.
///
/// Returns `None` if the address is unmapped.
pub fn translate(store: &PtStore, root: FrameId, addr: VirtAddr) -> Option<Translation> {
    translate_entry(store, root, addr).map(|(_, translation)| translation)
}

/// [`translate`], also returning the page-table page holding the leaf
/// entry (at index `addr.index_at(translation.level)`), so a caller that
/// rewrites the entry need not walk again.
pub fn translate_entry(
    store: &PtStore,
    root: FrameId,
    addr: VirtAddr,
) -> Option<(FrameId, Translation)> {
    let mut table = root;
    for level in Level::WALK_ORDER {
        let pte = store.read_at(store.slot(table), addr.index_at(level));
        if !pte.is_present() {
            return None;
        }
        let is_leaf = level == Level::L1 || pte.is_huge();
        if is_leaf {
            let size = match level {
                Level::L1 => PageSize::Base4K,
                Level::L2 => PageSize::Huge2M,
                Level::L3 => PageSize::Giant1G,
                Level::L4 => return None,
            };
            return Some((
                table,
                Translation {
                    frame: pte.frame().expect("present leaf entry has a frame"),
                    size,
                    pte,
                    level,
                },
            ));
        }
        table = pte.frame().expect("present table entry has a frame");
    }
    None
}

/// Returns the page-table page at `level` on the path to `addr` in the tree
/// rooted at `root`, or `None` if an entry above that level is absent or
/// maps a large page.
pub fn table_at(store: &PtStore, root: FrameId, addr: VirtAddr, level: Level) -> Option<FrameId> {
    let mut table = root;
    for upper in Level::WALK_ORDER {
        if upper == level {
            return Some(table);
        }
        let pte = store.read_at(store.slot(table), addr.index_at(upper));
        if !pte.is_present() || pte.is_huge() {
            return None;
        }
        table = pte.frame()?;
    }
    None
}

/// Enumerates every leaf mapping reachable from `root`, in address order.
pub fn iter_leaf_mappings(store: &PtStore, root: FrameId) -> Vec<LeafMapping> {
    let mut out = Vec::new();
    collect_leaves(store, root, Level::L4, 0, &mut out);
    out
}

fn collect_leaves(
    store: &PtStore,
    table: FrameId,
    level: Level,
    base: u64,
    out: &mut Vec<LeafMapping>,
) {
    // The occupancy bitmap yields present entries directly; sparse tables
    // (the common case above the leaf level) cost popcounts, not 512 reads.
    for (index, pte) in store.present_at(store.slot(table)) {
        let entry_base = base + (index as u64) * level.entry_coverage();
        let is_leaf = level == Level::L1 || pte.is_huge();
        if is_leaf {
            let size = match level {
                Level::L1 => PageSize::Base4K,
                Level::L2 => PageSize::Huge2M,
                Level::L3 => PageSize::Giant1G,
                Level::L4 => continue,
            };
            out.push(LeafMapping {
                addr: VirtAddr::new(entry_base),
                frame: pte.frame().expect("present leaf entry has a frame"),
                size,
                pte,
            });
        } else if let Some(next) = level.next_lower() {
            let child = pte.frame().expect("present table entry has a frame");
            collect_leaves(store, child, next, entry_base, out);
        }
    }
}

/// Calls `visit` with every page-table page reachable from `root` and its
/// level, parents before children.  The walk reads no entry of a leaf (L1)
/// table, so counting tables costs a scan of the upper levels only.
pub fn for_each_table(store: &PtStore, root: FrameId, mut visit: impl FnMut(FrameId, Level)) {
    visit_tables(store, root, Level::L4, &mut visit);
}

fn visit_tables(
    store: &PtStore,
    table: FrameId,
    level: Level,
    visit: &mut impl FnMut(FrameId, Level),
) {
    visit(table, level);
    let Some(lower) = level.next_lower() else {
        return;
    };
    for (_, pte) in store.present_at(store.slot(table)) {
        if !pte.is_huge() {
            let child = pte.frame().expect("present table entry has a frame");
            visit_tables(store, child, lower, visit);
        }
    }
}

/// The first page of a range that a hardware walk could fault on, as
/// [`check_writable_range`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeGap {
    /// The walk for `addr` meets a non-present entry (or a page-table page
    /// the store does not hold).
    NotPresent(VirtAddr),
    /// `addr` is mapped, but by a read-only leaf: a store to it faults.
    NotWritable(VirtAddr),
}

/// Proves that every page of the `len` bytes from `start` translates, in
/// the tree rooted at `root`, through a present and writable leaf — so no
/// read or write inside the range can fault — or returns the lowest page
/// that could.
///
/// The proof works table by table from the store's entry bitmaps: a leaf
/// table is checked with a few word operations over its present and
/// writable bitmaps, never entry by entry, and the only entries read are
/// the table pointers the proof descends through.  An empty range holds
/// trivially; a range reaching past the 48-bit address space (where a
/// hardware index wraps around) is never proven, and reports its start.
pub fn check_writable_range(
    store: &PtStore,
    root: FrameId,
    start: VirtAddr,
    len: u64,
) -> Result<(), RangeGap> {
    if len == 0 {
        return Ok(());
    }
    let limit = Level::L4.entry_coverage() * crate::addr::ENTRIES_PER_TABLE as u64;
    let end = start.as_u64().saturating_add(len);
    if end > limit {
        return Err(RangeGap::NotPresent(start));
    }
    check_table(store, root, Level::L4, 0, start.as_u64(), end)
}

/// [`check_writable_range`] for the part `[start, end)` of the table at
/// `level` whose first entry maps `base`.
fn check_table(
    store: &PtStore,
    table: FrameId,
    level: Level,
    base: u64,
    start: u64,
    end: u64,
) -> Result<(), RangeGap> {
    let Some(slot) = store.slot_of(table) else {
        return Err(RangeGap::NotPresent(VirtAddr::new(start)));
    };
    let span = level.entry_coverage();
    let first = ((start - base) / span) as usize;
    let last = ((end - 1 - base) / span) as usize;
    let masks = store.masks_at(slot);
    // The lowest entry in range that faults: absent, a read-only leaf, or
    // a huge bit at the root (architecturally invalid).
    let mut gap = None;
    let mut descend = [0u64; OCC_WORDS];
    let words = descend.iter_mut().enumerate();
    for (word, descend) in words.take(last / 64 + 1).skip(first / 64) {
        let lo = if word == first / 64 { first % 64 } else { 0 };
        let hi = if word == last / 64 { last % 64 } else { 63 };
        let in_range = (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
        let MaskWord {
            present,
            writable,
            huge,
        } = masks[word];
        let leaves = match level {
            Level::L1 => present,
            _ => huge,
        };
        let missing = !present | if level == Level::L4 { leaves } else { 0 };
        let readonly = leaves & !writable;
        let faults = (missing | readonly) & in_range;
        if level != Level::L1 {
            *descend = present & !leaves & in_range;
        }
        if faults != 0 {
            let index = word * 64 + faults.trailing_zeros() as usize;
            let bit = 1u64 << (index % 64);
            let addr = VirtAddr::new((base + index as u64 * span).max(start));
            gap = Some(if missing & bit != 0 {
                RangeGap::NotPresent(addr)
            } else {
                RangeGap::NotWritable(addr)
            });
            // Children past the gap cannot hold a lower one.
            *descend &= bit - 1;
            break;
        }
    }
    if let Some(lower) = level.next_lower() {
        for index in set_bits(descend) {
            let entry_base = base + index as u64 * span;
            let child = store
                .read_at(slot, index)
                .frame()
                .expect("present table entry has a frame");
            check_table(
                store,
                child,
                lower,
                entry_base,
                start.max(entry_base),
                end.min(entry_base + span),
            )?;
        }
    }
    gap.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::PteFlags;

    /// Builds a tiny page table by hand:
    /// root(L4)@0 -> L3@1 -> L2@2 -> L1@3 -> data@100 at VA 0x4000_0000,
    /// plus a 2 MiB mapping at VA 0x4020_0000 -> data@512.
    fn build() -> (PtStore, FrameId) {
        let mut store = PtStore::new();
        let root = FrameId::new(0);
        for pfn in 0..4 {
            store.insert_table(FrameId::new(pfn), None);
        }
        let va = VirtAddr::new(0x4000_0000);
        store.write(
            root,
            va.index_at(Level::L4),
            Pte::new(FrameId::new(1), PteFlags::table_pointer()),
        );
        store.write(
            FrameId::new(1),
            va.index_at(Level::L3),
            Pte::new(FrameId::new(2), PteFlags::table_pointer()),
        );
        store.write(
            FrameId::new(2),
            va.index_at(Level::L2),
            Pte::new(FrameId::new(3), PteFlags::table_pointer()),
        );
        store.write(
            FrameId::new(3),
            va.index_at(Level::L1),
            Pte::new(FrameId::new(100), PteFlags::user_data()),
        );
        let huge_va = VirtAddr::new(0x4020_0000);
        store.write(
            FrameId::new(2),
            huge_va.index_at(Level::L2),
            Pte::new(FrameId::new(512), PteFlags::user_data().huge_page()),
        );
        (store, root)
    }

    #[test]
    fn translate_base_page() {
        let (store, root) = build();
        let t = translate(&store, root, VirtAddr::new(0x4000_0000)).unwrap();
        assert_eq!(t.frame, FrameId::new(100));
        assert_eq!(t.size, PageSize::Base4K);
        assert_eq!(t.level, Level::L1);
        assert_eq!(t.frame_for(VirtAddr::new(0x4000_0123)), FrameId::new(100));
    }

    #[test]
    fn translate_huge_page_and_offsets() {
        let (store, root) = build();
        let t = translate(&store, root, VirtAddr::new(0x4020_0000)).unwrap();
        assert_eq!(t.size, PageSize::Huge2M);
        assert_eq!(t.level, Level::L2);
        // 0x4020_0000 + 3 * 4 KiB lands three frames into the huge page.
        assert_eq!(
            t.frame_for(VirtAddr::new(0x4020_3000)),
            FrameId::new(512 + 3)
        );
    }

    #[test]
    fn translate_unmapped_returns_none() {
        let (store, root) = build();
        assert!(translate(&store, root, VirtAddr::new(0x1000)).is_none());
        assert!(translate(&store, root, VirtAddr::new(0x4000_2000)).is_none());
    }

    #[test]
    fn table_at_stops_at_the_requested_level() {
        let (store, root) = build();
        let va = VirtAddr::new(0x4000_0000);
        assert_eq!(table_at(&store, root, va, Level::L4), Some(root));
        assert_eq!(table_at(&store, root, va, Level::L1), Some(FrameId::new(3)));
        // Under the 2 MiB leaf there is no L1 table; in the next 512 GiB
        // slot there is no L3 table.
        assert_eq!(
            table_at(&store, root, VirtAddr::new(0x4020_0000), Level::L1),
            None
        );
        assert_eq!(
            table_at(&store, root, VirtAddr::new(0x80_0000_0000), Level::L3),
            None
        );
    }

    #[test]
    fn writable_ranges_are_proven_from_the_bitmaps() {
        let (mut store, root) = build();
        let check = |store: &PtStore, start: u64, len: u64| {
            check_writable_range(store, root, VirtAddr::new(start), len)
        };
        let gap = |addr: u64| Err(RangeGap::NotPresent(VirtAddr::new(addr)));
        assert_eq!(check(&store, 0x4000_0000, 4096), Ok(()));
        assert_eq!(check(&store, 0x4000_0ff8, 8), Ok(()));
        assert_eq!(check(&store, 0x4000_0000, 0), Ok(()));
        assert_eq!(check(&store, 0x4000_0000, 8192), gap(0x4000_1000));
        // The 2 MiB leaf is proven whole and in part.
        assert_eq!(check(&store, 0x4020_0000, 2 << 20), Ok(()));
        assert_eq!(check(&store, 0x4020_5000, 100), Ok(()));
        // The lowest gap wins: the hole after the 4 KiB page comes before
        // the unmapped 2 MiB slot after the huge page.
        assert_eq!(check(&store, 0x4000_0000, 6 << 20), gap(0x4000_1000));
        assert_eq!(check(&store, 0x4020_0000, 4 << 20), gap(0x4040_0000));
        assert_eq!(check(&store, 0x80_0000_0000, 4096), gap(0x80_0000_0000));
        assert_eq!(
            check(&store, 0xffff_ffff_f000, 1 << 20),
            gap(0xffff_ffff_f000)
        );

        // Read-only leaves fault on stores, at either size.
        let huge_index = VirtAddr::new(0x4020_0000).index_at(Level::L2);
        let huge = store.read(FrameId::new(2), huge_index);
        store.write(
            FrameId::new(2),
            huge_index,
            huge.with_flags(PteFlags::user_readonly().huge_page()),
        );
        let readonly = |addr: u64| Err(RangeGap::NotWritable(VirtAddr::new(addr)));
        assert_eq!(check(&store, 0x4020_3000, 4096), readonly(0x4020_3000));
        let leaf_index = VirtAddr::new(0x4000_0000).index_at(Level::L1);
        let leaf = store.read(FrameId::new(3), leaf_index);
        store.write(
            FrameId::new(3),
            leaf_index,
            leaf.with_flags(PteFlags::user_readonly()),
        );
        assert_eq!(check(&store, 0x4000_0000, 8), readonly(0x4000_0000));
    }

    #[test]
    fn for_each_table_visits_every_table_once() {
        let (store, root) = build();
        let mut seen = Vec::new();
        for_each_table(&store, root, |table, level| seen.push((table.pfn(), level)));
        assert_eq!(
            seen,
            vec![
                (0, Level::L4),
                (1, Level::L3),
                (2, Level::L2),
                (3, Level::L1)
            ]
        );
    }

    #[test]
    fn iter_leaf_mappings_enumerates_both_sizes_in_order() {
        let (store, root) = build();
        let leaves = iter_leaf_mappings(&store, root);
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].addr, VirtAddr::new(0x4000_0000));
        assert_eq!(leaves[0].size, PageSize::Base4K);
        assert_eq!(leaves[1].addr, VirtAddr::new(0x4020_0000));
        assert_eq!(leaves[1].size, PageSize::Huge2M);
        assert_eq!(leaves[1].frame, FrameId::new(512));
    }
}
