//! Paging-structure caches (MMU caches).
//!
//! Modern x86 MMUs cache upper-level page-table entries (PML4E/PDPTE/PDE
//! caches) so that a TLB miss rarely needs all four memory accesses: if the
//! PDE covering the faulting address is cached, only the leaf PTE has to be
//! fetched.  The paper leans on this ("at least leaf-level PTEs have to be
//! accessed", §3.1), so the walker model includes it.

use crate::plan::PlanView;
use mitosis_mem::FrameId;
use mitosis_pt::{table_at, Level, PtStore, VirtAddr};

/// The most entries one level's cache may hold.
const MAX_ENTRIES: usize = 32;

/// The key of an empty slot.  Keys are the bits of a 48-bit virtual
/// address above bit 21 at most, so they fit in 27 bits and no address
/// produces this one.
const EMPTY: u32 = u32::MAX;

/// The rank of an empty slot: behind every resident entry, so re-ranking
/// never moves it.
const UNRANKED: u8 = MAX_ENTRIES as u8;

/// The filter bucket of `key`: its low byte.
#[inline(always)]
fn bucket(key: u32) -> usize {
    (key & 0xff) as usize
}

/// The slots of `lanes` holding `value`, as a bit mask, comparing every
/// slot.
#[inline(always)]
fn matching<T: Copy + PartialEq>(lanes: &[T; MAX_ENTRIES], value: T) -> u32 {
    let mut matches = 0u32;
    for (slot, &held) in lanes.iter().enumerate() {
        matches |= u32::from(held == value) << slot;
    }
    matches
}

/// One exact-LRU cache of upper-level entries, keyed by the virtual-address
/// bits that select the entry: fixed arrays of at most [`MAX_ENTRIES`]
/// entries, each with a recency rank.
///
/// A lookup first asks a 256-bucket count of the resident keys' low bytes,
/// which rejects most misses without a scan; otherwise it compares every
/// slot.  A hit ranks its entry first, and an insert of a new key into a
/// full cache replaces the entry ranked last: the least recently used one,
/// the victim a recency list's tail names.  A hit or an insert moves no
/// entry: it rewrites at most one slot and the 32 rank bytes, and every
/// loop on that path runs over all the slots, with a bound fixed at compile
/// time.
#[derive(Debug, Clone)]
struct LevelCache {
    /// Resident keys in slots `0..len`; the other slots hold [`EMPTY`].
    keys: [u32; MAX_ENTRIES],
    /// The table frame of the key in the same slot.
    frames: [FrameId; MAX_ENTRIES],
    /// Recency rank per slot, 0 for the most recently used: the resident
    /// slots' ranks are a permutation of `0..len`, the others
    /// [`UNRANKED`].
    ranks: [u8; MAX_ENTRIES],
    len: usize,
    capacity: usize,
    /// Resident keys per [`bucket`].
    filter: [u8; 256],
}

impl LevelCache {
    fn new(capacity: usize) -> Self {
        assert!(
            capacity <= MAX_ENTRIES,
            "a paging-structure cache level holds at most 32 entries"
        );
        LevelCache {
            keys: [EMPTY; MAX_ENTRIES],
            frames: [FrameId::new(0); MAX_ENTRIES],
            ranks: [UNRANKED; MAX_ENTRIES],
            len: 0,
            capacity,
            filter: [0; 256],
        }
    }

    /// The slot holding `key`: a key sits in at most one.
    #[inline(always)]
    fn position(&self, key: u32) -> Option<usize> {
        if self.filter[bucket(key)] == 0 {
            return None;
        }
        let matches = matching(&self.keys, key);
        (matches != 0).then(|| matches.trailing_zeros() as usize)
    }

    /// Ranks `slot` first: every entry ranked ahead of it moves back one.
    #[inline(always)]
    fn promote(&mut self, slot: usize) {
        let rank = self.ranks[slot];
        if rank == 0 {
            return;
        }
        for other in &mut self.ranks {
            *other += u8::from(*other < rank);
        }
        self.ranks[slot] = 0;
    }

    #[inline]
    fn lookup(&mut self, key: u32) -> Option<FrameId> {
        let slot = self.position(key)?;
        self.promote(slot);
        Some(self.frames[slot])
    }

    /// Records `key`; a level of no entries records nothing.
    #[inline]
    fn insert(&mut self, key: u32, frame: FrameId) {
        if self.capacity == 0 {
            return;
        }
        let slot = self.position(key).unwrap_or_else(|| self.claim(key));
        self.frames[slot] = frame;
        self.promote(slot);
    }

    /// Puts `key`, which is not resident, in a slot ranked behind every
    /// resident entry: the next empty slot, or in a full cache the slot of
    /// the entry ranked last, which it evicts.
    #[inline(always)]
    fn claim(&mut self, key: u32) -> usize {
        let slot = if self.len == self.capacity {
            let last = matching(&self.ranks, self.len as u8 - 1);
            let slot = last.trailing_zeros() as usize;
            self.filter[bucket(self.keys[slot])] -= 1;
            slot
        } else {
            self.ranks[self.len] = self.len as u8;
            self.len += 1;
            self.len - 1
        };
        self.filter[bucket(key)] += 1;
        self.keys[slot] = key;
        slot
    }

    /// The resident entries, in slot order.
    fn iter(&self) -> impl Iterator<Item = (u32, FrameId)> + '_ {
        self.keys[..self.len]
            .iter()
            .copied()
            .zip(self.frames[..self.len].iter().copied())
    }

    fn flush(&mut self) {
        self.keys = [EMPTY; MAX_ENTRIES];
        self.ranks = [UNRANKED; MAX_ENTRIES];
        self.filter = [0; 256];
        self.len = 0;
    }

    /// Drops every entry whose key falls in `[key_start, key_end]`, keeping
    /// the survivors in recency order.  Returns the number of entries
    /// removed.  A one-key interval — every level of a range inside one
    /// 2 MiB region, such as a copy-on-write break's page — is one lookup,
    /// not a scan of the resident entries.
    fn invalidate_keys(&mut self, key_start: u32, key_end: u32) -> usize {
        if key_start == key_end {
            let Some(slot) = self.position(key_start) else {
                return 0;
            };
            self.remove(slot);
            return 1;
        }
        self.remove_where(|key| (key_start..=key_end).contains(&key))
    }

    /// Drops every entry whose key `dies`, keeping the survivors in recency
    /// order.  Returns the number of entries removed.
    fn remove_where(&mut self, dies: impl Fn(u32) -> bool) -> usize {
        let resident = self.len;
        let mut slot = 0;
        while slot < self.len {
            if dies(self.keys[slot]) {
                self.remove(slot);
            } else {
                slot += 1;
            }
        }
        resident - self.len
    }

    /// Removes the entry in `slot`: every entry ranked behind it moves
    /// forward one, and the last resident slot's entry moves into the hole.
    fn remove(&mut self, slot: usize) {
        let rank = self.ranks[slot];
        for other in &mut self.ranks {
            *other -= u8::from(*other > rank && *other != UNRANKED);
        }
        self.filter[bucket(self.keys[slot])] -= 1;
        self.len -= 1;
        let last = self.len;
        self.keys[slot] = self.keys[last];
        self.frames[slot] = self.frames[last];
        self.ranks[slot] = self.ranks[last];
        self.keys[last] = EMPTY;
        self.ranks[last] = UNRANKED;
    }
}

/// The MMU's caches of upper-level page-table entries.
///
/// * the PDE cache maps bits 47..21 of an address to the L1 page-table page,
/// * the PDPTE cache maps bits 47..30 to the L2 page,
/// * the PML4E cache maps bits 47..39 to the L3 page.
///
/// A hit in a lower cache lets the walker skip more levels.
#[derive(Debug, Clone)]
pub struct PagingStructureCache {
    pde: LevelCache,
    pdpte: LevelCache,
    pml4e: LevelCache,
}

impl PagingStructureCache {
    /// Creates the caches with sizes representative of an Intel MMU
    /// (32 PDE, 16 PDPTE, 16 PML4E entries).
    pub fn paper_testbed() -> Self {
        PagingStructureCache::new(32, 16, 16)
    }

    /// Creates the caches with explicit entry counts.  A level of zero
    /// entries never hits and records nothing.
    ///
    /// # Panics
    ///
    /// Panics if any count is more than 32.
    pub fn new(pde_entries: usize, pdpte_entries: usize, pml4e_entries: usize) -> Self {
        PagingStructureCache {
            pde: LevelCache::new(pde_entries),
            pdpte: LevelCache::new(pdpte_entries),
            pml4e: LevelCache::new(pml4e_entries),
        }
    }

    /// The key of `addr` in the cache of entries read at `level`: the
    /// address bits above that level's index.
    fn key(addr: VirtAddr, level: Level) -> u32 {
        (addr.as_u64() >> level.index_shift()) as u32
    }

    /// Returns the deepest cached starting point for a walk of `addr`:
    /// the level whose *table* the walker must read next, and that table's
    /// frame.  `None` means the walk must start at the root (L4 table).
    ///
    /// The returned level is the level of the table to read: a PDE-cache hit
    /// returns `(Level::L1, l1_table)`, a PDPTE hit `(Level::L2, l2_table)`,
    /// a PML4E hit `(Level::L3, l3_table)`.
    pub fn walk_start(&mut self, addr: VirtAddr) -> Option<(Level, FrameId)> {
        if let Some(frame) = self.pde.lookup(Self::key(addr, Level::L2)) {
            return Some((Level::L1, frame));
        }
        if let Some(frame) = self.pdpte.lookup(Self::key(addr, Level::L3)) {
            return Some((Level::L2, frame));
        }
        if let Some(frame) = self.pml4e.lookup(Self::key(addr, Level::L4)) {
            return Some((Level::L3, frame));
        }
        None
    }

    /// Records that the table read at `level` for `addr` yielded a pointer to
    /// `next_table` (the table of the next lower level), so future walks can
    /// skip to it.
    ///
    /// `level` is the level of the *entry* that was read (L4, L3 or L2);
    /// leaf entries are cached by the TLB, not here.
    pub fn record(&mut self, addr: VirtAddr, level: Level, next_table: FrameId) {
        match level {
            Level::L4 => self.pml4e.insert(Self::key(addr, Level::L4), next_table),
            Level::L3 => self.pdpte.insert(Self::key(addr, Level::L3), next_table),
            Level::L2 => self.pde.insert(Self::key(addr, Level::L2), next_table),
            Level::L1 => {}
        }
    }

    /// Whether every cached entry names the table a walk from `root`
    /// reaches for the addresses it serves.  When they all do, a walk
    /// through these caches reads the same leaf entry as a walk from
    /// `root` alone, so its translation is a pure function of the tables.
    /// An entry left behind by a mutation no shootdown reached (a stale
    /// root, a freed or replaced table) makes this `false`.
    pub fn agrees_with(&self, store: &PtStore, root: FrameId) -> bool {
        let caches = [
            (&self.pml4e, Level::L4),
            (&self.pdpte, Level::L3),
            (&self.pde, Level::L2),
        ];
        store.contains(root)
            && caches.into_iter().all(|(cache, level)| {
                let child = level.next_lower().expect("cached entries sit above L1");
                cache.iter().all(|(key, table)| {
                    let addr = VirtAddr::new(u64::from(key) << level.index_shift());
                    table_at(store, root, addr, child) == Some(table)
                })
            })
    }

    /// Flushes all cached entries (CR3 write / full shootdown).
    pub fn flush(&mut self) {
        self.pde.flush();
        self.pdpte.flush();
        self.pml4e.flush();
    }

    /// Evicts every entry serving addresses in `[va_start, va_end)` — the
    /// targeted paging-structure-cache eviction of a ranged shootdown.  Any
    /// entry whose coverage intersects the range dies; coarser levels drop
    /// at most one entry per 1 GiB / 512 GiB of range.  Returns the number
    /// of entries removed across all three caches.
    pub fn invalidate_range(&mut self, va_start: VirtAddr, va_end: VirtAddr) -> usize {
        if va_end.as_u64() <= va_start.as_u64() {
            return 0;
        }
        let last = VirtAddr::new(va_end.as_u64() - 1);
        let mut removed = 0;
        for level in [Level::L2, Level::L3, Level::L4] {
            let cache = match level {
                Level::L2 => &mut self.pde,
                Level::L3 => &mut self.pdpte,
                _ => &mut self.pml4e,
            };
            removed += cache.invalidate_keys(Self::key(va_start, level), Self::key(last, level));
        }
        removed
    }

    /// Evicts every entry serving an address some range of `plan` covers:
    /// the entries, and the count, of one
    /// [`invalidate_range`](PagingStructureCache::invalidate_range) per
    /// range.  A plan of more ranges than the caches have slots visits each
    /// resident entry once and looks its coverage up in the plan's
    /// coalesced ranges instead.
    pub fn invalidate_plan(&mut self, plan: &PlanView<'_>) -> usize {
        let ranges = plan.ranges();
        let slots = self.pde.capacity + self.pdpte.capacity + self.pml4e.capacity;
        if ranges.len() <= slots {
            return ranges
                .iter()
                .map(|range| self.invalidate_range(range.start(), range.end()))
                .sum();
        }
        // An entry read at `level` serves the addresses its key selects.
        let overlapped = |level: Level| {
            move |key: u32| {
                let first = u64::from(key) << level.index_shift();
                plan.overlaps(first, first + level.entry_coverage())
            }
        };
        self.pde.remove_where(overlapped(Level::L2))
            + self.pdpte.remove_where(overlapped(Level::L3))
            + self.pml4e.remove_where(overlapped(Level::L4))
    }
}

impl Default for PagingStructureCache {
    fn default() -> Self {
        PagingStructureCache::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_starts_walks_at_the_root() {
        let mut pwc = PagingStructureCache::paper_testbed();
        assert_eq!(pwc.walk_start(VirtAddr::new(0x1234_5000)), None);
    }

    #[test]
    fn pde_hit_skips_to_the_leaf_table() {
        let mut pwc = PagingStructureCache::paper_testbed();
        let addr = VirtAddr::new(0x4000_3000);
        pwc.record(addr, Level::L2, FrameId::new(77));
        // A different address under the same 2 MiB region hits too.
        let sibling = VirtAddr::new(0x4000_7000);
        assert_eq!(pwc.walk_start(sibling), Some((Level::L1, FrameId::new(77))));
        // An address in a different 2 MiB region falls back to coarser caches.
        let other = VirtAddr::new(0x4020_0000);
        assert_eq!(pwc.walk_start(other), None);
    }

    #[test]
    fn deeper_caches_take_precedence() {
        let mut pwc = PagingStructureCache::paper_testbed();
        let addr = VirtAddr::new(0x4000_3000);
        pwc.record(addr, Level::L4, FrameId::new(3));
        pwc.record(addr, Level::L3, FrameId::new(2));
        pwc.record(addr, Level::L2, FrameId::new(1));
        assert_eq!(pwc.walk_start(addr), Some((Level::L1, FrameId::new(1))));
        // Same 1 GiB region, different 2 MiB region: PDPTE cache serves it.
        let cousin = VirtAddr::new(0x4060_0000);
        assert_eq!(pwc.walk_start(cousin), Some((Level::L2, FrameId::new(2))));
    }

    #[test]
    fn flush_clears_everything() {
        let mut pwc = PagingStructureCache::paper_testbed();
        let addr = VirtAddr::new(0x8000_0000);
        pwc.record(addr, Level::L2, FrameId::new(9));
        pwc.flush();
        assert_eq!(pwc.walk_start(addr), None);
    }

    #[test]
    fn lru_eviction_bounds_capacity() {
        let mut pwc = PagingStructureCache::new(2, 2, 2);
        for i in 0..4u64 {
            let addr = VirtAddr::new(i << 21);
            pwc.record(addr, Level::L2, FrameId::new(i));
        }
        // The two oldest entries were evicted.
        assert_eq!(pwc.walk_start(VirtAddr::new(0)), None);
        assert!(pwc.walk_start(VirtAddr::new(3 << 21)).is_some());
    }

    #[test]
    fn ranged_eviction_is_targeted() {
        let mut pwc = PagingStructureCache::paper_testbed();
        let inside = VirtAddr::new(0x4000_0000);
        let outside = VirtAddr::new(0x8000_0000);
        pwc.record(inside, Level::L2, FrameId::new(1));
        pwc.record(outside, Level::L2, FrameId::new(2));
        pwc.record(inside, Level::L3, FrameId::new(3));
        // Evict one 2 MiB region: the PDE entry covering it dies, as does
        // the PDPTE entry for its 1 GiB region; the other region survives.
        let removed = pwc.invalidate_range(inside, inside.add(2 * 1024 * 1024));
        assert_eq!(removed, 2);
        assert_eq!(pwc.walk_start(inside), None);
        assert!(pwc.walk_start(outside).is_some());
        // An empty range removes nothing.
        assert_eq!(pwc.invalidate_range(outside, outside), 0);
    }

    #[test]
    fn a_zero_entry_level_never_hits() {
        let mut pwc = PagingStructureCache::new(0, 2, 2);
        let addr = VirtAddr::new(0x4000_3000);
        pwc.record(addr, Level::L2, FrameId::new(1));
        pwc.record(addr, Level::L3, FrameId::new(2));
        // The PDE level keeps nothing; the PDPTE level still serves.
        assert_eq!(pwc.walk_start(addr), Some((Level::L2, FrameId::new(2))));
        assert_eq!(pwc.invalidate_range(addr, addr.add(1 << 30)), 1);
        assert_eq!(pwc.walk_start(addr), None);
        let mut none = PagingStructureCache::new(0, 0, 0);
        for level in [Level::L4, Level::L3, Level::L2] {
            none.record(addr, level, FrameId::new(3));
        }
        assert_eq!(none.walk_start(addr), None);
    }

    #[test]
    #[should_panic(expected = "at most 32 entries")]
    fn more_than_32_entries_per_level_panics() {
        let _ = PagingStructureCache::new(32, 33, 16);
    }

    #[test]
    fn leaf_level_record_is_ignored() {
        let mut pwc = PagingStructureCache::paper_testbed();
        pwc.record(VirtAddr::new(0x1000), Level::L1, FrameId::new(5));
        assert_eq!(pwc.walk_start(VirtAddr::new(0x1000)), None);
    }
}
