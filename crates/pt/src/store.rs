//! Backing storage for page-table pages.
//!
//! The simulator does not materialise the contents of data pages (only their
//! placement matters), but page-table pages have semantic content: 512
//! entries each.  [`PtStore`] is the "physical memory" that holds them,
//! indexed by the frame the table lives in.
//!
//! # Layout
//!
//! `PtStore::read` sits on the innermost loop of the simulator — the
//! hardware walker calls it once per level for every TLB miss, millions of
//! times per experiment — so the store avoids hashing entirely:
//!
//! * table contents live in a **slab** of [`TableSlot`]s (stable indices,
//!   freed slots recycled through a free list, the 4 KiB entry boxes reused
//!   across table lifetimes);
//! * a **two-level radix directory** maps a frame number to its slot in two
//!   array dereferences: `dir[pfn >> 12][pfn & 0xfff]`;
//! * each slot carries a 512-bit **occupancy bitmap** mirroring which
//!   entries are present, so enumerating or counting present entries
//!   (replication, OR-consolidation, page-table dumps) is popcount-driven
//!   and allocation-free instead of a 512-entry scan.
//!
//! Callers that access the same table repeatedly can resolve the frame to a
//! [`PtSlot`] handle once and use the `*_at` accessors, skipping the
//! directory on subsequent accesses.

use crate::addr::ENTRIES_PER_TABLE;
use crate::entry::Pte;
use mitosis_mem::FrameId;

/// Number of directory entries per second-level chunk (covers 4096 frames,
/// i.e. 16 MiB of physical memory per chunk).
const DIR_FANOUT: usize = 1 << DIR_SHIFT;
const DIR_SHIFT: u32 = 12;

/// Sentinel directory entry: this frame holds no page-table page.
const NO_SLOT: u32 = u32::MAX;

/// Sentinel owner for recycled slots.
const FREE_PFN: u64 = u64::MAX;

/// Number of 64-bit words in a 512-bit occupancy bitmap.
const OCC_WORDS: usize = ENTRIES_PER_TABLE / 64;

/// A resolved handle to one stored page-table page.
///
/// Obtained from [`PtStore::slot`] / [`PtStore::slot_of`]; valid until the
/// table is removed from the store.  Using a stale handle reads whatever
/// table was recycled into the slot — handles are a hot-path optimisation,
/// not a stability guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtSlot(u32);

/// One stored page-table page: 512 entries plus their occupancy bitmap.
#[derive(Debug, Clone)]
struct TableSlot {
    /// Frame number owning this slot, or [`FREE_PFN`] for recycled slots.
    pfn: u64,
    entries: Box<[Pte; ENTRIES_PER_TABLE]>,
    occupancy: [u64; OCC_WORDS],
}

impl TableSlot {
    fn clear(&mut self) {
        self.entries.fill(Pte::EMPTY);
        self.occupancy = [0; OCC_WORDS];
    }
}

/// Storage for the contents of every allocated page-table page.
///
/// # Example
///
/// ```
/// use mitosis_mem::FrameId;
/// use mitosis_pt::{Pte, PteFlags, PtStore};
///
/// let mut store = PtStore::new();
/// store.insert_table(FrameId::new(100));
/// store.write(FrameId::new(100), 3, Pte::new(FrameId::new(7), PteFlags::user_data()));
/// assert!(store.read(FrameId::new(100), 3).is_present());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PtStore {
    slots: Vec<TableSlot>,
    free: Vec<u32>,
    dir: Vec<Option<Box<[u32; DIR_FANOUT]>>>,
    live: usize,
}

impl PtStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PtStore::default()
    }

    #[inline]
    fn slot_index(&self, pfn: u64) -> u32 {
        match self.dir.get((pfn >> DIR_SHIFT) as usize) {
            Some(Some(chunk)) => chunk[pfn as usize & (DIR_FANOUT - 1)],
            _ => NO_SLOT,
        }
    }

    #[inline]
    fn resolve(&self, frame: FrameId) -> u32 {
        let slot = self.slot_index(frame.pfn());
        if slot == NO_SLOT {
            panic!("{frame} is not a page-table page");
        }
        slot
    }

    /// Resolves `frame` to a slot handle for repeated access.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page.
    #[inline]
    pub fn slot(&self, frame: FrameId) -> PtSlot {
        PtSlot(self.resolve(frame))
    }

    /// Resolves `frame` to a slot handle, or `None` if it holds no table.
    #[inline]
    pub fn slot_of(&self, frame: FrameId) -> Option<PtSlot> {
        match self.slot_index(frame.pfn()) {
            NO_SLOT => None,
            slot => Some(PtSlot(slot)),
        }
    }

    /// Registers `frame` as a page-table page with all entries empty.
    ///
    /// Re-inserting an existing table clears it (matching the kernel zeroing
    /// freshly allocated page-table pages).
    pub fn insert_table(&mut self, frame: FrameId) {
        let pfn = frame.pfn();
        if let Some(existing) = self.slot_of(frame) {
            self.slots[existing.0 as usize].clear();
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                let recycled = &mut self.slots[slot as usize];
                recycled.clear();
                recycled.pfn = pfn;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slot count fits in u32");
                self.slots.push(TableSlot {
                    pfn,
                    entries: Box::new([Pte::EMPTY; ENTRIES_PER_TABLE]),
                    occupancy: [0; OCC_WORDS],
                });
                slot
            }
        };
        let top = (pfn >> DIR_SHIFT) as usize;
        if top >= self.dir.len() {
            self.dir.resize_with(top + 1, || None);
        }
        let chunk = self.dir[top].get_or_insert_with(|| Box::new([NO_SLOT; DIR_FANOUT]));
        chunk[pfn as usize & (DIR_FANOUT - 1)] = slot;
        self.live += 1;
    }

    /// Removes a page-table page from the store.
    pub fn remove_table(&mut self, frame: FrameId) {
        let pfn = frame.pfn();
        let top = (pfn >> DIR_SHIFT) as usize;
        let Some(Some(chunk)) = self.dir.get_mut(top) else {
            return;
        };
        let entry = &mut chunk[pfn as usize & (DIR_FANOUT - 1)];
        if *entry == NO_SLOT {
            return;
        }
        let slot = *entry;
        *entry = NO_SLOT;
        self.slots[slot as usize].pfn = FREE_PFN;
        self.free.push(slot);
        self.live -= 1;
    }

    /// Returns `true` if `frame` holds a page-table page.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.slot_index(frame.pfn()) != NO_SLOT
    }

    /// Number of page-table pages currently stored.
    pub fn table_count(&self) -> usize {
        self.live
    }

    /// Reads the entry at `index` of the table in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page or `index >= 512`.
    #[inline]
    pub fn read(&self, frame: FrameId, index: usize) -> Pte {
        self.slots[self.resolve(frame) as usize].entries[index]
    }

    /// Writes the entry at `index` of the table in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page or `index >= 512`.
    #[inline]
    pub fn write(&mut self, frame: FrameId, index: usize, pte: Pte) {
        self.write_at(PtSlot(self.resolve(frame)), index, pte);
    }

    /// Reads the entry at `index` of the table behind `slot`.
    #[inline]
    pub fn read_at(&self, slot: PtSlot, index: usize) -> Pte {
        self.slots[slot.0 as usize].entries[index]
    }

    /// Writes the entry at `index` of the table behind `slot`.
    #[inline]
    pub fn write_at(&mut self, slot: PtSlot, index: usize, pte: Pte) {
        let table = &mut self.slots[slot.0 as usize];
        table.entries[index] = pte;
        let bit = 1u64 << (index & 63);
        if pte.is_present() {
            table.occupancy[index >> 6] |= bit;
        } else {
            table.occupancy[index >> 6] &= !bit;
        }
    }

    /// Iterates the present entries of the table behind `slot` as
    /// `(index, pte)` pairs in ascending index order, without allocating:
    /// the occupancy bitmap drives the iteration, so empty stretches of the
    /// table cost one popcount instead of 64 reads.
    pub fn present_at(&self, slot: PtSlot) -> impl Iterator<Item = (usize, Pte)> + '_ {
        let entries = &self.slots[slot.0 as usize].entries;
        self.present_indices(slot)
            .map(move |index| (index, entries[index]))
    }

    /// The indices of the present entries of the table behind `slot`, in
    /// ascending order.  The iterator owns a copy of the occupancy bitmap,
    /// so the caller may write the store — this table included — while
    /// walking it; the walk still covers exactly the entries present when it
    /// started.
    pub fn present_indices(&self, slot: PtSlot) -> impl Iterator<Item = usize> {
        let occupancy = self.slots[slot.0 as usize].occupancy;
        occupancy
            .into_iter()
            .enumerate()
            .flat_map(|(word_index, word)| {
                std::iter::successors((word != 0).then_some(word), |w| {
                    let rest = w & (w - 1);
                    (rest != 0).then_some(rest)
                })
                .map(move |w| (word_index << 6) | w.trailing_zeros() as usize)
            })
    }

    /// Number of present entries in the table in `frame`, by popcount.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page.
    pub fn present_count(&self, frame: FrameId) -> usize {
        self.slots[self.resolve(frame) as usize]
            .occupancy
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Iterates over all page-table frames currently stored.
    pub fn table_frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.slots
            .iter()
            .filter(|slot| slot.pfn != FREE_PFN)
            .map(|slot| FrameId::new(slot.pfn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::PteFlags;

    #[test]
    fn fresh_tables_are_empty() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1));
        assert_eq!(store.present_count(FrameId::new(1)), 0);
        assert!(!store.read(FrameId::new(1), 0).is_present());
        assert!(store.contains(FrameId::new(1)));
        assert_eq!(store.table_count(), 1);
    }

    #[test]
    fn writes_are_readable_and_enumerable() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1));
        let pte = Pte::new(FrameId::new(99), PteFlags::user_data());
        store.write(FrameId::new(1), 511, pte);
        store.write(FrameId::new(1), 0, pte);
        assert_eq!(store.read(FrameId::new(1), 511), pte);
        let entries: Vec<_> = store.present_at(store.slot(FrameId::new(1))).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[1].0, 511);
    }

    #[test]
    fn reinserting_clears_the_table() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1));
        store.write(
            FrameId::new(1),
            5,
            Pte::new(FrameId::new(3), PteFlags::user_data()),
        );
        store.insert_table(FrameId::new(1));
        assert_eq!(store.present_count(FrameId::new(1)), 0);
    }

    #[test]
    fn remove_table_forgets_contents() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(2));
        store.remove_table(FrameId::new(2));
        assert!(!store.contains(FrameId::new(2)));
        assert_eq!(store.table_count(), 0);
        // Removing twice (or a never-inserted frame) is a no-op.
        store.remove_table(FrameId::new(2));
        store.remove_table(FrameId::new(777));
    }

    #[test]
    #[should_panic(expected = "is not a page-table page")]
    fn reading_unknown_table_panics() {
        let store = PtStore::new();
        let _ = store.read(FrameId::new(9), 0);
    }

    #[test]
    fn recycled_slots_start_clean() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(10));
        store.write(
            FrameId::new(10),
            100,
            Pte::new(FrameId::new(1), PteFlags::user_data()),
        );
        store.remove_table(FrameId::new(10));
        // A different frame recycles the slot; it must not see old contents.
        store.insert_table(FrameId::new(20));
        assert_eq!(store.present_count(FrameId::new(20)), 0);
        assert!(!store.read(FrameId::new(20), 100).is_present());
        assert!(!store.contains(FrameId::new(10)));
    }

    #[test]
    fn occupancy_tracks_overwrites_and_clears() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1));
        let pte = Pte::new(FrameId::new(50), PteFlags::user_data());
        store.write(FrameId::new(1), 63, pte);
        store.write(FrameId::new(1), 64, pte);
        store.write(FrameId::new(1), 63, pte); // overwrite present with present
        assert_eq!(store.present_count(FrameId::new(1)), 2);
        store.write(FrameId::new(1), 63, Pte::EMPTY);
        assert_eq!(store.present_count(FrameId::new(1)), 1);
        assert_eq!(
            store
                .present_at(store.slot(FrameId::new(1)))
                .collect::<Vec<_>>(),
            vec![(64, pte)]
        );
    }

    #[test]
    fn slot_handles_read_and_write() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(4097)); // second directory chunk
        let slot = store.slot(FrameId::new(4097));
        let pte = Pte::new(FrameId::new(8), PteFlags::user_data());
        store.write_at(slot, 7, pte);
        assert_eq!(store.read_at(slot, 7), pte);
        assert_eq!(store.read(FrameId::new(4097), 7), pte);
        assert!(store.slot_of(FrameId::new(4096)).is_none());
        assert_eq!(store.slot_of(FrameId::new(4097)), Some(slot));
    }

    #[test]
    fn present_iteration_is_dense_and_ordered() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(3));
        let pte = Pte::new(FrameId::new(77), PteFlags::user_data());
        let indices = [0usize, 1, 63, 64, 127, 255, 256, 510, 511];
        for index in indices.iter().rev() {
            store.write(FrameId::new(3), *index, pte);
        }
        let seen: Vec<usize> = store
            .present_at(store.slot(FrameId::new(3)))
            .map(|(index, entry)| {
                assert_eq!(entry, pte);
                index
            })
            .collect();
        assert_eq!(seen, indices);
    }

    #[test]
    fn present_indices_snapshot_the_bitmap() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(3));
        let slot = store.slot(FrameId::new(3));
        let pte = Pte::new(FrameId::new(77), PteFlags::user_data());
        for index in [5usize, 64, 300] {
            store.write_at(slot, index, pte);
        }
        let mut seen = Vec::new();
        for index in store.present_indices(slot) {
            // Writes during the walk neither add nor drop visited indices.
            store.write_at(slot, index, Pte::EMPTY);
            store.write_at(slot, 511 - index, pte);
            seen.push(index);
        }
        assert_eq!(seen, vec![5, 64, 300]);
    }

    #[test]
    fn table_frames_lists_live_tables_only() {
        let mut store = PtStore::new();
        for pfn in [5u64, 6, 7] {
            store.insert_table(FrameId::new(pfn));
        }
        store.remove_table(FrameId::new(6));
        let mut frames: Vec<u64> = store.table_frames().map(|f| f.pfn()).collect();
        frames.sort_unstable();
        assert_eq!(frames, vec![5, 7]);
    }
}
