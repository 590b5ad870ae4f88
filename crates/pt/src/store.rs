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
//! * table contents live in a **slab** of `TableSlot`s (stable indices,
//!   freed slots recycled through a free list, the entry boxes reused across
//!   table lifetimes);
//! * each entry is **one `AtomicU64`** holding the entry's architectural
//!   encoding ([`Pte::to_bits`]), so a table is exactly 4 KiB, like the
//!   page it models;
//! * a **two-level radix directory** maps a frame number to its slot in two
//!   array dereferences: `dir[pfn >> 12][pfn & 0xfff]`;
//! * each slot carries three 512-bit **entry bitmaps**, kept by
//!   [`PtStore::write_at`] and interleaved word by word so one write
//!   touches one cache line of them: which entries are present, which
//!   present entries are writable, and which are huge (large-page leaves).
//!   Enumerating or counting present entries (replication,
//!   OR-consolidation, page-table dumps) is popcount-driven and
//!   allocation-free instead of a 512-entry scan, and
//!   [`check_writable_range`](crate::check_writable_range) proves a range
//!   fault-free from the bitmaps without reading a leaf entry.
//!
//! Every structural write goes through `&mut self`.  The one write a shared
//! reference may make is the hardware walker's accessed/dirty update,
//! [`PtStore::mark_accessed_at`]: an atomic OR of bits no translation
//! depends on and no bitmap mirrors.  ORs commute, so walkers on several
//! host threads sharing one store leave the same end state in any order.
//! Every entry access is `Relaxed`: structural writes are ordered before
//! any sharing by whatever hands the shared reference to other threads
//! (`std::thread::scope`'s spawn and join, in the execution engine), and
//! the OR publishes no other data.
//!
//! Callers that access the same table repeatedly can resolve the frame to a
//! [`PtSlot`] handle once and use the `*_at` accessors, skipping the
//! directory on subsequent accesses.

use crate::addr::ENTRIES_PER_TABLE;
use crate::entry::Pte;
use mitosis_mem::FrameId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of directory entries per second-level chunk (covers 4096 frames,
/// i.e. 16 MiB of physical memory per chunk).
const DIR_FANOUT: usize = 1 << DIR_SHIFT;
const DIR_SHIFT: u32 = 12;

/// Sentinel directory entry: this frame holds no page-table page.
const NO_SLOT: u32 = u32::MAX;

/// Sentinel owner for recycled slots.
const FREE_PFN: u64 = u64::MAX;

/// Number of 64-bit words in a 512-bit entry bitmap.
pub(crate) const OCC_WORDS: usize = ENTRIES_PER_TABLE / 64;

/// A resolved handle to one stored page-table page.
///
/// Obtained from [`PtStore::slot`] / [`PtStore::slot_of`]; valid until the
/// table is removed from the store.  Using a stale handle reads whatever
/// table was recycled into the slot — handles are a hot-path optimisation,
/// not a stability guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtSlot(u32);

/// One word of a table's three entry bitmaps: bit `i` of word `w` describes
/// entry `64 * w + i`.  Only present entries set `writable` or `huge` bits.
/// The three words sit together, so writing an entry touches one cache
/// line of bitmap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MaskWord {
    pub(crate) present: u64,
    pub(crate) writable: u64,
    pub(crate) huge: u64,
}

/// A table's entry bitmaps, word by word.
pub(crate) type EntryMasks = [MaskWord; OCC_WORDS];

/// One stored page-table page: 512 packed entries plus their bitmaps.
#[derive(Debug)]
struct TableSlot {
    /// Frame number owning this slot, or [`FREE_PFN`] for recycled slots.
    pfn: u64,
    entries: Box<[AtomicU64; ENTRIES_PER_TABLE]>,
    masks: EntryMasks,
}

impl TableSlot {
    fn empty(pfn: u64) -> Self {
        TableSlot {
            pfn,
            entries: Box::new([const { AtomicU64::new(0) }; ENTRIES_PER_TABLE]),
            masks: EntryMasks::default(),
        }
    }

    fn clear(&mut self) {
        for entry in self.entries.iter_mut() {
            *entry.get_mut() = 0;
        }
        self.masks = EntryMasks::default();
    }
}

impl Clone for TableSlot {
    fn clone(&self) -> Self {
        let entries = &self.entries;
        TableSlot {
            pfn: self.pfn,
            entries: Box::new(std::array::from_fn(|index| {
                AtomicU64::new(entries[index].load(Ordering::Relaxed))
            })),
            masks: self.masks,
        }
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
                self.slots.push(TableSlot::empty(pfn));
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
        self.read_at(PtSlot(self.resolve(frame)), index)
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
        Pte::from_bits(self.slots[slot.0 as usize].entries[index].load(Ordering::Relaxed))
    }

    /// Writes the entry at `index` of the table behind `slot`, keeping the
    /// entry bitmaps in step.
    #[inline]
    pub fn write_at(&mut self, slot: PtSlot, index: usize, pte: Pte) {
        let bits = pte.to_bits();
        debug_assert_eq!(
            Pte::from_bits(bits),
            pte,
            "entry does not survive its 64-bit encoding"
        );
        let table = &mut self.slots[slot.0 as usize];
        *table.entries[index].get_mut() = bits;
        let bit = 1u64 << (index & 63);
        let on = |flag: u64| if bits & flag != 0 { bit } else { 0 };
        let present = on(Pte::PRESENT_BIT);
        let word = &mut table.masks[index >> 6];
        word.present = (word.present & !bit) | present;
        word.writable = (word.writable & !bit) | (present & on(Pte::WRITABLE_BIT));
        word.huge = (word.huge & !bit) | (present & on(Pte::HUGE_BIT));
    }

    /// Sets the accessed bit — and the dirty bit too when `dirty` — of the
    /// present entry at `index` of the table behind `slot`, through a shared
    /// reference: the hardware walker's update.
    ///
    /// The update is an atomic OR, skipped when the bits are already set,
    /// so concurrent walkers may mark the same or neighbouring entries and
    /// the store ends in the same state whatever order they ran in.  It
    /// touches no bitmap: accessed and dirty are not mirrored.
    #[inline]
    pub fn mark_accessed_at(&self, slot: PtSlot, index: usize, dirty: bool) {
        let want = Pte::ACCESSED_BIT | if dirty { Pte::DIRTY_BIT } else { 0 };
        let entry = &self.slots[slot.0 as usize].entries[index];
        if entry.load(Ordering::Relaxed) & want != want {
            entry.fetch_or(want, Ordering::Relaxed);
        }
    }

    /// The entry bitmaps of the table behind `slot`.
    #[inline]
    pub(crate) fn masks_at(&self, slot: PtSlot) -> &EntryMasks {
        &self.slots[slot.0 as usize].masks
    }

    /// Iterates the present entries of the table behind `slot` as
    /// `(index, pte)` pairs in ascending index order, without allocating:
    /// the present bitmap drives the iteration, so empty stretches of the
    /// table cost one popcount instead of 64 reads.
    pub fn present_at(&self, slot: PtSlot) -> impl Iterator<Item = (usize, Pte)> + '_ {
        self.present_indices(slot)
            .map(move |index| (index, self.read_at(slot, index)))
    }

    /// The indices of the present entries of the table behind `slot`, in
    /// ascending order.  The iterator owns a copy of the present bitmap,
    /// so the caller may write the store — this table included — while
    /// walking it; the walk still covers exactly the entries present when it
    /// started.
    pub fn present_indices(&self, slot: PtSlot) -> impl Iterator<Item = usize> {
        let masks = self.masks_at(slot);
        set_bits(std::array::from_fn(|word| masks[word].present))
    }

    /// Number of present entries in the table in `frame`, by popcount.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page.
    pub fn present_count(&self, frame: FrameId) -> usize {
        self.masks_at(self.slot(frame))
            .iter()
            .map(|word| word.present.count_ones() as usize)
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

/// The indices of the set bits of a 512-bit bitmap, in ascending order.
pub(crate) fn set_bits(bitmap: [u64; OCC_WORDS]) -> impl Iterator<Item = usize> {
    bitmap
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

    /// A table of 512 present, writable entries with A/D clear.
    fn full_table(store: &mut PtStore, frame: FrameId) -> PtSlot {
        store.insert_table(frame);
        let slot = store.slot(frame);
        for index in 0..ENTRIES_PER_TABLE {
            let data = FrameId::new(1000 + index as u64);
            store.write_at(slot, index, Pte::new(data, PteFlags::user_data()));
        }
        slot
    }

    #[test]
    fn concurrent_accessed_dirty_marks_lose_no_bit() {
        let mut store = PtStore::new();
        let slot = full_table(&mut store, FrameId::new(1));
        for round in 0..64 {
            // Fresh A/D state each round, so every mark races a real OR.
            for index in 0..ENTRIES_PER_TABLE {
                let pte = store.read_at(slot, index).with_ad_cleared();
                store.write_at(slot, index, pte);
            }
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for thread in 0..2 {
                    let (store, barrier) = (&store, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        for index in 0..ENTRIES_PER_TABLE {
                            // Same entry: both threads mark every entry,
                            // only one of them dirty.  Neighbouring
                            // entries share cache lines, and the dirty
                            // marker alternates with the index.
                            store.mark_accessed_at(slot, index, (index + round) % 2 == thread);
                        }
                    });
                }
            });
            for index in 0..ENTRIES_PER_TABLE {
                let pte = store.read_at(slot, index);
                assert!(
                    pte.flags().accessed && pte.flags().dirty,
                    "entry {index} lost a bit"
                );
                assert_eq!(
                    pte.with_ad_cleared(),
                    Pte::new(FrameId::new(1000 + index as u64), PteFlags::user_data())
                );
            }
        }
        assert_eq!(store.present_count(FrameId::new(1)), ENTRIES_PER_TABLE);
    }

    #[test]
    fn a_cloned_store_equals_its_source_entry_for_entry() {
        let mut store = PtStore::new();
        let full = full_table(&mut store, FrameId::new(7));
        store.insert_table(FrameId::new(9000));
        let sparse = store.slot(FrameId::new(9000));
        let huge = Pte::new(FrameId::new(512), PteFlags::user_readonly().huge_page());
        store.write_at(sparse, 3, huge);
        store.mark_accessed_at(full, 10, true);
        store.mark_accessed_at(sparse, 3, false);
        store.insert_table(FrameId::new(11));
        store.remove_table(FrameId::new(11));

        let clone = store.clone();
        assert_eq!(clone.table_count(), store.table_count());
        let frames: Vec<FrameId> = store.table_frames().collect();
        assert_eq!(clone.table_frames().collect::<Vec<_>>(), frames);
        for frame in frames {
            let (ours, theirs) = (store.slot(frame), clone.slot(frame));
            for index in 0..ENTRIES_PER_TABLE {
                assert_eq!(clone.read_at(theirs, index), store.read_at(ours, index));
            }
            assert_eq!(clone.masks_at(theirs), store.masks_at(ours));
        }
        // The copy is deep: marking the clone leaves the source alone.
        clone.mark_accessed_at(clone.slot(FrameId::new(7)), 11, true);
        assert!(!store.read(FrameId::new(7), 11).flags().accessed);
    }

    #[test]
    fn bitmaps_mirror_present_writable_and_huge() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(2));
        let slot = store.slot(FrameId::new(2));
        store.write_at(slot, 0, Pte::new(FrameId::new(5), PteFlags::user_data()));
        store.write_at(
            slot,
            1,
            Pte::new(FrameId::new(6), PteFlags::user_readonly()),
        );
        store.write_at(
            slot,
            64,
            Pte::new(FrameId::new(512), PteFlags::user_data().huge_page()),
        );
        let masks = *store.masks_at(slot);
        assert_eq!(masks[0].present, 0b11);
        assert_eq!(masks[0].writable, 0b01);
        assert_eq!((masks[0].huge, masks[1].huge), (0, 1));
        // Accessed/dirty marks leave the bitmaps alone; clearing an entry
        // clears every bit it set.
        store.mark_accessed_at(slot, 1, true);
        assert_eq!(*store.masks_at(slot), masks);
        store.write_at(slot, 64, Pte::EMPTY);
        assert!(store.masks_at(slot).iter().all(|word| word.huge == 0));
        assert_eq!(store.masks_at(slot)[1].present, 0);
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
