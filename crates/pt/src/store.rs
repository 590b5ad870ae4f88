//! Backing storage for page-table pages.
//!
//! The simulator does not materialise the contents of data pages (only their
//! placement matters), but page-table pages have semantic content: 512
//! entries each.  [`PtStore`] is the "physical memory" that holds them,
//! indexed by the frame the table lives in.
//!
//! A table's slot is also its `struct page`: the only per-frame state
//! Mitosis reads.  Mitosis threads the replicas of each page-table page
//! into a circular list through that metadata (paper §5.2, Figure 8), so an
//! update intercepted at the PV-Ops layer reaches every replica in 2N
//! memory references instead of walking N page tables.  Here each slot
//! names the slot of the next ring member ([`PtStore::link_replicas`]), so
//! a hop around the ring is one slab index.  Nothing else needs per-frame
//! state: a data frame's socket follows from its frame number
//! ([`FrameSpace::socket_of`](mitosis_mem::FrameSpace::socket_of)), and
//! whether a frame holds a page-table page is whether the store holds it
//! ([`PtStore::contains`]).
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
//! * each slot holds its **replica-ring link**, kept closed by every insert
//!   and removal: a removed or re-inserted table leaves its ring, which
//!   closes around it;
//! * each slot carries three 512-bit **entry bitmaps**, kept by
//!   [`PtStore::write_at`] and interleaved word by word so one write
//!   touches one cache line of them: which entries are present, which
//!   present entries are writable, and which are huge (large-page leaves).
//!   Enumerating or counting present entries (OR-consolidation, page-table
//!   dumps, the footprint) is popcount-driven and allocation-free instead
//!   of a 512-entry scan, and
//!   [`check_writable_range`](crate::check_writable_range) proves a range
//!   fault-free from the bitmaps without reading a leaf entry;
//! * setup moves **whole tables, not entries**: populate writes a leaf
//!   window's entries, which share their flags, with the flags encoded once
//!   and each entry's bitmap bits set directly
//!   ([`PtStore::write_leaves_at`]), and replication copies a leaf table
//!   into each replica as 512 entries plus the bitmaps: a new replica is
//!   inserted as a copy ([`PtStore::insert_table`] with a table to copy),
//!   an existing one overwritten ([`PtStore::copy_table_at`]).  An absent
//!   entry is always zero, so the copy equals writing each present entry.
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
use crate::entry::{Pte, PteFlags};
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

/// The most members a replica ring can have: one per socket, and a
/// [`NodeMask`](mitosis_numa::NodeMask) holds at most 64.
const MAX_RING_MEMBERS: usize = 64;

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

/// A set of the entries of one page-table page, by index, as a 512-bit
/// map: the leaves a batched protection change rewrites
/// ([`PtStore::protect_leaves_at`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryMask([u64; OCC_WORDS]);

impl EntryMask {
    /// Adds entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    pub fn insert(&mut self, index: usize) {
        self.0[index >> 6] |= 1 << (index & 63);
    }

    /// Whether the set holds no entry.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; OCC_WORDS]
    }

    /// Number of entries in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// The runs of consecutive entries, as `(first index, length)` pairs in
    /// ascending order, found a bitmap word at a time.
    pub fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut from = 0;
        std::iter::from_fn(move || {
            let first = self.next_from(from, false)?;
            let end = self.next_from(first, true).unwrap_or(ENTRIES_PER_TABLE);
            from = end;
            Some((first, end - first))
        })
    }

    /// The lowest index at or after `from` that is in the set, or with
    /// `absent` the lowest that is not.
    fn next_from(&self, from: usize, absent: bool) -> Option<usize> {
        let flip = if absent { u64::MAX } else { 0 };
        let mut word = from >> 6;
        let mut bits = (*self.0.get(word)? ^ flip) & (u64::MAX << (from & 63));
        while bits == 0 {
            word += 1;
            bits = *self.0.get(word)? ^ flip;
        }
        Some(word << 6 | bits.trailing_zeros() as usize)
    }
}

/// The accessed and dirty bits of some of one table's entries, as two
/// [`EntryMask`]s: what the members of a leaf table's replica ring OR
/// together before a protection change
/// ([`PtStore::gather_accessed_dirty_at`], [`PtStore::protect_leaves_at`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessedDirty {
    accessed: EntryMask,
    dirty: EntryMask,
}

/// One stored page-table page: 512 packed entries plus their bitmaps, and
/// its link in its replica ring.
#[derive(Debug)]
struct TableSlot {
    /// Frame number owning this slot, or [`FREE_PFN`] for recycled slots.
    pfn: u64,
    /// Slot of the next member of the table's replica ring: the slot itself
    /// when the table is not replicated.
    ring_next: u32,
    entries: Box<[AtomicU64; ENTRIES_PER_TABLE]>,
    masks: EntryMasks,
}

impl TableSlot {
    fn empty(pfn: u64, slot: u32) -> Self {
        TableSlot {
            pfn,
            ring_next: slot,
            entries: Box::new([const { AtomicU64::new(0) }; ENTRIES_PER_TABLE]),
            masks: EntryMasks::default(),
        }
    }

    /// A slot for `pfn` whose ring link names `ring_next`, holding a copy
    /// of `source`'s entries and bitmaps.  The entries are collected
    /// straight into their heap box: `Box::new` of an array built on the
    /// stack would copy each table twice.
    fn copy_of(source: &TableSlot, pfn: u64, ring_next: u32) -> Self {
        let entries: Box<[AtomicU64]> = source
            .entries
            .iter()
            .map(|entry| AtomicU64::new(entry.load(Ordering::Relaxed)))
            .collect();
        TableSlot {
            pfn,
            ring_next,
            entries: entries.try_into().expect("a table has 512 entries"),
            masks: source.masks,
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
        TableSlot::copy_of(self, self.pfn, self.ring_next)
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
/// store.insert_table(FrameId::new(100), None);
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

    /// Registers `frame` as a page-table page in a replica ring of its own,
    /// holding a copy of the table behind `copy_of` as
    /// [`PtStore::copy_table_at`] leaves it or, without one, all entries
    /// empty (matching the kernel zeroing freshly allocated page-table
    /// pages).  A copy is written once, with no zeroing before it.
    ///
    /// Re-inserting an existing table overwrites it the same way and takes
    /// it out of its ring.
    pub fn insert_table(&mut self, frame: FrameId, copy_of: Option<PtSlot>) {
        let pfn = frame.pfn();
        if let Some(existing) = self.slot_of(frame) {
            self.unlink(existing);
            self.fill(existing, copy_of);
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].pfn = pfn;
                self.fill(PtSlot(slot), copy_of);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slot count fits in u32");
                let table = match copy_of {
                    Some(source) => TableSlot::copy_of(&self.slots[source.0 as usize], pfn, slot),
                    None => TableSlot::empty(pfn, slot),
                };
                self.slots.push(table);
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

    /// Overwrites the entries and bitmaps of the table behind `slot` with a
    /// copy of the table behind `copy_of`, or empties them.
    fn fill(&mut self, slot: PtSlot, copy_of: Option<PtSlot>) {
        match copy_of {
            Some(source) => self.copy_table_at(source, slot),
            None => self.slots[slot.0 as usize].clear(),
        }
    }

    /// Removes a page-table page from the store; its replica ring closes
    /// around it.  Removing a frame the store does not hold does nothing.
    pub fn remove_table(&mut self, frame: FrameId) {
        let Some(slot) = self.slot_of(frame) else {
            return;
        };
        self.unlink(slot);
        let pfn = frame.pfn();
        if let Some(Some(chunk)) = self.dir.get_mut((pfn >> DIR_SHIFT) as usize) {
            chunk[pfn as usize & (DIR_FANOUT - 1)] = NO_SLOT;
        }
        self.slots[slot.0 as usize].pfn = FREE_PFN;
        self.free.push(slot.0);
        self.live -= 1;
    }

    // --- Replica rings (paper §5.2, Figure 8) -----------------------------

    /// Links the tables in `frames` into one replica ring, in that order:
    /// each member's link names the next and the last member's the first.
    /// A single table forms a ring of one: it is not replicated.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or names a frame that holds no table.
    pub fn link_replicas(&mut self, frames: &[FrameId]) {
        let (&first, rest) = frames
            .split_first()
            .expect("cannot link an empty replica set");
        let first = self.resolve(first);
        let mut last = first;
        for &frame in rest {
            let slot = self.resolve(frame);
            self.slots[last as usize].ring_next = slot;
            last = slot;
        }
        self.slots[last as usize].ring_next = first;
    }

    /// Takes the table behind `slot` out of its replica ring, closing the
    /// ring around it; the table is left in a ring of its own.
    fn unlink(&mut self, slot: PtSlot) {
        // The member whose link names `slot` is the last a walk from it
        // yields: `slot` itself when it is not replicated.
        let mut ring = RingWalk::new(slot);
        let mut before = slot;
        while let Some((_, member)) = ring.next(self) {
            before = member;
        }
        let after = self.slots[slot.0 as usize].ring_next;
        self.slots[before.0 as usize].ring_next = after;
        self.slots[slot.0 as usize].ring_next = slot.0;
    }

    /// A walk around the replica ring of the table in `frame`, starting
    /// with it ([`RingWalk`]).  [`PtStore::ring`] is the same walk as an
    /// iterator; this one lets the walker write the store between steps.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page.
    #[inline]
    pub fn ring_walk(&self, frame: FrameId) -> RingWalk {
        RingWalk::new(self.slot(frame))
    }

    /// The members of the replica ring of the table in `frame` as
    /// `(frame, slot)` pairs: `frame` first, then the others in ring order.
    /// A table that is not replicated yields just itself.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page.  The iterator panics on
    /// a 65th member (a [`RingWalk`] bound), which means the ring is
    /// corrupted.
    pub fn ring(&self, frame: FrameId) -> impl Iterator<Item = (FrameId, PtSlot)> + '_ {
        let mut ring = self.ring_walk(frame);
        std::iter::from_fn(move || ring.next(self))
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

    /// Writes present entries that share `flags` into the table behind
    /// `slot`, each `(index, frame)` pointing at `frame`, in order: the
    /// entries and bitmaps one [`PtStore::write_at`] per pair would leave.
    /// The flags are encoded once, and each bitmap word is updated once per
    /// run of pairs whose indices share it.
    ///
    /// # Panics
    ///
    /// Panics if `flags` is not present, or an index is `>= 512`.
    pub fn write_leaves_at(&mut self, slot: PtSlot, flags: PteFlags, entries: &[(usize, FrameId)]) {
        let flag_bits = Pte::new(FrameId::new(0), flags).to_bits();
        let writable = if flags.writable { u64::MAX } else { 0 };
        let huge = if flags.huge { u64::MAX } else { 0 };
        let table = &mut self.slots[slot.0 as usize];
        for run in entries.chunk_by(|(a, _), (b, _)| a >> 6 == b >> 6) {
            let mut touched = 0;
            for &(index, frame) in run {
                let bits = flag_bits | frame.pfn() << Pte::FRAME_SHIFT;
                debug_assert_eq!(
                    Pte::from_bits(bits),
                    Pte::new(frame, flags),
                    "entry does not survive its 64-bit encoding"
                );
                *table.entries[index].get_mut() = bits;
                touched |= 1u64 << (index & 63);
            }
            let word = &mut table.masks[run[0].0 >> 6];
            word.present |= touched;
            word.writable = (word.writable & !touched) | (touched & writable);
            word.huge = (word.huge & !touched) | (touched & huge);
        }
    }

    /// ORs the accessed and dirty bits of the entries in `leaves` of the
    /// table behind `slot` into `bits`.
    pub fn gather_accessed_dirty_at(
        &self,
        slot: PtSlot,
        leaves: &EntryMask,
        bits: &mut AccessedDirty,
    ) {
        let entries = &self.slots[slot.0 as usize].entries;
        for (word, &mask) in leaves.0.iter().enumerate().filter(|(_, &mask)| mask != 0) {
            let (mut accessed, mut dirty) = (0, 0);
            for_each_bit(mask, |bit| {
                let entry = entries[word << 6 | bit].load(Ordering::Relaxed);
                accessed |= (entry >> Pte::ACCESSED_BIT.trailing_zeros() & 1) << bit;
                dirty |= (entry >> Pte::DIRTY_BIT.trailing_zeros() & 1) << bit;
            });
            bits.accessed.0[word] |= accessed;
            bits.dirty.0[word] |= dirty;
        }
    }

    /// Rewrites the entries in `leaves` of the table behind `slot`, all
    /// present, under protection `flags`: each keeps its frame and
    /// large-page bit ([`Pte::reprotected`]) and takes the accessed and
    /// dirty bits `bits` holds for it.  These are the entries and bitmaps
    /// one [`PtStore::write_at`] per entry would leave; the flags are
    /// encoded once and each bitmap word is written once.
    ///
    /// # Panics
    ///
    /// Panics if `flags` is not present.
    pub fn protect_leaves_at(
        &mut self,
        slot: PtSlot,
        flags: PteFlags,
        leaves: &EntryMask,
        bits: &AccessedDirty,
    ) {
        let flag_bits = Pte::new(
            FrameId::new(0),
            PteFlags {
                huge: false,
                accessed: false,
                dirty: false,
                ..flags
            },
        )
        .to_bits();
        let kept = !0 << Pte::FRAME_SHIFT | Pte::HUGE_BIT;
        let writable = if flags.writable { u64::MAX } else { 0 };
        let table = &mut self.slots[slot.0 as usize];
        for (word, &mask) in leaves.0.iter().enumerate().filter(|(_, &mask)| mask != 0) {
            let masks = &mut table.masks[word];
            debug_assert_eq!(masks.present & mask, mask, "rewriting an absent entry");
            masks.writable = (masks.writable & !mask) | (mask & writable);
            let (accessed, dirty) = (bits.accessed.0[word], bits.dirty.0[word]);
            for_each_bit(mask, |bit| {
                let entry = table.entries[word << 6 | bit].get_mut();
                *entry = *entry & kept
                    | flag_bits
                    | (accessed >> bit & 1) << Pte::ACCESSED_BIT.trailing_zeros()
                    | (dirty >> bit & 1) << Pte::DIRTY_BIT.trailing_zeros();
            });
        }
    }

    /// Makes the table behind `to` a copy of the table behind `from`:
    /// every entry, accessed and dirty bits included, and the bitmaps.
    /// Absent entries are zero in every table, so this is the table one
    /// [`PtStore::write_at`] per present entry of `from` leaves in a
    /// cleared `to`, or in a replica whose present entries are `from`'s
    /// whatever their accessed and dirty bits.  The replica ring of neither
    /// table changes.
    pub fn copy_table_at(&mut self, from: PtSlot, to: PtSlot) {
        let (from, to) = (from.0 as usize, to.0 as usize);
        let (source, target) = match from.cmp(&to) {
            std::cmp::Ordering::Equal => return,
            std::cmp::Ordering::Less => {
                let (head, tail) = self.slots.split_at_mut(to);
                (&head[from], &mut tail[0])
            }
            std::cmp::Ordering::Greater => {
                let (head, tail) = self.slots.split_at_mut(from);
                (&tail[0], &mut head[to])
            }
        };
        for (copy, entry) in target.entries.iter_mut().zip(source.entries.iter()) {
            *copy.get_mut() = entry.load(Ordering::Relaxed);
        }
        target.masks = source.masks;
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

    /// The frames the present entries of the table behind `slot` point at,
    /// in ascending index order: [`PtStore::present_at`] without decoding
    /// each entry's flags.
    pub fn present_frames_at(&self, slot: PtSlot) -> impl Iterator<Item = FrameId> + '_ {
        let entries = &self.slots[slot.0 as usize].entries;
        self.present_indices(slot).map(move |index| {
            FrameId::new(entries[index].load(Ordering::Relaxed) >> Pte::FRAME_SHIFT)
        })
    }

    /// Appends the present entries of the table behind `slot` to `out` as
    /// `(index, frame)` pairs in ascending index order: the indices
    /// [`PtStore::present_frames_at`] leaves out, taken a bitmap word at a
    /// time.
    pub fn push_present_frames(&self, slot: PtSlot, out: &mut Vec<(usize, FrameId)>) {
        let table = &self.slots[slot.0 as usize];
        out.reserve(ENTRIES_PER_TABLE);
        for (word, masks) in table.masks.iter().enumerate() {
            for_each_bit(masks.present, |bit| {
                let index = word << 6 | bit;
                let entry = table.entries[index].load(Ordering::Relaxed);
                out.push((index, FrameId::new(entry >> Pte::FRAME_SHIFT)));
            });
        }
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

    /// The present, writable entries of the table behind `slot`.
    pub fn writable_entries_at(&self, slot: PtSlot) -> EntryMask {
        let masks = self.masks_at(slot);
        EntryMask(std::array::from_fn(|word| masks[word].writable))
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

/// A walk around one replica ring, from [`PtStore::ring_walk`], that
/// borrows the store only while it steps: a caller may write the members'
/// entries between steps.  Each step is one slab index, with no directory
/// probe.
#[derive(Debug, Clone, Copy)]
pub struct RingWalk {
    first: u32,
    next: Option<u32>,
    members: usize,
}

impl RingWalk {
    fn new(slot: PtSlot) -> Self {
        RingWalk {
            first: slot.0,
            next: Some(slot.0),
            members: 0,
        }
    }

    /// The next member of the ring in `store` as a `(frame, slot)` pair:
    /// the table the walk started at, then the others in ring order, then
    /// `None`.  `store` must be the store the walk came from, and its rings
    /// must not change during the walk.
    ///
    /// # Panics
    ///
    /// Panics on a 65th member: no ring of a machine of at most 64 sockets
    /// has one, so the ring is corrupted.
    #[inline]
    pub fn next(&mut self, store: &PtStore) -> Option<(FrameId, PtSlot)> {
        let slot = self.next?;
        self.members += 1;
        assert!(
            self.members <= MAX_RING_MEMBERS,
            "replica ring longer than the maximum socket count; corrupted ring?"
        );
        let table = &store.slots[slot as usize];
        self.next = (table.ring_next != self.first).then_some(table.ring_next);
        Some((FrameId::new(table.pfn), PtSlot(slot)))
    }
}

/// Calls `visit` with the position of each set bit of `word`, in
/// ascending order: a full word as a plain count, a sparse one by its set
/// bits only.
#[inline(always)]
fn for_each_bit(word: u64, mut visit: impl FnMut(usize)) {
    if word == u64::MAX {
        (0..64).for_each(visit);
        return;
    }
    let mut rest = word;
    while rest != 0 {
        visit(rest.trailing_zeros() as usize);
        rest &= rest - 1;
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

    #[test]
    fn fresh_tables_are_empty() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1), None);
        assert_eq!(store.present_count(FrameId::new(1)), 0);
        assert!(!store.read(FrameId::new(1), 0).is_present());
        assert!(store.contains(FrameId::new(1)));
        assert_eq!(store.table_count(), 1);
    }

    #[test]
    fn writes_are_readable_and_enumerable() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1), None);
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
    fn entry_mask_runs_cross_bitmap_words() {
        let mut mask = EntryMask::default();
        assert!(mask.is_empty());
        for index in [0, 1, 63, 64, 200, 511, 64] {
            mask.insert(index);
        }
        assert_eq!(mask.len(), 6);
        let runs: Vec<_> = mask.runs().collect();
        assert_eq!(runs, vec![(0, 2), (63, 2), (200, 1), (511, 1)]);
        let mut full = EntryMask::default();
        (0..ENTRIES_PER_TABLE).for_each(|index| full.insert(index));
        assert_eq!(full.runs().collect::<Vec<_>>(), vec![(0, 512)]);
        assert_eq!(EntryMask::default().runs().count(), 0);
    }

    #[test]
    fn protecting_leaves_equals_one_write_per_entry() {
        // A leaf table and a replica whose entries carry other accessed
        // and dirty bits, protected over a full bitmap word and a sparse
        // one, against the OR of both members' bits written entry by
        // entry.
        let (table, replica) = (FrameId::new(1), FrameId::new(2));
        let mut store = PtStore::new();
        for frame in [table, replica] {
            store.insert_table(frame, None);
        }
        let entries: Vec<(usize, FrameId)> = (0..64)
            .chain([70, 71, 130, 511])
            .map(|index| (index, FrameId::new(1000 + index as u64)))
            .collect();
        for frame in [table, replica] {
            let slot = store.slot(frame);
            store.write_leaves_at(slot, PteFlags::user_data(), &entries);
        }
        let huge = Pte::new(FrameId::new(4096), PteFlags::user_data().huge_page());
        store.write(table, 300, huge);
        store.write(replica, 300, huge);
        for (frame, index, dirty) in [(table, 3, false), (replica, 3, true), (replica, 70, false)] {
            store.mark_accessed_at(store.slot(frame), index, dirty);
        }
        let mut leaves = EntryMask::default();
        (0..64)
            .chain([70, 300, 511])
            .for_each(|index| leaves.insert(index));
        let mut reference = store.clone();
        let mut bits = AccessedDirty::default();
        for frame in [table, replica] {
            store.gather_accessed_dirty_at(store.slot(frame), &leaves, &mut bits);
        }
        let flags = PteFlags::user_readonly();
        for frame in [table, replica] {
            let slot = store.slot(frame);
            store.protect_leaves_at(slot, flags, &leaves, &bits);
        }
        for index in (0..64).chain([70, 300, 511]) {
            let mut pte = reference.read(table, index).reprotected(flags);
            let other = reference.read(replica, index).flags();
            if other.accessed {
                pte = pte.with_accessed();
            }
            if other.dirty {
                pte = pte.with_dirty();
            }
            for frame in [table, replica] {
                reference.write(frame, index, pte);
            }
        }
        assert_eq!(format!("{store:?}"), format!("{reference:?}"));
        assert!(store.read(replica, 3).flags().accessed && store.read(table, 3).flags().dirty);
        assert!(store.read(table, 300).is_huge());
        assert!(store.read(table, 71).flags().writable, "outside the set");
    }

    #[test]
    fn reinserting_clears_the_table() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1), None);
        store.write(
            FrameId::new(1),
            5,
            Pte::new(FrameId::new(3), PteFlags::user_data()),
        );
        store.insert_table(FrameId::new(1), None);
        assert_eq!(store.present_count(FrameId::new(1)), 0);
    }

    #[test]
    fn remove_table_forgets_contents() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(2), None);
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
        store.insert_table(FrameId::new(10), None);
        store.write(
            FrameId::new(10),
            100,
            Pte::new(FrameId::new(1), PteFlags::user_data()),
        );
        store.remove_table(FrameId::new(10));
        // A different frame recycles the slot; it must not see old contents.
        store.insert_table(FrameId::new(20), None);
        assert_eq!(store.present_count(FrameId::new(20)), 0);
        assert!(!store.read(FrameId::new(20), 100).is_present());
        assert!(!store.contains(FrameId::new(10)));
    }

    #[test]
    fn occupancy_tracks_overwrites_and_clears() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1), None);
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
        store.insert_table(FrameId::new(4097), None); // second directory chunk
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
        store.insert_table(FrameId::new(3), None);
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
        // The frames alone come in the same order, the flags left undecoded.
        let slot = store.slot(FrameId::new(3));
        store.write_at(
            slot,
            64,
            Pte::new(FrameId::new(1 << 40), PteFlags::user_readonly().huge_page()).with_dirty(),
        );
        assert!(store
            .present_frames_at(slot)
            .eq(store.present_at(slot).map(|(_, pte)| pte.frame().unwrap())));
    }

    #[test]
    fn present_indices_snapshot_the_bitmap() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(3), None);
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
        store.insert_table(frame, None);
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
        store.insert_table(FrameId::new(9000), None);
        let sparse = store.slot(FrameId::new(9000));
        let huge = Pte::new(FrameId::new(512), PteFlags::user_readonly().huge_page());
        store.write_at(sparse, 3, huge);
        store.mark_accessed_at(full, 10, true);
        store.mark_accessed_at(sparse, 3, false);
        store.insert_table(FrameId::new(11), None);
        store.remove_table(FrameId::new(11));
        store.insert_table(FrameId::new(12), None);
        store.link_replicas(&[FrameId::new(7), FrameId::new(9000)]);

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
            assert!(clone.ring(frame).eq(store.ring(frame)));
        }
        assert_eq!(ring_members(&clone, FrameId::new(9000)).len(), 2);
        // The copy is deep: marking the clone leaves the source alone.
        clone.mark_accessed_at(clone.slot(FrameId::new(7)), 11, true);
        assert!(!store.read(FrameId::new(7), 11).flags().accessed);
    }

    #[test]
    fn bitmaps_mirror_present_writable_and_huge() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(2), None);
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

    /// Asserts that the tables behind `a` and `b` hold the same entries and
    /// the same three bitmaps.
    fn assert_same_table(store: &PtStore, a: PtSlot, b: PtSlot) {
        for index in 0..ENTRIES_PER_TABLE {
            assert_eq!(store.read_at(a, index), store.read_at(b, index), "{index}");
        }
        assert_eq!(store.masks_at(a), store.masks_at(b));
    }

    #[test]
    fn a_whole_table_copy_equals_a_copy_of_each_present_entry() {
        let mut store = PtStore::new();
        let source = full_table(&mut store, FrameId::new(1));
        // Read-only, huge and cleared entries, and accessed/dirty marks.
        store.write_at(
            source,
            3,
            Pte::new(FrameId::new(4), PteFlags::user_readonly()),
        );
        store.write_at(
            source,
            64,
            Pte::new(FrameId::new(512), PteFlags::user_data().huge_page()),
        );
        store.write_at(
            source,
            65,
            Pte::new(FrameId::new(1024), PteFlags::user_readonly().huge_page()),
        );
        for index in [0, 100, 200, 511] {
            store.write_at(source, index, Pte::EMPTY);
        }
        store.mark_accessed_at(source, 5, true);
        store.mark_accessed_at(source, 64, false);
        store.mark_accessed_at(source, 300, true);

        // The reference: a fresh table given each present entry in turn.
        store.insert_table(FrameId::new(2), None);
        let reference = store.slot(FrameId::new(2));
        for index in store.present_indices(source) {
            let pte = store.read_at(source, index);
            store.write_at(reference, index, pte);
        }
        // The copy overwrites whatever the target held, and links no ring.
        let target = full_table(&mut store, FrameId::new(3));
        store.write_at(target, 100, Pte::EMPTY);
        store.mark_accessed_at(target, 7, true);
        store.copy_table_at(source, target);
        assert_same_table(&store, target, reference);
        assert!(store.read_at(target, 300).flags().dirty);
        assert!(store.read_at(target, 65).is_huge());
        assert_eq!(ring_members(&store, FrameId::new(3)), vec![FrameId::new(3)]);
        // Copying towards a lower slot, and onto itself, works too.
        store.copy_table_at(reference, source);
        assert_same_table(&store, source, reference);
        store.copy_table_at(source, source);
        assert_same_table(&store, source, reference);
    }

    #[test]
    fn a_table_inserted_as_a_copy_equals_a_copied_table() {
        let mut store = PtStore::new();
        let source = full_table(&mut store, FrameId::new(1));
        store.write_at(source, 9, Pte::EMPTY);
        store.mark_accessed_at(source, 5, true);
        store.insert_table(FrameId::new(2), None);
        let reference = store.slot(FrameId::new(2));
        store.copy_table_at(source, reference);
        // A new slot, a recycled one holding another table's entries, and
        // a re-inserted ring member.
        store.insert_table(FrameId::new(3), Some(source));
        let recycled = full_table(&mut store, FrameId::new(4));
        store.remove_table(FrameId::new(4));
        store.insert_table(FrameId::new(5), Some(source));
        assert_eq!(store.slot(FrameId::new(5)), recycled);
        store.insert_table(FrameId::new(6), None);
        store.link_replicas(&[FrameId::new(6), FrameId::new(3)]);
        store.insert_table(FrameId::new(6), Some(source));
        for pfn in [3, 5, 6] {
            let frame = FrameId::new(pfn);
            assert_same_table(&store, store.slot(frame), reference);
            assert_eq!(ring_members(&store, frame), vec![frame]);
        }
        assert_eq!(store.table_count(), 5);
    }

    #[test]
    fn a_batched_leaf_write_equals_one_write_per_entry() {
        for flags in [
            PteFlags::user_data(),
            PteFlags::user_readonly(),
            PteFlags::user_data().huge_page(),
        ] {
            let mut store = PtStore::new();
            let batched = full_table(&mut store, FrameId::new(1));
            // Overwrites of read-only, huge and accessed entries, an empty
            // entry, an index written twice and both ends of the table.
            store.write_at(
                batched,
                9,
                Pte::new(FrameId::new(5), PteFlags::user_readonly().huge_page()),
            );
            store.write_at(batched, 300, Pte::EMPTY);
            store.mark_accessed_at(batched, 64, true);
            store.insert_table(FrameId::new(2), None);
            let single = store.slot(FrameId::new(2));
            store.copy_table_at(batched, single);
            let entries = [
                (0, FrameId::new(7)),
                (9, FrameId::new(8)),
                (64, FrameId::new(9)),
                (300, FrameId::new(10)),
                (64, FrameId::new(11)),
                (511, FrameId::new(1 << 40)),
            ];
            store.write_leaves_at(batched, flags, &entries);
            for &(index, frame) in &entries {
                store.write_at(single, index, Pte::new(frame, flags));
            }
            assert_same_table(&store, batched, single);
            assert_eq!(store.read_at(batched, 64).frame(), Some(FrameId::new(11)));
        }
    }

    #[test]
    #[should_panic(expected = "present flag required")]
    fn a_batched_leaf_write_of_absent_flags_panics() {
        let mut store = PtStore::new();
        store.insert_table(FrameId::new(1), None);
        let slot = store.slot(FrameId::new(1));
        store.write_leaves_at(slot, PteFlags::default(), &[(0, FrameId::new(2))]);
    }

    /// The members of the ring of `frame`, from it.
    fn ring_members(store: &PtStore, frame: FrameId) -> Vec<FrameId> {
        store.ring(frame).map(|(member, _)| member).collect()
    }

    /// Stores a table in each of `frames` and links them into one ring.
    fn linked(frames: &[FrameId]) -> PtStore {
        let mut store = PtStore::new();
        for &frame in frames {
            store.insert_table(frame, None);
        }
        store.link_replicas(frames);
        store
    }

    /// One replica of a page-table page on each socket of a four-socket
    /// machine of 1,000 frames per socket.
    fn four_replicas() -> Vec<FrameId> {
        (0..4)
            .map(|socket| FrameId::new(socket * 1000 + 3))
            .collect()
    }

    #[test]
    fn a_ring_walks_its_members_in_order_from_any_member() {
        let frames = four_replicas();
        let mut store = PtStore::new();
        for &frame in &frames {
            store.insert_table(frame, None);
        }
        assert_eq!(ring_members(&store, frames[2]), vec![frames[2]]);
        store.link_replicas(&frames);
        assert_eq!(ring_members(&store, frames[0]), frames);
        assert_eq!(
            ring_members(&store, frames[2]),
            vec![frames[2], frames[3], frames[0], frames[1]]
        );
        for (member, slot) in store.ring(frames[1]) {
            assert_eq!(store.slot(member), slot);
        }
        // The walk that lets its caller write between steps visits the same
        // members.
        let mut walk = store.ring_walk(frames[3]);
        let mut walked = Vec::new();
        while let Some(member) = walk.next(&store) {
            walked.push(member);
        }
        assert!(walked.into_iter().eq(store.ring(frames[3])));
    }

    #[test]
    fn a_one_member_ring_is_not_replicated() {
        let store = linked(&[FrameId::new(7)]);
        assert_eq!(ring_members(&store, FrameId::new(7)), vec![FrameId::new(7)]);
    }

    #[test]
    fn unlinking_a_member_closes_the_ring_around_it() {
        let frames = four_replicas();
        let mut store = linked(&frames);
        store.unlink(store.slot(frames[1]));
        assert_eq!(ring_members(&store, frames[1]), vec![frames[1]]);
        assert_eq!(
            ring_members(&store, frames[3]),
            vec![frames[3], frames[0], frames[2]]
        );
        // Removing a table unlinks it the same way.
        store.remove_table(frames[0]);
        assert_eq!(ring_members(&store, frames[2]), vec![frames[2], frames[3]]);
        store.remove_table(frames[3]);
        assert_eq!(ring_members(&store, frames[2]), vec![frames[2]]);
    }

    #[test]
    fn a_recycled_slot_and_a_reinserted_table_start_with_no_ring_link() {
        let frames = four_replicas();
        let mut store = linked(&frames);
        // Re-inserting a member clears it like a fresh table, and the ring
        // closes without it.
        store.insert_table(frames[0], None);
        assert_eq!(ring_members(&store, frames[0]), vec![frames[0]]);
        assert_eq!(
            ring_members(&store, frames[1]),
            vec![frames[1], frames[2], frames[3]]
        );
        // Another table recycles a removed member's slot with no link.
        let slot = store.slot(frames[2]);
        store.remove_table(frames[2]);
        store.insert_table(FrameId::new(9), None);
        assert_eq!(store.slot(FrameId::new(9)), slot, "the slot was recycled");
        assert_eq!(ring_members(&store, FrameId::new(9)), vec![FrameId::new(9)]);
        assert_eq!(ring_members(&store, frames[3]), vec![frames[3], frames[1]]);
    }

    #[test]
    #[should_panic(expected = "corrupted ring")]
    fn a_ring_walk_stops_on_a_corrupted_ring() {
        // A 70-member ring cannot come from a machine of at most 64 sockets.
        let frames: Vec<FrameId> = (0..70).map(FrameId::new).collect();
        let store = linked(&frames);
        let _ = store.ring(frames[0]).count();
    }

    #[test]
    #[should_panic(expected = "cannot link an empty replica set")]
    fn linking_an_empty_set_panics() {
        PtStore::new().link_replicas(&[]);
    }

    #[test]
    fn table_frames_lists_live_tables_only() {
        let mut store = PtStore::new();
        for pfn in [5u64, 6, 7] {
            store.insert_table(FrameId::new(pfn), None);
        }
        store.remove_table(FrameId::new(6));
        let mut frames: Vec<u64> = store.table_frames().map(|f| f.pfn()).collect();
        frames.sort_unstable();
        assert_eq!(frames, vec![5, 7]);
    }
}
