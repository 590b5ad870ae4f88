//! Page-table page metadata — the part of the simulator's `struct page`
//! that Mitosis reads.
//!
//! Linux keeps a `struct page` for every physical frame; Mitosis augments
//! the one of each page-table page with a pointer that threads all replicas
//! of that page into a circular linked list (paper §5.2, Figure 8).  That
//! list is what allows an update intercepted at the PV-Ops layer to reach
//! every replica in 2N memory references instead of walking N page-tables.
//!
//! Only page-table pages have an entry.  Nothing in the simulator reads
//! per-frame state of a data frame: its socket follows from its frame
//! number ([`FrameSpace::socket_of`]), whether it is allocated lives in the
//! allocator, and a leaf entry pointing at it is copied to every replica
//! verbatim.  An entry per data frame would cost a populate more than its
//! page-table writes, so data frames are untracked: an untracked frame is
//! a data frame.
//!
//! The table is backed by a slot slab plus a two-level directory indexed by
//! frame number — the same handle trick `PtStore` uses for page-table
//! contents — instead of a hash map: lookups hash nothing and replica-ring
//! hops are two array indexations.

use crate::frame::{FrameId, FrameSpace};
use mitosis_numa::SocketId;

/// Metadata kept for one page-table page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageMeta {
    /// Radix-tree level of the page (1 = leaf/PTE level, 4 = root).
    level: u8,
    /// Next frame in the circular list of replicas of the same logical
    /// page-table page.  `None` when the page is not replicated.
    replica_next: Option<FrameId>,
}

/// Frames per directory chunk (and the shift that selects the chunk).
const DIR_SHIFT: u32 = 12;
const CHUNK_FRAMES: usize = 1 << DIR_SHIFT;
/// Directory sentinel: "this frame has no slot".
const NO_SLOT: u32 = u32::MAX;

/// The machine-wide table of page-table page metadata: each page's level
/// and its replica ring.
///
/// Only page-table pages have entries (see the module documentation for
/// why data frames have none).  Entries live in a slab (`slots`) reached
/// through a two-level directory (`dir[pfn >> 12][pfn & 0xfff]`), so
/// lookup, insert and remove are O(1) without hashing.
///
/// # Example
///
/// ```
/// use mitosis_mem::{FrameId, FrameSpace, FrameTable};
///
/// let space = FrameSpace::with_frames_per_socket(2, 1024);
/// let mut table = FrameTable::new(space);
/// table.insert(FrameId::new(3), 1);
/// assert_eq!(table.level(FrameId::new(3)), Some(1));
/// assert_eq!(table.level(FrameId::new(4)), None);
/// ```
#[derive(Debug, Clone)]
pub struct FrameTable {
    space: FrameSpace,
    /// Metadata slab; freed slots are kept on `free` and identified by
    /// `NO_SLOT` directory entries, so a free slot's contents are stale and
    /// never read.
    slots: Vec<PageMeta>,
    free: Vec<u32>,
    dir: Vec<Option<Box<[u32; CHUNK_FRAMES]>>>,
    len: usize,
}

impl FrameTable {
    /// Creates an empty frame table over the given frame space.
    pub fn new(space: FrameSpace) -> Self {
        FrameTable {
            space,
            slots: Vec::new(),
            free: Vec::new(),
            dir: Vec::new(),
            len: 0,
        }
    }

    /// The frame space this table describes.
    pub fn frame_space(&self) -> &FrameSpace {
        &self.space
    }

    fn slot_of(&self, frame: FrameId) -> Option<u32> {
        let chunk = (frame.pfn() >> DIR_SHIFT) as usize;
        let slot = *self
            .dir
            .get(chunk)?
            .as_ref()?
            .get(frame.pfn() as usize & (CHUNK_FRAMES - 1))?;
        (slot != NO_SLOT).then_some(slot)
    }

    fn dir_entry_mut(&mut self, frame: FrameId) -> &mut u32 {
        let chunk = (frame.pfn() >> DIR_SHIFT) as usize;
        if chunk >= self.dir.len() {
            self.dir.resize(chunk + 1, None);
        }
        let chunk = self.dir[chunk].get_or_insert_with(|| Box::new([NO_SLOT; CHUNK_FRAMES]));
        &mut chunk[frame.pfn() as usize & (CHUNK_FRAMES - 1)]
    }

    /// Records a newly allocated page-table page at `level` (1..=4),
    /// replacing any previous entry and its replica link.
    pub fn insert(&mut self, frame: FrameId, level: u8) {
        let meta = PageMeta {
            level,
            replica_next: None,
        };
        match self.slot_of(frame) {
            Some(slot) => self.slots[slot as usize] = meta,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slots[slot as usize] = meta;
                        slot
                    }
                    None => {
                        self.slots.push(meta);
                        (self.slots.len() - 1) as u32
                    }
                };
                *self.dir_entry_mut(frame) = slot;
                self.len += 1;
            }
        }
    }

    /// Forgets a freed page-table page and returns its level, or `None` if
    /// the frame was not tracked.
    pub fn remove(&mut self, frame: FrameId) -> Option<u8> {
        let slot = self.slot_of(frame)?;
        *self.dir_entry_mut(frame) = NO_SLOT;
        self.free.push(slot);
        self.len -= 1;
        Some(self.slots[slot as usize].level)
    }

    fn get(&self, frame: FrameId) -> Option<&PageMeta> {
        self.slot_of(frame).map(|s| &self.slots[s as usize])
    }

    fn get_mut(&mut self, frame: FrameId) -> Option<&mut PageMeta> {
        self.slot_of(frame).map(|s| &mut self.slots[s as usize])
    }

    /// The level of a page-table page, or `None` for any other frame.
    pub fn level(&self, frame: FrameId) -> Option<u8> {
        self.get(frame).map(|m| m.level)
    }

    /// Returns the socket that owns a frame (derived from the frame space).
    pub fn socket_of(&self, frame: FrameId) -> SocketId {
        self.space.socket_of(frame)
    }

    /// Number of tracked page-table pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no page-table page is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // --- Replica ring management (paper §5.2, Figure 8) -------------------

    /// Links `frames` into a circular replica list.  Each frame's
    /// `replica_next` points to the next frame, and the last points back to
    /// the first.  A single frame forms a self-loop, which is treated as
    /// "not replicated" by [`Self::replicas_of`].
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or if any frame is untracked.
    pub fn link_replicas(&mut self, frames: &[FrameId]) {
        assert!(!frames.is_empty(), "cannot link an empty replica set");
        for (i, &frame) in frames.iter().enumerate() {
            let next = frames[(i + 1) % frames.len()];
            let meta = self.get_mut(frame).expect("replica frame must be tracked");
            meta.replica_next = if frames.len() == 1 { None } else { Some(next) };
        }
    }

    /// Removes `frame` from its replica ring, patching the ring around it.
    /// Returns the remaining ring members (excluding `frame`).
    pub fn unlink_replica(&mut self, frame: FrameId) -> Vec<FrameId> {
        let ring = self.replicas_of(frame);
        let remaining: Vec<FrameId> = ring.into_iter().filter(|f| *f != frame).collect();
        if let Some(meta) = self.get_mut(frame) {
            meta.replica_next = None;
        }
        if !remaining.is_empty() {
            self.link_replicas(&remaining);
        }
        remaining
    }

    /// Walks `frame`'s replica ring without allocating, yielding `frame`
    /// first and then every other member in ring order.  A non-replicated
    /// frame yields just itself, at the cost of one metadata probe.
    ///
    /// # Panics
    ///
    /// The iterator panics if the ring has more than 64 members (the
    /// maximum socket count), which means the ring is corrupted.
    pub fn ring(&self, frame: FrameId) -> impl Iterator<Item = FrameId> + '_ {
        let mut cursor = Some(frame);
        let mut yielded = 0;
        std::iter::from_fn(move || {
            let current = cursor?;
            yielded += 1;
            assert!(
                yielded <= 64,
                "replica ring longer than the maximum socket count; corrupted ring?"
            );
            cursor = self
                .get(current)
                .and_then(|m| m.replica_next)
                .filter(|next| *next != frame);
            Some(current)
        })
    }

    /// Returns every member of `frame`'s replica ring, starting with `frame`
    /// itself.  A non-replicated frame yields just `[frame]`.
    pub fn replicas_of(&self, frame: FrameId) -> Vec<FrameId> {
        self.ring(frame).collect()
    }

    /// Returns the replica of `frame` that lives on `socket`, if any.
    pub fn replica_on_socket(&self, frame: FrameId, socket: SocketId) -> Option<FrameId> {
        self.ring(frame)
            .find(|f| self.space.socket_of(*f) == socket)
    }

    /// Returns `true` if `frame` participates in a replica ring of more than
    /// one page.
    pub fn is_replicated(&self, frame: FrameId) -> bool {
        self.get(frame).and_then(|m| m.replica_next).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FrameTable {
        FrameTable::new(FrameSpace::with_frames_per_socket(4, 1000))
    }

    #[test]
    fn insert_level_remove() {
        let mut t = table();
        t.insert(FrameId::new(5), 2);
        assert_eq!(t.level(FrameId::new(5)), Some(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(FrameId::new(5)), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.level(FrameId::new(5)), None);
        assert_eq!(t.remove(FrameId::new(5)), None);
    }

    #[test]
    fn reinsert_resets_replica_link() {
        let mut t = table();
        let frames = [FrameId::new(1), FrameId::new(1001)];
        for &f in &frames {
            t.insert(f, 1);
        }
        t.link_replicas(&frames);
        assert!(t.is_replicated(frames[0]));
        // Replacing an entry behaves like a fresh map insert: the old
        // metadata — including the ring link — is discarded.
        t.insert(frames[0], 1);
        assert!(!t.is_replicated(frames[0]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut t = table();
        for pfn in 0..100 {
            t.insert(FrameId::new(pfn), 1);
        }
        for pfn in 0..50 {
            t.remove(FrameId::new(pfn));
        }
        assert_eq!(t.len(), 50);
        for pfn in 2000..2050 {
            t.insert(FrameId::new(pfn), 2);
        }
        assert_eq!(t.len(), 100);
        for pfn in 0..50 {
            assert_eq!(t.level(FrameId::new(pfn)), None);
        }
        for pfn in 50..100 {
            assert_eq!(t.level(FrameId::new(pfn)), Some(1));
        }
        for pfn in 2000..2050 {
            assert_eq!(t.level(FrameId::new(pfn)), Some(2));
        }
    }

    #[test]
    fn replica_ring_links_all_members() {
        let mut t = table();
        // One page-table page replica per socket: frames 10, 1010, 2010, 3010.
        let frames: Vec<FrameId> = (0..4).map(|s| FrameId::new(s * 1000 + 10)).collect();
        for &f in &frames {
            t.insert(f, 2);
        }
        t.link_replicas(&frames);
        for &f in &frames {
            assert!(t.is_replicated(f));
            let ring = t.replicas_of(f);
            assert_eq!(ring.len(), 4);
            assert_eq!(ring[0], f);
        }
        assert_eq!(
            t.replica_on_socket(frames[0], SocketId::new(2)),
            Some(frames[2])
        );
    }

    #[test]
    fn single_frame_ring_is_not_replicated() {
        let mut t = table();
        t.insert(FrameId::new(7), 1);
        t.link_replicas(&[FrameId::new(7)]);
        assert!(!t.is_replicated(FrameId::new(7)));
        assert_eq!(t.replicas_of(FrameId::new(7)), vec![FrameId::new(7)]);
    }

    #[test]
    fn unlink_patches_the_ring() {
        let mut t = table();
        let frames: Vec<FrameId> = (0..3).map(|s| FrameId::new(s * 1000 + 1)).collect();
        for &f in &frames {
            t.insert(f, 1);
        }
        t.link_replicas(&frames);
        let mut remaining = t.unlink_replica(frames[1]);
        remaining.sort();
        assert_eq!(remaining, vec![frames[0], frames[2]]);
        assert!(!t.is_replicated(frames[1]));
        assert_eq!(t.replicas_of(frames[0]).len(), 2);
        assert_eq!(
            t.replica_on_socket(frames[0], SocketId::new(1)),
            None,
            "socket 1 replica was unlinked"
        );
    }

    #[test]
    fn ring_walks_members_in_order_starting_anywhere() {
        let mut t = table();
        let frames: Vec<FrameId> = (0..4).map(|s| FrameId::new(s * 1000 + 3)).collect();
        for &f in &frames {
            t.insert(f, 1);
        }
        assert_eq!(t.ring(frames[2]).collect::<Vec<_>>(), vec![frames[2]]);
        t.link_replicas(&frames);
        assert_eq!(t.ring(frames[0]).collect::<Vec<_>>(), frames);
        assert_eq!(
            t.ring(frames[2]).collect::<Vec<_>>(),
            vec![frames[2], frames[3], frames[0], frames[1]]
        );
        // An untracked frame is its own one-member ring.
        assert_eq!(
            t.ring(FrameId::new(42)).collect::<Vec<_>>(),
            vec![FrameId::new(42)]
        );
    }

    #[test]
    #[should_panic(expected = "corrupted ring")]
    fn ring_walk_stops_on_a_corrupted_ring() {
        let mut t = FrameTable::new(FrameSpace::with_frames_per_socket(1, 4096));
        let frames: Vec<FrameId> = (0..70).map(FrameId::new).collect();
        for &f in &frames {
            t.insert(f, 1);
        }
        // A 70-member ring cannot come from a machine of at most 64 sockets.
        t.link_replicas(&frames);
        let _ = t.ring(frames[0]).count();
    }

    #[test]
    #[should_panic(expected = "cannot link an empty replica set")]
    fn linking_empty_set_panics() {
        let mut t = table();
        t.link_replicas(&[]);
    }
}
