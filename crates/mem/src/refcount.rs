//! Copy-on-write frame sharing counts.
//!
//! After a fork, parent and child map the same data frames read-only; each
//! shared frame carries a share count here.  A frame absent from the table
//! is exclusively owned (the overwhelmingly common case), so the table only
//! ever holds the currently-shared frames.  Counts live in a two-level
//! directory indexed by frame number — the layout `PtStore` uses — so
//! every query and update is two array indexations; a fork sharing
//! hundreds of thousands of frames and the copy-on-write faults that
//! follow pay no tree search.

use crate::frame::FrameId;

/// Frames per directory chunk (and the shift that selects the chunk).
const DIR_SHIFT: u32 = 12;
const CHUNK_FRAMES: usize = 1 << DIR_SHIFT;

/// Share counts for copy-on-write frames.
///
/// Only frames shared by more than one mapping appear in the table; the
/// count is the number of mappings referencing the frame.  Dropping to one
/// reference removes the entry (the frame is exclusive again).  A count of
/// 0 in the directory means "not shared"; a chunk is allocated when the
/// first frame it covers is shared.
#[derive(Debug, Clone, Default)]
pub struct CowRefCounts {
    dir: Vec<Option<Box<[u32; CHUNK_FRAMES]>>>,
    shared: usize,
}

impl CowRefCounts {
    /// Creates an empty table (every frame exclusively owned).
    pub fn new() -> Self {
        CowRefCounts::default()
    }

    /// The stored count of `frame`: 0 when it is not shared.
    fn count(&self, frame: FrameId) -> u32 {
        self.dir
            .get((frame.pfn() >> DIR_SHIFT) as usize)
            .and_then(Option::as_ref)
            .map_or(0, |chunk| chunk[frame.pfn() as usize & (CHUNK_FRAMES - 1)])
    }

    /// The stored count of `frame`, allocating its chunk on first use.
    fn count_mut(&mut self, frame: FrameId) -> &mut u32 {
        let chunk = (frame.pfn() >> DIR_SHIFT) as usize;
        if chunk >= self.dir.len() {
            self.dir.resize(chunk + 1, None);
        }
        let chunk = self.dir[chunk].get_or_insert_with(|| Box::new([0; CHUNK_FRAMES]));
        &mut chunk[frame.pfn() as usize & (CHUNK_FRAMES - 1)]
    }

    /// Returns the number of mappings referencing `frame` (1 when the frame
    /// is not shared).
    pub fn references(&self, frame: FrameId) -> u32 {
        self.count(frame).max(1)
    }

    /// Returns `true` when `frame` is mapped by more than one owner.
    pub fn is_shared(&self, frame: FrameId) -> bool {
        self.count(frame) != 0
    }

    /// Records one additional mapping of `frame` (fork sharing a frame
    /// between parent and child).
    pub fn share(&mut self, frame: FrameId) {
        let count = self.count_mut(frame);
        if *count == 0 {
            *count = 2;
            self.shared += 1;
        } else {
            *count += 1;
        }
    }

    /// Records one additional mapping of each of `frames`, in order: one
    /// [`CowRefCounts::share`] per frame, in one loop the caller's crate
    /// compiles, with the shared-frame count kept in a local until the end
    /// (a fork shares a leaf table's frames at once).
    pub fn share_all(&mut self, frames: impl IntoIterator<Item = FrameId>) {
        let mut newly_shared = 0;
        for frame in frames {
            let count = self.count_mut(frame);
            newly_shared += usize::from(*count == 0);
            *count += 1 + u32::from(*count == 0);
        }
        self.shared += newly_shared;
    }

    /// Drops one mapping of `frame`; returns `true` when the caller held
    /// the last reference and now owns the frame exclusively (and may free
    /// or write it in place).
    pub fn release(&mut self, frame: FrameId) -> bool {
        if !self.is_shared(frame) {
            return true;
        }
        let count = self.count_mut(frame);
        if *count <= 2 {
            *count = 0;
            self.shared -= 1;
        } else {
            *count -= 1;
        }
        false
    }

    /// Number of currently shared frames.
    pub fn shared_frames(&self) -> usize {
        self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unshared_frames_are_exclusive() {
        let counts = CowRefCounts::new();
        assert_eq!(counts.references(FrameId::new(5)), 1);
        assert!(!counts.is_shared(FrameId::new(5)));
        assert_eq!(counts.shared_frames(), 0);
    }

    #[test]
    fn sharing_many_frames_equals_sharing_each() {
        let frames: Vec<FrameId> = [3, 4, 3, 4097, 9000, 3].map(FrameId::new).to_vec();
        let (mut batched, mut single) = (CowRefCounts::new(), CowRefCounts::new());
        batched.share(FrameId::new(4));
        single.share(FrameId::new(4));
        batched.share_all(frames.iter().copied());
        frames.iter().for_each(|&frame| single.share(frame));
        assert_eq!(batched.shared_frames(), single.shared_frames());
        for pfn in [3, 4, 5, 4097, 9000] {
            let frame = FrameId::new(pfn);
            assert_eq!(
                batched.references(frame),
                single.references(frame),
                "{frame}"
            );
        }
        assert_eq!(batched.references(FrameId::new(3)), 4);
    }

    #[test]
    fn share_and_release_round_trip() {
        let mut counts = CowRefCounts::new();
        let frame = FrameId::new(9);
        counts.share(frame);
        assert_eq!(counts.references(frame), 2);
        assert!(counts.is_shared(frame));
        // First release: the other owner keeps the frame.
        assert!(!counts.release(frame));
        assert!(!counts.is_shared(frame));
        assert_eq!(counts.references(frame), 1);
        // Now exclusive: releasing reports last-reference.
        assert!(counts.release(frame));
    }

    #[test]
    fn many_owners_count_down_one_at_a_time() {
        let mut counts = CowRefCounts::new();
        let frame = FrameId::new(3);
        counts.share(frame);
        counts.share(frame);
        assert_eq!(counts.references(frame), 3);
        assert!(!counts.release(frame));
        assert_eq!(counts.references(frame), 2);
        assert!(!counts.release(frame));
        assert_eq!(counts.references(frame), 1);
        assert!(counts.release(frame));
    }
}
