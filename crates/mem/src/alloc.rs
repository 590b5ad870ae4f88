//! Per-socket physical frame allocator.
//!
//! The allocator stands in for the Linux buddy allocator.  Each socket has its
//! own pool of frames; requests either name a socket explicitly ("strict"
//! allocation, the mode page-table replication uses) or go through a
//! [`PlacementPolicy`](crate::PlacementPolicy) via
//! [`PolicyEngine`](crate::PolicyEngine).

use crate::error::MemError;
use crate::fragmentation::FragmentationModel;
use crate::frame::{FrameId, FrameSpace, FRAMES_PER_HUGE_PAGE};
use mitosis_numa::{Machine, SocketId};

/// Per-socket allocation state.
#[derive(Debug, Clone)]
struct SocketPool {
    /// First frame of the socket's range.
    start: u64,
    /// Next never-allocated frame (bump pointer within the socket's range).
    next: u64,
    /// End of the socket's range (exclusive).
    end: u64,
    /// Frames returned by `free` that can be reused for 4 KiB allocations.
    free_list: Vec<FrameId>,
    /// One bit per frame of `[start, next)`, set while the frame is
    /// allocated.  Frames above the bump pointer were never handed out, so
    /// the bitmap grows with `next` and costs nothing before allocation.
    in_use: Vec<u64>,
    /// Number of frames currently allocated.
    allocated: u64,
    /// High-water mark of allocated frames.
    peak_allocated: u64,
}

impl SocketPool {
    fn free_frames(&self) -> u64 {
        (self.end - self.next) + self.free_list.len() as u64
    }

    /// Moves the bump pointer to `next`, growing the bitmap to cover it.
    fn bump_to(&mut self, next: u64) {
        self.next = next;
        self.in_use
            .resize((next - self.start).div_ceil(64) as usize, 0);
    }

    fn is_set(&self, pfn: u64) -> bool {
        let bit = pfn - self.start;
        self.in_use
            .get((bit >> 6) as usize)
            .is_some_and(|word| word & (1 << (bit & 63)) != 0)
    }

    /// Marks an allocated frame; it must lie below the bump pointer.
    fn set(&mut self, pfn: u64) {
        let bit = pfn - self.start;
        self.in_use[(bit >> 6) as usize] |= 1 << (bit & 63);
    }

    /// Marks the `count` allocated frames from `pfn` a bitmap word at a
    /// time; they must lie below the bump pointer.
    fn set_run(&mut self, pfn: u64, count: u64) {
        let (mut bit, end) = (pfn - self.start, pfn - self.start + count);
        while bit < end {
            let word_end = (bit | 63) + 1;
            let bits = word_end.min(end) - bit;
            self.in_use[(bit >> 6) as usize] |= (u64::MAX >> (64 - bits)) << (bit & 63);
            bit += bits;
        }
    }

    /// Clears a frame's bit, returning `false` if it was not set.
    fn clear(&mut self, pfn: u64) -> bool {
        if !self.is_set(pfn) {
            return false;
        }
        let bit = pfn - self.start;
        self.in_use[(bit >> 6) as usize] &= !(1 << (bit & 63));
        true
    }

    fn count_allocation(&mut self, frames: u64) {
        self.allocated += frames;
        self.peak_allocated = self.peak_allocated.max(self.allocated);
    }
}

/// Allocation statistics for one socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Frames currently allocated on the socket.
    pub allocated_frames: u64,
    /// Peak number of simultaneously allocated frames.
    pub peak_allocated_frames: u64,
    /// Frames still available on the socket.
    pub free_frames: u64,
}

/// Per-socket physical frame allocator with huge-frame support and an
/// external-fragmentation model.
///
/// # Example
///
/// ```
/// use mitosis_numa::{MachineConfig, SocketId};
/// use mitosis_mem::FrameAllocator;
///
/// let machine = MachineConfig::two_socket_small().build();
/// let mut alloc = FrameAllocator::new(&machine);
/// let on_zero = alloc.alloc_on(SocketId::new(0))?;
/// let on_one = alloc.alloc_on(SocketId::new(1))?;
/// assert_ne!(on_zero, on_one);
/// alloc.free(on_zero)?;
/// # Ok::<(), mitosis_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    space: FrameSpace,
    pools: Vec<SocketPool>,
    fragmentation: FragmentationModel,
}

impl FrameAllocator {
    /// Creates an allocator covering the machine's physical memory.
    pub fn new(machine: &Machine) -> Self {
        FrameAllocator::with_frame_space(FrameSpace::new(machine))
    }

    /// Creates an allocator over an explicit frame space (useful for tests).
    pub fn with_frame_space(space: FrameSpace) -> Self {
        let pools = (0..space.sockets())
            .map(|s| {
                let range = space.range_of(SocketId::new(s as u16));
                SocketPool {
                    start: range.start.pfn(),
                    next: range.start.pfn(),
                    end: range.end.pfn(),
                    free_list: Vec::new(),
                    in_use: Vec::new(),
                    allocated: 0,
                    peak_allocated: 0,
                }
            })
            .collect();
        FrameAllocator {
            space,
            pools,
            fragmentation: FragmentationModel::none(),
        }
    }

    /// Installs an external-fragmentation model (affects huge allocations).
    pub fn set_fragmentation(&mut self, model: FragmentationModel) {
        self.fragmentation = model;
    }

    /// The frame space this allocator manages.
    pub fn frame_space(&self) -> &FrameSpace {
        &self.space
    }

    /// The pool owning `frame`, or `None` for a frame outside the machine.
    fn pool_of(&self, frame: FrameId) -> Option<usize> {
        self.space
            .contains(frame)
            .then(|| self.space.socket_of(frame).index())
    }

    /// Allocates one 4 KiB frame on exactly the given socket.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if the socket has no free frame.
    pub fn alloc_on(&mut self, socket: SocketId) -> Result<FrameId, MemError> {
        let pool = self
            .pools
            .get_mut(socket.index())
            .ok_or(MemError::OutOfMemory { socket })?;
        let frame = if let Some(frame) = pool.free_list.pop() {
            frame
        } else if pool.next < pool.end {
            let frame = FrameId::new(pool.next);
            pool.bump_to(pool.next + 1);
            frame
        } else {
            return Err(MemError::OutOfMemory { socket });
        };
        pool.set(frame.pfn());
        pool.count_allocation(1);
        Ok(frame)
    }

    /// Allocates up to `count` 4 KiB frames on exactly the given socket and
    /// appends them to `frames`, in the order as many [`Self::alloc_on`]
    /// calls would return them: the free list first, then one run of the
    /// never-allocated region, whose bitmap grows once.  Returns how many it
    /// allocated: fewer than `count` only when the socket ran dry, and none
    /// on a socket the machine lacks.
    pub fn alloc_run_on(
        &mut self,
        socket: SocketId,
        count: usize,
        frames: &mut Vec<FrameId>,
    ) -> usize {
        let Some(pool) = self.pools.get_mut(socket.index()) else {
            return 0;
        };
        let listed = count.min(pool.free_list.len());
        let from = frames.len();
        let kept = pool.free_list.len() - listed;
        frames.extend(pool.free_list.drain(kept..).rev());
        for frame in &frames[from..] {
            pool.set(frame.pfn());
        }
        let first = pool.next;
        let bumped = ((count - listed) as u64).min(pool.end - first);
        pool.bump_to(first + bumped);
        pool.set_run(first, bumped);
        frames.extend((first..first + bumped).map(FrameId::new));
        let taken = listed + bumped as usize;
        pool.count_allocation(taken as u64);
        taken
    }

    /// Number of 4 KiB frames [`Self::alloc_on`] can still hand out on
    /// `socket`: none on a socket the machine lacks.
    pub(crate) fn free_frames(&self, socket: SocketId) -> u64 {
        self.pools
            .get(socket.index())
            .map_or(0, SocketPool::free_frames)
    }

    /// Allocates one 4 KiB frame on the given socket, falling back to the
    /// other sockets in index order if it is full.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::MachineOutOfMemory`] if every socket is full.
    pub fn alloc_preferring(&mut self, socket: SocketId) -> Result<FrameId, MemError> {
        if let Ok(frame) = self.alloc_on(socket) {
            return Ok(frame);
        }
        for s in 0..self.space.sockets() {
            if s == socket.index() {
                continue;
            }
            if let Ok(frame) = self.alloc_on(SocketId::new(s as u16)) {
                return Ok(frame);
            }
        }
        Err(MemError::MachineOutOfMemory)
    }

    /// Allocates a 2 MiB-aligned run of 512 contiguous frames on the given
    /// socket, returning the first frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::HugeAllocationFailed`] if the socket cannot supply
    /// a contiguous aligned run, either because it is out of memory or
    /// because the fragmentation model rejects the request.
    pub fn alloc_huge_on(&mut self, socket: SocketId) -> Result<FrameId, MemError> {
        if self.fragmentation.huge_allocation_fails() {
            return Err(MemError::HugeAllocationFailed { socket });
        }
        let pool = self
            .pools
            .get_mut(socket.index())
            .ok_or(MemError::HugeAllocationFailed { socket })?;
        // Huge allocations are carved from the never-allocated region only;
        // the free list holds individual 4 KiB frames which we do not try to
        // coalesce (the fragmentation model covers that behaviour).
        let aligned = pool.next.div_ceil(FRAMES_PER_HUGE_PAGE) * FRAMES_PER_HUGE_PAGE;
        if aligned + FRAMES_PER_HUGE_PAGE > pool.end {
            return Err(MemError::HugeAllocationFailed { socket });
        }
        // Frames skipped for alignment go to the free list.
        for pfn in pool.next..aligned {
            pool.free_list.push(FrameId::new(pfn));
        }
        pool.bump_to(aligned + FRAMES_PER_HUGE_PAGE);
        pool.set_run(aligned, FRAMES_PER_HUGE_PAGE);
        pool.count_allocation(FRAMES_PER_HUGE_PAGE);
        Ok(FrameId::new(aligned))
    }

    /// Frees a previously allocated 4 KiB frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotAllocated`] if the frame is not currently
    /// allocated.
    pub fn free(&mut self, frame: FrameId) -> Result<(), MemError> {
        let pool = match self.pool_of(frame) {
            Some(socket) => &mut self.pools[socket],
            None => return Err(MemError::NotAllocated { pfn: frame.pfn() }),
        };
        if !pool.clear(frame.pfn()) {
            return Err(MemError::NotAllocated { pfn: frame.pfn() });
        }
        pool.free_list.push(frame);
        pool.allocated -= 1;
        Ok(())
    }

    /// Frees a 2 MiB run previously returned by [`Self::alloc_huge_on`].
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotAllocated`], naming the first such frame, if
    /// any frame of the run is not currently allocated.  The whole run is
    /// checked before any frame is freed, so a failed call changes nothing.
    pub fn free_huge(&mut self, first: FrameId) -> Result<(), MemError> {
        if let Some(stray) = (0..FRAMES_PER_HUGE_PAGE)
            .map(|i| first.offset(i))
            .find(|frame| !self.is_allocated(*frame))
        {
            return Err(MemError::NotAllocated { pfn: stray.pfn() });
        }
        for i in 0..FRAMES_PER_HUGE_PAGE {
            self.free(first.offset(i))?;
        }
        Ok(())
    }

    /// Returns `true` if `frame` is currently allocated.
    pub fn is_allocated(&self, frame: FrameId) -> bool {
        self.pool_of(frame)
            .is_some_and(|socket| self.pools[socket].is_set(frame.pfn()))
    }

    /// Number of frames currently allocated across the whole machine.
    pub fn total_allocated(&self) -> u64 {
        self.pools.iter().map(|p| p.allocated).sum()
    }

    /// Allocation statistics for one socket.
    pub fn stats(&self, socket: SocketId) -> AllocStats {
        let pool = &self.pools[socket.index()];
        AllocStats {
            allocated_frames: pool.allocated,
            peak_allocated_frames: pool.peak_allocated,
            free_frames: pool.free_frames(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_allocator() -> FrameAllocator {
        FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(2, 2048))
    }

    #[test]
    fn allocations_land_on_the_requested_socket() {
        let mut alloc = small_allocator();
        for _ in 0..16 {
            let f0 = alloc.alloc_on(SocketId::new(0)).unwrap();
            let f1 = alloc.alloc_on(SocketId::new(1)).unwrap();
            assert_eq!(alloc.frame_space().socket_of(f0), SocketId::new(0));
            assert_eq!(alloc.frame_space().socket_of(f1), SocketId::new(1));
        }
        assert_eq!(alloc.total_allocated(), 32);
    }

    #[test]
    fn strict_allocation_fails_when_socket_is_full() {
        let mut alloc = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(2, 4));
        for _ in 0..4 {
            alloc.alloc_on(SocketId::new(0)).unwrap();
        }
        assert_eq!(
            alloc.alloc_on(SocketId::new(0)),
            Err(MemError::OutOfMemory {
                socket: SocketId::new(0)
            })
        );
        // Preferring allocation falls over to socket 1.
        let fallback = alloc.alloc_preferring(SocketId::new(0)).unwrap();
        assert_eq!(alloc.frame_space().socket_of(fallback), SocketId::new(1));
    }

    #[test]
    fn freed_frames_are_reused() {
        let mut alloc = small_allocator();
        let f = alloc.alloc_on(SocketId::new(0)).unwrap();
        alloc.free(f).unwrap();
        assert!(!alloc.is_allocated(f));
        let g = alloc.alloc_on(SocketId::new(0)).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn double_free_is_an_error() {
        let mut alloc = small_allocator();
        let f = alloc.alloc_on(SocketId::new(0)).unwrap();
        alloc.free(f).unwrap();
        assert_eq!(alloc.free(f), Err(MemError::NotAllocated { pfn: f.pfn() }));
    }

    #[test]
    fn huge_allocations_are_aligned_and_contiguous() {
        let mut alloc = small_allocator();
        // Misalign the bump pointer first.
        let _ = alloc.alloc_on(SocketId::new(0)).unwrap();
        let huge = alloc.alloc_huge_on(SocketId::new(0)).unwrap();
        assert!(huge.is_huge_aligned());
        for i in 0..FRAMES_PER_HUGE_PAGE {
            assert!(alloc.is_allocated(huge.offset(i)));
        }
        alloc.free_huge(huge).unwrap();
        for i in 0..FRAMES_PER_HUGE_PAGE {
            assert!(!alloc.is_allocated(huge.offset(i)));
        }
    }

    #[test]
    fn huge_allocation_fails_under_full_fragmentation() {
        let mut alloc = small_allocator();
        alloc.set_fragmentation(FragmentationModel::with_probability(1.0));
        assert_eq!(
            alloc.alloc_huge_on(SocketId::new(0)),
            Err(MemError::HugeAllocationFailed {
                socket: SocketId::new(0)
            })
        );
        // Base-page allocation still succeeds.
        assert!(alloc.alloc_on(SocketId::new(0)).is_ok());
    }

    #[test]
    fn huge_allocation_fails_when_not_enough_contiguous_memory() {
        let mut alloc =
            FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(1, 100));
        assert!(alloc.alloc_huge_on(SocketId::new(0)).is_err());
    }

    #[test]
    fn membership_survives_a_clone_and_rejects_foreign_frames() {
        let mut alloc = small_allocator();
        let f = alloc.alloc_on(SocketId::new(1)).unwrap();
        let huge = alloc.alloc_huge_on(SocketId::new(0)).unwrap();
        let mut copy = alloc.clone();
        assert!(copy.is_allocated(f) && copy.is_allocated(huge.offset(511)));
        copy.free(f).unwrap();
        copy.free_huge(huge).unwrap();
        // The original is untouched by frees on the copy.
        assert!(alloc.is_allocated(f) && alloc.is_allocated(huge));
        // Frames never handed out, or outside the machine, are not
        // allocated and cannot be freed.
        for stray in [
            FrameId::new(2047),
            FrameId::new(4096),
            FrameId::new(1 << 40),
        ] {
            assert!(!alloc.is_allocated(stray));
            assert_eq!(
                alloc.free(stray),
                Err(MemError::NotAllocated { pfn: stray.pfn() })
            );
        }
    }

    #[test]
    fn a_failed_huge_free_frees_nothing() {
        let mut alloc = small_allocator();
        let huge = alloc.alloc_huge_on(SocketId::new(0)).unwrap();
        let hole = huge.offset(300);
        alloc.free(hole).unwrap();
        let run = || (0..FRAMES_PER_HUGE_PAGE).map(|i| huge.offset(i));
        let stats = alloc.stats(SocketId::new(0));
        let allocated: Vec<bool> = run().map(|f| alloc.is_allocated(f)).collect();
        assert_eq!(
            alloc.free_huge(huge),
            Err(MemError::NotAllocated { pfn: hole.pfn() })
        );
        assert_eq!(alloc.stats(SocketId::new(0)), stats);
        assert_eq!(
            run().map(|f| alloc.is_allocated(f)).collect::<Vec<_>>(),
            allocated
        );
        assert_eq!(run().filter(|f| alloc.is_allocated(*f)).count(), 511);
        // Refilling the hole makes the run whole again.
        assert_eq!(alloc.alloc_on(SocketId::new(0)), Ok(hole));
        alloc.free_huge(huge).unwrap();
        assert_eq!(alloc.stats(SocketId::new(0)).allocated_frames, 0);
    }

    #[test]
    fn stats_track_allocated_peak_and_free() {
        let mut alloc = small_allocator();
        let f = alloc.alloc_on(SocketId::new(0)).unwrap();
        let g = alloc.alloc_on(SocketId::new(0)).unwrap();
        alloc.free(f).unwrap();
        let stats = alloc.stats(SocketId::new(0));
        assert_eq!(stats.allocated_frames, 1);
        assert_eq!(stats.peak_allocated_frames, 2);
        assert_eq!(stats.free_frames, 2048 - 1);
        let _ = g;
    }
}
