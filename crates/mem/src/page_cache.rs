//! Per-socket reserved page caches for page-table allocations.
//!
//! Page-table replication requires *strict* allocation: a replica for socket
//! `s` is useless unless it is physically on socket `s`.  Strict allocation
//! can fail when a socket's memory is exhausted, so the paper reserves a
//! per-socket pool of frames for page-table pages, sized through a sysctl
//! (§5.1).  This module implements that reserve.

use crate::alloc::FrameAllocator;
use crate::error::MemError;
use crate::frame::FrameId;
use mitosis_numa::SocketId;

/// Per-socket reserve of frames dedicated to page-table pages.
///
/// # Example
///
/// ```
/// use mitosis_numa::{MachineConfig, SocketId};
/// use mitosis_mem::{FrameAllocator, PageCache};
///
/// let machine = MachineConfig::two_socket_small().build();
/// let mut alloc = FrameAllocator::new(&machine);
/// let mut cache = PageCache::new(2, 16);
/// cache.refill(&mut alloc)?;
/// let frame = cache.alloc_pagetable_frame(&mut alloc, SocketId::new(1))?;
/// assert_eq!(alloc.frame_space().socket_of(frame), SocketId::new(1));
/// # Ok::<(), mitosis_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PageCache {
    reserves: Vec<Vec<FrameId>>,
    target_per_socket: usize,
}

impl PageCache {
    /// Creates a page cache for `sockets` sockets with a per-socket target
    /// reserve of `target_per_socket` frames (the sysctl knob).
    pub fn new(sockets: usize, target_per_socket: usize) -> Self {
        PageCache {
            reserves: vec![Vec::new(); sockets],
            target_per_socket,
        }
    }

    /// Changes the per-socket reserve target.  Takes effect on the next
    /// [`Self::refill`].
    pub fn set_target(&mut self, target_per_socket: usize) {
        self.target_per_socket = target_per_socket;
    }

    /// The configured per-socket reserve target.
    pub fn target(&self) -> usize {
        self.target_per_socket
    }

    /// Number of reserved frames currently held for `socket` (0 for a
    /// socket the machine lacks).
    pub fn reserved(&self, socket: SocketId) -> usize {
        self.reserves.get(socket.index()).map_or(0, Vec::len)
    }

    /// Tops up every socket's reserve to the configured target.
    ///
    /// # Errors
    ///
    /// Returns the first strict-allocation failure encountered; reserves
    /// filled before the failure are kept.
    pub fn refill(&mut self, alloc: &mut FrameAllocator) -> Result<(), MemError> {
        for s in 0..self.reserves.len() {
            let socket = SocketId::new(s as u16);
            while self.reserves[s].len() < self.target_per_socket {
                let frame = alloc.alloc_on(socket)?;
                self.reserves[s].push(frame);
            }
        }
        Ok(())
    }

    /// Allocates a frame for a page-table page that should live on `socket`.
    ///
    /// Tries strict allocation first and falls back to the socket's reserve,
    /// mirroring the paper's design where the reserve exists to absorb strict
    /// allocation failures.  If the reserve is also empty, the allocation
    /// spills to another socket as stock Linux would (the resulting
    /// page-table page is then simply remote).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] for a socket the machine lacks, and
    /// [`MemError::PageCacheEmpty`] if strict allocation, the reserve and
    /// the machine-wide fallback all fail.
    pub fn alloc_pagetable_frame(
        &mut self,
        alloc: &mut FrameAllocator,
        socket: SocketId,
    ) -> Result<FrameId, MemError> {
        let reserve = self
            .reserves
            .get_mut(socket.index())
            .ok_or(MemError::OutOfMemory { socket })?;
        if let Ok(frame) = alloc.alloc_on(socket) {
            return Ok(frame);
        }
        if let Some(frame) = reserve.pop() {
            return Ok(frame);
        }
        alloc
            .alloc_preferring(socket)
            .map_err(|_| MemError::PageCacheEmpty { socket })
    }

    /// Returns a no-longer-needed page-table frame to the socket's reserve if
    /// below target, otherwise frees it back to the allocator.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors if the frame has to be freed and is not
    /// currently allocated.
    pub fn release_pagetable_frame(
        &mut self,
        alloc: &mut FrameAllocator,
        frame: FrameId,
    ) -> Result<(), MemError> {
        let socket = alloc.frame_space().socket_of(frame);
        let reserve = &mut self.reserves[socket.index()];
        if reserve.len() < self.target_per_socket {
            reserve.push(frame);
            Ok(())
        } else {
            alloc.free(frame)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameSpace;

    #[test]
    fn refill_reaches_the_target_on_every_socket() {
        let mut alloc = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(2, 64));
        let mut cache = PageCache::new(2, 8);
        cache.refill(&mut alloc).unwrap();
        assert_eq!(cache.reserved(SocketId::new(0)), 8);
        assert_eq!(cache.reserved(SocketId::new(1)), 8);
        assert_eq!(alloc.total_allocated(), 16);
    }

    #[test]
    fn reserve_absorbs_strict_allocation_failure() {
        let mut alloc = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(1, 4));
        let mut cache = PageCache::new(1, 2);
        cache.refill(&mut alloc).unwrap();
        // Exhaust the socket.
        while alloc.alloc_on(SocketId::new(0)).is_ok() {}
        // Strict allocation now fails, but the reserve serves the request.
        let frame = cache
            .alloc_pagetable_frame(&mut alloc, SocketId::new(0))
            .unwrap();
        assert_eq!(alloc.frame_space().socket_of(frame), SocketId::new(0));
        assert_eq!(cache.reserved(SocketId::new(0)), 1);
        // Drain the reserve and verify the error.
        let _ = cache
            .alloc_pagetable_frame(&mut alloc, SocketId::new(0))
            .unwrap();
        assert_eq!(
            cache.alloc_pagetable_frame(&mut alloc, SocketId::new(0)),
            Err(MemError::PageCacheEmpty {
                socket: SocketId::new(0)
            })
        );
    }

    #[test]
    fn released_frames_top_up_the_reserve_then_go_back_to_the_allocator() {
        let mut alloc = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(1, 64));
        let mut cache = PageCache::new(1, 1);
        let a = cache
            .alloc_pagetable_frame(&mut alloc, SocketId::new(0))
            .unwrap();
        let b = cache
            .alloc_pagetable_frame(&mut alloc, SocketId::new(0))
            .unwrap();
        cache.release_pagetable_frame(&mut alloc, a).unwrap();
        assert_eq!(cache.reserved(SocketId::new(0)), 1);
        cache.release_pagetable_frame(&mut alloc, b).unwrap();
        assert_eq!(cache.reserved(SocketId::new(0)), 1);
        assert!(!alloc.is_allocated(b));
        assert!(alloc.is_allocated(a));
    }

    #[test]
    fn a_socket_the_machine_lacks_is_an_error_not_a_panic() {
        let mut alloc = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(2, 64));
        let mut cache = PageCache::new(2, 1);
        cache.refill(&mut alloc).unwrap();
        let missing = SocketId::new(9);
        assert_eq!(cache.reserved(missing), 0);
        assert_eq!(
            cache.alloc_pagetable_frame(&mut alloc, missing),
            Err(MemError::OutOfMemory { socket: missing })
        );
        // Nothing was taken from another socket's memory or reserve.
        assert_eq!(alloc.total_allocated(), 2);
        assert_eq!(cache.reserved(SocketId::new(0)), 1);
        assert_eq!(cache.reserved(SocketId::new(1)), 1);
    }

    #[test]
    fn set_target_changes_refill_behaviour() {
        let mut alloc = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(1, 64));
        let mut cache = PageCache::new(1, 0);
        cache.refill(&mut alloc).unwrap();
        assert_eq!(cache.reserved(SocketId::new(0)), 0);
        cache.set_target(4);
        assert_eq!(cache.target(), 4);
        cache.refill(&mut alloc).unwrap();
        assert_eq!(cache.reserved(SocketId::new(0)), 4);
    }
}
