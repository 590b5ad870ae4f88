//! Data-page placement policies.
//!
//! These mirror the Linux/numactl allocation policies used throughout the
//! paper's evaluation matrix (Tables 2 and 3): first-touch (the default),
//! interleave, and explicit binding to a socket.  The policy decides *which
//! socket* a freshly faulted page should come from; the
//! [`FrameAllocator`](crate::FrameAllocator) then performs the allocation.

use crate::alloc::FrameAllocator;
use crate::error::MemError;
use crate::frame::FrameId;
use mitosis_numa::{NodeMask, SocketId};

/// A data-page placement policy, as selectable through `numactl` / `mbind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Allocate on the socket of the thread that first touches the page
    /// (Linux's default policy).
    #[default]
    FirstTouch,
    /// Round-robin pages across the sockets of the mask
    /// (`numactl --interleave`).
    Interleave(NodeMask),
    /// Allocate strictly on one socket (`numactl --membind`); allocation
    /// fails if that socket is out of memory.
    Bind(SocketId),
    /// Prefer one socket but fall back to others (`numactl --preferred`).
    Preferred(SocketId),
}

impl PlacementPolicy {
    /// Convenience constructor for interleaving over all sockets of an
    /// `n`-socket machine.
    pub fn interleave_all(sockets: usize) -> Self {
        PlacementPolicy::Interleave(NodeMask::all(sockets))
    }
}

/// Mutable state needed by the interleave policy (the round-robin cursor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterleaveState {
    next: usize,
}

/// Applies a [`PlacementPolicy`] to pick sockets and allocate frames.
///
/// # Example
///
/// ```
/// use mitosis_numa::{MachineConfig, SocketId};
/// use mitosis_mem::{FrameAllocator, PlacementPolicy, PolicyEngine};
///
/// let machine = MachineConfig::two_socket_small().build();
/// let mut alloc = FrameAllocator::new(&machine);
/// let mut engine = PolicyEngine::new(PlacementPolicy::interleave_all(2));
/// let a = engine.alloc_data(&mut alloc, SocketId::new(0))?;
/// let b = engine.alloc_data(&mut alloc, SocketId::new(0))?;
/// assert_ne!(
///     alloc.frame_space().socket_of(a),
///     alloc.frame_space().socket_of(b),
/// );
/// # Ok::<(), mitosis_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    policy: PlacementPolicy,
    interleave: InterleaveState,
}

impl PolicyEngine {
    /// Creates an engine for the given policy.
    pub fn new(policy: PlacementPolicy) -> Self {
        PolicyEngine {
            policy,
            interleave: InterleaveState::default(),
        }
    }

    /// The policy this engine applies.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Replaces the policy (keeps the interleave cursor).
    pub fn set_policy(&mut self, policy: PlacementPolicy) {
        self.policy = policy;
    }

    /// Decides which socket the next data page should be placed on, given the
    /// socket of the faulting thread.
    pub fn choose_socket(&mut self, faulting_socket: SocketId) -> SocketId {
        match self.policy {
            PlacementPolicy::FirstTouch => faulting_socket,
            PlacementPolicy::Bind(socket) | PlacementPolicy::Preferred(socket) => socket,
            PlacementPolicy::Interleave(mask) => {
                if mask.is_empty() {
                    return faulting_socket;
                }
                let count = mask.count();
                let socket = mask
                    .nth(self.interleave.next % count)
                    .expect("the cursor indexes a socket of the mask");
                self.interleave.next = (self.interleave.next + 1) % count;
                socket
            }
        }
    }

    /// Chooses a socket and allocates one data frame according to the policy.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors; `Bind` is strict while the other policies
    /// fall back to any socket with free memory.
    pub fn alloc_data(
        &mut self,
        alloc: &mut FrameAllocator,
        faulting_socket: SocketId,
    ) -> Result<FrameId, MemError> {
        let target = self.choose_socket(faulting_socket);
        match self.policy {
            PlacementPolicy::Bind(_) => alloc.alloc_on(target),
            _ => alloc.alloc_preferring(target),
        }
    }

    /// Allocates `count` data frames for consecutive faults of a thread on
    /// `faulting_socket` and appends them to `frames`: exactly what `count`
    /// [`Self::alloc_data`] calls would return, in order, leaving the same
    /// allocator state and interleave cursor.  The policy's socket gives
    /// one run and each fallback socket, in index order, one more.  Under
    /// interleave, each socket of the mask gives one run of its share of
    /// the window, laid out in cursor order, unless a socket is too short
    /// for its share: then the window goes page by page, so that
    /// [`FrameAllocator::alloc_preferring`]'s fallback decides each page.
    ///
    /// # Errors
    ///
    /// Returns the error of the first allocation that would fail, after
    /// appending the frames allocated before it.
    pub fn alloc_data_run(
        &mut self,
        alloc: &mut FrameAllocator,
        faulting_socket: SocketId,
        count: usize,
        frames: &mut Vec<FrameId>,
    ) -> Result<(), MemError> {
        match self.policy {
            PlacementPolicy::Interleave(mask) if !mask.is_empty() => {
                if !self.alloc_interleaved_run(alloc, mask, count, frames) {
                    for _ in 0..count {
                        frames.push(self.alloc_data(alloc, faulting_socket)?);
                    }
                }
                return Ok(());
            }
            _ => {}
        }
        let target = self.choose_socket(faulting_socket);
        let mut left = count - alloc.alloc_run_on(target, count, frames);
        if let PlacementPolicy::Bind(_) = self.policy {
            return match left {
                0 => Ok(()),
                _ => Err(MemError::OutOfMemory { socket: target }),
            };
        }
        // `FrameAllocator::alloc_preferring`'s fallback order.
        for s in (0..alloc.frame_space().sockets()).filter(|&s| s != target.index()) {
            left -= alloc.alloc_run_on(SocketId::new(s as u16), left, frames);
        }
        match left {
            0 => Ok(()),
            _ => Err(MemError::MachineOutOfMemory),
        }
    }

    /// The interleaved window of [`Self::alloc_data_run`] when every socket
    /// of the non-empty `mask` can supply its share: the page at cursor
    /// position `p` takes the mask's socket `p % sockets`, so each socket's
    /// share is one [`FrameAllocator::alloc_run_on`] run, staged in
    /// `frames` after the window's slots and then laid out into them in
    /// cursor order.  Returns `false`, allocating nothing and leaving the
    /// cursor, if a socket has fewer free frames than its share.
    fn alloc_interleaved_run(
        &mut self,
        alloc: &mut FrameAllocator,
        mask: NodeMask,
        count: usize,
        frames: &mut Vec<FrameId>,
    ) -> bool {
        if count == 0 {
            return true;
        }
        let sockets = mask.count();
        let first = self.interleave.next % sockets;
        // Position `i` of the mask serves one page in each full round of
        // the window, and one more if the partial round reaches it.
        let (rounds, rest) = (count / sockets, count % sockets);
        let share = |i: usize| rounds + usize::from((i + sockets - first) % sockets < rest);
        if mask
            .iter()
            .enumerate()
            .any(|(i, socket)| alloc.free_frames(socket) < share(i) as u64)
        {
            return false;
        }
        // The window's slots first, then each socket's run after them.
        let window = frames.len();
        frames.resize(window + count, FrameId::new(0));
        let mut next = [0; 64];
        for (i, socket) in mask.iter().enumerate() {
            next[i] = frames.len() - window - count;
            alloc.alloc_run_on(socket, share(i), frames);
        }
        let (slots, runs) = frames[window..].split_at_mut(count);
        let mut i = first;
        for slot in slots {
            *slot = runs[next[i]];
            next[i] += 1;
            i = if i + 1 == sockets { 0 } else { i + 1 };
        }
        frames.truncate(window + count);
        self.interleave.next = i;
        true
    }

    /// Chooses a socket and allocates a 2 MiB huge frame according to the
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::HugeAllocationFailed`] if the chosen socket cannot
    /// supply a huge frame; the caller (THP logic) decides whether to fall
    /// back to base pages.
    pub fn alloc_huge_data(
        &mut self,
        alloc: &mut FrameAllocator,
        faulting_socket: SocketId,
    ) -> Result<FrameId, MemError> {
        let target = self.choose_socket(faulting_socket);
        alloc.alloc_huge_on(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameSpace;

    fn alloc() -> FrameAllocator {
        FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(4, 4096))
    }

    #[test]
    fn first_touch_allocates_on_faulting_socket() {
        let mut a = alloc();
        let mut engine = PolicyEngine::new(PlacementPolicy::FirstTouch);
        for s in 0..4u16 {
            let frame = engine.alloc_data(&mut a, SocketId::new(s)).unwrap();
            assert_eq!(a.frame_space().socket_of(frame), SocketId::new(s));
        }
    }

    #[test]
    fn interleave_round_robins_across_the_mask() {
        let mut a = alloc();
        let mask = NodeMask::from_sockets([SocketId::new(1), SocketId::new(3)]);
        let mut engine = PolicyEngine::new(PlacementPolicy::Interleave(mask));
        let sockets: Vec<usize> = (0..6)
            .map(|_| {
                let f = engine.alloc_data(&mut a, SocketId::new(0)).unwrap();
                a.frame_space().socket_of(f).index()
            })
            .collect();
        assert_eq!(sockets, vec![1, 3, 1, 3, 1, 3]);
    }

    #[test]
    fn interleave_picks_the_sockets_iter_nth_would() {
        let masks = [
            NodeMask::from_bits(0b1101),
            NodeMask::single(SocketId::new(1)),
            NodeMask::all(4),
            NodeMask::from_bits(1 << 63 | 1 << 5 | 1),
        ];
        for mask in masks {
            let mut engine = PolicyEngine::new(PlacementPolicy::Interleave(mask));
            let count = mask.count();
            for page in 0..3 * count + 1 {
                assert_eq!(
                    Some(engine.choose_socket(SocketId::new(0))),
                    mask.iter().nth(page % count),
                    "page {page} of {mask}"
                );
            }
        }
    }

    #[test]
    fn bind_is_strict() {
        let mut a = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(2, 2));
        let mut engine = PolicyEngine::new(PlacementPolicy::Bind(SocketId::new(1)));
        assert!(engine.alloc_data(&mut a, SocketId::new(0)).is_ok());
        assert!(engine.alloc_data(&mut a, SocketId::new(0)).is_ok());
        assert_eq!(
            engine.alloc_data(&mut a, SocketId::new(0)),
            Err(MemError::OutOfMemory {
                socket: SocketId::new(1)
            })
        );
    }

    #[test]
    fn preferred_falls_back_when_full() {
        let mut a = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(2, 2));
        let mut engine = PolicyEngine::new(PlacementPolicy::Preferred(SocketId::new(1)));
        let _ = engine.alloc_data(&mut a, SocketId::new(0)).unwrap();
        let _ = engine.alloc_data(&mut a, SocketId::new(0)).unwrap();
        let spill = engine.alloc_data(&mut a, SocketId::new(0)).unwrap();
        assert_eq!(a.frame_space().socket_of(spill), SocketId::new(0));
    }

    #[test]
    fn empty_interleave_mask_falls_back_to_first_touch() {
        let mut engine = PolicyEngine::new(PlacementPolicy::Interleave(NodeMask::EMPTY));
        assert_eq!(engine.choose_socket(SocketId::new(2)), SocketId::new(2));
    }

    #[test]
    fn huge_allocation_respects_policy() {
        let mut a = alloc();
        let mut engine = PolicyEngine::new(PlacementPolicy::Bind(SocketId::new(2)));
        let frame = engine.alloc_huge_data(&mut a, SocketId::new(0)).unwrap();
        assert_eq!(a.frame_space().socket_of(frame), SocketId::new(2));
        assert!(frame.is_huge_aligned());
    }
}
