//! Physical memory management substrate for the Mitosis reproduction.
//!
//! This crate plays the role of the Linux buddy allocator plus the pieces of
//! the physical-memory bookkeeping that Mitosis relies on:
//!
//! * [`FrameSpace`] — the machine's physical address space split into
//!   per-socket ranges of 4 KiB frames (`FrameId` ↦ socket).
//! * [`FrameAllocator`] — per-socket frame allocation with support for 2 MiB
//!   huge frames, strict ("this socket or fail") and policy-driven requests,
//!   and an external-fragmentation model that makes huge-frame allocation
//!   fail as the machine ages (paper §8.2, Figure 11).
//! * [`PlacementPolicy`] — first-touch, interleave, fixed and preferred data
//!   placement, mirroring Linux/numactl allocation policies.
//! * [`PageCache`] — per-socket reserved pools of frames for page-table
//!   allocations, sized through a sysctl-like knob (paper §5.1).
//! * [`CowRefCounts`] — share counts of copy-on-write data frames.
//!
//! The crate keeps no per-frame metadata otherwise.  A frame's socket
//! follows from its frame number, and the `struct page` state Mitosis reads
//! (the replica ring of each page-table page, paper §5.2) lives with the
//! page-table page in `mitosis_pt::PtStore`.
//!
//! # Example
//!
//! ```
//! use mitosis_numa::MachineConfig;
//! use mitosis_mem::{FrameAllocator, PlacementPolicy};
//! use mitosis_numa::SocketId;
//!
//! let machine = MachineConfig::two_socket_small().build();
//! let mut alloc = FrameAllocator::new(&machine);
//! let frame = alloc.alloc_on(SocketId::new(1))?;
//! assert_eq!(alloc.frame_space().socket_of(frame), SocketId::new(1));
//! # Ok::<(), mitosis_mem::MemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod error;
mod fragmentation;
mod frame;
mod page_cache;
mod policy;
mod refcount;

pub use alloc::{AllocStats, FrameAllocator};
pub use error::MemError;
pub use fragmentation::FragmentationModel;
pub use frame::{
    FrameId, FrameRange, FrameSpace, BASE_PAGE_SIZE, FRAMES_PER_HUGE_PAGE, HUGE_PAGE_SIZE,
};
pub use page_cache::PageCache;
pub use policy::{InterleaveState, PlacementPolicy, PolicyEngine};
pub use refcount::CowRefCounts;
