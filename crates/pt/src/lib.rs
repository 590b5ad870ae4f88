//! x86-64 page-table substrate for the Mitosis reproduction.
//!
//! This crate models the radix page tables the paper's mechanism operates on,
//! together with the interception layer (Linux PV-Ops) Mitosis hooks:
//!
//! * [`VirtAddr`], [`PageSize`], [`Level`] — address arithmetic for the
//!   4-level x86-64 paging scheme (with 2 MiB and 1 GiB large pages).
//! * [`Pte`], [`PteFlags`] — page-table entries with present / writable /
//!   accessed / dirty / huge bits.
//! * [`PtStore`] — the contents of page-table pages in "physical memory"
//!   (512 entries per 4 KiB page-table frame).
//! * [`PvOps`] — the paravirtualised page-table interface (alloc / free /
//!   `set_pte` / root switch).  [`NativePvOps`] writes a single page-table;
//!   the Mitosis backend in the `mitosis` crate propagates writes to every
//!   replica via the circular replica list.
//! * [`Mapper`] — software map/unmap/protect/translate operations used by
//!   the virtual memory subsystem, always going through [`PvOps`].
//! * [`MappingTx`], [`ShootdownPlan`] — deferred TLB-consistency work: the
//!   exact page ranges, sizes and address spaces a batch of mutations
//!   invalidates, accumulated and flushed once (ranged shootdowns).
//! * [`PageTableDump`] — the analysis "kernel module" of paper §3.1: walks a
//!   page table and reports, per level and per socket, how many page-table
//!   pages exist and where their entries point (Figures 3 and 4).
//!
//! # Example
//!
//! ```
//! use mitosis_numa::{MachineConfig, SocketId};
//! use mitosis_pt::{Mapper, NativePvOps, PtContext, PteFlags, PageSize, VirtAddr, PtEnv};
//!
//! let machine = MachineConfig::two_socket_small().build();
//! let mut env = PtEnv::new(&machine);
//! let mut ops = NativePvOps::new();
//! let socket = SocketId::new(0);
//!
//! // Create an address space rooted on socket 0 and map one page.
//! let mut ctx = env.context();
//! let roots = Mapper::create_roots(&mut ops, &mut ctx, socket, Default::default())?;
//! let data = ctx.alloc.alloc_on(socket)?;
//! Mapper::new(&roots).map(
//!     &mut ops,
//!     &mut ctx,
//!     VirtAddr::new(0x4000_0000),
//!     data,
//!     PageSize::Base4K,
//!     PteFlags::user_data(),
//!     socket,
//!     Default::default(),
//! )?;
//! let translated = Mapper::new(&roots).translate(&ctx, VirtAddr::new(0x4000_0000));
//! assert_eq!(translated.unwrap().frame, data);
//! # Ok::<(), mitosis_pt::PtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod dump;
mod entry;
mod error;
mod mapper;
mod ops;
mod store;
mod tx;
mod walk;

pub use addr::{Level, PageSize, VirtAddr, ENTRIES_PER_TABLE};
pub use dump::{DumpLevelSocket, PageTableDump, PteLocality};
pub use entry::{Pte, PteFlags};
pub use error::PtError;
pub use mapper::{Mapper, PtRoots};
pub use ops::{
    NativePvOps, PtContext, PtEnv, PtOpStats, PvOps, ReplicationSpec, DEFAULT_PAGE_CACHE_TARGET,
};
pub use store::{AccessedDirty, EntryMask, PtSlot, PtStore, RingWalk};
pub use tx::{MappingTx, ShootdownPlan, ShootdownRange};
pub use walk::{
    check_writable_range, for_each_table, iter_leaf_mappings, table_at, translate, translate_entry,
    LeafMapping, RangeGap, Translation,
};
