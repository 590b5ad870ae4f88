//! Hardware address-translation model: TLBs, paging-structure caches and the
//! page walker.
//!
//! On a TLB miss the x86-64 page walker issues up to four memory reads, one
//! per page-table level.  Which of those reads go to local DRAM, remote DRAM
//! or a cache is exactly what Mitosis changes, so this crate models:
//!
//! * [`Tlb`] / [`TlbHierarchy`] — a two-level data TLB (64-entry L1 plus
//!   1024-entry unified L2, matching the paper's Xeon E7-4850v3), with
//!   separate L1 entries for 2 MiB pages;
//! * [`PagingStructureCache`] — the MMU-internal caches of upper-level
//!   entries that let the walker skip levels (Barr et al., ISCA'10);
//! * [`PteCacheSet`] — a per-socket model of page-table cache lines resident
//!   in the last-level cache (8 PTEs per 64-byte line).  This is what makes
//!   2 MiB-page GUPS insensitive to remote page-tables in the paper (§8.2);
//! * [`HardwareWalker`] — the walker itself: consults the paging-structure
//!   caches, charges local/remote DRAM latency per level, sets
//!   accessed/dirty bits in the replica it walks, and reports statistics;
//! * [`Mmu`] — the per-core front end, split into a [`TlbHalf`] (the TLBs)
//!   and a [`WalkHalf`] (paging-structure caches and walker) that
//!   [`Mmu::access`] composes and the execution engine can run on separate
//!   host threads;
//! * [`step`] — the execution engine's per-access steps over those parts,
//!   below the observability layer (`mitosis-obs` depends on this crate).
//!
//! See [`Mmu::access`] for the per-access flow and the `mitosis-sim` crate
//! for full end-to-end examples of driving the MMU against a real page table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lru;
mod mmu;
mod plan;
mod pte_cache;
mod pwc;
mod stats;
pub mod step;
mod tlb;
mod walker;

pub use mmu::{AccessOutcome, Mmu, TlbHalf, WalkHalf};
pub use plan::PlanView;
pub use pte_cache::{PteCache, PteCacheSet};
pub use pwc::PagingStructureCache;
pub use stats::{MmuStats, WalkStats};
pub use tlb::{Tlb, TlbHierarchy, TlbHit, TlbLevel};
pub use walker::{HardwareWalker, WalkOutcome};
