//! The paravirtualised page-table interface (PV-Ops).
//!
//! Linux routes page-table allocation, freeing and entry writes through the
//! `paravirt_ops` indirection layer so hypervisors like Xen can intercept
//! them.  The paper implements Mitosis as a *new PV-Ops backend* next to the
//! native and Xen ones (paper §5.2, Listing 1).  This module defines the
//! equivalent interface for the simulator:
//!
//! * [`PvOps`] — the trait the virtual memory subsystem calls for every
//!   page-table mutation;
//! * [`NativePvOps`] — the pass-through backend (stock Linux behaviour);
//! * the Mitosis backend lives in the `mitosis` crate and propagates every
//!   write to all replicas.
//!
//! [`PtEnv`]/[`PtContext`] bundle the physical-memory state every backend
//! needs (page-table pages with their replica rings, allocator and
//! per-socket page cache) so that backends themselves stay stateless apart
//! from statistics.  Every backend takes page-table frames through one
//! allocate path and one free path, [`PtContext::alloc_table_frame`] and
//! [`PtContext::free_table_frame`].

use crate::entry::{Pte, PteFlags};
use crate::error::PtError;
use crate::mapper::PtRoots;
use crate::store::{AccessedDirty, EntryMask, PtSlot, PtStore};
use mitosis_mem::{FrameAllocator, FrameId, MemError, PageCache};
use mitosis_numa::{Machine, NodeMask, SocketId};

/// Number of page-table frames each socket keeps in reserve by default.
/// Corresponds to the sysctl knob of paper §5.1.
pub const DEFAULT_PAGE_CACHE_TARGET: usize = 64;

/// Replication request attached to an address space.
///
/// An empty mask means "no replication" (native behaviour).  A non-empty mask
/// requests one page-table replica on every socket in the mask, which is what
/// `numa_set_pgtable_replication_mask` installs in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicationSpec {
    mask: NodeMask,
}

impl ReplicationSpec {
    /// No replication: a single page-table, as in stock Linux.
    pub fn none() -> Self {
        ReplicationSpec {
            mask: NodeMask::EMPTY,
        }
    }

    /// Replicate page-tables on every socket in `mask`.
    pub fn on(mask: NodeMask) -> Self {
        ReplicationSpec { mask }
    }

    /// Replicate page-tables on every socket of an `n`-socket machine.
    pub fn all_sockets(n: usize) -> Self {
        ReplicationSpec {
            mask: NodeMask::all(n),
        }
    }

    /// The replication mask.
    pub fn mask(&self) -> NodeMask {
        self.mask
    }

    /// Returns `true` if replication is requested (non-empty mask).
    pub fn is_enabled(&self) -> bool {
        !self.mask.is_empty()
    }

    /// Returns the sockets replicas should exist on.
    pub fn sockets(&self) -> Vec<SocketId> {
        self.mask.iter().collect()
    }
}

/// Counters describing the page-table work a backend has performed.
///
/// The paper's Table 5 (VMA-operation overheads) is derived from these: with
/// 4-way replication every `set_pte` turns into four entry writes plus the
/// replica-ring traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PtOpStats {
    /// Page-table entry writes performed on primary tables.
    pub pte_writes: u64,
    /// Additional entry writes performed on replicas.
    pub replica_pte_writes: u64,
    /// Reads of the replica ring performed to locate replicas.
    pub replica_ring_reads: u64,
    /// Page-table pages allocated (including replicas).
    pub tables_allocated: u64,
    /// Page-table pages freed (including replicas).
    pub tables_freed: u64,
}

impl PtOpStats {
    /// Total memory references attributable to page-table maintenance,
    /// in units of one entry access.
    pub fn total_references(&self) -> u64 {
        self.pte_writes + self.replica_pte_writes + self.replica_ring_reads
    }
}

/// Owner of all physical page-table state: page-table pages and their
/// replica rings, allocator and the per-socket page cache.
#[derive(Debug, Clone)]
pub struct PtEnv {
    /// Page-table pages: their contents and replica rings.
    pub store: PtStore,
    /// The machine's frame allocator.
    pub alloc: FrameAllocator,
    /// Per-socket reserves for page-table frames.
    pub page_cache: PageCache,
}

impl PtEnv {
    /// Creates the environment for a machine, with the default page-cache
    /// reserve target.
    pub fn new(machine: &Machine) -> Self {
        PtEnv {
            store: PtStore::new(),
            alloc: FrameAllocator::new(machine),
            page_cache: PageCache::new(machine.sockets(), DEFAULT_PAGE_CACHE_TARGET),
        }
    }

    /// Borrows every component as a [`PtContext`] for use by a backend.
    pub fn context(&mut self) -> PtContext<'_> {
        PtContext {
            store: &mut self.store,
            alloc: &mut self.alloc,
            page_cache: &mut self.page_cache,
        }
    }
}

/// Mutable view of the page-table environment handed to [`PvOps`] calls.
#[derive(Debug)]
pub struct PtContext<'a> {
    /// Page-table pages: their contents and replica rings.
    pub store: &'a mut PtStore,
    /// The machine's frame allocator.
    pub alloc: &'a mut FrameAllocator,
    /// Per-socket reserves for page-table frames.
    pub page_cache: &'a mut PageCache,
}

impl PtContext<'_> {
    /// Allocates a page-table frame on `socket` from the page cache and
    /// stores a table there, in a replica ring of its own: a copy of the
    /// table behind `copy_of`, or an empty one
    /// ([`PtStore::insert_table`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the socket has no frame left.
    pub fn alloc_table_frame(
        &mut self,
        socket: SocketId,
        copy_of: Option<PtSlot>,
    ) -> Result<FrameId, MemError> {
        let frame = self.page_cache.alloc_pagetable_frame(self.alloc, socket)?;
        self.store.insert_table(frame, copy_of);
        Ok(frame)
    }

    /// Removes the table in `frame` from the store, closing its replica
    /// ring around it, and returns the frame to the page cache.
    ///
    /// # Errors
    ///
    /// Returns an error if the frame was not allocated (double free).
    pub fn free_table_frame(&mut self, frame: FrameId) -> Result<(), MemError> {
        self.store.remove_table(frame);
        self.page_cache.release_pagetable_frame(self.alloc, frame)
    }

    /// The member of the replica ring of the table in `frame` that lives
    /// on `socket`: the first one in ring order from `frame`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not a page-table page.
    pub fn replica_on_socket(&self, frame: FrameId, socket: SocketId) -> Option<FrameId> {
        let space = self.alloc.frame_space();
        self.store
            .ring(frame)
            .map(|(member, _)| member)
            .find(|&member| space.socket_of(member) == socket)
    }
}

/// The paravirtualised page-table operations interface.
///
/// Every page-table mutation the virtual memory subsystem performs goes
/// through this trait, exactly as Linux routes them through PV-Ops.  The
/// native backend writes one table; the Mitosis backend keeps all replicas
/// consistent.
///
/// Backends are plain state machines over the [`PtContext`] they are handed
/// — `Send + Sync` so a prepared system snapshot (which owns its backend)
/// can be shared across replay worker threads, and [`PvOps::clone_box`] so
/// such a snapshot can be cloned without knowing the concrete backend type.
pub trait PvOps: std::fmt::Debug + Send + Sync {
    /// Allocates a page-table page homed on `socket`.
    ///
    /// With replication enabled the backend additionally allocates one
    /// replica per socket in the replication mask and links them into a
    /// circular list; the returned frame is the replica on `socket` when one
    /// exists there.
    ///
    /// # Errors
    ///
    /// Returns an error if physical memory (or the per-socket page cache) is
    /// exhausted.
    fn alloc_table(
        &mut self,
        ctx: &mut PtContext<'_>,
        socket: SocketId,
        repl: &ReplicationSpec,
    ) -> Result<FrameId, PtError>;

    /// Releases a page-table page and every replica linked to it.
    ///
    /// # Errors
    ///
    /// Returns an error if a frame was not allocated (double free).
    fn release_table(&mut self, ctx: &mut PtContext<'_>, frame: FrameId) -> Result<(), PtError>;

    /// Writes the entry at `index` of `table`, propagating to replicas.
    fn set_pte(&mut self, ctx: &mut PtContext<'_>, table: FrameId, index: usize, pte: Pte);

    /// Maps several data frames through the leaf table `table`, each
    /// `(index, frame)` as a present entry with `flags`, propagating to
    /// replicas: Linux's `set_ptes()`.  The result and the statistics are
    /// exactly those of one [`PvOps::set_pte`] of `Pte::new(frame, flags)`
    /// per pair, in order, but the table and its replica ring are resolved
    /// once and the flags encoded once for the whole batch
    /// ([`PtStore::write_leaves_at`]).
    fn set_leaf_ptes(
        &mut self,
        ctx: &mut PtContext<'_>,
        table: FrameId,
        flags: PteFlags,
        entries: &[(usize, FrameId)],
    );

    /// Rewrites the protection of the present leaf entries `leaves` of
    /// `table` to `flags`, propagating to replicas: each entry keeps its
    /// frame, its large-page bit and the accessed/dirty bits of every
    /// replica.  The result and the statistics are exactly those of one
    /// [`Mapper::protect_entry`](crate::Mapper::protect_entry) per entry,
    /// but the accessed/dirty bits are ORed across the replica ring table
    /// by table ([`PtStore::gather_accessed_dirty_at`]) and each ring
    /// member is written once ([`PtStore::protect_leaves_at`]).
    fn protect_leaves(
        &mut self,
        ctx: &mut PtContext<'_>,
        table: FrameId,
        flags: PteFlags,
        leaves: &EntryMask,
    );

    /// Reads the entry at `index` of `table`.  Accessed/dirty bits reflect
    /// every replica (logical OR), as the paper's extended PV-Ops getters do.
    fn read_pte(&self, ctx: &PtContext<'_>, table: FrameId, index: usize) -> Pte;

    /// Clears accessed and dirty bits of the entry in `table` and all its
    /// replicas.
    fn clear_accessed_dirty(&mut self, ctx: &mut PtContext<'_>, table: FrameId, index: usize);

    /// Selects the page-table root a core on `socket` should load into CR3.
    fn select_root(&self, roots: &PtRoots, socket: SocketId) -> FrameId {
        roots.root_for_socket(socket)
    }

    /// Statistics accumulated since creation or the last reset.
    fn stats(&self) -> PtOpStats;

    /// Resets the statistics counters.
    fn reset_stats(&mut self);

    /// Clones the backend (including accumulated statistics) into a new
    /// box — the object-safe hook behind `Box<dyn PvOps>: Clone`, which is
    /// what lets a whole [`System`](../mitosis_vmm) be snapshotted.
    fn clone_box(&self) -> Box<dyn PvOps>;
}

impl Clone for Box<dyn PvOps> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The pass-through PV-Ops backend: stock Linux behaviour, one page-table per
/// process, no replication.
#[derive(Debug, Clone, Default)]
pub struct NativePvOps {
    stats: PtOpStats,
}

impl NativePvOps {
    /// Creates a native backend.
    pub fn new() -> Self {
        NativePvOps::default()
    }
}

impl PvOps for NativePvOps {
    fn alloc_table(
        &mut self,
        ctx: &mut PtContext<'_>,
        socket: SocketId,
        _repl: &ReplicationSpec,
    ) -> Result<FrameId, PtError> {
        let frame = ctx.alloc_table_frame(socket, None)?;
        self.stats.tables_allocated += 1;
        Ok(frame)
    }

    fn release_table(&mut self, ctx: &mut PtContext<'_>, frame: FrameId) -> Result<(), PtError> {
        ctx.free_table_frame(frame)?;
        self.stats.tables_freed += 1;
        Ok(())
    }

    fn set_pte(&mut self, ctx: &mut PtContext<'_>, table: FrameId, index: usize, pte: Pte) {
        ctx.store.write(table, index, pte);
        self.stats.pte_writes += 1;
    }

    fn set_leaf_ptes(
        &mut self,
        ctx: &mut PtContext<'_>,
        table: FrameId,
        flags: PteFlags,
        entries: &[(usize, FrameId)],
    ) {
        let slot = ctx.store.slot(table);
        ctx.store.write_leaves_at(slot, flags, entries);
        self.stats.pte_writes += entries.len() as u64;
    }

    fn protect_leaves(
        &mut self,
        ctx: &mut PtContext<'_>,
        table: FrameId,
        flags: PteFlags,
        leaves: &EntryMask,
    ) {
        let slot = ctx.store.slot(table);
        let mut bits = AccessedDirty::default();
        ctx.store.gather_accessed_dirty_at(slot, leaves, &mut bits);
        ctx.store.protect_leaves_at(slot, flags, leaves, &bits);
        self.stats.pte_writes += leaves.len() as u64;
    }

    fn read_pte(&self, ctx: &PtContext<'_>, table: FrameId, index: usize) -> Pte {
        ctx.store.read(table, index)
    }

    fn clear_accessed_dirty(&mut self, ctx: &mut PtContext<'_>, table: FrameId, index: usize) {
        let slot = ctx.store.slot(table);
        let pte = ctx.store.read_at(slot, index);
        if pte.is_present() {
            ctx.store.write_at(slot, index, pte.with_ad_cleared());
            self.stats.pte_writes += 1;
        }
    }

    fn stats(&self) -> PtOpStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = PtOpStats::default();
    }

    fn clone_box(&self) -> Box<dyn PvOps> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ENTRIES_PER_TABLE;
    use mitosis_numa::MachineConfig;

    fn env() -> PtEnv {
        PtEnv::new(&MachineConfig::two_socket_small().build())
    }

    #[test]
    fn native_alloc_places_table_on_requested_socket() {
        let mut env = env();
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let frame = ops
            .alloc_table(&mut ctx, SocketId::new(1), &ReplicationSpec::none())
            .unwrap();
        assert_eq!(ctx.alloc.frame_space().socket_of(frame), SocketId::new(1));
        assert!(ctx.store.contains(frame));
        assert_eq!(ops.stats().tables_allocated, 1);
    }

    #[test]
    fn native_set_and_read_pte() {
        let mut env = env();
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, SocketId::new(0), &ReplicationSpec::none())
            .unwrap();
        let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
        ops.set_pte(&mut ctx, table, 7, Pte::new(data, PteFlags::user_data()));
        assert_eq!(ops.read_pte(&ctx, table, 7).frame(), Some(data));
        assert_eq!(ops.stats().pte_writes, 1);
        assert_eq!(ops.stats().replica_pte_writes, 0);
    }

    #[test]
    fn native_set_leaf_ptes_matches_one_set_pte_per_entry() {
        let machine = MachineConfig::new(4, 1)
            .with_memory_per_socket(64 * 1024 * 1024)
            .build();
        for members in [1, 4] {
            // A leaf table whose ring (when 4) links a table on every
            // socket: the native backend writes the table alone either way.
            let mut env = PtEnv::new(&machine);
            let mut ops = NativePvOps::new();
            let mut ctx = env.context();
            let ring: Vec<FrameId> = (0..members)
                .map(|s| {
                    ops.alloc_table(&mut ctx, SocketId::new(s), &ReplicationSpec::none())
                        .unwrap()
                })
                .collect();
            ctx.store.link_replicas(&ring);
            let data: Vec<FrameId> = (0..4)
                .map(|_| ctx.alloc.alloc_on(SocketId::new(0)).unwrap())
                .collect();
            ops.set_pte(
                &mut ctx,
                ring[0],
                300,
                Pte::new(data[3], PteFlags::user_data()),
            );
            // Read-only leaves over a writable one, an index written twice
            // and the first and last entries.
            let flags = PteFlags::user_readonly();
            let batch = [
                (0, data[0]),
                (7, data[1]),
                (7, data[2]),
                (300, data[1]),
                (511, data[3]),
            ];
            let (mut single_env, mut single_ops) = (env.clone(), ops.clone());
            let mut single = single_env.context();
            for &(index, frame) in &batch {
                single_ops.set_pte(&mut single, ring[0], index, Pte::new(frame, flags));
            }
            let mut batched = env.context();
            ops.set_leaf_ptes(&mut batched, ring[0], flags, &batch);
            assert_eq!(ops.stats(), single_ops.stats());
            assert_eq!(ops.stats().pte_writes, 6);
            for &member in &ring {
                let (a, b) = (batched.store.slot(member), single.store.slot(member));
                for index in 0..ENTRIES_PER_TABLE {
                    assert_eq!(
                        batched.store.read_at(a, index),
                        single.store.read_at(b, index)
                    );
                }
                assert_eq!(batched.store.masks_at(a), single.store.masks_at(b));
            }
            assert_eq!(
                batched.store.read(ring[0], 7).frame(),
                Some(data[2]),
                "the later write of an index wins"
            );
        }
    }

    #[test]
    fn native_clear_accessed_dirty() {
        let mut env = env();
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, SocketId::new(0), &ReplicationSpec::none())
            .unwrap();
        let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
        ops.set_pte(
            &mut ctx,
            table,
            0,
            Pte::new(data, PteFlags::user_data())
                .with_accessed()
                .with_dirty(),
        );
        ops.clear_accessed_dirty(&mut ctx, table, 0);
        let pte = ops.read_pte(&ctx, table, 0);
        assert!(!pte.flags().accessed);
        assert!(!pte.flags().dirty);
        // Clearing an empty entry is a no-op.
        ops.clear_accessed_dirty(&mut ctx, table, 1);
    }

    #[test]
    fn native_release_returns_frame() {
        let mut env = env();
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, SocketId::new(0), &ReplicationSpec::none())
            .unwrap();
        ops.release_table(&mut ctx, table).unwrap();
        assert!(!ctx.store.contains(table));
        assert_eq!(ops.stats().tables_freed, 1);
    }

    #[test]
    fn replication_spec_accessors() {
        assert!(!ReplicationSpec::none().is_enabled());
        let spec = ReplicationSpec::all_sockets(4);
        assert!(spec.is_enabled());
        assert_eq!(spec.sockets().len(), 4);
        assert_eq!(spec.mask(), NodeMask::all(4));
        let single = ReplicationSpec::on(NodeMask::single(SocketId::new(2)));
        assert_eq!(single.sockets(), vec![SocketId::new(2)]);
    }

    #[test]
    fn stats_reset() {
        let mut ops = NativePvOps::new();
        ops.stats.pte_writes = 5;
        ops.reset_stats();
        assert_eq!(ops.stats().total_references(), 0);
    }
}
