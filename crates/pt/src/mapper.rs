//! Software page-table construction and modification.
//!
//! The [`Mapper`] is the piece of the virtual memory subsystem that builds
//! and edits radix page-tables.  Every mutation goes through the [`PvOps`]
//! backend, which is what lets Mitosis transparently keep replicas in sync.

use crate::addr::{Level, PageSize, VirtAddr};
use crate::entry::{Pte, PteFlags};
use crate::error::PtError;
use crate::ops::{PtContext, PvOps, ReplicationSpec};
use crate::walk::{self, LeafMapping, Translation};
use mitosis_mem::FrameId;
use mitosis_numa::SocketId;

/// The per-socket page-table roots of one address space.
///
/// Without replication every socket shares the base root (stock Linux: one
/// CR3 value per process).  With Mitosis, socket `s` points at the root
/// replica that lives on socket `s` (paper §5.3), and the scheduler loads
/// that value on context switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtRoots {
    base: FrameId,
    per_socket: Vec<FrameId>,
}

impl PtRoots {
    /// Creates roots for an `sockets`-socket machine, all referring to the
    /// single base root.
    pub fn single(base: FrameId, sockets: usize) -> Self {
        PtRoots {
            base,
            per_socket: vec![base; sockets],
        }
    }

    /// The base (original) root.
    pub fn base(&self) -> FrameId {
        self.base
    }

    /// Number of sockets this root array covers.
    pub fn sockets(&self) -> usize {
        self.per_socket.len()
    }

    /// The root a core on `socket` should use.
    pub fn root_for_socket(&self, socket: SocketId) -> FrameId {
        self.per_socket[socket.index()]
    }

    /// Installs a per-socket root (used when replicas are created).
    pub fn set_root_for_socket(&mut self, socket: SocketId, root: FrameId) {
        self.per_socket[socket.index()] = root;
    }

    /// Resets every socket to the base root (replicas torn down).
    pub fn reset_to_base(&mut self) {
        let base = self.base;
        for entry in &mut self.per_socket {
            *entry = base;
        }
    }

    /// Changes the base root (used by page-table migration when the original
    /// replica is freed and a replica on another socket becomes primary).
    pub fn set_base(&mut self, base: FrameId) {
        self.base = base;
    }

    /// Returns the distinct roots currently installed.
    pub fn distinct_roots(&self) -> Vec<FrameId> {
        let mut roots = self.per_socket.clone();
        roots.push(self.base);
        roots.sort();
        roots.dedup();
        roots
    }
}

/// Software operations on one address space's page tables.
///
/// `Mapper` is a thin, borrowing view over a [`PtRoots`]; all state lives in
/// the [`PtContext`] and the backend.
#[derive(Debug, Clone, Copy)]
pub struct Mapper<'a> {
    roots: &'a PtRoots,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper over the given roots.
    pub fn new(roots: &'a PtRoots) -> Self {
        Mapper { roots }
    }

    /// Allocates a root (L4) table homed on `socket` and returns the root
    /// array for the machine.  With replication enabled, per-socket roots
    /// point at the root replicas.
    ///
    /// # Errors
    ///
    /// Returns an error if physical memory is exhausted.
    pub fn create_roots(
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        socket: SocketId,
        repl: ReplicationSpec,
    ) -> Result<PtRoots, PtError> {
        let base = ops.alloc_table(ctx, socket, &repl)?;
        let sockets = ctx.alloc.frame_space().sockets();
        let mut roots = PtRoots::single(base, sockets);
        for s in 0..sockets {
            let socket_id = SocketId::new(s as u16);
            if let Some(replica) = ctx.replica_on_socket(base, socket_id) {
                roots.set_root_for_socket(socket_id, replica);
            }
        }
        Ok(roots)
    }

    /// Maps `size` bytes of virtual memory at `addr` to the physical page
    /// starting at `frame`.
    ///
    /// Intermediate page-table pages are allocated on `pt_socket` (subject to
    /// the backend's replication behaviour).
    ///
    /// # Errors
    ///
    /// * [`PtError::Misaligned`] if `addr` is not `size`-aligned,
    /// * [`PtError::AlreadyMapped`] if any part of the range is mapped,
    /// * allocation errors from the backend.
    #[allow(clippy::too_many_arguments)]
    pub fn map(
        &self,
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        addr: VirtAddr,
        frame: FrameId,
        size: PageSize,
        flags: PteFlags,
        pt_socket: SocketId,
        repl: ReplicationSpec,
    ) -> Result<(), PtError> {
        if !addr.is_aligned(size) {
            return Err(PtError::Misaligned { addr, size });
        }
        let leaf_level = size.mapped_at();
        let table = self.walk_alloc(ops, ctx, addr, leaf_level, pt_socket, &repl)?;
        let index = addr.index_at(leaf_level);
        if ops.read_pte(ctx, table, index).is_present() {
            return Err(PtError::AlreadyMapped { addr });
        }
        ops.set_pte(ctx, table, index, Mapper::leaf_pte(frame, size, flags));
        Ok(())
    }

    /// The leaf entry mapping a page of `size` at `frame` with `flags`: the
    /// huge (PS) bit is set exactly for large pages.
    pub fn leaf_pte(frame: FrameId, size: PageSize, flags: PteFlags) -> Pte {
        Pte::new(
            frame,
            PteFlags {
                huge: size != PageSize::Base4K,
                ..flags
            },
        )
    }

    /// Removes the mapping of the page containing `addr` and returns the old
    /// leaf entry.
    ///
    /// # Errors
    ///
    /// Returns [`PtError::NotMapped`] if the address is not mapped.
    pub fn unmap(
        &self,
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        addr: VirtAddr,
    ) -> Result<Pte, PtError> {
        let (table, index, old) = self.find_leaf(ops, ctx, addr)?;
        ops.set_pte(ctx, table, index, Pte::EMPTY);
        Ok(old)
    }

    /// Rewrites the protection flags of the page containing `addr`, keeping
    /// the frame and large-page bit.
    ///
    /// # Errors
    ///
    /// Returns [`PtError::NotMapped`] if the address is not mapped.
    pub fn protect(
        &self,
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        addr: VirtAddr,
        flags: PteFlags,
    ) -> Result<(), PtError> {
        let (table, index, _) = self.find_leaf(ops, ctx, addr)?;
        Mapper::protect_entry(ops, ctx, table, index, flags);
        Ok(())
    }

    /// Rewrites the protection flags of the present leaf entry at `index`
    /// of `table`, keeping its frame, large-page bit and the accessed/dirty
    /// bits of every replica (the entry is read through the backend) — the
    /// one write [`Mapper::protect`] issues once it has found the entry.
    pub fn protect_entry(
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        table: FrameId,
        index: usize,
        flags: PteFlags,
    ) {
        let old = ops.read_pte(ctx, table, index);
        ops.set_pte(ctx, table, index, old.reprotected(flags));
    }

    /// Reads the leaf entry mapping `addr` through the backend, so that
    /// accessed/dirty bits are consolidated across replicas.
    ///
    /// # Errors
    ///
    /// Returns [`PtError::NotMapped`] if the address is not mapped.
    pub fn read_leaf(
        &self,
        ops: &dyn PvOps,
        ctx: &PtContext<'_>,
        addr: VirtAddr,
    ) -> Result<Pte, PtError> {
        let (_, _, pte) = self.find_leaf_readonly(ops, ctx, addr)?;
        Ok(pte)
    }

    /// Translates `addr` in software using the base root.
    pub fn translate(&self, ctx: &PtContext<'_>, addr: VirtAddr) -> Option<Translation> {
        walk::translate(ctx.store, self.roots.base(), addr)
    }

    /// Enumerates every leaf mapping of the address space (base root).
    pub fn leaf_mappings(&self, ctx: &PtContext<'_>) -> Vec<LeafMapping> {
        walk::iter_leaf_mappings(ctx.store, self.roots.base())
    }

    /// The roots this mapper operates on.
    pub fn roots(&self) -> &PtRoots {
        self.roots
    }

    /// Walks from the base root to the table at `target_level` covering
    /// `addr` and returns it, allocating missing intermediate tables on
    /// `pt_socket` (subject to the backend's replication behaviour).
    ///
    /// # Errors
    ///
    /// * [`PtError::AlreadyMapped`] if a large page maps `addr` above
    ///   `target_level`,
    /// * allocation errors from the backend.
    pub fn walk_alloc(
        &self,
        ops: &mut dyn PvOps,
        ctx: &mut PtContext<'_>,
        addr: VirtAddr,
        target_level: Level,
        pt_socket: SocketId,
        repl: &ReplicationSpec,
    ) -> Result<FrameId, PtError> {
        let mut table = self.roots.base();
        let mut level = Level::L4;
        while level != target_level {
            let index = addr.index_at(level);
            let entry = ops.read_pte(ctx, table, index);
            let next_level = level
                .next_lower()
                .expect("walk never descends below the leaf level");
            let child = if entry.is_present() {
                if entry.is_huge() {
                    return Err(PtError::AlreadyMapped { addr });
                }
                entry.frame().expect("present table entry has a frame")
            } else {
                let child = ops.alloc_table(ctx, pt_socket, repl)?;
                ops.set_pte(
                    ctx,
                    table,
                    index,
                    Pte::new(child, PteFlags::table_pointer()),
                );
                child
            };
            table = child;
            level = next_level;
        }
        Ok(table)
    }

    // ------------------------------------------------------------------

    /// Finds the leaf entry covering `addr` starting from the base root.
    fn find_leaf(
        &self,
        ops: &dyn PvOps,
        ctx: &PtContext<'_>,
        addr: VirtAddr,
    ) -> Result<(FrameId, usize, Pte), PtError> {
        self.find_leaf_readonly(ops, ctx, addr)
    }

    fn find_leaf_readonly(
        &self,
        ops: &dyn PvOps,
        ctx: &PtContext<'_>,
        addr: VirtAddr,
    ) -> Result<(FrameId, usize, Pte), PtError> {
        let mut table = self.roots.base();
        for level in Level::WALK_ORDER {
            let index = addr.index_at(level);
            let entry = ops.read_pte(ctx, table, index);
            if !entry.is_present() {
                return Err(PtError::NotMapped { addr });
            }
            if level == Level::L1 || entry.is_huge() {
                return Ok((table, index, entry));
            }
            table = entry.frame().expect("present table entry has a frame");
        }
        Err(PtError::NotMapped { addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{NativePvOps, PtEnv};
    use mitosis_numa::MachineConfig;

    fn setup() -> (PtEnv, NativePvOps) {
        (
            PtEnv::new(&MachineConfig::two_socket_small().build()),
            NativePvOps::new(),
        )
    }

    #[test]
    fn map_translate_unmap_roundtrip() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let data = ctx.alloc.alloc_on(socket).unwrap();
        let mapper = Mapper::new(&roots);
        let addr = VirtAddr::new(0x7000_0000);
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap();
        let t = mapper.translate(&ctx, addr).unwrap();
        assert_eq!(t.frame, data);
        assert_eq!(t.size, PageSize::Base4K);
        // Four tables: L4, L3, L2, L1.
        assert_eq!(ctx.store.table_count(), 4);

        let old = mapper.unmap(&mut ops, &mut ctx, addr).unwrap();
        assert_eq!(old.frame(), Some(data));
        assert!(mapper.translate(&ctx, addr).is_none());
    }

    #[test]
    fn double_map_is_rejected() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        let data = ctx.alloc.alloc_on(socket).unwrap();
        let addr = VirtAddr::new(0x1000_0000);
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap();
        let err = mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap_err();
        assert_eq!(err, PtError::AlreadyMapped { addr });
    }

    #[test]
    fn huge_page_mapping_uses_three_levels() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        let huge = ctx.alloc.alloc_huge_on(socket).unwrap();
        let addr = VirtAddr::new(0x4000_0000);
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                huge,
                PageSize::Huge2M,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap();
        // Only L4, L3 and L2 tables are needed.
        assert_eq!(ctx.store.table_count(), 3);
        let t = mapper.translate(&ctx, VirtAddr::new(0x4008_2000)).unwrap();
        assert_eq!(t.size, PageSize::Huge2M);
        assert!(t.pte.is_huge());
    }

    #[test]
    fn misaligned_map_is_rejected() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        let data = ctx.alloc.alloc_on(socket).unwrap();
        let err = mapper
            .map(
                &mut ops,
                &mut ctx,
                VirtAddr::new(0x1000),
                data,
                PageSize::Huge2M,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap_err();
        assert!(matches!(err, PtError::Misaligned { .. }));
    }

    #[test]
    fn protect_changes_flags_but_keeps_frame() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        let data = ctx.alloc.alloc_on(socket).unwrap();
        let addr = VirtAddr::new(0x2000_0000);
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                socket,
                ReplicationSpec::none(),
            )
            .unwrap();
        mapper
            .protect(&mut ops, &mut ctx, addr, PteFlags::user_readonly())
            .unwrap();
        let t = mapper.translate(&ctx, addr).unwrap();
        assert_eq!(t.frame, data);
        assert!(!t.pte.flags().writable);
        // Protect on an unmapped address errors.
        assert!(mapper
            .protect(
                &mut ops,
                &mut ctx,
                VirtAddr::new(0x9000_0000),
                PteFlags::user_readonly()
            )
            .is_err());
    }

    #[test]
    fn unmap_unmapped_address_errors() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        assert_eq!(
            mapper.unmap(&mut ops, &mut ctx, VirtAddr::new(0x5000_0000)),
            Err(PtError::NotMapped {
                addr: VirtAddr::new(0x5000_0000)
            })
        );
    }

    #[test]
    fn roots_without_replication_all_point_to_base() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let roots = Mapper::create_roots(
            &mut ops,
            &mut ctx,
            SocketId::new(1),
            ReplicationSpec::none(),
        )
        .unwrap();
        assert_eq!(roots.root_for_socket(SocketId::new(0)), roots.base());
        assert_eq!(roots.root_for_socket(SocketId::new(1)), roots.base());
        assert_eq!(roots.distinct_roots().len(), 1);
        assert_eq!(
            ctx.alloc.frame_space().socket_of(roots.base()),
            SocketId::new(1)
        );
    }

    #[test]
    fn leaf_mappings_enumeration_matches_maps() {
        let (mut env, mut ops) = setup();
        let mut ctx = env.context();
        let socket = SocketId::new(0);
        let roots =
            Mapper::create_roots(&mut ops, &mut ctx, socket, ReplicationSpec::none()).unwrap();
        let mapper = Mapper::new(&roots);
        for i in 0..8u64 {
            let data = ctx.alloc.alloc_on(socket).unwrap();
            mapper
                .map(
                    &mut ops,
                    &mut ctx,
                    VirtAddr::new(0x1_0000_0000 + i * 4096),
                    data,
                    PageSize::Base4K,
                    PteFlags::user_data(),
                    socket,
                    ReplicationSpec::none(),
                )
                .unwrap();
        }
        assert_eq!(mapper.leaf_mappings(&ctx).len(), 8);
    }
}
