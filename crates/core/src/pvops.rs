//! The Mitosis PV-Ops backend (paper §5.2).
//!
//! Every page-table mutation the virtual memory subsystem performs is
//! intercepted here and propagated to all replicas of the written page-table
//! page.  Replicas are located through the circular linked list threaded
//! through the metadata of page-table pages (Figure 8): each table's
//! `PtStore` slot names the slot of the next replica, and a
//! [`RingWalk`](mitosis_pt::RingWalk) follows those links while the backend
//! writes each member.  An update touches `2N` memory locations for `N`
//! replicas instead of walking `N` page tables; [`PtOpStats`] counts those
//! ring reads, not the host's directory probes.
//!
//! Two details need care:
//!
//! * **Non-leaf entries differ across replicas.**  An upper-level entry in
//!   the socket-`s` replica must point at the *socket-`s` replica* of the
//!   child page-table page; only leaf entries (which point at data frames)
//!   are byte-identical.  This is why page tables cannot be replicated by
//!   blind memcpy (paper §2.3).
//! * **Accessed/dirty bits are set by hardware** in whichever replica the
//!   walker used, so reads consolidate them with a logical OR across the
//!   ring and clears reset every replica (paper §5.4).

use mitosis_mem::FrameId;
use mitosis_numa::SocketId;
use mitosis_pt::{
    AccessedDirty, EntryMask, PtContext, PtError, PtOpStats, Pte, PteFlags, PvOps, ReplicationSpec,
};

/// The replicating PV-Ops backend.
///
/// Stateless apart from statistics: which sockets to replicate on is a
/// per-address-space property carried by the [`ReplicationSpec`] argument of
/// each call, exactly as the kernel implementation reads it from the
/// process' `mm_struct`.
#[derive(Debug, Clone, Default)]
pub struct MitosisPvOps {
    stats: PtOpStats,
}

impl MitosisPvOps {
    /// Creates the backend.
    pub fn new() -> Self {
        MitosisPvOps::default()
    }

    /// Frees one page-table page.
    fn release_one(&mut self, ctx: &mut PtContext<'_>, frame: FrameId) -> Result<(), PtError> {
        ctx.free_table_frame(frame)?;
        self.stats.tables_freed += 1;
        Ok(())
    }

    /// Translates `pte` for the replica living on `replica_socket`: entries
    /// pointing at page-table pages are redirected to the same-socket child
    /// replica (when one exists); leaf/data entries are copied verbatim.  A
    /// target the store does not hold is a data frame.
    fn pte_for_replica(&mut self, ctx: &PtContext<'_>, pte: Pte, replica_socket: SocketId) -> Pte {
        if !pte.is_present() || pte.is_huge() {
            return pte;
        }
        let target = match pte.frame() {
            Some(frame) => frame,
            None => return pte,
        };
        if !ctx.store.contains(target) {
            return pte;
        }
        self.stats.replica_ring_reads += 1;
        match ctx.replica_on_socket(target, replica_socket) {
            Some(replica_child) => pte.with_frame(replica_child),
            None => pte,
        }
    }
}

impl PvOps for MitosisPvOps {
    fn alloc_table(
        &mut self,
        ctx: &mut PtContext<'_>,
        socket: SocketId,
        repl: &ReplicationSpec,
    ) -> Result<FrameId, PtError> {
        // One replica per socket in the mask, or the requested socket alone
        // without replication; the primary is the requested socket's
        // replica.
        let mut sockets = repl.sockets();
        if !sockets.contains(&socket) {
            sockets.insert(0, socket);
        }
        let mut frames = Vec::with_capacity(sockets.len());
        for s in &sockets {
            match ctx.alloc_table_frame(*s, None) {
                Ok(frame) => {
                    self.stats.tables_allocated += 1;
                    frames.push(frame);
                }
                Err(err) => {
                    // A failed allocation leaves no unreachable replica
                    // behind.
                    for frame in frames {
                        self.release_one(ctx, frame)?;
                    }
                    return Err(err.into());
                }
            }
        }
        ctx.store.link_replicas(&frames);
        let primary = sockets
            .iter()
            .position(|s| *s == socket)
            .expect("the requested socket is in the list");
        Ok(frames[primary])
    }

    fn release_table(&mut self, ctx: &mut PtContext<'_>, frame: FrameId) -> Result<(), PtError> {
        let ring: Vec<FrameId> = ctx.store.ring(frame).map(|(member, _)| member).collect();
        for member in ring {
            self.release_one(ctx, member)?;
        }
        Ok(())
    }

    fn set_pte(&mut self, ctx: &mut PtContext<'_>, table: FrameId, index: usize, pte: Pte) {
        // The written table itself is the replica of its own socket: child
        // pointers are localised to keep every socket's tree self-contained.
        let mut ring = ctx.store.ring_walk(table);
        while let Some((member, slot)) = ring.next(ctx.store) {
            let socket = ctx.alloc.frame_space().socket_of(member);
            let translated = self.pte_for_replica(ctx, pte, socket);
            ctx.store.write_at(slot, index, translated);
            if member == table {
                self.stats.pte_writes += 1;
            } else {
                self.stats.replica_ring_reads += 1;
                self.stats.replica_pte_writes += 1;
            }
        }
    }

    fn set_leaf_ptes(
        &mut self,
        ctx: &mut PtContext<'_>,
        table: FrameId,
        flags: PteFlags,
        entries: &[(usize, FrameId)],
    ) {
        // Leaf entries point at data frames, which `pte_for_replica` copies
        // verbatim, so every ring member gets the same entries.
        debug_assert!(entries.iter().all(|&(_, frame)| !ctx.store.contains(frame)));
        let writes = entries.len() as u64;
        let mut ring = ctx.store.ring_walk(table);
        while let Some((member, slot)) = ring.next(ctx.store) {
            ctx.store.write_leaves_at(slot, flags, entries);
            if member == table {
                self.stats.pte_writes += writes;
            } else {
                self.stats.replica_ring_reads += writes;
                self.stats.replica_pte_writes += writes;
            }
        }
    }

    fn protect_leaves(
        &mut self,
        ctx: &mut PtContext<'_>,
        table: FrameId,
        flags: PteFlags,
        leaves: &EntryMask,
    ) {
        // Accessed/dirty bits are ORed across the ring one member at a
        // time; every member then gets the same rewritten entries, since a
        // leaf entry differs between replicas only in those bits.
        let mut bits = AccessedDirty::default();
        let mut members = 0;
        let mut ring = ctx.store.ring_walk(table);
        while let Some((_, slot)) = ring.next(ctx.store) {
            members += 1;
            ctx.store.gather_accessed_dirty_at(slot, leaves, &mut bits);
        }
        let mut ring = ctx.store.ring_walk(table);
        while let Some((_, slot)) = ring.next(ctx.store) {
            ctx.store.protect_leaves_at(slot, flags, leaves, &bits);
        }
        let writes = leaves.len() as u64;
        self.stats.pte_writes += writes;
        self.stats.replica_ring_reads += writes * (members - 1);
        self.stats.replica_pte_writes += writes * (members - 1);
    }

    fn read_pte(&self, ctx: &PtContext<'_>, table: FrameId, index: usize) -> Pte {
        let pte = ctx.store.read(table, index);
        if !pte.is_present() {
            return pte;
        }
        // Consolidate accessed/dirty bits across the ring (logical OR).
        let mut accessed = pte.flags().accessed;
        let mut dirty = pte.flags().dirty;
        for (_, replica) in ctx.store.ring(table).skip(1) {
            let other = ctx.store.read_at(replica, index);
            accessed |= other.flags().accessed;
            dirty |= other.flags().dirty;
        }
        let mut out = pte;
        if accessed {
            out = out.with_accessed();
        }
        if dirty {
            out = out.with_dirty();
        }
        out
    }

    fn clear_accessed_dirty(&mut self, ctx: &mut PtContext<'_>, table: FrameId, index: usize) {
        let mut ring = ctx.store.ring_walk(table);
        while let Some((_, slot)) = ring.next(ctx.store) {
            let pte = ctx.store.read_at(slot, index);
            if pte.is_present() {
                ctx.store.write_at(slot, index, pte.with_ad_cleared());
                self.stats.pte_writes += 1;
            }
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
    use mitosis_numa::{MachineConfig, NodeMask};
    use mitosis_pt::{Mapper, PageSize, PtEnv, VirtAddr};

    fn env() -> PtEnv {
        PtEnv::new(&MachineConfig::two_socket_small().build())
    }

    fn all_sockets() -> ReplicationSpec {
        ReplicationSpec::on(NodeMask::all(2))
    }

    /// The members of the ring of the table in `frame`, from it.
    fn replicas_of(ctx: &PtContext<'_>, frame: FrameId) -> Vec<FrameId> {
        ctx.store.ring(frame).map(|(member, _)| member).collect()
    }

    #[test]
    fn alloc_with_replication_creates_one_table_per_socket() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let primary = ops
            .alloc_table(&mut ctx, SocketId::new(1), &all_sockets())
            .unwrap();
        assert_eq!(ctx.alloc.frame_space().socket_of(primary), SocketId::new(1));
        let ring = replicas_of(&ctx, primary);
        assert_eq!(ring.len(), 2);
        let sockets: Vec<usize> = ring
            .iter()
            .map(|f| ctx.alloc.frame_space().socket_of(*f).index())
            .collect();
        assert!(sockets.contains(&0) && sockets.contains(&1));
        assert_eq!(ops.stats().tables_allocated, 2);
    }

    #[test]
    fn alloc_without_replication_behaves_natively() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let frame = ops
            .alloc_table(&mut ctx, SocketId::new(0), &ReplicationSpec::none())
            .unwrap();
        assert_eq!(replicas_of(&ctx, frame), vec![frame]);
    }

    #[test]
    fn leaf_writes_propagate_verbatim_to_all_replicas() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, SocketId::new(0), &all_sockets())
            .unwrap();
        let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
        ops.set_pte(&mut ctx, table, 42, Pte::new(data, PteFlags::user_data()));
        for replica in replicas_of(&ctx, table) {
            assert_eq!(ctx.store.read(replica, 42).frame(), Some(data));
        }
        assert_eq!(ops.stats().pte_writes, 1);
        assert_eq!(ops.stats().replica_pte_writes, 1);
    }

    #[test]
    fn set_leaf_ptes_matches_one_set_pte_per_entry() {
        let machine = MachineConfig::new(4, 1)
            .with_memory_per_socket(64 * 1024 * 1024)
            .build();
        for repl in [ReplicationSpec::none(), ReplicationSpec::all_sockets(4)] {
            let mut env = PtEnv::new(&machine);
            let mut ops = MitosisPvOps::new();
            let mut ctx = env.context();
            let table = ops.alloc_table(&mut ctx, SocketId::new(1), &repl).unwrap();
            let data: Vec<FrameId> = (0..4)
                .map(|s| ctx.alloc.alloc_on(SocketId::new(s)).unwrap())
                .collect();
            ops.set_pte(
                &mut ctx,
                table,
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
            let ring = replicas_of(&ctx, table);
            assert_eq!(ring.len(), repl.sockets().len().max(1));
            let (mut single_env, mut single_ops) = (env.clone(), ops.clone());
            let mut single = single_env.context();
            for &(index, frame) in &batch {
                single_ops.set_pte(&mut single, table, index, Pte::new(frame, flags));
            }
            let mut batched = env.context();
            ops.set_leaf_ptes(&mut batched, table, flags, &batch);
            assert_eq!(ops.stats(), single_ops.stats());
            // One write per entry of the table, and one ring read plus one
            // write per entry of every other member.
            let others = ring.len() as u64 - 1;
            assert_eq!(ops.stats().pte_writes, 6);
            assert_eq!(ops.stats().replica_pte_writes, 6 * others);
            assert_eq!(ops.stats().replica_ring_reads, 6 * others);
            for &member in &ring {
                let (a, b) = (batched.store.slot(member), single.store.slot(member));
                for index in 0..512 {
                    assert_eq!(
                        batched.store.read_at(a, index),
                        single.store.read_at(b, index)
                    );
                }
                assert!(batched
                    .store
                    .present_indices(a)
                    .eq(single.store.present_indices(b)));
                assert_eq!(batched.store.read(member, 7).frame(), Some(data[2]));
            }
            // The debug form lists every table's writable and huge bitmaps
            // too, which are not public.
            assert_eq!(
                format!("{:?}", batched.store),
                format!("{:?}", single.store)
            );
        }
    }

    #[test]
    fn protect_leaves_matches_one_protect_entry_per_leaf() {
        let machine = MachineConfig::new(4, 1)
            .with_memory_per_socket(64 * 1024 * 1024)
            .build();
        for repl in [ReplicationSpec::none(), ReplicationSpec::all_sockets(4)] {
            let mut env = PtEnv::new(&machine);
            let mut ops = MitosisPvOps::new();
            let mut ctx = env.context();
            let table = ops.alloc_table(&mut ctx, SocketId::new(1), &repl).unwrap();
            let frames: Vec<(usize, FrameId)> = [0, 5, 6, 64, 300, 511]
                .into_iter()
                .map(|index| (index, ctx.alloc.alloc_on(SocketId::new(2)).unwrap()))
                .collect();
            ops.set_leaf_ptes(&mut ctx, table, PteFlags::user_data(), &frames);
            // Walkers on different sockets set accessed and dirty bits in
            // their own replicas.
            let ring = replicas_of(&ctx, table);
            for (member, index, dirty) in [(0, 5, false), (ring.len() - 1, 5, true), (0, 64, true)]
            {
                let slot = ctx.store.slot(ring[member]);
                ctx.store.mark_accessed_at(slot, index, dirty);
            }
            let protected = [5, 6, 64, 511];
            let (mut single_env, mut single_ops) = (env.clone(), ops.clone());
            let mut single = single_env.context();
            for index in protected {
                Mapper::protect_entry(
                    &mut single_ops,
                    &mut single,
                    table,
                    index,
                    PteFlags::user_readonly(),
                );
            }
            let mut leaves = EntryMask::default();
            protected.into_iter().for_each(|index| leaves.insert(index));
            let mut batched = env.context();
            ops.protect_leaves(&mut batched, table, PteFlags::user_readonly(), &leaves);
            assert_eq!(ops.stats(), single_ops.stats());
            assert_eq!(
                format!("{:?}", batched.store),
                format!("{:?}", single.store)
            );
            let entry = batched.store.read(ring[ring.len() - 1], 5);
            assert!(entry.flags().accessed && entry.flags().dirty && !entry.flags().writable);
        }
    }

    #[test]
    fn non_leaf_writes_point_each_replica_at_its_local_child() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let parent = ops
            .alloc_table(&mut ctx, SocketId::new(0), &all_sockets())
            .unwrap();
        let child = ops
            .alloc_table(&mut ctx, SocketId::new(0), &all_sockets())
            .unwrap();
        ops.set_pte(
            &mut ctx,
            parent,
            3,
            Pte::new(child, PteFlags::table_pointer()),
        );
        for replica in replicas_of(&ctx, parent) {
            let socket = ctx.alloc.frame_space().socket_of(replica);
            let entry = ctx.store.read(replica, 3);
            let pointed = entry.frame().unwrap();
            assert_eq!(
                ctx.alloc.frame_space().socket_of(pointed),
                socket,
                "replica on {socket} must point at its local child replica"
            );
        }
    }

    #[test]
    fn unmap_propagates_empty_entries() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, SocketId::new(0), &all_sockets())
            .unwrap();
        let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
        ops.set_pte(&mut ctx, table, 7, Pte::new(data, PteFlags::user_data()));
        ops.set_pte(&mut ctx, table, 7, Pte::EMPTY);
        for replica in replicas_of(&ctx, table) {
            assert!(!ctx.store.read(replica, 7).is_present());
        }
    }

    #[test]
    fn accessed_dirty_bits_are_ored_across_replicas_and_cleared_everywhere() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, SocketId::new(0), &all_sockets())
            .unwrap();
        let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
        ops.set_pte(&mut ctx, table, 5, Pte::new(data, PteFlags::user_data()));
        // Hardware sets the dirty bit in the *other* replica only.
        let other = replicas_of(&ctx, table)
            .into_iter()
            .find(|f| *f != table)
            .unwrap();
        let hw_pte = ctx.store.read(other, 5).with_accessed().with_dirty();
        ctx.store.write(other, 5, hw_pte);
        // The OS read sees the OR.
        let read = ops.read_pte(&ctx, table, 5);
        assert!(read.flags().accessed);
        assert!(read.flags().dirty);
        // Clearing resets every replica.
        ops.clear_accessed_dirty(&mut ctx, table, 5);
        for replica in replicas_of(&ctx, table) {
            let pte = ctx.store.read(replica, 5);
            assert!(!pte.flags().accessed && !pte.flags().dirty);
        }
    }

    #[test]
    fn a_replicated_allocation_that_fails_leaves_no_table_behind() {
        let machine = MachineConfig::new(2, 1)
            .with_memory_per_socket(2 * 1024 * 1024)
            .build();
        let mut env = PtEnv::new(&machine);
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        // Exhaust the machine, then return one frame on socket 0: the
        // socket-0 replica fits, the socket-1 replica does not.
        while ctx.alloc.alloc_on(SocketId::new(1)).is_ok() {}
        let mut last = None;
        while let Ok(frame) = ctx.alloc.alloc_on(SocketId::new(0)) {
            last = Some(frame);
        }
        ctx.alloc.free(last.unwrap()).unwrap();
        let err = ops
            .alloc_table(&mut ctx, SocketId::new(0), &all_sockets())
            .unwrap_err();
        assert!(matches!(err, PtError::Mem(_)), "{err:?}");
        assert_eq!(ctx.store.table_count(), 0);
        assert!(!ctx.store.contains(last.unwrap()));
        assert_eq!(ctx.page_cache.reserved(SocketId::new(0)), 1);
        assert_eq!(ops.stats().tables_allocated, 1);
        assert_eq!(ops.stats().tables_freed, 1);
    }

    #[test]
    fn release_frees_the_whole_ring() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, SocketId::new(0), &all_sockets())
            .unwrap();
        let ring = replicas_of(&ctx, table);
        ops.release_table(&mut ctx, table).unwrap();
        for member in ring {
            assert!(!ctx.store.contains(member));
        }
        assert_eq!(ops.stats().tables_freed, 2);
    }

    #[test]
    fn full_mapper_walk_with_replication_builds_consistent_trees() {
        let mut env = env();
        let mut ops = MitosisPvOps::new();
        let mut ctx = env.context();
        let repl = all_sockets();
        let roots = Mapper::create_roots(&mut ops, &mut ctx, SocketId::new(0), repl).unwrap();
        assert_ne!(
            roots.root_for_socket(SocketId::new(0)),
            roots.root_for_socket(SocketId::new(1))
        );
        let mapper = Mapper::new(&roots);
        let addr = VirtAddr::new(0x5555_0000_0000);
        let data = ctx.alloc.alloc_on(SocketId::new(1)).unwrap();
        mapper
            .map(
                &mut ops,
                &mut ctx,
                addr,
                data,
                PageSize::Base4K,
                PteFlags::user_data(),
                SocketId::new(0),
                repl,
            )
            .unwrap();
        // Both sockets' trees translate the address to the same data frame,
        // and each tree's page-table pages live on its own socket.
        for socket in [SocketId::new(0), SocketId::new(1)] {
            let root = roots.root_for_socket(socket);
            let t = mitosis_pt::translate(ctx.store, root, addr).unwrap();
            assert_eq!(t.frame, data);
            // Walk the tree and check every table is on `socket`.
            let dump = mitosis_pt::PageTableDump::capture(ctx.store, ctx.alloc.frame_space(), root);
            for cell in dump.cells() {
                if cell.table_pages > 0 {
                    assert_eq!(cell.socket, socket);
                }
            }
        }
    }
}
