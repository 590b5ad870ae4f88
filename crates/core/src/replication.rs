//! Replication of existing page-table trees.
//!
//! When `numa_set_pgtable_replication_mask` is applied to a process that has
//! already built up a page table (the common case — the knob is typically set
//! right after startup or from `numactl` before exec), Mitosis walks the
//! existing tree and creates a replica on every requested socket
//! (paper §6.2: "Whenever a new mask is set, Mitosis will walk the existing
//! page-table and create replicas according to the new bitmask").
//!
//! The copy works a page-table page at a time.  A leaf table's entries
//! point at data frames and are the same in every replica, so a new leaf
//! replica is allocated already holding a whole-table copy of its entries
//! and bitmaps ([`PtContext::alloc_table_frame`] with a table to copy),
//! written once with no zeroing before it, and a replica that existed
//! before the call is overwritten with a fresh copy
//! ([`PtStore::copy_table_at`](mitosis_pt::PtStore::copy_table_at)) once
//! every allocation has succeeded, so extending a mask leaves every replica
//! of a leaf equal to its table, and a call that runs out of memory leaves
//! every table, ring and entry as it found them.  An
//! upper-level table is copied entry by entry, because each replica's
//! entries must point at the child replicas on its own socket.
//! Page-table migration ([`migrate_page_table`](crate::migrate_page_table))
//! builds its target copy the same way.

use crate::error::MitosisError;
use mitosis_mem::FrameId;
use mitosis_numa::{NodeMask, SocketId};
use mitosis_pt::{Level, PtContext, PtRoots, PtSlot};

/// Result of a tree replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaSummary {
    /// Page-table pages that existed before replication (the base tree).
    pub original_tables: u64,
    /// New replica page-table pages allocated.
    pub replica_tables_created: u64,
    /// Number of sockets that now hold a full replica.
    pub replicated_sockets: usize,
}

/// Collects every page-table page reachable from `root` with its level,
/// in top-down order (parents before children).
pub(crate) fn collect_tree(ctx: &PtContext<'_>, root: FrameId) -> Vec<(FrameId, Level)> {
    let mut out = Vec::new();
    let mut queue = vec![(root, Level::L4)];
    while let Some((table, level)) = queue.pop() {
        out.push((table, level));
        if let Some(next) = level.next_lower() {
            for (_, pte) in ctx.store.present_at(ctx.store.slot(table)) {
                if !pte.is_huge() {
                    queue.push((pte.frame().expect("present entry has a frame"), next));
                }
            }
        }
    }
    out
}

/// Replicates the page-table tree rooted at `roots.base()` onto every socket
/// in `mask`, returning the updated per-socket roots and a summary.
///
/// Tables that already have a replica on a given socket are reused, so the
/// operation is idempotent and can also *extend* an existing replication to
/// more sockets.
///
/// # Errors
///
/// Returns an error if the mask is empty or physical memory for a replica
/// cannot be allocated; a failed allocation frees the replicas the call
/// made, so the store, the allocator, the rings and the entries are as the
/// call found them.
pub fn replicate_tree(
    ctx: &mut PtContext<'_>,
    roots: &PtRoots,
    mask: NodeMask,
) -> Result<(PtRoots, ReplicaSummary), MitosisError> {
    if mask.is_empty() {
        return Err(MitosisError::EmptyMask);
    }
    let space = ctx.alloc.frame_space().clone();
    let sockets: Vec<SocketId> = mask.iter().collect();
    for socket in &sockets {
        if socket.index() >= space.sockets() {
            return Err(MitosisError::InvalidSocket { socket: *socket });
        }
    }

    let tree = collect_tree(ctx, roots.base());
    let mut summary = ReplicaSummary {
        original_tables: tree.len() as u64,
        replica_tables_created: 0,
        replicated_sockets: sockets.len(),
    };

    // Pass 1: make sure every table has a replica frame on every requested
    // socket (children must exist before parents can point at them).  Leaf
    // entries point at data frames, so a leaf table is the same in every
    // replica: each new leaf replica is born a copy of its table.  Nothing
    // that existed before the call changes until every allocation has
    // succeeded: a failed one frees the replicas made so far, which closes
    // each ring back around its old members, and only then are the
    // replicas a leaf table already had copied again, accessed and dirty
    // bits included.
    let mut created: Vec<FrameId> = Vec::new();
    let mut recopies: Vec<(PtSlot, PtSlot)> = Vec::new();
    let mut ring = Vec::new();
    for (table, level) in &tree {
        let leaf = (*level == Level::L1).then(|| ctx.store.slot(*table));
        ring.clear();
        ring.extend(ctx.store.ring(*table).map(|(member, _)| member));
        let members = ring.len();
        if let Some(source) = leaf {
            recopies.extend(
                ctx.store
                    .ring(*table)
                    .skip(1)
                    .map(|(_, slot)| (source, slot)),
            );
        }
        for socket in &sockets {
            if ring
                .iter()
                .any(|member| space.socket_of(*member) == *socket)
            {
                continue;
            }
            match ctx.alloc_table_frame(*socket, leaf) {
                Ok(frame) => {
                    created.push(frame);
                    ring.push(frame);
                }
                Err(err) => {
                    for frame in created {
                        ctx.free_table_frame(frame)?;
                    }
                    return Err(err.into());
                }
            }
        }
        if ring.len() > members {
            ctx.store.link_replicas(&ring);
        }
    }
    summary.replica_tables_created = created.len() as u64;
    for (source, slot) in recopies {
        ctx.store.copy_table_at(source, slot);
    }

    // Pass 2: fill the upper-level replicas, redirecting child pointers per
    // socket.  The original table is localised too (its child pointers are
    // redirected to the replicas on its own socket), so that after
    // replication *every* socket's tree — including the one holding the
    // original pages — walks only local page-table pages.
    let mut members: Vec<(SocketId, PtSlot)> = Vec::new();
    let mut children: Vec<FrameId> = Vec::new();
    for (table, _) in tree.iter().filter(|(_, level)| *level != Level::L1) {
        // Ring members' sockets and store slots, once per table; the table
        // itself comes first.
        members.clear();
        members.extend(
            ctx.store
                .ring(*table)
                .map(|(member, slot)| (space.socket_of(member), slot)),
        );
        let source = members[0].1;
        // The bitmap is snapshotted when the walk starts, and each entry is
        // read before the table's own copy of it is rewritten.
        for index in ctx.store.present_indices(source) {
            let pte = ctx.store.read_at(source, index);
            children.clear();
            if let Some(child) = pte.frame().filter(|_| !pte.is_huge()) {
                if ctx.store.contains(child) {
                    children.extend(ctx.store.ring(child).map(|(member, _)| member));
                }
            }
            for &(socket, slot) in &members {
                // The first child replica on the member's socket, as
                // `PtContext::replica_on_socket` would find it.
                let translated = children
                    .iter()
                    .find(|child| space.socket_of(**child) == socket)
                    .map_or(pte, |child| pte.with_frame(*child));
                ctx.store.write_at(slot, index, translated);
            }
        }
    }

    // Per-socket roots point at the socket-local root replica.
    let mut new_roots = roots.clone();
    for s in 0..new_roots.sockets() {
        let socket = SocketId::new(s as u16);
        if let Some(replica) = ctx.replica_on_socket(roots.base(), socket) {
            new_roots.set_root_for_socket(socket, replica);
        } else {
            new_roots.set_root_for_socket(socket, roots.base());
        }
    }
    Ok((new_roots, summary))
}

/// Tears down every replica of the tree rooted at `roots.base()`, freeing
/// their frames, and resets the per-socket roots to the base root.
///
/// Returns the number of replica page-table pages freed.
///
/// # Errors
///
/// Returns an error if a replica frame cannot be freed.
pub fn tear_down_replicas(
    ctx: &mut PtContext<'_>,
    roots: &PtRoots,
) -> Result<(PtRoots, u64), MitosisError> {
    let tree = collect_tree(ctx, roots.base());
    let mut freed = 0;
    let mut replicas = Vec::new();
    for (table, _) in &tree {
        // Freeing a replica closes the ring around it, so the base table
        // ends in a ring of its own.
        replicas.clear();
        replicas.extend(ctx.store.ring(*table).skip(1).map(|(member, _)| member));
        for &replica in &replicas {
            ctx.free_table_frame(replica)?;
            freed += 1;
        }
    }
    let mut new_roots = roots.clone();
    new_roots.reset_to_base();
    Ok((new_roots, freed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_numa::MachineConfig;
    use mitosis_pt::{Mapper, NativePvOps, PageSize, PtEnv, PteFlags, ReplicationSpec, VirtAddr};

    /// Builds a native (non-replicated) tree with `pages` 4 KiB mappings.
    fn build(pages: u64) -> (PtEnv, PtRoots, Vec<VirtAddr>) {
        let machine = MachineConfig::two_socket_small().build();
        let mut env = PtEnv::new(&machine);
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let roots = Mapper::create_roots(
            &mut ops,
            &mut ctx,
            SocketId::new(0),
            ReplicationSpec::none(),
        )
        .unwrap();
        let mapper = Mapper::new(&roots);
        let mut addrs = Vec::new();
        for i in 0..pages {
            let addr = VirtAddr::new(0x1_0000_0000 + i * 4096);
            let data = ctx.alloc.alloc_on(SocketId::new(0)).unwrap();
            mapper
                .map(
                    &mut ops,
                    &mut ctx,
                    addr,
                    data,
                    PageSize::Base4K,
                    PteFlags::user_data(),
                    SocketId::new(0),
                    ReplicationSpec::none(),
                )
                .unwrap();
            addrs.push(addr);
        }
        (env, roots, addrs)
    }

    #[test]
    fn replication_creates_a_full_tree_per_socket() {
        let (mut env, roots, addrs) = build(16);
        let mut ctx = env.context();
        let (new_roots, summary) = replicate_tree(&mut ctx, &roots, NodeMask::all(2)).unwrap();
        assert_eq!(summary.original_tables, 4);
        // Socket 0 already holds the originals, socket 1 gets 4 new tables.
        assert_eq!(summary.replica_tables_created, 4);
        assert_ne!(
            new_roots.root_for_socket(SocketId::new(0)),
            new_roots.root_for_socket(SocketId::new(1))
        );
        // Every address translates identically through both roots.
        for addr in &addrs {
            let t0 = mitosis_pt::translate(
                ctx.store,
                new_roots.root_for_socket(SocketId::new(0)),
                *addr,
            )
            .unwrap();
            let t1 = mitosis_pt::translate(
                ctx.store,
                new_roots.root_for_socket(SocketId::new(1)),
                *addr,
            )
            .unwrap();
            assert_eq!(t0.frame, t1.frame);
        }
        // The socket-1 tree is entirely on socket 1.
        let dump = mitosis_pt::PageTableDump::capture(
            ctx.store,
            ctx.alloc.frame_space(),
            new_roots.root_for_socket(SocketId::new(1)),
        );
        for cell in dump.cells() {
            if cell.table_pages > 0 {
                assert_eq!(cell.socket, SocketId::new(1));
            }
        }
    }

    #[test]
    fn replication_is_idempotent() {
        let (mut env, roots, _) = build(4);
        let mut ctx = env.context();
        let (roots2, first) = replicate_tree(&mut ctx, &roots, NodeMask::all(2)).unwrap();
        let (roots3, second) = replicate_tree(&mut ctx, &roots2, NodeMask::all(2)).unwrap();
        assert_eq!(first.replica_tables_created, 4);
        assert_eq!(second.replica_tables_created, 0);
        assert_eq!(roots2, roots3);
    }

    #[test]
    fn empty_mask_is_rejected() {
        let (mut env, roots, _) = build(1);
        let mut ctx = env.context();
        assert_eq!(
            replicate_tree(&mut ctx, &roots, NodeMask::EMPTY).unwrap_err(),
            MitosisError::EmptyMask
        );
    }

    #[test]
    fn invalid_socket_is_rejected() {
        let (mut env, roots, _) = build(1);
        let mut ctx = env.context();
        let mask = NodeMask::single(SocketId::new(5));
        assert!(matches!(
            replicate_tree(&mut ctx, &roots, mask).unwrap_err(),
            MitosisError::InvalidSocket { .. }
        ));
    }

    #[test]
    fn tear_down_frees_replicas_and_restores_single_tree() {
        let (mut env, roots, addrs) = build(8);
        let mut ctx = env.context();
        let tables_before = ctx.store.table_count();
        let (replicated, _) = replicate_tree(&mut ctx, &roots, NodeMask::all(2)).unwrap();
        assert!(ctx.store.table_count() > tables_before);
        let (restored, freed) = tear_down_replicas(&mut ctx, &replicated).unwrap();
        assert_eq!(freed, 4);
        assert_eq!(ctx.store.table_count(), tables_before);
        assert_eq!(restored.root_for_socket(SocketId::new(1)), restored.base());
        // Original mappings still valid.
        for addr in addrs {
            assert!(mitosis_pt::translate(ctx.store, restored.base(), addr).is_some());
        }
    }

    #[test]
    fn replication_after_partial_replication_extends_to_new_sockets() {
        let machine = MachineConfig::paper_testbed().build();
        let mut env = PtEnv::new(&machine);
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let roots = Mapper::create_roots(
            &mut ops,
            &mut ctx,
            SocketId::new(0),
            ReplicationSpec::none(),
        )
        .unwrap();
        let (roots, first) =
            replicate_tree(&mut ctx, &roots, NodeMask::single(SocketId::new(1))).unwrap();
        assert_eq!(first.replica_tables_created, 1);
        let (roots, second) = replicate_tree(&mut ctx, &roots, NodeMask::all(4)).unwrap();
        assert_eq!(second.replica_tables_created, 2);
        for s in 0..4u16 {
            let root = roots.root_for_socket(SocketId::new(s));
            assert_eq!(ctx.alloc.frame_space().socket_of(root), SocketId::new(s));
        }
    }
}
