//! Page-table migration (paper §5.5).
//!
//! Mitosis implements migration *by replication*: when the OS migrates a
//! process to another socket, the page table is replicated onto the
//! destination socket and the per-socket root array switched over.  The
//! source copy can then either be freed eagerly, or kept up to date in case
//! the process migrates back (and reclaimed lazily under memory pressure).

use crate::error::MitosisError;
use crate::replication::{collect_tree, replicate_tree};
use mitosis_numa::{NodeMask, SocketId};
use mitosis_pt::{PtContext, PtRoots};

/// Result of a page-table migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageTableMigration {
    /// Page-table pages newly created on the destination socket.
    pub tables_created: u64,
    /// Source page-table pages freed (0 when the source copy is kept).
    pub tables_freed: u64,
}

/// Migrates the page-table tree described by `roots` to `target`.
///
/// Returns the updated roots and migration statistics.  When `free_source`
/// is set, every page-table page of the tree that does not live on `target`
/// is freed after the destination replica is complete; otherwise the source
/// replica is kept consistent (useful if the process may migrate back).
///
/// # Errors
///
/// Returns an error if replica allocation on the target socket fails.
pub fn migrate_page_table(
    ctx: &mut PtContext<'_>,
    roots: &PtRoots,
    target: SocketId,
    free_source: bool,
) -> Result<(PtRoots, PageTableMigration), MitosisError> {
    // Step 1: build (or reuse) a complete replica on the target socket.
    let (mut new_roots, summary) = replicate_tree(ctx, roots, NodeMask::single(target))?;
    let mut migration = PageTableMigration {
        tables_created: summary.replica_tables_created,
        tables_freed: 0,
    };

    // Step 2: the target replica becomes the primary tree.
    let target_root = ctx
        .replica_on_socket(roots.base(), target)
        .expect("replication created a root replica on the target socket");
    new_roots.set_base(target_root);

    // Step 3: optionally free every non-target copy.
    if free_source {
        let mut ring = Vec::new();
        for (table, _) in collect_tree(ctx, target_root) {
            ring.clear();
            ring.extend(ctx.store.ring(table).map(|(member, _)| member));
            for &replica in &ring {
                if ctx.alloc.frame_space().socket_of(replica) == target {
                    continue;
                }
                ctx.free_table_frame(replica)?;
                migration.tables_freed += 1;
            }
        }
        // All per-socket roots now refer to the only remaining tree.
        for s in 0..new_roots.sockets() {
            new_roots.set_root_for_socket(SocketId::new(s as u16), target_root);
        }
    }

    Ok((new_roots, migration))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_numa::MachineConfig;
    use mitosis_pt::{Mapper, NativePvOps, PageSize, PtEnv, PteFlags, ReplicationSpec, VirtAddr};

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
            let addr = VirtAddr::new(0x2_0000_0000 + i * 4096);
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
    fn migration_moves_the_tree_to_the_target_socket() {
        let (mut env, roots, addrs) = build(8);
        let mut ctx = env.context();
        let (new_roots, migration) =
            migrate_page_table(&mut ctx, &roots, SocketId::new(1), true).unwrap();
        assert_eq!(migration.tables_created, 4);
        assert_eq!(migration.tables_freed, 4);
        // The new base root lives on socket 1 and every socket uses it.
        assert_eq!(
            ctx.alloc.frame_space().socket_of(new_roots.base()),
            SocketId::new(1)
        );
        assert_eq!(
            new_roots.root_for_socket(SocketId::new(0)),
            new_roots.base()
        );
        // Translations survive the migration.
        for addr in addrs {
            let t = mitosis_pt::translate(ctx.store, new_roots.base(), addr).unwrap();
            assert_eq!(
                ctx.alloc.frame_space().socket_of(t.frame),
                SocketId::new(0),
                "data did not move"
            );
        }
        // No page-table pages remain on socket 0.
        let dump = mitosis_pt::PageTableDump::capture(
            ctx.store,
            ctx.alloc.frame_space(),
            new_roots.base(),
        );
        for cell in dump.cells() {
            if cell.table_pages > 0 {
                assert_eq!(cell.socket, SocketId::new(1));
            }
        }
    }

    #[test]
    fn migration_keeping_the_source_leaves_both_copies_consistent() {
        let (mut env, roots, addrs) = build(4);
        let mut ctx = env.context();
        let (new_roots, migration) =
            migrate_page_table(&mut ctx, &roots, SocketId::new(1), false).unwrap();
        assert_eq!(migration.tables_created, 4);
        assert_eq!(migration.tables_freed, 0);
        assert_eq!(
            ctx.alloc.frame_space().socket_of(new_roots.base()),
            SocketId::new(1)
        );
        // The socket-0 root still exists and translates identically.
        assert_eq!(
            ctx.alloc
                .frame_space()
                .socket_of(new_roots.root_for_socket(SocketId::new(0))),
            SocketId::new(0)
        );
        for addr in addrs {
            let a = mitosis_pt::translate(ctx.store, new_roots.base(), addr).unwrap();
            let b =
                mitosis_pt::translate(ctx.store, new_roots.root_for_socket(SocketId::new(0)), addr)
                    .unwrap();
            assert_eq!(a.frame, b.frame);
        }
    }

    #[test]
    fn migrating_to_the_current_socket_is_a_no_op() {
        let (mut env, roots, _) = build(2);
        let mut ctx = env.context();
        let (new_roots, migration) =
            migrate_page_table(&mut ctx, &roots, SocketId::new(0), true).unwrap();
        assert_eq!(migration.tables_created, 0);
        assert_eq!(migration.tables_freed, 0);
        assert_eq!(new_roots.base(), roots.base());
    }
}
