//! The frame table tracks exactly the page-table pages.
//!
//! `FrameTable` keeps the `struct page` state Mitosis reads — each
//! page-table page's level and replica ring — and nothing for data frames.
//! Every path that allocates or frees a page-table page keeps it in step
//! with the `PtStore`, so after any mapping change the table holds one
//! entry per stored table, each with a level, and no other entry.

use mitosis::Mitosis;
use mitosis_numa::{MachineConfig, NodeMask, SocketId, MIB};
use mitosis_pt::{iter_leaf_mappings, PageSize, VirtAddr};
use mitosis_vmm::{MmapFlags, Pid, System, ThpMode};

const PAGE: u64 = 4096;
const HUGE: u64 = 2 * MIB;

/// Checks that the frame table of `system` tracks exactly its page-table
/// pages, that every root is a level-4 page and that no data frame of
/// `pids` has an entry.
fn assert_tracks_tables(system: &System, pids: &[Pid], step: &str) {
    let env = system.pt_env();
    assert_eq!(
        env.frames.len(),
        env.store.table_count(),
        "after {step}: tracked frames against stored tables"
    );
    for table in env.store.table_frames() {
        assert!(
            env.frames.level(table).is_some(),
            "after {step}: page-table page {table} has no level"
        );
    }
    for &pid in pids {
        let roots = system.process(pid).unwrap().address_space().roots();
        for root in roots.distinct_roots() {
            assert_eq!(env.frames.level(root), Some(4), "after {step}: root {root}");
            for leaf in iter_leaf_mappings(&env.store, root) {
                assert_eq!(
                    env.frames.level(leaf.frame),
                    None,
                    "after {step}: data frame {} has an entry",
                    leaf.frame
                );
            }
        }
    }
}

#[test]
fn the_frame_table_tracks_exactly_the_page_table_pages() {
    let machine = MachineConfig::new(4, 1)
        .with_memory_per_socket(256 * MIB)
        .build();
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(machine);
    let pid = system.create_process(SocketId::new(0)).unwrap();
    assert_tracks_tables(&system, &[pid], "create_process");

    let base = VirtAddr::new(0x40_0000_0000);
    system
        .mmap_at(pid, base, 8 * MIB, MmapFlags::populate().without_thp())
        .unwrap();
    assert_tracks_tables(&system, &[pid], "a 4 KiB populate");

    system.set_thp(ThpMode::Always);
    let huge = VirtAddr::new(0x80_0000_0000);
    system
        .mmap_at(pid, huge, 8 * MIB, MmapFlags::populate())
        .unwrap();
    let t = system.translate(pid, huge).unwrap().unwrap();
    assert_eq!(t.size, PageSize::Huge2M, "THP backs the second area");
    assert_tracks_tables(&system, &[pid], "a THP populate");

    mitosis.enable_for_process(&mut system, pid, None).unwrap();
    assert_tracks_tables(&system, &[pid], "replication");

    let child = system.fork(pid).unwrap();
    assert_tracks_tables(&system, &[pid, child], "fork");
    for (who, addr) in [
        (child, base),
        (child, base.add(700 * PAGE)),
        (pid, base.add(PAGE)),
        (child, huge),
        (pid, huge.add(HUGE)),
    ] {
        let outcome = system
            .handle_fault_access(who, addr, SocketId::new(1), true)
            .unwrap();
        assert!(!outcome.already_mapped, "a copy-on-write break at {addr}");
    }
    assert_tracks_tables(&system, &[pid, child], "copy-on-write breaks");

    system.munmap(child, base, 4 * MIB).unwrap();
    system.munmap(pid, base.add(6 * MIB), 2 * MIB).unwrap();
    assert_tracks_tables(&system, &[pid, child], "munmap");

    // A fresh, exclusively owned 2 MiB block of base pages.
    let block = VirtAddr::new(0xc0_0000_0000);
    system
        .mmap_at(pid, block, HUGE, MmapFlags::populate().without_thp())
        .unwrap();
    assert!(system.promote_huge(pid, block).unwrap());
    assert_tracks_tables(&system, &[pid, child], "promote_huge");
    assert!(system.demote_huge(pid, block).unwrap());
    assert_tracks_tables(&system, &[pid, child], "demote_huge");

    for addr in [block.add(3 * PAGE), huge.add(HUGE)] {
        assert!(system
            .migrate_data_page(pid, addr, SocketId::new(3))
            .unwrap());
    }
    assert_tracks_tables(&system, &[pid, child], "migrate_data_page");

    let two = NodeMask::from_sockets([SocketId::new(0), SocketId::new(2)]);
    mitosis.resize_replicas(&mut system, pid, two).unwrap();
    assert_tracks_tables(&system, &[pid, child], "a replica drop to two sockets");
    mitosis.disable_for_process(&mut system, child).unwrap();
    assert_tracks_tables(&system, &[pid, child], "a replica drop to none");

    mitosis
        .migrate_page_table(&mut system, child, SocketId::new(2), true)
        .unwrap();
    assert_tracks_tables(&system, &[pid, child], "page-table migration");
}
