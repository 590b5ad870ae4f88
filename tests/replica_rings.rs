//! Replica rings stay well formed through every kind of mapping change.
//!
//! Mitosis finds the replicas of a page-table page through a circular
//! list threaded through the page's `struct page` (paper §5.2, Figure 8);
//! here that link lives in the table's `PtStore` slot.  Every path that
//! allocates, frees, replicates or migrates page-table pages keeps the
//! rings closed, so after any mapping change each ring holds stored tables
//! on distinct sockets, closes from any member, and gives each socket of a
//! process's replication mask the root that socket loads.  After each
//! change every process's `System::footprint` also equals the reference
//! count of its leaves and tables.

mod common;

use common::reference_footprint;
use mitosis::Mitosis;
use mitosis_numa::{MachineConfig, NodeMask, SocketId, MIB};
use mitosis_pt::{iter_leaf_mappings, PageSize, VirtAddr};
use mitosis_vmm::{MmapFlags, Pid, System, ThpMode};

const PAGE: u64 = 4096;
const HUGE: u64 = 2 * MIB;

/// Checks the replica rings of every page-table page of `system`, and the
/// roots, leaf entries and footprint of `pids`.
fn assert_rings_hold(system: &System, pids: &[Pid], step: &str) {
    let env = system.pt_env();
    let space = env.alloc.frame_space();
    for table in env.store.table_frames() {
        let ring: Vec<_> = env.store.ring(table).collect();
        let mut sockets = Vec::new();
        for (position, &(member, slot)) in ring.iter().enumerate() {
            assert!(
                env.store.contains(member) && env.store.slot(member) == slot,
                "after {step}: ring member {member} of {table} is not a stored table"
            );
            sockets.push(space.socket_of(member));
            // From any member the walk meets the same members in the same
            // cyclic order and stops back at that member.
            let rotated = ring[position..].iter().chain(&ring[..position]);
            assert!(
                env.store.ring(member).eq(rotated.copied()),
                "after {step}: the ring of {table} does not close from {member}"
            );
        }
        sockets.sort();
        sockets.dedup();
        assert_eq!(
            sockets.len(),
            ring.len(),
            "after {step}: two members of the ring of {table} share a socket"
        );
    }
    for &pid in pids {
        let process = system.process(pid).unwrap();
        let roots = process.address_space().roots();
        for root in roots.distinct_roots() {
            assert!(env.store.contains(root), "after {step}: root {root}");
            for leaf in iter_leaf_mappings(&env.store, root) {
                assert!(
                    !env.store.contains(leaf.frame),
                    "after {step}: a leaf entry points at page-table page {}",
                    leaf.frame
                );
            }
        }
        for socket in process.replication().sockets() {
            let replica = env
                .store
                .ring(roots.base())
                .map(|(member, _)| member)
                .find(|&member| space.socket_of(member) == socket);
            assert_eq!(
                Some(roots.root_for_socket(socket)),
                replica,
                "after {step}: {pid:?} on {socket} loads a root outside the base root's ring"
            );
        }
        assert_eq!(
            system.footprint(pid).unwrap(),
            reference_footprint(system, pid),
            "after {step}: the footprint of {pid:?}"
        );
    }
}

#[test]
fn replica_rings_hold_through_every_mapping_change() {
    let machine = MachineConfig::new(4, 1)
        .with_memory_per_socket(256 * MIB)
        .build();
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(machine);
    let pid = system.create_process(SocketId::new(0)).unwrap();
    assert_rings_hold(&system, &[pid], "create_process");

    let base = VirtAddr::new(0x40_0000_0000);
    system
        .mmap_at(pid, base, 8 * MIB, MmapFlags::populate().without_thp())
        .unwrap();
    assert_rings_hold(&system, &[pid], "a 4 KiB populate");

    system.set_thp(ThpMode::Always);
    let huge = VirtAddr::new(0x80_0000_0000);
    system
        .mmap_at(pid, huge, 8 * MIB, MmapFlags::populate())
        .unwrap();
    let t = system.translate(pid, huge).unwrap().unwrap();
    assert_eq!(t.size, PageSize::Huge2M, "THP backs the second area");
    assert_rings_hold(&system, &[pid], "a THP populate");

    mitosis.enable_for_process(&mut system, pid, None).unwrap();
    assert_rings_hold(&system, &[pid], "replication");

    let child = system.fork(pid).unwrap();
    assert_rings_hold(&system, &[pid, child], "fork");
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
    assert_rings_hold(&system, &[pid, child], "copy-on-write breaks");

    system.munmap(child, base, 4 * MIB).unwrap();
    system.munmap(pid, base.add(6 * MIB), 2 * MIB).unwrap();
    assert_rings_hold(&system, &[pid, child], "munmap");

    // A fresh, exclusively owned 2 MiB block of base pages.
    let block = VirtAddr::new(0xc0_0000_0000);
    system
        .mmap_at(pid, block, HUGE, MmapFlags::populate().without_thp())
        .unwrap();
    assert!(system.promote_huge(pid, block).unwrap());
    assert_rings_hold(&system, &[pid, child], "promote_huge");
    assert!(system.demote_huge(pid, block).unwrap());
    assert_rings_hold(&system, &[pid, child], "demote_huge");

    for addr in [block.add(3 * PAGE), huge.add(HUGE)] {
        assert!(system
            .migrate_data_page(pid, addr, SocketId::new(3))
            .unwrap());
    }
    assert_rings_hold(&system, &[pid, child], "migrate_data_page");

    let two = NodeMask::from_sockets([SocketId::new(0), SocketId::new(2)]);
    mitosis.resize_replicas(&mut system, pid, two).unwrap();
    assert_rings_hold(&system, &[pid, child], "a replica drop to two sockets");
    mitosis.disable_for_process(&mut system, child).unwrap();
    assert_rings_hold(&system, &[pid, child], "a replica drop to none");

    mitosis
        .migrate_page_table(&mut system, child, SocketId::new(2), true)
        .unwrap();
    assert_rings_hold(&system, &[pid, child], "page-table migration");
}
