//! Cross-crate integration and property tests for page-table replication:
//! after any sequence of memory-management operations, every socket's
//! replica must translate every address identically, and every replica tree
//! must be entirely local to its socket.

use mitosis::{Mitosis, MitosisError, MitosisPvOps};
use mitosis_mem::MemError;
use mitosis_numa::{MachineConfig, NodeMask, SocketId};
use mitosis_pt::{PageSize, PageTableDump, VirtAddr};
use mitosis_vmm::{MmapFlags, Pid, Protection, System, ThpMode};
use proptest::prelude::*;

/// Checks that all per-socket replicas of `pid`'s page table translate the
/// same addresses to the same frames, and that each replica's page-table
/// pages live on its socket.
fn assert_replicas_consistent(system: &System, pid: Pid, sample_addrs: &[VirtAddr]) {
    let process = system.process(pid).expect("process exists");
    let roots = process.address_space().roots();
    let env = system.pt_env();
    let sockets = system.machine().sockets();
    for addr in sample_addrs {
        let reference = mitosis_pt::translate(&env.store, roots.base(), *addr);
        for s in 0..sockets {
            let socket = SocketId::new(s as u16);
            let replica = mitosis_pt::translate(&env.store, roots.root_for_socket(socket), *addr);
            assert_eq!(
                reference.map(|t| t.frame),
                replica.map(|t| t.frame),
                "socket {s} replica disagrees at {addr}"
            );
        }
    }
    if process.replication().is_enabled() {
        for socket in process.replication().sockets() {
            let dump = PageTableDump::capture(
                &env.store,
                env.alloc.frame_space(),
                roots.root_for_socket(socket),
            );
            for cell in dump.cells() {
                assert!(
                    cell.table_pages == 0 || cell.socket == socket,
                    "replica tree for {socket} has page-table pages on {}",
                    cell.socket
                );
            }
        }
    }
}

#[test]
fn replication_survives_mmap_munmap_mprotect_and_faults() {
    let machine = MachineConfig::two_socket_small().build();
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(machine);
    let pid = system.create_process(SocketId::new(0)).unwrap();

    let a = system
        .mmap(pid, 4 * 1024 * 1024, MmapFlags::populate())
        .unwrap();
    mitosis.enable_for_process(&mut system, pid, None).unwrap();

    // New mapping after replication, demand faults from the remote socket,
    // protection changes and an unmap.
    let b = system
        .mmap(pid, 2 * 1024 * 1024, MmapFlags::lazy())
        .unwrap();
    for page in 0..256u64 {
        system
            .handle_fault(pid, b.add(page * 4096), SocketId::new(1))
            .unwrap();
    }
    system
        .mprotect(pid, a, 1024 * 1024, Protection::ReadOnly)
        .unwrap();
    system.munmap(pid, b, 2 * 1024 * 1024).unwrap();

    let samples: Vec<VirtAddr> = (0..64).map(|i| a.add(i * 64 * 1024)).collect();
    assert_replicas_consistent(&system, pid, &samples);
    // The unmapped region is gone from every replica.
    assert!(system.translate(pid, b).unwrap().is_none());
}

#[test]
fn replication_coexists_with_transparent_huge_pages() {
    let machine = MachineConfig::two_socket_small().build();
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(machine);
    system.set_thp(ThpMode::Always);
    let pid = system.create_process(SocketId::new(1)).unwrap();
    let addr = system
        .mmap(pid, 8 * 1024 * 1024, MmapFlags::populate())
        .unwrap();
    mitosis.enable_for_process(&mut system, pid, None).unwrap();

    let t = system.translate(pid, addr).unwrap().unwrap();
    assert_eq!(t.size, PageSize::Huge2M);
    let samples: Vec<VirtAddr> = (0..16).map(|i| addr.add(i * 512 * 1024)).collect();
    assert_replicas_consistent(&system, pid, &samples);
}

#[test]
fn accessed_and_dirty_bits_are_visible_from_any_replica() {
    use mitosis_mmu::{Mmu, PteCacheSet};

    let machine = MachineConfig::two_socket_small().build();
    let cost = machine.cost_model().clone();
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(machine);
    let pid = system.create_process(SocketId::new(0)).unwrap();
    let addr = system.mmap(pid, 64 * 4096, MmapFlags::populate()).unwrap();
    mitosis.enable_for_process(&mut system, pid, None).unwrap();

    // Hardware on socket 1 writes through its local replica.
    let socket = SocketId::new(1);
    let cr3 = system.cr3_for(pid, socket).unwrap();
    let mut mmu = Mmu::new(system.machine().first_core_of_socket(socket), socket);
    let mut caches = PteCacheSet::for_machine(system.machine());
    {
        let env = system.pt_env();
        let outcome = mmu.access(
            addr,
            true,
            cr3,
            &env.store,
            env.alloc.frame_space(),
            &cost,
            caches.socket(socket),
        );
        assert!(!outcome.fault);
    }

    // The OS, reading through PV-Ops from the *base* tree, sees the OR of
    // the bits set in the socket-1 replica.
    let process = system.process(pid).unwrap();
    let roots = process.address_space().roots().clone();
    let env = system.pt_env();
    let ctx_store = &env.store;
    let base_leaf = mitosis_pt::translate(ctx_store, roots.base(), addr).unwrap();
    // Raw read of the base replica: the hardware never touched it.
    assert!(!base_leaf.pte.flags().accessed);
    // Consolidated read through the Mitosis backend.
    let consolidated = {
        let (ops, ctx) = system.pvops_with_context();
        let mapper = mitosis_pt::Mapper::new(&roots);
        mapper.read_leaf(ops, &ctx, addr).unwrap()
    };
    assert!(consolidated.flags().accessed);
    assert!(consolidated.flags().dirty);
}

#[test]
fn extending_the_mask_leaves_every_leaf_replica_equal_to_its_table() {
    use mitosis_mmu::{Mmu, PteCacheSet};
    use mitosis_pt::{Level, ENTRIES_PER_TABLE};

    let machine = MachineConfig::paper_testbed_scaled().build();
    let cost = machine.cost_model().clone();
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(machine);
    let pid = system.create_process(SocketId::new(0)).unwrap();
    let addr = system
        .mmap(pid, 4 * 1024 * 1024, MmapFlags::populate())
        .unwrap();
    let pair = NodeMask::from_sockets([SocketId::new(0), SocketId::new(1)]);
    mitosis
        .enable_for_process(&mut system, pid, Some(pair))
        .unwrap();

    // Hardware on socket 1 sets accessed and dirty bits in its own leaf
    // replicas only.
    let socket = SocketId::new(1);
    let cr3 = system.cr3_for(pid, socket).unwrap();
    let mut mmu = Mmu::new(system.machine().first_core_of_socket(socket), socket);
    let mut caches = PteCacheSet::for_machine(system.machine());
    let touched: Vec<VirtAddr> = (0..16).map(|i| addr.add(i * 64 * 4096)).collect();
    {
        let env = system.pt_env();
        for &page in &touched {
            let outcome = mmu.access(
                page,
                true,
                cr3,
                &env.store,
                env.alloc.frame_space(),
                &cost,
                caches.socket(socket),
            );
            assert!(!outcome.fault);
        }
        let base = system.process(pid).unwrap().address_space().roots().base();
        let marked = mitosis_pt::translate(&env.store, cr3, touched[0]).unwrap();
        let unmarked = mitosis_pt::translate(&env.store, base, touched[0]).unwrap();
        assert!(marked.pte.flags().accessed && marked.pte.flags().dirty);
        assert!(
            !unmarked.pte.flags().accessed,
            "the walk stayed on socket 1"
        );
    }

    mitosis
        .enable_for_process(&mut system, pid, Some(NodeMask::all(4)))
        .unwrap();

    let roots = system.process(pid).unwrap().address_space().roots().clone();
    let env = system.pt_env();
    let space = env.alloc.frame_space();
    let mut leaves = 0;
    mitosis_pt::for_each_table(&env.store, roots.base(), |table, level| {
        let members: Vec<_> = env.store.ring(table).collect();
        let mut sockets: Vec<SocketId> = members
            .iter()
            .map(|(member, _)| space.socket_of(*member))
            .collect();
        sockets.sort();
        assert_eq!(
            sockets,
            (0..4).map(SocketId::new).collect::<Vec<_>>(),
            "{table} has one replica on each socket"
        );
        if level != Level::L1 {
            return;
        }
        leaves += 1;
        let base = members[0].1;
        for &(member, slot) in &members[1..] {
            for index in 0..ENTRIES_PER_TABLE {
                assert_eq!(
                    env.store.read_at(slot, index),
                    env.store.read_at(base, index),
                    "replica {member} of leaf {table} differs at entry {index}"
                );
            }
        }
    });
    assert_eq!(leaves, 2);
    for s in 0..4u16 {
        let socket = SocketId::new(s);
        assert_eq!(space.socket_of(roots.root_for_socket(socket)), socket);
    }
}

/// The page-table state a failed replication must leave alone: the table
/// count, each socket's allocated and free frames, every table's replica
/// ring and entries, and the process's roots and replication spec.  (The
/// allocator's peak is a high-water mark: it records the replicas the
/// call allocated before it freed them.)
fn replication_state(system: &System, pid: Pid) -> String {
    let env = system.pt_env();
    let mut tables: Vec<_> = env.store.table_frames().collect();
    tables.sort_unstable();
    let tables: Vec<_> = tables
        .into_iter()
        .map(|table| {
            let ring: Vec<_> = env.store.ring(table).map(|(member, _)| member).collect();
            let entries: Vec<_> = env.store.present_at(env.store.slot(table)).collect();
            (table, ring, entries)
        })
        .collect();
    let alloc: Vec<_> = (0..2)
        .map(|s| env.alloc.stats(SocketId::new(s)))
        .map(|stats| (stats.allocated_frames, stats.free_frames))
        .collect();
    let process = system.process(pid).expect("process exists");
    format!(
        "tables {} {tables:?}\nalloc {alloc:?}\nroots {:?}\nspec {:?}",
        env.store.table_count(),
        process.address_space().roots(),
        process.replication(),
    )
}

/// A replication that runs out of page-table frames part-way changes
/// nothing: two sockets of 4,096 frames and no page-cache reserve, a
/// 2,048-page tree of seven tables on socket 0, socket 0 full and three
/// frames left on socket 1, so the fourth replica cannot be allocated.
#[test]
fn a_replication_that_runs_out_of_frames_leaves_everything_as_it_was() {
    let machine = MachineConfig::new(2, 1)
        .with_memory_per_socket(16 * 1024 * 1024)
        .build();
    // The Mitosis backend without `Mitosis::install`'s reserve refill.
    let mut system = System::with_pvops(machine, Box::new(MitosisPvOps::new()));
    system.pt_env_mut().page_cache.set_target(0);
    let mut mitosis = Mitosis::new();
    let pid = system.create_process(SocketId::new(0)).unwrap();
    system
        .mmap(pid, 2048 * 4096, MmapFlags::populate().without_thp())
        .unwrap();
    assert_eq!(system.pt_env().store.table_count(), 7);
    let alloc = &mut system.pt_env_mut().alloc;
    while alloc.alloc_on(SocketId::new(0)).is_ok() {}
    while alloc.stats(SocketId::new(1)).free_frames > 3 {
        alloc.alloc_on(SocketId::new(1)).unwrap();
    }
    let before = replication_state(&system, pid);
    let err = mitosis
        .enable_for_process(&mut system, pid, Some(NodeMask::all(2)))
        .unwrap_err();
    assert!(
        matches!(
            err,
            MitosisError::Mem(MemError::PageCacheEmpty { socket }) if socket == SocketId::new(1)
        ),
        "{err:?}"
    );
    assert_eq!(replication_state(&system, pid), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for any set of mapped pages and any replication mask, every
    /// replica translates identically to the base tree and replica trees are
    /// socket-local.
    #[test]
    fn replicas_translate_identically(
        pages in prop::collection::vec(0u64..2048, 1..64),
        mask_bits in 1u64..16,
        fault_socket in 0u16..4,
    ) {
        let machine = MachineConfig::paper_testbed_scaled().build();
        let mut mitosis = Mitosis::new();
        let mut system = mitosis.install(machine);
        let pid = system.create_process(SocketId::new(0)).unwrap();
        let region = system.mmap(pid, 2048 * 4096, MmapFlags::lazy()).unwrap();

        // Fault in an arbitrary subset of pages from an arbitrary socket.
        for page in &pages {
            system
                .handle_fault(pid, region.add(page * 4096), SocketId::new(fault_socket))
                .unwrap();
        }
        mitosis
            .enable_for_process(&mut system, pid, Some(NodeMask::from_bits(mask_bits)))
            .unwrap();
        // More faults after replication is enabled.
        for page in pages.iter().take(8) {
            let _ = system.handle_fault(
                pid,
                region.add((page + 2000).min(2047) * 4096),
                SocketId::new((fault_socket + 1) % 4),
            );
        }

        let samples: Vec<VirtAddr> = pages.iter().map(|p| region.add(p * 4096)).collect();
        assert_replicas_consistent(&system, pid, &samples);
    }
}
