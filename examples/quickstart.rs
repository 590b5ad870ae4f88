//! Quickstart: install Mitosis, replicate a process' page tables and watch
//! TLB misses become local.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mitosis::Mitosis;
use mitosis_mmu::{Mmu, PteCacheSet};
use mitosis_numa::{MachineConfig, SocketId};
use mitosis_vmm::MmapFlags;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-socket machine like the paper's testbed, scaled down 16x in
    // capacity so the example runs instantly.
    let machine = MachineConfig::paper_testbed_scaled().build();
    let cost = machine.cost_model().clone();

    // Boot a kernel with the Mitosis PV-Ops backend installed.
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(machine);

    // A process on socket 0 maps and touches 64 MiB of anonymous memory.
    let pid = system.create_process(SocketId::new(0))?;
    let len = 64 * 1024 * 1024;
    let addr = system.mmap(pid, len, MmapFlags::populate())?;
    println!("mapped {} MiB at {addr} for {pid}", len >> 20);

    // Replicate its page tables on every socket (numactl --pgtablerepl=all).
    let summary = mitosis.enable_for_process(&mut system, pid, None)?;
    println!(
        "replicated {} original page-table pages with {} new replica pages on {} sockets",
        summary.original_tables, summary.replica_tables_created, summary.replicated_sockets
    );

    // A core on socket 3 now loads a socket-local CR3 on context switch and
    // its page walks never leave the socket.
    let socket = SocketId::new(3);
    let cr3 = system.cr3_for(pid, socket)?;
    println!(
        "socket 3 loads CR3 {cr3}, which lives on {}",
        system.pt_env().alloc.frame_space().socket_of(cr3)
    );

    let mut mmu = Mmu::new(system.machine().first_core_of_socket(socket), socket);
    let mut pte_caches = PteCacheSet::for_machine(system.machine());
    for page in 0..1024u64 {
        let env = system.pt_env();
        mmu.access(
            addr.add(page * 4096),
            false,
            cr3,
            &env.store,
            env.alloc.frame_space(),
            &cost,
            pte_caches.socket(socket),
        );
    }
    let stats = mmu.stats();
    println!(
        "replayed {} accesses from socket 3: {} TLB misses, {} local / {} remote walker reads",
        stats.accesses,
        stats.tlb_misses,
        stats.walk.local_dram_accesses,
        stats.walk.remote_dram_accesses
    );
    assert_eq!(stats.walk.remote_dram_accesses, 0);
    println!("every page walk stayed on socket 3 — that is Mitosis working");
    Ok(())
}
