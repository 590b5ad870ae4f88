//! Reference computations shared by the integration tests that check a
//! fast path against them.

use mitosis_pt::{iter_leaf_mappings, PageTableDump};
use mitosis_vmm::{MemoryFootprint, Pid, System};

/// The reference footprint of `pid`: every leaf mapping of the base tree,
/// plus one placement dump per distinct root.  `System::footprint` counts
/// the same in one pass and must agree with it.
pub fn reference_footprint(system: &System, pid: Pid) -> MemoryFootprint {
    let env = system.pt_env();
    let space = env.alloc.frame_space();
    let roots = system.process(pid).unwrap().address_space().roots();
    let sockets = system.machine().sockets();
    let mut footprint = MemoryFootprint {
        data_bytes: vec![0; sockets],
        pagetable_bytes: vec![0; sockets],
    };
    for mapping in iter_leaf_mappings(&env.store, roots.base()) {
        footprint.data_bytes[space.socket_of(mapping.frame).index()] += mapping.size.bytes();
    }
    for root in roots.distinct_roots() {
        let dump = PageTableDump::capture(&env.store, space, root);
        for cell in dump.cells() {
            footprint.pagetable_bytes[cell.socket.index()] +=
                cell.table_pages * mitosis_mem::BASE_PAGE_SIZE;
        }
    }
    footprint
}
