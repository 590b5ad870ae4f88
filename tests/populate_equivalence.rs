//! The setup fast paths against their reference forms.
//!
//! `System::populate_region` maps the rest of a leaf table's 2 MiB window
//! directly once a fault has mapped a base page there; it must leave the
//! system exactly as a loop calling `System::handle_fault` page by page
//! does.  `System::footprint` counts in one pass what `iter_leaf_mappings`
//! plus one `PageTableDump` per distinct root count, and must agree with
//! that computation, the reference in `common` (`tests/replica_rings.rs`
//! checks it after every other kind of mapping change).

mod common;

use common::reference_footprint;
use mitosis::Mitosis;
use mitosis_mem::{FragmentationModel, PlacementPolicy};
use mitosis_numa::{Machine, MachineConfig, SocketId, GIB};
use mitosis_pt::{iter_leaf_mappings, VirtAddr};
use mitosis_vmm::{MmapFlags, Pid, Protection, System, ThpMode, VmError};
use proptest::prelude::*;

const PAGE: u64 = 4096;
const SOCKETS: u16 = 4;

fn machine() -> Machine {
    MachineConfig::new(SOCKETS, 2)
        .with_memory_per_socket(GIB)
        .build()
}

/// The page-table backend a case runs on.
#[derive(Debug, Clone, Copy)]
enum Backend {
    Native,
    MitosisUnreplicated,
    MitosisReplicated,
}

/// One generated setup: two adjacent areas, some pages faulted in
/// beforehand, then a populate of a sub-range that may cross both.
#[derive(Debug)]
struct Case {
    backend: Backend,
    thp: bool,
    fragmentation: f64,
    policy: PlacementPolicy,
    /// Offset of the first area from a 2 MiB boundary, in pages.
    start_page: u64,
    first_pages: u64,
    /// Length of the adjacent second area in pages (0: none).
    second_pages: u64,
    /// The second area is read-only and THP-ineligible.
    second_restricted: bool,
    prefault: Vec<(u64, u16)>,
    skip_head: u64,
    skip_tail: u64,
    socket: SocketId,
}

impl Case {
    /// Builds the system up to (not including) the populate.  Returns the
    /// system, the process and the range to populate.
    fn prepare(&self) -> (System, Pid, VirtAddr, u64) {
        let mut mitosis = Mitosis::new();
        let mut system = match self.backend {
            Backend::Native => System::new(machine()),
            Backend::MitosisUnreplicated | Backend::MitosisReplicated => mitosis.install(machine()),
        };
        if self.thp {
            system.set_thp(ThpMode::Always);
        }
        system
            .pt_env_mut()
            .alloc
            .set_fragmentation(FragmentationModel::with_probability(self.fragmentation));
        let pid = system.create_process(SocketId::new(0)).unwrap();
        system
            .process_mut(pid)
            .unwrap()
            .set_data_policy(self.policy);
        let start = VirtAddr::new(0x40_0000_0000 + self.start_page * PAGE);
        system
            .mmap_at(pid, start, self.first_pages * PAGE, MmapFlags::lazy())
            .unwrap();
        if self.second_pages > 0 {
            let mut flags = MmapFlags::lazy();
            if self.second_restricted {
                flags = flags.without_thp().with_protection(Protection::ReadOnly);
            }
            system
                .mmap_at(
                    pid,
                    start.add(self.first_pages * PAGE),
                    self.second_pages * PAGE,
                    flags,
                )
                .unwrap();
        }
        let total = self.first_pages + self.second_pages;
        for &(page, socket) in &self.prefault {
            if page < total {
                system
                    .handle_fault(pid, start.add(page * PAGE), SocketId::new(socket))
                    .unwrap();
            }
        }
        if let Backend::MitosisReplicated = self.backend {
            mitosis.enable_for_process(&mut system, pid, None).unwrap();
        }
        let head = self.skip_head.min(total - 1);
        let tail = self.skip_tail.min(total - 1 - head);
        (
            system,
            pid,
            start.add(head * PAGE),
            (total - head - tail) * PAGE,
        )
    }
}

/// The reference populate: one `handle_fault` per page, stepping over
/// whatever each fault mapped.
fn populate_page_by_page(
    system: &mut System,
    pid: Pid,
    addr: VirtAddr,
    length: u64,
    socket: SocketId,
) -> Result<(), VmError> {
    let end = addr.add(length);
    let mut cursor = addr;
    while cursor < end {
        let outcome = system.handle_fault(pid, cursor, socket)?;
        cursor = outcome.addr.add(outcome.size.bytes());
    }
    Ok(())
}

/// Everything the two populate paths must agree on.
fn observable(system: &System, pid: Pid) -> String {
    let env = system.pt_env();
    let roots = system.process(pid).unwrap().address_space().roots();
    let leaves: Vec<_> = roots
        .distinct_roots()
        .into_iter()
        .map(|root| iter_leaf_mappings(&env.store, root))
        .collect();
    let alloc: Vec<_> = (0..SOCKETS)
        .map(|s| env.alloc.stats(SocketId::new(s)))
        .collect();
    format!(
        "leaves {leaves:?}\nalloc {alloc:?}\npvops {:?}\ntables {}\nfootprint {:?}\nroots {roots:?}",
        system.pvops().stats(),
        env.store.table_count(),
        system.footprint(pid),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `populate_region` leaves the same leaves, allocator state, PV-Ops
    /// counters, table count and footprint as a page-by-page fault loop run
    /// on a clone of the same system, and both footprints match the
    /// reference computation.
    #[test]
    fn populate_matches_a_page_by_page_fault_loop(
        kind in (0u8..3, 0u8..2, 0u8..3, 0u8..3),
        shape in (0usize..4, 1u64..1400, 0u64..700, 0u8..2),
        prefault in prop::collection::vec((0u64..2100, 0u16..SOCKETS), 0..40),
        trim in (0u64..300, 0u64..300, 0u16..SOCKETS),
    ) {
        let (backend, thp, fragmentation, policy) = kind;
        let (start_page, first_pages, second_pages, second_restricted) = shape;
        let (skip_head, skip_tail, socket) = trim;
        let case = Case {
            backend: [Backend::Native, Backend::MitosisUnreplicated, Backend::MitosisReplicated]
                [backend as usize],
            thp: thp == 1,
            fragmentation: [0.0, 0.5, 1.0][fragmentation as usize],
            policy: [
                PlacementPolicy::FirstTouch,
                PlacementPolicy::interleave_all(SOCKETS as usize),
                PlacementPolicy::Bind(SocketId::new(1)),
            ][policy as usize],
            start_page: [0, 1, 256, 511][start_page],
            first_pages,
            second_pages,
            second_restricted: second_restricted == 1,
            prefault,
            skip_head,
            skip_tail,
            socket: SocketId::new(socket),
        };
        let (mut fast, pid, addr, length) = case.prepare();
        let mut reference = fast.clone();
        let fast_result = fast.populate_region(pid, addr, length, case.socket);
        let reference_result =
            populate_page_by_page(&mut reference, pid, addr, length, case.socket);
        prop_assert_eq!(fast_result, reference_result, "{:?}", case);
        prop_assert_eq!(observable(&fast, pid), observable(&reference, pid), "{:?}", case);
        prop_assert_eq!(fast.footprint(pid).unwrap(), reference_footprint(&fast, pid));
        prop_assert_eq!(
            reference.footprint(pid).unwrap(),
            reference_footprint(&reference, pid)
        );
    }
}

/// Runs one case both ways and compares everything observable.
fn assert_equivalent(case: &Case) {
    let (mut fast, pid, addr, length) = case.prepare();
    let mut reference = fast.clone();
    let fast_result = fast.populate_region(pid, addr, length, case.socket);
    let reference_result = populate_page_by_page(&mut reference, pid, addr, length, case.socket);
    assert_eq!(fast_result, reference_result, "{case:?}");
    assert_eq!(
        observable(&fast, pid),
        observable(&reference, pid),
        "{case:?}"
    );
}

/// A populate that starts inside a 2 MiB block THP could still back: every
/// later page of that block is a fresh huge-page attempt for the fault
/// handler — a fragmentation draw, or a huge allocation that fails to map
/// over a base page faulted in earlier and is freed again — so the leaf
/// window must leave those pages to the per-page path.
#[test]
fn populate_from_mid_block_keeps_the_per_page_huge_attempts() {
    for (fragmentation, prefault) in [(0.5, vec![]), (0.0, vec![(300, 0)]), (0.5, vec![(300, 1)])] {
        for backend in [Backend::Native, Backend::MitosisReplicated] {
            assert_equivalent(&Case {
                backend,
                thp: true,
                fragmentation,
                policy: PlacementPolicy::FirstTouch,
                start_page: 0,
                first_pages: 1024,
                second_pages: 0,
                second_restricted: false,
                prefault: prefault.clone(),
                skip_head: 5,
                skip_tail: 0,
                socket: SocketId::new(1),
            });
        }
    }
}

/// A populate that runs into an unmapped gap fails at the same page, with
/// the same pages mapped before it, as the page-by-page loop.
#[test]
fn populate_into_a_gap_fails_like_the_fault_loop() {
    let mut system = System::new(machine());
    let pid = system.create_process(SocketId::new(0)).unwrap();
    let start = VirtAddr::new(0x40_0000_0000 + 7 * PAGE);
    system
        .mmap_at(pid, start, 300 * PAGE, MmapFlags::lazy())
        .unwrap();
    let mut reference = system.clone();
    let fast = system.populate_region(pid, start, 400 * PAGE, SocketId::new(2));
    let slow = populate_page_by_page(&mut reference, pid, start, 400 * PAGE, SocketId::new(2));
    assert_eq!(
        fast,
        Err(VmError::SegmentationFault {
            addr: start.add(300 * PAGE)
        })
    );
    assert_eq!(fast, slow);
    assert_eq!(observable(&system, pid), observable(&reference, pid));
}
