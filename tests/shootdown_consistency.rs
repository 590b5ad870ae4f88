//! The TLB-consistency layer's core contract: `ShootdownMode` only changes
//! *modelled TLB work*, never the address space.  Ranged and Broadcast
//! systems driven through identical mapping-mutation sequences must end
//! with bit-identical final translations — the ranged `MappingTx` plans
//! name exactly the pages the mutations invalidated, they do not alter
//! what the mutations map.
//!
//! The layering rule — no `shootdown_all`/`flush_all` call outside the
//! `Mmu`/`PteCacheSet` primitives themselves — is clippy configuration:
//! both are `disallowed-methods` in `clippy.toml`, and each call the
//! primitives make carries a reasoned `#[expect]` (`tests/lint_clean.rs`
//! runs clippy).

use mitosis_numa::{MachineConfig, SocketId};
use mitosis_pt::{PageSize, VirtAddr};
use mitosis_vmm::{MmapFlags, Pid, Protection, ShootdownMode, System};
use proptest::prelude::*;

const PAGES: u64 = 64;
const PAGE: u64 = PageSize::Base4K.bytes();

fn build(mode: ShootdownMode) -> (System, Pid, VirtAddr) {
    let mut system = System::new(MachineConfig::two_socket_small().build());
    system.set_shootdown_mode(mode);
    let pid = system
        .create_process(SocketId::new(0))
        .expect("create process");
    let region = system
        .mmap(pid, PAGES * PAGE, MmapFlags::populate().without_thp())
        .expect("mmap");
    (system, pid, region)
}

/// One mutation step of the generated sequence; both systems apply the
/// same step, and deterministic failures (e.g. operating on an unmapped
/// hole a previous munmap left) are part of the contract too.
fn apply(system: &mut System, pid: Pid, region: VirtAddr, op: (u8, u64, u64)) -> String {
    let (kind, page, arg) = op;
    let addr = region.add((page % PAGES) * PAGE);
    match kind % 4 {
        0 => {
            let target = SocketId::new((arg % 2) as u16);
            format!("{:?}", system.migrate_data_page(pid, addr, target))
        }
        1 => {
            let pages = 1 + arg % 4;
            format!("{:?}", system.munmap(pid, addr, pages * PAGE))
        }
        2 => {
            let pages = 1 + arg % 8;
            let protection = if arg % 2 == 0 {
                Protection::ReadOnly
            } else {
                Protection::ReadWrite
            };
            format!("{:?}", system.mprotect(pid, addr, pages * PAGE, protection))
        }
        _ => format!("{:?}", system.fork(pid).map(|_| ())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary migrate/munmap/mprotect/fork sequences leave Ranged and
    /// Broadcast systems with identical final translations for every page
    /// of the region — and identical per-step outcomes along the way.
    #[test]
    fn ranged_and_broadcast_reach_identical_translations(
        ops in prop::collection::vec((0u8..4, 0u64..PAGES, 0u64..16), 1..40),
    ) {
        let (mut broadcast, pid_b, region_b) = build(ShootdownMode::Broadcast);
        let (mut ranged, pid_r, region_r) = build(ShootdownMode::Ranged);
        prop_assert_eq!(region_b, region_r);
        for (step, op) in ops.iter().enumerate() {
            let outcome_b = apply(&mut broadcast, pid_b, region_b, *op);
            let outcome_r = apply(&mut ranged, pid_r, region_r, *op);
            prop_assert_eq!(outcome_b, outcome_r, "step {} ({:?}) diverged", step, op);
            // Ranged mode accumulates its pending plan; draining it models
            // the boundary flush and must not disturb the address space.
            let _ = ranged.take_shootdown_plan();
        }
        for page in 0..PAGES {
            let addr = region_b.add(page * PAGE);
            prop_assert_eq!(
                broadcast.translate(pid_b, addr).expect("translate"),
                ranged.translate(pid_r, addr).expect("translate"),
                "page {} translated differently", page
            );
        }
    }
}
