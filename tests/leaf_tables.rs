//! `LeafTables::touch`, the read-ahead both proven schedules run over each
//! block of accesses before stepping it, reads leaf entries and writes
//! none.
//!
//! On a populated tree, a replicated one and one of transparent huge
//! pages, each partly left unmapped: touching every page returns the bits
//! of the entry `translate_entry` finds (0 where there is none, and 0
//! outside the remembered span) and leaves every leaf entry of every root
//! bit-identical, accessed and dirty bits included.  Touching a block
//! before stepping it through `tlb_step`, as the pipelined TLB stage does,
//! changes no fill, fault, cycle or marked bit.

use mitosis::Mitosis;
use mitosis_mem::FrameId;
use mitosis_mmu::step::{tlb_step, AccessCtx, LeafTables, Miss, ThreadPhase, ThreadTotals};
use mitosis_mmu::Mmu;
use mitosis_numa::{CoreId, SocketId};
use mitosis_pt::{iter_leaf_mappings, translate_entry, LeafMapping, PageSize, VirtAddr};
use mitosis_sim::SimParams;
use mitosis_vmm::{MmapFlags, Pid, System, ThpMode};
use mitosis_workloads::{AccessPattern, AccessStream, InitPattern, Scenario, WorkloadSpec};
use std::sync::Arc;

const FOOTPRINT: u64 = 16 << 20;

/// The populated prefix of the region: the last 2 MiB window and 64 KiB
/// before it stay unmapped.
const POPULATED: u64 = FOOTPRINT - (2 << 20) - (64 << 10);

const PAGE: u64 = PageSize::Base4K.bytes();

#[derive(Debug, Clone, Copy)]
enum Tree {
    Populated,
    Replicated,
    Huge,
}

const TREES: [Tree; 3] = [Tree::Populated, Tree::Replicated, Tree::Huge];

struct Built {
    system: System,
    pid: Pid,
    region: VirtAddr,
}

impl Built {
    fn new(tree: Tree) -> Self {
        let params = SimParams::quick_test();
        let mut mitosis = Mitosis::new();
        let mut system = match tree {
            Tree::Replicated => mitosis.install(params.machine()),
            Tree::Populated | Tree::Huge => System::new(params.machine()),
        };
        let flags = match tree {
            Tree::Huge => {
                system.set_thp(ThpMode::Always);
                MmapFlags::lazy()
            }
            Tree::Populated | Tree::Replicated => MmapFlags::lazy().without_thp(),
        };
        let pid = system.create_process(SocketId::new(0)).expect("process");
        let region = system.mmap(pid, FOOTPRINT, flags).expect("mmap");
        system
            .populate_region(pid, region, POPULATED, SocketId::new(0))
            .expect("populate");
        if let Tree::Replicated = tree {
            mitosis
                .enable_for_process(&mut system, pid, None)
                .expect("replicate");
        }
        Built {
            system,
            pid,
            region,
        }
    }

    /// Every distinct root a socket loads.
    fn roots(&self) -> Vec<FrameId> {
        let mut roots: Vec<FrameId> = self
            .system
            .machine()
            .socket_ids()
            .map(|socket| self.system.cr3_for(self.pid, socket).expect("root"))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// Every root's leaf entries.
    fn leaves(&self) -> Vec<Vec<LeafMapping>> {
        let store = &self.system.pt_env().store;
        self.roots()
            .into_iter()
            .map(|root| iter_leaf_mappings(store, root))
            .collect()
    }
}

#[test]
fn touching_returns_the_leaf_entry_and_writes_none() {
    for tree in TREES {
        let built = Built::new(tree);
        let store = &built.system.pt_env().store;
        let before = built.leaves();
        let leaves: Vec<&LeafMapping> = before.iter().flatten().collect();
        // A touch that marked its entries would show.
        assert!(leaves.iter().any(|leaf| !leaf.pte.flags().accessed));
        assert!(leaves.iter().any(|leaf| !leaf.pte.flags().dirty));
        let roots = built.roots();
        if let Tree::Replicated = tree {
            assert!(roots.len() > 1, "every socket has a replica");
        }
        let mut touched = LeafTables::new(store, built.region, FOOTPRINT);
        for &root in &roots {
            let mut unmapped = 0;
            for page in 0..FOOTPRINT / PAGE {
                let addr = built.region.add(page * PAGE + 8 * (page % 512));
                let expected = translate_entry(store, root, addr)
                    .map_or(0, |(_, translation)| translation.pte.to_bits());
                assert_eq!(touched.touch(root, addr), expected, "{tree:?} {addr:?}");
                unmapped += u64::from(expected == 0);
            }
            assert!(unmapped > 0, "{tree:?}: the span has unmapped pages");
        }

        // Outside the remembered span: below it, just past it while still
        // mapped, and far away.
        let half = FOOTPRINT / 2;
        let mut span = LeafTables::new(store, built.region, half);
        let past = built.region.add(half);
        assert!(translate_entry(store, roots[0], past).is_some());
        for addr in [
            VirtAddr::new(built.region.as_u64() - PAGE),
            past,
            VirtAddr::new(0),
            VirtAddr::new((1 << 47) - PAGE),
        ] {
            assert_eq!(span.touch(roots[0], addr), 0, "{tree:?} {addr:?}");
        }
        assert_eq!(built.leaves(), before, "{tree:?}: a touch wrote an entry");
    }
}

/// Everything `tlb_step` leaves behind for one access.
type Stepped = (Result<(), VirtAddr>, Vec<Miss>, ThreadTotals);

/// Steps a stream of reads and writes over the whole region, unmapped part
/// included, through `tlb_step` from every root in turn, touching each
/// block of 16 accesses first when `touch` is set.  Returns each step's
/// outcome and every root's leaf entries after the run.
fn step_stream(tree: Tree, touch: bool) -> (Vec<Stepped>, Vec<Vec<LeafMapping>>) {
    let built = Built::new(tree);
    let env = built.system.pt_env();
    let frame_space = env.alloc.frame_space().clone();
    let ctx = AccessCtx {
        region: built.region.as_u64(),
        compute_cycles: 5,
        frame_space: &frame_space,
    };
    let spec = WorkloadSpec::new(
        "uniform",
        "uniform random reads and writes",
        FOOTPRINT,
        AccessPattern::UniformRandom,
        0.5,
        5,
        0.9,
        InitPattern::SingleThread,
        Scenario::Both,
    );
    let cost = Arc::new(built.system.machine().cost_model().clone());
    let sockets = built.system.machine().sockets();
    let mut leaves = LeafTables::new(&env.store, built.region, FOOTPRINT);
    let mut stepped = Vec::new();
    for (seed, root) in built.roots().into_iter().enumerate() {
        let phase = ThreadPhase {
            cost: cost.clone(),
            data_cost: (1..=sockets as u64).collect(),
            cr3: root,
        };
        let (mut tlbs, _) = Mmu::new(CoreId::new(0), SocketId::new(0)).into_halves();
        let mut totals = ThreadTotals::default();
        let mut stream = AccessStream::new(&spec, seed as u64);
        for _ in 0..64 {
            let block: Vec<_> = (0..16).map(|_| stream.next_access()).collect();
            if touch {
                for access in &block {
                    leaves.touch(root, ctx.addr(access.offset));
                }
            }
            for access in block {
                let mut misses = Vec::new();
                let result = tlb_step(
                    access.offset,
                    access.is_write,
                    &mut tlbs,
                    &mut totals,
                    &mut leaves,
                    &phase,
                    ctx,
                    &mut misses,
                );
                stepped.push((result, misses, totals));
            }
        }
    }
    (stepped, built.leaves())
}

#[test]
fn a_touch_before_each_block_changes_no_fill() {
    for tree in TREES {
        let (plain, plain_leaves) = step_stream(tree, false);
        let (touched, touched_leaves) = step_stream(tree, true);
        assert!(plain.iter().any(|(result, _, _)| result.is_err()));
        assert!(plain.iter().any(|(_, misses, _)| !misses.is_empty()));
        assert_eq!(plain, touched, "{tree:?}");
        assert_eq!(plain_leaves, touched_leaves, "{tree:?}");
    }
}
