//! Golden-metrics regression test.
//!
//! The translation hot path is performance-critical and periodically
//! rebuilt (slab page-table storage, O(1) cache eviction, precomputed cost
//! matrices...).  Every rebuild must change *speed only*: for a fixed seed
//! the simulated model has to produce bit-identical [`RunMetrics`].  This
//! test pins the full metrics of nine fixed-seed runs — three workloads
//! (GUPS, BTree, Memcached) under three placements (local, remote
//! page-tables + data, Mitosis-replicated page tables) — as snapshot
//! strings asserted byte-for-byte.
//!
//! The snapshots were captured from the tree *before* the hot-path overhaul
//! (PR 2) and must never be edited to make a refactor pass; a mismatch
//! means the model changed, not the snapshot.
//!
//! Two dynamic multi-socket runs are pinned beside them: a 4-socket,
//! 2-threads-per-socket premapped run under a schedule of data migration,
//! replica add and drop, a staggered AutoNUMA rebalance and page-table
//! migration, and a small-scale `F+M` [`MultiSocketScenario`] run.  Their
//! snapshots were captured from the tree before the engine began running a
//! fault-free segment's socket groups on separate host threads, so they
//! pin that split (and every boundary around it) to the serial results.
//!
//! A churn run under ranged shootdowns is pinned too, with the shootdown
//! work it did: replicas, a fork, mmap/munmap, a huge-page promotion and
//! demotion and a page-table migration, captured before the copy-on-write
//! shootdown was reworked, so that rework states what it moves.

use mitosis::Mitosis;
use mitosis_numa::{NodeMask, SocketId};
use mitosis_obs::{MemoryRecorder, Observer};
use mitosis_pt::VirtAddr;
use mitosis_sim::{
    ExecutionEngine, MultiSocketConfig, MultiSocketScenario, PhaseChange, PhaseSchedule,
    PreparedSystem, RunMetrics, SetupStep, ShootdownStats, SimParams,
};
use mitosis_vmm::{MmapFlags, PtPlacement, System};
use mitosis_workloads::{suite, InitPattern, WorkloadSpec};
use std::sync::Arc;

fn params() -> SimParams {
    SimParams::quick_test()
}

/// Renders metrics as the canonical snapshot string.  `Debug` for
/// `RunMetrics` prints every field (including the nested MMU and walk
/// statistics), so two equal strings mean bit-identical metrics.
fn snapshot(metrics: &RunMetrics) -> String {
    format!("{metrics:?}")
}

/// Local baseline: process, page tables and data all on socket 0.
fn run_local(spec: &WorkloadSpec) -> RunMetrics {
    run_local_observed(spec, &Observer::none())
}

/// [`run_local`] under an explicit observer — the observability layer must
/// not perturb the golden values.
fn run_local_observed(spec: &WorkloadSpec, observer: &Observer) -> RunMetrics {
    let params = params();
    let scaled = params.scale_workload(spec);
    let mut system = System::new(params.machine());
    let s0 = SocketId::new(0);
    let pid = system.create_process(s0).expect("create process");
    let region = system
        .mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())
        .expect("mmap");
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        InitPattern::SingleThread,
        &[s0],
    )
    .expect("populate");
    let threads = ExecutionEngine::one_thread_per_socket(&system, &[s0]);
    let mut engine = ExecutionEngine::new(&system);
    engine.set_observer(observer.clone());
    engine
        .run(&mut system, pid, &scaled, region, &threads, &params)
        .expect("run")
}

/// Remote page tables: the thread runs on socket 0 while every page-table
/// page is allocated on socket 1 (the placement Mitosis exists to fix).
fn run_remote(spec: &WorkloadSpec) -> RunMetrics {
    let params = params();
    let scaled = params.scale_workload(spec);
    let mut system = System::new(params.machine());
    let (s0, s1) = (SocketId::new(0), SocketId::new(1));
    system.set_pt_placement(PtPlacement::Fixed(s1));
    let pid = system.create_process(s0).expect("create process");
    let region = system
        .mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())
        .expect("mmap");
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        InitPattern::SingleThread,
        &[s0],
    )
    .expect("populate");
    let threads = ExecutionEngine::one_thread_per_socket(&system, &[s0]);
    ExecutionEngine::new(&system)
        .run(&mut system, pid, &scaled, region, &threads, &params)
        .expect("run")
}

/// Mitosis: page tables replicated on every socket, one thread per socket.
fn run_replicated(spec: &WorkloadSpec) -> RunMetrics {
    run_replicated_observed(spec, &Observer::none())
}

/// [`run_replicated`] under an explicit observer.
fn run_replicated_observed(spec: &WorkloadSpec, observer: &Observer) -> RunMetrics {
    let params = params();
    let scaled = params.scale_workload(spec);
    let mut mitosis = Mitosis::new();
    let mut system = mitosis.install(params.machine());
    let s0 = SocketId::new(0);
    let pid = system.create_process(s0).expect("create process");
    let region = system
        .mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())
        .expect("mmap");
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        InitPattern::SingleThread,
        &[s0],
    )
    .expect("populate");
    mitosis
        .enable_for_process(&mut system, pid, None)
        .expect("replicate page tables");
    let sockets: Vec<SocketId> = system.machine().socket_ids().collect();
    let threads = ExecutionEngine::one_thread_per_socket(&system, &sockets);
    let mut engine = ExecutionEngine::new(&system);
    engine.set_observer(observer.clone());
    engine
        .run(&mut system, pid, &scaled, region, &threads, &params)
        .expect("run")
}

/// Four sockets, two threads each, over a premapped region with Mitosis
/// installed, under a schedule that moves the data, grows the replica set
/// to every socket and drops it again, rebalances the data with AutoNUMA as
/// seen by thread 1 alone (a staggered boundary), and finally migrates the
/// page tables.
fn run_dynamic_multisocket() -> RunMetrics {
    let params = params();
    let scaled = params.scale_workload(&suite::gups());
    let mitosis = Mitosis::new();
    let mut system = mitosis.install(params.machine());
    let sockets: Vec<SocketId> = system.machine().socket_ids().collect();
    let pid = system.create_process(sockets[0]).expect("create process");
    let region = system
        .mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())
        .expect("mmap");
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        InitPattern::Parallel,
        &sockets,
    )
    .expect("populate");
    let n = params.accesses_per_thread;
    let all = NodeMask::all(sockets.len());
    let schedule = PhaseSchedule::new()
        .at(n / 5, PhaseChange::MigrateData { target: sockets[1] })
        .at(2 * n / 5, PhaseChange::SetReplicas { sockets: all })
        .at_thread(
            3 * n / 5,
            1,
            PhaseChange::AutoNumaRebalance { sockets: all },
        )
        .at(
            7 * n / 10,
            PhaseChange::SetReplicas {
                sockets: NodeMask::EMPTY,
            },
        )
        .at(
            4 * n / 5,
            PhaseChange::MigratePageTable { target: sockets[2] },
        );
    let threads = ExecutionEngine::threads_for(&system, &sockets, 2);
    let mut mitosis = mitosis;
    ExecutionEngine::new(&system)
        .run_dynamic(
            &mut system,
            &mut mitosis,
            pid,
            &scaled,
            region,
            &threads,
            &params,
            &schedule,
        )
        .expect("dynamic run")
}

fn check(label: &str, expected: &str, metrics: RunMetrics) {
    let actual = snapshot(&metrics);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLD {label} {actual}");
        return;
    }
    assert_eq!(
        actual, expected,
        "golden metrics changed for {label}: the refactor altered the model, \
         not just its speed.\nactual:   {actual}\nexpected: {expected}"
    );
}

const GOLD_GUPS_LOCAL: &str = "RunMetrics { total_cycles: 1152590, compute_cycles: 10000, data_cycles: 560000, translation_cycles: 582590, threads: 1, accesses: 2000, mmu: MmuStats { accesses: 2000, tlb_l1_hits: 8, tlb_l2_hits: 40, tlb_misses: 1952, translation_cycles: 582590, walk: WalkStats { walks: 1952, faults: 0, walk_cycles: 582310, levels_accessed: 2956, local_dram_accesses: 1761, remote_dram_accesses: 0, pte_cache_hits: 1195, interfered_accesses: 0 } }, demand_faults: 0 }";
const GOLD_GUPS_REMOTE: &str = "RunMetrics { total_cycles: 1680890, compute_cycles: 10000, data_cycles: 560000, translation_cycles: 1110890, threads: 1, accesses: 2000, mmu: MmuStats { accesses: 2000, tlb_l1_hits: 8, tlb_l2_hits: 40, tlb_misses: 1952, translation_cycles: 1110890, walk: WalkStats { walks: 1952, faults: 0, walk_cycles: 1110610, levels_accessed: 2956, local_dram_accesses: 0, remote_dram_accesses: 1761, pte_cache_hits: 1195, interfered_accesses: 0 } }, demand_faults: 0 }";
const GOLD_GUPS_REPL: &str = "RunMetrics { total_cycles: 3369924, compute_cycles: 40000, data_cycles: 8882000, translation_cycles: 2335935, threads: 4, accesses: 8000, mmu: MmuStats { accesses: 8000, tlb_l1_hits: 21, tlb_l2_hits: 167, tlb_misses: 7812, translation_cycles: 2335935, walk: WalkStats { walks: 7812, faults: 0, walk_cycles: 2334766, levels_accessed: 11761, local_dram_accesses: 7078, remote_dram_accesses: 0, pte_cache_hits: 4683, interfered_accesses: 0 } }, demand_faults: 0 }";
const GOLD_BTREE_LOCAL: &str = "RunMetrics { total_cycles: 1172857, compute_cycles: 50000, data_cycles: 629987, translation_cycles: 492870, threads: 1, accesses: 2000, mmu: MmuStats { accesses: 2000, tlb_l1_hits: 15, tlb_l2_hits: 170, tlb_misses: 1815, translation_cycles: 492870, walk: WalkStats { walks: 1815, faults: 0, walk_cycles: 491680, levels_accessed: 2657, local_dram_accesses: 1180, remote_dram_accesses: 117, pte_cache_hits: 1360, interfered_accesses: 0 } }, demand_faults: 0 }";
const GOLD_BTREE_REMOTE: &str = "RunMetrics { total_cycles: 1525719, compute_cycles: 50000, data_cycles: 628849, translation_cycles: 846870, threads: 1, accesses: 2000, mmu: MmuStats { accesses: 2000, tlb_l1_hits: 15, tlb_l2_hits: 170, tlb_misses: 1815, translation_cycles: 846870, walk: WalkStats { walks: 1815, faults: 0, walk_cycles: 845680, levels_accessed: 2657, local_dram_accesses: 0, remote_dram_accesses: 1297, pte_cache_hits: 1360, interfered_accesses: 0 } }, demand_faults: 0 }";
const GOLD_BTREE_REPL: &str = "RunMetrics { total_cycles: 2196402, compute_cycles: 200000, data_cycles: 5647172, translation_cycles: 1793215, threads: 4, accesses: 8000, mmu: MmuStats { accesses: 8000, tlb_l1_hits: 70, tlb_l2_hits: 759, tlb_misses: 7171, translation_cycles: 1793215, walk: WalkStats { walks: 7171, faults: 0, walk_cycles: 1787902, levels_accessed: 10464, local_dram_accesses: 5063, remote_dram_accesses: 0, pte_cache_hits: 5401, interfered_accesses: 0 } }, demand_faults: 0 }";
const GOLD_MEMCACHED_LOCAL: &str = "RunMetrics { total_cycles: 1862712, compute_cycles: 60000, data_cycles: 996084, translation_cycles: 806628, threads: 1, accesses: 2000, mmu: MmuStats { accesses: 2000, tlb_l1_hits: 0, tlb_l2_hits: 28, tlb_misses: 1972, translation_cycles: 806628, walk: WalkStats { walks: 1972, faults: 0, walk_cycles: 806432, levels_accessed: 3382, local_dram_accesses: 1317, remote_dram_accesses: 579, pte_cache_hits: 1486, interfered_accesses: 0 } }, demand_faults: 0 }";
const GOLD_MEMCACHED_REMOTE: &str = "RunMetrics { total_cycles: 2257812, compute_cycles: 60000, data_cycles: 996084, translation_cycles: 1201728, threads: 1, accesses: 2000, mmu: MmuStats { accesses: 2000, tlb_l1_hits: 0, tlb_l2_hits: 28, tlb_misses: 1972, translation_cycles: 1201728, walk: WalkStats { walks: 1972, faults: 0, walk_cycles: 1201532, levels_accessed: 3382, local_dram_accesses: 0, remote_dram_accesses: 1896, pte_cache_hits: 1486, interfered_accesses: 0 } }, demand_faults: 0 }";
const GOLD_MEMCACHED_REPL: &str = "RunMetrics { total_cycles: 2963541, compute_cycles: 240000, data_cycles: 6742212, translation_cycles: 3102745, threads: 4, accesses: 8000, mmu: MmuStats { accesses: 8000, tlb_l1_hits: 10, tlb_l2_hits: 119, tlb_misses: 7871, translation_cycles: 3102745, walk: WalkStats { walks: 7871, faults: 0, walk_cycles: 3101912, levels_accessed: 13396, local_dram_accesses: 5636, remote_dram_accesses: 1934, pte_cache_hits: 5826, interfered_accesses: 0 } }, demand_faults: 0 }";

/// The observability layer must be invisible to the model: the same golden
/// values hold with a live recorder, which counts the run and its accesses.
#[test]
fn golden_metrics_hold_under_a_live_recorder() {
    let spec = suite::gups();
    for (label, gold, run) in [
        (
            "GUPS/local+obs",
            GOLD_GUPS_LOCAL,
            run_local_observed as fn(&WorkloadSpec, &Observer) -> RunMetrics,
        ),
        (
            "GUPS/replicated+obs",
            GOLD_GUPS_REPL,
            run_replicated_observed,
        ),
    ] {
        let memory = Arc::new(MemoryRecorder::new());
        let metrics = run(&spec, &Observer::with_recorder(memory.clone()));
        check(label, gold, metrics);
        assert_eq!(memory.counter_value("engine.runs"), 1);
        assert_eq!(memory.counter_value("engine.accesses"), metrics.accesses);
    }
}

#[test]
fn gups_metrics_are_bit_identical() {
    let spec = suite::gups();
    check("GUPS/local", GOLD_GUPS_LOCAL, run_local(&spec));
    check("GUPS/remote", GOLD_GUPS_REMOTE, run_remote(&spec));
    check("GUPS/replicated", GOLD_GUPS_REPL, run_replicated(&spec));
}

#[test]
fn btree_metrics_are_bit_identical() {
    let spec = suite::btree();
    check("BTree/local", GOLD_BTREE_LOCAL, run_local(&spec));
    check("BTree/remote", GOLD_BTREE_REMOTE, run_remote(&spec));
    check("BTree/replicated", GOLD_BTREE_REPL, run_replicated(&spec));
}

#[test]
fn memcached_metrics_are_bit_identical() {
    let spec = suite::memcached();
    check("Memcached/local", GOLD_MEMCACHED_LOCAL, run_local(&spec));
    check("Memcached/remote", GOLD_MEMCACHED_REMOTE, run_remote(&spec));
    check(
        "Memcached/replicated",
        GOLD_MEMCACHED_REPL,
        run_replicated(&spec),
    );
}

const GOLD_DYNAMIC_MULTISOCKET: &str = "RunMetrics { total_cycles: 3446441, compute_cycles: 80000, data_cycles: 17858095, translation_cycles: 7252807, threads: 8, accesses: 16000, mmu: MmuStats { accesses: 16000, tlb_l1_hits: 40, tlb_l2_hits: 69, tlb_misses: 15891, translation_cycles: 7252807, walk: WalkStats { walks: 15891, faults: 0, walk_cycles: 7252324, levels_accessed: 24328, local_dram_accesses: 7112, remote_dram_accesses: 7844, pte_cache_hits: 9372, interfered_accesses: 0 } }, demand_faults: 0 }";
const GOLD_CANNEAL_FM: &str = "RunMetrics { total_cycles: 2656402, compute_cycles: 40000, data_cycles: 7275542, translation_cycles: 2702020, threads: 4, accesses: 8000, mmu: MmuStats { accesses: 8000, tlb_l1_hits: 5, tlb_l2_hits: 28, tlb_misses: 7967, translation_cycles: 2702020, walk: WalkStats { walks: 7967, faults: 0, walk_cycles: 2701824, levels_accessed: 15202, local_dram_accesses: 8000, remote_dram_accesses: 0, pte_cache_hits: 7202, interfered_accesses: 0 } }, demand_faults: 0 }";

#[test]
fn dynamic_multisocket_metrics_are_bit_identical() {
    check(
        "GUPS/dynamic-4x2",
        GOLD_DYNAMIC_MULTISOCKET,
        run_dynamic_multisocket(),
    );
}

#[test]
fn multisocket_scenario_metrics_are_bit_identical() {
    let result = MultiSocketScenario::run(
        &suite::canneal(),
        MultiSocketConfig::first_touch().with_mitosis(),
        &params(),
    )
    .expect("F+M scenario");
    check("Canneal/F+M", GOLD_CANNEAL_FM, result.metrics);
}

/// Two sockets, one thread each, over a lazily mapped region with Mitosis
/// installed and ranged shootdowns, under a schedule that replicates the
/// page tables on both sockets, maps a region away from the workload's and
/// punches a hole in it, promotes a 2 MiB chunk of the workload region and
/// splits it again, forks (every later write breaks copy-on-write), and
/// migrates the page tables.  Returns the run's shootdown work with its
/// metrics.
fn run_churn() -> (RunMetrics, ShootdownStats) {
    /// Where the workload region's `mmap` lands.
    const REGION_BASE: u64 = 0x2000_0000_0000;
    /// Far above the workload region.
    const CHURN_BASE: u64 = 0x7000_0000_0000;
    let params = params().with_ranged_shootdowns();
    let scaled = params.scale_workload(&suite::gups());
    let sockets = [SocketId::new(0), SocketId::new(1)];
    let steps = [
        SetupStep::InstallMitosis,
        SetupStep::CreateProcess(sockets[0]),
        SetupStep::Mmap {
            len: scaled.footprint(),
            populate: false,
            thp: false,
        },
        SetupStep::Populate {
            len: scaled.footprint(),
            init: scaled.init(),
            sockets: NodeMask::from_sockets(sockets),
        },
    ];
    let PreparedSystem {
        mut system,
        mut mitosis,
        pid,
        region,
    } = PreparedSystem::build(&params, &steps).expect("setup");
    assert_eq!(region.as_u64(), REGION_BASE);
    let huge = VirtAddr::new(REGION_BASE + (8 << 20));
    let schedule = PhaseSchedule::new()
        .at(
            200,
            PhaseChange::SetReplicas {
                sockets: NodeMask::from_sockets(sockets),
            },
        )
        .at(
            400,
            PhaseChange::MmapAt {
                addr: VirtAddr::new(CHURN_BASE),
                length: 64 << 12,
            },
        )
        .at(
            600,
            PhaseChange::MunmapAt {
                addr: VirtAddr::new(CHURN_BASE + (16 << 12)),
                length: 32 << 12,
            },
        )
        .at(800, PhaseChange::PromoteHuge { addr: huge })
        .at(1000, PhaseChange::DemoteHuge { addr: huge })
        .at(1200, PhaseChange::Fork)
        .at(1600, PhaseChange::MigratePageTable { target: sockets[1] });
    let threads = ExecutionEngine::one_thread_per_socket(&system, &sockets);
    let mut engine = ExecutionEngine::new(&system);
    let metrics = engine
        .run_dynamic(
            &mut system,
            &mut mitosis,
            pid,
            &scaled,
            region,
            &threads,
            &params,
            &schedule,
        )
        .expect("churn run");
    (metrics, engine.last_shootdowns())
}

const GOLD_CHURN: &str = "RunMetrics { total_cycles: 3079013, compute_cycles: 20000, data_cycles: 2883451, translation_cycles: 1547923, threads: 2, accesses: 4000, mmu: MmuStats { accesses: 4791, tlb_l1_hits: 19, tlb_l2_hits: 27, tlb_misses: 4745, translation_cycles: 1547923, walk: WalkStats { walks: 4745, faults: 791, walk_cycles: 1547734, levels_accessed: 9231, local_dram_accesses: 3110, remote_dram_accesses: 604, pte_cache_hits: 5517, interfered_accesses: 0 } }, demand_faults: 791 }";
const GOLD_CHURN_SHOOTDOWNS: &str =
    "ShootdownStats { full_flushes: 4, ranged_ranges: 794, entries_invalidated: 3302 }";

#[test]
fn churn_metrics_and_shootdowns_are_bit_identical() {
    let (metrics, shootdowns) = run_churn();
    check("GUPS/churn-2x1", GOLD_CHURN, metrics);
    let actual = format!("{shootdowns:?}");
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLD GUPS/churn-2x1/shootdowns {actual}");
        return;
    }
    assert_eq!(actual, GOLD_CHURN_SHOOTDOWNS, "shootdown work changed");
}
