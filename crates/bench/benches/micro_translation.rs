//! Micro-benchmarks (ablation) of the core mechanisms: TLB hits, local vs.
//! remote page walks, the two stages of the engine's pipelined schedule at
//! a Figure 10 footprint, a split segment at a Figure 9 footprint, native
//! vs. replicated PTE updates, whole-tree
//! replication, the setup layer (populate, also at a Figure 10 footprint,
//! and footprint) and the copy-on-write path (one-page ranged shootdown,
//! fork).
//!
//! These are not paper figures; they quantify the paper's design choices
//! (2N-reference eager updates, replica-ring lookups, walk cost asymmetry)
//! and guard against performance regressions in the simulator itself.  The
//! README's *Performance* section records their figures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mitosis::{replicate_tree, Mitosis, MitosisPvOps};
use mitosis_mem::PlacementPolicy;
use mitosis_mmu::step::{
    tlb_step, walk_step, AccessCtx, LeafTables, Miss, ThreadPhase, ThreadTotals,
};
use mitosis_mmu::{Mmu, PteCacheSet};
use mitosis_numa::{CoreId, Machine, MachineConfig, NodeMask, SocketId};
use mitosis_pt::{
    Mapper, MappingTx, NativePvOps, PageSize, PtEnv, Pte, PteFlags, PvOps, ReplicationSpec,
    ShootdownPlan, ShootdownRange, VirtAddr,
};
use mitosis_sim::{
    data_access_cycles, ExecutionEngine, MigrationConfig, MigrationRun, MultiSocketConfig,
    MultiSocketScenario, PreparedSystem, SimParams, WorkloadMigrationScenario,
};
use mitosis_vmm::{MmapFlags, Pid, ShootdownMode, System};
use mitosis_workloads::{suite, Access};
use std::sync::Arc;
use std::time::Duration;

/// Builds a native page table with `pages` 4 KiB mappings on socket 0.
fn build_tree(pages: u64) -> (PtEnv, mitosis_pt::PtRoots, Vec<VirtAddr>) {
    let machine = MachineConfig::paper_testbed_scaled().build();
    let mut env = PtEnv::new(&machine);
    let mut ops = NativePvOps::new();
    let mut ctx = env.context();
    let roots = Mapper::create_roots(
        &mut ops,
        &mut ctx,
        SocketId::new(0),
        ReplicationSpec::none(),
    )
    .expect("roots");
    let mapper = Mapper::new(&roots);
    let mut addrs = Vec::new();
    for i in 0..pages {
        let addr = VirtAddr::new(0x10_0000_0000 + i * 4096);
        let data = ctx.alloc.alloc_on(SocketId::new(0)).expect("data frame");
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
            .expect("map");
        addrs.push(addr);
    }
    (env, roots, addrs)
}

fn bench_walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/translation");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let machine = MachineConfig::paper_testbed_scaled().build();
    let cost = machine.cost_model().clone();
    let (env, roots, addrs) = build_tree(4096);

    group.bench_function("tlb_hit", |b| {
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut caches = PteCacheSet::for_machine(&machine);
        // Warm the TLB with one address.
        let addr = addrs[0];
        mmu.access(
            addr,
            false,
            roots.base(),
            &env.store,
            env.alloc.frame_space(),
            &cost,
            caches.socket(SocketId::new(0)),
        );
        b.iter(|| {
            mmu.access(
                addr,
                false,
                roots.base(),
                &env.store,
                env.alloc.frame_space(),
                &cost,
                caches.socket(SocketId::new(0)),
            )
        });
    });

    for (label, socket) in [("walk_local_socket", 0u16), ("walk_remote_socket", 1u16)] {
        group.bench_function(label, |b| {
            let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(socket));
            let mut caches = PteCacheSet::with_capacity(machine.sockets(), 4);
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % addrs.len();
                mmu.access(
                    addrs[i],
                    false,
                    roots.base(),
                    &env.store,
                    env.alloc.frame_space(),
                    &cost,
                    caches.socket(SocketId::new(socket)),
                )
            });
        });
    }
    group.finish();
}

fn bench_pte_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/set_pte");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let machine = MachineConfig::paper_testbed().build();

    group.bench_function("native", |b| {
        let mut env = PtEnv::new(&machine);
        let mut ops = NativePvOps::new();
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, SocketId::new(0), &ReplicationSpec::none())
            .expect("table");
        let data = ctx.alloc.alloc_on(SocketId::new(0)).expect("frame");
        let pte = Pte::new(data, PteFlags::user_data());
        let mut index = 0usize;
        b.iter(|| {
            index = (index + 1) % 512;
            ops.set_pte(&mut ctx, table, index, pte);
        });
    });

    group.bench_function("mitosis_4way", |b| {
        let mut env = PtEnv::new(&machine);
        let mut ops = MitosisPvOps::new();
        let repl = ReplicationSpec::all_sockets(4);
        let mut ctx = env.context();
        let table = ops
            .alloc_table(&mut ctx, SocketId::new(0), &repl)
            .expect("table");
        let data = ctx.alloc.alloc_on(SocketId::new(0)).expect("frame");
        let pte = Pte::new(data, PteFlags::user_data());
        let mut index = 0usize;
        b.iter(|| {
            index = (index + 1) % 512;
            ops.set_pte(&mut ctx, table, index, pte);
        });
    });
    group.finish();
}

/// Translation throughput under a GUPS-like uniform-random pattern with an
/// L3-sized PTE-line cache — the miss-heavy case the O(1) eviction rewrite
/// targets (the old implementation scanned the whole cache per miss).
/// Reports both ns/access (Criterion) and accesses/second (println).
fn bench_translation_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/translation_throughput");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let machine = MachineConfig::paper_testbed_scaled().build();
    let cost = machine.cost_model().clone();
    // Enough mappings that the page-table-line working set (~25 000 lines)
    // exceeds the L3-sized cache (~18 000 lines): uniform-random access
    // then evicts on most walks, exactly the GUPS regime where the old
    // full-scan eviction collapsed.  The CI smoke step (quick mode) only
    // needs the path exercised, not the full-size working set.
    let quick = std::env::var("MITOSIS_BENCH_QUICK").is_ok_and(|v| !v.is_empty());
    let (env, roots, addrs) = build_tree(if quick { 20_000 } else { 200_000 });

    group.bench_function("random_4k_walks", |b| {
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        // L3-sized cache, as the execution engine uses it.
        let mut caches = PteCacheSet::for_machine(&machine);
        let mut state = 0x9E3779B97F4A7C15u64;
        b.iter(|| {
            // xorshift64: deterministic uniform-random page selection.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = addrs[(state % addrs.len() as u64) as usize];
            mmu.access(
                addr,
                false,
                roots.base(),
                &env.store,
                env.alloc.frame_space(),
                &cost,
                caches.socket(SocketId::new(0)),
            )
        });
    });
    group.finish();

    // Plain accesses/second figure for the README "Performance" table.
    // In quick (CI smoke) mode the sample is shrunk to match the clamped
    // criterion budgets — the step exists to catch breakage, not to time.
    let accesses: u64 = if quick { 100_000 } else { 2_000_000 };
    let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
    let mut caches = PteCacheSet::for_machine(&machine);
    let mut state = 0x9E3779B97F4A7C15u64;
    #[expect(clippy::disallowed_methods, reason = "host throughput, not a metric")]
    let start = std::time::Instant::now();
    for _ in 0..accesses {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let addr = addrs[(state % addrs.len() as u64) as usize];
        criterion::black_box(mmu.access(
            addr,
            false,
            roots.base(),
            &env.store,
            env.alloc.frame_space(),
            &cost,
            caches.socket(SocketId::new(0)),
        ));
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "micro/translation_throughput/random_4k_walks     {:.2} M accesses/s",
        accesses as f64 / elapsed / 1e6
    );
}

/// The pipelined schedule's two stages at the footprint of a Figure 10
/// run: GUPS at machine scale 128 — a 512 MiB region of 131,072 4 KiB
/// pages, populated by one thread with its data bound to socket 0 (the
/// LP-LD setup) — and the access stream `ExecutionEngine::run` feeds its
/// thread at seed 42.
///
/// `tlb_stage` drives `tlb_step` as the engine's TLB stage does: probe,
/// fill from the tables on a miss, queue the miss.  `walk_stage` drives
/// `walk_step` over the misses a first pass of the TLB stage queued, as the
/// walk stage does, through the socket's L3-sized page-table-line cache.
/// Both report host ns per access of the stream (an access the TLBs served
/// costs the walk stage nothing), so whichever row is larger bounds a
/// pipelined segment.  Quick mode keeps the footprint and draws fewer
/// accesses.
fn bench_pipeline_stages(c: &mut Criterion) {
    let quick = std::env::var("MITOSIS_BENCH_QUICK").is_ok_and(|v| !v.is_empty());
    let params = SimParams::new().with_machine_scale(128).with_seed(42);
    let spec = suite::gups();
    let run = MigrationRun::new(MigrationConfig::LpLd);
    let setup = WorkloadMigrationScenario::setup(&spec, run, &params);
    let PreparedSystem {
        system,
        pid,
        region,
        ..
    } = PreparedSystem::build(&params, &setup).expect("fig10 LP-LD setup");
    let scaled = params.scale_workload(&spec);
    let socket = SocketId::new(0);
    let mut stream = ExecutionEngine::thread_streams(&scaled, &params, 1).remove(0);
    let drawn = if quick { 50_000 } else { 400_000 };
    let accesses: Vec<Access> = (0..drawn).map(|_| stream.next_access()).collect();

    let env = system.pt_env();
    let frame_space = env.alloc.frame_space().clone();
    let ctx = AccessCtx {
        region: region.as_u64(),
        compute_cycles: scaled.compute_cycles_per_access(),
        frame_space: &frame_space,
    };
    let cost = Arc::new(system.machine().cost_model().clone());
    let data_cost = (0..system.machine().sockets())
        .map(|to| {
            let to = SocketId::new(to as u16);
            data_access_cycles(&cost, socket, to, scaled.bandwidth_intensity())
        })
        .collect();
    let phase = ThreadPhase {
        cost,
        data_cost,
        cr3: system.cr3_for(pid, socket).expect("cr3"),
    };
    let (mut tlbs, mut walks) = Mmu::new(CoreId::new(0), socket).into_halves();
    let mut leaves = LeafTables::new(&env.store, region, scaled.footprint());
    let mut totals = ThreadTotals::default();
    let mut tlb_access = |access: Access, misses: &mut Vec<Miss>| {
        tlb_step(
            access.offset,
            access.is_write,
            &mut tlbs,
            &mut totals,
            &mut leaves,
            &phase,
            ctx,
            misses,
        )
        .expect("a populated region does not fault")
    };

    // The first pass records each access's miss for the walk stage.
    let mut misses = Vec::with_capacity(1);
    let recorded: Vec<Option<Miss>> = accesses
        .iter()
        .map(|&access| {
            tlb_access(access, &mut misses);
            misses.pop()
        })
        .collect();

    let mut group = c.benchmark_group("micro/pipeline");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("tlb_stage", |b| {
        let mut next = accesses.iter().cycle();
        let mut batch = Vec::with_capacity(1024);
        b.iter(|| {
            let access = *next.next().expect("a cycle never ends");
            tlb_access(access, &mut batch);
            if batch.len() == batch.capacity() {
                batch.clear();
            }
        });
    });
    group.bench_function("walk_stage", |b| {
        let mut pte_cache = PteCacheSet::for_machine(system.machine())
            .socket(socket)
            .clone();
        let mut next = recorded.iter().cycle();
        b.iter(|| {
            if let Some(miss) = *next.next().expect("a cycle never ends") {
                walk_step(
                    miss,
                    &mut walks,
                    &mut pte_cache,
                    &phase,
                    &env.store,
                    &frame_space,
                );
            }
        });
    });
    group.finish();
}

/// A split segment at the footprint of a Figure 9 run: Canneal under F+M
/// at machine scale 128, built by the scenario's own setup — populated by
/// every socket, then replicated onto all four — and run with one thread
/// per socket from seed 42.  Each of the four page-table trees has about
/// 1,500 leaf tables (6 MiB), so nearly every leaf-entry read misses the
/// host's L2, as in the benchmark's `fig9_multisocket`.
///
/// One iteration is one `ExecutionEngine::run` of the whole measured
/// phase, from page-table-line caches reset as on a fresh engine: 60,000
/// accesses per thread, as Figure 9 runs, or 5,000 in quick mode.
fn bench_split_segment(c: &mut Criterion) {
    let quick = std::env::var("MITOSIS_BENCH_QUICK").is_ok_and(|v| !v.is_empty());
    let params = SimParams::new()
        .with_machine_scale(128)
        .with_seed(42)
        .with_accesses(if quick { 5_000 } else { 60_000 });
    let spec = suite::canneal();
    let config = MultiSocketConfig::first_touch().with_mitosis();
    let setup = MultiSocketScenario::setup(&spec, config, &params);
    let PreparedSystem {
        mut system,
        pid,
        region,
        ..
    } = PreparedSystem::build(&params, &setup).expect("fig9 Canneal F+M setup");
    let scaled = params.scale_workload(&spec);
    let sockets: Vec<SocketId> = system.machine().socket_ids().collect();
    let threads = ExecutionEngine::one_thread_per_socket(&system, &sockets);
    let mut engine = ExecutionEngine::new(&system);
    let mut run = |system: &mut System| {
        engine.reset();
        let metrics = engine
            .run(system, pid, &scaled, region, &threads, &params)
            .expect("a populated region runs");
        let split = engine.last_split();
        assert_eq!(
            (split.split_segments, split.serial_segments),
            (1, 0),
            "the run is one split segment"
        );
        metrics
    };
    run(&mut system);

    let mut group = c.benchmark_group("micro/split");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("canneal_fm", |b| b.iter(|| run(&mut system)));
    group.finish();
}

fn bench_tree_replication(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/replicate_tree");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("4096_pages_to_4_sockets", |b| {
        b.iter_batched(
            || build_tree(4096),
            |(mut env, roots, _)| {
                let mut ctx = env.context();
                replicate_tree(&mut ctx, &roots, NodeMask::all(4)).expect("replicate");
                env
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

/// Bytes of the lazily mapped region most setup benches populate: 1024
/// base pages, two leaf tables.
const SETUP_REGION: u64 = 4 * 1024 * 1024;

/// Bytes of GUPS's region at machine scale 128, a Figure 10 footprint:
/// 131,072 base pages, 256 leaf tables.
const GUPS_SCALE128_REGION: u64 = 512 * 1024 * 1024;

/// The page-table backend of a setup bench's system.
#[derive(Debug, Clone, Copy)]
enum Backend {
    /// Stock Linux: one page table per process.
    Native,
    /// The Mitosis backend with replication off.
    Mitosis,
    /// The Mitosis backend, replicating onto every socket.
    MitosisReplicated,
}

/// A process with a lazily mapped region of `bytes` on `machine`.
fn lazy_region(machine: &Machine, bytes: u64, backend: Backend) -> (System, Pid, VirtAddr) {
    let mut mitosis = Mitosis::new();
    let mut system = match backend {
        Backend::Native => System::new(machine.clone()),
        Backend::Mitosis | Backend::MitosisReplicated => mitosis.install(machine.clone()),
    };
    let pid = system.create_process(SocketId::new(0)).expect("process");
    let region = system.mmap(pid, bytes, MmapFlags::lazy()).expect("mmap");
    if let Backend::MitosisReplicated = backend {
        mitosis
            .enable_for_process(&mut system, pid, None)
            .expect("replicate");
    }
    (system, pid, region)
}

fn bench_setup(c: &mut Criterion) {
    let machine = MachineConfig::paper_testbed().build();
    let mut group = c.benchmark_group("micro/populate");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    // The 4 MiB rows keep every structure the populate writes in the
    // host's caches.  `gups_scale128` populates a Figure 10 footprint on a
    // scale-128 machine, where per-frame work misses them as it does in
    // the benchmark's setup; `interleave_scale128` populates it with its
    // data interleaved over the four sockets, as Figure 9's I+M does.
    let scaled = SimParams::new().with_machine_scale(128).machine();
    let first_touch = PlacementPolicy::FirstTouch;
    for (label, machine, bytes, backend, policy) in [
        (
            "native",
            &machine,
            SETUP_REGION,
            Backend::Native,
            first_touch,
        ),
        (
            "mitosis_4way",
            &machine,
            SETUP_REGION,
            Backend::MitosisReplicated,
            first_touch,
        ),
        (
            "gups_scale128",
            &scaled,
            GUPS_SCALE128_REGION,
            Backend::Mitosis,
            first_touch,
        ),
        (
            "interleave_scale128",
            &scaled,
            GUPS_SCALE128_REGION,
            Backend::Mitosis,
            PlacementPolicy::interleave_all(4),
        ),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let (mut system, pid, region) = lazy_region(machine, bytes, backend);
                    system
                        .process_mut(pid)
                        .expect("process")
                        .set_data_policy(policy);
                    (system, pid, region)
                },
                |(mut system, pid, region)| {
                    system
                        .populate_region(pid, region, bytes, SocketId::new(0))
                        .expect("populate");
                    system
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();

    let mut group = c.benchmark_group("micro/footprint");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("mitosis_4way", |b| {
        let (mut system, pid, region) =
            lazy_region(&machine, SETUP_REGION, Backend::MitosisReplicated);
        system
            .populate_region(pid, region, SETUP_REGION, SocketId::new(0))
            .expect("populate");
        b.iter(|| system.footprint(pid).expect("footprint"));
    });
    group.finish();
}

/// Pages between the one-page ranges of `micro/shootdown/fork_plan`: over
/// GUPS's region at machine scale 128 (131,072 pages) they make 26,215
/// scattered ranges, the shape of a churn run's second fork's plan (25,322
/// ranges at seed 42).
const FORK_PLAN_STRIDE: u64 = 5;

/// The steps of a fork/CoW storm that scale with the work modelled: the
/// one-page ranged shootdown a copy-on-write break delivers and the plan
/// of tens of thousands of scattered pages a fork of a partly copied
/// region delivers, each applied to an MMU whose TLBs are full (a one-page
/// plan checks one set per TLB level, not every way; a large one visits
/// each set once, not once per range), and forks of populated regions
/// under 2-way replication (one child-table lookup and one batched write
/// of each kind per parent leaf table, not two root walks per leaf).
fn bench_cow_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/shootdown");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let machine = MachineConfig::paper_testbed_scaled().build();
    let cost = machine.cost_model().clone();
    let (env, roots, addrs) = build_tree(4096);
    let mut full = Mmu::new(CoreId::new(0), SocketId::new(0));
    let mut caches = PteCacheSet::for_machine(&machine);
    for &addr in &addrs {
        full.access(
            addr,
            false,
            roots.base(),
            &env.store,
            env.alloc.frame_space(),
            &cost,
            caches.socket(SocketId::new(0)),
        );
    }
    assert_eq!(full.tlb().occupancy(), 64 + 1024, "4 KiB TLBs are full");
    group.bench_function("ranged_page", |b| {
        let mut mmu = full.clone();
        let plan = ShootdownPlan {
            ranges: vec![ShootdownRange {
                asid: 0,
                vpn_start: addrs[addrs.len() - 1].page_number(PageSize::Base4K),
                pages: 1,
                size: PageSize::Base4K,
            }],
            ..ShootdownPlan::default()
        };
        b.iter(|| mmu.apply_shootdown(&plan));
    });
    group.bench_function("fork_plan", |b| {
        let mut tx = MappingTx::new();
        for page in (0..GUPS_SCALE128_REGION / 4096).step_by(FORK_PLAN_STRIDE as usize) {
            tx.invalidate_page(0, addrs[0].add(page * 4096), PageSize::Base4K);
        }
        let plan = tx.take_plan();
        assert_eq!(plan.ranges.len(), 26_215);
        b.iter_batched(
            || full.clone(),
            |mut mmu| {
                assert!(mmu.apply_shootdown(&plan) > 0);
                mmu
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();

    let mut group = c.benchmark_group("micro/fork");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let small = MachineConfig::two_socket_small().build();
    let (mut system, pid, region) = lazy_region(&small, SETUP_REGION, Backend::MitosisReplicated);
    system
        .populate_region(pid, region, SETUP_REGION, SocketId::new(0))
        .expect("populate");
    group.bench_function("mitosis_2way", |b| {
        b.iter_batched(
            || system.clone(),
            |mut forked| {
                forked.fork(pid).expect("fork");
                forked
            },
            BatchSize::PerIteration,
        );
    });
    // Churn's first fork: GUPS's region at machine scale 128, populated
    // and replicated onto two sockets, with ranged shootdowns recorded.
    let scaled = SimParams::new().with_machine_scale(128).machine();
    let (mut system, pid, region) = lazy_region(&scaled, GUPS_SCALE128_REGION, Backend::Mitosis);
    system.set_shootdown_mode(ShootdownMode::Ranged);
    system
        .populate_region(pid, region, GUPS_SCALE128_REGION, SocketId::new(0))
        .expect("populate");
    Mitosis::new()
        .resize_replicas(&mut system, pid, NodeMask::all(2))
        .expect("replicate");
    drop(system.take_shootdown_plan());
    group.bench_function("gups_scale128", |b| {
        b.iter_batched(
            || system.clone(),
            |mut forked| {
                forked.fork(pid).expect("fork");
                forked
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

criterion_group!(
    micro,
    bench_walks,
    bench_translation_throughput,
    bench_pipeline_stages,
    bench_split_segment,
    bench_pte_updates,
    bench_tree_replication,
    bench_setup,
    bench_cow_path
);
criterion_main!(micro);
