//! Throughput of live generation vs. trace replay vs. lane-group replay.
//!
//! Live generation pays the access-pattern RNG on every access; replay
//! reads a pre-captured lane; a [`ReplaySession`] owns the persistent
//! worker pool and the snapshot cache that grouped replay rides.  This
//! bench quantifies all of it so regressions in the trace hot path
//! (varint decode, cursor dispatch), the session's cache, and the pool
//! are visible.
//!
//! Cold vs. warm matters here: a *cold* measurement constructs a fresh
//! `ReplaySession` inside the timed closure (every call pays setup-event
//! reconstruction and, for grouped requests, worker spawn), while a
//! *warm* measurement reuses one session created outside the timing loop
//! (the snapshot cache and the pool threads persist across calls — the
//! intended steady-state usage).  `lane_groups/serial` stays cold and
//! `lane_groups/grouped` runs warm: the flipped comparison the regression
//! gate enforces prices exactly the work the session removes.

use criterion::{criterion_group, criterion_main, Criterion};
use mitosis_numa::SocketId;
use mitosis_pt::VirtAddr;
use mitosis_sim::{ExecutionEngine, PhaseChange, PhaseSchedule, SimParams};
use mitosis_trace::{
    capture_engine_run, capture_engine_run_dynamic, ReplayRequest, ReplaySession, Trace,
};
use mitosis_vmm::{MmapFlags, System};
use mitosis_workloads::suite;
use std::time::Duration;

const ACCESSES: u64 = 20_000;

fn params() -> SimParams {
    SimParams::quick_test().with_accesses(ACCESSES)
}

/// A cold serial replay: fresh session, setup re-executed on every call.
fn cold_serial(trace: &Trace, params: &SimParams) -> mitosis_trace::ReplayOutcome {
    ReplaySession::new(params)
        .replay(trace, &ReplayRequest::new())
        .expect("serial replay")
        .outcome
}

fn bench_single(c: &mut Criterion) {
    let params = params();
    let spec = suite::gups();
    let scaled = params.scale_workload(&spec);
    let captured = capture_engine_run(&spec, &params, &[SocketId::new(0)]).expect("capture gups");
    let trace = captured.trace;

    let mut group = c.benchmark_group("trace_replay/single");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("live_generation", |b| {
        b.iter(|| {
            let mut system = System::new(params.machine());
            let pid = system.create_process(SocketId::new(0)).expect("process");
            let region = system
                .mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())
                .expect("mmap");
            ExecutionEngine::populate(
                &mut system,
                pid,
                region,
                scaled.footprint(),
                scaled.init(),
                &[SocketId::new(0)],
            )
            .expect("populate");
            let mut engine = ExecutionEngine::new(&system);
            let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
            engine
                .run(&mut system, pid, &scaled, region, &threads, &params)
                .expect("run")
        });
    });

    group.bench_function("trace_replay", |b| {
        b.iter(|| cold_serial(&trace, &params));
    });

    group.bench_function("decode_from_bytes", |b| {
        let bytes = trace.to_bytes().expect("encode");
        b.iter(|| Trace::from_bytes(&bytes).expect("decode"));
    });
    group.finish();
}

/// Lane-granular sharding of a single 4-lane trace: the remaining lever
/// for single-trace replay latency on many-core hosts.  `serial` is cold
/// (a fresh session per call); `lane_parallel` is the steady-state warm
/// session the API recommends.
fn bench_lane_parallel(c: &mut Criterion) {
    let params = params();
    let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();
    let trace = capture_engine_run(&suite::memcached(), &params, &sockets)
        .expect("capture 4-lane memcached")
        .trace;

    let mut group = c.benchmark_group("trace_replay/lane4");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("serial", |b| {
        b.iter(|| cold_serial(&trace, &params));
    });

    // Fixed worker count, as in bench_lane_groups: keeps the bench id and
    // the shard decision host-independent.
    let request = ReplayRequest::new().grouped(4);
    let mut session = ReplaySession::new(&params);
    session.replay(&trace, &request).expect("warm the session");
    group.bench_function("lane_parallel", |b| {
        b.iter(|| {
            let report = session
                .replay(&trace, &request)
                .expect("lane-parallel replay");
            assert!(report.sharded(), "4 distinct-socket premapped lanes shard");
            report
        });
    });
    group.finish();
}

/// Per-socket lane groups on a multi-thread-per-socket capture (8 lanes,
/// 2 per socket): the shape the old per-lane driver always replayed
/// serially.  Cold serial whole-trace replay vs. warm grouped session —
/// the comparison the regression gate keeps flipped (grouped < serial).
///
/// The measured phase is kept shorter than the setup (full-footprint
/// populate across four sockets): that is the regime the session's
/// amortisation targets — on a single-core runner the grouped win comes
/// entirely from the prepare the warm session skips, while the measured
/// replay work itself cannot shrink below serial.
fn bench_lane_groups(c: &mut Criterion) {
    let params = SimParams::quick_test()
        .with_accesses(ACCESSES / 4)
        .with_threads_per_socket(2);
    let captured = mitosis_trace::capture_multisocket_scenario(
        &suite::memcached(),
        mitosis_sim::MultiSocketConfig::first_touch(),
        &params,
    )
    .expect("capture 8-lane multisocket memcached");
    let trace = captured.trace;
    assert_eq!(trace.lanes.len(), 8, "two lanes per socket");

    let mut group = c.benchmark_group("trace_replay/lane_groups");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("serial", |b| {
        b.iter(|| cold_serial(&trace, &params));
    });

    // Fixed worker count: the shard decision (and the bench name the
    // regression gate keys on) must not depend on the host's core count.
    let request = ReplayRequest::new().grouped(4);
    let mut session = ReplaySession::new(&params);
    session.replay(&trace, &request).expect("warm the session");
    group.bench_function("grouped", |b| {
        b.iter(|| {
            let report = session.replay(&trace, &request).expect("lane-group replay");
            assert!(report.sharded(), "8-lane premapped capture must shard");
            report
        });
    });
    group.finish();
}

/// Snapshot-based lane-group replay: the setup parts of one cold grouped
/// call, priced one by one.
///
/// The trace is deliberately setup-heavy (full-footprint populate, a short
/// measured phase).  `prepare_once` prices the one setup execution a call
/// makes; `clone` prices the full copy of the prepared system that every
/// unit replays from; `grouped` is the whole cold call.  So `grouped`
/// carries about `prepare_once + groups × clone` plus the measured phase,
/// and `clone` grows with the resident state, not with the setup work.
fn bench_lane_groups_snapshot(c: &mut Criterion) {
    // Short measured phase over the standard footprint: setup-dominated.
    let params = SimParams::quick_test()
        .with_accesses(2_000)
        .with_threads_per_socket(2);
    let captured = mitosis_trace::capture_multisocket_scenario(
        &suite::memcached(),
        mitosis_sim::MultiSocketConfig::first_touch(),
        &params,
    )
    .expect("capture 8-lane multisocket memcached");
    let trace = captured.trace;
    assert_eq!(trace.lanes.len(), 8, "two lanes per socket");

    let mut group = c.benchmark_group("trace_replay/lane_groups_snapshot");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("prepare_once", |b| {
        b.iter(|| {
            mitosis_trace::prepare_replay(&trace, &params, mitosis_trace::ReplayOptions::default())
                .expect("prepare")
        });
    });

    let snapshot =
        mitosis_trace::prepare_replay(&trace, &params, mitosis_trace::ReplayOptions::default())
            .expect("prepare");
    group.bench_function("clone", |b| {
        b.iter(|| snapshot.clone());
    });

    // Cold on purpose (fresh session per call): this family prices the
    // one-prepare-plus-clone-per-group shape, not the warm cache.
    let request = ReplayRequest::new().grouped(4);
    group.bench_function("grouped", |b| {
        b.iter(|| {
            let report = ReplaySession::new(&params)
                .replay(&trace, &request)
                .expect("lane-group replay");
            assert!(report.sharded(), "8-lane premapped capture must shard");
            report
        });
    });
    group.finish();
}

/// What a warm session saves on a grouped request.  `cold_session` pays
/// prepare and worker spawn on every call; `warm_full` reuses one session,
/// so every call finds the snapshot cached and the pool threads running,
/// and pays only one full clone of the prepared system per unit plus the
/// measured phase.
fn bench_pool(c: &mut Criterion) {
    let params = params().with_threads_per_socket(2);
    let captured = mitosis_trace::capture_multisocket_scenario(
        &suite::memcached(),
        mitosis_sim::MultiSocketConfig::first_touch(),
        &params,
    )
    .expect("capture 8-lane multisocket memcached");
    let trace = captured.trace;
    assert_eq!(trace.lanes.len(), 8, "two lanes per socket");

    let mut group = c.benchmark_group("trace_replay/pool");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("cold_session", |b| {
        b.iter(|| {
            ReplaySession::new(&params)
                .replay(&trace, &ReplayRequest::new().grouped(4))
                .expect("cold grouped replay")
        });
    });

    let full = ReplayRequest::new().grouped(4);
    let mut full_session = ReplaySession::new(&params);
    full_session
        .replay(&trace, &full)
        .expect("warm the session");
    let spawned = full_session.threads_spawned();
    group.bench_function("warm_full", |b| {
        b.iter(|| full_session.replay(&trace, &full).expect("warm full-clone"));
    });
    assert_eq!(
        full_session.threads_spawned(),
        spawned,
        "a warm session must never respawn workers"
    );

    group.finish();
}

/// Fork/CoW fault storms and mmap churn through the replay path, plus the
/// modelled-shootdown-work comparison the regression gate keys on.
///
/// Churn traces (v6) carry mapping-mutation markers, which defeat the
/// premapped-coverage proof, so grouped requests fall back to the serial
/// path — cold serial replay *is* the representative cost here, and the
/// two timing benches price it for the two new scenario shapes.
///
/// The non-timing metrics report `ShootdownStats::entries_invalidated`
/// from live churn runs in each [`ShootdownMode`]: the consistency
/// layer's raison d'être is that ranged ASID-tagged plans invalidate
/// strictly fewer TLB entries than broadcast full flushes on a
/// churn-heavy run, and `scripts/bench_gate` enforces that relation on
/// every CI run (the counters are deterministic, so they baseline like
/// timings with a tight tolerance).
fn bench_churn(c: &mut Criterion) {
    // Region churn addresses mirror tests/churn_scenarios.rs: the first
    // mmap of a capture lands at MMAP_BASE, and the scaled footprint is
    // at least 64 MiB, so these offsets are always in-region.
    const REGION_BASE: u64 = 0x2000_0000_0000;
    const CHURN_BASE: u64 = 0x7000_0000_0000;
    let params = SimParams::quick_test().with_accesses(4_000);
    let sockets: Vec<SocketId> = (0..2).map(SocketId::new).collect();

    let fork_schedule = PhaseSchedule::new()
        .at(1_000, PhaseChange::Fork)
        .at(2_000, PhaseChange::Fork);
    let churn_schedule = PhaseSchedule::new()
        .at(
            500,
            PhaseChange::MmapAt {
                addr: VirtAddr::new(CHURN_BASE),
                length: 64 << 12,
            },
        )
        .at(
            1_200,
            PhaseChange::MunmapAt {
                addr: VirtAddr::new(CHURN_BASE + (16 << 12)),
                length: 32 << 12,
            },
        )
        .at(
            1_800,
            PhaseChange::MunmapAt {
                addr: VirtAddr::new(REGION_BASE),
                length: 4 << 20,
            },
        )
        .at(
            1_800,
            // Lazily re-mapped at the same boundary: later accesses
            // demand-fault instead of segfaulting into the hole.
            PhaseChange::MmapAt {
                addr: VirtAddr::new(REGION_BASE),
                length: 4 << 20,
            },
        )
        .at(
            2_400,
            PhaseChange::PromoteHuge {
                addr: VirtAddr::new(REGION_BASE + (8 << 20)),
            },
        )
        .at(
            3_200,
            PhaseChange::DemoteHuge {
                addr: VirtAddr::new(REGION_BASE + (8 << 20)),
            },
        );

    let cow_trace = capture_engine_run_dynamic(&suite::gups(), &params, &sockets, &fork_schedule)
        .expect("capture fork/CoW storm")
        .trace;
    let churn_trace =
        capture_engine_run_dynamic(&suite::gups(), &params, &sockets, &churn_schedule)
            .expect("capture mmap churn")
            .trace;

    let mut group = c.benchmark_group("trace_replay/churn");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("cow_storm_replay", |b| {
        b.iter(|| cold_serial(&cow_trace, &params));
    });
    group.bench_function("mmap_churn_replay", |b| {
        b.iter(|| cold_serial(&churn_trace, &params));
    });
    group.finish();

    // Modelled shootdown work of the live churn run, per mode.  Driven
    // through the engine directly (capture does not expose the engine's
    // counters); deterministic for fixed params.
    let shootdown_entries = |params: &SimParams| -> u64 {
        let mut mitosis = mitosis::Mitosis::new();
        let mut system = mitosis.install(params.machine());
        system.set_shootdown_mode(params.shootdown_mode);
        let pid = system.create_process(sockets[0]).expect("process");
        let spec = params.scale_workload(&suite::gups());
        let region = system
            .mmap(pid, spec.footprint(), MmapFlags::populate())
            .expect("mmap");
        let threads = ExecutionEngine::one_thread_per_socket(&system, &sockets);
        let mut engine = ExecutionEngine::new(&system);
        engine
            .run_dynamic(
                &mut system,
                &mut mitosis,
                pid,
                &spec,
                region,
                &threads,
                params,
                &churn_schedule,
            )
            .expect("churn run");
        engine.last_shootdowns().entries_invalidated
    };
    criterion::report_metric(
        "trace_replay/churn/shootdown_entries_broadcast",
        shootdown_entries(&params) as f64,
    );
    criterion::report_metric(
        "trace_replay/churn/shootdown_entries_ranged",
        shootdown_entries(&params.clone().with_ranged_shootdowns()) as f64,
    );
}

/// Plain translation-throughput figures — accesses/second for live
/// generation vs. trace replay — for the README "Performance" table.
fn report_throughput(_c: &mut Criterion) {
    let params = params();
    let spec = suite::gups();
    let scaled = params.scale_workload(&spec);
    let captured = capture_engine_run(&spec, &params, &[SocketId::new(0)]).expect("capture gups");

    let run_live = || {
        let mut system = System::new(params.machine());
        let pid = system.create_process(SocketId::new(0)).expect("process");
        let region = system
            .mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())
            .expect("mmap");
        ExecutionEngine::populate(
            &mut system,
            pid,
            region,
            scaled.footprint(),
            scaled.init(),
            &[SocketId::new(0)],
        )
        .expect("populate");
        let mut engine = ExecutionEngine::new(&system);
        let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        engine
            .run(&mut system, pid, &scaled, region, &threads, &params)
            .expect("run")
    };

    // One round suffices for the CI smoke step; five for quotable numbers.
    let quick = std::env::var("MITOSIS_BENCH_QUICK").is_ok_and(|v| !v.is_empty());
    let rounds: u32 = if quick { 1 } else { 5 };
    #[expect(clippy::disallowed_methods, reason = "host throughput, not a metric")]
    let start = std::time::Instant::now();
    for _ in 0..rounds {
        criterion::black_box(run_live());
    }
    let live = (rounds as u64 * ACCESSES) as f64 / start.elapsed().as_secs_f64();

    #[expect(clippy::disallowed_methods, reason = "host throughput, not a metric")]
    let start = std::time::Instant::now();
    for _ in 0..rounds {
        criterion::black_box(cold_serial(&captured.trace, &params));
    }
    let replay = (rounds as u64 * ACCESSES) as f64 / start.elapsed().as_secs_f64();

    println!(
        "trace_replay/throughput    live: {:.2} M accesses/s    replay: {:.2} M accesses/s",
        live / 1e6,
        replay / 1e6
    );
}

criterion_group!(
    trace_replay,
    bench_single,
    bench_lane_parallel,
    bench_lane_groups,
    bench_lane_groups_snapshot,
    bench_pool,
    bench_churn,
    report_throughput
);
criterion_main!(trace_replay);
