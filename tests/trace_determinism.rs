//! Integration tests for the `mitosis-trace` subsystem: the determinism
//! guarantee (replaying a captured trace reproduces the live run's metrics
//! bit-for-bit, across serialisation) and property-style round-trip
//! identity of the binary format.

use mitosis_numa::SocketId;
use mitosis_sim::{ExecutionEngine, MigrationConfig, MigrationRun, SimParams};
use mitosis_trace::{
    capture_engine_run, capture_migration_scenario, MachineFingerprint, ReplayError, ReplayOutcome,
    ReplayRequest, ReplaySession, Trace, TraceLane, TraceMeta,
};
use mitosis_vmm::{MmapFlags, System};
use mitosis_workloads::{suite, Access, AccessStream, InitPattern, WorkloadSpec};
use proptest::prelude::*;

fn quick(accesses: u64) -> SimParams {
    SimParams::quick_test().with_accesses(accesses)
}

fn serial_replay(trace: &Trace, params: &SimParams) -> ReplayOutcome {
    ReplaySession::new(params)
        .replay(trace, &ReplayRequest::new())
        .expect("serial replay")
        .outcome
}

/// The paper workloads the acceptance criteria call out explicitly.
fn determinism_suite() -> [WorkloadSpec; 3] {
    [suite::gups(), suite::btree(), suite::memcached()]
}

#[test]
fn replay_determinism_holds_at_the_configured_access_count() {
    // The CI determinism job runs this suite at two `MITOSIS_SIM_ACCESSES`
    // settings; this test derives its access count from the environment
    // (via `SimParams::new`) so the matrix genuinely varies the length of
    // the measured phase — the other tests here pin small fixed counts for
    // speed.
    let params = SimParams::new().with_machine_scale(512).with_seed(3);
    let sockets: Vec<SocketId> = (0..2).map(SocketId::new).collect();
    let captured = capture_engine_run(&suite::gups(), &params, &sockets).unwrap();
    assert_eq!(
        captured.live_metrics.accesses,
        2 * params.accesses_per_thread
    );
    let bytes = captured.trace.to_bytes().unwrap();
    let replayed = serial_replay(&Trace::from_bytes(&bytes).unwrap(), &params);
    assert_eq!(replayed.metrics, captured.live_metrics);
}

#[test]
fn replay_reproduces_live_metrics_for_paper_workloads() {
    let params = quick(500);
    for spec in determinism_suite() {
        let captured = capture_engine_run(&spec, &params, &[SocketId::new(0)]).unwrap();
        // Round-trip through the binary format before replaying: the
        // determinism guarantee must hold for the archived artifact, not
        // just the in-memory capture.
        let bytes = captured.trace.to_bytes().unwrap();
        let trace = Trace::from_bytes(&bytes).unwrap();
        let replayed = serial_replay(&trace, &params);
        assert_eq!(
            replayed.metrics,
            captured.live_metrics,
            "replay of {} diverged from the live run",
            spec.name()
        );
    }
}

#[test]
fn replay_matches_the_engines_live_generation_path() {
    // The captured lanes use the same seeds as ExecutionEngine::run, so a
    // replay must also match an independent live run that never saw the
    // trace machinery.
    let params = quick(400);
    let spec = suite::gups();
    let scaled = params.scale_workload(&spec);

    let mut system = System::new(params.machine());
    let pid = system.create_process(SocketId::new(0)).unwrap();
    let region = system
        .mmap(pid, scaled.footprint(), MmapFlags::lazy().without_thp())
        .unwrap();
    ExecutionEngine::populate(
        &mut system,
        pid,
        region,
        scaled.footprint(),
        scaled.init(),
        &[SocketId::new(0)],
    )
    .unwrap();
    let mut engine = ExecutionEngine::new(&system);
    let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
    let live = engine
        .run(&mut system, pid, &scaled, region, &threads, &params)
        .unwrap();

    let captured = capture_engine_run(&spec, &params, &[SocketId::new(0)]).unwrap();
    assert_eq!(captured.live_metrics, live);
    let replayed = serial_replay(&captured.trace, &params);
    assert_eq!(replayed.metrics, live);
}

#[test]
fn multi_socket_captures_replay_identically() {
    let params = quick(300);
    let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();
    let captured = capture_engine_run(&suite::memcached(), &params, &sockets).unwrap();
    assert_eq!(captured.trace.lanes.len(), 4);
    let replayed = serial_replay(&captured.trace, &params);
    assert_eq!(replayed.metrics, captured.live_metrics);
    assert_eq!(replayed.metrics.threads, 4);
}

#[test]
fn migration_scenario_events_replay_identically() {
    let params = quick(300);
    // The interesting configuration: remote page tables with interference,
    // repaired by Mitosis page-table migration — exercises Install, THP,
    // PtPlacement, BindData, MigratePageTable and Interference events.
    for run in [
        MigrationRun::new(MigrationConfig::LpLd),
        MigrationRun::new(MigrationConfig::RpiRdi),
        MigrationRun::new(MigrationConfig::RpiLd).with_mitosis(),
        MigrationRun::new(MigrationConfig::RpiLd)
            .with_mitosis()
            .with_thp(),
    ] {
        let captured = capture_migration_scenario(&suite::gups(), run, &params).unwrap();
        let bytes = captured.trace.to_bytes().unwrap();
        let trace = Trace::from_bytes(&bytes).unwrap();
        let replayed = serial_replay(&trace, &params);
        assert_eq!(
            replayed.metrics,
            captured.live_metrics,
            "scenario {} diverged under replay",
            run.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: encode→decode is the identity for random access streams
    /// from random suite workloads, lane counts and seeds.
    #[test]
    fn random_streams_roundtrip_through_the_format(
        workload in 0usize..4,
        seed in 0u64..1000,
        lanes in 1usize..5,
        accesses in 1usize..300,
    ) {
        let spec = [suite::gups(), suite::btree(), suite::memcached(), suite::liblinear()]
            [workload]
            .with_footprint(1 << 26);
        let trace = Trace {
            meta: TraceMeta::for_spec(&spec, &SimParams::quick_test().with_seed(seed)).unwrap(),
            setup_events: vec![],
            lanes: (0..lanes)
                .map(|lane| {
                    let mut stream = AccessStream::new(&spec, seed + lane as u64);
                    TraceLane {
                        socket: lane as u16,
                        accesses: (0..accesses).map(|_| stream.next_access()).collect(),
                        events: vec![],
                    }
                })
                .collect(),
        };
        let bytes = trace.to_bytes().unwrap();
        let decoded = Trace::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded, trace);
    }

    /// Property: arbitrary (not stream-generated) offset/write sequences
    /// also round-trip, including pathological deltas.
    #[test]
    fn arbitrary_access_sequences_roundtrip(
        offsets in prop::collection::vec((0u64..(1 << 47), any::<bool>()), 1..200)
    ) {
        let accesses: Vec<Access> = offsets
            .into_iter()
            .map(|(offset, is_write)| Access { offset, is_write })
            .collect();
        let trace = Trace {
            meta: TraceMeta::for_spec(
                &suite::gups().with_footprint(1 << 47),
                &SimParams::quick_test(),
            )
            .unwrap(),
            setup_events: vec![],
            lanes: vec![TraceLane { socket: 0, accesses, events: vec![] }],
        };
        let bytes = trace.to_bytes().unwrap();
        prop_assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
    }

    /// Property: replay determinism holds for random seeds and thread
    /// counts, not just the defaults.
    #[test]
    fn replay_is_deterministic_for_random_seeds(
        seed in 0u64..10_000,
        sockets in 1usize..4,
    ) {
        let params = SimParams::quick_test().with_accesses(150).with_seed(seed);
        let sockets: Vec<SocketId> = (0..sockets as u16).map(SocketId::new).collect();
        let captured = capture_engine_run(&suite::btree(), &params, &sockets).unwrap();
        let replayed = serial_replay(&captured.trace, &params);
        prop_assert_eq!(replayed.metrics, captured.live_metrics);
    }
}

#[test]
fn replay_on_a_different_machine_is_rejected_unless_forced() {
    let captured_params = quick(200);
    let captured =
        capture_engine_run(&suite::gups(), &captured_params, &[SocketId::new(0)]).expect("capture");
    assert_eq!(
        captured.trace.meta.machine,
        MachineFingerprint::for_params(&captured_params).unwrap(),
        "capture records the machine fingerprint"
    );

    // Same trace, differently scaled machine: strict replay must refuse —
    // before the fingerprint existed this silently produced different
    // metrics (the ROADMAP footgun).
    let other_params = captured_params.clone().with_machine_scale(256);
    let err = ReplaySession::new(&other_params)
        .replay(&captured.trace, &ReplayRequest::new())
        .unwrap_err();
    assert!(
        matches!(&err, ReplayError::Mismatch(message) if message.contains("different machine")),
        "unexpected error: {err}"
    );

    // Forcing proceeds, and the downgraded mismatch is *recorded* on the
    // outcome — library callers observe it without capturing stderr.  The
    // replayed metrics are no longer guaranteed to match the capture — the
    // footgun the strict default exists to prevent — but the replay itself
    // must complete.
    let forced = ReplaySession::new(&other_params)
        .replay(&captured.trace, &ReplayRequest::new().force_machine())
        .expect("forced replay runs")
        .outcome;
    assert_eq!(forced.metrics.accesses, captured.live_metrics.accesses);
    let mismatch = forced
        .machine_mismatch
        .expect("forced cross-machine replay records the downgraded mismatch");
    assert_eq!(mismatch.captured, captured.trace.meta.machine);
    assert_eq!(
        mismatch.replayed,
        MachineFingerprint::for_params(&other_params).unwrap()
    );
    assert!(mismatch.to_string().contains("different machine"));

    // The matching machine still replays bit-identically, forced or not —
    // and records no mismatch.
    let strict = serial_replay(&captured.trace, &captured_params);
    assert_eq!(strict.metrics, captured.live_metrics);
    assert_eq!(strict.machine_mismatch, None);
}

#[test]
fn init_pattern_is_preserved_by_capture() {
    // GUPS initialises single-threaded, XSBench in parallel; the recorded
    // Populate event must reflect that so replay reproduces first-touch
    // placement.
    let params = quick(100);
    let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();
    for (spec, parallel) in [(suite::gups(), false), (suite::xsbench(), true)] {
        assert_eq!(spec.init() == InitPattern::Parallel, parallel);
        let captured = capture_engine_run(&spec, &params, &sockets).unwrap();
        let recorded_parallel = captured.trace.setup_events.iter().any(|step| {
            matches!(
                step,
                mitosis_sim::SetupStep::Populate {
                    init: InitPattern::Parallel,
                    ..
                }
            )
        });
        assert_eq!(recorded_parallel, parallel, "{}", spec.name());
        let replayed = serial_replay(&captured.trace, &params);
        assert_eq!(replayed.metrics, captured.live_metrics, "{}", spec.name());
    }
}
