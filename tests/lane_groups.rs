//! Integration tests for per-socket lane groups and the up-front
//! shardability analysis of grouped `ReplaySession` replay.
//!
//! The headline guarantee: for *any* lane/socket layout and worker count,
//! lane-granular grouped replay is bit-identical to serial replay — and
//! the report says which path produced the metrics and why.  Property
//! tests sweep randomized layouts (duplicate sockets, single sockets,
//! degenerate worker counts);
//! deterministic tests pin the acceptance criteria: a multi-thread-per-
//! socket `MultiSocketScenario` capture shards as lane groups, and a
//! demand-fault-risky trace goes serial before any worker spawns.

use mitosis_numa::SocketId;
use mitosis_sim::{MultiSocketConfig, RunMetrics, SetupStep, SimParams};
use mitosis_trace::{
    capture_engine_run, capture_multisocket_scenario, prepare_replay, LaneReplayReport,
    ReplayError, ReplayOptions, ReplayOutcome, ReplayRequest, ReplaySession, ShardDecision, Trace,
    TraceReplayer,
};
use mitosis_workloads::suite;
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

fn grouped_replay(trace: &Trace, params: &SimParams, workers: usize) -> LaneReplayReport {
    ReplaySession::new(params)
        .replay(trace, &ReplayRequest::new().grouped(workers))
        .expect("grouped replay")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any layout of lanes over sockets — duplicates, singletons, a random
    /// worker count — replays bit-identically through the lane-group
    /// driver, and the shard decision is exactly the one the layout
    /// predicts.
    #[test]
    fn any_lane_layout_is_bit_identical_to_serial_replay(
        sockets in prop::collection::vec(0u16..4, 1..7),
        workers in 1usize..6,
        btree in any::<bool>(),
    ) {
        let params = quick(250);
        let spec = if btree { suite::btree() } else { suite::gups() };
        let placements: Vec<SocketId> =
            sockets.iter().copied().map(SocketId::new).collect();
        let captured = capture_engine_run(&spec, &params, &placements)
            .expect("capture");
        let serial = serial_replay(&captured.trace, &params);
        let report = grouped_replay(&captured.trace, &params, workers);

        prop_assert_eq!(report.outcome.metrics, serial.metrics);
        prop_assert_eq!(report.outcome.metrics, captured.live_metrics);
        prop_assert_eq!(report.lanes, sockets.len());

        let distinct = {
            let mut seen: Vec<u16> = sockets.clone();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        prop_assert_eq!(report.groups, distinct);
        let expected = if sockets.len() < 2 {
            ShardDecision::SingleLane
        } else if workers < 2 {
            ShardDecision::SingleWorker
        } else if distinct < 2 {
            ShardDecision::SingleSocketGroup
        } else {
            // Engine captures populate the full footprint, so the analysis
            // must always prove shardability here.
            ShardDecision::Sharded
        };
        prop_assert_eq!(report.decision, expected);
        prop_assert_eq!(report.sharded(), expected == ShardDecision::Sharded);
        if report.sharded() {
            prop_assert_eq!(report.workers, workers.min(distinct));
            prop_assert!(report.workers >= 2);
        } else {
            prop_assert_eq!(report.workers, 1);
        }
    }

    /// Replaying each per-socket group independently and merging the group
    /// metrics reproduces the whole-trace replay — the invariant the
    /// parallel driver's workers rely on.
    #[test]
    fn group_replays_merge_to_the_whole_trace_replay(
        sockets in prop::collection::vec(0u16..4, 2..6),
    ) {
        let params = quick(200);
        let placements: Vec<SocketId> =
            sockets.iter().copied().map(SocketId::new).collect();
        let trace = capture_engine_run(&suite::gups(), &params, &placements)
            .expect("capture")
            .trace;
        let full = serial_replay(&trace, &params);

        // Partition lanes by socket, preserving lane order within groups.
        let mut groups: Vec<(u16, Vec<usize>)> = Vec::new();
        for (index, lane) in trace.lanes.iter().enumerate() {
            match groups.iter_mut().find(|(socket, _)| *socket == lane.socket) {
                Some((_, lanes)) => lanes.push(index),
                None => groups.push((lane.socket, vec![index])),
            }
        }
        let mut merged = RunMetrics::default();
        let mut session = ReplaySession::new(&params);
        for (_, lanes) in &groups {
            let outcome = session
                .replay(&trace, &ReplayRequest::new().lanes(lanes.clone()))
                .expect("group replay")
                .outcome;
            prop_assert_eq!(outcome.metrics.threads, lanes.len());
            merged.merge(&outcome.metrics);
        }
        prop_assert_eq!(merged, full.metrics);
    }

    /// Snapshot fidelity across arbitrary lane/socket layouts: replaying
    /// any lane subset from a *clone* of one prepared-system snapshot is
    /// bit-identical to re-executing the setup events for that subset —
    /// the invariant that lets the parallel driver prepare once and clone
    /// per group.
    #[test]
    fn snapshot_clones_replay_bit_identically_to_setup_reexecution(
        sockets in prop::collection::vec(0u16..4, 1..6),
        lane_mask in prop::collection::vec(any::<bool>(), 6..7),
    ) {
        let params = quick(200);
        let placements: Vec<SocketId> =
            sockets.iter().copied().map(SocketId::new).collect();
        let trace = capture_engine_run(&suite::gups(), &params, &placements)
            .expect("capture")
            .trace;
        let snapshot = prepare_replay(&trace, &params, ReplayOptions::default())
            .expect("prepare");
        let mut replayer = TraceReplayer::new();

        // Whole-trace: snapshot clone vs. fresh setup execution.
        let fresh = serial_replay(&trace, &params);
        let cloned = replayer
            .replay_snapshot(&snapshot, &trace)
            .expect("snapshot replay");
        prop_assert_eq!(cloned.metrics, fresh.metrics);

        // An arbitrary non-empty lane subset (mask truncated to the lane
        // count, forced non-empty by including lane 0 when it comes up
        // empty).
        let mut selection: Vec<usize> = (0..trace.lanes.len())
            .filter(|&lane| lane_mask[lane])
            .collect();
        if selection.is_empty() {
            selection.push(0);
        }
        let fresh_subset = ReplaySession::new(&params)
            .replay(&trace, &ReplayRequest::new().lanes(selection.clone()))
            .expect("fresh subset replay")
            .outcome;
        let cloned_subset = replayer
            .replay_snapshot_lanes(&snapshot, &trace, &selection)
            .expect("snapshot subset replay");
        prop_assert_eq!(cloned_subset.metrics, fresh_subset.metrics);
    }

    /// A demand-fault (non-premapped) trace must keep going serial under
    /// the up-front `ShardDecision` analysis — snapshots do not change
    /// shardability, only the cost of sharding — and the serial path must
    /// still be bit-identical.
    #[test]
    fn demand_fault_traces_stay_serial_with_snapshots(
        sockets in prop::collection::vec(0u16..4, 2..6),
        workers in 2usize..5,
    ) {
        let params = quick(150);
        // Pin the first two lanes to distinct sockets so the layout always
        // has >= 2 groups: the decision under test must be the
        // demand-fault one, not SingleSocketGroup.
        let placements: Vec<SocketId> = [0u16, 1]
            .into_iter()
            .chain(sockets.iter().copied())
            .map(SocketId::new)
            .collect();
        let mut trace = capture_engine_run(&suite::gups(), &params, &placements)
            .expect("capture")
            .trace;
        trace
            .setup_events
            .retain(|step| !matches!(step, SetupStep::Populate { .. }));
        let serial = serial_replay(&trace, &params);
        let report = grouped_replay(&trace, &params, workers);
        prop_assert_eq!(report.decision, ShardDecision::DemandFaultRisk);
        prop_assert_eq!(report.workers, 1);
        prop_assert_eq!(report.outcome.metrics, serial.metrics);
    }
}

#[test]
fn merged_units_replay_bit_identically_for_small_worker_counts() {
    // Eight lanes over four sockets, one unit per socket group: every
    // grouped worker count from 1 to 4 merges the group metrics to the
    // same totals on a multi-thread-per-socket capture.
    let params = quick(300).with_threads_per_socket(2);
    let captured = capture_multisocket_scenario(
        &suite::memcached(),
        MultiSocketConfig::first_touch(),
        &params,
    )
    .unwrap();
    let serial = serial_replay(&captured.trace, &params);
    assert_eq!(serial.metrics, captured.live_metrics);
    for workers in 1..=4 {
        let report = grouped_replay(&captured.trace, &params, workers);
        assert_eq!(
            report.outcome.metrics, serial.metrics,
            "workers={workers}: grouped replay diverged from serial"
        );
    }
}

#[test]
fn multithread_per_socket_multisocket_capture_shards_as_lane_groups() {
    // The acceptance shape: a MultiSocketScenario capture with two threads
    // per socket — eight lanes, four groups — must shard (the old per-lane
    // driver went serial the moment two lanes shared a socket).
    let params = quick(400).with_threads_per_socket(2);
    for config in [
        MultiSocketConfig::first_touch(),
        MultiSocketConfig::first_touch()
            .with_interleave()
            .with_mitosis(),
    ] {
        let captured = capture_multisocket_scenario(&suite::memcached(), config, &params).unwrap();
        assert_eq!(captured.trace.lanes.len(), 8, "{config}");
        let serial = serial_replay(&captured.trace, &params);
        assert_eq!(
            serial.metrics, captured.live_metrics,
            "{config}: serial replay diverged from the live run"
        );
        let report = grouped_replay(&captured.trace, &params, 4);
        assert_eq!(report.decision, ShardDecision::Sharded, "{config}");
        assert_eq!(report.groups, 4, "{config}");
        assert!(report.workers >= 2, "{config}");
        assert_eq!(
            report.outcome.metrics, serial.metrics,
            "{config}: lane-group replay diverged from serial replay"
        );
    }
}

#[test]
fn demand_fault_risk_goes_serial_before_spawning_workers() {
    let params = quick(300);
    let placements: Vec<SocketId> = (0..4).map(SocketId::new).collect();
    let mut trace = capture_engine_run(&suite::gups(), &params, &placements)
        .unwrap()
        .trace;
    // Strip the Populate record: the premapped footprint no longer covers
    // the lanes, so the up-front analysis must decline sharding — workers
    // stay at 1 and no parallel replay is paid for.
    trace
        .setup_events
        .retain(|step| !matches!(step, SetupStep::Populate { .. }));
    let serial = serial_replay(&trace, &params);
    assert!(
        serial.metrics.demand_faults > 0,
        "stripping Populate must actually cause measured-phase faults"
    );
    let report = grouped_replay(&trace, &params, 4);
    assert_eq!(report.decision, ShardDecision::DemandFaultRisk);
    assert_eq!(report.workers, 1);
    assert!(!report.sharded());
    assert_eq!(report.outcome.metrics, serial.metrics);
}

#[test]
fn lane_selection_is_validated() {
    let params = quick(100);
    let trace = capture_engine_run(
        &suite::gups(),
        &params,
        &[SocketId::new(0), SocketId::new(1)],
    )
    .unwrap()
    .trace;
    let mut session = ReplaySession::new(&params);
    for (lanes, what) in [
        (&[][..], "empty"),
        (&[2][..], "out of range"),
        (&[1, 0][..], "not increasing"),
        (&[0, 0][..], "duplicate"),
    ] {
        let err = session
            .replay(&trace, &ReplayRequest::new().lanes(lanes.to_vec()))
            .expect_err(what);
        assert!(matches!(err, ReplayError::Mismatch(_)), "{what}: {err}");
    }
}
