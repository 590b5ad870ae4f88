//! Integration tests for snapshot-based replay and end-of-lane markers.
//!
//! Two guarantees under test:
//!
//! * **Snapshot fidelity** — replaying from a *clone* of a prepared-system
//!   snapshot ([`prepare_replay`] + `TraceReplayer::replay_snapshot*`) is
//!   bit-identical to re-executing the trace's setup events from scratch,
//!   for whole traces and for arbitrary lane subsets.
//! * **End-of-lane markers** — phase-change markers recorded *after* the
//!   final access of a lane (`pos == accesses.len()`, the clamp point for
//!   events scheduled at or beyond the run length) survive the
//!   capture → bytes → decode → replay round trip at the exact boundary,
//!   for global and staggered markers, serial and lane-grouped; marker
//!   positions beyond the lane (`pos > len`) are unrepresentable and
//!   rejected.

use mitosis_numa::{NodeMask, SocketId};
use mitosis_sim::{PhaseChange, PhaseSchedule, SimParams};
use mitosis_trace::{
    capture_engine_run, capture_engine_run_dynamic, prepare_replay, LaneReplayReport,
    ReplayOptions, ReplayOutcome, ReplayRequest, ReplaySession, ShardDecision, Trace, TraceError,
    TraceReplayer,
};
use mitosis_workloads::suite;

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

fn four_socket_trace(accesses: u64) -> (Trace, SimParams) {
    let params = quick(accesses);
    let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();
    let trace = capture_engine_run(&suite::gups(), &params, &sockets)
        .expect("capture")
        .trace;
    (trace, params)
}

#[test]
fn snapshot_replay_matches_setup_reexecution() {
    let (trace, params) = four_socket_trace(300);
    let fresh = serial_replay(&trace, &params);

    let snapshot = prepare_replay(&trace, &params, ReplayOptions::default()).expect("prepare");
    let mut replayer = TraceReplayer::new();
    // The same snapshot seeds several runs; each clone must start from
    // bit-identical prepared state.
    for round in 0..3 {
        let from_snapshot = replayer
            .replay_snapshot(&snapshot, &trace)
            .expect("snapshot replay");
        assert_eq!(
            from_snapshot.metrics, fresh.metrics,
            "round {round}: snapshot clone diverged from setup re-execution"
        );
        // The clone-based run pays the copy, not the reconstruction.
        assert!(from_snapshot.measured_wall > std::time::Duration::ZERO);
    }
}

#[test]
fn snapshot_lane_subsets_match_setup_reexecution() {
    let (trace, params) = four_socket_trace(300);
    let snapshot = prepare_replay(&trace, &params, ReplayOptions::default()).expect("prepare");
    let mut replayer = TraceReplayer::new();
    for lanes in [&[0usize][..], &[1, 3][..], &[0, 1, 2, 3][..]] {
        let fresh = ReplaySession::new(&params)
            .replay(&trace, &ReplayRequest::new().lanes(lanes.to_vec()))
            .expect("fresh-setup lane replay")
            .outcome;
        let from_snapshot = replayer
            .replay_snapshot_lanes(&snapshot, &trace, lanes)
            .expect("snapshot lane replay");
        assert_eq!(
            from_snapshot.metrics, fresh.metrics,
            "lanes {lanes:?}: snapshot clone diverged from setup re-execution"
        );
    }
}

#[test]
fn snapshot_rejects_a_different_trace() {
    let (trace, params) = four_socket_trace(200);
    let snapshot = prepare_replay(&trace, &params, ReplayOptions::default()).expect("prepare");
    // A trace with a different lane shape cannot be run from this snapshot.
    let (other, _) = four_socket_trace(150);
    let err = TraceReplayer::new()
        .replay_snapshot(&snapshot, &other)
        .expect_err("mismatched trace must be rejected");
    assert!(err.to_string().contains("different trace"), "{err}");

    // Same lane count, same lane-0 length, but a later lane differs: the
    // check must look at every lane, or the run would index past the
    // shorter lane's cursor mid-measured-phase.
    let mut uneven = trace.clone();
    uneven.lanes[1].accesses.pop();
    let err = TraceReplayer::new()
        .replay_snapshot(&snapshot, &uneven)
        .expect_err("uneven later lane must be rejected");
    assert!(err.to_string().contains("different trace"), "{err}");
}

#[test]
fn grouped_replay_reports_single_setup_and_measured_wall() {
    let (trace, params) = four_socket_trace(400);
    let report = grouped_replay(&trace, &params, 4);
    assert_eq!(report.decision, ShardDecision::Sharded);
    // The split accounting: one up-front setup, a measured phase, and a
    // total that is their sum (the driver's clock sections are adjacent).
    assert!(report.setup_wall > std::time::Duration::ZERO);
    assert!(report.measured_wall > std::time::Duration::ZERO);
    assert!(report.wall >= report.setup_wall);
    assert!(report.wall >= report.measured_wall);
    assert!(report.throughput() > 0.0);
    assert!(
        report.throughput() >= report.accesses_per_second(),
        "measured-phase rate cannot be below the setup-inclusive rate"
    );
    // The merged outcome's aggregate accounting: the groups paid clone
    // costs on top of the one prepare, never a re-setup each.
    assert!(report.outcome.setup_wall >= report.setup_wall);
}

/// The trailing-marker shape: every phase change scheduled at (or clamped
/// to) the very end of the run, so each lane's markers sit at
/// `pos == accesses.len()` — after the final access.
fn trailing_marker_schedule(accesses: u64) -> PhaseSchedule {
    PhaseSchedule::new()
        .at(
            accesses, // exactly the end boundary
            PhaseChange::MigrateData {
                target: SocketId::new(1),
            },
        )
        .at(
            accesses + 50, // beyond the run: capture clamps to the end
            PhaseChange::SetInterference {
                sockets: NodeMask::single(SocketId::new(0)),
            },
        )
        // A staggered observation at the end boundary, landing only in
        // thread 2's lane.
        .at_thread(
            accesses,
            2,
            PhaseChange::AutoNumaRebalance {
                sockets: NodeMask::all(4),
            },
        )
}

#[test]
fn trailing_markers_roundtrip_through_serial_and_grouped_replay() {
    let params = quick(250);
    let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();
    let schedule = trailing_marker_schedule(params.accesses_per_thread);
    let captured =
        capture_engine_run_dynamic(&suite::gups(), &params, &sockets, &schedule).expect("capture");

    // Every marker must sit exactly at the end-of-lane boundary.
    let end = params.accesses_per_thread;
    for (index, lane) in captured.trace.lanes.iter().enumerate() {
        assert!(
            !lane.events.is_empty(),
            "lane {index} lost its trailing markers"
        );
        for &(pos, change, _) in &lane.events {
            assert_eq!(pos, end, "lane {index}: {change:?} not at the end boundary");
        }
        let staggered = lane
            .events
            .iter()
            .filter(|&&(.., staggered)| staggered)
            .count();
        assert_eq!(
            staggered,
            usize::from(index == 2),
            "staggered trailing marker must land only in the targeted lane"
        );
    }

    // The exact boundary survives the binary encoding: a marker after the
    // last access decodes back to pos == accesses.len().
    let bytes = captured.trace.to_bytes().expect("encode");
    let decoded = Trace::from_bytes(&bytes).expect("decode");
    assert_eq!(decoded, captured.trace);

    let serial = serial_replay(&decoded, &params);
    assert_eq!(
        serial.metrics, captured.live_metrics,
        "serial replay of trailing markers diverged from the live run"
    );
    let grouped = grouped_replay(&decoded, &params, 4);
    assert_eq!(grouped.decision, ShardDecision::Sharded);
    assert_eq!(
        grouped.outcome.metrics, captured.live_metrics,
        "lane-grouped replay of trailing markers diverged from the live run"
    );
}

#[test]
fn marker_positions_beyond_the_lane_are_rejected_as_corrupt() {
    let (mut trace, _params) = four_socket_trace(50);
    let len = trace.lanes[0].accesses.len() as u64;
    let marker = PhaseChange::SetInterference {
        sockets: NodeMask::EMPTY,
    };
    // pos == len is the legitimate trailing position...
    trace.lanes[0].events.push((len, marker, false));
    trace.to_bytes().expect("marker at pos == len must encode");
    // ...pos > len cannot round-trip (markers are positional on the wire)
    // and must be refused, not silently clamped.
    trace.lanes[0].events.clear();
    trace.lanes[0].events.push((len + 1, marker, false));
    let err = trace.to_bytes().expect_err("pos > len must be rejected");
    assert!(
        matches!(err, TraceError::Corrupt(_)),
        "expected Corrupt, got {err}"
    );
    assert!(err.to_string().contains("beyond"), "{err}");
}
