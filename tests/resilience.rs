//! Integration tests for the resilience machinery: deterministic fault
//! injection, worker panic isolation, trace salvage, and mid-lane
//! checkpoint/resume.
//!
//! Four guarantees under test:
//!
//! * **No panic, no silent damage** — arbitrarily corrupted or truncated
//!   trace bytes produce structured [`TraceError`]s (or a salvage outcome
//!   explicitly marked [`ReplayCompleteness::Salvaged`]); they never panic
//!   the decoder and never replay to silently wrong whole-trace metrics.
//! * **Salvage exactness** — recovery trims a damaged stream to the
//!   longest checkpoint-attested prefix, and replaying the salvaged trace
//!   equals replaying an in-memory trace trimmed to the same boundary.
//! * **Checkpoint/resume fidelity** — pausing a replay at any access
//!   boundary and resuming from the snapshot is bit-identical to the
//!   uninterrupted run, including across mid-lane phase changes.
//! * **Worker failure isolation** — an injected panic in a lane-group job
//!   is caught by the pool and returned as `ReplayError::Panic` naming the
//!   first failed group, instead of unwinding the caller; a grouped replay
//!   yields serial replay's metrics or that error, never other metrics,
//!   and the session replays cleanly afterwards.

use mitosis_numa::SocketId;
use mitosis_obs::{MemoryRecorder, Observer};
use mitosis_sim::{PhaseChange, PhaseSchedule, SimParams};
use mitosis_trace::{
    capture_engine_run, capture_engine_run_dynamic, FaultPlan, LaneReplayReport,
    ReplayCompleteness, ReplayError, ReplayOptions, ReplayOutcome, ReplayRequest, ReplaySession,
    ShardDecision, Trace, TraceError, TraceReader, TraceReplayer, TraceWriter,
};
use mitosis_workloads::suite;
use proptest::prelude::*;
use std::error::Error as _;
use std::sync::Arc;

fn quick(accesses: u64) -> SimParams {
    SimParams::quick_test().with_accesses(accesses)
}

fn serial_replay(trace: &Trace, params: &SimParams) -> ReplayOutcome {
    ReplaySession::new(params)
        .replay(trace, &ReplayRequest::new())
        .expect("serial replay")
        .outcome
}

/// A salvaging decode + serial replay through a fresh session.
fn salvaged_replay(bytes: &[u8], params: &SimParams) -> Result<ReplayOutcome, ReplayError> {
    ReplaySession::new(params)
        .replay_bytes(bytes, &ReplayRequest::new().salvage())
        .map(|report| report.outcome)
}

/// A grouped replay under an explicit fault plan and observer.
fn faulted_grouped(
    trace: &Trace,
    params: &SimParams,
    workers: usize,
    observer: &Observer,
    plan: &FaultPlan,
) -> LaneReplayReport {
    let mut session = ReplaySession::new(params);
    session.set_observer(observer.clone());
    session
        .replay(
            trace,
            &ReplayRequest::new().grouped(workers).fault_plan(*plan),
        )
        .expect("faulted grouped replay")
}

fn observed() -> (Observer, Arc<MemoryRecorder>) {
    let memory = Arc::new(MemoryRecorder::new());
    let observer = Observer::with_recorder(memory.clone());
    (observer, memory)
}

/// Encodes `trace` with checkpoint markers every `every` accesses.  Only
/// for traces without mid-lane markers (engine captures with a static
/// schedule) — the positional marker interleaving of `Trace::write_to` is
/// not replicated here.
fn encode_with_interval(trace: &Trace, every: u64) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), &trace.meta).expect("writer");
    writer.set_checkpoint_interval(every);
    for &step in &trace.setup_events {
        writer.setup_step(step).expect("setup step");
    }
    for lane in &trace.lanes {
        assert!(
            lane.events.is_empty(),
            "helper only handles markerless lanes"
        );
        writer.begin_lane(lane.socket).expect("begin lane");
        for &access in &lane.accesses {
            writer.access(access).expect("access");
        }
    }
    writer.finish().expect("finish")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flipping any byte or truncating at any point must surface as a
    /// structured error or an explicitly marked salvage — never a panic,
    /// never silently wrong whole-trace metrics.
    #[test]
    fn corrupted_bytes_never_panic_and_never_pass_silently(
        raw_position in any::<u64>(),
        flip_bit in 0u32..8,
        truncate in any::<bool>(),
    ) {
        let params = quick(150);
        let captured = capture_engine_run(
            &suite::gups(),
            &params,
            &[SocketId::new(0), SocketId::new(1)],
        )
        .expect("capture");
        let serial = serial_replay(&captured.trace, &params);
        let bytes = encode_with_interval(&captured.trace, 32);

        let damaged = if truncate {
            // Cut somewhere strictly inside the stream.
            let keep = 1 + (raw_position as usize) % (bytes.len() - 1);
            bytes[..keep].to_vec()
        } else {
            let mut copy = bytes.clone();
            let position = (raw_position as usize) % copy.len();
            copy[position] ^= 1 << flip_bit;
            copy
        };

        // The strict decoder must reject the damage (a flipped byte always
        // breaks the running checksum; a truncation always loses the end
        // marker or checksum).
        let strict = Trace::from_bytes(&damaged);
        prop_assert!(strict.is_err(), "damaged stream decoded cleanly");

        // The salvaging replay either recovers an attested prefix —
        // explicitly marked, with metrics covering exactly the salvaged
        // accesses — or reports a structured error.  It never panics.
        match salvaged_replay(&damaged, &params) {
            Ok(outcome) => match outcome.completeness {
                ReplayCompleteness::Salvaged { valid_accesses, lost_accesses: _ } => {
                    prop_assert_eq!(outcome.metrics.accesses, valid_accesses);
                    prop_assert!(valid_accesses < serial.metrics.accesses);
                }
                ReplayCompleteness::Complete => {
                    prop_assert!(false, "damaged bytes cannot replay as Complete");
                }
            },
            Err(error) => {
                // Structured and displayable, with the decode failure as
                // the error source where one exists.
                let _ = error.to_string();
            }
        }
    }

    /// Fault-injecting readers built from arbitrary seeds surface injected
    /// I/O errors, truncations and bit flips as structured `TraceError`s;
    /// a decode that completes anyway decoded the true bytes.
    #[test]
    fn injected_read_faults_are_structured_errors(seed in any::<u64>()) {
        let params = quick(100);
        let captured = capture_engine_run(&suite::gups(), &params, &[SocketId::new(0)])
            .expect("capture");
        let bytes = captured.trace.to_bytes().expect("encode");
        let plan = FaultPlan::seeded(seed)
            .with_read_io(0.02)
            .with_truncate(0.02)
            .with_flip(0.005);
        let (observer, memory) = observed();
        match Trace::read_from(plan.reader(bytes.as_slice(), &observer)) {
            Ok(decoded) => prop_assert_eq!(decoded, captured.trace),
            Err(error) => {
                let _ = error.to_string();
                prop_assert!(
                    memory.counter_value("fault.read_io")
                        + memory.counter_value("fault.truncate")
                        + memory.counter_value("fault.bit_flip")
                        > 0,
                    "a failed decode under fault injection must have injected something"
                );
            }
        }
    }

    /// Pausing at an arbitrary in-range boundary and resuming reproduces
    /// the uninterrupted replay bit-for-bit (single lane and distinct
    /// premapped sockets: exact at every stop).
    #[test]
    fn checkpoint_resume_is_bit_identical_at_any_boundary(
        stop in 1u64..200,
        two_lanes in any::<bool>(),
    ) {
        let params = quick(200);
        let sockets: Vec<SocketId> = if two_lanes {
            vec![SocketId::new(0), SocketId::new(1)]
        } else {
            vec![SocketId::new(0)]
        };
        let captured = capture_engine_run(&suite::gups(), &params, &sockets).expect("capture");
        let serial = serial_replay(&captured.trace, &params);

        let mut replayer = TraceReplayer::new();
        let snapshot = replayer
            .checkpoint_at(&captured.trace, &params, ReplayOptions::default(), stop)
            .expect("checkpoint");
        prop_assert_eq!(snapshot.at_access(), stop);
        let resumed = replayer
            .replay_snapshot(&snapshot, &captured.trace)
            .expect("resume");
        prop_assert_eq!(resumed.metrics, serial.metrics);
        prop_assert_eq!(resumed.metrics, captured.live_metrics);
        prop_assert_eq!(resumed.completeness, ReplayCompleteness::Complete);
    }
}

#[test]
fn salvage_trims_to_the_attested_prefix_and_replays_it() {
    let params = quick(300);
    let captured = capture_engine_run(
        &suite::gups(),
        &params,
        &[SocketId::new(0), SocketId::new(1)],
    )
    .expect("capture");
    let bytes = encode_with_interval(&captured.trace, 64);

    // Truncate into lane 1, past its checkpoint at access 256: the salvage
    // must keep exactly 256 accesses of *both* lanes (lanes stay equal
    // length) and replay them.
    let damaged = &bytes[..bytes.len() - 20];
    let salvaged = Trace::recover(damaged).expect("recover");
    assert_eq!(salvaged.trace.lanes.len(), 2);
    for lane in &salvaged.trace.lanes {
        assert_eq!(lane.accesses.len(), 256);
    }
    assert_eq!(salvaged.valid_accesses, 512);
    assert!(salvaged.lost_accesses > 0);
    assert!(salvaged.damage.is_some());

    // Replaying the salvaged trace equals replaying an in-memory trace
    // trimmed to the same boundary — salvage loses the tail, nothing else.
    let mut trimmed = captured.trace.clone();
    for lane in &mut trimmed.lanes {
        lane.accesses.truncate(256);
        lane.events.retain(|&(pos, ..)| pos <= 256);
    }
    let expected = serial_replay(&trimmed, &params);
    let outcome = salvaged_replay(damaged, &params).expect("salvaged replay");
    assert_eq!(outcome.metrics, expected.metrics);
    assert_eq!(
        outcome.completeness,
        ReplayCompleteness::Salvaged {
            valid_accesses: 512,
            lost_accesses: salvaged.lost_accesses,
        }
    );

    // Intact bytes replay as Complete through the same entry point.
    let intact = salvaged_replay(&bytes, &params).expect("intact replay");
    assert_eq!(intact.completeness, ReplayCompleteness::Complete);
    assert_eq!(intact.metrics, captured.live_metrics);
}

#[test]
fn salvage_without_an_attested_prefix_is_a_structured_error() {
    let params = quick(40);
    let captured =
        capture_engine_run(&suite::gups(), &params, &[SocketId::new(0)]).expect("capture");
    // Checkpoint interval larger than the lane: no marker ever validates,
    // so a truncated stream has no attested prefix to salvage.
    let bytes = encode_with_interval(&captured.trace, 1 << 20);
    let damaged = &bytes[..bytes.len() - 10];
    let err = salvaged_replay(damaged, &params).expect_err("nothing to salvage");
    assert!(matches!(err, ReplayError::Trace(_)), "{err}");
    // The source chain bottoms out in the decode failure.
    assert!(err.source().is_some());
}

#[test]
fn checkpoint_resume_fires_mid_lane_events_exactly_once() {
    // Stop exactly at a phase boundary: the pause lands before the event
    // fires, the resume fires it once, and the metrics still match the
    // uninterrupted dynamic run.
    let params = quick(240);
    let sockets = [SocketId::new(0), SocketId::new(1)];
    let boundary = 120;
    let schedule = PhaseSchedule::new().at(
        boundary,
        PhaseChange::MigrateData {
            target: SocketId::new(1),
        },
    );
    let captured = capture_engine_run_dynamic(&suite::gups(), &params, &sockets, &schedule)
        .expect("dynamic capture");
    let serial = serial_replay(&captured.trace, &params);
    assert_eq!(serial.metrics, captured.live_metrics);

    let mut replayer = TraceReplayer::new();
    for stop in [boundary / 2, boundary, boundary + 30] {
        let snapshot = replayer
            .checkpoint_at(&captured.trace, &params, ReplayOptions::default(), stop)
            .expect("checkpoint");
        // The snapshot is reusable: two resumes from the same pause both
        // reproduce the uninterrupted run.
        for round in 0..2 {
            let resumed = replayer
                .replay_snapshot(&snapshot, &captured.trace)
                .expect("resume");
            assert_eq!(
                resumed.metrics, serial.metrics,
                "stop {stop}, round {round}: resumed run diverged"
            );
        }
    }
}

#[test]
fn checkpoint_boundaries_are_validated() {
    let params = quick(100);
    let captured =
        capture_engine_run(&suite::gups(), &params, &[SocketId::new(0)]).expect("capture");
    let mut replayer = TraceReplayer::new();

    // at == 0 degenerates to the post-setup snapshot.
    let snapshot = replayer
        .checkpoint_at(&captured.trace, &params, ReplayOptions::default(), 0)
        .expect("post-setup snapshot");
    assert_eq!(snapshot.at_access(), 0);
    let outcome = replayer
        .replay_snapshot(&snapshot, &captured.trace)
        .expect("resume from post-setup");
    assert_eq!(outcome.metrics, captured.live_metrics);

    // at >= accesses_per_thread leaves nothing to resume: rejected.
    for at in [100u64, 101, u64::MAX] {
        let err = replayer
            .checkpoint_at(&captured.trace, &params, ReplayOptions::default(), at)
            .expect_err("out-of-range checkpoint");
        assert!(matches!(err, ReplayError::Mismatch(_)), "{err}");
    }
}

#[test]
fn midrun_snapshot_rejects_a_different_lane_selection() {
    let params = quick(160);
    let captured = capture_engine_run(
        &suite::gups(),
        &params,
        &[SocketId::new(0), SocketId::new(1)],
    )
    .expect("capture");
    let mut replayer = TraceReplayer::new();
    let snapshot = replayer
        .checkpoint_at(&captured.trace, &params, ReplayOptions::default(), 80)
        .expect("checkpoint");
    // The snapshot paused a whole-trace run; replaying a lane subset from
    // it would misattribute per-thread state.
    let err = replayer
        .replay_snapshot_lanes(&snapshot, &captured.trace, &[0])
        .expect_err("selection mismatch");
    assert!(matches!(err, ReplayError::Mismatch(_)), "{err}");
}

fn four_socket_capture(accesses: u64) -> (Trace, SimParams) {
    let params = quick(accesses);
    let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();
    let trace = capture_engine_run(&suite::memcached(), &params, &sockets)
        .expect("capture")
        .trace;
    (trace, params)
}

#[test]
fn an_injected_worker_panic_is_a_typed_error_naming_group_0() {
    let (trace, params) = four_socket_capture(400);
    // Probability 1: every group's job panics, so the first failed group
    // in group order is group 0.
    let plan = FaultPlan::seeded(5).with_worker_panic(1.0);
    let (observer, memory) = observed();
    let mut session = ReplaySession::new(&params);
    session.set_observer(observer);
    let err = session
        .replay(&trace, &ReplayRequest::new().grouped(4).fault_plan(plan))
        .expect_err("every group panics");
    match &err {
        ReplayError::Panic(message) => {
            assert!(message.starts_with("lane group 0:"), "{message}");
            assert!(message.contains("injected worker panic"), "{message}");
        }
        other => panic!("expected a Panic error, got {other}"),
    }
    // Every job ran once: no retry, no serial re-run.
    assert_eq!(memory.counter_value("fault.worker_panic"), 4);
    assert!(memory.spans_named("group_replay").is_empty());
}

#[test]
fn a_session_replays_cleanly_after_a_worker_panic() {
    let (trace, params) = four_socket_capture(400);
    let serial = serial_replay(&trace, &params);
    let mut session = ReplaySession::new(&params);
    let plan = FaultPlan::seeded(5).with_worker_panic(1.0);
    let err = session
        .replay(&trace, &ReplayRequest::new().grouped(4).fault_plan(plan))
        .expect_err("every group panics");
    assert!(matches!(err, ReplayError::Panic(_)), "{err}");
    let spawned = session.threads_spawned();
    assert!(spawned >= 2, "the failed call ran on the pool");

    // The workers caught their panics and keep serving: the next grouped
    // replay shards on the same threads and equals serial replay.
    let report = session
        .replay(&trace, &ReplayRequest::new().grouped(4))
        .expect("grouped replay after the failed one");
    assert_eq!(report.decision, ShardDecision::Sharded);
    assert_eq!(report.outcome.metrics, serial.metrics);
    assert_eq!(session.threads_spawned(), spawned);
}

#[test]
fn probabilistic_worker_panics_give_serial_metrics_or_a_panic_error() {
    let (trace, params) = four_socket_capture(400);
    let serial = serial_replay(&trace, &params);
    for seed in 0..4 {
        let plan = FaultPlan::seeded(seed).with_worker_panic(0.5);
        let result = ReplaySession::new(&params)
            .replay(&trace, &ReplayRequest::new().grouped(4).fault_plan(plan));
        // The two allowed outcomes of a grouped replay: serial replay's
        // metrics, or a typed error naming the first group that panicked.
        match result {
            Ok(report) => {
                assert_eq!(report.decision, ShardDecision::Sharded, "seed {seed}");
                assert_eq!(
                    report.outcome.metrics, serial.metrics,
                    "seed {seed}: metrics diverged"
                );
                assert!(
                    (0..4).all(|group| !plan.worker_panics(group)),
                    "seed {seed}"
                );
            }
            Err(ReplayError::Panic(message)) => {
                let first = (0..4)
                    .find(|&group| plan.worker_panics(group))
                    .expect("a Panic error means some group's plan panics");
                assert!(
                    message.starts_with(&format!("lane group {first}:")),
                    "seed {seed}: {message}"
                );
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
}

#[test]
fn slow_workers_change_timing_but_not_metrics() {
    let (trace, params) = four_socket_capture(300);
    let serial = serial_replay(&trace, &params);
    let plan = FaultPlan::seeded(9).with_worker_slow(1.0, std::time::Duration::from_millis(2));
    let (observer, memory) = observed();
    let report = faulted_grouped(&trace, &params, 4, &observer, &plan);
    assert_eq!(report.decision, ShardDecision::Sharded);
    assert_eq!(report.outcome.metrics, serial.metrics);
    assert_eq!(memory.counter_value("fault.worker_slow"), 4);
}

#[test]
fn replay_errors_expose_their_source_chain() {
    let io = std::io::Error::other("disk on fire");
    let trace_error = TraceError::Io(io);
    assert!(trace_error.source().is_some());
    let replay_error = ReplayError::from(trace_error);
    let source = replay_error.source().expect("Trace errors chain");
    assert!(source.source().is_some(), "chains down to the io::Error");
    assert!(ReplayError::Panic("boom".into()).source().is_none());
    assert!(ReplayError::Mismatch("shape".into()).source().is_none());
}

#[test]
fn checkpoint_markers_roundtrip_through_the_streaming_reader() {
    let params = quick(200);
    let captured =
        capture_engine_run(&suite::gups(), &params, &[SocketId::new(0)]).expect("capture");
    let bytes = encode_with_interval(&captured.trace, 50);
    // Markers are transparent: the decoded trace equals the original, and
    // the reader reports the last validated checkpoint.
    let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
    loop {
        match reader.next_item().expect("decode") {
            mitosis_trace::TraceItem::End => break,
            _ => continue,
        }
    }
    let checkpoint = reader.last_checkpoint().expect("markers were emitted");
    assert_eq!(checkpoint.lane, 0);
    assert_eq!(checkpoint.lane_accesses, 200);
    assert_eq!(Trace::from_bytes(&bytes).expect("decode"), captured.trace);
}
