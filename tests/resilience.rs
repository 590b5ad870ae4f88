//! Integration tests for the resilience machinery: typed decode errors,
//! worker panic isolation, and mid-lane checkpoint/resume.
//!
//! Three guarantees under test:
//!
//! * **No panic, no silent damage** — arbitrarily corrupted, truncated or
//!   unreadable trace bytes produce a typed [`TraceError::Decode`] naming
//!   the byte offset where decoding stopped; they never panic the decoder
//!   and never decode to a trace.
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
    capture_engine_run, capture_engine_run_dynamic, FaultPlan, LaneReplayReport, ReplayError,
    ReplayOptions, ReplayOutcome, ReplayRequest, ReplaySession, ShardDecision, Trace, TraceError,
    TraceItem, TraceReader, TraceReplayer,
};
use mitosis_workloads::suite;
use proptest::prelude::*;
use std::error::Error as _;
use std::io::{self, Read};
use std::sync::Arc;

fn quick(accesses: u64) -> SimParams {
    SimParams::quick_test().with_accesses(accesses)
}

/// Lanes this long carry a checkpoint marker: the writer emits one after
/// every 4,096th access of a lane.
const MARKED_LANE: u64 = 4_500;

fn serial_replay(trace: &Trace, params: &SimParams) -> ReplayOutcome {
    ReplaySession::new(params)
        .replay(trace, &ReplayRequest::new())
        .expect("serial replay")
        .outcome
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

/// The encoded bytes of a two-socket GUPS capture whose lanes carry
/// checkpoint markers.
fn marked_capture_bytes() -> (Trace, Vec<u8>) {
    let captured = capture_engine_run(
        &suite::gups(),
        &quick(MARKED_LANE),
        &[SocketId::new(0), SocketId::new(1)],
    )
    .expect("capture");
    let bytes = captured.trace.to_bytes().expect("encode");
    (captured.trace, bytes)
}

/// Where decoding `source` stopped, and why.
fn decode_failure(source: impl Read) -> (u64, TraceError) {
    match Trace::read_from(source) {
        Err(TraceError::Decode { offset, error }) => (offset, *error),
        Err(other) => panic!("a decode error must name its offset, got {other}"),
        Ok(_) => panic!("damaged bytes decoded cleanly"),
    }
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One byte of FNV-1a 64, the trace's running hash and trailing checksum.
fn fnv_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET_BASIS, |hash, &byte| fnv_step(hash, byte))
}

fn varint(mut value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// Start and end of the first lane's checkpoint marker: event code 15
/// (tag `0x3d`), two arguments, lane count 4,096 and the running hash of
/// every byte before the marker.
fn first_checkpoint_marker(bytes: &[u8]) -> (usize, usize) {
    let mut hash = FNV_OFFSET_BASIS;
    for (start, &byte) in bytes.iter().enumerate() {
        let mut marker = vec![0x3d, 0x02];
        marker.extend(varint(4096));
        marker.extend(varint(hash));
        if bytes[start..].starts_with(&marker) {
            return (start, start + marker.len());
        }
        hash = fnv_step(hash, byte);
    }
    panic!("a lane of more than 4,096 accesses carries a marker");
}

/// A `Read` that serves `limit` bytes of `bytes`, then fails.
struct FailingReader<'a> {
    bytes: &'a [u8],
    limit: usize,
}

impl Read for FailingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.limit == 0 {
            return Err(io::Error::other("disk on fire"));
        }
        let n = buf.len().min(self.limit).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        self.limit -= n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flipping any byte or truncating at any point must surface as a
    /// typed error naming where decoding stopped — never a panic, never a
    /// decoded trace.
    #[test]
    fn corrupted_bytes_never_panic_and_never_pass_silently(
        raw_position in any::<u64>(),
        flip_bit in 0u32..8,
        truncate in any::<bool>(),
    ) {
        let (_, bytes) = marked_capture_bytes();

        let (damaged, damage_at) = if truncate {
            // Cut somewhere strictly inside the stream.
            let keep = 1 + (raw_position as usize) % (bytes.len() - 1);
            (bytes[..keep].to_vec(), keep)
        } else {
            let mut copy = bytes.clone();
            let position = (raw_position as usize) % copy.len();
            copy[position] ^= 1 << flip_bit;
            (copy, position)
        };

        // The strict decoder must reject the damage (a flipped byte always
        // breaks the running checksum; a truncation always loses the end
        // marker or checksum).
        let strict = Trace::from_bytes(&damaged);
        prop_assert!(strict.is_err(), "damaged stream decoded cleanly");

        // It stops no earlier than the damage: at the cut of a truncation,
        // past the flipped byte otherwise.
        let (offset, _) = decode_failure(damaged.as_slice());
        if truncate {
            prop_assert_eq!(offset, damage_at as u64);
        } else {
            prop_assert!(offset > damage_at as u64, "stopped at {} before the flip at {}", offset, damage_at);
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
    }
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
fn decode_errors_name_the_byte_offset_where_decoding_stopped() {
    let (_, bytes) = marked_capture_bytes();
    let (marker_start, marker_end) = first_checkpoint_marker(&bytes);

    // A flipped access byte before the first marker: the marker's running
    // hash no longer matches, and decoding stops at the marker's end.
    let mut flipped = bytes.clone();
    flipped[marker_start - 1] ^= 0x04;
    let (offset, error) = decode_failure(flipped.as_slice());
    assert_eq!(offset, marker_end as u64);
    assert!(
        matches!(error, TraceError::ChecksumMismatch { .. }),
        "{error}"
    );

    // A truncation: decoding stops where the bytes run out, inside the
    // access records or inside a multi-byte read (the trailing checksum).
    let cut = bytes.len() / 2;
    for keep in [cut, bytes.len() - 3] {
        let (offset, error) = decode_failure(&bytes[..keep]);
        assert_eq!(offset, keep as u64);
        assert!(
            matches!(&error, TraceError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof),
            "{error}"
        );
    }

    // A reader that fails after N bytes: decoding stops at byte N, and the
    // reader's own error is at the bottom of the chain.  Byte 6 falls
    // inside the version word.
    for limit in [bytes.len() / 3, 6] {
        let failing = FailingReader {
            bytes: &bytes,
            limit,
        };
        let err = Trace::read_from(failing).expect_err("the reader fails");
        let text = err.to_string();
        assert!(text.contains(&format!("byte {limit}")), "{text}");
        assert!(text.contains("disk on fire"), "{text}");
        let replay_error = ReplayError::from(err);
        let io = replay_error
            .source()
            .and_then(|trace| trace.source())
            .expect("the reader's error is in the chain");
        assert_eq!(io.to_string(), "disk on fire");
    }

    // The streaming reader names the offset too.
    let mut reader = TraceReader::new(&bytes[..cut]).expect("the header is intact");
    let err = loop {
        match reader.next_item() {
            Ok(TraceItem::End) => panic!("a truncated stream has no end"),
            Ok(_) => {}
            Err(err) => break err,
        }
    };
    assert!(
        matches!(err, TraceError::Decode { offset, .. } if offset == cut as u64),
        "{err}"
    );
}

#[test]
fn checkpoint_markers_roundtrip_through_the_streaming_reader() {
    let (trace, bytes) = marked_capture_bytes();
    // Markers are transparent: the streaming reader yields the original
    // trace's items and swallows every marker.
    let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
    let mut accesses = 0u64;
    loop {
        match reader.next_item().expect("decode") {
            TraceItem::End => break,
            TraceItem::Access(_) => accesses += 1,
            _ => {}
        }
    }
    assert_eq!(accesses, trace.accesses());
    assert_eq!(Trace::from_bytes(&bytes).expect("decode"), trace);

    // A marker whose hash argument was altered is refused, even when the
    // trailing checksum is recomputed over the altered bytes.
    let (marker_start, marker_end) = first_checkpoint_marker(&bytes);
    let true_hash = fnv64(&bytes[..marker_start]);
    let mut tampered = bytes.clone();
    // The hash varint starts after the tag, the count and two bytes of
    // lane count; its first byte holds the hash's low seven bits.
    tampered[marker_start + 4] ^= 0x01;
    let body = tampered.len() - 8;
    let checksum = fnv64(&tampered[..body]);
    tampered[body..].copy_from_slice(&checksum.to_le_bytes());
    let (offset, error) = decode_failure(tampered.as_slice());
    assert_eq!(offset, marker_end as u64);
    match error {
        TraceError::ChecksumMismatch { stored, computed } => {
            assert_eq!(computed, true_hash);
            assert_eq!(stored, true_hash ^ 0x01);
        }
        other => panic!("expected the marker's mismatch, got {other}"),
    }
}
