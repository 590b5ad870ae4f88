//! Integration tests for the `mitosis-obs` layer.
//!
//! Two guarantees under test:
//!
//! * **Non-perturbation** — enabling a recorder never changes
//!   [`RunMetrics`]: an observed replay still reproduces the live run
//!   bit-for-bit, under static, dynamic (global events) and staggered
//!   (per-thread events) schedules and in grouped parallel replay.
//! * **Span coverage** — a grouped snapshot replay records one
//!   `prepare_replay` span on the driver track plus per-group
//!   `snapshot_clone`/`group_replay`/`replay.measured` spans whose nesting
//!   and ordering match the report's setup/measured wall split.

use mitosis_numa::{NodeMask, SocketId};
use mitosis_obs::{MemoryRecorder, Observer};
use mitosis_sim::{PhaseChange, PhaseSchedule, RunMetrics, SimParams};
use mitosis_trace::{
    capture_engine_run, capture_engine_run_dynamic, LaneReplayReport, ReplayOutcome, ReplayRequest,
    ReplaySession, ShardDecision, Trace,
};
use mitosis_workloads::suite;
use proptest::prelude::*;
use std::collections::BTreeSet;
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

/// A serial replay through a fresh session wired to `observer`.
fn observed_serial(trace: &Trace, params: &SimParams, observer: &Observer) -> ReplayOutcome {
    let mut session = ReplaySession::new(params);
    session.set_observer(observer.clone());
    session
        .replay(trace, &ReplayRequest::new())
        .expect("observed serial replay")
        .outcome
}

/// A grouped replay through a fresh session wired to `observer`.
fn observed_grouped(
    trace: &Trace,
    params: &SimParams,
    workers: usize,
    observer: &Observer,
) -> LaneReplayReport {
    let mut session = ReplaySession::new(params);
    session.set_observer(observer.clone());
    session
        .replay(trace, &ReplayRequest::new().grouped(workers))
        .expect("observed grouped replay")
}

/// A live observer over a fresh in-memory recorder.
fn observed() -> (Observer, Arc<MemoryRecorder>) {
    let memory = Arc::new(MemoryRecorder::new());
    (Observer::with_recorder(memory.clone()), memory)
}

fn four_socket_capture(accesses: u64) -> (Trace, RunMetrics, SimParams) {
    let params = quick(accesses);
    let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();
    let captured = capture_engine_run(&suite::gups(), &params, &sockets).expect("capture");
    (captured.trace, captured.live_metrics, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Static schedule: an observed replay equals the live run.
    #[test]
    fn observed_replay_equals_live_under_static_schedules(
        accesses in 40u64..240,
        sockets in 1u16..4,
    ) {
        let params = quick(accesses);
        let socket_ids: Vec<SocketId> = (0..sockets).map(SocketId::new).collect();
        let captured =
            capture_engine_run(&suite::gups(), &params, &socket_ids).expect("capture");

        let (observer, memory) = observed();
        let outcome = observed_serial(&captured.trace, &params, &observer);

        prop_assert_eq!(outcome.metrics, captured.live_metrics);
        prop_assert_eq!(memory.counter_value("engine.accesses"), outcome.metrics.accesses);
    }

    /// Dynamic schedule mixing a global migration with a staggered
    /// per-thread event: an observed replay still equals the live run.
    #[test]
    fn observed_replay_equals_live_under_dynamic_and_staggered_schedules(
        migrate_at in 1u64..300,
        stagger_at in 1u64..300,
        stagger_thread in 0usize..4,
    ) {
        let params = quick(300);
        let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();
        let schedule = PhaseSchedule::new()
            .at(
                migrate_at,
                PhaseChange::MigrateData {
                    target: SocketId::new(1),
                },
            )
            .at_thread(
                stagger_at,
                stagger_thread,
                PhaseChange::SetInterference {
                    sockets: NodeMask::single(SocketId::new(1)),
                },
            );
        let captured =
            capture_engine_run_dynamic(&suite::gups(), &params, &sockets, &schedule)
                .expect("dynamic capture");

        let (observer, memory) = observed();
        let outcome = observed_serial(&captured.trace, &params, &observer);

        prop_assert_eq!(outcome.metrics, captured.live_metrics);
        prop_assert_eq!(memory.counter_value("engine.accesses"), outcome.metrics.accesses);
    }
}

#[test]
fn grouped_observed_replay_shards_and_equals_live() {
    let (trace, live, params) = four_socket_capture(400);
    let (observer, _memory) = observed();
    let report = observed_grouped(&trace, &params, 4, &observer);
    assert_eq!(report.decision, ShardDecision::Sharded);
    assert_eq!(report.outcome.metrics, live);
}

#[test]
fn grouped_replay_spans_cover_prepare_clone_and_measured_phases() {
    let (trace, _, params) = four_socket_capture(300);
    let (observer, memory) = observed();
    let report = observed_grouped(&trace, &params, 4, &observer);
    assert_eq!(report.decision, ShardDecision::Sharded);

    let prepare = memory.spans_named("prepare_replay");
    let clones = memory.spans_named("snapshot_clone");
    let groups = memory.spans_named("group_replay");
    let measured = memory.spans_named("replay.measured");
    assert_eq!(prepare.len(), 1, "one shared prepare phase");
    assert_eq!(prepare[0].track, 0, "prepare runs on the driver track");
    assert_eq!(clones.len(), report.groups, "one snapshot clone per group");
    assert_eq!(groups.len(), report.groups, "one replay span per group");
    assert_eq!(measured.len(), report.groups);

    // Each group reports on its own track, 1..=groups.
    let group_tracks: BTreeSet<u64> = groups.iter().map(|span| span.track).collect();
    let expected: BTreeSet<u64> = (1..=report.groups as u64).collect();
    assert_eq!(group_tracks, expected);

    // Consistency with the setup/measured wall split: the shared prepare
    // span belongs to the setup phase and ends before any group starts
    // replaying; clone + measured spans nest inside their group's span
    // (1 µs slack for timestamp truncation).
    let prepare_end = prepare[0].start_us + prepare[0].dur_us;
    for group in &groups {
        assert!(
            prepare_end <= group.start_us + 1,
            "group replay started before prepare finished"
        );
        let group_end = group.start_us + group.dur_us;
        for child in clones.iter().chain(&measured) {
            if child.track == group.track {
                assert!(group.start_us <= child.start_us + 1);
                assert!(child.start_us + child.dur_us <= group_end + 1);
            }
        }
    }
    assert!(
        prepare[0].dur_us <= report.outcome.setup_wall.as_micros() as u64 + 1,
        "prepare span exceeds the reported setup wall time"
    );

    // Counters: one replay of `groups` lane groups, each group one engine
    // run over its lanes.
    assert_eq!(memory.counter_value("replay.runs"), report.groups as u64);
    assert_eq!(memory.counter_value("replay.lanes"), report.lanes as u64);
    assert_eq!(memory.counter_value("engine.runs"), report.groups as u64);
}

#[test]
fn disabled_observer_records_nothing_and_changes_nothing() {
    let (trace, live, params) = four_socket_capture(300);
    // A session with the default (disabled) observer must reproduce the
    // live metrics — the zero-cost path — and so must one with a live
    // recorder, which records spans.
    let outcome = serial_replay(&trace, &params);
    assert_eq!(outcome.metrics, live);

    let (observer, memory) = observed();
    let outcome = observed_serial(&trace, &params, &observer);
    assert_eq!(outcome.metrics, live, "recorder perturbed the metrics");
    assert!(!memory.spans().is_empty());
}
