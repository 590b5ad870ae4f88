//! Integration tests for the `ReplaySession` / `ReplayRequest` surface
//! itself (the per-scenario guarantees live in `lane_groups.rs`,
//! `trace_determinism.rs`, `resilience.rs`, ...).
//!
//! Three contracts pinned here:
//!
//! * **Pool reuse** — a warm session serves repeated grouped requests
//!   without spawning new worker threads (`threads_spawned` is pinned
//!   after the first call) and stays bit-identical to a fresh session
//!   per request.
//! * **Snapshot cache** — switching traces invalidates the cache, and
//!   clearing it forces the next replay to re-prepare.
//! * **Bad requests are errors** — a request the session cannot execute
//!   (zero workers, a lane selection on a batch) or a trace the machine
//!   cannot place (a lane on a socket it lacks) returns a `ReplayError`,
//!   never a panic inside the library and never silently ignored.

use mitosis_numa::SocketId;
use mitosis_sim::SimParams;
use mitosis_trace::{
    capture_engine_run, ReplayError, ReplayOptions, ReplayRequest, ReplaySession, Trace,
    TraceReplayer,
};
use mitosis_workloads::suite;

fn quick(accesses: u64) -> SimParams {
    SimParams::quick_test().with_accesses(accesses)
}

fn capture(params: &SimParams, sockets: &[u16]) -> Trace {
    let placements: Vec<SocketId> = sockets.iter().copied().map(SocketId::new).collect();
    capture_engine_run(&suite::gups(), params, &placements)
        .expect("capture")
        .trace
}

#[test]
fn warm_pool_serves_repeated_requests_without_respawning() {
    let params = quick(300);
    let trace = capture(&params, &[0, 1, 2, 3]);
    let mut session = ReplaySession::new(&params);
    assert_eq!(
        session.threads_spawned(),
        0,
        "the pool is lazy: no workers before the first grouped request"
    );

    let first = session
        .replay(&trace, &ReplayRequest::new().grouped(4))
        .expect("first grouped replay");
    let spawned = session.threads_spawned();
    assert!(
        (1..=4).contains(&spawned),
        "grouped replay spawned {spawned} workers"
    );

    // Ten more grouped requests: bit-identical to the first AND to a
    // fresh session each time, with zero additional thread spawns.
    for round in 0..10 {
        let warm = session
            .replay(&trace, &ReplayRequest::new().grouped(4))
            .expect("warm grouped replay");
        assert_eq!(
            warm.outcome.metrics, first.outcome.metrics,
            "round {round}: warm-pool replay diverged"
        );
        assert_eq!(
            session.threads_spawned(),
            spawned,
            "round {round}: a warm session must not spawn more workers"
        );
        let fresh = ReplaySession::new(&params)
            .replay(&trace, &ReplayRequest::new().grouped(4))
            .expect("fresh-session replay");
        assert_eq!(
            warm.outcome.metrics, fresh.outcome.metrics,
            "round {round}: warm pool diverged from a fresh pool"
        );
    }

    // Serial requests ride the same session without touching the pool.
    let serial = session
        .replay(&trace, &ReplayRequest::new())
        .expect("serial on a warm session");
    assert_eq!(serial.outcome.metrics, first.outcome.metrics);
    assert_eq!(session.threads_spawned(), spawned);
}

#[test]
fn warm_replays_skip_setup_reconstruction() {
    let params = quick(300);
    let trace = capture(&params, &[0, 1, 2, 3]);
    let mut session = ReplaySession::new(&params);
    let cold = session
        .replay(&trace, &ReplayRequest::new().grouped(4))
        .expect("cold replay");
    assert!(
        cold.setup_wall > std::time::Duration::ZERO,
        "the first replay pays the prepare"
    );
    let warm = session
        .replay(&trace, &ReplayRequest::new().grouped(4))
        .expect("warm replay");
    assert_eq!(
        warm.setup_wall,
        std::time::Duration::ZERO,
        "a cache hit reports zero setup wall"
    );
    assert_eq!(warm.outcome.metrics, cold.outcome.metrics);
}

#[test]
fn switching_traces_invalidates_the_snapshot_cache() {
    let params = quick(250);
    let trace_a = capture(&params, &[0, 1]);
    let trace_b = capture(&params.clone().with_seed(99), &[0, 1, 2]);
    let params_b = params.clone().with_seed(99);

    let fresh_a = ReplaySession::new(&params)
        .replay(&trace_a, &ReplayRequest::new())
        .expect("fresh a")
        .outcome;
    let fresh_b = ReplaySession::new(&params_b)
        .replay(&trace_b, &ReplayRequest::new())
        .expect("fresh b")
        .outcome;

    // A-B-A through one session (per-trace params): every result matches
    // the fresh-session reference, so a stale cached snapshot can never
    // leak across traces.
    let mut session_a = ReplaySession::new(&params);
    let mut session_b = ReplaySession::new(&params_b);
    let first = session_a
        .replay(&trace_a, &ReplayRequest::new())
        .expect("a, cold")
        .outcome;
    let other = session_b
        .replay(&trace_b, &ReplayRequest::new())
        .expect("b, cold")
        .outcome;
    let again = session_a
        .replay(&trace_a, &ReplayRequest::new())
        .expect("a, warm")
        .outcome;
    assert_eq!(first.metrics, fresh_a.metrics);
    assert_eq!(other.metrics, fresh_b.metrics);
    assert_eq!(again.metrics, fresh_a.metrics);

    // And interleaving both traces through ONE session (same machine
    // shape, different seeds are rejected by the fingerprint; use the
    // same params trace pair instead).
    let trace_c = capture(&params, &[0, 1, 2, 3]);
    let fresh_c = ReplaySession::new(&params)
        .replay(&trace_c, &ReplayRequest::new())
        .expect("fresh c")
        .outcome;
    let mut session = ReplaySession::new(&params);
    for _ in 0..2 {
        let a = session
            .replay(&trace_a, &ReplayRequest::new())
            .expect("interleaved a")
            .outcome;
        let c = session
            .replay(&trace_c, &ReplayRequest::new())
            .expect("interleaved c")
            .outcome;
        assert_eq!(a.metrics, fresh_a.metrics);
        assert_eq!(c.metrics, fresh_c.metrics);
    }
}

#[test]
fn clearing_the_snapshot_cache_forces_a_re_prepare() {
    let params = quick(250);
    let trace = capture(&params, &[0, 1, 2, 3]);
    let mut session = ReplaySession::new(&params);
    let cold = session
        .replay(&trace, &ReplayRequest::new().grouped(4))
        .expect("cold replay");
    session.clear_snapshot_cache();
    let after_clear = session
        .replay(&trace, &ReplayRequest::new().grouped(4))
        .expect("replay after clearing the cache");
    assert!(after_clear.setup_wall > std::time::Duration::ZERO);
    assert_eq!(after_clear.outcome.metrics, cold.outcome.metrics);
}

#[test]
fn zero_worker_requests_are_mismatches_not_panics() {
    let params = quick(100);
    let trace = capture(&params, &[0, 1]);
    let mut session = ReplaySession::new(&params);
    let request = ReplayRequest::new().grouped(0);

    let err = session
        .replay(&trace, &request)
        .expect_err("grouped(0) must be rejected");
    assert!(matches!(err, ReplayError::Mismatch(_)), "{err}");
    assert!(err.to_string().contains("grouped(0)"), "{err}");

    // The rejection leaves the session usable.
    session
        .replay(&trace, &ReplayRequest::new().grouped(2))
        .expect("a valid request after the rejected one");
}

#[test]
fn a_lane_on_a_socket_the_machine_lacks_is_a_mismatch_not_a_panic() {
    let params = quick(100);
    let mut trace = capture(&params, &[0, 1]);
    // Keep the machine fingerprint, move lane 1 one socket past the end.
    let missing = trace.meta.machine.sockets;
    trace.lanes[1].socket = missing;
    let expect_mismatch = |err: ReplayError, path: &str| {
        assert!(matches!(err, ReplayError::Mismatch(_)), "{path}: {err}");
        let text = err.to_string();
        assert!(text.contains("lane 1"), "{path}: {text}");
        assert!(
            text.contains(&format!("socket {missing}")),
            "{path}: {text}"
        );
    };

    let mut session = ReplaySession::new(&params);
    let err = session
        .replay(&trace, &ReplayRequest::new())
        .expect_err("serial replay must refuse the lane");
    expect_mismatch(err, "serial");
    let err = session
        .replay(&trace, &ReplayRequest::new().grouped(2))
        .expect_err("grouped replay must refuse the lane");
    expect_mismatch(err, "grouped(2)");
    let err = TraceReplayer::new()
        .checkpoint_at(&trace, &params, ReplayOptions::default(), 50)
        .expect_err("checkpoint_at must refuse the lane");
    expect_mismatch(err, "checkpoint_at");
}
