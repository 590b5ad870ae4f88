//! Resilient replay walkthrough: typed decode errors, worker panic
//! isolation and mid-lane checkpoint/resume.
//!
//! Captures a multi-socket workload, then demonstrates the three failure
//! paths the trace layer handles:
//!
//! 1. damaged trace bytes — a flipped byte and a truncation — refused as
//!    typed errors naming the byte offset where decoding stopped (never a
//!    salvaged prefix, never silently wrong);
//! 2. lane-parallel replay under injected worker panics — the panic is
//!    caught on the pool and comes back as a typed error naming the first
//!    failed group, and the same session then replays cleanly,
//!    bit-identical to serial replay;
//! 3. pausing a replay mid-lane and resuming it from the snapshot,
//!    bit-identical to the uninterrupted run.
//!
//! ```text
//! cargo run --release --example resilience
//! ```

use mitosis_numa::SocketId;
use mitosis_obs::{MemoryRecorder, Observer};
use mitosis_sim::SimParams;
use mitosis_trace::{
    capture_engine_run, FaultPlan, ReplayError, ReplayOptions, ReplayRequest, ReplaySession, Trace,
    TraceError, TraceReplayer,
};
use mitosis_workloads::suite;

fn main() {
    let params = SimParams::quick_test().with_accesses(20_000);
    let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();
    let captured = capture_engine_run(&suite::memcached(), &params, &sockets).expect("capture run");
    // One session drives every replay below; after the first call it serves
    // the cached snapshot and its persistent worker pool.
    let mut session = ReplaySession::new(&params);
    let serial = session
        .replay(&captured.trace, &ReplayRequest::new())
        .expect("serial replay")
        .outcome;
    println!(
        "captured {} lanes, {} accesses; serial replay {} cycles",
        captured.trace.lanes.len(),
        captured.trace.accesses(),
        serial.metrics.total_cycles
    );

    // 1. Damaged bytes: every decode failure is a typed error that names
    //    where decoding stopped.
    let bytes = captured.trace.to_bytes().expect("encode");
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x10;
    let truncated = &bytes[..bytes.len() - 64];
    for (what, damaged) in [
        ("flipped byte", flipped.as_slice()),
        ("truncation", truncated),
    ] {
        match Trace::from_bytes(damaged) {
            Err(error @ TraceError::Decode { .. }) => println!("{what}: {error}"),
            other => panic!("{what}: expected a decode error, got {other:?}"),
        }
    }

    // 2. Worker panics: every group's job panics.  The pool catches each
    //    panic, and the call fails with a typed error naming the first
    //    failed group instead of unwinding this thread.  The same session
    //    (same pool threads) then replays cleanly, bit-identical to serial.
    let memory = std::sync::Arc::new(MemoryRecorder::new());
    let observer = Observer::with_recorder(memory.clone());
    let chaos = FaultPlan::seeded(11).with_worker_panic(1.0);
    session.set_observer(observer);
    let error = session
        .replay(
            &captured.trace,
            &ReplayRequest::new().grouped(4).fault_plan(chaos),
        )
        .expect_err("every group panics");
    assert!(matches!(error, ReplayError::Panic(_)), "{error}");
    println!(
        "under injected worker panics: {error} ({} panics injected)",
        memory.counter_value("fault.worker_panic")
    );
    let report = session
        .replay(&captured.trace, &ReplayRequest::new().grouped(4))
        .expect("clean grouped replay");
    assert!(report.sharded());
    assert_eq!(report.outcome.metrics, serial.metrics);
    println!("the same session, no faults: {report}");

    // 3. Checkpoint/resume: pause halfway, resume, bit-identical.
    let mut replayer = TraceReplayer::new();
    let halfway = params.accesses_per_thread / 2;
    let snapshot = replayer
        .checkpoint_at(&captured.trace, &params, ReplayOptions::default(), halfway)
        .expect("checkpoint");
    let resumed = replayer
        .replay_snapshot(&snapshot, &captured.trace)
        .expect("resume");
    assert_eq!(resumed.metrics, serial.metrics);
    println!(
        "paused at access {halfway}, resumed to completion: {} cycles \
         (bit-identical to the uninterrupted run)",
        resumed.metrics.total_cycles
    );
}
