//! Resilient replay walkthrough: fault injection, salvage, worker panic
//! isolation and mid-lane checkpoint/resume.
//!
//! Captures a multi-socket workload, then demonstrates the four failure
//! paths the trace layer survives:
//!
//! 1. a damaged trace file salvaged to its longest checkpoint-attested
//!    prefix (explicitly marked, never silently wrong);
//! 2. decoding through a seeded fault-injecting reader, with injected
//!    faults surfacing as structured errors;
//! 3. lane-parallel replay under injected worker panics — the panic is
//!    caught on the pool and comes back as a typed error naming the first
//!    failed group, and the same session then replays cleanly,
//!    bit-identical to serial replay;
//! 4. pausing a replay mid-lane and resuming it from the snapshot,
//!    bit-identical to the uninterrupted run.
//!
//! ```text
//! cargo run --release --example resilience
//! ```

use mitosis_numa::SocketId;
use mitosis_obs::{MemoryRecorder, Observer};
use mitosis_sim::SimParams;
use mitosis_trace::{
    capture_engine_run, FaultPlan, ReplayCompleteness, ReplayError, ReplayOptions, ReplayRequest,
    ReplaySession, Trace, TraceReplayer, TraceWriter,
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

    // 1. Salvage: encode with checkpoint markers, damage the tail, recover.
    let mut writer = TraceWriter::new(Vec::new(), &captured.trace.meta).expect("writer");
    writer.set_checkpoint_interval(1024);
    for &step in &captured.trace.setup_events {
        writer.setup_step(step).expect("setup step");
    }
    for lane in &captured.trace.lanes {
        writer.begin_lane(lane.socket).expect("begin lane");
        for &access in &lane.accesses {
            writer.access(access).expect("access");
        }
    }
    let bytes = writer.finish().expect("finish");
    let damaged = &bytes[..bytes.len() - 64];
    assert!(Trace::from_bytes(damaged).is_err(), "strict decode rejects");
    let outcome = session
        .replay_bytes(damaged, &ReplayRequest::new().salvage())
        .expect("salvaged replay")
        .outcome;
    match outcome.completeness {
        ReplayCompleteness::Salvaged {
            valid_accesses,
            lost_accesses,
        } => println!(
            "salvaged a truncated trace: replayed {valid_accesses} attested \
             accesses, lost {lost_accesses} past the last checkpoint"
        ),
        ReplayCompleteness::Complete => unreachable!("damaged bytes cannot be complete"),
    }

    // 2. Fault-injecting reader: a seeded plan makes decode failures
    //    reproducible, structured, and counted on the observer.
    let plan = FaultPlan::seeded(7).with_read_io(0.001).with_flip(0.0001);
    let memory = std::sync::Arc::new(MemoryRecorder::new());
    let observer = Observer::with_recorder(memory.clone());
    match Trace::read_from(plan.reader(bytes.as_slice(), &observer)) {
        Ok(_) => println!("fault plan (seed 7): no fault hit this stream"),
        Err(error) => println!(
            "fault plan (seed 7): decode failed as a structured error ({error}); \
             injected: {} read faults, {} flips",
            memory.counter_value("fault.read_io"),
            memory.counter_value("fault.bit_flip"),
        ),
    }

    // 3. Worker panics: every group's job panics.  The pool catches each
    //    panic, and the call fails with a typed error naming the first
    //    failed group instead of unwinding this thread.  The same session
    //    (same pool threads) then replays cleanly, bit-identical to serial.
    let chaos = FaultPlan::seeded(11).with_worker_panic(1.0);
    session.set_observer(observer.clone());
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

    // 4. Checkpoint/resume: pause halfway, resume, bit-identical.
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
