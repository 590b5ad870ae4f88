//! Observability demo: a grouped snapshot replay under a live recorder.
//!
//! Captures a 4-socket GUPS run, replays it with lane-granular parallel
//! sharding while an [`Observer`] records spans and counters, then:
//!
//! * checks the observed replay's `RunMetrics` equal the live run's — the
//!   simulated metrics come back in the replay's report, never through the
//!   recorder;
//! * prints the counters the engine and the replay driver kept;
//! * exports the span timeline as chrome://tracing JSON.
//!
//! Environment sinks compose: set `MITOSIS_OBS_JSONL=/path/events.jsonl`
//! and/or `MITOSIS_OBS_TRACE_JSON=/path/trace.json` to stream the same
//! events to files.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use mitosis_numa::SocketId;
use mitosis_obs::{MemoryRecorder, Observer};
use mitosis_sim::SimParams;
use mitosis_trace::{capture_engine_run, ReplayRequest, ReplaySession};
use mitosis_workloads::suite;
use std::sync::Arc;

fn main() {
    let params = SimParams::quick_test().with_accesses(20_000);
    let sockets: Vec<SocketId> = (0..4).map(SocketId::new).collect();

    println!("capturing a 4-socket GUPS run ({} accesses/thread)...", {
        params.accesses_per_thread
    });
    let captured = capture_engine_run(&suite::gups(), &params, &sockets).expect("capture");

    // The observer fans out to an in-memory recorder (for the programmatic
    // export below) plus whatever sinks MITOSIS_OBS_JSONL /
    // MITOSIS_OBS_TRACE_JSON configure.
    let memory = Arc::new(MemoryRecorder::new());
    let observer = Observer::from_env().also_record(memory.clone());

    // Request one worker per socket so the replay takes the grouped
    // snapshot path (per-group clone + measured spans) even on small hosts;
    // the simulation is deterministic either way.
    let workers = sockets.len();
    let mut session = ReplaySession::new(&params);
    session.set_observer(observer);
    let report = session
        .replay(&captured.trace, &ReplayRequest::new().grouped(workers))
        .expect("lane-parallel replay");
    assert_eq!(
        report.outcome.metrics, captured.live_metrics,
        "observed replay must reproduce the live run bit-for-bit"
    );
    println!("{report}");

    // Counters sum across the lane groups: every access the groups ran is
    // counted once.
    assert_eq!(
        memory.counter_value("engine.accesses"),
        report.outcome.metrics.accesses,
        "engine.accesses must count every replayed access"
    );
    println!("\ncounters:");
    for (name, value) in memory.counters() {
        println!("  {name:<22} {value}");
    }

    // Span timeline: prepare + per-group clone/measured phases, exported as
    // chrome://tracing JSON (load in chrome://tracing or ui.perfetto.dev).
    let spans = memory.spans();
    println!(
        "\n{} span(s) recorded: {} prepare_replay, {} snapshot_clone, \
         {} group_replay, {} replay.measured, {} engine.segment",
        spans.len(),
        memory.spans_named("prepare_replay").len(),
        memory.spans_named("snapshot_clone").len(),
        memory.spans_named("group_replay").len(),
        memory.spans_named("replay.measured").len(),
        memory.spans_named("engine.segment").len(),
    );
    let out = std::env::temp_dir().join("mitosis-obs-trace.json");
    std::fs::write(&out, memory.to_chrome_trace()).expect("write chrome trace");
    println!("chrome://tracing profile written to {}", out.display());
}
