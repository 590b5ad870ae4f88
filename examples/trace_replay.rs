//! Capture, archive, replay: the `mitosis-trace` quickstart.
//!
//! Captures a handful of paper workloads into binary trace files, replays
//! one deterministically (verifying the metrics are bit-identical to the
//! live run), then replays every file, one session call per trace.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use mitosis_numa::SocketId;
use mitosis_sim::SimParams;
use mitosis_trace::{capture_engine_run, ReplayRequest, ReplaySession, Trace};
use mitosis_workloads::suite;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() {
    let params = SimParams::quick_test().with_accesses(20_000);
    let specs = [
        suite::gups(),
        suite::btree(),
        suite::memcached(),
        suite::redis(),
    ];
    let dir = std::env::temp_dir().join("mitosis-traces");
    std::fs::create_dir_all(&dir).expect("create trace directory");

    // 1. Capture: run each workload live, recording setup events and the
    //    per-thread access lanes into a trace file.
    println!("capturing {} workloads to {}", specs.len(), dir.display());
    let mut traces = Vec::new();
    for spec in &specs {
        let captured = capture_engine_run(spec, &params, &[SocketId::new(0)]).expect("capture run");
        let path = dir.join(format!("{}.mtrc", spec.name().to_lowercase()));
        let file = BufWriter::new(File::create(&path).expect("create trace file"));
        captured.trace.write_to(file).expect("write trace");
        let size = std::fs::metadata(&path).expect("trace metadata").len();
        println!(
            "  {:<10} {:>8} accesses  {:>9} bytes on disk  live runtime {:>12} cycles",
            spec.name(),
            captured.trace.accesses(),
            size,
            captured.live_metrics.total_cycles
        );
        traces.push((path, captured.live_metrics));
    }

    // 2. Replay one trace from disk and verify determinism.  One session
    //    serves every replay below: it owns the worker pool and caches the
    //    prepared snapshot of the last trace it saw.
    let mut session = ReplaySession::new(&params);
    let (path, live) = &traces[0];
    let file = BufReader::new(File::open(path).expect("open trace file"));
    let trace = Trace::read_from(file).expect("read trace");
    let replayed = session
        .replay(&trace, &ReplayRequest::new())
        .expect("replay trace");
    assert_eq!(
        replayed.outcome.metrics, *live,
        "replay must reproduce the live run bit-for-bit"
    );
    println!(
        "\nreplayed {} from disk (identical to live run): {}",
        trace.meta.workload, replayed.outcome.metrics
    );

    // 3. Many traces: decode each file and replay it on the same session.
    //    Each report splits setup reconstruction from the measured phase,
    //    so the replay rate is not diluted by setup cost.
    println!("\nreplaying every trace file:");
    for (path, live) in &traces {
        let trace = Trace::read_from(BufReader::new(File::open(path).expect("open trace")))
            .expect("read trace");
        let report = session
            .replay(&trace, &ReplayRequest::new())
            .expect("replay trace");
        assert_eq!(
            report.outcome.metrics, *live,
            "every replay must reproduce its live run"
        );
        println!("  {:<10} {report}", trace.meta.workload);
    }
}
