//! Host-time benchmark of the Mitosis simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9_multisocket --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client: the process runs the
//! workload's scenario list back to back ("passes") for `--seconds`, after
//! one untimed warm-up pass whose runs are also checked against the
//! library's own scenario runners.  `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates traced and untraced passes and prints the
//! per-layer metrics.  The last line of standard output is one JSON object;
//! see `perfbench/README.md` for every metric.

mod churn;
mod figures;
mod pass;
mod recorder;

use pass::PassOutput;
use recorder::{PassTiming, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed whose digests are pinned below.
const DEFAULT_SEED: u64 = 42;

/// Digest of one pass's simulated metrics and counts at [`DEFAULT_SEED`].
const PINNED_DIGESTS: [(&str, u64); 3] = [
    ("fig9_multisocket", 0x528c_fc3d_c148_a7f7),
    ("fig10_migration", 0x94e6_df32_137d_d750),
    ("churn_replay", 0xff6d_962c_5392_8e4f),
];

/// One workload: a scenario list the benchmark runs as a pass.
pub trait Workload {
    /// Runs one pass over the scenario list.
    fn pass(&mut self, rec: &mut Recorder, out: &mut PassOutput);
    /// Re-runs the scenarios through the library's own runners and lists
    /// every run whose metrics differ from `out`'s.
    fn reference_check(&self, out: &PassOutput) -> Vec<String>;
    /// Draws one pass's access streams without the engine; returns the
    /// number of accesses drawn.
    fn generate(&self) -> u64;
    /// Host worker threads the workload's replays use.
    fn workers(&self) -> usize;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(name.to_string(), value);
        }
        let mut take = |name: &str| {
            values
                .remove(name)
                .ok_or_else(|| format!("missing --{name}"))
        };
        let workload = take("workload")?;
        let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        if let Some(extra) = values.keys().next() {
            return Err(format!("unknown flag --{extra}"));
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Removes every `MITOSIS_*` variable from the environment: fault
/// injection, observer sinks, quick mode and access-count overrides would
/// otherwise leak into timed runs.  Returns the names removed.
fn clear_mitosis_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("MITOSIS_"))
        .collect();
    for name in &names {
        // Single-threaded here: nothing else reads the environment yet.
        std::env::remove_var(name);
    }
    names
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.is_empty() {
        0.0
    } else if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One measured pass.
struct Pass {
    timing: PassTiming,
    out: PassOutput,
    traced: bool,
    /// Stream-generation time after a traced pass (outside its wall time).
    generate: Option<Duration>,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.timing.wall.as_secs_f64()
    }

    /// Simulated accesses per host second of the measured phase.
    fn accesses_per_s(&self) -> f64 {
        let accesses = self.out.counts.get("mmu.accesses").copied().unwrap_or(0);
        accesses as f64 / self.timing.measured.as_secs_f64().max(1e-9)
    }
}

/// The per-layer metrics, in output order, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("vmm.build_s", "s"),
    ("vmm.populate_s", "s"),
    ("vmm.footprint_s", "s"),
    ("vmm.teardown_s", "s"),
    ("core.replicate_s", "s"),
    ("core.replica_tables", "count"),
    ("core.migrate_pt_s", "s"),
    ("core.pt_tables_migrated", "count"),
    ("pt.pagetable_bytes", "bytes"),
    ("mem.data_bytes", "bytes"),
    ("numa.set_interference_s", "s"),
    ("sim.engine_new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.accesses", "count"),
    ("sim.ns_per_access", "ns"),
    ("sim.demand_faults", "count"),
    ("sim.shootdown_entries", "count"),
    ("sim.full_flushes", "count"),
    ("sim.ranged_ranges", "count"),
    ("workloads.generate_s", "s"),
    ("mmu.accesses", "count"),
    ("mmu.tlb_misses", "count"),
    ("mmu.tlb_hit_ratio", "ratio"),
    ("mmu.walks", "count"),
    ("mmu.walk_levels", "count"),
    ("mmu.pte_cache_hits", "count"),
    ("mmu.pte_cache_hit_ratio", "ratio"),
    ("numa.local_dram_reads", "count"),
    ("numa.remote_dram_reads", "count"),
    ("trace.decode_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.prepare_s", "s"),
    ("trace.snapshot_clone_s", "s"),
    ("trace.replay_serial_s", "s"),
    ("trace.replay_grouped_s", "s"),
    ("trace.replay_cold_s", "s"),
    ("trace.accesses", "count"),
    ("trace.shard_decision", "ratio"),
    ("trace.pool_threads", "count"),
    ("bench.scenario_s", "s"),
    ("bench.check_s", "s"),
    ("bench.uncovered_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.passes", "count"),
    ("bench.nproc", "count"),
    ("anomaly.churn_accesses", "count"),
    ("anomaly.replay_ns_per_access", "ns"),
    ("anomaly.live_ns_per_access", "ns"),
    ("anomaly.lane_accesses", "count"),
    ("anomaly.grouped_wall_s", "s"),
    ("anomaly.grouped_setup_s", "s"),
    ("anomaly.grouped_measured_s", "s"),
    ("anomaly.serial_wall_s", "s"),
    ("anomaly.serial_setup_s", "s"),
    ("anomaly.serial_measured_s", "s"),
    ("anomaly.cold_grouped_wall_s", "s"),
    ("anomaly.cold_grouped_setup_s", "s"),
    ("anomaly.cold_grouped_measured_s", "s"),
];

/// Mean of `f` over `passes`.
fn mean_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(|p| f(p)).sum::<f64>() / passes.len().max(1) as f64
}

/// Median of `f` over `passes`.
fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// Self time per span name, averaged over `traced`: with the uncovered
/// remainder, the rows add up to the mean traced pass wall.
fn mean_self_times(traced: &[&Pass]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for pass in traced {
        for (name, elapsed) in pass.timing.self_times() {
            *out.entry(name).or_insert(0.0) += elapsed.as_secs_f64() / traced.len() as f64;
        }
    }
    out
}

/// Per-layer values from the passes of a traced run.
fn per_layer(passes: &[Pass], nproc: usize) -> BTreeMap<String, f64> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let mut values = BTreeMap::new();
    for (name, seconds) in mean_self_times(&traced) {
        values.insert(format!("{name}_s"), seconds);
    }
    values.insert(
        "bench.uncovered_s".into(),
        mean_of(&traced, |p| p.timing.uncovered().as_secs_f64()),
    );
    values.insert(
        "workloads.generate_s".into(),
        mean_of(&traced, |p| p.generate.map_or(0.0, |d| d.as_secs_f64())),
    );
    let traced_wall = median_of(&traced, Pass::wall);
    let untraced_wall = median_of(&untraced, Pass::wall);
    values.insert("bench.traced_wall_s".into(), traced_wall);
    values.insert("bench.untraced_wall_s".into(), untraced_wall);
    values.insert("bench.trace_overhead_s".into(), traced_wall - untraced_wall);
    values.insert("bench.passes".into(), passes.len() as f64);
    values.insert("bench.nproc".into(), nproc as f64);

    // Counts repeat exactly (checked), so any pass's counts serve.
    let counts = &passes[0].out.counts;
    for (name, value) in counts {
        values.insert(name.to_string(), *value as f64);
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let run_s = values.get("sim.run_s").copied().unwrap_or(0.0);
    let derived = [
        (
            "mmu.tlb_hit_ratio",
            ratio(count("mmu.tlb_hits"), count("mmu.accesses")),
        ),
        (
            "mmu.pte_cache_hit_ratio",
            ratio(count("mmu.pte_cache_hits"), count("mmu.walk_reads")),
        ),
        (
            "trace.shard_decision",
            ratio(count("trace.sharded_calls"), count("trace.grouped_calls")),
        ),
        (
            "sim.ns_per_access",
            ratio(run_s * 1e9, count("sim.accesses")),
        ),
    ];
    for (name, value) in derived {
        values.insert(name.into(), value);
    }

    // Anomaly rows (every pass sets the same ones), averaged over the
    // traced passes.
    for name in traced[0].out.rows.keys() {
        let value = mean_of(&traced, |p| p.out.rows.get(name).copied().unwrap_or(0.0));
        values.insert(name.to_string(), value);
    }
    values
}

/// Writes the traced passes' spans as JSON lines.
fn write_spans(path: &std::path::Path, passes: &[Pass]) -> std::io::Result<()> {
    let mut text = String::new();
    for (index, pass) in passes.iter().enumerate().filter(|(_, p)| p.traced) {
        for (id, span) in pass.timing.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"pass\":{index},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Prints the traced passes' self time per span name and checks that the
/// rows plus the uncovered remainder account for the pass wall.
fn print_accounting(passes: &[Pass]) {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let self_times = mean_self_times(&traced);
    let uncovered = mean_of(&traced, |p| p.timing.uncovered().as_secs_f64());
    let wall = mean_of(&traced, Pass::wall);
    println!(
        "# self time per layer, mean of {} traced passes",
        traced.len()
    );
    let rows = self_times
        .iter()
        .map(|(name, seconds)| (*name, *seconds))
        .chain([("(no top-level span)", uncovered)]);
    for (name, seconds) in rows {
        println!(
            "#   {name:<28} {seconds:>10.6} s  {:>5.1}%",
            100.0 * seconds / wall
        );
    }
    let total: f64 = self_times.values().sum::<f64>() + uncovered;
    println!("#   sum {total:.6} s vs traced wall {wall:.6} s");
}

fn run() -> Result<ExitCode, String> {
    let args = Args::parse()?;
    let overridden = clear_mitosis_env();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "fig9_multisocket" => Box::new(figures::Fig9::new(args.seed)),
        "fig10_migration" => Box::new(figures::Fig10::new(args.seed)),
        "churn_replay" => {
            Box::new(churn::Churn::new(args.seed).map_err(|e| format!("capturing inputs: {e}"))?)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# nproc {nproc}, replay workers {}, inputs generated in {:.3} s",
        workload.workers(),
        start.elapsed().as_secs_f64()
    );
    if !overridden.is_empty() {
        println!("# removed from the environment: {}", overridden.join(", "));
    }

    // Warm-up pass: untimed; its runs are checked against the library's
    // own scenario runners.
    let mut rec = Recorder::new();
    let mut warmup = PassOutput::default();
    rec.begin_pass(false);
    workload.pass(&mut rec, &mut warmup);
    rec.end_pass();
    let mismatches = workload.reference_check(&warmup);

    let min_passes = if args.trace { 4 } else { 3 };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || Instant::now() < deadline {
        let traced = args.trace && passes.len().is_multiple_of(2);
        rec.begin_pass(traced);
        let mut out = PassOutput::default();
        workload.pass(&mut rec, &mut out);
        let timing = rec.end_pass();
        let generate = traced.then(|| {
            let begin = Instant::now();
            std::hint::black_box(workload.generate());
            begin.elapsed()
        });
        passes.push(Pass {
            timing,
            out,
            traced,
            generate,
        });
    }

    // Output checks.
    let mut attempted = warmup.attempted;
    let mut failed = (warmup.failures.len() + mismatches.len()) as u64;
    let mut problems: Vec<String> = mismatches;
    for (label, why) in &warmup.failures {
        problems.push(format!("warm-up {label}: {why}"));
    }
    let digest = warmup.digest();
    for (index, pass) in passes.iter().enumerate() {
        attempted += pass.out.attempted;
        failed += pass.out.failures.len() as u64;
        for (label, why) in &pass.out.failures {
            problems.push(format!("pass {index} {label}: {why}"));
        }
        if pass.out.counts != warmup.counts || pass.out.digest() != digest {
            problems.push(format!(
                "pass {index} ({}) did not repeat the warm-up pass's counts exactly",
                if pass.traced { "traced" } else { "untraced" }
            ));
        }
    }
    if args.seed == DEFAULT_SEED {
        let pinned = PINNED_DIGESTS
            .iter()
            .find(|(name, _)| *name == args.workload)
            .map_or(0, |(_, d)| *d);
        if pinned != digest {
            problems.push(format!(
                "digest {digest:#018x} differs from the pinned {pinned:#018x}"
            ));
        }
    }
    let correct = problems.is_empty();

    // Report.
    println!("# digest {digest:#018x}");
    for (label, speedup, paper) in &warmup.speedups {
        println!("# simulated Mitosis speedup {label:<20} {speedup:.3}x   (paper {paper})");
    }
    for problem in &problems {
        println!("# CHECK FAILED: {problem}");
    }
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall()).collect();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let wall_s = median(&walls);
    let wall_max = walls.iter().copied().fold(0.0, f64::max);
    let setup_s = median_of(&untraced, |p| p.timing.setup.as_secs_f64());
    let rate = median_of(&untraced, Pass::accesses_per_s);
    let rss = peak_rss_mib()?;
    println!(
        "# untraced passes {}: wall median {wall_s:.6} s, max {wall_max:.6} s; error rate {failed}/{attempted}",
        walls.len()
    );
    for (what, f) in [
        ("walls (s)", Pass::wall as fn(&Pass) -> f64),
        ("setups (s)", |p: &Pass| p.timing.setup.as_secs_f64()),
        ("accesses/s", Pass::accesses_per_s),
    ] {
        let listed: Vec<String> = untraced.iter().map(|p| format!("{:.4}", f(p))).collect();
        println!("# untraced pass {what}: {}", listed.join(" "));
    }
    if args.trace {
        print_accounting(&passes);
        let values = per_layer(&passes, nproc);
        for (name, unit) in PER_LAYER {
            metrics.push((
                name.to_string(),
                values.get(*name).copied().unwrap_or(0.0),
                unit,
            ));
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match write_spans(&path, &passes) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
    } else {
        metrics.push(("wall_s".into(), wall_s, "s"));
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("sim_accesses_per_s".into(), rate, "1/s"));
        metrics.push(("peak_rss_mib".into(), rss, "MiB"));
    }
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>20.6} {unit}");
    }

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if index == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
