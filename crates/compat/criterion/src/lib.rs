//! Offline stand-in for the subset of the `criterion` API this workspace
//! uses.
//!
//! The build environment has no access to crates.io, so the benchmark
//! targets link this shim instead of the real Criterion.  It keeps the same
//! authoring surface — [`Criterion`], benchmark groups, `iter` /
//! `iter_batched`, the [`criterion_group!`] / [`criterion_main!`] macros —
//! and implements a straightforward timing loop: per benchmark it runs a
//! warm-up pass, takes `sample_size` wall-clock samples (each batching
//! enough iterations to be measurable), rejects outlier samples using the
//! median-absolute-deviation rule, and prints the minimum, **median** and
//! maximum time per iteration of the retained samples.  No plotting or
//! baseline persistence.
//!
//! Setting the `MITOSIS_BENCH_QUICK` environment variable clamps sample
//! counts and time budgets to small values, turning every benchmark into a
//! smoke test (used by CI to catch hot-path regressions cheaply).
//!
//! Setting `MITOSIS_BENCH_JSON` to a file path additionally appends one
//! JSON line per benchmark — `{"bench":"<id>","median_ns":<median>}` — so
//! CI can diff the results against a committed baseline
//! (`scripts/bench_gate`).  The file is appended to, not truncated:
//! several bench binaries of one job write into the same results file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::time::{Duration, Instant};

/// Re-export of the standard opaque-value hint, like `criterion::black_box`.
pub use std::hint::black_box;

/// How `iter_batched` amortises setup cost over routine calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: many routine calls per setup.
    SmallInput,
    /// Large inputs: few routine calls per setup.
    LargeInput,
    /// One setup per routine call (for routines that consume their input
    /// destructively and are expensive enough to time individually).
    PerIteration,
}

/// Collected timings for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Default)]
struct Samples {
    ns_per_iter: Vec<f64>,
}

impl Samples {
    fn record(&mut self, elapsed: Duration, iters: u64) {
        if iters > 0 {
            self.ns_per_iter
                .push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }

    fn report(&self, id: &str) {
        if self.ns_per_iter.is_empty() {
            println!("{id:<48} (no samples)");
            return;
        }
        let retained = reject_outliers(&self.ns_per_iter);
        let rejected = self.ns_per_iter.len() - retained.len();
        let med = median(&retained);
        let min = retained.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = retained.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let note = if rejected > 0 {
            format!("  ({rejected} outliers rejected)")
        } else {
            String::new()
        };
        println!(
            "{id:<48} time: [{} {} {}]{note}",
            format_ns(min),
            format_ns(med),
            format_ns(max)
        );
        append_json_result(id, med);
    }
}

/// Environment variable naming the machine-readable results file.
const JSON_ENV: &str = "MITOSIS_BENCH_JSON";

/// Reports a non-timing scalar (a modelled-work counter, a ratio) under a
/// bench id: printed alongside the timing lines and appended to the
/// `MITOSIS_BENCH_JSON` file in the same `median_ns` slot, so downstream
/// tooling (`scripts/bench_gate`) can baseline it and check relational
/// invariants without a second file format.
pub fn report_metric(id: &str, value: f64) {
    println!("{id:<48} metric: {value}");
    append_json_result(id, value);
}

/// Appends `{"bench":"<id>","median_ns":<median>}` to the file named by
/// `MITOSIS_BENCH_JSON`, if set.  Best effort: a benchmark run never fails
/// because the results file is unwritable (a warning is printed instead).
fn append_json_result(id: &str, median_ns: f64) {
    let Ok(path) = std::env::var(JSON_ENV) else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let entry = format!("{{\"bench\":{:?},\"median_ns\":{median_ns:.1}}}\n", id);
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| file.write_all(entry.as_bytes()));
    if let Err(error) = written {
        eprintln!("warning: could not append bench result to {path}: {error}");
    }
}

/// Median of a non-empty sample set.
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Scale factor turning a median absolute deviation into a consistent
/// estimator of the standard deviation for normally distributed data.
const MAD_TO_SIGMA: f64 = 1.4826;

/// Samples farther than this many (MAD-estimated) standard deviations from
/// the median are considered outliers (scheduler preemptions, page-cache
/// hiccups) and excluded from the report.
const OUTLIER_SIGMAS: f64 = 3.0;

/// Returns the samples that survive MAD-based outlier rejection.
///
/// With fewer than three samples, or a zero MAD (at least half the samples
/// identical), every sample is retained.
fn reject_outliers(samples: &[f64]) -> Vec<f64> {
    if samples.len() < 3 {
        return samples.to_vec();
    }
    let med = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|s| (s - med).abs()).collect();
    let mad = median(&deviations);
    if mad == 0.0 {
        return samples.to_vec();
    }
    let cutoff = OUTLIER_SIGMAS * MAD_TO_SIGMA * mad;
    samples
        .iter()
        .cloned()
        .filter(|s| (s - med).abs() <= cutoff)
        .collect()
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Timing configuration shared by [`Criterion`] and benchmark groups.
#[derive(Debug, Clone)]
struct Config {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sample_size: 10,
            warm_up_time: Duration::from_millis(100),
            measurement_time: Duration::from_millis(500),
        }
    }
}

impl Config {
    /// Environment variable that turns every benchmark into a smoke test.
    pub(crate) const QUICK_ENV: &'static str = "MITOSIS_BENCH_QUICK";

    /// The configuration actually used for timing: in quick mode
    /// (`MITOSIS_BENCH_QUICK` set and non-empty), sample counts and budgets
    /// are clamped down regardless of what the benchmark requested.
    fn effective(&self) -> Config {
        if std::env::var(Self::QUICK_ENV).is_ok_and(|v| !v.is_empty()) {
            Config {
                sample_size: self.sample_size.min(5),
                warm_up_time: self.warm_up_time.min(Duration::from_millis(20)),
                measurement_time: self.measurement_time.min(Duration::from_millis(100)),
            }
        } else {
            self.clone()
        }
    }
}

/// The per-benchmark timing driver handed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    config: Config,
    samples: Samples,
}

impl Bencher {
    /// Times `routine` called in a loop.
    #[expect(clippy::disallowed_methods, reason = "a bench harness times the host")]
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up: run until the warm-up budget elapses, counting
        // iterations to size the measurement batches.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.config.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let budget = self.config.measurement_time.as_secs_f64() / self.config.sample_size as f64;
        let iters_per_sample = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        for _ in 0..self.config.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            self.samples.record(start.elapsed(), iters_per_sample);
        }
    }

    /// Times `routine` on inputs produced by `setup`; only `routine` is
    /// measured.
    #[expect(clippy::disallowed_methods, reason = "a bench harness times the host")]
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // One warm-up call, then one timed routine call per sample: the
        // workspace only uses batched mode for routines that are expensive
        // enough (tree replication, VMA syscalls) to time individually.
        // The clock stops before the output drops, so tearing down what
        // the routine built is not timed.
        black_box(routine(setup()));
        for _ in 0..self.config.sample_size {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            self.samples.record(start.elapsed(), 1);
            drop(output);
        }
    }
}

/// A named set of related benchmarks sharing timing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    config: Config,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        assert!(samples > 0, "sample_size must be positive");
        self.config.sample_size = samples;
        self
    }

    /// Sets the warm-up budget per benchmark.
    pub fn warm_up_time(&mut self, duration: Duration) -> &mut Self {
        self.config.warm_up_time = duration;
        self
    }

    /// Sets the measurement budget per benchmark.
    pub fn measurement_time(&mut self, duration: Duration) -> &mut Self {
        self.config.measurement_time = duration;
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<S, F>(&mut self, id: S, mut f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        let mut bencher = Bencher {
            config: self.config.effective(),
            samples: Samples::default(),
        };
        f(&mut bencher);
        bencher.samples.report(&id);
        self
    }

    /// Finishes the group (reporting happens per benchmark; this exists for
    /// API compatibility).
    pub fn finish(self) {}
}

/// The top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    config: Config,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            config: self.config.clone(),
            _criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<S, F>(&mut self, id: S, mut f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            config: self.config.effective(),
            samples: Samples::default(),
        };
        f(&mut bencher);
        bencher.samples.report(&id.into());
        self
    }
}

/// Bundles benchmark functions into a single runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_collects_the_configured_samples() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("shim");
        group
            .sample_size(5)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut calls = 0u64;
        group.bench_function("counts", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        group.finish();
        assert!(calls > 5, "routine ran during warm-up and sampling");
    }

    #[test]
    fn iter_batched_times_only_the_routine() {
        let mut criterion = Criterion::default();
        let mut setups = 0u64;
        let mut runs = 0u64;
        criterion.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![0u8; 16]
                },
                |v| {
                    runs += 1;
                    v.len()
                },
                BatchSize::PerIteration,
            )
        });
        assert_eq!(setups, runs);
        assert!(runs > 1);
    }

    #[test]
    fn iter_batched_does_not_time_the_output_drop() {
        /// An output whose teardown takes 30 ms.
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(30));
            }
        }
        let mut bencher = Bencher {
            config: Config {
                sample_size: 3,
                ..Config::default()
            },
            samples: Samples::default(),
        };
        bencher.iter_batched(|| (), |()| SlowDrop, BatchSize::PerIteration);
        let samples = &bencher.samples.ns_per_iter;
        assert_eq!(samples.len(), 3);
        assert!(
            median(samples) < 10e6,
            "a 30 ms drop was timed: {samples:?} ns"
        );
    }

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_rejection_drops_only_the_outlier() {
        // Nine tight samples and one 100x scheduler hiccup.
        let mut samples = vec![10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        samples.push(1000.0);
        let retained = reject_outliers(&samples);
        assert_eq!(retained.len(), 9);
        assert!(retained.iter().all(|s| *s < 11.0));
        // The reported median is unaffected by the hiccup.
        assert!((median(&retained) - 10.0).abs() < 0.2);
    }

    #[test]
    fn mad_rejection_keeps_everything_when_spread_is_zero_or_tiny() {
        // Identical samples: MAD is zero, nothing can be judged an outlier.
        let flat = vec![5.0; 8];
        assert_eq!(reject_outliers(&flat).len(), 8);
        // Too few samples for a meaningful MAD.
        assert_eq!(reject_outliers(&[1.0, 100.0]).len(), 2);
    }

    /// Serialises the tests that mutate process-global environment
    /// variables: `set_var` concurrent with `var` reads from other test
    /// threads is undefined behaviour on glibc.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn quick_mode_clamps_the_config() {
        let _guard = ENV_LOCK.lock().unwrap();
        let config = Config {
            sample_size: 50,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
        };
        // This test manipulates the environment; the var name is process
        // global, so restore it before returning.
        let saved = std::env::var(Config::QUICK_ENV).ok();
        std::env::set_var(Config::QUICK_ENV, "1");
        let quick = config.effective();
        assert!(quick.sample_size <= 5);
        assert!(quick.measurement_time <= Duration::from_millis(100));
        std::env::remove_var(Config::QUICK_ENV);
        let full = config.effective();
        assert_eq!(full.sample_size, 50);
        if let Some(v) = saved {
            std::env::set_var(Config::QUICK_ENV, v);
        }
    }

    #[test]
    fn json_results_are_appended_when_requested() {
        let _guard = ENV_LOCK.lock().unwrap();
        let path = std::env::temp_dir().join(format!("mitosis_bench_json_{}", std::process::id()));
        let saved = std::env::var(JSON_ENV).ok();
        std::env::set_var(JSON_ENV, &path);
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("gate");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(3));
        group.bench_function("example", |b| b.iter(|| 2 + 2));
        group.bench_function("second", |b| b.iter(|| 3 + 3));
        group.finish();
        match saved {
            Some(v) => std::env::set_var(JSON_ENV, v),
            None => std::env::remove_var(JSON_ENV),
        }
        let contents = std::fs::read_to_string(&path).expect("results file was written");
        std::fs::remove_file(&path).ok();
        // One JSON line per benchmark, appended in run order.  (Filter to
        // this test's group: concurrently running shim tests may also have
        // reported while the env var was set.)
        let lines: Vec<&str> = contents
            .lines()
            .filter(|line| line.contains("\"gate/"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"bench\":\"gate/example\""));
        assert!(lines[0].contains("\"median_ns\":"));
        assert!(lines[1].contains("\"bench\":\"gate/second\""));
    }

    #[test]
    fn nanosecond_formatting_picks_sane_units() {
        assert!(format_ns(12.3).ends_with("ns"));
        assert!(format_ns(12_300.0).ends_with("µs"));
        assert!(format_ns(12_300_000.0).ends_with("ms"));
        assert!(format_ns(2_300_000_000.0).ends_with('s'));
    }
}
