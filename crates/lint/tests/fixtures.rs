//! Fixture self-tests: every rule is proven to fire on a minimal
//! violating workspace and to stay silent on the matching compliant one,
//! plus suppression semantics and lexer edge cases end-to-end.
//!
//! Fixtures are tiny synthetic workspace trees written to unique
//! directories under the system temp dir (process id + a counter — no
//! wall-clock involved), mirroring the real layout (`crates/<name>/src/…`,
//! `tests/…`) so path-scoped rules resolve exactly as they do in CI.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use mitosis_lint::rules::casts::TruncatingCast;
use mitosis_lint::rules::exhaustiveness::TraceEventExhaustiveness;
use mitosis_lint::rules::hot_loop::ObserverInHotLoop;
use mitosis_lint::rules::iteration::NondeterministicIteration;
use mitosis_lint::rules::panic_hygiene::PanicHygiene;
use mitosis_lint::rules::shootdown::{LayeringPair, ShootdownLayering};
use mitosis_lint::rules::wall_clock::WallClock;
use mitosis_lint::rules::Rule;
use mitosis_lint::{LintEngine, LintReport};

static FIXTURE_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique, empty fixture workspace root, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new() -> Fixture {
        let root = std::env::temp_dir().join(format!(
            "mitosis-lint-fixture-{}-{}",
            std::process::id(),
            FIXTURE_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&root).expect("create fixture root");
        Fixture { root }
    }

    fn write(&self, relative: &str, source: &str) -> &Self {
        let path = self.root.join(relative);
        std::fs::create_dir_all(path.parent().expect("fixture file has a parent"))
            .expect("create fixture dirs");
        std::fs::write(path, source).expect("write fixture file");
        self
    }

    fn run(&self, rule: Box<dyn Rule>) -> LintReport {
        LintEngine::new(&self.root, vec![rule]).run()
    }

    fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn lines_flagged(report: &LintReport, rule: &str, file: &str) -> Vec<u32> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule && d.file == file)
        .map(|d| d.line)
        .collect()
}

// --- nondeterministic-iteration ---------------------------------------

#[test]
fn iteration_rule_fires_in_listed_crates_only() {
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/lib.rs",
        "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n",
    )
    .write(
        "crates/workloads/src/lib.rs",
        "use std::collections::HashMap;\npub fn g() -> HashMap<u32, u32> { HashMap::new() }\n",
    );
    let report = fx.run(Box::new(NondeterministicIteration::new(
        &["sim"],
        &["HashMap", "HashSet"],
    )));
    assert_eq!(
        lines_flagged(
            &report,
            "nondeterministic-iteration",
            "crates/sim/src/lib.rs"
        ),
        vec![1, 2, 2],
        "one diagnostic per HashMap token in the listed crate:\n{}",
        report.render_text()
    );
    assert!(
        lines_flagged(
            &report,
            "nondeterministic-iteration",
            "crates/workloads/src/lib.rs"
        )
        .is_empty(),
        "crates outside the list are not scanned"
    );
}

#[test]
fn iteration_rule_ignores_comments_and_strings() {
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/lib.rs",
        "//! Docs may say HashMap freely.\n\
         /* block comments too: HashSet */\n\
         pub fn f() -> &'static str { \"HashMap in a string is data\" }\n",
    );
    let report = fx.run(Box::new(NondeterministicIteration::new(
        &["sim"],
        &["HashMap", "HashSet"],
    )));
    assert!(report.is_clean(), "{}", report.render_text());
}

// --- wall-clock-in-measured-path --------------------------------------

#[test]
fn wall_clock_rule_fires_outside_whitelist() {
    let fx = Fixture::new();
    fx.write(
        "crates/pt/src/walk.rs",
        "pub fn t() { let _ = std::time::Instant::now(); }\n\
         pub fn s() { let _ = std::time::SystemTime::now(); }\n",
    )
    .write(
        "crates/obs/src/sink.rs",
        "pub fn stamp() { let _ = std::time::Instant::now(); }\n",
    )
    .write(
        // Passing an Instant *value* is fine anywhere; only `::now` reads.
        "crates/pt/src/carry.rs",
        "pub fn hold(at: std::time::Instant) -> std::time::Instant { at }\n",
    );
    let report = fx.run(Box::new(WallClock::new(&["crates/obs/src/"])));
    assert_eq!(
        lines_flagged(
            &report,
            "wall-clock-in-measured-path",
            "crates/pt/src/walk.rs"
        ),
        vec![1, 2],
        "{}",
        report.render_text()
    );
    assert!(
        lines_flagged(
            &report,
            "wall-clock-in-measured-path",
            "crates/obs/src/sink.rs"
        )
        .is_empty(),
        "whitelisted module may read the wall clock"
    );
    assert!(
        lines_flagged(
            &report,
            "wall-clock-in-measured-path",
            "crates/pt/src/carry.rs"
        )
        .is_empty(),
        "carrying an Instant value is not a wall-clock read"
    );
}

// --- shootdown-layering -----------------------------------------------

#[test]
fn shootdown_rule_fires_outside_allowed_files() {
    let fx = Fixture::new();
    fx.write(
        "crates/vmm/src/hot.rs",
        "pub fn oops(mmu: &mut Mmu) { mmu.shootdown_all(None); }\n",
    )
    .write(
        "crates/mmu/src/mmu.rs",
        "pub fn shootdown_all(&mut self, socket: Option<u16>) { self.flush(socket); }\n",
    )
    .write(
        // Naming the function without calling it (docs aside, e.g. an
        // error message) is not a layering violation.
        "crates/vmm/src/msg.rs",
        "pub fn hint() -> &'static str { \"use shootdown_all( sparingly\" }\n",
    );
    let report = fx.run(Box::new(ShootdownLayering::new(vec![LayeringPair {
        banned_call: "shootdown_all".to_string(),
        allowed_files: vec!["crates/mmu/src/mmu.rs".to_string()],
    }])));
    assert_eq!(
        lines_flagged(&report, "shootdown-layering", "crates/vmm/src/hot.rs"),
        vec![1],
        "{}",
        report.render_text()
    );
    assert!(
        lines_flagged(&report, "shootdown-layering", "crates/mmu/src/mmu.rs").is_empty(),
        "the defining primitive is allowed"
    );
    assert!(
        lines_flagged(&report, "shootdown-layering", "crates/vmm/src/msg.rs").is_empty(),
        "a string literal naming the call is not a call site"
    );
}

// --- truncating-cast-in-encoding --------------------------------------

#[test]
fn cast_rule_fires_on_narrowing_casts_in_scoped_paths() {
    let fx = Fixture::new();
    fx.write(
        "crates/trace/src/enc.rs",
        "pub fn bad(x: usize) -> u16 { x as u16 }\n\
         pub fn fine(x: u16) -> u64 { x as u64 }\n\
         // A comment saying `as u16` is not a cast.\n",
    )
    .write(
        "crates/sim/src/other.rs",
        "pub fn elsewhere(x: usize) -> u16 { x as u16 }\n",
    );
    let report = fx.run(Box::new(TruncatingCast::new(
        &["crates/trace/"],
        &["u16", "u32"],
    )));
    assert_eq!(
        lines_flagged(
            &report,
            "truncating-cast-in-encoding",
            "crates/trace/src/enc.rs"
        ),
        vec![1],
        "only the narrowing cast fires, widening and comments do not:\n{}",
        report.render_text()
    );
    assert!(
        lines_flagged(
            &report,
            "truncating-cast-in-encoding",
            "crates/sim/src/other.rs"
        )
        .is_empty(),
        "paths outside the encoding scope are not checked"
    );
}

// --- panic-hygiene -----------------------------------------------------

#[test]
fn panic_rule_fires_on_unisolated_worker_panics() {
    let fx = Fixture::new();
    fx.write(
        "crates/trace/src/worker.rs",
        "pub fn run(job: Job) {\n\
         \x20   std::thread::spawn(move || {\n\
         \x20       let out = std::panic::catch_unwind(|| job.input.unwrap() + 1);\n\
         \x20       report(out);\n\
         \x20   });\n\
         \x20   state.lock().unwrap().push(1);\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn t() { Some(1).unwrap(); }\n\
         }\n",
    );
    let report = fx.run(Box::new(PanicHygiene::new(&["trace"], &[])));
    assert_eq!(
        lines_flagged(&report, "panic-hygiene", "crates/trace/src/worker.rs"),
        vec![6],
        "the unwrap inside catch_unwind and the one in tests are exempt; \
         the dispatch-side unwrap is not:\n{}",
        report.render_text()
    );
}

#[test]
fn panic_rule_flags_spawn_without_any_isolation() {
    let fx = Fixture::new();
    fx.write(
        "crates/trace/src/pool.rs",
        "pub fn start() {\n\
         \x20   std::thread::spawn(|| work());\n\
         }\n",
    );
    let report = fx.run(Box::new(PanicHygiene::new(&["trace"], &[])));
    assert_eq!(
        lines_flagged(&report, "panic-hygiene", "crates/trace/src/pool.rs"),
        vec![2],
        "{}",
        report.render_text()
    );
}

#[test]
fn panic_rule_ignores_non_worker_files() {
    let fx = Fixture::new();
    fx.write(
        "crates/trace/src/pure.rs",
        "pub fn f() -> u32 { Some(1).unwrap() }\n",
    );
    let report = fx.run(Box::new(PanicHygiene::new(&["trace"], &[])));
    assert!(
        report.is_clean(),
        "a file with no thread::spawn and not configured as worker code \
         is out of scope:\n{}",
        report.render_text()
    );
}

// --- observer-in-hot-loop ----------------------------------------------

fn hot_loop_rule() -> Box<dyn Rule> {
    Box::new(ObserverInHotLoop::new(&[(
        "crates/sim/src/engine.rs",
        "step_access",
    )]))
}

#[test]
fn hot_loop_rule_fires_inside_the_configured_function_only() {
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/engine.rs",
        "pub fn segment(&self) {\n\
         \x20   let _span = self.observer.span(\"engine.segment\", 0);\n\
         }\n\
         fn step_access(mmu: &mut Mmu, obs: &Recorder) -> u64 {\n\
         \x20   if true { mmu.walk(); }\n\
         \x20   self.observer.counter(\"engine.accesses\", 1);\n\
         \x20   obs.log2(\"cycles\", 3);\n\
         \x20   let _ = \"observer in a string\"; // observer in a comment\n\
         \x20   mmu.stats().walk.walks\n\
         }\n\
         fn after() { self.observer.emit_interval(&sample); }\n",
    );
    let report = fx.run(hot_loop_rule());
    assert_eq!(
        lines_flagged(&report, "observer-in-hot-loop", "crates/sim/src/engine.rs"),
        vec![6, 7],
        "only the body of step_access is in scope, past its nested braces:\n{}",
        report.render_text()
    );
}

#[test]
fn hot_loop_rule_checks_the_pipeline_steps_it_ships_with() {
    // The shipped configuration covers the pipelined schedule's two
    // per-access functions beside step_access: an observer call in the
    // walk stage's step is flagged, the clean steps are not.
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/engine.rs",
        "fn step_access(mmu: &mut Mmu) { mmu.access(); }\n\
         fn tlb_step(tlbs: &mut TlbHalf) { tlbs.probe(); }\n\
         fn walk_step(walks: &mut WalkHalf, obs: &Recorder) {\n\
         \x20   walks.walk();\n\
         \x20   obs.counter(\"engine.walks\", 1);\n\
         }\n",
    );
    let report = fx.run(Box::new(ObserverInHotLoop::workspace_default()));
    assert_eq!(
        lines_flagged(&report, "observer-in-hot-loop", "crates/sim/src/engine.rs"),
        vec![5],
        "only the observer call in walk_step's body is flagged:\n{}",
        report.render_text()
    );
}

#[test]
fn hot_loop_rule_reports_a_missing_function() {
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/engine.rs",
        "fn renamed_step(mmu: &mut Mmu) { mmu.walk(); }\n",
    );
    let report = fx.run(hot_loop_rule());
    assert_eq!(
        lines_flagged(&report, "observer-in-hot-loop", "crates/sim/src/engine.rs"),
        vec![1],
        "{}",
        report.render_text()
    );
}

// --- trace-event-exhaustiveness ----------------------------------------

#[test]
fn exhaustiveness_rule_finds_unapplied_variants_and_orphan_codes() {
    let fx = Fixture::new();
    fx.write(
        "crates/trace/src/format.rs",
        "pub(crate) mod event_code {\n\
         \x20   pub const ALPHA: u64 = 1;\n\
         \x20   pub const ORPHAN: u64 = 2;\n\
         }\n\
         pub enum TraceEvent {\n\
         \x20   Alpha(u64),\n\
         \x20   Beta { sockets: u64 },\n\
         }\n\
         fn encode(e: TraceEvent) -> u64 { event_code::ALPHA }\n",
    )
    .write(
        "crates/trace/src/capture.rs",
        "fn emit() { push(TraceEvent::Alpha(1)); push(TraceEvent::Beta { sockets: 3 }); }\n",
    )
    .write(
        "crates/trace/src/replay.rs",
        "fn apply() { handle(TraceEvent::Alpha(1)); }\n",
    );
    let rule = TraceEventExhaustiveness::new(
        "crates/trace/src/format.rs",
        "crates/trace/src/capture.rs",
        "crates/trace/src/replay.rs",
        "TraceEvent",
        "event_code",
    );
    let report = fx.run(Box::new(rule));
    let flagged = lines_flagged(
        &report,
        "trace-event-exhaustiveness",
        "crates/trace/src/format.rs",
    );
    assert_eq!(
        flagged,
        vec![3, 7],
        "ORPHAN (line 3) is never used by encode/decode and Beta (line 7) \
         is never applied by replay:\n{}",
        report.render_text()
    );
}

#[test]
fn exhaustiveness_rule_is_silent_when_tables_agree() {
    let fx = Fixture::new();
    fx.write(
        "crates/trace/src/format.rs",
        "pub(crate) mod event_code {\n\
         \x20   pub const ALPHA: u64 = 1;\n\
         }\n\
         pub enum TraceEvent { Alpha(u64) }\n\
         fn encode() -> u64 { event_code::ALPHA }\n",
    )
    .write(
        "crates/trace/src/capture.rs",
        "fn emit() { push(TraceEvent::Alpha(1)); }\n",
    )
    .write(
        "crates/trace/src/replay.rs",
        "fn apply() { handle(TraceEvent::Alpha(1)); }\n",
    );
    let rule = TraceEventExhaustiveness::new(
        "crates/trace/src/format.rs",
        "crates/trace/src/capture.rs",
        "crates/trace/src/replay.rs",
        "TraceEvent",
        "event_code",
    );
    let report = fx.run(Box::new(rule));
    assert!(report.is_clean(), "{}", report.render_text());
}

// --- suppressions -------------------------------------------------------

#[test]
fn reasoned_allow_suppresses_the_next_code_line() {
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/lib.rs",
        "// mitosis-lint: allow(nondeterministic-iteration, reason = \"never iterated; point lookups only\")\n\
         use std::collections::HashMap;\n\
         pub fn f() {}\n",
    );
    let report = fx.run(Box::new(NondeterministicIteration::new(
        &["sim"],
        &["HashMap"],
    )));
    assert!(report.is_clean(), "{}", report.render_text());
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn reasonless_allow_does_not_suppress_and_is_itself_flagged() {
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/lib.rs",
        "// mitosis-lint: allow(nondeterministic-iteration)\n\
         use std::collections::HashMap;\n",
    );
    let report = fx.run(Box::new(NondeterministicIteration::new(
        &["sim"],
        &["HashMap"],
    )));
    assert_eq!(
        lines_flagged(
            &report,
            "nondeterministic-iteration",
            "crates/sim/src/lib.rs"
        ),
        vec![2],
        "the underlying violation still fires:\n{}",
        report.render_text()
    );
    assert_eq!(
        lines_flagged(&report, "suppression-syntax", "crates/sim/src/lib.rs"),
        vec![1],
        "and the reason-less allow is reported:\n{}",
        report.render_text()
    );
    assert_eq!(report.suppressions_used, 0);
}

#[test]
fn allow_naming_an_unknown_rule_is_flagged() {
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/lib.rs",
        "// mitosis-lint: allow(no-such-rule, reason = \"typo\")\n\
         pub fn f() {}\n",
    );
    let report = fx.run(Box::new(NondeterministicIteration::new(
        &["sim"],
        &["HashMap"],
    )));
    assert_eq!(
        lines_flagged(&report, "suppression-syntax", "crates/sim/src/lib.rs"),
        vec![1],
        "{}",
        report.render_text()
    );
}

#[test]
fn allow_does_not_leak_past_the_next_code_line() {
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/lib.rs",
        "// mitosis-lint: allow(nondeterministic-iteration, reason = \"first only\")\n\
         use std::collections::HashMap;\n\
         use std::collections::HashSet;\n",
    );
    let report = fx.run(Box::new(NondeterministicIteration::new(
        &["sim"],
        &["HashMap", "HashSet"],
    )));
    assert_eq!(
        lines_flagged(
            &report,
            "nondeterministic-iteration",
            "crates/sim/src/lib.rs"
        ),
        vec![3],
        "line 2 is covered, line 3 is not:\n{}",
        report.render_text()
    );
}

// --- lexer edge cases through the engine --------------------------------

#[test]
fn raw_strings_and_nested_comments_never_fire() {
    let fx = Fixture::new();
    fx.write(
        "crates/sim/src/lib.rs",
        "pub fn f() -> &'static str {\n\
         \x20   /* outer /* nested HashMap */ still comment HashSet */\n\
         \x20   r#\"raw HashMap with \"quotes\" inside\"#\n\
         }\n\
         pub fn g() -> char { 'H' } // lifetimes vs chars: &'static above\n",
    );
    let report = fx.run(Box::new(NondeterministicIteration::new(
        &["sim"],
        &["HashMap", "HashSet"],
    )));
    assert!(report.is_clean(), "{}", report.render_text());
}

// --- default rule set over fixtures -------------------------------------

#[test]
fn workspace_default_rules_run_together() {
    let fx = Fixture::new();
    fx.write(
        "crates/vmm/src/bad.rs",
        "use std::collections::HashMap;\n\
         pub fn oops(mmu: &mut Mmu) { mmu.shootdown_all(None); }\n",
    );
    let report = LintEngine::workspace_default(fx.root()).run();
    assert_eq!(
        lines_flagged(
            &report,
            "nondeterministic-iteration",
            "crates/vmm/src/bad.rs"
        ),
        vec![1]
    );
    assert_eq!(
        lines_flagged(&report, "shootdown-layering", "crates/vmm/src/bad.rs"),
        vec![2]
    );
    // The exhaustiveness rule reports its configured files as missing in
    // this synthetic tree rather than passing silently.
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "trace-event-exhaustiveness"),
        "{}",
        report.render_text()
    );
}
