//! `panic-hygiene`: panics in worker-thread code stay behind the
//! `catch_unwind` isolation boundary.
//!
//! The replay pool runs every job under one `catch_unwind`: a panic in a
//! lane-group or batch job is caught on the worker, which survives, and
//! becomes the call's `ReplayError::Panic` naming the unit.  That only
//! holds for panics *inside* the `catch_unwind` scope — an `unwrap()` on
//! the dispatch side of a worker file kills the whole session instead of
//! failing one call.  The rule finds files that spawn worker
//! threads (plus explicitly configured dispatch modules) and requires
//! every panic site in them to sit inside a `catch_unwind(...)` argument
//! or carry a reasoned `allow`; a worker file with no `catch_unwind` at
//! all is flagged at its spawn sites.

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::source::SourceFile;

/// Canonical rule name.
pub const NAME: &str = "panic-hygiene";

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Requires catch_unwind isolation around panics in worker-thread code.
pub struct PanicHygiene {
    crates: Vec<String>,
    worker_files: Vec<String>,
}

impl PanicHygiene {
    /// Checks the given crates, treating `worker_files` as worker code
    /// even when they do not themselves call `thread::spawn`.
    pub fn new(crates: &[&str], worker_files: &[&str]) -> Self {
        PanicHygiene {
            crates: crates.iter().map(|s| s.to_string()).collect(),
            worker_files: worker_files.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The shipped configuration: the replay stack's crates, with
    /// `session.rs` listed explicitly — it builds the closures the pool
    /// workers execute, so its dispatch code is worker code even though
    /// the `thread::spawn` lives in `pool.rs`.
    pub fn workspace_default() -> Self {
        PanicHygiene::new(&["trace", "sim"], &["crates/trace/src/session.rs"])
    }
}

impl Rule for PanicHygiene {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check_file(&self, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
        if !self.crates.iter().any(|c| file.in_crate(c)) {
            return;
        }
        // `thread::spawn` outside test code marks a worker file.
        let mut spawn_sites = Vec::new();
        for (index, token) in file.code_tokens() {
            if !token.is_ident("thread") || file.is_test_code(index) {
                continue;
            }
            let spawn_follows = matches!(
                file.next_code_token(index + 1),
                Some((c1, t1)) if t1.is_punct(':') && matches!(
                    file.next_code_token(c1 + 1),
                    Some((c2, t2)) if t2.is_punct(':') && matches!(
                        file.next_code_token(c2 + 1),
                        Some((_, t3)) if t3.is_ident("spawn")
                    )
                )
            );
            if spawn_follows {
                spawn_sites.push(token.line);
            }
        }
        let is_worker =
            !spawn_sites.is_empty() || self.worker_files.iter().any(|f| f == &file.path);
        if !is_worker {
            return;
        }
        if !file.mentions_catch_unwind() && !spawn_sites.is_empty() {
            for line in &spawn_sites {
                diags.push(Diagnostic::new(
                    NAME,
                    &file.path,
                    *line,
                    "worker threads spawned without any catch_unwind isolation: a panicking \
                     job would kill the pool instead of failing one request",
                ));
            }
        }
        for (index, token) in file.code_tokens() {
            if file.is_test_code(index) || file.in_catch_unwind(index) {
                continue;
            }
            let Some((_, next)) = file.next_code_token(index + 1) else {
                continue;
            };
            let is_macro_panic =
                PANIC_MACROS.iter().any(|m| token.is_ident(m)) && next.is_punct('!');
            let is_method_panic =
                PANIC_METHODS.iter().any(|m| token.is_ident(m)) && next.is_punct('(');
            if is_macro_panic || is_method_panic {
                diags.push(Diagnostic::new(
                    NAME,
                    &file.path,
                    token.line,
                    format!(
                        "`{}{}` in worker-thread code outside catch_unwind isolation: a panic \
                         here escapes the pool's catch_unwind — return an error, or allow with \
                         a reason proving unreachability",
                        token.text,
                        if is_macro_panic { "!" } else { "()" },
                    ),
                ));
            }
        }
    }
}
