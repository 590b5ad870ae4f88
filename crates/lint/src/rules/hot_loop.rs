//! `observer-in-hot-loop`: no `Observer` call inside the engine's
//! per-access functions.
//!
//! The observability layer is provably non-perturbing only where it is
//! proven: at interval edges and around segments, outside the access
//! loops.  The execution engine funnels every simulated access through a
//! few per-access functions — one the serial and split schedules share,
//! and the pipelined schedule's TLB-stage and walk-stage steps — so
//! keeping those functions observer-free keeps every access
//! observer-free.  An observer call there would also put a shared recorder
//! on the split and pipelined schedules' host threads.  The rule names
//! the functions in its configuration, the way `panic-hygiene` names its
//! worker files, and flags any mention of an observer (`observer`, `Observer`,
//! `mitosis_obs`) or call of the observer API (`.span(`, `.counter(`,
//! `.log2(`, `.emit_interval(`, `.is_enabled(`) inside its body.  A
//! configured function the rule cannot find is flagged too, so a rename
//! cannot silently switch the rule off.

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::source::SourceFile;

/// Canonical rule name.
pub const NAME: &str = "observer-in-hot-loop";

const OBSERVER_NAMES: &[&str] = &["observer", "Observer", "mitosis_obs"];
const OBSERVER_METHODS: &[&str] = &["span", "counter", "log2", "emit_interval", "is_enabled"];

/// Keeps observer calls out of configured per-access functions.
pub struct ObserverInHotLoop {
    /// `(workspace-relative file, function name)` pairs.
    functions: Vec<(String, String)>,
}

impl ObserverInHotLoop {
    /// Checks the named functions, each given as `(file, function)`.
    pub fn new(functions: &[(&str, &str)]) -> Self {
        ObserverInHotLoop {
            functions: functions
                .iter()
                .map(|(file, function)| (file.to_string(), function.to_string()))
                .collect(),
        }
    }

    /// The shipped configuration: the execution engine's per-access
    /// functions — the serial and split schedules' `step_access`, and the
    /// pipelined schedule's `tlb_step` and `walk_step`.
    pub fn workspace_default() -> Self {
        let engine = "crates/sim/src/engine.rs";
        ObserverInHotLoop::new(&[
            (engine, "step_access"),
            (engine, "tlb_step"),
            (engine, "walk_step"),
        ])
    }
}

/// The token range of the body of the first `fn <name>` in `file`: from
/// its opening brace to the matching closing brace, inclusive.
fn function_body(file: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let (start, _) = file.code_tokens().find(|&(index, token)| {
        token.is_ident("fn")
            && matches!(file.next_code_token(index + 1), Some((_, next)) if next.is_ident(name))
    })?;
    let mut depth = 0usize;
    let mut open = None;
    for (index, token) in file.code_tokens().skip_while(|&(index, _)| index < start) {
        if token.is_punct('{') {
            open.get_or_insert(index);
            depth += 1;
        } else if token.is_punct('}') && open.is_some() {
            depth -= 1;
            if depth == 0 {
                return open.map(|open| (open, index));
            }
        }
    }
    None
}

impl Rule for ObserverInHotLoop {
    fn name(&self) -> &'static str {
        NAME
    }

    fn check_workspace(&self, files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
        for (path, function) in &self.functions {
            let Some(file) = files.iter().find(|file| &file.path == path) else {
                diags.push(Diagnostic::new(
                    NAME,
                    path,
                    1,
                    format!("per-access function file not found: cannot check `{function}`"),
                ));
                continue;
            };
            let Some((open, close)) = function_body(file, function) else {
                diags.push(Diagnostic::new(
                    NAME,
                    path,
                    1,
                    format!(
                        "per-access function `{function}` not found: update the rule's \
                         configuration if it was renamed"
                    ),
                ));
                continue;
            };
            // One diagnostic per line: `self.observer.span(` is one call.
            let mut flagged_line = None;
            for (index, token) in file
                .code_tokens()
                .filter(|&(index, _)| open < index && index < close)
            {
                let named = OBSERVER_NAMES.iter().any(|name| token.is_ident(name));
                let called = OBSERVER_METHODS.iter().any(|name| token.is_ident(name))
                    && index > 0
                    && file.tokens[index - 1].is_punct('.')
                    && matches!(file.next_code_token(index + 1), Some((_, next)) if next.is_punct('('));
                if (named || called) && flagged_line != Some(token.line) {
                    flagged_line = Some(token.line);
                    diags.push(Diagnostic::new(
                        NAME,
                        path,
                        token.line,
                        format!(
                            "`{}` in the per-access function `{function}`: observe at interval \
                             edges or around segments, never per access",
                            token.text
                        ),
                    ));
                }
            }
        }
    }
}
