//! The [`Observer`] handle the engine and replay drivers carry.
//!
//! An observer wraps the optional recorder.  The disabled observer
//! ([`Observer::none`]) is the default everywhere: no recorder, no clock
//! reads — the instrumented code paths reduce to a `None` check.

use crate::recorder::{FanoutRecorder, Recorder, SpanGuard};
use std::sync::Arc;

/// Environment variable naming a JSONL file to stream all events to.
pub const ENV_JSONL: &str = "MITOSIS_OBS_JSONL";
/// Environment variable naming a chrome://tracing JSON file for spans.
pub const ENV_TRACE_JSON: &str = "MITOSIS_OBS_TRACE_JSON";

/// Handle to the recorder a run reports spans and counters to.
///
/// Cloning an observer shares the underlying recorder.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    recorder: Option<Arc<dyn Recorder>>,
}

impl Observer {
    /// The disabled observer: no recorder.
    pub fn none() -> Self {
        Observer::default()
    }

    /// An observer reporting to `recorder`.
    pub fn with_recorder(recorder: Arc<dyn Recorder>) -> Self {
        Observer {
            recorder: Some(recorder),
        }
    }

    /// Returns the observer with `recorder` added alongside any existing
    /// sink (fanning out to both).
    pub fn also_record(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(match self.recorder.take() {
            None => recorder,
            Some(existing) => Arc::new(FanoutRecorder::new(vec![existing, recorder])),
        });
        self
    }

    /// Builds an observer from the `MITOSIS_OBS_*` environment variables:
    /// [`ENV_JSONL`] and [`ENV_TRACE_JSON`] attach sinks.  Unset variables
    /// leave the corresponding sink off; an unwritable sink path is
    /// reported to stderr and skipped.
    pub fn from_env() -> Self {
        let mut observer = Observer::none();
        if let Ok(path) = std::env::var(ENV_JSONL) {
            if !path.is_empty() {
                match crate::JsonlRecorder::create(&path) {
                    Ok(recorder) => observer = observer.also_record(Arc::new(recorder)),
                    Err(error) => eprintln!("{ENV_JSONL}: cannot create {path}: {error}"),
                }
            }
        }
        if let Ok(path) = std::env::var(ENV_TRACE_JSON) {
            if !path.is_empty() {
                match crate::ChromeTraceRecorder::create(&path) {
                    Ok(recorder) => observer = observer.also_record(Arc::new(recorder)),
                    Err(error) => eprintln!("{ENV_TRACE_JSON}: cannot create {path}: {error}"),
                }
            }
        }
        observer
    }

    /// Whether any recorder is installed.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Starts a span on `track`; the no-op guard when disabled.
    pub fn span(&self, name: &'static str, track: u64) -> SpanGuard {
        match &self.recorder {
            Some(recorder) => SpanGuard::start(recorder.clone(), name, track),
            None => SpanGuard::disabled(),
        }
    }

    /// Adds to a named counter (no-op when disabled).
    pub fn counter(&self, name: &'static str, value: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.counter(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryRecorder;

    #[test]
    fn disabled_observer_is_inert() {
        let observer = Observer::none();
        assert!(!observer.is_enabled());
        observer.counter("c", 1);
        let _span = observer.span("s", 0);
    }

    #[test]
    fn also_record_fans_out() {
        let a = Arc::new(MemoryRecorder::new());
        let b = Arc::new(MemoryRecorder::new());
        let observer = Observer::with_recorder(a.clone()).also_record(b.clone());
        observer.counter("c", 4);
        assert_eq!(a.counter_value("c"), 4);
        assert_eq!(b.counter_value("c"), 4);
    }

    #[test]
    fn an_unwritable_trace_json_path_is_skipped() {
        // The only test in this crate that touches the environment.
        let missing = std::env::temp_dir()
            .join(format!("mitosis-obs-missing-{}", std::process::id()))
            .join("trace.json");
        std::env::remove_var(ENV_JSONL);
        std::env::set_var(ENV_TRACE_JSON, &missing);
        let observer = Observer::from_env();
        std::env::remove_var(ENV_TRACE_JSON);
        assert!(!observer.is_enabled(), "{missing:?} cannot be created");
        assert!(!missing.exists());
    }
}
