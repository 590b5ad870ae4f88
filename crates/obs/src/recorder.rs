//! The [`Recorder`] trait, the fan-out sink and the RAII span guard.
//!
//! A recorder is the sink side of the observability layer: the engine and
//! the replay drivers hand it *spans* (wall-clock timed phases) and
//! *counters* (monotonic sums).  Wall-clock time appears only in span
//! timing, which exists to profile the *host* cost of a run, never its
//! simulated outcome; the simulated metrics are the run's result.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One wall-clock timed phase of a run, reported when the phase ends.
///
/// `track` separates concurrent timelines (one per worker or lane group in
/// parallel replay); the chrome://tracing exporter maps it to the `tid`
/// axis so a grouped replay's workers render as parallel rows.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Phase name (`"prepare_replay"`, `"snapshot_clone"`, ...).
    pub name: &'static str,
    /// Timeline the span belongs to (worker / lane-group index; 0 for the
    /// driving thread).
    pub track: u64,
    /// When the phase started.
    pub start: Instant,
    /// When the phase ended.
    pub end: Instant,
}

impl Span {
    /// Host time the phase took.
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// A sink for observability events.
///
/// Every method has an empty default body, so a sink implements only what
/// it stores.  Implementations must be thread-safe: parallel replay hands
/// one shared recorder to every worker.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Records a completed span.
    fn span(&self, span: &Span) {
        let _ = span;
    }

    /// Adds `value` to the named monotonic counter.
    fn counter(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }
}

/// A recorder that forwards every event to several sinks (e.g. a JSONL
/// stream *and* an in-memory store in the same run).
#[derive(Debug)]
pub struct FanoutRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// A fanout over `sinks`, forwarding events in order.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        FanoutRecorder { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn span(&self, span: &Span) {
        for sink in &self.sinks {
            sink.span(span);
        }
    }

    fn counter(&self, name: &'static str, value: u64) {
        for sink in &self.sinks {
            sink.counter(name, value);
        }
    }
}

/// An RAII span: created at a phase start, reports the completed
/// [`Span`] to the recorder when dropped.
///
/// A guard created without a recorder (the disabled path) holds nothing
/// and never reads the clock.
#[derive(Debug)]
#[must_use = "a span guard records on drop; binding it to `_` ends the span immediately"]
pub struct SpanGuard {
    inner: Option<(Arc<dyn Recorder>, &'static str, u64, Instant)>,
}

impl SpanGuard {
    /// A live guard reporting to `recorder` on drop.
    #[expect(clippy::disallowed_methods, reason = "a span is wall time by design")]
    pub fn start(recorder: Arc<dyn Recorder>, name: &'static str, track: u64) -> Self {
        SpanGuard {
            inner: Some((recorder, name, track, Instant::now())),
        }
    }

    /// The no-op guard: no recorder, no clock reads.
    pub fn disabled() -> Self {
        SpanGuard { inner: None }
    }
}

impl Drop for SpanGuard {
    #[expect(clippy::disallowed_methods, reason = "a span is wall time by design")]
    fn drop(&mut self) {
        if let Some((recorder, name, track, start)) = self.inner.take() {
            recorder.span(&Span {
                name,
                track,
                start,
                end: Instant::now(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryRecorder;

    #[test]
    fn span_guard_records_on_drop() {
        let memory = Arc::new(MemoryRecorder::new());
        {
            let _guard = SpanGuard::start(memory.clone(), "phase", 3);
        }
        let spans = memory.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].track, 3);
    }

    #[test]
    fn disabled_guard_records_nothing() {
        let _guard = SpanGuard::disabled();
    }

    #[test]
    fn fanout_forwards_to_every_sink() {
        let a = Arc::new(MemoryRecorder::new());
        let b = Arc::new(MemoryRecorder::new());
        let fan = FanoutRecorder::new(vec![a.clone(), b.clone()]);
        fan.counter("c", 2);
        fan.counter("c", 3);
        assert_eq!(a.counter_value("c"), 5);
        assert_eq!(b.counter_value("c"), 5);
    }
}
