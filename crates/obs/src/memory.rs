//! In-memory recorder for tests and programmatic export.

use crate::recorder::{Recorder, Span};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// A span as stored by [`MemoryRecorder`]: wall times converted to
/// microsecond offsets from the recorder's construction instant, so the
/// data is directly exportable (chrome://tracing timestamps are µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedSpan {
    /// Phase name.
    pub name: &'static str,
    /// Timeline (worker / lane-group index).
    pub track: u64,
    /// Microseconds from the recorder's epoch to the span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

#[derive(Debug, Default)]
struct MemoryStore {
    spans: Vec<RecordedSpan>,
    counters: BTreeMap<&'static str, u64>,
}

/// A recorder that stores everything in memory.
///
/// This is the sink tests assert against (spans present, counters exact)
/// and the staging buffer of the chrome://tracing exporter.
#[derive(Debug)]
pub struct MemoryRecorder {
    epoch: Instant,
    store: Mutex<MemoryStore>,
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        MemoryRecorder::new()
    }
}

impl MemoryRecorder {
    /// An empty recorder whose span timestamps are relative to now.
    #[expect(clippy::disallowed_methods, reason = "span stamps are wall time")]
    pub fn new() -> Self {
        MemoryRecorder {
            epoch: Instant::now(),
            store: Mutex::new(MemoryStore::default()),
        }
    }

    fn store(&self) -> std::sync::MutexGuard<'_, MemoryStore> {
        self.store.lock().expect("memory recorder poisoned")
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<RecordedSpan> {
        self.store().spans.clone()
    }

    /// The spans with the given name.
    pub fn spans_named(&self, name: &str) -> Vec<RecordedSpan> {
        self.store()
            .spans
            .iter()
            .filter(|span| span.name == name)
            .copied()
            .collect()
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.store().counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.store()
            .counters
            .iter()
            .map(|(name, value)| (*name, *value))
            .collect()
    }

    /// Exports the recorded spans as chrome://tracing `trace_event` JSON
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn to_chrome_trace(&self) -> String {
        crate::chrome::chrome_trace_json(&self.spans())
    }
}

impl Recorder for MemoryRecorder {
    fn span(&self, span: &Span) {
        let start_us = span.start.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur_us = span.duration().as_micros() as u64;
        self.store().spans.push(RecordedSpan {
            name: span.name,
            track: span.track,
            start_us,
            dur_us,
        });
    }

    fn counter(&self, name: &'static str, value: u64) {
        *self.store().counters.entry(name).or_insert(0) += value;
    }
}
