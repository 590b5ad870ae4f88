//! In-memory recorder for tests and programmatic export.

use crate::hist::Log2Histogram;
use crate::interval::IntervalSample;
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
    histograms: BTreeMap<&'static str, Log2Histogram>,
    intervals: Vec<IntervalSample>,
}

/// A recorder that stores everything in memory.
///
/// This is the sink tests assert against (spans present, counters exact,
/// interval sums reproducing the aggregate) and the staging buffer of the
/// chrome://tracing exporter.
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

    /// A histogram by name, if any sample was recorded into it.
    pub fn histogram(&self, name: &str) -> Option<Log2Histogram> {
        self.store().histograms.get(name).cloned()
    }

    /// Every interval sample recorded so far, in recording order.
    ///
    /// With parallel replay the samples of different tracks interleave in
    /// recording order; filter by [`IntervalSample::track`] (or use
    /// [`MemoryRecorder::intervals_for_track`]) before accumulating.
    pub fn intervals(&self) -> Vec<IntervalSample> {
        self.store().intervals.clone()
    }

    /// The interval samples of one track, in interval order.
    pub fn intervals_for_track(&self, track: u64) -> Vec<IntervalSample> {
        let mut samples: Vec<IntervalSample> = self
            .store()
            .intervals
            .iter()
            .filter(|sample| sample.track == track)
            .cloned()
            .collect();
        samples.sort_by_key(|sample| sample.index);
        samples
    }

    /// The distinct tracks interval samples were recorded on, ascending.
    pub fn interval_tracks(&self) -> Vec<u64> {
        let mut tracks: Vec<u64> = self
            .store()
            .intervals
            .iter()
            .map(|sample| sample.track)
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        tracks
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

    fn log2(&self, name: &'static str, value: u64) {
        self.store()
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    fn interval(&self, sample: &IntervalSample) {
        self.store().intervals.push(sample.clone());
    }
}
