//! Host-time recording around calls into the simulator's crates.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Recorder::span`].  Untraced, a span only charges its duration to the
//! pass's setup, measured or other time.  Traced, it is also kept in memory
//! as a [`Span`] (name, start, end, parent), and the spans are written out
//! when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which end-to-end bucket a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the first measured access: building systems, populate,
    /// replicate or migrate, decoding and preparing traces.
    Setup,
    /// The measured phase: simulated accesses.
    Measured,
    /// Anything else inside a pass (teardown, output checks, glue).  Also
    /// used by parent spans, whose children charge their own time.
    Other,
}

/// One recorded span.  Times are offsets from the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in the same pass, if any.
    pub parent: Option<usize>,
}

/// Timings of one finished pass.
#[derive(Debug, Clone)]
pub struct PassTiming {
    pub wall: Duration,
    pub setup: Duration,
    pub measured: Duration,
    /// Recorded spans; empty for an untraced pass.
    pub spans: Vec<Span>,
}

impl PassTiming {
    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed over the pass.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            *out.entry(span.name).or_insert(Duration::ZERO) +=
                (span.end - span.start).saturating_sub(children);
        }
        out
    }

    /// The part of the pass's wall time that no top-level span covers.
    pub fn uncovered(&self) -> Duration {
        let covered: Duration = self
            .spans
            .iter()
            .filter(|span| span.parent.is_none())
            .map(|span| span.end - span.start)
            .sum();
        self.wall.saturating_sub(covered)
    }
}

/// Records spans and phase totals for one pass at a time.
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    pass_start: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    setup: Duration,
    measured: Duration,
}

impl Recorder {
    pub fn new() -> Self {
        let now = Instant::now();
        Recorder {
            epoch: now,
            tracing: false,
            pass_start: now,
            spans: Vec::new(),
            open: Vec::new(),
            setup: Duration::ZERO,
            measured: Duration::ZERO,
        }
    }

    /// Starts a pass; `tracing` selects whether spans are kept.
    pub fn begin_pass(&mut self, tracing: bool) {
        self.tracing = tracing;
        self.spans.clear();
        self.open.clear();
        self.setup = Duration::ZERO;
        self.measured = Duration::ZERO;
        self.pass_start = Instant::now();
    }

    /// Ends the pass started by [`Recorder::begin_pass`].
    pub fn end_pass(&mut self) -> PassTiming {
        let wall = self.pass_start.elapsed();
        debug_assert!(self.open.is_empty(), "span left open at pass end");
        PassTiming {
            wall,
            setup: self.setup,
            measured: self.measured,
            spans: std::mem::take(&mut self.spans),
        }
    }

    /// Runs `f` inside a span named `name`, charging its duration to
    /// `phase`.  Spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        phase: Phase,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let start = Instant::now();
        let slot = self.tracing.then(|| {
            self.spans.push(Span {
                name,
                start: start - self.epoch,
                end: Duration::ZERO,
                parent: self.open.last().copied(),
            });
            let index = self.spans.len() - 1;
            self.open.push(index);
            index
        });
        let value = f(self);
        let end = Instant::now();
        self.charge(phase, end - start);
        if let Some(index) = slot {
            self.open.pop();
            self.spans[index].end = end - self.epoch;
        }
        value
    }

    /// Charges `elapsed` to `phase` without a span of its own — used for
    /// the setup / measured split a replay report returns for one call.
    pub fn charge(&mut self, phase: Phase, elapsed: Duration) {
        match phase {
            Phase::Setup => self.setup += elapsed,
            Phase::Measured => self.measured += elapsed,
            Phase::Other => {}
        }
    }
}
