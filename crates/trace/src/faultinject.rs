//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultPlan`] decides — reproducibly, from a seed — where faults
//! strike: I/O errors and short reads while decoding a trace, bit flips in
//! the bytes read, injected panics and delays in parallel replay workers.
//! Decisions are pure functions of `(seed, site, index)`, so the same plan
//! injects the same faults regardless of call order, thread timing or how
//! many other sites consulted the plan in between; a failure found under
//! `MITOSIS_FAULT_SEED=7` reproduces under `MITOSIS_FAULT_SEED=7`.
//!
//! Nothing is injected unless asked: the disabled plan (the default, and
//! the result of [`FaultPlan::from_env`] with no `MITOSIS_FAULT_*`
//! variables set) answers "no fault" from a single branch, which keeps the
//! production paths that consult it effectively free.
//!
//! Wiring:
//! * [`FaultyReader`]/[`FaultyWriter`] wrap any `Read`/`Write` and inject
//!   the I/O-level faults; [`TraceReader::with_faults`] /
//!   [`TraceWriter::with_faults`](crate::TraceWriter::with_faults) build
//!   codecs over them directly.
//! * The parallel lane driver consults the process-wide
//!   [`env_plan`] for worker panics and delays (see
//!   [`ReplaySession::replay`](crate::ReplaySession::replay)); injected
//!   worker faults exercise the catch-unwind/retry/serial-degradation
//!   machinery end to end.
//!
//! Every injected fault is counted on the observer (`fault.*` counters),
//! so an observed run shows exactly which faults fired.

use crate::format::{TraceError, TraceMeta, TraceReader, TraceWriter};
use mitosis_sim::Observer;
use std::io::{self, Read, Write};
use std::sync::OnceLock;
use std::time::Duration;

/// Seed of the deterministic fault stream.
pub const ENV_FAULT_SEED: &str = "MITOSIS_FAULT_SEED";
/// Probability (0–1) of an injected I/O error per read call.
pub const ENV_FAULT_READ_IO: &str = "MITOSIS_FAULT_READ_IO";
/// Probability (0–1) of a flipped bit per byte read.
pub const ENV_FAULT_FLIP: &str = "MITOSIS_FAULT_FLIP";
/// Probability (0–1) of a spurious end-of-file per read call.
pub const ENV_FAULT_TRUNCATE: &str = "MITOSIS_FAULT_TRUNCATE";
/// Probability (0–1) of an injected I/O error per write call.
pub const ENV_FAULT_WRITE_IO: &str = "MITOSIS_FAULT_WRITE_IO";
/// Probability (0–1) that a lane-group worker attempt panics.
pub const ENV_FAULT_WORKER_PANIC: &str = "MITOSIS_FAULT_WORKER_PANIC";
/// Probability (0–1) that a lane-group worker is delayed before running.
pub const ENV_FAULT_WORKER_SLOW: &str = "MITOSIS_FAULT_WORKER_SLOW";
/// Delay in milliseconds for a slow worker (default 10).
pub const ENV_FAULT_WORKER_SLOW_MS: &str = "MITOSIS_FAULT_WORKER_SLOW_MS";

// Decision domains: every fault site hashes with its own constant so the
// per-site decision streams are independent.
const SITE_READ_IO: u64 = 1;
const SITE_TRUNCATE: u64 = 2;
const SITE_FLIP: u64 = 3;
const SITE_WRITE_IO: u64 = 4;
const SITE_WORKER_PANIC: u64 = 5;
const SITE_WORKER_SLOW: u64 = 6;

/// A seeded, deterministic fault-injection plan.
///
/// Copyable value type: adaptors and drivers embed it by value.  All
/// probabilities are clamped to `[0, 1]`; a plan with every probability at
/// zero is *disabled* and injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    read_io: f64,
    flip: f64,
    truncate: f64,
    write_io: f64,
    worker_panic: f64,
    worker_slow: f64,
    slow_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

impl FaultPlan {
    /// The plan that injects nothing (every probability zero).
    pub const fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            read_io: 0.0,
            flip: 0.0,
            truncate: 0.0,
            write_io: 0.0,
            worker_panic: 0.0,
            worker_slow: 0.0,
            slow_ms: 10,
        }
    }

    /// A plan seeded with `seed` and no faults enabled yet; chain the
    /// `with_*` builders to arm specific fault classes.
    pub const fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::disabled()
        }
    }

    /// Arms injected I/O errors on reads with the given per-call
    /// probability.
    pub fn with_read_io(mut self, probability: f64) -> Self {
        self.read_io = probability.clamp(0.0, 1.0);
        self
    }

    /// Arms bit flips with the given per-byte probability.
    pub fn with_flip(mut self, probability: f64) -> Self {
        self.flip = probability.clamp(0.0, 1.0);
        self
    }

    /// Arms spurious end-of-file with the given per-call probability.
    pub fn with_truncate(mut self, probability: f64) -> Self {
        self.truncate = probability.clamp(0.0, 1.0);
        self
    }

    /// Arms injected I/O errors on writes with the given per-call
    /// probability.
    pub fn with_write_io(mut self, probability: f64) -> Self {
        self.write_io = probability.clamp(0.0, 1.0);
        self
    }

    /// Arms injected panics in lane-group workers with the given
    /// per-attempt probability.  The decision is keyed on `(group,
    /// attempt)`, so a group that panics on its first attempt may succeed
    /// on a retry under a probabilistic seed (and always re-panics under
    /// probability 1).
    pub fn with_worker_panic(mut self, probability: f64) -> Self {
        self.worker_panic = probability.clamp(0.0, 1.0);
        self
    }

    /// Arms injected delays in lane-group workers.
    pub fn with_worker_slow(mut self, probability: f64, delay: Duration) -> Self {
        self.worker_slow = probability.clamp(0.0, 1.0);
        self.slow_ms = delay.as_millis() as u64;
        self
    }

    /// Builds the plan the `MITOSIS_FAULT_*` environment variables
    /// describe; with none set, the disabled plan.
    pub fn from_env() -> Self {
        fn prob(name: &str) -> f64 {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .map_or(0.0, |p| p.clamp(0.0, 1.0))
        }
        let slow_ms = std::env::var(ENV_FAULT_WORKER_SLOW_MS)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(10);
        FaultPlan {
            seed: std::env::var(ENV_FAULT_SEED)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0),
            read_io: prob(ENV_FAULT_READ_IO),
            flip: prob(ENV_FAULT_FLIP),
            truncate: prob(ENV_FAULT_TRUNCATE),
            write_io: prob(ENV_FAULT_WRITE_IO),
            worker_panic: prob(ENV_FAULT_WORKER_PANIC),
            worker_slow: prob(ENV_FAULT_WORKER_SLOW),
            slow_ms,
        }
    }

    /// Whether any fault class is armed.  The hot-path check production
    /// code performs before consulting specific decisions.
    pub fn is_enabled(&self) -> bool {
        self.read_io > 0.0
            || self.flip > 0.0
            || self.truncate > 0.0
            || self.write_io > 0.0
            || self.worker_panic > 0.0
            || self.worker_slow > 0.0
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform value in `[0, 1)` for decision `(site, index)` — a
    /// splitmix64-style hash, so decisions are order-independent.
    fn chance(&self, site: u64, index: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(site.wrapping_mul(0x9e3779b97f4a7c15))
            .wrapping_add(index.wrapping_mul(0xd1b54a32d192ed03));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fault decision for the `op`-th read call, if any.
    fn read_fault(&self, op: u64) -> Option<ReadFault> {
        if self.read_io > 0.0 && self.chance(SITE_READ_IO, op) < self.read_io {
            return Some(ReadFault::Io);
        }
        if self.truncate > 0.0 && self.chance(SITE_TRUNCATE, op) < self.truncate {
            return Some(ReadFault::Truncate);
        }
        None
    }

    /// XOR mask for the byte at stream offset `index`; 0 = no flip.
    fn flip_mask(&self, index: u64) -> u8 {
        if self.flip > 0.0 && self.chance(SITE_FLIP, index) < self.flip {
            // Derive the flipped bit from the same decision stream.
            // mitosis-lint: allow(truncating-cast-in-encoding, reason = "chance() is in [0,1) so the operand is a float in [0,8), not a wire value; the cast picks a bit index")
            1 << ((self.chance(SITE_FLIP, index.wrapping_add(1) << 32) * 8.0) as u32 & 7)
        } else {
            0
        }
    }

    /// Whether the `op`-th write call fails.
    fn write_fault(&self, op: u64) -> bool {
        self.write_io > 0.0 && self.chance(SITE_WRITE_IO, op) < self.write_io
    }

    /// Whether lane-group worker `group` panics on its `attempt`-th try.
    pub fn worker_panics(&self, group: usize, attempt: u32) -> bool {
        self.worker_panic > 0.0
            && self.chance(SITE_WORKER_PANIC, ((group as u64) << 32) | attempt as u64)
                < self.worker_panic
    }

    /// The delay injected into lane-group worker `group`, if any.
    pub fn worker_delay(&self, group: usize) -> Option<Duration> {
        (self.worker_slow > 0.0 && self.chance(SITE_WORKER_SLOW, group as u64) < self.worker_slow)
            .then(|| Duration::from_millis(self.slow_ms))
    }

    /// Wraps `source` in a fault-injecting reader driven by this plan.
    pub fn reader<R: Read>(&self, source: R, observer: &Observer) -> FaultyReader<R> {
        FaultyReader {
            inner: source,
            plan: *self,
            observer: observer.clone(),
            ops: 0,
            offset: 0,
            injected: 0,
        }
    }

    /// Wraps `sink` in a fault-injecting writer driven by this plan.
    pub fn writer<W: Write>(&self, sink: W, observer: &Observer) -> FaultyWriter<W> {
        FaultyWriter {
            inner: sink,
            plan: *self,
            observer: observer.clone(),
            ops: 0,
            injected: 0,
        }
    }
}

/// What a read call was made to do instead of reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadFault {
    /// Fail with an I/O error.
    Io,
    /// Report a spurious end-of-file (reads 0 bytes).
    Truncate,
}

/// The process-wide plan described by the `MITOSIS_FAULT_*` environment,
/// parsed once.  This is what the parallel replay driver consults for
/// worker faults; with no variables set it is the disabled plan and the
/// consultation is one boolean check.
pub fn env_plan() -> &'static FaultPlan {
    static PLAN: OnceLock<FaultPlan> = OnceLock::new();
    PLAN.get_or_init(FaultPlan::from_env)
}

/// A `Read` adaptor injecting the plan's I/O faults: per-call errors and
/// spurious EOFs, per-byte bit flips.  Every injection is recorded on the
/// observer (`fault.read_io`, `fault.truncate`, `fault.bit_flip`).
pub struct FaultyReader<R> {
    inner: R,
    plan: FaultPlan,
    observer: Observer,
    ops: u64,
    offset: u64,
    injected: u64,
}

impl<R> FaultyReader<R> {
    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let op = self.ops;
        self.ops += 1;
        match self.plan.read_fault(op) {
            Some(ReadFault::Io) => {
                self.injected += 1;
                self.observer.counter("fault.read_io", 1);
                return Err(io::Error::other("injected read fault"));
            }
            Some(ReadFault::Truncate) => {
                self.injected += 1;
                self.observer.counter("fault.truncate", 1);
                return Ok(0);
            }
            None => {}
        }
        let n = self.inner.read(buf)?;
        if self.plan.flip > 0.0 {
            for (i, byte) in buf[..n].iter_mut().enumerate() {
                let mask = self.plan.flip_mask(self.offset + i as u64);
                if mask != 0 {
                    *byte ^= mask;
                    self.injected += 1;
                    self.observer.counter("fault.bit_flip", 1);
                }
            }
        }
        self.offset += n as u64;
        Ok(n)
    }
}

/// A `Write` adaptor injecting per-call I/O errors (`fault.write_io`).
pub struct FaultyWriter<W> {
    inner: W,
    plan: FaultPlan,
    observer: Observer,
    ops: u64,
    injected: u64,
}

impl<W> FaultyWriter<W> {
    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let op = self.ops;
        self.ops += 1;
        if self.plan.write_fault(op) {
            self.injected += 1;
            self.observer.counter("fault.write_io", 1);
            return Err(io::Error::other("injected write fault"));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<R: Read> TraceReader<FaultyReader<R>> {
    /// Opens a trace over a fault-injecting source: every byte the codec
    /// reads passes through `plan`'s I/O fault decisions.  Injected faults
    /// surface as ordinary [`TraceError`]s — this constructor is how the
    /// resilience tests prove the decode path never panics and never
    /// silently accepts corrupted data.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceReader::new`], plus whatever faults the
    /// plan injects into the header bytes.
    pub fn with_faults(
        source: R,
        plan: &FaultPlan,
        observer: &Observer,
    ) -> Result<Self, TraceError> {
        TraceReader::new(plan.reader(source, observer))
    }
}

impl<W: Write> TraceWriter<FaultyWriter<W>> {
    /// Starts a trace over a fault-injecting sink (the write-side
    /// counterpart of [`TraceReader::with_faults`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceWriter::new`], plus whatever faults the
    /// plan injects into the header writes.
    pub fn with_faults(
        sink: W,
        meta: &TraceMeta,
        plan: &FaultPlan,
        observer: &Observer,
    ) -> Result<Self, TraceError> {
        TraceWriter::new(plan.writer(sink, observer), meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plan = FaultPlan::seeded(42).with_read_io(0.3).with_flip(0.1);
        let forward: Vec<bool> = (0..100).map(|i| plan.read_fault(i).is_some()).collect();
        let backward: Vec<bool> = (0..100)
            .rev()
            .map(|i| plan.read_fault(i).is_some())
            .collect();
        let reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed, "decisions must not depend on order");
        assert!(
            forward.iter().filter(|hit| **hit).count() > 10,
            "a 0.3 probability over 100 ops should fire often"
        );
        // A different seed gives a different stream.
        let other = FaultPlan::seeded(43).with_read_io(0.3);
        let shifted: Vec<bool> = (0..100).map(|i| other.read_fault(i).is_some()).collect();
        assert_ne!(forward, shifted);
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        for i in 0..1000 {
            assert!(plan.read_fault(i).is_none());
            assert_eq!(plan.flip_mask(i), 0);
            assert!(!plan.write_fault(i));
            assert!(!plan.worker_panics(i as usize, 0));
            assert!(plan.worker_delay(i as usize).is_none());
        }
    }

    #[test]
    fn faulty_reader_flips_and_fails_deterministically() {
        let data: Vec<u8> = (0..255).collect();
        let run = |plan: &FaultPlan| -> (io::Result<Vec<u8>>, u64) {
            let observer = Observer::none();
            let mut reader = plan.reader(data.as_slice(), &observer);
            let mut out = Vec::new();
            let result = reader.read_to_end(&mut out).map(|_| out);
            (result, reader.injected())
        };
        let plan = FaultPlan::seeded(7).with_flip(0.05);
        let (first, injected_first) = run(&plan);
        let (second, injected_second) = run(&plan);
        assert_eq!(first.unwrap(), second.unwrap(), "flips must reproduce");
        assert_eq!(injected_first, injected_second);
        assert!(injected_first > 0, "a 5% flip rate over 255 bytes");

        let failing = FaultPlan::seeded(7).with_read_io(1.0);
        let (result, injected) = run(&failing);
        assert!(result.is_err());
        assert_eq!(injected, 1, "the first read call already fails");
    }

    #[test]
    fn worker_panic_decisions_vary_by_attempt() {
        // Keyed on (group, attempt): under a mid-range probability some
        // group that panics on attempt 0 must succeed on a later attempt —
        // that is what makes bounded retries meaningful.
        let plan = FaultPlan::seeded(3).with_worker_panic(0.5);
        let recovers = (0..64).any(|group| {
            plan.worker_panics(group, 0)
                && !(0..3).all(|attempt| plan.worker_panics(group, attempt))
        });
        assert!(recovers);
        // And probability 1 always panics, on every attempt.
        let always = FaultPlan::seeded(3).with_worker_panic(1.0);
        assert!((0..8).all(|g| (0..4).all(|a| always.worker_panics(g, a))));
    }

    #[test]
    fn env_parsing_clamps_and_defaults() {
        // from_env with nothing set: disabled (the test environment must
        // not leak MITOSIS_FAULT_* into unit tests; CI sets them only for
        // the dedicated resilience leg which runs integration tests).
        if std::env::var(ENV_FAULT_SEED).is_err() && std::env::var(ENV_FAULT_READ_IO).is_err() {
            assert!(!FaultPlan::from_env().is_enabled());
        }
        let plan = FaultPlan::seeded(1).with_read_io(7.5).with_flip(-2.0);
        assert!(plan.is_enabled());
        assert!(plan.read_fault(0).is_some(), "clamped to probability 1");
        assert_eq!(plan.flip_mask(0), 0, "clamped to probability 0");
    }
}
