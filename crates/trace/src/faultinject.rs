//! Deterministic fault injection for resilience testing.
//!
//! A [`FaultPlan`] decides — reproducibly, from a seed — where faults
//! strike: I/O errors and short reads while decoding a trace, bit flips in
//! the bytes read, injected panics and delays in grouped replay's lane-group
//! jobs.  Decisions are pure functions of `(seed, site, index)`, so the
//! same plan injects the same faults regardless of call order, thread
//! timing or how many other sites consulted the plan in between; a failure
//! found under `FaultPlan::seeded(7)` reproduces under `FaultPlan::seeded(7)`.
//!
//! Nothing is injected unless asked: the disabled plan (the default)
//! answers "no fault" from a single branch.
//!
//! Wiring:
//! * [`FaultPlan::reader`] wraps any `Read` in a [`FaultyReader`] that
//!   injects the I/O-level faults; decoding through it (for example
//!   [`Trace::read_from`](crate::Trace::read_from)) surfaces them as
//!   ordinary [`TraceError`](crate::TraceError)s.
//! * [`ReplayRequest::fault_plan`](crate::ReplayRequest::fault_plan) hands
//!   a plan to grouped replay, whose lane-group jobs consult it for worker
//!   panics and delays.  An injected panic is caught by the pool and
//!   becomes the call's [`ReplayError::Panic`](crate::ReplayError::Panic)
//!   naming the group, exactly as a real one would.
//!
//! Every injected fault is counted on the observer (`fault.*` counters),
//! so an observed run shows exactly which faults fired.

use mitosis_sim::Observer;
use std::io::{self, Read};
use std::time::Duration;

// Decision domains: every fault site hashes with its own constant so the
// per-site decision streams are independent.
const SITE_READ_IO: u64 = 1;
const SITE_TRUNCATE: u64 = 2;
const SITE_FLIP: u64 = 3;
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

    /// Arms injected panics in lane-group jobs with the given per-group
    /// probability.  The decision is keyed on the group alone, so a plan
    /// panics the same groups on every replay.
    pub fn with_worker_panic(mut self, probability: f64) -> Self {
        self.worker_panic = probability.clamp(0.0, 1.0);
        self
    }

    /// Arms injected delays in lane-group jobs with the given per-group
    /// probability.
    pub fn with_worker_slow(mut self, probability: f64, delay: Duration) -> Self {
        self.worker_slow = probability.clamp(0.0, 1.0);
        // Saturates: a delay past `u64::MAX` milliseconds never ends either way.
        self.slow_ms = u64::try_from(delay.as_millis()).unwrap_or(u64::MAX);
        self
    }

    /// Whether any fault class is armed.
    pub fn is_enabled(&self) -> bool {
        self.read_io > 0.0
            || self.flip > 0.0
            || self.truncate > 0.0
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
            #[expect(clippy::cast_possible_truncation, reason = "a bit index in [0, 8)")]
            let bit = (self.chance(SITE_FLIP, index.wrapping_add(1) << 32) * 8.0) as u32 & 7;
            1 << bit
        } else {
            0
        }
    }

    /// Whether the job of lane group `group` panics.
    pub fn worker_panics(&self, group: usize) -> bool {
        self.worker_panic > 0.0 && self.chance(SITE_WORKER_PANIC, group as u64) < self.worker_panic
    }

    /// The delay injected into the job of lane group `group`, if any.
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
}

/// What a read call was made to do instead of reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadFault {
    /// Fail with an I/O error.
    Io,
    /// Report a spurious end-of-file (reads 0 bytes).
    Truncate,
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
        for i in 0..1000usize {
            assert!(plan.read_fault(i as u64).is_none());
            assert_eq!(plan.flip_mask(i as u64), 0);
            assert!(!plan.worker_panics(i));
            assert!(plan.worker_delay(i).is_none());
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
    fn worker_panic_decisions_vary_by_group() {
        // Keyed on the group: under a mid-range probability some groups
        // panic and some do not, and each decision is the same every time
        // it is asked.
        let plan = FaultPlan::seeded(3).with_worker_panic(0.5);
        let decisions: Vec<bool> = (0..64).map(|group| plan.worker_panics(group)).collect();
        assert!(decisions.iter().any(|&panics| panics));
        assert!(decisions.iter().any(|&panics| !panics));
        let again: Vec<bool> = (0..64).map(|group| plan.worker_panics(group)).collect();
        assert_eq!(decisions, again);
        // Probability 1 panics every group; probability 0 none.
        let always = FaultPlan::seeded(3).with_worker_panic(1.0);
        assert!((0..8).all(|group| always.worker_panics(group)));
        let never = FaultPlan::seeded(3).with_worker_panic(0.0);
        assert!((0..8).all(|group| !never.worker_panics(group)));
    }

    #[test]
    fn probabilities_are_clamped() {
        let plan = FaultPlan::seeded(1).with_read_io(7.5).with_flip(-2.0);
        assert!(plan.is_enabled());
        assert!(plan.read_fault(0).is_some(), "clamped to probability 1");
        assert_eq!(plan.flip_mask(0), 0, "clamped to probability 0");
    }
}
