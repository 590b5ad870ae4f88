//! Deterministic fault injection for grouped replay's panic isolation.
//!
//! A [`FaultPlan`] decides — reproducibly, from a seed — which lane-group
//! jobs of a grouped replay panic or stall.  Decisions are pure functions
//! of `(seed, site, group)`, so the same plan injects the same faults
//! regardless of call order, thread timing or how many other sites
//! consulted the plan in between; a failure found under
//! `FaultPlan::seeded(7)` reproduces under `FaultPlan::seeded(7)`.
//!
//! Nothing is injected unless asked: the disabled plan (the default)
//! answers "no fault" from a single branch.
//!
//! [`ReplayRequest::fault_plan`](crate::ReplayRequest::fault_plan) hands a
//! plan to grouped replay, whose lane-group jobs consult it.  An injected
//! panic is caught by the pool and becomes the call's
//! [`ReplayError::Panic`](crate::ReplayError::Panic) naming the group,
//! exactly as a real one would.  Every injected fault is counted on the
//! observer (`fault.worker_panic`, `fault.worker_slow`).
//!
//! Damaged trace bytes need no plan: tests corrupt, truncate or fail the
//! bytes themselves, and decoding reports each as a typed
//! [`TraceError`](crate::TraceError).

use std::time::Duration;

// Decision domains: every fault site hashes with its own constant so the
// per-site decision streams are independent.
const SITE_WORKER_PANIC: u64 = 5;
const SITE_WORKER_SLOW: u64 = 6;

/// A seeded, deterministic fault-injection plan.
///
/// Copyable value type: requests embed it by value.  All probabilities are
/// clamped to `[0, 1]`; a plan with every probability at zero is
/// *disabled* and injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
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

    /// Whether the job of lane group `group` panics.
    pub fn worker_panics(&self, group: usize) -> bool {
        self.worker_panic > 0.0 && self.chance(SITE_WORKER_PANIC, group as u64) < self.worker_panic
    }

    /// The delay injected into the job of lane group `group`, if any.
    pub fn worker_delay(&self, group: usize) -> Option<Duration> {
        (self.worker_slow > 0.0 && self.chance(SITE_WORKER_SLOW, group as u64) < self.worker_slow)
            .then(|| Duration::from_millis(self.slow_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_injects_nothing() {
        let plan = FaultPlan::disabled();
        for group in 0..1000usize {
            assert!(!plan.worker_panics(group));
            assert!(plan.worker_delay(group).is_none());
        }
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
        // A different seed gives a different stream.
        let other = FaultPlan::seeded(4).with_worker_panic(0.5);
        let shifted: Vec<bool> = (0..64).map(|group| other.worker_panics(group)).collect();
        assert_ne!(decisions, shifted);
        // Probability 1 panics every group; probability 0 none.
        let always = FaultPlan::seeded(3).with_worker_panic(1.0);
        assert!((0..8).all(|group| always.worker_panics(group)));
        let never = FaultPlan::seeded(3).with_worker_panic(0.0);
        assert!((0..8).all(|group| !never.worker_panics(group)));
    }

    #[test]
    fn probabilities_are_clamped() {
        let plan = FaultPlan::seeded(1)
            .with_worker_panic(7.5)
            .with_worker_slow(-2.0, Duration::from_millis(1));
        assert!(plan.worker_panics(0), "clamped to probability 1");
        assert!(plan.worker_delay(0).is_none(), "clamped to probability 0");
    }
}
