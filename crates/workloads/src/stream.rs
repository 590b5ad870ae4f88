//! Deterministic access streams.

use crate::spec::WorkloadSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One memory access issued by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte offset into the workload's footprint.
    pub offset: u64,
    /// Whether the access is a store.
    pub is_write: bool,
}

/// Anything that can feed a sequence of [`Access`]es to the execution
/// engine.
///
/// Live generation ([`AccessStream`]) and trace replay (the `mitosis-trace`
/// crate) both implement this, which is what lets a captured trace
/// reproduce a live run bit-for-bit: the engine is oblivious to where its
/// accesses come from.
pub trait AccessSource {
    /// Produces the next access.
    fn next_access(&mut self) -> Access;

    /// An upper bound on the offsets this source can still yield: every
    /// later [`Access::offset`] is strictly below it.  `None` — the
    /// default — means unknown.
    ///
    /// The execution engine runs a segment's socket groups on separate
    /// host threads only once it has proven from the page tables that the
    /// bounded range cannot fault; a source without a bound keeps its runs
    /// on one thread.  A source that under-reports its bound makes such a
    /// run fail with a typed error instead of demand-paging.
    fn offset_bound(&self) -> Option<u64> {
        None
    }
}

impl AccessSource for AccessStream {
    fn next_access(&mut self) -> Access {
        AccessStream::next_access(self)
    }

    /// Every pattern draws offsets inside the workload's footprint.
    fn offset_bound(&self) -> Option<u64> {
        Some(self.footprint)
    }
}

/// A deterministic, seedable stream of accesses generated from a
/// [`WorkloadSpec`].
///
/// Two streams created from the same spec and seed produce identical
/// sequences, which keeps experiment comparisons (e.g. Mitosis on vs. off)
/// free of generator noise.
///
/// The engine keeps one stream per simulated thread side by side and, in a
/// split segment, advances them on different host threads; the 128-byte
/// alignment (two cache lines, the unit adjacent-line prefetchers fetch)
/// keeps each stream's generator state off its neighbours' lines.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub struct AccessStream {
    footprint: u64,
    pattern: crate::AccessPattern,
    write_fraction: f64,
    rng: StdRng,
    step: u64,
}

impl AccessStream {
    /// Creates a stream for `spec` with the given seed.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        AccessStream {
            footprint: spec.footprint(),
            pattern: spec.pattern(),
            write_fraction: spec.write_fraction(),
            rng: StdRng::seed_from_u64(seed),
            step: 0,
        }
    }

    /// Produces the next access.
    pub fn next_access(&mut self) -> Access {
        let offset = self
            .pattern
            .next_offset(self.step, self.footprint, &mut self.rng);
        let is_write = self.write_fraction > 0.0 && self.rng.random_bool(self.write_fraction);
        self.step += 1;
        Access { offset, is_write }
    }

    /// Number of accesses generated so far.
    pub fn steps(&self) -> u64 {
        self.step
    }
}

impl Iterator for AccessStream {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        Some(self.next_access())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let spec = suite::gups();
        let a: Vec<Access> = AccessStream::new(&spec, 1).take(256).collect();
        let b: Vec<Access> = AccessStream::new(&spec, 1).take(256).collect();
        let c: Vec<Access> = AccessStream::new(&spec, 2).take(256).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn write_fraction_is_respected() {
        let spec = suite::gups(); // read-modify-write: 50 % writes
        let writes = AccessStream::new(&spec, 3)
            .take(10_000)
            .filter(|a| a.is_write)
            .count();
        assert!((4_000..6_000).contains(&writes), "writes = {writes}");

        let reads_only = suite::pagerank(); // mostly reads
        let writes = AccessStream::new(&reads_only, 3)
            .take(10_000)
            .filter(|a| a.is_write)
            .count();
        assert!(writes < 2_000);
    }

    #[test]
    fn offsets_respect_scaled_footprints() {
        let spec = suite::xsbench().scaled(128);
        let mut stream = AccessStream::new(&spec, 9);
        for _ in 0..10_000 {
            assert!(stream.next_access().offset < spec.footprint());
        }
        assert_eq!(stream.steps(), 10_000);
    }
}
