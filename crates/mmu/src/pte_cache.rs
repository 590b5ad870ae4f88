//! Last-level-cache model for page-table cache lines.
//!
//! Page-table entries are ordinary cacheable memory: eight 8-byte PTEs share
//! one 64-byte line, and hot lines live in the socket's L3.  The paper relies
//! on this to explain why some 2 MiB-page workloads see no slowdown from
//! remote page tables (GUPS' entire leaf level fits in the L3, §8.2).  This
//! module models the page-table-line footprint in each socket's L3 as an LRU
//! set of lines with a capacity derived from the machine's L3 size.

use crate::lru::LruMap;
use mitosis_mem::FrameId;
use mitosis_numa::{Machine, SocketId};

/// Number of page-table entries per 64-byte cache line.
const PTES_PER_LINE: u64 = 8;

/// Number of cache lines covering one 4 KiB page-table page.
const LINES_PER_TABLE: u64 = 512 / PTES_PER_LINE;

/// Fraction of the L3 a socket realistically devotes to page-table lines in
/// a big-memory workload (the rest is data).  Configurable per cache.
const DEFAULT_L3_PT_FRACTION: f64 = 0.5;

/// One socket's LRU cache of page-table lines.
///
/// Backed by the crate-private `LruMap`, so the hot call —
/// [`PteCache::access`], once per
/// page-table level per TLB miss — is O(1) for hits *and* misses.  The old
/// implementation scanned the whole map for the LRU victim on every miss,
/// which made miss-heavy workloads (GUPS thrashing an L3-sized cache)
/// quadratic-ish in the line capacity.
#[derive(Debug, Clone)]
pub struct PteCache {
    lines: LruMap<()>,
    hits: u64,
    misses: u64,
}

impl PteCache {
    /// Creates a cache holding `capacity_lines` page-table lines.  A cache
    /// of zero lines never hits and keeps nothing.
    pub fn new(capacity_lines: usize) -> Self {
        PteCache {
            lines: LruMap::new(capacity_lines),
            hits: 0,
            misses: 0,
        }
    }

    /// Global line number of entry `index` of page-table page `table`.
    fn line_of(table: FrameId, index: usize) -> u64 {
        table.pfn() * LINES_PER_TABLE + index as u64 / PTES_PER_LINE
    }

    /// Records an access to entry `index` of page-table page `table`;
    /// returns `true` if the line was already cached.
    #[inline]
    pub fn access(&mut self, table: FrameId, index: usize) -> bool {
        let hit = self.lines.touch_or_insert(Self::line_of(table, index), ());
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Invalidates every line belonging to `table` (table freed or migrated).
    pub fn invalidate_table(&mut self, table: FrameId) {
        let pfn = table.pfn();
        self.lines.retain(|line, _| line / LINES_PER_TABLE != pfn);
    }

    /// Drops every resident line (hit/miss counters are preserved).
    ///
    /// Used when a phase-change event rewrites page tables wholesale
    /// (migration, replica add/drop): the freed table pages may be
    /// recycled, so keeping their lines would alias new tables.
    pub fn flush(&mut self) {
        self.lines.clear();
    }

    /// Number of line hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of line misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Current number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.lines.len()
    }

    /// Configured capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.lines.capacity()
    }
}

/// One [`PteCache`] per socket, shared by all cores of that socket.
#[derive(Debug, Clone)]
pub struct PteCacheSet {
    caches: Vec<PteCache>,
}

impl PteCacheSet {
    /// Creates per-socket caches sized from the machine's L3 capacity, using
    /// the default fraction reserved for page-table lines.
    pub fn for_machine(machine: &Machine) -> Self {
        PteCacheSet::with_fraction(machine, DEFAULT_L3_PT_FRACTION)
    }

    /// Creates per-socket caches devoting `fraction` of the L3 to page-table
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `(0, 1]`.
    pub fn with_fraction(machine: &Machine, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "L3 page-table fraction must be within (0, 1]"
        );
        let lines = ((machine.l3_bytes_per_socket() as f64 * fraction) / 64.0) as usize;
        PteCacheSet {
            caches: (0..machine.sockets())
                .map(|_| PteCache::new(lines))
                .collect(),
        }
    }

    /// Creates per-socket caches with an explicit line capacity (tests).
    pub fn with_capacity(sockets: usize, capacity_lines: usize) -> Self {
        PteCacheSet {
            caches: (0..sockets)
                .map(|_| PteCache::new(capacity_lines))
                .collect(),
        }
    }

    /// The cache of one socket.
    pub fn socket(&mut self, socket: SocketId) -> &mut PteCache {
        &mut self.caches[socket.index()]
    }

    /// Read-only access to one socket's cache.
    pub fn socket_ref(&self, socket: SocketId) -> &PteCache {
        &self.caches[socket.index()]
    }

    /// Number of sockets covered.
    pub fn sockets(&self) -> usize {
        self.caches.len()
    }

    /// Invalidates lines of `table` on every socket (e.g. after migration).
    pub fn invalidate_table_everywhere(&mut self, table: FrameId) {
        for cache in &mut self.caches {
            cache.invalidate_table(table);
        }
    }

    /// Flushes every socket's cache (page tables rewritten wholesale).
    pub fn flush_all(&mut self) {
        for cache in &mut self.caches {
            cache.flush();
        }
    }

    /// Resets every socket's cache between runs (engine reset).
    pub fn reset_for_run(&mut self) {
        #[expect(clippy::disallowed_methods, reason = "a run reset, not a shootdown")]
        self.flush_all();
    }

    /// Applies the PTE-cache side of a shootdown plan: evicts the lines of
    /// every freed page-table frame on every socket, or flushes everything
    /// when the plan escalated to a full flush.
    pub fn apply_shootdown(&mut self, plan: &mitosis_pt::ShootdownPlan) {
        if plan.full_flush {
            #[expect(clippy::disallowed_methods, reason = "applying a full-flush plan")]
            self.flush_all();
            return;
        }
        for &table in &plan.tables {
            self.invalidate_table_everywhere(table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_numa::MachineConfig;

    #[test]
    fn first_access_misses_then_hits() {
        let mut cache = PteCache::new(16);
        assert!(!cache.access(FrameId::new(1), 0));
        assert!(cache.access(FrameId::new(1), 0));
        // Entries sharing the 64-byte line hit too.
        assert!(cache.access(FrameId::new(1), 7));
        assert!(!cache.access(FrameId::new(1), 8));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn a_zero_line_cache_misses_every_access() {
        let mut cache = PteCache::new(0);
        for _ in 0..3 {
            assert!(!cache.access(FrameId::new(1), 0));
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
        assert_eq!(cache.occupancy(), 0);
        assert_eq!(cache.capacity_lines(), 0);
        cache.invalidate_table(FrameId::new(1));
        cache.flush();
        assert!(!cache.access(FrameId::new(1), 0));
    }

    #[test]
    fn lru_eviction_when_capacity_exceeded() {
        let mut cache = PteCache::new(2);
        cache.access(FrameId::new(1), 0);
        cache.access(FrameId::new(2), 0);
        cache.access(FrameId::new(1), 0); // refresh 1, making 2 the LRU
        cache.access(FrameId::new(3), 0); // evicts 2
        assert!(cache.access(FrameId::new(1), 0));
        assert!(!cache.access(FrameId::new(2), 0));
        assert_eq!(cache.occupancy(), 2);
    }

    #[test]
    fn invalidate_table_removes_all_its_lines() {
        let mut cache = PteCache::new(16);
        cache.access(FrameId::new(5), 0);
        cache.access(FrameId::new(5), 64);
        cache.access(FrameId::new(6), 0);
        cache.invalidate_table(FrameId::new(5));
        assert!(!cache.access(FrameId::new(5), 0));
        assert!(cache.access(FrameId::new(6), 0));
    }

    #[test]
    fn cache_set_is_sized_from_the_machine_l3() {
        let machine = MachineConfig::paper_testbed().build();
        let set = PteCacheSet::for_machine(&machine);
        assert_eq!(set.sockets(), 4);
        let expected_lines = (35 * 1024 * 1024 / 2) / 64;
        assert_eq!(
            set.socket_ref(SocketId::new(0)).capacity_lines(),
            expected_lines as usize
        );
    }

    #[test]
    fn per_socket_caches_are_independent() {
        let mut set = PteCacheSet::with_capacity(2, 8);
        set.socket(SocketId::new(0)).access(FrameId::new(1), 0);
        assert!(!set.socket(SocketId::new(1)).access(FrameId::new(1), 0));
        assert!(set.socket(SocketId::new(0)).access(FrameId::new(1), 0));
        set.invalidate_table_everywhere(FrameId::new(1));
        assert!(!set.socket(SocketId::new(0)).access(FrameId::new(1), 0));
    }

    #[test]
    #[should_panic(expected = "within (0, 1]")]
    fn invalid_fraction_panics() {
        let machine = MachineConfig::two_socket_small().build();
        let _ = PteCacheSet::with_fraction(&machine, 0.0);
    }
}
