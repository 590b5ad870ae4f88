//! Translation lookaside buffers.

use mitosis_mem::FrameId;
use mitosis_pt::{PageSize, VirtAddr};

/// Which level of the TLB hierarchy served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLevel {
    /// First-level (per page-size) TLB.
    L1,
    /// Second-level (unified) TLB.
    L2,
}

/// A set-associative TLB with LRU replacement.
///
/// Entries are tagged by address-space identifier and virtual page number
/// and store the translation's first frame plus its writability; the page
/// size is a property of the TLB instance (the split L1 design) or recorded
/// per entry (unified L2).
///
/// Storage is struct-of-arrays with the ways of each set inline
/// (set-major): a probe scans a contiguous run of `u64` tags — one or two
/// cache lines — and touches the frame/recency payload only on a hit.  The
/// tag folds the ASID, virtual page number and page size together
/// (`asid << 48 | vpn << 2 | size code`, codes 1-3) with tag 0 meaning
/// "invalid", so a probe is a single word comparison per way.  ASID 0 —
/// the only ASID in single-process runs — leaves the tag identical to the
/// untagged layout.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// `sets * ways` tags; set `s` occupies `[s * ways, (s + 1) * ways)`.
    tags: Box<[u64]>,
    /// Frame payload, same layout as `tags`.
    frames: Box<[FrameId]>,
    /// Writability payload, same layout as `tags`.  A write probe hitting a
    /// read-only entry is a miss: the walker re-walks and faults, which is
    /// how copy-on-write resolution is reached.
    writable: Box<[bool]>,
    /// LRU recency payload, same layout as `tags`.
    last_used: Box<[u64]>,
    sets: usize,
    ways: usize,
    /// `sets - 1` when the set count is a power of two (every real TLB
    /// geometry), letting the set index be a mask instead of a division.
    set_mask: Option<u64>,
    /// Monotonic counter used for LRU ordering.
    tick: u64,
    hits: u64,
    misses: u64,
    /// Resident entries per size code (index = code - 1).  A probe for a
    /// size with zero resident entries cannot hit, so the hierarchy skips
    /// it — the common pure-4K access then pays two probes, not six.
    per_size: [usize; 3],
}

/// Tag 0 marks an invalid way (real tags carry a non-zero size code).
const INVALID_TAG: u64 = 0;

/// Bit position of the ASID in a tag.  A 48-bit virtual address has at most
/// a 36-bit 4 KiB VPN, which shifted by the size code occupies bits 2-38,
/// leaving the top 16 bits free for the ASID.
const ASID_SHIFT: u32 = 48;

#[inline]
fn size_code(size: PageSize) -> u64 {
    match size {
        PageSize::Base4K => 1,
        PageSize::Huge2M => 2,
        PageSize::Giant1G => 3,
    }
}

#[inline]
fn tag_of(asid: u16, vpn: u64, size: PageSize) -> u64 {
    (vpn << 2) | size_code(size) | ((asid as u64) << ASID_SHIFT)
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `ways` ways per set.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways` or either is zero.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0, "TLB dimensions must be positive");
        assert!(
            entries.is_multiple_of(ways),
            "entries must be a multiple of ways"
        );
        let sets = entries / ways;
        Tlb {
            tags: vec![INVALID_TAG; entries].into_boxed_slice(),
            frames: vec![FrameId::new(0); entries].into_boxed_slice(),
            writable: vec![false; entries].into_boxed_slice(),
            last_used: vec![0; entries].into_boxed_slice(),
            sets,
            ways,
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            tick: 0,
            hits: 0,
            misses: 0,
            per_size: [0; 3],
        }
    }

    /// Returns `true` if any entry of `size` is resident.
    #[inline]
    pub fn holds(&self, size: PageSize) -> bool {
        self.per_size[size_code(size) as usize - 1] > 0
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    #[inline]
    fn set_start(&self, vpn: u64) -> usize {
        let set = match self.set_mask {
            Some(mask) => (vpn & mask) as usize,
            None => (vpn % self.sets as u64) as usize,
        };
        set * self.ways
    }

    /// Looks up the translation of `addr` at page size `size` in address
    /// space `asid`.  A write probe (`is_write`) hitting a read-only entry
    /// misses, forcing a re-walk (and, for copy-on-write pages, a fault).
    ///
    /// On a hit, returns the frame and whether the entry is writable.
    #[inline]
    pub fn lookup(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        is_write: bool,
    ) -> Option<(FrameId, bool)> {
        self.tick += 1;
        let vpn = addr.page_number(size);
        let tag = tag_of(asid, vpn, size);
        let start = self.set_start(vpn);
        let set_tags = &self.tags[start..start + self.ways];
        if let Some(way) = set_tags.iter().position(|&t| t == tag) {
            let writable = self.writable[start + way];
            if !is_write || writable {
                self.last_used[start + way] = self.tick;
                self.hits += 1;
                return Some((self.frames[start + way], writable));
            }
        }
        self.misses += 1;
        None
    }

    /// Inserts a translation, evicting the LRU entry of the set if full.
    pub fn insert(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        frame: FrameId,
        writable: bool,
    ) {
        self.tick += 1;
        let vpn = addr.page_number(size);
        let tag = tag_of(asid, vpn, size);
        let start = self.set_start(vpn);
        // Refresh an existing entry, else fill the first invalid way, else
        // evict the least recently used way — one pass over the set (ticks
        // are unique, so the victim is the same one a full tick-scan picks;
        // an existing tag is unique in its set, so breaking early is safe).
        let mut matched = None;
        let mut first_invalid = None;
        let mut lru = 0;
        let mut lru_tick = u64::MAX;
        for (i, &t) in self.tags[start..start + self.ways].iter().enumerate() {
            if t == tag {
                matched = Some(i);
                break;
            }
            if t == INVALID_TAG {
                if first_invalid.is_none() {
                    first_invalid = Some(i);
                }
            } else if self.last_used[start + i] < lru_tick {
                lru_tick = self.last_used[start + i];
                lru = i;
            }
        }
        let way = start + matched.or(first_invalid).unwrap_or(lru);
        let old = self.tags[way];
        if old != INVALID_TAG {
            self.per_size[(old & 3) as usize - 1] -= 1;
        }
        self.per_size[(tag & 3) as usize - 1] += 1;
        self.tags[way] = tag;
        self.frames[way] = frame;
        self.writable[way] = writable;
        self.last_used[way] = self.tick;
    }

    /// Invalidates every entry (a full TLB flush, e.g. on CR3 write).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.last_used.fill(0);
        self.per_size = [0; 3];
    }

    /// Invalidates the entry covering `addr` at `size` in address space
    /// `asid`, if present (`invlpg`).
    pub fn flush_page(&mut self, asid: u16, addr: VirtAddr, size: PageSize) {
        let vpn = addr.page_number(size);
        let tag = tag_of(asid, vpn, size);
        let start = self.set_start(vpn);
        for way in start..start + self.ways {
            if self.tags[way] == tag {
                self.tags[way] = INVALID_TAG;
                self.last_used[way] = 0;
                self.per_size[(tag & 3) as usize - 1] -= 1;
            }
        }
    }

    /// Invalidates every entry of `size` in address space `asid` whose
    /// virtual page number falls in `[vpn_start, vpn_start + pages)`
    /// (a ranged shootdown).  Returns the number of entries invalidated.
    ///
    /// An entry for page `v` can only sit in set `v mod sets`, so only the
    /// sets of the range's first `min(pages, sets)` pages are examined: a
    /// one-page range checks one set, and a range of at least `sets` pages
    /// visits every set exactly once.
    pub fn invalidate_range(
        &mut self,
        asid: u16,
        vpn_start: u64,
        pages: u64,
        size: PageSize,
    ) -> usize {
        let code = size_code(size);
        if self.per_size[code as usize - 1] == 0 {
            return 0;
        }
        let asid_bits = (asid as u64) << ASID_SHIFT;
        let vpn_end = vpn_start.saturating_add(pages);
        let sets = (vpn_end - vpn_start).min(self.sets as u64) as usize;
        let first_set = self.set_start(vpn_start) / self.ways;
        let mut removed = 0;
        for i in 0..sets {
            let start = (first_set + i) % self.sets * self.ways;
            for way in start..start + self.ways {
                let tag = self.tags[way];
                if tag == INVALID_TAG
                    || (tag & 3) != code
                    || (tag >> ASID_SHIFT) << ASID_SHIFT != asid_bits
                {
                    continue;
                }
                let vpn = (tag >> 2) & ((1u64 << (ASID_SHIFT - 2)) - 1);
                if vpn >= vpn_start && vpn < vpn_end {
                    self.tags[way] = INVALID_TAG;
                    self.last_used[way] = 0;
                    self.per_size[code as usize - 1] -= 1;
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Number of lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

/// The per-core two-level TLB hierarchy of the paper's testbed: split 64-entry
/// L1 TLBs (4 KiB and 2 MiB) backed by a 1024-entry unified L2 (STLB).
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    l1_4k: Tlb,
    l1_2m: Tlb,
    l2: Tlb,
    /// Cycles charged when a lookup is served by the L2 TLB.
    l2_hit_penalty: u64,
}

impl TlbHierarchy {
    /// Creates the hierarchy with the paper's sizes (64 + 32 + 1024 entries).
    pub fn paper_testbed() -> Self {
        TlbHierarchy::new(64, 32, 1024)
    }

    /// Creates a hierarchy with explicit entry counts.
    pub fn new(l1_4k_entries: usize, l1_2m_entries: usize, l2_entries: usize) -> Self {
        TlbHierarchy {
            l1_4k: Tlb::new(l1_4k_entries, 4),
            l1_2m: Tlb::new(l1_2m_entries, 4),
            l2: Tlb::new(l2_entries, 8),
            l2_hit_penalty: 7,
        }
    }

    /// Looks up `addr`; returns the serving level, frame and extra cycles.
    ///
    /// Levels holding no entry of `size` are skipped without probing (a
    /// probe of an empty size class can never hit, so residency and
    /// promotion behaviour are unchanged).
    pub fn lookup(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        is_write: bool,
    ) -> Option<(TlbLevel, FrameId, u64)> {
        let l1 = match size {
            PageSize::Base4K => &mut self.l1_4k,
            PageSize::Huge2M | PageSize::Giant1G => &mut self.l1_2m,
        };
        if l1.holds(size) {
            if let Some((frame, _)) = l1.lookup(asid, addr, size, is_write) {
                return Some((TlbLevel::L1, frame, 0));
            }
        }
        if self.l2.holds(size) {
            if let Some((frame, writable)) = self.l2.lookup(asid, addr, size, is_write) {
                // Promote into L1.
                let l1 = match size {
                    PageSize::Base4K => &mut self.l1_4k,
                    PageSize::Huge2M | PageSize::Giant1G => &mut self.l1_2m,
                };
                l1.insert(asid, addr, size, frame, writable);
                return Some((TlbLevel::L2, frame, self.l2_hit_penalty));
            }
        }
        None
    }

    /// Installs a translation into both levels (as a walk completion does).
    pub fn insert(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        frame: FrameId,
        writable: bool,
    ) {
        match size {
            PageSize::Base4K => self.l1_4k.insert(asid, addr, size, frame, writable),
            PageSize::Huge2M | PageSize::Giant1G => {
                self.l1_2m.insert(asid, addr, size, frame, writable)
            }
        }
        self.l2.insert(asid, addr, size, frame, writable);
    }

    /// Flushes every entry (CR3 write without PCID, or shootdown broadcast).
    pub fn flush(&mut self) {
        self.l1_4k.flush();
        self.l1_2m.flush();
        self.l2.flush();
    }

    /// Flushes one page from every level.
    pub fn flush_page(&mut self, asid: u16, addr: VirtAddr, size: PageSize) {
        self.l1_4k.flush_page(asid, addr, size);
        self.l1_2m.flush_page(asid, addr, size);
        self.l2.flush_page(asid, addr, size);
    }

    /// Invalidates `[vpn_start, vpn_start + pages)` of `size` for `asid`
    /// from every level; returns the number of entries removed.
    pub fn invalidate_range(
        &mut self,
        asid: u16,
        vpn_start: u64,
        pages: u64,
        size: PageSize,
    ) -> usize {
        self.l1_4k.invalidate_range(asid, vpn_start, pages, size)
            + self.l1_2m.invalidate_range(asid, vpn_start, pages, size)
            + self.l2.invalidate_range(asid, vpn_start, pages, size)
    }

    /// Number of currently valid entries across all levels.
    pub fn occupancy(&self) -> usize {
        self.l1_4k.occupancy() + self.l1_2m.occupancy() + self.l2.occupancy()
    }

    /// Combined hit count across levels.
    pub fn hits(&self) -> u64 {
        self.l1_4k.hits() + self.l1_2m.hits() + self.l2.hits()
    }

    /// Approximate total reach of the hierarchy in bytes for a page size.
    pub fn reach(&self, size: PageSize) -> u64 {
        let entries = match size {
            PageSize::Base4K => self.l1_4k.capacity() + self.l2.capacity(),
            PageSize::Huge2M | PageSize::Giant1G => self.l1_2m.capacity() + self.l2.capacity(),
        };
        entries as u64 * size.bytes()
    }
}

impl Default for TlbHierarchy {
    fn default() -> Self {
        TlbHierarchy::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn va(page: u64) -> VirtAddr {
        VirtAddr::new(page * 4096)
    }

    /// Read lookup in ASID 0 — the pre-tagging behaviour.
    fn get(tlb: &mut Tlb, addr: VirtAddr, size: PageSize) -> Option<FrameId> {
        tlb.lookup(0, addr, size, false).map(|(frame, _)| frame)
    }

    fn put(tlb: &mut Tlb, addr: VirtAddr, size: PageSize, frame: FrameId) {
        tlb.insert(0, addr, size, frame, true);
    }

    #[test]
    fn hit_after_insert() {
        let mut tlb = Tlb::new(64, 4);
        put(&mut tlb, va(5), PageSize::Base4K, FrameId::new(50));
        assert_eq!(
            get(&mut tlb, va(5), PageSize::Base4K),
            Some(FrameId::new(50))
        );
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 0);
    }

    #[test]
    fn miss_on_empty_and_after_flush() {
        let mut tlb = Tlb::new(64, 4);
        assert_eq!(get(&mut tlb, va(1), PageSize::Base4K), None);
        put(&mut tlb, va(1), PageSize::Base4K, FrameId::new(10));
        tlb.flush();
        assert_eq!(get(&mut tlb, va(1), PageSize::Base4K), None);
        assert_eq!(tlb.misses(), 2);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // Fully associative (1 set, 4 ways): inserting 5 pages evicts the LRU.
        let mut tlb = Tlb::new(4, 4);
        for page in 0..4 {
            put(&mut tlb, va(page), PageSize::Base4K, FrameId::new(page));
        }
        // Touch pages 1..4 so page 0 becomes LRU.
        for page in 1..4 {
            assert!(get(&mut tlb, va(page), PageSize::Base4K).is_some());
        }
        put(&mut tlb, va(100), PageSize::Base4K, FrameId::new(100));
        assert_eq!(get(&mut tlb, va(0), PageSize::Base4K), None);
        assert!(get(&mut tlb, va(100), PageSize::Base4K).is_some());
        assert_eq!(tlb.occupancy(), 4);
    }

    #[test]
    fn flush_page_removes_only_that_page() {
        let mut tlb = Tlb::new(64, 4);
        put(&mut tlb, va(1), PageSize::Base4K, FrameId::new(1));
        put(&mut tlb, va(2), PageSize::Base4K, FrameId::new(2));
        tlb.flush_page(0, va(1), PageSize::Base4K);
        assert_eq!(get(&mut tlb, va(1), PageSize::Base4K), None);
        assert!(get(&mut tlb, va(2), PageSize::Base4K).is_some());
    }

    #[test]
    fn hierarchy_promotes_from_l2_to_l1() {
        let mut h = TlbHierarchy::new(8, 8, 64);
        h.insert(0, va(3), PageSize::Base4K, FrameId::new(30), true);
        // Evict from tiny L1 by filling it with other pages mapping to all sets.
        for page in 100..116 {
            h.l1_4k
                .insert(0, va(page), PageSize::Base4K, FrameId::new(page), true);
        }
        let (level, frame, penalty) = h.lookup(0, va(3), PageSize::Base4K, false).unwrap();
        assert_eq!(level, TlbLevel::L2);
        assert_eq!(frame, FrameId::new(30));
        assert!(penalty > 0);
        // Second lookup now hits L1.
        let (level, _, penalty) = h.lookup(0, va(3), PageSize::Base4K, false).unwrap();
        assert_eq!(level, TlbLevel::L1);
        assert_eq!(penalty, 0);
    }

    #[test]
    fn huge_pages_use_the_2m_l1() {
        let mut h = TlbHierarchy::paper_testbed();
        let addr = VirtAddr::new(0x4000_0000);
        h.insert(0, addr, PageSize::Huge2M, FrameId::new(512), true);
        assert!(h.lookup(0, addr, PageSize::Huge2M, false).is_some());
        assert_eq!(h.lookup(0, addr, PageSize::Base4K, false), None);
    }

    #[test]
    fn reach_scales_with_page_size() {
        let h = TlbHierarchy::paper_testbed();
        assert!(h.reach(PageSize::Huge2M) > 100 * h.reach(PageSize::Base4K));
        assert_eq!(h.reach(PageSize::Base4K), (64 + 1024) * 4096);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn invalid_geometry_panics() {
        let _ = Tlb::new(10, 4);
    }

    #[test]
    fn per_size_residency_tracks_inserts_evictions_and_flushes() {
        let mut tlb = Tlb::new(4, 4);
        assert!(!tlb.holds(PageSize::Base4K));
        put(&mut tlb, va(1), PageSize::Base4K, FrameId::new(1));
        put(
            &mut tlb,
            VirtAddr::new(0x4000_0000),
            PageSize::Huge2M,
            FrameId::new(2),
        );
        assert!(tlb.holds(PageSize::Base4K));
        assert!(tlb.holds(PageSize::Huge2M));
        assert!(!tlb.holds(PageSize::Giant1G));
        // Evicting the 4 KiB entry by filling the set with huge entries.
        for i in 1..4u64 {
            put(
                &mut tlb,
                VirtAddr::new(0x4000_0000 + (i << 21)),
                PageSize::Huge2M,
                FrameId::new(2 + i),
            );
        }
        put(
            &mut tlb,
            VirtAddr::new(0x4000_0000 + (4u64 << 21)),
            PageSize::Huge2M,
            FrameId::new(9),
        );
        assert!(!tlb.holds(PageSize::Base4K), "4 KiB entry was evicted");
        tlb.flush_page(
            0,
            VirtAddr::new(0x4000_0000 + (4u64 << 21)),
            PageSize::Huge2M,
        );
        assert_eq!(tlb.occupancy(), 3);
        tlb.flush();
        assert!(!tlb.holds(PageSize::Huge2M));
    }

    #[test]
    fn empty_size_classes_are_skipped_without_changing_outcomes() {
        let mut h = TlbHierarchy::paper_testbed();
        // Pure 4 KiB content: 2 MiB/1 GiB lookups return None without
        // probing (observable only through the result, which must match).
        h.insert(0, va(3), PageSize::Base4K, FrameId::new(30), true);
        assert!(h.lookup(0, va(3), PageSize::Huge2M, false).is_none());
        assert!(h.lookup(0, va(3), PageSize::Giant1G, false).is_none());
        assert!(h.lookup(0, va(3), PageSize::Base4K, false).is_some());
    }

    #[test]
    fn asids_isolate_identical_virtual_pages() {
        let mut tlb = Tlb::new(64, 4);
        tlb.insert(1, va(5), PageSize::Base4K, FrameId::new(10), true);
        tlb.insert(2, va(5), PageSize::Base4K, FrameId::new(20), true);
        assert_eq!(
            tlb.lookup(1, va(5), PageSize::Base4K, false),
            Some((FrameId::new(10), true))
        );
        assert_eq!(
            tlb.lookup(2, va(5), PageSize::Base4K, false),
            Some((FrameId::new(20), true))
        );
        assert_eq!(tlb.lookup(3, va(5), PageSize::Base4K, false), None);
        // Flushing one ASID's page leaves the other's intact.
        tlb.flush_page(1, va(5), PageSize::Base4K);
        assert_eq!(tlb.lookup(1, va(5), PageSize::Base4K, false), None);
        assert!(tlb.lookup(2, va(5), PageSize::Base4K, false).is_some());
    }

    #[test]
    fn write_probe_misses_on_a_read_only_entry() {
        let mut tlb = Tlb::new(64, 4);
        tlb.insert(0, va(7), PageSize::Base4K, FrameId::new(70), false);
        // Reads still hit and report the entry as read-only.
        assert_eq!(
            tlb.lookup(0, va(7), PageSize::Base4K, false),
            Some((FrameId::new(70), false))
        );
        // A write probe misses (forcing a walk, and a fault for CoW pages).
        assert_eq!(tlb.lookup(0, va(7), PageSize::Base4K, true), None);
        assert_eq!(tlb.misses(), 1);
        // Re-inserting after CoW resolution upgrades the entry in place.
        tlb.insert(0, va(7), PageSize::Base4K, FrameId::new(71), true);
        assert_eq!(
            tlb.lookup(0, va(7), PageSize::Base4K, true),
            Some((FrameId::new(71), true))
        );
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn ranged_invalidation_removes_only_matching_entries() {
        let mut tlb = Tlb::new(64, 4);
        for page in 0..10 {
            tlb.insert(1, va(page), PageSize::Base4K, FrameId::new(page), true);
        }
        tlb.insert(2, va(4), PageSize::Base4K, FrameId::new(99), true);
        tlb.insert(
            1,
            VirtAddr::new(0x4000_0000),
            PageSize::Huge2M,
            FrameId::new(512),
            true,
        );
        // Invalidate pages 3..7 of ASID 1 at 4 KiB.
        assert_eq!(tlb.invalidate_range(1, 3, 4, PageSize::Base4K), 4);
        for page in 0..10 {
            let resident = tlb.lookup(1, va(page), PageSize::Base4K, false).is_some();
            assert_eq!(resident, !(3..7).contains(&page), "page {page}");
        }
        // The other ASID and the huge entry survive.
        assert!(tlb.lookup(2, va(4), PageSize::Base4K, false).is_some());
        assert!(tlb
            .lookup(1, VirtAddr::new(0x4000_0000), PageSize::Huge2M, false)
            .is_some());
        // Empty size classes short-circuit.
        assert_eq!(tlb.invalidate_range(1, 0, 1000, PageSize::Giant1G), 0);
    }

    #[test]
    fn hierarchy_ranged_invalidation_counts_all_levels() {
        let mut h = TlbHierarchy::paper_testbed();
        h.insert(0, va(3), PageSize::Base4K, FrameId::new(30), true);
        // Resident in L1 and L2 → two entries removed.
        assert_eq!(h.invalidate_range(0, 3, 1, PageSize::Base4K), 2);
        assert_eq!(h.occupancy(), 0);
        assert!(h.lookup(0, va(3), PageSize::Base4K, false).is_none());
    }
}
