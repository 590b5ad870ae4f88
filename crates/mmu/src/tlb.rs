//! Translation lookaside buffers.

use crate::plan::{range_key, PlanView};
use mitosis_mem::FrameId;
use mitosis_numa::Cycles;
use mitosis_pt::{PageSize, VirtAddr};

/// Which level of the TLB hierarchy served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLevel {
    /// First-level (per page-size) TLB.
    L1,
    /// Second-level (unified) TLB.
    L2,
}

/// A translation the TLBs served, as [`TlbHierarchy::probe`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbHit {
    /// The TLB level that served the access.
    pub level: TlbLevel,
    /// The 4 KiB frame backing the accessed address.
    pub frame: FrameId,
    /// Page size of the cached mapping.
    pub size: PageSize,
    /// Cycles the hit costs (zero for an L1 hit).
    pub penalty: Cycles,
}

/// Lanes per set: the most ways a [`Tlb`] may have.  Every set has all of
/// them, so every per-set loop has a bound fixed at compile time; the lanes
/// past a TLB's way count hold [`INVALID_TAG`] and never fill.
const LANES: usize = 8;

/// One set's eight lanes of tags or payloads: one 64-byte host cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Lanes([u64; LANES]);

/// A set-associative TLB with exact LRU replacement.
///
/// Entries are tagged by address-space identifier and virtual page number
/// and store the translation's first frame plus its writability; the page
/// size is a property of the TLB instance (the split L1 design) or recorded
/// per entry (unified L2).
///
/// Each set is three fixed-size parts, so a set touches at most three host
/// cache lines and every loop over it has a compile-time bound:
///
/// * eight tag lanes on one line.  The tag folds the ASID, virtual page
///   number and page size together (`asid << 48 | vpn << 2 | size code`,
///   codes 1-3) with tag 0 meaning "invalid", so a probe compares every
///   lane with one word.  ASID 0 — the only ASID in single-process runs —
///   leaves the tag identical to the untagged layout;
/// * eight payload lanes on another, each the frame number shifted left
///   once with the writable bit below it;
/// * one metadata word: byte `w` holds way `w`'s valid bit (bit 7) and its
///   recency rank (bits 0-2, 0 = most recently used).  The ranks are a
///   permutation of `0..8` with the valid ways first, in recency order, so
///   a hit re-ranks its way with one word-wide compare and add, and the
///   LRU victim of a full set is the way of rank `ways - 1`.  Lanes past
///   the way count keep their own index as rank and are never re-ranked.
///
/// Replacement is exactly the per-way-tick LRU it replaces: ticks were
/// unique, so ordering ways by rank orders them by tick.
#[derive(Debug, Clone)]
pub struct Tlb {
    tags: Box<[Lanes]>,
    /// Frame number `<< 1 | writable`, per lane.  A write probe hitting a
    /// read-only entry is a miss: the walker re-walks and faults, which is
    /// how copy-on-write resolution is reached.
    payloads: Box<[Lanes]>,
    /// Valid bits and recency ranks, one word per set.
    meta: Box<[u64]>,
    sets: usize,
    ways: usize,
    /// `sets - 1` when the set count is a power of two (every real TLB
    /// geometry), letting the set index be a mask instead of a division.
    set_mask: Option<u64>,
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
pub(crate) const ASID_SHIFT: u32 = 48;

/// The writable bit of a payload.
const WRITABLE: u64 = 1;

/// One in every byte of a metadata word.
const BYTE_ONES: u64 = 0x0101_0101_0101_0101;
/// The valid bit of every byte of a metadata word.
const VALID_BITS: u64 = 0x8080_8080_8080_8080;
/// The rank bits of every byte of a metadata word.
const RANK_BITS: u64 = 0x0707_0707_0707_0707;
/// The metadata of an empty set: no way valid, lane `w` ranked `w`.
const EMPTY_META: u64 = 0x0706_0504_0302_0100;

#[inline]
pub(crate) fn size_code(size: PageSize) -> u64 {
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

/// The lane of `lanes` holding `tag`, comparing every lane: a tag sits in
/// at most one lane of its set.
#[inline(always)]
fn lane_of(lanes: &Lanes, tag: u64) -> Option<usize> {
    let mut matches = 0u32;
    for (lane, &held) in lanes.0.iter().enumerate() {
        matches |= u32::from(held == tag) << lane;
    }
    (matches != 0).then(|| matches.trailing_zeros() as usize)
}

/// The valid-bit positions of the bytes of `meta` whose rank lies in
/// `lo..hi` (`hi <= 8`).  Per byte, `0x80 | rank` less a constant of at
/// most 8 borrows nothing from the next byte and keeps bit 7 exactly when
/// the rank is at least that constant.
#[inline(always)]
fn ranked(meta: u64, lo: u64, hi: u64) -> u64 {
    let ranks = (meta & RANK_BITS) | VALID_BITS;
    (ranks - lo * BYTE_ONES) & !(ranks - hi * BYTE_ONES) & VALID_BITS
}

/// The valid bit of way `way`.
#[inline(always)]
fn valid_bit(way: usize) -> u64 {
    0x80 << (8 * way)
}

/// The rank of way `way`.
#[inline(always)]
fn rank_of(meta: u64, way: usize) -> u64 {
    (meta >> (8 * way)) & 7
}

/// Ranks `way` first: every way ranked ahead of it moves back one.
#[inline(always)]
fn promote(meta: u64, way: usize) -> u64 {
    let ahead = ranked(meta, 0, rank_of(meta, way));
    (meta + (ahead >> 7)) & !(7 << (8 * way))
}

/// Ranks `way` last of the `ways` ways: every way ranked behind it moves
/// forward one.
#[inline]
fn demote(meta: u64, way: usize, ways: usize) -> u64 {
    let behind = ranked(meta, rank_of(meta, way) + 1, ways as u64);
    (meta - (behind >> 7)) & !(7 << (8 * way)) | ((ways as u64 - 1) << (8 * way))
}

impl Tlb {
    /// Creates a TLB with `entries` total entries and `ways` ways per set.
    ///
    /// # Panics
    ///
    /// Panics if either is zero, if `ways` is more than 8, or if `entries`
    /// is not a multiple of `ways`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0, "TLB dimensions must be positive");
        assert!(ways <= LANES, "a TLB set has at most 8 ways");
        assert!(
            entries.is_multiple_of(ways),
            "entries must be a multiple of ways"
        );
        let sets = entries / ways;
        Tlb {
            tags: vec![Lanes([INVALID_TAG; LANES]); sets].into_boxed_slice(),
            payloads: vec![Lanes([0; LANES]); sets].into_boxed_slice(),
            meta: vec![EMPTY_META; sets].into_boxed_slice(),
            sets,
            ways,
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            per_size: [0; 3],
        }
    }

    /// Returns `true` if any entry of `size` is resident.
    #[inline]
    pub fn holds(&self, size: PageSize) -> bool {
        self.per_size[size_code(size) as usize - 1] > 0
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        match self.set_mask {
            Some(mask) => (vpn & mask) as usize,
            None => (vpn % self.sets as u64) as usize,
        }
    }

    /// Looks up the translation of `addr` at page size `size` in address
    /// space `asid`.  A write probe (`is_write`) hitting a read-only entry
    /// misses, forcing a re-walk (and, for copy-on-write pages, a fault).
    ///
    /// On a hit, returns the frame and whether the entry is writable.
    #[inline(always)]
    pub fn lookup(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        is_write: bool,
    ) -> Option<(FrameId, bool)> {
        let vpn = addr.page_number(size);
        let set = self.set_of(vpn);
        if let Some(way) = lane_of(&self.tags[set], tag_of(asid, vpn, size)) {
            let payload = self.payloads[set].0[way];
            let writable = payload & WRITABLE != 0;
            if !is_write || writable {
                let meta = self.meta[set];
                if rank_of(meta, way) != 0 {
                    self.meta[set] = promote(meta, way);
                }
                return Some((FrameId::new(payload >> 1), writable));
            }
        }
        None
    }

    /// Inserts a translation, evicting the LRU entry of the set if full.
    ///
    /// The entry takes the way already holding its tag, else the lowest
    /// invalid way, else the least recently used one.
    #[inline]
    pub fn insert(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        frame: FrameId,
        writable: bool,
    ) {
        debug_assert!(frame.pfn() >> 63 == 0, "frame numbers fit in 63 bits");
        let vpn = addr.page_number(size);
        let tag = tag_of(asid, vpn, size);
        let set = self.set_of(vpn);
        let meta = self.meta[set];
        let way = lane_of(&self.tags[set], tag).unwrap_or_else(|| {
            // The valid bits of lanes `0..ways` that are clear.
            let free = !meta & (VALID_BITS >> (8 * (LANES - self.ways)));
            let way = if free != 0 {
                free
            } else {
                ranked(meta, self.ways as u64 - 1, self.ways as u64)
            };
            way.trailing_zeros() as usize / 8
        });
        let old = self.tags[set].0[way];
        if old != INVALID_TAG {
            self.per_size[(old & 3) as usize - 1] -= 1;
        }
        self.per_size[(tag & 3) as usize - 1] += 1;
        self.tags[set].0[way] = tag;
        self.payloads[set].0[way] = frame.pfn() << 1 | u64::from(writable);
        self.meta[set] = promote(meta | valid_bit(way), way);
    }

    /// Invalidates way `way` of set `set`, which holds a valid entry, and
    /// ranks it last.
    fn invalidate(&mut self, set: usize, way: usize) {
        let tag = std::mem::replace(&mut self.tags[set].0[way], INVALID_TAG);
        self.per_size[(tag & 3) as usize - 1] -= 1;
        self.meta[set] = demote(self.meta[set] & !valid_bit(way), way, self.ways);
    }

    /// Invalidates every entry (a full TLB flush, e.g. on CR3 write).
    pub fn flush(&mut self) {
        self.tags.fill(Lanes([INVALID_TAG; LANES]));
        self.meta.fill(EMPTY_META);
        self.per_size = [0; 3];
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
        let first_set = self.set_of(vpn_start);
        let mut removed = 0;
        for i in 0..sets {
            let set = (first_set + i) % self.sets;
            for way in 0..LANES {
                let tag = self.tags[set].0[way];
                if tag == INVALID_TAG
                    || (tag & 3) != code
                    || (tag >> ASID_SHIFT) << ASID_SHIFT != asid_bits
                {
                    continue;
                }
                let vpn = (tag >> 2) & ((1u64 << (ASID_SHIFT - 2)) - 1);
                if vpn >= vpn_start && vpn < vpn_end {
                    self.invalidate(set, way);
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Invalidates every entry a range of `plan` names: the entries, and
    /// the count, of one [`Tlb::invalidate_range`] per range.  A plan of
    /// at most one range per set goes range by range; a larger one visits
    /// each set once and looks each valid entry up in the plan's coalesced
    /// ranges, so it costs sets × ways binary searches instead of ranges ×
    /// sets.
    pub(crate) fn invalidate_plan(&mut self, plan: &PlanView<'_>) -> usize {
        let ranges = plan.ranges();
        if ranges.len() <= self.sets {
            return ranges
                .iter()
                .map(|range| {
                    self.invalidate_range(range.asid, range.vpn_start, range.pages, range.size)
                })
                .sum();
        }
        let mut removed = 0;
        for set in 0..self.sets {
            for way in 0..self.ways {
                let tag = self.tags[set].0[way];
                if tag == INVALID_TAG {
                    continue;
                }
                let vpn = (tag >> 2) & ((1u64 << (ASID_SHIFT - 2)) - 1);
                if plan.contains(range_key((tag >> ASID_SHIFT) as u16, tag & 3, vpn)) {
                    self.invalidate(set, way);
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.meta
            .iter()
            .map(|&meta| (meta & VALID_BITS).count_ones() as usize)
            .sum()
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

    /// Probes for `addr` at each page size in turn — 4 KiB, 2 MiB, 1 GiB —
    /// as [`lookup`](TlbHierarchy::lookup) does, and returns the first hit
    /// with the 4 KiB frame backing `addr`.
    #[inline]
    pub fn probe(&mut self, asid: u16, addr: VirtAddr, is_write: bool) -> Option<TlbHit> {
        // Spelled out, not looped, so that each size class compiles with
        // its size a constant.
        self.probe_size(asid, addr, PageSize::Base4K, is_write)
            .or_else(|| self.probe_size(asid, addr, PageSize::Huge2M, is_write))
            .or_else(|| self.probe_size(asid, addr, PageSize::Giant1G, is_write))
    }

    #[inline(always)]
    fn probe_size(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        is_write: bool,
    ) -> Option<TlbHit> {
        let (level, frame, penalty) = self.lookup(asid, addr, size, is_write)?;
        let offset_frames = addr.page_offset(size) / PageSize::Base4K.bytes();
        Some(TlbHit {
            level,
            frame: frame.offset(offset_frames),
            size,
            penalty,
        })
    }

    /// Looks up `addr`; returns the serving level, frame and extra cycles.
    ///
    /// Levels holding no entry of `size` are skipped without probing (a
    /// probe of an empty size class can never hit, so residency and
    /// promotion behaviour are unchanged).
    #[inline(always)]
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
    #[inline]
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

    /// Invalidates every entry a range of `plan` names from every level —
    /// the entries, and the count, of one
    /// [`invalidate_range`](TlbHierarchy::invalidate_range) per range —
    /// each level going range by range or set by set as its set count
    /// decides ([`Mmu::apply_view`](crate::Mmu::apply_view)).
    pub fn invalidate_plan(&mut self, plan: &PlanView<'_>) -> usize {
        self.l1_4k.invalidate_plan(plan)
            + self.l1_2m.invalidate_plan(plan)
            + self.l2.invalidate_plan(plan)
    }

    /// Number of currently valid entries across all levels.
    pub fn occupancy(&self) -> usize {
        self.l1_4k.occupancy() + self.l1_2m.occupancy() + self.l2.occupancy()
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
            tlb.lookup(0, va(5), PageSize::Base4K, false),
            Some((FrameId::new(50), true))
        );
    }

    #[test]
    fn miss_on_empty_and_after_flush() {
        let mut tlb = Tlb::new(64, 4);
        assert_eq!(tlb.lookup(0, va(1), PageSize::Base4K, false), None);
        put(&mut tlb, va(1), PageSize::Base4K, FrameId::new(10));
        tlb.flush();
        assert_eq!(tlb.lookup(0, va(1), PageSize::Base4K, false), None);
        assert_eq!(tlb.occupancy(), 0);
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
    #[should_panic(expected = "multiple of ways")]
    fn invalid_geometry_panics() {
        let _ = Tlb::new(10, 4);
    }

    #[test]
    #[should_panic(expected = "at most 8 ways")]
    fn more_than_eight_ways_panics() {
        let _ = Tlb::new(32, 16);
    }

    #[test]
    fn probe_serves_the_frame_inside_a_huge_page() {
        let mut h = TlbHierarchy::paper_testbed();
        let addr = VirtAddr::new(0x4000_0000);
        h.insert(0, addr, PageSize::Huge2M, FrameId::new(512), true);
        let hit = h.probe(0, addr.add(5 * 4096 + 8), false).unwrap();
        assert_eq!(hit.level, TlbLevel::L1);
        assert_eq!(hit.size, PageSize::Huge2M);
        assert_eq!(hit.frame, FrameId::new(517));
        assert_eq!(h.probe(0, VirtAddr::new(0x1000), false), None);
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
        let vpn = VirtAddr::new(0x4000_0000 + (4u64 << 21)).page_number(PageSize::Huge2M);
        assert_eq!(tlb.invalidate_range(0, vpn, 1, PageSize::Huge2M), 1);
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
        // Invalidating one ASID's page leaves the other's intact.
        assert_eq!(tlb.invalidate_range(1, 5, 1, PageSize::Base4K), 1);
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
        // A write probe misses (forcing a walk, and a fault for CoW pages)
        // and leaves the entry resident for reads.
        assert_eq!(tlb.lookup(0, va(7), PageSize::Base4K, true), None);
        assert_eq!(
            tlb.lookup(0, va(7), PageSize::Base4K, false),
            Some((FrameId::new(70), false))
        );
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
        // A one-page range removes that page and nothing else.
        assert_eq!(tlb.invalidate_range(1, 8, 1, PageSize::Base4K), 1);
        assert_eq!(tlb.lookup(1, va(8), PageSize::Base4K, false), None);
        assert!(tlb.lookup(1, va(9), PageSize::Base4K, false).is_some());
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
