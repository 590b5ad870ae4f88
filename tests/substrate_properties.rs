//! Property-based tests of the substrate invariants the Mitosis mechanism
//! relies on: frame-allocator soundness, address arithmetic, PTE encoding,
//! TLB coherence after shootdowns and placement-policy behaviour — plus
//! brute-force reference models of the TLBs, the paging-structure caches
//! and the copy-on-write share table, driven with the same operations as
//! the optimised structures.

use mitosis_mem::{
    CowRefCounts, FrameAllocator, FrameId, FrameSpace, MemError, PlacementPolicy, PolicyEngine,
    FRAMES_PER_HUGE_PAGE,
};
use mitosis_mmu::{PagingStructureCache, PlanView, Tlb, TlbHierarchy, TlbHit, TlbLevel};
use mitosis_numa::{NodeMask, SocketId};
use mitosis_pt::{Level, PageSize, Pte, PteFlags, ShootdownPlan, ShootdownRange, VirtAddr};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The allocator never hands out the same frame twice, always respects
    /// the requested socket, and frees return frames for reuse — for 4 KiB
    /// frames and 2 MiB runs alike — while `is_allocated` agrees with a
    /// model of every frame handed out and not yet freed.
    #[test]
    fn frame_allocator_is_sound(ops in prop::collection::vec((0u16..4, 0u8..8), 1..200)) {
        let space = FrameSpace::with_frames_per_socket(4, 2048);
        let mut alloc = FrameAllocator::with_frame_space(space.clone());
        let mut live: Vec<FrameId> = Vec::new();
        let mut huge: Vec<FrameId> = Vec::new();
        let mut model = BTreeSet::new();
        for (socket, op) in ops {
            let socket = SocketId::new(socket);
            match op {
                0 | 1 if !live.is_empty() => {
                    let frame = live.swap_remove(0);
                    prop_assert!(alloc.free(frame).is_ok());
                    prop_assert!(alloc.free(frame).is_err(), "double free must fail");
                    prop_assert!(!alloc.is_allocated(frame));
                    model.remove(&frame);
                }
                2 if !huge.is_empty() => {
                    let first = huge.swap_remove(0);
                    prop_assert!(alloc.free_huge(first).is_ok());
                    prop_assert!(alloc.free_huge(first).is_err(), "double free must fail");
                    for i in 0..FRAMES_PER_HUGE_PAGE {
                        model.remove(&first.offset(i));
                    }
                }
                3 => match alloc.alloc_huge_on(socket) {
                    Ok(first) => {
                        prop_assert!(first.is_huge_aligned());
                        prop_assert_eq!(space.socket_of(first), socket);
                        for i in 0..FRAMES_PER_HUGE_PAGE {
                            prop_assert!(model.insert(first.offset(i)), "frame handed out twice");
                            prop_assert!(alloc.is_allocated(first.offset(i)));
                        }
                        huge.push(first);
                    }
                    Err(err) => prop_assert_eq!(err, MemError::HugeAllocationFailed { socket }),
                },
                _ => {
                    if let Ok(frame) = alloc.alloc_on(socket) {
                        prop_assert_eq!(space.socket_of(frame), socket);
                        prop_assert!(model.insert(frame), "frame handed out twice");
                        prop_assert!(alloc.is_allocated(frame));
                        live.push(frame);
                    }
                }
            }
        }
        prop_assert_eq!(alloc.total_allocated() as usize, model.len());
        for pfn in 0..space.total_frames() + 64 {
            let frame = FrameId::new(pfn);
            prop_assert_eq!(alloc.is_allocated(frame), model.contains(&frame), "{}", frame);
        }
    }

    /// Virtual-address decomposition is consistent with the level coverage
    /// arithmetic: rebuilding an address from its indices reproduces the
    /// page-aligned address.
    #[test]
    fn address_index_decomposition_roundtrips(addr in 0u64..(1 << 47)) {
        let va = VirtAddr::new(addr);
        let rebuilt = (va.index_at(Level::L4) as u64) * Level::L4.entry_coverage()
            + (va.index_at(Level::L3) as u64) * Level::L3.entry_coverage()
            + (va.index_at(Level::L2) as u64) * Level::L2.entry_coverage()
            + (va.index_at(Level::L1) as u64) * Level::L1.entry_coverage()
            + va.page_offset(PageSize::Base4K);
        prop_assert_eq!(rebuilt, addr);
        // Alignment helpers agree with offsets.
        for size in [PageSize::Base4K, PageSize::Huge2M, PageSize::Giant1G] {
            prop_assert_eq!(
                va.align_down(size).as_u64() + va.page_offset(size),
                addr
            );
        }
    }

    /// PTE encode/decode to the architectural 64-bit form is lossless for
    /// every flag combination and frame number.
    #[test]
    fn pte_encoding_roundtrips(
        pfn in 0u64..(1 << 40),
        writable in any::<bool>(),
        user in any::<bool>(),
        accessed in any::<bool>(),
        dirty in any::<bool>(),
        huge in any::<bool>(),
    ) {
        let flags = PteFlags {
            present: true,
            writable,
            user,
            accessed,
            dirty,
            huge,
        };
        let pte = Pte::new(FrameId::new(pfn), flags);
        prop_assert_eq!(Pte::from_bits(pte.to_bits()), pte);
    }

    /// After a one-page shootdown (`invlpg`, a ranged invalidation of one
    /// page), the TLB never returns a stale translation for the page, while
    /// unrelated entries — including the same page under a different ASID
    /// — survive or miss, but never alias.
    #[test]
    fn tlb_flush_page_is_precise(
        pages in prop::collection::vec(0u64..4096, 2..32),
        victim in 0usize..31,
        asid in 1u16..16,
    ) {
        let other_asid = asid ^ 1;
        let mut tlb = Tlb::new(64, 4);
        for page in &pages {
            tlb.insert(asid, VirtAddr::new(page * 4096), PageSize::Base4K, FrameId::new(*page), true);
            // The same VPN in a different address space maps elsewhere.
            tlb.insert(other_asid, VirtAddr::new(page * 4096), PageSize::Base4K, FrameId::new(*page + 10_000), true);
        }
        let victim_page = pages[victim % pages.len()];
        tlb.invalidate_range(asid, victim_page, 1, PageSize::Base4K);
        prop_assert_eq!(tlb.lookup(asid, VirtAddr::new(victim_page * 4096), PageSize::Base4K, false), None);
        // Any other page — in either address space — either hits with the
        // right frame or was evicted; it must never return the wrong frame.
        for page in &pages {
            if let Some((frame, _)) = tlb.lookup(asid, VirtAddr::new(page * 4096), PageSize::Base4K, false) {
                prop_assert_eq!(frame, FrameId::new(*page));
            }
            if let Some((frame, _)) = tlb.lookup(other_asid, VirtAddr::new(page * 4096), PageSize::Base4K, false) {
                prop_assert_eq!(frame, FrameId::new(*page + 10_000));
            }
        }
    }

    /// The interleave policy distributes allocations evenly over its mask
    /// regardless of the faulting socket.
    #[test]
    fn interleave_policy_is_balanced(mask_bits in 1u64..16, faults in prop::collection::vec(0u16..4, 32..128)) {
        let mask = NodeMask::from_bits(mask_bits);
        let mut alloc = FrameAllocator::with_frame_space(FrameSpace::with_frames_per_socket(4, 4096));
        let mut engine = PolicyEngine::new(PlacementPolicy::Interleave(mask));
        let mut counts = [0u64; 4];
        for fault_socket in &faults {
            let frame = engine.alloc_data(&mut alloc, SocketId::new(*fault_socket)).unwrap();
            counts[alloc.frame_space().socket_of(frame).index()] += 1;
        }
        let used: Vec<u64> = (0..4)
            .filter(|s| mask.contains(SocketId::new(*s as u16)))
            .map(|s| counts[s])
            .collect();
        let unused: u64 = (0..4)
            .filter(|s| !mask.contains(SocketId::new(*s as u16)))
            .map(|s| counts[s])
            .sum();
        prop_assert_eq!(unused, 0, "interleave must not allocate outside its mask");
        let max = *used.iter().max().unwrap();
        let min = *used.iter().min().unwrap();
        prop_assert!(max - min <= 1, "round-robin must stay balanced: {:?}", used);
    }

    /// The node-mask set operations behave like a set of socket indices.
    #[test]
    fn node_mask_behaves_like_a_set(a in 0u64..(1 << 16), b in 0u64..(1 << 16)) {
        let ma = NodeMask::from_bits(a);
        let mb = NodeMask::from_bits(b);
        prop_assert_eq!(ma.union(mb).bits(), a | b);
        prop_assert_eq!(ma.intersection(mb).bits(), a & b);
        prop_assert_eq!(ma.count(), a.count_ones() as usize);
        let rebuilt: NodeMask = ma.iter().collect();
        prop_assert_eq!(rebuilt, ma);
    }
}

/// Frames per socket of the allocators the run checks use: not a multiple
/// of a huge page, so a huge allocation after a socket's first pushes the
/// frames it skips for alignment onto the free list, and four huge pages
/// drain a socket.
const RUN_FRAMES_PER_SOCKET: u64 = 2000;

/// Drives `alloc` and `engine` through an arbitrary history of
/// `(socket, op)` steps: single and bulk 4 KiB allocations, huge
/// allocations (which refill the free list with alignment frames), frees
/// of either kind and policy allocations that move the interleave cursor.
fn allocation_history(
    alloc: &mut FrameAllocator,
    engine: &mut PolicyEngine,
    history: &[(u16, u8)],
) {
    let (mut live, mut huge) = (Vec::new(), Vec::new());
    for &(socket, op) in history {
        let socket = SocketId::new(socket);
        match op {
            0 => live.extend(alloc.alloc_on(socket)),
            1 => live.extend((0..300).filter_map(|_| alloc.alloc_on(socket).ok())),
            2 if !live.is_empty() => {
                let frame = live.swap_remove(usize::from(socket.index() as u16) % live.len());
                alloc.free(frame).unwrap();
            }
            3 => huge.extend(alloc.alloc_huge_on(socket)),
            4 if !huge.is_empty() => alloc.free_huge(huge.swap_remove(0)).unwrap(),
            _ => live.extend(engine.alloc_data(alloc, socket)),
        }
    }
}

/// Everything two allocators that should agree must agree on: every
/// socket's statistics and which frames are allocated.
fn allocator_state(alloc: &FrameAllocator) -> (Vec<mitosis_mem::AllocStats>, Vec<u64>) {
    let stats = (0..4).map(|s| alloc.stats(SocketId::new(s))).collect();
    let allocated = (0..4 * RUN_FRAMES_PER_SOCKET)
        .filter(|&pfn| alloc.is_allocated(FrameId::new(pfn)))
        .collect();
    (stats, allocated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `FrameAllocator::alloc_run_on` hands out exactly the frames, in
    /// order, that as many `alloc_on` calls would, from any allocator
    /// history — free-list frames first (alignment frames included), then
    /// the bump run — stopping where the socket runs dry, and leaves the
    /// same statistics and allocation bitmap.
    #[test]
    fn a_frame_run_equals_one_alloc_on_per_frame(
        history in prop::collection::vec((0u16..4, 0u8..6), 0..60),
        socket in 0u16..5,
        count in 0usize..900,
    ) {
        let mut run = FrameAllocator::with_frame_space(
            FrameSpace::with_frames_per_socket(4, RUN_FRAMES_PER_SOCKET),
        );
        allocation_history(&mut run, &mut PolicyEngine::new(PlacementPolicy::FirstTouch), &history);
        let mut single = run.clone();
        // Socket 4 is one the machine lacks: nothing to allocate there.
        let socket = SocketId::new(socket);
        let mut frames = Vec::new();
        let taken = run.alloc_run_on(socket, count, &mut frames);
        let reference: Vec<FrameId> =
            (0..count).map_while(|_| single.alloc_on(socket).ok()).collect();
        prop_assert_eq!(taken, frames.len());
        prop_assert_eq!(&frames, &reference);
        prop_assert_eq!(allocator_state(&run), allocator_state(&single));
    }

    /// `PolicyEngine::alloc_data_run` equals as many `alloc_data` calls
    /// under all four policies (and an empty interleave mask), from any
    /// allocator and interleave-cursor history: the same frames in order,
    /// the same error after the same frames when a socket (`Bind`) or the
    /// machine runs dry mid-window, the same statistics and bitmap, and
    /// the same next allocation.
    #[test]
    fn a_data_window_equals_one_alloc_data_per_page(
        history in prop::collection::vec((0u16..4, 0u8..7), 0..60),
        policy in (0u8..4, 0u16..5, 0u64..16),
        faulting in 0u16..4,
        count in 0usize..900,
    ) {
        let (kind, target, mask) = policy;
        let target = SocketId::new(target);
        let policy = match kind {
            0 => PlacementPolicy::FirstTouch,
            1 => PlacementPolicy::Interleave(NodeMask::from_bits(mask)),
            2 => PlacementPolicy::Bind(target),
            _ => PlacementPolicy::Preferred(target),
        };
        let mut alloc = FrameAllocator::with_frame_space(
            FrameSpace::with_frames_per_socket(4, RUN_FRAMES_PER_SOCKET),
        );
        let mut engine = PolicyEngine::new(policy);
        allocation_history(&mut alloc, &mut engine, &history);
        let (mut single_alloc, mut single_engine) = (alloc.clone(), engine.clone());
        let faulting = SocketId::new(faulting);

        let mut frames = Vec::new();
        let result = engine.alloc_data_run(&mut alloc, faulting, count, &mut frames);
        let mut reference = Vec::new();
        let mut reference_result = Ok(());
        for _ in 0..count {
            match single_engine.alloc_data(&mut single_alloc, faulting) {
                Ok(frame) => reference.push(frame),
                Err(err) => {
                    reference_result = Err(err);
                    break;
                }
            }
        }
        prop_assert_eq!(result, reference_result);
        prop_assert_eq!(&frames, &reference);
        prop_assert_eq!(allocator_state(&alloc), allocator_state(&single_alloc));
        prop_assert_eq!(
            engine.alloc_data(&mut alloc, faulting),
            single_engine.alloc_data(&mut single_alloc, faulting),
            "the next allocation after the window"
        );
    }
}

/// One resident translation of [`ModelTlb`].
#[derive(Debug, Clone, Copy)]
struct ModelEntry {
    asid: u16,
    vpn: u64,
    size: PageSize,
    frame: FrameId,
    writable: bool,
    last_used: u64,
}

/// A brute-force set-associative LRU TLB: every resident entry in one
/// list, an entry's set computed from its page number when needed, and
/// ranged invalidation by a scan of every entry.
#[derive(Debug)]
struct ModelTlb {
    sets: u64,
    ways: usize,
    entries: Vec<ModelEntry>,
    tick: u64,
}

impl ModelTlb {
    fn new(entries: usize, ways: usize) -> Self {
        ModelTlb {
            sets: (entries / ways) as u64,
            ways,
            entries: Vec::new(),
            tick: 0,
        }
    }

    fn position(&self, asid: u16, vpn: u64, size: PageSize) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.asid == asid && e.vpn == vpn && e.size == size)
    }

    fn lookup(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        is_write: bool,
    ) -> Option<(FrameId, bool)> {
        self.tick += 1;
        let i = self.position(asid, addr.page_number(size), size)?;
        let entry = &mut self.entries[i];
        if is_write && !entry.writable {
            return None;
        }
        entry.last_used = self.tick;
        Some((entry.frame, entry.writable))
    }

    fn insert(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        frame: FrameId,
        writable: bool,
    ) {
        self.tick += 1;
        let vpn = addr.page_number(size);
        if let Some(i) = self.position(asid, vpn, size) {
            self.entries[i].frame = frame;
            self.entries[i].writable = writable;
            self.entries[i].last_used = self.tick;
            return;
        }
        let set = vpn % self.sets;
        let in_set = || {
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.vpn % self.sets == set)
        };
        if in_set().count() == self.ways {
            let (victim, _) = in_set().min_by_key(|(_, e)| e.last_used).unwrap();
            self.entries.remove(victim);
        }
        self.entries.push(ModelEntry {
            asid,
            vpn,
            size,
            frame,
            writable,
            last_used: self.tick,
        });
    }

    fn invalidate_range(&mut self, asid: u16, vpn_start: u64, pages: u64, size: PageSize) -> usize {
        let vpn_end = vpn_start.saturating_add(pages);
        let before = self.entries.len();
        self.entries.retain(|e| {
            !(e.asid == asid && e.size == size && e.vpn >= vpn_start && e.vpn < vpn_end)
        });
        before - self.entries.len()
    }
}

/// The two-level hierarchy over [`ModelTlb`]s: split L1s backed by a
/// unified L2 that promotes its hits into the L1.
#[derive(Debug)]
struct ModelHierarchy {
    l1_4k: ModelTlb,
    l1_2m: ModelTlb,
    l2: ModelTlb,
}

impl ModelHierarchy {
    fn l1(&mut self, size: PageSize) -> &mut ModelTlb {
        match size {
            PageSize::Base4K => &mut self.l1_4k,
            PageSize::Huge2M | PageSize::Giant1G => &mut self.l1_2m,
        }
    }

    fn lookup(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        is_write: bool,
    ) -> Option<(TlbLevel, FrameId, u64)> {
        if let Some((frame, _)) = self.l1(size).lookup(asid, addr, size, is_write) {
            return Some((TlbLevel::L1, frame, 0));
        }
        let (frame, writable) = self.l2.lookup(asid, addr, size, is_write)?;
        self.l1(size).insert(asid, addr, size, frame, writable);
        Some((TlbLevel::L2, frame, 7))
    }

    /// Every size class in turn, 4 KiB first, as `TlbHalf::probe` asks.
    fn probe(&mut self, asid: u16, addr: VirtAddr, is_write: bool) -> Option<TlbHit> {
        SIZES.into_iter().find_map(|size| {
            let (level, frame, penalty) = self.lookup(asid, addr, size, is_write)?;
            let frame = frame.offset(addr.page_offset(size) / PageSize::Base4K.bytes());
            Some(TlbHit {
                level,
                frame,
                size,
                penalty,
            })
        })
    }

    fn insert(
        &mut self,
        asid: u16,
        addr: VirtAddr,
        size: PageSize,
        frame: FrameId,
        writable: bool,
    ) {
        self.l1(size).insert(asid, addr, size, frame, writable);
        self.l2.insert(asid, addr, size, frame, writable);
    }

    fn invalidate_range(&mut self, asid: u16, vpn_start: u64, pages: u64, size: PageSize) -> usize {
        self.l1_4k.invalidate_range(asid, vpn_start, pages, size)
            + self.l1_2m.invalidate_range(asid, vpn_start, pages, size)
            + self.l2.invalidate_range(asid, vpn_start, pages, size)
    }

    fn occupancy(&self) -> usize {
        self.l1_4k.entries.len() + self.l1_2m.entries.len() + self.l2.entries.len()
    }
}

const SIZES: [PageSize; 3] = [PageSize::Base4K, PageSize::Huge2M, PageSize::Giant1G];

/// The length of a drawn ranged invalidation: 0, 1, `sets - 1`, `sets`,
/// more than `sets`, or unbounded.
fn range_pages(sets: u64, aux: u64) -> u64 {
    [0, 1, sets - 1, sets, sets + 1, 3 * sets + 5, u64::MAX][(aux % 7) as usize]
}

/// One exact-LRU cache as a recency list (most recent first), with ranged
/// invalidation by a scan of the residents.
#[derive(Debug)]
struct ModelLru {
    capacity: usize,
    entries: Vec<(u64, FrameId)>,
}

impl ModelLru {
    fn get(&mut self, key: u64) -> Option<FrameId> {
        let i = self.entries.iter().position(|&(k, _)| k == key)?;
        let entry = self.entries.remove(i);
        self.entries.insert(0, entry);
        Some(entry.1)
    }

    fn insert(&mut self, key: u64, frame: FrameId) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(i);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (key, frame));
    }

    fn retain_outside(&mut self, first: u64, last: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|&(k, _)| k < first || k > last);
        before - self.entries.len()
    }
}

/// The reference for [`PagingStructureCache`]: PDE, PDPTE and PML4E caches
/// as [`ModelLru`]s, consulted deepest first.
#[derive(Debug)]
struct ModelPwc {
    caches: [ModelLru; 3],
}

impl ModelPwc {
    fn new(pde: usize, pdpte: usize, pml4e: usize) -> Self {
        let cache = |capacity| ModelLru {
            capacity,
            entries: Vec::new(),
        };
        ModelPwc {
            caches: [cache(pde), cache(pdpte), cache(pml4e)],
        }
    }

    /// Cache `i` holds entries read at `[L2, L3, L4][i]`, keyed by the
    /// address bits above that level's index shift.
    fn key(addr: VirtAddr, i: usize) -> u64 {
        addr.as_u64() >> [21, 30, 39][i]
    }

    fn walk_start(&mut self, addr: VirtAddr) -> Option<(Level, FrameId)> {
        let levels = [Level::L1, Level::L2, Level::L3];
        (0..3).find_map(|i| {
            let frame = self.caches[i].get(Self::key(addr, i))?;
            Some((levels[i], frame))
        })
    }

    fn record(&mut self, addr: VirtAddr, i: usize, frame: FrameId) {
        self.caches[i].insert(Self::key(addr, i), frame);
    }

    fn invalidate_range(&mut self, start: VirtAddr, end: VirtAddr) -> usize {
        if end.as_u64() <= start.as_u64() {
            return 0;
        }
        let last = VirtAddr::new(end.as_u64() - 1);
        (0..3)
            .map(|i| self.caches[i].retain_outside(Self::key(start, i), Self::key(last, i)))
            .sum()
    }
}

/// A paging-structure-cache address: one of 2 × 3 × 6 2 MiB regions
/// spread over two 512 GiB and three 1 GiB slots, plus a page offset.
fn pwc_addr(l4: u64, l3: u64, l2: u64, page: u64) -> VirtAddr {
    VirtAddr::new((l4 << 39) | (l3 << 30) | (l2 << 21) | ((page & 0x1ff) << 12))
}

/// The 4 KiB page number of page `offset` of region `region`: four
/// regions at 0, 2 GiB, 6 GiB and 512 GiB, so plans and caches span
/// several keys of every paging-structure-cache level.
fn plan_page(region: u64, offset: u64) -> u64 {
    [0, 1 << 19, 3 << 19, 1 << 27][region as usize] + offset
}

/// The first page number, in units of `size`, of the page of `size`
/// holding 4 KiB page `page`.
fn page_of_size(page: u64, size: PageSize) -> u64 {
    page * PageSize::Base4K.bytes() / size.bytes()
}

/// A shootdown plan of `count` ranges drawn from `seed`: ASIDs 0-2, mostly
/// 4 KiB pages one to 64 pages long, some single 2 MiB pages and single
/// 1 GiB pages, in no order, often overlapping, every fourth range
/// starting where the one before it ended, and some starting on the last
/// 4 KiB page of a 2 MiB region.  The 4 KiB and 2 MiB ranges lie in the
/// first three regions' first 2,000 pages and the 1 GiB ones in the
/// fourth region, so the cache entries the test fills further out survive
/// and most 2 MiB regions the plan reaches are only partly covered.
fn many_range_plan(count: usize, seed: u64) -> ShootdownPlan {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ranges: Vec<ShootdownRange> = Vec::with_capacity(count);
    for i in 0..count {
        let draw = next();
        let size = SIZES[[0, 0, 0, 0, 0, 0, 1, 2][(draw % 8) as usize]];
        let pages = match size {
            PageSize::Base4K => [1, 1, 1, 2, 3, 7, 64, 1][((draw >> 3) % 8) as usize],
            _ => 1,
        };
        let offset = (draw >> 8) % 2000;
        let offset = if (draw >> 4) % 16 == 5 {
            offset | 511
        } else {
            offset
        };
        let region = match size {
            PageSize::Giant1G => 3,
            _ => (draw >> 6) % 3,
        };
        let page = plan_page(region, offset);
        let vpn_start = match ranges.last() {
            Some(last) if i % 4 == 3 && last.size == size => last.vpn_start + last.pages,
            _ => page_of_size(page, size),
        };
        ranges.push(ShootdownRange {
            asid: ((draw >> 20) % 3) as u16,
            vpn_start,
            pages,
            size,
        });
    }
    ShootdownPlan {
        ranges,
        ..ShootdownPlan::default()
    }
}

/// A frame for the share-table model: a few frames at both edges of four
/// directory chunks, so counts collide within and across chunks.
fn cow_frame(chunk: u64, offset: u64) -> FrameId {
    let offset = if offset < 8 {
        offset
    } else {
        4096 - 16 + offset
    };
    FrameId::new([0, 1, 7, 1000][chunk as usize] * 4096 + offset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Tlb` — including a geometry whose set count is not a power of two —
    /// matches the brute-force model on every lookup, insert and ranged
    /// invalidation, under several ASIDs and all three page sizes.
    #[test]
    fn tlb_matches_the_full_scan_model(
        geometry in 0usize..4,
        ops in prop::collection::vec((0u8..4, 0u16..3, 0u64..96, 0u8..3, 0u64..64), 1..300),
    ) {
        let (entries, ways) = [(64, 4), (24, 4), (16, 8), (1024, 8)][geometry];
        let sets = (entries / ways) as u64;
        let mut tlb = Tlb::new(entries, ways);
        let mut model = ModelTlb::new(entries, ways);
        for (step, &(kind, asid, vpn, size, aux)) in ops.iter().enumerate() {
            let size = SIZES[size as usize];
            let addr = VirtAddr::new(vpn * size.bytes());
            match kind {
                0 | 1 => {
                    let frame = FrameId::new(vpn * 8 + u64::from(asid));
                    tlb.insert(asid, addr, size, frame, aux % 2 == 0);
                    model.insert(asid, addr, size, frame, aux % 2 == 0);
                }
                2 => prop_assert_eq!(
                    tlb.lookup(asid, addr, size, aux % 2 == 1),
                    model.lookup(asid, addr, size, aux % 2 == 1),
                    "step {}", step
                ),
                _ => {
                    let pages = range_pages(sets, aux);
                    prop_assert_eq!(
                        tlb.invalidate_range(asid, vpn, pages, size),
                        model.invalidate_range(asid, vpn, pages, size),
                        "step {}: {} pages from {}", step, pages, vpn
                    );
                }
            }
            prop_assert_eq!(tlb.occupancy(), model.entries.len(), "step {}", step);
        }
        for (asid, vpn, size) in (0..3u16).flat_map(|a| (0..96u64).flat_map(move |v| SIZES.map(|s| (a, v, s)))) {
            let addr = VirtAddr::new(vpn * size.bytes());
            prop_assert_eq!(tlb.lookup(asid, addr, size, false), model.lookup(asid, addr, size, false));
        }
    }

    /// `TlbHierarchy` — lookups with L2-to-L1 promotion, inserts into both
    /// levels, ranged invalidation summed over the levels, and the probe of
    /// every size class that `TlbHalf::probe` makes — matches the model
    /// hierarchy, on a small geometry (six L2 sets) and the paper's.  The
    /// probes land where 4 KiB, 2 MiB and 1 GiB entries overlap.
    #[test]
    fn tlb_hierarchy_matches_the_full_scan_model(
        geometry in 0usize..2,
        ops in prop::collection::vec((0u8..5, 0u16..3, 0u64..96, 0u8..3, 0u64..64), 1..300),
    ) {
        let (l1_4k, l1_2m, l2) = [(8, 8, 48), (64, 32, 1024)][geometry];
        let mut tlb = TlbHierarchy::new(l1_4k, l1_2m, l2);
        let mut model = ModelHierarchy {
            l1_4k: ModelTlb::new(l1_4k, 4),
            l1_2m: ModelTlb::new(l1_2m, 4),
            l2: ModelTlb::new(l2, 8),
        };
        let sets = (l2 / 8) as u64;
        for (step, &(kind, asid, vpn, size, aux)) in ops.iter().enumerate() {
            let size = SIZES[size as usize];
            let addr = VirtAddr::new(vpn * size.bytes());
            match kind {
                0 | 1 => {
                    let frame = FrameId::new(vpn * 8 + u64::from(asid));
                    tlb.insert(asid, addr, size, frame, aux % 2 == 0);
                    model.insert(asid, addr, size, frame, aux % 2 == 0);
                }
                2 => prop_assert_eq!(
                    tlb.lookup(asid, addr, size, aux % 2 == 1),
                    model.lookup(asid, addr, size, aux % 2 == 1),
                    "step {}", step
                ),
                3 => {
                    let pages = range_pages(sets, aux);
                    prop_assert_eq!(
                        tlb.invalidate_range(asid, vpn, pages, size),
                        model.invalidate_range(asid, vpn, pages, size),
                        "step {}: {} pages from {}", step, pages, vpn
                    );
                }
                _ => {
                    let addr = addr.add((aux * 4096) % size.bytes());
                    prop_assert_eq!(
                        tlb.probe(asid, addr, aux % 2 == 1),
                        model.probe(asid, addr, aux % 2 == 1),
                        "step {}", step
                    );
                }
            }
            prop_assert_eq!(tlb.occupancy(), model.occupancy(), "step {}", step);
        }
        for (asid, page) in (0..3u16).flat_map(|a| (0..96u64).map(move |p| (a, p))) {
            let addr = VirtAddr::new(page * 4096);
            prop_assert_eq!(tlb.probe(asid, addr, false), model.probe(asid, addr, false));
        }
    }

    /// `PagingStructureCache` — keyed or scanning ranged eviction — leaves
    /// the same residents in the same recency order as a `retain`-only
    /// model: every later walk start, and so every later eviction, agrees.
    /// One geometry has a PDE level of zero entries, which keeps nothing.
    #[test]
    fn paging_structure_cache_matches_the_retain_model(
        geometry in 0usize..3,
        ops in prop::collection::vec((0u8..9, 0u64..2, 0u64..3, 0u64..6, 0u64..512), 1..300),
    ) {
        let (pde, pdpte, pml4e) = [(4, 3, 2), (32, 16, 16), (0, 3, 2)][geometry];
        let mut pwc = PagingStructureCache::new(pde, pdpte, pml4e);
        let mut model = ModelPwc::new(pde, pdpte, pml4e);
        for (step, &(kind, l4, l3, l2, aux)) in ops.iter().enumerate() {
            let addr = pwc_addr(l4, l3, l2, aux);
            match kind {
                0..=3 => {
                    let i = (aux % 3) as usize;
                    let frame = FrameId::new(aux * 16 + u64::from(kind));
                    pwc.record(addr, [Level::L2, Level::L3, Level::L4][i], frame);
                    model.record(addr, i, frame);
                }
                4 | 5 => prop_assert_eq!(pwc.walk_start(addr), model.walk_start(addr), "step {}", step),
                8 if aux % 4 == 0 => {
                    pwc.flush();
                    model = ModelPwc::new(pde, pdpte, pml4e);
                }
                _ => {
                    let bytes = [0, 4096, 2 << 20, 10 << 20, 1 << 30, 3 << 30, 1 << 39][(aux % 7) as usize];
                    let end = addr.add(bytes);
                    prop_assert_eq!(
                        pwc.invalidate_range(addr, end),
                        model.invalidate_range(addr, end),
                        "step {}: {} bytes from {}", step, bytes, addr
                    );
                }
            }
        }
        for (l4, l3, l2) in (0..2).flat_map(|a| (0..3).flat_map(move |b| (0..6).map(move |c| (a, b, c)))) {
            let addr = pwc_addr(l4, l3, l2, 0);
            prop_assert_eq!(pwc.walk_start(addr), model.walk_start(addr));
        }
    }

    /// A shootdown plan of one to about 30,000 ranges — adjacent,
    /// overlapping and unsorted, under several ASIDs and all three page
    /// sizes — applied through one `PlanView`, as the engine applies a plan
    /// to each MMU (`Mmu::apply_view`), removes what the model TLB
    /// hierarchy and paging-structure caches remove applying its ranges
    /// one by one: the same count from each, and every later lookup,
    /// probe and walk start agrees.  The geometries make the plan sizes go
    /// range by range on some structures and set by set on others.
    #[test]
    fn many_range_plans_remove_what_one_range_at_a_time_removes(
        geometry in 0usize..2,
        plan in (0usize..5, 0u64..1_000),
        fills in prop::collection::vec((0u16..3, 0u64..4, 0u64..4000, 0u8..3), 1..400),
    ) {
        let (l1_4k, l1_2m, l2) = [(8, 8, 48), (64, 32, 1024)][geometry];
        let (pde, pdpte, pml4e) = [(4, 3, 2), (32, 16, 16)][geometry];
        let mut tlb = TlbHierarchy::new(l1_4k, l1_2m, l2);
        let mut model = ModelHierarchy {
            l1_4k: ModelTlb::new(l1_4k, 4),
            l1_2m: ModelTlb::new(l1_2m, 4),
            l2: ModelTlb::new(l2, 8),
        };
        let mut pwc = PagingStructureCache::new(pde, pdpte, pml4e);
        let mut model_pwc = ModelPwc::new(pde, pdpte, pml4e);
        let addr_of = |region, offset, size| {
            let page = page_of_size(plan_page(region, offset), size);
            VirtAddr::new(page * size.bytes())
        };
        for &(asid, region, offset, size) in &fills {
            let size = SIZES[size as usize];
            let addr = addr_of(region, offset, size);
            let frame = FrameId::new(offset * 8 + u64::from(asid));
            tlb.insert(asid, addr, size, frame, offset % 2 == 0);
            model.insert(asid, addr, size, frame, offset % 2 == 0);
            let level = (offset % 3) as usize;
            pwc.record(addr, [Level::L2, Level::L3, Level::L4][level], frame);
            model_pwc.record(addr, level, frame);
        }
        let (count, seed) = plan;
        let plan = many_range_plan([1, 7, 129, 1_000, 30_000][count], seed);
        // The view owns its copy of the plan, as the engine's does.
        let view = PlanView::from(plan.clone());
        let expected: usize = plan
            .ranges
            .iter()
            .map(|r| model.invalidate_range(r.asid, r.vpn_start, r.pages, r.size))
            .sum();
        prop_assert_eq!(tlb.invalidate_plan(&view), expected);
        let expected: usize = plan
            .ranges
            .iter()
            .map(|r| model_pwc.invalidate_range(r.start(), r.end()))
            .sum();
        prop_assert_eq!(pwc.invalidate_plan(&view), expected);
        prop_assert_eq!(tlb.occupancy(), model.occupancy());
        for &(asid, region, offset, size) in &fills {
            let size = SIZES[size as usize];
            let addr = addr_of(region, offset, size);
            prop_assert_eq!(tlb.lookup(asid, addr, size, false), model.lookup(asid, addr, size, false));
            prop_assert_eq!(tlb.probe(asid, addr, false), model.probe(asid, addr, false));
            prop_assert_eq!(pwc.walk_start(addr), model_pwc.walk_start(addr));
        }
    }

    /// `CowRefCounts` matches a `BTreeMap` of share counts — absent means
    /// one owner, sharing adds one, releasing the second-to-last reference
    /// removes the entry — across directory chunks.
    #[test]
    fn cow_refcounts_match_a_btreemap_model(
        ops in prop::collection::vec((0u8..3, 0u64..4, 0u64..16), 1..400),
    ) {
        let mut counts = CowRefCounts::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for (step, &(kind, chunk, offset)) in ops.iter().enumerate() {
            let frame = cow_frame(chunk, offset);
            if kind < 2 {
                counts.share(frame);
                *model.entry(frame.pfn()).or_insert(1) += 1;
            } else {
                let last = match model.get(&frame.pfn()).copied() {
                    None => true,
                    Some(count) if count <= 2 => {
                        model.remove(&frame.pfn());
                        false
                    }
                    Some(count) => {
                        model.insert(frame.pfn(), count - 1);
                        false
                    }
                };
                prop_assert_eq!(counts.release(frame), last, "step {}", step);
            }
            prop_assert_eq!(counts.shared_frames(), model.len(), "step {}", step);
            prop_assert_eq!(
                counts.references(frame),
                model.get(&frame.pfn()).copied().unwrap_or(1),
                "step {}", step
            );
        }
        for (chunk, offset) in (0..4).flat_map(|c| (0..16).map(move |o| (c, o))) {
            let frame = cow_frame(chunk, offset);
            prop_assert_eq!(counts.is_shared(frame), model.contains_key(&frame.pfn()));
            prop_assert_eq!(counts.references(frame), model.get(&frame.pfn()).copied().unwrap_or(1));
        }
    }
}
