//! Property-based tests of the substrate invariants the Mitosis mechanism
//! relies on: frame-allocator soundness, address arithmetic, PTE encoding,
//! TLB coherence after shootdowns and placement-policy behaviour.

use mitosis_mem::{
    FrameAllocator, FrameId, FrameSpace, MemError, PlacementPolicy, PolicyEngine,
    FRAMES_PER_HUGE_PAGE,
};
use mitosis_mmu::Tlb;
use mitosis_numa::{NodeMask, SocketId};
use mitosis_pt::{Level, PageSize, Pte, PteFlags, VirtAddr};
use proptest::prelude::*;
use std::collections::HashSet;

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
        let mut model = HashSet::new();
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

    /// After flushing a page, the TLB never returns a stale translation for
    /// it, while unrelated entries — including the same page under a
    /// different ASID — survive or miss, but never alias.
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
        tlb.flush_page(asid, VirtAddr::new(victim_page * 4096), PageSize::Base4K);
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
