//! A shootdown plan as the MMUs it reaches apply it.
//!
//! A plan names ASID-tagged page ranges.  Applied range by range, a range
//! visits the TLB sets its pages map to and the paging-structure-cache
//! entries its addresses select, which is cheap for the one-page range of a
//! copy-on-write break.  A fork's plan can name tens of thousands of
//! scattered pages, and range by range it would cost ranges × sets.  Such a
//! plan is matched the other way round: each TLB set and each
//! paging-structure-cache entry is visited once and looked up, by binary
//! search, in the plan's ranges coalesced into sorted, disjoint runs
//! ([`PlanView`]).  Both ways remove exactly the same entries.

use crate::tlb::{size_code, ASID_SHIFT};
use mitosis_pt::{ShootdownPlan, ShootdownRange};
use std::borrow::Cow;

/// Bits of a [`range_key`] holding the virtual page number: every page a
/// TLB tag can name has a number below `1 << VPN_BITS`.
const VPN_BITS: u32 = ASID_SHIFT - 2;

/// One past the highest page number a TLB tag can name.
const VPN_LIMIT: u64 = 1 << VPN_BITS;

/// The key of page `vpn` of the page size with `code` in address space
/// `asid`: keys of one address space and page size (a *block*) are
/// contiguous and ordered by page number, so a run of pages is an interval
/// of keys.
#[inline]
pub(crate) fn range_key(asid: u16, code: u64, vpn: u64) -> u64 {
    debug_assert!(vpn < VPN_LIMIT);
    u64::from(asid) << ASID_SHIFT | code << VPN_BITS | vpn
}

/// The key of the first page of `range`.
#[inline]
fn first_key(range: &ShootdownRange) -> u64 {
    range_key(range.asid, size_code(range.size), range.vpn_start)
}

/// The key one past the last page of `range`, a range of a coalesced plan.
#[inline]
fn end_key(range: &ShootdownRange) -> u64 {
    first_key(range) + range.pages
}

/// Whether `a` and `b` name pages of one address space and page size.
#[inline]
fn same_block(a: &ShootdownRange, b: &ShootdownRange) -> bool {
    a.asid == b.asid && a.size == b.size
}

/// Whether `ranges` are coalesced: each names at least one page, all below
/// [`VPN_LIMIT`], and they are sorted by key with no two overlapping.
fn is_coalesced(ranges: &[ShootdownRange]) -> bool {
    ranges
        .iter()
        .all(|range| range.pages > 0 && range.pages <= VPN_LIMIT.saturating_sub(range.vpn_start))
        && ranges
            .windows(2)
            .all(|pair| end_key(&pair[0]) <= first_key(&pair[1]))
}

/// Coalesces `ranges` in place: drops empty ones and pages no TLB tag can
/// name, sorts them by key and merges the ones of a block that overlap or
/// touch.  The pages named stay the same.
fn coalesce(ranges: &mut Vec<ShootdownRange>) {
    ranges.retain_mut(|range| {
        range.pages = range.pages.min(VPN_LIMIT.saturating_sub(range.vpn_start));
        range.pages > 0
    });
    ranges.sort_unstable_by_key(first_key);
    ranges.dedup_by(|next, kept| {
        let merges = same_block(next, kept) && next.vpn_start <= kept.vpn_start + kept.pages;
        if merges {
            kept.pages =
                (next.vpn_start + next.pages).max(kept.vpn_start + kept.pages) - kept.vpn_start;
        }
        merges
    });
}

/// A shootdown plan as every MMU it reaches applies it: its ranges
/// coalesced — sorted by address space, page size and first page, with
/// overlapping and adjacent ones merged — which names the same pages.
///
/// A view that owns its plan coalesces the ranges in place, so delivering
/// one plan to every MMU costs one sort and no copy; a view of a borrowed
/// plan whose ranges are not coalesced already copies them once.
#[derive(Debug)]
pub struct PlanView<'a> {
    plan: Cow<'a, ShootdownPlan>,
}

impl<'a> PlanView<'a> {
    /// A view of `plan`, coalescing its ranges unless they already are (a
    /// full-flush plan's ranges are never looked at).
    fn new(mut plan: Cow<'a, ShootdownPlan>) -> Self {
        if !plan.full_flush && !is_coalesced(&plan.ranges) {
            coalesce(&mut plan.to_mut().ranges);
        }
        PlanView { plan }
    }

    /// The plan, its ranges coalesced.
    pub fn plan(&self) -> &ShootdownPlan {
        &self.plan
    }

    /// The coalesced ranges.
    pub(crate) fn ranges(&self) -> &[ShootdownRange] {
        &self.plan.ranges
    }

    /// Whether some range names the page of `key` ([`range_key`]).
    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        let ranges = self.ranges();
        let after = ranges.partition_point(|range| first_key(range) <= key);
        after > 0 && key < end_key(&ranges[after - 1])
    }

    /// Whether some range, of any address space and page size, names a
    /// page overlapping the virtual addresses `[start, end)` (`end > start`).
    pub(crate) fn overlaps(&self, start: u64, end: u64) -> bool {
        let mut rest = self.ranges();
        while let Some(head) = rest.first() {
            let block = rest.partition_point(|range| same_block(range, head));
            let (ranges, next) = rest.split_at(block);
            rest = next;
            let shift = head.size.bytes().trailing_zeros();
            let first = start >> shift;
            if first >= VPN_LIMIT {
                continue;
            }
            let last = (end - 1) >> shift;
            // The first run ending after page `first` overlaps when it
            // starts no later than page `last`.
            let at = ranges.partition_point(|range| range.vpn_start + range.pages <= first);
            if ranges.get(at).is_some_and(|range| range.vpn_start <= last) {
                return true;
            }
        }
        false
    }
}

impl<'a> From<&'a ShootdownPlan> for PlanView<'a> {
    fn from(plan: &'a ShootdownPlan) -> Self {
        PlanView::new(Cow::Borrowed(plan))
    }
}

impl From<ShootdownPlan> for PlanView<'static> {
    fn from(plan: ShootdownPlan) -> Self {
        PlanView::new(Cow::Owned(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_pt::PageSize;

    fn range(asid: u16, vpn_start: u64, pages: u64, size: PageSize) -> ShootdownRange {
        ShootdownRange {
            asid,
            vpn_start,
            pages,
            size,
        }
    }

    fn plan(ranges: Vec<ShootdownRange>) -> ShootdownPlan {
        ShootdownPlan {
            ranges,
            ..ShootdownPlan::default()
        }
    }

    #[test]
    fn overlapping_and_adjacent_ranges_merge_per_space_and_size() {
        let plan = plan(vec![
            range(1, 10, 5, PageSize::Base4K),
            range(1, 15, 2, PageSize::Base4K),
            range(1, 12, 1, PageSize::Base4K),
            range(2, 10, 5, PageSize::Base4K),
            range(1, 3, 1, PageSize::Huge2M),
            range(1, 40, 0, PageSize::Base4K),
        ]);
        let view = PlanView::from(&plan);
        assert!(
            matches!(view.plan, Cow::Owned(_)),
            "unsorted ranges are copied"
        );
        assert_eq!(
            view.ranges(),
            [
                range(1, 10, 7, PageSize::Base4K),
                range(1, 3, 1, PageSize::Huge2M),
                range(2, 10, 5, PageSize::Base4K),
            ]
        );
        let key = |asid, vpn| range_key(asid, 1, vpn);
        assert!(!view.contains(key(1, 9)));
        assert!((10..17).all(|vpn| view.contains(key(1, vpn))));
        assert!(!view.contains(key(1, 17)));
        assert!(!view.contains(key(1, 40)), "an empty range names no page");
        assert!(view.contains(key(2, 14)) && !view.contains(key(2, 15)));
        assert!(view.contains(range_key(1, 2, 3)));
        assert!(!view.contains(range_key(1, 2, 10)));
        // Coalesced ranges are used as they are.
        let coalesced = PlanView::from(view.plan());
        assert!(matches!(coalesced.plan, Cow::Borrowed(_)));
    }

    #[test]
    fn address_overlap_ignores_the_address_space_and_counts_every_size() {
        let view = PlanView::from(plan(vec![
            range(3, 0x200, 1, PageSize::Base4K),
            range(0, 5, 1, PageSize::Huge2M),
        ]));
        // The 4 KiB page at 0x20_0000 and the 2 MiB page at 0xa0_0000.
        assert!(view.overlaps(0, 1 << 30));
        assert!(view.overlaps(0x20_0000, 0x20_1000));
        assert!(!view.overlaps(0x20_1000, 0xa0_0000));
        assert!(view.overlaps(0xbf_f000, 0xc0_0000));
        assert!(!view.overlaps(0xc0_0000, 1 << 39));
    }

    #[test]
    fn unbounded_ranges_reach_the_last_page_and_no_further() {
        let view = PlanView::from(plan(vec![
            range(0, 7, u64::MAX, PageSize::Base4K),
            range(0, 0, 2, PageSize::Huge2M),
            range(0, VPN_LIMIT, 3, PageSize::Base4K),
        ]));
        assert_eq!(view.ranges().len(), 2);
        assert!(view.contains(range_key(0, 1, VPN_LIMIT - 1)));
        assert!(!view.contains(range_key(0, 1, 6)));
        assert!(view.contains(range_key(0, 2, 0)) && !view.contains(range_key(0, 2, 2)));
    }
}
