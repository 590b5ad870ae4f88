//! Deferred TLB-consistency work: [`MappingTx`] and [`ShootdownPlan`].
//!
//! Every mapping-mutating path (unmap, protect, migrate, replication
//! resize...) invalidates some set of cached translations.  Instead of each
//! path broadcasting a full TLB flush, a [`MappingTx`] accumulates the exact
//! virtual-page ranges, page sizes and address-space identifiers a mutation
//! touches, plus the page-table frames it frees.  When the mutation batch is
//! complete the transaction is drained into a [`ShootdownPlan`] and applied
//! once: ranged `invalidate_range` against ASID-tagged TLBs and targeted
//! paging-structure / PTE-cache eviction (the deferred-ops idiom).

use crate::addr::{PageSize, VirtAddr};
use mitosis_mem::FrameId;

/// A contiguous run of same-size virtual pages whose cached translations
/// must be invalidated for one address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShootdownRange {
    /// Address-space identifier whose translations the run invalidates.
    pub asid: u16,
    /// First virtual page number of the run, in units of `size`.
    pub vpn_start: u64,
    /// Number of pages of `size` in the run.
    pub pages: u64,
    /// Page size of the invalidated translations.
    pub size: PageSize,
}

impl ShootdownRange {
    /// Virtual address of the first byte covered by the run.
    pub fn start(&self) -> VirtAddr {
        VirtAddr::new(self.vpn_start * self.size.bytes())
    }

    /// One-past-the-end virtual address of the run.
    pub fn end(&self) -> VirtAddr {
        VirtAddr::new((self.vpn_start + self.pages) * self.size.bytes())
    }
}

/// The drained output of a [`MappingTx`]: everything one shootdown must
/// invalidate, ready to be applied to each MMU and PTE-cache once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShootdownPlan {
    /// Ranged TLB invalidations, in accumulation order.
    pub ranges: Vec<ShootdownRange>,
    /// Page-table frames freed by the mutation; their cached lines must be
    /// evicted from the PTE caches and paging-structure caches.
    pub tables: Vec<FrameId>,
    /// `true` when the mutation replaced whole page-table trees (replication
    /// resize, page-table migration): ranged invalidation cannot name every
    /// stale entry, so the plan escalates to a full flush.
    pub full_flush: bool,
}

impl ShootdownPlan {
    /// Returns `true` when the plan invalidates nothing.
    pub fn is_empty(&self) -> bool {
        !self.full_flush && self.ranges.is_empty() && self.tables.is_empty()
    }

    /// Total number of pages named by the ranged invalidations.
    pub fn pages(&self) -> u64 {
        self.ranges.iter().map(|r| r.pages).sum()
    }
}

/// A deferred-ops transaction accumulating the TLB-consistency work owed by
/// a batch of mapping mutations.
///
/// Mutating paths call [`invalidate_page`](MappingTx::invalidate_page) /
/// [`evict_table`](MappingTx::evict_table) as they go; adjacent pages of the
/// same size and address space coalesce into one [`ShootdownRange`], so a
/// region unmap records one range rather than thousands of entries.  The
/// engine drains the transaction with [`take_plan`](MappingTx::take_plan)
/// and applies the plan at the next shootdown point.
#[derive(Debug, Clone, Default)]
pub struct MappingTx {
    ranges: Vec<ShootdownRange>,
    tables: Vec<FrameId>,
    full_flush: bool,
}

impl MappingTx {
    /// Creates an empty transaction.
    pub fn new() -> Self {
        MappingTx::default()
    }

    /// Returns `true` when no work has been recorded.
    pub fn is_empty(&self) -> bool {
        !self.full_flush && self.ranges.is_empty() && self.tables.is_empty()
    }

    /// Records the invalidation of the page of `size` covering `addr` in
    /// address space `asid`, coalescing with the previous record when the
    /// pages are adjacent.
    pub fn invalidate_page(&mut self, asid: u16, addr: VirtAddr, size: PageSize) {
        let vpn = addr.page_number(size);
        if let Some(last) = self.ranges.last_mut() {
            if last.asid == asid && last.size == size {
                if vpn == last.vpn_start + last.pages {
                    last.pages += 1;
                    return;
                }
                if vpn >= last.vpn_start && vpn < last.vpn_start + last.pages {
                    return;
                }
            }
        }
        self.ranges.push(ShootdownRange {
            asid,
            vpn_start: vpn,
            pages: 1,
            size,
        });
    }

    /// Records the invalidation of the `pages` pages of `size` from the one
    /// covering `addr` in address space `asid`: exactly what one
    /// [`invalidate_page`](MappingTx::invalidate_page) per page, in
    /// ascending order, records.
    pub fn invalidate_pages(&mut self, asid: u16, addr: VirtAddr, pages: u64, size: PageSize) {
        if pages == 0 {
            return;
        }
        self.invalidate_page(asid, addr, size);
        // The first page is now the last range's or inside it, so each
        // later page extends that range or falls inside it too.
        let last = self.ranges.last_mut().expect("a page was just recorded");
        let end = addr.page_number(size) + pages;
        last.pages = (last.vpn_start + last.pages).max(end) - last.vpn_start;
    }

    /// Records the invalidation of every page of `size` in
    /// `[start, start + len)` for address space `asid`.
    pub fn invalidate_bytes(&mut self, asid: u16, start: VirtAddr, len: u64, size: PageSize) {
        if len == 0 {
            return;
        }
        let vpn_start = start.align_down(size).page_number(size);
        let vpn_end = start.add(len - 1).page_number(size) + 1;
        if let Some(last) = self.ranges.last_mut() {
            if last.asid == asid
                && last.size == size
                && vpn_start <= last.vpn_start + last.pages
                && vpn_end >= last.vpn_start
            {
                let merged_start = last.vpn_start.min(vpn_start);
                let merged_end = (last.vpn_start + last.pages).max(vpn_end);
                last.vpn_start = merged_start;
                last.pages = merged_end - merged_start;
                return;
            }
        }
        self.ranges.push(ShootdownRange {
            asid,
            vpn_start,
            pages: vpn_end - vpn_start,
            size,
        });
    }

    /// Records that page-table frame `table` was freed: its lines must leave
    /// the PTE caches and any paging-structure cache entries through it die
    /// with the ranges that walked it.
    pub fn evict_table(&mut self, table: FrameId) {
        self.tables.push(table);
    }

    /// Escalates the transaction to a full flush (whole page-table trees
    /// were replaced, e.g. by a replication resize).
    pub fn escalate_full(&mut self) {
        self.full_flush = true;
    }

    /// Drains the transaction into a [`ShootdownPlan`], leaving it empty.
    pub fn take_plan(&mut self) -> ShootdownPlan {
        ShootdownPlan {
            ranges: std::mem::take(&mut self.ranges),
            tables: std::mem::take(&mut self.tables),
            full_flush: std::mem::replace(&mut self.full_flush, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_pages_coalesce_into_one_range() {
        let mut tx = MappingTx::new();
        for page in 0..64u64 {
            tx.invalidate_page(3, VirtAddr::new(0x10_0000 + page * 4096), PageSize::Base4K);
        }
        let plan = tx.take_plan();
        assert_eq!(plan.ranges.len(), 1);
        assert_eq!(plan.ranges[0].pages, 64);
        assert_eq!(plan.ranges[0].asid, 3);
        assert_eq!(plan.pages(), 64);
        assert!(tx.is_empty());
    }

    #[test]
    fn different_asids_or_sizes_do_not_coalesce() {
        let mut tx = MappingTx::new();
        tx.invalidate_page(1, VirtAddr::new(0x1000), PageSize::Base4K);
        tx.invalidate_page(2, VirtAddr::new(0x2000), PageSize::Base4K);
        tx.invalidate_page(2, VirtAddr::new(0x40_0000), PageSize::Huge2M);
        let plan = tx.take_plan();
        assert_eq!(plan.ranges.len(), 3);
    }

    #[test]
    fn byte_ranges_cover_partial_pages_and_merge() {
        let mut tx = MappingTx::new();
        tx.invalidate_bytes(0, VirtAddr::new(0x1000), 4096 * 4 + 1, PageSize::Base4K);
        assert_eq!(
            tx.take_plan().ranges,
            vec![ShootdownRange {
                asid: 0,
                vpn_start: 1,
                pages: 5,
                size: PageSize::Base4K,
            }]
        );
        tx.invalidate_bytes(0, VirtAddr::new(0x1000), 4096, PageSize::Base4K);
        tx.invalidate_bytes(0, VirtAddr::new(0x2000), 4096, PageSize::Base4K);
        let plan = tx.take_plan();
        assert_eq!(plan.ranges.len(), 1);
        assert_eq!(plan.ranges[0].pages, 2);
        assert_eq!(plan.ranges[0].start(), VirtAddr::new(0x1000));
        assert_eq!(plan.ranges[0].end(), VirtAddr::new(0x3000));
    }

    #[test]
    fn escalation_and_tables_survive_into_the_plan() {
        let mut tx = MappingTx::new();
        assert!(tx.is_empty());
        tx.evict_table(FrameId::new(9));
        tx.escalate_full();
        assert!(!tx.is_empty());
        let plan = tx.take_plan();
        assert!(plan.full_flush);
        assert_eq!(plan.tables, vec![FrameId::new(9)]);
        assert!(!plan.is_empty());
        assert!(ShootdownPlan::default().is_empty());
    }

    #[test]
    fn a_run_of_pages_records_what_one_call_per_page_records() {
        let page = |vpn: u64| VirtAddr::new(vpn * 4096);
        // Inside the last range and past its end, from its end, past it,
        // and under another address space.
        for (asid, first, pages) in [
            (0, 10, 5),
            (0, 12, 9),
            (0, 11, 2),
            (0, 14, 3),
            (0, 30, 4),
            (1, 14, 3),
        ] {
            let (mut batched, mut single) = (MappingTx::new(), MappingTx::new());
            for tx in [&mut batched, &mut single] {
                tx.invalidate_page(0, page(8), PageSize::Base4K);
                tx.invalidate_pages(0, page(9), 5, PageSize::Base4K);
            }
            batched.invalidate_pages(asid, page(first), pages, PageSize::Base4K);
            for vpn in first..first + pages {
                single.invalidate_page(asid, page(vpn), PageSize::Base4K);
            }
            assert_eq!(batched.take_plan(), single.take_plan(), "{first} + {pages}");
        }
        let mut tx = MappingTx::new();
        tx.invalidate_pages(0, page(3), 0, PageSize::Base4K);
        assert!(tx.is_empty());
    }

    #[test]
    fn duplicate_page_records_are_absorbed() {
        let mut tx = MappingTx::new();
        tx.invalidate_page(0, VirtAddr::new(0x5000), PageSize::Base4K);
        tx.invalidate_page(0, VirtAddr::new(0x5000), PageSize::Base4K);
        assert_eq!(tx.take_plan().ranges.len(), 1);
    }
}
