//! TLB-consistency application: the single place simulated shootdown work
//! is performed.
//!
//! Every mapping-mutating path in the [`System`] layer funnels its
//! invalidation work into a [`MappingTx`](mitosis_pt::MappingTx); the
//! engine drains it as a [`ShootdownPlan`] at each phase boundary (and
//! after copy-on-write faults) and applies it here.  Two models exist:
//!
//! * [`ShootdownMode::Broadcast`] — the historical model and the default:
//!   every mutation ends in a full flush of the affected MMUs and the
//!   per-socket page-table-line caches.  Bit-identical to the pre-ranged
//!   engine.
//! * [`ShootdownMode::Ranged`] — the plan's exact ASID-tagged VPN ranges
//!   are invalidated instead, with targeted paging-structure-cache
//!   eviction; only operations that free page tables wholesale (replica
//!   resize, page-table migration) still escalate to a full flush.
//!
//! Keeping both paths here — and nowhere else — is what the repo's
//! no-stray-shootdowns check enforces: the engine itself never calls
//! `shootdown_all`/`flush_all` directly.

use mitosis_mmu::{Mmu, PlanView, PteCacheSet};
use mitosis_pt::ShootdownPlan;
use mitosis_vmm::System;

/// Counters of TLB-consistency work performed during one run.
///
/// Deliberately *not* part of [`RunMetrics`](crate::RunMetrics): the
/// counters describe modelled consistency traffic, not simulated time, and
/// keeping them out of the metrics struct keeps golden metrics bit-stable
/// across modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShootdownStats {
    /// Full TLB flushes taken by individual MMUs (broadcast mode, and
    /// ranged-mode escalations).
    pub full_flushes: u64,
    /// Ranged invalidation ranges applied (per plan, not per MMU).
    pub ranged_ranges: u64,
    /// TLB entries actually removed — for a full flush, the entries
    /// resident at flush time, so ranged work is always comparable to (and
    /// bounded by) broadcast work on the same run.
    pub entries_invalidated: u64,
}

impl ShootdownStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ShootdownStats) {
        self.full_flushes += other.full_flushes;
        self.ranged_ranges += other.ranged_ranges;
        self.entries_invalidated += other.entries_invalidated;
    }

    /// `true` when no consistency work was recorded.
    pub fn is_empty(&self) -> bool {
        *self == ShootdownStats::default()
    }
}

/// How a phase boundary's events want their flushes delivered.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryFlush<'a> {
    /// A global mapping-mutating event fired: every thread takes the
    /// shootdown.
    pub broadcast: bool,
    /// Thread indices targeted by staggered mapping-mutating events (used
    /// when `broadcast` is false).
    pub targeted: &'a [usize],
    /// Some mapping-mutating event fired (the physically-coherent
    /// page-table-line caches always observe it, regardless of filter).
    pub cache_flush: bool,
    /// A mutating event that frees page tables wholesale fired (replica
    /// resize, page-table migration): ranged mode escalates to a full
    /// flush.
    pub escalate_full: bool,
}

/// A plan that asks for a full flush and nothing else.
fn full_flush_plan() -> ShootdownPlan {
    ShootdownPlan {
        full_flush: true,
        ..ShootdownPlan::default()
    }
}

/// Applies one phase boundary's TLB-consistency work: drains the system's
/// pending [`MappingTx`](mitosis_pt::MappingTx) and delivers it to the
/// MMUs and page-table-line caches according to the system's
/// [`ShootdownMode`](mitosis_vmm::ShootdownMode).
pub fn apply_boundary(
    system: &mut System,
    mmus: &mut [Mmu],
    pte_caches: &mut PteCacheSet,
    flush: BoundaryFlush<'_>,
) -> ShootdownStats {
    let mut stats = ShootdownStats::default();
    let ranged = system.config().shootdown.is_ranged();
    let mut plan = system.take_shootdown_plan();
    if !ranged {
        // Historical broadcast model — bit-identical to the pre-ranged
        // engine: nothing was recorded, every affected MMU takes a full
        // flush.
        let full = full_flush_plan();
        if flush.broadcast {
            for mmu in mmus.iter_mut() {
                stats.entries_invalidated += mmu.apply_shootdown(&full);
                stats.full_flushes += 1;
            }
        } else {
            for &thread in flush.targeted {
                stats.entries_invalidated += mmus[thread].apply_shootdown(&full);
                stats.full_flushes += 1;
            }
        }
        if flush.cache_flush {
            pte_caches.apply_shootdown(&full);
        }
        return stats;
    }
    if flush.escalate_full {
        plan.full_flush = true;
    }
    if plan.is_empty() && !flush.cache_flush {
        return stats;
    }
    if plan.full_flush {
        // Page tables were freed wholesale: same broadcast the historical
        // model takes, counted as full flushes.
        for mmu in mmus.iter_mut() {
            stats.entries_invalidated += mmu.apply_shootdown(&plan);
            stats.full_flushes += 1;
        }
        pte_caches.apply_shootdown(&plan);
        return stats;
    }
    stats.ranged_ranges += plan.ranges.len() as u64;
    // One view for every MMU: a plan of many ranges is coalesced once, in
    // place.
    let view = PlanView::from(plan);
    if flush.broadcast {
        // The invalidation IPI reaches every core that may cache the
        // ranges; each MMU drops only matching ASID-tagged entries.
        for mmu in mmus.iter_mut() {
            stats.entries_invalidated += mmu.apply_view(&view);
        }
    } else {
        for &thread in flush.targeted {
            stats.entries_invalidated += mmus[thread].apply_view(&view);
        }
    }
    pte_caches.apply_shootdown(view.plan());
    stats
}

/// Applies the consistency work a mid-segment fault produced (a
/// copy-on-write break remaps a page) to the faulting thread's own MMU
/// only.
///
/// The engine drains the transaction before calling this, so no later
/// boundary's plan names the page: in ranged mode, other threads' stale
/// read-only entries for it stay resident until they are evicted or a
/// full flush drops them.  This is a known modelling deviation — a real
/// copy-on-write break shoots the page down on every core that may cache
/// it — kept because delivering it would change the simulated results of
/// the fork/CoW scenarios.
pub fn apply_local(
    plan: &ShootdownPlan,
    mmu: &mut Mmu,
    pte_caches: &mut PteCacheSet,
) -> ShootdownStats {
    let mut stats = ShootdownStats::default();
    if plan.is_empty() {
        return stats;
    }
    if plan.full_flush {
        stats.full_flushes += 1;
    } else {
        stats.ranged_ranges += plan.ranges.len() as u64;
    }
    stats.entries_invalidated += mmu.apply_shootdown(plan);
    pte_caches.apply_shootdown(plan);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_numa::{CoreId, MachineConfig, SocketId};
    use mitosis_pt::{PageSize, ShootdownRange};
    use mitosis_vmm::VmmConfig;

    fn machine_system(ranged: bool) -> System {
        let mut system = System::new(MachineConfig::two_socket_small().build());
        if ranged {
            system.set_config(VmmConfig::stock().with_ranged_shootdowns());
        }
        system
    }

    #[test]
    fn broadcast_mode_full_flushes_every_mmu() {
        let mut system = machine_system(false);
        let mut mmus = vec![
            Mmu::new(CoreId::new(0), SocketId::new(0)),
            Mmu::new(CoreId::new(1), SocketId::new(1)),
        ];
        let mut caches = PteCacheSet::for_machine(system.machine());
        let stats = apply_boundary(
            &mut system,
            &mut mmus,
            &mut caches,
            BoundaryFlush {
                broadcast: true,
                targeted: &[],
                cache_flush: true,
                escalate_full: false,
            },
        );
        assert_eq!(stats.full_flushes, 2);
        assert_eq!(stats.ranged_ranges, 0);
    }

    #[test]
    fn ranged_mode_with_no_pending_work_is_a_no_op() {
        let mut system = machine_system(true);
        let mut mmus = vec![Mmu::new(CoreId::new(0), SocketId::new(0))];
        let mut caches = PteCacheSet::for_machine(system.machine());
        let stats = apply_boundary(
            &mut system,
            &mut mmus,
            &mut caches,
            BoundaryFlush {
                broadcast: true,
                targeted: &[],
                cache_flush: false,
                escalate_full: false,
            },
        );
        assert!(stats.is_empty());
    }

    #[test]
    fn ranged_escalation_counts_as_full_flushes() {
        let mut system = machine_system(true);
        let mut mmus = vec![Mmu::new(CoreId::new(0), SocketId::new(0))];
        let mut caches = PteCacheSet::for_machine(system.machine());
        let stats = apply_boundary(
            &mut system,
            &mut mmus,
            &mut caches,
            BoundaryFlush {
                broadcast: true,
                targeted: &[],
                cache_flush: true,
                escalate_full: true,
            },
        );
        assert_eq!(stats.full_flushes, 1);
    }

    #[test]
    fn local_application_counts_ranges() {
        let plan = ShootdownPlan {
            ranges: vec![ShootdownRange {
                asid: 1,
                vpn_start: 0x100,
                pages: 4,
                size: PageSize::Base4K,
            }],
            tables: Vec::new(),
            full_flush: false,
        };
        let machine = MachineConfig::two_socket_small().build();
        let mut mmu = Mmu::new(CoreId::new(0), SocketId::new(0));
        let mut caches = PteCacheSet::for_machine(&machine);
        let stats = apply_local(&plan, &mut mmu, &mut caches);
        assert_eq!(stats.ranged_ranges, 1);
        assert_eq!(stats.full_flushes, 0);
    }
}
