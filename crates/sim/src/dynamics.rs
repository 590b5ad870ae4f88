//! Mid-run scenario mutation: phase-change events fired at access-count
//! boundaries during the measured phase.
//!
//! The paper's most interesting experiments are about what happens *while*
//! a workload runs — the NUMA scheduler migrates a process and its page
//! tables are left behind (§3.2), AutoNUMA rebalances data mid-execution,
//! Mitosis adds or drops page-table replicas in reaction (§5, Figures 9 and
//! 10).  A [`PhaseSchedule`] describes such a run: a sorted list of
//! [`PhaseEvent`]s, each firing after every simulated thread has executed
//! `at_access` accesses.  The execution engine runs the measured phase in
//! segments between consecutive boundaries, applies the due events to the
//! [`System`] exactly once, and continues — deterministically, so a
//! captured trace of a dynamic run replays bit-identically.
//!
//! An event may additionally carry a **thread filter**
//! ([`PhaseEvent::thread`]): the system mutation still fires at the event's
//! boundary, but only the targeted thread takes the resulting TLB
//! invalidation and re-derives its translation root and cost tables — every
//! other thread keeps translating through its warm (now stale) MMU state
//! until a boundary of its own.  This models *staggered* phase changes: a
//! migration lands at one instant, but threads observe it at different
//! points of their own access streams, exactly like deferred per-CPU
//! shootdowns on real hardware.  Only changes whose delayed observation is
//! architecturally possible accept a filter (see
//! [`PhaseChange::supports_thread_filter`]); operations that free page
//! tables must broadcast — a core walking a freed table is a use-after-free,
//! not a modelling choice.

use mitosis::{Mitosis, MitosisError};
use mitosis_mem::MemError;
use mitosis_numa::{Interference, NodeMask, SocketId};
use mitosis_pt::VirtAddr;
use mitosis_vmm::{AutoNuma, MmapFlags, Pid, System, VmError};

/// One kind of mid-run scenario mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseChange {
    /// Migrate every data page of the process to `target` (the NUMA
    /// balancer following a scheduler migration).
    MigrateData {
        /// Destination socket of the data pages.
        target: SocketId,
    },
    /// Mitosis migrates the page tables to `target`, freeing the source
    /// copy (paper §5.5).
    MigratePageTable {
        /// Destination socket of the page tables.
        target: SocketId,
    },
    /// Set the page-table replica set to exactly `sockets`; an empty mask
    /// drops every replica (the `numactl --pgtablerepl=` dance, mid-run).
    SetReplicas {
        /// Sockets that hold a replica afterwards.
        sockets: NodeMask,
    },
    /// AutoNUMA rebalances data pages across `sockets`.
    AutoNumaRebalance {
        /// Sockets participating in the rebalance.
        sockets: NodeMask,
    },
    /// Toggle the interfering memory hog: loads the masked sockets, or
    /// stops interfering entirely when the mask is empty.
    SetInterference {
        /// Sockets hosting an interfering process afterwards.
        sockets: NodeMask,
    },
    /// Fork the workload process: the child shares every data frame
    /// copy-on-write and the parent's writable leaves are downgraded to
    /// read-only, so subsequent writes fault and copy (the fork/CoW
    /// fault-storm scenario).
    Fork,
    /// Map `length` bytes of lazy anonymous memory at the fixed address
    /// `addr` (the mmap side of address-space churn); pages materialise
    /// through demand faults as the workload touches them.
    MmapAt {
        /// Fixed page-aligned start address of the new region.
        addr: VirtAddr,
        /// Length of the region in bytes (page-multiple).
        length: u64,
    },
    /// Unmap `[addr, addr + length)`, splitting or shrinking any VMAs the
    /// range cuts through (the munmap side of address-space churn).
    MunmapAt {
        /// Page-aligned start address of the hole.
        addr: VirtAddr,
        /// Length of the hole in bytes (page-multiple).
        length: u64,
    },
    /// Collapse the 512 base pages at `addr` into one 2 MiB mapping
    /// (khugepaged-style promotion); a no-op if the region is not
    /// promotable or a contiguous huge frame cannot be carved.
    PromoteHuge {
        /// 2 MiB-aligned start address of the region.
        addr: VirtAddr,
    },
    /// Split the 2 MiB mapping at `addr` back into 512 base pages.
    DemoteHuge {
        /// 2 MiB-aligned start address of the huge mapping.
        addr: VirtAddr,
    },
}

impl PhaseChange {
    /// Whether applying this change rewrites page tables or moves pages —
    /// i.e. whether the hardware would see TLB shootdowns.  The engine
    /// flushes every thread's MMU (and the per-socket page-table-line
    /// caches) after such an event; interference toggles only change the
    /// cost model and flush nothing.
    pub fn mutates_mappings(&self) -> bool {
        !matches!(self, PhaseChange::SetInterference { .. })
    }

    /// Whether this change may be scheduled with a per-thread filter
    /// (a staggered boundary).
    ///
    /// Data-page moves ([`PhaseChange::MigrateData`],
    /// [`PhaseChange::AutoNumaRebalance`]) and interference toggles can be
    /// observed late by a core — stale TLB entries still name valid frames,
    /// they just live on the old socket.  Page-table migration and replica
    /// resizing *free* page tables, so every core must take the broadcast
    /// shootdown at once (a stale root or paging-structure-cache entry into
    /// a freed table would be a use-after-free); those changes only fire
    /// globally.
    pub fn supports_thread_filter(&self) -> bool {
        matches!(
            self,
            PhaseChange::MigrateData { .. }
                | PhaseChange::AutoNumaRebalance { .. }
                | PhaseChange::SetInterference { .. }
        )
    }

    /// Whether this change operates on page tables through the Mitosis
    /// backend (page-table migration, replica resizing), which the system
    /// must have been built with.
    pub fn needs_mitosis(&self) -> bool {
        matches!(
            self,
            PhaseChange::MigratePageTable { .. } | PhaseChange::SetReplicas { .. }
        )
    }

    /// Whether this change is address-space churn: a fork, an mmap or
    /// munmap at a fixed address, or a huge-page promotion or demotion.
    ///
    /// Churn happens only in the measured phase:
    /// [`PreparedSystem::build`](crate::PreparedSystem::build) refuses it
    /// as a setup step, so a setup never unmaps.  Mid-run it punches holes
    /// into the premapped footprint or allocates and frees frames, which is
    /// why replay does not shard a trace whose lanes carry it.
    pub fn is_churn(&self) -> bool {
        matches!(
            self,
            PhaseChange::Fork
                | PhaseChange::MmapAt { .. }
                | PhaseChange::MunmapAt { .. }
                | PhaseChange::PromoteHuge { .. }
                | PhaseChange::DemoteHuge { .. }
        )
    }

    /// Whether ranged-shootdown mode can satisfy this change with the exact
    /// ranges its [`MappingTx`](mitosis_pt::MappingTx) records.
    ///
    /// Page-table migration and replica resizing replace whole page-table
    /// trees — ranged invalidation cannot name every stale
    /// paging-structure-cache entry, so those changes escalate to a full
    /// flush even in ranged mode.  Everything else (data migration, churn,
    /// fork downgrades) names its invalidated pages exactly.
    pub fn supports_ranged_shootdown(&self) -> bool {
        !matches!(
            self,
            PhaseChange::MigratePageTable { .. } | PhaseChange::SetReplicas { .. }
        )
    }
}

/// A [`PhaseChange`] scheduled at an access-count boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Number of accesses every thread has executed when the change fires
    /// (0 = before the first access).
    pub at_access: u64,
    /// The mutation to apply.
    pub change: PhaseChange,
    /// `None`: every thread observes the change at the boundary (the
    /// classic all-threads-agree semantics).  `Some(t)`: only thread `t`
    /// takes the TLB invalidation and state refresh — a staggered
    /// boundary.  An index at or beyond the run's thread count means *no*
    /// local thread observes the change (it still mutates the system);
    /// lane-granular replay uses that to keep a lane subset's system
    /// evolution in lockstep with the whole-trace replay.
    pub thread: Option<usize>,
}

/// A sorted schedule of phase-change events for one measured run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSchedule {
    events: Vec<PhaseEvent>,
}

impl PhaseSchedule {
    /// An empty schedule (a plain static run).
    pub fn new() -> Self {
        PhaseSchedule::default()
    }

    /// Builds a schedule from events in any order; events are sorted into
    /// the canonical firing order (see [`PhaseSchedule::at_thread`]).
    ///
    /// # Panics
    ///
    /// Panics if a thread-filtered event carries a change that does not
    /// support staggering (see [`PhaseChange::supports_thread_filter`]).
    pub fn from_events<I: IntoIterator<Item = PhaseEvent>>(events: I) -> Self {
        let mut events: Vec<PhaseEvent> = events.into_iter().collect();
        for event in &events {
            assert!(
                event.thread.is_none() || event.change.supports_thread_filter(),
                "{:?} frees page tables and cannot be thread-filtered \
                 (the shootdown is inherently broadcast)",
                event.change
            );
        }
        Self::sort_canonical(&mut events);
        PhaseSchedule { events }
    }

    /// The canonical firing order: ascending boundary; within a boundary,
    /// global events first (in insertion order), then staggered events in
    /// ascending thread order.  Capture records markers in firing order and
    /// replay reconstructs the schedule from them, so a canonical order —
    /// derivable from the markers alone — is what makes the round trip
    /// exact.
    fn sort_canonical(events: &mut [PhaseEvent]) {
        events.sort_by_key(|e| (e.at_access, e.thread.is_some(), e.thread.unwrap_or(0)));
    }

    /// Appends a change firing once every thread has executed `at_access`
    /// accesses (builder style).
    pub fn at(mut self, at_access: u64, change: PhaseChange) -> Self {
        self.events.push(PhaseEvent {
            at_access,
            change,
            thread: None,
        });
        Self::sort_canonical(&mut self.events);
        self
    }

    /// Appends a change observed only by thread `thread`, firing once every
    /// thread has executed `at_access` accesses (a staggered boundary; see
    /// the module docs for the exact semantics).
    ///
    /// # Panics
    ///
    /// Panics if `change` does not support a thread filter (see
    /// [`PhaseChange::supports_thread_filter`]).
    pub fn at_thread(mut self, at_access: u64, thread: usize, change: PhaseChange) -> Self {
        assert!(
            change.supports_thread_filter(),
            "{change:?} frees page tables and cannot be thread-filtered \
             (the shootdown is inherently broadcast)"
        );
        self.events.push(PhaseEvent {
            at_access,
            change,
            thread: Some(thread),
        });
        Self::sort_canonical(&mut self.events);
        self
    }

    /// The scheduled events, sorted by boundary.
    pub fn events(&self) -> &[PhaseEvent] {
        &self.events
    }

    /// `true` if any event carries a thread filter.
    pub fn is_staggered(&self) -> bool {
        self.events.iter().any(|e| e.thread.is_some())
    }

    /// Re-indexes the thread filters through `map`, preserving the firing
    /// order of every event.
    ///
    /// Lane-granular replay uses this when replaying a subset of a trace's
    /// lanes: filters targeting a selected lane are remapped to the lane's
    /// local thread index, filters targeting an absent lane map to an
    /// out-of-range index (`map` returns `None`) so the change still
    /// mutates the system — keeping the subset's system evolution identical
    /// to the whole-trace replay — while no local thread observes it.
    pub fn retarget_threads<F: Fn(usize) -> Option<usize>>(&self, map: F) -> PhaseSchedule {
        PhaseSchedule {
            events: self
                .events
                .iter()
                .map(|event| PhaseEvent {
                    thread: event.thread.map(|t| map(t).unwrap_or(usize::MAX)),
                    ..*event
                })
                .collect(),
        }
    }

    /// `true` if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The largest scheduled boundary, or 0 for an empty schedule.
    pub fn last_boundary(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at_access)
    }

    /// The segment boundaries of a run of `accesses_per_thread` accesses:
    /// every distinct event boundary inside the run, in ascending order,
    /// terminated by `accesses_per_thread` itself.  Events scheduled at or
    /// beyond the end of the run fire after its last access.
    pub fn boundaries(&self, accesses_per_thread: u64) -> Vec<u64> {
        let mut boundaries: Vec<u64> = self
            .events
            .iter()
            .map(|e| e.at_access.min(accesses_per_thread))
            .collect();
        boundaries.push(accesses_per_thread);
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries
    }

    /// The events firing at boundary `at` of a run of
    /// `accesses_per_thread` accesses, in schedule order.
    pub fn events_at(
        &self,
        at: u64,
        accesses_per_thread: u64,
    ) -> impl Iterator<Item = &PhaseEvent> + '_ {
        self.events
            .iter()
            .filter(move |e| e.at_access.min(accesses_per_thread) == at)
    }

    /// The changes firing at boundary `at` of a run of
    /// `accesses_per_thread` accesses, in schedule order.
    pub fn changes_at(
        &self,
        at: u64,
        accesses_per_thread: u64,
    ) -> impl Iterator<Item = PhaseChange> + '_ {
        self.events_at(at, accesses_per_thread).map(|e| e.change)
    }
}

/// Fails with the frame allocator's error for a socket it lacks,
/// [`MemError::OutOfMemory`], when `sockets` names a socket beyond
/// `system`'s machine: a step or change naming one would otherwise fall
/// back to another socket, or apply to nothing, without a word.
pub(crate) fn check_sockets(
    system: &System,
    sockets: impl IntoIterator<Item = SocketId>,
) -> Result<(), VmError> {
    let count = system.machine().sockets();
    match sockets.into_iter().find(|socket| socket.index() >= count) {
        Some(socket) => Err(VmError::Mem(MemError::OutOfMemory { socket })),
        None => Ok(()),
    }
}

/// Applies one phase change to a live system.
///
/// This is the single point both the live engine and trace replay funnel
/// through, which is what makes a dynamic run reproducible: the same
/// change applied to the same system state yields the same system state.
///
/// # Errors
///
/// Returns [`VmError::Mem`] with [`MemError::OutOfMemory`] for a socket the
/// machine lacks, before anything changes.  Propagates VM, allocation and
/// Mitosis policy errors.
pub fn apply_phase_change(
    system: &mut System,
    mitosis: &mut Mitosis,
    pid: Pid,
    change: PhaseChange,
) -> Result<(), MitosisError> {
    match change {
        PhaseChange::MigrateData { target } => {
            check_sockets(system, [target])?;
            system.migrate_data(pid, target)?;
        }
        PhaseChange::MigratePageTable { target } => {
            check_sockets(system, [target])?;
            mitosis.migrate_page_table(system, pid, target, true)?;
        }
        PhaseChange::SetReplicas { sockets } => {
            check_sockets(system, sockets.iter())?;
            mitosis.resize_replicas(system, pid, sockets)?;
        }
        PhaseChange::AutoNumaRebalance { sockets } => {
            check_sockets(system, sockets.iter())?;
            let sockets: Vec<SocketId> = sockets.iter().collect();
            AutoNuma::new().rebalance(system, pid, &sockets)?;
        }
        PhaseChange::SetInterference { sockets } => {
            check_sockets(system, sockets.iter())?;
            let interference = if sockets.is_empty() {
                Interference::none()
            } else {
                Interference::on(sockets.iter())
            };
            system
                .machine_mut()
                .cost_model_mut()
                .set_interference(interference);
        }
        PhaseChange::Fork => {
            system.fork(pid)?;
        }
        PhaseChange::MmapAt { addr, length } => {
            system.mmap_at(pid, addr, length, MmapFlags::lazy())?;
        }
        PhaseChange::MunmapAt { addr, length } => {
            system.munmap(pid, addr, length)?;
        }
        PhaseChange::PromoteHuge { addr } => {
            system.promote_huge(pid, addr)?;
        }
        PhaseChange::DemoteHuge { addr } => {
            system.demote_huge(pid, addr)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_and_deduplicates_boundaries() {
        let schedule = PhaseSchedule::new()
            .at(
                500,
                PhaseChange::MigrateData {
                    target: SocketId::new(1),
                },
            )
            .at(
                100,
                PhaseChange::SetInterference {
                    sockets: NodeMask::single(SocketId::new(1)),
                },
            )
            .at(
                500,
                PhaseChange::SetReplicas {
                    sockets: NodeMask::all(2),
                },
            );
        assert_eq!(schedule.events().len(), 3);
        assert_eq!(schedule.boundaries(1000), vec![100, 500, 1000]);
        // Two events fire at 500, in insertion order.
        let at_500: Vec<PhaseChange> = schedule.changes_at(500, 1000).collect();
        assert_eq!(at_500.len(), 2);
        assert!(matches!(at_500[0], PhaseChange::MigrateData { .. }));
        assert!(matches!(at_500[1], PhaseChange::SetReplicas { .. }));
    }

    #[test]
    fn boundaries_clamp_to_the_run_length() {
        let schedule = PhaseSchedule::new().at(
            5_000,
            PhaseChange::MigrateData {
                target: SocketId::new(1),
            },
        );
        // Event beyond the run fires at its end.
        assert_eq!(schedule.boundaries(1000), vec![1000]);
        assert_eq!(schedule.changes_at(1000, 1000).count(), 1);
        assert_eq!(schedule.last_boundary(), 5_000);
    }

    #[test]
    fn empty_schedule_has_one_segment() {
        let schedule = PhaseSchedule::new();
        assert!(schedule.is_empty());
        assert_eq!(schedule.boundaries(700), vec![700]);
        assert_eq!(schedule.changes_at(700, 700).count(), 0);
    }

    #[test]
    fn staggered_events_sort_after_globals_and_by_thread() {
        let schedule = PhaseSchedule::new()
            .at_thread(
                100,
                2,
                PhaseChange::MigrateData {
                    target: SocketId::new(1),
                },
            )
            .at_thread(
                100,
                0,
                PhaseChange::SetInterference {
                    sockets: NodeMask::EMPTY,
                },
            )
            .at(
                100,
                PhaseChange::MigrateData {
                    target: SocketId::new(2),
                },
            );
        let threads: Vec<Option<usize>> = schedule.events().iter().map(|e| e.thread).collect();
        assert_eq!(threads, vec![None, Some(0), Some(2)]);
        assert!(schedule.is_staggered());
        assert!(!PhaseSchedule::new().is_staggered());

        // from_events produces the same canonical order.
        let rebuilt = PhaseSchedule::from_events(schedule.events().iter().rev().copied());
        assert_eq!(rebuilt, schedule);
    }

    #[test]
    fn retargeting_preserves_order_and_maps_absent_threads_out_of_range() {
        let schedule = PhaseSchedule::new()
            .at_thread(
                50,
                3,
                PhaseChange::MigrateData {
                    target: SocketId::new(1),
                },
            )
            .at_thread(
                50,
                1,
                PhaseChange::SetInterference {
                    sockets: NodeMask::EMPTY,
                },
            );
        // Replaying only lane 3: thread 3 becomes local thread 0, thread 1
        // is absent.
        let selected = [3usize];
        let remapped = schedule.retarget_threads(|t| selected.iter().position(|&lane| lane == t));
        let threads: Vec<Option<usize>> = remapped.events().iter().map(|e| e.thread).collect();
        assert_eq!(threads, vec![Some(usize::MAX), Some(0)]);
        // Firing order is preserved even though the remapped indices would
        // sort differently.
        assert!(matches!(
            remapped.events()[0].change,
            PhaseChange::SetInterference { .. }
        ));
        assert!(matches!(
            remapped.events()[1].change,
            PhaseChange::MigrateData { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "cannot be thread-filtered")]
    fn page_table_freeing_changes_reject_thread_filters() {
        let _ = PhaseSchedule::new().at_thread(
            10,
            0,
            PhaseChange::SetReplicas {
                sockets: NodeMask::EMPTY,
            },
        );
    }

    #[test]
    fn interference_toggle_does_not_flush_mappings() {
        assert!(!PhaseChange::SetInterference {
            sockets: NodeMask::EMPTY
        }
        .mutates_mappings());
        assert!(PhaseChange::SetReplicas {
            sockets: NodeMask::all(2)
        }
        .mutates_mappings());
        assert!(PhaseChange::MigrateData {
            target: SocketId::new(0)
        }
        .mutates_mappings());
    }
}
