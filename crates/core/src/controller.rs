//! The Mitosis controller: installs the backend and drives replication and
//! migration on a live [`System`].

use crate::error::MitosisError;
use crate::migration::{migrate_page_table, PageTableMigration};
use crate::policy::{MitosisCtl, ReplicationDecision, SystemWideMode};
use crate::pvops::MitosisPvOps;
use crate::replication::{replicate_tree, tear_down_replicas, ReplicaSummary};
use mitosis_mmu::MmuStats;
use mitosis_numa::{Machine, NodeMask, SocketId};
use mitosis_pt::ReplicationSpec;
use mitosis_vmm::{Pid, System};

/// Top-level handle for Mitosis: policy state plus the operations a user or
/// the kernel can invoke.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone, Default)]
pub struct Mitosis {
    ctl: MitosisCtl,
    advisor: ReplicationDecision,
}

impl Mitosis {
    /// Creates a controller with the default policy (per-process mode).
    pub fn new() -> Self {
        Mitosis {
            ctl: MitosisCtl::new(),
            advisor: ReplicationDecision::new(),
        }
    }

    /// The sysctl-style control block.
    pub fn ctl(&self) -> MitosisCtl {
        self.ctl
    }

    /// Sets the system-wide mode (the sysctl write).
    pub fn set_mode(&mut self, mode: SystemWideMode) {
        self.ctl.mode = mode;
    }

    /// Builds a [`System`] whose kernel is compiled with the Mitosis PV-Ops
    /// backend, with the per-socket page-table reserves filled.
    pub fn install(&self, machine: Machine) -> System {
        let mut system = System::with_pvops(machine, Box::new(MitosisPvOps::new()));
        let env = system.pt_env_mut();
        env.page_cache.set_target(self.ctl.page_cache_target);
        // Best effort: an empty reserve only matters once memory is scarce.
        let _ = env.page_cache.refill(&mut env.alloc);
        if let SystemWideMode::FixedSocket(socket) = self.ctl.mode {
            system.set_pt_placement(mitosis_vmm::PtPlacement::Fixed(socket));
        }
        system
    }

    /// Enables page-table replication for `pid` on the sockets in `mask`
    /// (or on every socket when `None`), replicating the existing tree.
    ///
    /// This is what `numactl --pgtablerepl=<sockets>` triggers.
    ///
    /// # Errors
    ///
    /// Returns [`MitosisError::PolicyDisabled`] if the system-wide mode
    /// forbids replication, or an allocation error.
    pub fn enable_for_process(
        &mut self,
        system: &mut System,
        pid: Pid,
        mask: Option<NodeMask>,
    ) -> Result<ReplicaSummary, MitosisError> {
        if !self.ctl.mode.allows_replication() {
            return Err(MitosisError::PolicyDisabled);
        }
        let mask = mask.unwrap_or_else(|| system.machine().all_sockets());
        if mask.is_empty() {
            return Err(MitosisError::EmptyMask);
        }
        for socket in mask.iter() {
            if socket.index() >= system.machine().sockets() {
                return Err(MitosisError::InvalidSocket { socket });
            }
        }
        // Replicate the tree that already exists; a failure leaves the
        // process as it was.
        let roots = system.process(pid)?.address_space().roots().clone();
        let (new_roots, summary) = {
            let mut ctx = system.pt_env_mut().context();
            replicate_tree(&mut ctx, &roots, mask)?
        };
        let process = system.process_mut(pid)?;
        *process.address_space_mut().roots_mut() = new_roots;
        // Future page-table allocations replicate eagerly.
        process.set_replication(ReplicationSpec::on(mask));
        Ok(summary)
    }

    /// Disables replication for `pid`: replicas are freed and the process
    /// reverts to a single page table (the behaviour of passing an empty
    /// bitmask to the libnuma call).
    ///
    /// Returns the number of replica page-table pages freed.
    ///
    /// # Errors
    ///
    /// Propagates deallocation errors.
    pub fn disable_for_process(
        &mut self,
        system: &mut System,
        pid: Pid,
    ) -> Result<u64, MitosisError> {
        system
            .process_mut(pid)?
            .set_replication(ReplicationSpec::none());
        let roots = system.process(pid)?.address_space().roots().clone();
        let (new_roots, freed) = {
            let mut ctx = system.pt_env_mut().context();
            tear_down_replicas(&mut ctx, &roots)?
        };
        *system.process_mut(pid)?.address_space_mut().roots_mut() = new_roots;
        Ok(freed)
    }

    /// Sets the replica set of `pid` to exactly `mask`: a non-empty mask
    /// (re)replicates onto those sockets, an empty mask tears every replica
    /// down.
    ///
    /// This is the entry point mid-run phase-change events use to add or
    /// drop page-table replicas while a workload executes: one call, one
    /// deterministic outcome, regardless of the previous replica set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mitosis::enable_for_process`] /
    /// [`Mitosis::disable_for_process`].
    pub fn resize_replicas(
        &mut self,
        system: &mut System,
        pid: Pid,
        mask: NodeMask,
    ) -> Result<Option<ReplicaSummary>, MitosisError> {
        if mask.is_empty() {
            self.disable_for_process(system, pid)?;
            Ok(None)
        } else {
            // Drop any existing replicas first so the new set is exactly
            // `mask` (enable replicates the *base* tree onto each socket).
            if system.process(pid)?.replication().is_enabled() {
                self.disable_for_process(system, pid)?;
            }
            Ok(Some(self.enable_for_process(system, pid, Some(mask))?))
        }
    }

    /// Migrates the page tables of `pid` to `target`, optionally freeing the
    /// source copy (paper §5.5).
    ///
    /// # Errors
    ///
    /// Propagates allocation errors.
    pub fn migrate_page_table(
        &self,
        system: &mut System,
        pid: Pid,
        target: SocketId,
        free_source: bool,
    ) -> Result<PageTableMigration, MitosisError> {
        let roots = system.process(pid)?.address_space().roots().clone();
        let (new_roots, migration) = {
            let mut ctx = system.pt_env_mut().context();
            migrate_page_table(&mut ctx, &roots, target, free_source)?
        };
        *system.process_mut(pid)?.address_space_mut().roots_mut() = new_roots;
        Ok(migration)
    }

    /// Fully migrates a process to `target` the Mitosis way: the scheduler
    /// moves the threads, the NUMA balancer moves the data pages *and* the
    /// page tables follow.  Returns the number of data pages moved and the
    /// page-table migration statistics.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors.
    pub fn migrate_process(
        &self,
        system: &mut System,
        pid: Pid,
        target: SocketId,
    ) -> Result<(u64, PageTableMigration), MitosisError> {
        let data_pages = system.migrate_process(pid, target, true)?;
        let migration = self.migrate_page_table(system, pid, target, true)?;
        Ok((data_pages, migration))
    }

    /// Applies the automatic, counter-driven policy: if the observed MMU
    /// statistics justify it, enables replication for `pid` on
    /// `run_sockets` and returns the summary.
    ///
    /// # Errors
    ///
    /// Propagates replication errors.
    pub fn maybe_enable_by_counters(
        &mut self,
        system: &mut System,
        pid: Pid,
        stats: &MmuStats,
        run_sockets: NodeMask,
    ) -> Result<Option<ReplicaSummary>, MitosisError> {
        if !self.ctl.mode.allows_replication() {
            return Ok(None);
        }
        match self.advisor.recommend(stats, run_sockets) {
            Some(mask) => Ok(Some(self.enable_for_process(system, pid, Some(mask))?)),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_numa::MachineConfig;
    use mitosis_vmm::MmapFlags;

    fn setup() -> (Mitosis, System, Pid) {
        let machine = MachineConfig::two_socket_small().build();
        let mitosis = Mitosis::new();
        let mut system = mitosis.install(machine);
        let pid = system.create_process(SocketId::new(0)).unwrap();
        let _ = system
            .mmap(pid, 2 * 1024 * 1024, MmapFlags::populate())
            .unwrap();
        (mitosis, system, pid)
    }

    #[test]
    fn install_uses_the_mitosis_backend_and_fills_the_reserve() {
        let mitosis = Mitosis::new();
        let system = mitosis.install(MachineConfig::two_socket_small().build());
        assert!(system.pt_env().page_cache.reserved(SocketId::new(0)) > 0);
    }

    #[test]
    fn enable_creates_per_socket_roots_and_future_mappings_replicate() {
        let (mut mitosis, mut system, pid) = setup();
        let summary = mitosis.enable_for_process(&mut system, pid, None).unwrap();
        assert!(summary.replica_tables_created > 0);
        let cr3_0 = system.cr3_for(pid, SocketId::new(0)).unwrap();
        let cr3_1 = system.cr3_for(pid, SocketId::new(1)).unwrap();
        assert_ne!(cr3_0, cr3_1);
        assert_eq!(
            system.pt_env().alloc.frame_space().socket_of(cr3_1),
            SocketId::new(1)
        );

        // New mappings are reflected in both replicas.
        let addr = system.mmap(pid, 64 * 4096, MmapFlags::populate()).unwrap();
        let env = system.pt_env();
        let t0 = mitosis_pt::translate(&env.store, cr3_0, addr).unwrap();
        let t1 = mitosis_pt::translate(&env.store, cr3_1, addr).unwrap();
        assert_eq!(t0.frame, t1.frame);
    }

    #[test]
    fn disable_tears_replicas_down() {
        let (mut mitosis, mut system, pid) = setup();
        mitosis.enable_for_process(&mut system, pid, None).unwrap();
        let tables_with_replicas = system.pt_env().store.table_count();
        let freed = mitosis.disable_for_process(&mut system, pid).unwrap();
        assert!(freed > 0);
        assert!(system.pt_env().store.table_count() < tables_with_replicas);
        assert_eq!(
            system.cr3_for(pid, SocketId::new(0)).unwrap(),
            system.cr3_for(pid, SocketId::new(1)).unwrap()
        );
        assert!(!system.process(pid).unwrap().replication().is_enabled());
    }

    #[test]
    fn disabled_mode_rejects_replication_requests() {
        let (mut mitosis, mut system, pid) = setup();
        mitosis.set_mode(SystemWideMode::Disabled);
        assert_eq!(
            mitosis.enable_for_process(&mut system, pid, None),
            Err(MitosisError::PolicyDisabled)
        );
    }

    #[test]
    fn invalid_mask_is_rejected() {
        let (mut mitosis, mut system, pid) = setup();
        let err = mitosis
            .enable_for_process(&mut system, pid, Some(NodeMask::single(SocketId::new(9))))
            .unwrap_err();
        assert!(matches!(err, MitosisError::InvalidSocket { .. }));
    }

    #[test]
    fn full_mitosis_migration_moves_data_and_page_tables() {
        let (mitosis, mut system, pid) = setup();
        let before = system.footprint(pid).unwrap();
        assert!(before.pagetable_bytes[0] > 0);
        let (data_pages, migration) = mitosis
            .migrate_process(&mut system, pid, SocketId::new(1))
            .unwrap();
        assert!(data_pages > 0);
        assert!(migration.tables_created > 0);
        assert!(migration.tables_freed > 0);
        let after = system.footprint(pid).unwrap();
        assert_eq!(after.data_bytes[0], 0);
        assert_eq!(after.pagetable_bytes[0], 0);
        assert!(after.pagetable_bytes[1] > 0);
        assert_eq!(system.process(pid).unwrap().home_socket(), SocketId::new(1));
    }

    #[test]
    fn counter_policy_enables_replication_only_when_justified() {
        let (mut mitosis, mut system, pid) = setup();
        let mut stats = MmuStats::default();
        // Quiet process: nothing happens.
        assert!(mitosis
            .maybe_enable_by_counters(&mut system, pid, &stats, NodeMask::all(2))
            .unwrap()
            .is_none());
        // Walk-heavy, remote-heavy process: replication kicks in.
        stats.accesses = 1_000_000;
        stats.tlb_misses = 200_000;
        stats.walk.local_dram_accesses = 50_000;
        stats.walk.remote_dram_accesses = 150_000;
        let summary = mitosis
            .maybe_enable_by_counters(&mut system, pid, &stats, NodeMask::all(2))
            .unwrap();
        assert!(summary.is_some());
    }
}
