//! AutoNUMA-style background data-page migration.
//!
//! Linux's AutoNUMA periodically unmaps pages, observes which socket faults
//! on them next and migrates the data to that socket.  Two behavioural facts
//! matter for the paper:
//!
//! 1. data pages *do* move towards the threads that access them, and
//! 2. page-table pages are **never** migrated (paper §3.1 observation 4).
//!
//! This module models exactly that: data pages are migrated towards their
//! accessors (either a single home socket, or balanced across the sockets a
//! multi-threaded workload runs on) by re-allocating the frame and rewriting
//! the leaf PTE through PV-Ops; page-table pages stay where they were
//! allocated.

use crate::error::VmError;
use crate::process::Pid;
use crate::system::System;
use mitosis_mem::MemError;
use mitosis_numa::SocketId;
use mitosis_pt::VirtAddr;

/// The AutoNUMA data-page migration daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoNuma {
    /// Maximum number of pages migrated per scan (rate limiting, like
    /// `numa_balancing_scan_size_mb`).
    pub max_pages_per_scan: usize,
}

impl AutoNuma {
    /// Creates a daemon with a generous default scan budget.
    pub fn new() -> Self {
        AutoNuma {
            max_pages_per_scan: usize::MAX,
        }
    }

    /// Limits the number of pages migrated per scan.
    pub fn with_scan_budget(mut self, pages: usize) -> Self {
        self.max_pages_per_scan = pages;
        self
    }

    /// Migrates data pages of `pid` towards its current home socket
    /// (the single-socket / workload-migration scenario).  Returns the number
    /// of pages migrated.
    ///
    /// # Errors
    ///
    /// Propagates allocation and page-table errors.
    pub fn scan_toward_home(&self, system: &mut System, pid: Pid) -> Result<u64, VmError> {
        let target = system.process(pid)?.home_socket();
        let candidates = self.remote_pages(system, pid, target)?;
        let mut moved = 0;
        for addr in candidates.into_iter().take(self.max_pages_per_scan) {
            // Migration is best effort, as in Linux: pages that cannot be
            // placed on the target (it is out of memory or too fragmented)
            // are simply skipped.
            match system.migrate_data_page(pid, addr, target) {
                Ok(true) => moved += 1,
                Ok(false) => {}
                Err(VmError::Mem(_)) => {}
                Err(other) => return Err(other),
            }
        }
        Ok(moved)
    }

    /// Balances data pages of `pid` across `sockets`, approximating the
    /// steady state AutoNUMA reaches for a workload whose threads on all
    /// those sockets touch the data (the multi-socket scenario).  Returns
    /// the number of pages migrated.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] (as [`VmError::Mem`]) for a socket
    /// the machine lacks, and propagates allocation and page-table errors.
    pub fn rebalance(
        &self,
        system: &mut System,
        pid: Pid,
        sockets: &[SocketId],
    ) -> Result<u64, VmError> {
        if let Some(&socket) = sockets
            .iter()
            .find(|socket| socket.index() >= system.machine().sockets())
        {
            return Err(MemError::OutOfMemory { socket }.into());
        }
        if sockets.is_empty() {
            return Ok(0);
        }
        let mappings: Vec<(VirtAddr, SocketId)> = {
            let process = system.process(pid)?;
            let roots = process.address_space().roots().clone();
            mitosis_pt::iter_leaf_mappings(&system.pt_env().store, roots.base())
                .into_iter()
                .map(|m| {
                    (
                        m.addr,
                        system.pt_env().alloc.frame_space().socket_of(m.frame),
                    )
                })
                .collect()
        };
        // Count current occupancy on the participating sockets.
        let mut count = vec![0u64; system.machine().sockets()];
        for (_, socket) in &mappings {
            count[socket.index()] += 1;
        }
        let participating: u64 = sockets.iter().map(|s| count[s.index()]).sum();
        let stray: u64 = mappings.len() as u64 - participating;
        let target_per_socket = (mappings.len() as u64).div_ceil(sockets.len() as u64);
        let _ = stray;

        let mut moved = 0u64;
        let mut budget = self.max_pages_per_scan;
        // Move pages from over-full sockets (or sockets outside the set) to
        // the most under-full participating socket.
        for (addr, current) in mappings {
            if budget == 0 {
                break;
            }
            let over_full =
                sockets.contains(&current) && count[current.index()] > target_per_socket;
            let outside = !sockets.contains(&current);
            if !(over_full || outside) {
                continue;
            }
            let destination = sockets
                .iter()
                .copied()
                .min_by_key(|s| count[s.index()])
                .expect("sockets is non-empty");
            if destination == current || count[destination.index()] >= target_per_socket {
                continue;
            }
            match system.migrate_data_page(pid, addr, destination) {
                Ok(true) => {
                    count[current.index()] -= 1;
                    count[destination.index()] += 1;
                    moved += 1;
                    budget -= 1;
                }
                Ok(false) => {}
                // Best effort: skip pages the destination cannot take.
                Err(VmError::Mem(_)) => {}
                Err(other) => return Err(other),
            }
        }
        Ok(moved)
    }

    /// Lists the addresses of data pages of `pid` that do not reside on
    /// `target`.
    fn remote_pages(
        &self,
        system: &System,
        pid: Pid,
        target: SocketId,
    ) -> Result<Vec<VirtAddr>, VmError> {
        let process = system.process(pid)?;
        let roots = process.address_space().roots().clone();
        Ok(
            mitosis_pt::iter_leaf_mappings(&system.pt_env().store, roots.base())
                .into_iter()
                .filter(|m| system.pt_env().alloc.frame_space().socket_of(m.frame) != target)
                .map(|m| m.addr)
                .collect(),
        )
    }
}

impl Default for AutoNuma {
    fn default() -> Self {
        AutoNuma::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::MmapFlags;
    use mitosis_numa::MachineConfig;

    fn populated_system() -> (System, Pid, VirtAddr) {
        let machine = MachineConfig::two_socket_small().build();
        let mut system = System::new(machine);
        let pid = system.create_process(SocketId::new(0)).unwrap();
        let addr = system.mmap(pid, 32 * 4096, MmapFlags::populate()).unwrap();
        (system, pid, addr)
    }

    #[test]
    fn scan_toward_home_moves_remote_pages_only() {
        let (mut system, pid, _) = populated_system();
        // Everything is on socket 0 and the process lives there: no movement.
        let moved = AutoNuma::new().scan_toward_home(&mut system, pid).unwrap();
        assert_eq!(moved, 0);
        // After the scheduler moves the process, data follows.
        system
            .migrate_process(pid, SocketId::new(1), false)
            .unwrap();
        let moved = AutoNuma::new().scan_toward_home(&mut system, pid).unwrap();
        assert_eq!(moved, 32);
        let footprint = system.footprint(pid).unwrap();
        assert_eq!(footprint.data_bytes[0], 0);
        // Page tables stayed on socket 0.
        assert!(footprint.pagetable_bytes[0] > 0);
        assert_eq!(footprint.pagetable_bytes[1], 0);
    }

    #[test]
    fn scan_budget_limits_migration_rate() {
        let (mut system, pid, _) = populated_system();
        system
            .migrate_process(pid, SocketId::new(1), false)
            .unwrap();
        let daemon = AutoNuma::new().with_scan_budget(10);
        assert_eq!(daemon.scan_toward_home(&mut system, pid).unwrap(), 10);
        assert_eq!(daemon.scan_toward_home(&mut system, pid).unwrap(), 10);
        assert_eq!(daemon.scan_toward_home(&mut system, pid).unwrap(), 10);
        assert_eq!(daemon.scan_toward_home(&mut system, pid).unwrap(), 2);
        assert_eq!(daemon.scan_toward_home(&mut system, pid).unwrap(), 0);
    }

    #[test]
    fn rebalance_spreads_first_touch_data_across_sockets() {
        let (mut system, pid, _) = populated_system();
        let before = system.footprint(pid).unwrap();
        assert_eq!(before.data_bytes[1], 0);
        let moved = AutoNuma::new()
            .rebalance(&mut system, pid, &[SocketId::new(0), SocketId::new(1)])
            .unwrap();
        assert!(moved > 0);
        let after = system.footprint(pid).unwrap();
        assert_eq!(after.data_bytes[0], after.data_bytes[1]);
    }

    #[test]
    fn rebalance_with_no_sockets_is_a_no_op() {
        let (mut system, pid, _) = populated_system();
        assert_eq!(AutoNuma::new().rebalance(&mut system, pid, &[]).unwrap(), 0);
    }
}
