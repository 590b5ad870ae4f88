//! The user-facing policy interface (paper §6.2, Listing 2).
//!
//! The paper extends `libnuma` with
//! `numa_set_pgtable_replication_mask(struct bitmask *)` and `numactl` with a
//! `--pgtablerepl= | -r <sockets>` option, so existing programs can opt into
//! page-table replication without modification.  This module mirrors both: a
//! direct function for the libnuma call and a builder that bundles the
//! `numactl` options used throughout the evaluation (CPU binding, data
//! placement and page-table replication).

use crate::controller::Mitosis;
use crate::error::MitosisError;
use crate::replication::ReplicaSummary;
use mitosis_mem::PlacementPolicy;
use mitosis_numa::{NodeMask, SocketId};
use mitosis_vmm::{Pid, System};

/// `numa_set_pgtable_replication_mask(mask)`: requests replication of the
/// calling process' page tables on the sockets in `mask`.
///
/// Passing an empty mask restores the default (no replication), exactly as
/// in the paper.  Returns the replication summary, or `None` when the call
/// tore replication down.
///
/// # Errors
///
/// Propagates policy and allocation errors.
pub fn numa_set_pgtable_replication_mask(
    mitosis: &mut Mitosis,
    system: &mut System,
    pid: Pid,
    mask: NodeMask,
) -> Result<Option<ReplicaSummary>, MitosisError> {
    if mask.is_empty() {
        mitosis.disable_for_process(system, pid)?;
        Ok(None)
    } else {
        Ok(Some(mitosis.enable_for_process(system, pid, Some(mask))?))
    }
}

/// A `numactl` invocation: CPU binding, data placement and page-table
/// replication for one process.
///
/// # Example
///
/// ```
/// use mitosis::{Mitosis, NumactlCommand};
/// use mitosis_numa::{MachineConfig, NodeMask, SocketId};
/// use mitosis_vmm::MmapFlags;
///
/// let machine = MachineConfig::two_socket_small().build();
/// let mut mitosis = Mitosis::new();
/// let mut system = mitosis.install(machine);
/// let pid = system.create_process(SocketId::new(0))?;
/// system.mmap(pid, 1024 * 1024, MmapFlags::populate())?;
///
/// // numactl --cpunodebind=1 --interleave=all --pgtablerepl=all <workload>
/// NumactlCommand::new()
///     .cpunodebind(SocketId::new(1))
///     .interleave(NodeMask::all(2))
///     .pgtablerepl(NodeMask::all(2))
///     .apply(&mut mitosis, &mut system, pid)?;
///
/// assert_eq!(system.process(pid)?.home_socket(), SocketId::new(1));
/// assert!(system.process(pid)?.replication().is_enabled());
/// # Ok::<(), mitosis::MitosisError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NumactlCommand {
    cpunodebind: Option<SocketId>,
    membind: Option<SocketId>,
    interleave: Option<NodeMask>,
    pgtablerepl: Option<NodeMask>,
}

impl NumactlCommand {
    /// Creates an empty command (no options).
    pub fn new() -> Self {
        NumactlCommand::default()
    }

    /// `--cpunodebind=<socket>`: run the process on the given socket.
    pub fn cpunodebind(mut self, socket: SocketId) -> Self {
        self.cpunodebind = Some(socket);
        self
    }

    /// `--membind=<socket>`: allocate data strictly on the given socket.
    pub fn membind(mut self, socket: SocketId) -> Self {
        self.membind = Some(socket);
        self
    }

    /// `--interleave=<sockets>`: interleave data across the given sockets.
    pub fn interleave(mut self, mask: NodeMask) -> Self {
        self.interleave = Some(mask);
        self
    }

    /// `--pgtablerepl=<sockets>` / `-r <sockets>`: replicate page tables on
    /// the given sockets (the Mitosis extension).
    pub fn pgtablerepl(mut self, mask: NodeMask) -> Self {
        self.pgtablerepl = Some(mask);
        self
    }

    /// Applies the command to a process.
    ///
    /// # Errors
    ///
    /// Propagates policy and allocation errors.
    pub fn apply(
        &self,
        mitosis: &mut Mitosis,
        system: &mut System,
        pid: Pid,
    ) -> Result<(), MitosisError> {
        if let Some(socket) = self.cpunodebind {
            system.process_mut(pid)?.set_home_socket(socket);
        }
        if let Some(socket) = self.membind {
            system
                .process_mut(pid)?
                .set_data_policy(PlacementPolicy::Bind(socket));
        }
        if let Some(mask) = self.interleave {
            system
                .process_mut(pid)?
                .set_data_policy(PlacementPolicy::Interleave(mask));
        }
        if let Some(mask) = self.pgtablerepl {
            numa_set_pgtable_replication_mask(mitosis, system, pid, mask)?;
        }
        Ok(())
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
        let _ = system.mmap(pid, 256 * 4096, MmapFlags::populate()).unwrap();
        (mitosis, system, pid)
    }

    #[test]
    fn libnuma_call_enables_and_empty_mask_disables() {
        let (mut mitosis, mut system, pid) = setup();
        let summary =
            numa_set_pgtable_replication_mask(&mut mitosis, &mut system, pid, NodeMask::all(2))
                .unwrap();
        assert!(summary.is_some());
        assert!(system.process(pid).unwrap().replication().is_enabled());
        let summary =
            numa_set_pgtable_replication_mask(&mut mitosis, &mut system, pid, NodeMask::EMPTY)
                .unwrap();
        assert!(summary.is_none());
        assert!(!system.process(pid).unwrap().replication().is_enabled());
    }

    #[test]
    fn numactl_sets_cpu_data_and_pgtable_policies() {
        let (mut mitosis, mut system, pid) = setup();
        NumactlCommand::new()
            .cpunodebind(SocketId::new(1))
            .membind(SocketId::new(1))
            .pgtablerepl(NodeMask::single(SocketId::new(1)))
            .apply(&mut mitosis, &mut system, pid)
            .unwrap();
        let process = system.process(pid).unwrap();
        assert_eq!(process.home_socket(), SocketId::new(1));
        assert_eq!(
            process.data_policy().policy(),
            PlacementPolicy::Bind(SocketId::new(1))
        );
        assert!(process.replication().is_enabled());
        // The replica root for socket 1 is local to socket 1.
        let cr3 = system.cr3_for(pid, SocketId::new(1)).unwrap();
        assert_eq!(
            system.pt_env().alloc.frame_space().socket_of(cr3),
            SocketId::new(1)
        );
    }

    #[test]
    fn empty_command_is_a_no_op() {
        let (mut mitosis, mut system, pid) = setup();
        let before_policy = system.process(pid).unwrap().data_policy().policy();
        NumactlCommand::new()
            .apply(&mut mitosis, &mut system, pid)
            .unwrap();
        assert_eq!(
            system.process(pid).unwrap().data_policy().policy(),
            before_policy
        );
    }
}
