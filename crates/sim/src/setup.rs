//! Scenario setup as data: the steps that build a system before its
//! measured phase, and the one interpreter that applies them.
//!
//! Every experiment is a placement applied before a measured run — Table
//! 2's local or remote page tables and data, first-touch, interleave,
//! AutoNUMA, replication.  The runners ([`MultiSocketScenario`],
//! [`WorkloadMigrationScenario`]) describe their setup as a list of
//! [`SetupStep`]s, and a trace carries that same list: capture writes the
//! steps themselves as the trace's setup events and replay reads them
//! back.  All three then call [`PreparedSystem::build`].  One vocabulary
//! and one interpreter mean a live run, its capture and its replay cannot
//! disagree about what the setup did.
//!
//! [`MultiSocketScenario`]: crate::MultiSocketScenario
//! [`WorkloadMigrationScenario`]: crate::WorkloadMigrationScenario

use crate::dynamics::{apply_phase_change, check_sockets, PhaseChange};
use crate::engine::ExecutionEngine;
use crate::params::SimParams;
use mitosis::{Mitosis, MitosisError};
use mitosis_mem::{FragmentationModel, PlacementPolicy};
use mitosis_numa::{NodeMask, SocketId};
use mitosis_pt::VirtAddr;
use mitosis_vmm::{MmapFlags, Pid, PtPlacement, System, ThpMode};
use mitosis_workloads::InitPattern;

/// One step of a scenario's setup, applied by [`PreparedSystem::build`].
///
/// A trace records each step as one setup event — a [`SetupStep::Change`]
/// with the wire code of its phase change — and decodes it back to the
/// same step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupStep {
    /// Build the system with the Mitosis PV-Ops backend.  Anywhere before
    /// [`SetupStep::CreateProcess`]; the backend is chosen when the system
    /// is created, so the step's position does not matter otherwise.
    InstallMitosis,
    /// Set the transparent-huge-page mode.
    SetThp(ThpMode),
    /// Allocate every later page-table page on this socket.
    PtPlacement(SocketId),
    /// Create the workload process, homed on this socket.
    CreateProcess(SocketId),
    /// Bind the process's data to this socket.
    BindData(SocketId),
    /// Interleave the process's data across these sockets.
    InterleaveData(NodeMask),
    /// Map the workload region.
    Mmap {
        /// Length in bytes.
        len: u64,
        /// Populate the region at mmap time.
        populate: bool,
        /// Allow 2 MiB pages in the region.
        thp: bool,
    },
    /// Touch the first `len` bytes of the region the way the program
    /// initialises them (see [`ExecutionEngine::populate`]; the sockets
    /// take part in ascending order).
    Populate {
        /// Bytes to touch.
        len: u64,
        /// One initialising thread, or one per socket.
        init: InitPattern,
        /// The initialising sockets.
        sockets: NodeMask,
    },
    /// Apply a phase change before the measured phase: data or page-table
    /// migration, the replica set, AutoNUMA or interference.  Address-space
    /// churn ([`PhaseChange::is_churn`]) is refused.
    Change(PhaseChange),
}

/// A fully prepared simulated system: setup executed (process created,
/// region mapped, data populated, placement/replication applied), measured
/// phase not yet run.
///
/// This is the engine's prepare/run split.  [`PreparedSystem::build`]
/// runs a scenario's [`SetupStep`]s — the same list whether they come
/// from a runner, a capture or a trace's setup events — and the measured
/// phase runs from the result as many times as needed.  Cloning is a deep
/// copy of the whole simulated state (page tables with their replica rings,
/// frame allocator, processes, Mitosis policy), so every clone starts the
/// measured phase from bit-identical state; running from a clone is
/// indistinguishable from re-executing the setup.  That makes the clone
/// the cheap unit of fan-out for parallel replay: workers copy the
/// snapshot instead of re-deriving it from events.
#[derive(Debug, Clone)]
pub struct PreparedSystem {
    /// The system with every setup step applied.
    pub system: System,
    /// The Mitosis controller paired with the system (policy state used by
    /// mid-run replica/page-table events).
    pub mitosis: Mitosis,
    /// The prepared workload process.
    pub pid: Pid,
    /// Start of the workload's memory region.
    pub region: VirtAddr,
}

impl PreparedSystem {
    /// Builds `params`' machine — with the Mitosis backend when `steps`
    /// contain [`SetupStep::InstallMitosis`] — applies
    /// `params.fragmentation` and `params.shootdown_mode`, and runs `steps`
    /// in order.
    ///
    /// # Errors
    ///
    /// Returns [`MitosisError::InvalidSetup`] naming the first step that
    /// cannot apply: [`SetupStep::InstallMitosis`] after the process
    /// exists, a second [`SetupStep::CreateProcess`], a step that needs the
    /// process before the first, a populate before [`SetupStep::Mmap`],
    /// page-table migration or replicas without
    /// [`SetupStep::InstallMitosis`], address-space churn, or a list that
    /// never creates the process or maps its region.  A step naming a
    /// socket the machine lacks fails as the allocator does, with
    /// [`MemError::OutOfMemory`] in a [`VmError::Mem`].  Propagates the VM
    /// and Mitosis errors of the steps themselves.
    ///
    /// [`MemError::OutOfMemory`]: mitosis_mem::MemError::OutOfMemory
    /// [`VmError::Mem`]: mitosis_vmm::VmError::Mem
    pub fn build(params: &SimParams, steps: &[SetupStep]) -> Result<Self, MitosisError> {
        let mut mitosis = Mitosis::new();
        let installed = steps.contains(&SetupStep::InstallMitosis);
        let mut system = if installed {
            mitosis.install(params.machine())
        } else {
            System::new(params.machine())
        };
        if let Some(probability) = params.fragmentation {
            system
                .pt_env_mut()
                .alloc
                .set_fragmentation(FragmentationModel::with_probability(probability));
        }
        system.set_shootdown_mode(params.shootdown_mode);

        let mut pid = None;
        let mut region = None;
        for (step, setup) in steps.iter().enumerate() {
            let invalid = |reason| MitosisError::InvalidSetup { step, reason };
            let process = pid.ok_or(invalid("needs the process: CreateProcess comes first"));
            match *setup {
                SetupStep::InstallMitosis => {
                    if pid.is_some() {
                        return Err(invalid("InstallMitosis after CreateProcess"));
                    }
                }
                SetupStep::SetThp(mode) => system.set_thp(mode),
                SetupStep::PtPlacement(socket) => {
                    check_sockets(&system, [socket])?;
                    system.set_pt_placement(PtPlacement::Fixed(socket));
                }
                SetupStep::CreateProcess(socket) => {
                    if pid.is_some() {
                        return Err(invalid("a second CreateProcess"));
                    }
                    check_sockets(&system, [socket])?;
                    pid = Some(system.create_process(socket)?);
                }
                SetupStep::BindData(socket) => {
                    check_sockets(&system, [socket])?;
                    system
                        .process_mut(process?)?
                        .set_data_policy(PlacementPolicy::Bind(socket));
                }
                SetupStep::InterleaveData(sockets) => {
                    check_sockets(&system, sockets.iter())?;
                    system
                        .process_mut(process?)?
                        .set_data_policy(PlacementPolicy::Interleave(sockets));
                }
                SetupStep::Mmap { len, populate, thp } => {
                    let flags = if populate {
                        MmapFlags::populate()
                    } else {
                        MmapFlags::lazy()
                    };
                    let flags = if thp { flags } else { flags.without_thp() };
                    region = Some(system.mmap(process?, len, flags)?);
                }
                SetupStep::Populate { len, init, sockets } => {
                    check_sockets(&system, sockets.iter())?;
                    let pid = process?;
                    let region = region.ok_or(invalid("Populate before Mmap"))?;
                    let sockets: Vec<SocketId> = sockets.iter().collect();
                    ExecutionEngine::populate(&mut system, pid, region, len, init, &sockets)?;
                }
                SetupStep::Change(change) => {
                    let pid = process?;
                    if change.is_churn() {
                        return Err(invalid("address-space churn is not a setup step"));
                    }
                    // Without the backend, replicas would exist but never be
                    // selected and the page-table reserve would be missing,
                    // so no live run could produce this list.
                    if change.needs_mitosis() && !installed {
                        return Err(invalid(
                            "page-table migration and replicas need InstallMitosis",
                        ));
                    }
                    apply_phase_change(&mut system, &mut mitosis, pid, change)?;
                }
            }
        }
        let end = |reason| MitosisError::InvalidSetup {
            step: steps.len(),
            reason,
        };
        Ok(PreparedSystem {
            system,
            mitosis,
            pid: pid.ok_or(end("no CreateProcess step"))?,
            region: region.ok_or(end("no Mmap step"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_malformed_list_names_its_step() {
        let params = SimParams::quick_test();
        let home = SocketId::new(0);
        let create = SetupStep::CreateProcess(home);
        let mmap = SetupStep::Mmap {
            len: 1 << 21,
            populate: false,
            thp: true,
        };
        let populate = SetupStep::Populate {
            len: 1 << 21,
            init: InitPattern::SingleThread,
            sockets: NodeMask::single(home),
        };
        let replicate = SetupStep::Change(PhaseChange::SetReplicas {
            sockets: NodeMask::all(2),
        });
        let second_create = SetupStep::CreateProcess(SocketId::new(1));
        let huge = VirtAddr::new(1 << 41);
        let churn = [
            PhaseChange::Fork,
            PhaseChange::MmapAt {
                addr: huge,
                length: 1 << 21,
            },
            PhaseChange::MunmapAt {
                addr: huge,
                length: 1 << 12,
            },
            PhaseChange::PromoteHuge { addr: huge },
            PhaseChange::DemoteHuge { addr: huge },
        ];
        let mut cases = vec![
            (vec![mmap], 0),
            (vec![create, SetupStep::InstallMitosis, mmap], 1),
            (vec![create, populate, mmap], 1),
            (vec![create, mmap, populate, replicate], 3),
            (vec![create], 1),
            (vec![create, mmap, second_create, populate], 2),
        ];
        for change in churn {
            cases.push((vec![create, mmap, populate, SetupStep::Change(change)], 3));
        }
        for (steps, expected) in cases {
            match PreparedSystem::build(&params, &steps) {
                Err(MitosisError::InvalidSetup { step, .. }) => {
                    assert_eq!(step, expected, "{steps:?}");
                }
                other => panic!("{steps:?} built or failed otherwise: {:?}", other.err()),
            }
        }
    }
}
