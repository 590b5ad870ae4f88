//! Error type for Mitosis operations.

use mitosis_mem::MemError;
use mitosis_numa::SocketId;
use mitosis_pt::{PtError, VirtAddr};
use mitosis_vmm::VmError;
use std::error::Error;
use std::fmt;

/// Errors returned by the Mitosis controller and mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitosisError {
    /// Replication was requested on a socket that does not exist.
    InvalidSocket {
        /// The offending socket.
        socket: SocketId,
    },
    /// Replication was requested with an empty mask.
    EmptyMask,
    /// The system-wide policy forbids the requested operation
    /// (e.g. Mitosis is disabled).
    PolicyDisabled,
    /// A virtual-memory operation failed.
    Vm(VmError),
    /// A page-table operation failed.
    Pt(PtError),
    /// A physical-memory operation failed.
    Mem(MemError),
    /// An access faulted inside a segment the execution engine had proven
    /// fault-free and was running split across socket groups or pipelined
    /// — the thread's access source yielded an offset past the bound it
    /// reported.  Nothing was demand-paged; the run stopped.
    SplitFault {
        /// Index of the faulting thread in the run's placements.
        thread: usize,
        /// The thread's access index (from the start of the run).
        access: u64,
        /// The faulting virtual address.
        addr: VirtAddr,
    },
    /// A run handed to the execution engine is malformed: a source count
    /// that differs from the thread placements, a checkpoint taken with
    /// another thread count, or a stop outside the span it bounds.  Nothing
    /// ran.
    InvalidRun {
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A scenario's setup-step list cannot be applied as written (a step
    /// out of order, or one the system cannot take).
    InvalidSetup {
        /// Index of the offending step; the list's length when a required
        /// step is missing.
        step: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for MitosisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MitosisError::InvalidSocket { socket } => {
                write!(f, "replication target {socket} does not exist")
            }
            MitosisError::EmptyMask => write!(f, "replication mask is empty"),
            MitosisError::PolicyDisabled => {
                write!(f, "mitosis is disabled by the system-wide policy")
            }
            MitosisError::Vm(err) => write!(f, "virtual memory error: {err}"),
            MitosisError::Pt(err) => write!(f, "page-table error: {err}"),
            MitosisError::Mem(err) => write!(f, "memory error: {err}"),
            MitosisError::SplitFault {
                thread,
                access,
                addr,
            } => write!(
                f,
                "access {access} of thread {thread} faulted at {addr} in a segment proven \
                 fault-free: its access source under-reported its offset bound"
            ),
            MitosisError::InvalidRun { reason } => write!(f, "invalid engine run: {reason}"),
            MitosisError::InvalidSetup { step, reason } => {
                write!(f, "setup step {step} is invalid: {reason}")
            }
        }
    }
}

impl Error for MitosisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MitosisError::Vm(err) => Some(err),
            MitosisError::Pt(err) => Some(err),
            MitosisError::Mem(err) => Some(err),
            _ => None,
        }
    }
}

impl From<VmError> for MitosisError {
    fn from(err: VmError) -> Self {
        MitosisError::Vm(err)
    }
}

impl From<PtError> for MitosisError {
    fn from(err: PtError) -> Self {
        match err {
            PtError::Mem(mem) => MitosisError::Mem(mem),
            other => MitosisError::Pt(other),
        }
    }
}

impl From<MemError> for MitosisError {
    fn from(err: MemError) -> Self {
        MitosisError::Mem(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let err: MitosisError = MemError::MachineOutOfMemory.into();
        assert!(matches!(err, MitosisError::Mem(_)));
        assert!(err.source().is_some());
        let err: MitosisError = PtError::Mem(MemError::MachineOutOfMemory).into();
        assert!(matches!(err, MitosisError::Mem(_)));
        assert!(MitosisError::EmptyMask.source().is_none());
        assert!(MitosisError::PolicyDisabled
            .to_string()
            .contains("disabled"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<E: Error + Send + Sync + 'static>() {}
        assert_bounds::<MitosisError>();
    }
}
