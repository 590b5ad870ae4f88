//! Mitosis: transparently self-replicating page-tables for large-memory
//! machines (ASPLOS 2020) — the paper's primary contribution.
//!
//! Mitosis mitigates NUMA effects on page-table walks by *replicating* a
//! process' page tables onto every socket it runs on, and by *migrating* the
//! page tables when the OS migrates the process.  It has two components, both
//! implemented here against the substrates in `mitosis-pt` / `mitosis-vmm`:
//!
//! * **Mechanism** (paper §5): [`MitosisPvOps`], a PV-Ops backend that keeps
//!   all replicas consistent on every page-table write using the circular
//!   replica list threaded through each page-table page's store slot (its
//!   `struct page`); per-socket root selection at context-switch time;
//!   OR-consolidation of accessed/dirty bits; and replication-based
//!   page-table migration.
//! * **Policy** (paper §6): a system-wide mode (the sysctl interface) plus
//!   per-process replication masks (the `numactl`/`libnuma` extension
//!   `numa_set_pgtable_replication_mask`).
//!
//! The entry point is [`Mitosis`], which installs the backend into a
//! [`System`](mitosis_vmm::System) and exposes the user-visible controls.
//!
//! # Example: replicate a process' page tables on every socket
//!
//! ```
//! use mitosis::Mitosis;
//! use mitosis_numa::{MachineConfig, SocketId};
//! use mitosis_vmm::MmapFlags;
//!
//! let machine = MachineConfig::two_socket_small().build();
//! let mut mitosis = Mitosis::new();
//! let mut system = mitosis.install(machine);
//!
//! let pid = system.create_process(SocketId::new(0))?;
//! let addr = system.mmap(pid, 4 * 1024 * 1024, MmapFlags::populate())?;
//!
//! // numactl --pgtablerepl=all <workload>
//! mitosis.enable_for_process(&mut system, pid, None)?;
//!
//! // Each socket now has a local root replica.
//! let cr3_0 = system.cr3_for(pid, SocketId::new(0))?;
//! let cr3_1 = system.cr3_for(pid, SocketId::new(1))?;
//! assert_ne!(cr3_0, cr3_1);
//!
//! // Both replicas translate identically.
//! let env = system.pt_env();
//! let t0 = mitosis_pt::translate(&env.store, cr3_0, addr).unwrap();
//! let t1 = mitosis_pt::translate(&env.store, cr3_1, addr).unwrap();
//! assert_eq!(t0.frame, t1.frame);
//! # Ok::<(), mitosis::MitosisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod error;
mod migration;
mod numactl;
mod overhead;
mod policy;
mod pvops;
mod replication;

pub use controller::Mitosis;
pub use error::MitosisError;
pub use migration::{migrate_page_table, PageTableMigration};
pub use numactl::{numa_set_pgtable_replication_mask, NumactlCommand};
pub use overhead::{format_footprint, memory_overhead, page_table_bytes, OverheadEntry};
pub use policy::{MitosisCtl, ReplicationDecision, SystemWideMode};
pub use pvops::MitosisPvOps;
pub use replication::{replicate_tree, tear_down_replicas, ReplicaSummary};
