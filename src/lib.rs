//! Workspace umbrella crate for the Mitosis (ASPLOS 2020) reproduction.
//!
//! This crate only re-exports the member crates so that the repository-level
//! examples and integration tests have a single dependency root.  Library
//! users should depend on the individual crates directly:
//!
//! * [`mitosis`] — the paper's contribution (replication, migration, policy),
//! * [`mitosis_vmm`] / [`mitosis_pt`] / [`mitosis_mmu`] / [`mitosis_mem`] /
//!   [`mitosis_numa`] — the simulated OS and hardware substrates,
//! * [`mitosis_workloads`] / [`mitosis_sim`] — workload generators and the
//!   evaluation scenario runners,
//! * [`mitosis_trace`] — trace capture, deterministic replay and the
//!   parallel replay driver,
//! * [`mitosis_obs`] — span tracing, counters and profile export of the
//!   host-side work across run and replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mitosis;
pub use mitosis_mem;
pub use mitosis_mmu;
pub use mitosis_numa;
pub use mitosis_obs;
pub use mitosis_pt;
pub use mitosis_sim;
pub use mitosis_trace;
pub use mitosis_vmm;
pub use mitosis_workloads;
