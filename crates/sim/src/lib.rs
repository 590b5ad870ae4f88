//! Scenario runners and experiment configurations for the Mitosis
//! evaluation.
//!
//! This crate glues the substrates together into the two experiment families
//! of the paper:
//!
//! * the **multi-socket scenario** (§3.1, §8.1): a multi-threaded workload
//!   runs on every socket, with first-touch or interleaved data placement,
//!   optionally AutoNUMA and optionally Mitosis page-table replication
//!   (Figures 3, 4, 9);
//! * the **workload-migration scenario** (§3.2, §8.2): a single-socket
//!   workload whose data and/or page tables have been left behind on another
//!   socket, optionally with an interfering memory hog, and optionally fixed
//!   by Mitosis page-table migration (Figures 1, 6, 10, 11).
//!
//! The [`ExecutionEngine`] replays a workload's access stream through the
//! per-core MMU model against the system's real page tables, charging NUMA
//! costs for every data access and page-walk step, and reports the same
//! quantities the paper measures with `perf` (runtime cycles and page-walk
//! cycles).
//!
//! # Example
//!
//! ```
//! use mitosis_sim::{MigrationConfig, MigrationRun, SimParams, WorkloadMigrationScenario};
//! use mitosis_workloads::suite;
//!
//! let params = SimParams::quick_test();
//! let baseline = WorkloadMigrationScenario::run(
//!     &suite::gups(),
//!     MigrationRun::new(MigrationConfig::LpLd),
//!     &params,
//! ).unwrap();
//! let remote = WorkloadMigrationScenario::run(
//!     &suite::gups(),
//!     MigrationRun::new(MigrationConfig::RpiLd),
//!     &params,
//! ).unwrap();
//! assert!(remote.metrics.total_cycles > baseline.metrics.total_cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod configs;
mod dynamics;
mod engine;
mod metrics;
mod migration;
mod multisocket;
mod params;
mod report;
mod setup;
mod shootdown;

pub use configs::{DataPolicyChoice, MigrationConfig, MigrationRun, MultiSocketConfig};
pub use dynamics::{apply_phase_change, PhaseChange, PhaseEvent, PhaseSchedule};
pub use engine::{
    data_access_cycles, EngineCheckpoint, ExecutionEngine, RunSpec, SerialReason, SpanOutcome,
    SplitStats, ThreadPlacement,
};
pub use metrics::RunMetrics;
pub use migration::WorkloadMigrationScenario;
pub use mitosis_obs::Observer;
pub use mitosis_vmm::ShootdownMode;
pub use multisocket::MultiSocketScenario;
pub use params::SimParams;
pub use report::{format_normalized_table, render_rows, NormalizedRow, ScenarioResult};
pub use setup::{PreparedSystem, SetupStep};
pub use shootdown::{BoundaryFlush, ShootdownStats};
