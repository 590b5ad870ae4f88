//! Report and decision types of grouped trace replay, and the up-front
//! shardability analysis [`ReplaySession`] runs before sharding.
//!
//! Grouped replay shards *within* one trace, at the granularity of
//! **per-socket lane groups**: lanes are partitioned by the socket their
//! thread ran on, each group replays its lanes in lane order against its
//! own clone of a single prepared-system snapshot (the setup events are
//! executed once, not once per group), and the per-group metrics merge
//! deterministically.  Grouping by socket is what makes the merge
//! bit-identical to whole-trace replay — lanes sharing a socket interact
//! through that socket's page-table-line cache and therefore stay
//! together, while lanes on different sockets touch disjoint caches.  The
//! one remaining cross-group channel is the frame allocator: a demand
//! fault allocates, so earlier lanes' faults shape what later lanes see.
//! Rather than replaying first and checking for faults afterwards (paying
//! for a parallel *and* a serial replay on the fallback path), the driver
//! performs an **up-front shardability analysis**: if the setup events
//! premap every page the lanes touch, no demand fault is possible and the
//! groups shard; otherwise the replay goes serial *before* any worker is
//! spawned.  [`LaneReplayReport::decision`] records which way it went and
//! why.  A group that takes a demand fault anyway fails the call with a
//! [`ReplayError::Mismatch`](crate::ReplayError::Mismatch) naming the
//! group, as a fault inside an engine split segment is
//! `MitosisError::SplitFault`: the proof was wrong.
//!
//! The driver itself lives in [`ReplaySession`] (persistent worker pool,
//! snapshot cache).  A caller with many traces replays them one
//! [`ReplaySession::replay`] call at a time.
//!
//! [`ReplaySession`]: crate::ReplaySession
//! [`ReplaySession::replay`]: crate::ReplaySession::replay

use crate::format::Trace;
use crate::replay::ReplayOutcome;
use mitosis_sim::SetupStep;
use std::fmt;
use std::time::Duration;

/// Why a lane-granular replay did — or did not — shard a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDecision {
    /// The lanes were partitioned into per-socket groups and replayed in
    /// parallel.
    Sharded,
    /// The trace has a single lane: nothing to shard.
    SingleLane,
    /// Fewer than two workers were requested.
    SingleWorker,
    /// Every lane runs on one socket, so all lanes share page-table-line
    /// cache state and form a single group: no parallelism to win.
    SingleSocketGroup,
    /// The setup events do not premap every page the lanes touch, so
    /// demand faults during the measured phase are possible; faulting
    /// lanes interact through the frame allocator and cannot shard.  The
    /// replay went serial *before* any worker was spawned.
    DemandFaultRisk,
}

impl ShardDecision {
    /// `true` when the lanes were actually replayed in parallel.
    pub fn sharded(&self) -> bool {
        *self == ShardDecision::Sharded
    }
}

impl fmt::Display for ShardDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            ShardDecision::Sharded => "sharded into per-socket lane groups",
            ShardDecision::SingleLane => "serial: single-lane trace",
            ShardDecision::SingleWorker => "serial: one worker requested",
            ShardDecision::SingleSocketGroup => "serial: all lanes on one socket",
            ShardDecision::DemandFaultRisk => {
                "serial: premapped footprint does not cover the lanes (demand-fault risk)"
            }
        };
        f.write_str(what)
    }
}

/// Result of a lane-granular replay of one trace
/// ([`ReplaySession::replay`](crate::ReplaySession::replay)).
#[derive(Debug, Clone)]
pub struct LaneReplayReport {
    /// The merged outcome — metrics bit-identical to a serial whole-trace
    /// replay of the same trace.
    pub outcome: ReplayOutcome,
    /// Number of lanes replayed (the request's selection; all lanes by
    /// default).
    pub lanes: usize,
    /// Number of distinct per-socket lane groups the selected lanes
    /// partition into (informative even when the replay went serial).
    pub groups: usize,
    /// Pool workers the replay used, counting the driver as the one worker
    /// of a serial replay.  Pool threads persist across calls, so this
    /// counts the workers that participated, not threads spawned by this
    /// call.  It does not count the scoped threads the engine may split a
    /// segment's socket groups across, in a serial replay too
    /// ([`ExecutionEngine::last_split`]).
    ///
    /// [`ExecutionEngine::last_split`]: mitosis_sim::ExecutionEngine::last_split
    pub workers: usize,
    /// Whether the lanes sharded, and if not, why.
    pub decision: ShardDecision,
    /// Wall-clock time of the replay on the host, setup included.  On a
    /// serial fallback this is the fallback's own cost: the shardability
    /// analysis runs before any replay, so a declined shard never pays for
    /// a discarded parallel attempt.
    pub wall: Duration,
    /// Host time reported as setup.  A sharded call reports the time it
    /// spent preparing the shared snapshot — the one setup-event
    /// reconstruction, paid **once** per trace, not once per worker group
    /// (the groups clone the prepared system) — and zero when the session
    /// served the replay from its snapshot cache.  A serial call (including
    /// every serial fallback) always runs from a clone of the cached
    /// snapshot and reports the clone time; the prepare time of a cold
    /// serial call shows up only in `wall`.
    pub setup_wall: Duration,
    /// Elapsed host time from the end of setup to the last worker
    /// finishing (serial path: the measured phase alone).  `throughput()`
    /// divides by this.
    pub measured_wall: Duration,
}

impl LaneReplayReport {
    /// `true` if the lanes were actually sharded across workers.
    pub fn sharded(&self) -> bool {
        self.decision.sharded()
    }

    /// Replayed accesses per host second of total elapsed time (setup
    /// included).
    pub fn accesses_per_second(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.outcome.metrics.accesses as f64 / self.wall.as_secs_f64()
    }

    /// Measured-phase replay rate: accesses per host second of
    /// measured-phase elapsed time, excluding the setup reconstruction.
    /// The old single-`wall` rate understated the measured-phase rate by
    /// folding the (now snapshot-amortised) setup cost in.
    pub fn throughput(&self) -> f64 {
        if self.measured_wall.is_zero() {
            return 0.0;
        }
        self.outcome.metrics.accesses as f64 / self.measured_wall.as_secs_f64()
    }

    /// The one-line human-readable summary ([`LaneReplayReport`] also
    /// implements [`std::fmt::Display`] with the same text).
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for LaneReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lane(s) in {} group(s) across {} worker(s), {} | \
             {} accesses in {:.1} ms ({:.2} M accesses/s; setup {:.1} ms, \
             measured {:.1} ms) | {} cycles, {} demand faults",
            self.lanes,
            self.groups,
            self.workers,
            self.decision,
            self.outcome.metrics.accesses,
            self.wall.as_secs_f64() * 1e3,
            self.accesses_per_second() / 1e6,
            self.setup_wall.as_secs_f64() * 1e3,
            self.measured_wall.as_secs_f64() * 1e3,
            self.outcome.metrics.total_cycles,
            self.outcome.metrics.demand_faults,
        )
    }
}

/// The number of bytes from the region start that the setup steps premap
/// (populate or `MAP_POPULATE`), or `None` when the setup is too unusual to
/// analyse (no single mmap) or a lane carries address-space churn
/// ([`PhaseChange::is_churn`]).  Every byte below the returned length is
/// mapped before the measured phase begins — a setup step never unmaps
/// ([`PreparedSystem::build`] refuses churn), and no other mid-lane phase
/// change leaves a hole (migrations and replica changes remap pages) — so
/// accesses within it can never demand-fault.  Churn can: a munmap punches
/// a hole, an mmap adds a lazily faulted range, and a fork, promotion or
/// demotion allocates and frees frames mid-run, so the frame allocator no
/// longer evolves identically across lane groups.
///
/// [`PhaseChange::is_churn`]: mitosis_sim::PhaseChange::is_churn
/// [`PreparedSystem::build`]: mitosis_sim::PreparedSystem::build
pub(crate) fn premapped_bytes(trace: &Trace) -> Option<u64> {
    let churn = trace
        .lanes
        .iter()
        .any(|lane| lane.events.iter().any(|(_, change, _)| change.is_churn()));
    if churn {
        return None;
    }
    let mut mmaps = 0usize;
    let mut covered = 0u64;
    for step in &trace.setup_events {
        match *step {
            SetupStep::Mmap { len, populate, .. } => {
                mmaps += 1;
                if populate {
                    covered = covered.max(len);
                }
            }
            SetupStep::Populate { len, .. } => covered = covered.max(len),
            _ => {}
        }
    }
    (mmaps == 1).then_some(covered)
}

/// Whether the premapped footprint covers every access of every lane — the
/// up-front proof that the measured phase cannot demand-fault, and hence
/// that the frame allocator (the one cross-group channel left after
/// per-socket grouping) evolves identically in every group's reconstructed
/// system.
pub(crate) fn lanes_fully_premapped(trace: &Trace) -> bool {
    let Some(covered) = premapped_bytes(trace) else {
        return false;
    };
    trace.lanes.iter().all(|lane| {
        lane.accesses
            .iter()
            // `| 7` is the last byte of the 8-byte word the engine reads.
            .all(|access| (access.offset | 7) < covered)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::socket_groups;
    use mitosis_numa::{NodeMask, SocketId};
    use mitosis_pt::VirtAddr;
    use mitosis_sim::PhaseChange;
    use mitosis_workloads::{Access, InitPattern};

    /// All-lane per-socket grouping, as the old standalone `lane_groups`
    /// helper computed it (now a selection-aware session internal).
    fn lane_groups(trace: &Trace) -> Vec<Vec<usize>> {
        let all: Vec<usize> = (0..trace.lanes.len()).collect();
        socket_groups(trace, &all)
    }

    fn synthetic_trace(fingerprint_sockets: u16, lane_sockets: &[u16]) -> Trace {
        use crate::format::{MachineFingerprint, TraceLane, TraceMeta};
        Trace {
            meta: TraceMeta {
                workload: "GUPS".into(),
                footprint: 1 << 26,
                seed: 1,
                write_fraction: 0.5,
                compute_cycles_per_access: 5,
                bandwidth_intensity: 0.9,
                machine: MachineFingerprint {
                    machine_scale: 1,
                    sockets: fingerprint_sockets,
                    frames_per_socket: 1 << 14,
                },
            },
            setup_events: vec![],
            lanes: lane_sockets
                .iter()
                .map(|&socket| TraceLane::new(socket))
                .collect(),
        }
    }

    #[test]
    fn lane_grouping_is_sized_by_the_machine_fingerprint() {
        // The old driver kept a hard-coded `[bool; 64]` socket table, so a
        // lane on socket >= 64 silently disabled sharding.  Grouping now
        // follows the trace's fingerprint: sockets far beyond 64 partition
        // like any others.
        let trace = synthetic_trace(3000, &[2900, 70, 2900, 70, 0]);
        let groups = lane_groups(&trace);
        assert_eq!(groups, vec![vec![0, 2], vec![1, 3], vec![4]]);

        // Lanes on sockets beyond the fingerprint's count (here it
        // records none) size the table by the lanes themselves instead of
        // indexing out of bounds.
        let beyond = synthetic_trace(0, &[90, 90, 1]);
        assert_eq!(lane_groups(&beyond), vec![vec![0, 1], vec![2]]);
    }

    fn mmap(len: u64, populate: bool) -> SetupStep {
        SetupStep::Mmap {
            len,
            populate,
            thp: true,
        }
    }

    fn populate(len: u64) -> SetupStep {
        SetupStep::Populate {
            len,
            init: InitPattern::SingleThread,
            sockets: NodeMask::single(SocketId::new(0)),
        }
    }

    #[test]
    fn premapped_analysis_reads_the_setup_steps() {
        let mut trace = synthetic_trace(4, &[0, 1]);
        for lane in &mut trace.lanes {
            lane.accesses.push(Access {
                offset: 512,
                is_write: false,
            });
        }
        // No mmap at all: unanalysable.
        assert_eq!(premapped_bytes(&trace), None);
        assert!(!lanes_fully_premapped(&trace));
        // Lazy mmap without populate: nothing premapped.
        trace.setup_events = vec![mmap(1 << 26, false)];
        assert_eq!(premapped_bytes(&trace), Some(0));
        assert!(!lanes_fully_premapped(&trace));
        // A populate covers its length.
        trace.setup_events.push(populate(1 << 20));
        assert_eq!(premapped_bytes(&trace), Some(1 << 20));
        assert!(lanes_fully_premapped(&trace));
        // MAP_POPULATE covers the whole mapping.
        trace.setup_events[0] = mmap(1 << 26, true);
        assert_eq!(premapped_bytes(&trace), Some(1 << 26));
        // Two mmaps: conservatively unanalysable.
        trace.setup_events.push(mmap(1 << 10, true));
        assert_eq!(premapped_bytes(&trace), None);
    }

    #[test]
    fn address_space_churn_defeats_the_premapped_proof() {
        let mut trace = synthetic_trace(4, &[0, 1]);
        trace.setup_events = vec![mmap(1 << 26, true), populate(1 << 26)];
        assert_eq!(premapped_bytes(&trace), Some(1 << 26));
        // A mid-lane munmap punches a hole the setup analysis cannot see:
        // the trace must fall back to serial replay.
        let hole = PhaseChange::MunmapAt {
            addr: VirtAddr::new(0x7000_0000_0000),
            length: 4096,
        };
        trace.lanes[1].events.push((0, hole, false));
        assert_eq!(premapped_bytes(&trace), None);
        assert!(!lanes_fully_premapped(&trace));
    }

    #[test]
    fn coverage_check_is_word_granular() {
        let mut trace = synthetic_trace(4, &[0, 1]);
        trace.setup_events = vec![mmap(1 << 26, false), populate(4096)];
        // Last fully covered word starts at 4088.
        trace.lanes[0].accesses.push(Access {
            offset: 4088,
            is_write: false,
        });
        assert!(lanes_fully_premapped(&trace));
        // An access whose 8-byte word crosses the premapped boundary is
        // not covered.
        trace.lanes[1].accesses.push(Access {
            offset: 4096,
            is_write: false,
        });
        assert!(!lanes_fully_premapped(&trace));
    }
}
