//! The execution engine: replays workload access streams through the MMU
//! model against the system's real page tables.

use crate::dynamics::{apply_phase_change, PhaseSchedule};
use crate::metrics::RunMetrics;
use crate::params::SimParams;
use crate::shootdown::{self, BoundaryFlush, ShootdownStats};
use mitosis::{Mitosis, MitosisError};
use mitosis_mem::FrameId;
use mitosis_mmu::step::{
    step_access, tlb_step, walk_step, AccessCtx, LeafTables, Miss, Tables, ThreadPhase,
    ThreadTotals,
};
use mitosis_mmu::{Mmu, PteCache, PteCacheSet, TlbHalf, WalkHalf};
use mitosis_numa::{AccessKind, CoreId, CostModel, Cycles, SocketId};
use mitosis_obs::Observer;
use mitosis_pt::{check_writable_range, PageSize, PtStore, RangeGap, VirtAddr};
use mitosis_vmm::{Pid, System, VmError};
use mitosis_workloads::{AccessSource, AccessStream, InitPattern, WorkloadSpec};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Placement of one simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlacement {
    /// The core the thread is pinned to.
    pub core: CoreId,
    /// The socket that core belongs to.
    pub socket: SocketId,
}

/// Cycles charged for one data access, given where the data lives and how
/// bandwidth-hungry the workload is.
///
/// Remote accesses pay the interconnect latency; bandwidth-bound workloads
/// additionally pay a queueing penalty proportional to the local/remote
/// bandwidth ratio.  Accesses served by a socket hosting an interfering
/// memory hog pay the interference factor (already applied by the cost
/// model); the larger of the two penalties applies.
pub fn data_access_cycles(
    cost: &CostModel,
    from: SocketId,
    to: SocketId,
    bandwidth_intensity: f64,
) -> Cycles {
    let access = cost.dram_access(from, to, AccessKind::Data);
    if access.local || access.interfered {
        return access.cycles;
    }
    let queueing = 1.0 + bandwidth_intensity * (cost.remote_bandwidth_penalty() - 1.0);
    (access.cycles as f64 * queueing).round() as Cycles
}

/// Mid-run engine state captured at an access-count boundary by
/// [`ExecutionEngine::execute`]: everything the
/// engine itself carries between accesses — per-thread MMUs (TLBs, paging
/// structure caches, statistics), cycle accumulators, lazily-derived
/// translation state and the per-socket page-table-line caches.
///
/// A checkpoint does *not* include the simulated [`System`]/
/// [`Mitosis`](mitosis::Mitosis) state: the caller pauses a run it owns and
/// must keep (or snapshot) the system the run was mutating, then hand the
/// same system state back together with this checkpoint to resume.  The
/// trace-replay layer pairs the two in its `ReplaySnapshot`.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    at: u64,
    mmus: Vec<Mmu>,
    totals: Vec<ThreadTotals>,
    states: Vec<Option<ThreadPhase>>,
    pte_caches: PteCacheSet,
}

impl EngineCheckpoint {
    /// The access index (per thread) the run paused at: every thread has
    /// executed exactly this many accesses.
    pub fn at_access(&self) -> u64 {
        self.at
    }

    /// Number of simulated threads the paused run was driving.
    pub fn threads(&self) -> usize {
        self.mmus.len()
    }
}

/// Result of a bounded engine span: either the run reached
/// `accesses_per_thread` and completed (full-run metrics, including any
/// portion executed before a resumed checkpoint), or it paused at the
/// requested stop boundary.
#[derive(Debug)]
pub enum SpanOutcome {
    /// The measured phase ran to the end; metrics cover the whole run.
    Completed(RunMetrics),
    /// The run paused at the requested access boundary; resume by passing
    /// the checkpoint back (with the same system state) to
    /// [`ExecutionEngine::execute`].
    Paused(EngineCheckpoint),
}

impl SpanOutcome {
    /// The metrics of a run that was not asked to pause.
    fn completed(self) -> RunMetrics {
        match self {
            SpanOutcome::Completed(metrics) => metrics,
            SpanOutcome::Paused(_) => unreachable!("no stop boundary was requested"),
        }
    }
}

/// One measured-phase run for [`ExecutionEngine::execute`]: the workload,
/// the threads and the access source feeding each, the phase-change
/// schedule, and the span of the run to execute.
pub struct RunSpec<'a, S> {
    /// The workload whose per-access compute and bandwidth costs apply.
    pub spec: &'a WorkloadSpec,
    /// One placement per simulated thread.
    pub threads: &'a [ThreadPlacement],
    /// Accesses every thread executes over the whole run.
    pub accesses_per_thread: u64,
    /// One access source per thread placement, each yielding every access
    /// of its thread from the run's start (or resume point) on.
    pub sources: &'a mut [S],
    /// Mid-run phase-change events, fired at their access-count
    /// boundaries; an empty schedule is the static run.
    pub schedule: &'a PhaseSchedule,
    /// Continue a paused run from its [`EngineCheckpoint`].  The caller
    /// must hand back the same mid-run `system`/`mitosis` state the paused
    /// run was mutating (or a deep clone of it), and `sources` positioned
    /// at the checkpoint's access index: source `i` must yield access
    /// `checkpoint.at_access()` of thread `i` next.  With `None` the run
    /// starts from access 0.
    pub resume: Option<&'a EngineCheckpoint>,
    /// Pause once every thread has executed exactly this many accesses,
    /// *before* applying any phase-change events scheduled at that
    /// boundary (the resumed run fires them exactly once).  Must lie inside
    /// `[start, accesses_per_thread)` ([`MitosisError::InvalidRun`]
    /// otherwise); with `None` the run completes.
    pub stop_at: Option<u64>,
}

/// Why a segment ran serially instead of split across socket groups or
/// pipelined (see [`ExecutionEngine::execute`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerialReason {
    /// The access source of `thread` reports no offset bound
    /// ([`AccessSource::offset_bound`]).
    UnboundedSource {
        /// Index of the thread in the run's placements.
        thread: usize,
    },
    /// A walk for `addr`, inside some thread's bounded range, may meet a
    /// non-present entry in the CR3 that thread loads.
    NotPresent {
        /// The lowest such page.
        addr: VirtAddr,
    },
    /// `addr`, inside some thread's bounded range, is mapped read-only in
    /// the CR3 that thread loads, so a store to it faults.
    NotWritable {
        /// The lowest such page.
        addr: VirtAddr,
    },
    /// The paging-structure caches of `thread` hold an entry the tables
    /// from its CR3 no longer reach, so its walks need not translate as the
    /// tables do ([`PagingStructureCache::agrees_with`]).
    ///
    /// [`PagingStructureCache::agrees_with`]: mitosis_mmu::PagingStructureCache::agrees_with
    StaleWalkCache {
        /// Index of the thread in the run's placements.
        thread: usize,
    },
    /// The segment's one socket group has several threads, and only a lone
    /// thread pipelines.  One-socket runs of several threads are what
    /// pooled replay hands its workers, and a walk-stage thread under each
    /// worker oversubscribes the host.
    SharedSocket {
        /// Number of threads in the group.
        threads: usize,
    },
}

impl From<RangeGap> for SerialReason {
    fn from(gap: RangeGap) -> Self {
        match gap {
            RangeGap::NotPresent(addr) => SerialReason::NotPresent { addr },
            RangeGap::NotWritable(addr) => SerialReason::NotWritable { addr },
        }
    }
}

/// How the segments of the most recent run executed: split across socket
/// groups, pipelined or serially, and why the last serial one did not run
/// on several host threads.  Advisory, like [`ShootdownStats`]: not part of
/// [`RunMetrics`], which are bit-identical either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Segments whose socket groups ran on separate host threads.
    pub split_segments: u64,
    /// One-thread segments that ran as a two-stage pipeline: TLBs on the
    /// calling host thread, page walks on a second.
    pub pipelined_segments: u64,
    /// Segments that ran every thread on the calling host thread.
    pub serial_segments: u64,
    /// Scoped host threads spawned: one per socket group past the first,
    /// per split segment, and one walk stage per pipelined segment.
    pub threads_spawned: u64,
    /// Why the last serially-run segment could not split or pipeline;
    /// `None` if every segment did.
    pub last_serial_reason: Option<SerialReason>,
}

/// One thread of a split segment, owned by the host thread running its
/// socket group.
struct GroupThread<'s, S> {
    thread: usize,
    mmu: Mmu,
    totals: ThreadTotals,
    source: &'s mut S,
    phase: &'s ThreadPhase,
}

/// One socket's threads and page-table-line cache while a split segment
/// runs.  The group owns all of its mutable state, so no two host threads
/// write the same cache line.
struct SocketGroup<'s, S> {
    socket: SocketId,
    threads: Vec<GroupThread<'s, S>>,
    pte_cache: PteCache,
}

impl<S: AccessSource> SocketGroup<'_, S> {
    /// Runs the group's threads in thread order over accesses
    /// `segment_start..run_to`, exactly as the serial path would.
    fn run(
        &mut self,
        tables: Tables<'_>,
        ctx: AccessCtx<'_>,
        segment_start: u64,
        run_to: u64,
    ) -> Result<(), MitosisError> {
        for member in &mut self.threads {
            for index in segment_start..run_to {
                let access = member.source.next_access();
                let stepped = step_access(
                    access.offset,
                    access.is_write,
                    &mut member.mmu,
                    &mut member.totals,
                    &mut self.pte_cache,
                    member.phase,
                    tables,
                    ctx,
                );
                if let Err(addr) = stepped {
                    return Err(MitosisError::SplitFault {
                        thread: member.thread,
                        access: index,
                        addr,
                    });
                }
            }
        }
        Ok(())
    }
}

/// The run's socket groups: each distinct socket's thread indices in
/// thread order, groups ordered by their first thread.
fn socket_groups(threads: &[ThreadPlacement]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (index, placement) in threads.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|group| threads[group[0]].socket == placement.socket)
        {
            Some(group) => group.push(index),
            None => groups.push(vec![index]),
        }
    }
    groups
}

/// Proves that the segment about to run cannot fault and that each of its
/// walks translates as the tables do: every source reports an offset
/// bound, every CR3 a thread loads maps `[region, region + bound)` — the
/// largest bound among the threads loading it — with present, writable
/// leaves, and every thread's paging-structure caches agree with the tables
/// from its CR3.  Reads only the sources' bounds, the tables and those
/// caches.
fn prove_fault_free<S: AccessSource>(
    store: &PtStore,
    region: VirtAddr,
    sources: &[S],
    phases: &[Option<ThreadPhase>],
    mmus: &[Mmu],
) -> Result<(), SerialReason> {
    let mut spans: Vec<(FrameId, u64)> = Vec::with_capacity(sources.len());
    for (thread, (source, phase)) in sources.iter().zip(phases).enumerate() {
        let bound = source
            .offset_bound()
            .ok_or(SerialReason::UnboundedSource { thread })?;
        let cr3 = phase.as_ref().expect("phases are derived first").cr3;
        spans.push((cr3, bound));
    }
    // One proof per distinct CR3, over the largest bound loading it.
    spans.sort_unstable_by_key(|&(cr3, bound)| (cr3, std::cmp::Reverse(bound)));
    spans.dedup_by_key(|(cr3, _)| *cr3);
    for (cr3, bound) in spans {
        check_writable_range(store, cr3, region, bound)?;
    }
    for (thread, (mmu, phase)) in mmus.iter().zip(phases).enumerate() {
        let cr3 = phase.as_ref().expect("phases are derived first").cr3;
        if !mmu.walks().agrees_with(store, cr3) {
            return Err(SerialReason::StaleWalkCache { thread });
        }
    }
    Ok(())
}

/// What a split or pipelined segment hands out to its host threads and
/// collects back.
struct ParallelSegment<'a, S> {
    groups: &'a [Vec<usize>],
    threads: &'a [ThreadPlacement],
    sources: &'a mut [S],
    states: &'a [Option<ThreadPhase>],
    mmus: &'a mut Vec<Mmu>,
    totals: &'a mut [ThreadTotals],
    segment_start: u64,
    run_to: u64,
}

/// Runs a segment proven fault-free with each socket group on its own host
/// thread: the calling thread runs the first group, one scoped thread each
/// further group.  Each group takes ownership of its threads' MMUs, totals
/// and sources and its socket's page-table-line cache, and hands them back
/// when the segment ends — also when a group faults, so the caller can
/// return every MMU to the pool.  Of several faulting groups, the first in
/// group order reports.
fn run_split<S: AccessSource + Send>(
    pte_caches: &mut PteCacheSet,
    tables: Tables<'_>,
    ctx: AccessCtx<'_>,
    segment: ParallelSegment<'_, S>,
) -> Result<(), MitosisError> {
    let ParallelSegment {
        groups,
        threads,
        sources,
        states,
        mmus,
        totals,
        segment_start,
        run_to,
    } = segment;
    let mut lanes: Vec<Option<(Mmu, &mut S)>> = std::mem::take(mmus)
        .into_iter()
        .zip(sources.iter_mut())
        .map(Some)
        .collect();
    let socket_groups: Vec<SocketGroup<'_, S>> = groups
        .iter()
        .map(|members| {
            let socket = threads[members[0]].socket;
            SocketGroup {
                socket,
                pte_cache: std::mem::replace(pte_caches.socket(socket), PteCache::new(0)),
                threads: members
                    .iter()
                    .map(|&thread| {
                        let (mmu, source) = lanes[thread].take().expect("one group per thread");
                        GroupThread {
                            thread,
                            mmu,
                            totals: totals[thread],
                            source,
                            phase: states[thread].as_ref().expect("phases derived first"),
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    let finished = std::thread::scope(|scope| {
        let mut rest = socket_groups.into_iter();
        let mut first = rest.next().expect("a split segment has several groups");
        let spawned: Vec<_> = rest
            .map(|mut group| {
                scope.spawn(move || {
                    let result = group.run(tables, ctx, segment_start, run_to);
                    (group, result)
                })
            })
            .collect();
        let result = first.run(tables, ctx, segment_start, run_to);
        let mut finished = vec![(first, result)];
        for handle in spawned {
            // A panicking group re-raises here, as it would have serially.
            finished.push(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        finished
    });
    let mut returned: Vec<Option<Mmu>> = (0..threads.len()).map(|_| None).collect();
    let mut outcome = Ok(());
    for (group, result) in finished {
        *pte_caches.socket(group.socket) = group.pte_cache;
        for member in group.threads {
            totals[member.thread] = member.totals;
            returned[member.thread] = Some(member.mmu);
        }
        outcome = outcome.and(result);
    }
    *mmus = returned
        .into_iter()
        .map(|mmu| mmu.expect("every thread ran in one group"))
        .collect();
    outcome
}

/// TLB misses per batch the pipelined schedule's TLB stage hands its walk
/// stage: enough that the handoff costs nothing per miss, few enough that
/// the batches in flight stay in cache.
const MISS_BATCH: usize = 1024;

/// Batch buffers circulating between the two stages, which bounds how far
/// the TLB stage runs ahead of the walk stage.
const BATCH_BUFFERS: usize = 5;

/// Times the TLB stage yields its core, waiting for an emptied buffer,
/// before it sleeps.  The walk stage is the slower one, so the TLB stage
/// waits for a buffer about once per batch, for less than a batch's walks,
/// and once more at the end for the batches still in flight.  A thread
/// woken from sleep is often moved to the waker's core, and the calling
/// thread would end each run on either core; the setup that follows, which
/// faults in fresh memory, then ran up to a third slower.
const YIELDS_BEFORE_SLEEP: u32 = 2_000;

/// Consecutive TLB misses of one thread of a pipelined segment, in access
/// order.
struct MissBatch {
    thread: usize,
    misses: Vec<Miss>,
}

/// The two stages' handoff: filled batches flow from the TLB stage to the
/// walk stage, emptied buffers flow back.  The TLB stage allocates every
/// buffer before the walk stage starts and frees them after it ends, and
/// the lock and condition variables block without allocating, so the walk
/// stage's host thread calls the allocator only as the standard library
/// starts and ends it.  Batches that crossed in a channel would have the
/// walk stage allocate and free in an arena it then keeps for later
/// threads.
struct Handoff {
    queues: Mutex<Queues>,
    filled: Condvar,
    emptied: Condvar,
}

struct Queues {
    filled: VecDeque<MissBatch>,
    emptied: Vec<Vec<Miss>>,
    /// The TLB stage sends no more batches: it finished, faulted or
    /// panicked.
    tlb_done: bool,
    /// The walk stage takes no more batches: it panicked.
    walk_done: bool,
}

impl Handoff {
    fn new() -> Self {
        Handoff {
            queues: Mutex::new(Queues {
                filled: VecDeque::with_capacity(BATCH_BUFFERS),
                emptied: (0..BATCH_BUFFERS)
                    .map(|_| Vec::with_capacity(MISS_BATCH))
                    .collect(),
                tlb_done: false,
                walk_done: false,
            }),
            filled: Condvar::new(),
            emptied: Condvar::new(),
        }
    }

    /// Every critical section leaves the queues consistent, so a stage that
    /// panicked elsewhere leaves nothing to repair.
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty buffer for the TLB stage, or `None` once the walk stage is
    /// gone.  Yields the core to the walk stage while it waits, and sleeps
    /// only after [`YIELDS_BEFORE_SLEEP`] yields.
    fn take_empty(&self) -> Option<Vec<Miss>> {
        let mut yields = 0;
        let mut queues = self.lock();
        loop {
            if queues.walk_done {
                return None;
            }
            if let Some(buffer) = queues.emptied.pop() {
                return Some(buffer);
            }
            if yields < YIELDS_BEFORE_SLEEP {
                yields += 1;
                drop(queues);
                std::thread::yield_now();
                queues = self.lock();
            } else {
                queues = self
                    .emptied
                    .wait(queues)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    fn send(&self, batch: MissBatch) {
        self.lock().filled.push_back(batch);
        self.filled.notify_one();
    }

    /// The next batch for the walk stage, or `None` once the TLB stage is
    /// done and every batch it sent is taken.
    fn recv(&self) -> Option<MissBatch> {
        let mut queues = self.lock();
        loop {
            if let Some(batch) = queues.filled.pop_front() {
                return Some(batch);
            }
            if queues.tlb_done {
                return None;
            }
            queues = self
                .filled
                .wait(queues)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn give_back(&self, mut misses: Vec<Miss>) {
        misses.clear();
        self.lock().emptied.push(misses);
        self.emptied.notify_one();
    }
}

/// Marks one stage done when dropped, also while its thread unwinds, so
/// the other stage never waits on it forever.
struct Hangup<'a> {
    handoff: &'a Handoff,
    tlb_stage: bool,
}

impl Drop for Hangup<'_> {
    fn drop(&mut self) {
        let mut queues = self.handoff.lock();
        if self.tlb_stage {
            queues.tlb_done = true;
        } else {
            queues.walk_done = true;
        }
        drop(queues);
        self.handoff.filled.notify_all();
        self.handoff.emptied.notify_all();
    }
}

/// The walk stage of a pipelined segment: every thread's walk half and the
/// socket's page-table-line cache, owned by the stage's host thread while
/// the segment runs.
struct WalkStage {
    walks: Vec<WalkHalf>,
    pte_cache: PteCache,
}

impl WalkStage {
    /// Walks every batch the TLB stage sends, in order, until it is done,
    /// and hands each emptied buffer back.
    fn run(&mut self, handoff: &Handoff, tables: Tables<'_>, states: &[Option<ThreadPhase>]) {
        let _hangup = Hangup {
            handoff,
            tlb_stage: false,
        };
        while let Some(batch) = handoff.recv() {
            let walks = &mut self.walks[batch.thread];
            let phase = states[batch.thread].as_ref().expect("phases derived first");
            for &miss in &batch.misses {
                walk_step(miss, walks, &mut self.pte_cache, phase, tables);
            }
            handoff.give_back(batch.misses);
        }
    }
}

/// Runs the TLB stage of a pipelined segment on the calling thread: every
/// thread in thread order over the segment's accesses, exactly as the
/// serial path would, sending each thread's misses to the walk stage in
/// batches.  Returns early, without error, if the walk stage is gone: it
/// panicked, and joining it re-raises the panic.
fn run_tlb_stage<S: AccessSource>(
    segment: &mut ParallelSegment<'_, S>,
    tlbs: &mut [TlbHalf],
    leaves: &mut LeafTables<'_>,
    ctx: AccessCtx<'_>,
    handoff: &Handoff,
) -> Result<(), MitosisError> {
    let _hangup = Hangup {
        handoff,
        tlb_stage: true,
    };
    let sources = segment.sources.iter_mut();
    for (thread, (source, tlbs)) in sources.zip(tlbs.iter_mut()).enumerate() {
        let totals = &mut segment.totals[thread];
        let phase = segment.states[thread]
            .as_ref()
            .expect("phases derived first");
        let Some(mut misses) = handoff.take_empty() else {
            return Ok(());
        };
        for index in segment.segment_start..segment.run_to {
            let access = source.next_access();
            let stepped = tlb_step(
                access.offset,
                access.is_write,
                tlbs,
                totals,
                leaves,
                phase,
                ctx,
                &mut misses,
            );
            if let Err(addr) = stepped {
                return Err(MitosisError::SplitFault {
                    thread,
                    access: index,
                    addr,
                });
            }
            if misses.len() == MISS_BATCH {
                let Some(next) = handoff.take_empty() else {
                    return Ok(());
                };
                handoff.send(MissBatch {
                    thread,
                    misses: std::mem::replace(&mut misses, next),
                });
            }
        }
        handoff.send(MissBatch { thread, misses });
    }
    Ok(())
}

/// Runs a one-thread segment proven fault-free as a two-stage pipeline: the
/// calling thread probes and fills the TLBs and charges data cycles
/// ([`run_tlb_stage`]), one scoped thread walks the misses in order
/// ([`WalkStage`]).  Each stage owns its half of every MMU for the segment
/// — the walk stage also the socket's page-table-line cache — and the
/// halves rejoin when the segment ends, also when the TLB stage faults, so
/// the caller can return every MMU to the pool.  The walk cycles then merge
/// into the threads' totals.
fn run_pipelined<S: AccessSource>(
    pte_caches: &mut PteCacheSet,
    tables: Tables<'_>,
    ctx: AccessCtx<'_>,
    region: VirtAddr,
    mut segment: ParallelSegment<'_, S>,
) -> Result<(), MitosisError> {
    let socket = segment.threads[0].socket;
    let bound = segment
        .sources
        .iter()
        .filter_map(AccessSource::offset_bound)
        .max()
        .unwrap_or(0);
    let mut leaves = LeafTables::new(tables.store, region, bound);
    let (mut tlbs, walks): (Vec<TlbHalf>, Vec<WalkHalf>) = std::mem::take(segment.mmus)
        .into_iter()
        .map(Mmu::into_halves)
        .unzip();
    // Walk cycles the threads had already spent before this segment.
    let walked: Vec<Cycles> = walks
        .iter()
        .map(|walks| walks.stats().walk_cycles)
        .collect();
    let mut stage = WalkStage {
        walks,
        pte_cache: std::mem::replace(pte_caches.socket(socket), PteCache::new(0)),
    };
    let states = segment.states;
    let handoff = Handoff::new();
    let result = std::thread::scope(|scope| {
        let walk_stage = &mut stage;
        let handoff = &handoff;
        let walker = scope.spawn(move || walk_stage.run(handoff, tables, states));
        let result = run_tlb_stage(&mut segment, &mut tlbs, &mut leaves, ctx, handoff);
        // The walk stage still drains the batches in flight.  Yield until it
        // is done rather than sleep in `join` (see `YIELDS_BEFORE_SLEEP`).
        while !walker.is_finished() {
            std::thread::yield_now();
        }
        walker
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        result
    });
    *pte_caches.socket(socket) = stage.pte_cache;
    *segment.mmus = tlbs
        .into_iter()
        .zip(stage.walks)
        .map(|(tlbs, walks)| Mmu::from_halves(tlbs, walks))
        .collect();
    result?;
    for (thread, totals) in segment.totals.iter_mut().enumerate() {
        totals.translation += segment.mmus[thread].walks().stats().walk_cycles - walked[thread];
    }
    Ok(())
}

/// Replays workload access streams against a [`System`].
#[derive(Debug)]
pub struct ExecutionEngine {
    pte_caches: PteCacheSet,
    /// MMUs recycled across runs: a flushed MMU behaves exactly like a
    /// fresh one, so pooling shaves the per-run TLB/PWC allocation cost —
    /// which dominates for short traces.
    mmu_pool: Vec<Mmu>,
    /// Observability sink for spans and counters.  The default
    /// ([`Observer::none`]) records nothing and keeps every instrumented
    /// path on a `None` check.
    observer: Observer,
    /// Track (timeline) the engine's spans carry — the lane-group index in
    /// parallel replay, 0 otherwise.
    obs_track: u64,
    /// TLB-consistency work the most recent run performed (advisory; not
    /// part of [`RunMetrics`] and not carried across checkpoints).
    shootdowns: ShootdownStats,
    /// How the most recent run's segments executed (advisory, like
    /// `shootdowns`).
    split: SplitStats,
}

impl ExecutionEngine {
    /// Creates an engine for the system's machine (per-socket page-table
    /// line caches sized from the machine's L3).
    pub fn new(system: &System) -> Self {
        ExecutionEngine {
            pte_caches: PteCacheSet::for_machine(system.machine()),
            mmu_pool: Vec::new(),
            observer: Observer::none(),
            obs_track: 0,
            shootdowns: ShootdownStats::default(),
            split: SplitStats::default(),
        }
    }

    /// TLB-consistency work performed by the most recent (or in-progress)
    /// run: full flushes, ranged invalidations and entries dropped.  Resets
    /// when a fresh (non-resumed) span starts.
    pub fn last_shootdowns(&self) -> ShootdownStats {
        self.shootdowns
    }

    /// How the most recent (or in-progress) run's segments executed: how
    /// many ran split across host threads and how many serially, the
    /// scoped threads spawned, and why the last serial segment with two or
    /// more socket groups did not split.  Resets when a fresh (non-resumed)
    /// span starts.  Advisory: the metrics are identical either way.
    pub fn last_split(&self) -> SplitStats {
        self.split
    }

    /// The per-socket page-table-line caches: machine state the runs warm
    /// (and [`ExecutionEngine::reset`] flushes), with their hit and miss
    /// counts.
    pub fn pte_caches(&self) -> &PteCacheSet {
        &self.pte_caches
    }

    /// Installs the observer later runs report spans and counters to.  The
    /// observer never changes simulated results: metrics are bit-identical
    /// with any observer installed or none, and reach the caller only as
    /// the run's [`RunMetrics`].
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// Sets the track (timeline) the engine's spans are tagged with —
    /// parallel replay gives each lane group its own.
    pub fn set_observer_track(&mut self, track: u64) {
        self.obs_track = track;
    }

    /// The installed observer.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Resets machine-level cache state so the next run behaves exactly as
    /// on a freshly built engine: the per-socket page-table-line caches are
    /// flushed (pooled MMUs are always reset at checkout).
    ///
    /// Reusing a reset engine instead of building a new one skips the
    /// TLB/PWC/cache allocations — per-run setup cost that dominates for
    /// short traces — without perturbing bit-identical metrics.
    pub fn reset(&mut self) {
        self.pte_caches.reset_for_run();
    }

    /// One MMU per thread placement: reuse a pooled MMU of the same core
    /// and socket (reset for the run) or build a fresh one.
    fn checkout_mmus(&mut self, threads: &[ThreadPlacement]) -> Vec<Mmu> {
        let mut pool = std::mem::take(&mut self.mmu_pool);
        threads
            .iter()
            .map(|placement| {
                match pool
                    .iter()
                    .position(|m| m.core() == placement.core && m.socket() == placement.socket)
                {
                    Some(index) => {
                        let mut mmu = pool.swap_remove(index);
                        mmu.reset_for_run();
                        mmu
                    }
                    None => Mmu::new(placement.core, placement.socket),
                }
            })
            .collect()
    }

    /// One thread pinned to the first core of each socket in `sockets`.
    pub fn one_thread_per_socket(system: &System, sockets: &[SocketId]) -> Vec<ThreadPlacement> {
        Self::threads_for(system, sockets, 1)
    }

    /// `per_socket` threads pinned to each socket in `sockets`, grouped
    /// contiguously per socket (the multi-thread-per-socket experiment
    /// shape; `per_socket == 1` degenerates to
    /// [`ExecutionEngine::one_thread_per_socket`]).
    pub fn threads_for(
        system: &System,
        sockets: &[SocketId],
        per_socket: usize,
    ) -> Vec<ThreadPlacement> {
        assert!(per_socket > 0, "each socket needs at least one thread");
        sockets
            .iter()
            .flat_map(|s| {
                let placement = ThreadPlacement {
                    core: system.machine().first_core_of_socket(*s),
                    socket: *s,
                };
                std::iter::repeat_n(placement, per_socket)
            })
            .collect()
    }

    /// Populates the workload's memory region the way the real program
    /// initialises it: either one thread (on `sockets[0]`) touches
    /// everything, or each participating socket touches its contiguous
    /// chunk.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidArgument`] for an empty `sockets` and
    /// propagates fault-handling errors.
    pub fn populate(
        system: &mut System,
        pid: Pid,
        region: VirtAddr,
        footprint: u64,
        init: InitPattern,
        sockets: &[SocketId],
    ) -> Result<(), VmError> {
        let &first = sockets.first().ok_or(VmError::InvalidArgument)?;
        match init {
            InitPattern::SingleThread => system.populate_region(pid, region, footprint, first),
            InitPattern::Parallel => {
                let chunk = (footprint / sockets.len() as u64)
                    .max(PageSize::Base4K.bytes())
                    .next_multiple_of(PageSize::Huge2M.bytes());
                let mut offset = 0;
                for socket in sockets {
                    if offset >= footprint {
                        break;
                    }
                    let len = chunk.min(footprint - offset);
                    system.populate_region(pid, region.add(offset), len, *socket)?;
                    offset += len;
                }
                if offset < footprint {
                    system.populate_region(pid, region.add(offset), footprint - offset, first)?;
                }
                Ok(())
            }
        }
    }

    /// Runs the measured phase: every thread replays
    /// `params.accesses_per_thread` accesses of `spec`'s stream over the
    /// region at `region`.
    ///
    /// # Errors
    ///
    /// Propagates page-fault handling errors (demand paging during the
    /// measured phase is allowed and counted).
    pub fn run(
        &mut self,
        system: &mut System,
        pid: Pid,
        spec: &WorkloadSpec,
        region: VirtAddr,
        threads: &[ThreadPlacement],
        params: &SimParams,
    ) -> Result<RunMetrics, VmError> {
        let mut streams = Self::thread_streams(spec, params, threads.len());
        let run = RunSpec {
            spec,
            threads,
            accesses_per_thread: params.accesses_per_thread,
            sources: &mut streams,
            schedule: &PhaseSchedule::new(),
            resume: None,
            stop_at: None,
        };
        match self.execute(system, &mut Mitosis::new(), pid, region, run) {
            Ok(outcome) => Ok(outcome.completed()),
            Err(MitosisError::Vm(vm)) => Err(vm),
            // Live streams report exact offset bounds, so a split or
            // pipelined segment cannot fault either.
            Err(other) => {
                unreachable!("an empty schedule over live streams raises only VM errors: {other}")
            }
        }
    }

    /// The live access streams [`ExecutionEngine::run`] feeds its threads:
    /// thread `i` gets a stream seeded with `params.seed + i`.
    ///
    /// Trace capture wraps these same streams, which is what makes a
    /// captured lane reproduce an independent live run exactly — keep any
    /// change to the per-thread seed derivation here.
    pub fn thread_streams(
        spec: &WorkloadSpec,
        params: &SimParams,
        threads: usize,
    ) -> Vec<AccessStream> {
        (0..threads)
            .map(|index| AccessStream::new(spec, params.seed.wrapping_add(index as u64)))
            .collect()
    }

    /// Runs the measured phase with live per-thread streams and a schedule
    /// of mid-run phase-change events (the dynamic counterpart of
    /// [`ExecutionEngine::run`]).
    ///
    /// # Errors
    ///
    /// Propagates page-fault handling errors and phase-change application
    /// errors (allocation, Mitosis policy).
    #[allow(clippy::too_many_arguments)]
    pub fn run_dynamic(
        &mut self,
        system: &mut System,
        mitosis: &mut Mitosis,
        pid: Pid,
        spec: &WorkloadSpec,
        region: VirtAddr,
        threads: &[ThreadPlacement],
        params: &SimParams,
        schedule: &PhaseSchedule,
    ) -> Result<RunMetrics, MitosisError> {
        let mut streams = Self::thread_streams(spec, params, threads.len());
        let run = RunSpec {
            spec,
            threads,
            accesses_per_thread: params.accesses_per_thread,
            sources: &mut streams,
            schedule,
            resume: None,
            stop_at: None,
        };
        self.execute(system, mitosis, pid, region, run)
            .map(SpanOutcome::completed)
    }

    /// The generic measured phase: every thread replays its own
    /// [`AccessSource`], and the schedule's phase-change events fire at
    /// their access-count boundaries.
    ///
    /// This is the entry point trace capture and replay use: a captured
    /// trace lane fed through here reproduces the metrics of the live run
    /// that generated it bit-for-bit.
    ///
    /// The run is split into segments between consecutive boundaries.
    /// Within a segment every thread executes the same number of accesses,
    /// then the due events mutate the [`System`] exactly once, and the next
    /// segment starts.  Each thread carries its own translation-state
    /// snapshot — CR3, cost-model view, per-target-socket data-cost table —
    /// refreshed at the thread's *own* boundaries: every global (unfiltered)
    /// event refreshes all threads (and, for mapping-mutating changes,
    /// broadcasts a TLB shootdown to every MMU), while a thread-filtered
    /// event refreshes and shoots down only its target, leaving the other
    /// threads on their per-thread segment lists with warm-but-stale MMU
    /// state (stale translations still name valid frames — just on the
    /// pre-change socket, which is the staggered effect being modelled).
    /// The machine-level per-socket page-table-line caches are physically
    /// coherent with the page tables and flush on every mapping-mutating
    /// event regardless of filter.  With an empty schedule all of this
    /// degenerates to exactly the static run — same order of operations,
    /// bit-identical metrics.
    ///
    /// # Threading
    ///
    /// Simulated threads are deterministic, not preemptive.  The threads of
    /// one socket — a *socket group* — share that socket's page-table-line
    /// cache, so within a group a segment runs thread by thread in thread
    /// order (lowest index first).  Groups share only the page tables'
    /// accessed/dirty bits, which the walker sets with an order-independent
    /// atomic OR, as long as nothing faults.  So at each segment start the
    /// engine tries to prove the segment fault-free:
    ///
    /// * every source reports an upper bound on the offsets it can still
    ///   yield ([`AccessSource::offset_bound`]),
    /// * every CR3 the threads load maps `[region, region + bound)` with
    ///   present, writable leaves — checked table by table from the page
    ///   tables' entry bitmaps ([`check_writable_range`]) — and
    /// * every thread's paging-structure caches agree with the tables from
    ///   its CR3 ([`WalkHalf::agrees_with`]), so each walk translates as a
    ///   software lookup of the tables does.
    ///
    /// A proven segment runs on several host threads, in one of two
    /// schedules:
    ///
    /// * **Split**, with two or more socket groups: the calling thread runs
    ///   the first group, one scoped thread runs each further group, and
    ///   each group owns its MMUs, cycle totals and its socket's
    ///   page-table-line cache while it runs.
    /// * **Pipelined**, with one thread: the calling thread draws
    ///   every access, probes and fills the TLBs and charges compute and
    ///   data cycles; one scoped thread walks the TLB misses in order
    ///   through the paging-structure caches, the socket's page-table-line
    ///   cache and the cost model.  A fill comes from a software lookup of
    ///   the fixed tables (each 2 MiB region's leaf table remembered for
    ///   the segment), which also sets the leaf's accessed/dirty bits; the
    ///   misses cross to the walk stage in bounded batches.  Each stage
    ///   owns its half of every MMU ([`Mmu::into_halves`]) and its
    ///   counters, which join when the segment ends.
    ///
    /// Every other segment runs serially on the calling thread, among them
    /// one socket group of several threads
    /// ([`SerialReason::SharedSocket`]).  In every schedule the metrics,
    /// accessed/dirty bits and page-table-line cache counters are
    /// bit-identical; the choice depends only on the socket groups, the
    /// sources' bounds, the page tables and the MMUs' cached entries, never
    /// on the host.
    /// [`ExecutionEngine::last_split`] reports what happened.  A fault in a
    /// split or pipelined segment — possible only if a source under-reports
    /// its bound — stops the run with [`MitosisError::SplitFault`] naming
    /// the thread, access index and address; the serial path demand-pages
    /// instead.  A source that panics mid-segment re-raises on the calling
    /// thread once the segment's other host threads have stopped.
    ///
    /// A thread filter at or beyond `threads.len()` applies the change to
    /// the system without any local thread observing it (see
    /// [`PhaseEvent::thread`](crate::PhaseEvent)).
    ///
    /// [`RunSpec::resume`] and [`RunSpec::stop_at`] bound the run to
    /// `[start, stop)` instead of always `[0, accesses_per_thread)`.  A
    /// paused-then-resumed run re-executes the same per-access operations
    /// in the same order as an uninterrupted run *within each thread*, and
    /// the completed metrics cover the whole run.  Cross-thread interleaving
    /// differs only around the pause boundary, which matters only for state
    /// shared between threads mid-run: metrics are bit-identical to the
    /// uninterrupted run whenever the threads don't share mutable mid-run
    /// state — a single thread, or threads on distinct sockets replaying a
    /// fully premapped region (no demand faults) — or when the stop falls on
    /// an existing schedule boundary.  The trace-replay layer documents the
    /// same conditions for its `checkpoint_at`.
    ///
    /// # Errors
    ///
    /// Returns [`MitosisError::InvalidRun`], before anything runs, for a
    /// source count other than the placements', a `resume` checkpoint taken
    /// with another thread count, or a `stop_at` before the resume point or
    /// at or past `accesses_per_thread`.  Propagates page-fault handling
    /// errors (demand paging during the measured phase is allowed and
    /// counted) and event application errors; returns
    /// [`MitosisError::SplitFault`] as described above.
    pub fn execute<S: AccessSource + Send>(
        &mut self,
        system: &mut System,
        mitosis: &mut Mitosis,
        pid: Pid,
        region: VirtAddr,
        run: RunSpec<'_, S>,
    ) -> Result<SpanOutcome, MitosisError> {
        let RunSpec {
            spec,
            threads,
            accesses_per_thread,
            sources,
            schedule,
            resume,
            stop_at,
        } = run;
        let invalid = |reason| Err(MitosisError::InvalidRun { reason });
        if threads.len() != sources.len() {
            return invalid("one access source per thread placement");
        }
        if resume.is_some_and(|checkpoint| checkpoint.mmus.len() != threads.len()) {
            return invalid("the checkpoint was taken with a different thread count");
        }
        let start_access = resume.map_or(0, |checkpoint| checkpoint.at);
        match stop_at {
            Some(stop) if stop < start_access => {
                return invalid("the stop boundary precedes the resume point")
            }
            Some(stop) if stop >= accesses_per_thread => {
                return invalid("the stop boundary must lie strictly inside the run")
            }
            _ => {}
        }
        match resume {
            // Machine-level cache state is part of the checkpoint: restore
            // the per-socket page-table-line caches the paused run warmed.
            Some(checkpoint) => self.pte_caches = checkpoint.pte_caches.clone(),
            None => {
                self.shootdowns = ShootdownStats::default();
                self.split = SplitStats::default();
            }
        }
        let frame_space = system.pt_env().alloc.frame_space().clone();
        let ctx = AccessCtx {
            region: region.as_u64(),
            compute_cycles: spec.compute_cycles_per_access(),
            frame_space: &frame_space,
        };
        let sockets = system.machine().sockets();
        let groups = socket_groups(threads);
        let mut mmus = match resume {
            Some(checkpoint) => checkpoint.mmus.clone(),
            None => self.checkout_mmus(threads),
        };
        // Tag every core's TLB with the running process's ASID: lookups and
        // inserts use one constant value per run (hit/miss behaviour — and
        // golden metrics — are unchanged), but ranged shootdown plans carry
        // this ASID in their ranges, so invalidation actually matches the
        // resident entries.
        for mmu in &mut mmus {
            mmu.set_asid(System::asid_of(pid));
        }
        let mut totals = match resume {
            Some(checkpoint) => checkpoint.totals.clone(),
            None => vec![ThreadTotals::default(); threads.len()],
        };
        let mut states: Vec<Option<ThreadPhase>> = match resume {
            Some(checkpoint) => checkpoint.states.clone(),
            None => vec![None; threads.len()],
        };

        // The fallible measured phase runs inside a closure so the
        // checked-out MMUs return to the pool on *every* exit path — an
        // error mid-run (a failing phase change, a fault-handling error, a
        // fault in a split segment) must not discard the pool and silently
        // rebuild TLB/PWC arrays on each later run.  Checkout resets pooled
        // MMUs, so returning dirty ones is safe.
        let result = (|| -> Result<Option<EngineCheckpoint>, MitosisError> {
            let mut segment_start = start_access;
            for boundary in schedule.boundaries(accesses_per_thread) {
                if boundary < segment_start {
                    // Already executed — and its events already fired —
                    // before the checkpoint this run resumes from.
                    continue;
                }
                // A stop inside this segment clips it: run up to the stop,
                // pause, and let the resumed run finish the segment.
                let run_to = match stop_at {
                    Some(stop) if stop < boundary => stop,
                    _ => boundary,
                };
                if run_to > segment_start {
                    let _segment_span = self.observer.span("engine.segment", self.obs_track);
                    // Threads refreshing at the same segment start snapshot
                    // the same cost-model state: share one clone (it holds
                    // the dense precomputed cycle matrix) instead of paying
                    // one copy per thread.
                    let mut shared_cost: Option<Arc<CostModel>> = None;
                    for (placement, state) in threads.iter().zip(&mut states) {
                        if state.is_some() {
                            continue;
                        }
                        let cost = shared_cost
                            .get_or_insert_with(|| Arc::new(system.machine().cost_model().clone()))
                            .clone();
                        // Data-access cost depends only on (thread socket,
                        // data socket, workload bandwidth intensity), all
                        // fixed until the thread's next boundary: precompute
                        // the per-target-socket cycle table once so the
                        // inner loop charges data accesses with a single
                        // indexed load.
                        let data_cost: Vec<Cycles> = (0..sockets)
                            .map(|to| {
                                data_access_cycles(
                                    &cost,
                                    placement.socket,
                                    SocketId::new(to as u16),
                                    spec.bandwidth_intensity(),
                                )
                            })
                            .collect();
                        let cr3 = system.cr3_for(pid, placement.socket)?;
                        *state = Some(ThreadPhase {
                            cost,
                            data_cost,
                            cr3,
                        });
                    }

                    let proof =
                        prove_fault_free(&system.pt_env().store, region, sources, &states, &mmus)
                            .and(match groups.as_slice() {
                                [group] if group.len() > 1 => Err(SerialReason::SharedSocket {
                                    threads: group.len(),
                                }),
                                _ => Ok(()),
                            });
                    if let Err(reason) = proof {
                        self.split.last_serial_reason = Some(reason);
                    }
                    let segment = ParallelSegment {
                        groups: &groups,
                        threads,
                        sources: &mut *sources,
                        states: &states,
                        mmus: &mut mmus,
                        totals: &mut totals,
                        segment_start,
                        run_to,
                    };
                    if proof.is_ok() && groups.len() >= 2 {
                        self.split.split_segments += 1;
                        self.split.threads_spawned += groups.len() as u64 - 1;
                        run_split(
                            &mut self.pte_caches,
                            Tables::of(system.pt_env()),
                            ctx,
                            segment,
                        )?;
                    } else if proof.is_ok() && groups.len() == 1 {
                        self.split.pipelined_segments += 1;
                        self.split.threads_spawned += 1;
                        run_pipelined(
                            &mut self.pte_caches,
                            Tables::of(system.pt_env()),
                            ctx,
                            region,
                            segment,
                        )?;
                    } else {
                        self.split.serial_segments += 1;
                        for (index, (placement, source)) in
                            threads.iter().zip(sources.iter_mut()).enumerate()
                        {
                            let phase = states[index].as_ref().expect("phases derived above");
                            let mmu = &mut mmus[index];
                            let totals = &mut totals[index];
                            for _ in segment_start..run_to {
                                let access = source.next_access();
                                let Err(addr) = step_access(
                                    access.offset,
                                    access.is_write,
                                    mmu,
                                    totals,
                                    self.pte_caches.socket(placement.socket),
                                    phase,
                                    Tables::of(system.pt_env()),
                                    ctx,
                                ) else {
                                    continue;
                                };
                                // Demand paging: fault into the kernel, then
                                // retry.
                                totals.demand_faults += 1;
                                let fault = system.handle_fault_access(
                                    pid,
                                    addr,
                                    placement.socket,
                                    access.is_write,
                                )?;
                                if !system.pending_shootdown().is_empty() {
                                    // A copy-on-write break remapped the page
                                    // (ranged mode records it): invalidate
                                    // locally before the retry.
                                    let plan = system.take_shootdown_plan();
                                    self.shootdowns.merge(&shootdown::apply_local(
                                        &plan,
                                        mmu,
                                        &mut self.pte_caches,
                                    ));
                                }
                                let tables = Tables::of(system.pt_env());
                                let retry = mmu.access(
                                    addr,
                                    access.is_write,
                                    phase.cr3,
                                    tables.store,
                                    tables.frames,
                                    &phase.cost,
                                    self.pte_caches.socket(placement.socket),
                                );
                                totals.translation += retry.translation_cycles;
                                let frame = retry.frame.unwrap_or(fault.frame);
                                totals.data +=
                                    phase.data_cost[frame_space.socket_of(frame).index()];
                            }
                        }
                    }
                }

                if stop_at == Some(run_to) {
                    // Pause *before* any phase-change events scheduled at
                    // this index fire: the resumed run re-enters with
                    // `segment_start == run_to`, so a matching boundary runs
                    // an empty segment and fires its events exactly once.
                    return Ok(Some(EngineCheckpoint {
                        at: run_to,
                        mmus: mmus.clone(),
                        totals: totals.clone(),
                        states: states.clone(),
                        pte_caches: self.pte_caches.clone(),
                    }));
                }

                let mut broadcast_flush = false;
                let mut cache_flush = false;
                let mut escalate_full = false;
                let mut targeted: Vec<usize> = Vec::new();
                for event in schedule.events_at(boundary, accesses_per_thread) {
                    apply_phase_change(system, mitosis, pid, event.change)?;
                    let mutates = event.change.mutates_mappings();
                    cache_flush |= mutates;
                    escalate_full |= mutates && !event.change.supports_ranged_shootdown();
                    match event.thread {
                        None => {
                            // All threads re-derive their state at the next
                            // segment start.
                            states.fill(None);
                            broadcast_flush |= mutates;
                        }
                        Some(thread) if thread < threads.len() => {
                            states[thread] = None;
                            if mutates {
                                targeted.push(thread);
                            }
                        }
                        // Out-of-range target: the system mutated, no local
                        // thread observes it (lane-subset replay).
                        Some(_) => {}
                    }
                }
                // All TLB/PTE-cache consistency work — broadcast full
                // flushes or the drained ranged plan — happens in the
                // shootdown module, the only place allowed to flush.
                let work = shootdown::apply_boundary(
                    system,
                    &mut mmus,
                    &mut self.pte_caches,
                    BoundaryFlush {
                        broadcast: broadcast_flush,
                        targeted: &targeted,
                        cache_flush,
                        escalate_full,
                    },
                );
                self.shootdowns.merge(&work);
                segment_start = boundary;
            }
            Ok(None)
        })();

        let paused = match result {
            Ok(paused) => paused,
            Err(err) => {
                self.mmu_pool = mmus;
                return Err(err);
            }
        };
        if let Some(checkpoint) = paused {
            // The working MMUs were cloned into the checkpoint; the
            // originals go back to the pool (checkout resets them), so a
            // pause is as pool-friendly as a completed run.
            self.mmu_pool = mmus;
            return Ok(SpanOutcome::Paused(checkpoint));
        }
        let mut metrics = RunMetrics::default();
        for (totals, mmu) in totals.iter().zip(&mmus) {
            metrics.absorb_thread(
                totals.compute + totals.data + totals.translation,
                totals.compute,
                totals.data,
                totals.translation,
                accesses_per_thread,
                &mmu.stats(),
                totals.demand_faults,
            );
        }
        if self.observer.is_enabled() {
            self.observer.counter("engine.runs", 1);
            self.observer.counter("engine.accesses", metrics.accesses);
            self.observer
                .counter("engine.demand_faults", metrics.demand_faults);
        }
        self.mmu_pool = mmus;
        Ok(SpanOutcome::Completed(metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreparedSystem;
    use mitosis_numa::{Interference, MachineConfig};
    use mitosis_vmm::MmapFlags;
    use mitosis_workloads::suite;

    fn quick() -> SimParams {
        SimParams::quick_test()
    }

    fn setup(params: &SimParams) -> (System, Pid, VirtAddr, WorkloadSpec) {
        let mut system = System::new(params.machine());
        let pid = system.create_process(SocketId::new(0)).unwrap();
        let spec = params.scale_workload(&suite::gups());
        let region = system
            .mmap(pid, spec.footprint(), MmapFlags::lazy().without_thp())
            .unwrap();
        ExecutionEngine::populate(
            &mut system,
            pid,
            region,
            spec.footprint(),
            InitPattern::SingleThread,
            &[SocketId::new(0)],
        )
        .unwrap();
        (system, pid, region, spec)
    }

    #[test]
    fn local_run_produces_mostly_local_walks() {
        let params = quick();
        let (mut system, pid, region, spec) = setup(&params);
        let mut engine = ExecutionEngine::new(&system);
        let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let metrics = engine
            .run(&mut system, pid, &spec, region, &threads, &params)
            .unwrap();
        assert_eq!(metrics.accesses, params.accesses_per_thread);
        assert!(metrics.total_cycles > 0);
        assert!(metrics.mmu.walk.remote_dram_fraction() < 0.05);
        assert_eq!(metrics.demand_faults, 0, "populate covered the footprint");
    }

    #[test]
    fn remote_data_is_slower_than_local_data() {
        let params = quick();
        let (mut system, pid, region, spec) = setup(&params);
        let mut engine = ExecutionEngine::new(&system);
        // Same page table, but run the thread from socket 1: data and page
        // tables are now remote.
        let local_threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let remote_threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(1)]);
        let local = engine
            .run(&mut system, pid, &spec, region, &local_threads, &params)
            .unwrap();
        let remote = engine
            .run(&mut system, pid, &spec, region, &remote_threads, &params)
            .unwrap();
        assert!(remote.total_cycles as f64 > local.total_cycles as f64 * 1.5);
        assert!(remote.mmu.walk.remote_dram_fraction() > 0.9);
    }

    #[test]
    fn data_access_cost_orders_local_remote_interfered() {
        let machine = MachineConfig::paper_testbed().build();
        let mut cost = machine.cost_model().clone();
        let local = data_access_cycles(&cost, SocketId::new(0), SocketId::new(0), 0.9);
        let remote = data_access_cycles(&cost, SocketId::new(0), SocketId::new(1), 0.9);
        let remote_low_bw = data_access_cycles(&cost, SocketId::new(0), SocketId::new(1), 0.0);
        assert!(local < remote_low_bw);
        assert!(remote_low_bw < remote);
        cost.set_interference(Interference::on([SocketId::new(1)]));
        let interfered = data_access_cycles(&cost, SocketId::new(0), SocketId::new(1), 0.0);
        assert!(interfered > remote_low_bw);
    }

    #[test]
    fn demand_faults_are_handled_during_the_run() {
        let params = quick();
        let mut system = System::new(params.machine());
        let pid = system.create_process(SocketId::new(0)).unwrap();
        let spec = params.scale_workload(&suite::gups());
        // Lazy mapping, no populate: every new page faults.
        let region = system
            .mmap(pid, spec.footprint(), MmapFlags::lazy().without_thp())
            .unwrap();
        let mut engine = ExecutionEngine::new(&system);
        let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let metrics = engine
            .run(&mut system, pid, &spec, region, &threads, &params)
            .unwrap();
        assert!(metrics.demand_faults > 0);
    }

    #[test]
    fn pooled_mmus_reproduce_fresh_engine_metrics() {
        // The engine recycles MMUs across runs; a reset MMU must behave
        // exactly like a fresh one, so re-running on a reused engine gives
        // bit-identical metrics to a fresh engine.
        let params = quick();
        let (mut system, pid, region, spec) = setup(&params);
        let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let fresh = ExecutionEngine::new(&system)
            .run(&mut system, pid, &spec, region, &threads, &params)
            .unwrap();
        let mut reused = ExecutionEngine::new(&system);
        let first = reused
            .run(&mut system, pid, &spec, region, &threads, &params)
            .unwrap();
        assert_eq!(first, fresh, "pooled MMU checkout changed the metrics");
        // Without a reset the warm per-socket page-table-line caches carry
        // over (the L3 is machine state, deliberately); a reset engine is
        // indistinguishable from a fresh one.
        reused.reset();
        let after_reset = reused
            .run(&mut system, pid, &spec, region, &threads, &params)
            .unwrap();
        assert_eq!(after_reset, fresh, "pooled MMU state leaked across runs");
    }

    #[test]
    fn mmu_pool_survives_a_failing_run() {
        // A phase change that fails mid-run must not discard the pooled
        // MMUs: the next run on the same engine still checks them out
        // (reset) instead of rebuilding TLB/PWC arrays.
        let params = quick();
        let (mut system, pid, region, spec) = setup(&params);
        let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let mut engine = ExecutionEngine::new(&system);
        let baseline = engine
            .run(&mut system, pid, &spec, region, &threads, &params)
            .unwrap();
        assert_eq!(engine.mmu_pool.len(), 1);

        // Socket 99 does not exist: applying the change fails mid-run.
        let bad = PhaseSchedule::new().at(
            params.accesses_per_thread / 2,
            crate::dynamics::PhaseChange::MigrateData {
                target: SocketId::new(99),
            },
        );
        let mut mitosis = Mitosis::new();
        engine
            .run_dynamic(
                &mut system,
                &mut mitosis,
                pid,
                &spec,
                region,
                &threads,
                &params,
                &bad,
            )
            .unwrap_err();
        assert_eq!(
            engine.mmu_pool.len(),
            1,
            "failed run must return the checked-out MMUs to the pool"
        );

        // And the reused pool still reproduces fresh-engine metrics (after
        // a reset — the warm per-socket page-table-line caches are machine
        // state, deliberately carried across runs).
        engine.reset();
        let after = engine
            .run(&mut system, pid, &spec, region, &threads, &params)
            .unwrap();
        assert_eq!(after, baseline);

        // A split segment that faults fails with a typed error and still
        // returns every MMU: two sockets' sources claim a bound of one page
        // of the premapped region while drawing from all of it.
        struct Lying(AccessStream);
        impl AccessSource for Lying {
            fn next_access(&mut self) -> mitosis_workloads::Access {
                self.0.next_access()
            }
            fn offset_bound(&self) -> Option<u64> {
                Some(PageSize::Base4K.bytes())
            }
        }
        let (mut system, pid, region, spec) = setup(&params);
        system
            .mprotect(
                pid,
                region.add(PageSize::Base4K.bytes()),
                spec.footprint() - PageSize::Base4K.bytes(),
                mitosis_vmm::Protection::ReadOnly,
            )
            .unwrap();
        let pair =
            ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0), SocketId::new(1)]);
        let mut sources: Vec<Lying> = ExecutionEngine::thread_streams(&spec, &params, 2)
            .into_iter()
            .map(Lying)
            .collect();
        let run = RunSpec {
            spec: &spec,
            threads: &pair,
            accesses_per_thread: params.accesses_per_thread,
            sources: &mut sources,
            schedule: &PhaseSchedule::new(),
            resume: None,
            stop_at: None,
        };
        let mut engine = ExecutionEngine::new(&system);
        let err = engine
            .execute(&mut system, &mut Mitosis::new(), pid, region, run)
            .unwrap_err();
        assert!(matches!(err, MitosisError::SplitFault { .. }), "{err}");
        assert_eq!(engine.last_split().split_segments, 1);
        assert_eq!(
            engine.mmu_pool.len(),
            2,
            "a failing split run must return every MMU to the pool"
        );

        // So does a pipelined one: a single socket's lying source faults
        // in the TLB stage, and both halves of its MMU come back.
        let single = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let mut sources: Vec<Lying> = ExecutionEngine::thread_streams(&spec, &params, 1)
            .into_iter()
            .map(Lying)
            .collect();
        let run = RunSpec {
            spec: &spec,
            threads: &single,
            accesses_per_thread: params.accesses_per_thread,
            sources: &mut sources,
            schedule: &PhaseSchedule::new(),
            resume: None,
            stop_at: None,
        };
        let mut engine = ExecutionEngine::new(&system);
        let err = engine
            .execute(&mut system, &mut Mitosis::new(), pid, region, run)
            .unwrap_err();
        assert!(
            matches!(err, MitosisError::SplitFault { thread: 0, .. }),
            "{err}"
        );
        assert_eq!(engine.last_split().pipelined_segments, 1);
        assert_eq!(
            engine.mmu_pool.len(),
            1,
            "a failing pipelined run must return its MMU to the pool"
        );
        engine.reset();
        let (mut system, pid, region, spec) = setup(&params);
        let after = engine
            .run(&mut system, pid, &spec, region, &single, &params)
            .unwrap();
        assert_eq!(after, baseline, "the rejoined MMU reproduces a fresh one");
    }

    /// Runs a one-thread span over `sources` bounded by `resume` and
    /// `stop_at`, and returns the reason the engine refused it.
    fn invalid_run(
        sources: usize,
        resume: Option<&EngineCheckpoint>,
        stop_at: Option<u64>,
    ) -> &'static str {
        let params = quick();
        let (mut system, pid, region, spec) = setup(&params);
        let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let mut streams = ExecutionEngine::thread_streams(&spec, &params, sources);
        let run = RunSpec {
            spec: &spec,
            threads: &threads,
            accesses_per_thread: params.accesses_per_thread,
            sources: &mut streams,
            schedule: &PhaseSchedule::new(),
            resume,
            stop_at,
        };
        let mut engine = ExecutionEngine::new(&system);
        match engine.execute(&mut system, &mut Mitosis::new(), pid, region, run) {
            Err(MitosisError::InvalidRun { reason }) => reason,
            other => panic!("expected an invalid run, got {other:?}"),
        }
    }

    #[test]
    fn a_source_count_other_than_the_placements_is_an_invalid_run() {
        assert!(invalid_run(2, None, None).contains("one access source per thread"));
    }

    #[test]
    fn a_checkpoint_of_another_thread_count_is_an_invalid_run() {
        let params = quick();
        let (mut system, pid, region, spec) = setup(&params);
        let pair =
            ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0), SocketId::new(1)]);
        let mut streams = ExecutionEngine::thread_streams(&spec, &params, 2);
        let run = RunSpec {
            spec: &spec,
            threads: &pair,
            accesses_per_thread: params.accesses_per_thread,
            sources: &mut streams,
            schedule: &PhaseSchedule::new(),
            resume: None,
            stop_at: Some(10),
        };
        let mut engine = ExecutionEngine::new(&system);
        let SpanOutcome::Paused(checkpoint) = engine
            .execute(&mut system, &mut Mitosis::new(), pid, region, run)
            .unwrap()
        else {
            panic!("a stop inside the run pauses it");
        };
        assert!(invalid_run(1, Some(&checkpoint), None).contains("different thread count"));
    }

    #[test]
    fn a_stop_before_the_resume_point_is_an_invalid_run() {
        let params = quick();
        let (mut system, pid, region, spec) = setup(&params);
        let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let mut streams = ExecutionEngine::thread_streams(&spec, &params, 1);
        let run = RunSpec {
            spec: &spec,
            threads: &threads,
            accesses_per_thread: params.accesses_per_thread,
            sources: &mut streams,
            schedule: &PhaseSchedule::new(),
            resume: None,
            stop_at: Some(10),
        };
        let SpanOutcome::Paused(checkpoint) = ExecutionEngine::new(&system)
            .execute(&mut system, &mut Mitosis::new(), pid, region, run)
            .unwrap()
        else {
            panic!("a stop inside the run pauses it");
        };
        assert!(invalid_run(1, Some(&checkpoint), Some(9)).contains("precedes the resume point"));
    }

    #[test]
    fn a_stop_at_or_past_the_end_is_an_invalid_run() {
        let end = quick().accesses_per_thread;
        for stop in [end, end + 1] {
            assert!(invalid_run(1, None, Some(stop)).contains("strictly inside the run"));
        }
    }

    #[test]
    fn snapshot_runs_are_bit_identical_and_repeatable() {
        // A PreparedSystem clone must be indistinguishable from the system
        // it was cloned from: running the measured phase from the snapshot
        // (any number of times) reproduces a direct run bit-for-bit, and
        // the snapshot itself stays untouched.
        let params = quick();
        let (mut system, pid, region, spec) = setup(&params);
        let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let snapshot = PreparedSystem {
            system: system.clone(),
            mitosis: Mitosis::new(),
            pid,
            region,
        };
        let direct = ExecutionEngine::new(&system)
            .run(&mut system, pid, &spec, region, &threads, &params)
            .unwrap();
        let mut engine = ExecutionEngine::new(&snapshot.system);
        for _ in 0..2 {
            let mut sources = ExecutionEngine::thread_streams(&spec, &params, threads.len());
            let mut clone = snapshot.clone();
            let run = RunSpec {
                spec: &spec,
                threads: &threads,
                accesses_per_thread: params.accesses_per_thread,
                sources: &mut sources,
                schedule: &PhaseSchedule::new(),
                resume: None,
                stop_at: None,
            };
            let from_snapshot = engine
                .execute(
                    &mut clone.system,
                    &mut clone.mitosis,
                    clone.pid,
                    clone.region,
                    run,
                )
                .unwrap()
                .completed();
            assert_eq!(from_snapshot, direct, "snapshot run diverged");
            engine.reset();
        }
    }

    #[test]
    fn paused_and_resumed_span_matches_the_uninterrupted_run() {
        // A single-thread run paused at an arbitrary access index and
        // resumed on the same system must complete with metrics
        // bit-identical to the uninterrupted run — including when the pause
        // lands on a schedule boundary (events must fire exactly once, on
        // the resumed side).
        let params = quick();
        let half = params.accesses_per_thread / 2;
        let schedule = PhaseSchedule::new().at(
            half,
            crate::dynamics::PhaseChange::MigrateData {
                target: SocketId::new(1),
            },
        );
        let run_once = |schedule: &PhaseSchedule| {
            let (mut system, pid, region, spec) = setup(&params);
            let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
            let mut mitosis = Mitosis::new();
            ExecutionEngine::new(&system)
                .run_dynamic(
                    &mut system,
                    &mut mitosis,
                    pid,
                    &spec,
                    region,
                    &threads,
                    &params,
                    schedule,
                )
                .unwrap()
        };
        let run_paused = |schedule: &PhaseSchedule, stop: u64| {
            let (mut system, pid, region, spec) = setup(&params);
            let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
            let mut mitosis = Mitosis::new();
            let mut engine = ExecutionEngine::new(&system);
            let mut sources = ExecutionEngine::thread_streams(&spec, &params, threads.len());
            let mut span = |resume, stop_at| {
                let run = RunSpec {
                    spec: &spec,
                    threads: &threads,
                    accesses_per_thread: params.accesses_per_thread,
                    sources: &mut sources,
                    schedule,
                    resume,
                    stop_at,
                };
                engine
                    .execute(&mut system, &mut mitosis, pid, region, run)
                    .unwrap()
            };
            let checkpoint = match span(None, Some(stop)) {
                SpanOutcome::Paused(checkpoint) => checkpoint,
                SpanOutcome::Completed(_) => panic!("a stop inside the run must pause"),
            };
            assert_eq!(checkpoint.at_access(), stop);
            // The sources already yielded `stop` accesses each; resuming
            // continues them in place.
            span(Some(&checkpoint), None).completed()
        };
        for schedule in [&PhaseSchedule::new(), &schedule] {
            let uninterrupted = run_once(schedule);
            // Mid-segment, exactly on the event boundary, and late.
            for stop in [half / 3, half, params.accesses_per_thread - 1] {
                assert_eq!(
                    run_paused(schedule, stop),
                    uninterrupted,
                    "pause at {stop} diverged"
                );
            }
        }
    }

    #[test]
    fn empty_schedule_matches_the_static_run() {
        let params = quick();
        let (mut system, pid, region, spec) = setup(&params);
        let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
        let static_run = ExecutionEngine::new(&system)
            .run(&mut system, pid, &spec, region, &threads, &params)
            .unwrap();
        let mut mitosis = Mitosis::new();
        let dynamic_run = ExecutionEngine::new(&system)
            .run_dynamic(
                &mut system,
                &mut mitosis,
                pid,
                &spec,
                region,
                &threads,
                &params,
                &PhaseSchedule::new(),
            )
            .unwrap();
        assert_eq!(dynamic_run, static_run);
    }

    #[test]
    fn mid_run_data_migration_changes_the_outcome_deterministically() {
        let params = quick();
        let schedule = PhaseSchedule::new().at(
            params.accesses_per_thread / 2,
            crate::dynamics::PhaseChange::MigrateData {
                target: SocketId::new(1),
            },
        );
        let run = |schedule: &PhaseSchedule| {
            let (mut system, pid, region, spec) = setup(&params);
            let threads = ExecutionEngine::one_thread_per_socket(&system, &[SocketId::new(0)]);
            let mut mitosis = Mitosis::new();
            ExecutionEngine::new(&system)
                .run_dynamic(
                    &mut system,
                    &mut mitosis,
                    pid,
                    &spec,
                    region,
                    &threads,
                    &params,
                    schedule,
                )
                .unwrap()
        };
        let baseline = run(&PhaseSchedule::new());
        let migrated = run(&schedule);
        let migrated_again = run(&schedule);
        assert_eq!(
            migrated, migrated_again,
            "dynamic runs must be deterministic"
        );
        assert!(
            migrated.total_cycles > baseline.total_cycles,
            "migrating the data away mid-run must slow the thread down: {} vs {}",
            migrated.total_cycles,
            baseline.total_cycles
        );
        assert!(migrated.data_cycles > baseline.data_cycles);
    }

    #[test]
    fn parallel_populate_spreads_first_touch_data() {
        let params = quick();
        let mut system = System::new(params.machine());
        let pid = system.create_process(SocketId::new(0)).unwrap();
        let spec = params.scale_workload(&suite::xsbench());
        let region = system
            .mmap(pid, spec.footprint(), MmapFlags::lazy().without_thp())
            .unwrap();
        let sockets: Vec<SocketId> = system.machine().socket_ids().collect();
        ExecutionEngine::populate(
            &mut system,
            pid,
            region,
            spec.footprint(),
            InitPattern::Parallel,
            &sockets,
        )
        .unwrap();
        let footprint = system.footprint(pid).unwrap();
        let populated_sockets = footprint.data_bytes.iter().filter(|b| **b > 0).count();
        assert_eq!(populated_sockets, 4);
    }
}
