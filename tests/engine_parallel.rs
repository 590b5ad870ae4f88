//! A segment split across socket groups, or pipelined, equals the same
//! segment run serially.
//!
//! `ExecutionEngine::execute` runs each socket group of a segment it has
//! proven fault-free on its own host thread, and a proven segment with one
//! thread as a pipeline: TLBs on the calling thread, page walks on a
//! second; several threads on one socket stay serial.  The reference for every run here is the same run with each
//! access source wrapped so that it reports no offset bound, which forces
//! the serial path.  The property test sweeps socket and thread layouts
//! (one socket included), replication, THP, write fractions, a live
//! recorder and a pause/resume at an arbitrary access, and compares
//! everything a run leaves behind: metrics, every root's leaf entries
//! (accessed and dirty bits included) and the per-socket page-table-line
//! cache counters.  With the recorder on, it also checks that
//! `SplitStats` accounts for every segment the engine ran: one
//! `engine.segment` span per split, pipelined or serial segment, and one
//! `engine.boundary` span per boundary of a churn schedule.  The
//! adversarial tests pin the layouts that must stay serial, the typed error
//! a lying source produces and the panic a failing source raises.

use mitosis::{Mitosis, MitosisError};
use mitosis_mem::FrameId;
use mitosis_numa::{NodeMask, SocketId};
use mitosis_obs::{MemoryRecorder, Observer};
use mitosis_pt::{iter_leaf_mappings, LeafMapping, PageSize, VirtAddr};
use mitosis_sim::{
    ExecutionEngine, PhaseChange, PhaseSchedule, RunMetrics, RunSpec, SerialReason, SimParams,
    SpanOutcome, SplitStats, ThreadPlacement,
};
use mitosis_vmm::{MmapFlags, Pid, Protection, ShootdownMode, System, ThpMode};
use mitosis_workloads::{
    Access, AccessPattern, AccessSource, AccessStream, InitPattern, Scenario, WorkloadSpec,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const FOOTPRINT: u64 = 16 << 20;
const ACCESSES: u64 = 400;

fn workload(write_fraction: f64) -> WorkloadSpec {
    WorkloadSpec::new(
        "uniform",
        "uniform random accesses over a small region",
        FOOTPRINT,
        AccessPattern::UniformRandom,
        write_fraction,
        5,
        0.9,
        InitPattern::SingleThread,
        Scenario::Both,
    )
}

/// An access stream that reports the bound it is given instead of its own:
/// `None` forces the serial path, a too-small bound lies.
struct Bounded {
    inner: AccessStream,
    bound: Option<u64>,
}

impl AccessSource for Bounded {
    fn next_access(&mut self) -> Access {
        self.inner.next_access()
    }

    fn offset_bound(&self) -> Option<u64> {
        self.bound
    }
}

/// How the reference and the run under test differ: only in the bound
/// their sources report.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// Each source reports its stream's own (exact) bound.
    Honest,
    /// Each source reports no bound: the forced-serial reference.
    Unknown,
    /// Each source reports this bound, whatever it yields.
    Claimed(u64),
}

/// One run's inputs.
#[derive(Debug, Clone, Copy)]
struct Layout {
    sockets: u16,
    per_socket: usize,
    mitosis: bool,
    thp: bool,
    write_fraction: f64,
    observed: bool,
    pause: Option<u64>,
    seed: u64,
}

impl Layout {
    fn new(sockets: u16, per_socket: usize) -> Self {
        Layout {
            sockets,
            per_socket,
            mitosis: false,
            thp: false,
            write_fraction: 0.5,
            observed: false,
            pause: None,
            seed: 11,
        }
    }
}

/// A built system before its measured phase.
struct Built {
    system: System,
    mitosis: Mitosis,
    pid: Pid,
    region: VirtAddr,
    spec: WorkloadSpec,
    threads: Vec<ThreadPlacement>,
}

/// Builds the layout's system; `populate` fills the region (or leaves it
/// lazy), and `mutate` runs last, before the measured phase.
fn build(layout: &Layout, populate: bool, mutate: impl FnOnce(&mut Built)) -> Built {
    let params = SimParams::quick_test();
    let mitosis = Mitosis::new();
    let mut system = if layout.mitosis {
        mitosis.install(params.machine())
    } else {
        System::new(params.machine())
    };
    let sockets: Vec<SocketId> = (0..layout.sockets).map(SocketId::new).collect();
    let flags = if layout.thp {
        system.set_thp(ThpMode::Always);
        MmapFlags::lazy()
    } else {
        MmapFlags::lazy().without_thp()
    };
    let pid = system.create_process(sockets[0]).expect("create process");
    let spec = workload(layout.write_fraction);
    let region = system.mmap(pid, FOOTPRINT, flags).expect("mmap");
    if populate {
        ExecutionEngine::populate(
            &mut system,
            pid,
            region,
            FOOTPRINT,
            InitPattern::Parallel,
            &sockets,
        )
        .expect("populate");
    }
    let mut mitosis = mitosis;
    if layout.mitosis {
        mitosis
            .enable_for_process(&mut system, pid, None)
            .expect("replicate");
    }
    let threads = ExecutionEngine::threads_for(&system, &sockets, layout.per_socket);
    let mut built = Built {
        system,
        mitosis,
        pid,
        region,
        spec,
        threads,
    };
    mutate(&mut built);
    built
}

/// Everything a run leaves behind that the split path could perturb, and
/// the `engine.segment` and `engine.boundary` spans its recorder saw (0
/// when unobserved).
#[derive(Debug, PartialEq)]
struct Outcome {
    metrics: RunMetrics,
    leaves: Vec<(FrameId, Vec<LeafMapping>)>,
    pte_cache_counts: Vec<(u64, u64)>,
    segment_spans: u64,
    boundary_spans: u64,
}

/// Runs `built` under `schedule` with every source reporting `bound`,
/// pausing and resuming at `layout.pause`; returns the outcome and the
/// engine's split report, or the run's error.
fn run(
    layout: &Layout,
    built: &mut Built,
    schedule: &PhaseSchedule,
    bound: Bound,
) -> Result<(Outcome, SplitStats), MitosisError> {
    let memory = Arc::new(MemoryRecorder::new());
    let mut engine = ExecutionEngine::new(&built.system);
    if layout.observed {
        engine.set_observer(Observer::with_recorder(memory.clone()));
    }
    let mut sources: Vec<Bounded> = (0..built.threads.len())
        .map(|thread| {
            let inner = AccessStream::new(&built.spec, layout.seed + thread as u64);
            let bound = match bound {
                Bound::Honest => inner.offset_bound(),
                Bound::Unknown => None,
                Bound::Claimed(claimed) => Some(claimed),
            };
            Bounded { inner, bound }
        })
        .collect();
    let mut span = |resume, stop_at| {
        let run = RunSpec {
            spec: &built.spec,
            threads: &built.threads,
            accesses_per_thread: ACCESSES,
            sources: &mut sources,
            schedule,
            resume,
            stop_at,
        };
        engine.execute(
            &mut built.system,
            &mut built.mitosis,
            built.pid,
            built.region,
            run,
        )
    };
    let metrics = match layout.pause {
        Some(pause) => {
            let SpanOutcome::Paused(checkpoint) = span(None, Some(pause))? else {
                panic!("a stop inside the run pauses it");
            };
            span(Some(&checkpoint), None)?
        }
        None => span(None, None)?,
    };
    let SpanOutcome::Completed(metrics) = metrics else {
        panic!("an unbounded span completes");
    };
    let split = engine.last_split();
    let store = &built.system.pt_env().store;
    let mut roots: Vec<FrameId> = (0..built.system.machine().sockets() as u16)
        .map(|socket| {
            built
                .system
                .cr3_for(built.pid, SocketId::new(socket))
                .expect("root")
        })
        .collect();
    roots.sort_unstable();
    roots.dedup();
    let leaves = roots
        .into_iter()
        .map(|root| (root, iter_leaf_mappings(store, root)))
        .collect();
    let caches = engine.pte_caches();
    let pte_cache_counts = (0..caches.sockets() as u16)
        .map(|socket| {
            let cache = caches.socket_ref(SocketId::new(socket));
            (cache.hits(), cache.misses())
        })
        .collect();
    Ok((
        Outcome {
            metrics,
            leaves,
            pte_cache_counts,
            segment_spans: memory.spans_named("engine.segment").len() as u64,
            boundary_spans: memory.spans_named("engine.boundary").len() as u64,
        },
        split,
    ))
}

/// Runs `layout` twice from identical builds — sources bounded honestly,
/// then unbounded — and returns both outcomes and split reports.
fn split_and_reference(
    layout: &Layout,
    schedule: &PhaseSchedule,
    populate: bool,
    mutate: impl Fn(&mut Built),
) -> ((Outcome, SplitStats), (Outcome, SplitStats)) {
    let mut built = build(layout, populate, &mutate);
    let split = run(layout, &mut built, schedule, Bound::Honest).expect("bounded run");
    let mut built = build(layout, populate, &mutate);
    let serial = run(layout, &mut built, schedule, Bound::Unknown).expect("reference run");
    (split, serial)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn split_segments_equal_the_forced_serial_reference(
        sockets in 1u16..5,
        per_socket in 1usize..4,
        flags in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        pause in 1u64..ACCESSES,
        target in 0u16..4,
        seed in 0u64..1_000,
    ) {
        let (mitosis, thp, writes, observed) = flags;
        let layout = Layout {
            mitosis,
            thp,
            write_fraction: if writes { 0.5 } else { 0.0 },
            observed,
            pause: Some(pause),
            seed,
            ..Layout::new(sockets, per_socket)
        };
        let schedule = PhaseSchedule::new().at(
            ACCESSES / 2,
            PhaseChange::MigrateData { target: SocketId::new(target % sockets) },
        );
        let ((split, split_stats), (serial, serial_stats)) =
            split_and_reference(&layout, &schedule, true, |_| {});
        prop_assert_eq!(&split.metrics, &serial.metrics);
        prop_assert_eq!(&split.leaves, &serial.leaves);
        prop_assert_eq!(&split.pte_cache_counts, &serial.pte_cache_counts);
        if observed {
            // The recorder changes nothing: both runs equal the unobserved
            // reference.
            let unobserved = Layout { observed: false, ..layout };
            let mut built = build(&unobserved, true, |_| {});
            let (reference, _) = run(&unobserved, &mut built, &schedule, Bound::Unknown)
                .expect("unobserved reference run");
            prop_assert_eq!(&split.metrics, &reference.metrics);
            prop_assert_eq!(&serial.metrics, &reference.metrics);
        }
        // One `engine.segment` span per segment each schedule counts; the
        // pause clips one segment in two, and both sides count each piece.
        for (outcome, stats) in [(&split, &split_stats), (&serial, &serial_stats)] {
            let segments = stats.split_segments + stats.pipelined_segments + stats.serial_segments;
            prop_assert_eq!(outcome.segment_spans, if observed { segments } else { 0 });
        }

        // Every segment of the premapped region splits, or with one thread
        // on one socket pipelines; several threads on one socket stay
        // serial, and the reference never leaves the calling thread.
        prop_assert_eq!(serial_stats.split_segments, 0);
        prop_assert_eq!(serial_stats.pipelined_segments, 0);
        prop_assert_eq!(serial_stats.threads_spawned, 0);
        if sockets == 1 && per_socket > 1 {
            prop_assert_eq!(split_stats, serial_stats_with(
                serial_stats.serial_segments,
                SerialReason::SharedSocket { threads: per_socket },
            ));
        } else {
            let (parallel, other, spawned_each) = if sockets == 1 {
                (split_stats.pipelined_segments, split_stats.split_segments, 1)
            } else {
                (split_stats.split_segments, split_stats.pipelined_segments, u64::from(sockets) - 1)
            };
            prop_assert_eq!(split_stats.serial_segments, 0);
            prop_assert_eq!(other, 0);
            prop_assert!(parallel >= 2);
            prop_assert_eq!(split_stats.threads_spawned, parallel * spawned_each);
            prop_assert_eq!(split_stats.last_serial_reason, None);
            prop_assert_eq!(serial_stats.serial_segments, parallel);
        }
        prop_assert_eq!(
            serial_stats.last_serial_reason,
            Some(SerialReason::UnboundedSource { thread: 0 })
        );
    }
}

/// A churn schedule — two forks, an mmap and a munmap away from the
/// region, and dropping the replicas — records one `engine.boundary` span
/// per boundary of the schedule beside its `engine.segment` spans, whether
/// the run pauses on a boundary, inside a segment or not at all, and the
/// recorder changes neither the metrics nor the page tables.
#[test]
fn every_boundary_records_one_span() {
    const CHURN_BASE: u64 = 0x7000_0000_0000;
    let schedule = PhaseSchedule::new()
        .at(60, PhaseChange::Fork)
        .at(
            120,
            PhaseChange::MmapAt {
                addr: VirtAddr::new(CHURN_BASE),
                length: 16 << 12,
            },
        )
        .at(
            180,
            PhaseChange::MunmapAt {
                addr: VirtAddr::new(CHURN_BASE + (4 << 12)),
                length: 8 << 12,
            },
        )
        .at(260, PhaseChange::Fork)
        .at(
            330,
            PhaseChange::SetReplicas {
                sockets: NodeMask::EMPTY,
            },
        );
    let boundaries = schedule.boundaries(ACCESSES).len() as u64;
    assert_eq!(boundaries, 6, "five event boundaries and the run's end");
    let ranged = |built: &mut Built| built.system.set_shootdown_mode(ShootdownMode::Ranged);
    for pause in [None, Some(120), Some(150)] {
        let layout = Layout {
            mitosis: true,
            observed: true,
            pause,
            ..Layout::new(2, 1)
        };
        let mut built = build(&layout, true, ranged);
        let (observed, stats) =
            run(&layout, &mut built, &schedule, Bound::Honest).expect("observed run");
        let unobserved = Layout {
            observed: false,
            ..layout
        };
        let mut built = build(&unobserved, true, ranged);
        let (reference, _) =
            run(&unobserved, &mut built, &schedule, Bound::Honest).expect("unobserved run");
        assert_eq!(observed.metrics, reference.metrics, "pause {pause:?}");
        assert_eq!(observed.leaves, reference.leaves, "pause {pause:?}");
        assert_eq!(observed.boundary_spans, boundaries, "pause {pause:?}");
        assert_eq!(reference.boundary_spans, 0);
        let segments = stats.split_segments + stats.pipelined_segments + stats.serial_segments;
        assert_eq!(observed.segment_spans, segments, "pause {pause:?}");
    }
}

/// The report of a run whose `segments` segments all ran serially, the
/// last for `reason`.
fn serial_stats_with(segments: u64, reason: SerialReason) -> SplitStats {
    SplitStats {
        serial_segments: segments,
        last_serial_reason: Some(reason),
        ..SplitStats::default()
    }
}

/// Runs a layout of `sockets` sockets, one thread each, that must stay
/// serial, checks it matched the forced-serial reference, and returns why
/// it did not split or pipeline.
fn serial_reason(sockets: u16, populate: bool, mutate: impl Fn(&mut Built)) -> SerialReason {
    let layout = Layout::new(sockets, 1);
    let ((outcome, stats), (reference, _)) =
        split_and_reference(&layout, &PhaseSchedule::new(), populate, mutate);
    assert_eq!(outcome, reference);
    assert_eq!(stats.split_segments, 0);
    assert_eq!(stats.pipelined_segments, 0);
    assert_eq!(stats.serial_segments, 1);
    assert_eq!(stats.threads_spawned, 0);
    stats
        .last_serial_reason
        .expect("a segment that ran serially says why")
}

/// The address of 4 KiB page `index` of the region every layout maps.
fn page(index: u64) -> VirtAddr {
    let built = build(&Layout::new(2, 1), false, |_| {});
    built.region.add(index * PageSize::Base4K.bytes())
}

#[test]
fn a_lazy_region_runs_serially() {
    for sockets in [1, 2] {
        assert_eq!(
            serial_reason(sockets, false, |_| {}),
            SerialReason::NotPresent { addr: page(0) }
        );
    }
}

#[test]
fn one_unpopulated_page_runs_serially() {
    // Populate everything, then punch one page out and map it back lazily.
    let hole = page(FOOTPRINT / PageSize::Base4K.bytes() / 2 + 3);
    let reason = serial_reason(2, true, |built| {
        let len = PageSize::Base4K.bytes();
        built.system.munmap(built.pid, hole, len).expect("munmap");
        built
            .system
            .mmap_at(built.pid, hole, len, MmapFlags::lazy())
            .expect("mmap_at");
    });
    assert_eq!(reason, SerialReason::NotPresent { addr: hole });
}

#[test]
fn a_read_only_page_runs_serially() {
    let protected = page(17);
    let reason = serial_reason(2, true, |built| {
        built
            .system
            .mprotect(
                built.pid,
                protected,
                PageSize::Base4K.bytes(),
                Protection::ReadOnly,
            )
            .expect("mprotect");
    });
    assert_eq!(reason, SerialReason::NotWritable { addr: protected });
}

#[test]
fn a_forked_region_runs_serially() {
    // Fork downgrades every writable leaf of the parent to copy-on-write.
    for sockets in [1, 2] {
        let reason = serial_reason(sockets, true, |built| {
            built.system.fork(built.pid).expect("fork");
        });
        assert_eq!(reason, SerialReason::NotWritable { addr: page(0) });
    }
}

#[test]
fn a_source_under_reporting_its_bound_fails_with_a_typed_error() {
    // Only the first half of the region is populated, and each source
    // claims to stay inside it while drawing from the whole region: split
    // across two sockets, and pipelined on one.  Thread 0 runs first in
    // either schedule, so the fault names its first access past the half,
    // found by drawing the same stream again: its own index, whatever
    // block of accesses the engine drew it in.
    for sockets in [2, 1] {
        let layout = Layout::new(sockets, 1);
        let half = FOOTPRINT / 2;
        let mut built = build(&layout, false, |built| {
            built
                .system
                .populate_region(built.pid, built.region, half, SocketId::new(0))
                .expect("populate half");
        });
        let err = run(
            &layout,
            &mut built,
            &PhaseSchedule::new(),
            Bound::Claimed(half),
        )
        .expect_err("an access past the claimed bound faults");
        let MitosisError::SplitFault {
            thread,
            access,
            addr,
        } = err
        else {
            panic!("expected a split fault, got {err}");
        };
        let mut stream = AccessStream::new(&built.spec, layout.seed);
        let (first, offset) = (0..ACCESSES)
            .map(|index| (index, stream.next_access().offset & !0x7))
            .find(|&(_, offset)| offset >= half)
            .expect("a uniform stream leaves the first half");
        assert_eq!(thread, 0);
        assert_eq!(access, first);
        assert_eq!(addr, built.region.add(offset));
        assert!(err.to_string().contains("under-reported"));
    }
}

/// An access stream that panics once it has yielded `left` accesses.
struct GivesOut {
    inner: AccessStream,
    left: u64,
}

impl AccessSource for GivesOut {
    fn next_access(&mut self) -> Access {
        assert!(self.left > 0, "the access source gave out");
        self.left -= 1;
        self.inner.next_access()
    }

    fn offset_bound(&self) -> Option<u64> {
        self.inner.offset_bound()
    }
}

#[test]
fn a_source_panicking_mid_segment_re_raises_on_the_caller() {
    // The last thread's source panics halfway through a proven segment:
    // on the pipeline's TLB stage with one socket, on a group's scoped
    // thread with two.  Either way the panic reaches the caller, and no
    // stage is left waiting for the other.
    for sockets in [1, 2] {
        let layout = Layout::new(sockets, 1);
        let mut built = build(&layout, true, |_| {});
        let threads = built.threads.len();
        let mut sources: Vec<GivesOut> = (0..threads)
            .map(|thread| GivesOut {
                inner: AccessStream::new(&built.spec, layout.seed + thread as u64),
                left: if thread + 1 == threads {
                    ACCESSES / 2
                } else {
                    ACCESSES
                },
            })
            .collect();
        let mut engine = ExecutionEngine::new(&built.system);
        let run = RunSpec {
            spec: &built.spec,
            threads: &built.threads,
            accesses_per_thread: ACCESSES,
            sources: &mut sources,
            schedule: &PhaseSchedule::new(),
            resume: None,
            stop_at: None,
        };
        let payload = catch_unwind(AssertUnwindSafe(|| {
            engine.execute(
                &mut built.system,
                &mut built.mitosis,
                built.pid,
                built.region,
                run,
            )
        }))
        .expect_err("the source's panic re-raises on the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("gave out"), "{message}");
        let stats = engine.last_split();
        assert_eq!(stats.pipelined_segments + stats.split_segments, 1);
    }
}
