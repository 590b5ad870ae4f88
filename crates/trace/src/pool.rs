//! Persistent worker pool for replay fan-out.
//!
//! [`ReplayPool`] owns a set of lazily spawned worker threads that live for
//! the pool's lifetime — across replay calls — instead of being spawned per
//! grouped replay.  Each worker owns one [`TraceReplayer`], so the pooled
//! execution engines (MMU models, per-socket page-table-line caches) stay
//! warm across jobs: a replay dispatched to a warm pool pays neither thread
//! spawn nor engine construction.
//!
//! [`ReplayPool::run`] is the one fan-out: it runs one job per lane group
//! under one `catch_unwind` and returns their results in group order.  A
//! job that panics yields [`ReplayError::Panic`] for its own group; the
//! worker survives and keeps serving jobs, and the other jobs' results are
//! untouched.  Jobs share one closure over `Arc`-held state (the crate
//! forbids `unsafe`, so there are no borrowed scoped jobs).

// Dispatch code here runs outside the pool's `catch_unwind`, where a panic
// would kill the session instead of failing one call: it returns a
// `ReplayError` instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::replay::{ReplayError, TraceReplayer};
use mitosis_sim::Observer;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A queued job: one lane group of a [`ReplayPool::run`] fan-out, run with
/// the worker's persistent [`TraceReplayer`].
type PoolJob = Box<dyn FnOnce(&mut TraceReplayer) + Send + 'static>;

/// The queue the workers drain, behind one mutex with a condvar.
#[derive(Default)]
struct PoolQueue {
    jobs: VecDeque<PoolJob>,
    shutdown: bool,
}

#[derive(Default)]
struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
}

impl PoolShared {
    /// The queue, even if a thread panicked while holding the lock: the
    /// queue is only ever pushed to and popped from, so it stays valid.
    fn lock(&self) -> MutexGuard<'_, PoolQueue> {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A persistent, lazily grown pool of replay worker threads.
///
/// Owned by [`ReplaySession`](crate::ReplaySession); threads are spawned on
/// demand (never per call) and joined when the pool is dropped.
pub(crate) struct ReplayPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ReplayPool {
    /// A pool with no threads yet; workers are spawned on first use.
    pub(crate) fn new() -> Self {
        ReplayPool {
            shared: Arc::new(PoolShared::default()),
            workers: Vec::new(),
        }
    }

    /// Total worker threads spawned over the pool's lifetime.  Repeated
    /// replays on a warm pool leave this constant — the no-per-call-spawn
    /// property the API tests pin.
    pub(crate) fn threads_spawned(&self) -> usize {
        self.workers.len()
    }

    /// Runs `job(group, replayer)` for every lane group in `0..groups` on
    /// the pool, with at least `workers` threads (and at least one) alive,
    /// and returns the results in group order.  A job that panics yields
    /// [`ReplayError::Panic`] naming its group (`"lane group 2: ..."`);
    /// the other jobs still run and their results come back in their
    /// slots.
    ///
    /// The pool never shrinks: a later smaller request leaves the extra
    /// workers idle on the condvar, where they cost nothing.
    pub(crate) fn run<T, F>(
        &mut self,
        workers: usize,
        groups: usize,
        job: F,
    ) -> Vec<Result<T, ReplayError>>
    where
        T: Send + 'static,
        F: Fn(usize, &mut TraceReplayer) -> Result<T, ReplayError> + Send + Sync + 'static,
    {
        while self.workers.len() < workers.max(1) {
            let shared = Arc::clone(&self.shared);
            self.workers
                .push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let job = Arc::new(job);
        let (sender, receiver) = mpsc::channel();
        {
            let mut queue = self.shared.lock();
            for group in 0..groups {
                let job = Arc::clone(&job);
                let sender = sender.clone();
                queue.jobs.push_back(Box::new(move |replayer| {
                    let result = catch_unwind(AssertUnwindSafe(|| job(group, replayer)))
                        .unwrap_or_else(|payload| {
                            Err(ReplayError::Panic(format!(
                                "lane group {group}: {}",
                                panic_message(payload.as_ref())
                            )))
                        });
                    let _ = sender.send((group, result));
                }));
            }
        }
        self.shared.available.notify_all();
        drop(sender);

        let mut results: Vec<Option<Result<T, ReplayError>>> = (0..groups).map(|_| None).collect();
        for (group, result) in receiver {
            results[group] = Some(result);
        }
        results
            .into_iter()
            .enumerate()
            .map(|(group, result)| {
                result.unwrap_or_else(|| {
                    Err(ReplayError::Panic(format!(
                        "lane group {group}: worker exited before reporting a result"
                    )))
                })
            })
            .collect()
    }
}

impl Default for ReplayPool {
    fn default() -> Self {
        ReplayPool::new()
    }
}

// Manual `Debug`: the queued jobs are opaque closures.
impl fmt::Debug for ReplayPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplayPool")
            .field("threads_spawned", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Drop for ReplayPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The worker body: drain jobs until shutdown, keeping one warm
/// [`TraceReplayer`] (and hence one pooled engine) for the thread's whole
/// life.  Every job catches its own panic ([`ReplayPool::run`]), and every
/// replay starts with an engine reset, so a job that panicked leaves the
/// replayer fit for the next one.
fn worker_loop(shared: &PoolShared) {
    let mut replayer = TraceReplayer::new();
    loop {
        let job = {
            let mut queue = shared.lock();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        job(&mut replayer);
        // Drop whatever observer the job installed so recorders are not
        // kept alive (and unflushed) by an idle worker.
        replayer.set_observer(Observer::none());
        replayer.set_observer_track(0);
    }
}

/// Extracts a human-readable message from a caught panic payload (panics
/// almost always carry `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_fails_alone_and_results_keep_job_order() {
        let mut pool = ReplayPool::new();
        let results = pool.run(2, 5, |group, _replayer| {
            if group == 2 {
                panic!("boom");
            }
            Ok(group * 10)
        });
        assert_eq!(results.len(), 5);
        for (group, result) in results.iter().enumerate() {
            match result {
                Ok(value) => assert_eq!(*value, group * 10),
                Err(ReplayError::Panic(message)) => {
                    assert_eq!(group, 2);
                    assert_eq!(message, "lane group 2: boom");
                }
                Err(other) => panic!("group {group}: unexpected error {other}"),
            }
        }
        assert!(results[2].is_err());
        // The worker that caught the panic keeps serving jobs.
        let again = pool.run(2, 3, |group, _replayer| Ok(group));
        assert_eq!(
            again.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            vec![0, 1, 2]
        );
        assert_eq!(pool.threads_spawned(), 2);
    }
}
