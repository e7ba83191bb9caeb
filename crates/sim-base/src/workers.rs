//! A small persistent thread pool for barrier-separated simulation phases.
//!
//! The sharded network forward phase runs "visit every switch"-shaped work
//! as a flat index space `0..num_tasks`. Workers (plus the calling thread) *claim* task
//! indices from a shared atomic cursor, which is work stealing in its
//! simplest form: a worker that finishes early keeps claiming whatever is
//! left, so imbalanced chunks never serialise the phase. [`WorkerPool::run`]
//! is a full barrier — it returns only after every task has executed *and*
//! every worker has checked in for the epoch, so the closure (borrowed by
//! raw pointer) provably outlives all uses and no worker can observe a stale
//! job across epochs.
//!
//! Determinism is the caller's contract: tasks must write only to disjoint,
//! task-indexed state (merging in fixed task order afterwards), so the
//! *schedule* of claims never influences the result. The pool itself adds no
//! randomness — it only decides which thread executes which index.
//!
//! The pool clamps its size to the host's available parallelism; with one
//! usable core (or `threads <= 1`) it spawns nothing and [`WorkerPool::run`]
//! degenerates to an in-order loop on the caller, which keeps single-core
//! hosts and tests on the exact serial path.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// State shared between the pool handle and its workers.
struct Shared {
    /// Monotonically increasing job generation. Bumped (Release) after the
    /// job fields below are fully published; workers acquire it to observe
    /// them.
    epoch: AtomicU64,
    /// Type-erased pointer to the caller's closure for the current epoch.
    job_data: AtomicUsize,
    /// Monomorphised trampoline that invokes the closure for one task index.
    job_invoke: AtomicUsize,
    /// Number of tasks in the current epoch's index space.
    num_tasks: AtomicUsize,
    /// Claim cursor: `fetch_add(1)` hands out task indices.
    next_task: AtomicUsize,
    /// Tasks fully executed this epoch.
    tasks_done: AtomicUsize,
    /// Workers that have exhausted the claim cursor this epoch.
    workers_done: AtomicUsize,
    /// Ends the worker threads.
    shutdown: AtomicBool,
    /// Park/unpark for idle workers between epochs.
    lock: Mutex<()>,
    cv: Condvar,
}

unsafe fn invoke_for<F: Fn(usize) + Sync>(data: usize, task: usize) {
    let f = unsafe { &*(data as *const F) };
    f(task);
}

/// A persistent pool of `threads - 1` worker threads (the caller is the
/// remaining thread) executing flat task spaces with barrier semantics. See
/// the module docs for the determinism contract.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool that uses up to `threads` threads including the
    /// caller, clamped to the host's available parallelism (a pool can never
    /// go faster than the cores it has, and oversubscription would only add
    /// scheduling noise). `threads <= 1` — or a single-core host — yields a
    /// pool with no worker threads at all.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        Self::with_exact_threads(threads.clamp(1, host))
    }

    /// Creates a pool with **exactly** `threads.max(1)` threads (including
    /// the caller), ignoring the host-core clamp of [`WorkerPool::new`].
    /// Oversubscribing cores only adds scheduling noise, so production runs
    /// never want this — it exists so determinism tests can drive the
    /// multi-threaded code paths (claim racing, barrier hand-off, parallel
    /// task merging) with real concurrent threads even on single-core
    /// hosts, where `new` would silently fall back to inline execution.
    #[must_use]
    pub fn with_exact_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            job_data: AtomicUsize::new(0),
            job_invoke: AtomicUsize::new(0),
            num_tasks: AtomicUsize::new(0),
            next_task: AtomicUsize::new(0),
            tasks_done: AtomicUsize::new(0),
            workers_done: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("specsim-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, handles }
    }

    /// Total threads the pool applies to a job, including the caller.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Executes `f(task)` for every `task` in `0..num_tasks` across the
    /// pool's threads and returns once all tasks are complete (a barrier).
    ///
    /// `f` must be safe to call concurrently from multiple threads for
    /// *distinct* task indices; each index is claimed exactly once. With no
    /// worker threads this is exactly `for task in 0..num_tasks { f(task) }`.
    pub fn run<F: Fn(usize) + Sync>(&self, num_tasks: usize, f: F) {
        if self.handles.is_empty() || num_tasks <= 1 {
            for task in 0..num_tasks {
                f(task);
            }
            return;
        }
        let s = &*self.shared;
        // Publish the job, then open the epoch with Release so workers that
        // acquire the new epoch see a fully initialised job.
        let job_data: *const F = &f;
        s.job_data.store(job_data as usize, Ordering::Relaxed);
        s.job_invoke
            .store(invoke_for::<F> as *const () as usize, Ordering::Relaxed);
        s.num_tasks.store(num_tasks, Ordering::Relaxed);
        s.next_task.store(0, Ordering::Relaxed);
        s.tasks_done.store(0, Ordering::Relaxed);
        s.workers_done.store(0, Ordering::Relaxed);
        s.epoch.fetch_add(1, Ordering::Release);
        {
            // Empty critical section: pairs with the workers' predicate
            // check under the lock so a worker cannot park between reading a
            // stale epoch and the notify (no missed wakeups).
            drop(s.lock.lock().expect("worker pool mutex"));
            s.cv.notify_all();
        }
        // The caller claims tasks too.
        loop {
            let task = s.next_task.fetch_add(1, Ordering::Relaxed);
            if task >= num_tasks {
                break;
            }
            f(task);
            s.tasks_done.fetch_add(1, Ordering::Release);
        }
        // Barrier: all tasks executed and every worker has left the claim
        // loop for this epoch, so `f` can be dropped and the next epoch's
        // job fields can be overwritten safely.
        let workers = self.handles.len();
        while s.tasks_done.load(Ordering::Acquire) < num_tasks
            || s.workers_done.load(Ordering::Acquire) < workers
        {
            std::hint::spin_loop();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            drop(self.shared.lock.lock().expect("worker pool mutex"));
            self.shared.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(s: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        // Wait for a new epoch (spin briefly, then park on the condvar).
        let mut spins = 0u32;
        let epoch = loop {
            if s.shutdown.load(Ordering::Acquire) {
                return;
            }
            let e = s.epoch.load(Ordering::Acquire);
            if e != seen_epoch {
                break e;
            }
            spins += 1;
            if spins < 1 << 12 {
                std::hint::spin_loop();
            } else {
                let guard = s.lock.lock().expect("worker pool mutex");
                // Re-check the predicate under the lock before parking.
                if s.epoch.load(Ordering::Acquire) == seen_epoch
                    && !s.shutdown.load(Ordering::Acquire)
                {
                    drop(s.cv.wait(guard).expect("worker pool condvar"));
                }
                spins = 0;
            }
        };
        seen_epoch = epoch;
        let data = s.job_data.load(Ordering::Relaxed);
        let invoke = s.job_invoke.load(Ordering::Relaxed);
        let num_tasks = s.num_tasks.load(Ordering::Relaxed);
        // SAFETY: `invoke` was stored from an `invoke_for::<F>` function
        // pointer by the publisher of this epoch.
        let invoke: unsafe fn(usize, usize) =
            unsafe { std::mem::transmute::<usize, unsafe fn(usize, usize)>(invoke) };
        loop {
            let task = s.next_task.fetch_add(1, Ordering::Relaxed);
            if task >= num_tasks {
                break;
            }
            // SAFETY: `run` blocks until `tasks_done == num_tasks` and
            // `workers_done` counts this thread, so the closure behind
            // `data` is alive for every invocation of this epoch.
            unsafe { invoke(data, task) };
            s.tasks_done.fetch_add(1, Ordering::Release);
        }
        s.workers_done.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicU32::new(0);
        pool.run(16, |t| {
            hits.fetch_add(1 << t, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0xFFFF);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        let counts: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        for _ in 0..50 {
            pool.run(counts.len(), |t| {
                counts[t].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (t, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 50, "task {t}");
        }
    }

    #[test]
    fn barrier_sees_all_writes() {
        let pool = WorkerPool::new(8);
        let data: Vec<AtomicU32> = (0..512).map(|_| AtomicU32::new(0)).collect();
        pool.run(data.len(), |t| {
            data[t].store(t as u32 + 1, Ordering::Relaxed);
        });
        let sum: u64 = data
            .iter()
            .map(|d| u64::from(d.load(Ordering::Relaxed)))
            .sum();
        assert_eq!(sum, (1..=512u64).sum::<u64>());
    }

    #[test]
    fn pool_clamps_to_host_parallelism() {
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        let pool = WorkerPool::new(1024);
        assert!(pool.threads() <= host);
    }
}
