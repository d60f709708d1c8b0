//! A hand-rolled, std-only work-stealing thread pool.
//!
//! The dependency policy keeps this workspace free of rayon/crossbeam,
//! so the pool is built from `Mutex<VecDeque>` per-worker queues plus a
//! shared injector:
//!
//! * External submissions land in the **injector** queue.
//! * A worker executing a job pushes follow-up work onto the **back of
//!   its own deque** (LIFO — keeps the working set hot in cache).
//! * An idle worker pops its own deque from the back, then drains the
//!   injector, then **steals from the front** of a sibling's deque
//!   (FIFO — takes the oldest, coarsest work, the classic Blumofe–
//!   Leiserson discipline).
//!
//! Jobs are wrapped in `catch_unwind`, so a panicking job can never
//! take a worker thread down with it; job-level panic *reporting* is
//! the executor's responsibility (see [`crate::executor`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// Identity of the pool worker running on this thread, if any:
    /// (pool instance id, worker index).
    static CURRENT_WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

/// Index of the pool worker running the current thread, if the current
/// thread is a pool worker (used for per-worker utilization metrics).
pub fn current_worker_index() -> Option<usize> {
    CURRENT_WORKER.with(|c| c.get()).map(|(_, index)| index)
}

struct Shared {
    pool_id: usize,
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker. Owner pushes/pops at the back; thieves
    /// steal from the front.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Wakes idle workers when work arrives, and `shutdown` watchers.
    work_signal: Condvar,
    /// Paired with `work_signal`; counts queued-but-unclaimed jobs.
    pending: Mutex<usize>,
    shutting_down: AtomicBool,
}

impl Shared {
    fn push_injector(&self, job: Job) {
        self.injector.lock().unwrap().push_back(job);
        *self.pending.lock().unwrap() += 1;
        self.work_signal.notify_one();
    }

    fn push_local(&self, worker: usize, job: Job) {
        self.deques[worker].lock().unwrap().push_back(job);
        *self.pending.lock().unwrap() += 1;
        self.work_signal.notify_one();
    }

    /// Claims one job: own deque (back), injector, then steal (front).
    fn find_job(&self, worker: usize) -> Option<Job> {
        if let Some(job) = self.deques[worker].lock().unwrap().pop_back() {
            trace::count("pool.pop_local", 1);
            return Some(job);
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            trace::count("pool.pop_injector", 1);
            return Some(job);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                trace::count("pool.steal", 1);
                return Some(job);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((shared.pool_id, index))));
    loop {
        let job = {
            let mut pending = shared.pending.lock().unwrap();
            loop {
                if *pending > 0 {
                    // A job is queued somewhere; claim it outside the
                    // pending lock would race the count, so decrement
                    // first and search after.
                    *pending -= 1;
                    break;
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                pending = shared.work_signal.wait(pending).unwrap();
            }
            drop(pending);
            // The decremented count is a claim ticket: pushes enqueue
            // before incrementing and claimants dequeue at most one job
            // each, so `queued >= outstanding claims` always holds and
            // the scan below is guaranteed to find a job eventually.
            // (It can transiently miss one when a concurrent push lands
            // in a deque this scan already passed — hence the retry.)
            loop {
                if let Some(job) = shared.find_job(index) {
                    break job;
                }
                std::thread::yield_now();
            }
        };
        // The job is responsible for reporting its own outcome; the
        // catch here only shields the worker thread.
        let _span = trace::span("pool.job");
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// A fixed-size work-stealing thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            work_signal: Condvar::new(),
            pending: Mutex::new(0),
            shutting_down: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mmgpu-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job. From a worker thread of this pool the job goes to
    /// that worker's own deque; otherwise to the shared injector.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        let local = CURRENT_WORKER
            .with(|c| c.get())
            .and_then(|(pool, worker)| (pool == self.shared.pool_id).then_some(worker));
        match local {
            Some(worker) => self.shared.push_local(worker, job),
            None => self.shared.push_injector(job),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            // Set the flag and wake everyone under the `pending` lock: a
            // worker checks the flag and parks on `work_signal` while
            // holding that lock, so the wake-up cannot land between its
            // check and its wait. Queued jobs are still drained: workers
            // only exit once `pending` is zero. A poisoned lock still
            // guards a valid count (each update is one step), and `drop`
            // must not panic.
            let _pending = self
                .shared
                .pending
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            self.shared.shutting_down.store(true, Ordering::Release);
            self.shared.work_signal.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Tracks the jobs spawned inside one [`ThreadPool::scope`] call.
struct ScopeState {
    /// Jobs spawned but not yet finished.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload captured from a scoped job.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`]; jobs
/// spawned through it may borrow from the enclosing stack frame
/// (`'env`) because the scope joins them all before it returns.
pub struct PoolScope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant in `'env`, like `std::thread::Scope`.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Submits a job that may borrow data living at least as long as the
    /// scope. The scope blocks until every spawned job has finished.
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *self.state.remaining.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: `scope` joins every spawned job (even on panic) before
        // returning, so the job cannot outlive the `'env` borrows it
        // captures. The transmute only erases that lifetime to fit the
        // pool's `'static` job type.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            if let Err(payload) = result {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut remaining = state.remaining.lock().unwrap();
            *remaining -= 1;
            if *remaining == 0 {
                state.done.notify_all();
            }
        });
    }
}

impl ThreadPool {
    /// Runs `f` with a scope handle whose spawned jobs may borrow local
    /// state, then blocks until every job has finished — including when
    /// `f` itself panics, so borrows can never dangle. The first panic
    /// from a scoped job is re-raised on the calling thread after the
    /// join (mirroring `std::thread::scope`).
    pub fn scope<'env, F, T>(&self, f: F) -> T
    where
        F: FnOnce(&PoolScope<'_, 'env>) -> T,
    {
        let scope = PoolScope {
            pool: self,
            state: Arc::new(ScopeState {
                remaining: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join all scoped jobs before touching the result: the borrows
        // they hold must outlive them no matter how `f` exited.
        {
            let mut remaining = scope.state.remaining.lock().unwrap();
            while *remaining > 0 {
                remaining = scope.state.done.wait(remaining).unwrap();
            }
        }
        match result {
            Ok(value) => {
                if let Some(payload) = scope.state.panic.lock().unwrap().take() {
                    std::panic::resume_unwind(payload);
                }
                value
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn runs_every_job_once() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // joins workers after the queues drain
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..100 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                if i % 3 == 0 {
                    panic!("injected");
                }
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 66);
    }

    #[test]
    fn scope_jobs_borrow_the_stack() {
        let pool = ThreadPool::new(3);
        let mut results = vec![0u64; 8];
        pool.scope(|scope| {
            for (i, slot) in results.iter_mut().enumerate() {
                scope.spawn(move || {
                    *slot = i as u64 * 10;
                });
            }
        });
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn scope_propagates_job_panics_after_joining() {
        let pool = ThreadPool::new(2);
        let finished = Arc::new(AtomicU64::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                let finished = Arc::clone(&finished);
                scope.spawn(move || {
                    finished.fetch_add(1, Ordering::SeqCst);
                });
                scope.spawn(|| panic!("scoped boom"));
            });
        }));
        assert!(result.is_err(), "scope must re-raise a job panic");
        assert_eq!(finished.load(Ordering::SeqCst), 1, "siblings still ran");
    }

    #[test]
    fn idle_pools_drop_without_hanging() {
        // Dropping a pool whose workers are just parking raced the
        // shutdown wake-up against their flag check; a lost wake-up
        // blocks `join` forever. Run the churn on a helper thread so a
        // regression fails here with a message instead of wedging the
        // test binary.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let churn = std::thread::spawn(move || {
            for _ in 0..1000 {
                for threads in 1..=8 {
                    drop(ThreadPool::new(threads));
                }
            }
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(60)).is_ok(),
            "an idle ThreadPool drop did not join its workers within 60 s"
        );
        churn.join().expect("the churn thread finished cleanly");
    }

    #[test]
    fn all_workers_participate() {
        let threads = 4;
        let pool = ThreadPool::new(threads);
        let barrier = Arc::new(Barrier::new(threads));
        // Each job blocks until all `threads` workers are inside one —
        // only possible if every worker picks up a job.
        for _ in 0..threads {
            let barrier = Arc::clone(&barrier);
            pool.spawn(move || {
                barrier.wait();
            });
        }
        drop(pool);
    }
}
