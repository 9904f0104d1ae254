//! Process-wide worker-thread-count resolution and the persistent
//! [`WorkerPool`].
//!
//! Both parallel facilities in the workspace — the experiment sweep
//! runner in `usd-experiments` and the parallel hypergeometric row
//! sampling the batch simulator uses — answer the question "how many
//! worker threads?" the same way, in precedence order:
//!
//! 1. the process-wide override set by [`set_thread_override`] (wired to
//!    the binaries' `--threads` flag),
//! 2. the `USD_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! This module is the **only** first-party reader of `USD_THREADS`:
//! everything above it resolves once (the run builders cache the count in
//! `RunSpec::threads`; the simulators resolve at construction) and passes
//! an explicit thread count down.
//!
//! This lives in `sim-stats` (the workspace's lowest layer) so that the
//! sampling primitives can honor `--threads` without depending on the
//! experiment crates; `usd_experiments::runner` re-exports these functions
//! so existing callers are unaffected. Thread count never changes any
//! sampled result, only wall clock: all parallel samplers in this crate
//! derive deterministic per-task RNG streams (see
//! [`multivariate_hypergeometric_streams`](crate::multinomial::multivariate_hypergeometric_streams)).
//!
//! [`WorkerPool`] is the execution substrate for the per-block parallel
//! work inside a simulation run: a process-wide set of persistent workers
//! parked on a condvar, so a hot loop that fans out every few hundred
//! microseconds pays a wake-up, not a `thread::spawn` (the measured
//! overhead that kept the scoped-spawn version of the hypergeometric
//! fan-out sequential below a large work threshold). Scheduling never
//! influences results: callers decide *what* runs from deterministic
//! state, the pool only decides *where*.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Process-wide thread-count override (0 = unset). Highest precedence.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set (or clear, with `None`) the process-wide worker-thread count. Takes
/// precedence over `USD_THREADS` and auto-detection. A count of 0 clears.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Resolve the worker-thread count: override > `USD_THREADS` env >
/// available parallelism. Always at least 1.
pub fn resolve_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("USD_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t > 0 {
                return t;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Hard cap on pool workers, far above any sane `--threads` ask — a
/// backstop against a typo'd `USD_THREADS=100000` spawning the machine
/// into the ground, not a tuning knob.
const MAX_POOL_WORKERS: usize = 256;

/// A queued unit of work: a type-erased pointer back into the submitting
/// call's stack frame plus the handler that knows its concrete type.
///
/// Safety contract: the submitting call ([`WorkerPool::join`]) must not
/// return until the job it pushed has been fully handled (the handler
/// signals completion through the job's own synchronization), so the
/// pointee outlives every access.
#[derive(Clone, Copy)]
struct JobRef {
    ptr: *const (),
    handle: unsafe fn(*const ()),
}

// SAFETY: the pointee is synchronized by the job's own Mutex/Condvar and
// atomics, and outlives the reference per the contract above.
#[allow(unsafe_code)]
unsafe impl Send for JobRef {}

struct PoolShared {
    queue: Mutex<VecDeque<JobRef>>,
    /// Workers park here; every push notifies.
    work_cv: Condvar,
}

/// A persistent worker pool for deterministic fan-out.
///
/// The entry point is [`join`](WorkerPool::join): run two closures, the
/// second inline and the first on a pool worker when one is free (stolen
/// back and run inline otherwise), for recursive binary fan-out like the
/// hypergeometric samplers' subtree splits.
///
/// It blocks until both closures have finished, which is what makes the
/// borrowed-closure submission sound. Waits only ever park on work that
/// is *actively executing* — a queued-but-unclaimed job is removed from
/// the queue and run by the submitter instead — so the pool cannot
/// deadlock even under recursive `join` from inside workers.
///
/// The process-wide instance is [`WorkerPool::global`]; workers are
/// spawned on demand up to the largest count any call has asked for and
/// then persist for the process lifetime, parked on a condvar while idle.
pub struct WorkerPool {
    shared: &'static PoolShared,
    /// Workers spawned so far (grow-on-demand, never shrinks).
    spawned: Mutex<usize>,
}

impl WorkerPool {
    /// The process-wide pool. Never shuts down; idle workers are parked.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool {
            shared: Box::leak(Box::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                work_cv: Condvar::new(),
            })),
            spawned: Mutex::new(0),
        })
    }

    /// Ensure at least `want` workers exist (capped at
    /// [`MAX_POOL_WORKERS`]).
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_POOL_WORKERS);
        let mut spawned = self.spawned.lock().expect("pool spawn lock poisoned");
        while *spawned < want {
            let shared = self.shared;
            std::thread::Builder::new()
                .name(format!("usd-pool-{spawned}"))
                .spawn(move || worker_loop(shared))
                .expect("spawning pool worker");
            *spawned += 1;
        }
    }

    fn push(&self, job: JobRef) {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        q.push_back(job);
        drop(q);
        self.shared.work_cv.notify_one();
    }

    /// Remove a previously pushed job from the queue if no worker has
    /// claimed it yet. Returns whether it was removed (the submitting call
    /// then owns handling it).
    fn steal_back(&self, job: JobRef) -> bool {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        if let Some(pos) = q.iter().position(|j| std::ptr::eq(j.ptr, job.ptr)) {
            q.remove(pos);
            true
        } else {
            false
        }
    }

    /// Run `fork` on a pool worker (when one picks it up in time — it is
    /// stolen back and run inline otherwise) while the calling thread runs
    /// `inline`. Returns when both have finished. The recursive-fan-out
    /// primitive: safe to call from inside pool workers.
    pub fn join<F: FnOnce() + Send>(&self, fork: F, inline: impl FnOnce()) {
        self.ensure_workers(1);
        let job = JoinJob {
            f: Mutex::new(Some(fork)),
            outstanding: AtomicUsize::new(2), // the task + the queue entry
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        };
        let job_ref = JobRef {
            ptr: &job as *const JoinJob<F> as *const (),
            handle: handle_join::<F>,
        };
        self.push(job_ref);
        inline();
        if self.steal_back(job_ref) {
            // No worker claimed it: run the forked half here.
            job.execute();
            job.finish(1); // the reclaimed queue entry
        }
        job.wait_outstanding();
    }
}

struct JoinJob<F: FnOnce() + Send> {
    /// The forked closure; taken exactly once (by a worker or stolen back).
    f: Mutex<Option<F>>,
    /// The task itself + the queue entry referencing it.
    outstanding: AtomicUsize,
    done: Mutex<()>,
    done_cv: Condvar,
}

impl<F: FnOnce() + Send> JoinJob<F> {
    fn finish(&self, n: usize) {
        // Decrement under the lock the waiter checks `outstanding` under:
        // it cannot see zero — and return, freeing this job from its stack
        // frame — until this call has released the lock and stopped
        // touching the job.
        let _guard = self.done.lock().expect("job done lock poisoned");
        if self.outstanding.fetch_sub(n, Ordering::AcqRel) == n {
            self.done_cv.notify_all();
        }
    }

    fn wait_outstanding(&self) {
        let mut guard = self.done.lock().expect("job done lock poisoned");
        while self.outstanding.load(Ordering::Acquire) > 0 {
            guard = self.done_cv.wait(guard).expect("job done lock poisoned");
        }
    }

    fn execute(&self) {
        let f = self
            .f
            .lock()
            .expect("join job lock poisoned")
            .take()
            .expect("join closure executed twice");
        f();
        self.finish(1); // the task itself
    }
}

#[allow(unsafe_code)]
unsafe fn handle_join<F: FnOnce() + Send>(ptr: *const ()) {
    // SAFETY: the pointee outlives this call per the JobRef contract
    // (join() waits for `outstanding` — which counts this queue entry —
    // to drain, and steal_back guarantees pop/claim exclusivity).
    let job = unsafe { &*(ptr as *const JoinJob<F>) };
    job.execute();
    job.finish(1); // the queue entry
}

#[allow(unsafe_code)]
fn worker_loop(shared: &'static PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared.work_cv.wait(q).expect("pool queue poisoned");
            }
        };
        // SAFETY: handler/pointer pairing established at push time.
        unsafe { (job.handle)(job.ptr) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_takes_precedence_and_clears() {
        set_thread_override(Some(3));
        assert_eq!(resolve_threads(), 3);
        set_thread_override(None);
        assert!(resolve_threads() >= 1);
    }

    #[test]
    fn pool_join_runs_both_halves() {
        let pool = WorkerPool::global();
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        pool.join(
            || a.store(7, Ordering::Release),
            || b.store(9, Ordering::Release),
        );
        assert_eq!(a.load(Ordering::Acquire), 7);
        assert_eq!(b.load(Ordering::Acquire), 9);
    }

    #[test]
    fn pool_join_nests_recursively_without_deadlock() {
        // Binary fan-out like the hypergeometric samplers': depth 6 = up
        // to 64 leaves contending for far fewer workers, exercising both
        // worker-side execution and steal-back.
        fn recurse(pool: &WorkerPool, depth: usize, sum: &AtomicUsize) {
            if depth == 0 {
                sum.fetch_add(1, Ordering::Relaxed);
                return;
            }
            pool.join(
                || recurse(WorkerPool::global(), depth - 1, sum),
                || recurse(pool, depth - 1, sum),
            );
        }
        let sum = AtomicUsize::new(0);
        recurse(WorkerPool::global(), 6, &sum);
        assert_eq!(sum.load(Ordering::Relaxed), 64);
    }
}
