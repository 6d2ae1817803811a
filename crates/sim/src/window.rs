//! Scheduling machinery for the windowed (conservative parallel) kernel
//! mode: the window policy knobs and a persistent scoped worker pool.
//!
//! Everything in this module is *scheduling only*. The windowed kernel
//! applies events in exactly the serial order (see the "Parallel kernel"
//! section of DESIGN.md); the pool merely executes disjoint pieces of
//! work — per-shard window drains, partition-disjoint accrual sweeps —
//! whose results are bitwise independent of which thread runs them or in
//! what order. No policy value below can change a simulation result;
//! `windowed_policy_does_not_perturb_results` in the engine tests holds
//! the kernel to that.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// `true` once we know this machine has more than one CPU. Computed once.
/// Gates the window worker pool and parallel accrual: concurrency that
/// cannot overlap in hardware is pure overhead.
#[inline]
pub(crate) fn multicore() -> bool {
    static CACHED: AtomicU8 = AtomicU8::new(0);
    match CACHED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let multi = std::thread::available_parallelism()
                .map(|n| n.get() > 1)
                .unwrap_or(false);
            CACHED.store(if multi { 1 } else { 2 }, Ordering::Relaxed);
            multi
        }
    }
}

/// Tuning knobs for [`KernelMode::Windowed`](crate::engine::KernelMode).
///
/// All fields are dispatch thresholds: they decide *where* work runs
/// (inline on the kernel thread vs. fanned out to the pool) and how much
/// of the event horizon one window may pre-drain, never *what* the work
/// computes. Results are bit-identical under any policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPolicy {
    /// Cap on events pre-drained from one shard per window. Bounds staging
    /// memory when the lookahead horizon is wide (or infinite, as on a
    /// single-cluster grid where no WAN latency bounds the window).
    pub max_drain_per_shard: usize,
    /// Fan a window drain out to the pool only when at least this many
    /// events are pending across all shards; smaller windows drain inline.
    pub min_parallel_drain: usize,
    /// Fan an accrual sweep out to the pool only when at least this many
    /// entities (CPU actions + active flows) would be swept.
    pub min_parallel_accrual: usize,
    /// Dispatch to the pool even on a single-CPU machine, where the
    /// default gating keeps everything inline (concurrency cannot pay
    /// there). Used by tests to force the concurrent paths to execute.
    pub force_parallel: bool,
}

impl Default for WindowPolicy {
    fn default() -> Self {
        WindowPolicy {
            max_drain_per_shard: 4096,
            min_parallel_drain: 256,
            min_parallel_accrual: 512,
            force_parallel: false,
        }
    }
}

/// A borrowed, type-erased unit of batch work.
pub(crate) type Job<'a> = &'a mut (dyn FnMut() + Send);

/// The same type with its lifetime erased for the worker threads. Only
/// ever dereferenced while the owning [`WorkerPool::run_batch`] call is
/// blocked, which keeps the true borrow alive.
type JobStatic = &'static mut (dyn FnMut() + Send);

#[derive(Default)]
struct PoolState {
    /// `jobs.as_mut_ptr()` of the batch being executed, as an address.
    /// Valid exactly while `remaining > 0`.
    jobs: usize,
    njobs: usize,
    /// Next unclaimed job index.
    next: usize,
    /// Jobs claimed-or-unclaimed but not yet finished.
    remaining: usize,
    /// A worker-executed job panicked during the current batch.
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// A persistent pool of `workers` threads executing batches of borrowed
/// jobs. `run_batch` publishes the batch, participates in the work
/// stealing itself, and returns only when every job has finished — which
/// is what makes handing borrowed (lifetime-erased) closures to the
/// worker threads sound.
///
/// Batches are tiny (one job per shard or per worker), so all
/// bookkeeping sits under one mutex; the per-job locking cost is noise
/// next to the work each job does.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `workers` helper threads (the calling thread makes it
    /// `workers + 1` executors per batch).
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            cv: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sim-window-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn window worker thread")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// Number of helper threads.
    pub(crate) fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Execute every job in the batch (on the workers and this thread,
    /// in unspecified assignment) and return once all have finished.
    ///
    /// Jobs must touch only disjoint data — the pool provides no ordering
    /// between them — and a job that panics on a worker thread surfaces
    /// as a panic from this call (the payload itself is reported by the
    /// worker thread's unwind).
    pub(crate) fn run_batch(&self, jobs: &mut [Job<'_>]) {
        if jobs.is_empty() {
            return;
        }
        let base = jobs.as_mut_ptr() as usize;
        let n = jobs.len();
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert_eq!(st.remaining, 0, "previous batch still running");
            st.jobs = base;
            st.njobs = n;
            st.next = 0;
            st.remaining = n;
            st.panicked = false;
            self.shared.cv.notify_all();
        }
        // Participate: claim and run jobs alongside the workers. A panic
        // here unwinds normally on the caller's thread; the drop guard
        // keeps `remaining` consistent so the pool survives.
        loop {
            let i = {
                let mut st = self.shared.state.lock().unwrap();
                if st.next >= st.njobs {
                    break;
                }
                let i = st.next;
                st.next += 1;
                i
            };
            let guard = FinishGuard(&self.shared);
            // SAFETY: index i was claimed exclusively under the lock, the
            // batch slice outlives this call, and we hold the only live
            // reference to element i.
            unsafe { (*(base as *mut JobStatic).add(i))() };
            drop(guard);
        }
        let mut st = self.shared.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.shared.cv.wait(st).unwrap();
        }
        st.jobs = 0;
        st.njobs = 0;
        let panicked = st.panicked;
        drop(st);
        if panicked {
            panic!("a windowed-kernel pool job panicked on a worker thread");
        }
    }
}

/// Decrements `remaining` (waking the batch owner at zero) even if the
/// job unwinds.
struct FinishGuard<'a>(&'a PoolShared);

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap();
        st.remaining -= 1;
        if st.remaining == 0 {
            self.0.cv.notify_all();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(sh: &PoolShared) {
    loop {
        let (base, i) = {
            let mut st = sh.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.next < st.njobs {
                    let i = st.next;
                    st.next += 1;
                    break (st.jobs, i);
                }
                st = sh.cv.wait(st).unwrap();
            }
        };
        let guard = FinishGuard(sh);
        // Catch so an assertion failure inside a job cannot strand the
        // batch owner; the flag re-surfaces it as a panic in `run_batch`.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: index i was claimed exclusively under the lock;
            // `jobs` is the batch published by a `run_batch` call that
            // cannot return before `remaining` reaches zero, so the
            // borrow behind the erased lifetime is still live.
            unsafe { (*(base as *mut JobStatic).add(i))() }
        }));
        if r.is_err() {
            sh.state.lock().unwrap().panicked = true;
        }
        drop(guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_runs_every_job_exactly_once() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let n = 1 + round % 8;
            let mut hits = vec![0u32; n];
            {
                let mut closures: Vec<Box<dyn FnMut() + Send>> = hits
                    .iter_mut()
                    .map(|h| {
                        let h: &mut u32 = h;
                        Box::new(move || *h += 1) as Box<dyn FnMut() + Send>
                    })
                    .collect();
                let mut jobs: Vec<Job<'_>> =
                    closures.iter_mut().map(|b| &mut **b as Job<'_>).collect();
                pool.run_batch(&mut jobs);
            }
            assert_eq!(hits, vec![1u32; n], "round {round}");
        }
    }

    #[test]
    fn pool_survives_reuse_and_shutdown() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let mut total = 0u64;
        for _ in 0..100 {
            let mut local = 0u64;
            {
                let mut job = |/* no args */| local += 1;
                let mut jobs: Vec<Job<'_>> = vec![&mut job];
                pool.run_batch(&mut jobs);
            }
            total += local;
        }
        assert_eq!(total, 100);
        drop(pool); // joins the workers; must not hang
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(1);
        pool.run_batch(&mut []);
    }

    #[test]
    fn default_policy_values_are_sane() {
        let p = WindowPolicy::default();
        assert!(p.max_drain_per_shard >= 1);
        assert!(!p.force_parallel);
    }
}
