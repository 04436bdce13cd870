//! Persistent worker pool for data-parallel sections.
//!
//! PRs 1–5 parallelized three hot paths — [`crate::locate_batch_parallel`],
//! `Testbed` registration warming, and `TrialSet` collection — each with
//! its own ad-hoc `std::thread::scope` fan-out that spawns and joins OS
//! threads per call. This module replaces those with one process-wide
//! pool ([`WorkerPool::global`]) spawned once and shared by every
//! data-parallel section: callers submit an index range, workers steal
//! indices from a shared atomic cursor, and the calling thread
//! participates until the range drains.
//!
//! ## Why indices, not closures
//!
//! Every parallel section in this codebase is a *data-parallel loop over
//! a pre-sized output*: locate a batch into `Vec<Result<…>>`, drive one
//! zone, warm one tag's link-budget row, collect
//! one seed's trial. Expressing the unit of work as "index `i` of `n`"
//! keeps the bit-identity guarantee trivial — each index writes a
//! disjoint, pre-allocated slot, so the result is independent of which
//! thread ran it and in which order — and avoids boxing a closure per
//! item.
//!
//! ## Borrow safety
//!
//! [`WorkerPool::parallel_for`] borrows the task closure for the duration
//! of the call and **blocks until every index has executed**, so the
//! closure may capture non-`'static` references (like
//! `std::thread::scope`). Internally the closure reference is
//! lifetime-erased to hand it to the persistent workers; the erasure is
//! sound because a worker dereferences the task only for claimed indices
//! `< n`, and the owner cannot return while any such index is incomplete.
//!
//! Nested `parallel_for` calls are fine: a worker that issues one claims
//! indices of the *inner* job while it waits, so progress is guaranteed
//! by induction on nesting depth.
//!
//! On a single-core host (or when `n <= 1`) the loop runs inline on the
//! caller with zero synchronization, which also keeps the pool out of
//! micro-benchmark noise.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Lifetime-erased pointer to a `parallel_for` body.
///
/// Safety: only dereferenced for claimed indices `i < n`, which the job
/// owner waits on before returning (so the pointee is still alive).
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// The pointee is `Sync` (shared-called from many threads) and the owner
// keeps it alive for every dereference — see `TaskPtr` docs.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One submitted `parallel_for` range.
struct Job {
    /// Next unclaimed index; claims past `n` mean "range exhausted".
    next: AtomicUsize,
    /// Total indices in the range.
    n: usize,
    /// Indices not yet *completed* (claimed is not enough — the owner
    /// must not return while a worker is still inside the closure).
    remaining: Mutex<usize>,
    /// Signalled when `remaining` hits zero.
    done: Condvar,
    /// Set when any index panicked; the owner re-panics.
    panicked: AtomicBool,
    /// The loop body, lifetime-erased.
    task: TaskPtr,
}

impl Job {
    /// Claims and runs indices until the range is exhausted.
    fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // Safety: `i < n` and `remaining > 0` until we decrement
            // below, so the owner is still blocked and the task alive.
            let task = unsafe { &*self.task.0 };
            if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            let mut left = self.remaining.lock().expect("pool job lock");
            *left -= 1;
            if *left == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every index has completed.
    fn wait(&self) {
        let mut left = self.remaining.lock().expect("pool job lock");
        while *left > 0 {
            left = self.done.wait(left).expect("pool job lock");
        }
    }
}

/// Shared pool state: the queue of live jobs.
struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
}

struct PoolState {
    jobs: Vec<Arc<Job>>,
    shutdown: bool,
}

impl PoolShared {
    /// Worker thread body: sleep until a job has unclaimed indices, help
    /// drain it, repeat.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("pool state lock");
                loop {
                    if state.shutdown {
                        return;
                    }
                    let open = state
                        .jobs
                        .iter()
                        .find(|j| j.next.load(Ordering::Relaxed) < j.n);
                    if let Some(job) = open {
                        break Arc::clone(job);
                    }
                    state = self.work.wait(state).expect("pool state lock");
                }
            };
            job.run();
        }
    }
}

/// A persistent pool of worker threads driving data-parallel index loops.
///
/// The process-wide instance is [`WorkerPool::global`]; explicit pools
/// ([`WorkerPool::with_threads`]) exist for tests and benchmarks that
/// need a fixed worker count regardless of the host.
pub struct WorkerPool {
    /// `None` when the pool has zero workers — every loop runs inline.
    shared: Option<Arc<PoolShared>>,
    /// Worker join handles; drained (with a shutdown signal) on drop.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Pool with exactly `workers` background threads (the caller of
    /// [`parallel_for`](Self::parallel_for) always participates too, so
    /// effective parallelism is `workers + 1`). `workers == 0` is valid
    /// and means "always inline".
    pub fn with_threads(workers: usize) -> Self {
        if workers == 0 {
            return Self {
                shared: None,
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vire-pool-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared: Some(shared),
            handles,
        }
    }

    /// The process-wide pool, spawned on first use with
    /// `available_parallelism() - 1` workers (the calling thread is the
    /// remaining lane). On a single-core host this is the zero-worker
    /// inline pool.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let lanes = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::with_threads(lanes.saturating_sub(1))
        })
    }

    /// Number of background workers (not counting the caller's lane).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `body(i)` for every `i in 0..n`, fanning across the pool.
    ///
    /// Blocks until all `n` indices have executed. The caller's thread
    /// participates, so this never deadlocks waiting for a free worker,
    /// and `n <= 1` (or a zero-worker pool) runs inline with no
    /// synchronization at all. Panics in `body` are re-raised here after
    /// the remaining indices finish.
    ///
    /// Bit-identity note: `body` must write only to slot `i` of any
    /// shared output; under that discipline results are independent of
    /// thread count and scheduling.
    pub fn parallel_for<F>(&self, n: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        let Some(shared) = &self.shared else {
            for i in 0..n {
                body(i);
            }
            return;
        };
        if n <= 1 {
            for i in 0..n {
                body(i);
            }
            return;
        }
        // Erase `body`'s lifetime to hand it to the persistent workers;
        // `wait()` below blocks until every dereferencing index has
        // completed, and the job is unlisted before `body` drops.
        let task: &(dyn Fn(usize) + Sync) = &body;
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let task = TaskPtr(task as *const (dyn Fn(usize) + Sync));
        let job = Arc::new(Job {
            next: AtomicUsize::new(0),
            n,
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
            task,
        });
        {
            let mut state = shared.state.lock().expect("pool state lock");
            state.jobs.push(Arc::clone(&job));
        }
        shared.work.notify_all();
        // The caller is a full participant: claim indices until the
        // range drains, then wait out any still running elsewhere.
        job.run();
        job.wait();
        {
            let mut state = shared.state.lock().expect("pool state lock");
            state.jobs.retain(|j| !Arc::ptr_eq(j, &job));
        }
        if job.panicked.load(Ordering::Relaxed) {
            panic!("WorkerPool::parallel_for: a task panicked");
        }
    }

    /// Runs `body(i, &mut items[i])` for every item, fanning across the
    /// pool. The per-index slots are disjoint, so this is the safe shape
    /// for parallel mutation of a pre-sized buffer.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], body: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        struct SlotsPtr<T>(*mut T);
        unsafe impl<T: Send> Send for SlotsPtr<T> {}
        unsafe impl<T: Send> Sync for SlotsPtr<T> {}
        impl<T> SlotsPtr<T> {
            /// Method (not field) access, so closures capture the whole
            /// `Send + Sync` wrapper rather than the bare pointer.
            fn slot(&self, i: usize) -> *mut T {
                // Safety contract is the caller's: `i` must be in bounds.
                unsafe { self.0.add(i) }
            }
        }
        let slots = SlotsPtr(items.as_mut_ptr());
        let n = items.len();
        self.parallel_for(n, move |i| {
            // Safety: each index derives exactly one `&mut` to its own
            // slot (`i < n` and indices are claimed uniquely), so the
            // references never alias.
            let slot = unsafe { &mut *slots.slot(i) };
            body(i, slot);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.state.lock().expect("pool state lock").shutdown = true;
            shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn inline_pool_runs_everything_on_the_caller() {
        let pool = WorkerPool::with_threads(0);
        assert_eq!(pool.workers(), 0);
        let mut out = vec![0usize; 17];
        pool.for_each_mut(&mut out, |i, slot| *slot = i * i);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn threaded_pool_covers_every_index_exactly_once() {
        let pool = WorkerPool::with_threads(3);
        let hits = AtomicU64::new(0);
        let sum = AtomicU64::new(0);
        pool.parallel_for(1000, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn for_each_mut_writes_disjoint_slots() {
        let pool = WorkerPool::with_threads(4);
        let mut out = vec![0u64; 257];
        pool.for_each_mut(&mut out, |i, slot| *slot = 3 * i as u64 + 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 3 * i as u64 + 1));
    }

    #[test]
    fn pool_survives_repeated_jobs() {
        let pool = WorkerPool::with_threads(2);
        for round in 0..50 {
            let count = AtomicU64::new(0);
            pool.parallel_for(round % 7 + 1, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed) as usize, round % 7 + 1);
        }
    }

    #[test]
    fn nested_parallel_for_terminates() {
        let pool = WorkerPool::with_threads(2);
        let count = AtomicU64::new(0);
        pool.parallel_for(4, |_| {
            pool.parallel_for(8, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn borrows_non_static_state() {
        let pool = WorkerPool::with_threads(2);
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        pool.parallel_for(data.len(), |i| {
            total.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn panic_in_task_propagates_to_caller() {
        let pool = WorkerPool::with_threads(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool is still usable afterwards.
        let count = AtomicU64::new(0);
        pool.parallel_for(5, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn global_pool_is_shared_and_works() {
        let pool = WorkerPool::global();
        let count = AtomicU64::new(0);
        pool.parallel_for(12, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 12);
        assert!(std::ptr::eq(pool, WorkerPool::global()));
    }
}
