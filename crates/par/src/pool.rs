//! The persistent worker pool behind `par_map_indexed` / `par_map_mut`.
//!
//! Before this module existed every `par_map` call spawned scoped OS
//! threads and joined them on exit — fine for second-scale sweeps, wasteful
//! for the millisecond-scale child relaxations `sof_exact` forks inside its
//! branch-and-bound expansion loop. The pool keeps long-lived workers
//! blocked on a job queue instead: a call enqueues one *job* (an erased
//! `run(index)` closure plus claim bookkeeping), workers and the caller
//! pull indices off a shared atomic counter, and the call returns once
//! every claimed index has finished. Scheduling remains work-stealing by
//! index, so output ordering — and therefore every determinism guarantee
//! documented on the crate — is untouched.
//!
//! # Safety
//!
//! This is the one module in the workspace that uses `unsafe`: the job
//! holds a raw pointer to the caller's stack-allocated closure, erased to
//! `'static` so long-lived workers can run it. The protocol that keeps the
//! pointer valid:
//!
//! * a worker **increments `active` before** reading `closed` or touching
//!   the job, and decrements it only after its last possible access;
//! * the caller **sets `closed` before waiting** for `active == 0`, and
//!   only returns (invalidating the closure) after that wait: any worker
//!   that incremented `active` pre-close is waited for, and any worker
//!   arriving post-close observes `closed` (its increment happens after
//!   the caller's store in the SeqCst total order) and never dereferences;
//! * `closed`/`active` transitions happen under the job's mutex+condvar,
//!   so the caller cannot miss the final wake-up.
//!
//! Panics inside a task are caught by the closure itself (it reports
//! failure through its return value), so workers survive poisoned jobs and
//! keep serving the queue.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on pool threads, far above any sensible `--threads` request.
const MAX_WORKERS: usize = 64;

/// An erased `run(index) -> keep_going` closure. `false` poisons the job
/// (remaining indices are skipped); the closure has already recorded the
/// panic payload by the time it returns.
type Task = dyn Fn(usize) -> bool + Sync;

/// A `Send + Sync` wrapper for the base pointer of a mutable slice, so
/// `par_map_mut` tasks can hand out `&mut` access to *distinct* elements
/// from shared closures.
///
/// SAFETY: soundness rests on the claim protocol — each index `i` is
/// produced by `fetch_add` exactly once per job, so at most one participant
/// ever touches element `i`, and the owning slice outlives the job (the
/// caller borrows it across `pool::run`).
pub(crate) struct SliceMutPtr<T>(pub(crate) *mut T);
unsafe impl<T: Send> Send for SliceMutPtr<T> {}
unsafe impl<T: Send> Sync for SliceMutPtr<T> {}

impl<T> SliceMutPtr<T> {
    /// Exclusive access to element `i`.
    ///
    /// SAFETY (caller): `i` must be in bounds and claimed exactly once for
    /// the lifetime of the underlying borrow.
    #[allow(clippy::mut_from_ref)] // disjointness guaranteed by the claim protocol
    pub(crate) unsafe fn get_mut(&self, i: usize) -> &mut T {
        unsafe { &mut *self.0.add(i) }
    }
}

/// Raw pointer to the caller's task, erased to `'static`.
///
/// SAFETY: only dereferenced under the active-guard protocol described in
/// the module docs, while the owning `run` frame is still alive.
struct TaskPtr(*const Task);
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One queued parallel call.
struct Job {
    task: TaskPtr,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Number of indices.
    len: usize,
    /// Worker participation slots remaining (callers always participate on
    /// top of this budget).
    slots: AtomicUsize,
    /// No further claims allowed; set by the caller before it waits out the
    /// stragglers and returns.
    closed: AtomicBool,
    /// A task reported failure; workers stop claiming.
    poisoned: AtomicBool,
    /// Participants currently inside the job, guarded with the condvar so
    /// the caller's drain cannot miss the last decrement.
    active: Mutex<usize>,
    done: Condvar,
}

impl Job {
    fn new(task: TaskPtr, len: usize, worker_slots: usize) -> Job {
        Job {
            task,
            next: AtomicUsize::new(0),
            len,
            slots: AtomicUsize::new(worker_slots),
            closed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            active: Mutex::new(0),
            done: Condvar::new(),
        }
    }

    /// Tries to reserve a worker slot; `false` = budget exhausted.
    fn try_take_slot(&self) -> bool {
        self.slots
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| s.checked_sub(1))
            .is_ok()
    }

    /// Claims and runs indices until the job is drained, closed or
    /// poisoned. Must only be called between an `active` increment and
    /// decrement (see module docs).
    fn claim_loop(&self) {
        // SAFETY: `active` was incremented by our caller before this call,
        // so the job's owner is still parked in `run` waiting for us; the
        // closure behind the pointer outlives every dereference here.
        let task = unsafe { &*self.task.0 };
        loop {
            if self.closed.load(Ordering::SeqCst) || self.poisoned.load(Ordering::SeqCst) {
                return;
            }
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.len {
                return;
            }
            if !task(i) {
                self.poisoned.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Worker-side entry: guard with the active counter, then claim.
    fn participate(&self) {
        {
            let mut active = self.active.lock().expect("job active lock");
            *active += 1;
        }
        if !self.closed.load(Ordering::SeqCst) {
            self.claim_loop();
        }
        let mut active = self.active.lock().expect("job active lock");
        *active -= 1;
        if *active == 0 {
            self.done.notify_all();
        }
    }

    /// Caller-side completion: forbid further claims, then wait until no
    /// participant is left inside the job.
    fn close_and_drain(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let mut active = self.active.lock().expect("job active lock");
        while *active > 0 {
            active = self.done.wait(active).expect("job active lock");
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
    workers: AtomicUsize,
}

fn shared() -> &'static Arc<Shared> {
    static POOL: OnceLock<Arc<Shared>> = OnceLock::new();
    POOL.get_or_init(|| {
        Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            workers: AtomicUsize::new(0),
        })
    })
}

/// Lazily grows the pool towards `target` persistent workers.
fn ensure_workers(target: usize) {
    let target = target.min(MAX_WORKERS);
    let pool = shared();
    loop {
        let current = pool.workers.load(Ordering::SeqCst);
        if current >= target {
            return;
        }
        if pool
            .workers
            .compare_exchange(current, current + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            continue;
        }
        let handle = Arc::clone(pool);
        std::thread::Builder::new()
            .name("sof-par-worker".into())
            .spawn(move || worker_loop(&handle))
            .expect("spawn pool worker");
    }
}

fn worker_loop(pool: &Shared) {
    // Everything a pool worker runs is pool work: nested par_map calls
    // from inside tasks must degrade to serial execution.
    crate::enter_pool_scope();
    loop {
        let job = {
            let mut queue = pool.queue.lock().expect("pool queue lock");
            loop {
                queue.retain(|j| !j.closed.load(Ordering::SeqCst));
                if let Some(job) = queue
                    .iter()
                    .find(|j| j.next.load(Ordering::SeqCst) < j.len && j.try_take_slot())
                    .cloned()
                {
                    break job;
                }
                queue = pool.wake.wait(queue).expect("pool queue lock");
            }
        };
        job.participate();
    }
}

/// Runs `task(0..len)` on the persistent pool: up to `worker_budget` pool
/// workers join in, and the calling thread itself claims indices until the
/// job drains. Returns once every claimed index has finished.
pub(crate) fn run(len: usize, worker_budget: usize, task: &(dyn Fn(usize) -> bool + Sync)) {
    if len == 0 {
        return;
    }
    ensure_workers(worker_budget);
    // SAFETY: lifetime erasure of the task reference (`'_` → `'static` in
    // the pointee's object bound). `run` keeps the reference alive until
    // `close_and_drain` has proven no worker can still touch it (see the
    // module-level protocol).
    let task_ptr = TaskPtr(unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) -> bool + Sync + '_), *const Task>(task)
    });
    let job = Arc::new(Job::new(task_ptr, len, worker_budget));
    let pool = shared();
    {
        let mut queue = pool.queue.lock().expect("pool queue lock");
        queue.push_back(Arc::clone(&job));
    }
    pool.wake.notify_all();
    // The caller is always a participant — work proceeds even with zero
    // pool workers — and runs nested par_map calls serially like workers.
    {
        let mut active = job.active.lock().expect("job active lock");
        *active += 1;
    }
    let was_in_pool = crate::enter_pool_scope();
    job.claim_loop();
    crate::exit_pool_scope(was_in_pool);
    {
        let mut active = job.active.lock().expect("job active lock");
        *active -= 1;
        if *active == 0 {
            job.done.notify_all();
        }
    }
    job.close_and_drain();
    // Drop our queue entry eagerly so late workers skip it cheaply.
    let mut queue = pool.queue.lock().expect("pool queue lock");
    queue.retain(|j| !Arc::ptr_eq(j, &job));
}
