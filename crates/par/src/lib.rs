//! # sof-par — deterministic parallelism on a persistent worker pool
//!
//! A small `std::thread`-based worker pool for the embarrassingly parallel
//! layers of the workspace: per-seed sweeps in `sof_spec::oneshot`, independent
//! `OnlineSession`s in `sof_core::SessionPool`, and the child relaxations of
//! `sof_exact`'s branch-and-bound.
//!
//! Work runs on **long-lived, channel-fed workers** (the `pool` module): a
//! `par_map` call enqueues one job, up to `threads − 1` pool workers join
//! in, and the calling thread claims indices alongside them — so
//! millisecond-scale calls (the exact solver forks 4–5 child relaxations
//! per branch-and-bound expansion) no longer pay per-call thread spawn and
//! join costs. Workers are spawned lazily up to the largest requested
//! count and parked on a condvar between jobs.
//!
//! **Determinism guarantee:** every primitive here produces output that is
//! a pure function of its input, *independent of the thread count*. Work is
//! addressed by index — slot `i` of the result always holds `f(i, &items[i])`
//! — and reductions downstream fold results in input order, so costs stay
//! bit-identical whether a computation ran on 1 thread or 64. The
//! `tests/parallel_determinism.rs` suite pins this across the workspace.
//!
//! Thread-count resolution, from highest to lowest priority:
//!
//! 1. an explicit `threads` argument (`0` falls through to the rest),
//! 2. the process-wide override installed by [`set_threads`] (the bench
//!    binaries' `--threads` flag),
//! 3. the `SOF_THREADS` environment variable (`0` or unset = auto; an
//!    unparsable value warns once and falls back to auto),
//! 4. auto: [`std::thread::available_parallelism`].
//!
//! Workers run nested `par_map` calls serially (no recursive thread
//! explosion), and a panic in one task poisons the pool: remaining workers
//! stop picking up work and the call returns [`ParError::WorkerPanicked`]
//! — carrying the panicking index and its payload message — instead of
//! deadlocking or aborting the process. (When *several* tasks would panic,
//! which one is observed first can vary with the thread count; the
//! determinism guarantee above covers `Ok` results.)
//!
//! # Examples
//!
//! ```
//! let items: Vec<u64> = (0..100).collect();
//! let doubled = sof_par::par_map_indexed(&items, 4, |i, &x| x * 2 + i as u64)
//!     .expect("no worker panicked");
//! // Slot i holds f(i, &items[i]) regardless of the thread count.
//! assert_eq!(doubled[10], 30);
//! assert_eq!(doubled, sof_par::par_map_indexed(&items, 1, |i, &x| x * 2 + i as u64).unwrap());
//! ```

// `deny` rather than `forbid`: the `pool` module opts in for the one
// documented lifetime-erasure its persistent workers require.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Errors from the worker pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParError {
    /// A task panicked; the pool was poisoned and drained without deadlock.
    ///
    /// `index` is the smallest input index observed to panic and `message`
    /// the panic payload at that index (when it was a string). With more
    /// than one panicking task, which one is observed first may vary with
    /// the thread count — the determinism guarantee covers `Ok` results.
    WorkerPanicked {
        /// Input index of the panicking task.
        index: usize,
        /// The panic payload, for string payloads (`panic!`/`assert!`
        /// messages); a placeholder otherwise.
        message: String,
    },
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::WorkerPanicked { index, message } => {
                write!(
                    f,
                    "worker panicked while processing item {index}: {message}"
                )
            }
        }
    }
}

impl std::error::Error for ParError {}

/// Extracts the human-readable message from a caught panic payload.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// First-observed panic shared between workers: the smallest index seen so
/// far plus its payload message.
struct Poison(Mutex<Option<(usize, String)>>);

impl Poison {
    fn new() -> Poison {
        Poison(Mutex::new(None))
    }

    fn record(&self, index: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.0.lock().expect("poison lock");
        if slot.as_ref().is_none_or(|(i, _)| index < *i) {
            *slot = Some((index, payload_message(payload.as_ref())));
        }
    }

    fn into_error(self) -> Option<ParError> {
        self.0
            .into_inner()
            .expect("poison lock")
            .map(|(index, message)| ParError::WorkerPanicked { index, message })
    }
}

/// Process-wide thread-count override; `usize::MAX` = unset.
static OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

thread_local! {
    /// Set inside pool workers so nested `par_map` calls degrade to serial
    /// execution instead of spawning threads quadratically.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as pool context; returns the previous flag.
pub(crate) fn enter_pool_scope() -> bool {
    IN_POOL.with(|c| c.replace(true))
}

/// Restores the pool-context flag saved by [`enter_pool_scope`].
pub(crate) fn exit_pool_scope(previous: bool) {
    IN_POOL.with(|c| c.set(previous));
}

/// Installs a process-wide thread-count override (`0` = auto-detect). The
/// bench binaries call this for `--threads`; it beats `SOF_THREADS`.
pub fn set_threads(threads: usize) {
    OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The machine's available parallelism (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Reads `SOF_THREADS`.
///
/// Returns `Ok(None)` when unset, `Ok(Some(n))` when it parses (`0` =
/// auto-detect).
///
/// # Errors
///
/// A message naming the unparsable value.
pub fn env_threads() -> Result<Option<usize>, String> {
    match std::env::var("SOF_THREADS") {
        Err(_) => Ok(None),
        Ok(s) => s.trim().parse::<usize>().map(Some).map_err(|_| {
            format!("invalid SOF_THREADS value '{s}': expected a thread count (0 = all cores)")
        }),
    }
}

/// Resolves a requested thread count: `0` means auto-detect
/// ([`available_threads`]), anything else is taken literally.
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// The thread count parallel layers use when no explicit count is passed:
/// the [`set_threads`] override if installed, else `SOF_THREADS` (an
/// unparsable value warns to stderr once and falls back to auto), else
/// [`available_threads`].
pub fn current_threads() -> usize {
    let over = OVERRIDE.load(Ordering::SeqCst);
    let requested = if over != usize::MAX {
        over
    } else {
        match env_threads() {
            Ok(n) => n.unwrap_or(0),
            Err(e) => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| eprintln!("warning: {e}; falling back to auto-detect"));
                0
            }
        }
    };
    resolve_threads(requested)
}

/// Worker count for one `par_map` call: an explicit count is taken
/// literally, `0` defers to the configured default ([`current_threads`]).
fn requested_workers(threads: usize) -> usize {
    if threads == 0 {
        current_threads()
    } else {
        threads
    }
}

/// Maps `f` over `items` on up to `threads` workers (`0` = the configured
/// default, [`current_threads`]: the `--threads` override, then
/// `SOF_THREADS`, then all cores), preserving input order: slot `i` of the
/// result is `f(i, &items[i])`.
///
/// Work runs on the persistent pool — up to `threads − 1` long-lived
/// workers join the calling thread, which always participates — so
/// frequent small calls pay no thread spawn/join cost. Scheduling is
/// work-stealing (an atomic next-index counter), but because every output
/// slot is addressed by input index the result is identical for every
/// thread count. Nested calls from inside a worker run serially.
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] when any task panics. The job is poisoned
/// (remaining participants stop pulling work, pool workers survive) and
/// drained — never deadlocked — and all partial results are discarded.
pub fn par_map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = requested_workers(threads).min(items.len());
    if workers <= 1 || IN_POOL.with(Cell::get) {
        return serial_map(items, &f);
    }
    let poison = Poison::new();
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let run_one = |i: usize| -> bool {
        match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
            Ok(r) => {
                collected
                    .lock()
                    .expect("no panic holds the lock")
                    .push((i, r));
                true
            }
            Err(payload) => {
                poison.record(i, payload);
                false
            }
        }
    };
    pool::run(items.len(), workers - 1, &run_one);
    if let Some(err) = poison.into_error() {
        return Err(err);
    }
    let mut pairs = collected.into_inner().expect("participants drained");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    Ok(pairs.into_iter().map(|(_, r)| r).collect())
}

/// Like [`par_map_indexed`] but with mutable access: each item is visited
/// exactly once as `f(i, &mut items[i])`, on up to `threads` workers
/// (`0` = the configured default, [`current_threads`]). Each index is
/// claimed exactly once off the shared counter, so accesses are disjoint
/// and results are identical for every thread count.
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] when any task panics; results are
/// discarded, and items may be left partially updated (each item was
/// visited at most once).
pub fn par_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Result<Vec<R>, ParError>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let len = items.len();
    let workers = requested_workers(threads).min(len);
    if workers <= 1 || IN_POOL.with(Cell::get) {
        return serial_map_mut(items, &f);
    }
    let poison = Poison::new();
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(len));
    let base = pool::SliceMutPtr(items.as_mut_ptr());
    let run_one = |i: usize| -> bool {
        // SAFETY: `i` comes off the job's claim counter exactly once, so
        // no other participant touches `items[i]`, and the `&mut items`
        // borrow outlives the job (we only return once it is drained).
        #[allow(unsafe_code)]
        let item = unsafe { base.get_mut(i) };
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(r) => {
                collected
                    .lock()
                    .expect("no panic holds the lock")
                    .push((i, r));
                true
            }
            Err(payload) => {
                poison.record(i, payload);
                false
            }
        }
    };
    pool::run(len, workers - 1, &run_one);
    if let Some(err) = poison.into_error() {
        return Err(err);
    }
    let mut pairs = collected.into_inner().expect("participants drained");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    Ok(pairs.into_iter().map(|(_, r)| r).collect())
}

/// In-place serial fallback with the same poisoned-worker contract.
fn serial_map<T, R, F>(items: &[T], f: &F) -> Result<Vec<R>, ParError>
where
    F: Fn(usize, &T) -> R,
{
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(r) => out.push(r),
            Err(payload) => {
                return Err(ParError::WorkerPanicked {
                    index: i,
                    message: payload_message(payload.as_ref()),
                })
            }
        }
    }
    Ok(out)
}

/// In-place serial fallback for [`par_map_mut`].
fn serial_map_mut<T, R, F>(items: &mut [T], f: &F) -> Result<Vec<R>, ParError>
where
    F: Fn(usize, &mut T) -> R,
{
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter_mut().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(r) => out.push(r),
            Err(payload) => {
                return Err(ParError::WorkerPanicked {
                    index: i,
                    message: payload_message(payload.as_ref()),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..257).map(|i| i * 3 + 1).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_mul(7) ^ i as u64)
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let got =
                par_map_indexed(&items, threads, |i, &x| x.wrapping_mul(7) ^ i as u64).unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        assert_eq!(par_map_indexed(&none, 8, |_, &x| x).unwrap(), vec![]);
        assert_eq!(
            par_map_indexed(&[9u32], 8, |i, &x| x + i as u32).unwrap(),
            vec![9]
        );
        let mut one = [5u32];
        assert_eq!(par_map_mut(&mut one, 8, |_, x| *x * 2).unwrap(), vec![10]);
    }

    #[test]
    fn panics_poison_instead_of_deadlocking() {
        let items: Vec<usize> = (0..50).collect();
        for threads in [1, 2, 8] {
            let err = par_map_indexed(&items, threads, |i, _| {
                if i == 17 {
                    panic!("boom");
                }
                i
            })
            .unwrap_err();
            assert!(
                matches!(err, ParError::WorkerPanicked { .. }),
                "threads={threads}"
            );
        }
        // Serial path reports the exact index and the panic message.
        let err = par_map_indexed(&items, 1, |i, _| {
            if i == 17 {
                panic!("boom {i}");
            }
            i
        })
        .unwrap_err();
        assert_eq!(
            err,
            ParError::WorkerPanicked {
                index: 17,
                message: "boom 17".into()
            }
        );
        assert!(err.to_string().contains("boom 17"));
    }

    #[test]
    fn map_mut_visits_each_item_once() {
        for threads in [1, 2, 5, 16] {
            let mut items: Vec<u64> = (0..101).collect();
            let returned = par_map_mut(&mut items, threads, |i, x| {
                *x += 1000;
                i as u64
            })
            .unwrap();
            assert_eq!(
                returned,
                (0..101).collect::<Vec<u64>>(),
                "threads={threads}"
            );
            assert!(items.iter().enumerate().all(|(i, &x)| x == i as u64 + 1000));
        }
    }

    #[test]
    fn nested_calls_run_serially_without_exploding() {
        let outer: Vec<u64> = (0..8).collect();
        let spawned = AtomicU64::new(0);
        let got = par_map_indexed(&outer, 4, |_, &x| {
            spawned.fetch_add(1, Ordering::SeqCst);
            let inner: Vec<u64> = (0..16).collect();
            // Inside a worker this must degrade to the serial path.
            par_map_indexed(&inner, 8, |i, &y| y * x + i as u64)
                .unwrap()
                .iter()
                .sum::<u64>()
        })
        .unwrap();
        let expect: Vec<u64> = outer
            .iter()
            .map(|&x| (0..16).map(|y| y * x + y).sum())
            .collect();
        assert_eq!(got, expect);
        assert_eq!(spawned.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn many_small_calls_reuse_persistent_workers() {
        // The exact solver's usage profile: thousands of tiny calls. Each
        // must produce ordered results; the pool's long-lived workers (not
        // fresh spawns) serve them.
        let items: Vec<u64> = (0..5).collect();
        for round in 0..500u64 {
            let got = par_map_indexed(&items, 4, |i, &x| x * 31 + i as u64 + round).unwrap();
            let expect: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| x * 31 + i as u64 + round)
                .collect();
            assert_eq!(got, expect, "round {round}");
        }
    }

    #[test]
    fn concurrent_top_level_calls_share_the_pool() {
        // Several caller threads enqueue jobs at once; every job drains
        // with its own ordered results and its own poisoning.
        std::thread::scope(|scope| {
            for caller in 0..4u64 {
                scope.spawn(move || {
                    let items: Vec<u64> = (0..97).collect();
                    for _ in 0..20 {
                        let got = par_map_indexed(&items, 3, |i, &x| x + caller * 1000 + i as u64)
                            .unwrap();
                        assert_eq!(got[96], 96 + caller * 1000 + 96);
                    }
                    let err = par_map_indexed(&items, 3, |i, &x| {
                        if i == 42 {
                            panic!("caller {caller}");
                        }
                        x
                    })
                    .unwrap_err();
                    assert!(matches!(err, ParError::WorkerPanicked { .. }));
                });
            }
        });
    }

    #[test]
    fn thread_count_resolution() {
        assert!(available_threads() >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        // The override round-trips; other tests never read the global.
        set_threads(5);
        assert_eq!(current_threads(), 5);
        set_threads(0);
        assert!(current_threads() >= 1);
    }
}
