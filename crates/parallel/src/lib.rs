//! Std-only parallel execution layer with a determinism contract.
//!
//! Every hot path in the workspace (map-construction pipeline, traceroute
//! overlay, risk matrix, path enumeration) fans out through the helpers in
//! this crate. The contract, tested by `tests/determinism.rs` at the
//! workspace root, is:
//!
//! > **Parallel output is byte-identical to serial output, at any thread
//! > count, for every stage.**
//!
//! The helpers guarantee this by construction: inputs are split into
//! contiguous chunks, each chunk is processed in input order on its own
//! scoped thread, and chunk results are concatenated (or merged by the
//! caller) in chunk order. Nothing downstream can observe how many threads
//! ran. Serial execution is the 1-thread case of the same code: with one
//! thread (or one item) no thread is spawned and the work runs inline.
//!
//! Thread-count resolution, highest priority first:
//!
//! 1. a [`with_threads`] override (tests and benches);
//! 2. the `INTERTUBES_THREADS` environment variable;
//! 3. the machine's available parallelism, resolved once per process
//!    (on Linux it reads cgroup files, which costs far more than the
//!    environment lookup that is still made on every call).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Test/bench override installed by [`with_threads`] (0 = none).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The machine's available parallelism, resolved on first use.
static MACHINE: OnceLock<usize> = OnceLock::new();

/// Serializes [`with_threads`] callers so concurrent overrides cannot
/// interleave.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// The number of worker threads parallel stages will fan out to. Always ≥ 1.
pub fn thread_count() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Some(n) = std::env::var("INTERTUBES_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` with the thread count pinned to `n` (≥ 1), restoring the
/// previous state afterwards. Callers are serialized through a global
/// lock, so concurrent tests cannot observe each other's override.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = OVERRIDE.swap(n.max(1), Ordering::SeqCst);
    let result = f();
    OVERRIDE.store(prev, Ordering::SeqCst);
    result
}

/// The chunk length that splits `len` items into [`thread_count`] chunks.
pub fn chunk_len(len: usize) -> usize {
    len.div_ceil(thread_count()).max(1)
}

/// The ordered driver behind every helper: splits `items` into at most
/// [`thread_count`] contiguous chunks, maps each chunk on its own scoped
/// thread, and concatenates the results in chunk order. A worker panic is
/// resumed on the caller.
fn drive_ordered<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let threads = thread_count();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut rest = items.into_iter();
    let chunks: Vec<Vec<T>> = (0..n.div_ceil(chunk))
        .map(|_| rest.by_ref().take(chunk).collect())
        .collect();
    let f = &f;
    let results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    results.into_iter().flatten().collect()
}

/// Maps `f` over `items`, in parallel, preserving input order exactly.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync + Send,
{
    // Counted on entry (caller thread): the counter is identical at every
    // thread count by construction.
    intertubes_obs::counter("parallel.par_map_calls", 1);
    intertubes_obs::counter("parallel.par_map_items", items.len() as u64);
    drive_ordered(items.iter().collect(), f)
}

/// Maps `f` over owned `items`, in parallel, preserving input order.
pub fn par_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    intertubes_obs::counter("parallel.par_map_calls", 1);
    intertubes_obs::counter("parallel.par_map_items", items.len() as u64);
    drive_ordered(items, f)
}

/// Splits `items` into contiguous chunks of `chunk_size` and maps `f` over
/// `(chunk_start_offset, chunk)` in parallel, returning per-chunk results
/// in chunk order.
///
/// The caller merges the results; when its merge operation is associative
/// over adjacent chunks (the property suites assert this for overlay
/// shards and degradation reports), the merged value is independent of
/// both `chunk_size` and the thread count.
pub fn par_chunks_map<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync + Send,
{
    let chunk_size = chunk_size.max(1);
    // Items, not chunks: callers derive chunk_size from the thread count,
    // so a chunk total would (correctly but uselessly) vary across runs.
    intertubes_obs::counter("parallel.par_chunks_map_calls", 1);
    intertubes_obs::counter("parallel.par_chunks_map_items", items.len() as u64);
    drive_ordered(items.chunks(chunk_size).enumerate().collect(), |(i, c)| {
        f(i * chunk_size, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::{self, ThreadId};

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    /// Runs `f` holding the override lock. No sibling test's
    /// [`with_threads`] can be mid-override meanwhile: it installs its
    /// override only while holding the lock, and restores it before
    /// releasing it.
    fn locked<R>(f: impl FnOnce() -> R) -> R {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        f()
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let before = locked(thread_count);
        assert_eq!(with_threads(3, thread_count), 3);
        assert_eq!(locked(thread_count), before);
    }

    #[test]
    fn with_threads_leaves_the_environment_alone() {
        let snapshot = || std::env::vars().collect::<HashSet<(String, String)>>();
        let outside = locked(snapshot);
        let inside = with_threads(4, snapshot);
        let changed: Vec<_> = inside.symmetric_difference(&outside).collect();
        assert!(
            changed.is_empty(),
            "with_threads changed the environment: {changed:?}"
        );
    }

    #[test]
    fn the_environment_is_read_on_every_call() {
        const VAR: &str = "INTERTUBES_THREADS";
        // Held throughout, so no sibling test's override is installed and
        // the environment test sees the variable only as it was.
        locked(|| {
            let before = std::env::var_os(VAR);
            std::env::remove_var(VAR);
            let machine = thread_count();
            for n in ["5", "3"] {
                std::env::set_var(VAR, n);
                assert_eq!(thread_count().to_string(), n);
            }
            std::env::remove_var(VAR);
            assert_eq!(thread_count(), machine);
            if let Some(v) = before {
                std::env::set_var(VAR, v);
            }
        });
    }

    fn distinct(ids: &[ThreadId]) -> HashSet<ThreadId> {
        ids.iter().copied().collect()
    }

    #[test]
    fn par_map_spawns_exactly_the_pinned_thread_count() {
        let items: Vec<u32> = (0..100).collect();
        for n in [2, 4] {
            let ids = with_threads(n, || par_map(&items, |_| thread::current().id()));
            assert_eq!(distinct(&ids).len(), n, "thread count {n}");
        }
    }

    #[test]
    fn one_thread_runs_inline_on_the_caller() {
        let items: Vec<u32> = (0..100).collect();
        let ids = with_threads(1, || par_map(&items, |_| thread::current().id()));
        assert_eq!(distinct(&ids), HashSet::from([thread::current().id()]));
    }

    #[test]
    fn par_chunks_map_never_exceeds_the_pinned_thread_count() {
        let items: Vec<u32> = (0..1000).collect();
        for n in [2, 3] {
            let ids = with_threads(n, || {
                par_chunks_map(&items, 7, |_, _| thread::current().id())
            });
            assert_eq!(ids.len(), 143);
            assert!(distinct(&ids).len() <= n, "thread count {n}");
        }
    }

    #[test]
    fn worker_panics_reach_the_caller() {
        let items: Vec<u32> = (0..10).collect();
        let caught = with_threads(2, || {
            std::panic::catch_unwind(|| par_map(&items, |&x| assert!(x != 7, "boom")))
        });
        assert!(caught.is_err());
    }

    #[test]
    fn par_map_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for n in [1, 2, 3, 8, 16] {
            let par = with_threads(n, || par_map(&items, |&x| x * 3 + 1));
            assert_eq!(par, serial, "thread count {n}");
        }
    }

    #[test]
    fn par_map_owned_preserves_order() {
        let items: Vec<String> = (0..100).map(|i| format!("i{i}")).collect();
        let expect = items.clone();
        let got = with_threads(4, || par_map_owned(items, |s| s));
        assert_eq!(got, expect);
    }

    #[test]
    fn par_chunks_map_offsets_cover_input() {
        let items: Vec<u32> = (0..1000).collect();
        for chunk in [1, 7, 100, 1000, 5000] {
            let sums = with_threads(5, || {
                par_chunks_map(&items, chunk, |off, c| {
                    assert_eq!(c[0] as usize, off);
                    c.iter().map(|&x| x as u64).sum::<u64>()
                })
            });
            assert_eq!(sums.iter().sum::<u64>(), 499_500, "chunk {chunk}");
        }
    }

    #[test]
    fn chunk_len_never_zero() {
        assert!(chunk_len(0) >= 1);
        assert!(chunk_len(1) >= 1);
        with_threads(8, || assert!(chunk_len(3) >= 1));
    }
}
