//! Rayon-backed parallel execution layer with a determinism contract.
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
//! contiguous chunks, each chunk is processed in input order, and chunk
//! results are concatenated (or merged by the caller) in chunk order.
//! Nothing downstream can observe how many threads ran.
//!
//! Thread-count resolution, highest priority first:
//!
//! 1. a [`with_threads`] override (tests and benches);
//! 2. the `INTERTUBES_THREADS` environment variable;
//! 3. rayon's global pool size (`RAYON_NUM_THREADS`, or the machine's
//!    available parallelism).
//!
//! With the `parallel` cargo feature disabled (it is on by default) every
//! helper degrades to a plain serial loop and the resolution above is
//! bypassed entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Test/bench override installed by [`with_threads`] (0 = none).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_threads`] callers so concurrent overrides cannot
/// interleave.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// The number of worker threads parallel stages will fan out to.
///
/// Always ≥ 1. Returns 1 when the `parallel` feature is disabled.
pub fn thread_count() -> usize {
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
    #[cfg(feature = "parallel")]
    {
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
        rayon::current_num_threads().max(1)
    }
}

/// Runs `f` with the thread count pinned to `n` (≥ 1), restoring the
/// previous state afterwards. Callers are serialized through a global
/// lock, so concurrent tests cannot observe each other's override.
///
/// `RAYON_NUM_THREADS` is pinned for the duration too, so the underlying
/// pool fans out to `n` OS threads even on machines with fewer cores.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let n = n.max(1);
    let guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev_env = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    let prev = OVERRIDE.swap(n, Ordering::SeqCst);
    let result = f();
    OVERRIDE.store(prev, Ordering::SeqCst);
    match prev_env {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    drop(guard);
    result
}

/// The chunk length that splits `len` items into [`thread_count`] chunks.
pub fn chunk_len(len: usize) -> usize {
    len.div_ceil(thread_count()).max(1)
}

/// Maps `f` over `items`, in parallel, preserving input order exactly.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync + Send,
{
    // Counted on entry (caller thread), before the serial/parallel branch:
    // the counter is identical at every thread count by construction.
    intertubes_obs::counter("parallel.par_map_calls", 1);
    intertubes_obs::counter("parallel.par_map_items", items.len() as u64);
    #[cfg(feature = "parallel")]
    if thread_count() > 1 && items.len() > 1 {
        return items
            .par_chunks(chunk_len(items.len()))
            .map(|chunk| chunk.iter().map(&f).collect::<Vec<R>>())
            .collect::<Vec<Vec<R>>>()
            .into_iter()
            .flatten()
            .collect();
    }
    items.iter().map(f).collect()
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
    #[cfg(feature = "parallel")]
    if thread_count() > 1 && items.len() > 1 {
        return items
            .into_par_iter()
            .map(f)
            .collect::<Vec<R>>();
    }
    items.into_iter().map(f).collect()
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
    #[cfg(feature = "parallel")]
    if thread_count() > 1 && items.len() > chunk_size {
        let offsets_chunks: Vec<(usize, &[T])> = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, c)| (i * chunk_size, c))
            .collect();
        return offsets_chunks
            .into_par_iter()
            .map(|(off, c)| f(off, c))
            .collect();
    }
    items
        .chunks(chunk_size)
        .enumerate()
        .map(|(i, c)| f(i * chunk_size, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    /// Runs `f` holding the override lock. No sibling test's
    /// [`with_threads`] can be mid-override meanwhile: it installs its
    /// override and `RAYON_NUM_THREADS` only while holding the lock, and
    /// restores both before releasing it.
    fn locked<R>(f: impl FnOnce() -> R) -> R {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        f()
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let before = locked(thread_count);
        let inside = with_threads(3, thread_count);
        if cfg!(feature = "parallel") {
            assert_eq!(inside, 3);
        } else {
            assert_eq!(inside, 1);
        }
        assert_eq!(locked(thread_count), before);
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
