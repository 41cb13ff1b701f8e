//! Decode-memory guard for the snapshot container (DESIGN.md §9.1).
//!
//! `StudySnapshot::from_bytes` decodes each binary section straight into
//! vectors reserved once at their final size, so its heap peak stays a
//! small multiple of the container it decodes. This binary counts
//! every allocation through its own global allocator and fails if the
//! decode ever peaks at 4× the container's bytes or more above the heap
//! it started from. The bound is a property of the decoder's allocation
//! pattern, not of the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use intertubes::serve::StudySnapshot;
use intertubes::Study;

/// Forwards to the system allocator, tracking live and peak bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn snapshot_decode_peaks_below_four_times_the_container() {
    let bytes = Study::reference()
        .snapshot(Some(10_000))
        .to_bytes()
        .expect("the reference snapshot encodes");
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let snap = StudySnapshot::from_bytes(&bytes).expect("the reference snapshot decodes");
    let peak = PEAK.load(Ordering::SeqCst) - base;
    drop(snap);
    let ratio = peak as f64 / bytes.len() as f64;
    assert!(
        ratio < 4.0,
        "decoding a {} B container peaked {peak} B above the starting heap ({ratio:.2}×)",
        bytes.len()
    );
}
