//! Mutation battery for the `intertubes-wire/v1` frame decoder
//! (DESIGN.md §14.1), the wire analogue of the snapshot battery in
//! `tests/snapshot_properties.rs`.
//!
//! Every case starts from valid frames and applies bit flips, truncations,
//! splices and false length fields, then feeds the bytes to a
//! [`FrameReader`]. Each frame it pops must re-decode identically from its
//! own encoding, and each failure must be a typed decode error: never a
//! panic, and never a heap peak past [`MAX_FRAME_LEN`]. A truncation at
//! every length is checked exactly, error for error. The binary counts
//! its own allocations per thread, so tests running side by side do not
//! disturb each other's peaks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use intertubes::net::wire::{
    decode_frame, encode_frame, Frame, FrameKind, FrameReader, WireError, HEADER_LEN, MAX_FRAME_LEN,
};
use proptest::prelude::*;

/// Forwards to the system allocator, tracking this thread's live and
/// peak bytes.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as isize));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local cells.
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
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the most heap bytes it held at
/// once on this thread, above what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    (out, peak.max(0) as usize)
}

/// Valid frames, length prefix included: each kind, empty and non-ASCII
/// ids, an empty payload.
fn fixtures() -> Vec<Vec<u8>> {
    let frames = [
        Frame::request("tenant-a", "world-1", 42, r#"{"TopShared":{"k":4}}"#.into()),
        Frame {
            kind: FrameKind::Response,
            tenant: String::new(),
            snapshot: "ref".into(),
            request_id: u64::MAX,
            payload: r#"{"ok":[1,2,3]}"#.into(),
        },
        Frame {
            kind: FrameKind::Error,
            tenant: "tenant-é".into(),
            snapshot: String::new(),
            request_id: 0,
            payload: String::new(),
        },
    ];
    frames
        .iter()
        .map(|f| encode_frame(f).unwrap_or_else(|e| panic!("fixture frames encode: {e}")))
        .collect()
}

/// One mutation, drawn from plain numbers: `kind` picks the operation,
/// `x`/`y`/`z` place and size it, `other` names the fixture a splice
/// copies from.
#[derive(Debug, Clone, Copy)]
struct Mutation {
    fixture: usize,
    other: usize,
    kind: usize,
    x: u64,
    y: u64,
    z: u64,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (
        (0usize..3, 0usize..3, 0usize..6),
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
    )
        .prop_map(|((fixture, other, kind), x, y, z)| Mutation {
            fixture,
            other,
            kind,
            x,
            y,
            z,
        })
}

/// The length fields a false-length mutation rewrites: the prefix, the
/// tenant and snapshot id lengths, and the payload length, as
/// (offset in the framed bytes, width).
const LENGTH_FIELDS: [(usize, usize); 4] = [(0, 4), (4 + 7, 1), (4 + 8, 1), (4 + 25, 4)];

/// Applies `m` to the fixtures.
fn mutate(fixtures: &[Vec<u8>], m: Mutation) -> Vec<u8> {
    let mut out = fixtures[m.fixture].clone();
    let other = &fixtures[m.other];
    let at = (m.x % out.len() as u64) as usize;
    match m.kind {
        // Flip one bit.
        0 => out[at] ^= 1 << (m.y % 8),
        // Truncate.
        1 => out.truncate(at),
        // Splice a piece of another frame over, or into, this one.
        2 | 3 => {
            let from = (m.y % other.len() as u64) as usize;
            let len = 1 + (m.z % 32) as usize;
            let piece = other[from..(from + len).min(other.len())].to_vec();
            if m.kind == 2 {
                let stop = (at + piece.len()).min(out.len());
                out.splice(at..stop, piece);
            } else {
                out.splice(at..at, piece);
            }
        }
        // A false length field: nearby, zero, at or past the cap, or extreme.
        4 => {
            let (offset, width) = LENGTH_FIELDS[(m.y % 4) as usize];
            let mut old = [0u8; 4];
            old[..width].copy_from_slice(&out[offset..offset + width]);
            let old = u32::from_le_bytes(old);
            let new = [
                0,
                1,
                old.wrapping_add(1),
                old.wrapping_sub(1),
                MAX_FRAME_LEN as u32,
                MAX_FRAME_LEN as u32 + 1,
                u32::MAX,
                old << 1,
            ][(m.z % 8) as usize];
            out[offset..offset + width].copy_from_slice(&new.to_le_bytes()[..width]);
        }
        // Two frames back to back, the second one mutated by a bit flip.
        _ => {
            let mut second = other.clone();
            let at = (m.y % second.len() as u64) as usize;
            second[at] ^= 1 << (m.z % 8);
            out.extend_from_slice(&second);
        }
    }
    out
}

/// Feeds `bytes` to a reader and pops frames until it needs more bytes
/// or fails. Every popped frame must be the one its own encoding
/// decodes to, and re-encode to the bytes it came from; every failure
/// must be a decode error.
fn pop_all(bytes: &[u8]) -> Result<(), String> {
    let mut reader = FrameReader::new();
    reader.feed(bytes);
    loop {
        let start = bytes.len() - reader.buffered();
        match reader.next_frame() {
            Ok(Some(frame)) => {
                let end = bytes.len() - reader.buffered();
                let again = encode_frame(&frame).map_err(|e| format!("re-encode: {e}"))?;
                let redecoded = decode_frame(&again[4..]);
                if redecoded.as_ref() != Ok(&frame) {
                    return Err(format!("{frame:?} re-decoded as {redecoded:?}"));
                }
                // A lossy payload (invalid UTF-8 under a matching checksum)
                // is the one way a frame can re-encode differently.
                if again != bytes[start..end] && !frame.payload.contains('\u{FFFD}') {
                    return Err(format!("{frame:?} re-encoded differently"));
                }
            }
            Ok(None) => return Ok(()),
            Err(WireError::Closed | WireError::Io(_) | WireError::UnknownSnapshot { .. }) => {
                return Err("decode failed with a transport error".into());
            }
            Err(_) => return Ok(()),
        }
    }
}

/// Mutations per proptest case, so the default case count runs hundreds.
const MUTATIONS_PER_CASE: usize = 16;

proptest! {
    #[test]
    fn mutated_frames_fail_typed_or_re_decode_identically(
        ms in prop::collection::vec(arb_mutation(), MUTATIONS_PER_CASE..MUTATIONS_PER_CASE + 1)
    ) {
        let fixtures = fixtures();
        for m in ms {
            let bytes = mutate(&fixtures, m);
            let (popped, peak) = peak_of(|| pop_all(&bytes));
            prop_assert!(popped.is_ok(), "{m:?}: {popped:?}");
            prop_assert!(peak <= MAX_FRAME_LEN, "{m:?}: decoding peaked at {peak} B");
            // The body alone, through the decoder without the reader.
            if let Some(body) = bytes.get(4..) {
                let (decoded, peak) = peak_of(|| decode_frame(body));
                prop_assert!(peak <= MAX_FRAME_LEN, "{m:?}: decoding peaked at {peak} B");
                if let Ok(frame) = decoded {
                    let again = encode_frame(&frame).expect("a decoded frame re-encodes");
                    prop_assert_eq!(decode_frame(&again[4..]), Ok(frame));
                }
            }
        }
    }
}

/// Every cut of every fixture gets the exact staged error: a body
/// shorter than the header is `Truncated` against the header length, a
/// longer one disagrees with its declared lengths, and a reader holding
/// a cut frame waits for the rest and reports the close as a truncation.
#[test]
fn a_truncation_at_every_length_is_the_exact_typed_error() {
    for bytes in fixtures() {
        let body = &bytes[4..];
        for cut in 0..body.len() {
            let want = if cut < HEADER_LEN {
                WireError::Truncated {
                    needed: HEADER_LEN,
                    have: cut,
                }
            } else {
                WireError::LengthMismatch {
                    declared: body.len(),
                    actual: cut,
                }
            };
            assert_eq!(decode_frame(&body[..cut]), Err(want), "cut at {cut}");
        }
        for cut in 0..bytes.len() {
            let mut reader = FrameReader::new();
            reader.feed(&bytes[..cut]);
            assert_eq!(reader.next_frame(), Ok(None), "cut at {cut}");
            let want = if cut == 0 {
                WireError::Closed
            } else {
                WireError::Truncated {
                    needed: 4 + HEADER_LEN,
                    have: cut,
                }
            };
            assert_eq!(reader.close(), want, "cut at {cut}");
        }
    }
}

/// A prefix claiming the largest accepted body makes the reader wait for
/// it while holding only the bytes it was fed; one byte more is refused
/// from the prefix alone.
#[test]
fn a_false_length_prefix_buffers_only_what_arrived() {
    let fixture = &fixtures()[0];
    let mut lying = fixture.clone();
    lying[..4].copy_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
    let (popped, peak) = peak_of(|| {
        let mut reader = FrameReader::new();
        reader.feed(&lying);
        reader.next_frame()
    });
    assert_eq!(popped, Ok(None));
    assert!(peak < 4 * lying.len(), "waiting peaked at {peak} B");

    lying[..4].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
    let mut reader = FrameReader::new();
    reader.feed(&lying[..4]);
    assert_eq!(
        reader.next_frame(),
        Err(WireError::Oversized {
            declared: MAX_FRAME_LEN + 1,
            max: MAX_FRAME_LEN,
        })
    );
}
