//! The `intertubes-wire/v1` frame codec (DESIGN.md §14.1).
//!
//! Every message on a serving connection is one length-prefixed binary
//! frame:
//!
//! ```text
//! u32 LE  body length (everything below; ≤ MAX_FRAME_LEN)
//! ─────── body ───────────────────────────────────────────
//! [0..4)   magic  b"ITWF"
//! [4..6)   version u16 LE (= 1)
//! [6]      kind u8: 0 request, 1 response, 2 error
//! [7]      tenant id length  T (bytes)
//! [8]      snapshot id length S (bytes)
//! [9..17)  request id u64 LE
//! [17..25) payload FNV-1a-64 checksum, LE
//! [25..29) payload length u32 LE
//! [29..29+T)      tenant id, UTF-8
//! [29+T..29+T+S)  snapshot id, UTF-8
//! [29+T+S..)      payload: canonical JSON (query, response, or error)
//! ```
//!
//! Decoding is staged like the snapshot container's: length sanity, magic,
//! version, kind, declared-length consistency, checksum — each failure is
//! a typed [`WireError`], rendered back to the peer as an **error frame**
//! (kind 2, payload = [`WireError::to_error_payload`]), never a hang or a
//! process exit. [`FrameReader`] handles the incremental, non-blocking
//! reassembly: feed it whatever bytes arrived, pop complete frames.
//!
//! The decoder reads untrusted bytes, so it never indexes: every read is
//! checked and fails with a typed error, and nothing is allocated from a
//! declared length. `tests/wire_mutations.rs` mutates valid frames to
//! hold it to that.

#![deny(clippy::indexing_slicing)]

use intertubes_serve::fnv1a64;

/// Frame magic: the first four body bytes of every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"ITWF";

/// The wire protocol version this build speaks.
pub const WIRE_VERSION: u16 = 1;

/// Schema tag for manifests and documentation.
pub const WIRE_SCHEMA: &str = "intertubes-wire/v1";

/// Fixed body bytes before the variable tenant/snapshot/payload tail.
pub const HEADER_LEN: usize = 29;

/// Largest accepted frame body. A declared length beyond this is rejected
/// *from the prefix alone* — the peer cannot make the server buffer
/// gigabytes by lying about the length.
pub const MAX_FRAME_LEN: usize = 4 << 20;

/// What a frame is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A tenant's query (payload: canonical query JSON).
    Request,
    /// The engine's answer (payload: canonical response JSON).
    Response,
    /// A protocol failure report (payload: rendered [`WireError`]).
    Error,
}

impl FrameKind {
    /// The on-wire tag.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
            FrameKind::Error => 2,
        }
    }

    /// Parses the on-wire tag.
    pub fn from_u8(tag: u8) -> Option<FrameKind> {
        match tag {
            0 => Some(FrameKind::Request),
            1 => Some(FrameKind::Response),
            2 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request, response, or error.
    pub kind: FrameKind,
    /// Tenant id (≤ 255 bytes).
    pub tenant: String,
    /// Snapshot id the frame routes by (≤ 255 bytes).
    pub snapshot: String,
    /// Client-assigned correlation id, echoed in the answer.
    pub request_id: u64,
    /// Canonical JSON payload.
    pub payload: String,
}

impl Frame {
    /// A request frame.
    pub fn request(tenant: &str, snapshot: &str, request_id: u64, payload: String) -> Frame {
        Frame {
            kind: FrameKind::Request,
            tenant: tenant.to_string(),
            snapshot: snapshot.to_string(),
            request_id,
            payload,
        }
    }

    /// The answer to this frame, same correlation triple.
    pub fn reply(&self, kind: FrameKind, payload: String) -> Frame {
        Frame {
            kind,
            tenant: self.tenant.clone(),
            snapshot: self.snapshot.clone(),
            request_id: self.request_id,
            payload,
        }
    }
}

/// Typed wire failure. Mirrors the snapshot container's staged
/// `SnapshotError`: every corruption mode has a distinct variant, and the
/// battery in `tests/remote.rs` exercises each one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The declared body length cannot hold a frame header, or the
    /// connection closed mid-frame.
    Truncated {
        /// Bytes a minimal frame needs.
        needed: usize,
        /// Bytes actually present/declared.
        have: usize,
    },
    /// The declared body length exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared length.
        declared: usize,
        /// The acceptance ceiling.
        max: usize,
    },
    /// The first four body bytes are not [`WIRE_MAGIC`].
    BadMagic,
    /// The peer speaks a different protocol version.
    UnknownVersion {
        /// The version the frame declared.
        found: u16,
    },
    /// The kind tag is none of request/response/error.
    BadKind {
        /// The tag the frame declared.
        found: u8,
    },
    /// The variable-length tail does not match the declared lengths.
    LengthMismatch {
        /// Body bytes the declared lengths require.
        declared: usize,
        /// Body bytes actually present.
        actual: usize,
    },
    /// Tenant or snapshot id bytes are not UTF-8.
    BadUtf8 {
        /// `"tenant"` or `"snapshot"`.
        field: &'static str,
    },
    /// A tenant or snapshot id is too long for its u8 length field, so
    /// the frame cannot be encoded.
    IdTooLong {
        /// `"tenant"` or `"snapshot"`.
        field: &'static str,
        /// The id's length in bytes.
        len: usize,
    },
    /// The payload checksum does not match the payload bytes.
    ChecksumMismatch,
    /// A request routed to a snapshot id the registry does not serve.
    UnknownSnapshot {
        /// The id the frame asked for.
        id: String,
    },
    /// The peer closed the connection.
    Closed,
    /// A socket-level failure, rendered.
    Io(String),
}

impl WireError {
    /// Stable kebab-case label (error-frame payloads, diagnostics).
    pub fn label(&self) -> &'static str {
        match self {
            WireError::Truncated { .. } => "truncated",
            WireError::Oversized { .. } => "oversized",
            WireError::BadMagic => "bad-magic",
            WireError::UnknownVersion { .. } => "unknown-version",
            WireError::BadKind { .. } => "bad-kind",
            WireError::LengthMismatch { .. } => "length-mismatch",
            WireError::BadUtf8 { .. } => "bad-utf8",
            WireError::IdTooLong { .. } => "id-too-long",
            WireError::ChecksumMismatch => "checksum-mismatch",
            WireError::UnknownSnapshot { .. } => "unknown-snapshot",
            WireError::Closed => "closed",
            WireError::Io(_) => "io",
        }
    }

    /// Whether a client should transparently reconnect and resend: true
    /// for transport-level failures, false for protocol errors (resending
    /// a malformed frame would just fail again).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WireError::Closed | WireError::Io(_) | WireError::Truncated { .. }
        )
    }

    /// The error-frame payload: `{"error": <label>, "detail": <display>}`.
    pub fn to_error_payload(&self) -> String {
        let label = serde_json::to_string(self.label()).unwrap_or_default();
        let detail = serde_json::to_string(&self.to_string()).unwrap_or_default();
        format!("{{\"error\":{label},\"detail\":{detail}}}")
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::Oversized { declared, max } => {
                write!(f, "oversized frame: declared {declared} bytes, max {max}")
            }
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnknownVersion { found } => {
                write!(
                    f,
                    "unknown wire version {found} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::BadKind { found } => write!(f, "unknown frame kind tag {found}"),
            WireError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "frame length mismatch: fields declare {declared} bytes, body has {actual}"
                )
            }
            WireError::BadUtf8 { field } => write!(f, "{field} id is not UTF-8"),
            WireError::IdTooLong { field, len } => {
                write!(f, "{field} id is {len} bytes, max {}", u8::MAX)
            }
            WireError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            WireError::UnknownSnapshot { id } => write!(f, "unknown snapshot id {id:?}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a frame, length prefix included. Fails only when an id exceeds
/// its u8 length field or the payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let tenant = frame.tenant.as_bytes();
    let snapshot = frame.snapshot.as_bytes();
    for (field, id) in [("tenant", tenant), ("snapshot", snapshot)] {
        if id.len() > u8::MAX as usize {
            return Err(WireError::IdTooLong {
                field,
                len: id.len(),
            });
        }
    }
    let payload = frame.payload.as_bytes();
    let body_len = HEADER_LEN + tenant.len() + snapshot.len() + payload.len();
    if body_len > MAX_FRAME_LEN {
        return Err(WireError::Oversized {
            declared: body_len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(frame.kind.as_u8());
    out.push(tenant.len() as u8);
    out.push(snapshot.len() as u8);
    out.extend_from_slice(&frame.request_id.to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(tenant);
    out.extend_from_slice(snapshot);
    out.extend_from_slice(payload);
    Ok(out)
}

/// `N` bytes of `body` from `at`, or the truncation that leaves them out.
fn field<const N: usize>(body: &[u8], at: usize) -> Result<[u8; N], WireError> {
    body.get(at..)
        .and_then(<[u8]>::first_chunk::<N>)
        .copied()
        .ok_or(WireError::Truncated {
            needed: at + N,
            have: body.len(),
        })
}

/// Decodes one frame **body** (the bytes after the length prefix).
/// Validation is staged so each corruption mode maps to its own error.
pub fn decode_frame(body: &[u8]) -> Result<Frame, WireError> {
    if body.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: body.len(),
        });
    }
    if field::<4>(body, 0)? != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(field(body, 4)?);
    if version != WIRE_VERSION {
        return Err(WireError::UnknownVersion { found: version });
    }
    let [tag, tenant_len, snapshot_len] = field(body, 6)?;
    let kind = FrameKind::from_u8(tag).ok_or(WireError::BadKind { found: tag })?;
    let request_id = u64::from_le_bytes(field(body, 9)?);
    let checksum = u64::from_le_bytes(field(body, 17)?);
    let payload_len = u32::from_le_bytes(field(body, 25)?) as usize;
    // Saturating: where `usize` is 32 bits, a false payload length could
    // overflow the sum, and any saturated value mismatches the body.
    let declared =
        payload_len.saturating_add(HEADER_LEN + tenant_len as usize + snapshot_len as usize);
    let mismatch = || WireError::LengthMismatch {
        declared,
        actual: body.len(),
    };
    if declared != body.len() {
        return Err(mismatch());
    }
    let tail = body.get(HEADER_LEN..).ok_or_else(mismatch)?;
    let (tenant, tail) = tail
        .split_at_checked(tenant_len as usize)
        .ok_or_else(mismatch)?;
    let (snapshot, payload_bytes) = tail
        .split_at_checked(snapshot_len as usize)
        .ok_or_else(mismatch)?;
    let tenant = std::str::from_utf8(tenant)
        .map_err(|_| WireError::BadUtf8 { field: "tenant" })?
        .to_string();
    let snapshot = std::str::from_utf8(snapshot)
        .map_err(|_| WireError::BadUtf8 { field: "snapshot" })?
        .to_string();
    if fnv1a64(payload_bytes) != checksum {
        return Err(WireError::ChecksumMismatch);
    }
    let payload = String::from_utf8_lossy(payload_bytes).into_owned();
    Ok(Frame {
        kind,
        tenant,
        snapshot,
        request_id,
        payload,
    })
}

/// Incremental frame reassembly over a non-blocking byte stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends bytes that arrived on the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame. `Ok(None)` means more bytes are
    /// needed; an error means the stream is unsynchronized and the
    /// connection should answer with an error frame and close. The
    /// length-prefix checks fire as soon as the prefix itself is readable,
    /// so a lying peer is rejected without waiting for its body.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let Some(&len4) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let body_len = u32::from_le_bytes(len4) as usize;
        if body_len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                declared: body_len,
                max: MAX_FRAME_LEN,
            });
        }
        if body_len < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                have: body_len,
            });
        }
        let Some(body) = self.buf.get(4..4 + body_len) else {
            return Ok(None);
        };
        let frame = decode_frame(body)?;
        self.buf.drain(..4 + body_len);
        Ok(Some(frame))
    }

    /// Reports the close of the underlying stream: a clean close between
    /// frames is `Closed`; a close mid-frame is a truncation.
    pub fn close(&self) -> WireError {
        if self.buf.is_empty() {
            WireError::Closed
        } else {
            WireError::Truncated {
                needed: 4 + HEADER_LEN,
                have: self.buf.len(),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::request(
            "tenant-a",
            "world-1",
            42,
            "{\"TopShared\":{\"k\":4}}".into(),
        )
    }

    #[test]
    fn frames_round_trip() {
        let frame = sample();
        let bytes = encode_frame(&frame).unwrap();
        let mut reader = FrameReader::new();
        // Feed byte-by-byte: the reader reassembles across arbitrary
        // splits, as non-blocking reads deliver them.
        for b in &bytes {
            reader.feed(&[*b]);
        }
        let back = reader.next_frame().unwrap().unwrap();
        assert_eq!(back, frame);
        assert_eq!(reader.buffered(), 0);
        assert!(reader.next_frame().unwrap().is_none());
    }

    #[test]
    fn two_frames_in_one_feed_pop_in_order() {
        let a = sample();
        let mut b = sample();
        b.request_id = 43;
        let mut bytes = encode_frame(&a).unwrap();
        bytes.extend_from_slice(&encode_frame(&b).unwrap());
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        assert_eq!(reader.next_frame().unwrap().unwrap().request_id, 42);
        assert_eq!(reader.next_frame().unwrap().unwrap().request_id, 43);
    }

    #[test]
    fn every_corruption_mode_is_typed() {
        let good = encode_frame(&sample()).unwrap();

        // Truncated declared length: a prefix that cannot hold a header.
        let mut r = FrameReader::new();
        r.feed(&3u32.to_le_bytes());
        assert!(matches!(
            r.next_frame(),
            Err(WireError::Truncated {
                needed: HEADER_LEN,
                ..
            })
        ));

        // Oversized declared length: rejected from the prefix alone.
        let mut r = FrameReader::new();
        r.feed(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(r.next_frame(), Err(WireError::Oversized { .. })));

        // Bad magic.
        let mut bad = good.clone();
        bad[4] = b'X';
        let mut r = FrameReader::new();
        r.feed(&bad);
        assert!(matches!(r.next_frame(), Err(WireError::BadMagic)));

        // Unknown version.
        let mut bad = good.clone();
        bad[8] = 9;
        let mut r = FrameReader::new();
        r.feed(&bad);
        assert!(matches!(
            r.next_frame(),
            Err(WireError::UnknownVersion { found: 9 })
        ));

        // Bad kind tag.
        let mut bad = good.clone();
        bad[10] = 7;
        let mut r = FrameReader::new();
        r.feed(&bad);
        assert!(matches!(
            r.next_frame(),
            Err(WireError::BadKind { found: 7 })
        ));

        // Checksum mismatch: flip a payload byte.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let mut r = FrameReader::new();
        r.feed(&bad);
        assert!(matches!(r.next_frame(), Err(WireError::ChecksumMismatch)));

        // Declared field lengths inconsistent with the body.
        let mut bad = good.clone();
        bad[11] = bad[11].wrapping_add(1); // tenant_len
        let mut r = FrameReader::new();
        r.feed(&bad);
        assert!(matches!(
            r.next_frame(),
            Err(WireError::LengthMismatch { .. })
        ));

        // A mid-frame close is a truncation, a clean close is Closed.
        let mut r = FrameReader::new();
        r.feed(&good[..10]);
        assert!(matches!(r.close(), WireError::Truncated { .. }));
        assert!(matches!(FrameReader::new().close(), WireError::Closed));
    }

    #[test]
    fn error_payload_is_json_with_label() {
        let e = WireError::UnknownSnapshot { id: "nope".into() };
        let payload = e.to_error_payload();
        let v: serde_json::Value = serde_json::from_str(&payload).unwrap();
        assert_eq!(v["error"], "unknown-snapshot");
        assert!(v["detail"].as_str().unwrap().contains("nope"));
        assert!(!e.is_retryable());
        assert!(WireError::Closed.is_retryable());
    }

    #[test]
    fn oversized_ids_are_rejected_at_encode() {
        let mut frame = sample();
        frame.tenant = "t".repeat(300);
        let e = encode_frame(&frame).unwrap_err();
        assert_eq!(
            e,
            WireError::IdTooLong {
                field: "tenant",
                len: 300
            }
        );
        assert_eq!(e.label(), "id-too-long");
        let mut frame = sample();
        frame.snapshot = "s".repeat(256);
        assert_eq!(
            encode_frame(&frame),
            Err(WireError::IdTooLong {
                field: "snapshot",
                len: 256
            })
        );
        frame.snapshot = "s".repeat(255);
        assert!(encode_frame(&frame).is_ok());
    }
}
