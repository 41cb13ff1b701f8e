//! The versioned, checksummed snapshot container (DESIGN.md §9.1).
//!
//! A [`StudySnapshot`] freezes everything the query engine needs — the
//! constructed physical map, the §4 risk artifacts, the traceroute
//! overlay, and the precomputed path index — into one artifact that loads
//! in milliseconds, where the full pipeline rebuild takes seconds.
//!
//! On disk the snapshot is a binary container:
//!
//! ```text
//! offset  size          content
//! 0       8             magic b"ITSNAP\r\n"
//! 8       8             header length H, u64 little-endian
//! 16      H             header JSON: {"schema","payload_len","checksum",
//!                       with landmarks: "landmarks_len","landmarks_checksum"}
//! 16+H    payload_len   payload: length-prefixed binary sections strings,
//!                       config, nodes, conduits, isps, risk, hamming,
//!                       overlay, paths (crate::codec)
//! …       landmarks_len landmarks: the ALT tables, when present
//! ```
//!
//! The header names the schema (`intertubes-snapshot/v4`; any other,
//! including the retired v1–v3, is [`SnapshotError::WrongSchema`]) and
//! carries a [`section_checksum`] per section, so truncation, bit rot, and
//! version skew are all detected before any payload decoding happens.
//! The ALT landmark tables ride in their own checksummed section rather
//! than inside the payload, so a corrupt section is reported as exactly
//! that ([`SnapshotError::SectionChecksumMismatch`]) instead of a payload
//! error. The encoding is deterministic and the decoder accepts one
//! spelling of each value (the header included), so whatever loads
//! re-saves to the same bytes.

use std::path::Path;

use intertubes_graph::Landmarks;
use intertubes_map::FiberMap;
use intertubes_probes::Overlay;
use intertubes_risk::{HammingHeatmap, RiskMatrix};

use crate::codec;
use crate::index::PathIndex;

/// The schema identifier every container is written and read under: the
/// payload, plus a checksummed landmarks section when the snapshot carries
/// landmark tables.
pub const SNAPSHOT_SCHEMA: &str = "intertubes-snapshot/v4";

/// The 8-byte container magic. The embedded `\r\n` catches newline-mangling
/// transports, like PNG's signature does.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ITSNAP\r\n";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash — the digests, the cache's entry checksums and shard
/// selector, and the wire frames' checksum. Stable across platforms and
/// dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash = fnv_step(hash, b as u64);
    }
    hash
}

/// The container's section checksum (DESIGN.md §9.1): FNV-1a 64 over the
/// section's little-endian `u64` words, then over its last `len % 8`
/// bytes one at a time, folding the high half of the running hash into
/// the low half after every multiply. Each step maps the running hash
/// one-to-one, so a change confined to one word or one tail byte — every
/// single-bit flip — changes the checksum. The fold carries a difference
/// in the top bit down into the next multiply, so a second flip of a
/// later word's top bit does not cancel a first, as it would after a
/// bare multiply.
pub fn section_checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let hash = (words.iter()).fold(FNV_OFFSET, |hash, w| {
        section_step(hash, u64::from_le_bytes(*w))
    });
    tail.iter()
        .fold(hash, |hash, &b| section_step(hash, b as u64))
}

fn fnv_step(hash: u64, v: u64) -> u64 {
    (hash ^ v).wrapping_mul(FNV_PRIME)
}

fn section_step(hash: u64, v: u64) -> u64 {
    let hash = fnv_step(hash, v);
    hash ^ (hash >> 32)
}

/// Everything that can go wrong loading or saving a snapshot. Each variant
/// names the layer that failed, mirroring the per-crate error enums of the
/// workspace taxonomy; `intertubes::IntertubesError::Snapshot` wraps this
/// for the CLI's data-error exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem read/write failure.
    Io(String),
    /// The file ends before the declared structure does.
    Truncated {
        /// Bytes the structure requires.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first 8 bytes are not the snapshot magic.
    BadMagic,
    /// The header is not the expected JSON object.
    BadHeader(String),
    /// The header's schema does not match [`SNAPSHOT_SCHEMA`].
    WrongSchema {
        /// The schema string found in the header.
        found: String,
    },
    /// The payload checksum does not match the header's.
    ChecksumMismatch {
        /// Checksum the header declares (hex).
        expected: String,
        /// Checksum of the payload as read (hex).
        found: String,
    },
    /// The payload passed the checksum but failed to parse or serialize.
    Payload(String),
    /// A named section's checksum does not match the header's.
    SectionChecksumMismatch {
        /// Which section failed (e.g. `"landmarks"`).
        section: &'static str,
        /// Checksum the header declares (hex).
        expected: String,
        /// Checksum of the section as read (hex).
        found: String,
    },
    /// A named section passed its checksum but failed to parse.
    BadSection {
        /// Which section failed (e.g. `"landmarks"`).
        section: &'static str,
        /// The parse error.
        error: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadHeader(e) => write!(f, "snapshot header malformed: {e}"),
            SnapshotError::WrongSchema { found } => write!(
                f,
                "snapshot schema {found:?} is not supported (expected {SNAPSHOT_SCHEMA:?})"
            ),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot payload corrupt: checksum {found} != declared {expected}"
            ),
            SnapshotError::Payload(e) => write!(f, "snapshot payload malformed: {e}"),
            SnapshotError::SectionChecksumMismatch {
                section,
                expected,
                found,
            } => write!(
                f,
                "snapshot {section} section corrupt: checksum {found} != declared {expected}"
            ),
            SnapshotError::BadSection { section, error } => {
                write!(f, "snapshot {section} section malformed: {error}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    /// Classifies the failure for the retry machinery (DESIGN.md §11):
    /// I/O errors are transient (an open/read may succeed on retry);
    /// everything structural — truncation, bad magic, checksum or schema
    /// mismatches, parse failures — is fatal for the file that produced
    /// it, and the loader moves on to a salvage candidate instead of
    /// retrying.
    pub fn class(&self) -> crate::chaos::FaultClass {
        match self {
            SnapshotError::Io(_) => crate::chaos::FaultClass::Transient,
            _ => crate::chaos::FaultClass::Fatal,
        }
    }
}

/// Byte extents of a container's sections, used by the chaos layer to aim
/// bit-flips at a named section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionBounds {
    /// The header JSON: `[start, end)`.
    pub header: (usize, usize),
    /// The binary payload sections: `[start, end)`.
    pub payload: (usize, usize),
    /// The landmarks section, when the header declares one.
    pub landmarks: Option<(usize, usize)>,
}

/// Best-effort section extents of `bytes`, without validating checksums.
/// Extents are clamped to the buffer, so they are always safe to index;
/// returns `None` when the container is too mangled to even locate its
/// header.
pub fn section_bounds(bytes: &[u8]) -> Option<SectionBounds> {
    if bytes.len() < 16 || &bytes[..8] != SNAPSHOT_MAGIC {
        return None;
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&bytes[8..16]);
    let header_len = u64::from_le_bytes(len8) as usize;
    let header_end = 16usize.saturating_add(header_len).min(bytes.len());
    let header_text = std::str::from_utf8(&bytes[16..header_end]).ok()?;
    let header: serde_json::Value = serde_json::from_str(header_text).ok()?;
    let payload_len = header.get("payload_len").and_then(|v| v.as_u64())? as usize;
    let payload_end = header_end.saturating_add(payload_len).min(bytes.len());
    let landmarks = header
        .get("landmarks_len")
        .and_then(|v| v.as_u64())
        .map(|len| {
            (
                payload_end,
                payload_end.saturating_add(len as usize).min(bytes.len()),
            )
        })
        .filter(|(start, end)| end > start);
    Some(SectionBounds {
        header: (16, header_end),
        payload: (header_end, payload_end),
        landmarks,
    })
}

/// A frozen study: everything the serving layer answers queries from.
///
/// The configuration rides along as an opaque JSON value (not a typed
/// `StudyConfig` — that would invert the crate dependency), so `query
/// config` can echo the provenance of a snapshot without this crate
/// knowing the config's shape.
#[derive(Debug, Clone)]
pub struct StudySnapshot {
    /// The study configuration that produced this snapshot, as JSON.
    pub config: serde_json::Value,
    /// The constructed physical map (§2–3).
    pub map: FiberMap,
    /// The tracked provider roster, in roster order.
    pub isps: Vec<String>,
    /// The §4.1 risk matrix over `map` × `isps`.
    pub risk: RiskMatrix,
    /// The §4.2 Hamming similarity heat map.
    pub hamming: HammingHeatmap,
    /// The §4.3 traceroute overlay.
    pub overlay: Overlay,
    /// Precomputed k-shortest-path index (§5.3 latency queries and cut
    /// what-ifs).
    pub paths: PathIndex,
    /// ALT landmark tables over the conduit graph, frozen so the serving
    /// layer's live searches start pruned without a rebuild.
    ///
    /// Not part of the payload: the tables travel in their own
    /// checksummed container section. `None` when the container has no
    /// such section (the engine rebuilds them deterministically).
    pub landmarks: Option<Landmarks>,
}

impl StudySnapshot {
    /// Serializes to the container format, with a landmarks section when
    /// landmark tables are present. Deterministic: the same snapshot always
    /// yields the same bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        let payload = codec::encode_payload(self)?;
        let landmarks = self
            .landmarks
            .as_ref()
            .map(codec::encode_landmarks)
            .transpose()?;
        let lm_sum = landmarks
            .as_ref()
            .map(|lm| (lm.len(), format!("{:016x}", section_checksum(lm))));
        let header = header_text(
            payload.len(),
            &format!("{:016x}", section_checksum(&payload)),
            lm_sum.as_ref().map(|(len, sum)| (*len, sum.as_str())),
        );
        let lm_len = landmarks.as_ref().map_or(0, Vec::len);
        let mut out = Vec::with_capacity(16 + header.len() + payload.len() + lm_len);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&(header.len() as u64).to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(&payload);
        if let Some(section) = landmarks {
            out.extend_from_slice(&section);
        }
        Ok(out)
    }

    /// Parses a container, validating magic, header, schema, and checksum
    /// before touching the payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<StudySnapshot, SnapshotError> {
        if bytes.len() < 16 {
            return Err(SnapshotError::Truncated {
                needed: 16,
                have: bytes.len(),
            });
        }
        if &bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&bytes[8..16]);
        let header_len = u64::from_le_bytes(len8) as usize;
        let header_end = 16usize.saturating_add(header_len);
        if bytes.len() < header_end {
            return Err(SnapshotError::Truncated {
                needed: header_end,
                have: bytes.len(),
            });
        }
        let header_raw = std::str::from_utf8(&bytes[16..header_end])
            .map_err(|e| SnapshotError::BadHeader(e.to_string()))?;
        let header: serde_json::Value = serde_json::from_str(header_raw)
            .map_err(|e| SnapshotError::BadHeader(e.to_string()))?;
        let schema = header
            .get("schema")
            .and_then(|v| v.as_str())
            .ok_or_else(|| SnapshotError::BadHeader("missing \"schema\"".into()))?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(SnapshotError::WrongSchema {
                found: schema.to_string(),
            });
        }
        let field = |key: &str| {
            header
                .get(key)
                .ok_or_else(|| SnapshotError::BadHeader(format!("missing \"{key}\"")))
        };
        let len = |key: &str| {
            field(key)?
                .as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| SnapshotError::BadHeader(format!("\"{key}\" is not a length")))
        };
        let sum = |key: &str| {
            field(key)?
                .as_str()
                .ok_or_else(|| SnapshotError::BadHeader(format!("\"{key}\" is not a string")))
        };
        let payload_len = len("payload_len")?;
        let expected = sum("checksum")?;
        let landmarks = match header.get("landmarks_len") {
            Some(_) => Some((len("landmarks_len")?, sum("landmarks_checksum")?)),
            None => None,
        };
        if header_text(payload_len, expected, landmarks) != header_raw {
            return Err(SnapshotError::BadHeader(
                "header is not in canonical form".into(),
            ));
        }
        let payload = section(bytes, header_end, payload_len)?;
        let payload_end = header_end + payload_len;
        let found = format!("{:016x}", section_checksum(payload));
        if found != expected {
            return Err(SnapshotError::ChecksumMismatch {
                expected: expected.to_string(),
                found,
            });
        }
        let mut snap = codec::decode_payload(payload)?;
        let mut end = payload_end;
        if let Some((section_len, expected)) = landmarks {
            let section = section(bytes, payload_end, section_len)?;
            end += section_len;
            let found = format!("{:016x}", section_checksum(section));
            if found != expected {
                return Err(SnapshotError::SectionChecksumMismatch {
                    section: "landmarks",
                    expected: expected.to_string(),
                    found,
                });
            }
            snap.landmarks = Some(codec::decode_landmarks(section, snap.map.nodes.len())?);
        }
        if bytes.len() > end {
            return Err(SnapshotError::BadHeader(format!(
                "{} bytes follow the sections the header declares",
                bytes.len() - end
            )));
        }
        Ok(snap)
    }

    /// Writes the container to `path` **crash-safely**: the bytes go to
    /// `<path>.tmp` first, are fsynced and verified by re-read, the
    /// previous file (if any) is preserved as `<path>.bak`, and only then
    /// does an atomic rename publish the new file. A crash at any point
    /// leaves a loadable snapshot on disk (old or new, never torn) — see
    /// [`crate::chaos::save_with`] for the full protocol and the
    /// fault-injected variant.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        crate::chaos::save_with(
            &crate::chaos::RealIo,
            self,
            path.as_ref(),
            &crate::chaos::RetryPolicy::lenient(),
        )
        .map(|_| ())
        .map_err(|e| e.into_snapshot_error())
    }

    /// Reads a container from `path`, salvaging `<path>.tmp` (a completed
    /// but unpublished save) or `<path>.bak` (the previous good snapshot)
    /// when the primary file is corrupt or missing — see
    /// [`crate::chaos::load_with`].
    pub fn load(path: impl AsRef<Path>) -> Result<StudySnapshot, SnapshotError> {
        crate::chaos::load_with(
            &crate::chaos::RealIo,
            path.as_ref(),
            &crate::chaos::RetryPolicy::lenient(),
        )
        .map(|report| report.snapshot)
        .map_err(|e| e.into_snapshot_error())
    }
}

/// The header JSON for the given section lengths and hex checksums. The
/// key order is fixed by these lines, not by a map implementation, and a
/// header that differs from this text is rejected.
fn header_text(payload_len: usize, checksum: &str, landmarks: Option<(usize, &str)>) -> String {
    let mut header = format!(
        "{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"payload_len\":{payload_len},\"checksum\":\"{checksum}\""
    );
    if let Some((len, sum)) = landmarks {
        header += &format!(",\"landmarks_len\":{len},\"landmarks_checksum\":\"{sum}\"");
    }
    header.push('}');
    header
}

/// The `len` bytes of `bytes` from `start`, or how far they fall short.
fn section(bytes: &[u8], start: usize, len: usize) -> Result<&[u8], SnapshotError> {
    let end = start.saturating_add(len);
    bytes.get(start..end).ok_or(SnapshotError::Truncated {
        needed: end,
        have: bytes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn section_checksum_steps_over_words_then_tail_bytes() {
        let step = |h: u64, v: u64| {
            let h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
            h ^ (h >> 32)
        };
        assert_eq!(section_checksum(b""), 0xcbf2_9ce4_8422_2325);
        let word = 0x0807_0605_0403_0201u64;
        let one_word = step(0xcbf2_9ce4_8422_2325, word);
        assert_eq!(section_checksum(&word.to_le_bytes()), one_word);
        let tail = step(step(one_word, 9), 10);
        assert_eq!(section_checksum(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), tail);
        // Under eight bytes there is no word: every byte is a tail step.
        assert_eq!(
            section_checksum(b"ab"),
            step(step(0xcbf2_9ce4_8422_2325, 97), 98)
        );
    }

    /// `len` pseudo-random bytes.
    fn random_payload(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| (crate::splitmix64(&mut state) >> 56) as u8)
            .collect()
    }

    /// Flips each of the given bits, checksums, and flips them back.
    fn flipped_checksum(payload: &mut [u8], bits: &[usize]) -> u64 {
        let flip = |payload: &mut [u8]| {
            for &bit in bits {
                payload[bit / 8] ^= 1 << (bit % 8);
            }
        };
        flip(payload);
        let checksum = section_checksum(payload);
        flip(payload);
        checksum
    }

    #[test]
    fn every_single_bit_flip_changes_the_section_checksum() {
        // 3 KiB plus a 5-byte tail: every word lane and every tail byte.
        let mut payload = random_payload(3 * 1024 + 5, 0x1504);
        assert_ne!(payload.len() % 8, 0);
        let sealed = section_checksum(&payload);
        for bit in 0..payload.len() * 8 {
            assert_ne!(
                flipped_checksum(&mut payload, &[bit]),
                sealed,
                "flip of bit {bit}"
            );
        }
        assert_eq!(section_checksum(&payload), sealed);
    }

    #[test]
    fn every_two_bit_flip_of_a_short_payload_changes_the_section_checksum() {
        // Eight words and a 3-byte tail: every pair of bits, within a word,
        // across words, and into the tail.
        let mut payload = random_payload(67, 0x2015);
        let sealed = section_checksum(&payload);
        let bits = payload.len() * 8;
        for a in 0..bits {
            for b in a + 1..bits {
                assert_ne!(
                    flipped_checksum(&mut payload, &[a, b]),
                    sealed,
                    "bits {a}, {b}"
                );
            }
        }
    }

    #[test]
    fn two_word_top_bit_flips_change_the_section_checksum() {
        // The top bit of every word (a little-endian f64's sign), paired
        // with the top bit of every other word: after a bare FNV multiply
        // each such pair would cancel. Then random pairs anywhere.
        let mut payload = random_payload(1024 + 5, 0x42);
        let sealed = section_checksum(&payload);
        let tops: Vec<usize> = (0..payload.len() / 8).map(|w| w * 64 + 63).collect();
        for (i, &a) in tops.iter().enumerate() {
            for &b in &tops[i + 1..] {
                assert_ne!(
                    flipped_checksum(&mut payload, &[a, b]),
                    sealed,
                    "bits {a}, {b}"
                );
            }
        }
        let mut state = 7u64;
        let bits = payload.len() as u64 * 8;
        for _ in 0..20_000 {
            let a = (crate::splitmix64(&mut state) % bits) as usize;
            let b = (crate::splitmix64(&mut state) % bits) as usize;
            if a != b {
                assert_ne!(
                    flipped_checksum(&mut payload, &[a, b]),
                    sealed,
                    "bits {a}, {b}"
                );
            }
        }
    }

    #[test]
    fn short_inputs_are_truncated_not_panics() {
        for n in 0..16 {
            let bytes = vec![0u8; n];
            assert!(matches!(
                StudySnapshot::from_bytes(&bytes),
                Err(SnapshotError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = vec![0u8; 32];
        bytes[..8].copy_from_slice(b"NOTSNAP!");
        assert!(matches!(
            StudySnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn huge_header_length_is_truncation_not_overflow() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            StudySnapshot::from_bytes(&bytes),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}
