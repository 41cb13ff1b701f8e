//! Mutation battery for the snapshot container (DESIGN.md §9.1).
//!
//! Each case starts from a valid `intertubes-snapshot/v4` container and
//! applies one mutation: a bit flip, a deleted range, a splice between
//! sections, or a false element count. Mutations inside the payload or
//! the landmarks section re-seal that section's length and checksum in
//! the header, so the section decoder itself runs, not only the checksum.
//! Every case must either fail with a typed [`SnapshotError`] or decode to
//! a snapshot that re-encodes to exactly the mutated bytes and that a
//! [`QueryEngine`] can load and answer from without panicking.
//!
//! The cross-reference checks at load (endpoints, conduit ids, string
//! ids, per-conduit columns, polyline length, landmark table size) each
//! get a case of their own below the battery.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use intertubes::geo::{GeoPoint, Polyline};
use intertubes::map::{FiberMap, MapConduit, MapNodeId, Provenance, Tenancy, TenancySource};
use intertubes::serve::{
    build_landmarks, section_bounds, section_checksum, PathIndex, Query, QueryEngine, Response,
    SnapshotError, StudySnapshot, SNAPSHOT_MAGIC, SNAPSHOT_SCHEMA,
};
use intertubes::Study;
use proptest::prelude::*;

/// The payload's sections, in container order.
const SECTIONS: [&str; 9] = [
    "strings", "config", "nodes", "conduits", "isps", "risk", "hamming", "overlay", "paths",
];

/// A five-city, six-conduit study with two providers, right-of-way hints,
/// an overlay and landmark tables: small enough that mutations often land
/// on structure rather than on geometry.
fn small_snapshot() -> StudySnapshot {
    let cities = [
        ("Dallas, TX", 32.78, -96.80),
        ("Houston, TX", 29.76, -95.37),
        ("Austin, TX", 30.27, -97.74),
        ("San Antonio, TX", 29.42, -98.49),
        ("Waco, TX", 31.55, -97.15),
    ];
    let mut map = FiberMap::default();
    let ids: Vec<MapNodeId> = cities
        .iter()
        .map(|&(label, lat, lon)| map.ensure_node(label, GeoPoint::new_unchecked(lat, lon)))
        .collect();
    let links = [(0, 1), (0, 4), (4, 2), (2, 3), (3, 1), (2, 1)];
    for (i, &(a, b)) in links.iter().enumerate() {
        let (pa, pb) = (map.nodes[a].location, map.nodes[b].location);
        let mid = GeoPoint::new_unchecked((pa.lat + pb.lat) / 2.0 + 0.1, (pa.lon + pb.lon) / 2.0);
        let mut tenants = vec![Tenancy {
            isp: "AT&T".into(),
            source: TenancySource::PublishedMap,
        }];
        if i % 2 == 0 {
            tenants.push(Tenancy {
                isp: "Level3".into(),
                source: TenancySource::Records,
            });
        }
        map.conduits.push(MapConduit {
            a: ids[a],
            b: ids[b],
            geometry: Polyline::new(vec![pa, mid, pb])
                .unwrap_or_else(|e| panic!("three points make a polyline: {e}")),
            tenants,
            provenance: if i < 4 {
                Provenance::Step1
            } else {
                Provenance::Step3
            },
            validated: i != 3,
            row: [None, Some(intertubes::records::RowHintKey::Rail)][i % 2],
        });
    }
    let isps: Vec<String> = vec!["AT&T".into(), "Level3".into()];
    let risk = intertubes::risk::RiskMatrix::build(&map, &isps);
    let hamming = intertubes::risk::hamming_heatmap(&risk);
    let mut overlay = intertubes::probes::Overlay::empty(map.conduits.len());
    overlay.conduit_freq = vec![5, 0, 2, 9, 1, 3];
    overlay.west_east = vec![3, 0, 1, 4, 1, 2];
    overlay.east_west = vec![2, 0, 1, 5, 0, 1];
    overlay.observed_isps[0].insert("AT&T".into());
    overlay.observed_isps[3].insert("Level3".into());
    overlay.isp_conduits.insert("AT&T".into(), [0, 2, 5].into());
    overlay.isp_conduits.insert("Level3".into(), [3].into());
    overlay.overlaid = 7;
    overlay.skipped = 1;
    let landmarks = build_landmarks(&map);
    let paths = PathIndex::build(&map, 3, 3.0, &BTreeMap::new(), landmarks.as_ref());
    StudySnapshot {
        config: serde_json::json!({"seed": 7, "probes": null, "label": "small"}),
        map,
        isps,
        risk,
        hamming,
        overlay,
        paths,
        landmarks,
    }
}

/// The two valid containers every case starts from.
fn fixtures() -> &'static [Vec<u8>; 2] {
    static F: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    F.get_or_init(|| {
        let reference = Study::reference().snapshot(Some(2_000));
        [small_snapshot(), reference].map(|snap| {
            snap.to_bytes()
                .unwrap_or_else(|e| panic!("a valid snapshot encodes: {e}"))
        })
    })
}

/// A container taken apart into what the header seals.
#[derive(Clone)]
struct Parts {
    payload: Vec<u8>,
    landmarks: Option<Vec<u8>>,
}

impl Parts {
    fn of(bytes: &[u8]) -> Parts {
        let Some(b) = section_bounds(bytes) else {
            panic!("not a container");
        };
        Parts {
            payload: bytes[b.payload.0..b.payload.1].to_vec(),
            landmarks: b.landmarks.map(|(s, e)| bytes[s..e].to_vec()),
        }
    }

    /// A container whose header declares these sections' true lengths
    /// and checksums, in the canonical header form.
    fn seal(&self) -> Vec<u8> {
        let mut header = format!(
            "{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"payload_len\":{},\"checksum\":\"{:016x}\"",
            self.payload.len(),
            section_checksum(&self.payload)
        );
        if let Some(lm) = &self.landmarks {
            header += &format!(
                ",\"landmarks_len\":{},\"landmarks_checksum\":\"{:016x}\"",
                lm.len(),
                section_checksum(lm)
            );
        }
        header.push('}');
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&(header.len() as u64).to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(&self.payload);
        if let Some(lm) = &self.landmarks {
            out.extend_from_slice(lm);
        }
        out
    }

    /// The extents of the payload's sections, each with its 8-byte length
    /// prefix, then the landmarks section as extent of a second buffer.
    fn extents(&self) -> Vec<(Target, usize, usize)> {
        let mut out = Vec::new();
        let mut at = 0;
        for _ in SECTIONS {
            let mut len = [0; 8];
            len.copy_from_slice(&self.payload[at..at + 8]);
            let len = u64::from_le_bytes(len) as usize;
            out.push((Target::Payload, at, at + 8 + len));
            at += 8 + len;
        }
        if let Some(lm) = &self.landmarks {
            out.push((Target::Landmarks, 0, lm.len()));
        }
        out
    }

    /// The extent of payload section `name`.
    fn extent(&self, name: &str) -> (usize, usize) {
        let Some(i) = SECTIONS.iter().position(|&s| s == name) else {
            panic!("no payload section {name:?}");
        };
        let (_, start, end) = self.extents()[i];
        (start, end)
    }

    /// The body of payload section `name`, without its length prefix.
    fn body(&self, name: &str) -> Vec<u8> {
        let (start, end) = self.extent(name);
        self.payload[start + 8..end].to_vec()
    }

    /// These parts with payload section `name` replaced by `body`.
    fn with_body(&self, name: &str, body: &[u8]) -> Parts {
        let (start, end) = self.extent(name);
        let mut out = self.clone();
        let mut section = (body.len() as u64).to_le_bytes().to_vec();
        section.extend_from_slice(body);
        out.payload.splice(start..end, section);
        out
    }

    fn buf(&mut self, t: Target) -> &mut Vec<u8> {
        match t {
            Target::Payload => &mut self.payload,
            Target::Landmarks => match &mut self.landmarks {
                Some(lm) => lm,
                None => panic!("a landmarks target needs a landmarks section"),
            },
        }
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Target {
    Payload,
    Landmarks,
}

/// One mutation, drawn from plain numbers so the stub's strategies can
/// generate it: `kind` picks the operation, `section` the payload section
/// (or the landmarks section), and `x`/`y`/`z` place and size it.
#[derive(Debug, Clone, Copy)]
struct Mutation {
    fixture: usize,
    kind: usize,
    section: usize,
    x: u64,
    y: u64,
    z: u64,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (
        (0usize..2, 0usize..6, 0usize..SECTIONS.len() + 1),
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
    )
        .prop_map(|((fixture, kind, section), x, y, z)| Mutation {
            fixture,
            kind,
            section,
            x,
            y,
            z,
        })
}

/// Applies `m` to a valid container. Returns the mutated bytes and
/// whether the header was re-sealed over them.
fn mutate(bytes: &[u8], m: Mutation) -> (Vec<u8>, bool) {
    let parts = Parts::of(bytes);
    let extents = parts.extents();
    let (target, start, end) = extents[m.section % extents.len()];
    let span = end - start;
    let at = start + (m.x % span as u64) as usize;
    let mut out = parts.clone();
    match m.kind {
        // Flip one bit.
        0 => out.buf(target)[at] ^= 1 << (m.y % 8),
        // Delete a range inside the section, up to its end.
        1 => {
            let len = 1 + (m.y % 16.min(end - at) as u64) as usize;
            out.buf(target).drain(at..at + len);
        }
        // Splice: copy a range of some section over, or into, another.
        2 | 3 => {
            let (src_t, s0, s1) = extents[(m.z as usize) % extents.len()];
            let from = s0 + (m.y % (s1 - s0) as u64) as usize;
            let len = (1 + (m.y >> 32) % 24) as usize;
            let src = parts.clone().buf(src_t).clone();
            let piece = src[from..(from + len).min(s1)].to_vec();
            let buf = out.buf(target);
            if m.kind == 2 {
                let stop = (at + piece.len()).min(end);
                buf.splice(at..stop, piece);
            } else {
                buf.splice(at..at, piece);
            }
        }
        // A false element count: one of the section's leading u32 words
        // (counts, widths, or the low half of its length prefix) gets a
        // nearby or extreme value.
        4 => {
            let word = start + 4 * (m.y % 6) as usize;
            let buf = out.buf(target);
            if word + 4 <= end {
                let mut old = [0; 4];
                old.copy_from_slice(&buf[word..word + 4]);
                let old = u32::from_le_bytes(old);
                let new = [
                    0,
                    1,
                    old.wrapping_add(1),
                    old.wrapping_sub(1),
                    u32::MAX,
                    old << 1,
                ][(m.z % 6) as usize];
                buf[word..word + 4].copy_from_slice(&new.to_le_bytes());
            }
        }
        // Unsealed: truncate the container, or flip a header bit.
        _ => {
            let mut raw = bytes.to_vec();
            if m.y % 2 == 0 {
                raw.truncate((m.x % raw.len() as u64) as usize);
            } else {
                let Some(b) = section_bounds(bytes) else {
                    panic!("not a container");
                };
                let h = b.header;
                raw[h.0 + (m.x % (h.1 - h.0) as u64) as usize] ^= 1 << (m.z % 8);
            }
            return (raw, false);
        }
    }
    (out.seal(), true)
}

/// Loads `snap` into an engine and answers one query of each cheap
/// family; a panic anywhere fails the case.
fn serve_a_few(snap: StudySnapshot) {
    let isp = snap.isps.first().cloned().unwrap_or_default();
    let labels: Vec<String> = snap
        .map
        .nodes
        .iter()
        .take(2)
        .map(|n| n.label.clone())
        .collect();
    let engine = QueryEngine::new(snap);
    let mut queries = vec![
        Query::TopShared { k: 3 },
        Query::CutImpact {
            conduits: vec![0, 1],
        },
        Query::IspRisk { isp: isp.clone() },
        Query::Similarity { isp },
    ];
    if let [a, b] = &labels[..] {
        queries.push(Query::Latency {
            a: a.clone(),
            b: b.clone(),
        });
    }
    for q in &queries {
        std::hint::black_box(engine.answer(q).to_canonical_json());
    }
}

#[test]
fn sealing_an_unmutated_container_reproduces_it() {
    for bytes in fixtures() {
        let parts = Parts::of(bytes);
        assert_eq!(&parts.seal(), bytes);
        assert_eq!(parts.extents().len(), SECTIONS.len() + 1);
        let paths_end = parts.extents()[SECTIONS.len() - 1].2;
        assert_eq!(paths_end, parts.payload.len());
    }
}

/// Mutations per proptest case: each case checks this many independent
/// mutations of the fixtures, so the default case count runs hundreds.
const MUTATIONS_PER_CASE: usize = 8;

proptest! {
    #[test]
    fn mutated_containers_fail_typed_or_round_trip_exactly(
        ms in prop::collection::vec(arb_mutation(), MUTATIONS_PER_CASE..MUTATIONS_PER_CASE + 1)
    ) {
        for m in ms {
            let (bytes, sealed) = mutate(&fixtures()[m.fixture], m);
            match StudySnapshot::from_bytes(&bytes) {
                Ok(snap) => {
                    let again = snap.to_bytes();
                    prop_assert!(again.as_ref() == Ok(&bytes), "{m:?} decoded but re-encoded differently");
                    serve_a_few(snap);
                }
                Err(e) => {
                    // A re-sealed container passes its checksums, so the
                    // error must come from the decoder itself.
                    let checksum = matches!(
                        e,
                        SnapshotError::ChecksumMismatch { .. } | SnapshotError::SectionChecksumMismatch { .. }
                    );
                    prop_assert!(!(sealed && checksum), "{m:?}: sealed mutation failed its checksum: {e}");
                }
            }
        }
    }
}

/// Encodes `snap`, expecting the load to fail in `section`.
fn rejected_in(snap: &StudySnapshot, section: &str) -> String {
    let bytes = snap
        .to_bytes()
        .unwrap_or_else(|e| panic!("the encoder writes what it is given: {e}"));
    match StudySnapshot::from_bytes(&bytes) {
        Err(SnapshotError::BadSection { section: s, error }) if s == section => error,
        Err(other) => panic!("expected a bad {section} section, got {other}"),
        Ok(_) => panic!("expected a bad {section} section, but it loaded"),
    }
}

#[test]
fn conduit_endpoints_must_name_a_node() {
    let mut snap = small_snapshot();
    snap.map.conduits[2].b = MapNodeId(snap.map.nodes.len() as u32);
    let err = rejected_in(&snap, "conduits");
    assert!(err.contains("conduit 2 endpoint 5"), "{err}");
}

#[test]
fn route_overlay_and_provider_conduit_ids_must_name_a_conduit() {
    let n = small_snapshot().map.conduits.len() as u32;
    let mut snap = small_snapshot();
    snap.paths.pairs[0].paths[0].conduits[0] = n;
    assert!(rejected_in(&snap, "paths").contains("route conduit id"));
    let mut snap = small_snapshot();
    snap.overlay
        .isp_conduits
        .get_mut("Level3")
        .unwrap()
        .insert(n);
    assert!(rejected_in(&snap, "overlay").contains("overlay conduit id"));
}

#[test]
fn risk_and_overlay_columns_must_cover_every_conduit() {
    let mut snap = small_snapshot();
    snap.risk.shared.push(0);
    snap.risk.uses.iter_mut().for_each(|row| row.push(false));
    assert!(rejected_in(&snap, "risk").contains("columns for 6 conduits"));
    let mut snap = small_snapshot();
    for col in [
        &mut snap.overlay.conduit_freq,
        &mut snap.overlay.west_east,
        &mut snap.overlay.east_west,
    ] {
        col.pop();
    }
    snap.overlay.observed_isps.pop();
    assert!(rejected_in(&snap, "overlay").contains("5 overlay columns for 6 conduits"));
}

#[test]
fn polylines_need_two_points() {
    let mut snap = small_snapshot();
    let one: Polyline = serde_json::from_str(r#"{"points":[{"lat":30.0,"lon":-97.0}]}"#).unwrap();
    snap.map.conduits[1].geometry = one;
    let err = rejected_in(&snap, "conduits");
    assert!(err.starts_with("conduit 1:"), "{err}");
}

#[test]
fn string_ids_must_fall_in_the_table() {
    let bytes = small_snapshot().to_bytes().unwrap();
    let mut parts = Parts::of(&bytes);
    let (_, isps, _) = parts.extents()[SECTIONS.iter().position(|&s| s == "isps").unwrap()];
    // Past the length prefix and the count: the first roster name id.
    parts.payload[isps + 12..isps + 16].copy_from_slice(&u32::MAX.to_le_bytes());
    match StudySnapshot::from_bytes(&parts.seal()) {
        Err(SnapshotError::BadSection { section, error }) => {
            assert_eq!(section, "isps");
            assert!(
                error.contains("string id 4294967295 is out of range"),
                "{error}"
            );
        }
        other => panic!("expected a bad isps section, got {other:?}"),
    }
}

/// Two nodes may share a label id, so a container can repeat a label: it
/// loads, and the label names the last node that carries it.
#[test]
fn a_repeated_label_names_its_last_node() {
    let mut snap = small_snapshot();
    // Waco (node 4) takes Dallas's label. Waco–Austin is a conduit,
    // Dallas–Austin is not.
    snap.map.nodes[4].label = snap.map.nodes[0].label.clone();
    let bytes = snap.to_bytes().unwrap();
    let engine = QueryEngine::new(StudySnapshot::from_bytes(&bytes).unwrap());
    let answer = engine.answer(&Query::Latency {
        a: "Dallas, TX".into(),
        b: "Austin, TX".into(),
    });
    assert!(matches!(answer, Response::Latency(_)), "{answer:?}");
}

#[test]
fn landmark_tables_must_match_their_counts_and_the_map() {
    let mut snap = small_snapshot();
    let lm = snap.landmarks.clone().unwrap();
    let ids: Vec<u32> = lm.landmark_nodes().map(|n| n.0).collect();
    let short = format!(
        r#"{{"node_count":{},"nodes":{ids:?},"dist":{:?}}}"#,
        lm.node_count(),
        &lm.distances()[1..]
    );
    snap.landmarks = Some(serde_json::from_str(&short).unwrap());
    assert!(rejected_in(&snap, "landmarks").contains("landmark table holds"));
    // A valid table over some other, four-node graph.
    let mut snap = small_snapshot();
    let other = r#"{"node_count":4,"nodes":[0],"dist":[0.0,1.0,2.0,-1.0]}"#;
    snap.landmarks = Some(serde_json::from_str(other).unwrap());
    let err = rejected_in(&snap, "landmarks");
    assert!(err.contains("tables cover 4 nodes, the map has 5"), "{err}");
}

/// The error a re-sealed container fails with, expecting `section`.
fn bad_section(parts: &Parts, section: &str) -> String {
    match StudySnapshot::from_bytes(&parts.seal()) {
        Err(SnapshotError::BadSection { section: s, error }) if s == section => error,
        other => panic!("expected a bad {section} section, got {other:?}"),
    }
}

/// Each value has one accepted spelling, so nothing that decodes can
/// re-encode differently: an unreferenced or unsorted string, a flag byte
/// other than 0 or 1, and config JSON that is not the compact form.
#[test]
fn only_the_encoders_spelling_decodes() {
    let parts = Parts::of(&small_snapshot().to_bytes().unwrap());
    let strings = |extra: &str| {
        let body = parts.body("strings");
        let n = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
        let mut out = ((n + 1) as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&body[4..4 + 4 * n]);
        out.extend_from_slice(&(extra.len() as u32).to_le_bytes());
        out.extend_from_slice(&body[4 + 4 * n..]);
        out.extend_from_slice(extra.as_bytes());
        parts.with_body("strings", &out)
    };
    assert!(bad_section(&strings("~unused"), "strings").contains("never referenced"));
    assert!(bad_section(&strings("Austin, TX"), "strings").contains("out of order"));

    let mut conduits = parts.body("conduits");
    let c = u32::from_le_bytes(conduits[..4].try_into().unwrap()) as usize;
    conduits[4 + 8 * c + c] = 2; // the first `validated` flag
    let err = bad_section(&parts.with_body("conduits", &conduits), "conduits");
    assert!(err.contains("neither 0 nor 1"), "{err}");

    let config = String::from_utf8(parts.body("config")).unwrap();
    let spaced = config.replacen(':', ": ", 1);
    let err = bad_section(&parts.with_body("config", spaced.as_bytes()), "config");
    assert!(err.contains("canonical"), "{err}");
}
