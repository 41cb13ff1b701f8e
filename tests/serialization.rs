//! Serde round-trips for the public model types: a downstream user must be
//! able to persist and reload maps, reports and configs without loss.
//!
//! The snapshot-container tests additionally pin the serving layer's
//! on-disk contract (DESIGN.md §9.1): save→load→re-save is byte-identical,
//! and every corruption mode — truncation, bad magic, mangled header,
//! schema skew, payload bit rot — surfaces as a typed [`SnapshotError`]
//! that maps into the PR-1 taxonomy and exits the CLI with the data-error
//! code 3, never a panic.
//!
//! [`SnapshotError`]: intertubes::serve::SnapshotError

mod common;

use intertubes::serve::{
    fnv1a64, section_bounds, section_checksum, SnapshotError, StudySnapshot, SNAPSHOT_MAGIC,
    SNAPSHOT_SCHEMA,
};
use intertubes::{IntertubesError, Study, StudyConfig};

use common::ScratchDir;

#[test]
fn study_config_round_trips() {
    let cfg = StudyConfig::default();
    let text = serde_json::to_string(&cfg).unwrap();
    let back: StudyConfig = serde_json::from_str(&text).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn fiber_map_round_trips_losslessly() {
    let s = Study::reference();
    let text = serde_json::to_string(&s.built.map).unwrap();
    let back: intertubes::map::FiberMap = serde_json::from_str(&text).unwrap();
    assert_eq!(back.nodes.len(), s.built.map.nodes.len());
    assert_eq!(back.conduits.len(), s.built.map.conduits.len());
    assert_eq!(back.link_count(), s.built.map.link_count());
    // Spot-check a conduit in depth.
    let a = &s.built.map.conduits[7];
    let b = &back.conduits[7];
    assert_eq!(a, b);
}

#[test]
fn built_map_reports_round_trip() {
    let s = Study::reference();
    let text = serde_json::to_string(&s.built.reports).unwrap();
    let back: Vec<intertubes::map::StepReport> = serde_json::from_str(&text).unwrap();
    assert_eq!(back, s.built.reports);
}

#[test]
fn risk_matrix_round_trips() {
    let s = Study::reference();
    let rm = s.risk_matrix();
    let text = serde_json::to_string(&rm).unwrap();
    let back: intertubes::risk::RiskMatrix = serde_json::from_str(&text).unwrap();
    assert_eq!(back.isps, rm.isps);
    assert_eq!(back.shared, rm.shared);
    assert_eq!(back.uses, rm.uses);
}

#[test]
fn analysis_reports_serialize() {
    let s = Study::reference();
    // Every report type a user might archive.
    let rob = s.robustness(4);
    let aug = s.augmentation();
    let lat = s.latency();
    let overlay = s.overlay(Some(2_000));
    for value in [
        serde_json::to_value(&rob).unwrap(),
        serde_json::to_value(&aug).unwrap(),
        serde_json::to_value(&lat).unwrap(),
        serde_json::to_value(&overlay).unwrap(),
    ] {
        assert!(value.is_object());
    }
    // Reports reload into their own types.
    let rob2: intertubes::mitigation::RobustnessReport =
        serde_json::from_value(serde_json::to_value(&rob).unwrap()).unwrap();
    assert_eq!(rob2.heavy_conduits, rob.heavy_conduits);
    let lat2: intertubes::mitigation::LatencyReport =
        serde_json::from_value(serde_json::to_value(&lat).unwrap()).unwrap();
    assert_eq!(lat2.pairs.len(), lat.pairs.len());
}

/// A landmark-less container with the given schema, a valid header and
/// a valid checksum over `payload` — enough structure to reach (exactly)
/// the validation stage a test wants to probe.
fn container(schema: &str, payload: &str) -> Vec<u8> {
    let header = format!(
        "{{\"schema\":\"{schema}\",\"payload_len\":{},\"checksum\":\"{:016x}\"}}",
        payload.len(),
        section_checksum(payload.as_bytes())
    );
    let mut out = SNAPSHOT_MAGIC.to_vec();
    out.extend_from_slice(&(header.len() as u64).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// A two-node, one-conduit snapshot with landmark tables — cheap enough
/// for the container tests to build real container bytes without running the full
/// pipeline.
fn tiny_snapshot() -> StudySnapshot {
    use intertubes::geo::{GeoPoint, Polyline};
    use intertubes::map::{FiberMap, MapConduit, Provenance, Tenancy, TenancySource};
    let dallas = GeoPoint::new_unchecked(32.78, -96.80);
    let houston = GeoPoint::new_unchecked(29.76, -95.37);
    let mut map = FiberMap::default();
    let a = map.ensure_node("Dallas, TX", dallas);
    let b = map.ensure_node("Houston, TX", houston);
    map.conduits.push(MapConduit {
        a,
        b,
        geometry: Polyline::straight(dallas, houston),
        tenants: vec![Tenancy {
            isp: "AT&T".into(),
            source: TenancySource::PublishedMap,
        }],
        provenance: Provenance::Step1,
        validated: true,
        row: None,
    });
    let landmarks = intertubes::serve::build_landmarks(&map);
    assert!(
        landmarks.is_some(),
        "landmark build failed on a connected map"
    );
    let paths = intertubes::serve::PathIndex::build(
        &map,
        2,
        3.0,
        &std::collections::BTreeMap::new(),
        landmarks.as_ref(),
    );
    StudySnapshot {
        config: serde_json::Value::Null,
        map,
        isps: vec!["AT&T".into()],
        risk: intertubes::risk::RiskMatrix {
            isps: vec!["AT&T".into()],
            uses: vec![vec![true]],
            shared: vec![1],
        },
        hamming: intertubes::risk::HammingHeatmap {
            isps: vec!["AT&T".into()],
            distance: vec![vec![0]],
        },
        overlay: intertubes::probes::Overlay {
            conduit_freq: vec![0],
            west_east: vec![0],
            east_west: vec![0],
            observed_isps: vec![Default::default()],
            isp_conduits: Default::default(),
            overlaid: 0,
            skipped: 0,
        },
        paths,
        landmarks,
    }
}

/// The header JSON text of a container.
fn header_text(bytes: &[u8]) -> Result<&str, std::str::Utf8Error> {
    let mut len = [0; 8];
    len.copy_from_slice(&bytes[8..16]);
    std::str::from_utf8(&bytes[16..16 + u64::from_le_bytes(len) as usize])
}

#[test]
fn snapshot_saves_loads_and_resaves_byte_identically() {
    let s = Study::reference();
    let snap = s.snapshot(Some(2_000));
    let bytes = snap.to_bytes().unwrap();
    let back = StudySnapshot::from_bytes(&bytes).unwrap();
    // The reloaded snapshot serves the same study...
    assert_eq!(back.isps, snap.isps);
    assert_eq!(back.map.conduits.len(), snap.map.conduits.len());
    assert_eq!(back.paths.pairs.len(), snap.paths.pairs.len());
    // ...and re-saving it reproduces the container bit for bit — the
    // determinism guarantee checksums and goldens rely on.
    assert_eq!(back.to_bytes().unwrap(), bytes);
}

#[test]
fn v4_container_names_the_schema_and_round_trips_landmarks() {
    let snap = tiny_snapshot();
    let bytes = snap.to_bytes().unwrap();
    let header = header_text(&bytes).expect("the header is UTF-8");
    assert!(header.contains(SNAPSHOT_SCHEMA), "header was {header}");
    assert!(header.contains("landmarks_checksum"), "header was {header}");
    let back = StudySnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(back.landmarks, snap.landmarks);
    assert_eq!(back.to_bytes().unwrap(), bytes);
    // Without tables the header drops the landmarks fields, not the schema.
    let mut snap = snap;
    snap.landmarks = None;
    let bare = snap.to_bytes().unwrap();
    let header = header_text(&bare).expect("the header is UTF-8");
    assert!(header.contains(SNAPSHOT_SCHEMA), "{header}");
    assert!(!header.contains("landmarks"), "{header}");
    let back = StudySnapshot::from_bytes(&bare).unwrap();
    assert!(back.landmarks.is_none());
    assert_eq!(back.to_bytes().unwrap(), bare);
}

#[test]
fn v1_headers_are_rejected_as_a_wrong_schema() {
    let bytes = container("intertubes-snapshot/v1", "{}");
    match StudySnapshot::from_bytes(&bytes).unwrap_err() {
        SnapshotError::WrongSchema { found } => assert_eq!(found, "intertubes-snapshot/v1"),
        other => panic!("expected WrongSchema, got {other}"),
    }
}

/// A v2 container (JSON payload) is refused by name, before its payload
/// is read: there is no v2 reader beside v4.
#[test]
fn v2_containers_are_rejected_as_a_wrong_schema() {
    let bytes = container("intertubes-snapshot/v2", r#"{"config":null}"#);
    match StudySnapshot::from_bytes(&bytes).unwrap_err() {
        SnapshotError::WrongSchema { found } => assert_eq!(found, "intertubes-snapshot/v2"),
        other => panic!("expected WrongSchema, got {other}"),
    }
}

/// The sections a v3 encoder wrote — the same bytes as v4's — under a
/// v3 header sealed with byte-serial FNV-1a are refused by name, before
/// any checksum is compared: there is no v3 reader beside v4.
#[test]
fn v3_containers_are_rejected_as_a_wrong_schema() {
    let v4 = tiny_snapshot().to_bytes().unwrap();
    let bounds = section_bounds(&v4).expect("a fresh container must locate its sections");
    let payload = &v4[bounds.payload.0..bounds.payload.1];
    let (lm_start, lm_end) = bounds.landmarks.expect("tiny_snapshot carries landmarks");
    let landmarks = &v4[lm_start..lm_end];
    let header = format!(
        "{{\"schema\":\"intertubes-snapshot/v3\",\"payload_len\":{},\"checksum\":\"{:016x}\",\
         \"landmarks_len\":{},\"landmarks_checksum\":\"{:016x}\"}}",
        payload.len(),
        fnv1a64(payload),
        landmarks.len(),
        fnv1a64(landmarks)
    );
    let mut v3 = SNAPSHOT_MAGIC.to_vec();
    v3.extend_from_slice(&(header.len() as u64).to_le_bytes());
    v3.extend_from_slice(header.as_bytes());
    v3.extend_from_slice(payload);
    v3.extend_from_slice(landmarks);
    match StudySnapshot::from_bytes(&v3).unwrap_err() {
        SnapshotError::WrongSchema { found } => assert_eq!(found, "intertubes-snapshot/v3"),
        other => panic!("expected WrongSchema, got {other}"),
    }
}

#[test]
fn corrupt_landmarks_section_is_a_section_checksum_mismatch() {
    let mut bytes = tiny_snapshot().to_bytes().unwrap();
    let last = bytes.len() - 1; // the landmarks section is the tail
    bytes[last] ^= 0x20;
    match StudySnapshot::from_bytes(&bytes).unwrap_err() {
        SnapshotError::SectionChecksumMismatch { section, .. } => {
            assert_eq!(section, "landmarks");
        }
        other => panic!("expected SectionChecksumMismatch, got {other}"),
    }
}

#[test]
fn truncated_landmarks_section_reports_missing_bytes() {
    let bytes = tiny_snapshot().to_bytes().unwrap();
    let cut = &bytes[..bytes.len() - 1];
    match StudySnapshot::from_bytes(cut).unwrap_err() {
        SnapshotError::Truncated { needed, have } => {
            assert_eq!(needed, bytes.len());
            assert_eq!(have, bytes.len() - 1);
        }
        other => panic!("expected Truncated, got {other}"),
    }
}

#[test]
fn corrupted_payload_is_a_checksum_mismatch_not_a_panic() {
    let bytes = container(SNAPSHOT_SCHEMA, "{}");
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x20; // flip one payload bit
    let err = StudySnapshot::from_bytes(&corrupt).unwrap_err();
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch { .. }),
        "{err}"
    );
}

#[test]
fn corrupted_header_is_a_bad_header_error() {
    let mut bytes = container(SNAPSHOT_SCHEMA, "{}");
    bytes[17] = b'!'; // mangle the header JSON just past the opening brace
    let err = StudySnapshot::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::BadHeader(_)), "{err}");
}

#[test]
fn wrong_schema_version_is_rejected_by_name() {
    let bytes = container("intertubes-snapshot/v9", "{}");
    match StudySnapshot::from_bytes(&bytes).unwrap_err() {
        SnapshotError::WrongSchema { found } => {
            assert_eq!(found, "intertubes-snapshot/v9");
        }
        other => panic!("expected WrongSchema, got {other}"),
    }
}

/// Truncation at *every* structural boundary of a container — inside
/// the magic/length prefix, at the header end, mid-payload, at the
/// payload end (landmarks missing entirely), mid-landmarks, and one byte
/// short — is always the typed `Truncated` error, never a panic.
#[test]
fn truncation_at_every_section_boundary_is_typed_never_a_panic() {
    let bytes = tiny_snapshot().to_bytes().unwrap();
    let bounds = section_bounds(&bytes).expect("a fresh container must locate its sections");
    let (_, header_end) = bounds.header;
    let (payload_start, payload_end) = bounds.payload;
    let (lm_start, lm_end) = bounds.landmarks.expect("tiny_snapshot carries landmarks");
    assert_eq!(lm_end, bytes.len(), "landmarks are the container tail");
    let cuts = [
        0,
        7,                                 // inside the magic
        8,                                 // magic only
        15,                                // inside the header-length word
        16,                                // prefix only, no header
        (16 + header_end) / 2,             // mid-header
        header_end,                        // header only, no payload
        (payload_start + payload_end) / 2, // mid-payload
        payload_end,                       // payload only, no landmarks
        (lm_start + lm_end) / 2,           // mid-landmarks
        bytes.len() - 1,                   // one byte short
    ];
    for cut in cuts {
        match StudySnapshot::from_bytes(&bytes[..cut]) {
            Err(SnapshotError::Truncated { needed, have }) => {
                assert_eq!(have, cut, "cut at {cut}: wrong `have`");
                assert!(
                    needed > cut,
                    "cut at {cut}: needed {needed} not past the cut"
                );
            }
            Err(other) => panic!("cut at {cut}: expected Truncated, got {other}"),
            Ok(_) => panic!("cut at {cut}: a truncated container must not load"),
        }
    }
}

#[test]
fn truncated_container_reports_how_much_is_missing() {
    let bytes = container(SNAPSHOT_SCHEMA, "{}");
    let cut = &bytes[..bytes.len() - 1];
    match StudySnapshot::from_bytes(cut).unwrap_err() {
        SnapshotError::Truncated { needed, have } => {
            assert_eq!(needed, bytes.len());
            assert_eq!(have, bytes.len() - 1);
        }
        other => panic!("expected Truncated, got {other}"),
    }
}

#[test]
fn snapshot_errors_join_the_workspace_taxonomy() {
    let err: IntertubesError = SnapshotError::BadMagic.into();
    assert!(matches!(err, IntertubesError::Snapshot(_)));
    assert!(err.to_string().starts_with("snapshot:"));
    // The layered source chain survives the wrapping.
    let source = std::error::Error::source(&err).expect("snapshot errors carry a source");
    assert_eq!(source.to_string(), SnapshotError::BadMagic.to_string());
}

/// Corrupt snapshots reaching the CLI exit with the data-error code 3 and
/// a diagnostic — never a panic (PR-1 contract).
#[test]
fn cli_rejects_bad_snapshots_with_exit_3() {
    let dir = ScratchDir::new("serialization-cli");
    let good = tiny_snapshot().to_bytes().unwrap();
    let mut corrupt = good.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x20; // flip a bit inside the landmarks section
    let bounds = section_bounds(&good).unwrap();
    let cases = [
        ("notsnap.bin", b"this is not a snapshot".to_vec()),
        (
            "wrong_schema.snap",
            container("intertubes-snapshot/v9", "{}"),
        ),
        (
            "v2_schema.snap",
            container("intertubes-snapshot/v2", r#"{"config":null}"#),
        ),
        (
            "truncated.snap",
            container(SNAPSHOT_SCHEMA, "{}")[..12].to_vec(),
        ),
        ("corrupt_landmarks.snap", corrupt),
        ("truncated_landmarks.snap", good[..good.len() - 1].to_vec()),
        // Truncation at each structural boundary.
        ("cut_at_header_end.snap", good[..bounds.header.1].to_vec()),
        ("cut_at_payload_end.snap", good[..bounds.payload.1].to_vec()),
    ];
    for (name, bytes) in cases {
        let path = dir.join(name);
        std::fs::write(&path, &bytes).unwrap();
        for sub in ["serve", "query"] {
            let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_intertubes"));
            cmd.arg(sub).arg("--snapshot").arg(&path);
            if sub == "query" {
                cmd.arg("{\"TopShared\":{\"k\":1}}");
            }
            let out = cmd.output().unwrap();
            assert_eq!(
                out.status.code(),
                Some(3),
                "{sub} on {name}: wrong exit code"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("snapshot"),
                "{sub} on {name}: stderr was {stderr:?}"
            );
            assert!(
                !stderr.contains("panicked"),
                "{sub} on {name} panicked: {stderr}"
            );
            if name == "v2_schema.snap" {
                assert!(stderr.contains("is not supported"), "{stderr}");
            }
        }
    }
}

#[test]
fn campaign_round_trips() {
    let s = Study::reference();
    let campaign = s.campaign(Some(500));
    let text = serde_json::to_string(&campaign).unwrap();
    let back: intertubes::probes::Campaign = serde_json::from_str(&text).unwrap();
    assert_eq!(back.traces, campaign.traces);
    assert_eq!(back.unrouted, campaign.unrouted);
}
