//! The remote serving front-end's contract (DESIGN.md §14): the framed
//! TCP transport answers byte-identically no matter how many clients
//! carry the workload, which snapshot the frames route to, whether the
//! cache is on, or what transport chaos is injected along the way — and
//! every malformed frame maps to a typed error frame, never a hang or a
//! process exit.
//!
//! This is the wire analogue of `tests/serve.rs`: the scheduler battery
//! proved local replay thread- and cache-independent; here the same
//! workload rides `intertubes-wire/v1` frames through the poll loop,
//! split over 1/2/8 concurrent connections.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use intertubes::faults::FaultPlan;
use intertubes::net::{
    encode_frame, run_clients, Frame, FrameKind, NetClient, NetReply, NetServer, RunningServer,
    SnapshotRegistry, MAX_FRAME_LEN,
};
use intertubes::serve::{
    canonicalize_stats, mixed_workload, run_batch, Query, QueryEngine, QuotaConfig, ResultCache,
    ServeConfig, ServeTelemetry, StudySnapshot,
};
use intertubes::Study;

/// The frozen reference study, built once per process (shared with the
/// same probe sizing as tests/serve.rs so the freeze dominates only once).
fn reference_snapshot() -> &'static StudySnapshot {
    static SNAP: OnceLock<StudySnapshot> = OnceLock::new();
    SNAP.get_or_init(|| Study::reference().snapshot(Some(2_000)))
}

/// A two-node, one-conduit world — the registry's cheap second snapshot,
/// mirroring the container-test idiom in tests/serialization.rs.
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

/// Spawns a front-end serving the reference snapshot as `"ref"` and the
/// tiny world as `"tiny"`.
fn spawn_two_snapshots(cache: bool, chaos: Option<&FaultPlan>) -> RunningServer {
    let cfg = ServeConfig {
        cache: intertubes::serve::CacheConfig {
            enabled: cache,
            ..intertubes::serve::CacheConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut registry = SnapshotRegistry::new();
    registry.insert("ref", QueryEngine::new(reference_snapshot().clone()), cfg);
    registry.insert("tiny", QueryEngine::new(tiny_snapshot()), cfg);
    let mut server = NetServer::new(registry);
    if let Some(plan) = chaos {
        server = server.with_chaos(plan);
    }
    server.spawn("127.0.0.1:0").unwrap()
}

const REPLAY: usize = 120;
const SEED: u64 = 7;

/// Local replay baseline with the scheduler defaults the registry uses.
fn local_baseline(snap: &StudySnapshot, queries: &[Query]) -> Vec<String> {
    let engine = QueryEngine::new(snap.clone());
    let cfg = ServeConfig::default();
    let cache = ResultCache::new(cfg.cache);
    let (responses, _) = run_batch(&engine, queries, &cfg, &cache);
    responses
}

#[test]
fn multi_client_responses_are_byte_identical_across_snapshots_and_cache_modes() {
    let ref_queries = mixed_workload(reference_snapshot(), REPLAY, SEED);
    let tiny = tiny_snapshot();
    let tiny_queries = mixed_workload(&tiny, REPLAY, SEED);
    let ref_expect = local_baseline(reference_snapshot(), &ref_queries);
    let tiny_expect = local_baseline(&tiny, &tiny_queries);

    for cache in [true, false] {
        let server = spawn_two_snapshots(cache, None);
        let addr = server.addr();
        for clients in [1usize, 2, 8] {
            let got = run_clients(addr, "tester", "ref", &ref_queries, clients).unwrap();
            assert_eq!(
                got, ref_expect,
                "ref responses diverged at {clients} clients, cache={cache}"
            );
            let got = run_clients(addr, "tester", "tiny", &tiny_queries, clients).unwrap();
            assert_eq!(
                got, tiny_expect,
                "tiny responses diverged at {clients} clients, cache={cache}"
            );
        }
        let report = server.stop().unwrap();
        assert_eq!(report.frames, (2 * 3 * REPLAY) as u64);
        assert_eq!(report.quota_rejected, 0);
        // 1+2+8 clients × two snapshots closed cleanly; the stop flag may
        // beat the last EOFs to the poll loop, so this is an upper bound
        // (`serve --listen --sessions`, which has no stop flag, pins the
        // exact count in the gate runner's `remote` arms).
        assert!(report.sessions_closed <= 22);
    }
}

#[test]
fn transport_chaos_cannot_change_a_response_byte() {
    let queries = mixed_workload(reference_snapshot(), REPLAY, SEED);
    let expect = local_baseline(reference_snapshot(), &queries);
    let plan = FaultPlan::built_in_chaos_scenarios()
        .into_iter()
        .find(|(name, _)| *name == "torn-frame")
        .map(|(_, plan)| plan)
        .unwrap();
    let server = spawn_two_snapshots(true, Some(&plan));
    let got = run_clients(server.addr(), "tester", "ref", &queries, 2).unwrap();
    assert_eq!(got, expect, "chaos must be invisible in the response bytes");
    let report = server.stop().unwrap();
    assert!(
        report.ledger.total() > 0,
        "the torn-frame scenario must actually fire over {REPLAY} frames"
    );
}

#[test]
fn hot_tenant_quota_exhaustion_cannot_reject_a_quiet_tenant() {
    let telemetry = std::sync::Arc::new(ServeTelemetry::new());
    let mut registry = SnapshotRegistry::with_telemetry(telemetry.clone());
    registry.insert("tiny", QueryEngine::new(tiny_snapshot()), ServeConfig::default());
    let server = NetServer::new(registry)
        // 5 requests per 10, per tenant — the hog will burn through this.
        .with_quota(QuotaConfig::limited(5, 5, 10))
        .spawn("127.0.0.1:0")
        .unwrap();
    let addr = server.addr();
    let query = Query::TopShared { k: 1 };

    let mut hog = NetClient::new(addr, "hog").unwrap();
    let mut quiet = NetClient::new(addr, "quiet").unwrap();
    let mut hog_rejected = 0usize;
    for i in 0..50u64 {
        // The hog floods; the quiet tenant stays within its own budget
        // (5 requests against a burst of 5).
        let reply = hog.request("tiny", i, &query).unwrap();
        if reply.payload().contains("\"Rejected\"") {
            hog_rejected += 1;
        }
        if i % 10 == 0 {
            let reply = quiet.request("tiny", 1_000 + i, &query).unwrap();
            assert!(
                matches!(reply, NetReply::Response(_)),
                "quiet tenant got a non-response: {reply:?}"
            );
            assert!(
                !reply.payload().contains("\"Rejected\""),
                "quiet tenant was rejected at hog request {i}: {}",
                reply.payload()
            );
        }
    }
    assert!(hog_rejected > 0, "the hog must saturate its bucket");
    hog.close();
    quiet.close();
    let report = server.stop().unwrap();
    assert_eq!(report.quota_rejected, hog_rejected as u64);

    // The per-tenant aggregates in the canonical count plane agree.
    let stats = canonicalize_stats(&telemetry.stats_document(None));
    let tenants = &stats["counts"]["tenants"];
    assert_eq!(
        tenants["quiet"]["quota_rejected"].as_u64(),
        Some(0),
        "a hot tenant's flood must never consume another tenant's quota"
    );
    assert_eq!(tenants["hog"]["quota_rejected"].as_u64(), Some(hog_rejected as u64));
    assert_eq!(tenants["quiet"]["submitted"].as_u64(), Some(5));
}

/// Sends raw bytes and reads whatever single frame (if any) comes back
/// before the peer closes or the deadline passes.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<Frame> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let mut reader = intertubes::net::FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => {
                reader.feed(&buf[..n]);
                if let Ok(Some(frame)) = reader.next_frame() {
                    return Some(frame);
                }
            }
        }
    }
}

/// The error label of a frame's `{"error": ..., "detail": ...}` payload.
fn error_label(frame: &Frame) -> String {
    assert_eq!(frame.kind, FrameKind::Error, "payload: {}", frame.payload);
    let v: serde_json::Value = serde_json::from_str(&frame.payload).unwrap();
    v["error"].as_str().unwrap_or_default().to_string()
}

#[test]
fn malformed_frames_answer_with_typed_error_frames_and_the_server_survives() {
    let server = spawn_two_snapshots(true, None);
    let addr = server.addr();
    let query = serde_json::to_string(&Query::TopShared { k: 1 }).unwrap();
    let good = encode_frame(&Frame::request("tester", "tiny", 9, query.clone())).unwrap();

    // Oversized declared length: rejected from the prefix alone, before
    // any body byte arrives.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
    oversized.extend_from_slice(&good[4..]);
    let reply = raw_exchange(addr, &oversized).expect("an error frame");
    assert_eq!(error_label(&reply), "oversized");

    // Bad magic (body byte 0 = buffer byte 4).
    let mut bad_magic = good.clone();
    bad_magic[4] ^= 0xFF;
    let reply = raw_exchange(addr, &bad_magic).expect("an error frame");
    assert_eq!(error_label(&reply), "bad-magic");

    // Unknown protocol version.
    let mut bad_version = good.clone();
    bad_version[8] = 0x7F;
    let reply = raw_exchange(addr, &bad_version).expect("an error frame");
    assert_eq!(error_label(&reply), "unknown-version");

    // Payload corruption: the FNV-1a checksum catches the flip (the byte
    // stays ASCII, so UTF-8 validation passes and checksum is the stage
    // that fires).
    let mut bit_rot = good.clone();
    let last = bit_rot.len() - 1;
    bit_rot[last] ^= 0x01;
    let reply = raw_exchange(addr, &bit_rot).expect("an error frame");
    assert_eq!(error_label(&reply), "checksum-mismatch");

    // Well-formed frame for a snapshot nobody serves.
    let unrouted = encode_frame(&Frame::request("tester", "nope", 3, query.clone())).unwrap();
    let reply = raw_exchange(addr, &unrouted).expect("an error frame");
    assert_eq!(error_label(&reply), "unknown-snapshot");
    assert_eq!(reply.request_id, 3, "error frames echo the request id");

    // A stalled half-frame must not wedge the loop: with the truncated
    // length prefix still pending on one connection, a healthy client on
    // another connection gets its answer.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(&good[..2]).unwrap();
    let reply = raw_exchange(addr, &good).expect("a response frame");
    assert_eq!(reply.kind, FrameKind::Response);
    assert_eq!(reply.request_id, 9);
    assert!(reply.payload.contains("TopShared"), "payload: {}", reply.payload);
    drop(stalled);

    let report = server.stop().unwrap();
    assert_eq!(report.errors, 5, "five corruption modes, five error frames");
    assert_eq!(report.responses, 1, "one healthy request answered");
}
