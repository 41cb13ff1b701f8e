//! `wire-mixed`: interactive queries over the TCP front-end. One
//! connection per worker thread, each a closed loop (the next request is
//! sent once the previous reply arrives), spread over two tenants, with
//! the result cache on. The queries cycle through a `mixed_workload`
//! stream, so after warm-up the cache answers and the engine idles.
//!
//! The traced run times, after each round trip, the same request's
//! layers from here: frame encode and decode (request and reply), the
//! query JSON print and parse, and a 1-query `SnapshotRegistry::serve`
//! against a replica registry. The transport is what the round trip
//! leaves over.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use intertubes::net::{
    decode_frame, encode_frame, Frame, FrameKind, NetClient, NetReply, NetServer, RunningServer,
    SnapshotRegistry,
};
use intertubes::serve::{
    fnv1a64, mixed_workload, run_batch, Query, QueryEngine, ResultCache, ServeConfig,
    ServeTelemetry, StudySnapshot,
};

use crate::common::{
    is_failure_reply, nproc, peak_rss_mb, repeated_setup, snapshot_from_child, steal_pct,
    steal_ticks, tail_detail, Clock, Phase, PhaseTimes, PROBES, SETUP_REPS,
};
use crate::stats::{median, ns_since, residual, Layers};
use crate::{Args, Outcome};

/// Untimed warm-up: connecting and the first requests, long enough at
/// today's speed for a full pass over the query stream.
const WARMUP: Duration = Duration::from_secs(2);

/// Length of the query stream; request `i` sends query `i % STREAM`. Its
/// distinct queries fit the default result cache, so after the first pass
/// every answer is a hit and the timed window measures the transport.
const STREAM: usize = 2_048;

/// The snapshot id the front-end serves.
const SNAPSHOT_ID: &str = "study";

/// The two tenants the connections alternate between.
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

fn registry(
    bytes: &[u8],
    telemetry: Arc<ServeTelemetry>,
    layers: &mut Layers,
) -> Result<SnapshotRegistry, String> {
    let t = Instant::now();
    let snap = StudySnapshot::from_bytes(bytes).map_err(|e| e.to_string())?;
    layers.add("serve.load_ns", ns_since(t));
    let t = Instant::now();
    let engine = QueryEngine::new(snap);
    layers.add("serve.engine_ns", ns_since(t));
    let mut registry = SnapshotRegistry::with_telemetry(telemetry);
    registry.insert(SNAPSHOT_ID, engine, ServeConfig::default());
    Ok(registry)
}

/// Times the request's layers outside the round trip (traced phase only).
fn trace_layers(
    tenant: &str,
    index: usize,
    query: &Query,
    reply: &str,
    replica: &SnapshotRegistry,
    layers: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    let payload = serde_json::to_string(query).map_err(|e| e.to_string())?;
    let parsed: Query = serde_json::from_str(&payload).map_err(|e| e.to_string())?;
    layers.add("serve.parse_ns", ns_since(t));

    let request = Frame::request(tenant, SNAPSHOT_ID, index as u64, payload);
    let response = request.reply(FrameKind::Response, reply.to_string());
    let mut encode = 0.0;
    let mut decode = 0.0;
    for frame in [&request, &response] {
        let t = Instant::now();
        let bytes = encode_frame(frame).map_err(|e| e.to_string())?;
        encode += ns_since(t);
        let t = Instant::now();
        let back = decode_frame(&bytes[4..]).map_err(|e| e.to_string())?;
        decode += ns_since(t);
        std::hint::black_box(back);
    }
    layers.add("net.encode_ns", encode);
    layers.add("net.decode_ns", decode);

    let t = Instant::now();
    let served = replica.serve(SNAPSHOT_ID, std::slice::from_ref(&parsed));
    layers.add("net.registry_ns", ns_since(t));
    std::hint::black_box(served);
    Ok(())
}

/// What one connection saw.
#[derive(Default)]
struct Tally {
    attempted: u64,
    timed: u64,
    failed: u64,
    /// Replies that differ from an earlier reply to the same stream slot.
    mismatches: u64,
    times: PhaseTimes,
    layers: Layers,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.timed += other.timed;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.times.merge(&other.times);
        self.layers.merge(&other.layers);
    }
}

/// One connection's closed loop. Every reply is checked against the first
/// reply to its stream slot (`slots`, shared by all connections); the slots
/// are checked against local replay after the run.
fn client_loop(
    addr: SocketAddr,
    tenant: &str,
    queries: &[Query],
    slots: &[OnceLock<u64>],
    next: &AtomicUsize,
    clock: &Clock,
    replica: Option<&SnapshotRegistry>,
) -> Result<Tally, String> {
    let mut client = NetClient::new(addr, tenant).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    loop {
        let sent = Instant::now();
        let Some(phase) = clock.phase(sent) else {
            break;
        };
        let index = next.fetch_add(1, Ordering::Relaxed);
        let query = &queries[index % queries.len()];
        let reply = client.request(SNAPSHOT_ID, index as u64, query);
        let rtt_ns = ns_since(sent);
        tally.attempted += 1;
        if phase != Phase::Warmup {
            tally.timed += 1;
        }
        let payload = match &reply {
            Ok(NetReply::Response(p)) if !is_failure_reply(p) => p,
            _ => {
                tally.failed += 1;
                continue;
            }
        };
        let digest = fnv1a64(payload.as_bytes());
        if *slots[index % slots.len()].get_or_init(|| digest) != digest {
            tally.mismatches += 1;
        }
        tally.times.push(phase, rtt_ns);
        if let (Phase::Traced, Some(replica)) = (phase, replica) {
            tally.layers.add("net.rtt_ns", rtt_ns);
            trace_layers(tenant, index, query, payload, replica, &mut tally.layers)?;
            tally.layers.end_op();
        }
    }
    client.close();
    Ok(tally)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bytes = snapshot_from_child()?;
    let queries = {
        let snap = StudySnapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
        mixed_workload(&snap, STREAM, args.seed)
    };

    // Set-up: load, build the engine, spawn the front-end.
    let mut setup_layers = Layers::default();
    let (setup_s, (server, server_telemetry)) = repeated_setup(
        || {
            let t = Arc::new(ServeTelemetry::new());
            let reg = registry(&bytes, Arc::clone(&t), &mut setup_layers)?;
            let tspawn = Instant::now();
            let server = NetServer::new(reg)
                .spawn("127.0.0.1:0")
                .map_err(|e| format!("cannot spawn the front-end: {e}"))?;
            setup_layers.add("net.spawn_ns", ns_since(tspawn));
            setup_layers.end_op();
            Ok((server, t))
        },
        |(server, _): (RunningServer, Arc<ServeTelemetry>)| {
            let _ = server.stop();
        },
    )?;
    // The replica serves the stream once before timing, so its cache holds
    // what the front-end's holds after warm-up.
    let replica = if args.trace {
        let replica = registry(
            &bytes,
            Arc::new(ServeTelemetry::new()),
            &mut Layers::default(),
        )?;
        replica.serve(SNAPSHOT_ID, &queries);
        Some(replica)
    } else {
        None
    };

    let connections = nproc();
    let addr = server.addr();
    let slots: Vec<OnceLock<u64>> = (0..queries.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let steal0 = steal_ticks();
    let start = Instant::now();
    let clock = Clock::start(WARMUP, args.seconds, args.trace);
    let results: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|j| {
                let (queries, slots, next, clock) = (&queries, &slots, &next, &clock);
                let replica = replica.as_ref();
                scope.spawn(move || {
                    let tenant = TENANTS[j % TENANTS.len()];
                    client_loop(addr, tenant, queries, slots, next, clock, replica)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let finished = Instant::now();
    let rss_mb = peak_rss_mb();
    let steal = steal_pct(steal0, finished.duration_since(start).as_secs_f64());
    let report = server
        .stop()
        .map_err(|e| format!("front-end failed: {e}"))?;
    let counts = server_telemetry.counts();
    let mut tally = Tally::default();
    for r in results {
        tally.merge(&r?);
    }

    // Output check: every reply agreed with its slot's first reply; each
    // slot must byte-equal the local replay of its query (FNV-1a digests).
    let engine = QueryEngine::new(StudySnapshot::from_bytes(&bytes).map_err(|e| e.to_string())?);
    let cfg = ServeConfig::default();
    let (local, _) = run_batch(&engine, &queries, &cfg, &ResultCache::new(cfg.cache));
    let mismatches = tally.mismatches
        + slots
            .iter()
            .zip(&local)
            .filter(|(slot, json)| slot.get().is_some_and(|&d| d != fnv1a64(json.as_bytes())))
            .count() as u64;
    let correct = mismatches == 0;

    let untraced = tally.times.us(Phase::Untraced);
    let latency_us = median(&untraced).unwrap_or(0.0);
    let layers = &tally.layers;
    let mut metrics = BTreeMap::new();
    if args.trace {
        for name in [
            "net.rtt_ns",
            "serve.parse_ns",
            "net.encode_ns",
            "net.decode_ns",
            "net.registry_ns",
        ] {
            metrics.insert(name, layers.mean(name));
        }
        metrics.insert(
            "net.transport_ns",
            residual(
                layers.mean("net.rtt_ns"),
                &[
                    layers.mean("net.encode_ns"),
                    layers.mean("net.decode_ns"),
                    layers.mean("serve.parse_ns"),
                    layers.mean("net.registry_ns"),
                ],
            ),
        );
        metrics.insert("net.frames", report.frames as f64);
        metrics.insert("net.errors", report.errors as f64);
        let lookups = counts.cache_hits + counts.cache_misses;
        metrics.insert(
            "serve.cache_hit_ratio",
            counts.cache_hits as f64 / lookups.max(1) as f64,
        );
        for name in ["serve.load_ns", "serve.engine_ns", "net.spawn_ns"] {
            metrics.insert(name, setup_layers.mean(name));
        }
        metrics.insert("serve.snapshot_bytes", bytes.len() as f64);
        let traced_us = median(&tally.times.us(Phase::Traced)).unwrap_or(0.0);
        metrics.insert("trace.overhead_pct", (traced_us / latency_us - 1.0) * 100.0);
    } else {
        metrics.insert("setup_s", setup_s);
        metrics.insert("latency_us", latency_us);
        metrics.insert("rss_mb", rss_mb);
    }
    let window = finished.duration_since(clock.warm_end).as_secs_f64();
    let detail = serde_json::json!({
        "operation": "one NetClient::request round trip",
        "loop": "closed, one caller per connection",
        "connections": connections,
        "tenants": TENANTS.len(),
        "loopback": true,
        "cache": true,
        "probes": PROBES,
        "serve.snapshot_bytes": bytes.len(),
        "setup_reps": SETUP_REPS,
        "warmup_ops": tally.attempted - tally.timed,
        "timed_ops": tally.timed,
        "ops_per_s": tally.timed as f64 / window,
        "untraced_ops": untraced.len(),
        "tail": tail_detail(&untraced),
        "mismatches": mismatches,
        "server_frames": report.frames,
        "server_errors": report.errors,
        "host_steal_pct": steal,
    });
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    })
}
