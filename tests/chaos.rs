//! The chaos determinism contract (DESIGN.md §11): for a fixed chaos
//! plan, seed, and workload, the response vector, the injection ledger,
//! and the health transition trace are **byte-identical at 1, 2, and 8
//! threads**, under both degradation policies — and no injected fault
//! ever silently drops a query or corrupts a published snapshot.
//!
//! Scheduler chaos (overload shedding, cache poisoning) is exercised
//! through [`run_batch_chaos`]; persistence chaos (torn writes, bit
//! flips, transient I/O) through [`save_with`] / [`load_with`] over a
//! [`ChaosSession`] acting as the `SnapshotIo` layer.

mod common;

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use common::{golden, ScratchDir};

use intertubes::degrade::DegradationPolicy;
use intertubes::faults::{FaultFamily, FaultPlan};
use intertubes::parallel::with_threads;
use intertubes::serve::{
    load_with, mixed_workload, run_batch, run_batch_chaos, run_batch_chaos_telemetry, save_with,
    CacheConfig, ChaosSession, Health, HealthTrace, QueryEngine, RealIo, ResultCache, RetryPolicy,
    ServeConfig, ServeTelemetry, StudySnapshot,
};
use intertubes::Study;

/// Serializes every test in this binary: `with_threads` pins the
/// process-global pool (same discipline as tests/serve.rs).
static BATTERY: Mutex<()> = Mutex::new(());

fn battery_lock() -> std::sync::MutexGuard<'static, ()> {
    BATTERY.lock().unwrap_or_else(|e| e.into_inner())
}

/// The frozen reference study, built once per process.
fn snapshot() -> &'static StudySnapshot {
    static SNAP: OnceLock<StudySnapshot> = OnceLock::new();
    SNAP.get_or_init(|| Study::reference().snapshot(Some(2_000)))
}

fn engine() -> QueryEngine {
    QueryEngine::new(snapshot().clone())
}

const REPLAY: usize = 300;
const SEED: u64 = 7;

/// A fresh per-arm serve config: small waves so every scenario sees many
/// chaos decision points.
fn serve_cfg() -> ServeConfig {
    ServeConfig {
        queue_capacity: 32,
        cache: CacheConfig {
            enabled: true,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// One chaos replay arm: fresh session, fresh cache (chaos state is
/// per-run; reuse would entangle the RNG streams across arms).
fn chaos_replay(
    plan: &FaultPlan,
    policy: DegradationPolicy,
    threads: usize,
) -> (Vec<String>, String) {
    let eng = engine();
    let queries = mixed_workload(snapshot(), REPLAY, SEED);
    let cfg = serve_cfg();
    let cache = ResultCache::new(cfg.cache);
    let session = ChaosSession::new(plan.clone(), policy);
    let (responses, _, report) = with_threads(threads, || {
        run_batch_chaos(&eng, &queries, &cfg, &cache, &session)
    });
    (responses, report.to_canonical_json())
}

/// The acceptance battery: every built-in chaos scenario × both policies
/// must produce byte-identical responses *and* chaos reports at 1, 2,
/// and 8 threads — and must never drop a query.
#[test]
fn chaos_battery_is_byte_identical_across_threads_and_policies() {
    let _guard = battery_lock();
    for (name, plan) in FaultPlan::built_in_chaos_scenarios() {
        for policy in [DegradationPolicy::Strict, DegradationPolicy::Lenient] {
            let (baseline, base_report) = chaos_replay(&plan, policy, 1);
            assert_eq!(
                baseline.len(),
                REPLAY,
                "{name}/{policy:?}: a chaos run must answer every query"
            );
            for threads in [2usize, 8] {
                let (responses, report) = chaos_replay(&plan, policy, threads);
                assert_eq!(
                    responses, baseline,
                    "{name}/{policy:?}: responses diverged at {threads} threads"
                );
                assert_eq!(
                    report, base_report,
                    "{name}/{policy:?}: chaos report diverged at {threads} threads"
                );
            }
        }
    }
}

/// Kill-during-save acceptance: with every write torn, the crash-safe
/// save exhausts its retries — and the previously published snapshot is
/// untouched and still loads.
#[test]
fn torn_writes_never_corrupt_the_published_snapshot() {
    let dir = ScratchDir::new("chaos-torn");
    let path = dir.join("torn.snap");
    let snap = snapshot();
    snap.save(&path).unwrap();
    let good_bytes = std::fs::read(&path).unwrap();

    let plan = FaultPlan::new(11).with(FaultFamily::TornSnapshotWrite, 1.0);
    let session = ChaosSession::new(plan, DegradationPolicy::Lenient);
    let err = save_with(&session, snap, &path, &RetryPolicy::lenient())
        .expect_err("every write is torn; the save must exhaust");
    assert!(err.to_string().contains("exhausted"), "{err}");
    // The published file never entered the torn-write path: the protocol
    // only writes to `.tmp` until a verified rename.
    assert_eq!(std::fs::read(&path).unwrap(), good_bytes);
    StudySnapshot::load(&path).expect("the published snapshot must still load");
    // The session recorded every injection.
    assert_eq!(
        session.ledger().total(),
        3,
        "three torn attempts under the lenient retry budget"
    );
    assert_eq!(session.health(), Health::Degraded);
}

/// The crash-window salvage paths: a corrupt primary falls back to
/// `.tmp` (a verified-but-unpublished save), then `.bak` (the previous
/// good file) — under the lenient policy only.
#[test]
fn corrupt_primary_salvages_tmp_then_bak() {
    let good = snapshot().to_bytes().unwrap();

    // tmp candidate wins when present.
    let dir = ScratchDir::new("chaos-salvage");
    let p1 = dir.join("salvage-tmp.snap");
    std::fs::write(&p1, b"garbage, not a snapshot").unwrap();
    std::fs::write(p1.with_extension("snap.tmp"), &good).unwrap();
    let report = load_with(&RealIo, &p1, &RetryPolicy::lenient()).unwrap();
    assert_eq!(report.source, "tmp");
    assert!(report.salvaged());

    // bak candidate when there is no tmp.
    let p2 = dir.join("salvage-bak.snap");
    std::fs::write(&p2, b"garbage, not a snapshot").unwrap();
    std::fs::write(p2.with_extension("snap.bak"), &good).unwrap();
    let report = load_with(&RealIo, &p2, &RetryPolicy::lenient()).unwrap();
    assert_eq!(report.source, "bak");

    // Strict mode fails fast: no salvage, the primary's error surfaces.
    let err = load_with(&RealIo, &p2, &RetryPolicy::strict()).expect_err("strict must not salvage");
    assert!(err.to_string().contains("bad magic"), "{err}");
}

/// A successful save through the crash-safe protocol publishes the new
/// bytes and keeps the previous file as `.bak`.
#[test]
fn successful_save_preserves_the_previous_snapshot_as_bak() {
    let dir = ScratchDir::new("chaos-atomic");
    let path = dir.join("atomic.snap");
    let snap = snapshot();
    snap.save(&path).unwrap();
    let first = std::fs::read(&path).unwrap();
    snap.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), first);
    let bak = path.with_extension("snap.bak");
    assert!(bak.exists(), "the second save must keep the first as .bak");
    assert_eq!(std::fs::read(&bak).unwrap(), first);
}

/// Transient I/O faults retry (bounded, attempt-indexed) and succeed
/// within the budget when the fault misses a later draw.
#[test]
fn transient_io_faults_retry_and_recover() {
    let dir = ScratchDir::new("chaos-transient");
    let path = dir.join("transient.snap");
    snapshot().save(&path).unwrap();
    let mut recovered = false;
    for seed in 0..64u64 {
        let plan = FaultPlan::new(seed).with(FaultFamily::TransientIo, 0.5);
        let session = ChaosSession::new(plan, DegradationPolicy::Lenient);
        if let Ok(report) = load_with(&session, &path, &RetryPolicy::lenient()) {
            if report.attempts > 1 {
                // The retry (not salvage) path: first read faulted, a
                // later attempt on the same candidate succeeded.
                assert_eq!(report.source, "primary");
                assert!(report.backoff_us > 0, "retries charge virtual backoff");
                recovered = true;
                break;
            }
        }
    }
    assert!(
        recovered,
        "no seed in 0..64 exercised the retry-then-success path"
    );
}

/// Overload bursts shed deterministically by queue position into
/// `Degraded` responses — never silent drops — and the lenient policy
/// attaches stale cached answers where it can.
#[test]
fn overload_shedding_degrades_but_never_drops() {
    let _guard = battery_lock();
    let eng = engine();
    let queries = mixed_workload(snapshot(), REPLAY, SEED);
    let cfg = serve_cfg();

    // Warm the cache with a clean pass so shed queries can be served
    // stale under the lenient policy.
    let cache = ResultCache::new(cfg.cache);
    let (clean, _) = run_batch(&eng, &queries, &cfg, &cache);

    let plan = FaultPlan::new(5).with(FaultFamily::OverloadBurst, 1.0);
    let session = ChaosSession::new(plan.clone(), DegradationPolicy::Lenient);
    let (responses, stats, report) = run_batch_chaos(&eng, &queries, &cfg, &cache, &session);
    assert_eq!(responses.len(), REPLAY, "shed queries still get responses");
    assert!(stats.degraded > 0, "a rate-1.0 burst plan must shed");
    assert_eq!(stats.degraded, report.degraded);
    // Rate 1.0 sheds the tail of every wave: positions >= depth/2 (the
    // final partial wave sheds from its own half-depth).
    let expect_shed = |i: usize| -> bool {
        let wave_start = (i / cfg.queue_capacity) * cfg.queue_capacity;
        let depth = (REPLAY - wave_start).min(cfg.queue_capacity);
        i - wave_start >= depth / 2
    };
    let shed_expected = (0..REPLAY).filter(|&i| expect_shed(i)).count();
    assert_eq!(
        stats.degraded, shed_expected,
        "shedding must be exactly the tail half of each wave"
    );
    assert!(
        stats.stale_served > 0,
        "a warm cache must serve some shed queries stale"
    );
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.contains("\"Degraded\""), expect_shed(i), "query {i}: {r}");
        // The non-shed head of each wave answers with the clean bytes.
        if !expect_shed(i) {
            assert_eq!(r, &clean[i], "query {i} head-of-wave answer changed");
        }
    }
    // Strict mode sheds without stale answers.
    let cache = ResultCache::new(cfg.cache);
    let session = ChaosSession::new(plan, DegradationPolicy::Strict);
    let (_, strict_stats, _) = run_batch_chaos(&eng, &queries, &cfg, &cache, &session);
    assert_eq!(strict_stats.stale_served, 0, "strict never serves stale");
}

/// Cache poisoning is detected (checksummed entries), evicted, and
/// recomputed: the response vector matches a clean run byte for byte.
#[test]
fn poisoned_cache_recomputes_identical_bytes() {
    let _guard = battery_lock();
    let eng = engine();
    let queries = mixed_workload(snapshot(), REPLAY, SEED);
    let cfg = serve_cfg();

    let cache = ResultCache::new(cfg.cache);
    let (clean, _) = run_batch(&eng, &queries, &cfg, &cache);

    let plan = FaultPlan::new(3).with(FaultFamily::CachePoison, 1.0);
    let cache = ResultCache::new(cfg.cache);
    let session = ChaosSession::new(plan, DegradationPolicy::Lenient);
    let telemetry = ServeTelemetry::new();
    let (responses, _, report) =
        run_batch_chaos_telemetry(&eng, &queries, &cfg, &cache, &session, &telemetry);
    assert_eq!(
        responses, clean,
        "poisoned entries must be recomputed, not served"
    );
    assert!(
        report.ledger.total() > 0,
        "a rate-1.0 poison plan over many waves must corrupt entries"
    );
    assert!(
        report.cache_poison_detected > 0,
        "poisoned entries must be detected on lookup"
    );

    // The poison counters flow end to end: the cache separates injected
    // corruption from detected corruption, the chaos report agrees with
    // the cache's own ledger, and the stats document surfaces both.
    assert!(
        cache.poison_injected() > 0,
        "poison_shard must count the entries it corrupts"
    );
    let detected = cache.stats().poison_detected();
    assert_eq!(
        detected, report.cache_poison_detected,
        "cache shard stats and the chaos report must agree on detections"
    );
    assert!(
        detected <= cache.poison_injected(),
        "an entry is detected at most once per injection"
    );
    let doc = telemetry.stats_document(Some(&cache));
    let cache_block = doc.get("cache").expect("stats document has a cache block");
    assert_eq!(
        cache_block.get("poison_injected").and_then(|v| v.as_u64()),
        Some(cache.poison_injected())
    );
    assert_eq!(
        cache_block.get("poison_detected").and_then(|v| v.as_u64()),
        Some(detected)
    );
    // ...and stays out of the canonical form, like every cache-mode-
    // dependent counter (a disabled cache cannot be poisoned).
    let canon = intertubes::serve::canonicalize_stats(&doc);
    assert!(canon.get("cache").is_none(), "cache block is non-canonical");
}

/// The health machine: a fault degrades, two clean waves recover, and
/// the batch end drains — with the full transition trace retained.
#[test]
fn health_machine_degrades_recovers_and_drains() {
    let mut trace = HealthTrace::new();
    assert_eq!(trace.state(), Health::Ready);
    trace.note_fault(1, "transient-io");
    assert_eq!(trace.state(), Health::Degraded);
    trace.note_clean_wave(2);
    assert_eq!(
        trace.state(),
        Health::Degraded,
        "one clean wave is not enough"
    );
    trace.note_clean_wave(3);
    assert_eq!(trace.state(), Health::Ready, "two clean waves recover");
    trace.drain(4);
    assert_eq!(trace.state(), Health::Draining);
    let kinds: Vec<(u64, Health, Health)> = trace
        .transitions()
        .iter()
        .map(|t| (t.wave, t.from, t.to))
        .collect();
    assert_eq!(
        kinds,
        vec![
            (1, Health::Ready, Health::Degraded),
            (3, Health::Degraded, Health::Ready),
            (4, Health::Ready, Health::Draining),
        ]
    );
}

/// End-to-end CLI chaos: `serve --chaos <builtin>` exits 0, writes the
/// chaos report artifact, and embeds the health trace in the manifest.
#[test]
fn cli_serve_chaos_writes_report_and_manifest_health() {
    let dir = ScratchDir::new("chaos-cli");
    let snap_path = dir.join("study.snap");
    // A tiny world keeps the pipeline build fast enough for a CLI test.
    snapshot().save(&snap_path).unwrap();

    let report_path = dir.join("chaos.json");
    let trace_path = dir.join("trace.jsonl");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_intertubes"))
        .args([
            "--trace-json",
            trace_path.to_str().unwrap(),
            "serve",
            "--snapshot",
            snap_path.to_str().unwrap(),
            "--replay",
            "200",
            "--queue",
            "32",
            "--chaos",
            "overload",
            "--chaos-report",
            report_path.to_str().unwrap(),
            "--out",
            dir.join("responses.jsonl").to_str().unwrap(),
            "--stats",
            dir.join("stats.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "serve --chaos failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert!(report.get("final_health").is_some(), "report: {report:?}");
    assert!(report.get("ledger").is_some());
    assert!(report.get("transitions").is_some());

    // The run manifest (last trace line) carries run.health.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let last = trace.lines().last().unwrap();
    let manifest: serde_json::Value = serde_json::from_str(last).unwrap();
    let health = manifest
        .get("run")
        .and_then(|r| r.get("health"))
        .expect("manifest must carry run.health");
    assert!(health.is_object(), "run.health must be the health document");
    assert!(health.get("state").is_some());

    // An unknown chaos spec is a data error (exit 3), not a panic.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_intertubes"))
        .args([
            "serve",
            "--snapshot",
            snap_path.to_str().unwrap(),
            "--replay",
            "10",
            "--chaos",
            "no-such-scenario",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");

    // The front-end writes no chaos report, so asking it for one is a
    // usage error (exit 2) before anything loads or binds.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_intertubes"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--snapshot",
            snap_path.to_str().unwrap(),
            "--chaos",
            "torn-frame",
            "--chaos-report",
            dir.join("never.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--chaos-report"), "{stderr}");
    assert!(!dir.join("never.json").exists());
}

/// Hex FNV-1a digest of a serialized output.
fn digest(text: &str) -> String {
    format!("{:016x}", intertubes::serve::fnv1a64(text.as_bytes()))
}

/// One golden chaos round: a crash-safe save and a resilient load of a
/// scratch copy, then the 300-query replay, all through one session. The
/// returned text is path-free (error messages name scratch paths, so only
/// attempt counts and candidate labels are kept), and the report carries
/// the load fields the way `serve --chaos` fills them in.
fn golden_round(name: &str, plan: &FaultPlan, policy: DegradationPolicy) -> (String, String) {
    let dir = ScratchDir::new(&format!("chaos-golden-{name}-{policy:?}"));
    let path = dir.join("golden.snap");
    snapshot()
        .save(&path)
        .unwrap_or_else(|e| panic!("scratch save: {e}"));
    let session = ChaosSession::new(plan.clone(), policy);
    let retry = session.retry_policy();
    let save = match save_with(&session, snapshot(), &path, &retry) {
        Ok(r) => format!("save ok {} {}", r.attempts, r.backoff_us),
        Err(intertubes::serve::ServeError::Exhausted {
            attempts, tried, ..
        }) => {
            format!("save exhausted {attempts} {tried:?}")
        }
        Err(e) => format!("save failed {:?}", e.class()),
    };
    let loaded = load_with(&session, &path, &retry);
    let (snap, load) = match loaded {
        Ok(r) => {
            let info = (r.source, r.attempts, r.backoff_us);
            (r.snapshot, Some(info))
        }
        Err(_) => (snapshot().clone(), None),
    };
    let eng = QueryEngine::new(snap);
    let queries = mixed_workload(snapshot(), REPLAY, SEED);
    let cfg = serve_cfg();
    let cache = ResultCache::new(cfg.cache);
    let (responses, _, mut report) = run_batch_chaos(&eng, &queries, &cfg, &cache, &session);
    if let Some((source, attempts, backoff)) = load {
        report.load_attempts = attempts;
        report.load_backoff_us = backoff;
        report.salvaged_from = (source != "primary").then(|| source.to_string());
    }
    (
        format!("{save}\n{}", report.to_canonical_json()),
        responses.join("\n"),
    )
}

/// The wire decisions of one chaos scenario over conn 0..16 × frame
/// 0..64, in (conn, frame) order: the fault label, or `-`. The server
/// tries disconnect, then torn frame, then slow-loris; at most one fires.
fn transport_decisions(plan: &FaultPlan) -> String {
    let wire = [
        FaultFamily::Disconnect,
        FaultFamily::TornFrame,
        FaultFamily::SlowLoris,
    ];
    let mut out = String::new();
    for conn in 0..16u64 {
        for frame in 0..64u64 {
            let fault = wire.into_iter().find(|&f| plan.fires_at(f, conn, frame));
            out.push_str(fault.map_or("-", |f| f.label()));
            out.push(if frame == 63 { '\n' } else { ' ' });
        }
    }
    out
}

/// Every chaos artifact pinned by digest: for each built-in chaos
/// scenario × policy, the chaos report and responses of a save + load +
/// replay round, and for the two scenarios that carry wire families, the
/// transport fault decisions. A change to how faults are drawn or
/// recorded must leave every digest alone. After an *intentional*
/// behaviour change, regenerate with:
///
/// ```text
/// REGENERATE_GOLDENS=1 cargo test --test chaos golden
/// ```
#[test]
fn chaos_reports_match_golden_digests() {
    let _guard = battery_lock();
    let mut reports: BTreeMap<String, BTreeMap<&str, String>> = BTreeMap::new();
    for (name, plan) in FaultPlan::built_in_chaos_scenarios() {
        for policy in [DegradationPolicy::Strict, DegradationPolicy::Lenient] {
            let (report, responses) = golden_round(name, &plan, policy);
            let key = format!(
                "{name}/{}",
                if policy.is_strict() {
                    "strict"
                } else {
                    "lenient"
                }
            );
            let digests = BTreeMap::from([
                ("report", digest(&report)),
                ("responses", digest(&responses)),
            ]);
            reports.insert(key, digests);
        }
    }
    let mut transport: BTreeMap<&str, String> = BTreeMap::new();
    for (name, plan) in FaultPlan::built_in_chaos_scenarios() {
        if name == "torn-frame" || name == "chaos-everything" {
            transport.insert(name, digest(&transport_decisions(&plan)));
        }
    }
    let computed = serde_json::to_string_pretty(&serde_json::json!({
        "reports": reports,
        "transport": transport,
    }))
    .expect("digests serialize");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/chaos_reports.json"
    );
    let Some(stored) = golden(path, "golden digests", &format!("{computed}\n")) else {
        return;
    };
    assert_eq!(
        stored.trim_end(),
        computed,
        "chaos artifacts drifted from {path}; if the change is intentional, \
         regenerate with REGENERATE_GOLDENS=1 cargo test --test chaos golden"
    );
}
