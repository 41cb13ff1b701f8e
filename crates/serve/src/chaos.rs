//! Runtime fault injection, crash-safe snapshot persistence, and the
//! serving health machine (DESIGN.md §11).
//!
//! A [`ChaosSession`] carries the runtime half of a `FaultPlan` into the
//! serving runtime — torn writes, section bit-flips, transient I/O
//! errors, slow reads, cache poisoning, overload bursts — and exposes it
//! two ways:
//!
//! * as a [`SnapshotIo`] implementation: every snapshot read/write/rename
//!   the persistence layer performs flows through the session;
//! * as scheduler hooks ([`ChaosSession::overload_burst`],
//!   [`ChaosSession::poison_cache`]) called from the wave loop's serial
//!   phases only, so every chaos decision is a function of (plan, seed,
//!   wave) — never of thread interleaving or wall-clock.
//!
//! Both draw from one `intertubes_faults::Injector` and record into its
//! `InjectionLedger`, the same model the pipeline-input injectors use.
//!
//! [`save_with`] / [`load_with`] implement the crash-safe persistence
//! protocol over any [`SnapshotIo`]: write to `<path>.tmp`, fsync,
//! verify by re-read, preserve the previous file as `<path>.bak`, then
//! atomically rename — and on load, salvage `.tmp` / `.bak` when the
//! primary is corrupt. Retry/backoff is **attempt-indexed and virtual**
//! (microseconds are accumulated in reports, never slept on, and no
//! wall-clock reading enters any decision), with failures classified
//! transient vs. fatal by [`FaultClass`].
//!
//! The [`Health`] state machine (`Ready` → `Degraded` → `Draining`)
//! summarizes the run for the CLI and the run manifest; its transition
//! trace is part of the determinism contract: same chaos plan + seed ⇒
//! byte-identical ledger, health trace, and response vector at any
//! thread count.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use intertubes_degrade::DegradationPolicy;
use intertubes_faults::{FaultFamily, FaultPlan, InjectionLedger, Injector, SnapshotSection};
use intertubes_obs::{FieldValue, Level};
use rand::Rng;

use crate::cache::ResultCache;
use crate::snapshot::{fnv1a64, section_bounds, SnapshotError, StudySnapshot};

/// Virtual stall charged per injected [`FaultFamily::SlowRead`], µs.
pub const SLOW_READ_STALL_US: u64 = 750;

/// Waves without any injection before a `Degraded` session recovers to
/// `Ready`.
pub const RECOVERY_CLEAN_WAVES: u32 = 2;

/// How a failure relates to retrying: transient failures may succeed on
/// the next attempt against the same file; fatal ones never will, so the
/// loader moves on to a salvage candidate instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Retry the same operation (bounded, with virtual backoff).
    Transient,
    /// Do not retry; fail over to the next salvage candidate.
    Fatal,
}

/// Everything that can go wrong in the resilient serving layer, above the
/// raw container format: either a single classified snapshot failure, or
/// the retry/salvage machinery running out of options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// One snapshot operation failed (strict mode surfaces these
    /// directly).
    Snapshot(SnapshotError),
    /// Every retry of every candidate failed.
    Exhausted {
        /// Total read/verify attempts made across candidates.
        attempts: u32,
        /// The last failure observed.
        last: SnapshotError,
        /// Candidate labels tried, in order (`"primary"`, `"tmp"`,
        /// `"bak"`).
        tried: Vec<String>,
    },
}

impl ServeError {
    /// The retry classification of the underlying failure. `Exhausted` is
    /// always fatal: the bounded policy has already spent its attempts.
    pub fn class(&self) -> FaultClass {
        match self {
            ServeError::Snapshot(e) => e.class(),
            ServeError::Exhausted { .. } => FaultClass::Fatal,
        }
    }

    /// Collapses to the underlying [`SnapshotError`] (the last one seen),
    /// for callers on the pre-chaos API surface.
    pub fn into_snapshot_error(self) -> SnapshotError {
        match self {
            ServeError::Snapshot(e) => e,
            ServeError::Exhausted { last, .. } => last,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Snapshot(e) => write!(f, "serve snapshot error: {e}"),
            ServeError::Exhausted {
                attempts,
                last,
                tried,
            } => write!(
                f,
                "serve snapshot error: exhausted {attempts} attempts over candidates [{}]; last: {last}",
                tried.join(", ")
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// Bounded, attempt-indexed retry policy. Backoff is **virtual**: the
/// per-attempt delay is computed from the attempt number alone,
/// accumulated into reports for observability, and never slept on — no
/// wall-clock reading enters any retry decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per candidate file (≥ 1).
    pub max_attempts: u32,
    /// Base virtual backoff, µs; attempt `n` (1-based) charges
    /// `base << (n - 1)`.
    pub base_backoff_us: u64,
    /// Whether load failure fails over to `<path>.tmp` / `<path>.bak`.
    pub salvage: bool,
}

impl RetryPolicy {
    /// Fail-fast: one attempt, no salvage (the strict degradation
    /// policy).
    pub fn strict() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_us: 0,
            salvage: false,
        }
    }

    /// Full resilience: bounded retries with exponential virtual backoff
    /// plus salvage (the lenient degradation policy, and the default).
    pub fn lenient() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1_000,
            salvage: true,
        }
    }

    /// Maps the pipeline-wide degradation policy onto retry behavior.
    pub fn for_policy(policy: DegradationPolicy) -> RetryPolicy {
        if policy.is_strict() {
            RetryPolicy::strict()
        } else {
            RetryPolicy::lenient()
        }
    }

    /// Virtual backoff charged after failed attempt `attempt` (1-based).
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        self.base_backoff_us
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
    }
}

/// The I/O surface the snapshot persistence protocol runs over. The real
/// implementation is [`RealIo`]; [`ChaosSession`] wraps it with injected
/// faults.
pub trait SnapshotIo {
    /// Reads the whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>, SnapshotError>;
    /// Creates/truncates the file, writes all bytes, and fsyncs.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError>;
    /// Atomically renames `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), SnapshotError>;
    /// Whether the path exists.
    fn exists(&self, path: &Path) -> bool;
}

/// Plain `std::fs`-backed [`SnapshotIo`] (writes are fsynced).
pub struct RealIo;

fn io_err(e: std::io::Error) -> SnapshotError {
    SnapshotError::Io(e.to_string())
}

impl SnapshotIo for RealIo {
    fn read(&self, path: &Path) -> Result<Vec<u8>, SnapshotError> {
        std::fs::read(path).map_err(io_err)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        use std::io::Write;
        let mut f = std::fs::File::create(path).map_err(io_err)?;
        f.write_all(bytes).map_err(io_err)?;
        f.sync_all().map_err(io_err)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), SnapshotError> {
        std::fs::rename(from, to).map_err(io_err)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// JSON string literal with the escapes canonical reports need.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `<path>.tmp` / `<path>.bak` sibling of `path`.
fn suffixed(path: &Path, ext: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".");
    os.push(ext);
    PathBuf::from(os)
}

/// What a crash-safe save did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// Write+verify attempts made.
    pub attempts: u32,
    /// Total virtual backoff charged, µs.
    pub backoff_us: u64,
}

/// What a resilient load did, and the snapshot it produced.
#[derive(Debug)]
pub struct LoadReport {
    /// The loaded snapshot.
    pub snapshot: StudySnapshot,
    /// Which candidate served it: `"primary"`, `"tmp"`, or `"bak"`.
    pub source: &'static str,
    /// Read/parse attempts made across candidates.
    pub attempts: u32,
    /// Total virtual backoff charged, µs.
    pub backoff_us: u64,
}

impl LoadReport {
    /// Whether the snapshot came from a salvage candidate rather than the
    /// primary file.
    pub fn salvaged(&self) -> bool {
        self.source != "primary"
    }
}

/// Crash-safe save over any [`SnapshotIo`]:
///
/// 1. serialize once; write the bytes to `<path>.tmp` (fsynced);
/// 2. verify the temp file by re-reading and byte-comparing (this is
///    what catches torn/short writes);
/// 3. on verify failure, retry the write with attempt-indexed virtual
///    backoff, up to `policy.max_attempts`;
/// 4. preserve any existing `path` as `<path>.bak`, then atomically
///    rename the verified temp file onto `path`.
///
/// A crash (or injected torn write) at any point leaves a loadable
/// snapshot: either the old `path`/`.bak`, or the fully verified `.tmp`
/// — never a silently corrupt published file.
pub fn save_with(
    io: &dyn SnapshotIo,
    snapshot: &StudySnapshot,
    path: &Path,
    policy: &RetryPolicy,
) -> Result<SaveReport, ServeError> {
    let bytes = snapshot.to_bytes().map_err(ServeError::Snapshot)?;
    let tmp = suffixed(path, "tmp");
    let bak = suffixed(path, "bak");
    let mut attempts = 0u32;
    let mut backoff_us = 0u64;
    let mut last: Option<SnapshotError> = None;
    let mut verified = false;
    while attempts < policy.max_attempts.max(1) {
        attempts += 1;
        let result = io.write(&tmp, &bytes).and_then(|()| io.read(&tmp));
        match result {
            Ok(readback) if readback == bytes => {
                verified = true;
                break;
            }
            Ok(readback) => {
                // Torn/short or bit-flipped write: rewriting is the only
                // remedy, so every verify failure is retried.
                let e = if readback.len() < bytes.len() {
                    SnapshotError::Truncated {
                        needed: bytes.len(),
                        have: readback.len(),
                    }
                } else {
                    SnapshotError::ChecksumMismatch {
                        expected: format!("{:016x}", fnv1a64(&bytes)),
                        found: format!("{:016x}", fnv1a64(&readback)),
                    }
                };
                intertubes_obs::event(
                    Level::Warn,
                    "serve.snapshot",
                    &format!("save attempt {attempts} failed verification: {e}"),
                    &[("attempt", FieldValue::U64(attempts as u64))],
                );
                last = Some(e);
                backoff_us += policy.backoff_us(attempts);
            }
            Err(e) => {
                intertubes_obs::event(
                    Level::Warn,
                    "serve.snapshot",
                    &format!("save attempt {attempts} failed: {e}"),
                    &[("attempt", FieldValue::U64(attempts as u64))],
                );
                last = Some(e);
                backoff_us += policy.backoff_us(attempts);
            }
        }
    }
    if !verified {
        return Err(ServeError::Exhausted {
            attempts,
            last: last.unwrap_or_else(|| SnapshotError::Io("save never attempted".into())),
            tried: vec!["tmp".into()],
        });
    }
    if io.exists(path) {
        io.rename(path, &bak).map_err(ServeError::Snapshot)?;
    }
    io.rename(&tmp, path).map_err(ServeError::Snapshot)?;
    Ok(SaveReport {
        attempts,
        backoff_us,
    })
}

/// Resilient load over any [`SnapshotIo`]: tries the primary file with
/// bounded attempt-indexed retries on transient failures, then — under a
/// salvaging policy — fails over to `<path>.tmp` (a completed but
/// unpublished save) and `<path>.bak` (the previous good snapshot).
/// Fatal failures (corrupt content) skip straight to the next candidate:
/// a bad file does not get better by re-reading it, but an injected
/// bit-flip on a salvage candidate might miss on the next read.
pub fn load_with(
    io: &dyn SnapshotIo,
    path: &Path,
    policy: &RetryPolicy,
) -> Result<LoadReport, ServeError> {
    let mut candidates: Vec<(&'static str, PathBuf)> = vec![("primary", path.to_path_buf())];
    if policy.salvage {
        candidates.push(("tmp", suffixed(path, "tmp")));
        candidates.push(("bak", suffixed(path, "bak")));
    }
    let mut attempts = 0u32;
    let mut backoff_us = 0u64;
    let mut last: Option<SnapshotError> = None;
    let mut tried: Vec<String> = Vec::new();
    for (source, candidate) in &candidates {
        if *source != "primary" && !io.exists(candidate) {
            continue;
        }
        tried.push((*source).to_string());
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            attempts += 1;
            let result = io
                .read(candidate)
                .and_then(|bytes| StudySnapshot::from_bytes(&bytes));
            match result {
                Ok(snapshot) => {
                    if *source != "primary" {
                        intertubes_obs::event(
                            Level::Warn,
                            "serve.snapshot",
                            &format!("salvaged snapshot from {source} candidate"),
                            &[("source", FieldValue::Str((*source).to_string()))],
                        );
                    }
                    return Ok(LoadReport {
                        snapshot,
                        source,
                        attempts,
                        backoff_us,
                    });
                }
                Err(e) => {
                    intertubes_obs::event(
                        Level::Warn,
                        "serve.snapshot",
                        &format!("load attempt {attempt} of {source} failed: {e}"),
                        &[("attempt", FieldValue::U64(attempt as u64))],
                    );
                    let transient = e.class() == FaultClass::Transient;
                    last = Some(e);
                    if transient && attempt < policy.max_attempts.max(1) {
                        backoff_us += policy.backoff_us(attempt);
                        continue;
                    }
                    break;
                }
            }
        }
    }
    Err(ServeError::Exhausted {
        attempts,
        last: last.unwrap_or_else(|| SnapshotError::Io("no load candidates existed".into())),
        tried,
    })
}

/// Serving health, surfaced via the CLI and the run manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// No un-recovered faults; full service.
    Ready,
    /// At least one fault injected/absorbed recently; service continues
    /// with degraded guarantees.
    Degraded,
    /// The batch is complete and the session is winding down.
    Draining,
}

impl Health {
    /// Stable lower-case label (report and manifest vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            Health::Ready => "ready",
            Health::Degraded => "degraded",
            Health::Draining => "draining",
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One health-state transition. `wave` is the scheduler wave that caused
/// it (0 = the load/save phase before any wave).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// Wave number (1-based; 0 for the pre-batch persistence phase).
    pub wave: u64,
    /// State before.
    pub from: Health,
    /// State after.
    pub to: Health,
    /// Deterministic cause (fault family label or lifecycle event).
    pub reason: String,
}

/// The `Ready`/`Degraded`/`Draining` state machine plus its transition
/// trace. All mutations happen from serial code, so the trace is part of
/// the byte-identical determinism contract.
#[derive(Debug, Default)]
pub struct HealthTrace {
    state: Option<Health>,
    clean_streak: u32,
    transitions: Vec<HealthTransition>,
}

impl HealthTrace {
    /// A fresh trace in `Ready`.
    pub fn new() -> HealthTrace {
        HealthTrace {
            state: None,
            clean_streak: 0,
            transitions: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> Health {
        self.state.unwrap_or(Health::Ready)
    }

    /// The transition trace so far.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    fn push(&mut self, wave: u64, to: Health, reason: &str) {
        let from = self.state();
        intertubes_obs::event(
            Level::Warn,
            "serve.health",
            &format!("{from} -> {to} ({reason})"),
            &[
                ("from", FieldValue::Str(from.label().to_string())),
                ("to", FieldValue::Str(to.label().to_string())),
                ("wave", FieldValue::U64(wave)),
            ],
        );
        self.transitions.push(HealthTransition {
            wave,
            from,
            to,
            reason: reason.to_string(),
        });
        self.state = Some(to);
    }

    /// Records a fault at `wave`: `Ready` degrades, `Degraded` stays put
    /// (but its recovery streak resets).
    pub fn note_fault(&mut self, wave: u64, reason: &str) {
        self.clean_streak = 0;
        if self.state() == Health::Ready {
            self.push(wave, Health::Degraded, reason);
        }
    }

    /// Records an injection-free wave; [`RECOVERY_CLEAN_WAVES`] of them
    /// in a row recover a `Degraded` session to `Ready`.
    pub fn note_clean_wave(&mut self, wave: u64) {
        if self.state() == Health::Degraded {
            self.clean_streak += 1;
            if self.clean_streak >= RECOVERY_CLEAN_WAVES {
                self.push(
                    wave,
                    Health::Ready,
                    &format!("recovered after {RECOVERY_CLEAN_WAVES} clean waves"),
                );
                self.clean_streak = 0;
            }
        }
    }

    /// Marks the batch complete.
    pub fn drain(&mut self, wave: u64) {
        if self.state() != Health::Draining {
            self.push(wave, Health::Draining, "batch complete");
        }
    }
}

/// The deterministic artifact a chaos run leaves behind: the injection
/// ledger, the health trace, and the degradation counts. Byte-compared
/// across thread counts by `tests/chaos.rs` and the gate runner's `chaos`
/// arms via [`ChaosReport::to_canonical_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Every injection, counted per family.
    pub ledger: InjectionLedger,
    /// The health transition trace.
    pub transitions: Vec<HealthTransition>,
    /// Health at the end of the run.
    pub final_health: Health,
    /// Total virtual stall charged by injected slow reads, µs.
    pub virtual_stall_us: u64,
    /// Queries shed into [`crate::query::Response::Degraded`].
    pub degraded: usize,
    /// Degraded responses that carried a stale cached answer.
    pub stale_served: usize,
    /// Poisoned cache entries detected (and evicted) on lookup.
    pub cache_poison_detected: u64,
    /// Snapshot-load attempts (0 when the run did not load through the
    /// session).
    pub load_attempts: u32,
    /// Virtual backoff charged during load, µs.
    pub load_backoff_us: u64,
    /// The salvage candidate that served the snapshot, if any.
    pub salvaged_from: Option<String>,
}

impl ChaosReport {
    /// Deterministic canonical JSON (fixed key order, no wall-clock
    /// anywhere) — the artifact the chaos gate byte-compares.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"final_health\":\"{}\"", self.final_health));
        out.push_str(&format!(",\"degraded\":{}", self.degraded));
        out.push_str(&format!(",\"stale_served\":{}", self.stale_served));
        out.push_str(&format!(
            ",\"cache_poison_detected\":{}",
            self.cache_poison_detected
        ));
        out.push_str(&format!(",\"virtual_stall_us\":{}", self.virtual_stall_us));
        out.push_str(&format!(",\"load_attempts\":{}", self.load_attempts));
        out.push_str(&format!(",\"load_backoff_us\":{}", self.load_backoff_us));
        match &self.salvaged_from {
            Some(s) => out.push_str(&format!(",\"salvaged_from\":{}", json_string(s))),
            None => out.push_str(",\"salvaged_from\":null"),
        }
        out.push_str(",\"ledger\":[");
        for (i, (family, n)) in self.ledger.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[\"{}\",{n}]", family.label()));
        }
        out.push_str("],\"transitions\":[");
        for (i, t) in self.transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"wave\":{},\"from\":\"{}\",\"to\":\"{}\",\"reason\":{}}}",
                t.wave,
                t.from,
                t.to,
                json_string(&t.reason)
            ));
        }
        out.push_str("]}");
        out
    }

    /// The manifest's `health` value: final state plus the transition
    /// trace.
    pub fn health_value(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        obj.insert(
            "state".into(),
            serde_json::Value::String(self.final_health.label().to_string()),
        );
        let transitions: Vec<serde_json::Value> = self
            .transitions
            .iter()
            .map(|t| {
                let mut o = serde_json::Map::new();
                o.insert(
                    "wave".into(),
                    serde_json::Value::Number(serde_json::Number::UInt(t.wave)),
                );
                o.insert(
                    "from".into(),
                    serde_json::Value::String(t.from.label().to_string()),
                );
                o.insert(
                    "to".into(),
                    serde_json::Value::String(t.to.label().to_string()),
                );
                o.insert("reason".into(), serde_json::Value::String(t.reason.clone()));
                serde_json::Value::Object(o)
            })
            .collect();
        obj.insert("transitions".into(), serde_json::Value::Array(transitions));
        serde_json::Value::Object(obj)
    }
}

/// The session's injector (draw streams and ledger) plus its health
/// record.
struct ChaosState {
    injector: Injector,
    health: HealthTrace,
    stall_us: u64,
}

/// One chaos run: the runtime half of a [`FaultPlan`] bound to a
/// degradation policy. Implements [`SnapshotIo`] (injecting I/O faults)
/// and exposes the scheduler hooks; every injection lands in the
/// injector's ledger and the health trace. A clean run is a session under
/// the empty plan.
///
/// All draws come from the injector's seeded per-family streams, and all
/// entry points are called from serial code, so a session's behavior is a
/// pure function of (plan, call sequence) — the foundation of the chaos
/// determinism contract.
pub struct ChaosSession {
    policy: DegradationPolicy,
    state: Mutex<ChaosState>,
}

impl ChaosSession {
    /// Binds the runtime half of `plan` to a degradation policy.
    pub fn new(plan: FaultPlan, policy: DegradationPolicy) -> ChaosSession {
        let state = ChaosState {
            injector: Injector::new(plan),
            health: HealthTrace::new(),
            stall_us: 0,
        };
        ChaosSession {
            policy,
            state: Mutex::new(state),
        }
    }

    /// The degradation policy this session serves under.
    pub fn policy(&self) -> DegradationPolicy {
        self.policy
    }

    /// The retry policy implied by the degradation policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::for_policy(self.policy)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn inject(st: &mut ChaosState, family: FaultFamily, n: usize, wave: u64, detail: &str) {
        st.injector.ledger.record(family, n, detail);
        st.health.note_fault(wave, family.label());
    }

    /// Scheduler hook (serial, once per wave, before lookups): does an
    /// overload burst hit this wave? Returns the queue position the wave
    /// is shed from — every query at `position >= shed_from` receives a
    /// `Response::Degraded` instead of computing.
    pub fn overload_burst(&self, wave: u64, depth: usize) -> Option<usize> {
        let mut st = self.lock();
        if depth == 0 || !st.injector.fires(FaultFamily::OverloadBurst) {
            return None;
        }
        let shed_from = depth / 2;
        let shed = depth - shed_from;
        Self::inject(
            &mut st,
            FaultFamily::OverloadBurst,
            shed,
            wave,
            &format!("shedding wave {wave} from position {shed_from}"),
        );
        Some(shed_from)
    }

    /// Scheduler hook (serial, once per wave, before lookups): does cache
    /// poisoning hit this wave? Corrupts one whole shard (`wave %
    /// shards`) and returns the entry count touched.
    pub fn poison_cache(&self, wave: u64, cache: &ResultCache) -> usize {
        let mut st = self.lock();
        if !st.injector.fires(FaultFamily::CachePoison) {
            return 0;
        }
        let shard = (wave as usize) % cache.shard_count().max(1);
        let n = cache.poison_shard(shard);
        if n > 0 {
            Self::inject(
                &mut st,
                FaultFamily::CachePoison,
                n,
                wave,
                &format!("poisoned cache shard {shard}"),
            );
        }
        n
    }

    /// Scheduler hook: a wave finished with no injection (drives the
    /// recovery side of the health machine).
    pub fn end_wave(&self, wave: u64, injected: bool) {
        if !injected {
            self.lock().health.note_clean_wave(wave);
        }
    }

    /// Records an externally observed (non-injected) fault — e.g. a load
    /// that had to salvage a candidate.
    pub fn note_degraded(&self, wave: u64, reason: &str) {
        self.lock().health.note_fault(wave, reason);
    }

    /// Marks the batch complete.
    pub fn drain(&self, wave: u64) {
        self.lock().health.drain(wave);
    }

    /// Current health state.
    pub fn health(&self) -> Health {
        self.lock().health.state()
    }

    /// A copy of the injection ledger so far.
    pub fn ledger(&self) -> InjectionLedger {
        self.lock().injector.ledger.clone()
    }

    /// The session's deterministic report (ledger, health trace, virtual
    /// stall). The scheduler fills in the degradation counts; the CLI
    /// fills in the load fields.
    pub fn report(&self) -> ChaosReport {
        let st = self.lock();
        ChaosReport {
            ledger: st.injector.ledger.clone(),
            transitions: st.health.transitions().to_vec(),
            final_health: st.health.state(),
            virtual_stall_us: st.stall_us,
            degraded: 0,
            stale_served: 0,
            cache_poison_detected: 0,
            load_attempts: 0,
            load_backoff_us: 0,
            salvaged_from: None,
        }
    }
}

impl SnapshotIo for ChaosSession {
    fn read(&self, path: &Path) -> Result<Vec<u8>, SnapshotError> {
        let mut st = self.lock();
        let shown = path.display();
        if st.injector.fires(FaultFamily::TransientIo) {
            Self::inject(
                &mut st,
                FaultFamily::TransientIo,
                1,
                0,
                &format!("reading {shown}"),
            );
            return Err(SnapshotError::Io(format!(
                "injected transient i/o error reading {shown}"
            )));
        }
        if st.injector.fires(FaultFamily::SlowRead) {
            st.stall_us += SLOW_READ_STALL_US;
            let detail = format!("stall of {SLOW_READ_STALL_US}us reading {shown}");
            Self::inject(&mut st, FaultFamily::SlowRead, 1, 0, &detail);
        }
        let mut bytes = RealIo.read(path)?;
        let flip = FaultFamily::SnapshotBitFlip;
        if st.injector.fires(flip) {
            let section = st
                .injector
                .plan()
                .section_for(flip)
                .unwrap_or(SnapshotSection::Payload);
            let (start, end) = section_bounds(&bytes)
                .and_then(|b| match section {
                    SnapshotSection::Header => Some(b.header),
                    SnapshotSection::Payload => Some(b.payload),
                    SnapshotSection::Landmarks => b.landmarks,
                })
                .filter(|(s, e)| e > s)
                .unwrap_or((0, bytes.len()));
            if end > start {
                let rng = st.injector.rng(flip);
                let idx = rng.gen_range(start..end);
                let bit = rng.gen_range(0..8u32);
                bytes[idx] ^= 1 << bit;
                let detail = format!("bit {bit} of byte {idx} ({} section)", section.label());
                Self::inject(&mut st, flip, 1, 0, &detail);
            }
        }
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut st = self.lock();
        let torn = FaultFamily::TornSnapshotWrite;
        if st.injector.fires(torn) {
            let keep = st
                .injector
                .rng(torn)
                .gen_range(0..bytes.len().max(1))
                .min(bytes.len());
            let detail = format!(
                "kept {keep} of {} bytes writing {}",
                bytes.len(),
                path.display()
            );
            Self::inject(&mut st, torn, 1, 0, &detail);
            drop(st);
            // The torn write *reports success* — exactly like a crash
            // between write and fsync. Only save_with's verify pass can
            // catch it.
            return RealIo.write(path, &bytes[..keep]);
        }
        drop(st);
        RealIo.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), SnapshotError> {
        RealIo.rename(from, to)
    }

    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
}
