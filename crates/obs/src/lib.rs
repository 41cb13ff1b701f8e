//! # intertubes-obs — structured tracing, metrics, and run manifests
//!
//! The observability subsystem for the InterTubes reproduction (DESIGN.md
//! §8). Three coupled facilities:
//!
//! * **Stage spans** — every pipeline stage opens a [`stage`] guard that
//!   records wall time, item counts, and an outcome into the session
//!   recorder. Spans nest; the per-thread span stack gives events their
//!   span context.
//! * **A metrics registry** — [`counter`], [`gauge`], [`histogram`] write
//!   into per-thread [`MetricsSnapshot`] shards that merge associatively
//!   and commutatively at session end, extending the serial==parallel
//!   determinism contract (DESIGN.md §7) to observability aggregates.
//! * **A structured event log and run manifest** — [`Session::finish`]
//!   returns a [`RunRecord`] (ordered events, completed stages, merged
//!   metrics) from which [`build_manifest`] derives the end-of-run
//!   manifest; [`canonicalize`] strips the wall-clock and environment
//!   fields so manifests can be compared byte-for-byte across thread
//!   counts.
//!
//! ## Sessions
//!
//! Recording is scoped: nothing is captured until a [`Session`] begins,
//! and instrumented library code is a cheap no-op outside one. Sessions
//! are process-exclusive (a global lock serializes them), which is what
//! lets the determinism battery compare runs without cross-test bleed.
//!
//! ```
//! use intertubes_obs as obs;
//!
//! let session = obs::Session::begin(obs::ObsConfig::default());
//! {
//!     let mut span = obs::stage("demo.stage");
//!     obs::counter("demo.widgets", 3);
//!     span.items("widgets", 3);
//! }
//! let record = session.finish();
//! assert_eq!(record.stages.len(), 1);
//! assert_eq!(record.metrics.counters["demo.widgets"], 3);
//! ```
//!
//! The `INTERTUBES_LOG` environment variable (error/warn/info/debug/trace)
//! sets the default capture-and-echo threshold; see
//! [`ObsConfig::from_env`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manifest;
mod metrics;
mod ring;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

pub use manifest::{
    build_manifest, canonicalize, record_to_jsonl, validate_manifest, RunInfo, TopologyCounts,
    MANIFEST_SCHEMA,
};
pub use metrics::{Gauge, Histogram, MetricsSnapshot, HISTOGRAM_BUCKETS};
pub use ring::Ring;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Event/span severity, ordered from most to least severe:
/// `Error < Warn < Info < Debug < Trace` (a *lower* level is *more* severe;
/// filters keep `level <= max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The system cannot proceed as asked.
    Error,
    /// Something degraded but the run continues.
    Warn,
    /// Normal operational signposts (the default filter).
    Info,
    /// Diagnostic detail for debugging.
    Debug,
    /// Very fine-grained detail.
    Trace,
}

impl Level {
    /// Stable lower-case label (`"info"`, …) used in logs and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name, case-insensitively. `None` for unknown names.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed structured-field value attached to an event or span exit.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string field.
    Str(String),
    /// An unsigned integer field (counts, sizes).
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A floating-point field (durations, ratios).
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// What happened inside one structured log entry.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A stage span was entered.
    SpanOpen,
    /// A stage span exited (its summary lives in [`StageRecord`]).
    SpanClose,
    /// A free-standing structured event.
    Event,
}

impl EventKind {
    /// Stable label used as the JSONL `type` field.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Event => "event",
        }
    }
}

/// One entry of the ordered structured log.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Position in the log (0-based, session-scoped).
    pub seq: u64,
    /// Milliseconds since the session began (wall clock; stripped by
    /// [`canonicalize`]).
    pub t_ms: f64,
    /// Entry kind.
    pub kind: EventKind,
    /// Severity (span entries are [`Level::Debug`]).
    pub level: Level,
    /// Module/component that emitted the entry.
    pub target: String,
    /// Innermost enclosing span on the emitting thread, if any.
    pub span: Option<String>,
    /// Human-readable message (span name for span entries).
    pub message: String,
    /// Structured fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

/// How a completed stage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageOutcome {
    /// The stage completed cleanly.
    Ok,
    /// The stage completed but absorbed degraded input.
    Degraded,
    /// The stage failed (strict-mode abort path).
    Failed,
}

impl StageOutcome {
    /// Stable label (`"ok"` / `"degraded"` / `"failed"`).
    pub fn label(self) -> &'static str {
        match self {
            StageOutcome::Ok => "ok",
            StageOutcome::Degraded => "degraded",
            StageOutcome::Failed => "failed",
        }
    }
}

/// The summary of one completed stage span.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (e.g. `"map.step3"`).
    pub name: String,
    /// Enclosing span at entry, if any.
    pub parent: Option<String>,
    /// Wall time inside the span, milliseconds (stripped by
    /// [`canonicalize`]).
    pub wall_ms: f64,
    /// Item counts attached via [`StageGuard::items`], in emission order.
    pub items: Vec<(String, u64)>,
    /// How the stage ended.
    pub outcome: StageOutcome,
}

/// Everything one session captured, in deterministic order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// The ordered structured log (span opens/closes and events).
    pub events: Vec<EventRecord>,
    /// Completed stages, in completion order.
    pub stages: Vec<StageRecord>,
    /// The merged metrics registry.
    pub metrics: MetricsSnapshot,
}

impl RunRecord {
    /// Total wall milliseconds across all completions of `stage`.
    pub fn stage_wall_ms(&self, stage: &str) -> Option<f64> {
        let mut total = 0.0;
        let mut seen = false;
        for s in self.stages.iter().filter(|s| s.name == stage) {
            total += s.wall_ms;
            seen = true;
        }
        seen.then_some(total)
    }

    /// Names of recorded stages, deduplicated, in first-completion order.
    pub fn stage_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.stages {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        names
    }
}

// ---------------------------------------------------------------------------
// Session & recorder
// ---------------------------------------------------------------------------

/// Session parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Capture-and-echo threshold: events with `level <= filter` are
    /// recorded (and echoed when `echo` is set).
    pub level: Level,
    /// Render captured events to stderr as they arrive (the CLI's
    /// human-readable log; tests leave it off).
    pub echo: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            level: Level::Info,
            echo: false,
        }
    }
}

impl ObsConfig {
    /// Reads the threshold from `INTERTUBES_LOG` (default `info`;
    /// unknown names fall back to `info`).
    pub fn from_env() -> Self {
        let level = std::env::var("INTERTUBES_LOG")
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(Level::Info);
        ObsConfig { level, echo: false }
    }

    /// Returns the config with stderr echoing enabled.
    pub fn with_echo(mut self) -> Self {
        self.echo = true;
        self
    }
}

/// Serializes sessions: at most one recorder exists per process, so
/// concurrent tests cannot bleed spans or metrics into each other's
/// manifests.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// Recorder generation counter; thread-local metric shards are lazily
/// re-bound when the generation moves on.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The active recorder: the one slot every span, event and metric goes
/// through.
static RECORDER: std::sync::RwLock<Option<Arc<Recorder>>> = std::sync::RwLock::new(None);

thread_local! {
    /// This thread's shard of the active recorder's metrics registry.
    static SHARD: RefCell<Option<(u64, Arc<Mutex<MetricsSnapshot>>)>> = const { RefCell::new(None) };
    /// This thread's stack of entered span names.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

struct Recorder {
    generation: u64,
    filter: Level,
    echo: bool,
    start: Instant,
    log: Mutex<Vec<EventRecord>>,
    stages: Mutex<Vec<StageRecord>>,
    shards: Mutex<Vec<Arc<Mutex<MetricsSnapshot>>>>,
    gauge_stamp: AtomicU64,
}

impl Recorder {
    fn new(cfg: ObsConfig) -> Recorder {
        Recorder {
            generation: GENERATION.fetch_add(1, Ordering::SeqCst) + 1,
            filter: cfg.level,
            echo: cfg.echo,
            start: Instant::now(),
            log: Mutex::new(Vec::new()),
            stages: Mutex::new(Vec::new()),
            shards: Mutex::new(Vec::new()),
            gauge_stamp: AtomicU64::new(0),
        }
    }

    fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    fn push_log(&self, mut entry: EventRecord) {
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        entry.seq = log.len() as u64;
        log.push(entry);
    }

    /// The calling thread's current innermost span, if any.
    fn current_span() -> Option<String> {
        SPAN_STACK.with(|s| s.borrow().last().cloned())
    }

    fn shard(&self) -> Arc<Mutex<MetricsSnapshot>> {
        SHARD.with(|slot| {
            let mut slot = slot.borrow_mut();
            match slot.as_ref() {
                Some((generation, shard)) if *generation == self.generation => Arc::clone(shard),
                _ => {
                    let shard = Arc::new(Mutex::new(MetricsSnapshot::new()));
                    self.shards
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(Arc::clone(&shard));
                    *slot = Some((self.generation, Arc::clone(&shard)));
                    shard
                }
            }
        })
    }

    fn echo_line(&self, level: Level, span: Option<&str>, message: &str) {
        if !self.echo || level > self.filter {
            return;
        }
        match span {
            Some(span) => eprintln!("{:>5} [{span}] {message}", level.as_str()),
            None => eprintln!("{:>5} {message}", level.as_str()),
        }
    }

    /// A named span was entered on the calling thread.
    fn span_enter(&self, name: &str) {
        let parent = Self::current_span();
        SPAN_STACK.with(|s| s.borrow_mut().push(name.to_string()));
        self.push_log(EventRecord {
            seq: 0,
            t_ms: self.elapsed_ms(),
            kind: EventKind::SpanOpen,
            level: Level::Debug,
            target: "obs".to_string(),
            span: parent,
            message: name.to_string(),
            fields: Vec::new(),
        });
    }

    /// The matching span exited after `wall_ms` with `outcome` and the
    /// item counts attached to it.
    fn span_exit(
        &self,
        name: &str,
        wall_ms: f64,
        outcome: StageOutcome,
        items: &[(&'static str, u64)],
    ) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last().map(String::as_str) == Some(name) {
                stack.pop();
            }
        });
        let parent = Self::current_span();
        self.echo_line(
            Level::Debug,
            parent.as_deref(),
            &format!(
                "stage {name}: {} in {wall_ms:.1} ms{}",
                outcome.label(),
                items
                    .iter()
                    .map(|(k, v)| format!(" {k}={v}"))
                    .collect::<String>()
            ),
        );
        let mut fields = vec![
            ("wall_ms".to_string(), FieldValue::F64(wall_ms)),
            (
                "outcome".to_string(),
                FieldValue::Str(outcome.label().to_string()),
            ),
        ];
        fields.extend(
            items
                .iter()
                .map(|&(k, v)| (k.to_string(), FieldValue::U64(v))),
        );
        self.push_log(EventRecord {
            seq: 0,
            t_ms: self.elapsed_ms(),
            kind: EventKind::SpanClose,
            level: Level::Debug,
            target: "obs".to_string(),
            span: parent.clone(),
            message: name.to_string(),
            fields,
        });
        self.stages
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(StageRecord {
                name: name.to_string(),
                parent,
                wall_ms,
                items: items.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                outcome,
            });
    }

    /// A structured event was emitted on the calling thread.
    fn event(&self, level: Level, target: &str, message: &str, fields: &[(&str, FieldValue)]) {
        if level > self.filter {
            return;
        }
        let span = Self::current_span();
        self.echo_line(
            level,
            span.as_deref(),
            &format!(
                "{message}{}",
                fields
                    .iter()
                    .map(|(k, v)| format!(" {k}={v}"))
                    .collect::<String>()
            ),
        );
        self.push_log(EventRecord {
            seq: 0,
            t_ms: self.elapsed_ms(),
            kind: EventKind::Event,
            level,
            target: target.to_string(),
            span,
            message: message.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }
}

/// An exclusive recording session. Holds the process session lock for its
/// lifetime; [`Session::finish`] uninstalls the recorder and returns
/// everything it captured.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
    recorder: Arc<Recorder>,
}

impl Session {
    /// Begins recording. Blocks until any other session in the process
    /// finishes.
    pub fn begin(cfg: ObsConfig) -> Session {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let recorder = Arc::new(Recorder::new(cfg));
        *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&recorder));
        Session {
            _guard: guard,
            recorder,
        }
    }

    /// Stops recording and returns the captured [`RunRecord`].
    pub fn finish(self) -> RunRecord {
        *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = None;
        let recorder = self.recorder;
        let events = std::mem::take(&mut *recorder.log.lock().unwrap_or_else(|e| e.into_inner()));
        let stages =
            std::mem::take(&mut *recorder.stages.lock().unwrap_or_else(|e| e.into_inner()));
        let mut metrics = MetricsSnapshot::new();
        for shard in recorder
            .shards
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            metrics.merge(&shard.lock().unwrap_or_else(|e| e.into_inner()));
        }
        RunRecord {
            events,
            stages,
            metrics,
        }
    }
}

fn with_recorder<R>(f: impl FnOnce(&Recorder) -> R) -> Option<R> {
    let slot = RECORDER.read().unwrap_or_else(|e| e.into_inner());
    slot.as_deref().map(f)
}

/// Whether a session is currently recording.
pub fn active() -> bool {
    RECORDER.read().unwrap_or_else(|e| e.into_inner()).is_some()
}

// ---------------------------------------------------------------------------
// Instrumentation API
// ---------------------------------------------------------------------------

/// Adds `n` to the named counter (no-op outside a session).
///
/// Counters are additive `u64` totals, safe to bump from worker threads:
/// the per-thread shards merge to the same total under any partitioning.
pub fn counter(name: &str, n: u64) {
    with_recorder(|r| {
        r.shard()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counter_add(name, n);
    });
}

/// Sets the named gauge (no-op outside a session). Call from serial code
/// only — see [`Gauge`].
pub fn gauge(name: &str, value: i64) {
    with_recorder(|r| {
        let stamp = r.gauge_stamp.fetch_add(1, Ordering::SeqCst) + 1;
        r.shard()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .gauge_set(name, stamp, value);
    });
}

/// Records one observation into the named histogram (no-op outside a
/// session). Safe from worker threads, like [`counter`].
pub fn histogram(name: &str, value: u64) {
    with_recorder(|r| {
        r.shard()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .histogram_observe(name, value);
    });
}

/// Emits a structured event (no-op outside a session, filtered by the
/// session level).
pub fn event(level: Level, target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    with_recorder(|r| r.event(level, target, message, fields));
}

/// An in-progress stage span. Records wall time on drop; attach item
/// counts with [`StageGuard::items`] and a non-ok outcome with
/// [`StageGuard::degraded`] / [`StageGuard::failed`].
#[derive(Debug)]
pub struct StageGuard {
    /// The entered span's name; `None` outside a session.
    span: Option<String>,
    start: Instant,
    items: Vec<(&'static str, u64)>,
    outcome: StageOutcome,
}

/// Opens a named stage span (inert outside a session).
///
/// Stage spans must be opened from serial code (the thread driving the
/// pipeline); parallel fan-outs inside a stage report through [`counter`]
/// and [`histogram`] instead.
pub fn stage(name: &str) -> StageGuard {
    let span = with_recorder(|r| {
        r.span_enter(name);
        name.to_string()
    });
    StageGuard {
        span,
        start: Instant::now(),
        items: Vec::new(),
        outcome: StageOutcome::Ok,
    }
}

impl StageGuard {
    /// Attaches an item count (e.g. `("conduits", 542)`) to the span.
    pub fn items(&mut self, key: &'static str, count: usize) {
        self.items.push((key, count as u64));
    }

    /// Marks the stage as completed-with-degradation.
    pub fn degraded(&mut self) {
        if self.outcome < StageOutcome::Degraded {
            self.outcome = StageOutcome::Degraded;
        }
    }

    /// Marks the stage as failed (strict-mode abort paths).
    pub fn failed(&mut self) {
        self.outcome = StageOutcome::Failed;
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let Some(name) = self.span.take() else {
            return;
        };
        let wall_ms = self.start.elapsed().as_secs_f64() * 1e3;
        with_recorder(|r| r.span_exit(&name, wall_ms, self.outcome, &self.items));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Trace);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert_eq!(Level::Debug.as_str(), "debug");
    }

    #[test]
    fn instrumentation_outside_a_session_records_nothing() {
        {
            // Holding the session lock keeps sibling tests' sessions out.
            let _quiet = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let mut span = stage("quiet");
            span.items("things", 1);
            event(Level::Error, "test", "goes nowhere", &[]);
            counter("outside", 1);
        }
        let record = Session::begin(ObsConfig {
            level: Level::Trace,
            echo: false,
        })
        .finish();
        assert_eq!(record, RunRecord::default());
    }

    #[test]
    fn session_scopes_recording() {
        // Checks made outside a session hold the session lock: a sibling
        // test's session could otherwise be active at that moment.
        let outside = || {
            let _quiet = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            assert!(!active());
            counter("outside", 1); // no-op, must not panic
        };
        outside();
        let session = Session::begin(ObsConfig::default());
        assert!(active());
        {
            let mut span = stage("outer");
            {
                let mut inner = stage("inner");
                inner.items("things", 2);
                counter("c", 5);
            }
            event(Level::Info, "test", "hello", &[("k", FieldValue::U64(1))]);
            span.items("total", 7);
            span.degraded();
        }
        let record = session.finish();
        outside();
        assert_eq!(record.stage_names(), vec!["inner", "outer"]);
        let inner = &record.stages[0];
        assert_eq!(inner.parent.as_deref(), Some("outer"));
        assert_eq!(inner.items, vec![("things".to_string(), 2)]);
        assert_eq!(inner.outcome, StageOutcome::Ok);
        let outer = &record.stages[1];
        assert_eq!(outer.parent, None);
        assert_eq!(outer.outcome, StageOutcome::Degraded);
        assert_eq!(record.metrics.counters["c"], 5);
        // log: open(outer), open(inner), close(inner), event, close(outer)
        let kinds: Vec<&str> = record.events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            vec![
                "span_open",
                "span_open",
                "span_close",
                "event",
                "span_close"
            ]
        );
        let ev = &record.events[3];
        assert_eq!(ev.span.as_deref(), Some("outer"));
        assert_eq!(ev.message, "hello");
        // seq is the log position
        assert!(record
            .events
            .iter()
            .enumerate()
            .all(|(i, e)| e.seq == i as u64));
    }

    #[test]
    fn level_filter_drops_quiet_events() {
        let session = Session::begin(ObsConfig {
            level: Level::Warn,
            echo: false,
        });
        event(Level::Info, "test", "too quiet", &[]);
        event(Level::Warn, "test", "loud enough", &[]);
        let record = session.finish();
        let events: Vec<&EventRecord> = record
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Event)
            .collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].message, "loud enough");
    }

    #[test]
    fn stage_wall_ms_aggregates_repeat_calls() {
        let session = Session::begin(ObsConfig::default());
        for _ in 0..3 {
            let _span = stage("repeat");
        }
        let record = session.finish();
        assert_eq!(record.stages.len(), 3);
        assert!(record.stage_wall_ms("repeat").is_some());
        assert_eq!(record.stage_wall_ms("absent"), None);
    }

    #[test]
    fn worker_thread_metrics_merge_into_snapshot() {
        let session = Session::begin(ObsConfig::default());
        counter("t", 1);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    counter("t", 10);
                    histogram("h", 3);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap_or(());
        }
        let record = session.finish();
        assert_eq!(record.metrics.counters["t"], 41);
        assert_eq!(record.metrics.histograms["h"].count, 4);
    }
}
