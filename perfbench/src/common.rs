//! Helpers shared by the workloads: the serving snapshot input, peak
//! memory, repeated set-up timing, the serve runs' phase clock and reply
//! classification.

use std::process::Command;
use std::time::{Duration, Instant};

use intertubes::serve::{response_kind, StudySnapshot};
use intertubes::Study;

/// Traceroutes in every snapshot the benchmark builds, as the CLI
/// `snapshot` path uses.
pub const PROBES: usize = 10_000;

/// Times each set-up is repeated; the median is reported.
pub const SETUP_REPS: usize = 15;

/// Worker threads and client connections: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host steal time so far, in clock ticks summed over CPUs (`/proc/stat`).
/// A virtual machine's CPUs lose this time to other guests; a run with a
/// large share of it measures the neighbours as much as the program.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Share of the machine's CPU time stolen since `since` ticks, over
/// `seconds` of wall clock, in percent.
pub fn steal_pct(since: u64, seconds: f64) -> f64 {
    let hz = 100.0; // USER_HZ on Linux
    let cpus = nproc() as f64;
    (steal_ticks().saturating_sub(since)) as f64 / hz / (seconds * cpus) * 100.0
}

/// The encoded reference-study snapshot the serve workloads load.
pub fn reference_snapshot_bytes() -> Result<Vec<u8>, String> {
    Study::reference()
        .snapshot(Some(PROBES))
        .to_bytes()
        .map_err(|e| e.to_string())
}

/// Builds the serving input in a child process, so the study build's
/// memory never counts toward the serving run's peak RSS. The child is
/// this binary with `--emit-snapshot`; `output` waits for it to exit.
pub fn snapshot_from_child() -> Result<Vec<u8>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--emit-snapshot")
        .output()
        .map_err(|e| format!("cannot start the snapshot child process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "snapshot child process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    // Fail here, not mid-run, if the bytes do not load.
    StudySnapshot::from_bytes(&out.stdout).map_err(|e| e.to_string())?;
    Ok(out.stdout)
}

/// Runs `setup` [`SETUP_REPS`] times, timing each, and returns the
/// median seconds with the last repetition's product. Earlier products are
/// dropped (or torn down by `teardown`) before the next repetition.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        let product = setup()?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(product);
    }
    let median = crate::stats::median(&secs).unwrap_or(0.0);
    last.map(|p| (median, p))
        .ok_or_else(|| "no set-up ran".to_string())
}

/// Where a serve-run request falls: warm-up, then the timed window, whose
/// second half is traced in a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Discarded: connecting, cold caches, first requests.
    Warmup,
    /// Timed, no layer timing.
    Untraced,
    /// Timed, each request followed by its layer timings.
    Traced,
}

/// The phase boundaries of one serve run.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// When the timed window opens.
    pub warm_end: Instant,
    untraced_end: Instant,
    end: Instant,
}

impl Clock {
    /// Starts the clock now: `warmup`, then `seconds` timed, the second
    /// half traced when `traced`.
    pub fn start(warmup: Duration, seconds: f64, traced: bool) -> Clock {
        let warm_end = Instant::now() + warmup;
        let timed = Duration::from_secs_f64(seconds);
        let untraced = if traced { timed / 2 } else { timed };
        Clock {
            warm_end,
            untraced_end: warm_end + untraced,
            end: warm_end + timed,
        }
    }

    /// The phase of a request sent at `t`, `None` once the run is over.
    pub fn phase(&self, t: Instant) -> Option<Phase> {
        if t >= self.end {
            None
        } else if t < self.warm_end {
            Some(Phase::Warmup)
        } else if t < self.untraced_end {
            Some(Phase::Untraced)
        } else {
            Some(Phase::Traced)
        }
    }
}

/// Timed operation durations by phase, as whole nanoseconds in `u32`
/// (enough for 4 s), so the benchmark's own bookkeeping adds little to
/// the peak memory it reports.
#[derive(Debug, Default)]
pub struct PhaseTimes {
    untraced: Vec<u32>,
    traced: Vec<u32>,
}

impl PhaseTimes {
    /// Records one operation; warm-up operations are not kept.
    pub fn push(&mut self, phase: Phase, ns: f64) {
        let ns = ns.min(u32::MAX as f64) as u32;
        match phase {
            Phase::Warmup => {}
            Phase::Untraced => self.untraced.push(ns),
            Phase::Traced => self.traced.push(ns),
        }
    }

    /// Folds another connection's times into these.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.untraced.extend_from_slice(&other.untraced);
        self.traced.extend_from_slice(&other.traced);
    }

    /// The durations of one phase, in microseconds.
    pub fn us(&self, phase: Phase) -> Vec<f64> {
        let ns = match phase {
            Phase::Warmup => &[][..],
            Phase::Untraced => &self.untraced,
            Phase::Traced => &self.traced,
        };
        ns.iter().map(|&n| f64::from(n) / 1e3).collect()
    }
}

/// The tail of `us` for the detail line, `null` when the sample is too
/// small to have one (see [`crate::stats::tail`]).
pub fn tail_detail(us: &[f64]) -> serde_json::Value {
    match crate::stats::tail(us) {
        Some(t) => serde_json::json!({
            "percentile": t.percentile,
            "tail_us": t.value,
            "samples": us.len(),
            "beyond": t.beyond,
        }),
        None => serde_json::Value::Null,
    }
}

/// Whether a canonical reply is a refusal or an error rather than an
/// answer: these count as failed operations.
pub fn is_failure_reply(json: &str) -> bool {
    matches!(
        response_kind(json),
        "Rejected" | "Degraded" | "InvalidQuery" | "unknown"
    )
}
