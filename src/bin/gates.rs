//! `gates` — the gate runner: everything CI measures or gates.
//!
//! One declarative table holds the `lint` group (every first-party manifest
//! opts into the workspace lints, `cargo fmt --all -- --check` finds
//! nothing to reformat, and `cargo clippy --workspace --all-targets`
//! passes with `unwrap_used`/`expect_used` denied outside tests), every
//! CLI arm of the byte-identity contract (DESIGN.md §8, §9.5, §11–§14),
//! and the four BENCH records with their floors. An arm is an
//! `intertubes` argv, the exit codes it may return, and the files it
//! writes. Arms whose names differ only in their last `/` segment form a
//! compare group: they must agree on their exit code and, when they
//! succeed, write byte-identical files (byte-identical canonical forms for
//! stats documents). The reference world is frozen once, plus the
//! `--seed 42` world the remote arms route to; the first failed check stops
//! the run and names the arm.
//!
//! ```sh
//! cargo build --release --workspace --bins && ./target/release/gates
//! ```
//!
//! Everything lands in `gates/` at the repository root, which CI uploads.
//! Each BENCH record is judged against the committed `BENCH_*.json` at the
//! repository root and written only to `gates/`: the runner never rewrites
//! a baseline, so a run that passes a few percent slow cannot become the
//! next run's reference. Re-recording a baseline is a deliberate copy from
//! `gates/` in a commit. It exits 0 when every check passes, and 1 on the
//! first failure or any argument.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::Duration;

use intertubes::obs::validate_manifest;
use intertubes::serve::canonicalize_stats;
use serde_json::{json, Value};

type Res<T = ()> = Result<T, String>;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
/// The reference world's snapshot, relative to the work directory `gates/`.
const REF: &str = "ref.snap";
const THREADS: [u32; 3] = [1, 2, 8];
const OK: &[i32] = &[0];
/// Success, or the CLI's data-error exit for a deterministic load failure.
const OK_OR_DATA_ERROR: &[i32] = &[0, 3];
/// A server gets 30 s to write its address and 600 s to exit on its own.
const POLL: Duration = Duration::from_millis(50);
const ADDR_POLLS: u32 = 600;
const EXIT_POLLS: u32 = 12_000;

/// BENCH_parallel floors: hosts with `MIN_CORES`+ cores must show
/// `MIN_SPEEDUP`x on at least `MIN_STAGES` of the four stages, and every
/// host must keep `latency_paths` serial time, the median of
/// `MEDIAN_RUNS` processes, within `MAX_REGRESSION_PCT` of the committed
/// record (itself such a median).
const MIN_CORES: u64 = 4;
const MIN_SPEEDUP: f64 = 2.0;
const MIN_STAGES: usize = 2;
const MAX_REGRESSION_PCT: f64 = 20.0;
const MEDIAN_RUNS: usize = 5;
/// The per-query path-engine timings the `latency_paths` row must carry.
const PATH_QUERY_FIELDS: &str = "csr_dijkstra_cold csr_dijkstra_warm csr_alt_cold csr_alt_warm";

/// The fields a BENCH_serve record must carry: the rebuild, save, load and
/// engine-freeze medians, then the replay's headline.
const SERVE_FIELDS: &str =
    "rebuild_ms save_ms load_ms engine_ms p50_us p99_us hit_rate max_queue_depth";

/// Stages each traced run profile must record: the whole pipeline for
/// `export`, the scheduler for `serve`, the ensemble for `scenario`, and
/// the transport spans around the scheduler for `serve --listen`. The
/// export's §4.3 work is `probes.fold`: its overlay streams the campaign
/// through one span instead of collecting it (`probes.campaign`) and then
/// overlaying it (`overlay`).
const EXPORT_STAGES: &str = "world.generate corpus.generate world.publish records.sanitize \
    map.sanitize map.step1 map.step2 map.step3 map.step4 probes.fold risk.matrix risk.hamming \
    mitigation.robustness mitigation.augmentation mitigation.latency";
const SERVE_STAGES: &str = "serve.load serve.replay serve.schedule";
const SCENARIO_STAGES: &str = "serve.load scenario.ensemble";
const REMOTE_STAGES: &str = "serve.load net.accept net.frame net.route serve.schedule";

/// Keys that must not survive canonicalization: the runner's own list, not
/// `intertubes::serve::NONCANONICAL_STATS_KEYS`, so a key dropped from the
/// library's strip list fails here.
const FORBIDDEN_CANONICAL_KEYS: &str =
    "timing cache cache_hits cache_misses stale_served hit_rate outcome duration_bucket";

/// A file an arm writes and what is checked in it.
enum Out {
    /// Byte-compared with the same file of the group's first arm.
    Bytes(String),
    /// A stats document: validated (a faulted one, `.1`, must show injected
    /// faults), its `.prom` sibling checked, and its canonical form written
    /// beside it as `canon_*` and compared.
    Stats(String, bool),
    /// A `--trace-json` file whose manifest must record these stages.
    Trace(String, &'static str),
    /// Must still be byte-equal to the reference snapshot.
    Unchanged(String),
}

/// One `intertubes` run. An arm that writes nothing checked is a driver (a
/// freeze, a server, a client poking one, the victim's load): its exit code
/// is checked, but it is not reported as a gate arm.
struct Arm {
    name: String,
    codes: &'static [i32],
    argv: Vec<String>,
    outs: Vec<Out>,
}

/// A `bench_*` bin whose stdout is a BENCH record holding `fields`, judged
/// by `floors` against the committed record, when there is one.
struct Bench {
    bin: &'static str,
    record: &'static str,
    fields: &'static str,
    floors: fn(&Value, Option<&Value>) -> Res,
    /// `Some(key)` runs the bin in `MEDIAN_RUNS` processes and judges (and
    /// keeps) the record whose `key` is their median: on a shared host a
    /// timing varies far more between processes than within one.
    median_by: Option<Key>,
}

/// Reads the figure a median bench ranks its runs by.
type Key = fn(&Value) -> Res<f64>;

enum Step {
    Run(Arm),
    /// A `serve --listen` server and the clients that drive it; `{addr}` in
    /// a client's argv becomes the address the server writes to `.1`.
    Listen(Arm, String, Vec<Arm>),
    Bench(Bench),
    /// The workspace-lint opt-in sweep and `cargo clippy --workspace
    /// --all-targets`.
    Lint,
}

/// Splits `line` on whitespace: no argument in the table holds a space.
fn arm(name: impl Into<String>, codes: &'static [i32], line: &str, outs: Vec<Out>) -> Arm {
    let argv = line.split_whitespace().map(String::from).collect();
    let name = name.into();
    Arm {
        name,
        codes,
        argv,
        outs,
    }
}

/// The gate table, group by group, formatted by hand as rows.
#[rustfmt::skip]
fn table() -> Vec<(&'static str, Vec<Step>)> {
    let run = |name: String, line: String, out: Out| Step::Run(arm(name, OK, &line, vec![out]));
    let bench = |bin, record, fields| {
        Step::Bench(Bench { bin, record, fields, floors: |doc, _| deterministic(doc),
                            median_by: None })
    };
    let golden = |name: &str| format!("../tests/goldens/{name}.scenario.json");

    // Each run profile's trace validates with its required stage set.
    let traced = |name: &str, stages, rest: String| {
        let path = format!("trace/{name}.jsonl");
        let line = format!("--trace-json {path} {rest}");
        arm(format!("trace/{name}"), OK, &line, vec![Out::Trace(path, stages)])
    };
    let poke = r#"query --connect {addr} --snapshot-id study {"TopShared":{"k":3}}"#;
    let trace = vec![
        Step::Run(traced("export", EXPORT_STAGES,
            "--metrics-out trace/metrics.json export trace/artifacts".into())),
        Step::Run(traced("serve", SERVE_STAGES,
            format!("serve --snapshot {REF} --replay 2000 --out /dev/null --stats /dev/null"))),
        Step::Run(traced("scenario", SCENARIO_STAGES, format!("scenario {} --snapshot {REF} \
            --out trace/scenario-report.json", golden("hurricane-corridor")))),
        Step::Listen(traced("remote", REMOTE_STAGES, format!("serve --snapshot study={REF} \
            --listen 127.0.0.1:0 --addr-file trace/remote.addr --sessions 1 --stats /dev/null")),
            "trace/remote.addr".into(), vec![arm("trace/remote client", OK, poke, vec![])]),
    ];

    // A 10 000-query replay is byte-identical at 1/2/8 threads and with the
    // result cache off.
    let replay = |name: &str, t: u32, rest: &str| {
        let out = format!("serve/{name}.jsonl");
        let line = format!("--threads {t} serve --snapshot {REF} --replay 10000 \
            --out {out} {rest}");
        run(format!("serve/{name}"), line, Out::Bytes(out))
    };
    let serve = vec![
        replay("t1", 1, "--stats serve/stats.json"),
        replay("t2", 2, "--stats /dev/null"),
        replay("t8", 8, "--stats /dev/null"),
        replay("t2-nocache", 2, "--no-cache --stats /dev/null"),
        bench("bench_serve", "BENCH_serve.json", SERVE_FIELDS),
    ];

    // Every built-in chaos scenario under both policies exits 0 or 3 (never
    // a panic) and agrees across 1/2/8 threads; a torn-write save leaves the
    // published snapshot intact and loadable.
    let mut chaos = Vec::new();
    let scenarios = "torn-write flaky-io bit-rot poisoned-cache overload chaos-everything";
    for scenario in scenarios.split(' ') {
        for policy in ["strict", "lenient"] {
            for t in THREADS {
                let stem = format!("chaos/{scenario}_{policy}_t{t}");
                let line = format!("--{policy} --threads {t} serve --snapshot {REF} --replay 2000 \
                    --queue 64 --chaos {scenario} --chaos-report {stem}.chaos.json \
                    --out {stem}.jsonl --stats /dev/null");
                let outs = [".jsonl", ".chaos.json"].map(|ext| Out::Bytes(format!("{stem}{ext}")));
                let name = format!("chaos/{scenario}/{policy}/t{t}");
                chaos.push(Step::Run(arm(name, OK_OR_DATA_ERROR, &line, outs.into())));
            }
        }
    }
    let victim = vec![Out::Unchanged("chaos/victim.snap".into())];
    let load = r#"query --snapshot chaos/victim.snap {"TopShared":{"k":1}}"#;
    chaos.push(Step::Run(arm("chaos/torn-write-save", OK_OR_DATA_ERROR,
                             "snapshot chaos/victim.snap --chaos torn-write", victim)));
    chaos.push(Step::Run(arm("chaos/torn-write-save load", OK, load, vec![])));

    // Canonical stats documents are byte-identical across 1/2/8 threads and
    // cache on/off, clean and under the seeded `overload` scenario (never
    // `poisoned-cache`: poisoning is a no-op with the cache off, so its
    // ledger legitimately differs across cache modes).
    let mut stats = Vec::new();
    for (set, faulted) in [("clean", false), ("chaos", true)] {
        for (mode, no_cache) in [("cache", ""), ("nocache", "--no-cache")] {
            for t in THREADS {
                let label = format!("{}{mode}_t{t}", if faulted { "chaos_" } else { "" });
                let overload = match (faulted, mode, t) {
                    (false, ..) => "",
                    (_, "cache", 1) => "--chaos overload --chaos-report stats/chaos_report_t1.json",
                    _ => "--chaos overload --chaos-report /dev/null",
                };
                let path = format!("stats/stats_{label}.json");
                let line = format!("--threads {t} serve --snapshot {REF} --replay 6000 {no_cache} \
                    {overload} --out stats/resp_{label}.jsonl --stats /dev/null \
                    --stats-out {path}");
                stats.push(run(format!("stats/{set}/{label}"), line, Out::Stats(path, faulted)));
            }
        }
    }

    // Both golden ensemble plans report byte-identically at 1/2/8 threads.
    let mut scenario = Vec::new();
    for name in ["hurricane-corridor", "earthquake-disc"] {
        for t in THREADS {
            let out = format!("scenario/{name}.t{t}.json");
            let line = format!("--threads {t} scenario {} --snapshot {REF} --out {out}",
                               golden(name));
            scenario.push(run(format!("scenario/{name}/t{t}"), line, Out::Bytes(out)));
        }
    }
    scenario.push(Step::Bench(Bench {
        bin: "bench_scenario",
        record: "BENCH_scenario.json",
        fields: "threads cores floor_eligible serial_ms parallel_ms speedup \
                 scenarios_per_sec_serial scenarios_per_sec_parallel",
        floors: |doc, _| deterministic(doc).and_then(|()| scenario_floors(doc)),
        median_by: None,
    }));

    // Replays over framed TCP byte-match the local replay of the same
    // snapshot at 1/2/8 clients, cache on and off, and under torn-frame
    // chaos. `--sessions N` counts client-initiated closes and a
    // `--clients K` run makes K of them, so every server exits on its own:
    // each cache mode's server serves both snapshots to (1+2+8) x 2 = 22.
    let client = |label: &str, snap: &str, clients: u32| {
        let out = format!("remote/{label}_{snap}_c{clients}.jsonl");
        let line = format!("query --connect {{addr}} --tenant gate --snapshot-id {snap} \
            --workload-from {snap}.snap --replay 2000 --clients {clients} --out {out}");
        arm(format!("remote/{snap}/{label}-c{clients}"), OK, &line, vec![Out::Bytes(out)])
    };
    let mut remote = Vec::new();
    for snap in ["ref", "alt"] {
        let out = format!("remote/local_{snap}.jsonl");
        let line = format!("serve --snapshot {snap}.snap --replay 2000 --out {out} \
            --stats /dev/null");
        remote.push(run(format!("remote/{snap}/local"), line, Out::Bytes(out)));
    }
    for (mode, no_cache) in [("cache", ""), ("nocache", "--no-cache")] {
        let addr = format!("remote/{mode}.addr");
        let line = format!("serve --snapshot ref=ref.snap --snapshot alt=alt.snap \
            --listen 127.0.0.1:0 --addr-file {addr} --sessions 22 --stats /dev/null {no_cache}");
        let server = arm(format!("remote/{mode} server"), OK, &line, vec![]);
        let clients = ["ref", "alt"].iter().flat_map(|s| THREADS.map(|c| client(mode, s, c)));
        remote.push(Step::Listen(server, addr, clients.collect()));
    }
    let line = "serve --snapshot ref=ref.snap --listen 127.0.0.1:0 \
        --addr-file remote/chaos.addr --sessions 2 --chaos torn-frame --stats /dev/null";
    let server = arm("remote/chaos server", OK, line, vec![]);
    remote.push(Step::Listen(server, "remote/chaos.addr".into(), vec![client("chaos", "ref", 2)]));
    remote.push(bench("bench_remote", "BENCH_remote.json",
                      "replay local_digest queries_per_sec frames"));

    // The four parallel hot paths, serial vs parallel (DESIGN.md §7).
    let parallel = vec![Step::Bench(Bench {
        bin: "bench_parallel",
        record: "BENCH_parallel.json",
        fields: "threads cores floor_eligible stages",
        floors: parallel_floors,
        median_by: Some(latency_serial_ms),
    })];

    vec![("lint", vec![Step::Lint]), ("trace", trace), ("serve", serve), ("chaos", chaos),
         ("stats", stats), ("scenario", scenario), ("remote", remote), ("parallel", parallel)]
}

fn main() {
    if let Err(e) = gate() {
        eprintln!("gates: FAIL — {e}");
        std::process::exit(1);
    }
}

fn gate() -> Res {
    if std::env::args().len() > 1 {
        return Err("the runner takes no arguments".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the runner: {e}"))?;
    let mut runner = Runner {
        bins: exe.parent().ok_or("the runner has no directory")?.into(),
        work: Path::new(ROOT).join("gates"),
        ..Default::default()
    };
    let table = table();
    // Start clean: a stale `.addr` file would point a client at a dead
    // server, and a re-frozen snapshot would leave a `.bak` behind.
    if runner.work.exists() {
        fs::remove_dir_all(&runner.work).map_err(|e| format!("cannot clear gates/: {e}"))?;
    }
    for (group, _) in &table {
        fs::create_dir_all(runner.work.join(group)).map_err(|e| format!("{group}/: {e}"))?;
    }

    println!("gates: freezing the reference and --seed 42 worlds");
    for line in ["snapshot ref.snap", "--seed 42 snapshot alt.snap"] {
        runner.run_arm(&arm(format!("freeze: {line}"), OK, line, vec![]), "")?;
    }
    // The lenient chaos arms' salvage candidate (what a second save would
    // leave), and the torn-write probe's own victim.
    for copy in ["ref.snap.bak", "chaos/victim.snap"] {
        fs::copy(runner.work.join(REF), runner.work.join(copy))
            .map_err(|e| format!("cannot copy {REF} to {copy}: {e}"))?;
    }

    for (group, steps) in &table {
        println!("[{group}]");
        for step in steps {
            match step {
                Step::Run(arm) => runner.run_arm(arm, "")?,
                Step::Listen(server, addr, clients) => runner.listen(server, addr, clients)?,
                Step::Bench(bench) => runner.bench(bench)?,
                Step::Lint => lint()?,
            }
        }
    }
    let (arms, records) = (runner.arms, runner.records);
    println!("gates: OK — lint clean, {arms} arms, {records} bench records");
    Ok(())
}

/// A reported arm: its name, exit code, and the work-relative files its
/// compare group byte-compares.
struct Ran(String, i32, Vec<String>);

#[derive(Default)]
struct Runner {
    bins: PathBuf,
    work: PathBuf,
    /// The first reported arm of each compare group.
    firsts: Vec<Ran>,
    arms: usize,
    records: usize,
}

fn group_of(name: &str) -> &str {
    name.rsplit_once('/').map_or(name, |(group, _)| group)
}

/// Polls every 50 ms, at most `polls` times, until `ready` yields a value.
fn poll<T>(polls: u32, mut ready: impl FnMut() -> Res<Option<T>>) -> Res<T> {
    for _ in 0..polls {
        if let Some(value) = ready()? {
            return Ok(value);
        }
        std::thread::sleep(POLL);
    }
    Err(format!("timed out after {:?}", POLL * polls))
}

impl Runner {
    /// An `intertubes` run in the work directory; no arm's stdout is read.
    fn intertubes(&self, argv: impl IntoIterator<Item = String>) -> Command {
        let mut cmd = Command::new(self.bins.join("intertubes"));
        cmd.args(argv).current_dir(&self.work).stdout(Stdio::null());
        cmd
    }

    /// Runs one arm to completion; `addr` replaces `{addr}` in its argv.
    fn run_arm(&mut self, arm: &Arm, addr: &str) -> Res {
        let argv = arm.argv.iter().map(|a| a.replace("{addr}", addr));
        let out = self.intertubes(argv).output();
        let out = out.map_err(|e| format!("{}: cannot run intertubes: {e}", arm.name))?;
        let stderr = String::from_utf8_lossy(&out.stderr);
        self.judge(arm, out.status, &stderr)
    }

    /// Starts `server`, runs each client against the address it writes,
    /// and waits for the server to exit on its own. The server's stderr
    /// goes to `<addr>.log`.
    fn listen(&mut self, server: &Arm, addr: &str, clients: &[Arm]) -> Res {
        let fail = |e: String| format!("{}: {e}", server.name);
        let (path, log) = (self.work.join(addr), self.work.join(format!("{addr}.log")));
        let stderr = fs::File::create(&log).map_err(|e| fail(e.to_string()))?;
        let mut cmd = self.intertubes(server.argv.iter().cloned());
        let child = cmd.stderr(stderr).spawn();
        let mut child = child.map_err(|e| fail(format!("cannot run intertubes: {e}")))?;
        let mut driven = || -> Res<ExitStatus> {
            let bound = poll(ADDR_POLLS, || {
                let text = fs::read_to_string(&path).unwrap_or_default();
                Ok(text.trim().parse::<SocketAddr>().ok())
            })
            .map_err(fail)?;
            for client in clients {
                self.run_arm(client, &bound.to_string())?;
            }
            poll(EXIT_POLLS, || child.try_wait().map_err(|e| e.to_string())).map_err(fail)
        };
        let status = driven();
        if status.is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let log = fs::read_to_string(&log).unwrap_or_default();
        self.judge(server, status?, &log)
    }

    /// Checks a finished arm's exit code, stderr and files, then compares
    /// it with the first arm of its compare group.
    fn judge(&mut self, arm: &Arm, status: ExitStatus, stderr: &str) -> Res {
        let lines: Vec<&str> = stderr.lines().collect();
        let tail = lines[lines.len().saturating_sub(20)..].join("\n");
        let (name, code) = (&arm.name, status.code().unwrap_or(-1));
        if !arm.codes.contains(&code) {
            return Err(format!("{name}: {status}, want {:?}\n{tail}", arm.codes));
        }
        if stderr.contains("panicked") {
            return Err(format!("{name}: panicked\n{tail}"));
        }
        if arm.outs.is_empty() {
            return Ok(());
        }
        let mut files = Vec::new();
        for out in &arm.outs {
            files.extend(check_out(&self.work, out).map_err(|e| format!("{name}: {e}"))?);
        }
        let ran = Ran(name.clone(), code, files);
        let group = group_of(name);
        match self.firsts.iter().find(|f| group_of(&f.0) == group) {
            Some(first) => compare(&self.work, first, &ran)?,
            None => self.firsts.push(ran),
        }
        self.arms += 1;
        println!("  ok   {name:<36} exit {code}");
        Ok(())
    }

    /// Runs a bench bin (in several processes, for a median bench) and
    /// checks its record against the committed copy. The new record is
    /// written to `gates/` only; the committed copy is never replaced.
    fn bench(&mut self, bench: &Bench) -> Res {
        let (bin, record) = (bench.bin, bench.record);
        let path = Path::new(ROOT).join(record);
        let committed = path.exists().then(|| parse(&read_text(&path)?));
        let committed = committed
            .transpose()
            .map_err(|e| format!("{record}: {e}"))?;
        let runs = bench.median_by.map_or(1, |_| MEDIAN_RUNS);
        let mut texts = Vec::with_capacity(runs);
        for _ in 0..runs {
            let out = Command::new(self.bins.join(bin)).current_dir(ROOT).output();
            let out = out.map_err(|e| format!("{bin}: cannot run: {e}"))?;
            if !out.status.success() {
                let stderr = String::from_utf8_lossy(&out.stderr);
                return Err(format!("{bin}: {}\n{stderr}", out.status));
            }
            texts.push(String::from_utf8_lossy(&out.stdout).into_owned());
        }
        let text = match bench.median_by {
            Some(key) => median_run(texts, key).map_err(|e| format!("{record}: {e}"))?,
            None => texts.pop().unwrap_or_default(),
        };
        write(&self.work.join(record), text.as_bytes())?;
        let checked = parse(&text).and_then(|doc| check_bench(&doc, committed.as_ref(), bench));
        checked.map_err(|e| format!("{record}: {e}"))?;
        self.records += 1;
        println!("  ok   {record:<36} bench record");
        Ok(())
    }
}

/// Checks one output file; returns the file its compare group compares.
fn check_out(work: &Path, out: &Out) -> Res<Option<String>> {
    match out {
        Out::Bytes(path) => Ok(Some(path.clone())),
        Out::Stats(path, faulted) => {
            let text = read_text(&work.join(path))?;
            let prom = read_text(&work.join(format!("{path}.prom")))?;
            let json = check_stats(&text, &prom, *faulted).map_err(|e| format!("{path}: {e}"))?;
            let canon = path.replacen("/stats_", "/canon_", 1);
            write(&work.join(&canon), json + "\n")?;
            Ok(Some(canon))
        }
        Out::Trace(path, stages) => {
            let stages: Vec<&str> = stages.split_whitespace().collect();
            let text = read_text(&work.join(path))?;
            check_trace(&text, &stages).map_err(|e| format!("{path}: {e}"))?;
            Ok(None)
        }
        Out::Unchanged(path) if read(&work.join(path))? == read(&work.join(REF))? => Ok(None),
        Out::Unchanged(path) => Err(format!("{path} is no longer byte-equal to {REF}")),
    }
}

/// `other` must exit like `first` and, when both succeed, write the same
/// bytes to each compared file.
fn compare(work: &Path, first: &Ran, other: &Ran) -> Res {
    let (Ran(a, code_a, files_a), Ran(b, code_b, files_b)) = (first, other);
    if code_a != code_b {
        return Err(format!("{b} exited {code_b} but {a} exited {code_a}"));
    }
    if *code_a != 0 {
        return Ok(());
    }
    for (file_a, file_b) in files_a.iter().zip(files_b) {
        let (left, right) = (read(&work.join(file_a))?, read(&work.join(file_b))?);
        let at = left.iter().zip(&right).take_while(|(x, y)| x == y).count();
        if left != right {
            return Err(format!("{b}: {file_b} != {a}: {file_a} at byte {at}"));
        }
    }
    Ok(())
}

/// The `lint` group. Clippy only judges crates that opt into the
/// workspace lints, so the root manifest and every `crates/*` manifest must
/// (vendored stand-ins under `vendor/` are exempt); then `cargo fmt --all
/// -- --check` and `cargo clippy --workspace --all-targets`, which covers
/// library, binary, test, bench and example targets, must both exit 0.
/// The root `clippy.toml` allows `unwrap`/`expect` in `#[test]` functions
/// and `#[cfg(test)]` modules only.
fn lint() -> Res {
    let crates =
        fs::read_dir(Path::new(ROOT).join("crates")).map_err(|e| format!("crates/: {e}"))?;
    let mut manifests = vec![Path::new(ROOT).join("Cargo.toml")];
    for entry in crates {
        let manifest = entry
            .map_err(|e| format!("crates/: {e}"))?
            .path()
            .join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    for manifest in &manifests {
        if !opts_into_workspace_lints(&read_text(manifest)?) {
            let path = manifest.display();
            return Err(format!(
                "{path} lacks `[lints] workspace = true`, so clippy skips it"
            ));
        }
    }
    println!(
        "  ok   {:<36} {} manifests",
        "lint/workspace-opt-in",
        manifests.len()
    );
    let fmt = Command::new(env!("CARGO"))
        .args(["fmt", "--all", "--", "--check", "-l"])
        .current_dir(ROOT)
        .output();
    let out = fmt.map_err(|e| format!("cannot run cargo fmt: {e}"))?;
    if !out.status.success() {
        let files = String::from_utf8_lossy(&out.stdout);
        return Err(format!(
            "cargo fmt --all -- --check: {}; not rustfmt-clean:\n{}",
            out.status,
            files.trim_end()
        ));
    }
    println!("  ok   {:<36} exit 0", "lint/fmt");
    let clippy = Command::new(env!("CARGO"))
        .args(["clippy", "--workspace", "--all-targets"])
        .current_dir(ROOT)
        .output();
    let out = clippy.map_err(|e| format!("cannot run cargo clippy: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr
            .lines()
            .skip_while(|l| !l.starts_with("error"))
            .take(30)
            .collect();
        return Err(format!(
            "cargo clippy --workspace --all-targets: {}\n{}",
            out.status,
            lines.join("\n")
        ));
    }
    println!("  ok   {:<36} exit 0", "lint/clippy");
    Ok(())
}

/// Whether a manifest holds `[lints]` directly followed by `workspace = true`.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let lines: Vec<&str> = manifest.lines().map(str::trim_end).collect();
    lines
        .windows(2)
        .any(|pair| pair == ["[lints]", "workspace = true"])
}

fn parse(text: &str) -> Res<Value> {
    serde_json::from_str(text).map_err(|e| format!("not JSON: {e:?}"))
}

fn check_bench(doc: &Value, committed: Option<&Value>, bench: &Bench) -> Res {
    for field in bench.fields.split_whitespace() {
        if values_of(doc, field).is_empty() {
            return Err(format!("missing {field:?}"));
        }
    }
    (bench.floors)(doc, committed)
}

/// A serving record must mark every run it timed deterministic.
fn deterministic(doc: &Value) -> Res {
    let flags = values_of(doc, "deterministic");
    if flags.is_empty() || flags.iter().any(|v| v.as_bool() != Some(true)) {
        return Err("recorded a nondeterministic run".into());
    }
    Ok(())
}

/// BENCH_parallel floors. The `latency_paths` row carries every per-query
/// path-engine timing, and its serial time stays within
/// `MAX_REGRESSION_PCT` of the committed record's. When the bench marks the
/// host `floor_eligible` (which must agree with its recorded `cores`), at
/// least `MIN_STAGES` stages reach `MIN_SPEEDUP`x; determinism is
/// `tests/determinism.rs`'s to prove, not this record's.
fn parallel_floors(doc: &Value, committed: Option<&Value>) -> Res {
    let latency = latency_row(doc)?;
    for field in PATH_QUERY_FIELDS.split_whitespace() {
        at(latency, &format!("path_query_us.{field}"), Value::as_f64)?;
    }
    let serial_ms = at(latency, "serial_ms", Value::as_f64)?;
    if let Some(committed) = committed {
        let baseline = latency_serial_ms(committed);
        let baseline = baseline.map_err(|e| format!("committed record: {e}"))?;
        if serial_ms > baseline * (1.0 + MAX_REGRESSION_PCT / 100.0) {
            return Err(format!(
                "latency_paths serial {serial_ms} ms is more than \
                {MAX_REGRESSION_PCT}% over the committed {baseline} ms"
            ));
        }
    }
    let cores = at(doc, "cores", Value::as_u64)?;
    let eligible = at(doc, "floor_eligible", Value::as_bool)?;
    if eligible != (cores >= MIN_CORES) {
        return Err(format!(
            "floor_eligible {eligible} disagrees with {cores} cores"
        ));
    }
    let stages = at(doc, "stages", Value::as_array)?;
    let speedups = stages
        .iter()
        .filter_map(|s| s.get("speedup").and_then(Value::as_f64));
    let fast = speedups.filter(|&x| x >= MIN_SPEEDUP).count();
    if eligible && fast < MIN_STAGES {
        return Err(format!(
            "{fast} stage(s) at >= {MIN_SPEEDUP}x, need {MIN_STAGES}"
        ));
    }
    Ok(())
}

/// The `latency_paths` serial time of a BENCH_parallel record.
fn latency_serial_ms(doc: &Value) -> Res<f64> {
    at(latency_row(doc)?, "serial_ms", Value::as_f64)
}

/// The record, of several runs' stdout, whose `key` is the median (the
/// upper one for an even count).
fn median_run(texts: Vec<String>, key: Key) -> Res<String> {
    let mut keyed = Vec::with_capacity(texts.len());
    for text in texts {
        keyed.push((key(&parse(&text)?)?, text));
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let middle = keyed.len() / 2;
    keyed
        .into_iter()
        .nth(middle)
        .map(|(_, text)| text)
        .ok_or_else(|| "no run to judge".into())
}

/// The `latency_paths` row of a BENCH_parallel record.
fn latency_row(doc: &Value) -> Res<&Value> {
    let stages = at(doc, "stages", Value::as_array)?;
    let row = stages
        .iter()
        .find(|s| s.get("stage") == Some(&json!("latency_paths")));
    row.ok_or_else(|| "no latency_paths stage".into())
}

/// BENCH_scenario floors: a serial 10 k-draw ensemble under 5 s, and a
/// ≥ 2x parallel speedup on 4+-core runners (`floor_eligible`).
fn scenario_floors(doc: &Value) -> Res {
    let serial_ms = at(doc, "serial_ms", Value::as_f64)?;
    let speedup = at(doc, "speedup", Value::as_f64)?;
    if serial_ms >= 5000.0 {
        return Err(format!("serial run took {serial_ms} ms, over 5000"));
    }
    if at(doc, "floor_eligible", Value::as_bool)? && speedup < 2.0 {
        return Err(format!("speedup {speedup}x is below the 2x floor"));
    }
    Ok(())
}

/// Every value stored under `key` anywhere in `value`.
fn values_of<'a>(value: &'a Value, key: &str) -> Vec<&'a Value> {
    let children: Vec<&Value> = match value {
        Value::Object(map) => map.iter().map(|(_, v)| v).collect(),
        Value::Array(items) => items.iter().collect(),
        _ => Vec::new(),
    };
    let nested = children.into_iter().flat_map(|v| values_of(v, key));
    value.get(key).into_iter().chain(nested).collect()
}

/// The value at a dotted path such as `counts.submitted`, read as a `T`.
fn at<'a, T>(doc: &'a Value, path: &str, read: fn(&'a Value) -> Option<T>) -> Res<T> {
    let found = path.split('.').try_fold(doc, |v, key| v.get(key));
    let value = found.and_then(read);
    value.ok_or_else(|| format!("{path} missing or mistyped"))
}

/// Validates a `--trace-json` file: every line JSON with a `type`, the last
/// one a manifest with exit status 0 that records every required stage.
fn check_trace(text: &str, stages: &[&str]) -> Res {
    let mut last = Value::Null;
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        last = serde_json::from_str(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        at(&last, "type", Value::as_str).map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    if at(&last, "type", Value::as_str)? != "manifest" {
        return Err("final line is not the run manifest".into());
    }
    if at(&last, "run.exit_status", Value::as_i64)? != 0 {
        return Err("manifest records a non-zero exit status".into());
    }
    validate_manifest(&last, stages).map_err(|problems| problems.join("; "))
}

/// Validates a full stats document (schema, count-plane consistency,
/// timing-plane quantiles, flight-recorder shape) and its Prometheus
/// sibling, returning the canonical form as compact JSON.
fn check_stats(text: &str, prom: &str, faulted: bool) -> Res<String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e:?}"))?;
    if at(&doc, "schema", Value::as_str)? != "intertubes-stats/v1" {
        return Err("schema is not intertubes-stats/v1".into());
    }
    let count = |key: &str| at(&doc, &format!("counts.{key}"), Value::as_u64);
    for key in ["waves", "degraded", "health_transitions", "flight_dumps"] {
        count(key)?;
    }
    let (submitted, admitted) = (count("submitted")?, count("admitted")?);
    if admitted + count("rejected")? != submitted {
        return Err(format!("admitted + rejected != submitted {submitted}"));
    }
    let families = at(&doc, "counts.families", Value::as_object)?;
    let total: u64 = families.iter().filter_map(|(_, v)| v.as_u64()).sum();
    if total != admitted {
        return Err(format!("families sum to {total}, not admitted {admitted}"));
    }
    at(&doc, "counts.responses", Value::as_object)?;
    for (family, hist) in at(&doc, "timing.per_family", Value::as_object)?.iter() {
        for q in ["p50_us", "p95_us", "p99_us"] {
            at(hist, q, Value::as_u64).map_err(|e| format!("timing.per_family.{family}.{e}"))?;
        }
    }
    at(&doc, "timing.queue_depth", Some)?;
    at(&doc, "flight.capacity", Value::as_u64)?;
    at(&doc, "flight.pushed", Value::as_u64)?;
    let dumps = at(&doc, "flight.dumps", Value::as_array)?;
    for dump in dumps {
        at(dump, "reason", Value::as_str)?;
        at(dump, "events", Value::as_array)?;
    }
    let fault = json!("fault_injected");
    let injected = dumps.iter().any(|d| d.get("reason") == Some(&fault));
    if faulted && (!injected || count("degraded")? == 0) {
        return Err("chaos arm injected no fault or degraded nothing".into());
    }
    let submitted_total = "intertubes_serve_submitted_total";
    if !prom.lines().any(|l| l.starts_with(submitted_total)) {
        return Err(format!(".prom sibling lacks {submitted_total}"));
    }
    let canon = canonicalize_stats(&doc);
    check_canonical(&canon)?;
    serde_json::to_string(&canon).map_err(|e| format!("cannot serialize canonical form: {e:?}"))
}

/// Fails if any forbidden key survives anywhere in a canonical document.
fn check_canonical(canon: &Value) -> Res {
    let mut forbidden = FORBIDDEN_CANONICAL_KEYS.split(' ');
    match forbidden.find(|key| !values_of(canon, key).is_empty()) {
        Some(key) => Err(format!("non-canonical {key:?} survived")),
        None => Ok(()),
    }
}

fn read(path: &Path) -> Res<Vec<u8>> {
    fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn read_text(path: &Path) -> Res<String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write(path: &Path, text: impl AsRef<[u8]>) -> Res {
    fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A check's error message, or "" when it passed.
    fn err(result: Res) -> String {
        result.err().unwrap_or_default()
    }

    #[test]
    fn a_one_byte_difference_names_both_arms_and_the_file() {
        let work = std::env::temp_dir().join(format!("gates-compare-{}", std::process::id()));
        let written = fs::create_dir_all(&work)
            .and_then(|()| fs::write(work.join("a.jsonl"), "{\"k\":1}\n"))
            .and_then(|()| fs::write(work.join("b.jsonl"), "{\"k\":2}\n"));
        assert!(written.is_ok(), "cannot write fixtures: {written:?}");
        let ran = |name: &str, file: &str| Ran(name.into(), 0, vec![file.into()]);
        let first = ran("serve/t1", "a.jsonl");
        let same = compare(&work, &first, &ran("serve/t2", "a.jsonl"));
        let differ = compare(&work, &first, &ran("serve/t8", "b.jsonl"));
        let _ = fs::remove_dir_all(&work);
        assert_eq!(same, Ok(()));
        let msg = err(differ);
        for needle in ["serve/t1", "serve/t8", "b.jsonl", "byte 5"] {
            assert!(msg.contains(needle), "{msg:?} does not name {needle}");
        }
    }

    #[test]
    fn a_serve_record_missing_engine_ms_fails() {
        let serve = Bench {
            bin: "bench_serve",
            record: "BENCH_serve.json",
            fields: SERVE_FIELDS,
            floors: |doc, _| deterministic(doc),
            median_by: None,
        };
        let record = |skip: &str| {
            let mut fields: serde_json::Map = (SERVE_FIELDS.split_whitespace())
                .filter(|&f| f != skip)
                .map(|f| (f.to_string(), json!(1.0)))
                .collect();
            fields.insert("deterministic".into(), json!(true));
            Value::Object(fields)
        };
        assert_eq!(check_bench(&record(""), None, &serve), Ok(()));
        let msg = err(check_bench(&record("engine_ms"), None, &serve));
        assert!(msg.contains("missing \"engine_ms\""), "{msg:?}");
    }

    #[test]
    fn timing_surviving_canonicalization_fails() {
        let leaked = json!({"counts": {"submitted": 1}, "flight": {"dumps": [{"timing": {}}]}});
        let msg = err(check_canonical(&leaked));
        assert!(msg.contains("\"timing\" survived"), "{msg:?}");
        assert_eq!(check_canonical(&canonicalize_stats(&leaked)), Ok(()));
    }

    /// A BENCH_parallel record on a `cores`-core host whose four stages
    /// reach `speedups`, `latency_paths` (the last) at `serial_ms`.
    fn parallel_record(cores: u64, serial_ms: f64, speedups: [f64; 4]) -> Value {
        let queries = PATH_QUERY_FIELDS
            .split_whitespace()
            .map(|f| (f.to_string(), json!(0.4)));
        let names = ["pipeline", "overlay", "risk_hamming", "latency_paths"];
        let stages = names.into_iter().zip(speedups).map(|(name, speedup)| {
            json!({"stage": name, "serial_ms": serial_ms, "speedup": speedup,
                   "path_query_us": (Value::Object(queries.clone().collect()))})
        });
        json!({"threads": 2, "cores": cores, "floor_eligible": (cores >= MIN_CORES),
               "stages": (Value::Array(stages.collect()))})
    }

    /// Judges a 1-core record with `latency_paths` at `ratio` times the
    /// committed 12.98 ms.
    fn against_baseline(ratio: f64) -> Res {
        let committed = parallel_record(1, 12.98, [1.0; 4]);
        parallel_floors(
            &parallel_record(1, 12.98 * ratio, [1.0; 4]),
            Some(&committed),
        )
    }

    #[test]
    fn a_run_19_percent_over_the_baseline_passes() {
        assert_eq!(against_baseline(1.19), Ok(()));
    }

    #[test]
    fn a_run_21_percent_over_the_baseline_fails() {
        let msg = err(against_baseline(1.21));
        assert!(
            msg.contains("more than 20% over the committed 12.98 ms"),
            "{msg:?}"
        );
    }

    #[test]
    fn one_slow_process_of_five_does_not_fail_the_median() {
        let committed = parallel_record(1, 12.98, [1.0; 4]);
        let judge = |ratios: [f64; 5]| {
            let record = |r: f64| parallel_record(1, 12.98 * r, [1.0; 4]);
            let texts = ratios.map(|r| serde_json::to_string(&record(r)).unwrap_or_default());
            let median = median_run(texts.to_vec(), latency_serial_ms)?;
            parallel_floors(&parse(&median)?, Some(&committed))
        };
        assert_eq!(judge([1.0, 1.5, 0.95, 1.1, 1.3]), Ok(()));
        let msg = err(judge([1.3, 1.0, 1.25, 1.22, 0.9]));
        assert!(msg.contains("more than 20% over"), "{msg:?}");
    }

    #[test]
    fn a_record_missing_csr_alt_warm_fails() {
        let text = serde_json::to_string(&parallel_record(1, 12.0, [1.0; 4])).unwrap_or_default();
        let record = parse(&text.replace("csr_alt_warm", "csr_alt_lukewarm")).unwrap_or_default();
        let msg = err(parallel_floors(&record, None));
        assert!(
            msg.contains("path_query_us.csr_alt_warm missing"),
            "{msg:?}"
        );
    }

    #[test]
    fn an_ineligible_host_with_no_fast_stage_passes() {
        assert_eq!(
            parallel_floors(&parallel_record(1, 12.0, [0.9; 4]), None),
            Ok(())
        );
    }

    #[test]
    fn an_eligible_host_with_one_fast_stage_fails() {
        let msg = err(parallel_floors(
            &parallel_record(4, 12.0, [2.5, 1.0, 1.0, 1.0]),
            None,
        ));
        assert!(msg.contains("1 stage(s) at >= 2x, need 2"), "{msg:?}");
        let two_fast = parallel_record(4, 12.0, [2.5, 2.0, 1.0, 1.0]);
        assert_eq!(parallel_floors(&two_fast, None), Ok(()));
    }

    #[test]
    fn floor_eligibility_must_match_the_recorded_cores() {
        let text = serde_json::to_string(&parallel_record(4, 12.0, [1.0; 4])).unwrap_or_default();
        let text = text.replace("\"floor_eligible\":true", "\"floor_eligible\":false");
        let msg = err(parallel_floors(&parse(&text).unwrap_or_default(), None));
        assert!(msg.contains("disagrees with 4 cores"), "{msg:?}");
    }

    #[test]
    fn manifests_must_opt_into_the_workspace_lints() {
        let opted = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        assert!(opts_into_workspace_lints(opted));
        assert!(!opts_into_workspace_lints("[package]\nname = \"x\"\n"));
        assert!(!opts_into_workspace_lints(
            "[lints]\n\n[lints.clippy]\nworkspace = true\n"
        ));
    }

    #[test]
    fn a_trace_missing_a_required_stage_fails() {
        let record = json!({"calls": 1, "outcome": "ok", "wall_ms": 0.5, "items": {}});
        let trace = |stages: &[&str]| {
            let stages = stages.iter().map(|s| (s.to_string(), record.clone()));
            let manifest = json!({
                "type": "manifest",
                "schema": "intertubes-obs/v1",
                "run": {"command": "serve", "seed": 1, "policy": "lenient", "exit_status": 0,
                        "fault_plan": null, "health": null},
                "environment": {"threads": 1},
                "stages": (Value::Object(stages.collect())),
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}}
            });
            let line = serde_json::to_string(&manifest).unwrap_or_default();
            format!("{{\"type\":\"event\",\"message\":\"hi\"}}\n{line}\n")
        };
        let profile: Vec<&str> = SERVE_STAGES.split(' ').collect();
        assert_eq!(check_trace(&trace(&profile), &profile), Ok(()));
        let msg = err(check_trace(&trace(&profile[..2]), &profile));
        assert!(msg.contains("missing: serve.schedule"), "{msg:?}");
    }
}
