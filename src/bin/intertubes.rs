//! `intertubes` — command-line front end for the reproduction.
//!
//! Machine-readable exports of the study's artifacts (the `figures` binary
//! in `intertubes-bench` prints human-readable tables; this tool writes
//! JSON/GeoJSON/CSV for downstream tooling).
//!
//! ```sh
//! intertubes summary                    # map summary as JSON on stdout
//! intertubes geojson map.geojson        # Fig. 1 as GeoJSON
//! intertubes risk risk.json             # risk matrix + §4.2 metrics
//! intertubes sharing-csv sharing.csv    # per-conduit tenant counts
//! intertubes latency latency.json       # §5.3 per-pair delays
//! intertubes robustness rob.json        # §5.1 PI/SRR + peering suggestions
//! intertubes export out/                # everything, one file per artifact
//! intertubes --seed 42 summary          # any subcommand on another world
//! intertubes --strict summary           # abort (exit 3) on any dirty input
//! intertubes --faults plan.json summary # inject faults, degrade, report
//! intertubes --trace-json t.jsonl \
//!            --metrics-out m.json export out/   # structured trace + metrics
//! intertubes snapshot study.snap       # freeze the study (DESIGN.md §9)
//! intertubes snapshot study.snap --chaos torn-write
//!                                      # crash-safe save under injected faults
//! intertubes serve --snapshot study.snap --replay 10000 \
//!            --out responses.jsonl     # replay a mixed workload
//! intertubes serve --snapshot study.snap --chaos flaky-io \
//!            --chaos-report chaos.json # runtime fault injection (DESIGN.md §11)
//! intertubes serve --snapshot study.snap --stats-out stats.json
//!                                      # telemetry: count+timing planes, flight
//!                                      # recorder, plus stats.json.prom
//! intertubes query --snapshot study.snap '{"TopShared":{"k":8}}'
//! intertubes query --snapshot study.snap '"Stats"'  # telemetry self-query
//! intertubes scenario hurricane.json --snapshot study.snap \
//!            --out risk.json           # seeded scenario ensemble (DESIGN.md §12)
//! ```
//!
//! `serve`, `query`, and `scenario` never build a study: they load the frozen snapshot
//! (milliseconds) and answer from it, which is the whole point of the
//! serving split — `snapshot` pays the pipeline cost once.
//!
//! Every run records through `intertubes-obs`: stage spans, counters, and
//! structured events. The stderr log is the session echo (filtered by
//! `INTERTUBES_LOG`); `--trace-json` writes the full structured log as
//! JSON Lines with the run manifest as the final line, on success *and* on
//! data errors, so a failed run still explains itself.
//!
//! Exit codes: 0 success, 2 usage error, 3 data error (strict-mode
//! failure, unreadable/invalid fault plan, unwritable output).

use std::path::Path;

use intertubes::degrade::DegradationPolicy;
use intertubes::faults::FaultPlan;
use intertubes::obs::{self, Level, ObsConfig, RunInfo, TopologyCounts};
use intertubes::{Study, StudyConfig};
use serde_json::json;

/// Probes behind the one overlay `annotated`, `export` and `snapshot` write.
const PROBES: usize = 10_000;

fn usage() -> ! {
    eprintln!(
        "usage: intertubes [flags] <command> [args]\n\
         flags:\n\
           --seed N               world seed (flag wins over the StudyConfig\n\
                                  default of 1504)\n\
           --threads N            worker threads for the parallel stages;\n\
                                  resolution order: --threads, then the\n\
                                  INTERTUBES_THREADS environment variable,\n\
                                  then the machine's available parallelism\n\
                                  (output is identical at any thread count)\n\
           --strict               abort on the first malformed input (exit 3)\n\
           --lenient              absorb malformed input and report it (default)\n\
           --faults <plan.json>   inject the fault plan into every pipeline input\n\
           --trace-json <path>    write the structured log as JSON Lines, with\n\
                                  the run manifest as the final line\n\
           --metrics-out <path>   write the merged metrics registry as JSON\n\
         environment:\n\
           INTERTUBES_LOG         stderr log level: error|warn|info|debug|trace\n\
                                  (default info)\n\
           INTERTUBES_THREADS     worker thread count when --threads is absent\n\
         commands:\n\
           summary                map summary JSON to stdout\n\
           geojson <out>          constructed map as GeoJSON\n\
           risk <out>             risk matrix + sharing metrics JSON\n\
           sharing-csv <out>      per-conduit tenancy CSV\n\
           latency <out>          per-pair delay comparison JSON\n\
           robustness <out>       PI/SRR robustness + peering suggestions JSON\n\
           resilience <out>       min-cut / bridges / articulation JSON\n\
           annotated <out>        traffic/delay/risk-annotated GeoJSON (10k probes)\n\
           whatif <out>           section-4 metrics before/after the eq.-2 plan\n\
           export <dir>           write all of the above into a directory\n\
           snapshot <out> [--chaos <plan>]\n\
                                  freeze the study into a serving snapshot\n\
                                  (crash-safe save; --chaos injects runtime\n\
                                  faults from a plan file or built-in name)\n\
           serve --snapshot <path> [serve flags]\n\
                                  replay a deterministic mixed workload\n\
           serve --listen <addr> --snapshot [id=]<path>... [serve flags]\n\
                                  remote front-end: frame protocol over TCP,\n\
                                  snapshot routing, per-tenant quotas\n\
                                  (DESIGN.md section 14)\n\
           query --snapshot <path> <query-json>\n\
                                  answer one query from a snapshot\n\
           query --connect <addr> [query flags] [<query-json>]\n\
                                  answer over the wire: one query, or a\n\
                                  replayed workload split over --clients\n\
           scenario <plan.json> --snapshot <path> [--out <path>]\n\
                                  evaluate a geofenced scenario ensemble\n\
                                  (DESIGN.md section 12); the report goes to\n\
                                  --out or stdout. An invalid plan exits 2.\n\
         serve flags:\n\
           --replay N             workload size (default 10000)\n\
           --workload-seed N      workload generator seed (default 2026)\n\
           --queue N              bounded queue capacity (default 256)\n\
           --admit-max N          admission limit; excess queries are rejected\n\
           --deadline-us N        per-query latency deadline (0 = none)\n\
           --no-cache             disable the result cache\n\
           --out <path>           responses as JSON Lines (default stdout)\n\
           --stats <path>         batch stats JSON (default stdout)\n\
           --stats-out <path>     telemetry document (intertubes-stats/v1):\n\
                                  count plane, timing plane, flight recorder;\n\
                                  also writes <path>.prom (Prometheus text).\n\
                                  Accepted by serve and query; the canonical\n\
                                  count plane is embedded in the run manifest\n\
                                  as run.serve_stats\n\
           --chaos <plan>         runtime fault plan: a JSON file or a built-in\n\
                                  chaos scenario name (torn-write, flaky-io,\n\
                                  bit-rot, poisoned-cache, overload, torn-frame,\n\
                                  chaos-everything); under --listen the plan's\n\
                                  transport families (torn-frame, slow-loris,\n\
                                  disconnect) drive the wire injector\n\
           --chaos-report <path>  chaos report (ledger + health trace) JSON;\n\
                                  local replay only (rejected with --listen)\n\
         serve --listen flags:\n\
           --listen <addr>        bind address (port 0 picks an ephemeral port)\n\
           --addr-file <path>     write the resolved listen address (scripts\n\
                                  discover the ephemeral port here)\n\
           --sessions N           exit after N client-initiated session closes\n\
                                  (without it the server runs forever)\n\
           --quota-burst N        per-tenant token-bucket size (0 = unlimited)\n\
           --quota-refill N       tokens restored per refill window\n\
           --quota-window N       refill window, in requests of that tenant\n\
                                  (request-count time keeps quota decisions\n\
                                  deterministic)\n\
         query flags (with --connect):\n\
           --tenant <id>          tenant id stamped into every frame\n\
                                  (default \"cli\")\n\
           --snapshot-id <id>     snapshot id to route to (default \"default\")\n\
           --clients N            split the workload over N concurrent\n\
                                  connections (default 1)\n\
           --workload-from <path> generate the mixed workload from this local\n\
                                  snapshot (with --replay/--workload-seed)\n\
                                  instead of sending one query\n\
           --out <path>           responses as JSON Lines (default stdout)"
    );
    std::process::exit(2);
}

/// A data error (exit 3): the inputs, not the invocation, are bad.
type CliResult<T> = Result<T, String>;

struct Invocation {
    cfg: StudyConfig,
    faults_path: Option<String>,
    trace_json: Option<String>,
    metrics_out: Option<String>,
    command: String,
    /// `<out>` / `<dir>` operand for the commands that take one.
    out: Option<String>,
    /// Remaining operands for `serve` / `query`, parsed per command.
    rest: Vec<String>,
}

fn parse_args() -> Invocation {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = StudyConfig::default();
    let mut faults_path: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    loop {
        match args.first().map(String::as_str) {
            Some("--threads") => {
                if args.len() < 2 {
                    usage();
                }
                let n: usize = args[1].parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("--threads takes a positive integer");
                    std::process::exit(2);
                });
                // Highest-priority thread-count source after test overrides
                // (DESIGN.md §7); set before any parallel stage runs.
                std::env::set_var("INTERTUBES_THREADS", n.to_string());
                args.drain(..2);
            }
            Some("--seed") => {
                if args.len() < 2 {
                    usage();
                }
                cfg.world.seed = args[1].parse().unwrap_or_else(|_| {
                    eprintln!("--seed takes an integer");
                    std::process::exit(2);
                });
                args.drain(..2);
            }
            Some("--strict") => {
                cfg.policy = DegradationPolicy::Strict;
                args.drain(..1);
            }
            Some("--lenient") => {
                cfg.policy = DegradationPolicy::Lenient;
                args.drain(..1);
            }
            Some("--faults") => {
                if args.len() < 2 {
                    usage();
                }
                faults_path = Some(args[1].clone());
                args.drain(..2);
            }
            Some("--trace-json") => {
                if args.len() < 2 {
                    usage();
                }
                trace_json = Some(args[1].clone());
                args.drain(..2);
            }
            Some("--metrics-out") => {
                if args.len() < 2 {
                    usage();
                }
                metrics_out = Some(args[1].clone());
                args.drain(..2);
            }
            _ => break,
        }
    }
    let Some(command) = args.first().cloned() else {
        usage()
    };
    // Validate the command shape before the session starts, so usage
    // errors (exit 2) never produce a half-recorded trace.
    let out = match command.as_str() {
        "summary" => None,
        "geojson" | "risk" | "sharing-csv" | "latency" | "robustness" | "resilience"
        | "annotated" | "whatif" | "export" | "snapshot" => {
            Some(args.get(1).cloned().unwrap_or_else(|| usage()))
        }
        "serve" => {
            // Shape check only (exit 2 now); flag values are validated by
            // the command handler (exit 3 — they concern data on disk).
            // The remote front-end (--listen) still serves snapshots, so
            // at least one --snapshot is required either way.
            if !args.iter().any(|a| a == "--snapshot") {
                usage()
            }
            None
        }
        "query" => {
            // Local answers need a snapshot; remote answers need a server.
            if !args.iter().any(|a| a == "--snapshot" || a == "--connect") {
                usage()
            }
            None
        }
        "scenario" => {
            // Plan operand plus a snapshot to evaluate against; the plan's
            // *content* is validated by the handler (an invalid DSL is
            // still an invocation-class error — exit 2 there too).
            if !args.iter().any(|a| a == "--snapshot") {
                usage()
            }
            match args.get(1) {
                Some(op) if !op.starts_with("--") => Some(op.clone()),
                _ => usage(),
            }
        }
        _ => usage(),
    };
    Invocation {
        cfg,
        faults_path,
        trace_json,
        metrics_out,
        command,
        out,
        rest: args.into_iter().skip(1).collect(),
    }
}

/// `serve` command flags (everything after the command word).
struct ServeOpts {
    /// `--snapshot` values: a single path for local replay, or repeated
    /// `[id=]path` specs for the remote front-end.
    snapshots: Vec<String>,
    replay: usize,
    workload_seed: u64,
    queue: usize,
    admit_max: usize,
    deadline_us: u64,
    cache: bool,
    out: Option<String>,
    stats: Option<String>,
    stats_out: Option<String>,
    chaos: Option<String>,
    chaos_report: Option<String>,
    /// `--listen <addr>`: run the remote front-end instead of a replay.
    listen: Option<String>,
    /// `--addr-file <path>`: write the resolved listen address.
    addr_file: Option<String>,
    /// `--sessions N`: exit after N client-initiated session closes.
    sessions: Option<u64>,
    quota_burst: u64,
    quota_refill: u64,
    quota_window: u64,
}

fn parse_serve_opts(rest: &[String]) -> ServeOpts {
    let mut opts = ServeOpts {
        snapshots: Vec::new(),
        replay: 10_000,
        workload_seed: 2026,
        queue: 256,
        admit_max: usize::MAX,
        deadline_us: 0,
        cache: true,
        out: None,
        stats: None,
        stats_out: None,
        chaos: None,
        chaos_report: None,
        listen: None,
        addr_file: None,
        sessions: None,
        quota_burst: 0,
        quota_refill: 1,
        quota_window: 1,
    };
    let mut i = 0;
    let value = |rest: &[String], i: usize| -> String {
        rest.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let number = |rest: &[String], i: usize, flag: &str| -> u64 {
        value(rest, i).parse().unwrap_or_else(|_| {
            eprintln!("{flag} takes a non-negative integer");
            std::process::exit(2);
        })
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--snapshot" => {
                opts.snapshots.push(value(rest, i));
                i += 2;
            }
            "--listen" => {
                opts.listen = Some(value(rest, i));
                i += 2;
            }
            "--addr-file" => {
                opts.addr_file = Some(value(rest, i));
                i += 2;
            }
            "--sessions" => {
                opts.sessions = Some(number(rest, i, "--sessions"));
                i += 2;
            }
            "--quota-burst" => {
                opts.quota_burst = number(rest, i, "--quota-burst");
                i += 2;
            }
            "--quota-refill" => {
                opts.quota_refill = number(rest, i, "--quota-refill");
                i += 2;
            }
            "--quota-window" => {
                opts.quota_window = number(rest, i, "--quota-window");
                i += 2;
            }
            "--replay" => {
                opts.replay = number(rest, i, "--replay") as usize;
                i += 2;
            }
            "--workload-seed" => {
                opts.workload_seed = number(rest, i, "--workload-seed");
                i += 2;
            }
            "--queue" => {
                opts.queue = (number(rest, i, "--queue") as usize).max(1);
                i += 2;
            }
            "--admit-max" => {
                opts.admit_max = number(rest, i, "--admit-max") as usize;
                i += 2;
            }
            "--deadline-us" => {
                opts.deadline_us = number(rest, i, "--deadline-us");
                i += 2;
            }
            "--no-cache" => {
                opts.cache = false;
                i += 1;
            }
            "--out" => {
                opts.out = Some(value(rest, i));
                i += 2;
            }
            "--stats" => {
                opts.stats = Some(value(rest, i));
                i += 2;
            }
            "--stats-out" => {
                opts.stats_out = Some(value(rest, i));
                i += 2;
            }
            "--chaos" => {
                opts.chaos = Some(value(rest, i));
                i += 2;
            }
            "--chaos-report" => {
                opts.chaos_report = Some(value(rest, i));
                i += 2;
            }
            _ => usage(),
        }
    }
    if opts.snapshots.is_empty() {
        usage();
    }
    if opts.listen.is_none() && opts.snapshots.len() > 1 {
        eprintln!("multiple --snapshot entries need --listen (local replay serves one)");
        std::process::exit(2);
    }
    if opts.listen.is_some() && opts.chaos_report.is_some() {
        eprintln!("--chaos-report is written by local replay only; --listen writes none");
        std::process::exit(2);
    }
    opts
}

fn main() {
    let inv = parse_args();

    // The session owns all stderr output from here on: events echo through
    // the INTERTUBES_LOG-filtered renderer, and everything is captured for
    // --trace-json / --metrics-out.
    let session = obs::Session::begin(ObsConfig::from_env().with_echo());
    let mut fault_plan_doc: Option<serde_json::Value> = None;
    let mut health_doc: Option<serde_json::Value> = None;
    let mut serve_stats_doc: Option<serde_json::Value> = None;
    let mut tenants_doc: Option<serde_json::Value> = None;
    let mut topology: Option<TopologyCounts> = None;
    let exit_status = match run(
        &inv,
        &mut fault_plan_doc,
        &mut health_doc,
        &mut serve_stats_doc,
        &mut tenants_doc,
        &mut topology,
    ) {
        Ok(()) => 0,
        Err(msg) => {
            obs::event(Level::Error, "cli", &format!("error: {msg}"), &[]);
            3
        }
    };
    let record = session.finish();

    let info = RunInfo {
        command: inv.command.clone(),
        seed: inv.cfg.world.seed,
        policy: inv.cfg.policy.to_string(),
        fault_plan: fault_plan_doc,
        threads: intertubes::parallel::thread_count(),
        exit_status,
        health: health_doc,
        serve_stats: serve_stats_doc,
        tenants: tenants_doc,
    };
    let manifest = obs::build_manifest(&info, &record, topology.as_ref());
    let mut sink_failed = false;
    if let Some(path) = &inv.trace_json {
        let jsonl = obs::record_to_jsonl(&record, &manifest);
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("error: cannot write trace {path}: {e}");
            sink_failed = true;
        } else {
            eprintln!("wrote {path}");
        }
    }
    if let Some(path) = &inv.metrics_out {
        let text = serde_json::to_string_pretty(&record.metrics.to_json())
            .unwrap_or_else(|_| "{}".to_string());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write metrics {path}: {e}");
            sink_failed = true;
        } else {
            eprintln!("wrote {path}");
        }
    }
    if exit_status != 0 || sink_failed {
        std::process::exit(if exit_status != 0 { exit_status } else { 3 });
    }
}

fn run(
    inv: &Invocation,
    fault_plan_doc: &mut Option<serde_json::Value>,
    health_doc: &mut Option<serde_json::Value>,
    serve_stats_doc: &mut Option<serde_json::Value>,
    tenants_doc: &mut Option<serde_json::Value>,
    topology: &mut Option<TopologyCounts>,
) -> CliResult<()> {
    // The serving commands answer from a frozen snapshot — no world, no
    // corpus, no pipeline.
    match inv.command.as_str() {
        "serve" => {
            return run_serve(
                inv,
                fault_plan_doc,
                health_doc,
                serve_stats_doc,
                tenants_doc,
                topology,
            )
        }
        "query" => return run_query(inv, serve_stats_doc, topology),
        "scenario" => return run_scenario(inv, topology),
        _ => {}
    }

    let cfg = inv.cfg;
    obs::event(
        Level::Info,
        "cli",
        &format!(
            "building study (seed {}, {} policy, {} thread(s)) …",
            cfg.world.seed,
            cfg.policy,
            intertubes::parallel::thread_count()
        ),
        &[],
    );

    let study = match &inv.faults_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read fault plan {path}: {e}"))?;
            let plan = FaultPlan::from_json(&text)
                .map_err(|e| format!("invalid fault plan {path}: {e}"))?;
            // Embed the plan document in the run manifest so a trace is
            // self-describing.
            *fault_plan_doc = serde_json::from_str(&text).ok();
            let (study, report, ledger) =
                Study::new_faulted(cfg, &plan).map_err(|e| e.to_string())?;
            obs::event(Level::Info, "cli", &ledger.render(), &[]);
            obs::event(Level::Info, "cli", &report.render(), &[]);
            study
        }
        None => {
            let (study, report) = Study::new_checked(cfg).map_err(|e| e.to_string())?;
            obs::event(Level::Info, "cli", &report.render(), &[]);
            study
        }
    };
    let s = intertubes::map::summarize(&study.built.map);
    *topology = Some(TopologyCounts {
        nodes: s.nodes,
        links: s.links,
        conduits: s.conduits,
        validated_conduits: s.validated_conduits,
    });

    let out = inv.out.as_deref();
    match inv.command.as_str() {
        "summary" => {
            let text = serde_json::to_string_pretty(&summary_json(&study))
                .map_err(|e| format!("cannot serialize summary: {e:?}"))?;
            println!("{text}");
        }
        "geojson" => {
            write_json(
                operand(out)?,
                &intertubes::map::to_geojson(&study.built.map),
            )?;
        }
        "risk" => {
            write_json(operand(out)?, &risk_json(&study))?;
        }
        "sharing-csv" => {
            let out = operand(out)?;
            std::fs::write(out, sharing_csv(&study))
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            wrote(out);
        }
        "latency" => {
            let report = study.latency();
            write_json(
                operand(out)?,
                &serde_json::to_value(&report).map_err(|e| format!("cannot serialize: {e:?}"))?,
            )?;
        }
        "robustness" => {
            write_json(operand(out)?, &robustness_json(&study)?)?;
        }
        "resilience" => {
            write_json(operand(out)?, &resilience_json(&study))?;
        }
        "annotated" => {
            let overlay = study.overlay(Some(PROBES));
            write_json(operand(out)?, &study.annotated_geojson(&overlay))?;
        }
        "whatif" => {
            let report = study.what_if_augmented();
            write_json(
                operand(out)?,
                &serde_json::to_value(&report).map_err(|e| format!("cannot serialize: {e:?}"))?,
            )?;
        }
        "export" => {
            let dir = operand(out)?;
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            let p = |name: &str| Path::new(dir).join(name).to_string_lossy().into_owned();
            write_json(&p("summary.json"), &summary_json(&study))?;
            write_json(
                &p("map.geojson"),
                &intertubes::map::to_geojson(&study.built.map),
            )?;
            write_json(&p("risk.json"), &risk_json(&study))?;
            std::fs::write(p("sharing.csv"), sharing_csv(&study))
                .map_err(|e| format!("cannot write sharing.csv: {e}"))?;
            let lat = study.latency();
            write_json(
                &p("latency.json"),
                &serde_json::to_value(&lat).map_err(|e| format!("cannot serialize: {e:?}"))?,
            )?;
            write_json(&p("robustness.json"), &robustness_json(&study)?)?;
            write_json(&p("resilience.json"), &resilience_json(&study))?;
            let overlay = study.overlay(Some(PROBES));
            write_json(
                &p("map-annotated.geojson"),
                &study.annotated_geojson(&overlay),
            )?;
            let wi = study.what_if_augmented();
            write_json(
                &p("whatif.json"),
                &serde_json::to_value(&wi).map_err(|e| format!("cannot serialize: {e:?}"))?,
            )?;
            obs::event(
                Level::Info,
                "cli",
                &format!("exported 9 artifacts into {dir}"),
                &[],
            );
        }
        "snapshot" => {
            let out = operand(out)?;
            let snap = study.snapshot(Some(PROBES));
            // Optional `--chaos <plan>` after the operand: route the
            // crash-safe save through an injecting ChaosSession. A failed
            // save (exit 3) must leave any previous snapshot loadable.
            match chaos_session_from_rest(&inv.rest[1..], inv.cfg.policy, fault_plan_doc)? {
                Some(session) => {
                    let rep = intertubes::serve::save_with(
                        &session,
                        &snap,
                        Path::new(out),
                        &session.retry_policy(),
                    );
                    *health_doc = Some(session.report().health_value());
                    let rep = rep.map_err(|e| e.to_string())?;
                    obs::event(
                        Level::Info,
                        "cli",
                        &format!(
                            "chaos save: {} attempt(s), {}us virtual backoff",
                            rep.attempts, rep.backoff_us
                        ),
                        &[],
                    );
                }
                None => {
                    snap.save(out).map_err(|e| e.to_string())?;
                }
            }
            wrote(out);
        }
        // parse_args only lets known commands through.
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

/// Resolves a `--chaos <spec>` value: a built-in chaos scenario name
/// first, else a fault-plan JSON file. Returns the plan plus the plan
/// document embedded in the run manifest.
fn resolve_chaos_plan(spec: &str) -> CliResult<(FaultPlan, serde_json::Value)> {
    for (name, plan) in FaultPlan::built_in_chaos_scenarios() {
        if name == spec {
            let doc = serde_json::from_str(&plan.to_json()).unwrap_or(serde_json::Value::Null);
            return Ok((plan, doc));
        }
    }
    let text = std::fs::read_to_string(spec).map_err(|e| {
        format!("--chaos {spec}: not a built-in scenario and cannot read as a file: {e}")
    })?;
    let plan =
        FaultPlan::from_json(&text).map_err(|e| format!("invalid chaos plan {spec}: {e}"))?;
    let doc = serde_json::from_str(&text).unwrap_or(serde_json::Value::Null);
    Ok((plan, doc))
}

/// Parses an optional trailing `--chaos <spec>` (used by `snapshot`,
/// whose output operand is positional) into a bound session.
fn chaos_session_from_rest(
    rest: &[String],
    policy: DegradationPolicy,
    fault_plan_doc: &mut Option<serde_json::Value>,
) -> CliResult<Option<intertubes::serve::ChaosSession>> {
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--chaos" {
            let spec = it
                .next()
                .ok_or_else(|| "--chaos takes a plan file or scenario name".to_string())?;
            let (plan, doc) = resolve_chaos_plan(spec)?;
            if fault_plan_doc.is_none() {
                *fault_plan_doc = Some(doc);
            }
            return Ok(Some(intertubes::serve::ChaosSession::new(plan, policy)));
        }
    }
    Ok(None)
}

/// Fills the manifest topology from a loaded snapshot's map (the serving
/// commands have no built study).
fn note_topology(snap: &intertubes::serve::StudySnapshot, topology: &mut Option<TopologyCounts>) {
    let s = intertubes::map::summarize(&snap.map);
    *topology = Some(TopologyCounts {
        nodes: s.nodes,
        links: s.links,
        conduits: s.conduits,
        validated_conduits: s.validated_conduits,
    });
}

/// Loads the snapshot named by `--snapshot` and fills the manifest
/// topology from its map.
fn load_snapshot(
    path: &str,
    topology: &mut Option<TopologyCounts>,
) -> CliResult<intertubes::serve::StudySnapshot> {
    let mut span = obs::stage("serve.load");
    let snap = intertubes::serve::StudySnapshot::load(path).map_err(|e| e.to_string())?;
    span.items("conduits", snap.map.conduits.len());
    span.items("pairs", snap.paths.pairs.len());
    note_topology(&snap, topology);
    Ok(snap)
}

fn run_serve(
    inv: &Invocation,
    fault_plan_doc: &mut Option<serde_json::Value>,
    health_doc: &mut Option<serde_json::Value>,
    serve_stats_doc: &mut Option<serde_json::Value>,
    tenants_doc: &mut Option<serde_json::Value>,
    topology: &mut Option<TopologyCounts>,
) -> CliResult<()> {
    let opts = parse_serve_opts(&inv.rest);
    if opts.listen.is_some() {
        return run_serve_listen(
            &opts,
            fault_plan_doc,
            serve_stats_doc,
            tenants_doc,
            topology,
        );
    }
    let chaos = match &opts.chaos {
        Some(spec) => {
            let (plan, doc) = resolve_chaos_plan(spec)?;
            if fault_plan_doc.is_none() {
                *fault_plan_doc = Some(doc);
            }
            Some(intertubes::serve::ChaosSession::new(plan, inv.cfg.policy))
        }
        None => None,
    };
    // Local replay serves exactly one snapshot (parse_serve_opts rejects
    // more without --listen).
    let snapshot_path = opts.snapshots.first().cloned().unwrap_or_default();
    // Under chaos the load itself is fault-injected: resilient load with
    // `.tmp`/`.bak` salvage and policy-driven retry. A salvage is a
    // degradation event, recorded against wave 0 (pre-batch).
    let (snap, load_info) = match &chaos {
        Some(session) => {
            let mut span = obs::stage("serve.load");
            let report = intertubes::serve::load_with(
                session,
                Path::new(&snapshot_path),
                &session.retry_policy(),
            )
            .map_err(|e| e.to_string())?;
            span.items("conduits", report.snapshot.map.conduits.len());
            span.items("pairs", report.snapshot.paths.pairs.len());
            if report.salvaged() {
                session.note_degraded(
                    0,
                    &format!("salvaged snapshot from {} candidate", report.source),
                );
            }
            let info = (report.source, report.attempts, report.backoff_us);
            (report.snapshot, Some(info))
        }
        None => (load_snapshot(&snapshot_path, topology)?, None),
    };
    if load_info.is_some() {
        note_topology(&snap, topology);
    }
    let mut engine = intertubes::serve::QueryEngine::new(snap);
    let workload =
        intertubes::serve::mixed_workload(engine.snapshot(), opts.replay, opts.workload_seed);
    let cfg = intertubes::serve::ServeConfig {
        queue_capacity: opts.queue,
        admit_max: opts.admit_max,
        deadline_us: opts.deadline_us,
        cache: intertubes::serve::CacheConfig {
            enabled: opts.cache,
            ..intertubes::serve::CacheConfig::default()
        },
        ..intertubes::serve::ServeConfig::default()
    };
    let telemetry = std::sync::Arc::new(intertubes::serve::ServeTelemetry::with_flight_capacity(
        cfg.flight_capacity,
    ));
    engine.attach_telemetry(telemetry.clone());
    let cache = intertubes::serve::ResultCache::new(cfg.cache);
    let (responses, stats, chaos_report) = {
        let mut span = obs::stage("serve.replay");
        span.items("queries", workload.len());
        match &chaos {
            Some(session) => {
                let (r, s, mut rep) = intertubes::serve::run_batch_chaos_telemetry(
                    &engine, &workload, &cfg, &cache, session, &telemetry,
                );
                if let Some((source, attempts, backoff)) = load_info {
                    rep.load_attempts = attempts;
                    rep.load_backoff_us = backoff;
                    rep.salvaged_from = (source != "primary").then(|| source.to_string());
                }
                (r, s, Some(rep))
            }
            None => {
                let (r, s) = intertubes::serve::run_batch_telemetry(
                    &engine, &workload, &cfg, &cache, &telemetry,
                );
                (r, s, None)
            }
        }
    };
    let jsonl: String = responses.iter().map(|r| format!("{r}\n")).collect();
    match &opts.out {
        Some(path) => {
            std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
            wrote(path);
        }
        None => print!("{jsonl}"),
    }
    let stats_text = serde_json::to_string_pretty(
        &serde_json::to_value(&stats).map_err(|e| format!("cannot serialize stats: {e:?}"))?,
    )
    .map_err(|e| format!("cannot serialize stats: {e:?}"))?;
    match &opts.stats {
        Some(path) => {
            std::fs::write(path, &stats_text).map_err(|e| format!("cannot write {path}: {e}"))?;
            wrote(path);
        }
        // With responses on stdout, stats go to the structured log so the
        // response stream stays machine-parseable.
        None if opts.out.is_none() => {
            obs::event(Level::Info, "serve", &format!("stats: {stats_text}"), &[]);
        }
        None => println!("{stats_text}"),
    }
    if let Some(rep) = chaos_report {
        let text = rep.to_canonical_json();
        match &opts.chaos_report {
            Some(path) => {
                std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
                wrote(path);
            }
            None => obs::event(Level::Info, "serve", &format!("chaos report: {text}"), &[]),
        }
        *health_doc = Some(rep.health_value());
    }
    write_stats_out(
        &telemetry,
        Some(&cache),
        opts.stats_out.as_deref(),
        serve_stats_doc,
    )?;
    Ok(())
}

/// Splits a `--snapshot [id=]path` spec. Without an explicit id the file
/// stem names the snapshot (`study.snap` → `"study"`), falling back to
/// `"default"` for unstemmable paths.
fn split_snapshot_spec(spec: &str) -> (String, String) {
    if let Some((id, path)) = spec.split_once('=') {
        if !id.is_empty() && !id.contains(std::path::MAIN_SEPARATOR) {
            return (id.to_string(), path.to_string());
        }
    }
    let id = Path::new(spec)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "default".to_string());
    (id, spec.to_string())
}

/// `serve --listen`: the remote front-end (DESIGN.md §14). Loads every
/// `--snapshot [id=]path` into one registry, binds the listener, and runs
/// the poll loop in the foreground until `--sessions` is satisfied. The
/// shared telemetry's canonical count plane (with its per-tenant
/// aggregates) lands in the run manifest as `run.serve_stats` /
/// `run.tenants`.
fn run_serve_listen(
    opts: &ServeOpts,
    fault_plan_doc: &mut Option<serde_json::Value>,
    serve_stats_doc: &mut Option<serde_json::Value>,
    tenants_doc: &mut Option<serde_json::Value>,
    topology: &mut Option<TopologyCounts>,
) -> CliResult<()> {
    use intertubes::net::{netpoll::NbListener, NetServer, SnapshotRegistry};

    let listen = opts.listen.as_deref().unwrap_or("127.0.0.1:0");
    let chaos_plan = match &opts.chaos {
        Some(spec) => {
            let (plan, doc) = resolve_chaos_plan(spec)?;
            if fault_plan_doc.is_none() {
                *fault_plan_doc = Some(doc);
            }
            Some(plan)
        }
        None => None,
    };
    let cfg = intertubes::serve::ServeConfig {
        queue_capacity: opts.queue,
        admit_max: opts.admit_max,
        deadline_us: opts.deadline_us,
        cache: intertubes::serve::CacheConfig {
            enabled: opts.cache,
            ..intertubes::serve::CacheConfig::default()
        },
        ..intertubes::serve::ServeConfig::default()
    };
    let telemetry = std::sync::Arc::new(intertubes::serve::ServeTelemetry::with_flight_capacity(
        cfg.flight_capacity,
    ));
    let mut registry = SnapshotRegistry::with_telemetry(telemetry.clone());
    for spec in &opts.snapshots {
        let (id, path) = split_snapshot_spec(spec);
        let snap = load_snapshot(&path, topology)?;
        registry.insert(&id, intertubes::serve::QueryEngine::new(snap), cfg);
        obs::event(
            Level::Info,
            "net",
            &format!("serving snapshot {id:?} from {path}"),
            &[],
        );
    }
    let mut server = NetServer::new(registry);
    if opts.quota_burst > 0 {
        server = server.with_quota(intertubes::serve::QuotaConfig::limited(
            opts.quota_burst,
            opts.quota_refill,
            opts.quota_window,
        ));
    }
    if let Some(plan) = &chaos_plan {
        server = server.with_chaos(plan);
    }
    if let Some(n) = opts.sessions {
        server = server.with_session_limit(n);
    }
    let listener = NbListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let local = listener.local_addr();
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, local.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    obs::event(Level::Info, "net", &format!("listening on {local}"), &[]);
    let report = server
        .run(&listener)
        .map_err(|e| format!("serve loop failed: {e}"))?;
    obs::event(
        Level::Info,
        "net",
        &format!(
            "served {} frame(s) over {} connection(s): {} response(s), \
             {} error frame(s), {} quota rejection(s), {} fault(s) injected",
            report.frames,
            report.accepted,
            report.responses,
            report.errors,
            report.quota_rejected,
            report.ledger.total()
        ),
        &[],
    );
    write_stats_out(&telemetry, None, opts.stats_out.as_deref(), serve_stats_doc)?;
    // The per-tenant aggregates double as run.tenants — the manifest's
    // remote-tenancy record.
    *tenants_doc = serve_stats_doc
        .as_ref()
        .and_then(|doc| doc.get("counts"))
        .and_then(|counts| counts.get("tenants"))
        .cloned();
    Ok(())
}

/// Writes the telemetry document (and its Prometheus sibling) to
/// `--stats-out`, and embeds the **canonicalized** form — count plane
/// only, timing stripped — in the run manifest as `run.serve_stats`.
fn write_stats_out(
    telemetry: &intertubes::serve::ServeTelemetry,
    cache: Option<&intertubes::serve::ResultCache>,
    stats_out: Option<&str>,
    serve_stats_doc: &mut Option<serde_json::Value>,
) -> CliResult<()> {
    let doc = telemetry.stats_document(cache);
    *serve_stats_doc = Some(intertubes::serve::canonicalize_stats(&doc));
    let Some(path) = stats_out else {
        return Ok(());
    };
    write_json(path, &doc)?;
    let prom_path = format!("{path}.prom");
    std::fs::write(&prom_path, telemetry.prometheus(cache))
        .map_err(|e| format!("cannot write {prom_path}: {e}"))?;
    wrote(&prom_path);
    Ok(())
}

fn run_query(
    inv: &Invocation,
    serve_stats_doc: &mut Option<serde_json::Value>,
    topology: &mut Option<TopologyCounts>,
) -> CliResult<()> {
    let mut snapshot_path: Option<&String> = None;
    let mut query_text: Option<&String> = None;
    let mut stats_out: Option<&String> = None;
    let mut connect: Option<&String> = None;
    let mut tenant = "cli".to_string();
    let mut snapshot_id = "default".to_string();
    let mut clients: usize = 1;
    let mut workload_from: Option<&String> = None;
    let mut replay: usize = 10_000;
    let mut workload_seed: u64 = 2026;
    let mut out: Option<&String> = None;
    let value = |rest: &[String], i: usize| -> String {
        rest.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let mut i = 0;
    while i < inv.rest.len() {
        match inv.rest[i].as_str() {
            "--snapshot" => {
                snapshot_path = inv.rest.get(i + 1);
                i += 2;
            }
            "--stats-out" => {
                stats_out = inv.rest.get(i + 1);
                i += 2;
            }
            "--connect" => {
                connect = inv.rest.get(i + 1);
                i += 2;
            }
            "--tenant" => {
                tenant = value(&inv.rest, i);
                i += 2;
            }
            "--snapshot-id" => {
                snapshot_id = value(&inv.rest, i);
                i += 2;
            }
            "--clients" => {
                clients = value(&inv.rest, i).parse().unwrap_or_else(|_| {
                    eprintln!("--clients takes a positive integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--workload-from" => {
                workload_from = inv.rest.get(i + 1);
                i += 2;
            }
            "--replay" => {
                replay = value(&inv.rest, i).parse().unwrap_or_else(|_| {
                    eprintln!("--replay takes a non-negative integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--workload-seed" => {
                workload_seed = value(&inv.rest, i).parse().unwrap_or_else(|_| {
                    eprintln!("--workload-seed takes a non-negative integer");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--out" => {
                out = inv.rest.get(i + 1);
                i += 2;
            }
            _ => {
                query_text = Some(&inv.rest[i]);
                i += 1;
            }
        }
    }
    if let Some(addr) = connect {
        let remote = RemoteQuery {
            addr: addr.clone(),
            tenant,
            snapshot_id,
            clients: clients.max(1),
            workload_from: workload_from.cloned(),
            replay,
            workload_seed,
            query_text: query_text.cloned(),
            out: out.cloned(),
        };
        return run_query_remote(&remote, topology);
    }
    let (Some(path), Some(text)) = (snapshot_path, query_text) else {
        usage()
    };
    let query: intertubes::serve::Query =
        serde_json::from_str(text).map_err(|e| format!("invalid query {text:?}: {e:?}"))?;
    let snap = load_snapshot(path, topology)?;
    let mut engine = intertubes::serve::QueryEngine::new(snap);
    match stats_out {
        // With telemetry requested, the one query runs through the
        // scheduler (one wave of one query) so the telemetry plane
        // observes it exactly as `serve` would — the response bytes are
        // identical either way because the engine is pure.
        Some(stats_path) => {
            let cfg = intertubes::serve::ServeConfig::default();
            let telemetry = std::sync::Arc::new(
                intertubes::serve::ServeTelemetry::with_flight_capacity(cfg.flight_capacity),
            );
            engine.attach_telemetry(telemetry.clone());
            let cache = intertubes::serve::ResultCache::new(cfg.cache);
            let (responses, _) = intertubes::serve::run_batch_telemetry(
                &engine,
                std::slice::from_ref(&query),
                &cfg,
                &cache,
                &telemetry,
            );
            println!("{}", responses[0]);
            write_stats_out(&telemetry, Some(&cache), Some(stats_path), serve_stats_doc)?;
        }
        None => println!("{}", engine.answer(&query).to_canonical_json()),
    }
    Ok(())
}

/// `query --connect` flags, bundled.
struct RemoteQuery {
    addr: String,
    tenant: String,
    snapshot_id: String,
    clients: usize,
    workload_from: Option<String>,
    replay: usize,
    workload_seed: u64,
    query_text: Option<String>,
    out: Option<String>,
}

/// `query --connect`: answer over the wire. One query (positional JSON)
/// goes through a single [`intertubes::net::NetClient`]; with
/// `--workload-from` the deterministic mixed workload is generated
/// locally and split over `--clients` concurrent connections — the same
/// harness the remote gate byte-compares across client counts.
fn run_query_remote(remote: &RemoteQuery, topology: &mut Option<TopologyCounts>) -> CliResult<()> {
    use std::net::ToSocketAddrs;
    let addr = remote
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {}: {e}", remote.addr))?
        .next()
        .ok_or_else(|| format!("{} resolves to no address", remote.addr))?;
    match (&remote.workload_from, &remote.query_text) {
        (Some(snap_path), None) => {
            // The workload generator needs the snapshot's shape (node and
            // conduit counts), so the client loads it locally — the
            // *answers* still come over the wire.
            let snap = load_snapshot(snap_path, topology)?;
            let workload =
                intertubes::serve::mixed_workload(&snap, remote.replay, remote.workload_seed);
            let responses = intertubes::net::run_clients(
                addr,
                &remote.tenant,
                &remote.snapshot_id,
                &workload,
                remote.clients,
            )
            .map_err(|e| format!("remote workload failed: {e}"))?;
            let jsonl: String = responses.iter().map(|r| format!("{r}\n")).collect();
            match &remote.out {
                Some(path) => {
                    std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
                    wrote(path);
                }
                None => print!("{jsonl}"),
            }
            Ok(())
        }
        (None, Some(text)) => {
            let query: intertubes::serve::Query =
                serde_json::from_str(text).map_err(|e| format!("invalid query {text:?}: {e:?}"))?;
            let mut client = intertubes::net::NetClient::new(addr, &remote.tenant)
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let reply = client
                .request(&remote.snapshot_id, 1, &query)
                .map_err(|e| format!("remote query failed: {e}"))?;
            client.close();
            println!("{}", reply.payload());
            match &reply {
                intertubes::net::NetReply::Response(_) => Ok(()),
                intertubes::net::NetReply::ErrorFrame(payload) => {
                    Err(format!("server answered with an error frame: {payload}"))
                }
            }
        }
        _ => usage(),
    }
}

fn run_scenario(inv: &Invocation, topology: &mut Option<TopologyCounts>) -> CliResult<()> {
    let plan_path = inv
        .out
        .as_deref()
        .ok_or_else(|| "missing scenario plan operand".to_string())?;
    let mut snapshot_path: Option<&String> = None;
    let mut out: Option<&String> = None;
    let mut i = 0;
    let rest = &inv.rest[1..];
    while i < rest.len() {
        match rest[i].as_str() {
            "--snapshot" => {
                snapshot_path = rest.get(i + 1);
                i += 2;
            }
            "--out" => {
                out = rest.get(i + 1);
                i += 2;
            }
            _ => usage(),
        }
    }
    let Some(path) = snapshot_path else { usage() };
    let text = std::fs::read_to_string(plan_path)
        .map_err(|e| format!("cannot read scenario plan {plan_path}: {e}"))?;
    let plan = match intertubes::scenario::ScenarioPlan::from_json(&text) {
        Ok(plan) => plan,
        Err(e) => {
            // An invalid plan is an invocation-class error, like usage():
            // the typed error goes to stderr and the process exits 2
            // (tests/scenario_goldens.rs pins the code per error family).
            eprintln!("invalid scenario plan {plan_path}: {e}");
            std::process::exit(2);
        }
    };
    let snap = load_snapshot(path, topology)?;
    let engine = intertubes::serve::QueryEngine::new(snap);
    let report = {
        let mut span = obs::stage("scenario.ensemble");
        span.items("draws", plan.draws as usize);
        engine.conditional_risk(&plan).map_err(|e| e.to_string())?
    };
    let value =
        serde_json::to_value(&report).map_err(|e| format!("cannot serialize report: {e:?}"))?;
    match out {
        Some(path) => write_json(path, &value)?,
        None => {
            let text = serde_json::to_string_pretty(&value)
                .map_err(|e| format!("cannot serialize report: {e:?}"))?;
            println!("{text}");
        }
    }
    Ok(())
}

/// The `<out>` operand, guaranteed present by `parse_args` for every
/// command that reaches here.
fn operand(out: Option<&str>) -> CliResult<&str> {
    out.ok_or_else(|| "missing output operand".to_string())
}

fn wrote(path: &str) {
    obs::event(Level::Info, "cli", &format!("wrote {path}"), &[]);
}

fn write_json(path: &str, value: &serde_json::Value) -> CliResult<()> {
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialize {path}: {e:?}"))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    wrote(path);
    Ok(())
}

fn summary_json(study: &Study) -> serde_json::Value {
    let s = intertubes::map::summarize(&study.built.map);
    json!({
        "seed": study.world.config.seed,
        "nodes": s.nodes,
        "links": s.links,
        "conduits": s.conduits,
        "validated_conduits": s.validated_conduits,
        "total_km": s.total_km,
        "hubs": s.hubs,
        "steps": study.built.reports,
        "paper_reference": { "nodes": 273, "links": 2411, "conduits": 542 },
    })
}

fn risk_json(study: &Study) -> serde_json::Value {
    let rm = study.risk_matrix();
    json!({
        "isps": rm.isps,
        "shared_by_at_least": intertubes::risk::conduits_shared_by_at_least(&rm),
        "fractions": {
            "ge2": intertubes::risk::sharing_fraction(&rm, 2),
            "ge3": intertubes::risk::sharing_fraction(&rm, 3),
            "ge4": intertubes::risk::sharing_fraction(&rm, 4),
        },
        "ranking": intertubes::risk::isp_sharing_ranking(&rm),
        "raw_shared": intertubes::risk::raw_shared_conduits(&rm),
        "hamming_mean_distances": intertubes::risk::hamming_heatmap(&rm).mean_distances(),
    })
}

fn robustness_json(study: &Study) -> CliResult<serde_json::Value> {
    // Paper §5.1: the 12 most-shared conduits.
    let report = study.robustness(12);
    serde_json::to_value(&report).map_err(|e| format!("cannot serialize: {e:?}"))
}

fn resilience_json(study: &Study) -> serde_json::Value {
    let rm = study.risk_matrix();
    json!({
        "map": intertubes::risk::map_resilience(&study.built.map),
        "per_isp": intertubes::risk::isp_resilience(&study.built.map, &rm),
    })
}

fn sharing_csv(study: &Study) -> String {
    let map = &study.built.map;
    let mut out = String::from("conduit,a,b,length_km,tenants,validated,provenance\n");
    for (i, c) in map.conduits.iter().enumerate() {
        out.push_str(&format!(
            "{},{:?},{:?},{:.1},{},{},{}\n",
            i,
            map.nodes[c.a.index()].label,
            map.nodes[c.b.index()].label,
            c.geometry.length_km(),
            c.tenant_count(),
            c.validated,
            match c.provenance {
                intertubes::map::Provenance::Step1 => "step1",
                intertubes::map::Provenance::Step3 => "step3",
            }
        ));
    }
    out
}
