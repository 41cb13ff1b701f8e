//! Run manifests: the machine-readable record tying a run's results to
//! its configuration, per-stage timings, and metrics.
//!
//! A manifest is a plain `serde_json::Value` with a fixed schema
//! ([`MANIFEST_SCHEMA`]) so downstream tooling — the gate runner's `trace`
//! arms (`src/bin/gates.rs`), the determinism battery — can consume it
//! without this crate's types. [`canonicalize`] strips everything
//! wall-clock- or environment-dependent; two runs of the same
//! configuration must produce byte-identical canonical manifests at any
//! thread count (tested by `tests/determinism.rs`).

use serde_json::{Map, Number, Value};

use crate::{EventKind, FieldValue, RunRecord, StageOutcome, StageRecord};

/// Schema identifier stamped into every manifest.
pub const MANIFEST_SCHEMA: &str = "intertubes-obs/v1";

/// Keys holding wall-clock or host-dependent data, removed (recursively
/// for `wall_ms`/`t_ms`, at top level for `environment`) by
/// [`canonicalize`].
const TIMING_KEYS: [&str; 2] = ["wall_ms", "t_ms"];

/// Run identity: what was asked of the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// The CLI command (or test harness name) that drove the run.
    pub command: String,
    /// World seed.
    pub seed: u64,
    /// Degradation policy label (`"strict"` / `"lenient"`).
    pub policy: String,
    /// The fault plan document, if faults were injected.
    pub fault_plan: Option<Value>,
    /// Worker thread count the run resolved to (environment section —
    /// stripped from canonical manifests).
    pub threads: usize,
    /// Process exit status the run ended with.
    pub exit_status: i32,
    /// Serving health summary (final state plus transition trace), when
    /// the run exercised the serving layer; `None` elsewhere.
    pub health: Option<Value>,
    /// The canonicalized serving count plane (`intertubes-stats/v1`
    /// counts, timing stripped), when the run served queries; `None`
    /// elsewhere. Embedding only the canonical form keeps the manifest
    /// itself byte-comparable across thread counts and cache modes.
    pub serve_stats: Option<Value>,
    /// Per-tenant admission aggregates (`submitted` / `admitted` /
    /// `quota_rejected` counts keyed by tenant id), when the run fronted
    /// the remote serving transport; `None` elsewhere. Counts only — like
    /// `serve_stats`, nothing wall-clock-dependent belongs here.
    pub tenants: Option<Value>,
}

/// The headline topology counts (§2 of the paper: the reference
/// reconstruction reports 273 nodes / 2411 links / 542 conduits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyCounts {
    /// City-level nodes in the constructed map.
    pub nodes: usize,
    /// Link (tenancy) total.
    pub links: usize,
    /// Physical conduits.
    pub conduits: usize,
    /// Conduits with documentary validation.
    pub validated_conduits: usize,
}

fn uint(v: u64) -> Value {
    Value::Number(Number::UInt(v))
}

fn float(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

fn field_value_json(v: &FieldValue) -> Value {
    match v {
        FieldValue::Str(s) => Value::String(s.clone()),
        FieldValue::U64(n) => uint(*n),
        FieldValue::I64(n) => Value::Number(Number::Int(*n)),
        FieldValue::F64(n) => float(*n),
        FieldValue::Bool(b) => Value::Bool(*b),
    }
}

/// Aggregates repeated completions of the same stage name.
fn aggregate_stages(stages: &[StageRecord]) -> Value {
    use std::collections::BTreeMap;
    struct Agg {
        calls: u64,
        wall_ms: f64,
        items: BTreeMap<String, u64>,
        outcome: StageOutcome,
    }
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for s in stages {
        let agg = by_name.entry(&s.name).or_insert(Agg {
            calls: 0,
            wall_ms: 0.0,
            items: BTreeMap::new(),
            outcome: StageOutcome::Ok,
        });
        agg.calls += 1;
        agg.wall_ms += s.wall_ms;
        for (key, count) in &s.items {
            *agg.items.entry(key.clone()).or_insert(0) += count;
        }
        // Worst outcome wins (Ok < Degraded < Failed).
        if s.outcome > agg.outcome {
            agg.outcome = s.outcome;
        }
    }
    let mut out = Map::new();
    for (name, agg) in by_name {
        let mut stage = Map::new();
        stage.insert("calls".to_string(), uint(agg.calls));
        stage.insert(
            "outcome".to_string(),
            Value::String(agg.outcome.label().to_string()),
        );
        let mut items = Map::new();
        for (key, count) in agg.items {
            items.insert(key, uint(count));
        }
        stage.insert("items".to_string(), Value::Object(items));
        stage.insert("wall_ms".to_string(), float(round3(agg.wall_ms)));
        out.insert(name.to_string(), Value::Object(stage));
    }
    Value::Object(out)
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Builds the end-of-run manifest from a finished session's record.
pub fn build_manifest(
    info: &RunInfo,
    record: &RunRecord,
    topology: Option<&TopologyCounts>,
) -> Value {
    let mut run = Map::new();
    run.insert("command".to_string(), Value::String(info.command.clone()));
    run.insert("seed".to_string(), uint(info.seed));
    run.insert("policy".to_string(), Value::String(info.policy.clone()));
    run.insert(
        "fault_plan".to_string(),
        info.fault_plan.clone().unwrap_or(Value::Null),
    );
    run.insert(
        "exit_status".to_string(),
        Value::Number(Number::Int(info.exit_status as i64)),
    );
    run.insert(
        "health".to_string(),
        info.health.clone().unwrap_or(Value::Null),
    );
    run.insert(
        "serve_stats".to_string(),
        info.serve_stats.clone().unwrap_or(Value::Null),
    );
    run.insert(
        "tenants".to_string(),
        info.tenants.clone().unwrap_or(Value::Null),
    );

    let mut environment = Map::new();
    environment.insert("threads".to_string(), uint(info.threads as u64));

    let mut by_level: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for e in &record.events {
        if e.kind == EventKind::Event {
            *by_level.entry(e.level.as_str()).or_insert(0) += 1;
        }
    }
    let mut levels = Map::new();
    let mut events_total = 0;
    for (level, n) in by_level {
        levels.insert(level.to_string(), uint(n));
        events_total += n;
    }
    let mut events = Map::new();
    events.insert("total".to_string(), uint(events_total));
    events.insert("by_level".to_string(), Value::Object(levels));

    let topology_json = match topology {
        Some(t) => {
            let mut obj = Map::new();
            obj.insert("nodes".to_string(), uint(t.nodes as u64));
            obj.insert("links".to_string(), uint(t.links as u64));
            obj.insert("conduits".to_string(), uint(t.conduits as u64));
            obj.insert(
                "validated_conduits".to_string(),
                uint(t.validated_conduits as u64),
            );
            Value::Object(obj)
        }
        None => Value::Null,
    };

    let mut manifest = Map::new();
    manifest.insert(
        "schema".to_string(),
        Value::String(MANIFEST_SCHEMA.to_string()),
    );
    manifest.insert("run".to_string(), Value::Object(run));
    manifest.insert("environment".to_string(), Value::Object(environment));
    manifest.insert("stages".to_string(), aggregate_stages(&record.stages));
    manifest.insert("metrics".to_string(), record.metrics.to_json());
    manifest.insert("topology".to_string(), topology_json);
    manifest.insert("events".to_string(), Value::Object(events));
    Value::Object(manifest)
}

/// Strips wall-clock (`wall_ms`, `t_ms`, recursively) and environment
/// (top-level `environment`) fields, returning the comparison form of a
/// manifest: two runs of the same configuration must canonicalize to
/// byte-identical JSON at any thread count.
pub fn canonicalize(manifest: &Value) -> Value {
    fn strip(v: &Value) -> Value {
        match v {
            Value::Object(map) => {
                let mut out = Map::new();
                for (key, value) in map.iter() {
                    if TIMING_KEYS.contains(&key.as_str()) {
                        continue;
                    }
                    out.insert(key.clone(), strip(value));
                }
                Value::Object(out)
            }
            Value::Array(items) => Value::Array(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    let stripped = strip(manifest);
    match stripped {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter(|(k, _)| k.as_str() != "environment")
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        ),
        other => other,
    }
}

/// Renders a finished session as JSON Lines: one line per log entry, the
/// manifest as the final line (`"type": "manifest"`).
pub fn record_to_jsonl(record: &RunRecord, manifest: &Value) -> String {
    let mut out = String::new();
    for e in &record.events {
        let mut obj = Map::new();
        obj.insert(
            "type".to_string(),
            Value::String(e.kind.label().to_string()),
        );
        obj.insert("seq".to_string(), uint(e.seq));
        obj.insert("t_ms".to_string(), float(round3(e.t_ms)));
        match e.kind {
            EventKind::SpanOpen | EventKind::SpanClose => {
                obj.insert("span".to_string(), Value::String(e.message.clone()));
                obj.insert(
                    "parent".to_string(),
                    e.span
                        .as_ref()
                        .map(|s| Value::String(s.clone()))
                        .unwrap_or(Value::Null),
                );
            }
            EventKind::Event => {
                obj.insert(
                    "level".to_string(),
                    Value::String(e.level.as_str().to_string()),
                );
                obj.insert("target".to_string(), Value::String(e.target.clone()));
                obj.insert(
                    "span".to_string(),
                    e.span
                        .as_ref()
                        .map(|s| Value::String(s.clone()))
                        .unwrap_or(Value::Null),
                );
                obj.insert("message".to_string(), Value::String(e.message.clone()));
            }
        }
        if !e.fields.is_empty() {
            let mut fields = Map::new();
            for (key, value) in &e.fields {
                fields.insert(key.clone(), field_value_json(value));
            }
            obj.insert("fields".to_string(), Value::Object(fields));
        }
        out.push_str(&to_line(&Value::Object(obj)));
        out.push('\n');
    }
    let mut last = Map::new();
    last.insert("type".to_string(), Value::String("manifest".to_string()));
    if let Value::Object(m) = manifest {
        for (key, value) in m.iter() {
            last.insert(key.clone(), value.clone());
        }
    }
    out.push_str(&to_line(&Value::Object(last)));
    out.push('\n');
    out
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "{}".to_string())
}

/// Validates a manifest against the [`MANIFEST_SCHEMA`] shape, plus a
/// caller-supplied list of stage names that must be present (the CI trace
/// gate requires every end-to-end stage). Returns every problem found.
pub fn validate_manifest(manifest: &Value, required_stages: &[&str]) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let mut problem = |msg: String| problems.push(msg);

    if manifest.get("schema").and_then(Value::as_str) != Some(MANIFEST_SCHEMA) {
        problem(format!("schema is not {MANIFEST_SCHEMA:?}"));
    }

    match manifest.get("run") {
        Some(run) if run.is_object() => {
            if run.get("command").and_then(Value::as_str).is_none() {
                problem("run.command missing or not a string".to_string());
            }
            if run.get("seed").and_then(Value::as_u64).is_none() {
                problem("run.seed missing or not an unsigned integer".to_string());
            }
            match run.get("policy").and_then(Value::as_str) {
                Some("strict") | Some("lenient") => {}
                other => problem(format!("run.policy invalid: {other:?}")),
            }
            if run.get("exit_status").and_then(Value::as_i64).is_none() {
                problem("run.exit_status missing or not an integer".to_string());
            }
            match run.get("fault_plan") {
                Some(v) if v.is_null() || v.is_object() => {}
                other => problem(format!("run.fault_plan invalid: {other:?}")),
            }
            match run.get("health") {
                Some(v) if v.is_null() || v.is_object() => {}
                other => problem(format!("run.health invalid: {other:?}")),
            }
            match run.get("serve_stats") {
                // Absent is tolerated for pre-§13 traces; when present it
                // must be the canonical count-plane object (or null).
                None | Some(Value::Null) => {}
                Some(v) if v.is_object() => {
                    if v.get("counts").and_then(Value::as_object).is_none() {
                        problem("run.serve_stats.counts missing or not an object".to_string());
                    }
                    if v.get("timing").is_some() {
                        problem(
                            "run.serve_stats carries a timing plane — only the \
                             canonical count plane belongs in a manifest"
                                .to_string(),
                        );
                    }
                }
                other => problem(format!("run.serve_stats invalid: {other:?}")),
            }
            match run.get("tenants") {
                // Absent is tolerated for pre-§14 traces; when present it
                // must map tenant ids to objects of unsigned counts.
                None | Some(Value::Null) => {}
                Some(Value::Object(tenants)) => {
                    for (tenant, counts) in tenants.iter() {
                        match counts.as_object() {
                            Some(counts) => {
                                for (key, count) in counts.iter() {
                                    if count.as_u64().is_none() {
                                        problem(format!(
                                            "run.tenants[{tenant}].{key} is not an \
                                             unsigned integer"
                                        ));
                                    }
                                }
                            }
                            None => problem(format!("run.tenants[{tenant}] is not an object")),
                        }
                    }
                }
                other => problem(format!("run.tenants invalid: {other:?}")),
            }
        }
        _ => problem("run section missing".to_string()),
    }

    match manifest
        .get("environment")
        .and_then(|e| e.get("threads"))
        .and_then(Value::as_u64)
    {
        Some(n) if n >= 1 => {}
        _ => problem("environment.threads missing or < 1".to_string()),
    }

    match manifest.get("stages").and_then(Value::as_object) {
        Some(stages) => {
            if stages.is_empty() {
                problem("stages section is empty".to_string());
            }
            for (name, stage) in stages.iter() {
                if stage.get("calls").and_then(Value::as_u64).unwrap_or(0) < 1 {
                    problem(format!("stage {name}: calls missing or < 1"));
                }
                match stage.get("outcome").and_then(Value::as_str) {
                    Some("ok") | Some("degraded") | Some("failed") => {}
                    other => problem(format!("stage {name}: outcome invalid: {other:?}")),
                }
                match stage.get("wall_ms").and_then(Value::as_f64) {
                    Some(ms) if ms >= 0.0 => {}
                    _ => problem(format!("stage {name}: wall_ms missing or negative")),
                }
                match stage.get("items").and_then(Value::as_object) {
                    Some(items) => {
                        for (key, count) in items.iter() {
                            if count.as_u64().is_none() {
                                problem(format!(
                                    "stage {name}: item {key} is not an unsigned integer"
                                ));
                            }
                        }
                    }
                    None => problem(format!("stage {name}: items section missing")),
                }
            }
            for required in required_stages {
                if stages.get(required).is_none() {
                    problem(format!("required stage missing: {required}"));
                }
            }
        }
        None => problem("stages section missing".to_string()),
    }

    match manifest.get("metrics") {
        Some(metrics) => {
            for section in ["counters", "gauges", "histograms"] {
                if metrics.get(section).and_then(Value::as_object).is_none() {
                    problem(format!("metrics.{section} missing or not an object"));
                }
            }
        }
        None => problem("metrics section missing".to_string()),
    }

    match manifest.get("topology") {
        Some(Value::Null) | None => {}
        Some(t) => {
            let nodes = t.get("nodes").and_then(Value::as_u64);
            let links = t.get("links").and_then(Value::as_u64);
            let conduits = t.get("conduits").and_then(Value::as_u64);
            let validated = t.get("validated_conduits").and_then(Value::as_u64);
            match (nodes, links, conduits, validated) {
                (Some(n), Some(l), Some(c), Some(v)) => {
                    if n == 0 || l == 0 || c == 0 {
                        problem("topology counts must be positive".to_string());
                    }
                    if v > c {
                        problem("topology.validated_conduits exceeds conduits".to_string());
                    }
                }
                _ => problem("topology counts missing or non-integer".to_string()),
            }
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    fn sample_record() -> RunRecord {
        let mut record = RunRecord::default();
        record.stages.push(StageRecord {
            name: "map.step1".to_string(),
            parent: Some("study.build".to_string()),
            wall_ms: 12.5,
            items: vec![("conduits".to_string(), 512)],
            outcome: StageOutcome::Ok,
        });
        record.stages.push(StageRecord {
            name: "map.step1".to_string(),
            parent: Some("study.build".to_string()),
            wall_ms: 10.0,
            items: vec![("conduits".to_string(), 30)],
            outcome: StageOutcome::Degraded,
        });
        record.events.push(EventRecord {
            seq: 0,
            t_ms: 1.25,
            kind: EventKind::Event,
            level: Level::Info,
            target: "test".to_string(),
            span: None,
            message: "hi".to_string(),
            fields: vec![("n".to_string(), FieldValue::U64(4))],
        });
        record.metrics.counter_add("c", 9);
        record
    }

    fn sample_info() -> RunInfo {
        RunInfo {
            command: "export".to_string(),
            seed: 1504,
            policy: "lenient".to_string(),
            fault_plan: None,
            threads: 8,
            exit_status: 0,
            health: None,
            serve_stats: None,
            tenants: None,
        }
    }

    use crate::EventRecord;

    #[test]
    fn manifest_aggregates_and_validates() {
        let record = sample_record();
        let manifest = build_manifest(
            &sample_info(),
            &record,
            Some(&TopologyCounts {
                nodes: 273,
                links: 2411,
                conduits: 542,
                validated_conduits: 400,
            }),
        );
        validate_manifest(&manifest, &["map.step1"])
            .unwrap_or_else(|problems| panic!("manifest should validate, problems: {problems:?}"));
        let stage = &manifest["stages"]["map.step1"];
        assert_eq!(stage["calls"].as_u64(), Some(2));
        assert_eq!(stage["outcome"].as_str(), Some("degraded"));
        assert_eq!(stage["items"]["conduits"].as_u64(), Some(542));
        assert_eq!(stage["wall_ms"].as_f64(), Some(22.5));
        assert_eq!(manifest["events"]["total"].as_u64(), Some(1));
    }

    #[test]
    fn validation_reports_missing_pieces() {
        let record = sample_record();
        let manifest = build_manifest(&sample_info(), &record, None);
        let problems = match validate_manifest(&manifest, &["map.step1", "overlay"]) {
            Err(problems) => problems,
            Ok(()) => panic!("overlay should be reported missing"),
        };
        assert!(problems.iter().any(|p| p.contains("overlay")));
    }

    #[test]
    fn canonical_form_strips_timing_and_environment() {
        let record = sample_record();
        let manifest = build_manifest(&sample_info(), &record, None);
        let canon = canonicalize(&manifest);
        let text = serde_json::to_string(&canon).unwrap_or_default();
        assert!(!text.contains("wall_ms"));
        assert!(!text.contains("t_ms"));
        assert!(!text.contains("environment"));
        // Non-timing content survives.
        assert_eq!(canon["stages"]["map.step1"]["calls"].as_u64(), Some(2));
        assert_eq!(canon["run"]["seed"].as_u64(), Some(1504));
    }

    #[test]
    fn canonical_form_is_thread_count_independent() {
        let record = sample_record();
        let mut info_a = sample_info();
        info_a.threads = 1;
        let mut info_b = sample_info();
        info_b.threads = 8;
        let a = canonicalize(&build_manifest(&info_a, &record, None));
        let b = canonicalize(&build_manifest(&info_b, &record, None));
        assert_eq!(
            serde_json::to_string(&a).unwrap_or_default(),
            serde_json::to_string(&b).unwrap_or_default()
        );
    }

    #[test]
    fn serve_stats_embed_only_accepts_the_canonical_count_plane() {
        let record = sample_record();
        let mut info = sample_info();

        // Canonical form (counts only) validates and survives canonicalize.
        let mut counts = Map::new();
        counts.insert("waves".to_string(), uint(3));
        let mut stats = Map::new();
        stats.insert("counts".to_string(), Value::Object(counts));
        info.serve_stats = Some(Value::Object(stats.clone()));
        let manifest = build_manifest(&info, &record, None);
        validate_manifest(&manifest, &[]).unwrap_or_else(|problems| {
            panic!("canonical serve_stats should validate: {problems:?}")
        });
        let canon = canonicalize(&manifest);
        assert_eq!(
            canon["run"]["serve_stats"]["counts"]["waves"].as_u64(),
            Some(3)
        );

        // A timing plane in the manifest is a schema violation.
        stats.insert("timing".to_string(), Value::Object(Map::new()));
        info.serve_stats = Some(Value::Object(stats));
        let manifest = build_manifest(&info, &record, None);
        let problems = match validate_manifest(&manifest, &[]) {
            Err(problems) => problems,
            Ok(()) => panic!("a timing plane must be rejected"),
        };
        assert!(problems.iter().any(|p| p.contains("timing")));
    }

    #[test]
    fn tenants_embed_accepts_count_maps_and_rejects_junk() {
        let record = sample_record();
        let mut info = sample_info();

        // A map of tenant → unsigned counts validates and survives
        // canonicalization (it is count-plane data, like serve_stats).
        let mut counts = Map::new();
        counts.insert("submitted".to_string(), uint(10));
        counts.insert("quota_rejected".to_string(), uint(4));
        let mut tenants = Map::new();
        tenants.insert("acme".to_string(), Value::Object(counts));
        info.tenants = Some(Value::Object(tenants));
        let manifest = build_manifest(&info, &record, None);
        validate_manifest(&manifest, &[])
            .unwrap_or_else(|problems| panic!("tenant counts should validate: {problems:?}"));
        let canon = canonicalize(&manifest);
        assert_eq!(
            canon["run"]["tenants"]["acme"]["quota_rejected"].as_u64(),
            Some(4)
        );

        // Non-integer counts are a schema violation.
        let mut bad = Map::new();
        bad.insert(
            "acme".to_string(),
            serde_json::json!({ "submitted": "lots" }),
        );
        info.tenants = Some(Value::Object(bad));
        let manifest = build_manifest(&info, &record, None);
        let problems = match validate_manifest(&manifest, &[]) {
            Err(problems) => problems,
            Ok(()) => panic!("string counts must be rejected"),
        };
        assert!(problems.iter().any(|p| p.contains("tenants")));
    }

    #[test]
    fn jsonl_has_one_line_per_entry_plus_manifest() {
        let record = sample_record();
        let manifest = build_manifest(&sample_info(), &record, None);
        let jsonl = record_to_jsonl(&record, &manifest);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), record.events.len() + 1);
        for line in &lines {
            let v: Value = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("line should parse as JSON: {e:?}\n{line}"));
            assert!(v.get("type").and_then(Value::as_str).is_some());
        }
        let last: Value = serde_json::from_str(lines[lines.len() - 1]).unwrap_or_default();
        assert_eq!(last["type"].as_str(), Some("manifest"));
        assert_eq!(last["schema"].as_str(), Some(MANIFEST_SCHEMA));
    }
}
