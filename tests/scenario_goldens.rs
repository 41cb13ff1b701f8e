//! Golden scenario reports (DESIGN.md §12.4): the two built-in scenarios
//! — a hurricane landfall corridor and an earthquake disc — are frozen as
//! plan files plus full `ConditionalRisk` reports under `tests/goldens/`.
//! Any drift in the DSL, the exposure geometry, the sampling streams, or
//! the ensemble merge shows up as a golden mismatch here. To accept an
//! intentional change:
//!
//! ```text
//! REGENERATE_GOLDENS=1 cargo test --test scenario_goldens
//! ```
//!
//! The battery also pins the error paths: malformed plans produce typed
//! [`ScenarioError`]s from `from_json`, and the CLI's `scenario`
//! subcommand exits 2 (the usage/invalid-invocation class) on them.

mod common;

use std::process::Command;
use std::sync::OnceLock;

use intertubes::scenario::{ScenarioError, ScenarioPlan};
use intertubes::serve::{QueryEngine, StudySnapshot};
use intertubes::Study;

use common::{golden, ScratchDir};

/// The frozen reference snapshot at the CLI's probe count (10 k): golden
/// reports must digest-match what `intertubes snapshot` + `intertubes
/// scenario` produce, and what `bench_scenario` measures.
fn snapshot() -> &'static StudySnapshot {
    static SNAP: OnceLock<StudySnapshot> = OnceLock::new();
    SNAP.get_or_init(|| Study::reference().snapshot(Some(10_000)))
}

fn golden_path(name: &str, kind: &str) -> String {
    format!(
        "{}/tests/goldens/{name}.{kind}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn golden_plan_files_match_built_ins() {
    for (name, plan) in ScenarioPlan::built_in_scenarios() {
        let path = golden_path(name, "scenario");
        let Some(text) = golden(&path, "golden plan", &plan.to_json()) else {
            continue;
        };
        let parsed = ScenarioPlan::from_json(&text).expect("golden plan parses");
        assert_eq!(
            parsed, plan,
            "{path} drifted from ScenarioPlan::built_in_scenarios(); \
             regenerate with REGENERATE_GOLDENS=1 cargo test --test scenario_goldens"
        );
    }
}

#[test]
fn golden_reports_are_stable() {
    let engine = QueryEngine::new(snapshot().clone());
    for (name, plan) in ScenarioPlan::built_in_scenarios() {
        let report = engine
            .conditional_risk(&plan)
            .expect("golden plan is valid");
        let text = serde_json::to_string_pretty(&report).expect("report serializes");
        let path = golden_path(name, "conditional");
        let Some(stored) = golden(&path, "golden report", &format!("{text}\n")) else {
            continue;
        };
        let stored_report: intertubes::scenario::ConditionalRisk =
            serde_json::from_str(&stored).expect("golden report parses");
        assert_eq!(
            stored_report.digest(),
            report.digest(),
            "{name} ConditionalRisk digest drifted from {path}; \
             regenerate with REGENERATE_GOLDENS=1 cargo test --test scenario_goldens"
        );
        assert_eq!(
            stored.trim(),
            text.trim(),
            "{name} full report drifted from {path} (digest unchanged?!)"
        );
    }
}

/// A valid disc plan in JSON text form, for splicing error cases into.
fn valid_plan_json() -> String {
    ScenarioPlan::built_in_scenarios()[1].1.to_json()
}

#[test]
fn from_json_rejects_malformed_plans_with_typed_errors() {
    // Negative probability.
    let bad = valid_plan_json().replace(
        "\"Weibull\": { \"shape\": 1.8, \"scale\": 0.6 }",
        "\"Fixed\": { \"p\": -0.25 }",
    );
    assert_eq!(
        ScenarioPlan::from_json(&bad),
        Err(ScenarioError::InvalidProbability {
            what: "p",
            value: -0.25
        })
    );
    // NaN probability: JSON cannot carry NaN, so the non-finite channel is
    // `null` (what `to_json` emits for NaN), which deserializes back to
    // NaN — and validation rejects it with the typed probability error.
    let bad = valid_plan_json().replace(
        "\"Weibull\": { \"shape\": 1.8, \"scale\": 0.6 }",
        "\"Fixed\": { \"p\": null }",
    );
    assert!(matches!(
        ScenarioPlan::from_json(&bad),
        Err(ScenarioError::InvalidProbability { what: "p", value }) if value.is_nan()
    ));
    // Unclosed polygon ring.
    let bad = valid_plan_json().replace(
        "\"Disc\": { \"center\": { \"lat\": 36.5, \"lon\": -89.5 }, \"radius_km\": 450.0 }",
        "\"Polygon\": { \"vertices\": [ { \"lat\": 30.0, \"lon\": -98.0 }, \
         { \"lat\": 30.0, \"lon\": -90.0 }, { \"lat\": 34.0, \"lon\": -90.0 }, \
         { \"lat\": 34.0, \"lon\": -98.0 } ] }",
    );
    assert_eq!(
        ScenarioPlan::from_json(&bad),
        Err(ScenarioError::UnclosedPolygon)
    );
    // Empty ensemble.
    let bad = valid_plan_json().replace("\"draws\": 10000", "\"draws\": 0");
    assert_eq!(
        ScenarioPlan::from_json(&bad),
        Err(ScenarioError::EmptyEnsemble)
    );
}

/// The CLI exits 2 (invalid invocation) on a malformed plan — before any
/// snapshot is loaded, so a placeholder snapshot path suffices — and 3
/// (data error) when the plan file itself is unreadable.
#[test]
fn cli_scenario_exits_2_on_invalid_plan() {
    let dir = ScratchDir::new("scenario-cli");
    let bad_path = dir.join("bad-plan.json");
    let bad = valid_plan_json().replace(
        "\"Weibull\": { \"shape\": 1.8, \"scale\": 0.6 }",
        "\"Fixed\": { \"p\": -1.0 }",
    );
    std::fs::write(&bad_path, bad).expect("write bad plan");
    let out = Command::new(env!("CARGO_BIN_EXE_intertubes"))
        .args([
            "scenario",
            bad_path.to_str().expect("utf-8 temp path"),
            "--snapshot",
            "/nonexistent.snap",
        ])
        .output()
        .expect("run CLI");
    assert_eq!(out.status.code(), Some(2), "invalid plan must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid scenario plan"),
        "stderr should name the plan error, got: {stderr}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_intertubes"))
        .args([
            "scenario",
            dir.join("no-such-plan.json").to_str().expect("utf-8"),
            "--snapshot",
            "/nonexistent.snap",
        ])
        .output()
        .expect("run CLI");
    assert_eq!(out.status.code(), Some(3), "unreadable plan must exit 3");
}
