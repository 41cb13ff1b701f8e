//! Graceful-degradation bookkeeping shared by every pipeline stage.
//!
//! The paper's map construction (§2) is an exercise in surviving dirty
//! data: incomplete public records, non-geocoded ISP maps, noisy
//! traceroutes. This crate gives every consuming layer a common vocabulary
//! for *what it did about* dirty input:
//!
//! * [`DegradationPolicy`] — should a stage fail fast (`Strict`) or repair /
//!   drop and continue (`Lenient`)?
//! * [`DegradationEvent`] — one aggregated observation: a stage dropped,
//!   repaired, or left unvalidated some number of items for a reason.
//! * [`DegradationReport`] — the ordered collection of events a run emits,
//!   with counting helpers used by the CLI (stderr rendering) and by tests
//!   that match drop/repair counts against injected fault counts.
//!
//! The crate sits below `atlas`/`records`/`probes` in the dependency graph
//! so that both the fault-injection harness and the hardened pipeline
//! stages can speak the same types without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// How a pipeline stage should respond to malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DegradationPolicy {
    /// Abort with an error on the first malformed item.
    Strict,
    /// Repair or drop malformed items, record what happened, and continue.
    /// This is the default: it matches the paper's methodology of building
    /// the best map the evidence supports.
    #[default]
    Lenient,
}

impl DegradationPolicy {
    /// Whether this policy aborts on malformed input.
    pub fn is_strict(self) -> bool {
        matches!(self, DegradationPolicy::Strict)
    }
}

impl std::fmt::Display for DegradationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationPolicy::Strict => write!(f, "strict"),
            DegradationPolicy::Lenient => write!(f, "lenient"),
        }
    }
}

/// What a stage did with the malformed items of one kind.
///
/// The `Ord` impl (variant order) is part of the report's canonical event
/// ordering — see [`DegradationReport::note`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DegradationAction {
    /// Items were removed from the dataset.
    Dropped,
    /// Items were modified into a usable form (e.g. clamped coordinates,
    /// regenerated geometry) and kept.
    Repaired,
    /// Items were kept as-is but excluded from validation / corroboration,
    /// lowering confidence rather than coverage.
    Unvalidated,
}

impl std::fmt::Display for DegradationAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationAction::Dropped => write!(f, "dropped"),
            DegradationAction::Repaired => write!(f, "repaired"),
            DegradationAction::Unvalidated => write!(f, "unvalidated"),
        }
    }
}

/// One aggregated degradation observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationEvent {
    /// Pipeline stage that observed the problem (e.g. `"map.step1"`,
    /// `"overlay"`).
    pub stage: String,
    /// What was done about it.
    pub action: DegradationAction,
    /// Stable machine-readable reason (e.g. `"invalid-coordinate"`).
    pub reason: String,
    /// Number of affected items.
    pub count: usize,
}

/// The canonical degradation log of one pipeline run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Aggregated events, kept sorted by (stage, action, reason).
    pub events: Vec<DegradationEvent>,
}

impl DegradationReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` items handled at `stage` via `action` for `reason`.
    /// A zero count is a no-op; repeated observations with the same
    /// (stage, action, reason) key aggregate into one event.
    ///
    /// Events are kept sorted by (stage, action, reason), so a report's
    /// content depends only on the multiset of observations — never on the
    /// order stages (or parallel shards) happened to record them. This
    /// makes [`DegradationReport::merge`] associative and commutative, a
    /// requirement of the parallel determinism contract (DESIGN.md §7).
    pub fn note(&mut self, stage: &str, action: DegradationAction, reason: &str, count: usize) {
        if count == 0 {
            return;
        }
        let key = (stage, action, reason);
        match self
            .events
            .binary_search_by(|ev| (ev.stage.as_str(), ev.action, ev.reason.as_str()).cmp(&key))
        {
            Ok(i) => self.events[i].count += count,
            Err(i) => self.events.insert(
                i,
                DegradationEvent {
                    stage: stage.to_string(),
                    action,
                    reason: reason.to_string(),
                    count,
                },
            ),
        }
    }

    /// Folds all events of `other` into `self` (aggregating same keys).
    ///
    /// Order-independent: `a.merge(b)` and `b.merge(a)` produce equal
    /// reports, and any grouping of shard reports merges to the same
    /// result.
    pub fn merge(&mut self, other: DegradationReport) {
        for ev in other.events {
            self.note(&ev.stage, ev.action, &ev.reason, ev.count);
        }
    }

    /// Whether no degradation was observed (clean input).
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }

    /// Total items subjected to `action` across all stages.
    pub fn total(&self, action: DegradationAction) -> usize {
        self.events
            .iter()
            .filter(|e| e.action == action)
            .map(|e| e.count)
            .sum()
    }

    /// Total items recorded under `reason` (any stage / action).
    pub fn total_for_reason(&self, reason: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.reason == reason)
            .map(|e| e.count)
            .sum()
    }

    /// Total items recorded at `stage` (any action / reason).
    pub fn total_for_stage(&self, stage: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.count)
            .sum()
    }

    /// Emits one structured observability event per aggregated degradation
    /// event (no-op outside an `intertubes-obs` session).
    ///
    /// Call from serial code only, after the final shard merge: the report
    /// itself is order-canonical, so emitting it once from the driving
    /// thread keeps the event log identical at every thread count.
    pub fn emit_events(&self) {
        use intertubes_obs::{FieldValue, Level};
        for ev in &self.events {
            intertubes_obs::event(
                Level::Warn,
                "degrade",
                &format!("{} {} {} ({})", ev.stage, ev.action, ev.count, ev.reason),
                &[
                    ("stage", FieldValue::Str(ev.stage.clone())),
                    ("action", FieldValue::Str(ev.action.to_string())),
                    ("reason", FieldValue::Str(ev.reason.clone())),
                    ("count", FieldValue::U64(ev.count as u64)),
                ],
            );
        }
    }

    /// Human-readable multi-line rendering (used by the CLI on stderr).
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "degradation report: clean (no input problems observed)".to_string();
        }
        let mut out = format!(
            "degradation report: {} dropped, {} repaired, {} unvalidated\n",
            self.total(DegradationAction::Dropped),
            self.total(DegradationAction::Repaired),
            self.total(DegradationAction::Unvalidated),
        );
        for ev in &self.events {
            out.push_str(&format!(
                "  [{}] {} {} ({})\n",
                ev.stage, ev.action, ev.count, ev.reason
            ));
        }
        out.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_aggregate_by_key() {
        let mut r = DegradationReport::new();
        r.note(
            "map.step1",
            DegradationAction::Dropped,
            "invalid-coordinate",
            2,
        );
        r.note(
            "map.step1",
            DegradationAction::Dropped,
            "invalid-coordinate",
            3,
        );
        r.note(
            "map.step1",
            DegradationAction::Repaired,
            "invalid-coordinate",
            1,
        );
        r.note("overlay", DegradationAction::Dropped, "unroutable", 0);
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.total(DegradationAction::Dropped), 5);
        assert_eq!(r.total(DegradationAction::Repaired), 1);
        assert_eq!(r.total_for_reason("invalid-coordinate"), 6);
        assert_eq!(r.total_for_stage("map.step1"), 6);
        assert!(!r.is_clean());
    }

    #[test]
    fn merge_combines_reports() {
        let mut a = DegradationReport::new();
        a.note("x", DegradationAction::Dropped, "r", 1);
        let mut b = DegradationReport::new();
        b.note("x", DegradationAction::Dropped, "r", 2);
        b.note("y", DegradationAction::Unvalidated, "s", 4);
        a.merge(b);
        assert_eq!(a.total(DegradationAction::Dropped), 3);
        assert_eq!(a.total(DegradationAction::Unvalidated), 4);
        assert_eq!(a.events.len(), 2);
    }

    #[test]
    fn render_mentions_every_event() {
        let mut r = DegradationReport::new();
        assert!(r.render().contains("clean"));
        r.note(
            "map.step2",
            DegradationAction::Unvalidated,
            "no-evidence",
            7,
        );
        let text = r.render();
        assert!(text.contains("map.step2"));
        assert!(text.contains("no-evidence"));
        assert!(text.contains('7'));
    }

    #[test]
    fn merge_is_order_independent() {
        let observations = [
            ("overlay", DegradationAction::Dropped, "unroutable", 3),
            ("map.step1", DegradationAction::Repaired, "geometry", 2),
            ("overlay", DegradationAction::Dropped, "unroutable", 1),
            ("map.step1", DegradationAction::Dropped, "geometry", 5),
        ];
        let mut forward = DegradationReport::new();
        for (s, a, r, c) in observations {
            forward.note(s, a, r, c);
        }
        let mut backward = DegradationReport::new();
        for (s, a, r, c) in observations.into_iter().rev() {
            backward.note(s, a, r, c);
        }
        assert_eq!(forward, backward);
        // Merging in either direction yields the same report too.
        let mut ab = forward.clone();
        ab.merge(backward.clone());
        let mut ba = backward;
        ba.merge(forward);
        assert_eq!(ab, ba);
        // And events come out in canonical key order.
        for w in ab.events.windows(2) {
            assert!(
                (&w[0].stage, w[0].action, &w[0].reason) < (&w[1].stage, w[1].action, &w[1].reason)
            );
        }
    }

    #[test]
    fn policy_round_trips_and_defaults_lenient() {
        assert_eq!(DegradationPolicy::default(), DegradationPolicy::Lenient);
        assert!(DegradationPolicy::Strict.is_strict());
        assert!(!DegradationPolicy::Lenient.is_strict());
        let v = serde::Serialize::to_json_value(&DegradationPolicy::Strict);
        let back: DegradationPolicy = serde::Deserialize::from_json_value(&v).unwrap();
        assert_eq!(back, DegradationPolicy::Strict);
    }
}
