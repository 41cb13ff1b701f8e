//! Ensemble aggregation and the typed `ConditionalRisk` report
//! (DESIGN.md §12.3).
//!
//! The accumulator holds only integer fields (counts, maxima, and a
//! fixed-point ppm sum for path inflation), so its merge is exactly
//! associative *and* commutative — f64 addition is neither. That is what
//! makes the serial==parallel byte-identical contract free: draws are
//! evaluated in fixed-size chunks, per-chunk accumulators are folded in
//! chunk order, and the floating-point summary statistics are derived
//! from the merged integers exactly once, serially, at the end.

use intertubes_mitigation::CutReport;
use serde::{Deserialize, Serialize};

/// Fixed-point scale for path-inflation sums: parts-per-million of the
/// pre-cut best delay.
pub const PPM: f64 = 1_000_000.0;

/// Integer-only per-ensemble tallies with an associative, commutative
/// merge. `failures` and `disconnect_weight` are indexed by map conduit
/// id (full length — merging never needs to reconcile sparse keys).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleAccumulator {
    /// Draws tallied.
    pub draws: u64,
    /// Σ conduits severed across draws.
    pub severed_total: u64,
    /// Σ disconnected pairs across draws (pairs with no surviving route).
    pub disconnected_total: u64,
    /// Worst single draw: most pairs disconnected at once.
    pub max_disconnected: u64,
    /// Σ affected pairs (best stored route hit) across draws.
    pub affected_total: u64,
    /// Σ affected-but-surviving pairs across draws.
    pub survived_total: u64,
    /// Σ per-pair path inflation over surviving affected pairs, in ppm of
    /// the pre-cut best delay, rounded half-up per pair.
    pub inflation_ppm_total: u64,
    /// Per-conduit: draws in which the conduit failed.
    pub failures: Vec<u64>,
    /// Per-conduit: Σ over draws of (pairs disconnected in that draw)
    /// for each conduit severed in it — the criticality weight.
    pub disconnect_weight: Vec<u64>,
}

impl EnsembleAccumulator {
    /// The merge identity for a map with `conduits` conduits.
    pub fn identity(conduits: usize) -> EnsembleAccumulator {
        EnsembleAccumulator {
            draws: 0,
            severed_total: 0,
            disconnected_total: 0,
            max_disconnected: 0,
            affected_total: 0,
            survived_total: 0,
            inflation_ppm_total: 0,
            failures: vec![0; conduits],
            disconnect_weight: vec![0; conduits],
        }
    }

    /// Merges `other` in: sums and maxima of integers, so the operation
    /// is associative and commutative (property-tested in
    /// `tests/scenario_properties.rs`).
    pub fn merge(&mut self, other: &EnsembleAccumulator) {
        self.draws += other.draws;
        self.severed_total += other.severed_total;
        self.disconnected_total += other.disconnected_total;
        self.max_disconnected = self.max_disconnected.max(other.max_disconnected);
        self.affected_total += other.affected_total;
        self.survived_total += other.survived_total;
        self.inflation_ppm_total += other.inflation_ppm_total;
        for (mine, theirs) in self.failures.iter_mut().zip(&other.failures) {
            *mine += theirs;
        }
        for (mine, theirs) in self
            .disconnect_weight
            .iter_mut()
            .zip(&other.disconnect_weight)
        {
            *mine += theirs;
        }
    }
}

/// One entry of the per-conduit criticality ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConduitCriticality {
    /// Map conduit id.
    pub conduit: u32,
    /// Endpoint city labels.
    pub a: String,
    /// Endpoint city labels.
    pub b: String,
    /// Providers sharing the conduit (§4.2 risk matrix).
    pub shared: u16,
    /// Modeled per-draw failure probability.
    pub probability: f64,
    /// Draws in which the conduit failed.
    pub failures: u64,
    /// Σ over failing draws of that draw's disconnected-pair count — the
    /// ranking weight (descending, conduit id breaking ties).
    pub disconnect_weight: u64,
}

/// The typed ensemble report: expectation statistics over the sampled
/// failure sets, the criticality ranking, and — when the plan makes some
/// cut certain (probability ≥ 1) — the exact [`CutReport`] for that cut,
/// bit-identical to calling `what_if_cut` directly (property-tested).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConditionalRisk {
    /// Scenario name from the plan.
    pub scenario: String,
    /// Ensemble seed.
    pub seed: u64,
    /// Ensemble size.
    pub draws: u64,
    /// Conduits with positive failure probability.
    pub exposed_conduits: usize,
    /// Conduits with probability ≥ 1 (fail in every draw).
    pub certain_conduits: usize,
    /// E[conduits severed per draw].
    pub mean_conduits_cut: f64,
    /// E[pairs disconnected per draw] — no surviving route at all.
    pub mean_pairs_disconnected: f64,
    /// Worst draw: most pairs disconnected at once.
    pub max_pairs_disconnected: u64,
    /// E[pairs whose best route was severed per draw].
    pub mean_pairs_affected: f64,
    /// Mean path inflation over affected-but-surviving pair evaluations,
    /// percent of the pre-cut best delay.
    pub mean_path_inflation_pct: f64,
    /// Top conduits by disconnect weight.
    pub criticality: Vec<ConduitCriticality>,
    /// Exact §4.2 before/after report for the certain cut, when any
    /// conduit has probability ≥ 1.
    pub certain_cut: Option<CutReport>,
}

impl ConditionalRisk {
    /// FNV-1a digest of the report's canonical JSON — the goldens' and
    /// seed-sweep's comparison key.
    pub fn digest(&self) -> u64 {
        let text = serde_json::to_string(self).unwrap_or_default();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(seed: u64) -> EnsembleAccumulator {
        let mut a = EnsembleAccumulator::identity(3);
        a.draws = seed;
        a.severed_total = seed * 2;
        a.disconnected_total = seed % 5;
        a.max_disconnected = seed % 7;
        a.affected_total = seed * 3;
        a.survived_total = seed;
        a.inflation_ppm_total = seed * 11;
        a.failures = vec![seed, seed % 3, 1];
        a.disconnect_weight = vec![0, seed, seed % 2];
        a
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (acc(3), acc(10), acc(42));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn identity_is_neutral() {
        let a = acc(9);
        let mut viaid = EnsembleAccumulator::identity(3);
        viaid.merge(&a);
        assert_eq!(viaid, a);
    }
}
