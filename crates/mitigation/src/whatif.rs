//! What-if analysis: apply a mitigation plan to the constructed map and
//! re-run the §4 risk assessment on the upgraded infrastructure — closing
//! the loop the paper leaves open between §5's proposals and §4's metrics.

use intertubes_map::{FiberMap, MapConduit, MapConduitId, Provenance, Tenancy, TenancySource};
use intertubes_risk::{RiskMatrix, Roster};
use serde::{Deserialize, Serialize};

use crate::augmentation::AugmentationReport;

/// Before/after comparison of the §4.2 headline metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// Conduits added by the plan.
    pub conduits_added: usize,
    /// Fraction of conduits shared by ≥ 4 providers, before.
    pub ge4_before: f64,
    /// Fraction of conduits shared by ≥ 4 providers, after.
    pub ge4_after: f64,
    /// Highest tenant count on any conduit, before.
    pub max_sharing_before: u16,
    /// Highest tenant count on any conduit, after.
    pub max_sharing_after: u16,
    /// Mean per-provider average shared risk, before.
    pub mean_avg_risk_before: f64,
    /// Mean per-provider average shared risk, after.
    pub mean_avg_risk_after: f64,
}

/// Materializes an augmentation plan: clones the map, adds each new conduit
/// as a parallel trench, and moves half of the relieved conduit's tenants
/// (alphabetically — deterministic) into it.
pub fn apply_augmentation(map: &FiberMap, plan: &AugmentationReport) -> FiberMap {
    let mut out = map.clone();
    for add in &plan.added {
        let src_idx = add.parallels.index();
        let (a, b, geometry) = {
            let src = &out.conduits[src_idx];
            (src.a, src.b, src.geometry.offset_parallel(7.0))
        };
        // Split tenants: movers take the new trench.
        let tenants = out.conduits[src_idx].tenants.clone();
        let half = tenants.len() / 2;
        let (stay, go) = tenants.split_at(tenants.len() - half);
        out.conduits[src_idx].tenants = stay.to_vec();
        out.conduits.push(MapConduit {
            a,
            b,
            geometry,
            tenants: go
                .iter()
                .map(|t| Tenancy {
                    isp: t.isp.clone(),
                    source: TenancySource::PublishedMap,
                })
                .collect(),
            provenance: Provenance::Step3,
            validated: false,
            row: None,
        });
    }
    out
}

/// Before/after comparison of the §4.2 headline metrics under a conduit
/// cut (the destructive dual of [`what_if`]'s augmentation: instead of
/// adding trenches, a set of existing conduits is severed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutReport {
    /// Conduits severed by the cut.
    pub conduits_cut: usize,
    /// Providers that lost at least one tenancy, in roster order.
    pub affected_isps: Vec<String>,
    /// Total (conduit, provider) tenancies severed among the tracked
    /// providers.
    pub links_lost: usize,
    /// Fraction of surviving conduits shared by ≥ 4 providers, before.
    pub ge4_before: f64,
    /// Fraction of surviving conduits shared by ≥ 4 providers, after.
    pub ge4_after: f64,
    /// Highest tenant count on any conduit, before.
    pub max_sharing_before: u16,
    /// Highest tenant count on any conduit, after.
    pub max_sharing_after: u16,
    /// Mean per-provider average shared risk, before.
    pub mean_avg_risk_before: f64,
    /// Mean per-provider average shared risk, after.
    pub mean_avg_risk_after: f64,
}

/// Materializes a conduit cut: clones the map and removes every conduit in
/// `cut`. Duplicate and out-of-range ids are ignored. Node ids are stable;
/// surviving conduits keep their relative order (so downstream ids are the
/// compaction of the survivors).
pub fn apply_cut(map: &FiberMap, cut: &[MapConduitId]) -> FiberMap {
    let mut sever = vec![false; map.conduits.len()];
    for id in cut {
        if let Some(s) = sever.get_mut(id.index()) {
            *s = true;
        }
    }
    let mut out = map.clone();
    let mut keep = sever.iter().map(|&s| !s);
    out.conduits.retain(|_| keep.next().unwrap_or(true));
    out
}

/// The frozen §4.2 sharing profile of one map × roster, answering every
/// conduit cut as a subtraction: a cut only removes conduits, so the
/// "after" profile is the "before" profile minus the cut rows.
///
/// Semantics match [`RiskMatrix::build`]'s lenient roster handling:
/// [`Roster`] drops duplicate names (first occurrence wins), a provider
/// listed twice on one conduit counts once, and names absent from the map
/// are ignored. Every sum is an integer, so converting it to `f64` once
/// equals the exact `f64` fold of the full rebuild, and [`CutEvaluator::cut`]
/// is bit-identical to recomputing the profile on the severed map.
///
/// Opens no obs stage span, so it is safe to call from serving worker
/// threads (DESIGN.md §8).
#[derive(Debug, Clone)]
pub struct CutEvaluator {
    /// Deduplicated provider roster, in roster order.
    roster: Vec<String>,
    /// `tenants[starts[c]..starts[c + 1]]`: roster indices on conduit `c`.
    starts: Vec<usize>,
    tenants: Vec<u32>,
    /// `shared[c]`: roster providers sharing conduit `c`.
    shared: Vec<u16>,
    /// Per provider: the sum of `shared` over its conduits.
    share_sum: Vec<u64>,
    /// Per provider: how many conduits it is a tenant of.
    conduit_count: Vec<u64>,
    /// `levels[s]`: conduits shared by exactly `s` providers.
    levels: Vec<usize>,
    /// Conduits shared by ≥ 4 providers.
    ge4: usize,
}

impl CutEvaluator {
    /// Freezes the sharing profile of `map` over the roster `isps`.
    pub fn new(map: &FiberMap, isps: &[String]) -> CutEvaluator {
        let Roster {
            names: roster,
            index,
            ..
        } = Roster::new(isps);
        let n = map.conduits.len();
        let mut starts = Vec::with_capacity(n + 1);
        let mut tenants = Vec::new();
        let mut shared = Vec::with_capacity(n);
        let mut share_sum = vec![0u64; roster.len()];
        let mut conduit_count = vec![0u64; roster.len()];
        let mut levels = vec![0usize; roster.len() + 1];
        // `last_on[p]`: the last conduit (plus one) provider `p` was
        // counted on, so a duplicated tenancy counts once.
        let mut last_on = vec![0usize; roster.len()];
        starts.push(0);
        for (c, conduit) in map.conduits.iter().enumerate() {
            let first = tenants.len();
            for t in &conduit.tenants {
                if let Some(&p) = index.get(t.isp.as_str()) {
                    if last_on[p as usize] != c + 1 {
                        last_on[p as usize] = c + 1;
                        tenants.push(p);
                    }
                }
            }
            let s = tenants.len() - first;
            for &p in &tenants[first..] {
                share_sum[p as usize] += s as u64;
                conduit_count[p as usize] += 1;
            }
            levels[s] += 1;
            shared.push(s as u16);
            starts.push(tenants.len());
        }
        let ge4 = levels.iter().skip(4).sum();
        CutEvaluator {
            roster,
            starts,
            tenants,
            shared,
            share_sum,
            conduit_count,
            levels,
            ge4,
        }
    }

    /// The before/after comparison for severing `cut`. Duplicate and
    /// out-of-range ids are ignored.
    pub fn cut(&self, cut: &[MapConduitId]) -> CutReport {
        intertubes_obs::counter("mitigation.whatif_cut_calls", 1);
        let n = self.shared.len();
        let mut ids: Vec<usize> = cut.iter().map(|id| id.index()).filter(|&c| c < n).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut levels = self.levels.clone();
        let mut ge4 = self.ge4;
        let mut share_sum = self.share_sum.clone();
        let mut conduit_count = self.conduit_count.clone();
        for &c in &ids {
            let s = self.shared[c];
            levels[s as usize] -= 1;
            if s >= 4 {
                ge4 -= 1;
            }
            for &p in &self.tenants[self.starts[c]..self.starts[c + 1]] {
                share_sum[p as usize] -= s as u64;
                conduit_count[p as usize] -= 1;
            }
        }
        let mut links_lost = 0usize;
        let mut affected_isps = Vec::new();
        for ((isp, &before), &after) in self
            .roster
            .iter()
            .zip(&self.conduit_count)
            .zip(&conduit_count)
        {
            let lost = (before - after) as usize;
            if lost > 0 {
                links_lost += lost;
                affected_isps.push(isp.clone());
            }
        }
        CutReport {
            conduits_cut: ids.len(),
            affected_isps,
            links_lost,
            ge4_before: self.ge4 as f64 / n.max(1) as f64,
            ge4_after: ge4 as f64 / (n - ids.len()).max(1) as f64,
            max_sharing_before: top_level(&self.levels),
            max_sharing_after: top_level(&levels),
            mean_avg_risk_before: mean_of_averages(&self.share_sum, &self.conduit_count),
            mean_avg_risk_after: mean_of_averages(&share_sum, &conduit_count),
        }
    }
}

/// The highest share level any conduit is at (0 for an empty map).
fn top_level(levels: &[usize]) -> u16 {
    levels.iter().rposition(|&k| k > 0).unwrap_or(0) as u16
}

/// Mean over non-empty providers, in roster order, of each provider's
/// average share count — [`mean_avg_risk`] from integer sums.
fn mean_of_averages(share_sum: &[u64], conduit_count: &[u64]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for (&sum, &count) in share_sum.iter().zip(conduit_count) {
        if count == 0 {
            continue;
        }
        total += sum as f64 / count as f64;
        n += 1;
    }
    total / n.max(1) as f64
}

/// Runs the before/after comparison for a conduit cut: a one-shot
/// [`CutEvaluator`]. Callers answering many cuts over one map should keep
/// the evaluator instead.
///
/// Safe to call from worker threads: unlike [`what_if`] it opens no obs
/// stage span (spans are forbidden in parallel compute waves by the
/// DESIGN.md §8 contract) — only associative counters, which merge
/// identically at any thread count.
pub fn what_if_cut(map: &FiberMap, isps: &[String], cut: &[MapConduitId]) -> CutReport {
    CutEvaluator::new(map, isps).cut(cut)
}

fn mean_avg_risk(rm: &RiskMatrix) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for i in 0..rm.isp_count() {
        let cs = rm.conduits_of(i);
        if cs.is_empty() {
            continue;
        }
        total += cs.iter().map(|&c| rm.shared[c] as f64).sum::<f64>() / cs.len() as f64;
        n += 1;
    }
    total / n.max(1) as f64
}

/// Runs the before/after comparison for an augmentation plan.
pub fn what_if(map: &FiberMap, isps: &[String], plan: &AugmentationReport) -> WhatIfReport {
    let mut span = intertubes_obs::stage("mitigation.whatif");
    span.items("conduits_added", plan.added.len());
    let before = RiskMatrix::build(map, isps);
    let upgraded = apply_augmentation(map, plan);
    let after = RiskMatrix::build(&upgraded, isps);
    let frac_ge4 = |rm: &RiskMatrix| {
        rm.shared.iter().filter(|&&s| s >= 4).count() as f64 / rm.conduit_count() as f64
    };
    WhatIfReport {
        conduits_added: plan.added.len(),
        ge4_before: frac_ge4(&before),
        ge4_after: frac_ge4(&after),
        max_sharing_before: before.shared.iter().copied().max().unwrap_or(0),
        max_sharing_after: after.shared.iter().copied().max().unwrap_or(0),
        mean_avg_risk_before: mean_avg_risk(&before),
        mean_avg_risk_after: mean_avg_risk(&after),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augmentation::AddedConduit;
    use intertubes_geo::{GeoPoint, Polyline};
    use intertubes_map::MapConduitId;

    fn toy_map() -> FiberMap {
        let mut m = FiberMap::default();
        let a = m.ensure_node("A, XX", GeoPoint::new_unchecked(40.0, -100.0));
        let b = m.ensure_node("B, XX", GeoPoint::new_unchecked(40.0, -98.0));
        let t = |isp: &str| Tenancy {
            isp: isp.into(),
            source: TenancySource::PublishedMap,
        };
        m.conduits.push(MapConduit {
            a,
            b,
            geometry: Polyline::straight(
                GeoPoint::new_unchecked(40.0, -100.0),
                GeoPoint::new_unchecked(40.0, -98.0),
            )
            .densify(40.0)
            .unwrap(),
            tenants: vec![t("W"), t("X"), t("Y"), t("Z")],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        });
        m
    }

    fn plan() -> AugmentationReport {
        AugmentationReport {
            added: vec![AddedConduit {
                parallels: MapConduitId(0),
                a: "A, XX".into(),
                b: "B, XX".into(),
                row_km: 180.0,
                srr: 8.0,
            }],
            isps: vec!["W".into(), "X".into(), "Y".into(), "Z".into()],
            improvement: vec![vec![0.5]; 4],
        }
    }

    #[test]
    fn applying_plan_splits_tenants() {
        let m = toy_map();
        let upgraded = apply_augmentation(&m, &plan());
        assert_eq!(upgraded.conduits.len(), 2);
        assert_eq!(upgraded.conduits[0].tenant_count(), 2);
        assert_eq!(upgraded.conduits[1].tenant_count(), 2);
        // No tenancy lost or duplicated.
        assert_eq!(upgraded.link_count(), m.link_count());
        // The new trench is geographically parallel, not identical.
        let sep = midpoint_separation(&upgraded);
        assert!(sep > 2.0, "parallel trench separation {sep} km");
    }

    /// Separation between the midpoints of the toy map's two conduits.
    fn midpoint_separation(m: &FiberMap) -> f64 {
        let p1 = m.conduits[0].geometry.point_at_fraction(0.5);
        let p2 = m.conduits[1].geometry.point_at_fraction(0.5);
        p1.distance_km(&p2)
    }

    #[test]
    fn what_if_reduces_max_sharing() {
        let m = toy_map();
        let isps: Vec<String> = ["W", "X", "Y", "Z"].iter().map(|s| s.to_string()).collect();
        let report = what_if(&m, &isps, &plan());
        assert_eq!(report.conduits_added, 1);
        assert_eq!(report.max_sharing_before, 4);
        assert_eq!(report.max_sharing_after, 2);
        assert!(report.mean_avg_risk_after < report.mean_avg_risk_before);
        assert!(report.ge4_after < report.ge4_before);
    }

    /// A second toy map with two conduits so a cut leaves survivors.
    fn toy_map_two() -> FiberMap {
        let mut m = toy_map();
        let b = m.find_node("B, XX").unwrap();
        let c = m.ensure_node("C, XX", GeoPoint::new_unchecked(40.0, -96.0));
        m.conduits.push(MapConduit {
            a: b,
            b: c,
            geometry: Polyline::straight(
                GeoPoint::new_unchecked(40.0, -98.0),
                GeoPoint::new_unchecked(40.0, -96.0),
            )
            .densify(40.0)
            .unwrap(),
            tenants: vec![
                Tenancy {
                    isp: "W".into(),
                    source: TenancySource::PublishedMap,
                },
                Tenancy {
                    isp: "X".into(),
                    source: TenancySource::PublishedMap,
                },
            ],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        });
        m
    }

    #[test]
    fn apply_cut_removes_only_named_conduits() {
        let m = toy_map_two();
        let severed = apply_cut(&m, &[MapConduitId(0)]);
        assert_eq!(severed.conduits.len(), 1);
        assert_eq!(severed.conduits[0].tenant_count(), 2);
        // Duplicates and out-of-range ids are ignored.
        let same = apply_cut(&m, &[MapConduitId(0), MapConduitId(0), MapConduitId(99)]);
        assert_eq!(same.conduits.len(), 1);
        // Empty cut is the identity.
        assert_eq!(apply_cut(&m, &[]).conduits.len(), 2);
    }

    #[test]
    fn what_if_cut_reports_affected_isps_and_risk_drop() {
        let m = toy_map_two();
        let isps: Vec<String> = ["W", "X", "Y", "Z"].iter().map(|s| s.to_string()).collect();
        let report = what_if_cut(&m, &isps, &[MapConduitId(0)]);
        assert_eq!(report.conduits_cut, 1);
        assert_eq!(report.affected_isps, vec!["W", "X", "Y", "Z"]);
        assert_eq!(report.links_lost, 4);
        assert_eq!(report.max_sharing_before, 4);
        assert_eq!(report.max_sharing_after, 2);
        assert!(report.ge4_after < report.ge4_before);
    }

    #[test]
    fn evaluator_matches_risk_matrix_semantics() {
        let mut m = toy_map_two();
        // A duplicated tenancy counts once, like `has_tenant`.
        let dup = m.conduits[1].tenants[0].clone();
        m.conduits[1].tenants.push(dup);
        // Duplicate roster entry: both paths must drop it (first wins).
        let isps: Vec<String> = ["W", "X", "W", "Y", "Z", "Q"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rm = RiskMatrix::build(&m, &isps);
        let eval = CutEvaluator::new(&m, &isps);
        assert_eq!(eval.shared, rm.shared);
        for i in 0..rm.isp_count() {
            let mine: Vec<usize> = (0..m.conduits.len())
                .filter(|&c| eval.tenants[eval.starts[c]..eval.starts[c + 1]].contains(&(i as u32)))
                .collect();
            assert_eq!(mine, rm.conduits_of(i), "provider {i}");
        }
        assert_eq!(
            mean_of_averages(&eval.share_sum, &eval.conduit_count),
            mean_avg_risk(&rm)
        );
    }

    #[test]
    fn empty_cut_is_identity() {
        let m = toy_map_two();
        let isps: Vec<String> = ["W", "X"].iter().map(|s| s.to_string()).collect();
        let report = what_if_cut(&m, &isps, &[]);
        assert_eq!(report.conduits_cut, 0);
        assert!(report.affected_isps.is_empty());
        assert_eq!(report.links_lost, 0);
        assert_eq!(report.max_sharing_before, report.max_sharing_after);
        assert_eq!(report.mean_avg_risk_before, report.mean_avg_risk_after);
    }

    #[test]
    fn empty_plan_is_identity() {
        let m = toy_map();
        let isps: Vec<String> = ["W", "X"].iter().map(|s| s.to_string()).collect();
        let empty = AugmentationReport {
            added: vec![],
            isps: isps.clone(),
            improvement: vec![vec![], vec![]],
        };
        let report = what_if(&m, &isps, &empty);
        assert_eq!(report.conduits_added, 0);
        assert_eq!(report.max_sharing_before, report.max_sharing_after);
        assert_eq!(report.mean_avg_risk_before, report.mean_avg_risk_after);
    }
}
