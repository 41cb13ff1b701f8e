//! Seeded ensemble sampling and evaluation (DESIGN.md §12.2–§12.3).
//!
//! Each draw derives its own RNG stream from the plan seed (the
//! `FaultPlan` stream idiom), so the sampled failure sets depend only on
//! `(seed, draw index)` — never on chunking or thread count. Draws are
//! evaluated in fixed-size chunks ([`DRAW_CHUNK`]); per-chunk
//! [`EnsembleAccumulator`]s merge in chunk order, and the integer-only
//! merge algebra makes the folded result — and therefore the serialized
//! [`ConditionalRisk`] — byte-identical at any thread count.

use intertubes_graph::{csr_dijkstra, CsrGraph, EdgeId, Landmarks, NodeId, SearchState};
use intertubes_map::{FiberMap, MapConduitId};
use intertubes_mitigation::{CutEvaluator, PairPaths};
use intertubes_parallel::par_chunks_map;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::dsl::{ScenarioError, ScenarioPlan};
use crate::geometry::{exposures, Exposure};
use crate::report::{ConditionalRisk, ConduitCriticality, EnsembleAccumulator, PPM};

/// Draws evaluated per work unit. Fixed (never derived from the thread
/// count) so the chunk boundaries — and the merge tree — are identical
/// at any parallelism.
pub const DRAW_CHUNK: usize = 64;

/// Criticality-ranking length in the report.
pub const CRITICALITY_TOP: usize = 10;

/// A conduit → pair posting list over each pair's best stored route,
/// built once per frozen snapshot so a cut visits only the pairs it can
/// affect instead of scanning them all.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteIndex {
    /// `hits[starts[c]..starts[c + 1]]`: ascending indices of the pairs
    /// whose best route uses conduit `c`.
    starts: Vec<usize>,
    hits: Vec<u32>,
}

impl RouteIndex {
    /// Indexes the best routes of `pairs` over a map of `conduits`
    /// conduits. Route conduit ids outside the map are never hit, as in a
    /// severed-mask lookup.
    pub fn new(pairs: &[PairPaths], conduits: usize) -> RouteIndex {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); conduits];
        for (i, pair) in pairs.iter().enumerate() {
            for &c in pair.paths.first().map_or(&[][..], |r| &r.conduits[..]) {
                if let Some(list) = lists.get_mut(c as usize) {
                    // Pairs arrive in order, so a route listing a conduit
                    // twice would repeat the last entry.
                    if list.last() != Some(&(i as u32)) {
                        list.push(i as u32);
                    }
                }
            }
        }
        let mut starts = Vec::with_capacity(conduits + 1);
        let mut hits = Vec::new();
        starts.push(0);
        for list in lists {
            hits.extend(list);
            starts.push(hits.len());
        }
        RouteIndex { starts, hits }
    }

    /// Fills `out` with the ascending, distinct indices of the pairs whose
    /// best route uses any of `conduits`.
    pub fn hit_pairs(&self, conduits: impl IntoIterator<Item = usize>, out: &mut Vec<u32>) {
        out.clear();
        for c in conduits {
            if let (Some(&from), Some(&to)) = (self.starts.get(c), self.starts.get(c + 1)) {
                out.extend_from_slice(&self.hits[from..to]);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Borrowed evaluation inputs: the frozen map, the §5.3 route table and
/// its postings, cut evaluator, and CSR search structures. The serve
/// layer builds one from its snapshot and `QueryEngine` tables; tests
/// build one directly over a toy map.
#[derive(Debug)]
pub struct EvalContext<'a> {
    /// The frozen fiber map.
    pub map: &'a FiberMap,
    /// Stored routes per conduit-joined pair.
    pub pairs: &'a [PairPaths],
    /// Conduit → pair postings over `pairs`' best routes.
    pub postings: &'a RouteIndex,
    /// The frozen §4.2 sharing profile of `map` over the provider roster,
    /// which answers the certain-cut report.
    pub cuts: &'a CutEvaluator,
    /// Frozen conduit-graph adjacency.
    pub csr: &'a CsrGraph,
    /// Per-conduit km (edge `i` = conduit `i`).
    pub km: &'a [f64],
    /// Per-conduit §4.2 sharing counts (risk-matrix `shared` row),
    /// echoed into the criticality ranking. May be empty.
    pub shared: &'a [u16],
    /// ALT tables for the exact surviving-route searches.
    pub landmarks: Option<&'a Landmarks>,
}

/// The per-draw RNG: a stream keyed by `(seed, draw index)` so draw `i`
/// samples the same failure set no matter which chunk or thread
/// evaluates it.
fn draw_rng(seed: u64, draw: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (draw.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Samples one failure set into `severed` (which must be all-false on
/// entry and is left holding the draw's mask); returns the number of
/// conduits severed. Exposures are visited in ascending conduit order —
/// one Bernoulli trial each — so the stream layout is part of the
/// determinism contract.
fn sample_draw(exposures: &[Exposure], rng: &mut StdRng, severed: &mut [bool]) -> u64 {
    let mut cut = 0u64;
    for e in exposures {
        if rng.gen_bool(e.probability) {
            if let Some(s) = severed.get_mut(e.conduit as usize) {
                *s = true;
                cut += 1;
            }
        }
    }
    cut
}

/// Evaluates one chunk of draw indices serially into an accumulator.
fn eval_chunk(
    ctx: &EvalContext<'_>,
    exposures: &[Exposure],
    seed: u64,
    draws: &[u64],
) -> EnsembleAccumulator {
    let n = ctx.map.conduits.len();
    let mut acc = EnsembleAccumulator::identity(n);
    let mut severed = vec![false; n];
    let mut st = SearchState::new();
    let mut hits = Vec::new();
    for &draw in draws {
        let mut rng = draw_rng(seed, draw);
        let cut = sample_draw(exposures, &mut rng, &mut severed);
        acc.draws += 1;
        acc.severed_total += cut;
        if cut > 0 {
            let severed_ids = exposures
                .iter()
                .map(|e| e.conduit as usize)
                .filter(|&c| severed[c]);
            ctx.postings.hit_pairs(severed_ids, &mut hits);
            let disconnected = eval_pairs(ctx, &hits, &severed, &mut st, &mut acc);
            acc.disconnected_total += disconnected;
            acc.max_disconnected = acc.max_disconnected.max(disconnected);
            for e in exposures {
                let c = e.conduit as usize;
                if severed[c] {
                    acc.failures[c] += 1;
                    acc.disconnect_weight[c] += disconnected;
                }
            }
            severed.fill(false);
        }
    }
    acc
}

/// Scores the pairs whose best route the draw's severed mask hits (`hits`,
/// ascending pair indices from the [`RouteIndex`] postings): each first
/// tries the stored routes (a scan), and only pairs whose every stored
/// route is hit fall back to an exact ALT-pruned search over the frozen
/// CSR adjacency — the same engine and mask semantics as the serve
/// layer's `CutImpact`. Returns the number of pairs left with no
/// surviving route.
fn eval_pairs(
    ctx: &EvalContext<'_>,
    hits: &[u32],
    severed: &[bool],
    st: &mut SearchState,
    acc: &mut EnsembleAccumulator,
) -> u64 {
    let mut disconnected = 0u64;
    for pair in hits.iter().filter_map(|&i| ctx.pairs.get(i as usize)) {
        let Some(best) = pair.paths.first() else {
            continue;
        };
        acc.affected_total += 1;
        let surviving_km = pair.surviving_km(severed).or_else(|| {
            match csr_dijkstra(
                ctx.csr,
                st,
                NodeId(pair.a),
                NodeId(pair.b),
                |e: EdgeId| match severed.get(e.index()) {
                    Some(true) => f64::INFINITY,
                    _ => ctx.km.get(e.index()).copied().unwrap_or(f64::INFINITY),
                },
                ctx.landmarks,
            ) {
                Ok(Some(p)) => Some(p.cost),
                _ => None,
            }
        });
        match surviving_km {
            Some(after) if best.km > 0.0 => {
                acc.survived_total += 1;
                let inflation = (after - best.km).max(0.0) / best.km;
                acc.inflation_ppm_total += (inflation * PPM).round() as u64;
            }
            Some(_) => acc.survived_total += 1,
            None => disconnected += 1,
        }
    }
    disconnected
}

/// Evaluates the full ensemble: validates the plan, computes the
/// exposure table, samples and scores every draw (in parallel,
/// byte-identical at any thread count), and assembles
/// the report. Worker-thread safe: counters only, no obs spans.
pub fn evaluate(
    ctx: &EvalContext<'_>,
    plan: &ScenarioPlan,
) -> Result<ConditionalRisk, ScenarioError> {
    plan.validate()?;
    intertubes_obs::counter("scenario.ensemble_evals", 1);
    intertubes_obs::counter("scenario.draws", plan.draws);
    let exposed = exposures(ctx.map, &plan.footprint, &plan.model);
    intertubes_obs::counter("scenario.exposed_conduits", exposed.len() as u64);

    let indices: Vec<u64> = (0..plan.draws).collect();
    let chunks = par_chunks_map(&indices, DRAW_CHUNK, |_chunk_index, chunk| {
        eval_chunk(ctx, &exposed, plan.seed, chunk)
    });
    let mut acc = EnsembleAccumulator::identity(ctx.map.conduits.len());
    for chunk in &chunks {
        acc.merge(chunk);
    }

    let certain: Vec<MapConduitId> = exposed
        .iter()
        .filter(|e| e.probability >= 1.0)
        .map(|e| MapConduitId(e.conduit))
        .collect();
    let certain_cut = if certain.is_empty() {
        None
    } else {
        Some(ctx.cuts.cut(&certain))
    };

    let mut ranked: Vec<ConduitCriticality> = exposed
        .iter()
        .map(|e| {
            let c = e.conduit as usize;
            let conduit = &ctx.map.conduits[c];
            ConduitCriticality {
                conduit: e.conduit,
                a: ctx.map.nodes[conduit.a.index()].label.clone(),
                b: ctx.map.nodes[conduit.b.index()].label.clone(),
                shared: ctx.shared.get(c).copied().unwrap_or(0),
                probability: e.probability,
                failures: acc.failures[c],
                disconnect_weight: acc.disconnect_weight[c],
            }
        })
        .collect();
    ranked.sort_by(|x, y| {
        y.disconnect_weight
            .cmp(&x.disconnect_weight)
            .then_with(|| y.failures.cmp(&x.failures))
            .then_with(|| x.conduit.cmp(&y.conduit))
    });
    ranked.truncate(CRITICALITY_TOP);

    let draws = acc.draws.max(1) as f64;
    Ok(ConditionalRisk {
        scenario: plan.name.clone(),
        seed: plan.seed,
        draws: acc.draws,
        exposed_conduits: exposed.len(),
        certain_conduits: certain.len(),
        mean_conduits_cut: acc.severed_total as f64 / draws,
        mean_pairs_disconnected: acc.disconnected_total as f64 / draws,
        max_pairs_disconnected: acc.max_disconnected,
        mean_pairs_affected: acc.affected_total as f64 / draws,
        mean_path_inflation_pct: if acc.survived_total > 0 {
            (acc.inflation_ppm_total as f64 / acc.survived_total as f64) / PPM * 100.0
        } else {
            0.0
        },
        criticality: ranked,
        certain_cut,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{Footprint, HazardModel};
    use intertubes_geo::GeoPoint;

    #[test]
    fn draw_streams_are_independent_of_order() {
        let exposures = vec![
            Exposure {
                conduit: 0,
                probability: 0.5,
                distance_km: 1.0,
            },
            Exposure {
                conduit: 2,
                probability: 0.5,
                distance_km: 2.0,
            },
        ];
        // Draw 7 sampled alone equals draw 7 sampled after draws 0..7.
        let mut direct = vec![false; 3];
        let mut rng = draw_rng(99, 7);
        sample_draw(&exposures, &mut rng, &mut direct);
        let mut sequential = vec![false; 3];
        for d in 0..=7u64 {
            sequential.fill(false);
            let mut rng = draw_rng(99, d);
            sample_draw(&exposures, &mut rng, &mut sequential);
        }
        assert_eq!(direct, sequential);
    }

    #[test]
    fn validation_errors_surface_before_any_work() {
        let map = FiberMap::default();
        let csr = map.csr();
        let postings = RouteIndex::new(&[], 0);
        let cuts = CutEvaluator::new(&map, &[]);
        let ctx = EvalContext {
            map: &map,
            pairs: &[],
            postings: &postings,
            cuts: &cuts,
            csr: &csr,
            km: &[],
            shared: &[],
            landmarks: None,
        };
        let plan = ScenarioPlan {
            name: "empty".to_string(),
            seed: 1,
            draws: 0,
            footprint: Footprint::Disc {
                center: GeoPoint {
                    lat: 40.0,
                    lon: -100.0,
                },
                radius_km: 10.0,
            },
            model: HazardModel::Fixed { p: 0.5 },
        };
        assert_eq!(evaluate(&ctx, &plan), Err(ScenarioError::EmptyEnsemble));
    }
}
