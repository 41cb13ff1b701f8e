//! The pure query engine (DESIGN.md §9.3).
//!
//! [`QueryEngine::answer`] is a pure function of the snapshot and the
//! query: no I/O, no pipeline re-runs, no obs stage spans (it executes on
//! scheduler worker threads, where only associative counters are allowed).
//! Purity is what makes the serving determinism contract cheap to state —
//! cache hits return previously computed bytes, and recomputation returns
//! the same bytes.

use std::sync::Arc;

use intertubes_geo::fiber_delay_us;
use intertubes_graph::{csr_dijkstra, CsrGraph, EdgeId, Landmarks, NodeId, SearchState};
use intertubes_map::MapConduitId;
use intertubes_mitigation::{build_landmarks, CutEvaluator};
use intertubes_scenario::{
    evaluate, ConditionalRisk, EvalContext, RouteIndex, ScenarioError, ScenarioPlan,
};

use crate::query::StatsView;
use crate::query::{
    CutImpactView, IspRiskView, LatencyView, NeighborView, PairDeltaView, Query, Response,
    SharedConduitView, SimilarityView, TopSharedView,
};
use crate::snapshot::StudySnapshot;
use crate::telemetry::{ServeTelemetry, STATS_SCHEMA};

/// A loaded snapshot plus the lookup tables the queries need. Shared
/// read-only across scheduler workers (`&self` everywhere).
#[derive(Debug)]
pub struct QueryEngine {
    snap: StudySnapshot,
    /// Map node ids in label order, one per label: of nodes sharing a
    /// label, the last.
    node_by_label: Vec<u32>,
    /// Frozen conduit-graph adjacency for the live what-if searches.
    csr: CsrGraph,
    /// Per-conduit km (edge `i` = conduit `i`).
    km: Vec<f64>,
    /// ALT tables: from the snapshot's landmarks section when present,
    /// rebuilt deterministically otherwise — either way the same tables,
    /// so answers don't depend on whether the container carried them.
    landmarks: Option<Landmarks>,
    /// Conduit → hit-pair postings over the path index's best routes,
    /// built once at load and shared by every `CutImpact` and `Ensemble`.
    postings: RouteIndex,
    /// The frozen §4.2 sharing profile every cut is answered from.
    cuts: CutEvaluator,
    /// Telemetry sink for [`Query::Stats`] answers (DESIGN.md §13). The
    /// engine only *reads* it — all writes happen in the scheduler's
    /// serial phases — so `answer` stays pure from the workers' view.
    telemetry: Option<Arc<ServeTelemetry>>,
    /// The tenant-visible snapshot id folded into every cache key
    /// (DESIGN.md §14.3), so a shared cache serving several loaded
    /// snapshots never aliases identical queries across worlds.
    snapshot_id: String,
}

impl QueryEngine {
    /// Builds the lookup tables over a loaded snapshot.
    pub fn new(snap: StudySnapshot) -> QueryEngine {
        let nodes = &snap.map.nodes;
        let label = |i: &u32| nodes[*i as usize].label.as_str();
        let mut node_by_label: Vec<u32> = (0..nodes.len() as u32).collect();
        // Label ascending, id descending: `dedup` keeps the last node.
        node_by_label.sort_unstable_by(|x, y| label(x).cmp(label(y)).then(y.cmp(x)));
        node_by_label.dedup_by(|x, y| label(x) == label(y));
        let csr = snap.map.csr();
        let km = snap.map.conduit_km();
        let landmarks = snap
            .landmarks
            .clone()
            .or_else(|| build_landmarks(&snap.map));
        let postings = RouteIndex::new(&snap.paths.pairs, snap.map.conduits.len());
        let cuts = CutEvaluator::new(&snap.map, &snap.isps);
        QueryEngine {
            snap,
            node_by_label,
            csr,
            km,
            landmarks,
            postings,
            cuts,
            telemetry: None,
            snapshot_id: "default".to_string(),
        }
    }

    /// Attaches the telemetry sink [`Query::Stats`] answers read from.
    pub fn attach_telemetry(&mut self, telemetry: Arc<ServeTelemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Sets the tenant-visible snapshot id the scheduler scopes cache
    /// keys with. Single-snapshot callers keep the `"default"` scope.
    pub fn set_snapshot_id(&mut self, id: impl Into<String>) {
        self.snapshot_id = id.into();
    }

    /// The tenant-visible snapshot id.
    pub fn snapshot_id(&self) -> &str {
        &self.snapshot_id
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<ServeTelemetry>> {
        self.telemetry.as_ref()
    }

    /// The snapshot this engine serves.
    pub fn snapshot(&self) -> &StudySnapshot {
        &self.snap
    }

    /// Answers one query. Pure and total: every input maps to exactly one
    /// response, unknown entities map to [`Response::NotFound`], and no
    /// path panics.
    pub fn answer(&self, query: &Query) -> Response {
        intertubes_obs::counter("serve.queries_answered", 1);
        match query {
            Query::IspRisk { isp } => self.isp_risk(isp),
            Query::Similarity { isp } => self.similarity(isp),
            Query::Latency { a, b } => self.latency(a, b),
            Query::TopShared { k } => self.top_shared(*k),
            Query::CutImpact { conduits } => self.cut_impact(conduits),
            Query::Ensemble { plan } => self.ensemble(plan),
            Query::Stats => Response::Stats(self.stats_view()),
        }
    }

    /// The current count-plane snapshot, or an empty (but well-formed)
    /// view when no telemetry sink is attached.
    pub fn stats_view(&self) -> StatsView {
        self.telemetry
            .as_ref()
            .map(|t| t.stats_view())
            .unwrap_or_else(|| StatsView {
                schema: STATS_SCHEMA.to_string(),
                ..StatsView::default()
            })
    }

    /// Evaluates a scenario ensemble against this snapshot's frozen map,
    /// route index, and CSR search structures. Public so the CLI's
    /// `scenario` subcommand and `bench_scenario` can reuse exactly the
    /// serving evaluation path (and its determinism contract).
    pub fn conditional_risk(&self, plan: &ScenarioPlan) -> Result<ConditionalRisk, ScenarioError> {
        let ctx = EvalContext {
            map: &self.snap.map,
            pairs: &self.snap.paths.pairs,
            postings: &self.postings,
            cuts: &self.cuts,
            csr: &self.csr,
            km: &self.km,
            shared: &self.snap.risk.shared,
            landmarks: self.landmarks.as_ref(),
        };
        evaluate(&ctx, plan)
    }

    fn ensemble(&self, plan: &ScenarioPlan) -> Response {
        match self.conditional_risk(plan) {
            Ok(report) => Response::Ensemble(report),
            Err(err) => Response::InvalidQuery {
                reason: err.to_string(),
            },
        }
    }

    /// The map node labelled `label` (the last, if several are).
    fn node(&self, label: &str) -> Option<u32> {
        let nodes = &self.snap.map.nodes;
        let at = (self.node_by_label)
            .binary_search_by(|&i| nodes[i as usize].label.as_str().cmp(label))
            .ok()?;
        self.node_by_label.get(at).copied()
    }

    fn isp_risk(&self, isp: &str) -> Response {
        // A repeated name answers from its last row, as a label does.
        let Some(row) = self.snap.risk.isps.iter().rposition(|name| name == isp) else {
            return Response::NotFound {
                what: format!("provider {isp:?}"),
            };
        };
        let mine = self.snap.risk.conduits_of(row);
        let shared = &self.snap.risk.shared;
        let sum: u64 = mine.iter().map(|&c| shared[c] as u64).sum();
        Response::IspRisk(IspRiskView {
            isp: isp.to_string(),
            conduits: mine.len(),
            avg_shared: sum as f64 / mine.len().max(1) as f64,
            max_shared: mine.iter().map(|&c| shared[c]).max().unwrap_or(0),
            ge4_conduits: mine.iter().filter(|&&c| shared[c] >= 4).count(),
            observed_conduits: self
                .snap
                .overlay
                .isp_conduits
                .get(isp)
                .map_or(0, |cs| cs.len()),
        })
    }

    fn similarity(&self, isp: &str) -> Response {
        let heat = &self.snap.hamming;
        let Some(row) = heat.isps.iter().position(|name| name == isp) else {
            return Response::NotFound {
                what: format!("provider {isp:?}"),
            };
        };
        let others: Vec<(u32, &String)> = heat.distance[row]
            .iter()
            .zip(&heat.isps)
            .enumerate()
            .filter(|&(j, _)| j != row)
            .map(|(_, (&d, name))| (d, name))
            .collect();
        let mean = others.iter().map(|&(d, _)| d as f64).sum::<f64>() / others.len().max(1) as f64;
        let mut ranked = others;
        ranked.sort_by(|x, y| x.0.cmp(&y.0).then_with(|| x.1.cmp(y.1)));
        Response::Similarity(SimilarityView {
            isp: isp.to_string(),
            mean_distance: mean,
            nearest: ranked
                .into_iter()
                .take(5)
                .map(|(distance, name)| NeighborView {
                    isp: name.clone(),
                    distance,
                })
                .collect(),
        })
    }

    fn latency(&self, a: &str, b: &str) -> Response {
        let (Some(na), Some(nb)) = (self.node(a), self.node(b)) else {
            return Response::NotFound {
                what: format!("city pair {a:?} – {b:?}"),
            };
        };
        let Some(pair) = self.snap.paths.lookup(na, nb) else {
            return Response::NotFound {
                what: format!("conduit-joined pair {a:?} – {b:?}"),
            };
        };
        let (Some(best_us), Some(avg_us)) =
            (pair.best_us(), pair.avg_us(self.snap.paths.detour_cap))
        else {
            return Response::NotFound {
                what: format!("route between {a:?} and {b:?}"),
            };
        };
        let (a_label, b_label) = (
            &self.snap.map.nodes[pair.a as usize].label,
            &self.snap.map.nodes[pair.b as usize].label,
        );
        Response::Latency(LatencyView {
            a: a_label.clone(),
            b: b_label.clone(),
            best_us,
            avg_us,
            row_us: pair.row_us,
            los_us: pair.los_us,
            k_paths: pair.paths.len(),
        })
    }

    fn top_shared(&self, k: usize) -> Response {
        let shared = &self.snap.risk.shared;
        let mut ids: Vec<u32> = (0..shared.len() as u32).collect();
        // §4.2 ranking order: share count descending, id ascending — the
        // same tie-break as `mitigation::heaviest_conduits`.
        ids.sort_by(|&x, &y| {
            shared[y as usize]
                .cmp(&shared[x as usize])
                .then_with(|| x.cmp(&y))
        });
        Response::TopShared(TopSharedView {
            ranking: ids
                .into_iter()
                .take(k)
                .map(|c| {
                    let conduit = &self.snap.map.conduits[c as usize];
                    SharedConduitView {
                        conduit: c,
                        a: self.snap.map.nodes[conduit.a.index()].label.clone(),
                        b: self.snap.map.nodes[conduit.b.index()].label.clone(),
                        shared: shared[c as usize],
                    }
                })
                .collect(),
        })
    }

    fn cut_impact(&self, conduits: &[u32]) -> Response {
        let n = self.snap.map.conduits.len();
        if let Some(&bad) = conduits.iter().find(|&&c| c as usize >= n) {
            return Response::NotFound {
                what: format!("conduit {bad} (map has {n})"),
            };
        }
        let ids: Vec<MapConduitId> = conduits.iter().map(|&c| MapConduitId(c)).collect();
        let report = self.cuts.cut(&ids);
        // Conduit ids are edge ids of the conduit graph, so an infinite
        // km masks each severed conduit from the live search.
        let mut km = self.km.clone();
        for &c in conduits {
            km[c as usize] = f64::INFINITY;
        }
        let mut hits = Vec::new();
        self.postings
            .hit_pairs(conduits.iter().map(|&c| c as usize), &mut hits);
        let mut st = SearchState::new();
        let pair_deltas = hits
            .iter()
            .filter_map(|&i| {
                let pair = self.snap.paths.pairs.get(i as usize)?;
                let before_us = pair.best_us()?;
                // Exact post-cut best route via a live ALT-pruned search
                // over the frozen adjacency (the stored k routes were only
                // an approximation here: a k+1-th route could survive).
                let after_us = match csr_dijkstra(
                    &self.csr,
                    &mut st,
                    NodeId(pair.a),
                    NodeId(pair.b),
                    |e: EdgeId| km[e.index()],
                    self.landmarks.as_ref(),
                ) {
                    Ok(Some(p)) => Some(fiber_delay_us(p.cost)),
                    _ => None,
                };
                Some(PairDeltaView {
                    a: self.snap.map.nodes[pair.a as usize].label.clone(),
                    b: self.snap.map.nodes[pair.b as usize].label.clone(),
                    before_us,
                    after_us,
                    delta_us: after_us.map(|after| after - before_us),
                })
            })
            .collect();
        Response::CutImpact(CutImpactView {
            report,
            pair_deltas,
        })
    }
}
