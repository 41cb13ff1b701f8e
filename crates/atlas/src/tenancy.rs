//! Footprint synthesis: which ISP rents fiber in which conduit.
//!
//! The paper's central empirical finding is heavy conduit sharing driven by
//! economics: providers pull fiber through existing conduits rather than
//! trench new ones. We reproduce the *mechanism*: each provider connects its
//! target cities over the ground-truth conduit graph, routing with a cost
//! function that discounts popular (high-attractiveness) conduits in
//! proportion to the provider's `backbone_affinity`. High-affinity providers
//! (Deutsche Telekom, NTT, XO, …) pile onto the same backbone; low-affinity
//! providers (Suddenlink, EarthLink, Level 3) spread out.
//!
//! Footprint sizes are calibrated to the paper's per-ISP link counts
//! (Table 1 / §2.3) by batch-unwinding overshoot and padding with adjacent
//! conduits.

use intertubes_graph::{csr_nearest_member, CsrGraph, EdgeId, NodeId, SearchState};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::cities::{City, CityId};
use crate::conduits::{ConduitId, ConduitSystem};
use crate::isps::IspProfile;

/// One provider's physical footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Footprint {
    /// Conduits the provider has fiber in, sorted by id. Each entry is one
    /// "long-haul link" in the paper's counting.
    pub conduits: Vec<ConduitId>,
    /// The seed cities the footprint was grown from.
    pub seed_cities: Vec<CityId>,
}

impl Footprint {
    /// All cities touched by the footprint (endpoints of its conduits),
    /// sorted and deduplicated.
    pub fn cities(&self, sys: &ConduitSystem) -> Vec<CityId> {
        let mut out: Vec<CityId> = self
            .conduits
            .iter()
            .flat_map(|c| {
                let cd = sys.conduit(*c);
                [cd.a, cd.b]
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the provider rents fiber in `c`.
    pub fn uses(&self, c: ConduitId) -> bool {
        self.conduits.binary_search(&c).is_ok()
    }
}

/// Scores each city for an ISP: population-weighted, regionally decayed.
fn presence_scores(cities: &[City], isp: &IspProfile, rng: &mut StdRng) -> Vec<f64> {
    // High-affinity providers stick to the biggest metros; low-affinity
    // providers serve smaller markets too.
    let pop_exp = 0.30 + 0.40 * isp.backbone_affinity;
    cities
        .iter()
        .map(|c| {
            let pop = (c.population as f64).powf(pop_exp);
            let regional = match isp.anchor {
                Some((lat, lon)) => {
                    let anchor = intertubes_geo::GeoPoint::new_unchecked(lat, lon);
                    let d = anchor.distance_km(&c.location);
                    (-d / isp.spread_km).exp()
                }
                None => 1.0,
            };
            let jitter: f64 = rng.gen_range(0.75..1.25);
            pop * regional * jitter
        })
        .collect()
}

/// Grows one provider's footprint. See the module docs for the scheme.
///
/// `prior_counts` holds the tenant count per conduit over the providers
/// already placed; low-affinity (diverse) providers preferentially pad into
/// little-used conduits. This mirrors how the real map was assembled: a
/// conduit appears at all because *some* provider's map shows it, and the
/// geographically diverse providers are the source of most unique conduits.
/// Conduits hidden from geocoded-map providers (`reserved[c] = true`):
/// these are the regional trenches that only surface in step 3 of the
/// paper's pipeline, when POP-only maps are added (+30 conduits in the
/// paper). Pass all-false to disable the mechanism.
///
/// `csr` is `sys.graph` frozen for search, once per world.
pub(crate) fn grow_footprint(
    cities: &[City],
    sys: &ConduitSystem,
    csr: &CsrGraph,
    isp: &IspProfile,
    prior_counts: &[u16],
    reserved: &[bool],
    rng: &mut StdRng,
) -> Footprint {
    let hidden = |c: usize| -> bool {
        isp.map_kind == crate::isps::MapKind::Geocoded && reserved.get(c).copied().unwrap_or(false)
    };
    let scores = presence_scores(cities, isp, rng);
    let mut order: Vec<usize> = (0..cities.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let seeds: Vec<CityId> = order
        .iter()
        .take(isp.target_cities.max(2))
        .map(|&i| CityId(i as u32))
        .collect();

    // Per-(ISP, conduit) routing jitter: diversifies low-affinity routing.
    let jitter: Vec<f64> = (0..sys.conduits.len()).map(|_| rng.gen::<f64>()).collect();
    let affinity = isp.backbone_affinity;
    let cost = |e: EdgeId| -> f64 {
        let cid = *sys.graph.edge(e);
        if hidden(cid.index()) {
            return f64::INFINITY;
        }
        let attr = sys.attractiveness[cid.index()];
        // The backbone discount has a universal part (established conduits
        // are cheap for *everyone* — that is the economics the paper
        // describes) plus an affinity-scaled part; the diversity jitter
        // spreads low-affinity providers across alternate spurs, and the
        // coverage discount steers them through conduits that no or few
        // earlier providers have shown (diverse providers are the source of
        // most unique conduits in the real map).
        let coverage = match prior_counts.get(cid.index()).copied().unwrap_or(0) {
            0 => 0.5,
            1 => 0.35,
            _ => 0.0,
        };
        // The handful of top corridors (the Rockies crossings, the NE
        // corridor) are an order of magnitude cheaper to rent into than to
        // bypass — even diversity-seeking providers transit them, which is
        // what produces the paper's "12 conduits shared by >17 of 20 ISPs".
        let backbone_discount = if attr > 0.88 { 0.45 } else { 0.0 };
        let penalty = (1.6
            - (0.60 + 0.65 * affinity) * attr
            - backbone_discount
            - (1.0 - affinity) * (0.9 * jitter[cid.index()] + coverage))
            .max(0.2);
        sys.conduit(cid).length_km * penalty
    };
    // The cost is fixed for the whole growth, so evaluate it once per edge.
    let costs: Vec<f64> = (0..csr.edge_count() as u32)
        .map(|e| cost(EdgeId(e)))
        .collect();

    let mut search = SearchState::new();
    let mut in_footprint = vec![false; sys.conduits.len()];
    let mut in_component = vec![false; cities.len()];
    let mut footprint_len = 0usize;
    let mut batches: Vec<Vec<ConduitId>> = Vec::new();
    in_component[seeds[0].index()] = true;

    for s in seeds.iter().skip(1) {
        if footprint_len >= isp.target_links {
            break;
        }
        if in_component[s.index()] {
            continue;
        }
        // Cheapest path to the nearest node already in the component; every
        // cost is positive, so ties go to the lowest city index. A seed whose
        // search meets an invalid cost, or reaches no component node, is
        // skipped rather than panicking.
        let Ok(Some(path)) =
            csr_nearest_member(csr, &mut search, NodeId(s.0), &in_component, |e| {
                costs[e.index()]
            })
        else {
            continue;
        };
        let mut batch = Vec::new();
        for e in &path.edges {
            let cid = *sys.graph.edge(*e);
            if !in_footprint[cid.index()] {
                in_footprint[cid.index()] = true;
                footprint_len += 1;
                batch.push(cid);
            }
        }
        for n in &path.nodes {
            in_component[n.index()] = true;
        }
        batches.push(batch);
    }

    // Unwind overshoot batch-by-batch (last connections first).
    while footprint_len > isp.target_links {
        let Some(batch) = batches.pop() else { break };
        for cid in batch {
            in_footprint[cid.index()] = false;
            footprint_len -= 1;
        }
    }
    // Recompute the component from surviving conduits.
    in_component.iter_mut().for_each(|b| *b = false);
    in_component[seeds[0].index()] = true;
    for (i, used) in in_footprint.iter().enumerate() {
        if *used {
            let c = sys.conduit(ConduitId(i as u32));
            in_component[c.a.index()] = true;
            in_component[c.b.index()] = true;
        }
    }

    // Pad with adjacent conduits up to the target, preferring attractive
    // conduits in proportion to affinity.
    while footprint_len < isp.target_links {
        let mut best: Option<(ConduitId, f64)> = None;
        for (i, c) in sys.conduits.iter().enumerate() {
            if in_footprint[i] || hidden(i) {
                continue;
            }
            if !(in_component[c.a.index()] || in_component[c.b.index()]) {
                continue;
            }
            let attr = sys.attractiveness[i];
            // Diverse providers seek out conduits nobody has shown yet.
            let coverage_bonus = match prior_counts.get(i).copied().unwrap_or(0) {
                0 => 1.8 * (1.0 - affinity),
                1 => 1.2 * (1.0 - affinity),
                _ => 0.0,
            };
            let w = 0.3 + affinity * attr + (1.0 - affinity) * jitter[i] + coverage_bonus;
            if best.map_or(true, |(_, bw)| w > bw) {
                best = Some((ConduitId(i as u32), w));
            }
        }
        let Some((cid, _)) = best else { break };
        in_footprint[cid.index()] = true;
        footprint_len += 1;
        let c = sys.conduit(cid);
        in_component[c.a.index()] = true;
        in_component[c.b.index()] = true;
    }

    let conduits: Vec<ConduitId> = in_footprint
        .iter()
        .enumerate()
        .filter(|(_, u)| **u)
        .map(|(i, _)| ConduitId(i as u32))
        .collect();
    Footprint {
        conduits,
        seed_cities: seeds,
    }
}

/// Grows footprints for the whole roster, in roster order, threading the
/// running tenant counts so later (and diverse) providers fill coverage
/// holes.
pub fn assign_footprints(
    cities: &[City],
    sys: &ConduitSystem,
    roster: &[IspProfile],
    rng: &mut StdRng,
) -> (Vec<Footprint>, Vec<bool>) {
    let reserved = reserve_step3_conduits(sys, 30, rng);
    let csr = sys.graph.to_csr();
    let mut counts = vec![0u16; sys.conduits.len()];
    let mut out = Vec::with_capacity(roster.len());
    for isp in roster {
        let fp = grow_footprint(cities, sys, &csr, isp, &counts, &reserved, rng);
        for c in &fp.conduits {
            counts[c.index()] += 1;
        }
        out.push(fp);
    }
    (out, reserved)
}

/// Picks `n` low-attractiveness, non-bridge conduits to hide from
/// geocoded-map providers (the paper's step-3-only conduits).
fn reserve_step3_conduits(sys: &ConduitSystem, n: usize, rng: &mut StdRng) -> Vec<bool> {
    let bridge_edges: std::collections::HashSet<usize> = intertubes_graph::bridges(&sys.graph)
        .into_iter()
        .map(|e| sys.graph.edge(e).index())
        .collect();
    let mut candidates: Vec<usize> = (0..sys.conduits.len())
        .filter(|i| !bridge_edges.contains(i))
        .collect();
    candidates.sort_by(|&a, &b| sys.attractiveness[a].total_cmp(&sys.attractiveness[b]));
    candidates.truncate((n * 3).min(candidates.len()));
    // Sample n of the 3n least attractive, for geographic spread.
    let mut reserved = vec![false; sys.conduits.len()];
    let mut picked = 0usize;
    while picked < n && !candidates.is_empty() {
        let i = rng.gen_range(0..candidates.len());
        reserved[candidates.swap_remove(i)] = true;
        picked += 1;
    }
    reserved
}

/// Sharing-distribution targets (fractions of conduits shared by ≥ k
/// providers). Defaults are the paper's §4.2 numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharingTargets {
    /// Fraction shared by at least 2 providers (paper: 0.8967).
    pub ge2: f64,
    /// Fraction shared by at least 3 providers (paper: 0.6328).
    pub ge3: f64,
    /// Fraction shared by at least 4 providers (paper: 0.5350).
    pub ge4: f64,
}

impl Default for SharingTargets {
    fn default() -> Self {
        SharingTargets {
            ge2: 0.8967,
            ge3: 0.6328,
            ge4: 0.5350,
        }
    }
}

/// IRU-swap calibration pass.
///
/// The growth model alone leaves too many lightly-shared conduits compared
/// to the paper. The real market fixes this with *indefeasible right of use
/// swaps*: carriers trade capacity in their over-provisioned backbone
/// conduits for presence in each other's unique conduits (the paper cites
/// several such agreements, e.g. [44, 45]). This pass performs exactly such
/// swaps: it moves single tenancies of heavily-shared conduits into
/// lightly-shared adjacent conduits until the ≥2/≥3/≥4 sharing fractions
/// meet `targets`, preserving every provider's footprint size.
///
/// Only the first `mapped` footprints participate (the paper's 20 ISPs);
/// the top-15 most attractive conduits are protected as donors so the
/// heavily-shared chokepoint tail survives.
pub fn calibrate_sharing(
    sys: &ConduitSystem,
    footprints: &mut [Footprint],
    mapped: usize,
    geocoded: usize,
    reserved: &[bool],
    targets: &SharingTargets,
    rng: &mut StdRng,
) {
    let n = sys.conduits.len();
    let mapped = mapped.min(footprints.len());
    let mut counts = tenant_counts_upto(sys, &footprints[..mapped]);
    let mut uses: Vec<Vec<bool>> = footprints[..mapped]
        .iter()
        .map(|f| {
            let mut u = vec![false; n];
            for c in &f.conduits {
                u[c.index()] = true;
            }
            u
        })
        .collect();
    // Per-ISP touched-city sets, for spatial plausibility of swaps.
    let mut touches: Vec<Vec<bool>> = (0..mapped)
        .map(|i| {
            let mut t = vec![false; sys.graph.node_count()];
            for c in &footprints[i].conduits {
                let cd = sys.conduit(*c);
                t[cd.a.index()] = true;
                t[cd.b.index()] = true;
            }
            t
        })
        .collect();
    let protected: std::collections::HashSet<usize> =
        sys.chokepoints(15).into_iter().map(|c| c.index()).collect();

    // The k = 1 pass guarantees every conduit has at least one mapped
    // tenant — a conduit with none could never have entered the paper's
    // map in the first place.
    for (k, target) in [
        (1u16, 1.0),
        (2, targets.ge2),
        (3, targets.ge3),
        (4, targets.ge4),
    ] {
        // Receivers one tenant short of k, least attractive first; retry the
        // sweep until the target is met or no receiver can be served.
        let mut need = ((target * n as f64).round() as usize)
            .saturating_sub(counts.iter().filter(|&&c| c >= k).count());
        let mut receivers: Vec<usize> = (0..n).filter(|&i| counts[i] == k - 1).collect();
        receivers.sort_by(|&a, &b| sys.attractiveness[a].total_cmp(&sys.attractiveness[b]));
        for receiver in receivers {
            if need == 0 {
                break;
            }
            if counts[receiver] != k - 1 {
                continue;
            }
            let rc = sys.conduit(crate::conduits::ConduitId(receiver as u32));
            // Candidate providers: adjacent to the receiver, not tenants,
            // with a drainable donor conduit.
            let mut placed = false;
            let mut isps: Vec<usize> = (0..mapped).collect();
            // Shuffle provider order so swaps spread across the roster.
            for i in (1..isps.len()).rev() {
                isps.swap(i, rng.gen_range(0..=i));
            }
            if k == 1 {
                // Sole-tenant coverage preferentially goes to the POP-only
                // providers (roster indices ≥ 9): in the paper, step 3 is
                // what surfaces the last ~30 conduits that no geocoded map
                // shows.
                isps.sort_by_key(|&i| usize::from(i < 9));
            }
            'isp: for &isp in &isps {
                if uses[isp][receiver] {
                    continue;
                }
                // Step-3-only conduits never gain geocoded-map tenants —
                // those providers' maps simply do not show them.
                if reserved.get(receiver).copied().unwrap_or(false) && isp < geocoded {
                    continue;
                }
                if !(touches[isp][rc.a.index()] || touches[isp][rc.b.index()]) {
                    continue;
                }
                // Donor: a random well-shared, unprotected conduit of the
                // provider (random choice spreads the drain across the
                // mid-range instead of carving a notch into the histogram).
                let eligible: Vec<crate::conduits::ConduitId> = footprints[isp]
                    .conduits
                    .iter()
                    .copied()
                    .filter(|c| {
                        let i = c.index();
                        counts[i] >= k + 6 && !protected.contains(&i) && i != receiver
                    })
                    .collect();
                if eligible.is_empty() {
                    continue 'isp;
                }
                let donor = eligible[rng.gen_range(0..eligible.len())];
                // Execute the swap.
                let di = donor.index();
                uses[isp][di] = false;
                uses[isp][receiver] = true;
                counts[di] -= 1;
                counts[receiver] += 1;
                touches[isp][rc.a.index()] = true;
                touches[isp][rc.b.index()] = true;
                let fp = &mut footprints[isp];
                fp.conduits.retain(|c| *c != donor);
                let pos = fp.conduits.partition_point(|c| *c < rc.id);
                fp.conduits.insert(pos, rc.id);
                placed = true;
                break;
            }
            if placed {
                need -= 1;
            }
        }
    }
}

fn tenant_counts_upto(sys: &ConduitSystem, footprints: &[Footprint]) -> Vec<u16> {
    let mut counts = vec![0u16; sys.conduits.len()];
    for f in footprints {
        for c in &f.conduits {
            counts[c.index()] += 1;
        }
    }
    counts
}

/// Per-conduit tenant count over a set of footprints.
pub fn tenant_counts(sys: &ConduitSystem, footprints: &[Footprint]) -> Vec<u16> {
    let mut counts = vec![0u16; sys.conduits.len()];
    for f in footprints {
        for c in &f.conduits {
            counts[c.index()] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::load_cities;
    use crate::conduits::{build_conduit_system, ConduitConfig};
    use crate::isps::isp_roster;
    use crate::transport::{build_pipeline_network, build_rail_network, build_road_network};
    use rand::SeedableRng;

    fn world() -> (Vec<City>, ConduitSystem, Vec<IspProfile>, Vec<Footprint>) {
        let cities = load_cities();
        let mut rng = StdRng::seed_from_u64(1504);
        let (road, _) = build_road_network(&cities, &mut rng);
        let rail = build_rail_network(&cities, &road, &mut rng);
        let pipe = build_pipeline_network(&cities, &road, &mut rng);
        let sys = build_conduit_system(
            &cities,
            &road,
            &rail,
            &pipe,
            &ConduitConfig::default(),
            &mut rng,
        );
        let roster = isp_roster();
        let (fps, _) = assign_footprints(&cities, &sys, &roster, &mut rng);
        (cities, sys, roster, fps)
    }

    #[test]
    fn footprints_hit_link_targets() {
        let (_, _, roster, fps) = world();
        for (isp, fp) in roster.iter().zip(fps.iter()) {
            let got = fp.conduits.len();
            let want = isp.target_links;
            assert!(
                got == want || (got as i64 - want as i64).unsigned_abs() as usize <= want / 10,
                "{}: footprint {} vs target {}",
                isp.name,
                got,
                want
            );
        }
    }

    #[test]
    fn footprints_are_sorted_unique() {
        let (_, _, _, fps) = world();
        for fp in &fps {
            for w in fp.conduits.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn high_affinity_isps_share_more() {
        let (_, sys, roster, fps) = world();
        // Restrict to the 20 mapped ISPs as the paper does.
        let counts = tenant_counts(&sys, &fps[..crate::isps::MAPPED_ISPS]);
        let avg_sharing = |fp: &Footprint| -> f64 {
            fp.conduits
                .iter()
                .map(|c| counts[c.index()] as f64)
                .sum::<f64>()
                / fp.conduits.len() as f64
        };
        let by_name = |n: &str| {
            let i = roster.iter().position(|p| p.name == n).unwrap();
            avg_sharing(&fps[i])
        };
        let dt = by_name("Deutsche Telekom");
        let ntt = by_name("NTT");
        let sudden = by_name("Suddenlink");
        let earthlink = by_name("EarthLink");
        assert!(
            dt > sudden && ntt > sudden,
            "backbone riders must out-share Suddenlink: DT {dt:.1}, NTT {ntt:.1}, Suddenlink {sudden:.1}"
        );
        assert!(
            dt > earthlink,
            "DT ({dt:.1}) should share more than diverse EarthLink ({earthlink:.1})"
        );
    }

    #[test]
    fn chokepoints_collect_many_tenants() {
        let (_, sys, _, fps) = world();
        let counts = tenant_counts(&sys, &fps[..crate::isps::MAPPED_ISPS]);
        let chokepoints = sys.chokepoints(12);
        let avg_choke: f64 = chokepoints
            .iter()
            .map(|c| counts[c.index()] as f64)
            .sum::<f64>()
            / chokepoints.len() as f64;
        let avg_all: f64 = counts.iter().map(|&c| c as f64).sum::<f64>() / counts.len() as f64;
        assert!(
            avg_choke > 2.0 * avg_all,
            "chokepoints ({avg_choke:.1}) should be far above average ({avg_all:.1})"
        );
    }

    #[test]
    fn footprint_cities_cover_seeds_mostly() {
        let (_, sys, _, fps) = world();
        for fp in &fps {
            let cities = fp.cities(&sys);
            assert!(!cities.is_empty());
            // Each conduit endpoint must be in the city list.
            for c in &fp.conduits {
                let cd = sys.conduit(*c);
                assert!(cities.binary_search(&cd.a).is_ok());
                assert!(cities.binary_search(&cd.b).is_ok());
            }
        }
    }

    #[test]
    fn deterministic() {
        let (_, _, _, a) = world();
        let (_, _, _, b) = world();
        assert_eq!(a, b);
    }
}
