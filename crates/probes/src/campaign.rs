//! Synthetic traceroute campaigns (the paper's §4.3 measurement input).
//!
//! The paper overlays 4.9 M Edgescope traceroutes — probes launched from
//! BitTorrent clients in residential networks — onto the physical map. We
//! simulate the same measurement: clients in population-weighted cities
//! probe destinations across the country; each probe's layer-3 path is an
//! access-ISP segment, a transit segment, and (usually) a far-side access
//! segment, routed over the carriers' ground-truth conduit footprints.
//!
//! Measurement imperfections are modelled explicitly:
//! * **MPLS tunnels** hide the interior hops of a transit segment (the
//!   paper argues, citing its own MPLS study, that the frequency is low
//!   enough not to bias the overlay — the default rate matches).
//! * **Geolocation failures** leave hops unresolved.
//! * **DNS naming hints** (airport codes and carrier tags in interface
//!   names) identify a hop's operator only part of the time.
//!
//! Probes are generated in chunks of `CAMPAIGN_CHUNK` by one serial
//! generator (one RNG, one routing table), so a consumer can fold each
//! chunk away before the next is drawn: [`run_campaign`] collects the
//! chunks, while [`crate::fold_campaign`] overlays them as they come and
//! never holds the campaign whole. Either way the draws, and so the
//! traces, are the same.

use intertubes_atlas::{CityId, IspId, IspTier, World};
use intertubes_graph::{csr_shortest_path_tree, CsrGraph, EdgeId, NodeId, PathTree, SearchState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// Number of traceroutes to launch (paper: 4.9 M over 3 months; default
    /// is CI-friendly and the harness sweeps it).
    pub probes: usize,
    /// Campaign RNG seed (combined with the world seed).
    pub seed: u64,
    /// Probability that a transit segment traverses an MPLS tunnel, hiding
    /// its interior hops.
    pub mpls_rate: f64,
    /// Probability that a hop cannot be geolocated.
    pub geolocation_failure_rate: f64,
    /// Probability that a hop's interface name reveals its operator.
    pub dns_hint_rate: f64,
    /// Probability that a single-carrier route is used when available
    /// (otherwise access + transit composition).
    pub single_carrier_rate: f64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            probes: 200_000,
            seed: 2014, // the campaign window in the paper: Jan–Mar 2014
            mpls_rate: 0.2,
            geolocation_failure_rate: 0.08,
            dns_hint_rate: 0.7,
            single_carrier_rate: 0.3,
        }
    }
}

/// Probes drawn per generator chunk. Only the memory a streamed consumer
/// holds depends on it: the draws and traces do not.
pub(crate) const CAMPAIGN_CHUNK: usize = 4_096;

/// One observed traceroute hop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hop {
    /// Geolocated city, if resolution succeeded.
    pub city: Option<CityId>,
    /// Operator revealed by DNS naming hints, if parseable: an index into
    /// the world's roster. The overlay treats an id outside the roster as
    /// no hint.
    pub isp_hint: Option<IspId>,
}

/// One observed traceroute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Traceroute {
    /// Source city (client geolocation — assumed reliable, as in the paper).
    pub src: CityId,
    /// Destination city.
    pub dst: CityId,
    /// Observed hops, source side first.
    pub hops: Vec<Hop>,
}

/// A full campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Campaign {
    /// Parameters used.
    pub config: ProbeConfig,
    /// The traceroutes.
    pub traces: Vec<Traceroute>,
    /// Probes that could not be routed (no carrier combination reaches).
    pub unrouted: usize,
}

/// Per-provider routing state over the ground-truth conduit graph.
struct CarrierTable<'w> {
    world: &'w World,
    /// Per provider: the conduit graph frozen with only its footprint's
    /// edges, for every route search in that footprint.
    views: Vec<CsrGraph>,
    /// Search scratch reused across tree builds.
    st: SearchState,
    /// Conduit length per edge, km.
    km: Vec<f64>,
    /// For each provider: whether it touches each city.
    presence: Vec<Vec<bool>>,
    /// For each city: the providers touching it, ascending.
    present: Vec<Vec<usize>>,
    /// Provider weights for access selection (per city aggregated lazily).
    access_weight: Vec<f64>,
    /// Provider weights for transit selection.
    transit_weight: Vec<f64>,
    /// Shortest-path tree per (provider, source city) at
    /// `provider * cities + city`, grown on first use; `Some(None)` if the
    /// search failed (every target unreachable).
    trees: Vec<Option<Option<PathTree>>>,
}

impl<'w> CarrierTable<'w> {
    fn new(world: &'w World) -> Self {
        let n_edges = world.system.graph.edge_count();
        let n_cities = world.cities.len();
        let g = &world.system.graph;
        let csr = g.to_csr();
        let mut views = Vec::new();
        let mut presence = Vec::new();
        let mut present = vec![Vec::new(); n_cities];
        let mut access_weight = Vec::new();
        let mut transit_weight = Vec::new();
        for (i, fp) in world.footprints.iter().enumerate() {
            let mut keep = vec![false; n_edges];
            let mut p = vec![false; n_cities];
            for c in &fp.conduits {
                // Conduit ids equal edge ids by construction in the atlas.
                keep[c.index()] = true;
                let cd = world.system.conduit(*c);
                p[cd.a.index()] = true;
                p[cd.b.index()] = true;
            }
            views.push(csr.filtered(&keep));
            for (city, _) in p.iter().enumerate().filter(|(_, &here)| here) {
                present[city].push(i);
            }
            presence.push(p);
            let profile = &world.roster[i];
            // Edgescope probes originate in residential networks: cable and
            // regional access providers dominate the first mile, tier-1
            // carriers dominate transit.
            let links = profile.target_links as f64;
            access_weight.push(match profile.tier {
                IspTier::Cable => 6.0 * links,
                IspTier::Regional => 2.0 * links,
                IspTier::Tier1 => 0.5 * links,
            });
            transit_weight.push(match profile.tier {
                IspTier::Tier1 => 3.0 * links,
                IspTier::Regional => 1.0 * links,
                IspTier::Cable => 0.4 * links,
            });
        }
        CarrierTable {
            world,
            trees: vec![None; views.len() * n_cities],
            views,
            st: SearchState::new(),
            km: g
                .edge_ids()
                .map(|e| world.system.conduit(*g.edge(e)).length_km)
                .collect(),
            presence,
            present,
            access_weight,
            transit_weight,
        }
    }

    /// Appends the shortest km-path within provider `isp`'s footprint from
    /// `src` to `dst` to `route`: its cities (the first only if the route
    /// is empty) and one owner entry per segment. One tree per (provider,
    /// source) answers every destination with the path a point query
    /// would return. Returns `false`, leaving `route` as it was, when no
    /// path exists.
    fn route_into(
        &mut self,
        isp: usize,
        src: CityId,
        dst: CityId,
        route: &mut PlannedRoute,
    ) -> bool {
        let (view, st, km) = (&self.views[isp], &mut self.st, &self.km);
        let tree =
            self.trees[isp * self.world.cities.len() + src.index()].get_or_insert_with(|| {
                // Conduit lengths are finite and non-negative, so the search
                // cannot fail; a failure would just mean "unreachable".
                csr_shortest_path_tree(view, st, NodeId(src.0), |e: EdgeId| km[e.index()]).ok()
            });
        let Some(walk) = tree.as_ref().and_then(|t| t.walk_back(view, NodeId(dst.0))) else {
            return false;
        };
        // The walk runs from `dst` back to `src`: push, then reverse in
        // place. A route already ends at `src`, so its copy is dropped.
        let start = route.cities.len();
        route.cities.push(dst);
        let mut segments = 0;
        for (_, city) in walk {
            route.cities.push(CityId(city.0));
            segments += 1;
        }
        if start > 0 {
            route.cities.pop();
        }
        route.cities[start..].reverse();
        route.owners.extend(std::iter::repeat_n(isp, segments));
        true
    }

    /// The peering city for an access → transit handoff: the city both
    /// providers touch that lies nearest `src`, the lowest id on ties.
    fn peering(&self, access: usize, transit: usize, src: CityId) -> Option<CityId> {
        let n = self.world.cities.len();
        let order = &self.world.nearest_first[src.index() * n..(src.index() + 1) * n];
        let (a, t) = (&self.presence[access], &self.presence[transit]);
        order
            .iter()
            .find(|&&ci| a[ci as usize] && t[ci as usize])
            .map(|&ci| CityId(ci))
    }
}

/// Draws one of `candidates` (provider ids, ascending) that passes
/// `filter`, with probability proportional to its weight; `None` if their
/// weights sum to zero. Ascending ids add and subtract the weights in
/// roster order: the float operations of a scan over the whole roster
/// that skips every provider not listed.
fn weighted_pick(
    rng: &mut StdRng,
    weights: &[f64],
    candidates: &[usize],
    filter: impl Fn(usize) -> bool,
) -> Option<usize> {
    let passing = || candidates.iter().copied().filter(|&i| filter(i));
    let total: f64 = passing().map(|i| weights[i]).sum();
    if total <= 0.0 {
        return None;
    }
    let mut x = rng.gen::<f64>() * total;
    for i in passing() {
        if x < weights[i] {
            return Some(i);
        }
        x -= weights[i];
    }
    None
}

/// City-level route plus the provider owning each hop-to-hop segment.
#[derive(Default)]
struct PlannedRoute {
    cities: Vec<CityId>,
    /// Owner of the segment entering `cities[i+1]` (len = cities.len()-1).
    owners: Vec<usize>,
    /// Range of hop indices inside an MPLS tunnel, if the transit segment
    /// got tunnelled.
    tunnel: Option<(usize, usize)>,
}

/// The serial probe generator behind every campaign: one routing table,
/// one RNG, and the population-weighted city sampler, drawing probes in
/// the order [`run_campaign`] always has.
pub(crate) struct CampaignStream<'w> {
    world: &'w World,
    cfg: ProbeConfig,
    table: CarrierTable<'w>,
    rng: StdRng,
    /// Cumulative population share per city, for sampling.
    cumulative: Vec<f64>,
    /// Probes drawn so far.
    drawn: usize,
    /// Probes that could not be routed so far.
    unrouted: usize,
    /// The route being planned, its buffers reused from probe to probe.
    route: PlannedRoute,
}

impl<'w> CampaignStream<'w> {
    pub(crate) fn new(world: &'w World, cfg: &ProbeConfig) -> CampaignStream<'w> {
        let total_pop: f64 = world.cities.iter().map(|c| c.population as f64).sum();
        let mut cumulative = Vec::with_capacity(world.cities.len());
        let mut acc = 0.0;
        for c in &world.cities {
            acc += c.population as f64 / total_pop;
            cumulative.push(acc);
        }
        CampaignStream {
            world,
            cfg: *cfg,
            table: CarrierTable::new(world),
            rng: StdRng::seed_from_u64(world.config.seed ^ cfg.seed.rotate_left(17)),
            cumulative,
            drawn: 0,
            unrouted: 0,
            route: PlannedRoute::default(),
        }
    }

    /// Probes that could not be routed so far.
    pub(crate) fn unrouted(&self) -> usize {
        self.unrouted
    }

    fn sample_city(&mut self) -> CityId {
        let x: f64 = self.rng.gen();
        CityId(
            self.cumulative
                .partition_point(|&c| c < x)
                .min(self.world.cities.len() - 1) as u32,
        )
    }

    /// Draws up to `chunk` (at least one) of the remaining probes and
    /// appends the routed ones to `out`. Returns how many probes it drew:
    /// 0 once the campaign is exhausted.
    pub(crate) fn next_chunk(&mut self, chunk: usize, out: &mut Vec<Traceroute>) -> usize {
        let n = chunk.max(1).min(self.cfg.probes - self.drawn);
        for _ in 0..n {
            let src = self.sample_city();
            let dst = self.sample_city();
            if src == dst {
                self.unrouted += 1;
                continue;
            }
            // A client retries with a different carrier combination when a
            // first-choice combination cannot reach the destination.
            let (table, rng, route) = (&mut self.table, &mut self.rng, &mut self.route);
            if (0..6).any(|_| plan_route(table, rng, &self.cfg, src, dst, route)) {
                out.push(observe(route, rng, &self.cfg, src, dst));
            } else {
                self.unrouted += 1;
            }
        }
        self.drawn += n;
        n
    }
}

/// Runs a campaign over the world: collects every chunk of the probe
/// generator.
pub fn run_campaign(world: &World, cfg: &ProbeConfig) -> Campaign {
    let mut span = intertubes_obs::stage("probes.campaign");
    span.items("probes", cfg.probes);
    let mut stream = CampaignStream::new(world, cfg);
    let mut traces = Vec::with_capacity(cfg.probes);
    while stream.next_chunk(CAMPAIGN_CHUNK, &mut traces) > 0 {}
    let unrouted = stream.unrouted();
    span.items("traces", traces.len());
    span.items("unrouted", unrouted);
    Campaign {
        config: *cfg,
        traces,
        unrouted,
    }
}

/// Plans a city-level route into `route`: single carrier, or
/// access→transit(→access). Returns `false` if this carrier combination
/// cannot reach `dst`, leaving `route` unspecified.
fn plan_route(
    table: &mut CarrierTable<'_>,
    rng: &mut StdRng,
    cfg: &ProbeConfig,
    src: CityId,
    dst: CityId,
    route: &mut PlannedRoute,
) -> bool {
    route.cities.clear();
    route.owners.clear();
    route.tunnel = None;
    // Option A: one carrier covers both ends.
    if rng.gen_bool(cfg.single_carrier_rate) {
        let isp = weighted_pick(
            rng,
            &table.transit_weight,
            &table.present[src.index()],
            |i| table.presence[i][dst.index()],
        );
        if isp.is_some_and(|isp| table.route_into(isp, src, dst, route)) {
            return true;
        }
    }
    // Option B: access at the source, transit across, access at the far end
    // when the transit carrier does not reach the destination city.
    let Some(access) = weighted_pick(
        rng,
        &table.access_weight,
        &table.present[src.index()],
        |_| true,
    ) else {
        return false;
    };
    let Some(transit) = weighted_pick(
        rng,
        &table.transit_weight,
        &table.present[dst.index()],
        |i| i != access,
    ) else {
        return false;
    };
    // Handoff: the access provider routes to the nearest city shared with
    // the transit provider (approximated by trying the destination first,
    // then a few of the transit provider's cities near the source).
    if table.presence[access][dst.index()] && rng.gen_bool(0.25) {
        // Access carrier happens to haul all the way (regional probe).
        return table.route_into(access, src, dst, route);
    }
    // Find a peering city: a city where both access and transit are present.
    let Some(peering) = table.peering(access, transit, src) else {
        return false;
    };
    if !table.route_into(access, src, peering, route) {
        return false;
    }
    let transit_start = route.cities.len().saturating_sub(1);
    if !table.route_into(transit, peering, dst, route) {
        return false;
    }
    if rng.gen_bool(cfg.mpls_rate) && route.cities.len() > transit_start + 2 {
        route.tunnel = Some((transit_start + 1, route.cities.len() - 2));
    }
    true
}

/// Converts a route planned from `src` to `dst` into an observed
/// traceroute, applying MPLS hiding, geolocation failures and DNS-hint
/// sampling.
fn observe(
    route: &PlannedRoute,
    rng: &mut StdRng,
    cfg: &ProbeConfig,
    src: CityId,
    dst: CityId,
) -> Traceroute {
    let mut hops = Vec::with_capacity(route.cities.len());
    for (i, city) in route.cities.iter().enumerate() {
        if let Some((lo, hi)) = route.tunnel {
            if i >= lo && i <= hi {
                continue; // hop hidden inside an MPLS tunnel
            }
        }
        let resolved = !rng.gen_bool(cfg.geolocation_failure_rate);
        // The owner of the segment *entering* this hop labels its interface;
        // the first hop belongs to the first segment's owner.
        let owner = if i == 0 {
            route.owners.first()
        } else {
            route.owners.get(i - 1)
        };
        let hint = owner.and_then(|&o| {
            if rng.gen_bool(cfg.dns_hint_rate) {
                Some(IspId(o as u32))
            } else {
                None
            }
        });
        hops.push(Hop {
            city: resolved.then_some(*city),
            isp_hint: hint,
        });
    }
    Traceroute { src, dst, hops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The draw as it was before the per-city lists: a scan of the whole
    /// roster that skips every provider `filter` rejects.
    fn full_roster_pick(
        rng: &mut StdRng,
        weights: &[f64],
        filter: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let total: f64 = weights
            .iter()
            .enumerate()
            .filter(|(i, _)| filter(*i))
            .map(|(_, w)| *w)
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = rng.gen::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            if !filter(i) {
                continue;
            }
            if x < *w {
                return Some(i);
            }
            x -= w;
        }
        None
    }

    type Filter<'a> = &'a dyn Fn(usize) -> bool;

    proptest! {
        /// Over a 30-provider roster and two cities, each of the campaign's
        /// three draws (source only, transit other than the access
        /// provider, one carrier at both ends) picks what the full-roster
        /// scan picks and leaves the RNG where it leaves it. About a third
        /// of the weights are zero and a provider touches each city with
        /// probability one half, so empty and zero-sum draws occur.
        #[test]
        fn the_per_city_pick_is_the_full_roster_pick(
            raw in prop::collection::vec(0.0f64..90.0, 30..31),
            touches in prop::collection::vec(0u8..4, 30..31),
            seed in 0u64..u64::MAX,
            access in 0usize..30,
        ) {
            let weights: Vec<f64> = raw.iter().map(|&w| if w < 30.0 { 0.0 } else { w }).collect();
            // Bit 0: touches the source; bit 1: touches the destination.
            let at = |i: usize, end: u8| touches[i] & (1 << end) != 0;
            let present = |end: u8| (0..30).filter(|&i| at(i, end)).collect::<Vec<usize>>();
            let (at_src, at_dst) = (present(0), present(1));
            let draws: [(&[usize], Filter, Filter); 3] = [
                (&at_src, &|_| true, &|i| at(i, 0)),
                (&at_dst, &|i| i != access, &|i| i != access && at(i, 1)),
                (&at_src, &|i| at(i, 1), &|i| at(i, 0) && at(i, 1)),
            ];
            for (n, (candidates, filter, roster_filter)) in draws.into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut oracle = rng.clone();
                let picked = weighted_pick(&mut rng, &weights, candidates, filter);
                let want = full_roster_pick(&mut oracle, &weights, roster_filter);
                prop_assert_eq!(picked, want, "draw {}", n);
                prop_assert_eq!(rng, oracle, "draw {}", n);
            }
        }
    }

    fn small_campaign() -> (World, Campaign) {
        let w = World::reference();
        let cfg = ProbeConfig {
            probes: 3_000,
            ..ProbeConfig::default()
        };
        let c = run_campaign(&w, &cfg);
        (w, c)
    }

    #[test]
    fn campaign_routes_most_probes() {
        let (_, c) = small_campaign();
        assert!(c.traces.len() > 2_000, "only {} routed", c.traces.len());
        assert!(c.unrouted < 1_000, "{} unrouted", c.unrouted);
    }

    #[test]
    fn hops_form_plausible_paths() {
        let (w, c) = small_campaign();
        for t in c.traces.iter().take(200) {
            assert!(t.hops.len() >= 2, "trace with {} hops", t.hops.len());
            // Consecutive resolved hops must be conduit-adjacent or have a
            // hidden gap (MPLS/geoloc) between them — verify adjacency holds
            // for immediately consecutive resolved hops.
            let cities: Vec<CityId> = t.hops.iter().filter_map(|h| h.city).collect();
            for wpair in cities.windows(2) {
                if wpair[0] == wpair[1] {
                    continue;
                }
                // Not strictly adjacent if noise removed hops between; just
                // check both are real cities.
                assert!(wpair[0].index() < w.cities.len());
                assert!(wpair[1].index() < w.cities.len());
            }
        }
    }

    #[test]
    fn first_hop_is_usually_source_city() {
        let (_, c) = small_campaign();
        let mut at_src = 0;
        let mut total = 0;
        for t in &c.traces {
            if let Some(city) = t.hops[0].city {
                total += 1;
                at_src += (city == t.src) as usize;
            }
        }
        assert!(at_src == total, "first resolved hop must be the source");
    }

    #[test]
    fn hints_reference_roster_names() {
        let (w, c) = small_campaign();
        let mut hinted = 0usize;
        for t in &c.traces {
            for h in &t.hops {
                if let Some(hint) = h.isp_hint {
                    assert!(hint.index() < w.roster.len(), "unknown hint {hint:?}");
                    hinted += 1;
                }
            }
        }
        assert!(hinted > 1_000, "hints too rare: {hinted}");
    }

    #[test]
    fn unpublished_carriers_appear_in_hints() {
        let (w, c) = small_campaign();
        let softlayer = c
            .traces
            .iter()
            .flat_map(|t| t.hops.iter())
            .filter_map(|h| h.isp_hint)
            .filter(|id| w.roster[id.index()].name == "SoftLayer")
            .count();
        assert!(softlayer > 0, "SoftLayer should carry some probes");
    }

    #[test]
    fn chunk_size_never_changes_the_draws() {
        let w = World::reference();
        let cfg = ProbeConfig {
            probes: 300,
            ..ProbeConfig::default()
        };
        let whole = run_campaign(&w, &cfg);
        for chunk in [1, 7, 299, 301] {
            let mut stream = CampaignStream::new(&w, &cfg);
            let mut traces = Vec::new();
            let mut drawn = 0;
            loop {
                let n = stream.next_chunk(chunk, &mut traces);
                if n == 0 {
                    break;
                }
                assert!(n <= chunk);
                drawn += n;
            }
            assert_eq!(drawn, cfg.probes);
            assert_eq!(traces, whole.traces, "chunk {chunk}");
            assert_eq!(stream.unrouted(), whole.unrouted, "chunk {chunk}");
        }
    }

    #[test]
    fn deterministic() {
        let w = World::reference();
        let cfg = ProbeConfig {
            probes: 500,
            ..ProbeConfig::default()
        };
        let a = run_campaign(&w, &cfg);
        let b = run_campaign(&w, &cfg);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn mpls_hides_hops() {
        let w = World::reference();
        let base = ProbeConfig {
            probes: 2_000,
            mpls_rate: 0.0,
            ..ProbeConfig::default()
        };
        let tunnelled = ProbeConfig {
            probes: 2_000,
            mpls_rate: 0.9,
            ..ProbeConfig::default()
        };
        let h0: usize = run_campaign(&w, &base)
            .traces
            .iter()
            .map(|t| t.hops.len())
            .sum();
        let h1: usize = run_campaign(&w, &tunnelled)
            .traces
            .iter()
            .map(|t| t.hops.len())
            .sum();
        assert!(
            h1 < h0,
            "heavy MPLS should hide hops: {h1} observed vs {h0} without tunnels"
        );
    }
}
