//! Overlaying observed traceroutes onto the constructed physical map
//! (§4.3): conduit popularity as a traffic proxy, direction-classified
//! top-conduit tables (Tables 2/3), per-provider conduit usage (Table 4),
//! and the additional-provider inference behind Fig. 9.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::OnceLock;

use intertubes_atlas::{IspId, World};
use intertubes_degrade::{DegradationAction, DegradationPolicy, DegradationReport};
use intertubes_geo::GeoPoint;
use intertubes_graph::{
    csr_shortest_path_tree, CsrGraph, EdgeId, NodeId, PathTree, SearchState, TreeWalk,
};
use intertubes_map::{FiberMap, MapNodeId};
use serde::{Deserialize, Serialize};

use crate::campaign::{Campaign, CampaignStream, ProbeConfig, Traceroute, CAMPAIGN_CHUNK};
use crate::ProbeError;

/// Probe direction, classified from endpoint geolocations as in the paper
/// ("classified based on geolocation information for source/destination
/// hops").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// West-origin, east-bound (Table 2).
    WestToEast,
    /// East-origin, west-bound (Table 3).
    EastToWest,
    /// Predominantly north–south.
    Meridional,
}

/// Classifies a probe's direction from its endpoints.
pub fn classify_direction(src: &GeoPoint, dst: &GeoPoint) -> Direction {
    let dlon = dst.lon - src.lon;
    let dlat = dst.lat - src.lat;
    if dlon.abs() < dlat.abs() {
        Direction::Meridional
    } else if dlon > 0.0 {
        Direction::WestToEast
    } else {
        Direction::EastToWest
    }
}

/// The overlay result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Overlay {
    /// Total probe traversals per map conduit.
    pub conduit_freq: Vec<u64>,
    /// West→east traversals per conduit.
    pub west_east: Vec<u64>,
    /// East→west traversals per conduit.
    pub east_west: Vec<u64>,
    /// Providers observed (via DNS hints) crossing each conduit.
    pub observed_isps: Vec<BTreeSet<String>>,
    /// Conduits observed carrying each provider's traffic.
    pub isp_conduits: BTreeMap<String, BTreeSet<u32>>,
    /// Traces successfully overlaid.
    pub overlaid: usize,
    /// Traces skipped (no resolvable hop pair).
    pub skipped: usize,
}

/// One row of a top-conduit table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConduitRow {
    /// Endpoint label.
    pub a: String,
    /// Endpoint label.
    pub b: String,
    /// Probe count.
    pub probes: u64,
}

impl Overlay {
    /// An all-zero overlay over `n` conduits.
    pub fn empty(n: usize) -> Overlay {
        Overlay {
            conduit_freq: vec![0; n],
            west_east: vec![0; n],
            east_west: vec![0; n],
            observed_isps: vec![BTreeSet::new(); n],
            isp_conduits: BTreeMap::new(),
            overlaid: 0,
            skipped: 0,
        }
    }

    /// The top-`n` conduits for a direction (the paper's Tables 2/3), or
    /// overall when `direction` is `None`.
    pub fn top_conduits(
        &self,
        map: &FiberMap,
        direction: Option<Direction>,
        n: usize,
    ) -> Vec<ConduitRow> {
        let freq = match direction {
            Some(Direction::WestToEast) => &self.west_east,
            Some(Direction::EastToWest) => &self.east_west,
            _ => &self.conduit_freq,
        };
        let mut order: Vec<usize> = (0..freq.len()).collect();
        order.sort_by(|&x, &y| freq[y].cmp(&freq[x]));
        order
            .into_iter()
            .take_while(|&i| freq[i] > 0)
            .take(n)
            .map(|i| {
                let c = &map.conduits[i];
                ConduitRow {
                    a: map.nodes[c.a.index()].label.clone(),
                    b: map.nodes[c.b.index()].label.clone(),
                    probes: freq[i],
                }
            })
            .collect()
    }

    /// Providers ranked by number of conduits observed carrying their
    /// traffic (Table 4).
    pub fn isp_usage_ranking(&self) -> Vec<(String, usize)> {
        let mut rows: Vec<(String, usize)> = self
            .isp_conduits
            .iter()
            .map(|(isp, conduits)| (isp.clone(), conduits.len()))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Tenant counts per conduit: `(map_only, map_plus_observed)` — the two
    /// CDFs of Fig. 9.
    pub fn tenant_counts(&self, map: &FiberMap) -> Vec<(usize, usize)> {
        map.conduits
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let base = c.tenant_count();
                let mut all: BTreeSet<&str> = c.tenants.iter().map(|t| t.isp.as_str()).collect();
                for isp in &self.observed_isps[i] {
                    all.insert(isp.as_str());
                }
                (base, all.len())
            })
            .collect()
    }
}

/// Overlays a collected campaign onto a constructed map; an overlay
/// alone comes cheaper from [`fold_campaign`].
///
/// Consecutive resolved hops are mapped onto map conduits: directly when the
/// hop pair is conduit-adjacent, otherwise along the km-shortest path in the
/// map (gaps arise from MPLS tunnels and geolocation failures).
///
/// Equivalent to [`overlay_campaign_checked`] under the lenient policy,
/// with the degradation report discarded.
pub fn overlay_campaign(world: &World, map: &FiberMap, campaign: &Campaign) -> Overlay {
    match overlay_campaign_checked(world, map, campaign, DegradationPolicy::Lenient) {
        Ok((overlay, _)) => overlay,
        // The lenient policy never returns an error by construction.
        Err(e) => unreachable!("lenient overlay cannot fail: {e}"),
    }
}

/// Overlays a campaign onto a constructed map with explicit degradation
/// control.
///
/// Traces whose src/dst city ids fall outside the world's gazetteer (a
/// data-corruption symptom: real campaigns hit this via stale geolocation
/// databases) are dropped and counted (`"endpoint-out-of-range"`) under
/// [`DegradationPolicy::Lenient`], or abort with
/// [`ProbeError::EndpointOutOfRange`] under strict. Hops pointing at
/// unknown cities are treated as unresolved, exactly like geolocation
/// failures, and a hint outside the roster as no hint. Clean campaigns
/// produce an overlay identical to [`overlay_campaign`]'s and an empty
/// report.
pub fn overlay_campaign_checked(
    world: &World,
    map: &FiberMap,
    campaign: &Campaign,
    policy: DegradationPolicy,
) -> Result<(Overlay, DegradationReport), ProbeError> {
    let chunk = intertubes_parallel::chunk_len(campaign.traces.len());
    overlay_campaign_with_chunk_size(world, map, campaign, policy, chunk)
}

/// [`overlay_campaign_checked`] with an explicit shard size.
///
/// Traces are processed in contiguous chunks of `chunk_size`, one shard
/// per task, and the per-shard tallies are merged by addition and bitwise
/// OR. Because that merge is associative and commutative, the result is
/// identical for every `chunk_size` — the property tests exercise this
/// directly with adversarial shard boundaries.
pub fn overlay_campaign_with_chunk_size(
    world: &World,
    map: &FiberMap,
    campaign: &Campaign,
    policy: DegradationPolicy,
    chunk_size: usize,
) -> Result<(Overlay, DegradationReport), ProbeError> {
    let mut span = intertubes_obs::stage("overlay");
    span.items("traces", campaign.traces.len());
    let index = OverlayIndex::new(world, map);

    // Shard fan-out: contiguous trace chunks, each with its own tally and
    // search scratch. The gap-fill trees are shared: each is grown once,
    // by whichever shard needs it first, and only memoizes a
    // deterministic search, so sharing cannot change any output.
    let shards: Vec<Result<Tally, ProbeError>> = intertubes_parallel::par_chunks_map(
        &campaign.traces,
        chunk_size.max(1),
        |offset, traces| {
            let mut tally = Tally::new(&index);
            let mut gaps = GapTrees::new(&index.routes);
            index.fold(&mut tally, &mut gaps, traces, offset, policy)?;
            Ok(tally)
        },
    );

    // Merge barrier. Shards cover ascending trace ranges, so the first
    // error in shard order is the lowest-index error — the same one the
    // serial loop would abort on under the strict policy.
    let mut tally = Tally::new(&index);
    for shard in shards {
        match shard {
            Ok(part) => tally.merge(&part),
            Err(e) => {
                span.failed();
                return Err(e);
            }
        }
    }
    span.items("overlaid", tally.overlaid);
    span.items("skipped", tally.skipped);
    span.items("bad_endpoints", tally.bad_endpoints);
    if tally.bad_endpoints > 0 {
        span.degraded();
    }
    Ok(index.finish(tally))
}

/// Runs a campaign and overlays it in one serial fold: each chunk of
/// 4 096 probes (`CAMPAIGN_CHUNK`) is overlaid as soon as it is drawn,
/// then dropped, so memory does not grow with the probe count.
///
/// The overlay equals [`overlay_campaign`]'s over
/// [`crate::run_campaign`]'s campaign for the same configuration.
pub fn fold_campaign(world: &World, map: &FiberMap, cfg: &ProbeConfig) -> Overlay {
    fold_campaign_in_chunks(world, map, cfg, CAMPAIGN_CHUNK)
}

/// [`fold_campaign`] with an explicit chunk size (at least one probe);
/// the overlay is the same for every size.
fn fold_campaign_in_chunks(
    world: &World,
    map: &FiberMap,
    cfg: &ProbeConfig,
    chunk_size: usize,
) -> Overlay {
    let mut span = intertubes_obs::stage("probes.fold");
    span.items("probes", cfg.probes);
    let index = OverlayIndex::new(world, map);
    let mut tally = Tally::new(&index);
    let mut gaps = GapTrees::new(&index.routes);
    let mut stream = CampaignStream::new(world, cfg);
    let mut chunk = Vec::new();
    let mut traces = 0usize;
    while stream.next_chunk(chunk_size, &mut chunk) > 0 {
        let policy = DegradationPolicy::Lenient;
        if let Err(e) = index.fold(&mut tally, &mut gaps, &chunk, traces, policy) {
            // The lenient policy never returns an error by construction.
            unreachable!("lenient overlay cannot fail: {e}");
        }
        traces += chunk.len();
        chunk.clear();
    }
    span.items("traces", traces);
    span.items("unrouted", stream.unrouted());
    span.items("overlaid", tally.overlaid);
    span.items("skipped", tally.skipped);
    index.finish(tally).0
}

/// Fixed-width bit rows: `rows` bitsets of `cols` bits each, one flat
/// `u64` buffer.
#[derive(Clone)]
struct BitRows {
    /// Words per row.
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, cols: usize) -> BitRows {
        let words = cols.div_ceil(64);
        BitRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words + col / 64] |= 1 << (col % 64);
    }

    fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.words + col / 64] & (1 << (col % 64)) != 0
    }

    /// Set columns of `row`, ascending.
    fn ones(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        let words = &self.bits[row * self.words..(row + 1) * self.words];
        words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1 << b) != 0)
                .map(move |b| w * 64 + b)
        })
    }

    fn or(&mut self, other: &BitRows) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }
}

/// The overlay's accumulators over provider ids: everything
/// [`Overlay`] holds, with each conduit's observed providers as a bitset
/// over roster ids. Merging is addition and bitwise OR.
#[derive(Clone)]
struct Tally {
    conduit_freq: Vec<u64>,
    west_east: Vec<u64>,
    east_west: Vec<u64>,
    /// One row per conduit, one column per roster entry.
    observed: BitRows,
    overlaid: usize,
    skipped: usize,
    bad_endpoints: usize,
}

impl Tally {
    fn new(index: &OverlayIndex<'_>) -> Tally {
        let n = index.map.conduits.len();
        Tally {
            conduit_freq: vec![0; n],
            west_east: vec![0; n],
            east_west: vec![0; n],
            observed: BitRows::new(n, index.world.roster.len()),
            overlaid: 0,
            skipped: 0,
            bad_endpoints: 0,
        }
    }

    fn merge(&mut self, other: &Tally) {
        for (a, b) in self.conduit_freq.iter_mut().zip(&other.conduit_freq) {
            *a += b;
        }
        for (a, b) in self.west_east.iter_mut().zip(&other.west_east) {
            *a += b;
        }
        for (a, b) in self.east_west.iter_mut().zip(&other.east_west) {
            *a += b;
        }
        self.observed.or(&other.observed);
        self.overlaid += other.overlaid;
        self.skipped += other.skipped;
        self.bad_endpoints += other.bad_endpoints;
    }
}

/// One world × map frozen for the overlay: hop routing, the city → map
/// node lookup, and each conduit's tenants as a roster-id bitset.
struct OverlayIndex<'a> {
    world: &'a World,
    map: &'a FiberMap,
    routes: HopRoutes,
    /// City id → map node (via label).
    city_to_node: Vec<Option<MapNodeId>>,
    /// One row per conduit: the roster entries whose name is a tenant's.
    /// Tenant names outside the roster set no bit.
    tenants: BitRows,
}

impl<'a> OverlayIndex<'a> {
    fn new(world: &'a World, map: &'a FiberMap) -> OverlayIndex<'a> {
        let node_of: HashMap<&str, MapNodeId> = map
            .nodes
            .iter()
            .enumerate()
            .map(|(i, nd)| (nd.label.as_str(), MapNodeId(i as u32)))
            .collect();
        let city_to_node = world
            .cities
            .iter()
            .map(|c| node_of.get(c.label().as_str()).copied())
            .collect();
        // A name held by several roster entries sets each of their bits.
        let mut roster_ids: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, p) in world.roster.iter().enumerate() {
            roster_ids.entry(p.name.as_str()).or_default().push(i);
        }
        let mut tenants = BitRows::new(map.conduits.len(), world.roster.len());
        for (c, conduit) in map.conduits.iter().enumerate() {
            for t in &conduit.tenants {
                for &i in roster_ids
                    .get(t.isp.as_str())
                    .map_or(&[][..], Vec::as_slice)
                {
                    tenants.set(c, i);
                }
            }
        }
        OverlayIndex {
            world,
            map,
            routes: HopRoutes::new(map),
            city_to_node,
            tenants,
        }
    }

    /// Overlays contiguous `traces` into `tally`; `offset` is the first
    /// trace's index in the campaign (used for strict-mode error
    /// reporting).
    fn fold(
        &self,
        tally: &mut Tally,
        gaps: &mut GapTrees<'_>,
        traces: &[Traceroute],
        offset: usize,
        policy: DegradationPolicy,
    ) -> Result<(), ProbeError> {
        let cities = &self.world.cities;
        let providers = self.world.roster.len();
        let mut resolved: Vec<(MapNodeId, Option<usize>)> = Vec::new();
        for (local, t) in traces.iter().enumerate() {
            let endpoints = (cities.get(t.src.index()), cities.get(t.dst.index()));
            let (Some(src_city), Some(dst_city)) = endpoints else {
                if policy.is_strict() {
                    let city = if endpoints.0.is_none() {
                        t.src.0
                    } else {
                        t.dst.0
                    };
                    return Err(ProbeError::EndpointOutOfRange {
                        trace: offset + local,
                        city,
                        cities: cities.len(),
                    });
                }
                tally.bad_endpoints += 1;
                continue;
            };
            let dir = classify_direction(&src_city.location, &dst_city.location);
            // Resolved hop sequence with hints. An out-of-range hop city is
            // indistinguishable from a geolocation failure: unresolved; an
            // out-of-range hint is no hint.
            resolved.clear();
            resolved.extend(t.hops.iter().filter_map(|h| {
                let city = h.city?;
                let node = self.city_to_node.get(city.index()).copied().flatten()?;
                let hint = h.isp_hint.map(IspId::index).filter(|&i| i < providers);
                Some((node, hint))
            }));
            if resolved.len() < 2 {
                tally.skipped += 1;
                continue;
            }
            let mut any = false;
            for pair in resolved.windows(2) {
                let ((u, hint_u), (v, hint_v)) = (pair[0], pair[1]);
                if u == v {
                    continue;
                }
                // Conduits for this hop pair: direct conduit or map-path.
                // Prefer a conduit whose tenants include the hinted
                // operator; fall back to the busiest.
                let direct = || self.routes.direct(u, v);
                let chosen = hint_u
                    .or(hint_v)
                    .and_then(|h| direct().find(|&c| self.tenants.get(c, h)))
                    .or_else(|| direct().max_by_key(|&c| self.map.conduits[c].tenant_count()));
                let mut count = |i: usize| {
                    tally.conduit_freq[i] += 1;
                    match dir {
                        Direction::WestToEast => tally.west_east[i] += 1,
                        Direction::EastToWest => tally.east_west[i] += 1,
                        Direction::Meridional => {}
                    }
                    for hint in [hint_u, hint_v].into_iter().flatten() {
                        tally.observed.set(i, hint);
                    }
                    any = true;
                };
                match chosen {
                    Some(chosen) => count(chosen),
                    None => {
                        for (e, _) in gaps.walk(u, v).into_iter().flatten() {
                            count(e.index());
                        }
                    }
                }
            }
            if any {
                tally.overlaid += 1;
            } else {
                tally.skipped += 1;
            }
        }
        Ok(())
    }

    /// The public overlay of a finished tally, with provider ids named
    /// (several roster entries sharing a name are one provider there),
    /// and its degradation report.
    fn finish(&self, tally: Tally) -> (Overlay, DegradationReport) {
        let roster = &self.world.roster;
        let observed_isps: Vec<BTreeSet<String>> = (0..tally.conduit_freq.len())
            .map(|c| {
                tally
                    .observed
                    .ones(c)
                    .map(|i| roster[i].name.clone())
                    .collect()
            })
            .collect();
        // The provider → conduits map is the same relation transposed.
        let mut isp_conduits: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
        for c in 0..tally.conduit_freq.len() {
            for i in tally.observed.ones(c) {
                isp_conduits
                    .entry(roster[i].name.clone())
                    .or_default()
                    .insert(c as u32);
            }
        }
        let mut report = DegradationReport::new();
        report.note(
            "probes.overlay",
            DegradationAction::Dropped,
            "endpoint-out-of-range",
            tally.bad_endpoints,
        );
        let overlay = Overlay {
            conduit_freq: tally.conduit_freq,
            west_east: tally.west_east,
            east_west: tally.east_west,
            observed_isps,
            isp_conduits,
            overlaid: tally.overlaid,
            skipped: tally.skipped,
        };
        (overlay, report)
    }
}

/// The map frozen once for every shard: its graph, for the conduits
/// joining a hop pair and for the gap-fill searches between hops that
/// share no conduit, and those searches' trees.
struct HopRoutes {
    /// `map.csr()`: conduit `i` is edge `i`, and each node lists its
    /// conduits in ascending id order.
    csr: CsrGraph,
    /// Conduit length per edge, km (conduit `i` is edge `i`).
    km: Vec<f64>,
    /// Shortest-path tree per map node, grown once on first use by any
    /// shard; `None` when the node's component holds an invalid length.
    trees: Vec<OnceLock<Option<PathTree>>>,
}

impl HopRoutes {
    fn new(map: &FiberMap) -> HopRoutes {
        let csr = map.csr();
        HopRoutes {
            trees: (0..csr.node_count()).map(|_| OnceLock::new()).collect(),
            csr,
            km: map.conduit_km(),
        }
    }

    /// The conduits joining distinct nodes `u` and `v`, ascending, so
    /// "first hinted tenant" and "busiest, last on ties" pick what a scan
    /// of every conduit would.
    fn direct(&self, u: MapNodeId, v: MapNodeId) -> impl Iterator<Item = usize> + '_ {
        self.csr
            .neighbors(NodeId(u.0))
            .filter(move |&(_, m)| m.0 == v.0)
            .map(|(e, _)| e.index())
    }
}

/// One shard's gap-fill state: search scratch over the shared trees.
struct GapTrees<'g> {
    routes: &'g HopRoutes,
    st: SearchState,
}

impl<'g> GapTrees<'g> {
    fn new(routes: &'g HopRoutes) -> GapTrees<'g> {
        GapTrees {
            routes,
            st: SearchState::new(),
        }
    }

    /// The cheapest map path between `u` and `v`, walked back from the
    /// higher node id (edge `i` is conduit `i`), or `None` if there is
    /// none. The search always starts at the lower node id, so an
    /// equal-cost tie resolves the same way whichever endpoint a trace
    /// meets first. It builds that node's full tree, so a NaN or negative
    /// length (dirty map geometry) anywhere in the component is an error:
    /// the region is unusable for gap-filling, same as no path.
    fn walk(&mut self, u: MapNodeId, v: MapNodeId) -> Option<TreeWalk<'g>> {
        let (lo, hi) = (u.min(v), u.max(v));
        let (routes, st) = (self.routes, &mut self.st);
        let tree = routes.trees.get(lo.index())?.get_or_init(|| {
            let km = |e: EdgeId| routes.km[e.index()];
            csr_shortest_path_tree(&routes.csr, st, NodeId(lo.0), km).ok()
        });
        tree.as_ref()?.walk_back(&routes.csr, NodeId(hi.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use intertubes_atlas::WorldConfig;
    use intertubes_map::{build_map, PipelineConfig};
    use intertubes_parallel::with_threads;
    use intertubes_records::{generate_corpus, CorpusConfig};
    use proptest::prelude::*;

    /// The world of `seed` and its constructed map.
    fn world_and_map(seed: u64) -> (World, FiberMap) {
        let w = World::generate(WorldConfig {
            seed,
            ..WorldConfig::default()
        });
        let corpus = generate_corpus(&w, &CorpusConfig::default());
        let built = build_map(
            &w.publish_maps(),
            &corpus,
            &w.cities,
            &w.roads,
            &w.rails,
            &PipelineConfig::default(),
        );
        (w, built.map)
    }

    /// The campaign parameters for `probes` probes.
    fn probes(probes: usize) -> ProbeConfig {
        ProbeConfig {
            probes,
            ..ProbeConfig::default()
        }
    }

    /// The reference world, its constructed map, and a campaign of
    /// `probes` probes over it.
    fn reference(n: usize) -> (World, FiberMap, Campaign) {
        let (w, map) = world_and_map(WorldConfig::default().seed);
        let campaign = run_campaign(&w, &probes(n));
        (w, map, campaign)
    }

    fn setup() -> (World, FiberMap, Overlay) {
        let (w, map) = world_and_map(WorldConfig::default().seed);
        let overlay = fold_campaign(&w, &map, &probes(20_000));
        (w, map, overlay)
    }

    fn json(overlay: &Overlay) -> String {
        serde_json::to_string(overlay).expect("overlay serializes")
    }

    /// The streamed fold overlays what the collected campaign overlays,
    /// wherever its chunk boundaries fall: every probe, every seven, and
    /// none at all, each against the collected campaign's overlay
    /// sharded over a different thread count.
    #[test]
    fn the_fold_is_the_collected_overlay_at_any_chunk_size() {
        for seed in [1504, 42, 2015] {
            let (w, map) = world_and_map(seed);
            for n in [0, 1, 997, 10_000] {
                let cfg = probes(n);
                let campaign = run_campaign(&w, &cfg);
                for (chunk, threads) in [(1, 1), (7, 2), (n + 1, 4)] {
                    let want = with_threads(threads, || overlay_campaign(&w, &map, &campaign));
                    assert_eq!(
                        json(&fold_campaign_in_chunks(&w, &map, &cfg, chunk)),
                        json(&want),
                        "seed {seed}, {n} probes, chunk {chunk}, {threads} threads"
                    );
                }
            }
        }
    }

    /// A 1 500-probe reference campaign and the JSON of its overlay.
    struct Fixture {
        world: World,
        map: FiberMap,
        campaign: Campaign,
        whole: String,
    }

    fn fixture() -> &'static Fixture {
        static F: OnceLock<Fixture> = OnceLock::new();
        F.get_or_init(|| {
            let (world, map, campaign) = reference(1_500);
            let whole = json(&overlay_campaign(&world, &map, &campaign));
            Fixture {
                world,
                map,
                campaign,
                whole,
            }
        })
    }

    proptest! {
        /// Tallies merge by addition and OR, so any split of a campaign
        /// into three parts, merged in any grouping or order, gives the
        /// overlay of the whole.
        #[test]
        fn tally_merge_is_associative_and_commutative(
            a in 0usize..1_500,
            b in 0usize..1_500,
        ) {
            let f = fixture();
            let index = OverlayIndex::new(&f.world, &f.map);
            let tally = |traces: &[Traceroute]| {
                let mut tally = Tally::new(&index);
                let mut gaps = GapTrees::new(&index.routes);
                index
                    .fold(&mut tally, &mut gaps, traces, 0, DegradationPolicy::Strict)
                    .expect("generated endpoints are in range");
                tally
            };
            let overlay = |tally: Tally| json(&index.finish(tally).0);
            // Not every probe routes, so the campaign can hold fewer
            // traces than the requested 1 500: clamp the split points.
            let traces = &f.campaign.traces;
            let n = traces.len();
            let (i, j) = (a.min(b).min(n), a.max(b).min(n));
            let [a, b, c] = [&traces[..i], &traces[i..j], &traces[j..]].map(tally);
            // Left fold: ((A ⊔ B) ⊔ C).
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // Right fold: (A ⊔ (B ⊔ C)).
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            // Reversed order: ((C ⊔ B) ⊔ A).
            let mut rev = c;
            rev.merge(&b);
            rev.merge(&a);
            prop_assert_eq!(overlay(left), f.whole.clone());
            prop_assert_eq!(overlay(right), f.whole.clone());
            prop_assert_eq!(overlay(rev), f.whole.clone());
        }
    }

    #[test]
    fn gap_fill_treats_an_invalid_length_in_the_component_as_no_path() {
        use intertubes_geo::Polyline;
        use intertubes_map::{MapConduit, MapConduitId, Provenance};
        let p = GeoPoint::new_unchecked;
        let conduit = |a, b, geometry| MapConduit {
            a,
            b,
            geometry,
            tenants: Vec::new(),
            provenance: Provenance::Step1,
            validated: false,
            row: None,
        };
        let mut map = FiberMap::default();
        let a = map.ensure_node("A, AA", p(30.0, -100.0));
        let b = map.ensure_node("B, BB", p(30.0, -99.0));
        let c = map.ensure_node("C, CC", p(30.0, -98.0));
        let d = map.ensure_node("D, DD", p(30.0, -97.0));
        map.conduits.push(conduit(
            a,
            b,
            Polyline::straight(p(30.0, -100.0), p(30.0, -99.0)),
        ));
        map.conduits.push(conduit(
            b,
            c,
            Polyline::straight(p(30.0, -99.0), p(30.0, -98.0)),
        ));
        // The conduits of the gap-fill path, source end first.
        let path = |routes: &HopRoutes, u, v| {
            let walk = GapTrees::new(routes).walk(u, v)?;
            let mut conduits: Vec<MapConduitId> = walk.map(|(e, _)| MapConduitId(e.0)).collect();
            conduits.reverse();
            Some(conduits)
        };
        let routes = HopRoutes::new(&map);
        let clean = path(&routes, a, c);
        assert_eq!(clean, Some(vec![MapConduitId(0), MapConduitId(1)]));
        // Searched from the lower id whichever endpoint comes first.
        assert_eq!(path(&routes, c, a), clean);
        // A NaN-length conduit beyond the target: a search stopping when
        // `c` settles would never relax it, but the region is unusable.
        map.conduits.push(conduit(
            c,
            d,
            Polyline::straight(p(f64::NAN, -98.0), p(30.0, -97.0)),
        ));
        assert_eq!(path(&HopRoutes::new(&map), a, c), None);
    }

    #[test]
    fn direction_classifier() {
        let sf = GeoPoint::new_unchecked(37.77, -122.42);
        let nyc = GeoPoint::new_unchecked(40.71, -74.01);
        let miami = GeoPoint::new_unchecked(25.76, -80.19);
        assert_eq!(classify_direction(&sf, &nyc), Direction::WestToEast);
        assert_eq!(classify_direction(&nyc, &sf), Direction::EastToWest);
        assert_eq!(classify_direction(&nyc, &miami), Direction::Meridional);
    }

    #[test]
    fn overlay_covers_most_traces() {
        let (_, _, ov) = setup();
        assert!(
            ov.overlaid * 10 > ov.skipped,
            "overlaid {} skipped {}",
            ov.overlaid,
            ov.skipped
        );
        assert!(ov.conduit_freq.iter().sum::<u64>() > 10_000);
    }

    #[test]
    fn top_conduit_tables_are_ordered_and_directional() {
        let (_, map, ov) = setup();
        for dir in [Direction::WestToEast, Direction::EastToWest] {
            let rows = ov.top_conduits(&map, Some(dir), 20);
            assert!(!rows.is_empty());
            for w in rows.windows(2) {
                assert!(w[0].probes >= w[1].probes);
            }
        }
        let all = ov.top_conduits(&map, None, 20);
        assert!(all[0].probes >= ov.top_conduits(&map, Some(Direction::WestToEast), 1)[0].probes);
    }

    #[test]
    fn level3_tops_isp_usage() {
        let (_, _, ov) = setup();
        let ranking = ov.isp_usage_ranking();
        assert!(!ranking.is_empty());
        let pos = ranking.iter().position(|(n, _)| n == "Level 3").unwrap();
        assert!(
            pos <= 2,
            "Level 3 should top Table 4, found at {pos}: {:?}",
            &ranking[..5.min(ranking.len())]
        );
    }

    #[test]
    fn unpublished_isps_enter_table4() {
        let (_, _, ov) = setup();
        let ranking = ov.isp_usage_ranking();
        let names: Vec<&str> = ranking.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"SoftLayer") || names.contains(&"MFN"),
            "traceroute-only carriers should appear: {names:?}"
        );
    }

    #[test]
    fn fig9_overlay_only_increases_tenancy() {
        let (_, map, ov) = setup();
        let counts = ov.tenant_counts(&map);
        let mut grew = 0usize;
        for (base, with) in &counts {
            assert!(with >= base);
            grew += (with > base) as usize;
        }
        assert!(
            grew > counts.len() / 10,
            "overlay should reveal extra ISPs on some conduits ({grew})"
        );
        // Mean shift matches the paper's qualitative claim: risk is only
        // greater when traffic is considered.
        let mean_base: f64 =
            counts.iter().map(|(b, _)| *b as f64).sum::<f64>() / counts.len() as f64;
        let mean_with: f64 =
            counts.iter().map(|(_, w)| *w as f64).sum::<f64>() / counts.len() as f64;
        assert!(mean_with > mean_base);
    }
}
