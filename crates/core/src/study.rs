//! The high-level `Study` API: one object that runs the paper end to end.

use intertubes_atlas::{PublishedMap, World, WorldConfig, MAPPED_ISPS};
use intertubes_degrade::{DegradationPolicy, DegradationReport};
use intertubes_faults::{
    inject_corpus, inject_published_maps, inject_transport, FaultPlan, InjectionLedger, Injector,
};
use intertubes_geo::OverlapParams;
use intertubes_map::{build_map_checked, BuiltMap, ColocationReport, PipelineConfig};
use intertubes_mitigation::{
    augment, build_landmarks, heaviest_conduits, latency_routes, latency_study, AugmentationConfig,
    AugmentationReport, LatencyConfig, LatencyReport, RobustnessReport,
};
use intertubes_probes::{
    fold_campaign, overlay_campaign_checked, run_campaign, Campaign, Overlay, ProbeConfig,
};
use intertubes_records::{generate_corpus, sanitize_corpus, Corpus, CorpusConfig};
use intertubes_risk::RiskMatrix;
use serde::{Deserialize, Serialize};

use crate::IntertubesError;

/// Every knob of the reproduction in one place.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct StudyConfig {
    /// World-generation parameters.
    pub world: WorldConfig,
    /// Public-records corpus parameters.
    pub corpus: CorpusConfig,
    /// Map-construction parameters.
    pub pipeline: PipelineConfig,
    /// Traceroute-campaign parameters.
    pub probes: ProbeConfig,
    /// Corridor-overlap parameters (§3).
    pub overlap: OverlapParams,
    /// Latency-study parameters (§5.3).
    pub latency: LatencyConfig,
    /// Augmentation parameters (§5.2).
    pub augmentation: AugmentationConfig,
    /// How pipeline stages respond to malformed input (default: lenient).
    pub policy: DegradationPolicy,
}

/// A fully-initialized reproduction: ground-truth world, records corpus,
/// and the constructed map. Analysis results are computed on demand.
#[derive(Debug, Clone)]
pub struct Study {
    /// Configuration used.
    pub config: StudyConfig,
    /// The synthetic ground truth.
    pub world: World,
    /// The public-records corpus.
    pub corpus: Corpus,
    /// The constructed map with per-step reports.
    pub built: BuiltMap,
}

impl Study {
    /// Builds a study: generates the world and corpus, publishes the
    /// provider maps, and runs the four-step construction pipeline.
    ///
    /// Equivalent to [`Study::new_checked`] under the lenient policy,
    /// with the degradation report discarded.
    pub fn new(config: StudyConfig) -> Study {
        let mut config = config;
        config.policy = DegradationPolicy::Lenient;
        match Study::new_checked(config) {
            Ok((study, _)) => study,
            // The lenient policy never returns an error by construction.
            Err(e) => unreachable!("lenient study build cannot fail: {e}"),
        }
    }

    /// Builds a study with explicit degradation control.
    ///
    /// The configured [`StudyConfig::policy`] governs every stage:
    /// transport-layer validation, corpus sanitization, and map
    /// construction. Under [`DegradationPolicy::Lenient`] dirty input is
    /// absorbed and counted in the returned [`DegradationReport`]; under
    /// [`DegradationPolicy::Strict`] the first problem aborts with an
    /// [`IntertubesError`] naming the failing layer. Clean input yields a
    /// study identical to [`Study::new`]'s and an empty report.
    pub fn new_checked(config: StudyConfig) -> Result<(Study, DegradationReport), IntertubesError> {
        let world = World::generate(config.world);
        let corpus = generate_corpus(&world, &config.corpus);
        let published = world.publish_maps();
        Study::from_parts(config, world, corpus, published)
    }

    /// Builds a study with faults injected into every pipeline input, then
    /// degrades (or fails, under strict) exactly as [`Study::new_checked`]
    /// would on naturally dirty data.
    ///
    /// Returns the study, the degradation report, and the injection ledger
    /// recording how many faults of each family actually landed — tests
    /// match report counts against ledger counts.
    pub fn new_faulted(
        config: StudyConfig,
        plan: &FaultPlan,
    ) -> Result<(Study, DegradationReport, InjectionLedger), IntertubesError> {
        let mut world = World::generate(config.world);
        let corpus = generate_corpus(&world, &config.corpus);
        let mut published = world.publish_maps();
        let mut injector = Injector::new(plan.clone());
        inject_published_maps(&mut published, &mut injector);
        let corpus = inject_corpus(&corpus, &mut injector);
        inject_transport(&mut world.roads, &mut injector);
        let (study, report) = Study::from_parts(config, world, corpus, published)?;
        Ok((study, report, injector.ledger))
    }

    fn from_parts(
        config: StudyConfig,
        world: World,
        corpus: Corpus,
        published: Vec<PublishedMap>,
    ) -> Result<(Study, DegradationReport), IntertubesError> {
        let policy = config.policy;
        // Only the road layer is validated: its connectedness is a
        // construction invariant (Gabriel graph ∪ 2-NN), whereas the rail
        // layer is a sampled corridor subset and fragments naturally.
        let mut report = world.roads.validate(policy)?;
        let (corpus, corpus_report) = sanitize_corpus(&corpus, policy)?;
        report.merge(corpus_report);
        let (built, map_report) = build_map_checked(
            &published,
            &corpus,
            &world.cities,
            &world.roads,
            &world.rails,
            &config.pipeline,
            policy,
        )?;
        report.merge(map_report);
        // The merged report is canonical (sorted, aggregated), so emitting
        // it here — from the driving thread, after the last merge — yields
        // the same event sequence at every thread count.
        report.emit_events();
        Ok((
            Study {
                config,
                world,
                corpus,
                built,
            },
            report,
        ))
    }

    /// The reference study (default config, seed 1504).
    pub fn reference() -> Study {
        Study::new(StudyConfig::default())
    }

    /// A study with a different world seed, all else default.
    pub fn with_seed(seed: u64) -> Study {
        let mut cfg = StudyConfig::default();
        cfg.world.seed = seed;
        Study::new(cfg)
    }

    /// The 20 mapped provider names, in roster order.
    pub fn mapped_isp_names(&self) -> Vec<String> {
        self.world
            .roster
            .iter()
            .take(MAPPED_ISPS)
            .map(|p| p.name.clone())
            .collect()
    }

    /// The §4.1 risk matrix over the constructed map and the 20 providers.
    pub fn risk_matrix(&self) -> RiskMatrix {
        RiskMatrix::build(&self.built.map, &self.mapped_isp_names())
    }

    /// The campaign parameters for `probes` probes (`None` = configured
    /// probe count).
    fn probe_config(&self, probes: Option<usize>) -> ProbeConfig {
        let mut cfg = self.config.probes;
        if let Some(p) = probes {
            cfg.probes = p;
        }
        cfg
    }

    /// The §4.3 traceroute overlay of `probes` probes (`None` = configured
    /// probe count), folded as they are drawn, so memory stays flat up to
    /// the paper's 4.9 M.
    pub fn overlay(&self, probes: Option<usize>) -> Overlay {
        fold_campaign(&self.world, &self.built.map, &self.probe_config(probes))
    }

    /// Runs and collects a traceroute campaign (`None` = configured probe
    /// count), for the fault harness to corrupt before
    /// [`Study::overlay_checked`].
    pub fn campaign(&self, probes: Option<usize>) -> Campaign {
        run_campaign(&self.world, &self.probe_config(probes))
    }

    /// Overlays a collected campaign with the study's degradation policy,
    /// returning the per-stage report alongside the overlay (for a clean
    /// campaign, [`Study::overlay`]'s).
    pub fn overlay_checked(
        &self,
        campaign: &Campaign,
    ) -> Result<(Overlay, DegradationReport), IntertubesError> {
        let (overlay, report) =
            overlay_campaign_checked(&self.world, &self.built.map, campaign, self.config.policy)?;
        Ok((overlay, report))
    }

    /// The risk matrix with the study's degradation policy (duplicate
    /// provider names repaired or rejected).
    pub fn risk_matrix_checked(&self) -> Result<(RiskMatrix, DegradationReport), IntertubesError> {
        let (rm, report) = RiskMatrix::build_checked(
            &self.built.map,
            &self.mapped_isp_names(),
            self.config.policy,
        )?;
        Ok((rm, report))
    }

    /// The §3 co-location analysis (Fig. 4 / Fig. 5).
    pub fn colocation(&self) -> Result<ColocationReport, intertubes_geo::GeoError> {
        let idx = intertubes_map::corridor_index(
            &self.world.roads,
            &self.world.rails,
            &self.world.pipelines,
            self.config.overlap.buffer_km.max(1.0),
        )?;
        intertubes_map::analyze_colocation(&self.built.map, &idx, &self.config.overlap, 10)
    }

    /// The §5.1 robustness-suggestion analysis over the `k` most-shared
    /// conduits (paper: 12). Peer suggestions are weighted toward
    /// transit-grade (tier-1) carriers, as in the paper's Table 5.
    pub fn robustness(&self, k: usize) -> RobustnessReport {
        let rm = self.risk_matrix();
        let heavy = heaviest_conduits(&rm, k);
        let tier_of = |name: &str| -> f64 {
            match self
                .world
                .roster
                .iter()
                .find(|p| p.name == name)
                .map(|p| p.tier)
            {
                Some(intertubes_atlas::IspTier::Tier1) => 1.0,
                Some(intertubes_atlas::IspTier::Cable) => 0.45,
                Some(intertubes_atlas::IspTier::Regional) => 0.35,
                None => 0.25,
            }
        };
        intertubes_mitigation::robustness_suggestion_weighted(&self.built.map, &rm, &heavy, tier_of)
    }

    /// The §5.2 augmentation analysis.
    pub fn augmentation(&self) -> AugmentationReport {
        let rm = self.risk_matrix();
        augment(
            &self.built.map,
            &rm,
            &self.world.cities,
            &self.world.roads,
            &self.config.augmentation,
        )
    }

    /// The §5.3 latency study.
    pub fn latency(&self) -> LatencyReport {
        latency_study(
            &self.built.map,
            &self.world.cities,
            &self.world.roads,
            &self.world.rails,
            &self.config.latency,
        )
    }

    /// What-if: applies the §5.2 augmentation plan and reports the §4
    /// metrics before and after (the loop the paper leaves open).
    pub fn what_if_augmented(&self) -> intertubes_mitigation::WhatIfReport {
        let plan = self.augmentation();
        intertubes_mitigation::what_if(&self.built.map, &self.mapped_isp_names(), &plan)
    }

    /// Freezes this study into a serving snapshot (DESIGN.md §9): the
    /// constructed map, the §4 risk artifacts, a traceroute overlay, the
    /// precomputed path index, and the ALT landmark tables, all sealed in
    /// the checksummed `intertubes-snapshot/v4` container.
    ///
    /// `probes` sizes the embedded [`Study::overlay`] (`None` = the
    /// configured probe count). This is the expensive build phase the
    /// serving layer amortizes: loading the result back via
    /// [`intertubes_serve::StudySnapshot::load`] is orders of magnitude
    /// cheaper than `Study::new`.
    pub fn snapshot(&self, probes: Option<usize>) -> intertubes_serve::StudySnapshot {
        let mut span = intertubes_obs::stage("serve.freeze");
        let isps = self.mapped_isp_names();
        let rm = self.risk_matrix();
        let hamming = intertubes_risk::hamming_heatmap(&rm);
        let overlay = self.overlay(probes);
        // One landmark build and one Yen batch: the §5.3 route table,
        // with right-of-way baselines from the world's transport networks
        // (which the snapshot does not carry), is the path index.
        let landmarks = build_landmarks(&self.built.map);
        let (pairs, _) = latency_routes(
            &self.built.map,
            &self.world.cities,
            &self.world.roads,
            &self.world.rails,
            &self.config.latency,
            landmarks.as_ref(),
        );
        let paths = intertubes_serve::PathIndex {
            k: self.config.latency.k_paths,
            detour_cap: self.config.latency.detour_cap,
            pairs,
        };
        span.items("conduits", self.built.map.conduits.len());
        span.items("pairs", paths.pairs.len());
        intertubes_serve::StudySnapshot {
            // StudyConfig serializes infallibly (plain nested structs).
            config: serde_json::to_value(self.config).unwrap_or(serde_json::Value::Null),
            map: self.built.map.clone(),
            isps,
            risk: rm,
            hamming,
            overlay,
            paths,
            landmarks,
        }
    }

    /// Annotated GeoJSON (paper §8 future work): the constructed map with
    /// per-conduit traffic, delay and shared-risk properties. Pass the
    /// overlay whose traffic counts should be embedded.
    pub fn annotated_geojson(&self, overlay: &Overlay) -> serde_json::Value {
        let rm = self.risk_matrix();
        intertubes_map::to_annotated_geojson(
            &self.built.map,
            &intertubes_map::MapAnnotations {
                traffic: overlay.conduit_freq.clone(),
                shared: rm.shared,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_study_builds() {
        let s = Study::reference();
        assert_eq!(s.mapped_isp_names().len(), 20);
        assert!(s.built.map.conduits.len() > 300);
        assert!(s.corpus.len() > 500);
    }

    #[test]
    fn risk_matrix_dimensions_match_map() {
        let s = Study::reference();
        let rm = s.risk_matrix();
        assert_eq!(rm.conduit_count(), s.built.map.conduits.len());
        assert_eq!(rm.isp_count(), 20);
    }

    #[test]
    fn end_to_end_smoke() {
        let s = Study::reference();
        let overlay = s.overlay(Some(5_000));
        assert!(overlay.overlaid > 3_000);
        let rob = s.robustness(12);
        assert_eq!(rob.heavy_conduits.len(), 12);
        let lat = s.latency();
        assert!(!lat.pairs.is_empty());
    }

    #[test]
    fn different_seeds_give_different_maps() {
        let a = Study::with_seed(1504);
        let b = Study::with_seed(42);
        assert_ne!(
            a.built.map.link_count(),
            b.built.map.link_count(),
            "different worlds should differ somewhere"
        );
    }
}
