//! Property tests: no panic and no lenient-mode error under *arbitrary*
//! fault plans.
//!
//! The full study build is too slow to run per proptest case, so the
//! properties drive the individual injectors plus their consuming checked
//! stages against shared fixtures (a subset of the published maps keeps
//! the pipeline stage fast); the full-pipeline composition is covered by
//! the built-in-scenario integration tests.

use std::sync::OnceLock;

use intertubes::atlas::{MapKind, PublishedMap, World, WorldConfig};
use intertubes::degrade::DegradationPolicy;
use intertubes::faults::{
    inject_campaign, inject_corpus, inject_published_maps, inject_transport, FaultFamily,
    FaultPlan, FaultPlanError, Injector,
};
use intertubes::map::{build_map_checked, PipelineConfig};
use intertubes::probes::{overlay_campaign_checked, run_campaign, Campaign, ProbeConfig};
use intertubes::records::{generate_corpus, sanitize_corpus, Corpus, CorpusConfig};
use intertubes::Study;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

struct Fixture {
    world: World,
    corpus: Corpus,
    published: Vec<PublishedMap>,
    campaign: Campaign,
    study: Study,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let world = World::generate(WorldConfig::default());
        let corpus = generate_corpus(&world, &CorpusConfig::default());
        // A 4-provider subset keeps per-case pipeline builds fast while
        // still exercising both geocoded and POP-only ingestion (the
        // roster front-loads geocoded publishers, so pick by kind).
        let all = world.publish_maps();
        let mut published: Vec<PublishedMap> = all
            .iter()
            .filter(|m| m.kind == MapKind::Geocoded)
            .take(3)
            .cloned()
            .collect();
        published.extend(all.iter().filter(|m| m.kind == MapKind::PopOnly).take(1).cloned());
        let campaign = run_campaign(
            &world,
            &ProbeConfig {
                probes: 500,
                ..ProbeConfig::default()
            },
        );
        let study = Study::reference();
        Fixture {
            world,
            corpus,
            published,
            campaign,
            study,
        }
    })
}

/// Strategy: an arbitrary plan — any seed, any subset of families, any
/// rates in [0, 1.5] (over-unit rates must clamp, not break).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..u64::MAX,
        prop::collection::vec((0usize..FaultFamily::ALL.len(), 0.0f64..1.5), 0..8),
    )
        .prop_map(|(seed, faults)| {
            let mut plan = FaultPlan::new(seed);
            for (idx, rate) in faults {
                plan = plan.with(FaultFamily::ALL[idx], rate);
            }
            plan
        })
}

proptest! {
    #[test]
    fn map_injection_and_build_never_panic(plan in arb_plan()) {
        let f = fixture();
        let mut published = f.published.clone();
        inject_published_maps(&mut published, &mut Injector::new(plan));
        let (built, _report) = build_map_checked(
            &published,
            &f.corpus,
            &f.world.cities,
            &f.world.roads,
            &f.world.rails,
            &PipelineConfig::default(),
            DegradationPolicy::Lenient,
        )
        .expect("lenient build never errors");
        prop_assert_eq!(built.reports.len(), 4);
    }

    #[test]
    fn corpus_injection_and_sanitize_never_panic(plan in arb_plan()) {
        let f = fixture();
        let corpus = inject_corpus(&f.corpus, &mut Injector::new(plan));
        let (clean, report) = sanitize_corpus(&corpus, DegradationPolicy::Lenient)
            .expect("lenient sanitize never errors");
        prop_assert!(clean.len() <= corpus.len());
        prop_assert_eq!(
            clean.len() + report.total_for_reason("corrupt-city-label"),
            corpus.len()
        );
    }

    #[test]
    fn campaign_injection_and_overlay_never_panic(plan in arb_plan()) {
        let f = fixture();
        let mut campaign = f.campaign.clone();
        inject_campaign(&mut campaign, f.world.cities.len(), &mut Injector::new(plan));
        let (overlay, report) = overlay_campaign_checked(
            &f.study.world,
            &f.study.built.map,
            &campaign,
            DegradationPolicy::Lenient,
        )
        .expect("lenient overlay never errors");
        let dropped = report.total_for_reason("endpoint-out-of-range");
        prop_assert_eq!(overlay.overlaid + overlay.skipped + dropped, campaign.traces.len());
    }

    #[test]
    fn transport_injection_and_validation_never_panic(plan in arb_plan()) {
        let f = fixture();
        let mut roads = f.world.roads.clone();
        let mut injector = Injector::new(plan);
        inject_transport(&mut roads, &mut injector);
        let report = roads
            .validate(DegradationPolicy::Lenient)
            .expect("lenient validation never errors");
        prop_assert_eq!(roads.graph.node_count(), f.world.roads.graph.node_count());
        if injector.ledger.count(FaultFamily::DisconnectTransport) == 0 {
            prop_assert!(report.is_clean());
        }
    }
}

/// Replacement values for a rate field: out of range, non-finite once
/// parsed, or not a number at all.
const BAD_RATES: [&str; 12] = [
    "-1.0", "-1e-300", "2.5", "1e308", "1e999", "-0.0", "\"0.5\"", "null", "true", "NaN", "[]",
    "{}",
];

/// One mutation of a valid plan encoding, chosen by `kind`.
fn mutate(rng: &mut StdRng, kind: usize, text: &str, other: &str) -> String {
    let bytes = text.as_bytes();
    match kind {
        // Bit flips: one to three random bits anywhere.
        0 => {
            let mut out = bytes.to_vec();
            for _ in 0..rng.gen_range(1..=3) {
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1 << rng.gen_range(0..8u32);
            }
            String::from_utf8_lossy(&out).into_owned()
        }
        // Truncation at any byte.
        1 => String::from_utf8_lossy(&bytes[..rng.gen_range(0..bytes.len())]).into_owned(),
        // Splice: a prefix of this plan onto a suffix of another.
        2 => {
            let cut = rng.gen_range(0..=bytes.len());
            let from = rng.gen_range(0..=other.len());
            let mut out = bytes[..cut].to_vec();
            out.extend_from_slice(&other.as_bytes()[from..]);
            String::from_utf8_lossy(&out).into_owned()
        }
        // One rate (or the seed) replaced by a bad value.
        3 => {
            let fields: Vec<usize> = text
                .match_indices("\"rate\": ")
                .chain(text.match_indices("\"seed\": "))
                .map(|(i, key)| i + key.len())
                .collect();
            let start = fields[rng.gen_range(0..fields.len())];
            let end = text[start..]
                .find([',', ' ', '\n', '}'])
                .map_or(text.len(), |n| start + n);
            let bad = BAD_RATES[rng.gen_range(0..BAD_RATES.len())];
            format!("{}{bad}{}", &text[..start], &text[end..])
        }
        // A duplicated key: a second "rate", "family", "section" or
        // "seed" entry ahead of the original.
        _ => {
            let dup = [
                "\"rate\": 0.3, ",
                "\"rate\": -2.0, ",
                "\"family\": \"DropLinks\", ",
                "\"section\": \"Header\", ",
            ];
            let choice = rng.gen_range(0..dup.len() + 1);
            if choice == dup.len() {
                return text.replacen("\"seed\": ", "\"seed\": 99,\n  \"seed\": ", 1);
            }
            let anchors: Vec<usize> =
                text.match_indices("{ \"family\"").map(|(i, _)| i + 2).collect();
            if anchors.is_empty() {
                return text.replacen("\"faults\": [", "\"faults\": [], \"faults\": [", 1);
            }
            let at = anchors[rng.gen_range(0..anchors.len())];
            format!("{}{}{}", &text[..at], dup[choice], &text[at..])
        }
    }
}

/// The FaultPlan mutation battery: every built-in plan's `to_json()`
/// under bit flips, truncations, splices of two plans, bad rates and
/// duplicated keys. Each case must give a typed [`FaultPlanError`], or a
/// plan that validates and re-parses from its own `to_json()` to an
/// equal plan — never a panic.
#[test]
fn fault_plan_mutations_give_typed_errors_or_round_tripping_plans() {
    use rand::SeedableRng;
    let encodings: Vec<String> = FaultPlan::built_in_scenarios()
        .into_iter()
        .chain(FaultPlan::built_in_chaos_scenarios())
        .map(|(_, plan)| plan.to_json())
        .collect();
    let mut rng = StdRng::seed_from_u64(0xFA017);
    let (mut parsed, mut parse_errors, mut rate_errors) = (0, 0, 0);
    for (i, text) in encodings.iter().enumerate() {
        for case in 0..200 {
            let kind = case % 5;
            let other = &encodings[(i + 1 + case) % encodings.len()];
            let mutated = mutate(&mut rng, kind, text, other);
            let outcome = std::panic::catch_unwind(|| FaultPlan::from_json(&mutated));
            let result = outcome.unwrap_or_else(|_| panic!("from_json panicked on {mutated:?}"));
            match result {
                Err(FaultPlanError::Parse(_)) => parse_errors += 1,
                Err(FaultPlanError::InvalidRate { .. }) => rate_errors += 1,
                Ok(plan) => {
                    parsed += 1;
                    assert_eq!(plan.validate(), Ok(()), "{mutated:?}");
                    let again = FaultPlan::from_json(&plan.to_json());
                    assert_eq!(again, Ok(plan), "{mutated:?} did not round-trip");
                }
            }
        }
    }
    // The battery must reach all three outcomes to mean anything.
    assert!(
        parsed > 0 && parse_errors > 0 && rate_errors > 0,
        "parsed {parsed}, parse errors {parse_errors}, rate errors {rate_errors}"
    );
}
