//! The streamed campaign fold, which every overlay consumer runs, against
//! the collect-then-overlay path: for several worlds and probe counts,
//! `fold_campaign` must give the overlay that `overlay_campaign_checked`
//! gives over `run_campaign`'s whole campaign at any thread count, with a
//! clean degradation report, byte for byte as JSON. Chunk sizes other
//! than the fold's own are checked inside the probes crate.

use intertubes::degrade::DegradationPolicy;
use intertubes::parallel::with_threads;
use intertubes::probes::{fold_campaign, overlay_campaign_checked, run_campaign, ProbeConfig};
use intertubes::Study;

/// World seeds: the reference world and two others.
const SEEDS: [u64; 3] = [1504, 42, 2015];

/// Probe counts: none, one, a prime, and the benchmark's campaign size,
/// which the fold's 4 096-probe chunks split.
const PROBES: [usize; 4] = [0, 1, 997, 10_000];

#[test]
fn the_fold_equals_the_overlay_of_the_collected_campaign() {
    for seed in SEEDS {
        let study = Study::with_seed(seed);
        let (world, map) = (&study.world, &study.built.map);
        for probes in PROBES {
            let cfg = ProbeConfig {
                probes,
                ..study.config.probes
            };
            let campaign = run_campaign(world, &cfg);
            // The campaign is clean, so every routed trace is overlaid or
            // skipped: the figures report the routed count from this sum.
            let overlay = fold_campaign(world, map, &cfg);
            assert_eq!(
                overlay.overlaid + overlay.skipped,
                campaign.traces.len(),
                "seed {seed}, {probes} probes"
            );
            let fold = serde_json::to_string(&overlay).expect("overlay serializes");
            // The collected campaign's overlay shards by the thread count.
            for threads in [1, 2, 4] {
                let (want, report) = with_threads(threads, || {
                    overlay_campaign_checked(world, map, &campaign, DegradationPolicy::Lenient)
                })
                .expect("the lenient overlay succeeds");
                assert!(
                    report.is_clean(),
                    "seed {seed}, {probes} probes, {threads} threads"
                );
                assert_eq!(
                    fold,
                    serde_json::to_string(&want).expect("overlay serializes"),
                    "seed {seed}, {probes} probes, {threads} threads"
                );
            }
        }
    }
}

/// `Study::snapshot` and `Study::overlay` run the same fold, so the
/// snapshot's overlay is checked against the collected path instead.
#[test]
fn the_snapshot_overlay_is_the_study_overlay() {
    let study = Study::reference();
    let probes = 2_000;
    let snap = study.snapshot(Some(probes));
    let campaign = study.campaign(Some(probes));
    let (want, report) = overlay_campaign_checked(
        &study.world,
        &study.built.map,
        &campaign,
        DegradationPolicy::Lenient,
    )
    .expect("the lenient overlay succeeds");
    assert!(report.is_clean());
    assert_eq!(
        serde_json::to_string(&snap.overlay).expect("overlay serializes"),
        serde_json::to_string(&want).expect("overlay serializes")
    );
}
