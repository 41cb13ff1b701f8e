//! Shared helpers for the benchmark harness and the `figures` binary.
//!
//! Every table and figure of the paper's evaluation has a regeneration
//! routine here; the `figures` binary prints them, the `experiments` bench
//! (`cargo bench -p intertubes-bench`) times the underlying computations
//! with [`time_ms`], and EXPERIMENTS.md records measured vs paper values.
//! See DESIGN.md §3 for the experiment index.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use intertubes::parallel::with_threads;

use intertubes::probes::{Direction, Overlay};
use intertubes::risk::{
    conduits_shared_by_at_least, hamming_heatmap, isp_sharing_ranking, raw_shared_conduits,
    sharing_fraction, traffic_risk, RiskMatrix,
};
use intertubes::Study;

/// The shared reference study (built once per process).
pub fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(Study::reference)
}

/// Median wall-clock milliseconds over `iters` runs of `run`, each pinned
/// to `threads` threads: the one timing helper of `bench_parallel` and the
/// `experiments` bench.
pub fn time_ms<R>(iters: usize, threads: usize, mut run: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            with_threads(threads, || {
                let t0 = Instant::now();
                std::hint::black_box(run());
                t0.elapsed().as_secs_f64() * 1e3
            })
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The shared reference overlay at the given probe count, folded once
/// per probe count and kept for the process.
pub fn overlay(probes: usize) -> &'static Overlay {
    static CACHE: OnceLock<Mutex<HashMap<usize, &'static Overlay>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
    *cache
        .entry(probes)
        .or_insert_with(|| Box::leak(Box::new(study().overlay(Some(probes)))))
}

/// Probe count used by the harness (paper: 4.9 M; here sized to finish in
/// seconds — override with `INTERTUBES_PROBES`).
pub fn probe_count() -> usize {
    std::env::var("INTERTUBES_PROBES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

fn hr(title: &str) {
    println!("\n──── {title} ────");
}

/// Table 1: nodes and links per step-1 ISP.
pub fn print_tab1() {
    let s = study();
    hr("Table 1 — initial (step 1) map per geocoded ISP");
    let paper = [
        ("AT&T", 25, 57),
        ("Comcast", 26, 71),
        ("Cogent", 69, 84),
        ("EarthLink", 248, 370),
        ("Integra", 27, 36),
        ("Level 3", 240, 336),
        ("Suddenlink", 39, 42),
        ("Verizon", 116, 151),
        ("Zayo", 98, 111),
    ];
    println!(
        "{:<12} {:>7} {:>7}   {:>11} {:>11}",
        "ISP", "nodes", "links", "paper nodes", "paper links"
    );
    for (isp, pn, pl) in paper {
        let (nodes, links) = s.built.map.provider_counts(isp);
        println!("{isp:<12} {nodes:>7} {links:>7}   {pn:>11} {pl:>11}");
    }
    let r1 = s.built.reports[0];
    println!(
        "step-1 totals: {} nodes, {} links, {} conduits (paper: 267/1258/512)",
        r1.nodes, r1.links, r1.conduits
    );
}

/// Figure 1: the final map.
pub fn print_fig1() {
    let s = study();
    hr("Figure 1 — the constructed US long-haul map");
    let summary = intertubes::map::summarize(&s.built.map);
    println!(
        "{} nodes, {} links, {} conduits (paper: 273 / 2411 / 542)",
        summary.nodes, summary.links, summary.conduits
    );
    println!("validated conduits: {}", summary.validated_conduits);
    println!("total mileage: {:.0} km", summary.total_km);
    println!(
        "step provenance: {} step-1 conduits, {} step-3",
        summary.step1_conduits, summary.step3_conduits
    );
    println!("long-haul hubs:");
    for (label, deg) in summary.hubs.iter().take(8) {
        println!("  {label:<24} degree {deg}");
    }
    for r in &s.built.reports {
        println!(
            "after step {}: {} nodes / {} links / {} conduits",
            r.step, r.nodes, r.links, r.conduits
        );
    }
}

/// Figures 2 and 3: the transport layers.
pub fn print_fig2_fig3() {
    let s = study();
    hr("Figures 2/3 — roadway and railway layers");
    for (name, net) in [
        ("roadway (Fig 2)", &s.world.roads),
        ("railway (Fig 3)", &s.world.rails),
    ] {
        println!(
            "{name}: {} corridors, {:.0} km total",
            net.graph.edge_count(),
            net.total_length_km()
        );
    }
    println!(
        "pipeline ROWs: {} corridors, {:.0} km",
        s.world.pipelines.graph.edge_count(),
        s.world.pipelines.total_length_km()
    );
}

/// Figure 4: co-location histograms.
pub fn print_fig4() {
    let s = study();
    hr("Figure 4 — fraction of conduits co-located with transport ROWs");
    let report = match s.colocation() {
        Ok(report) => report,
        Err(e) => {
            println!("co-location analysis failed: {e}");
            return;
        }
    };
    println!("{:<12} {}", "bin", "road   rail   road∪rail");
    let road = report.road.relative();
    let rail = report.rail.relative();
    let both = report.road_or_rail.relative();
    for i in 0..road.len() {
        println!(
            "[{:.1},{:.1})     {:<6.2} {:<6.2} {:<6.2}",
            i as f64 / road.len() as f64,
            (i + 1) as f64 / road.len() as f64,
            road[i],
            rail[i],
            both[i]
        );
    }
    println!(
        "means: road {:.2}, rail {:.2}, union {:.2} (paper: road-dominated, union highest)",
        report.road.mean(),
        report.rail.mean(),
        report.road_or_rail.mean()
    );
}

/// Figure 5: off-corridor conduits and pipeline explanations.
pub fn print_fig5() {
    let s = study();
    hr("Figure 5 — conduits on no road/rail corridor (pipeline ROWs)");
    let report = match s.colocation() {
        Ok(report) => report,
        Err(e) => {
            println!("co-location analysis failed: {e}");
            return;
        }
    };
    println!(
        "{} of {} conduits are predominantly off road/rail corridors",
        report.off_corridor, report.total
    );
    println!(
        "{} of those are explained by pipeline rights-of-way \
         (the paper's Laurel, MS and Anaheim–Las Vegas cases)",
        report.pipeline_explained
    );
}

/// Figure 6: sharing bars + ISP ranking.
pub fn print_fig6() {
    let s = study();
    let rm = s.risk_matrix();
    hr("Figure 6 (top) — conduits shared by at least k ISPs");
    let bars = conduits_shared_by_at_least(&rm);
    for (i, n) in bars.iter().enumerate() {
        println!("k={:<3} {:>4} {}", i + 1, n, "#".repeat(n / 6));
    }
    println!(
        "shared by >=2: {:.2} % (paper 89.67), >=3: {:.2} % (63.28), >=4: {:.2} % (53.50)",
        sharing_fraction(&rm, 2) * 100.0,
        sharing_fraction(&rm, 3) * 100.0,
        sharing_fraction(&rm, 4) * 100.0
    );
    let heavy = rm.shared.iter().filter(|&&c| c > 17).count();
    println!("conduits shared by >17 ISPs: {heavy} (paper: 12)");

    hr("Figure 6 (ranking) — ISPs by average shared risk");
    println!(
        "{:<18} {:>6} {:>8} {:>6} {:>6} {:>9}",
        "ISP", "mean", "stderr", "p25", "p75", "conduits"
    );
    for r in isp_sharing_ranking(&rm) {
        println!(
            "{:<18} {:>6.2} {:>8.3} {:>6.1} {:>6.1} {:>9}",
            r.isp, r.mean, r.std_error, r.p25, r.p75, r.conduits
        );
    }
    println!("(paper order: Suddenlink lowest, then EarthLink, Level 3; DT/NTT/XO highest)");
}

/// Figure 7: raw shared-conduit counts.
pub fn print_fig7() {
    let s = study();
    let rm = s.risk_matrix();
    hr("Figure 7 — raw number of shared conduits per ISP");
    for (isp, n) in raw_shared_conduits(&rm) {
        println!("{isp:<18} {n:>4} {}", "#".repeat(n / 6));
    }
}

/// Figure 8: Hamming heat map.
pub fn print_fig8() {
    let s = study();
    let rm = s.risk_matrix();
    let hm = hamming_heatmap(&rm);
    hr("Figure 8 — Hamming distance between ISP risk profiles");
    // Compact matrix: initials on columns.
    print!("{:<18}", "");
    for isp in &hm.isps {
        print!("{:>5}", &isp[..3.min(isp.len())]);
    }
    println!();
    for (i, isp) in hm.isps.iter().enumerate() {
        print!("{isp:<18}");
        for j in 0..hm.isps.len() {
            print!("{:>5}", hm.distance[i][j]);
        }
        println!();
    }
    println!("\nmean profile distance (low = exposed like the field):");
    for (isp, d) in hm.mean_distances().iter().take(6) {
        println!("  {isp:<18} {d:.1}");
    }
    if let Some((a, b, d)) = hm.most_similar_pair() {
        println!("most similar pair: {a} / {b} (distance {d})");
    }
}

/// Figure 9: the tenant-count CDFs before/after the traceroute overlay.
pub fn print_fig9() {
    let s = study();
    let ov = overlay(probe_count());
    let tr = traffic_risk(&s.built.map, ov);
    hr("Figure 9 — CDF of ISPs per conduit, map vs traceroute-overlaid");
    println!("{:>4} {:>10} {:>10}", "k", "map", "overlaid");
    for k in [1usize, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 28] {
        println!(
            "{:>4} {:>10.3} {:>10.3}",
            k,
            tr.map_only.at(k),
            tr.with_traffic.at(k)
        );
    }
    println!(
        "means: {:.2} → {:.2} (risk only grows when traffic is considered)",
        tr.map_only.mean(),
        tr.with_traffic.mean()
    );
}

/// Tables 2/3: top conduits by probe frequency and direction.
pub fn print_tab2_tab3() {
    let s = study();
    let ov = overlay(probe_count());
    // Every routed trace is either overlaid or skipped.
    println!(
        "\ncampaign: {} traceroutes routed, {} overlaid (paper: 4.9 M probes)",
        ov.overlaid + ov.skipped,
        ov.overlaid
    );
    for (dir, label) in [
        (Direction::WestToEast, "Table 2 — west-origin east-bound"),
        (Direction::EastToWest, "Table 3 — east-origin west-bound"),
    ] {
        hr(label);
        for row in ov.top_conduits(&s.built.map, Some(dir), 20) {
            println!("{:<24} {:<24} {:>8}", row.a, row.b, row.probes);
        }
    }
}

/// Table 4: ISPs by conduits carrying probe traffic.
pub fn print_tab4() {
    let ov = overlay(probe_count());
    hr("Table 4 — top ISPs by number of conduits carrying probe traffic");
    let ranking = ov.isp_usage_ranking();
    for (isp, n) in ranking.iter().take(10) {
        println!("{isp:<24} {n:>4}");
    }
    // The paper's headline comparisons.
    let get = |name: &str| {
        ranking
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    println!(
        "\nLevel 3: {} conduits (paper: most used, 62); XO: {} (paper: ~25 % of Level 3)",
        get("Level 3"),
        get("XO")
    );
}

/// Figure 10 + Table 5: robustness suggestion outcomes.
pub fn print_fig10_tab5() {
    let s = study();
    let report = s.robustness(12);
    hr("Figure 10 — path inflation & shared-risk reduction (12 heavy links)");
    println!(
        "{:<18} {:>5} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8}",
        "ISP", "cases", "maxPI", "minPI", "avgPI", "maxSRR", "minSRR", "avgSRR"
    );
    for r in &report.per_isp {
        println!(
            "{:<18} {:>5} {:>7.1} {:>7.1} {:>7.1} {:>8.1} {:>8.1} {:>8.1}",
            r.isp, r.cases, r.max_pi, r.min_pi, r.avg_pi, r.max_srr, r.min_srr, r.avg_srr
        );
    }
    println!("(paper: adding 1–2 conduits per ISP captures most of the SRR)");
    hr("Table 5 — top-3 suggested peerings per ISP");
    for (isp, peers) in &report.peering {
        if !peers.is_empty() {
            println!("{isp:<18} {}", peers.join(" | "));
        }
    }
    let rm = s.risk_matrix();
    println!(
        "\nwhole-network scan: {:.1} % of conduits already on min-shared-risk routes \
         (paper: most existing paths already best)",
        intertubes::mitigation::already_optimal_fraction(&s.built.map, &rm) * 100.0
    );
}

/// Figure 11: augmentation improvement ratios.
pub fn print_fig11() {
    let s = study();
    let report = s.augmentation();
    hr("Figure 11 — improvement ratio vs number of added conduits");
    let k = report.added.len();
    println!("additions: {k} (greedy, eq. 2)");
    for (i, a) in report.added.iter().enumerate() {
        println!(
            "  k={:<2} {:<22} — {:<22} {:>5.0} km ROW",
            i + 1,
            a.a,
            a.b,
            a.row_km
        );
    }
    println!(
        "\n{:<18} {}",
        "ISP",
        (1..=k).map(|i| format!("  k={i:<2}")).collect::<String>()
    );
    let mut rows: Vec<(String, Vec<f64>)> = report
        .isps
        .iter()
        .cloned()
        .zip(report.improvement.iter().cloned())
        .collect();
    rows.sort_by(|a, b| {
        b.1.last()
            .unwrap_or(&0.0)
            .total_cmp(a.1.last().unwrap_or(&0.0))
    });
    for (isp, series) in rows {
        print!("{isp:<18}");
        for v in series {
            print!("  {v:<4.2}");
        }
        println!();
    }
    println!(
        "(paper shape: Telia/Tata/NTT/DT gain most; Level 3/CenturyLink little; Suddenlink none)"
    );
}

/// Figure 12: the latency CDFs.
pub fn print_fig12() {
    let s = study();
    let report = s.latency();
    hr("Figure 12 — one-way delay CDFs across conduit-joined city pairs");
    let series: [(&str, Vec<f64>); 4] = [
        ("best", report.series_ms(|p| p.best_us)),
        ("LOS", report.series_ms(|p| p.los_us)),
        ("avg", report.series_ms(|p| p.avg_us)),
        ("ROW", report.series_ms(|p| p.row_us)),
    ];
    print!("{:>6}", "ms");
    for (n, _) in &series {
        print!("{n:>8}");
    }
    println!();
    for grid in [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0] {
        print!("{grid:>6.2}");
        for (_, v) in &series {
            let f = v.partition_point(|&x| x <= grid) as f64 / v.len().max(1) as f64;
            print!("{f:>8.2}");
        }
        println!();
    }
    println!(
        "\nbest existing == best ROW for {:.0} % of pairs (paper: ~65 %)",
        report.best_equals_row_fraction * 100.0
    );
    for q in [0.5, 0.75, 0.9] {
        println!(
            "LOS→ROW gap p{:.0}: {:.0} µs (paper: <100 µs at p50, >500 µs at p75)",
            q * 100.0,
            report.los_row_gap_quantile(q)
        );
    }
}

/// Extension: physical resilience (the §4 future-work "fiber cuts to
/// partition" question).
pub fn print_ext_resilience() {
    let s = study();
    let rm = s.risk_matrix();
    hr("Extension — physical resilience of the constructed map");
    let r = intertubes::risk::map_resilience(&s.built.map);
    println!("connected components: {}", r.components);
    println!(
        "minimum simultaneous conduit cuts to partition the map: {}",
        r.min_cut_conduits
    );
    if !r.min_cut_side.is_empty() {
        let preview: Vec<&str> = r.min_cut_side.iter().take(5).map(String::as_str).collect();
        println!("  smaller shore of that cut: {} …", preview.join(", "));
    }
    println!(
        "bridge conduits (single points of partition): {}",
        r.bridge_conduits.len()
    );
    println!("articulation cities: {}", r.articulation_cities.len());
    println!("\nper-provider sub-networks (components / bridges / min cut):");
    let mut rows = intertubes::risk::isp_resilience(&s.built.map, &rm);
    rows.sort_by(|a, b| b.components.cmp(&a.components).then(a.isp.cmp(&b.isp)));
    for r in rows {
        println!(
            "  {:<18} {:>2} components, {:>3} bridges, min cut {}",
            r.isp, r.components, r.bridges, r.min_cut
        );
    }
}

/// Extension: the §6.3 link-exchange ("IXP for conduits") economics.
pub fn print_ext_exchange() {
    let s = study();
    let rm = s.risk_matrix();
    let aug = s.augmentation();
    let cfg = intertubes::mitigation::ExchangeConfig::default();
    let report = intertubes::mitigation::exchange_analysis(&rm, &aug, &cfg);
    hr("Extension — link-exchange consortium economics (§6.3)");
    println!(
        "assumptions: {:.0} cost units/km build, {:.0} units per unit of risk relief",
        cfg.cost_per_km, cfg.value_per_srr_unit
    );
    println!(
        "{:<22} {:<22} {:>7} {:>12} {:>9} {:>11}",
        "a", "b", "km", "build cost", "eligible", "break-even"
    );
    for o in &report.offers {
        println!(
            "{:<22} {:<22} {:>7.0} {:>12.0} {:>9} {:>11}",
            o.a,
            o.b,
            o.row_km,
            o.total_cost,
            o.eligible,
            o.break_even_members
                .map_or("—".to_string(), |n| n.to_string())
        );
    }
    let viable = report.viable().count();
    println!(
        "\n{viable} of {} candidate trenches close unsubsidised — the consortium \
         model funds the chokepoint relief the paper argues for",
        report.offers.len()
    );
}

/// Convenience: the risk matrix of the reference study.
pub fn risk_matrix() -> RiskMatrix {
    study().risk_matrix()
}

/// Every experiment id the harness understands.
pub const EXPERIMENTS: &[&str] = &[
    "tab1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "tab2",
    "tab3",
    "tab4",
    "fig10",
    "tab5",
    "fig11",
    "fig12",
    "ext-resilience",
    "ext-exchange",
];

#[cfg(test)]
mod tests {
    use super::{overlay, Overlay};

    #[test]
    fn overlay_cache_is_keyed_by_probe_count() {
        let routed = |ov: &Overlay| ov.overlaid + ov.skipped;
        let (small, large) = (overlay(500), overlay(2_000));
        assert!(
            routed(small) < routed(large),
            "distinct probe counts must produce distinct overlays ({} vs {} routed)",
            routed(small),
            routed(large)
        );
        // Repeat lookups hit the cache: same allocation, not a rebuild.
        assert!(std::ptr::eq(small, overlay(500)));
    }
}

/// Runs one experiment by id.
pub fn run(id: &str) {
    match id {
        "tab1" => print_tab1(),
        "fig1" => print_fig1(),
        "fig2" | "fig3" => print_fig2_fig3(),
        "fig4" => print_fig4(),
        "fig5" => print_fig5(),
        "fig6" => print_fig6(),
        "fig7" => print_fig7(),
        "fig8" => print_fig8(),
        "fig9" => print_fig9(),
        "tab2" | "tab3" => print_tab2_tab3(),
        "tab4" => print_tab4(),
        "fig10" | "tab5" => print_fig10_tab5(),
        "fig11" => print_fig11(),
        "fig12" => print_fig12(),
        "ext-resilience" => print_ext_resilience(),
        "ext-exchange" => print_ext_exchange(),
        other => {
            eprintln!(
                "unknown experiment {other:?}; known: {}",
                EXPERIMENTS.join(", ")
            );
            std::process::exit(2);
        }
    }
}
