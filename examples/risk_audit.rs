//! Risk audit: the paper's §4 analysis for a single provider — where does
//! its shared-risk exposure come from, who shares its trenches, and which
//! conduits are its chokepoints?
//!
//! ```sh
//! cargo run --release --example risk_audit -- "Sprint"
//! ```

use intertubes::risk::{hamming_heatmap, isp_sharing_ranking};
use intertubes::Study;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let isp = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Sprint".to_string());
    let study = Study::reference();
    let rm = study.risk_matrix();
    let Some(idx) = rm.isp_index(&isp) else {
        eprintln!(
            "unknown provider {isp:?}; choose one of: {}",
            rm.isps.join(", ")
        );
        std::process::exit(1);
    };

    println!("== Risk audit: {isp} ==\n");
    let conduits = rm.conduits_of(idx);
    println!("long-haul links (conduit tenancies): {}", conduits.len());

    // Exposure histogram.
    let mut exposure: Vec<u16> = conduits.iter().map(|&c| rm.shared[c]).collect();
    exposure.sort_unstable();
    let avg = exposure.iter().map(|&v| v as f64).sum::<f64>() / exposure.len().max(1) as f64;
    println!("average co-tenants per conduit: {avg:.2}");
    println!(
        "quartiles: p25 {} · median {} · p75 {} · worst {}",
        exposure[exposure.len() / 4],
        exposure[exposure.len() / 2],
        exposure[3 * exposure.len() / 4],
        exposure.last().copied().unwrap_or(0),
    );

    // Where does this provider sit in the Fig. 6 ranking?
    let ranking = isp_sharing_ranking(&rm);
    let pos = ranking
        .iter()
        .position(|r| r.isp == isp)
        .ok_or_else(|| format!("{isp} is not in the Fig. 6 ranking"))?;
    println!(
        "\nFig. 6 ranking position: {} of {} (1 = least infrastructure sharing)",
        pos + 1,
        ranking.len()
    );

    // The provider's own chokepoints.
    println!("\nmost-shared conduits in the footprint:");
    let mut worst: Vec<usize> = conduits.clone();
    worst.sort_by(|&a, &b| rm.shared[b].cmp(&rm.shared[a]));
    for &c in worst.iter().take(5) {
        let conduit = &study.built.map.conduits[c];
        let a = &study.built.map.nodes[conduit.a.index()].label;
        let b = &study.built.map.nodes[conduit.b.index()].label;
        println!("  {a} — {b}: {} co-tenants", rm.shared[c]);
    }

    // Closest risk profiles (Fig. 8 reading).
    let hm = hamming_heatmap(&rm);
    let mut similar: Vec<(String, u32)> = hm
        .isps
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != idx)
        .map(|(j, name)| (name.clone(), hm.distance[idx][j]))
        .collect();
    similar.sort_by_key(|(_, d)| *d);
    println!("\nproviders with the most similar risk profile (low Hamming distance):");
    for (name, d) in similar.iter().take(3) {
        println!("  {name:<18} distance {d}");
    }

    // §5.1: what would rerouting the twelve heavy links buy this provider?
    let rob = study.robustness(12);
    if let Some(r) = rob.per_isp.iter().find(|r| r.isp == isp) {
        if r.cases > 0 {
            println!(
                "\nrobustness suggestion (12 heavy links): {} affected, \
                 avg path inflation {:.1} hops, avg shared-risk reduction {:.1}",
                r.cases, r.avg_pi, r.avg_srr
            );
        } else {
            println!("\nrobustness suggestion: {isp} uses none of the 12 heavy links");
        }
    }
    if let Some((_, peers)) = rob.peering.iter().find(|(n, _)| n == &isp) {
        if !peers.is_empty() {
            println!("suggested peers (Table 5): {}", peers.join(" | "));
        }
    }
    Ok(())
}
