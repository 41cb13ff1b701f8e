//! Traceroute overlay: the §4.3 pipeline — fold a probe campaign onto the
//! constructed map as it is drawn, and print the traffic-weighted risk picture
//! (Tables 2, 3, 4 and the Fig. 9 CDF shift).
//!
//! ```sh
//! cargo run --release --example traceroute_overlay -- 100000
//! ```

use intertubes::probes::Direction;
use intertubes::risk::traffic_risk;
use intertubes::Study;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let probes: usize = std::env::args()
        .nth(1)
        .map(|s| {
            s.parse()
                .map_err(|e| format!("probe count must be an integer: {e}"))
        })
        .transpose()?
        .unwrap_or(50_000);

    let study = Study::reference();
    println!("folding {probes} traceroutes onto the map (paper: 4.9 M over 3 months) …");
    let overlay = study.overlay(Some(probes));
    println!(
        "overlaid {} traces ({} skipped)\n",
        overlay.overlaid, overlay.skipped
    );

    for (dir, label) in [
        (Direction::WestToEast, "Table 2 — west-origin, east-bound"),
        (Direction::EastToWest, "Table 3 — east-origin, west-bound"),
    ] {
        println!("== {label} ==");
        for row in overlay.top_conduits(&study.built.map, Some(dir), 10) {
            println!("  {:<22} {:<22} {:>8} probes", row.a, row.b, row.probes);
        }
        println!();
    }

    println!("== Table 4 — providers by conduits observed carrying traffic ==");
    for (isp, n) in overlay.isp_usage_ranking().into_iter().take(10) {
        println!("  {isp:<22} {n:>3} conduits");
    }

    let tr = traffic_risk(&study.built.map, &overlay);
    println!("\n== Fig. 9 — tenants per conduit, before vs after the overlay ==");
    println!(
        "  mean tenants (physical map only):     {:.2}",
        tr.map_only.mean()
    );
    println!(
        "  mean tenants (with observed carriers): {:.2}",
        tr.with_traffic.mean()
    );
    for x in [2usize, 5, 10, 15, 20] {
        println!(
            "  P(tenants <= {x:>2}): map {:.2} → overlaid {:.2}",
            tr.map_only.at(x),
            tr.with_traffic.at(x)
        );
    }
    println!("\nthe overlay only ever raises the sharing estimate — the paper's");
    println!("conclusion: risk from infrastructure sharing is *understated* by maps alone.");
    Ok(())
}
