//! Quickstart: build the long-haul fiber map and print its headline
//! statistics — the §2.5 summary of the paper.
//!
//! ```sh
//! cargo run --release --example quickstart [seed]
//! ```

use intertubes::{map::summarize, Study, StudyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| {
            s.parse()
                .map_err(|e| format!("seed must be an integer: {e}"))
        })
        .transpose()?
        .unwrap_or(1504);
    let mut cfg = StudyConfig::default();
    cfg.world.seed = seed;

    println!("Generating the synthetic US long-haul world (seed {seed}) …");
    let study = Study::new(cfg);

    println!("\n== Four-step construction (paper §2) ==");
    for r in &study.built.reports {
        println!(
            "  after step {}: {:>3} nodes, {:>4} links, {:>3} conduits ({} validated)",
            r.step, r.nodes, r.links, r.conduits, r.validated_conduits
        );
    }
    println!("  paper reference:  step 1 → 267/1258/512, final → 273/2411/542");

    let s = summarize(&study.built.map);
    println!("\n== Final map (Fig. 1 analogue) ==");
    println!(
        "  nodes: {}   links: {}   conduits: {}",
        s.nodes, s.links, s.conduits
    );
    println!(
        "  documented (validated) conduits: {}",
        s.validated_conduits
    );
    println!("  total trench mileage: {:.0} km", s.total_km);
    println!("  long-haul hubs (conduit degree):");
    for (label, deg) in s.hubs.iter().take(6) {
        println!("    {label:<22} {deg}");
    }

    let rm = study.risk_matrix();
    println!("\n== Sharing at a glance (paper §4.2) ==");
    for k in [2u16, 3, 4] {
        println!(
            "  conduits shared by >= {k} ISPs: {:5.1} %",
            intertubes::risk::sharing_fraction(&rm, k) * 100.0
        );
    }
    println!("  (paper: 89.7 %, 63.3 %, 53.5 %)");
    Ok(())
}
