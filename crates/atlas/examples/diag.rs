//! World diagnostics: the calibration dashboard used while tuning the
//! synthetic-world generator against the paper's targets (DESIGN.md §3).
//!
//! ```sh
//! cargo run -p intertubes-atlas --example diag
//! ```

use intertubes_atlas::{tenant_counts, ConduitId, MapKind, RowType, World, MAPPED_ISPS};

fn main() -> Result<(), String> {
    let w = World::reference();
    let counts = tenant_counts(&w.system, w.mapped_footprints());

    // Tenant-count histogram (drives the paper's Fig. 6 calibration).
    let mut hist = vec![0usize; 21];
    for &c in &counts {
        hist[(c as usize).min(20)] += 1;
    }
    println!("tenant-count histogram (index = tenants, capped at 20):");
    println!("  {hist:?}");

    let n = counts.len() as f64;
    for k in [2u16, 3, 4] {
        let frac = counts.iter().filter(|&&c| c >= k).count() as f64 / n;
        println!("  shared by >= {k}: {:.1} %", frac * 100.0);
    }
    println!(
        "  shared by > 17: {} conduits (paper: 12)",
        counts.iter().filter(|&&c| c > 17).count()
    );

    // Right-of-way mix (drives Fig. 4 / Fig. 5).
    let mut by_row = [0usize; 4];
    for c in &w.system.conduits {
        by_row[match c.row {
            RowType::Road => 0,
            RowType::Rail => 1,
            RowType::Pipeline => 2,
            RowType::Unknown => 3,
        }] += 1;
    }
    println!(
        "rows: road {} rail {} pipeline {} unknown {}",
        by_row[0], by_row[1], by_row[2], by_row[3]
    );

    // Step-3 reservation check: conduits no geocoded map shows.
    let mut no_geo = 0;
    for ci in 0..w.system.conduits.len() {
        let geo = w
            .footprints
            .iter()
            .take(MAPPED_ISPS)
            .zip(&w.roster)
            .any(|(fp, p)| p.map_kind == MapKind::Geocoded && fp.uses(ConduitId(ci as u32)));
        no_geo += usize::from(!geo);
    }
    println!("conduits invisible to geocoded maps (step-3-only): {no_geo} (paper: 30)");

    // Footprint sizes of the headline ISPs.
    for name in ["EarthLink", "Level 3", "TWC", "Verizon", "Suddenlink"] {
        let i = w
            .roster
            .iter()
            .position(|p| p.name == name)
            .ok_or_else(|| format!("{name} is not in the roster"))?;
        println!("{name}: {} conduits", w.footprints[i].conduits.len());
    }
    Ok(())
}
