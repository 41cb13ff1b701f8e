//! Export the constructed long-haul map as GeoJSON (the Fig. 1 artifact,
//! loadable in any GIS viewer or geojson.io).
//!
//! ```sh
//! cargo run --release --example export_geojson -- map.geojson
//! ```

use intertubes::map::to_geojson;
use intertubes::Study;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "intertubes-map.geojson".to_string());
    let study = Study::reference();
    let gj = to_geojson(&study.built.map);
    let text = serde_json::to_string_pretty(&gj)?;
    std::fs::write(&path, &text).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "wrote {} ({} features, {:.1} kB) — nodes as Points, conduits as LineStrings \
         with tenant/validation properties",
        path,
        gj["features"].as_array().map(Vec::len).unwrap_or(0),
        text.len() as f64 / 1024.0
    );
    Ok(())
}
