//! Annotated map export — the paper's stated future work ("we also plan to
//! generate annotated versions of our map, focusing in particular on
//! traffic and propagation delay", §8).
//!
//! Produces a GeoJSON `FeatureCollection` whose conduit features carry,
//! beyond tenancy and provenance, per-conduit traffic counts (from a
//! traceroute overlay) and propagation delay.

use intertubes_geo::fiber_delay_us;
use serde_json::{json, Map, Value};

use crate::model::{FiberMap, Provenance};

/// Per-conduit annotations to embed. All slices are indexed by conduit;
/// empty slices mean "skip this annotation".
#[derive(Debug, Clone, Default)]
pub struct MapAnnotations {
    /// Probe traversals per conduit (Tables 2–3's frequency, any scale).
    pub traffic: Vec<u64>,
    /// Tenant count per conduit under the analysis ISP set (risk-matrix
    /// `shared`, possibly traffic-augmented).
    pub shared: Vec<u16>,
}

/// Exports the map with traffic/delay/risk annotations.
pub fn to_annotated_geojson(map: &FiberMap, ann: &MapAnnotations) -> Value {
    let mut features = Vec::new();
    for n in &map.nodes {
        features.push(json!({
            "type": "Feature",
            "geometry": { "type": "Point", "coordinates": [n.location.lon, n.location.lat] },
            "properties": { "label": n.label, "kind": "city" },
        }));
    }
    // Normalizers for relative annotation scales.
    let max_traffic = ann.traffic.iter().copied().max().unwrap_or(0).max(1);
    for (i, c) in map.conduits.iter().enumerate() {
        let coords: Vec<[f64; 2]> = c.geometry.points().iter().map(|p| [p.lon, p.lat]).collect();
        let tenants: Vec<&str> = c.tenants.iter().map(|t| t.isp.as_str()).collect();
        let length_km = c.geometry.length_km();
        let mut props: Map = [
            ("kind", json!("conduit")),
            ("id", json!(i)),
            ("a", json!(map.nodes[c.a.index()].label)),
            ("b", json!(map.nodes[c.b.index()].label)),
            ("tenants", json!(tenants)),
            ("tenant_count", json!(tenants.len())),
            ("validated", json!(c.validated)),
            (
                "provenance",
                json!(match c.provenance {
                    Provenance::Step1 => "step1",
                    Provenance::Step3 => "step3",
                }),
            ),
            ("length_km", json!((length_km * 10.0).round() / 10.0)),
            ("delay_us", json!(fiber_delay_us(length_km).round())),
        ]
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect();
        if let Some(t) = ann.traffic.get(i) {
            props.insert("traffic_probes".into(), json!(t));
            props.insert(
                "traffic_relative".into(),
                json!((*t as f64 / max_traffic as f64 * 1000.0).round() / 1000.0),
            );
        }
        if let Some(s) = ann.shared.get(i) {
            props.insert("shared_risk".into(), json!(s));
        }
        features.push(json!({
            "type": "Feature",
            "geometry": { "type": "LineString", "coordinates": coords },
            "properties": Value::Object(props),
        }));
    }
    json!({ "type": "FeatureCollection", "features": features })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MapConduit, Tenancy, TenancySource};
    use intertubes_geo::{GeoPoint, Polyline};

    fn sample() -> FiberMap {
        let mut m = FiberMap::default();
        let a = m.ensure_node("Dallas, TX", GeoPoint::new_unchecked(32.78, -96.80));
        let b = m.ensure_node("Houston, TX", GeoPoint::new_unchecked(29.76, -95.37));
        m.conduits.push(MapConduit {
            a,
            b,
            geometry: Polyline::straight(
                GeoPoint::new_unchecked(32.78, -96.80),
                GeoPoint::new_unchecked(29.76, -95.37),
            ),
            tenants: vec![Tenancy {
                isp: "AT&T".into(),
                source: TenancySource::PublishedMap,
            }],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        });
        m
    }

    #[test]
    fn annotations_embed_traffic_and_delay() {
        let m = sample();
        let ann = MapAnnotations {
            traffic: vec![420],
            shared: vec![7],
        };
        let gj = to_annotated_geojson(&m, &ann);
        let line = gj["features"]
            .as_array()
            .unwrap()
            .iter()
            .find(|f| f["geometry"]["type"] == "LineString")
            .unwrap();
        assert_eq!(line["properties"]["traffic_probes"], 420);
        assert_eq!(line["properties"]["traffic_relative"], 1.0);
        assert_eq!(line["properties"]["shared_risk"], 7);
        // ~360 km of fiber ≈ 1.7–1.9 ms.
        let delay = line["properties"]["delay_us"].as_f64().unwrap();
        assert!((1_500.0..2_200.0).contains(&delay), "delay {delay}");
        assert!(line["properties"]["length_km"].as_f64().unwrap() > 300.0);
    }

    #[test]
    fn empty_annotations_mean_plain_properties() {
        let m = sample();
        let gj = to_annotated_geojson(&m, &MapAnnotations::default());
        let line = gj["features"]
            .as_array()
            .unwrap()
            .iter()
            .find(|f| f["geometry"]["type"] == "LineString")
            .unwrap();
        assert!(line["properties"].get("traffic_probes").is_none());
        assert!(line["properties"].get("shared_risk").is_none());
        assert!(line["properties"].get("delay_us").is_some());
    }
}
