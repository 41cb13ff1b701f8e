//! The snapshot's binary sections (DESIGN.md §9.1): fixed-width
//! little-endian columns, read back through a bounds-checked [`Reader`].
//!
//! The payload is a run of length-prefixed sections in a fixed order:
//! `strings`, `config`, `nodes`, `conduits`, `isps`, `risk`, `hamming`,
//! `overlay`, `paths`. Every id is a `u32`, every `f64` is written as its
//! bits, and every name (node labels, provider names, roster names) is an
//! index into the one sorted `strings` table. The landmarks container
//! section uses the same codec.
//!
//! The decoder is total: each declared count is checked against the bytes
//! left, times the element size, before anything is allocated; every
//! cross-reference (endpoints, conduit ids, string ids) is checked against
//! what it points into; and every byte has exactly one accepted value, so
//! whatever decodes re-encodes to the same bytes. A failure is a
//! [`SnapshotError::BadSection`] naming the section.

#![deny(clippy::indexing_slicing)]

use intertubes_geo::{GeoPoint, Polyline};
use intertubes_graph::Landmarks;
use intertubes_map::{
    FiberMap, MapConduit, MapNode, MapNodeId, Provenance, Tenancy, TenancySource,
};
use intertubes_mitigation::{PairPaths, PathSummary};
use intertubes_probes::Overlay;
use intertubes_records::RowHintKey;
use intertubes_risk::{HammingHeatmap, RiskMatrix};

use crate::index::PathIndex;
use crate::snapshot::{SnapshotError, StudySnapshot};

/// A codec failure inside one section; the caller names the section.
type Result<T> = std::result::Result<T, String>;

/// Appends fixed-width little-endian values to a growing buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its bits, so every value (NaN payloads
    /// included) reads back exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a column of `u32`s.
    pub fn u32s(&mut self, column: impl IntoIterator<Item = u32>) {
        column.into_iter().for_each(|v| self.u32(v));
    }

    /// Appends a column of `f64`s.
    pub fn f64s(&mut self, column: impl IntoIterator<Item = f64>) {
        column.into_iter().for_each(|v| self.f64(v));
    }

    /// Appends an element count as a `u32`.
    pub fn count(&mut self, n: usize) -> Result<()> {
        let n = u32::try_from(n).map_err(|_| format!("{n} does not fit a u32"))?;
        self.u32(n);
        Ok(())
    }

    /// Appends a column of element counts.
    pub fn counts(&mut self, column: impl IntoIterator<Item = usize>) -> Result<()> {
        column.into_iter().try_for_each(|n| self.count(n))
    }

    /// Appends one section: a `u64` byte length, then what `body` writes.
    pub fn section(&mut self, body: impl FnOnce(&mut Writer) -> Result<()>) -> Result<()> {
        let at = self.buf.len();
        self.u64(0);
        body(self)?;
        let len = (self.buf.len() - at - 8) as u64;
        if let Some(slot) = self.buf.get_mut(at..at + 8) {
            slot.copy_from_slice(&len.to_le_bytes());
        }
        Ok(())
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads what a [`Writer`] wrote. Every read checks the bytes that remain
/// and fails with a message instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| format!("needs {n} bytes, {} remain", self.rest.len()))?;
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| format!("needs {N} bytes, {} remain", self.rest.len()))?;
        self.rest = tail;
        Ok(*head)
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its bits.
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A `u64` that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("{v} does not fit a usize"))
    }

    /// A `u32` element count, checked against the bytes that remain: at
    /// least `count × min_size` of them must follow.
    pub fn count(&mut self, min_size: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        check_fits(n, min_size, self.rest.len())?;
        Ok(n)
    }

    /// The next `n` elements of a `W`-byte column, checked before they
    /// are taken.
    pub fn column<const W: usize>(&mut self, n: usize) -> Result<&'a [[u8; W]]> {
        check_fits(n, W, self.rest.len())?;
        let (elems, _) = self.take(n * W)?.as_chunks::<W>();
        Ok(elems)
    }

    /// A `u32` column of `n` entries.
    pub fn u32s(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = u32> + Clone + 'a> {
        Ok(self.column::<4>(n)?.iter().map(|b| u32::from_le_bytes(*b)))
    }

    /// A `u64` column of `n` entries.
    pub fn u64s(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = u64> + Clone + 'a> {
        Ok(self.column::<8>(n)?.iter().map(|b| u64::from_le_bytes(*b)))
    }

    /// An `f64` column of `n` entries.
    pub fn f64s(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = f64> + Clone + 'a> {
        Ok(self.u64s(n)?.map(f64::from_bits))
    }

    /// One section written by [`Writer::section`], as a reader of its own.
    pub fn section(&mut self) -> Result<Reader<'a>> {
        let len = self.usize()?;
        Ok(Reader::new(self.take(len)?))
    }

    /// Fails unless every byte has been read.
    pub fn finish(&self) -> Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(format!("{n} bytes left over")),
        }
    }
}

/// Checks that `n` elements of `size` bytes fit in `have` bytes.
fn check_fits(n: usize, size: usize, have: usize) -> Result<()> {
    match n.checked_mul(size) {
        Some(need) if need <= have => Ok(()),
        _ => Err(format!(
            "declares {n} elements of {size} B, {have} B remain"
        )),
    }
}

/// The sum of a `u32` column, as a count of elements that follow.
fn total(counts: impl Iterator<Item = u32>) -> usize {
    counts.map(|c| c as usize).sum()
}

/// A boolean byte: 0 or 1, nothing else.
fn flag(b: u8) -> Result<bool> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(format!("flag byte {b} is neither 0 nor 1")),
    }
}

/// Checks that `id` indexes a table of `len` entries.
fn below(id: u32, len: usize, what: &str) -> Result<u32> {
    if (id as usize) < len {
        Ok(id)
    } else {
        Err(format!("{what} {id} is out of range (have {len})"))
    }
}

/// Encoder side of the string table: every name in the snapshot, sorted
/// and deduplicated, so a name's id is its rank.
struct StringIds<'s> {
    sorted: Vec<&'s str>,
}

impl<'s> StringIds<'s> {
    fn new(snap: &'s StudySnapshot) -> StringIds<'s> {
        let o = &snap.overlay;
        let mut all: Vec<&str> = (snap.map.nodes.iter().map(|n| &n.label))
            .chain(
                snap.map
                    .conduits
                    .iter()
                    .flat_map(|c| &c.tenants)
                    .map(|t| &t.isp),
            )
            .chain(
                snap.isps
                    .iter()
                    .chain(&snap.risk.isps)
                    .chain(&snap.hamming.isps),
            )
            .chain(
                o.observed_isps
                    .iter()
                    .flatten()
                    .chain(o.isp_conduits.keys()),
            )
            .map(String::as_str)
            .collect();
        all.sort_unstable();
        all.dedup();
        StringIds { sorted: all }
    }

    /// Appends the ids of `names`.
    fn ids<'a>(&self, w: &mut Writer, names: impl IntoIterator<Item = &'a String>) -> Result<()> {
        for s in names {
            let id = self
                .sorted
                .binary_search(&s.as_str())
                .map_err(|_| format!("{s:?} is missing from the string table"))?;
            w.u32(id as u32);
        }
        Ok(())
    }

    // strings: u32 S; S × u32 byte length; the UTF-8 bytes.
    fn write(&self, w: &mut Writer) -> Result<()> {
        w.count(self.sorted.len())?;
        w.counts(self.sorted.iter().map(|s| s.len()))?;
        self.sorted.iter().for_each(|s| w.bytes(s.as_bytes()));
        Ok(())
    }
}

/// Decoder side of the string table. Tracks which entries were used: an
/// entry nothing refers to would not be written back.
struct Strings {
    table: Vec<String>,
    used: Vec<bool>,
}

impl Strings {
    fn read(r: &mut Reader<'_>) -> Result<Strings> {
        let n = r.count(4)?;
        let lens = r.u32s(n)?;
        let mut text = Reader::new(r.take(total(lens.clone()))?);
        let mut table: Vec<String> = Vec::with_capacity(n);
        for len in lens {
            let raw = text.take(len as usize)?;
            let s = std::str::from_utf8(raw).map_err(|e| format!("string {}: {e}", table.len()))?;
            if table.last().is_some_and(|prev| prev.as_str() >= s) {
                return Err(format!("string {} is out of order", table.len()));
            }
            table.push(s.to_string());
        }
        Ok(Strings {
            used: vec![false; table.len()],
            table,
        })
    }

    fn get(&mut self, id: u32) -> Result<String> {
        let i = id as usize;
        match (self.table.get(i), self.used.get_mut(i)) {
            (Some(s), Some(used)) => {
                *used = true;
                Ok(s.clone())
            }
            _ => Err(format!(
                "string id {id} is out of range (have {})",
                self.table.len()
            )),
        }
    }

    /// The strings `ids` name, in order.
    fn get_all(&mut self, ids: &[u32]) -> Result<Vec<String>> {
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            out.push(self.get(id)?);
        }
        Ok(out)
    }

    fn all_used(&self) -> Result<()> {
        match self.used.iter().position(|&u| !u) {
            None => Ok(()),
            Some(i) => Err(format!("string {i} is never referenced")),
        }
    }
}

/// The `BadSection` error for `section`.
fn bad(section: &'static str) -> impl Fn(String) -> SnapshotError {
    move |error| SnapshotError::BadSection { section, error }
}

/// Writes one payload section.
type SectionWriter<'f> = &'f dyn Fn(&mut Writer) -> Result<()>;

/// Encodes everything but the landmarks into payload sections.
pub(crate) fn encode_payload(snap: &StudySnapshot) -> std::result::Result<Vec<u8>, SnapshotError> {
    let ids = StringIds::new(snap);
    let config = serde_json::to_string(&snap.config).map_err(|e| bad("config")(e.to_string()))?;
    let sections: [(&'static str, SectionWriter<'_>); 9] = [
        ("strings", &|w| ids.write(w)),
        ("config", &|w| {
            w.bytes(config.as_bytes());
            Ok(())
        }),
        ("nodes", &|w| write_nodes(w, &ids, &snap.map)),
        ("conduits", &|w| write_conduits(w, &ids, &snap.map)),
        ("isps", &|w| write_names(w, &ids, &snap.isps)),
        ("risk", &|w| write_risk(w, &ids, &snap.risk)),
        ("hamming", &|w| write_hamming(w, &ids, &snap.hamming)),
        ("overlay", &|w| write_overlay(w, &ids, &snap.overlay)),
        ("paths", &|w| write_paths(w, &snap.paths)),
    ];
    let mut w = Writer::default();
    for (name, body) in sections {
        w.section(body).map_err(bad(name))?;
    }
    Ok(w.into_bytes())
}

/// Decodes payload sections into a snapshot without landmarks.
pub(crate) fn decode_payload(bytes: &[u8]) -> std::result::Result<StudySnapshot, SnapshotError> {
    let mut r = Reader::new(bytes);
    let mut strings = section(&mut r, "strings", Strings::read)?;
    let config = section(&mut r, "config", read_config)?;
    let nodes = section(&mut r, "nodes", |s| read_nodes(s, &mut strings))?;
    let n = nodes.len();
    let conduits = section(&mut r, "conduits", |s| read_conduits(s, &mut strings, n))?;
    let c = conduits.len();
    let isps = section(&mut r, "isps", |s| read_names(s, &mut strings))?;
    let risk = section(&mut r, "risk", |s| read_risk(s, &mut strings, c))?;
    let hamming = section(&mut r, "hamming", |s| read_hamming(s, &mut strings))?;
    let overlay = section(&mut r, "overlay", |s| read_overlay(s, &mut strings, c))?;
    let paths = section(&mut r, "paths", |s| read_paths(s, n, c))?;
    strings.all_used().map_err(bad("strings"))?;
    r.finish().map_err(SnapshotError::Payload)?;
    Ok(StudySnapshot {
        config,
        map: FiberMap { nodes, conduits },
        isps,
        risk,
        hamming,
        overlay,
        paths,
        landmarks: None,
    })
}

/// Reads the next section with `read`, which must consume all of it.
fn section<'a, T>(
    r: &mut Reader<'a>,
    name: &'static str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T>,
) -> std::result::Result<T, SnapshotError> {
    let mut body = r.section().map_err(bad(name))?;
    let value = read(&mut body).map_err(bad(name))?;
    body.finish().map_err(bad(name))?;
    Ok(value)
}

/// The landmarks container section: u32 node count; u32 landmark count
/// M; u32 distance count; M × u32 landmark node; the f64 distances.
pub(crate) fn encode_landmarks(lm: &Landmarks) -> std::result::Result<Vec<u8>, SnapshotError> {
    let mut w = Writer::default();
    w.counts([lm.node_count(), lm.count(), lm.distances().len()])
        .map_err(bad("landmarks"))?;
    w.u32s(lm.landmark_nodes().map(|n| n.0));
    w.f64s(lm.distances().iter().copied());
    Ok(w.into_bytes())
}

/// Decodes the landmarks section; its tables must cover `node_count`
/// map nodes.
pub(crate) fn decode_landmarks(
    bytes: &[u8],
    node_count: usize,
) -> std::result::Result<Landmarks, SnapshotError> {
    let mut r = Reader::new(bytes);
    (|| {
        let nodes = r.u32()?;
        if nodes as usize != node_count {
            return Err(format!(
                "tables cover {nodes} nodes, the map has {node_count}"
            ));
        }
        let count = r.count(4)?;
        let len = r.count(8)?;
        let ids = r.u32s(count)?.collect();
        let dist = r.f64s(len)?.collect();
        r.finish()?;
        Landmarks::from_parts(nodes, ids, dist).map_err(|e| e.to_string())
    })()
    .map_err(bad("landmarks"))
}

fn read_config(r: &mut Reader<'_>) -> Result<serde_json::Value> {
    let raw = r.take(r.remaining())?;
    let text = std::str::from_utf8(raw).map_err(|e| e.to_string())?;
    let value: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    // Only the compact form the encoder writes is accepted, so the
    // section re-encodes to the bytes it was read from.
    if serde_json::to_string(&value).map_err(|e| e.to_string())? != text {
        return Err("config JSON is not in compact canonical form".into());
    }
    Ok(value)
}

// names: u32 count; count × u32 name id.
fn write_names(w: &mut Writer, ids: &StringIds<'_>, names: &[String]) -> Result<()> {
    w.count(names.len())?;
    ids.ids(w, names)
}

fn read_names(r: &mut Reader<'_>, strings: &mut Strings) -> Result<Vec<String>> {
    let n = r.count(4)?;
    r.u32s(n)?.map(|id| strings.get(id)).collect()
}

// nodes: u32 N; N × u32 label id; N × f64 lat; N × f64 lon.
fn write_nodes(w: &mut Writer, ids: &StringIds<'_>, map: &FiberMap) -> Result<()> {
    w.count(map.nodes.len())?;
    ids.ids(w, map.nodes.iter().map(|n| &n.label))?;
    w.f64s(map.nodes.iter().map(|n| n.location.lat));
    w.f64s(map.nodes.iter().map(|n| n.location.lon));
    Ok(())
}

fn read_nodes(r: &mut Reader<'_>, strings: &mut Strings) -> Result<Vec<MapNode>> {
    let n = r.count(20)?;
    let labels = r.u32s(n)?;
    let locations = r.f64s(n)?.zip(r.f64s(n)?);
    labels
        .zip(locations)
        .map(|(id, (lat, lon))| {
            Ok(MapNode {
                label: strings.get(id)?,
                location: GeoPoint { lat, lon },
            })
        })
        .collect()
}

const PROVENANCE: [Provenance; 2] = [Provenance::Step1, Provenance::Step3];
const SOURCES: [TenancySource; 2] = [TenancySource::PublishedMap, TenancySource::Records];
const ROWS: [RowHintKey; 3] = [RowHintKey::Road, RowHintKey::Rail, RowHintKey::Pipeline];

/// The index of `v` in `table`, as its one-byte tag.
fn tag<T: PartialEq>(table: &[T], v: &T) -> u8 {
    table.iter().position(|t| t == v).unwrap_or(0) as u8
}

/// The `table` entry a tag byte names.
fn untag<T: Copy>(table: &[T], b: u8, what: &str) -> Result<T> {
    table
        .get(b as usize)
        .copied()
        .ok_or_else(|| format!("{what} tag {b} is unknown"))
}

// conduits: u32 C; C × u32 a; C × u32 b; C × u8 provenance; C × u8
// validated; C × u8 row (0 none, else 1 + ROWS index); C × u32 point
// count; C × u32 tenant count; every point's f64 lat, then every point's
// f64 lon; every tenant's u32 name id, then every tenant's u8 source.
fn write_conduits(w: &mut Writer, ids: &StringIds<'_>, map: &FiberMap) -> Result<()> {
    let cs = &map.conduits;
    w.count(cs.len())?;
    w.u32s(cs.iter().map(|c| c.a.0));
    w.u32s(cs.iter().map(|c| c.b.0));
    cs.iter()
        .for_each(|c| w.u8(tag(&PROVENANCE, &c.provenance)));
    cs.iter().for_each(|c| w.u8(c.validated as u8));
    cs.iter()
        .for_each(|c| w.u8(c.row.map_or(0, |r| 1 + tag(&ROWS, &r))));
    w.counts(cs.iter().map(|c| c.geometry.len()))?;
    w.counts(cs.iter().map(|c| c.tenants.len()))?;
    let points = || cs.iter().flat_map(|c| c.geometry.points());
    w.f64s(points().map(|p| p.lat));
    w.f64s(points().map(|p| p.lon));
    let tenants = || cs.iter().flat_map(|c| &c.tenants);
    ids.ids(w, tenants().map(|t| &t.isp))?;
    tenants().for_each(|t| w.u8(tag(&SOURCES, &t.source)));
    Ok(())
}

fn read_conduits(
    r: &mut Reader<'_>,
    strings: &mut Strings,
    nodes: usize,
) -> Result<Vec<MapConduit>> {
    let n = r.count(19)?;
    let (a, b) = (r.u32s(n)?, r.u32s(n)?);
    let (provenance, validated, row) = (r.take(n)?, r.take(n)?, r.take(n)?);
    let (point_counts, tenant_counts) = (r.u32s(n)?, r.u32s(n)?);
    let point_total = total(point_counts.clone());
    let mut points = r.f64s(point_total)?.zip(r.f64s(point_total)?);
    let tenant_total = total(tenant_counts.clone());
    let mut tenants = r.u32s(tenant_total)?.zip(r.take(tenant_total)?);
    let mut out = Vec::with_capacity(n);
    let fixed = (a.zip(b))
        .zip(provenance.iter().zip(validated).zip(row))
        .zip(point_counts.zip(tenant_counts));
    for (i, ((ends, ((&prov, &valid), &row)), (np, nt))) in fixed.enumerate() {
        let end = |id: u32| below(id, nodes, &format!("conduit {i} endpoint"));
        let pts = (points.by_ref().take(np as usize))
            .map(|(lat, lon)| GeoPoint { lat, lon })
            .collect();
        let mut conduit_tenants = Vec::with_capacity(nt as usize);
        for (id, &src) in tenants.by_ref().take(nt as usize) {
            conduit_tenants.push(Tenancy {
                isp: strings.get(id)?,
                source: untag(&SOURCES, src, "tenancy source")?,
            });
        }
        out.push(MapConduit {
            a: MapNodeId(end(ends.0)?),
            b: MapNodeId(end(ends.1)?),
            geometry: Polyline::new(pts).map_err(|e| format!("conduit {i}: {e}"))?,
            tenants: conduit_tenants,
            provenance: untag(&PROVENANCE, prov, "provenance")?,
            validated: flag(valid)?,
            row: match row {
                0 => None,
                r => Some(untag(&ROWS, r - 1, "right-of-way")?),
            },
        });
    }
    Ok(out)
}

// risk: u32 W; names (R provider ids); R × W × u8 uses; W × u16 shared.
fn write_risk(w: &mut Writer, ids: &StringIds<'_>, risk: &RiskMatrix) -> Result<()> {
    let width = risk.shared.len();
    if risk.uses.len() != risk.isps.len() || risk.uses.iter().any(|row| row.len() != width) {
        return Err("risk rows do not match its providers and share column".into());
    }
    w.count(width)?;
    write_names(w, ids, &risk.isps)?;
    risk.uses.iter().flatten().for_each(|&u| w.u8(u as u8));
    risk.shared.iter().for_each(|&s| w.u16(s));
    Ok(())
}

fn read_risk(r: &mut Reader<'_>, strings: &mut Strings, conduits: usize) -> Result<RiskMatrix> {
    let width = r.u32()? as usize;
    if width != conduits {
        return Err(format!("{width} columns for {conduits} conduits"));
    }
    let isps = read_names(r, strings)?;
    check_fits(isps.len(), width, r.remaining())?;
    let mut uses = Vec::with_capacity(isps.len());
    for _ in 0..isps.len() {
        uses.push(
            r.take(width)?
                .iter()
                .map(|&b| flag(b))
                .collect::<Result<_>>()?,
        );
    }
    let shared = r.column::<2>(width)?.iter().map(|b| u16::from_le_bytes(*b));
    Ok(RiskMatrix {
        shared: shared.collect(),
        isps,
        uses,
    })
}

// hamming: names (H provider ids); H × H × u32 distance.
fn write_hamming(w: &mut Writer, ids: &StringIds<'_>, h: &HammingHeatmap) -> Result<()> {
    let n = h.isps.len();
    if h.distance.len() != n || h.distance.iter().any(|row| row.len() != n) {
        return Err("hamming distances are not square over its providers".into());
    }
    write_names(w, ids, &h.isps)?;
    w.u32s(h.distance.iter().flatten().copied());
    Ok(())
}

fn read_hamming(r: &mut Reader<'_>, strings: &mut Strings) -> Result<HammingHeatmap> {
    let isps = read_names(r, strings)?;
    let n = isps.len();
    check_fits(n.saturating_mul(n), 4, r.remaining())?;
    let mut distance = Vec::with_capacity(n);
    for _ in 0..n {
        distance.push(r.u32s(n)?.collect());
    }
    Ok(HammingHeatmap { isps, distance })
}

/// Reads `n` ids that must rise strictly, as a sorted set's members do.
fn read_ascending(ids: &mut impl Iterator<Item = u32>, n: usize) -> Result<Vec<u32>> {
    let mut out: Vec<u32> = Vec::with_capacity(n);
    for id in ids.take(n) {
        if out.last().is_some_and(|&prev| prev >= id) {
            return Err(format!("set member {id} is out of order"));
        }
        out.push(id);
    }
    Ok(out)
}

// overlay: u64 overlaid; u64 skipped; u32 W; W × u64 conduit_freq;
// W × u64 west_east; W × u64 east_west; W × u32 observed count; the
// observed name ids; u32 K; K × u32 provider name id; K × u32 set size;
// the conduit ids. Name ids rise within each set, as the table is sorted.
fn write_overlay(w: &mut Writer, ids: &StringIds<'_>, o: &Overlay) -> Result<()> {
    let n = o.conduit_freq.len();
    if [o.west_east.len(), o.east_west.len(), o.observed_isps.len()] != [n; 3] {
        return Err("overlay columns differ in length".into());
    }
    w.u64(o.overlaid as u64);
    w.u64(o.skipped as u64);
    w.count(n)?;
    for col in [&o.conduit_freq, &o.west_east, &o.east_west] {
        col.iter().for_each(|&v| w.u64(v));
    }
    w.counts(o.observed_isps.iter().map(|set| set.len()))?;
    ids.ids(w, o.observed_isps.iter().flatten())?;
    w.count(o.isp_conduits.len())?;
    ids.ids(w, o.isp_conduits.keys())?;
    w.counts(o.isp_conduits.values().map(|set| set.len()))?;
    w.u32s(o.isp_conduits.values().flatten().copied());
    Ok(())
}

/// Every set, and the provider key column, is read strictly ascending, so
/// each collects in bulk rather than one insert at a time, and a set's
/// conduit ids are all in range when its last one is.
fn read_overlay(r: &mut Reader<'_>, strings: &mut Strings, conduits: usize) -> Result<Overlay> {
    let overlaid = r.usize()?;
    let skipped = r.usize()?;
    let n = r.u32()? as usize;
    if n != conduits {
        return Err(format!("{n} overlay columns for {conduits} conduits"));
    }
    let conduit_freq = r.u64s(n)?.collect();
    let west_east = r.u64s(n)?.collect();
    let east_west = r.u64s(n)?.collect();
    let counts = r.u32s(n)?;
    let mut names = r.u32s(total(counts.clone()))?;
    let mut observed_isps = Vec::with_capacity(n);
    for count in counts {
        let ids = read_ascending(&mut names, count as usize)?;
        observed_isps.push(strings.get_all(&ids)?.into_iter().collect());
    }
    let k = r.count(8)?;
    let keys = strings.get_all(&read_ascending(&mut r.u32s(k)?, k)?)?;
    let sizes = r.u32s(k)?;
    let mut members = r.u32s(total(sizes.clone()))?;
    let mut sets = Vec::with_capacity(k);
    for size in sizes {
        let ids = read_ascending(&mut members, size as usize)?;
        if let Some(&last) = ids.last() {
            below(last, conduits, "overlay conduit id")?;
        }
        sets.push(ids.into_iter().collect());
    }
    let isp_conduits = keys.into_iter().zip(sets).collect();
    Ok(Overlay {
        conduit_freq,
        west_east,
        east_west,
        observed_isps,
        isp_conduits,
        overlaid,
        skipped,
    })
}

// paths: u64 k; f64 detour_cap; u32 Q; Q × u32 a; Q × u32 b; Q × f64
// row_us; Q × f64 los_us; Q × u32 route count; every route's f64 km;
// every route's u32 hop count; then every route's conduit ids.
fn write_paths(w: &mut Writer, paths: &PathIndex) -> Result<()> {
    let ps = &paths.pairs;
    w.u64(paths.k as u64);
    w.f64(paths.detour_cap);
    w.count(ps.len())?;
    w.u32s(ps.iter().map(|p| p.a));
    w.u32s(ps.iter().map(|p| p.b));
    w.f64s(ps.iter().map(|p| p.row_us));
    w.f64s(ps.iter().map(|p| p.los_us));
    w.counts(ps.iter().map(|p| p.paths.len()))?;
    let routes = || ps.iter().flat_map(|p| &p.paths);
    w.f64s(routes().map(|r| r.km));
    w.counts(routes().map(|r| r.conduits.len()))?;
    w.u32s(routes().flat_map(|r| r.conduits.iter().copied()));
    Ok(())
}

fn read_paths(r: &mut Reader<'_>, nodes: usize, conduits: usize) -> Result<PathIndex> {
    let k = r.usize()?;
    let detour_cap = r.f64()?;
    let n = r.count(28)?;
    let (a, b) = (r.u32s(n)?, r.u32s(n)?);
    let (row_us, los_us) = (r.f64s(n)?, r.f64s(n)?);
    let route_counts = r.u32s(n)?;
    let routes = total(route_counts.clone());
    let mut km = r.f64s(routes)?;
    let hop_counts = r.u32s(routes)?;
    let mut hops = hop_counts.clone();
    let mut ids = r.u32s(total(hop_counts))?;
    let mut pairs = Vec::with_capacity(n);
    let cols = a.zip(b).zip(row_us.zip(los_us)).zip(route_counts);
    for (((a, b), (row_us, los_us)), count) in cols {
        let mut paths = Vec::with_capacity(count as usize);
        for (km, len) in km.by_ref().zip(hops.by_ref()).take(count as usize) {
            let route: Vec<u32> = ids.by_ref().take(len as usize).collect();
            (route.iter()).try_for_each(|&c| below(c, conduits, "route conduit id").map(drop))?;
            paths.push(PathSummary {
                km,
                conduits: route,
            });
        }
        pairs.push(PairPaths {
            a: below(a, nodes, "pair node id")?,
            b: below(b, nodes, "pair node id")?,
            paths,
            row_us,
            los_us,
        });
    }
    Ok(PathIndex {
        k,
        detour_cap,
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reader_reads_what_a_writer_wrote() {
        let mut w = Writer::default();
        w.u16(0xbeef);
        w.f64(-0.0);
        w.section(|w| w.counts([3, 4])).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.column::<2>(1).unwrap(), &[0xbeefu16.to_le_bytes()]);
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        let mut body = r.section().unwrap();
        assert_eq!(body.u32s(2).unwrap().collect::<Vec<_>>(), [3, 4]);
        assert_eq!(body.finish(), Ok(()));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn counts_are_checked_before_they_are_taken() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        let mut r = Reader::new(&bytes);
        let err = r.count(4).unwrap_err();
        assert!(err.contains("declares 4294967295 elements"), "{err}");
        let mut r = Reader::new(&bytes);
        assert!(r.column::<8>(usize::MAX).is_err());
        assert!(r.section().is_err());
        assert!(Reader::new(&[1]).finish().is_err());
    }

    #[test]
    fn flags_and_tags_accept_one_spelling_each() {
        assert_eq!(flag(1), Ok(true));
        assert!(flag(2).is_err());
        assert_eq!(untag(&ROWS, 2, "row"), Ok(RowHintKey::Pipeline));
        assert!(untag(&ROWS, 3, "row").is_err());
    }
}
