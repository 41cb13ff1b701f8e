//! Seeded, deterministic fault injection for every InterTubes pipeline
//! input.
//!
//! The paper's map construction is only credible because it survives dirty
//! inputs: mis-digitized ISP maps, contradictory public records, noisy
//! traceroutes. This crate makes that robustness *testable* by perturbing
//! each input artifact in controlled, counted ways:
//!
//! * published ISP maps — NaN / out-of-range coordinates, dropped links,
//!   duplicated links, stripped geometry ([`inject_published_maps`]);
//! * the public-records corpus — corrupted (unresolvable) documents and
//!   contradictory right-of-way claims ([`inject_corpus`]);
//! * traceroute campaigns — truncated traces, mis-geolocated hops,
//!   out-of-range endpoint city ids ([`inject_campaign`]);
//! * transport-layer corridor graphs — deleted corridors, up to full
//!   disconnection ([`inject_transport`]).
//!
//! Faults are described by a [`FaultPlan`] — a small serde-JSON DSL
//! composing [`FaultSpec`]s. The plan DSL also carries the runtime
//! families: torn snapshot writes, section bit-flips, transient I/O
//! errors, slow reads, cache-shard poisoning and overload bursts, applied
//! by `intertubes-serve`'s `ChaosSession` (its `SnapshotIo` implementation
//! and scheduler hooks), and torn frames, slow-loris writes and
//! mid-stream disconnects, applied by `intertubes-net`'s server.
//!
//! Every surface draws the same way and records in one place:
//!
//! * an [`Injector`] binds a plan to one seeded stream per family;
//!   [`Injector::fires`] is the rate-gated draw of surfaces that decide
//!   in one serial order (the input injectors here, the serving layer's
//!   chaos session), so adding one family to a plan never re-randomizes
//!   another;
//! * [`FaultPlan::fires_at`] is the keyed draw of a surface whose
//!   decisions are not serial (the wire, keyed by connection and frame);
//! * [`InjectionLedger::record`] counts every injection, emits one `Warn`
//!   event on target `faults` and bumps the `faults.injected` counter, so
//!   integration tests can assert that a `DegradationReport` or chaos
//!   report accounts for every injected fault.
//!
//! Everything is a pure function of `(input, plan)`; a clean run is a run
//! under the empty plan, whose zero-rate families draw nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use intertubes_atlas::{CityId, CorridorEdge, PublishedLink, PublishedMap, TransportNetwork};
use intertubes_geo::{GeoPoint, Polyline};
use intertubes_graph::MultiGraph;
use intertubes_probes::Campaign;
use intertubes_records::{Corpus, Document, RowHint};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Marker prepended to city labels by [`FaultFamily::CorruptDocuments`].
///
/// The replacement character cannot appear in a generated `"City, ST"`
/// label, so sanitization can detect corrupted documents exactly.
pub const CORRUPT_MARKER: char = '\u{FFFD}';

/// One family of input perturbation. Unit variants keep the JSON DSL
/// trivial: `{"family": "DropLinks", "rate": 0.2}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultFamily {
    /// Replace a geometry vertex of a published link with NaN coordinates.
    NanCoordinates,
    /// Replace a geometry vertex with coordinates outside WGS84 ranges.
    OutOfRangeCoordinates,
    /// Remove published links entirely (silent map incompleteness).
    DropLinks,
    /// Insert a bitwise-identical copy of a geocoded published link.
    DuplicateLinks,
    /// Strip the geometry from links of geocoded maps.
    StripGeometry,
    /// Garble a document's city labels into unresolvable strings.
    CorruptDocuments,
    /// Add a document contradicting an existing right-of-way hint.
    ContradictoryDocuments,
    /// Drop the tail of a traceroute's hop list.
    TruncateTraces,
    /// Re-geolocate a mid-trace hop to a random (wrong but valid) city.
    MisgeolocateHops,
    /// Set a traceroute endpoint to an out-of-range [`CityId`].
    CorruptTraceEndpoints,
    /// Delete transport-layer corridors, disconnecting the graph.
    DisconnectTransport,
    /// Runtime: a snapshot write persists only a prefix of the bytes
    /// (power loss / kill mid-write) while reporting success.
    TornSnapshotWrite,
    /// Runtime: flip one bit of a snapshot read, in the section named by
    /// the spec's `section` field (payload when unset).
    SnapshotBitFlip,
    /// Runtime: a snapshot open/read fails with a transient I/O error.
    TransientIo,
    /// Runtime: a snapshot read stalls (accounted as virtual microseconds;
    /// no wall-clock enters any decision).
    SlowRead,
    /// Runtime: silently corrupt every entry of one result-cache shard.
    CachePoison,
    /// Runtime: a scheduler wave is hit by an overload burst, forcing the
    /// tail of the queue into degraded responses.
    OverloadBurst,
    /// Runtime (transport): a response frame is torn mid-write — the
    /// connection closes after a prefix of the frame's bytes are sent.
    /// Applied by `intertubes-net`'s server as a keyed draw.
    TornFrame,
    /// Runtime (transport): a response is dribbled out in tiny partial
    /// writes across poll ticks (slow-loris). Timing-only — frame bytes
    /// are unchanged, so responses stay byte-identical.
    SlowLoris,
    /// Runtime (transport): the connection is dropped before the response
    /// frame is written, forcing the client to reconnect and resend.
    Disconnect,
}

impl FaultFamily {
    /// All families, in declaration order.
    pub const ALL: [FaultFamily; 20] = [
        FaultFamily::NanCoordinates,
        FaultFamily::OutOfRangeCoordinates,
        FaultFamily::DropLinks,
        FaultFamily::DuplicateLinks,
        FaultFamily::StripGeometry,
        FaultFamily::CorruptDocuments,
        FaultFamily::ContradictoryDocuments,
        FaultFamily::TruncateTraces,
        FaultFamily::MisgeolocateHops,
        FaultFamily::CorruptTraceEndpoints,
        FaultFamily::DisconnectTransport,
        FaultFamily::TornSnapshotWrite,
        FaultFamily::SnapshotBitFlip,
        FaultFamily::TransientIo,
        FaultFamily::SlowRead,
        FaultFamily::CachePoison,
        FaultFamily::OverloadBurst,
        FaultFamily::TornFrame,
        FaultFamily::SlowLoris,
        FaultFamily::Disconnect,
    ];

    /// Stable label used in ledger rendering and test diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            FaultFamily::NanCoordinates => "nan-coordinates",
            FaultFamily::OutOfRangeCoordinates => "out-of-range-coordinates",
            FaultFamily::DropLinks => "drop-links",
            FaultFamily::DuplicateLinks => "duplicate-links",
            FaultFamily::StripGeometry => "strip-geometry",
            FaultFamily::CorruptDocuments => "corrupt-documents",
            FaultFamily::ContradictoryDocuments => "contradictory-documents",
            FaultFamily::TruncateTraces => "truncate-traces",
            FaultFamily::MisgeolocateHops => "misgeolocate-hops",
            FaultFamily::CorruptTraceEndpoints => "corrupt-trace-endpoints",
            FaultFamily::DisconnectTransport => "disconnect-transport",
            FaultFamily::TornSnapshotWrite => "torn-snapshot-write",
            FaultFamily::SnapshotBitFlip => "snapshot-bit-flip",
            FaultFamily::TransientIo => "transient-io",
            FaultFamily::SlowRead => "slow-read",
            FaultFamily::CachePoison => "cache-poison",
            FaultFamily::OverloadBurst => "overload-burst",
            FaultFamily::TornFrame => "torn-frame",
            FaultFamily::SlowLoris => "slow-loris",
            FaultFamily::Disconnect => "disconnect",
        }
    }

    /// Per-family RNG stream constant: keeps families independent under a
    /// shared plan seed.
    fn stream(self) -> u64 {
        match self {
            FaultFamily::NanCoordinates => 0x11,
            FaultFamily::OutOfRangeCoordinates => 0x22,
            FaultFamily::DropLinks => 0x33,
            FaultFamily::DuplicateLinks => 0x44,
            FaultFamily::StripGeometry => 0x55,
            FaultFamily::CorruptDocuments => 0x66,
            FaultFamily::ContradictoryDocuments => 0x77,
            FaultFamily::TruncateTraces => 0x88,
            FaultFamily::MisgeolocateHops => 0x99,
            FaultFamily::CorruptTraceEndpoints => 0xAA,
            FaultFamily::DisconnectTransport => 0xBB,
            FaultFamily::TornSnapshotWrite => 0xCC,
            FaultFamily::SnapshotBitFlip => 0xDD,
            FaultFamily::TransientIo => 0xEE,
            FaultFamily::SlowRead => 0xFF,
            FaultFamily::CachePoison => 0x1A,
            FaultFamily::OverloadBurst => 0x2B,
            FaultFamily::TornFrame => 0x702A,
            FaultFamily::SlowLoris => 0x5105,
            FaultFamily::Disconnect => 0x0D15,
        }
    }
}

impl std::fmt::Display for FaultFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A snapshot-container section, targeted by
/// [`FaultFamily::SnapshotBitFlip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SnapshotSection {
    /// The JSON header (schema, lengths, checksums).
    Header,
    /// The study payload.
    Payload,
    /// The v2 landmark-table section.
    Landmarks,
}

impl SnapshotSection {
    /// Stable label used in ledger rendering and reports.
    pub fn label(self) -> &'static str {
        match self {
            SnapshotSection::Header => "header",
            SnapshotSection::Payload => "payload",
            SnapshotSection::Landmarks => "landmarks",
        }
    }
}

/// One fault family at a given intensity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Which perturbation to apply.
    pub family: FaultFamily,
    /// Per-item probability in `[0, 1]` (clamped on use). For
    /// [`FaultFamily::DisconnectTransport`] this is the fraction of
    /// corridors deleted.
    pub rate: f64,
    /// For [`FaultFamily::SnapshotBitFlip`]: which container section the
    /// flip lands in (payload when unset). Ignored by other families, and
    /// omitted from JSON when absent, so pre-runtime plan files parse
    /// unchanged.
    pub section: Option<SnapshotSection>,
}

/// A typed parse/validation error for [`FaultPlan::from_json`].
///
/// Rates are validated at parse time: the old behavior silently accepted
/// `NaN` (which [`FaultPlan::rate`]'s clamp propagates) and negative
/// values. Rates above `1.0` remain legal — `rate()` clamps them — so
/// summed multi-spec plans keep working.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// The text was not a syntactically valid plan.
    Parse(String),
    /// A spec carried a non-finite or negative rate.
    InvalidRate {
        /// The offending spec's family.
        family: FaultFamily,
        /// The rejected rate value.
        rate: f64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Parse(msg) => write!(f, "fault plan parse error: {msg}"),
            FaultPlanError::InvalidRate { family, rate } => write!(
                f,
                "fault plan: invalid rate {rate} for family {family} (must be finite and >= 0)"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A composed fault scenario: a seed plus a list of [`FaultSpec`]s.
///
/// Round-trips through JSON (`{"seed": 7, "faults": [{"family":
/// "DropLinks", "rate": 0.25}]}`), which is what the CLI's
/// `--faults <plan.json>` flag parses.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Base RNG seed; each family derives its own stream from it.
    pub seed: u64,
    /// The perturbations to apply. Order does not matter: injectors pick
    /// the matching specs per family.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty (no-fault) plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Builder: appends one fault spec.
    pub fn with(mut self, family: FaultFamily, rate: f64) -> Self {
        self.faults.push(FaultSpec {
            family,
            rate,
            section: None,
        });
        self
    }

    /// Builder: appends one fault spec targeting a snapshot section
    /// (meaningful for [`FaultFamily::SnapshotBitFlip`]).
    pub fn with_section(mut self, family: FaultFamily, rate: f64, section: SnapshotSection) -> Self {
        self.faults.push(FaultSpec {
            family,
            rate,
            section: Some(section),
        });
        self
    }

    /// Whether the plan perturbs anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.iter().all(|f| f.rate <= 0.0)
    }

    /// The effective rate for `family`: sum of matching specs, clamped to
    /// `[0, 1]`. Zero when the family is absent.
    pub fn rate(&self, family: FaultFamily) -> f64 {
        let sum: f64 = self
            .faults
            .iter()
            .filter(|f| f.family == family)
            .map(|f| f.rate)
            .sum();
        sum.clamp(0.0, 1.0)
    }

    /// The snapshot section targeted by the first matching spec of
    /// `family` that names one (`None` when no spec does).
    pub fn section_for(&self, family: FaultFamily) -> Option<SnapshotSection> {
        self.faults
            .iter()
            .filter(|f| f.family == family)
            .find_map(|f| f.section)
    }

    /// The seed of one family's stream.
    fn stream_seed(&self, family: FaultFamily) -> u64 {
        self.seed ^ family.stream().wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// A keyed draw: whether `family` fires at (`site`, `ordinal`), for
    /// surfaces whose decisions are not made in one serial order (the
    /// wire, keyed by connection and frame). Each key seeds its own
    /// one-draw stream, so no other decision can shift it; a zero-rate
    /// family draws nothing.
    pub fn fires_at(&self, family: FaultFamily, site: u64, ordinal: u64) -> bool {
        let rate = self.rate(family);
        if rate <= 0.0 {
            return false;
        }
        let mix = |x: u64| StdRng::seed_from_u64(x).next_u64();
        let key = self.stream_seed(family)
            ^ mix(site.wrapping_add(1))
            ^ mix(ordinal.wrapping_add(0x5151_5151));
        StdRng::seed_from_u64(key).gen_bool(rate)
    }

    /// Validates every spec's rate: rejects non-finite (`NaN`, `inf`) and
    /// negative values with a typed error. Rates above `1.0` are allowed
    /// (clamped by [`FaultPlan::rate`]).
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for spec in &self.faults {
            if !spec.rate.is_finite() || spec.rate < 0.0 {
                return Err(FaultPlanError::InvalidRate {
                    family: spec.family,
                    rate: spec.rate,
                });
            }
        }
        Ok(())
    }

    /// Parses a plan from JSON text, rejecting malformed rates at parse
    /// time (see [`FaultPlanError`]).
    pub fn from_json(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let plan: FaultPlan =
            serde_json::from_str(text).map_err(|e| FaultPlanError::Parse(e.to_string()))?;
        plan.validate()?;
        Ok(plan)
    }

    /// Serializes the plan to pretty JSON (the CLI's scenario file
    /// format). Infallible by construction: the writer below emits every
    /// field directly, so there is no error path to swallow. Non-finite
    /// rates (only constructible via the builder) serialize as `null`,
    /// which [`FaultPlan::from_json`] rejects — such plans are invalid
    /// and do not round-trip by design.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.faults.len() * 64);
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"faults\": [");
        for (i, spec) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { \"family\": \"");
            out.push_str(&format!("{:?}", spec.family));
            out.push_str("\", \"rate\": ");
            if spec.rate.is_finite() {
                out.push_str(&format!("{:?}", spec.rate));
            } else {
                out.push_str("null");
            }
            if let Some(section) = spec.section {
                out.push_str(&format!(", \"section\": \"{section:?}\""));
            }
            out.push_str(" }");
        }
        if !self.faults.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Named built-in scenarios, used by tests and documented in
    /// EXPERIMENTS.md. Each exercises one input artifact; `"everything"`
    /// composes all families at once.
    pub fn built_in_scenarios() -> Vec<(&'static str, FaultPlan)> {
        vec![
            ("clean", FaultPlan::new(2015)),
            (
                "dirty-maps",
                FaultPlan::new(2015)
                    .with(FaultFamily::NanCoordinates, 0.05)
                    .with(FaultFamily::OutOfRangeCoordinates, 0.05)
                    .with(FaultFamily::DropLinks, 0.10)
                    .with(FaultFamily::DuplicateLinks, 0.10)
                    .with(FaultFamily::StripGeometry, 0.08),
            ),
            (
                "dirty-records",
                FaultPlan::new(2015)
                    .with(FaultFamily::CorruptDocuments, 0.10)
                    .with(FaultFamily::ContradictoryDocuments, 0.08),
            ),
            (
                "dirty-probes",
                FaultPlan::new(2015)
                    .with(FaultFamily::TruncateTraces, 0.15)
                    .with(FaultFamily::MisgeolocateHops, 0.05)
                    .with(FaultFamily::CorruptTraceEndpoints, 0.02),
            ),
            (
                "dirty-transport",
                FaultPlan::new(2015).with(FaultFamily::DisconnectTransport, 0.30),
            ),
            (
                "everything",
                FaultPlan::new(2015)
                    .with(FaultFamily::NanCoordinates, 0.04)
                    .with(FaultFamily::OutOfRangeCoordinates, 0.04)
                    .with(FaultFamily::DropLinks, 0.08)
                    .with(FaultFamily::DuplicateLinks, 0.08)
                    .with(FaultFamily::StripGeometry, 0.06)
                    .with(FaultFamily::CorruptDocuments, 0.08)
                    .with(FaultFamily::ContradictoryDocuments, 0.06)
                    .with(FaultFamily::TruncateTraces, 0.12)
                    .with(FaultFamily::MisgeolocateHops, 0.04)
                    .with(FaultFamily::CorruptTraceEndpoints, 0.02)
                    .with(FaultFamily::DisconnectTransport, 0.20),
            ),
        ]
    }

    /// Named built-in **runtime** chaos scenarios, consumed by the serving
    /// layer (`serve --chaos <name>`), the remote front-end
    /// (`serve --listen --chaos <name>`), the `chaos` and `remote` arms of
    /// the gate runner (`src/bin/gates.rs`), and the chaos battery in
    /// `tests/chaos.rs`.
    /// Most exercise one runtime fault family; `"torn-frame"` mixes the
    /// three transport families, and `"chaos-everything"` composes every
    /// runtime family.
    pub fn built_in_chaos_scenarios() -> Vec<(&'static str, FaultPlan)> {
        vec![
            (
                "torn-write",
                FaultPlan::new(2015).with(FaultFamily::TornSnapshotWrite, 0.7),
            ),
            (
                "flaky-io",
                FaultPlan::new(2015)
                    .with(FaultFamily::TransientIo, 0.4)
                    .with(FaultFamily::SlowRead, 0.3),
            ),
            (
                "bit-rot",
                FaultPlan::new(2015).with_section(
                    FaultFamily::SnapshotBitFlip,
                    0.4,
                    SnapshotSection::Payload,
                ),
            ),
            (
                "poisoned-cache",
                FaultPlan::new(2015).with(FaultFamily::CachePoison, 0.35),
            ),
            (
                "overload",
                FaultPlan::new(2015).with(FaultFamily::OverloadBurst, 0.4),
            ),
            (
                // The transport chaos arm: torn response frames plus the
                // two companion wire families, at rates the remote gate's
                // retrying clients are expected to ride out byte-identically.
                "torn-frame",
                FaultPlan::new(2015)
                    .with(FaultFamily::TornFrame, 0.2)
                    .with(FaultFamily::SlowLoris, 0.15)
                    .with(FaultFamily::Disconnect, 0.1),
            ),
            (
                "chaos-everything",
                FaultPlan::new(2015)
                    .with(FaultFamily::TornSnapshotWrite, 0.3)
                    .with_section(FaultFamily::SnapshotBitFlip, 0.2, SnapshotSection::Payload)
                    .with(FaultFamily::TransientIo, 0.25)
                    .with(FaultFamily::SlowRead, 0.2)
                    .with(FaultFamily::CachePoison, 0.25)
                    .with(FaultFamily::OverloadBurst, 0.3)
                    .with(FaultFamily::TornFrame, 0.15)
                    .with(FaultFamily::SlowLoris, 0.1)
                    .with(FaultFamily::Disconnect, 0.1),
            ),
        ]
    }
}

/// Exact record of what an injector did: per-family counts of perturbed
/// items. Integration tests compare these against the pipeline's
/// `DegradationReport`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InjectionLedger {
    /// `(family, items touched)`, in family declaration order, families
    /// with zero touches omitted.
    pub counts: Vec<(FaultFamily, usize)>,
}

impl InjectionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` items perturbed by `family`, with one `Warn` event on
    /// target `faults` and the `faults.injected` counter (no-op when
    /// `n == 0`; the obs half is a no-op outside an `intertubes-obs`
    /// session). Every injector at every surface records through here.
    pub fn record(&mut self, family: FaultFamily, n: usize, detail: &str) {
        use intertubes_obs::{FieldValue, Level};
        if n == 0 {
            return;
        }
        self.add(family, n);
        intertubes_obs::counter("faults.injected", n as u64);
        intertubes_obs::event(
            Level::Warn,
            "faults",
            &format!("injected {} x{n}: {detail}", family.label()),
            &[
                ("family", FieldValue::Str(family.label().to_string())),
                ("count", FieldValue::U64(n as u64)),
            ],
        );
    }

    fn add(&mut self, family: FaultFamily, n: usize) {
        if n == 0 {
            return;
        }
        for entry in &mut self.counts {
            if entry.0 == family {
                entry.1 += n;
                return;
            }
        }
        self.counts.push((family, n));
        self.counts.sort_by_key(|e| e.0);
    }

    /// Items perturbed by `family`.
    pub fn count(&self, family: FaultFamily) -> usize {
        self.counts
            .iter()
            .find(|e| e.0 == family)
            .map_or(0, |e| e.1)
    }

    /// Total perturbed items across all families.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|e| e.1).sum()
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &InjectionLedger) {
        for &(family, n) in &other.counts {
            self.add(family, n);
        }
    }

    /// One-line-per-family rendering for test diagnostics.
    pub fn render(&self) -> String {
        if self.counts.is_empty() {
            return "injection ledger: clean".to_string();
        }
        let mut out = String::from("injection ledger:");
        for &(family, n) in &self.counts {
            out.push_str(&format!("\n  {} x{}", family.label(), n));
        }
        out
    }
}

/// A plan bound to one sequential draw stream per family, plus the
/// ledger its injections are recorded in. Each family's stream is seeded
/// from the plan seed and a per-family constant, so adding one family to
/// a plan never re-randomizes another.
#[derive(Debug, Clone)]
pub struct Injector {
    plan: FaultPlan,
    /// `(rate, stream)` per family, in [`FaultFamily::ALL`] order.
    streams: [(f64, StdRng); FaultFamily::ALL.len()],
    /// Every injection made through this injector.
    pub ledger: InjectionLedger,
}

impl Injector {
    /// Binds `plan`, resolving every family's rate once.
    pub fn new(plan: FaultPlan) -> Injector {
        let streams = FaultFamily::ALL
            .map(|f| (plan.rate(f), StdRng::seed_from_u64(plan.stream_seed(f))));
        Injector {
            plan,
            streams,
            ledger: InjectionLedger::new(),
        }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `family` fires at its next item: a rate-gated draw from
    /// the family's stream. A zero-rate family draws nothing.
    pub fn fires(&mut self, family: FaultFamily) -> bool {
        let (rate, rng) = &mut self.streams[family as usize];
        *rate > 0.0 && rng.gen_bool(*rate)
    }

    /// The family's stream, for the follow-up draws of a fault that fired
    /// (which vertex, which byte, how much to keep).
    pub fn rng(&mut self, family: FaultFamily) -> &mut StdRng {
        &mut self.streams[family as usize].1
    }
}

// ---------------------------------------------------------------------------
// Published-map injectors
// ---------------------------------------------------------------------------

/// Perturbs published ISP maps in place.
///
/// Families applied (each from its own stream, in a fixed order so the
/// result is deterministic): [`FaultFamily::NanCoordinates`],
/// [`FaultFamily::OutOfRangeCoordinates`], [`FaultFamily::StripGeometry`],
/// [`FaultFamily::DuplicateLinks`], [`FaultFamily::DropLinks`].
pub fn inject_published_maps(maps: &mut [PublishedMap], inj: &mut Injector) {
    poison_coordinates(maps, inj, FaultFamily::NanCoordinates);
    poison_coordinates(maps, inj, FaultFamily::OutOfRangeCoordinates);
    strip_geometry(maps, inj);
    duplicate_links(maps, inj);
    drop_links(maps, inj);
}

/// Rewrites one vertex of selected link geometries to an invalid
/// coordinate (NaN or out-of-range, depending on `family`).
fn poison_coordinates(maps: &mut [PublishedMap], inj: &mut Injector, family: FaultFamily) {
    let mut touched = 0;
    for map in maps.iter_mut() {
        for link in &mut map.links {
            let Some(geom) = &link.geometry else { continue };
            if !inj.fires(family) {
                continue;
            }
            let rng = inj.rng(family);
            let mut pts = geom.points().to_vec();
            let idx = rng.gen_range(0..pts.len());
            pts[idx] = match family {
                FaultFamily::NanCoordinates => GeoPoint::new_unchecked(f64::NAN, f64::NAN),
                _ => {
                    // Out of range but finite: latitude beyond the pole,
                    // longitude beyond the date line.
                    let lat = 90.0 + rng.gen_range(5.0f64..400.0);
                    let lon = -(180.0 + rng.gen_range(5.0f64..400.0));
                    GeoPoint::new_unchecked(lat, lon)
                }
            };
            if let Ok(poisoned) = Polyline::new(pts) {
                link.geometry = Some(poisoned);
                touched += 1;
            }
        }
    }
    inj.ledger.record(family, touched, "link vertices poisoned");
}

/// Removes the geometry from selected links of geocoded maps.
fn strip_geometry(maps: &mut [PublishedMap], inj: &mut Injector) {
    let mut touched = 0;
    for map in maps.iter_mut() {
        for link in &mut map.links {
            if link.geometry.is_some() && inj.fires(FaultFamily::StripGeometry) {
                link.geometry = None;
                touched += 1;
            }
        }
    }
    inj.ledger.record(FaultFamily::StripGeometry, touched, "links stripped of geometry");
}

/// Inserts bitwise-identical copies of selected geocoded links.
///
/// Only links *with* geometry are duplicated: an identical copy of a
/// geometry-bearing link is unambiguously redundant (digitization noise
/// makes natural bitwise collisions impossible), so the pipeline can
/// repair these without ever touching legitimate multi-conduit
/// publications in PoP-only maps.
fn duplicate_links(maps: &mut [PublishedMap], inj: &mut Injector) {
    let mut touched = 0;
    for map in maps.iter_mut() {
        let mut copies: Vec<PublishedLink> = Vec::new();
        for link in &map.links {
            if link.geometry.is_some() && inj.fires(FaultFamily::DuplicateLinks) {
                copies.push(link.clone());
            }
        }
        touched += copies.len();
        map.links.extend(copies);
    }
    inj.ledger.record(FaultFamily::DuplicateLinks, touched, "links duplicated");
}

/// Deletes selected links outright (the map is silently incomplete).
fn drop_links(maps: &mut [PublishedMap], inj: &mut Injector) {
    let mut touched = 0;
    for map in maps.iter_mut() {
        map.links.retain(|_| {
            let dropped = inj.fires(FaultFamily::DropLinks);
            touched += usize::from(dropped);
            !dropped
        });
    }
    inj.ledger.record(FaultFamily::DropLinks, touched, "links dropped");
}

// ---------------------------------------------------------------------------
// Records-corpus injectors
// ---------------------------------------------------------------------------

/// Perturbs the public-records corpus, returning a freshly indexed
/// corpus (the inverted index is rebuilt so searches see the perturbed
/// text).
pub fn inject_corpus(corpus: &Corpus, inj: &mut Injector) -> Corpus {
    let mut docs: Vec<Document> = corpus.docs().to_vec();
    corrupt_documents(&mut docs, inj);
    contradict_documents(&mut docs, inj);
    Corpus::from_documents(docs)
}

/// Garbles the city labels (and body text) of selected documents so that
/// no city resolves; the document becomes noise a sanitizer must detect.
fn corrupt_documents(docs: &mut [Document], inj: &mut Injector) {
    let mut touched = 0;
    for doc in docs.iter_mut() {
        if doc.cities.is_empty() || !inj.fires(FaultFamily::CorruptDocuments) {
            continue;
        }
        for city in &mut doc.cities {
            // Replace the "City, ST" label with marker + scrambled text:
            // the marker makes detection exact, the scramble (comma
            // removed) defeats naive label parsing too.
            let scrambled: String = city
                .chars()
                .rev()
                .filter(|c| *c != ',')
                .collect();
            *city = format!("{CORRUPT_MARKER}{scrambled}");
        }
        doc.body = format!("{CORRUPT_MARKER} {}", doc.body);
        touched += 1;
    }
    inj.ledger.record(FaultFamily::CorruptDocuments, touched, "documents garbled");
}

/// Appends documents that contradict an existing right-of-way hint: the
/// new document names the same city pair but claims a different
/// right-of-way type.
fn contradict_documents(docs: &mut Vec<Document>, inj: &mut Injector) {
    let mut added: Vec<Document> = Vec::new();
    let mut next_id = docs.iter().map(|d| d.id.0).max().map_or(0, |m| m + 1);
    for doc in docs.iter() {
        let Some(row) = doc.row else { continue };
        // Never forge from a corrupted document: its city labels are
        // gibberish, and coupling the two families would make the
        // per-family ledger counts ambiguous.
        if doc.cities.len() < 2
            || doc.cities.iter().any(|c| c.starts_with(CORRUPT_MARKER))
            || !inj.fires(FaultFamily::ContradictoryDocuments)
        {
            continue;
        }
        let conflicting = match row {
            RowHint::Road => RowHint::Rail,
            RowHint::Rail => RowHint::Pipeline,
            RowHint::Pipeline => RowHint::Road,
        };
        let mut forged = doc.clone();
        forged.id = intertubes_records::DocId(next_id);
        next_id += 1;
        forged.row = Some(conflicting);
        forged.title = format!("Amendment re {}", doc.title);
        forged.body = format!(
            "{} Corrected filing: the conduit follows a {:?} right-of-way.",
            doc.body, conflicting
        );
        added.push(forged);
    }
    let family = FaultFamily::ContradictoryDocuments;
    inj.ledger.record(family, added.len(), "contradicting documents added");
    docs.extend(added);
}

// ---------------------------------------------------------------------------
// Traceroute-campaign injectors
// ---------------------------------------------------------------------------

/// Perturbs a traceroute campaign in place.
///
/// `city_count` is the size of the world's city table; it bounds valid
/// [`CityId`]s for mis-geolocation and defines "out of range" for endpoint
/// corruption.
pub fn inject_campaign(campaign: &mut Campaign, city_count: usize, inj: &mut Injector) {
    truncate_traces(campaign, inj);
    misgeolocate_hops(campaign, city_count, inj);
    corrupt_trace_endpoints(campaign, city_count, inj);
}

/// Drops the tail of selected traces, as if the probe timed out mid-path.
/// Traces may end up with zero hops; the overlay must tolerate that.
fn truncate_traces(campaign: &mut Campaign, inj: &mut Injector) {
    let family = FaultFamily::TruncateTraces;
    let mut touched = 0;
    for trace in &mut campaign.traces {
        if trace.hops.is_empty() || !inj.fires(family) {
            continue;
        }
        let keep = inj.rng(family).gen_range(0..trace.hops.len());
        trace.hops.truncate(keep);
        touched += 1;
    }
    inj.ledger.record(family, touched, "traces truncated");
}

/// Re-geolocates selected hops to a random *valid but wrong* city: the
/// hardest fault to detect, modeling bad IP-geolocation databases.
fn misgeolocate_hops(campaign: &mut Campaign, city_count: usize, inj: &mut Injector) {
    let family = FaultFamily::MisgeolocateHops;
    if city_count == 0 {
        return;
    }
    let mut touched = 0;
    for trace in &mut campaign.traces {
        for hop in &mut trace.hops {
            let Some(city) = hop.city else { continue };
            if !inj.fires(family) {
                continue;
            }
            let mut wrong = CityId(inj.rng(family).gen_range(0..city_count) as u32);
            if wrong == city {
                wrong = CityId((wrong.0 + 1) % city_count as u32);
            }
            hop.city = Some(wrong);
            touched += 1;
        }
    }
    inj.ledger.record(family, touched, "hops mis-geolocated");
}

/// Sets the `src` or `dst` of selected traces to an out-of-range
/// [`CityId`], modeling a corrupted geolocation feed. Naive array indexing
/// on these panics; the hardened overlay must drop them instead.
fn corrupt_trace_endpoints(campaign: &mut Campaign, city_count: usize, inj: &mut Injector) {
    let family = FaultFamily::CorruptTraceEndpoints;
    let mut touched = 0;
    for trace in &mut campaign.traces {
        if !inj.fires(family) {
            continue;
        }
        let rng = inj.rng(family);
        let bogus = CityId((city_count + rng.gen_range(1..1000usize)) as u32);
        if rng.gen_bool(0.5) {
            trace.src = bogus;
        } else {
            trace.dst = bogus;
        }
        touched += 1;
    }
    inj.ledger.record(family, touched, "trace endpoints corrupted");
}

// ---------------------------------------------------------------------------
// Transport-layer injector
// ---------------------------------------------------------------------------

/// Deletes a `rate` fraction of corridors from a transport layer,
/// rebuilding the graph from the surviving edge set (the corridor graph
/// has no removal API — by design, its normal lifecycle is append-only).
///
/// At moderate rates this disconnects the graph; consumers that assume a
/// connected corridor layer must degrade instead of panic.
pub fn inject_transport(net: &mut TransportNetwork, inj: &mut Injector) {
    let family = FaultFamily::DisconnectTransport;
    if inj.plan().rate(family) <= 0.0 {
        return; // a clean plan leaves the graph as built
    }
    let mut touched = 0;
    let mut rebuilt: MultiGraph<CityId, CorridorEdge> = MultiGraph::new();
    for node in net.graph.node_ids() {
        rebuilt.add_node(*net.graph.node(node));
    }
    for edge in net.graph.edge_ids() {
        if inj.fires(family) {
            touched += 1;
            continue;
        }
        let (a, b) = net.graph.endpoints(edge);
        rebuilt.add_edge(a, b, net.graph.edge(edge).clone());
    }
    net.graph = rebuilt;
    inj.ledger.record(family, touched, "corridors deleted");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_maps() -> Vec<PublishedMap> {
        let geom = |a: (f64, f64), b: (f64, f64)| {
            Polyline::straight(
                GeoPoint::new_unchecked(a.0, a.1),
                GeoPoint::new_unchecked(b.0, b.1),
            )
        };
        vec![PublishedMap {
            isp: "TestNet".to_string(),
            kind: intertubes_atlas::MapKind::Geocoded,
            links: (0..40)
                .map(|i| PublishedLink {
                    a: format!("City{i}, AA"),
                    b: format!("City{}, BB", i + 1),
                    geometry: Some(geom(
                        (30.0 + i as f64 * 0.1, -100.0),
                        (31.0 + i as f64 * 0.1, -99.0),
                    )),
                })
                .collect(),
        }]
    }

    #[test]
    fn plan_json_round_trip() {
        let plan = FaultPlan::new(42)
            .with(FaultFamily::DropLinks, 0.25)
            .with(FaultFamily::CorruptDocuments, 0.1);
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(plan, back);
        assert_eq!(back.rate(FaultFamily::DropLinks), 0.25);
        assert_eq!(back.rate(FaultFamily::NanCoordinates), 0.0);
    }

    #[test]
    fn plan_rate_clamps_and_sums() {
        let plan = FaultPlan::new(1)
            .with(FaultFamily::DropLinks, 0.7)
            .with(FaultFamily::DropLinks, 0.6);
        assert_eq!(plan.rate(FaultFamily::DropLinks), 1.0);
        assert!(FaultPlan::new(1).with(FaultFamily::DropLinks, -1.0).is_empty());
    }

    #[test]
    fn zero_rate_specs_are_no_ops() {
        // Rate exactly 0.0 is a legal spec — a disabled family — and must
        // validate, round-trip, and inject nothing: a zero-rate family
        // never fires and never advances its stream, sequential or keyed.
        let mut plan = FaultPlan::new(7);
        for family in FaultFamily::ALL {
            plan = plan.with(family, 0.0);
        }
        assert!(plan.validate().is_ok(), "zero rates must validate");
        assert!(plan.is_empty(), "all-zero plan perturbs nothing");
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
        let mut inj = Injector::new(plan.clone());
        let fresh = Injector::new(plan.clone());
        for family in FaultFamily::ALL {
            assert!(!inj.fires(family));
            assert!(!plan.fires_at(family, 0, 0));
        }
        assert_eq!(inj.streams, fresh.streams, "a zero-rate family must draw nothing");

        let pristine = sample_maps();
        let mut maps = sample_maps();
        inject_published_maps(&mut maps, &mut inj);
        assert_eq!(
            format!("{maps:?}"),
            format!("{pristine:?}"),
            "zero-rate injection must leave the maps untouched"
        );
        assert_eq!(inj.ledger.total(), 0, "zero-rate injection must log nothing");
    }

    #[test]
    fn keyed_draws_are_seeded_and_rate_bounded() {
        let plan = FaultPlan::new(77)
            .with(FaultFamily::TornFrame, 0.25)
            .with(FaultFamily::Disconnect, 0.1);
        let fired = |plan: &FaultPlan, family| -> Vec<bool> {
            (0..400).map(|i| plan.fires_at(family, i / 40, i)).collect()
        };
        let torn = fired(&plan, FaultFamily::TornFrame);
        assert_eq!(torn, fired(&plan, FaultFamily::TornFrame), "same plan, same draws");
        let n = torn.iter().filter(|f| **f).count();
        assert!(n > 0 && n < 400, "rate 0.25 fired {n} of 400 times");
        // A different seed, or another family, decides differently.
        let reseeded = FaultPlan { seed: 78, ..plan.clone() };
        assert_ne!(torn, fired(&reseeded, FaultFamily::TornFrame));
        let loris = plan.clone().with(FaultFamily::SlowLoris, 0.25);
        assert_ne!(torn, fired(&loris, FaultFamily::SlowLoris));
        assert!(!fired(&plan, FaultFamily::SlowLoris).contains(&true));
    }

    #[test]
    fn map_injection_is_deterministic_and_counted() {
        let plan = FaultPlan::new(9)
            .with(FaultFamily::NanCoordinates, 0.3)
            .with(FaultFamily::DropLinks, 0.3)
            .with(FaultFamily::DuplicateLinks, 0.3)
            .with(FaultFamily::StripGeometry, 0.3);
        let mut a = sample_maps();
        let mut b = sample_maps();
        let (mut ia, mut ib) = (Injector::new(plan.clone()), Injector::new(plan));
        inject_published_maps(&mut a, &mut ia);
        inject_published_maps(&mut b, &mut ib);
        // Debug-compare: PartialEq would report NaN vertices as unequal.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(ia.ledger, ib.ledger);
        assert!(ia.ledger.total() > 0);
    }

    #[test]
    fn single_family_counts_are_exact() {
        // Counting by inspection only works one family at a time: composed
        // families may drop or strip a link another family just poisoned.
        let mut maps = sample_maps();
        let mut inj = Injector::new(FaultPlan::new(9).with(FaultFamily::NanCoordinates, 0.3));
        inject_published_maps(&mut maps, &mut inj);
        let nan_links = maps[0]
            .links
            .iter()
            .filter(|l| {
                l.geometry
                    .as_ref()
                    .is_some_and(|g| g.points().iter().any(|p| p.lat.is_nan()))
            })
            .count();
        assert!(nan_links > 0);
        assert_eq!(nan_links, inj.ledger.count(FaultFamily::NanCoordinates));

        let mut maps = sample_maps();
        let mut inj = Injector::new(FaultPlan::new(9).with(FaultFamily::StripGeometry, 0.3));
        inject_published_maps(&mut maps, &mut inj);
        let stripped = maps[0].links.iter().filter(|l| l.geometry.is_none()).count();
        assert!(stripped > 0);
        assert_eq!(stripped, inj.ledger.count(FaultFamily::StripGeometry));
    }

    #[test]
    fn drop_and_duplicate_change_link_count_consistently() {
        let plan = FaultPlan::new(5)
            .with(FaultFamily::DropLinks, 0.4)
            .with(FaultFamily::DuplicateLinks, 0.4);
        let mut maps = sample_maps();
        let before = maps[0].links.len();
        let mut inj = Injector::new(plan);
        inject_published_maps(&mut maps, &mut inj);
        let (after, ledger) = (maps[0].links.len(), inj.ledger);
        assert_eq!(
            after,
            before + ledger.count(FaultFamily::DuplicateLinks)
                - ledger.count(FaultFamily::DropLinks)
        );
    }

    #[test]
    fn zero_rate_plans_touch_nothing() {
        let mut maps = sample_maps();
        let pristine = maps.clone();
        let mut inj = Injector::new(FaultPlan::new(3));
        inject_published_maps(&mut maps, &mut inj);
        assert_eq!(maps, pristine);
        assert_eq!(inj.ledger.total(), 0);
        assert!(inj.ledger.render().contains("clean"));
    }

    #[test]
    fn corrupt_documents_are_marked_and_counted() {
        let docs: Vec<Document> = (0..30)
            .map(|i| Document {
                id: intertubes_records::DocId(i),
                kind: intertubes_records::DocKind::FranchiseAgreement,
                title: format!("Agreement {i}"),
                body: "conduit between the cities".to_string(),
                cities: vec!["Madison, WI".to_string(), "Chicago, IL".to_string()],
                isps: vec!["TestNet".to_string()],
                row: Some(RowHint::Road),
            })
            .collect();
        let corpus = Corpus::from_documents(docs);
        let plan = FaultPlan::new(11)
            .with(FaultFamily::CorruptDocuments, 0.3)
            .with(FaultFamily::ContradictoryDocuments, 0.3);
        let mut inj = Injector::new(plan);
        let faulted = inject_corpus(&corpus, &mut inj);
        let ledger = inj.ledger;
        let marked = faulted
            .docs()
            .iter()
            .filter(|d| d.cities.iter().any(|c| c.starts_with(CORRUPT_MARKER)))
            .count();
        assert_eq!(marked, ledger.count(FaultFamily::CorruptDocuments));
        assert_eq!(
            faulted.docs().len(),
            corpus.docs().len() + ledger.count(FaultFamily::ContradictoryDocuments)
        );
        assert!(ledger.count(FaultFamily::ContradictoryDocuments) > 0);
        // Forged documents claim a different right-of-way than the original.
        let originals_rail = faulted
            .docs()
            .iter()
            .filter(|d| d.row == Some(RowHint::Rail))
            .count();
        assert_eq!(originals_rail, ledger.count(FaultFamily::ContradictoryDocuments));
    }

    #[test]
    fn transport_injection_reduces_edges_preserves_nodes() {
        use intertubes_atlas::World;
        let world = World::reference();
        let mut roads = world.roads.clone();
        let nodes_before = roads.graph.node_count();
        let edges_before = roads.graph.edge_count();
        let plan = FaultPlan::new(7).with(FaultFamily::DisconnectTransport, 0.5);
        let mut inj = Injector::new(plan);
        inject_transport(&mut roads, &mut inj);
        let ledger = inj.ledger;
        assert_eq!(roads.graph.node_count(), nodes_before);
        assert_eq!(
            roads.graph.edge_count(),
            edges_before - ledger.count(FaultFamily::DisconnectTransport)
        );
        assert!(ledger.count(FaultFamily::DisconnectTransport) > 0);
    }

    #[test]
    fn built_in_scenarios_parse_and_cover_all_families() {
        let scenarios = FaultPlan::built_in_scenarios();
        let chaos = FaultPlan::built_in_chaos_scenarios();
        assert!(scenarios.iter().any(|(n, _)| *n == "clean"));
        let find = |list: &[(&str, FaultPlan)], name: &str| -> FaultPlan {
            list.iter().find(|(n, _)| *n == name).unwrap().1.clone()
        };
        let everything = find(&scenarios, "everything");
        let chaos_everything = find(&chaos, "chaos-everything");
        // Every family is exercised by exactly one of the two
        // compositions: input families by `everything`, runtime ones by
        // `chaos-everything`.
        for (i, family) in FaultFamily::ALL.into_iter().enumerate() {
            // `Injector` indexes its streams by discriminant.
            assert_eq!(family as usize, i, "ALL must list families in declaration order");
            let input = everything.rate(family) > 0.0;
            let runtime = chaos_everything.rate(family) > 0.0;
            assert!(input != runtime, "{family}: input {input}, runtime {runtime}");
        }
        for (_, plan) in scenarios.iter().chain(chaos.iter()) {
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(*plan, back);
        }
    }

    #[test]
    fn from_json_rejects_nan_and_negative_rates() {
        let nan = r#"{"seed": 1, "faults": [{"family": "DropLinks", "rate": nan}]}"#;
        assert!(matches!(
            FaultPlan::from_json(nan),
            Err(FaultPlanError::Parse(_))
        ));
        let negative = r#"{"seed": 1, "faults": [{"family": "DropLinks", "rate": -0.5}]}"#;
        match FaultPlan::from_json(negative) {
            Err(FaultPlanError::InvalidRate { family, rate }) => {
                assert_eq!(family, FaultFamily::DropLinks);
                assert_eq!(rate, -0.5);
            }
            other => panic!("expected InvalidRate, got {other:?}"),
        }
        // NaN constructed via the builder is caught by validate(), and its
        // to_json form (null rate) is rejected at parse time.
        let built = FaultPlan::new(1).with(FaultFamily::DropLinks, f64::NAN);
        assert!(matches!(
            built.validate(),
            Err(FaultPlanError::InvalidRate { .. })
        ));
        assert!(FaultPlan::from_json(&built.to_json()).is_err());
        // Rates above 1.0 stay legal: rate() clamps them.
        let hot = r#"{"seed": 1, "faults": [{"family": "DropLinks", "rate": 2.5}]}"#;
        let plan = FaultPlan::from_json(hot).unwrap();
        assert_eq!(plan.rate(FaultFamily::DropLinks), 1.0);
    }

    #[test]
    fn sectioned_specs_round_trip_and_old_json_still_parses() {
        let plan = FaultPlan::new(7).with_section(
            FaultFamily::SnapshotBitFlip,
            0.5,
            SnapshotSection::Landmarks,
        );
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
        assert_eq!(
            back.section_for(FaultFamily::SnapshotBitFlip),
            Some(SnapshotSection::Landmarks)
        );
        // A pre-runtime plan file (no "section" key anywhere) still parses,
        // with section defaulting to None.
        let old = r#"{"seed": 3, "faults": [{"family": "TransientIo", "rate": 0.25}]}"#;
        let plan = FaultPlan::from_json(old).unwrap();
        assert_eq!(plan.section_for(FaultFamily::TransientIo), None);
        assert_eq!(plan.rate(FaultFamily::TransientIo), 0.25);
    }
}
