//! Corpus generation and keyword search.
//!
//! The generator plays the role of the world's paper trail: for each
//! ground-truth conduit it emits, with configurable probability, one or more
//! public records naming the endpoints, a subset of the tenants, and
//! (sometimes) the right-of-way. It also emits *noise*: records about
//! unrelated city pairs or mis-attributed providers, so the inference stage
//! has to do real work. Coverage < 1 models the paper's admission that "the
//! constructed map is not complete".

use std::collections::HashMap;

use intertubes_atlas::{RowType, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::document::{DocId, DocKind, Document, RowHint};

/// Corpus generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Probability that a conduit has at least one record about it.
    pub conduit_coverage: f64,
    /// Probability that a given tenant is named in a record about its
    /// conduit (per record).
    pub tenant_mention_rate: f64,
    /// Probability a record carries a right-of-way hint.
    pub row_hint_rate: f64,
    /// Number of pure-noise records per 100 genuine ones.
    pub noise_per_100: usize,
    /// Probability that a genuine record names one *extra* provider that is
    /// not actually in the conduit (mis-attribution noise).
    pub misattribution_rate: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            conduit_coverage: 0.92,
            tenant_mention_rate: 0.55,
            row_hint_rate: 0.6,
            noise_per_100: 6,
            misattribution_rate: 0.03,
        }
    }
}

/// A searchable collection of public records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    docs: Vec<Document>,
    /// Exact city label → ids of the documents naming it, in corpus order.
    by_city: HashMap<String, Vec<DocId>>,
}

impl Corpus {
    /// Builds a corpus (and its city index) from finished documents.
    pub fn from_documents(docs: Vec<Document>) -> Corpus {
        let mut by_city: HashMap<String, Vec<DocId>> = HashMap::new();
        for d in &docs {
            for c in &d.cities {
                let ids = by_city.entry(c.clone()).or_default();
                if ids.last() != Some(&d.id) {
                    ids.push(d.id);
                }
            }
        }
        Corpus { docs, by_city }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Looks up a record.
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// All records.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// Keyword search in the spirit of the paper's
    /// `"los angeles to san francisco fiber iru at&t sprint"` queries:
    /// records matching the most query tokens first; records matching fewer
    /// than `min_hits` tokens (or none) are dropped. Each query token, repeats
    /// included, that a record's text holds scores one hit.
    pub fn search(&self, query: &str, min_hits: usize) -> Vec<DocId> {
        let query = tokenize(query);
        let mut hits: Vec<(DocId, usize)> = Vec::new();
        for d in &self.docs {
            let text: [&str; 4] = [&d.title, &d.body, &d.cities.join(" "), &d.isps.join(" ")];
            let tokens = tokenize(&text.join(" "));
            let score = query.iter().filter(|t| tokens.contains(t)).count();
            if score > 0 && score >= min_hits {
                hits.push((d.id, score));
            }
        }
        hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.into_iter().map(|(id, _)| id).collect()
    }

    /// All records naming both cities (the work-horse lookup of steps 2/4),
    /// in corpus order. A label with no search token (see [`tokenize`])
    /// finds nothing.
    pub fn records_for_pair(&self, a: &str, b: &str) -> Vec<DocId> {
        if tokenize(a).is_empty() {
            return Vec::new();
        }
        let candidates = self.by_city.get(a).map_or(&[][..], Vec::as_slice);
        candidates
            .iter()
            .copied()
            .filter(|id| self.doc(*id).mentions_pair(a, b))
            .collect()
    }
}

/// Lowercase alphanumeric tokens of length ≥ 2, plus provider-style tokens
/// with `&` (so "AT&T" survives tokenization).
pub fn tokenize(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !(c.is_alphanumeric() || c == '&'))
        .filter(|t| t.len() >= 2)
        .map(|t| t.to_string())
        .collect()
}

fn title_for(kind: DocKind, a: &str, b: &str) -> String {
    match kind {
        DocKind::AgencyFiling => format!("Public utilities filing: {a} to {b} fiber route"),
        DocKind::EnvironmentalImpact => {
            format!("Final environmental impact statement, {a} – {b} corridor")
        }
        DocKind::FranchiseAgreement => format!("Franchise agreement, {a} metropolitan area"),
        DocKind::IruAgreement => format!("Indefeasible right of use: {a} / {b} segment"),
        DocKind::PressRelease => format!("Carrier extends national footprint between {a} and {b}"),
        DocKind::SettlementNotice => {
            format!("Railroad right-of-way settlement notice: {a} to {b}")
        }
        DocKind::RowFiling => format!("DOT right-of-way permit: {a} – {b}"),
        DocKind::ProjectPlan => format!("Design services project plan, {a} to {b} parkway"),
    }
}

fn body_for(kind: DocKind, isps: &[String], row: Option<RowHint>) -> String {
    let who = isps.join(", ");
    let row_txt = match row {
        Some(RowHint::Road) => " The conduit is buried in the highway right of way.",
        Some(RowHint::Rail) => " The facilities occupy the railroad right of way.",
        Some(RowHint::Pipeline) => " The route parallels an existing products pipeline.",
        None => "",
    };
    format!(
        "This {} documents telecommunications facilities including fiber optic \
         cables installed by {who}.{row_txt}",
        kind.label()
    )
}

/// Generates the public-record corpus for a world.
///
/// Deterministic given the world seed and config. The corpus references only
/// city labels and provider names — never ground-truth identifiers — so the
/// map-construction pipeline cannot cheat.
pub fn generate_corpus(world: &World, cfg: &CorpusConfig) -> Corpus {
    let mut span = intertubes_obs::stage("corpus.generate");
    let mut rng = StdRng::seed_from_u64(world.config.seed ^ 0x5eed_0c0de);
    let mut docs: Vec<Document> = Vec::new();
    let push = |docs: &mut Vec<Document>, kind, a: String, b: String, isps: Vec<String>, row| {
        let id = DocId(docs.len() as u32);
        docs.push(Document {
            id,
            kind,
            title: title_for(kind, &a, &b),
            body: body_for(kind, &isps, row),
            cities: vec![a, b],
            isps,
            row,
        });
    };

    // Tenants per conduit (all providers, including unpublished ones — a
    // settlement notice does not care whether the carrier publishes a map).
    let n_conduits = world.system.conduits.len();
    let mut tenants: Vec<Vec<usize>> = vec![Vec::new(); n_conduits];
    for (i, fp) in world.footprints.iter().enumerate() {
        for c in &fp.conduits {
            tenants[c.index()].push(i);
        }
    }

    for (ci, conduit) in world.system.conduits.iter().enumerate() {
        if !rng.gen_bool(cfg.conduit_coverage) {
            continue;
        }
        let a = world.city_label(conduit.a);
        let b = world.city_label(conduit.b);
        let n_docs = 1 + rng.gen_range(0..3);
        for _ in 0..n_docs {
            let kind = DocKind::ALL[rng.gen_range(0..DocKind::ALL.len())];
            let mut named: Vec<String> = tenants[ci]
                .iter()
                .filter(|_| rng.gen_bool(cfg.tenant_mention_rate))
                .map(|&i| world.roster[i].name.clone())
                .collect();
            if named.is_empty() {
                // A record always names at least one carrier.
                if let Some(&i) = tenants[ci].first() {
                    named.push(world.roster[i].name.clone());
                }
            }
            if rng.gen_bool(cfg.misattribution_rate) {
                let wrong = rng.gen_range(0..world.roster.len());
                let name = world.roster[wrong].name.clone();
                if !named.contains(&name) {
                    named.push(name);
                }
            }
            let row = if rng.gen_bool(cfg.row_hint_rate) {
                match conduit.row {
                    RowType::Road => Some(RowHint::Road),
                    RowType::Rail => Some(RowHint::Rail),
                    RowType::Pipeline => Some(RowHint::Pipeline),
                    RowType::Unknown => None,
                }
            } else {
                None
            };
            push(&mut docs, kind, a.clone(), b.clone(), named, row);
        }
    }

    // Noise: records about city pairs with no conduit at all.
    let n_noise = docs.len() * cfg.noise_per_100 / 100;
    for _ in 0..n_noise {
        let a = rng.gen_range(0..world.cities.len());
        let b = rng.gen_range(0..world.cities.len());
        if a == b {
            continue;
        }
        let kind = DocKind::ALL[rng.gen_range(0..DocKind::ALL.len())];
        let isp = world.roster[rng.gen_range(0..world.roster.len())]
            .name
            .clone();
        push(
            &mut docs,
            kind,
            world.cities[a].label(),
            world.cities[b].label(),
            vec![isp],
            None,
        );
    }

    span.items("documents", docs.len());
    Corpus::from_documents(docs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> (World, Corpus) {
        let w = World::reference();
        let c = generate_corpus(&w, &CorpusConfig::default());
        (w, c)
    }

    #[test]
    fn corpus_has_hundreds_of_records() {
        let (_, c) = corpus();
        // The paper mined "hundreds of relevant documents".
        assert!(c.len() > 500, "only {} records", c.len());
        assert!(!c.is_empty());
    }

    #[test]
    fn search_finds_pair_and_isp() {
        let (w, c) = corpus();
        // Find a genuine conduit + a tenant to search for.
        let fp = &w.footprints[0]; // AT&T
        let cid = fp.conduits[fp.conduits.len() / 2];
        let conduit = w.system.conduit(cid);
        let (a, b) = (w.city_label(conduit.a), w.city_label(conduit.b));
        let hits = c.search(&format!("{a} {b} fiber iru AT&T"), 3);
        // Coverage is 92 %, so most conduits have records; this one may
        // genuinely be missing, but search must at least not error and must
        // rank pair-matching docs first when present.
        if let Some(first) = hits.first() {
            let d = c.doc(*first);
            let names_city = d.cities.iter().any(|x| *x == a) || d.cities.iter().any(|x| *x == b);
            assert!(names_city, "top hit unrelated to query: {:?}", d.title);
        }
    }

    #[test]
    fn records_for_pair_is_symmetric() {
        let (w, c) = corpus();
        let conduit = &w.system.conduits[0];
        let (a, b) = (w.city_label(conduit.a), w.city_label(conduit.b));
        let ab = c.records_for_pair(&a, &b);
        let ba = c.records_for_pair(&b, &a);
        assert_eq!(ab.len(), ba.len());
    }

    #[test]
    fn most_conduits_have_records() {
        let (w, c) = corpus();
        let covered = w
            .system
            .conduits
            .iter()
            .filter(|cd| {
                !c.records_for_pair(&w.city_label(cd.a), &w.city_label(cd.b))
                    .is_empty()
            })
            .count();
        let frac = covered as f64 / w.system.conduits.len() as f64;
        assert!(frac > 0.85, "coverage {frac}");
        assert!(frac < 1.0, "perfect coverage is unrealistic");
    }

    #[test]
    fn tokenizer_keeps_ampersand_names() {
        let toks = tokenize("AT&T and Sprint share the Dallas, TX conduit");
        assert!(toks.contains(&"at&t".to_string()));
        assert!(toks.contains(&"dallas".to_string()));
        assert!(toks.contains(&"tx".to_string()));
        assert!(!toks.contains(&"a".to_string()), "1-char tokens dropped");
    }

    #[test]
    fn deterministic() {
        let w = World::reference();
        let a = generate_corpus(&w, &CorpusConfig::default());
        let b = generate_corpus(&w, &CorpusConfig::default());
        assert_eq!(a.docs(), b.docs());
    }

    #[test]
    fn row_hints_mostly_match_ground_truth() {
        let (w, c) = corpus();
        let mut agree = 0usize;
        let mut with_hint = 0usize;
        for d in c.docs() {
            let Some(hint) = d.row else { continue };
            // Find the ground-truth conduit for this pair, if any.
            let truth = w
                .system
                .conduits
                .iter()
                .find(|cd| d.mentions_pair(&w.city_label(cd.a), &w.city_label(cd.b)));
            if let Some(t) = truth {
                with_hint += 1;
                let matches = matches!(
                    (hint, t.row),
                    (RowHint::Road, RowType::Road)
                        | (RowHint::Rail, RowType::Rail)
                        | (RowHint::Pipeline, RowType::Pipeline)
                );
                agree += matches as usize;
            }
        }
        assert!(with_hint > 100);
        // Parallel conduits between the same pair can make hints ambiguous,
        // so agreement is high but not perfect.
        assert!(agree as f64 / with_hint as f64 > 0.8);
    }
}
