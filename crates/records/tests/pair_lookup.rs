//! `Corpus::records_for_pair` against the lookup it replaced: an inverted
//! index of every record's lowercase title, body, city and provider
//! tokens, narrowed by the first token of the first label and then
//! filtered to the records naming both labels.

use std::collections::HashMap;

use intertubes_atlas::World;
use intertubes_faults::{inject_corpus, FaultFamily, FaultPlan, Injector};
use intertubes_map::{build_map, PipelineConfig};
use intertubes_records::{
    generate_corpus, sanitize_corpus, tokenize, Corpus, CorpusConfig, DocId, DocKind, Document,
};

/// The token-index lookup, built once per corpus.
struct TokenIndex {
    index: HashMap<String, Vec<DocId>>,
}

impl TokenIndex {
    fn new(corpus: &Corpus) -> TokenIndex {
        let mut index: HashMap<String, Vec<DocId>> = HashMap::new();
        for d in corpus.docs() {
            let mut text = String::new();
            text.push_str(&d.title);
            text.push(' ');
            text.push_str(&d.body);
            for c in &d.cities {
                text.push(' ');
                text.push_str(c);
            }
            for i in &d.isps {
                text.push(' ');
                text.push_str(i);
            }
            let mut tokens = tokenize(&text);
            tokens.sort_unstable();
            tokens.dedup();
            for t in tokens {
                index.entry(t).or_default().push(d.id);
            }
        }
        TokenIndex { index }
    }

    fn records_for_pair(&self, corpus: &Corpus, a: &str, b: &str) -> Vec<DocId> {
        let candidates: Vec<DocId> = tokenize(a)
            .first()
            .and_then(|t| self.index.get(t))
            .cloned()
            .unwrap_or_default();
        candidates
            .into_iter()
            .filter(|id| corpus.doc(*id).mentions_pair(a, b))
            .collect()
    }
}

/// Checks every ordered pair of `labels`, and each record's own city
/// pair both ways round, against the token index.
fn assert_matches_oracle(corpus: &Corpus, labels: &[String], what: &str) {
    let oracle = TokenIndex::new(corpus);
    let mut hits = 0;
    for a in labels {
        for b in labels {
            let want = oracle.records_for_pair(corpus, a, b);
            assert_eq!(corpus.records_for_pair(a, b), want, "{what}: {a:?} / {b:?}");
            hits += want.len();
        }
    }
    for d in corpus.docs() {
        for (a, b) in d.cities.iter().zip(d.cities.iter().skip(1)) {
            for (a, b) in [(a, b), (b, a)] {
                let want = oracle.records_for_pair(corpus, a, b);
                assert_eq!(corpus.records_for_pair(a, b), want, "{what}: {a:?} / {b:?}");
            }
        }
    }
    assert!(hits > 0, "{what}: no pair found any record");
}

/// The reference world's clean corpus and the labels of its built map.
fn reference() -> (World, Corpus, Vec<String>) {
    let world = World::reference();
    let corpus = generate_corpus(&world, &CorpusConfig::default());
    let built = build_map(
        &world.publish_maps(),
        &corpus,
        &world.cities,
        &world.roads,
        &world.rails,
        &PipelineConfig::default(),
    );
    let labels = built.map.nodes.iter().map(|n| n.label.clone()).collect();
    (world, corpus, labels)
}

#[test]
fn city_index_matches_the_token_index_on_every_map_node_pair() {
    let (_, corpus, labels) = reference();
    assert_matches_oracle(&corpus, &labels, "reference");
    let (sanitized, _) =
        sanitize_corpus(&corpus, intertubes_degrade::DegradationPolicy::Lenient).unwrap();
    assert_matches_oracle(&sanitized, &labels, "reference, sanitized");
}

#[test]
fn city_index_matches_the_token_index_on_label_corrupting_scenarios() {
    let (_, corpus, labels) = reference();
    let mut checked = 0;
    for (name, plan) in FaultPlan::built_in_scenarios() {
        if plan.rate(FaultFamily::CorruptDocuments) == 0.0 {
            continue;
        }
        let faulted = inject_corpus(&corpus, &mut Injector::new(plan));
        assert!(
            faulted
                .docs()
                .iter()
                .any(|d| d.cities.iter().any(|c| !labels.contains(c))),
            "{name}: no label was corrupted"
        );
        assert_matches_oracle(&faulted, &labels, name);
        checked += 1;
    }
    assert!(checked >= 2, "only {checked} label-corrupting scenarios");
}

#[test]
fn labels_without_a_token_find_nothing() {
    let doc = |id: u32, a: &str, b: &str| Document {
        id: DocId(id),
        kind: DocKind::IruAgreement,
        title: format!("record {id}"),
        body: "fiber".to_string(),
        cities: vec![a.to_string(), b.to_string()],
        isps: vec!["Zayo".to_string()],
        row: None,
    };
    let corpus = Corpus::from_documents(vec![
        doc(0, "x", "Dallas, TX"),
        doc(1, "", "Dallas, TX"),
        doc(2, "--", "Dallas, TX"),
        doc(3, "Dallas, TX", "Dallas, TX"),
    ]);
    for a in ["x", "", "--"] {
        assert!(corpus.records_for_pair(a, "Dallas, TX").is_empty(), "{a:?}");
    }
    assert_eq!(corpus.records_for_pair("Dallas, TX", "x"), [DocId(0)]);
    let labels: Vec<String> = ["x", "", "--", "Dallas, TX", "Austin, TX"]
        .map(str::to_string)
        .to_vec();
    assert_matches_oracle(&corpus, &labels, "tokenless labels");
}
