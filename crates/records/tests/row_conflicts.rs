//! `count_row_conflicts` against the pairwise scan it replaced: every
//! document compared with every earlier one, on the reference corpus, its
//! record-faulting scenarios and random corpora dense in collisions.

use intertubes_atlas::World;
use intertubes_faults::{inject_corpus, FaultPlan, Injector};
use intertubes_records::{
    count_row_conflicts, generate_corpus, CorpusConfig, DocId, DocKind, Document, RowHint,
};
use proptest::prelude::*;

/// The quadratic count: a later document with a right-of-way claim is a
/// conflict when some earlier document names the same sorted city pair
/// and the same provider list with a different claim.
fn pairwise_row_conflicts(docs: &[Document]) -> usize {
    let pair_of = |doc: &Document| {
        let a = doc.cities.first()?.clone();
        let b = doc.cities.get(1)?.clone();
        Some(if a <= b { (a, b) } else { (b, a) })
    };
    let mut conflicts = 0usize;
    for (j, later) in docs.iter().enumerate() {
        let Some(row_j) = later.row else { continue };
        let Some(pair_j) = pair_of(later) else {
            continue;
        };
        let disputed = docs[..j].iter().any(|earlier| {
            earlier.row.is_some_and(|r| r != row_j)
                && earlier.isps == later.isps
                && pair_of(earlier).as_ref() == Some(&pair_j)
        });
        conflicts += disputed as usize;
    }
    conflicts
}

#[test]
fn matches_the_pairwise_scan_on_the_reference_and_faulted_corpora() {
    let world = World::reference();
    let corpus = generate_corpus(&world, &CorpusConfig::default());
    assert_eq!(
        count_row_conflicts(corpus.docs()),
        pairwise_row_conflicts(corpus.docs()),
        "reference"
    );
    let scenarios = FaultPlan::built_in_scenarios();
    for name in ["dirty-records", "everything"] {
        let Some((_, plan)) = scenarios.iter().find(|(n, _)| *n == name) else {
            panic!("no built-in scenario {name}");
        };
        let faulted = inject_corpus(&corpus, &mut Injector::new(plan.clone()));
        let want = pairwise_row_conflicts(faulted.docs());
        assert!(want > 0, "{name}: no conflict to count");
        assert_eq!(count_row_conflicts(faulted.docs()), want, "{name}");
    }
}

/// Documents over three cities, three provider lists (two of them the
/// same names in another order) and every claim, so groups collide
/// often; some name fewer than two cities.
fn arb_docs() -> impl Strategy<Value = Vec<Document>> {
    let city = prop::sample::select(vec!["Dallas, TX", "Waco, TX", "Austin, TX"]);
    let isps = prop::sample::select(vec![
        vec!["Zayo"],
        vec!["AT&T", "Zayo"],
        vec!["Zayo", "AT&T"],
    ]);
    let row = prop::sample::select(vec![
        None,
        Some(RowHint::Road),
        Some(RowHint::Rail),
        Some(RowHint::Pipeline),
    ]);
    let doc = (prop::collection::vec(city, 0..4), isps, row);
    prop::collection::vec(doc, 0..60).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (cities, isps, row))| Document {
                id: DocId(i as u32),
                kind: DocKind::IruAgreement,
                title: format!("record {i}"),
                body: String::new(),
                cities: cities.into_iter().map(str::to_string).collect(),
                isps: isps.into_iter().map(str::to_string).collect(),
                row,
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn matches_the_pairwise_scan_on_random_corpora(docs in arb_docs()) {
        prop_assert_eq!(count_row_conflicts(&docs), pairwise_row_conflicts(&docs));
    }
}
