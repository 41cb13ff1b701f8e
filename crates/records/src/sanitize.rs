//! Corpus sanitization: the graceful-degradation front door of the
//! records layer.
//!
//! Real public-records corpora are dirty — OCR garbage, misfiled
//! amendments contradicting earlier filings. The paper's methodology
//! quietly absorbs this by majority-voting evidence; this module makes the
//! absorption explicit and *counted*: [`sanitize_corpus`] drops documents
//! whose city labels cannot resolve, flags contradictory right-of-way
//! claims, and reports exactly what it did.

use std::collections::HashMap;

use intertubes_degrade::{DegradationAction, DegradationPolicy, DegradationReport};

use crate::corpus::Corpus;
use crate::document::{Document, RowHint};
use crate::RecordsError;

/// Whether a city label is structurally resolvable: generated labels are
/// always `"City, ST"`, so a missing separator or a replacement character
/// marks OCR-grade corruption.
fn label_is_corrupt(label: &str) -> bool {
    label.contains('\u{FFFD}') || !label.contains(", ") || label.trim().is_empty()
}

/// Whether `doc` carries at least one corrupt city label.
pub fn document_is_corrupt(doc: &Document) -> bool {
    doc.cities.iter().any(|c| label_is_corrupt(c))
}

/// The document's first two city labels, in ascending order.
fn pair_of(doc: &Document) -> Option<(&str, &str)> {
    let a = doc.cities.first()?;
    let b = doc.cities.get(1)?;
    Some(if a <= b { (a, b) } else { (b, a) })
}

/// Counts "amendment conflicts": a later document naming the same city
/// pair with the same provider list but a *different* right-of-way claim
/// than an earlier one. Each conflicting later document counts once.
///
/// These documents are kept — evidence accumulation already resolves
/// contradictions by majority vote — but they are surfaced as
/// `Unvalidated` so the report quantifies how much of the row evidence is
/// disputed.
///
/// One pass: the distinct claims seen so far are kept per (city pair,
/// provider list), so each document is checked against its own group
/// rather than against every earlier document.
pub fn count_row_conflicts(docs: &[Document]) -> usize {
    let mut claims: HashMap<(&str, &str, &[String]), Vec<RowHint>> = HashMap::new();
    let mut conflicts = 0usize;
    for doc in docs {
        let (Some(row), Some((a, b))) = (doc.row, pair_of(doc)) else {
            continue;
        };
        let seen = claims.entry((a, b, &doc.isps)).or_default();
        conflicts += seen.iter().any(|&r| r != row) as usize;
        if !seen.contains(&row) {
            seen.push(row);
        }
    }
    conflicts
}

/// Sanitizes a corpus under the given policy.
///
/// * Corrupt documents (unresolvable city labels): `Strict` fails with
///   [`RecordsError::CorruptDocument`]; `Lenient` drops them (action
///   `Dropped`, reason `"corrupt-city-label"`).
/// * Contradictory right-of-way claims: counted and reported (action
///   `Unvalidated`, reason `"contradictory-row-claim"`) under both
///   policies; the documents are kept because majority voting downstream
///   already resolves them.
///
/// On a clean corpus the returned corpus is the input, bit for bit, and
/// the report is empty.
pub fn sanitize_corpus(
    corpus: &Corpus,
    policy: DegradationPolicy,
) -> Result<(Corpus, DegradationReport), RecordsError> {
    let mut span = intertubes_obs::stage("records.sanitize");
    span.items("documents_in", corpus.len());
    let mut report = DegradationReport::new();
    let corrupt = corpus
        .docs()
        .iter()
        .filter(|d| document_is_corrupt(d))
        .count();
    if corrupt > 0 && policy.is_strict() {
        span.failed();
        // Surface the first offender for the error message.
        let doc = corpus
            .docs()
            .iter()
            .find(|d| document_is_corrupt(d))
            .map(|d| d.id.0)
            .unwrap_or(0);
        return Err(RecordsError::CorruptDocument { id: doc });
    }

    let clean: Corpus = if corrupt > 0 {
        report.note(
            "records.sanitize",
            DegradationAction::Dropped,
            "corrupt-city-label",
            corrupt,
        );
        // Renumber after filtering: `Corpus::doc` resolves ids positionally,
        // so surviving documents must stay contiguous from zero.
        let mut survivors: Vec<Document> = corpus
            .docs()
            .iter()
            .filter(|d| !document_is_corrupt(d))
            .cloned()
            .collect();
        for (i, d) in survivors.iter_mut().enumerate() {
            d.id = crate::document::DocId(i as u32);
        }
        Corpus::from_documents(survivors)
    } else {
        corpus.clone()
    };

    let conflicts = count_row_conflicts(clean.docs());
    report.note(
        "records.sanitize",
        DegradationAction::Unvalidated,
        "contradictory-row-claim",
        conflicts,
    );
    span.items("documents_out", clean.len());
    if !report.is_clean() {
        span.degraded();
    }
    Ok((clean, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{DocId, DocKind, RowHint};

    fn doc(id: u32, cities: [&str; 2], isps: &[&str], row: Option<RowHint>) -> Document {
        Document {
            id: DocId(id),
            kind: DocKind::IruAgreement,
            title: format!("doc {id}"),
            body: "conduit".to_string(),
            cities: cities.iter().map(|s| s.to_string()).collect(),
            isps: isps.iter().map(|s| s.to_string()).collect(),
            row,
        }
    }

    #[test]
    fn clean_corpus_passes_untouched() {
        let c = Corpus::from_documents(vec![
            doc(
                0,
                ["Dallas, TX", "Houston, TX"],
                &["AT&T"],
                Some(RowHint::Rail),
            ),
            doc(
                1,
                ["Dallas, TX", "Houston, TX"],
                &["AT&T"],
                Some(RowHint::Rail),
            ),
        ]);
        let (out, report) = sanitize_corpus(&c, DegradationPolicy::Lenient).unwrap();
        assert!(report.is_clean());
        assert_eq!(out.len(), c.len());
        sanitize_corpus(&c, DegradationPolicy::Strict).unwrap();
    }

    #[test]
    fn corrupt_documents_drop_in_lenient_fail_in_strict() {
        let c = Corpus::from_documents(vec![
            doc(0, ["Dallas, TX", "Houston, TX"], &["AT&T"], None),
            doc(1, ["\u{FFFD}XTsallaD", "Houston, TX"], &["AT&T"], None),
            doc(2, ["no-separator", "Houston, TX"], &[], None),
        ]);
        let (out, report) = sanitize_corpus(&c, DegradationPolicy::Lenient).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(report.total(DegradationAction::Dropped), 2);
        assert_eq!(report.total_for_reason("corrupt-city-label"), 2);
        let err = sanitize_corpus(&c, DegradationPolicy::Strict).unwrap_err();
        assert!(matches!(err, RecordsError::CorruptDocument { .. }));
    }

    #[test]
    fn row_conflicts_are_counted_not_dropped() {
        let c = Corpus::from_documents(vec![
            doc(
                0,
                ["Dallas, TX", "Houston, TX"],
                &["AT&T"],
                Some(RowHint::Rail),
            ),
            doc(
                1,
                ["Houston, TX", "Dallas, TX"],
                &["AT&T"],
                Some(RowHint::Road),
            ),
            // Different provider list: not an amendment conflict.
            doc(
                2,
                ["Dallas, TX", "Houston, TX"],
                &["Sprint"],
                Some(RowHint::Road),
            ),
        ]);
        let (out, report) = sanitize_corpus(&c, DegradationPolicy::Lenient).unwrap();
        assert_eq!(out.len(), 3, "conflicting docs must be kept");
        assert_eq!(report.total_for_reason("contradictory-row-claim"), 1);
        // Strict mode also tolerates conflicts (voting resolves them).
        sanitize_corpus(&c, DegradationPolicy::Strict).unwrap();
    }
}
