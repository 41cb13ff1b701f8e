//! Provider roster deduplication shared by every §4.2 sharing computation.

use std::collections::HashMap;

/// A provider roster with repeated names dropped, first occurrence wins.
///
/// Opens no obs stage span, so it is safe to build on serving worker
/// threads (DESIGN.md §8).
#[derive(Debug, Clone)]
pub struct Roster<'a> {
    /// The distinct names, in roster order.
    pub names: Vec<String>,
    /// Each distinct name's position in `names`.
    pub index: HashMap<&'a str, u32>,
    /// How many entries repeated an earlier name.
    pub duplicates: usize,
    /// The first entry that repeated an earlier name.
    pub first_duplicate: Option<&'a str>,
}

impl<'a> Roster<'a> {
    /// Deduplicates `isps`, keeping each name's first occurrence.
    pub fn new(isps: &'a [String]) -> Roster<'a> {
        let mut roster = Roster {
            names: Vec::with_capacity(isps.len()),
            index: HashMap::with_capacity(isps.len()),
            duplicates: 0,
            first_duplicate: None,
        };
        for isp in isps {
            if roster.index.contains_key(isp.as_str()) {
                roster.duplicates += 1;
                roster.first_duplicate.get_or_insert(isp);
            } else {
                roster.index.insert(isp, roster.names.len() as u32);
                roster.names.push(isp.clone());
            }
        }
        roster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_occurrence_wins_and_the_first_repeat_is_named() {
        let isps: Vec<String> = ["A", "B", "A", "C", "B", "A"].map(String::from).into();
        let roster = Roster::new(&isps);
        assert_eq!(roster.names, ["A", "B", "C"]);
        assert_eq!(roster.index.get("C"), Some(&2));
        assert_eq!(roster.duplicates, 3);
        assert_eq!(roster.first_duplicate, Some("A"));
    }
}
