//! Deterministic mixed-workload generation for gates and benches.
//!
//! The serve gate and `bench_serve` need a reproducible stream of queries
//! whose mix resembles interactive use: mostly cheap lookups, a steady
//! trickle of expensive cut what-ifs, and enough repetition that the
//! cache has something to hit. The generator is seeded splitmix64 over
//! the snapshot's own rosters and indexes — same snapshot, same seed,
//! same workload, on every platform. Every pick from a roster or index
//! is a checked read, so a malformed snapshot cannot make it panic.

#![deny(clippy::indexing_slicing)]

use std::cmp::Reverse;

use crate::query::Query;
use crate::snapshot::StudySnapshot;

/// The splitmix64 step: advances `state` and returns the next draw.
/// (Sebastiano Vigna's generator; public domain reference constants.)
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates `n` queries over the snapshot's providers, pairs, and
/// heavily shared conduits. The mix (by draw):
///
/// * 30 % per-provider risk lookups,
/// * 15 % similarity lookups,
/// * 30 % pair latency queries,
/// * 15 % top-shared rankings (k ∈ 4..16),
/// * 10 % conduit-cut what-ifs over 1–3 of the 24 most-shared conduits.
///
/// Deterministic in `(snapshot, n, seed)`.
pub fn mixed_workload(snap: &StudySnapshot, n: usize, seed: u64) -> Vec<Query> {
    let mut state = seed;
    let shared = &snap.risk.shared;
    // The cut pool: the 24 most-shared conduit ids (§4.2 order).
    let mut by_share: Vec<u32> = (0..shared.len() as u32).collect();
    by_share.sort_by_key(|&c| (Reverse(shared.get(c as usize)), c));
    by_share.truncate(24);
    // A pair naming no node asks for the empty label, which is not found.
    let label = |node: u32| {
        let node = snap.map.nodes.get(node as usize);
        node.map(|n| n.label.clone()).unwrap_or_default()
    };

    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = splitmix64(&mut state) % 100;
        let draw = splitmix64(&mut state);
        let query = match (pick(&snap.isps, draw), pick(&snap.paths.pairs, draw)) {
            (Some(isp), _) if kind < 30 => Query::IspRisk { isp: isp.clone() },
            (Some(isp), _) if kind < 45 => Query::Similarity { isp: isp.clone() },
            (_, Some(pair)) if kind < 75 => Query::Latency {
                a: label(pair.a),
                b: label(pair.b),
            },
            _ if kind < 90 || by_share.is_empty() => Query::TopShared {
                k: 4 + (draw % 12) as usize,
            },
            _ => {
                let count = 1 + (draw % 3) as usize;
                let conduits = (0..count)
                    .filter_map(|_| pick(&by_share, splitmix64(&mut state)).copied())
                    .collect();
                Query::CutImpact { conduits }
            }
        };
        out.push(query);
    }
    out
}

/// The element `draw` picks from `items`, or `None` if it is empty.
fn pick<T>(items: &[T], draw: u64) -> Option<&T> {
    items.get(draw.checked_rem(items.len() as u64)? as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_sequence() {
        // Reference outputs for seed 1234567 (Vigna's test vectors).
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 6457827717110365317);
        assert_eq!(splitmix64(&mut s), 3203168211198807973);
        assert_eq!(splitmix64(&mut s), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..100 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
        let mut c = 43u64;
        assert_ne!(splitmix64(&mut a), splitmix64(&mut c));
    }
}
