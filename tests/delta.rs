//! Delta tier: incremental dictionary updates against the
//! rebuild-from-scratch oracle.
//!
//! The tentpole invariant: for any seed dictionary and any valid
//! sequence of deltas, chaining [`SegmentedMatcher::apply_delta`] must
//! be *equivalent to a scratch build* of the final pattern set — the
//! same identity, the same patterns in the same global-id order, the
//! same segment structure, byte-identical match results, and identical
//! query-time ledger costs — under both `Pram::seq()` and `Pram::par()`.
//! Segmentation is content-defined (a pure function of the final list),
//! so the two construction paths converge structurally and everything
//! downstream of structure follows by construction; these properties
//! pin that construction down.
//!
//! Deltas are derived from a seed with the crate's own `SplitMix64`
//! rather than nested proptest strategies: each delta is valid relative
//! to the evolving pattern list (removes name present values, the list
//! never empties), which is awkward to express as independent
//! strategies but trivial to script.

use pardict::core::{
    apply_delta_patterns, multiset_identity, DeltaError, DictDelta, SegmentedMatcher,
};
use pardict::pram::{Pram, SplitMix64};
use proptest::prelude::*;

/// Derive a seed dictionary of `n` patterns over a small alphabet.
fn derive_patterns(rng: &mut SplitMix64, n: usize) -> Vec<Vec<u8>> {
    (0..n.max(1))
        .map(|_| {
            let len = 1 + rng.next_below(5) as usize;
            (0..len).map(|_| b'a' + rng.next_below(3) as u8).collect()
        })
        .collect()
}

/// Script `n_deltas` valid deltas against `cur`, returning the deltas
/// and leaving the folded final list in `cur` (folded here, remove by
/// remove, so the oracle does not share `apply_delta_patterns`).
fn derive_deltas(cur: &mut Vec<Vec<u8>>, rng: &mut SplitMix64, n_deltas: usize) -> Vec<DictDelta> {
    let mut deltas = Vec::with_capacity(n_deltas);
    for _ in 0..n_deltas {
        let mut delta = DictDelta {
            adds: Vec::new(),
            removes: Vec::new(),
        };
        let mut working = cur.clone();
        for _ in 0..rng.next_below(3) {
            if working.len() <= 1 {
                break;
            }
            let v = working[rng.next_below(working.len() as u64) as usize].clone();
            let occurrences = working.iter().filter(|p| **p == v).count();
            if working.len() == occurrences || delta.removes.contains(&v) {
                continue;
            }
            working.retain(|p| *p != v);
            delta.removes.push(v);
        }
        for _ in 0..rng.next_below(4) {
            let len = 1 + rng.next_below(5) as usize;
            let p: Vec<u8> = (0..len).map(|_| b'a' + rng.next_below(3) as u8).collect();
            working.push(p.clone());
            delta.adds.push(p);
        }
        if delta.is_empty() {
            let p = vec![b'a'];
            working.push(p.clone());
            delta.adds.push(p);
        }
        *cur = working;
        deltas.push(delta);
    }
    deltas
}

/// Match `text` on a fresh PRAM of the given mode and return the hits
/// plus the exact ledger cost the query charged.
fn measured_query(
    matcher: &SegmentedMatcher,
    par: bool,
    text: &[u8],
) -> (Vec<(usize, u32, u32)>, pardict::pram::Cost) {
    let pram = if par { Pram::par() } else { Pram::seq() };
    let hits: Vec<(usize, u32, u32)> = matcher
        .find_all(&pram, text)
        .into_iter()
        .map(|(pos, m)| (pos, m.id, m.len))
        .collect();
    (hits, pram.cost())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The oracle: `apply_deltas(seed_dict, deltas)` ≡
    /// `build(final_pattern_set)` — structure, match results, and
    /// query-time ledger costs, in both PRAM modes. Dictionary sizes
    /// straddle the single-segment threshold so both the one-segment
    /// fast path and real multi-segment reuse are exercised.
    #[test]
    fn chained_deltas_equal_scratch_rebuild(
        seed in any::<u64>(),
        n_seed in 1usize..140,
        n_deltas in 1usize..6,
    ) {
        let mut rng = SplitMix64::new(seed);
        let seed_patterns = derive_patterns(&mut rng, n_seed);
        let mut finals = seed_patterns.clone();
        let deltas = derive_deltas(&mut finals, &mut rng, n_deltas);
        let text: Vec<u8> = (0..300).map(|_| b'a' + rng.next_below(3) as u8).collect();

        for par in [false, true] {
            let pram = if par { Pram::par() } else { Pram::seq() };
            let mut chained = SegmentedMatcher::build(&pram, seed_patterns.clone());
            let mut model = seed_patterns.clone();
            for d in &deltas {
                let (next, stats) = chained
                    .apply_delta(&pram, d)
                    .expect("scripted deltas are valid");
                let folded = apply_delta_patterns(&model, d).unwrap();
                // The build's identity is the multiset identity of the
                // folded list.
                prop_assert_eq!(next.identity(), multiset_identity(&folded));
                prop_assert!(stats.segments_reused <= stats.segments_total);
                model = folded;
                chained = next;
            }
            prop_assert_eq!(&model, &finals);

            let scratch = SegmentedMatcher::build(&pram, finals.clone());
            prop_assert_eq!(chained.identity(), scratch.identity());
            prop_assert_eq!(chained.patterns(), scratch.patterns());
            prop_assert_eq!(chained.num_segments(), scratch.num_segments());
            prop_assert_eq!(chained.max_pattern_len(), scratch.max_pattern_len());

            // Byte-identical match results and identical query-time
            // ledger costs: same structure, same per-segment seeds, so
            // the two paths are indistinguishable at query time.
            let (hits_a, cost_a) = measured_query(&chained, par, &text);
            let (hits_b, cost_b) = measured_query(&scratch, par, &text);
            prop_assert_eq!(hits_a, hits_b);
            prop_assert_eq!(cost_a, cost_b);

            // And the Las Vegas lane: identical per-segment seeds mean
            // the two paths make the same fallback decisions, so hits,
            // fallback flags, and costs all agree.
            let qa = if par { Pram::par() } else { Pram::seq() };
            let (ma, fell_a) = chained.match_text_verified(&qa, &text);
            let qb = if par { Pram::par() } else { Pram::seq() };
            let (mb, fell_b) = scratch.match_text_verified(&qb, &text);
            prop_assert_eq!(fell_a, fell_b);
            let pairs = |m: &pardict::core::Matches| -> Vec<(usize, u32, u32)> {
                m.iter_hits().map(|(i, h)| (i, h.id, h.len)).collect()
            };
            prop_assert_eq!(pairs(&ma), pairs(&mb));
            prop_assert_eq!(qa.cost(), qb.cost());
        }
    }

    /// Reuse is real: a small delta against a dictionary big enough to
    /// span several segments rebuilds only the touched runs — strictly
    /// fewer than all of them.
    #[test]
    fn small_deltas_reuse_most_segments(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let patterns = derive_patterns(&mut rng, 1200);
        let pram = Pram::seq();
        let base = SegmentedMatcher::build(&pram, patterns);
        prop_assume!(base.num_segments() >= 3);
        let delta = DictDelta {
            adds: vec![b"zzz".to_vec()],
            removes: Vec::new(),
        };
        let (next, stats) = base.apply_delta(&pram, &delta).unwrap();
        prop_assert!(
            stats.segments_reused >= stats.segments_total.saturating_sub(2),
            "appending one pattern may touch at most the final runs: {stats:?}"
        );
        prop_assert!(stats.segments_reused >= 1);
        prop_assert_eq!(next.num_patterns(), base.num_patterns() + 1);
    }

    /// Delta validation is total and precise: removing an absent value
    /// is `RemoveMissing` with the offending index, emptying the
    /// dictionary is `EmptyResult`, and bad adds are named by index —
    /// never a panic, never a half-applied list.
    #[test]
    fn invalid_deltas_are_refused_not_applied(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let patterns = derive_patterns(&mut rng, 8);
        let absent = b"absent-value".to_vec();
        prop_assert!(matches!(
            apply_delta_patterns(&patterns, &DictDelta {
                adds: vec![],
                removes: vec![absent],
            }),
            Err(DeltaError::RemoveMissing { index: 0 })
        ));
        let remove_all = DictDelta {
            adds: vec![],
            removes: {
                let mut vals = patterns.clone();
                vals.sort();
                vals.dedup();
                vals
            },
        };
        prop_assert!(matches!(
            apply_delta_patterns(&patterns, &remove_all),
            Err(DeltaError::EmptyResult)
        ));
        prop_assert!(matches!(
            apply_delta_patterns(&patterns, &DictDelta {
                adds: vec![vec![]],
                removes: vec![],
            }),
            Err(DeltaError::EmptyAdd { index: 0 })
        ));
        prop_assert!(matches!(
            apply_delta_patterns(&patterns, &DictDelta {
                adds: vec![vec![b'a', 0]],
                removes: vec![],
            }),
            Err(DeltaError::NulAdd { index: 0 })
        ));
    }
}
