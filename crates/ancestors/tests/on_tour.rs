//! The on-tour constructors against the structures that borrow them a tour
//! in production: the Weiner-link color list of a real suffix tree with the
//! tree's own Euler tour, and the seq ≡ par ledger audit around the
//! primitive and around the dictionary build that sits on it.

use pardict_ancestors::{ColoredAncestors, ColoredAncestorsNaive, NearestMarkedAncestor};
use pardict_chaos::audit_seq_par;
use pardict_core::{DictMatcher, Dictionary};
use pardict_graph::{EulerTour, Forest};
use pardict_pram::{Pram, SplitMix64};
use pardict_suffix::{sym_code, SuffixTree, SENTINEL_CODE};
use pardict_workloads::{markov_text, random_dictionary, text_with_planted_matches, Alphabet};

/// The colors `SubstringMatcher` derives: node `slink(v)` gets the first
/// symbol of `v`'s label, i.e. "has a Weiner link by that symbol".
fn weiner_colors(st: &SuffixTree) -> Vec<(usize, u32)> {
    let last_leaf = st.num_leaves() - 1;
    (0..st.num_nodes())
        .filter(|&v| v != st.root() && st.str_depth(v) > 0)
        .filter(|&v| !(st.is_leaf(v) && st.leaf_pos(v) == last_leaf))
        .filter(|&v| st.label_pos(v) < st.text().len())
        .map(|v| (st.slink(v), u32::from(sym_code(st.text()[st.label_pos(v)]))))
        .collect()
}

#[test]
fn both_variants_match_the_root_walk_on_weiner_link_colors() {
    let pram = Pram::seq();
    for (alphabet, seed) in [(Alphabet::dna(), 21u64), (Alphabet::lowercase(), 22)] {
        let text = markov_text(seed, 3000, alphabet);
        let st = SuffixTree::build(&pram, &text, seed);
        let colors = weiner_colors(&st);
        let tour = st.tour();
        let naive = ColoredAncestorsNaive::on_tour(&pram, tour, &colors);
        let veb = ColoredAncestors::on_tour(&pram, tour, &colors);

        let n = st.num_nodes();
        let codes: Vec<u32> = (0..alphabet.size())
            .map(|i| u32::from(sym_code(alphabet.symbol(i))))
            .chain([0, 300]) // the sentinel's code and one no node carries
            .collect();
        for &c in &codes {
            let mut colored = vec![false; n];
            for &(v, cc) in &colors {
                colored[v] |= cc == c;
            }
            for p in 0..n {
                let mut want = p;
                while !colored[want] && want != st.root() {
                    want = st.parent(want);
                }
                let want = colored[want].then_some(want);
                assert_eq!(naive.find(p, c), want, "naive p={p} c={c}");
                assert_eq!(veb.find(p, c), want, "vEB p={p} c={c}");
                // What ExtendLeft relies on: a colored node has the link.
                if let Some(u) = want {
                    assert!(st.wlink(u, c as u16).is_some(), "wlink({u}, {c})");
                }
            }
        }
    }
}

#[test]
fn weiner_run_colors_build_what_the_node_order_list_builds() {
    // `SubstringMatcher` lists its colors from the tree's Weiner runs (by
    // node, then code); the list above is in node order of `x`. Both
    // builds group by color, so they must build the same structure at the
    // same charge.
    for (alphabet, seed) in [(Alphabet::dna(), 23u64), (Alphabet::lowercase(), 24)] {
        let pram = Pram::seq();
        let text = markov_text(seed, 3000, alphabet);
        let st = SuffixTree::build(&pram, &text, seed);
        let by_x = weiner_colors(&st);
        let by_run: Vec<(usize, u32)> = (0..st.num_nodes())
            .flat_map(|y| st.wlinks(y).iter().map(move |&(c, _)| (y, u32::from(c))))
            .filter(|&(_, c)| c != u32::from(SENTINEL_CODE))
            .collect();
        assert_ne!(by_x, by_run, "the two lists differ in order");
        let (mut a, mut b) = (by_x.clone(), by_run.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "the same colors");

        let tour = st.tour();
        let (naive_x, naive_x_cost) =
            pram.metered(|p| ColoredAncestorsNaive::on_tour(p, tour, &by_x));
        let (naive_r, naive_r_cost) =
            pram.metered(|p| ColoredAncestorsNaive::on_tour(p, tour, &by_run));
        let (veb_x, veb_x_cost) = pram.metered(|p| ColoredAncestors::on_tour(p, tour, &by_x));
        let (veb_r, veb_r_cost) = pram.metered(|p| ColoredAncestors::on_tour(p, tour, &by_run));
        assert_eq!(naive_x_cost, naive_r_cost, "naive charge");
        assert_eq!(veb_x_cost, veb_r_cost, "vEB charge");
        for c in (0..alphabet.size()).map(|i| u32::from(sym_code(alphabet.symbol(i)))) {
            for p in 0..st.num_nodes() {
                assert_eq!(naive_x.find(p, c), naive_r.find(p, c), "naive p={p} c={c}");
                assert_eq!(veb_x.find(p, c), veb_r.find(p, c), "vEB p={p} c={c}");
            }
        }
    }
}

#[test]
fn on_tour_is_mode_independent_in_results_and_costs() {
    // Large enough that every wide round takes its parallel path.
    let n = 6000usize;
    let mut rng = SplitMix64::new(77);
    let parent: Vec<usize> = (0..n)
        .map(|v| match v {
            0..=2 => v,
            _ => rng.next_below(v as u64) as usize,
        })
        .collect();
    let marked: Vec<bool> = (0..n).map(|_| rng.next_below(5) == 0).collect();
    let setup = Pram::seq();
    let forest = Forest::from_parents(&setup, &parent);
    let tour = EulerTour::build(&setup, &forest, 78);
    audit_seq_par("NearestMarkedAncestor::on_tour", |pram, _| {
        NearestMarkedAncestor::on_tour(pram, &tour, &marked)
    })
    .expect("seq and par agree");
}

#[test]
fn dictionary_build_is_mode_independent_in_results_and_costs() {
    for (alphabet, seed) in [(Alphabet::dna(), 31u64), (Alphabet::lowercase(), 32)] {
        let patterns = random_dictionary(seed, 400, 4, 12, alphabet);
        let text = text_with_planted_matches(seed + 1, &patterns, 4000, 30, alphabet);
        audit_seq_par("DictMatcher::build", |pram, auditor| {
            let (matcher, profile) =
                DictMatcher::build_profiled(pram, Dictionary::new(patterns.clone()), seed);
            auditor.step(pram, "build");
            (profile, matcher.match_text(pram, &text).as_slice().to_vec())
        })
        .expect("seq and par agree");
    }
}
