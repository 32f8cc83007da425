//! Nearest colored ancestors (§3.2) — the paper's novel data structure.
//!
//! Nodes carry colors (several per node allowed); `Find(p, c)` returns the
//! nearest ancestor of `p` (inclusive) colored `c`.
//!
//! **Naive variant** ([`ColoredAncestorsNaive`], the paper's naive skeleton
//! trees): one Lemma 2.7 pass per distinct color, all on the same Euler
//! tour — `O(n · |C|)` work, `O(1)` query.
//!
//! **Efficient variant** ([`ColoredAncestors`], the paper's real skeleton
//! trees + van Emde Boas): per color, the colored nodes' Euler-tour
//! entry/exit endpoints go into a vEB set. A query takes the predecessor of
//! `first[p]`: landing on an *entry* endpoint of `u` means `u` encloses `p`
//! (laminarity: had `u`'s interval closed before `p`, its exit endpoint
//! would intervene) — answer `u`; landing on an *exit* endpoint of `w`
//! means the answer is `w`'s own color-parent, precomputed for all colored
//! nodes with one nearest-larger-values pass. Preprocessing `O(n + C)`
//! work; queries `O(log log n)` — exactly the paper's trade-off.
//!
//! Both variants number nodes by a *borrowed* Euler tour of the forest (the
//! suffix tree already owns one); the seed-taking `build`s are wrappers
//! that construct a tour first.

use crate::marked::{NearestMarkedAncestor, NONE as NMA_NONE};
use pardict_graph::{EulerTour, Forest};
use pardict_pram::{radix_sort_by_key, Pram};
use pardict_rmq::{ansv_seq, Side};
use pardict_veb::VebTree;
use std::collections::{BTreeMap, HashMap};

/// The efficient (real-skeleton + vEB) nearest colored ancestor structure.
#[derive(Debug)]
pub struct ColoredAncestors {
    /// Euler entry position of every node.
    entry: Vec<u32>,
    /// Per color: endpoint set and metadata.
    per_color: HashMap<u32, PerColor>,
}

#[derive(Debug)]
struct PerColor {
    /// Entry and exit Euler positions of all `c`-colored nodes.
    endpoints: VebTree,
    /// Euler position → the colored node with an endpoint there. The only
    /// possible collision is a leaf's entry with its own exit.
    role: HashMap<u32, Endpoint>,
}

#[derive(Debug, Clone, Copy)]
struct Endpoint {
    node: u32,
    /// Euler exit position of `node`.
    exit: u32,
    /// Color-parent: nearest strictly-enclosing same-colored node
    /// (`u32::MAX` if none).
    up: u32,
}

impl ColoredAncestors {
    /// Build over `forest` with `colors` = (node, color) pairs (a node may
    /// appear with several colors): one Euler tour, then
    /// [`ColoredAncestors::on_tour`].
    #[must_use]
    pub fn build(pram: &Pram, forest: &Forest, colors: &[(usize, u32)], seed: u64) -> Self {
        let tour = EulerTour::build(pram, forest, seed ^ 0xC010);
        Self::on_tour(pram, &tour, colors)
    }

    /// Build on an existing Euler tour of the forest. `O(n + C)` work.
    #[must_use]
    pub fn on_tour(pram: &Pram, tour: &EulerTour, colors: &[(usize, u32)]) -> Self {
        let universe = tour.seq.len().max(1);
        assert!(
            universe < u32::MAX as usize,
            "tour positions must fit in u32"
        );
        let entry: Vec<u32> = pram.map(&tour.first, |_, &p| p as u32);

        // Group the (node, color) pairs by color with a stable radix sort,
        // then slice the groups out sequentially (O(C) work).
        let sorted = radix_sort_by_key(pram, colors, |&(_, c)| u64::from(c));
        pram.ledger().round(sorted.len() as u64);

        let mut per_color: HashMap<u32, PerColor> = HashMap::new();
        for group in sorted.chunk_by(|a, b| a.1 == b.1) {
            // Laminar intervals of this color, ordered by entry position.
            let by_entry = {
                let mut g: Vec<usize> = group.iter().map(|&(v, _)| v).collect();
                g.sort_unstable_by_key(|&v| tour.first[v]);
                g
            };
            pram.ledger().round(group.len() as u64);

            // Color-parents: nearest previous interval (in entry order)
            // whose exit exceeds mine — with laminarity this is exactly the
            // nearest *larger* value on the exit array.
            let lasts: Vec<i64> = by_entry.iter().map(|&v| -(tour.last[v] as i64)).collect();
            let (encl, _) = ansv_seq(&lasts, Side::Left);
            pram.ledger().round(group.len() as u64);

            let mut endpoints = VebTree::with_universe(universe);
            let mut role = HashMap::with_capacity(2 * group.len());
            for (k, &v) in by_entry.iter().enumerate() {
                let (fi, la) = (tour.first[v] as u32, tour.last[v] as u32);
                let end = Endpoint {
                    node: v as u32,
                    exit: la,
                    up: match encl[k] {
                        usize::MAX => u32::MAX,
                        j => by_entry[j] as u32,
                    },
                };
                endpoints.insert(fi);
                endpoints.insert(la);
                role.insert(fi, end);
                role.insert(la, end);
            }
            per_color.insert(group[0].1, PerColor { endpoints, role });
        }
        Self { entry, per_color }
    }

    /// Nearest ancestor of `p` (inclusive) colored `c`. `O(log log n)`.
    #[must_use]
    pub fn find(&self, p: usize, c: u32) -> Option<usize> {
        let pc = self.per_color.get(&c)?;
        let q = self.entry[p];
        let e = pc.endpoints.predecessor_or_equal(q)?;
        let end = pc.role.get(&e).expect("endpoint has a role");
        if q <= end.exit {
            // An endpoint of a still-open interval (entered at or before
            // `e <= q`): the node encloses p.
            Some(end.node as usize)
        } else {
            // The interval closed before p: the answer is the node's
            // color-parent (no endpoint separates its exit from p, so the
            // innermost open c-interval at p is exactly the one that
            // enclosed it).
            (end.up != u32::MAX).then_some(end.up as usize)
        }
    }
}

/// The naive variant: one Lemma 2.7 answer table per distinct color.
/// `O(n · |C|)` preprocessing work, `O(1)` queries.
#[derive(Debug)]
pub struct ColoredAncestorsNaive {
    /// Sorted by color.
    per_color: Vec<(u32, NearestMarkedAncestor)>,
}

impl ColoredAncestorsNaive {
    /// Build over `forest` with `colors` = (node, color) pairs: one Euler
    /// tour, then [`ColoredAncestorsNaive::on_tour`].
    #[must_use]
    pub fn build(pram: &Pram, forest: &Forest, colors: &[(usize, u32)], seed: u64) -> Self {
        let tour = EulerTour::build(pram, forest, seed);
        Self::on_tour(pram, &tour, colors)
    }

    /// Build on an existing Euler tour of the forest, shared by every
    /// color's pass.
    #[must_use]
    pub fn on_tour(pram: &Pram, tour: &EulerTour, colors: &[(usize, u32)]) -> Self {
        let mut by_color: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        pram.ledger().round(colors.len() as u64);
        for &(v, c) in colors {
            by_color.entry(c).or_default().push(v);
        }
        // One mark buffer for all passes; each pass sets and clears only
        // its own color's nodes.
        let mut marked = vec![false; tour.num_nodes()];
        pram.ledger().round(marked.len() as u64);
        let per_color = by_color
            .into_iter()
            .map(|(c, nodes)| {
                pram.ledger().round(nodes.len() as u64);
                for &v in &nodes {
                    marked[v] = true;
                }
                let nma = NearestMarkedAncestor::on_tour(pram, tour, &marked);
                for &v in &nodes {
                    marked[v] = false;
                }
                (c, nma)
            })
            .collect();
        Self { per_color }
    }

    /// Nearest ancestor of `p` (inclusive) colored `c`. `O(1)` for the
    /// constant alphabets this variant serves.
    #[must_use]
    pub fn find(&self, p: usize, c: u32) -> Option<usize> {
        let k = self.per_color.binary_search_by_key(&c, |&(c, _)| c).ok()?;
        let a = self.per_color[k].1.inclusive(p);
        (a != NMA_NONE).then_some(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::{Pram, SplitMix64};

    fn oracle(parent: &[usize], colors: &[(usize, u32)], p: usize, c: u32) -> Option<usize> {
        let colored = |v: usize| colors.iter().any(|&(w, cc)| w == v && cc == c);
        let mut v = p;
        loop {
            if colored(v) {
                return Some(v);
            }
            if parent[v] == v {
                return None;
            }
            v = parent[v];
        }
    }

    fn check(parent: &[usize], colors: &[(usize, u32)], num_colors: u32) {
        let pram = Pram::seq();
        let f = Forest::from_parents(&pram, parent);
        let fast = ColoredAncestors::build(&pram, &f, colors, 11);
        let naive = ColoredAncestorsNaive::build(&pram, &f, colors, 11);
        for p in 0..parent.len() {
            for c in 0..num_colors {
                let want = oracle(parent, colors, p, c);
                assert_eq!(fast.find(p, c), want, "fast p={p} c={c}");
                assert_eq!(naive.find(p, c), want, "naive p={p} c={c}");
            }
        }
    }

    #[test]
    fn small_tree_two_colors() {
        //      0(c0)
        //    /      \
        //   1(c1)    2
        //  / \        \
        // 3   4(c0,c1) 5
        let parent = vec![0, 0, 0, 1, 1, 2];
        let colors = vec![(0, 0), (1, 1), (4, 0), (4, 1)];
        check(&parent, &colors, 3);
    }

    #[test]
    fn chain_with_alternating_colors() {
        let n = 100;
        let parent: Vec<usize> = (0..n).map(|v: usize| v.saturating_sub(1)).collect();
        let colors: Vec<(usize, u32)> = (0..n).map(|v| (v, (v % 3) as u32)).collect();
        check(&parent, &colors, 4);
    }

    #[test]
    fn unknown_color_returns_none() {
        let pram = Pram::seq();
        let f = Forest::from_parents(&pram, &[0, 0]);
        let fast = ColoredAncestors::build(&pram, &f, &[(1, 7)], 1);
        assert_eq!(fast.find(0, 99), None);
        assert_eq!(fast.find(0, 7), None);
        assert_eq!(fast.find(1, 7), Some(1));
    }

    #[test]
    fn random_trees_random_colors() {
        let mut rng = SplitMix64::new(31);
        for _ in 0..4 {
            let n = 150;
            let parent: Vec<usize> = (0..n)
                .map(|v: usize| {
                    if v == 0 {
                        0
                    } else {
                        rng.next_below(v as u64) as usize
                    }
                })
                .collect();
            let num_colors = 5;
            let mut colors = Vec::new();
            for v in 0..n {
                if rng.next_below(3) == 0 {
                    colors.push((v, rng.next_below(num_colors) as u32));
                }
                if rng.next_below(10) == 0 {
                    colors.push((v, rng.next_below(num_colors) as u32));
                }
            }
            colors.dedup();
            check(&parent, &colors, num_colors as u32);
        }
    }

    #[test]
    fn forest_queries_stay_in_tree() {
        // Two trees; color only in the first.
        let parent = vec![0, 0, 1, 3, 3];
        let colors = vec![(0, 0), (1, 0)];
        check(&parent, &colors, 1);
    }

    #[test]
    fn deep_nesting_same_color() {
        // All nodes one color: answers are the node itself.
        let n = 60;
        let parent: Vec<usize> = (0..n).map(|v: usize| v.saturating_sub(1)).collect();
        let colors: Vec<(usize, u32)> = (0..n).map(|v| (v, 0)).collect();
        check(&parent, &colors, 1);
    }

    #[test]
    fn efficient_work_beats_naive_with_many_colors() {
        let n = 4000usize;
        let mut rng = SplitMix64::new(9);
        let parent: Vec<usize> = (0..n)
            .map(|v: usize| {
                if v == 0 {
                    0
                } else {
                    rng.next_below(v as u64) as usize
                }
            })
            .collect();
        let pram = Pram::seq();
        let f = Forest::from_parents(&pram, &parent);
        let tour = EulerTour::build(&pram, &f, 1);
        // (vEB work, naive work) of the on-tour builds at `num_colors`.
        let mut work = |num_colors: u64| {
            let mut colors: Vec<(usize, u32)> = Vec::new();
            for v in 0..n {
                if rng.next_below(2) == 0 {
                    colors.push((v, rng.next_below(num_colors) as u32));
                }
            }
            let (_, fast) = pram.metered(|p| ColoredAncestors::on_tour(p, &tour, &colors));
            let (_, naive) = pram.metered(|p| ColoredAncestorsNaive::on_tour(p, &tour, &colors));
            (fast.work, naive.work)
        };
        let (fast8, naive8) = work(8);
        let (fast64, naive64) = work(64);
        // Naive is Θ(n·|C|), vEB is flat in |C|.
        assert!(
            naive64 > 6 * naive8,
            "naive should grow with |C|: {naive8} at 8 colors, {naive64} at 64"
        );
        assert!(
            fast64 * 4 < fast8 * 5,
            "vEB should be flat in |C|: {fast8} at 8 colors, {fast64} at 64"
        );
        assert!(
            fast64 * 16 < naive64,
            "expected ≥16x preprocessing gap at 64 colors, fast={fast64} naive={naive64}"
        );
    }
}
