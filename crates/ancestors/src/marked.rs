//! Nearest marked ancestor (Lemma 2.7), on the forest's existing Euler tour.
//!
//! A marked node `u` is *open* over the tour positions `first[u]..=last[u]`,
//! and the marked nodes open at `first[v]` are exactly `v`'s marked
//! ancestors (`v` included), nested by laminarity. So tabulate the marked
//! entry/exit events over tour positions and propagate "last event at or
//! before `p`" with one scan. If the last event before `first[v]` belongs to
//! a `u` that is still open there, `u` is the innermost open marked node —
//! the answer. Otherwise `u` closed before `v` was entered and nothing
//! changed since, so the answer is `u`'s own nearest marked proper ancestor:
//! the nearest marked node entered before `u` that exits after it, one
//! nearest-smaller-values pass over the marked nodes in entry order.
//! `O(n)` work, `O(log n)` depth, deterministic, matching the lemma.

use pardict_graph::EulerTour;
use pardict_pram::Pram;
use pardict_rmq::{ansv_par, Side};

/// Answers nearest-marked-ancestor queries in O(1) after linear-work
/// preprocessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NearestMarkedAncestor {
    /// Nearest marked ancestor, the node itself allowed (`NONE32` if none).
    inclusive: Vec<u32>,
}

/// Sentinel for "no marked ancestor".
pub const NONE: usize = usize::MAX;

/// [`NONE`] in the packed answer table.
const NONE32: u32 = u32::MAX;

impl NearestMarkedAncestor {
    /// Preprocess the forest whose Euler tour is `tour` with the given mark
    /// bits. `O(n)` work, `O(log n)` depth.
    #[must_use]
    pub fn on_tour(pram: &Pram, tour: &EulerTour, marked: &[bool]) -> Self {
        let n = tour.num_nodes();
        assert_eq!(marked.len(), n);
        let len = tour.seq.len();
        assert!(len < NONE32 as usize, "tour positions must fit in u32");

        // Per tour position: (1 if a marked node is entered here, `p + 1` if
        // a marked node is entered or left here). Scanned: (marked nodes
        // entered so far, `1 +` the last event position at or before `p`).
        let events: Vec<(u32, u32)> = pram.tabulate(len, |p| {
            let u = tour.seq[p];
            if !marked[u] {
                return (0, 0);
            }
            let enters = p == tour.first[u];
            let here = if enters || p == tour.last[u] {
                p as u32 + 1
            } else {
                0
            };
            (u32::from(enters), here)
        });
        let seen = pram.scan_inclusive(&events, (0, 0), |a, b| {
            (a.0 + b.0, if b.1 == 0 { a.1 } else { b.1 })
        });
        let entry_rank = |u: usize| seen[tour.first[u]].0 as usize - 1;

        // Marked nodes in entry order (distinct ranks: exclusive writes).
        let mut by_entry = vec![0u32; seen.last().map_or(0, |s| s.0 as usize)];
        pram.ledger().round(n as u64);
        for u in (0..n).filter(|&u| marked[u]) {
            by_entry[entry_rank(u)] = u as u32;
        }

        // Nearest marked proper ancestor of each marked node: the nearest
        // one entered earlier whose exit is larger (laminarity).
        let exits: Vec<i64> = pram.map(&by_entry, |_, &u| -(tour.last[u as usize] as i64));
        let encloser = ansv_par(pram, &exits, Side::Left);

        let inclusive = pram.tabulate(n, |v| {
            let q = tour.first[v];
            let Some(last_event) = (seen[q].1 as usize).checked_sub(1) else {
                return NONE32;
            };
            let u = tour.seq[last_event];
            if q <= tour.last[u] {
                return u as u32; // still open at v's entry
            }
            match encloser[entry_rank(u)] {
                usize::MAX => NONE32, // no enclosing marked node
                k => by_entry[k],
            }
        });
        Self { inclusive }
    }

    /// Nearest marked ancestor of `v`, `v` itself allowed, or [`NONE`].
    #[must_use]
    pub fn inclusive(&self, v: usize) -> usize {
        match self.inclusive[v] {
            NONE32 => NONE,
            a => a as usize,
        }
    }

    /// Whether `v` itself is marked.
    #[cfg(test)]
    #[must_use]
    pub fn is_marked(&self, v: usize) -> bool {
        self.inclusive[v] as usize == v
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pardict_graph::Forest;
    use pardict_pram::{Pram, SplitMix64};

    /// Root-walk oracle for [`NearestMarkedAncestor::inclusive`].
    pub(crate) fn oracle_inclusive(parent: &[usize], marked: &[bool], v: usize) -> usize {
        let mut u = v;
        loop {
            if marked[u] {
                return u;
            }
            if parent[u] == u {
                return NONE;
            }
            u = parent[u];
        }
    }

    fn check(parent: &[usize], marked: &[bool]) {
        let pram = Pram::seq();
        let tour = EulerTour::build(&pram, &Forest::from_parents(&pram, parent), 3);
        let nma = NearestMarkedAncestor::on_tour(&pram, &tour, marked);
        for v in 0..parent.len() {
            let want = oracle_inclusive(parent, marked, v);
            assert_eq!(nma.inclusive(v), want, "inclusive v={v}");
            assert_eq!(nma.is_marked(v), marked[v], "is_marked v={v}");
        }
    }

    fn random_tree(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
        (0..n)
            .map(|v| {
                if v == 0 {
                    0
                } else {
                    rng.next_below(v as u64) as usize
                }
            })
            .collect()
    }

    #[test]
    fn small_tree() {
        //      0*
        //    /   \
        //   1     2*
        //  / \     \
        // 3   4*    5
        let parent = vec![0, 0, 0, 1, 1, 2];
        let marked = vec![true, false, true, false, true, false];
        check(&parent, &marked);
    }

    #[test]
    fn nothing_marked() {
        let parent = vec![0, 0, 1, 2, 3];
        check(&parent, &[false; 5]);
        check(&[], &[]);
    }

    #[test]
    fn everything_marked() {
        let parent = vec![0, 0, 1, 2, 3];
        check(&parent, &[true; 5]);
    }

    #[test]
    fn deep_chain_sparse_marks() {
        let n = 800;
        let parent: Vec<usize> = (0..n).map(|v: usize| v.saturating_sub(1)).collect();
        let marked: Vec<bool> = (0..n).map(|v| v % 97 == 3).collect();
        check(&parent, &marked);
    }

    #[test]
    fn random_trees_random_marks() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..5 {
            let parent = random_tree(300, &mut rng);
            let marked: Vec<bool> = (0..300).map(|_| rng.next_below(4) == 0).collect();
            check(&parent, &marked);
        }
    }

    #[test]
    fn forest_with_multiple_trees() {
        let parent = vec![0, 0, 1, 3, 3, 4];
        let marked = vec![false, true, false, true, false, false];
        check(&parent, &marked);
    }

    #[test]
    fn marked_leaf_closes_before_its_siblings() {
        // Star under a marked root: every leaf's entry is also its exit, so
        // later siblings must fall through to the leaf's own encloser.
        let parent = vec![0, 0, 0, 0, 0];
        check(&parent, &[true, true, false, true, false]);
        check(&parent, &[false, true, false, true, false]);
    }

    #[test]
    fn linear_work() {
        let mut per_elem = Vec::new();
        for n in [1usize << 13, 1 << 15, 1 << 17] {
            let pram = Pram::seq();
            let mut rng = SplitMix64::new(5);
            let parent = random_tree(n, &mut rng);
            let marked: Vec<bool> = (0..n).map(|_| rng.next_below(8) == 0).collect();
            let f = Forest::from_parents(&pram, &parent);
            let tour = EulerTour::build(&pram, &f, 6);
            let (_, cost) = pram.metered(|p| NearestMarkedAncestor::on_tour(p, &tour, &marked));
            per_elem.push(cost.work as f64 / n as f64);
        }
        assert!(
            per_elem[2] < per_elem[0] * 1.25 + 1.0,
            "NMA superlinear: {per_elem:?}"
        );
        // Absolute guard: the cut-forest + second-tour route this replaced
        // cost ~300 ops per node.
        assert!(
            per_elem.iter().all(|&w| w <= 32.0),
            "on-tour NMA above 32 ops per node: {per_elem:?}"
        );
    }
}
