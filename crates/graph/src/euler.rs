//! Euler tours of rooted forests by work-optimal list ranking.
//!
//! The tour of a tree is the classic DFS edge circuit. Building it on a PRAM
//! is the canonical application of list ranking: the successor function of
//! the circuit is computable locally from the child adjacency in O(1) per
//! edge, after which random-mate list ranking assigns every edge its
//! position in expected `O(n)` work and `O(log n)` depth.
//!
//! The resulting arrays power two consumers in this workspace:
//!
//! * **entry/exit times** give `O(1)` ancestor tests and subtree intervals
//!   (used by suffix-tree LCAs and nearest marked and colored ancestors);
//! * **per-node tree roots** resolve a forest's components in linear work —
//!   the step that makes Theorem 4.3 uncompression work-optimal where naive
//!   pointer jumping would pay an extra log factor.

use crate::forest::Forest;
use pardict_pram::{list_rank_random_mate_full, Pram};

/// Euler tour of a rooted forest.
///
/// Trees are laid out one after another (ordered by root id) in a single
/// global sequence; a tree with `k` nodes occupies `2k - 1` slots.
#[derive(Debug, Clone)]
pub struct EulerTour {
    /// Node visited at each tour position (length `2n - #trees`).
    pub seq: Vec<usize>,
    /// First (entry) position of each node.
    pub first: Vec<usize>,
    /// Last (exit) position of each node.
    pub last: Vec<usize>,
    /// Root of the tree containing each node.
    pub root_of: Vec<usize>,
}

impl EulerTour {
    /// Build the tour. Expected `O(n)` work, `O(log n)` depth.
    #[must_use]
    pub fn build(pram: &Pram, forest: &Forest, seed: u64) -> Self {
        let n = forest.len();
        if n == 0 {
            return Self {
                seq: Vec::new(),
                first: Vec::new(),
                last: Vec::new(),
                root_of: Vec::new(),
            };
        }

        // Next sibling of each node (usize::MAX when last child).
        let mut sib_next = vec![usize::MAX; n];
        pram.ledger().round(n as u64);
        for v in 0..n {
            let cs = forest.children(v);
            for w in cs.windows(2) {
                sib_next[w[0]] = w[1];
            }
        }

        // Circuit successor over edge slots: down(v) = 2v, up(v) = 2v + 1.
        let next: Vec<usize> = pram.tabulate(2 * n, |slot| {
            let v = slot >> 1;
            if forest.is_root(v) {
                return slot; // unused slots self-loop
            }
            if slot & 1 == 0 {
                // down(v): descend to first child, else bounce back up.
                match forest.children(v).first() {
                    Some(&c) => 2 * c,
                    None => 2 * v + 1,
                }
            } else {
                // up(v): continue with the next sibling, else climb.
                let u = forest.parent(v);
                if sib_next[v] != usize::MAX {
                    2 * sib_next[v]
                } else if forest.is_root(u) {
                    slot // tail of this tree's tour
                } else {
                    2 * u + 1
                }
            }
        });

        let ranks = list_rank_random_mate_full(pram, &next, seed ^ 0xE01E_47AE);

        // Per-root edge counts and sequence base offsets (trees in root-id
        // order). Roots are a compacted subset; the scan over them is O(n).
        let is_root_flags: Vec<bool> = pram.tabulate(n, |v| forest.is_root(v));
        let roots = pram.pack_indices(&is_root_flags);
        let len_edges_per_root: Vec<u64> =
            pram.map(&roots, |_, &r| match forest.children(r).first() {
                Some(&c) => ranks.rank[2 * c] + 1,
                None => 0,
            });
        let sizes: Vec<u64> = pram.map(&len_edges_per_root, |_, &e| e + 1);
        let bases = pram.scan_exclusive_sum(&sizes);
        let seq_len = (*bases.last().unwrap() + *sizes.last().unwrap()) as usize;

        // Spread per-root data to dense arrays for O(1) lookup by root id.
        let mut seq_base = vec![0usize; n];
        let mut len_edges = vec![0u64; n];
        pram.ledger().round(roots.len() as u64);
        for (k, &r) in roots.iter().enumerate() {
            seq_base[r] = bases[k] as usize;
            len_edges[r] = len_edges_per_root[k];
        }

        // Root of each node: the tail of v's edge list is up(w) with
        // parent(w) = root.
        let root_of: Vec<usize> = pram.tabulate(n, |v| {
            if forest.is_root(v) {
                v
            } else {
                forest.parent(ranks.tail[2 * v] >> 1)
            }
        });

        // Global position of each used edge slot.
        let pos = |slot: usize| -> usize {
            let r = root_of[slot >> 1];
            seq_base[r] + (len_edges[r] - ranks.rank[slot]) as usize
        };

        let mut seq = vec![usize::MAX; seq_len];
        pram.ledger().round(roots.len() as u64);
        for &r in &roots {
            seq[seq_base[r]] = r;
        }
        pram.ledger().round(2 * n as u64);
        for slot in 0..2 * n {
            let v = slot >> 1;
            if forest.is_root(v) {
                continue;
            }
            seq[pos(slot)] = if slot & 1 == 0 { v } else { forest.parent(v) };
        }
        debug_assert!(seq.iter().all(|&v| v != usize::MAX));

        // Entry/exit positions.
        let first: Vec<usize> = pram.tabulate(n, |v| {
            if forest.is_root(v) {
                seq_base[v]
            } else {
                pos(2 * v)
            }
        });
        // Last occurrence of v: the return from its last child, or the
        // single occurrence when v is childless.
        let last: Vec<usize> = pram.tabulate(n, |v| match forest.children(v).last() {
            Some(&c) => pos(2 * c + 1),
            None => {
                if forest.is_root(v) {
                    seq_base[v]
                } else {
                    pos(2 * v)
                }
            }
        });

        Self {
            seq,
            first,
            last,
            root_of,
        }
    }

    /// Number of nodes in the underlying forest.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.first.len()
    }

    /// O(1) ancestor test (`u` an ancestor of `v`, inclusive). Nodes in
    /// different trees are never ancestors of one another.
    #[must_use]
    pub fn is_ancestor(&self, u: usize, v: usize) -> bool {
        self.first[u] <= self.first[v] && self.last[v] <= self.last[u]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::{Pram, SplitMix64};

    /// Sequential DFS oracle producing the tour sequence of a forest.
    fn dfs_oracle(forest: &Forest) -> Vec<usize> {
        let mut seq = Vec::new();
        for r in forest.roots() {
            dfs(forest, r, &mut seq);
        }
        seq
    }

    fn dfs(f: &Forest, v: usize, seq: &mut Vec<usize>) {
        seq.push(v);
        for &c in f.children(v) {
            dfs(f, c, seq);
            seq.push(v);
        }
    }

    fn random_forest(n: usize, num_roots: usize, seed: u64) -> Vec<usize> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|v| {
                if v < num_roots {
                    v
                } else {
                    rng.next_below(v as u64) as usize
                }
            })
            .collect()
    }

    #[test]
    fn tour_matches_dfs_small() {
        let pram = Pram::seq();
        let f = Forest::from_parents(&pram, &[0, 0, 0, 2, 2, 5]);
        let t = EulerTour::build(&pram, &f, 1);
        assert_eq!(t.seq, dfs_oracle(&f));
        assert_eq!(t.root_of, vec![0, 0, 0, 0, 0, 5]);
    }

    #[test]
    fn tour_matches_dfs_random() {
        let pram = Pram::seq();
        for (n, roots, seed) in [(30usize, 1usize, 2u64), (200, 5, 3), (3000, 7, 4)] {
            let parent = random_forest(n, roots, seed);
            let f = Forest::from_parents(&pram, &parent);
            let t = EulerTour::build(&pram, &f, seed);
            assert_eq!(t.seq, dfs_oracle(&f), "n={n}");
        }
    }

    #[test]
    fn entry_exit_bracket_subtrees() {
        let pram = Pram::seq();
        let parent = random_forest(500, 3, 9);
        let f = Forest::from_parents(&pram, &parent);
        let t = EulerTour::build(&pram, &f, 9);
        for v in 0..f.len() {
            assert_eq!(t.seq[t.first[v]], v);
            assert_eq!(t.seq[t.last[v]], v);
            if !f.is_root(v) {
                let p = f.parent(v);
                assert!(t.is_ancestor(p, v));
                assert!(!t.is_ancestor(v, p));
            }
        }
    }

    #[test]
    fn ancestor_test_cross_tree_is_false() {
        let pram = Pram::seq();
        let f = Forest::from_parents(&pram, &[0, 0, 2, 2]);
        let t = EulerTour::build(&pram, &f, 5);
        assert!(!t.is_ancestor(0, 3));
        assert!(!t.is_ancestor(2, 1));
        assert!(t.is_ancestor(2, 3));
    }

    #[test]
    fn singleton_trees() {
        let pram = Pram::seq();
        let f = Forest::from_parents(&pram, &[0, 1, 2]);
        let t = EulerTour::build(&pram, &f, 5);
        assert_eq!(t.seq, vec![0, 1, 2]);
        assert_eq!(t.root_of, vec![0, 1, 2]);
    }

    #[test]
    fn root_of_resolves_deep_chain() {
        let pram = Pram::seq();
        // A path 0 <- 1 <- ... <- 999.
        let n = 1000;
        let parent: Vec<usize> = (0..n).map(|v: usize| v.saturating_sub(1)).collect();
        let f = Forest::from_parents(&pram, &parent);
        let t = EulerTour::build(&pram, &f, 8);
        assert!(t.root_of.iter().all(|&r| r == 0));
        assert_eq!(t.first[n - 1], n - 1);
    }

    #[test]
    fn empty_forest() {
        let pram = Pram::seq();
        let f = Forest::from_parents(&pram, &[]);
        let t = EulerTour::build(&pram, &f, 0);
        assert_eq!(t.num_nodes(), 0);
        assert!(t.seq.is_empty());
    }
}
