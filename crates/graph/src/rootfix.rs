//! Work-optimal *rootfix* computations: for every node, fold an associative
//! operation over the values on its root path.
//!
//! For invertible operations (sums) an Euler-tour prefix sum suffices; this
//! module handles **any** associative operation (max, min, argmax pairs…)
//! in `O(n)` work and `O(log² n)` depth via heavy-path rounds:
//!
//! 1. heavy-path decomposition (subtree sizes come free from the Euler
//!    tour; heavy chains are ranked as lists);
//! 2. each path head's *light depth* (number of light edges above it) is an
//!    invertible rootfix — one Euler prefix sum;
//! 3. paths are processed level by level: a path at light depth ℓ seeds
//!    from its head's parent (finished at level ℓ−1) and folds itself with
//!    one segmented scan. Every node is scanned exactly once, and there are
//!    at most `log₂ n` levels.
//!
//! This is what keeps Step 2A's path-maxima inside the paper's linear
//! preprocessing budget (the alternative — pointer doubling — costs
//! `Θ(n log n)`, measured in E12).

use crate::euler::EulerTour;
use crate::forest::Forest;
use pardict_pram::{ceil_log2, list_rank_random_mate_full, radix_sort_by_key, Pram};

/// For every node `v`, the fold `op(values[root], …, values[v])` along the
/// root path (inclusive). `op` must be associative; `id` its identity.
///
/// Expected `O(n)` work, `O(log² n)` depth.
#[must_use]
pub fn rootfix<T, F>(
    pram: &Pram,
    forest: &Forest,
    tour: &EulerTour,
    values: &[T],
    id: T,
    op: F,
    seed: u64,
) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync + Send + Copy,
{
    let n = forest.len();
    assert_eq!(values.len(), n);
    assert_eq!(tour.num_nodes(), n);
    if n == 0 {
        return Vec::new();
    }

    // Subtree sizes from the Euler tour intervals.
    let size = |v: usize| -> usize { (tour.last[v] - tour.first[v]) / 2 + 1 };

    // Heavy child of each node (largest subtree; ties to the smaller id).
    let heavy: Vec<usize> = pram.tabulate_costed(n, |v| {
        let mut best = usize::MAX;
        let mut best_size = 0usize;
        for &c in forest.children(v) {
            let s = size(c);
            if s > best_size {
                best_size = s;
                best = c;
            }
        }
        (best, forest.children(v).len() as u64 + 1)
    });

    // Heavy chains as upward lists: next[v] = parent if v is its parent's
    // heavy child, else v (v is a path head).
    let next: Vec<usize> = pram.tabulate(n, |v| {
        let p = forest.parent(v);
        if p != v && heavy[p] == v {
            p
        } else {
            v
        }
    });
    let ranks = list_rank_random_mate_full(pram, &next, seed ^ 0x500F);
    // rank[v] = distance from v up to its path head; tail[v] = the head.
    let head = ranks.tail;
    let rank = ranks.rank;

    // Light depth of each node's path head: the number of path heads
    // (excluding roots) on the root path — an invertible rootfix, done with
    // two prefix sums over the tour.
    let is_light_head: Vec<u64> =
        pram.tabulate(n, |v| u64::from(head[v] == v && !forest.is_root(v)));
    let tour_len = tour.seq.len();
    let opens: Vec<u64> = pram.tabulate(tour_len, |p| {
        let v = tour.seq[p];
        if tour.first[v] == p {
            is_light_head[v]
        } else {
            0
        }
    });
    let closes: Vec<u64> = pram.tabulate(tour_len, |p| {
        let v = tour.seq[p];
        if tour.last[v] == p {
            is_light_head[v]
        } else {
            0
        }
    });
    let open_pre = pram.scan_inclusive_sum(&opens);
    let close_pre = pram.scan_exclusive_sum(&closes);
    // ld(v) = #opens at positions <= first[v]  -  #closes at positions < first[v].
    let ld: Vec<u64> = pram.tabulate(n, |v| {
        let p = tour.first[v];
        open_pre[p] - close_pre[p]
    });

    // Lay every path out contiguously, heads first, ordered by
    // (light depth, head, rank): one stable radix sort per component key.
    let order: Vec<u32> = (0..n as u32).collect();
    let order = radix_sort_by_key(pram, &order, |&v| rank[v as usize]);
    let order = radix_sort_by_key(pram, &order, |&v| head[v as usize] as u64);
    let order = radix_sort_by_key(pram, &order, |&v| ld[head[v as usize]]);

    // Level boundaries in the sorted layout.
    let max_ld = pram
        .reduce(&ld, 0u64, |a, b| a.max(b))
        .min(ceil_log2(n.max(2)) as u64 + 1);
    let level_start: Vec<usize> = {
        // First index in `order` whose head-ld is >= l, for l = 0..=max+1.
        let lds: Vec<u64> = pram.map(&order, |_, &v| ld[head[v as usize]]);
        let mut starts = vec![order.len(); max_ld as usize + 2];
        pram.ledger().round(order.len() as u64);
        for (i, &l) in lds.iter().enumerate().rev() {
            starts[l as usize] = i;
        }
        // Make monotone (levels with no paths).
        for l in (0..starts.len() - 1).rev() {
            if starts[l] > starts[l + 1] {
                starts[l] = starts[l + 1];
            }
        }
        starts
    };

    // Process levels; each level is one segmented inclusive scan over its
    // slice of `order`, seeded per path from the head's parent.
    let mut out = vec![id; n];
    for l in 0..=max_ld as usize {
        let (lo, hi) = (level_start[l], level_start[l + 1]);
        if lo >= hi {
            continue;
        }
        let slice = &order[lo..hi];
        // Element: (path head as segment id, folded value).
        let elems: Vec<(u32, T)> = pram.map(slice, |_, &v| {
            let v = v as usize;
            let h = head[v];
            let val = if v == h {
                // Seed with the finished value above the light edge.
                let p = forest.parent(h);
                if p == h {
                    values[h]
                } else {
                    op(out[p], values[h])
                }
            } else {
                values[v]
            };
            (h as u32, val)
        });
        let scanned = pram.scan_inclusive(&elems, (u32::MAX, id), |a, b| {
            if a.0 != b.0 {
                b
            } else {
                (b.0, op(a.1, b.1))
            }
        });
        pram.ledger().round(slice.len() as u64);
        for (i, &v) in slice.iter().enumerate() {
            out[v as usize] = scanned[i].1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::{Pram, SplitMix64};

    fn naive_rootfix<T: Copy>(parent: &[usize], values: &[T], op: impl Fn(T, T) -> T) -> Vec<T> {
        let n = parent.len();
        (0..n)
            .map(|v| {
                let mut chain = vec![v];
                let mut u = v;
                while parent[u] != u {
                    u = parent[u];
                    chain.push(u);
                }
                chain.reverse();
                let mut acc = values[chain[0]];
                for &w in &chain[1..] {
                    acc = op(acc, values[w]);
                }
                acc
            })
            .collect()
    }

    fn check_max_and_sum(parent: &[usize], seed: u64) {
        let pram = Pram::seq();
        let n = parent.len();
        let mut rng = SplitMix64::new(seed);
        let values: Vec<i64> = (0..n).map(|_| rng.next_below(100) as i64 - 50).collect();
        let f = Forest::from_parents(&pram, parent);
        let tour = EulerTour::build(&pram, &f, seed);
        let got_max = rootfix(&pram, &f, &tour, &values, i64::MIN, |a, b| a.max(b), seed);
        assert_eq!(got_max, naive_rootfix(parent, &values, |a, b| a.max(b)));
        let got_sum = rootfix(&pram, &f, &tour, &values, 0, |a, b| a + b, seed);
        assert_eq!(got_sum, naive_rootfix(parent, &values, |a, b| a + b));
    }

    #[test]
    fn path_star_and_balanced() {
        let n = 300;
        // Path.
        let path: Vec<usize> = (0..n).map(|v: usize| v.saturating_sub(1)).collect();
        check_max_and_sum(&path, 1);
        // Star.
        let star = vec![0usize; n];
        check_max_and_sum(&star, 2);
        // Balanced binary.
        let bin: Vec<usize> = (0..n)
            .map(|v| if v == 0 { 0 } else { (v - 1) / 2 })
            .collect();
        check_max_and_sum(&bin, 3);
    }

    #[test]
    fn random_trees_and_forests() {
        let mut rng = SplitMix64::new(9);
        for seed in 0..5u64 {
            let n = 400;
            let roots = 1 + (seed as usize % 3);
            let parent: Vec<usize> = (0..n)
                .map(|v| {
                    if v < roots {
                        v
                    } else {
                        rng.next_below(v as u64) as usize
                    }
                })
                .collect();
            check_max_and_sum(&parent, seed + 20);
        }
    }

    #[test]
    fn noncommutative_op() {
        // String-like op: keep the deepest non-identity label (right bias).
        let parent = vec![0, 0, 1, 1, 0, 4];
        let values: Vec<i64> = vec![0, 7, 0, 9, 0, 3];
        let pram = Pram::seq();
        let f = Forest::from_parents(&pram, &parent);
        let tour = EulerTour::build(&pram, &f, 4);
        let pick_last = |a: i64, b: i64| if b != 0 { b } else { a };
        let got = rootfix(&pram, &f, &tour, &values, 0, pick_last, 4);
        assert_eq!(got, naive_rootfix(&parent, &values, pick_last));
    }

    #[test]
    fn work_is_linear_depth_polylog() {
        let mut per_node = Vec::new();
        for n in [1usize << 13, 1 << 15, 1 << 17] {
            let mut rng = SplitMix64::new(5);
            let parent: Vec<usize> = (0..n)
                .map(|v: usize| {
                    if v == 0 {
                        0
                    } else {
                        rng.next_below(v as u64) as usize
                    }
                })
                .collect();
            let values: Vec<i64> = (0..n).map(|_| rng.next_below(1000) as i64).collect();
            let pram = Pram::seq();
            let f = Forest::from_parents(&pram, &parent);
            let tour = EulerTour::build(&pram, &f, 6);
            let (_, cost) =
                pram.metered(|p| rootfix(p, &f, &tour, &values, i64::MIN, |a, b| a.max(b), 7));
            per_node.push(cost.work as f64 / n as f64);
            let lg = u64::from(ceil_log2(n));
            assert!(cost.depth < 40 * lg * lg, "depth {} at n={n}", cost.depth);
        }
        assert!(
            per_node[2] < per_node[0] * 1.5 + 2.0,
            "rootfix work superlinear: {per_node:?}"
        );
    }

    #[test]
    fn deep_chain_of_heavy_paths() {
        // A "caterpillar" alternating heavy/light edges stresses the level
        // machinery: spine nodes have a big heavy subtree and a light leaf.
        let mut parent = vec![0usize];
        let mut spine = 0usize;
        for _ in 0..60 {
            // light leaf
            parent.push(spine);
            // heavy continuation
            parent.push(spine);
            spine = parent.len() - 1;
        }
        check_max_and_sum(&parent, 31);
    }
}
