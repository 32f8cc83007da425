//! Linear-work O(1)-query RMQ for general arrays (Lemma 2.3).
//!
//! The block decomposition, built directly over the keys: blocks of 64,
//! and for every key `r` the block's monotone stack after pushing `r`,
//! kept as one `u64` mask. The leftmost best of `[l, r]` inside a block is
//! the lowest stack entry at or after `l` — the lowest set bit ≥ `l` of
//! `mask[r]` — and a sparse table over the `n / 64` block bests answers the
//! blocks in between. Preprocessing is one round of `n / 64` stack scans
//! (charged by pushes + pops, ≤ 2n) plus an `O((n / 64) log n)` summary:
//! `O(n)` work, `O(log n)` depth, which keeps Lemma 2.3-style tables (the
//! legal-length maxima of Step 2A, Lemma 4.1's `Lmin`, Lemma 2.6's LCP
//! minima) inside the paper's linear preprocessing budget.

use crate::sparse::SparseTable;
use pardict_pram::Pram;

/// Keys per block: one bit of a `u64` stack mask each.
const B: usize = 64;

/// O(n)-work, O(1)-query range min/max (leftmost argbest on ties).
#[derive(Debug, Clone)]
pub struct LinearRmq {
    keys: Vec<u32>,
    /// Per block, per key offset `t`: bit `s` is set iff offset `s ≤ t` is
    /// on the block's stack after pushing `t` (no key in `(s, t]` beats it).
    masks: Vec<[u64; B]>,
    /// Sparse table over the keys of the block bests.
    summary: SparseTable,
    min: bool,
}

impl LinearRmq {
    /// Range-minimum structure.
    #[must_use]
    pub fn new_min(pram: &Pram, keys: Vec<u32>) -> Self {
        Self::build(pram, keys, true)
    }

    /// Range-maximum structure (Lemma 2.3 flavour).
    #[must_use]
    pub fn new_max(pram: &Pram, keys: Vec<u32>) -> Self {
        Self::build(pram, keys, false)
    }

    fn build(pram: &Pram, keys: Vec<u32>, min: bool) -> Self {
        let n = keys.len();
        let masks: Vec<[u64; B]> = pram.tabulate_costed(n.div_ceil(B), |k| {
            let block = &keys[k * B..(k * B + B).min(n)];
            let mut out = [0u64; B];
            let mut stack = 0u64;
            let mut ops = 0u64;
            for (t, &key) in block.iter().enumerate() {
                // Pop every entry the new key strictly beats; ties stay, so
                // the leftmost of equal keys survives.
                while stack != 0 {
                    let top = B - 1 - stack.leading_zeros() as usize;
                    if !beats(min, key, block[top]) {
                        break;
                    }
                    stack ^= 1 << top;
                    ops += 1;
                }
                stack |= 1 << t;
                out[t] = stack;
                ops += 1;
            }
            (out, ops)
        });
        let bests: Vec<i64> = pram.tabulate(masks.len(), |k| {
            let last = (k * B + B - 1).min(n - 1);
            i64::from(keys[in_block(&masks, k * B, last)])
        });
        let summary = if min {
            SparseTable::new_min(pram, &bests)
        } else {
            SparseTable::new_max(pram, &bests)
        };
        Self {
            keys,
            masks,
            summary,
            min,
        }
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when built over no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys the structure was built over.
    #[must_use]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// `a < b`: whichever is better, `a` on ties.
    #[inline]
    fn pick(&self, a: usize, b: usize) -> usize {
        if beats(self.min, self.keys[b], self.keys[a]) {
            b
        } else {
            a
        }
    }

    /// Index of the best element in the inclusive range `[l, r]`
    /// (leftmost on ties). O(1).
    #[must_use]
    pub fn query(&self, l: usize, r: usize) -> usize {
        assert!(l <= r && r < self.len(), "bad range [{l}, {r}]");
        let (kl, kr) = (l / B, r / B);
        if kl == kr {
            return in_block(&self.masks, l, r);
        }
        let mut best = in_block(&self.masks, l, kl * B + B - 1);
        if kl + 1 < kr {
            let k = self.summary.query(kl + 1, kr - 1);
            best = self.pick(best, in_block(&self.masks, k * B, k * B + B - 1));
        }
        self.pick(best, in_block(&self.masks, kr * B, r))
    }

    /// Whether this is a min or max structure.
    #[cfg(test)]
    #[must_use]
    pub fn is_min(&self) -> bool {
        self.min
    }
}

/// Leftmost best of `[l, r]`, both in one block: the lowest stack entry at
/// or after `l` (`r` itself is always on the stack).
#[inline]
fn in_block(masks: &[[u64; B]], l: usize, r: usize) -> usize {
    let at_or_after_l = masks[r / B][r % B] >> (l % B);
    l + at_or_after_l.trailing_zeros() as usize
}

/// Whether key `x` is strictly better than key `y`.
#[inline]
fn beats(min: bool, x: u32, y: u32) -> bool {
    if min {
        x < y
    } else {
        x > y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::{ceil_log2, SplitMix64};

    fn random_keys(n: usize, below: u64, seed: u64) -> Vec<u32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_below(below) as u32).collect()
    }

    #[test]
    fn min_and_max_agree_with_sparse_table() {
        let pram = Pram::seq();
        let mut rng = SplitMix64::new(21);
        for (n, below) in [(400usize, 12u64), (300, 9), (1000, 1 << 20)] {
            let xs = random_keys(n, below, n as u64);
            let wide: Vec<i64> = xs.iter().map(|&x| i64::from(x)).collect();
            for (lin, st) in [
                (
                    LinearRmq::new_min(&pram, xs.clone()),
                    SparseTable::new_min(&pram, &wide),
                ),
                (
                    LinearRmq::new_max(&pram, xs.clone()),
                    SparseTable::new_max(&pram, &wide),
                ),
            ] {
                for _ in 0..1000 {
                    let l = rng.next_below(n as u64) as usize;
                    let r = l + rng.next_below((n - l) as u64) as usize;
                    assert_eq!(lin.query(l, r), st.query(l, r), "[{l},{r}]");
                }
            }
        }
    }

    #[test]
    fn every_range_around_block_edges() {
        let pram = Pram::seq();
        for n in [63usize, 64, 65, 128, 129, 200] {
            let xs = random_keys(n, 3, n as u64);
            let (lo, hi) = (
                LinearRmq::new_min(&pram, xs.clone()),
                LinearRmq::new_max(&pram, xs.clone()),
            );
            for l in 0..n {
                for r in l..n {
                    let min = (l..=r).min_by_key(|&i| (xs[i], i)).unwrap();
                    let max = (l..=r).min_by_key(|&i| (u32::MAX - xs[i], i)).unwrap();
                    assert_eq!(
                        (lo.query(l, r), hi.query(l, r)),
                        (min, max),
                        "n={n} [{l},{r}]"
                    );
                }
            }
        }
    }

    #[test]
    fn preprocessing_work_is_linear() {
        let mut ratios = Vec::new();
        for n in [1usize << 12, 1 << 15, 1 << 17] {
            let pram = Pram::seq();
            let _ = LinearRmq::new_min(&pram, random_keys(n, 1000, 2));
            ratios.push(pram.cost().work as f64 / n as f64);
        }
        assert!(
            ratios[2] <= ratios[0] * 1.5 + 2.0,
            "LinearRmq preprocessing superlinear: {ratios:?}"
        );
        // The absolute budget: ≤ 2 stack ops per key, plus the summary.
        assert!(
            ratios.iter().all(|&r| r <= 8.0),
            "LinearRmq over 8 ops/key: {ratios:?}"
        );
    }

    #[test]
    fn depth_is_logarithmic() {
        let n = 1 << 15;
        let pram = Pram::seq();
        let _ = LinearRmq::new_min(&pram, random_keys(n, 50, 3));
        let d = pram.cost().depth;
        assert!(d < 80 * u64::from(ceil_log2(n)), "depth {d}");
    }

    #[test]
    fn singleton_and_keys() {
        let pram = Pram::seq();
        let lin = LinearRmq::new_min(&pram, vec![7]);
        assert_eq!(lin.query(0, 0), 0);
        assert_eq!(lin.len(), 1);
        assert_eq!(lin.keys(), &[7]);
        assert!(lin.is_min() && !LinearRmq::new_max(&pram, vec![7]).is_min());
    }
}
