//! Reductions and prefix scans with the classic work-optimal block structure.
//!
//! A scan over `n` elements uses virtual processors owning blocks of
//! `Θ(log n)` elements: a local pass per block (depth = block length), a
//! Blelloch up/down sweep over the `n / log n` block sums (depth
//! `O(log n)`), and a local downsweep. Total: `O(n)` work, `O(log n)` depth —
//! exactly the envelope the paper's Lemma-level machinery assumes.

use crate::ceil_log2;
use crate::ctx::{concat, Pram};

impl Pram {
    /// Associative reduction of `xs` with identity `id`.
    ///
    /// `O(n)` work, `O(log n)` depth.
    pub fn reduce<T, F>(&self, xs: &[T], id: T, op: F) -> T
    where
        T: Copy + Send + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        if xs.is_empty() {
            return id;
        }
        let sums = self.block_sums(xs, id, &op);
        // Tree pass over the block sums.
        self.ledger().charge_work(sums.len() as u64);
        self.ledger()
            .charge_depth(u64::from(ceil_log2(sums.len())).max(1));
        sums.into_iter().fold(id, op)
    }

    /// Exclusive prefix scan: `out[i] = op(xs[0], .., xs[i-1])`, `out[0] = id`.
    ///
    /// `O(n)` work, `O(log n)` depth.
    pub fn scan_exclusive<T, F>(&self, xs: &[T], id: T, op: F) -> Vec<T>
    where
        T: Copy + Send + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        let n = xs.len();
        if n == 0 {
            return Vec::new();
        }
        let b = block_len(n);
        let mut sums = self.block_sums(xs, id, &op);

        // Phase 2: Blelloch up/down sweep over the block sums, turning them
        // into exclusive block offsets. Depth = 2·ceil(log2(#blocks)).
        self.exclusive_sweep_in_place(&mut sums, id, &op);

        // Phase 3: local downsweep writing the final prefix values.
        self.ledger().charge_work(n as u64);
        self.ledger().charge_depth(b as u64);
        concat(self.in_parts(sums.len(), |blocks| {
            let mut out = Vec::with_capacity((blocks.len() * b).min(n));
            for bi in blocks {
                let mut acc = sums[bi];
                for &x in &xs[bi * b..((bi + 1) * b).min(n)] {
                    out.push(acc);
                    acc = op(acc, x);
                }
            }
            out
        }))
    }

    /// The local pass of both primitives: each virtual processor folds its
    /// `Θ(log n)` block. Depth = block length; forks over the blocks.
    fn block_sums<T, F>(&self, xs: &[T], id: T, op: &F) -> Vec<T>
    where
        T: Copy + Send + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        let n = xs.len();
        let b = block_len(n);
        self.ledger().charge_work(n as u64);
        self.ledger().charge_depth(b as u64);
        concat(self.in_parts(n.div_ceil(b), |blocks| {
            blocks
                .map(|bi| {
                    xs[bi * b..((bi + 1) * b).min(n)]
                        .iter()
                        .copied()
                        .fold(id, op)
                })
                .collect()
        }))
    }

    /// Inclusive prefix scan: `out[i] = op(xs[0], .., xs[i])`.
    pub fn scan_inclusive<T, F>(&self, xs: &[T], id: T, op: F) -> Vec<T>
    where
        T: Copy + Send + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        let mut out = self.scan_exclusive(xs, id, &op);
        self.for_each_mut(&mut out, |i, o| *o = op(*o, xs[i]));
        out
    }

    /// Blelloch exclusive up/down sweep over a (block-sums sized) vector.
    ///
    /// The vector is padded to a power of two with identities so both sweeps
    /// are perfectly regular; only tree depth is charged.
    fn exclusive_sweep_in_place<T, F>(&self, a: &mut Vec<T>, id: T, op: &F)
    where
        T: Copy + Send + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        let m = a.len();
        if m == 0 {
            return;
        }
        if m == 1 {
            self.ledger().round(1);
            a[0] = id;
            return;
        }
        let padded = m.next_power_of_two();
        a.resize(padded, id);
        // Upsweep.
        let mut stride = 1usize;
        while stride < padded {
            let width = padded / (2 * stride);
            self.ledger().round(width.max(1) as u64);
            let mut i = 2 * stride - 1;
            while i < padded {
                a[i] = op(a[i - stride], a[i]);
                i += 2 * stride;
            }
            stride *= 2;
        }
        // Downsweep.
        a[padded - 1] = id;
        let mut stride = padded / 2;
        loop {
            let width = padded / (2 * stride);
            self.ledger().round(width.max(1) as u64);
            let mut i = 2 * stride - 1;
            while i < padded {
                let left = a[i - stride];
                let parent = a[i];
                a[i - stride] = parent;
                // Non-commutative order matters: the right child's exclusive
                // prefix is everything before the parent, then the left
                // subtree.
                a[i] = op(parent, left);
                i += 2 * stride;
            }
            if stride == 1 {
                break;
            }
            stride /= 2;
        }
        a.truncate(m);
    }

    /// Exclusive prefix sums of `u64`s.
    pub fn scan_exclusive_sum(&self, xs: &[u64]) -> Vec<u64> {
        self.scan_exclusive(xs, 0u64, |a, b| a + b)
    }

    /// Inclusive prefix sums of `u64`s.
    pub fn scan_inclusive_sum(&self, xs: &[u64]) -> Vec<u64> {
        self.scan_inclusive(xs, 0u64, |a, b| a + b)
    }
}

/// Block length `Θ(log n)` used by the work-optimal primitives.
fn block_len(n: usize) -> usize {
    (ceil_log2(n) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::{must_fork, ran_on};
    use crate::ctx::PAR_THRESHOLD;
    use crate::{Mode, Pram};
    use std::collections::HashSet;

    fn oracle_exclusive(xs: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0;
        for &x in xs {
            out.push(acc);
            acc += x;
        }
        out
    }

    #[test]
    fn scan_matches_oracle_various_sizes() {
        let pram = Pram::seq();
        for n in [0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 4096, 5000] {
            let xs: Vec<u64> = (0..n as u64).map(|i| i * 7 % 13).collect();
            assert_eq!(pram.scan_exclusive_sum(&xs), oracle_exclusive(&xs), "n={n}");
        }
    }

    #[test]
    fn inclusive_scan_shifts_exclusive() {
        let pram = Pram::seq();
        let xs: Vec<u64> = (1..=100).collect();
        let inc = pram.scan_inclusive_sum(&xs);
        assert_eq!(inc[0], 1);
        assert_eq!(inc[99], 5050);
    }

    /// An input that the scans cut into exactly `k` blocks.
    fn items_for_blocks(k: usize) -> usize {
        (1..)
            .map(|b| k * b)
            .find(|&n| n.div_ceil(block_len(n)) == k)
            .unwrap()
    }

    #[test]
    fn par_and_seq_agree() {
        let here = std::thread::current().id();
        for blocks in [PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 1] {
            let n = items_for_blocks(blocks);
            let s = Pram::new(Mode::Seq);
            let p = Pram::new(Mode::Par);
            let xs: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
            // Affine maps under composition: a scan that must keep block order.
            let maps: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 5 + 1, i % 11)).collect();
            let compose = |f: (u64, u64), g: (u64, u64)| {
                const M: u64 = 1_000_000_007;
                ((g.0 * f.0) % M, (g.0 * f.1 + g.1) % M)
            };
            let sum = |a: u64, b: u64| a + b;
            // (units the call forks on, threads it ran on)
            let mut sides = Vec::new();

            let want = s.reduce(&xs, 0, sum);
            sides.push((
                blocks,
                ran_on(|probe| {
                    let got = p.reduce(&xs, 0, |a, b| {
                        probe();
                        a + b
                    });
                    assert_eq!(got, want, "reduce blocks={blocks}");
                }),
            ));

            let want = s.scan_exclusive_sum(&xs);
            sides.push((
                blocks,
                ran_on(|probe| {
                    let got = p.scan_exclusive(&xs, 0, |a, b| {
                        probe();
                        a + b
                    });
                    assert_eq!(got, want, "scan_exclusive blocks={blocks}");
                }),
            ));

            // Its last round is one item wide, so it forks on the items.
            let want = s.scan_inclusive(&maps, (1, 0), compose);
            sides.push((
                n,
                ran_on(|probe| {
                    let got = p.scan_inclusive(&maps, (1, 0), |f, g| {
                        probe();
                        compose(f, g)
                    });
                    assert_eq!(got, want, "scan_inclusive blocks={blocks}");
                }),
            ));

            assert_eq!(s.cost(), p.cost(), "blocks={blocks}");
            // The tree passes run on the calling thread; the other passes
            // leave it exactly when their units fork.
            for (units, seen) in sides {
                if must_fork(units) {
                    assert!(
                        seen.iter().any(|&t| t != here),
                        "{units} units never forked"
                    );
                } else {
                    assert_eq!(seen, HashSet::from([here]), "{units} units forked");
                }
            }
        }
    }

    #[test]
    fn reduce_sum_and_max() {
        let pram = Pram::seq();
        let xs: Vec<u64> = (0..1000).collect();
        assert_eq!(pram.reduce(&xs, 0, |a, b| a + b), 499_500);
        assert_eq!(pram.reduce(&xs, 0, |a, b| a.max(b)), 999);
        assert_eq!(pram.reduce(&[], 7u64, |a, b| a + b), 7);
    }

    #[test]
    fn scan_work_linear_depth_logarithmic() {
        for n in [1usize << 10, 1 << 14, 1 << 17] {
            let pram = Pram::seq();
            let xs = vec![1u64; n];
            pram.scan_exclusive_sum(&xs);
            let c = pram.cost();
            assert!(
                c.work <= 8 * n as u64,
                "scan work {} not linear in n={n}",
                c.work
            );
            assert!(
                c.depth <= 8 * u64::from(ceil_log2(n)),
                "scan depth {} not logarithmic for n={n}",
                c.depth
            );
        }
    }
}
