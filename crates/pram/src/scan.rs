//! Reductions and prefix scans with the classic work-optimal block structure.
//!
//! A scan over `n` elements uses virtual processors owning blocks of
//! `Θ(log n)` elements: a local pass per block (depth = block length), a
//! Blelloch up/down sweep over the `n / log n` block sums (depth
//! `O(log n)`), and a local downsweep. Total: `O(n)` work, `O(log n)` depth —
//! exactly the envelope the paper's Lemma-level machinery assumes.

use crate::ceil_log2;
use crate::ctx::Pram;
use rayon::prelude::*;

/// Threshold mirroring `ctx::PAR_THRESHOLD` for block-level parallelism.
const PAR_BLOCKS: usize = 8;

impl Pram {
    /// Associative reduction of `xs` with identity `id`.
    ///
    /// `O(n)` work, `O(log n)` depth.
    pub fn reduce<T, F>(&self, xs: &[T], id: T, op: F) -> T
    where
        T: Copy + Send + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        let n = xs.len();
        if n == 0 {
            return id;
        }
        let b = block_len(n);
        let blocks: Vec<&[T]> = xs.chunks(b).collect();
        // Local pass: each virtual processor folds its block.
        self.ledger().charge_work(n as u64);
        self.ledger().charge_depth(b as u64);
        let sums: Vec<T> = if self.mode() == crate::Mode::Par && blocks.len() >= PAR_BLOCKS {
            blocks
                .par_iter()
                .map(|c| c.iter().copied().fold(id, &op))
                .collect()
        } else {
            blocks
                .iter()
                .map(|c| c.iter().copied().fold(id, &op))
                .collect()
        };
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
        let nblocks = n.div_ceil(b);

        // Phase 1: local block reductions. Depth = block length.
        self.ledger().charge_work(n as u64);
        self.ledger().charge_depth(b as u64);
        let mut sums: Vec<T> = xs
            .chunks(b)
            .map(|c| c.iter().copied().fold(id, &op))
            .collect();

        // Phase 2: Blelloch up/down sweep over the block sums, turning them
        // into exclusive block offsets. Depth = 2·ceil(log2(#blocks)).
        self.exclusive_sweep_in_place(&mut sums, id, &op);

        // Phase 3: local downsweep writing the final prefix values.
        self.ledger().charge_work(n as u64);
        self.ledger().charge_depth(b as u64);
        let emit = |(bi, chunk): (usize, &[T])| -> Vec<T> {
            let mut acc = sums[bi];
            let mut out = Vec::with_capacity(chunk.len());
            for &x in chunk {
                out.push(acc);
                acc = op(acc, x);
            }
            out
        };
        if self.mode() == crate::Mode::Par && nblocks >= PAR_BLOCKS {
            xs.chunks(b)
                .enumerate()
                .collect::<Vec<_>>()
                .into_par_iter()
                .flat_map_iter(emit)
                .collect()
        } else {
            xs.chunks(b).enumerate().flat_map(emit).collect()
        }
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
    use crate::{Mode, Pram};

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

    #[test]
    fn par_and_seq_agree() {
        let s = Pram::new(Mode::Seq);
        let p = Pram::new(Mode::Par);
        let xs: Vec<u64> = (0..10_000).map(|i| i % 97).collect();
        assert_eq!(s.scan_exclusive_sum(&xs), p.scan_exclusive_sum(&xs));
        assert_eq!(s.cost(), p.cost());
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
