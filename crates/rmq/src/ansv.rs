//! All nearest smaller values (Lemma 2.4), strictly smaller: `xs[j] < xs[i]`.
//!
//! [`ansv_seq`] is the classic linear stack pass (the oracle, and what the
//! exact LZ1 route runs, charged by its count). [`ansv_par`] is the blocked parallel version:
//! per-block stack passes resolve most elements; the rest search the
//! block-minima sparse table by doubling + binary search. `O(log n)` depth;
//! work is `O(n)` on typical inputs and `O(n log n)` adversarially — the
//! BBGSV `O(log log n)`-time algorithm the paper cites shares the blocked
//! skeleton but merges across blocks more cleverly (see DESIGN.md).

use crate::sparse::SparseTable;
use pardict_pram::{ceil_log2, Pram};

/// Which direction to look for the nearest smaller element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Nearest `j < i`.
    Left,
    /// Nearest `j > i`.
    Right,
}

/// Sentinel meaning "no smaller element".
pub const NONE: usize = usize::MAX;

/// Sequential stack ANSV: `out[i]` is the nearest index on the chosen side
/// holding a strictly smaller value, or [`NONE`]; and the pass's operation
/// count, one per push and one per pop (at most `2n`). `O(n)` time.
#[must_use]
pub fn ansv_seq(xs: &[i64], side: Side) -> (Vec<usize>, u64) {
    let n = xs.len();
    let mut out = vec![NONE; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut ops = n as u64; // the pushes
    let mut visit = |i: usize| {
        while let Some(&top) = stack.last() {
            if xs[top] < xs[i] {
                break;
            }
            stack.pop();
            ops += 1;
        }
        out[i] = stack.last().copied().unwrap_or(NONE);
        stack.push(i);
    };
    match side {
        Side::Left => (0..n).for_each(&mut visit),
        Side::Right => (0..n).rev().for_each(&mut visit),
    }
    (out, ops)
}

/// Parallel blocked ANSV; identical output to [`ansv_seq`].
#[must_use]
pub fn ansv_par(pram: &Pram, xs: &[i64], side: Side) -> Vec<usize> {
    match side {
        Side::Left => ansv_par_left(pram, xs),
        Side::Right => {
            let n = xs.len();
            let rev: Vec<i64> = pram.tabulate(n, |i| xs[n - 1 - i]);
            let ans = ansv_par_left(pram, &rev);
            pram.tabulate(n, |i| {
                let a = ans[n - 1 - i];
                if a == NONE {
                    NONE
                } else {
                    n - 1 - a
                }
            })
        }
    }
}

fn ansv_par_left(pram: &Pram, xs: &[i64]) -> Vec<usize> {
    let n = xs.len();
    if n == 0 {
        return Vec::new();
    }
    let b = (ceil_log2(n) as usize).max(1);
    let nblocks = n.div_ceil(b);

    // Block minima (leftmost index of the minimum, for the in-block scan).
    let blockmin: Vec<i64> = pram.tabulate_costed(nblocks, |k| {
        let lo = k * b;
        let hi = (lo + b).min(n);
        let mut m = i64::MAX;
        for &x in &xs[lo..hi] {
            m = m.min(x);
        }
        (m, (hi - lo) as u64)
    });
    let st = SparseTable::new_min(pram, &blockmin);

    // Local stack pass per block.
    let local: Vec<Vec<usize>> = pram.tabulate_costed(nblocks, |k| {
        let lo = k * b;
        let hi = (lo + b).min(n);
        let mut out = vec![NONE; hi - lo];
        let mut stack: Vec<usize> = Vec::new();
        for i in lo..hi {
            while let Some(&top) = stack.last() {
                if xs[top] < xs[i] {
                    break;
                }
                stack.pop();
            }
            out[i - lo] = stack.last().copied().unwrap_or(NONE);
            stack.push(i);
        }
        (out, (hi - lo) as u64 * 2)
    });

    // Cross-block resolution for the unresolved.
    pram.tabulate_costed(n, |i| {
        let k = i / b;
        let within = local[k][i - k * b];
        if within != NONE {
            return (within, 1);
        }
        if k == 0 {
            return (NONE, 1);
        }
        // Doubling search over block minima for the nearest qualifying
        // block strictly left of k.
        let mut ops = 1u64;
        let mut span = 1usize;
        let mut hi = k; // exclusive
        let found_range = loop {
            let lo = hi.saturating_sub(span);
            if lo == hi {
                break None;
            }
            ops += 1;
            if st.query_value(lo, hi - 1) < xs[i] {
                break Some((lo, hi - 1));
            }
            if lo == 0 {
                break None;
            }
            hi = lo;
            span *= 2;
        };
        let Some((mut lo, mut rhi)) = found_range else {
            return (NONE, ops);
        };
        // Binary search for the rightmost qualifying block in [lo, rhi].
        while lo < rhi {
            let mid = (lo + rhi).div_ceil(2);
            ops += 1;
            if st.query_value(mid, rhi) < xs[i] {
                lo = mid;
            } else {
                rhi = mid - 1;
            }
        }
        // Rightmost qualifying element within block `lo`.
        let blo = lo * b;
        let bhi = ((lo + 1) * b).min(n);
        for j in (blo..bhi).rev() {
            ops += 1;
            if xs[j] < xs[i] {
                return (j, ops);
            }
        }
        unreachable!("block minima promised a qualifying element");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::{Pram, SplitMix64};

    fn naive(xs: &[i64], side: Side) -> Vec<usize> {
        let n = xs.len();
        (0..n)
            .map(|i| {
                let mut best = NONE;
                match side {
                    Side::Left => {
                        for j in (0..i).rev() {
                            if xs[j] < xs[i] {
                                best = j;
                                break;
                            }
                        }
                    }
                    Side::Right => {
                        for j in i + 1..n {
                            if xs[j] < xs[i] {
                                best = j;
                                break;
                            }
                        }
                    }
                }
                best
            })
            .collect()
    }

    fn both_sides(xs: &[i64]) {
        let pram = Pram::seq();
        for side in [Side::Left, Side::Right] {
            let want = naive(xs, side);
            assert_eq!(ansv_seq(xs, side).0, want, "seq {side:?}");
            assert_eq!(ansv_par(&pram, xs, side), want, "par {side:?}");
        }
    }

    #[test]
    fn small_arrays() {
        both_sides(&[]);
        both_sides(&[5]);
        both_sides(&[2, 1, 2]);
        both_sides(&[1, 1, 1, 1]);
        both_sides(&[3, 1, 4, 1, 5, 9, 2, 6]);
    }

    #[test]
    fn monotone_arrays() {
        let inc: Vec<i64> = (0..200).collect();
        let dec: Vec<i64> = (0..200).rev().collect();
        both_sides(&inc);
        both_sides(&dec);
    }

    #[test]
    fn random_arrays() {
        let mut rng = SplitMix64::new(77);
        for _ in 0..4 {
            let xs: Vec<i64> = (0..700).map(|_| rng.next_below(30) as i64).collect();
            both_sides(&xs);
        }
    }

    #[test]
    fn sawtooth_stress() {
        let xs: Vec<i64> = (0..1000)
            .map(|i| i64::from(i % 17 == 0) * -5 + (i % 7) as i64)
            .collect();
        both_sides(&xs);
    }

    #[test]
    fn par_depth_is_logarithmic() {
        let pram = Pram::seq();
        let mut rng = SplitMix64::new(3);
        let n = 1 << 15;
        let xs: Vec<i64> = (0..n).map(|_| rng.next_below(1000) as i64).collect();
        let _ = ansv_par(&pram, &xs, Side::Left);
        let c = pram.cost();
        assert!(c.depth < 40 * u64::from(ceil_log2(n)), "depth {}", c.depth);
    }
}
