//! A tour of the PRAM substrate layer: run the classic primitives and
//! watch the work/depth ledger confirm their textbook bounds.
//!
//! ```sh
//! cargo run --release --example pram_playground
//! ```

use pardict::graph::{EulerTour, Forest};
use pardict::pram::{ceil_log2, list_rank_random_mate, list_rank_wyllie, Pram, SplitMix64};
use pardict::rmq::LinearRmq;
use pardict::suffix::SuffixTree;

fn main() {
    println!(
        "{:<28} {:>9} {:>12} {:>10} {:>8}",
        "primitive", "n", "work", "work/n", "depth"
    );

    let n = 1 << 18;
    let mut rng = SplitMix64::new(5);

    // Prefix sums.
    let pram = Pram::par();
    let xs: Vec<u64> = (0..n as u64).collect();
    let (_, c) = pram.metered(|p| p.scan_exclusive_sum(&xs));
    report("prefix sums (scan)", n, c);

    // List ranking: Wyllie vs random-mate.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let mut next = vec![0usize; n];
    for w in perm.windows(2) {
        next[w[0]] = w[1];
    }
    next[perm[n - 1]] = perm[n - 1];
    let pram = Pram::par();
    let (_, c) = pram.metered(|p| list_rank_wyllie(p, &next));
    report("list ranking (Wyllie)", n, c);
    let pram = Pram::par();
    let (_, c) = pram.metered(|p| list_rank_random_mate(p, &next, 3));
    report("list ranking (random-mate)", n, c);

    // Euler tour of a random tree.
    let parent: Vec<usize> = (0..n)
        .map(|v: usize| {
            if v == 0 {
                0
            } else {
                rng.next_below(v as u64) as usize
            }
        })
        .collect();
    let pram = Pram::par();
    let forest = Forest::from_parents(&pram, &parent);
    let (_, c) = pram.metered(|p| EulerTour::build(p, &forest, 8));
    report("Euler tour (list ranking)", n, c);

    // Linear-work RMQ (block stack masks + sparse-table summary).
    let vals: Vec<u32> = (0..n).map(|_| rng.next_below(1000) as u32).collect();
    let pram = Pram::par();
    let (_, c) = pram.metered(|p| LinearRmq::new_min(p, vals));
    report("linear RMQ preprocessing", n, c);

    // Suffix tree (Lemma 2.1 object).
    let text: Vec<u8> = (0..n)
        .map(|_| (rng.next_below(4) + b'A' as u64) as u8)
        .collect();
    let pram = Pram::par();
    let (_, c) = pram.metered(|p| SuffixTree::build(p, &text, 6));
    report("suffix tree (SA+LCP+ANSV)", n, c);

    println!(
        "\nlog2(n) = {}; every depth above is a small multiple of it, and work/n is O(1).",
        ceil_log2(n)
    );
}

fn report(name: &str, n: usize, c: pardict::pram::Cost) {
    println!(
        "{:<28} {:>9} {:>12} {:>10.2} {:>8}",
        name,
        n,
        c.work,
        c.work as f64 / n as f64,
        c.depth
    );
}
