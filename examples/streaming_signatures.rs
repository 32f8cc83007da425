//! Streaming signature matching with a changing rule set — the adaptive
//! dictionary matching extension ([AF91], cited by the paper).
//!
//! An intrusion-detection-style loop: network "packets" stream through a
//! matcher whose signature set evolves (new threat signatures added, stale
//! ones retired). Each epoch's rule change is one `DictDelta`;
//! `SegmentedMatcher::apply_delta` rebuilds only the segments the edit
//! touches and hands back a matcher identical to a from-scratch build of
//! the new rule set.
//!
//! ```sh
//! cargo run --release --example streaming_signatures
//! ```

use pardict::pram::SplitMix64;
use pardict::prelude::*;
use pardict::workloads::random_text;

fn main() {
    let pram = Pram::par();
    let alpha = Alphabet::lowercase();
    let mut rng = SplitMix64::new(2026);

    // Seed rules.
    let mut live: Vec<Vec<u8>> = [&b"attack"[..], b"probe", b"xmas", b"sqlmap", b"rooted"]
        .iter()
        .map(|sig| sig.to_vec())
        .collect();
    let mut matcher = SegmentedMatcher::build(&pram, live.clone());

    println!("epoch  rules  segments  packets  hits  (sample)");
    for epoch in 0..6 {
        // Rule churn: one retirement, one or two fresh signatures.
        let mut delta = DictDelta::default();
        if live.len() > 3 {
            let sig = live[rng.next_below(live.len() as u64) as usize].clone();
            println!("  [-] retired {:?}", String::from_utf8_lossy(&sig));
            delta.removes.push(sig);
        }
        for _ in 0..=rng.next_below(2) {
            let len = 4 + rng.next_below(5) as usize;
            let sig: Vec<u8> = (0..len).map(|_| alpha.sample(&mut rng)).collect();
            println!("  [+] added   {:?}", String::from_utf8_lossy(&sig));
            delta.adds.push(sig);
        }
        matcher = matcher
            .apply_delta(&pram, &delta)
            .expect("retires a live rule and never empties the set")
            .0;
        live = matcher.patterns();

        // A batch of packets; some carry live signatures.
        let mut hits = 0usize;
        let mut sample = String::new();
        let packets = 40;
        for p in 0..packets {
            let mut pkt = random_text(rng.next_u64(), 120, alpha);
            if p % 3 == 0 {
                let sig = &live[rng.next_below(live.len() as u64) as usize];
                let at = rng.next_below((pkt.len() - sig.len()) as u64) as usize;
                pkt[at..at + sig.len()].copy_from_slice(sig);
            }
            let m = matcher.match_text(&pram, &pkt);
            for (i, hit) in m.iter_hits() {
                hits += 1;
                if sample.is_empty() {
                    sample = format!(
                        "pkt{p}@{i}: {:?}",
                        String::from_utf8_lossy(&pkt[i..i + hit.len as usize])
                    );
                }
            }
        }
        println!(
            "{epoch:>5}  {:>5}  {:>8}  {packets:>7}  {hits:>4}  {sample}",
            matcher.num_patterns(),
            matcher.num_segments(),
        );
    }
    println!("\nevery epoch's matcher equals a scratch build of its rule set; past");
    println!("64 rules the list is cut into content-defined segments and a delta");
    println!("rebuilds only the segments it touches.");
}
