//! A miniature versioned document store — the paper's "databases of
//! strings" motivation, served by delta compression.
//!
//! Stores a chain of document revisions as LZ1 deltas against their
//! predecessor, reports storage totals vs raw and vs independent
//! compression, and reconstructs an arbitrary revision by replaying
//! deltas.
//!
//! ```sh
//! cargo run --release --example version_store
//! ```

use pardict::compress::{encode_tokens, encoded_size};
use pardict::pram::SplitMix64;
use pardict::prelude::*;
use pardict::workloads::{markov_text, Alphabet};

fn main() {
    let pram = Pram::par();
    let alpha = Alphabet::lowercase();
    let mut rng = SplitMix64::new(404);

    // Revision 0, then a chain of edits: splices, appends, point edits.
    let mut revisions = vec![markov_text(1, 20_000, alpha)];
    for r in 1..8usize {
        let prev = revisions[r - 1].clone();
        let mut next = prev.clone();
        match r % 3 {
            0 => {
                // Splice a paragraph out.
                let at = 2000 + rng.next_below(8000) as usize;
                next.drain(at..at + 500);
            }
            1 => {
                // Append fresh content.
                next.extend_from_slice(&markov_text(100 + r as u64, 800, alpha));
            }
            _ => {
                // Scatter point edits.
                for _ in 0..20 {
                    let at = rng.next_below(next.len() as u64) as usize;
                    next[at] = alpha.sample(&mut rng);
                }
            }
        }
        revisions.push(next);
    }

    // Store: full LZ1 for revision 0, deltas afterwards.
    let mut stored: Vec<Vec<Token>> = Vec::new();
    let mut raw_total = 0usize;
    let mut delta_total = 0usize;
    let mut indep_total = 0usize;
    println!("rev |   raw B | indep LZ1 B | delta B | tokens");
    println!("----|---------|-------------|---------|-------");
    for (r, doc) in revisions.iter().enumerate() {
        let indep = lz1_compress(&pram, doc, r as u64);
        let tokens = if r == 0 {
            indep.clone()
        } else {
            delta_compress(&pram, &revisions[r - 1], doc)
        };
        let bytes = encoded_size(&tokens);
        raw_total += doc.len();
        delta_total += bytes;
        indep_total += encoded_size(&indep);
        println!(
            "{r:>3} | {:>7} | {:>11} | {:>7} | {:>6}",
            doc.len(),
            encoded_size(&indep),
            bytes,
            tokens.len()
        );
        // The wire format round-trips.
        assert_eq!(
            pardict::compress::decode_tokens_from(
                &encode_tokens(&tokens),
                if r == 0 { 0 } else { revisions[r - 1].len() }
            )
            .unwrap(),
            tokens
        );
        stored.push(tokens);
    }
    println!(
        "\ntotals: raw {raw_total} B, independent LZ1 {indep_total} B, delta chain {delta_total} B"
    );

    // Reconstruct the latest revision by replaying the chain.
    let mut doc = lz1_decompress(&pram, &stored[0], 1);
    for tokens in &stored[1..] {
        doc = delta_decompress(&pram, &doc, tokens);
    }
    assert_eq!(&doc, revisions.last().unwrap());
    println!(
        "replayed {} deltas; final revision verified ✔",
        stored.len() - 1
    );
}
