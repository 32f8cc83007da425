//! Quickstart: the three headline algorithms in one tour.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pardict::prelude::*;

fn main() {
    // A PRAM context: `par()` forks wide rounds on scoped threads, `seq()`
    // runs them sequentially.
    // Results and ledger costs are identical either way.
    let pram = Pram::par();

    // --- 1. Dictionary matching (Theorem 3.1) -------------------------
    let dict = Dictionary::new(vec![
        b"he".to_vec(),
        b"she".to_vec(),
        b"his".to_vec(),
        b"hers".to_vec(),
    ]);
    let text = b"ushers and fishers say she sells seashells";
    let (matches, cost) = pram.metered(|p| dictionary_match(p, &dict, text, 42));
    println!(
        "dictionary matching over {:?}:",
        String::from_utf8_lossy(text)
    );
    for (pos, m) in matches.iter_hits() {
        println!(
            "  pos {pos:2}: {:?} (pattern #{}, longest at that position)",
            String::from_utf8_lossy(&dict.patterns()[m.id as usize]),
            m.id
        );
    }
    println!(
        "  [Las Vegas run: {} work, {} depth for n = {}]\n",
        cost.work,
        cost.depth,
        text.len()
    );

    // --- 2. LZ1 / LZ77 compression (Theorems 4.2–4.3) ------------------
    let text = b"a rose is a rose is a rose";
    let tokens = lz1_compress(&pram, text, 7);
    println!("LZ1 parse of {:?}:", String::from_utf8_lossy(text));
    for t in &tokens {
        match t {
            Token::Literal(c) => println!("  literal {:?}", *c as char),
            Token::Copy { src, len } => println!("  copy {len} bytes from position {src}"),
        }
    }
    let roundtrip = lz1_decompress(&pram, &tokens, 9);
    assert_eq!(roundtrip, text);
    println!("  -> {} phrases, decompression round-trips\n", tokens.len());

    // --- 3. Optimal static-dictionary compression (Theorem 5.3) --------
    let dict = Dictionary::new(vec![b"aab".to_vec(), b"abbb".to_vec(), b"b".to_vec()]);
    let ac = AhoCorasick::build(&dict);
    let text = b"aabbb";
    let optimal = optimal_parse(&pram, &ac.reach_table(text)).unwrap();
    let greedy = greedy_parse(&pram, text.len(), |x| ac.longest_prefix_at(text, x)).unwrap();
    println!("static parse of {:?}:", String::from_utf8_lossy(text));
    println!(
        "  optimal: {} phrases, greedy: {} phrases",
        optimal.num_phrases(),
        greedy.num_phrases()
    );
    for ph in &optimal.phrases {
        let p = &dict.patterns()[ph.pattern as usize];
        println!(
            "  phrase at {}: {:?}",
            ph.start,
            String::from_utf8_lossy(&p[..ph.len])
        );
    }
    assert!(optimal.num_phrases() < greedy.num_phrases());
}
