//! Compressing against a fixed codebook (static dictionary, §5).
//!
//! A transmission scenario: sender and receiver share a fixed dictionary
//! of phrases (with the prefix property); messages are encoded as a
//! sequence of dictionary references, and fewer references = fewer bits.
//! This example compares the paper's optimal parser against the greedy
//! and longest-fragment-first heuristics and the exact-but-expensive BFS
//! baseline, on Markov-English-like messages.
//!
//! ```sh
//! cargo run --release --example static_codebook
//! ```

use pardict::prelude::*;
use pardict::workloads::{dictionary_from_text, markov_text};

fn main() {
    let pram = Pram::par();
    let alpha = Alphabet::lowercase();

    // Shared codebook: all single letters (so everything parses) plus
    // phrases harvested from a training corpus.
    let training = markov_text(1, 50_000, alpha);
    let mut words: Vec<Vec<u8>> = (0..alpha.size()).map(|i| vec![alpha.symbol(i)]).collect();
    words.extend(dictionary_from_text(2, &training, 120, 3, 12));
    let dict = Dictionary::new(words);
    let matcher = DictMatcher::build(&pram, dict.clone(), 3);
    println!(
        "codebook: {} words, d = {}\n",
        dict.num_patterns(),
        dict.total_len()
    );

    println!(
        "{:>8}  {:>8} {:>8} {:>8} {:>8}   {:>12} {:>12}",
        "n", "optimal", "greedy", "LFF", "BFS", "opt work", "BFS work"
    );
    for n in [1_000usize, 5_000, 20_000] {
        // Messages are excerpts of the corpus the codebook was trained on
        // (the realistic transmission case), so codebook words hit often.
        let msg = training[n..2 * n].to_vec();
        let (opt, c_opt) = pram.metered(|p| optimal_parse(p, &matcher.pattern_prefixes(p, &msg)));
        let (bfs, c_bfs) = pram.metered(|p| bfs_parse(p, &matcher.pattern_prefixes(p, &msg)));
        let m = matcher.pattern_prefixes(&pram, &msg);
        let greedy = greedy_parse(&pram, n, |x| m[x]);
        let lff = lff_parse(&pram, &m);
        let (opt, bfs, greedy, lff) = (opt.unwrap(), bfs.unwrap(), greedy.unwrap(), lff.unwrap());
        assert_eq!(opt.expand(&dict), msg);
        assert_eq!(opt.num_phrases(), bfs.num_phrases(), "optimality");
        println!(
            "{n:>8}  {:>8} {:>8} {:>8} {:>8}   {:>12} {:>12}",
            opt.num_phrases(),
            greedy.num_phrases(),
            lff.num_phrases(),
            bfs.num_phrases(),
            c_opt.work,
            c_bfs.work
        );
    }
    println!("\noptimal == BFS phrase counts at a fraction of the work (Lemma 5.1/5.2);");
    println!("greedy and LFF pay extra references.");
}
