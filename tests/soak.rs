//! Long-running randomized soak tests — `#[ignore]`d by default; run with
//!
//! ```sh
//! scripts/soak.sh            # time-budgeted, release mode
//! cargo test --release --test soak -- --ignored
//! ```
//!
//! Each soak is a parameterized driver: the `#[ignore]`d test runs it at
//! full scale (minutes), and an un-ignored `*_smoke` twin runs the same
//! code path at sub-second scale so tier-1 (`cargo test -q`) always
//! exercises a slice of every soak. Seeds are fixed constants, so a soak
//! failure reproduces by rerunning the named test — see TESTING.md.

use pardict::pram::SplitMix64;
use pardict::prelude::*;
use pardict::workloads::{
    dictionary_from_text, dna_text, fibonacci_word, markov_text, periodic_text,
    prefix_heavy_dictionary, random_dictionary, random_text, repetitive_text,
    text_with_planted_matches, zipf_text,
};

fn corpora(seed: u64, n: usize) -> Vec<Vec<u8>> {
    vec![
        random_text(seed, n, Alphabet::binary()),
        random_text(seed + 1, n, Alphabet::lowercase()),
        markov_text(seed + 2, n, Alphabet::dna()),
        dna_text(seed + 3, n),
        repetitive_text(seed + 4, n, Alphabet::dna()),
        zipf_text(seed + 5, n, 80, Alphabet::lowercase()),
        fibonacci_word(n),
        periodic_text(b"abcab", n),
    ]
}

/// Matcher vs Aho–Corasick over randomized dictionaries and planted
/// texts; `rounds` rounds over texts of `base_n..base_n + spread` bytes.
fn run_dictionary_matching(rounds: u64, base_n: usize, spread: u64) {
    let pram = Pram::seq();
    let mut rng = SplitMix64::new(2025);
    for round in 0..rounds {
        let alpha =
            [Alphabet::binary(), Alphabet::dna(), Alphabet::lowercase()][(round % 3) as usize];
        let k = 5 + rng.next_below(40) as usize;
        let maxlen = 2 + rng.next_below(18) as usize;
        let patterns = if round % 2 == 0 {
            random_dictionary(round, k, 1, maxlen, alpha)
        } else {
            prefix_heavy_dictionary(round, k, 3, maxlen, alpha)
        };
        let dict = Dictionary::new(patterns);
        let n = base_n + rng.next_below(spread) as usize;
        let text = text_with_planted_matches(round + 99, dict.patterns(), n, 30, alpha);
        let got = dictionary_match(&pram, &dict, &text, round);
        let want = AhoCorasick::build(&dict).match_text(&text);
        for i in 0..text.len() {
            assert_eq!(
                got.get(i).map(|m| m.len),
                want.get(i).map(|m| m.len),
                "round {round}, position {i}"
            );
        }
    }
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn dictionary_matching_soak() {
    run_dictionary_matching(20, 2000, 6000);
}

#[test]
fn dictionary_matching_soak_smoke() {
    run_dictionary_matching(2, 600, 400);
}

/// LZ1 compress/decompress/wire round-trip over every corpus shape at
/// `n` bytes each.
fn run_lz1_roundtrip(n: usize) {
    let pram = Pram::seq();
    for (k, text) in corpora(7, n).into_iter().enumerate() {
        let tokens = lz1_compress(&pram, &text, k as u64);
        assert_eq!(
            lz1_decompress(&pram, &tokens, k as u64 + 1),
            text,
            "corpus {k}"
        );
        assert_eq!(tokens, delta_compress(&pram, &[], &text), "corpus {k}");
        // Wire format survives too.
        let wire = pardict::compress::encode_tokens(&tokens);
        assert_eq!(
            pardict::compress::decode_tokens(&wire).unwrap(),
            tokens,
            "corpus {k}"
        );
    }
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn lz1_roundtrip_soak() {
    run_lz1_roundtrip(60_000);
}

#[test]
fn lz1_roundtrip_soak_smoke() {
    run_lz1_roundtrip(3000);
}

/// Optimal vs BFS static parsing over `seeds` seeded corpora of `n`
/// bytes, parsing the middle `msg` slice of each.
fn run_static_parse(seeds: u64, n: usize, msg: std::ops::Range<usize>) {
    let pram = Pram::seq();
    for seed in 0..seeds {
        let alpha = Alphabet::dna();
        let corpus = markov_text(seed, n, alpha);
        let mut words: Vec<Vec<u8>> = (0..alpha.size()).map(|i| vec![alpha.symbol(i)]).collect();
        words.extend(dictionary_from_text(seed + 1, &corpus, 100, 2, 16));
        let dict = Dictionary::new(words);
        let matcher = DictMatcher::build(&pram, dict.clone(), seed + 2);
        let msg = &corpus[msg.clone()];
        let opt = optimal_parse(&pram, &matcher, msg).unwrap();
        let bfs = bfs_parse(&pram, &matcher, msg).unwrap();
        assert_eq!(opt.num_phrases(), bfs.num_phrases(), "seed {seed}");
        assert_eq!(opt.expand(&dict), msg);
    }
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn static_parse_soak() {
    run_static_parse(8, 30_000, 5000..15_000);
}

#[test]
fn static_parse_soak_smoke() {
    run_static_parse(2, 3000, 1000..2000);
}

/// A dictionary under insert/remove churn: a [`SegmentedMatcher`] carried
/// along a chain of `steps` [`DictDelta`]s, cross-checked against brute
/// force on the live set every tenth step over a `text_len`-byte text.
///
/// The live count walks back and forth across `SINGLE_SEGMENT_MAX`, so the
/// chain keeps switching between the single-segment fast path and the
/// merged multi-segment path. Two `DictDelta` rules shape the driver: a
/// remove drops *every* pattern equal to it (the model retains by value),
/// and a delta may not empty the set (`DeltaError::EmptyResult`) — the
/// front pattern is never retired, so no scripted delta can.
fn run_adaptive_churn(steps: u64, text_len: usize) {
    use pardict::core::segmented::{pattern_identity, SEGMENT_TARGET, SINGLE_SEGMENT_MAX};
    let (low, high) = (SINGLE_SEGMENT_MAX - 4, SINGLE_SEGMENT_MAX + 4);
    let pram = Pram::seq();
    let mut rng = SplitMix64::new(11);
    let alpha = Alphabet::dna();
    let text = markov_text(5, text_len, alpha);
    let fresh = |rng: &mut SplitMix64| -> Vec<u8> {
        let len = 1 + rng.next_below(10) as usize;
        (0..len).map(|_| alpha.sample(rng)).collect()
    };
    // Segment cuts are content-defined (about one pattern in 256 is a
    // boundary), so a ~70-pattern list would usually stay one segment.
    // Keep one boundary pattern at the front: above SINGLE_SEGMENT_MAX the
    // list then always cuts into at least two segments.
    let boundary = loop {
        let p = fresh(&mut rng);
        if pattern_identity(&p).is_multiple_of(SEGMENT_TARGET) {
            break p;
        }
    };
    let mut live = vec![boundary.clone()];
    live.extend((1..low).map(|_| fresh(&mut rng)));
    let mut matcher = SegmentedMatcher::build(&pram, live.clone());
    let (mut saw_single, mut saw_multi) = (false, false);
    let mut growing = true;
    for step in 0..steps {
        if live.len() >= high {
            growing = false;
        } else if live.len() <= low {
            growing = true;
        }
        let edits = 1 + rng.next_below(3) as usize;
        let mut delta = DictDelta::default();
        if (rng.next_below(5) != 0) == growing {
            delta.adds = (0..edits).map(|_| fresh(&mut rng)).collect();
        } else {
            for _ in 0..edits {
                let victim = &live[rng.next_below(live.len() as u64) as usize];
                if *victim != boundary && !delta.removes.contains(victim) {
                    delta.removes.push(victim.clone());
                }
            }
        }
        live.retain(|p| !delta.removes.contains(p));
        live.extend(delta.adds.iter().cloned());
        matcher = matcher
            .apply_delta(&pram, &delta)
            .unwrap_or_else(|e| panic!("step {step}: {e}"))
            .0;
        assert_eq!(matcher.patterns(), live, "step {step}");
        if matcher.num_segments() == 1 {
            saw_single = true;
        } else {
            saw_multi = true;
        }
        if step % 10 == 9 {
            let want = pardict::core::brute_force_matches(&Dictionary::new(live.clone()), &text);
            let got = matcher.match_text(&pram, &text);
            for i in 0..text.len() {
                assert_eq!(
                    got.get(i).map(|m| m.len),
                    want.get(i).map(|m| m.len),
                    "step {step}, position {i}"
                );
            }
        }
    }
    assert!(
        saw_single && saw_multi,
        "churn never crossed SINGLE_SEGMENT_MAX both ways"
    );
}

#[test]
#[ignore = "soak: minutes of runtime"]
fn adaptive_churn_soak() {
    run_adaptive_churn(150, 4000);
}

#[test]
fn adaptive_churn_soak_smoke() {
    run_adaptive_churn(30, 600);
}
