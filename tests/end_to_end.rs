//! Cross-crate integration tests: every paper result exercised through the
//! public facade, with exact oracles.

use pardict::prelude::*;
use pardict::workloads::{
    dictionary_from_text, dna_text, fibonacci_word, markov_text, periodic_text,
    prefix_heavy_dictionary, random_dictionary, random_text, repetitive_text,
    text_with_planted_matches,
};

#[test]
fn theorem_3_1_matching_equals_aho_corasick_across_workloads() {
    let pram = Pram::seq();
    let cases: Vec<(Dictionary, Vec<u8>)> = vec![
        (
            Dictionary::new(random_dictionary(1, 25, 2, 10, Alphabet::dna())),
            text_with_planted_matches(
                2,
                &random_dictionary(1, 25, 2, 10, Alphabet::dna()),
                1500,
                30,
                Alphabet::dna(),
            ),
        ),
        (
            Dictionary::new(prefix_heavy_dictionary(3, 30, 5, 6, Alphabet::lowercase())),
            markov_text(4, 1200, Alphabet::lowercase()),
        ),
        (
            Dictionary::new(random_dictionary(5, 8, 1, 6, Alphabet::binary())),
            fibonacci_word(1000),
        ),
        (
            Dictionary::new(vec![b"ab".to_vec(), b"ba".to_vec(), b"aba".to_vec()]),
            periodic_text(b"ab", 800),
        ),
    ];
    for (k, (dict, text)) in cases.into_iter().enumerate() {
        let got = dictionary_match(&pram, &dict, &text, 100 + k as u64);
        let want = AhoCorasick::build(&dict).match_text(&text);
        for i in 0..text.len() {
            assert_eq!(
                got.get(i).map(|m| m.len),
                want.get(i).map(|m| m.len),
                "case {k}, position {i}"
            );
        }
    }
}

#[test]
fn theorem_3_1_parallel_mode_matches_sequential_mode() {
    let seq = Pram::seq();
    let par = Pram::par();
    let dict = Dictionary::new(random_dictionary(7, 30, 3, 12, Alphabet::dna()));
    let text = text_with_planted_matches(8, dict.patterns(), 8000, 25, Alphabet::dna());
    let a = dictionary_match(&seq, &dict, &text, 9);
    let b = dictionary_match(&par, &dict, &text, 9);
    assert_eq!(a.as_slice(), b.as_slice());
    // Same algorithm, same charges.
    assert_eq!(seq.cost(), par.cost());
}

#[test]
fn theorems_4_2_4_3_lz1_roundtrip_on_all_corpora() {
    let pram = Pram::seq();
    let corpora: Vec<Vec<u8>> = vec![
        random_text(1, 2000, Alphabet::lowercase()),
        markov_text(2, 3000, Alphabet::dna()),
        dna_text(3, 2500),
        repetitive_text(4, 4000, Alphabet::binary()),
        fibonacci_word(1597),
        periodic_text(b"abcabd", 1800),
    ];
    for (k, text) in corpora.into_iter().enumerate() {
        let tokens = lz1_compress(&pram, &text, 50 + k as u64);
        assert_eq!(
            lz1_decompress(&pram, &tokens, 60 + k as u64),
            text,
            "corpus {k}"
        );
        // The parallel parse must equal the shipped sequential one.
        let seq_tokens = delta_compress(&pram, &[], &text);
        assert_eq!(tokens, seq_tokens, "corpus {k}");
        // And the n-log-n baseline.
        let base = lz1_nlogn_baseline(&pram, &text, 70 + k as u64);
        assert_eq!(tokens.len(), base.len(), "corpus {k} vs baseline");
    }
}

#[test]
fn theorem_5_3_optimal_parse_equals_bfs_on_workloads() {
    let pram = Pram::seq();
    for seed in 0..4u64 {
        let alpha = Alphabet::dna();
        let mut words: Vec<Vec<u8>> = (0..alpha.size()).map(|i| vec![alpha.symbol(i)]).collect();
        let training = markov_text(seed, 4000, alpha);
        words.extend(dictionary_from_text(seed + 1, &training, 50, 2, 10));
        let dict = Dictionary::new(words);
        let matcher = DictMatcher::build(&pram, dict.clone(), seed + 2);
        let msg = markov_text(seed + 3, 1500, alpha);

        let m = matcher.pattern_prefixes(&pram, &msg);
        let opt = optimal_parse(&pram, &m).unwrap();
        let bfs = bfs_parse(&pram, &m).unwrap();
        let greedy = greedy_parse(&pram, m.len(), |x| m[x]).unwrap();
        assert_eq!(opt.num_phrases(), bfs.num_phrases(), "seed {seed}");
        assert!(opt.num_phrases() <= greedy.num_phrases());
        assert_eq!(opt.expand(&dict), msg);
    }
}

#[test]
fn substring_matching_locus_lengths_match_oracle() {
    let pram = Pram::seq();
    let dict = Dictionary::new(random_dictionary(21, 20, 3, 15, Alphabet::dna()));
    let matcher = SubstringMatcher::build(&pram, &dict, 22);
    let text = text_with_planted_matches(23, dict.patterns(), 2000, 35, Alphabet::dna());
    let loci = substring_match(&pram, &matcher, &text);
    let ms = pardict::core::matching_statistics_seq(matcher.tree(), &text);
    for i in 0..text.len() {
        assert_eq!(loci[i].len, ms[i].0, "position {i}");
    }
}

#[test]
fn las_vegas_checker_rejects_tampered_output() {
    let pram = Pram::seq();
    let dict = Dictionary::new(random_dictionary(31, 15, 3, 8, Alphabet::dna()));
    let text = text_with_planted_matches(32, dict.patterns(), 600, 30, Alphabet::dna());
    let matcher = DictMatcher::build(&pram, dict.clone(), 33);
    let good = matcher.match_text(&pram, &text);
    assert!(matcher.check(&pram, &text, &good).is_ok());

    // Tamper: claim pattern 0 somewhere it does not occur.
    let p0 = dict.patterns()[0].clone();
    let mut v = good.as_slice().to_vec();
    let mut tampered_at = None;
    for i in 0..text.len() - p0.len() {
        let occurs = &text[i..i + p0.len()] == p0.as_slice();
        if !occurs && v[i].map_or(0, |m| m.len as usize) < p0.len() {
            v[i] = Some(Match {
                id: 0,
                len: p0.len() as u32,
            });
            tampered_at = Some(i);
            break;
        }
    }
    let tampered_at = tampered_at.expect("found a tamper spot");
    let bad = Matches::new(v);
    assert!(
        matcher.check(&pram, &text, &bad).is_err(),
        "tamper at {tampered_at} accepted"
    );
}

#[test]
fn online_and_offline_matchers_agree() {
    let pram = Pram::seq();
    for seed in 0..3u64 {
        let alpha = Alphabet::dna();
        let dict = Dictionary::new(random_dictionary(seed + 60, 25, 2, 12, alpha));
        let text = text_with_planted_matches(seed + 61, dict.patterns(), 1200, 30, alpha);
        let online = dictionary_match(&pram, &dict, &text, seed);
        let offline = dictionary_match_offline(&pram, &dict, &text).unwrap();
        for i in 0..text.len() {
            assert_eq!(
                online.get(i).map(|m| m.len),
                offline.get(i).map(|m| m.len),
                "seed {seed}, position {i}"
            );
        }
    }
}

#[test]
fn delta_compression_roundtrips_against_base() {
    let pram = Pram::seq();
    let base = markov_text(71, 5000, Alphabet::lowercase());
    let mut new = base.clone();
    new.truncate(4000);
    new.extend_from_slice(b" appended release notes ");
    new.extend_from_slice(&base[1000..2000]);
    let tokens = delta_compress(&pram, &base, &new);
    assert_eq!(delta_decompress(&pram, &base, &tokens), new);
    assert!(tokens.len() < 40, "{} tokens", tokens.len());
}

#[test]
fn binary_alphabet_reduction_roundtrip() {
    // Theorem 3.1's constant-alphabet reduction: encode, match, decode.
    use pardict::core::{decode_positions, encode_binary};
    let pram = Pram::seq();
    let alpha = Alphabet::sized(16);
    let patterns = random_dictionary(41, 12, 2, 6, alpha);
    let text = text_with_planted_matches(42, &patterns, 500, 30, alpha);

    let enc_pats: Vec<Vec<u8>> = patterns
        .iter()
        .map(|p| encode_binary(p, 256).data)
        .collect();
    let enc = encode_binary(&text, 256);
    let enc_dict = Dictionary::new(enc_pats);
    let matches = dictionary_match(&pram, &enc_dict, &enc.data, 43);
    let decoded = decode_positions(&matches, enc.bits_per_symbol);

    let want = AhoCorasick::build(&Dictionary::new(patterns)).match_text(&text);
    for i in 0..text.len() {
        assert_eq!(
            decoded.get(i).map(|m| m.len),
            want.get(i).map(|m| m.len),
            "i={i}"
        );
    }
}
