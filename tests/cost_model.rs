//! Theorem-shaped cost assertions at the workspace level: the paper's
//! bounds, checked as inequalities on the ledger. These are the
//! quick-running cousins of the EXPERIMENTS.md sweeps; they fail the build
//! if a change quietly destroys an asymptotic property.

use pardict::prelude::*;
use pardict::workloads::{markov_text, random_dictionary, text_with_planted_matches};

/// Fit: does `ys[i] / xs[i]` stay (roughly) constant? Returns the max/min
/// ratio spread.
fn flatness(xs: &[usize], ys: &[u64]) -> f64 {
    let per: Vec<f64> = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| y as f64 / x as f64)
        .collect();
    let lo = per.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = per.iter().cloned().fold(0.0, f64::max);
    hi / lo
}

#[test]
fn theorem_3_1_matching_work_is_linear_and_depth_logarithmic() {
    let alpha = Alphabet::dna();
    let dict = Dictionary::new(random_dictionary(1, 64, 4, 12, alpha));
    let pram = Pram::seq();
    let matcher = DictMatcher::build(&pram, dict.clone(), 2);
    let ns = [1usize << 11, 1 << 13, 1 << 15];
    let mut works = Vec::new();
    let mut depths = Vec::new();
    for &n in &ns {
        let text = text_with_planted_matches(n as u64, dict.patterns(), n, 25, alpha);
        let (_, c) = pram.metered(|p| matcher.match_text(p, &text));
        works.push(c.work);
        depths.push(c.depth);
    }
    assert!(
        flatness(&ns, &works) < 1.35,
        "matching work/n not flat: {works:?} over {ns:?}"
    );
    // Depth grows at most additively with log n (window count is fixed by
    // d; anchors add log-ish rounds).
    assert!(
        depths[2] < depths[0] + 200,
        "matching depth grew too fast: {depths:?}"
    );
}

#[test]
fn theorem_4_2_compression_work_linear() {
    let ns = [1usize << 12, 1 << 14, 1 << 16];
    let mut works = Vec::new();
    for &n in &ns {
        let pram = Pram::seq();
        let text = markov_text(n as u64, n, Alphabet::dna());
        let (_, c) = pram.metered(|p| lz1_compress(p, &text, 1));
        works.push(c.work);
    }
    // Allow the radix-pass step at 2^16 (documented).
    assert!(
        flatness(&ns, &works) < 1.45,
        "lz1 work/n not flat: {works:?}"
    );
}

#[test]
fn theorem_4_3_decompression_work_linear_depth_log() {
    let ns = [1usize << 12, 1 << 14, 1 << 16];
    let mut works = Vec::new();
    for &n in &ns {
        let pram = Pram::seq();
        let text = markov_text(7, n, Alphabet::dna());
        let tokens = lz1_compress(&pram, &text, 2);
        let (back, c) = pram.metered(|p| lz1_decompress(p, &tokens, 3));
        assert_eq!(back, text);
        works.push(c.work);
        assert!(
            c.depth < 120 * u64::from(pardict::pram::ceil_log2(n)),
            "depth {} too deep at n={n}",
            c.depth
        );
    }
    assert!(
        flatness(&ns, &works) < 1.45,
        "unlz1 work/n not flat: {works:?}"
    );
}

#[test]
fn theorem_5_3_static_parse_work_linear() {
    let alpha = Alphabet::dna();
    let mut words: Vec<Vec<u8>> = (0..alpha.size()).map(|i| vec![alpha.symbol(i)]).collect();
    let training = markov_text(1, 8000, alpha);
    words.extend(pardict::workloads::dictionary_from_text(
        2, &training, 40, 2, 10,
    ));
    let dict = Dictionary::new(words);
    let pram = Pram::seq();
    let matcher = DictMatcher::build(&pram, dict, 3);
    let ns = [1usize << 11, 1 << 13, 1 << 15];
    let mut works = Vec::new();
    for &n in &ns {
        let msg = markov_text(10 + n as u64, n, alpha);
        // Step 1 and 2A's `M`, then the dominating-edge parse.
        let (p, c) = pram.metered(|q| optimal_parse(q, &matcher.pattern_prefixes(q, &msg)));
        assert!(p.is_some());
        works.push(c.work);
    }
    assert!(
        flatness(&ns, &works) < 1.35,
        "parse work/n not flat: {works:?}"
    );
}

#[test]
fn served_parse_charge_does_not_grow_with_the_longest_word() {
    // A served `Parse` reads the version's automaton: one scan for the
    // optimal parse's claim table, and trie walks from the greedy phrase
    // starts only, ≈ n + phrases bytes. Over 64 KiB of `a`, a walk from
    // every start would read Σ M[i] ≈ 4 096 · n bytes against `{a, a^4096}`
    // and ≈ 64 · n against `{a, a^64}`. The engine runs each batch on a
    // parallel Pram; the same route on a sequential one charges the same.
    use pardict::service::{Engine, EngineConfig, Metrics, OpRequest, Registry, Reply, Request};
    use std::sync::Arc;
    let text = vec![b'a'; 1 << 16];
    let served = |long: usize| {
        let metrics = Arc::new(Metrics::default());
        let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
        let engine = Engine::new(
            EngineConfig {
                workers: 0,
                ..EngineConfig::default()
            },
            registry,
            metrics,
        );
        let patterns = vec![b"a".to_vec(), b"a".repeat(long)];
        engine.registry().publish("d", patterns.clone()).unwrap();
        let resp = engine.call(Request::new(OpRequest::Parse {
            dict: "d".into(),
            text: text.clone(),
        }));
        let Ok(Reply::Parse { phrases, .. }) = resp.result else {
            panic!("parse failed: {:?}", resp.result)
        };
        assert_eq!(phrases as usize, text.len().div_ceil(long));
        let matcher = SegmentedMatcher::build(&Pram::seq(), patterns);
        let (_, seq) = Pram::seq().metered(|p| {
            let optimal = optimal_parse(p, &matcher.reach_table(p, &text));
            let greedy = greedy_parse(p, text.len(), |x| matcher.longest_prefix_at(p, &text, x));
            (optimal, greedy)
        });
        assert_eq!(resp.meta.cost, seq, "{{a, a^{long}}}: par and seq charges");
        resp.meta.cost.work
    };
    let (short, long) = (served(64), served(4096));
    assert!(
        long * 10 <= short * 11 && short * 10 <= long * 11,
        "served parse of 64 KiB: {short} ops against {{a, a^64}}, {long} against {{a, a^4096}}"
    );
}

#[test]
fn seq_and_par_ledgers_are_identical() {
    // The simulation invariant everything else relies on.
    let text = markov_text(9, 20_000, Alphabet::lowercase());
    let s = Pram::seq();
    let p = Pram::par();
    let a = lz1_compress(&s, &text, 4);
    let b = lz1_compress(&p, &text, 4);
    assert_eq!(a, b);
    assert_eq!(s.cost(), p.cost());
}

#[test]
fn preprocessing_depth_is_logarithmic() {
    let alpha = Alphabet::dna();
    let mut depths = Vec::new();
    for dexp in [11u32, 13, 15] {
        let d = 1usize << dexp;
        let dict = Dictionary::new(random_dictionary(d as u64, d / 8, 4, 12, alpha));
        let pram = Pram::seq();
        let (_, c) = pram.metered(|p| DictMatcher::build(p, dict, 5));
        depths.push(c.depth);
    }
    // Depth may grow by a (log-proportional) additive amount per 4x in d,
    // never multiplicatively.
    assert!(
        depths[2] < depths[0] * 2,
        "preprocessing depth grew multiplicatively: {depths:?}"
    );
}

#[test]
fn preprocessing_constant_stays_below_2000_ops_per_dictionary_byte() {
    // Absolute guard on the E1 constant: with one forest + Euler-tour
    // build per alphabet color the 16 KB DNA row read 3 967 ops/byte; on
    // the suffix tree's shared tour it reads about 1 600.
    let d = 1usize << 14;
    let dict = Dictionary::new(random_dictionary(d as u64, d / 8, 4, 12, Alphabet::dna()));
    let bytes = dict.total_len() as u64;
    let pram = Pram::seq();
    let (_, c) = pram.metered(|p| DictMatcher::build(p, dict, 1));
    assert!(
        c.work <= 2000 * bytes,
        "DictMatcher::build: {} ops for {bytes} dictionary bytes ({} per byte)",
        c.work,
        c.work / bytes
    );
}

#[test]
fn suffix_tree_stays_below_600_ops_per_text_byte() {
    // Absolute guard: equal-LCP chains merged by list ranking read 827
    // ops/byte here; one range minimum per boundary reads 527.
    let n = 1usize << 15;
    let text = pardict::workloads::dna_text(7, n);
    let pram = Pram::seq();
    let (_, c) = pram.metered(|p| SuffixTree::build(p, &text, 1));
    assert!(
        c.work <= 600 * n as u64,
        "SuffixTree::build: {} ops for {n} bytes ({} per byte)",
        c.work,
        c.work / n as u64
    );
}

#[test]
fn step2_tables_stay_below_40_ops_per_dictionary_byte() {
    // Absolute guard: Step 2A's root-path maxima by heavy-path rounds read
    // 629 ops per DNA D̂ byte here; two scans in suffix-array order read 19.
    for alpha in [Alphabet::dna(), Alphabet::lowercase()] {
        let d = 1usize << 14;
        let dict = Dictionary::new(random_dictionary(d as u64, d / 8, 4, 12, alpha));
        let bytes = dict.total_len() as u64;
        let (_, stages) = DictMatcher::build_profiled(&Pram::seq(), dict, 1);
        let (_, c) = stages
            .into_iter()
            .find(|&(name, _)| name == "step-2 tables")
            .expect("step-2 stage");
        assert!(
            c.work <= 40 * bytes,
            "Step2Tables::build: {} ops for {bytes} dictionary bytes ({} per byte)",
            c.work,
            c.work / bytes
        );
    }
}

#[test]
fn lz1_compress_stays_below_550_ops_per_text_byte() {
    // Absolute guard: Lemma 4.1 read off a whole suffix tree (forest, tour,
    // links, per-node Lmin, a marked-ancestor pass) cost 676 ops/byte here;
    // read off the suffix array's LCP intervals it costs 455.
    let n = 1usize << 15;
    let text = markov_text(n as u64, n, Alphabet::dna());
    let pram = Pram::seq();
    let (_, c) = pram.metered(|p| lz1_compress(p, &text, 1));
    assert!(
        c.work <= 550 * n as u64,
        "lz1_compress: {} ops for {n} bytes ({} per byte)",
        c.work,
        c.work / n as u64
    );
}

#[test]
fn stream_decode_block_stays_below_4_ops_per_byte() {
    // Absolute guard on the block path: Theorem 4.3's Euler route (prefix
    // sums, a copy forest over every position, one Euler tour) read ≈ 117
    // ops/byte here; decoding phrase by phrase reads ≈ 1.3. The Theorem 4.3
    // tests above keep guarding `lz1_decompress` itself.
    use pardict::stream::{decode_block, METHOD_LZ1};
    let n = 1usize << 15;
    let text = pardict::workloads::dna_text(7, n);
    let cfg = StreamConfig::with_block_size(n);
    let (packed, _) = compress_stream(&Pram::seq(), &mut &text[..], Vec::new(), &cfg).unwrap();
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    let entry = rdr.index().entries[0];
    assert_eq!(entry.method, METHOD_LZ1);
    let payload = rdr.raw_block(0).unwrap();
    let (out, c) = Pram::seq().metered(|p| decode_block(p, 0, &entry, payload));
    assert_eq!(out.unwrap(), text);
    assert!(
        c.work <= 4 * n as u64,
        "decode_block: {} ops for {n} bytes ({} per byte)",
        c.work,
        c.work / n as u64
    );
}

#[test]
fn stream_compress_block_stays_below_52_ops_per_byte() {
    // Absolute guard on the shipped route a stream block runs: exact suffix
    // arrays, the greedy walk reading Lemma 4.1 at phrase starts only, and
    // the decode-back check. With DC3 sorting the suffixes it read ≈ 331
    // ops/byte here, with SA-IS ≈ 64, and ≈ 41 since the walk stopped
    // building the whole match table and the stack passes replaced
    // `ansv_par`; 52 is that plus a quarter. `lz1_compress` above keeps
    // guarding Theorem 4.2.
    let n = 1usize << 15;
    let text = markov_text(7, n, Alphabet::dna());
    let (_, c) = Pram::seq().metered(|p| delta_compress(p, &[], &text));
    assert!(
        c.work <= 52 * n as u64,
        "delta_compress: {} ops for {n} bytes ({} per byte)",
        c.work,
        c.work / n as u64
    );
}

#[test]
fn served_match_after_consolidation_stays_below_20_ops_per_char() {
    // Absolute guard on the served path, in `match-scan`'s shape: a
    // 4-segment dictionary made every verified `Match` pass over the text
    // once per segment, ≈ 57 ops/char here (E14). A 256 KiB warm-up repays
    // and builds the whole-dictionary matcher; the 64 KiB request after it
    // passes over its text once, ≈ 15.
    use pardict::core::segmented::segment_spans;
    use pardict::service::{Engine, EngineConfig, Metrics, OpRequest, Registry, Request};
    use std::sync::Arc;
    let alpha = Alphabet::dna();
    let patterns = (0u64..)
        .map(|seed| random_dictionary(seed, 1000, 8, 16, alpha))
        .find(|p| segment_spans(p).len() == 4)
        .expect("some draw cuts into four segments");
    let metrics = Arc::new(Metrics::default());
    let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
    let engine = Engine::new(
        EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        },
        registry,
        metrics,
    );
    engine.registry().publish("d", patterns.clone()).unwrap();
    let call = |n: usize| {
        let text = text_with_planted_matches(n as u64, &patterns, n, 25, alpha);
        let resp = engine.call(Request::new(OpRequest::Match {
            dict: "d".into(),
            text,
        }));
        assert!(resp.result.is_ok());
        resp.meta.cost
    };
    let _warm_up = call(1 << 18);
    let n = 1usize << 16;
    let second = call(n);
    assert!(
        second.work <= 20 * n as u64,
        "second served match: {} ops for {n} bytes ({} per byte)",
        second.work,
        second.work / n as u64
    );
}

#[test]
fn served_build_stays_below_436_ops_per_dictionary_byte() {
    // Absolute guard on the served preprocessing, in `dict-build`'s shape
    // (4 000 DNA patterns, 31 869 bytes, 24 segments here): every segment on
    // the seeded tree (DC3 and the fingerprint LCP) read ≈ 573 ops/byte;
    // on exact arrays (SA-IS and Kasai) it reads ≈ 349, and 436 is that
    // plus a quarter. With the byte-class automaton over the whole list
    // charged too (94 019 ops, ≈ 3 a byte) it reads ≈ 352, and without
    // Step 2's duplicate-chain table (one round of `num_patterns` a build)
    // 351.6: 11 203 482 ops. The 2 000 guard above keeps guarding Theorem
    // 3.1's reproduction.
    let patterns = random_dictionary(7, 4000, 4, 12, Alphabet::dna());
    let bytes = patterns.iter().map(Vec::len).sum::<usize>() as u64;
    let (_, c) = Pram::seq().metered(|p| SegmentedMatcher::build(p, patterns));
    assert!(
        c.work <= 436 * bytes,
        "SegmentedMatcher::build: {} ops for {bytes} dictionary bytes ({} per byte)",
        c.work,
        c.work / bytes
    );
}
