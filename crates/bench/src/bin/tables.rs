//! Regenerate every experiment table (E1–E14) from EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p pardict-bench --bin tables -- all
//! cargo run --release -p pardict-bench --bin tables -- e2 e4 --quick
//! ```
//!
//! The paper is an extended abstract with no empirical tables; these
//! experiments instead measure the *claims*: work-optimality (work/n flat),
//! logarithmic time (depth/log n flat), and the comparisons against the
//! implemented baselines. See DESIGN.md §4 for the index.

use pardict_ancestors::NearestMarkedAncestor;
use pardict_bench::{median_of_5, per, per_log, sample};
use pardict_compress::{
    bfs_parse, delta_compress, encoded_size, greedy_parse, lff_parse, lz1_compress, lz1_decode,
    lz1_decompress, lz1_nlogn_baseline, lz78_compress, optimal_parse,
};
use pardict_core::segmented::segment_spans;
use pardict_core::{
    dictionary_match, encode_binary, mp93_baseline, AhoCorasick, DictMatcher, Dictionary, Match,
    Matches, SegmentedMatcher,
};
use pardict_graph::{EulerTour, Forest};
use pardict_pram::{
    ceil_log2, harts, list_rank_random_mate, list_rank_wyllie, Mode, Pram, SplitMix64,
};
use pardict_rmq::{ansv_par, LinearRmq, Side};
use pardict_suffix::{suffix_array, SuffixArrays, SuffixTree};
use pardict_veb::VebTree;
use pardict_workloads::{
    dictionary_from_text, dna_text, fibonacci_word, markov_text, random_dictionary, random_text,
    repetitive_text, text_with_planted_matches, Alphabet,
};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let picks: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let want = |name: &str| picks.is_empty() || picks.iter().any(|p| p == name || p == "all");

    println!("# pardict experiment tables (quick = {quick})\n");
    if want("e1") {
        e1_preprocessing(quick);
    }
    if want("e2") {
        e2_matching(quick);
    }
    if want("e3") {
        e3_alphabets(quick);
    }
    if want("e4") {
        e4_lz1_compress(quick);
    }
    if want("e5") {
        e5_lz1_decompress(quick);
    }
    if want("e6") {
        e6_static(quick);
    }
    if want("e7") {
        e7_colored(quick);
    }
    if want("e8") {
        e8_checker(quick);
    }
    if want("e9") {
        e9_ratios(quick);
    }
    if want("e10") {
        e10_substrates(quick);
    }
    if want("e11") {
        e11_speedup(quick);
    }
    if want("e12") {
        e12_ablations(quick);
    }
    if want("e13") {
        e13_offline(quick);
    }
    if want("e14") {
        e14_segments(quick);
    }
}

fn sizes(quick: bool, full: &[usize], small: &[usize]) -> Vec<usize> {
    if quick {
        small.to_vec()
    } else {
        full.to_vec()
    }
}

// --- E1: Theorem 3.1 preprocessing --------------------------------------
fn e1_preprocessing(quick: bool) {
    println!("## E1 — dictionary preprocessing (Thm 3.1: O(d) work*, O(log d) time)");
    println!("*(our separator build carries an extra log d; see DESIGN.md)\n");
    println!("| d | work | work/d | work/(d log d) | depth | depth/log d | wall ms | ns/work |");
    println!("|---|------|--------|-----------------|-------|-------------|---------|---------|");
    let ds = sizes(
        quick,
        &[1 << 12, 1 << 14, 1 << 16, 1 << 17],
        &[1 << 12, 1 << 14],
    );
    let mut breakdowns = Vec::new();
    for &d in &ds {
        let k = d / 8;
        let dict = Dictionary::new(random_dictionary(d as u64, k, 4, 12, Alphabet::dna()));
        let dd = dict.total_len();
        let ((_, profile), s) = median_of_5(Mode::Seq, |p| {
            DictMatcher::build_profiled(p, dict.clone(), 1)
        });
        breakdowns.push((dd, profile));
        let lg = f64::from(ceil_log2(dd));
        println!(
            "| {dd} | {} | {:.1} | {:.2} | {} | {:.1} | {:.1} | {:.1} |",
            s.cost.work,
            per(s.cost.work, dd),
            per(s.cost.work, dd) / lg,
            s.cost.depth,
            per_log(s.cost.depth, dd),
            s.wall_ms,
            s.wall_ms * 1e6 / s.cost.work as f64
        );
    }
    println!("\nwall ms: the whole build under `Pram::seq`, median of 5 runs after a warm-up.");

    // Stage breakdown: which component carries the log factor?
    println!("\nwork/d by preprocessing stage:\n");
    print!("| d |");
    for (name, _) in &breakdowns[0].1 {
        print!(" {name} |");
    }
    println!();
    print!("|---|");
    for _ in &breakdowns[0].1 {
        print!("---|");
    }
    println!();
    for (dd, profile) in &breakdowns {
        print!("| {dd} |");
        for (_, c) in profile {
            print!(" {:.1} |", per(c.work, *dd));
        }
        println!();
    }
    println!();
}

// --- E2: Theorem 3.1 matching vs baselines -------------------------------
fn e2_matching(quick: bool) {
    println!("## E2 — text matching (Thm 3.1: O(n) work, O(log d) time)");
    let alpha = Alphabet::dna();
    let dict = Dictionary::new(random_dictionary(7, 2048, 4, 12, alpha));
    let pram = Pram::seq();
    let matcher = DictMatcher::build(&pram, dict.clone(), 8);
    println!("\nfixed dictionary d = {}:\n", dict.total_len());
    println!("| n | opt work/n | opt depth | mp93 work/n | AC wall ms |");
    println!("|---|------------|-----------|-------------|------------|");
    let ac = AhoCorasick::build(&dict);
    for n in sizes(
        quick,
        &[1 << 12, 1 << 14, 1 << 16, 1 << 18],
        &[1 << 12, 1 << 14],
    ) {
        let text = text_with_planted_matches(n as u64, dict.patterns(), n, 25, alpha);
        let p1 = Pram::seq();
        let (_, s_opt) = sample(&p1, |p| matcher.match_text(p, &text));
        let p2 = Pram::seq();
        let (_, s_mp) = sample(&p2, |p| mp93_baseline(p, &dict, &text, 3));
        let t0 = Instant::now();
        let _ = ac.match_text(&text);
        let ac_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "| {n} | {:.1} | {} | {:.1} | {:.2} |",
            per(s_opt.cost.work, n),
            s_opt.cost.depth,
            per(s_mp.cost.work, n),
            ac_ms
        );
    }

    println!("\npattern-length sweep (n = 2^15; the baseline's log m shows):\n");
    println!("| m | opt work/n | mp93 work/n |");
    println!("|---|------------|-------------|");
    let n = 1 << 15;
    for mexp in sizes(quick, &[3, 6, 9, 12], &[3, 9]) {
        let m = 1usize << mexp;
        let dict = Dictionary::new(random_dictionary(9, 8192 / m.max(8), m, m, alpha));
        let pram = Pram::seq();
        let matcher = DictMatcher::build(&pram, dict.clone(), 10);
        let text = text_with_planted_matches(11, dict.patterns(), n, 20, alpha);
        let p1 = Pram::seq();
        let (_, s_opt) = sample(&p1, |p| matcher.match_text(p, &text));
        let p2 = Pram::seq();
        let (_, s_mp) = sample(&p2, |p| mp93_baseline(p, &dict, &text, 3));
        println!(
            "| {m} | {:.1} | {:.1} |",
            per(s_opt.cost.work, n),
            per(s_mp.cost.work, n)
        );
    }
    println!();
}

// --- E3: alphabet scaling (Thms 3.1/3.2/3.3) ------------------------------
fn e3_alphabets(quick: bool) {
    println!("## E3 — alphabet-size scaling (Thms 3.1–3.3)");
    println!("\n| σ | direct work/n | colored | binary-encoded work/symbol (×log σ) |");
    println!("|---|----------------|---------|--------------------------------------|");
    let n = if quick { 1 << 12 } else { 1 << 15 };
    for sigma in [2u16, 4, 16, 64] {
        let alpha = Alphabet::sized(sigma);
        let patterns = random_dictionary(5, 64, 4, 10, alpha);
        let text = text_with_planted_matches(6, &patterns, n, 25, alpha);
        // Direct matching on the σ-ary alphabet.
        let pram = Pram::seq();
        let dict = Dictionary::new(patterns.clone());
        let matcher = DictMatcher::build(&pram, dict, 7);
        let variant = if matcher.substring_matcher().alphabet_size() <= 8 {
            "naive"
        } else {
            "vEB"
        };
        let p1 = Pram::seq();
        let (_, s_dir) = sample(&p1, |p| matcher.match_text(p, &text));
        // Theorem 3.3 route: binary encode (log σ blow-up), then match.
        // Symbols are bytes 1..=σ, so a span of σ+1 values suffices.
        let span = usize::from(sigma) + 1;
        let enc_pats: Vec<Vec<u8>> = patterns
            .iter()
            .map(|p| encode_binary(p, span).data)
            .collect();
        let enc = encode_binary(&text, span);
        let pram = Pram::seq();
        let enc_dict = Dictionary::new(enc_pats);
        let enc_matcher = DictMatcher::build(&pram, enc_dict, 8);
        let p2 = Pram::seq();
        let (_, s_enc) = sample(&p2, |p| enc_matcher.match_text(p, &enc.data));
        println!(
            "| {sigma} | {:.1} | {variant} | {:.1} |",
            per(s_dir.cost.work, n),
            per(s_enc.cost.work, n), // per ORIGINAL symbol
        );
    }
    println!();
}

// --- E4: LZ1 compression (Thm 4.2) ---------------------------------------
fn e4_lz1_compress(quick: bool) {
    use pardict_compress::longest_previous_factor_from_tree;
    println!("## E4 — LZ1 compression (Thm 4.2: O(n) work, O(log n) time)");
    println!(
        "\n| n | work/n | depth/log n | baseline work/n | `delta_compress` seq wall ms (median of 5 after 1 warm-up) |"
    );
    println!(
        "|---|--------|--------------|------------------|-------------------------------------------------------------|"
    );
    for n in sizes(
        quick,
        &[1 << 12, 1 << 14, 1 << 16, 1 << 17],
        &[1 << 12, 1 << 14],
    ) {
        let text = markov_text(n as u64, n, Alphabet::dna());
        let p1 = Pram::seq();
        let (_, s) = sample(&p1, |p| lz1_compress(p, &text, 1));
        let p2 = Pram::seq();
        let (_, sb) = sample(&p2, |p| lz1_nlogn_baseline(p, &text, 2));
        let (_, emit) = median_of_5(Mode::Seq, |p| delta_compress(p, &[], &text));
        println!(
            "| {n} | {:.1} | {:.1} | {:.1} | {:.1} |",
            per(s.cost.work, n),
            per_log(s.cost.depth, n),
            per(sb.cost.work, n),
            emit.wall_ms
        );
    }

    // Isolate the match-table computation: both routes share the suffix
    // arrays, whose construction dominates the totals above; the
    // work-optimal vs n·log n distinction lives in what comes after.
    println!("\nmatch-table only (suffix arrays pre-built, not charged):\n");
    println!("| n | Lemma 4.1 work/n | SA-binary-search work/n (per-position log n) |");
    println!("|---|-------------------|------------------------------------------------|");
    for n in sizes(
        quick,
        &[1 << 12, 1 << 14, 1 << 16, 1 << 17],
        &[1 << 12, 1 << 14],
    ) {
        let text = markov_text(n as u64, n, Alphabet::dna());
        let pram = Pram::seq();
        let st = SuffixTree::build(&pram, &text, 5);
        let p1 = Pram::seq();
        let (_, s_opt) = sample(&p1, |p| longest_previous_factor_from_tree(p, &st));
        // Baseline work after the arrays: its per-position binary searches
        // over a sparse table. Measure by re-running it and subtracting a
        // fresh arrays build.
        let p2 = Pram::seq();
        let (_, s_arrays) = sample(&p2, |p| SuffixArrays::build(p, &text, 6).0);
        let p3 = Pram::seq();
        let (_, s_base) = sample(&p3, |p| lz1_nlogn_baseline(p, &text, 6));
        let base_post = s_base.cost.work.saturating_sub(s_arrays.cost.work);
        println!(
            "| {n} | {:.1} | {:.1} |",
            per(s_opt.cost.work, n),
            per(base_post, n)
        );
    }
    println!();
}

// --- E5: LZ1 uncompression (Thm 4.3) --------------------------------------
fn e5_lz1_decompress(quick: bool) {
    println!("## E5 — LZ1 uncompression (Thm 4.3: O(n) work, O(log n) time)");
    println!("*(phrase-sequential: `lz1_decode`, what stream blocks run)*\n");
    println!("| n | tokens | work/n | depth | depth/log n | wall ms | phrase-sequential work/n | phrase-sequential depth | phrase-sequential wall ms |");
    println!("|---|--------|--------|-------|--------------|---------|--------------------------|-------------------------|---------------------------|");
    for n in sizes(
        quick,
        &[1 << 12, 1 << 14, 1 << 16, 1 << 17],
        &[1 << 12, 1 << 14],
    ) {
        let text = repetitive_text(n as u64, n, Alphabet::dna());
        let pram = Pram::seq();
        let tokens = lz1_compress(&pram, &text, 1);
        let p1 = Pram::seq();
        let (back, s) = sample(&p1, |p| lz1_decompress(p, &tokens, 2));
        assert_eq!(back, text);
        let p2 = Pram::seq();
        let mut seq = Vec::new();
        let (decoded, s_seq) = sample(&p2, |p| lz1_decode(p, &tokens, &mut seq, n));
        assert!(decoded.is_ok() && seq == text);
        println!(
            "| {n} | {} | {:.1} | {} | {:.1} | {:.2} | {:.2} | {} | {:.3} |",
            tokens.len(),
            per(s.cost.work, n),
            s.cost.depth,
            per_log(s.cost.depth, n),
            s.wall_ms,
            per(s_seq.cost.work, n),
            s_seq.cost.depth,
            s_seq.wall_ms
        );
    }
    println!();
}

// --- E6: static optimal parsing (Thm 5.3) ----------------------------------
fn e6_static(quick: bool) {
    println!("## E6 — optimal static parsing (Thm 5.3: O(n) work)");
    let alpha = Alphabet::dna();
    let training = markov_text(1, 20_000, alpha);
    let mut words: Vec<Vec<u8>> = (0..alpha.size()).map(|i| vec![alpha.symbol(i)]).collect();
    words.extend(dictionary_from_text(2, &training, 80, 3, 12));
    let dict = Dictionary::new(words);
    let pram = Pram::seq();
    let matcher = DictMatcher::build(&pram, dict.clone(), 3);
    println!("\n| n | optimal | greedy | LFF | opt work/n | BFS work/n |");
    println!("|---|---------|--------|-----|-------------|-------------|");
    for n in sizes(
        quick,
        &[1 << 11, 1 << 13, 1 << 15, 1 << 17],
        &[1 << 11, 1 << 13],
    ) {
        let msg = markov_text(50 + n as u64, n, alpha);
        let p1 = Pram::seq();
        let (opt, s_opt) = sample(&p1, |p| optimal_parse(p, &matcher, &msg));
        let p2 = Pram::seq();
        let (bfs, s_bfs) = sample(&p2, |p| bfs_parse(p, &matcher, &msg));
        let greedy = greedy_parse(&pram, &matcher, &msg).unwrap();
        let lff = lff_parse(&pram, &matcher, &msg).unwrap();
        let (opt, bfs) = (opt.unwrap(), bfs.unwrap());
        assert_eq!(opt.num_phrases(), bfs.num_phrases());
        println!(
            "| {n} | {} | {} | {} | {:.1} | {:.1} |",
            opt.num_phrases(),
            greedy.num_phrases(),
            lff.num_phrases(),
            per(s_opt.cost.work, n),
            per(s_bfs.cost.work, n)
        );
    }

    // Word-length sweep: BFS explores Θ(Σ M[i]) edges, so its work grows
    // with the match length while the dominating-edge route stays flat —
    // the transitive-closure bottleneck §5 sidesteps.
    println!("\nword-length sweep (n = 2^13, periodic corpus — every position");
    println!("matches ~max-word characters, so BFS edge counts explode):\n");
    println!("| max word | opt work/n | BFS work/n |");
    println!("|----------|-------------|-------------|");
    let n = 1 << 13;
    for wl in sizes(quick, &[8, 32, 128, 512], &[8, 64]) {
        let corpus = pardict_workloads::periodic_text(b"ACGTA", 4 * n);
        let mut words: Vec<Vec<u8>> = (0..alpha.size()).map(|i| vec![alpha.symbol(i)]).collect();
        words.extend(dictionary_from_text(78, &corpus, 40, 2, wl));
        let dict = Dictionary::new(words);
        let pram = Pram::seq();
        let matcher = DictMatcher::build(&pram, dict, 79);
        let msg = corpus[n..2 * n].to_vec();
        let p1 = Pram::seq();
        let (o, s_opt) = sample(&p1, |p| optimal_parse(p, &matcher, &msg));
        let p2 = Pram::seq();
        let (b, s_bfs) = sample(&p2, |p| bfs_parse(p, &matcher, &msg));
        assert_eq!(o.unwrap().num_phrases(), b.unwrap().num_phrases());
        println!(
            "| {wl} | {:.1} | {:.1} |",
            per(s_opt.cost.work, n),
            per(s_bfs.cost.work, n)
        );
    }
    println!();
}

// --- E7: nearest colored ancestors (§3.2) ----------------------------------
fn e7_colored(quick: bool) {
    use pardict_ancestors::{ColoredAncestors, ColoredAncestorsNaive};
    println!("## E7 — §3.2 colored ancestors: naive O(n·|C|) vs vEB O(n + C)");
    let n = if quick { 1 << 13 } else { 1 << 16 };
    let mut rng = SplitMix64::new(9);
    let parent: Vec<usize> = (0..n)
        .map(|v: usize| {
            if v == 0 {
                0
            } else {
                rng.next_below(v as u64) as usize
            }
        })
        .collect();
    // Both variants number nodes by one shared Euler tour, as the suffix
    // tree's consumers do; its (color-independent) build is E10's row.
    let setup = Pram::seq();
    let tour = EulerTour::build(&setup, &Forest::from_parents(&setup, &parent), 1);
    println!("\ntree n = {n}:\n");
    println!("| |C| (distinct) | naive build work | vEB build work | naive q ns | vEB q ns |");
    println!("|----------------|-------------------|-----------------|------------|-----------|");
    for ncolors in [2u64, 8, 32, 128] {
        let mut colors = Vec::new();
        for v in 0..n {
            if rng.next_below(2) == 0 {
                colors.push((v, rng.next_below(ncolors) as u32));
            }
        }
        let p1 = Pram::seq();
        let (naive, s_naive) = sample(&p1, |p| ColoredAncestorsNaive::on_tour(p, &tour, &colors));
        let p2 = Pram::seq();
        let (fast, s_fast) = sample(&p2, |p| ColoredAncestors::on_tour(p, &tour, &colors));
        // Query timing.
        let queries: Vec<(usize, u32)> = (0..20_000)
            .map(|_| {
                (
                    rng.next_below(n as u64) as usize,
                    rng.next_below(ncolors) as u32,
                )
            })
            .collect();
        let t0 = Instant::now();
        let mut acc = 0usize;
        for &(p, c) in &queries {
            acc ^= naive.find(p, c).unwrap_or(0);
        }
        let t_naive = t0.elapsed().as_nanos() as f64 / queries.len() as f64;
        let t0 = Instant::now();
        for &(p, c) in &queries {
            acc ^= fast.find(p, c).unwrap_or(0);
        }
        let t_fast = t0.elapsed().as_nanos() as f64 / queries.len() as f64;
        std::hint::black_box(acc);
        println!(
            "| {ncolors} | {} | {} | {t_naive:.0} | {t_fast:.0} |",
            s_naive.cost.work, s_fast.cost.work
        );
    }
    println!();
}

// --- E8: the §3.4 checker -----------------------------------------------
fn e8_checker(quick: bool) {
    println!("## E8 — §3.4 Las Vegas checker");
    let trials = if quick { 10 } else { 50 };
    let alpha = Alphabet::dna();
    let pram = Pram::seq();
    let dict = Dictionary::new(random_dictionary(1, 20, 3, 9, alpha));
    let matcher = DictMatcher::build(&pram, dict.clone(), 2);
    let n = if quick { 1 << 12 } else { 1 << 15 };
    let text = text_with_planted_matches(3, dict.patterns(), n, 30, alpha);
    let good = matcher.match_text(&pram, &text);
    println!();
    // The checker pays one pass to find the claims, then per claim: clean
    // output with fewer claims is cheaper to verify.
    for (kind, clean_text) in [("dense", &text), ("sparse", &random_text(5, n, alpha))] {
        let clean = matcher.match_text(&pram, clean_text);
        let p1 = Pram::seq();
        let (ok, s) = sample(&p1, |p| matcher.check(p, clean_text, &clean).is_ok());
        assert!(ok);
        println!(
            "checker work/n on clean {kind} output ({} claims): {:.1} (depth {})",
            clean.iter_hits().count(),
            per(s.cost.work, n),
            s.cost.depth
        );
    }

    // Corruption trials: claim a random pattern at a random position.
    let mut rng = SplitMix64::new(4);
    let mut caught = 0;
    let mut harmless = 0;
    for _ in 0..trials {
        let i = rng.next_below((n - dict.max_pattern_len()) as u64) as usize;
        let t = rng.next_below(dict.num_patterns() as u64) as usize;
        let plen = dict.pattern_len(t);
        let really_occurs = &text[i..i + plen] == dict.patterns()[t].as_slice();
        let mut v = good.as_slice().to_vec();
        v[i] = Some(Match {
            id: t as u32,
            len: plen as u32,
        });
        let verdict = matcher.check(&pram, &text, &Matches::new(v));
        if really_occurs {
            harmless += 1; // the claim is true; acceptance is fine either way
        } else if verdict.is_err() {
            caught += 1;
        } else {
            println!("  !! corruption at {i} (pattern {t}) NOT caught");
        }
    }
    println!(
        "corruption trials: {trials}, true-claims (harmless): {harmless}, false claims caught: {caught}/{}",
        trials - harmless
    );
    println!();
}

// --- E9: parse-quality / ratio table ---------------------------------------
fn e9_ratios(quick: bool) {
    println!("## E9 — parse quality across corpora");
    let n = if quick { 1 << 13 } else { 1 << 16 };
    println!("\ncorpus size n = {n}; sizes via varint token encoding:\n");
    println!("| corpus | LZ1 phrases | LZ78 phrases | LZ1 bytes | ratio |");
    println!("|--------|-------------|---------------|-----------|-------|");
    let corpora: Vec<(&str, Vec<u8>)> = vec![
        ("uniform(26)", random_text(1, n, Alphabet::lowercase())),
        ("markov(26)", markov_text(2, n, Alphabet::lowercase())),
        ("dna-repeats", dna_text(3, n)),
        ("repetitive", repetitive_text(4, n, Alphabet::dna())),
        ("fibonacci", fibonacci_word(n)),
    ];
    for (name, text) in corpora {
        let pram = Pram::seq();
        let tokens = lz1_compress(&pram, &text, 5);
        let lz78 = lz78_compress(&text);
        let bytes = encoded_size(&tokens);
        println!(
            "| {name} | {} | {} | {} | {:.2} |",
            tokens.len(),
            lz78.len(),
            bytes,
            bytes as f64 / text.len() as f64
        );
    }
    println!();
}

// --- E10: substrate bounds (Lemmas 2.1–2.7) --------------------------------
fn e10_substrates(quick: bool) {
    println!("## E10 — substrate work/depth (Lemmas 2.1–2.7)");
    println!("\n| primitive | n | work/n | depth | depth/log n |");
    println!("|-----------|---|--------|-------|--------------|");
    let ns = sizes(quick, &[1 << 14, 1 << 16, 1 << 18], &[1 << 12, 1 << 14]);
    for &n in &ns {
        let mut rng = SplitMix64::new(7);
        // scan
        let xs: Vec<u64> = (0..n as u64).collect();
        let pram = Pram::seq();
        let (_, s) = sample(&pram, |p| p.scan_exclusive_sum(&xs));
        row("scan (prefix sums)", n, s.cost);
        // list ranking
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut next = vec![0usize; n];
        for w in perm.windows(2) {
            next[w[0]] = w[1];
        }
        next[perm[n - 1]] = perm[n - 1];
        let pram = Pram::seq();
        let (_, s) = sample(&pram, |p| list_rank_wyllie(p, &next));
        row("list rank (Wyllie)", n, s.cost);
        let pram = Pram::seq();
        let (_, s) = sample(&pram, |p| list_rank_random_mate(p, &next, 3));
        row("list rank (random-mate)", n, s.cost);
        // Euler tour (Lemma 2.7 machinery)
        let parent: Vec<usize> = (0..n)
            .map(|v: usize| {
                if v == 0 {
                    0
                } else {
                    rng.next_below(v as u64) as usize
                }
            })
            .collect();
        let pram = Pram::seq();
        let forest = Forest::from_parents(&pram, &parent);
        let (tour, s) = sample(&pram, |p| EulerTour::build(p, &forest, 5));
        row("Euler tour", n, s.cost);
        // Nearest marked ancestors on that tour (Lemma 2.7)
        let mut mark_rng = SplitMix64::new(11);
        let marked: Vec<bool> = (0..n).map(|_| mark_rng.next_below(8) == 0).collect();
        let pram = Pram::seq();
        let (_, s) = sample(&pram, |p| NearestMarkedAncestor::on_tour(p, &tour, &marked));
        row("marked ancestors (on tour)", n, s.cost);
        // ANSV (Lemma 2.4)
        let vals: Vec<i64> = (0..n).map(|_| rng.next_below(1000) as i64).collect();
        let pram = Pram::seq();
        let (_, s) = sample(&pram, |p| ansv_par(p, &vals, Side::Left));
        row("ANSV (blocked)", n, s.cost);
        // Linear RMQ (Lemma 2.3)
        let keys: Vec<u32> = vals.iter().map(|&v| v as u32).collect();
        let pram = Pram::seq();
        let (_, s) = sample(&pram, |p| LinearRmq::new_min(p, keys));
        row("linear RMQ", n, s.cost);
        // Suffix array + tree (Lemma 2.1)
        let text = random_text(8, n, Alphabet::dna());
        let pram = Pram::seq();
        let (_, s) = sample(&pram, |p| suffix_array(p, &text));
        row("suffix array (DC3)", n, s.cost);
        let pram = Pram::seq();
        let (st, s) = sample(&pram, |p| SuffixTree::build(p, &text, 9));
        row("suffix tree", n, s.cost);
        // Lemma 2.6 on that tree: LCP of two random leaves — wall clock per op.
        let pairs: Vec<(usize, usize)> = (0..n)
            .map(|_| {
                let i = rng.next_below(n as u64) as usize;
                (i, rng.next_below(n as u64) as usize)
            })
            .collect();
        let t0 = Instant::now();
        let lcps: usize = pairs.iter().map(|&(i, j)| st.lcp_positions(i, j)).sum();
        std::hint::black_box(lcps);
        let ns_per = t0.elapsed().as_nanos() as f64 / n as f64;
        println!("| LCP query, two leaves (wall) | {n} | {ns_per:.0} ns/op | — | — |");
        // vEB ops (Lemma 2.5) — wall clock per op.
        let mut veb = VebTree::with_universe(n);
        let t0 = Instant::now();
        let mut acc = 0u32;
        for _ in 0..n {
            let x = rng.next_below(n as u64) as u32;
            veb.insert(x);
            acc ^= veb.successor(x / 2).unwrap_or(0);
        }
        std::hint::black_box(acc);
        let ns_per = t0.elapsed().as_nanos() as f64 / (2 * n) as f64;
        println!("| vEB insert+succ (wall) | {n} | {ns_per:.0} ns/op | — | — |");
    }
    println!();
}

fn row(name: &str, n: usize, c: pardict_pram::Cost) {
    println!(
        "| {name} | {n} | {:.1} | {} | {:.1} |",
        per(c.work, n),
        c.depth,
        per_log(c.depth, n)
    );
}

// --- E12: design-choice ablations -------------------------------------------
fn e12_ablations(quick: bool) {
    use pardict_compress::{lz1_decompress_jump, lz77_windowed};
    use pardict_suffix::suffix_array_doubling;

    println!("## E12 — ablations of the design choices DESIGN.md calls out");

    // (a) Suffix array: DC3 (linear work) vs prefix doubling (n log n).
    println!("\n### suffix array construction: DC3 vs prefix doubling\n");
    println!("| n | DC3 work/n | doubling work/n | ratio |");
    println!("|---|-------------|------------------|-------|");
    for n in sizes(quick, &[1 << 12, 1 << 14, 1 << 16], &[1 << 12, 1 << 14]) {
        let text = random_text(3, n, Alphabet::dna());
        let p1 = Pram::seq();
        let (_, s1) = sample(&p1, |p| suffix_array(p, &text));
        let p2 = Pram::seq();
        let (_, s2) = sample(&p2, |p| suffix_array_doubling(p, &text));
        println!(
            "| {n} | {:.1} | {:.1} | {:.2} |",
            per(s1.cost.work, n),
            per(s2.cost.work, n),
            s2.cost.work as f64 / s1.cost.work as f64
        );
    }

    // (b) Uncompression: Euler-tour root resolution vs pointer jumping on
    // maximally deep copy chains (all-equal text).
    println!("\n### LZ1 uncompression: Euler tour vs pointer jumping (deep chains)\n");
    println!("| n | euler work/n | jump work/n |");
    println!("|---|---------------|--------------|");
    for n in sizes(quick, &[1 << 10, 1 << 13, 1 << 16], &[1 << 10, 1 << 13]) {
        let text = vec![b'z'; n];
        let pram = Pram::seq();
        let tokens = lz1_compress(&pram, &text, 1);
        let p1 = Pram::seq();
        let (_, s1) = sample(&p1, |p| lz1_decompress(p, &tokens, 2));
        let p2 = Pram::seq();
        let (_, s2) = sample(&p2, |p| lz1_decompress_jump(p, &tokens));
        println!(
            "| {n} | {:.1} | {:.1} |",
            per(s1.cost.work, n),
            per(s2.cost.work, n)
        );
    }
    println!("\n(pointer jumping's work/char grows with chain depth — its log factor —");
    println!("while the Euler route is flat; at laptop sizes the doubling constant is");
    println!("still smaller, which is exactly the kind of fact the ledger exposes.)");

    // (c) Windowed LZ77: compression quality vs window size.
    println!("\n### windowed LZ77 (gzip-style practical variant)\n");
    println!("| window | phrases | vs unbounded |");
    println!("|--------|---------|---------------|");
    let n = if quick { 1 << 13 } else { 1 << 16 };
    let text = repetitive_text(7, n, Alphabet::dna());
    let unbounded = lz77_windowed(&text, usize::MAX).len();
    for w in [64usize, 1024, 16384, usize::MAX] {
        let k = lz77_windowed(&text, w).len();
        let label = if w == usize::MAX {
            "∞".to_string()
        } else {
            w.to_string()
        };
        println!("| {label} | {k} | {:.2}x |", k as f64 / unbounded as f64);
    }
    println!();
}

// --- E13: online vs offline matching -----------------------------------------
fn e13_offline(quick: bool) {
    use pardict_core::dictionary_match_offline;
    println!("## E13 — online (Las Vegas) vs offline (deterministic) matching");
    println!("\nThe online model preprocesses D̂ once and pays O(n) per text; the");
    println!("offline route builds a joint suffix tree per (dictionary, text) pair —");
    println!("deterministic, but it re-pays O(d + n) every time.\n");
    println!("| n | online match work/n | offline total work/(d+n) | agree |");
    println!("|---|----------------------|----------------------------|-------|");
    let alpha = Alphabet::dna();
    let dict = Dictionary::new(random_dictionary(3, 512, 4, 12, alpha));
    let pram = Pram::seq();
    let matcher = DictMatcher::build(&pram, dict.clone(), 4);
    for n in sizes(quick, &[1 << 12, 1 << 14, 1 << 16], &[1 << 12, 1 << 14]) {
        let text = text_with_planted_matches(n as u64, dict.patterns(), n, 25, alpha);
        let p1 = Pram::seq();
        let (on, s_on) = sample(&p1, |p| matcher.match_text(p, &text));
        let p2 = Pram::seq();
        let (off, s_off) = sample(&p2, |p| dictionary_match_offline(p, &dict, &text).unwrap());
        let agree = (0..n).all(|i| on.get(i).map(|m| m.len) == off.get(i).map(|m| m.len));
        println!(
            "| {n} | {:.1} | {:.1} | {agree} |",
            per(s_on.cost.work, n),
            per(s_off.cost.work, n + dict.total_len()),
        );
    }
    println!();
}

// --- E14: served matching against segment count ----------------------------
fn e14_segments(quick: bool) {
    println!("## E14 — served matching vs segment count (`match_text_verified`)");
    let n = if quick { 1 << 14 } else { 1 << 16 };
    println!("\nEvery segment passes over the text once (matcher + §3.4 check), so");
    println!("work/n grows with the segment count; the passes are one super-step,");
    println!("so depth does not. n = {n}; `check` is the checker's share of work/n.");
    println!("`consolidated` is the same verified query over one `whole_matcher`");
    println!("(`vet_whole`), and `build/d` that matcher's one-off work per dictionary");
    println!("byte. `build depth` is `SegmentedMatcher::build`'s: its segments build");
    println!("in one super-step, so the deepest segment's, then the automaton over the");
    println!("whole list. `build ms` is its wall time under `Pram::seq` and `Pram::par`,");
    println!("the median of 5 runs after a warm-up. `automaton B/d` is the bytes that");
    println!("automaton holds per dictionary byte.\n");
    println!(
        "| segments | patterns | dense work/n | check | depth | sparse work/n | check | depth | consolidated dense | sparse | depth | build/d | build depth | build ms seq | build ms par | automaton B/d |"
    );
    println!(
        "|----------|----------|--------------|-------|-------|---------------|-------|-------|--------------------|--------|-------|---------|-------------|--------------|--------------|---------------|"
    );
    let alpha = Alphabet::dna();
    let mut find_all_rows = Vec::new();
    for segments in sizes(quick, &[1, 4, 16, 64], &[1, 4, 16]) {
        let patterns = (0u64..)
            .map(|seed| random_dictionary(seed, 250 * segments, 8, 16, alpha))
            .find(|p| segment_spans(p).len() == segments)
            .expect("some draw cuts into the wanted number of segments");
        let (matcher, seg_seq) =
            median_of_5(Mode::Seq, |p| SegmentedMatcher::build(p, patterns.clone()));
        let (_, seg_par) = median_of_5(Mode::Par, |p| SegmentedMatcher::build(p, patterns.clone()));
        assert_eq!(seg_seq.cost, seg_par.cost);
        assert_eq!(seg_seq.cost, matcher.build_cost());
        let (whole, build) = sample(&Pram::seq(), |p| matcher.whole_matcher(p));
        let dense = text_with_planted_matches(2, &patterns, n, 25, alpha);
        let sparse = random_text(3, n, alpha);
        print!("| {segments} | {} |", patterns.len());
        let mut consolidated = Vec::new();
        for text in [&dense, &sparse] {
            let (_, monte_carlo) = sample(&Pram::seq(), |p| matcher.match_text(p, text));
            let ((_, fell_back), served) =
                sample(&Pram::seq(), |p| matcher.match_text_verified(p, text));
            assert!(!fell_back);
            print!(
                " {:.1} | {:.1} | {} |",
                per(served.cost.work, n),
                per(served.cost.work - monte_carlo.cost.work, n),
                served.cost.depth
            );
            let ((_, fell_back), one) = sample(&Pram::seq(), |p| {
                let m = whole.match_text(p, text);
                matcher.vet_whole(p, &whole, text, m)
            });
            assert!(!fell_back);
            consolidated.push(one.cost);
        }
        let d: usize = patterns.iter().map(Vec::len).sum();
        let automaton = AhoCorasick::build(&Dictionary::new(matcher.patterns())).size_bytes();
        println!(
            " {:.1} | {:.1} | {} | {:.0} | {} | {:.1} | {:.1} | {:.1} |",
            per(consolidated[0].work, n),
            per(consolidated[1].work, n),
            consolidated[0].depth,
            per(build.cost.work, d),
            seg_seq.cost.depth,
            seg_seq.wall_ms,
            seg_par.wall_ms,
            per(automaton as u64, d)
        );
        let mut row = format!("| {segments} |");
        for text in [&dense, &sparse] {
            let (_, exact) = median_of_5(Mode::Seq, |p| matcher.find_all(p, text).len());
            row += &format!(" {:.1} | {:.1} |", per(exact.cost.work, n), exact.wall_ms);
        }
        find_all_rows.push(row);
    }
    println!("\n`SegmentedMatcher::find_all` on the same texts: one scan of the exact");
    println!("automaton over the whole list (`n + occ` steps), whatever the segment");
    println!("count. Wall ms under `Pram::seq`, the median of 5 runs after a warm-up.\n");
    println!("| segments | dense work/n | ms | sparse work/n | ms |");
    println!("|----------|--------------|----|---------------|----|");
    for row in find_all_rows {
        println!("{row}");
    }
    println!();
}

// --- E11: fork-join wall-clock sanity --------------------------------------
fn e11_speedup(quick: bool) {
    println!("## E11 — Seq vs Par wall-clock (fork-join backend sanity)");
    let n = if quick { 1 << 14 } else { 1 << 17 };
    println!("\nharts: {} thread(s)\n", harts());
    println!("| task | n | Seq wall ms | Par wall ms |");
    println!("|------|---|--------------|--------------|");
    let text = markov_text(1, n, Alphabet::dna());
    for (name, mode_runs) in [("LZ1 compress", true), ("dictionary match", false)] {
        let mut walls = Vec::new();
        for mode in [Mode::Seq, Mode::Par] {
            let pram = Pram::new(mode);
            let t0 = Instant::now();
            if mode_runs {
                let _ = lz1_compress(&pram, &text, 3);
            } else {
                let dict = Dictionary::new(random_dictionary(5, 256, 4, 12, Alphabet::dna()));
                let _ = dictionary_match(&pram, &dict, &text, 6);
            }
            walls.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        println!("| {name} | {n} | {:.1} | {:.1} |", walls[0], walls[1]);
    }
    println!("\n(on a single-core host the two columns coincide; the PRAM ledger is");
    println!("identical in both modes by construction.)");
    println!();
}
