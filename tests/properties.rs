//! Property-based tests (proptest) over the core invariants.

use pardict::compress::lz1_decode;
use pardict::prelude::*;
use proptest::prelude::*;

/// Strategy: NUL-free byte strings over a small alphabet (dense repeats).
fn small_alpha_text(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 0..max_len)
}

/// Strategy: text in which most characters are outside the dictionary
/// alphabet, so few positions carry a claim.
fn sparse_text(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(b"abcxxxxxyyyyyzzzzz".to_vec()),
        0..max_len,
    )
}

/// One block of shape `shape` (0..7): random over σ = 2, 4, 26, periodic,
/// unary, Fibonacci, or incompressible (every byte but NUL).
fn block(shape: u64, n: usize, seed: u64) -> Vec<u8> {
    use pardict::workloads::{fibonacci_word, periodic_text, random_text};
    match shape {
        0..=2 => random_text(seed, n, Alphabet::new(b'a', [2, 4, 26][shape as usize])),
        3 => periodic_text(
            &random_text(seed, 1 + seed as usize % 7, Alphabet::dna()),
            n,
        ),
        4 => vec![b'z'; n],
        5 => fibonacci_word(n),
        _ => random_text(seed, n, Alphabet::new(1, 255)),
    }
}

/// Strategy: a base and an arbitrary token list to decode after it. Most
/// copies reach a few bytes back for a few bytes, but one in sixteen takes
/// any source and one in sixteen any length up to `u32::MAX`, so the lists
/// range from decodable to forward references and 4 GiB claims.
fn hostile_stream() -> impl Strategy<Value = (Vec<u8>, Vec<Token>)> {
    let token = (
        (0u8..16, 1u64..=8, any::<u32>()),
        (0u8..16, 1u32..=16, 1u32..=u32::MAX),
        any::<u8>(),
    );
    let lists = (small_alpha_text(8), prop::collection::vec(token, 0..16));
    lists.prop_map(|(base, raw)| {
        let mut dst = base.len() as u64;
        let tokens = raw
            .into_iter()
            .map(|((kind, back, far), (wide, short, long), c)| {
                let len = if wide == 0 { long } else { short };
                let t = match kind {
                    0..=7 => Token::Literal(c),
                    8..=14 => Token::Copy {
                        src: dst.saturating_sub(back) as u32,
                        len,
                    },
                    _ => Token::Copy { src: far, len },
                };
                dst += t.expanded_len() as u64;
                t
            })
            .collect();
        (base, tokens)
    })
}

/// Strategy: a non-empty dictionary of 1..8 non-empty patterns.
fn dictionary() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 1..8),
        1..8,
    )
}

/// §5's `M` by brute force: the longest pattern at each position over the
/// dictionary's prefix closure is its longest pattern prefix there (ids
/// name the closure's words; only the lengths are compared).
fn brute_force_prefixes(patterns: &[Vec<u8>], text: &[u8]) -> Vec<Option<(u32, u32)>> {
    let closure = patterns
        .iter()
        .flat_map(|p| (1..=p.len()).map(|l| p[..l].to_vec()));
    let m = pardict::core::brute_force_matches(&Dictionary::new(closure.collect()), text);
    m.as_slice()
        .iter()
        .map(|c| c.map(|c| (c.len, c.id)))
        .collect()
}

/// A §5 case over the first `sigma` letters: patterns drawn from
/// `shapes`, each one fresh, an extension of the one before (prefix-heavy),
/// a duplicate of an earlier one, or a single letter; and a text of
/// `pieces`, each a prefix of a pattern or one letter, where with `foreign`
/// a letter may lie beyond `sigma`, which no pattern uses (unparseable).
fn section_5_case(
    sigma: u8,
    shapes: &[(Vec<u8>, u8)],
    pieces: &[(u8, u8)],
    foreign: bool,
) -> (Vec<Vec<u8>>, Vec<u8>) {
    let letter = |b: u8, sigma: u8| b'a' + b % sigma;
    let mut patterns: Vec<Vec<u8>> = Vec::new();
    for (shape, kind) in shapes {
        let fresh: Vec<u8> = shape.iter().map(|&b| letter(b, sigma)).collect();
        let p = match (kind, patterns.last()) {
            (0, Some(last)) => [last.clone(), fresh].concat(),
            (1, Some(_)) => patterns[shape[0] as usize % patterns.len()].clone(),
            (2, _) => fresh[..1].to_vec(),
            _ => fresh,
        };
        patterns.push(p);
    }
    let text_sigma = sigma + u8::from(foreign);
    let mut text = Vec::new();
    for &(pick, len) in pieces {
        let p = &patterns[pick as usize % patterns.len()];
        match pick % 4 {
            0 => text.push(letter(len, text_sigma)),
            _ => text.extend_from_slice(&p[..1 + len as usize % p.len()]),
        }
    }
    (patterns, text)
}

/// The served §5 parses: the optimal parse of the automaton's reach table
/// and the greedy parse over its trie walks.
fn served_parses(matcher: &SegmentedMatcher, text: &[u8]) -> (Option<Parse>, Option<Parse>) {
    let pram = Pram::seq();
    let optimal = optimal_parse(&pram, &matcher.reach_table(&pram, text));
    let greedy = greedy_parse(&pram, text.len(), |x| {
        matcher.longest_prefix_at(&pram, text, x)
    });
    (optimal, greedy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The served parses are exact: their counts equal the shortest-path
    /// `bfs_parse` and a greedy walk over a brute-force `M`, over σ ∈
    /// {1, 2, 3, 26}, on prefix-heavy, duplicate and unparseable cases; and
    /// every phrase's certificate spells the phrase.
    #[test]
    fn served_parses_equal_the_oracles_on_a_brute_force_m(
        sigma in prop::sample::select(vec![1u8, 2, 3, 26]),
        shapes in prop::collection::vec((prop::collection::vec(any::<u8>(), 1..7), 0u8..5), 1..8),
        pieces in prop::collection::vec((any::<u8>(), any::<u8>()), 0..24),
        foreign in 0u8..4,
    ) {
        let (patterns, text) = section_5_case(sigma, &shapes, &pieces, foreign == 0);
        let dict = Dictionary::new(patterns.clone());
        let (optimal, greedy) = served_parses(&SegmentedMatcher::build(&Pram::seq(), patterns), &text);
        let pram = Pram::seq();
        let m = brute_force_prefixes(dict.patterns(), &text);
        let count = |p: Option<Parse>| p.map(|p| p.num_phrases());
        prop_assert_eq!(count(optimal.clone()), count(bfs_parse(&pram, &m)));
        prop_assert_eq!(count(greedy.clone()), count(greedy_parse(&pram, m.len(), |x| m[x])));
        for ph in optimal.iter().chain(&greedy).flat_map(|p| &p.phrases) {
            prop_assert_eq!(
                dict.patterns()[ph.pattern as usize].get(..ph.len),
                Some(&text[ph.start..ph.start + ph.len])
            );
        }
    }

    /// Crochemore–Langiu–Mignosi: a suffix-closed dictionary's words (its
    /// prefixes) are closed under factors, and then the greedy parse is
    /// optimal. The served optimal count equals the served greedy count.
    #[test]
    fn served_greedy_is_optimal_on_suffix_closed_dictionaries(
        sigma in prop::sample::select(vec![1u8, 2, 3, 26]),
        shapes in prop::collection::vec((prop::collection::vec(any::<u8>(), 1..7), 0u8..5), 1..6),
        pieces in prop::collection::vec((any::<u8>(), any::<u8>()), 0..24),
        foreign in 0u8..4,
    ) {
        let (mut patterns, text) = section_5_case(sigma, &shapes, &pieces, foreign == 0);
        let suffixes: Vec<Vec<u8>> =
            patterns.iter().flat_map(|p| (1..p.len()).map(|i| p[i..].to_vec())).collect();
        patterns.extend(suffixes);
        let (optimal, greedy) = served_parses(&SegmentedMatcher::build(&Pram::seq(), patterns), &text);
        prop_assert_eq!(optimal.map(|p| p.num_phrases()), greedy.map(|p| p.num_phrases()));
    }

    #[test]
    fn lz1_roundtrips(text in small_alpha_text(300), seed in 0u64..1000) {
        let pram = Pram::seq();
        let tokens = lz1_compress(&pram, &text, seed);
        prop_assert_eq!(lz1_decompress(&pram, &tokens, seed ^ 1), text.clone());
        // Greedy parse: the shipped exact emitter's, token for token.
        prop_assert_eq!(tokens, delta_compress(&pram, &[], &text));
    }

    #[test]
    fn dictionary_matching_equals_brute_force(
        patterns in dictionary(),
        text in small_alpha_text(200),
        seed in 0u64..1000,
    ) {
        let pram = Pram::seq();
        let dict = Dictionary::new(patterns);
        let got = dictionary_match(&pram, &dict, &text, seed);
        let want = pardict::core::brute_force_matches(&dict, &text);
        for i in 0..text.len() {
            prop_assert_eq!(got.get(i).map(|m| m.len), want.get(i).map(|m| m.len));
        }
    }

    #[test]
    fn suffix_tree_lcp_queries_are_exact(text in small_alpha_text(150), seed in 0u64..100) {
        prop_assume!(!text.is_empty());
        let pram = Pram::seq();
        let st = SuffixTree::build(&pram, &text, seed);
        for i in 0..text.len().min(20) {
            for j in 0..text.len().min(20) {
                let naive = text[i..]
                    .iter()
                    .zip(&text[j..])
                    .take_while(|(a, b)| a == b)
                    .count();
                let got = st.lcp_positions(i, j);
                if i == j {
                    prop_assert_eq!(got, text.len() - i);
                } else {
                    prop_assert_eq!(got, naive);
                }
            }
        }
    }

    #[test]
    fn optimal_parse_is_never_beaten(
        text in small_alpha_text(120),
        extra in prop::collection::vec(
            prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 2..6), 0..6),
        seed in 0u64..100,
    ) {
        let pram = Pram::seq();
        // Single chars guarantee parseability.
        let mut words = vec![vec![b'a'], vec![b'b'], vec![b'c']];
        words.extend(extra);
        let dict = Dictionary::new(words);
        let m = DictMatcher::build(&pram, dict.clone(), seed).pattern_prefixes(&pram, &text);
        let opt = optimal_parse(&pram, &m).expect("parseable");
        let bfs = bfs_parse(&pram, &m).expect("parseable");
        let greedy = greedy_parse(&pram, m.len(), |x| m[x]).expect("parseable");
        prop_assert_eq!(opt.num_phrases(), bfs.num_phrases());
        prop_assert!(opt.num_phrases() <= greedy.num_phrases());
        prop_assert_eq!(opt.expand(&dict), text.clone());
    }

    #[test]
    fn checker_accepts_truth(
        patterns in dictionary(),
        text in small_alpha_text(150),
        seed in 0u64..100,
    ) {
        let pram = Pram::seq();
        let dict = Dictionary::new(patterns);
        let matcher = DictMatcher::build(&pram, dict.clone(), seed);
        // Aho–Corasick output is ground truth; the checker must accept it.
        let truth = AhoCorasick::build(&dict).match_text(&text);
        prop_assert!(matcher.check(&pram, &text, &truth).is_ok());
    }

    /// Lemma 3.4 in both directions: the checker accepts a claim array iff
    /// every claim in it occurs verbatim. A correct output is corrupted with
    /// 1–3 injected claims of the shapes the §3.4 case analysis separates —
    /// anywhere, nested inside a longer true claim, overlapping the next
    /// true claim, ending exactly at `n` — on dense and on sparse texts.
    #[test]
    fn checker_accepts_exactly_the_verbatim_claim_arrays(
        patterns in dictionary(),
        text in prop_oneof![small_alpha_text(200), sparse_text(200)],
        seed in 0u64..100,
        injections in prop::collection::vec((0u8..4, any::<u64>()), 1..4),
    ) {
        prop_assume!(!text.is_empty());
        let n = text.len();
        let dict = Dictionary::new(patterns.clone());
        let matcher = DictMatcher::build(&Pram::seq(), dict.clone(), seed);
        let truth = AhoCorasick::build(&dict).match_text(&text);
        let true_claims: Vec<(usize, usize)> =
            truth.iter_hits().map(|(i, m)| (i, m.len as usize)).collect();
        let occurrences: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..patterns.len()).map(move |t| (i, t)))
            .filter(|&(i, t)| text[i..].starts_with(&patterns[t]))
            .collect();
        let mut claims = truth.as_slice().to_vec();
        for &(shape, coin) in &injections {
            let mut rng = pardict::pram::SplitMix64::new(coin);
            let mut below = |k: usize| rng.next_below(k as u64) as usize;
            // Half the injections are real (if not longest) occurrences, so
            // the accepting direction is exercised on edited arrays too.
            if below(2) == 0 && !occurrences.is_empty() {
                let (pos, id) = occurrences[below(occurrences.len())];
                claims[pos] = Some(Match { id: id as u32, len: patterns[id].len() as u32 });
                continue;
            }
            let id = below(patterns.len());
            let len = patterns[id].len();
            let host = (!true_claims.is_empty()).then(|| true_claims[below(true_claims.len())]);
            let pos = match (shape, host) {
                // Strictly inside a longer true claim, not reaching past it.
                (1, Some((p, l))) if l > len => p + 1 + below(l - len),
                // Starting before a true claim and running into it.
                (2, Some((p, _))) if len > 1 && p > 0 => p - (1 + below(len - 1)).min(p),
                // Ending exactly at the end of the text.
                (3, _) if len <= n => n - len,
                // Anywhere, overruns included.
                _ => below(n),
            };
            claims[pos] = Some(Match { id: id as u32, len: len as u32 });
        }
        let verbatim = claims.iter().enumerate().all(|(i, c)| {
            c.is_none_or(|m| text[i..].starts_with(&patterns[m.id as usize]))
        });
        let corrupted = Matches::new(claims);
        for pram in [Pram::seq(), Pram::par()] {
            prop_assert_eq!(
                matcher.check(&pram, &text, &corrupted).is_ok(),
                verbatim,
                "mode {:?}", pram.mode()
            );
        }
    }

    /// The LPF array is the leftmost longest previous factor on every block
    /// shape: random (σ = 2, 4, 26), periodic, unary, Fibonacci and
    /// incompressible. Lemma 4.1 runs the same over a tree's arrays, and
    /// `seq` and `par` charge the same.
    #[test]
    fn lpf_is_the_leftmost_longest_previous_factor(
        shape in 0u64..7,
        n in 0usize..300,
        seed in 0u64..1000,
    ) {
        use pardict::compress::longest_previous_factor_from_tree;
        let text = block(shape, n, seed);
        let (lpf, seq_cost) = Pram::seq().metered(|p| longest_previous_factor(p, &text, seed));
        for i in 0..text.len() {
            // First earlier start with the longest common prefix.
            let (mut src, mut len) = (0, 0);
            for j in 0..i {
                let l = text[j..].iter().zip(&text[i..]).take_while(|(a, b)| a == b).count();
                if l > len {
                    (src, len) = (j, l);
                }
            }
            prop_assert_eq!(lpf[i], (src as u32, len as u32), "LPF at {}", i);
        }
        let pram = Pram::seq();
        let st = SuffixTree::build(&pram, &text, seed ^ 1);
        prop_assert_eq!(&longest_previous_factor_from_tree(&pram, &st), &lpf);
        let (par_lpf, par_cost) = Pram::par().metered(|p| longest_previous_factor(p, &text, seed));
        prop_assert_eq!(par_lpf, lpf);
        prop_assert_eq!(par_cost, seq_cost);
    }

    /// Blocks run the sequential halves; Theorems 4.2 and 4.3 are their
    /// oracles on every block shape. The exact emitter's tokens are
    /// `lz1_compress`'s token for token, the phrase-by-phrase decoder's
    /// bytes are `lz1_decompress`'s, a delta against a prefix or suffix
    /// round-trips, every LZ1 block of a container is that emitter's parse
    /// of the block, and `compress_stream` charges `seq` and `par` alike.
    #[test]
    fn sequential_halves_equal_the_pram_routes(
        shape in 0u64..7,
        n in 0usize..300,
        seed in 0u64..1000,
    ) {
        let text = block(shape, n, seed);
        let pram = Pram::seq();
        let tokens = lz1_compress(&pram, &text, seed);
        prop_assert_eq!(&delta_compress(&pram, &[], &text), &tokens);
        let mut out = Vec::new();
        prop_assert!(lz1_decode(&pram, &tokens, &mut out, text.len()).is_ok());
        prop_assert_eq!(&out, &lz1_decompress(&pram, &tokens, seed));
        prop_assert_eq!(&out, &text);

        let cut = seed as usize % (text.len() + 1);
        for (base, new) in [(&text[..cut], &text[..]), (&text[cut..], &text[..cut])] {
            let delta = delta_compress(&pram, base, new);
            prop_assert_eq!(&delta_decompress(&pram, base, &delta), new);
        }

        let cfg = StreamConfig { block_size: 32 + seed as usize % 96, max_in_flight: 3 };
        let (a, sa) = compress_stream(&Pram::seq(), &mut &text[..], Vec::new(), &cfg).unwrap();
        let (b, sb) = compress_stream(&Pram::par(), &mut &text[..], Vec::new(), &cfg).unwrap();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&a)).unwrap();
        for (i, block) in text.chunks(cfg.block_size).enumerate() {
            if rdr.index().entries[i].method == pardict::stream::METHOD_LZ1 {
                let want = pardict::compress::encode_tokens(&delta_compress(&pram, &[], block));
                prop_assert_eq!(rdr.raw_block(i).unwrap(), want, "block {}", i);
            }
        }
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa.cost, sb.cost);
    }

    #[test]
    fn lz78_roundtrips(text in small_alpha_text(400)) {
        use pardict::compress::{lz78_compress, lz78_decompress};
        prop_assert_eq!(lz78_decompress(&lz78_compress(&text)), text);
    }

    #[test]
    fn substring_match_lengths_maximal_and_real(
        patterns in dictionary(),
        text in small_alpha_text(120),
        seed in 0u64..100,
    ) {
        let pram = Pram::seq();
        let dict = Dictionary::new(patterns);
        let matcher = SubstringMatcher::build(&pram, &dict, seed);
        let loci = substring_match(&pram, &matcher, &text);
        let dhat = dict.dhat();
        for i in 0..text.len() {
            let len = loci[i].len as usize;
            // Claimed occurrence is real.
            let pos = loci[i].dhat_pos(matcher.tree());
            prop_assert_eq!(&dhat[pos..pos + len], &text[i..i + len]);
            // And maximal: one more character never occurs.
            if i + len < text.len() {
                let longer = &text[i..i + len + 1];
                prop_assert!(
                    !dhat.windows(longer.len()).any(|w| w == longer),
                    "S[{}] not maximal", i
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `lz1_decode` is total over arbitrary token lists: it either decodes
    /// exactly `n` bytes after the base — and then agrees with Theorem
    /// 4.3's `lz1_decompress` — or errors with the base untouched. Either
    /// way it never holds more than the base plus `n` bytes, whatever
    /// length the copies claim.
    #[test]
    fn lz1_decode_is_total_and_bounded_by_its_length(
        (base, tokens) in hostile_stream(),
        exact in any::<bool>(),
        n in 0usize..=4096,
    ) {
        let expanded: u64 = tokens.iter().map(|t| t.expanded_len() as u64).sum();
        let n = if exact && expanded <= 4096 { expanded as usize } else { n };
        let pram = Pram::seq();
        let mut out = base.clone();
        match lz1_decode(&pram, &tokens, &mut out, n) {
            Ok(()) => {
                let mut joint: Vec<Token> = base.iter().map(|&c| Token::Literal(c)).collect();
                joint.extend_from_slice(&tokens);
                prop_assert_eq!(&lz1_decompress(&pram, &joint, 1), &out);
                prop_assert_eq!(out.len(), base.len() + n);
            }
            Err(_) => prop_assert_eq!(&out, &base),
        }
        prop_assert!(out.capacity() <= base.len() + n);
    }
}

/// A pattern list and its served matcher.
type Matchers = (Vec<Vec<u8>>, SegmentedMatcher);

/// A DNA dictionary of ≈ 200 patterns per segment, cut into exactly
/// `segments` canonical segments, with identical patterns inside one
/// segment (every tenth pattern copied right behind itself) and, with two
/// segments or more, across segments (the first five patterns copied at
/// the end). Built once per segment count: the matchers are the slow part.
fn segmented_dictionary(segments: usize) -> &'static Matchers {
    use pardict::core::segmented::segment_spans;
    use pardict::workloads::random_dictionary;
    use std::sync::OnceLock;
    static BUILT: [OnceLock<Matchers>; 5] = [const { OnceLock::new() }; 5];
    BUILT[segments - 1].get_or_init(|| {
        let patterns = (0u64..)
            .map(|seed| {
                let drawn = random_dictionary(seed, 200 * segments, 2, 9, Alphabet::dna());
                let mut patterns = Vec::new();
                for (i, p) in drawn.iter().enumerate() {
                    patterns.push(p.clone());
                    if i % 10 == 0 {
                        patterns.push(p.clone());
                    }
                }
                patterns.extend_from_within(..5);
                patterns
            })
            .find(|p| segment_spans(p).len() == segments)
            .expect("some draw cuts into the wanted number of segments");
        let segmented = SegmentedMatcher::build(&Pram::seq(), patterns.clone());
        (patterns, segmented)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The served occurrence list is exact and canonical: the whole-list
    /// automaton and a brute-force scan give the same list in the same
    /// order (position, then decreasing length, then id; every duplicate
    /// under its own id, within and across segments), on dense, sparse and
    /// overlapping texts from empty up to 600 bytes. The automaton's and the
    /// verified segments' longest matches equal a brute-force scan's, ties
    /// to the smallest global id.
    #[test]
    fn segmented_find_all_equals_brute_force_and_the_whole_list_matcher(
        segments in 1usize..=5,
        kind in 0u8..3,
        n in prop_oneof![0usize..12, 0usize..600],
        seed in any::<u64>(),
    ) {
        use pardict::workloads::{periodic_text, random_text, text_with_planted_matches};
        let (patterns, segmented) = segmented_dictionary(segments);
        prop_assert_eq!(segmented.num_segments(), segments);
        let text = match kind {
            0 => text_with_planted_matches(seed, patterns, n, 30, Alphabet::dna()),
            // Two bytes in three lie outside the dictionary's alphabet.
            1 => random_text(seed, n, Alphabet::new(b'A', 12)),
            // A short pattern prefix repeated: occurrences overlap.
            _ => {
                let p = &patterns[seed as usize % patterns.len()];
                periodic_text(&p[..1 + (seed >> 32) as usize % p.len().min(3)], n)
            }
        };
        let pram = Pram::seq();
        let got = segmented.find_all(&pram, &text);
        let dict = Dictionary::new(patterns.clone());
        prop_assert_eq!(&got, &pardict::core::brute_force_occurrences(&dict, &text));
        let longest = pardict::core::brute_force_matches(&dict, &text);
        prop_assert_eq!(&segmented.ac_match(&text), &longest);
        prop_assert_eq!(segmented.match_text_verified(&pram, &text), (longest, false));
    }
}
