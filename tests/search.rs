//! Integration tests for `pardict-search`: grep over a compressed PDZS
//! container must equal dictionary matching over the uncompressed text —
//! including patterns spanning many block boundaries — with block-local
//! ledger charges for range queries and the skip-and-report corruption
//! contract.

use pardict::prelude::*;
use pardict::stream;
use pardict::workloads::markov_text;
use proptest::prelude::*;

fn pack(data: &[u8], block_size: usize) -> Vec<u8> {
    let pram = Pram::seq();
    let cfg = StreamConfig {
        block_size,
        max_in_flight: 4,
    };
    compress_stream(&pram, &mut &data[..], Vec::new(), &cfg)
        .unwrap()
        .0
}

/// All occurrences in the raw text by direct comparison, normalized for
/// comparison: independent of the matcher under test.
fn oracle(matcher: &SegmentedMatcher, text: &[u8]) -> Vec<(u64, u32, u32)> {
    let dict = Dictionary::new(matcher.patterns());
    let mut hits: Vec<(u64, u32, u32)> = pardict::core::brute_force_occurrences(&dict, text)
        .into_iter()
        .map(|(p, m)| (p as u64, m.id, m.len))
        .collect();
    hits.sort_unstable();
    hits
}

fn grep_hits(matcher: &SegmentedMatcher, container: &[u8]) -> Vec<(u64, u32, u32)> {
    let pram = Pram::seq();
    let mut rdr = StreamReader::open(std::io::Cursor::new(container)).unwrap();
    let summary = grep_container(&pram, matcher, &mut rdr, &GrepConfig::default()).unwrap();
    assert!(summary.issues.is_empty());
    let mut hits: Vec<(u64, u32, u32)> = summary
        .hits
        .into_iter()
        .map(|h| (h.pos, h.id, h.len))
        .collect();
    hits.sort_unstable();
    hits
}

proptest! {
    /// The headline equivalence: `grep(compress(T), D) ≡ dictionary
    /// matching over T` for arbitrary texts, dictionaries, and block sizes
    /// — block sizes down to 1 byte, so patterns routinely span many
    /// boundaries.
    #[test]
    fn grep_of_compressed_equals_match_of_raw(
        text in prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c', b'd']), 0..500),
        pats in prop::collection::vec(
            prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c', b'd']), 1..10),
            1..6,
        ),
        block_size in 1usize..48,
    ) {
        let pram = Pram::seq();
        let matcher = SegmentedMatcher::build(&pram, pats);
        let packed = pack(&text, block_size);
        prop_assert_eq!(grep_hits(&matcher, &packed), oracle(&matcher, &text));
    }

    /// Range grep reports exactly the full-grep hits that start in range,
    /// for every range.
    #[test]
    fn range_grep_equals_filtered_full_grep(
        text in prop::collection::vec(prop::sample::select(vec![b'x', b'y']), 1..400),
        block_size in 1usize..32,
        a_frac in 0usize..10_000,
        b_frac in 0usize..10_000,
    ) {
        let patterns = vec![b"xy".to_vec(), b"yx".to_vec(), b"xyx".to_vec()];
        let pram = Pram::seq();
        let matcher = SegmentedMatcher::build(&pram, patterns);
        let packed = pack(&text, block_size);

        let n = text.len() as u64;
        let (mut start, mut end) = (a_frac as u64 % (n + 1), b_frac as u64 % (n + 1));
        if start > end {
            std::mem::swap(&mut start, &mut end);
        }

        let full = grep_hits(&matcher, &packed);
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let summary =
            grep_range(&pram, &matcher, &mut rdr, start, end, &GrepConfig::default()).unwrap();
        let mut got: Vec<(u64, u32, u32)> = summary
            .hits
            .into_iter()
            .map(|h| (h.pos, h.id, h.len))
            .collect();
        got.sort_unstable();
        let expect: Vec<(u64, u32, u32)> = full
            .into_iter()
            .filter(|&(p, _, _)| p >= start && p < end)
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// Orchestration is invisible to everything but the clock: grep under
    /// `Pram::seq` and `Pram::par` returns identical hits, identical issue
    /// reports, identical block counts and **identical ledger costs**, for
    /// any wave size — including on corrupted containers.
    #[test]
    fn seq_grep_equals_par_grep(
        text in prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c', b'd']), 1..600),
        pats in prop::collection::vec(
            prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c', b'd']), 1..8),
            1..5,
        ),
        block_size in 1usize..40,
        wave in 1usize..5,
        corrupt in 0usize..10_000,
    ) {
        let matcher = SegmentedMatcher::build(&Pram::seq(), pats);
        let mut packed = pack(&text, block_size);
        // Half the cases flip one payload byte of an arbitrary block: both
        // modes must report the same issues and skip the same spans.
        if corrupt % 2 == 1 {
            let c = corrupt / 2;
            let rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
            let entries = rdr.index().entries.clone();
            let e = entries[c % entries.len()];
            if e.comp_len > 0 {
                packed[e.offset as usize + stream::format::RECORD_HEADER_LEN] ^= 0x04;
            }
        }

        let run = |pram: &Pram| {
            let cfg = GrepConfig { wave, strict: false };
            let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
            pram.metered(|p| grep_container(p, &matcher, &mut rdr, &cfg).unwrap())
        };
        let (seq, seq_cost) = run(&Pram::seq());
        let (par, par_cost) = run(&Pram::par());

        prop_assert_eq!(&par.hits, &seq.hits);
        prop_assert_eq!(&par.issues, &seq.issues);
        prop_assert_eq!(par.blocks_searched, seq.blocks_searched);
        prop_assert_eq!(par_cost, seq_cost, "mode must not change the ledger");
    }
}

/// A pattern longer than two whole blocks must still be found: its
/// occurrences span ≥ 2 boundaries, exercising tail accumulation.
#[test]
fn pattern_spanning_multiple_boundaries_is_found() {
    let needle = b"abracadabra"; // 11 bytes
    let mut text = Vec::new();
    for i in 0..40 {
        text.extend_from_slice(needle);
        text.extend_from_slice(&[b'z'; 3][..(i % 4)]);
    }
    let patterns = vec![needle.to_vec(), b"cad".to_vec()];
    let pram = Pram::seq();
    let matcher = SegmentedMatcher::build(&pram, patterns);
    // 4-byte blocks: every occurrence of the 11-byte needle crosses at
    // least two block boundaries.
    let packed = pack(&text, 4);
    assert_eq!(grep_hits(&matcher, &packed), oracle(&matcher, &text));
    assert!(
        oracle(&matcher, &text).iter().any(|&(_, id, _)| id == 0),
        "the long needle itself must occur"
    );
}

/// Grep with a served dictionary — a `SegmentedMatcher`, whose `find_all`
/// scans its one exact automaton — reports exactly that `find_all`
/// over the raw text, in its order: one and three segments, duplicate
/// patterns, blocks shorter than the longest pattern, the whole container
/// and ranges, under `Pram::seq` and `Pram::par`.
#[test]
fn segmented_grep_equals_the_whole_text_find_all() {
    use pardict::core::segmented::segment_spans;
    use pardict::workloads::{random_dictionary, text_with_planted_matches};
    for segments in [1usize, 3] {
        let patterns = (0u64..)
            .map(|seed| {
                let mut p = random_dictionary(seed, 200 * segments, 2, 12, Alphabet::dna());
                p.extend_from_within(..3);
                p
            })
            .find(|p| segment_spans(p).len() == segments)
            .unwrap();
        let matcher = SegmentedMatcher::build(&Pram::seq(), patterns.clone());
        assert_eq!(matcher.max_pattern_len(), 12);
        let text = text_with_planted_matches(segments as u64, &patterns, 3000, 30, Alphabet::dna());
        let whole: Vec<GrepHit> = matcher
            .find_all(&Pram::seq(), &text)
            .into_iter()
            .map(|(pos, m)| GrepHit::at(pos as u64, m))
            .collect();
        assert!(whole.len() > 1000, "{} hits", whole.len());
        for block_size in [5, 11] {
            let packed = pack(&text, block_size);
            for pram in [Pram::seq(), Pram::par()] {
                let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
                let cfg = GrepConfig::default();
                let all = grep_container(&pram, &matcher, &mut rdr, &cfg).unwrap();
                assert_eq!(
                    all.hits, whole,
                    "{segments} segments, blocks of {block_size}"
                );
                for (a, b) in [(0u64, 1u64), (7, 400), (2990, 3000)] {
                    let ranged = grep_range(&pram, &matcher, &mut rdr, a, b, &cfg).unwrap();
                    let want: Vec<GrepHit> = whole
                        .iter()
                        .copied()
                        .filter(|h| (a..b).contains(&h.pos))
                        .collect();
                    assert_eq!(ranged.hits, want, "range {a}..{b}");
                }
            }
        }
    }
}

/// Ledger locality: a grep over a 2-block range must cost work
/// proportional to the covered blocks plus overlap, not the whole
/// container.
#[test]
fn range_grep_work_is_block_local() {
    let data = markov_text(0x005E_A2C4, 64 * 1024, Alphabet::dna());
    let packed = pack(&data, 4096); // 16 blocks
    let patterns = vec![b"ACGT".to_vec(), b"TTT".to_vec(), b"GATTACA".to_vec()];
    let matcher = SegmentedMatcher::build(&Pram::seq(), patterns);
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();

    let pram_full = Pram::seq();
    let (_, full) = pram_full
        .metered(|p| grep_container(p, &matcher, &mut rdr, &GrepConfig::default()).unwrap());

    // 10_000..14_000 covers exactly blocks 2 and 3 (plus overlap bytes).
    let pram_range = Pram::seq();
    let (summary, ranged) = pram_range.metered(|p| {
        grep_range(
            p,
            &matcher,
            &mut rdr,
            10_000,
            14_000,
            &GrepConfig::default(),
        )
        .unwrap()
    });
    assert_eq!(summary.blocks_searched, 2, "covering blocks only");
    assert!(
        ranged.work * 6 < full.work,
        "2-of-16-block range grep must cost a fraction of a full grep: {} vs {}",
        ranged.work,
        full.work
    );
}

/// Corruption contract end to end: a payload flip in one block is named,
/// hits outside that block's span all survive, survivors are a subset of
/// the clean hits, and `strict()` turns the same container into a hard
/// error identifying the block.
#[test]
fn corrupt_block_is_skipped_named_and_strict_fails() {
    let data = markov_text(0x00C0_FFEE, 8 * 1024, Alphabet::lowercase());
    let block_size = 1024; // 8 blocks
    let mut packed = pack(&data, block_size);
    let patterns = vec![b"th".to_vec(), b"ing".to_vec(), b"qu".to_vec()];
    let pram = Pram::seq();
    let matcher = SegmentedMatcher::build(&pram, patterns);
    let clean = grep_hits(&matcher, &packed);

    // Flip the first payload byte of block 4.
    let target = {
        let rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let e = rdr.index().entries[4];
        e.offset as usize + stream::format::RECORD_HEADER_LEN
    };
    packed[target] ^= 0x01;

    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    let summary = grep_container(&pram, &matcher, &mut rdr, &GrepConfig::default()).unwrap();
    assert_eq!(summary.issues.len(), 1);
    assert_eq!(summary.issues[0].index, 4, "wrong block named");

    let got: Vec<(u64, u32, u32)> = summary.hits.iter().map(|h| (h.pos, h.id, h.len)).collect();
    // Survivors are a subset of the clean hits…
    for h in &got {
        assert!(clean.contains(h), "phantom hit {h:?}");
    }
    // …and every clean hit not touching block 4's byte span survives.
    let (s4, e4) = (4 * block_size as u64, 5 * block_size as u64);
    for h in clean
        .iter()
        .filter(|&&(p, _, len)| p + u64::from(len) <= s4 || p >= e4)
    {
        assert!(got.contains(h), "lost hit {h:?} outside the corrupt span");
    }

    let strict = grep_container(&pram, &matcher, &mut rdr, &GrepConfig::default().strict());
    assert!(
        matches!(
            strict,
            Err(stream::StreamError::CorruptBlock { index: 4, .. })
        ),
        "strict mode must fail naming block 4: {strict:?}"
    );
}

/// The simulator invariant extended to the search subsystem: `Pram::seq()`
/// and `Pram::par()` produce identical hits and identical ledger charges.
#[test]
fn grep_is_mode_independent() {
    let data = markov_text(0xD00D, 20_000, Alphabet::lowercase());
    let packed = pack(&data, 2048);
    let patterns = vec![b"the".to_vec(), b"and".to_vec(), b"tion".to_vec()];
    let seq = Pram::seq();
    let par = Pram::par();
    let matcher = SegmentedMatcher::build(&seq, patterns);

    let mut rdr_a = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    let (a, ca) =
        seq.metered(|p| grep_container(p, &matcher, &mut rdr_a, &GrepConfig::default()).unwrap());
    let mut rdr_b = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    let (b, cb) =
        par.metered(|p| grep_container(p, &matcher, &mut rdr_b, &GrepConfig::default()).unwrap());
    assert_eq!(a.hits, b.hits);
    assert_eq!(ca, cb, "seq and par ledgers must agree");
}

/// Ledger goldens for the compress loop, grep at two wave sizes and both read
/// loops: each must charge exactly what is pinned here, whatever the wave
/// grouping. Blocks run the sequential halves: SA-IS, Kasai's LCP and the
/// ANSV stack passes (each charged its operation count as depth), the greedy
/// walk (Lemma 4.1 read at phrase starts only, one round per phrase) and the
/// phrase-by-phrase decode. So a block's depth is dominated by its SA-IS
/// pass, then its stack passes, its Kasai pass and its phrase count, and the
/// compress row also pays for decoding each parse back and comparing it with
/// its block. Grep scans each block's buffer with the version's automaton,
/// charged its `n + occ` steps as work and as depth, so its depth is the
/// wave's longest scans. `read_all`/`read_range` depth follows the
/// hardware-derived wave width, so only their work is pinned.
#[test]
fn wave_loops_charge_the_parent_ledger_goldens() {
    let text = markov_text(0x6000, 6000, Alphabet::dna());
    let mut packed = Vec::new();
    for (max_in_flight, depth) in [(1, 225_298), (3, 77_882), (8, 29_513)] {
        let cfg = StreamConfig {
            block_size: 256,
            max_in_flight,
        };
        let (bytes, summary) =
            compress_stream(&Pram::seq(), &mut &text[..], Vec::new(), &cfg).unwrap();
        let want = Cost {
            work: 277_346,
            depth,
        };
        assert_eq!(summary.cost, want, "max_in_flight {max_in_flight}");
        assert_eq!((summary.blocks, summary.phrases), (24, 1027));
        packed = bytes;
    }
    assert_eq!(packed.len(), 3928);

    let patterns = vec![
        b"ACGT".to_vec(),
        b"TTT".to_vec(),
        b"GATTACA".to_vec(),
        b"CA".to_vec(),
    ];
    let matcher = SegmentedMatcher::build(&Pram::seq(), patterns);
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    for (wave, depth) in [(1, 7_645), (3, 2_659)] {
        let cfg = GrepConfig {
            wave,
            strict: false,
        };
        let summary = grep_container(&Pram::seq(), &matcher, &mut rdr, &cfg).unwrap();
        let want = Cost {
            work: 21_540,
            depth,
        };
        assert_eq!(summary.cost, want, "wave {wave}");
        assert_eq!(summary.hits.len(), 132);
    }
    let (_, all) = Pram::seq().metered(|p| rdr.read_all(p).unwrap());
    assert_eq!(all.work, 8_999, "read_all");
    let (_, ranged) = Pram::seq().metered(|p| rdr.read_range(p, 700, 2100).unwrap());
    assert_eq!(ranged.work, 2_684, "read_range(700, 2100)");
}

/// One wave holding a block with a damaged inline header *and* a later
/// block with a flipped payload byte: lenient runs report the fetch-level
/// issue before the decode-level one, strict runs raise the lower-indexed
/// block — through `read_all`/`read_range` and `grep_container` alike,
/// because both run the same fetch and the same decode stage.
#[test]
fn fetch_issues_precede_decode_issues_within_a_wave() {
    use stream::{IssueKind, StreamError};
    let text = markov_text(0xF37C, 2048, Alphabet::dna());
    let mut packed = pack(&text, 256); // 8 blocks
    let entries = StreamReader::open(std::io::Cursor::new(&packed))
        .unwrap()
        .index()
        .entries
        .clone();
    // Blocks 2 and 3 share a wave at every power-of-two wave width.
    packed[entries[2].offset as usize + 1] ^= 0x01; // inline raw_len of block 2
    packed[entries[3].offset as usize + stream::format::RECORD_HEADER_LEN] ^= 0x01;
    let kinds = |issues: &[stream::BlockIssue]| -> Vec<(u64, IssueKind)> {
        issues.iter().map(|i| (i.index, i.kind)).collect()
    };
    let want = vec![(2, IssueKind::HeaderMismatch), (3, IssueKind::Checksum)];

    let pram = Pram::seq();
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    let (out, issues) = rdr.read_all(&pram).unwrap();
    assert_eq!(kinds(&issues), want);
    assert_eq!(out, [&text[..512], &text[1024..]].concat());
    assert!(matches!(
        rdr.read_range(&pram, 0, 2048),
        Err(StreamError::CorruptBlock {
            index: 2,
            kind: IssueKind::HeaderMismatch
        })
    ));

    let patterns = vec![b"ACGT".to_vec(), b"TTT".to_vec()];
    let matcher = SegmentedMatcher::build(&pram, patterns);
    let cfg = GrepConfig {
        wave: 4,
        strict: false,
    };
    let summary = grep_container(&pram, &matcher, &mut rdr, &cfg).unwrap();
    assert_eq!(kinds(&summary.issues), want);
    assert_eq!(summary.blocks_searched, 6);
    assert!(matches!(
        grep_container(&pram, &matcher, &mut rdr, &cfg.strict()),
        Err(StreamError::CorruptBlock {
            index: 2,
            kind: IssueKind::HeaderMismatch
        })
    ));
}
