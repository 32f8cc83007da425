//! Integration tests for the chunked streaming container: round-trips
//! over arbitrary bytes, corruption detection (truncation and bit flips),
//! random-access equivalence, ledger attribution of range reads, and the
//! blockwise approximation bound against whole-buffer LZ1.

use pardict::compress::encode_tokens;
use pardict::prelude::*;
use pardict::stream::{self, compress_stream, decompress_stream, is_container, StreamError};
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

proptest! {
    /// Arbitrary bytes (NULs included) at arbitrary block sizes round-trip
    /// byte-identically through both decoders.
    #[test]
    fn container_roundtrips_arbitrary_bytes(
        data in prop::collection::vec(any::<u8>(), 0..600),
        block_size in 1usize..300,
    ) {
        let packed = pack(&data, block_size);
        prop_assert!(is_container(&packed) );

        let pram = Pram::seq();
        let (streamed, summary) =
            decompress_stream(&pram, &mut &packed[..], Vec::new()).unwrap();
        prop_assert_eq!(&streamed, &data);
        prop_assert!(summary.issues.is_empty());

        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let (seeked, issues) = rdr.read_all(&pram).unwrap();
        prop_assert_eq!(&seeked, &data);
        prop_assert!(issues.is_empty());
    }

    /// Truncating the container anywhere must break the seekable open and
    /// never let the streaming decoder return wrong data silently.
    #[test]
    fn truncation_never_passes_silently(
        data in prop::collection::vec(any::<u8>(), 1..400),
        block_size in 1usize..64,
        cut_frac in 0usize..10_000,
    ) {
        let packed = pack(&data, block_size);
        let cut = cut_frac % packed.len(); // strictly shorter than full
        let sliced = &packed[..cut];
        prop_assert!(StreamReader::open(std::io::Cursor::new(sliced)).is_err());
        let pram = Pram::seq();
        match decompress_stream(&pram, &mut &sliced[..], Vec::new()) {
            Err(_) => {}
            Ok((out, summary)) => {
                // Acceptable only when the cut hit the index region (data
                // intact) or the loss was reported per block.
                prop_assert!(
                    out == data || !summary.issues.is_empty() || out.len() < data.len(),
                    "cut {} of {} produced silent wrong data", cut, packed.len()
                );
                if out != data {
                    prop_assert!(
                        !summary.issues.is_empty() || out.len() < data.len(),
                        "wrong data with no report"
                    );
                }
            }
        }
    }

    /// Any single-bit flip anywhere in the container is either rejected
    /// structurally, reported as a block issue, or provably harmless
    /// (identical output) — never silently wrong data.
    #[test]
    fn single_bit_flips_never_pass_silently(
        data in prop::collection::vec(any::<u8>(), 1..400),
        block_size in 1usize..64,
        pos_frac in 0usize..10_000,
        bit in 0usize..8,
    ) {
        let mut packed = pack(&data, block_size);
        let pos = pos_frac % packed.len();
        packed[pos] ^= 1 << bit;

        let pram = Pram::seq();
        match StreamReader::open(std::io::Cursor::new(&packed)) {
            Err(_) => {} // structural detection
            Ok(mut rdr) => {
                let (out, issues) = rdr.read_all(&pram).unwrap();
                prop_assert!(
                    !issues.is_empty() || out == data,
                    "seekable: flipped bit {} at {} passed silently", bit, pos
                );
            }
        }
        match decompress_stream(&pram, &mut &packed[..], Vec::new()) {
            Err(_) => {}
            Ok((out, summary)) => prop_assert!(
                !summary.issues.is_empty() || out == data,
                "streaming: flipped bit {} at {} passed silently", bit, pos
            ),
        }
    }

    /// `read_range` must equal the same slice of the full decompression,
    /// for every range — the `cat --range` correctness contract.
    #[test]
    fn range_reads_equal_full_decode_slices(
        data in prop::collection::vec(any::<u8>(), 0..500),
        block_size in 1usize..48,
        a_frac in 0usize..10_000,
        b_frac in 0usize..10_000,
    ) {
        let packed = pack(&data, block_size);
        let n = data.len() as u64;
        let (mut start, mut end) = (
            a_frac as u64 % (n + 1),
            b_frac as u64 % (n + 1),
        );
        if start > end {
            std::mem::swap(&mut start, &mut end);
        }
        let pram = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let got = rdr.read_range(&pram, start, end).unwrap();
        prop_assert_eq!(&got, &data[start as usize..end as usize]);
    }
}

/// A flip inside one specific block's payload must name that block.
#[test]
fn payload_flip_reports_the_exact_block() {
    let data: Vec<u8> = (0..1000u32)
        .flat_map(|i| [(i % 250 + 1) as u8, b'q'])
        .collect();
    let block_size = 256; // 8 blocks of 2000 bytes
    let mut packed = pack(&data, block_size);

    // Locate block 5's payload via the clean index, then flip its first byte.
    let target = {
        let rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let e = rdr.index().entries[5];
        assert!(e.comp_len > 0);
        e.offset as usize + stream::format::RECORD_HEADER_LEN
    };
    packed[target] ^= 0x01;

    let pram = Pram::seq();
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    let (out, issues) = rdr.read_all(&pram).unwrap();
    assert_eq!(issues.len(), 1);
    assert_eq!(issues[0].index, 5, "wrong block named: {:?}", issues[0]);
    assert_eq!(
        out.len() as u64 + u64::from(issues[0].raw_len),
        data.len() as u64
    );

    // The other seven blocks must still be individually readable.
    for i in 0..8 {
        let (start, end) = (i * block_size, ((i + 1) * block_size).min(data.len()));
        let got = rdr.read_range(&pram, start as u64, end as u64);
        if i == 5 {
            assert!(matches!(
                got,
                Err(StreamError::CorruptBlock { index: 5, .. })
            ));
        } else {
            assert_eq!(got.unwrap(), &data[start..end], "block {i} unreadable");
        }
    }
}

/// A well-framed LZ1 payload whose checksum matches but whose tokens expand
/// past or short of the block's raw length — `[Literal, Copy { src: 0, len:
/// u32::MAX }]` claims 4 GiB — is that block's `LengthMismatch`, caught
/// before anything is allocated for it: through `decode_block`, the
/// seekable reader and the forward decoder alike, with the blocks around
/// it intact.
#[test]
fn hostile_token_lengths_are_block_issues_not_aborts() {
    use pardict::compress::Token;
    use pardict::core::crc32;
    use pardict::stream::{
        assemble_container, decode_block, IssueKind, RecordHeader, METHOD_LZ1, METHOD_STORED,
    };
    let over = encode_tokens(&[
        Token::Literal(b'a'),
        Token::Copy {
            src: 0,
            len: u32::MAX,
        },
    ]);
    let under = encode_tokens(&[Token::Literal(b'a'), Token::Copy { src: 0, len: 2 }]);
    let record = |method, payload: &[u8]| RecordHeader {
        method,
        raw_len: 8,
        comp_len: payload.len() as u32,
        crc: crc32(payload),
    };
    let packed = assemble_container(
        8,
        &[
            (record(METHOD_STORED, b"abcdefgh"), &b"abcdefgh"[..]),
            (record(METHOD_LZ1, &over), &over),
            (record(METHOD_LZ1, &under), &under),
            (record(METHOD_STORED, b"ijklmnop"), &b"ijklmnop"[..]),
        ],
    );
    let want = [
        (1, IssueKind::LengthMismatch),
        (2, IssueKind::LengthMismatch),
    ];
    let kinds = |issues: &[stream::BlockIssue]| -> Vec<(u64, IssueKind)> {
        issues.iter().map(|i| (i.index, i.kind)).collect()
    };

    let pram = Pram::seq();
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    for (i, kind) in want {
        let entry = rdr.index().entries[i as usize];
        let payload = rdr.raw_block(i as usize).unwrap();
        let issue = decode_block(&pram, i, &entry, payload).unwrap_err();
        assert_eq!((issue.index, issue.kind), (i, kind));
    }
    let (out, issues) = rdr.read_all(&pram).unwrap();
    assert_eq!(out, b"abcdefghijklmnop");
    assert_eq!(kinds(&issues), want);
    let (out, summary) = decompress_stream(&pram, &mut &packed[..], Vec::new()).unwrap();
    assert_eq!(out, b"abcdefghijklmnop");
    assert_eq!(kinds(&summary.issues), want);
}

/// Range reads must be charged block-local work on the ledger — the
/// work-attribution proof that `cat --range` decodes only covering blocks.
#[test]
fn range_read_work_is_block_local() {
    let data = markov_text(0x5EED_CAFE, 64 * 1024, Alphabet::dna());
    let packed = pack(&data, 4096); // 16 blocks
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();

    let pram_full = Pram::seq();
    let (_, full) = pram_full.metered(|p| rdr.read_all(p).unwrap());
    let pram_range = Pram::seq();
    let (slice, ranged) = pram_range.metered(|p| rdr.read_range(p, 10_000, 11_000).unwrap());
    assert_eq!(slice, &data[10_000..11_000]);
    assert!(
        ranged.work * 8 < full.work,
        "one-block range read must cost a fraction of a full decode: {} vs {}",
        ranged.work,
        full.work
    );
}

/// On a realistic corpus spanning ≥4 blocks, the blockwise container stays
/// within 15% of the whole-buffer LZ1 size — the Fischer et al.-style
/// approximation bound the pipeline is allowed to pay for parallelism.
#[test]
fn approximation_ratio_within_15_percent() {
    let text = markov_text(0xAB5_712, 128 * 1024, Alphabet::dna());
    let cfg = StreamConfig::with_block_size(32 * 1024); // 4 blocks
    let pram = Pram::par();
    let streamed = compress_stream(&pram, &mut &text[..], Vec::new(), &cfg)
        .unwrap()
        .0
        .len();
    let whole = encode_tokens(&lz1_compress(&pram, &text, stream::STREAM_SEED)).len();
    assert!(
        (streamed as f64) <= (whole as f64) * 1.15,
        "blockwise {streamed} B vs whole-buffer {whole} B exceeds 15%"
    );
}

/// `slice_container` edge cases: empty ranges are rejected (in block
/// units, with the block count in the error), a single-block slice is a
/// standalone container decoding exactly that block, and a slice over
/// data whose length is an exact multiple of the block size — every
/// block full, the range ending on the final boundary — round-trips.
#[test]
fn slice_container_edge_cases() {
    use pardict::stream::slice_container;
    let pram = Pram::seq();
    let decode = |bytes: &[u8]| {
        let (out, summary) = decompress_stream(&pram, &mut &bytes[..], Vec::new()).unwrap();
        assert!(summary.issues.is_empty());
        out
    };

    // 1000 bytes at block size 250: four blocks, all exactly full, so
    // the container's "last block may be short" invariant is exercised
    // at its boundary (the last block is not short).
    let data = markov_text(0x51_1CE, 1000, Alphabet::lowercase());
    let packed = pack(&data, 250);

    // Empty ranges — both degenerate (a..a) and inverted-by-zero (0..0)
    // — are errors naming block units, not silent empty containers.
    for empty in [0..0, 2..2, 4..4] {
        match slice_container(&packed, empty.clone()) {
            Err(StreamError::RangeOutOfBounds { start, end, len }) => {
                assert_eq!((start, end), (empty.start as u64, empty.end as u64));
                assert_eq!(len, 4, "len must be the block count");
            }
            other => panic!("empty range {empty:?} must be rejected, got {other:?}"),
        }
    }
    // A range past the block count is out of bounds, not clamped.
    assert!(matches!(
        slice_container(&packed, 3..5),
        Err(StreamError::RangeOutOfBounds { .. })
    ));

    // Single-block ranges: each is a valid standalone container holding
    // exactly that block's bytes.
    for i in 0..4 {
        let one = slice_container(&packed, i..i + 1).unwrap();
        assert!(is_container(&one), "block {i} slice must be a container");
        assert_eq!(decode(&one), &data[i * 250..(i + 1) * 250]);
    }

    // Range ending exactly on the final block boundary: the slice is the
    // tail of the data, and slicing the full range reproduces the data.
    assert_eq!(
        decode(&slice_container(&packed, 1..4).unwrap()),
        &data[250..]
    );
    assert_eq!(decode(&slice_container(&packed, 0..4).unwrap()), data);

    // Same boundary case when the original last block IS short: a range
    // ending just before it stops at the boundary of full blocks.
    let ragged = markov_text(0x51_1CF, 1001, Alphabet::lowercase());
    let packed = pack(&ragged, 250); // 5 blocks, last holds 1 byte
    assert_eq!(
        decode(&slice_container(&packed, 2..4).unwrap()),
        &ragged[500..1000]
    );
    assert_eq!(
        decode(&slice_container(&packed, 4..5).unwrap()),
        &ragged[1000..]
    );
}

/// Seq and Par pipelines produce identical containers and identical ledger
/// charges — the simulator invariant extended to the new subsystem.
#[test]
fn stream_output_is_mode_independent() {
    let data = markov_text(0xD1CE, 20_000, Alphabet::lowercase());
    let cfg = StreamConfig {
        block_size: 2048,
        max_in_flight: 4,
    };
    let seq = Pram::seq();
    let par = Pram::par();
    let ((a, sa), ca) =
        seq.metered(|p| compress_stream(p, &mut &data[..], Vec::new(), &cfg).unwrap());
    let ((b, sb), cb) =
        par.metered(|p| compress_stream(p, &mut &data[..], Vec::new(), &cfg).unwrap());
    assert_eq!(a, b);
    assert_eq!(ca, cb);
    assert_eq!(sa.blocks, sb.blocks);
}

/// The LZ1 factorisation is a function of the text alone: token streams and
/// containers stay byte-identical to the ones captured before the Lemma 4.1
/// match table moved onto the suffix tree's own Euler tour, so ratio,
/// phrase count and container size cannot drift. `(seed, alphabet,
/// encoded-token bytes, their CRC, container bytes, its CRC)`.
#[test]
fn lz1_tokens_and_container_match_golden_bytes() {
    use pardict::compress::encode_tokens;
    use pardict::core::crc32;
    let golden = [
        (
            0x601D_0001u64,
            Alphabet::dna(),
            7243usize,
            3_035_925_029u32,
            8943usize,
            2_777_614_253u32,
        ),
        (
            0x601D_0002,
            Alphabet::lowercase(),
            15014,
            4_052_124_922,
            17784,
            3_932_012_609,
        ),
        (
            0x601D_0003,
            Alphabet::binary(),
            3761,
            3_480_263_721,
            4711,
            2_460_640_068,
        ),
    ];
    let pram = Pram::seq();
    for (seed, alphabet, token_len, token_crc, packed_len, packed_crc) in golden {
        let data = markov_text(seed, 24_000, alphabet);
        let tokens = encode_tokens(&lz1_compress(&pram, &data, seed));
        assert_eq!(
            (tokens.len(), crc32(&tokens)),
            (token_len, token_crc),
            "lz1_compress tokens, seed {seed:#x}"
        );
        let packed = pack(&data, 4096);
        assert_eq!(
            (packed.len(), crc32(&packed)),
            (packed_len, packed_crc),
            "compress_stream container, seed {seed:#x}"
        );
    }
}

/// `copy_to` is the bounded-memory face of `read_all`: over a 16-block
/// container the writer never sees more than one wave in a single write,
/// and the bytes are exactly `read_all`'s.
#[test]
fn copy_to_streams_wave_by_wave() {
    struct Counting {
        out: Vec<u8>,
        largest: usize,
    }
    impl std::io::Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let block_size = 512;
    let data = markov_text(0xC0_9470, 16 * block_size, Alphabet::dna());
    let packed = pack(&data, block_size);
    let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
    assert_eq!(rdr.index().num_blocks(), 16);
    let pram = Pram::par();
    let mut sink = Counting {
        out: Vec::new(),
        largest: 0,
    };
    let issues = rdr.copy_to(&pram, &mut sink).unwrap();
    assert!(issues.is_empty());
    assert!(sink.largest > 0 && sink.largest <= pardict::pram::harts() * block_size);
    assert_eq!(sink.out, rdr.read_all(&pram).unwrap().0);
    assert_eq!(sink.out, data);
}
