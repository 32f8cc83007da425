//! `archive`: file → PDZS container → hits.
//!
//! The corpus is 128 KiB of order-1 Markov DNA followed by 128 KiB of
//! Zipf-distributed lowercase words (two text kinds, so `ratio_pct` sits
//! between a poorly and a well compressing half), cut into eight 32 KiB
//! blocks; the dictionary is 256 substrings sampled from it. Each iteration
//! runs `compress_stream` (primary) and then the read side (contrast):
//! `StreamReader::open` + `decompress_stream`, `grep_container`, and four
//! `grep_range` calls of 4 KiB at seeded offsets. The decoded bytes must
//! equal the corpus, the grep hits must equal `find_all` over the raw
//! corpus, and each range's hits must equal the filtered subset.

use super::{
    hits_fingerprint, span_ms, steady_dictionary, sub_seed, Ctx, Layer, Window, PROBE_REPS,
};
use crate::span::{Note, Recorder};
use crate::stats;
use pardict_compress::{
    decode_tokens, encode_tokens, longest_previous_factor_from_tree, lz1_compress, lz1_decompress,
};
use pardict_core::SegmentedMatcher;
use pardict_pram::{Pram, SplitMix64};
use pardict_search::{grep_container, grep_range, GrepConfig, GrepHit};
use pardict_service::Hit;
use pardict_stream::{
    compress_stream, decode_block, decompress_stream, StreamConfig, StreamReader, METHOD_STORED,
    STREAM_SEED,
};
use pardict_suffix::SuffixTree;
use pardict_workloads::{dictionary_from_text, markov_text, zipf_text, Alphabet};
use std::io::Cursor;
use std::time::{Duration, Instant};

const HALF: usize = 128 << 10;
const BLOCK: usize = 32 << 10;
const PATTERNS: usize = 256;
const RANGE: u64 = 4 << 10;
const RANGES_PER_ITERATION: usize = 4;
const ZIPF_VOCAB: usize = 512;
/// compress, open + decompress, grep, and the range greps.
const CALLS_PER_ITERATION: u64 = 3 + RANGES_PER_ITERATION as u64;

struct Env {
    corpus: Vec<u8>,
    matcher: SegmentedMatcher,
    cfg: StreamConfig,
    /// A container from the warm-up, for probes that only read.
    container: Vec<u8>,
}

fn grep_print(hits: &[GrepHit]) -> u64 {
    hits_fingerprint(hits.iter().map(|h| Hit {
        pos: h.pos,
        id: h.id,
        len: h.len,
    }))
}

/// What one iteration measured, in milliseconds.
struct Cycle {
    compress: f64,
    decompress: f64,
    grep: f64,
    ranges: Vec<f64>,
    container_len: usize,
    mismatches: u64,
}

impl Env {
    fn build(cx: &Ctx, rec: &mut Recorder) -> Self {
        let mut corpus = markov_text(cx.seed(0), HALF, Alphabet::dna());
        corpus.extend(zipf_text(
            cx.seed(1),
            HALF,
            ZIPF_VOCAB,
            Alphabet::lowercase(),
        ));
        // One segment: grep then makes one pass over each decoded block.
        let patterns = steady_dictionary(1, 0, |attempt| {
            dictionary_from_text(sub_seed(cx.seed(2), attempt), &corpus, PATTERNS, 4, 12)
        });
        let matcher = SegmentedMatcher::build(&Pram::par(), patterns);
        let mut env = Self {
            corpus,
            matcher,
            cfg: StreamConfig::with_block_size(BLOCK),
            container: Vec::new(),
        };
        // Warm-up: one full cycle.
        let (container, _) = env.compress(rec, "warmup");
        env.read_side(rec, &container, &mut SplitMix64::new(cx.seed(3)), None);
        env.container = container;
        env
    }

    fn compress(&self, rec: &mut Recorder, span: &'static str) -> (Vec<u8>, f64) {
        rec.timed_note(span, |_| {
            let (container, summary) = compress_stream(
                &Pram::par(),
                &mut &self.corpus[..],
                Vec::with_capacity(self.corpus.len()),
                &self.cfg,
            )
            .expect("compress into memory");
            (container, summary.cost.into())
        })
    }

    /// Decompress, grep and range-grep `container`; with `truth` (all hits
    /// over the raw corpus, in grep order) also check every output.
    fn read_side(
        &self,
        rec: &mut Recorder,
        container: &[u8],
        rng: &mut SplitMix64,
        truth: Option<&[Hit]>,
    ) -> Cycle {
        let mut mismatches = 0u64;
        let (decoded, decompress) = rec.timed("stream.open+decompress", |_| {
            let rdr = StreamReader::open(Cursor::new(container)).expect("open container");
            let (out, summary) = decompress_stream(
                &Pram::par(),
                &mut &container[..],
                Vec::with_capacity(rdr.len() as usize),
            )
            .expect("decompress container");
            assert!(summary.issues.is_empty(), "fresh container has no issues");
            out
        });
        mismatches += u64::from(decoded != self.corpus);

        let grep_cfg = GrepConfig::default();
        let (summary, grep) = rec.timed_note("search.grep_container", |_| {
            let mut rdr = StreamReader::open(Cursor::new(container)).expect("open container");
            let s = grep_container(&Pram::par(), &self.matcher, &mut rdr, &grep_cfg)
                .expect("grep container");
            let note = Note {
                cost: s.cost,
                count: s.hits.len() as u64,
            };
            (s, note)
        });
        if let Some(truth) = truth {
            mismatches +=
                u64::from(grep_print(&summary.hits) != hits_fingerprint(truth.iter().copied()));
        }

        let mut ranges = Vec::new();
        for _ in 0..RANGES_PER_ITERATION {
            let start = rng.next_below(self.corpus.len() as u64 - RANGE);
            let (summary, ms) = rec.timed_note("search.grep_range_4k", |_| {
                let mut rdr = StreamReader::open(Cursor::new(container)).expect("open container");
                let s = grep_range(
                    &Pram::par(),
                    &self.matcher,
                    &mut rdr,
                    start,
                    start + RANGE,
                    &grep_cfg,
                )
                .expect("grep range");
                let note = Note {
                    cost: s.cost,
                    count: s.blocks_searched,
                };
                (s, note)
            });
            ranges.push(ms);
            if let Some(truth) = truth {
                let want = truth
                    .iter()
                    .copied()
                    .filter(|h| (start..start + RANGE).contains(&h.pos));
                mismatches += u64::from(grep_print(&summary.hits) != hits_fingerprint(want));
            }
        }
        Cycle {
            compress: 0.0,
            decompress,
            grep,
            ranges,
            container_len: container.len(),
            mismatches,
        }
    }
}

pub fn run(cx: &Ctx, rec: &mut Recorder, layer: &mut Layer) -> Window {
    let (env, setup_s) = cx.setup(rec, |rec, _| Env::build(cx, rec));
    let mut w = Window {
        setup_s,
        ..Window::default()
    };
    // The reference answer: every occurrence in the raw corpus.
    let truth: Vec<Hit> = env
        .matcher
        .find_all(&Pram::par(), &env.corpus)
        .into_iter()
        .map(|(pos, m)| Hit {
            pos: pos as u64,
            id: m.id,
            len: m.len,
        })
        .collect();

    let mut cycles: Vec<Cycle> = Vec::new();
    rec.timed("window", |rec| {
        let deadline = Instant::now() + Duration::from_secs_f64(cx.window_seconds());
        let mut rng = SplitMix64::new(cx.seed(4));
        while cycles.is_empty() || Instant::now() < deadline {
            rec.iteration = cycles.len() as u32;
            let (container, compress) = env.compress(rec, "stream.compress_stream");
            let mut cycle = env.read_side(rec, &container, &mut rng, Some(&truth));
            cycle.compress = compress;
            cycles.push(cycle);
        }
    });

    let col = |f: fn(&Cycle) -> f64| -> Vec<f64> { cycles.iter().map(f).collect() };
    let read_ms = |c: &Cycle| c.decompress + c.grep + c.ranges.iter().sum::<f64>();
    w.primary_ms = col(|c| c.compress);
    w.contrast_ms = cycles.iter().map(read_ms).collect();
    w.attempted = CALLS_PER_ITERATION * cycles.len() as u64;
    w.failed = cycles.iter().map(|c| c.mismatches).sum();
    let busy: Vec<f64> = cycles.iter().map(|c| c.compress + read_ms(c)).collect();
    w.req_per_s = CALLS_PER_ITERATION as f64 / (stats::median(&busy) / 1e3);

    let mb = env.corpus.len() as f64 / 1e6;
    let per_s = |ms: Vec<f64>| mb / (stats::median(&ms) / 1e3);
    layer.set("compress_mb_s", per_s(col(|c| c.compress)));
    layer.set("decompress_mb_s", per_s(col(|c| c.decompress)));
    layer.set("grep_mb_s", per_s(col(|c| c.grep)));
    let all_ranges: Vec<f64> = cycles.iter().flat_map(|c| c.ranges.clone()).collect();
    layer.set("range_grep_ms", stats::median(&all_ranges));
    layer.set(
        "ratio_pct",
        cycles[0].container_len as f64 / env.corpus.len() as f64 * 100.0,
    );
    if cx.args.trace {
        rec.timed("probe", |rec| probes(rec, layer, &env));
    }
    w
}

/// Layer probes. Blocks are compressed on `Pram::seq()` because that is the
/// context `stream` gives each block (its parallelism is across blocks).
fn probes(rec: &mut Recorder, layer: &mut Layer, env: &Env) {
    let dna_block = &env.corpus[..BLOCK];
    let words_block = &env.corpus[HALF..HALF + BLOCK];
    let seq = Pram::seq();
    let par = Pram::par();
    let lz1 = |rec: &mut Recorder, name: &'static str, block: &[u8]| {
        rec.timed_note(name, |_| {
            let (tokens, cost) = seq.metered(|p| lz1_compress(p, block, STREAM_SEED));
            (tokens, cost.into())
        })
        .0
    };
    for _ in 0..PROBE_REPS {
        let tokens = lz1(rec, "compress.lz1_block", dna_block);
        lz1(rec, "compress.lz1_block.words", words_block);
        let (st, _) = rec.timed_note("suffix.tree_build.block", |_| {
            let (st, cost) = seq.metered(|p| SuffixTree::build(p, dna_block, STREAM_SEED));
            (st, cost.into())
        });
        rec.timed_note("compress.lpf_from_tree", |_| {
            let (lpf, cost) = seq.metered(|p| longest_previous_factor_from_tree(p, &st));
            (std::hint::black_box(lpf).len(), cost.into())
        });
        let (bytes, _) = rec.timed("compress.encode_tokens", |_| encode_tokens(&tokens));
        rec.timed("compress.decode_tokens", |_| {
            std::hint::black_box(decode_tokens(&bytes).expect("round trip"))
        });
        rec.timed_note("compress.lz1_decompress_block", |_| {
            let (out, cost) = seq.metered(|p| lz1_decompress(p, &tokens, STREAM_SEED));
            assert_eq!(out, dna_block);
            ((), cost.into())
        });
        layer.set("compress.phrases", tokens.len() as f64);

        let (mut rdr, _) = rec.timed("stream.open", |_| {
            StreamReader::open(Cursor::new(&env.container[..])).expect("open container")
        });
        let entry = rdr.index().entries[0];
        let payload = rdr.raw_block(0).expect("fetch block 0");
        rec.timed_note("stream.decode_block", |_| {
            let (out, cost) = seq.metered(|p| decode_block(p, 0, &entry, payload));
            (out.expect("block 0 decodes").len(), cost.into())
        });
        rec.timed("stream.read_all", |_| {
            std::hint::black_box(rdr.read_all(&par).expect("read all"))
        });
        let mid = env.corpus.len() as u64 / 2;
        rec.timed("stream.read_range_4k", |_| {
            std::hint::black_box(rdr.read_range(&par, mid, mid + RANGE).expect("read range"))
        });
    }
    layer.set("stream.container_bytes", env.container.len() as f64);
    let index = StreamReader::open(Cursor::new(&env.container[..]))
        .expect("open container")
        .index()
        .clone();
    layer.set(
        "stream.stored_blocks",
        index
            .entries
            .iter()
            .filter(|e| e.method == METHOD_STORED)
            .count() as f64,
    );
    layer.set(
        "search.grep_range_4k.blocks_searched",
        rec.spans()
            .iter()
            .find(|s| s.name == "search.grep_range_4k")
            .map_or(0.0, |s| s.count as f64),
    );

    // Everything below runs under `Pram::seq()` so that nothing overlaps and
    // the parts of a whole can be subtracted from it.
    let blocks: Vec<&[u8]> = env.corpus.chunks(BLOCK).collect();
    let (_, stream_seq) = rec.timed("stream.compress_stream.seq", |_| {
        compress_stream(&seq, &mut &env.corpus[..], Vec::new(), &env.cfg).expect("compress")
    });
    let (_, blocks_seq) = rec.timed("compress.lz1_blocks.seq", |_| {
        for b in &blocks {
            std::hint::black_box(encode_tokens(&lz1_compress(&seq, b, STREAM_SEED)));
        }
    });
    layer.set(
        "stream.wave_overhead_ms",
        (stream_seq - blocks_seq).max(0.0),
    );
    layer.set(
        "pram.par_over_seq.compress",
        span_ms(rec, "stream.compress_stream") / stream_seq,
    );

    let open = || StreamReader::open(Cursor::new(&env.container[..])).expect("open container");
    let barrier = GrepConfig::default().barrier();
    let (_, grep_seq) = rec.timed("search.grep_container.seq", |_| {
        grep_container(&seq, &env.matcher, &mut open(), &barrier).expect("grep")
    });
    let (_, decode_seq) = rec.timed("stream.decode_blocks.seq", |_| {
        let mut rdr = open();
        for i in 0..index.entries.len() {
            let payload = rdr.raw_block(i).expect("fetch block");
            std::hint::black_box(
                decode_block(&seq, i as u64, &index.entries[i], payload).expect("decode"),
            );
        }
    });
    let (_, match_seq) = rec.timed("core.find_all.seq", |_| {
        std::hint::black_box(env.matcher.find_all(&seq, &env.corpus))
    });
    layer.set("search.decode_ms", decode_seq);
    layer.set("search.match_ms", match_seq);
    layer.set(
        "search.stitch_ms",
        (grep_seq - decode_seq - match_seq).max(0.0),
    );
    println!(
        "closure archive: decode {decode_seq:.1} + match {match_seq:.1} ms vs seq barrier \
         grep_container {grep_seq:.1} ms ({:+.1} %)",
        ((decode_seq + match_seq) / grep_seq - 1.0) * 100.0
    );

    let pipelined = GrepConfig::default();
    for _ in 0..PROBE_REPS {
        for (name, cfg) in [
            ("search.grep_container.barrier", &barrier),
            ("search.grep_container.pipelined", &pipelined),
        ] {
            rec.timed(name, |_| {
                grep_container(&par, &env.matcher, &mut open(), cfg).expect("grep")
            });
        }
    }
    layer.set(
        "exec.pipeline_gain",
        span_ms(rec, "search.grep_container.barrier")
            / span_ms(rec, "search.grep_container.pipelined"),
    );
}
