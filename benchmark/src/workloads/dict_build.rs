//! `dict-build`: preprocessing does all the work, matching none.
//!
//! Each iteration cold-publishes one fresh 4 000-pattern DNA dictionary
//! (primary: ≤ 8 colours, so `core::dsm` picks `ColoredAncestorsNaive`) and
//! one fresh 4 000-pattern lowercase dictionary (contrast: σ = 26, the vEB
//! variant) through `Registry::publish` with a `Store` attached and fsync
//! on. Every iteration gets its own registry and store directory, so the
//! content-hash cache never hits and resident memory does not grow with the
//! number of iterations a run completes. After the window every directory is
//! reopened and must recover both dictionaries at the acknowledged version.

use super::{span_ms, steady_dictionary, sub_seed, Ctx, Layer, Window, PROBE_REPS};
use crate::span::{Note, Recorder};
use crate::stats;
use pardict_ancestors::{ColoredAncestors, ColoredAncestorsNaive};
use pardict_core::segmented::segment_spans;
use pardict_core::{
    list_hash, AhoCorasick, DictDelta, DictMatcher, Dictionary, SegmentedMatcher, SubstringMatcher,
};
use pardict_pram::{Cost, Pram};
use pardict_service::{Metrics, Registry};
use pardict_store::{Store, StoreConfig};
use pardict_suffix::{sym_code, SuffixTree};
use pardict_workloads::{dictionary_size, random_dictionary, Alphabet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const PATTERNS: usize = 4000;
const MIN_LEN: usize = 4;
const MAX_LEN: usize = 12;
/// 4 000 patterns cut into 15.6 segments on average.
const SEGMENTS: usize = 16;
/// Any fixed value: probe builds need a fingerprint seed, not a varying one.
const PROBE_SEED: u64 = 0xD1C7_B01D;

const WARM_BASE: usize = 1 << 32;

const DURABLE: StoreConfig = StoreConfig {
    snapshot_every: 0,
    sync: true,
};

/// The two dictionaries of iteration `i` (set-up `k` warms up on iteration
/// `WARM_BASE + k`, which no timed window reaches).
fn dictionaries(cx: &Ctx, i: usize) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let draw = |stream: u64, alpha: Alphabet| {
        steady_dictionary(SEGMENTS, 0, |attempt| {
            let seed = sub_seed(cx.seed(stream), attempt);
            random_dictionary(seed, PATTERNS, MIN_LEN, MAX_LEN, alpha)
        })
    };
    let i = i as u64;
    (
        draw(2 * i, Alphabet::dna()),
        draw(2 * i + 1, Alphabet::lowercase()),
    )
}

/// One acknowledged publish, to be found again after reopening `dir`.
struct Ack {
    dir: PathBuf,
    name: &'static str,
    version: u64,
    patterns_hash: u64,
}

/// Publish both dictionaries into a fresh registry backed by a fresh store
/// in `dir`. Returns (DNA ms, lowercase ms); a failed publish is +∞.
fn iteration(
    rec: &mut Recorder,
    dir: &Path,
    dna: Vec<Vec<u8>>,
    lower: Vec<Vec<u8>>,
    acks: &mut Vec<Ack>,
) -> (f64, f64) {
    let registry = Registry::new(Arc::new(Metrics::default()));
    registry.attach_store(Store::open(dir, DURABLE).expect("open store in scratch directory"));
    let mut publish = |span: &'static str, name: &'static str, patterns: Vec<Vec<u8>>| {
        let patterns_hash = list_hash(&patterns);
        let (out, ms) = rec.timed_note(span, |_| {
            let out = registry.publish(name, patterns);
            let cost = out.as_ref().map_or(Cost::default(), |o| o.build_cost);
            (out, Note::from(cost))
        });
        match out {
            Ok(o) => {
                acks.push(Ack {
                    dir: dir.to_path_buf(),
                    name,
                    version: o.version,
                    patterns_hash,
                });
                ms
            }
            Err(_) => f64::INFINITY,
        }
    };
    let a = publish("service.registry_publish_cold", "dna", dna);
    let b = publish("service.registry_publish_cold.lower", "lower", lower);
    (a, b)
}

pub fn run(cx: &Ctx, rec: &mut Recorder, layer: &mut Layer) -> Window {
    // Set-up: input generation plus one warm-up iteration (page cache,
    // allocator arenas, the scratch directory's metadata).
    let ((), setup_s) = cx.setup(rec, |rec, k| {
        let (dna, lower) = dictionaries(cx, WARM_BASE + k);
        let dir = cx.scratch.sub(&format!("warm-{k}"));
        iteration(rec, &dir, dna, lower, &mut Vec::new());
    });

    let mut w = Window {
        setup_s,
        ..Window::default()
    };
    let mut acks = Vec::new();
    let mut busy_ms = Vec::new();
    let (bytes, _) = rec.timed("window", |rec| {
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(cx.window_seconds());
        let mut bytes = 0usize;
        let mut i = 0usize;
        while i == 0 || Instant::now() < deadline {
            rec.iteration = i as u32;
            let (dna, lower) = dictionaries(cx, i);
            bytes = dictionary_size(&dna) + dictionary_size(&lower);
            let dir = cx.scratch.sub(&format!("iter-{i}"));
            let (a, b) = iteration(rec, &dir, dna, lower, &mut acks);
            w.primary_ms.push(a);
            w.contrast_ms.push(b);
            busy_ms.push(a + b);
            i += 1;
        }
        bytes
    });
    w.attempted = 2 * busy_ms.len() as u64;
    w.failed = (w.primary_ms.iter().chain(&w.contrast_ms))
        .filter(|ms| ms.is_infinite())
        .count() as u64;

    // Output check: every acknowledged dictionary is recovered, at its
    // acknowledged version, with its patterns, by a cold `Store::open`.
    rec.timed("verify", |rec| {
        let mut dirs: Vec<&Path> = acks.iter().map(|a| a.dir.as_path()).collect();
        dirs.dedup();
        for dir in dirs {
            let (store, _) = rec.timed("store.recover", |_| Store::open(dir, DURABLE));
            for ack in acks.iter().filter(|a| a.dir == dir) {
                let recovered = store
                    .as_ref()
                    .ok()
                    .and_then(|s| s.get(ack.name))
                    .is_some_and(|d| {
                        d.version == ack.version && list_hash(&d.patterns) == ack.patterns_hash
                    });
                if !recovered {
                    eprintln!(
                        "dict-build: {} not recovered from {}",
                        ack.name,
                        dir.display()
                    );
                    w.failed += 1;
                }
            }
        }
    });

    let iter_s = stats::median(&busy_ms) / 1e3;
    w.req_per_s = 2.0 / iter_s;
    layer.set("build_kb_s", bytes as f64 / 1e3 / iter_s);
    if cx.args.trace {
        let (dna, lower) = dictionaries(cx, 0);
        rec.timed("probe", |rec| probes(cx, rec, layer, &dna, &lower));
    }
    w
}

/// The colour list `SubstringMatcher::from_tree_profiled` derives, rebuilt
/// from the suffix tree's public API: node `slink(v)` gets the first symbol
/// of `v`'s label.
fn colour_list(st: &SuffixTree) -> Vec<(usize, u32)> {
    let last_leaf = st.num_leaves() - 1;
    (0..st.num_nodes())
        .filter(|&v| v != st.root() && st.str_depth(v) > 0)
        .filter(|&v| !(st.is_leaf(v) && st.leaf_pos(v) == last_leaf))
        .filter(|&v| st.label_pos(v) < st.text().len())
        .map(|v| (st.slink(v), u32::from(sym_code(st.text()[st.label_pos(v)]))))
        .collect()
}

fn total(profile: &[(&'static str, Cost)], stage: &str) -> Cost {
    profile
        .iter()
        .filter(|(name, _)| *name == stage)
        .fold(Cost::default(), |acc, (_, c)| acc.plus(*c))
}

/// Layer probes on iteration 0's dictionaries. `Registry::publish` cuts a
/// pattern list into content-defined segments and preprocesses each on its
/// own, so every stage here runs per segment and a span covers the stage
/// over all segments — that is what makes the stage walls add up to the
/// publish they explain.
fn probes(cx: &Ctx, rec: &mut Recorder, layer: &mut Layer, dna: &[Vec<u8>], lower: &[Vec<u8>]) {
    let segments = |patterns: &[Vec<u8>]| -> Vec<Dictionary> {
        segment_spans(patterns)
            .into_iter()
            .map(|r| Dictionary::new(patterns[r].to_vec()))
            .collect()
    };
    let trees = |pram: &Pram, segs: &[Dictionary]| -> Vec<SuffixTree> {
        segs.iter()
            .map(|d| SuffixTree::build(pram, d.dhat(), PROBE_SEED))
            .collect()
    };
    let dna_segs = segments(dna);
    let lower_segs = segments(lower);

    for _ in 0..PROBE_REPS {
        let par = Pram::par();
        let (dna_trees, _) = rec.timed_note("suffix.tree_build", |_| {
            let (t, cost) = par.metered(|p| trees(p, &dna_segs));
            (t, cost.into())
        });
        // ROADMAP 2(a) before/after pair, on the same forests and colours.
        let colours: Vec<_> = dna_trees.iter().map(colour_list).collect();
        rec.timed("ancestors.colored_naive_build", |_| {
            for (st, c) in dna_trees.iter().zip(&colours) {
                std::hint::black_box(ColoredAncestorsNaive::build(
                    &par,
                    st.forest(),
                    c,
                    PROBE_SEED,
                ));
            }
        });
        rec.timed("ancestors.colored_veb_build", |_| {
            for (st, c) in dna_trees.iter().zip(&colours) {
                std::hint::black_box(ColoredAncestors::build(&par, st.forest(), c, PROBE_SEED));
            }
        });
        let dsm = |rec: &mut Recorder, name: &'static str, trees: Vec<SuffixTree>| {
            rec.timed(name, |_| {
                let mut profile = Vec::new();
                for st in trees {
                    let (m, stages) = SubstringMatcher::from_tree_profiled(&par, st, PROBE_SEED);
                    std::hint::black_box(m);
                    profile.extend(stages);
                }
                profile
            })
            .0
        };
        let profile = dsm(rec, "core.dsm_build.dna", dna_trees);
        layer.set(
            "core.separator_tree.work",
            total(&profile, "separator tree").work as f64,
        );
        let colored = total(&profile, "colored ancestors");
        layer.set("ancestors.colored.dna.work", colored.work as f64);
        layer.set("ancestors.colored.dna.depth", colored.depth as f64);
        let lower_trees = trees(&par, &lower_segs);
        let profile = dsm(rec, "core.dsm_build.lower", lower_trees);
        layer.set(
            "ancestors.colored.lower.work",
            total(&profile, "colored ancestors").work as f64,
        );

        // The whole Theorem 3.1 preprocessing, under par and under seq.
        let dict_build = |rec: &mut Recorder, name: &'static str, pram: &Pram| {
            rec.timed_note(name, |_| {
                let (profile, cost) = pram.metered(|p| {
                    let mut profile = Vec::new();
                    for d in &dna_segs {
                        let (m, stages) = DictMatcher::build_profiled(p, d.clone(), PROBE_SEED);
                        std::hint::black_box(m);
                        profile.extend(stages);
                    }
                    profile
                });
                (profile, cost.into())
            })
            .0
        };
        let profile = dict_build(rec, "core.dict_build", &par);
        layer.set(
            "core.step2_build.work",
            total(&profile, "step-2 tables").work as f64,
        );
        dict_build(rec, "core.dict_build.seq", &Pram::seq());
        rec.timed("core.ac_build", |_| {
            for d in &dna_segs {
                std::hint::black_box(AhoCorasick::build(d));
            }
        });

        let (base, _) = rec.timed("core.segmented_build", |_| {
            SegmentedMatcher::build(&par, dna.to_vec())
        });
        let delta = DictDelta {
            adds: vec![b"ACGTTGCAACGT".to_vec()],
            removes: Vec::new(),
        };
        rec.timed("core.apply_delta_1", |_| {
            std::hint::black_box(base.apply_delta(&par, &delta).expect("valid delta"))
        });
    }

    // Cache-hit publish: same patterns again, no store, so what is left is
    // hashing, the cache lookup and the swap.
    let cached = Registry::new(Arc::new(Metrics::default()));
    cached.publish("dna", dna.to_vec()).expect("cold publish");
    for _ in 0..PROBE_REPS {
        let patterns = dna.to_vec();
        rec.timed("service.registry_publish_cached", |_| {
            let out = cached.publish("dna", patterns).expect("cached publish");
            assert!(out.cache_hit, "identical patterns must hit the build cache");
        });
    }

    // The store alone: one WAL append + fsync per publish, then a compaction.
    let mut store = Store::open(cx.scratch.sub("probe-store"), DURABLE).expect("open probe store");
    for v in 1..=PROBE_REPS as u64 {
        rec.timed("store.log_publish", |_| {
            store.log_publish("dna", v, dna).expect("log_publish")
        });
    }
    layer.set(
        "store.wal_bytes_per_dict_byte",
        store.appended_bytes() as f64 / (PROBE_REPS * dictionary_size(dna)) as f64,
    );
    rec.timed("store.compact", |_| store.compact().expect("compact"));

    let tree = span_ms(rec, "suffix.tree_build");
    let dsm = span_ms(rec, "core.dsm_build.dna");
    let build = span_ms(rec, "core.dict_build");
    layer.set("core.step2_build.wall_ms", (build - tree - dsm).max(0.0));
    layer.set(
        "pram.par_over_seq.build",
        build / span_ms(rec, "core.dict_build.seq"),
    );
    let stages = build + span_ms(rec, "core.ac_build") + span_ms(rec, "store.log_publish");
    let publish = span_ms(rec, "service.registry_publish_cold");
    println!(
        "closure dict-build: tree+dsm+step2+ac+log_publish = {stages:.1} ms vs DNA publish \
         {publish:.1} ms ({:+.1} %)",
        (stages / publish - 1.0) * 100.0
    );
}
