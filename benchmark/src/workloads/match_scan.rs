//! `match-scan`: query-time work only; preprocessing sits in `setup_s`.
//!
//! One 1 000-pattern DNA dictionary (lengths 8–16, so uniform text rarely
//! matches by chance) is published to an in-process `Engine` with two
//! workers. Each iteration issues `Engine::call(Match)` on one *dense* 1 MiB
//! text (patterns planted at density 25; primary) and one *sparse* 1 MiB
//! text (uniform DNA; contrast), four distinct texts of each kind in
//! rotation. Every reply's hits must equal `SegmentedMatcher::ac_match` —
//! the exact sequential automaton — on the same text.

use super::{
    hits_fingerprint, span_ms, steady_dictionary, sub_seed, Ctx, Layer, Window, PROBE_REPS,
};
use crate::span::{Note, Recorder};
use crate::stats;
use pardict_core::{substring_match, Matches, SegmentedMatcher};
use pardict_pram::Pram;
use pardict_service::{
    Engine, EngineConfig, Hit, Metrics, OpRequest, Registry, Reply, Request, Response,
};
use pardict_workloads::{random_dictionary, random_text, text_with_planted_matches, Alphabet};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PATTERNS: usize = 1000;
const MIN_LEN: usize = 8;
const MAX_LEN: usize = 16;
/// 1 000 patterns cut into 3.9 segments on average; each costs one pass
/// over the text.
const SEGMENTS: usize = 4;
const TEXT_LEN: usize = 1 << 20;
const TEXTS_PER_KIND: usize = 4;
const DENSITY_PCT: u32 = 25;
const DICT: &str = "d";

struct Env {
    engine: Engine,
    dense: Vec<Vec<u8>>,
    sparse: Vec<Vec<u8>>,
}

impl Drop for Env {
    fn drop(&mut self) {
        self.engine.shutdown();
    }
}

impl Env {
    fn build(cx: &Ctx, rec: &mut Recorder) -> Self {
        let alpha = Alphabet::dna();
        let patterns = steady_dictionary(SEGMENTS, PATTERNS / SEGMENTS / 2, |attempt| {
            let seed = sub_seed(cx.seed(0), attempt);
            random_dictionary(seed, PATTERNS, MIN_LEN, MAX_LEN, alpha)
        });
        let dense = (0..TEXTS_PER_KIND as u64)
            .map(|t| {
                text_with_planted_matches(cx.seed(10 + t), &patterns, TEXT_LEN, DENSITY_PCT, alpha)
            })
            .collect();
        let sparse = (0..TEXTS_PER_KIND as u64)
            .map(|t| random_text(cx.seed(20 + t), TEXT_LEN, alpha))
            .collect();
        let metrics = Arc::new(Metrics::default());
        let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
        let engine = Engine::new(
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            registry,
            metrics,
        );
        engine
            .registry()
            .publish(DICT, patterns)
            .expect("publish match-scan dictionary");
        let env = Self {
            engine,
            dense,
            sparse,
        };
        // Warm-up: one call of each kind, on a quarter of a text.
        env.call(rec, "warmup", &env.dense[0][..TEXT_LEN / 4]);
        env.call(rec, "warmup", &env.sparse[0][..TEXT_LEN / 4]);
        env
    }

    fn call(&self, rec: &mut Recorder, span: &'static str, text: &[u8]) -> (Response, f64) {
        let req = Request::new(OpRequest::Match {
            dict: DICT.into(),
            text: text.to_vec(),
        });
        rec.timed_note(span, |_| {
            let resp = self.engine.call(req);
            let note = Note {
                cost: resp.meta.cost,
                count: match &resp.result {
                    Ok(Reply::Match { hits, .. }) => hits.len() as u64,
                    _ => 0,
                },
            };
            (resp, note)
        })
    }

    fn matcher(&self) -> Arc<pardict_service::DictVersion> {
        self.engine
            .registry()
            .current(DICT)
            .expect("dictionary is installed")
    }
}

fn matches_fingerprint(m: &Matches) -> u64 {
    hits_fingerprint(m.iter_hits().map(|(pos, m)| Hit {
        pos: pos as u64,
        id: m.id,
        len: m.len,
    }))
}

pub fn run(cx: &Ctx, rec: &mut Recorder, layer: &mut Layer) -> Window {
    let (env, setup_s) = cx.setup(rec, |rec, _| Env::build(cx, rec));
    let mut w = Window {
        setup_s,
        ..Window::default()
    };

    // (text kind, text index, reply fingerprint or None for a failed call)
    let mut replies: Vec<(bool, usize, Option<u64>)> = Vec::new();
    let mut busy_ms = Vec::new();
    let mut queued_us = Vec::new();
    let mut exec_ms = Vec::new();
    rec.timed("window", |rec| {
        let deadline = Instant::now() + Duration::from_secs_f64(cx.window_seconds());
        let mut i = 0usize;
        while i == 0 || Instant::now() < deadline {
            rec.iteration = i as u32;
            let t = i % TEXTS_PER_KIND;
            let mut one = |rec: &mut Recorder, dense: bool| {
                let (span, text) = if dense {
                    ("service.engine_match", &env.dense[t])
                } else {
                    ("service.engine_match.sparse", &env.sparse[t])
                };
                let (resp, ms) = env.call(rec, span, text);
                queued_us.push(resp.meta.queued.as_secs_f64() * 1e6);
                exec_ms.push(resp.meta.exec.as_secs_f64() * 1e3);
                match resp.result {
                    Ok(Reply::Match { hits, .. }) => {
                        replies.push((dense, t, Some(hits_fingerprint(hits))));
                        ms
                    }
                    _ => {
                        replies.push((dense, t, None));
                        f64::INFINITY
                    }
                }
            };
            let a = one(rec, true);
            let b = one(rec, false);
            w.primary_ms.push(a);
            w.contrast_ms.push(b);
            busy_ms.push(a + b);
            i += 1;
        }
    });
    w.attempted = replies.len() as u64;

    // Output check against the exact automaton, once per distinct text.
    let dv = env.matcher();
    rec.timed("verify", |_| {
        for dense in [true, false] {
            for t in 0..TEXTS_PER_KIND {
                let mine = || replies.iter().filter(|r| r.0 == dense && r.1 == t);
                if mine().next().is_none() {
                    continue;
                }
                let text = if dense { &env.dense[t] } else { &env.sparse[t] };
                let want = matches_fingerprint(&dv.pre.seg.ac_match(text));
                w.failed += mine().filter(|r| r.2 != Some(want)).count() as u64;
            }
        }
    });

    let iter_s = stats::median(&busy_ms) / 1e3;
    w.req_per_s = 2.0 / iter_s;
    layer.set("match_mb_s", (2 * TEXT_LEN) as f64 / 1e6 / iter_s);
    if cx.args.trace {
        layer.set("service.engine_match.queued_us", stats::median(&queued_us));
        layer.set("service.engine_match.exec_ms", stats::median(&exec_ms));
        rec.timed("probe", |rec| {
            probes(rec, layer, &dv.pre.seg, &env.dense[0], &env.sparse[0]);
        });
    }
    w
}

/// Layer probes under `Pram::par()` (and once under `Pram::seq()` for the
/// round-overhead ratio), on the first dense and the first sparse text.
fn probes(
    rec: &mut Recorder,
    layer: &mut Layer,
    seg: &SegmentedMatcher,
    dense: &[u8],
    sparse: &[u8],
) {
    let metered = |rec: &mut Recorder, name: &'static str, pram: &Pram, text: &[u8]| {
        rec.timed_note(name, |_| {
            let (m, cost) = pram.metered(|p| seg.match_text(p, text));
            (m, cost.into())
        })
        .0
    };
    for _ in 0..PROBE_REPS {
        let par = Pram::par();
        // Step 1 alone, per segment as `match_text` runs it.
        rec.timed_note("core.substring_match", |_| {
            let ((), cost) = par.metered(|p| {
                for s in seg.segments() {
                    std::hint::black_box(substring_match(
                        p,
                        s.matcher().substring_matcher(),
                        dense,
                    ));
                }
            });
            ((), cost.into())
        });
        metered(rec, "core.match_text.dense", &par, dense);
        metered(rec, "core.match_text.sparse", &par, sparse);
        metered(rec, "core.match_text.dense.seq", &Pram::seq(), dense);
        rec.timed_note("core.find_all", |_| {
            let hits = seg.find_all(&par, dense).len() as u64;
            layer.set("core.find_all.hits", hits as f64);
            (
                (),
                Note {
                    count: hits,
                    ..Note::default()
                },
            )
        });
        // The §3.4 checker, per segment on that segment's own matches.
        let per_segment: Vec<Matches> = seg
            .segments()
            .map(|s| s.matcher().match_text(&par, dense))
            .collect();
        rec.timed_note("core.check", |_| {
            let ((), cost) = par.metered(|p| {
                for (s, m) in seg.segments().zip(&per_segment) {
                    s.matcher()
                        .check(p, dense, m)
                        .expect("Monte Carlo pass verifies");
                }
            });
            ((), cost.into())
        });
        rec.timed("core.ac_match", |_| {
            std::hint::black_box(seg.ac_match(dense));
        });
    }
    let dense_ms = span_ms(rec, "core.match_text.dense");
    layer.set(
        "core.step2_lookup.wall_ms",
        (dense_ms - span_ms(rec, "core.substring_match")).max(0.0),
    );
    layer.set(
        "pram.par_over_seq.match",
        dense_ms / span_ms(rec, "core.match_text.dense.seq"),
    );
}
