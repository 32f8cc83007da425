//! Integration tests for `pardict-service`: the engine must be
//! observationally equivalent to one-shot library calls, including across
//! a mid-stream dictionary hot-swap.

use pardict::prelude::*;
use pardict::service::{
    Engine, EngineConfig, Lane, Metrics, OpRequest, Registry, Reply, Request, ServiceError,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: NUL-free byte strings over a small alphabet (dense repeats).
fn small_alpha_text(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 0..max_len)
}

/// Strategy: a non-empty dictionary of 1..8 non-empty patterns.
fn dictionary() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 1..8),
        1..8,
    )
}

/// A deterministic single-threaded engine: callers drain the queue inline,
/// so tests see every batch-size and lane effect without timing races.
fn inline_engine(seq_threshold: usize) -> Engine {
    let metrics = Arc::new(Metrics::default());
    let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
    Engine::new(
        EngineConfig {
            workers: 0,
            queue_depth: 256,
            max_batch: 16,
            seq_threshold,
            stream_threshold: 1 << 16,
        },
        registry,
        metrics,
    )
}

/// Longest-match hit list straight from the library, for comparison.
fn library_hits(patterns: &[Vec<u8>], text: &[u8]) -> Vec<(u64, u32)> {
    let pram = Pram::seq();
    let dict = Dictionary::new(patterns.to_vec());
    dictionary_match(&pram, &dict, text, 0xA5)
        .iter_hits()
        .map(|(i, m)| (i as u64, m.len))
        .collect()
}

fn engine_hits(engine: &Engine, dict: &str, text: &[u8]) -> (u64, Vec<(u64, u32)>) {
    let resp = engine.call(Request::new(OpRequest::Match {
        dict: dict.to_string(),
        text: text.to_vec(),
    }));
    match resp.result.expect("match should succeed") {
        Reply::Match { version, hits } => {
            (version, hits.into_iter().map(|h| (h.pos, h.len)).collect())
        }
        other => panic!("unexpected reply {other:?}"),
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched `match` responses equal direct `dictionary_match` results,
    /// on both the batched and the sequential-fallback lane.
    #[test]
    fn engine_match_equals_library(
        patterns in dictionary(),
        text in small_alpha_text(200),
    ) {
        // threshold 0: everything batched; threshold usize::MAX: everything
        // on the Aho-Corasick fallback lane. Both must agree with the
        // library.
        for threshold in [0, usize::MAX] {
            let engine = inline_engine(threshold);
            engine.registry().publish("d", patterns.clone()).unwrap();
            let (version, got) = engine_hits(&engine, "d", &text);
            prop_assert_eq!(version, 1);
            prop_assert_eq!(&got, &library_hits(&patterns, &text));
        }
    }

    /// Hot-swap consistency: every reply is computed entirely against the
    /// version it names — answers are never a mix of versions — and after
    /// the swap new requests see the new version.
    #[test]
    fn engine_match_consistent_across_hot_swap(
        pats_v1 in dictionary(),
        pats_v2 in dictionary(),
        text in small_alpha_text(160),
    ) {
        let engine = inline_engine(64);
        engine.registry().publish("d", pats_v1.clone()).unwrap();

        let expect_v1 = library_hits(&pats_v1, &text);
        let expect_v2 = library_hits(&pats_v2, &text);

        let (v_before, got_before) = engine_hits(&engine, "d", &text);
        prop_assert_eq!(v_before, 1);
        prop_assert_eq!(&got_before, &expect_v1);

        // Mid-stream: queue requests, swap the dictionary while they are
        // still pending, then queue more. Each response must match the
        // library output for exactly the version it reports.
        let mk = || Request::new(OpRequest::Match { dict: "d".into(), text: text.clone() });
        let pending: Vec<_> = (0..4).map(|_| engine.submit(mk()).unwrap()).collect();
        engine.registry().publish("d", pats_v2.clone()).unwrap();
        let after: Vec<_> = (0..4).map(|_| engine.submit(mk()).unwrap()).collect();

        for ticket in pending.into_iter().chain(after) {
            let resp = ticket.wait();
            match resp.result.expect("match should succeed") {
                Reply::Match { version, hits } => {
                    let got: Vec<(u64, u32)> =
                        hits.into_iter().map(|h| (h.pos, h.len)).collect();
                    match version {
                        1 => prop_assert_eq!(&got, &expect_v1),
                        2 => prop_assert_eq!(&got, &expect_v2),
                        v => prop_assert!(false, "impossible version {}", v),
                    }
                }
                other => prop_assert!(false, "unexpected reply {:?}", other),
            }
        }

        // A fresh synchronous request must now see version 2.
        let (v_after, got_after) = engine_hits(&engine, "d", &text);
        prop_assert_eq!(v_after, 2);
        prop_assert_eq!(&got_after, &expect_v2);
    }

    /// The engine's `parse` agrees with independent oracles on a
    /// brute-force `M`: its optimal count with the shortest-path
    /// `bfs_parse`, its greedy count with a greedy walk, and the
    /// unparseable case with both.
    #[test]
    fn engine_parse_equals_library(
        patterns in dictionary(),
        text in small_alpha_text(120),
    ) {
        let engine = inline_engine(64);
        engine.registry().publish("d", patterns.clone()).unwrap();
        let pram = Pram::seq();
        let m = brute_force_prefixes(&patterns, &text);
        let want = bfs_parse(&pram, &m).map(|p| p.num_phrases());
        let want_greedy = greedy_parse(&pram, m.len(), |x| m[x]).map(|p| p.num_phrases());

        let resp = engine.call(Request::new(OpRequest::Parse {
            dict: "d".into(),
            text: text.clone(),
        }));
        match (want, resp.result) {
            (Some(p), Ok(Reply::Parse { phrases, greedy_phrases, .. })) => {
                prop_assert_eq!(phrases as usize, p);
                prop_assert_eq!(greedy_phrases.map(|g| g as usize), want_greedy);
            }
            (None, Err(ServiceError::Unparseable)) => {}
            (want, got) => prop_assert!(
                false,
                "parse disagreement: oracle {:?} vs engine {:?}",
                want,
                got
            ),
        }
    }
}

#[test]
fn per_request_cost_attribution_is_nonzero_and_lane_tagged() {
    let engine = inline_engine(32);
    engine
        .registry()
        .publish("d", vec![b"abra".to_vec(), b"cad".to_vec()])
        .unwrap();

    // Small text: sequential fallback lane.
    let small = engine.call(Request::new(OpRequest::Match {
        dict: "d".into(),
        text: b"abracadabra".to_vec(),
    }));
    assert!(small.result.is_ok());
    assert_eq!(small.meta.lane, Lane::SeqFallback);
    // One automaton scan: n steps of work and of depth.
    assert_eq!(
        small.meta.cost,
        Cost {
            work: 11,
            depth: 11
        }
    );

    // Large text: batched PRAM lane, with ledger work at least linear-ish.
    let large = engine.call(Request::new(OpRequest::Match {
        dict: "d".into(),
        text: b"abracadabra".repeat(16),
    }));
    assert!(large.result.is_ok());
    assert_eq!(large.meta.lane, Lane::Batched);
    assert!(large.meta.cost.work > large.meta.cost.depth);
    assert!(large.meta.batch_size >= 1);
}

#[test]
fn selftest_smoke() {
    // A small configuration of the same selftest `pardict serve --selftest`
    // runs, kept cheap for the test suite.
    let opts = pardict::service::selftest::SelftestOptions {
        requests: 64,
        workers: 2,
        clients: 4,
        seed: 11,
    };
    let report = pardict::service::selftest::run(&opts).expect("selftest must pass");
    assert!(report.contains("selftest ok"));
    assert!(report.contains("batches"));
}

// ---- one matcher per query: consolidated ≡ segmented ≡ automaton ----

use pardict::pram::SplitMix64 as Rng;
use pardict::service::Hit;

/// `k` patterns over the first `sigma` lowercase letters, lengths 1–8, with
/// exact duplicates of earlier patterns (often in another segment) and
/// prefixes of earlier patterns mixed in: the shapes where the merge's
/// longest-wins / smallest-global-id rule can break.
fn tangled_patterns(rng: &mut Rng, k: usize, sigma: u64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(k);
    while out.len() < k {
        let earlier = |rng: &mut Rng| out[rng.next_below(out.len() as u64) as usize].clone();
        let p = match rng.next_below(8) {
            0 if !out.is_empty() => earlier(rng),
            1 if !out.is_empty() => {
                let q = earlier(rng);
                q[..1 + rng.next_below(q.len() as u64) as usize].to_vec()
            }
            _ => (0..1 + rng.next_below(8))
                .map(|_| b'a' + rng.next_below(sigma) as u8)
                .collect(),
        };
        out.push(p);
    }
    out
}

/// `n` bytes alternating random letters and planted patterns.
fn tangled_text(rng: &mut Rng, patterns: &[Vec<u8>], n: usize, sigma: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(n + 8);
    while t.len() < n {
        if rng.next_below(2) == 0 {
            t.extend_from_slice(&patterns[rng.next_below(patterns.len() as u64) as usize]);
        } else {
            t.push(b'a' + rng.next_below(sigma) as u8);
        }
    }
    t.truncate(n);
    t
}

fn hits_of(m: &Matches) -> Vec<Hit> {
    m.iter_hits()
        .map(|(pos, m)| Hit::at(pos as u64, m))
        .collect()
}

fn served(engine: &Engine, text: &[u8]) -> (Vec<Hit>, Cost) {
    let resp = engine.call(Request::new(OpRequest::Match {
        dict: "d".into(),
        text: text.to_vec(),
    }));
    match resp.result.expect("match should succeed") {
        Reply::Match { hits, .. } => (hits, resp.meta.cost),
        other => panic!("unexpected reply {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Along a delta chain, every version answers a short `Match` the same
    /// before and after a long one consolidates it, and both equal the
    /// automaton's. The long request pays for the one build; the
    /// short one after it costs exactly the whole matcher's verified query,
    /// which charges the same in `seq` as in `par`.
    #[test]
    fn consolidated_matches_equal_segmented_matches_and_the_automata(
        seed in any::<u64>(),
        sigma in prop::sample::select(vec![2u64, 4, 26]),
        k in 65usize..1500,
        n_deltas in 0usize..3,
    ) {
        let mut rng = Rng::new(seed);
        let mut patterns = tangled_patterns(&mut rng, k, sigma);
        let engine = inline_engine(0);
        engine.registry().publish("d", patterns.clone()).unwrap();
        for version in 1..=1 + n_deltas as u64 {
            let dv = engine.registry().current("d").unwrap();
            prop_assert_eq!(dv.version, version);
            let seg = &dv.pre.seg;
            let extra = seg.num_segments() - 1;
            // Long enough to repay the build: n·(segments − 1) ≥ 40·d.
            let d: usize = patterns.iter().map(Vec::len).sum();
            let long = (41 * d).checked_div(extra).map_or(4096, |n| n + 1);
            let short = tangled_text(&mut rng, &patterns, 700, sigma);
            let long = tangled_text(&mut rng, &patterns, long, sigma);

            let (before, _) = served(&engine, &short);
            let (long_hits, long_cost) = served(&engine, &long);
            let (after, after_cost) = served(&engine, &short);
            prop_assert_eq!(&before, &hits_of(&seg.ac_match(&short)));
            prop_assert_eq!(&after, &before);
            prop_assert_eq!(&long_hits, &hits_of(&seg.ac_match(&long)));

            if extra > 0 {
                let run = |pram: Pram| {
                    let (whole, build) = pram.metered(|p| seg.whole_matcher(p));
                    let vet = |text: &[u8]| pram.metered(|p| {
                        let m = whole.match_text(p, text);
                        seg.vet_whole(p, &whole, text, m)
                    });
                    let ((short_m, short_fell), short_c) = vet(&short);
                    let (_, long_c) = vet(&long);
                    (hits_of(&short_m), short_fell, build, short_c, long_c)
                };
                let seq = run(Pram::seq());
                prop_assert_eq!(&seq, &run(Pram::par()));
                let (short_m, fell_back, build, short_c, long_c) = seq;
                prop_assert_eq!(&short_m, &before);
                prop_assert!(!fell_back);
                prop_assert_eq!(after_cost, short_c);
                prop_assert_eq!(long_cost.work, build.work + long_c.work);
            }

            if version <= n_deltas as u64 {
                let mut pick = || patterns[rng.next_below(patterns.len() as u64) as usize].clone();
                let (gone, twin, longer) = (pick(), pick(), pick());
                // A duplicate, a prefix of a kept pattern, and a new one.
                let adds = vec![twin, longer[..longer.len().div_ceil(2)].to_vec(), b"ab".repeat(5)];
                let delta = DictDelta { adds, removes: vec![gone] };
                engine.registry().publish_delta("d", version, &delta).unwrap();
                patterns = engine.registry().current("d").unwrap().pre.patterns();
            }
        }
    }
}

// ---- wire-codec allocation bound (totality and round trips: tests/codecs.rs) ----

use pardict::service::wire::{tag, WireRequest, WireResponse};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile length claims cannot force over-allocation: any decoded
    /// collection fits in the payload bytes that carried it, no matter
    /// what element count the frame asserts.
    #[test]
    fn wire_decode_never_overallocates(
        claimed in any::<u32>(),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // PUBLISH claiming `claimed` patterns followed by `body` bytes.
        let mut p = vec![tag::PUBLISH];
        p.extend_from_slice(&1u32.to_be_bytes());
        p.push(b'd');
        p.extend_from_slice(&claimed.to_be_bytes());
        p.extend_from_slice(&body);
        if let Ok(WireRequest::Publish { patterns, .. }) = WireRequest::decode(&p) {
            // Each pattern costs at least its 4-byte length prefix.
            prop_assert!(patterns.len() <= body.len() / 4);
        }
        // HITS response claiming `claimed` 16-byte hits.
        let mut p = vec![tag::OK, 2 /* ok::HITS */];
        p.extend_from_slice(&1u64.to_be_bytes());
        p.extend_from_slice(&claimed.to_be_bytes());
        p.extend_from_slice(&body);
        if let Ok(WireResponse::Hits { hits, .. }) = WireResponse::decode(&p) {
            prop_assert!(hits.len() <= body.len() / 16);
        }
    }
}

// ---- MetricsSnapshot::merge is a commutative monoid ----

use pardict::pram::SplitMix64;
use pardict::service::{HistogramSnapshot, MetricsSnapshot, OpSnapshot};

/// Derive a snapshot that satisfies every accounting identity from one
/// seed: counters are built bottom-up (per-op outcomes first, completed
/// as their sum, submitted as completed plus an optional backlog), so
/// `check_accounting` holds by construction and the merge properties
/// can be tested against meaningful books, not arbitrary integers.
fn derive_snapshot(seed: u64, quiescent: bool) -> MetricsSnapshot {
    let mut rng = SplitMix64::new(seed);
    let mut next = |bound: u64| rng.next_below(bound);
    let per_op: Vec<OpSnapshot> = (0..next(4))
        .map(|_| {
            let mut buckets: Vec<(u8, u64)> = Vec::new();
            let mut idx = 0u8;
            for _ in 0..next(3) {
                idx += 1 + next(8) as u8;
                buckets.push((idx, 1 + next(50)));
            }
            let outcomes: u64 = buckets.iter().map(|&(_, c)| c).sum();
            let errors = if outcomes == 0 { 0 } else { next(outcomes + 1) };
            let hist = HistogramSnapshot {
                buckets,
                count: outcomes,
                sum: next(10_000),
                max: next(10_000),
            };
            OpSnapshot {
                count: outcomes - errors,
                errors,
                latency_us: hist.clone(),
                work: hist,
            }
        })
        .collect();
    let completed: u64 = per_op.iter().map(|o| o.count + o.errors).sum();
    let (hits, misses) = (next(100), next(100));
    let batches = next(50);
    MetricsSnapshot {
        submitted: completed + if quiescent { 0 } else { next(100) },
        completed,
        rejected_overloaded: next(100),
        deadline_expired: if completed == 0 {
            0
        } else {
            next(completed + 1)
        },
        publishes: hits + misses,
        cache_hits: hits,
        cache_misses: misses,
        batches,
        batched_requests: batches + next(100),
        seq_fallback: next(100),
        stream_lane: next(100),
        grep_lane: next(100),
        retires: next(100),
        store_replayed: next(100),
        store_torn_dropped: next(100),
        store_snapshot_age: next(100),
        per_op,
    }
}

fn merged(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `merge` is commutative: router aggregation must not depend on
    /// the order backends answer in.
    #[test]
    fn snapshot_merge_is_commutative(sa in any::<u64>(), sb in any::<u64>()) {
        let a = derive_snapshot(sa, false);
        let b = derive_snapshot(sb, false);
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// `merge` is associative: folding shard answers pairwise in any
    /// grouping gives the same cluster-wide books.
    #[test]
    fn snapshot_merge_is_associative(
        sa in any::<u64>(),
        sb in any::<u64>(),
        sc in any::<u64>(),
    ) {
        let a = derive_snapshot(sa, false);
        let b = derive_snapshot(sb, false);
        let c = derive_snapshot(sc, false);
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    /// The default snapshot is the identity element on both sides
    /// (including the ragged `per_op` resize path).
    #[test]
    fn snapshot_merge_has_an_identity_element(s in any::<u64>()) {
        let a = derive_snapshot(s, false);
        prop_assert_eq!(merged(&a, &MetricsSnapshot::default()), a.clone());
        prop_assert_eq!(merged(&MetricsSnapshot::default(), &a), a);
    }

    /// Accounting is preserved: snapshots that each satisfy the
    /// identities still satisfy them merged, in both quiescent and
    /// in-flight forms — the reason a cluster-wide `stats` answer can
    /// be audited exactly like a single node's.
    #[test]
    fn snapshot_merge_preserves_accounting(
        sa in any::<u64>(),
        sb in any::<u64>(),
        quiescent in any::<bool>(),
    ) {
        let a = derive_snapshot(sa, quiescent);
        let b = derive_snapshot(sb, quiescent);
        prop_assert!(a.check_accounting(quiescent).is_ok());
        prop_assert!(b.check_accounting(quiescent).is_ok());
        let m = merged(&a, &b);
        prop_assert!(
            m.check_accounting(quiescent).is_ok(),
            "merged books violate accounting: {:?}",
            m.check_accounting(quiescent)
        );
    }

    /// And a live engine's shipped snapshot passes the same identities
    /// the live counters do — the snapshot is the books, not a summary.
    #[test]
    fn live_snapshot_passes_snapshot_accounting(
        patterns in dictionary(),
        text in small_alpha_text(120),
    ) {
        let engine = inline_engine(0);
        engine.registry().publish("d", patterns).unwrap();
        let resp = engine.call(Request::new(OpRequest::Match {
            dict: "d".into(),
            text: text.to_vec(),
        }));
        prop_assert!(resp.result.is_ok());
        let snap = engine.metrics().snapshot();
        prop_assert!(snap.check_accounting(true).is_ok(), "{:?}", snap.check_accounting(true));
        engine.shutdown();
    }
}
