//! Trace tier: structural invariants of the span model, end to end.
//!
//! Three families of guarantees, each checked against live instrumented
//! code (never hand-built span lists):
//!
//! * **Structure** — every child span nests inside its parent's interval,
//!   and children's summed PRAM cost never exceeds their parent's
//!   inclusive cost (zero-cost structural spans excepted).
//! * **Ledger fidelity** — a `Pram::seq` run and a `Pram::par` run of the
//!   same workload export spans reporting identical total work, because
//!   span costs come from the same metered ledger the cost-model tier
//!   certifies.
//! * **Propagation** — trace contexts survive the wire round trip
//!   bit-exactly, and a cluster scatter-gather with a killed backend
//!   yields ONE trace whose scatter and failover-attempt spans all nest
//!   under the router's root span.

use pardict::cluster::{selftest as cluster_selftest, ClusterConfig, Router, RouterServer};
use pardict::prelude::*;
use pardict::service::wire::{self, WireRequest};
use pardict::service::{
    selftest as service_selftest, Client, Engine, Metrics, OpRequest, Registry, Request, Server,
};
use pardict::trace::{export, view, with_scope, TraceConfig, TraceCtx, Tracer};
use pardict::workloads::random_dictionary;
use proptest::prelude::*;
use std::sync::Arc;

/// A deterministic tracer that keeps every trace.
fn tracer(seed: u64) -> Arc<Tracer> {
    Tracer::new(TraceConfig {
        sample_one_in: 1,
        seed,
        capacity: 1 << 14,
        deterministic: true,
    })
}

/// A traced single-node engine (inline execution for determinism).
fn traced_engine(t: &Arc<Tracer>) -> Engine {
    let metrics = Arc::new(Metrics::default());
    let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
    Engine::new_traced(
        cluster_selftest::engine_config(),
        registry,
        metrics,
        Some(Arc::clone(t)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Children nest inside their parent's interval and their summed
    /// cost stays within the parent's inclusive cost, for live traces
    /// produced by a traced engine over random texts.
    #[test]
    fn spans_nest_and_costs_sum_within_parents(
        text in prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 1..400),
        which in 0..3u8,
    ) {
        let t = tracer(7);
        let engine = traced_engine(&t);
        engine
            .registry()
            .publish("d", vec![b"ab".to_vec(), b"abc".to_vec(), b"c".to_vec()])
            .expect("publish");
        let op = match which {
            0 => OpRequest::Match { dict: "d".into(), text: text.clone() },
            1 => OpRequest::Grep { dict: "d".into(), text: text.clone() },
            _ => OpRequest::Compress { text: text.clone() },
        };
        let ctx = t.begin_trace();
        prop_assert!(ctx.is_some(), "sample_one_in=1 keeps everything");
        let resp = engine.call(Request::new(op).traced(ctx));
        prop_assert!(resp.result.is_ok(), "{:?}", resp.result);
        engine.shutdown();

        let spans = export::parse_jsonl(&export::export_jsonl(&t.drain())).expect("round trip");
        prop_assert!(!spans.is_empty());
        prop_assert!(view::check_nesting(&spans).is_ok(), "{:?}", view::check_nesting(&spans));
        prop_assert!(view::check_costs(&spans).is_ok(), "{:?}", view::check_costs(&spans));
        // The request's inclusive cost is the metered cost the response
        // reports — the span ledger and the response ledger are one.
        let root = spans.iter().find(|s| s.name == "request").expect("root span");
        prop_assert_eq!(root.work, resp.meta.cost.work);
        prop_assert_eq!(root.depth, resp.meta.cost.depth);
    }

    /// A trace-context wire frame round-trips bit-exactly around any
    /// inner op, for arbitrary trace/parent ids.
    #[test]
    fn traced_frames_round_trip(
        trace in any::<u64>(),
        parent in any::<u64>(),
        tag in prop::sample::select(vec![
            wire::tag::MATCH,
            wire::tag::GREP,
            wire::tag::COMPRESS,
            wire::tag::PARSE,
            wire::tag::GREPZ,
        ]),
        dict_bytes in prop::collection::vec(prop::sample::select(vec![b'a', b'z', b'q']), 1..8),
        text in prop::collection::vec(any::<u8>(), 0..64),
        timeout_ms in any::<u32>(),
    ) {
        let dict = String::from_utf8(dict_bytes).expect("ascii");
        let req = WireRequest::Traced {
            trace,
            parent,
            inner: Box::new(WireRequest::Op { tag, dict, text, timeout_ms }),
        };
        let bytes = req.encode();
        let decoded = WireRequest::decode(&bytes).expect("decode");
        prop_assert_eq!(&decoded, &req);
        prop_assert_eq!(decoded.encode(), bytes, "re-encode is bit-identical");
    }
}

/// `Pram::seq` and `Pram::par` execute the same super-steps, so the
/// traces they emit must report identical total work — the observable
/// form of the work-preservation law the cost-model tier certifies.
#[test]
fn seq_and_par_traces_report_identical_total_work() {
    let patterns = random_dictionary(0x5EC_0411, 12, 3, 8, Alphabet::dna());
    let text: Vec<u8> = (0..4096u32)
        .map(|i| b"ACGT"[(i % 7 % 4) as usize])
        .collect();
    let cfg = StreamConfig::with_block_size(256);
    let (container, _) =
        compress_stream(&Pram::seq(), &mut &text[..], Vec::new(), &cfg).expect("compress");

    let total_work = |pram: &Pram| -> (u64, usize) {
        let t = tracer(3);
        let ctx = t.begin_trace().expect("sampled");
        let matcher = SegmentedMatcher::build(pram, patterns.clone());
        with_scope(&t, ctx, || {
            let mut rdr = StreamReader::open(std::io::Cursor::new(&container)).expect("container");
            grep_container(pram, &matcher, &mut rdr, &GrepConfig::default()).expect("grep");
        });
        let spans = t.drain();
        assert!(!spans.is_empty(), "waves must record under the scope");
        assert!(spans.iter().all(|s| s.name == "search-wave"));
        (spans.iter().map(|s| s.cost.work).sum(), spans.len())
    };

    let (seq_work, seq_spans) = total_work(&Pram::seq());
    let (par_work, par_spans) = total_work(&Pram::par());
    assert_eq!(seq_work, par_work, "seq and par traces must agree on work");
    assert_eq!(seq_spans, par_spans, "same wave count either way");
}

/// The acceptance scenario: a cluster `grepz` through a [`RouterServer`]
/// with one backend killed mid-fleet produces ONE exported trace in which
/// every scatter span and every failover-attempt span nests under the
/// router's root `route` span, with the cost invariant holding span-wide.
#[test]
fn cluster_grepz_trace_nests_scatter_and_failover_under_router_root() {
    let shared = tracer(0xC105_7E4A);

    // Three traced backends sharing the router's tracer, so one request's
    // spans — router-side and shard-side — land in one collector.
    let mut engines = Vec::new();
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..3 {
        let engine = traced_engine(&shared);
        let server = Server::start(engine.clone(), "127.0.0.1:0").expect("backend start");
        addrs.push(server.addr());
        engines.push(engine);
        servers.push(server);
    }

    let router = Arc::new(Router::new_traced(
        &addrs,
        ClusterConfig::default(),
        Some(Arc::clone(&shared)),
    ));
    let front = RouterServer::start(Arc::clone(&router), "127.0.0.1:0").expect("front start");

    let patterns = random_dictionary(0xFA11_05E5, 16, 3, 8, Alphabet::dna());
    router.publish("corpus", &patterns).expect("publish");

    let text: Vec<u8> = (0..6000u32)
        .map(|i| b"ACGT"[(i % 5 % 4) as usize])
        .collect();
    let cfg = StreamConfig::with_block_size(256);
    let (container, _) =
        compress_stream(&Pram::seq(), &mut &text[..], Vec::new(), &cfg).expect("compress");

    // Kill one backend AFTER publish: the scatter must fail over its
    // ranges to the survivors, recording the dead attempts as spans.
    servers[0].stop();
    engines[0].shutdown();

    // Drain publish/startup spans; the grepz below is then ONE trace.
    let _ = shared.drain();

    let mut client = Client::connect(front.addr()).expect("connect front");
    assert_eq!(
        client.hello().expect("hello") & wire::EXT_TRACE,
        wire::EXT_TRACE,
        "traced router must advertise the trace extension"
    );
    let ctx = shared.begin_trace().expect("sampled");
    let reply = client
        .op_traced(wire::tag::GREPZ, "corpus", &container, 0, Some(ctx))
        .expect("grepz transport")
        .expect("grepz reply");
    match reply {
        wire::WireResponse::ClusterHits {
            degraded, shards, ..
        } => {
            assert!(degraded, "a killed backend must degrade the response");
            assert!(shards >= 2, "scatter must still fan out, got {shards}");
        }
        other => panic!("expected ClusterHits, got {other:?}"),
    }

    let spans = export::parse_jsonl(&export::export_jsonl(&shared.drain())).expect("round trip");
    let traces: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.trace).collect();
    assert_eq!(traces.len(), 1, "one request, one trace: {traces:?}");
    view::check_nesting(&spans).expect("intervals nest");
    view::check_costs(&spans).expect("cost invariant holds");

    let route = spans
        .iter()
        .find(|s| s.name == "route")
        .expect("router root span");
    assert_eq!(
        route.parent, ctx.parent.0,
        "route nests under the client ctx"
    );
    let scatters: Vec<_> = spans.iter().filter(|s| s.name == "scatter").collect();
    assert!(scatters.len() >= 2, "fan-out must record scatter spans");
    assert!(
        scatters.iter().all(|s| s.parent == route.span),
        "every scatter span hangs off the router root"
    );
    let scatter_ids: std::collections::BTreeSet<u64> = scatters.iter().map(|s| s.span).collect();
    let attempts: Vec<_> = spans.iter().filter(|s| s.name == "attempt").collect();
    assert!(
        !attempts.is_empty() && attempts.iter().all(|s| scatter_ids.contains(&s.parent)),
        "attempts nest under scatter spans"
    );
    // The dead backend makes at least one range retry: attempt number
    // (index >> 32) above zero under some scatter span.
    assert!(
        attempts.iter().any(|s| s.index >> 32 > 0),
        "a killed backend must leave failover retry spans: {attempts:?}"
    );
    // Backend request spans nest under the attempts that carried them.
    let attempt_ids: std::collections::BTreeSet<u64> = attempts.iter().map(|s| s.span).collect();
    let backend_requests: Vec<_> = spans.iter().filter(|s| s.name == "request").collect();
    assert!(
        !backend_requests.is_empty()
            && backend_requests
                .iter()
                .all(|s| attempt_ids.contains(&s.parent)),
        "backend request spans hang off router attempt spans"
    );

    drop(front);
    router.shutdown();
    for s in &mut servers[1..] {
        s.stop();
    }
    for e in &engines[1..] {
        e.shutdown();
    }
}

/// The traced selftest is the CI byte-determinism gate; assert its
/// contract here too so a regression fails fast in `cargo test`.
#[test]
fn trace_selftest_export_is_deterministic_and_valid() {
    let opts = service_selftest::TraceRunOptions {
        requests: 20,
        seed: 0xD00D,
        sample_one_in: 2,
    };
    let (summary_a, jsonl_a) = service_selftest::trace_run(&opts).expect("run a");
    let (_, jsonl_b) = service_selftest::trace_run(&opts).expect("run b");
    assert_eq!(jsonl_a, jsonl_b, "same seed, same bytes");
    assert!(summary_a.contains("1-in-2"));
    let spans = export::parse_jsonl(&jsonl_a).expect("valid export");
    view::check_costs(&spans).expect("cost invariant");
    view::check_nesting(&spans).expect("nesting invariant");
}

/// An unsampled context is `None` end to end: nothing records, nothing
/// breaks, and the engine still answers.
#[test]
fn unsampled_requests_record_nothing() {
    let t = Tracer::new(TraceConfig {
        sample_one_in: u32::MAX,
        seed: 9,
        capacity: 1 << 8,
        deterministic: true,
    });
    let engine = traced_engine(&t);
    engine
        .registry()
        .publish("d", vec![b"aa".to_vec()])
        .expect("publish");
    for _ in 0..16 {
        let ctx = t.begin_trace();
        let resp = engine.call(
            Request::new(OpRequest::Match {
                dict: "d".into(),
                text: b"aaaa".to_vec(),
            })
            .traced(ctx),
        );
        assert!(resp.result.is_ok());
    }
    engine.shutdown();
    assert!(
        t.drain().is_empty(),
        "1-in-2^32 sampling must drop effectively everything"
    );
    assert_eq!(
        t.dropped(),
        0,
        "unsampled is not dropped — nothing was offered"
    );
}

/// `TraceCtx` equality is structural — a sanity pin for the propagation
/// tests above.
#[test]
fn trace_ctx_is_plain_data() {
    let a = TraceCtx {
        trace: pardict::trace::TraceId(7),
        parent: pardict::trace::SpanId(9),
    };
    assert_eq!(a, a);
}

/// Mixed-version negotiation: a new client against a **legacy server**
/// whose wire vocabulary predates `TRACED`/`HELLO`/`PUBDELTA` (tags ≥ 11
/// answer "unknown request tag", exactly like an old binary's decoder).
/// The client must cache extension mask 0 from the failed hello, send
/// bit-identical legacy frames from then on — no trace envelopes, no
/// delta frames — and degrade `publish_delta` to a full publish of the
/// fallback pattern set.
#[test]
fn new_client_degrades_cleanly_against_a_legacy_server() {
    use pardict::core::DictDelta;
    use pardict::service::wire::{read_frame, write_frame, WireResponse};
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // The mock legacy peer: records every raw request frame, publishes
    // by bumping a per-name version, and rejects post-v10 tags with the
    // same error shape a real old server's decoder produces.
    let server = std::thread::spawn(move || -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = stream.try_clone().expect("clone");
        let mut writer = stream;
        let mut versions: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            frames.push(payload.clone());
            let resp = match payload.first() {
                Some(&t) if t > wire::tag::DICTS => WireResponse::Error {
                    code: 1,
                    message: format!("malformed request: unknown request tag {t}"),
                },
                _ => match WireRequest::decode(&payload) {
                    Ok(WireRequest::Publish { name, .. }) => {
                        let v = versions.entry(name).or_insert(0);
                        *v += 1;
                        WireResponse::Published {
                            version: *v,
                            cache_hit: false,
                        }
                    }
                    Ok(WireRequest::Ping) => WireResponse::Pong,
                    Ok(other) => WireResponse::Error {
                        code: 1,
                        message: format!("legacy mock cannot serve {other:?}"),
                    },
                    Err(e) => WireResponse::Error {
                        code: 1,
                        message: format!("malformed request: {e}"),
                    },
                },
            };
            if write_frame(&mut writer, &resp.encode()).is_err() {
                break;
            }
        }
        frames
    });

    let v1 = vec![b"ab".to_vec(), b"ca".to_vec()];
    let delta = DictDelta {
        adds: vec![b"abc".to_vec()],
        removes: vec![b"ca".to_vec()],
    };
    let finals = vec![b"ab".to_vec(), b"abc".to_vec()];

    let mut client = Client::connect(addr).expect("connect");
    // Plain publish works against any vintage.
    let (v, _) = client
        .publish("d", v1.clone())
        .expect("publish transport")
        .expect("publish reply");
    assert_eq!(v, 1);
    // publish_delta triggers lazy negotiation (the hello frame the
    // legacy peer refuses), then degrades to a full publish of the
    // fallback set — a second acknowledged version, never a PUBDELTA
    // frame on the wire.
    let (v, _) = client
        .publish_delta("d", 1, &delta, Some(&finals))
        .expect("delta transport")
        .expect("delta fallback reply");
    assert_eq!(v, 2, "fallback must be a full publish of the final set");
    // Without a fallback the degradation is an explicit Unsupported
    // error, not a silent no-op.
    let err = client
        .publish_delta("d", 2, &delta, None)
        .expect_err("no fallback must surface Unsupported");
    assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    // A traced op against the legacy peer must go out as the plain
    // legacy frame (mask 0 strips the envelope); the mock answers it
    // with a service-level error, which is not a transport failure.
    let ctx = pardict::trace::TraceCtx {
        trace: pardict::trace::TraceId(7),
        parent: pardict::trace::SpanId(9),
    };
    let reply = client
        .op_traced(wire::tag::MATCH, "d", b"abca", 5, Some(ctx))
        .expect("op transport");
    assert!(reply.is_err(), "mock answers ops with a service error");
    drop(client);

    let frames = server.join().expect("server thread");
    let expect_publish_v1 = WireRequest::Publish {
        name: "d".into(),
        patterns: v1,
    }
    .encode();
    let expect_hello = WireRequest::Hello {
        extensions: wire::EXT_TRACE | wire::EXT_DELTA,
    }
    .encode();
    let expect_publish_finals = WireRequest::Publish {
        name: "d".into(),
        patterns: finals,
    }
    .encode();
    let expect_op = WireRequest::Op {
        tag: wire::tag::MATCH,
        dict: "d".into(),
        text: b"abca".to_vec(),
        timeout_ms: 5,
    }
    .encode();
    assert_eq!(
        frames,
        vec![
            expect_publish_v1,
            expect_hello,
            expect_publish_finals,
            expect_op
        ],
        "every frame after the refused hello must be bit-identical legacy bytes"
    );
    assert!(
        frames
            .iter()
            .all(|f| f[0] != wire::tag::PUBDELTA && f[0] != wire::tag::TRACED),
        "no delta or trace frames may reach a legacy peer"
    );
}
