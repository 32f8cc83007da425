//! `serve-mixed`: client → wire codec → engine queue → matcher → reply.
//!
//! One `Server` over an `Engine` (two workers, store attached, fsync on)
//! holds four 500-pattern DNA dictionaries. Two blocking `Client`
//! connections — the router and the CLI are blocking callers — run a closed
//! loop: each draws its next request from a seeded mix (60 % match 256 B on
//! the sequential lane, 20 % match 4 KiB on the batched lane, 10 % grep
//! 4 KiB, 5 % compress 8 KiB, 5 % `publish_delta` of one pattern; dealt from
//! a shuffled deck of twenty, so every window has exactly that mix),
//! dictionary by Zipf rank, and sends it when the previous reply arrives.
//! Reads are the primary operation, delta writes the contrast.
//!
//! Each connection writes only to its own two dictionaries, so no delta is
//! ever refused for a stale parent version, and every added pattern starts
//! with `#`, which no text contains, so a read's hits do not depend on how
//! many writes preceded it: every TCP reply must equal the `Engine::call`
//! reply for the same request, checked after the window.

use super::{
    hits_fingerprint, span_ms, steady_dictionary, sub_seed, Ctx, Fnv, Layer, Window, PROBE_REPS,
};
use crate::gen::{Draw, Kind, Mix};
use crate::span::{Note, Recorder};
use crate::stats;
use pardict_core::DictDelta;
use pardict_service::wire::{tag, WireRequest, WireResponse};
use pardict_service::{
    Client, Engine, EngineConfig, Lane, Metrics, OpRequest, Registry, Request, Response, Server,
};
use pardict_store::{Store, StoreConfig};
use pardict_trace::{TraceConfig, Tracer};
use pardict_workloads::{markov_text, random_dictionary, text_with_planted_matches, Alphabet};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const DICTS: usize = 4;
const PATTERNS: usize = 500;
const POOL: usize = 8;
const SMALL: usize = 256;
const LARGE: usize = 4 << 10;
const COMPRESS: usize = 8 << 10;
/// Requests replayed without a socket by the traced run's probes.
const REPLAY: usize = 200;
const PINGS: usize = 20;

/// 60 / 20 / 10 / 5 / 5 %, dealt from a shuffled deck of twenty.
const WEIGHTS: &[(Kind, u32)] = &[
    (Kind::MatchSmall, 12),
    (Kind::Match4k, 4),
    (Kind::Grep4k, 2),
    (Kind::Compress8k, 1),
    (Kind::Delta, 1),
];

const DURABLE: StoreConfig = StoreConfig {
    snapshot_every: 0,
    sync: true,
};

fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    }
}

fn dict_name(d: usize) -> String {
    format!("d{d}")
}

struct Env {
    clients: Vec<Client>,
    server: Server,
    engine: Engine,
    tracer: Option<Arc<Tracer>>,
    small: Vec<Vec<Vec<u8>>>,
    large: Vec<Vec<Vec<u8>>>,
    compress: Vec<Vec<u8>>,
}

impl Drop for Env {
    fn drop(&mut self) {
        // Connection threads leave on client EOF; then the listener, then
        // the workers.
        self.clients.clear();
        self.server.stop();
        self.engine.shutdown();
    }
}

impl Env {
    fn build(cx: &Ctx, k: usize) -> Self {
        let alpha = Alphabet::dna();
        let metrics = Arc::new(Metrics::default());
        let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
        let dir = cx.scratch.sub(&format!("store-{k}"));
        registry.attach_store(Store::open(dir, DURABLE).expect("open store"));
        // The traced run also turns on the program's own tracer, at full
        // sampling, through the existing public API.
        let tracer = cx.args.trace.then(|| {
            Tracer::new(TraceConfig {
                sample_one_in: 1,
                seed: cx.seed(99),
                capacity: 1 << 16,
                deterministic: false,
            })
        });
        let engine = Engine::new_traced(engine_config(), registry, metrics, tracer.clone());

        let mut small = Vec::new();
        let mut large = Vec::new();
        for d in 0..DICTS as u64 {
            // Two even segments: a delta then rebuilds a tail of similar
            // size whatever the seed.
            let patterns = steady_dictionary(2, PATTERNS / 4, |attempt| {
                random_dictionary(sub_seed(cx.seed(d), attempt), PATTERNS, 4, 12, alpha)
            });
            let texts = |len: usize, base: u64| -> Vec<Vec<u8>> {
                (0..POOL as u64)
                    .map(|t| {
                        text_with_planted_matches(
                            cx.seed(base + 100 * d + t),
                            &patterns,
                            len,
                            25,
                            alpha,
                        )
                    })
                    .collect()
            };
            small.push(texts(SMALL, 1000));
            large.push(texts(LARGE, 2000));
            engine
                .registry()
                .publish(&dict_name(d as usize), patterns)
                .expect("publish serve-mixed dictionary");
        }
        let compress = (0..POOL as u64)
            .map(|t| markov_text(cx.seed(3000 + t), COMPRESS, alpha))
            .collect();

        let server = Server::start(engine.clone(), "127.0.0.1:0").expect("bind loopback");
        let mut clients: Vec<Client> = (0..CONNECTIONS)
            .map(|_| Client::connect(server.addr()).expect("connect to own server"))
            .collect();
        // Warm-up: extension negotiation and one read per connection.
        for c in &mut clients {
            c.hello().expect("hello");
            c.op(tag::MATCH, "d0", &small[0][0], 0)
                .expect("warm-up transport")
                .expect("warm-up reply");
        }
        Self {
            clients,
            server,
            engine,
            tracer,
            small,
            large,
            compress,
        }
    }

    fn text(&self, d: Draw) -> &[u8] {
        match d.kind {
            Kind::MatchSmall => &self.small[d.dict][d.text],
            Kind::Match4k | Kind::Grep4k => &self.large[d.dict][d.text],
            Kind::Compress8k => &self.compress[d.text],
            Kind::Delta | Kind::Grepz => &[],
        }
    }

    fn op_request(&self, d: Draw) -> OpRequest {
        let (dict, text) = (dict_name(d.dict), self.text(d).to_vec());
        match d.kind {
            Kind::MatchSmall | Kind::Match4k => OpRequest::Match { dict, text },
            Kind::Grep4k => OpRequest::Grep { dict, text },
            Kind::Compress8k => OpRequest::Compress { text },
            Kind::Delta | Kind::Grepz => unreachable!("not an engine read"),
        }
    }
}

fn wire_tag(kind: Kind) -> u8 {
    match kind {
        Kind::MatchSmall | Kind::Match4k => tag::MATCH,
        Kind::Grep4k => tag::GREP,
        Kind::Compress8k => tag::COMPRESS,
        Kind::Delta | Kind::Grepz => unreachable!("not a wire read"),
    }
}

fn tcp_span(kind: Kind) -> &'static str {
    match kind {
        Kind::MatchSmall => "service.tcp_match_small",
        Kind::Match4k => "service.tcp_match_4k",
        Kind::Grep4k => "service.tcp_grep",
        Kind::Compress8k => "service.tcp_compress",
        Kind::Delta => "service.tcp_delta",
        Kind::Grepz => unreachable!("serve-mixed draws no grepz"),
    }
}

/// A read key ignores the dictionary for compress, which takes none.
fn read_key(d: Draw) -> Draw {
    match d.kind {
        Kind::Compress8k => Draw { dict: 0, ..d },
        _ => d,
    }
}

/// The one pattern connection `conn`'s `n`-th write adds, and the
/// dictionary it goes to: one of the two that connection owns.
fn delta_for(conn: usize, n: u64, d: Draw) -> (usize, DictDelta) {
    (
        conn + CONNECTIONS * (d.dict / CONNECTIONS),
        DictDelta {
            adds: vec![format!("#w{conn}x{n}").into_bytes()],
            removes: Vec::new(),
        },
    )
}

fn wire_print(resp: &WireResponse) -> Option<u64> {
    match resp {
        WireResponse::Hits { hits, .. } => Some(hits_fingerprint(hits.iter().copied())),
        WireResponse::Compressed { payload, phrases } => Some(
            Fnv::default()
                .bytes(payload)
                .u64(u64::from(*phrases))
                .finish(),
        ),
        _ => None,
    }
}

fn reply_print(resp: &Response) -> Option<u64> {
    wire_print(&WireResponse::from_engine(resp))
}

/// One reply as a connection saw it.
struct Sample {
    draw: Draw,
    ms: f64,
    /// Reply fingerprint; `None` when the request failed or was refused.
    print: Option<u64>,
}

/// Drive one connection until `deadline`.
fn closed_loop(
    env: &Env,
    client: &mut Client,
    conn: usize,
    mix: Mix,
    deadline: Instant,
    rec: &mut Recorder,
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut versions = [1u64; DICTS];
    let mut writes = 0u64;
    for draw in mix {
        if Instant::now() >= deadline {
            break;
        }
        let (print, ms) = if draw.kind == Kind::Delta {
            let (dict, delta) = delta_for(conn, writes, draw);
            writes += 1;
            let (out, ms) = rec.timed(tcp_span(draw.kind), |_| {
                client.publish_delta(&dict_name(dict), versions[dict], &delta, None)
            });
            let acked = matches!(out, Ok(Ok((v, _))) if v == versions[dict] + 1);
            versions[dict] += u64::from(acked);
            // A write has no payload to compare; its check is the version.
            (acked.then_some(0), ms)
        } else {
            let ctx = env.tracer.as_ref().and_then(|t| t.begin_trace());
            let (out, ms) = rec.timed(tcp_span(draw.kind), |_| {
                client.op_traced(
                    wire_tag(draw.kind),
                    &dict_name(draw.dict),
                    env.text(draw),
                    0,
                    ctx,
                )
            });
            (
                out.ok().and_then(Result::ok).as_ref().and_then(wire_print),
                ms,
            )
        };
        samples.push(Sample { draw, ms, print });
    }
    (samples, started.elapsed().as_secs_f64())
}

pub fn run(cx: &Ctx, rec: &mut Recorder, layer: &mut Layer) -> Window {
    let (mut env, setup_s) = cx.setup(rec, |_, k| Env::build(cx, k));
    let mut w = Window {
        setup_s,
        ..Window::default()
    };

    let mut clients = std::mem::take(&mut env.clients);
    let (per_conn, _) = rec.timed("window", |rec| {
        let deadline = Instant::now() + Duration::from_secs_f64(cx.window_seconds());
        let env = &env;
        let forks: Vec<Recorder> = (1..=CONNECTIONS as u32).map(|l| rec.fork(l)).collect();
        let done: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(forks)
                .enumerate()
                .map(|(conn, (client, mut fork))| {
                    let mix = Mix::new(cx.args.seed, conn as u64, WEIGHTS, DICTS, POOL);
                    s.spawn(move || {
                        let out = closed_loop(env, client, conn, mix, deadline, &mut fork);
                        (out, fork)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        done.into_iter()
            .map(|(out, fork)| {
                rec.absorb(fork);
                out
            })
            .collect::<Vec<_>>()
    });

    // Output check: one `Engine::call` per distinct read, compared with
    // every TCP reply to that read.
    let mut expected: HashMap<Draw, Option<u64>> = HashMap::new();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut by_kind: HashMap<Kind, Vec<f64>> = HashMap::new();
    rec.timed("verify", |_| {
        for (samples, elapsed_s) in &per_conn {
            let mut ok = 0u64;
            for s in samples {
                w.attempted += 1;
                let good = s.print.is_some()
                    && (s.draw.kind == Kind::Delta
                        || s.print
                            == *expected.entry(read_key(s.draw)).or_insert_with(|| {
                                reply_print(&env.engine.call(Request::new(env.op_request(s.draw))))
                            }));
                w.failed += u64::from(!good);
                ok += u64::from(good);
                let ms = if s.print.is_some() {
                    s.ms
                } else {
                    f64::INFINITY
                };
                by_kind.entry(s.draw.kind).or_default().push(ms);
                if s.draw.kind == Kind::Delta {
                    writes.push(ms);
                } else {
                    reads.push(ms);
                }
            }
            w.req_per_s += ok as f64 / elapsed_s;
        }
    });
    // The server's own books must balance once the loop is quiet.
    let stats = clients[0].stats().expect("stats over the wire");
    if let Err(why) = stats.check_accounting(true) {
        eprintln!("serve-mixed: accounting violated: {why}");
        w.failed += 1;
    }
    env.clients = clients;

    match stats::highest_tail(&reads) {
        Some((p, v)) => println!(
            "serve-mixed: {} reads, highest percentile with ten samples beyond it: p{p} = {v:.3} ms \
             ({} beyond p95)",
            reads.len(),
            stats::beyond(reads.len(), 95.0)
        ),
        None => println!("serve-mixed: {} reads, too few for a tail", reads.len()),
    }
    layer.set("p95_ms", stats::percentile(&reads, 95.0));
    layer.set("write_p50_ms", stats::median(&writes));
    layer.set("service.rejected", stats.rejected_overloaded as f64);
    for (kind, name) in [
        (Kind::MatchSmall, "service.tcp_match_small.p50_ms"),
        (Kind::Match4k, "service.tcp_match_4k.p50_ms"),
        (Kind::Grep4k, "service.tcp_grep.p50_ms"),
        (Kind::Compress8k, "service.tcp_compress.p50_ms"),
    ] {
        layer.set(name, stats::median(by_kind.get(&kind).map_or(&[], |v| v)));
    }
    w.primary_ms = reads;
    w.contrast_ms = writes;
    if cx.args.trace {
        let read_p50 = stats::median(&w.primary_ms);
        rec.timed("probe", |rec| probes(cx, rec, layer, &mut env, read_p50));
    }
    w
}

/// Replay the first [`REPLAY`] draws of connection 0 through `engine`
/// with no socket; returns each read's response and wall milliseconds.
fn replay(
    env: &Env,
    engine: &Engine,
    rec: &mut Recorder,
    span: &'static str,
    draws: &[Draw],
    traced: bool,
) -> Vec<(Response, f64)> {
    draws
        .iter()
        .filter(|d| d.kind != Kind::Delta)
        .map(|&d| {
            let ctx = env
                .tracer
                .as_ref()
                .filter(|_| traced)
                .and_then(|t| t.begin_trace());
            let req = Request::new(env.op_request(d)).traced(ctx);
            rec.timed_note(span, |_| {
                let resp = engine.call(req);
                let note = Note::from(resp.meta.cost);
                (resp, note)
            })
        })
        .collect()
}

fn probes(cx: &Ctx, rec: &mut Recorder, layer: &mut Layer, env: &mut Env, read_p50_ms: f64) {
    let draws: Vec<Draw> = Mix::new(cx.args.seed, 0, WEIGHTS, DICTS, POOL)
        .take(REPLAY)
        .collect();

    // The same request sequence with no socket: the engine's own latency
    // and its queue / exec / batch / lane accounting.
    let direct = replay(
        env,
        &env.engine,
        rec,
        "service.engine_direct",
        &draws,
        false,
    );
    let metas: Vec<_> = direct.iter().map(|(r, _)| r.meta).collect();
    let us = |f: fn(&pardict_service::ResponseMeta) -> Duration| -> f64 {
        stats::median(
            &metas
                .iter()
                .map(|m| f(m).as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    layer.set("service.engine_queued.p50_us", us(|m| m.queued));
    layer.set("service.engine_exec.p50_us", us(|m| m.exec));
    let n = metas.len().max(1) as f64;
    layer.set(
        "service.engine_batch_mean",
        metas.iter().map(|m| f64::from(m.batch_size)).sum::<f64>() / n,
    );
    layer.set(
        "service.lane_seq_frac",
        metas.iter().filter(|m| m.lane == Lane::SeqFallback).count() as f64 / n,
    );
    layer.set(
        "service.transport_share",
        1.0 - span_ms(rec, "service.engine_direct") / read_p50_ms,
    );

    // The wire codec alone, over those requests and their replies.
    let mut wire_bytes = 0usize;
    for (&d, (resp, _)) in draws.iter().filter(|d| d.kind != Kind::Delta).zip(&direct) {
        let req = WireRequest::Op {
            tag: wire_tag(d.kind),
            dict: dict_name(d.dict),
            text: env.text(d).to_vec(),
            timeout_ms: 0,
        };
        let (req_bytes, _) = rec.timed("service.wire_encode_req", |_| req.encode());
        rec.timed("service.wire_decode_req", |_| {
            std::hint::black_box(WireRequest::decode(&req_bytes).expect("own encoding decodes"))
        });
        let reply = WireResponse::from_engine(resp);
        let (resp_bytes, _) = rec.timed("service.wire_encode_resp", |_| reply.encode());
        rec.timed("service.wire_decode_resp", |_| {
            std::hint::black_box(WireResponse::decode(&resp_bytes).expect("own encoding decodes"))
        });
        wire_bytes += req_bytes.len() + resp_bytes.len();
    }
    layer.set("service.wire_bytes_per_req", wire_bytes as f64 / n);

    // Transport with zero engine work.
    for _ in 0..PINGS {
        rec.timed("service.ping_rtt", |_| env.clients[0].ping().expect("ping"));
    }

    // The write path without a socket, and its store append alone.
    let registry = Arc::clone(env.engine.registry());
    for n in 0..PROBE_REPS as u64 {
        let parent = registry.current("d0").expect("d0 is installed").version;
        let (_, delta) = delta_for(9, n, draws[0]);
        rec.timed("service.registry_publish_delta", |_| {
            registry
                .publish_delta("d0", parent, &delta)
                .expect("delta against the current version")
        });
    }
    let mut store = Store::open(cx.scratch.sub("probe-store"), DURABLE).expect("open probe store");
    store
        .log_publish("d", 1, &[b"ACGT".to_vec()])
        .expect("seed the probe store");
    for n in 0..PROBE_REPS as u64 {
        let (_, delta) = delta_for(9, n, draws[0]);
        rec.timed("store.log_delta", |_| {
            store
                .log_delta("d", n + 2, &delta.adds, &delta.removes)
                .expect("log_delta")
        });
    }

    // The program's tracer, on the shared ruler: the same replay on an
    // engine with the tracer at full sampling and on one without, over the
    // same registry, alternating so drift cancels.
    let tracer = env.tracer.clone().expect("traced run builds a tracer");
    let window_spans = tracer.drain();
    let plain = Engine::new(
        engine_config(),
        Arc::clone(&registry),
        Arc::clone(env.engine.metrics()),
    );
    let half = &draws[..REPLAY / 2];
    let (mut off_ms, mut on_ms, mut traced_requests) = (0.0, 0.0, 0usize);
    for _ in 0..2 {
        off_ms += replay(env, &plain, rec, "trace.replay_off", half, false)
            .iter()
            .map(|&(_, ms)| ms)
            .sum::<f64>();
        let on = replay(env, &env.engine, rec, "trace.replay_on", half, true);
        traced_requests += on.len();
        on_ms += on.iter().map(|&(_, ms)| ms).sum::<f64>();
    }
    plain.shutdown();
    let replay_spans = tracer.drain();
    layer.set("trace.overhead_pct", (on_ms / off_ms - 1.0) * 100.0);
    layer.set(
        "trace.spans_per_req",
        replay_spans.len() as f64 / traced_requests.max(1) as f64,
    );
    layer.set("trace.dropped", tracer.dropped() as f64);
    let path = super::out_dir().join("trace-serve-mixed.program.jsonl");
    if let Err(e) = std::fs::write(&path, pardict_trace::export::export_jsonl(&window_spans)) {
        eprintln!("serve-mixed: {}: {e}", path.display());
    }
}
