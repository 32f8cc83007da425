//! `cluster-scatter`: the same search/stream/service layers behind a router.
//!
//! Two in-process backends (one worker each) sit behind `Router` +
//! `RouterServer`; one blocking client connection to the front runs a closed
//! loop of 70 % match 4 KiB — routed to the one shard that rendezvous
//! hashing picks for the dictionary (primary) — and 30 % `grepz` of a
//! 16-block container, scatter-gathered across both shards (contrast: the
//! result waits for the slower shard). Two dictionaries, named so that each
//! shard is the primary of one. Every reply must equal the reply a single
//! backend engine gives for the same request.

use super::{
    hits_fingerprint, span_ms, steady_dictionary, sub_seed, Ctx, Layer, Window, PROBE_REPS,
};
use crate::gen::{Draw, Kind, Mix};
use crate::span::Recorder;
use pardict_cluster::shard::ranking;
use pardict_cluster::{ClusterConfig, Router, RouterServer};
use pardict_pram::Pram;
use pardict_service::wire::{tag, WireResponse};
use pardict_service::{
    Client, Engine, EngineConfig, Metrics, OpRequest, Registry, Reply, Request, Server,
};
use pardict_stream::{compress_stream, slice_container, StreamConfig};
use pardict_workloads::{random_dictionary, text_with_planted_matches, Alphabet};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BACKENDS: usize = 2;
const PATTERNS: usize = 500;
const POOL: usize = 8;
const TEXT: usize = 4 << 10;
const CONTAINER_BLOCK: usize = 4 << 10;
const CONTAINER_BLOCKS: usize = 16;
/// TCP round trips per probe: each costs two delayed-ACK waits today.
const RTT_REPS: usize = 10;

/// 70 / 30 %, dealt from a shuffled deck of ten.
const WEIGHTS: &[(Kind, u32)] = &[(Kind::Match4k, 7), (Kind::Grepz, 3)];

struct Env {
    front_client: Option<Client>,
    front: RouterServer,
    router: Arc<Router>,
    servers: Vec<Server>,
    engines: Vec<Engine>,
    /// One name per shard: `dicts[s]`'s primary is shard `s`.
    dicts: Vec<String>,
    texts: Vec<Vec<Vec<u8>>>,
    containers: Vec<Vec<u8>>,
}

impl Drop for Env {
    fn drop(&mut self) {
        self.front_client = None;
        self.front.stop();
        self.router.shutdown();
        for s in &mut self.servers {
            s.stop();
        }
        for e in &self.engines {
            e.shutdown();
        }
    }
}

impl Env {
    fn build(cx: &Ctx, rec: &mut Recorder) -> Self {
        let alpha = Alphabet::dna();
        let engines: Vec<Engine> = (0..BACKENDS)
            .map(|_| {
                let metrics = Arc::new(Metrics::default());
                let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
                Engine::new(
                    EngineConfig {
                        workers: 1,
                        ..EngineConfig::default()
                    },
                    registry,
                    metrics,
                )
            })
            .collect();
        let servers: Vec<Server> = engines
            .iter()
            .map(|e| Server::start(e.clone(), "127.0.0.1:0").expect("bind loopback"))
            .collect();
        let addrs: Vec<_> = servers.iter().map(Server::addr).collect();
        let router = Arc::new(Router::new(&addrs, ClusterConfig::default()));
        let front = RouterServer::start(Arc::clone(&router), "127.0.0.1:0").expect("bind front");

        // The first name whose rendezvous primary is shard s, for each s.
        let dicts: Vec<String> = (0..BACKENDS)
            .map(|s| {
                (0..)
                    .map(|i| format!("d{i}"))
                    .find(|name| ranking(name, BACKENDS)[0] == s)
                    .expect("some name ranks every shard first")
            })
            .collect();
        let mut texts = Vec::new();
        let mut containers = Vec::new();
        for (d, name) in dicts.iter().enumerate() {
            let d = d as u64;
            let pats = steady_dictionary(2, PATTERNS / 4, |attempt| {
                random_dictionary(sub_seed(cx.seed(d), attempt), PATTERNS, 4, 12, alpha)
            });
            rec.timed("cluster.publish", |_| {
                let ack = router.publish(name, &pats).expect("broadcast publish");
                assert_eq!(ack.acks as usize, BACKENDS, "every backend acknowledges");
            });
            texts.push(
                (0..POOL as u64)
                    .map(|t| {
                        text_with_planted_matches(cx.seed(100 + 10 * d + t), &pats, TEXT, 25, alpha)
                    })
                    .collect::<Vec<_>>(),
            );
            let raw = text_with_planted_matches(
                cx.seed(200 + d),
                &pats,
                CONTAINER_BLOCK * CONTAINER_BLOCKS,
                25,
                alpha,
            );
            let (container, summary) = compress_stream(
                &Pram::par(),
                &mut &raw[..],
                Vec::new(),
                &StreamConfig::with_block_size(CONTAINER_BLOCK),
            )
            .expect("compress into memory");
            assert_eq!(summary.blocks as usize, CONTAINER_BLOCKS);
            containers.push(container);
        }

        let mut front_client = Client::connect(front.addr()).expect("connect to front");
        // Warm-up: one request of each kind (opens the router's backend
        // connections too).
        for (tag, payload) in [(tag::MATCH, &texts[0][0]), (tag::GREPZ, &containers[0])] {
            front_client
                .op(tag, &dicts[0], payload, 0)
                .expect("warm-up transport")
                .expect("warm-up reply");
        }
        Self {
            front_client: Some(front_client),
            front,
            router,
            servers,
            engines,
            dicts,
            texts,
            containers,
        }
    }

    fn payload(&self, d: Draw) -> &[u8] {
        match d.kind {
            Kind::Grepz => &self.containers[d.dict],
            _ => &self.texts[d.dict][d.text],
        }
    }

    /// What a single node answers: hits of backend 0's engine.
    fn single_node(&self, d: Draw) -> Option<u64> {
        let dict = self.dicts[d.dict].clone();
        let op = match d.kind {
            Kind::Grepz => OpRequest::GrepContainer {
                dict,
                container: self.payload(d).to_vec(),
            },
            _ => OpRequest::Match {
                dict,
                text: self.payload(d).to_vec(),
            },
        };
        match self.engines[0].call(Request::new(op)).result {
            Ok(Reply::Match { hits, .. }) => Some(hits_fingerprint(hits)),
            Ok(Reply::GrepContainer {
                hits,
                corrupt_blocks,
                ..
            }) if corrupt_blocks.is_empty() => Some(hits_fingerprint(hits)),
            _ => None,
        }
    }
}

fn wire_tag(kind: Kind) -> u8 {
    match kind {
        Kind::Grepz => tag::GREPZ,
        _ => tag::MATCH,
    }
}

/// Hits of a front reply; a degraded or corrupt-block reply is a failure
/// here, because nothing in this workload kills a backend.
fn front_print(resp: &WireResponse) -> Option<u64> {
    match resp {
        WireResponse::Hits { hits, .. } => Some(hits_fingerprint(hits.iter().copied())),
        WireResponse::ClusterHits {
            degraded: false,
            hits,
            corrupt_blocks,
            ..
        } if corrupt_blocks.is_empty() => Some(hits_fingerprint(hits.iter().copied())),
        _ => None,
    }
}

/// The grepz draw key ignores the text index: one container per dictionary.
fn key(d: Draw) -> Draw {
    match d.kind {
        Kind::Grepz => Draw { text: 0, ..d },
        _ => d,
    }
}

pub fn run(cx: &Ctx, rec: &mut Recorder, layer: &mut Layer) -> Window {
    let (mut env, setup_s) = cx.setup(rec, |rec, _| Env::build(cx, rec));
    let mut w = Window {
        setup_s,
        ..Window::default()
    };

    let mut client = env.front_client.take().expect("front client");
    let mut samples: Vec<(Draw, f64, Option<u64>)> = Vec::new();
    let (elapsed_s, _) = rec.timed("window", |rec| {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(cx.window_seconds());
        for draw in Mix::new(cx.args.seed, 0, WEIGHTS, BACKENDS, POOL) {
            if Instant::now() >= deadline {
                break;
            }
            let span = match draw.kind {
                Kind::Grepz => "cluster.grepz_scatter",
                _ => "cluster.front_op",
            };
            let (out, ms) = rec.timed(span, |_| {
                client.op(
                    wire_tag(draw.kind),
                    &env.dicts[draw.dict],
                    env.payload(draw),
                    0,
                )
            });
            let print = out.ok().and_then(Result::ok).as_ref().and_then(front_print);
            samples.push((draw, ms, print));
        }
        started.elapsed().as_secs_f64()
    });

    // Output check: cluster replies ≡ single-node replies.
    let mut expected: HashMap<Draw, Option<u64>> = HashMap::new();
    let mut ok = 0u64;
    rec.timed("verify", |_| {
        for &(draw, ms, print) in &samples {
            let want = *expected
                .entry(key(draw))
                .or_insert_with(|| env.single_node(draw));
            let good = print.is_some() && print == want;
            ok += u64::from(good);
            let ms = if print.is_some() { ms } else { f64::INFINITY };
            match draw.kind {
                Kind::Grepz => w.contrast_ms.push(ms),
                _ => w.primary_ms.push(ms),
            }
        }
    });
    w.attempted = samples.len() as u64;
    w.failed = w.attempted - ok;
    w.req_per_s = ok as f64 / elapsed_s;

    let m = env.router.metrics();
    if let Err(why) = m.check_accounting(true) {
        eprintln!("cluster-scatter: router accounting violated: {why}");
        w.failed += 1;
    }
    // Nothing here kills a backend, so any retry or failover is a fault.
    w.failed += m.retries.get() + m.failovers.get();
    layer.set("cluster.retries", m.retries.get() as f64);
    layer.set("cluster.failovers", m.failovers.get() as f64);
    layer.set("cluster.scatter_gathers", m.scatter_gathers.get() as f64);
    env.front_client = Some(client);
    if cx.args.trace {
        rec.timed("probe", |rec| probes(rec, layer, &env));
    }
    w
}

/// The extra hops, one at a time, on one 4 KiB match and one container.
fn probes(rec: &mut Recorder, layer: &mut Layer, env: &Env) {
    let draw = Draw {
        kind: Kind::Match4k,
        dict: 0,
        text: 0,
    };
    let (dict, text, container) = (&env.dicts[0], env.payload(draw), &env.containers[0]);
    // dicts[0]'s primary is shard 0, so this is the backend the router picks.
    let mut backend = Client::connect(env.servers[0].addr()).expect("connect to backend");
    for _ in 0..RTT_REPS {
        rec.timed("cluster.backend_direct_op", |_| {
            backend
                .op(tag::MATCH, dict, text, 0)
                .expect("backend transport")
                .expect("backend reply")
        });
        rec.timed("cluster.router_op", |_| {
            env.router
                .op(tag::MATCH, dict, text, 0)
                .result
                .expect("router reply")
        });
        rec.timed("cluster.grepz_single", |_| {
            backend
                .op(tag::GREPZ, dict, container, 0)
                .expect("backend transport")
                .expect("backend reply")
        });
    }
    for _ in 0..PROBE_REPS {
        rec.timed("stream.slice_container", |_| {
            std::hint::black_box(
                slice_container(container, 0..CONTAINER_BLOCKS / 2).expect("slice"),
            )
        });
    }
    let router_ms = span_ms(rec, "cluster.router_op");
    layer.set(
        "cluster.router_overhead_ms",
        router_ms - span_ms(rec, "cluster.backend_direct_op"),
    );
    layer.set(
        "cluster.front_overhead_ms",
        span_ms(rec, "cluster.front_op") - router_ms,
    );
}
