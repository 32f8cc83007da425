//! In-process cluster selftest behind `pardict cluster --selftest`.
//!
//! Three real backends (engine + TCP server each) behind one [`Router`],
//! driven with a seeded mixed workload whose every response is compared
//! against a single-node oracle engine running the identical
//! configuration. Halfway through, one backend — chosen by the seed — is
//! killed (server stopped, engine shut down), and the run must continue
//! **degraded but correct**: every remaining response still equals the
//! oracle's, responses carry the degraded flag, and the router's
//! accounting closes exactly.
//!
//! The returned [`Outcome::summary`] is deliberately free of timing,
//! addresses, and latency facts: two runs with the same options must
//! produce byte-identical summaries, which is how the failover test pins
//! determinism. The driver and its failover checks ([`publish_and_drive`])
//! are public so the process-level smoke test (`pardict cluster --smoke`,
//! which SIGKILLs a real child backend) runs the same workload, oracle
//! comparison and assertions with a different kill switch.

use crate::front::RouterServer;
use crate::router::{ClusterConfig, ClusterError, Router};
use pardict_service::selftest::wire_op;
use pardict_service::wire::{self, WireResponse};
use pardict_service::{
    Client, Engine, EngineConfig, Metrics, OpRequest, Registry, Reply, Request, Server,
    ServiceError,
};
use pardict_workloads::{mixed_ops, random_dictionary, text_with_planted_matches, Alphabet};
use std::net::SocketAddr;
use std::sync::Arc;

/// Selftest knobs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Requests the driver issues (the kill lands at the halfway mark).
    pub requests: usize,
    /// Workload seed; also selects the victim backend (`seed % 3`).
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            requests: 240,
            seed: 0xC105_7E12,
        }
    }
}

/// What a selftest run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Deterministic run summary — byte-identical across runs with equal
    /// [`Options`].
    pub summary: String,
    /// Router metrics report (latency facts; *not* deterministic).
    pub metrics_report: String,
}

/// Engine configuration shared by the backends and the oracle, so lane
/// selection (and therefore compressed payload bytes) agree.
#[must_use]
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_depth: 256,
        max_batch: 8,
        seq_threshold: 64,
        stream_threshold: 1 << 14,
    }
}

/// A fresh engine with its own registry and metrics, using
/// [`engine_config`].
#[must_use]
pub fn new_engine() -> Engine {
    let metrics = Arc::new(Metrics::default());
    let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
    Engine::new(engine_config(), registry, metrics)
}

/// Deterministic tallies and failures from one [`drive_workload`] run.
#[derive(Debug, Default)]
pub struct DriveReport {
    /// Requests per op family: match, grep, compress, parse, grepz.
    pub counts: [usize; 5],
    /// Total longest-match hits returned.
    pub match_hits: u64,
    /// Total grep occurrences returned.
    pub grep_hits: u64,
    /// Total container-grep occurrences returned.
    pub grepz_hits: u64,
    /// Total compressed payload bytes returned.
    pub compress_bytes: u64,
    /// Total optimal-parse phrases returned.
    pub parse_phrases: u64,
    /// Requests where router and oracle agreed on `Unparseable`.
    pub unparseable: usize,
    /// Widest scatter-gather fan-out observed.
    pub scatter_shards_max: u32,
    /// Responses carrying the degraded flag.
    pub degraded_count: usize,
    /// Index of the first degraded response.
    pub first_degraded: Option<usize>,
    /// Oracle mismatches and driver-level errors (empty on success).
    pub failures: Vec<String>,
}

/// Drive `requests` seeded mixed operations through `router`, comparing
/// every response against `oracle` (a single-node engine that must hold
/// the same dictionary). `before_request(i)` runs ahead of request `i` —
/// the hook where a harness kills a backend. The workload and tallies are
/// pure functions of `(patterns, requests, seed)` plus the kill schedule,
/// so equal inputs give byte-equal reports.
pub fn drive_workload(
    router: &Router,
    oracle: &Engine,
    patterns: &[Vec<u8>],
    requests: usize,
    seed: u64,
    mut before_request: impl FnMut(usize),
) -> DriveReport {
    let mut report = DriveReport::default();
    let deal = mixed_ops(
        seed ^ 0x5EED_CAFE,
        seed,
        patterns,
        [30, 55, 65, 75],
        0..requests,
    );
    for (i, kind, text) in deal {
        before_request(i);
        report.counts[kind] += 1;
        let (tag, payload) = match wire_op(kind, text, 128) {
            Ok(op) => op,
            Err(e) => {
                report
                    .failures
                    .push(format!("request {i}: driver compress: {e}"));
                continue;
            }
        };
        // `Router::op` scatter-gathers a GREPZ tag itself.
        let routed = router.op(tag, "corpus", &payload, 0);
        let oracle_op =
            OpRequest::from_wire(tag, "corpus".into(), payload).expect("wire_op deals op tags");

        if routed.degraded {
            report.degraded_count += 1;
            report.first_degraded.get_or_insert(i);
        }

        let oracle_resp = oracle.call(Request::new(oracle_op));
        verify_response(i, &routed.result, &oracle_resp.result, &mut report.failures);
        if report.failures.len() > 5 {
            break;
        }

        match &routed.result {
            Ok(WireResponse::Hits { hits, .. }) => {
                if tag == wire::tag::MATCH {
                    report.match_hits += hits.len() as u64;
                } else {
                    report.grep_hits += hits.len() as u64;
                }
            }
            Ok(WireResponse::Compressed { payload, .. }) => {
                report.compress_bytes += payload.len() as u64;
            }
            Ok(WireResponse::Parsed { phrases, .. }) => {
                report.parse_phrases += u64::from(*phrases);
            }
            Ok(WireResponse::ClusterHits { hits, shards, .. }) => {
                report.grepz_hits += hits.len() as u64;
                report.scatter_shards_max = report.scatter_shards_max.max(*shards);
            }
            Err(ClusterError::Service(ServiceError::Unparseable)) => {
                report.unparseable += 1;
            }
            _ => {}
        }
    }
    report
}

/// Backends both harnesses run.
pub const BACKENDS: usize = 3;

/// The kill schedule both harnesses share: `(victim, kill_at)` — the
/// seed picks the backend that dies ahead of request `requests / 2`.
#[must_use]
pub fn kill_plan(requests: usize, seed: u64) -> (usize, usize) {
    ((seed % BACKENDS as u64) as usize, requests / 2)
}

/// Publish `patterns` as "corpus" everywhere, drive the seeded workload
/// with `kill(victim)` called at the [`kill_plan`] mark, and hold the run
/// to the failover contract: nothing degraded before the kill, something
/// after it, a scatter-gather that really fanned out, every response equal
/// to the oracle's, router books that close exactly. `kill` is all the
/// selftest (stops a server) and the smoke (SIGKILLs a child) differ in.
///
/// # Errors
/// The publish failure, or a count of violated checks with the first one.
pub fn publish_and_drive(
    router: &Router,
    oracle: &Engine,
    patterns: &[Vec<u8>],
    requests: usize,
    seed: u64,
    mut kill: impl FnMut(usize),
) -> Result<DriveReport, String> {
    let published = router
        .publish("corpus", patterns)
        .map_err(|e| format!("cluster publish: {e}"))?;
    if published.degraded {
        return Err(format!("publish should reach all backends: {published:?}"));
    }
    oracle
        .registry()
        .publish("corpus", patterns.to_vec())
        .map_err(|e| format!("oracle publish: {e}"))?;

    let (victim, kill_at) = kill_plan(requests, seed);
    let mut report = drive_workload(router, oracle, patterns, requests, seed, |i| {
        if i == kill_at {
            kill(victim);
        }
    });
    let mut failures = std::mem::take(&mut report.failures);
    match report.first_degraded {
        Some(first) if first < kill_at => {
            failures.push(format!("request {first}: degraded before the kill"));
        }
        None => failures.push("no degraded responses after killing a backend".into()),
        _ => {}
    }
    if report.scatter_shards_max < 2 {
        failures.push(format!(
            "scatter-gather never fanned out (max shards {})",
            report.scatter_shards_max
        ));
    }
    if let Err(e) = router.metrics().check_accounting(true) {
        failures.push(format!("accounting violated: {e}"));
    }
    match failures.first() {
        Some(first) => Err(format!("{} failures; first: {first}", failures.len())),
        None => Ok(report),
    }
}

/// Compare one routed response against the single-node oracle's,
/// appending a description of any disagreement to `failures`.
pub fn verify_response(
    i: usize,
    routed: &Result<WireResponse, ClusterError>,
    oracle: &Result<Reply, ServiceError>,
    failures: &mut Vec<String>,
) {
    let mut fail = |msg: String| failures.push(format!("request {i}: {msg}"));
    match (routed, oracle) {
        (
            Ok(WireResponse::Hits { version, hits }),
            Ok(Reply::Match {
                version: ov,
                hits: oh,
            }),
        )
        | (
            Ok(WireResponse::Hits { version, hits }),
            Ok(Reply::Grep {
                version: ov,
                hits: oh,
            }),
        ) => {
            if version != ov {
                fail(format!("version {version} != oracle {ov}"));
            }
            if hits != oh {
                fail(format!("hits {} != oracle {}", hits.len(), oh.len()));
            }
        }
        (
            Ok(WireResponse::Compressed { payload, phrases }),
            Ok(Reply::Compress {
                payload: op,
                phrases: oph,
            }),
        ) => {
            if payload != op || phrases != oph {
                fail("compressed payload differs from oracle".into());
            }
        }
        (
            Ok(WireResponse::Parsed {
                phrases,
                greedy_phrases,
                ..
            }),
            Ok(Reply::Parse {
                phrases: oph,
                greedy_phrases: og,
                ..
            }),
        ) => {
            if phrases != oph || greedy_phrases != og {
                fail(format!(
                    "parse {phrases}/{greedy_phrases:?} != oracle {oph}/{og:?}"
                ));
            }
        }
        (
            Ok(WireResponse::ClusterHits {
                version,
                hits,
                corrupt_blocks,
                ..
            }),
            Ok(Reply::GrepContainer {
                version: ov,
                hits: oh,
                corrupt_blocks: oc,
            }),
        ) => {
            if version != ov {
                fail(format!("grepz version {version} != oracle {ov}"));
            }
            if hits != oh {
                fail(format!(
                    "grepz hits differ: {} vs oracle {} (order or content)",
                    hits.len(),
                    oh.len()
                ));
            }
            if corrupt_blocks != oc {
                fail(format!(
                    "corrupt blocks {corrupt_blocks:?} != oracle {oc:?}"
                ));
            }
        }
        (Err(ClusterError::Service(e)), Err(oe)) if e == oe => {}
        (got, want) => fail(format!("outcome mismatch: {got:?} vs oracle {want:?}")),
    }
}

/// Render the deterministic summary shared by `--selftest` and `--smoke`.
#[must_use]
pub fn render_summary(label: &str, requests: usize, seed: u64, r: &DriveReport) -> String {
    let (victim, kill_at) = kill_plan(requests, seed);
    format!(
        "cluster {label} ok: {requests} requests over 3 backends, seed {seed}\n\
         ops: match {} grep {} compress {} parse {} grepz {}\n\
         tallies: match-hits {} grep-hits {} grepz-hits {} \
         compress-bytes {} parse-phrases {} unparseable {}\n\
         scatter: fan-out up to {} shards, merged order identical to single node\n\
         failover: backend {victim} killed at request {kill_at}; \
         {} degraded responses, first at request {}\n\
         oracle: every response identical to the single-node engine; accounting closed exactly\n",
        r.counts[0],
        r.counts[1],
        r.counts[2],
        r.counts[3],
        r.counts[4],
        r.match_hits,
        r.grep_hits,
        r.grepz_hits,
        r.compress_bytes,
        r.parse_phrases,
        r.unparseable,
        r.scatter_shards_max,
        r.degraded_count,
        r.first_degraded.unwrap_or(0),
    )
}

/// Run the cluster selftest.
///
/// # Errors
/// A description of the first failed assertion or infrastructure step.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let requests = opts.requests.max(8);
    let (victim, _) = kill_plan(requests, opts.seed);

    // --- three served backends plus the single-node oracle.
    let mut engines = Vec::new();
    let mut servers: Vec<Option<Server>> = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for _ in 0..BACKENDS {
        let engine = new_engine();
        let server = Server::start(engine.clone(), "127.0.0.1:0")
            .map_err(|e| format!("backend start: {e}"))?;
        addrs.push(server.addr());
        engines.push(engine);
        servers.push(Some(server));
    }
    let oracle = new_engine();

    let router = Arc::new(Router::new(&addrs, ClusterConfig::default()));

    // --- publish everywhere, then the sequential seeded driver with an
    // in-process kill at halfway.
    let patterns = random_dictionary(opts.seed, 24, 3, 10, Alphabet::dna());
    let report = publish_and_drive(&router, &oracle, &patterns, requests, opts.seed, |v| {
        // Kill one backend: stop its listener, drain its engine. A
        // pooled router connection now gets ShuttingDown; a fresh
        // dial gets ConnectionRefused — both are dead-shard signals.
        servers[v].take();
        engines[v].shutdown();
    })?;

    // --- what only the in-process run can see.
    let mut failures = Vec::new();
    if router.metrics().scatter_gathers.get() == 0 {
        failures.push("scatter_gathers counter never moved".into());
    }
    if router.metrics().per_shard[victim].deaths.get() != 1 {
        failures.push(format!(
            "victim {victim} deaths = {}, expected exactly 1",
            router.metrics().per_shard[victim].deaths.get()
        ));
    }

    // --- TCP front: the same wire protocol end to end.
    {
        let front = RouterServer::start(Arc::clone(&router), "127.0.0.1:0")
            .map_err(|e| format!("front start: {e}"))?;
        let mut client =
            Client::connect(front.addr()).map_err(|e| format!("front connect: {e}"))?;
        client.ping().map_err(|e| format!("front ping: {e}"))?;
        let snap = client.stats().map_err(|e| format!("front stats: {e}"))?;
        if snap.completed == 0 {
            failures.push("merged stats show zero completed backend requests".into());
        }
        let text =
            text_with_planted_matches(opts.seed ^ 0xF0F0, &patterns, 400, 10, Alphabet::dna());
        match client.op(wire::tag::MATCH, "corpus", &text, 1000) {
            Ok(Ok(WireResponse::Hits { .. })) => {}
            other => failures.push(format!("front match: unexpected {other:?}")),
        }
        let wire_report = client
            .metrics()
            .map_err(|e| format!("front metrics: {e}"))?;
        if !wire_report.contains("pardict-cluster metrics") {
            failures.push("front metrics report missing cluster header".into());
        }
    }
    // The front's requests went through the same books.
    if let Err(e) = router.metrics().check_accounting(true) {
        failures.push(format!("accounting violated after the front probes: {e}"));
    }

    let metrics_report = router.report();

    // --- teardown.
    router.shutdown();
    for s in servers.iter_mut().flatten() {
        s.stop();
    }
    for (id, e) in engines.iter().enumerate() {
        if id != victim {
            e.shutdown();
        }
    }
    oracle.shutdown();

    if let Some(first) = failures.first() {
        return Err(format!("{} failures; first: {first}", failures.len()));
    }

    Ok(Outcome {
        summary: render_summary("selftest", requests, opts.seed, &report),
        metrics_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cluster_selftest_passes() {
        let outcome = run(&Options {
            requests: 48,
            seed: 11,
        })
        .expect("cluster selftest should pass");
        assert!(outcome.summary.contains("cluster selftest ok"));
        assert!(outcome.summary.contains("degraded responses"));
        assert!(outcome.metrics_report.contains("pardict-cluster metrics"));
    }
}
