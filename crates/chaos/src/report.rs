//! The deterministic chaos driver: one seed in, one byte-identical
//! report out.
//!
//! [`run_chaos`] composes the three engines into a single run:
//!
//! - **Container rounds** — per round, a seeded corpus is compressed into
//!   a PDZS container, a [`FaultPlan`] scripts one fault per class, and
//!   [`verify_fault`] checks every oracle differentially against the clean
//!   copy. Each round executes under *both* [`Pram::seq`] and
//!   [`Pram::par`] through [`audit_seq_par`], so the ledger invariant
//!   auditor rides along with every container check.
//! - **Storage faults** — a clean `pardict-store` data directory is
//!   copied and damaged one fault class at a time (torn mid-delta tail,
//!   WAL bit flip, truncated snapshot with an orphaned delta, stale
//!   compaction temp), each recovery checked against a model of the
//!   clean history ([`storage_chaos`](crate::store::storage_chaos)).
//! - **Wire chaos** — a live [`Server`] behind a [`ChaosProxy`] suffers
//!   malformed frames, oversized and truncated length prefixes,
//!   mid-request disconnects, hostile entry counts, slow-drip writes,
//!   and delta-publish sabotage (torn mid-frame, hostile add counts,
//!   stale parent versions), while a healthy direct connection is
//!   re-verified after every hostile scenario and
//!   [`Metrics::check_accounting`] must balance at the end.
//!
//! Every report line is symbolic — fault names, block indexes, hit counts
//! — never ports, timings, or addresses, so equal seeds produce equal
//! bytes. A failing line starts with `[VIOLATED]` and the final verdict
//! line carries the totals the CLI turns into an exit code.

use std::io::Cursor;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use pardict_core::bytes::{Endian, Writer};
use pardict_core::{dictionary_match, Dictionary, SegmentedMatcher};
use pardict_pram::{Pram, SplitMix64};
use pardict_search::{grep_container, GrepConfig};
use pardict_service::wire::{read_frame, tag, write_frame, WireRequest, WireResponse};
use pardict_service::{Engine, EngineConfig, Hit, Metrics, Registry, Server};
use pardict_stream::layout::ContainerLayout;
use pardict_stream::{compress_stream, StreamConfig, StreamReader};
use pardict_workloads::{markov_text, random_text, repetitive_text, zipf_text, Alphabet};

use crate::audit::audit_seq_par;
use crate::plan::{verify_fault, FaultContext, FaultPlan};
use crate::proxy::{ChaosProxy, ClientFault};

/// Knobs for one chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed; equal seeds produce byte-identical reports.
    pub seed: u64,
    /// Container fault rounds (each gets a fresh corpus and plan).
    pub rounds: usize,
    /// Run the wire-chaos section (needs loopback sockets; tests that
    /// only want container faults can turn it off).
    pub wire: bool,
    /// Run the storage fault section (needs a scratch directory under
    /// the system temp dir).
    pub storage: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 2026,
            rounds: 3,
            wire: true,
            storage: true,
        }
    }
}

/// Outcome of a chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The full report, one line per check; byte-identical per seed.
    pub text: String,
    /// Oracles checked (lines tagged `[ok]` or `[VIOLATED]`).
    pub checks: usize,
    /// Oracles violated (lines tagged `[VIOLATED]`).
    pub violations: usize,
}

impl ChaosReport {
    /// `true` when every oracle held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations == 0
    }
}

/// Run the full chaos suite for `cfg` and render the report.
///
/// Never panics on a detected violation — violations become `[VIOLATED]`
/// lines and a nonzero [`ChaosReport::violations`] count, so callers (the
/// CLI, CI) can print the report and exit nonzero.
#[must_use]
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let mut lines = vec![format!(
        "pardict-chaos report (seed {}, rounds {})",
        cfg.seed, cfg.rounds
    )];
    for round in 0..cfg.rounds {
        container_round(cfg.seed, round, &mut lines);
    }
    if cfg.storage {
        crate::store::storage_chaos(cfg.seed, &mut lines);
    }
    if cfg.wire {
        wire_chaos(cfg.seed, &mut lines);
    }
    let checks = lines
        .iter()
        .filter(|l| l.contains("[ok]") || l.contains("[VIOLATED]"))
        .count();
    let violations = lines.iter().filter(|l| l.contains("[VIOLATED]")).count();
    lines.push(format!(
        "verdict: {checks} oracles checked, {violations} violated"
    ));
    ChaosReport {
        text: lines.join("\n") + "\n",
        checks,
        violations,
    }
}

/// Derive the corpus for a round: four workload shapes cycled so every
/// run exercises compressible, repetitive, skewed, and incompressible
/// (stored-block) containers.
fn round_corpus(round: usize, rng: &mut SplitMix64) -> (&'static str, Vec<u8>) {
    let n = 2048 + rng.next_below(2048) as usize;
    let text_seed = rng.next_u64();
    match round % 4 {
        0 => ("markov", markov_text(text_seed, n, Alphabet::lowercase())),
        1 => (
            "repetitive",
            repetitive_text(text_seed, n, Alphabet::lowercase()),
        ),
        2 => ("zipf", zipf_text(text_seed, n, 50, Alphabet::lowercase())),
        _ => ("random", random_text(text_seed, n, Alphabet::sized(255))),
    }
}

/// Deterministic dictionary: a handful of substrings cut from the corpus,
/// so the clean container always has hits to lose when blocks die.
fn round_patterns(corpus: &[u8], rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let mut patterns: Vec<Vec<u8>> = Vec::new();
    for _ in 0..6 {
        let len = 3 + rng.next_below(4) as usize;
        let start = rng.next_below((corpus.len() - len) as u64) as usize;
        let p = corpus[start..start + len].to_vec();
        if !patterns.contains(&p) {
            patterns.push(p);
        }
    }
    patterns
}

/// One container fault round: corpus → container → plan → verify every
/// fault, executed under both PRAM modes with the ledger auditor.
fn container_round(seed: u64, round: usize, lines: &mut Vec<String>) {
    let round_seed = SplitMix64::new(seed ^ (round as u64)).next_u64();
    let mut rng = SplitMix64::new(round_seed);
    let (shape, corpus) = round_corpus(round, &mut rng);
    let patterns = round_patterns(&corpus, &mut rng);
    let block_size = 256 + rng.next_below(256) as usize;
    let stream_cfg = StreamConfig {
        block_size,
        max_in_flight: 4,
    };
    lines.push(format!(
        "round {round}: {shape} corpus ({} bytes, block size {block_size}, {} patterns)",
        corpus.len(),
        patterns.len()
    ));

    let (container, _) =
        match compress_stream(&Pram::seq(), &mut &corpus[..], Vec::new(), &stream_cfg) {
            Ok(out) => out,
            Err(e) => {
                lines.push(format!("  [VIOLATED] compress clean corpus: {e}"));
                return;
            }
        };
    let layout = match ContainerLayout::parse(&container) {
        Ok(l) => l,
        Err(e) => {
            lines.push(format!("  [VIOLATED] layout of clean container: {e}"));
            return;
        }
    };
    let plan = FaultPlan::generate(round_seed, &container, &corpus, &layout);

    let audited = audit_seq_par(&format!("round {round}"), |pram, auditor| {
        let mut out = Vec::new();
        let matcher = SegmentedMatcher::build(pram, patterns.clone());
        auditor.step(pram, "matcher build");
        let clean_hits = {
            let mut rdr = match StreamReader::open(Cursor::new(&container[..])) {
                Ok(r) => r,
                Err(e) => {
                    out.push(format!("[VIOLATED] clean container must open: {e}"));
                    return out;
                }
            };
            let (bytes, issues) = match rdr.read_all(pram) {
                Ok(r) => r,
                Err(e) => {
                    out.push(format!("[VIOLATED] clean container must decode: {e}"));
                    return out;
                }
            };
            if bytes != corpus || !issues.is_empty() {
                out.push(format!(
                    "[VIOLATED] clean round-trip: {} bytes, {} issues",
                    bytes.len(),
                    issues.len()
                ));
                return out;
            }
            auditor.step(pram, "clean decode");
            match grep_container(pram, &matcher, &mut rdr, &GrepConfig::default()) {
                Ok(s) => s.hits,
                Err(e) => {
                    out.push(format!("[VIOLATED] clean grep must succeed: {e}"));
                    return out;
                }
            }
        };
        auditor.step(pram, "clean grep");
        out.push(format!(
            "[ok] clean container round-trips ({} blocks, {} hits)",
            layout.num_blocks(),
            clean_hits.len()
        ));
        let ctx = FaultContext {
            pram,
            container: &container,
            clean_raw: &corpus,
            layout: &layout,
            matcher: Some(&matcher),
            clean_hits: &clean_hits,
        };
        for pf in &plan.faults {
            match verify_fault(&ctx, pf) {
                Ok(line) => out.push(format!("[ok] {line}")),
                Err(e) => out.push(format!("[VIOLATED] {e}")),
            }
            auditor.step(pram, pf.fault.name());
        }
        out
    });
    match audited {
        Ok((fault_lines, report)) => {
            for l in fault_lines {
                lines.push(format!("  {l}"));
            }
            for (name, why) in &plan.skipped {
                lines.push(format!("  [skip] {name}: {why}"));
            }
            lines.push(format!(
                "  [ok] ledger audit: seq == par (work {}, depth {}, {} checkpoints)",
                report.cost.work, report.cost.depth, report.steps
            ));
        }
        Err(e) => lines.push(format!("  [VIOLATED] ledger audit: {e}")),
    }
}

// ---- wire chaos ----

const WIRE_TIMEOUT: Duration = Duration::from_secs(10);

fn raw_connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(WIRE_TIMEOUT))?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// One request/response exchange over a raw socket; `Ok(None)` means the
/// peer closed without answering.
fn roundtrip(s: &mut TcpStream, req: &WireRequest) -> std::io::Result<Option<WireResponse>> {
    write_frame(s, &req.encode())?;
    match read_frame(s)? {
        None => Ok(None),
        Some(payload) => Ok(Some(WireResponse::decode(&payload)?)),
    }
}

fn match_request(dict: &str, text: &[u8]) -> WireRequest {
    WireRequest::Op {
        tag: tag::MATCH,
        dict: dict.into(),
        text: text.to_vec(),
        timeout_ms: 0,
    }
}

/// Expected hits for the wire baseline, computed against the library
/// directly (longest match per position, like the engine's match lane).
fn library_hits(patterns: &[Vec<u8>], text: &[u8]) -> Vec<(u64, u32)> {
    let dict = Dictionary::new(patterns.to_vec());
    dictionary_match(&Pram::seq(), &dict, text, 0xA5)
        .iter_hits()
        .map(|(i, m)| (i as u64, m.len))
        .collect()
}

fn hit_pairs(hits: &[Hit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.pos, h.len)).collect()
}

/// The wire-chaos section: hostile clients against a live server, with a
/// healthy connection re-verified after every scenario and the metrics
/// accounting identities checked once the dust settles.
fn wire_chaos(seed: u64, lines: &mut Vec<String>) {
    lines.push("wire: hostile clients against a live server".into());
    let mut rng = SplitMix64::new(seed ^ 0x0005_7A6E_C0DE);
    let text = markov_text(rng.next_u64(), 1500, Alphabet::lowercase());
    let patterns = round_patterns(&text, &mut rng);
    let expected = library_hits(&patterns, &text);

    let metrics = Arc::new(Metrics::default());
    let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
    let engine = Engine::new(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        registry,
        Arc::clone(&metrics),
    );
    let server = match Server::start(engine, "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            lines.push(format!("  [VIOLATED] server start: {e}"));
            return;
        }
    };
    let mut proxy = match ChaosProxy::start(server.addr()) {
        Ok(p) => p,
        Err(e) => {
            lines.push(format!("  [VIOLATED] proxy start: {e}"));
            return;
        }
    };

    // Everything below records outcomes; an I/O error is itself a verdict.
    let mut engine_ops: u64 = 0;
    run_wire_scenarios(
        &server,
        &proxy,
        &text,
        &patterns,
        &expected,
        &mut engine_ops,
        lines,
    );

    // Quiescent accounting: every accepted request must be accounted for.
    match metrics.check_accounting(true) {
        Ok(()) => lines.push("  [ok] metrics accounting identities hold at quiescence".into()),
        Err(e) => lines.push(format!("  [VIOLATED] metrics accounting: {e}")),
    }
    let (sub, comp) = (metrics.submitted.get(), metrics.completed.get());
    if sub == engine_ops && comp == engine_ops {
        lines.push(format!(
            "  [ok] engine saw exactly the {engine_ops} operations the scenarios sent"
        ));
    } else {
        lines.push(format!(
            "  [VIOLATED] engine op count: submitted {sub}, completed {comp}, expected {engine_ops}"
        ));
    }

    proxy.stop();
    server.engine().shutdown();
}

/// Check helper: push `[ok] label` / `[VIOLATED] label: why`.
/// Send one hostile `payload`: the server must answer it with an error
/// reply and keep the connection serving.
fn refused_but_serving(addr: SocketAddr, payload: &[u8]) -> Result<(), String> {
    let mut s = raw_connect(addr).map_err(|e| e.to_string())?;
    write_frame(&mut s, payload).map_err(|e| e.to_string())?;
    match read_frame(&mut s).map_err(|e| e.to_string())? {
        Some(p) => match WireResponse::decode(&p).map_err(|e| e.to_string())? {
            WireResponse::Error { .. } => {}
            other => return Err(format!("wanted error reply, got {other:?}")),
        },
        None => return Err("connection dropped instead of error reply".into()),
    }
    match roundtrip(&mut s, &WireRequest::Ping).map_err(|e| e.to_string())? {
        Some(WireResponse::Pong) => Ok(()),
        other => Err(format!("wanted pong after error, got {other:?}")),
    }
}

fn verdict(lines: &mut Vec<String>, label: &str, result: Result<(), String>) {
    match result {
        Ok(()) => lines.push(format!("  [ok] {label}")),
        Err(why) => lines.push(format!("  [VIOLATED] {label}: {why}")),
    }
}

#[allow(clippy::too_many_lines)]
fn run_wire_scenarios(
    server: &Server,
    proxy: &ChaosProxy,
    text: &[u8],
    patterns: &[Vec<u8>],
    expected: &[(u64, u32)],
    engine_ops: &mut u64,
    lines: &mut Vec<String>,
) {
    let direct = server.addr();

    // The healthy connection that must stay correct throughout.
    let mut healthy = match raw_connect(direct) {
        Ok(s) => s,
        Err(e) => {
            lines.push(format!("  [VIOLATED] healthy connect: {e}"));
            return;
        }
    };
    let publish = WireRequest::Publish {
        name: "chaos".into(),
        patterns: patterns.to_vec(),
    };
    verdict(
        lines,
        "publish dictionary",
        match roundtrip(&mut healthy, &publish) {
            Ok(Some(WireResponse::Published { version: 1, .. })) => Ok(()),
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(e) => Err(e.to_string()),
        },
    );
    let mut healthy_check = |lines: &mut Vec<String>, label: &str, ops: &mut u64| {
        *ops += 1;
        verdict(
            lines,
            label,
            match roundtrip(&mut healthy, &match_request("chaos", text)) {
                Ok(Some(WireResponse::Hits { hits, .. })) => {
                    if hit_pairs(&hits) == expected {
                        Ok(())
                    } else {
                        Err(format!("{} hits, expected {}", hits.len(), expected.len()))
                    }
                }
                Ok(other) => Err(format!("unexpected reply {other:?}")),
                Err(e) => Err(e.to_string()),
            },
        );
    };
    healthy_check(
        lines,
        &format!(
            "baseline match agrees with library ({} hits)",
            expected.len()
        ),
        engine_ops,
    );

    // Scenario 1: malformed frame — error reply, connection survives.
    proxy.push_fault(ClientFault::CorruptTag);
    verdict(
        lines,
        "malformed-frame answered with error, connection kept",
        (|| {
            let mut s = raw_connect(proxy.addr()).map_err(|e| e.to_string())?;
            match roundtrip(&mut s, &WireRequest::Ping).map_err(|e| e.to_string())? {
                Some(WireResponse::Error { .. }) => {}
                other => return Err(format!("wanted error reply, got {other:?}")),
            }
            match roundtrip(&mut s, &WireRequest::Ping).map_err(|e| e.to_string())? {
                Some(WireResponse::Pong) => Ok(()),
                other => Err(format!("wanted pong after error, got {other:?}")),
            }
        })(),
    );
    healthy_check(
        lines,
        "healthy connection correct after malformed-frame",
        engine_ops,
    );

    // Scenario 2: oversized length prefix — connection dropped, no reply.
    proxy.push_fault(ClientFault::OversizeLength);
    verdict(
        lines,
        "oversized-frame dropped without a reply",
        (|| {
            let mut s = raw_connect(proxy.addr()).map_err(|e| e.to_string())?;
            match roundtrip(&mut s, &WireRequest::Ping) {
                Ok(None) | Err(_) => Ok(()),
                Ok(Some(resp)) => Err(format!("server answered an oversized frame: {resp:?}")),
            }
        })(),
    );
    healthy_check(
        lines,
        "healthy connection correct after oversized-frame",
        engine_ops,
    );

    // Scenario 3: mid-request disconnect (half the payload, then gone).
    proxy.push_fault(ClientFault::TruncateMidFrame);
    verdict(
        lines,
        "mid-request-disconnect dropped without a reply",
        (|| {
            let mut s = raw_connect(proxy.addr()).map_err(|e| e.to_string())?;
            match roundtrip(&mut s, &match_request("chaos", text)) {
                Ok(None) | Err(_) => Ok(()),
                Ok(Some(resp)) => Err(format!("server answered a truncated frame: {resp:?}")),
            }
        })(),
    );
    healthy_check(
        lines,
        "healthy connection correct after mid-request-disconnect",
        engine_ops,
    );

    // Scenario 4: truncated length prefix (prefix only, then gone).
    proxy.push_fault(ClientFault::DisconnectAfterPrefix);
    verdict(
        lines,
        "truncated-length-prefix dropped without a reply",
        (|| {
            let mut s = raw_connect(proxy.addr()).map_err(|e| e.to_string())?;
            match roundtrip(&mut s, &WireRequest::Ping) {
                Ok(None) | Err(_) => Ok(()),
                Ok(Some(resp)) => Err(format!("server answered a phantom frame: {resp:?}")),
            }
        })(),
    );
    healthy_check(
        lines,
        "healthy connection correct after truncated-length-prefix",
        engine_ops,
    );

    // Scenario 5: slow drip — byte-at-a-time writes must still be served.
    proxy.push_fault(ClientFault::SlowDrip);
    *engine_ops += 1;
    verdict(
        lines,
        "slow-drip request served correctly",
        (|| {
            let mut s = raw_connect(proxy.addr()).map_err(|e| e.to_string())?;
            match roundtrip(&mut s, &match_request("chaos", text)).map_err(|e| e.to_string())? {
                Some(WireResponse::Hits { hits, .. }) if hit_pairs(&hits) == expected => Ok(()),
                other => Err(format!("wanted the baseline hits, got {other:?}")),
            }
        })(),
    );
    healthy_check(
        lines,
        "healthy connection correct after slow-drip",
        engine_ops,
    );

    // Scenario 6: hostile entry count — a PUBLISH frame claiming u32::MAX
    // patterns in a tiny payload must be refused without allocating, and
    // the connection must keep serving.
    verdict(lines, "hostile pattern count refused, connection kept", {
        let mut w = Writer::new(Endian::Big);
        w.u8(tag::PUBLISH);
        w.put_bytes(b"d");
        w.u32(u32::MAX);
        refused_but_serving(direct, &w.into_vec())
    });
    healthy_check(
        lines,
        "healthy connection correct after hostile pattern count",
        engine_ops,
    );

    // Scenario 7: torn delta publish — a PUBDELTA frame truncated
    // mid-frame must be dropped without a reply, and the dictionary must
    // stay at its parent version: nothing half-applied, no phantom
    // version bump.
    let delta_add = b"chaosdelta".to_vec();
    let delta_req = WireRequest::PubDelta {
        name: "chaos".into(),
        parent_version: 1,
        adds: vec![delta_add.clone()],
        removes: Vec::new(),
    };
    proxy.push_fault(ClientFault::TruncateMidFrame);
    verdict(
        lines,
        "torn delta publish dropped, dictionary stays at parent version",
        (|| {
            let mut s = raw_connect(proxy.addr()).map_err(|e| e.to_string())?;
            match roundtrip(&mut s, &delta_req) {
                Ok(None) | Err(_) => {}
                Ok(Some(resp)) => return Err(format!("server answered a torn delta: {resp:?}")),
            }
            let mut s = raw_connect(direct).map_err(|e| e.to_string())?;
            match roundtrip(&mut s, &WireRequest::Dicts).map_err(|e| e.to_string())? {
                Some(WireResponse::DictList(dicts)) => {
                    match dicts.iter().find(|(n, _, _)| n == "chaos") {
                        Some((_, 1, _)) => Ok(()),
                        Some((_, v, _)) => Err(format!("dictionary advanced to version {v}")),
                        None => Err("dictionary vanished".into()),
                    }
                }
                other => Err(format!("unexpected dicts reply {other:?}")),
            }
        })(),
    );
    healthy_check(
        lines,
        "healthy connection correct after torn delta publish",
        engine_ops,
    );

    // Scenario 8: hostile delta count — a PUBDELTA frame claiming
    // u32::MAX adds in a tiny payload must be refused without
    // allocating, and the connection must keep serving.
    verdict(lines, "hostile delta count refused, connection kept", {
        let mut w = Writer::new(Endian::Big);
        w.u8(tag::PUBDELTA);
        w.put_bytes(b"chaos");
        w.u64(1);
        w.u32(u32::MAX);
        refused_but_serving(direct, &w.into_vec())
    });
    healthy_check(
        lines,
        "healthy connection correct after hostile delta count",
        engine_ops,
    );

    // Scenario 9: stale-parent delta — naming a superseded parent
    // version must be refused with an error, never applied.
    verdict(
        lines,
        "stale-parent delta refused, connection kept",
        (|| {
            let mut s = raw_connect(direct).map_err(|e| e.to_string())?;
            let stale = WireRequest::PubDelta {
                name: "chaos".into(),
                parent_version: 999,
                adds: vec![delta_add.clone()],
                removes: Vec::new(),
            };
            match roundtrip(&mut s, &stale).map_err(|e| e.to_string())? {
                Some(WireResponse::Error { .. }) => {}
                other => return Err(format!("wanted error reply, got {other:?}")),
            }
            match roundtrip(&mut s, &WireRequest::Ping).map_err(|e| e.to_string())? {
                Some(WireResponse::Pong) => Ok(()),
                other => Err(format!("wanted pong after error, got {other:?}")),
            }
        })(),
    );
    healthy_check(
        lines,
        "healthy connection correct after stale-parent delta",
        engine_ops,
    );

    // Scenario 10: after the chaos, a well-formed delta publish on a
    // direct connection applies — version 2, and matches against the
    // delta'd dictionary agree with a scratch library build of the
    // final pattern set.
    *engine_ops += 1;
    verdict(
        lines,
        "delta publish applies after wire chaos, matches agree with scratch build",
        (|| {
            let mut finals = patterns.to_vec();
            finals.push(delta_add.clone());
            let expected2 = library_hits(&finals, text);
            let mut s = raw_connect(direct).map_err(|e| e.to_string())?;
            match roundtrip(&mut s, &delta_req).map_err(|e| e.to_string())? {
                Some(WireResponse::Published { version: 2, .. }) => {}
                other => return Err(format!("wanted version 2, got {other:?}")),
            }
            match roundtrip(&mut s, &match_request("chaos", text)).map_err(|e| e.to_string())? {
                Some(WireResponse::Hits { hits, .. }) if hit_pairs(&hits) == expected2 => Ok(()),
                other => Err(format!("wanted the scratch-build hits, got {other:?}")),
            }
        })(),
    );

    // Liveness: a brand-new connection still gets a pong.
    verdict(
        lines,
        "server alive on a fresh connection after all scenarios",
        (|| {
            let mut s = raw_connect(direct).map_err(|e| e.to_string())?;
            match roundtrip(&mut s, &WireRequest::Ping).map_err(|e| e.to_string())? {
                Some(WireResponse::Pong) => Ok(()),
                other => Err(format!("wanted pong, got {other:?}")),
            }
        })(),
    );
}
