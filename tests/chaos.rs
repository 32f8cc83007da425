//! Chaos tier: deterministic fault injection and differential
//! verification, end to end.
//!
//! These tests drive `pardict::chaos` the way CI does: seeded runs whose
//! reports must be byte-identical per seed, clean on healthy code, and
//! complete — every fault class the planner knows must show up in the
//! report with an oracle verdict. The ledger invariant auditor runs
//! inside every container round (each round executes under both
//! `Pram::seq()` and `Pram::par()`), so a pass here also certifies the
//! cost-model contracts.

use pardict::chaos::{audit_seq_par, run_chaos, ChaosConfig, ChaosProxy, ClientFault};
use pardict::prelude::*;
use pardict::service::{wire, Client, Engine, Metrics, Registry, Server};
use pardict::trace::{TraceConfig, Tracer};
use std::sync::Arc;

#[test]
fn chaos_report_is_byte_identical_per_seed() {
    let cfg = ChaosConfig {
        seed: 0xC4A0_5EED,
        rounds: 2,
        wire: false,
        storage: true,
    };
    let a = run_chaos(&cfg);
    let b = run_chaos(&cfg);
    assert_eq!(a.text, b.text, "same seed must give byte-identical reports");
    assert_eq!(a.checks, b.checks);
    assert!(a.checks > 0);
    assert_eq!(a.violations, 0, "clean stack must pass:\n{}", a.text);
    assert!(a.passed());
}

#[test]
fn different_seeds_give_different_plans() {
    let base = ChaosConfig {
        seed: 1,
        rounds: 1,
        wire: false,
        storage: false,
    };
    let a = run_chaos(&base);
    let b = run_chaos(&ChaosConfig { seed: 2, ..base });
    assert_ne!(
        a.text, b.text,
        "distinct seeds should script distinct faults"
    );
}

/// Every fault class the planner knows appears in the report with a
/// verdict (or an explicit skip naming why), across a few rounds so the
/// corpora vary. These names are the stable vocabulary TESTING.md
/// documents for reproducing failures.
#[test]
fn every_fault_class_is_reported_with_a_verdict() {
    let report = run_chaos(&ChaosConfig {
        seed: 2026,
        rounds: 4,
        wire: false,
        storage: false,
    });
    for class in [
        "payload-bit-flip",
        "payload-burst-flip",
        "record-header-flip",
        "truncate-record",
        "truncate-index",
        "index-footer-flip",
        "trailer-flip",
        "payload-swap",
        "block-reorder",
        "crc-preserving-swap",
        "hostile-tokens",
    ] {
        assert!(
            report.text.contains(class),
            "fault class {class} missing from report:\n{}",
            report.text
        );
    }
    assert!(
        report.text.contains("ledger audit: seq == par"),
        "ledger auditor verdict missing:\n{}",
        report.text
    );
    assert_eq!(report.violations, 0, "report:\n{}", report.text);
}

/// The wire section: hostile frames against a live server. Every hostile
/// scenario plus the metrics accounting identities must hold.
#[test]
fn wire_chaos_holds_against_a_live_server() {
    let report = run_chaos(&ChaosConfig {
        seed: 7,
        rounds: 0,
        wire: true,
        storage: false,
    });
    for scenario in [
        "malformed-frame",
        "oversized-frame",
        "mid-request-disconnect",
        "truncated-length-prefix",
        "slow-drip",
        "hostile pattern count",
        "torn delta publish",
        "hostile delta count",
        "stale-parent delta",
        "delta publish applies",
        "metrics accounting",
    ] {
        assert!(
            report.text.contains(scenario),
            "wire scenario {scenario} missing from report:\n{}",
            report.text
        );
    }
    assert_eq!(report.violations, 0, "report:\n{}", report.text);
}

/// The storage section: every scripted fault class against a
/// `pardict-store` data directory must appear with a verdict, and a
/// clean stack must violate none of the recovery oracles.
#[test]
fn storage_chaos_holds_on_a_clean_stack() {
    let report = run_chaos(&ChaosConfig {
        seed: 31,
        rounds: 0,
        wire: false,
        storage: true,
    });
    for class in [
        "clean directory recovers",
        "torn-mid-delta",
        "wal-record-bit-flip",
        "truncated-snapshot",
        "stale-temp-leftover",
    ] {
        assert!(
            report.text.contains(class),
            "storage fault class {class} missing from report:\n{}",
            report.text
        );
    }
    assert_eq!(report.violations, 0, "report:\n{}", report.text);
}

/// The auditor is reusable outside `run_chaos`: metered library calls
/// must satisfy the ledger contracts under both modes.
#[test]
fn ledger_auditor_accepts_real_library_work() {
    let (hits, report) = audit_seq_par("lz1 + match", |pram, auditor| {
        let text = pardict::workloads::markov_text(11, 4000, Alphabet::lowercase());
        let tokens = lz1_compress(pram, &text, 0x5EED);
        auditor.step(pram, "compress");
        let back = lz1_decompress(pram, &tokens, 0x5EED);
        assert_eq!(back, text);
        auditor.step(pram, "round-trip");
        let dict = Dictionary::new(vec![b"the".to_vec(), b"ab".to_vec(), b"qzx".to_vec()]);
        dictionary_match(pram, &dict, &text, 0xA5)
            .iter_hits()
            .map(|(i, m)| (i, m.id, m.len))
            .collect::<Vec<_>>()
    })
    .expect("library work must satisfy the ledger contracts");
    assert!(report.cost.work >= report.cost.depth);
    assert!(report.steps >= 3);
    // Not asserting hit counts — the corpus is random; the auditor already
    // proved seq and par agree on them.
    drop(hits);
}

/// Wire chaos against a *traced* engine: every [`ClientFault`] flavour
/// hits a live server whose engine samples 1-in-2 traces. The collector
/// must never panic, the clean requests interleaved with the hostile
/// connections must still answer, and the metrics accounting identity
/// must close at quiescence — tracing is observability, never behaviour.
#[test]
fn traced_engine_survives_wire_chaos_with_sampling_on() {
    let tracer = Tracer::new(TraceConfig {
        sample_one_in: 2,
        seed: 0xC4A0_57E5,
        capacity: 1 << 12,
        deterministic: true,
    });
    let metrics = Arc::new(Metrics::default());
    let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
    let engine = Engine::new_traced(
        pardict::cluster::selftest::engine_config(),
        registry,
        Arc::clone(&metrics),
        Some(Arc::clone(&tracer)),
    );
    engine
        .registry()
        .publish("d", vec![b"ab".to_vec(), b"abc".to_vec(), b"ca".to_vec()])
        .expect("publish");
    let mut server = Server::start(engine.clone(), "127.0.0.1:0").expect("server start");
    let mut proxy = ChaosProxy::start(server.addr()).expect("proxy start");

    let faults = [
        ClientFault::PassThrough,
        ClientFault::CorruptTag,
        ClientFault::OversizeLength,
        ClientFault::TruncateMidFrame,
        ClientFault::DisconnectAfterPrefix,
        ClientFault::SlowDrip,
    ];
    for (round, fault) in faults.iter().cycle().take(18).enumerate() {
        proxy.push_fault(*fault);
        // Hostile connection: the outcome (answer or transport error)
        // depends on the fault; what's asserted is "no panic, no hang".
        if let Ok(mut c) = Client::connect(proxy.addr()) {
            let text = vec![b'a'; 8 + round];
            let _ = c.op_traced(wire::tag::MATCH, "d", &text, 2_000, tracer.begin_trace());
        }
        // Clean traced request on a direct connection: must answer.
        let mut clean = Client::connect(server.addr()).expect("clean connect");
        let reply = clean
            .op_traced(
                wire::tag::GREP,
                "d",
                b"abcabca",
                2_000,
                tracer.begin_trace(),
            )
            .expect("clean transport")
            .expect("clean service reply");
        drop(reply);
    }

    proxy.stop();
    server.stop();
    engine.shutdown();
    metrics
        .check_accounting(true)
        .expect("accounting must close with sampling on");
    // 1-in-2 head sampling on a healthy ring: some spans collected
    // (the clean requests alone guarantee traffic), none dropped.
    let spans = tracer.drain();
    assert!(!spans.is_empty(), "sampled requests must leave spans");
    assert_eq!(tracer.dropped(), 0, "ring is far from full");
}

/// A deliberately tiny collector under overload: the ring keeps its
/// capacity, counts every excess span in `dropped()`, and never blocks
/// the emitting thread. Stored + dropped must equal emitted exactly.
#[test]
fn tiny_collector_counts_drops_without_blocking() {
    let tracer = Tracer::new(TraceConfig {
        sample_one_in: 1,
        seed: 9,
        capacity: 4,
        deterministic: true,
    });
    const EMITTED: usize = 64;
    for _ in 0..EMITTED {
        let ctx = tracer.begin_trace().expect("sample 1-in-1 keeps all");
        drop(tracer.start(ctx, "overload", 0));
    }
    let stored = tracer.drain().len();
    assert!(
        stored <= 4,
        "ring capacity must bound storage, got {stored}"
    );
    assert!(
        tracer.dropped() > 0,
        "overload must be visible in the counter"
    );
    assert_eq!(
        stored as u64 + tracer.dropped(),
        EMITTED as u64,
        "every span is either stored or counted as dropped"
    );
}
