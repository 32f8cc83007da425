//! Integration tests for `pardict-cluster`: scatter-gathered container
//! grep must be order- and content-identical to the single-node engine,
//! failover must be deterministic under a seeded kill schedule, and a
//! chaos-poisoned link must be routed around — degraded, never wrong.

use pardict::chaos::{ChaosProxy, ClientFault};
use pardict::cluster::selftest::{self, Options};
use pardict::cluster::{ClusterConfig, ClusterError, Router};
use pardict::prelude::*;
use pardict::service::{OpRequest, Reply, Request, Server, ServiceError};
use pardict::workloads::random_dictionary;
use proptest::prelude::*;
use std::net::SocketAddr;
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

/// Spin up `n` served backends sharing the selftest engine configuration.
fn backends(n: usize) -> (Vec<pardict::service::Engine>, Vec<Server>, Vec<SocketAddr>) {
    let mut engines = Vec::new();
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let engine = selftest::new_engine();
        let server = Server::start(engine.clone(), "127.0.0.1:0").expect("backend start");
        addrs.push(server.addr());
        engines.push(engine);
        servers.push(server);
    }
    (engines, servers, addrs)
}

fn teardown(engines: Vec<pardict::service::Engine>, mut servers: Vec<Server>) {
    for s in &mut servers {
        s.stop();
    }
    for e in &engines {
        e.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `cluster grepz ≡ single-node grep_container`: for random
    /// dictionaries, texts, shard counts, and block sizes, the routed
    /// scatter-gather answer (hits in pos-asc/len-desc/id-asc order,
    /// version, corrupt-block report) is identical to one engine grepping
    /// the whole container.
    #[test]
    fn cluster_grep_equals_single_node_grep(
        patterns in dictionary(),
        text in small_alpha_text(600),
        shards in 1..=3usize,
        block in 16..64usize,
    ) {
        let (engines, servers, addrs) = backends(shards);
        let oracle = selftest::new_engine();
        let router = Router::new(&addrs, ClusterConfig::default());

        router.publish("d", &patterns).expect("cluster publish");
        oracle.registry().publish("d", patterns.clone()).expect("oracle publish");

        let cfg = StreamConfig::with_block_size(block);
        let (container, _) =
            compress_stream(&Pram::seq(), &mut &text[..], Vec::new(), &cfg).expect("compress");

        let routed = router.grepz("d", &container, 0);
        let oracle_resp = oracle.call(Request::new(OpRequest::GrepContainer {
            dict: "d".into(),
            container,
        }));

        let mut failures = Vec::new();
        selftest::verify_response(0, &routed.result, &oracle_resp.result, &mut failures);
        prop_assert!(failures.is_empty(), "{failures:?}");
        prop_assert!(!routed.degraded, "healthy cluster answered degraded");

        router.shutdown();
        teardown(engines, servers);
        oracle.shutdown();
    }
}

/// `cluster grepz ≡ single node` on damaged containers: the router
/// scatters only a container that one node would open with no header
/// mismatch, so whatever one engine answers — hits and corrupt blocks, or
/// a `BadRequest` refusal — a two-backend router answers too. Footer and
/// trailer-checksum damage is refused by both; an inline `raw_len` flip is
/// one node's `HeaderMismatch`, answered by both through one shard; payload
/// damage and resealed hostile tokens are scattered, and the gather still
/// reports each corrupt block once. Every fault of a seeded chaos plan
/// rides along.
#[test]
fn cluster_grep_equals_single_node_grep_on_damaged_containers() {
    use pardict::chaos::{ContainerFault, FaultPlan};
    use pardict::stream::layout::ContainerLayout;

    let (engines, servers, addrs) = backends(2);
    let oracle = selftest::new_engine();
    let router = Router::new(&addrs, ClusterConfig::default());
    let patterns: Vec<Vec<u8>> = vec![b"fox".to_vec(), b"lazy dog".to_vec(), b"quick".to_vec()];
    router.publish("d", &patterns).expect("cluster publish");
    oracle
        .registry()
        .publish("d", patterns.clone())
        .expect("oracle publish");

    let text = b"the quick brown fox jumps over the lazy dog. ".repeat(30);
    let cfg = StreamConfig::with_block_size(128);
    let (container, _) =
        compress_stream(&Pram::seq(), &mut &text[..], Vec::new(), &cfg).expect("compress");
    let layout = ContainerLayout::parse(&container).expect("clean layout");
    assert!(layout.num_blocks() > 4, "need a multi-block container");

    let hostile = FaultPlan::generate(2026, &container, &text, &layout)
        .faults
        .into_iter()
        .map(|f| f.fault)
        .find(|f| matches!(f, ContainerFault::HostileTokens { .. }))
        .expect("a plannable hostile-token fault");
    let named = [
        // Footer entry 0's CRC field, and the trailer's footer-CRC field.
        ContainerFault::FooterFlip {
            entry: 0,
            byte: 16,
            bit: 0,
        },
        ContainerFault::TrailerFlip { byte: 16, bit: 0 },
        // Block 0's inline `raw_len`.
        ContainerFault::RecordHeaderFlip {
            block: 0,
            byte: 1,
            bit: 0,
        },
        ContainerFault::PayloadBitFlip {
            block: 3,
            byte: 0,
            bit: 5,
        },
        hostile,
    ];
    let planned = FaultPlan::generate(7, &container, &text, &layout)
        .faults
        .into_iter()
        .map(|f| f.fault);

    let mut failures = Vec::new();
    let mut answered = Vec::new();
    for fault in named.into_iter().chain(planned) {
        let damaged = fault.apply(&container, &layout);
        let routed = router.grepz("d", &damaged, 0);
        let single = oracle.call(Request::new(OpRequest::GrepContainer {
            dict: "d".into(),
            container: damaged,
        }));
        answered.push(single.result.is_ok());
        let mut diff = Vec::new();
        match (&routed.result, &single.result) {
            // The wire carries a refusal as the node's rendered message.
            (Err(ClusterError::Service(ServiceError::BadRequest(got))), Err(want))
                if matches!(want, ServiceError::BadRequest(_)) =>
            {
                if *got != want.to_string() {
                    diff.push(format!("refused with {got:?}, one node with {want:?}"));
                }
            }
            (routed, single) => selftest::verify_response(0, routed, single, &mut diff),
        }
        failures.extend(
            diff.into_iter()
                .map(|d| format!("{}: {d}", fault.describe())),
        );
    }
    assert!(failures.is_empty(), "{failures:#?}");
    // One node refuses the checksum flips and answers the rest.
    assert_eq!(answered[..5], [false, false, true, true, true]);

    router.shutdown();
    teardown(engines, servers);
    oracle.shutdown();
}

/// Deterministic failover: the same options (and therefore the same
/// seeded kill schedule) must produce a byte-identical degraded summary
/// across independent runs — addresses, timing, and latency are excluded
/// from the contract by construction.
#[test]
fn failover_summary_is_deterministic() {
    let opts = Options {
        requests: 48,
        seed: 11,
    };
    let first = selftest::run(&opts).expect("first run");
    let second = selftest::run(&opts).expect("second run");
    assert_eq!(first.summary, second.summary);
    assert!(first.summary.contains("degraded responses"));
    assert!(first.summary.contains("killed at request 24"));
}

/// Chaos integration: a [`ChaosProxy`] poisoning every new connection to
/// one backend (corrupted first frame) must read as a dead shard. The
/// router never panics, keeps its accounting books closed, answers every
/// request identically to the oracle, and excludes the poisoned shard.
#[test]
fn router_routes_around_poisoned_link() {
    let (engines, servers, addrs) = backends(3);
    let mut proxy = ChaosProxy::start(addrs[0]).expect("proxy start");
    proxy.set_default_fault(ClientFault::CorruptTag);
    let cluster_addrs = vec![proxy.addr(), addrs[1], addrs[2]];

    let oracle = selftest::new_engine();
    let router = Arc::new(Router::new(&cluster_addrs, ClusterConfig::default()));

    // The broadcast publish already meets the poisoned link: the two
    // clean backends ack, the poisoned one reads as down and the summary
    // says degraded — a warning, not an error.
    let patterns = random_dictionary(0xBAD_5EED, 16, 3, 8, Alphabet::dna());
    let published = router
        .publish("corpus", &patterns)
        .expect("cluster publish");
    assert_eq!(published.acks, 2, "clean backends must ack: {published:?}");
    assert!(published.degraded, "poisoned link must degrade the publish");
    oracle
        .registry()
        .publish("corpus", patterns.clone())
        .expect("oracle publish");

    let report = selftest::drive_workload(&router, &oracle, &patterns, 40, 0xBAD_5EED, |_| {});

    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(
        report.degraded_count, 40,
        "every response while a shard is excluded must carry the degraded flag"
    );
    assert!(
        !router.healthy_ids().contains(&0),
        "the poisoned shard must stay excluded"
    );
    assert!(
        router.metrics().per_shard[0].deaths.get() >= 1,
        "the poisoned shard must be charged a death"
    );
    router
        .metrics()
        .check_accounting(true)
        .expect("books must close despite the poisoned link");

    router.shutdown();
    proxy.stop();
    teardown(engines, servers);
    oracle.shutdown();
}

/// Dict-less compress requests rotate round-robin, so with all shards
/// healthy every backend sees traffic, and a routed compress equals the
/// oracle's bytes regardless of which shard served it.
#[test]
fn round_robin_compress_spreads_and_matches_oracle() {
    let (engines, servers, addrs) = backends(3);
    let oracle = selftest::new_engine();
    let router = Router::new(&addrs, ClusterConfig::default());

    let text: Vec<u8> = (0..900u32).map(|i| b'a' + (i % 3) as u8).collect();
    for _ in 0..6 {
        let routed = router.op(pardict::service::wire::tag::COMPRESS, "", &text, 0);
        let oracle_resp = oracle.call(Request::new(OpRequest::Compress { text: text.clone() }));
        match (&routed.result, &oracle_resp.result) {
            (
                Ok(pardict::service::wire::WireResponse::Compressed { payload, .. }),
                Ok(Reply::Compress { payload: want, .. }),
            ) => assert_eq!(payload, want),
            other => panic!("unexpected compress outcome: {other:?}"),
        }
        assert!(!routed.degraded);
    }
    for (id, shard) in router.metrics().per_shard.iter().enumerate() {
        assert!(
            shard.ok.get() >= 2,
            "round-robin skipped shard {id}: {} ok",
            shard.ok.get()
        );
    }

    router.shutdown();
    teardown(engines, servers);
    oracle.shutdown();
}

/// An unknown dictionary comes back as the service's own error through
/// the router, not as a transport failure or a panic.
#[test]
fn unknown_dictionary_is_an_app_error_not_a_failover() {
    let (engines, servers, addrs) = backends(2);
    let router = Router::new(&addrs, ClusterConfig::default());

    let routed = router.op(pardict::service::wire::tag::MATCH, "nope", b"abc", 0);
    match routed.result {
        Err(ClusterError::Service(ServiceError::NoSuchDictionary(msg))) => {
            // The wire decode keeps the rendered message, not the bare name.
            assert!(msg.contains("nope"), "unexpected message {msg:?}");
        }
        other => panic!("expected NoSuchDictionary, got {other:?}"),
    }
    assert!(!routed.degraded, "an app error is not degradation");
    for shard in &router.metrics().per_shard {
        assert_eq!(shard.deaths.get(), 0, "app errors must not kill shards");
    }

    router.shutdown();
    teardown(engines, servers);
}

/// Both wire fronts run the same frame loop, so hostile framing must read
/// the same through a single-node [`Server`] and a [`RouterServer`]: an
/// undecodable payload is answered `BadRequest` ("malformed request: …",
/// the prefix the router's link-poison detection matches on) and the
/// connection stays usable; an oversized length prefix drops only that
/// connection.
#[test]
fn both_fronts_treat_hostile_frames_alike() {
    use pardict::service::wire::{read_frame, write_frame, WireRequest, WireResponse, MAX_FRAME};
    use std::io::Write;
    use std::net::TcpStream;

    fn hostile_frames(front: SocketAddr) {
        let roundtrip = |conn: &mut TcpStream, payload: &[u8]| {
            write_frame(conn, payload).expect("write frame");
            let reply = read_frame(conn)
                .expect("read frame")
                .expect("a reply frame");
            WireResponse::decode(&reply).expect("decodable reply")
        };
        let mut conn = TcpStream::connect(front).expect("connect");
        match roundtrip(&mut conn, &[0xEE, 1, 2, 3]) {
            WireResponse::Error { code, message } => {
                assert_eq!(code, ServiceError::BadRequest(String::new()).code());
                assert!(message.starts_with("malformed request"), "{message}");
            }
            other => panic!("garbage payload answered {other:?}"),
        }
        let ping = WireRequest::Ping.encode();
        assert_eq!(roundtrip(&mut conn, &ping), WireResponse::Pong);

        conn.write_all(&(MAX_FRAME + 1).to_be_bytes())
            .expect("write oversized prefix");
        assert!(
            !matches!(read_frame(&mut conn), Ok(Some(_))),
            "oversized frame must close the connection unanswered"
        );
        let mut fresh = TcpStream::connect(front).expect("reconnect");
        assert_eq!(roundtrip(&mut fresh, &ping), WireResponse::Pong);
    }

    let (engines, servers, addrs) = backends(1);
    hostile_frames(addrs[0]);

    let router = Arc::new(Router::new(&addrs, ClusterConfig::default()));
    let mut front =
        pardict::cluster::RouterServer::start(Arc::clone(&router), "127.0.0.1:0").expect("front");
    hostile_frames(front.addr());

    front.stop();
    router.shutdown();
    teardown(engines, servers);
}
