//! Codec tier: one totality harness for every length-prefixed codec in
//! the stack (wire requests and responses, WAL records, snapshots), plus
//! golden bytes that pin each format.
//!
//! All four codecs decode through `pardict::core::bytes::Reader`, the one
//! place an untrusted length or count is interpreted, so they owe the same
//! contract and [`assert_codec_is_total`] states it once. Assertions that
//! are specific to one decoder (the WAL scanner's torn-tail geometry, the
//! allocation bound on decoded collections) stay in `tests/store.rs` and
//! `tests/service.rs`.

use pardict::core::crc32;
use pardict::pram::SplitMix64;
use pardict::service::wire::{tag, WireRequest, WireResponse};
use pardict::service::{Hit, Metrics, OpKind};
use pardict::store::record::{decode_record_at, encode_record};
use pardict::store::{decode_snapshot, encode_snapshot, SnapshotDict, WalRecord};
use std::fmt::{Debug, Display};

/// One valid value plus the byte offsets, within its encoding, of every
/// `u32` element-count field.
struct Sample<T> {
    value: T,
    counts: Vec<usize>,
}

/// The contract of a codec over untrusted bytes:
///
/// 1. `decode(encode(x)) == x`;
/// 2. every strict prefix of `encode(x)` is an `Err`;
/// 3. every single-byte mutation of `encode(x)` decodes to `Ok` or `Err`,
///    never a panic — and anything that decodes re-encodes to an equal
///    value (decode ∘ encode is the identity on decode's image);
/// 4. inflating any count field to `u32::MAX` is an `Err`;
/// 5. arbitrary bytes obey law 3 too.
///
/// Checksummed formats pass `reseal`, which recomputes the checksum after
/// a mutation so laws 3–5 also reach the decoder *behind* the checksum
/// (mutations are tried both raw and resealed). Every `Err` must carry a
/// non-empty reason.
fn assert_codec_is_total<T, E>(
    samples: &[Sample<T>],
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    reseal: impl Fn(&mut [u8]),
) where
    T: PartialEq + Debug,
    E: Display,
{
    let survives = |bytes: &[u8]| match decode(bytes) {
        Ok(y) => match decode(&encode(&y)) {
            Ok(again) => assert_eq!(again, y, "re-encode changed a decoded value"),
            Err(e) => panic!("decoded {y:?} but its re-encoding was refused: {e}"),
        },
        Err(e) => assert!(!e.to_string().is_empty(), "error without a reason"),
    };
    for Sample { value, counts } in samples {
        let good = encode(value);
        match decode(&good) {
            Ok(back) => assert_eq!(&back, value),
            Err(e) => panic!("valid encoding of {value:?} refused: {e}"),
        }
        for cut in 0..good.len() {
            assert!(
                decode(&good[..cut]).is_err(),
                "{cut}-byte prefix of {value:?} decoded"
            );
        }
        for at in 0..good.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                survives(&bad);
                reseal(&mut bad);
                survives(&bad);
            }
        }
        for &at in counts {
            let mut bad = good.clone();
            bad[at..at + 4].fill(0xFF);
            reseal(&mut bad);
            assert!(
                decode(&bad).is_err(),
                "inflated count at byte {at} of {value:?} decoded"
            );
        }
    }
    let mut rng = SplitMix64::new(0xC0DEC);
    for _ in 0..512 {
        let len = rng.next_below(400) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        survives(&bytes);
        reseal(&mut bytes);
        survives(&bytes);
    }
}

fn pats(items: &[&[u8]]) -> Vec<Vec<u8>> {
    items.iter().map(|p| p.to_vec()).collect()
}

fn pub_delta() -> WireRequest {
    WireRequest::PubDelta {
        name: "corpus".into(),
        parent_version: 3,
        adds: pats(&[b"new", b"er"]),
        removes: pats(&[b"ana"]),
    }
}

fn stats_reply() -> WireResponse {
    let m = Metrics::default();
    m.submitted.add(9);
    m.completed.add(9);
    m.publishes.add(2);
    m.cache_misses.add(2);
    let op = m.op(OpKind::Match);
    op.count.add(9);
    for v in [3u64, 120, 121, 4096] {
        op.latency_us.record(v);
        op.work.record(v * 7);
    }
    WireResponse::Stats(m.snapshot())
}

#[test]
fn wire_request_codec_is_total() {
    let samples = vec![
        Sample {
            value: WireRequest::Publish {
                name: "d".into(),
                patterns: pats(&[b"ana", b"ban", b"x"]),
            },
            counts: vec![6],
        },
        Sample {
            // name at 1..11, parent at 11..19, adds count at 19; the adds
            // list is 4 + (4+3) + (4+2) bytes, so removes count at 36.
            value: pub_delta(),
            counts: vec![19, 36],
        },
        Sample {
            value: WireRequest::Op {
                tag: tag::GREPZ,
                dict: "corpus".into(),
                text: vec![0x50, 0x44, 0x5A, 0x53, 0x00, 0xFF],
                timeout_ms: 250,
            },
            counts: vec![],
        },
        Sample {
            value: WireRequest::Traced {
                trace: 0xDEAD_BEEF_0123_4567,
                parent: 0x0BAD_F00D,
                inner: Box::new(WireRequest::Publish {
                    name: "d".into(),
                    patterns: pats(&[b"q"]),
                }),
            },
            counts: vec![17 + 6],
        },
        Sample {
            value: WireRequest::Hello { extensions: 3 },
            counts: vec![],
        },
        Sample {
            value: WireRequest::Ping,
            counts: vec![],
        },
    ];
    assert_codec_is_total(&samples, WireRequest::encode, WireRequest::decode, |_| {});
}

#[test]
fn wire_response_codec_is_total() {
    let hit = |pos| Hit { pos, id: 2, len: 5 };
    let samples = vec![
        Sample {
            value: WireResponse::Hits {
                version: 2,
                hits: vec![hit(0), hit(9)],
            },
            counts: vec![10],
        },
        Sample {
            // hits count at 10, two 16-byte hits, corrupt-block count at 46.
            value: WireResponse::ContainerHits {
                version: 3,
                hits: vec![hit(70_000), hit(70_001)],
                corrupt_blocks: vec![1, 4],
            },
            counts: vec![10, 46],
        },
        Sample {
            value: WireResponse::ClusterHits {
                version: 5,
                degraded: true,
                shards: 3,
                hits: vec![hit(11)],
                corrupt_blocks: vec![0],
            },
            counts: vec![15, 35],
        },
        Sample {
            value: WireResponse::DictList(vec![
                ("alpha".into(), 3, 0xDEAD_BEEF),
                ("beta".into(), 1, 42),
            ]),
            counts: vec![2],
        },
        Sample {
            // 16 counters, then the per-op count; the first op's latency
            // histogram (count, errors, then count/sum/max) puts its bucket
            // count 40 bytes further on.
            value: stats_reply(),
            counts: vec![2 + 16 * 8, 2 + 16 * 8 + 4 + 40],
        },
        Sample {
            value: WireResponse::Compressed {
                payload: vec![1, 2, 3],
                phrases: 3,
            },
            counts: vec![],
        },
        Sample {
            value: WireResponse::Error {
                code: 4,
                message: "no such dictionary".into(),
            },
            counts: vec![],
        },
        Sample {
            value: WireResponse::Pong,
            counts: vec![],
        },
    ];
    assert_codec_is_total(&samples, WireResponse::encode, WireResponse::decode, |_| {});
}

const WAL_FRAME: usize = 17;

fn wal_samples() -> Vec<Sample<WalRecord>> {
    vec![
        Sample {
            // Payload: name (4+1), version (8), then the pattern count.
            value: WalRecord::Publish {
                name: "d".into(),
                version: 7,
                patterns: pats(&[b"ana", b"\x00\xFF", b""]),
            },
            counts: vec![WAL_FRAME + 13],
        },
        Sample {
            value: WalRecord::Retire {
                name: "naïve".into(),
            },
            counts: vec![],
        },
        Sample {
            // adds list is 4 + (4+2) bytes, so the removes count sits 10 on.
            value: WalRecord::Delta {
                name: "d".into(),
                version: 8,
                adds: pats(&[b"zz"]),
                removes: pats(&[b"ana", b"q"]),
            },
            counts: vec![WAL_FRAME + 13, WAL_FRAME + 23],
        },
    ]
}

/// Recompute a WAL frame's CRC (`kind · seq · payload`) in place.
fn reseal_wal_frame(bytes: &mut [u8]) {
    if bytes.len() >= WAL_FRAME {
        let mut covered = bytes[..9].to_vec();
        covered.extend_from_slice(&bytes[WAL_FRAME..]);
        bytes[13..17].copy_from_slice(&crc32(&covered).to_le_bytes());
    }
}

#[test]
fn wal_record_codec_is_total() {
    assert_codec_is_total(
        &wal_samples(),
        |r| encode_record(7, r).expect("under the record cap"),
        |bytes| match decode_record_at(bytes, 0)? {
            (7, record, len) if len == bytes.len() => Ok(record),
            (seq, _, len) => Err(format!("seq {seq}, {len} of {} bytes", bytes.len())),
        },
        reseal_wal_frame,
    );
}

fn two_dicts() -> Vec<SnapshotDict> {
    vec![
        SnapshotDict {
            name: "alpha".into(),
            version: 3,
            patterns: pats(&[b"he", b"she", b"hers"]),
        },
        SnapshotDict {
            name: "beta".into(),
            version: 1,
            patterns: pats(&[b"\x01\x02"]),
        },
    ]
}

#[test]
fn snapshot_codec_is_total() {
    let samples = vec![
        Sample {
            // Entry count at 16; the first entry's frame starts at 20, so
            // its pattern count is 17 + (4+5) + 8 bytes further on.
            value: (41u64, two_dicts()),
            counts: vec![16, 20 + WAL_FRAME + 17],
        },
        Sample {
            value: (0u64, Vec::new()),
            counts: vec![16],
        },
    ];
    assert_codec_is_total(
        &samples,
        |(seq, dicts)| encode_snapshot(*seq, dicts).expect("under the record cap"),
        decode_snapshot,
        |bytes: &mut [u8]| {
            // Trailer: count u64 · crc32 u32 · magic; the CRC covers
            // everything before it. An inner entry's frame CRC is left
            // stale, so resealed mutations inside an entry stop there.
            if let Some(crc_at) = bytes.len().checked_sub(8) {
                let crc = crc32(&bytes[..crc_at]);
                bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
            }
        },
    );
}

// ---- golden bytes ----
//
// Captured from the commit before the codecs moved onto `core::bytes`
// (fb530af): "the formats did not change" is asserted, not inferred.

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn wal_records_match_golden_bytes() {
    let got: Vec<String> = wal_samples()
        .iter()
        .map(|s| hex(&encode_record(7, &s.value).expect("under the record cap")))
        .collect();
    let golden = [
        concat!(
            "01070000000000000022000000c7aee3d5010000006407000000000000000300000003000000616e",
            "610200000000ff00000000",
        ),
        "0207000000000000000a00000078954126060000006e61c3af7665",
        concat!(
            "030700000000000000270000009b035c990100000064080000000000000001000000020000007a7a",
            "0200000003000000616e610100000071",
        ),
    ];
    assert_eq!(got, golden);
}

#[test]
fn snapshot_matches_golden_bytes() {
    let got = hex(&encode_snapshot(41, &two_dicts()).expect("under the record cap"));
    let golden = concat!(
        "5044534e010000002900000000000000020000000100000000000000002a00000030bb8894050000",
        "00616c70686103000000000000000300000002000000686503000000736865040000006865727301",
        "00000000000000001a00000015c775e9040000006265746101000000000000000100000002000000",
        "01020200000000000000f75bf1df4e534450",
    );
    assert_eq!(got, golden);
}

#[test]
fn wire_payloads_match_golden_bytes() {
    let golden = concat!(
        "0d00000006636f72707573000000000000000300000002000000036e657700000002657200000001",
        "00000003616e61",
    );
    assert_eq!(hex(&pub_delta().encode()), golden);
    let golden = concat!(
        "80080000000000000009000000000000000900000000000000000000000000000000000000000000",
        "00020000000000000000000000000000000200000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000050000000000000009000000000000000000000000000000040000",
        "0000000010f40000000000001000000000030300000000000000010800000000000000020d000000",
        "0000000001000000000000000400000000000076ac00000000000070000000000306000000000000",
        "00010b00000000000000021000000000000000010000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000",
    );
    assert_eq!(hex(&stats_reply().encode()), golden);
}

/// Every content hash in the stack is one `pram::Fnv1a` (and one
/// SplitMix64 step where mixed), and every value is load-bearing: segment
/// seeds and cache keys, delta identities, rendezvous placement,
/// deterministic span ids. Goldens captured on the parent of the
/// unification (commit 68e06df), where each site spelled its own.
#[test]
fn content_hashes_match_goldens() {
    use pardict::core::segmented::{list_hash, multiset_identity, pattern_identity};
    use pardict::trace::{TraceConfig, Tracer};

    let pats: Vec<Vec<u8>> = ["he", "she", "hers", ""]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
    assert_eq!(list_hash(&pats), 0x67fb_a17b_241a_5a63);
    assert_eq!(list_hash(&[]), 0xcbf2_9ce4_8422_2325);
    assert_eq!(pattern_identity(b"hers"), 0x111d_7511_2514_af91);
    assert_eq!(multiset_identity(&pats), 0x6442_1c1d_6d08_02c3);

    let rankings: Vec<Vec<usize>> = ["d0", "d1", "d2", "d3"]
        .iter()
        .map(|k| pardict::cluster::shard::ranking(k, 3))
        .collect();
    assert_eq!(rankings, [[2, 0, 1], [0, 2, 1], [1, 2, 0], [1, 2, 0]]);

    let tracer = Tracer::new(TraceConfig {
        sample_one_in: 1,
        seed: 0x7ACE,
        capacity: 8,
        deterministic: true,
    });
    let ctx = tracer.begin_trace().expect("sampled");
    assert_eq!(ctx.trace.0, 0xcc22_dbf1_3a48_008b);
    assert_eq!(
        tracer.start(ctx, "search-wave", 3).id().0,
        0x598f_c3a7_987e_46df
    );
}
