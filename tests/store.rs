//! Persistence tier: the WAL/snapshot codecs under fuzz, and the
//! crash-recovery contract through the public `pardict::store` surface.
//!
//! The codec properties mirror the container tier's: decoding is total
//! over arbitrary bytes (never a panic, never a giant allocation), and
//! encode∘decode is the identity for every record type. The integration
//! tests then exercise the directory-level contract — publish → reopen
//! → identical state; torn tails dropped, reported, and repaired;
//! compaction folding the WAL into a snapshot that replay skips.

use pardict::store::record::{decode_record_at, encode_record, encode_wal_header};
use pardict::store::{
    decode_snapshot, encode_snapshot, scan_wal, DictState, SnapshotDict, Store, StoreConfig,
    WalRecord, WAL_FILE,
};
use proptest::prelude::*;

fn nosync() -> StoreConfig {
    StoreConfig {
        snapshot_every: 0,
        sync: false,
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pardict-store-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Arbitrary dictionary names: any UTF-8, including empty and
/// multi-byte code points (the vendored proptest has no string
/// strategies, so map raw code points; surrogates fold to U+FFFD).
fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..8).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}'))
            .collect()
    })
}

/// A generator covering every record kind with arbitrary names and
/// arbitrary pattern bytes (NULs included).
fn arb_record() -> impl Strategy<Value = WalRecord> {
    let publish = (
        arb_name(),
        any::<u64>(),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..20), 0..6),
    )
        .prop_map(|(name, version, patterns)| WalRecord::Publish {
            name,
            version,
            patterns,
        });
    let retire = arb_name().prop_map(|name| WalRecord::Retire { name });
    let delta = (
        arb_name(),
        any::<u64>(),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..20), 0..4),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..20), 0..4),
    )
        .prop_map(|(name, version, adds, removes)| WalRecord::Delta {
            name,
            version,
            adds,
            removes,
        });
    prop_oneof![publish, retire, delta]
}

proptest! {
    /// `scan_wal` is total: arbitrary bytes never panic, and the scan's
    /// own geometry is consistent — the valid end never exceeds the
    /// file, and a reported torn tail accounts for every byte after it.
    #[test]
    fn scan_wal_is_total_over_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let scan = scan_wal(&bytes);
        prop_assert!(scan.valid_end() <= bytes.len() as u64);
        if let Some(t) = &scan.torn {
            prop_assert_eq!(t.offset + t.dropped_bytes, bytes.len() as u64);
            prop_assert!(t.dropped_bytes > 0);
        }
        if scan.header_issue.is_some() {
            prop_assert!(scan.records.is_empty());
            prop_assert_eq!(scan.valid_end(), 0);
        }
        // Rescanning the trusted prefix must be clean and identical —
        // recovery truncates to valid_end and relies on exactly this.
        if scan.header_issue.is_none() && scan.valid_end() > 0 {
            let again = scan_wal(&bytes[..scan.valid_end() as usize]);
            prop_assert!(again.torn.is_none());
            prop_assert_eq!(again.records, scan.records);
        }
    }

    /// encode∘decode is the identity for every record type, both one
    /// frame at a time and through a whole-log scan.
    #[test]
    fn wal_records_roundtrip(
        records in prop::collection::vec((any::<u64>(), arb_record()), 0..8),
    ) {
        let mut log = encode_wal_header(7);
        let mut offsets = Vec::new();
        for (seq, record) in &records {
            offsets.push(log.len());
            log.extend_from_slice(&encode_record(*seq, record).unwrap());
        }

        // Frame-at-a-time decode.
        for ((seq, record), off) in records.iter().zip(&offsets) {
            let (got_seq, got, _) = decode_record_at(&log, *off).unwrap();
            prop_assert_eq!(got_seq, *seq);
            prop_assert_eq!(&got, record);
        }

        // Whole-log scan: same records, same order, clean tail.
        let scan = scan_wal(&log);
        prop_assert!(scan.header_issue.is_none());
        prop_assert!(scan.torn.is_none());
        prop_assert_eq!(scan.generation, 7);
        prop_assert_eq!(scan.records.len(), records.len());
        for (scanned, (seq, record)) in scan.records.iter().zip(&records) {
            prop_assert_eq!(scanned.seq, *seq);
            prop_assert_eq!(&scanned.record, record);
        }
        prop_assert_eq!(scan.valid_end(), log.len() as u64);
    }

    /// Snapshot encode∘decode is the identity, and any strict prefix of
    /// a valid snapshot is rejected (all-or-nothing, unlike the WAL).
    #[test]
    fn snapshots_roundtrip_and_reject_truncation(
        last_seq in any::<u64>(),
        dicts in prop::collection::vec(
            (arb_name(), any::<u64>(),
             prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..4)),
            0..5,
        ),
        cut_frac in 0usize..10_000,
    ) {
        let dicts: Vec<SnapshotDict> = dicts
            .into_iter()
            .map(|(name, version, patterns)| SnapshotDict { name, version, patterns })
            .collect();
        let bytes = encode_snapshot(last_seq, &dicts).unwrap();
        let (got_seq, got) = decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(got_seq, last_seq);
        prop_assert_eq!(got, dicts);

        let cut = cut_frac % bytes.len(); // strictly shorter than full
        prop_assert!(decode_snapshot(&bytes[..cut]).is_err());
    }

    /// Chopping a valid WAL anywhere inside a record yields exactly the
    /// records before the cut — the torn-tail contract at every byte.
    #[test]
    fn wal_truncation_yields_the_intact_prefix(
        n_records in 1usize..6,
        cut_frac in 0usize..10_000,
    ) {
        let mut log = encode_wal_header(0);
        let mut ends = vec![log.len()];
        for i in 0..n_records {
            let rec = WalRecord::Publish {
                name: format!("d{i}"),
                version: i as u64,
                patterns: vec![vec![b'a'; i + 1]],
            };
            log.extend_from_slice(&encode_record(i as u64 + 1, &rec).unwrap());
            ends.push(log.len());
        }
        let cut = cut_frac % log.len();
        let scan = scan_wal(&log[..cut]);
        let expect_intact = ends.iter().filter(|&&e| e <= cut && e > ends[0]).count();
        if cut < ends[0] {
            prop_assert!(scan.header_issue.is_some());
        } else {
            prop_assert_eq!(scan.records.len(), expect_intact);
            prop_assert_eq!(scan.torn.is_some(), ends.iter().all(|&e| e != cut));
        }
    }
}

/// Publish, retire, republish; drop; reopen: the recovered state is the
/// exact map the writer last held, reported clean.
#[test]
fn reopen_restores_the_exact_state() {
    let dir = scratch("reopen");
    {
        let mut s = Store::open(&dir, nosync()).unwrap();
        s.log_publish("alpha", 1, &[b"he".to_vec(), b"she".to_vec()])
            .unwrap();
        s.log_publish("beta", 1, &[b"hers".to_vec()]).unwrap();
        s.log_retire("alpha").unwrap();
        s.log_publish("alpha", 2, &[b"his".to_vec()]).unwrap();
    }
    let s = Store::open(&dir, nosync()).unwrap();
    assert!(s.recovery().is_clean());
    assert_eq!(s.recovery().wal_replayed, 4);
    let state: Vec<(&str, &DictState)> = s.dicts().collect();
    assert_eq!(
        state,
        vec![
            (
                "alpha",
                &DictState {
                    version: 2,
                    patterns: vec![b"his".to_vec()]
                }
            ),
            (
                "beta",
                &DictState {
                    version: 1,
                    patterns: vec![b"hers".to_vec()]
                }
            ),
        ]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn final record is dropped and reported once, the intact prefix
/// survives, and the repair is durable: the next open is clean.
#[test]
fn torn_tail_is_dropped_reported_and_repaired() {
    let dir = scratch("torn");
    {
        let mut s = Store::open(&dir, nosync()).unwrap();
        s.log_publish("keep", 1, &[b"abc".to_vec()]).unwrap();
        s.log_publish("lost", 1, &[b"def".to_vec()]).unwrap();
    }
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::File::options()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 2)
        .unwrap();

    let s = Store::open(&dir, nosync()).unwrap();
    let torn = s.recovery().torn.as_ref().expect("tail must be reported");
    assert!(torn.dropped_bytes > 0);
    assert_eq!(s.recovery().wal_replayed, 1);
    assert!(s.dicts().any(|(n, _)| n == "keep"));
    assert!(!s.dicts().any(|(n, _)| n == "lost"));
    drop(s);

    let s = Store::open(&dir, nosync()).unwrap();
    assert!(s.recovery().is_clean(), "{:?}", s.recovery());
    assert_eq!(s.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compaction folds the WAL into the snapshot: recovery loads the
/// snapshot, replays only post-snapshot appends, and appends keep
/// working across the generation bump.
#[test]
fn compaction_then_recovery_replays_only_the_tail() {
    let dir = scratch("compact");
    {
        let mut s = Store::open(&dir, nosync()).unwrap();
        for i in 0..5 {
            s.log_publish(&format!("d{i}"), 1, &[vec![b'a' + i as u8]])
                .unwrap();
        }
        s.compact().unwrap();
        s.log_publish("post", 1, &[b"zz".to_vec()]).unwrap();
    }
    let s = Store::open(&dir, nosync()).unwrap();
    let r = s.recovery();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.snapshot_dicts, 5);
    assert_eq!(r.wal_replayed, 1, "only the post-compaction append");
    assert_eq!(r.wal_skipped, 0);
    assert_eq!(r.recovered_dicts, 6);
    assert_eq!(r.wal_generation, 1, "compaction bumps the generation");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `snapshot_every` compacts automatically, and acknowledged state keeps
/// surviving reopen no matter where the threshold lands.
#[test]
fn automatic_compaction_preserves_state() {
    let dir = scratch("auto");
    let cfg = StoreConfig {
        snapshot_every: 3,
        sync: false,
    };
    {
        let mut s = Store::open(&dir, cfg).unwrap();
        for i in 0..10 {
            s.log_publish(&format!("d{i}"), 1, &[vec![b'x'; i + 1]])
                .unwrap();
        }
    }
    let s = Store::open(&dir, cfg).unwrap();
    assert!(s.recovery().is_clean());
    assert_eq!(s.len(), 10);
    assert!(
        s.recovery().snapshot_dicts >= 3,
        "the threshold must have compacted at least once: {:?}",
        s.recovery()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Interleaved `Publish`/`Delta`/`Retire` history with a torn tail
/// mid-delta: replay folds every intact record in order — removes
/// first, then adds, version bumped — drops exactly the torn delta,
/// and the repair is durable.
#[test]
fn interleaved_deltas_recover_and_torn_delta_tail_is_dropped() {
    let dir = scratch("delta-interleave");
    {
        let mut s = Store::open(&dir, nosync()).unwrap();
        s.log_publish("alpha", 1, &[b"he".to_vec(), b"she".to_vec()])
            .unwrap();
        s.log_delta("alpha", 2, &[b"hers".to_vec()], &[b"he".to_vec()])
            .unwrap();
        s.log_publish("beta", 1, &[b"his".to_vec()]).unwrap();
        s.log_retire("alpha").unwrap();
        s.log_publish("alpha", 1, &[b"aa".to_vec()]).unwrap();
        s.log_delta("beta", 2, &[b"him".to_vec()], &[]).unwrap();
        // The record the tear lands in: acknowledged, then torn.
        s.log_delta("alpha", 2, &[b"bb".to_vec()], &[]).unwrap();
    }
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::File::options()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 2)
        .unwrap();

    let s = Store::open(&dir, nosync()).unwrap();
    let r = s.recovery();
    assert!(r.torn.is_some(), "{r:?}");
    assert_eq!(r.wal_replayed, 6, "{r:?}");
    assert_eq!(r.orphan_deltas, 0, "{r:?}");
    let state: Vec<(&str, &DictState)> = s.dicts().collect();
    assert_eq!(
        state,
        vec![
            (
                "alpha",
                // Retired and republished; the torn delta never lands.
                &DictState {
                    version: 1,
                    patterns: vec![b"aa".to_vec()]
                }
            ),
            (
                "beta",
                // Publish then delta: adds appended after the survivors.
                &DictState {
                    version: 2,
                    patterns: vec![b"his".to_vec(), b"him".to_vec()]
                }
            ),
        ]
    );
    drop(s);

    let s = Store::open(&dir, nosync()).unwrap();
    assert!(s.recovery().is_clean(), "{:?}", s.recovery());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compaction folds deltas away: the snapshot holds full folded pattern
/// sets (never delta records), recovery replays only post-compaction
/// appends, and the folded state matches applying the deltas in order.
#[test]
fn compaction_folds_deltas_into_full_snapshots() {
    let dir = scratch("delta-compact");
    {
        let mut s = Store::open(&dir, nosync()).unwrap();
        s.log_publish("d", 1, &[b"aa".to_vec(), b"bb".to_vec()])
            .unwrap();
        s.log_delta("d", 2, &[b"cc".to_vec()], &[b"aa".to_vec()])
            .unwrap();
        s.log_delta("d", 3, &[b"dd".to_vec()], &[]).unwrap();
        s.compact().unwrap();
        s.log_delta("d", 4, &[b"ee".to_vec()], &[b"bb".to_vec()])
            .unwrap();
    }
    // The snapshot on disk decodes to the folded set — no delta records.
    let snap_bytes = std::fs::read(dir.join(pardict::store::SNAPSHOT_FILE)).unwrap();
    let (_, snap_dicts) = decode_snapshot(&snap_bytes).unwrap();
    assert_eq!(snap_dicts.len(), 1);
    assert_eq!(snap_dicts[0].version, 3);
    assert_eq!(
        snap_dicts[0].patterns,
        vec![b"bb".to_vec(), b"cc".to_vec(), b"dd".to_vec()]
    );

    let s = Store::open(&dir, nosync()).unwrap();
    let r = s.recovery();
    assert!(r.is_clean(), "{r:?}");
    assert_eq!(r.snapshot_dicts, 1);
    assert_eq!(r.wal_replayed, 1, "only the post-compaction delta");
    assert_eq!(r.orphan_deltas, 0);
    let state: Vec<(&str, &DictState)> = s.dicts().collect();
    assert_eq!(
        state,
        vec![(
            "d",
            &DictState {
                version: 4,
                patterns: vec![b"cc".to_vec(), b"dd".to_vec(), b"ee".to_vec()]
            }
        )]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A hand-built "snapshot" smuggling a delta record is rejected whole —
/// compaction always writes folded publishes, so a delta inside one
/// means the file is not ours.
#[test]
fn snapshot_decode_rejects_delta_records() {
    let rec = WalRecord::Delta {
        name: "d".into(),
        version: 2,
        adds: vec![b"x".to_vec()],
        removes: vec![],
    };
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"PDSN");
    bytes.push(1); // STORE_VERSION
    bytes.extend_from_slice(&[0, 0, 0]);
    bytes.extend_from_slice(&9u64.to_le_bytes()); // last_seq
    bytes.extend_from_slice(&1u32.to_le_bytes()); // count
    bytes.extend_from_slice(&encode_record(0, &rec).unwrap());
    bytes.extend_from_slice(&1u64.to_le_bytes()); // trailer count
    let crc = pardict::core::crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes.extend_from_slice(b"NSDP");
    let err = decode_snapshot(&bytes).unwrap_err();
    assert!(err.contains("delta record in snapshot"), "{err}");
}

/// WAL bytes appended for a delta are proportional to the delta, not
/// the dictionary: delta-publishing one pattern into a large dictionary
/// must cost a small fixed number of framed bytes, far below a full
/// republish of the same state.
#[test]
fn delta_wal_bytes_are_proportional_to_the_delta() {
    let dir = scratch("delta-bytes");
    let patterns: Vec<Vec<u8>> = (0..2000)
        .map(|i| format!("pat{i:04}").into_bytes())
        .collect();
    let mut s = Store::open(&dir, nosync()).unwrap();
    s.log_publish("big", 1, &patterns).unwrap();
    let full = s.appended_bytes();
    s.log_delta("big", 2, &[b"tiny".to_vec()], &[]).unwrap();
    let delta = s.appended_bytes() - full;
    assert!(
        delta * 100 < full,
        "one-pattern delta appended {delta} bytes vs {full} for the full publish"
    );
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}
