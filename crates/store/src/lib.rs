#![warn(missing_docs)]

//! # pardict-store — crash-safe persistent dictionary state
//!
//! The paper's economics make dictionaries the artifact worth keeping:
//! preprocessing costs `O(d)` work once, and every subsequent match call
//! amortizes it (PAPER.md §3). This crate makes that investment survive
//! a crash: a write-ahead log of publish/retire records, periodically
//! folded into a compacted snapshot, with a recovery path that is total
//! over arbitrary bytes.
//!
//! ## On-disk layout
//!
//! ```text
//! data-dir/
//!   wal.log            "PDWL" header · CRC-framed records (appended, fsync'd)
//!   snapshot.pds       "PDSN" header · one record per live dict · "NSDP" trailer
//!   snapshot.pds.tmp   transient; only exists mid-compaction
//! ```
//!
//! ## The contract
//!
//! * **Durability before acknowledgement** — [`Store::log_publish`]
//!   returns only after the record is written and (by default) fsync'd,
//!   so a caller that acknowledges afterwards can honour that
//!   acknowledgement across a crash.
//! * **Atomic snapshots** — compaction writes the whole snapshot to
//!   `snapshot.pds.tmp`, fsyncs, then atomically renames it over
//!   `snapshot.pds`; the WAL is reset only after the rename, and replay
//!   skips records the snapshot already covers (by sequence number), so
//!   every crash point leaves a recoverable directory.
//! * **Torn tails are dropped and reported, never trusted** — recovery
//!   replays snapshot + WAL tail; the first record that fails its frame
//!   or CRC ends the log, and everything after it is truncated away and
//!   described in the [`RecoveryReport`] — the same skip-and-report
//!   discipline `pardict-stream` applies to corrupt blocks, lifted to
//!   the log level.

pub mod error;
pub mod record;
pub mod snapshot;

pub use error::StoreError;
pub use record::{
    scan_wal, ScannedRecord, TornTail, WalRecord, WalScan, KIND_DELTA, KIND_PUBLISH, KIND_RETIRE,
};
pub use snapshot::{decode_snapshot, encode_snapshot, SnapshotDict};

use pardict_exec::pardict_trace;
use record::encode_wal_header;
use std::collections::{BTreeMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// WAL file name inside the data directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.pds";
/// Transient snapshot temp name; present only mid-compaction.
pub const SNAPSHOT_TMP: &str = "snapshot.pds.tmp";

/// Tunables for a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Compact once this many records sit in the WAL (0 = never
    /// automatically; [`Store::compact`] still works).
    pub snapshot_every: u64,
    /// fsync after every append and compaction step. On by default —
    /// turning it off trades the durability contract for speed and is
    /// only meant for benches.
    pub sync: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            snapshot_every: 64,
            sync: true,
        }
    }
}

/// The live value a dictionary name maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictState {
    /// Version the registry assigned at the recorded publish.
    pub version: u64,
    /// The pattern set, in publish order.
    pub patterns: Vec<Vec<u8>>,
}

/// What recovery found and what it refused to trust. Everything here is
/// derived deterministically from the directory's bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Dictionaries loaded from the snapshot.
    pub snapshot_dicts: u64,
    /// Sequence number the snapshot covers through.
    pub snapshot_last_seq: u64,
    /// Why the snapshot was rejected, if it was (recovery then replays
    /// the WAL from an empty state).
    pub snapshot_issue: Option<String>,
    /// A `snapshot.pds.tmp` from a crashed compaction was deleted.
    pub stale_temp_removed: bool,
    /// WAL generation (bumped at each compaction).
    pub wal_generation: u64,
    /// WAL records applied on top of the snapshot — the snapshot's age
    /// in records.
    pub wal_replayed: u64,
    /// WAL records skipped because the snapshot already covered their
    /// sequence numbers (a crash landed between rename and WAL reset).
    pub wal_skipped: u64,
    /// Delta records whose dictionary did not exist at replay time —
    /// dropped and counted, never applied (a delta against nothing has
    /// no defined result; this can only happen to adversarial or
    /// hand-edited logs, since the writer orders records).
    pub orphan_deltas: u64,
    /// The untrusted WAL suffix that was dropped, if any.
    pub torn: Option<TornTail>,
    /// Dictionaries live after recovery.
    pub recovered_dicts: u64,
}

impl RecoveryReport {
    /// True when nothing had to be dropped: no torn tail and no rejected
    /// snapshot. A removed stale temp file still counts as clean — it is
    /// the expected residue of a crash during compaction, not data loss.
    pub fn is_clean(&self) -> bool {
        self.torn.is_none() && self.snapshot_issue.is_none()
    }
}

/// A crash-safe dictionary store: in-memory map mirrored by WAL +
/// snapshot in one data directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: File,
    state: BTreeMap<String, DictState>,
    next_seq: u64,
    generation: u64,
    since_snapshot: u64,
    appended_bytes: u64,
    cfg: StoreConfig,
    report: RecoveryReport,
}

/// Apply one record to the in-memory map. Returns `false` only for an
/// orphaned delta (no live dictionary to apply it to), which is dropped.
fn apply(state: &mut BTreeMap<String, DictState>, record: &WalRecord) -> bool {
    match record {
        WalRecord::Publish {
            name,
            version,
            patterns,
        } => {
            state.insert(
                name.clone(),
                DictState {
                    version: *version,
                    patterns: patterns.clone(),
                },
            );
            true
        }
        WalRecord::Retire { name } => {
            state.remove(name);
            true
        }
        WalRecord::Delta {
            name,
            version,
            adds,
            removes,
        } => match state.get_mut(name) {
            Some(d) => {
                // Same semantics as the registry: removes drop every
                // occurrence of each value, then adds append in order.
                // Total: a remove that matches nothing is ignored.
                let gone: HashSet<&[u8]> = removes.iter().map(Vec::as_slice).collect();
                d.patterns.retain(|p| !gone.contains(p.as_slice()));
                d.patterns.extend(adds.iter().cloned());
                d.version = *version;
                true
            }
            None => false,
        },
    }
}

impl Store {
    /// Open (creating if needed) the store in `dir` and recover its
    /// state. Total over directory contents: damaged files shrink to
    /// what can be trusted and the rest lands in [`Store::recovery`];
    /// only environmental failures (not a directory, disk errors)
    /// return `Err`.
    pub fn open(dir: impl AsRef<Path>, cfg: StoreConfig) -> Result<Store, StoreError> {
        // Recovery section (inert unless the caller installed an ambient
        // trace scope); recorded on every exit path when it drops.
        let _span = pardict_trace::scoped_span("store-recover", 0);
        let dir = dir.as_ref().to_path_buf();
        match fs::metadata(&dir) {
            Ok(m) if !m.is_dir() => return Err(StoreError::NotADirectory(dir)),
            Ok(_) => {}
            Err(_) => fs::create_dir_all(&dir)?,
        }
        let mut report = RecoveryReport::default();

        let tmp = dir.join(SNAPSHOT_TMP);
        if tmp.exists() {
            fs::remove_file(&tmp)?;
            report.stale_temp_removed = true;
        }

        let mut state = BTreeMap::new();
        let mut last_seq = 0u64;
        if let Ok(bytes) = fs::read(dir.join(SNAPSHOT_FILE)) {
            match decode_snapshot(&bytes) {
                Ok((seq, dicts)) => {
                    last_seq = seq;
                    report.snapshot_last_seq = seq;
                    report.snapshot_dicts = dicts.len() as u64;
                    for d in dicts {
                        state.insert(
                            d.name,
                            DictState {
                                version: d.version,
                                patterns: d.patterns,
                            },
                        );
                    }
                }
                Err(reason) => report.snapshot_issue = Some(reason),
            }
        }

        let wal_path = dir.join(WAL_FILE);
        let mut next_seq = last_seq + 1;
        let mut generation = 0u64;
        let mut since_snapshot = 0u64;
        let wal = match fs::read(&wal_path) {
            Ok(bytes) => {
                let scan = scan_wal(&bytes);
                if let Some(issue) = scan.header_issue {
                    // The header itself is untrusted, so the whole file
                    // is: report it as a tail torn at offset 0 and start
                    // a fresh log (snapshot state, if any, survives).
                    report.torn = Some(TornTail {
                        offset: 0,
                        dropped_bytes: bytes.len() as u64,
                        reason: format!("wal header: {issue}"),
                    });
                    let mut f = OpenOptions::new()
                        .write(true)
                        .truncate(true)
                        .open(&wal_path)?;
                    f.write_all(&encode_wal_header(0))?;
                    if cfg.sync {
                        f.sync_data()?;
                    }
                    f
                } else {
                    generation = scan.generation;
                    for r in &scan.records {
                        if r.seq <= last_seq {
                            report.wal_skipped += 1;
                        } else {
                            if !apply(&mut state, &r.record) {
                                report.orphan_deltas += 1;
                            }
                            report.wal_replayed += 1;
                        }
                        next_seq = next_seq.max(r.seq + 1);
                        since_snapshot += 1;
                        // (appended_bytes counts this process's appends
                        // only; replayed records predate the open.)
                    }
                    report.torn = scan.torn.clone();
                    let valid_end = scan.valid_end();
                    let mut f = OpenOptions::new().read(true).write(true).open(&wal_path)?;
                    if bytes.len() as u64 != valid_end {
                        f.set_len(valid_end)?;
                        if cfg.sync {
                            f.sync_data()?;
                        }
                    }
                    f.seek(SeekFrom::End(0))?;
                    f
                }
            }
            Err(_) => {
                let mut f = OpenOptions::new()
                    .create(true)
                    .write(true)
                    .truncate(true)
                    .open(&wal_path)?;
                f.write_all(&encode_wal_header(0))?;
                if cfg.sync {
                    f.sync_data()?;
                }
                f
            }
        };
        report.wal_generation = generation;
        report.recovered_dicts = state.len() as u64;

        Ok(Store {
            dir,
            wal,
            state,
            next_seq,
            generation,
            since_snapshot,
            appended_bytes: 0,
            cfg,
            report,
        })
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// The data directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live dictionaries.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True when no dictionaries are live.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Live dictionaries, sorted by name.
    pub fn dicts(&self) -> impl Iterator<Item = (&str, &DictState)> {
        self.state.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Look up one dictionary's persisted state.
    pub fn get(&self, name: &str) -> Option<&DictState> {
        self.state.get(name)
    }

    /// Sequence number the next append will carry.
    #[cfg(test)]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records currently sitting in the WAL (resets at compaction).
    pub fn since_snapshot(&self) -> u64 {
        self.since_snapshot
    }

    /// Total framed bytes this store has appended to the WAL since it
    /// was opened (not reset by compaction). The bench uses this to show
    /// delta records cost bytes proportional to the delta, not the
    /// dictionary.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    fn append(&mut self, record: WalRecord) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        let framed =
            record::encode_record(seq, &record).ok_or_else(|| StoreError::RecordTooLarge {
                name: record.name().to_string(),
                len: usize::MAX,
            })?;
        self.wal.write_all(&framed)?;
        if self.cfg.sync {
            self.wal.sync_data()?;
        }
        self.next_seq += 1;
        self.since_snapshot += 1;
        self.appended_bytes += framed.len() as u64;
        let applied = apply(&mut self.state, &record);
        debug_assert!(applied, "caller must not log a delta for a dead name");
        if self.cfg.snapshot_every > 0 && self.since_snapshot >= self.cfg.snapshot_every {
            self.compact()?;
        }
        Ok(seq)
    }

    /// Durably record a publish. Returns its sequence number only after
    /// the record is on disk (fsync'd unless [`StoreConfig::sync`] is
    /// off) — the caller may acknowledge afterwards.
    pub fn log_publish(
        &mut self,
        name: &str,
        version: u64,
        patterns: &[Vec<u8>],
    ) -> Result<u64, StoreError> {
        self.append(WalRecord::Publish {
            name: name.to_string(),
            version,
            patterns: patterns.to_vec(),
        })
    }

    /// Durably record a retire.
    pub fn log_retire(&mut self, name: &str) -> Result<u64, StoreError> {
        self.append(WalRecord::Retire {
            name: name.to_string(),
        })
    }

    /// Durably record an incremental delta. The record costs bytes
    /// proportional to `adds` + `removes`, not the dictionary, and the
    /// in-memory mirror is updated with the same semantics the registry
    /// used (removes first — every occurrence — then adds appended).
    /// The caller must have validated the delta against a live
    /// dictionary; `version` is the version the result carries.
    pub fn log_delta(
        &mut self,
        name: &str,
        version: u64,
        adds: &[Vec<u8>],
        removes: &[Vec<u8>],
    ) -> Result<u64, StoreError> {
        self.append(WalRecord::Delta {
            name: name.to_string(),
            version,
            adds: adds.to_vec(),
            removes: removes.to_vec(),
        })
    }

    /// Fold the live map into a fresh snapshot and reset the WAL.
    /// Write-temp → fsync → atomic rename → WAL reset; a crash at any
    /// point leaves a directory [`Store::open`] recovers fully (the
    /// rename-before-reset window is covered by sequence-number skips).
    pub fn compact(&mut self) -> Result<(), StoreError> {
        // Compaction section, indexed by the generation being folded away.
        let _span = pardict_trace::scoped_span("store-compact", self.generation);
        let last_seq = self.next_seq - 1;
        let dicts: Vec<SnapshotDict> = self
            .state
            .iter()
            .map(|(name, d)| SnapshotDict {
                name: name.clone(),
                version: d.version,
                patterns: d.patterns.clone(),
            })
            .collect();
        let bytes =
            encode_snapshot(last_seq, &dicts).ok_or_else(|| StoreError::RecordTooLarge {
                name: "<snapshot>".to_string(),
                len: usize::MAX,
            })?;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            if self.cfg.sync {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        if self.cfg.sync {
            // Make the rename itself durable where the platform allows.
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        self.generation += 1;
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.write_all(&encode_wal_header(self.generation))?;
        if self.cfg.sync {
            self.wal.sync_data()?;
        }
        self.since_snapshot = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pardict-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn pats(n: u64) -> Vec<Vec<u8>> {
        vec![format!("pat{n}").into_bytes(), vec![b'x'; 3]]
    }

    fn nosync() -> StoreConfig {
        StoreConfig {
            snapshot_every: 0,
            sync: false,
        }
    }

    /// The replay fold as it was before it became one pass: every pattern
    /// compared with every remove. Kept verbatim as the oracle.
    fn replay_fold_remove_by_remove(
        patterns: &mut Vec<Vec<u8>>,
        adds: &[Vec<u8>],
        removes: &[Vec<u8>],
    ) {
        patterns.retain(|p| !removes.iter().any(|r| r == p));
        patterns.extend(adds.iter().cloned());
    }

    /// xorshift64: a draw below `k`.
    fn below(x: &mut u64, k: u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x % k
    }

    /// A word of 1–3 letters over `ab`, so that draws repeat.
    fn word(x: &mut u64) -> Vec<u8> {
        (0..=below(x, 3))
            .map(|_| b'a' + below(x, 2) as u8)
            .collect()
    }

    #[test]
    fn one_pass_replay_fold_equals_the_remove_by_remove_fold() {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..2000 {
            let parent: Vec<Vec<u8>> = (0..below(&mut x, 10)).map(|_| word(&mut x)).collect();
            // Present, repeated and overlapping removes from the parent,
            // missing ones from fresh words.
            let removes: Vec<Vec<u8>> = (0..below(&mut x, 6))
                .map(|_| match parent.len() as u64 {
                    0 => word(&mut x),
                    k if below(&mut x, 2) == 0 => parent[below(&mut x, k) as usize].clone(),
                    _ => word(&mut x),
                })
                .collect();
            let adds: Vec<Vec<u8>> = (0..below(&mut x, 3)).map(|_| word(&mut x)).collect();
            let mut state = BTreeMap::from([(
                "d".to_string(),
                DictState {
                    version: 1,
                    patterns: parent.clone(),
                },
            )]);
            let delta = WalRecord::Delta {
                name: "d".into(),
                version: 2,
                adds: adds.clone(),
                removes: removes.clone(),
            };
            assert!(apply(&mut state, &delta));
            let mut want = parent;
            replay_fold_remove_by_remove(&mut want, &adds, &removes);
            assert_eq!(state["d"].patterns, want, "{delta:?}");
        }
    }

    #[test]
    fn publish_retire_survive_reopen() {
        let dir = tmp_dir("reopen");
        {
            let mut s = Store::open(&dir, nosync()).unwrap();
            s.log_publish("a", 1, &pats(1)).unwrap();
            s.log_publish("b", 1, &pats(2)).unwrap();
            s.log_publish("a", 2, &pats(3)).unwrap();
            s.log_retire("b").unwrap();
        }
        let s = Store::open(&dir, nosync()).unwrap();
        assert!(s.recovery().is_clean());
        assert_eq!(s.recovery().wal_replayed, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("a").unwrap().version, 2);
        assert_eq!(s.get("a").unwrap().patterns, pats(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_snapshots_and_resets_wal() {
        let dir = tmp_dir("compact");
        {
            let mut s = Store::open(&dir, nosync()).unwrap();
            for i in 0..5 {
                s.log_publish(&format!("d{i}"), 1, &pats(i)).unwrap();
            }
            s.compact().unwrap();
            s.log_publish("after", 1, &pats(99)).unwrap();
        }
        let s = Store::open(&dir, nosync()).unwrap();
        assert!(s.recovery().is_clean());
        assert_eq!(s.recovery().snapshot_dicts, 5);
        assert_eq!(s.recovery().wal_replayed, 1);
        assert_eq!(s.recovery().wal_generation, 1);
        assert_eq!(s.len(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_reported() {
        let dir = tmp_dir("torn");
        {
            let mut s = Store::open(&dir, nosync()).unwrap();
            s.log_publish("keep", 1, &pats(1)).unwrap();
            s.log_publish("gone", 1, &pats(2)).unwrap();
        }
        // Tear the final record: chop 3 bytes off the file.
        let wal = dir.join(WAL_FILE);
        let len = fs::metadata(&wal).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let s = Store::open(&dir, nosync()).unwrap();
        let torn = s.recovery().torn.as_ref().expect("tail must be reported");
        assert!(torn.dropped_bytes > 0);
        assert_eq!(s.recovery().wal_replayed, 1);
        assert_eq!(s.len(), 1);
        assert!(s.get("keep").is_some());
        assert!(s.get("gone").is_none());
        // The file was truncated back to the intact prefix, so reopening
        // is clean and appends resume.
        let mut s2 = Store::open(&dir, nosync()).unwrap();
        assert!(s2.recovery().is_clean());
        s2.log_publish("again", 1, &pats(3)).unwrap();
        drop(s2);
        let s3 = Store::open(&dir, nosync()).unwrap();
        assert_eq!(s3.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_rename_and_wal_reset_is_covered() {
        let dir = tmp_dir("renamewin");
        let mut s = Store::open(&dir, nosync()).unwrap();
        s.log_publish("a", 1, &pats(1)).unwrap();
        s.log_publish("b", 1, &pats(2)).unwrap();
        // Simulate the window: snapshot covers both records, but the WAL
        // still holds them (compact minus its WAL-reset step).
        let snap = encode_snapshot(
            s.next_seq() - 1,
            &s.dicts()
                .map(|(n, d)| SnapshotDict {
                    name: n.to_string(),
                    version: d.version,
                    patterns: d.patterns.clone(),
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        fs::write(dir.join(SNAPSHOT_FILE), snap).unwrap();
        drop(s);
        let s = Store::open(&dir, nosync()).unwrap();
        assert!(s.recovery().is_clean());
        assert_eq!(s.recovery().snapshot_dicts, 2);
        assert_eq!(s.recovery().wal_skipped, 2, "snapshot covers the WAL");
        assert_eq!(s.recovery().wal_replayed, 0);
        assert_eq!(s.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_temp_is_removed() {
        let dir = tmp_dir("staletmp");
        drop(Store::open(&dir, nosync()).unwrap());
        fs::write(dir.join(SNAPSHOT_TMP), b"half-written junk").unwrap();
        let s = Store::open(&dir, nosync()).unwrap();
        assert!(s.recovery().stale_temp_removed);
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn data_dir_that_is_a_file_is_refused() {
        let path = std::env::temp_dir().join(format!("pardict-store-file-{}", std::process::id()));
        fs::write(&path, b"not a dir").unwrap();
        match Store::open(&path, nosync()) {
            Err(StoreError::NotADirectory(_)) => {}
            other => panic!("expected NotADirectory, got {:?}", other.map(|_| ())),
        }
        fs::remove_file(&path).unwrap();
    }
}
