//! Crash recovery: checkpoint bulk load + log-tail replay.
//!
//! Recovery rebuilds the pre-crash acknowledged state in three moves,
//! each parallel across durability partitions:
//!
//! 1. **Load** every partition's checkpoint segment (checksum-verified
//!    against its manifest entry). Partitions are key-ordered and
//!    segments are key-sorted, so concatenating them in partition
//!    order yields one globally sorted batch — exactly what the
//!    engine's partitioned bulk loader wants.
//! 2. **Scan** each partition's log files in start-LSN order, keeping
//!    records with `lsn > cut`. LSNs must run contiguously; a torn or
//!    corrupt record is legal only at the very tail of the *last*
//!    file, where it marks the crash point — the file is truncated to
//!    the clean prefix (an un-acknowledgeable half-append, discarded).
//!    Anywhere else it means real corruption and recovery refuses.
//! 3. **Replay** the kept records against the freshly loaded engine,
//!    per partition in LSN order, through the engine's batched point
//!    path ([`Recovery::replay_into`]). A key always routes to the
//!    same partition and, inside one batch, to one shard group that
//!    keeps its order, so per-key operation order is preserved even
//!    though partitions replay concurrently.
//!
//! The directory is also healed: leftover `.tmp` staging files and
//! checkpoint segments the manifest no longer references (both
//! possible if the crash hit mid-seal) are deleted, and fresh log
//! files are opened one past the highest LSN seen.

use std::io;
use std::path::Path;
use std::sync::Arc;

use rma_core::{Key, Value};
use rma_shard::{DurabilityOp, PointOp, ShardedRma, Splitters};

use crate::checkpoint::{self, CkptEntry};
use crate::record::{self, Decoded, Record};
use crate::segment::{self, PartitionLog};
use crate::{DurabilityConfig, Wal, WalError};

/// Log records replayed per `ShardedRma::apply_ops` call: one routing
/// block of the engine's.
const REPLAY_CHUNK: usize = 64;

/// The result of [`Wal::recover`]: the reopened WAL plus everything
/// needed to rebuild the engine.
pub struct Recovery {
    wal: Arc<Wal>,
    elems: Vec<(Key, Value)>,
    tails: Vec<Vec<Record>>,
}

impl Recovery {
    /// The reopened WAL, ready to serve as the engine's durability
    /// sink once replay is done.
    pub fn wal(&self) -> Arc<Wal> {
        Arc::clone(&self.wal)
    }

    /// The checkpointed elements, globally key-sorted — feed these to
    /// the engine's bulk loader.
    pub fn elements(&self) -> &[(Key, Value)] {
        &self.elems
    }

    /// Total log records awaiting replay.
    pub fn tail_ops(&self) -> u64 {
        self.tails.iter().map(|t| t.len() as u64).sum()
    }

    /// Replays the log tails into `engine` (parallel per partition)
    /// and returns the record count. Each tail goes through
    /// `ShardedRma::apply_ops` 64 records at a time, which keeps LSN
    /// order per key: one key's records always fall into one shard
    /// group.
    ///
    /// Call this *before* attaching the WAL via
    /// `ShardedRma::set_durability` — the whole tail is already in the
    /// log, and replaying through an attached sink would re-append
    /// every record.
    pub fn replay_into(&self, engine: &ShardedRma) -> u64 {
        std::thread::scope(|s| {
            for tail in self.tails.iter().filter(|t| !t.is_empty()) {
                let wal = &self.wal;
                s.spawn(move || {
                    let t0 = rewiring::monotonic_ns();
                    let mut ops = [PointOp::Get(0); REPLAY_CHUNK];
                    let mut out = [None; REPLAY_CHUNK];
                    for chunk in tail.chunks(REPLAY_CHUNK) {
                        for (op, r) in ops.iter_mut().zip(chunk) {
                            *op = match r.op {
                                DurabilityOp::Insert(k, v) => PointOp::Insert(k, v),
                                DurabilityOp::Remove(k) => PointOp::Remove(k),
                            };
                        }
                        let n = chunk.len();
                        engine.apply_ops(&ops[..n], &mut out[..n]);
                    }
                    wal.replay_hist
                        .record(rewiring::monotonic_ns().saturating_sub(t0));
                });
            }
        });
        self.tail_ops()
    }
}

/// Per-partition recovery product.
struct PartState {
    elems: Vec<(Key, Value)>,
    tail: Vec<Record>,
    next_lsn: u64,
}

impl Wal {
    /// Recovers a WAL directory created by [`Wal::create`]: verifies
    /// the manifest, loads checkpoints, scans log tails (truncating a
    /// torn tail), heals leftover staging files, and reopens fresh
    /// logs. The partition count is the manifest's.
    pub fn recover(cfg: DurabilityConfig) -> Result<Recovery, WalError> {
        Wal::validate(&cfg)?;
        let manifest = match checkpoint::read_manifest(&cfg.dir)? {
            None => {
                return Err(WalError::Config(format!(
                    "{}: no WAL manifest to recover",
                    cfg.dir.display()
                )))
            }
            Some(Err(why)) => return Err(WalError::Corrupt(why)),
            Some(Ok(m)) => m,
        };

        let states: Vec<Result<PartState, WalError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..manifest.partitions)
                .map(|p| {
                    let dir = cfg.dir.as_path();
                    let entry = manifest.entries[p].as_ref();
                    s.spawn(move || recover_partition(dir, p, entry))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("recovery thread panicked"))
                .collect()
        });

        let mut elems = Vec::new();
        let mut tails = Vec::with_capacity(manifest.partitions);
        let mut parts = Vec::with_capacity(manifest.partitions);
        for (p, state) in states.into_iter().enumerate() {
            let state = state?;
            elems.extend_from_slice(&state.elems);
            tails.push(state.tail);
            parts.push(PartitionLog::create(&cfg.dir, p, state.next_lsn)?);
        }
        heal_directory(&cfg.dir, &manifest.entries)?;
        crate::fault::sync_dir(&cfg.dir)?;

        let splitters = Splitters::new(manifest.splitters.clone());
        let wal = Wal::from_parts(cfg, parts, splitters, manifest);
        Ok(Recovery { wal, elems, tails })
    }
}

/// Loads one partition's checkpoint and scans its log tail.
fn recover_partition(
    dir: &Path,
    p: usize,
    entry: Option<&CkptEntry>,
) -> Result<PartState, WalError> {
    let cut = entry.map_or(0, |e| e.cut);
    let elems = match entry {
        Some(e) => checkpoint::load_segment(dir, e).map_err(WalError::Corrupt)?,
        None => Vec::new(),
    };

    let starts = segment::list_log_starts(dir, p)?;
    let mut tail = Vec::new();
    let mut max_lsn = cut;
    let mut carry: Option<u64> = None; // expected start of the next file
    for (i, &start) in starts.iter().enumerate() {
        let last = i + 1 == starts.len();
        // A file whose successor starts at or below `cut + 1` holds
        // only records the checkpoint already covers (it survived a
        // crash between manifest commit and log pruning).
        if !last && starts[i + 1] <= cut + 1 {
            continue;
        }
        if let Some(expected) = carry {
            if start != expected {
                return Err(WalError::Corrupt(format!(
                    "partition {p}: log gap (file starts at {start}, expected {expected})"
                )));
            }
        }
        let path = dir.join(segment::log_name(p, start));
        let bytes = std::fs::read(&path)?;
        let mut off = 0;
        let mut expected = start;
        while off < bytes.len() {
            match record::decode(&bytes[off..]) {
                Decoded::Ok(r) => {
                    if r.lsn != expected {
                        return Err(WalError::Corrupt(format!(
                            "partition {p}: lsn {} where {expected} expected in {}",
                            r.lsn,
                            path.display()
                        )));
                    }
                    expected += 1;
                    max_lsn = max_lsn.max(r.lsn);
                    if r.lsn > cut {
                        tail.push(r);
                    }
                    off += record::FRAME_LEN;
                }
                Decoded::Torn | Decoded::Corrupt if last => {
                    // The crash point: drop the unacknowledgeable
                    // half-record (and anything checksum-invalid after
                    // it) by truncating to the clean prefix.
                    let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                    f.set_len(off as u64)?;
                    f.sync_data()?;
                    break;
                }
                Decoded::Torn | Decoded::Corrupt => {
                    return Err(WalError::Corrupt(format!(
                        "partition {p}: corrupt record mid-sequence in {}",
                        path.display()
                    )));
                }
            }
        }
        carry = Some(expected);
    }

    Ok(PartState {
        elems,
        tail,
        next_lsn: max_lsn + 1,
    })
}

/// Deletes staging leftovers and checkpoint segments the manifest no
/// longer references — debris a mid-seal crash can leave behind.
fn heal_directory(dir: &Path, entries: &[Option<CkptEntry>]) -> io::Result<()> {
    for item in std::fs::read_dir(dir)? {
        let item = item?;
        let name = item.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_tmp = name.ends_with(".tmp");
        let orphan_seg = checkpoint::parse_seg_name(name).is_some_and(|(p, _)| {
            entries
                .get(p)
                .and_then(|e| e.as_ref())
                .is_none_or(|e| e.file != name)
        });
        if stale_tmp || orphan_seg {
            std::fs::remove_file(item.path()).ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurabilitySink, PARTITIONS};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rma-wal-rec-{}-{}-{name}",
            std::process::id(),
            rewiring::monotonic_ns()
        ))
    }

    fn fresh_wal(dir: &Path) -> Arc<Wal> {
        Wal::create(DurabilityConfig::new(dir)).expect("create")
    }

    #[test]
    fn recover_empty_wal_is_empty() {
        let dir = scratch("empty");
        let _wal = fresh_wal(&dir);
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        assert!(rec.elements().is_empty());
        assert_eq!(rec.tail_ops(), 0);
        assert_eq!(rec.wal().partitions(), PARTITIONS);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_replays_committed_tail() {
        let dir = scratch("tail");
        {
            let wal = fresh_wal(&dir);
            for i in 0..50 {
                wal.append(&[DurabilityOp::Insert(i * (1 << 56), i)]);
            }
            wal.append(&[DurabilityOp::Remove(0)]);
            wal.commit().expect("commit");
        }
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        assert!(rec.elements().is_empty(), "no checkpoint sealed");
        assert_eq!(rec.tail_ops(), 51);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_truncates_torn_tail() {
        let dir = scratch("torn");
        {
            let wal = fresh_wal(&dir);
            for i in 0..10 {
                wal.append(&[DurabilityOp::Insert(i, i)]);
            }
            wal.commit().expect("commit");
        }
        // Tear the last record in half by hand.
        let path = dir.join(segment::log_name(0, 1));
        let len = std::fs::metadata(&path).expect("stat").len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open");
        f.set_len(len - (record::FRAME_LEN as u64 / 2))
            .expect("tear");
        drop(f);
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        assert_eq!(rec.tail_ops(), 9, "torn 10th record dropped");
        // The truncated file is clean now: recovering again sees 9.
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("re-recover");
        assert_eq!(rec.tail_ops(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_uses_checkpoint_cut() {
        let dir = scratch("ckpt");
        {
            let wal = fresh_wal(&dir);
            for i in 0..20 {
                wal.append(&[DurabilityOp::Insert(i, i)]);
            }
            wal.commit().expect("commit");
            let elems: Vec<(Key, Value)> = (0..20).map(|i| (i, i)).collect();
            assert!(wal.seal_checkpoint(0, wal.checkpoint_cut(0), &elems));
            // Post-checkpoint writes land in the rotated log.
            for i in 20..25 {
                wal.append(&[DurabilityOp::Insert(i, i)]);
            }
            wal.commit().expect("commit");
        }
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        assert_eq!(rec.elements().len(), 20);
        assert_eq!(rec.tail_ops(), 5, "only post-cut records replay");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_elements_are_globally_sorted() {
        let dir = scratch("sorted");
        {
            let wal = fresh_wal(&dir);
            let step = 1i64 << 55;
            for i in 0..200 {
                wal.append(&[DurabilityOp::Insert((i * 37 % 200) * step, i)]);
            }
            wal.commit().expect("commit");
            for p in 0..PARTITIONS {
                let (lo, hi) = wal.partition_range(p);
                let mut elems: Vec<(Key, Value)> = (0..200)
                    .map(|i| ((i * 37 % 200) * step, i))
                    .filter(|&(k, _)| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k < h))
                    .collect();
                elems.sort_unstable();
                assert!(wal.seal_checkpoint(p, wal.checkpoint_cut(p), &elems));
            }
        }
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        assert_eq!(rec.elements().len(), 200);
        assert!(rec.elements().windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(rec.tail_ops(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_into_rebuilds_engine_state() {
        let dir = scratch("replay");
        {
            let wal = fresh_wal(&dir);
            for i in 0..100 {
                wal.append(&[DurabilityOp::Insert(i * (1 << 55), i)]);
            }
            for i in 0..10 {
                wal.append(&[DurabilityOp::Remove(i * (1 << 55))]);
            }
            wal.commit().expect("commit");
        }
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        let engine = ShardedRma::new(rma_shard::ShardConfig::default());
        let replayed = rec.replay_into(&engine);
        assert_eq!(replayed, 110);
        assert_eq!(engine.len(), 90);
        assert_eq!(engine.get(0), None);
        assert_eq!(engine.get(50 * (1 << 55)), Some(50));
        assert!(rec.wal().replay_hist().count() >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_heals_mid_seal_debris() {
        let dir = scratch("heal");
        {
            let wal = fresh_wal(&dir);
            wal.append(&[DurabilityOp::Insert(1, 1)]);
            wal.commit().expect("commit");
        }
        // Simulate a crash mid-seal: an orphan segment the manifest
        // never adopted, plus a staging file.
        std::fs::write(dir.join("ckpt_0_99.seg"), b"junk").expect("orphan");
        std::fs::write(dir.join("MANIFEST.tmp"), b"junk").expect("tmp");
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        assert_eq!(rec.tail_ops(), 1);
        assert!(!dir.join("ckpt_0_99.seg").exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_rejects_missing_and_corrupt_manifests() {
        let none = scratch("nomanifest");
        std::fs::create_dir_all(&none).expect("mkdir");
        assert!(matches!(
            Wal::recover(DurabilityConfig::new(&none)),
            Err(WalError::Config(_))
        ));
        let bad = scratch("badmanifest");
        std::fs::create_dir_all(&bad).expect("mkdir");
        std::fs::write(bad.join("MANIFEST"), b"rma-wal v1\ngarbage\ncrc=0\n").expect("write");
        assert!(matches!(
            Wal::recover(DurabilityConfig::new(&bad)),
            Err(WalError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&none).ok();
        std::fs::remove_dir_all(&bad).ok();
    }

    #[test]
    fn recover_is_idempotent() {
        let dir = scratch("idem");
        {
            let wal = fresh_wal(&dir);
            for i in 0..30 {
                wal.append(&[DurabilityOp::Insert(i * (1 << 56), i)]);
            }
            wal.commit().expect("commit");
        }
        let first = Wal::recover(DurabilityConfig::new(&dir)).expect("first");
        let (e1, t1) = (first.elements().to_vec(), first.tail_ops());
        drop(first);
        let second = Wal::recover(DurabilityConfig::new(&dir)).expect("second");
        assert_eq!(second.elements(), &e1[..]);
        assert_eq!(second.tail_ops(), t1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
