//! Crash recovery: checkpoint bulk load + log-tail replay.
//!
//! Recovery rebuilds the pre-crash acknowledged state in three moves:
//!
//! 1. **Load** every unit's checkpoint segment (checksum-verified
//!    against its manifest entry), in parallel. The units are the
//!    key ranges the manifest's splitters cut — the engine's shards
//!    when the checkpoint was sealed — and segments are key-sorted,
//!    so concatenating them in unit order yields one globally sorted
//!    batch: exactly what the engine's partitioned bulk loader wants.
//! 2. **Scan** the one log once, its files in start-LSN order,
//!    skipping the files the smallest unit cut covers, and keep an op
//!    only if its LSN is above its own key's unit cut, in that unit's
//!    tail. LSNs must run contiguously from frame to frame; a torn or
//!    corrupt frame is legal only at the very tail of the *last* file,
//!    where it marks the crash point — the file is truncated to the
//!    clean prefix (an un-acknowledgeable half-append, discarded with
//!    every op of its group). Anywhere
//!    else it means real corruption and recovery refuses, as it does
//!    when the log ends below a cut: a seal syncs every record up to
//!    its cuts before the manifest names them.
//! 3. **Replay** the kept records against the freshly loaded engine,
//!    each unit's tail as one `ShardedRma::apply_ops` call, the units
//!    in parallel ([`Recovery::replay_into`]). A key always falls in
//!    the same unit, and `apply_ops` keeps one key's ops in order, so
//!    per-key operation order is preserved.
//!
//! Both parallel moves run on [`rma_shard::on_workers`], at most
//! `available_parallelism` scoped workers however many units the
//! manifest names; the log scan runs on one more thread beside the
//! loads. The directory is also healed: leftover `.tmp` staging files
//! and checkpoint segments the manifest does not name (both possible
//! if the crash hit mid-seal) are deleted, and a fresh log file is
//! opened one past the highest LSN seen.

use std::io;
use std::path::Path;
use std::sync::Arc;

use rma_core::{Key, Value};
use rma_shard::{on_workers, PointOp, ShardedRma, Splitters};

use crate::checkpoint::{self, CkptEntry, ManifestState};
use crate::record;
use crate::segment::{self, Log};
use crate::{DurabilityConfig, Wal, WalError};

/// The result of [`Wal::recover`]: the reopened WAL plus everything
/// needed to rebuild the engine.
pub struct Recovery {
    wal: Arc<Wal>,
    elems: Vec<(Key, Value)>,
    /// Per unit, its records above its cut, in LSN order.
    tails: Vec<Vec<PointOp>>,
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

    /// Replays the log tails into `engine`, each unit's as one
    /// `ShardedRma::apply_ops` call (the units in parallel), and
    /// returns the record count.
    ///
    /// Call this *before* attaching the WAL via
    /// `ShardedRma::set_durability` — the whole tail is already in the
    /// log, and replaying through an attached sink would re-append
    /// every record.
    pub fn replay_into(&self, engine: &ShardedRma) -> u64 {
        let tails: Vec<&Vec<PointOp>> = self.tails.iter().filter(|t| !t.is_empty()).collect();
        on_workers(&tails, |tail| {
            let t0 = rewiring::monotonic_ns();
            engine.apply_ops(tail, &mut vec![None; tail.len()]);
            (self.wal.replay_hist).record(rewiring::monotonic_ns().saturating_sub(t0));
        });
        self.tail_ops()
    }
}

impl Wal {
    /// Recovers a WAL directory created by [`Wal::create`]: verifies
    /// the manifest, loads checkpoints, scans the log tail (truncating
    /// a torn tail), heals leftover staging files, and reopens a fresh
    /// log file. The units and their key ranges are the manifest's.
    pub fn recover(cfg: DurabilityConfig) -> Result<Recovery, WalError> {
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
        let splitters = Splitters::new(manifest.splitters.clone());

        // The one log scan runs beside the segment loads.
        let (segments, scan) = std::thread::scope(|s| {
            let scan = s.spawn(|| scan_log(&cfg.dir, &manifest, &splitters));
            let segments = on_workers(&manifest.entries, |entry| match entry {
                Some(e) => checkpoint::load_segment(&cfg.dir, e),
                None => Ok(Vec::new()),
            });
            (segments, scan.join().expect("log scan panicked"))
        });
        let mut elems = Vec::new();
        for segment in segments {
            elems.extend_from_slice(&segment.map_err(WalError::Corrupt)?);
        }
        let (tails, next_lsn) = scan?;

        let log = Log::create(&cfg.dir, next_lsn)?;
        heal_directory(&cfg.dir, &manifest.entries)?;
        crate::fault::sync_dir(&cfg.dir)?;
        let wal = Wal::from_parts(cfg, log, manifest);
        Ok(Recovery { wal, elems, tails })
    }
}

/// Scans the log files once: returns each unit's records above its
/// cut and the LSN one past the log's last record.
fn scan_log(
    dir: &Path,
    manifest: &ManifestState,
    splitters: &Splitters,
) -> Result<(Vec<Vec<PointOp>>, u64), WalError> {
    let cuts: Vec<u64> = manifest.cuts().collect();
    let min_cut = cuts.iter().copied().min().unwrap_or(0);
    let max_cut = cuts.iter().copied().max().unwrap_or(0);
    let starts = segment::list_log_starts(dir)?;
    // A file whose successor starts at or below `min_cut + 1` holds
    // only records every unit's checkpoint covers (it survived a
    // crash between manifest commit and log pruning).
    let first = (starts.windows(2))
        .take_while(|pair| pair[1] <= min_cut + 1)
        .count();
    let mut tails = vec![Vec::new(); cuts.len()];
    let mut next = starts.get(first).copied().unwrap_or(min_cut + 1);
    for (i, &start) in starts.iter().enumerate().skip(first) {
        let last = i + 1 == starts.len();
        if start != next {
            return Err(WalError::Corrupt(format!(
                "log gap (file starts at {start}, expected {next})"
            )));
        }
        let path = dir.join(segment::log_name(start));
        let bytes = std::fs::read(&path)?;
        let mut off = 0;
        while off < bytes.len() {
            let Some((lsn, ops, len)) = record::decode(&bytes[off..]) else {
                if !last {
                    return Err(WalError::Corrupt(format!(
                        "corrupt frame mid-sequence in {}",
                        path.display()
                    )));
                }
                // The crash point: drop the unacknowledgeable
                // half-frame (and anything checksum-invalid after it)
                // by truncating to the clean prefix.
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(off as u64)?;
                f.sync_data()?;
                break;
            };
            if lsn != next {
                return Err(WalError::Corrupt(format!(
                    "lsn {lsn} where {next} expected in {}",
                    path.display()
                )));
            }
            for op in ops {
                let u = splitters.route(op.key());
                if next > cuts[u] {
                    tails[u].push(op);
                }
                next += 1;
            }
            off += len;
        }
    }
    if next <= max_cut {
        return Err(WalError::Corrupt(format!(
            "log ends at lsn {}, below checkpoint cut {max_cut}",
            next - 1
        )));
    }
    Ok((tails, next))
}

/// Deletes staging leftovers and checkpoint segments the manifest
/// does not name — debris a mid-seal crash can leave behind.
fn heal_directory(dir: &Path, entries: &[Option<CkptEntry>]) -> io::Result<()> {
    for item in std::fs::read_dir(dir)? {
        let item = item?;
        let name = item.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_tmp = name.ends_with(".tmp");
        let orphan_seg =
            checkpoint::is_seg_name(name) && !entries.iter().flatten().any(|e| e.file == name);
        if stale_tmp || orphan_seg {
            std::fs::remove_file(item.path()).ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::seal;
    use crate::DurabilitySink;
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
        let manifest = rec.wal.manifest.lock().expect("manifest").clone();
        assert_eq!(manifest, ManifestState::empty(), "one unit, no cut");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_replays_committed_tail() {
        let dir = scratch("tail");
        {
            let wal = fresh_wal(&dir);
            for i in 0..50 {
                wal.append(&[PointOp::Insert(i * (1 << 56), i)]);
            }
            wal.append(&[PointOp::Remove(0)]);
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
                wal.append(&[PointOp::Insert(i, i)]);
            }
            wal.commit().expect("commit");
        }
        // Tear the last record in half by hand: ten appends of one op
        // are ten 33-byte frames.
        let path = dir.join(segment::log_name(1));
        let len = std::fs::metadata(&path).expect("stat").len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open");
        f.set_len(len - 33 / 2).expect("tear");
        drop(f);
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        assert_eq!(rec.tail_ops(), 9, "torn 10th record dropped");
        // The truncated file is clean now: recovering again sees 9.
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("re-recover");
        assert_eq!(rec.tail_ops(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_refuses_a_log_that_ends_below_a_cut() {
        let dir = scratch("below-cut");
        {
            let wal = fresh_wal(&dir);
            for i in 0..4 {
                wal.append(&[PointOp::Insert(i, i)]);
            }
            wal.commit().expect("commit");
            // Unit 1's cut was drawn after record 2, so file 1 stays.
            let units = vec![(4, vec![(0, 0), (1, 1)]), (2, Vec::new())];
            assert!(seal(&wal, &[2], units));
        }
        // Lose the file the seal rotated to and cut the one before it
        // to records 1 and 2: the log now ends below unit 0's cut (4),
        // and a log reopened at 3 would hide new records of its keys
        // behind that cut.
        std::fs::remove_file(dir.join(segment::log_name(5))).expect("rm");
        let path = dir.join(segment::log_name(1));
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open");
        f.set_len(2 * 33).expect("cut"); // two one-op frames
        drop(f);
        assert!(matches!(
            Wal::recover(DurabilityConfig::new(&dir)),
            Err(WalError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_uses_checkpoint_cut() {
        let dir = scratch("ckpt");
        {
            let wal = fresh_wal(&dir);
            for i in 0..20 {
                wal.append(&[PointOp::Insert(i, i)]);
            }
            wal.commit().expect("commit");
            let elems: Vec<(Key, Value)> = (0..20).map(|i| (i, i)).collect();
            assert!(seal(&wal, &[], vec![(wal.checkpoint_cut(), elems)]));
            // Post-checkpoint writes land in the rotated log.
            for i in 20..25 {
                wal.append(&[PointOp::Insert(i, i)]);
            }
            wal.commit().expect("commit");
        }
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        assert_eq!(rec.elements().len(), 20);
        assert_eq!(rec.tail_ops(), 5, "only post-cut records replay");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_keeps_the_records_above_their_own_units_cut() {
        let dir = scratch("own-cut");
        let key = |u: i64, i: i64| (u << 60) + i;
        // Unit `u` covers `key(u, _)`; its cut was drawn after round
        // `min(u, 2)` of the inserts below (four records a round).
        let splitters = [key(1, 0), key(2, 0), key(3, 0)];
        let rounds = |u: i64| u.min(2) + 1;
        let sealed = |u: i64| (0..rounds(u)).map(|i| (key(u, i), i)).collect::<Vec<_>>();
        {
            let wal = fresh_wal(&dir);
            for i in 0..3 {
                let ops: Vec<_> = (0..4).map(|u| PointOp::Insert(key(u, i), i)).collect();
                wal.append(&ops);
            }
            wal.commit().expect("commit");
            let units = (0..4).map(|u| (4 * rounds(u) as u64, sealed(u))).collect();
            assert!(seal(&wal, &splitters, units));
            for u in 0..4 {
                wal.append(&[PointOp::Remove(key(u, 0))]);
            }
            wal.commit().expect("commit");
        }
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        let loaded: Vec<(Key, Value)> = (0..4).flat_map(sealed).collect();
        assert_eq!(rec.elements(), &loaded[..]);
        for u in 0..4 {
            let mut want: Vec<_> = (rounds(u)..3)
                .map(|i| PointOp::Insert(key(u, i), i))
                .collect();
            want.push(PointOp::Remove(key(u, 0)));
            assert_eq!(rec.tails[u as usize], want, "unit {u}");
        }
        let engine = ShardedRma::load_bulk(rma_shard::ShardConfig::default(), rec.elements());
        assert_eq!(rec.replay_into(&engine), 7);
        assert_eq!(engine.len(), 8);
        assert!((0..4).all(|u| engine.get(key(u, 0)).is_none()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_elements_are_globally_sorted() {
        let dir = scratch("sorted");
        {
            let wal = fresh_wal(&dir);
            let step = 1i64 << 55;
            for i in 0..200 {
                wal.append(&[PointOp::Insert((i * 37 % 200) * step, i)]);
            }
            wal.commit().expect("commit");
            let mut elems: Vec<(Key, Value)> =
                (0..200).map(|i| ((i * 37 % 200) * step, i)).collect();
            elems.sort_unstable();
            let splitters = Splitters::new(vec![50 * step, 100 * step, 150 * step]);
            let cut = wal.checkpoint_cut();
            let units = (splitters.partition_sorted(&elems).into_iter())
                .map(|r| (cut, elems[r].to_vec()))
                .collect();
            assert!(seal(&wal, splitters.keys(), units));
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
                wal.append(&[PointOp::Insert(i * (1 << 55), i)]);
            }
            for i in 0..10 {
                wal.append(&[PointOp::Remove(i * (1 << 55))]);
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
            wal.append(&[PointOp::Insert(1, 1)]);
            wal.commit().expect("commit");
            assert!(seal(&wal, &[], vec![(1, vec![(1, 1)])]));
            wal.append(&[PointOp::Insert(2, 2)]);
            wal.commit().expect("commit");
        }
        // Simulate a crash mid-seal: segments the manifest never
        // adopted — of the next generation, and beside the named one
        // — plus a staging file.
        for orphan in ["ckpt_1_0.seg", "ckpt_0_1.seg", "ckpt_0_99.seg"] {
            std::fs::write(dir.join(orphan), b"junk").expect("orphan");
        }
        std::fs::write(dir.join("MANIFEST.tmp"), b"junk").expect("tmp");
        let rec = Wal::recover(DurabilityConfig::new(&dir)).expect("recover");
        assert_eq!((rec.elements(), rec.tail_ops()), (&[(1, 1)][..], 1));
        let mut left: Vec<String> = (std::fs::read_dir(&dir).expect("wal dir"))
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .filter(|name| name.starts_with("ckpt_") || name.ends_with(".tmp"))
            .collect();
        left.sort();
        assert_eq!(left, ["ckpt_0_0.seg"]);
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
                wal.append(&[PointOp::Insert(i * (1 << 56), i)]);
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
