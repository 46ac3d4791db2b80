//! Checkpoint segments and the manifest — the durable root of the
//! WAL directory.
//!
//! # Manifest
//!
//! `MANIFEST` is a small text file naming everything recovery needs:
//!
//! ```text
//! rma-wal v1
//! partitions=4
//! splitters=1152921504606846976,2305843009213693952,...
//! ckpt=0,1732,ckpt_0_1732.seg,51200,9f1c0d2e
//! ckpt=2,1698,ckpt_2_1698.seg,49926,0b44aa17
//! crc=5d1e00c3
//! ```
//!
//! One `ckpt=` line per partition that has sealed a checkpoint:
//! `partition, cut LSN, segment file, element count, segment CRC-32`.
//! The final `crc=` line checksums every preceding byte, so a torn or
//! bit-flipped manifest is detected, never trusted.
//!
//! The manifest is only ever replaced whole: write `MANIFEST.tmp`,
//! fsync it, `rename(2)` over `MANIFEST`, fsync the directory. A crash
//! anywhere in that sequence leaves either the old or the new manifest
//! intact — the rename is the commit point.
//!
//! # Checkpoint segments
//!
//! `ckpt_<p>_<cut>.seg` holds partition `p`'s elements at cut LSN
//! `<cut>` as raw little-endian `(key: i64, value: i64)` pairs in key
//! order — loadable straight into the engine's bulk loader. Count and
//! CRC live in the manifest line, not the segment, so a segment that
//! doesn't match its manifest entry is detected at load.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

use rewiring::crc::crc32;
use rma_core::{Key, Value};

use crate::fault::{inj_fsync, inj_rename, inj_write, FaultInjector, IoClass};
use crate::segment::check_alive;

/// Magic first line; bump the version on any format change.
const HEADER: &str = "rma-wal v1";
/// The manifest file name (and its staging twin).
pub(crate) const MANIFEST: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";

/// One partition's sealed checkpoint, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CkptEntry {
    /// Highest LSN the segment covers; replay applies only `lsn > cut`.
    pub cut: u64,
    /// Segment file name within the WAL directory.
    pub file: String,
    /// Number of `(key, value)` pairs in the segment.
    pub count: u64,
    /// CRC-32 of the segment's bytes.
    pub crc: u32,
}

/// The decoded manifest: the durability partitioning plus whatever
/// checkpoints have been sealed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestState {
    pub partitions: usize,
    /// Interior splitter keys (`partitions - 1` of them) fixing each
    /// partition's key range for the lifetime of the WAL directory.
    pub splitters: Vec<Key>,
    /// Indexed by partition; `None` until its first checkpoint seals.
    pub entries: Vec<Option<CkptEntry>>,
}

impl ManifestState {
    pub fn new(partitions: usize, splitters: Vec<Key>) -> Self {
        assert_eq!(splitters.len() + 1, partitions, "splitters/partitions");
        ManifestState {
            partitions,
            splitters,
            entries: vec![None; partitions],
        }
    }
}

/// Segment file name for partition `p` sealed at `cut`.
pub(crate) fn seg_name(p: usize, cut: u64) -> String {
    format!("ckpt_{p}_{cut}.seg")
}

/// Parses `ckpt_<p>_<cut>.seg`; `None` for anything else.
pub(crate) fn parse_seg_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("ckpt_")?.strip_suffix(".seg")?;
    let (p, cut) = rest.split_once('_')?;
    Some((p.parse().ok()?, cut.parse().ok()?))
}

fn render(state: &ManifestState) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("partitions={}\n", state.partitions));
    let keys: Vec<String> = state.splitters.iter().map(|k| k.to_string()).collect();
    out.push_str(&format!("splitters={}\n", keys.join(",")));
    for (p, entry) in state.entries.iter().enumerate() {
        if let Some(e) = entry {
            out.push_str(&format!(
                "ckpt={p},{},{},{},{:08x}\n",
                e.cut, e.file, e.count, e.crc
            ));
        }
    }
    let crc = crc32(out.as_bytes());
    out.push_str(&format!("crc={crc:08x}\n"));
    out.into_bytes()
}

/// Parses and checksum-verifies manifest bytes.
pub(crate) fn parse(bytes: &[u8]) -> Result<ManifestState, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "manifest is not UTF-8".to_string())?;
    let crc_at = text.rfind("crc=").ok_or("manifest has no crc line")?;
    let want = u32::from_str_radix(text[crc_at..].trim().strip_prefix("crc=").unwrap_or(""), 16)
        .map_err(|_| "bad crc line".to_string())?;
    let got = crc32(&bytes[..crc_at]);
    if got != want {
        return Err(format!(
            "manifest checksum mismatch ({got:08x} != {want:08x})"
        ));
    }
    let mut lines = text[..crc_at].lines();
    if lines.next() != Some(HEADER) {
        return Err("bad manifest header".to_string());
    }
    let mut partitions: Option<usize> = None;
    let mut splitters: Option<Vec<Key>> = None;
    let mut ckpts: Vec<(usize, CkptEntry)> = Vec::new();
    for line in lines {
        if let Some(v) = line.strip_prefix("partitions=") {
            partitions = Some(v.parse().map_err(|_| "bad partitions line")?);
        } else if let Some(v) = line.strip_prefix("splitters=") {
            let keys: Result<Vec<Key>, _> = if v.is_empty() {
                Ok(Vec::new())
            } else {
                v.split(',').map(|k| k.parse()).collect()
            };
            splitters = Some(keys.map_err(|_| "bad splitters line")?);
        } else if let Some(v) = line.strip_prefix("ckpt=") {
            let fields: Vec<&str> = v.split(',').collect();
            if fields.len() != 5 {
                return Err("bad ckpt line".to_string());
            }
            let entry = CkptEntry {
                cut: fields[1].parse().map_err(|_| "bad ckpt cut")?,
                file: fields[2].to_string(),
                count: fields[3].parse().map_err(|_| "bad ckpt count")?,
                crc: u32::from_str_radix(fields[4], 16).map_err(|_| "bad ckpt crc")?,
            };
            ckpts.push((fields[0].parse().map_err(|_| "bad ckpt partition")?, entry));
        } else if !line.is_empty() {
            return Err(format!("unknown manifest line: {line}"));
        }
    }
    let partitions = partitions.ok_or("manifest missing partitions")?;
    let splitters = splitters.ok_or("manifest missing splitters")?;
    if partitions == 0 || splitters.len() + 1 != partitions {
        return Err("partitions/splitters mismatch".to_string());
    }
    let mut state = ManifestState::new(partitions, splitters);
    for (p, entry) in ckpts {
        if p >= partitions {
            return Err(format!("ckpt line for partition {p} out of range"));
        }
        state.entries[p] = Some(entry);
    }
    Ok(state)
}

/// Atomically replaces the manifest: tmp write → fsync → rename →
/// directory sync. The rename is the commit point.
pub(crate) fn write_manifest(
    dir: &Path,
    state: &ManifestState,
    inj: &Option<Arc<FaultInjector>>,
) -> io::Result<()> {
    let bytes = render(state);
    let tmp = dir.join(MANIFEST_TMP);
    check_alive(inj)?;
    let mut file = File::create(&tmp)?;
    inj_write(inj, &mut file, &bytes, IoClass::SealWrite)?;
    inj_fsync(inj, &file)?;
    drop(file);
    inj_rename(inj, &tmp, &dir.join(MANIFEST))
}

/// Reads and verifies the manifest; `Ok(None)` when no manifest exists
/// (a directory that never finished `Wal::create`).
pub(crate) fn read_manifest(dir: &Path) -> io::Result<Option<Result<ManifestState, String>>> {
    match std::fs::read(dir.join(MANIFEST)) {
        Ok(bytes) => Ok(Some(parse(&bytes))),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Writes the checkpoint segment for partition `p` at `cut` (tmp →
/// fsync → rename → dir sync, like the manifest) and returns its
/// manifest entry.
pub(crate) fn seal_segment(
    dir: &Path,
    p: usize,
    cut: u64,
    elems: &[(Key, Value)],
    inj: &Option<Arc<FaultInjector>>,
) -> io::Result<CkptEntry> {
    let mut bytes = Vec::with_capacity(elems.len() * 16);
    for &(k, v) in elems {
        bytes.extend_from_slice(&k.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&bytes);
    let name = seg_name(p, cut);
    let tmp = dir.join(format!("{name}.tmp"));
    check_alive(inj)?;
    let mut file = File::create(&tmp)?;
    inj_write(inj, &mut file, &bytes, IoClass::SealWrite)?;
    inj_fsync(inj, &file)?;
    drop(file);
    inj_rename(inj, &tmp, &dir.join(&name))?;
    Ok(CkptEntry {
        cut,
        file: name,
        count: elems.len() as u64,
        crc,
    })
}

/// Loads and verifies a sealed segment against its manifest entry.
pub(crate) fn load_segment(dir: &Path, entry: &CkptEntry) -> Result<Vec<(Key, Value)>, String> {
    let bytes =
        std::fs::read(dir.join(&entry.file)).map_err(|e| format!("segment {}: {e}", entry.file))?;
    if bytes.len() as u64 != entry.count * 16 {
        return Err(format!(
            "segment {}: {} bytes, manifest says {} pairs",
            entry.file,
            bytes.len(),
            entry.count
        ));
    }
    if crc32(&bytes) != entry.crc {
        return Err(format!("segment {}: checksum mismatch", entry.file));
    }
    Ok(bytes
        .chunks_exact(16)
        .map(|c| {
            (
                Key::from_le_bytes(c[..8].try_into().expect("8 bytes")),
                Value::from_le_bytes(c[8..].try_into().expect("8 bytes")),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultMode;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rma-wal-ckpt-{}-{}-{name}",
            std::process::id(),
            rewiring::monotonic_ns()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        dir
    }

    fn sample_state() -> ManifestState {
        let mut state = ManifestState::new(3, vec![-5, 1000]);
        state.entries[1] = Some(CkptEntry {
            cut: 42,
            file: seg_name(1, 42),
            count: 7,
            crc: 0xDEAD_BEEF,
        });
        state
    }

    #[test]
    fn manifest_roundtrips() {
        let state = sample_state();
        let parsed = parse(&render(&state)).expect("parse");
        assert_eq!(parsed, state);
    }

    #[test]
    fn manifest_bit_flip_is_rejected() {
        let bytes = render(&sample_state());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(parse(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn manifest_replacement_is_atomic_under_kill() {
        let dir = scratch("atomic");
        let old = sample_state();
        write_manifest(&dir, &old, &None).expect("write old");
        let mut newer = old.clone();
        newer.entries[0] = Some(CkptEntry {
            cut: 99,
            file: seg_name(0, 99),
            count: 1,
            crc: 0,
        });
        // Kill each of the four I/O ops in turn (tmp write, tmp fsync,
        // rename, dir sync): the committed manifest must stay readable
        // and equal to either the old or the new state.
        for kill_at in 1..=4u64 {
            let inj = Some(FaultInjector::new(kill_at, FaultMode::Kill));
            let _ = write_manifest(&dir, &newer, &inj);
            let got = read_manifest(&dir)
                .expect("io")
                .expect("manifest exists")
                .expect("manifest parses");
            assert!(
                got == old || got == newer,
                "kill at {kill_at}: neither old nor new"
            );
            // Reset for the next round.
            std::fs::remove_file(dir.join(MANIFEST_TMP)).ok();
            write_manifest(&dir, &old, &None).expect("rewrite old");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_roundtrips_and_detects_corruption() {
        let dir = scratch("seg");
        let elems: Vec<(Key, Value)> = (0..100).map(|i| (i * 3 - 50, i)).collect();
        let entry = seal_segment(&dir, 0, 17, &elems, &None).expect("seal");
        assert_eq!(entry.count, 100);
        assert_eq!(load_segment(&dir, &entry).expect("load"), elems);
        // Flip a byte in the file: load must fail.
        let path = dir.join(&entry.file);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[800] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(load_segment(&dir, &entry).is_err());
        // Truncate: load must fail on the count check.
        std::fs::write(&path, &bytes[..160]).expect("truncate");
        assert!(load_segment(&dir, &entry).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
