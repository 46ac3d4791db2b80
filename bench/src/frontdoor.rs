//! The front door: one process hosts a `NetServer` on loopback and
//! `min(2, nproc)` closed-loop `WireClient` threads that replay their
//! pre-generated streams. Set-up (generation, preload, server start,
//! warm-up) and the measured phase are timed apart; every reply is
//! checked; `ingest-durable` ends with drop, `Db::open` and a
//! read-back of acknowledged inserts.

use crate::check::Tally;
use crate::gen::{self, mix64, Base, Inputs, Stream};
use crate::host::{self, now_ns, CpuTimes};
use crate::span::Recorder;
use crate::spec::{Scale, Workload, REOPEN_SAMPLE, SEGMENTS, SHARDS};
use rma_db::{Db, DbBuilder, DurabilityConfig, MetricsSnapshot, Op};
use rma_net::{NetConfig, NetServer, NetSnapshot, WireClient};
use rma_obs::HistogramSnapshot;
use rma_shard::{EngineSnapshot, MaintainerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

/// A scratch WAL directory under the benchmark's `out/`, removed on
/// drop. Refuses memory-backed filesystems: an fsync there measures
/// nothing.
pub struct WalDir(pub PathBuf);

impl WalDir {
    pub fn create(out_dir: &Path, tag: &str) -> Result<WalDir, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let fs = host::fs_type(out_dir);
        if matches!(fs.as_str(), "tmpfs" | "ramfs" | "devtmpfs") {
            return Err(format!(
                "{} is on {fs}: the WAL needs a real filesystem",
                out_dir.display()
            ));
        }
        let dir = out_dir.join(format!(
            "wal-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A stale directory of a killed run would be recovered, not created.
        let _ = std::fs::remove_dir_all(&dir);
        Ok(WalDir(dir))
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `Db` every workload is served from: builder defaults plus
/// `shards(8)`, and what the workload's row in the README adds.
pub fn builder(w: &Workload, wal: Option<&WalDir>) -> DbBuilder {
    let mut b = Db::builder().shards(SHARDS);
    if w.maintainer {
        b = b.maintenance(MaintainerConfig::default());
    }
    if let Some(dir) = wal {
        b = b.durability(DurabilityConfig::new(dir.0.clone()));
    }
    b
}

/// What one client thread measured.
#[derive(Default)]
pub struct ConnResult {
    /// Frame round trips, `send` to final reply frame, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Clock at the end of each equal-op segment.
    pub seg_end_ns: Vec<u64>,
    /// The store's resident bytes per element at those moments.
    pub seg_mem: Vec<f64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tally: Tally,
}

/// How one client replays its stream over a `WireClient`.
pub struct Replay<'a> {
    pub stream: &'a Stream,
    pub base: &'a Base,
    /// Frames kept in flight.
    pub depth: usize,
    /// Frames to a segment, whose ends are stamped; 0 for none.
    pub seg_frames: usize,
    /// Sampled for its bytes per element at segment ends.
    pub db: Option<&'a Db>,
}

impl Replay<'_> {
    /// Replays `frames`. Replies are checked after their frame's clock
    /// is stopped. With an enabled recorder, each request gets a root
    /// span with the `send` and `recv` calls as children.
    pub fn drive(
        &self,
        wire: &mut WireClient,
        frames: std::ops::Range<usize>,
        out: &mut ConnResult,
        rec: &mut Recorder,
    ) {
        let stream = self.stream;
        let total = frames.len();
        // Replies come back in any order and a straggler can be
        // overtaken by many later frames, so in-flight frames are found
        // by their correlation id, not by position in a window.
        let mut in_flight: Vec<(u32, usize, u64, u32)> = Vec::with_capacity(self.depth);
        let mut next = frames.start;
        let mut done = 0usize;
        out.start_ns = now_ns();
        'run: while done < total {
            while next < frames.end && wire.in_flight() < self.depth {
                let t0 = now_ns();
                let root = rec.open_root(next, "net", "request", t0);
                let Ok(corr) = wire.send(stream.frame(next).0) else {
                    break 'run;
                };
                rec.push(root, next, "net", "WireClient::send", t0, rec.clock());
                in_flight.push((corr, next, t0, root));
                next += 1;
            }
            let t_recv = rec.clock();
            let Ok(c) = wire.recv() else {
                break 'run;
            };
            let t1 = now_ns();
            let Some(at) = in_flight.iter().position(|e| e.0 == c.corr) else {
                break 'run;
            };
            let (_, frame, t0, root) = in_flight.swap_remove(at);
            rec.push(root, frame, "net", "WireClient::recv", t_recv, t1);
            rec.finish(root, t1);
            out.lat_ns.push(t1 - t0);
            let (ops, expect) = stream.frame(frame);
            out.tally.check_frame(ops, expect, &c.replies, self.base);
            done += 1;
            if self.seg_frames > 0 && done.is_multiple_of(self.seg_frames) {
                out.seg_end_ns.push(t1);
                if let Some(db) = self.db {
                    let engine = db.engine();
                    out.seg_mem
                        .push(engine.memory_footprint() as f64 / engine.len().max(1) as f64);
                }
            }
        }
        // A broken connection: everything unanswered failed.
        out.tally.fail_frame((total - done) * stream.per_frame);
        out.end_ns = now_ns();
    }
}

/// `ingest-durable`'s restart: how long `Db::open` took and what came
/// back.
pub struct Recover {
    pub start_ns: u64,
    pub end_ns: u64,
    pub elems: usize,
    pub replay: HistogramSnapshot,
}

/// The measured phase and the state around it.
pub struct Phase {
    /// Ops of the measured phase (warm-up excluded).
    pub ops: u64,
    /// Ops the server's counters saw: warm-up included.
    pub ops_with_warmup: u64,
    /// Of those, the reads (gets, sums, scans).
    pub read_ops: u64,
    pub wall_ns: u64,
    pub cpu: CpuTimes,
    pub lat_sorted_ns: Vec<u64>,
    /// Per connection, ops/s of each segment.
    pub seg_rates: Vec<Vec<f64>>,
    /// The store's resident bytes per element at every segment end of
    /// every connection.
    pub seg_mem: Vec<f64>,
    /// Warm-up and measured phase together.
    pub tally: Tally,
    pub net: NetSnapshot,
    pub metrics: MetricsSnapshot,
    pub engine_before: EngineSnapshot,
    /// WAL directory growth over the measured phase.
    pub wal_bytes: u64,
    /// Events the engine's journal recorded since the `Db` was built.
    pub journal_events: u64,
    pub recover: Option<Recover>,
}

pub struct Pass {
    pub setup_s: f64,
    pub pregen_s: f64,
    pub conns: usize,
    pub router_workers: usize,
    pub wal_fs: Option<String>,
    pub phase: Option<Phase>,
}

/// Sets the workload up from nothing and, if `measure`, runs and
/// verifies its measured phase. `share_div` shortens the phase (the
/// traced run measures a quarter).
pub fn run(
    w: &Workload,
    seed: u64,
    scale: Scale,
    share_div: usize,
    out_dir: &Path,
    measure: bool,
) -> Result<Pass, String> {
    let t_setup = now_ns();
    let conns = host::nproc().min(crate::spec::LOGICAL_CONNS);
    let measured_frames = scale.frames_per_conn(w, share_div);
    let inputs = gen::generate(w, scale, seed, measured_frames);
    let pregen_s = (now_ns() - t_setup) as f64 / 1e9;
    let Inputs { base, streams, .. } = &inputs;

    let wal = match w.durable {
        true => Some(WalDir::create(out_dir, "door")?),
        false => None,
    };
    let db = builder(w, wal.as_ref())
        .build_bulk(&base.pairs)
        .map_err(|e| format!("build_bulk: {e}"))?;
    let db = Arc::new(db);
    let server = NetServer::spawn(Arc::clone(&db), NetConfig::default())
        .map_err(|e| format!("NetServer::spawn: {e}"))?;
    let mut wires = Vec::new();
    for _ in 0..conns {
        wires.push(WireClient::connect(server.port()).map_err(|e| format!("connect: {e}"))?);
    }

    let ready = Barrier::new(conns + 1);
    let go = Barrier::new(conns + 1);
    let warm = streams[0].warm_frames;
    let mut setup_s = 0.0;
    let mut started = None;
    let results: Vec<(Tally, ConnResult)> = std::thread::scope(|sc| {
        let handles: Vec<_> = wires
            .into_iter()
            .zip(streams)
            .map(|(mut wire, stream)| {
                let (ready, go) = (&ready, &go);
                let db = &*db;
                sc.spawn(move || {
                    let mut replay = Replay {
                        stream,
                        base,
                        depth: w.depth,
                        seg_frames: 0,
                        db: Some(db),
                    };
                    let mut warmup = ConnResult::default();
                    let mut rec = Recorder::new(false, 0);
                    replay.drive(&mut wire, 0..warm, &mut warmup, &mut rec);
                    ready.wait();
                    let mut res = ConnResult::default();
                    if measure {
                        res.lat_ns.reserve(measured_frames);
                        replay.seg_frames = measured_frames / SEGMENTS;
                        go.wait();
                        let frames = warm..warm + measured_frames;
                        replay.drive(&mut wire, frames, &mut res, &mut rec);
                    }
                    (warmup.tally, res)
                })
            })
            .collect();
        ready.wait();
        setup_s = (now_ns() - t_setup) as f64 / 1e9;
        if measure {
            let engine = db.stats().engine;
            let wal_bytes = wal.as_ref().map_or(0, |d| host::dir_bytes(&d.0));
            started = Some((engine, wal_bytes, CpuTimes::now(), now_ns()));
            go.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut pass = Pass {
        setup_s,
        pregen_s,
        conns,
        router_workers: db.stats().router.workers,
        wal_fs: wal.as_ref().map(|_| host::fs_type(out_dir)),
        phase: None,
    };
    let Some((engine_before, wal_before, cpu0, t_start)) = started else {
        return Ok(pass);
    };
    let cpu = CpuTimes::now().since(&cpu0);
    let t_end = results.iter().map(|r| r.1.end_ns).max().unwrap_or(t_start);

    let mut tally = Tally::default();
    let mut lat = Vec::new();
    let mut seg_rates = Vec::new();
    let mut seg_mem = Vec::new();
    let seg_ops = (measured_frames / SEGMENTS * w.ops_per_frame) as f64;
    for (warm_tally, res) in &results {
        tally.add(warm_tally);
        tally.add(&res.tally);
        lat.extend_from_slice(&res.lat_ns);
        seg_mem.extend_from_slice(&res.seg_mem);
        let mut prev = res.start_ns;
        seg_rates.push(
            res.seg_end_ns
                .iter()
                .map(|&end| {
                    let rate = seg_ops / ((end - prev).max(1) as f64 / 1e9);
                    prev = end;
                    rate
                })
                .collect(),
        );
    }
    lat.sort_unstable();
    let measured = |s: &Stream| warm * s.per_frame..(warm + measured_frames) * s.per_frame;
    let read_ops = streams[..conns]
        .iter()
        .flat_map(|s| &s.ops[measured(s)])
        .filter(|op| !matches!(op, Op::Insert(..) | Op::Remove(_)))
        .count() as u64;

    let net = server.stats();
    let metrics = db.metrics();
    let journal_events = db.engine().obs().journal().total_recorded();
    let wal_bytes = wal
        .as_ref()
        .map_or(0, |d| host::dir_bytes(&d.0).saturating_sub(wal_before));

    // Nothing acknowledged may be missing, nothing refused half-applied.
    let expect_len = base.len() as u64 + tally.inserted - tally.removed;
    tally.failed += (db.len() as u64).abs_diff(expect_len);

    drop(server);
    let mut recover = None;
    if let Some(dir) = &wal {
        drop(Arc::into_inner(db).ok_or("server still holds the Db")?);
        let start_ns = now_ns();
        let reopened = Db::open(dir.0.clone()).map_err(|e| format!("Db::open: {e}"))?;
        let end_ns = now_ns();
        tally.failed += (reopened.len() as u64).abs_diff(expect_len);
        // A sample of acknowledged inserts, spread over every stream.
        let per_conn = REOPEN_SAMPLE / conns;
        for s in &streams[..conns] {
            let acked = &s.ops[..(warm + measured_frames) * s.per_frame];
            let stride = (acked.len() / per_conn).max(1);
            for op in acked.iter().step_by(stride) {
                if let Op::Insert(k, _) = *op {
                    tally.attempted += 1;
                    tally.failed += u64::from(reopened.get(k) != Some(mix64(k)));
                }
            }
        }
        recover = Some(Recover {
            start_ns,
            end_ns,
            elems: reopened.len(),
            replay: reopened
                .metrics()
                .wal
                .map(|m| m.replay)
                .ok_or("reopened Db has no WAL metrics")?,
        });
    }

    pass.phase = Some(Phase {
        ops: (conns * measured_frames * w.ops_per_frame) as u64,
        ops_with_warmup: (conns * (warm + measured_frames) * w.ops_per_frame) as u64,
        read_ops,
        wall_ns: t_end - t_start,
        cpu,
        lat_sorted_ns: lat,
        seg_rates,
        seg_mem,
        tally,
        net,
        metrics,
        engine_before,
        wal_bytes,
        journal_events,
        recover,
    });
    Ok(pass)
}
