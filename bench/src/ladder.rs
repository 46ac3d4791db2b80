//! The traced run's ladder: connection 0's stream replayed by one
//! client through successively taller stacks — `core` (one
//! `rma_core::Rma`, direct calls), `shard` (direct calls on the `Db`'s
//! `ShardedRma`), `db` (`Session::submit` / `Ticket::wait`), `wal`
//! (`db` plus durability) and `net` (the front door) — so that a
//! layer's cost is its rung minus the rung below. Every rung has its
//! own preloaded store and replays every segment once; the order of
//! the rungs reverses from one segment to the next (ABBA), so drift of
//! the host falls on neighbours alike.

use crate::check::Tally;
use crate::frontdoor::{self, ConnResult, Replay, WalDir};
use crate::gen::{self, Base, Stream};
use crate::host::{now_ns, CpuTimes};
use crate::span::Recorder;
use crate::spec::{Kind, Scale, Workload, LADDER_SEGMENTS, SPAN_SAMPLE};
use abtree::DenseArray;
use pma_baseline::{Tpma, TpmaConfig};
use rma_core::{Rma, RmaConfig, RmaStats};
use rma_db::{Db, ObsConfig, Op, Reply, Ticket, OP_LATENCY_NAMES};
use rma_net::{NetConfig, NetServer, NetSnapshot, WireClient};
use std::collections::VecDeque;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use workloads::SplitMix64;

/// Index of an op's kind, in the order of `rma_db::OP_LATENCY_NAMES`.
fn kind_index(op: &Op) -> usize {
    match op {
        Op::Get(_) => 0,
        Op::Insert(..) => 1,
        Op::Remove(_) => 2,
        Op::SumRange { .. } => 3,
        Op::FirstGe(_) => 4,
        Op::Scan { .. } => 5,
    }
}

/// Sampled timings of direct calls of one op kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindCost {
    pub calls: u64,
    pub ns: u64,
    /// Elements the sampled range ops visited.
    pub elems: u64,
}

/// Counters of the single `Rma` under the `core` rung, over the timed
/// replay: single-threaded on a fixed stream, so exact for a seed.
#[derive(Debug, Clone, Copy)]
pub struct CoreCounts {
    pub stats: RmaStats,
    pub len: usize,
    pub capacity: usize,
    pub num_segments: usize,
    pub memory_footprint: usize,
    pub memfd: bool,
}

/// A store that answers one op at a time on the caller's thread.
/// `None`: this store has no such operation and the op is skipped.
trait Direct {
    fn exec(&mut self, op: &Op) -> Option<Reply>;
    fn len(&self) -> Option<usize>;
}

/// `Rma` and `Db` answer every op through inherent methods of the
/// same names and shapes.
macro_rules! direct_every_op {
    ($store:ty) => {
        impl Direct for $store {
            fn exec(&mut self, op: &Op) -> Option<Reply> {
                Some(match *op {
                    Op::Get(k) => Reply::Found(self.get(k)),
                    Op::Insert(k, v) => {
                        self.insert(k, v);
                        Reply::Inserted
                    }
                    Op::Remove(k) => Reply::Removed(self.remove(k)),
                    Op::SumRange { start, count } => {
                        let (visited, sum) = self.sum_range(start, count);
                        Reply::Sum { visited, sum }
                    }
                    Op::FirstGe(k) => Reply::Entry(self.first_ge(k)),
                    Op::Scan { start, count } => {
                        let mut es = Vec::with_capacity(count);
                        self.scan(start, count, |k, v| es.push((k, v)));
                        Reply::Entries(es)
                    }
                })
            }

            fn len(&self) -> Option<usize> {
                Some(<$store>::len(self))
            }
        }
    };
}

direct_every_op!(Rma);
direct_every_op!(Db);

impl Direct for Tpma {
    fn exec(&mut self, op: &Op) -> Option<Reply> {
        match *op {
            Op::Get(k) => Some(Reply::Found(self.get(k))),
            Op::Insert(k, v) => {
                self.insert(k, v);
                Some(Reply::Inserted)
            }
            Op::Remove(k) => Some(Reply::Removed(self.remove(k))),
            Op::SumRange { start, count } => {
                let (visited, sum) = self.sum_range(start, count);
                Some(Reply::Sum { visited, sum })
            }
            Op::FirstGe(_) | Op::Scan { .. } => None,
        }
    }

    fn len(&self) -> Option<usize> {
        Some(Tpma::len(self))
    }
}

impl Direct for DenseArray {
    fn exec(&mut self, op: &Op) -> Option<Reply> {
        match *op {
            Op::Get(k) => Some(Reply::Found(self.get(k))),
            Op::SumRange { start, count } => {
                let (visited, sum) = self.sum_range(start, count);
                Some(Reply::Sum { visited, sum })
            }
            _ => None,
        }
    }

    fn len(&self) -> Option<usize> {
        None
    }
}

enum Store {
    Rma(Box<Rma>),
    Tpma(Box<Tpma>),
    Dense(DenseArray),
    /// `Db` data-plane methods, called directly.
    Shard(Db),
    /// `Session::submit` / `Ticket::wait`. The WAL directory, if any,
    /// outlives the `Db` (fields drop in order).
    Session {
        db: Db,
        _wal: Option<WalDir>,
    },
    /// The front door. The server goes before the `Db` it serves.
    Net {
        wire: WireClient,
        server: NetServer,
        db: Arc<Db>,
        _wal: Option<WalDir>,
    },
}

/// One rung: its store and everything measured on it.
pub struct Rung {
    pub name: &'static str,
    /// The crate whose cost this rung adds to the one below.
    pub layer: &'static str,
    /// Dropped once the rung's pair is done.
    store: Option<Store>,
    core_before: Option<RmaStats>,
    pub rec: Recorder,
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub kinds: [KindCost; 6],
    /// Frame round trips of the pipelined rungs.
    pub lat_ns: Vec<u64>,
    pub tally: Tally,
    sampler: u64,
    pub core: Option<CoreCounts>,
    pub net: Option<NetSnapshot>,
}

impl Rung {
    fn new(
        name: &'static str,
        layer: &'static str,
        store: Store,
        traced: bool,
        spans: usize,
    ) -> Rung {
        Rung {
            name,
            layer,
            store: Some(store),
            core_before: None,
            rec: Recorder::new(traced, spans),
            ops: 0,
            wall_ns: 0,
            cpu_ns: 0,
            kinds: [KindCost::default(); 6],
            lat_ns: Vec::new(),
            tally: Tally::default(),
            sampler: 0,
            core: None,
            net: None,
        }
    }

    pub fn wall_ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.ops.max(1) as f64
    }

    pub fn cpu_ns_per_op(&self) -> f64 {
        self.cpu_ns as f64 / self.ops.max(1) as f64
    }

    /// Mean sampled nanoseconds per call of one op kind.
    pub fn kind_ns(&self, kind: usize) -> Option<f64> {
        let k = self.kinds[kind];
        (k.calls > 0).then(|| k.ns as f64 / k.calls as f64)
    }

    fn replay(&mut self, w: &Workload, stream: &Stream, frames: Range<usize>, base: &Base) {
        let layer = self.layer;
        let Rung {
            store,
            rec,
            kinds,
            lat_ns,
            tally,
            sampler,
            ..
        } = self;
        match store.as_mut().expect("the rung's pair is still running") {
            Store::Rma(s) => direct(
                &mut **s, layer, stream, frames, base, rec, kinds, tally, sampler,
            ),
            Store::Tpma(s) => direct(
                &mut **s, layer, stream, frames, base, rec, kinds, tally, sampler,
            ),
            Store::Dense(s) => direct(s, layer, stream, frames, base, rec, kinds, tally, sampler),
            Store::Shard(s) => direct(s, layer, stream, frames, base, rec, kinds, tally, sampler),
            Store::Session { db, .. } => {
                pipelined(db, layer, stream, frames, w.depth, base, rec, lat_ns, tally)
            }
            Store::Net { wire, .. } => {
                let mut res = ConnResult::default();
                let replay = Replay {
                    stream,
                    base,
                    depth: w.depth,
                    seg_frames: 0,
                    db: None,
                };
                replay.drive(wire, frames, &mut res, rec);
                lat_ns.append(&mut res.lat_ns);
                tally.add(&res.tally);
            }
        }
    }

    /// Verifies the store's size, keeps its counters, drops it.
    fn finish(&mut self, base: &Base) {
        let store = self.store.take().expect("finished once");
        let len = match &store {
            Store::Rma(s) => Direct::len(&**s),
            Store::Tpma(s) => Direct::len(&**s),
            Store::Dense(s) => Direct::len(s),
            Store::Shard(db) | Store::Session { db, .. } => Some(db.len()),
            Store::Net { db, .. } => Some(db.len()),
        };
        if let Some(len) = len {
            let expect = base.len() as u64 + self.tally.inserted - self.tally.removed;
            self.tally.failed += (len as u64).abs_diff(expect);
        }
        match (&store, &self.core_before) {
            (Store::Rma(rma), Some(before)) => self.core = Some(core_counts(rma, before)),
            (Store::Net { server, .. }, _) => self.net = Some(server.stats()),
            _ => {}
        }
    }
}

/// Direct calls, each frame under a root span, 1-in-16 calls timed.
#[allow(clippy::too_many_arguments)]
fn direct<D: Direct>(
    store: &mut D,
    layer: &'static str,
    stream: &Stream,
    frames: Range<usize>,
    base: &Base,
    rec: &mut Recorder,
    kinds: &mut [KindCost; 6],
    tally: &mut Tally,
    sampler: &mut u64,
) {
    for frame in frames {
        let (ops, expect) = stream.frame(frame);
        let root = rec.open_root(frame, layer, "request", rec.clock());
        for (op, ex) in ops.iter().zip(expect) {
            // A multiplicative hash picks the sample, so that it does
            // not lock onto one slot of a short frame; the first call
            // of a kind is always timed, so that a short replay still
            // prices every kind it has.
            *sampler = sampler.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let sampled = (*sampler >> 32).is_multiple_of(SPAN_SAMPLE as u64)
                || kinds[kind_index(op)].calls == 0;
            let reply = if sampled {
                let t0 = now_ns();
                let reply = store.exec(op);
                let t1 = now_ns();
                let kind = kind_index(op);
                if let Some(r) = &reply {
                    kinds[kind].calls += 1;
                    kinds[kind].ns += t1 - t0;
                    kinds[kind].elems += match r {
                        Reply::Sum { visited, .. } => *visited as u64,
                        Reply::Entries(es) => es.len() as u64,
                        _ => 0,
                    };
                    rec.push(root, frame, layer, OP_LATENCY_NAMES[kind], t0, t1);
                }
                reply
            } else {
                store.exec(op)
            };
            if let Some(reply) = reply {
                tally.check(op, *ex, &reply, base);
            }
        }
        rec.finish(root, rec.clock());
    }
}

/// `Session::submit` with `depth` tickets in flight, `Ticket::wait` in
/// submission order.
#[allow(clippy::too_many_arguments)]
fn pipelined(
    db: &Db,
    layer: &'static str,
    stream: &Stream,
    frames: Range<usize>,
    depth: usize,
    base: &Base,
    rec: &mut Recorder,
    lat_ns: &mut Vec<u64>,
    tally: &mut Tally,
) {
    let mut session = db.session();
    let mut in_flight: VecDeque<(Ticket, usize, u64, u32)> = VecDeque::new();
    let mut collect = |(ticket, frame, t0, root): (Ticket, usize, u64, u32), rec: &mut Recorder| {
        let t_wait = rec.clock();
        let replies = ticket.wait();
        let t1 = now_ns();
        rec.push(root, frame, layer, "Ticket::wait", t_wait, t1);
        rec.finish(root, t1);
        lat_ns.push(t1 - t0);
        let (ops, expect) = stream.frame(frame);
        tally.check_frame(ops, expect, &replies, base);
    };
    for frame in frames {
        let t0 = now_ns();
        let root = rec.open_root(frame, layer, "request", t0);
        let ticket = session.submit(stream.frame(frame).0);
        rec.push(root, frame, layer, "Session::submit", t0, rec.clock());
        in_flight.push_back((ticket, frame, t0, root));
        if in_flight.len() >= depth {
            collect(in_flight.pop_front().expect("non-empty"), rec);
        }
    }
    for entry in in_flight {
        collect(entry, rec);
    }
}

fn core_counts(rma: &Rma, before: &RmaStats) -> CoreCounts {
    let s = rma.stats();
    CoreCounts {
        stats: RmaStats {
            rebalances: s.rebalances - before.rebalances,
            adaptive_rebalances: s.adaptive_rebalances - before.adaptive_rebalances,
            grows: s.grows - before.grows,
            shrinks: s.shrinks - before.shrinks,
            elements_moved: s.elements_moved - before.elements_moved,
            rewired_commits: s.rewired_commits - before.rewired_commits,
            copied_commits: s.copied_commits - before.copied_commits,
        },
        len: rma.len(),
        capacity: rma.capacity(),
        num_segments: rma.num_segments(),
        memory_footprint: rma.memory_footprint(),
        memfd: matches!(rma.backend_kind(), rewiring::BackendKind::Mmap),
    }
}

/// A lower and an upper rung, replayed side by side.
pub struct Pair {
    pub lower: Rung,
    pub upper: Rung,
}

pub struct Ladder {
    pub pairs: Vec<Pair>,
    /// What the rungs replayed: connection 0's stream over this base.
    pub inputs: gen::Inputs,
}

impl Ladder {
    pub fn pair(&self, lower: &str, upper: &str) -> Option<&Pair> {
        self.pairs
            .iter()
            .find(|p| p.lower.name == lower && p.upper.name == upper)
    }

    pub fn rungs(&self) -> impl Iterator<Item = &Rung> {
        self.pairs.iter().flat_map(|p| [&p.lower, &p.upper])
    }
}

/// The (lower, upper) pairs a workload's ladder is made of: the chain
/// `core` -> `shard` -> `db` (-> `wal`) -> `net`, the traced front door
/// against the untraced one, and the side rungs that tie the floor to
/// the paper (copied commits, TPMA, dense array) or price a default
/// (observability).
pub fn pairs_of(w: &Workload) -> Vec<(&'static str, &'static str)> {
    let mut pairs = vec![("core", "shard"), ("shard", "db")];
    match w.kind {
        Kind::IngestDurable => pairs.extend([
            ("db", "wal"),
            ("wal", "net"),
            ("core", "core-copy"),
            ("core", "tpma"),
        ]),
        Kind::ScanStream => pairs.extend([("db", "net"), ("dense", "core")]),
        Kind::MixedHotspot => pairs.extend([("db", "net"), ("db-noobs", "db")]),
        Kind::PointSmall => pairs.push(("db", "net")),
    }
    pairs.push(("net-untraced", "net"));
    pairs
}

/// Replays the ladder pair by pair. A pair's two stores are built
/// fresh, warmed up on the stream's warm-up frames, and replay the
/// timed segments in ABBA order; then both are dropped, so that no
/// more than two stores are resident at a time.
pub fn run(w: &Workload, seed: u64, scale: Scale, out_dir: &Path) -> Result<Ladder, String> {
    let frames = scale.frames_per_conn(w, w.ladder_div);
    let inputs = gen::generate(w, scale, seed, frames);
    let base = &inputs.base;
    let stream = &inputs.streams[0];
    let warm = stream.warm_frames;
    let rma_cfg = rma_shard::ShardConfig::default().rma;
    // Roots and two children per frame at most; sampled calls besides.
    let spans = frames * (3 + w.ops_per_frame / SPAN_SAMPLE + 1);

    let db_of = |name: &str, durable: bool, obs: bool| -> Result<(Db, Option<WalDir>), String> {
        let wal = match durable {
            true => Some(WalDir::create(out_dir, name)?),
            false => None,
        };
        let mut b = frontdoor::builder(w, wal.as_ref());
        if !obs {
            b = b.observability(ObsConfig {
                enabled: false,
                ..ObsConfig::default()
            });
        }
        let db = b
            .build_bulk(&base.pairs)
            .map_err(|e| format!("{name}: {e}"))?;
        Ok((db, wal))
    };
    let rma_of = |cfg: RmaConfig| {
        let mut rma = Box::new(Rma::new(cfg));
        rma.load_bulk(&base.pairs);
        Store::Rma(rma)
    };
    let build = |name: &'static str| -> Result<Rung, String> {
        let (layer, store, traced) = match name {
            "core" => ("core", rma_of(rma_cfg), true),
            "core-copy" => ("rewiring", rma_of(rma_cfg.rewired(false)), true),
            "tpma" => {
                // The TPMA has no bulk load; sorted inserts would hammer
                // its last segment, so the preload goes in shuffled.
                let mut pairs = base.pairs.clone();
                SplitMix64::new(seed).shuffle(&mut pairs);
                let mut tpma = Box::new(Tpma::new(TpmaConfig::traditional()));
                pairs.iter().for_each(|&(k, v)| tpma.insert(k, v));
                ("core", Store::Tpma(tpma), true)
            }
            "dense" => (
                "core",
                Store::Dense(DenseArray::from_sorted(&base.pairs)),
                true,
            ),
            // The shard and db rungs never log: `wal` is the rung that does.
            "shard" => ("shard", Store::Shard(db_of(name, false, true)?.0), true),
            "db" | "db-noobs" | "wal" => {
                let (db, _wal) = db_of(name, name == "wal", name != "db-noobs")?;
                let layer = match name {
                    "db" => "db",
                    "wal" => "wal",
                    _ => "obs",
                };
                (layer, Store::Session { db, _wal }, true)
            }
            "net" | "net-untraced" => {
                let (db, _wal) = db_of(name, w.durable, true)?;
                let db = Arc::new(db);
                let server = NetServer::spawn(Arc::clone(&db), NetConfig::default())
                    .map_err(|e| format!("{name}: {e}"))?;
                let wire =
                    WireClient::connect(server.port()).map_err(|e| format!("{name}: {e}"))?;
                let store = Store::Net {
                    wire,
                    server,
                    db,
                    _wal,
                };
                ("net", store, name == "net")
            }
            _ => unreachable!("no rung called {name}"),
        };
        let mut rung = Rung::new(name, layer, store, traced, spans);
        // Warm-up is neither timed nor traced.
        let rec = std::mem::replace(&mut rung.rec, Recorder::new(false, 0));
        rung.replay(w, stream, 0..warm, base);
        rung.rec = rec;
        rung.kinds = [KindCost::default(); 6];
        rung.lat_ns.clear();
        if let Some(Store::Rma(rma)) = &rung.store {
            rung.core_before = Some(*rma.stats());
        }
        Ok(rung)
    };

    let seg_frames = frames / LADDER_SEGMENTS;
    let mut pairs = Vec::new();
    for (lower, upper) in pairs_of(w) {
        let mut pair = [build(lower)?, build(upper)?];
        for seg in 0..LADDER_SEGMENTS {
            let range = warm + seg * seg_frames..warm + (seg + 1) * seg_frames;
            // Lower first on even segments, upper first on odd ones.
            for i in [seg % 2, 1 - seg % 2] {
                let rung = &mut pair[i];
                let cpu0 = CpuTimes::now();
                let t0 = now_ns();
                rung.replay(w, stream, range.clone(), base);
                rung.wall_ns += now_ns() - t0;
                rung.cpu_ns += CpuTimes::now().since(&cpu0).total_ns();
                rung.ops += (range.len() * w.ops_per_frame) as u64;
            }
        }
        for rung in pair.iter_mut() {
            rung.finish(base);
        }
        let [lower, upper] = pair;
        pairs.push(Pair { lower, upper });
    }
    Ok(Ladder { pairs, inputs })
}
