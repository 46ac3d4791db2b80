//! Input generation: the preloaded key set and one pre-generated op
//! stream per logical connection, both pure functions of `--seed`,
//! drawn from the `workloads` crate's generators. Every op carries the
//! answer the checker expects, fixed at generation time.
//!
//! Key classes: every stored key is even and every stored value is
//! `mix64(key)`, so an answer can be checked without knowing which
//! member of a duplicate-key run the store returned; odd keys are
//! never inserted and are the designated misses.

use crate::spec::{Kind, Scale, Workload, LOGICAL_CONNS, WARMUP_DIV};
use rma_db::Op;
use std::collections::VecDeque;
use workloads::{HotspotConfig, HotspotMotion, KeyStream, Pattern, ShiftingHotspot, SplitMix64};

pub type Key = i64;
pub type Value = i64;

const KEY_DOMAIN: i64 = 1 << 62;

/// The value stored under `k`: the first draw of a `SplitMix64` seeded
/// with the key.
pub fn mix64(k: Key) -> Value {
    SplitMix64::new(k as u64).next_u64() as i64
}

/// The preloaded pairs: sorted, distinct, even, uniform over the
/// 62-bit domain.
pub struct Base {
    pub pairs: Vec<(Key, Value)>,
    /// `prefix[i]` is the wrapping sum of the first `i` values; filled
    /// only for `scan-stream`, whose sums are checked exactly.
    pub prefix: Vec<i64>,
}

impl Base {
    pub fn generate(n: usize, seed: u64, with_prefix: bool) -> Base {
        let mut keys = KeyStream::new(Pattern::Uniform, seed ^ 0xBA5E_0000_0000_0001);
        let mut pairs: Vec<(Key, Value)> = (0..n)
            .map(|_| {
                let k = keys.next_key() & !1;
                (k, mix64(k))
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        let mut prefix = Vec::new();
        if with_prefix {
            prefix.reserve(pairs.len() + 1);
            let mut acc = 0i64;
            prefix.push(acc);
            for p in &pairs {
                acc = acc.wrapping_add(p.1);
                prefix.push(acc);
            }
        }
        Base { pairs, prefix }
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// A preloaded key close to `k`: the keys are uniform, so the rank
    /// is interpolated rather than searched.
    fn near(&self, k: Key) -> Key {
        let i = ((k as u128 * self.len() as u128) >> 62) as usize;
        self.pairs[i.min(self.len() - 1)].0
    }
}

/// What the checker holds a reply to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `Found(Some(mix64(k)))`: a preloaded or own-acknowledged key.
    Hit,
    /// `Found(None)`: an odd key.
    Miss,
    Inserted,
    /// `Removed(Some(mix64(k)))`: an insert of this connection that
    /// was acknowledged before this frame was sent.
    RemovedOwn,
    /// `Sum.visited == count` (the store changes under the sum).
    SumCount,
    /// `Sum` with this exact value sum (static store).
    SumExact(i64),
    /// `Entries` equal to the preloaded pairs from this rank on.
    ScanExact(u32),
}

/// One connection's ops, `per_frame` to a request frame, warm-up
/// frames first.
pub struct Stream {
    pub ops: Vec<Op>,
    pub expect: Vec<Expect>,
    pub per_frame: usize,
    pub warm_frames: usize,
}

impl Stream {
    pub fn frames(&self) -> usize {
        self.ops.len() / self.per_frame
    }

    pub fn frame(&self, i: usize) -> (&[Op], &[Expect]) {
        let r = i * self.per_frame..(i + 1) * self.per_frame;
        (&self.ops[r.clone()], &self.expect[r])
    }
}

/// Everything a run is fed, made before any timing starts.
pub struct Inputs {
    pub base: Base,
    pub streams: Vec<Stream>,
    /// Hash of every generated op, for the repeatability check.
    pub stream_hash: u64,
}

/// Keys this connection inserted, released for reads and removes only
/// `8 * depth` frames later. A session keeps ops on one key in
/// submission order only while its routing snapshot holds still; the
/// lag keeps an insert and its remove so far apart that a re-route by
/// the maintainer between them cannot reorder the two.
struct OwnKeys {
    pending: VecDeque<(Key, usize)>,
    lag: usize,
}

impl OwnKeys {
    fn new(depth: usize) -> Self {
        OwnKeys {
            pending: VecDeque::new(),
            lag: 8 * depth,
        }
    }

    fn push(&mut self, k: Key, frame: usize) {
        self.pending.push_back((k, frame));
    }

    fn pop_acked(&mut self, frame: usize) -> Option<Key> {
        match self.pending.front() {
            Some(&(k, f)) if f + self.lag <= frame => {
                self.pending.pop_front();
                Some(k)
            }
            _ => None,
        }
    }
}

struct ConnGen {
    rng: SplitMix64,
    keys: KeyStream,
    own: OwnKeys,
    /// Acknowledged own inserts that `point-small` reads back.
    readable: Vec<Key>,
    out: Stream,
}

impl ConnGen {
    fn push(&mut self, op: Op, ex: Expect) {
        self.out.ops.push(op);
        self.out.expect.push(ex);
    }

    fn fresh_key(&mut self) -> Key {
        self.keys.next_key() & !1
    }

    fn point_small(&mut self, base: &Base, frame: usize) {
        while let Some(k) = self.own.pop_acked(frame) {
            self.readable.push(k);
        }
        match self.rng.next_below(10) {
            0 => {
                let k = self.fresh_key();
                self.own.push(k, frame);
                self.push(Op::Insert(k, mix64(k)), Expect::Inserted);
            }
            1 => {
                let k = self.keys.next_key() | 1;
                self.push(Op::Get(k), Expect::Miss);
            }
            _ => {
                let own = !self.readable.is_empty() && self.rng.next_below(8) == 0;
                let k = if own {
                    self.readable[self.rng.next_below(self.readable.len() as u64) as usize]
                } else {
                    base.pairs[self.rng.next_below(base.len() as u64) as usize].0
                };
                self.push(Op::Get(k), Expect::Hit);
            }
        }
    }

    fn ingest(&mut self) {
        let k = self.fresh_key();
        self.push(Op::Insert(k, mix64(k)), Expect::Inserted);
    }

    /// One `SumRange` and one `Scan`, both wholly inside the preload.
    fn scan_frame(&mut self, base: &Base) {
        let n = base.len();
        let sum_count = 16384.min(n / 4);
        let scan_count = 4096.min(n / 16);
        let i = self.rng.next_below((n - sum_count) as u64) as usize;
        self.push(
            Op::SumRange {
                start: base.pairs[i].0,
                count: sum_count,
            },
            Expect::SumExact(base.prefix[i + sum_count].wrapping_sub(base.prefix[i])),
        );
        let j = self.rng.next_below((n - scan_count) as u64) as usize;
        self.push(
            Op::Scan {
                start: base.pairs[j].0,
                count: scan_count,
            },
            Expect::ScanExact(j as u32),
        );
    }

    fn mixed(&mut self, base: &Base, frame: usize, drawn: Key) {
        match self.rng.next_below(10) {
            0..=4 => self.push(Op::Get(base.near(drawn)), Expect::Hit),
            5 | 6 => self.mixed_insert(drawn, frame),
            7 | 8 => match self.own.pop_acked(frame) {
                Some(k) => self.push(Op::Remove(k), Expect::RemovedOwn),
                // Nothing acknowledged yet (the first frames only).
                None => self.mixed_insert(drawn, frame),
            },
            _ => {
                // 128 preloaded keys always follow: they are never removed.
                let last = base.pairs[base.len() - 129].0;
                self.push(
                    Op::SumRange {
                        start: drawn.min(last),
                        count: 128,
                    },
                    Expect::SumCount,
                );
            }
        }
    }

    fn mixed_insert(&mut self, drawn: Key, frame: usize) {
        let k = drawn & !1;
        self.own.push(k, frame);
        self.push(Op::Insert(k, mix64(k)), Expect::Inserted);
    }
}

/// Measured frames per connection plus the warm-up frames before them.
pub fn warm_frames(measured_frames: usize) -> usize {
    measured_frames.div_ceil(WARMUP_DIV)
}

pub fn generate(w: &Workload, scale: Scale, seed: u64, measured_frames: usize) -> Inputs {
    let base = Base::generate(scale.preload(w), seed, w.kind == Kind::ScanStream);
    assert!(base.len() > 1024, "preload too small to draw scans from");
    let warm = warm_frames(measured_frames);
    let frames = warm + measured_frames;
    let total_ops = frames * w.ops_per_frame;
    let mut conns: Vec<ConnGen> = (0..LOGICAL_CONNS as u64)
        .map(|c| ConnGen {
            rng: SplitMix64::new(seed ^ (0xC011_0000 + c).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            keys: KeyStream::new(Pattern::Uniform, seed ^ (0x5EED_0000 + c)),
            own: OwnKeys::new(w.depth),
            readable: Vec::new(),
            out: Stream {
                ops: Vec::with_capacity(total_ops),
                expect: Vec::with_capacity(total_ops),
                per_frame: w.ops_per_frame,
                warm_frames: warm,
            },
        })
        .collect();
    // One hotspot generator dealt to the connections in turn, so they
    // hammer the same band at the same time, as clients of one hot
    // region would. Six phases over the measured stream.
    let mut hotspot = ShiftingHotspot::new(
        HotspotConfig {
            domain: KEY_DOMAIN,
            phase_len: (total_ops * LOGICAL_CONNS).div_ceil(6) as u64,
            hot_fraction: 0.9,
            hot_width: KEY_DOMAIN / 64,
            motion: HotspotMotion::Jump,
        },
        seed ^ 0x0407_5907,
    );
    for frame in 0..frames {
        if w.kind == Kind::ScanStream {
            assert_eq!(w.ops_per_frame, 2, "a scan frame is one sum and one scan");
            conns.iter_mut().for_each(|g| g.scan_frame(&base));
            continue;
        }
        for _ in 0..w.ops_per_frame {
            for g in conns.iter_mut() {
                match w.kind {
                    Kind::PointSmall => g.point_small(&base, frame),
                    Kind::IngestDurable => g.ingest(),
                    Kind::MixedHotspot => g.mixed(&base, frame, hotspot.next_key()),
                    Kind::ScanStream => unreachable!("handled per frame"),
                }
            }
        }
    }
    let streams: Vec<Stream> = conns.into_iter().map(|g| g.out).collect();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for s in &streams {
        assert_eq!(s.ops.len(), total_ops);
        for op in &s.ops {
            let (tag, a, b) = match *op {
                Op::Get(k) => (1u64, k, 0),
                Op::Insert(k, v) => (2, k, v),
                Op::Remove(k) => (3, k, 0),
                Op::SumRange { start, count } => (4, start, count as i64),
                Op::FirstGe(k) => (5, k, 0),
                Op::Scan { start, count } => (6, start, count as i64),
            };
            h = (h ^ tag ^ (a as u64).rotate_left(17) ^ (b as u64).rotate_left(41))
                .wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    Inputs {
        base,
        streams,
        stream_hash: h,
    }
}
