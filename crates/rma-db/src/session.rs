//! Sessions, typed operations and tickets — the pipelined client
//! surface of the [`Db`].
//!
//! A [`Session`] is one client's conversation with the database:
//! [`Session::submit`] runs a batch of typed [`Op`]s on the caller's
//! thread and returns a [`Ticket`] that already holds the batch's
//! [`Reply`]s; [`Ticket::wait`] hands them over once they are
//! durable. A client can keep several tickets open and wait them
//! later, so a pipeline of submits shares one durability barrier.
//! There is no thread, channel or runtime between a session and the
//! engine.
//!
//! # Ordering contract
//!
//! A submit has run by the time it returns, so successive submits of
//! one session are ordered, whatever shards they touch: the second
//! sees every op of the first. Inside one submit, ops execute in
//! **runs**: a run is a maximal stretch of consecutive point ops
//! ([`Op::Get`], [`Op::Insert`], [`Op::Remove`]), and a range op
//! ([`Op::SumRange`], [`Op::FirstGe`], [`Op::Scan`]) stands alone
//! between runs. Then:
//!
//! * ops of one run that route to **one shard** — in particular every
//!   op on one key — execute in submission order;
//! * ops of one run on different shards may execute in any order;
//! * a range op is a barrier: it sees every op of its submit before it
//!   and none after it.
//!
//! No reply can tell the difference from strict submission order: a
//! point reply depends only on its own key's history, which the first
//! rule keeps. Ops of *different* sessions interleave — the same
//! per-shard consistency the engine itself provides.
//!
//! The run rule: a session executes each run as one
//! [`ShardedRma::apply_ops`] call, which groups the run's ops by
//! shard, 64 at a time, and pays a group's topology pin, write lock,
//! access record and durability append once. What a run promises is
//! what its ops promise one by one: each op at a stable version of its
//! shard, ops of different shards not one snapshot.
//!
//! # How replies land
//!
//! [`Session::submit`] answers the batch in order into one vector:
//! the reply to the op at position `i` is at position `i`. On a
//! durable [`Db`] the ticket also holds the WAL's appended LSN as the
//! batch finished. [`Ticket::wait`] runs the WAL's commit barrier only
//! when that LSN is not yet durable — the first wait of a pipeline
//! commits for every ticket submitted before it, and the waits after
//! it find their marks covered — and, when the barrier fails, answers
//! the batch's un-durable writes [`Reply::Refused`].

use crate::metrics::{op_index, SessionObs, SAMPLE_EVERY};
use crate::{barrier, refuses_writes, Db};
use rma_core::{Key, Value};
use rma_shard::{PointOp, ShardedRma};
use rma_wal::Wal;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// One typed operation of a [`Session::submit`] batch. The variants
/// mirror the engine's data-plane surface one to one, with its key
/// contract ([`PointOp`]): a key's members form a stack; `Insert`
/// pushes onto its front; `Get`, `FirstGe`, `SumRange` and `Scan` see
/// the front first; `Remove` pops the front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup of the key's front member; answered with
    /// [`Reply::Found`].
    Get(Key),
    /// Insert of a pair on the front of its key's stack (duplicates
    /// kept); answered with [`Reply::Inserted`].
    Insert(Key, Value),
    /// Pop the front member of the key's stack; answered with
    /// [`Reply::Removed`].
    Remove(Key),
    /// Sum up to `count` values from the first key `>= start`;
    /// answered with [`Reply::Sum`].
    SumRange {
        /// First key considered.
        start: Key,
        /// Maximum elements visited.
        count: usize,
    },
    /// First element with key `>=` the probe; answered with
    /// [`Reply::Entry`].
    FirstGe(Key),
    /// Collect up to `count` elements in key order from the first key
    /// `>= start`; answered with [`Reply::Entries`]. The reply buffers
    /// the visited elements, so keep `count` moderate.
    Scan {
        /// First key considered.
        start: Key,
        /// Maximum elements visited (and buffered into the reply).
        count: usize,
    },
}

impl Op {
    /// True for operations that mutate the index — the ones a
    /// degraded (read-only) database answers with [`Reply::Refused`].
    pub(crate) fn is_write(&self) -> bool {
        matches!(self, Op::Insert(..) | Op::Remove(_))
    }

    /// The engine's [`PointOp`] for a `Get`, `Insert` or `Remove`;
    /// `None` for a range op.
    pub(crate) fn point(&self) -> Option<PointOp> {
        match *self {
            Op::Get(k) => Some(PointOp::Get(k)),
            Op::Insert(k, v) => Some(PointOp::Insert(k, v)),
            Op::Remove(k) => Some(PointOp::Remove(k)),
            Op::SumRange { .. } | Op::FirstGe(_) | Op::Scan { .. } => None,
        }
    }
}

impl From<PointOp> for Op {
    fn from(op: PointOp) -> Op {
        match op {
            PointOp::Get(k) => Op::Get(k),
            PointOp::Insert(k, v) => Op::Insert(k, v),
            PointOp::Remove(k) => Op::Remove(k),
        }
    }
}

/// The answer to one [`Op`], in the ticket slot matching the op's
/// position in the submitted batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// [`Op::Get`]: the value, if the key was present.
    Found(Option<Value>),
    /// [`Op::Insert`]: the insert happened (inserts cannot fail).
    Inserted,
    /// [`Op::Remove`]: the removed value, if the key was present.
    Removed(Option<Value>),
    /// [`Op::SumRange`]: elements visited and their value sum.
    Sum {
        /// Elements visited.
        visited: usize,
        /// Wrapping sum of the visited values.
        sum: i64,
    },
    /// [`Op::FirstGe`]: the successor pair, if any key qualified.
    Entry(Option<(Key, Value)>),
    /// [`Op::Scan`]: the visited pairs in key order.
    Entries(Vec<(Key, Value)>),
    /// A write submitted while the database is degraded to read-only
    /// (its write-ahead log hit an I/O failure and can no longer
    /// promise durability). The operation was **not** applied — retry
    /// against a recovered database. Reads keep executing normally.
    Refused,
}

/// The replies of one submitted batch, in submission order. Collect
/// them with [`wait`](Self::wait); dropping a ticket abandons the
/// replies, but the operations have run, and dropping the [`Db`] makes
/// them durable.
#[must_use = "the submitted operations' replies arrive through the ticket"]
pub struct Ticket {
    replies: Vec<Reply>,
    /// On a durable [`Db`]: what [`wait`](Self::wait) needs to run the
    /// commit barrier.
    commit: Option<Commit>,
    /// With observability on: the submit timestamp and the histogram
    /// the batch's submit-to-wait wall time is recorded into.
    timed: Option<(u64, Arc<SessionObs>)>,
}

/// The durability a ticket's replies wait for.
struct Commit {
    wal: Arc<Wal>,
    /// Journals the WAL's degradation when this barrier is the one
    /// that fails.
    engine: Arc<ShardedRma>,
    /// The WAL's appended LSN as the batch finished
    /// ([`Wal::appended`]).
    mark: u64,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Operations in the batch this ticket answers.
    pub fn len(&self) -> usize {
        self.replies.len()
    }

    /// True for the ticket of an empty submit.
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty()
    }

    /// Returns the replies in submission order once they are
    /// acknowledged. On a durable [`Db`] that runs the WAL's commit
    /// barrier, unless an earlier barrier already covered this batch;
    /// when the barrier fails, every write of the batch that it was
    /// to make durable is answered [`Reply::Refused`] and the database
    /// is read-only.
    pub fn wait(mut self) -> Vec<Reply> {
        if let Some(c) = &self.commit {
            if !barrier(&c.engine, &c.wal, c.mark) {
                unacknowledge(&mut self.replies);
            }
        }
        if let Some((submitted_ns, obs)) = &self.timed {
            obs.ticket_wait
                .record(rma_obs::now_ns().saturating_sub(*submitted_ns));
        }
        self.replies
    }
}

/// Downgrades a batch's mutation replies to [`Reply::Refused`] after
/// a failed commit: the mutations hit memory but will not survive a
/// crash, so acknowledging them would break the durability contract.
/// `Removed(None)` stays — a remove that found nothing has no durable
/// effect to lose.
fn unacknowledge(replies: &mut [Reply]) {
    for r in replies {
        if matches!(r, Reply::Inserted | Reply::Removed(Some(_))) {
            *r = Reply::Refused;
        }
    }
}

/// One client's pipelined conversation with the [`Db`]: cheap to open,
/// independent of every other session, and bound to the `Db`'s
/// lifetime. It carries the sampling countdowns and the reusable
/// buffers of its point-op runs from submit to submit.
pub struct Session<'db> {
    db: &'db Db,
    /// Per op kind (indexed by [`op_index`]): ops of that kind until
    /// its next timed one, carried across batches, so each kind is
    /// timed exactly 1-in-[`SAMPLE_EVERY`] of its own ops whatever the
    /// mix. One countdown for all kinds would alias with a stream that
    /// repeats its kinds with an even period: frames of one `SumRange`
    /// and one `Scan` would never time a scan. Each starts at 1, so the
    /// first op of a kind is timed.
    countdowns: [u32; 6],
    points: Vec<PointOp>,
    vals: Vec<Option<Value>>,
    /// Positions in the current run of the ops to time.
    timed: Vec<usize>,
}

/// Advances `countdowns` past one op of kind `kind`; true when that op
/// is one to time.
fn expires(countdowns: &mut [u32; 6], kind: usize) -> bool {
    let left = &mut countdowns[kind];
    *left -= 1;
    if *left > 0 {
        return false;
    }
    *left = SAMPLE_EVERY as u32;
    true
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db Db) -> Self {
        Session {
            db,
            countdowns: [1; 6],
            points: Vec::new(),
            vals: Vec::new(),
            timed: Vec::new(),
        }
    }

    /// Runs `ops` against the engine on this thread and returns the
    /// batch's [`Ticket`]. Ops run in submission order, except that
    /// point ops on different shards between two range ops may run in
    /// any order — no reply can tell. A degraded (read-only) database
    /// answers the batch's writes [`Reply::Refused`] without running
    /// them. Submit freely before waiting: the first
    /// [`wait`](Ticket::wait) of a pipeline runs one durability
    /// barrier that covers every ticket submitted so far.
    pub fn submit(&mut self, ops: &[Op]) -> Ticket {
        let db = self.db;
        if ops.is_empty() {
            return Ticket {
                replies: Vec::new(),
                commit: None,
                timed: None,
            };
        }
        let timed = db
            .obs
            .enabled
            .then(|| (rma_obs::now_ns(), Arc::clone(&db.obs)));
        db.counters.batches.fetch_add(1, Relaxed);
        db.counters
            .ops_submitted
            .fetch_add(ops.len() as u64, Relaxed);
        if db.obs.enabled {
            db.obs.batch_size.record(ops.len() as u64);
        }
        let refuse = (db.wal.as_ref()).is_some_and(|w| refuses_writes(&db.engine, w));
        let replies = self.chunk(ops, refuse);
        db.counters
            .ops_executed
            .fetch_add(ops.len() as u64, Relaxed);
        let commit = db.wal.as_ref().map(|w| Commit {
            wal: Arc::clone(w),
            engine: Arc::clone(&db.engine),
            mark: w.appended(),
        });
        Ticket {
            replies,
            commit,
            timed,
        }
    }

    /// Executes one range op, bracketed by a clock-read pair when it
    /// is the one in [`SAMPLE_EVERY`] of its kind that gets timed. A
    /// clock read costs a meaningful fraction of a short read, so the
    /// untimed arm must stay a decrement and a branch.
    fn one(&mut self, op: Op) -> Reply {
        let (engine, obs) = (&*self.db.engine, &*self.db.obs);
        let kind = op_index(&op);
        if !obs.enabled || !expires(&mut self.countdowns, kind) {
            return exec(engine, op);
        }
        let t0 = rma_obs::now_ns();
        let reply = exec(engine, op);
        obs.op_latency[kind].record(rma_obs::now_ns().saturating_sub(t0));
        reply
    }

    /// Executes a run of point ops as one [`ShardedRma::apply_ops`]
    /// call and appends their replies, in the run's order. With
    /// `refuse` set, writes are answered [`Reply::Refused`] without
    /// entering the call. Each op the call runs advances its kind's
    /// countdown; when one expires the whole call is timed once, and
    /// every expired op records the call's mean per-op time under its
    /// kind.
    fn run(&mut self, ops: &[Op], refuse: bool, out: &mut Vec<Reply>) {
        let refused = |op: &Op| refuse && op.is_write();
        self.points.clear();
        (self.points).extend(ops.iter().filter(|op| !refused(op)).filter_map(Op::point));
        let n = self.points.len();
        self.vals.clear();
        self.vals.resize(n, None);
        let (engine, obs) = (&*self.db.engine, &*self.db.obs);
        self.timed.clear();
        if obs.enabled {
            let countdowns = &mut self.countdowns;
            (self.timed)
                .extend((0..n).filter(|&i| expires(countdowns, op_index(&self.points[i].into()))));
        }
        if self.timed.is_empty() {
            engine.apply_ops(&self.points, &mut self.vals);
        } else {
            let t0 = rma_obs::now_ns();
            engine.apply_ops(&self.points, &mut self.vals);
            let mean = rma_obs::now_ns().saturating_sub(t0) / n as u64;
            for &i in &self.timed {
                obs.op_latency[op_index(&self.points[i].into())].record(mean);
            }
        }
        let mut vals = self.vals.iter();
        out.extend(ops.iter().map(|op| {
            if refused(op) {
                return Reply::Refused;
            }
            let v = *vals.next().expect("one answer per op that ran");
            match op {
                Op::Get(_) => Reply::Found(v),
                Op::Insert(..) => Reply::Inserted,
                Op::Remove(_) => Reply::Removed(v),
                _ => unreachable!("a run holds point ops only"),
            }
        }));
    }

    /// Executes a batch and returns one reply per op, in the batch's
    /// order. Every maximal run of point ops (`Get`, `Insert`,
    /// `Remove`) is one [`run`](Self::run); a range op runs alone
    /// between them, a barrier that sees every op of the batch before
    /// it and none after — the ordering contract.
    fn chunk(&mut self, ops: &[Op], refuse: bool) -> Vec<Reply> {
        let mut out = Vec::with_capacity(ops.len());
        let mut rest = ops;
        while let [op, tail @ ..] = rest {
            let points = rest.iter().take_while(|op| op.point().is_some()).count();
            if points == 0 {
                out.push(self.one(*op));
                rest = tail;
            } else {
                self.run(&rest[..points], refuse, &mut out);
                rest = &rest[points..];
            }
        }
        out
    }
}

/// Executes one range operation against the engine — the mapping
/// between the session's range [`Op`]s and the engine's range methods
/// (the direct-call path in [`Db`] uses the same engine methods, so
/// the two surfaces cannot drift). Point ops run through
/// [`ShardedRma::apply_ops`] instead.
fn exec(engine: &ShardedRma, op: Op) -> Reply {
    match op {
        Op::Get(_) | Op::Insert(..) | Op::Remove(_) => {
            unreachable!("point ops run through apply_ops")
        }
        Op::SumRange { start, count } => {
            let (visited, sum) = engine.sum_range(start, count);
            Reply::Sum { visited, sum }
        }
        Op::FirstGe(k) => Reply::Entry(engine.first_ge(k)),
        Op::Scan { start, count } => {
            // Bounded, so a peer's `count` never sizes an allocation.
            let mut out = Vec::with_capacity(count.min(4096));
            engine.scan_into(start, count, &mut out);
            Reply::Entries(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_writes_keep_their_slots_and_never_run() {
        let db = Db::builder().shards(2).build().expect("static config");
        db.insert(1, 10);
        let mut s = db.session();
        let ops = [
            Op::Insert(2, 20),
            Op::Get(1),
            Op::Remove(1),
            Op::FirstGe(0),
            Op::Insert(3, 30),
        ];
        assert_eq!(
            s.chunk(&ops, true),
            [
                Reply::Refused,
                Reply::Found(Some(10)),
                Reply::Refused,
                Reply::Entry(Some((1, 10))),
                Reply::Refused,
            ]
        );
        assert_eq!(db.len(), 1, "no refused write ran");
    }

    #[test]
    fn a_failed_barrier_refuses_only_what_it_would_have_made_durable() {
        let mut replies = [
            Reply::Inserted,
            Reply::Removed(Some(4)),
            Reply::Removed(None),
            Reply::Found(Some(4)),
            Reply::Refused,
        ];
        unacknowledge(&mut replies);
        assert_eq!(
            replies,
            [
                Reply::Refused,
                Reply::Refused,
                Reply::Removed(None),
                Reply::Found(Some(4)),
                Reply::Refused,
            ]
        );
    }
}
