//! The channel-based request router: shard-affine worker threads
//! draining [`WorkItem`]s into the engine.
//!
//! One `std::sync::mpsc` channel per worker; a
//! [`Session`](crate::Session) partitions each submitted batch by
//! the shard its keys route to and sends every worker its share in
//! the one shape a batch has on this path: `(slot, op)` pairs in
//! submission order, `slot` being the op's position in the batch.
//! A worker executes its share against the shared
//! [`ShardedRma`](rma_shard::ShardedRma) — each run of point ops in
//! one [`ShardedRma::apply_ops`](rma_shard::ShardedRma::apply_ops)
//! call, each range op alone, in the order the session contract
//! states — and lands the `(slot, reply)`
//! run on the batch's ticket with one append under the ticket's lock
//! — no per-slot indexing on the worker thread; whoever collects the
//! replies orders them by slot (see [`crate::session`]).
//!
//! Shutdown is structural: dropping the router drops every sender,
//! each worker drains what is already queued (tickets never leak
//! incomplete) and exits when its channel disconnects, and the drop
//! joins the threads.

use crate::metrics::{op_index, RouterObs, SAMPLE_EVERY};
use crate::session::{Op, Reply, TicketState};
use rma_obs::EventKind;
use rma_shard::{PointOp, ShardedRma};
use rma_wal::Wal;
use std::iter::StepBy;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One worker's share of a submitted batch: the ticket to land on and
/// the operations routed to this worker, as `(slot, op)` pairs in
/// submission order.
pub(crate) struct WorkItem {
    pub(crate) ticket: Arc<TicketState>,
    pub(crate) ops: Vec<(u32, Op)>,
}

/// Router lifetime counters (all monotonic), surfaced through
/// [`DbSnapshot::router`](crate::DbSnapshot).
#[derive(Debug, Default)]
pub(crate) struct RouterCounters {
    pub(crate) sessions: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) ops_submitted: AtomicU64,
    pub(crate) ops_executed: AtomicU64,
}

/// The worker fleet: senders handed to sessions, join handles owned
/// here. Lives inside [`Db`](crate::Db).
pub(crate) struct Router {
    /// Behind a mutex only so `Db` stays `Sync` on toolchains where
    /// `mpsc::Sender` is not; sessions clone the senders out once at
    /// open.
    senders: Mutex<Vec<Sender<WorkItem>>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<RouterCounters>,
    obs: Arc<RouterObs>,
}

impl Router {
    /// Spawns `workers` threads executing against `engine`. When a
    /// `wal` is configured, each worker drains up to
    /// [`GROUP_COMMIT_WINDOW`] queued chunks per pass, executes them
    /// all, runs **one** durability barrier, and only then completes
    /// their tickets — a reply is the acknowledgement, so nothing is
    /// replied until it is durable, and the fsync cost is shared by
    /// the whole pass.
    pub(crate) fn start(
        engine: &Arc<ShardedRma>,
        workers: usize,
        obs: Arc<RouterObs>,
        wal: Option<Arc<Wal>>,
    ) -> Router {
        debug_assert!(workers >= 1, "validated by the builder");
        let counters = Arc::new(RouterCounters::default());
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<WorkItem>();
            let engine = Arc::clone(engine);
            let counters = Arc::clone(&counters);
            let obs = Arc::clone(&obs);
            let wal = wal.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rma-db-router-{w}"))
                    .spawn(move || worker_loop(&engine, &rx, &counters, &obs, &wal))
                    .expect("spawn router worker"),
            );
            senders.push(tx);
        }
        Router {
            senders: Mutex::new(senders),
            workers: handles,
            counters,
            obs,
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    pub(crate) fn counters(&self) -> &Arc<RouterCounters> {
        &self.counters
    }

    pub(crate) fn obs(&self) -> &Arc<RouterObs> {
        &self.obs
    }

    /// Clones the sender set for a fresh session.
    pub(crate) fn clone_senders(&self) -> Vec<Sender<WorkItem>> {
        self.senders.lock().expect("router lock poisoned").clone()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.senders.lock().expect("router lock poisoned").clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Journals the WAL's one-time transition into degraded mode (the
/// flag is a latch in the WAL, so exactly one caller journals it no
/// matter which path notices first).
pub(crate) fn journal_degraded(engine: &ShardedRma, wal: &Wal) {
    if wal.take_degraded_transition() {
        engine
            .obs()
            .log(EventKind::DegradedMode, rma_obs::Event::NO_SHARD, 0, 0);
    }
}

/// Chunks a worker drains from its queue per pass when a WAL is
/// attached — the group-commit window. One durability barrier (one
/// fsync round under `Always`) covers every chunk executed in the
/// pass, so the per-op fsync cost shrinks with queue depth exactly
/// when the queue is deep. Bounded so a slow barrier cannot starve
/// latency-sensitive callers behind an ever-growing pass.
const GROUP_COMMIT_WINDOW: usize = 32;

/// A chunk executed but not yet acknowledged: its `(slot, reply)` run
/// is parked here across the group's durability barrier, because
/// landing it on the ticket *is* the acknowledgement.
type Executed = (Arc<TicketState>, Vec<(u32, Reply)>);

/// What a worker carries from op to op: the sampling countdown and
/// the reusable buffers of its point-op runs.
struct OpRunner<'a> {
    engine: &'a ShardedRma,
    obs: &'a RouterObs,
    /// Ops until the next timed one, carried across batches so the
    /// sampled op rate is exactly 1-in-[`SAMPLE_EVERY`] regardless of
    /// batch sizes. Starts at 1 so short-lived workloads still get a
    /// sample.
    countdown: u32,
    points: Vec<PointOp>,
    vals: Vec<Option<rma_core::Value>>,
}

impl OpRunner<'_> {
    /// Advances the sampling countdown by `n` ops and returns the
    /// offsets, in `0..n`, of the ops it expired on (none with
    /// observability off).
    fn expiries(&mut self, n: usize) -> StepBy<Range<usize>> {
        if !self.obs.enabled {
            return (0..0).step_by(SAMPLE_EVERY);
        }
        let left = self.countdown as usize;
        if n < left {
            self.countdown = (left - n) as u32;
            return (0..0).step_by(SAMPLE_EVERY);
        }
        let past = n - left;
        self.countdown = (SAMPLE_EVERY - past % SAMPLE_EVERY) as u32;
        (left - 1..n).step_by(SAMPLE_EVERY)
    }

    /// Executes one range op, bracketed by a clock-read pair when it
    /// is the one in [`SAMPLE_EVERY`] that gets timed. A clock read
    /// costs a meaningful fraction of a short read, so the untimed arm
    /// must stay a decrement and a branch.
    fn one(&mut self, op: Op) -> Reply {
        if self.expiries(1).len() == 0 {
            return exec(self.engine, op);
        }
        let idx = op_index(&op);
        let t0 = rma_obs::now_ns();
        let reply = exec(self.engine, op);
        let t1 = rma_obs::now_ns();
        self.obs.op_latency[idx].record(t1.saturating_sub(t0));
        reply
    }

    /// Executes a run of point ops as one [`ShardedRma::apply_ops`]
    /// call and appends their `(slot, reply)`s, in the run's order.
    /// With `refuse` set, writes are answered [`Reply::Refused`]
    /// without entering the call. The countdown advances by the ops
    /// the call runs; when it expires inside them the whole call is
    /// timed once, and every expiry records the call's mean per-op
    /// time under the kind of the op it expired on.
    fn run(&mut self, ops: &[(u32, Op)], refuse: bool, out: &mut Vec<(u32, Reply)>) {
        let refused = |op: &Op| refuse && op.is_write();
        self.points.clear();
        (self.points).extend(
            ops.iter()
                .filter(|(_, op)| !refused(op))
                .filter_map(|(_, op)| op.point()),
        );
        let n = self.points.len();
        self.vals.clear();
        self.vals.resize(n, None);
        let expired = self.expiries(n);
        if expired.len() == 0 {
            self.engine.apply_ops(&self.points, &mut self.vals);
        } else {
            let t0 = rma_obs::now_ns();
            self.engine.apply_ops(&self.points, &mut self.vals);
            let mean = rma_obs::now_ns().saturating_sub(t0) / n as u64;
            for i in expired {
                self.obs.op_latency[op_index(&self.points[i].into())].record(mean);
            }
        }
        let mut vals = self.vals.iter();
        out.extend(ops.iter().map(|&(slot, op)| {
            if refused(&op) {
                return (slot, Reply::Refused);
            }
            let v = *vals.next().expect("one answer per op that ran");
            let reply = match op {
                Op::Get(_) => Reply::Found(v),
                Op::Insert(..) => Reply::Inserted,
                Op::Remove(_) => Reply::Removed(v),
                _ => unreachable!("a run holds point ops only"),
            };
            (slot, reply)
        }));
    }

    /// Executes a chunk and returns one `(slot, reply)` per op, in the
    /// chunk's order. Every maximal run of point ops (`Get`, `Insert`,
    /// `Remove`) is one [`run`](Self::run); a range op runs alone
    /// between them, a barrier that sees every op of the chunk before
    /// it and none after — the session ordering contract.
    fn chunk(&mut self, ops: &[(u32, Op)], refuse: bool) -> Vec<(u32, Reply)> {
        let mut out = Vec::with_capacity(ops.len());
        let mut rest = ops;
        while let [(slot, op), tail @ ..] = rest {
            let points = rest
                .iter()
                .take_while(|(_, op)| op.point().is_some())
                .count();
            if points == 0 {
                out.push((*slot, self.one(*op)));
                rest = tail;
            } else {
                self.run(&rest[..points], refuse, &mut out);
                rest = &rest[points..];
            }
        }
        out
    }
}

fn worker_loop(
    engine: &ShardedRma,
    rx: &Receiver<WorkItem>,
    counters: &RouterCounters,
    obs: &RouterObs,
    wal: &Option<Arc<Wal>>,
) {
    let timed = obs.enabled;
    let mut runner = OpRunner {
        engine,
        obs,
        countdown: 1,
        points: Vec::new(),
        vals: Vec::new(),
    };
    while let Ok(first) = rx.recv() {
        let mut group = vec![first];
        // Group commit: with a WAL attached, drain whatever is
        // already queued so the one durability barrier below covers
        // every chunk in this pass. Without a WAL there is nothing to
        // amortize — completing each chunk as it executes keeps
        // latency minimal.
        if wal.is_some() {
            while group.len() < GROUP_COMMIT_WINDOW {
                match rx.try_recv() {
                    Ok(item) => group.push(item),
                    Err(_) => break,
                }
            }
        }
        if timed {
            obs.pending.fetch_sub(group.len() as u64, Relaxed);
        }
        // A degraded WAL makes the database read-only: refuse the
        // group's writes up front (reads still execute). A
        // degradation that happens *during* the pass is caught by the
        // failing commit below.
        let refuse = wal.as_ref().is_some_and(|w| {
            let degraded = w.is_degraded();
            if degraded {
                // The latch may have been set off-thread (a failed
                // maintainer checkpoint); journal the one-time
                // transition from whoever observes it first.
                journal_degraded(engine, w);
            }
            degraded
        });
        let mut executed: Vec<Executed> = Vec::with_capacity(group.len());
        for WorkItem { ticket, ops } in group {
            // An engine panic mid-chunk must not strand the batch's
            // waiters on the condvar forever: poison the ticket so
            // `wait()` propagates the failure, and keep executing the
            // group's other chunks.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner.chunk(&ops, refuse)
            }));
            match outcome {
                Ok(replies) => executed.push((ticket, replies)),
                Err(_) => {
                    // One poisoned ticket per panicking chunk:
                    // journal it so the event shows up next to the
                    // maintenance history.
                    engine
                        .obs()
                        .log(EventKind::WorkerPanic, rma_obs::Event::NO_SHARD, 0, 1);
                    ticket.poison();
                }
            }
        }
        if let Some(w) = wal {
            // The durability barrier — one per pass, shared by every
            // chunk above. Replies are the acknowledgement, so none
            // may reach a ticket before the log is committed.
            if w.commit().is_err() {
                journal_degraded(engine, w);
                for (_, replies) in &mut executed {
                    unacknowledge(replies);
                }
            }
        }
        let ops: usize = executed.iter().map(|(_, replies)| replies.len()).sum();
        counters.ops_executed.fetch_add(ops as u64, Relaxed);
        for (ticket, replies) in executed {
            ticket.complete(replies);
        }
    }
}

/// Downgrades a chunk's mutation replies to [`Reply::Refused`] after
/// a failed commit: the mutations hit memory but will not survive a
/// crash, so acknowledging them would break the durability contract.
/// `Removed(None)` stays — a remove that found nothing has no durable
/// effect to lose.
fn unacknowledge(replies: &mut [(u32, Reply)]) {
    for (_, r) in replies {
        if matches!(r, Reply::Inserted | Reply::Removed(Some(_))) {
            *r = Reply::Refused;
        }
    }
}

/// Executes one range operation against the engine — the mapping
/// between the router's range [`Op`]s and the engine's range methods
/// (the direct-call path in [`Db`](crate::Db) uses the same engine
/// methods, so the two surfaces cannot drift). Point ops run through
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
