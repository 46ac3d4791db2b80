//! Sessions, typed operations and tickets — the pipelined client
//! surface of the [`Db`](crate::Db) request router.
//!
//! A [`Session`] is one client's conversation with the database:
//! [`Session::submit`] hands a batch of typed [`Op`]s to the router's
//! shard-affine worker threads and returns a [`Ticket`] immediately,
//! so a client can keep several batches in flight (pipelining) and
//! collect the [`Reply`] sets later with [`Ticket::wait`]. Everything
//! is hand-rolled on `std` channels and condvars — no async runtime,
//! no registry dependencies.
//!
//! # Ordering contract
//!
//! A worker runs its share of a submit (its *chunk*) in **runs**: a
//! run is a maximal stretch of consecutive point ops ([`Op::Get`],
//! [`Op::Insert`], [`Op::Remove`]), and a range op ([`Op::SumRange`],
//! [`Op::FirstGe`], [`Op::Scan`]) stands alone between runs. Then:
//!
//! * ops of one run that route to **one shard** — in particular every
//!   op on one key — execute in submission order;
//! * ops of one run on different shards may execute in any order;
//! * a range op is a barrier: it sees every op of its chunk before it
//!   and none after it.
//!
//! No reply can tell the difference from strict submission order: a
//! point reply depends only on its own key's history, which the first
//! rule keeps. Successive submits on one session keep the per-worker
//! FIFO order of their chunks. Operations that land on *different*
//! workers may interleave with each other and with other sessions —
//! the same per-shard consistency the engine itself provides. For a
//! strict happens-before edge between two batches, `wait()` the
//! first ticket before submitting the second.
//!
//! The run rule: a worker executes each run as one
//! [`ShardedRma::apply_ops`] call, which groups the run's ops by
//! shard, 64 at a time, and pays a group's topology pin, write lock,
//! access record and durability append once. What a run promises is
//! what its ops promise one by one: each op at a stable version of its
//! shard, ops of different shards not one snapshot.
//!
//! # How replies land, and who orders them
//!
//! A batch has one shape from [`Session::submit`] to the reply:
//! `(slot, op)` pairs go to the workers, `(slot, reply)` pairs come
//! back, `slot` being the op's position in the submitted batch. A
//! ticket is a landing queue: each worker appends its whole run —
//! slot-ascending, because it answers its share in submission order
//! — under one acquisition of the ticket's lock, and does no per-slot
//! work there. The runs of different workers land in whatever order
//! the workers finish, so the queue is in *landing order*, and the
//! consumer orders by slot on its own thread: [`Ticket::wait`] sorts
//! once every reply is in, and a streaming consumer gets the queue as
//! it is from [`Ticket::take_ready`].

use crate::metrics::RouterObs;
use crate::router::{RouterCounters, WorkItem};
use rma_core::{Key, Value};
use rma_shard::{PointOp, ShardedRma, Splitters};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// Submits between refreshes of a session's cached routing snapshot;
/// background maintenance moves splitters rarely, and a stale
/// snapshot only costs affinity (a misrouted op still executes
/// correctly — every worker runs against the same engine).
const ROUTING_REFRESH: u32 = 64;

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
    /// The key the router uses for shard-affine placement (range ops
    /// route by their start key, like the engine's stitched reads).
    pub(crate) fn routing_key(&self) -> Key {
        match *self {
            Op::Get(k) | Op::Insert(k, _) | Op::Remove(k) | Op::FirstGe(k) => k,
            Op::SumRange { start, .. } | Op::Scan { start, .. } => start,
        }
    }

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

/// Completion state shared between a [`Ticket`] and the router
/// workers landing replies on it.
pub(crate) struct TicketState {
    slots: Mutex<TicketSlots>,
    done: Condvar,
    /// Present only when observability is on: the submit timestamp
    /// and the histogram the batch's wall time is recorded into when
    /// the last reply lands.
    obs: Option<(u64, Arc<RouterObs>)>,
}

struct TicketSlots {
    total: usize,
    remaining: usize,
    /// Set when a worker panicked while executing this batch: waiters
    /// must propagate the failure instead of blocking forever.
    poisoned: bool,
    /// Replies landed and not yet collected, in landing order: every
    /// worker's run appended whole, slot-ascending within the run.
    landed: Vec<(u32, Reply)>,
    /// Replies already consumed through [`Ticket::take_ready`] —
    /// once non-zero, the ticket is in streaming mode and
    /// [`Ticket::wait`] may no longer be used.
    taken: usize,
    /// Invoked (outside the lock) every time a worker lands replies
    /// into this ticket, and once on poisoning — the event-loop wake
    /// hook of [`Ticket::on_progress`].
    waker: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl TicketSlots {
    /// The complete batch's replies in submission order. The sort
    /// runs on the waiter's thread and is the stable one, which
    /// merges the workers' ascending runs (one run: a single pass).
    fn take_replies(&mut self) -> Vec<Reply> {
        debug_assert_eq!(self.remaining, 0);
        assert_eq!(
            self.taken, 0,
            "wait() cannot follow take_ready(): \
             drain a streaming ticket with take_ready() until Ready::drained"
        );
        let mut landed = std::mem::take(&mut self.landed);
        landed.sort_by_key(|&(slot, _)| slot);
        debug_assert!(
            landed.len() == self.total && (0u32..).zip(&landed).all(|(i, &(slot, _))| i == slot),
            "complete ticket has every slot exactly once"
        );
        landed.into_iter().map(|(_, reply)| reply).collect()
    }
}

impl TicketState {
    pub(crate) fn new(n: usize, obs: Option<(u64, Arc<RouterObs>)>) -> Self {
        TicketState {
            slots: Mutex::new(TicketSlots {
                total: n,
                remaining: n,
                poisoned: false,
                landed: Vec::new(),
                taken: 0,
                waker: None,
            }),
            done: Condvar::new(),
            obs,
        }
    }

    /// Records the batch's submit-to-completion wall time; called
    /// exactly once, when `remaining` hits zero.
    fn record_wait(&self) {
        if let Some((submitted_ns, obs)) = &self.obs {
            obs.ticket_wait
                .record(rma_obs::now_ns().saturating_sub(*submitted_ns));
        }
    }

    /// Marks the batch as failed (a worker panicked executing it) and
    /// wakes waiters so they propagate the failure instead of
    /// blocking forever.
    pub(crate) fn poison(&self) {
        let waker = {
            let mut s = self.slots.lock().expect("ticket lock poisoned");
            s.poisoned = true;
            self.done.notify_all();
            s.waker.clone()
        };
        if let Some(w) = waker {
            w();
        }
    }

    /// Lands one worker's run of `(slot, reply)` pairs — the only way
    /// replies reach a ticket. One lock acquisition, one move (the
    /// first run to land) or append, no per-slot work; wakes waiters
    /// when the batch is complete.
    pub(crate) fn complete(&self, mut run: Vec<(u32, Reply)>) {
        let waker = {
            let mut s = self.slots.lock().expect("ticket lock poisoned");
            s.remaining -= run.len();
            if s.landed.is_empty() {
                s.landed = run;
            } else {
                s.landed.append(&mut run);
            }
            if s.remaining == 0 {
                self.record_wait();
                self.done.notify_all();
            }
            s.waker.clone()
        };
        if let Some(w) = waker {
            w();
        }
    }
}

/// A claim on the replies of one submitted batch. Collect with
/// [`wait`](Self::wait) (blocking) or, streaming, with
/// [`take_ready`](Self::take_ready); dropping a ticket abandons the
/// replies but the operations still execute.
#[must_use = "the submitted operations' replies arrive through the ticket"]
pub struct Ticket {
    pub(crate) state: Arc<TicketState>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.slots.lock().expect("ticket lock poisoned");
        f.debug_struct("Ticket")
            .field("len", &s.total)
            .field("remaining", &s.remaining)
            .finish()
    }
}

impl Ticket {
    /// Operations in the batch this ticket tracks.
    pub fn len(&self) -> usize {
        self.state.slots.lock().expect("ticket lock poisoned").total
    }

    /// True for the ticket of an empty submit.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until every operation of the batch has executed and
    /// returns the replies in submission order.
    ///
    /// # Panics
    ///
    /// Propagates a router-worker panic: if a worker died executing
    /// this batch, `wait` panics instead of blocking forever.
    pub fn wait(self) -> Vec<Reply> {
        let mut s = self.state.slots.lock().expect("ticket lock poisoned");
        while s.remaining > 0 && !s.poisoned {
            s = self.state.done.wait(s).expect("ticket lock poisoned");
        }
        assert!(
            !s.poisoned,
            "a router worker panicked while executing this batch"
        );
        s.take_replies()
    }

    // --------------------------------------- partial completions --
    // The streaming surface used by event-driven consumers (the
    // `rma-net` server): drain replies as workers land them instead
    // of blocking for the whole batch. A ticket that has been
    // partially drained is committed to this mode — `wait` panics
    // after the first `take_ready` — so the two collection
    // styles cannot be mixed by accident.

    /// Removes and returns every reply that has landed since the last
    /// call, as `(slot, reply)` pairs (`slot` is the op's position in
    /// the submitted batch), together with the ticket's state as of
    /// the same lock acquisition — so an event loop polling many
    /// tickets takes one lock per ticket per pass. The pairs come in
    /// landing order, not slot order: each worker's run is contiguous
    /// and slot-ascending, the runs in the order the workers finished
    /// — a consumer that needs slot order sorts what it was handed.
    /// Non-blocking; `replies` is empty when nothing new completed.
    /// Never panics on a poisoned ticket — event loops must keep
    /// running — check [`Ready::poisoned`] to detect that case.
    pub fn take_ready(&mut self) -> Ready {
        let mut s = self.state.slots.lock().expect("ticket lock poisoned");
        let replies = std::mem::take(&mut s.landed);
        s.taken += replies.len();
        Ready {
            replies,
            drained: s.taken == s.total,
            poisoned: s.poisoned,
        }
    }

    /// Registers `f` to be invoked every time a worker lands replies
    /// into this ticket (including the completion that finishes it,
    /// and poisoning). The hook lets an event loop park on its own
    /// wake primitive — an eventfd, a condvar — instead of polling
    /// tickets. If progress already happened before registration, `f`
    /// is invoked once immediately, so a completion can never slip
    /// between submit and registration unobserved. Replaces any
    /// previously registered hook.
    pub fn on_progress(&self, f: impl Fn() + Send + Sync + 'static) {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let fire_now = {
            let mut s = self.state.slots.lock().expect("ticket lock poisoned");
            s.waker = Some(Arc::clone(&f));
            s.poisoned || s.remaining < s.total
        };
        if fire_now {
            f();
        }
    }
}

/// What [`Ticket::take_ready`] found, all read under one acquisition
/// of the ticket's lock.
#[derive(Debug)]
pub struct Ready {
    /// The replies that landed since the previous call, as
    /// `(slot, reply)` pairs in landing order (each worker's run
    /// slot-ascending).
    pub replies: Vec<(u32, Reply)>,
    /// Every reply of the batch has now been taken (always true for
    /// an empty batch): the ticket has nothing more to say.
    pub drained: bool,
    /// A router worker panicked executing the batch: the missing
    /// replies will never arrive. The blocking collector
    /// ([`Ticket::wait`]) panics on this state; a streaming consumer
    /// reads it here.
    pub poisoned: bool,
}

/// One client's pipelined conversation with the [`Db`](crate::Db):
/// cheap to open (clones the router's channel senders and snapshots
/// the splitters for shard-affine routing), independent of every
/// other session, and bound to the `Db`'s lifetime.
pub struct Session<'db> {
    pub(crate) senders: Vec<Sender<WorkItem>>,
    pub(crate) engine: &'db ShardedRma,
    pub(crate) counters: &'db RouterCounters,
    pub(crate) obs: Arc<RouterObs>,
    pub(crate) splitters: Splitters,
    pub(crate) submits_since_refresh: u32,
}

impl Session<'_> {
    /// Hands `ops` to the router and returns immediately with the
    /// batch's [`Ticket`]. Each op is routed to the worker owning its
    /// key's shard range (against this session's routing snapshot),
    /// so consecutive ops on nearby keys stay cache-warm on one
    /// worker. Submit freely before waiting — pipelining submits is
    /// the point of the session API.
    pub fn submit(&mut self, ops: &[Op]) -> Ticket {
        let obs = if self.obs.enabled && !ops.is_empty() {
            Some((rma_obs::now_ns(), Arc::clone(&self.obs)))
        } else {
            None
        };
        let state = Arc::new(TicketState::new(ops.len(), obs));
        if ops.is_empty() {
            return Ticket { state };
        }
        self.refresh_routing();
        self.counters.batches.fetch_add(1, Relaxed);
        self.counters
            .ops_submitted
            .fetch_add(ops.len() as u64, Relaxed);
        if self.obs.enabled {
            self.obs.batch_size.record(ops.len() as u64);
        }
        let workers = self.senders.len();
        let shards = self.splitters.num_shards();
        let mut per_worker: Vec<Vec<(u32, Op)>> = vec![Vec::new(); workers];
        for (i, &op) in ops.iter().enumerate() {
            let w = self.splitters.route(op.routing_key()) * workers / shards;
            per_worker[w].push((i as u32, op));
        }
        for (w, share) in per_worker.into_iter().enumerate() {
            if !share.is_empty() {
                self.send(w, &state, share);
            }
        }
        Ticket { state }
    }

    fn send(&self, worker: usize, state: &Arc<TicketState>, ops: Vec<(u32, Op)>) {
        if self.obs.enabled {
            // Depth *after* this send: how much work a new arrival
            // queues behind, the saturation signal.
            let depth = self.obs.pending.fetch_add(1, Relaxed) + 1;
            self.obs.queue_depth.record(depth);
        }
        self.senders[worker]
            .send(WorkItem {
                ticket: Arc::clone(state),
                ops,
            })
            .expect("router worker alive while the Db lives");
    }

    /// Re-snapshots the splitters every [`ROUTING_REFRESH`] submits
    /// so long-lived sessions track maintenance's topology changes.
    fn refresh_routing(&mut self) {
        self.submits_since_refresh += 1;
        if self.submits_since_refresh >= ROUTING_REFRESH {
            self.submits_since_refresh = 0;
            self.splitters = self.engine.splitters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pending_ticket(n: usize) -> Ticket {
        Ticket {
            state: Arc::new(TicketState::new(n, None)),
        }
    }

    #[test]
    fn wait_wakes_on_cross_thread_completion() {
        let t = pending_ticket(2);
        let state = Arc::clone(&t.state);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            state.complete(vec![(1, Reply::Inserted)]);
            state.complete(vec![(0, Reply::Found(None))]);
        });
        assert_eq!(t.wait(), vec![Reply::Found(None), Reply::Inserted]);
    }

    #[test]
    #[should_panic(expected = "router worker panicked")]
    fn poisoned_ticket_fails_wait_instead_of_blocking() {
        let t = pending_ticket(2);
        t.state.poison();
        let _ = t.wait();
    }

    /// A worker's run in the table test below: slot `s` is answered
    /// `Found(Some(s))`.
    fn run_of(slots: &[u32]) -> Vec<(u32, Reply)> {
        (slots.iter())
            .map(|&s| (s, Reply::Found(Some(s as Value))))
            .collect()
    }

    #[test]
    fn runs_land_whole_in_either_order_and_the_consumer_orders_by_slot() {
        let runs = [[0u32, 2, 5], [1, 3, 4]];
        let in_slot_order: Vec<Reply> = (0..6).map(|s| Reply::Found(Some(s))).collect();
        for (first, second) in [(0, 1), (1, 0)] {
            let (first, second) = (run_of(&runs[first]), run_of(&runs[second]));

            // The blocking consumer: slot order, whatever landed first.
            let t = pending_ticket(6);
            t.state.complete(first.clone());
            t.state.complete(Vec::new()); // an empty run lands nothing
            assert_eq!(format!("{t:?}"), "Ticket { len: 6, remaining: 3 }");
            t.state.complete(second.clone());
            assert_eq!(t.wait(), in_slot_order);

            // The streaming consumer between the landings: exactly the
            // run that landed, then exactly the rest.
            let mut t = pending_ticket(6);
            t.state.complete(first.clone());
            let ready = t.take_ready();
            assert_eq!(ready.replies, first);
            assert!(!ready.drained);
            t.state.complete(Vec::new());
            let ready = t.take_ready();
            assert!(ready.replies.is_empty() && !ready.drained);
            t.state.complete(second.clone());
            let ready = t.take_ready();
            assert_eq!(ready.replies, second);
            assert!(ready.drained && !ready.poisoned);
            // A streamed ticket stays streamed.
            let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.wait()));
            assert!(waited.is_err(), "wait() after take_ready() must panic");

            // The streaming consumer after both: landing order, each
            // run contiguous and slot-ascending.
            let mut t = pending_ticket(6);
            t.state.complete(first.clone());
            t.state.complete(second.clone());
            let ready = t.take_ready();
            assert_eq!(ready.replies, [first, second].concat());
            assert!(ready.drained);
        }
    }

    #[test]
    fn take_ready_streams_partial_completions_in_any_order() {
        let mut t = pending_ticket(3);
        let ready = t.take_ready();
        assert_eq!(ready.replies, vec![], "nothing landed yet");
        assert!(!ready.drained);
        t.state.complete(vec![(2, Reply::Inserted)]);
        let ready = t.take_ready();
        assert_eq!(ready.replies, vec![(2, Reply::Inserted)]);
        assert!(!ready.drained && !ready.poisoned);
        assert_eq!(t.take_ready().replies, vec![], "already consumed");
        t.state
            .complete(vec![(0, Reply::Found(None)), (1, Reply::Removed(Some(9)))]);
        let ready = t.take_ready();
        assert_eq!(
            ready.replies,
            vec![(0, Reply::Found(None)), (1, Reply::Removed(Some(9)))]
        );
        assert!(ready.drained, "the call that takes the last reply says so");
        assert!(t.take_ready().drained, "and so does every call after it");
    }

    #[test]
    fn take_ready_consumes_a_whole_completion_in_slot_order() {
        let mut t = pending_ticket(2);
        t.state
            .complete(vec![(0, Reply::Inserted), (1, Reply::Found(Some(5)))]);
        let ready = t.take_ready();
        assert_eq!(
            ready.replies,
            vec![(0, Reply::Inserted), (1, Reply::Found(Some(5)))]
        );
        assert!(ready.drained);
        assert!(t.take_ready().drained);
    }

    #[test]
    #[should_panic(expected = "cannot follow take_ready")]
    fn wait_after_take_ready_is_a_contract_violation() {
        let mut t = pending_ticket(2);
        t.state.complete(vec![(0, Reply::Inserted)]);
        let _ = t.take_ready();
        t.state.complete(vec![(1, Reply::Inserted)]);
        let _ = t.wait();
    }

    #[test]
    fn take_ready_reports_poison_without_panicking() {
        let mut t = pending_ticket(2);
        t.state.poison();
        let ready = t.take_ready();
        assert_eq!(ready.replies, vec![], "no replies, but no panic either");
        assert!(ready.poisoned && !ready.drained);
    }

    #[test]
    fn on_progress_fires_per_completion_and_catches_up_late_registration() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let t = pending_ticket(2);
        // Progress happened before registration: the hook fires once
        // immediately so the wake cannot be lost.
        t.state.complete(vec![(0, Reply::Inserted)]);
        let fired = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&fired);
        t.on_progress(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1, "catch-up fire");
        t.state.complete(vec![(1, Reply::Inserted)]);
        assert_eq!(fired.load(Ordering::SeqCst), 2, "per-completion fire");
    }
}
