//! The network front-end: a single-threaded, non-blocking epoll event
//! loop that accepts loopback TCP connections, decodes wire-format
//! request frames into the session router, and streams response
//! frames back as tickets complete.
//!
//! Design notes, in the order they matter:
//!
//! * **One event-loop thread, one session.** The router already
//!   spreads work across shard-affine workers; the front-end's job is
//!   purely to move bytes and bookkeeping. All connection state lives
//!   on the loop thread — no locks, no cross-thread connection maps.
//! * **Completion wake-ups, not polling.** Every submitted ticket
//!   registers an `on_progress` hook that posts an eventfd the epoll
//!   set watches, so the loop parks in `epoll_wait` until either a
//!   socket or the router has something for it.
//! * **Wire-side group commit.** All small requests decoded in one
//!   loop iteration — across *all* connections — are merged into a
//!   single router submit (up to `MERGE_WINDOW_OPS` = 1024 ops).
//!   Under high connection counts this turns N tiny batches into one
//!   worker pass, the same trick the WAL plays with group commit,
//!   applied one layer up.
//! * **One walk from replies to frames.** A merged submit remembers
//!   its requests as `Part`s — one `(connection, corr)` each,
//!   disjoint and in the order their ops sit in the batch. A ticket
//!   hands back what landed in landing order
//!   ([`Ticket::take_ready`]); the loop sorts that by batch slot and
//!   walks it against the parts once, building one response frame per
//!   part that had anything land — no lookup per reply.
//! * **Backpressure, two ways.** A connection stops being read (its
//!   `EPOLLIN` interest is dropped) while it has `MAX_INFLIGHT` = 8
//!   unanswered requests or more than
//!   [`write_buf_cap`](NetConfig::write_buf_cap) unsent reply bytes.
//!   The kernel socket buffer then fills and the client's own writes
//!   block — backpressure propagates without the server buffering
//!   unboundedly.
//! * **Chunked scans, sized by the budget that bounds them.** One
//!   reply chunk is a quarter of
//!   [`write_buf_cap`](NetConfig::write_buf_cap) in bytes — 4096
//!   entries, 64 KiB, at the default. A `Scan` asking for more is
//!   clamped to a chunk, and each completed chunk schedules a
//!   continuation from the last key seen — but only while the
//!   connection's write buffer is under its cap, so one huge scan to
//!   a slow reader holds at most `cap + cap/4` reply bytes (plus a
//!   frame's few header bytes) and never blocks other connections. A
//!   scan that fits a chunk is one router submit and one frame; every
//!   continuation is a loop → worker → eventfd → loop round trip with
//!   its own ticket, which is why the chunk is as large as the bound
//!   allows and not a knob of its own. Duplicates of the boundary key
//!   already sent are dropped from the next chunk; a run of
//!   duplicates of a *single* key longer than a chunk cannot make
//!   progress that way and is truncated at the chunk boundary (the
//!   documented inexactness of chunked streaming — chunks are not one
//!   snapshot, concurrent writers may interleave).

use crate::stats::NetStats;
use crate::sys::{Epoll, EventFd, IoStep, Listener};
use crate::wire::{self, Frame, RecvBuf, ResponseEncoder};
use rewiring::libc::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use rma_db::{Db, Op, Reply, Session, Ticket};
use rma_obs::EventKind;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tuning for [`NetServer::spawn`]. `Default` is sized for the
/// loopback benchmark workloads.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// TCP port to bind on `127.0.0.1`; `0` asks the kernel for an
    /// ephemeral port (read it back with [`NetServer::port`]).
    pub port: u16,
    /// Unsent reply bytes one connection may buffer before its reads
    /// (and its scan continuations) pause. Also sizes a scan's reply
    /// chunk: a quarter of this, in 16-byte entries — scans asking
    /// for more stream in chunks of that size, and a connection holds
    /// at most `write_buf_cap + write_buf_cap / 4` reply bytes for
    /// one.
    pub write_buf_cap: usize,
    /// Kernel send-buffer size (`SO_SNDBUF`) for accepted
    /// connections; `0` keeps the kernel's autotuned default. Setting
    /// it bounds how many reply bytes the *kernel* absorbs past
    /// [`write_buf_cap`](NetConfig::write_buf_cap), making
    /// backpressure onset predictable.
    pub sndbuf: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            port: 0,
            write_buf_cap: 256 * 1024,
            sndbuf: 0,
        }
    }
}

impl NetConfig {
    /// Entries in one scan reply chunk: a quarter of `write_buf_cap`
    /// in bytes, at least one entry, and no more than fits a frame
    /// with room to spare however large the cap is set.
    fn scan_chunk(&self) -> usize {
        const ENTRY: usize = 16;
        ((self.write_buf_cap / 4).min(wire::MAX_FRAME_PAYLOAD / 2) / ENTRY).max(1)
    }
}

/// Handle to a running network front-end. Dropping it signals the
/// event loop to shut down and joins the thread (open connections are
/// closed; in-flight tickets are abandoned to the router).
pub struct NetServer {
    port: u16,
    stats: Arc<NetStats>,
    shutdown: Arc<EventFd>,
    join: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `127.0.0.1:{cfg.port}`, registers it with a fresh epoll
    /// set and starts the event-loop thread over `db`'s session
    /// router. Returns once the socket is listening, so a client may
    /// connect immediately.
    pub fn spawn(db: Arc<Db>, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = Listener::bind_loopback(cfg.port)?;
        let port = listener.port();
        let epoll = Epoll::new()?;
        let wake = Arc::new(EventFd::new()?);
        let shutdown = Arc::new(EventFd::new()?);
        epoll.add(listener.raw(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake.raw(), EPOLLIN, TOKEN_WAKE)?;
        epoll.add(shutdown.raw(), EPOLLIN, TOKEN_SHUTDOWN)?;
        let stats = Arc::new(NetStats::default());
        let thread_stats = Arc::clone(&stats);
        let thread_shutdown = Arc::clone(&shutdown);
        let join = std::thread::Builder::new()
            .name("rma-net".into())
            .spawn(move || {
                let journal_on = db.engine().obs().enabled();
                let mut el = EventLoop {
                    db: &db,
                    session: db.session(),
                    cfg,
                    listener,
                    epoll,
                    wake,
                    stats: thread_stats,
                    journal_on,
                    conns: Vec::new(),
                    free: Vec::new(),
                    next_gen: 1,
                    pendings: Vec::new(),
                };
                el.run();
                drop(thread_shutdown); // keep the registered fd alive until exit
            })?;
        Ok(NetServer {
            port,
            stats,
            shutdown,
            join: Some(join),
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// A frozen snapshot of the connection/protocol counters.
    pub fn stats(&self) -> crate::stats::NetSnapshot {
        self.stats.snapshot()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown.signal();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;
const TOKEN_SHUTDOWN: u64 = u64::MAX - 2;

/// Streaming state of one clamped `Scan`, as of its latest submitted
/// chunk.
#[derive(Debug, Clone, Copy)]
struct ScanPlan {
    corr: u32,
    /// The scan's wire slot in its request.
    slot: u16,
    /// First key of the next chunk.
    start: i64,
    /// Entries the client still wants.
    remaining: usize,
    /// Leading entries with key == `start` already emitted by earlier
    /// chunks (dropped from the next chunk's front).
    drop: usize,
}

/// One request's (or continuation's) span inside a submitted batch.
struct Part {
    /// Owning connection (slot | generation), checked on completion
    /// so a reused slot never receives a stale ticket's replies.
    token: u64,
    corr: u32,
    /// Where this part's ops start in the submitted batch.
    ops_start: usize,
    ops_len: usize,
    /// Wire slot of the part's first op (`0` for whole requests, the
    /// scan's slot for continuation parts).
    wire_base: u16,
    /// Local op index → scan streaming state, for clamped scans.
    scans: Vec<(usize, ScanPlan)>,
}

/// A submitted ticket with the parts mapping its batch slots back to
/// connections: disjoint spans in `ops_start` order, each its own
/// `(token, corr)`, together covering the batch.
struct Pending {
    ticket: Ticket,
    parts: Vec<Part>,
}

/// Per-request bookkeeping until its final frame is sent.
struct ReqState {
    corr: u32,
    /// Slots not yet finally answered (a streaming scan stays
    /// unanswered until its last chunk).
    unanswered: usize,
    /// Decode timestamp, for the frame service-time histogram.
    t0: u64,
}

struct Conn {
    fd: crate::sys::OwnedFd,
    token: u64,
    /// Received-but-unparsed bytes.
    rbuf: RecvBuf,
    /// Encoded-but-unsent reply bytes; `wpos` is the send offset.
    wbuf: Vec<u8>,
    wpos: usize,
    /// In-flight requests, at most [`MAX_INFLIGHT`] of them: found
    /// by a walk over their correlation ids.
    reqs: Vec<ReqState>,
    /// Scan continuations waiting for write-buffer headroom.
    conts: VecDeque<ScanPlan>,
    /// Currently registered epoll interest bits.
    interest: u32,
    open_ns: u64,
    frames_in: u64,
    close: bool,
}

/// Unanswered requests one connection may have in flight before its
/// reads pause.
const MAX_INFLIGHT: usize = 8;

impl Conn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Where the in-flight request `corr` sits in `reqs`.
    fn req(&self, corr: u32) -> Option<usize> {
        self.reqs.iter().position(|r| r.corr == corr)
    }

    /// Backpressure: no further request is parsed off this connection
    /// while it has [`MAX_INFLIGHT`] unanswered ones or `write_buf_cap`
    /// unsent reply bytes.
    fn paused(&self, write_buf_cap: usize) -> bool {
        self.reqs.len() >= MAX_INFLIGHT || self.unsent() >= write_buf_cap
    }
}

struct EventLoop<'db> {
    db: &'db Db,
    session: Session<'db>,
    cfg: NetConfig,
    listener: Listener,
    epoll: Epoll,
    wake: Arc<EventFd>,
    stats: Arc<NetStats>,
    journal_on: bool,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
    pendings: Vec<Pending>,
}

fn jlog(db: &Db, on: bool, kind: EventKind, shard: u32, dur_ns: u64, keys: u64) {
    if on {
        db.engine().obs().journal().log(kind, shard, dur_ns, keys);
    }
}

/// What a peer that breaks the protocol gets — a frame that does not
/// parse, a request that does not decode, a correlation id still in
/// flight: counted, journaled with the error's code, and its
/// connection closed (the caller stops parsing it).
fn reject(db: &Db, on: bool, stats: &NetStats, idx: usize, conn: &mut Conn, e: wire::WireError) {
    NetStats::bump(&stats.decode_errors);
    jlog(db, on, EventKind::ProtoError, idx as u32, 0, e.code());
    conn.close = true;
}

fn lookup(conns: &mut [Option<Conn>], token: u64) -> Option<&mut Conn> {
    let idx = (token & 0xFFFF_FFFF) as usize;
    conns.get_mut(idx)?.as_mut().filter(|c| c.token == token)
}

/// Drains the socket into `rbuf`, bounded at one max frame of
/// unparsed backlog. A read that comes back short has emptied the
/// socket, so the loop ends there and not on a second `read` that
/// only returns `EAGAIN`; epoll is level-triggered, so whatever
/// arrives in between (or did not fit) re-arms the loop.
fn read_socket(conn: &mut Conn, stats: &NetStats) {
    loop {
        let spare = conn.rbuf.spare();
        let room = spare.len();
        if room == 0 {
            break;
        }
        match conn.fd.read(spare) {
            Ok(IoStep::Bytes(n)) => {
                conn.rbuf.fill(n);
                NetStats::add(&stats.bytes_in, n as u64);
                if n < room {
                    break;
                }
            }
            Ok(IoStep::WouldBlock) => break,
            Ok(IoStep::Closed) | Err(_) => {
                conn.close = true;
                break;
            }
        }
    }
}

/// Writes as much of `wbuf` as the socket accepts right now.
fn flush(conn: &mut Conn, stats: &NetStats) {
    while conn.wpos < conn.wbuf.len() {
        match conn.fd.write(&conn.wbuf[conn.wpos..]) {
            Ok(IoStep::Bytes(n)) if n > 0 => {
                conn.wpos += n;
                NetStats::add(&stats.bytes_out, n as u64);
            }
            Ok(IoStep::WouldBlock) | Ok(IoStep::Bytes(_)) => break,
            Ok(IoStep::Closed) | Err(_) => {
                conn.close = true;
                break;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > 32 * 1024 {
        conn.wbuf.copy_within(conn.wpos.., 0);
        let len = conn.wbuf.len() - conn.wpos;
        conn.wbuf.truncate(len);
        conn.wpos = 0;
    }
}

/// Applies one completed scan chunk to its plan: the part of `es` to
/// emit now, and the continuation plan if the scan keeps streaming.
fn scan_step(
    plan: ScanPlan,
    es: &[(i64, i64)],
    scan_chunk: usize,
) -> (&[(i64, i64)], Option<ScanPlan>) {
    let submitted = plan.remaining.saturating_add(plan.drop).min(scan_chunk);
    let exhausted = es.len() < submitted;
    let lead = es
        .iter()
        .take_while(|(k, _)| *k == plan.start)
        .count()
        .min(plan.drop);
    let es = &es[lead..];
    let es = &es[..es.len().min(plan.remaining)];
    let emitted = es.len();
    let remaining = plan.remaining - emitted;
    if exhausted || remaining == 0 {
        return (es, None);
    }
    if emitted == 0 {
        // A full chunk of nothing but already-emitted duplicates of
        // `start`: no forward progress at this key — step past it
        // (the documented truncation of >chunk duplicate runs).
        return (
            es,
            Some(ScanPlan {
                start: plan.start.saturating_add(1),
                remaining,
                drop: 0,
                ..plan
            }),
        );
    }
    let last_key = es[emitted - 1].0;
    let dups = es.iter().rev().take_while(|(k, _)| *k == last_key).count();
    let drop = if last_key == plan.start {
        plan.drop + dups
    } else {
        dups
    };
    (
        es,
        Some(ScanPlan {
            start: last_key,
            remaining,
            drop,
            ..plan
        }),
    )
}

/// Ops merged into one router submit by wire-side group commit, at
/// most (a single larger request still goes out whole).
const MERGE_WINDOW_OPS: usize = 1024;

/// Submits `ops` with the ticket's progress hook posting the loop's
/// eventfd.
fn submit_woken(session: &mut Session<'_>, wake: &Arc<EventFd>, ops: &[Op]) -> Ticket {
    let ticket = session.submit(ops);
    let w = Arc::clone(wake);
    ticket.on_progress(move || w.signal());
    ticket
}

impl EventLoop<'_> {
    fn run(&mut self) {
        let mut events: Vec<(u32, u64)> = Vec::new();
        'outer: loop {
            events.clear();
            if self.epoll.wait(&mut events, -1).is_err() {
                break;
            }
            for &(ev, token) in &events {
                match token {
                    TOKEN_SHUTDOWN => break 'outer,
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTENER => self.accept_all(),
                    t => {
                        let Some(conn) = lookup(&mut self.conns, t) else {
                            continue;
                        };
                        if ev & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
                            conn.close = true;
                            continue;
                        }
                        if ev & EPOLLIN != 0 {
                            read_socket(conn, &self.stats);
                        }
                        if ev & EPOLLOUT != 0 {
                            flush(conn, &self.stats);
                        }
                    }
                }
            }
            self.route_completions();
            self.advance();
        }
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }

    fn accept_all(&mut self) {
        while let Ok(Some(fd)) = self.listener.accept() {
            if self.cfg.sndbuf > 0 {
                let _ = fd.set_sndbuf(self.cfg.sndbuf);
            }
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let gen = self.next_gen;
            self.next_gen = self.next_gen.wrapping_add(1).max(1);
            let token = idx as u64 | (gen as u64) << 32;
            if self
                .epoll
                .add(fd.raw(), EPOLLIN | EPOLLRDHUP, token)
                .is_err()
            {
                self.free.push(idx);
                continue;
            }
            self.conns[idx] = Some(Conn {
                fd,
                token,
                rbuf: RecvBuf::default(),
                wbuf: Vec::new(),
                wpos: 0,
                reqs: Vec::with_capacity(MAX_INFLIGHT),
                conts: VecDeque::new(),
                interest: EPOLLIN | EPOLLRDHUP,
                open_ns: rma_obs::now_ns(),
                frames_in: 0,
                close: false,
            });
            let live = self.stats.connections.fetch_add(1, Relaxed) + 1;
            NetStats::bump(&self.stats.accepted);
            jlog(
                self.db,
                self.journal_on,
                EventKind::ConnOpen,
                idx as u32,
                0,
                live,
            );
        }
    }

    /// Routes everything completed tickets have to say: emits reply
    /// frames into connection write buffers, finalizes requests,
    /// queues scan continuations, and drops drained tickets.
    fn route_completions(&mut self) {
        let mut k = 0;
        while k < self.pendings.len() {
            // One acquisition of the ticket's lock tells the whole
            // story: what landed, whether anything is still to come.
            let ready = self.pendings[k].ticket.take_ready();
            if ready.poisoned {
                // A router worker died mid-batch; the affected
                // requests can never be answered. Close their
                // connections rather than leave them hanging.
                let dead = self.pendings.swap_remove(k);
                for part in &dead.parts {
                    if let Some(conn) = lookup(&mut self.conns, part.token) {
                        conn.close = true;
                    }
                }
                continue;
            }
            if !ready.replies.is_empty() {
                self.route_ready(k, ready.replies);
            }
            if ready.drained && self.pendings[k].parts.iter().all(|p| p.scans.is_empty()) {
                self.pendings.swap_remove(k);
            } else {
                k += 1;
            }
        }
    }

    /// Turns what landed on `pendings[k]` into response frames. The
    /// ticket hands replies over in landing order; sorted by batch
    /// slot they line up with the parts (disjoint, in `ops_start`
    /// order), so one forward walk gives every part its replies and
    /// every part that got any exactly one frame, encoded into the
    /// connection's write buffer as the walk meets them.
    fn route_ready(&mut self, k: usize, mut ready: Vec<(u32, Reply)>) {
        // Stable, because that sort merges the workers' ascending
        // runs where an unstable one would sort from scratch.
        ready.sort_by_key(|&(bslot, _)| bslot);
        let mut ready = ready.into_iter().peekable();
        let scan_chunk = self.cfg.scan_chunk();
        for part in &mut self.pendings[k].parts {
            let end = part.ops_start + part.ops_len;
            let in_part = |&(bslot, _): &(u32, Reply)| (bslot as usize) < end;
            if !ready.peek().is_some_and(in_part) {
                continue; // nothing of this part landed in this pass
            }
            let conn = lookup(&mut self.conns, part.token);
            let Some((conn, at)) = conn.and_then(|c| c.req(part.corr).map(|at| (c, at))) else {
                // The connection closed while the batch ran: nobody
                // to answer, and no scan of the part to continue.
                while ready.next_if(in_part).is_some() {}
                part.scans.clear();
                continue;
            };
            let mut frame = ResponseEncoder::begin(&mut conn.wbuf, part.corr);
            let mut finalized = 0;
            while let Some((bslot, reply)) = ready.next_if(in_part) {
                let local = bslot as usize - part.ops_start;
                let wire_slot = part.wire_base + local as u16;
                if let Some(pos) = part.scans.iter().position(|(l, _)| *l == local) {
                    let (_, plan) = part.scans.swap_remove(pos);
                    let Reply::Entries(es) = reply else {
                        // A clamped scan can only answer with
                        // Entries; anything else is an engine bug.
                        unreachable!("scan answered with {reply:?}")
                    };
                    let (emit, next) = scan_step(plan, &es, scan_chunk);
                    frame.entries(&mut conn.wbuf, wire_slot, emit);
                    match next {
                        Some(plan) => conn.conts.push_back(plan),
                        None => finalized += 1,
                    }
                } else {
                    if reply == Reply::Refused {
                        NetStats::bump(&self.stats.refused_ops);
                    }
                    frame.reply(&mut conn.wbuf, wire_slot, &reply);
                    finalized += 1;
                }
            }
            let req = &mut conn.reqs[at];
            req.unanswered -= finalized;
            let (last, t0) = (req.unanswered == 0, req.t0);
            frame.finish(&mut conn.wbuf, last);
            NetStats::bump(&self.stats.frames_out);
            self.stats.track_peak(conn.unsent());
            if last {
                self.stats
                    .frame_service_ns
                    .record(rma_obs::now_ns().saturating_sub(t0));
                conn.reqs.swap_remove(at);
            }
        }
        debug_assert!(ready.next().is_none(), "a reply beyond the last part");
    }

    /// The per-iteration steady-state pass: parse newly read bytes
    /// into (merged) submits, pump gated scan continuations, flush
    /// write buffers, recompute epoll interest, reap closed
    /// connections.
    fn advance(&mut self) {
        let (cfg, scan_chunk) = (self.cfg, self.cfg.scan_chunk());
        // Flush before anything gated on write-buffer headroom
        // (parsing, scan continuations): frames just emitted by
        // completion routing must not keep the gates closed after the
        // socket would have accepted them — there may be no further
        // epoll event to retry on.
        for conn in self.conns.iter_mut().flatten() {
            if !conn.close {
                flush(conn, &self.stats);
            }
        }
        let mut batch: Vec<Op> = Vec::new();
        let mut parts: Vec<Part> = Vec::new();
        let (session, pendings, stats) = (&mut self.session, &mut self.pendings, &*self.stats);
        // One router submit, one ticket, for the requests in `parts`.
        let mut submit_batch = |batch: &mut Vec<Op>, parts: &mut Vec<Part>| {
            if parts.is_empty() {
                return;
            }
            let ticket = submit_woken(session, &self.wake, batch);
            if parts.len() > 1 {
                NetStats::bump(&stats.merged_submits);
                NetStats::add(&stats.merged_requests, parts.len() as u64);
            }
            pendings.push(Pending {
                ticket,
                parts: std::mem::take(parts),
            });
            batch.clear();
        };
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if conn.close {
                continue;
            }
            let mut at = 0usize;
            loop {
                if conn.paused(cfg.write_buf_cap) {
                    break;
                }
                let (payload, consumed) = match wire::split_frame(&conn.rbuf.unparsed()[at..]) {
                    Ok(Frame::Incomplete) => break,
                    Ok(Frame::Payload { payload, consumed }) => (payload, consumed),
                    Err(e) => {
                        reject(self.db, self.journal_on, &self.stats, idx, conn, e);
                        break;
                    }
                };
                let (corr, mut ops) = match wire::decode_request(payload) {
                    Ok(req) => req,
                    Err(e) => {
                        reject(self.db, self.journal_on, &self.stats, idx, conn, e);
                        break;
                    }
                };
                at += consumed;
                conn.frames_in += 1;
                NetStats::bump(&self.stats.frames_in);
                if conn.req(corr).is_some() {
                    // Reusing an in-flight correlation id would cross
                    // two requests' replies — same treatment as a
                    // malformed frame.
                    let e = wire::WireError::DuplicateCorr;
                    reject(self.db, self.journal_on, &self.stats, idx, conn, e);
                    break;
                }
                let t0 = rma_obs::now_ns();
                if ops.is_empty() {
                    wire::encode_response(&mut conn.wbuf, corr, true, &[]);
                    NetStats::bump(&self.stats.frames_out);
                    self.stats.frame_service_ns.record(0);
                    continue;
                }
                let mut scans = Vec::new();
                for (j, op) in ops.iter_mut().enumerate() {
                    if let Op::Scan { start, count } = *op {
                        if count > scan_chunk {
                            *op = Op::Scan {
                                start,
                                count: scan_chunk,
                            };
                            scans.push((
                                j,
                                ScanPlan {
                                    corr,
                                    slot: j as u16,
                                    start,
                                    remaining: count,
                                    drop: 0,
                                },
                            ));
                        }
                    }
                }
                conn.reqs.push(ReqState {
                    corr,
                    unanswered: ops.len(),
                    t0,
                });
                if !batch.is_empty() && batch.len() + ops.len() > MERGE_WINDOW_OPS {
                    submit_batch(&mut batch, &mut parts);
                }
                let ops_start = batch.len();
                let ops_len = ops.len();
                batch.append(&mut ops);
                parts.push(Part {
                    token: conn.token,
                    corr,
                    ops_start,
                    ops_len,
                    wire_base: 0,
                    scans,
                });
            }
            if at > 0 {
                conn.rbuf.consume(at);
            }
        }
        submit_batch(&mut batch, &mut parts);

        // Scan continuations, gated on write-buffer headroom so a
        // blocked reader holds bounded reply bytes.
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if conn.close {
                continue;
            }
            while !conn.conts.is_empty() && conn.unsent() < cfg.write_buf_cap {
                let plan = conn.conts.pop_front().expect("non-empty");
                if conn.req(plan.corr).is_none() {
                    continue;
                }
                let count = plan.remaining.saturating_add(plan.drop).min(scan_chunk);
                let op = Op::Scan {
                    start: plan.start,
                    count,
                };
                let ticket = submit_woken(&mut self.session, &self.wake, &[op]);
                NetStats::bump(&self.stats.scan_chunks);
                self.pendings.push(Pending {
                    ticket,
                    parts: vec![Part {
                        token: conn.token,
                        corr: plan.corr,
                        ops_start: 0,
                        ops_len: 1,
                        wire_base: plan.slot,
                        scans: vec![(0, plan)],
                    }],
                });
            }
        }

        // Flush, recompute interest, reap.
        let mut rearm = false;
        for idx in 0..self.conns.len() {
            let close = {
                let Some(conn) = self.conns[idx].as_mut() else {
                    continue;
                };
                if !conn.close {
                    flush(conn, &self.stats);
                }
                if !conn.close {
                    let paused = conn.paused(cfg.write_buf_cap);
                    let mut want = 0u32;
                    if !paused {
                        want |= EPOLLIN | EPOLLRDHUP;
                    }
                    if conn.unsent() > 0 {
                        want |= EPOLLOUT;
                    }
                    if want != conn.interest {
                        if paused && conn.interest & EPOLLIN != 0 {
                            NetStats::bump(&self.stats.backpressure_pauses);
                        }
                        if self.epoll.modify(conn.fd.raw(), want, conn.token).is_ok() {
                            conn.interest = want;
                        } else {
                            conn.close = true;
                        }
                    }
                    // This flush may have re-opened a gate the earlier
                    // phases saw closed (a peer draining concurrently):
                    // a queued continuation or a parseable frame now
                    // has headroom, but with the write buffer empty and
                    // no ticket in flight there may be no further epoll
                    // event to retry on. Schedule one more pass.
                    if conn.unsent() < cfg.write_buf_cap
                        && (!conn.conts.is_empty()
                            || (conn.reqs.len() < MAX_INFLIGHT
                                && !matches!(wire::frame_len(conn.rbuf.unparsed()), Ok(None))))
                    {
                        rearm = true;
                    }
                }
                conn.close
            };
            if close {
                self.close_conn(idx);
            }
        }
        if rearm {
            self.wake.signal();
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.epoll.del(conn.fd.raw());
        self.free.push(idx);
        self.stats.connections.fetch_sub(1, Relaxed);
        NetStats::bump(&self.stats.closed);
        jlog(
            self.db,
            self.journal_on,
            EventKind::ConnClose,
            idx as u32,
            rma_obs::now_ns().saturating_sub(conn.open_ns),
            conn.frames_in,
        );
        // `conn.fd` drops here, closing the socket. Outstanding parts
        // referencing this token fail the generation check and their
        // replies are discarded.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(start: i64, remaining: usize, drop: usize) -> ScanPlan {
        ScanPlan {
            corr: 1,
            slot: 0,
            start,
            remaining,
            drop,
        }
    }

    #[test]
    fn scan_step_finishes_on_short_chunk() {
        let es = vec![(1, 10), (2, 20)];
        let (emit, next) = scan_step(plan(0, 100, 0), &es, 4);
        assert_eq!(emit, es);
        assert!(next.is_none(), "short chunk means the tree is exhausted");
    }

    #[test]
    fn scan_step_continues_from_last_key_dropping_emitted_dups() {
        // Chunk of 4 out of remaining 10: continue at key 4, which has
        // one emitted duplicate to drop next round.
        let es = vec![(1, 10), (2, 20), (4, 40), (4, 41)];
        let (emit, next) = scan_step(plan(0, 10, 0), &es, 4);
        assert_eq!(emit, es);
        let next = next.expect("keeps streaming");
        assert_eq!(next.start, 4);
        assert_eq!(next.drop, 2);
        assert_eq!(next.remaining, 6);

        // Next chunk re-reads the two dups, then advances.
        let es2 = vec![(4, 40), (4, 41), (5, 50), (6, 60)];
        let (emit2, next2) = scan_step(next, &es2, 4);
        assert_eq!(emit2, vec![(5, 50), (6, 60)]);
        let next2 = next2.expect("still has remaining and full chunk");
        assert_eq!(next2.start, 6);
        assert_eq!(next2.drop, 1);
        assert_eq!(next2.remaining, 4);
    }

    #[test]
    fn scan_step_accumulates_drop_when_boundary_key_repeats() {
        // First chunk ends mid-run of key 7: drop counts grow across
        // consecutive chunks at the same boundary key.
        let es = vec![(7, 1), (7, 2)];
        let (_, next) = scan_step(plan(7, 10, 0), &es, 2);
        let next = next.expect("continues");
        assert_eq!((next.start, next.drop), (7, 2));
        let es2 = vec![(7, 1), (7, 2)];
        // Submitted = min(8 + 2, 4)... chunk 4: got only dups we
        // already sent and the chunk is short → exhausted → done.
        let (emit, fin) = scan_step(next, &es2, 4);
        assert!(emit.is_empty());
        assert!(fin.is_none());
    }

    #[test]
    fn scan_step_truncates_an_overlong_duplicate_run() {
        // Full chunk entirely of already-emitted dups: no progress is
        // possible at this key — step past it.
        let (_, next) = scan_step(plan(7, 10, 0), &[(7, 1), (7, 2)], 2);
        let next = next.expect("continues");
        let (emit, next2) = scan_step(next, &[(7, 1), (7, 2)], 2);
        assert!(emit.is_empty());
        let next2 = next2.expect("skips forward");
        assert_eq!(next2.start, 8);
        assert_eq!(next2.drop, 0);
    }

    #[test]
    fn scan_step_respects_remaining_budget() {
        let es = vec![(1, 10), (2, 20), (3, 30)];
        let (emit, next) = scan_step(plan(0, 2, 0), &es, 3);
        assert_eq!(emit, vec![(1, 10), (2, 20)]);
        assert!(next.is_none(), "client budget exhausted");
    }
}
