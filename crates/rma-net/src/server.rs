//! The network front-end: a single-threaded, non-blocking epoll event
//! loop that accepts loopback TCP connections, decodes wire-format
//! request frames, executes them through one [`Session`] on the loop
//! thread and writes the response frames back.
//!
//! Design notes, in the order they matter:
//!
//! * **One thread does everything.** The loop parses, executes,
//!   commits and encodes; all connection state lives on it — no
//!   locks, no cross-thread connection maps, no completion wake-ups.
//!   Execution therefore does not overlap with the socket work of a
//!   pipelined client on a second core: serving more than one core's
//!   worth of requests needs more than one loop.
//! * **A pass is five stages, each run once.** `parse` appends every
//!   request every readable connection has buffered — across *all*
//!   connections — to one batch, then every scan continuation the byte
//!   budgets let through; `execute` makes one submit of it; `commit`
//!   waits its one ticket, which on a durable database runs the WAL's
//!   commit barrier; `route` encodes the replies; `settle` flushes,
//!   sets each connection's epoll interest and reaps. So a reply is
//!   always an acknowledgement, and N tiny requests pay one submit's
//!   fixed cost (wire-side group commit). No op window cuts the batch:
//!   every reply waits for the pass's barrier anyway, so a pass's reply
//!   latency and transient memory scale with the whole pass, at most
//!   `MAX_INFLIGHT` requests a connection. `settle` is the one flush:
//!   a connection it leaves bytes on gets `EPOLLOUT`, and the
//!   level-triggered wait before the next pass flushes it.
//! * **Replies map back by position.** The pass's batch remembers its
//!   requests and continuations as `Part`s — one `(connection, corr)`
//!   each, disjoint and in the order their ops sit in the batch; the
//!   ticket's replies are in batch order, so each part takes the next
//!   `ops_len` of them — no lookup per reply. A part's replies go out
//!   in as few frames as [`wire::MAX_FRAME_PAYLOAD`] allows: usually
//!   one. An empty request is a part with no ops, answered by one
//!   frame with no item and `last` set.
//! * **Backpressure, one read gate.** A connection takes requests
//!   while it has fewer than `MAX_INFLIGHT` = 8 unanswered and budget
//!   left of `WRITE_BUF_CAP` = 256 KiB less its unsent bytes; `settle`
//!   drops its `EPOLLIN` while the gate is shut. The kernel socket
//!   buffer then fills and the client's own writes block — without the
//!   server buffering unboundedly.
//! * **Every reply spends one budget; scans come in chunks sized by
//!   it.** One reply chunk is a quarter of `WRITE_BUF_CAP` in bytes —
//!   4096 entries, 64 KiB. A `Scan` asking for more is clamped to a
//!   chunk, and each executed chunk schedules a continuation from the
//!   last key seen, appended to a later pass's batch. A pass gives each
//!   connection a byte budget, the cap less its unsent bytes. Each
//!   parsed request spends its non-scan replies at their encoded size,
//!   and every scan chunk — inline or continued — spends its frame
//!   while the budget is positive. So a connection holds at most the
//!   cap plus one request's replies plus one chunk frame, and never
//!   blocks the others. A scan that meets a spent budget is submitted
//!   for no entries and continues as a plan (so its first chunk may
//!   see ops that come after it, as every continuation may), and no
//!   request is parsed off the connection until the budget recovers.
//!   Every continuation costs a pass, which is why the chunk is as
//!   large as the bound allows and not a knob of its own. Duplicates
//!   of the boundary key already sent are dropped from the next chunk
//!   (a scan meets a key's stack front first, so those are the members
//!   sent); a run of duplicates of a *single* key longer than a chunk
//!   cannot make progress that way and is truncated at the chunk
//!   boundary (the documented inexactness of chunked streaming —
//!   chunks are not one snapshot, concurrent writers may interleave).
//! * **An engine panic closes the pass's connections.** The loop
//!   catches it around the pass's one submit, journals a
//!   `worker_panic` event, closes every connection with a part in the
//!   pass — a request or a scan continuation, an empty request
//!   included — and keeps serving the rest.

use crate::stats::NetStats;
use crate::sys::{Epoll, EventFd};
use crate::wire::{self, Frame, RecvBuf, ResponseEncoder};
use rewiring::libc::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use rma_db::{Db, Op, Reply, Session, Ticket};
use rma_obs::EventKind;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Where [`NetServer::spawn`] listens.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetConfig {
    /// TCP port to bind on `127.0.0.1`; `0` asks the kernel for an
    /// ephemeral port (read it back with [`NetServer::port`]).
    pub port: u16,
}

/// Unsent reply bytes one connection may buffer before its reads (and
/// its scan chunks) pause. Also sizes a scan's reply chunk
/// ([`SCAN_CHUNK`]), so a connection holds at most
/// `WRITE_BUF_CAP`, one request's replies and one chunk frame. These
/// are the server's own bytes: the kernel's send buffer, autotuned,
/// absorbs more before a slow reader's connection fills this one and
/// pauses.
const WRITE_BUF_CAP: usize = 256 * 1024;

/// Entries in one scan reply chunk: a quarter of [`WRITE_BUF_CAP`] in
/// 16-byte entries, 4096 — scans asking for more stream in chunks of
/// this size.
const SCAN_CHUNK: usize = WRITE_BUF_CAP / 4 / 16;
const _: () = assert!(SCAN_CHUNK * 16 <= wire::MAX_FRAME_PAYLOAD / 2);

/// Handle to a running network front-end. Dropping it signals the
/// event loop to shut down and joins the thread (open connections are
/// closed; a pass always finishes before the loop looks for the
/// shutdown, so no batch is left half-answered).
pub struct NetServer {
    port: u16,
    stats: Arc<NetStats>,
    shutdown: Arc<EventFd>,
    join: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `127.0.0.1:{cfg.port}`, registers it with a fresh epoll
    /// set and starts the event-loop thread over a session of `db`.
    /// Returns once the socket is listening, so a client may
    /// connect immediately.
    pub fn spawn(db: Arc<Db>, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let epoll = Epoll::new()?;
        let shutdown = Arc::new(EventFd::new()?);
        epoll.add(&listener, EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(&*shutdown, EPOLLIN, TOKEN_SHUTDOWN)?;
        let stats = Arc::new(NetStats::default());
        let thread_stats = Arc::clone(&stats);
        let thread_shutdown = Arc::clone(&shutdown);
        let join = std::thread::Builder::new()
            .name("rma-net".into())
            .spawn(move || {
                EventLoop::new(&db, listener, epoll, thread_stats).run();
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
const TOKEN_SHUTDOWN: u64 = u64::MAX - 1;

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
    /// Entries the latest chunk was submitted for: 0 when it met a
    /// spent budget and read nothing.
    count: usize,
}

/// One request's (or continuation's) span inside a submitted batch:
/// the parts of a batch are disjoint, in batch order, and together
/// cover it.
struct Part {
    /// Owning connection (slot | generation).
    token: u64,
    corr: u32,
    /// How many of the submitted batch's ops are this part's: it
    /// follows the part before it.
    ops_len: usize,
    /// Wire slot of the part's first op (`0` for whole requests, the
    /// scan's slot for continuation parts).
    wire_base: u16,
    /// Clamped scans' local op index → streaming state, in op order.
    scans: Vec<(usize, ScanPlan)>,
}

/// One loop pass's batch, as [`EventLoop::parse`] gathers it, and the
/// parts that map its replies back.
struct Pass {
    batch: Vec<Op>,
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
    stream: TcpStream,
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
    /// Reply bytes this pass may still add: every parsed request's
    /// non-scan replies and every scan chunk spend it.
    budget: isize,
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

    /// Starts a pass's byte budget: the cap less the unsent bytes.
    fn rebudget(&mut self) {
        self.budget = WRITE_BUF_CAP as isize - self.unsent() as isize;
    }

    /// The read gate: whether a request may be parsed off it now.
    fn takes_requests(&self) -> bool {
        self.reqs.len() < MAX_INFLIGHT && self.budget > 0
    }

    /// Where the in-flight request `corr` sits in `reqs`.
    fn req(&self, corr: u32) -> Option<usize> {
        self.reqs.iter().position(|r| r.corr == corr)
    }

    /// Entries the next chunk of a scan that wants `want` more may
    /// read: up to a chunk while the pass's budget is positive, which
    /// is charged all the bytes its frame can take (16 an entry, 23 of
    /// framing); none once the budget is spent.
    fn spend(&mut self, want: usize) -> usize {
        if self.budget <= 0 {
            return 0;
        }
        let count = want.min(SCAN_CHUNK);
        self.budget -= (16 * count + 23) as isize;
        count
    }
}

struct EventLoop<'db> {
    db: &'db Db,
    session: Session<'db>,
    listener: TcpListener,
    epoll: Epoll,
    stats: Arc<NetStats>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
}

/// What a peer that breaks the protocol gets — a frame that does not
/// parse, a request that does not decode, a correlation id still in
/// flight: counted, journaled with the error's code, and its
/// connection closed (the caller stops parsing it).
fn reject(db: &Db, stats: &NetStats, idx: usize, conn: &mut Conn, e: wire::WireError) {
    NetStats::bump(&stats.decode_errors);
    db.engine()
        .obs()
        .log(EventKind::ProtoError, idx as u32, 0, e.code());
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
/// arrives in between (or did not fit) re-arms the loop. Here and in
/// [`flush`], `WouldBlock` waits for epoll, `Interrupted` retries, and
/// any other error — or a read of `0`, the peer's close — closes the
/// connection.
fn read_socket(conn: &mut Conn, stats: &NetStats) {
    loop {
        let spare = conn.rbuf.spare();
        let room = spare.len();
        if room == 0 {
            break;
        }
        match (&conn.stream).read(spare) {
            Ok(n) if n > 0 => {
                conn.rbuf.fill(n);
                NetStats::add(&stats.bytes_in, n as u64);
                if n < room {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Ok(_) | Err(_) => {
                conn.close = true;
                break;
            }
        }
    }
}

/// Writes as much of `wbuf` as a live socket accepts right now.
fn flush(conn: &mut Conn, stats: &NetStats) {
    while !conn.close && conn.wpos < conn.wbuf.len() {
        match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => break,
            Ok(n) => {
                conn.wpos += n;
                NetStats::add(&stats.bytes_out, n as u64);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
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
fn scan_step(plan: ScanPlan, es: &[(i64, i64)]) -> (&[(i64, i64)], Option<ScanPlan>) {
    let exhausted = es.len() < plan.count;
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
    if plan.count == 0 {
        // A deferred chunk read nothing: resume where the scan was.
        return (es, Some(plan));
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

impl<'db> EventLoop<'db> {
    /// A loop over `db` with no connection yet; `epoll` holds
    /// `listener` under [`TOKEN_LISTENER`].
    fn new(db: &'db Db, listener: TcpListener, epoll: Epoll, stats: Arc<NetStats>) -> Self {
        EventLoop {
            db,
            session: db.session(),
            listener,
            epoll,
            stats,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 1,
        }
    }

    fn run(&mut self) {
        let mut events: Vec<(u32, u64)> = Vec::new();
        // A pass that left work no socket event will announce (a
        // parseable frame, a scan continuation) makes the next wait a
        // poll.
        let mut rearm = false;
        while self.wait(&mut events, if rearm { 0 } else { -1 }) {
            rearm = self.advance();
        }
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }

    /// Waits up to `timeout_ms` (`-1`: no limit) for socket events:
    /// accepts, reads, flushes and marks hung-up connections closed.
    /// False on shutdown or a failed wait.
    fn wait(&mut self, events: &mut Vec<(u32, u64)>, timeout_ms: i32) -> bool {
        events.clear();
        if self.epoll.wait(events, timeout_ms).is_err() {
            return false;
        }
        for &(ev, token) in events.iter() {
            match token {
                TOKEN_SHUTDOWN => return false,
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
        true
    }

    /// Accepts every pending connection as a non-blocking,
    /// `TCP_NODELAY` socket (replies are latency-sensitive and framed
    /// by the protocol, so Nagle only adds delay); stops at an empty
    /// backlog. A socket that cannot be made non-blocking is dropped:
    /// one blocking read would stall every other connection.
    fn accept_all(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let gen = self.next_gen;
            self.next_gen = self.next_gen.wrapping_add(1).max(1);
            let token = idx as u64 | (gen as u64) << 32;
            if self
                .epoll
                .add(&stream, EPOLLIN | EPOLLRDHUP, token)
                .is_err()
            {
                self.free.push(idx);
                continue;
            }
            self.conns[idx] = Some(Conn {
                stream,
                token,
                rbuf: RecvBuf::default(),
                wbuf: Vec::new(),
                wpos: 0,
                reqs: Vec::with_capacity(MAX_INFLIGHT),
                conts: VecDeque::new(),
                budget: 0,
                interest: EPOLLIN | EPOLLRDHUP,
                open_ns: rma_obs::now_ns(),
                frames_in: 0,
                close: false,
            });
            let live = self.stats.connections.fetch_add(1, Relaxed) + 1;
            NetStats::bump(&self.stats.accepted);
            self.db
                .engine()
                .obs()
                .log(EventKind::ConnOpen, idx as u32, 0, live);
        }
    }

    /// One loop pass, in its five stages. Returns whether it left work
    /// that no socket event will announce.
    fn advance(&mut self) -> bool {
        let pass = self.parse();
        if let Some(ticket) = self.execute(&pass) {
            let replies = self.commit(ticket);
            self.route(replies, &pass.parts);
        }
        self.settle()
    }

    /// Gathers the pass: every request each read gate lets through,
    /// then every scan continuation on what the budgets left.
    fn parse(&mut self) -> Pass {
        let (mut batch, mut parts) = (Vec::new(), Vec::new());
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut().filter(|c| !c.close) else {
                continue;
            };
            conn.rebudget();
            let mut at = 0usize;
            while conn.takes_requests() {
                let request = match wire::split_frame(&conn.rbuf.unparsed()[at..]) {
                    Ok(Frame::Incomplete) => break,
                    Ok(Frame::Payload { payload, consumed }) => {
                        wire::decode_request(payload).map(|req| (req, consumed))
                    }
                    Err(e) => Err(e),
                };
                let ((corr, mut ops), consumed) = match request {
                    Ok(request) => request,
                    Err(e) => {
                        reject(self.db, &self.stats, idx, conn, e);
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
                    reject(self.db, &self.stats, idx, conn, e);
                    break;
                }
                let t0 = rma_obs::now_ns();
                let mut scans = Vec::new();
                for (j, op) in ops.iter_mut().enumerate() {
                    conn.budget -= wire::reply_bytes(op) as isize;
                    if let Op::Scan { start, count } = *op {
                        let sent = conn.spend(count);
                        if sent < count {
                            *op = Op::Scan { start, count: sent };
                            let plan = ScanPlan {
                                corr,
                                slot: j as u16,
                                start,
                                remaining: count,
                                drop: 0,
                                count: sent,
                            };
                            scans.push((j, plan));
                        }
                    }
                }
                conn.reqs.push(ReqState {
                    corr,
                    unanswered: ops.len(),
                    t0,
                });
                parts.push(Part {
                    token: conn.token,
                    corr,
                    ops_len: ops.len(),
                    wire_base: 0,
                    scans,
                });
                batch.append(&mut ops);
            }
            if at > 0 {
                conn.rbuf.consume(at);
            }
        }

        // Scan continuations, on what the budget left, so a blocked
        // reader holds bounded reply bytes. Each is a range op after
        // every request of the pass, so it sees the pass's writes.
        for conn in self.conns.iter_mut().flatten().filter(|c| !c.close) {
            while conn.budget > 0 && !conn.conts.is_empty() {
                let mut plan = conn.conts.pop_front().expect("non-empty");
                if conn.req(plan.corr).is_none() {
                    continue;
                }
                plan.count = conn.spend(plan.remaining.saturating_add(plan.drop));
                batch.push(Op::Scan {
                    start: plan.start,
                    count: plan.count,
                });
                NetStats::bump(&self.stats.scan_chunks);
                parts.push(Part {
                    token: conn.token,
                    corr: plan.corr,
                    ops_len: 1,
                    wire_base: plan.slot,
                    scans: vec![(0, plan)],
                });
            }
        }
        Pass { batch, parts }
    }

    /// Runs the pass's batch as one submit. An engine panic must not
    /// take the loop down: it is journaled, every connection with a
    /// part in the pass closes, and there is no ticket.
    fn execute(&mut self, pass: &Pass) -> Option<Ticket> {
        if pass.parts.len() > 1 {
            NetStats::bump(&self.stats.merged_submits);
            NetStats::add(&self.stats.merged_requests, pass.parts.len() as u64);
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| self.session.submit(&pass.batch))) {
            Ok(ticket) => Some(ticket),
            Err(_) => {
                let obs = self.db.engine().obs();
                obs.log(EventKind::WorkerPanic, rma_obs::Event::NO_SHARD, 0, 1);
                for part in &pass.parts {
                    if let Some(conn) = lookup(&mut self.conns, part.token) {
                        conn.close = true;
                    }
                }
                None
            }
        }
    }

    /// The pass's one barrier: its replies, as acknowledgements.
    fn commit(&self, ticket: Ticket) -> Vec<Reply> {
        ticket.wait()
    }

    /// Encodes each part's replies — the next `ops_len` of them — into
    /// its connection's write buffer, finalizes requests and queues
    /// scan continuations.
    fn route(&mut self, replies: Vec<Reply>, parts: &[Part]) {
        let mut replies = replies.into_iter();
        for part in parts {
            // Connections are reaped only between passes, and a part's
            // request is in flight until its last frame.
            let conn = lookup(&mut self.conns, part.token).expect("a part's connection is open");
            let at = conn.req(part.corr).expect("a part's request is in flight");
            let mut frame = ResponseEncoder::begin(&mut conn.wbuf, part.corr);
            let mut scans = part.scans.iter().peekable();
            let mut finalized = 0;
            for (local, reply) in replies.by_ref().take(part.ops_len).enumerate() {
                let wire_slot = part.wire_base + local as u16;
                if let Some(&(_, plan)) = scans.next_if(|(l, _)| *l == local) {
                    let Reply::Entries(es) = reply else {
                        // A clamped scan can only answer with
                        // Entries; anything else is an engine bug.
                        unreachable!("scan answered with {reply:?}")
                    };
                    let (emit, next) = scan_step(plan, &es);
                    if !emit.is_empty() || next.is_none() {
                        frame.entries(&mut conn.wbuf, wire_slot, emit);
                    }
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
            NetStats::add(&self.stats.frames_out, frame.finish(&mut conn.wbuf, last));
            self.stats.track_peak(conn.unsent());
            if last {
                self.stats
                    .frame_service_ns
                    .record(rma_obs::now_ns().saturating_sub(t0));
                conn.reqs.swap_remove(at);
            }
        }
        debug_assert!(replies.next().is_none(), "a reply beyond the last part");
    }

    /// Flushes, sets epoll interest and reaps. Returns whether a
    /// connection has work no socket event will announce.
    fn settle(&mut self) -> bool {
        let mut rearm = false;
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            flush(conn, &self.stats);
            if !conn.close {
                conn.rebudget();
                let paused = !conn.takes_requests();
                let reads = if paused { 0 } else { EPOLLIN | EPOLLRDHUP };
                let want = reads | if conn.unsent() > 0 { EPOLLOUT } else { 0 };
                if want != conn.interest {
                    if paused && conn.interest & EPOLLIN != 0 {
                        NetStats::bump(&self.stats.backpressure_pauses);
                    }
                    if self.epoll.modify(&conn.stream, want, conn.token).is_ok() {
                        conn.interest = want;
                    } else {
                        conn.close = true;
                    }
                }
                // A continuation with budget, or a parseable frame
                // behind an open gate (maybe opened by this flush), may
                // have no further epoll event to retry on.
                rearm |= (conn.budget > 0 && !conn.conts.is_empty())
                    || (!paused && !matches!(wire::frame_len(conn.rbuf.unparsed()), Ok(None)));
            }
            if conn.close {
                self.close_conn(idx);
            }
        }
        rearm
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.epoll.del(&conn.stream);
        self.free.push(idx);
        self.stats.connections.fetch_sub(1, Relaxed);
        NetStats::bump(&self.stats.closed);
        let open_for = rma_obs::now_ns().saturating_sub(conn.open_ns);
        self.db
            .engine()
            .obs()
            .log(EventKind::ConnClose, idx as u32, open_for, conn.frames_in);
        // `conn.stream` drops here, closing the socket; the slot's next
        // connection gets a new generation in its token.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Reads one response frame off a non-blocking socket, retrying a
    /// read that would block for up to a second.
    fn read_frame(stream: &mut TcpStream) -> wire::ResponseFrame {
        let (mut buf, mut tmp) = (Vec::new(), [0u8; 256]);
        for _ in 0..1000 {
            if let Ok(Frame::Payload { payload, .. }) = wire::split_frame(&buf) {
                return wire::decode_response(payload).expect("a response frame");
            }
            match stream.read(&mut tmp) {
                Ok(n) => {
                    assert_ne!(n, 0, "the server closed the connection");
                    buf.extend_from_slice(&tmp[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("read: {e}"),
            }
        }
        panic!("no response frame within a second")
    }

    /// One pass on a durable database, driven stage by stage over
    /// non-blocking loopback sockets with no loop thread: `execute`
    /// applies the pass's insert but runs no barrier and answers
    /// nothing; the client's reply comes only after `commit` has run
    /// the pass's one barrier and `route` and `settle` have sent it.
    #[test]
    fn a_reply_leaves_only_after_the_pass_barrier() {
        let dir = std::env::temp_dir().join(format!(
            "rma-net-stages-{}-{}",
            std::process::id(),
            rewiring::monotonic_ns()
        ));
        let db = Db::open(&dir).expect("a fresh durable database");
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        let port = listener.local_addr().expect("bound").port();
        let epoll = Epoll::new().expect("epoll");
        epoll
            .add(&listener, EPOLLIN, TOKEN_LISTENER)
            .expect("register");
        let mut el = EventLoop::new(&db, listener, epoll, Arc::new(NetStats::default()));
        let mut client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        client.set_nonblocking(true).expect("non-blocking client");
        let mut req = Vec::new();
        wire::encode_request(&mut req, 9, &[Op::Insert(5, 50)]);
        client.write_all(&req).expect("one small request");

        // The first wait accepts, a later one reads the request.
        let mut events = Vec::new();
        let pass = (0..50)
            .find_map(|_| {
                assert!(el.wait(&mut events, 100), "no shutdown is signalled");
                Some(el.parse()).filter(|pass| !pass.parts.is_empty())
            })
            .expect("the request is parsed");
        assert_eq!(pass.batch, [Op::Insert(5, 50)]);

        let commits = || db.metrics().wal.expect("durable").commit.count();
        let before = commits();
        let ticket = el.execute(&pass).expect("the engine does not panic");
        assert_eq!(db.get(5), Some(50), "execute applies the insert");
        assert_eq!(commits(), before, "execute runs no barrier");
        let mut byte = [0u8; 1];
        let early = client.read(&mut byte).map_err(|e| e.kind());
        assert_eq!(
            early,
            Err(ErrorKind::WouldBlock),
            "no reply before the barrier"
        );

        let replies = el.commit(ticket);
        el.route(replies, &pass.parts);
        el.settle();
        let resp = read_frame(&mut client);
        assert_eq!((resp.corr, resp.last), (9, true));
        assert_eq!(resp.items, [(0, Reply::Inserted)]);
        assert_eq!(commits(), before + 1, "the pass's one barrier");

        drop(el);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn plan(start: i64, remaining: usize, drop: usize) -> ScanPlan {
        ScanPlan {
            corr: 1,
            slot: 0,
            start,
            remaining,
            drop,
            count: 0,
        }
    }

    /// `plan` as submitted for its next chunk of at most `chunk`
    /// entries, with the budget to spare.
    fn sent(plan: ScanPlan, chunk: usize) -> ScanPlan {
        let count = plan.remaining.saturating_add(plan.drop).min(chunk);
        ScanPlan { count, ..plan }
    }

    #[test]
    fn scan_step_finishes_on_short_chunk() {
        let es = vec![(1, 10), (2, 20)];
        let (emit, next) = scan_step(sent(plan(0, 100, 0), 4), &es);
        assert_eq!(emit, es);
        assert!(next.is_none(), "short chunk means the tree is exhausted");
    }

    #[test]
    fn scan_step_continues_from_last_key_dropping_emitted_dups() {
        // Chunk of 4 out of remaining 10: continue at key 4, which has
        // one emitted duplicate to drop next round.
        let es = vec![(1, 10), (2, 20), (4, 40), (4, 41)];
        let (emit, next) = scan_step(sent(plan(0, 10, 0), 4), &es);
        assert_eq!(emit, es);
        let next = next.expect("keeps streaming");
        assert_eq!(next.start, 4);
        assert_eq!(next.drop, 2);
        assert_eq!(next.remaining, 6);

        // Next chunk re-reads the two dups, then advances.
        let es2 = vec![(4, 40), (4, 41), (5, 50), (6, 60)];
        let (emit2, next2) = scan_step(sent(next, 4), &es2);
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
        let (_, next) = scan_step(sent(plan(7, 10, 0), 2), &es);
        let next = next.expect("continues");
        assert_eq!((next.start, next.drop), (7, 2));
        let es2 = vec![(7, 1), (7, 2)];
        // Submitted = min(8 + 2, 4)... chunk 4: got only dups we
        // already sent and the chunk is short → exhausted → done.
        let (emit, fin) = scan_step(sent(next, 4), &es2);
        assert!(emit.is_empty());
        assert!(fin.is_none());
    }

    #[test]
    fn scan_step_truncates_an_overlong_duplicate_run() {
        // Full chunk entirely of already-emitted dups: no progress is
        // possible at this key — step past it.
        let (_, next) = scan_step(sent(plan(7, 10, 0), 2), &[(7, 1), (7, 2)]);
        let next = next.expect("continues");
        let (emit, next2) = scan_step(sent(next, 2), &[(7, 1), (7, 2)]);
        assert!(emit.is_empty());
        let next2 = next2.expect("skips forward");
        assert_eq!(next2.start, 8);
        assert_eq!(next2.drop, 0);
    }

    #[test]
    fn scan_step_respects_remaining_budget() {
        let es = vec![(1, 10), (2, 20), (3, 30)];
        let (emit, next) = scan_step(sent(plan(0, 2, 0), 3), &es);
        assert_eq!(emit, vec![(1, 10), (2, 20)]);
        assert!(next.is_none(), "client budget exhausted");
    }

    #[test]
    fn scan_step_of_a_deferred_chunk_keeps_the_scan_where_it_was() {
        let deferred = plan(7, 10, 2);
        let (emit, next) = scan_step(deferred, &[]);
        assert!(emit.is_empty());
        let next = next.expect("still streams");
        assert_eq!((next.start, next.remaining, next.drop), (7, 10, 2));
    }
}
