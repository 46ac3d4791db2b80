//! Loopback integration tests for the network front-end: full
//! round-trips of every op type through the wire protocol, pipelined
//! requests, the malformed-frame sweep (a hostile or corrupted
//! connection is closed — and *only* that connection), chunked scan
//! streaming with bounded per-connection reply buffering, isolation
//! of a blocked reader from other connections, and the degraded
//! read-only mode surfacing as a typed protocol refusal instead of a
//! dropped connection.

use rma_repro::db::{Db, DurabilityConfig, FaultInjector, FaultMode, Op, Reply};
use rma_repro::net::{wire, NetConfig, NetServer, WireClient};
use rma_repro::rewiring::libc;
use rma_repro::rma::{RewiringMode, RmaConfig};
use rma_repro::shard::ShardConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn preloaded(n: i64, value: impl Fn(i64) -> i64) -> Arc<Db> {
    let db = Db::builder().shards(4).build().expect("static config");
    let mut s = db.session();
    let ops: Vec<Op> = (0..n).map(|k| Op::Insert(k, value(k))).collect();
    for chunk in ops.chunks(1024) {
        s.submit(chunk).wait();
    }
    drop(s);
    Arc::new(db)
}

fn wait_until(what: &str, mut f: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !f() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn wire_round_trip_all_op_types() {
    let db = preloaded(1000, |k| k * 10);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut c = WireClient::connect(srv.port()).expect("connect");
    let replies = c
        .call(&[
            Op::Get(5),
            Op::Get(-1),
            Op::Insert(5000, 1),
            Op::Remove(7),
            Op::Remove(7),
            Op::SumRange {
                start: 0,
                count: 10,
            },
            Op::FirstGe(998),
            Op::Scan {
                start: 10,
                count: 3,
            },
        ])
        .expect("call");
    assert_eq!(replies[0], Reply::Found(Some(50)));
    assert_eq!(replies[1], Reply::Found(None));
    assert_eq!(replies[2], Reply::Inserted);
    assert_eq!(replies[3], Reply::Removed(Some(70)));
    assert_eq!(replies[4], Reply::Removed(None));
    // Keys 0..=6,8,9,10 (7 was just removed), values k*10.
    assert_eq!(
        replies[5],
        Reply::Sum {
            visited: 10,
            sum: (1 + 2 + 3 + 4 + 5 + 6 + 8 + 9 + 10) * 10,
        }
    );
    assert_eq!(replies[6], Reply::Entry(Some((998, 9980))));
    assert_eq!(
        replies[7],
        Reply::Entries(vec![(10, 100), (11, 110), (12, 120)])
    );
    let stats = srv.stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.connections, 1);
    assert!(stats.frames_in >= 1 && stats.frames_out >= 1);
    assert_eq!(stats.decode_errors, 0);
    drop(c);
    wait_until("connection close", || srv.stats().closed == 1);
    assert_eq!(srv.stats().connections, 0);
}

#[test]
fn pipelined_requests_all_complete() {
    let db = preloaded(1024, |k| k);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut c = WireClient::connect(srv.port()).expect("connect");
    // Twice the per-connection in-flight cap: the server must pause
    // reads at the cap and drain the rest as replies flow.
    let mut expect = Vec::new();
    for i in 0..16i64 {
        let corr = c.send(&[Op::Get(i), Op::Get(i + 100)]).expect("send");
        expect.push((corr, i));
    }
    for _ in 0..16 {
        let done = c.recv().expect("recv");
        let (_, i) = *expect
            .iter()
            .find(|(corr, _)| *corr == done.corr)
            .expect("known corr");
        assert_eq!(done.replies[0], Reply::Found(Some(i)));
        assert_eq!(done.replies[1], Reply::Found(Some(i + 100)));
    }
    assert_eq!(c.in_flight(), 0);
    assert_eq!(srv.stats().frames_in, 16);
}

/// No response frame goes past `MAX_FRAME_PAYLOAD`, however much a
/// legal request asks for: 17 full scans (17 × 64 KiB) and 65 535
/// `FirstGe` probes (20 B a reply, 1.31 MB) each take a second frame.
/// Small requests that arrive together share one submit. Looked at
/// frame by frame over a raw socket (the reassembling `WireClient`
/// would hide it, and `read_response` rejects a length prefix past the
/// cap): every slot of every request is answered exactly once, with
/// its own reply, and only a request's final frame says `last`.
#[test]
fn frames_stay_under_the_cap_and_every_slot_is_answered_once() {
    const KEYS: i64 = 17 * 4096;
    let db = preloaded(KEYS, |k| k * 3);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut s = TcpStream::connect(("127.0.0.1", srv.port())).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    let gets: Vec<Op> = (0..48).map(|i| Op::Get(i * 1000)).collect();
    let scans: Vec<Op> = (0..17)
        .map(|i| Op::Scan {
            start: i * 4096,
            count: 4096,
        })
        .collect();
    let probes: Vec<Op> = (0..u16::MAX as i64).map(Op::FirstGe).collect();
    let requests = [&gets, &gets, &gets, &gets, &scans, &probes];
    let expect = |op: Op| match op {
        Op::Get(k) => Reply::Found(Some(k * 3)),
        Op::Scan { start, count } => {
            Reply::Entries((start..start + count as i64).map(|k| (k, k * 3)).collect())
        }
        Op::FirstGe(k) => Reply::Entry(Some((k, k * 3))),
        other => unreachable!("not sent: {other:?}"),
    };
    // One write: the small requests at its head reach the loop in one
    // read, so one pass decodes them and merges them into one submit.
    let mut burst = Vec::new();
    for (corr, ops) in requests.iter().enumerate() {
        wire::encode_request(&mut burst, corr as u32, ops);
    }
    s.write_all(&burst).expect("burst");

    let mut seen: Vec<Vec<bool>> = requests.iter().map(|r| vec![false; r.len()]).collect();
    let mut frames_of = [0u64; 6];
    let mut open = requests.len();
    let mut buf = Vec::new();
    while open > 0 {
        let resp = read_response(&mut s, &mut buf);
        let r = resp.corr as usize;
        frames_of[r] += 1;
        assert!(!resp.items.is_empty(), "a frame carries replies");
        for (slot, reply) in resp.items {
            let slot = slot as usize;
            let twice = std::mem::replace(&mut seen[r][slot], true);
            assert!(!twice, "request {r} slot {slot} answered twice");
            assert_eq!(reply, expect(requests[r][slot]), "request {r} slot {slot}");
        }
        let complete = seen[r].iter().all(|&s| s);
        assert_eq!(resp.last, complete, "`last` on the final frame only");
        open -= complete as usize;
    }
    assert!(buf.is_empty(), "no frame beyond the last");
    assert_eq!(frames_of[..4], [1; 4], "a small answer is one frame");
    assert!(
        frames_of[4] >= 2 && frames_of[5] >= 2,
        "answers past the cap span frames: {frames_of:?}"
    );
    let stats = srv.stats();
    assert_eq!(stats.frames_in, requests.len() as u64);
    assert_eq!(stats.frames_out, frames_of.iter().sum::<u64>());
    assert!(
        stats.merged_submits > 0,
        "requests read together share a submit"
    );
}

/// Frames the parent of the shared-checksum change produced. Byte
/// literals, not regenerated: they pin the checksum *values* on the
/// wire. A 41-byte request (table kernel) and a 343-byte response
/// holding one 20-entry `Entries` reply (folding kernel).
const FIXTURE_REQUEST: &[u8] = &[
    0x21, 0x00, 0x00, 0x00, 0x07, 0xc0, 0x0e, 0x45, 0x01, 0x09, 0x00, 0x00, 0x00, 0x02, 0x00, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];
const FIXTURE_RESPONSE: &[u8] = &[
    0x4f, 0x01, 0x00, 0x00, 0xa1, 0x57, 0x25, 0xae, 0x02, 0x01, 0xee, 0xff, 0xc0, 0x01, 0x01, 0x00,
    0x03, 0x00, 0x05, 0x14, 0x00, 0x00, 0x00, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3c, 0x42, 0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x7f, 0x84, 0x1e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
    0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0xc2, 0xc6, 0x2d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
    0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x00, 0x05, 0x09, 0x3d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04,
    0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x48, 0x4b, 0x4c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
    0x00, 0x00, 0x00, 0x32, 0x00, 0x00, 0x00, 0x8b, 0x8d, 0x5b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06,
    0x00, 0x00, 0x00, 0x48, 0x00, 0x00, 0x00, 0xce, 0xcf, 0x6a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,
    0x00, 0x00, 0x00, 0x62, 0x00, 0x00, 0x00, 0x11, 0x12, 0x7a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08,
    0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x54, 0x54, 0x89, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
    0x00, 0x00, 0x00, 0xa2, 0x00, 0x00, 0x00, 0x97, 0x96, 0x98, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a,
    0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00, 0xda, 0xd8, 0xa7, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0b,
    0x00, 0x00, 0x00, 0xf2, 0x00, 0x00, 0x00, 0x1d, 0x1b, 0xb7, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c,
    0x00, 0x00, 0x00, 0x20, 0x01, 0x00, 0x00, 0x60, 0x5d, 0xc6, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0d,
    0x00, 0x00, 0x00, 0x52, 0x01, 0x00, 0x00, 0xa3, 0x9f, 0xd5, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0e,
    0x00, 0x00, 0x00, 0x88, 0x01, 0x00, 0x00, 0xe6, 0xe1, 0xe4, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0f,
    0x00, 0x00, 0x00, 0xc2, 0x01, 0x00, 0x00, 0x29, 0x24, 0xf4, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x6c, 0x66, 0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x11,
    0x00, 0x00, 0x00, 0x42, 0x02, 0x00, 0x00, 0xaf, 0xa8, 0x12, 0x01, 0x00, 0x00, 0x00, 0x00, 0x12,
    0x00, 0x00, 0x00, 0x88, 0x02, 0x00, 0x00, 0xf2, 0xea, 0x21, 0x01, 0x00, 0x00, 0x00, 0x00, 0x13,
    0x00, 0x00, 0x00, 0xd2, 0x02, 0x00, 0x00,
];

#[test]
fn frames_from_an_earlier_version_verify_and_reencode() {
    let wire::Frame::Payload { payload, consumed } =
        wire::split_frame(FIXTURE_REQUEST).expect("checksum verifies")
    else {
        panic!("whole frame expected");
    };
    assert_eq!(consumed, FIXTURE_REQUEST.len());
    let (corr, ops) = wire::decode_request(payload).expect("decodes");
    assert_eq!((corr, &ops[..]), (9, &[Op::Insert(1, 2), Op::Get(3)][..]));
    let mut again = Vec::new();
    wire::encode_request(&mut again, corr, &ops);
    assert_eq!(again, FIXTURE_REQUEST);

    let wire::Frame::Payload { payload, consumed } =
        wire::split_frame(FIXTURE_RESPONSE).expect("checksum verifies")
    else {
        panic!("whole frame expected");
    };
    assert_eq!(consumed, FIXTURE_RESPONSE.len());
    let frame = wire::decode_response(payload).expect("decodes");
    let entries: Vec<(i64, i64)> = (0..20i64)
        .map(|i| (i * 1_000_003 - 7, (i * i) << 33 | i))
        .collect();
    assert_eq!((frame.corr, frame.last), (0xC0FF_EE01, true));
    assert_eq!(frame.items, [(3, Reply::Entries(entries))]);
    let mut again = Vec::new();
    wire::encode_response(&mut again, frame.corr, frame.last, &frame.items);
    assert_eq!(again, FIXTURE_RESPONSE);
}

/// Passes through to the system allocator, remembering the largest
/// single request each thread has made.
struct WatchAlloc;

thread_local! {
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialised, destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for WatchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST_ALLOC.try_with(|c| c.set(c.get().max(layout.size())));
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: WatchAlloc = WatchAlloc;

/// A hostile `Entries` count is held against the bytes present
/// *before* anything is allocated for it.
#[test]
fn entries_count_beyond_the_payload_is_truncated_without_allocating() {
    for claimed in [1u32 << 16, u32::MAX] {
        let mut payload = vec![wire::OPCODE_RESPONSE];
        payload.extend_from_slice(&7u32.to_le_bytes()); // corr
        payload.push(1); // last
        payload.extend_from_slice(&1u16.to_le_bytes()); // one item
        payload.extend_from_slice(&0u16.to_le_bytes()); // slot 0
        payload.push(5); // Entries
        payload.extend_from_slice(&claimed.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]); // one entry, not `claimed`
        LARGEST_ALLOC.with(|c| c.set(0));
        let got = wire::decode_response(&payload);
        let largest = LARGEST_ALLOC.with(|c| c.get());
        assert_eq!(got.unwrap_err(), wire::WireError::Truncated);
        assert!(
            largest < 4096,
            "decoding allocated {largest} bytes for a claimed count of {claimed}"
        );
    }
}

/// Frames `payload` with a correct length prefix and CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&wire::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads off a raw stream until `buf` holds a whole frame, and
/// returns it decoded; bytes past it stay in `buf` for the next call.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> wire::ResponseFrame {
    let mut tmp = [0u8; 4096];
    loop {
        if let wire::Frame::Payload { payload, consumed } =
            wire::split_frame(buf).expect("clean frame")
        {
            let resp = wire::decode_response(payload).expect("decodes");
            buf.drain(..consumed);
            return resp;
        }
        let n = stream.read(&mut tmp).expect("read");
        assert_ne!(n, 0, "server closed before answering");
        buf.extend_from_slice(&tmp[..n]);
    }
}

/// A request frame that arrives in three writes is parsed once, when
/// its last byte is in: the loop keeps the partial frame across
/// passes, serves other connections meanwhile, and answers it with
/// exactly one frame.
#[test]
fn a_request_that_arrives_in_pieces_is_answered_once() {
    let db = preloaded(100, |k| k * 7);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut s = TcpStream::connect(("127.0.0.1", srv.port())).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut req = Vec::new();
    wire::encode_request(&mut req, 5, &[Op::Get(42)]);
    // Three bytes, inside the length prefix; then up to the middle of
    // the op (its tag and 8-byte key are the frame's last 9 bytes);
    // then the rest.
    let mid_op = req.len() - 4;
    s.write_all(&req[..3]).expect("first piece");
    std::thread::sleep(Duration::from_millis(20));
    let mut other = WireClient::connect(srv.port()).expect("connect");
    assert_eq!(
        other.call(&[Op::Get(1)]).expect("other call")[0],
        Reply::Found(Some(7))
    );
    s.write_all(&req[3..mid_op]).expect("second piece");
    std::thread::sleep(Duration::from_millis(20));
    s.write_all(&req[mid_op..]).expect("last piece");

    let mut buf = Vec::new();
    let resp = read_response(&mut s, &mut buf);
    assert_eq!((resp.corr, resp.last), (5, true));
    assert_eq!(resp.items, vec![(0, Reply::Found(Some(42 * 7)))]);
    assert!(buf.is_empty(), "no bytes beyond the one frame");
    s.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let mut more = [0u8; 64];
    assert!(s.read(&mut more).is_err(), "no second frame");
    let stats = srv.stats();
    assert_eq!(stats.frames_in, 2);
    assert_eq!(stats.decode_errors, 0);
}

/// A pass is one submit, whatever its op count: two 1 024-op `Get`
/// requests that arrive in one write are parsed in one pass and
/// answered from one submit — one merged submit of two requests, one
/// session batch.
#[test]
fn a_pass_is_one_submit() {
    let db = preloaded(2048, |k| k * 5);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut s = TcpStream::connect(("127.0.0.1", srv.port())).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let batches = || db.stats().router.batches_submitted;
    let before = batches();
    let mut burst = Vec::new();
    for corr in 0..2u32 {
        let first = i64::from(corr) * 1024;
        let gets: Vec<Op> = (first..first + 1024).map(Op::Get).collect();
        wire::encode_request(&mut burst, corr, &gets);
    }
    s.write_all(&burst).expect("burst");
    let mut buf = Vec::new();
    for _ in 0..2 {
        let resp = read_response(&mut s, &mut buf);
        assert!(resp.last, "one frame a request");
        assert_eq!(resp.items.len(), 1024);
        let first = i64::from(resp.corr) * 1024;
        for (slot, reply) in resp.items {
            let k = first + i64::from(slot);
            assert_eq!(reply, Reply::Found(Some(k * 5)), "key {k}");
        }
    }
    let stats = srv.stats();
    assert_eq!(stats.frames_in, 2);
    assert_eq!((stats.merged_submits, stats.merged_requests), (1, 2));
    assert_eq!(batches(), before + 1, "one submit for the pass");
}

/// An empty request is a part with no ops: it is answered by exactly
/// one frame that carries no item, has `last` set and echoes its
/// `corr`, and nothing else comes back.
#[test]
fn an_empty_request_is_answered_by_one_empty_last_frame() {
    let db = preloaded(10, |k| k);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut s = TcpStream::connect(("127.0.0.1", srv.port())).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut req = Vec::new();
    wire::encode_request(&mut req, 77, &[]);
    s.write_all(&req).expect("empty request");
    let mut buf = Vec::new();
    let resp = read_response(&mut s, &mut buf);
    assert_eq!((resp.corr, resp.last), (77, true));
    assert!(resp.items.is_empty(), "no item: {:?}", resp.items);
    assert!(buf.is_empty(), "no bytes beyond the one frame");
    s.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let mut more = [0u8; 64];
    assert!(s.read(&mut more).is_err(), "no second frame");
    let stats = srv.stats();
    assert_eq!((stats.frames_in, stats.frames_out), (1, 1));
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn malformed_frames_close_only_the_offender() {
    let db = preloaded(100, |k| k);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut healthy = WireClient::connect(srv.port()).expect("connect");
    assert_eq!(
        healthy.call(&[Op::Get(1)]).expect("healthy call")[0],
        Reply::Found(Some(1))
    );

    let mut valid = Vec::new();
    wire::encode_request(&mut valid, 1, &[Op::Get(2)]);
    let mut bad_crc = valid.clone();
    *bad_crc.last_mut().expect("non-empty") ^= 0x40;

    let oversized = {
        let mut b = ((wire::MAX_FRAME_PAYLOAD + 1) as u32)
            .to_le_bytes()
            .to_vec();
        b.extend_from_slice(&[0u8; 32]);
        b
    };
    let bad_opcode = frame(&[99, 0, 0, 0, 0, 0, 0]);
    let bad_op_tag = frame(&[wire::OPCODE_REQUEST, 1, 0, 0, 0, 1, 0, 200]);
    let truncated_interior = frame(&[wire::OPCODE_REQUEST, 1, 0, 0, 0, 2, 0]);
    let trailing = {
        let mut payload = valid[8..].to_vec();
        payload.push(0);
        frame(&payload)
    };
    // Two requests under one correlation id, in one write: the second
    // is parsed while the first is still in flight.
    let duplicate_corr = [&valid[..], &valid[..]].concat();
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("oversized length prefix", oversized),
        ("bad crc", bad_crc),
        ("bad opcode", bad_opcode),
        ("bad op tag", bad_op_tag),
        ("truncated interior", truncated_interior),
        ("trailing bytes", trailing),
        ("correlation id still in flight", duplicate_corr),
    ];
    let n_cases = cases.len() as u64;

    for (name, bytes) in cases {
        let mut s = TcpStream::connect(("127.0.0.1", srv.port())).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // Prove the connection serves before the poison frame.
        let mut req = Vec::new();
        wire::encode_request(&mut req, 0, &[Op::Get(3)]);
        s.write_all(&req).expect("valid request");
        let resp = read_response(&mut s, &mut Vec::new());
        assert_eq!(resp.items, vec![(0, Reply::Found(Some(3)))]);
        // Poison it. The server must close this connection (EOF), not
        // panic, not answer.
        s.write_all(&bytes)
            .unwrap_or_else(|e| panic!("{name}: send poison: {e}"));
        let mut sink = [0u8; 4096];
        loop {
            match s.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("{name}: expected EOF, got error {e}"),
            }
        }
    }

    // The bystander connection never noticed.
    assert_eq!(
        healthy.call(&[Op::Get(4)]).expect("bystander survives")[0],
        Reply::Found(Some(4))
    );
    let stats = srv.stats();
    assert_eq!(stats.decode_errors, n_cases);
    wait_until("offender closes", || srv.stats().closed == n_cases);
    assert_eq!(srv.stats().connections, 1); // the healthy one

    // All three connection-lifecycle event kinds reached the journal.
    let journal = db.metrics().journal;
    let count = |k: &str| journal.iter().filter(|e| e.kind.name() == k).count();
    assert!(count("conn_open") as u64 > n_cases);
    assert_eq!(count("conn_close") as u64, n_cases);
    assert_eq!(count("proto_error") as u64, n_cases);
}

/// The server's per-connection write-buffer cap, 256 KiB (a constant
/// of `rma-net/src/server.rs`).
const WRITE_BUF_CAP: u64 = 256 * 1024;

/// Entries in one scan reply chunk, as the server derives it: a
/// quarter of the cap, in 16-byte entries.
const CHUNK: usize = WRITE_BUF_CAP as usize / 4 / 16;

/// Bytes of a response frame that holds one `Entries` item of a full
/// chunk: the frame header, `opcode · corr · last · items`, then
/// `slot · tag · count` and the cells.
const CHUNK_FRAME_BYTES: u64 = (wire::FRAME_HEADER + 8 + 7 + 16 * CHUNK) as u64;

/// The chunk is sized by the write-buffer budget: a scan of exactly
/// one chunk is one submit and one frame, flagged `last`; one entry
/// more streams a second frame through one continuation.
#[test]
fn a_scan_of_one_chunk_is_one_frame_and_one_entry_more_is_two() {
    assert_eq!(CHUNK, 4096);
    let db = preloaded(5000, |k| k * 3);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut c = WireClient::connect(srv.port()).expect("connect");
    for (count, frames, continuations) in [(CHUNK, 1, 0), (CHUNK + 1, 2, 1)] {
        c.send(&[Op::Scan { start: 7, count }]).expect("send");
        let done = c.recv().expect("recv");
        let expect: Vec<(i64, i64)> = (7..7 + count as i64).map(|k| (k, k * 3)).collect();
        assert_eq!(done.replies, vec![Reply::Entries(expect)]);
        assert_eq!(done.frames, frames, "{count} entries");
        assert_eq!(srv.stats().scan_chunks, continuations);
    }
    assert!(srv.stats().peak_conn_write_buf <= WRITE_BUF_CAP + CHUNK_FRAME_BYTES);
}

#[test]
fn big_scan_streams_in_bounded_chunks() {
    // Two and a half chunks.
    const N: usize = 5 * CHUNK / 2;
    let db = preloaded(N as i64, |k| k);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut c = WireClient::connect(srv.port()).expect("connect");
    let corr = c.send(&[Op::Scan { start: 0, count: N }]).expect("send");
    let done = c.recv().expect("recv");
    assert_eq!(done.corr, corr);
    assert!(
        done.frames >= 2,
        "a scan over {N} entries with chunk {CHUNK} must stream in several \
         frames, got {}",
        done.frames
    );
    let expect: Vec<(i64, i64)> = (0..N as i64).map(|k| (k, k)).collect();
    assert_eq!(done.replies, vec![Reply::Entries(expect)]);
    let stats = srv.stats();
    assert!(stats.scan_chunks >= 1, "continuations were submitted");
    // Peak reply buffering stays within the cap plus one frame.
    assert!(
        stats.peak_conn_write_buf <= WRITE_BUF_CAP + CHUNK_FRAME_BYTES,
        "peak write buffer {} exceeds cap + one chunk frame",
        stats.peak_conn_write_buf
    );
}

/// One request of 64 full-chunk scans asks for 4 MiB at once: the
/// scans that meet the connection's spent budget wait as plans, so
/// its reply bytes stay within the cap plus one chunk frame, and every
/// entry still arrives once, in key order.
#[test]
fn many_full_chunk_scans_in_one_request_stay_within_the_bound() {
    const SCANS: usize = 64;
    let db = preloaded((SCANS * CHUNK) as i64, |k| k * 5);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut c = WireClient::connect(srv.port()).expect("connect");
    let scans: Vec<Op> = (0..SCANS)
        .map(|i| Op::Scan {
            start: (i * CHUNK) as i64,
            count: CHUNK,
        })
        .collect();
    let replies = c.call(&scans).expect("call");
    for (i, reply) in replies.into_iter().enumerate() {
        let keys = (i * CHUNK) as i64..((i + 1) * CHUNK) as i64;
        let want: Vec<(i64, i64)> = keys.map(|k| (k, k * 5)).collect();
        assert_eq!(reply, Reply::Entries(want), "scan {i}");
    }
    let peak = srv.stats().peak_conn_write_buf;
    assert!(
        peak <= WRITE_BUF_CAP + CHUNK_FRAME_BYTES,
        "peak write buffer {peak} exceeds cap + one chunk frame"
    );
}

/// Eight three-chunk scans in flight on one connection: the requests
/// that find the budget spent stay unparsed until it recovers, so the
/// connection's reply bytes stay within the cap plus one chunk frame,
/// and every scan arrives whole and in key order.
#[test]
fn eight_streaming_scans_in_flight_stay_within_the_bound() {
    const SCANS: usize = 8;
    const EACH: usize = 3 * CHUNK;
    let db = preloaded((SCANS * EACH) as i64, |k| -k);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut c = WireClient::connect(srv.port()).expect("connect");
    let corrs: Vec<u32> = (0..SCANS)
        .map(|i| {
            let start = (i * EACH) as i64;
            c.send(&[Op::Scan { start, count: EACH }]).expect("send")
        })
        .collect();
    for _ in 0..SCANS {
        let done = c.recv().expect("recv");
        let i = corrs
            .iter()
            .position(|&corr| corr == done.corr)
            .expect("known corr");
        let keys = (i * EACH) as i64..((i + 1) * EACH) as i64;
        let want: Vec<(i64, i64)> = keys.map(|k| (k, -k)).collect();
        assert_eq!(done.replies, vec![Reply::Entries(want)], "scan {i}");
    }
    let peak = srv.stats().peak_conn_write_buf;
    assert!(
        peak <= WRITE_BUF_CAP + CHUNK_FRAME_BYTES,
        "peak write buffer {peak} exceeds cap + one chunk frame"
    );
}

/// Eight pipelined requests of 8 191 `FirstGe` probes each, in one
/// write: 20 reply bytes a probe, 1.3 MB for all eight. Every reply
/// spends the pass's budget, so the requests past it stay unparsed
/// until it recovers, and the connection's reply bytes stay within
/// the cap plus one request's replies plus one chunk frame.
#[test]
fn pipelined_point_replies_spend_the_budget() {
    const REQS: usize = 8;
    const PROBES: usize = 8191;
    let db = preloaded((REQS * PROBES) as i64, |k| k ^ 1);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut stream = TcpStream::connect(("127.0.0.1", srv.port())).expect("connect");
    let mut burst = Vec::new();
    for corr in 0..REQS {
        let keys = (corr * PROBES) as i64..((corr + 1) * PROBES) as i64;
        let probes: Vec<Op> = keys.map(Op::FirstGe).collect();
        wire::encode_request(&mut burst, corr as u32, &probes);
    }
    stream.write_all(&burst).expect("send");
    let mut buf = Vec::new();
    for _ in 0..REQS {
        let resp = read_response(&mut stream, &mut buf);
        assert!(resp.last, "one frame a request");
        assert_eq!(resp.items.len(), PROBES);
        let first = (resp.corr as usize * PROBES) as i64;
        for (slot, reply) in resp.items {
            let k = first + i64::from(slot);
            assert_eq!(reply, Reply::Entry(Some((k, k ^ 1))), "probe {k}");
        }
    }
    let one_request = (20 * PROBES) as u64;
    let peak = srv.stats().peak_conn_write_buf;
    assert!(
        peak <= WRITE_BUF_CAP + one_request + CHUNK_FRAME_BYTES,
        "peak write buffer {peak} exceeds cap + one request's replies + one chunk frame"
    );
}

/// A blocking loopback socket whose receive buffer is clamped tiny
/// *before* connecting, so the server's replies jam after a few
/// kilobytes no matter how generous the kernel's autotuning is.
fn tiny_rcvbuf_stream(port: u16) -> TcpStream {
    unsafe {
        let fd = libc::socket(libc::AF_INET, libc::SOCK_STREAM, 0);
        assert!(fd >= 0, "socket");
        let sz: libc::c_int = 4096;
        let rc = libc::setsockopt(
            fd,
            libc::SOL_SOCKET,
            libc::SO_RCVBUF,
            &sz as *const libc::c_int as *const libc::c_void,
            std::mem::size_of::<libc::c_int>() as libc::socklen_t,
        );
        assert_eq!(rc, 0, "setsockopt SO_RCVBUF");
        let addr = libc::sockaddr_in {
            sin_family: libc::AF_INET as libc::sa_family_t,
            sin_port: port.to_be(),
            sin_addr: libc::in_addr {
                s_addr: libc::INADDR_LOOPBACK.to_be(),
            },
            sin_zero: [0; 8],
        };
        let rc = libc::connect(
            fd,
            &addr as *const libc::sockaddr_in as *const libc::sockaddr,
            std::mem::size_of::<libc::sockaddr_in>() as libc::socklen_t,
        );
        assert_eq!(rc, 0, "connect");
        <TcpStream as std::os::fd::FromRawFd>::from_raw_fd(fd)
    }
}

#[test]
fn blocked_connection_does_not_stall_others() {
    // 8 MiB of reply: more than the kernel's autotuned send buffer and
    // the client's clamped receive buffer absorb together, so the jam
    // must reach the server's own write buffer. On a 2-vCPU x86-64 VM
    // a 2 MiB reply never paused and a 4 MiB one did.
    const N: i64 = 1 << 19;
    let db = preloaded(N, |k| k);
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");

    // A connection that requests everything and reads nothing.
    let mut blocked = tiny_rcvbuf_stream(srv.port());
    let mut req = Vec::new();
    wire::encode_request(
        &mut req,
        7,
        &[Op::Scan {
            start: 0,
            count: N as usize,
        }],
    );
    blocked.write_all(&req).expect("send scan");
    // Let the server stream until the socket jams and the connection
    // pauses, however the scheduler runs the server thread.
    let deadline = Instant::now() + Duration::from_secs(60);
    while srv.stats().backpressure_pauses == 0 {
        assert!(
            Instant::now() < deadline,
            "the jammed connection never paused"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Other connections keep serving while it is jammed.
    let mut c = WireClient::connect(srv.port()).expect("connect");
    for k in 0..50 {
        assert_eq!(
            c.call(&[Op::Get(k)]).expect("bystander call")[0],
            Reply::Found(Some(k)),
            "bystander request stalled behind a blocked connection"
        );
    }
    let stats = srv.stats();
    assert!(
        stats.peak_conn_write_buf <= WRITE_BUF_CAP + CHUNK_FRAME_BYTES,
        "peak write buffer {} not bounded by cap + one chunk frame",
        stats.peak_conn_write_buf
    );

    // Drain the blocked connection: the full scan arrives, correct
    // and in order, across many frames.
    blocked
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    let mut entries: Vec<(i64, i64)> = Vec::new();
    let mut frames = 0u32;
    'drain: loop {
        let mut at = 0;
        loop {
            match wire::split_frame(&buf[at..]).expect("clean frame") {
                wire::Frame::Incomplete => break,
                wire::Frame::Payload { payload, consumed } => {
                    let f = wire::decode_response(payload).expect("decodes");
                    at += consumed;
                    frames += 1;
                    assert_eq!(f.corr, 7);
                    for (slot, reply) in f.items {
                        assert_eq!(slot, 0);
                        match reply {
                            Reply::Entries(mut es) => entries.append(&mut es),
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                    if f.last {
                        break 'drain;
                    }
                }
            }
        }
        buf.drain(..at);
        let n = blocked.read(&mut tmp).expect("read");
        assert_ne!(n, 0, "server closed the blocked connection");
        buf.extend_from_slice(&tmp[..n]);
    }
    assert!(
        frames >= 2,
        "scan must stream chunked, got {frames} frame(s)"
    );
    let expect: Vec<(i64, i64)> = (0..N).map(|k| (k, k)).collect();
    assert_eq!(entries, expect);
}

#[test]
fn degraded_read_only_surfaces_as_typed_refusal() {
    let dir = std::env::temp_dir().join(format!(
        "rma-net-degraded-{}-{}",
        std::process::id(),
        rma_repro::rewiring::monotonic_ns()
    ));
    let inj = FaultInjector::new(9, FaultMode::Kill);
    let db = Arc::new(
        Db::builder()
            .shard_config(ShardConfig {
                num_shards: 4,
                rma: RmaConfig {
                    segment_size: 8,
                    rewiring: RewiringMode::Disabled,
                    reserve_bytes: 1 << 24,
                    ..Default::default()
                },
                ..Default::default()
            })
            .durability(DurabilityConfig::new(&dir).fault(inj))
            .build()
            .expect("valid config"),
    );
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("spawn");
    let mut c = WireClient::connect(srv.port()).expect("connect");
    let mut refused = false;
    for k in 0..64i64 {
        match c.call(&[Op::Insert(k, k)]).expect("wire call survives")[0] {
            Reply::Inserted => {}
            Reply::Refused => {
                refused = true;
                break;
            }
            ref other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(refused, "the armed kill must refuse a write over the wire");
    // The refusal was a typed reply, not a dropped connection: the
    // same connection keeps serving reads.
    assert_eq!(
        c.call(&[Op::Get(0)]).expect("reads still serve")[0],
        Reply::Found(Some(0))
    );
    assert!(db.is_read_only());
    assert!(srv.stats().refused_ops >= 1);
    drop(c);
    drop(srv);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
