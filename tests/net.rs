//! Loopback integration tests for the network front-end: full
//! round-trips of every op type through the wire protocol, pipelined
//! requests, the malformed-frame sweep (a hostile or corrupted
//! connection is closed — and *only* that connection), chunked scan
//! streaming with bounded per-connection reply buffering, isolation
//! of a blocked reader from other connections, and the degraded
//! read-only mode surfacing as a typed protocol refusal instead of a
//! dropped connection.

use rma_repro::db::{CommitPolicy, Db, DurabilityConfig, FaultInjector, FaultMode, Op, Reply};
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

/// A request whose ops are split over both router workers lands on
/// its ticket as two runs, in either order, in one loop pass or two —
/// and, sent in a burst, shares that ticket with its neighbours.
/// Looked at frame by frame (the reassembling `WireClient` would hide
/// it): every slot of every request is answered exactly once, with
/// its own reply, in at most one frame per landing, and only a
/// request's final frame says `last`.
#[test]
fn requests_split_over_two_workers_answer_every_slot_once() {
    // Shards 0–1 (keys < 200) belong to worker 0, shards 2–3 to
    // worker 1.
    let db = Db::builder()
        .splitter_keys(vec![100, 200, 300])
        .router_workers(2)
        .build()
        .expect("static config");
    let load: Vec<Op> = (0..400).map(|k| Op::Insert(k, k * 3)).collect();
    db.session().submit(&load).wait();
    let srv = NetServer::spawn(Arc::new(db), NetConfig::default()).expect("spawn");
    let mut s = TcpStream::connect(("127.0.0.1", srv.port())).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // Slots alternate between the workers, ending on an uneven tail.
    let keys: Vec<i64> = (0..48)
        .map(|i| if i % 2 == 0 || i > 40 { i } else { 399 - i })
        .collect();
    let ops: Vec<Op> = keys.iter().map(|&k| Op::Get(k)).collect();
    const BURST: usize = 4;
    const ROUNDS: usize = 50;
    let mut buf = Vec::new();
    let mut frames = 0u64;
    for round in 0..ROUNDS {
        // One write, so the loop decodes the burst in one pass and
        // merges it into one submit of `BURST` parts.
        let mut burst = Vec::new();
        for corr in 0..BURST {
            wire::encode_request(&mut burst, (round * BURST + corr) as u32, &ops);
        }
        s.write_all(&burst).expect("burst");
        let mut seen = vec![vec![false; ops.len()]; BURST];
        let mut frames_of = [0; BURST];
        let mut open = BURST;
        while open > 0 {
            let resp = read_response(&mut s, &mut buf);
            frames += 1;
            let r = (resp.corr as usize)
                .checked_sub(round * BURST)
                .expect("a request of this burst");
            frames_of[r] += 1;
            assert!(frames_of[r] <= 2, "one frame per landing at most");
            assert!(!resp.items.is_empty(), "a frame carries what landed");
            for (slot, reply) in resp.items {
                let slot = slot as usize;
                let twice = std::mem::replace(&mut seen[r][slot], true);
                assert!(!twice, "request {r} slot {slot} answered twice");
                assert_eq!(reply, Reply::Found(Some(keys[slot] * 3)), "slot {slot}");
            }
            let complete = seen[r].iter().all(|&s| s);
            assert_eq!(resp.last, complete, "`last` on the final frame only");
            open -= complete as usize;
        }
    }
    assert!(buf.is_empty(), "no frame beyond the last");
    let stats = srv.stats();
    assert_eq!(stats.frames_in, (ROUNDS * BURST) as u64);
    assert_eq!(stats.frames_out, frames);
    assert!(stats.merged_submits > 0, "bursts share a ticket");
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

/// Entries in one scan reply chunk under `cap`, as `NetConfig`
/// derives it: a quarter of the cap, in 16-byte entries.
fn chunk_entries(cap: usize) -> usize {
    cap / 4 / 16
}

/// Bytes of a response frame that holds one `Entries` item of a full
/// chunk: the frame header, `opcode · corr · last · items`, then
/// `slot · tag · count` and the cells.
fn chunk_frame_bytes(cap: usize) -> u64 {
    (wire::FRAME_HEADER + 8 + 7 + 16 * chunk_entries(cap)) as u64
}

/// The chunk is sized by the write-buffer budget: a scan of exactly
/// one chunk is one submit and one frame, flagged `last`; one entry
/// more streams a second frame through one continuation.
#[test]
fn a_scan_of_one_chunk_is_one_frame_and_one_entry_more_is_two() {
    let db = preloaded(5000, |k| k * 3);
    for cap in [NetConfig::default().write_buf_cap, 4096] {
        let chunk = chunk_entries(cap);
        assert!((1..5000).contains(&chunk), "preload covers a chunk");
        let cfg = NetConfig {
            write_buf_cap: cap,
            ..NetConfig::default()
        };
        let srv = NetServer::spawn(Arc::clone(&db), cfg).expect("spawn");
        let mut c = WireClient::connect(srv.port()).expect("connect");
        for (count, frames, continuations) in [(chunk, 1, 0), (chunk + 1, 2, 1)] {
            c.send(&[Op::Scan { start: 7, count }]).expect("send");
            let done = c.recv().expect("recv");
            let expect: Vec<(i64, i64)> = (7..7 + count as i64).map(|k| (k, k * 3)).collect();
            assert_eq!(done.replies, vec![Reply::Entries(expect)]);
            assert_eq!(done.frames, frames, "cap {cap}, {count} entries");
            assert_eq!(srv.stats().scan_chunks, continuations, "cap {cap}");
        }
        assert!(srv.stats().peak_conn_write_buf <= cap as u64 + chunk_frame_bytes(cap));
    }
}

#[test]
fn big_scan_streams_in_bounded_chunks() {
    let db = preloaded(5000, |k| k);
    // A chunk of 64 entries.
    let cfg = NetConfig {
        write_buf_cap: 4096,
        ..NetConfig::default()
    };
    let srv = NetServer::spawn(Arc::clone(&db), cfg).expect("spawn");
    let mut c = WireClient::connect(srv.port()).expect("connect");
    let corr = c
        .send(&[Op::Scan {
            start: 0,
            count: 5000,
        }])
        .expect("send");
    let done = c.recv().expect("recv");
    assert_eq!(done.corr, corr);
    assert!(
        done.frames >= 2,
        "a scan over {} entries with chunk 64 must stream in several \
         frames, got {}",
        5000,
        done.frames
    );
    let expect: Vec<(i64, i64)> = (0..5000).map(|k| (k, k)).collect();
    assert_eq!(done.replies, vec![Reply::Entries(expect)]);
    let stats = srv.stats();
    assert!(stats.scan_chunks >= 1, "continuations were submitted");
    // Peak reply buffering stays within the cap plus one frame.
    assert!(
        stats.peak_conn_write_buf <= 4096 + chunk_frame_bytes(4096),
        "peak write buffer {} exceeds cap + one chunk frame",
        stats.peak_conn_write_buf
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
    const N: i64 = 20_000;
    let db = preloaded(N, |k| k);
    // A chunk of 32 entries.
    let cfg = NetConfig {
        write_buf_cap: 2048,
        // Clamp the kernel's send buffer so it cannot autotune itself
        // into absorbing the whole scan; the jam must reach the
        // server's own write buffer for backpressure to engage.
        sndbuf: 8192,
        ..NetConfig::default()
    };
    let srv = NetServer::spawn(Arc::clone(&db), cfg).expect("spawn");

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
    // Let the server stream until the socket jams.
    std::thread::sleep(Duration::from_millis(200));

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
        stats.backpressure_pauses >= 1,
        "the jammed connection must have paused"
    );
    assert!(
        stats.peak_conn_write_buf <= 2048 + chunk_frame_bytes(2048),
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
                min_split_len: 64,
                ..Default::default()
            })
            .router_workers(1)
            .durability(
                DurabilityConfig::new(&dir)
                    .policy(CommitPolicy::Always)
                    .fault(inj),
            )
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
