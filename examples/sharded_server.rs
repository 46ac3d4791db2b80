//! A multi-threaded mixed OLTP/scan server, served **over the wire**.
//!
//! Simulates the deployment shape the stack is built for, consumed
//! the way a real deployment would: one [`Db`] opened through the
//! validating builder with background maintenance owned by the
//! handle, fronted by the [`NetServer`] epoll event loop on a
//! loopback TCP port. OLTP writers stream skewed inserts and deletes
//! through **pipelined wire connections** (length-prefixed frames,
//! several correlation ids in flight — the server merges tiny
//! requests from many connections into one submit), analytic
//! readers run range sums and big chunk-streamed scans through
//! connections of their own, an ingest thread applies partitioned
//! batches through the in-process path (the one op class with no
//! wire form), and the background maintainer splits hot shards and
//! merges cold ones underneath all of them.
//! While the load runs, a reporter thread prints a periodic
//! [`Db::metrics`] report — per-op-type latency quantiles straight
//! from the built-in histograms, plus the network front-end's own
//! counters — and at the end the full consolidated snapshot prints
//! as the Prometheus-style text exposition a scrape endpoint would
//! serve (`render_text`; no hand-formatted stats).
//!
//! Run with: `cargo run --release --example sharded_server`
//!
//! Pass `--listen <port>` to keep the server up after the load for
//! external clients (see `examples/net_client.rs`):
//! `cargo run --release --example sharded_server -- --listen 7171`

use rma_repro::db::{Db, Op, Reply, OP_LATENCY_NAMES};
use rma_repro::net::{NetConfig, NetServer, WireClient};
use rma_repro::shard::MaintainerConfig;
use rma_repro::workloads::{BatchStream, KeyStream, Pattern, SplitMix64};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PRELOAD: usize = 200_000;
const WRITERS: usize = 2;
const READERS: usize = 2;
const OPS_PER_WRITER: usize = 100_000;
const SCANS_PER_READER: usize = 2_000;
const BATCHES: usize = 20;
const BATCH_LEN: usize = 5_000;
/// Ops per request frame; a writer keeps a few frames in flight.
const SUBMIT: usize = 512;
const PIPELINE_DEPTH: usize = 4;

fn count_removed(replies: &[Reply]) -> u64 {
    replies
        .iter()
        .filter(|r| matches!(r, Reply::Removed(Some(_))))
        .count() as u64
}

fn main() {
    let listen_port: Option<u16> = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--listen")
            .map(|i| args[i + 1].parse().expect("--listen takes a port number"))
    };

    // Bootstrap from a bulk load; splitters are learned from the
    // batch quantiles so the shards start balanced. The builder
    // validates everything up front and the handle owns the
    // background maintainer — no separate handles to juggle.
    let mut base = KeyStream::new(Pattern::Uniform, 7).take_pairs(PRELOAD);
    base.sort_unstable();
    let db = Arc::new(
        Db::builder()
            .shards(16)
            .maintenance(MaintainerConfig)
            .build_bulk(&base)
            .expect("static server config is valid"),
    );
    let srv = NetServer::spawn(
        Arc::clone(&db),
        NetConfig {
            port: listen_port.unwrap_or(0),
        },
    )
    .expect("loopback bind");
    println!(
        "server up on 127.0.0.1:{}: {} elements across {} shards",
        srv.port(),
        db.len(),
        db.stats().engine.num_shards,
    );

    let stop = AtomicBool::new(false);
    let scanned = AtomicU64::new(0);
    let removed = AtomicU64::new(0);
    let started = Instant::now();
    let port = srv.port();

    std::thread::scope(|sc| {
        // OLTP writers: skewed inserts (front of the key space is
        // hot) interleaved with exact-key deletes, each pipelining
        // request frames over its own wire connection — the serving
        // shape of the network front-end.
        let mut worker_handles = Vec::new();
        for w in 0..WRITERS {
            let removed = &removed;
            worker_handles.push(sc.spawn(move || {
                let mut stream = KeyStream::new(
                    Pattern::Zipf {
                        alpha: 1.0,
                        beta: 1 << 20,
                    },
                    100 + w as u64,
                );
                let mut client = WireClient::connect(port).expect("writer connect");
                let mut ops = Vec::with_capacity(SUBMIT);
                for start in (0..OPS_PER_WRITER).step_by(SUBMIT) {
                    ops.clear();
                    for i in start..(start + SUBMIT).min(OPS_PER_WRITER) {
                        let (k, v) = stream.next_pair();
                        ops.push(if i % 4 == 3 {
                            Op::Remove(k)
                        } else {
                            Op::Insert(k, v)
                        });
                    }
                    client.send(&ops).expect("writer send");
                    while client.in_flight() >= PIPELINE_DEPTH {
                        let done = client.recv().expect("writer recv");
                        removed.fetch_add(count_removed(&done.replies), Relaxed);
                    }
                }
                while client.in_flight() > 0 {
                    let done = client.recv().expect("writer drain");
                    removed.fetch_add(count_removed(&done.replies), Relaxed);
                }
            }));
        }

        // Analytic readers: random-start range sums over the wire,
        // with a big chunk-streamed scan every few hundred calls
        // (the server clamps it and streams continuations).
        for r in 0..READERS {
            let (stop, scanned) = (&stop, &scanned);
            sc.spawn(move || {
                let mut rng = SplitMix64::new(900 + r as u64);
                let mut client = WireClient::connect(port).expect("reader connect");
                let mut done = 0usize;
                while !stop.load(Relaxed) && done < SCANS_PER_READER {
                    let start = (rng.next_u64() >> 2) as i64;
                    let replies = if done % 500 == 250 {
                        client.call(&[Op::Scan {
                            start,
                            count: 5_000,
                        }])
                    } else {
                        client.call(&[Op::SumRange {
                            start,
                            count: 1_000,
                        }])
                    };
                    match &replies.expect("reader call")[0] {
                        Reply::Sum { visited, .. } => scanned.fetch_add(*visited as u64, Relaxed),
                        Reply::Entries(es) => scanned.fetch_add(es.len() as u64, Relaxed),
                        other => panic!("unexpected reply {other:?}"),
                    };
                    done += 1;
                }
            });
        }

        // Batch ingest: sorted uniform batches, each one engine
        // `apply_ops` run (in-process; batches have no wire op).
        {
            let db = &db;
            worker_handles.push(sc.spawn(move || {
                let mut batches = BatchStream::new(Pattern::Uniform, 55);
                for _ in 0..BATCHES {
                    let batch = batches.next_batch(BATCH_LEN);
                    db.apply_batch(&batch, &[]);
                }
            }));
        }

        // Periodic observability report: what a metrics scraper would
        // see, sampled once per second from `Db::metrics()` plus the
        // network front-end's counters.
        {
            let (db, stop, srv) = (&db, &stop, &srv);
            sc.spawn(move || loop {
                std::thread::sleep(Duration::from_millis(1000));
                if stop.load(Relaxed) {
                    break;
                }
                let m = db.metrics();
                let n = srv.stats();
                let ins_idx = OP_LATENCY_NAMES
                    .iter()
                    .position(|&n| n == "insert")
                    .expect("known op type");
                let ins = &m.op_latency[ins_idx];
                println!(
                    "[report] {} ops executed; insert p50/p99 {:.1}/{:.1} µs; \
                     net: {} conns, {} frames in, {} merged submits, \
                     frame p99 {:.1} µs; {} shards, {} maintenance steps",
                    m.db.router.ops_executed,
                    ins.p50() as f64 / 1e3,
                    ins.p99() as f64 / 1e3,
                    n.connections,
                    n.frames_in,
                    n.merged_submits,
                    n.frame_service_ns.p99() as f64 / 1e3,
                    m.db.engine.num_shards,
                    m.db.engine.maintenance.steps_executed,
                );
            });
        }

        // Writers and ingest are bounded: join them, then release the
        // readers (who poll `stop`).
        let stop = &stop;
        sc.spawn(move || {
            for handle in worker_handles {
                handle.join().expect("worker thread panicked");
            }
            stop.store(true, Relaxed);
        });
    });

    let secs = started.elapsed().as_secs_f64();
    // Quiesce the maintainer deterministically, then verify and
    // report everything from the one consolidated snapshot.
    db.stop_maintenance();
    db.engine().check_invariants();
    let expected = PRELOAD + WRITERS * OPS_PER_WRITER * 3 / 4 + BATCHES * BATCH_LEN
        - removed.load(Relaxed) as usize;
    assert_eq!(db.len(), expected, "content drifted from the op ledger");

    println!(
        "\ndone in {secs:.2}s: {} elements scanned, {} deletes hit",
        scanned.load(Relaxed),
        removed.load(Relaxed)
    );
    // The whole story in one read: counters, per-op latency
    // distributions, batch wall times, maintenance step timing, the
    // journal tail, and the wire-level counters — the text exposition
    // a scrape endpoint would serve.
    print!("{}", db.metrics().render_text());
    print!("{}", srv.stats().render_text());

    println!("\nper-shard load (len / reads / writes):");
    for (i, st) in db.stats().engine.shards.iter().enumerate() {
        println!(
            "  shard {:>2} [{:>20} .. {:<20}) len={:<8} reads={:<7} writes={}",
            i,
            st.lower_bound.map_or("-inf".into(), |k| k.to_string()),
            st.upper_bound.map_or("+inf".into(), |k| k.to_string()),
            st.len,
            st.reads,
            st.writes
        );
    }

    if listen_port.is_some() {
        println!(
            "\nlistening on 127.0.0.1:{port} — try `cargo run --example net_client -- {port}` \
             (ctrl-c to stop)"
        );
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}
