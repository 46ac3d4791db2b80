//! Figure 23 (beyond the paper) — throughput of the wire-protocol
//! network front-end vs in-process pipelined sessions.
//!
//! The `rma-net` front-end serves one database session over loopback
//! TCP: length-prefixed CRC-checked frames, and an epoll event loop
//! that merges small requests from many connections into one submit
//! and executes it on its own thread. Framing, checksums and two
//! socket hops per round-trip must not eat the session's throughput:
//! this driver measures an identical 90/10 read/write uniform mix
//! against one preloaded `Db` in two shapes —
//!
//! * `pipelined` — each client thread opens a [`rma_db::Session`]
//!   and submits batches directly (fig. 19's serving shape, the
//!   in-process baseline);
//! * `networked` — each client thread opens a [`rma_net::WireClient`]
//!   over loopback and sends the same batches as request frames,
//!   keeping several correlation ids in flight, with the epoll event
//!   loop decoding and executing them on its one thread.
//!
//! swept over client/connection counts. The repository's acceptance
//! bar: networked throughput at **4 connections ≥ 0.5×** the
//! in-process pipelined path — the whole wire stack (encode, CRC,
//! syscalls, event loop, decode, reply streaming) costs at most half
//! the serving capacity on this host. The in-process clients run on
//! as many threads as there are connections, the server on one, so
//! past one core the ratio also measures that. An A/A row pairs the
//! pipelined side against itself at 4 connections: the spread of a
//! ratio that should read 1.0. The JSON keeps its `router_workers`
//! key, always 0.
//!
//! Writes `BENCH_network.json`; schema in
//! `crates/bench-harness/README.md`.

use bench_harness::{
    fixed, fmt_throughput, hw_threads, json, median, paired, rows, throughput, time, Cli, Paired,
};
use rma_core::RmaConfig;
use rma_db::{Db, Op, Ticket};
use rma_net::{NetConfig, NetServer, NetSnapshot, WireClient};
use std::collections::VecDeque;
use std::sync::Arc;
use workloads::{MixOp, ReadWriteMix, SplitMix64};

const SHARDS: usize = 8;
/// Ops per submitted batch / request frame (amortizes a submit's and
/// a frame's fixed cost identically on both sides).
const BATCH: usize = 1024;
/// Batches each client keeps in flight before collecting.
const DEPTH: usize = 4;
const READ_FRACTION: f64 = 0.9;
const CONN_COUNTS: [usize; 3] = [1, 2, 4];

fn preloaded(cli: &Cli) -> Db {
    Db::builder()
        .shards(SHARDS)
        .rma(RmaConfig::with_segment_size(cli.seg))
        .build_bulk(&cli.preload())
        .expect("static driver config is valid")
}

fn mix_for(cli: &Cli, client: usize) -> ReadWriteMix<impl FnMut() -> i64> {
    let mut rng = SplitMix64::new(cli.seed ^ (0x5E55_0000 + client as u64));
    ReadWriteMix::new(
        move || (rng.next_u64() >> 2) as i64,
        READ_FRACTION,
        cli.seed ^ (0xC01D_0000 + client as u64),
    )
}

fn next_batch(mix: &mut ReadWriteMix<impl FnMut() -> i64>, len: usize, out: &mut Vec<Op>) {
    out.clear();
    for _ in 0..len {
        out.push(match mix.next_op() {
            MixOp::Read(k) => Op::Get(k),
            MixOp::Write(k, v) => Op::Insert(k, v),
        });
    }
}

/// One in-process run over a freshly preloaded database. Returns
/// ops/second.
fn run_pipelined(cli: &Cli, clients: usize) -> f64 {
    let per_client = (cli.scale / clients).max(1);
    let db = preloaded(cli);
    let (_, secs) = time(|| {
        std::thread::scope(|sc| {
            for client in 0..clients {
                let db = &db;
                sc.spawn(move || {
                    let mut mix = mix_for(cli, client);
                    let mut session = db.session();
                    let mut in_flight: VecDeque<Ticket> = VecDeque::new();
                    let mut batch = Vec::with_capacity(BATCH);
                    let mut submitted = 0usize;
                    while submitted < per_client {
                        next_batch(&mut mix, BATCH.min(per_client - submitted), &mut batch);
                        submitted += batch.len();
                        in_flight.push_back(session.submit(&batch));
                        if in_flight.len() >= DEPTH {
                            let replies = in_flight.pop_front().expect("non-empty").wait();
                            std::hint::black_box(replies.len());
                        }
                    }
                    for ticket in in_flight {
                        std::hint::black_box(ticket.wait().len());
                    }
                });
            }
        });
    });
    throughput(per_client * clients, secs)
}

/// One networked run over a freshly preloaded database. Returns
/// (ops/sec, net-stats snapshot from the run's server).
fn run_networked(cli: &Cli, clients: usize) -> (f64, NetSnapshot) {
    let per_client = (cli.scale / clients).max(1);
    let db = Arc::new(preloaded(cli));
    let srv = NetServer::spawn(Arc::clone(&db), NetConfig::default()).expect("loopback bind");
    let port = srv.port();
    let (_, secs) = time(|| {
        std::thread::scope(|sc| {
            for client in 0..clients {
                sc.spawn(move || {
                    let mut mix = mix_for(cli, client);
                    let mut wire = WireClient::connect(port).expect("client connect");
                    let mut batch = Vec::with_capacity(BATCH);
                    let mut submitted = 0usize;
                    while submitted < per_client {
                        next_batch(&mut mix, BATCH.min(per_client - submitted), &mut batch);
                        submitted += batch.len();
                        wire.send(&batch).expect("send");
                        while wire.in_flight() >= DEPTH {
                            let done = wire.recv().expect("recv");
                            std::hint::black_box(done.replies.len());
                        }
                    }
                    while wire.in_flight() > 0 {
                        let done = wire.recv().expect("drain");
                        std::hint::black_box(done.replies.len());
                    }
                });
            }
        });
    });
    (throughput(per_client * clients, secs), srv.stats())
}

fn write_json(results: &[(usize, Paired)], aa: &Paired, net: &NetSnapshot, cli: &Cli, hw: usize) {
    let side = |label: &'static str, rates: fn(&Paired) -> &Vec<f64>| {
        results.iter().map(move |(conns, p)| {
            json! { "mode": label, "connections": *conns, "ops_per_sec": fixed(median(rates(p).clone()), 1) }
        })
    };
    let max_conns = *CONN_COUNTS.last().expect("non-empty sweep");
    let mut json = json! {
        "bench": "network", "scale": cli.scale, "ops_per_sweep": cli.scale,
        "batch": BATCH, "depth": DEPTH, "read_fraction": fixed(READ_FRACTION, 1),
        "shards": SHARDS, "router_workers": 0, "seed": cli.seed, "segment_size": cli.seg,
        "reps": cli.reps, "hw_threads": hw,
        "results": rows(side("pipelined", |p| &p.a).chain(side("networked", |p| &p.b))),
        (format!("net_{max_conns}c")): json! {
            "frames_in": net.frames_in, "frames_out": net.frames_out,
            "bytes_in": net.bytes_in, "bytes_out": net.bytes_out,
            "merged_submits": net.merged_submits, "merged_requests": net.merged_requests,
            "backpressure_pauses": net.backpressure_pauses, "decode_errors": net.decode_errors,
        },
        "pairs": cli.reps,
    };
    for conns in [max_conns, 1] {
        let (_, p) = results.iter().find(|(c, _)| *c == conns).expect("swept");
        json = json
            .set(
                format!("ratio_networked_vs_pipelined_{conns}c"),
                fixed(p.median, 4),
            )
            .set(format!("iqr_{conns}c"), fixed(p.iqr, 4))
            .set(format!("wins_{conns}c"), p.wins);
    }
    json.set(format!("ratio_bar_{max_conns}c"), fixed(0.5, 1))
        .set(format!("aa_ratio_{max_conns}c"), fixed(aa.median, 4))
        .set(format!("aa_iqr_{max_conns}c"), fixed(aa.iqr, 4))
        .set(format!("aa_wins_{max_conns}c"), aa.wins)
        .write("BENCH_network.json");
}

fn main() {
    let cli = Cli::parse();
    let hw = hw_threads();
    println!(
        "# Fig. 23 — network front-end throughput: N={} preloaded, N mixed ops ({} reads), {SHARDS} shards, batch {BATCH}, depth {DEPTH}, B={}, hw_threads={hw}",
        cli.scale, READ_FRACTION, cli.seg
    );
    println!(
        "{:<12} {:>12} {:>12} {:>8} {:>8} {:>5}",
        "connections", "pipelined", "networked", "ratio", "iqr", "wins"
    );
    // Per connection count, `--reps` pairs of runs: networked against
    // in-process pipelined, alternating which runs first. The wire
    // counters are the last networked run's at the largest count.
    let row = |label: String, p: &Paired| {
        println!(
            "{:<12} {:>12} {:>12} {:>8.3} {:>8.3} {:>3}/{}",
            label,
            fmt_throughput(median(p.a.clone()) as usize, 1.0).trim(),
            fmt_throughput(median(p.b.clone()) as usize, 1.0).trim(),
            p.median,
            p.iqr,
            p.wins,
            p.pairs()
        )
    };
    let mut net = None;
    let results: Vec<(usize, Paired)> = CONN_COUNTS
        .iter()
        .map(|&connections| {
            let p = paired(
                cli.reps,
                || run_pipelined(&cli, connections),
                || {
                    let (rate, snap) = run_networked(&cli, connections);
                    net = Some(snap);
                    rate
                },
            );
            row(connections.to_string(), &p);
            (connections, p)
        })
        .collect();
    let max_conns = *CONN_COUNTS.last().expect("non-empty sweep");
    // The A/A control: the pipelined side paired against itself, the
    // spread this host reads where nothing differs.
    let aa = paired(
        cli.reps,
        || run_pipelined(&cli, max_conns),
        || run_pipelined(&cli, max_conns),
    );
    row(format!("{max_conns} A/A"), &aa);
    println!(
        "# networked/pipelined throughput ratio at {max_conns} connections: {:.3} (bar: >= 0.5; median of paired runs)",
        results.last().expect("swept").1.median
    );
    let net = net.expect("networked sweep ran");
    println!(
        "# wire at {max_conns} connections: {} frames in, {} merged submits covering {} requests, {} decode errors",
        net.frames_in, net.merged_submits, net.merged_requests, net.decode_errors
    );
    write_json(&results, &aa, &net, &cli, hw);
}
