//! Figure 19 (beyond the paper) — throughput of pipelined sessions vs
//! direct engine calls.
//!
//! An `rma-db` session runs each submitted batch of typed operations
//! on the caller's thread — each run of point ops as one
//! `ShardedRma::apply_ops` call — and hands the replies back through a
//! ticket. That surface must not eat the engine's throughput: this
//! driver measures an identical 90/10 read/write uniform mix against
//! one preloaded `Db` in two shapes —
//!
//! * `direct` — each client thread calls `Db::get` / `Db::insert`
//!   synchronously (the embedded-library shape);
//! * `pipelined` — each client thread opens a [`rma_db::Session`], submits
//!   the same operations in batches and keeps several tickets open
//!   before waiting them (the serving shape).
//!
//! swept over client counts. The repository's acceptance bar:
//! pipelined throughput at **1 session ≥ 0.8×** the direct path — the
//! session's per-op overhead (op decode, reply vector, ticket) stays
//! bounded. Nothing overlaps: the session thread is the one executing.
//! The JSON keeps its `router_workers` key, always 0.
//!
//! Writes `BENCH_router_throughput.json`; schema in
//! `crates/bench-harness/README.md`.

use bench_harness::{
    fixed, fmt_throughput, hw_threads, json, median, paired, rows, throughput, time, Cli, Paired,
};
use rma_core::RmaConfig;
use rma_db::{Db, Op, Ticket};
use std::collections::VecDeque;
use workloads::{MixOp, ReadWriteMix, SplitMix64};

const SHARDS: usize = 8;
/// Ops per submitted batch.
const BATCH: usize = 1024;
/// Tickets each session keeps in flight before collecting.
const DEPTH: usize = 4;
const READ_FRACTION: f64 = 0.9;
const SESSION_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Direct,
    Pipelined,
}

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

/// One run of `shape` over a freshly preloaded database. Returns
/// ops/second.
fn run_one(cli: &Cli, shape: Shape, sessions: usize) -> f64 {
    let per_client = (cli.scale / sessions).max(1);
    let db = preloaded(cli);
    let (_, secs) = time(|| {
        std::thread::scope(|sc| {
            for client in 0..sessions {
                let db = &db;
                sc.spawn(move || {
                    let mut mix = mix_for(cli, client);
                    match shape {
                        Shape::Direct => {
                            let mut checksum = 0i64;
                            for _ in 0..per_client {
                                match mix.next_op() {
                                    MixOp::Read(k) => {
                                        checksum = checksum.wrapping_add(db.get(k).unwrap_or(0));
                                    }
                                    MixOp::Write(k, v) => db.insert(k, v),
                                }
                            }
                            std::hint::black_box(checksum);
                        }
                        Shape::Pipelined => {
                            let mut session = db.session();
                            let mut in_flight: VecDeque<Ticket> = VecDeque::new();
                            let mut batch = Vec::with_capacity(BATCH);
                            let mut submitted = 0usize;
                            while submitted < per_client {
                                batch.clear();
                                while batch.len() < BATCH && submitted + batch.len() < per_client {
                                    batch.push(match mix.next_op() {
                                        MixOp::Read(k) => Op::Get(k),
                                        MixOp::Write(k, v) => Op::Insert(k, v),
                                    });
                                }
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
                        }
                    }
                });
            }
        });
    });
    throughput(per_client * sessions, secs)
}

fn write_json(results: &[(usize, Paired)], cli: &Cli, hw: usize) {
    let side = |label: &'static str, rates: fn(&Paired) -> &Vec<f64>| {
        results.iter().map(move |(sessions, p)| {
            json! { "mode": label, "sessions": *sessions, "ops_per_sec": fixed(median(rates(p).clone()), 1) }
        })
    };
    let mut json = json! {
        "bench": "router_throughput", "scale": cli.scale, "ops_per_sweep": cli.scale,
        "batch": BATCH, "depth": DEPTH, "read_fraction": fixed(READ_FRACTION, 1),
        "shards": SHARDS, "router_workers": 0, "seed": cli.seed, "segment_size": cli.seg,
        "reps": cli.reps, "hw_threads": hw,
        "results": rows(side("direct", |p| &p.a).chain(side("pipelined", |p| &p.b))),
        "pairs": cli.reps,
    };
    let max_sessions = *SESSION_COUNTS.last().expect("non-empty sweep");
    for (sessions, p) in results
        .iter()
        .filter(|(s, _)| *s == 1 || *s == max_sessions)
    {
        json = json
            .set(
                format!("ratio_pipelined_vs_direct_{sessions}s"),
                fixed(p.median, 4),
            )
            .set(format!("iqr_{sessions}s"), fixed(p.iqr, 4))
            .set(format!("wins_{sessions}s"), p.wins);
    }
    json.set("ratio_bar_1s", fixed(0.8, 1))
        .write("BENCH_router_throughput.json");
}

fn main() {
    let cli = Cli::parse();
    let hw = hw_threads();
    println!(
        "# Fig. 19 — session throughput: N={} preloaded, N mixed ops ({} reads), {SHARDS} shards, batch {BATCH}, depth {DEPTH}, B={}, hw_threads={hw}",
        cli.scale, READ_FRACTION, cli.seg
    );
    println!(
        "{:<9} {:>12} {:>12} {:>8} {:>8} {:>5}",
        "sessions", "direct", "pipelined", "ratio", "iqr", "wins"
    );
    // Per session count, `--reps` pairs of runs: pipelined against
    // direct, alternating which runs first.
    let results: Vec<(usize, Paired)> = SESSION_COUNTS
        .iter()
        .map(|&sessions| {
            let p = paired(
                cli.reps,
                || run_one(&cli, Shape::Direct, sessions),
                || run_one(&cli, Shape::Pipelined, sessions),
            );
            println!(
                "{:<9} {:>12} {:>12} {:>8.3} {:>8.3} {:>3}/{}",
                sessions,
                fmt_throughput(median(p.a.clone()) as usize, 1.0).trim(),
                fmt_throughput(median(p.b.clone()) as usize, 1.0).trim(),
                p.median,
                p.iqr,
                p.wins,
                p.pairs()
            );
            (sessions, p)
        })
        .collect();
    println!(
        "# pipelined/direct throughput ratio at 1 session: {:.3} (bar: >= 0.8; median of paired runs)",
        results[0].1.median
    );
    write_json(&results, &cli, hw);
}
