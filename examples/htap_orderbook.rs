//! HTAP scenario from the paper's introduction: a columnar table that
//! must absorb a stream of transactional updates while analytical
//! range queries keep scanning it.
//!
//! A classic column store would keep the sorted bulk static and route
//! updates into a "delta" structure, paying a merge on every read.
//! The RMA instead updates in place and scans stay truly sequential.
//! This example keeps an order book keyed by (price-level) and runs a
//! mixed stream of order insertions/cancellations interleaved with
//! "total open volume in price band" analytics — against the [`Db`]
//! facade, with background maintenance rebalancing the price-level
//! shards underneath and every closing figure rendered by the
//! built-in snapshot `Display`s (no hand-formatted stats).
//!
//! Run with: `cargo run --release --example htap_orderbook`

use rma_repro::db::Db;
use rma_repro::shard::MaintainerConfig;
use rma_repro::workloads::SplitMix64;
use std::time::Instant;

/// Composite key: price level (ticks) in the high bits, order id in
/// the low bits, so all orders of a price level are adjacent.
fn order_key(price_ticks: i64, order_id: i64) -> i64 {
    (price_ticks << 24) | (order_id & 0xFF_FFFF)
}

fn main() {
    let mut rng = SplitMix64::new(7);

    // Seed the book: 2^20 resting orders over 4096 price levels,
    // bulk-loaded so the shards start balanced on the seed's actual
    // key distribution (splitters learned from the batch quantiles).
    let n0: i64 = 1 << 20;
    let mut seed: Vec<(i64, i64)> = (0..n0)
        .map(|id| {
            let price = 10_000 + rng.next_below(4096) as i64;
            (order_key(price, id), rng.next_range(1, 500) as i64)
        })
        .collect();
    seed.sort_unstable();
    let book = Db::builder()
        .shards(8)
        .maintenance(MaintainerConfig)
        .build_bulk(&seed)
        .expect("static config is valid");
    println!("order book seeded: {} orders", book.len());

    // Mixed phase: 4 transactional updates per analytical query.
    let start = Instant::now();
    let rounds = 100_000usize;
    let mut volume_checks = 0i64;
    let mut next_id = n0;
    for round in 0..rounds {
        // Two new orders at hot price levels (skewed to the touch).
        for _ in 0..2 {
            let price = 10_000 + (rng.next_below(64) as i64);
            book.insert(order_key(price, next_id), rng.next_range(1, 500) as i64);
            next_id += 1;
        }
        // Two cancellations near random levels: the first order at or
        // above the level, found, then removed by its key (this loop is
        // the book's one writer, so the order is still there).
        for _ in 0..2 {
            let price = 10_000 + rng.next_below(4096) as i64;
            if let Some((k, _)) = book.first_ge(order_key(price, 0)) {
                book.remove(k);
            }
        }
        // Analytics: open volume in a 32-tick price band.
        if round % 4 == 0 {
            let band_lo = 10_000 + rng.next_below(4096 - 32) as i64;
            let (_, vol) = book.sum_range(order_key(band_lo, 0), 16_384);
            volume_checks += vol;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    println!(
        "mixed phase: {} updates + {} band queries in {:.2}s ({:.0} ops/s)",
        rounds * 4,
        rounds / 4,
        secs,
        (rounds * 4 + rounds / 4) as f64 / secs
    );
    println!("checksum of scanned volume: {volume_checks}");

    // End-of-day analytics: one full scan.
    let t = Instant::now();
    let (visited, total) = book.sum_range(i64::MIN, usize::MAX);
    println!(
        "full scan of {} orders in {:.3}s ({:.1}M elts/s), total open volume {}",
        visited,
        t.elapsed().as_secs_f64(),
        visited as f64 / t.elapsed().as_secs_f64() / 1e6,
        total
    );

    // Closing report: quiesce maintenance, then let the metrics
    // snapshot render everything — engine balance, lock/maintenance
    // counters, the maintainer's tally and the journal of what it
    // restructured while the mixed load ran.
    book.stop_maintenance();
    println!();
    print!("{}", book.metrics().render_text());
}
