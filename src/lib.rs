//! # rma-repro — "Packed Memory Arrays – Rewired", reproduced in Rust
//!
//! This façade crate re-exports the whole reproduction workspace of
//! De Leo & Boncz, *Packed Memory Arrays – Rewired*, ICDE 2019:
//!
//! * [`db`] — the **database facade** most deployments should
//!   consume: a builder-configured [`Db`](rma_db::Db) handle that
//!   owns the sharded engine and its background-maintainer
//!   lifecycle, pipelined [`Session`](rma_db::Session)s that run
//!   batches of typed operations on the caller's thread and share a
//!   commit barrier, and one consolidated stats snapshot;
//! * [`net`] — the **network front-end**: a length-prefixed,
//!   CRC-checked binary wire protocol carrying batches of typed ops,
//!   served by a non-blocking epoll TCP listener
//!   ([`NetServer`](rma_net::NetServer)) that merges tiny requests
//!   from many connections into one submit, applies
//!   per-connection backpressure, and streams big scans in bounded
//!   chunks — plus the blocking [`WireClient`](rma_net::WireClient)
//!   the examples and benchmarks drive it with;
//! * [`rma`] — the **Rewired Memory Array** (the paper's
//!   contribution): a sparse array with clustered fixed-size segments,
//!   a static index, memory-rewired rebalances and adaptive
//!   rebalancing;
//! * [`shard`] — the **sharded concurrent front-end**: key-range
//!   sharding with branch-free routing, an **optimistic lock-free
//!   read path** (pin-then-check shards behind an epoch-published
//!   topology: point lookups and range sums take zero locks on the
//!   happy path), stitched scans, a parallel bulk build, and
//!   **access-histogram-driven maintenance** — every shard carries a
//!   lock-free decaying histogram of where operations land, hot
//!   shards split at the equal-access point of their CDF and cold
//!   neighbours merge (`ShardedRma::maintain`, the paper's
//!   window-local rebalance weighed by access, §III–IV, one level
//!   up), which leaves uniform workloads churn-free, and
//!   `ShardedRma::start_maintainer` runs it from a background
//!   thread that readers never block behind;
//! * [`obs`] — the **observability core**: lock-free log₂-bucketed
//!   latency histograms (mergeable, bounded-error quantiles), a
//!   bounded MPSC maintenance-event journal, and cheap monotonic
//!   timestamps — everything
//!   [`Db::metrics`](rma_db::Db::metrics) is assembled from;
//! * [`wal`] — the **durability subsystem**: one group-committed
//!   write-ahead log (length-prefixed, checksummed records),
//!   checkpoints sealed one unit per shard with an atomically
//!   replaced manifest, parallel crash recovery with torn-tail
//!   truncation, and a deterministic fault-injection harness
//!   (seeded kill-points, injected short writes and bit flips);
//! * [`pma`] — the Traditional PMA baseline and the APMA
//!   re-implementation;
//! * [`abtree`] — the (a,b)-tree comparator and the static dense
//!   array;
//! * [`art`] — an Adaptive Radix Tree and the trie-indexed (a,b)-tree;
//! * [`rewiring`] — the `memfd`/`mmap` virtual-memory substrate;
//! * [`workloads`] — deterministic workload generators (uniform /
//!   Zipf / sequential / mixed / batched / partitioned-batched).
//!
//! ```
//! use rma_repro::rma::{Rma, RmaConfig};
//!
//! let mut index = Rma::new(RmaConfig::default());
//! index.insert(42, 1);
//! index.insert(7, 2);
//! assert_eq!(index.get(7), Some(2));
//! // Range scans run at near-dense-array speed:
//! let (visited, sum) = index.sum_range(i64::MIN, 2);
//! assert_eq!((visited, sum), (2, 3));
//! ```
//!
//! For concurrent callers, open the database facade — one builder,
//! one handle, pipelined sessions:
//!
//! ```
//! use rma_repro::db::{Db, Op};
//!
//! let db = Db::builder().shards(4).build().expect("static config");
//! std::thread::scope(|s| {
//!     for t in 0..4i64 {
//!         let db = &db;
//!         s.spawn(move || {
//!             let mut session = db.session();
//!             let ops: Vec<Op> = (0..100).map(|i| Op::Insert(t * 100 + i, i)).collect();
//!             session.submit(&ops).wait();
//!         });
//!     }
//! });
//! assert_eq!(db.stats().engine.len, 400);
//! ```
//!
//! The sharded engine underneath stays public for direct embedding —
//! every operation takes `&self` and locks only the shard(s) it
//! touches:
//!
//! ```
//! use rma_repro::shard::{ShardConfig, ShardedRma};
//!
//! let index = ShardedRma::new(ShardConfig::default());
//! std::thread::scope(|s| {
//!     for t in 0..4i64 {
//!         let index = &index;
//!         s.spawn(move || {
//!             for i in 0..100 {
//!                 index.insert(t * 100 + i, i);
//!             }
//!         });
//!     }
//! });
//! assert_eq!(index.len(), 400);
//! ```

pub use abtree;
pub use art;
pub use pma_baseline as pma;
pub use rewiring;
pub use rma_core as rma;
pub use rma_db as db;
pub use rma_net as net;
pub use rma_obs as obs;
pub use rma_shard as shard;
pub use rma_wal as wal;
pub use workloads;
