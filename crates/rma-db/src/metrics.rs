//! Metrics assembly and exposition: the session-side observability
//! state ([`SessionObs`]), the builder-facing switch ([`ObsConfig`]),
//! and the full-stack [`MetricsSnapshot`] returned by
//! [`Db::metrics`](crate::Db::metrics) with its Prometheus-style
//! [`render_text`](MetricsSnapshot::render_text) exposition.
//!
//! Instrumentation philosophy: per-operation latency is *sampled* —
//! a session brackets one in [`SAMPLE_EVERY`] = 16 operations of each
//! kind with a pair of monotonic clock reads (vDSO `clock_gettime`,
//! no syscall) and records the difference; the rest run untimed. A
//! clock read is not free relative to a point lookup, so timing every
//! op would cost double-digit percent throughput, while the sampled
//! distribution converges to the same quantiles at a steady-state
//! cost of two clock reads per 16 ops (and zero when observability is
//! disabled). Each kind has its own countdown, so a stream that
//! repeats its kinds periodically cannot hide one of them. A run of
//! consecutive point ops executes as one `apply_ops` call: when a
//! countdown expires inside the run the whole call is timed once and
//! every expired op records `elapsed / run length` under its kind —
//! so the sample *count* stays exactly one per 16 ops of a kind,
//! while a point op's sample is the **run mean**, not that op's own
//! time. Everything
//! else (batch sizes, ticket wait) is one relaxed atomic or clock read
//! per *batch*, not per op, and is never sampled.

use crate::session::Op;
use crate::DbSnapshot;
use rma_core::BackendKind;
use rma_obs::{Event, Histogram, HistogramSnapshot};
use rma_shard::ShardStats;
use std::fmt::Write as _;

/// A session times one in `SAMPLE_EVERY` operations of each kind into the
/// per-op-type latency histograms. Sampling is what keeps default-on
/// affordable: a clock read costs a meaningful fraction of a point
/// lookup, so timing every op would tax throughput ~30-40% while
/// 1-in-16 sampling costs ~2%, and the sampled distribution converges
/// to the same quantiles. Batch-granular series (batch size, ticket
/// wait) and maintenance events are never sampled.
pub(crate) const SAMPLE_EVERY: usize = 16;

/// Observability switch for [`DbBuilder`](crate::DbBuilder). Default
/// **on**: recording costs one atomic per event and one clock read
/// per op boundary, which the `fig20_obs_overhead` bench bounds at
/// well under 10% of throughput; opt out for benchmark baselines.
/// A session times one op in 16 of each kind, and the maintenance journal
/// keeps the newest 1024 events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when `false` no clocks are read, no histograms
    /// recorded, no journal events written (the structures still
    /// exist so snapshots render, empty).
    pub enabled: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: true }
    }
}

/// Operation kinds a session tracks latency for, in histogram-index
/// order. Index with [`op_index`].
pub(crate) const OP_NAMES: [&str; 6] = ["get", "insert", "remove", "sum_range", "first_ge", "scan"];

/// The histogram index for an op — same order as [`OP_NAMES`].
pub(crate) fn op_index(op: &Op) -> usize {
    match op {
        Op::Get(_) => 0,
        Op::Insert(..) => 1,
        Op::Remove(_) => 2,
        Op::SumRange { .. } => 3,
        Op::FirstGe(_) => 4,
        Op::Scan { .. } => 5,
    }
}

/// Session-side observability state, shared (`Arc`) between the
/// [`Db`](crate::Db), its sessions and every timed ticket. Always
/// allocated so hot paths branch on one `bool`.
pub(crate) struct SessionObs {
    /// Mirrors [`ObsConfig::enabled`].
    pub(crate) enabled: bool,
    /// Per-op-type service latency (execution only, no commit
    /// barrier), nanoseconds; indexed by [`op_index`]. Populated from
    /// one in [`SAMPLE_EVERY`] operations; a point op records
    /// the mean per-op time of the run it was sampled in.
    pub(crate) op_latency: [Histogram; 6],
    /// Operations per submitted batch.
    pub(crate) batch_size: Histogram,
    /// Submit-to-wait wall time per batch, nanoseconds (includes the
    /// commit barrier — the client-visible number).
    pub(crate) ticket_wait: Histogram,
}

impl SessionObs {
    pub(crate) fn new(enabled: bool) -> Self {
        SessionObs {
            enabled,
            op_latency: std::array::from_fn(|_| Histogram::new()),
            batch_size: Histogram::new(),
            ticket_wait: Histogram::new(),
        }
    }
}

/// Everything the database measures, frozen at one instant:
/// the [`DbSnapshot`] counters plus the latency/size distributions
/// and the tail of the maintenance event journal. Obtained from
/// [`Db::metrics`](crate::Db::metrics); render with
/// [`render_text`](Self::render_text).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// The counter snapshot ([`Db::stats`](crate::Db::stats)).
    pub db: DbSnapshot,
    /// Per-op-type service latency, nanoseconds, in
    /// `get, insert, remove, sum_range, first_ge, scan` order. A `get`
    /// sample taken inside a batched run is the run's mean.
    pub op_latency: [HistogramSnapshot; 6],
    /// Operations per submitted batch.
    pub batch_size: HistogramSnapshot,
    /// Always empty: a session runs its batch on the caller's thread,
    /// so nothing queues. The field and its `rma_queue_depth` family
    /// stay so the snapshot's consumers and scrapers keep their
    /// schema.
    pub queue_depth: HistogramSnapshot,
    /// Submit-to-wait wall time per waited batch, nanoseconds.
    pub ticket_wait: HistogramSnapshot,
    /// Executed maintenance-step wall durations, nanoseconds.
    pub step_duration: HistogramSnapshot,
    /// Background maintainer wake wall durations (plan and drain),
    /// nanoseconds.
    pub maint_tick: HistogramSnapshot,
    /// The retained maintenance events, oldest first.
    pub journal: Vec<Event>,
    /// Durability distributions and state; `None` when the database
    /// was built without [`DbBuilder::durability`](crate::DbBuilder).
    pub wal: Option<WalMetrics>,
}

/// The durability slice of a [`MetricsSnapshot`]: the WAL's commit
/// and fsync latency distributions, the recovery replay times (only
/// populated on a handle opened through `recover()`), and the
/// degraded-mode latch.
#[derive(Debug, Clone)]
pub struct WalMetrics {
    /// Group-commit barrier wall time per commit call, nanoseconds
    /// (covers staged-buffer write plus any fsync).
    pub commit: HistogramSnapshot,
    /// `fsync`/`fdatasync` wall time, nanoseconds.
    pub fsync: HistogramSnapshot,
    /// Per-unit log-tail replay wall time during recovery,
    /// nanoseconds.
    pub replay: HistogramSnapshot,
    /// True when a durability fault latched the database read-only.
    pub degraded: bool,
}

/// The stable op-name order of [`MetricsSnapshot::op_latency`].
pub const OP_LATENCY_NAMES: [&str; 6] = OP_NAMES;

impl MetricsSnapshot {
    /// Prometheus-style text exposition: one `summary` family per
    /// latency/size distribution (p50/p95/p99 plus `_sum`, `_count`,
    /// `_max`), `gauge`/`counter` lines for every [`DbSnapshot`]
    /// number — length, capacity, wired bytes, backend (`memfd` or
    /// `heap`, as a label), rebalances, elements moved and rewired /
    /// copied commits once per shard, labelled `shard="i"` in key
    /// order — and the journal tail as
    /// trailing comment lines. Every
    /// op type is always emitted (zeros when unused) so the schema is
    /// stable for scrapers.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str("# TYPE rma_op_latency_ns summary\n");
        for (name, h) in OP_NAMES.iter().zip(&self.op_latency) {
            h.write_summary(&mut out, "rma_op_latency_ns", &format!("op=\"{name}\""));
        }
        for (name, h) in [
            ("rma_batch_size_ops", &self.batch_size),
            ("rma_queue_depth", &self.queue_depth),
            ("rma_ticket_wait_ns", &self.ticket_wait),
            ("rma_maintenance_step_ns", &self.step_duration),
            ("rma_maintainer_tick_ns", &self.maint_tick),
        ] {
            let _ = writeln!(out, "# TYPE {name} summary");
            h.write_summary(&mut out, name, "");
        }
        if let Some(w) = &self.wal {
            for (name, h) in [
                ("rma_wal_commit_ns", &w.commit),
                ("rma_wal_fsync_ns", &w.fsync),
                ("rma_recovery_replay_ns", &w.replay),
            ] {
                let _ = writeln!(out, "# TYPE {name} summary");
                h.write_summary(&mut out, name, "");
            }
            let _ = writeln!(
                out,
                "# TYPE rma_wal_degraded gauge\nrma_wal_degraded {}",
                u64::from(w.degraded)
            );
        }

        let e = &self.db.engine;
        let gauges: [(&str, u64); 6] = [
            ("rma_len", e.len as u64),
            ("rma_shards", e.num_shards as u64),
            ("rma_memory_bytes", e.memory_footprint as u64),
            ("rma_splitter_bytes", e.splitter_bytes as u64),
            ("rma_router_workers", self.db.router.workers as u64),
            ("rma_max_step_wall_ns", e.maintenance.max_step_wall_ns), // a high-water mark
        ];
        for (name, v) in gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        let _ = writeln!(
            out,
            "# TYPE rma_access_imbalance gauge\nrma_access_imbalance {}",
            e.access_imbalance
        );
        let mut per_shard = |name: &str, field: fn(&ShardStats) -> (&'static str, u64)| {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (i, s) in e.shards.iter().enumerate() {
                let (label, v) = field(s);
                let _ = writeln!(out, "{name}{{shard=\"{i}\"{label}}} {v}");
            }
        };
        per_shard("rma_shard_len", |s| ("", s.len as u64));
        per_shard("rma_shard_capacity", |s| ("", s.capacity as u64));
        per_shard("rma_shard_wired_bytes", |s| ("", s.wired_bytes as u64));
        per_shard("rma_shard_backend", |s| match s.backend {
            BackendKind::Mmap => (",backend=\"memfd\"", 1),
            BackendKind::Heap => (",backend=\"heap\"", 1),
        });
        // Since the shard was built: a maintenance step restarts them.
        per_shard("rma_shard_rebalances", |s| ("", s.rebalances));
        per_shard("rma_shard_elements_moved", |s| ("", s.elements_moved));
        per_shard("rma_shard_rewired_commits", |s| ("", s.rewired_commits));
        per_shard("rma_shard_copied_commits", |s| ("", s.copied_commits));

        let m = &e.maintenance;
        let r = &self.db.router;
        let mut counters: Vec<(&str, u64)> = vec![
            ("rma_op_clock_total", e.op_count),
            ("rma_read_locks_total", e.read_locks),
            ("rma_write_locks_total", e.write_locks),
            ("rma_seqlock_retries_total", e.seqlock_retries),
            ("rma_maintenance_plans_total", m.plans),
            ("rma_maintenance_plan_ns_total", m.plan_ns),
            ("rma_maintenance_steps_planned_total", m.steps_planned),
            ("rma_maintenance_steps_executed_total", m.steps_executed),
            ("rma_maintenance_steps_skipped_total", m.steps_skipped),
            ("rma_maintenance_steps_dropped_total", m.steps_dropped),
            ("rma_maintenance_keys_migrated_total", m.keys_migrated),
            ("rma_maintenance_splits_total", m.splits),
            ("rma_maintenance_merges_total", m.merges),
            ("rma_topologies_published_total", m.topologies_published),
            ("rma_write_reroutes_total", m.write_reroutes),
            ("rma_sessions_opened_total", r.sessions_opened),
            ("rma_batches_submitted_total", r.batches_submitted),
            ("rma_ops_submitted_total", r.ops_submitted),
            ("rma_ops_executed_total", r.ops_executed),
        ];
        if let Some(mt) = &self.db.maintainer {
            counters.extend([
                ("rma_maintainer_polls_total", mt.polls),
                ("rma_maintainer_checkpoints_total", mt.checkpoints),
            ]);
        }
        for (name, v) in counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }

        for ev in &self.journal {
            let _ = writeln!(
                out,
                "# journal ts_ns={} kind={} shard={} dur_ns={} keys={}",
                ev.ts_ns,
                ev.kind.name(),
                if ev.shard == Event::NO_SHARD {
                    "-".to_string()
                } else {
                    ev.shard.to_string()
                },
                ev.dur_ns,
                ev.keys,
            );
        }
        out
    }
}
