//! Metrics assembly and exposition: the router-side observability
//! state ([`RouterObs`]), the builder-facing switch ([`ObsConfig`]),
//! and the full-stack [`MetricsSnapshot`] returned by
//! [`Db::metrics`](crate::Db::metrics) with its Prometheus-style
//! [`render_text`](MetricsSnapshot::render_text) exposition.
//!
//! Instrumentation philosophy: per-operation latency is *sampled* —
//! workers bracket one in [`ObsConfig::sample_every`] operations with
//! a pair of monotonic clock reads (vDSO `clock_gettime`, no syscall)
//! and record the difference; the rest run untimed. A clock read is
//! not free relative to a point lookup, so timing every op would cost
//! double-digit percent throughput, while the sampled distribution
//! converges to the same quantiles at a steady-state cost of
//! `2/sample_every` clock reads per op (and zero when observability
//! is disabled). A run of consecutive `Get`s executes as one
//! `get_many` call: the countdown advances by the run's length, and
//! when it expires inside the run the whole call is timed once and
//! every expiry records `elapsed / run length` — so the sample *count*
//! stays exactly one per `sample_every` ops, while a batched get's
//! sample is the **run mean**, not one key's own time. Everything
//! else (batch sizes, queue depth, ticket wait) is one relaxed atomic
//! or clock read per *batch*, not per op, and is never sampled.

use crate::session::Op;
use crate::{DbSnapshot, MaintainerSnapshot};
use rma_obs::{Event, Histogram, HistogramSnapshot};
use rma_shard::ShardFill;
use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;

/// Observability switch for [`DbBuilder`](crate::DbBuilder). Default
/// **on**: recording costs one atomic per event and one clock read
/// per op boundary, which the `fig20_obs_overhead` bench bounds at
/// well under 10% of throughput; opt out for benchmark baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when `false` no clocks are read, no histograms
    /// recorded, no journal events written (the structures still
    /// exist so snapshots render, empty).
    pub enabled: bool,
    /// Router workers time one in `sample_every` operations into the
    /// per-op-type latency histograms (`1` times every op). Sampling
    /// is what keeps default-on affordable: a clock read costs a
    /// meaningful fraction of a point lookup, so timing every op
    /// would tax throughput ~30-40% while 1-in-16 sampling costs
    /// ~2%, and the sampled distribution converges to the same
    /// quantiles. Batch-granular series (batch size, queue depth,
    /// ticket wait) and maintenance events are never sampled.
    pub sample_every: u32,
    /// Maintenance-event journal capacity (events retained,
    /// overwrite-oldest; rounded up to a power of two, minimum 8).
    pub journal_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            sample_every: 16,
            journal_capacity: rma_shard::obs::DEFAULT_JOURNAL_CAPACITY,
        }
    }
}

/// Operation kinds the router tracks latency for, in histogram-index
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

/// Router-side observability state, shared (`Arc`) between the
/// router's workers, every session, and every in-flight ticket.
/// Always allocated so hot paths branch on one `bool`.
pub(crate) struct RouterObs {
    /// Mirrors [`ObsConfig::enabled`].
    pub(crate) enabled: bool,
    /// Mirrors [`ObsConfig::sample_every`], clamped to ≥ 1.
    pub(crate) sample_every: u32,
    /// Per-op-type service latency (worker-side, excludes queue
    /// wait), nanoseconds; indexed by [`op_index`]. Populated from
    /// one in [`Self::sample_every`] operations; a `Get` sampled
    /// inside a batched run records the run's mean per-key time.
    pub(crate) op_latency: [Histogram; 6],
    /// Operations per submitted batch.
    pub(crate) batch_size: Histogram,
    /// Work items queued but not yet picked up, sampled at each send.
    pub(crate) queue_depth: Histogram,
    /// Submit-to-last-reply wall time per batch, nanoseconds (includes
    /// queue wait — the client-visible number).
    pub(crate) ticket_wait: Histogram,
    /// Live count of sent-but-not-received work items (the queue-depth
    /// sample source).
    pub(crate) pending: AtomicU64,
}

impl RouterObs {
    pub(crate) fn new(enabled: bool, sample_every: u32) -> Self {
        RouterObs {
            enabled,
            sample_every: sample_every.max(1),
            op_latency: std::array::from_fn(|_| Histogram::new()),
            batch_size: Histogram::new(),
            queue_depth: Histogram::new(),
            ticket_wait: Histogram::new(),
            pending: AtomicU64::new(0),
        }
    }
}

/// Everything the database measures, frozen at one instant:
/// the [`DbSnapshot`] counters plus the latency/size distributions
/// and the tail of the maintenance event journal. Obtained from
/// [`Db::metrics`](crate::Db::metrics); render with
/// [`render_text`](Self::render_text) or `Display`.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// The counter snapshot ([`Db::stats`](crate::Db::stats)).
    pub db: DbSnapshot,
    /// Per-op-type worker service latency, nanoseconds, in
    /// `get, insert, remove, sum_range, first_ge, scan` order. A `get`
    /// sample taken inside a batched run is the run's mean.
    pub op_latency: [HistogramSnapshot; 6],
    /// Operations per submitted batch.
    pub batch_size: HistogramSnapshot,
    /// Router queue depth sampled at each work-item send.
    pub queue_depth: HistogramSnapshot,
    /// Submit-to-completion wall time per batch, nanoseconds.
    pub ticket_wait: HistogramSnapshot,
    /// Executed maintenance-step wall durations, nanoseconds.
    pub step_duration: HistogramSnapshot,
    /// Background maintainer tick wall durations, nanoseconds.
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
    /// Per-partition log-tail replay wall time during recovery,
    /// nanoseconds.
    pub replay: HistogramSnapshot,
    /// True when a durability fault latched the database read-only.
    pub degraded: bool,
}

/// The stable op-name order of [`MetricsSnapshot::op_latency`].
pub const OP_LATENCY_NAMES: [&str; 6] = OP_NAMES;

fn summary(out: &mut String, name: &str, label: &str, h: &HistogramSnapshot) {
    let sel = if label.is_empty() {
        String::new()
    } else {
        format!("{{{label}}}")
    };
    let lbl = |q: &str| {
        if label.is_empty() {
            format!("{{quantile=\"{q}\"}}")
        } else {
            format!("{{{label},quantile=\"{q}\"}}")
        }
    };
    let _ = writeln!(out, "{name}{} {}", lbl("0.5"), h.p50());
    let _ = writeln!(out, "{name}{} {}", lbl("0.95"), h.p95());
    let _ = writeln!(out, "{name}{} {}", lbl("0.99"), h.p99());
    let _ = writeln!(out, "{name}_sum{sel} {}", h.sum());
    let _ = writeln!(out, "{name}_count{sel} {}", h.count());
    let _ = writeln!(out, "{name}_max{sel} {}", h.max());
}

impl MetricsSnapshot {
    /// Prometheus-style text exposition: one `summary` family per
    /// latency/size distribution (p50/p95/p99 plus `_sum`, `_count`,
    /// `_max`), `gauge`/`counter` lines for every [`DbSnapshot`]
    /// number — length, capacity and wired bytes once per shard,
    /// labelled `shard="i"` in key order — and the journal tail as
    /// trailing comment lines. Every
    /// op type is always emitted (zeros when unused) so the schema is
    /// stable for scrapers.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str("# TYPE rma_op_latency_ns summary\n");
        for (name, h) in OP_NAMES.iter().zip(&self.op_latency) {
            summary(&mut out, "rma_op_latency_ns", &format!("op=\"{name}\""), h);
        }
        for (name, h) in [
            ("rma_batch_size_ops", &self.batch_size),
            ("rma_queue_depth", &self.queue_depth),
            ("rma_ticket_wait_ns", &self.ticket_wait),
            ("rma_maintenance_step_ns", &self.step_duration),
            ("rma_maintainer_tick_ns", &self.maint_tick),
        ] {
            let _ = writeln!(out, "# TYPE {name} summary");
            summary(&mut out, name, "", h);
        }
        if let Some(w) = &self.wal {
            for (name, h) in [
                ("rma_wal_commit_ns", &w.commit),
                ("rma_wal_fsync_ns", &w.fsync),
                ("rma_recovery_replay_ns", &w.replay),
            ] {
                let _ = writeln!(out, "# TYPE {name} summary");
                summary(&mut out, name, "", h);
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
        let mut per_shard = |name: &str, field: fn(&ShardFill) -> usize| {
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (i, s) in e.shards.iter().enumerate() {
                let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {}", field(s));
            }
        };
        per_shard("rma_shard_len", |s| s.len);
        per_shard("rma_shard_capacity", |s| s.capacity);
        per_shard("rma_shard_wired_bytes", |s| s.wired_bytes);

        let m = &e.maintenance;
        let r = &self.db.router;
        let mut counters: Vec<(&str, u64)> = vec![
            ("rma_op_clock_total", e.op_count),
            ("rma_read_locks_total", e.read_locks),
            ("rma_write_locks_total", e.write_locks),
            ("rma_seqlock_retries_total", e.seqlock_retries),
            ("rma_maintenance_plans_total", m.plans),
            ("rma_maintenance_steps_planned_total", m.steps_planned),
            ("rma_maintenance_steps_executed_total", m.steps_executed),
            ("rma_maintenance_steps_skipped_total", m.steps_skipped),
            ("rma_maintenance_steps_dropped_total", m.steps_dropped),
            ("rma_maintenance_keys_migrated_total", m.keys_migrated),
            ("rma_maintenance_nudges_total", m.nudges),
            ("rma_topologies_published_total", m.topologies_published),
            ("rma_batch_reroutes_total", m.batch_reroutes),
            ("rma_write_reroutes_total", m.write_reroutes),
            ("rma_sessions_opened_total", r.sessions_opened),
            ("rma_batches_submitted_total", r.batches_submitted),
            ("rma_ops_submitted_total", r.ops_submitted),
            ("rma_ops_executed_total", r.ops_executed),
        ];
        if let Some(mt) = &self.db.maintainer {
            counters.extend([
                ("rma_maintainer_polls_total", mt.polls),
                ("rma_maintainer_runs_total", mt.runs),
                ("rma_maintainer_relearns_total", mt.relearns),
                ("rma_maintainer_splits_total", mt.splits),
                ("rma_maintainer_merges_total", mt.merges),
                ("rma_maintainer_nudges_total", mt.nudges),
                ("rma_maintainer_steps_total", mt.steps),
                ("rma_maintainer_checkpoints_total", mt.checkpoints),
                ("rma_maintainer_steps_dropped_total", mt.steps_dropped),
                ("rma_maintainer_consolidations_total", mt.consolidations),
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

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

impl std::fmt::Display for MetricsSnapshot {
    /// A compact human-readable report: the [`DbSnapshot`] block,
    /// then per-op latency quantiles (µs) and the journal tail.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.db)?;
        let has_latency =
            self.op_latency.iter().any(|h| h.count() > 0) || self.ticket_wait.count() > 0;
        if has_latency {
            writeln!(
                f,
                "latency (µs)        p50      p95      p99      max    count"
            )?;
        }
        for (name, h) in OP_NAMES.iter().zip(&self.op_latency) {
            if h.count() == 0 {
                continue;
            }
            writeln!(
                f,
                "  {name:<16} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8}",
                us(h.p50()),
                us(h.p95()),
                us(h.p99()),
                us(h.max()),
                h.count()
            )?;
        }
        if self.ticket_wait.count() > 0 {
            writeln!(
                f,
                "  {:<16} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8}",
                "batch wait",
                us(self.ticket_wait.p50()),
                us(self.ticket_wait.p95()),
                us(self.ticket_wait.p99()),
                us(self.ticket_wait.max()),
                self.ticket_wait.count()
            )?;
        }
        if self.batch_size.count() > 0 {
            writeln!(
                f,
                "batch size: p50 {} / p99 {} ops; queue depth p99 {}",
                self.batch_size.p50(),
                self.batch_size.p99(),
                self.queue_depth.p99()
            )?;
        }
        if self.step_duration.count() > 0 {
            writeln!(
                f,
                "maintenance steps: {} at p50 {:.1} µs / max {:.1} µs",
                self.step_duration.count(),
                us(self.step_duration.p50()),
                us(self.step_duration.max())
            )?;
        }
        if let Some(w) = &self.wal {
            writeln!(
                f,
                "wal: {} commits at p50 {:.1} µs / p99 {:.1} µs, \
                 {} fsyncs at p50 {:.1} µs{}",
                w.commit.count(),
                us(w.commit.p50()),
                us(w.commit.p99()),
                w.fsync.count(),
                us(w.fsync.p50()),
                if w.degraded { " [DEGRADED]" } else { "" }
            )?;
            if w.replay.count() > 0 {
                writeln!(
                    f,
                    "recovery replay: {} partitions, max {:.1} µs",
                    w.replay.count(),
                    us(w.replay.max())
                )?;
            }
        }
        if !self.journal.is_empty() {
            writeln!(f, "journal (last {}):", self.journal.len().min(8))?;
            let skip = self.journal.len().saturating_sub(8);
            for ev in &self.journal[skip..] {
                write!(f, "  {:<16}", ev.kind.name())?;
                if ev.shard != Event::NO_SHARD {
                    write!(f, " shard {:<4}", ev.shard)?;
                }
                writeln!(f, " dur {:.1} µs, n={}", us(ev.dur_ns), ev.keys)?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for DbSnapshot {
    /// A multi-line human-readable report of every counter — what the
    /// examples print instead of hand-formatting fields.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let e = &self.engine;
        writeln!(
            f,
            "engine: {} elems in {} shards, {:.1} MiB ({} splitter bytes), imbalance {:.2}",
            e.len,
            e.num_shards,
            e.memory_footprint as f64 / (1024.0 * 1024.0),
            e.splitter_bytes,
            e.access_imbalance
        )?;
        writeln!(
            f,
            "locks: {} read / {} write acquisitions, {} seqlock retries",
            e.read_locks, e.write_locks, e.seqlock_retries
        )?;
        let m = &e.maintenance;
        writeln!(
            f,
            "maintenance: {} plans, {}/{} steps executed/planned ({} skipped, {} dropped), \
             {} keys migrated, {} topologies, max step {:.1} µs, \
             {} batch + {} write reroutes",
            m.plans,
            m.steps_executed,
            m.steps_planned,
            m.steps_skipped,
            m.steps_dropped,
            m.keys_migrated,
            m.topologies_published,
            us(m.max_step_wall_ns),
            m.batch_reroutes,
            m.write_reroutes
        )?;
        if let Some(mt) = &self.maintainer {
            write!(f, "{mt}")?;
        }
        let r = &self.router;
        writeln!(
            f,
            "router: {} workers, {} sessions, {} batches, {}/{} ops executed/submitted",
            r.workers, r.sessions_opened, r.batches_submitted, r.ops_executed, r.ops_submitted
        )
    }
}

impl std::fmt::Display for MaintainerSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "maintainer: {} polls, {} runs, {} relearns, \
             {} splits / {} merges / {} nudges, {} steps ({} dropped), \
             {} checkpoints, {} consolidation merges",
            self.polls,
            self.runs,
            self.relearns,
            self.splits,
            self.merges,
            self.nudges,
            self.steps,
            self.steps_dropped,
            self.checkpoints,
            self.consolidations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_label_formatting_is_well_formed() {
        let h = Histogram::new();
        h.record(100);
        let snap = h.snapshot();
        let mut out = String::new();
        summary(&mut out, "x_ns", "op=\"get\"", &snap);
        assert!(out.contains("x_ns{op=\"get\",quantile=\"0.5\"} "));
        assert!(out.contains("x_ns_count{op=\"get\"} 1"));
        let mut out = String::new();
        summary(&mut out, "y_ns", "", &snap);
        assert!(out.contains("y_ns{quantile=\"0.99\"} "));
        assert!(out.contains("y_ns_sum 100"));
    }
}
