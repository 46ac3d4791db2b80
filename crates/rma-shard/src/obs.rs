//! Engine-side observability state: the maintenance event journal and
//! the step/tick duration histograms, owned by [`crate::ShardedRma`].
//!
//! The structures are always allocated (≈ 24 KiB — two histograms and
//! a 1024-slot ring) so the hot paths test one `bool` instead of an
//! `Option`; when observability is disabled the recording helpers
//! return before touching the clock, which is what keeps the
//! instrumented-off configuration at its uninstrumented cost.

use rma_obs::{Event, EventJournal, EventKind, Histogram, HistogramSnapshot};

/// Journal capacity (events retained; overwrite-oldest).
const JOURNAL_CAPACITY: usize = 1024;

/// Journal + maintenance histograms for one engine. Obtained through
/// [`crate::ShardedRma::obs`]; reconfigured (before the engine is
/// shared) through [`crate::ShardedRma::set_observability`].
#[derive(Debug)]
pub struct EngineObs {
    enabled: bool,
    journal: EventJournal,
    /// Wall duration of executed maintenance steps (splits and
    /// merges — a checkpoint is not a step), nanoseconds.
    step_duration: Histogram,
    /// Wall duration of background maintainer wakes, nanoseconds.
    maint_tick: Histogram,
}

impl Default for EngineObs {
    fn default() -> Self {
        Self::new(true)
    }
}

impl EngineObs {
    pub(crate) fn new(enabled: bool) -> Self {
        EngineObs {
            enabled,
            journal: EventJournal::new(JOURNAL_CAPACITY),
            step_duration: Histogram::new(),
            maint_tick: Histogram::new(),
        }
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The maintenance event journal (bounded, overwrite-oldest).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Frozen distribution of executed maintenance-step durations.
    pub fn step_duration(&self) -> HistogramSnapshot {
        self.step_duration.snapshot()
    }

    /// Frozen distribution of background maintainer wake durations.
    pub fn maint_tick(&self) -> HistogramSnapshot {
        self.maint_tick.snapshot()
    }

    /// Records a journal event stamped with the current time. No-op
    /// (no clock read) when disabled — the one gate every layer that
    /// journals goes through.
    pub fn log(&self, kind: EventKind, shard: u32, dur_ns: u64, keys: u64) {
        if !self.enabled {
            return;
        }
        self.journal.record(Event {
            ts_ns: rma_obs::now_ns(),
            kind,
            shard,
            dur_ns,
            keys,
        });
    }

    /// Records one executed step's wall duration.
    pub(crate) fn record_step(&self, dur_ns: u64) {
        if self.enabled {
            self.step_duration.record(dur_ns);
        }
    }

    /// Records one maintainer wake's wall duration.
    pub(crate) fn record_tick(&self, dur_ns: u64) {
        if self.enabled {
            self.maint_tick.record(dur_ns);
        }
    }
}
