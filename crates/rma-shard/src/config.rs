//! Construction-time configuration of the sharded engine, and the
//! typed [`ConfigError`] every validator in this crate reports.
//!
//! [`ShardConfig::try_validate`] (and
//! [`MaintainerConfig::try_validate`](crate::MaintainerConfig::try_validate))
//! check every parameter **before** any construction work starts, so
//! builder-style front-ends — [`rma-db`'s `DbBuilder`] is the
//! canonical consumer — can reject a bad configuration with a typed,
//! matchable error instead of panicking deep inside a constructor.
//! The asserting `validate()` forms remain for the direct
//! `ShardedRma` constructors, whose established contract is to abort
//! on programmer error; both forms share one rule set.
//!
//! [`rma-db`'s `DbBuilder`]: https://docs.rs/rma-db

use rma_core::{RmaConfig, RmaConfigError};

/// Construction-time configuration of a
/// [`ShardedRma`](crate::ShardedRma).
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Target shard count. Splitter learning may induce fewer shards
    /// on duplicate-heavy samples; maintenance may grow or shrink the
    /// count over time (idle-time consolidation steers back toward
    /// this count).
    pub num_shards: usize,
    /// Configuration applied to every per-shard RMA.
    pub rma: RmaConfig,
    /// Shards shorter than this never split, regardless of imbalance.
    pub min_split_len: usize,
    /// Bounds a merge, the only step it bounds: a load-driven merge
    /// may build a shard of at most twice this many elements, which
    /// bounds how long it holds its shard locks (and therefore the
    /// writer stall it can cause). Idle-time consolidation may also
    /// merge up to two average target-count shards. A split is not
    /// bounded by it — a split is how an oversized shard shrinks;
    /// `max_shard_len` is what keeps shards small enough for that.
    pub max_step_elems: usize,
    /// Optional shard-length backstop for latency-SLO deployments:
    /// when set, maintenance splits any shard that grows past this
    /// many elements *regardless of access balance*, because a shard
    /// bigger than one step can rebuild would break the bounded-stall
    /// guarantee the moment it needs restructuring (pair it with a
    /// comparable `max_step_elems`). `None` (the default) leaves
    /// shard sizes to the access-driven policy — throughput-oriented
    /// deployments with few large shards stay churn-free.
    pub max_shard_len: Option<usize>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            num_shards: 8,
            rma: RmaConfig::default(),
            min_split_len: 1024,
            max_step_elems: 1 << 16,
            max_shard_len: None,
        }
    }
}

impl ShardConfig {
    /// Panicking form of [`try_validate`](Self::try_validate), used by
    /// the direct `ShardedRma` constructors (whose contract is to
    /// abort on programmer error).
    pub(crate) fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Checks every parameter, returning the first violation as a
    /// typed [`ConfigError`] instead of panicking mid-construction.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.num_shards < 1 {
            return Err(ConfigError::ZeroShards);
        }
        if self.max_step_elems < 1 {
            return Err(ConfigError::ZeroMaxStepElems);
        }
        if let Some(m) = self.max_shard_len {
            if m < self.min_split_len {
                return Err(ConfigError::ShardLenBackstopBelowMinSplit {
                    backstop: m,
                    min_split_len: self.min_split_len,
                });
            }
        }
        self.rma.try_validate().map_err(ConfigError::Rma)
    }
}

/// A rejected engine configuration parameter — the typed error behind
/// [`ShardConfig::try_validate`] and
/// [`MaintainerConfig::try_validate`](crate::MaintainerConfig::try_validate).
/// The `Display` text doubles as the panic message of the asserting
/// validators, so both reporting styles stay in lock-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `num_shards == 0`: the index needs at least one shard.
    ZeroShards,
    /// `max_step_elems == 0`: a maintenance step must be allowed to
    /// move at least one element.
    ZeroMaxStepElems,
    /// `max_shard_len < min_split_len`: a shard past the backstop
    /// could never split.
    ShardLenBackstopBelowMinSplit {
        /// The offending backstop.
        backstop: usize,
        /// The minimum length a splittable shard must have.
        min_split_len: usize,
    },
    /// The per-shard RMA configuration was rejected.
    Rma(RmaConfigError),
    /// Maintainer `poll_interval` is zero.
    ZeroPollInterval,
    /// Maintainer `imbalance_trigger < 1`: maintenance would churn on
    /// balanced load.
    ImbalanceTriggerBelowOne(f64),
    /// Maintainer `checkpoint_interval` is `Some(0)`: the maintainer
    /// would do nothing but checkpoint.
    ZeroCheckpointInterval,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroShards => f.write_str("need at least one shard"),
            ConfigError::ZeroMaxStepElems => {
                f.write_str("a maintenance step must be allowed to move at least one element")
            }
            ConfigError::ShardLenBackstopBelowMinSplit {
                backstop,
                min_split_len,
            } => write!(
                f,
                "a shard-length backstop below min_split_len could never \
                 split (backstop {backstop}, min_split_len {min_split_len})"
            ),
            ConfigError::Rma(e) => e.fmt(f),
            ConfigError::ZeroPollInterval => f.write_str("poll interval must be positive"),
            ConfigError::ImbalanceTriggerBelowOne(x) => write!(
                f,
                "imbalance trigger below 1 would churn on balanced load (got {x})"
            ),
            ConfigError::ZeroCheckpointInterval => {
                f.write_str("checkpoint interval must be positive (or None)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<RmaConfigError> for ConfigError {
    fn from(e: RmaConfigError) -> Self {
        ConfigError::Rma(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ShardConfig {
        ShardConfig::default()
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(base().try_validate(), Ok(()));
    }

    #[test]
    fn zero_shards_rejected() {
        let cfg = ShardConfig {
            num_shards: 0,
            ..base()
        };
        assert_eq!(cfg.try_validate(), Err(ConfigError::ZeroShards));
    }

    #[test]
    fn zero_max_step_elems_rejected() {
        let cfg = ShardConfig {
            max_step_elems: 0,
            ..base()
        };
        assert_eq!(cfg.try_validate(), Err(ConfigError::ZeroMaxStepElems));
    }

    #[test]
    fn shard_len_backstop_below_min_split_rejected() {
        let cfg = ShardConfig {
            min_split_len: 1024,
            max_shard_len: Some(512),
            ..base()
        };
        assert_eq!(
            cfg.try_validate(),
            Err(ConfigError::ShardLenBackstopBelowMinSplit {
                backstop: 512,
                min_split_len: 1024
            })
        );
    }

    #[test]
    fn bad_rma_config_surfaces_typed() {
        let cfg = ShardConfig {
            rma: RmaConfig::with_segment_size(100), // not a power of two
            ..base()
        };
        assert_eq!(
            cfg.try_validate(),
            Err(ConfigError::Rma(RmaConfigError::SegmentNotPowerOfTwo(100)))
        );
    }

    #[test]
    fn display_matches_the_historic_panic_messages() {
        // Downstream should_panic tests match on these substrings;
        // the typed errors must keep printing them.
        let text = ConfigError::ZeroMaxStepElems.to_string();
        assert!(text.contains("at least one element"), "{text}");
    }
}
