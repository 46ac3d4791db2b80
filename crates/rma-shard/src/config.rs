//! Construction-time configuration of the sharded engine, and the
//! typed [`ConfigError`] its validator reports.
//!
//! [`ShardConfig::try_validate`] checks every parameter **before** any
//! construction work starts, so builder-style front-ends —
//! [`rma-db`'s `DbBuilder`] is the canonical consumer — can reject a
//! bad configuration with a typed, matchable error instead of
//! panicking deep inside a constructor. The asserting `validate()`
//! form remains for the direct `ShardedRma` constructors, whose
//! established contract is to abort on programmer error; both forms
//! share one rule set.
//!
//! [`rma-db`'s `DbBuilder`]: https://docs.rs/rma-db

use rma_core::{RmaConfig, RmaConfigError};

/// Construction-time configuration of a
/// [`ShardedRma`](crate::ShardedRma).
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Target shard count. Splitter learning may induce fewer shards
    /// on duplicate-heavy samples. Maintenance treats each shard as a
    /// calibrator leaf whose target mass is `W / num_shards` (`W` the
    /// total access mass, or the total length while none is
    /// recorded), at density 0.75 of the leaf, and keeps every
    /// shard's density between 0.08 and 1: `num_shards` shards of
    /// equal mass are left alone, and otherwise the count follows how
    /// the mass is spread — more shards over a narrow hot band, fewer
    /// over cold ranges, down to what one merge step may rebuild
    /// (`max_shard_len`; unset, one target shard's length, or 2^17
    /// elements if that is more).
    pub num_shards: usize,
    /// Configuration applied to every per-shard RMA. A shard shorter
    /// than [`MIN_SPLIT_SEGMENTS`] of its segments never splits.
    pub rma: RmaConfig,
    /// Optional shard-length backstop for latency-SLO deployments:
    /// when set, maintenance cuts any shard that grows past this many
    /// elements into pieces within it *regardless of access balance*,
    /// because a shard bigger than one step can rebuild would break
    /// the bounded-stall guarantee the moment it needs restructuring;
    /// and a merge builds at most this many elements (when unset, one
    /// target shard's length, `len / num_shards`, or 2^17 if that is
    /// more), which bounds how long it holds its shard locks. A
    /// split is not bounded — it is how an oversized shard shrinks.
    /// `None` (the default) leaves shard sizes to the access-driven
    /// policy — throughput-oriented deployments with few large shards
    /// stay churn-free.
    pub max_shard_len: Option<usize>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            num_shards: 8,
            rma: RmaConfig::default(),
            max_shard_len: None,
        }
    }
}

/// A shard shorter than this many segments of its RMA never splits,
/// however hot it runs: 1 024 elements at the default segment size.
pub const MIN_SPLIT_SEGMENTS: usize = 8;

impl ShardConfig {
    /// The shortest shard that may split: [`MIN_SPLIT_SEGMENTS`]
    /// segments.
    pub(crate) fn min_split(&self) -> usize {
        MIN_SPLIT_SEGMENTS * self.rma.segment_size
    }

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
        if let Some(m) = self.max_shard_len {
            if m < self.min_split() {
                return Err(ConfigError::ShardLenBackstopBelowMinSplit {
                    backstop: m,
                    min_len: self.min_split(),
                });
            }
        }
        self.rma.try_validate().map_err(ConfigError::Rma)
    }
}

/// A rejected engine configuration parameter — the typed error behind
/// [`ShardConfig::try_validate`].
/// The `Display` text doubles as the panic message of the asserting
/// validator, so both reporting styles stay in lock-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `num_shards == 0`: the index needs at least one shard.
    ZeroShards,
    /// `max_shard_len` below [`MIN_SPLIT_SEGMENTS`] segments: a shard
    /// past the backstop could never split.
    ShardLenBackstopBelowMinSplit {
        /// The offending backstop.
        backstop: usize,
        /// The minimum length a splittable shard must have.
        min_len: usize,
    },
    /// The per-shard RMA configuration was rejected.
    Rma(RmaConfigError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroShards => f.write_str("need at least one shard"),
            ConfigError::ShardLenBackstopBelowMinSplit { backstop, min_len } => write!(
                f,
                "a shard-length backstop below the shortest splittable shard \
                 could never split (backstop {backstop}, shortest {min_len})"
            ),
            ConfigError::Rma(e) => e.fmt(f),
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
    fn shard_len_backstop_below_min_split_rejected() {
        // Eight segments of 128: no shard below 1 024 elements splits.
        let cfg = ShardConfig {
            max_shard_len: Some(512),
            ..base()
        };
        assert_eq!(
            cfg.try_validate(),
            Err(ConfigError::ShardLenBackstopBelowMinSplit {
                backstop: 512,
                min_len: 1024
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
        let backstop = ConfigError::ShardLenBackstopBelowMinSplit {
            backstop: 0,
            min_len: 1024,
        };
        let text = backstop.to_string();
        assert!(text.contains("could never split"), "{text}");
    }
}
