//! Construction-time configuration of an [`crate::Rma`].

use crate::thresholds::Thresholds;

/// Whether rebalances/resizes use true memory rewiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewiringMode {
    /// Rewire pages via `memfd` + `mmap(MAP_FIXED)` when a resize takes
    /// the array to one logical page or more; resizes below a page and
    /// every window rebalance take the copy path (the paper rewires
    /// windows too, which did not pay here: see the README's
    /// "Rewiring"). `page_bytes` is the logical page size (the paper
    /// uses 2 MB huge pages). Without a memfd reservation every commit
    /// copies: see `Rma::backend_kind`.
    Enabled {
        /// Logical page size in bytes (power of two).
        page_bytes: usize,
    },
    /// Never rewire (the paper's `-RWR` ablation): a rebalance takes
    /// the two-copy auxiliary-buffer path, and a resize copies each
    /// element once into fresh storage.
    Disabled,
}

/// Configuration of the Rewired Memory Array.
#[derive(Debug, Clone, Copy)]
pub struct RmaConfig {
    /// Segment capacity `B`, in elements. The paper's evaluation fixes
    /// `B = 128` except where it sweeps the parameter (Fig. 10).
    pub segment_size: usize,
    /// Density thresholds + resize policy:
    /// [`Thresholds::update_oriented`] (UT, the default) or
    /// [`Thresholds::scan_oriented`] (ST).
    pub thresholds: Thresholds,
    /// Memory rewiring mode for rebalances and resizes.
    pub rewiring: RewiringMode,
    /// Adaptive rebalancing: `true` enables the Detector and the
    /// adaptive algorithm of §IV; `false` always rebalances evenly.
    pub adaptive: bool,
    /// Total virtual reservation per storage column, in bytes. Bounds
    /// the maximum capacity; the paper reserves 2^37 bytes.
    pub reserve_bytes: usize,
}

impl Default for RmaConfig {
    fn default() -> Self {
        RmaConfig {
            segment_size: 128,
            thresholds: Thresholds::update_oriented(),
            rewiring: RewiringMode::Enabled {
                page_bytes: 2 << 20,
            },
            adaptive: true,
            reserve_bytes: 1 << 33,
        }
    }
}

impl RmaConfig {
    /// Default configuration with segment capacity `b`.
    pub fn with_segment_size(b: usize) -> Self {
        RmaConfig {
            segment_size: b,
            ..Default::default()
        }
    }

    /// Switches off both rewiring and adaptive rebalancing — the
    /// "static index" rung of the Fig. 14 feature ladder.
    pub fn plain(mut self) -> Self {
        self.rewiring = RewiringMode::Disabled;
        self.adaptive = false;
        self
    }

    /// Enables/disables adaptive rebalancing in place.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Enables/disables rewiring in place (the paper's 2 MiB pages).
    pub fn rewired(mut self, on: bool) -> Self {
        self.rewiring = if on {
            RewiringMode::Enabled {
                page_bytes: 2 << 20,
            }
        } else {
            RewiringMode::Disabled
        };
        self
    }

    /// Replaces the threshold preset.
    pub fn with_thresholds(mut self, t: Thresholds) -> Self {
        self.thresholds = t;
        self
    }

    /// Validates parameter sanity; called by [`crate::Rma::new`].
    /// Panicking form of [`try_validate`](Self::try_validate).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Checks parameter sanity without panicking, so builder-style
    /// front-ends can reject a bad configuration with a typed error
    /// before any construction work starts.
    pub fn try_validate(&self) -> Result<(), RmaConfigError> {
        if self.segment_size < 4 {
            return Err(RmaConfigError::SegmentTooSmall(self.segment_size));
        }
        if !self.segment_size.is_power_of_two() {
            return Err(RmaConfigError::SegmentNotPowerOfTwo(self.segment_size));
        }
        if let RewiringMode::Enabled { page_bytes } = self.rewiring {
            if !page_bytes.is_power_of_two() {
                return Err(RmaConfigError::PageNotPowerOfTwo(page_bytes));
            }
            if page_bytes < 4096 {
                return Err(RmaConfigError::PageTooSmall(page_bytes));
            }
        }
        Ok(())
    }
}

/// A rejected [`RmaConfig`] parameter, as reported by
/// [`RmaConfig::try_validate`]. The `Display` text doubles as the
/// panic message of the asserting [`RmaConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaConfigError {
    /// Segment capacity below the minimum of 4 elements.
    SegmentTooSmall(usize),
    /// Segment capacity is not a power of two.
    SegmentNotPowerOfTwo(usize),
    /// Rewiring page size is not a power of two.
    PageNotPowerOfTwo(usize),
    /// Rewiring page size below 4 KiB.
    PageTooSmall(usize),
}

impl std::fmt::Display for RmaConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmaConfigError::SegmentTooSmall(b) => {
                write!(f, "segment size must be >= 4 (got {b})")
            }
            RmaConfigError::SegmentNotPowerOfTwo(b) => {
                write!(f, "segment size must be a power of two (got {b})")
            }
            RmaConfigError::PageNotPowerOfTwo(b) => {
                write!(f, "page size must be a power of two (got {b})")
            }
            RmaConfigError::PageTooSmall(b) => {
                write!(f, "page size must be >= 4 KiB (got {b})")
            }
        }
    }
}

impl std::error::Error for RmaConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        RmaConfig::default().validate();
    }

    #[test]
    fn builder_combinators() {
        let c = RmaConfig::with_segment_size(256)
            .adaptive(false)
            .rewired(false)
            .with_thresholds(Thresholds::scan_oriented());
        c.validate();
        assert_eq!(c.segment_size, 256);
        assert!(!c.adaptive);
        assert_eq!(c.rewiring, RewiringMode::Disabled);
    }

    #[test]
    fn plain_strips_features() {
        let c = RmaConfig::default().plain();
        assert!(!c.adaptive);
        assert_eq!(c.rewiring, RewiringMode::Disabled);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_segment_panics() {
        RmaConfig::with_segment_size(100).validate();
    }
}
