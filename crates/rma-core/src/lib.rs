//! The Rewired Memory Array (RMA) — the contribution of "Packed
//! Memory Arrays – Rewired" (De Leo & Boncz, ICDE 2019).
//!
//! An RMA is a sparse (packed memory) array storing sorted key/value
//! pairs with five features layered on a traditional PMA:
//!
//! 1. **Clustering** (§III "Segments"): inside each segment, elements
//!    are packed towards one boundary — right for odd-numbered
//!    segments, left for even — with a side `cards` array of
//!    per-segment cardinalities. Every range read walks the same
//!    dense runs, one slice a segment (the private `Rma::runs`), and
//!    never tests for gaps.
//! 2. **Fixed-size segments**: segment capacity is the block-size
//!    tuning parameter `B` (like an (a,b)-tree leaf), not `O(log²N)`.
//!    A segment fills completely (`τ₁ = 1`) before any rebalance.
//! 3. **Static index** (§III "Index", Fig. 5): a pointer-eliminated
//!    B+-tree over segment minima, rebuilt only at resizes; individual
//!    separator updates during rebalances are O(1).
//! 4. **Memory rewiring** (§III "Rebalancing", Fig. 6): a resize to a
//!    logical page or more redistributes the elements into spare
//!    physical pages and swaps the virtual mappings — one copy per
//!    element instead of two. Window rebalances copy through an
//!    auxiliary buffer, page-aligned or not: with 4 KiB kernel pages
//!    behind each logical page, remapping a window cost more than the
//!    copy it saved (the README's "Rewiring" section has the numbers).
//!    `Rma::resize_to` makes the one rewire-or-copy decision, and
//!    [`RmaStats`] counts every commit as one or the other.
//! 5. **Adaptive rebalancing** (§IV): a per-segment Detector predicts
//!    insertion/deletion hot spots; rebalances then place gaps where
//!    new inserts are expected (marked intervals), fixing the APMA
//!    ping-pong pathology and supporting deletions via ±1 scores. A
//!    segment's Detector metadata is one 64-byte cache line, which
//!    every update prefetches together with the segment run.
//!
//! Plus the bottom-up **bulk loading** of §III, with the top-down
//! scheme of Durand et al. (DRF12) implemented as the baseline.
//!
//! # Quick start
//!
//! ```
//! use rma_core::{Rma, RmaConfig};
//!
//! let mut rma = Rma::new(RmaConfig::default());
//! for k in 0..10_000i64 {
//!     rma.insert(k, k * 2);
//! }
//! assert_eq!(rma.get(4321), Some(8642));
//! let (visited, sum) = rma.sum_range(100, 50);
//! assert_eq!(visited, 50);
//! assert!(sum > 0);
//! rma.remove(4321);
//! assert_eq!(rma.get(4321), None);
//! ```

pub mod adaptive;
pub mod bulk;
pub mod config;
pub mod detector;
pub mod index;
pub mod rma;
pub mod stats;
pub mod storage;
pub mod thresholds;

pub use config::{RewiringMode, RmaConfig, RmaConfigError};
pub use index::StaticIndex;
pub use rewiring::BackendKind;
pub use rma::Rma;
pub use stats::RmaStats;
pub use thresholds::{height_for, windows_above, Thresholds};

/// Key type (8-byte integer), shared across the reproduction.
pub type Key = i64;
/// Value type (8-byte integer), shared across the reproduction.
pub type Value = i64;
