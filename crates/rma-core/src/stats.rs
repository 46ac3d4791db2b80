//! Operational counters of the RMA, used by the experiment drivers to
//! report rebalance behaviour (§V "costs of rebalances").

/// Cumulative statistics; all counters are since construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct RmaStats {
    /// Window rebalances executed (excluding resizes).
    pub rebalances: u64,
    /// Rebalances that used the adaptive algorithm (marked intervals
    /// were present).
    pub adaptive_rebalances: u64,
    /// Resizes that grew the array.
    pub grows: u64,
    /// Resizes that shrank the array.
    pub shrinks: u64,
    /// Elements copied during rebalances and resizes, and written by
    /// a bulk build into an empty array.
    pub elements_moved: u64,
    /// Rebalances/resizes that committed through page rewiring. (A
    /// bulk build into an empty array writes in place: it counts as a
    /// grow and as neither kind of commit.)
    pub rewired_commits: u64,
    /// Rebalances/resizes that fell back to the copy path.
    pub copied_commits: u64,
}

impl RmaStats {
    /// Total structural reorganisations.
    pub fn reorganisations(&self) -> u64 {
        self.rebalances + self.grows + self.shrinks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorganisations_sums_counters() {
        let s = RmaStats {
            rebalances: 3,
            grows: 2,
            shrinks: 1,
            ..Default::default()
        };
        assert_eq!(s.reorganisations(), 6);
    }
}
