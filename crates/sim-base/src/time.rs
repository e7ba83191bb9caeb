//! Simulated time: cycle types and target-time conversions.
//!
//! The whole simulator is cycle driven: every component is ticked once per
//! [`Cycle`]. The processor clock of the paper's target system runs at
//! 4 GHz-equivalent (the processor model "would execute four billion
//! instructions per second"), so a cycle corresponds to 0.25 ns of target
//! time. Conversions between wall-clock target time and cycles live here so
//! that experiment code never hard-codes the scale.

/// A point in simulated time, measured in processor cycles since reset.
pub type Cycle = u64;

/// A duration in simulated processor cycles.
pub type CycleDelta = u64;

/// The number of simulated processor cycles per second of target time for the
/// paper's reference machine (a 4 GHz-equivalent node, Table 2 / Section 5.1).
pub const PAPER_CYCLES_PER_SECOND: u64 = 4_000_000_000;

/// Converts a latency expressed in nanoseconds of target time into cycles at
/// the paper's 4 GHz-equivalent clock.
///
/// ```
/// use specsim_base::time::ns_to_cycles;
/// // Table 2: 180 ns uncontended 2-hop miss from memory.
/// assert_eq!(ns_to_cycles(180), 720);
/// ```
#[must_use]
pub const fn ns_to_cycles(ns: u64) -> CycleDelta {
    ns * (PAPER_CYCLES_PER_SECOND / 1_000_000_000)
}

/// Converts a cycle count into nanoseconds of target time at the paper's
/// 4 GHz-equivalent clock.
#[must_use]
pub const fn cycles_to_ns(cycles: CycleDelta) -> u64 {
    cycles / (PAPER_CYCLES_PER_SECOND / 1_000_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion_roundtrips_for_multiples_of_the_clock_period() {
        for ns in [1u64, 25, 180, 1000] {
            assert_eq!(cycles_to_ns(ns_to_cycles(ns)), ns);
        }
    }

    #[test]
    fn paper_memory_latency_is_720_cycles() {
        assert_eq!(ns_to_cycles(180), 720);
    }
}
