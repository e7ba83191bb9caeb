//! Target system parameters.
//!
//! The defaults here mirror Table 2 of the paper ("Target System
//! Parameters"): 16 nodes, 128 KB 4-way L1s, a 4 MB 4-way L2, 64-byte blocks,
//! link bandwidths between 400 MB/s and 3.2 GB/s and a 100 000-cycle
//! checkpoint interval for the directory system (3000 requests for the
//! snooping system). The Table 2 values no experiment varies are constants
//! beside the one module that reads each (see [`MemorySystemConfig`] and
//! [`SafetyNetConfig`]); only the parameters some experiment turns are
//! fields here.

use crate::time::CycleDelta;

/// Coherence block (cache line) size in bytes — Table 2: "64 byte blocks".
pub const BLOCK_SIZE_BYTES: usize = 64;

/// The squarest `(width, height)` factorisation of `num_nodes` with
/// `width >= height >= 2`, or `None` when no such factorisation exists
/// (zero, one, and prime node counts only factor as degenerate 1-wide rings,
/// on which dimension-order routing and the dateline rule break down).
///
/// The paper's 16-node machine derives to 4×4; 8 nodes form a 4×2 torus and
/// 32 nodes an 8×4 torus.
#[must_use]
pub fn squarest_torus_dims(num_nodes: usize) -> Option<(usize, usize)> {
    if num_nodes < 4 {
        return None;
    }
    let mut height = (num_nodes as f64).sqrt() as usize;
    // Float truncation can land one off for large perfect squares.
    while (height + 1) * (height + 1) <= num_nodes {
        height += 1;
    }
    while height >= 2 {
        if num_nodes % height == 0 {
            return Some((num_nodes / height, height));
        }
        height -= 1;
    }
    None
}

/// How messages are routed through the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Deterministic dimension-order (X then Y) routing. Preserves
    /// point-to-point ordering because every (source, destination) pair uses a
    /// single path.
    Static,
    /// Minimal adaptive routing: at each hop the switch picks, among the
    /// productive directions, the output with the shortest queue (Section 3.1:
    /// "The adaptive routing algorithm allows messages to choose among minimal
    /// distance paths based on outgoing queue lengths in each direction").
    /// Does *not* preserve point-to-point ordering.
    Adaptive,
}

impl RoutingPolicy {
    /// Human-readable label used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RoutingPolicy::Static => "static",
            RoutingPolicy::Adaptive => "adaptive",
        }
    }
}

/// Which variant of a coherence protocol to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolVariant {
    /// The fully designed protocol: every race, including the rare corner
    /// cases, has explicit states and transitions.
    Full,
    /// The speculatively simplified protocol: the rare corner case is *not*
    /// handled; encountering it is detected as a mis-speculation and triggers
    /// a SafetyNet recovery.
    Speculative,
}

impl ProtocolVariant {
    /// Human-readable label used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProtocolVariant::Full => "full",
            ProtocolVariant::Speculative => "speculative",
        }
    }
}

/// Link bandwidth of the interconnection network, Table 2: "400 MB/sec to
/// 3.2 GB/sec".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkBandwidth {
    /// Megabytes per second per unidirectional link.
    pub megabytes_per_second: u64,
}

impl LinkBandwidth {
    /// The low end of the paper's sweep (and the operating point of Figure 5).
    pub const MB_400: LinkBandwidth = LinkBandwidth {
        megabytes_per_second: 400,
    };
    /// An intermediate point of the paper's sweep.
    pub const MB_800: LinkBandwidth = LinkBandwidth {
        megabytes_per_second: 800,
    };
    /// An intermediate point of the paper's sweep.
    pub const GB_1_6: LinkBandwidth = LinkBandwidth {
        megabytes_per_second: 1600,
    };
    /// The high end of the paper's sweep.
    pub const GB_3_2: LinkBandwidth = LinkBandwidth {
        megabytes_per_second: 3200,
    };

    /// Cycles needed to serialize `bytes` onto one link at a
    /// 4 GHz-equivalent cycle time (0.25 ns per cycle).
    ///
    /// `400 MB/s` moves 0.1 bytes per cycle, so a 72-byte data message takes
    /// 720 cycles of link occupancy; `3.2 GB/s` moves 0.8 bytes per cycle
    /// (90 cycles for the same message). The result is always at least one
    /// cycle.
    #[must_use]
    pub fn serialization_cycles(self, bytes: usize) -> CycleDelta {
        let bytes_per_second = self.megabytes_per_second * 1_000_000;
        // cycles = bytes / (bytes per cycle) = bytes * cycles_per_sec / bytes_per_sec
        let cycles =
            (bytes as u64 * crate::time::PAPER_CYCLES_PER_SECOND).div_ceil(bytes_per_second);
        cycles.max(1)
    }
}

/// SafetyNet checkpoint/recovery parameters (Table 2) that experiments
/// vary. The Table 2 values nothing varies are constants in
/// `specsim_safetynet`: the 512 KB log buffer of 72-byte entries
/// (`log::LOG_BUFFER_BYTES`, `log::LOG_ENTRY_BYTES`), the 100-cycle
/// register checkpoint (`station::REGISTER_CHECKPOINT_CYCLES`) and the
/// transaction timeout of three checkpoint intervals
/// (`station::TIMEOUT_CHECKPOINT_INTERVALS`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyNetConfig {
    /// Checkpoint interval for the directory system, in cycles
    /// (Table 2: 100 000 cycles).
    pub checkpoint_interval_cycles: CycleDelta,
    /// Checkpoint interval for the snooping system, in coherence requests
    /// (Table 2: 3000 requests). The snooping system uses the totally ordered
    /// address network as its logical time base.
    pub checkpoint_interval_requests: u64,
    /// Maximum number of not-yet-validated checkpoints a node may hold before
    /// it must stall new speculative work (bounded by log capacity).
    ///
    /// It stays settable although every machine outside tests runs the
    /// default 4: the snooping machine's test
    /// `a_checkpoint_copies_only_the_controllers_written_since_the_last`
    /// raises it to 16. At 4 that test trips `snapshot_probe::copied`'s
    /// "controller 0 was copied but not written", on a home memory whose
    /// owner map is `Debug`-equal before and after the checkpoint.
    pub max_outstanding_checkpoints: usize,
}

impl Default for SafetyNetConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval_cycles: 100_000,
            checkpoint_interval_requests: 3_000,
            max_outstanding_checkpoints: 4,
        }
    }
}

/// The memory-system parameters of the 16-node target machine of Table 2
/// that experiments vary. The fixed latencies are constants beside their
/// one reader: the L1 and L2 hit latencies in `specsim_coherence::hierarchy`
/// (`L1_HIT_CYCLES`, `L2_HIT_CYCLES`), the DRAM access time in the system
/// engine (`specsim::engine::DRAM_ACCESS_CYCLES`) and the per-hop switch
/// latency in `specsim_net` (`config::SWITCH_LATENCY_CYCLES`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySystemConfig {
    /// Number of nodes (processor + caches + memory slice + NI). Table 2 /
    /// Section 5.1: 16.
    pub num_nodes: usize,
    /// Explicit `(width, height)` of the 2D torus. `None` (the default)
    /// derives the squarest factorisation of [`Self::num_nodes`] via
    /// [`squarest_torus_dims`]; set it to pick an elongated machine (e.g.
    /// `16×2` instead of `8×4` for 32 nodes). When set, `width × height`
    /// must equal `num_nodes` and both dimensions must be ≥ 2.
    pub torus_dims: Option<(usize, usize)>,
    /// L1 cache capacity in bytes (instruction and data each; we model the
    /// unified miss stream). Table 2: 128 KB.
    pub l1_bytes: usize,
    /// L1 associativity. Table 2: 4-way.
    pub l1_ways: usize,
    /// L2 cache capacity in bytes. Table 2: 4 MB.
    pub l2_bytes: usize,
    /// L2 associativity. Table 2: 4-way.
    pub l2_ways: usize,
    /// Interconnect link bandwidth.
    pub link_bandwidth: LinkBandwidth,
    /// Miss-status holding registers per node: how many coherence demand
    /// misses a processor may have outstanding at once. 1 models the paper's
    /// blocking in-order miss stream; larger values model the out-of-order
    /// MOSI processors of Section 5.1, which keep issuing past a miss.
    pub mshr_entries: usize,
    /// SafetyNet parameters.
    pub safetynet: SafetyNetConfig,
}

impl Default for MemorySystemConfig {
    fn default() -> Self {
        Self {
            num_nodes: 16,
            torus_dims: None,
            l1_bytes: 128 * 1024,
            l1_ways: 4,
            l2_bytes: 4 * 1024 * 1024,
            l2_ways: 4,
            link_bandwidth: LinkBandwidth::GB_3_2,
            mshr_entries: 1,
            safetynet: SafetyNetConfig::default(),
        }
    }
}

impl MemorySystemConfig {
    /// The `(width, height)` of the 2D torus: the explicit
    /// [`Self::torus_dims`] when set, otherwise the squarest factorisation of
    /// [`Self::num_nodes`]. Panics on configurations [`Self::validate`]
    /// rejects (zero/prime node counts, dims that do not multiply out to
    /// `num_nodes`, 1-wide rings).
    #[must_use]
    pub fn torus_dims(&self) -> (usize, usize) {
        if let Some((w, h)) = self.torus_dims {
            assert!(
                w * h == self.num_nodes && w >= 2 && h >= 2,
                "torus_dims {w}x{h} invalid for {} nodes",
                self.num_nodes
            );
            return (w, h);
        }
        squarest_torus_dims(self.num_nodes).unwrap_or_else(|| {
            panic!(
                "num_nodes = {} has no W x H torus factorisation (both >= 2)",
                self.num_nodes
            )
        })
    }

    /// Sanity-checks the configuration, returning a list of human-readable
    /// problems (empty when the configuration is consistent).
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.num_nodes == 0 {
            problems.push("num_nodes must be positive".to_string());
        } else if let Some((w, h)) = self.torus_dims {
            if w * h != self.num_nodes {
                problems.push(format!(
                    "torus_dims {w}x{h} does not cover num_nodes = {}",
                    self.num_nodes
                ));
            } else if w < 2 || h < 2 {
                problems.push(format!(
                    "torus_dims {w}x{h} contains a degenerate 1-wide ring \
                     (dimension-order routing breaks; both dims must be >= 2)"
                ));
            }
        } else if squarest_torus_dims(self.num_nodes).is_none() {
            problems.push(format!(
                "num_nodes = {} has no W x H torus factorisation with both \
                 dimensions >= 2 (zero/prime node counts are unsupported)",
                self.num_nodes
            ));
        }
        for (level, bytes, ways) in [
            ("L1", self.l1_bytes, self.l1_ways),
            ("L2", self.l2_bytes, self.l2_ways),
        ] {
            let set_bytes = BLOCK_SIZE_BYTES * ways;
            if ways == 0 {
                problems.push(format!("{level} associativity must be positive"));
            } else if bytes % set_bytes != 0 {
                problems.push(format!(
                    "{level} size must be a multiple of block size × associativity"
                ));
            } else if !(bytes / set_bytes).is_power_of_two() {
                problems.push(format!(
                    "{level} set count {} must be a power of two",
                    bytes / set_bytes
                ));
            }
        }
        if self.l2_bytes < self.l1_bytes {
            problems.push("L2 must be at least as large as L1 (inclusive hierarchy)".to_string());
        }
        if self.mshr_entries == 0 {
            problems.push("mshr_entries must be at least 1 (a node needs one MSHR)".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table_2() {
        let c = MemorySystemConfig::default();
        assert_eq!(c.num_nodes, 16);
        assert_eq!(c.l1_bytes, 128 * 1024);
        assert_eq!(c.l1_ways, 4);
        assert_eq!(c.l2_bytes, 4 * 1024 * 1024);
        assert_eq!(c.l2_ways, 4);
        assert_eq!(c.safetynet.checkpoint_interval_cycles, 100_000);
        assert_eq!(c.safetynet.checkpoint_interval_requests, 3_000);
        assert_eq!(c.mshr_entries, 1, "default models a blocking miss stream");
        assert!(c.validate().is_empty());
    }

    #[test]
    fn derived_geometry_is_consistent() {
        let c = MemorySystemConfig::default();
        assert_eq!(c.torus_dims(), (4, 4));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = MemorySystemConfig {
            num_nodes: 13, // prime: only factors as a 1-wide ring
            ..MemorySystemConfig::default()
        };
        assert!(!c.validate().is_empty());
        c.num_nodes = 16;
        c.l2_bytes = 64 * 1024; // smaller than L1
        assert!(!c.validate().is_empty());
    }

    #[test]
    fn validation_rejects_a_set_count_that_is_not_a_power_of_two() {
        // 96 KB of 4-way 64-byte lines is 384 sets.
        let c = MemorySystemConfig {
            l1_bytes: 96 * 1024,
            ..MemorySystemConfig::default()
        };
        assert_eq!(c.validate(), ["L1 set count 384 must be a power of two"]);
        let c = MemorySystemConfig {
            l2_bytes: 3 * 1024 * 1024,
            ..MemorySystemConfig::default()
        };
        assert_eq!(c.validate(), ["L2 set count 12288 must be a power of two"]);
        // Zero ways is reported, not a division by zero.
        let c = MemorySystemConfig {
            l1_ways: 0,
            ..MemorySystemConfig::default()
        };
        assert_eq!(c.validate(), ["L1 associativity must be positive"]);
    }

    #[test]
    fn squarest_factorisation_derivation() {
        assert_eq!(squarest_torus_dims(16), Some((4, 4)));
        assert_eq!(squarest_torus_dims(32), Some((8, 4)));
        assert_eq!(squarest_torus_dims(8), Some((4, 2)));
        assert_eq!(squarest_torus_dims(64), Some((8, 8)));
        assert_eq!(squarest_torus_dims(128), Some((16, 8)));
        assert_eq!(squarest_torus_dims(12), Some((4, 3)));
        assert_eq!(squarest_torus_dims(6), Some((3, 2)));
        // No W×H factorisation with both dims >= 2.
        assert_eq!(squarest_torus_dims(0), None);
        assert_eq!(squarest_torus_dims(1), None);
        assert_eq!(squarest_torus_dims(2), None);
        assert_eq!(squarest_torus_dims(3), None);
        assert_eq!(squarest_torus_dims(7), None);
        assert_eq!(squarest_torus_dims(13), None);
    }

    #[test]
    fn validate_rejects_zero_nodes_and_one_wide_rings() {
        let mut c = MemorySystemConfig {
            num_nodes: 0,
            ..MemorySystemConfig::default()
        };
        assert!(!c.validate().is_empty(), "0 nodes must be rejected");
        // Explicit 1-wide ring.
        c.num_nodes = 8;
        c.torus_dims = Some((8, 1));
        assert!(!c.validate().is_empty(), "1-wide ring must be rejected");
        // Explicit dims that do not cover the node count.
        c.torus_dims = Some((4, 4));
        assert!(!c.validate().is_empty(), "dims must cover num_nodes");
        // A valid rectangular machine passes.
        c.torus_dims = Some((4, 2));
        assert!(c.validate().is_empty());
        c.torus_dims = None;
        assert!(c.validate().is_empty());
    }

    #[test]
    fn torus_dims_resolution_prefers_explicit_dims() {
        let mut c = MemorySystemConfig {
            num_nodes: 32,
            ..MemorySystemConfig::default()
        };
        assert_eq!(c.torus_dims(), (8, 4), "squarest derivation");
        c.torus_dims = Some((16, 2));
        assert_eq!(c.torus_dims(), (16, 2), "explicit dims win");
    }

    #[test]
    fn torus_dims_answers_square_and_rectangular_machines_alike() {
        let c = MemorySystemConfig::default();
        assert_eq!(c.torus_dims(), (4, 4));
        let c64 = MemorySystemConfig {
            num_nodes: 64,
            ..MemorySystemConfig::default()
        };
        assert_eq!(c64.torus_dims(), (8, 8));
        let c8 = MemorySystemConfig {
            num_nodes: 8,
            ..MemorySystemConfig::default()
        };
        assert_eq!(c8.torus_dims(), (4, 2));
    }

    #[test]
    fn link_serialization_matches_bandwidth() {
        // 400 MB/s = 0.1 B/cycle at 4 GHz: 72 bytes take 720 cycles.
        assert_eq!(LinkBandwidth::MB_400.serialization_cycles(72), 720);
        // 3.2 GB/s = 0.8 B/cycle: 72 bytes take 90 cycles.
        assert_eq!(LinkBandwidth::GB_3_2.serialization_cycles(72), 90);
        // Control message of 8 bytes at 400 MB/s: 80 cycles.
        assert_eq!(LinkBandwidth::MB_400.serialization_cycles(8), 80);
        // Serialization is never zero cycles.
        assert_eq!(LinkBandwidth::GB_3_2.serialization_cycles(0), 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RoutingPolicy::Static.label(), "static");
        assert_eq!(RoutingPolicy::Adaptive.label(), "adaptive");
        assert_eq!(ProtocolVariant::Full.label(), "full");
        assert_eq!(ProtocolVariant::Speculative.label(), "speculative");
    }
}
