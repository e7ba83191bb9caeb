//! Synthetic memory-reference generators.
//!
//! A generator produces an endless stream of (think-time, memory-reference)
//! pairs for one processor. References are drawn from disjoint address
//! regions — per-node private (hot and warm), globally shared read-mostly,
//! globally shared read-write and migratory — with per-workload
//! probabilities ([`crate::kinds::WorkloadParams`]). The private hot region
//! mostly fits in the L1, the private warm region exceeds the L2 (driving
//! capacity evictions and therefore writebacks), and the migratory region is
//! written by different processors in turn, which is what occasionally lines
//! up a Writeback with a RequestReadWrite from another node — the race of
//! Section 3.1.

use std::collections::VecDeque;
use std::sync::Arc;

use specsim_base::{BlockAddr, Cycle, DetRng, NodeId};
use specsim_coherence::types::{CpuAccess, CpuRequest};

use crate::kinds::{WorkloadKind, WorkloadParams};
use crate::traffic::{TrafficConfig, ZipfTable};

/// Fraction of private references that target the hot (L1-resident) subset.
const PRIVATE_HOT_FRACTION: f64 = 0.8;

/// Base block addresses of the synthetic address-space regions. The regions
/// are placed far apart so they can never overlap for any node count or
/// footprint used by the experiments.
const PRIVATE_REGION_BASE: u64 = 1 << 32;
const PRIVATE_REGION_STRIDE: u64 = 1 << 26;
const SHARED_RW_BASE: u64 = 2 << 32;
const SHARED_RO_BASE: u64 = 3 << 32;
const MIGRATORY_BASE: u64 = 4 << 32;

/// One generated operation: the think time preceding the reference and the
/// reference itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedOp {
    /// Cycles of non-memory work before the reference is issued.
    pub think_cycles: u64,
    /// The memory reference.
    pub req: CpuRequest,
}

/// A deterministic memory-reference generator for one processor. A clone
/// continues the identical stream, which is how a checkpoint rewinds it.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    kind: WorkloadKind,
    params: WorkloadParams,
    node: NodeId,
    rng: DetRng,
    ops_generated: u64,
    store_counter: u64,
    /// Recently touched blocks; re-accessed with probability
    /// `params.reuse_fraction` to give the reference stream temporal
    /// locality (and therefore realistic cache hit rates).
    recent: VecDeque<BlockAddr>,
    /// Traffic shaping (Zipfian skew, bursty injection). Off by default;
    /// when off the RNG stream is byte-identical to the unshaped generator.
    traffic: TrafficConfig,
    /// Shared inverse-CDF table for Zipfian sampling (present iff
    /// `traffic.zipf` is). Immutable, so checkpoint clones share it.
    zipf_table: Option<Arc<ZipfTable>>,
}

impl WorkloadGenerator {
    /// Creates the generator for `node` running workload `kind`. Generators
    /// with the same `(kind, node, seed)` produce identical streams.
    #[must_use]
    pub fn new(kind: WorkloadKind, node: NodeId, seed: u64) -> Self {
        Self::shaped(kind, node, seed, TrafficConfig::default(), None)
    }

    /// Creates a generator with traffic shaping applied. `zipf_table` must
    /// be present exactly when `traffic.zipf` is; it is built once per run
    /// and shared across nodes.
    #[must_use]
    pub fn shaped(
        kind: WorkloadKind,
        node: NodeId,
        seed: u64,
        traffic: TrafficConfig,
        zipf_table: Option<Arc<ZipfTable>>,
    ) -> Self {
        debug_assert_eq!(
            traffic.zipf.is_some(),
            zipf_table.is_some(),
            "zipf table must accompany a zipf config"
        );
        // Mix the node into the seed so each node has an independent stream
        // that is still fully determined by the top-level seed.
        let rng =
            DetRng::new(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node.index() as u64 + 1)));
        Self {
            kind,
            params: kind.params(),
            node,
            rng,
            ops_generated: 0,
            store_counter: 0,
            recent: VecDeque::new(),
            traffic,
            zipf_table,
        }
    }

    /// The workload this generator models.
    #[must_use]
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Number of operations generated so far.
    #[must_use]
    pub fn ops_generated(&self) -> u64 {
        self.ops_generated
    }

    /// Generates the next operation as if at cycle 0 (exactly the unshaped
    /// stream when no bursty modulation is configured).
    pub fn next_op(&mut self) -> GeneratedOp {
        self.next_op_at(0)
    }

    /// Generates the next operation at simulation time `now`; the current
    /// burst phase (if bursty modulation is configured) scales the think
    /// time drawn for it.
    pub fn next_op_at(&mut self, now: Cycle) -> GeneratedOp {
        self.ops_generated += 1;
        let think_cycles = match self.traffic.burst {
            None => self.sample_think(),
            Some(b) => self.sample_think_scaled(b.rate_multiplier(now)),
        };
        let p = self.params;
        // Zipfian hot-set redirect: when configured, a fraction of
        // references bypass the region model and hit a Zipf-ranked hot
        // subset at the base of the shared read-write region. Consumes RNG
        // draws only when configured, so the unshaped stream is untouched.
        let zipf_pick = match (&self.zipf_table, self.traffic.zipf) {
            (Some(table), Some(z)) if self.rng.chance(z.fraction) => {
                Some(BlockAddr(SHARED_RW_BASE + table.sample(&mut self.rng)))
            }
            _ => None,
        };
        // Temporal locality: most references revisit a recently touched
        // block; the rest draw a fresh block from the region model.
        let (addr, write_fraction) = if let Some(hot) = zipf_pick {
            (hot, p.write_fraction_shared_rw)
        } else if !self.recent.is_empty() && self.rng.chance(p.reuse_fraction) {
            let idx = self.rng.next_below(self.recent.len() as u64) as usize;
            (self.recent[idx], p.write_fraction_private)
        } else {
            let region = self.rng.next_f64();
            let fresh = if region < p.p_private {
                (self.private_addr(), p.write_fraction_private)
            } else if region < p.p_private + p.p_shared_ro {
                (self.shared_ro_addr(), 0.02)
            } else if region < p.p_private + p.p_shared_ro + p.p_shared_rw {
                (self.shared_rw_addr(), p.write_fraction_shared_rw)
            } else {
                (self.migratory_addr(), p.write_fraction_migratory)
            };
            self.recent.push_back(fresh.0);
            if self.recent.len() > p.reuse_window.max(1) {
                self.recent.pop_front();
            }
            fresh
        };
        let is_store = self.rng.chance(write_fraction);
        let req = if is_store {
            self.store_counter += 1;
            CpuRequest {
                addr,
                access: CpuAccess::Store,
                store_value: ((self.node.index() as u64 + 1) << 40) | self.store_counter,
            }
        } else {
            CpuRequest {
                addr,
                access: CpuAccess::Load,
                store_value: 0,
            }
        };
        GeneratedOp { think_cycles, req }
    }

    fn sample_think(&mut self) -> u64 {
        // Uniform in [1, 2*mean]; mean matches the configured think time.
        let mean = self.params.mean_think_cycles.max(1);
        1 + self.rng.next_below(2 * mean)
    }

    fn sample_think_scaled(&mut self, rate_multiplier: f64) -> u64 {
        // A rate multiplier of `m` divides the expected *inter-op time* by
        // `m`. The unshaped draw `1 + next_below(2*mean)` has expectation
        // `mean + 0.5`, so the scaled draw targets `(mean + 0.5) / m` —
        // scaling the whole expectation (including the 1-cycle floor) keeps
        // the injection rate linear in `m`, which is what makes the duty-
        // weighted burst/trough rates average back to the unshaped rate.
        // At m == 1 the bound is exactly `2 * mean`, matching the unshaped
        // draw bit-for-bit.
        let mean = self.params.mean_think_cycles.max(1) as f64;
        let target = (mean + 0.5) / rate_multiplier.max(1e-9);
        let bound = ((2.0 * target - 1.0).round() as u64).max(1);
        1 + self.rng.next_below(bound)
    }

    fn private_addr(&mut self) -> BlockAddr {
        let base = PRIVATE_REGION_BASE + PRIVATE_REGION_STRIDE * self.node.index() as u64;
        let hot = self.rng.chance(PRIVATE_HOT_FRACTION);
        let offset = if hot {
            self.rng.next_below(self.params.private_hot_blocks.max(1))
        } else {
            self.params.private_hot_blocks
                + self.rng.next_below(self.params.private_warm_blocks.max(1))
        };
        BlockAddr(base + offset)
    }

    fn shared_ro_addr(&mut self) -> BlockAddr {
        BlockAddr(SHARED_RO_BASE + self.rng.next_below(self.params.shared_ro_blocks.max(1)))
    }

    fn shared_rw_addr(&mut self) -> BlockAddr {
        BlockAddr(SHARED_RW_BASE + self.rng.next_below(self.params.shared_rw_blocks.max(1)))
    }

    fn migratory_addr(&mut self) -> BlockAddr {
        BlockAddr(MIGRATORY_BASE + self.rng.next_below(self.params.migratory_blocks.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::ALL_WORKLOADS;
    use specsim_coherence::types::CpuAccess;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let mut a = WorkloadGenerator::new(WorkloadKind::Oltp, NodeId(3), 7);
        let mut b = WorkloadGenerator::new(WorkloadKind::Oltp, NodeId(3), 7);
        let mut c = WorkloadGenerator::new(WorkloadKind::Oltp, NodeId(3), 8);
        let mut identical = true;
        let mut different = false;
        for _ in 0..200 {
            let (oa, ob, oc) = (a.next_op(), b.next_op(), c.next_op());
            identical &= oa == ob;
            different |= oa != oc;
        }
        assert!(identical);
        assert!(different);
    }

    #[test]
    fn nodes_have_disjoint_private_regions() {
        let mut g0 = WorkloadGenerator::new(WorkloadKind::Jbb, NodeId(0), 1);
        let mut g1 = WorkloadGenerator::new(WorkloadKind::Jbb, NodeId(1), 1);
        let private0: HashSet<u64> = (0..2000)
            .map(|_| g0.next_op().req.addr.0)
            .filter(|a| (PRIVATE_REGION_BASE..SHARED_RW_BASE).contains(a))
            .collect();
        let private1: HashSet<u64> = (0..2000)
            .map(|_| g1.next_op().req.addr.0)
            .filter(|a| (PRIVATE_REGION_BASE..SHARED_RW_BASE).contains(a))
            .collect();
        assert!(!private0.is_empty() && !private1.is_empty());
        assert!(private0.is_disjoint(&private1));
    }

    #[test]
    fn different_nodes_share_the_shared_regions() {
        let mut g0 = WorkloadGenerator::new(WorkloadKind::Oltp, NodeId(0), 1);
        let mut g1 = WorkloadGenerator::new(WorkloadKind::Oltp, NodeId(5), 1);
        let shared0: HashSet<u64> = (0..5000)
            .map(|_| g0.next_op().req.addr.0)
            .filter(|a| *a >= SHARED_RW_BASE)
            .collect();
        let shared1: HashSet<u64> = (0..5000)
            .map(|_| g1.next_op().req.addr.0)
            .filter(|a| *a >= SHARED_RW_BASE)
            .collect();
        assert!(
            shared0.intersection(&shared1).count() > 0,
            "shared regions must actually be shared between nodes"
        );
    }

    #[test]
    fn store_values_are_unique_and_tagged_by_node() {
        let mut g = WorkloadGenerator::new(WorkloadKind::Barnes, NodeId(2), 1);
        let mut seen = HashSet::new();
        for _ in 0..5000 {
            let op = g.next_op();
            if op.req.access == CpuAccess::Store {
                assert!(
                    seen.insert(op.req.store_value),
                    "store values must be unique"
                );
                assert_eq!(op.req.store_value >> 40, 3); // node index + 1
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn write_fractions_roughly_match_parameters() {
        for kind in ALL_WORKLOADS {
            let mut g = WorkloadGenerator::new(kind, NodeId(1), 11);
            let n = 20_000;
            let stores = (0..n)
                .filter(|_| g.next_op().req.access == CpuAccess::Store)
                .count();
            let rate = stores as f64 / n as f64;
            assert!(
                rate > 0.05 && rate < 0.6,
                "{}: store rate {rate} outside plausible range",
                kind.label()
            );
        }
    }

    #[test]
    fn think_times_have_the_configured_mean() {
        let mut g = WorkloadGenerator::new(WorkloadKind::Apache, NodeId(0), 3);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| g.next_op().think_cycles).sum();
        let mean = total as f64 / n as f64;
        let expected = WorkloadKind::Apache.params().mean_think_cycles as f64;
        assert!(
            (mean - (expected + 0.5)).abs() < 0.5,
            "mean think {mean}, expected about {expected}"
        );
    }

    #[test]
    fn snapshot_restore_replays_the_stream() {
        // A checkpoint is a clone; assigning it back restores it, and the
        // restored generator continues the identical stream.
        let mut g = WorkloadGenerator::new(WorkloadKind::Slashcode, NodeId(4), 9);
        for _ in 0..100 {
            g.next_op();
        }
        let snap = g.clone();
        let forward: Vec<GeneratedOp> = (0..50).map(|_| g.next_op()).collect();
        g = snap;
        let replay: Vec<GeneratedOp> = (0..50).map(|_| g.next_op()).collect();
        assert_eq!(forward, replay);
    }
}
