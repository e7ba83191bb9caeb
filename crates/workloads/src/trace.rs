//! Replayable per-node request traces.
//!
//! A trace records, for every node, the schedule of memory references the
//! machine *accepted* (cycle, block address, load/store, store value). The
//! recorder lives inside [`crate::Processor`] and is part of its
//! checkpointed clone, so SafetyNet recovery rolls the trace back together
//! with the execution it describes — a recorded trace never contains
//! squashed speculative work.
//!
//! The replayer turns a recorded per-node schedule back into a generator-
//! shaped op stream: each event becomes ready exactly at its recorded
//! cycle, so replaying a trace against the same machine configuration
//! reproduces the original run's accept schedule bit-for-bit (the cache and
//! memory images end up identical). This is the trace-driven processor
//! front-end shape of classic cache simulators, adapted to the rewindable
//! simulator core.
//!
//! The on-disk format is a deliberately simple line-oriented text format
//! (`specsim-trace v1`), one event per line, so traces can be diffed,
//! grepped and committed.

use std::sync::Arc;

use specsim_base::{BlockAddr, Cycle, NodeId};
use specsim_coherence::types::{CpuAccess, CpuRequest};

use crate::generator::GeneratedOp;

/// One recorded memory reference of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the machine accepted the reference (cache hit or
    /// coherence transaction start).
    pub cycle: Cycle,
    /// The referenced block.
    pub addr: BlockAddr,
    /// Load or store.
    pub access: CpuAccess,
    /// Value written by a store (0 for loads).
    pub store_value: u64,
}

impl TraceEvent {
    /// The reference as a cache-controller request.
    #[must_use]
    pub fn req(&self) -> CpuRequest {
        CpuRequest {
            addr: self.addr,
            access: self.access,
            store_value: self.store_value,
        }
    }
}

/// A complete recorded run: one event schedule per node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Per-node schedules, indexed by node.
    pub nodes: Vec<Vec<TraceEvent>>,
}

impl Trace {
    /// Number of nodes in the trace.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Serialises the trace as `specsim-trace v1` text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("specsim-trace v1 nodes={}\n", self.nodes.len());
        for (node, events) in self.nodes.iter().enumerate() {
            for e in events {
                let tag = match e.access {
                    CpuAccess::Load => 'L',
                    CpuAccess::Store => 'S',
                };
                out.push_str(&format!(
                    "{node} {} {} {tag} {}\n",
                    e.cycle, e.addr.0, e.store_value
                ));
            }
        }
        out
    }

    /// Parses `specsim-trace v1` text.
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty trace")?;
        let nodes: usize = header
            .strip_prefix("specsim-trace v1 nodes=")
            .ok_or_else(|| format!("bad trace header: {header:?}"))?
            .trim()
            .parse()
            .map_err(|e| format!("bad node count in header: {e}"))?;
        let mut trace = Trace {
            nodes: vec![Vec::new(); nodes],
        };
        for (lineno, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut f = line.split_whitespace();
            let parse = |s: Option<&str>, what: &str| -> Result<u64, String> {
                s.ok_or_else(|| format!("line {}: missing {what}", lineno + 2))?
                    .parse()
                    .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 2))
            };
            let node = parse(f.next(), "node")? as usize;
            let cycle = parse(f.next(), "cycle")?;
            let addr = parse(f.next(), "addr")?;
            let access = match f.next() {
                Some("L") => CpuAccess::Load,
                Some("S") => CpuAccess::Store,
                other => return Err(format!("line {}: bad access {other:?}", lineno + 2)),
            };
            let store_value = parse(f.next(), "value")?;
            if node >= nodes {
                return Err(format!(
                    "line {}: node {node} out of range (nodes={nodes})",
                    lineno + 2
                ));
            }
            trace.nodes[node].push(TraceEvent {
                cycle,
                addr: BlockAddr(addr),
                access,
                store_value,
            });
        }
        Ok(trace)
    }
}

/// Deterministic replayer of one node's recorded schedule.
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    trace: Arc<Trace>,
    node: NodeId,
    pos: usize,
}

impl TraceReplayer {
    /// Creates a replayer over `node`'s schedule in `trace`. Nodes beyond
    /// the trace replay an empty schedule (immediately done).
    #[must_use]
    pub fn new(trace: Arc<Trace>, node: NodeId) -> Self {
        Self {
            trace,
            node,
            pos: 0,
        }
    }

    fn events(&self) -> &[TraceEvent] {
        self.trace
            .nodes
            .get(self.node.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Produces the next recorded reference as a generator-shaped op whose
    /// think time makes it ready exactly at its recorded cycle (or next
    /// cycle, if the recorded cycle is already past — e.g. after a
    /// recovery). Returns `None` when the schedule is exhausted.
    pub fn next_op_at(&mut self, now: Cycle) -> Option<GeneratedOp> {
        let e = *self.events().get(self.pos)?;
        self.pos += 1;
        Some(GeneratedOp {
            think_cycles: e.cycle.saturating_sub(now).max(1),
            req: e.req(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            nodes: vec![
                vec![
                    TraceEvent {
                        cycle: 10,
                        addr: BlockAddr(1 << 32),
                        access: CpuAccess::Load,
                        store_value: 0,
                    },
                    TraceEvent {
                        cycle: 25,
                        addr: BlockAddr(2 << 32),
                        access: CpuAccess::Store,
                        store_value: (1 << 40) | 1,
                    },
                ],
                vec![TraceEvent {
                    cycle: 7,
                    addr: BlockAddr(42),
                    access: CpuAccess::Store,
                    store_value: (2 << 40) | 1,
                }],
            ],
        }
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let t = sample_trace();
        let parsed = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(t, parsed);
        assert_eq!(parsed.num_nodes(), 2);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Trace::from_text("").is_err());
        assert!(Trace::from_text("not-a-trace\n").is_err());
        assert!(Trace::from_text("specsim-trace v1 nodes=1\n0 5 7 X 0\n").is_err());
        assert!(Trace::from_text("specsim-trace v1 nodes=1\n3 5 7 L 0\n").is_err());
        assert!(Trace::from_text("specsim-trace v1 nodes=1\n0 5\n").is_err());
        // Comments and blank lines are tolerated.
        let ok = Trace::from_text("specsim-trace v1 nodes=1\n# hi\n\n0 5 7 L 0\n").unwrap();
        assert_eq!(ok.nodes[0].len(), 1);
    }

    #[test]
    fn replayer_schedules_events_at_their_recorded_cycles() {
        let t = Arc::new(sample_trace());
        let mut r = TraceReplayer::new(Arc::clone(&t), NodeId(0));
        let op1 = r.next_op_at(0).unwrap();
        assert_eq!(op1.think_cycles, 10);
        assert_eq!(op1.req.access, CpuAccess::Load);
        let op2 = r.next_op_at(10).unwrap();
        assert_eq!(op2.think_cycles, 15); // ready at cycle 25
        assert!(r.next_op_at(25).is_none(), "schedule exhausted");
        // A recorded cycle already in the past is replayed next cycle.
        let mut late = TraceReplayer::new(Arc::clone(&t), NodeId(1));
        assert_eq!(late.next_op_at(100).unwrap().think_cycles, 1);
        // Nodes beyond the trace are immediately done.
        let mut empty = TraceReplayer::new(t, NodeId(9));
        assert!(empty.next_op_at(0).is_none());
    }

    #[test]
    fn replayer_snapshot_restore_rewinds() {
        // A checkpoint is a clone; assigning it back rewinds the position.
        let t = Arc::new(sample_trace());
        let mut r = TraceReplayer::new(t, NodeId(0));
        let snap = r.clone();
        let a = r.next_op_at(0).unwrap();
        r = snap;
        let b = r.next_op_at(0).unwrap();
        assert_eq!(a, b);
        // The rewound replayer goes on with the trace's second event, then
        // ends.
        let second = r.next_op_at(0).unwrap();
        assert_eq!(second.req.addr, BlockAddr(2 << 32));
        assert_eq!(second.req.access, CpuAccess::Store);
        assert!(r.next_op_at(0).is_none());
    }
}
