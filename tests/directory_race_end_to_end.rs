//! End-to-end test of the Section 3.1 race through the real controllers:
//! a Writeback racing with a RequestReadWrite, delivered in both orders.
//!
//! The unit tests in `specsim-coherence` exercise the cache and directory
//! controllers separately; this test wires two cache controllers and a
//! directory controller together with a hand-driven message transport so the
//! whole three-party exchange (including the FinalAck handshake) runs in
//! both the in-order case (speculation pays off) and the reordered case
//! (mis-speculation detected by the speculative variant, impossible for the
//! full variant because the directory defers the racing writeback).

use specsim_base::{BlockAddr, MemorySystemConfig, NodeId, ProtocolVariant};
use specsim_coherence::dir::{DirCacheController, DirMsg, DirectoryController, OutMsg};
use specsim_coherence::types::{CpuAccess, CpuRequest, MisSpecKind, MsgClass};
use specsim_coherence::CacheController;

const HOME: NodeId = NodeId(0);
const P1: NodeId = NodeId(1);
const P2: NodeId = NodeId(2);
const BLOCK: BlockAddr = BlockAddr(0x100); // homed at node 0 in a 16-node system

struct TestBench {
    dir: DirectoryController,
    caches: Vec<DirCacheController>,
}

impl TestBench {
    fn new(variant: ProtocolVariant) -> Self {
        let cfg = MemorySystemConfig {
            l1_bytes: 4 * 64,
            l1_ways: 2,
            l2_bytes: 8 * 64,
            l2_ways: 2,
            ..MemorySystemConfig::default()
        };
        Self {
            dir: DirectoryController::new(HOME, variant),
            caches: (0..3)
                .map(|i| DirCacheController::new(NodeId(i as u16 + 1), variant, &cfg))
                .collect(),
        }
    }

    fn cache(&mut self, node: NodeId) -> &mut DirCacheController {
        &mut self.caches[node.index() - 1]
    }

    /// Collects every queued outgoing message from every controller.
    fn gather(&mut self) -> Vec<(NodeId, OutMsg)> {
        let mut out = Vec::new();
        while let Some(m) = self.dir.pop_outgoing() {
            out.push((HOME, m));
        }
        for cache in &mut self.caches {
            let node = cache.node();
            while let Some(m) = cache.pop_outgoing() {
                out.push((node, m));
            }
        }
        out
    }

    /// Delivers one message to its destination controller, returning any
    /// detected mis-speculation.
    fn deliver(&mut self, src: NodeId, m: OutMsg) -> Option<MisSpecKind> {
        match m.msg.class() {
            MsgClass::Request | MsgClass::FinalAck => {
                self.dir
                    .handle_message(0, src, m.msg)
                    .expect("directory handles message");
                None
            }
            _ => self
                .cache(m.dst)
                .handle_message(0, m.msg)
                .expect("cache handles message")
                .map(|ms| ms.kind),
        }
    }

    /// Runs message exchange to quiescence, delivering in FIFO order.
    fn run_to_quiescence(&mut self) {
        for _ in 0..64 {
            let msgs = self.gather();
            if msgs.is_empty() {
                return;
            }
            for (src, m) in msgs {
                assert!(self.deliver(src, m).is_none(), "unexpected mis-speculation");
            }
        }
        panic!("protocol did not quiesce");
    }

    /// Makes P1 the owner of BLOCK in state M with the given value.
    fn make_p1_owner(&mut self, value: u64) {
        self.cache(P1).cpu_request(
            0,
            CpuRequest {
                addr: BLOCK,
                access: CpuAccess::Store,
                store_value: value,
            },
        );
        self.run_to_quiescence();
        assert!(self.cache(P1).hierarchy().cached_value(BLOCK).is_some());
    }
}

/// Drives the race: P1 evicts BLOCK (PutM) while P2 requests it (GetM), with
/// the directory seeing the GetM first. Returns the two ForwardedRequest-class
/// messages destined for P1 (the FwdGetM and the WbAck) in the order the
/// directory sent them, plus the bench for continued execution.
fn set_up_race(variant: ProtocolVariant) -> (TestBench, Vec<OutMsg>) {
    let mut bench = TestBench::new(variant);
    bench.make_p1_owner(77);
    // P1 starts a writeback (PutM now queued at P1).
    assert!(bench.cache(P1).force_evict(BLOCK));
    let p1_putm = bench.cache(P1).pop_outgoing().expect("PutM queued");
    assert!(matches!(p1_putm.msg, DirMsg::PutM { .. }));
    // P2 issues a GetM which reaches the directory first.
    bench.cache(P2).cpu_request(
        10,
        CpuRequest {
            addr: BLOCK,
            access: CpuAccess::Store,
            store_value: 88,
        },
    );
    let p2_getm = bench.cache(P2).pop_outgoing().expect("GetM queued");
    bench.dir.handle_message(11, P2, p2_getm.msg).unwrap();
    // Now the racing PutM arrives at the (busy) directory.
    bench.dir.handle_message(12, P1, p1_putm.msg).unwrap();
    // Collect what the directory wants to send to P1 on the ForwardedRequest
    // class (FwdGetM, and — in the speculative variant — the immediate WbAck).
    let mut to_p1 = Vec::new();
    let mut rest = Vec::new();
    while let Some(m) = bench.dir.pop_outgoing() {
        if m.dst == P1 {
            to_p1.push(m);
        } else {
            rest.push((HOME, m));
        }
    }
    for (src, m) in rest {
        bench.deliver(src, m);
    }
    (bench, to_p1)
}

#[test]
fn speculative_variant_survives_the_race_when_ordering_holds() {
    let (mut bench, to_p1) = set_up_race(ProtocolVariant::Speculative);
    assert_eq!(
        to_p1.len(),
        2,
        "speculative directory sends FwdGetM and WbAck immediately"
    );
    // In-order delivery: FwdGetM first, WbAck second.
    for m in to_p1 {
        assert!(
            bench.deliver(HOME, m).is_none(),
            "no mis-speculation in order"
        );
    }
    bench.run_to_quiescence();
    // P2 ends up owning the block with P1's data handed over, then stores.
    let (_, value) = bench
        .cache(P2)
        .hierarchy()
        .cached_value(BLOCK)
        .expect("P2 owns the block");
    assert_eq!(value, 88);
    assert!(bench.cache(P1).hierarchy().cached_value(BLOCK).is_none());
}

#[test]
fn speculative_variant_detects_the_race_when_the_network_reorders() {
    let (mut bench, mut to_p1) = set_up_race(ProtocolVariant::Speculative);
    assert_eq!(to_p1.len(), 2);
    // Adaptive routing delivers the WbAck before the FwdGetM.
    to_p1.reverse();
    let first = bench.deliver(HOME, to_p1[0]);
    assert!(first.is_none(), "the WbAck itself is handled normally");
    let second = bench.deliver(HOME, to_p1[1]);
    assert_eq!(
        second,
        Some(MisSpecKind::ForwardedRequestToInvalidCache),
        "the forwarded request arriving at the invalidated cache must be detected"
    );
}

#[test]
fn full_variant_defers_the_writeback_so_no_reordering_window_exists() {
    let (mut bench, to_p1) = set_up_race(ProtocolVariant::Full);
    // The full directory defers the racing PutM: only the FwdGetM goes to P1
    // while the transfer is in flight, so there is nothing to reorder.
    assert_eq!(to_p1.len(), 1);
    assert!(matches!(to_p1[0].msg, DirMsg::FwdGetM { .. }));
    for m in to_p1 {
        assert!(bench.deliver(HOME, m).is_none());
    }
    bench.run_to_quiescence();
    let (_, value) = bench
        .cache(P2)
        .hierarchy()
        .cached_value(BLOCK)
        .expect("P2 owns the block");
    assert_eq!(value, 88);
    // P1's writeback has been acknowledged (stale) and its buffer retired: a
    // new request from P1 can start cleanly.
    assert!(matches!(
        bench.cache(P1).cpu_request(
            100,
            CpuRequest {
                addr: BLOCK,
                access: CpuAccess::Load,
                store_value: 0
            }
        ),
        specsim_coherence::AccessOutcome::MissIssued
    ));
}
