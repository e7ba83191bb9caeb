use super::*;
use crate::config::Buffering;
use specsim_base::{DetRng, LinkBandwidth};

type Net = Network<u64>;

fn drain_all_ejections(net: &mut Net) -> Vec<Packet<u64>> {
    let mut out = Vec::new();
    for i in 0..net.num_nodes() {
        while let Some(p) = net.eject_any(NodeId::from(i)) {
            out.push(p);
        }
    }
    out
}

/// Ticks the network (draining every ejection queue each cycle, as live
/// endpoints would) until the fabric is empty or `max_cycles` elapse.
/// Returns the final cycle and every packet delivered while draining.
fn run_until_drained(net: &mut Net, start: Cycle, max_cycles: u64) -> (Cycle, Vec<Packet<u64>>) {
    let mut now = start;
    let mut delivered = drain_all_ejections(net);
    while net.in_flight() > 0 && now < start + max_cycles {
        now += 1;
        net.tick(now, None);
        delivered.extend(drain_all_ejections(net));
    }
    (now, delivered)
}

/// Cycles between the clones [`wedge_without_endpoints`] keeps, standing in
/// for SafetyNet's checkpoint interval.
const CLONE_INTERVAL: Cycle = 1_000;

/// Quiet cycles after which [`wedge_without_endpoints`] calls a fabric
/// wedged.
const WEDGE_CYCLES: u64 = 2_000;

/// Injects random request traffic into `net` while no endpoint drains its
/// ejection queues, until the fabric wedges (it holds messages but its hop,
/// delivery and in-flight counts stay unchanged for [`WEDGE_CYCLES`] cycles)
/// or `cycles` cycles pass. Returns the wedge cycle and the newest clone of
/// `net` taken every [`CLONE_INTERVAL`] cycles before it (the checkpoint that
/// recovery would restore), or `None` if the fabric never wedged.
fn wedge_without_endpoints(net: &mut Net, seed: u64, cycles: u64) -> Option<(Cycle, Net)> {
    let mut rng = DetRng::new(seed);
    let mut checkpoint = net.clone();
    let (mut last, mut since) = ((0, 0, 0), 0);
    let mut now = 0;
    for _ in 0..cycles {
        now += 1;
        let src = NodeId::from(rng.next_below(16) as usize);
        let dst = NodeId::from(rng.next_below(16) as usize);
        if src != dst {
            let _ = net.inject(
                now,
                src,
                dst,
                VirtualNetwork::Request,
                MessageSize::Control,
                0,
            );
        }
        net.tick(now, None);
        let progress = (
            net.stats().hops,
            net.stats().total_delivered(),
            net.in_flight(),
        );
        if progress != last {
            (last, since) = (progress, now);
        }
        if net.in_flight() > 0 && now - since >= WEDGE_CYCLES {
            return Some((now, checkpoint));
        }
        if now % CLONE_INTERVAL == 0 {
            checkpoint = net.clone();
        }
    }
    None
}

#[test]
fn ticking_only_at_next_event_matches_ticking_every_cycle() {
    // Sparse data traffic on slow adaptive links: one network ticks every
    // cycle, the other ticks only at injections and at `next_event_at`,
    // accounting the skipped ticks with `skip_idle_cycles`. Deliveries,
    // their cycles and every statistic must match.
    let mut cfg = NetConfig::conventional(16, LinkBandwidth::MB_400);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut dense: Net = Network::new(cfg);
    let mut sparse = dense.clone();
    let mut rng = DetRng::new(5);
    let injections: Vec<(Cycle, usize, usize)> = (0..40)
        .map(|k| {
            let src = rng.next_below(16) as usize;
            let dst = rng.next_below(16) as usize;
            (1 + 250 * k + rng.next_below(3), src, dst)
        })
        .collect();
    let inject = |net: &mut Net, now: Cycle| {
        for &(at, src, dst) in injections.iter().filter(|&&(at, ..)| at == now) {
            net.inject(
                now,
                NodeId::from(src),
                NodeId::from(dst),
                VirtualNetwork::Response,
                MessageSize::Data,
                at,
            )
            .unwrap();
        }
    };
    let (mut seen_dense, mut seen_sparse) = (Vec::new(), Vec::new());
    let (mut next, mut ticked_at, mut sparse_ticks) = (1, 0, 0);
    let end = 12_000;
    for now in 1..=end {
        inject(&mut dense, now);
        dense.tick(now, None);
        seen_dense.extend(
            drain_all_ejections(&mut dense)
                .into_iter()
                .map(|p| (now, p)),
        );
        if injections.iter().any(|&(at, ..)| at == now) {
            next = now;
        }
        if now == next {
            sparse.skip_idle_cycles(now - ticked_at - 1);
            inject(&mut sparse, now);
            sparse.tick(now, None);
            seen_sparse.extend(
                drain_all_ejections(&mut sparse)
                    .into_iter()
                    .map(|p| (now, p)),
            );
            sparse_ticks += 1;
            ticked_at = now;
            next = sparse.next_event_at(now, Cycle::MAX);
            assert!(next > now);
        }
    }
    sparse.skip_idle_cycles(end - ticked_at);
    assert_eq!(seen_dense.len(), 40);
    assert_eq!(seen_dense, seen_sparse);
    assert_eq!(dense.forward_rounds, sparse.forward_rounds);
    assert_eq!(dense.stats().hops, sparse.stats().hops);
    assert_eq!(
        dense.mean_link_utilization(end),
        sparse.mean_link_utilization(end)
    );
    assert!(
        sparse_ticks < end / 2,
        "the sparse network ticked {sparse_ticks} of {end} cycles"
    );
}

#[test]
fn single_message_is_delivered_across_the_torus() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    net.inject(
        0,
        NodeId(0),
        NodeId(10),
        VirtualNetwork::Request,
        MessageSize::Control,
        7,
    )
    .unwrap();
    let (end, delivered) = run_until_drained(&mut net, 0, 100_000);
    assert!(net.in_flight() == 0, "message still in flight at {end}");
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].payload, 7);
    assert_eq!(delivered[0].dst, NodeId(10));
    // Latency must cover at least distance hops of serialization.
    let min = net.torus().distance(NodeId(0), NodeId(10)) as u64
        * LinkBandwidth::GB_3_2.serialization_cycles(8);
    assert!(net.stats().mean_latency() >= min as f64);
}

#[test]
fn self_send_is_delivered_locally() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    net.inject(
        0,
        NodeId(5),
        NodeId(5),
        VirtualNetwork::Response,
        MessageSize::Data,
        1,
    )
    .unwrap();
    let (_, delivered) = run_until_drained(&mut net, 0, 1000);
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].payload, 1);
    assert_eq!(delivered[0].src, NodeId(5));
    assert_eq!(delivered[0].dst, NodeId(5));
}

#[test]
fn static_routing_preserves_point_to_point_order() {
    let mut net: Net = Network::new(NetConfig::full_buffering(
        16,
        LinkBandwidth::MB_400,
        RoutingPolicy::Static,
    ));
    let mut now = 0;
    let mut sent = 0u64;
    // Keep a stream of messages flowing from node 0 to node 10 while
    // other nodes add background traffic.
    let mut rng = DetRng::new(1);
    for _ in 0..400 {
        now += 1;
        if net.can_inject(NodeId(0), VirtualNetwork::ForwardedRequest) && sent < 200 {
            net.inject(
                now,
                NodeId(0),
                NodeId(10),
                VirtualNetwork::ForwardedRequest,
                MessageSize::Control,
                sent,
            )
            .unwrap();
            sent += 1;
        }
        let src = NodeId::from((rng.next_below(16)) as usize);
        let dst = NodeId::from((rng.next_below(16)) as usize);
        if src != dst && net.can_inject(src, VirtualNetwork::Response) {
            let _ = net.inject(
                now,
                src,
                dst,
                VirtualNetwork::Response,
                MessageSize::Data,
                0,
            );
        }
        net.tick(now, None);
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "not drained by {now}");
    assert_eq!(net.ordering().total_reordered(), 0);
    assert!(net.stats().total_delivered() > 200);
}

#[test]
fn all_messages_are_delivered_under_heavy_random_traffic_with_vcs() {
    let mut cfg = NetConfig::conventional(16, LinkBandwidth::GB_3_2);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut net: Net = Network::new(cfg);
    let mut rng = DetRng::new(99);
    let mut now = 0;
    let mut injected = 0u64;
    for _ in 0..2000 {
        now += 1;
        for _ in 0..4 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick(now, None);
        // Endpoints drain their ejection queues every cycle.
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "VC network wedged at {now}");
    assert!(!net.deadlock_evidence(), "an unpooled network has none");
    assert_eq!(net.stats().total_delivered(), injected);
    assert!(injected > 1000);
}

#[test]
fn adaptive_256_node_torus_drains_heavy_random_traffic() {
    // Heavy random traffic on every virtual network of a 16×16 adaptive
    // torus: every injected packet must be delivered, exactly once, and the
    // worklist bookkeeping must stay exact at this scale.
    let mut cfg = NetConfig::conventional(256, LinkBandwidth::GB_3_2);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut net: Net = Network::new(cfg);
    let mut rng = DetRng::new(41);
    let mut now = 0;
    let mut injected = 0u64;
    let mut delivered = Vec::new();
    for _ in 0..600 {
        now += 1;
        for _ in 0..32 {
            let src = NodeId::from(rng.next_below(256) as usize);
            let dst = NodeId::from(rng.next_below(256) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick(now, None);
        delivered.extend(drain_all_ejections(&mut net).into_iter().map(|p| p.payload));
    }
    net.assert_worklist_invariants();
    let (now, rest) = run_until_drained(&mut net, now, 100_000);
    delivered.extend(rest.into_iter().map(|p| p.payload));
    assert_eq!(net.in_flight(), 0, "256-node torus wedged at {now}");
    assert!(injected > 5_000, "scenario must generate real load");
    delivered.sort_unstable();
    assert_eq!(delivered, (0..injected).collect::<Vec<_>>());
    assert_eq!(net.stats().total_delivered(), injected);
    assert!(net.forward_probe().switch_visits > 0);
}

#[test]
fn rectangular_torus_delivers_all_traffic_and_keeps_counters() {
    // An 8×4 rectangular machine under adaptive VC traffic: everything
    // must be delivered and the worklist bookkeeping must stay exact.
    let mut cfg = NetConfig::conventional(32, LinkBandwidth::GB_3_2);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut net: Net = Network::new(cfg);
    assert_eq!(net.torus().dims(), (8, 4));
    let mut rng = DetRng::new(41);
    let mut now = 0;
    let mut injected = 0u64;
    for _ in 0..1500 {
        now += 1;
        for _ in 0..4 {
            let src = NodeId::from(rng.next_below(32) as usize);
            let dst = NodeId::from(rng.next_below(32) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick(now, None);
        for i in 0..32 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
        net.assert_worklist_invariants();
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "8x4 network wedged at {now}");
    assert_eq!(net.stats().total_delivered(), injected);
    assert!(injected > 1000);
}

#[test]
fn explicit_torus_dims_override_the_squarest_derivation() {
    let mut cfg = NetConfig::conventional(32, LinkBandwidth::GB_3_2);
    cfg.torus_dims = Some((16, 2));
    let net: Net = Network::new(cfg);
    assert_eq!(net.torus().dims(), (16, 2));
}

#[test]
#[should_panic(expected = "does not cover")]
fn mismatched_torus_dims_panic() {
    let mut cfg = NetConfig::conventional(32, LinkBandwidth::GB_3_2);
    cfg.torus_dims = Some((4, 4));
    let _ = Network::<u64>::new(cfg);
}

#[test]
fn worst_case_buffering_never_rejects_injection() {
    let mut net: Net = Network::new(NetConfig::full_buffering(
        16,
        LinkBandwidth::MB_400,
        RoutingPolicy::Adaptive,
    ));
    let mut rng = DetRng::new(5);
    for now in 1..200u64 {
        for _ in 0..16 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            net.inject(now, src, dst, VirtualNetwork::Request, MessageSize::Data, 0)
                .unwrap();
        }
        net.tick(now, None);
    }
    assert_eq!(net.stats().injection_rejects, 0);
}

#[test]
fn undrained_endpoints_back_pressure_and_stall_the_fabric() {
    // Tiny shared buffers and nobody draining ejection queues: the fabric
    // must eventually wedge (endpoint-induced stall). This is the failure
    // mode that, in the full system, the coherence-transaction timeout
    // converts into a recovery.
    let mut net: Net = Network::new(NetConfig::speculative(16, LinkBandwidth::GB_3_2, 2));
    let (now, checkpoint) = wedge_without_endpoints(&mut net, 17, 20_000)
        .expect("expected a stall with undrained endpoints");
    assert!(net.in_flight() > 0);
    // Recovery restores the clone taken before the wedge; with live
    // endpoints the restored fabric delivers everything.
    net = checkpoint;
    let (_, delivered) = run_until_drained(&mut net, now, 100_000);
    assert!(!delivered.is_empty());
    assert_eq!(net.in_flight(), 0);
    net.assert_worklist_invariants();
}

#[test]
fn worklist_counters_stay_consistent_under_traffic() {
    let mut cfg = NetConfig::conventional(16, LinkBandwidth::GB_3_2);
    cfg.routing = RoutingPolicy::Adaptive;
    let mut net: Net = Network::new(cfg);
    let mut rng = DetRng::new(23);
    let mut checkpoint = net.clone();
    let mut now = 0;
    for step in 0..600u64 {
        now += 1;
        if step == 300 {
            checkpoint = net.clone();
        }
        let src = NodeId::from(rng.next_below(16) as usize);
        let dst = NodeId::from(rng.next_below(16) as usize);
        if src != dst && net.can_inject(src, VirtualNetwork::Request) {
            net.inject(now, src, dst, VirtualNetwork::Request, MessageSize::Data, 0)
                .unwrap();
        }
        net.tick(now, None);
        // Drain endpoints only intermittently so ejection queues back up.
        if step % 7 == 0 {
            for i in 0..16 {
                while net.eject_any(NodeId::from(i)).is_some() {}
            }
        }
        net.assert_worklist_invariants();
    }
    // Recovery restores a clone taken mid-run: its counters and calendar
    // are consistent, and with live endpoints it delivers everything.
    net = checkpoint;
    net.assert_worklist_invariants();
    let (now, _) = run_until_drained(&mut net, now, 10_000);
    net.assert_worklist_invariants();
    assert_eq!(net.in_flight(), 0);
    for i in 0..16 {
        assert!(!net.has_ejectable(NodeId::from(i)));
    }
    // The restored network keeps working.
    net.inject(
        now,
        NodeId(0),
        NodeId(9),
        VirtualNetwork::Response,
        MessageSize::Control,
        5,
    )
    .unwrap();
    let (_, delivered) = run_until_drained(&mut net, now, 10_000);
    assert_eq!(delivered.len(), 1);
    net.assert_worklist_invariants();
}

#[test]
fn routing_policy_can_be_changed_at_runtime() {
    let mut net: Net = Network::new(NetConfig::speculative(16, LinkBandwidth::MB_400, 16));
    assert_eq!(net.routing(), RoutingPolicy::Adaptive);
    net.set_routing(RoutingPolicy::Static);
    assert_eq!(net.routing(), RoutingPolicy::Static);
}

#[test]
fn shared_buffer_injection_back_pressure_reports_rejects() {
    let mut net: Net = Network::new(NetConfig::speculative(4, LinkBandwidth::MB_400, 1));
    // Saturate node 0's injection queue (capacity 1) without ticking.
    assert!(net
        .inject(
            0,
            NodeId(0),
            NodeId(3),
            VirtualNetwork::Request,
            MessageSize::Data,
            0
        )
        .is_ok());
    assert!(!net.can_inject(NodeId(0), VirtualNetwork::Request));
    let err = net.inject(
        0,
        NodeId(0),
        NodeId(3),
        VirtualNetwork::Request,
        MessageSize::Data,
        42,
    );
    assert_eq!(err, Err(InjectError(42)));
    assert_eq!(net.stats().injection_rejects, 1);
}

#[test]
fn hop_count_matches_distance_for_a_single_message() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    net.inject(
        0,
        NodeId(0),
        NodeId(15),
        VirtualNetwork::FinalAck,
        MessageSize::Control,
        0,
    )
    .unwrap();
    run_until_drained(&mut net, 0, 100_000);
    assert_eq!(net.in_flight(), 0);
    assert_eq!(
        net.stats().hops,
        net.torus().distance(NodeId(0), NodeId(15)) as u64
    );
}

#[test]
fn shared_pool_network_delivers_traffic_with_exact_slot_accounting() {
    // Random all-class traffic on a pooled network: everything is
    // delivered and the per-node slot accounting (checked against a full
    // scan every cycle, in-flight link reservations included) stays
    // exact.
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    assert!(net.is_pooled());
    let mut rng = DetRng::new(61);
    let mut now = 0;
    let mut injected = 0u64;
    for _ in 0..1500 {
        now += 1;
        for _ in 0..3 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick(now, None);
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
        net.assert_worklist_invariants();
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "pooled network wedged at {now}");
    assert_eq!(net.stats().total_delivered(), injected);
    assert!(injected > 500);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    net.assert_worklist_invariants();
}

#[test]
fn pool_back_pressure_rejects_injection_when_slots_run_out() {
    // A 4-slot pool: the node's injection path is cut off by pool
    // exhaustion even though the (unbounded) injection buffer has room.
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::MB_400, 4));
    for k in 0..4 {
        assert!(net
            .inject(
                0,
                NodeId(0),
                NodeId(9),
                VirtualNetwork::Request,
                MessageSize::Data,
                k,
            )
            .is_ok());
    }
    assert!(!net.can_inject(NodeId(0), VirtualNetwork::Request));
    assert!(
        !net.can_inject(NodeId(0), VirtualNetwork::Response),
        "every class shares the exhausted pool"
    );
    let err = net.inject(
        0,
        NodeId(0),
        NodeId(9),
        VirtualNetwork::Response,
        MessageSize::Data,
        99,
    );
    assert_eq!(err, Err(InjectError(99)));
    assert_eq!(net.stats().injection_rejects, 1);
    // Other nodes' pools are unaffected.
    assert!(net.can_inject(NodeId(1), VirtualNetwork::Request));
    net.assert_worklist_invariants();
}

#[test]
fn undrained_endpoints_deadlock_an_undersized_pool_and_drain_recovers() {
    // The tentpole failure mode: nobody drains ejection queues, delivered
    // packets pin pool slots, upstream hops back up across nodes and the
    // fabric wedges — the buffer-dependency deadlock of Figures 2–3.
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 4));
    let (now, checkpoint) =
        wedge_without_endpoints(&mut net, 29, 30_000).expect("undersized pool should wedge");
    assert!(net.deadlock_evidence(), "the tick records the wedge");
    assert!(net.in_flight() > 0);
    // Recovery restores the clone taken before the wedge; with live
    // endpoints it delivers everything and frees every slot. Conservative
    // re-execution then reserves one slot per class and the network works
    // again.
    net = checkpoint;
    let (now, restored) = run_until_drained(&mut net, now, 100_000);
    assert!(!restored.is_empty());
    assert_eq!(net.in_flight(), 0);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    assert!(net.set_pool_reservation(1));
    assert_eq!(net.pool_reservation(), Some(1));
    net.inject(
        now,
        NodeId(0),
        NodeId(5),
        VirtualNetwork::Response,
        MessageSize::Control,
        7,
    )
    .unwrap();
    let (_, delivered) = run_until_drained(&mut net, now, 100_000);
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].payload, 7);
    assert!(net.set_pool_reservation(0), "reservation can be lifted");
    net.assert_worklist_invariants();
}

#[test]
fn unpooled_networks_refuse_pool_reservations() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    assert!(!net.is_pooled());
    assert!(!net.set_pool_reservation(2));
    assert_eq!(net.pool_reservation(), None);
    assert!(net.pool_occupancy_snapshot().is_empty());
}

use specsim_base::{FaultEvent, FaultPlan, FaultSite};

/// A director with one `kind` event armed on every outgoing link of
/// `node` (so the test does not depend on the routing decision).
fn link_faults(at: Cycle, node: usize, kind: FaultKind, param: u64) -> FaultDirector {
    let events = (0..4)
        .map(|dir| FaultEvent {
            at,
            site: FaultSite::Link {
                node,
                dir,
                vnet: None,
            },
            kind,
            param,
        })
        .collect();
    FaultDirector::new(FaultPlan { events })
}

fn window_fault(at: Cycle, site: FaultSite, kind: FaultKind, param: u64) -> FaultDirector {
    FaultDirector::new(FaultPlan::single(FaultEvent {
        at,
        site,
        kind,
        param,
    }))
}

/// Like [`run_until_drained`] but ticking through the fault director.
fn run_faulted_until_drained(
    net: &mut Net,
    faults: &mut FaultDirector,
    start: Cycle,
    max_cycles: u64,
) -> (Cycle, Vec<Packet<u64>>) {
    let mut now = start;
    let mut delivered = drain_all_ejections(net);
    while net.in_flight() > 0 && now < start + max_cycles {
        now += 1;
        net.tick(now, Some(faults));
        net.assert_worklist_invariants();
        delivered.extend(drain_all_ejections(net));
    }
    (now, delivered)
}

fn inject_one(net: &mut Net, now: Cycle, src: usize, dst: usize, payload: u64) {
    net.inject(
        now,
        NodeId::from(src),
        NodeId::from(dst),
        VirtualNetwork::Request,
        MessageSize::Control,
        payload,
    )
    .unwrap();
}

#[test]
fn tick_with_an_idle_director_matches_tick_without_one() {
    // A fault director with nothing scheduled must be a strict no-op
    // relative to `tick(now, None)`: same schedule, same deliveries, same
    // stats.
    let cfg = NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24);
    let mut a: Net = Network::new(cfg.clone());
    let mut b: Net = Network::new(cfg);
    let mut idle = FaultDirector::new(specsim_base::FaultPlan::default());
    let mut rng_a = DetRng::new(77);
    let mut rng_b = DetRng::new(77);
    let mut got_a = Vec::new();
    let mut got_b = Vec::new();
    for now in 1..800u64 {
        for (net, rng) in [(&mut a, &mut rng_a), (&mut b, &mut rng_b)] {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            if net.can_inject(src, VirtualNetwork::Response) {
                let _ = net.inject(
                    now,
                    src,
                    dst,
                    VirtualNetwork::Response,
                    MessageSize::Data,
                    now,
                );
            }
        }
        a.tick(now, None);
        b.tick(now, Some(&mut idle));
        got_a.extend(
            drain_all_ejections(&mut a)
                .into_iter()
                .map(|p| (p.src, p.seq)),
        );
        got_b.extend(
            drain_all_ejections(&mut b)
                .into_iter()
                .map(|p| (p.src, p.seq)),
        );
    }
    assert_eq!(got_a, got_b);
    assert_eq!(a.in_flight(), b.in_flight());
    assert_eq!(a.stats().total_delivered(), b.stats().total_delivered());
}

#[test]
fn drop_fault_loses_exactly_one_message() {
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    let mut faults = link_faults(0, 0, FaultKind::Drop, 0);
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 10_000);
    assert!(delivered.is_empty(), "dropped message must not arrive");
    assert_eq!(net.in_flight(), 0, "drop releases the slot and the count");
    assert_eq!(faults.fires(), 1);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    // A later message on the same link sails through (one-shot fault).
    inject_one(&mut net, 100, 0, 1, 8);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 100, 10_000);
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].payload, 8);
    assert_eq!(delivered[0].taint, PacketTaint::Clean);
}

#[test]
fn corrupt_fault_taints_the_delivered_packet() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    let mut faults = link_faults(0, 0, FaultKind::Corrupt, 0);
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 10_000);
    assert_eq!(delivered.len(), 1, "corruption does not lose the message");
    assert_eq!(delivered[0].taint, PacketTaint::Corrupt);
    assert_eq!(delivered[0].taint.fault_kind(), Some(FaultKind::Corrupt));
    assert_eq!(faults.fires(), 1);
}

#[test]
fn duplicate_fault_delivers_one_clean_and_one_tainted_copy() {
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    let mut faults = link_faults(0, 0, FaultKind::Duplicate, 0);
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 10_000);
    assert_eq!(delivered.len(), 2);
    let clean: Vec<_> = delivered
        .iter()
        .filter(|p| p.taint == PacketTaint::Clean)
        .collect();
    let dup: Vec<_> = delivered
        .iter()
        .filter(|p| p.taint == PacketTaint::Duplicate)
        .collect();
    assert_eq!((clean.len(), dup.len()), (1, 1));
    assert_eq!(
        clean[0].seq, dup[0].seq,
        "the copy keeps the sequence number"
    );
    assert_eq!(dup[0].payload, 7);
    // An equal (duplicated) sequence number is not an ordering inversion.
    assert_eq!(net.ordering().total_reordered(), 0);
    assert_eq!(net.in_flight(), 0);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
}

#[test]
fn delay_fault_postpones_delivery_by_its_parameter() {
    let mk = || -> Net { Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2)) };
    let mut clean_net = mk();
    inject_one(&mut clean_net, 0, 0, 1, 7);
    let (clean_end, d) = run_until_drained(&mut clean_net, 0, 10_000);
    assert_eq!(d.len(), 1);
    let mut net = mk();
    let mut faults = link_faults(0, 0, FaultKind::Delay, 700);
    inject_one(&mut net, 0, 0, 1, 7);
    let (end, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 20_000);
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].taint, PacketTaint::Clean);
    assert!(
        end >= clean_end + 700,
        "delayed delivery at {end}, clean at {clean_end}"
    );
}

#[test]
fn switch_stall_window_pauses_forwarding_then_releases() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    let mut faults = window_fault(
        1,
        FaultSite::Switch { node: 0 },
        FaultKind::SwitchStall,
        600,
    );
    inject_one(&mut net, 0, 0, 1, 7);
    let (end, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 20_000);
    assert_eq!(delivered.len(), 1, "stall is temporary — no loss");
    assert!(end >= 601, "nothing forwarded before the window closed");
    assert_eq!(faults.fires(), 1);
}

#[test]
fn switch_blackout_discards_arrivals_at_the_dead_switch() {
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    let mut faults = window_fault(
        1,
        FaultSite::Switch { node: 1 },
        FaultKind::SwitchBlackout,
        50_000,
    );
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 60_000);
    assert!(
        delivered.is_empty(),
        "arrival at a blacked-out switch is lost"
    );
    assert_eq!(net.in_flight(), 0);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
}

#[test]
fn inbox_drop_window_discards_ejections() {
    let mut net: Net = Network::new(NetConfig::shared_pool(16, LinkBandwidth::GB_3_2, 24));
    let mut faults = window_fault(
        1,
        FaultSite::Inbox { node: 1 },
        FaultKind::InboxDrop,
        50_000,
    );
    inject_one(&mut net, 0, 0, 1, 7);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults, 0, 60_000);
    assert!(delivered.is_empty(), "inbox-dropped message is lost");
    assert_eq!(net.in_flight(), 0);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    // After the window a fresh message is delivered normally.
    let mut faults2 = FaultDirector::new(FaultPlan::none());
    inject_one(&mut net, 60_001, 0, 1, 9);
    let (_, delivered) = run_faulted_until_drained(&mut net, &mut faults2, 60_001, 10_000);
    assert_eq!(delivered.len(), 1);
}

/// The shared-pool preset with its budget split `switch`/`endpoint`.
fn split_pool(link_bandwidth: LinkBandwidth, switch: usize, endpoint: usize) -> NetConfig {
    let buffering = Buffering::SharedPool {
        virtual_channels: true,
        slots: PoolSlots::Split { switch, endpoint },
    };
    NetConfig::new(16, link_bandwidth, RoutingPolicy::Adaptive, buffering)
}

#[test]
fn split_pool_network_delivers_with_exact_accounting() {
    // The endpoint/switch split budget under random all-class traffic:
    // everything is delivered and both sides' slot accounting (checked
    // against full scans every cycle) stays exact.
    let mut net: Net = Network::new(split_pool(LinkBandwidth::GB_3_2, 18, 6));
    assert!(net.is_pooled());
    assert!(net.is_pool_split());
    let mut rng = DetRng::new(61);
    let mut now = 0;
    let mut injected = 0u64;
    for _ in 0..1500 {
        now += 1;
        for _ in 0..3 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            if net.can_inject(src, vnet) {
                net.inject(now, src, dst, vnet, MessageSize::Control, injected)
                    .unwrap();
                injected += 1;
            }
        }
        net.tick(now, None);
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
        net.assert_worklist_invariants();
    }
    let (now, _) = run_until_drained(&mut net, now, 200_000);
    assert_eq!(net.in_flight(), 0, "split-pool network wedged at {now}");
    assert_eq!(net.stats().total_delivered(), injected);
    assert!(injected > 500);
    assert!(net.pool_occupancy_snapshot().iter().all(|&o| o == 0));
    assert!(net
        .endpoint_pool_occupancy_snapshot()
        .iter()
        .all(|&o| o == 0));
    net.assert_worklist_invariants();
}

#[test]
fn split_pool_endpoint_budget_gates_ejection_but_not_the_fabric() {
    // One endpoint slot at every node: with nobody draining, at most one
    // delivered message can hold node 1's endpoint budget; the others
    // wait *in the fabric* (their switch-side slots intact) instead of
    // overrunning the ejection queue. Draining releases the endpoint
    // slot and the next message comes through.
    let mut net: Net = Network::new(split_pool(LinkBandwidth::MB_400, 12, 1));
    inject_one(&mut net, 0, 0, 1, 10);
    inject_one(&mut net, 0, 2, 1, 11);
    inject_one(&mut net, 0, 5, 1, 12);
    let mut now = 0;
    for _ in 0..5_000 {
        now += 1;
        net.tick(now, None);
        net.assert_worklist_invariants();
    }
    assert!(net.has_ejectable(NodeId(1)));
    assert!(net.has_exhausted_pool(), "endpoint budget is pinned");
    let mut got = Vec::new();
    for _ in 0..3 {
        let p = net.eject_any(NodeId(1));
        assert!(p.is_some(), "one message per endpoint slot");
        got.push(p.unwrap().payload);
        assert!(net.eject_any(NodeId(1)).is_none(), "budget gates the rest");
        // The evidence is the tick's: the ejection freed the slot after it.
        assert!(!net.has_exhausted_pool() && net.deadlock_evidence());
        for _ in 0..5_000 {
            now += 1;
            net.tick(now, None);
            net.assert_worklist_invariants();
        }
    }
    got.sort_unstable();
    assert_eq!(got, vec![10, 11, 12]);
    assert_eq!(net.in_flight(), 0);
    assert!(net
        .endpoint_pool_occupancy_snapshot()
        .iter()
        .all(|&o| o == 0));
}

#[test]
fn mean_link_utilization_is_nonzero_under_traffic_and_bounded() {
    let mut net: Net = Network::new(NetConfig::conventional(16, LinkBandwidth::MB_400));
    let mut rng = DetRng::new(2);
    let mut now = 0;
    for _ in 0..500 {
        now += 1;
        let src = NodeId::from(rng.next_below(16) as usize);
        let dst = NodeId::from(rng.next_below(16) as usize);
        if src != dst && net.can_inject(src, VirtualNetwork::Response) {
            let _ = net.inject(
                now,
                src,
                dst,
                VirtualNetwork::Response,
                MessageSize::Data,
                0,
            );
        }
        net.tick(now, None);
        for i in 0..16 {
            while net.eject_any(NodeId::from(i)).is_some() {}
        }
    }
    let u = net.mean_link_utilization(now);
    assert!(u > 0.0 && u <= 1.0, "utilization {u}");
}

/// One delivery as the parking tests compare it: the cycle, the ejecting
/// node and the packet's identity and taint.
type Delivery = (
    Cycle,
    usize,
    NodeId,
    NodeId,
    VirtualNetwork,
    u64,
    PacketTaint,
);

/// How [`parking_is_exact`] varies the network under test.
#[derive(Debug, Clone, Copy)]
enum ParkingScenario {
    Static,
    Adaptive,
    /// Static routing until cycle 150, adaptive afterwards.
    StaticThenAdaptive,
    /// Adaptive routing with `Delay` faults on random links.
    DelayFaults,
}

/// Drives `lazy` (the parking kernel) and `eager` (the same network with
/// every parked switch re-activated before each tick, which is the old
/// rule: every switch holding a packet is visited every cycle) through the
/// same random traffic on a 4×4 torus until both drain, checking the
/// worklist invariants of `lazy` every cycle. Returns both networks with
/// their delivery streams, `lazy` first.
fn run_parking_pair(
    scenario: ParkingScenario,
    seed: u64,
    drain_every: u64,
) -> [(Net, Vec<Delivery>); 2] {
    let routing = match scenario {
        ParkingScenario::Static => RoutingPolicy::Static,
        _ => RoutingPolicy::Adaptive,
    };
    let cfg = NetConfig::new(
        16,
        LinkBandwidth::MB_400,
        routing,
        Buffering::VirtualChannels,
    );
    let mut lazy: Net = Network::new(cfg);
    let mut eager = lazy.clone();
    let mut rng = DetRng::new(seed);
    let mut faults = match scenario {
        ParkingScenario::DelayFaults => {
            let events = (0..12)
                .map(|_| FaultEvent {
                    at: rng.next_below(400),
                    site: FaultSite::Link {
                        node: rng.next_below(16) as usize,
                        dir: rng.next_below(4) as usize,
                        vnet: None,
                    },
                    kind: FaultKind::Delay,
                    param: 1 + rng.next_below(300),
                })
                .collect();
            let director = FaultDirector::new(FaultPlan { events });
            Some((director.clone(), director))
        }
        _ => None,
    };
    if matches!(scenario, ParkingScenario::StaticThenAdaptive) {
        lazy.set_routing(RoutingPolicy::Static);
        eager.set_routing(RoutingPolicy::Static);
    }
    let (mut seen_lazy, mut seen_eager) = (Vec::new(), Vec::new());
    let mut now = 0;
    while now < 400 || lazy.in_flight() > 0 || eager.in_flight() > 0 {
        now += 1;
        assert!(now < 100_000, "{scenario:?} failed to drain");
        if now == 150 && matches!(scenario, ParkingScenario::StaticThenAdaptive) {
            lazy.set_routing(RoutingPolicy::Adaptive);
            eager.set_routing(RoutingPolicy::Adaptive);
        }
        if now < 400 && rng.next_below(3) == 0 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            let size = if rng.next_below(2) == 0 {
                MessageSize::Data
            } else {
                MessageSize::Control
            };
            for net in [&mut lazy, &mut eager] {
                let _ = net.inject(now, src, dst, vnet, size, now);
            }
        }
        eager.wake_parked();
        match &mut faults {
            Some((fl, fe)) => {
                lazy.tick(now, Some(fl));
                eager.tick(now, Some(fe));
            }
            None => {
                lazy.tick(now, None);
                eager.tick(now, None);
            }
        }
        lazy.assert_worklist_invariants();
        // Endpoints drain only every `drain_every` cycles, so heads also
        // wait on full ejection queues.
        if now % drain_every == 0 || now >= 400 {
            for (net, seen) in [(&mut lazy, &mut seen_lazy), (&mut eager, &mut seen_eager)] {
                for i in 0..16 {
                    while let Some(p) = net.eject_any(NodeId::from(i)) {
                        seen.push((now, i, p.src, p.dst, p.vnet, p.seq, p.taint));
                    }
                }
            }
        }
    }
    [(lazy, seen_lazy), (eager, seen_eager)]
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]
    #[test]
    fn parking_is_exact(seed in 0u64..1_000_000, drain_every in 1u64..4) {
        // Parking a switch must change nothing but how often it is
        // visited: the same deliveries, in the same cycles, and the same
        // statistics as visiting every switch that holds a packet.
        for scenario in [
            ParkingScenario::Static,
            ParkingScenario::Adaptive,
            ParkingScenario::StaticThenAdaptive,
            ParkingScenario::DelayFaults,
        ] {
            let [(lazy, seen_lazy), (eager, seen_eager)] =
                run_parking_pair(scenario, seed, drain_every);
            proptest::prop_assert!(!seen_lazy.is_empty());
            proptest::prop_assert_eq!(&seen_lazy, &seen_eager);
            proptest::prop_assert_eq!(
                format!("{:?}", lazy.stats()),
                format!("{:?}", eager.stats())
            );
            proptest::prop_assert!(lazy.forward_probe().switch_parks > 0);
            proptest::prop_assert!(
                lazy.forward_probe().switch_visits < eager.forward_probe().switch_visits
            );
        }
    }
}

#[test]
fn set_routing_to_adaptive_wakes_a_head_parked_behind_its_dor_link() {
    // Node 0 at (0,0) sends two data packets on one class: A to node 1
    // (East only), then B to node 5 at (1,1), whose dimension-order link
    // is East too but which may also leave North adaptively.
    let cfg = NetConfig::new(
        16,
        LinkBandwidth::MB_400,
        RoutingPolicy::Adaptive,
        Buffering::VirtualChannels,
    );
    let mut net: Net = Network::new(cfg);
    net.set_routing(RoutingPolicy::Static);
    for (dst, payload) in [(1, 0), (5, 1)] {
        net.inject(
            0,
            NodeId(0),
            NodeId(dst),
            VirtualNetwork::Response,
            MessageSize::Data,
            payload,
        )
        .unwrap();
    }
    let east = SwitchSlab::link(0, Direction::East.index());
    let north = SwitchSlab::link(0, Direction::North.index());
    // A leaves East; B waits behind the busy East link and parks.
    net.tick(1, None);
    assert!(net.slab.busy_until[east] > 3);
    assert_eq!(net.slab.queued_total[0], 1);
    assert!(!net.active.contains(0));
    assert_eq!(net.forward_probe().switch_parks, 1);
    net.tick(2, None);
    net.assert_worklist_invariants();
    // The North link was free all along; adaptive routing may take it, so
    // B must leave on it in the very cycle routing turns adaptive.
    net.set_routing(RoutingPolicy::Adaptive);
    net.tick(3, None);
    assert_eq!(net.slab.queued_total[0], 0, "B is still parked");
    assert!(net.slab.busy_until[north] > 3);
    assert_eq!(net.stats().hops, 2);
    net.assert_worklist_invariants();
}

#[test]
fn a_32x32_static_torus_visits_at_most_two_switches_per_hop_or_ejection() {
    // Uniform traffic on the benchmark's 32×32 static torus at 800 MB/s,
    // half data and half control messages. Nearly every queued head waits
    // for an output link that is still serializing; parking means each
    // such wait costs one wake visit, not one visit per cycle. (Visiting
    // every switch that holds a packet every cycle costs about 56 visits
    // per hop or ejection here.)
    let mut cfg = NetConfig::conventional(1024, LinkBandwidth::MB_800);
    cfg.torus_dims = Some((32, 32));
    let mut net: Net = Network::new(cfg);
    let mut rng = DetRng::new(9000);
    let mut now = 0;
    for _ in 0..2_000 {
        now += 1;
        for _ in 0..2 {
            let src = NodeId::from(rng.next_below(1024) as usize);
            let dst = NodeId::from(rng.next_below(1024) as usize);
            let vnet = crate::packet::ALL_VIRTUAL_NETWORKS[rng.next_below(4) as usize];
            let size = if rng.next_below(2) == 0 {
                MessageSize::Data
            } else {
                MessageSize::Control
            };
            let _ = net.inject(now, src, dst, vnet, size, now);
        }
        net.tick(now, None);
        drain_all_ejections(&mut net);
    }
    net.assert_worklist_invariants();
    let (now, _) = run_until_drained(&mut net, now, 100_000);
    assert_eq!(net.in_flight(), 0, "32x32 torus wedged at {now}");
    let moves = net.stats().hops + net.stats().total_delivered();
    let visits = net.forward_probe().switch_visits;
    assert!(
        visits <= 2 * moves,
        "{visits} switch visits for {moves} hops and ejections"
    );
}
