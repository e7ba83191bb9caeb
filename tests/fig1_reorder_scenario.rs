//! Integration test for Figure 1: adaptive routing can violate point-to-point
//! ordering, static dimension-order routing cannot.
//!
//! The test builds the 4×4 torus, sends an ordered stream of messages from a
//! "NW" switch to a "SE" switch while congesting the dimension-order path
//! with background traffic, and checks that (a) static routing never
//! reorders and (b) every message is delivered under both policies.

use specsim_base::{DetRng, LinkBandwidth, MessageSize, NodeId, RoutingPolicy};
use specsim_net::{NetConfig, Network, VirtualNetwork};

fn run(policy: RoutingPolicy, seed: u64) -> (u64, u64) {
    let mut net: Network<u64> =
        Network::new(NetConfig::full_buffering(16, LinkBandwidth::MB_400, policy));
    let mut rng = DetRng::new(seed);
    let src = NodeId(0);
    let dst = NodeId(10);
    let mut now = 0;
    let mut sent = 0u64;
    for _ in 0..4_000u64 {
        now += 1;
        // Congest the X-first path, but keep the backlog bounded so the
        // 400 MB/s links can drain it within the test budget.
        let hot_src = NodeId::from([1usize, 2, 3][rng.next_below(3) as usize]);
        let hot_dst = NodeId::from([2usize, 6, 10][rng.next_below(3) as usize]);
        if hot_src != hot_dst && net.in_flight() < 120 {
            let _ = net.inject(
                now,
                hot_src,
                hot_dst,
                VirtualNetwork::Response,
                MessageSize::Data,
                0,
            );
        }
        if now % 50 == 0 && net.can_inject(src, VirtualNetwork::ForwardedRequest) {
            net.inject(
                now,
                src,
                dst,
                VirtualNetwork::ForwardedRequest,
                MessageSize::Control,
                sent,
            )
            .unwrap();
            sent += 1;
        }
        net.tick(now, None);
        for n in 0..16 {
            while net.eject_any(NodeId::from(n)).is_some() {}
        }
    }
    while net.in_flight() > 0 && now < 500_000 {
        now += 1;
        net.tick(now, None);
        for n in 0..16 {
            while net.eject_any(NodeId::from(n)).is_some() {}
        }
    }
    assert_eq!(net.in_flight(), 0, "network failed to drain");
    let delivered = net.stats().delivered_on(VirtualNetwork::ForwardedRequest);
    assert_eq!(delivered, sent, "all observed-stream messages must arrive");
    (
        delivered,
        net.ordering().reordered(VirtualNetwork::ForwardedRequest),
    )
}

#[test]
fn static_routing_never_violates_point_to_point_order() {
    for seed in 1..=5 {
        let (delivered, reordered) = run(RoutingPolicy::Static, seed);
        assert!(delivered > 50);
        assert_eq!(
            reordered, 0,
            "static routing must preserve ordering (seed {seed})"
        );
    }
}

#[test]
fn adaptive_routing_reorders_under_congestion_but_loses_nothing() {
    // This scenario is engineered (like Figure 1) to make adaptive routing
    // divert messages around a congested dimension-order path, so order
    // violations are expected here — unlike in real protocol traffic, where
    // Section 5.3 measures them at well under 1%. The hard guarantees are
    // that every message still arrives, and that at least one inversion is
    // actually produced (i.e. the figure's phenomenon is reproduced).
    let mut total_delivered = 0;
    let mut total_reordered = 0;
    for seed in 1..=5 {
        let (delivered, reordered) = run(RoutingPolicy::Adaptive, seed);
        total_delivered += delivered;
        total_reordered += reordered;
        assert!(reordered <= delivered);
    }
    assert!(total_delivered > 250);
    assert!(
        total_reordered > 0,
        "the congested scenario must produce at least one point-to-point order violation"
    );
}
