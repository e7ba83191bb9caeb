//! Regenerates Figure 1: adaptive routing violating point-to-point order.
//!
//! A source switch sends two messages to the same destination; under static
//! dimension-order routing they always arrive in order, while under minimal
//! adaptive routing congestion on the preferred path lets the second message
//! overtake the first. The harness constructs exactly that situation on the
//! 4×4 torus (source and destination separated in both dimensions, with
//! background traffic biased onto the dimension-order path) and reports how
//! often order is violated under each policy.

use specsim_base::{DetRng, LinkBandwidth, MessageSize, NodeId, RoutingPolicy};
use specsim_bench::{finish, start, ExperimentScale};
use specsim_net::{NetConfig, Network, VirtualNetwork};

fn reorder_trial(policy: RoutingPolicy, seed: u64) -> (u64, u64) {
    // Worst-case buffering isolates the routing question (paper footnote 1).
    let mut net: Network<u64> =
        Network::new(NetConfig::full_buffering(16, LinkBandwidth::MB_400, policy));
    let mut rng = DetRng::new(seed);
    let src = NodeId(0); // "NW switch"
    let dst = NodeId(10); // two hops east, two hops north: the "SE switch"
    let mut now = 0;
    let mut sent = 0u64;
    for _ in 0..6_000u64 {
        now += 1;
        // Background traffic concentrated along the dimension-order (X-first)
        // path so the adaptive router has a reason to divert; the backlog is
        // bounded so the 400 MB/s links can drain it afterwards.
        for _ in 0..2 {
            let hot_src = NodeId::from([1usize, 2, 3][rng.next_below(3) as usize]);
            let hot_dst = NodeId::from([2usize, 6, 10][rng.next_below(3) as usize]);
            if hot_src != hot_dst && net.in_flight() < 150 {
                let _ = net.inject(
                    now,
                    hot_src,
                    hot_dst,
                    VirtualNetwork::Response,
                    MessageSize::Data,
                    u64::MAX,
                );
            }
        }
        // The observed stream: a steady sequence of control messages from the
        // source to the destination on the ForwardedRequest virtual network.
        if now % 40 == 0 && net.can_inject(src, VirtualNetwork::ForwardedRequest) {
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
    // Drain.
    while net.in_flight() > 0 && now < 200_000 {
        now += 1;
        net.tick(now, None);
        for n in 0..16 {
            while net.eject_any(NodeId::from(n)).is_some() {}
        }
    }
    (
        net.stats().delivered_on(VirtualNetwork::ForwardedRequest),
        net.ordering().reordered(VirtualNetwork::ForwardedRequest),
    )
}

fn main() {
    let t = start(
        "Figure 1 — Violating point-to-point order with adaptive routing",
        ExperimentScale::from_env(),
    );
    println!("routing   trials  messages  reordered  fraction");
    for policy in [RoutingPolicy::Static, RoutingPolicy::Adaptive] {
        let mut delivered = 0;
        let mut reordered = 0;
        let trials = 8;
        for seed in 0..trials {
            let (d, r) = reorder_trial(policy, seed + 1);
            delivered += d;
            reordered += r;
        }
        println!(
            "{:<9} {:>6}  {:>8}  {:>9}  {:>8.5}",
            policy.label(),
            trials,
            delivered,
            reordered,
            if delivered == 0 {
                0.0
            } else {
                reordered as f64 / delivered as f64
            }
        );
    }
    println!();
    println!("Static dimension-order routing never reorders; minimal adaptive routing");
    println!("occasionally lets a later message overtake an earlier one (Figure 1).");
    finish(t);
}
