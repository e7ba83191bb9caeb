//! Regenerates Figures 2 and 3: endpoint deadlock and switch deadlock.
//!
//! Figure 2 (endpoint deadlock): two endpoints flood each other with
//! requests while refusing to drain their (shared, bounded) incoming queues
//! until their own response arrives — with a single shared buffer class the
//! fabric wedges; with per-class virtual networks responses bypass the
//! requests and the system keeps moving.
//!
//! Figure 3 (switch deadlock): with tiny shared buffers and nobody draining
//! promptly, cross-coupled traffic fills the cyclic buffer dependencies of
//! the torus and no message can advance; the progress watchdog reports the
//! stall, which in the full system the transaction timeout converts into a
//! SafetyNet recovery.

use specsim_base::{DetRng, LinkBandwidth, MessageSize, NodeId};
use specsim_bench::{finish, start, ExperimentScale};
use specsim_net::{NetConfig, Network, VirtualNetwork};

/// Figure 2-style scenario: requests pile up and responses cannot bypass
/// them when every class shares one buffer pool.
fn endpoint_scenario(use_virtual_networks: bool) -> (bool, usize) {
    let mut cfg = if use_virtual_networks {
        NetConfig::conventional(16, LinkBandwidth::GB_3_2)
    } else {
        NetConfig::speculative(16, LinkBandwidth::GB_3_2, 2)
    };
    cfg.stall_threshold = 3_000;
    let mut net: Network<u64> = Network::new(cfg);
    let a = NodeId(0);
    let b = NodeId(10);
    const REQ: u64 = 1;
    const RESP: u64 = 2;
    let mut now = 0;
    for _ in 0..30_000u64 {
        now += 1;
        net.tick(now, None);
        // Both endpoints greedily issue requests to each other, grabbing any
        // injection space the network just freed ("the incoming queues for
        // both processors are full of requests").
        for (src, dst) in [(a, b), (b, a)] {
            while net.can_inject(src, VirtualNetwork::Request) {
                let _ = net.inject(
                    now,
                    src,
                    dst,
                    VirtualNetwork::Request,
                    MessageSize::Control,
                    REQ,
                );
            }
        }
        // Endpoints process their incoming messages in order; a request can
        // only be ingested if its response can be emitted immediately — the
        // Figure 2 dependency. With virtual networks the response class has
        // its own reserved buffering, so the dependency never blocks.
        for node in [a, b] {
            loop {
                if use_virtual_networks {
                    if net.eject_from(node, VirtualNetwork::Response).is_some() {
                        continue;
                    }
                    let can_answer = net.can_inject(node, VirtualNetwork::Response);
                    match net.peek_from(node, VirtualNetwork::Request) {
                        Some(_) if can_answer => {
                            let req = net.eject_from(node, VirtualNetwork::Request).unwrap();
                            let _ = net.inject(
                                now,
                                node,
                                req.src,
                                VirtualNetwork::Response,
                                MessageSize::Data,
                                RESP,
                            );
                        }
                        _ => break,
                    }
                } else {
                    let can_answer = net.can_inject(node, VirtualNetwork::Response);
                    match net.peek_any(node) {
                        Some(p) if p.payload == RESP => {
                            net.eject_any(node);
                        }
                        Some(p) if p.payload == REQ && can_answer => {
                            let req = net.eject_any(node).unwrap();
                            let _ = net.inject(
                                now,
                                node,
                                req.src,
                                VirtualNetwork::Response,
                                MessageSize::Data,
                                RESP,
                            );
                        }
                        _ => break,
                    }
                }
            }
        }
        if net.is_stalled(now) {
            return (true, net.in_flight());
        }
    }
    (false, net.in_flight())
}

/// Figure 3-style scenario: heavy all-to-all traffic, with configurable
/// shared buffering (or worst-case buffering) and configurable endpoint
/// service rate (drain one message per node every `drain_period` cycles).
fn switch_scenario(mut cfg: NetConfig, drain_period: u64) -> (bool, usize) {
    cfg.stall_threshold = 3_000;
    let mut net: Network<u64> = Network::new(cfg);
    let mut rng = DetRng::new(3);
    let mut now = 0;
    for _ in 0..40_000u64 {
        now += 1;
        for _ in 0..4 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            if src != dst && net.can_inject(src, VirtualNetwork::Request) {
                let _ = net.inject(now, src, dst, VirtualNetwork::Request, MessageSize::Data, 0);
            }
        }
        net.tick(now, None);
        if now % drain_period == 0 {
            for n in 0..16 {
                let _ = net.eject_any(NodeId::from(n));
            }
        }
        if net.is_stalled(now) {
            return (true, net.in_flight());
        }
    }
    (false, net.in_flight())
}

fn main() {
    let t = start(
        "Figures 2 and 3 — Endpoint deadlock and switch deadlock",
        ExperimentScale::from_env(),
    );
    println!("Figure 2 (endpoint deadlock):");
    let (wedged, in_flight) = endpoint_scenario(false);
    println!(
        "  shared buffers, no virtual networks : {} (messages stuck: {in_flight})",
        if wedged { "DEADLOCKED" } else { "no deadlock" }
    );
    let (wedged, in_flight) = endpoint_scenario(true);
    println!(
        "  virtual networks per message class  : {} (messages in flight: {in_flight})",
        if wedged { "DEADLOCKED" } else { "no deadlock" }
    );
    println!();
    println!("Figure 3 (switch deadlock), heavy cross-coupled traffic, slow consumers:");
    let cases: [(&str, NetConfig, u64); 4] = [
        (
            "2 shared buffers/port, no virtual channels",
            NetConfig::speculative(16, LinkBandwidth::GB_3_2, 2),
            64,
        ),
        (
            "16 shared buffers/port, no virtual channels",
            NetConfig::speculative(16, LinkBandwidth::GB_3_2, 16),
            64,
        ),
        (
            "dateline virtual channels (conventional design)",
            NetConfig::conventional(16, LinkBandwidth::GB_3_2),
            64,
        ),
        (
            "worst-case buffering",
            NetConfig::full_buffering(
                16,
                LinkBandwidth::GB_3_2,
                specsim_base::RoutingPolicy::Adaptive,
            ),
            64,
        ),
    ];
    for (label, cfg, drain) in cases {
        let (wedged, in_flight) = switch_scenario(cfg, drain);
        println!(
            "  {label:<52}: {} (messages outstanding: {in_flight})",
            if wedged {
                "DEADLOCKED / wedged"
            } else {
                "kept moving"
            }
        );
    }
    println!();
    println!("The speculative design of Section 4 accepts these wedges as possible,");
    println!("detects them with a coherence-transaction timeout and recovers, instead of");
    println!("paying for virtual-channel flow control in the common case.");
    finish(t);
}
