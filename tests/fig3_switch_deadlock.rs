//! Integration test for Figure 3 (switch deadlock): cross-coupled traffic
//! with small shared buffers wedges the torus; dateline virtual-channel flow
//! control (or worst-case buffering) keeps it moving under the same load.

use specsim_base::{DetRng, LinkBandwidth, MessageSize, NodeId, RoutingPolicy};
use specsim_net::{NetConfig, Network, VirtualNetwork};

/// Drives heavy all-to-all traffic on a network built from `cfg`, with
/// consumers that drain only rarely. Returns true if the fabric stalls (no
/// message moves for the threshold).
fn drive(mut cfg: NetConfig, cycles: u64, drain_period: u64) -> bool {
    cfg.stall_threshold = 2_500;
    let mut net: Network<u64> = Network::new(cfg);
    let mut rng = DetRng::new(99);
    let mut now = 0;
    for _ in 0..cycles {
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
            return true;
        }
    }
    false
}

#[test]
fn tiny_shared_buffers_deadlock_under_cross_coupled_traffic() {
    let cfg = NetConfig::speculative(16, LinkBandwidth::GB_3_2, 2);
    assert!(
        drive(cfg, 30_000, 64),
        "a two-entry shared-buffer torus with slow consumers must wedge"
    );
}

#[test]
fn worst_case_buffering_never_deadlocks_under_the_same_load() {
    let cfg = NetConfig::full_buffering(16, LinkBandwidth::GB_3_2, RoutingPolicy::Adaptive);
    assert!(
        !drive(cfg, 30_000, 64),
        "worst-case buffering can always absorb the same traffic"
    );
}

#[test]
fn dateline_virtual_channels_keep_the_torus_moving_under_the_same_load() {
    // The conventional remedy for Figure 3: virtual-channel flow control
    // (dateline allocation on the torus rings) breaks the cyclic buffer
    // dependencies, so even under the same saturating load the network keeps
    // making progress — it is congested, but never deadlocked.
    let cfg = NetConfig::conventional(16, LinkBandwidth::GB_3_2);
    assert!(
        !drive(cfg, 30_000, 64),
        "a dateline-VC torus must not deadlock under cross-coupled traffic"
    );
}
