//! Integration test for Figure 2 (endpoint deadlock): with one shared buffer
//! class and endpoints that cannot ingest a request until they can emit its
//! response, the fabric wedges; with per-class virtual networks it does not.

use specsim_base::{LinkBandwidth, MessageSize, NodeId};
use specsim_net::{NetConfig, Network, VirtualNetwork};

const REQ: u64 = 1;
const RESP: u64 = 2;

/// Drives the Figure 2 dependency between two endpoints. Each endpoint
/// processes its incoming messages in order; a request can only be consumed
/// if the response it generates can be injected immediately (the endpoint has
/// no other place to put it). Returns true if the fabric stalls.
fn scenario(use_virtual_networks: bool) -> bool {
    let mut cfg = if use_virtual_networks {
        NetConfig::conventional(16, LinkBandwidth::GB_3_2)
    } else {
        NetConfig::speculative(16, LinkBandwidth::GB_3_2, 2)
    };
    cfg.stall_threshold = 2_000;
    let mut net: Network<u64> = Network::new(cfg);
    let a = NodeId(0);
    let b = NodeId(10);
    let mut now = 0;
    for _ in 0..25_000u64 {
        now += 1;
        net.tick(now, None);
        // Both endpoints greedily generate requests to each other, grabbing
        // any injection space the network just freed (Figure 2: "the incoming
        // queues for both processors are full of requests").
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
        for node in [a, b] {
            loop {
                if use_virtual_networks {
                    // Responses have their own ejection queue and are always
                    // consumed; requests are answered on the Response virtual
                    // network, which always has reserved buffering.
                    if net.eject_from(node, VirtualNetwork::Response).is_some() {
                        continue;
                    }
                    let can_answer = net.can_inject(node, VirtualNetwork::Response);
                    match net.peek_from(node, VirtualNetwork::Request) {
                        Some(_) if can_answer => {
                            let req = net.eject_from(node, VirtualNetwork::Request).unwrap();
                            net.inject(
                                now,
                                node,
                                req.src,
                                VirtualNetwork::Response,
                                MessageSize::Data,
                                RESP,
                            )
                            .expect("response injection was checked");
                        }
                        _ => break,
                    }
                } else {
                    // One shared FIFO: the head blocks everything behind it.
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
            return true;
        }
    }
    false
}

#[test]
fn shared_buffers_allow_endpoint_deadlock() {
    assert!(
        scenario(false),
        "with one shared buffer class the request/response dependency must wedge the fabric"
    );
}

#[test]
fn virtual_networks_prevent_endpoint_deadlock() {
    assert!(
        !scenario(true),
        "per-class virtual networks must keep responses (and the system) moving"
    );
}
