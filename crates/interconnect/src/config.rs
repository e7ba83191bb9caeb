//! Network configuration and buffer layout.

use specsim_base::{CycleDelta, LinkBandwidth, RoutingPolicy};

use crate::packet::{VirtualNetwork, ALL_VIRTUAL_NETWORKS};
use crate::switch::LINKS_PER_SWITCH;
use crate::topology::Direction;

/// Messages each virtual-channel buffer of the conventional design holds.
const VC_BUFFER_DEPTH: usize = 4;
/// Messages each ejection and injection queue of the conventional design
/// holds.
const VC_QUEUE_DEPTH: usize = 8;

/// How a network buffers messages. Each variant is one complete buffer
/// design of the paper's third case study (Section 4, Figs. 2–3) or of its
/// baselines, so every field of every variant is in effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffering {
    /// The conventional design: one virtual network per message class to
    /// avoid endpoint deadlock, and virtual channels with dateline
    /// allocation to avoid switch deadlock. Static routing gets two channels
    /// per network (Section 4: 4 virtual networks × 2 channels = 8 VCs);
    /// adaptive routing gets a third, Duato's adaptive channel ("at least
    /// one additional virtual channel"). Every channel buffer holds 4
    /// messages; each of the four per-class ejection queues and each
    /// injection buffer holds 8.
    VirtualChannels,
    /// The speculatively simplified design of Section 4: no virtual
    /// networks or channels. All message classes share one buffer of
    /// `depth` messages at every switch port, and one ejection queue and
    /// one injection queue of the same depth. Deadlock becomes possible; it
    /// is detected by transaction timeout and resolved by SafetyNet
    /// recovery. The paper sweeps `depth`: performance is steady at 16 and
    /// above and drops sharply at 8, where deadlocks first appear.
    SharedBuffers {
        /// Messages each port buffer and endpoint queue holds.
        depth: usize,
    },
    /// Worst-case buffering: one unbounded buffer per port and one
    /// unbounded ejection queue, so deadlock is structurally impossible
    /// without virtual channels. The comparison baseline of Section 5.3, and
    /// (footnote 1) how the directory experiments "simplistically avoid
    /// deadlock with full buffering" to isolate adaptive routing.
    Unbounded,
    /// The Section 4 speculation proper: no buffer is sized on its own.
    /// Every input-port buffer and ejection queue of a node is individually
    /// unbounded and draws from the node's slot budget ([`crate::SlotPool`]).
    /// Sized near the common case this needs far less SRAM than worst-case
    /// sizing, at the price of possible deadlock, which the transaction
    /// timeout detects and SafetyNet recovery breaks.
    SharedPool {
        /// `true` keeps the conventional virtual-channel structure
        /// (per-class buffers and ejection queues, so routing and fairness
        /// are unchanged); `false` gives one buffer per port and one
        /// ejection queue shared by all classes.
        virtual_channels: bool,
        /// Each node's slot budget.
        slots: PoolSlots,
    },
}

/// A node's slot budget under [`Buffering::SharedPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolSlots {
    /// One pool backs the node's input-port buffers, its in-flight
    /// downstream reservations and its ejection queues alike.
    Unified(usize),
    /// The budget walled endpoint-vs-switch. A message trades its switch
    /// slot for an endpoint slot on ejection, so a saturated fabric can no
    /// longer starve local delivery, and vice versa.
    Split {
        /// Slots for input-port buffers and in-flight reservations.
        switch: usize,
        /// Slots for the ejection queues.
        endpoint: usize,
    },
}

impl PoolSlots {
    /// Slots per node, both sides of a split counted.
    #[must_use]
    pub fn total(self) -> usize {
        match self {
            PoolSlots::Unified(slots) => slots,
            PoolSlots::Split { switch, endpoint } => switch + endpoint,
        }
    }
}

impl Buffering {
    /// The node slot budget of a [`Buffering::SharedPool`], else `None`.
    #[must_use]
    pub fn pool_slots(self) -> Option<PoolSlots> {
        match self {
            Buffering::SharedPool { slots, .. } => Some(slots),
            _ => None,
        }
    }

    /// Message slots one node provisions under `routing`: the depths of
    /// every buffer at the four link ports, the local injection port and
    /// the ejection queues summed. `None` when buffers are individually
    /// unbounded (worst-case buffering or a shared pool).
    #[must_use]
    pub fn slots_per_node(self, routing: RoutingPolicy) -> Option<usize> {
        let layout = BufferLayout::new(self, routing);
        let depths = layout.depths?;
        let per_port = layout.buffers_per_port();
        Some(
            LINKS_PER_SWITCH * per_port * depths.port
                + per_port * depths.injection
                + layout.ejection_queues() * depths.ejection,
        )
    }
}

/// Configuration of one interconnection network instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Number of nodes / switches. Must have a `W × H` torus factorisation
    /// with both dimensions ≥ 2 (see [`specsim_base::squarest_torus_dims`]).
    pub num_nodes: usize,
    /// Explicit `(width, height)` of the torus; `None` derives the squarest
    /// factorisation of [`Self::num_nodes`]. When set, `width × height` must
    /// equal `num_nodes`.
    pub torus_dims: Option<(usize, usize)>,
    /// Routing policy (static dimension-order or minimal adaptive).
    pub routing: RoutingPolicy,
    /// The buffer design.
    pub buffering: Buffering,
    /// Link bandwidth, which sets per-message serialization time.
    pub link_bandwidth: LinkBandwidth,
}

/// Per-hop switch pipeline latency in cycles, on top of a message's
/// serialization (the same for every network).
pub const SWITCH_LATENCY_CYCLES: CycleDelta = 8;

impl NetConfig {
    /// A network of `num_nodes` nodes with the given routing and buffer
    /// design, on the squarest torus. The presets below name the designs the
    /// paper evaluates.
    #[must_use]
    pub fn new(
        num_nodes: usize,
        link_bandwidth: LinkBandwidth,
        routing: RoutingPolicy,
        buffering: Buffering,
    ) -> Self {
        Self {
            num_nodes,
            torus_dims: None,
            routing,
            buffering,
            link_bandwidth,
        }
    }

    /// The paper's conventional (non-speculative) interconnect: static
    /// dimension-order routing over virtual networks and channels.
    #[must_use]
    pub fn conventional(num_nodes: usize, link_bandwidth: LinkBandwidth) -> Self {
        Self::new(
            num_nodes,
            link_bandwidth,
            RoutingPolicy::Static,
            Buffering::VirtualChannels,
        )
    }

    /// The speculatively simplified interconnect of Section 4: adaptive
    /// routing over one shared `depth`-message buffer per port.
    #[must_use]
    pub fn speculative(num_nodes: usize, link_bandwidth: LinkBandwidth, depth: usize) -> Self {
        let buffering = Buffering::SharedBuffers { depth };
        Self::new(
            num_nodes,
            link_bandwidth,
            RoutingPolicy::Adaptive,
            buffering,
        )
    }

    /// The worst-case-buffering baseline of Section 5.3 under `routing`.
    #[must_use]
    pub fn full_buffering(
        num_nodes: usize,
        link_bandwidth: LinkBandwidth,
        routing: RoutingPolicy,
    ) -> Self {
        Self::new(num_nodes, link_bandwidth, routing, Buffering::Unbounded)
    }

    /// The shared-pool interconnect of Section 4's third case study:
    /// adaptive routing over the conventional virtual-channel structure,
    /// every buffer of a node drawing from one pool of `total_slots`.
    #[must_use]
    pub fn shared_pool(
        num_nodes: usize,
        link_bandwidth: LinkBandwidth,
        total_slots: usize,
    ) -> Self {
        let buffering = Buffering::SharedPool {
            virtual_channels: true,
            slots: PoolSlots::Unified(total_slots),
        };
        Self::new(
            num_nodes,
            link_bandwidth,
            RoutingPolicy::Adaptive,
            buffering,
        )
    }

    /// The buffer layout implied by this configuration.
    #[must_use]
    pub(crate) fn layout(&self) -> BufferLayout {
        BufferLayout::new(self.buffering, self.routing)
    }
}

/// How switch-port buffering is organised; derived from a [`Buffering`]
/// and the routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufferLayout {
    /// Virtual channels per virtual network, or `None` when every message
    /// class shares one buffer per port and one ejection queue.
    vcs: Option<usize>,
    /// Buffer capacities, or `None` when every buffer is individually
    /// unbounded (worst-case buffering, or a shared pool is the only bound).
    depths: Option<Depths>,
}

/// Per-buffer capacities, in messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Depths {
    port: usize,
    ejection: usize,
    injection: usize,
}

/// Index of the escape virtual channel used before a packet crosses the
/// dateline of a ring.
pub(crate) const ESCAPE_VC_LOW: usize = 0;
/// Index of the escape virtual channel used after a packet crosses the
/// dateline of a ring.
pub(crate) const ESCAPE_VC_HIGH: usize = 1;
/// Index of the fully adaptive virtual channel (Duato's scheme).
pub(crate) const ADAPTIVE_VC: usize = 2;

impl BufferLayout {
    /// The layout of `buffering` under `routing`.
    pub(crate) fn new(buffering: Buffering, routing: RoutingPolicy) -> Self {
        // Two dateline escape channels per network; deadlock-free adaptive
        // routing needs one more, fully adaptive channel (Duato).
        let vcs = match routing {
            RoutingPolicy::Static => 2,
            RoutingPolicy::Adaptive => 3,
        };
        let (vcs, depths) = match buffering {
            Buffering::VirtualChannels => (
                Some(vcs),
                Some(Depths {
                    port: VC_BUFFER_DEPTH,
                    ejection: VC_QUEUE_DEPTH,
                    injection: VC_QUEUE_DEPTH,
                }),
            ),
            Buffering::SharedBuffers { depth } => (
                None,
                Some(Depths {
                    port: depth,
                    ejection: depth,
                    injection: depth,
                }),
            ),
            Buffering::Unbounded => (None, None),
            Buffering::SharedPool {
                virtual_channels, ..
            } => (virtual_channels.then_some(vcs), None),
        };
        Self { vcs, depths }
    }

    /// True when every message class has its own buffers and ejection
    /// queue (virtual networks).
    pub(crate) fn has_virtual_networks(&self) -> bool {
        self.vcs.is_some()
    }

    /// Number of buffers at each switch input port.
    pub(crate) fn buffers_per_port(&self) -> usize {
        self.vcs.map_or(1, |vcs| ALL_VIRTUAL_NETWORKS.len() * vcs)
    }

    /// Capacity of each switch-port buffer (`None` = unbounded).
    pub(crate) fn buffer_capacity(&self) -> Option<usize> {
        self.depths.map(|d| d.port)
    }

    /// Number of ejection queues per endpoint.
    pub(crate) fn ejection_queues(&self) -> usize {
        if self.has_virtual_networks() {
            ALL_VIRTUAL_NETWORKS.len()
        } else {
            1
        }
    }

    /// Capacity of each ejection queue (`None` = unbounded).
    pub(crate) fn ejection_capacity(&self) -> Option<usize> {
        self.depths.map(|d| d.ejection)
    }

    /// Capacity of each injection queue (`None` = unbounded).
    pub(crate) fn injection_capacity(&self) -> Option<usize> {
        self.depths.map(|d| d.injection)
    }

    /// Number of virtual channels per virtual network (1 when buffers are
    /// shared).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn channels_per_network(&self) -> usize {
        self.vcs.unwrap_or(1)
    }

    /// The ejection queue a delivered packet of class `vnet` is placed in.
    pub(crate) fn ejection_index(&self, vnet: VirtualNetwork) -> usize {
        if self.has_virtual_networks() {
            vnet.index()
        } else {
            0
        }
    }

    /// Port-buffer index for a packet of class `vnet` on virtual channel
    /// `vc`.
    pub(crate) fn buffer_index(&self, vnet: VirtualNetwork, vc: usize) -> usize {
        match self.vcs {
            Some(vcs) => {
                debug_assert!(vc < vcs);
                vnet.index() * vcs + vc
            }
            None => 0,
        }
    }

    /// The virtual channel encoded by a port-buffer index.
    pub(crate) fn vc_of_buffer(&self, buffer_index: usize) -> usize {
        self.vcs.map_or(0, |vcs| buffer_index % vcs)
    }

    /// The buffer a newly injected packet of class `vnet` starts in (escape
    /// channel 0 in VC mode; the shared buffer otherwise).
    pub(crate) fn injection_buffer_index(&self, vnet: VirtualNetwork) -> usize {
        self.buffer_index(vnet, ESCAPE_VC_LOW)
    }

    /// The downstream buffer index for a hop, implementing dateline
    /// virtual-channel allocation plus Duato's adaptive channel.
    ///
    /// * `vnet` — the packet's message class (virtual network);
    /// * `current_vc` — the virtual channel the packet occupies at the
    ///   current switch;
    /// * `incoming` — the port the packet arrived on at the current switch
    ///   (`Local` for freshly injected packets);
    /// * `outgoing` — the chosen output direction;
    /// * `crosses_dateline` — whether this hop crosses the ring's wrap-around
    ///   edge;
    /// * `use_adaptive_channel` — whether the routing decision chose the
    ///   fully adaptive channel (only meaningful with ≥ 3 VCs).
    pub(crate) fn next_buffer_index(
        &self,
        vnet: VirtualNetwork,
        current_vc: usize,
        incoming: Direction,
        outgoing: Direction,
        crosses_dateline: bool,
        use_adaptive_channel: bool,
    ) -> usize {
        match self.vcs {
            None => 0,
            Some(vcs) => {
                let vc = if use_adaptive_channel && vcs > ADAPTIVE_VC {
                    ADAPTIVE_VC
                } else {
                    // Escape (dateline) channels. Staying within the same
                    // dimension keeps the current escape channel unless this
                    // hop crosses the dateline; entering a new dimension (or
                    // leaving the injection port, or leaving the adaptive
                    // channel) restarts at the low escape channel, again
                    // unless the very first hop crosses the dateline.
                    let same_dimension = incoming != Direction::Local
                        && incoming.is_x() == outgoing.is_x()
                        && current_vc < ADAPTIVE_VC;
                    let base = if same_dimension {
                        current_vc
                    } else {
                        ESCAPE_VC_LOW
                    };
                    if crosses_dateline || base == ESCAPE_VC_HIGH {
                        ESCAPE_VC_HIGH
                    } else {
                        ESCAPE_VC_LOW
                    }
                };
                self.buffer_index(vnet, vc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsim_base::LinkBandwidth;

    #[test]
    fn conventional_layout_has_eight_vcs_per_port() {
        let cfg = NetConfig::conventional(16, LinkBandwidth::GB_3_2);
        let layout = cfg.layout();
        assert_eq!(layout.buffers_per_port(), 8); // 4 VNs x 2 VCs
        assert_eq!(layout.ejection_queues(), 4);
        assert_eq!(layout.channels_per_network(), 2);
    }

    #[test]
    fn adaptive_with_vcs_gets_an_extra_channel() {
        let mut cfg = NetConfig::conventional(16, LinkBandwidth::GB_3_2);
        cfg.routing = RoutingPolicy::Adaptive;
        let layout = cfg.layout();
        // Section 4: "To provide deadlock freedom with adaptive routing
        // requires at least one additional virtual channel."
        assert_eq!(layout.channels_per_network(), 3);
        assert_eq!(layout.buffers_per_port(), 12);
    }

    #[test]
    fn speculative_layout_is_one_shared_buffer() {
        let cfg = NetConfig::speculative(16, LinkBandwidth::MB_400, 16);
        let layout = cfg.layout();
        assert_eq!(layout.buffers_per_port(), 1);
        assert_eq!(layout.buffer_capacity(), Some(16));
        assert_eq!(layout.ejection_queues(), 1);
        assert_eq!(
            layout.ejection_index(VirtualNetwork::Response),
            layout.ejection_index(VirtualNetwork::Request)
        );
    }

    #[test]
    fn shared_pool_preset_keeps_the_vc_structure_but_pools_capacity() {
        let cfg = NetConfig::shared_pool(16, LinkBandwidth::MB_400, 24);
        assert_eq!(cfg.buffering.pool_slots(), Some(PoolSlots::Unified(24)));
        assert_eq!(cfg.routing, RoutingPolicy::Adaptive);
        // The buffer *structure* is the conventional adaptive VC layout
        // (4 networks x 3 channels); only the capacity accounting changes:
        // the pool, not any one buffer, is the bound.
        let layout = cfg.layout();
        assert_eq!(layout.buffers_per_port(), 12);
        assert_eq!(layout.ejection_queues(), 4);
        assert_eq!(layout.buffer_capacity(), None);
        assert_eq!(layout.ejection_capacity(), None);
        assert_eq!(
            NetConfig::conventional(16, LinkBandwidth::MB_400)
                .buffering
                .pool_slots(),
            None
        );
        // Without virtual channels, one pooled buffer per port.
        let per_port = BufferLayout::new(
            Buffering::SharedPool {
                virtual_channels: false,
                slots: PoolSlots::Unified(16),
            },
            RoutingPolicy::Adaptive,
        );
        assert_eq!(per_port.buffers_per_port(), 1);
        assert_eq!(per_port.ejection_queues(), 1);
        assert_eq!(per_port.buffer_capacity(), None);
    }

    #[test]
    fn shared_pool_split_sets_both_budgets() {
        let slots = PoolSlots::Split {
            switch: 18,
            endpoint: 6,
        };
        let buffering = Buffering::SharedPool {
            virtual_channels: true,
            slots,
        };
        assert_eq!(buffering.pool_slots(), Some(slots));
        assert_eq!(slots.total(), 24);
        assert_eq!(PoolSlots::Unified(24).total(), 24);
    }

    #[test]
    fn slots_per_node_sums_every_buffer_depth() {
        // 4 link ports x (4 networks x VCs) x depth 4, the local port's
        // buffers at injection depth 8, and 4 ejection queues of depth 8.
        let vc = Buffering::VirtualChannels;
        assert_eq!(vc.slots_per_node(RoutingPolicy::Static), Some(224));
        assert_eq!(vc.slots_per_node(RoutingPolicy::Adaptive), Some(320));
        // One buffer per port: 4 link ports + injection + ejection.
        let shared = Buffering::SharedBuffers { depth: 16 };
        assert_eq!(shared.slots_per_node(RoutingPolicy::Adaptive), Some(96));
        assert_eq!(
            Buffering::Unbounded.slots_per_node(RoutingPolicy::Static),
            None
        );
        let pool = NetConfig::shared_pool(16, LinkBandwidth::MB_400, 24).buffering;
        assert_eq!(pool.slots_per_node(RoutingPolicy::Adaptive), None);
    }

    #[test]
    fn worst_case_layout_is_unbounded() {
        let cfg = NetConfig::full_buffering(16, LinkBandwidth::MB_400, RoutingPolicy::Adaptive);
        let layout = cfg.layout();
        assert_eq!(layout.buffer_capacity(), None);
        assert_eq!(layout.ejection_capacity(), None);
        assert_eq!(layout.injection_capacity(), None);
    }

    #[test]
    fn buffer_index_roundtrips_vc() {
        let layout = BufferLayout::new(Buffering::VirtualChannels, RoutingPolicy::Adaptive);
        for vn in crate::packet::ALL_VIRTUAL_NETWORKS {
            for vc in 0..3 {
                let idx = layout.buffer_index(vn, vc);
                assert_eq!(layout.vc_of_buffer(idx), vc);
            }
        }
    }

    #[test]
    fn dateline_allocation_switches_to_high_channel() {
        let layout = BufferLayout::new(Buffering::VirtualChannels, RoutingPolicy::Static);
        let vn = VirtualNetwork::Request;
        // First hop in a dimension without crossing the dateline stays low.
        let idx = layout.next_buffer_index(vn, 0, Direction::Local, Direction::East, false, false);
        assert_eq!(layout.vc_of_buffer(idx), ESCAPE_VC_LOW);
        // Crossing the dateline moves to the high channel.
        let idx = layout.next_buffer_index(vn, 0, Direction::West, Direction::East, true, false);
        assert_eq!(layout.vc_of_buffer(idx), ESCAPE_VC_HIGH);
        // Once on the high channel, later hops in the same dimension stay high.
        let idx = layout.next_buffer_index(vn, 1, Direction::West, Direction::East, false, false);
        assert_eq!(layout.vc_of_buffer(idx), ESCAPE_VC_HIGH);
        // Turning into a new dimension resets to the low channel.
        let idx = layout.next_buffer_index(vn, 1, Direction::West, Direction::North, false, false);
        assert_eq!(layout.vc_of_buffer(idx), ESCAPE_VC_LOW);
    }

    #[test]
    fn adaptive_channel_used_when_requested_and_available() {
        let layout = BufferLayout::new(Buffering::VirtualChannels, RoutingPolicy::Adaptive);
        let vn = VirtualNetwork::Response;
        let idx = layout.next_buffer_index(vn, 0, Direction::Local, Direction::East, true, true);
        assert_eq!(layout.vc_of_buffer(idx), ADAPTIVE_VC);
        // With only two channels the request is ignored and escape rules apply.
        let layout2 = BufferLayout::new(Buffering::VirtualChannels, RoutingPolicy::Static);
        let idx = layout2.next_buffer_index(vn, 0, Direction::Local, Direction::East, true, true);
        assert_eq!(layout2.vc_of_buffer(idx), ESCAPE_VC_HIGH);
    }
}
