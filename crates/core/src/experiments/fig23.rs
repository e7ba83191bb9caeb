//! Figures 2 and 3: endpoint deadlock and switch deadlock (Section 4).
//!
//! Figure 2 (endpoint deadlock): two endpoints flood each other with
//! requests, and each consumes a request only when it can send the
//! response at once. With one shared buffer class the requests fill every
//! queue and the fabric wedges; with a virtual network per message class
//! the responses bypass the requests and the system keeps moving.
//!
//! Figure 3 (switch deadlock): heavy all-to-all traffic with slow
//! consumers fills the cyclic buffer dependencies of the torus. Shared
//! buffers without virtual channels wedge, even at 16 per port; dateline
//! virtual channels and worst-case buffering keep moving under the same
//! load.
//!
//! In both figures a run counts as wedged once the fabric holds messages
//! but none has moved for [`WATCHDOG_CYCLES`] cycles. The speculative
//! design of Section 4 accepts such wedges as possible: in the full system
//! the coherence-transaction timeout detects them and SafetyNet recovers,
//! instead of paying for virtual-channel flow control in the common case.
//!
//! The scenarios are fixed: their parameters are the constants below, and
//! the benches' `SPECSIM_CYCLES` / `SPECSIM_SEEDS` scale does not apply.

use specsim_base::{Cycle, DetRng, LinkBandwidth, MessageSize, NodeId, RoutingPolicy};
use specsim_net::VirtualNetwork::{Request, Response};
use specsim_net::{NetConfig, Network};

use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};

/// Quiet cycles (no hop, delivery, injection or loss while messages are in
/// the fabric) after which a run counts as wedged.
pub const WATCHDOG_CYCLES: u64 = 3_000;

/// Cycles the Figure 2 endpoints run, unless the fabric wedges first.
pub const FIG2_CYCLES: u64 = 30_000;

/// Cycles of Figure 3 traffic, unless the fabric wedges first.
pub const FIG3_CYCLES: u64 = 40_000;

/// Seed of Figure 3's random traffic.
pub const FIG3_SEED: u64 = 3;

/// Figure 3's consumers take one message per node every this many cycles.
pub const FIG3_DRAIN_PERIOD: u64 = 64;

/// Link bandwidth of both scenarios.
pub const BANDWIDTH: LinkBandwidth = LinkBandwidth::GB_3_2;

/// How the torus buffers messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferDesign {
    /// One shared buffer of this many messages per port, no virtual
    /// channels or networks (the speculative design).
    Shared(usize),
    /// The conventional design: a virtual network per message class, with
    /// dateline virtual channels on the torus rings.
    VirtualChannels,
    /// Worst-case buffering: no buffer ever fills.
    WorstCase,
}

impl BufferDesign {
    /// Short label used in tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Shared(_) => "shared buffers",
            Self::VirtualChannels => "virtual channels",
            Self::WorstCase => "worst-case buffering",
        }
    }
}

/// One buffer design's outcome.
#[derive(Debug, Clone)]
pub struct DeadlockRow {
    /// The buffer design.
    pub design: BufferDesign,
    /// Whether the fabric wedged.
    pub wedged: bool,
    /// Messages in the fabric when the run ended (stuck, if it wedged).
    pub in_flight: usize,
}

const COLUMNS: &[Column<DeadlockRow>] = &[
    ("design", "buffer design", |r| Cell::Label(r.design.label())),
    ("buffers_per_port", "buffers/port", |r| match r.design {
        BufferDesign::Shared(depth) => Cell::Int(depth as u64),
        _ => Cell::Null,
    }),
    ("outcome", "outcome", |r| {
        Cell::Label(if r.wedged {
            "DEADLOCKED"
        } else {
            "kept moving"
        })
    }),
    ("in_flight", "messages in flight", |r| {
        Cell::Int(r.in_flight as u64)
    }),
];

/// The Figure 2 scenario; its parameters are the module constants.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Config;

impl SweepConfig for Fig2Config {
    type Row = DeadlockRow;
    const TITLE: &'static str =
        "Figure 2: endpoint deadlock (requests block the responses they wait for)";
    const COLUMNS: &'static [Column<DeadlockRow>] = COLUMNS;

    fn params(_: &Sweep<Self>) -> Vec<(&'static str, Cell)> {
        vec![
            ("cycles", Cell::Int(FIG2_CYCLES)),
            ("watchdog_cycles", Cell::Int(WATCHDOG_CYCLES)),
        ]
    }
}

/// The Figure 3 scenario; its parameters are the module constants.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Config;

impl SweepConfig for Fig3Config {
    type Row = DeadlockRow;
    const TITLE: &'static str =
        "Figure 3: switch deadlock (heavy cross-coupled traffic, slow consumers)";
    const COLUMNS: &'static [Column<DeadlockRow>] = COLUMNS;

    fn params(_: &Sweep<Self>) -> Vec<(&'static str, Cell)> {
        vec![
            ("cycles", Cell::Int(FIG3_CYCLES)),
            ("seed", Cell::Int(FIG3_SEED)),
            ("drain_period", Cell::Int(FIG3_DRAIN_PERIOD)),
            ("watchdog_cycles", Cell::Int(WATCHDOG_CYCLES)),
        ]
    }
}

/// Runs `step` once per cycle on a 16-node torus of `design` for up to
/// `cycles` cycles, stopping when the fabric wedges: it holds messages but
/// its hop, delivery and in-flight counts stay unchanged for
/// [`WATCHDOG_CYCLES`] cycles.
fn drive(
    design: BufferDesign,
    cycles: u64,
    mut step: impl FnMut(&mut Network<u64>, Cycle),
) -> DeadlockRow {
    let cfg = match design {
        BufferDesign::Shared(depth) => NetConfig::speculative(16, BANDWIDTH, depth),
        BufferDesign::VirtualChannels => NetConfig::conventional(16, BANDWIDTH),
        BufferDesign::WorstCase => {
            NetConfig::full_buffering(16, BANDWIDTH, RoutingPolicy::Adaptive)
        }
    };
    let mut net = Network::new(cfg);
    let (mut last, mut since) = ((0, 0, 0), 0);
    let wedged = (1..=cycles).any(|now| {
        step(&mut net, now);
        let progress = (
            net.stats().hops,
            net.stats().total_delivered(),
            net.in_flight(),
        );
        if progress != last {
            (last, since) = (progress, now);
        }
        net.in_flight() > 0 && now - since >= WATCHDOG_CYCLES
    });
    DeadlockRow {
        design,
        wedged,
        in_flight: net.in_flight(),
    }
}

/// Runs Figure 2 on 2 shared buffers per port and on virtual channels:
/// endpoints 0 and 10 take every injection slot the network frees for
/// requests to each other, process their incoming messages in order, and
/// consume a request only when its response can be injected at once.
#[must_use]
pub fn run_fig2() -> Sweep<Fig2Config> {
    let (a, b) = (NodeId(0), NodeId(10));
    let designs = [BufferDesign::Shared(2), BufferDesign::VirtualChannels];
    let rows = designs.map(|design| {
        let per_class = design == BufferDesign::VirtualChannels;
        drive(design, FIG2_CYCLES, |net, now| {
            net.tick(now, None);
            for (src, dst) in [(a, b), (b, a)] {
                while net.can_inject(src, Request) {
                    let _ = net.inject(now, src, dst, Request, MessageSize::Control, 0);
                }
            }
            for node in [a, b] {
                loop {
                    let can_answer = net.can_inject(node, Response);
                    // With a virtual network per class, responses have
                    // their own queue and are always consumed; otherwise
                    // one shared FIFO's head blocks everything behind it.
                    let head = if per_class {
                        net.peek_from(node, Response)
                            .or_else(|| net.peek_from(node, Request))
                    } else {
                        net.peek_any(node)
                    };
                    let Some(vnet) = head.map(|p| p.vnet) else {
                        break;
                    };
                    if vnet == Request && !can_answer {
                        break;
                    }
                    let msg = if per_class {
                        net.eject_from(node, vnet)
                    } else {
                        net.eject_any(node)
                    };
                    if vnet == Request {
                        let src = msg.expect("the head was peeked").src;
                        net.inject(now, node, src, Response, MessageSize::Data, 0)
                            .expect("response injection was checked");
                    }
                }
            }
        })
    });
    Sweep {
        config: Fig2Config,
        rows: rows.into(),
    }
}

/// Runs Figure 3 on 2 and 16 shared buffers per port, virtual channels and
/// worst-case buffering: four random requests offered per cycle, and every
/// node's consumer takes one message each [`FIG3_DRAIN_PERIOD`] cycles.
#[must_use]
pub fn run_fig3() -> Sweep<Fig3Config> {
    let designs = [
        BufferDesign::Shared(2),
        BufferDesign::Shared(16),
        BufferDesign::VirtualChannels,
        BufferDesign::WorstCase,
    ];
    let rows = designs.map(|design| {
        let mut rng = DetRng::new(FIG3_SEED);
        drive(design, FIG3_CYCLES, |net, now| {
            for _ in 0..4 {
                let src = NodeId::from(rng.next_below(16) as usize);
                let dst = NodeId::from(rng.next_below(16) as usize);
                if src != dst && net.can_inject(src, Request) {
                    let _ = net.inject(now, src, dst, Request, MessageSize::Data, 0);
                }
            }
            net.tick(now, None);
            if now % FIG3_DRAIN_PERIOD == 0 {
                for n in 0..16 {
                    let _ = net.eject_any(NodeId::from(n));
                }
            }
        })
    });
    Sweep {
        config: Fig3Config,
        rows: rows.into(),
    }
}
