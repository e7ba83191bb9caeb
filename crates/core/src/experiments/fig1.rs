//! Figure 1: adaptive routing violates point-to-point order (Section 3.1).
//!
//! A source switch sends a steady stream of messages to one destination.
//! Under static dimension-order routing they always arrive in order; under
//! minimal adaptive routing, congestion on the preferred path lets a later
//! message overtake an earlier one. The scenario builds exactly that
//! situation on the 4×4 torus: the source ("NW switch", node 0) and the
//! destination ("SE switch", node 10) are two hops apart in both
//! dimensions, and background traffic is biased onto the dimension-order
//! (X-first) path. It is built to force the reorder, so the adaptive
//! fraction says nothing about real protocol traffic, whose reorder rates
//! Section 5.3 measures ([`crate::experiments::reorder`]).
//!
//! The scenario is fixed: its parameters are the constants below, and the
//! benches' `SPECSIM_CYCLES` / `SPECSIM_SEEDS` scale does not apply to it.

use specsim_base::{DetRng, LinkBandwidth, MessageSize, NodeId, RoutingPolicy};
use specsim_net::VirtualNetwork::{ForwardedRequest, Response};
use specsim_net::{NetConfig, Network};

use crate::experiments::runner::ratio;
use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};

/// Trials per routing policy, seeded `1..=TRIALS`.
pub const TRIALS: u64 = 8;

/// Cycles of traffic per trial, before the drain.
pub const CYCLES: u64 = 6_000;

/// One stream message every this many cycles.
pub const STREAM_PERIOD: u64 = 40;

/// Background injection pauses while this many messages are in flight, so
/// the 400 MB/s links can drain the backlog afterwards.
pub const BACKLOG_CAP: usize = 150;

/// The cycle by which the drain must have emptied the fabric.
pub const DRAIN_DEADLINE: u64 = 200_000;

/// Link bandwidth of the torus: the low end, where links congest.
pub const BANDWIDTH: LinkBandwidth = LinkBandwidth::MB_400;

/// The Figure 1 scenario. Worst-case buffering isolates the routing
/// question (paper footnote 1); its parameters are the module constants.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Config;

/// The observed stream of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig1Trial {
    /// Stream messages injected.
    pub sent: u64,
    /// Stream messages delivered.
    pub delivered: u64,
    /// Stream messages delivered out of order.
    pub reordered: u64,
    /// Messages (stream and background) still in the fabric after the drain.
    pub undrained: usize,
}

/// One routing policy's trials.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Routing policy of every trial.
    pub routing: RoutingPolicy,
    /// The trials, in seed order.
    pub trials: Vec<Fig1Trial>,
}

impl Fig1Row {
    /// `f` summed over the trials.
    #[must_use]
    pub fn total(&self, f: fn(&Fig1Trial) -> u64) -> u64 {
        self.trials.iter().map(f).sum()
    }
}

impl SweepConfig for Fig1Config {
    type Row = Fig1Row;
    const TITLE: &'static str = "Figure 1: point-to-point order under static and adaptive \
         routing (a scenario built to force the reorder)";
    const COLUMNS: &'static [Column<Fig1Row>] = &[
        ("routing", "routing", |r| Cell::Label(r.routing.label())),
        ("trials", "trials", |r| Cell::Int(r.trials.len() as u64)),
        ("sent", "sent", |r| Cell::Int(r.total(|t| t.sent))),
        ("delivered", "delivered", |r| {
            Cell::Int(r.total(|t| t.delivered))
        }),
        ("reordered", "reordered", |r| {
            Cell::Int(r.total(|t| t.reordered))
        }),
        ("fraction", "fraction", |r| {
            let reordered = r.total(|t| t.reordered) as f64;
            Cell::Rounded(ratio(reordered, r.total(|t| t.delivered) as f64), 5)
        }),
    ];

    fn params(_: &Sweep<Self>) -> Vec<(&'static str, Cell)> {
        vec![
            ("mb_per_s", Cell::Int(BANDWIDTH.megabytes_per_second)),
            ("cycles", Cell::Int(CYCLES)),
            ("seeds", Cell::Int(TRIALS)),
            ("stream_period", Cell::Int(STREAM_PERIOD)),
        ]
    }
}

/// One trial: the stream from node 0 to node 10 under `routing`, then a
/// drain of the whole fabric.
fn trial(routing: RoutingPolicy, seed: u64) -> Fig1Trial {
    let mut net: Network<u64> = Network::new(NetConfig::full_buffering(16, BANDWIDTH, routing));
    let mut rng = DetRng::new(seed);
    let (src, dst) = (NodeId(0), NodeId(10));
    let mut sent = 0;
    let step = |net: &mut Network<u64>, now| {
        net.tick(now, None);
        for n in 0..16 {
            while net.eject_any(NodeId::from(n)).is_some() {}
        }
    };
    for now in 1..=CYCLES {
        // Background traffic between the nodes of the X-first path, two
        // offers per cycle.
        for _ in 0..2 {
            let hot_src = NodeId::from([1usize, 2, 3][rng.next_below(3) as usize]);
            let hot_dst = NodeId::from([2usize, 6, 10][rng.next_below(3) as usize]);
            if hot_src != hot_dst && net.in_flight() < BACKLOG_CAP {
                let _ = net.inject(now, hot_src, hot_dst, Response, MessageSize::Data, 0);
            }
        }
        // The observed stream: control messages on the ForwardedRequest
        // virtual network.
        if now % STREAM_PERIOD == 0 && net.can_inject(src, ForwardedRequest) {
            net.inject(now, src, dst, ForwardedRequest, MessageSize::Control, sent)
                .expect("injection was checked");
            sent += 1;
        }
        step(&mut net, now);
    }
    let mut now = CYCLES;
    while net.in_flight() > 0 && now < DRAIN_DEADLINE {
        now += 1;
        step(&mut net, now);
    }
    Fig1Trial {
        sent,
        delivered: net.stats().delivered_on(ForwardedRequest),
        reordered: net.ordering().reordered(ForwardedRequest),
        undrained: net.in_flight(),
    }
}

/// Runs [`TRIALS`] trials under static, then under adaptive routing.
#[must_use]
pub fn run() -> Sweep<Fig1Config> {
    let rows = [RoutingPolicy::Static, RoutingPolicy::Adaptive]
        .into_iter()
        .map(|routing| Fig1Row {
            routing,
            trials: (1..=TRIALS).map(|seed| trial(routing, seed)).collect(),
        })
        .collect();
    Sweep {
        config: Fig1Config,
        rows,
    }
}
