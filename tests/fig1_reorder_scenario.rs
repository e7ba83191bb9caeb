//! Integration test for Figure 1: adaptive routing can violate point-to-point
//! ordering, static dimension-order routing cannot.
//!
//! The scenario is the published one (`specsim::experiments::fig1`, which
//! the `fig1_reordering` bench prints): an ordered stream from a "NW" switch
//! to a "SE" switch of the 4×4 torus while background traffic congests the
//! dimension-order path. The tests check that (a) static routing never
//! reorders, (b) every message is delivered and the fabric drains under
//! both policies, and (c) adaptive routing does reorder.

use std::sync::OnceLock;

use specsim::experiments::{fig1, Fig1Config, Fig1Row, Sweep};
use specsim_base::RoutingPolicy;

/// The figure's row for `routing`, after checking that every trial
/// delivered its whole stream and drained the fabric. The tests share one
/// run of the figure.
fn row(routing: RoutingPolicy) -> &'static Fig1Row {
    static FIGURE: OnceLock<Sweep<Fig1Config>> = OnceLock::new();
    let row = FIGURE
        .get_or_init(fig1::run)
        .rows
        .iter()
        .find(|r| r.routing == routing)
        .expect("the figure has a row per routing policy");
    assert_eq!(row.trials.len() as u64, fig1::TRIALS);
    for (seed, trial) in (1..).zip(&row.trials) {
        assert_eq!(trial.undrained, 0, "network failed to drain (seed {seed})");
        assert_eq!(
            trial.delivered, trial.sent,
            "all observed-stream messages must arrive (seed {seed})"
        );
    }
    row
}

#[test]
fn static_routing_never_violates_point_to_point_order() {
    for (seed, trial) in (1..).zip(&row(RoutingPolicy::Static).trials) {
        assert!(trial.delivered > 50);
        assert_eq!(
            trial.reordered, 0,
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
    let row = row(RoutingPolicy::Adaptive);
    for trial in &row.trials {
        assert!(trial.reordered <= trial.delivered);
    }
    assert!(row.total(|t| t.delivered) > 250);
    assert!(
        row.total(|t| t.reordered) > 0,
        "the congested scenario must produce at least one point-to-point order violation"
    );
}
