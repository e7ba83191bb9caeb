//! Integration test for Figure 3 (switch deadlock): cross-coupled traffic
//! with small shared buffers wedges the torus; dateline virtual-channel flow
//! control (or worst-case buffering) keeps it moving under the same load.
//!
//! The scenario is the published one (`specsim::experiments::fig23`, which
//! the `fig23_deadlock_scenarios` bench prints): heavy all-to-all traffic
//! with consumers that drain only rarely.

use std::sync::OnceLock;

use specsim::experiments::{fig23, BufferDesign, Fig3Config, Sweep};

/// Whether the fabric stalled (no message moved for
/// [`fig23::WATCHDOG_CYCLES`]) under `design` in the Figure 3 scenario. The tests share one
/// run of the figure.
fn wedged(design: BufferDesign) -> bool {
    static FIGURE: OnceLock<Sweep<Fig3Config>> = OnceLock::new();
    FIGURE
        .get_or_init(fig23::run_fig3)
        .rows
        .iter()
        .find(|r| r.design == design)
        .expect("the figure has a row per buffer design")
        .wedged
}

#[test]
fn tiny_shared_buffers_deadlock_under_cross_coupled_traffic() {
    assert!(
        wedged(BufferDesign::Shared(2)),
        "a two-entry shared-buffer torus with slow consumers must wedge"
    );
}

#[test]
fn worst_case_buffering_never_deadlocks_under_the_same_load() {
    assert!(
        !wedged(BufferDesign::WorstCase),
        "worst-case buffering can always absorb the same traffic"
    );
}

#[test]
fn dateline_virtual_channels_keep_the_torus_moving_under_the_same_load() {
    // The conventional remedy for Figure 3: virtual-channel flow control
    // (dateline allocation on the torus rings) breaks the cyclic buffer
    // dependencies, so even under the same saturating load the network keeps
    // making progress — it is congested, but never deadlocked.
    assert!(
        !wedged(BufferDesign::VirtualChannels),
        "a dateline-VC torus must not deadlock under cross-coupled traffic"
    );
}
