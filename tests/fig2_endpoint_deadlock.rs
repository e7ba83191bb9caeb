//! Integration test for Figure 2 (endpoint deadlock): with one shared buffer
//! class and endpoints that cannot ingest a request until they can emit its
//! response, the fabric wedges; with per-class virtual networks it does not.
//!
//! The scenario is the published one (`specsim::experiments::fig23`, which
//! the `fig23_deadlock_scenarios` bench prints).

use std::sync::OnceLock;

use specsim::experiments::{fig23, BufferDesign, Fig2Config, Sweep};

/// Whether the fabric stalled under `design` in the Figure 2 scenario. The
/// tests share one run of the figure.
fn wedged(design: BufferDesign) -> bool {
    static FIGURE: OnceLock<Sweep<Fig2Config>> = OnceLock::new();
    FIGURE
        .get_or_init(fig23::run_fig2)
        .rows
        .iter()
        .find(|r| r.design == design)
        .expect("the figure has a row per buffer design")
        .wedged
}

#[test]
fn shared_buffers_allow_endpoint_deadlock() {
    assert!(
        wedged(BufferDesign::Shared(2)),
        "with one shared buffer class the request/response dependency must wedge the fabric"
    );
}

#[test]
fn virtual_networks_prevent_endpoint_deadlock() {
    assert!(
        !wedged(BufferDesign::VirtualChannels),
        "per-class virtual networks must keep responses (and the system) moving"
    );
}
