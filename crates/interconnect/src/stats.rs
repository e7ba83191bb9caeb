//! Network statistics.

use specsim_base::{Counter, Cycle, Log2Histogram};

use crate::packet::VirtualNetwork;

/// Statistics gathered by a [`crate::Network`] instance.
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Messages accepted into injection queues.
    pub injected: Counter,
    /// Messages handed to their destination's ejection queue.
    pub delivered: Counter,
    /// Messages delivered, by virtual network.
    pub delivered_per_vnet: [Counter; 4],
    /// End-to-end latency (injection to ejection-queue arrival) in cycles,
    /// by virtual network: log2-bucketed for p50/p95/p99 reporting, with
    /// exact sums for the means ([`NetStats::mean_latency`],
    /// [`NetStats::mean_latency_of`]).
    pub latency_hist_per_vnet: [Log2Histogram; 4],
    /// Link-to-link hops taken (excluding injection/ejection).
    pub hops: Counter,
    /// Injection attempts rejected because the injection queue was full.
    pub injection_rejects: Counter,
    /// Total busy cycles summed over every unidirectional link.
    pub link_busy_cycles: u64,
    /// Number of unidirectional links in the network.
    pub num_links: usize,
    /// Cycle at which statistics collection started (for utilization).
    pub window_start: Cycle,
}

impl NetStats {
    /// Creates an empty statistics block for a network with `num_links`
    /// unidirectional links.
    #[must_use]
    pub fn new(num_links: usize) -> Self {
        Self {
            injected: Counter::new(),
            delivered: Counter::new(),
            delivered_per_vnet: [Counter::new(); 4],
            latency_hist_per_vnet: Default::default(),
            hops: Counter::new(),
            injection_rejects: Counter::new(),
            link_busy_cycles: 0,
            num_links,
            window_start: 0,
        }
    }

    /// Records a delivery of a packet of class `vnet` that spent `latency`
    /// cycles in the network.
    pub(crate) fn record_delivery(&mut self, vnet: VirtualNetwork, latency: u64) {
        self.delivered.incr();
        self.delivered_per_vnet[vnet.index()].incr();
        self.latency_hist_per_vnet[vnet.index()].record(latency);
    }

    /// Mean in-fabric latency of messages on one virtual network, in cycles
    /// (0 when none were delivered).
    #[must_use]
    pub fn mean_latency_of(&self, vnet: VirtualNetwork) -> f64 {
        self.latency_hist_per_vnet[vnet.index()].mean()
    }

    /// Mean utilization across all links over `[window_start, now]`.
    #[must_use]
    pub fn mean_link_utilization(&self, now: Cycle) -> f64 {
        if now <= self.window_start || self.num_links == 0 {
            return 0.0;
        }
        let window = (now - self.window_start) as f64;
        (self.link_busy_cycles as f64 / (window * self.num_links as f64)).clamp(0.0, 1.0)
    }

    /// Mean end-to-end message latency in cycles.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        let mut all = Log2Histogram::new();
        for hist in &self.latency_hist_per_vnet {
            all.merge(hist);
        }
        all.mean()
    }

    /// Messages still unaccounted for (injected but not delivered).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.injected.get().saturating_sub(self.delivered.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_normalised_by_links_and_window() {
        let mut s = NetStats::new(4);
        s.link_busy_cycles = 200;
        // 4 links over 100 cycles = 400 link-cycles; 200 busy = 50%.
        assert!((s.mean_link_utilization(100) - 0.5).abs() < 1e-12);
        assert_eq!(s.mean_link_utilization(0), 0.0);
    }

    #[test]
    fn delivery_records_latency_and_class() {
        let mut s = NetStats::new(1);
        s.record_delivery(VirtualNetwork::Response, 120);
        s.record_delivery(VirtualNetwork::Response, 80);
        assert_eq!(s.delivered.get(), 2);
        assert_eq!(
            s.delivered_per_vnet[VirtualNetwork::Response.index()].get(),
            2
        );
        assert!((s.mean_latency() - 100.0).abs() < 1e-12);
        let hist = &s.latency_hist_per_vnet[VirtualNetwork::Response.index()];
        assert_eq!(hist.count(), 2);
        assert!((hist.mean() - 100.0).abs() < 1e-12);
        assert_eq!(
            s.latency_hist_per_vnet[VirtualNetwork::Request.index()].count(),
            0
        );
    }

    #[test]
    fn per_vnet_mean_latency_separates_classes() {
        let mut s = NetStats::new(1);
        s.record_delivery(VirtualNetwork::Response, 90);
        s.record_delivery(VirtualNetwork::Response, 110);
        s.record_delivery(VirtualNetwork::Request, 720);
        assert!((s.mean_latency_of(VirtualNetwork::Response) - 100.0).abs() < 1e-12);
        assert!((s.mean_latency_of(VirtualNetwork::Request) - 720.0).abs() < 1e-12);
        assert_eq!(s.mean_latency_of(VirtualNetwork::FinalAck), 0.0);
    }

    #[test]
    fn outstanding_counts_in_flight() {
        let mut s = NetStats::new(1);
        s.injected.add(5);
        s.record_delivery(VirtualNetwork::Request, 10);
        assert_eq!(s.outstanding(), 4);
    }
}
