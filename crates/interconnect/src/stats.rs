//! Network statistics.

use specsim_base::Log2Histogram;

use crate::packet::VirtualNetwork;

/// Statistics gathered by a [`crate::Network`] instance.
///
/// Each fact is counted once: a virtual network's deliveries are its latency
/// histogram's count ([`NetStats::delivered_on`]).
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Messages accepted into injection queues.
    pub injected: u64,
    /// End-to-end latency (injection to ejection-queue arrival) in cycles,
    /// by virtual network: log2-bucketed for p50/p95/p99 reporting, with
    /// exact sums for the means ([`NetStats::mean_latency`],
    /// [`NetStats::mean_latency_of`]) and counts for the deliveries.
    pub latency_hist_per_vnet: [Log2Histogram; 4],
    /// Link-to-link hops taken (excluding injection/ejection).
    pub hops: u64,
    /// Injection attempts rejected because the injection queue was full.
    pub injection_rejects: u64,
    /// Busy cycles summed over every unidirectional link: each link
    /// transmit adds its serialization time (a fault-duplicated copy adds
    /// its own; a delay fault adds none).
    pub link_busy_cycles: u64,
    /// Number of unidirectional links in the network.
    pub num_links: usize,
}

impl NetStats {
    /// Creates an empty statistics block for a network with `num_links`
    /// unidirectional links.
    #[must_use]
    pub fn new(num_links: usize) -> Self {
        Self {
            injected: 0,
            latency_hist_per_vnet: Default::default(),
            hops: 0,
            injection_rejects: 0,
            link_busy_cycles: 0,
            num_links,
        }
    }

    /// Records a delivery of a packet of class `vnet` that spent `latency`
    /// cycles in the network.
    pub(crate) fn record_delivery(&mut self, vnet: VirtualNetwork, latency: u64) {
        self.latency_hist_per_vnet[vnet.index()].record(latency);
    }

    /// Messages handed to their destination's ejection queue on one virtual
    /// network.
    #[must_use]
    pub fn delivered_on(&self, vnet: VirtualNetwork) -> u64 {
        self.latency_hist_per_vnet[vnet.index()].count()
    }

    /// Messages handed to their destination's ejection queue, over every
    /// virtual network.
    #[must_use]
    pub fn total_delivered(&self) -> u64 {
        self.latency_hist_per_vnet
            .iter()
            .map(Log2Histogram::count)
            .sum()
    }

    /// Mean in-fabric latency of messages on one virtual network, in cycles
    /// (0 when none were delivered).
    #[must_use]
    pub fn mean_latency_of(&self, vnet: VirtualNetwork) -> f64 {
        self.latency_hist_per_vnet[vnet.index()].mean()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_records_latency_and_class() {
        let mut s = NetStats::new(1);
        s.record_delivery(VirtualNetwork::Response, 120);
        s.record_delivery(VirtualNetwork::Response, 80);
        assert_eq!(s.total_delivered(), 2);
        assert_eq!(s.delivered_on(VirtualNetwork::Response), 2);
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
}
