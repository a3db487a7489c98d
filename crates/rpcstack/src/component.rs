//! The latency components of an RPC (Fig. 9) and per-RPC breakdowns.
//!
//! Everything except [`LatencyComponent::ServerApplication`] is the *RPC
//! latency tax*: the cost of reaching a remote service at all. The tax
//! splits further into queueing, network wire, and RPC-processing/network-
//! stack groups, which is the decomposition used by Figs. 10–13.

use rpclens_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// One of the nine stack components, or the server application itself.
///
/// Order follows a request's lifecycle; the `ALL` constant preserves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LatencyComponent {
    /// Request waits at the client for CPU/network availability.
    ClientSendQueue,
    /// Marshalling, compression, encryption, and send-path stack work.
    RequestProcessing,
    /// Request propagation and queueing in the network.
    RequestNetworkWire,
    /// Request waits at the server for a worker thread.
    ServerRecvQueue,
    /// The RPC method handler itself (includes nested calls).
    ServerApplication,
    /// Response waits at the server for network availability.
    ServerSendQueue,
    /// Response-side marshalling and stack work.
    ResponseProcessing,
    /// Response propagation and queueing in the network.
    ResponseNetworkWire,
    /// Response waits at the client before the caller consumes it.
    ClientRecvQueue,
}

impl LatencyComponent {
    /// All components in lifecycle order.
    pub const ALL: [LatencyComponent; 9] = [
        LatencyComponent::ClientSendQueue,
        LatencyComponent::RequestProcessing,
        LatencyComponent::RequestNetworkWire,
        LatencyComponent::ServerRecvQueue,
        LatencyComponent::ServerApplication,
        LatencyComponent::ServerSendQueue,
        LatencyComponent::ResponseProcessing,
        LatencyComponent::ResponseNetworkWire,
        LatencyComponent::ClientRecvQueue,
    ];

    /// Human-readable label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            LatencyComponent::ClientSendQueue => "Client Send Queue",
            LatencyComponent::RequestProcessing => "Request Processing+Net Stack",
            LatencyComponent::RequestNetworkWire => "Request Network Wire",
            LatencyComponent::ServerRecvQueue => "Server Recv Queue",
            LatencyComponent::ServerApplication => "Server Application",
            LatencyComponent::ServerSendQueue => "Server Send Queue",
            LatencyComponent::ResponseProcessing => "Resp Processing+Net Stack",
            LatencyComponent::ResponseNetworkWire => "Resp Network Wire",
            LatencyComponent::ClientRecvQueue => "Client Recv Queue",
        }
    }

    /// Whether this component is part of the RPC latency tax (everything
    /// but the application handler).
    pub fn is_tax(self) -> bool {
        self != LatencyComponent::ServerApplication
    }

    /// The tax group this component belongs to, or `None` for the
    /// application: `Queue`, `Network`, or `Processing` (the grouping of
    /// Fig. 10b).
    pub fn tax_group(self) -> Option<TaxGroup> {
        match self {
            LatencyComponent::ClientSendQueue
            | LatencyComponent::ServerRecvQueue
            | LatencyComponent::ServerSendQueue
            | LatencyComponent::ClientRecvQueue => Some(TaxGroup::Queue),
            LatencyComponent::RequestNetworkWire | LatencyComponent::ResponseNetworkWire => {
                Some(TaxGroup::Network)
            }
            LatencyComponent::RequestProcessing | LatencyComponent::ResponseProcessing => {
                Some(TaxGroup::Processing)
            }
            LatencyComponent::ServerApplication => None,
        }
    }

    /// This component's position in [`LatencyComponent::ALL`]: the
    /// declaration order is the lifecycle order, so it is the
    /// discriminant.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// The three groups of the RPC latency tax (Fig. 10b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaxGroup {
    /// Client/server send and receive queues.
    Queue,
    /// Network wire time (propagation plus in-network queueing).
    Network,
    /// RPC processing and network-stack computation.
    Processing,
}

impl TaxGroup {
    /// All groups.
    pub const ALL: [TaxGroup; 3] = [TaxGroup::Queue, TaxGroup::Network, TaxGroup::Processing];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TaxGroup::Queue => "Queueing",
            TaxGroup::Network => "Network Wire",
            TaxGroup::Processing => "RPC Proc + Net Stack",
        }
    }
}

/// The per-component latency of one completed RPC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    parts: [SimDuration; 9],
}

impl LatencyBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets one component's latency (overwriting).
    pub fn set(&mut self, c: LatencyComponent, d: SimDuration) {
        self.parts[c.index()] = d;
    }

    /// Adds to one component's latency.
    pub fn add(&mut self, c: LatencyComponent, d: SimDuration) {
        self.parts[c.index()] = self.parts[c.index()] + d;
    }

    /// Reads one component's latency.
    pub fn get(&self, c: LatencyComponent) -> SimDuration {
        self.parts[c.index()]
    }

    /// Total RPC completion time (sum of all components).
    pub fn total(&self) -> SimDuration {
        self.parts.iter().copied().sum()
    }

    /// Total RPC latency tax (everything but the application).
    pub fn tax(&self) -> SimDuration {
        LatencyComponent::ALL
            .iter()
            .filter(|c| c.is_tax())
            .map(|&c| self.get(c))
            .sum()
    }

    /// The tax fraction of total completion time in `[0, 1]`, or `None`
    /// for a zero-length RPC.
    pub fn tax_ratio(&self) -> Option<f64> {
        let total = self.total().as_nanos();
        (total > 0).then(|| self.tax().as_nanos() as f64 / total as f64)
    }

    /// Sums the latency of one tax group.
    pub fn group(&self, g: TaxGroup) -> SimDuration {
        LatencyComponent::ALL
            .iter()
            .filter(|c| c.tax_group() == Some(g))
            .map(|&c| self.get(c))
            .sum()
    }

    /// Iterates `(component, latency)` in lifecycle order.
    pub fn iter(&self) -> impl Iterator<Item = (LatencyComponent, SimDuration)> + '_ {
        LatencyComponent::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Returns a copy with one component replaced — the primitive behind
    /// the paper's Fig. 15 what-if analysis.
    pub fn with_component(&self, c: LatencyComponent, d: SimDuration) -> LatencyBreakdown {
        let mut out = *self;
        out.set(c, d);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_nine_unique_components() {
        let mut set = std::collections::BTreeSet::new();
        for c in LatencyComponent::ALL {
            set.insert(c);
        }
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, c) in LatencyComponent::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn only_application_is_not_tax() {
        let non_tax: Vec<_> = LatencyComponent::ALL
            .iter()
            .filter(|c| !c.is_tax())
            .collect();
        assert_eq!(non_tax, vec![&LatencyComponent::ServerApplication]);
    }

    #[test]
    fn tax_groups_partition_the_tax_components() {
        let mut counts = std::collections::BTreeMap::new();
        for c in LatencyComponent::ALL {
            if let Some(g) = c.tax_group() {
                *counts.entry(g).or_insert(0) += 1;
            } else {
                assert_eq!(c, LatencyComponent::ServerApplication);
            }
        }
        assert_eq!(counts[&TaxGroup::Queue], 4);
        assert_eq!(counts[&TaxGroup::Network], 2);
        assert_eq!(counts[&TaxGroup::Processing], 2);
    }

    #[test]
    fn breakdown_totals_and_tax() {
        let mut b = LatencyBreakdown::new();
        b.set(
            LatencyComponent::ServerApplication,
            SimDuration::from_millis(9),
        );
        b.set(
            LatencyComponent::RequestNetworkWire,
            SimDuration::from_micros(500),
        );
        b.set(
            LatencyComponent::ServerRecvQueue,
            SimDuration::from_micros(500),
        );
        assert_eq!(b.total(), SimDuration::from_millis(10));
        assert_eq!(b.tax(), SimDuration::from_millis(1));
        assert!((b.tax_ratio().unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(b.group(TaxGroup::Network), SimDuration::from_micros(500));
        assert_eq!(b.group(TaxGroup::Queue), SimDuration::from_micros(500));
        assert_eq!(b.group(TaxGroup::Processing), SimDuration::ZERO);
    }

    #[test]
    fn empty_breakdown_has_no_tax_ratio() {
        assert_eq!(LatencyBreakdown::new().tax_ratio(), None);
    }

    #[test]
    fn add_accumulates_set_overwrites() {
        let mut b = LatencyBreakdown::new();
        b.add(
            LatencyComponent::ClientSendQueue,
            SimDuration::from_nanos(5),
        );
        b.add(
            LatencyComponent::ClientSendQueue,
            SimDuration::from_nanos(7),
        );
        assert_eq!(
            b.get(LatencyComponent::ClientSendQueue),
            SimDuration::from_nanos(12)
        );
        b.set(
            LatencyComponent::ClientSendQueue,
            SimDuration::from_nanos(1),
        );
        assert_eq!(
            b.get(LatencyComponent::ClientSendQueue),
            SimDuration::from_nanos(1)
        );
    }

    #[test]
    fn with_component_is_pure() {
        let mut b = LatencyBreakdown::new();
        b.set(
            LatencyComponent::ServerApplication,
            SimDuration::from_secs(1),
        );
        let replaced = b.with_component(
            LatencyComponent::ServerApplication,
            SimDuration::from_millis(1),
        );
        assert_eq!(
            b.get(LatencyComponent::ServerApplication),
            SimDuration::from_secs(1)
        );
        assert_eq!(replaced.total(), SimDuration::from_millis(1));
    }

    #[test]
    fn iter_visits_lifecycle_order() {
        let b = LatencyBreakdown::new();
        let order: Vec<_> = b.iter().map(|(c, _)| c).collect();
        assert_eq!(order, LatencyComponent::ALL.to_vec());
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(
            LatencyComponent::RequestProcessing.label(),
            "Request Processing+Net Stack"
        );
        assert_eq!(TaxGroup::Processing.label(), "RPC Proc + Net Stack");
    }
}
