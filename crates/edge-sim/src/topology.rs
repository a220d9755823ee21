//! Two-level network topology: user→rack edge links and the
//! rack→regional backbone.
//!
//! Requests traverse the edge link of their home rack (a shared FIFO
//! medium — see [`sim_core::net::FifoLink`]) with a seeded per-request
//! jitter; replies return over the same link. Traffic that fails over or
//! hedges to the regional tier additionally crosses the regional
//! backbone, whose round trip is handed to the tier as
//! [`npu_serve::TierConfig::regional_rtt`] so hedging and deadline
//! feasibility are network-aware.

use hmc_types::SimDuration;
use sim_core::net::Link;

/// The network model of one region's edge fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// User→rack edge link (one shared FIFO medium per rack).
    pub edge: Link,
    /// Rack→regional backbone link.
    pub backbone: Link,
    /// Size of a request on the wire.
    pub request_bytes: u64,
    /// Size of a reply on the wire.
    pub response_bytes: u64,
    /// Upper bound of the seeded per-request uplink jitter.
    pub jitter: SimDuration,
}

impl Default for NetworkConfig {
    /// A 1 Gbps / 2 ms edge and a 10 Gbps / 10 ms backbone — metro-area
    /// numbers in the dslab-network tradition.
    fn default() -> Self {
        NetworkConfig {
            edge: Link::new(SimDuration::from_millis(2), 125_000_000),
            backbone: Link::new(SimDuration::from_millis(10), 1_250_000_000),
            request_bytes: 256,
            response_bytes: 128,
            jitter: SimDuration::from_millis(1),
        }
    }
}

impl NetworkConfig {
    /// Reply transit back down the edge link (deterministic, jitter-free:
    /// the reply path is provisioned).
    pub fn downlink(&self) -> SimDuration {
        self.edge.transit(self.response_bytes)
    }

    /// Round trip across the regional backbone: request out, reply back.
    /// This is the [`npu_serve::TierConfig::regional_rtt`] the tier uses
    /// for network-aware hedging and deadline feasibility.
    pub fn regional_rtt(&self) -> SimDuration {
        self.backbone.transit(self.request_bytes) + self.backbone.transit(self.response_bytes)
    }
}

/// Boards hosted by region `region` when `boards` are spread over
/// `regions` regions (earlier regions absorb the remainder).
pub(crate) fn region_boards(boards: usize, regions: usize, region: usize) -> usize {
    boards / regions + usize::from(region < boards % regions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_partition_covers_the_fleet_exactly() {
        for (boards, regions) in [(10_000, 4), (1_001, 7), (9, 4), (4, 4)] {
            let total: usize = (0..regions)
                .map(|r| region_boards(boards, regions, r))
                .sum();
            assert_eq!(total, boards, "{boards} boards over {regions} regions");
        }
    }

    #[test]
    fn regional_rtt_is_both_backbone_transits() {
        let net = NetworkConfig::default();
        assert_eq!(
            net.regional_rtt(),
            net.backbone.transit(256) + net.backbone.transit(128)
        );
        assert!(net.downlink() >= net.edge.latency);
    }
}
