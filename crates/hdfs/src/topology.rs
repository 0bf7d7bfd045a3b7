//! Cluster network topology: node → ToR switch → core.
//!
//! The paper's block-size and scale-out curves implicitly depend on
//! *where* map inputs live and how shuffle traffic crosses the network.
//! [`Topology`] captures the classic two-tier datacenter fabric: every
//! node hangs off a top-of-rack (ToR) switch by a dedicated link, and
//! every ToR reaches the core over an uplink that is usually
//! *oversubscribed* — provisioned below the sum of its rack's node
//! links. Racks are assigned round-robin (`node % racks`), so any
//! contiguous node range spreads evenly across racks.
//!
//! A flat topology ([`Topology::flat`]) has one rack and no
//! oversubscription; it is [`inactive`](Topology::active) and consumers
//! must treat it exactly like having no topology at all.

use std::fmt;

use crate::block::NodeId;

/// How close a reader is to the nearest replica of a block — HDFS's
/// three-level locality vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum LocalityTier {
    /// A replica lives on the reading node: no network traffic.
    #[default]
    NodeLocal,
    /// The nearest replica is in the reader's rack: one ToR hop.
    RackLocal,
    /// Every replica is in another rack: ToR uplink + core + ToR.
    OffRack,
}

impl LocalityTier {
    /// Lower-case label for trace exports and CSV columns.
    pub fn as_str(self) -> &'static str {
        match self {
            LocalityTier::NodeLocal => "node-local",
            LocalityTier::RackLocal => "rack-local",
            LocalityTier::OffRack => "off-rack",
        }
    }

    /// Dense index (0, 1, 2) for tier-keyed lookup tables.
    pub fn idx(self) -> usize {
        match self {
            LocalityTier::NodeLocal => 0,
            LocalityTier::RackLocal => 1,
            LocalityTier::OffRack => 2,
        }
    }
}

impl fmt::Display for LocalityTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A two-tier (node → ToR → core) network with per-tier bandwidth and
/// ToR-uplink oversubscription.
///
/// All bandwidths are payload bytes per second per direction. The
/// effective ToR uplink is `core_bytes_per_s / oversubscription`: an
/// oversubscription of 4 means the rack's shared exit is provisioned at
/// a quarter of the nominal core link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Number of top-of-rack switches; nodes are assigned round-robin.
    pub racks: usize,
    /// Node ↔ ToR link bandwidth, bytes/s each direction.
    pub node_bytes_per_s: f64,
    /// Nominal ToR ↔ core uplink bandwidth, bytes/s each direction,
    /// before the oversubscription divide.
    pub core_bytes_per_s: f64,
    /// ToR uplink oversubscription factor (≥ 1; 1 = full bisection).
    pub oversubscription: f64,
}

/// Measured single-stream GigE payload rate (matches the flat network
/// constant the analytic model has always used).
pub const GIGE_BYTES_PER_S: f64 = 117.0e6;

impl Topology {
    /// One rack, full bisection: the *disabled* topology. Consumers
    /// treat this exactly like having no topology configured at all.
    pub fn flat() -> Self {
        Topology {
            racks: 1,
            node_bytes_per_s: GIGE_BYTES_PER_S,
            core_bytes_per_s: GIGE_BYTES_PER_S,
            oversubscription: 1.0,
        }
    }

    /// A GigE rack fabric: `racks` ToR switches, node links at the
    /// measured GigE payload rate, 10 GigE-class core links divided by
    /// `oversubscription`.
    pub fn racked(racks: usize, oversubscription: f64) -> Self {
        Topology {
            racks: racks.max(1),
            node_bytes_per_s: GIGE_BYTES_PER_S,
            core_bytes_per_s: 10.0 * GIGE_BYTES_PER_S,
            oversubscription: oversubscription.max(1.0),
        }
    }

    /// True if this topology can change anything at all. An inactive
    /// (flat, non-oversubscribed) topology leaves every consumer on its
    /// legacy path, byte-identical to no topology.
    pub fn active(&self) -> bool {
        self.racks > 1 || self.oversubscription > 1.0
    }

    /// The rack (ToR switch) `node` hangs off: racks are assigned
    /// round-robin, `node % racks`. `HdfsDefault` placement depends on
    /// this layout: it computes its candidate pools from it instead of
    /// listing them, and its oracle test catches a change here.
    pub fn rack_of(&self, node: NodeId) -> usize {
        node.0 % self.racks.max(1)
    }

    /// True if both nodes share a ToR switch.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Effective ToR ↔ core uplink bandwidth after oversubscription.
    pub fn uplink_bytes_per_s(&self) -> f64 {
        self.core_bytes_per_s / self.oversubscription.max(1.0)
    }

    /// Locality tier of a reader relative to a block's replica set.
    pub fn tier(&self, reader: NodeId, replicas: &[NodeId]) -> LocalityTier {
        if replicas.contains(&reader) {
            return LocalityTier::NodeLocal;
        }
        if replicas.iter().any(|r| self.same_rack(*r, reader)) {
            return LocalityTier::RackLocal;
        }
        LocalityTier::OffRack
    }

    /// Locality tier of a reader relative to the replicas of a block
    /// that are still alive, or `None` when every replica is gone —
    /// the NameNode query a fetch-failure recovery asks before
    /// re-executing a completed map. `alive` is indexed by node id;
    /// replicas beyond its length count as dead.
    pub fn surviving_tier(
        &self,
        reader: NodeId,
        replicas: &[NodeId],
        alive: &[bool],
    ) -> Option<LocalityTier> {
        let mut best: Option<LocalityTier> = None;
        for r in replicas {
            if !alive.get(r.0).copied().unwrap_or(false) {
                continue;
            }
            let t = if *r == reader {
                LocalityTier::NodeLocal
            } else if self.same_rack(*r, reader) {
                LocalityTier::RackLocal
            } else {
                LocalityTier::OffRack
            };
            best = Some(best.map_or(t, |b| b.min(t)));
        }
        best
    }

    /// Seconds to move `bytes` to a reader at `tier`: zero for a local
    /// read, the node link for a rack-local read, and the slower of the
    /// node link and the oversubscribed uplink for an off-rack read.
    pub fn read_seconds(&self, bytes: u64, tier: LocalityTier) -> f64 {
        match tier {
            LocalityTier::NodeLocal => 0.0,
            LocalityTier::RackLocal => bytes as f64 / self.node_bytes_per_s,
            LocalityTier::OffRack => {
                bytes as f64 / self.node_bytes_per_s.min(self.uplink_bytes_per_s())
            }
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::flat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_inactive_and_single_rack() {
        let t = Topology::flat();
        assert!(!t.active());
        for n in 0..16 {
            assert_eq!(t.rack_of(NodeId(n)), 0);
        }
        assert_eq!(t.read_seconds(1 << 30, LocalityTier::NodeLocal), 0.0);
    }

    #[test]
    fn racked_assigns_round_robin() {
        let t = Topology::racked(3, 4.0);
        assert!(t.active());
        assert_eq!(t.rack_of(NodeId(0)), 0);
        assert_eq!(t.rack_of(NodeId(1)), 1);
        assert_eq!(t.rack_of(NodeId(2)), 2);
        assert_eq!(t.rack_of(NodeId(3)), 0);
        assert!(t.same_rack(NodeId(0), NodeId(3)));
        assert!(!t.same_rack(NodeId(0), NodeId(1)));
    }

    #[test]
    fn oversubscription_divides_the_uplink() {
        let t = Topology::racked(2, 4.0);
        assert!((t.uplink_bytes_per_s() - 10.0 * GIGE_BYTES_PER_S / 4.0).abs() < 1e-6);
        // Oversubscription alone activates the topology even in one rack.
        let o = Topology {
            racks: 1,
            oversubscription: 2.0,
            ..Topology::flat()
        };
        assert!(o.active());
    }

    #[test]
    fn tier_classification() {
        let t = Topology::racked(2, 1.0);
        let replicas = [NodeId(0), NodeId(2)]; // both rack 0
        assert_eq!(t.tier(NodeId(0), &replicas), LocalityTier::NodeLocal);
        assert_eq!(t.tier(NodeId(4), &replicas), LocalityTier::RackLocal);
        assert_eq!(t.tier(NodeId(1), &replicas), LocalityTier::OffRack);
        assert!(LocalityTier::NodeLocal < LocalityTier::RackLocal);
        assert!(LocalityTier::RackLocal < LocalityTier::OffRack);
    }

    #[test]
    fn surviving_tier_degrades_as_replicas_die() {
        let t = Topology::racked(2, 1.0);
        let replicas = [NodeId(0), NodeId(2), NodeId(1)]; // racks 0, 0, 1
        let alive = |dead: &[usize]| {
            let mut a = vec![true; 6];
            for d in dead {
                a[*d] = false;
            }
            a
        };
        // All alive: the reader holding a replica is node-local.
        assert_eq!(
            t.surviving_tier(NodeId(0), &replicas, &alive(&[])),
            Some(LocalityTier::NodeLocal)
        );
        // Reader's own replica died but a rack mate survives.
        assert_eq!(
            t.surviving_tier(NodeId(0), &replicas, &alive(&[0])),
            Some(LocalityTier::RackLocal)
        );
        // The whole rack died with the replicas: off-rack read.
        assert_eq!(
            t.surviving_tier(NodeId(0), &replicas, &alive(&[0, 2])),
            Some(LocalityTier::OffRack)
        );
        // Every replica gone: the block is unrecoverable.
        assert_eq!(
            t.surviving_tier(NodeId(0), &replicas, &alive(&[0, 1, 2])),
            None
        );
        // Replicas beyond the liveness table count as dead, not alive.
        assert_eq!(t.surviving_tier(NodeId(0), &replicas, &[]), None);
    }

    #[test]
    fn read_seconds_order_matches_tier_order() {
        let t = Topology::racked(4, 8.0);
        let b = 256 << 20;
        let node = t.read_seconds(b, LocalityTier::NodeLocal);
        let rack = t.read_seconds(b, LocalityTier::RackLocal);
        let off = t.read_seconds(b, LocalityTier::OffRack);
        assert_eq!(node, 0.0);
        assert!(rack > 0.0);
        assert!(off >= rack, "off-rack never faster than rack-local");
    }

    #[test]
    fn tier_labels_are_stable() {
        assert_eq!(LocalityTier::NodeLocal.as_str(), "node-local");
        assert_eq!(LocalityTier::RackLocal.as_str(), "rack-local");
        assert_eq!(LocalityTier::OffRack.as_str(), "off-rack");
        assert_eq!(LocalityTier::default(), LocalityTier::NodeLocal);
    }
}
