//! Pluggable replica placement policies for the namenode.
//!
//! Historically the namenode placed replicas round-robin; that stays the
//! default (and the byte-compatible legacy behaviour), but placement is
//! now a trait so the real HDFS default policy — first replica on the
//! writer, second on a different rack, third on the second's rack — can
//! be swapped in when a [`Topology`](crate::Topology) is in play.
//!
//! Policies must be deterministic: [`HdfsDefault`] derives every
//! "random" choice from a SplitMix64-style hash of `(seed, block id)`,
//! so the same file written twice lands on the same nodes, on every
//! platform, under any thread interleaving.

use std::fmt;

use crate::block::{BlockId, NodeId};
use crate::topology::Topology;

/// Everything a policy needs to place one block's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementRequest {
    /// The block being placed.
    pub block: BlockId,
    /// The datanode writing the block, if the writer is a datanode
    /// (HDFS puts the first replica there); `None` for an external
    /// client.
    pub writer: Option<NodeId>,
    /// Replicas to place (the namenode has already validated
    /// `1 ≤ replication ≤ num_nodes`).
    pub replication: usize,
    /// Number of datanodes.
    pub num_nodes: usize,
}

/// A replica placement policy. Implementations may keep state (the
/// round-robin cursor does) but must be deterministic functions of that
/// state and the request.
pub trait ReplicaPlacement: Send {
    /// Chooses the nodes holding `req.replication` replicas. The first
    /// entry is the primary. Entries must be distinct and in
    /// `0..req.num_nodes`.
    fn place(&mut self, req: &PlacementRequest, topology: &Topology) -> Vec<NodeId>;

    /// Short policy name for diagnostics.
    fn name(&self) -> &'static str;

    /// Clones the policy behind the trait object.
    fn clone_box(&self) -> Box<dyn ReplicaPlacement>;
}

impl Clone for Box<dyn ReplicaPlacement> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl fmt::Debug for dyn ReplicaPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReplicaPlacement({})", self.name())
    }
}

/// The legacy policy: primaries rotate across nodes, replicas follow
/// consecutively. Rack-oblivious, but perfectly balanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundRobin {
    next_node: usize,
}

impl ReplicaPlacement for RoundRobin {
    fn place(&mut self, req: &PlacementRequest, _topology: &Topology) -> Vec<NodeId> {
        let replicas = (0..req.replication)
            .map(|r| NodeId((self.next_node + r) % req.num_nodes))
            .collect();
        self.next_node = (self.next_node + 1) % req.num_nodes;
        replicas
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn clone_box(&self) -> Box<dyn ReplicaPlacement> {
        Box::new(*self)
    }
}

/// SplitMix64 finalizer — the workspace's standard stateless hash (the
/// fault planner and the engine's duration jitter use the same mix).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The real HDFS default placement policy (`BlockPlacementPolicyDefault`):
/// first replica on the writer (or a hash-chosen node for an external
/// client), second replica on a node in a *different* rack, third on a
/// different node in the *second's* rack, any further replicas spread
/// over the remaining nodes. Stateless and deterministic: every choice
/// hashes off `(seed, block id, draw index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HdfsDefault {
    /// Root seed; every placement draw hashes off it.
    pub seed: u64,
}

impl HdfsDefault {
    /// Policy with the given root seed.
    pub fn new(seed: u64) -> Self {
        HdfsDefault { seed }
    }

    /// One deterministic draw for this block.
    fn draw(&self, block: BlockId, k: u64) -> u64 {
        mix(mix(self.seed ^ mix(block.0)) ^ k)
    }

    /// Deterministically picks `candidates[draw % len]`; `None` when
    /// empty.
    fn pick(&self, block: BlockId, k: u64, candidates: &[NodeId]) -> Option<NodeId> {
        if candidates.is_empty() {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a remainder modulo a usize length is below that length"
        )]
        let ix = (self.draw(block, k) % candidates.len() as u64) as usize;
        candidates.get(ix).copied()
    }
}

impl ReplicaPlacement for HdfsDefault {
    fn place(&mut self, req: &PlacementRequest, topology: &Topology) -> Vec<NodeId> {
        let all: Vec<NodeId> = (0..req.num_nodes).map(NodeId).collect();
        let mut chosen: Vec<NodeId> = Vec::with_capacity(req.replication);

        // First replica: the writer if it is a datanode, else hashed.
        let first = req
            .writer
            .filter(|w| w.0 < req.num_nodes)
            .or_else(|| self.pick(req.block, 0, &all))
            .unwrap_or(NodeId(0));
        chosen.push(first);

        // Second replica: a different rack when one exists, otherwise
        // any other node.
        if chosen.len() < req.replication {
            let off_rack: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|n| !topology.same_rack(*n, first))
                .collect();
            let fallback: Vec<NodeId> = all.iter().copied().filter(|n| *n != first).collect();
            let pool = if off_rack.is_empty() {
                fallback
            } else {
                off_rack
            };
            if let Some(second) = self.pick(req.block, 1, &pool) {
                chosen.push(second);
            }
        }

        // Third replica: the second's rack when it has a free node,
        // otherwise any unused node (also the path when no second
        // replica could be placed at all, e.g. a one-node cluster).
        if chosen.len() < req.replication {
            let same_rack: Vec<NodeId> = match chosen.get(1) {
                Some(&second) => all
                    .iter()
                    .copied()
                    .filter(|n| topology.same_rack(*n, second) && !chosen.contains(n))
                    .collect(),
                None => Vec::new(),
            };
            let fallback: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|n| !chosen.contains(n))
                .collect();
            let pool = if same_rack.is_empty() {
                fallback
            } else {
                same_rack
            };
            if let Some(third) = self.pick(req.block, 2, &pool) {
                chosen.push(third);
            }
        }

        // Further replicas: remaining nodes in hash-rotated order.
        if chosen.len() < req.replication {
            let mut rest: Vec<NodeId> = all
                .iter()
                .copied()
                .filter(|n| !chosen.contains(n))
                .collect();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a remainder modulo a usize length is below that length"
            )]
            let rot = (self.draw(req.block, 3) % rest.len().max(1) as u64) as usize;
            rest.rotate_left(rot);
            for n in rest {
                if chosen.len() == req.replication {
                    break;
                }
                chosen.push(n);
            }
        }
        chosen
    }

    fn name(&self) -> &'static str {
        "hdfs-default"
    }

    fn clone_box(&self) -> Box<dyn ReplicaPlacement> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(
        block: u64,
        writer: Option<usize>,
        replication: usize,
        nodes: usize,
    ) -> PlacementRequest {
        PlacementRequest {
            block: BlockId(block),
            writer: writer.map(NodeId),
            replication,
            num_nodes: nodes,
        }
    }

    #[test]
    fn round_robin_matches_legacy_layout() {
        let mut p = RoundRobin::default();
        let t = Topology::flat();
        assert_eq!(p.place(&req(0, None, 2, 3), &t), vec![NodeId(0), NodeId(1)]);
        assert_eq!(p.place(&req(1, None, 2, 3), &t), vec![NodeId(1), NodeId(2)]);
        assert_eq!(p.place(&req(2, None, 2, 3), &t), vec![NodeId(2), NodeId(0)]);
    }

    #[test]
    fn hdfs_default_writer_first_then_two_racks() {
        let t = Topology::racked(3, 1.0);
        let mut p = HdfsDefault::new(7);
        for b in 0..32 {
            let r = p.place(&req(b, Some(4), 3, 9), &t);
            assert_eq!(r.len(), 3);
            assert_eq!(r[0], NodeId(4), "writer-local primary");
            assert!(!t.same_rack(r[0], r[1]), "second replica off-rack");
            assert!(t.same_rack(r[1], r[2]), "third shares the second's rack");
            assert_ne!(r[1], r[2]);
        }
    }

    #[test]
    fn hdfs_default_single_rack_degrades_to_distinct_nodes() {
        let t = Topology::flat();
        let mut p = HdfsDefault::new(1);
        let r = p.place(&req(5, Some(0), 3, 4), &t);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], NodeId(0));
        let mut sorted = r.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "replicas are distinct");
    }

    #[test]
    fn hdfs_default_is_deterministic_per_seed() {
        let t = Topology::racked(4, 2.0);
        let place_all = |seed: u64| -> Vec<Vec<NodeId>> {
            let mut p = HdfsDefault::new(seed);
            (0..64).map(|b| p.place(&req(b, None, 3, 12), &t)).collect()
        };
        assert_eq!(place_all(9), place_all(9), "same seed, same placement");
        assert_ne!(place_all(9), place_all(10), "seed reaches the draws");
    }

    #[test]
    fn external_writer_spreads_primaries() {
        let t = Topology::racked(2, 1.0);
        let mut p = HdfsDefault::new(3);
        let primaries: std::collections::BTreeSet<NodeId> = (0..64)
            .map(|b| p.place(&req(b, None, 1, 8), &t)[0])
            .collect();
        assert!(primaries.len() > 1, "hashed primaries hit several nodes");
    }
}
