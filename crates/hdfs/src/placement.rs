//! HDFS replica placement: [`HdfsDefault`], the real HDFS default policy
//! — first replica on the writer, second on a different rack, third on
//! the second's rack.
//!
//! Placement is deterministic: [`HdfsDefault`] derives every "random"
//! choice from a SplitMix64-style hash of `(seed, block id)`, so the same
//! file written twice lands on the same nodes, on every platform, under
//! any thread interleaving.
//!
//! [`HdfsDefault`] depends on racks being assigned round-robin
//! ([`Topology::rack_of`] is `node % racks`): it never lists a candidate
//! pool, it computes the pool's `ix`-th node from that layout, so a block
//! costs O(replication) at any cluster size. The filter-and-pick policy it
//! replaced is kept beside the tests as their oracle
//! (`ReferencePlacement`), which holds it to the same node on every pick;
//! a change to the rack layout or to either policy shows up there.

use crate::block::{BlockId, NodeId};
use crate::topology::Topology;

/// Everything [`HdfsDefault::place`] needs to place one block's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementRequest {
    /// The block being placed.
    pub block: BlockId,
    /// The datanode writing the block, if the writer is a datanode
    /// (HDFS puts the first replica there); `None` for an external
    /// client.
    pub writer: Option<NodeId>,
    /// Replicas to place: [`HdfsDefault::place`] returns
    /// `min(replication, num_nodes)` of them.
    pub replication: usize,
    /// Number of datanodes.
    pub num_nodes: usize,
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

    /// Deterministically picks index `draw % len` of a pool of `len`
    /// nodes; `None` when the pool is empty.
    fn pick(&self, block: BlockId, k: u64, len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a remainder modulo a usize length is below that length"
        )]
        let ix = (self.draw(block, k) % len as u64) as usize;
        Some(ix)
    }
}

/// Nodes of `rack` among `0..nodes` when `racks` racks are assigned
/// round-robin.
fn rack_len(nodes: usize, racks: usize, rack: usize) -> usize {
    nodes / racks + usize::from(rack < nodes % racks)
}

/// Up to three `values` in ascending order, padded with `usize::MAX`.
fn ascending(values: impl Iterator<Item = usize>) -> [usize; 3] {
    let mut out = [usize::MAX; 3];
    for (slot, v) in out.iter_mut().zip(values) {
        *slot = v;
    }
    out.sort_unstable();
    out
}

/// Element `ix` of `0, 1, 2, …` without the values in `skip`, which is
/// ascending (its `usize::MAX` padding skips nothing).
fn nth_skipping(ix: usize, skip: &[usize; 3]) -> usize {
    skip.iter()
        .fold(ix, |at, &s| if s <= at { at + 1 } else { at })
}

impl HdfsDefault {
    /// Chooses the nodes holding `req.replication` replicas, the primary
    /// first: distinct nodes in `0..req.num_nodes`, exactly
    /// `min(req.replication, req.num_nodes)` of them (none when either is
    /// zero). [`HdfsDefault::place_into`] into a vector of its own.
    pub fn place(&self, req: &PlacementRequest, topology: &Topology) -> Vec<NodeId> {
        let mut chosen = Vec::with_capacity(req.replication.min(req.num_nodes));
        self.place_into(req, topology, &mut chosen);
        // `NodeId` wraps a `usize`: the collect reuses `chosen`'s buffer.
        chosen.into_iter().map(NodeId).collect()
    }

    /// [`HdfsDefault::place`]'s nodes, as node indices, written over
    /// `chosen`: no allocator call once `chosen` holds a block's replicas.
    ///
    /// Reads every candidate pool by index over the round-robin rack
    /// layout instead of listing it: O(replication) per block.
    pub fn place_into(&self, req: &PlacementRequest, topology: &Topology, chosen: &mut Vec<usize>) {
        chosen.clear();
        let nodes = req.num_nodes;
        let want = req.replication.min(nodes);
        if want == 0 {
            return;
        }
        let racks = topology.racks.max(1);
        let block = req.block;

        // First replica: the writer if it is a datanode, else hashed.
        let first = req
            .writer
            .map(|w| w.0)
            .filter(|&w| w < nodes)
            .or_else(|| self.pick(block, 0, nodes))
            .unwrap_or(0);
        chosen.push(first);

        // Second replica: a different rack when one exists, otherwise
        // any other node. Off the first's rack, the nodes run in rows of
        // `racks - 1`: row q holds q·racks + col for every other column.
        if chosen.len() < want {
            let first_rack = first % racks;
            let off_rack = nodes - rack_len(nodes, racks, first_rack);
            let second = if off_rack > 0 {
                self.pick(block, 1, off_rack).map(|ix| {
                    let col = ix % (racks - 1);
                    ix / (racks - 1) * racks + col + usize::from(col >= first_rack)
                })
            } else {
                self.pick(block, 1, nodes - 1)
                    .map(|ix| ix + usize::from(ix >= first))
            };
            chosen.extend(second);
        }

        // Third replica: the second's rack (rack s holds s, s + racks,
        // s + 2·racks, …) when it has a free node, otherwise any unused
        // node (also the path when no second replica could be placed at
        // all, e.g. a one-node cluster).
        if chosen.len() < want {
            let same_rack = chosen.get(1).and_then(|second| {
                let rack = second % racks;
                let in_rack = chosen.iter().filter(|&c| c % racks == rack);
                let taken = ascending(in_rack.clone().map(|c| c / racks));
                let free = rack_len(nodes, racks, rack) - in_rack.count();
                self.pick(block, 2, free)
                    .map(|ix| rack + nth_skipping(ix, &taken) * racks)
            });
            let third = same_rack.or_else(|| {
                let skip = ascending(chosen.iter().copied());
                self.pick(block, 2, nodes - chosen.len())
                    .map(|ix| nth_skipping(ix, &skip))
            });
            chosen.extend(third);
        }

        // Further replicas: the remaining nodes in hash-rotated order.
        if chosen.len() < want {
            let skip = ascending(chosen.iter().copied());
            let rest = nodes - chosen.len();
            let rot = self.pick(block, 3, rest).unwrap_or(0);
            for i in 0..want - chosen.len() {
                chosen.push(nth_skipping((rot + i) % rest, &skip));
            }
        }
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

    /// The filter-and-pick policy `HdfsDefault::place` replaced, kept as
    /// its oracle: every pool listed in full (all nodes, then the off-rack,
    /// same-rack and unused ones) and `pool[draw % len]` picked from it,
    /// with the same draws. Its answers to a zero-node or zero-replica
    /// request break `place`'s contract; the oracle tests skip those.
    struct ReferencePlacement {
        policy: HdfsDefault,
    }

    impl ReferencePlacement {
        fn new(seed: u64) -> Self {
            ReferencePlacement {
                policy: HdfsDefault::new(seed),
            }
        }

        fn pick(&self, block: BlockId, k: u64, candidates: &[NodeId]) -> Option<NodeId> {
            if candidates.is_empty() {
                return None;
            }
            let ix = (self.policy.draw(block, k) % candidates.len() as u64) as usize;
            candidates.get(ix).copied()
        }

        fn place(&self, req: &PlacementRequest, topology: &Topology) -> Vec<NodeId> {
            let all: Vec<NodeId> = (0..req.num_nodes).map(NodeId).collect();
            let mut chosen: Vec<NodeId> = Vec::with_capacity(req.replication);

            let first = req
                .writer
                .filter(|w| w.0 < req.num_nodes)
                .or_else(|| self.pick(req.block, 0, &all))
                .unwrap_or(NodeId(0));
            chosen.push(first);

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

            if chosen.len() < req.replication {
                let mut rest: Vec<NodeId> = all
                    .iter()
                    .copied()
                    .filter(|n| !chosen.contains(n))
                    .collect();
                let rot = (self.policy.draw(req.block, 3) % rest.len().max(1) as u64) as usize;
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
    }

    /// Places `blocks` blocks of one shape with both policies and asserts
    /// the same nodes in the same order; the writer is absent, a node
    /// that moves with the seed and the block, or `num_nodes + 3` (not a
    /// datanode).
    fn same_as_reference(seed: u64, nodes: usize, racks: usize, replication: usize, blocks: u64) {
        let topo = Topology::racked(racks, 1.0);
        let reference = ReferencePlacement::new(seed);
        let policy = HdfsDefault::new(seed);
        for b in 0..blocks {
            let writers = [
                None,
                Some(NodeId((seed.wrapping_add(b) % nodes as u64) as usize)),
                Some(NodeId(nodes + 3)),
            ];
            for writer in writers {
                let r = PlacementRequest {
                    block: BlockId(b),
                    writer,
                    replication,
                    num_nodes: nodes,
                };
                assert_eq!(
                    policy.place(&r, &topo),
                    reference.place(&r, &topo),
                    "seed {seed}: {nodes} nodes, {racks} racks, {replication} replicas, \
                     block {b}, writer {writer:?}"
                );
            }
        }
    }

    #[test]
    fn hdfs_default_picks_what_the_reference_picks_on_small_clusters() {
        // Every shape up to 70 nodes, racks from 1 to past the node count
        // (empty racks), one to six replicas.
        for nodes in 1..=70 {
            for racks in 1..=nodes + 2 {
                for replication in 1..=6 {
                    same_as_reference(
                        nodes as u64 * 131 + racks as u64,
                        nodes,
                        racks,
                        replication,
                        2,
                    );
                }
            }
        }
    }

    #[test]
    fn hdfs_default_picks_what_the_reference_picks_on_large_clusters() {
        // The benchmark's fault-injection cluster: 1 000 nodes in 40 racks,
        // three replicas.
        for seed in 0..3 {
            same_as_reference(seed, 1_000, 40, 3, 1_000);
        }
        // Seeded shapes up to 2 048 nodes: racks a few, many, or past the
        // node count.
        let mut g = hhsim_testkit::Gen::new(42);
        for _ in 0..300 {
            let nodes = g.usize(1..2_049);
            let racks = match g.usize(0..3) {
                0 => g.usize(1..9),
                1 => g.usize(1..nodes + 1),
                _ => g.usize(nodes..nodes + 1_000),
            };
            let replication = g.usize(1..7);
            same_as_reference(g.u64(0..u64::MAX), nodes, racks, replication, 4);
        }
    }

    #[test]
    fn degenerate_requests_keep_the_contract() {
        let topo = Topology::racked(3, 1.0);
        let policy = HdfsDefault::new(5);
        for (replication, nodes) in [(0, 0), (3, 0), (0, 4), (4, 2), (6, 1), (9, 5)] {
            for writer in [None, Some(NodeId(0)), Some(NodeId(7))] {
                let r = req(11, writer.map(|w| w.0), replication, nodes);
                let got = policy.place(&r, &topo);
                assert_eq!(got.len(), replication.min(nodes), "{r:?}");
                let mut sorted = got.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), got.len(), "{r:?}: distinct");
                assert!(got.iter().all(|n| n.0 < nodes), "{r:?}: in range");
            }
        }
    }

    #[test]
    fn hdfs_default_writer_first_then_two_racks() {
        let t = Topology::racked(3, 1.0);
        let p = HdfsDefault::new(7);
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
        let p = HdfsDefault::new(1);
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
            let p = HdfsDefault::new(seed);
            (0..64).map(|b| p.place(&req(b, None, 3, 12), &t)).collect()
        };
        assert_eq!(place_all(9), place_all(9), "same seed, same placement");
        assert_ne!(place_all(9), place_all(10), "seed reaches the draws");
    }

    #[test]
    fn external_writer_spreads_primaries() {
        let t = Topology::racked(2, 1.0);
        let p = HdfsDefault::new(3);
        let primaries: std::collections::BTreeSet<NodeId> = (0..64)
            .map(|b| p.place(&req(b, None, 1, 8), &t)[0])
            .collect();
        assert!(primaries.len() > 1, "hashed primaries hit several nodes");
    }
}
