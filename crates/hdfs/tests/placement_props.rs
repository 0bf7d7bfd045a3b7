//! Property-based tests of the HDFS default replica placement policy,
//! driven by the in-repo deterministic testkit.
//!
//! The four invariants pinned here are the ones the real
//! `BlockPlacementPolicyDefault` guarantees: distinct nodes per block,
//! two-rack coverage whenever both replication and the fabric allow it,
//! a writer-local first replica, and full determinism (placement is a
//! pure function of the seed and the block id).

use bytes::Bytes;
use hhsim_hdfs::{BlockSize, Dfs, DfsConfig, HdfsDefault, NodeId, PlacementRequest, Topology};
use hhsim_testkit::check;

/// A random-but-valid cluster shape: nodes, racks, replication, seed.
fn shape(g: &mut hhsim_testkit::Gen) -> (usize, usize, usize, u64) {
    let nodes = g.usize(1..24);
    let racks = g.usize(1..6);
    let replication = g.usize(1..5).min(nodes);
    let seed = g.u64(0..u64::MAX);
    (nodes, racks, replication, seed)
}

/// No block is ever placed twice on the same node.
#[test]
fn no_duplicate_nodes_per_block() {
    check(128, |g| {
        let (nodes, racks, replication, seed) = shape(g);
        let topo = Topology::racked(racks, 1.0 + g.f64() * 7.0);
        let policy = HdfsDefault::new(seed);
        for b in 0..16u64 {
            let writer = if g.bool(0.5) {
                Some(NodeId(g.usize(0..nodes)))
            } else {
                None
            };
            let replicas = policy.place(
                &PlacementRequest {
                    block: hhsim_hdfs::BlockId(b),
                    writer,
                    replication,
                    num_nodes: nodes,
                },
                &topo,
            );
            assert_eq!(replicas.len(), replication);
            let mut sorted = replicas.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), replication, "replicas are distinct");
            assert!(replicas.iter().all(|n| n.0 < nodes), "nodes in range");
        }
    });
}

/// With replication ≥ 2 on a fabric whose nodes span ≥ 2 racks, every
/// block's replica set covers at least two racks — the fault-domain
/// guarantee the HDFS default policy exists to provide.
#[test]
fn two_racks_covered_when_possible() {
    check(128, |g| {
        let nodes = g.usize(2..24);
        let racks = g.usize(2..6);
        let replication = (2 + g.usize(0..3)).min(nodes);
        let topo = Topology::racked(racks, 1.0);
        // Round-robin rack assignment: `nodes` nodes span min(nodes, racks)
        // racks, which is ≥ 2 here.
        let policy = HdfsDefault::new(g.u64(0..u64::MAX));
        for b in 0..16u64 {
            let replicas = policy.place(
                &PlacementRequest {
                    block: hhsim_hdfs::BlockId(b),
                    writer: Some(NodeId(g.usize(0..nodes))),
                    replication,
                    num_nodes: nodes,
                },
                &topo,
            );
            let mut rack_set: Vec<usize> = replicas.iter().map(|n| topo.rack_of(*n)).collect();
            rack_set.sort_unstable();
            rack_set.dedup();
            assert!(
                rack_set.len() >= 2,
                "replication {replication} over {nodes} nodes / {racks} racks \
                 covers {} rack(s)",
                rack_set.len()
            );
        }
    });
}

/// The first replica always lands on the writing datanode.
#[test]
fn writer_local_first_replica() {
    check(128, |g| {
        let (nodes, racks, replication, seed) = shape(g);
        let topo = Topology::racked(racks, 1.0);
        let writer = NodeId(g.usize(0..nodes));
        let mut dfs = Dfs::with_placement(
            DfsConfig {
                block_size: BlockSize::from_bytes(64),
                replication,
                num_nodes: nodes,
            },
            Box::new(HdfsDefault::new(seed)),
            topo,
        )
        .unwrap();
        let blocks = 1 + g.usize(0..8) as u64;
        dfs.create_from("/f", writer, Bytes::from(vec![0u8; (blocks * 64) as usize]))
            .unwrap();
        for b in dfs.blocks("/f").unwrap() {
            assert_eq!(b.replicas()[0], writer, "first replica is writer-local");
        }
    });
}

/// Placement is a pure function of (seed, block id): the same seed
/// reproduces the same layout, and the seed genuinely reaches the draws.
#[test]
fn deterministic_across_seeds() {
    check(64, |g| {
        let (nodes, racks, replication, seed) = shape(g);
        let topo = Topology::racked(racks, 1.0);
        let place_all = |seed: u64| -> Vec<Vec<NodeId>> {
            let policy = HdfsDefault::new(seed);
            (0..32u64)
                .map(|b| {
                    policy.place(
                        &PlacementRequest {
                            block: hhsim_hdfs::BlockId(b),
                            writer: None,
                            replication,
                            num_nodes: nodes,
                        },
                        &topo,
                    )
                })
                .collect()
        };
        assert_eq!(place_all(seed), place_all(seed), "same seed, same layout");
        if nodes > 2 {
            // With more than two nodes a different seed must shuffle at
            // least one of 32 externally-written blocks.
            assert_ne!(
                place_all(seed),
                place_all(seed ^ 0xDEAD_BEEF),
                "seed reaches the placement draws"
            );
        }
    });
}
