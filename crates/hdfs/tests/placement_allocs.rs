//! Allocation ratchet for `HdfsDefault::place`: the replica list it
//! returns is the one allocation a block costs, at any cluster size; and
//! `HdfsDefault::place_into` a reused list costs none.
//!
//! Its own test binary so it may install a counting `#[global_allocator]`.
//! Each shape places the same blocks on 1 000 and on 2 000 nodes and must
//! make exactly one allocator call per block, asking for exactly that
//! block's replicas, at both sizes. Counts are of the thread that runs the
//! work (`hhsim_testkit::counted`), so they repeat exactly — which is why
//! a count can be a gate here.

use std::hint::black_box;
use std::mem::size_of;

use hhsim_hdfs::{BlockId, HdfsDefault, NodeId, PlacementRequest, Topology};
use hhsim_testkit::{counted, Allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

const BLOCKS: u64 = 20_000;

/// What placing `BLOCKS` blocks on `nodes` nodes in `racks` racks asks of
/// the allocator; every result is dropped before the next block.
fn placement_allocs(nodes: usize, racks: usize, replication: usize, writer: bool) -> Allocs {
    let topo = Topology::racked(racks, 4.0);
    let policy = HdfsDefault::new(7);
    let ((), allocs) = counted(|| {
        for b in 0..BLOCKS {
            let req = PlacementRequest {
                block: BlockId(b),
                writer: writer.then_some(NodeId(b as usize % nodes)),
                replication,
                num_nodes: nodes,
            };
            black_box(policy.place(&req, &topo));
        }
    });
    allocs
}

#[test]
fn one_allocation_per_block_at_any_cluster_size() {
    // The benchmark's 40-rack fabric, one rack, and more racks than nodes;
    // three replicas (the paper's) and six (the rotated further replicas).
    for racks in [40, 1, 4_000] {
        for replication in [3, 6] {
            for writer in [true, false] {
                let small = placement_allocs(1_000, racks, replication, writer);
                let large = placement_allocs(2_000, racks, replication, writer);
                let shape = format!("{racks} racks, {replication} replicas, writer {writer}");
                assert_eq!(small.calls, BLOCKS, "{shape}: one call per block");
                assert_eq!(
                    small.bytes,
                    BLOCKS * (replication * size_of::<NodeId>()) as u64,
                    "{shape}: each call asks for the replicas alone"
                );
                assert_eq!(small.calls, large.calls, "{shape}: calls grow with nodes");
                assert_eq!(small.bytes, large.bytes, "{shape}: bytes grow with nodes");
                assert_eq!(small.live, 0, "{shape}: nothing kept");
            }
        }
    }
}

/// `place_into` one reused list: after the first block, no allocator call
/// at 1 000 or at 2 000 nodes, and each block's replicas are `place`'s.
#[test]
fn placing_into_a_reused_list_allocates_nothing() {
    let policy = HdfsDefault::new(7);
    for nodes in [1_000, 2_000] {
        let topo = Topology::racked(40, 4.0);
        let req = |b: u64| PlacementRequest {
            block: BlockId(b),
            writer: Some(NodeId(b as usize % nodes)),
            replication: 3,
            num_nodes: nodes,
        };
        let mut chosen = Vec::new();
        policy.place_into(&req(0), &topo, &mut chosen);
        let ((), allocs) = counted(|| {
            for b in 1..BLOCKS {
                policy.place_into(&req(b), &topo, &mut chosen);
                black_box(&chosen);
            }
        });
        assert_eq!(allocs.calls, 0, "{nodes} nodes");
        for b in [1, 17, BLOCKS - 1] {
            policy.place_into(&req(b), &topo, &mut chosen);
            let placed: Vec<usize> = policy.place(&req(b), &topo).iter().map(|n| n.0).collect();
            assert_eq!(chosen, placed, "block {b} on {nodes} nodes");
        }
    }
}
