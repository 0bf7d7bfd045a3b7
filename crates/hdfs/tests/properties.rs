//! Property-based tests of the simulated HDFS, driven by the in-repo
//! deterministic testkit (offline replacement for proptest).

use bytes::Bytes;
use hhsim_hdfs::{
    BlockId, BlockSize, Dfs, DfsConfig, DiskModel, HdfsDefault, NodeId, PlacementRequest, Topology,
};
use hhsim_testkit::check;

/// Block count and lengths are exact and every block has its replicas,
/// whatever the block size, replication or file length.
#[test]
fn create_read_round_trip() {
    check(64, |g| {
        let len = g.usize(0..4096);
        let block = g.u64(1..512);
        let nodes = g.usize(1..6);
        let replication = g.usize(1..5).min(nodes);
        let mut dfs = Dfs::with_placement(
            DfsConfig {
                block_size: BlockSize::from_bytes(block),
                replication,
                num_nodes: nodes,
            },
            Box::new(HdfsDefault::new(g.u64(0..u64::MAX))),
            Topology::racked(g.usize(1..4), 1.0),
        )
        .unwrap();
        dfs.create_from("/f", NodeId(g.usize(0..nodes)), Bytes::from(vec![0u8; len]))
            .unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        assert_eq!(
            blocks.len() as u64,
            BlockSize::from_bytes(block).blocks_for(len as u64)
        );
        let total: u64 = blocks.iter().map(|b| b.len).sum();
        assert_eq!(total, len as u64);
        for b in blocks {
            assert!(b.len <= block);
            assert_eq!(b.replicas().len(), replication);
        }
    });
}

/// Block `k` of the files written so far carries exactly the replicas
/// `HdfsDefault::place` returns for `BlockId(k)` and that file's writer:
/// ids run densely from 0 across files, and only the last block of a file
/// is short.
#[test]
fn blocks_carry_the_replicas_hdfs_default_places() {
    check(64, |g| {
        let nodes = g.usize(1..24);
        let replication = g.usize(1..5).min(nodes);
        let block = g.u64(1..64);
        let config = DfsConfig {
            block_size: BlockSize::from_bytes(block),
            replication,
            num_nodes: nodes,
        };
        let topology = Topology::racked(g.usize(1..6), 1.0);
        let policy = HdfsDefault::new(g.u64(0..u64::MAX));
        let mut dfs = Dfs::with_placement(config, Box::new(policy), topology).unwrap();
        let mut next = 0u64;
        for f in 0..g.usize(1..6) {
            let path = format!("/f{f}");
            let writer = NodeId(g.usize(0..nodes));
            let len = g.u64(0..400);
            dfs.create_from(&path, writer, Bytes::from(vec![0u8; len as usize]))
                .unwrap();
            let blocks = dfs.blocks(&path).unwrap();
            assert_eq!(blocks.len() as u64, len.div_ceil(block));
            for (k, b) in blocks.iter().enumerate() {
                assert_eq!(b.id, BlockId(next), "ids are dense across files");
                let request = PlacementRequest {
                    block: b.id,
                    writer: Some(writer),
                    replication,
                    num_nodes: nodes,
                };
                assert_eq!(b.replicas(), policy.place(&request, &topology));
                assert_eq!(b.len, (len - k as u64 * block).min(block));
                next += 1;
            }
        }
    });
}

/// Replica coverage sums to the replication factor: the fractions of a
/// file's blocks each node holds a replica of add up to `replication`
/// over all nodes, because every block has that many distinct replicas.
#[test]
fn locality_sums_to_replication() {
    check(64, |g| {
        let file_blocks = g.u64(1..20);
        let replication = g.usize(1..4);
        let nodes = 4usize;
        let block = 64u64;
        let mut dfs = Dfs::with_placement(
            DfsConfig {
                block_size: BlockSize::from_bytes(block),
                replication,
                num_nodes: nodes,
            },
            Box::new(HdfsDefault::new(g.u64(0..u64::MAX))),
            Topology::racked(2, 1.0),
        )
        .unwrap();
        let data = Bytes::from(vec![0u8; (file_blocks * block) as usize]);
        dfs.create_from("/f", NodeId(g.usize(0..nodes)), data)
            .unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        let sum: f64 = (0..nodes)
            .map(|n| {
                let held = blocks.iter().filter(|b| b.replicas().contains(&NodeId(n)));
                held.count() as f64 / blocks.len() as f64
            })
            .sum();
        assert!((sum - replication as f64).abs() < 1e-9);
    });
}

/// Disk timing is monotone: more bytes never read faster, larger
/// chunks never read slower.
#[test]
fn disk_monotonicity() {
    check(128, |g| {
        let a = g.u64(1..1_000_000_000);
        let b = g.u64(1..1_000_000_000);
        let chunk = g.u64(1..64_000_000);
        let d = DiskModel::sata_7200();
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(d.read_seconds(lo, chunk) <= d.read_seconds(hi, chunk));
        assert!(d.read_seconds(hi, chunk) <= d.read_seconds(hi, (chunk / 2).max(1)) + 1e-12);
        assert!(d.write_seconds(hi, chunk) >= d.read_seconds(hi, chunk));
    });
}
