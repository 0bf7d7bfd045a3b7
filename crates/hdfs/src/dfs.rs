//! The filesystem proper: where every block of every file has its
//! replicas.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;

use crate::block::{BlockId, BlockMeta, BlockSize, NodeId};
use crate::placement::{HdfsDefault, PlacementRequest};
use crate::topology::Topology;

/// DFS-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfsConfig {
    /// Block size for newly created files.
    pub block_size: BlockSize,
    /// Replicas per block (must not exceed the node count).
    pub replication: usize,
    /// Number of datanodes (the paper uses 3-node clusters).
    pub num_nodes: usize,
}

/// Errors returned by [`Dfs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// Path already exists.
    AlreadyExists(String),
    /// Path does not exist.
    NotFound(String),
    /// Configuration has zero datanodes.
    NoNodes,
    /// Configuration has zero replication.
    ZeroReplication,
    /// Replication exceeds the datanode count — HDFS would leave blocks
    /// under-replicated forever, so the configuration is rejected
    /// outright instead of silently clamped.
    OverReplicated {
        /// Requested replicas per block.
        replication: usize,
        /// Available datanodes.
        nodes: usize,
    },
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::AlreadyExists(p) => write!(f, "path already exists: {p}"),
            DfsError::NotFound(p) => write!(f, "path not found: {p}"),
            DfsError::NoNodes => write!(f, "need at least one datanode"),
            DfsError::ZeroReplication => write!(f, "need at least one replica per block"),
            DfsError::OverReplicated { replication, nodes } => write!(
                f,
                "replication {replication} exceeds the {nodes} available datanode(s)"
            ),
        }
    }
}

impl std::error::Error for DfsError {}

/// The distributed filesystem's metadata: each file's blocks and the
/// nodes holding their replicas, placed by [`HdfsDefault`] against a
/// [`Topology`]. Payloads are not kept.
///
/// # Examples
///
/// ```
/// use hhsim_hdfs::{BlockSize, Dfs, DfsConfig, HdfsDefault, NodeId, Topology};
/// use bytes::Bytes;
///
/// let config = DfsConfig {
///     block_size: BlockSize::MB_64,
///     replication: 3,
///     num_nodes: 6,
/// };
/// let topology = Topology::racked(2, 1.0);
/// let mut dfs = Dfs::with_placement(config, Box::new(HdfsDefault::new(7)), topology)?;
/// dfs.create_from("/a", NodeId(2), Bytes::from(vec![0u8; 200 << 20]))?;
/// let blocks = dfs.blocks("/a")?;
/// assert_eq!(blocks.len(), 4); // ceil(200 / 64)
/// assert!(blocks.iter().all(|b| b.replicas()[0] == NodeId(2)));
/// # Ok::<(), hhsim_hdfs::DfsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dfs {
    config: DfsConfig,
    placement: HdfsDefault,
    topology: Topology,
    /// Path → the file's blocks, in file order.
    files: BTreeMap<String, Vec<BlockMeta>>,
    /// Id of the next block placed: ids run densely from 0 across files.
    next_block: u64,
}

impl Dfs {
    /// Creates an empty filesystem placing replicas with `placement`
    /// against `topology`.
    ///
    /// # Errors
    ///
    /// [`DfsError::NoNodes`] for zero datanodes,
    /// [`DfsError::ZeroReplication`] for zero replication and
    /// [`DfsError::OverReplicated`] when the replication factor exceeds
    /// the datanode count.
    #[expect(
        clippy::boxed_local,
        reason = "the benchmark package calls with_placement(.., Box::new(HdfsDefault::new(seed)), ..); the Box goes when that caller does"
    )]
    pub fn with_placement(
        config: DfsConfig,
        placement: Box<HdfsDefault>,
        topology: Topology,
    ) -> Result<Self, DfsError> {
        if config.num_nodes == 0 {
            return Err(DfsError::NoNodes);
        }
        if config.replication == 0 {
            return Err(DfsError::ZeroReplication);
        }
        if config.replication > config.num_nodes {
            return Err(DfsError::OverReplicated {
                replication: config.replication,
                nodes: config.num_nodes,
            });
        }
        Ok(Dfs {
            config,
            placement: *placement,
            topology,
            files: BTreeMap::new(),
            next_block: 0,
        })
    }

    /// Creates `path`, `data.len()` bytes written by datanode `writer` and
    /// split into blocks of the configured size, and places every block's
    /// replicas ([`HdfsDefault`] puts the first on `writer` when it is a
    /// datanode). Only the length of `data` is read.
    ///
    /// # Errors
    ///
    /// [`DfsError::AlreadyExists`] if the path is taken.
    pub fn create_from(&mut self, path: &str, writer: NodeId, data: Bytes) -> Result<(), DfsError> {
        if self.files.contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_string()));
        }
        let block = self.config.block_size.bytes();
        let len = data.len() as u64;
        let blocks: Vec<BlockMeta> = (0..self.config.block_size.blocks_for(len))
            .map(|k| {
                let id = BlockId(self.next_block + k);
                let request = PlacementRequest {
                    block: id,
                    writer: Some(writer),
                    replication: self.config.replication,
                    num_nodes: self.config.num_nodes,
                };
                let replicas = self.placement.place(&request, &self.topology);
                BlockMeta::new(id, (len - k * block).min(block), replicas)
            })
            .collect();
        self.next_block += blocks.len() as u64;
        self.files.insert(path.to_string(), blocks);
        Ok(())
    }

    /// Block placements of `path`.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the path does not exist.
    pub fn blocks(&self, path: &str) -> Result<&[BlockMeta], DfsError> {
        self.files
            .get(path)
            .map(Vec::as_slice)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LocalityTier;

    /// 6 nodes over 2 racks (round-robin: evens rack 0, odds rack 1).
    fn small_dfs(replication: usize) -> Dfs {
        let config = DfsConfig {
            block_size: BlockSize::from_bytes(10),
            replication,
            num_nodes: 6,
        };
        let topology = Topology::racked(2, 1.0);
        Dfs::with_placement(config, Box::new(HdfsDefault::new(42)), topology).unwrap()
    }

    fn zeros(len: usize) -> Bytes {
        Bytes::from(vec![0u8; len])
    }

    #[test]
    fn create_and_read_round_trips() {
        let mut dfs = small_dfs(2);
        dfs.create_from("/f", NodeId(0), zeros(256)).unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        assert_eq!(blocks.len(), 26);
        assert_eq!(blocks.iter().map(|b| b.len).sum::<u64>(), 256);
        assert!(blocks.iter().all(|b| b.replicas().len() == 2));
    }

    #[test]
    fn splits_into_correct_blocks() {
        let mut dfs = small_dfs(2);
        dfs.create_from("/f", NodeId(0), zeros(25)).unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].len, 10);
        assert_eq!(blocks[1].len, 10);
        assert_eq!(blocks[2].len, 5, "tail block is short");
    }

    #[test]
    fn block_ids_are_dense_across_files() {
        let mut dfs = small_dfs(2);
        dfs.create_from("/a", NodeId(0), zeros(25)).unwrap();
        // A rejected create places no block.
        assert!(dfs.create_from("/a", NodeId(1), zeros(5)).is_err());
        dfs.create_from("/b", NodeId(1), zeros(12)).unwrap();
        let ids: Vec<u64> = ["/a", "/b"]
            .iter()
            .flat_map(|p| dfs.blocks(p).unwrap().iter().map(|b| b.id.0))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        let lens: Vec<u64> = dfs.blocks("/b").unwrap().iter().map(|b| b.len).collect();
        assert_eq!(lens, vec![10, 2]);
    }

    #[test]
    fn empty_file_has_no_blocks() {
        let mut dfs = small_dfs(2);
        dfs.create_from("/empty", NodeId(0), Bytes::new()).unwrap();
        assert!(dfs.blocks("/empty").unwrap().is_empty());
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut dfs = small_dfs(2);
        dfs.create_from("/f", NodeId(0), Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(
            dfs.create_from("/f", NodeId(0), Bytes::from_static(b"y")),
            Err(DfsError::AlreadyExists("/f".into()))
        );
    }

    #[test]
    fn missing_path_errors() {
        let dfs = small_dfs(2);
        assert_eq!(
            dfs.blocks("/nope").unwrap_err(),
            DfsError::NotFound("/nope".into())
        );
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let dfs = |replication, num_nodes| {
            let config = DfsConfig {
                block_size: BlockSize::from_bytes(10),
                replication,
                num_nodes,
            };
            Dfs::with_placement(config, Box::new(HdfsDefault::new(1)), Topology::flat())
        };
        assert_eq!(dfs(1, 0).unwrap_err(), DfsError::NoNodes);
        assert_eq!(dfs(0, 2).unwrap_err(), DfsError::ZeroReplication);
        assert_eq!(
            dfs(5, 2).unwrap_err(),
            DfsError::OverReplicated {
                replication: 5,
                nodes: 2
            }
        );
        // The errors render with the offending numbers.
        assert!(dfs(5, 2).unwrap_err().to_string().contains("5"));
    }

    #[test]
    fn locality_counts_replica_coverage() {
        let mut dfs = small_dfs(2);
        dfs.create_from("/f", NodeId(4), zeros(30)).unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        // The fraction of the file's blocks each node holds a replica of.
        let coverage: Vec<f64> = (0..6)
            .map(|n| {
                let held = blocks.iter().filter(|b| b.replicas().contains(&NodeId(n)));
                held.count() as f64 / blocks.len() as f64
            })
            .collect();
        // The writer holds every block; 3 blocks x 2 replicas cover 2.
        assert_eq!(coverage[4], 1.0);
        assert!((coverage.iter().sum::<f64>() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hdfs_default_placement_pins_writer_and_spans_both_racks() {
        let topo = Topology::racked(2, 1.0);
        let mut dfs = small_dfs(3);
        dfs.create_from("/f", NodeId(2), zeros(40)).unwrap();
        for b in dfs.blocks("/f").unwrap() {
            assert_eq!(b.replicas()[0], NodeId(2), "writer-local primary");
            // Second replica off the writer's rack, third beside it.
            assert!(!topo.same_rack(b.replicas()[1], NodeId(2)));
            assert!(topo.same_rack(b.replicas()[1], b.replicas()[2]));
            // A replica in each rack, so no reader is ever off-rack.
            for n in 0..6 {
                assert_ne!(topo.tier(NodeId(n), b.replicas()), LocalityTier::OffRack);
            }
        }
    }
}
