//! The filesystem proper: namenode metadata plus in-memory block storage.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;

use crate::block::{BlockId, BlockMeta, BlockSize, NodeId};
use crate::placement::{PlacementRequest, ReplicaPlacement, RoundRobin};
use crate::topology::{LocalityTier, Topology};

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

impl Default for DfsConfig {
    /// Hadoop-like defaults on the paper's 3-node cluster: 64 MB blocks,
    /// 3-way replication.
    fn default() -> Self {
        DfsConfig {
            block_size: BlockSize::MB_64,
            replication: 3,
            num_nodes: 3,
        }
    }
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

/// Per-file metadata held by the namenode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Total file length in bytes.
    pub len: u64,
    /// Block size the file was written with.
    pub block_size: BlockSize,
    /// Ordered block placements.
    pub blocks: Vec<BlockMeta>,
}

/// Namenode: path → metadata, a pluggable [`ReplicaPlacement`] policy
/// and the cluster [`Topology`] it places against.
#[derive(Debug, Clone)]
pub struct NameNode {
    files: BTreeMap<String, FileMeta>,
    next_block: u64,
    placement: Box<dyn ReplicaPlacement>,
    topology: Topology,
}

impl Default for NameNode {
    /// Legacy behaviour: round-robin placement on a flat topology.
    fn default() -> Self {
        NameNode {
            files: BTreeMap::new(),
            next_block: 0,
            placement: Box::new(RoundRobin::default()),
            topology: Topology::flat(),
        }
    }
}

impl NameNode {
    /// A namenode placing with `placement` against `topology`.
    pub fn with_placement(placement: Box<dyn ReplicaPlacement>, topology: Topology) -> Self {
        NameNode {
            files: BTreeMap::new(),
            next_block: 0,
            placement,
            topology,
        }
    }

    /// Registers a new file of `len` bytes and assigns block placements.
    /// `writer` is the datanode writing the file, if any — the HDFS
    /// default policy pins the first replica there.
    fn register(
        &mut self,
        path: &str,
        len: u64,
        block_size: BlockSize,
        replication: usize,
        num_nodes: usize,
        writer: Option<NodeId>,
    ) -> Result<&FileMeta, DfsError> {
        if self.files.contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_string()));
        }
        let mut blocks = Vec::new();
        let mut remaining = len;
        while remaining > 0 {
            let blen = remaining.min(block_size.bytes());
            let id = BlockId(self.next_block);
            let replicas = self.placement.place(
                &PlacementRequest {
                    block: id,
                    writer,
                    replication,
                    num_nodes,
                },
                &self.topology,
            );
            blocks.push(BlockMeta::new(id, blen, replicas));
            self.next_block += 1;
            remaining -= blen;
        }
        let meta = FileMeta {
            len,
            block_size,
            blocks,
        };
        Ok(self.files.entry(path.to_string()).or_insert(meta))
    }

    /// Metadata for `path`.
    pub fn lookup(&self, path: &str) -> Result<&FileMeta, DfsError> {
        self.files
            .get(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// All registered paths, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// The topology replicas are placed against.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Locality tier of `reader` for one block — the rack-aware query a
    /// locality-driven scheduler asks per map task.
    pub fn tier(&self, block: &BlockMeta, reader: NodeId) -> LocalityTier {
        block.locality_tier(reader, &self.topology)
    }
}

/// The distributed filesystem: metadata plus real in-memory payloads.
///
/// # Examples
///
/// ```
/// use hhsim_hdfs::{BlockSize, Dfs, DfsConfig};
/// use bytes::Bytes;
///
/// let mut dfs = Dfs::new(DfsConfig::default())?;
/// dfs.create("/a", Bytes::from_static(b"hello world"))?;
/// assert_eq!(&dfs.read("/a")?[..], b"hello world");
/// # Ok::<(), hhsim_hdfs::DfsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dfs {
    config: DfsConfig,
    namenode: NameNode,
    /// Block payloads, `Bytes` slices of the original buffer (zero-copy),
    /// indexed by block id: the namenode hands ids out densely from 0 and
    /// never frees one.
    store: Vec<Bytes>,
}

impl Dfs {
    /// Creates an empty filesystem with the legacy round-robin placement
    /// on a flat topology.
    ///
    /// # Errors
    ///
    /// [`DfsError::NoNodes`] for zero datanodes,
    /// [`DfsError::ZeroReplication`] for zero replication and
    /// [`DfsError::OverReplicated`] when the replication factor exceeds
    /// the datanode count.
    pub fn new(config: DfsConfig) -> Result<Self, DfsError> {
        Dfs::with_placement(config, Box::new(RoundRobin::default()), Topology::flat())
    }

    /// Creates an empty filesystem placing replicas with `placement`
    /// against `topology`.
    ///
    /// # Errors
    ///
    /// Same configuration errors as [`Dfs::new`].
    pub fn with_placement(
        config: DfsConfig,
        placement: Box<dyn ReplicaPlacement>,
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
            namenode: NameNode::with_placement(placement, topology),
            store: Vec::new(),
        })
    }

    /// Filesystem configuration.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// Read-only access to the namenode.
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// Creates `path` holding `data`, split into blocks of the configured
    /// size.
    ///
    /// # Errors
    ///
    /// [`DfsError::AlreadyExists`] if the path is taken.
    pub fn create(&mut self, path: &str, data: Bytes) -> Result<(), DfsError> {
        self.create_with_block_size(path, data, self.config.block_size)
    }

    /// Creates `path` written by datanode `writer` — placement policies
    /// that honour writer locality (the HDFS default) pin the first
    /// replica there.
    ///
    /// # Errors
    ///
    /// [`DfsError::AlreadyExists`] if the path is taken.
    pub fn create_from(&mut self, path: &str, writer: NodeId, data: Bytes) -> Result<(), DfsError> {
        self.create_inner(path, data, self.config.block_size, Some(writer))
    }

    /// Creates `path` with an explicit per-file block size (Hadoop allows
    /// this per file; the paper's sweeps rely on it).
    ///
    /// # Errors
    ///
    /// [`DfsError::AlreadyExists`] if the path is taken.
    pub fn create_with_block_size(
        &mut self,
        path: &str,
        data: Bytes,
        block_size: BlockSize,
    ) -> Result<(), DfsError> {
        self.create_inner(path, data, block_size, None)
    }

    fn create_inner(
        &mut self,
        path: &str,
        data: Bytes,
        block_size: BlockSize,
        writer: Option<NodeId>,
    ) -> Result<(), DfsError> {
        let meta = self.namenode.register(
            path,
            data.len() as u64,
            block_size,
            self.config.replication,
            self.config.num_nodes,
            writer,
        )?;
        let mut offset = 0usize;
        for b in &meta.blocks {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a block of `data`, which is in memory, so its length fits in usize"
            )]
            let end = offset + b.len as usize;
            debug_assert_eq!(b.id.0, self.store.len() as u64, "block ids are dense");
            self.store.push(data.slice(offset..end));
            offset = end;
        }
        Ok(())
    }

    /// Block placements of `path`.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the path does not exist.
    pub fn blocks(&self, path: &str) -> Result<&[BlockMeta], DfsError> {
        Ok(&self.namenode.lookup(path)?.blocks)
    }

    /// Payload of one block.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never stored (placement and storage are kept in
    /// lockstep by `create`).
    pub fn read_block(&self, id: BlockId) -> Bytes {
        usize::try_from(id.0)
            .ok()
            .and_then(|ix| self.store.get(ix))
            .cloned()
            // hhsim: allow(panic-in-engine): placement and storage are written in lockstep by create_inner; a missing block is a caller bug (forged BlockId), not a recoverable state
            .expect("block registered but not stored")
    }

    /// Reassembles the whole file.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the path does not exist.
    pub fn read(&self, path: &str) -> Result<Bytes, DfsError> {
        let meta = self.namenode.lookup(path)?;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the length of a file written from memory, so it fits in usize"
        )]
        let mut out = Vec::with_capacity(meta.len as usize);
        for b in &meta.blocks {
            out.extend_from_slice(&self.read_block(b.id));
        }
        Ok(Bytes::from(out))
    }

    /// Fraction of `path`'s blocks with a replica on `node` — the map-task
    /// locality a scheduler can achieve.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the path does not exist.
    pub fn locality(&self, path: &str, node: NodeId) -> Result<f64, DfsError> {
        let blocks = self.blocks(path)?;
        if blocks.is_empty() {
            return Ok(1.0);
        }
        let local = blocks.iter().filter(|b| b.is_local_to(node)).count();
        Ok(local as f64 / blocks.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::HdfsDefault;

    fn small_cfg() -> DfsConfig {
        DfsConfig {
            block_size: BlockSize::from_bytes(10),
            replication: 2,
            num_nodes: 3,
        }
    }

    #[test]
    fn create_and_read_round_trips() {
        let mut dfs = Dfs::new(small_cfg()).unwrap();
        let payload = Bytes::from((0u8..=255).collect::<Vec<u8>>());
        dfs.create("/f", payload.clone()).unwrap();
        assert_eq!(dfs.read("/f").unwrap(), payload);
    }

    #[test]
    fn payloads_stay_with_their_blocks_across_files() {
        let mut dfs = Dfs::new(small_cfg()).unwrap();
        dfs.create("/a", Bytes::from(vec![1u8; 25])).unwrap();
        // A rejected create registers no block and stores nothing.
        assert!(dfs.create("/a", Bytes::from(vec![9u8; 5])).is_err());
        dfs.create("/b", Bytes::from(vec![2u8; 12])).unwrap();
        let ids: Vec<u64> = ["/a", "/b"]
            .iter()
            .flat_map(|p| dfs.blocks(p).unwrap().iter().map(|b| b.id.0))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "ids are dense across files");
        for b in dfs.blocks("/b").unwrap() {
            assert_eq!(dfs.read_block(b.id).len() as u64, b.len);
            assert!(dfs.read_block(b.id).iter().all(|&x| x == 2));
        }
        assert_eq!(dfs.read("/a").unwrap(), Bytes::from(vec![1u8; 25]));
    }

    #[test]
    #[should_panic(expected = "block registered but not stored")]
    fn forged_block_id_panics() {
        Dfs::new(small_cfg()).unwrap().read_block(BlockId(u64::MAX));
    }

    #[test]
    fn splits_into_correct_blocks() {
        let mut dfs = Dfs::new(small_cfg()).unwrap();
        dfs.create("/f", Bytes::from(vec![1u8; 25])).unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].len, 10);
        assert_eq!(blocks[1].len, 10);
        assert_eq!(blocks[2].len, 5, "tail block is short");
    }

    #[test]
    fn empty_file_has_no_blocks() {
        let mut dfs = Dfs::new(small_cfg()).unwrap();
        dfs.create("/empty", Bytes::new()).unwrap();
        assert!(dfs.blocks("/empty").unwrap().is_empty());
        assert_eq!(dfs.read("/empty").unwrap().len(), 0);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut dfs = Dfs::new(small_cfg()).unwrap();
        dfs.create("/f", Bytes::from_static(b"x")).unwrap();
        assert_eq!(
            dfs.create("/f", Bytes::from_static(b"y")),
            Err(DfsError::AlreadyExists("/f".into()))
        );
    }

    #[test]
    fn missing_path_errors() {
        let dfs = Dfs::new(small_cfg()).unwrap();
        assert_eq!(
            dfs.read("/nope").unwrap_err(),
            DfsError::NotFound("/nope".into())
        );
    }

    #[test]
    fn replication_spreads_round_robin() {
        let mut dfs = Dfs::new(small_cfg()).unwrap();
        dfs.create("/f", Bytes::from(vec![0u8; 30])).unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        for b in blocks {
            assert_eq!(b.replicas().len(), 2);
            assert_ne!(b.replicas()[0], b.replicas()[1]);
        }
        // Primaries rotate across nodes.
        let primaries: Vec<_> = blocks.iter().map(|b| b.replicas()[0]).collect();
        assert_eq!(primaries, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let cfg = |replication, num_nodes| DfsConfig {
            block_size: BlockSize::from_bytes(10),
            replication,
            num_nodes,
        };
        assert_eq!(Dfs::new(cfg(1, 0)).unwrap_err(), DfsError::NoNodes);
        assert_eq!(Dfs::new(cfg(0, 2)).unwrap_err(), DfsError::ZeroReplication);
        assert_eq!(
            Dfs::new(cfg(5, 2)).unwrap_err(),
            DfsError::OverReplicated {
                replication: 5,
                nodes: 2
            }
        );
        // The errors render with the offending numbers.
        assert!(Dfs::new(cfg(5, 2)).unwrap_err().to_string().contains("5"));
    }

    #[test]
    fn locality_counts_replica_coverage() {
        let mut dfs = Dfs::new(small_cfg()).unwrap();
        dfs.create("/f", Bytes::from(vec![0u8; 30])).unwrap();
        // 3 blocks x 2 replicas over 3 nodes: each node holds 2 of 3.
        for n in 0..3 {
            let frac = dfs.locality("/f", NodeId(n)).unwrap();
            assert!((frac - 2.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn per_file_block_size_override() {
        let mut dfs = Dfs::new(small_cfg()).unwrap();
        dfs.create_with_block_size(
            "/big",
            Bytes::from(vec![0u8; 25]),
            BlockSize::from_bytes(25),
        )
        .unwrap();
        assert_eq!(dfs.blocks("/big").unwrap().len(), 1);
    }

    #[test]
    fn hdfs_default_placement_pins_writer_and_namenode_answers_tiers() {
        // 6 nodes over 2 racks (round-robin: evens rack 0, odds rack 1).
        let topo = Topology::racked(2, 1.0);
        let mut dfs = Dfs::with_placement(
            DfsConfig {
                block_size: BlockSize::from_bytes(10),
                replication: 3,
                num_nodes: 6,
            },
            Box::new(HdfsDefault::new(42)),
            topo,
        )
        .unwrap();
        dfs.create_from("/f", NodeId(2), Bytes::from(vec![0u8; 40]))
            .unwrap();
        let nn = dfs.namenode();
        for b in dfs.blocks("/f").unwrap() {
            assert_eq!(b.replicas()[0], NodeId(2), "writer-local primary");
            assert_eq!(nn.tier(b, NodeId(2)), LocalityTier::NodeLocal);
            // Second replica off the writer's rack, third beside it.
            assert!(!topo.same_rack(b.replicas()[1], NodeId(2)));
            assert!(topo.same_rack(b.replicas()[1], b.replicas()[2]));
            // A replica in each rack, so no reader is ever off-rack.
            for n in 0..6 {
                assert_ne!(nn.tier(b, NodeId(n)), LocalityTier::OffRack);
            }
        }
    }
}
