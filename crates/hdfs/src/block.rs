//! Block-level types: sizes, identifiers and placement metadata.

use std::fmt;

use crate::topology::{LocalityTier, Topology};

/// HDFS block size — the paper's central *system-level* tuning knob.
///
/// # Examples
///
/// ```
/// use hhsim_hdfs::BlockSize;
///
/// assert_eq!(BlockSize::MB_256.bytes(), 256 * 1024 * 1024);
/// assert_eq!(BlockSize::MB_64.to_string(), "64 MB");
/// // Number of map tasks = ceil(input / block size) — §3.1.1.
/// assert_eq!(BlockSize::MB_128.blocks_for(300 << 20), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockSize(u64);

impl BlockSize {
    /// 32 MB — smallest block size studied (worst task overhead).
    pub const MB_32: BlockSize = BlockSize(32 << 20);
    /// 64 MB — the Hadoop 2.x default.
    pub const MB_64: BlockSize = BlockSize(64 << 20);
    /// 128 MB.
    pub const MB_128: BlockSize = BlockSize(128 << 20);
    /// 256 MB — the paper's optimum for compute-bound applications.
    pub const MB_256: BlockSize = BlockSize(256 << 20);
    /// 512 MB — the paper's optimum for I/O-bound applications.
    pub const MB_512: BlockSize = BlockSize(512 << 20);

    /// The sweep used for the micro-benchmarks (Fig. 3).
    pub const SWEEP: [BlockSize; 5] = [
        BlockSize::MB_32,
        BlockSize::MB_64,
        BlockSize::MB_128,
        BlockSize::MB_256,
        BlockSize::MB_512,
    ];

    /// The sweep used for real-world applications (Fig. 4; 32 MB excluded
    /// per §3.1.1).
    pub const SWEEP_REAL: [BlockSize; 4] = [
        BlockSize::MB_64,
        BlockSize::MB_128,
        BlockSize::MB_256,
        BlockSize::MB_512,
    ];

    /// An arbitrary block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn from_bytes(bytes: u64) -> Self {
        assert!(bytes > 0, "block size must be positive");
        BlockSize(bytes)
    }

    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Size in whole mebibytes (rounded down).
    pub const fn mib(self) -> u64 {
        self.0 >> 20
    }

    /// Number of blocks needed to hold `file_bytes` (= number of map
    /// tasks the file will produce).
    pub fn blocks_for(self, file_bytes: u64) -> u64 {
        file_bytes.div_ceil(self.0)
    }
}

impl fmt::Display for BlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MB", self.mib())
    }
}

/// Identifier of one stored block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Identifier of a datanode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Placement record of one block.
///
/// Replicas are kept twice: in placement order (the first entry is the
/// primary — for HDFS-default placement, the writer's copy) and as a
/// sorted index so membership tests are a binary search instead of a
/// linear scan. Construction goes through [`BlockMeta::new`] so the two
/// views can never drift apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Block identifier.
    pub id: BlockId,
    /// Payload length (the last block of a file may be short).
    pub len: u64,
    /// Nodes holding a replica, in placement order.
    replicas: Vec<NodeId>,
    /// The same nodes sorted, for `O(log r)` membership tests.
    sorted: Vec<NodeId>,
}

impl BlockMeta {
    /// A placement record; `replicas` is in placement order (primary
    /// first).
    pub fn new(id: BlockId, len: u64, replicas: Vec<NodeId>) -> Self {
        let mut sorted = replicas.clone();
        sorted.sort_unstable();
        BlockMeta {
            id,
            len,
            replicas,
            sorted,
        }
    }

    /// Nodes holding a replica, in placement order (primary first).
    pub fn replicas(&self) -> &[NodeId] {
        &self.replicas
    }

    /// True if `node` holds a replica of this block (binary search over
    /// the sorted replica index).
    pub fn is_local_to(&self, node: NodeId) -> bool {
        self.sorted.binary_search(&node).is_ok()
    }

    /// Locality tier of `node` relative to this block's replicas under
    /// `topology`: node-local beats rack-local beats off-rack.
    pub fn locality_tier(&self, node: NodeId, topology: &Topology) -> LocalityTier {
        if self.is_local_to(node) {
            return LocalityTier::NodeLocal;
        }
        topology.tier(node, &self.replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_sizes() {
        let mib: Vec<u64> = BlockSize::SWEEP.iter().map(|b| b.mib()).collect();
        assert_eq!(mib, vec![32, 64, 128, 256, 512]);
        assert_eq!(BlockSize::SWEEP_REAL[0], BlockSize::MB_64);
    }

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(BlockSize::MB_64.blocks_for(0), 0);
        assert_eq!(BlockSize::MB_64.blocks_for(1), 1);
        assert_eq!(BlockSize::MB_64.blocks_for(64 << 20), 1);
        assert_eq!(BlockSize::MB_64.blocks_for((64 << 20) + 1), 2);
        assert_eq!(BlockSize::MB_32.blocks_for(1 << 30), 32);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_block_size_rejected() {
        let _ = BlockSize::from_bytes(0);
    }

    #[test]
    fn locality_check() {
        let m = BlockMeta::new(BlockId(0), 10, vec![NodeId(2), NodeId(0)]);
        assert!(m.is_local_to(NodeId(0)));
        assert!(m.is_local_to(NodeId(2)));
        assert!(!m.is_local_to(NodeId(1)));
        // Placement order survives the sorted index.
        assert_eq!(m.replicas(), &[NodeId(2), NodeId(0)]);
    }

    #[test]
    fn sorted_lookup_matches_linear_scan() {
        let replicas: Vec<NodeId> = [9usize, 3, 7, 0, 5].into_iter().map(NodeId).collect();
        let m = BlockMeta::new(BlockId(1), 1, replicas.clone());
        for n in 0..12 {
            assert_eq!(m.is_local_to(NodeId(n)), replicas.contains(&NodeId(n)));
        }
    }

    #[test]
    fn locality_tier_prefers_closest_replica() {
        // Racks (round-robin over 2): replicas on node 0 (rack 0) and
        // node 3 (rack 1).
        let t = Topology::racked(2, 1.0);
        let m = BlockMeta::new(BlockId(0), 1, vec![NodeId(0), NodeId(3)]);
        assert_eq!(m.locality_tier(NodeId(0), &t), LocalityTier::NodeLocal);
        assert_eq!(m.locality_tier(NodeId(3), &t), LocalityTier::NodeLocal);
        assert_eq!(m.locality_tier(NodeId(2), &t), LocalityTier::RackLocal);
        assert_eq!(m.locality_tier(NodeId(5), &t), LocalityTier::RackLocal);
        // A single-replica block in rack 0 is off-rack from rack 1.
        let m = BlockMeta::new(BlockId(1), 1, vec![NodeId(0)]);
        assert_eq!(m.locality_tier(NodeId(1), &t), LocalityTier::OffRack);
    }
}
