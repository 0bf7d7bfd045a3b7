//! Block-level types: sizes, identifiers and placement metadata.

use std::fmt;

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Block identifier.
    pub id: BlockId,
    /// Block length in bytes (the last block of a file may be short).
    pub len: u64,
    /// Nodes holding a replica, in placement order.
    replicas: Vec<NodeId>,
}

impl BlockMeta {
    /// A placement record; `replicas` is in placement order (primary
    /// first).
    pub fn new(id: BlockId, len: u64, replicas: Vec<NodeId>) -> Self {
        BlockMeta { id, len, replicas }
    }

    /// Nodes holding a replica, in placement order (primary first: for
    /// HDFS-default placement, the writer's copy).
    pub fn replicas(&self) -> &[NodeId] {
        &self.replicas
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
    fn locality_tier_prefers_closest_replica() {
        use crate::topology::{LocalityTier, Topology};
        // Racks (round-robin over 2): replicas on node 0 (rack 0) and
        // node 3 (rack 1), kept in placement order.
        let t = Topology::racked(2, 1.0);
        let m = BlockMeta::new(BlockId(0), 1, vec![NodeId(3), NodeId(0)]);
        assert_eq!(m.replicas(), &[NodeId(3), NodeId(0)]);
        let tier = |m: &BlockMeta, n| t.tier(NodeId(n), m.replicas());
        assert_eq!(tier(&m, 0), LocalityTier::NodeLocal);
        assert_eq!(tier(&m, 3), LocalityTier::NodeLocal);
        assert_eq!(tier(&m, 2), LocalityTier::RackLocal);
        assert_eq!(tier(&m, 5), LocalityTier::RackLocal);
        // A single-replica block in rack 0 is off-rack from rack 1.
        let m = BlockMeta::new(BlockId(1), 1, vec![NodeId(0)]);
        assert_eq!(tier(&m, 1), LocalityTier::OffRack);
    }
}
