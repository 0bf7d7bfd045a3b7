//! Simulated HDFS for `hhsim`.
//!
//! A functional, in-memory distributed filesystem with the pieces of HDFS
//! that matter to the paper's experiments:
//!
//! * **real block splitting** — files written through [`Dfs`] are split
//!   into [`BlockSize`]-sized blocks (the paper sweeps 32–512 MB), because
//!   `number of map tasks = input size / HDFS block size` (§3.1.1) drives
//!   every block-size result;
//! * **placement & replication** — a [`NameNode`] places replicas through
//!   a pluggable [`ReplicaPlacement`] policy: the legacy [`RoundRobin`]
//!   rotation (the default) or [`HdfsDefault`], the real HDFS policy
//!   (writer-local first replica, second on a different rack, third on
//!   the second's rack), so task locality can be computed;
//! * **rack topology** — a [`Topology`] (node → ToR switch → core with
//!   per-tier bandwidth and oversubscription) classifies every read as
//!   node-local, rack-local or off-rack ([`LocalityTier`]), and the
//!   namenode answers rack-aware locality queries against it;
//! * **a disk timing model** — [`DiskModel`] charges a seek per sequential
//!   chunk plus bandwidth-proportional transfer time, which is what makes
//!   large blocks cheaper per byte to scan.
//!
//! Data is stored for real (as [`bytes::Bytes`] slices), so the MapReduce
//! engine on top executes genuine jobs over genuine bytes.
//!
//! # Examples
//!
//! ```
//! use hhsim_hdfs::{BlockSize, Dfs, DfsConfig};
//! use bytes::Bytes;
//!
//! let mut dfs = Dfs::new(DfsConfig {
//!     block_size: BlockSize::MB_64,
//!     replication: 2,
//!     num_nodes: 3,
//! })?;
//! dfs.create("/data/input.txt", Bytes::from(vec![7u8; 200 << 20]))?;
//! assert_eq!(dfs.blocks("/data/input.txt")?.len(), 4); // ceil(200/64)
//! # Ok::<(), hhsim_hdfs::DfsError>(())
//! ```

// Every lossy `as` cast in shipped code names why it cannot lose bits,
// in an `#[expect]` at the site (test code is exempt).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

mod block;
mod dfs;
mod disk;
mod placement;
mod topology;

pub use block::{BlockId, BlockMeta, BlockSize, NodeId};
pub use dfs::{Dfs, DfsConfig, DfsError, FileMeta, NameNode};
pub use disk::DiskModel;
pub use placement::{HdfsDefault, PlacementRequest, ReplicaPlacement, RoundRobin};
pub use topology::{LocalityTier, Topology, GIGE_BYTES_PER_S};
