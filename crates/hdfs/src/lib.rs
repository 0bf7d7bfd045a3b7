//! Simulated HDFS for `hhsim`: the pieces of HDFS that matter to the
//! paper's experiments, as metadata and timing models — no payload is
//! stored.
//!
//! * **block splitting** — [`BlockSize`] (the paper sweeps 32–512 MB)
//!   fixes how many blocks a file has, because `number of map tasks =
//!   input size / HDFS block size` (§3.1.1) drives every block-size result;
//! * **replica placement** — [`HdfsDefault`] is the real HDFS policy
//!   (writer-local first replica, second on a different rack, third on
//!   the second's rack), and [`Dfs`] records where it puts each block of
//!   each file, so task locality can be computed;
//! * **rack topology** — a [`Topology`] (node → ToR switch → core with
//!   per-tier bandwidth and oversubscription) classifies every read as
//!   node-local, rack-local or off-rack ([`LocalityTier`]) and prices it;
//! * **a disk timing model** — [`DiskModel`] charges a seek per sequential
//!   chunk plus bandwidth-proportional transfer time, which is what makes
//!   large blocks cheaper per byte to scan.
//!
//! # Examples
//!
//! ```
//! use hhsim_hdfs::{BlockId, BlockSize, HdfsDefault, NodeId, PlacementRequest, Topology};
//!
//! // Number of map tasks = ceil(input / block size).
//! assert_eq!(BlockSize::MB_64.blocks_for(200 << 20), 4);
//! let topology = Topology::racked(2, 1.0);
//! let replicas = HdfsDefault::new(7).place(
//!     &PlacementRequest {
//!         block: BlockId(0),
//!         writer: Some(NodeId(2)),
//!         replication: 3,
//!         num_nodes: 6,
//!     },
//!     &topology,
//! );
//! assert_eq!(replicas[0], NodeId(2)); // the writer's copy
//! assert!(!topology.same_rack(replicas[0], replicas[1]));
//! assert!(topology.same_rack(replicas[1], replicas[2]));
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
pub use dfs::{Dfs, DfsConfig, DfsError};
pub use disk::DiskModel;
pub use placement::{HdfsDefault, PlacementRequest};
pub use topology::{LocalityTier, Topology, GIGE_BYTES_PER_S};
