//! `hhsim-core` — the experiment harness reproducing Malik et al.,
//! *Big vs little core for energy-efficient Hadoop computing* (DATE'17 /
//! JPDC'18), end to end in simulation.
//!
//! The crate composes the substrates into the paper's measurement loop:
//!
//! 1. each application executes **functionally** on the MapReduce engine
//!    ([`hhsim_workloads`]) to extract scale-invariant dataflow ratios
//!    ([`ratios::AppRatios`]);
//! 2. the **node timing model** ([`model`]) prices map/reduce/others
//!    phases on a concrete machine (core + cache simulation via
//!    [`hhsim_arch`], disk via [`hhsim_hdfs`]), at a DVFS point and HDFS
//!    block size;
//! 3. the **cluster simulator** ([`cluster`]) schedules the task graph on
//!    map/reduce slots with the discrete-event kernel to get wall-clock
//!    phase times;
//! 4. the **simulated power meter** ([`hhsim_energy`]) samples the power
//!    trace, subtracts idle, and yields energy and ED^xP / ED^xAP costs;
//! 5. [`figures`] regenerates every table and figure of the paper, and
//!    [`calibration`] records the published numbers next to ours.
//!
//! # Examples
//!
//! ```
//! use hhsim_core::{simulate, SimConfig};
//! use hhsim_core::arch::{presets, Frequency};
//! use hhsim_core::hdfs::BlockSize;
//! use hhsim_core::workloads::AppId;
//!
//! let xeon = simulate(&SimConfig::new(AppId::WordCount, presets::xeon_e5_2420())
//!     .frequency(Frequency::GHZ_1_8)
//!     .block_size(BlockSize::MB_256));
//! let atom = simulate(&SimConfig::new(AppId::WordCount, presets::atom_c2758())
//!     .frequency(Frequency::GHZ_1_8)
//!     .block_size(BlockSize::MB_256));
//! assert!(xeon.breakdown.total() < atom.breakdown.total(), "big core is faster");
//! assert!(xeon.cost.edp() > atom.cost.edp(), "little core wins WordCount EDP");
//! ```

// Every lossy `as` cast in shipped code names why it cannot lose bits,
// in an `#[expect]` at the site (test code is exempt).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod calibration;
pub mod cluster;
pub mod figures;
pub mod harness;
pub mod model;
pub mod ratios;
pub mod report;
pub mod shuffle;
pub mod simcache;

pub use cluster::{
    attempt_jitter, placement_probes, reset_placement_probes, run_phase, run_phase_faulty,
    run_phase_faulty_fetch, Cluster, ClusterTimeline, FetchPlan, FifoAnySlot, FreeSlots,
    KindPreferring, Node, NodeTiming, PhaseLoad, PhaseRun, Placement, SlotStats, TaskSet, TaskSpan,
};
pub use harness::{
    run_grid_on, run_grid_with, set_jobs, Aggregate, HarnessSnapshot, Plan, ReplicationPlan,
    ReplicationSummary,
};
pub use model::{
    job_class, simulate, ConfigError, Measurement, NodeMix, PlacementKind, Reading, SimConfig,
    SimError,
};
pub use ratios::AppRatios;
pub use report::{FigureData, Key, Row};
pub use shuffle::{flow_finish_times, reduce_fetch_seconds, Flow};
pub use simcache::{CacheStats, SimCache};

// Substrate re-exports: `hhsim_core` is the facade downstream users take.
pub use hhsim_accel as accel;
pub use hhsim_arch as arch;
pub use hhsim_des as des;
pub use hhsim_energy as energy;
pub use hhsim_faults as faults;
pub use hhsim_hdfs as hdfs;
pub use hhsim_mapreduce as mapreduce;
pub use hhsim_sched as sched;
pub use hhsim_workloads as workloads;
