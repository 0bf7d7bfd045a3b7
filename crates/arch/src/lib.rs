//! Big/little core architecture models for `hhsim`.
//!
//! This crate models the two server platforms characterized in Malik et al.,
//! *Big vs little core for energy-efficient Hadoop computing*:
//!
//! * **Intel Xeon E5-2420** — the "big" core: 4-wide out-of-order
//!   Sandy Bridge with a three-level cache hierarchy (Table 1 of the paper);
//! * **Intel Atom C2758** — the "little" core: 2-wide in-order Silvermont
//!   with a two-level hierarchy.
//!
//! The model has four cooperating parts:
//!
//! * [`cache`] — a functional, trace-driven set-associative cache hierarchy
//!   simulator (LRU replacement) that turns an address stream into per-level
//!   miss rates;
//! * [`trace`] — a deterministic synthetic address-trace generator driven by
//!   per-application [`MemoryProfile`]s (working-set size, locality,
//!   stride/random mix);
//! * [`corem`] — an analytical in-order/out-of-order core model combining
//!   issue width, application ILP and memory stalls into effective IPC and
//!   execution time;
//! * [`power`]/[`dvfs`] — a CV²f + leakage power model over the four
//!   operating points used in the paper (1.2, 1.4, 1.6, 1.8 GHz).
//!
//! [`presets`] instantiates both machines exactly per Table 1.
//!
//! # Examples
//!
//! ```
//! use hhsim_arch::{presets, profile::ComputeProfile, Frequency};
//!
//! let xeon = presets::xeon_e5_2420();
//! let atom = presets::atom_c2758();
//! let hadoop = ComputeProfile::hadoop_average();
//! let f = Frequency::GHZ_1_8;
//! let ipc_big = xeon.effective_ipc(&hadoop, f);
//! let ipc_little = atom.effective_ipc(&hadoop, f);
//! assert!(ipc_big > ipc_little, "the 4-wide OoO core sustains higher IPC");
//! ```

pub mod cache;
pub mod corem;
pub mod dvfs;
pub mod power;
pub mod presets;
pub mod profile;
pub mod trace;

pub use cache::{Cache, CacheConfig, CacheHierarchy, HierarchyStats, LevelStats};
pub use corem::{CoreKind, CoreModel, MachineModel, StallBatch, StallKey, TraceKey};
pub use dvfs::{Frequency, OperatingPoint, VoltageCurve};
pub use power::{ChipPowerModel, PowerBreakdown};
pub use profile::{ComputeProfile, MemoryProfile};
pub use trace::TraceGenerator;
