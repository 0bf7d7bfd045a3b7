//! The node/cluster timing and energy model.
//!
//! For a given (application, machine, frequency, block size, data size,
//! core count) this module prices every component the paper discusses:
//!
//! * **compute** — instructions per byte × CPI from the trace-driven cache
//!   simulation (per phase profile, per machine, per DVFS point);
//! * **I/O path CPU** — kernel/copy/serialization instructions charged per
//!   I/O byte; this is how a wimpy core becomes CPU-bound on I/O-heavy
//!   work even though the disks are identical;
//! * **disk** — seek+bandwidth per block read, spill writes, multi-pass
//!   merges (spill counts recomputed analytically at target scale), with
//!   slot contention on the node's disk;
//! * **network** — cross-node shuffle at NIC bandwidth;
//! * **overlap** — the out-of-order core hides a large fraction of I/O
//!   wait behind computation (§3.1.1), the in-order core does not;
//! * **framework overhead** — per-task launch plus serial master↔slave
//!   bookkeeping (what makes 32 MB blocks slow), and per-job
//!   setup/cleanup (what makes Grep's "others" phase big). A launch on
//!   the little core costs 1.8× its CPI-priced instructions: JVM
//!   spin-up is branchy, serial, cache-hostile code.
//!
//! Every run goes through one pipeline. A [`SimConfig`] resolves to a
//! node roster — the paper's 3-node single-ISA cluster is the roster with
//! one kind absent, a [`NodeMix`] the §3.5 study with big and little
//! nodes side by side; `ClusterPrep` prices the tasks once per kind the
//! roster has; the event-driven cluster engine ([`crate::cluster`]) places
//! them on first-class nodes, where they drain in waves and every task
//! leaves a trace span; and a meter turns the phase runs into power and
//! energy. There is one door into it, [`SimConfig::run`]: it checks the
//! config against the contract ([`ConfigError`]) before anything is
//! priced, and its [`Reading`] picks the meter:
//!
//! * the **phase-average** meter reads one power level per phase (the
//!   slots the waves fill on average) on the one machine model and
//!   multiplies by the node count — one node's Wattsup trace standing for
//!   the cluster, as the paper reports its homogeneous runs.
//!   [`Reading::Auto`] ([`simulate`], the sweep harness) reads every plain
//!   homogeneous point with it, so the paper's tables and Figs. 1–17 are
//!   built on it; it alone models the §3.4 accelerator offload;
//! * the **per-node** meter samples each node's *time-resolved* slot
//!   occupancy through that node's own power model: an idle node draws
//!   idle power, a straggling wave shows. [`Reading::PerNode`] and
//!   [`Reading::Traced`], the replication engine and every point with a
//!   [`NodeMix`], active faults or an active topology read it — there a
//!   phase has no one power level.
//!
//! Both read the same run and decide only the five energy fields of its
//! [`Measurement`] (`energy_j`, `exact_energy_j`, `cost`, `map_cost`,
//! `reduce_cost`); they disagree on those — the per-node meter reads a
//! homogeneous run 8–33 % lower in EDP — so a comparison must keep to one
//! of them.

mod config;
mod contract;
mod prep;
mod run;
#[cfg(test)]
mod tests;
mod timing;

pub use config::{
    job_class, Measurement, NodeMix, PlacementKind, SimConfig, MICRO_DATA, REAL_DATA,
};
pub(crate) use contract::{check_split, Validated};
pub use contract::{ConfigError, Reading, SimError};
pub(crate) use prep::{priced_profiles, ClusterPrep};
pub use run::simulate;
pub(crate) use run::{recovered, Meter, RunScratch};
