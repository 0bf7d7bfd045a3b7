//! The config contract: what a [`SimConfig`] must hold before anything
//! prices it, the typed errors a run ends in instead, and [`Validated`],
//! the only way into `ClusterPrep::new`.

use std::fmt;

use hhsim_accel::AccelConfig;
use hhsim_arch::{ComputeProfile, MachineModel};
use hhsim_faults::{FaultConfig, PhaseError};
use hhsim_hdfs::Topology;

use super::config::SimConfig;
use super::run::Meter;

/// How [`SimConfig::run`] reads a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reading {
    /// The config's own meter: the phase average for a plain homogeneous
    /// point, per node as soon as a phase has no single power level (a
    /// mix, active faults, an active topology). What
    /// [`simulate`](super::simulate) and the sweep harness read.
    Auto,
    /// The per-node meter whatever the config's shape: the homogeneous
    /// baselines a mix is set against.
    PerNode,
    /// [`Reading::PerNode`] plus the run's
    /// [`ClusterTimeline`](crate::cluster::ClusterTimeline).
    Traced,
}

/// Why a [`SimConfig`] cannot be run. DESIGN.md's "Config contract"
/// table says, per variant, which field it names and what the model did
/// with that field before it was checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The roster has no node: `nodes` is 0, or a `NodeMix` has neither
    /// side.
    NoNodes,
    /// `data_per_node_bytes` is 0.
    NoData,
    /// The run does not fit its counters: input bytes over all nodes
    /// overflow `u64`, or the nodes, slots or map tasks overflow the
    /// engine's `u32` columns.
    TooLarge,
    /// A machine on the roster has no cores.
    NoCores,
    /// `mappers_per_node` is `Some(0)`.
    NoSlots,
    /// An accelerator is configured on a run the per-node meter reads:
    /// offload is only modeled by the phase-average meter.
    AccelNeedsPhaseAverage,
    /// A numeric field is NaN, infinite or outside its domain.
    OutOfRange {
        /// The field's path from the `SimConfig`, e.g.
        /// `"faults.node_mttf_s"`, or from a split declared into a plan:
        /// `"machine.cache_levels"`, `"machine.mem_latency_ns"` or
        /// `"profile.mem"`.
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => f.write_str("the cluster has no nodes"),
            ConfigError::NoData => f.write_str("there is no input data"),
            ConfigError::TooLarge => {
                f.write_str("the input, nodes, slots or map tasks exceed the model's counters")
            }
            ConfigError::NoCores => f.write_str("a machine has no cores"),
            ConfigError::NoSlots => f.write_str("mappers_per_node is 0"),
            ConfigError::AccelNeedsPhaseAverage => f.write_str(
                "accelerator offload is only modeled by the phase-average meter \
                 (no mix, no active faults or topology, Reading::Auto)",
            ),
            ConfigError::OutOfRange { field } => write!(f, "{field} is out of range"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why [`SimConfig::run`] returned no measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The config breaks the contract; nothing was priced.
    Config(ConfigError),
    /// Fault injection made a phase unrecoverable — Hadoop's "job
    /// failed".
    Unrecoverable(PhaseError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid config: {e}"),
            SimError::Unrecoverable(e) => write!(f, "unrecoverable run: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Unrecoverable(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<PhaseError> for SimError {
    fn from(e: PhaseError) -> Self {
        SimError::Unrecoverable(e)
    }
}

/// A config that holds the contract, with the meter that reads it. Only
/// [`SimConfig::validate`] builds one, and `ClusterPrep::new` takes
/// nothing else, so no path prices an unchecked config.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Validated<'a> {
    cfg: &'a SimConfig,
    meter: Meter,
}

impl<'a> Validated<'a> {
    /// The config.
    pub(crate) fn cfg(&self) -> &'a SimConfig {
        self.cfg
    }

    /// The meter `reading` resolved to.
    pub(crate) fn meter(&self) -> Meter {
        self.meter
    }
}

/// The first field whose check failed, as [`ConfigError::OutOfRange`].
fn in_range(checks: &[(bool, &'static str)]) -> Result<(), ConfigError> {
    match checks.iter().find(|(ok, _)| !ok) {
        Some(&(_, field)) => Err(ConfigError::OutOfRange { field }),
        None => Ok(()),
    }
}

/// Finite and at least `lo` (NaN is neither).
fn at_least(x: f64, lo: f64) -> bool {
    x.is_finite() && x >= lo
}

/// Finite and above zero.
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// A probability.
fn unit(x: f64) -> bool {
    (0.0..=1.0).contains(&x)
}

/// A mean time to failure: absent, or finite and above zero.
fn mttf(x: Option<f64>) -> bool {
    x.map_or(true, positive)
}

/// Whether `n` fits an engine `u32` column, whose `u32::MAX` means none.
fn fits_u32<T: TryInto<u32>>(n: T) -> bool {
    n.try_into().is_ok_and(|v: u32| v != u32::MAX)
}

/// What a stall simulation reads of a machine: levels a `Cache` can
/// simulate, and a DRAM latency.
fn check_hierarchy(m: &MachineModel) -> Result<(), ConfigError> {
    let levels = &m.cache_levels;
    in_range(&[
        (
            !levels.is_empty() && levels.iter().all(|c| c.check().is_ok()),
            "machine.cache_levels",
        ),
        (positive(m.mem_latency_ns), "machine.mem_latency_ns"),
    ])
}

/// The contract of a stall split declared on its own
/// ([`Plan::split`](crate::harness::Plan::split)): the machine's cache
/// levels and DRAM latency, checked as [`SimConfig::validate`] checks a
/// roster's, and the profile's memory behaviour
/// ([`MemoryProfile::validate`](hhsim_arch::MemoryProfile::validate)),
/// named `profile.mem`. Allocates nothing when it holds.
pub(crate) fn check_split(m: &MachineModel, profile: &ComputeProfile) -> Result<(), ConfigError> {
    check_hierarchy(m)?;
    in_range(&[(profile.mem.validate().is_ok(), "profile.mem")])
}

fn check_faults(fc: &FaultConfig) -> Result<(), ConfigError> {
    let (r, d) = (&fc.recovery, &fc.domains);
    in_range(&[
        (unit(fc.map_failure_rate), "faults.map_failure_rate"),
        (unit(fc.reduce_failure_rate), "faults.reduce_failure_rate"),
        (mttf(fc.node_mttf_s), "faults.node_mttf_s"),
        (unit(fc.straggler_rate), "faults.straggler_rate"),
        (
            at_least(fc.straggler_slowdown, 1.0),
            "faults.straggler_slowdown",
        ),
        (
            at_least(r.backoff_base_s, 0.0),
            "faults.recovery.backoff_base_s",
        ),
        (
            at_least(r.spec_rate_threshold, 0.0),
            "faults.recovery.spec_rate_threshold",
        ),
        (
            at_least(r.spec_min_runtime_s, 0.0),
            "faults.recovery.spec_min_runtime_s",
        ),
        (mttf(d.switch_mttf_s), "faults.domains.switch_mttf_s"),
        (mttf(d.link_mttf_s), "faults.domains.link_mttf_s"),
        (at_least(d.link_factor, 1.0), "faults.domains.link_factor"),
        (
            at_least(d.link_window_s, 0.0),
            "faults.domains.link_window_s",
        ),
    ])
}

fn check_topology(t: &Topology) -> Result<(), ConfigError> {
    in_range(&[
        (t.racks > 0, "topology.racks"),
        (positive(t.node_bytes_per_s), "topology.node_bytes_per_s"),
        (positive(t.core_bytes_per_s), "topology.core_bytes_per_s"),
        (
            at_least(t.oversubscription, 1.0),
            "topology.oversubscription",
        ),
    ])
}

fn check_accel(a: &AccelConfig) -> Result<(), ConfigError> {
    in_range(&[
        (at_least(a.rate, 1.0), "accel.rate"),
        (unit(a.cpu_residue), "accel.cpu_residue"),
        (positive(a.link_bytes_per_s), "accel.link_bytes_per_s"),
    ])
}

impl SimConfig {
    /// Checks the contract for a run read by `reading` and resolves the
    /// meter. Every field is checked whether or not the knob it belongs
    /// to is active: an inactive fault config or topology with a NaN in it
    /// is an error, not a fault-free run. Allocates nothing.
    pub(crate) fn validate(&self, reading: Reading) -> Result<Validated<'_>, ConfigError> {
        let meter = match reading {
            Reading::Auto => self.meter(),
            Reading::PerNode | Reading::Traced => Meter::PerNode,
        };
        let roster = self.roster();
        let mut nodes = 0usize;
        let mut slots = 0usize;
        for (m, n) in std::iter::once(roster.lead).chain(roster.other) {
            if m.num_cores == 0 {
                return Err(ConfigError::NoCores);
            }
            in_range(&[(positive(m.memory_gb), "machine.memory_gb")])?;
            check_hierarchy(m)?;
            let per_node = self.mappers_per_node.unwrap_or(m.num_cores);
            if per_node == 0 {
                return Err(ConfigError::NoSlots);
            }
            let kind_slots = n.checked_mul(per_node).ok_or(ConfigError::TooLarge)?;
            nodes = nodes.checked_add(n).ok_or(ConfigError::TooLarge)?;
            slots = slots.checked_add(kind_slots).ok_or(ConfigError::TooLarge)?;
        }
        if nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.data_per_node_bytes == 0 {
            return Err(ConfigError::NoData);
        }
        // The first job reads all the input and a chained job no more, so
        // the first job's map tasks bound every job's.
        let map_tasks = (u64::try_from(nodes).ok())
            .and_then(|n| self.data_per_node_bytes.checked_mul(n))
            .map(|total| total.div_ceil(self.block_size.bytes()));
        if !(fits_u32(nodes) && fits_u32(slots) && map_tasks.is_some_and(fits_u32)) {
            return Err(ConfigError::TooLarge);
        }
        if self.accel.is_some() && meter == Meter::PerNode {
            return Err(ConfigError::AccelNeedsPhaseAverage);
        }
        in_range(&[
            (self.job.sort_buffer_bytes > 0, "job.sort_buffer_bytes"),
            (self.job.merge_factor >= 2, "job.merge_factor"),
        ])?;
        self.accel.as_ref().map_or(Ok(()), check_accel)?;
        self.faults.as_ref().map_or(Ok(()), check_faults)?;
        self.topology.as_ref().map_or(Ok(()), check_topology)?;
        // The fault layer puts node `n` in domain `n % domains.racks`, and
        // placement, locality and the shuffle put it in rack
        // `n % topology.racks`: on an active fabric the two must agree, or
        // a switch crash takes down nodes of several fabric racks.
        if let (Some(fc), Some(t)) = (&self.faults, &self.topology) {
            let racks = fc.domains.racks;
            in_range(&[(
                racks == 0 || !t.active() || racks == t.racks,
                "faults.domains.racks",
            )])?;
        }
        Ok(Validated { cfg: self, meter })
    }
}
