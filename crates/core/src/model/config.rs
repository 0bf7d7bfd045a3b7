//! What a run is configured with and what it measures: [`SimConfig`], the
//! node roster it resolves to, and [`Measurement`].

use std::sync::OnceLock;

use hhsim_accel::AccelConfig;
use hhsim_arch::{presets, Frequency, MachineModel};
use hhsim_energy::{CostMetrics, MetricKind};
use hhsim_faults::{FaultConfig, FaultStats};
use hhsim_hdfs::{BlockSize, Topology};
use hhsim_mapreduce::{JobConfig, PhaseBreakdown};
use hhsim_sched::JobClass;
use hhsim_workloads::{AppClass, AppId};

use super::run::Meter;
use crate::cluster::SlotStats;

/// Placement policy selector for a mixed-cluster run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementKind {
    /// First free slot in node order — the baseline scheduler.
    FifoAny,
    /// The paper's §3.5 class-driven procedure optimizing the given goal
    /// ([`hhsim_sched::paper_schedule`] via [`KindPreferring`](crate::cluster::KindPreferring)).
    PaperClass(MetricKind),
}

/// An explicit heterogeneous cluster composition: `big` Xeon nodes plus
/// `little` Atom nodes (presets at the config's DVFS point). When set, it
/// replaces `SimConfig::nodes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeMix {
    /// Number of big (Xeon) nodes.
    pub big: usize,
    /// Number of little (Atom) nodes.
    pub little: usize,
    /// How tasks pick nodes.
    pub placement: PlacementKind,
}

/// One experiment point.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Application under test.
    pub app: AppId,
    /// Machine model (Xeon or Atom preset, possibly modified).
    pub machine: MachineModel,
    /// DVFS operating frequency.
    pub frequency: Frequency,
    /// HDFS block size.
    pub block_size: BlockSize,
    /// Input data per node, bytes (paper: 1 GB micro / 10 GB real world,
    /// swept to 20 GB in §3.3).
    pub data_per_node_bytes: u64,
    /// Cluster size (paper: 3 nodes).
    pub nodes: usize,
    /// Map slots per node; `None` = all cores of the machine. The paper's
    /// Table 3 sets mappers = cores and sweeps 2–8.
    pub mappers_per_node: Option<usize>,
    /// Engine knobs (sort buffer, merge factor).
    pub job: JobConfig,
    /// Optional FPGA offload of the map phase (§3.4).
    pub accel: Option<AccelConfig>,
    /// Optional heterogeneous node mix (§3.5). `None` = homogeneous
    /// cluster of `machine`.
    pub node_mix: Option<NodeMix>,
    /// Optional deterministic fault injection. `None` or an inactive
    /// config ([`FaultConfig::none`]) leaves every fault-free result
    /// bit-identical; an active config routes the run through the
    /// fault-aware cluster engine.
    pub faults: Option<FaultConfig>,
    /// Optional two-tier rack fabric (node → ToR → core). `None` or an
    /// inactive topology ([`Topology::flat`]) leaves every result
    /// bit-identical to the flat network; an active topology routes the
    /// run through the cluster engine with HDFS-default map placement
    /// (locality tiers priced per task) and flow-fair contended shuffle.
    pub topology: Option<Topology>,
}

/// Per-node data size used for micro-benchmarks (1 GB, §3).
pub const MICRO_DATA: u64 = 1 << 30;
/// Per-node data size used for real-world applications (10 GB, §3).
pub const REAL_DATA: u64 = 10 << 30;

impl SimConfig {
    /// A paper-default configuration: 3 nodes, [`MICRO_DATA`] per node for
    /// micro-benchmarks or [`REAL_DATA`] for real-world applications,
    /// 512 MB blocks, 1.8 GHz.
    pub fn new(app: AppId, machine: MachineModel) -> Self {
        let data = if app.is_real_world() {
            REAL_DATA
        } else {
            MICRO_DATA
        };
        SimConfig {
            app,
            machine,
            frequency: Frequency::GHZ_1_8,
            block_size: BlockSize::MB_512,
            data_per_node_bytes: data,
            nodes: 3,
            mappers_per_node: None,
            job: JobConfig::default(),
            accel: None,
            node_mix: None,
            faults: None,
            topology: None,
        }
    }

    /// Sets the DVFS point.
    pub fn frequency(mut self, f: Frequency) -> Self {
        self.frequency = f;
        self
    }

    /// Sets the HDFS block size.
    pub fn block_size(mut self, b: BlockSize) -> Self {
        self.block_size = b;
        self
    }

    /// Sets the per-node input size in bytes.
    pub fn data_per_node(mut self, bytes: u64) -> Self {
        self.data_per_node_bytes = bytes;
        self
    }

    /// Sets map slots per node (the scheduling study's M).
    pub fn mappers(mut self, m: usize) -> Self {
        self.mappers_per_node = Some(m);
        self
    }

    /// Installs a map-phase accelerator.
    pub fn accelerator(mut self, a: AccelConfig) -> Self {
        self.accel = Some(a);
        self
    }

    /// Replaces the homogeneous cluster with a big+little mix.
    pub fn mix(mut self, mix: NodeMix) -> Self {
        self.node_mix = Some(mix);
        self
    }

    /// Injects deterministic faults (task failures, node crashes,
    /// stragglers) with Hadoop-style recovery.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Installs a rack fabric (racks, per-tier bandwidth, ToR uplink
    /// oversubscription).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// The fault config, if it would actually inject anything.
    pub(super) fn active_faults(&self) -> Option<FaultConfig> {
        self.faults.filter(FaultConfig::active)
    }

    /// The topology, if it would actually change anything.
    pub(super) fn active_topology(&self) -> Option<Topology> {
        self.topology.filter(Topology::active)
    }

    /// The meter [`Reading::Auto`](super::Reading::Auto) reads this point with:
    /// per node as soon as a phase has no single power level (a mix,
    /// faults or a rack fabric), else the paper's phase average.
    pub(super) fn meter(&self) -> Meter {
        if self.node_mix.is_some()
            || self.active_faults().is_some()
            || self.active_topology().is_some()
        {
            Meter::PerNode
        } else {
            Meter::PhaseAverage
        }
    }

    /// The nodes this point runs on. Pricing looks up stall splits for
    /// exactly these machines, and the harness's fill stage enumerates
    /// its memo keys from the same call.
    pub(crate) fn roster(&self) -> Roster<'_> {
        let Some(mix) = self.node_mix else {
            return Roster {
                lead: (&self.machine, self.nodes),
                other: None,
                placement: PlacementKind::FifoAny,
            };
        };
        let [xeon, atom] = mix_presets();
        let (lead, other) = if mix.big > 0 {
            (
                (xeon, mix.big),
                (mix.little > 0).then_some((atom, mix.little)),
            )
        } else {
            ((atom, mix.little), None)
        };
        Roster {
            lead,
            other,
            placement: mix.placement,
        }
    }
}

/// The machines and node counts a [`SimConfig`] resolves to. A kind
/// without nodes — the other kind of a homogeneous cluster, the zero side
/// of a [`NodeMix`] — is not in it, so nothing builds, clones or prices a
/// machine model for it.
pub(crate) struct Roster<'a> {
    /// Machine and count of the first nodes in node order: the big ones
    /// when there are any. The master runs on one of them.
    pub lead: (&'a MachineModel, usize),
    /// The little nodes behind the big ones, on a roster with both.
    pub other: Option<(&'a MachineModel, usize)>,
    /// How tasks pick nodes.
    pub placement: PlacementKind,
}

/// The Xeon and Atom presets every [`NodeMix`] is made of, big first.
fn mix_presets() -> &'static [MachineModel; 2] {
    static PRESETS: OnceLock<[MachineModel; 2]> = OnceLock::new();
    PRESETS.get_or_init(presets::both)
}

/// Everything measured for one experiment point: what the results read.
/// The meter decides the five energy fields — `energy_j`,
/// `exact_energy_j`, `cost`, `map_cost` and `reduce_cost` — and nothing
/// else; the other five come from the engine and read the same under
/// either meter. (A §3.4 offload, which only the phase-average meter
/// reads, shortens `breakdown`'s map time.)
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Wall-clock phase breakdown.
    pub breakdown: PhaseBreakdown,
    /// Map-phase slot admission counters from the cluster engine
    /// (queueing delay, peak occupancy), summed over chained jobs.
    pub map_slots: SlotStats,
    /// Reduce-phase slot admission counters.
    pub reduce_slots: SlotStats,
    /// Fault and recovery counters over all phases (all zero without
    /// fault injection).
    pub faults: FaultStats,
    /// Map tasks per locality tier `[node-local, rack-local, off-rack]`
    /// over all jobs. Without an active topology every map read is
    /// node-local, so it reads `[n_map, 0, 0]`.
    pub map_locality_tiers: [u64; 3],
    /// Total dynamic energy over all nodes, joules — the 1 Hz metered
    /// estimate the paper's methodology (and every checked-in figure)
    /// is built on.
    pub energy_j: f64,
    /// Exact event-driven dynamic energy over all nodes, joules: the
    /// piecewise integral of each node's power step function, free of
    /// 1 Hz sampling error. New analyses (fig. 20, the replication
    /// engine) consume this; `energy_j` stays the metered view for
    /// golden-artifact stability.
    pub exact_energy_j: f64,
    /// Whole-application cost metrics (energy, delay, engaged area).
    pub cost: CostMetrics,
    /// Map-phase-only cost metrics.
    pub map_cost: CostMetrics,
    /// Reduce-phase-only cost metrics.
    pub reduce_cost: CostMetrics,
}

/// The scheduler-facing class of an application ([`AppClass`] mapped onto
/// [`hhsim_sched`]'s vocabulary).
pub fn job_class(app: AppId) -> JobClass {
    match app.class() {
        AppClass::Compute => JobClass::Compute,
        AppClass::Io => JobClass::Io,
        AppClass::Hybrid => JobClass::Hybrid,
    }
}
