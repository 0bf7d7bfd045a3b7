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
//! * **memory pressure** — when a node's working footprint outgrows its
//!   8 GB of DRAM, page-cache effectiveness collapses and I/O inflates;
//!   the big core's deeper buffering absorbs this far better (§3.3);
//! * **overlap** — the out-of-order core hides a large fraction of I/O
//!   wait behind computation (§3.1.1), the in-order core does not;
//! * **framework overhead** — per-task launch plus serial master↔slave
//!   bookkeeping (what makes 32 MB blocks slow), and per-job
//!   setup/cleanup (what makes Grep's "others" phase big).
//!
//! Every run goes through one pipeline. A [`SimConfig`] resolves to a
//! node roster — the paper's 3-node single-ISA cluster is the roster with
//! one kind absent, a [`NodeMix`] the §3.5 study with big and little
//! nodes side by side; `ClusterPrep` prices the tasks once per kind the
//! roster has; the event-driven cluster engine ([`crate::cluster`]) places
//! them on first-class nodes, where they drain in waves and every task
//! leaves a trace span; and a meter turns the phase runs into power and
//! energy. Only the meter differs between entry points:
//!
//! * the **phase-average** meter reads one power level per phase (the
//!   slots the waves fill on average) on the one machine model and
//!   multiplies by the node count — one node's Wattsup trace standing for
//!   the cluster, as the paper reports its homogeneous runs. [`simulate`]
//!   and the sweep harness read every plain homogeneous point with it, so
//!   the paper's tables and Figs. 1–17 are built on it; it alone models
//!   the §3.4 accelerator offload;
//! * the **per-node** meter samples each node's *time-resolved* slot
//!   occupancy through that node's own power model: an idle node draws
//!   idle power, a straggling wave shows. [`simulate_cluster`], the
//!   replication engine and every point with a [`NodeMix`], active faults
//!   or an active topology read it — there a phase has no one power level.
//!
//! Both read the same run (equal phase breakdown, slot counters and IPC)
//! and disagree on its energy — the per-node meter reads a homogeneous
//! run 8–33 % lower in EDP — so a comparison must keep to one of them.

use std::borrow::Cow;
use std::sync::OnceLock;

use hhsim_accel::AccelConfig;
use hhsim_arch::{presets, ComputeProfile, CoreKind, Frequency, MachineModel};
use hhsim_energy::{
    CostMetrics, MeterReading, MetricKind, PowerMeter, PowerTrace, StreamingMeter,
    UtilizationTimeline,
};
use hhsim_hdfs::{
    BlockId, BlockSize, DiskModel, HdfsDefault, LocalityTier, NodeId, PlacementRequest,
    ReplicaPlacement, Topology,
};
use hhsim_mapreduce::{JobConfig, PhaseBreakdown};
use hhsim_sched::JobClass;
use hhsim_workloads::{AppClass, AppId};
use serde::{Deserialize, Serialize};

use hhsim_faults::{FaultConfig, FaultStats, NodeFaults, PhaseError};

use crate::cluster::{
    run_phase_fetching, Cluster, ClusterTimeline, EngineScratch, FetchView, FifoAnySlot,
    KindPreferring, Node, NodeTiming, PhaseLoad, PhaseLocality, PhaseRun, Placement, SlotStats,
    StepBuffers,
};
use crate::ratios::{AppRatios, JobRatios};
use crate::shuffle;
use crate::simcache::{
    fetch_digest, fetch_layout_digest, PhaseFaultKey, PhaseKey, PhaseNetKey, SimCache,
};

/// Framework instructions charged per task launch (JVM spin-up, split
/// bookkeeping, heartbeats).
const TASK_OVERHEAD_INSTR: f64 = 2.0e9;
/// Serial master-side instructions per task (job tracker bookkeeping).
const MASTER_INSTR_PER_TASK: f64 = 0.2e9;
/// Per-job setup and cleanup wall time, seconds. Dominated by the job
/// client's submission/poll protocol and fixed framework sleeps, so it is
/// machine-independent (paper: significant for Grep, which runs two jobs).
const JOB_SETUP_S: f64 = 4.5;
const JOB_CLEANUP_S: f64 = 3.2;
/// NIC bandwidth per node, bytes/s (1 GbE, the paper's era).
const NET_BYTES_PER_S: f64 = 117.0e6;
/// HDFS default replication factor for topology-aware block layouts.
const HDFS_REPLICATION: usize = 3;
/// Seed of the deterministic HDFS-default layout priced by
/// topology-active runs; chained jobs get distinct layouts via XOR.
const TOPOLOGY_LAYOUT_SEED: u64 = 0x0048_4446_534C_4159;
/// Replication factor charged on final output writes.
const OUTPUT_REPLICATION: f64 = 2.0;

/// Placement policy selector for a mixed-cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlacementKind {
    /// First free slot in node order — the baseline scheduler.
    FifoAny,
    /// The paper's §3.5 class-driven procedure optimizing the given goal
    /// ([`hhsim_sched::paper_schedule`] via [`KindPreferring`]).
    PaperClass(MetricKind),
    /// Pin the preference to big nodes.
    PreferBig,
    /// Pin the preference to little nodes.
    PreferLittle,
}

/// An explicit heterogeneous cluster composition for [`simulate_cluster`]:
/// `big` Xeon nodes plus `little` Atom nodes (presets at the config's
/// DVFS point). When set, it replaces `SimConfig::nodes`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeMix {
    /// Number of big (Xeon) nodes.
    pub big: usize,
    /// Number of little (Atom) nodes.
    pub little: usize,
    /// How tasks pick nodes.
    pub placement: PlacementKind,
}

/// One experiment point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    #[serde(default)]
    pub node_mix: Option<NodeMix>,
    /// Optional deterministic fault injection. `None` or an inactive
    /// config ([`FaultConfig::none`]) leaves every fault-free result
    /// bit-identical; an active config routes the run through the
    /// fault-aware cluster engine.
    #[serde(default)]
    pub faults: Option<FaultConfig>,
    /// Optional two-tier rack fabric (node → ToR → core). `None` or an
    /// inactive topology ([`Topology::flat`]) leaves every result
    /// bit-identical to the flat network; an active topology routes the
    /// run through the cluster engine with HDFS-default map placement
    /// (locality tiers priced per task) and flow-fair contended shuffle.
    #[serde(default)]
    pub topology: Option<Topology>,
}

impl SimConfig {
    /// A paper-default configuration: 3 nodes, 1 GB/node for micro-
    /// benchmarks or 10 GB/node for real-world applications, 512 MB
    /// blocks, 1.8 GHz.
    pub fn new(app: AppId, machine: MachineModel) -> Self {
        let data = if app.is_real_world() {
            10u64 << 30
        } else {
            1u64 << 30
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
    fn active_faults(&self) -> Option<FaultConfig> {
        self.faults.filter(FaultConfig::active)
    }

    /// The topology, if it would actually change anything.
    fn active_topology(&self) -> Option<Topology> {
        self.topology.filter(Topology::active)
    }

    /// The meter [`simulate`] and the sweep harness read this point with:
    /// per node as soon as a phase has no single power level (a mix,
    /// faults or a rack fabric), else the paper's phase average.
    fn meter(&self) -> Meter {
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

/// How a run's power and energy are read off its phase runs. The paper
/// has one Wattsup meter; the model has two readings of it, chosen by
/// entry point and config shape (module docs), never by a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Meter {
    /// One power level per phase on the one machine model, times the node
    /// count.
    PhaseAverage,
    /// Every node's time-resolved slot occupancy through its own power
    /// model.
    PerNode,
}

/// Time and power of one phase on one node.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Wall-clock seconds of the phase.
    pub seconds: f64,
    /// Dynamic (above idle) node power during the phase, watts.
    pub dynamic_watts: f64,
    /// CPU share of one task's time (diagnostics/ablation).
    pub cpu_seconds_per_task: f64,
    /// Raw (pre-overlap) disk+network share of one task's time.
    pub io_seconds_per_task: f64,
}

impl PhaseCost {
    /// Dynamic energy of the phase across `nodes` nodes, joules.
    pub fn energy_j(&self, nodes: usize) -> f64 {
        self.seconds * self.dynamic_watts * nodes as f64
    }
}

/// Everything measured for one experiment point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Configuration echo (app/machine identifiers for reports).
    pub app: AppId,
    /// Machine name.
    pub machine_name: String,
    /// Wall-clock phase breakdown.
    pub breakdown: PhaseBreakdown,
    /// Map phase detail.
    pub map: PhaseCost,
    /// Reduce phase detail.
    pub reduce: PhaseCost,
    /// Others (setup/cleanup/master) detail.
    pub others: PhaseCost,
    /// Map-phase slot admission counters from the cluster engine
    /// (queueing delay, peak occupancy), summed over chained jobs.
    #[serde(default)]
    pub map_slots: SlotStats,
    /// Reduce-phase slot admission counters.
    #[serde(default)]
    pub reduce_slots: SlotStats,
    /// Fault and recovery counters over all phases (all zero without
    /// fault injection).
    #[serde(default)]
    pub faults: FaultStats,
    /// Map tasks per locality tier `[node-local, rack-local, off-rack]`
    /// over all jobs, counted by the per-node meter. Without an active
    /// topology every map read is node-local, so it reads
    /// `[n_map, 0, 0]`; the phase-average meter leaves `[0, 0, 0]`.
    #[serde(default)]
    pub map_locality_tiers: [u64; 3],
    /// Simulated Wattsup reading over the whole run (one node).
    pub reading: MeterReading,
    /// Total dynamic energy over all nodes, joules — the 1 Hz metered
    /// estimate the paper's methodology (and every checked-in figure)
    /// is built on.
    pub energy_j: f64,
    /// Exact event-driven dynamic energy over all nodes, joules: the
    /// piecewise integral of each node's power step function, free of
    /// 1 Hz sampling error. New analyses (fig. 20, the replication
    /// engine) consume this; `energy_j` stays the metered view for
    /// golden-artifact stability.
    #[serde(default)]
    pub exact_energy_j: f64,
    /// Whole-application cost metrics (energy, delay, engaged area).
    pub cost: CostMetrics,
    /// Map-phase-only cost metrics.
    pub map_cost: CostMetrics,
    /// Reduce-phase-only cost metrics.
    pub reduce_cost: CostMetrics,
    /// IPC the core model sustains on this app's map profile (Fig. 1).
    pub map_ipc: f64,
}

/// Memory-pressure multiplier on I/O time: footprint beyond DRAM divides
/// the page cache's hit rate. The big core's deeper queues and smarter
/// prefetch absorb pressure far better (§3.3: Atom's execution time grows
/// much faster with data size).
fn memory_pressure(machine: &MachineModel, footprint_bytes: f64) -> f64 {
    let mem = machine.memory_gb * (1u64 << 30) as f64;
    let over = (footprint_bytes / mem - 0.35).max(0.0);
    let sensitivity = match machine.core.kind {
        CoreKind::Big => 0.08,
        CoreKind::Little => 0.32,
    };
    (1.0 + sensitivity * over).min(2.5)
}

/// Seconds of CPU time for `instructions` of `profile` on `machine` at
/// `f`, using memoizable stalls.
fn cpu_seconds(
    machine: &MachineModel,
    profile: &ComputeProfile,
    stalls: (f64, f64),
    f: Frequency,
    instructions: f64,
) -> f64 {
    instructions * machine.cpi_with_stalls(profile, f, stalls.0, stalls.1) / f.hz()
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

/// Cluster-independent shape of one machine's view of the cluster, fed
/// to [`job_timing`].
#[derive(Debug, Clone, Copy)]
struct ClusterShape {
    /// Task slots on the node being priced.
    slots: usize,
    /// Task slots across the whole cluster.
    total_slots: usize,
    /// Number of nodes in the cluster.
    nodes: usize,
}

/// Per-task timing of one chained job's phases on one machine model.
#[derive(Debug, Clone, Copy)]
struct JobTiming {
    map_task_s: f64,
    red_task_s: f64,
    map_cpu_task: f64,
    map_io_task: f64,
    red_cpu_task: f64,
    red_io_task: f64,
    n_map: usize,
    n_red: usize,
    /// Bytes one map task reads — what a non-local read moves over the
    /// network when a topology is active.
    map_task_bytes: f64,
    /// Bytes one reduce task pulls in the shuffle (after skew) — the
    /// contended-shuffle engine's per-reducer demand.
    red_input_bytes: f64,
}

/// Prices one chained job's map and reduce tasks on `m` — the analytic
/// half of the model. Wave scheduling of the resulting [`TaskSet`]s is
/// the cluster engine's job. Task counts (`n_map`, `n_red`) depend only
/// on data volume and cluster shape, never on `m`, so heterogeneous
/// clusters can price the same task list per node kind.
#[allow(clippy::too_many_arguments)]
fn job_timing(
    m: &MachineModel,
    cfg: &SimConfig,
    cache: &SimCache,
    disk: &DiskModel,
    job: &JobRatios,
    shape: ClusterShape,
    map_prof: &ComputeProfile,
    red_prof: &ComputeProfile,
) -> JobTiming {
    let (f, jobcfg, data_per_node_bytes) = (cfg.frequency, &cfg.job, cfg.data_per_node_bytes);
    let block = cfg.block_size.bytes();
    let data_total = data_per_node_bytes * shape.nodes as u64;
    let slots = shape.slots;
    let total_slots = shape.total_slots;
    let map_stalls = cache.stall_split(m, map_prof);
    let red_stalls = cache.stall_split(m, red_prof);

    // ------------------------------------------------------------------
    // Map phase of this job.
    // ------------------------------------------------------------------
    let job_input = (data_total as f64 * job.input_fraction).max(1.0);
    let n_map = ((job_input / block as f64).ceil() as usize).max(1);
    let task_input = job_input / n_map as f64;

    // Spill/merge structure at target scale. The materialized volume
    // of any spill or merge is capped by the distinct key space when a
    // combiner runs (duplicates collapse), which makes combining far
    // more effective at production buffer sizes than at MB scale.
    let emitted = task_input * job.map_selectivity;
    let spills = (emitted / jobcfg.sort_buffer_bytes as f64).ceil().max(1.0);
    let merge_passes = jobcfg.merge_passes(spills as usize) as f64;
    let key_cap_task = job.distinct_key_bytes_at(task_input).max(1.0);
    let (materialized, spill_write) = if job.has_combiner {
        let per_spill = (emitted / spills).min(jobcfg.sort_buffer_bytes as f64);
        // One spill sees only `task_input / spills` of input, so its
        // combiner output is capped by *that slice's* key space.
        let key_cap_spill = job.distinct_key_bytes_at(task_input / spills).max(1.0);
        let spill_out = per_spill.min(key_cap_spill);
        // The combiner reruns during the merge: the final task output
        // is again capped by the whole task's key space.
        (emitted.min(key_cap_task), spills * spill_out)
    } else {
        (emitted * job.combine_ratio, emitted * job.combine_ratio)
    };
    let merge_io = (spill_write + materialized) * merge_passes;

    let map_io_bytes = task_input + spill_write + merge_io;
    let t_cpu_map = cpu_seconds(
        m,
        map_prof,
        map_stalls,
        f,
        task_input * map_prof.instr_per_byte,
    ) + m.core.io_path_seconds(map_io_bytes, f);

    let map_concurrency = slots.min(n_map.div_ceil(shape.nodes)).max(1) as f64;
    // Concurrent task streams interleave on the node disk: the
    // effective sequential chunk shrinks with concurrency — why small
    // blocks hurt I/O-bound jobs most (§3.1.1).
    let read_chunk = (block / map_concurrency as u64).max(1 << 20);
    let write_chunk = ((32 << 20) / map_concurrency as u64).max(1 << 20);
    let footprint =
        data_per_node_bytes as f64 * job.input_fraction * (1.0 + job.map_selectivity.min(1.5));
    let pressure = memory_pressure(m, footprint);
    let mut t_disk_map = (disk.read_seconds(task_input as u64, read_chunk)
        + disk.write_seconds((spill_write + merge_io) as u64, write_chunk))
        * map_concurrency
        * pressure;

    // Shuffle/output volumes.
    let shuffle_total = if job.has_reduce {
        materialized * n_map as f64
    } else {
        0.0
    };
    let output_total = if job.has_combiner {
        (job_input * job.output_selectivity).min(job.distinct_key_bytes_at(job_input) * 2.0)
    } else {
        job_input * job.output_selectivity
    };

    // Map-only jobs write their output from the map task.
    let mut t_cpu_map = t_cpu_map;
    if !job.has_reduce && output_total > 0.0 {
        let out_per_task = output_total / n_map as f64 * OUTPUT_REPLICATION;
        t_disk_map +=
            disk.write_seconds(out_per_task as u64, write_chunk) * map_concurrency * pressure;
        t_cpu_map += m.core.io_path_seconds(out_per_task, f);
    }
    let map_task_s = t_cpu_map + t_disk_map * (1.0 - m.core.io_overlap);

    // ------------------------------------------------------------------
    // Reduce phase of this job.
    // ------------------------------------------------------------------
    let n_red = if job.has_reduce {
        (total_slots / 2).max(1)
    } else {
        0
    };
    let (red_task_s, t_cpu_red, t_io_red_raw, red_input_bytes) = if n_red > 0 {
        let red_input = shuffle_total / n_red as f64 * job.reduce_skew.min(1.5);
        let red_concurrency = slots.min(n_red.div_ceil(shape.nodes)).max(1) as f64;
        // Cross-node shuffle transfer (the local share stays on-node).
        let cross = red_input * (shape.nodes as f64 - 1.0) / shape.nodes as f64;
        let t_net = cross / NET_BYTES_PER_S * red_concurrency;
        // Reduce-side merge passes over n_map segments.
        let passes = {
            let mut segs = n_map;
            let mut p = 0u32;
            while segs > jobcfg.merge_factor {
                segs = segs.div_ceil(jobcfg.merge_factor);
                p += 1;
            }
            p as f64
        };
        let merge_bytes = red_input * passes * 2.0;
        let out_bytes = output_total / n_red as f64 * OUTPUT_REPLICATION;
        let io_bytes = red_input + merge_bytes + out_bytes;
        let t_cpu = cpu_seconds(
            m,
            red_prof,
            red_stalls,
            f,
            red_input * red_prof.instr_per_byte,
        ) + m.core.io_path_seconds(io_bytes, f);
        let red_chunk = ((32 << 20) / red_concurrency as u64).max(1 << 20);
        let t_disk = (disk.write_seconds((merge_bytes + out_bytes) as u64, red_chunk)
            + disk.read_seconds(red_input as u64, red_chunk))
            * red_concurrency
            * pressure;
        let t_io_raw = t_disk + t_net;
        let task_s = t_cpu + t_io_raw * (1.0 - m.core.io_overlap);
        (task_s, t_cpu, t_io_raw, red_input)
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };

    JobTiming {
        map_task_s,
        red_task_s,
        map_cpu_task: t_cpu_map,
        map_io_task: t_disk_map,
        red_cpu_task: t_cpu_red,
        red_io_task: t_io_red_raw,
        n_map,
        n_red,
        map_task_bytes: task_input,
        red_input_bytes,
    }
}

/// DRAM-intensity knob for the power model, derived from the profile's
/// non-resident access fractions.
fn mem_intensity(p: &ComputeProfile) -> f64 {
    ((1.0 - p.mem.hot_fraction) * 1.8 + 0.15).clamp(0.0, 1.0)
}

/// One phase of one chained job, as far as a fault seed cannot change it.
struct PhasePrep {
    /// Timeline label: "map" / "reduce", and the job index when jobs
    /// chain. Put together only for a timeline.
    label: (&'static str, Option<usize>),
    /// What the engine drains, locality layout or shuffle extras inside.
    load: PhaseLoad,
    /// [`PhaseKey::timing`]: bit patterns of (big task_s, big overhead_s,
    /// little task_s, little overhead_s), zero for a kind without nodes.
    timing: [u64; 4],
    /// [`PhaseKey::net`], on an active rack fabric.
    net: Option<PhaseNetKey>,
    /// Per kind `[big, little]`: I/O share of a task's time, the
    /// disk-power knob.
    io_frac: [f64; 2],
}

/// One chained job's phases.
struct JobPrep {
    map: PhasePrep,
    /// `None` for a map-only job.
    reduce: Option<PhasePrep>,
    /// [`fetch_layout_digest`] of the reduce phase's fetch plan, when the
    /// map phase has a replica layout to recover lost outputs from.
    fetch_layout: Option<u64>,
    /// The job's tasks priced on the roster's lead kind: what the meters
    /// report per task and count utilization from.
    timing: JobTiming,
}

/// What pricing keeps of one node kind the roster has.
#[derive(Clone, Copy)]
struct KindPrep<'a> {
    m: &'a MachineModel,
    nodes: usize,
    /// Task slots per node.
    slots: usize,
    /// Per-task launch overhead, seconds.
    overhead: f64,
}

/// Seed-independent preparation of one run — the only pricing of it: node
/// roster, placement, per-job phase loads (replica layout and shuffle
/// extras inside), what their memo keys are made of, I/O fractions,
/// labels, protocol time — everything [`ClusterPrep::run`] borrows,
/// whichever meter reads the run and across fault replications. The
/// replication engine builds this once per [`SimConfig`] and fans seeds
/// out over it, instead of re-deriving the whole stack per seed.
pub(crate) struct ClusterPrep<'a> {
    cfg: &'a SimConfig,
    ratios: AppRatios,
    /// The kinds the roster has, `[big, little]`.
    kinds: [Option<KindPrep<'a>>; 2],
    /// The kind of the first node, which runs the master; the only kind
    /// of a homogeneous cluster.
    lead: KindPrep<'a>,
    /// [`PhaseKey::roster`].
    roster: (usize, usize, usize, usize),
    /// The node kind placement prefers; `None` is first-free-slot FIFO.
    preferred: Option<CoreKind>,
    cluster: Cluster,
    map_prof: ComputeProfile,
    red_prof: ComputeProfile,
    /// The first job; phase power and the per-task details follow its
    /// task mix.
    dominant: JobPrep,
    /// The jobs chained behind it (Grep's sort, FP-Growth's mining).
    chained: Vec<JobPrep>,
    /// Active rack fabric, when the run models the network topology.
    topology: Option<Topology>,
    others_wall: f64,
    /// Per kind `[big, little]`: (total W, dynamic W) of a node during the
    /// others window.
    oth_power: [(f64, f64); 2],
    machine_name: Cow<'a, str>,
    map_ipc: f64,
}

impl PhasePrep {
    /// The plan a reduce phase recovers this map phase's outputs with
    /// while `holders` have them; `None` without a replica layout.
    fn fetch_view<'a>(
        &'a self,
        topology: Option<Topology>,
        holders: &'a [usize],
    ) -> Option<FetchView<'a>> {
        let layout = self.load.locality.as_ref()?;
        Some(FetchView {
            holders,
            map_replicas: &layout.replicas,
            topology: topology?,
            read_seconds: layout.read_seconds,
            map_timing: &self.load.timing,
        })
    }
}

/// `big` or `little`, whichever `kind` names.
fn of_kind<T>(kind: CoreKind, big: T, little: T) -> T {
    match kind {
        CoreKind::Big => big,
        CoreKind::Little => little,
    }
}

/// `[big, little]` from the value on the roster's lead kind and on the
/// other one, `absent` standing in for a kind without nodes.
fn by_kind<T: Copy>(lead_kind: CoreKind, lead: T, other: Option<T>, absent: T) -> [T; 2] {
    let other = other.unwrap_or(absent);
    of_kind(lead_kind, [lead, other], [other, lead])
}

impl<'a> ClusterPrep<'a> {
    /// Derives everything about `cfg`'s run that depends neither on the
    /// fault seed nor on the meter.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (no nodes, no data).
    pub(crate) fn new(cfg: &'a SimConfig, cache: &SimCache) -> Self {
        assert!(cfg.data_per_node_bytes > 0, "need input data");
        let f = cfg.frequency;
        let ratios = cache.ratios(cfg.app);
        let disk = DiskModel::sata_7200();
        let map_prof = cfg.app.map_profile();
        let red_prof = cfg.app.reduce_profile();
        let hadoop_avg = ComputeProfile::hadoop_average();

        // The kinds the roster has: slots per node and task-launch
        // overhead. The Hadoop-average stall split is frequency-independent
        // and, on the lead kind, shared with the master's bookkeeping.
        let Roster {
            lead,
            other,
            placement,
        } = cfg.roster();
        let kind_prep = |(m, nodes): (&'a MachineModel, usize)| {
            let stalls = cache.stall_split(m, &hadoop_avg);
            // Task launch (JVM spin-up) penalizes the little core beyond
            // its CPI gap: cold-start code is branchy, serial and
            // cache-hostile.
            let overhead = cpu_seconds(m, &hadoop_avg, stalls, f, TASK_OVERHEAD_INSTR)
                * of_kind(m.core.kind, 1.0, 1.8);
            let kind = KindPrep {
                m,
                nodes,
                slots: cfg.mappers_per_node.unwrap_or(m.num_cores).max(1),
                overhead,
            };
            (kind, stalls)
        };
        let (lead, lead_stalls) = kind_prep(lead);
        let other = other.map(|o| kind_prep(o).0);
        let lead_kind = lead.m.core.kind;
        let kinds = by_kind(lead_kind, Some(lead), other.map(Some), None);
        let [(n_big, big_slots, big_overhead), (n_little, little_slots, little_overhead)] =
            kinds.map(|k| k.map_or((0, 0, 0.0), |k| (k.nodes, k.slots, k.overhead)));
        let nodes_total = n_big + n_little;
        assert!(nodes_total > 0, "need at least one node");
        let cluster = Cluster::mixed(n_big, big_slots, n_little, little_slots);
        let total_slots = cluster.total_slots();

        let preferred = match placement {
            PlacementKind::FifoAny => None,
            PlacementKind::PreferBig => Some(CoreKind::Big),
            PlacementKind::PreferLittle => Some(CoreKind::Little),
            PlacementKind::PaperClass(goal) => {
                Some(KindPreferring::for_class(job_class(cfg.app), goal).preferred)
            }
        };
        // One phase's load, what its memo key says of its timing and its
        // per-kind I/O share, from its (task seconds, I/O seconds) on
        // either node kind.
        let multi_job = ratios.jobs.len() > 1;
        let phase = |base, ji, tasks, [big, little]: [(f64, f64); 2]| {
            let timing = |(task_seconds, _), overhead_seconds| NodeTiming {
                task_seconds,
                overhead_seconds,
            };
            let io_frac = |(task_s, io_s): (f64, f64)| {
                if task_s > 0.0 {
                    (io_s / task_s).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            };
            PhasePrep {
                label: (base, multi_job.then_some(ji)),
                load: PhaseLoad::by_kind(
                    tasks,
                    timing(big, big_overhead),
                    timing(little, little_overhead),
                    &cluster,
                ),
                timing: [
                    big.0.to_bits(),
                    big_overhead.to_bits(),
                    little.0.to_bits(),
                    little_overhead.to_bits(),
                ],
                net: None,
                io_frac: [io_frac(big), io_frac(little)],
            }
        };

        // Rack-fabric pricing: lay the input out with the HDFS default
        // policy, price each map task's locality tier, and price the
        // reduce shuffle on the contended fabric. All gated on an
        // *active* topology, so flat runs never see any of this.
        let topology = cfg.active_topology();
        // One chained job's tasks on one kind. Task counts depend only on
        // data volume and cluster shape, never on the machine.
        let price = |k: KindPrep<'_>, job: &JobRatios| {
            let shape = ClusterShape {
                slots: k.slots,
                total_slots,
                nodes: nodes_total,
            };
            job_timing(k.m, cfg, cache, &disk, job, shape, &map_prof, &red_prof)
        };
        let job_prep = |(ji, job): (usize, &JobRatios)| {
            let t = price(lead, job);
            let on_other = other.map(|o| price(o, job));
            if let Some(o) = &on_other {
                debug_assert_eq!(t.n_map, o.n_map, "task counts are machine-independent");
                debug_assert_eq!(t.n_red, o.n_red, "task counts are machine-independent");
            }
            let per_kind = |of: fn(&JobTiming) -> (f64, f64)| {
                by_kind(lead_kind, of(&t), on_other.as_ref().map(of), (0.0, 0.0))
            };
            let seconds = per_kind(|t| (t.map_task_s, t.map_io_task));
            let mut map = phase("map", ji, t.n_map, seconds);
            let seconds = per_kind(|t| (t.red_task_s, t.red_io_task));
            let mut reduce = (t.n_red > 0).then(|| phase("reduce", ji, t.n_red, seconds));
            if let Some(topo) = &topology {
                // Each node ingests its own share of the input (block t
                // is written by node t mod N, like the paper's per-node
                // data load); the HDFS default policy then spreads the
                // replicas across racks.
                let mut policy = HdfsDefault::new(TOPOLOGY_LAYOUT_SEED ^ ji as u64);
                let replication = HDFS_REPLICATION.min(nodes_total);
                let replicas: Vec<Vec<usize>> = (0..t.n_map)
                    .map(|task| {
                        policy
                            .place(
                                &PlacementRequest {
                                    block: BlockId(task as u64),
                                    writer: Some(NodeId(task % nodes_total)),
                                    replication,
                                    num_nodes: nodes_total,
                                },
                                topo,
                            )
                            .into_iter()
                            .map(|n| n.0)
                            .collect()
                    })
                    .collect();
                let bytes = t.map_task_bytes.max(0.0) as u64;
                let locality = PhaseLocality {
                    replicas,
                    racks: topo.racks,
                    read_seconds: [
                        topo.read_seconds(bytes, LocalityTier::NodeLocal),
                        topo.read_seconds(bytes, LocalityTier::RackLocal),
                        topo.read_seconds(bytes, LocalityTier::OffRack),
                    ],
                };
                map.net = Some(PhaseNetKey::for_map(topo, &locality));
                map.load.locality = Some(locality);
                if let Some(red) = &mut reduce {
                    // The same fabric with full bisection and one rack:
                    // the baseline the contention penalty is measured
                    // against, so the flat model's uncontended transfer
                    // (already inside `red_task_s`) is never
                    // double-charged.
                    let flat_fabric = Topology {
                        racks: 1,
                        oversubscription: 1.0,
                        ..*topo
                    };
                    let [contended, baseline] = shuffle::reduce_fetch_seconds_on(
                        [topo, &flat_fabric],
                        nodes_total,
                        t.n_red,
                        t.red_input_bytes,
                    );
                    red.load.extra_seconds = (contended.iter().zip(&baseline))
                        .map(|(c, b)| (c - b).max(0.0))
                        .collect();
                    red.net = Some(PhaseNetKey::for_extras(topo, &red.load.extra_seconds));
                }
            }
            // Hadoop fetch-failure semantics need an active topology
            // (replicas and locality tiers exist) and, per seed, faults
            // (a holder can die); either alone keeps the legacy reduce
            // path bitwise intact.
            let fetch_layout = (reduce.as_ref())
                .and(map.fetch_view(topology, &[]))
                .map(|plan| fetch_layout_digest(&plan));
            JobPrep {
                map,
                reduce,
                fetch_layout,
                timing: t,
            }
        };
        let dominant = job_prep((0, ratios.primary()));
        let chained: Vec<JobPrep> = (ratios.jobs.iter().enumerate().skip(1))
            .map(&job_prep)
            .collect();

        // Others: setup/cleanup protocol time plus serial master
        // bookkeeping (scales with task count and core speed), run by the
        // first node's machine.
        let tasks: usize = (std::iter::once(&dominant).chain(&chained))
            .map(|j| j.timing.n_map + j.timing.n_red)
            .sum();
        let others_wall = ratios.jobs.len() as f64 * (JOB_SETUP_S + JOB_CLEANUP_S)
            + cpu_seconds(
                lead.m,
                &hadoop_avg,
                lead_stalls,
                f,
                MASTER_INSTR_PER_TASK * tasks as f64 / nodes_total as f64,
            );
        let oth_power = kinds.map(|k| {
            k.map_or((0.0, 0.0), |KindPrep { m, .. }| {
                let op = m.operating_point(f);
                let p_oth = m.power.node_power(op, 1, m.num_cores, 0.35, 0.2, 0.1);
                (p_oth.total(), p_oth.dynamic())
            })
        });

        let machine_name = match cfg.node_mix {
            Some(_) => Cow::Owned(format!("Mixed({n_big}xXeon+{n_little}xAtom)")),
            None => Cow::Borrowed(cfg.machine.name.as_str()),
        };
        let ipc_stalls = cache.stall_split(lead.m, &map_prof);
        let map_ipc = 1.0 / (lead.m).cpi_with_stalls(&map_prof, f, ipc_stalls.0, ipc_stalls.1);

        ClusterPrep {
            cfg,
            ratios,
            kinds,
            lead,
            roster: (n_big, big_slots, n_little, little_slots),
            preferred,
            cluster,
            map_prof,
            red_prof,
            dominant,
            chained,
            topology,
            others_wall,
            oth_power,
            machine_name,
            map_ipc,
        }
    }

    /// The jobs in execution order.
    fn jobs(&self) -> impl Iterator<Item = &JobPrep> {
        std::iter::once(&self.dominant).chain(&self.chained)
    }

    /// Node `i` and the machine model it runs.
    fn node(&self, i: usize) -> Option<(&Node, &'a MachineModel)> {
        let node = self.cluster.nodes.get(i)?;
        let [big, little] = self.kinds;
        Some((node, of_kind(node.kind, big, little)?.m))
    }

    /// Streams one phase run's per-node power into the node meters,
    /// pricing the engine's time-resolved slot occupancy through each
    /// node's power model, and returns the phase's exact dynamic energy
    /// over all nodes.
    ///
    /// Each utilization piece is priced once and integrated exactly —
    /// O(transitions) per node, with the 1 Hz metered view resolving
    /// inside the [`StreamingMeter`] instead of a per-node `PowerTrace` +
    /// full re-sampling pass. The step functions are built in `steps`,
    /// one node at a time.
    fn charge_phase(
        &self,
        run: &PhaseRun,
        prof: &ComputeProfile,
        [big_io, little_io]: [f64; 2],
        meters: &mut [StreamingMeter],
        steps: &mut StepBuffers,
    ) -> f64 {
        let mut dynamic_j = 0.0;
        run.node_steps(self.cluster.nodes.len(), steps, |i, node_steps| {
            let (Some((node, m)), Some(meter)) = (self.node(i), meters.get_mut(i)) else {
                return;
            };
            let op = m.operating_point(self.cfg.frequency);
            let util = UtilizationTimeline::new(std::mem::take(node_steps), run.makespan_s);
            let node_io = of_kind(node.kind, big_io, little_io);
            // -0.0 seeds the same fold as `PowerTrace::exact_energy_j`, so
            // this phase's exact energy is bit-identical to the retired
            // per-node trace's.
            let mut node_j = -0.0;
            for (dur, active) in util.pieces() {
                // A node with no running task draws only its idle floor —
                // DRAM/disk activity follows the tasks, not the cluster.
                let (activity, mem, io) = if active > 0 {
                    (prof.activity, mem_intensity(prof), node_io)
                } else {
                    (0.0, 0.0, 0.0)
                };
                let w = m
                    .power
                    .node_power(op, active, m.num_cores, activity, mem, io)
                    .total();
                if dur > 0.0 {
                    node_j += dur * w;
                }
                meter.push(dur, w);
            }
            dynamic_j += node_j - m.power.node_idle_w * run.makespan_s;
            *node_steps = util.into_steps();
        });
        dynamic_j
    }

    /// Runs the prepared cluster under one fault configuration (or none)
    /// and has `meter` read the measurement off it. Only what the fault
    /// seed decides happens here — node fates, the phases' fault plans,
    /// the engine runs, metering — on loads and labels borrowed from the
    /// prep and in buffers borrowed from `scratch`. Under the per-node
    /// meter the engine runs route through the cache's phase memo, so
    /// sweeps and replications that share a phase's exact inputs reuse its
    /// `PhaseRun`; a phase-average point keeps its runs to itself.
    /// `timeline`, when there is one to fill, receives every phase's spans
    /// on the run's clock; the measurement does not depend on it.
    ///
    /// # Errors
    ///
    /// Returns the [`PhaseError`] of the first unrecoverable phase.
    ///
    /// # Panics
    ///
    /// Panics if the per-node meter is asked to read an accelerated run
    /// (offload is not modeled per node).
    pub(crate) fn run(
        &self,
        meter: Meter,
        faults: Option<&FaultConfig>,
        cache: &SimCache,
        scratch: &mut RunScratch,
        mut timeline: Option<&mut ClusterTimeline>,
    ) -> Result<Measurement, PhaseError> {
        let cluster = &self.cluster;
        let nodes_total = cluster.nodes.len();

        // Node fate (crash times, stragglers) is sampled once per run,
        // so a node that dies in one phase stays dead for every later
        // phase.
        let node_faults = faults.map(|fc| NodeFaults::sample(fc, nodes_total));
        let mut fault_stats = FaultStats::default();
        let mut phase_idx: u64 = 0;

        let mut node_meters = match meter {
            Meter::PhaseAverage => Vec::new(),
            Meter::PerNode => {
                assert!(
                    self.cfg.accel.is_none(),
                    "accelerator offload is not modeled by the per-node meter"
                );
                vec![StreamingMeter::new(); nodes_total]
            }
        };
        let mut map_slots = SlotStats::default();
        let mut reduce_slots = SlotStats::default();
        let mut map_wall = 0.0;
        let mut reduce_wall = 0.0;
        let mut hotspot_wall = 0.0f64;
        let mut map_dyn_j = 0.0;
        let mut red_dyn_j = 0.0;
        let mut offset = 0.0;
        let mut map_locality_tiers = [0u64; 3];
        let (mut fifo, mut by_kind) = (
            FifoAnySlot,
            self.preferred.map(|preferred| KindPreferring { preferred }),
        );
        let placement: &mut dyn Placement = match by_kind.as_mut() {
            Some(kind_preferring) => kind_preferring,
            None => &mut fifo,
        };
        let RunScratch {
            steps,
            holders,
            engine,
        } = scratch;

        // One phase under the seed: its fault plan, the engine run (the
        // memo's, under the per-node meter), the timeline sink and the
        // node meters. Returns the run and its exact dynamic energy.
        let mut run = |phase: &PhasePrep, reduce: bool, fetch: Option<(FetchView<'_>, u64)>| {
            let prof = if reduce {
                &self.red_prof
            } else {
                &self.map_prof
            };
            let seeded = faults.map(|fc| (fc, fc.phase_rate(reduce)));
            let phase_faults = (seeded.zip(node_faults.as_ref()))
                .map(|((fc, rate), nf)| nf.phase(fc, phase_idx, rate, offset));
            // The memo key names every input the engine sees; the
            // placement objects are stateless, so the preference *is* the
            // behavior.
            let key = (meter == Meter::PerNode).then(|| PhaseKey {
                placement: self.preferred.map_or(0, |kind| of_kind(kind, 1, 2)),
                roster: self.roster,
                tasks: phase.load.tasks,
                timing: phase.timing,
                faults: seeded.map(|(fc, rate)| PhaseFaultKey::new(fc, phase_idx, rate, offset)),
                net: phase.net.clone(),
                fetch: fetch.map(|(_, digest)| digest),
            });
            phase_idx += 1;
            let plan = fetch.map(|(plan, _)| plan);
            let run = cache.phase_run(key, || {
                let faults = phase_faults.as_ref();
                run_phase_fetching(cluster, &phase.load, placement, faults, plan, engine)
            })?;
            fault_stats.absorb(&run.faults);
            if let Some(timeline) = timeline.as_deref_mut() {
                match phase.label {
                    (base, Some(ji)) => timeline.extend(&format!("{base}{ji}"), offset, &run),
                    (base, None) => timeline.extend(base, offset, &run),
                }
            }
            offset += run.makespan_s;
            let dyn_j = match meter {
                Meter::PhaseAverage => 0.0,
                Meter::PerNode => {
                    self.charge_phase(&run, prof, phase.io_frac, &mut node_meters, steps)
                }
            };
            Ok((run, dyn_j))
        };

        for job in self.jobs() {
            let (map_run, dyn_j) = run(&job.map, false, None)?;
            map_slots.absorb(&map_run.slots);
            if meter == Meter::PerNode {
                for s in &map_run.spans {
                    if let Some(c) = map_locality_tiers.get_mut(s.tier.idx()) {
                        *c += 1;
                    }
                }
            }
            map_wall += map_run.makespan_s;
            hotspot_wall = hotspot_wall.max(map_run.makespan_s);
            map_dyn_j += dyn_j;

            if let Some(reduce) = &job.reduce {
                // The fetch plan: the prep's layout, held where this
                // seed's map attempts won.
                let fetch = faults.and(job.fetch_layout).and_then(|layout| {
                    holders.clear();
                    holders.extend(map_run.spans.iter().map(|s| s.node));
                    let plan = job.map.fetch_view(self.topology, holders)?;
                    Some((plan, fetch_digest(layout, holders)))
                });
                let (red_run, dyn_j) = run(reduce, true, fetch)?;
                reduce_slots.absorb(&red_run.slots);
                reduce_wall += red_run.makespan_s;
                red_dyn_j += dyn_j;
            }
        }

        let walls = PhaseBreakdown::new(map_wall, reduce_wall, self.others_wall);
        let read = match meter {
            Meter::PhaseAverage => self.phase_average(walls, hotspot_wall),
            Meter::PerNode => self.per_node(walls, node_meters, map_dyn_j, red_dyn_j),
        };
        let (breakdown, area) = (read.breakdown, read.area);
        let [map_w, reduce_w, others_w] = read.dynamic_watts;
        let (map_j, reduce_j) = read.phase_energy_j;
        let dominant = &self.dominant.timing;
        Ok(Measurement {
            app: self.cfg.app,
            machine_name: self.machine_name.to_string(),
            breakdown,
            map: PhaseCost {
                seconds: breakdown.map_s,
                dynamic_watts: map_w,
                cpu_seconds_per_task: dominant.map_cpu_task,
                io_seconds_per_task: dominant.map_io_task,
            },
            reduce: PhaseCost {
                seconds: breakdown.reduce_s,
                dynamic_watts: reduce_w,
                cpu_seconds_per_task: read.reduce_task_s.0,
                io_seconds_per_task: read.reduce_task_s.1,
            },
            others: PhaseCost {
                seconds: breakdown.others_s,
                dynamic_watts: others_w,
                cpu_seconds_per_task: 0.0,
                io_seconds_per_task: 0.0,
            },
            map_slots,
            reduce_slots,
            faults: fault_stats,
            map_locality_tiers,
            reading: read.reading,
            energy_j: read.energy_j,
            exact_energy_j: read.exact_energy_j,
            cost: CostMetrics::new(read.energy_j, breakdown.total(), area),
            map_cost: CostMetrics::new(map_j, breakdown.map_s.max(1e-9), area),
            reduce_cost: CostMetrics::new(reduce_j, breakdown.reduce_s.max(1e-9), area),
            map_ipc: self.map_ipc,
        })
    }

    /// The phase-average meter: one power level per phase from the
    /// dominant job's task mix and the share of the slots the waves fill,
    /// on the roster's one machine model, times the node count. Also the
    /// only reader of an accelerated run (§3.4): just the hotspot map (the
    /// chained job with the largest map wall) is offloaded — the paper
    /// profiles for the hotspot region and assumes *those* map tasks move
    /// to the FPGA; auxiliary jobs' maps stay on the CPU.
    fn phase_average(&self, walls: PhaseBreakdown, hotspot_wall: f64) -> Metered {
        let KindPrep { m, slots, .. } = self.lead;
        let nodes = self.cluster.nodes.len();
        let total_slots = slots * nodes;
        let mut breakdown = walls;
        if let Some(acc) = &self.cfg.accel {
            let rest_map = walls.map_s - hotspot_wall;
            let primary = self.ratios.primary();
            let transfer = (self.cfg.data_per_node_bytes as f64
                * nodes as f64
                * (1.0 + primary.map_selectivity.min(1.5)))
                / nodes as f64
                / slots as f64;
            let hot_accel = hhsim_accel::accelerate(
                &PhaseBreakdown::new(hotspot_wall, 0.0, 0.0),
                transfer as u64,
                acc,
            );
            breakdown =
                PhaseBreakdown::new(hot_accel.map_s + rest_map, walls.reduce_s, walls.others_s);
        }

        // One power level per phase: the task mix of the phase's profile on
        // as many slots as its waves fill on average.
        let op = m.operating_point(self.cfg.frequency);
        let power = |tasks: usize, prof: &ComputeProfile, io_frac| {
            let util = (tasks as f64 / total_slots as f64).min(1.0);
            let active = ((slots as f64 * util).round() as usize).max(usize::from(tasks > 0));
            let mem = mem_intensity(prof);
            (m.power).node_power(op, active, m.num_cores, prof.activity, mem, io_frac)
        };
        let dominant = &self.dominant.timing;
        let io_frac_map = (dominant.map_io_task / dominant.map_task_s.max(1e-9)).clamp(0.0, 1.0);
        let n_map_total = self.jobs().map(|j| j.timing.n_map).sum();
        let p_map = power(n_map_total, &self.map_prof, io_frac_map);
        let red_task_s: f64 = self.jobs().map(|j| j.timing.red_task_s).sum();
        let red_io_task: f64 = self.jobs().map(|j| j.timing.red_io_task).sum();
        let io_frac_red = if red_task_s > 0.0 {
            (red_io_task / red_task_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let n_red_total = self.jobs().map(|j| j.timing.n_red).sum();
        let p_red = power(n_red_total, &self.red_prof, io_frac_red);
        let [big_oth, little_oth] = self.oth_power;
        let (oth_w, oth_dyn_w) = of_kind(m.core.kind, big_oth, little_oth);

        let mut trace = PowerTrace::new();
        trace.push(breakdown.map_s, p_map.total());
        trace.push(breakdown.reduce_s, p_red.total());
        trace.push(breakdown.others_s, oth_w);
        let reading = PowerMeter.measure(&trace);
        let idle = m.power.node_idle_w;

        // `× nodes` last, as `PhaseCost::energy_j` has it.
        let phase_j = |seconds: f64, dynamic_w: f64| seconds * dynamic_w * nodes as f64;
        Metered {
            breakdown,
            dynamic_watts: [p_map.dynamic(), p_red.dynamic(), oth_dyn_w],
            reduce_task_s: (
                self.jobs().map(|j| j.timing.red_cpu_task).sum(),
                red_io_task,
            ),
            phase_energy_j: (
                phase_j(breakdown.map_s, p_map.dynamic()),
                phase_j(breakdown.reduce_s, p_red.dynamic()),
            ),
            reading,
            energy_j: reading.dynamic_energy_j(idle) * nodes as f64,
            exact_energy_j: (trace.exact_energy_j() - idle * trace.duration_s()).max(0.0)
                * nodes as f64,
            area: slots as f64 * m.area_mm2,
        }
    }

    /// The per-node meter: closes the node meters `charge_phase` streamed
    /// every phase into with the others window, and sums them.
    fn per_node(
        &self,
        breakdown: PhaseBreakdown,
        mut node_meters: Vec<StreamingMeter>,
        map_dyn_j: f64,
        red_dyn_j: f64,
    ) -> Metered {
        let nodes = &self.cluster.nodes;
        let nodes_total = nodes.len() as f64;
        let [big_oth, little_oth] = self.oth_power;
        let mut oth_dyn_w_sum = 0.0;
        for (meter, node) in node_meters.iter_mut().zip(nodes) {
            let (total_w, dyn_w) = of_kind(node.kind, big_oth, little_oth);
            meter.push(self.others_wall, total_w);
            oth_dyn_w_sum += dyn_w;
        }

        // Finish every node's streamed 1 Hz view (bit-identical to the
        // retired per-node trace metering) and exact integral. Engaged
        // area: average per-node slots × chip area, comparable to the
        // phase-average meter's `slots * area`.
        let mut energy_j = 0.0;
        let mut exact_energy_j = 0.0;
        let mut area_sum = 0.0;
        let mut reading = MeterReading {
            samples: 0,
            average_watts: 0.0,
            duration_s: 0.0,
        };
        for (i, meter) in node_meters.into_iter().enumerate() {
            let Some((node, m)) = self.node(i) else {
                continue;
            };
            let er = meter.finish();
            energy_j += er.meter.dynamic_energy_j(m.power.node_idle_w);
            exact_energy_j += er.exact_dynamic_energy_j(m.power.node_idle_w);
            area_sum += node.slots as f64 * m.area_mm2;
            if i == 0 {
                reading = er.meter;
            }
        }

        let per_node_watts = |dyn_j: f64, seconds: f64| {
            if seconds > 0.0 {
                dyn_j / seconds / nodes_total
            } else {
                0.0
            }
        };
        let dom = &self.dominant.timing;
        Metered {
            breakdown,
            dynamic_watts: [
                per_node_watts(map_dyn_j, breakdown.map_s),
                per_node_watts(red_dyn_j, breakdown.reduce_s),
                oth_dyn_w_sum / nodes_total,
            ],
            reduce_task_s: (dom.red_cpu_task, dom.red_io_task),
            phase_energy_j: (map_dyn_j, red_dyn_j),
            reading,
            energy_j,
            exact_energy_j,
            area: area_sum / nodes_total,
        }
    }
}

/// What a meter makes of a run: what the [`Measurement`] fields that
/// depend on the meter are put together from.
struct Metered {
    breakdown: PhaseBreakdown,
    /// Dynamic (above idle) power of a node during the map, reduce and
    /// others windows, watts.
    dynamic_watts: [f64; 3],
    /// (CPU, raw I/O) seconds of one reduce task.
    reduce_task_s: (f64, f64),
    /// Dynamic energy of the (map, reduce) phases over all nodes, joules.
    phase_energy_j: (f64, f64),
    reading: MeterReading,
    energy_j: f64,
    exact_energy_j: f64,
    area: f64,
}

/// Buffers one seeded cluster run fills and the next reuses: owned by a
/// harness worker across its seeds, or by a single call, and freed with
/// it. Nothing a run leaves here is read by the next (each user clears
/// before it fills).
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    /// Per-node step functions of the phase being charged.
    steps: StepBuffers,
    /// Map-output holders of the reduce phase's fetch plan.
    holders: Vec<usize>,
    /// The fault engine's tables.
    engine: EngineScratch,
}

/// Runs the full model for one experiment point, memoizing shared state
/// (stall splits, functional runs) in the process-wide [`SimCache`]. A
/// plain homogeneous point is read by the phase-average meter the paper's
/// tables are built on; a [`NodeMix`], active faults or an active topology
/// by the per-node one ([`simulate_cluster`]'s).
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero nodes or zero data), or
/// if fault injection makes the run unrecoverable.
pub fn simulate(cfg: &SimConfig) -> Measurement {
    simulate_with(cfg, SimCache::global())
}

/// [`simulate`] against an explicit cache. Passing a fresh
/// [`SimCache::new`] gives a fully uncached evaluation — the reference
/// the cache-consistency property tests compare against.
pub fn simulate_with(cfg: &SimConfig, cache: &SimCache) -> Measurement {
    recovered(measure(cfg, cfg.meter(), cache))
}

/// Prices `cfg`, runs it under its own faults and has `meter` read it; no
/// timeline to fill.
fn measure(cfg: &SimConfig, meter: Meter, cache: &SimCache) -> Result<Measurement, PhaseError> {
    let faults = cfg.active_faults();
    let scratch = &mut RunScratch::default();
    ClusterPrep::new(cfg, cache).run(meter, faults.as_ref(), cache, scratch, None)
}

/// Simulates `cfg`, reads it with the per-node meter and returns the
/// measurement together with the per-task trace timeline.
///
/// With a [`NodeMix`] this is the §3.5 heterogeneous study: Xeon and Atom
/// preset nodes run side by side at `cfg.frequency`, tasks are placed by
/// the mix's policy, each task's duration comes from the node it lands
/// on, and every node's power is metered over its *time-resolved* slot
/// occupancy (`cfg.machine`/`cfg.nodes` are ignored). Without a mix the
/// same run is the homogeneous cluster of `cfg.machine` — the one
/// [`simulate`] prices, with equal phase times, read by the other meter:
/// the baseline to set against a mix, and the way to export a trace of a
/// plain run.
///
/// # Panics
///
/// Panics on a degenerate configuration (no nodes, no data), if an
/// accelerator is configured (offload is not modeled per node) or if
/// fault injection makes the run unrecoverable (a task exhausting
/// `max_attempts`, or crashes leaving no usable slots); use
/// [`try_simulate_cluster_with`] to handle that as an error.
pub fn simulate_cluster(cfg: &SimConfig) -> (Measurement, ClusterTimeline) {
    recovered(try_simulate_cluster_with(cfg, SimCache::global()))
}

/// What the infallible facades make of a run's outcome.
fn recovered<T>(outcome: Result<T, PhaseError>) -> T {
    match outcome {
        Ok(r) => r,
        // hhsim: allow(panic-in-engine): infallible facade for legacy callers; fault-aware callers use try_simulate_cluster_with
        Err(e) => panic!("cluster run failed under fault injection: {e}"),
    }
}

/// Fallible [`simulate_cluster`] against an explicit cache: with an
/// active [`FaultConfig`] the run injects the plan's task failures, node
/// crashes and stragglers, and recovers per the configured policy; an
/// unrecoverable run (a task out of attempts, or no usable slots left)
/// surfaces as `Err` — Hadoop's "job failed" — instead of a panic.
///
/// # Errors
///
/// Returns the [`PhaseError`] of the first unrecoverable phase.
///
/// # Panics
///
/// Panics on a degenerate configuration (no nodes, no data) or if an
/// accelerator is configured (offload is not modeled per node).
pub fn try_simulate_cluster_with(
    cfg: &SimConfig,
    cache: &SimCache,
) -> Result<(Measurement, ClusterTimeline), PhaseError> {
    let prep = ClusterPrep::new(cfg, cache);
    let mut timeline = ClusterTimeline::new(&prep.cluster);
    let faults = cfg.active_faults();
    let scratch = &mut RunScratch::default();
    let m = prep.run(
        Meter::PerNode,
        faults.as_ref(),
        cache,
        scratch,
        Some(&mut timeline),
    )?;
    Ok((m, timeline))
}

/// The measurement of [`try_simulate_cluster_with`] alone: the same run
/// with no timeline to fill.
pub(crate) fn try_measure_cluster(
    cfg: &SimConfig,
    cache: &SimCache,
) -> Result<Measurement, PhaseError> {
    measure(cfg, Meter::PerNode, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhsim_arch::presets;

    fn base(app: AppId, m: MachineModel) -> SimConfig {
        SimConfig::new(app, m)
    }

    #[test]
    fn xeon_is_faster_everywhere() {
        for app in AppId::ALL {
            let x = simulate(&base(app, presets::xeon_e5_2420()));
            let a = simulate(&base(app, presets::atom_c2758()));
            assert!(
                x.breakdown.total() < a.breakdown.total(),
                "{app}: xeon {} vs atom {}",
                x.breakdown.total(),
                a.breakdown.total()
            );
        }
    }

    #[test]
    fn atom_draws_much_less_power() {
        for app in AppId::ALL {
            let x = simulate(&base(app, presets::xeon_e5_2420()));
            let a = simulate(&base(app, presets::atom_c2758()));
            assert!(
                x.map.dynamic_watts > 3.0 * a.map.dynamic_watts,
                "{app}: {} vs {}",
                x.map.dynamic_watts,
                a.map.dynamic_watts
            );
        }
    }

    #[test]
    fn frequency_helps_performance() {
        for m in [presets::xeon_e5_2420(), presets::atom_c2758()] {
            let lo = simulate(&base(AppId::WordCount, m.clone()).frequency(Frequency::GHZ_1_2));
            let hi = simulate(&base(AppId::WordCount, m).frequency(Frequency::GHZ_1_8));
            assert!(hi.breakdown.total() < lo.breakdown.total());
        }
    }

    #[test]
    fn block_size_has_an_interior_optimum() {
        // §3.1.1: 32 MB pays task overhead, 512 MB pays spills and lost
        // parallelism; the optimum sits in between.
        let t = |b: BlockSize| {
            simulate(&base(AppId::WordCount, presets::xeon_e5_2420()).block_size(b))
                .breakdown
                .total()
        };
        let t32 = t(BlockSize::MB_32);
        let t128 = t(BlockSize::MB_128);
        let t512 = t(BlockSize::MB_512);
        assert!(
            t32 > t128,
            "tiny blocks pay task overhead ({t32} vs {t128})"
        );
        assert!(
            t512 > t128,
            "huge blocks pay spills/waves ({t512} vs {t128})"
        );
    }

    #[test]
    fn execution_time_scales_with_data() {
        // §3.3: time grows with data, and grows faster on the little core.
        let grow = |m: MachineModel| {
            let one = simulate(&base(AppId::Grep, m.clone()).data_per_node(1 << 30));
            let twenty = simulate(&base(AppId::Grep, m).data_per_node(20 << 30));
            twenty.breakdown.total() / one.breakdown.total()
        };
        let gx = grow(presets::xeon_e5_2420());
        let ga = grow(presets::atom_c2758());
        assert!(gx > 2.5, "20x data must be much slower on Xeon, got {gx}");
        assert!(ga > gx, "Atom must degrade faster ({ga} vs {gx})");
    }

    #[test]
    fn accelerator_shrinks_map_only() {
        let plain = simulate(&base(AppId::WordCount, presets::atom_c2758()));
        let acc = simulate(
            &base(AppId::WordCount, presets::atom_c2758()).accelerator(AccelConfig::fpga(50.0)),
        );
        assert!(acc.breakdown.map_s < plain.breakdown.map_s);
        assert!((acc.breakdown.reduce_s - plain.breakdown.reduce_s).abs() < 1e-9);
    }

    #[test]
    fn more_mappers_speed_up_compute_bound_apps() {
        let m2 = simulate(&base(AppId::NaiveBayes, presets::atom_c2758()).mappers(2));
        let m8 = simulate(&base(AppId::NaiveBayes, presets::atom_c2758()).mappers(8));
        assert!(m8.breakdown.total() < m2.breakdown.total());
        // But power grows with cores.
        assert!(m8.map.dynamic_watts > m2.map.dynamic_watts);
    }

    #[test]
    fn sort_has_no_reduce_time() {
        let st = simulate(&base(AppId::Sort, presets::xeon_e5_2420()));
        assert_eq!(st.breakdown.reduce_s, 0.0);
        assert!(st.breakdown.map_s > 0.0);
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = simulate(&base(AppId::TeraSort, presets::atom_c2758()));
        let b = simulate(&base(AppId::TeraSort, presets::atom_c2758()));
        assert_eq!(a, b);
    }

    #[test]
    fn slot_stats_populated_by_engine() {
        let m = simulate(
            &base(AppId::WordCount, presets::xeon_e5_2420())
                .block_size(hhsim_hdfs::BlockSize::MB_32),
        );
        assert_eq!(m.map_slots.capacity, 36, "3 nodes x 12 cores");
        assert!(m.map_slots.peak_in_use > 0);
        assert!(
            m.map_slots.tasks_queued > 0,
            "32 MB blocks make far more tasks than slots"
        );
        assert!(m.map_slots.total_wait_s > 0.0);
    }

    #[test]
    fn mixed_cluster_runs_and_traces() {
        let cfg = base(AppId::WordCount, presets::xeon_e5_2420()).mix(NodeMix {
            big: 1,
            little: 2,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        });
        let (m, tl) = simulate_cluster(&cfg);
        assert_eq!(m.machine_name, "Mixed(1xXeon+2xAtom)");
        assert_eq!(tl.nodes.len(), 3);
        assert!(!tl.is_empty());
        assert!(m.breakdown.total() > 0.0);
        assert!(m.energy_j > 0.0);
        // simulate() routes node_mix configs through the same path.
        assert_eq!(simulate(&cfg), m);
    }

    #[test]
    fn mixed_cluster_is_deterministic() {
        let cfg = base(AppId::Sort, presets::xeon_e5_2420()).mix(NodeMix {
            big: 2,
            little: 1,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        });
        let (m1, t1) = simulate_cluster(&cfg);
        let (m2, t2) = simulate_cluster(&cfg);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
        assert_eq!(t1.to_chrome_trace_json(), t2.to_chrome_trace_json());
    }

    #[test]
    fn none_faults_config_is_bitwise_identical_to_no_faults() {
        // A present-but-inactive FaultConfig must not perturb a single bit
        // under either meter.
        let plain = base(AppId::WordCount, presets::xeon_e5_2420());
        let with_none = plain.clone().faults(FaultConfig::none());
        assert_eq!(simulate(&plain), simulate(&with_none));

        let mixed = base(AppId::Sort, presets::xeon_e5_2420()).mix(NodeMix {
            big: 1,
            little: 2,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        });
        let mixed_none = mixed.clone().faults(FaultConfig::none());
        let (m1, t1) = simulate_cluster(&mixed);
        let (m2, t2) = simulate_cluster(&mixed_none);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
        assert_eq!(t1.to_chrome_trace_json(), t2.to_chrome_trace_json());
    }

    #[test]
    fn flat_topology_config_is_bitwise_identical_to_no_topology() {
        // A present-but-inactive Topology must not perturb a single bit
        // under either meter.
        let plain = base(AppId::WordCount, presets::xeon_e5_2420());
        let with_flat = plain.clone().topology(Topology::flat());
        assert_eq!(simulate(&plain), simulate(&with_flat));

        let mixed = base(AppId::Sort, presets::xeon_e5_2420()).mix(NodeMix {
            big: 1,
            little: 2,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        });
        let mixed_flat = mixed.clone().topology(Topology::flat());
        let (m1, t1) = simulate_cluster(&mixed);
        let (m2, t2) = simulate_cluster(&mixed_flat);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
        assert_eq!(t1.to_chrome_trace_json(), t2.to_chrome_trace_json());
        assert_eq!(t1.utilization_csv(), t2.utilization_csv());
    }

    #[test]
    fn active_topology_routes_through_the_cluster_engine() {
        let cfg = base(AppId::TeraSort, presets::xeon_e5_2420())
            .data_per_node(4 << 30)
            .topology(Topology::racked(3, 8.0));
        let (m, tl) = simulate_cluster(&cfg);
        // simulate() routes topology-active configs through the engine.
        assert_eq!(simulate(&cfg), m);
        // The HDFS-default layout keeps most reads node-local (first
        // replica is writer-local) but spills the rest across tiers.
        let [nl, rl, of] = m.map_locality_tiers;
        assert!(
            nl > 0,
            "writer-local replicas exist: {:?}",
            m.map_locality_tiers
        );
        assert!(
            nl + rl + of > 0 && (rl + of) < nl.max(1) * 10,
            "tier mix is sane: {:?}",
            m.map_locality_tiers
        );
        // The trace carries the locality-tier vocabulary end to end.
        let json = tl.to_chrome_trace_json();
        assert!(m.breakdown.total() > 0.0);
        let _ = json;
    }

    #[test]
    fn oversubscription_slows_reduce_and_shifts_edp() {
        // fig21's monotonicity claim at a single point: same cluster,
        // same block size, fatter oversubscription ⇒ slower reduce
        // phase and no-better EDP.
        let at = |over: f64| {
            let cfg = base(AppId::TeraSort, presets::xeon_e5_2420())
                .data_per_node(4 << 30)
                .topology(Topology::racked(3, over));
            simulate(&cfg)
        };
        let fast = at(1.0);
        let slow = at(16.0);
        assert!(
            slow.breakdown.reduce_s >= fast.breakdown.reduce_s,
            "reduce must not speed up under oversubscription: {} < {}",
            slow.breakdown.reduce_s,
            fast.breakdown.reduce_s
        );
        assert!(
            slow.breakdown.reduce_s > fast.breakdown.reduce_s * 1.01,
            "contended shuffle must actually bite: {} vs {}",
            slow.breakdown.reduce_s,
            fast.breakdown.reduce_s
        );
        assert!(
            slow.cost.edp() > fast.cost.edp(),
            "EDP reflects the slowdown"
        );
    }

    #[test]
    fn faulty_mixed_run_is_deterministic_and_counts_faults() {
        let faults = FaultConfig::none()
            .seed(42)
            .failure_rates(0.2, 0.2)
            .stragglers(0.3, 2.5);
        let cfg = base(AppId::WordCount, presets::xeon_e5_2420())
            .mix(NodeMix {
                big: 1,
                little: 2,
                placement: PlacementKind::PaperClass(MetricKind::Edp),
            })
            .faults(faults);
        let (m1, t1) = simulate_cluster(&cfg);
        let (m2, t2) = simulate_cluster(&cfg);
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
        assert!(
            m1.faults.failed_attempts > 0,
            "20% failure rate must fail some attempts"
        );
        assert!(m1.faults.wasted_slot_s > 0.0);

        let clean = simulate_cluster(&cfg.clone().faults(FaultConfig::none())).0;
        assert!(
            m1.breakdown.total() > clean.breakdown.total(),
            "re-execution and stragglers must cost wall-clock time"
        );
        assert_eq!(clean.faults, FaultStats::default());
    }

    #[test]
    fn cluster_wide_crash_surfaces_a_clean_error() {
        // A sub-millisecond MTTF kills every node before the first task can
        // finish; the fallible API reports it instead of hanging or panicking.
        let cfg = base(AppId::WordCount, presets::xeon_e5_2420())
            .faults(FaultConfig::none().seed(7).node_mttf(1e-3));
        match try_simulate_cluster_with(&cfg, SimCache::global()) {
            Err(PhaseError::NoUsableSlots { pending }) => assert!(pending > 0),
            other => panic!("expected NoUsableSlots, got {other:?}"),
        }
    }

    /// The fig22 rack shape: 4 Xeon + 8 Atom on 4 racks.
    fn racked(faults: Option<FaultConfig>) -> SimConfig {
        use crate::figures::{FIG22_OVERSUB, MICRO_DATA, TOPO_RACKS};
        let cfg = base(AppId::TeraSort, presets::xeon_e5_2420())
            .data_per_node(MICRO_DATA)
            .block_size(BlockSize::MB_256)
            .topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB))
            .mix(NodeMix {
                big: 4,
                little: 8,
                placement: PlacementKind::PaperClass(MetricKind::Edp),
            });
        match faults {
            Some(f) => cfg.faults(f),
            None => cfg,
        }
    }

    #[test]
    fn measurement_does_not_depend_on_the_timeline_sink() {
        let app = AppId::TeraSort;
        let mix = NodeMix {
            big: 1,
            little: 2,
            placement: PlacementKind::PreferBig,
        };
        let shapes = [
            (
                "homogeneous on the engine",
                base(app, presets::atom_c2758()),
            ),
            ("mix", base(app, presets::xeon_e5_2420()).mix(mix)),
            (
                "faults only",
                base(app, presets::atom_c2758()).faults(crate::figures::fig19_faults(0.08, true)),
            ),
            ("racked only", racked(None)),
            (
                "racked + faults + domains",
                racked(Some(crate::figures::fig22_faults(4.0, true))),
            ),
            (
                "a seed that fails",
                base(app, presets::xeon_e5_2420())
                    .faults(FaultConfig::none().seed(7).node_mttf(1e-3)),
            ),
        ];
        let pricing = SimCache::new();
        for (shape, cfg) in shapes {
            let prep = ClusterPrep::new(&cfg, &pricing);
            let faults = cfg.active_faults();
            // A cold phase table on either side: both run the engines.
            let blind = prep.run(
                Meter::PerNode,
                faults.as_ref(),
                &SimCache::new(),
                &mut RunScratch::default(),
                None,
            );
            let mut sink = ClusterTimeline::new(&prep.cluster);
            let seen = prep.run(
                Meter::PerNode,
                faults.as_ref(),
                &SimCache::new(),
                &mut RunScratch::default(),
                Some(&mut sink),
            );
            assert_eq!(blind, seen, "{shape}");
            assert_eq!(blind, try_measure_cluster(&cfg, &pricing), "{shape}");
            match try_simulate_cluster_with(&cfg, &pricing) {
                Ok((m, timeline)) => {
                    assert_eq!(Ok(m), seen, "{shape}");
                    assert_eq!(timeline, sink, "{shape}");
                    assert!(!timeline.is_empty(), "{shape}");
                }
                Err(e) => {
                    assert_eq!(shape, "a seed that fails");
                    assert_eq!(Err(e), seen, "{shape}");
                }
            }
        }
    }

    #[test]
    fn prep_is_reusable_across_seeds() {
        let fc = crate::figures::fig22_faults(4.0, true);
        let cfg = racked(Some(fc));
        let prep = ClusterPrep::new(&cfg, &SimCache::new());
        let scratch = &mut RunScratch::default();
        let cache = SimCache::new();
        let mut run = |seed: u64, cache: &SimCache| {
            prep.run(Meter::PerNode, Some(&fc.seed(seed)), cache, scratch, None)
        };
        // Seed 5 loses a rack mid-shuffle and recovers; seed 3 loses every
        // replica of a block and dies in the reduce phase.
        let first = run(5, &cache);
        let recovered = first.as_ref().expect("seed 5 recovers").faults;
        assert!(recovered.fetch_failures > 0 && recovered.reexecuted_maps > 0);
        assert!(matches!(run(3, &cache), Err(PhaseError::DataLost { .. })));
        // Seed 5 again through the same prep and buffers: answered by the
        // memo, then recomputed from a cold one.
        assert_eq!(run(5, &cache), first);
        assert_eq!(run(5, &SimCache::new()), first);
    }

    #[test]
    fn homogeneous_trace_covers_cluster() {
        let cfg = base(AppId::Grep, presets::atom_c2758());
        let (m, tl) = simulate_cluster(&cfg);
        assert_eq!(tl.nodes.len(), 3);
        assert_eq!(m.machine_name, cfg.machine.name);
        // Grep chains two jobs: phase labels carry the job index.
        assert!(tl.iter().any(|s| s.phase == "map0"));
        assert!(tl.iter().any(|s| s.phase == "map1"));
    }

    #[test]
    fn both_meters_read_the_same_run() {
        let mut energy_differs = false;
        for app in AppId::ALL {
            for m in presets::both() {
                for f in [Frequency::GHZ_1_2, Frequency::GHZ_1_8] {
                    for block in [BlockSize::MB_32, BlockSize::MB_512] {
                        for mappers in [None, Some(2), Some(8)] {
                            let mut cfg = base(app, m.clone()).frequency(f).block_size(block);
                            cfg.mappers_per_node = mappers;
                            let point = format!("{app}/{}/{f:?}/{block:?}/{mappers:?}", m.name);
                            let averaged = simulate(&cfg);
                            let (per_node, _) = simulate_cluster(&cfg);
                            assert_eq!(averaged.breakdown, per_node.breakdown, "{point}");
                            assert_eq!(averaged.map_slots, per_node.map_slots, "{point}");
                            assert_eq!(averaged.reduce_slots, per_node.reduce_slots, "{point}");
                            assert_eq!(averaged.map_ipc, per_node.map_ipc, "{point}");
                            assert_eq!(averaged.machine_name, per_node.machine_name, "{point}");
                            energy_differs |= averaged.energy_j != per_node.energy_j;
                        }
                    }
                }
            }
        }
        // The meters differ on purpose; if they stop differing, one of
        // them is dead code.
        assert!(energy_differs);
    }

    #[test]
    fn zero_sided_mix_is_the_homogeneous_cluster() {
        for app in AppId::ALL {
            for (m, big, little) in [
                (presets::xeon_e5_2420(), 3, 0),
                (presets::atom_c2758(), 0, 3),
            ] {
                let plain = base(app, m);
                let mix = plain.clone().mix(NodeMix {
                    big,
                    little,
                    placement: PlacementKind::FifoAny,
                });
                let (homogeneous, plain_timeline) = simulate_cluster(&plain);
                let (mut mixed, mix_timeline) = simulate_cluster(&mix);
                assert_eq!(
                    mixed.machine_name,
                    format!("Mixed({big}xXeon+{little}xAtom)")
                );
                mixed.machine_name.clone_from(&homogeneous.machine_name);
                assert_eq!(mixed, homogeneous, "{app} {big}+{little}");
                assert_eq!(mix_timeline, plain_timeline, "{app} {big}+{little}");
            }
        }
    }
}
