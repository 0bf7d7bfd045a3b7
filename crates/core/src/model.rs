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
//! Wall-clock phase times come from the event-driven cluster engine
//! ([`crate::cluster`]): tasks are placed on first-class nodes and drain
//! in waves, and every task leaves a trace span. A homogeneous
//! [`SimConfig`] reproduces the paper's 3-node single-ISA cluster; a
//! [`NodeMix`] runs the §3.5 heterogeneous study with big and little
//! nodes side by side under a pluggable placement policy
//! ([`simulate_cluster`]). Power comes from the machine's CV²f model
//! sampled by the simulated Wattsup meter with idle subtraction — on
//! mixed clusters the meter samples the engine's *time-resolved*
//! per-node slot occupancy instead of phase averages.

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
    run_phase, run_phase_fetching, Cluster, ClusterTimeline, EngineScratch, FetchView, FifoAnySlot,
    KindPreferring, NodeTiming, PhaseLoad, PhaseLocality, PhaseRun, Placement, SlotStats,
    StepBuffers, TaskSet,
};
use crate::ratios::JobRatios;
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

    /// Whether this point is priced by the cluster engine
    /// ([`ClusterPrep`]) rather than the homogeneous node model.
    fn on_cluster_engine(&self) -> bool {
        self.node_mix.is_some()
            || self.active_faults().is_some()
            || self.active_topology().is_some()
    }

    /// The machine models whose stall splits pricing this point looks
    /// up, given the two presets: the configured machine on the
    /// node-model path; on the cluster-engine path one per kind, because
    /// [`ClusterPrep::new`] prices launch overhead and tasks on both
    /// kinds even when one has no nodes — the presets under a
    /// [`NodeMix`], else the configured machine and the other kind's
    /// preset.
    pub(crate) fn priced_machines<'a>(
        &'a self,
        xeon: &'a MachineModel,
        atom: &'a MachineModel,
    ) -> (&'a MachineModel, Option<&'a MachineModel>) {
        if !self.on_cluster_engine() {
            return (&self.machine, None);
        }
        match (self.node_mix, self.machine.core.kind) {
            (Some(_), _) => (xeon, Some(atom)),
            (None, CoreKind::Big) => (&self.machine, Some(atom)),
            (None, CoreKind::Little) => (&self.machine, Some(xeon)),
        }
    }

    fn slots_per_node(&self) -> usize {
        self.mappers_per_node
            .unwrap_or(self.machine.num_cores)
            .max(1)
    }
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
    /// over all jobs. Without an active topology every map read is
    /// node-local, so this stays `[n_map, 0, 0]`-shaped only on the
    /// cluster-engine path and `[0, 0, 0]` on the analytic path.
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
    f: Frequency,
    cache: &SimCache,
    disk: &DiskModel,
    job: &JobRatios,
    jobcfg: &JobConfig,
    shape: ClusterShape,
    data_per_node_bytes: u64,
    block: u64,
    map_prof: &ComputeProfile,
    red_prof: &ComputeProfile,
) -> JobTiming {
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

/// Per-job intermediate totals used to assemble the measurement.
struct JobPhases {
    map_wall: f64,
    reduce_wall: f64,
    map_cpu_task: f64,
    map_io_task: f64,
    red_cpu_task: f64,
    red_io_task: f64,
    map_task_s: f64,
    red_task_s: f64,
    n_map: usize,
    n_red: usize,
}

/// Runs the full model for one experiment point, memoizing shared state
/// (stall splits, functional runs) in the process-wide [`SimCache`].
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero nodes or zero data).
pub fn simulate(cfg: &SimConfig) -> Measurement {
    simulate_with(cfg, SimCache::global())
}

/// [`simulate`] against an explicit cache. Passing a fresh
/// [`SimCache::new`] gives a fully uncached evaluation — the reference
/// the cache-consistency property tests compare against.
pub fn simulate_with(cfg: &SimConfig, cache: &SimCache) -> Measurement {
    if cfg.on_cluster_engine() {
        return recovered(try_measure_cluster(cfg, cache));
    }
    assert!(cfg.nodes > 0, "need at least one node");
    assert!(cfg.data_per_node_bytes > 0, "need input data");
    let m = &cfg.machine;
    let f = cfg.frequency;
    let ratios = cache.ratios(cfg.app);
    let disk = DiskModel::sata_7200();
    let slots = cfg.slots_per_node();
    let total_slots = slots * cfg.nodes;
    let block = cfg.block_size.bytes();
    let shape = ClusterShape {
        slots,
        total_slots,
        nodes: cfg.nodes,
    };

    // Stall splits are frequency-independent: compute once per profile.
    let map_prof = cfg.app.map_profile();
    let red_prof = cfg.app.reduce_profile();
    let map_stalls = cache.stall_split(m, &map_prof);
    let hadoop_avg = ComputeProfile::hadoop_average();
    let hadoop_stalls = cache.stall_split(m, &hadoop_avg);
    // Task launch (JVM spin-up) penalizes the little core beyond its CPI
    // gap: cold-start code is branchy, serial and cache-hostile.
    let overhead_factor = match m.core.kind {
        CoreKind::Big => 1.0,
        CoreKind::Little => 1.8,
    };
    let t_task_overhead =
        cpu_seconds(m, &hadoop_avg, hadoop_stalls, f, TASK_OVERHEAD_INSTR) * overhead_factor;

    // The wave scheduler: every node identical, first-free-slot placement.
    let cluster = Cluster::homogeneous(m.core.kind, cfg.nodes, slots);
    let mut map_slots_stats = SlotStats::default();
    let mut reduce_slots_stats = SlotStats::default();

    let mut phases: Vec<JobPhases> = Vec::with_capacity(ratios.jobs.len());
    for job in &ratios.jobs {
        let t = job_timing(
            m,
            f,
            cache,
            &disk,
            job,
            &cfg.job,
            shape,
            cfg.data_per_node_bytes,
            block,
            &map_prof,
            &red_prof,
        );
        let map_run = run_phase(
            &cluster,
            &PhaseLoad::uniform(
                &TaskSet {
                    tasks: t.n_map,
                    task_seconds: t.map_task_s,
                    overhead_seconds: t_task_overhead,
                },
                &cluster,
            ),
            &mut FifoAnySlot,
        );
        map_slots_stats.absorb(&map_run.slots);
        let reduce_wall = if t.n_red > 0 {
            let red_run = run_phase(
                &cluster,
                &PhaseLoad::uniform(
                    &TaskSet {
                        tasks: t.n_red,
                        task_seconds: t.red_task_s,
                        overhead_seconds: t_task_overhead,
                    },
                    &cluster,
                ),
                &mut FifoAnySlot,
            );
            reduce_slots_stats.absorb(&red_run.slots);
            red_run.makespan_s
        } else {
            0.0
        };

        phases.push(JobPhases {
            map_wall: map_run.makespan_s,
            reduce_wall,
            map_cpu_task: t.map_cpu_task,
            map_io_task: t.map_io_task,
            red_cpu_task: t.red_cpu_task,
            red_io_task: t.red_io_task,
            map_task_s: t.map_task_s,
            red_task_s: t.red_task_s,
            n_map: t.n_map,
            n_red: t.n_red,
        });
    }

    // ------------------------------------------------------------------
    // Aggregate phases across chained jobs.
    // ------------------------------------------------------------------
    let map_wall: f64 = phases.iter().map(|p| p.map_wall).sum();
    let reduce_wall: f64 = phases.iter().map(|p| p.reduce_wall).sum();
    let n_map_total: usize = phases.iter().map(|p| p.n_map).sum();
    let n_red_total: usize = phases.iter().map(|p| p.n_red).sum();

    // Others: per-job setup/cleanup (fixed protocol time) + serial master
    // bookkeeping (scales with task count and core speed).
    let others_wall = ratios.jobs.len() as f64 * (JOB_SETUP_S + JOB_CLEANUP_S)
        + cpu_seconds(
            m,
            &hadoop_avg,
            hadoop_stalls,
            f,
            MASTER_INSTR_PER_TASK * (n_map_total + n_red_total) as f64 / cfg.nodes as f64,
        );

    // ------------------------------------------------------------------
    // Optional map-phase acceleration (§3.4): only the hotspot map (the
    // chained job with the largest map wall) is offloaded — the paper
    // profiles for the hotspot region and assumes *those* map tasks move
    // to the FPGA; auxiliary jobs' maps stay on the CPU.
    // ------------------------------------------------------------------
    let mut breakdown = PhaseBreakdown::new(map_wall, reduce_wall, others_wall);
    if let Some(acc) = &cfg.accel {
        let hotspot = phases.iter().map(|p| p.map_wall).fold(0.0f64, f64::max);
        let rest_map = map_wall - hotspot;
        let primary = ratios.primary();
        let transfer = (cfg.data_per_node_bytes as f64
            * cfg.nodes as f64
            * (1.0 + primary.map_selectivity.min(1.5)))
            / cfg.nodes as f64
            / slots as f64;
        let hot_accel = hhsim_accel::accelerate(
            &PhaseBreakdown::new(hotspot, 0.0, 0.0),
            transfer as u64,
            acc,
        );
        breakdown = PhaseBreakdown::new(hot_accel.map_s + rest_map, reduce_wall, others_wall);
    }

    // ------------------------------------------------------------------
    // Power and energy. Phase power uses the dominant (first) job's task
    // mix; utilization reflects how many slots the waves actually fill.
    // ------------------------------------------------------------------
    let op = m.operating_point(f);
    let dominant = &phases[0];
    let map_util = (n_map_total as f64 / total_slots as f64).min(1.0);
    let active_map = ((slots as f64 * map_util).round() as usize).max(1);
    let io_frac_map = (dominant.map_io_task / dominant.map_task_s.max(1e-9)).clamp(0.0, 1.0);
    let p_map = m.power.node_power(
        op,
        active_map,
        m.num_cores,
        map_prof.activity,
        mem_intensity(&map_prof),
        io_frac_map,
    );

    let red_util = if n_red_total > 0 {
        (n_red_total as f64 / total_slots as f64).min(1.0)
    } else {
        0.0
    };
    let active_red =
        ((slots as f64 * red_util).round() as usize).max(if n_red_total > 0 { 1 } else { 0 });
    let red_task_s: f64 = phases.iter().map(|p| p.red_task_s).sum();
    let red_io_task: f64 = phases.iter().map(|p| p.red_io_task).sum();
    let io_frac_red = if red_task_s > 0.0 {
        (red_io_task / red_task_s).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let p_red = m.power.node_power(
        op,
        active_red,
        m.num_cores,
        red_prof.activity,
        mem_intensity(&red_prof),
        io_frac_red,
    );
    let p_oth = m.power.node_power(op, 1, m.num_cores, 0.35, 0.2, 0.1);

    let mut trace = PowerTrace::new();
    trace.push(breakdown.map_s, p_map.total());
    trace.push(breakdown.reduce_s, p_red.total());
    trace.push(breakdown.others_s, p_oth.total());
    let reading = PowerMeter.measure(&trace);
    let idle = m.power.node_idle_w;

    let map_cost_detail = PhaseCost {
        seconds: breakdown.map_s,
        dynamic_watts: p_map.dynamic(),
        cpu_seconds_per_task: dominant.map_cpu_task,
        io_seconds_per_task: dominant.map_io_task,
    };
    let red_cost_detail = PhaseCost {
        seconds: breakdown.reduce_s,
        dynamic_watts: p_red.dynamic(),
        cpu_seconds_per_task: phases.iter().map(|p| p.red_cpu_task).sum(),
        io_seconds_per_task: red_io_task,
    };
    let oth_cost_detail = PhaseCost {
        seconds: breakdown.others_s,
        dynamic_watts: p_oth.dynamic(),
        cpu_seconds_per_task: 0.0,
        io_seconds_per_task: 0.0,
    };

    let energy_j = reading.dynamic_energy_j(idle) * cfg.nodes as f64;
    let exact_energy_j =
        (trace.exact_energy_j() - idle * trace.duration_s()).max(0.0) * cfg.nodes as f64;
    let area = slots as f64 * m.area_mm2;
    let cost = CostMetrics::new(energy_j, breakdown.total(), area);
    let map_cost = CostMetrics::new(
        map_cost_detail.energy_j(cfg.nodes),
        breakdown.map_s.max(1e-9),
        area,
    );
    let reduce_cost = CostMetrics::new(
        red_cost_detail.energy_j(cfg.nodes),
        breakdown.reduce_s.max(1e-9),
        area,
    );

    Measurement {
        app: cfg.app,
        machine_name: m.name.clone(),
        breakdown,
        map: map_cost_detail,
        reduce: red_cost_detail,
        others: oth_cost_detail,
        map_slots: map_slots_stats,
        reduce_slots: reduce_slots_stats,
        faults: FaultStats::default(),
        map_locality_tiers: [0, 0, 0],
        reading,
        energy_j,
        exact_energy_j,
        cost,
        map_cost,
        reduce_cost,
        map_ipc: 1.0 / m.cpi_with_stalls(&map_prof, f, map_stalls.0, map_stalls.1),
    }
}

/// DRAM-intensity knob for the power model, derived from the profile's
/// non-resident access fractions.
fn mem_intensity(p: &ComputeProfile) -> f64 {
    ((1.0 - p.mem.hot_fraction) * 1.8 + 0.15).clamp(0.0, 1.0)
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

/// Simulates `cfg` on the event-driven cluster engine and returns the
/// measurement together with the per-task trace timeline.
///
/// With a [`NodeMix`] this is the §3.5 heterogeneous study: Xeon and Atom
/// preset nodes run side by side at `cfg.frequency`, tasks are placed by
/// the mix's policy, each task's duration comes from the node it lands
/// on, and every node's power is metered over its *time-resolved* slot
/// occupancy (`cfg.machine`/`cfg.nodes` are ignored). Without a mix the
/// same machinery runs the homogeneous cluster of `cfg.machine` — useful
/// for exporting a trace of a baseline run. Note the homogeneous
/// *measurement* of record stays [`simulate`], whose phase-average meter
/// reproduces the paper's published tables bit-for-bit.
///
/// # Panics
///
/// Panics on a degenerate configuration (no nodes, no data) or if an
/// accelerator is configured (offload is not modeled per-node).
pub fn simulate_cluster(cfg: &SimConfig) -> (Measurement, ClusterTimeline) {
    simulate_cluster_with(cfg, SimCache::global())
}

/// [`simulate_cluster`] against an explicit cache.
///
/// # Panics
///
/// Additionally panics if fault injection makes the run unrecoverable
/// (a task exhausting `max_attempts`, or crashes leaving no usable
/// slots); use [`try_simulate_cluster_with`] to handle that as an error.
pub fn simulate_cluster_with(cfg: &SimConfig, cache: &SimCache) -> (Measurement, ClusterTimeline) {
    recovered(try_simulate_cluster_with(cfg, cache))
}

/// What the infallible facades make of a run's outcome.
fn recovered<T>(outcome: Result<T, PhaseError>) -> T {
    match outcome {
        Ok(r) => r,
        // hhsim: allow(panic-in-engine): infallible facade for legacy callers; fault-aware callers use try_simulate_cluster_with
        Err(e) => panic!("cluster run failed under fault injection: {e}"),
    }
}

/// [`try_simulate_cluster_with`] against the process-wide cache.
///
/// # Errors
///
/// Returns the [`PhaseError`] of the first phase fault injection makes
/// unrecoverable.
pub fn try_simulate_cluster(cfg: &SimConfig) -> Result<(Measurement, ClusterTimeline), PhaseError> {
    try_simulate_cluster_with(cfg, SimCache::global())
}

/// Fallible [`simulate_cluster`]: with an active [`FaultConfig`] the run
/// injects the plan's task failures, node crashes and stragglers, and
/// recovers per the configured policy; an unrecoverable run (a task out
/// of attempts, or no usable slots left) surfaces as `Err` — Hadoop's
/// "job failed" — instead of a panic.
///
/// # Errors
///
/// Returns the [`PhaseError`] of the first unrecoverable phase.
///
/// # Panics
///
/// Panics on a degenerate configuration (no nodes, no data) or if an
/// accelerator is configured (offload is not modeled per-node).
pub fn try_simulate_cluster_with(
    cfg: &SimConfig,
    cache: &SimCache,
) -> Result<(Measurement, ClusterTimeline), PhaseError> {
    let prep = ClusterPrep::new(cfg, cache);
    let mut timeline = ClusterTimeline::new(&prep.cluster);
    let faults = cfg.active_faults();
    let scratch = &mut RunScratch::default();
    let m = prep.run_seeded(faults.as_ref(), cache, scratch, Some(&mut timeline))?;
    Ok((m, timeline))
}

/// The measurement of [`try_simulate_cluster_with`] alone: the same run
/// with no timeline to fill.
pub(crate) fn try_measure_cluster(
    cfg: &SimConfig,
    cache: &SimCache,
) -> Result<Measurement, PhaseError> {
    let faults = cfg.active_faults();
    let scratch = &mut RunScratch::default();
    ClusterPrep::new(cfg, cache).run_seeded(faults.as_ref(), cache, scratch, None)
}

/// One phase of one chained job, as far as a fault seed cannot change it.
struct PhasePrep {
    /// Timeline label: "map" / "reduce", suffixed with the job index
    /// when jobs chain.
    label: String,
    /// What the engine drains, locality layout or shuffle extras inside.
    load: PhaseLoad,
    /// Memo key of the phase run fault-free; a seeded run fills in
    /// `faults` and `fetch`.
    key: PhaseKey,
    /// Per node: I/O share of a task's time, the disk-power knob.
    io_frac: Vec<f64>,
}

/// One chained job's phases.
struct JobPrep {
    map: PhasePrep,
    /// `None` for a map-only job.
    reduce: Option<PhasePrep>,
    /// [`fetch_layout_digest`] of the reduce phase's fetch plan, when the
    /// map phase has a replica layout to recover lost outputs from.
    fetch_layout: Option<u64>,
}

/// Seed-independent preparation of one cluster-engine run: node roster,
/// placement, per-job phase loads (replica layout and shuffle extras
/// inside), their memo keys, I/O fractions and labels, protocol time —
/// everything [`ClusterPrep::run_seeded`] borrows across fault
/// replications. The replication engine builds this once per
/// [`SimConfig`] and fans seeds out over it, instead of re-deriving the
/// whole stack per seed.
pub(crate) struct ClusterPrep {
    app: AppId,
    f: Frequency,
    big_m: MachineModel,
    little_m: MachineModel,
    /// The node kind placement prefers; `None` is first-free-slot FIFO.
    preferred: Option<CoreKind>,
    cluster: Cluster,
    map_prof: ComputeProfile,
    red_prof: ComputeProfile,
    jobs: Vec<JobPrep>,
    /// Active rack fabric, when the run models the network topology.
    topology: Option<Topology>,
    others_wall: f64,
    /// Per node: (total W, dynamic W) during the others window.
    oth_power: Vec<(f64, f64)>,
    machine_name: String,
    area: f64,
    map_ipc: f64,
    dom: JobTiming,
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

impl ClusterPrep {
    /// Derives everything about `cfg`'s cluster run that does not depend
    /// on the fault seed.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (no nodes, no data) or if an
    /// accelerator is configured (offload is not modeled per-node).
    pub(crate) fn new(cfg: &SimConfig, cache: &SimCache) -> Self {
        assert!(cfg.data_per_node_bytes > 0, "need input data");
        assert!(
            cfg.accel.is_none(),
            "accelerator offload is not modeled on the cluster-engine path"
        );
        let f = cfg.frequency;
        let ratios = cache.ratios(cfg.app);
        let disk = DiskModel::sata_7200();
        let block = cfg.block_size.bytes();

        // Resolve the node roster: machine model per kind plus counts.
        let (big_m, little_m, n_big, n_little, placement_kind) = match cfg.node_mix {
            Some(mix) => {
                assert!(mix.big + mix.little > 0, "need at least one node");
                (
                    presets::xeon_e5_2420(),
                    presets::atom_c2758(),
                    mix.big,
                    mix.little,
                    mix.placement,
                )
            }
            None => {
                assert!(cfg.nodes > 0, "need at least one node");
                match cfg.machine.core.kind {
                    CoreKind::Big => (
                        cfg.machine.clone(),
                        presets::atom_c2758(),
                        cfg.nodes,
                        0,
                        PlacementKind::FifoAny,
                    ),
                    CoreKind::Little => (
                        presets::xeon_e5_2420(),
                        cfg.machine.clone(),
                        0,
                        cfg.nodes,
                        PlacementKind::FifoAny,
                    ),
                }
            }
        };
        let big_slots = cfg.mappers_per_node.unwrap_or(big_m.num_cores).max(1);
        let little_slots = cfg.mappers_per_node.unwrap_or(little_m.num_cores).max(1);
        let cluster = Cluster::mixed(n_big, big_slots, n_little, little_slots);
        let nodes_total = n_big + n_little;
        let total_slots = cluster.total_slots();

        let map_prof = cfg.app.map_profile();
        let red_prof = cfg.app.reduce_profile();
        let hadoop_avg = ComputeProfile::hadoop_average();

        // Per-kind task-launch overhead.
        let overhead_of = |m: &MachineModel| {
            let factor = match m.core.kind {
                CoreKind::Big => 1.0,
                CoreKind::Little => 1.8,
            };
            cpu_seconds(
                m,
                &hadoop_avg,
                cache.stall_split(m, &hadoop_avg),
                f,
                TASK_OVERHEAD_INSTR,
            ) * factor
        };
        let big_overhead = overhead_of(&big_m);
        let little_overhead = overhead_of(&little_m);

        let shape_of = |slots: usize| ClusterShape {
            slots,
            total_slots,
            nodes: nodes_total,
        };

        let mut timings: Vec<(JobTiming, JobTiming)> = Vec::with_capacity(ratios.jobs.len());
        let mut n_map_total = 0usize;
        let mut n_red_total = 0usize;
        for job in ratios.jobs.iter() {
            let tb = job_timing(
                &big_m,
                f,
                cache,
                &disk,
                job,
                &cfg.job,
                shape_of(big_slots),
                cfg.data_per_node_bytes,
                block,
                &map_prof,
                &red_prof,
            );
            let tl = job_timing(
                &little_m,
                f,
                cache,
                &disk,
                job,
                &cfg.job,
                shape_of(little_slots),
                cfg.data_per_node_bytes,
                block,
                &map_prof,
                &red_prof,
            );
            debug_assert_eq!(tb.n_map, tl.n_map, "task counts are machine-independent");
            debug_assert_eq!(tb.n_red, tl.n_red, "task counts are machine-independent");
            n_map_total += tb.n_map;
            n_red_total += tb.n_red;
            timings.push((tb, tl));
        }
        let preferred = match placement_kind {
            PlacementKind::FifoAny => None,
            PlacementKind::PreferBig => Some(CoreKind::Big),
            PlacementKind::PreferLittle => Some(CoreKind::Little),
            PlacementKind::PaperClass(goal) => {
                Some(KindPreferring::for_class(job_class(cfg.app), goal).preferred)
            }
        };
        // One phase's load, fault-free memo key and per-node I/O share,
        // from its (task seconds, I/O seconds) on either node kind.
        let multi_job = ratios.jobs.len() > 1;
        let phase = |base: &str, ji: usize, tasks: usize, big: (f64, f64), little: (f64, f64)| {
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
            let (big_io, little_io) = (io_frac(big), io_frac(little));
            PhasePrep {
                label: if multi_job {
                    format!("{base}{ji}")
                } else {
                    base.to_string()
                },
                load: PhaseLoad::by_kind(
                    tasks,
                    timing(big, big_overhead),
                    timing(little, little_overhead),
                    &cluster,
                ),
                key: PhaseKey {
                    // The placement objects are stateless, so the
                    // preference *is* the behavior.
                    placement: preferred.map_or(0, |kind| of_kind(kind, 1, 2)),
                    roster: (n_big, big_slots, n_little, little_slots),
                    tasks,
                    timing: [
                        big.0.to_bits(),
                        big_overhead.to_bits(),
                        little.0.to_bits(),
                        little_overhead.to_bits(),
                    ],
                    faults: None,
                    net: None,
                    fetch: None,
                },
                io_frac: (cluster.nodes.iter())
                    .map(|n| of_kind(n.kind, big_io, little_io))
                    .collect(),
            }
        };

        // Rack-fabric pricing: lay the input out with the HDFS default
        // policy, price each map task's locality tier, and price the
        // reduce shuffle on the contended fabric. All gated on an
        // *active* topology, so flat runs never see any of this.
        let topology = cfg.active_topology();
        let mut jobs: Vec<JobPrep> = Vec::with_capacity(timings.len());
        for (ji, (tb, tl)) in timings.iter().enumerate() {
            let (big, little) = (
                (tb.map_task_s, tb.map_io_task),
                (tl.map_task_s, tl.map_io_task),
            );
            let mut map = phase("map", ji, tb.n_map, big, little);
            let (big, little) = (
                (tb.red_task_s, tb.red_io_task),
                (tl.red_task_s, tl.red_io_task),
            );
            let mut reduce = (tb.n_red > 0).then(|| phase("reduce", ji, tb.n_red, big, little));
            if let Some(topo) = &topology {
                // Each node ingests its own share of the input (block t
                // is written by node t mod N, like the paper's per-node
                // data load); the HDFS default policy then spreads the
                // replicas across racks.
                let mut policy = HdfsDefault::new(TOPOLOGY_LAYOUT_SEED ^ ji as u64);
                let replication = HDFS_REPLICATION.min(nodes_total);
                let replicas: Vec<Vec<usize>> = (0..tb.n_map)
                    .map(|t| {
                        policy
                            .place(
                                &PlacementRequest {
                                    block: BlockId(t as u64),
                                    writer: Some(NodeId(t % nodes_total)),
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
                let bytes = tb.map_task_bytes.max(0.0) as u64;
                let locality = PhaseLocality {
                    replicas,
                    racks: topo.racks,
                    read_seconds: [
                        topo.read_seconds(bytes, LocalityTier::NodeLocal),
                        topo.read_seconds(bytes, LocalityTier::RackLocal),
                        topo.read_seconds(bytes, LocalityTier::OffRack),
                    ],
                };
                map.key.net = Some(PhaseNetKey::for_map(topo, &locality));
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
                        tb.n_red,
                        tb.red_input_bytes,
                    );
                    red.load.extra_seconds = (contended.iter().zip(&baseline))
                        .map(|(c, b)| (c - b).max(0.0))
                        .collect();
                    red.key.net = Some(PhaseNetKey::for_extras(topo, &red.load.extra_seconds));
                }
            }
            // Hadoop fetch-failure semantics need an active topology
            // (replicas and locality tiers exist) and, per seed, faults
            // (a holder can die); either alone keeps the legacy reduce
            // path bitwise intact.
            let fetch_layout = (reduce.as_ref())
                .and(map.fetch_view(topology, &[]))
                .map(|plan| fetch_layout_digest(&plan));
            jobs.push(JobPrep {
                map,
                reduce,
                fetch_layout,
            });
        }

        let (dom_big, dom_little) = *timings.first().expect("at least one job");
        let dom = if n_big > 0 { dom_big } else { dom_little };

        let machine_of = |kind: CoreKind| of_kind(kind, &big_m, &little_m);

        // Others: setup/cleanup protocol time plus serial master
        // bookkeeping, run by the first node's machine.
        let master = cluster
            .nodes
            .first()
            .map(|n| machine_of(n.kind))
            .unwrap_or(&big_m);
        let others_wall = ratios.jobs.len() as f64 * (JOB_SETUP_S + JOB_CLEANUP_S)
            + cpu_seconds(
                master,
                &hadoop_avg,
                cache.stall_split(master, &hadoop_avg),
                f,
                MASTER_INSTR_PER_TASK * (n_map_total + n_red_total) as f64 / nodes_total as f64,
            );
        let oth_power: Vec<(f64, f64)> = cluster
            .nodes
            .iter()
            .map(|n| {
                let m = machine_of(n.kind);
                let op = m.operating_point(f);
                let p_oth = m.power.node_power(op, 1, m.num_cores, 0.35, 0.2, 0.1);
                (p_oth.total(), p_oth.dynamic())
            })
            .collect();

        // Engaged area: average per-node slots × chip area, comparable
        // to the homogeneous path's `slots * area`.
        let area = cluster
            .nodes
            .iter()
            .map(|n| n.slots as f64 * machine_of(n.kind).area_mm2)
            .sum::<f64>()
            / nodes_total as f64;

        let machine_name = match cfg.node_mix {
            Some(_) => format!("Mixed({n_big}xXeon+{n_little}xAtom)"),
            None => cfg.machine.name.clone(),
        };
        let ipc_m = if n_big > 0 { &big_m } else { &little_m };
        let ipc_stalls = cache.stall_split(ipc_m, &map_prof);
        let map_ipc = 1.0 / ipc_m.cpi_with_stalls(&map_prof, f, ipc_stalls.0, ipc_stalls.1);

        ClusterPrep {
            app: cfg.app,
            f,
            big_m,
            little_m,
            preferred,
            cluster,
            map_prof,
            red_prof,
            jobs,
            topology,
            others_wall,
            oth_power,
            machine_name,
            area,
            map_ipc,
            dom,
        }
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
        io_frac: &[f64],
        meters: &mut [StreamingMeter],
        steps: &mut StepBuffers,
    ) -> f64 {
        let mut dynamic_j = 0.0;
        run.node_steps(self.cluster.nodes.len(), steps, |i, node_steps| {
            let (Some(node), Some(meter)) = (self.cluster.nodes.get(i), meters.get_mut(i)) else {
                return;
            };
            let m = of_kind(node.kind, &self.big_m, &self.little_m);
            let op = m.operating_point(self.f);
            let util = UtilizationTimeline::new(std::mem::take(node_steps), run.makespan_s);
            let node_io = io_frac.get(i).copied().unwrap_or(0.0);
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
    /// and assembles the measurement. Only what the fault seed decides
    /// happens here — node fates, the phases' fault plans, the engine
    /// runs, metering — on loads, keys and labels borrowed from the prep
    /// and in buffers borrowed from `scratch`. The phase engine runs route
    /// through the cache's phase memo, so sweeps and replications that
    /// share a phase's exact inputs reuse its `PhaseRun`. `timeline`, when
    /// there is one to fill, receives every phase's spans on the run's
    /// clock; the measurement does not depend on it.
    ///
    /// # Errors
    ///
    /// Returns the [`PhaseError`] of the first unrecoverable phase.
    pub(crate) fn run_seeded(
        &self,
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

        let mut meters: Vec<StreamingMeter> = vec![StreamingMeter::new(); nodes_total];
        let mut map_slots_stats = SlotStats::default();
        let mut reduce_slots_stats = SlotStats::default();
        let mut map_wall = 0.0;
        let mut reduce_wall = 0.0;
        let mut map_dyn_j = 0.0;
        let mut red_dyn_j = 0.0;
        let mut offset = 0.0;
        let mut locality_tiers = [0u64; 3];
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

        // One phase under the seed: its fault plan, the memoized engine
        // run, the timeline sink and the meters. Returns the run and its
        // exact dynamic energy.
        let mut run = |phase: &PhasePrep, reduce: bool, fetch: Option<(FetchView<'_>, u64)>| {
            let prof = if reduce {
                &self.red_prof
            } else {
                &self.map_prof
            };
            let seeded = faults.map(|fc| (fc, fc.phase_rate(reduce)));
            let phase_faults = (seeded.zip(node_faults.as_ref()))
                .map(|((fc, rate), nf)| nf.phase(fc, phase_idx, rate, offset));
            let key = PhaseKey {
                faults: seeded.map(|(fc, rate)| PhaseFaultKey::new(fc, phase_idx, rate, offset)),
                fetch: fetch.map(|(_, digest)| digest),
                ..phase.key.clone()
            };
            phase_idx += 1;
            let plan = fetch.map(|(plan, _)| plan);
            let run = cache.phase_run(key, || {
                let faults = phase_faults.as_ref();
                run_phase_fetching(cluster, &phase.load, placement, faults, plan, engine)
            })?;
            fault_stats.absorb(&run.faults);
            if let Some(timeline) = timeline.as_deref_mut() {
                timeline.extend(&phase.label, offset, &run);
            }
            offset += run.makespan_s;
            let dyn_j = self.charge_phase(&run, prof, &phase.io_frac, &mut meters, steps);
            Ok((run, dyn_j))
        };

        for job in &self.jobs {
            let (map_run, dyn_j) = run(&job.map, false, None)?;
            map_slots_stats.absorb(&map_run.slots);
            for s in &map_run.spans {
                if let Some(c) = locality_tiers.get_mut(s.tier.idx()) {
                    *c += 1;
                }
            }
            map_wall += map_run.makespan_s;
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
                reduce_slots_stats.absorb(&red_run.slots);
                reduce_wall += red_run.makespan_s;
                red_dyn_j += dyn_j;
            }
        }

        let mut oth_dyn_w_sum = 0.0;
        for (meter, &(total_w, dyn_w)) in meters.iter_mut().zip(&self.oth_power) {
            meter.push(self.others_wall, total_w);
            oth_dyn_w_sum += dyn_w;
        }

        // Finish every node's streamed 1 Hz view (bit-identical to the
        // retired per-node trace metering) and exact integral.
        let mut energy_j = 0.0;
        let mut exact_energy_j = 0.0;
        let mut reading = MeterReading {
            samples: 0,
            average_watts: 0.0,
            duration_s: 0.0,
        };
        for (i, (meter, node)) in meters.into_iter().zip(&cluster.nodes).enumerate() {
            let m = of_kind(node.kind, &self.big_m, &self.little_m);
            let er = meter.finish();
            energy_j += er.meter.dynamic_energy_j(m.power.node_idle_w);
            exact_energy_j += er.exact_dynamic_energy_j(m.power.node_idle_w);
            if i == 0 {
                reading = er.meter;
            }
        }

        let breakdown = PhaseBreakdown::new(map_wall, reduce_wall, self.others_wall);
        let dom = self.dom;

        let map_cost_detail = PhaseCost {
            seconds: breakdown.map_s,
            dynamic_watts: if breakdown.map_s > 0.0 {
                map_dyn_j / breakdown.map_s / nodes_total as f64
            } else {
                0.0
            },
            cpu_seconds_per_task: dom.map_cpu_task,
            io_seconds_per_task: dom.map_io_task,
        };
        let red_cost_detail = PhaseCost {
            seconds: breakdown.reduce_s,
            dynamic_watts: if breakdown.reduce_s > 0.0 {
                red_dyn_j / breakdown.reduce_s / nodes_total as f64
            } else {
                0.0
            },
            cpu_seconds_per_task: dom.red_cpu_task,
            io_seconds_per_task: dom.red_io_task,
        };
        let oth_cost_detail = PhaseCost {
            seconds: breakdown.others_s,
            dynamic_watts: oth_dyn_w_sum / nodes_total as f64,
            cpu_seconds_per_task: 0.0,
            io_seconds_per_task: 0.0,
        };

        let cost = CostMetrics::new(energy_j, breakdown.total(), self.area);
        let map_cost = CostMetrics::new(map_dyn_j, breakdown.map_s.max(1e-9), self.area);
        let reduce_cost = CostMetrics::new(red_dyn_j, breakdown.reduce_s.max(1e-9), self.area);

        Ok(Measurement {
            app: self.app,
            machine_name: self.machine_name.clone(),
            breakdown,
            map: map_cost_detail,
            reduce: red_cost_detail,
            others: oth_cost_detail,
            map_slots: map_slots_stats,
            reduce_slots: reduce_slots_stats,
            faults: fault_stats,
            map_locality_tiers: locality_tiers,
            reading,
            energy_j,
            exact_energy_j,
            cost,
            map_cost,
            reduce_cost,
            map_ipc: self.map_ipc,
        })
    }
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
        // of either the analytic path or the cluster engine.
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
        // of either the analytic path or the cluster engine.
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
        match try_simulate_cluster(&cfg) {
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
            let blind = prep.run_seeded(
                faults.as_ref(),
                &SimCache::new(),
                &mut RunScratch::default(),
                None,
            );
            let mut sink = ClusterTimeline::new(&prep.cluster);
            let seen = prep.run_seeded(
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
        let prep = ClusterPrep::new(&racked(Some(fc)), &SimCache::new());
        let scratch = &mut RunScratch::default();
        let cache = SimCache::new();
        let mut run = |seed: u64, cache: &SimCache| {
            prep.run_seeded(Some(&fc.seed(seed)), cache, scratch, None)
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
}
