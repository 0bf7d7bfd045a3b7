//! The only pricing of a run: everything about it that depends neither on
//! the fault seed nor on the meter.

use std::sync::Arc;

use hhsim_arch::{ComputeProfile, CoreKind, MachineModel};
use hhsim_hdfs::{
    BlockId, DiskModel, HdfsDefault, LocalityTier, NodeId, PlacementRequest, Topology,
};
use hhsim_workloads::AppId;

use super::config::{job_class, PlacementKind, Roster, SimConfig};
use super::contract::Validated;
use super::run::{Meter, RunScratch};
use super::timing::{cpu_seconds, job_timing, JobTiming};
use crate::cluster::{
    Cluster, FetchView, KindPreferring, Node, NodeTiming, PhaseLoad, PhaseLocality,
};
use crate::ratios::{AppRatios, JobRatios};
use crate::shuffle;
use crate::simcache::SimCache;

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
/// HDFS default replication factor for topology-aware block layouts.
const HDFS_REPLICATION: usize = 3;
/// Seed of the deterministic HDFS-default layout priced by
/// topology-active runs; chained jobs get distinct layouts via XOR.
const TOPOLOGY_LAYOUT_SEED: u64 = 0x0048_4446_534C_4159;

/// One phase of one chained job, as far as a fault seed cannot change it.
#[derive(Debug)]
pub(super) struct PhasePrep {
    /// Timeline label: "map" / "reduce", and the job index when jobs
    /// chain. Put together only for a timeline.
    pub(super) label: (&'static str, Option<usize>),
    /// What the engine drains, locality layout or shuffle extras inside.
    pub(super) load: PhaseLoad,
    /// Per kind `[big, little]`: I/O share of a task's time, the
    /// disk-power knob.
    pub(super) io_frac: [f64; 2],
}

/// One chained job's phases.
#[derive(Debug)]
pub(super) struct JobPrep {
    pub(super) map: PhasePrep,
    /// `None` for a map-only job.
    pub(super) reduce: Option<PhasePrep>,
    /// The job's tasks priced on the roster's lead kind: what the meters
    /// report per task and count utilization from.
    pub(super) timing: JobTiming,
}

/// What pricing keeps of one node kind the roster has.
#[derive(Clone, Copy)]
pub(super) struct KindPrep<'a> {
    pub(super) m: &'a MachineModel,
    pub(super) nodes: usize,
    /// Task slots per node.
    pub(super) slots: usize,
    /// Per-task launch overhead, seconds.
    pub(super) overhead: f64,
    /// The stall splits of [`priced_profiles`] on `m`, in its order.
    pub(super) stalls: [(f64, f64); 3],
}

/// The only list of the profiles whose stall splits pricing reads on a
/// machine — map, reduce, and the Hadoop average of task launch and the
/// master — looked up once per roster kind and filled by the fill stage.
pub(crate) fn priced_profiles(app: AppId) -> [ComputeProfile; 3] {
    [
        app.map_profile(),
        app.reduce_profile(),
        ComputeProfile::hadoop_average(),
    ]
}

/// The vectors of a [`ClusterPrep`], kept in a [`RunScratch`] from point to
/// point: a prep is written over them and hands them back after its run
/// ([`ClusterPrep::recycle`]), so a point allocates only where it outgrows
/// every prep before it. Each pool is a stack of spare vectors; replica
/// rows a smaller layout does not use stay in `rows`.
#[derive(Debug, Default)]
pub(crate) struct PrepScratch {
    nodes: Vec<Node>,
    /// Phase loads' per-node timing.
    timings: Vec<Vec<NodeTiming>>,
    /// Reduce loads' per-task shuffle seconds.
    extras: Vec<Vec<f64>>,
    /// Replica layouts, emptied of their rows.
    layouts: Vec<Vec<Vec<usize>>>,
    /// Replica rows, one block's holders each.
    rows: Vec<Vec<usize>>,
    chained: Vec<JobPrep>,
}

/// A spare vector of `pool`, or a new one; whatever it holds is the
/// taker's to clear (the `_in` constructors clear what they write over).
fn spare<T: Default>(pool: &mut Vec<T>) -> T {
    pool.pop().unwrap_or_default()
}

/// Seed-independent preparation of one run — the only pricing of it: node
/// roster, placement, per-job phase loads (replica layout and shuffle
/// extras inside), I/O fractions, labels, protocol time — everything
/// [`ClusterPrep::run`] borrows, whichever meter reads the run and across
/// fault replications. The replication engine builds this once per
/// [`SimConfig`] and fans seeds out over it, instead of re-deriving the
/// whole stack per seed. Its vectors come from a [`RunScratch`] and go
/// back to it ([`ClusterPrep::recycle`]).
pub(crate) struct ClusterPrep<'a> {
    pub(super) cfg: &'a SimConfig,
    /// The meter the config was validated for; [`ClusterPrep::run`] reads
    /// the run with it.
    pub(super) meter: Meter,
    pub(super) ratios: Arc<AppRatios>,
    /// The kinds the roster has, `[big, little]`.
    pub(super) kinds: [Option<KindPrep<'a>>; 2],
    /// The kind of the first node, which runs the master; the only kind
    /// of a homogeneous cluster.
    pub(super) lead: KindPrep<'a>,
    /// The node kind placement prefers; `None` is first-free-slot FIFO.
    pub(super) preferred: Option<CoreKind>,
    pub(super) cluster: Cluster,
    pub(super) map_prof: ComputeProfile,
    pub(super) red_prof: ComputeProfile,
    /// The first job; phase power and the per-task details follow its
    /// task mix.
    pub(super) dominant: JobPrep,
    /// The jobs chained behind it (Grep's sort, FP-Growth's mining).
    pub(super) chained: Vec<JobPrep>,
    /// Active rack fabric, when the run models the network topology.
    pub(super) topology: Option<Topology>,
    pub(super) others_wall: f64,
    /// Per kind `[big, little]`: watts a node draws during the others
    /// window.
    pub(super) oth_power: [f64; 2],
}

impl PhasePrep {
    /// The plan a reduce phase recovers this map phase's outputs with
    /// while `holders` have them; `None` without a replica layout.
    pub(super) fn fetch_view<'a>(
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
#[inline]
pub(super) fn of_kind<T>(kind: CoreKind, big: T, little: T) -> T {
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
    /// Derives everything about a validated config's run that depends
    /// neither on the fault seed nor on the meter, and keeps the meter:
    /// written over the vectors `scratch` keeps for a prep, which
    /// [`ClusterPrep::recycle`] hands back.
    pub(crate) fn new(valid: Validated<'a>, cache: &SimCache, scratch: &mut RunScratch) -> Self {
        let PrepScratch {
            nodes,
            timings,
            extras,
            layouts,
            rows,
            chained,
        } = &mut scratch.prep;
        let cfg = valid.cfg();
        debug_assert!(cfg.data_per_node_bytes > 0, "validated: input data");
        let f = cfg.frequency;
        let ratios = cache.ratios(cfg.app);
        let disk = DiskModel::sata_7200();
        let profiles = priced_profiles(cfg.app);
        let [map_prof, red_prof, hadoop_avg] = &profiles;

        // The kinds the roster has: slots per node, the stall splits of
        // the priced profiles (frequency-independent) and task-launch
        // overhead.
        let Roster {
            lead,
            other,
            placement,
        } = cfg.roster();
        let kind_prep = |(m, nodes): (&'a MachineModel, usize)| {
            let stalls = profiles.each_ref().map(|p| cache.stall_split(m, p));
            let [.., launch] = stalls;
            // Task launch (JVM spin-up) penalizes the little core beyond
            // its CPI gap: cold-start code is branchy, serial and
            // cache-hostile.
            let overhead = cpu_seconds(m, hadoop_avg, launch, f, TASK_OVERHEAD_INSTR)
                * of_kind(m.core.kind, 1.0, 1.8);
            KindPrep {
                m,
                nodes,
                slots: cfg.mappers_per_node.unwrap_or(m.num_cores),
                overhead,
                stalls,
            }
        };
        let lead = kind_prep(lead);
        let other = other.map(kind_prep);
        let lead_kind = lead.m.core.kind;
        let kinds = by_kind(lead_kind, Some(lead), other.map(Some), None);
        let [(n_big, big_slots, big_overhead), (n_little, little_slots, little_overhead)] =
            kinds.map(|k| k.map_or((0, 0, 0.0), |k| (k.nodes, k.slots, k.overhead)));
        let nodes_total = n_big + n_little;
        debug_assert!(nodes_total > 0, "validated: at least one node");
        let cluster = Cluster::mixed_in(
            std::mem::take(nodes),
            [(n_big, big_slots), (n_little, little_slots)],
        );

        let preferred = match placement {
            PlacementKind::FifoAny => None,
            PlacementKind::PaperClass(goal) => {
                Some(KindPreferring::for_class(job_class(cfg.app), goal).preferred)
            }
        };
        // One phase's load and its per-kind I/O share, from its (task
        // seconds, I/O seconds) on either node kind.
        let multi_job = ratios.jobs.len() > 1;
        let mut phase = |base, ji, tasks, [big, little]: [(f64, f64); 2]| {
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
                load: PhaseLoad::by_kind_in(
                    spare(timings),
                    tasks,
                    [timing(big, big_overhead), timing(little, little_overhead)],
                    &cluster,
                ),
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
            job_timing(k, &cluster, cfg, &disk, job, map_prof, red_prof)
        };
        let mut job_prep = |(ji, job): (usize, &JobRatios)| {
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
                let policy = HdfsDefault::new(TOPOLOGY_LAYOUT_SEED ^ ji as u64);
                let replication = HDFS_REPLICATION.min(nodes_total);
                let mut replicas = spare(layouts);
                replicas.clear();
                replicas.extend((0..t.n_map).map(|task| {
                    let mut row = spare(rows);
                    let block = PlacementRequest {
                        block: BlockId(task as u64),
                        writer: Some(NodeId(task % nodes_total)),
                        replication,
                        num_nodes: nodes_total,
                    };
                    policy.place_into(&block, topo, &mut row);
                    row
                }));
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "one map task's input, clamped non-negative and far below u64::MAX; locality is priced in whole bytes"
                )]
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
                    let mut extra = spare(extras);
                    extra.clear();
                    extra.extend((contended.iter().zip(&baseline)).map(|(c, b)| (c - b).max(0.0)));
                    red.load.extra_seconds = extra;
                }
            }
            JobPrep {
                map,
                reduce,
                timing: t,
            }
        };
        let dominant = job_prep((0, ratios.primary()));
        let mut chained = std::mem::take(chained);
        chained.extend((ratios.jobs.iter().enumerate().skip(1)).map(job_prep));

        // Others: setup/cleanup protocol time plus serial master
        // bookkeeping (scales with task count and core speed), run by the
        // first node's machine.
        let tasks: usize = (std::iter::once(&dominant).chain(&chained))
            .map(|j| j.timing.n_map + j.timing.n_red)
            .sum();
        let [.., launch_stalls] = lead.stalls;
        let others_wall = ratios.jobs.len() as f64 * (JOB_SETUP_S + JOB_CLEANUP_S)
            + cpu_seconds(
                lead.m,
                hadoop_avg,
                launch_stalls,
                f,
                MASTER_INSTR_PER_TASK * tasks as f64 / nodes_total as f64,
            );
        let oth_power = kinds.map(|k| {
            k.map_or(0.0, |KindPrep { m, .. }| {
                let op = m.operating_point(f);
                (m.power)
                    .node_power(op, 1, m.num_cores, 0.35, 0.2, 0.1)
                    .total()
            })
        });
        let [map_prof, red_prof, _] = profiles;

        ClusterPrep {
            cfg,
            meter: valid.meter(),
            ratios,
            kinds,
            lead,
            preferred,
            cluster,
            map_prof,
            red_prof,
            dominant,
            chained,
            topology,
            others_wall,
            oth_power,
        }
    }

    /// Hands the prep's vectors back to `scratch`, for the next prep it
    /// runs to be written over.
    pub(crate) fn recycle(self, scratch: &mut RunScratch) {
        let ClusterPrep {
            cluster,
            dominant,
            mut chained,
            ..
        } = self;
        let pools = &mut scratch.prep;
        pools.nodes = cluster.nodes;
        for job in std::iter::once(dominant).chain(chained.drain(..)) {
            for PhasePrep { load, .. } in std::iter::once(job.map).chain(job.reduce) {
                pools.timings.push(load.timing);
                if load.extra_seconds.capacity() > 0 {
                    pools.extras.push(load.extra_seconds);
                }
                if let Some(mut layout) = load.locality.map(|l| l.replicas) {
                    pools.rows.append(&mut layout);
                    pools.layouts.push(layout);
                }
            }
        }
        pools.chained = chained;
    }

    /// The jobs in execution order.
    #[inline]
    pub(super) fn jobs(&self) -> impl Iterator<Item = &JobPrep> {
        std::iter::once(&self.dominant).chain(&self.chained)
    }

    /// Node `i` and the machine model it runs.
    #[inline]
    pub(super) fn node(&self, i: usize) -> Option<(&Node, &'a MachineModel)> {
        let node = self.cluster.nodes.get(i)?;
        let [big, little] = self.kinds;
        Some((node, of_kind(node.kind, big, little)?.m))
    }
}
