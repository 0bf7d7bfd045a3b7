//! Event-driven heterogeneous cluster engine.
//!
//! A [`Cluster`] is a list of first-class [`Node`]s — each with its own
//! core kind and slot count — on which a phase's tasks are placed by a
//! pluggable [`Placement`] policy. Task durations are derived from the
//! node a task actually lands on (a map task is slower on an Atom node
//! than on a Xeon node in the same cluster), which is what lets the
//! paper's §3.5 heterogeneity-aware scheduling run on the simulator
//! instead of only on analytic cost tables.
//!
//! Map (and reduce) tasks run in waves over the cluster's task slots; the
//! wave structure is what makes small HDFS blocks (many short tasks) and
//! very large blocks (few tasks, idle slots) both lose — §3.1.1. Tasks
//! get a deterministic ±8% duration jitter so stragglers lengthen the
//! last wave realistically.
//!
//! Every task records a structured [`TaskSpan`] (queued → launched →
//! finished, node id, slot id, wave); phases compose into a
//! [`ClusterTimeline`] that exports as Chrome-trace-viewer JSON and a
//! per-node utilization CSV, and feeds the energy model a per-node
//! active-slot step function.
//!
//! The homogeneous path (every node identical, [`FifoAnySlot`]
//! placement) is **bit-identical** to the flat `makespan()` slot-pool
//! model this engine replaced: same FIFO grant order, same per-task
//! jitter, same integer-nanosecond clock arithmetic.
//!
//! This file holds the types a phase is described and reported in; the
//! rest is split by job: `slots` (free-slot index and slot bookkeeping
//! shared by both engines), `placement` (policies), `engine` (the
//! fault-free loop), `recovery` (the fault-aware engine) and `timeline`
//! (the run-wide span arena and its exports).

use hhsim_arch::CoreKind;
use hhsim_faults::{AttemptOutcome, FaultStats};
pub use hhsim_hdfs::LocalityTier;

mod engine;
mod late;
mod placement;
mod recovery;
mod slots;
#[cfg(test)]
mod tests;
mod timeline;

pub use engine::run_phase;
pub use placement::{FifoAnySlot, KindPreferring, Placement};
pub use recovery::{run_phase_faulty, run_phase_faulty_fetch, FetchPlan};
pub(crate) use recovery::{run_phase_fetching, EngineScratch, FetchView};
pub use slots::{placement_probes, reset_placement_probes, FreeSlots};
pub(crate) use timeline::StepBuffers;
pub use timeline::{ClusterTimeline, NodeMeta};

/// A batch of identically-shaped tasks to schedule on the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSet {
    /// Number of tasks.
    pub tasks: usize,
    /// Nominal duration of one task, seconds.
    pub task_seconds: f64,
    /// Per-task fixed overhead (launch, heartbeat), seconds.
    pub overhead_seconds: f64,
}

/// Deterministic per-task jitter factor in `[0.92, 1.08]`.
///
/// Public so out-of-crate oracles (the parity tests) can price tasks with
/// the exact durations the engine uses.
#[inline]
pub fn jitter(task_index: usize) -> f64 {
    attempt_jitter(task_index, 1)
}

/// Deterministic per-attempt jitter: attempt 1 is exactly [`jitter`]
/// (no-fault parity); re-executions and speculative backups draw a fresh
/// factor from the same `[0.92, 1.08]` distribution.
#[inline]
pub fn attempt_jitter(task_index: usize, attempt: u32) -> f64 {
    // SplitMix-style scramble for a platform-independent pseudo-random.
    let shift = u64::from(attempt.saturating_sub(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut x = (task_index as u64)
        .wrapping_add(shift)
        .wrapping_add(0x9e37_79b9);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let u = ((x >> 11) as f64) / ((1u64 << 53) as f64);
    0.92 + 0.16 * u
}

/// One machine of the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Display name ("xeon0", "atom1", ...).
    pub name: String,
    /// Which side of the big/little divide this node is on.
    pub kind: CoreKind,
    /// Concurrent task slots on this node.
    pub slots: usize,
}

/// A set of first-class nodes tasks are placed on.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// The nodes, in placement-preference order (node id = index).
    pub nodes: Vec<Node>,
}

impl Cluster {
    /// `nodes` identical machines of `kind` with `slots` slots each.
    ///
    /// # Panics
    ///
    /// Panics if the cluster would have zero slots.
    pub fn homogeneous(kind: CoreKind, nodes: usize, slots: usize) -> Self {
        assert!(nodes > 0 && slots > 0, "need at least one slot");
        let name = match kind {
            CoreKind::Big => "xeon",
            CoreKind::Little => "atom",
        };
        Cluster {
            nodes: (0..nodes)
                .map(|i| Node {
                    name: format!("{name}{i}"),
                    kind,
                    slots,
                })
                .collect(),
        }
    }

    /// A mixed cluster: `big` Xeon nodes (`big_slots` each) followed by
    /// `little` Atom nodes (`little_slots` each).
    ///
    /// # Panics
    ///
    /// Panics if the cluster would have zero slots.
    pub fn mixed(big: usize, big_slots: usize, little: usize, little_slots: usize) -> Self {
        let mut nodes = Vec::with_capacity(big + little);
        for i in 0..big {
            nodes.push(Node {
                name: format!("xeon{i}"),
                kind: CoreKind::Big,
                slots: big_slots,
            });
        }
        for i in 0..little {
            nodes.push(Node {
                name: format!("atom{i}"),
                kind: CoreKind::Little,
                slots: little_slots,
            });
        }
        let c = Cluster { nodes };
        assert!(c.total_slots() > 0, "need at least one slot");
        c
    }

    /// Slots across all nodes.
    pub fn total_slots(&self) -> usize {
        self.nodes.iter().map(|n| n.slots).sum()
    }

    /// Number of nodes of `kind`.
    pub fn count(&self, kind: CoreKind) -> usize {
        self.nodes.iter().filter(|n| n.kind == kind).count()
    }
}

/// Nominal per-task timing on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTiming {
    /// Nominal duration of one task on this node, seconds.
    pub task_seconds: f64,
    /// Per-task fixed overhead on this node, seconds.
    pub overhead_seconds: f64,
}

/// Per-task input-locality context for a phase: where each task's input
/// replicas live and what reading at each [`LocalityTier`] costs.
///
/// Node → rack assignment is round-robin (`node % racks`), matching
/// [`hhsim_hdfs::Topology`]. A phase without locality context (`None`
/// on [`PhaseLoad::locality`]) runs the exact legacy code path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseLocality {
    /// Replica-holder node ids per task (indexed by task). Tasks past
    /// the end of this list are treated as having no replicas (always
    /// off-rack when placed anywhere).
    pub replicas: Vec<Vec<usize>>,
    /// Number of racks in the fabric (≥ 1).
    pub racks: usize,
    /// Extra input-read seconds by tier, indexed
    /// `[node-local, rack-local, off-rack]`. Added un-jittered to the
    /// task duration on launch.
    pub read_seconds: [f64; 3],
}

impl PhaseLocality {
    /// Locality tier `task` sees when its attempt runs on `node`.
    #[inline]
    pub fn tier_of(&self, task: usize, node: usize) -> LocalityTier {
        let Some(reps) = self.replicas.get(task) else {
            return LocalityTier::OffRack;
        };
        if reps.contains(&node) {
            return LocalityTier::NodeLocal;
        }
        let racks = self.racks.max(1);
        if reps.iter().any(|&r| r % racks == node % racks) {
            return LocalityTier::RackLocal;
        }
        LocalityTier::OffRack
    }
}

/// A phase's work: `tasks` tasks plus the per-node timing they would see.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseLoad {
    /// Number of tasks to drain.
    pub tasks: usize,
    /// Timing per node (indexed by node id; length must match the
    /// cluster).
    pub timing: Vec<NodeTiming>,
    /// Input-locality context, if the phase reads placed block replicas.
    /// `None` (the default) keeps the engine on its legacy path.
    pub locality: Option<PhaseLocality>,
    /// Extra seconds per task (indexed by task; missing entries are
    /// zero), added un-jittered to each attempt — e.g. a reduce task's
    /// contended shuffle-fetch time. Empty (the default) keeps the
    /// engine on its legacy path.
    pub extra_seconds: Vec<f64>,
}

impl PhaseLoad {
    /// Every node sees the same timing — the homogeneous case.
    pub fn uniform(set: &TaskSet, cluster: &Cluster) -> Self {
        PhaseLoad {
            tasks: set.tasks,
            timing: vec![
                NodeTiming {
                    task_seconds: set.task_seconds,
                    overhead_seconds: set.overhead_seconds,
                };
                cluster.nodes.len()
            ],
            locality: None,
            extra_seconds: Vec::new(),
        }
    }

    /// Timing chosen per node kind — the heterogeneous case.
    pub fn by_kind(tasks: usize, big: NodeTiming, little: NodeTiming, cluster: &Cluster) -> Self {
        PhaseLoad {
            tasks,
            timing: cluster
                .nodes
                .iter()
                .map(|n| match n.kind {
                    CoreKind::Big => big,
                    CoreKind::Little => little,
                })
                .collect(),
            locality: None,
            extra_seconds: Vec::new(),
        }
    }

    /// Attaches input-locality context (builder style).
    #[must_use]
    pub fn with_locality(mut self, locality: PhaseLocality) -> Self {
        self.locality = Some(locality);
        self
    }

    /// Attaches per-task extra seconds (builder style).
    #[must_use]
    pub fn with_extra_seconds(mut self, extra: Vec<f64>) -> Self {
        self.extra_seconds = extra;
        self
    }

    /// Locality tier `task` would see running on `node` (node-local
    /// when the phase has no locality context).
    #[inline]
    pub fn tier_for(&self, task: usize, node: usize) -> LocalityTier {
        match &self.locality {
            None => LocalityTier::NodeLocal,
            Some(l) => l.tier_of(task, node),
        }
    }

    /// Un-jittered extra seconds charged to `task` at `tier`: the
    /// tier's input-read time plus the task's own extra entry. Exactly
    /// `0.0` on the legacy path, so adding it to a duration is bitwise
    /// invisible there.
    #[inline]
    fn extra_for(&self, task: usize, tier: LocalityTier) -> f64 {
        let read = self
            .locality
            .as_ref()
            .and_then(|l| l.read_seconds.get(tier.idx()).copied())
            .unwrap_or(0.0);
        read + self.extra_seconds.get(task).copied().unwrap_or(0.0)
    }
}

/// Slot admission counters of one engine run (the cluster-level analogue
/// of `hhsim_testkit::PoolStats`), surfaced through `Measurement` so
/// figures can report slot utilization and queueing delay per phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlotStats {
    /// Total slots across the cluster.
    pub capacity: usize,
    /// Largest number of slots simultaneously busy.
    pub peak_in_use: usize,
    /// Cumulative seconds tasks spent waiting for a slot.
    pub total_wait_s: f64,
    /// Tasks that had to wait (launched after the phase start).
    pub tasks_queued: u64,
    /// Longest the pending queue ever got.
    pub max_queue_len: usize,
}

impl SlotStats {
    /// Folds another phase's counters into this one (chained jobs).
    pub fn absorb(&mut self, other: &SlotStats) {
        self.capacity = self.capacity.max(other.capacity);
        self.peak_in_use = self.peak_in_use.max(other.peak_in_use);
        self.total_wait_s += other.total_wait_s;
        self.tasks_queued += other.tasks_queued;
        self.max_queue_len = self.max_queue_len.max(other.max_queue_len);
    }
}

/// One task attempt's structured trace record: plain numbers on its
/// phase's own clock. Which phase that is, only the caller knows — it
/// says so when it hands the run to [`ClusterTimeline::extend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpan {
    /// Task index within its phase.
    pub task: usize,
    /// Node the task ran on.
    pub node: usize,
    /// Slot within the node.
    pub slot: usize,
    /// 1-based count of tasks this slot has run (wave number).
    pub wave: usize,
    /// When the task entered the queue, seconds.
    pub queued_s: f64,
    /// When it got a slot, seconds.
    pub launched_s: f64,
    /// When it finished, seconds.
    pub finished_s: f64,
    /// 1-based attempt number (> 1 only for re-executions and
    /// speculative backups under fault injection).
    pub attempt: u32,
    /// How this attempt ended. Spans in [`PhaseRun::spans`] are always
    /// [`AttemptOutcome::Success`]; wasted attempts live in
    /// [`PhaseRun::wasted`].
    pub outcome: AttemptOutcome,
    /// Input locality of this attempt's landing node
    /// ([`LocalityTier::NodeLocal`] on phases without locality context).
    pub tier: LocalityTier,
}

/// A failure-domain event that is not a task span. A timeline exports it
/// as an instant event named by its [`Display`](std::fmt::Display) form,
/// `"rack-crash:<r>"` or `"rack-blacklisted:<r>"`; the engine records only
/// the event, so a run that keeps no timeline renders no label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainEvent {
    /// Rack `r` went down as a whole (its ToR switch crashed).
    RackCrash(usize),
    /// Blacklisting escalated to rack `r`.
    RackBlacklisted(usize),
}

impl DomainEvent {
    /// The label's name part and its rack.
    pub(crate) fn parts(self) -> (&'static str, usize) {
        match self {
            DomainEvent::RackCrash(r) => ("rack-crash", r),
            DomainEvent::RackBlacklisted(r) => ("rack-blacklisted", r),
        }
    }
}

impl std::fmt::Display for DomainEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, rack) = self.parts();
        write!(f, "{name}:{rack}")
    }
}

/// Result of draining one [`PhaseLoad`] through the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRun {
    /// Wall-clock seconds from phase start to last task completion.
    pub makespan_s: f64,
    /// Per-task spans, in task order (`spans[i].task == i`), with
    /// phase-relative times. One winning attempt per task.
    pub spans: Vec<TaskSpan>,
    /// Slot admission counters.
    pub slots: SlotStats,
    /// Attempts that occupied a slot without winning their task (failed,
    /// killed by a node crash, or cancelled speculative losers), in
    /// completion order. Empty without fault injection. These feed the
    /// timeline so the energy model charges wasted work.
    pub wasted: Vec<TaskSpan>,
    /// Completed map tasks re-executed during this (reduce) phase after
    /// a fetch failure, in completion order: `task` is the *map* task
    /// id, `outcome` is [`AttemptOutcome::Recovered`] and `tier` is the
    /// surviving-replica locality the re-run landed on. Empty without a
    /// [`FetchPlan`]. These feed the timeline so the energy model
    /// charges recovery work.
    pub recovered: Vec<TaskSpan>,
    /// Phase-relative `(seconds, event)` annotations for domain events
    /// that are not task spans, in the order they fired. Empty without
    /// active failure domains.
    pub annotations: Vec<(f64, DomainEvent)>,
    /// Fault and recovery counters (all zero without fault injection).
    pub faults: FaultStats,
}

impl PhaseRun {
    /// The run of a phase without tasks on `capacity` slots, in the
    /// vectors of `recycled` (cleared) when there is one: what a phase
    /// run is written over.
    fn idle(capacity: usize, recycled: Option<PhaseRun>) -> Self {
        let (mut spans, mut wasted, mut recovered, mut annotations) = match recycled {
            Some(run) => (run.spans, run.wasted, run.recovered, run.annotations),
            None => Default::default(),
        };
        spans.clear();
        wasted.clear();
        recovered.clear();
        annotations.clear();
        PhaseRun {
            makespan_s: 0.0,
            spans,
            slots: SlotStats {
                capacity,
                ..SlotStats::default()
            },
            wasted,
            recovered,
            annotations,
            faults: FaultStats::default(),
        }
    }
}
