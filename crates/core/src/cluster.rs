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

use hhsim_arch::CoreKind;
use hhsim_des::{EventId, SimTime, Simulation};
use hhsim_energy::MetricKind;
use hhsim_faults::{AttemptOutcome, FaultStats, PhaseError, PhaseFaults, RecoveryPolicy};
pub use hhsim_hdfs::LocalityTier;
use hhsim_hdfs::{NodeId as HdfsNodeId, Topology};
use hhsim_sched::{paper_schedule, CostTable, JobClass};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;

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
pub fn jitter(task_index: usize) -> f64 {
    // SplitMix-style scramble for a platform-independent pseudo-random.
    let mut x = task_index as u64 + 0x9e37_79b9;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let u = ((x >> 11) as f64) / ((1u64 << 53) as f64);
    0.92 + 0.16 * u
}

/// Deterministic per-attempt jitter: attempt 1 is exactly [`jitter`]
/// (no-fault parity); re-executions and speculative backups draw a fresh
/// factor from the same `[0.92, 1.08]` distribution.
pub fn attempt_jitter(task_index: usize, attempt: u32) -> f64 {
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Display name ("xeon0", "atom1", ...).
    pub name: String,
    /// Which side of the big/little divide this node is on.
    pub kind: CoreKind,
    /// Concurrent task slots on this node.
    pub slots: usize,
}

/// A set of first-class nodes tasks are placed on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    fn extra_for(&self, task: usize, tier: LocalityTier) -> f64 {
        let read = self
            .locality
            .as_ref()
            .and_then(|l| l.read_seconds.get(tier.idx()).copied())
            .unwrap_or(0.0);
        read + self.extra_seconds.get(task).copied().unwrap_or(0.0)
    }
}

thread_local! {
    /// Bitmap words examined by [`FreeSlots`] placement queries on this
    /// thread. Pure diagnostics for the scale regression tests — never
    /// feeds simulation state.
    static PLACEMENT_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bitmap words examined by placement queries on this thread since the
/// last [`reset_placement_probes`]. The scale regression tests use this
/// to pin the engine's amortized-O(1) node lookup: a 10k-node run must
/// not degrade to per-event linear scans when nodes die or get
/// blacklisted.
pub fn placement_probes() -> u64 {
    PLACEMENT_PROBES.with(|p| p.get())
}

/// Zeroes this thread's [`placement_probes`] counter.
pub fn reset_placement_probes() {
    PLACEMENT_PROBES.with(|p| p.set(0));
}

fn count_probes(words: u64) {
    PLACEMENT_PROBES.with(|p| p.set(p.get() + words));
}

/// Two-level bitmap over node ids: `words` holds one bit per node,
/// `summary` one bit per (non-zero) word. Find-first-set is two word
/// scans — amortized O(1) at 10k nodes — and always returns the *lowest*
/// set index, which is what keeps placement decisions byte-identical to
/// the linear scans this structure replaced.
#[derive(Debug, Clone, Default)]
struct NodeBitmap {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl NodeBitmap {
    fn new(nodes: usize) -> Self {
        let nw = nodes.div_ceil(64);
        NodeBitmap {
            words: vec![0; nw],
            summary: vec![0; nw.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        let w = i / 64;
        if let Some(word) = self.words.get_mut(w) {
            *word |= 1u64 << (i % 64);
        }
        if let Some(s) = self.summary.get_mut(w / 64) {
            *s |= 1u64 << (w % 64);
        }
    }

    fn clear(&mut self, i: usize) {
        let w = i / 64;
        let Some(word) = self.words.get_mut(w) else {
            return;
        };
        *word &= !(1u64 << (i % 64));
        if *word == 0 {
            if let Some(s) = self.summary.get_mut(w / 64) {
                *s &= !(1u64 << (w % 64));
            }
        }
    }

    /// Lowest set index, if any.
    fn first(&self) -> Option<usize> {
        for (si, &s) in self.summary.iter().enumerate() {
            count_probes(1);
            if s == 0 {
                continue;
            }
            let w = si * 64 + s.trailing_zeros() as usize;
            count_probes(1);
            let word = self.words.get(w).copied().unwrap_or(0);
            if word == 0 {
                return None; // unreachable: summary bit implies a set word
            }
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        None
    }

    /// Ascending iterator over set indices.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        count_probes(self.words.len() as u64);
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// Amortized-O(1) free-slot index over the cluster's nodes: per-node
/// free counts plus ready-node bitmaps (overall and per core kind) that
/// track exactly the nodes placement may choose — usable (alive, not
/// blacklisted) with at least one free slot.
///
/// Placement policies query this instead of scanning a free-count slice;
/// every query returns the same node the old linear scan returned (the
/// lowest-id match), so spans and artifacts stay byte-identical while a
/// 10k-node dispatch drops from O(nodes) to O(1) per event.
#[derive(Debug, Clone)]
pub struct FreeSlots {
    free: Vec<usize>,
    alive: Vec<bool>,
    usable: Vec<bool>,
    any: NodeBitmap,
    big: NodeBitmap,
    little: NodeBitmap,
    kind_of: Vec<CoreKind>,
    /// Free slots summed over usable nodes.
    free_total: usize,
    /// Nodes currently usable.
    usable_nodes: usize,
}

impl FreeSlots {
    /// `dead[n]` nodes start dead: zero free slots, never usable; `None`
    /// (the fault-free engine) starts every node alive.
    fn with_dead(cluster: &Cluster, dead: Option<&[bool]>) -> Self {
        let n = cluster.nodes.len();
        let mut fs = FreeSlots {
            free: vec![0; n],
            alive: vec![true; n],
            usable: vec![true; n],
            any: NodeBitmap::new(n),
            big: NodeBitmap::new(n),
            little: NodeBitmap::new(n),
            kind_of: cluster.nodes.iter().map(|nd| nd.kind).collect(),
            free_total: 0,
            usable_nodes: n,
        };
        for (i, nd) in cluster.nodes.iter().enumerate() {
            if dead.and_then(|d| d.get(i)).copied().unwrap_or(false) {
                if let Some(a) = fs.alive.get_mut(i) {
                    *a = false;
                }
                if let Some(u) = fs.usable.get_mut(i) {
                    *u = false;
                }
                fs.usable_nodes -= 1;
                continue;
            }
            if let Some(f) = fs.free.get_mut(i) {
                *f = nd.slots;
            }
            fs.free_total += nd.slots;
            if nd.slots > 0 {
                fs.set_ready(i);
            }
        }
        fs
    }

    fn set_ready(&mut self, node: usize) {
        self.any.set(node);
        match self.kind_of.get(node) {
            Some(CoreKind::Big) => self.big.set(node),
            Some(CoreKind::Little) => self.little.set(node),
            None => {}
        }
    }

    fn clear_ready(&mut self, node: usize) {
        self.any.clear(node);
        match self.kind_of.get(node) {
            Some(CoreKind::Big) => self.big.clear(node),
            Some(CoreKind::Little) => self.little.clear(node),
            None => {}
        }
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.free.len()
    }

    /// Free slots on `node` (0 for dead nodes).
    pub fn free(&self, node: usize) -> usize {
        self.free.get(node).copied().unwrap_or(0)
    }

    /// True if `node` may receive new attempts (alive, not blacklisted).
    pub fn usable(&self, node: usize) -> bool {
        self.usable.get(node).copied().unwrap_or(false)
    }

    /// Free slots summed over usable nodes; zero means dispatch must wait.
    pub fn total_free(&self) -> usize {
        self.free_total
    }

    /// Lowest-id usable node with a free slot.
    pub fn first_free(&self) -> Option<usize> {
        self.any.first()
    }

    /// Lowest-id usable node of `kind` with a free slot.
    pub fn first_free_of(&self, kind: CoreKind) -> Option<usize> {
        match kind {
            CoreKind::Big => self.big.first(),
            CoreKind::Little => self.little.first(),
        }
    }

    /// Ascending iterator over usable nodes with a free slot.
    pub fn free_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.any.iter()
    }

    /// True if any node other than `node` can still accept attempts.
    fn usable_other_than(&self, node: usize) -> bool {
        self.usable_nodes > 1 || (self.usable_nodes == 1 && !self.usable(node))
    }

    fn alive(&self, node: usize) -> bool {
        self.alive.get(node).copied().unwrap_or(false)
    }

    /// Takes one free slot on a usable `node`.
    fn claim(&mut self, node: usize) {
        let Some(f) = self.free.get_mut(node) else {
            return;
        };
        *f -= 1;
        self.free_total -= 1;
        if *f == 0 {
            self.clear_ready(node);
        }
    }

    /// Returns a slot to `node`'s pool (no-op on a crashed node: its
    /// pool is zeroed forever).
    fn release(&mut self, node: usize) {
        if !self.alive(node) {
            return;
        }
        let Some(f) = self.free.get_mut(node) else {
            return;
        };
        *f += 1;
        let became_ready = *f == 1;
        if self.usable(node) {
            self.free_total += 1;
            if became_ready {
                self.set_ready(node);
            }
        }
    }

    /// Masks `node` from placement (blacklisting): its free slots stay
    /// physically free but stop counting or matching.
    fn set_unusable(&mut self, node: usize) {
        if !self.usable(node) {
            return;
        }
        if let Some(u) = self.usable.get_mut(node) {
            *u = false;
        }
        self.usable_nodes -= 1;
        self.free_total -= self.free(node);
        self.clear_ready(node);
    }

    /// Kills `node` (crash): unusable and zero slots for the rest of the
    /// run.
    fn kill(&mut self, node: usize) {
        self.set_unusable(node);
        if let Some(a) = self.alive.get_mut(node) {
            *a = false;
        }
        if let Some(f) = self.free.get_mut(node) {
            *f = 0;
        }
    }
}

/// Per-node slot-occupancy bitmaps (bit set = slot free), flattened into
/// one word array. Claiming always takes the lowest free slot — the same
/// slot the old per-slot boolean scan picked — in O(1) for clusters with
/// up to 64 slots per node.
#[derive(Debug, Clone)]
struct SlotTable {
    words: Vec<u64>,
    /// Word range of node `n` is `offset[n]..offset[n + 1]`.
    offset: Vec<usize>,
}

impl SlotTable {
    fn new(cluster: &Cluster) -> Self {
        let mut offset = Vec::with_capacity(cluster.nodes.len() + 1);
        offset.push(0);
        let mut total = 0usize;
        for n in &cluster.nodes {
            total += n.slots.div_ceil(64);
            offset.push(total);
        }
        let mut words = vec![0u64; total];
        for (i, n) in cluster.nodes.iter().enumerate() {
            let base = offset.get(i).copied().unwrap_or(0);
            let mut left = n.slots;
            let mut w = base;
            while left > 0 {
                let bits = left.min(64);
                if let Some(word) = words.get_mut(w) {
                    *word = if bits == 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits) - 1
                    };
                }
                left -= bits;
                w += 1;
            }
        }
        SlotTable { words, offset }
    }

    /// Claims the lowest free slot on `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node has no free slot (engine invariant: callers
    /// check the free count first).
    fn claim_first(&mut self, node: usize) -> usize {
        let lo = self.offset.get(node).copied().unwrap_or(0);
        let hi = self.offset.get(node + 1).copied().unwrap_or(lo);
        for w in lo..hi {
            let Some(word) = self.words.get_mut(w) else {
                break;
            };
            if *word == 0 {
                continue;
            }
            let bit = word.trailing_zeros() as usize;
            *word &= !(1u64 << bit);
            return (w - lo) * 64 + bit;
        }
        unreachable!("free slot exists on chosen node");
    }

    /// Marks `slot` on `node` free again.
    fn release(&mut self, node: usize, slot: usize) {
        let lo = self.offset.get(node).copied().unwrap_or(0);
        if let Some(word) = self.words.get_mut(lo + slot / 64) {
            *word |= 1u64 << (slot % 64);
        }
    }
}

/// Chooses the node for the task at the head of the FIFO queue.
///
/// The engine is work-conserving: `place` is only called when at least
/// one slot is free, and must return a usable node with a free slot.
pub trait Placement {
    /// Node id for `task`; `free` indexes the cluster's ready nodes.
    fn place(&mut self, task: usize, cluster: &Cluster, free: &FreeSlots) -> usize;

    /// Policy label for traces and reports.
    fn name(&self) -> &'static str;

    /// Locality-aware placement: with locality context, prefer a free
    /// slot on a node holding `task`'s input (node-local), then any free
    /// slot in a replica's rack (rack-local), and only then fall back to
    /// the policy's own [`place`](Placement::place) choice, classified
    /// against the replica set. Without context this *is* `place` (the
    /// legacy path, byte-identical).
    ///
    /// Provided once for every policy so the delay-scheduling preference
    /// order (node → rack → anywhere) stays consistent across policies.
    fn place_local(
        &mut self,
        task: usize,
        cluster: &Cluster,
        free: &FreeSlots,
        locality: Option<&PhaseLocality>,
    ) -> (usize, LocalityTier) {
        let Some(loc) = locality else {
            return (self.place(task, cluster, free), LocalityTier::NodeLocal);
        };
        let nodes = cluster.nodes.len();
        if let Some(reps) = loc.replicas.get(task) {
            // 1. A free slot on a replica holder: node-local.
            for &n in reps {
                if n < nodes && free.usable(n) && free.free(n) > 0 {
                    return (n, LocalityTier::NodeLocal);
                }
            }
            // 2. A free slot in a replica's rack: rack-local. Racks are
            // round-robin (node % racks), so a rack is a stride range.
            let racks = loc.racks.max(1);
            if racks > 1 {
                let mut seen: Vec<usize> = Vec::with_capacity(reps.len());
                for &r in reps {
                    let rack = r % racks;
                    if seen.contains(&rack) {
                        continue;
                    }
                    seen.push(rack);
                    for n in (rack..nodes).step_by(racks) {
                        if free.usable(n) && free.free(n) > 0 {
                            return (n, LocalityTier::RackLocal);
                        }
                    }
                }
            }
        }
        // 3. Anywhere the policy likes; classify what we got.
        let n = self.place(task, cluster, free);
        (n, loc.tier_of(task, n))
    }
}

/// Baseline: first node with a free slot, in node-id order. On a
/// homogeneous cluster this reproduces the flat slot-pool model exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoAnySlot;

impl Placement for FifoAnySlot {
    fn place(&mut self, _task: usize, _cluster: &Cluster, free: &FreeSlots) -> usize {
        free.first_free().expect("a slot is free")
    }

    fn name(&self) -> &'static str {
        "fifo-any"
    }
}

/// Heterogeneity-aware placement: prefer free slots on the node kind the
/// paper's scheduler allocates for the job, spill onto the other kind
/// only when the preferred kind is saturated (work-conserving, so adding
/// a node can never slow a phase down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindPreferring {
    /// The node kind tasks should land on first.
    pub preferred: CoreKind,
}

impl KindPreferring {
    /// The paper's §3.5 pseudo-code: compute-bound → little, I/O-bound →
    /// big, hybrid by goal ([`paper_schedule`]).
    pub fn for_class(class: JobClass, goal: MetricKind) -> Self {
        KindPreferring {
            preferred: paper_schedule(class, goal).kind,
        }
    }

    /// Characterization-driven: the kind of [`CostTable::optimal`] under
    /// `goal` (falls back to big on an empty table).
    pub fn from_cost_table(table: &CostTable, goal: MetricKind) -> Self {
        KindPreferring {
            preferred: table
                .optimal(goal)
                .map(|(a, _)| a.kind)
                .unwrap_or(CoreKind::Big),
        }
    }
}

impl Placement for KindPreferring {
    fn place(&mut self, _task: usize, _cluster: &Cluster, free: &FreeSlots) -> usize {
        free.first_free_of(self.preferred)
            .or_else(|| free.first_free())
            .expect("a slot is free")
    }

    fn name(&self) -> &'static str {
        match self.preferred {
            CoreKind::Big => "prefer-big",
            CoreKind::Little => "prefer-little",
        }
    }
}

/// Slot admission counters of one engine run (the cluster-level analogue
/// of [`hhsim_des::PoolStats`]), surfaced through `Measurement` so
/// figures can report slot utilization and queueing delay per phase.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
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

    /// Mean queueing delay per task that waited, seconds.
    pub fn mean_wait_s(&self) -> f64 {
        if self.tasks_queued == 0 {
            0.0
        } else {
            self.total_wait_s / self.tasks_queued as f64
        }
    }
}

/// One task's structured trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpan {
    /// Phase label ("map", "reduce", possibly suffixed per chained job).
    pub phase: String,
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
    #[serde(default)]
    pub attempt: u32,
    /// How this attempt ended. Spans in [`PhaseRun::spans`] are always
    /// [`AttemptOutcome::Success`]; wasted attempts live in
    /// [`PhaseRun::wasted`].
    #[serde(default)]
    pub outcome: AttemptOutcome,
    /// Input locality of this attempt's landing node
    /// ([`LocalityTier::NodeLocal`] on phases without locality context).
    #[serde(default)]
    pub tier: LocalityTier,
}

/// Result of draining one [`PhaseLoad`] through the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRun {
    /// Wall-clock seconds from phase start to last task completion.
    pub makespan_s: f64,
    /// Per-task spans, in task order, with phase-relative times and an
    /// empty phase label (filled in by [`ClusterTimeline::extend`]).
    /// One winning attempt per task.
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
    /// Phase-relative `(seconds, label)` annotations for domain events
    /// that are not task spans: `"rack-crash:<r>"` when a whole rack
    /// went down, `"rack-blacklisted:<r>"` when blacklisting escalated
    /// to rack granularity. Empty without active failure domains.
    pub annotations: Vec<(f64, String)>,
    /// Fault and recovery counters (all zero without fault injection).
    pub faults: FaultStats,
}

impl PhaseRun {
    /// The run of a phase without tasks on `capacity` slots.
    fn idle(capacity: usize) -> Self {
        PhaseRun {
            makespan_s: 0.0,
            spans: Vec::new(),
            slots: SlotStats {
                capacity,
                ..SlotStats::default()
            },
            wasted: Vec::new(),
            recovered: Vec::new(),
            annotations: Vec::new(),
            faults: FaultStats::default(),
        }
    }
}

/// Slot bookkeeping of one engine run, shared by the fault-free and the
/// fault-aware engine: which slots are free, which wave each is on, who
/// is waiting (`Q` is the engine's queue entry), and the admission
/// counters. `slots` also carries node health: dead and blacklisted
/// nodes are unusable.
#[derive(Debug)]
struct SlotBook<Q> {
    slots: FreeSlots,
    slot_table: SlotTable,
    slot_waves: Vec<Vec<usize>>,
    queue: VecDeque<Q>,
    in_use: usize,
    max_finish: SimTime,
    stats: SlotStats,
}

impl<Q> SlotBook<Q> {
    /// Every slot of `cluster` free (none on `dead` nodes), `queue` waiting.
    fn new(cluster: &Cluster, dead: Option<&[bool]>, queue: VecDeque<Q>) -> Self {
        SlotBook {
            slots: FreeSlots::with_dead(cluster, dead),
            slot_table: SlotTable::new(cluster),
            slot_waves: cluster.nodes.iter().map(|n| vec![0; n.slots]).collect(),
            queue,
            in_use: 0,
            max_finish: SimTime::ZERO,
            stats: SlotStats {
                capacity: cluster.total_slots(),
                ..SlotStats::default()
            },
        }
    }

    /// Marks the first idle slot on `node` busy; returns `(slot, wave)`.
    fn claim_slot(&mut self, node: usize) -> (usize, usize) {
        self.slots.claim(node);
        self.in_use += 1;
        self.stats.peak_in_use = self.stats.peak_in_use.max(self.in_use);
        let slot = self.slot_table.claim_first(node);
        match self.slot_waves.get_mut(node).and_then(|w| w.get_mut(slot)) {
            Some(w) => {
                *w += 1;
                (slot, *w)
            }
            None => (slot, 0), // unreachable: slot ids come from the table
        }
    }

    /// Returns an attempt's slot to the pool (no-op free count on a node
    /// that has since crashed: its pool is already zeroed forever).
    fn release_slot(&mut self, node: usize, slot: usize) {
        self.slots.release(node);
        self.in_use -= 1;
        self.slot_table.release(node, slot);
    }

    /// Counts a launch that spent `wait` in the queue.
    fn note_wait(&mut self, wait: SimTime) {
        if !wait.is_zero() {
            self.stats.tasks_queued += 1;
            self.stats.total_wait_s += wait.as_secs_f64();
        }
    }

    /// Extends the makespan to a completion at `now`.
    fn note_finish(&mut self, now: SimTime) {
        if now > self.max_finish {
            self.max_finish = now;
        }
    }
}

/// The fault-free engine's only calendar event: the task on `slot` of
/// `node` completed.
#[derive(Debug, Clone, Copy)]
struct Done {
    node: usize,
    slot: usize,
}

/// Drains `load` over `cluster` under `placement`, recording a span per
/// task. All tasks are queued at phase start (time zero) in task order;
/// a freed slot always goes to the head of the queue (FIFO admission,
/// placement only chooses *which* free slot).
///
/// # Panics
///
/// Panics if the cluster has no slots or `load.timing` does not match
/// the cluster's node count.
pub fn run_phase(cluster: &Cluster, load: &PhaseLoad, placement: &mut dyn Placement) -> PhaseRun {
    let capacity = cluster.total_slots();
    assert!(capacity > 0, "need at least one slot");
    assert_eq!(
        load.timing.len(),
        cluster.nodes.len(),
        "one timing entry per node"
    );
    if load.tasks == 0 {
        return PhaseRun::idle(capacity);
    }

    let mut sim = Simulation::default();
    let mut spans: Vec<Option<TaskSpan>> = vec![None; load.tasks];
    let mut book = SlotBook::new(cluster, None, (0..load.tasks).collect());
    book.stats.max_queue_len = load.tasks.saturating_sub(capacity);
    loop {
        // Launch queued tasks while slots are free: at phase start and
        // again after every completion, so grant order is FIFO at
        // identical virtual times — exactly the slot-pool semantics of
        // the flat model this engine replaced.
        while book.slots.total_free() > 0 {
            let Some(&task) = book.queue.front() else {
                break;
            };
            let (node, tier) =
                placement.place_local(task, cluster, &book.slots, load.locality.as_ref());
            assert!(book.slots.free(node) > 0, "placement chose a busy node");
            book.queue.pop_front();
            let now = sim.now();
            let (slot, wave) = book.claim_slot(node);
            book.note_wait(now);
            let t = &load.timing[node];
            let dur = SimTime::from_secs_f64(
                t.task_seconds * jitter(task) + t.overhead_seconds + load.extra_for(task, tier),
            );
            spans[task] = Some(TaskSpan {
                phase: String::new(),
                task,
                node,
                slot,
                wave,
                queued_s: 0.0,
                launched_s: now.as_secs_f64(),
                finished_s: (now + dur).as_secs_f64(),
                attempt: 1,
                outcome: AttemptOutcome::Success,
                tier,
            });
            sim.push_in(dur, Done { node, slot });
        }
        let Some(Done { node, slot }) = sim.pop() else {
            break;
        };
        book.release_slot(node, slot);
        book.note_finish(sim.now());
    }
    PhaseRun {
        makespan_s: book.max_finish.as_secs_f64(),
        spans: spans
            .into_iter()
            .map(|s| s.expect("every task was launched"))
            .collect(),
        slots: book.stats,
        wasted: Vec::new(),
        recovered: Vec::new(),
        annotations: Vec::new(),
        faults: FaultStats::default(),
    }
}

/// Flat wall-clock of a homogeneous phase — the engine's answer to the
/// old `makespan(set, slots)` question (same FIFO waves, same jitter).
pub fn homogeneous_makespan(set: &TaskSet, nodes: usize, slots: usize, kind: CoreKind) -> f64 {
    let cluster = Cluster::homogeneous(kind, nodes, slots);
    run_phase(
        &cluster,
        &PhaseLoad::uniform(set, &cluster),
        &mut FifoAnySlot,
    )
    .makespan_s
}

/// A task waiting for a slot, remembering when it (re-)entered the queue.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    task: usize,
    queued: SimTime,
}

/// An attempt currently occupying a slot in the fault-aware engine.
#[derive(Debug, Clone, Copy)]
struct RunningAttempt {
    attempt: u32,
    node: usize,
    slot: usize,
    wave: usize,
    queued: SimTime,
    launched: SimTime,
    /// Full would-be runtime on its node (failure truncates it).
    duration: SimTime,
    /// Progress rate estimate: 1 / full runtime in seconds.
    rate: f64,
    /// The pending failure-or-completion calendar event.
    event: EventId,
    speculative: bool,
    /// Input locality of this attempt's landing node.
    tier: LocalityTier,
}

/// Map-output availability context for a reduce phase, enabling
/// Hadoop's fetch-failure semantics: when a node dies after its map
/// tasks completed, those outputs are lost, in-flight reduce attempts
/// register fetch failures, and the engine re-executes the lost maps on
/// surviving nodes — re-querying the surviving replica set (via
/// [`Topology::surviving_tier`]) so the re-run is priced at the correct
/// locality tier. A map whose every input replica is gone fails the
/// phase with [`PhaseError::DataLost`].
#[derive(Debug, Clone, PartialEq)]
pub struct FetchPlan {
    /// Node that holds each completed map task's output (indexed by map
    /// task), i.e. the map phase's winning span nodes.
    pub holders: Vec<usize>,
    /// Input-block replica holders per map task — the NameNode's answer
    /// a re-execution consults after filtering to surviving nodes.
    pub map_replicas: Vec<Vec<usize>>,
    /// The fabric replicas were placed against, answering
    /// surviving-replica locality queries for re-executed maps.
    pub topology: Topology,
    /// Extra input-read seconds by tier for a re-executed map, indexed
    /// `[node-local, rack-local, off-rack]`.
    pub read_seconds: [f64; 3],
    /// Per-node map-task timing (a re-executed map runs at map speed,
    /// not the surrounding reduce phase's).
    pub map_timing: Vec<NodeTiming>,
}

/// Live fetch-failure recovery state inside one engine run.
#[derive(Debug)]
struct FetchCtx {
    /// Current holder of each map output (updated as re-runs land).
    holders: Vec<usize>,
    replicas: Vec<Vec<usize>>,
    topology: Topology,
    read_seconds: [f64; 3],
    map_timing: Vec<NodeTiming>,
    /// Synthetic engine task id per lost map (`usize::MAX` = never
    /// lost). Ids live past `base_tasks` so per-task recovery vectors
    /// never collide with reduce task ids.
    engine_of: Vec<usize>,
    /// Engine id − `base_tasks` → map task id.
    reexec_map: Vec<usize>,
    /// Lost maps awaiting a slot (`task` holds the *map* id).
    queue: VecDeque<QueueEntry>,
    /// Maps currently being re-executed.
    recovering: Vec<bool>,
    /// Lost-map re-executions not yet landed; reduces are gated while
    /// this is non-zero (the shuffle barrier stalls on missing inputs).
    outstanding: usize,
    /// Fetch-failed reduce tasks parked until recovery completes.
    gated: Vec<QueueEntry>,
}

/// Calendar events of the fault-aware engine. Payloads are ids only; the
/// handlers look everything else up in [`FaultState`].
#[derive(Debug, Clone, Copy)]
enum FaultEvent {
    /// Attempt `attempt` of `task` ran to completion.
    AttemptDone { task: usize, attempt: u32 },
    /// Attempt `attempt` of `task` hit its injected failure.
    AttemptFailed { task: usize, attempt: u32 },
    /// `task`'s backoff is over; it re-enters the queue.
    Requeue { task: usize },
    /// Re-execution `attempt` of the lost map with engine id `id` landed.
    ReexecDone { id: usize, attempt: u32 },
    /// Re-execution `attempt` of engine id `id` hit its injected failure.
    ReexecFailed { id: usize, attempt: u32 },
    /// Lost map `map`'s backoff is over; it re-enters the recovery queue.
    ReexecRequeue { map: usize },
    /// Marker for a whole-rack outage, ahead of the member nodes' crashes.
    RackCrash { rack: usize },
    /// `node` dies, and with it the map outputs it held.
    NodeCrash { node: usize },
}

/// State of one fault-aware engine run.
#[derive(Debug)]
struct FaultState {
    book: SlotBook<QueueEntry>,
    node_failures: Vec<u32>,
    // Per-task recovery state.
    running: Vec<Vec<RunningAttempt>>,
    /// Tasks with at least one attempt in flight (unordered dense set,
    /// `running_pos` is the index of each member). Keeps the LATE
    /// speculation scan and node-crash cleanup proportional to the
    /// in-flight count — bounded by cluster capacity — instead of the
    /// total task count.
    running_tasks: Vec<usize>,
    running_pos: Vec<usize>,
    failed: Vec<u32>,
    next_attempt: Vec<u32>,
    done: Vec<bool>,
    speculated: Vec<bool>,
    /// In the queue or in a backoff window (neither running nor done).
    waiting: Vec<bool>,
    pending: usize,
    // LATE progress-rate statistics over every attempt launched so far.
    rate_sum: f64,
    rate_count: u64,
    // Outputs.
    spans: Vec<Option<TaskSpan>>,
    wasted: Vec<TaskSpan>,
    fstats: FaultStats,
    policy: RecoveryPolicy,
    error: Option<PhaseError>,
    // Failure-domain state (inert when `racks == 0`).
    /// Number of real (non-synthetic) tasks; engine ids at or past this
    /// are re-executed maps.
    base_tasks: usize,
    /// Rack count of the failure-domain config (0 = no domains).
    racks: usize,
    /// Individually-blacklisted nodes per rack, driving the escalation
    /// to rack-granularity blacklisting.
    rack_blacklist_count: Vec<u32>,
    rack_blacklisted: Vec<bool>,
    annotations: Vec<(f64, String)>,
    recovered: Vec<TaskSpan>,
    fetch: Option<FetchCtx>,
}

/// Sentinel for "task not in the in-flight set".
const NOT_RUNNING: usize = usize::MAX;

impl FaultState {
    /// Adds `task` to the in-flight set (idempotent).
    fn note_running(&mut self, task: usize) {
        if self.running_pos.get(task).copied() != Some(NOT_RUNNING) {
            return;
        }
        if let Some(p) = self.running_pos.get_mut(task) {
            *p = self.running_tasks.len();
            self.running_tasks.push(task);
        }
    }

    /// Drops `task` from the in-flight set if its attempt list emptied.
    fn note_maybe_idle(&mut self, task: usize) {
        if !self.running.get(task).is_some_and(|l| l.is_empty()) {
            return;
        }
        let Some(&pos) = self.running_pos.get(task) else {
            return;
        };
        if pos == NOT_RUNNING {
            return;
        }
        let Some(last) = self.running_tasks.pop() else {
            return;
        };
        if last != task {
            if let Some(slot) = self.running_tasks.get_mut(pos) {
                *slot = last;
            }
            if let Some(p) = self.running_pos.get_mut(last) {
                *p = pos;
            }
        }
        if let Some(p) = self.running_pos.get_mut(task) {
            *p = NOT_RUNNING;
        }
    }

    /// Detaches the running attempt `(task, attempt)`, if still present.
    fn take_running(&mut self, task: usize, attempt: u32) -> Option<RunningAttempt> {
        let list = self.running.get_mut(task)?;
        let idx = list.iter().position(|r| r.attempt == attempt)?;
        let r = list.remove(idx);
        self.note_maybe_idle(task);
        Some(r)
    }

    /// Counts a failed attempt against `node`, blacklisting it — and,
    /// with an active rack domain, possibly its whole rack — once the
    /// policy thresholds are crossed. Blacklisting never strands the
    /// job: the last usable node, and the last rack with a usable node,
    /// stay schedulable.
    fn note_attempt_failure(&mut self, node: usize, now: SimTime) {
        if let Some(f) = self.node_failures.get_mut(node) {
            *f += 1;
        }
        let limit = self.policy.blacklist_after;
        let fails = self.node_failures.get(node).copied().unwrap_or(0);
        if limit > 0
            && fails >= limit
            && self.book.slots.usable(node)
            && self.book.slots.usable_other_than(node)
        {
            self.book.slots.set_unusable(node);
            self.fstats.blacklisted_nodes += 1;
            self.maybe_blacklist_rack(node, now);
        }
    }

    /// Escalates node blacklisting to rack granularity: once
    /// `rack_blacklist_after` nodes of one rack have been individually
    /// blacklisted, the whole rack (a bad ToR switch, in Hadoop terms)
    /// stops receiving attempts — unless it is the last rack with any
    /// usable node, which must stay schedulable.
    fn maybe_blacklist_rack(&mut self, node: usize, now: SimTime) {
        let racks = self.racks;
        let after = self.policy.rack_blacklist_after;
        if racks == 0 || after == 0 {
            return;
        }
        let rack = node % racks;
        if self.rack_blacklisted.get(rack).copied().unwrap_or(true) {
            return;
        }
        if let Some(c) = self.rack_blacklist_count.get_mut(rack) {
            *c += 1;
        }
        if self.rack_blacklist_count.get(rack).copied().unwrap_or(0) < after {
            return;
        }
        let nodes = self.node_failures.len();
        let usable_elsewhere = (0..nodes).any(|n| n % racks != rack && self.book.slots.usable(n));
        if !usable_elsewhere {
            return;
        }
        for n in (rack..nodes).step_by(racks) {
            if self.book.slots.usable(n) {
                self.book.slots.set_unusable(n);
            }
        }
        if let Some(b) = self.rack_blacklisted.get_mut(rack) {
            *b = true;
        }
        self.fstats.racks_blacklisted += 1;
        self.annotations
            .push((now.as_secs_f64(), format!("rack-blacklisted:{rack}")));
    }

    /// Records a losing attempt's span and its wasted slot-seconds.
    fn record_wasted(
        &mut self,
        task: usize,
        r: &RunningAttempt,
        now: SimTime,
        outcome: AttemptOutcome,
    ) {
        self.fstats.wasted_slot_s += now.saturating_sub(r.launched).as_secs_f64();
        self.wasted.push(TaskSpan {
            phase: String::new(),
            task,
            node: r.node,
            slot: r.slot,
            wave: r.wave,
            queued_s: r.queued.as_secs_f64(),
            launched_s: r.launched.as_secs_f64(),
            finished_s: now.as_secs_f64(),
            attempt: r.attempt,
            outcome,
            tier: r.tier,
        });
    }
}

/// Starts attempt `next_attempt[task]` of `task` on `node`, scheduling
/// its failure or completion event per the fault plan.
#[allow(clippy::too_many_arguments)]
fn launch_attempt(
    sim: &mut Simulation<FaultEvent>,
    st: &mut FaultState,
    load: &PhaseLoad,
    faults: &PhaseFaults,
    task: usize,
    node: usize,
    queued: SimTime,
    speculative: bool,
) {
    let now = sim.now();
    let attempt = st.next_attempt[task];
    st.next_attempt[task] += 1;
    st.waiting[task] = false;
    let (slot, wave) = st.book.claim_slot(node);
    st.book.note_wait(now.saturating_sub(queued));
    let tier = load.tier_for(task, node);
    let t = &load.timing[node];
    // A degraded rack uplink multiplies only the network-borne extras
    // (remote reads, shuffle fetch); ×1.0 on healthy links keeps the
    // legacy duration bitwise identical.
    let extra = load.extra_for(task, tier);
    let link = faults.domains.link_factor_at(node, now.as_secs_f64());
    if link > 1.0 && extra > 0.0 {
        st.fstats.link_degraded_attempts += 1;
    }
    let dur_s = t.task_seconds * attempt_jitter(task, attempt) * faults.slowdown[node]
        + t.overhead_seconds
        + extra * link;
    let dur = SimTime::from_secs_f64(dur_s);
    let rate = 1.0 / dur_s.max(1e-12);
    st.rate_sum += rate;
    st.rate_count += 1;
    if speculative {
        st.speculated[task] = true;
        st.fstats.speculative_launched += 1;
    }
    let event = match faults.plan.attempt_failure(task, attempt) {
        Some(frac) => sim.push_in(
            SimTime::from_secs_f64(dur_s * frac),
            FaultEvent::AttemptFailed { task, attempt },
        ),
        None => sim.push_in(dur, FaultEvent::AttemptDone { task, attempt }),
    };
    if let Some(list) = st.running.get_mut(task) {
        list.push(RunningAttempt {
            attempt,
            node,
            slot,
            wave,
            queued,
            launched: now,
            duration: dur,
            rate,
            event,
            speculative,
            tier,
        });
    }
    st.note_running(task);
}

/// Completion event: the first finisher wins its task; any rival attempt
/// is cancelled (Hadoop kills the loser of a speculative race).
fn attempt_completed(
    sim: &mut Simulation<FaultEvent>,
    st: &mut FaultState,
    task: usize,
    attempt: u32,
) {
    let now = sim.now();
    let Some(r) = st.take_running(task, attempt) else {
        return;
    };
    st.book.release_slot(r.node, r.slot);
    if st.error.is_some() {
        // Phase already failed; just drain the calendar.
        return;
    }
    debug_assert!(!st.done[task], "two winners for task {task}");
    st.done[task] = true;
    st.pending -= 1;
    if r.speculative {
        st.fstats.speculative_wins += 1;
    }
    st.spans[task] = Some(TaskSpan {
        phase: String::new(),
        task,
        node: r.node,
        slot: r.slot,
        wave: r.wave,
        queued_s: r.queued.as_secs_f64(),
        launched_s: r.launched.as_secs_f64(),
        finished_s: now.as_secs_f64(),
        attempt: r.attempt,
        outcome: AttemptOutcome::Success,
        tier: r.tier,
    });
    st.book.note_finish(now);
    while let Some(rival) = st.running.get_mut(task).and_then(|l| l.pop()) {
        sim.cancel(rival.event);
        st.book.release_slot(rival.node, rival.slot);
        st.record_wasted(task, &rival, now, AttemptOutcome::Cancelled);
        st.fstats.cancelled_attempts += 1;
    }
    st.note_maybe_idle(task);
}

/// Injected-failure event: count the failure, maybe blacklist the node,
/// and re-queue the task after exponential backoff — or fail the phase
/// once `max_attempts` is exhausted.
fn attempt_failed(
    sim: &mut Simulation<FaultEvent>,
    st: &mut FaultState,
    task: usize,
    attempt: u32,
) {
    let now = sim.now();
    let Some(r) = st.take_running(task, attempt) else {
        return;
    };
    st.book.release_slot(r.node, r.slot);
    if st.error.is_some() {
        return;
    }
    st.record_wasted(task, &r, now, AttemptOutcome::Failed);
    st.fstats.failed_attempts += 1;
    st.failed[task] += 1;
    // Hadoop never blacklists its way to an empty cluster (it caps the
    // blacklisted fraction); we keep the last usable node schedulable.
    st.note_attempt_failure(r.node, now);
    if st.failed[task] >= st.policy.max_attempts {
        st.error = Some(PhaseError::AttemptsExhausted {
            task,
            attempts: st.failed[task],
        });
        return;
    }
    if !st.running.get(task).is_some_and(|l| l.is_empty()) {
        // A speculative rival is still in flight and may yet win.
        return;
    }
    let delay = SimTime::from_secs_f64(st.policy.backoff_s(st.failed[task]));
    st.waiting[task] = true;
    sim.push_in(delay, FaultEvent::Requeue { task });
}

/// Node-crash event: the node's slots disappear for the rest of the run
/// and every in-flight attempt on it is killed. Killed attempts do not
/// count against `max_attempts` (Hadoop's KILLED vs FAILED distinction)
/// and re-queue immediately.
fn crash_node(sim: &mut Simulation<FaultEvent>, st: &mut FaultState, node: usize) {
    if st.error.is_some() || st.pending == 0 || !st.book.slots.alive(node) {
        // The phase is already over (the crash belongs to a later phase,
        // handled there via `dead_at_start`) or has failed.
        return;
    }
    let now = sim.now();
    st.book.slots.kill(node);
    st.fstats.node_crashes += 1;
    // Only the in-flight set can have attempts on the dead node; sort it
    // so victims are processed in ascending task order, exactly as the
    // old full scan over every task did.
    let mut victims: Vec<usize> = st
        .running_tasks
        .iter()
        .copied()
        .filter(|&task| {
            st.running
                .get(task)
                .is_some_and(|l| l.iter().any(|r| r.node == node))
        })
        .collect();
    victims.sort_unstable();
    for task in victims {
        let mut i = 0;
        while i < st.running.get(task).map_or(0, |l| l.len()) {
            let hit = st
                .running
                .get(task)
                .and_then(|l| l.get(i))
                .is_some_and(|r| r.node == node);
            if !hit {
                i += 1;
                continue;
            }
            let Some(r) = st.running.get_mut(task).map(|l| l.remove(i)) else {
                break;
            };
            sim.cancel(r.event);
            st.book.release_slot(node, r.slot);
            st.record_wasted(task, &r, now, AttemptOutcome::Killed);
            st.fstats.killed_attempts += 1;
            let idle = st.running.get(task).is_some_and(|l| l.is_empty());
            let done = st.done.get(task).copied().unwrap_or(false);
            let waiting = st.waiting.get(task).copied().unwrap_or(false);
            if !done && idle && !waiting {
                if let Some(w) = st.waiting.get_mut(task) {
                    *w = true;
                }
                if let Some(off) = task.checked_sub(st.base_tasks) {
                    // A killed map re-execution goes back to the
                    // recovery queue, not the reduce queue.
                    let map = st
                        .fetch
                        .as_ref()
                        .and_then(|f| f.reexec_map.get(off).copied());
                    if let (Some(map), Some(f)) = (map, st.fetch.as_mut()) {
                        f.queue.push_back(QueueEntry {
                            task: map,
                            queued: now,
                        });
                    }
                } else {
                    st.book.queue.push_back(QueueEntry { task, queued: now });
                }
            }
        }
        st.note_maybe_idle(task);
    }
}

/// Rack-crash marker event: counts and annotates a whole-rack (ToR
/// switch or correlated-domain) outage. Scheduled *before* the member
/// nodes' own crash events at the same instant, so "some node of the
/// rack was still alive" distinguishes a real rack outage from racks
/// that had already bled out node by node.
fn rack_crashed(sim: &mut Simulation<FaultEvent>, st: &mut FaultState, rack: usize) {
    if st.error.is_some() || st.pending == 0 {
        return;
    }
    let nodes = st.node_failures.len();
    let any_alive = (rack..nodes)
        .step_by(st.racks.max(1))
        .any(|n| st.book.slots.alive(n));
    if !any_alive {
        return;
    }
    st.fstats.rack_crashes += 1;
    st.annotations
        .push((sim.now().as_secs_f64(), format!("rack-crash:{rack}")));
}

/// Fetch-failure handler, run right after [`crash_node`] for the same
/// node: any completed map whose output lived on the dead node is lost,
/// every in-flight reduce attempt registers a fetch failure (its shuffle
/// flow from that output is cancelled on the calendar) and is parked
/// until the lost maps have been re-executed on surviving nodes. A map
/// whose every input replica is also gone fails the phase with
/// [`PhaseError::DataLost`].
fn fetch_on_crash(sim: &mut Simulation<FaultEvent>, st: &mut FaultState, node: usize) {
    if st.fetch.is_none() || st.error.is_some() || st.pending == 0 {
        return;
    }
    let now = sim.now();
    let lost: Vec<usize> = st
        .fetch
        .as_ref()
        .map(|f| {
            f.holders
                .iter()
                .enumerate()
                .filter(|&(m, &h)| h == node && !f.recovering.get(m).copied().unwrap_or(true))
                .map(|(m, _)| m)
                .collect()
        })
        .unwrap_or_default();
    if lost.is_empty() {
        return;
    }
    let nodes = st.node_failures.len();
    let alive: Vec<bool> = (0..nodes).map(|n| st.book.slots.alive(n)).collect();
    for m in lost {
        let all_replicas_gone = st.fetch.as_ref().map_or(true, |f| {
            f.replicas.get(m).map_or(true, |reps| {
                reps.iter()
                    .all(|&r| !alive.get(r).copied().unwrap_or(false))
            })
        });
        if all_replicas_gone {
            st.error = Some(PhaseError::DataLost { task: m });
            return;
        }
        // First loss of this map: allocate its synthetic engine id and
        // grow the per-task recovery vectors. Re-losses (the re-run's
        // holder crashed too) reuse the id so attempt counters carry on.
        let needs_id =
            st.fetch.as_ref().and_then(|f| f.engine_of.get(m).copied()) == Some(usize::MAX);
        if needs_id {
            let id = st.running.len();
            st.running.push(Vec::new());
            st.running_pos.push(NOT_RUNNING);
            st.failed.push(0);
            // Re-executions are attempt ≥ 2 of the original map task.
            st.next_attempt.push(2);
            st.done.push(false);
            st.speculated.push(true);
            st.waiting.push(true);
            if let Some(f) = st.fetch.as_mut() {
                if let Some(e) = f.engine_of.get_mut(m) {
                    *e = id;
                }
                f.reexec_map.push(m);
            }
        }
        if let Some(f) = st.fetch.as_mut() {
            if let Some(rec) = f.recovering.get_mut(m) {
                *rec = true;
            }
            f.outstanding += 1;
            f.queue.push_back(QueueEntry {
                task: m,
                queued: now,
            });
        }
    }
    // The shuffle is all-to-all: every in-flight reduce was fetching
    // from the lost outputs. Cancel their flows on the calendar and gate
    // them behind the re-executions. (Attempts on the dead node itself
    // were already killed by `crash_node`.)
    let mut victims: Vec<usize> = st
        .running_tasks
        .iter()
        .copied()
        .filter(|&t| t < st.base_tasks)
        .collect();
    victims.sort_unstable();
    for task in victims {
        while let Some(r) = st.running.get_mut(task).and_then(|l| l.pop()) {
            sim.cancel(r.event);
            st.book.release_slot(r.node, r.slot);
            st.record_wasted(task, &r, now, AttemptOutcome::FetchFailed);
            st.fstats.fetch_failures += 1;
        }
        st.note_maybe_idle(task);
        let done = st.done.get(task).copied().unwrap_or(false);
        let waiting = st.waiting.get(task).copied().unwrap_or(false);
        if !done && !waiting {
            if let Some(w) = st.waiting.get_mut(task) {
                *w = true;
            }
            if let Some(f) = st.fetch.as_mut() {
                f.gated.push(QueueEntry { task, queued: now });
            }
        }
    }
}

/// Where a lost map's re-execution can go.
enum ReexecChoice {
    /// Launch on this node at this surviving-replica locality tier.
    Run(usize, LocalityTier),
    /// Every input replica is gone; the job cannot recover.
    DataLost,
    /// No free slot right now; wait for the calendar.
    NoSlot,
}

/// Picks the node for a lost map's re-execution: the NameNode is
/// re-queried for the *surviving* replica set
/// ([`Topology::surviving_tier`]), and among free usable nodes the best
/// locality tier wins (lowest node id breaks ties) — a surviving replica
/// holder if possible, then a node in a surviving replica's rack, then
/// anywhere (pricing the off-rack read).
fn choose_reexec_node(st: &FaultState, map: usize) -> ReexecChoice {
    let Some(f) = st.fetch.as_ref() else {
        return ReexecChoice::NoSlot;
    };
    let reps: Vec<HdfsNodeId> = f
        .replicas
        .get(map)
        .map(|v| v.iter().map(|&r| HdfsNodeId(r)).collect())
        .unwrap_or_default();
    let nodes = st.node_failures.len();
    let alive: Vec<bool> = (0..nodes).map(|n| st.book.slots.alive(n)).collect();
    let mut best: Option<(LocalityTier, usize)> = None;
    for n in st.book.slots.free_nodes() {
        let Some(tier) = f.topology.surviving_tier(HdfsNodeId(n), &reps, &alive) else {
            return ReexecChoice::DataLost;
        };
        if best.map_or(true, |(bt, bn)| (tier, n) < (bt, bn)) {
            best = Some((tier, n));
        }
    }
    match best {
        Some((tier, n)) => ReexecChoice::Run(n, tier),
        None => {
            if reps
                .iter()
                .any(|r| alive.get(r.0).copied().unwrap_or(false))
            {
                ReexecChoice::NoSlot
            } else {
                ReexecChoice::DataLost
            }
        }
    }
}

/// Launches one re-execution attempt of lost map `map` on `node`: map
/// timing (not the surrounding reduce phase's), the surviving-replica
/// tier's read cost, and the same injected-failure draws as any other
/// attempt — re-executions can fail, be killed or be blacklisted too.
fn launch_reexec(
    sim: &mut Simulation<FaultEvent>,
    st: &mut FaultState,
    faults: &PhaseFaults,
    map: usize,
    queued: SimTime,
    node: usize,
    tier: LocalityTier,
) {
    let now = sim.now();
    let Some(id) = st
        .fetch
        .as_ref()
        .and_then(|f| f.engine_of.get(map).copied())
        .filter(|&i| i != usize::MAX)
    else {
        return;
    };
    let attempt = st.next_attempt.get(id).copied().unwrap_or(2);
    if let Some(a) = st.next_attempt.get_mut(id) {
        *a += 1;
    }
    if let Some(w) = st.waiting.get_mut(id) {
        *w = false;
    }
    let (slot, wave) = st.book.claim_slot(node);
    st.book.note_wait(now.saturating_sub(queued));
    let (task_s, over_s) = st
        .fetch
        .as_ref()
        .and_then(|f| f.map_timing.get(node))
        .map(|t| (t.task_seconds, t.overhead_seconds))
        .unwrap_or((0.0, 0.0));
    let read_s = st
        .fetch
        .as_ref()
        .and_then(|f| f.read_seconds.get(tier.idx()).copied())
        .unwrap_or(0.0);
    let slow = faults.slowdown.get(node).copied().unwrap_or(1.0);
    let link = faults.domains.link_factor_at(node, now.as_secs_f64());
    if link > 1.0 && read_s > 0.0 {
        st.fstats.link_degraded_attempts += 1;
    }
    let dur_s = task_s * attempt_jitter(map, attempt) * slow + over_s + read_s * link;
    let dur = SimTime::from_secs_f64(dur_s);
    let rate = 1.0 / dur_s.max(1e-12);
    st.rate_sum += rate;
    st.rate_count += 1;
    let event = match faults.plan.attempt_failure(id, attempt) {
        Some(frac) => sim.push_in(
            SimTime::from_secs_f64(dur_s * frac),
            FaultEvent::ReexecFailed { id, attempt },
        ),
        None => sim.push_in(dur, FaultEvent::ReexecDone { id, attempt }),
    };
    if let Some(list) = st.running.get_mut(id) {
        list.push(RunningAttempt {
            attempt,
            node,
            slot,
            wave,
            queued,
            launched: now,
            duration: dur,
            rate,
            event,
            speculative: false,
            tier,
        });
    }
    st.note_running(id);
}

/// A re-executed map landed: record its recovery span, move the output
/// to the new holder, and — once no re-execution is outstanding —
/// release the gated reduces back into the queue.
fn reexec_completed(
    sim: &mut Simulation<FaultEvent>,
    st: &mut FaultState,
    id: usize,
    attempt: u32,
) {
    let now = sim.now();
    let Some(r) = st.take_running(id, attempt) else {
        return;
    };
    st.book.release_slot(r.node, r.slot);
    if st.error.is_some() {
        return;
    }
    let Some(map) = id.checked_sub(st.base_tasks).and_then(|off| {
        st.fetch
            .as_ref()
            .and_then(|f| f.reexec_map.get(off).copied())
    }) else {
        return;
    };
    st.recovered.push(TaskSpan {
        phase: String::new(),
        task: map,
        node: r.node,
        slot: r.slot,
        wave: r.wave,
        queued_s: r.queued.as_secs_f64(),
        launched_s: r.launched.as_secs_f64(),
        finished_s: now.as_secs_f64(),
        attempt: r.attempt,
        outcome: AttemptOutcome::Recovered,
        tier: r.tier,
    });
    st.fstats.reexecuted_maps += 1;
    st.book.note_finish(now);
    let released = match st.fetch.as_mut() {
        Some(f) => {
            if let Some(h) = f.holders.get_mut(map) {
                *h = r.node;
            }
            if let Some(rec) = f.recovering.get_mut(map) {
                *rec = false;
            }
            f.outstanding = f.outstanding.saturating_sub(1);
            if f.outstanding == 0 {
                std::mem::take(&mut f.gated)
            } else {
                Vec::new()
            }
        }
        None => Vec::new(),
    };
    for e in released {
        st.book.queue.push_back(e);
    }
}

/// A re-execution attempt hit an injected failure: same accounting as
/// [`attempt_failed`] (wasted span, node failure, blacklisting, backoff
/// re-queue, attempt exhaustion) against the *map* task.
fn reexec_failed(sim: &mut Simulation<FaultEvent>, st: &mut FaultState, id: usize, attempt: u32) {
    let now = sim.now();
    let Some(r) = st.take_running(id, attempt) else {
        return;
    };
    st.book.release_slot(r.node, r.slot);
    if st.error.is_some() {
        return;
    }
    let Some(map) = id.checked_sub(st.base_tasks).and_then(|off| {
        st.fetch
            .as_ref()
            .and_then(|f| f.reexec_map.get(off).copied())
    }) else {
        return;
    };
    st.record_wasted(map, &r, now, AttemptOutcome::Failed);
    st.fstats.failed_attempts += 1;
    if let Some(fl) = st.failed.get_mut(id) {
        *fl += 1;
    }
    st.note_attempt_failure(r.node, now);
    let fails = st.failed.get(id).copied().unwrap_or(0);
    if fails >= st.policy.max_attempts {
        st.error = Some(PhaseError::AttemptsExhausted {
            task: map,
            attempts: fails,
        });
        return;
    }
    let delay = SimTime::from_secs_f64(st.policy.backoff_s(fails));
    if let Some(w) = st.waiting.get_mut(id) {
        *w = true;
    }
    sim.push_in(delay, FaultEvent::ReexecRequeue { map });
}

/// LATE speculation: among tasks with a single running attempt that has
/// run at least `spec_min_runtime_s` and progresses below
/// `spec_rate_threshold` × the mean rate of all launched attempts, pick
/// the slowest and duplicate it on the fastest usable node that is not
/// the primary's — but only if the backup is expected to finish first.
fn choose_speculation(
    st: &FaultState,
    load: &PhaseLoad,
    faults: &PhaseFaults,
    now: SimTime,
) -> Option<(usize, usize)> {
    if st.rate_count == 0 {
        return None;
    }
    let mean = st.rate_sum / st.rate_count as f64;
    // Only in-flight tasks can be candidates; the set is unordered, so
    // pick the lexicographic minimum of (rate, task) — identical to the
    // old ascending full-task scan with a strict `<` on rate.
    let mut cand: Option<(f64, usize)> = None;
    for &task in &st.running_tasks {
        if task >= st.base_tasks {
            // Map re-executions recover lost data; LATE never
            // duplicates them.
            continue;
        }
        let done = st.done.get(task).copied().unwrap_or(true);
        let speculated = st.speculated.get(task).copied().unwrap_or(true);
        if done || speculated {
            continue;
        }
        let Some([r]) = st.running.get(task).map(|l| l.as_slice()) else {
            continue;
        };
        if now.saturating_sub(r.launched).as_secs_f64() < st.policy.spec_min_runtime_s {
            continue;
        }
        if r.rate >= st.policy.spec_rate_threshold * mean {
            continue;
        }
        if cand.map_or(true, |(best, bt)| {
            r.rate < best || (r.rate == best && task < bt)
        }) {
            cand = Some((r.rate, task));
        }
    }
    let (_, task) = cand?;
    let primary = *st.running.get(task)?.first()?;
    let aj = attempt_jitter(task, st.next_attempt.get(task).copied()?);
    let mut best: Option<(f64, usize)> = None;
    for node in st.book.slots.free_nodes() {
        if node == primary.node {
            continue;
        }
        let t = load.timing.get(node)?;
        let d = t.task_seconds * aj * faults.slowdown.get(node)? + t.overhead_seconds;
        if best.map_or(true, |(bd, _)| d < bd) {
            best = Some((d, node));
        }
    }
    let (backup_s, node) = best?;
    if now + SimTime::from_secs_f64(backup_s) >= primary.launched + primary.duration {
        return None;
    }
    Some((task, node))
}

/// [`run_phase`] with optional fault injection: `None` (or an inert
/// [`PhaseFaults`]) reproduces the fault-free engine exactly; with
/// faults, tasks are re-executed per the plan's failures, node crashes
/// and the policy's speculation/blacklisting, and the run either
/// completes with attempt-level spans (wasted work included) or errors
/// cleanly.
///
/// # Panics
///
/// Panics if the cluster has no slots, or `load.timing`/the fault
/// vectors do not match the cluster's node count.
pub fn run_phase_faulty(
    cluster: &Cluster,
    load: &PhaseLoad,
    placement: &mut dyn Placement,
    faults: Option<&PhaseFaults>,
) -> Result<PhaseRun, PhaseError> {
    run_phase_faulty_fetch(cluster, load, placement, faults, None)
}

/// [`run_phase_faulty`] with Hadoop fetch-failure semantics for a reduce
/// phase: `fetch` says which node holds each completed map's output and
/// where the map input replicas live. When a holder dies mid-phase (or
/// died between the phases), its outputs are lost — in-flight reduce
/// attempts' shuffle flows are cancelled on the calendar as fetch
/// failures, reduces stall on the shuffle barrier, and the lost maps are
/// re-executed on surviving nodes at the surviving-replica locality tier
/// before the reduces resume. A map whose every input replica is gone
/// fails cleanly with [`PhaseError::DataLost`]. `fetch = None` is
/// exactly [`run_phase_faulty`].
///
/// # Panics
///
/// Same contract as [`run_phase_faulty`].
pub fn run_phase_faulty_fetch(
    cluster: &Cluster,
    load: &PhaseLoad,
    placement: &mut dyn Placement,
    faults: Option<&PhaseFaults>,
    fetch: Option<&FetchPlan>,
) -> Result<PhaseRun, PhaseError> {
    let Some(faults) = faults else {
        return Ok(run_phase(cluster, load, placement));
    };
    let nodes = cluster.nodes.len();
    let capacity = cluster.total_slots();
    assert!(capacity > 0, "need at least one slot");
    assert_eq!(load.timing.len(), nodes, "one timing entry per node");
    assert_eq!(faults.slowdown.len(), nodes, "one slowdown entry per node");
    assert_eq!(faults.crash_at_s.len(), nodes, "one crash entry per node");
    assert_eq!(
        faults.dead_at_start.len(),
        nodes,
        "one liveness entry per node"
    );
    if load.tasks == 0 {
        return Ok(PhaseRun::idle(capacity));
    }

    let mut sim = Simulation::default();
    let mut st = FaultState {
        book: SlotBook::new(
            cluster,
            Some(&faults.dead_at_start),
            (0..load.tasks)
                .map(|task| QueueEntry {
                    task,
                    queued: SimTime::ZERO,
                })
                .collect(),
        ),
        node_failures: vec![0; nodes],
        running: vec![Vec::new(); load.tasks],
        running_tasks: Vec::new(),
        running_pos: vec![NOT_RUNNING; load.tasks],
        failed: vec![0; load.tasks],
        next_attempt: vec![1; load.tasks],
        done: vec![false; load.tasks],
        speculated: vec![false; load.tasks],
        waiting: vec![true; load.tasks],
        pending: load.tasks,
        rate_sum: 0.0,
        rate_count: 0,
        spans: vec![None; load.tasks],
        wasted: Vec::new(),
        fstats: FaultStats::default(),
        policy: faults.policy,
        error: None,
        base_tasks: load.tasks,
        racks: faults.domains.racks,
        rack_blacklist_count: vec![0; faults.domains.racks],
        rack_blacklisted: vec![false; faults.domains.racks],
        annotations: Vec::new(),
        recovered: Vec::new(),
        fetch: fetch.map(|p| FetchCtx {
            holders: p.holders.clone(),
            replicas: p.map_replicas.clone(),
            topology: p.topology,
            read_seconds: p.read_seconds,
            map_timing: p.map_timing.clone(),
            engine_of: vec![usize::MAX; p.holders.len()],
            reexec_map: Vec::new(),
            queue: VecDeque::new(),
            recovering: vec![false; p.holders.len()],
            outstanding: 0,
            gated: Vec::new(),
        }),
    };

    // Map outputs on nodes that died between the phases are lost before
    // the first reduce even launches.
    if fetch.is_some() {
        for (node, &dead) in faults.dead_at_start.iter().enumerate() {
            if dead {
                fetch_on_crash(&mut sim, &mut st, node);
            }
        }
    }

    // Rack-outage markers go on the calendar before the member nodes'
    // own crash events, so at an identical timestamp the marker still
    // sees the rack alive.
    if faults.domains.racks > 0 {
        for (rack, crash) in faults.domains.rack_crash_at_s.iter().enumerate() {
            if let Some(t) = crash {
                sim.push_at(SimTime::from_secs_f64(*t), FaultEvent::RackCrash { rack });
            }
        }
    }

    for (node, crash) in faults.crash_at_s.iter().enumerate() {
        if let Some(t) = crash {
            sim.push_at(SimTime::from_secs_f64(*t), FaultEvent::NodeCrash { node });
        }
    }

    loop {
        // Same grant discipline as the fault-free engine — FIFO queue,
        // placement picks the node, at phase start and after every event
        // — plus a speculation pass once the queue is empty.
        while st.error.is_none() && st.book.slots.total_free() > 0 {
            // Fetch-failure recovery runs ahead of everything else.
            let reexec = st.fetch.as_ref().and_then(|f| f.queue.front().copied());
            if let Some(entry) = reexec {
                match choose_reexec_node(&st, entry.task) {
                    ReexecChoice::Run(node, tier) => {
                        if let Some(f) = st.fetch.as_mut() {
                            f.queue.pop_front();
                        }
                        launch_reexec(
                            &mut sim,
                            &mut st,
                            faults,
                            entry.task,
                            entry.queued,
                            node,
                            tier,
                        );
                        continue;
                    }
                    ReexecChoice::DataLost => {
                        st.error = Some(PhaseError::DataLost { task: entry.task });
                        break;
                    }
                    ReexecChoice::NoSlot => break,
                }
            }
            // Reduces stall on the shuffle barrier while lost map
            // outputs are being re-executed.
            if st.fetch.as_ref().is_some_and(|f| f.outstanding > 0) {
                break;
            }
            if let Some(entry) = st.book.queue.front().copied() {
                let (node, _tier) = placement.place_local(
                    entry.task,
                    cluster,
                    &st.book.slots,
                    load.locality.as_ref(),
                );
                assert!(
                    st.book.slots.free(node) > 0 && st.book.slots.usable(node),
                    "placement chose an unusable node"
                );
                st.book.queue.pop_front();
                launch_attempt(
                    &mut sim,
                    &mut st,
                    load,
                    faults,
                    entry.task,
                    node,
                    entry.queued,
                    false,
                );
                continue;
            }
            if !faults.policy.speculation {
                break;
            }
            let now = sim.now();
            let Some((task, node)) = choose_speculation(&st, load, faults, now) else {
                break;
            };
            launch_attempt(&mut sim, &mut st, load, faults, task, node, now, true);
        }
        let backlog = st.book.queue.len();
        st.book.stats.max_queue_len = st.book.stats.max_queue_len.max(backlog);

        let Some(event) = sim.pop() else {
            break;
        };
        match event {
            FaultEvent::AttemptDone { task, attempt } => {
                attempt_completed(&mut sim, &mut st, task, attempt);
            }
            FaultEvent::AttemptFailed { task, attempt } => {
                attempt_failed(&mut sim, &mut st, task, attempt);
            }
            FaultEvent::Requeue { task } => {
                if st.error.is_none() {
                    let queued = sim.now();
                    st.book.queue.push_back(QueueEntry { task, queued });
                }
            }
            FaultEvent::ReexecDone { id, attempt } => {
                reexec_completed(&mut sim, &mut st, id, attempt);
            }
            FaultEvent::ReexecFailed { id, attempt } => {
                reexec_failed(&mut sim, &mut st, id, attempt);
            }
            FaultEvent::ReexecRequeue { map } => {
                if st.error.is_none() {
                    let queued = sim.now();
                    if let Some(f) = st.fetch.as_mut() {
                        f.queue.push_back(QueueEntry { task: map, queued });
                    }
                }
            }
            FaultEvent::RackCrash { rack } => rack_crashed(&mut sim, &mut st, rack),
            FaultEvent::NodeCrash { node } => {
                crash_node(&mut sim, &mut st, node);
                fetch_on_crash(&mut sim, &mut st, node);
            }
        }
    }

    if let Some(e) = st.error {
        return Err(e);
    }
    if st.pending > 0 {
        return Err(PhaseError::NoUsableSlots {
            pending: st.pending,
        });
    }
    let spans: Vec<TaskSpan> = st.spans.into_iter().flatten().collect();
    debug_assert_eq!(spans.len(), load.tasks, "one winning span per task");
    Ok(PhaseRun {
        makespan_s: st.book.max_finish.as_secs_f64(),
        spans,
        slots: st.book.stats,
        wasted: st.wasted,
        recovered: st.recovered,
        annotations: st.annotations,
        faults: st.fstats,
    })
}

/// Node metadata echoed into exports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMeta {
    /// Node display name.
    pub name: String,
    /// "Xeon" or "Atom".
    pub kind: String,
    /// Slot count.
    pub slots: usize,
}

/// The per-task timeline of a whole run: successive phases' spans
/// shifted onto one absolute clock.
///
/// Spans are stored struct-of-arrays: one flat column per field, with
/// phase labels interned once per phase instead of cloned per span. At a
/// million tasks this is a single arena of primitive columns — no
/// per-span `String`, no per-span allocation — and iteration for export
/// is a linear column walk. [`ClusterTimeline::get`] /
/// [`ClusterTimeline::iter`]
/// materialize [`TaskSpan`] views on demand for the few consumers that
/// want the row form.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterTimeline {
    /// The cluster's nodes (index = `TaskSpan::node`).
    pub nodes: Vec<NodeMeta>,
    /// Interned phase labels, in first-appearance order.
    phases: Vec<String>,
    /// Per-span phase label index into `phases`.
    phase_ix: Vec<u32>,
    task: Vec<u32>,
    node: Vec<u32>,
    slot: Vec<u32>,
    wave: Vec<u32>,
    queued_s: Vec<f64>,
    launched_s: Vec<f64>,
    finished_s: Vec<f64>,
    attempt: Vec<u32>,
    outcome: Vec<AttemptOutcome>,
    #[serde(default)]
    tier: Vec<LocalityTier>,
    /// Absolute-time domain-event annotations (`"rack-crash:<r>"`,
    /// `"rack-blacklisted:<r>"`), exported as instant events. Empty —
    /// and bitwise invisible in every export — without active failure
    /// domains.
    #[serde(default)]
    ann_time_s: Vec<f64>,
    #[serde(default)]
    ann_label: Vec<String>,
}

/// Narrows an engine-side index (task/node/slot/wave) to its column type.
fn narrow(v: usize) -> u32 {
    // An index beyond u32 means the arena invariant is already broken;
    // wrapping would silently corrupt the timeline, so fail loudly.
    // hhsim: allow(panic-in-engine): invariant breach must not wrap into a valid-looking column value
    u32::try_from(v).expect("index exceeds u32 column")
}

impl ClusterTimeline {
    /// An empty timeline over `cluster`.
    pub fn new(cluster: &Cluster) -> Self {
        ClusterTimeline {
            nodes: cluster
                .nodes
                .iter()
                .map(|n| NodeMeta {
                    name: n.name.clone(),
                    kind: n.kind.to_string(),
                    slots: n.slots,
                })
                .collect(),
            ..ClusterTimeline::default()
        }
    }

    fn intern(&mut self, phase: &str) -> u32 {
        // Phase counts are tiny (a few per job); linear probe.
        if let Some(i) = self.phases.iter().position(|p| p == phase) {
            return narrow(i);
        }
        self.phases.push(phase.to_string());
        narrow(self.phases.len() - 1)
    }

    /// Appends a phase's spans, labelled `phase`, shifted by `offset_s`.
    /// Wasted attempts (failed/killed/cancelled/fetch-failed) follow the
    /// winning spans, and recovered map re-executions follow those, so
    /// utilization and the energy model charge their slot time too.
    /// Domain-event annotations are shifted onto the same clock.
    pub fn extend(&mut self, phase: &str, offset_s: f64, run: &PhaseRun) {
        let pix = self.intern(phase);
        let extra = run.spans.len() + run.wasted.len() + run.recovered.len();
        self.phase_ix.reserve(extra);
        for (t, label) in &run.annotations {
            self.ann_time_s.push(t + offset_s);
            self.ann_label.push(label.clone());
        }
        for s in run.spans.iter().chain(&run.wasted).chain(&run.recovered) {
            self.phase_ix.push(pix);
            self.task.push(narrow(s.task));
            self.node.push(narrow(s.node));
            self.slot.push(narrow(s.slot));
            self.wave.push(narrow(s.wave));
            self.queued_s.push(s.queued_s + offset_s);
            self.launched_s.push(s.launched_s + offset_s);
            self.finished_s.push(s.finished_s + offset_s);
            self.attempt.push(s.attempt);
            self.outcome.push(s.outcome);
            self.tier.push(s.tier);
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.phase_ix.len()
    }

    /// True if no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.phase_ix.is_empty()
    }

    /// Materializes span `i` as a row, if in bounds.
    pub fn get(&self, i: usize) -> Option<TaskSpan> {
        let pix = *self.phase_ix.get(i)? as usize;
        Some(TaskSpan {
            phase: self.phases.get(pix).cloned().unwrap_or_default(),
            task: *self.task.get(i)? as usize,
            node: *self.node.get(i)? as usize,
            slot: *self.slot.get(i)? as usize,
            wave: *self.wave.get(i)? as usize,
            queued_s: *self.queued_s.get(i)?,
            launched_s: *self.launched_s.get(i)?,
            finished_s: *self.finished_s.get(i)?,
            attempt: *self.attempt.get(i)?,
            outcome: *self.outcome.get(i)?,
            tier: self.tier.get(i).copied().unwrap_or_default(),
        })
    }

    /// Materializing iterator over all spans in append order.
    pub fn iter(&self) -> impl Iterator<Item = TaskSpan> + '_ {
        (0..self.len()).filter_map(|i| self.get(i))
    }

    /// Latest task completion, seconds.
    pub fn end_s(&self) -> f64 {
        self.finished_s.iter().copied().fold(0.0, f64::max)
    }

    /// Folds a `(time, ±1)` event list (already grouped per node, in
    /// span-append order) into the active-slot step function.
    fn steps_from_events(events: &mut [(f64, i64)]) -> Vec<(f64, usize)> {
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut steps = vec![(0.0, 0usize)];
        let mut active = 0i64;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                active += events[i].1;
                i += 1;
            }
            let a = usize::try_from(active.max(0)).expect("active fits usize");
            if t == 0.0 {
                steps[0].1 = a;
            } else {
                steps.push((t, a));
            }
        }
        steps
    }

    /// Step function of busy slots on `node`: `(time, active)` points at
    /// every change, starting at `(0, 0)`. Feeds the utilization-driven
    /// power model.
    pub fn active_steps(&self, node: usize) -> Vec<(f64, usize)> {
        let mut events: Vec<(f64, i64)> = Vec::new();
        for i in 0..self.len() {
            if self.node.get(i).copied() == Some(narrow(node)) {
                events.push((self.launched_s.get(i).copied().unwrap_or(0.0), 1));
                events.push((self.finished_s.get(i).copied().unwrap_or(0.0), -1));
            }
        }
        Self::steps_from_events(&mut events)
    }

    /// True if any span ran off its input's node — the trigger for the
    /// tier-annotated utilization format. Flat (legacy) runs have every
    /// span node-local and keep the legacy export bytes.
    fn has_remote_tiers(&self) -> bool {
        self.tier.iter().any(|&t| t != LocalityTier::NodeLocal)
    }

    /// Tier-aware analogue of [`steps_from_events`](Self::steps_from_events):
    /// folds `(time, ±1, ±1-per-tier)` events into
    /// `(time, active, active-per-tier)` steps with identical time
    /// merging.
    fn tier_steps_from_events(
        // hhsim: allow(panic-in-engine): slice type in a signature, not indexing
        events: &mut [(f64, i64, [i64; 3])],
    ) -> Vec<(f64, usize, [usize; 3])> {
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut steps = vec![(0.0, 0usize, [0usize; 3])];
        let mut active = 0i64;
        let mut per = [0i64; 3];
        let mut it = events.iter().peekable();
        while let Some(&(t, d, dp)) = it.next() {
            active += d;
            for (acc, delta) in per.iter_mut().zip(dp) {
                *acc += delta;
            }
            if it.peek().is_some_and(|&&(t2, _, _)| t2 == t) {
                continue;
            }
            let a = active.max(0) as usize;
            let p = per.map(|v| v.max(0) as usize);
            if t == 0.0 {
                if let Some(first) = steps.first_mut() {
                    *first = (0.0, a, p);
                }
            } else {
                steps.push((t, a, p));
            }
        }
        steps
    }

    /// Per-node `(time, active, active-per-tier)` step functions in one
    /// linear pass over the span columns.
    fn tier_steps_all(&self) -> Vec<Vec<(f64, usize, [usize; 3])>> {
        let mut events: Vec<Vec<(f64, i64, [i64; 3])>> = vec![Vec::new(); self.nodes.len()];
        for i in 0..self.len() {
            let n = self.node.get(i).copied().unwrap_or(0) as usize;
            let tier = self.tier.get(i).copied().unwrap_or_default() as usize;
            if let Some(ev) = events.get_mut(n) {
                let mut up = [0i64; 3];
                up[tier] = 1; // hhsim: allow(panic-in-engine): tier = LocalityTier as usize <= 2 into a [_; 3]
                let mut down = [0i64; 3];
                down[tier] = -1; // hhsim: allow(panic-in-engine): tier = LocalityTier as usize <= 2 into a [_; 3]
                ev.push((self.launched_s.get(i).copied().unwrap_or(0.0), 1, up));
                ev.push((self.finished_s.get(i).copied().unwrap_or(0.0), -1, down));
            }
        }
        events
            .iter_mut()
            .map(|ev| Self::tier_steps_from_events(ev.as_mut_slice()))
            .collect()
    }

    /// [`active_steps`](Self::active_steps) for every node in one linear
    /// pass over the span columns — O(spans + nodes) instead of the
    /// O(nodes × spans) of calling the per-node form in a loop. The
    /// per-node step functions are identical to the per-node form's.
    pub fn active_steps_all(&self) -> Vec<Vec<(f64, usize)>> {
        let mut events: Vec<Vec<(f64, i64)>> = vec![Vec::new(); self.nodes.len()];
        for i in 0..self.len() {
            let n = self.node.get(i).copied().unwrap_or(0) as usize;
            if let Some(ev) = events.get_mut(n) {
                ev.push((self.launched_s.get(i).copied().unwrap_or(0.0), 1));
                ev.push((self.finished_s.get(i).copied().unwrap_or(0.0), -1));
            }
        }
        events
            .iter_mut()
            .map(|ev| Self::steps_from_events(ev.as_mut_slice()))
            .collect()
    }

    /// Busy slot-seconds on `node` (integral of the active-slot curve).
    pub fn busy_slot_seconds(&self, node: usize) -> f64 {
        let mut sum = 0.0;
        for i in 0..self.len() {
            if self.node.get(i).copied() == Some(narrow(node)) {
                sum += self.finished_s.get(i).copied().unwrap_or(0.0)
                    - self.launched_s.get(i).copied().unwrap_or(0.0);
            }
        }
        sum
    }

    /// Chrome-trace-viewer JSON (`chrome://tracing`, Perfetto): one `X`
    /// event per task span, `pid` = node, `tid` = slot, timestamps in
    /// microseconds, plus process-name metadata per node. Output is
    /// deterministic: spans are emitted in append order with fixed
    /// 3-decimal microsecond formatting.
    ///
    /// This buffered form is the *reference* for the streaming
    /// [`write_chrome_trace`](Self::write_chrome_trace); the equality
    /// tests diff the two byte-for-byte.
    pub fn to_chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (pid, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{} ({} x{})\"}}}},",
                n.name, n.kind, n.slots
            );
        }
        for s in self.iter() {
            let ts = s.launched_s * 1e6;
            let dur = (s.finished_s - s.launched_s) * 1e6;
            let wait = (s.launched_s - s.queued_s) * 1e6;
            // Attempt/outcome/tier args only when non-default, so
            // fault-free node-local traces stay byte-identical to the
            // earlier formats.
            let mut extra = String::new();
            if s.attempt > 1 {
                let _ = write!(extra, ",\"attempt\":{}", s.attempt);
            }
            if s.outcome != AttemptOutcome::Success {
                let _ = write!(extra, ",\"outcome\":\"{}\"", s.outcome.as_str());
            }
            if s.tier != LocalityTier::NodeLocal {
                let _ = write!(extra, ",\"tier\":\"{}\"", s.tier.as_str());
            }
            let _ = writeln!(
                out,
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"name\":\"{}-{}\",\"cat\":\"{}\",\
                 \"args\":{{\"task\":{},\"wave\":{},\"wait_us\":{wait:.3}{extra}}}}},",
                s.node, s.slot, s.phase, s.task, s.phase, s.task, s.wave
            );
        }
        // Domain events (rack crashes, rack blacklists) as global
        // instant events; absent without active failure domains, keeping
        // legacy traces byte-identical.
        for (t, label) in self.ann_time_s.iter().zip(&self.ann_label) {
            let ts = t * 1e6;
            let _ = writeln!(
                out,
                "{{\"ph\":\"i\",\"pid\":0,\"ts\":{ts:.3},\"name\":\"{label}\",\"s\":\"g\"}},"
            );
        }
        // Trailing comma is invalid JSON; close with a sentinel metadata
        // event instead of tracking "first".
        out.push_str("{\"ph\":\"M\",\"pid\":0,\"name\":\"trace_end\",\"args\":{}}\n]}\n");
        out
    }

    /// Streaming form of [`to_chrome_trace_json`](Self::to_chrome_trace_json):
    /// writes the identical bytes incrementally to `w` (wrap files in a
    /// `BufWriter`), so exporting a million-span trace needs no
    /// trace-sized `String`. Memory stays flat in the span count.
    pub fn write_chrome_trace<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (pid, n) in self.nodes.iter().enumerate() {
            writeln!(
                w,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{} ({} x{})\"}}}},",
                n.name, n.kind, n.slots
            )?;
        }
        let mut extra = String::new();
        for i in 0..self.len() {
            let launched = self.launched_s.get(i).copied().unwrap_or(0.0);
            let finished = self.finished_s.get(i).copied().unwrap_or(0.0);
            let queued = self.queued_s.get(i).copied().unwrap_or(0.0);
            let ts = launched * 1e6;
            let dur = (finished - launched) * 1e6;
            let wait = (launched - queued) * 1e6;
            let attempt = self.attempt.get(i).copied().unwrap_or(1);
            let outcome = self.outcome.get(i).copied().unwrap_or_default();
            let tier = self.tier.get(i).copied().unwrap_or_default();
            extra.clear();
            if attempt > 1 {
                let _ = write!(extra, ",\"attempt\":{attempt}");
            }
            if outcome != AttemptOutcome::Success {
                let _ = write!(extra, ",\"outcome\":\"{}\"", outcome.as_str());
            }
            if tier != LocalityTier::NodeLocal {
                let _ = write!(extra, ",\"tier\":\"{}\"", tier.as_str());
            }
            let phase = self
                .phase_ix
                .get(i)
                .and_then(|&p| self.phases.get(p as usize))
                .map(String::as_str)
                .unwrap_or("");
            writeln!(
                w,
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"name\":\"{phase}-{}\",\"cat\":\"{phase}\",\
                 \"args\":{{\"task\":{},\"wave\":{},\"wait_us\":{wait:.3}{extra}}}}},",
                self.node.get(i).copied().unwrap_or(0),
                self.slot.get(i).copied().unwrap_or(0),
                self.task.get(i).copied().unwrap_or(0),
                self.task.get(i).copied().unwrap_or(0),
                self.wave.get(i).copied().unwrap_or(0),
            )?;
        }
        for (t, label) in self.ann_time_s.iter().zip(&self.ann_label) {
            let ts = t * 1e6;
            writeln!(
                w,
                "{{\"ph\":\"i\",\"pid\":0,\"ts\":{ts:.3},\"name\":\"{label}\",\"s\":\"g\"}},"
            )?;
        }
        w.write_all(b"{\"ph\":\"M\",\"pid\":0,\"name\":\"trace_end\",\"args\":{}}\n]}\n")
    }

    /// Per-node utilization as CSV: `node,name,time_s,active_slots` step
    /// rows (one per change point). When any span ran rack-local or
    /// off-rack, three per-tier active-slot columns
    /// (`node_local,rack_local,off_rack`) follow, so the export carries
    /// the locality mix; flat (all node-local) runs keep the legacy
    /// four-column format byte-for-byte.
    ///
    /// This buffered form is the *reference* for the streaming
    /// [`write_utilization_csv`](Self::write_utilization_csv); the
    /// equality tests diff the two byte-for-byte.
    pub fn utilization_csv(&self) -> String {
        if self.has_remote_tiers() {
            let mut buf = Vec::new();
            // Writes to a Vec cannot fail.
            let _ = self.write_utilization_csv(&mut buf);
            return String::from_utf8(buf).unwrap_or_default();
        }
        let mut out = String::from("node,name,time_s,active_slots\n");
        for (i, n) in self.nodes.iter().enumerate() {
            for (t, a) in self.active_steps(i) {
                let _ = writeln!(out, "{i},{},{t:.6},{a}", n.name);
            }
        }
        out
    }

    /// Streaming form of [`utilization_csv`](Self::utilization_csv):
    /// identical bytes, written incrementally, with the per-node step
    /// functions computed in one pass over the span columns
    /// ([`active_steps_all`](Self::active_steps_all)) instead of one
    /// full-timeline scan per node.
    pub fn write_utilization_csv<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        if self.has_remote_tiers() {
            w.write_all(b"node,name,time_s,active_slots,node_local,rack_local,off_rack\n")?;
            let steps = self.tier_steps_all();
            for (i, n) in self.nodes.iter().enumerate() {
                for &(t, a, [nl, rl, of]) in steps.get(i).map(Vec::as_slice).unwrap_or_default() {
                    writeln!(w, "{i},{},{t:.6},{a},{nl},{rl},{of}", n.name)?;
                }
            }
            return Ok(());
        }
        w.write_all(b"node,name,time_s,active_slots\n")?;
        let steps = self.active_steps_all();
        for (i, n) in self.nodes.iter().enumerate() {
            for (t, a) in steps.get(i).map_or(&[][..], Vec::as_slice) {
                writeln!(w, "{i},{},{t:.6},{a}", n.name)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails to compile if shared ownership (`Rc`, boxed event closures)
    /// ever comes back into the engines' state.
    #[test]
    fn engine_state_is_send() {
        fn is_send<T: Send>() {}
        is_send::<(FaultState, Simulation<FaultEvent>)>();
        is_send::<(SlotBook<usize>, Simulation<Done>)>();
    }

    fn set(tasks: usize, secs: f64) -> TaskSet {
        TaskSet {
            tasks,
            task_seconds: secs,
            overhead_seconds: 0.0,
        }
    }

    fn makespan(set: &TaskSet, slots: usize) -> f64 {
        homogeneous_makespan(set, 1, slots, CoreKind::Big)
    }

    #[test]
    fn single_wave_equals_longest_task() {
        let t = makespan(&set(4, 10.0), 8);
        assert!((9.2..=10.8).contains(&t), "one wave with jitter, got {t}");
    }

    #[test]
    fn waves_stack() {
        let t1 = makespan(&set(8, 10.0), 8);
        let t3 = makespan(&set(24, 10.0), 8);
        assert!(t3 > 2.7 * t1, "three waves must take ~3x one wave");
        assert!(t3 < 3.3 * t1);
    }

    #[test]
    fn overhead_charges_per_task() {
        let no = makespan(&set(16, 10.0), 4);
        let with = makespan(
            &TaskSet {
                tasks: 16,
                task_seconds: 10.0,
                overhead_seconds: 2.0,
            },
            4,
        );
        // 4 waves x 2 s extra per task in the critical path.
        assert!((with - no - 8.0).abs() < 1.0, "got {}", with - no);
    }

    #[test]
    fn more_slots_cannot_be_slower() {
        let few = makespan(&set(20, 5.0), 2);
        let many = makespan(&set(20, 5.0), 10);
        assert!(many < few);
    }

    #[test]
    fn node_split_does_not_change_homogeneous_makespan() {
        // 1 node x 8 slots and 4 nodes x 2 slots are the same flat pool
        // when every node is identical.
        let s = set(20, 5.0);
        assert_eq!(
            homogeneous_makespan(&s, 1, 8, CoreKind::Big),
            homogeneous_makespan(&s, 4, 2, CoreKind::Big),
        );
    }

    #[test]
    fn empty_set_is_free() {
        assert_eq!(makespan(&set(0, 5.0), 4), 0.0);
    }

    #[test]
    fn deterministic() {
        let a = makespan(&set(37, 3.3), 5);
        let b = makespan(&set(37, 3.3), 5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = makespan(&set(1, 1.0), 0);
    }

    fn mixed_cluster() -> Cluster {
        Cluster::mixed(1, 2, 2, 2)
    }

    fn hetero_load(tasks: usize, cluster: &Cluster) -> PhaseLoad {
        PhaseLoad::by_kind(
            tasks,
            NodeTiming {
                task_seconds: 4.0,
                overhead_seconds: 0.0,
            },
            NodeTiming {
                task_seconds: 10.0,
                overhead_seconds: 0.0,
            },
            cluster,
        )
    }

    #[test]
    fn duration_follows_the_landing_node() {
        let c = mixed_cluster();
        let run = run_phase(&c, &hetero_load(4, &c), &mut FifoAnySlot);
        for s in &run.spans {
            let d = s.finished_s - s.launched_s;
            match c.nodes[s.node].kind {
                CoreKind::Big => assert!((3.5..=4.5).contains(&d), "big task took {d}"),
                CoreKind::Little => assert!((9.0..=11.0).contains(&d), "little task took {d}"),
            }
        }
    }

    #[test]
    fn kind_preferring_lands_on_preferred_kind_first() {
        let c = mixed_cluster();
        let mut p = KindPreferring {
            preferred: CoreKind::Little,
        };
        // 4 little slots... only 2 — cluster is 1 big x2 + 2 little x2.
        let run = run_phase(&c, &hetero_load(4, &c), &mut p);
        let on_little = run
            .spans
            .iter()
            .filter(|s| c.nodes[s.node].kind == CoreKind::Little)
            .count();
        assert_eq!(on_little, 4, "all four fit on the four little slots");
    }

    #[test]
    fn kind_preferring_spills_when_saturated() {
        let c = mixed_cluster();
        let mut p = KindPreferring {
            preferred: CoreKind::Little,
        };
        let run = run_phase(&c, &hetero_load(6, &c), &mut p);
        let on_big = run
            .spans
            .iter()
            .filter(|s| c.nodes[s.node].kind == CoreKind::Big)
            .count();
        assert!(on_big > 0, "work-conserving spill onto the big node");
    }

    #[test]
    fn placement_constructors_wire_to_sched() {
        let p = KindPreferring::for_class(JobClass::Compute, MetricKind::Edp);
        assert_eq!(p.preferred, CoreKind::Little);
        let p = KindPreferring::for_class(JobClass::Io, MetricKind::Edp);
        assert_eq!(p.preferred, CoreKind::Big);
        assert_eq!(
            KindPreferring::from_cost_table(&CostTable::new(), MetricKind::Edp).preferred,
            CoreKind::Big,
            "empty table falls back to big"
        );
    }

    #[test]
    fn spans_are_complete_and_ordered() {
        let c = Cluster::homogeneous(CoreKind::Big, 2, 2);
        let s = set(9, 3.0);
        let run = run_phase(&c, &PhaseLoad::uniform(&s, &c), &mut FifoAnySlot);
        assert_eq!(run.spans.len(), 9);
        for (i, sp) in run.spans.iter().enumerate() {
            assert_eq!(sp.task, i);
            assert!(sp.finished_s > sp.launched_s);
            assert!(sp.launched_s >= sp.queued_s);
            assert!(sp.wave >= 1);
            assert!(sp.node < 2 && sp.slot < 2);
        }
        let end = run.spans.iter().map(|s| s.finished_s).fold(0.0, f64::max);
        assert_eq!(end, run.makespan_s);
    }

    #[test]
    fn slot_stats_count_queueing() {
        let c = Cluster::homogeneous(CoreKind::Big, 1, 2);
        let s = set(5, 2.0);
        let run = run_phase(&c, &PhaseLoad::uniform(&s, &c), &mut FifoAnySlot);
        assert_eq!(run.slots.capacity, 2);
        assert_eq!(run.slots.peak_in_use, 2);
        assert_eq!(run.slots.tasks_queued, 3, "tasks beyond the first wave");
        assert_eq!(run.slots.max_queue_len, 3);
        assert!(run.slots.total_wait_s > 0.0);
        assert!(run.slots.mean_wait_s() > 0.0);
    }

    use hhsim_faults::FaultPlan;

    /// Task-failure-only fault layer: no crashes, no stragglers.
    fn failure_faults(nodes: usize, rate: f64, seed: u64) -> PhaseFaults {
        PhaseFaults {
            plan: FaultPlan::new(seed, 0, rate),
            crash_at_s: vec![None; nodes],
            dead_at_start: vec![false; nodes],
            slowdown: vec![1.0; nodes],
            policy: RecoveryPolicy::hadoop(),
            domains: hhsim_faults::PhaseDomains::default(),
        }
    }

    #[test]
    fn attempt_jitter_first_attempt_matches_jitter() {
        for task in 0..64 {
            assert_eq!(attempt_jitter(task, 1), jitter(task));
        }
        assert_ne!(attempt_jitter(3, 2), attempt_jitter(3, 1));
        let j = attempt_jitter(3, 2);
        assert!((0.92..=1.08).contains(&j));
    }

    #[test]
    fn inert_faults_match_fault_free_engine_exactly() {
        let c = mixed_cluster();
        let load = hetero_load(9, &c);
        let plain = run_phase(&c, &load, &mut FifoAnySlot);
        let inert = run_phase_faulty(
            &c,
            &load,
            &mut FifoAnySlot,
            Some(&PhaseFaults::inert(c.nodes.len())),
        )
        .expect("inert faults cannot fail the phase");
        assert_eq!(plain, inert, "inert fault layer must be a perfect no-op");

        let mut p = KindPreferring {
            preferred: CoreKind::Little,
        };
        let plain = run_phase(&c, &load, &mut p);
        let mut p = KindPreferring {
            preferred: CoreKind::Little,
        };
        let inert = run_phase_faulty(&c, &load, &mut p, Some(&PhaseFaults::inert(c.nodes.len())))
            .expect("inert faults cannot fail the phase");
        assert_eq!(plain, inert);

        let none = run_phase_faulty(&c, &load, &mut FifoAnySlot, None)
            .expect("no faults cannot fail the phase");
        assert_eq!(none, run_phase(&c, &load, &mut FifoAnySlot));
    }

    #[test]
    fn failed_attempts_are_reexecuted() {
        let c = Cluster::homogeneous(CoreKind::Big, 1, 2);
        let load = PhaseLoad::uniform(&set(16, 10.0), &c);
        let faults = failure_faults(1, 0.4, 7);
        let baseline = run_phase(&c, &load, &mut FifoAnySlot);
        let run = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect("recovery must absorb sub-certain failure rates");
        assert!(
            run.faults.failed_attempts > 0,
            "seed 7 at rate 0.4 must inject at least one failure"
        );
        assert_eq!(run.spans.len(), 16, "every task still completes");
        for s in &run.spans {
            assert_eq!(s.outcome, AttemptOutcome::Success);
        }
        // Each failed attempt has a matching later, higher-numbered
        // winning or wasted attempt for the same task.
        for w in &run.wasted {
            assert_eq!(w.outcome, AttemptOutcome::Failed);
            let winner = &run.spans[w.task];
            assert!(winner.attempt > w.attempt);
            assert!(winner.finished_s > w.finished_s);
        }
        assert!(
            run.makespan_s > baseline.makespan_s,
            "re-execution costs wall-clock"
        );
        assert!(run.faults.wasted_slot_s > 0.0);
    }

    #[test]
    fn certain_failure_exhausts_attempts() {
        let c = Cluster::homogeneous(CoreKind::Big, 1, 2);
        let load = PhaseLoad::uniform(&set(4, 5.0), &c);
        let faults = failure_faults(1, 1.0, 0);
        let err = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect_err("rate 1.0 can never complete");
        match err {
            PhaseError::AttemptsExhausted { attempts, .. } => {
                assert_eq!(attempts, RecoveryPolicy::hadoop().max_attempts);
            }
            other => panic!("expected AttemptsExhausted, got {other}"),
        }
    }

    #[test]
    fn crash_moves_work_to_surviving_node() {
        let c = Cluster::homogeneous(CoreKind::Big, 2, 2);
        let load = PhaseLoad::uniform(&set(8, 10.0), &c);
        let mut faults = PhaseFaults::inert(2);
        faults.crash_at_s[0] = Some(5.0);
        let run = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect("the surviving node finishes the phase");
        assert_eq!(run.faults.node_crashes, 1);
        assert!(run.faults.killed_attempts >= 1, "node0 had tasks in flight");
        assert_eq!(run.spans.len(), 8);
        for s in &run.spans {
            assert!(
                s.launched_s < 5.0 || s.node == 1,
                "nothing launches on the dead node after the crash"
            );
        }
        for w in &run.wasted {
            assert_eq!(w.outcome, AttemptOutcome::Killed);
            assert_eq!(w.node, 0);
            assert!((w.finished_s - 5.0).abs() < 1e-9, "killed at crash time");
        }
    }

    #[test]
    fn lone_node_crash_errors_cleanly() {
        let c = Cluster::homogeneous(CoreKind::Big, 1, 2);
        let load = PhaseLoad::uniform(&set(6, 10.0), &c);
        let mut faults = PhaseFaults::inert(1);
        faults.crash_at_s[0] = Some(5.0);
        let err = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect_err("zero live slots cannot finish the phase");
        match err {
            PhaseError::NoUsableSlots { pending } => assert_eq!(pending, 6),
            other => panic!("expected NoUsableSlots, got {other}"),
        }
    }

    #[test]
    fn dead_at_start_cluster_errors_cleanly() {
        let c = Cluster::homogeneous(CoreKind::Big, 2, 2);
        let load = PhaseLoad::uniform(&set(3, 1.0), &c);
        let mut faults = PhaseFaults::inert(2);
        faults.dead_at_start = vec![true, true];
        let err = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect_err("no live nodes at phase start");
        assert_eq!(err, PhaseError::NoUsableSlots { pending: 3 });
    }

    /// Two healthy-node slots plus a 4x-degraded straggler node.
    fn straggler_scenario(speculation: bool) -> Result<PhaseRun, PhaseError> {
        let c = Cluster::homogeneous(CoreKind::Big, 2, 2);
        let load = PhaseLoad::uniform(&set(4, 10.0), &c);
        let mut faults = PhaseFaults::inert(2);
        faults.slowdown[1] = 4.0;
        faults.policy.speculation = speculation;
        run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
    }

    #[test]
    fn speculation_rescues_straggler_tasks() {
        let slow = straggler_scenario(false).expect("stragglers still finish");
        let spec = straggler_scenario(true).expect("speculation still finishes");
        assert!(spec.faults.speculative_launched >= 1);
        assert!(spec.faults.speculative_wins >= 1);
        assert_eq!(
            spec.faults.cancelled_attempts, spec.faults.speculative_wins,
            "every win cancels exactly the one losing rival"
        );
        assert!(
            spec.makespan_s < 0.7 * slow.makespan_s,
            "backups on the fast node must beat the 4x straggler: {} vs {}",
            spec.makespan_s,
            slow.makespan_s
        );
        // Exactly one winner per task, no duplicate outputs.
        assert_eq!(spec.spans.len(), 4);
        for (i, s) in spec.spans.iter().enumerate() {
            assert_eq!(s.task, i);
            assert_eq!(s.outcome, AttemptOutcome::Success);
        }
        for w in &spec.wasted {
            assert_eq!(w.outcome, AttemptOutcome::Cancelled);
        }
    }

    #[test]
    fn slot_stats_stay_consistent_under_cancellation() {
        let spec = straggler_scenario(true).expect("speculation still finishes");
        assert!(spec.slots.peak_in_use <= spec.slots.capacity);

        // The timeline (winners + wasted) must drain every slot it opens,
        // even though losing attempts were cancelled mid-flight.
        let c = Cluster::homogeneous(CoreKind::Big, 2, 2);
        let mut tl = ClusterTimeline::new(&c);
        tl.extend("map", 0.0, &spec);
        for node in 0..2 {
            let steps = tl.active_steps(node);
            assert_eq!(steps.last().expect("steps end").1, 0, "all slots drain");
        }

        // absorb() stays monotone when a faulty phase's stats fold in.
        let mut total = SlotStats::default();
        total.absorb(&spec.slots);
        let before = total;
        total.absorb(&SlotStats::default());
        assert_eq!(total, before, "absorbing zeroes is a no-op");
        assert_eq!(total.capacity, spec.slots.capacity);
        assert_eq!(total.peak_in_use, spec.slots.peak_in_use);
    }

    #[test]
    fn wasted_spans_never_outlive_the_makespan() {
        let c = Cluster::homogeneous(CoreKind::Big, 2, 2);
        let load = PhaseLoad::uniform(&set(12, 8.0), &c);
        let mut faults = failure_faults(2, 0.3, 11);
        faults.slowdown[1] = 2.5;
        faults.crash_at_s[1] = Some(30.0);
        let run = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect("node0 survives to finish the phase");
        for w in &run.wasted {
            assert!(
                w.finished_s <= run.makespan_s + 1e-9,
                "wasted attempt outlives the makespan: {} > {}",
                w.finished_s,
                run.makespan_s
            );
            assert_ne!(w.outcome, AttemptOutcome::Success);
        }
        let expected: f64 = run.wasted.iter().map(|w| w.finished_s - w.launched_s).sum();
        assert!((run.faults.wasted_slot_s - expected).abs() < 1e-6);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let c = Cluster::homogeneous(CoreKind::Big, 2, 2);
        let load = PhaseLoad::uniform(&set(12, 8.0), &c);
        let mut faults = failure_faults(2, 0.3, 11);
        faults.slowdown[1] = 2.5;
        let a = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect("recovery completes");
        let b = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect("recovery completes");
        assert_eq!(a, b, "same plan, same run, bit for bit");
    }

    #[test]
    fn faulty_trace_labels_attempts_and_outcomes() {
        let c = Cluster::homogeneous(CoreKind::Big, 2, 2);
        let load = PhaseLoad::uniform(&set(8, 10.0), &c);
        let mut faults = failure_faults(2, 0.4, 7);
        faults.crash_at_s[1] = Some(12.0);
        let run =
            run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults)).expect("node0 survives");
        let mut tl = ClusterTimeline::new(&c);
        tl.extend("map", 0.0, &run);
        let json = tl.to_chrome_trace_json();
        assert!(
            json.contains("\"outcome\":\""),
            "wasted attempts are labelled in the trace"
        );
        assert!(
            json.contains("\"attempt\":"),
            "re-executions carry their attempt number"
        );
        // Fault-free spans keep the legacy arg set.
        let clean = run_phase(&c, &load, &mut FifoAnySlot);
        let mut tl = ClusterTimeline::new(&c);
        tl.extend("map", 0.0, &clean);
        let json = tl.to_chrome_trace_json();
        assert!(!json.contains("\"outcome\""));
        assert!(!json.contains("\"attempt\""));
    }

    #[test]
    fn blacklisted_node_receives_no_new_attempts() {
        // With blacklist_after = 1, the node hosting the very first
        // failure is blacklisted on the spot; the guard protecting the
        // last usable node keeps the other node schedulable forever, so
        // exactly one node is blacklisted and it is identifiable from
        // the earliest Failed span.
        let c = Cluster::homogeneous(CoreKind::Big, 2, 1);
        let load = PhaseLoad::uniform(&set(10, 5.0), &c);
        let mut faults = failure_faults(2, 0.35, 3);
        faults.policy.blacklist_after = 1;
        let run = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect("seed 3 at rate 0.35 recovers");
        assert!(
            run.faults.failed_attempts > 0,
            "seed 3 must inject failures"
        );
        assert_eq!(
            run.faults.blacklisted_nodes, 1,
            "last usable node is spared"
        );
        let first = run
            .wasted
            .iter()
            .filter(|w| w.outcome == AttemptOutcome::Failed)
            .min_by(|a, b| a.finished_s.total_cmp(&b.finished_s))
            .expect("failures were injected");
        for s in run.spans.iter().chain(&run.wasted) {
            assert!(
                s.node != first.node || s.launched_s < first.finished_s + 1e-9,
                "node {} blacklisted at {} but got a launch at {}",
                first.node,
                first.finished_s,
                s.launched_s
            );
        }
    }

    use hhsim_faults::{LinkWindow, PhaseDomains};

    /// A 4-node, 1-slot-per-node cluster over two racks (node % 2),
    /// with a reduce-like load and a fetch plan mapping map outputs to
    /// holders. `map_replicas` follows HDFS: the holder is always the
    /// first replica.
    fn fetch_scenario() -> (Cluster, PhaseLoad, FetchPlan) {
        let c = Cluster::homogeneous(CoreKind::Big, 4, 1);
        let load = PhaseLoad::uniform(&set(4, 10.0), &c);
        let plan = FetchPlan {
            holders: vec![0, 0, 1, 3],
            map_replicas: vec![vec![0, 2], vec![0, 2], vec![1, 3], vec![3, 1]],
            topology: Topology::racked(2, 1.0),
            read_seconds: [0.0, 2.0, 6.0],
            map_timing: vec![
                NodeTiming {
                    task_seconds: 3.0,
                    overhead_seconds: 0.1,
                };
                4
            ],
        };
        (c, load, plan)
    }

    #[test]
    fn rack_crash_markers_count_and_annotate() {
        let c = Cluster::homogeneous(CoreKind::Big, 4, 1);
        let load = PhaseLoad::uniform(&set(8, 5.0), &c);
        let mut faults = PhaseFaults::inert(4);
        // Rack 1 = nodes {1, 3}; the ToR dies at t=6 taking both down.
        faults.domains = PhaseDomains {
            racks: 2,
            rack_crash_at_s: vec![None, Some(6.0)],
            link_degraded: vec![None, None],
        };
        faults.crash_at_s[1] = Some(6.0);
        faults.crash_at_s[3] = Some(6.0);
        let run = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect("rack 0 survives to finish the phase");
        assert_eq!(run.faults.rack_crashes, 1, "one whole-rack outage");
        assert_eq!(run.faults.node_crashes, 2);
        assert_eq!(
            run.annotations,
            vec![(6.0, String::from("rack-crash:1"))],
            "the outage is annotated once, at crash time"
        );
        for s in &run.spans {
            assert!(
                s.launched_s < 6.0 || s.node % 2 == 0,
                "nothing launches in the dead rack after the crash"
            );
        }
        // The annotation rides into the chrome trace as an instant
        // event; clean runs carry none.
        let mut tl = ClusterTimeline::new(&c);
        tl.extend("map", 0.0, &run);
        let json = tl.to_chrome_trace_json();
        assert!(json.contains("\"name\":\"rack-crash:1\""));
        assert!(json.contains("\"ph\":\"i\""));
        let clean = run_phase(&c, &load, &mut FifoAnySlot);
        let mut tl = ClusterTimeline::new(&c);
        tl.extend("map", 0.0, &clean);
        assert!(!tl.to_chrome_trace_json().contains("\"ph\":\"i\""));
    }

    #[test]
    fn rack_blacklisting_never_strands_the_last_rack() {
        let c = Cluster::homogeneous(CoreKind::Big, 4, 1);
        let load = PhaseLoad::uniform(&set(16, 5.0), &c);
        let mut faults = failure_faults(4, 0.3, 9);
        faults.policy.blacklist_after = 1;
        faults.policy.rack_blacklist_after = 1;
        faults.domains = PhaseDomains {
            racks: 2,
            rack_crash_at_s: vec![None, None],
            link_degraded: vec![None, None],
        };
        let run = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect("the spared rack finishes the phase");
        assert!(
            run.faults.failed_attempts > 0,
            "seed 9 must inject failures"
        );
        // The first failure blacklists its node and escalates to its
        // rack; the other rack may lose nodes individually but never the
        // whole rack (last-usable-rack guard), and the last usable node
        // is always spared, so the phase completes.
        assert_eq!(run.faults.racks_blacklisted, 1);
        assert!(run.faults.blacklisted_nodes <= 3);
        assert_eq!(run.spans.len(), 16);
        let dead_rack = run
            .annotations
            .iter()
            .find_map(|(_, a)| a.strip_prefix("rack-blacklisted:"))
            .and_then(|r| r.parse::<usize>().ok())
            .expect("rack blacklist is annotated");
        let (t_black, _) = run.annotations[0];
        for s in run.spans.iter().chain(&run.wasted) {
            assert!(
                s.node % 2 != dead_rack || s.launched_s < t_black + 1e-9,
                "rack {dead_rack} blacklisted at {t_black} but node {} launched at {}",
                s.node,
                s.launched_s
            );
        }
    }

    #[test]
    fn fetch_failure_reexecutes_lost_maps_on_surviving_replicas() {
        let (c, load, plan) = fetch_scenario();
        let mut faults = PhaseFaults::inert(4);
        // Node 0 holds map outputs 0 and 1; it dies mid-shuffle.
        faults.crash_at_s[0] = Some(5.0);
        let run = run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
            .expect("surviving replicas recover the lost outputs");
        // The in-flight reduce on node 0 is killed; the three on
        // surviving nodes register fetch failures.
        assert_eq!(run.faults.killed_attempts, 1);
        assert_eq!(run.faults.fetch_failures, 3);
        let fetch_failed = run
            .wasted
            .iter()
            .filter(|w| w.outcome == AttemptOutcome::FetchFailed)
            .count() as u64;
        assert_eq!(fetch_failed, run.faults.fetch_failures);
        // Both lost maps re-execute exactly once, as attempt >= 2, on a
        // node the NameNode's surviving replica set justifies: map 0
        // lands on surviving replica holder 2 (node-local), map 1 finds
        // node 2 busy and prices an off-rack read from it.
        assert_eq!(run.faults.reexecuted_maps, 2);
        assert_eq!(run.recovered.len(), 2);
        let tiers: Vec<(usize, LocalityTier)> =
            run.recovered.iter().map(|r| (r.task, r.tier)).collect();
        assert_eq!(
            tiers,
            vec![(0, LocalityTier::NodeLocal), (1, LocalityTier::OffRack)]
        );
        for r in &run.recovered {
            assert_eq!(r.outcome, AttemptOutcome::Recovered);
            assert!(r.attempt >= 2, "a re-execution is never attempt 1");
            assert!(r.node != 0, "never on the dead holder");
            assert!(r.finished_s <= run.makespan_s + 1e-9);
        }
        // Reduces stall on the shuffle barrier until the last lost map
        // has been re-executed.
        let recovery_end = run
            .recovered
            .iter()
            .map(|r| r.finished_s)
            .fold(0.0, f64::max);
        for s in &run.spans {
            assert!(
                s.launched_s < 5.0 || s.launched_s >= recovery_end - 1e-9,
                "reduce launched at {} inside the recovery window",
                s.launched_s
            );
            assert_eq!(s.outcome, AttemptOutcome::Success);
        }
        // The trace vocabulary carries the new outcomes.
        let mut tl = ClusterTimeline::new(&c);
        tl.extend("reduce", 0.0, &run);
        let json = tl.to_chrome_trace_json();
        assert!(json.contains("\"outcome\":\"fetch-failed\""));
        assert!(json.contains("\"outcome\":\"recovered\""));
        // Determinism: same plan, same bytes.
        let again = run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
            .expect("deterministic");
        assert_eq!(run, again);
    }

    #[test]
    fn all_replicas_gone_is_a_clean_data_lost_error() {
        let (c, load, mut plan) = fetch_scenario();
        // Map 0's input block lives only in rack 0 (nodes 0 and 2) and
        // the whole rack dies: no surviving replica anywhere.
        plan.map_replicas[0] = vec![0, 2];
        let mut faults = PhaseFaults::inert(4);
        faults.crash_at_s[0] = Some(5.0);
        faults.crash_at_s[2] = Some(5.0);
        let err = run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
            .expect_err("no replica survives");
        assert_eq!(err, PhaseError::DataLost { task: 0 });
        assert!(err.to_string().contains("lost every replica"));
    }

    #[test]
    fn holder_dead_between_phases_recovers_before_reduces_launch() {
        let (c, load, plan) = fetch_scenario();
        let mut faults = PhaseFaults::inert(4);
        faults.dead_at_start[0] = true;
        let run = run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
            .expect("maps 0 and 1 recover from surviving replicas");
        assert_eq!(run.faults.reexecuted_maps, 2);
        assert_eq!(run.faults.fetch_failures, 0, "no reduce was in flight yet");
        let recovery_end = run
            .recovered
            .iter()
            .map(|r| r.finished_s)
            .fold(0.0, f64::max);
        for s in &run.spans {
            assert!(
                s.launched_s >= recovery_end - 1e-9,
                "every reduce waits out the recovery"
            );
        }
    }

    #[test]
    fn fetch_plan_without_crashes_is_invisible() {
        let (c, load, plan) = fetch_scenario();
        let faults = PhaseFaults::inert(4);
        let with = run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
            .expect("inert faults complete");
        let without = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults))
            .expect("inert faults complete");
        assert_eq!(with, without, "an unused fetch plan is a perfect no-op");
        assert!(with.recovered.is_empty());
        assert!(with.annotations.is_empty());
    }

    #[test]
    fn link_degradation_taxes_remote_recovery_reads() {
        let (c, load, plan) = fetch_scenario();
        let mut faults = PhaseFaults::inert(4);
        faults.crash_at_s[0] = Some(5.0);
        let healthy =
            run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
                .expect("healthy links");
        // Map 1's off-rack recovery read lands on node 1 (rack 1); a
        // degradation window over rack 1 multiplies that read by 4.
        faults.domains = PhaseDomains {
            racks: 2,
            rack_crash_at_s: vec![None, None],
            link_degraded: vec![
                None,
                Some(LinkWindow {
                    start_s: 0.0,
                    end_s: 100.0,
                    factor: 4.0,
                }),
            ],
        };
        let degraded =
            run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
                .expect("degraded links still recover");
        assert!(degraded.faults.link_degraded_attempts >= 1);
        assert_eq!(healthy.faults.link_degraded_attempts, 0);
        assert!(
            degraded.makespan_s > healthy.makespan_s + 1.0,
            "a 4x slower 6 s off-rack read must show in the makespan: {} vs {}",
            degraded.makespan_s,
            healthy.makespan_s
        );
    }

    #[test]
    fn timeline_composes_phases_and_exports() {
        let c = mixed_cluster();
        let load = hetero_load(5, &c);
        let map = run_phase(&c, &load, &mut FifoAnySlot);
        let red = run_phase(
            &c,
            &hetero_load(2, &c),
            &mut KindPreferring {
                preferred: CoreKind::Big,
            },
        );
        let mut tl = ClusterTimeline::new(&c);
        tl.extend("map", 0.0, &map);
        tl.extend("reduce", map.makespan_s, &red);
        assert_eq!(tl.len(), 7);
        assert!((tl.end_s() - (map.makespan_s + red.makespan_s)).abs() < 1e-9);

        let json = tl.to_chrome_trace_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"map\""));
        assert!(json.contains("\"cat\":\"reduce\""));
        assert!(json.contains("process_name"));
        assert!(!json.contains(",\n]"), "no trailing comma before array end");

        let csv = tl.utilization_csv();
        assert!(csv.starts_with("node,name,time_s,active_slots"));
        for i in 0..c.nodes.len() {
            let steps = tl.active_steps(i);
            assert_eq!(steps.last().expect("steps end").1, 0, "all slots drain");
            for w in steps.windows(2) {
                assert!(w[1].0 > w[0].0, "strictly increasing change points");
            }
            assert!(tl.busy_slot_seconds(i) >= 0.0);
        }
    }
}
