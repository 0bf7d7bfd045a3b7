//! Placement policies: which free slot the task at the head of the queue
//! gets.

use hhsim_arch::CoreKind;
use hhsim_energy::MetricKind;
use hhsim_sched::{paper_schedule, JobClass};

use super::{Cluster, FreeSlots, LocalityTier, PhaseLocality};

/// Chooses the node for the task at the head of the FIFO queue.
///
/// The engine is work-conserving: `place` is only called when at least
/// one slot is free, and must return a usable node with a free slot.
pub trait Placement {
    /// Node id for `task`; `free` indexes the cluster's ready nodes.
    fn place(&mut self, task: usize, cluster: &Cluster, free: &FreeSlots) -> usize;

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
                for (i, &r) in reps.iter().enumerate() {
                    let rack = r % racks;
                    // A rack an earlier replica shares has been searched.
                    if reps.iter().take(i).any(|&e| e % racks == rack) {
                        continue;
                    }
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
}

impl Placement for KindPreferring {
    fn place(&mut self, _task: usize, _cluster: &Cluster, free: &FreeSlots) -> usize {
        free.first_free_of(self.preferred)
            .or_else(|| free.first_free())
            .expect("a slot is free")
    }
}
