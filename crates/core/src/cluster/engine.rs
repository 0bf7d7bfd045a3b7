//! The fault-free phase engine: the loop the code selects when a phase
//! has no fault layer.

use hhsim_des::{SimTime, Simulation};
use hhsim_faults::{AttemptOutcome, FaultStats};

use super::slots::SlotBook;
use super::{jitter, Cluster, PhaseLoad, PhaseRun, Placement, TaskSpan};

/// The fault-free engine's only calendar event: the task on `slot` of
/// `node` completed.
#[derive(Debug, Clone, Copy)]
pub(super) struct Done {
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
    // The queue is `0..tasks`, served from the front and never re-entered:
    // the task at its head is the number of tasks launched so far, and
    // launch order is task order. So the queue is not built, and a span is
    // written once, at the end of `spans`, where its task index puts it.
    let mut spans: Vec<TaskSpan> = Vec::with_capacity(load.tasks);
    let mut book: SlotBook<usize> = SlotBook::new(cluster, None);
    book.stats.max_queue_len = load.tasks.saturating_sub(capacity);
    loop {
        // Launch queued tasks while slots are free: at phase start and
        // again after every completion, so grant order is FIFO at
        // identical virtual times — exactly the slot-pool semantics of
        // the flat model this engine replaced.
        while book.slots.total_free() > 0 && spans.len() < load.tasks {
            let task = spans.len();
            let (node, tier) =
                placement.place_local(task, cluster, &book.slots, load.locality.as_ref());
            assert!(book.slots.free(node) > 0, "placement chose a busy node");
            let now = sim.now();
            let (slot, wave) = book.claim_slot(node);
            book.note_wait(now);
            let t = &load.timing[node];
            let dur = SimTime::from_secs_f64(
                t.task_seconds * jitter(task) + t.overhead_seconds + load.extra_for(task, tier),
            );
            spans.push(TaskSpan {
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
        spans,
        slots: book.stats,
        wasted: Vec::new(),
        recovered: Vec::new(),
        annotations: Vec::new(),
        faults: FaultStats::default(),
    }
}
