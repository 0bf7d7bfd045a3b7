//! The fault-free phase engine: the loop the code selects when a phase
//! has no fault layer.

use hhsim_des::{SimTime, Simulation};
use hhsim_faults::AttemptOutcome;

use super::slots::SlotBook;
use super::{jitter, Cluster, PhaseLoad, PhaseRun, Placement, TaskSpan};

/// The fault-free engine's only calendar event: the task on `slot` of
/// `node` completed.
#[derive(Debug, Clone, Copy)]
pub(super) struct Done {
    node: usize,
    slot: usize,
}

/// The fault-free loop's working state between runs: its calendar and
/// slot book. A caller that runs many phases hands the same one to each,
/// and a run resets both before it reads them, so nothing of the last
/// run is read.
#[derive(Debug, Default)]
pub(crate) struct CleanScratch {
    sim: Simulation<Done>,
    book: SlotBook<usize>,
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
    run_phase_in(cluster, load, placement, &mut CleanScratch::default(), None)
}

/// [`run_phase`] on the calendar and slot book of `scratch`, writing its
/// result into the vectors of `recycled`, a run its caller is done with:
/// once both have held a run of this size, a run makes no allocator call.
/// A phase without tasks hands `recycled`'s vectors back cleared.
///
/// # Panics
///
/// Same contract as [`run_phase`].
pub(crate) fn run_phase_in(
    cluster: &Cluster,
    load: &PhaseLoad,
    placement: &mut dyn Placement,
    scratch: &mut CleanScratch,
    recycled: Option<PhaseRun>,
) -> PhaseRun {
    let capacity = cluster.total_slots();
    assert!(capacity > 0, "need at least one slot");
    assert_eq!(
        load.timing.len(),
        cluster.nodes.len(),
        "one timing entry per node"
    );
    let mut out = PhaseRun::idle(capacity, recycled);
    if load.tasks == 0 {
        return out;
    }

    let CleanScratch { sim, book } = scratch;
    sim.reset();
    // The queue is `0..tasks`, served from the front and never re-entered:
    // the task at its head is the number of tasks launched so far, and
    // launch order is task order. So the queue is not built, and a span is
    // written once, at the end of `spans`, where its task index puts it.
    let spans = &mut out.spans;
    spans.reserve_exact(load.tasks);
    book.reset(cluster, None);
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
    out.makespan_s = book.max_finish.as_secs_f64();
    out.slots = book.stats;
    out
}
