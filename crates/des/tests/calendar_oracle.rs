//! Differential oracle: the ladder calendar must pop the exact event
//! sequence the reference binary heap pops.
//!
//! Every case builds the same random schedule — initial events with
//! forced timestamp ties, follow-up events scheduled mid-execution
//! (which land *below* the ladder's active boundary), and cancellations
//! both before and during the run — on a heap-backed and a
//! ladder-backed [`Simulation`], in the closure form and in the typed
//! form (payload `u64`), then asserts the execution logs are identical.
//! On failure `hhsim_testkit::check` prints the reproducing case seed.
//!
//! The ladder pops a rotated-in bucket as a sorted run and keeps later
//! arrivals below the rotation boundary in a side heap; the dense
//! programs further down aim at the seam between the two — pushes into a
//! partly consumed run, equal timestamps on both sides of it,
//! cancellations of events already sorted into the run — and at `reset`
//! after the heap has migrated.

use std::cell::RefCell;
use std::rc::Rc;

use hhsim_des::{CalendarKind, EventId, SimTime, Simulation};
use hhsim_testkit::Gen;

/// One initial event of a schedule program.
#[derive(Debug, Clone)]
struct Spec {
    at_ns: u64,
    /// Follow-up events scheduled when this one fires: `now + delay`.
    children: Vec<u64>,
    /// Initial-event indices this event cancels when it fires.
    cancels: Vec<usize>,
}

/// Runs `specs` on `kind`, optionally pre-cancelling `pre_cancel`
/// indices before the first step; returns the ordered execution log
/// (tags are unique per scheduled event, children included).
fn run_program(kind: CalendarKind, specs: &[Spec], pre_cancel: &[usize]) -> Vec<(u64, u64)> {
    let mut sim = Simulation::with_calendar(kind);
    let log: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let ids: Rc<RefCell<Vec<EventId>>> = Rc::new(RefCell::new(Vec::new()));
    for (tag, spec) in specs.iter().enumerate() {
        let log = log.clone();
        let ids_for_event = ids.clone();
        let children = spec.children.clone();
        let cancels = spec.cancels.clone();
        let tag = tag as u64;
        let id = sim.schedule_at(SimTime::from_nanos(spec.at_ns), move |sim| {
            log.borrow_mut().push((sim.now().as_nanos(), tag));
            for &idx in &cancels {
                if let Some(&victim) = ids_for_event.borrow().get(idx) {
                    sim.cancel(victim);
                }
            }
            for (k, &delay) in children.iter().enumerate() {
                let log = log.clone();
                let child_tag = 10_000 + tag * 100 + k as u64;
                sim.schedule_in(SimTime::from_nanos(delay), move |sim| {
                    log.borrow_mut().push((sim.now().as_nanos(), child_tag));
                });
            }
        });
        ids.borrow_mut().push(id);
    }
    for &idx in pre_cancel {
        if let Some(&victim) = ids.borrow().get(idx) {
            sim.cancel(victim);
        }
    }
    let end = sim.run();
    let mut log = log.borrow_mut();
    log.push((end.as_nanos(), u64::MAX)); // final clock must agree too
    std::mem::take(&mut *log)
}

/// [`run_program`] on the typed kernel: the payload is the event's tag,
/// and the loop that pops it does what the closure did.
fn run_typed(kind: CalendarKind, specs: &[Spec], pre_cancel: &[usize]) -> Vec<(u64, u64)> {
    run_typed_on(&mut Simulation::typed(kind), specs, pre_cancel)
}

/// [`run_typed`] on a simulation the caller built — or has `reset`.
fn run_typed_on(
    sim: &mut Simulation<u64>,
    specs: &[Spec],
    pre_cancel: &[usize],
) -> Vec<(u64, u64)> {
    let ids: Vec<EventId> = (0u64..)
        .zip(specs)
        .map(|(tag, spec)| sim.push_at(SimTime::from_nanos(spec.at_ns), tag))
        .collect();
    for &idx in pre_cancel {
        if let Some(&victim) = ids.get(idx) {
            sim.cancel(victim);
        }
    }
    let mut log = Vec::new();
    while let Some(tag) = sim.pop() {
        log.push((sim.now().as_nanos(), tag));
        let Some(spec) = specs.get(tag as usize) else {
            continue; // a child event
        };
        for &idx in &spec.cancels {
            if let Some(&victim) = ids.get(idx) {
                sim.cancel(victim);
            }
        }
        for (k, &delay) in spec.children.iter().enumerate() {
            sim.push_in(SimTime::from_nanos(delay), 10_000 + tag * 100 + k as u64);
        }
    }
    log.push((sim.now().as_nanos(), u64::MAX));
    log
}

fn assert_backends_agree(specs: &[Spec], pre_cancel: &[usize]) {
    let heap = run_program(CalendarKind::Heap, specs, pre_cancel);
    for kind in [CalendarKind::Heap, CalendarKind::Ladder, CalendarKind::Auto] {
        let closure = run_program(kind, specs, pre_cancel);
        assert_eq!(heap, closure, "{kind:?} diverged from the heap reference");
        let typed = run_typed(kind, specs, pre_cancel);
        assert_eq!(heap, typed, "typed {kind:?} diverged from the closure form");
    }
}

/// Seeded grid: every pair of small timestamps, saturating the
/// tie-breaking path (equal times must pop in insertion order on both
/// backends).
#[test]
fn grid_of_small_schedules_with_ties() {
    for a in 0..5u64 {
        for b in 0..5u64 {
            for c in 0..5u64 {
                let specs: Vec<Spec> = [a, b, c]
                    .iter()
                    .map(|&t| Spec {
                        at_ns: t,
                        children: vec![],
                        cancels: vec![],
                    })
                    .collect();
                assert_backends_agree(&specs, &[]);
                assert_backends_agree(&specs, &[1]);
            }
        }
    }
}

/// Random schedules: clustered + far-flung timestamps, forced ties,
/// follow-up scheduling during execution, and cancellation before and
/// during the run.
#[test]
fn fuzzed_schedules_match_reference() {
    hhsim_testkit::check(200, |g: &mut Gen| {
        let n = g.usize(1..40);
        let mut specs = Vec::with_capacity(n);
        for i in 0..n {
            // Mix three time scales so the ladder exercises its active
            // heap, its buckets and its overflow re-bucketing.
            let at_ns = match g.usize(0..4) {
                0 => g.u64(0..16),                                               // dense ties
                1 => g.u64(0..100_000),                                          // bucket range
                2 => g.u64(0..10_000_000_000),                                   // overflow
                _ => specs.get(i.wrapping_sub(1)).map_or(0, |p: &Spec| p.at_ns), // exact duplicate
            };
            let children = g.vec(0..3, |g| g.u64(0..1_000_000));
            let cancels = g.vec(0..2, |g| g.usize(0..n));
            specs.push(Spec {
                at_ns,
                children,
                cancels,
            });
        }
        let pre_cancel: Vec<usize> = g.vec(0..4, |g| g.usize(0..n));
        assert_backends_agree(&specs, &pre_cancel);
    });
}

/// Dense schedules past the auto-migration threshold: the mid-run heap →
/// ladder migration must be invisible in the pop order.
#[test]
fn auto_migration_is_order_invisible() {
    hhsim_testkit::check(8, |g: &mut Gen| {
        let n = hhsim_des::AUTO_LADDER_THRESHOLD + g.usize(1..64);
        let specs: Vec<Spec> = (0..n)
            .map(|_| Spec {
                at_ns: g.u64(0..1_000_000),
                children: vec![],
                cancels: vec![],
            })
            .collect();
        let heap = run_program(CalendarKind::Heap, &specs, &[]);
        let auto = run_program(CalendarKind::Auto, &specs, &[]);
        assert_eq!(heap, auto, "migration changed the pop order");
        let typed = run_typed(CalendarKind::Auto, &specs, &[]);
        assert_eq!(heap, typed, "typed migration changed the pop order");
    });
}

/// `run_until` must advance bucket state identically on both backends.
#[test]
fn run_until_agrees_across_backends() {
    hhsim_testkit::check(100, |g: &mut Gen| {
        let times: Vec<u64> = g.vec(1..30, |g| g.u64(0..1_000_000));
        let boundary = g.u64(0..1_000_000);
        let mut results = Vec::new();
        for kind in [CalendarKind::Heap, CalendarKind::Ladder] {
            let mut sim = Simulation::with_calendar(kind);
            let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for &t in &times {
                let log = log.clone();
                sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                    log.borrow_mut().push(sim.now().as_nanos());
                });
            }
            let mid = sim.run_until(SimTime::from_nanos(boundary));
            let end = sim.run();
            results.push((log.borrow().clone(), mid, end));
        }
        assert_eq!(results.first(), results.last());
    });
}

/// Programs dense enough that a rotated-in bucket holds many events,
/// whose events then (a) schedule followers into the part of the active
/// zone the run has not reached yet — at the very timestamp the rest of
/// the run still holds (delay 0: FIFO by `seq` across run and side heap),
/// a fraction of a bucket ahead, or a bucket or two further — and
/// (b) cancel events that are a fraction of a bucket ahead, so already
/// sorted into the run that is being popped.
#[test]
fn dense_runs_take_pushes_ties_and_cancels_mid_run() {
    hhsim_testkit::check(40, |g: &mut Gen| {
        let n = g.usize(150..500);
        let span = g.u64(10_000..2_000_000);
        // What the ladder will pick over this span (TARGET_RUNGS = 64).
        let width = (span / 64).max(1);
        let mut times: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let at = match times.last() {
                Some(&prev) if g.bool(0.3) => prev, // run-internal tie
                _ => g.u64(0..span),
            };
            times.push(at);
        }
        let specs: Vec<Spec> = (times.iter())
            .map(|&at_ns| {
                let children = g.vec(0..3, |g| match g.usize(0..4) {
                    0 => 0,
                    1 => g.u64(0..width / 4 + 1),
                    2 => g.u64(0..width),
                    _ => g.u64(width..3 * width),
                });
                let ahead = |t: u64| t > at_ns && t - at_ns <= width / 2;
                let near: Vec<usize> = (0..n).filter(|&j| ahead(times[j])).collect();
                let cancels = match near.is_empty() {
                    true => Vec::new(),
                    false => g.vec(0..3, |g| *g.pick(&near)),
                };
                Spec {
                    at_ns,
                    children,
                    cancels,
                }
            })
            .collect();
        assert_backends_agree(&specs, &[]);
    });
}

/// `reset` after the heap has migrated to the ladder and a run is partly
/// consumed: the next program must run as on a new simulation — nothing
/// of the old run, side heap, buckets or tombstones may be left.
#[test]
fn reset_after_migration_runs_the_next_program_like_new() {
    hhsim_testkit::check(8, |g: &mut Gen| {
        let dense = |g: &mut Gen, n: usize| -> Vec<Spec> {
            (0..n)
                .map(|_| Spec {
                    at_ns: g.u64(0..1_000_000),
                    children: g.vec(0..2, |g| g.u64(0..20_000)),
                    cancels: vec![],
                })
                .collect()
        };
        for kind in [CalendarKind::Auto, CalendarKind::Ladder] {
            let mut sim: Simulation<u64> = Simulation::typed(kind);
            let past_threshold = hhsim_des::AUTO_LADDER_THRESHOLD + g.usize(1..64);
            let first = dense(g, past_threshold);
            let ids: Vec<EventId> = (0u64..)
                .zip(&first)
                .map(|(tag, spec)| sim.push_at(SimTime::from_nanos(spec.at_ns), tag))
                .collect();
            assert_eq!(sim.calendar_backend(), "ladder");
            for _ in 0..g.usize(1..2_000) {
                let tag = sim.pop().expect("thousands are pending");
                sim.push_in(SimTime::from_nanos(g.u64(0..5_000)), 1_000_000 + tag);
            }
            sim.cancel(*g.pick(&ids));
            sim.reset();
            let few = g.usize(1..300);
            let second = dense(g, few);
            let pre_cancel = [g.usize(0..second.len())];
            assert_eq!(
                run_typed_on(&mut sim, &second, &pre_cancel),
                run_typed(CalendarKind::Heap, &second, &pre_cancel),
                "{kind:?} after reset"
            );
        }
    });
}
