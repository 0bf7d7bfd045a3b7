//! The event-driven cluster engine against independent oracles.
//!
//! * **Parity**: a homogeneous cluster must reproduce, bit for bit, the
//!   legacy flat-`SlotPool` makespan the figures were seeded with — the
//!   reference is re-implemented here on the raw DES kernel.
//! * **Heterogeneity**: growing the cluster with a big node never hurts;
//!   little-only clusters never beat big-only ones on CPU-bound work.
//! * **Placement oracle**: on tiny single-slot-per-node instances, the
//!   engine's makespan is reproduced from its own trace spans by exact
//!   recomputation and lower-bounded by brute-force search over all
//!   task→node assignments.
//! * **The two engines as a differential pair**: over a seeded sweep of
//!   cluster shapes, placements, replica layouts and extras, the fault
//!   engine given nothing to inject returns the very `PhaseRun` the
//!   fault-free loop returns.

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{
    jitter, run_phase, run_phase_faulty, Cluster, FifoAnySlot, KindPreferring, Node, NodeTiming,
    PhaseLoad, PhaseLocality, Placement, TaskSet,
};
use hhsim_core::des::{SimTime, Simulation};
use hhsim_core::faults::PhaseFaults;
use hhsim_testkit::{Gen, SlotPool};

/// The pre-refactor cluster model: one flat FIFO slot pool, every task
/// identical, makespan read off the final simulation clock.
fn legacy_flat_makespan(set: &TaskSet, slots: usize) -> f64 {
    assert!(slots > 0);
    if set.tasks == 0 {
        return 0.0;
    }
    let mut sim = Simulation::new();
    let pool = SlotPool::shared("slots", slots);
    for i in 0..set.tasks {
        let dur = SimTime::from_secs_f64(set.task_seconds * jitter(i) + set.overhead_seconds);
        SlotPool::acquire(&pool, &mut sim, move |sim, guard| {
            sim.schedule_in(dur, move |sim| guard.release(sim));
        });
    }
    // The last event is the last task's release: the final clock is the
    // makespan — no completion-tracking cell needed.
    sim.run().as_secs_f64()
}

/// The engine's makespan for `set` on `nodes` identical `kind` nodes.
fn homogeneous_makespan(set: &TaskSet, nodes: usize, slots: usize, kind: CoreKind) -> f64 {
    let cluster = Cluster::homogeneous(kind, nodes, slots);
    run_phase(
        &cluster,
        &PhaseLoad::uniform(set, &cluster),
        &mut FifoAnySlot,
    )
    .makespan_s
}

fn set(tasks: usize, task_seconds: f64, overhead_seconds: f64) -> TaskSet {
    TaskSet {
        tasks,
        task_seconds,
        overhead_seconds,
    }
}

#[test]
fn engine_is_bit_identical_to_legacy_flat_pool() {
    let shapes = [(1usize, 8usize), (2, 4), (4, 2), (3, 5), (1, 1), (8, 1)];
    let timings = [(0.5, 0.0), (10.0, 0.0), (123.456, 1.5), (7.25, 0.125)];
    for tasks in [0usize, 1, 3, 7, 8, 12, 16, 33, 100] {
        for (nodes, slots) in shapes {
            for (task_s, over_s) in timings {
                let s = set(tasks, task_s, over_s);
                let legacy = legacy_flat_makespan(&s, nodes * slots);
                for kind in [CoreKind::Big, CoreKind::Little] {
                    let engine = homogeneous_makespan(&s, nodes, slots, kind);
                    assert_eq!(
                        engine.to_bits(),
                        legacy.to_bits(),
                        "parity broke: {tasks} tasks on {nodes}x{slots} \
                         ({task_s}s + {over_s}s): engine {engine} vs legacy {legacy}"
                    );
                }
            }
        }
    }
}

fn timings() -> (NodeTiming, NodeTiming) {
    let big = NodeTiming {
        task_seconds: 4.0,
        overhead_seconds: 0.2,
    };
    let little = NodeTiming {
        task_seconds: 11.0,
        overhead_seconds: 0.2,
    };
    (big, little)
}

fn mixed_makespan(
    big: usize,
    little: usize,
    tasks: usize,
    placement: &mut dyn hhsim_core::Placement,
) -> f64 {
    let cluster = Cluster::mixed(big, 2, little, 2);
    let (tb, tl) = timings();
    let load = PhaseLoad::by_kind(tasks, tb, tl, &cluster);
    run_phase(&cluster, &load, placement).makespan_s
}

#[test]
fn adding_a_big_node_never_increases_makespan_under_kind_aware_placement() {
    // Under the class-aware placement the little slots are claimed by the
    // earliest tasks regardless of big capacity, so growing the cluster
    // with a big node only ever starts queued work earlier.
    for little in [1usize, 2, 4] {
        for big in [0usize, 1, 2, 3] {
            for tasks in [1usize, 5, 9, 16, 40] {
                let mut p = KindPreferring {
                    preferred: CoreKind::Little,
                };
                let before = mixed_makespan(big, little, tasks, &mut p);
                let after = mixed_makespan(big + 1, little, tasks, &mut p);
                assert!(
                    after <= before + 1e-9,
                    "{big}+1 big, {little} little, {tasks} tasks: {before} -> {after}"
                );
            }
        }
    }
}

#[test]
fn greedy_any_slot_placement_has_a_graham_anomaly() {
    // The naive work-conserving baseline is NOT monotone in capacity: with
    // 3 big + 1 little nodes and 9 tasks, the 9th task waits briefly and
    // lands on a freed big slot; add a fourth big node and it dispatches
    // immediately — onto the slow little node, lengthening the phase.
    // This classic anomaly is exactly what the kind-aware placement
    // avoids (see the monotonicity test above).
    let before = mixed_makespan(3, 1, 9, &mut FifoAnySlot);
    let after = mixed_makespan(4, 1, 9, &mut FifoAnySlot);
    assert!(
        after > before,
        "expected the documented anomaly: {before} -> {after}"
    );
}

#[test]
fn little_only_is_never_faster_on_cpu_bound_work() {
    let (tb, tl) = timings();
    for nodes in [1usize, 2, 4] {
        for tasks in [1usize, 4, 13, 32] {
            let big_only = homogeneous_makespan(
                &set(tasks, tb.task_seconds, tb.overhead_seconds),
                nodes,
                4,
                CoreKind::Big,
            );
            let little_only = homogeneous_makespan(
                &set(tasks, tl.task_seconds, tl.overhead_seconds),
                nodes,
                4,
                CoreKind::Little,
            );
            assert!(
                little_only >= big_only,
                "{nodes} nodes, {tasks} tasks: little {little_only} < big {big_only}"
            );
        }
    }
}

/// Exact duration of task `i` on a node of `kind`, in kernel ticks.
fn dur_ticks(i: usize, kind: CoreKind, big: NodeTiming, little: NodeTiming) -> SimTime {
    let t = match kind {
        CoreKind::Big => big,
        CoreKind::Little => little,
    };
    SimTime::from_secs_f64(t.task_seconds * jitter(i) + t.overhead_seconds)
}

#[test]
fn tiny_instances_match_trace_recomputation_and_brute_force_bound() {
    let (tb, tl) = timings();
    // Single-slot nodes: each node runs its tasks strictly serially, so a
    // schedule's makespan is just the per-node sum of task durations.
    for (big, little) in [(1usize, 1usize), (1, 2), (2, 1)] {
        let cluster = Cluster::mixed(big, 1, little, 1);
        let n_nodes = cluster.nodes.len();
        for tasks in 1usize..=5 {
            let load = PhaseLoad::by_kind(tasks, tb, tl, &cluster);
            for placement in [
                &mut FifoAnySlot as &mut dyn hhsim_core::Placement,
                &mut KindPreferring {
                    preferred: CoreKind::Little,
                },
                &mut KindPreferring {
                    preferred: CoreKind::Big,
                },
            ] {
                let run = run_phase(&cluster, &load, placement);

                // Oracle 1: recompute the makespan from the engine's own
                // spans with independent integer arithmetic.
                let mut node_busy = vec![SimTime::ZERO; n_nodes];
                for s in &run.spans {
                    node_busy[s.node] += dur_ticks(s.task, cluster.nodes[s.node].kind, tb, tl);
                }
                let recomputed = node_busy
                    .iter()
                    .map(|t| t.as_secs_f64())
                    .fold(0.0, f64::max);
                assert_eq!(
                    recomputed.to_bits(),
                    run.makespan_s.to_bits(),
                    "trace spans disagree with reported makespan"
                );

                // Oracle 2: brute-force every task→node assignment; no
                // schedule beats the optimum, so neither may the engine.
                let mut best = f64::INFINITY;
                for code in 0..n_nodes.pow(tasks as u32) {
                    let mut c = code;
                    let mut busy = vec![SimTime::ZERO; n_nodes];
                    for i in 0..tasks {
                        let node = c % n_nodes;
                        c /= n_nodes;
                        busy[node] += dur_ticks(i, cluster.nodes[node].kind, tb, tl);
                    }
                    let mk = busy.iter().map(|t| t.as_secs_f64()).fold(0.0, f64::max);
                    best = best.min(mk);
                }
                assert!(
                    run.makespan_s >= best - 1e-12,
                    "engine {} beat the brute-force optimum {best}",
                    run.makespan_s
                );
            }
        }
    }
}

/// 1–40 nodes of either kind with 0–4 slots each (uneven, some with
/// none), at least one slot in all.
fn any_cluster(g: &mut Gen) -> Cluster {
    let mut nodes: Vec<Node> = (0..g.usize(1..41))
        .map(|_| Node {
            kind: *g.pick(&[CoreKind::Big, CoreKind::Little]),
            slots: g.usize(0..5),
        })
        .collect();
    if nodes.iter().all(|n| n.slots == 0) {
        nodes[0].slots = 1;
    }
    Cluster { nodes }
}

/// A replica layout no namenode would hand out but the engines must
/// agree on anyway: 0–4 holders per task, duplicates, two holders in one
/// rack, node ids the cluster does not have, and (often) fewer rows than
/// tasks.
fn any_locality(g: &mut Gen, tasks: usize, nodes: usize, scale: f64) -> PhaseLocality {
    let racks = *g.pick(&[1usize, 3, 7]);
    let rows = if g.bool(0.5) {
        tasks
    } else {
        g.usize(0..tasks + 1)
    };
    let replicas = (0..rows)
        .map(|_| {
            let mut reps: Vec<usize> = Vec::new();
            for _ in 0..g.usize(0..5) {
                let r = match (reps.last().copied(), g.usize(0..4)) {
                    (Some(prev), 0) => prev,         // the same holder twice
                    (Some(prev), 1) => prev + racks, // its rack neighbour
                    _ => g.usize(0..nodes + 3),      // anywhere, or nowhere
                };
                reps.push(r);
            }
            reps
        })
        .collect();
    PhaseLocality {
        replicas,
        racks,
        read_seconds: [0.0, scale * 0.1 * g.f64(), scale * 0.3 * g.f64()],
    }
}

/// The ROADMAP's settled "Two phase engines stay": the fault-free loop
/// and the fault engine stay two engines, so they owe being one
/// differential pair. With nothing to inject — and nothing for LATE to
/// duplicate: either speculation is off, or no attempt lives to
/// `spec_min_runtime_s` — the second engine must return the first one's
/// `PhaseRun`, every span and every counter.
#[test]
fn fault_engine_with_nothing_to_inject_is_the_fault_free_engine() {
    hhsim_testkit::check(400, |g: &mut Gen| {
        let cluster = any_cluster(g);
        let n = cluster.nodes.len();
        let tasks = g.usize(0..601);
        let mut faults = PhaseFaults::inert(n);
        faults.policy.speculation = g.bool(0.5);
        // Every duration below stays under a second per unit of `scale`.
        let scale = if faults.policy.speculation {
            faults.policy.spec_min_runtime_s / 2.0
        } else {
            40.0
        };
        let timing = |g: &mut Gen| NodeTiming {
            task_seconds: scale * (0.05 + 0.3 * g.f64()),
            overhead_seconds: scale * 0.05 * g.f64(),
        };
        let mut load = PhaseLoad::by_kind(tasks, timing(g), timing(g), &cluster);
        if g.bool(0.5) {
            load.timing = (0..n).map(|_| timing(g)).collect();
        }
        if g.bool(0.6) {
            load = load.with_locality(any_locality(g, tasks, n, scale));
        }
        if g.bool(0.5) {
            // Shorter than the task list: the tasks past its end pay none.
            let extras = (0..g.usize(0..tasks + 1)).map(|_| scale * 0.2 * g.f64());
            load = load.with_extra_seconds(extras.collect());
        }
        let placements: [fn() -> Box<dyn Placement>; 3] = [
            || Box::new(FifoAnySlot),
            || {
                Box::new(KindPreferring {
                    preferred: CoreKind::Big,
                })
            },
            || {
                Box::new(KindPreferring {
                    preferred: CoreKind::Little,
                })
            },
        ];
        for placement in placements {
            let clean = run_phase(&cluster, &load, placement().as_mut());
            let inert = run_phase_faulty(&cluster, &load, placement().as_mut(), Some(&faults))
                .expect("nothing was injected");
            assert_eq!(clean, inert, "the engines drifted apart");
            assert_eq!(clean.spans.len(), tasks);
            assert!(clean.spans.iter().enumerate().all(|(i, s)| s.task == i));
            assert!(clean.wasted.is_empty() && clean.recovered.is_empty());
        }
    });
}
