use hhsim_des::Simulation;
use hhsim_energy::MetricKind;
use hhsim_faults::{AttemptOutcome, PhaseError, PhaseFaults, RecoveryPolicy};
use hhsim_hdfs::Topology;
use hhsim_sched::JobClass;
use hhsim_testkit::streamed;

use super::engine::{run_phase_in, Done};
use super::recovery::{oracle, run_phase_fetching, EngineScratch, FaultEvent, FaultState};
use super::slots::SlotBook;
use super::*;

/// Fails to compile if shared ownership (`Rc`, boxed event closures)
/// ever comes back into the engines' state.
#[test]
fn engine_state_is_send() {
    fn is_send<T: Send>() {}
    is_send::<(FaultState, Simulation<FaultEvent>, EngineScratch)>();
    is_send::<(SlotBook<usize>, Simulation<Done>)>();
}

/// A span is what both engines keep per task (the fault engine a 24-byte
/// row more): 64 bytes, with or without an `Option` around it.
#[test]
fn a_task_span_is_64_bytes() {
    assert_eq!(size_of::<TaskSpan>(), 64);
    assert_eq!(size_of::<Option<TaskSpan>>(), 64);
}

fn set(tasks: usize, secs: f64) -> TaskSet {
    TaskSet {
        tasks,
        task_seconds: secs,
        overhead_seconds: 0.0,
    }
}

fn split_makespan(set: &TaskSet, nodes: usize, slots: usize) -> f64 {
    let cluster = Cluster::homogeneous(CoreKind::Big, nodes, slots);
    run_phase(
        &cluster,
        &PhaseLoad::uniform(set, &cluster),
        &mut FifoAnySlot,
    )
    .makespan_s
}

fn makespan(set: &TaskSet, slots: usize) -> f64 {
    split_makespan(set, 1, slots)
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
    assert_eq!(split_makespan(&s, 1, 8), split_makespan(&s, 4, 2));
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
    for steps in tl.active_steps_all() {
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
    let a =
        run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults)).expect("recovery completes");
    let b =
        run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults)).expect("recovery completes");
    assert_eq!(a, b, "same plan, same run, bit for bit");
}

#[test]
fn faulty_trace_labels_attempts_and_outcomes() {
    let c = Cluster::homogeneous(CoreKind::Big, 2, 2);
    let load = PhaseLoad::uniform(&set(8, 10.0), &c);
    let mut faults = failure_faults(2, 0.4, 7);
    faults.crash_at_s[1] = Some(12.0);
    let run = run_phase_faulty(&c, &load, &mut FifoAnySlot, Some(&faults)).expect("node0 survives");
    let mut tl = ClusterTimeline::new(&c);
    tl.extend("map", 0.0, &run);
    let json = streamed(|w| tl.write_chrome_trace(w));
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
    let json = streamed(|w| tl.write_chrome_trace(w));
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
        vec![(6.0, DomainEvent::RackCrash(1))],
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
    let json = streamed(|w| tl.write_chrome_trace(w));
    assert!(json.contains("\"name\":\"rack-crash:1\""));
    assert!(json.contains("\"ph\":\"i\""));
    let clean = run_phase(&c, &load, &mut FifoAnySlot);
    let mut tl = ClusterTimeline::new(&c);
    tl.extend("map", 0.0, &clean);
    assert!(!streamed(|w| tl.write_chrome_trace(w)).contains("\"ph\":\"i\""));
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
        .find_map(|&(_, event)| match event {
            DomainEvent::RackBlacklisted(r) => Some(r),
            DomainEvent::RackCrash(_) => None,
        })
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
    let json = streamed(|w| tl.write_chrome_trace(w));
    assert!(json.contains("\"outcome\":\"fetch-failed\""));
    assert!(json.contains("\"outcome\":\"recovered\""));
    // Determinism: same plan, same bytes.
    let again = run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
        .expect("deterministic");
    assert_eq!(run, again);

    // A re-execution killed by a second crash is still an attempt of the
    // *map*: with a third replica of map 0's block on node 3, node 2
    // dying under the re-run sends it there, and the killed attempt is
    // reported as map 0's attempt 2 — not under an engine-internal id.
    let mut plan = plan;
    plan.map_replicas[0] = vec![0, 2, 3];
    faults.crash_at_s[2] = Some(6.0);
    let run = run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
        .expect("node 3 still holds a replica of every lost block");
    let killed: Vec<(usize, usize, u32)> = run
        .wasted
        .iter()
        .filter(|w| w.outcome == AttemptOutcome::Killed && w.node == 2)
        .map(|w| (w.task, w.node, w.attempt))
        .collect();
    assert_eq!(killed, vec![(0, 2, 2)]);
    let rerun = run.recovered.iter().find(|r| r.task == 0).expect("map 0");
    assert_eq!((rerun.node, rerun.attempt), (3, 3));
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

/// Runs the fetch scenario, node 0 dying mid-shuffle, with its plan
/// reshaped by `reshape`.
fn run_fetch_scenario_with(reshape: impl FnOnce(&mut FetchPlan)) {
    let (c, load, mut plan) = fetch_scenario();
    reshape(&mut plan);
    let mut faults = PhaseFaults::inert(4);
    faults.crash_at_s[0] = Some(5.0);
    let _ = run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan));
}

/// A node past the plan's map timing would price a re-execution there at
/// zero seconds.
#[test]
#[should_panic(expected = "one map timing entry per node")]
fn fetch_plan_without_map_timing_for_every_node_is_refused() {
    run_fetch_scenario_with(|plan| plan.map_timing.truncate(2));
}

/// A map past the replica lists would report its data lost at the first
/// loss of its output.
#[test]
#[should_panic(expected = "one replica list per map output")]
fn fetch_plan_without_replicas_for_every_map_is_refused() {
    run_fetch_scenario_with(|plan| plan.map_replicas.truncate(3));
}

/// A holder that is no node of the cluster would never lose its output.
#[test]
#[should_panic(expected = "every map output held by a node of the cluster")]
fn fetch_plan_holder_outside_the_cluster_is_refused() {
    run_fetch_scenario_with(|plan| plan.holders[3] = 4);
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

/// One `EngineScratch` through runs of different shapes — a recovery
/// that appends re-execution rows, a run that dies with its tables
/// dirty, a failure-ridden mixed one with ten times the tasks, the same
/// one exhausting its attempts, a smaller cluster with a speculative
/// backup — twice around: every run equals the run on fresh tables, and
/// one error is followed by a run with more tasks, the other by fewer.
#[test]
fn engine_scratch_carries_nothing_between_runs() {
    let (c4, reduce, plan) = fetch_scenario();
    let mut holder_dies = PhaseFaults::inert(4);
    holder_dies.crash_at_s[0] = Some(5.0);
    let mut rack_dies = holder_dies.clone();
    rack_dies.crash_at_s[2] = Some(5.0);
    let c2 = Cluster::homogeneous(CoreKind::Big, 2, 2);
    let mut straggler = PhaseFaults::inert(2);
    straggler.slowdown[1] = 4.0;
    let mixed = mixed_cluster();
    type Scenario<'a> = (&'a Cluster, PhaseLoad, PhaseFaults, Option<&'a FetchPlan>);
    let scenarios: [Scenario; 5] = [
        (&c4, reduce.clone(), holder_dies, Some(&plan)),
        (&c4, reduce, rack_dies, Some(&plan)),
        (
            &mixed,
            hetero_load(40, &mixed),
            failure_faults(3, 0.3, 7),
            None,
        ),
        (
            &mixed,
            hetero_load(40, &mixed),
            failure_faults(3, 1.0, 7),
            None,
        ),
        (&c2, PhaseLoad::uniform(&set(4, 10.0), &c2), straggler, None),
    ];
    let scratch = &mut EngineScratch::default();
    let mut errors = 0;
    for _ in 0..2 {
        for (cluster, load, faults, plan) in &scenarios {
            let fresh =
                run_phase_faulty_fetch(cluster, load, &mut FifoAnySlot, Some(faults), *plan);
            let reused = run_phase_fetching(
                cluster,
                load,
                &mut FifoAnySlot,
                Some(faults),
                plan.map(FetchPlan::view),
                scratch,
            );
            assert_eq!(reused, fresh);
            errors += usize::from(fresh.is_err());
        }
    }
    assert_eq!(
        errors, 4,
        "the rack crash loses map 0's every replica; every attempt fails"
    );
}

/// An engine scratch as a fault-free phase of a pricing run finds it:
/// its clean calendar and slot book left by a longer run on a larger
/// cluster (8 nodes x 3 slots, 300 tasks), then a fault-engine reduce
/// phase on 8 nodes whose rack 1 dies mid-shuffle, recycled with its
/// wasted and recovered spans and its rack-crash annotation in `done`.
fn dirty_engine_scratch() -> EngineScratch {
    let mut scratch = EngineScratch::default();
    let big = Cluster::homogeneous(CoreKind::Big, 8, 3);
    let long = PhaseLoad::uniform(&set(300, 4.0), &big);
    let clean = run_phase_fetching(&big, &long, &mut FifoAnySlot, None, None, &mut scratch)
        .expect("a fault-free phase completes");
    scratch.recycle(clean);

    let c = Cluster::homogeneous(CoreKind::Big, 8, 1);
    let load = PhaseLoad::uniform(&set(8, 10.0), &c);
    // Rack r = nodes n with n % 2 == r. Every output on rack 1 has its
    // input's second replica on rack 0.
    let holders = vec![1, 3, 5, 7, 0, 2, 4, 6];
    let plan = FetchPlan {
        map_replicas: holders.iter().map(|&h| vec![h, h ^ 1]).collect(),
        holders,
        topology: Topology::racked(2, 1.0),
        read_seconds: [0.0, 2.0, 6.0],
        map_timing: vec![
            NodeTiming {
                task_seconds: 3.0,
                overhead_seconds: 0.1,
            };
            8
        ],
    };
    let mut faults = PhaseFaults::inert(8);
    faults.domains = PhaseDomains {
        racks: 2,
        rack_crash_at_s: vec![None, Some(5.0)],
        link_degraded: vec![None, None],
    };
    for node in [1, 3, 5, 7] {
        faults.crash_at_s[node] = Some(5.0);
    }
    let run = run_phase_fetching(
        &c,
        &load,
        &mut FifoAnySlot,
        Some(&faults),
        Some(plan.view()),
        &mut scratch,
    )
    .expect("rack 0 holds a replica of every lost output");
    assert!(!run.wasted.is_empty(), "the crash kills running reduces");
    assert!(!run.recovered.is_empty(), "the lost outputs are re-run");
    assert!(!run.annotations.is_empty(), "the rack crash is annotated");
    scratch.recycle(run);
    scratch
}

/// The clean loop in an engine scratch another run left dirty — a
/// calendar and slot book sized by a larger cluster, a recycled fault run
/// with wasted, recovered and annotated entries — returns, field for
/// field, what `run_phase` returns on fresh tables: FIFO on a
/// homogeneous cluster, kind preference on a mixed one, a locality load
/// with extra seconds per task, and a phase without tasks, which hands
/// the recycled vectors back cleared.
#[test]
fn clean_loop_on_a_dirty_engine_scratch_equals_run_phase() {
    let c3 = Cluster::homogeneous(CoreKind::Big, 3, 2);
    let mixed = mixed_cluster();
    let locality = PhaseLoad::uniform(&set(20, 5.0), &c3)
        .with_locality(PhaseLocality {
            replicas: (0..20).map(|t| vec![t % 3, (t + 1) % 3]).collect(),
            racks: 2,
            read_seconds: [0.0, 0.8, 2.4],
        })
        .with_extra_seconds((0..20).map(|t| 0.1 * t as f64).collect());
    let little = || KindPreferring {
        preferred: CoreKind::Little,
    };
    let cases: [(&Cluster, PhaseLoad, bool); 4] = [
        (&c3, PhaseLoad::uniform(&set(17, 3.3), &c3), false),
        (&mixed, hetero_load(9, &mixed), true),
        (&c3, locality, false),
        (&mixed, hetero_load(0, &mixed), true),
    ];
    for (cluster, load, by_kind) in &cases {
        let (mut fifo, mut kind) = (FifoAnySlot, little());
        let placement: &mut dyn Placement = if *by_kind { &mut kind } else { &mut fifo };
        let mut scratch = dirty_engine_scratch();
        let recycled = scratch.done.take();
        let reused = run_phase_in(cluster, load, placement, &mut scratch.clean, recycled);
        let (mut fifo, mut kind) = (FifoAnySlot, little());
        let placement: &mut dyn Placement = if *by_kind { &mut kind } else { &mut fifo };
        let fresh = run_phase(cluster, load, placement);
        assert_eq!(reused, fresh, "{} tasks", load.tasks);
        if load.tasks == 0 {
            assert!(reused.spans.capacity() > 0, "the recycled spans came back");
        }
    }
}

/// What the per-decision oracle is for, in numbers: on a 200 × 4 cluster
/// with stragglers and a holder crash it examines — as the searches it
/// preserves did at every decision — over ten times the entries the LATE
/// index and the replica walk look at, placement queries included.
#[test]
fn indexed_decisions_examine_a_fraction_of_the_searches() {
    const NODES: usize = 200;
    let c = Cluster::homogeneous(CoreKind::Big, NODES, 4);
    let load = PhaseLoad::uniform(&set(4_000, 5.0), &c);
    let mut faults = failure_faults(NODES, 0.02, 5);
    for n in (3..NODES).step_by(10) {
        faults.slowdown[n] = 3.0;
    }
    faults.crash_at_s[0] = Some(12.0);
    let plan = FetchPlan {
        holders: (0..4_000).map(|m| m % NODES).collect(),
        map_replicas: (0..4_000)
            .map(|m| vec![m % NODES, (m + 1) % NODES, (m + 11) % NODES])
            .collect(),
        topology: Topology::racked(10, 1.0),
        read_seconds: [0.0, 0.5, 2.0],
        map_timing: load.timing.clone(),
    };
    reset_placement_probes();
    oracle::take_probes();
    let run = run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
        .expect("two replicas of every lost map survive");
    let (probes, searched) = (placement_probes(), oracle::take_probes());
    assert!(run.faults.speculative_launched > 0 && run.faults.reexecuted_maps > 0);
    assert!(
        10 * probes < searched,
        "{probes} entries examined against the searches' {searched}"
    );
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
fn a_window_in_the_unread_link_column_changes_no_run() {
    let (c, load, plan) = fetch_scenario();
    let mut faults = PhaseFaults::inert(4);
    faults.crash_at_s[0] = Some(5.0);
    let run = |column: Vec<Option<LinkWindow>>| {
        let mut faults = faults.clone();
        faults.domains = PhaseDomains {
            racks: 2,
            rack_crash_at_s: vec![None, None],
            link_degraded: column,
        };
        run_phase_faulty_fetch(&c, &load, &mut FifoAnySlot, Some(&faults), Some(&plan))
            .expect("the surviving replicas recover every lost map")
    };
    let healthy = run(vec![None, None]);
    // Map 1's off-rack recovery read lands on node 1 (rack 1). A window
    // over rack 1 in the column must not price that read: nothing reads
    // the column.
    let windowed = run(vec![
        None,
        Some(LinkWindow {
            start_s: 0.0,
            end_s: 100.0,
            factor: 4.0,
        }),
    ]);
    assert!(
        healthy.faults.reexecuted_maps > 0,
        "node 0's crash loses maps"
    );
    assert_eq!(windowed, healthy);
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

    let json = streamed(|w| tl.write_chrome_trace(w));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"cat\":\"map\""));
    assert!(json.contains("\"cat\":\"reduce\""));
    assert!(json.contains("process_name"));
    assert!(!json.contains(",\n]"), "no trailing comma before array end");

    let csv = streamed(|w| tl.write_utilization_csv(w));
    assert!(csv.starts_with("node,name,time_s,active_slots"));
    let all_steps = tl.active_steps_all();
    assert_eq!(all_steps.len(), c.nodes.len());
    for steps in all_steps {
        assert_eq!(steps.last().expect("steps end").1, 0, "all slots drain");
        for w in steps.windows(2) {
            assert!(w[1].0 > w[0].0, "strictly increasing change points");
        }
    }
}
