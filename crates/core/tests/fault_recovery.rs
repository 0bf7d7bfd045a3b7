//! Property tests for the fault-aware cluster engine's recovery
//! invariants, over a seeded grid of random fault plans.
//!
//! Whatever the failure rate, straggler mix, crash schedule or policy,
//! a finished phase must satisfy Hadoop's contract: every task completes
//! exactly once, every non-winning attempt is accounted as waste inside
//! the makespan, speculative races have exactly one winner, and a phase
//! that cannot finish reports a clean error instead of wedging.

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{
    run_phase_faulty, run_phase_faulty_fetch, Cluster, FetchPlan, FifoAnySlot, KindPreferring,
    NodeTiming, PhaseLoad, PhaseRun, TaskSpan,
};
use hhsim_core::faults::{
    AttemptOutcome, FaultConfig, FaultPlan, NodeFaults, PhaseDomains, PhaseError, PhaseFaults,
    RecoveryPolicy,
};
use hhsim_core::hdfs::Topology;
use hhsim_testkit::{check, Gen};

struct Scenario {
    cluster: Cluster,
    load: PhaseLoad,
    faults: PhaseFaults,
    tasks: usize,
}

/// A random small cluster, workload and fault plan. Rates go up to 50%
/// and crashes can kill all but one node, so the grid covers heavy
/// recovery pressure, not just the happy path.
fn scenario(g: &mut Gen) -> Scenario {
    let big = g.usize(0..3);
    let little = g.usize(if big == 0 { 1..3 } else { 0..3 });
    let slots = g.usize(1..3);
    let cluster = Cluster::mixed(big, slots, little, slots);
    let nodes = big + little;
    let tasks = g.usize(1..24);
    let load = PhaseLoad::by_kind(
        tasks,
        NodeTiming {
            task_seconds: 4.0 + g.f64() * 8.0,
            overhead_seconds: 0.25,
        },
        NodeTiming {
            task_seconds: 9.0 + g.f64() * 12.0,
            overhead_seconds: 0.25,
        },
        &cluster,
    );
    let mut policy = RecoveryPolicy::hadoop();
    policy.speculation = g.bool(0.5);
    policy.blacklist_after = *g.pick(&[0, 1, 3]);
    let seed = g.u64(0..u64::MAX);
    let rate = if g.bool(0.3) { 0.0 } else { g.f64() * 0.5 };
    let cfg = FaultConfig::none()
        .seed(seed)
        .failure_rates(rate, rate)
        .stragglers(if g.bool(0.5) { 0.4 } else { 0.0 }, 1.0 + g.f64() * 3.0)
        .recovery(policy);
    let mut faults = NodeFaults::sample(&cfg, nodes).phase(&cfg, 0, rate, 0.0);
    // NodeFaults::sample only crashes nodes under an MTTF; inject direct
    // mid-run crash times on a random subset instead, keeping >= 1 node.
    for n in 0..nodes.saturating_sub(1) {
        if g.bool(0.25) {
            faults.crash_at_s[n] = Some(g.f64() * 60.0);
        }
    }
    Scenario {
        cluster,
        load,
        faults,
        tasks,
    }
}

#[test]
fn recovery_invariants_hold_over_random_fault_plans() {
    check(192, |g| {
        let s = scenario(g);
        let kind_first = g.bool(0.5);
        let run = |faults: &PhaseFaults| {
            if kind_first {
                run_phase_faulty(
                    &s.cluster,
                    &s.load,
                    &mut KindPreferring {
                        preferred: CoreKind::Little,
                    },
                    Some(faults),
                )
            } else {
                run_phase_faulty(&s.cluster, &s.load, &mut FifoAnySlot, Some(faults))
            }
        };
        let result = run(&s.faults);
        // Same plan, same bytes: the engine has no hidden state.
        assert_eq!(result, run(&s.faults), "engine must be deterministic");

        match result {
            Ok(run) => {
                // Every task completes exactly once, in task order.
                assert_eq!(run.spans.len(), s.tasks, "one winner span per task");
                for (i, span) in run.spans.iter().enumerate() {
                    assert_eq!(span.task, i);
                    assert_eq!(span.outcome, AttemptOutcome::Success);
                    assert!(span.finished_s <= run.makespan_s + 1e-9);
                }
                // Losing attempts never claim success and never outlive
                // the phase (cancelled rivals die at the winner's finish;
                // failed/killed attempts re-run and finish later).
                let mut wasted_s = 0.0;
                for w in &run.wasted {
                    assert_ne!(w.outcome, AttemptOutcome::Success);
                    assert!(w.task < s.tasks);
                    assert!(w.finished_s <= run.makespan_s + 1e-9);
                    wasted_s += w.finished_s - w.launched_s;
                }
                assert!(
                    (run.faults.wasted_slot_s - wasted_s).abs() < 1e-6,
                    "wasted slot-seconds must equal the wasted spans"
                );
                // Speculative races: one winner, every loser cancelled.
                assert!(run.faults.speculative_wins <= run.faults.speculative_launched);
                let cancelled = run
                    .wasted
                    .iter()
                    .filter(|w| w.outcome == AttemptOutcome::Cancelled)
                    .count() as u64;
                assert_eq!(run.faults.cancelled_attempts, cancelled);
                // Every failed attempt was eventually re-run to success:
                // its task has a winner span (asserted above), and attempt
                // numbers never repeat per task.
                for t in 0..s.tasks {
                    let mut attempts: Vec<u32> = run
                        .wasted
                        .iter()
                        .filter(|w| w.task == t)
                        .map(|w| w.attempt)
                        .chain(std::iter::once(run.spans[t].attempt))
                        .collect();
                    attempts.sort_unstable();
                    let n = attempts.len();
                    attempts.dedup();
                    assert_eq!(attempts.len(), n, "task {t}: attempt ids unique");
                }
            }
            Err(PhaseError::AttemptsExhausted { task, attempts }) => {
                assert!(task < s.tasks);
                assert_eq!(attempts, s.faults.policy.max_attempts);
            }
            Err(PhaseError::NoUsableSlots { pending }) => {
                assert!(pending > 0 && pending <= s.tasks);
            }
            Err(PhaseError::DataLost { .. }) => {
                unreachable!("no fetch plan: data loss cannot be detected")
            }
        }
    });
}

/// With `blacklist_after = 1` and no crashes, the first node to fail an
/// attempt is blacklisted on the spot (another node is always usable),
/// so no later attempt may launch there.
#[test]
fn blacklisted_nodes_receive_no_new_attempts() {
    check(96, |g| {
        let cluster = Cluster::mixed(g.usize(1..3), 1, g.usize(1..3), 1);
        let nodes = cluster.nodes.len();
        let tasks = g.usize(4..20);
        let load = PhaseLoad::by_kind(
            tasks,
            NodeTiming {
                task_seconds: 6.0,
                overhead_seconds: 0.25,
            },
            NodeTiming {
                task_seconds: 13.0,
                overhead_seconds: 0.25,
            },
            &cluster,
        );
        let mut policy = RecoveryPolicy::hadoop();
        policy.blacklist_after = 1;
        let rate = 0.2 + g.f64() * 0.3;
        let faults = PhaseFaults {
            plan: FaultPlan::new(g.u64(0..u64::MAX), 0, rate),
            crash_at_s: vec![None; nodes],
            dead_at_start: vec![false; nodes],
            slowdown: vec![1.0; nodes],
            policy,
            domains: hhsim_faults::PhaseDomains::default(),
        };
        let Ok(run) = run_phase_faulty(&cluster, &load, &mut FifoAnySlot, Some(&faults)) else {
            // Attempts exhausted under a hot failure rate: fine, covered
            // by the invariant suite above.
            return;
        };
        let first_failure = run
            .wasted
            .iter()
            .filter(|w| w.outcome == AttemptOutcome::Failed)
            .min_by(|a, b| a.finished_s.total_cmp(&b.finished_s));
        let Some(first) = first_failure else { return };
        assert!(run.faults.blacklisted_nodes >= 1);
        for span in run.spans.iter().chain(&run.wasted) {
            assert!(
                span.node != first.node || span.launched_s <= first.finished_s + 1e-9,
                "node {} blacklisted at {:.2}s but launched task {} at {:.2}s",
                first.node,
                first.finished_s,
                span.task,
                span.launched_s
            );
        }
    });
}

/// A small cluster under everything at once, with the speculation policy
/// in its corners, for [`indexed_decisions_agree_with_the_exhaustive_searches`].
fn hostile(g: &mut Gen) -> (Cluster, PhaseLoad, PhaseFaults, Option<FetchPlan>) {
    let nodes = g.usize(2..13);
    let slots = g.usize(1..5);
    let racks = *g.pick(&[1, 1, 2, 3, 4]);
    let big = g.usize(0..nodes + 1);
    let cluster = Cluster::mixed(big, slots, nodes - big, slots);
    // Without a task time there is no jitter: every attempt on a node
    // progresses at the same rate, and only the row breaks the tie — and
    // nodes of different slowdowns tie on a backup's duration, which only
    // the lowest id breaks.
    let tied_rates = g.bool(0.4);
    let node_timing = |g: &mut Gen, base: f64| {
        if tied_rates {
            NodeTiming {
                task_seconds: 0.0,
                overhead_seconds: base * *g.pick(&[1.0, 1.0, 1.0, 4.0, 12.0]),
            }
        } else {
            NodeTiming {
                task_seconds: base * (1.0 + g.f64()),
                overhead_seconds: 0.25,
            }
        }
    };
    // Outputs kept on nodes that crash one after another, early in a
    // phase of several waves: re-executions land on nodes that die later,
    // and a crash takes outputs its node held from the start with ones
    // that landed on it since.
    let chained_losses = g.bool(0.3);
    let (tasks, crash_odds, crash_window) = if chained_losses {
        (nodes * slots..6 * nodes * slots, 0.5, 12.0)
    } else {
        (1..3 * nodes * slots + 2, 0.12, 40.0)
    };
    // Two timings dealt to nodes regardless of their kind, so that speed
    // classes cross the big/little divide.
    let timings = [node_timing(g, 3.0), node_timing(g, 3.0)];
    let load = PhaseLoad {
        tasks: g.usize(tasks),
        timing: (0..nodes).map(|_| *g.pick(&timings)).collect(),
        locality: None,
        extra_seconds: Vec::new(),
    };
    // Few speed classes with many members each — the shape of real mixes
    // — or one class per node. A slowdown that is not a number prices
    // every attempt on its node at NaN seconds, which no duration
    // compares below.
    let palette = [1.0, 1.5 + 3.0 * g.f64(), *g.pick(&[1.0, 3.0, f64::NAN])];
    let few_classes = g.bool(0.5);

    let policy = RecoveryPolicy {
        speculation: g.bool(0.9),
        // Nobody is too young, everybody is for the whole phase, and the
        // usual case in between.
        spec_min_runtime_s: *g.pick(&[0.0, -1.0, f64::NAN, 1.0e6, 2.0, 5.0]),
        // Nobody is slow enough, the mean itself, everybody (twice), and
        // the default.
        spec_rate_threshold: *g.pick(&[0.0, 1.0, f64::NAN, f64::INFINITY, 0.8, 0.8]),
        blacklist_after: *g.pick(&[1, 1, 0, 3]),
        rack_blacklist_after: *g.pick(&[0, 1, 2]),
        ..RecoveryPolicy::hadoop()
    };
    let rate = if g.bool(0.3) { 0.0 } else { g.f64() * 0.3 };
    let mut faults = PhaseFaults {
        plan: FaultPlan::new(g.u64(0..u64::MAX), 0, rate),
        crash_at_s: (0..nodes)
            .map(|_| g.bool(crash_odds).then(|| g.f64() * crash_window))
            .collect(),
        dead_at_start: (0..nodes).map(|_| g.bool(0.05)).collect(),
        slowdown: (0..nodes)
            .map(|_| {
                if few_classes {
                    *g.pick(&palette)
                } else {
                    1.0 + 3.0 * g.f64()
                }
            })
            .collect(),
        policy,
        domains: PhaseDomains::default(),
    };
    if racks > 1 {
        faults.domains = PhaseDomains {
            racks,
            rack_crash_at_s: (0..racks)
                .map(|_| g.bool(0.2).then(|| g.f64() * 40.0))
                .collect(),
            link_degraded: vec![None; racks],
        };
        for n in 0..nodes {
            if let Some(t) = faults.domains.rack_crash_at_s[n % racks] {
                faults.crash_at_s[n] = Some(t);
            }
        }
    }

    // A reduce phase: completed maps with holders and input replicas —
    // the holder first, one to three more (twice the same node included)
    // — anywhere, or mostly on the nodes that crash.
    let (doomed, spared): (Vec<usize>, Vec<usize>) =
        (0..nodes).partition(|&n| faults.crash_at_s[n].is_some());
    let on_doomed = chained_losses && !doomed.is_empty();
    let holder = |g: &mut Gen| {
        if on_doomed && g.bool(0.8) {
            *g.pick(&doomed)
        } else {
            g.usize(0..nodes)
        }
    };
    let fetch = (chained_losses || g.bool(0.6)).then(|| {
        let maps = g.usize(1..3 * nodes);
        let holders: Vec<usize> = (0..maps).map(|_| holder(g)).collect();
        FetchPlan {
            // Outputs kept on the doomed keep a replica on a node that
            // is spared, so that their loss is rarely the data's.
            map_replicas: holders
                .iter()
                .map(|&h| {
                    let mut reps: Vec<usize> =
                        std::iter::once(h).chain(g.vec(1..4, holder)).collect();
                    if on_doomed && !spared.is_empty() {
                        reps.push(*g.pick(&spared));
                    }
                    reps
                })
                .collect(),
            holders,
            topology: Topology::racked(racks, 1.0),
            read_seconds: [0.0, 1.5, 4.0],
            map_timing: (0..nodes).map(|_| node_timing(g, 2.0)).collect(),
        }
    });
    (cluster, load, faults, fetch)
}

/// Spans are on the engine's nanosecond clock, crash times are not: an
/// instant within this of a crash is taken as the crash's.
const CLOCK_S: f64 = 1e-6;

/// Whether a speculative backup of `run` went past a lower-id node with a
/// free slot — a node that was alive, not the primary's, and ran fewer
/// attempts than it has slots at the backup's launch even counting the
/// attempts that started or ended at that very instant. A backup is the
/// later-launched side of a race whose loser was cancelled. Only asked of
/// runs that blacklisted nothing.
fn a_backup_passed_a_free_node(run: &PhaseRun, cluster: &Cluster, faults: &PhaseFaults) -> bool {
    let attempts = || run.spans.iter().chain(&run.wasted).chain(&run.recovered);
    let free_at = |node: usize, t: f64| {
        let alive = !faults.dead_at_start[node]
            && faults.crash_at_s[node].map_or(true, |c| c > t + CLOCK_S);
        let busy = attempts()
            .filter(|a| a.node == node && a.launched_s <= t && t <= a.finished_s)
            .count();
        alive && busy < cluster.nodes[node].slots
    };
    run.wasted
        .iter()
        .filter(|w| w.outcome == AttemptOutcome::Cancelled)
        .any(|loser| {
            let winner = &run.spans[loser.task];
            let (primary, backup) = if winner.launched_s < loser.launched_s {
                (winner, loser)
            } else {
                (loser, winner)
            };
            primary.launched_s < backup.launched_s
                && (0..backup.node).any(|n| n != primary.node && free_at(n, backup.launched_s))
        })
}

/// Whether one crash of `run` took both an output its node held from the
/// start of the phase and one a re-execution had landed on it since:
/// maps of both kinds re-executed after it.
fn a_crash_lost_original_and_relanded(
    run: &PhaseRun,
    faults: &PhaseFaults,
    plan: &FetchPlan,
) -> bool {
    let rerun_after = |map: usize, t: f64| {
        run.recovered
            .iter()
            .any(|r| r.task == map && r.launched_s > t - CLOCK_S)
    };
    (0..faults.crash_at_s.len()).any(|node| {
        let Some(t) = faults.crash_at_s[node].filter(|_| !faults.dead_at_start[node]) else {
            return false;
        };
        let original =
            (plan.holders.iter().enumerate()).any(|(m, &h)| h == node && rerun_after(m, t));
        let relanded = (run.recovered.iter())
            .any(|r| r.node == node && r.finished_s < t - CLOCK_S && rerun_after(r.task, t));
        original && relanded
    })
}

/// The LATE index, the speed-class index of backup nodes, the
/// replica-driven re-execution choice and the holder index of lost
/// outputs against exhaustive search. In a debug build the engine also
/// makes every decision the slow way — every slot, every free node, every
/// map output — each time and asserts the same pick, so a run that
/// returns at all has passed; this sweep aims that oracle at what the
/// rest of the suite does not reach — 2–12 nodes of 1–4 slots, big and
/// little, flat and racked, a few speed classes or one per node,
/// failures, stragglers, node and rack crashes before and during a phase
/// with lost map outputs (outputs re-landed on nodes that crash later
/// included), blacklisting at the first failure, and a speculation policy
/// that is zero, negative, NaN, infinite or longer than the phase — and
/// checks that the same run twice is the same run, and that the sweep
/// does reach the events it is for.
#[test]
fn indexed_decisions_agree_with_the_exhaustive_searches() {
    const CASES: u64 = 320;
    // Cases with: a backup launched; one launched in a run that also lost
    // attempts to failures or crashes; a lost map re-executed; a lost map
    // on its third attempt (the re-run died, or landed and was lost
    // again); every replica of a lost map gone; a backup that went past a
    // lower free node; a crash that lost an original and a re-landed
    // output. 81 / 49 / 95 / 56 / 44 / 17 / 21 when written.
    let mut reached = [0u32; 7];
    check(CASES, |g| {
        let (cluster, load, faults, fetch) = hostile(g);
        let run = || {
            run_phase_faulty_fetch(
                &cluster,
                &load,
                &mut FifoAnySlot,
                Some(&faults),
                fetch.as_ref(),
            )
        };
        let result = run();
        assert_eq!(result, run(), "same plan, same run, bit for bit");
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                reached[4] += u32::from(matches!(e, PhaseError::DataLost { .. }));
                return;
            }
        };
        assert_eq!(run.spans.len(), load.tasks, "one winner per task");
        let died =
            |w: &TaskSpan| matches!(w.outcome, AttemptOutcome::Failed | AttemptOutcome::Killed);
        let backed_up = run.faults.speculative_launched > 0;
        reached[0] += u32::from(backed_up);
        reached[1] += u32::from(backed_up && run.wasted.iter().any(died));
        reached[2] += u32::from(run.faults.reexecuted_maps > 0);
        reached[3] += u32::from(run.recovered.iter().any(|r| r.attempt >= 3));
        let blacklisted = run.faults.blacklisted_nodes + run.faults.racks_blacklisted > 0;
        reached[5] +=
            u32::from(!blacklisted && a_backup_passed_a_free_node(&run, &cluster, &faults));
        reached[6] += u32::from(
            fetch
                .as_ref()
                .is_some_and(|plan| a_crash_lost_original_and_relanded(&run, &faults, plan)),
        );
    });
    let [backups, backups_with_losses, reexecutions, third_attempts, data_lost, passed_free, lost_both] =
        reached;
    assert!(
        backups >= 40
            && backups_with_losses >= 25
            && reexecutions >= 25
            && third_attempts >= 5
            && data_lost >= 20
            && passed_free >= 8
            && lost_both >= 10,
        "the sweep no longer reaches what it is for: {reached:?} of {CASES} cases"
    );
}
