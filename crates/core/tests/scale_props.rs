//! Scale property suite: invariants of the cluster engine on
//! 1k-node / 100k-task configurations, the 10k-node regression pinning
//! the amortized-O(1) placement path, and the shuffle flow solver on a
//! 300-node fabric.
//!
//! These are the lock on the engine's hot-path rewrite: whatever the
//! free-slot index does internally, a big run must still produce exactly
//! one winner per task, conserve slot-seconds, keep time monotone — and
//! must not fall back to per-event linear node scans when nodes die or
//! get blacklisted.

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{
    jitter, placement_probes, reset_placement_probes, run_phase, run_phase_faulty,
    run_phase_faulty_fetch, Cluster, FetchPlan, FifoAnySlot, PhaseLoad, PhaseRun, TaskSet,
};
use hhsim_core::faults::{AttemptOutcome, FaultPlan, PhaseDomains, PhaseFaults, RecoveryPolicy};
use hhsim_core::hdfs::{NodeId, Topology};
use hhsim_core::shuffle::{flow_finish_times, flow_finish_times_with_crashes, Flow};

const NODES: usize = 1_000;
const SLOTS: usize = 4;
const TASKS: usize = 100_000;

fn big_cluster(nodes: usize, slots: usize) -> Cluster {
    Cluster::homogeneous(CoreKind::Big, nodes, slots)
}

fn load(tasks: usize, cluster: &Cluster) -> PhaseLoad {
    PhaseLoad::uniform(
        &TaskSet {
            tasks,
            task_seconds: 5.0,
            overhead_seconds: 0.1,
        },
        cluster,
    )
}

/// Seeded failure-injecting fault layer over `nodes` nodes.
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

/// Shared invariant pack for any completed run.
fn assert_run_invariants(run: &PhaseRun, tasks: usize) {
    // Exactly one winner per task, in task order.
    assert_eq!(run.spans.len(), tasks, "one winning span per task");
    for (i, s) in run.spans.iter().enumerate() {
        assert_eq!(s.task, i);
        assert_eq!(s.outcome, AttemptOutcome::Success);
        // Monotone per-span clock.
        assert!(s.queued_s <= s.launched_s, "launch before queue");
        assert!(s.launched_s < s.finished_s, "zero-length span");
        assert!(s.finished_s <= run.makespan_s + 1e-9);
    }
    // Wasted attempts are exactly the failed + killed + cancelled ones.
    assert_eq!(
        run.wasted.len() as u64,
        run.faults.failed_attempts + run.faults.killed_attempts + run.faults.cancelled_attempts,
        "every losing attempt leaves exactly one wasted span"
    );
    for w in &run.wasted {
        assert_ne!(w.outcome, AttemptOutcome::Success);
        assert!(w.task < tasks);
        assert!(w.launched_s <= w.finished_s);
    }
    // Slot-seconds conservation: the fault counters' wasted time equals
    // the wasted spans' slot time.
    let wasted_s: f64 = run.wasted.iter().map(|w| w.finished_s - w.launched_s).sum();
    assert!(
        (run.faults.wasted_slot_s - wasted_s).abs() < 1e-6 * wasted_s.max(1.0),
        "wasted_slot_s diverged from the wasted spans: {} vs {wasted_s}",
        run.faults.wasted_slot_s
    );
    assert!(run.slots.peak_in_use <= run.slots.capacity);
}

#[test]
fn fault_free_run_at_scale_holds_invariants() {
    let c = big_cluster(NODES, SLOTS);
    let run = run_phase(&c, &load(TASKS, &c), &mut FifoAnySlot);
    assert_run_invariants(&run, TASKS);

    // Slot-seconds conservation against the analytic total: every task
    // runs for exactly jitter(task) * 5.0 + 0.1 seconds on some slot.
    let expected: f64 = (0..TASKS).map(|t| 5.0 * jitter(t) + 0.1).sum();
    let actual: f64 = run.spans.iter().map(|s| s.finished_s - s.launched_s).sum();
    assert!(
        (expected - actual).abs() < 1e-6 * expected,
        "slot-seconds not conserved: {actual} vs {expected}"
    );

    // FIFO waves: with 4000 slots and 100k tasks the queue drains in
    // ~25 waves; makespan must be far beyond one wave but bounded.
    assert!(run.makespan_s > 5.0 * 20.0);
    assert!(run.makespan_s < 5.5 * 30.0);
}

#[test]
fn faulty_run_at_scale_holds_invariants() {
    let c = big_cluster(NODES, SLOTS);
    let mut faults = failure_faults(NODES, 0.02, 42);
    // Two mid-run crashes and a straggler to exercise every recovery
    // path at scale.
    faults.crash_at_s[17] = Some(12.0);
    faults.crash_at_s[800] = Some(30.0);
    faults.slowdown[3] = 3.0;
    let run = run_phase_faulty(&c, &load(TASKS, &c), &mut FifoAnySlot, Some(&faults))
        .expect("2% failures over 1k nodes must recover");
    assert_run_invariants(&run, TASKS);
    assert!(
        run.faults.failed_attempts > 0,
        "seed 42 must inject failures"
    );
    assert_eq!(run.faults.node_crashes, 2);
    assert!(
        run.faults.killed_attempts > 0,
        "crashes caught work in flight"
    );
    // Nothing launches on a crashed node after its crash time.
    for s in run.spans.iter().chain(&run.wasted) {
        if s.node == 17 {
            assert!(s.launched_s < 12.0 + 1e-9);
        }
        if s.node == 800 {
            assert!(s.launched_s < 30.0 + 1e-9);
        }
    }
}

#[test]
fn scale_runs_are_deterministic() {
    let c = big_cluster(NODES, SLOTS);
    let mut faults = failure_faults(NODES, 0.01, 7);
    faults.crash_at_s[100] = Some(20.0);
    let l = load(TASKS, &c);
    let a = run_phase_faulty(&c, &l, &mut FifoAnySlot, Some(&faults)).expect("recovers");
    let b = run_phase_faulty(&c, &l, &mut FifoAnySlot, Some(&faults)).expect("recovers");
    assert_eq!(a, b, "same seed, same run, bit for bit");
}

/// The satellite regression for the O(nodes) blacklist/usable-node scan:
/// a 10k-node run that blacklists a node must not rescan the node table
/// per event. The engine counts bitmap words examined by placement
/// queries; the old linear scan examined ~nodes entries per launch
/// (~10^4 × launches ≈ 10^8 here), the two-level bitmap a handful.
#[test]
fn blacklisting_at_10k_nodes_stays_sublinear() {
    const BIG_NODES: usize = 10_000;
    const BIG_TASKS: usize = 30_000;
    let c = big_cluster(BIG_NODES, 1);
    let mut faults = failure_faults(BIG_NODES, 0.001, 9);
    faults.policy.blacklist_after = 1;
    faults.policy.speculation = false; // isolate the placement path
    reset_placement_probes();
    let run = run_phase_faulty(&c, &load(BIG_TASKS, &c), &mut FifoAnySlot, Some(&faults))
        .expect("0.1% failures recover");
    let probes = placement_probes();
    assert_run_invariants(&run, BIG_TASKS);
    assert!(
        run.faults.blacklisted_nodes >= 1,
        "seed 9 must blacklist at least one node"
    );
    let launches = BIG_TASKS as u64 + run.faults.failed_attempts;
    // Generous bound: a few words per placement query. The pre-rewrite
    // engine cost ~BIG_NODES (10^4) per launch; a quadratic rescan would
    // blow this bound by three orders of magnitude.
    assert!(
        probes < launches * 16,
        "placement degraded to linear scans: {probes} probes for {launches} launches"
    );
}

/// The same regression for the decisions of the fault engine that used
/// to search the cluster, with speculation **on**: LATE's choice of a
/// laggard (made after every event once the queue is empty) and of the
/// node its backup runs on, the choice of a node for a lost map's
/// re-execution, and which map outputs a crash takes. 2 000 nodes of 4
/// slots, 40 k tasks, one node in twenty a 3× straggler, 2 % failures;
/// then a reduce twin over the map phase's outputs that loses a rack, and
/// a crash-heavy one that loses 200 nodes one by one. Entries the
/// decisions examine — attempts, heap and list entries, speed-class range
/// queries, replicas, nodes, map outputs — go through the placement-probe
/// counter, next to the placement queries'.
///
/// The exhaustive searches (all 8 000 slots and every free node per
/// decision; every free node × every replica per lost map; all 40 k
/// outputs per crash) are the debug build's per-decision oracle, which
/// counted what it examined on these very runs: 80 748 000 entries in the
/// map phase against 154 997 probes here (40 804 launches, 41 596
/// events), 81 627 986 in the rack twin against 273 917 (50 127
/// launches, 51 003 events, 1 039 maps re-executed) and 103 105 066 in
/// the crash-heavy twin against 431 008 (53 028 launches, 53 929 events,
/// 4 126 maps re-executed) — of those, 8 M output visits where the
/// holder index looked at about 4 k. That is 1.9, 2.7 and 4.0 probes per
/// launch and event; the bound below is 5.
#[test]
fn speculation_and_recovery_at_scale_examine_what_they_decide() {
    const WIDE: usize = 2_000;
    const RACKS: usize = 40;
    const WORK: usize = 40_000;
    let c = big_cluster(WIDE, SLOTS);
    let l = load(WORK, &c);
    let mut faults = failure_faults(WIDE, 0.02, 11);
    for n in (7..WIDE).step_by(20) {
        faults.slowdown[n] = 3.0;
    }

    reset_placement_probes();
    let map = run_phase_faulty(&c, &l, &mut FifoAnySlot, Some(&faults))
        .expect("2% failures over 2k nodes must recover");
    let probes = placement_probes();
    assert_run_invariants(&map, WORK);
    assert!(
        map.faults.speculative_launched >= 10 && map.faults.speculative_wins >= 10,
        "the stragglers' tasks get backups: {:?}",
        map.faults
    );
    assert_decisions_stay_local(probes, &map);

    // HDFS's default layout: a replica where the map ran, one in the
    // next rack, one more in that rack.
    let plan = FetchPlan {
        holders: map.spans.iter().map(|s| s.node).collect(),
        map_replicas: map
            .spans
            .iter()
            .map(|s| vec![s.node, (s.node + 1) % WIDE, (s.node + 1 + RACKS) % WIDE])
            .collect(),
        topology: Topology::racked(RACKS, 4.0),
        read_seconds: [0.0, 0.5, 2.0],
        map_timing: l.timing.clone(),
    };
    const DOOMED: usize = 13;
    faults.domains = PhaseDomains {
        racks: RACKS,
        rack_crash_at_s: (0..RACKS).map(|r| (r == DOOMED).then_some(12.0)).collect(),
        link_degraded: vec![None; RACKS],
    };
    for n in (DOOMED..WIDE).step_by(RACKS) {
        faults.crash_at_s[n] = Some(12.0);
    }
    reset_placement_probes();
    let reduce = run_phase_faulty_fetch(&c, &l, &mut FifoAnySlot, Some(&faults), Some(&plan))
        .expect("every lost map has two replicas in the next rack");
    let probes = placement_probes();
    assert_eq!(reduce.spans.len(), WORK, "one winning span per reduce");
    assert_eq!(reduce.faults.rack_crashes, 1);
    assert!(
        reduce.faults.fetch_failures >= 1_000 && reduce.faults.reexecuted_maps >= 500,
        "the rack takes map outputs with it mid-shuffle: {:?}",
        reduce.faults
    );
    assert!(reduce.faults.speculative_launched >= 10);
    assert_decisions_stay_local(probes, &reduce);

    // The crash-heavy twin: no rack goes, but 200 nodes one by one over
    // the phase, each taking about 20 of the 40 k outputs with it.
    faults.domains = PhaseDomains::default();
    faults.crash_at_s = vec![None; WIDE];
    for (i, n) in (5..WIDE).step_by(10).enumerate() {
        faults.crash_at_s[n] = Some(1.0 + 0.12 * i as f64);
    }
    reset_placement_probes();
    let crashes = run_phase_faulty_fetch(&c, &l, &mut FifoAnySlot, Some(&faults), Some(&plan))
        .expect("no crashed node holds a replica of another's outputs");
    let probes = placement_probes();
    assert_eq!(crashes.spans.len(), WORK, "one winning span per reduce");
    assert_eq!(crashes.faults.node_crashes, 200);
    assert!(
        crashes.faults.reexecuted_maps >= 3_000,
        "every crash takes map outputs with it: {:?}",
        crashes.faults
    );
    assert_decisions_stay_local(probes, &crashes);
}

/// At most 5 probes per launch and event of `run` — a quarter above the
/// 4.0 the crash-heavy run above measures, and over 150 times under what
/// the searches examine. Every attempt leaves one span; it ends in one event
/// unless it was cancelled, and a failure schedules a requeue.
fn assert_decisions_stay_local(probes: u64, run: &PhaseRun) {
    let launches = (run.spans.len() + run.wasted.len() + run.recovered.len()) as u64;
    let events = launches + run.faults.failed_attempts;
    assert!(
        probes < (launches + events) * 5,
        "decisions degraded to cluster scans: {probes} probes for {launches} launches and {events} events"
    );
}

/// The flow solver at a size its predecessor could not reach (its cost
/// grew with the fourth power of the node count): a 300-node all-to-all
/// over 30 racks at 8× oversubscription, two sources dying mid-transfer.
#[test]
fn shuffle_at_300_nodes_respects_every_link() {
    const FABRIC_NODES: usize = 300;
    const RACKS: usize = 30;
    const LEVELS: usize = 8;
    let t = Topology::racked(RACKS, 8.0);
    let mut flows = Vec::with_capacity(FABRIC_NODES * (FABRIC_NODES - 1));
    for dst in 0..FABRIC_NODES {
        let bytes = 4.0e6 * (1 + dst * 7 % LEVELS) as f64;
        for src in (0..FABRIC_NODES).filter(|&src| src != dst) {
            flows.push(Flow { src, dst, bytes });
        }
    }
    assert_eq!(flows.len(), 89_700);
    let lasts_s = flow_finish_times(&t, FABRIC_NODES, &flows)
        .into_iter()
        .fold(0.0, f64::max);
    let crashes = [(17, 0.3 * lasts_s), (204, 0.55 * lasts_s)];
    let out = flow_finish_times_with_crashes(&t, FABRIC_NODES, &flows, &crashes);
    let again = flow_finish_times_with_crashes(&t, FABRIC_NODES, &flows, &crashes);
    assert_eq!(out, again, "same input, same outcome, bit for bit");

    // Bytes each link has delivered for completed flows, and when the
    // last of them finished: node up, node down, rack up, rack down.
    let uplink = t.uplink_bytes_per_s();
    let mut links = vec![(0.0f64, 0.0f64); 2 * FABRIC_NODES + 2 * RACKS];
    let mut cancelled = 0;
    for (i, f) in flows.iter().enumerate() {
        let cross = !t.same_rack(NodeId(f.src), NodeId(f.dst));
        let died = crashes.iter().find(|c| c.0 == f.src).map(|c| c.1);
        if out.cancelled[i] {
            cancelled += 1;
            let at = died.expect("only a crashed source's flows are cancelled");
            assert!(
                (out.finish_s[i] - at).abs() < 1e-6,
                "flow {i} left at the crash"
            );
            continue;
        }
        let narrowest = if cross {
            uplink.min(t.node_bytes_per_s)
        } else {
            t.node_bytes_per_s
        };
        assert!(
            out.finish_s[i] >= f.bytes / narrowest * (1.0 - 1e-9),
            "flow {i} beat its uncontended time"
        );
        assert!(died.map_or(true, |at| out.finish_s[i] <= at + 1e-6));
        let mut path = vec![f.src, FABRIC_NODES + f.dst];
        if cross {
            path.push(2 * FABRIC_NODES + t.rack_of(NodeId(f.src)));
            path.push(2 * FABRIC_NODES + RACKS + t.rack_of(NodeId(f.dst)));
        }
        for l in path {
            links[l].0 += f.bytes;
            links[l].1 = links[l].1.max(out.finish_s[i]);
        }
    }
    assert!(cancelled > 0, "both crashes land mid-transfer");
    for (l, &(bytes, by_s)) in links.iter().enumerate() {
        let cap = if l < 2 * FABRIC_NODES {
            t.node_bytes_per_s
        } else {
            uplink
        };
        assert!(
            bytes <= cap * by_s * (1.0 + 1e-6),
            "link {l} carried {bytes} bytes in {by_s} s at {cap} bytes/s"
        );
    }
}
