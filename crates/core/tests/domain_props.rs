//! Property tests for correlated failure domains: rack-granularity
//! crashes, fetch-failure recovery and replica-aware re-execution must
//! preserve the engine's scheduling contract, and an inactive domain
//! configuration must be bitwise invisible end to end.

use hhsim_core::arch::{presets, CoreKind};
use hhsim_core::cluster::{
    run_phase_faulty_fetch, Cluster, FetchPlan, FifoAnySlot, NodeTiming, PhaseLoad,
};
use hhsim_core::faults::{
    AttemptOutcome, DomainConfig, FaultConfig, NodeFaults, PhaseError, RecoveryPolicy,
};
use hhsim_core::figures::{fig22_faults, FIG22_OVERSUB, MICRO_DATA, TOPO_NODES, TOPO_RACKS};
use hhsim_core::hdfs::{BlockSize, Topology};
use hhsim_core::workloads::AppId;
use hhsim_core::{ClusterTimeline, Measurement, Reading, SimCache, SimConfig, SimError};
use hhsim_testkit::{check, streamed, Gen};

/// `cfg` read per node with its timeline, on the process-wide memo.
fn traced(cfg: &SimConfig) -> Result<(Measurement, ClusterTimeline), SimError> {
    let (m, timeline) = cfg.run(SimCache::global(), Reading::Traced)?;
    Ok((m, timeline.expect("a traced run fills a timeline")))
}

struct Scenario {
    cluster: Cluster,
    load: PhaseLoad,
    cfg: FaultConfig,
    nodes: usize,
    racks: usize,
    tasks: usize,
}

/// A random cluster under the full fault mix: stragglers, per-attempt
/// failures, node-level crashes AND ToR-switch crash draws from an
/// active failure-domain config. MTTFs are hot enough that racks really
/// do die mid-phase across the grid.
fn scenario(g: &mut Gen) -> Scenario {
    let racks = g.usize(2..5);
    let per_rack = g.usize(1..3);
    let nodes = racks * per_rack;
    let cluster = Cluster::homogeneous(CoreKind::Big, nodes, g.usize(1..3));
    let tasks = g.usize(1..24);
    let load = PhaseLoad::uniform(
        &hhsim_core::TaskSet {
            tasks,
            task_seconds: 4.0 + g.f64() * 8.0,
            overhead_seconds: 0.25,
        },
        &cluster,
    );
    let mut policy = RecoveryPolicy::hadoop();
    policy.speculation = g.bool(0.5);
    policy.blacklist_after = *g.pick(&[0, 1, 3]);
    policy.rack_blacklist_after = *g.pick(&[0, 1, 2]);
    let rate = if g.bool(0.3) { 0.0 } else { g.f64() * 0.4 };
    let mut domains = DomainConfig::none().racks(racks);
    if g.bool(0.7) {
        domains = domains.switch_mttf(40.0 + g.f64() * 400.0);
    }
    let cfg = FaultConfig::none()
        .seed(g.u64(0..u64::MAX))
        .failure_rates(rate, rate)
        .node_mttf(if g.bool(0.5) { 120.0 } else { 0.0 })
        .stragglers(if g.bool(0.5) { 0.4 } else { 0.0 }, 1.0 + g.f64() * 3.0)
        .recovery(policy)
        .domains(domains);
    Scenario {
        cluster,
        load,
        cfg,
        nodes,
        racks,
        tasks,
    }
}

/// A plausible fetch plan for the scenario: every "map output" lives on
/// a random holder with a 2-replica set spread over two nodes, priced
/// over the scenario's rack fabric.
fn fetch_plan(g: &mut Gen, s: &Scenario) -> FetchPlan {
    let maps = g.usize(1..16);
    let holders: Vec<usize> = (0..maps).map(|_| g.usize(0..s.nodes)).collect();
    let map_replicas = holders
        .iter()
        .map(|&h| vec![h, (h + g.usize(1..s.nodes.max(2))) % s.nodes])
        .collect();
    FetchPlan {
        holders,
        map_replicas,
        topology: Topology::racked(s.racks, 1.0 + g.f64() * 8.0),
        read_seconds: [0.0, 1.0 + g.f64() * 2.0, 3.0 + g.f64() * 4.0],
        map_timing: vec![
            NodeTiming {
                task_seconds: 2.0 + g.f64() * 4.0,
                overhead_seconds: 0.1,
            };
            s.nodes
        ],
    }
}

/// Straggler + node-crash + rack-crash + fetch recovery in the same
/// phase: every task still completes exactly once, waste is conserved,
/// recovered maps run on live replica holders, and failure is a clean
/// typed error — never a wedge or a panic.
#[test]
fn domain_invariants_hold_under_the_full_fault_mix() {
    check(160, |g| {
        let s = scenario(g);
        let sampled = NodeFaults::sample(&s.cfg, s.nodes);
        let faults = sampled.phase(&s.cfg, 1, s.cfg.reduce_failure_rate, g.f64() * 30.0);
        let plan = g.bool(0.7).then(|| fetch_plan(g, &s));
        let run_once = || {
            run_phase_faulty_fetch(
                &s.cluster,
                &s.load,
                &mut FifoAnySlot,
                Some(&faults),
                plan.as_ref(),
            )
        };
        let result = run_once();
        assert_eq!(result, run_once(), "engine must be deterministic");
        match result {
            Ok(run) => {
                // Exactly one winner span per task, in task order.
                assert_eq!(run.spans.len(), s.tasks, "one winner span per task");
                for (i, span) in run.spans.iter().enumerate() {
                    assert_eq!(span.task, i);
                    assert_eq!(span.outcome, AttemptOutcome::Success);
                    assert!(span.finished_s <= run.makespan_s + 1e-9);
                }
                // Slot-second conservation: the wasted-work counter is
                // exactly the wasted spans, nothing double-counted when
                // rack crashes and fetch failures overlap stragglers.
                let wasted_s: f64 = run.wasted.iter().map(|w| w.finished_s - w.launched_s).sum();
                assert!(
                    (run.faults.wasted_slot_s - wasted_s).abs() < 1e-6,
                    "wasted slot-seconds must equal the wasted spans"
                );
                // Re-executed maps are useful work, never waste: each
                // recovered span names a real map, succeeded on a node
                // that was alive for its whole run.
                let maps = plan.as_ref().map_or(0, |p| p.holders.len());
                assert_eq!(run.faults.reexecuted_maps, run.recovered.len() as u64);
                for r in &run.recovered {
                    assert!(r.task < maps, "recovered span names a map output");
                    assert_eq!(r.outcome, AttemptOutcome::Recovered);
                    assert!(r.attempt >= 2, "re-execution is never attempt 1");
                    let crash = faults.crash_at_s[r.node];
                    assert!(
                        crash.is_none_or(|c| c >= r.finished_s - 1e-9),
                        "recovered map ran on a node that outlived it"
                    );
                }
                // Every reported id is real — a reduce task for the
                // phase's own attempts, a map for a re-execution — never
                // an engine-internal row number.
                for w in &run.wasted {
                    let bound = match w.outcome {
                        AttemptOutcome::FetchFailed | AttemptOutcome::Cancelled => s.tasks,
                        _ => s.tasks.max(maps),
                    };
                    assert!(
                        w.task < bound,
                        "wasted {:?} attempt names task {} of {bound}",
                        w.outcome,
                        w.task
                    );
                }
                // Fetch failures only exist when a fetch plan was given.
                if plan.is_none() {
                    assert_eq!(run.faults.fetch_failures, 0);
                    assert!(run.recovered.is_empty());
                }
                // Rack blacklisting never strands the job: something
                // completed, so at least one rack stayed usable.
                assert!(
                    (run.faults.racks_blacklisted as usize) < s.racks,
                    "at least one rack must survive blacklisting"
                );
            }
            Err(PhaseError::AttemptsExhausted { task, attempts }) => {
                assert!(task < s.tasks.max(1));
                assert_eq!(attempts, faults.policy.max_attempts);
            }
            Err(PhaseError::NoUsableSlots { pending }) => {
                assert!(pending > 0 && pending <= s.tasks);
            }
            Err(PhaseError::DataLost { task }) => {
                let plan = plan.as_ref().expect("DataLost needs a fetch plan");
                assert!(task < plan.holders.len(), "DataLost names a map output");
                // Every replica of that map really is doomed to die.
                for &r in &plan.map_replicas[task] {
                    assert!(
                        faults.dead_at_start[r] || faults.crash_at_s[r].is_some(),
                        "DataLost but replica {r} of map {task} never dies"
                    );
                }
            }
        }
    });
}

/// A map whose re-execution's holder dies too is lost a second time: it
/// goes back through its existing row, so the second re-execution is
/// attempt 3 of the map — not a fresh attempt 2 — and both land under the
/// map's own id.
#[test]
fn relost_map_reuses_its_row_and_keeps_counting_attempts() {
    let cluster = Cluster::homogeneous(CoreKind::Big, 4, 1);
    let load = PhaseLoad::uniform(
        &hhsim_core::TaskSet {
            tasks: 4,
            task_seconds: 10.0,
            overhead_seconds: 0.0,
        },
        &cluster,
    );
    // One map output, on node 0; its input block has a replica on every
    // node, so each re-execution is node-local wherever it lands.
    let plan = FetchPlan {
        holders: vec![0],
        map_replicas: vec![vec![0, 1, 2, 3]],
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
    let mut faults = hhsim_core::faults::PhaseFaults::inert(4);
    // Node 0 dies mid-shuffle; the re-run lands on node 1 (lowest free
    // id) and finishes around t = 8; node 1 dies at t = 12.
    faults.crash_at_s[0] = Some(5.0);
    faults.crash_at_s[1] = Some(12.0);
    let run = run_phase_faulty_fetch(
        &cluster,
        &load,
        &mut FifoAnySlot,
        Some(&faults),
        Some(&plan),
    )
    .expect("two replica holders survive");
    let reruns: Vec<(usize, usize, u32)> = run
        .recovered
        .iter()
        .map(|r| (r.task, r.node, r.attempt))
        .collect();
    assert_eq!(reruns, vec![(0, 1, 2), (0, 2, 3)]);
    assert_eq!(run.faults.reexecuted_maps, 2);
    assert_eq!(run.spans.len(), 4);
}

/// The end-to-end availability story, pinned: on the fig. 22 Atom
/// cluster at a hot rack-failure rate, both racks holding some block's
/// replica set die and the model surfaces a clean typed `DataLost` —
/// the diagnosis the `figures` binary prints before exiting nonzero.
#[test]
fn all_replicas_lost_surfaces_data_lost_end_to_end() {
    let mut c = SimConfig::new(AppId::TeraSort, presets::atom_c2758())
        .data_per_node(MICRO_DATA)
        .block_size(BlockSize::MB_256)
        .topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB))
        .faults(fig22_faults(4.0, true));
    c.nodes = TOPO_NODES;
    let err = traced(&c).expect_err("both replica racks die under this seed");
    assert!(
        matches!(err, SimError::Unrecoverable(PhaseError::DataLost { .. })),
        "expected DataLost, got: {err}"
    );
    assert!(
        err.to_string().contains("lost every replica"),
        "diagnosis must say what was lost: {err}"
    );
}

/// An inactive domain config — either fully empty or racks without any
/// hazard — changes nothing: measurements and trace bytes are identical
/// to a run with no domain config at all, even with other faults and a
/// live topology in play.
#[test]
fn inactive_domains_are_bitwise_invisible_at_model_level() {
    let base = || {
        let mut c = SimConfig::new(AppId::TeraSort, presets::xeon_e5_2420())
            .data_per_node(MICRO_DATA)
            .block_size(BlockSize::MB_256)
            .topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB));
        c.nodes = TOPO_NODES;
        c
    };
    let faults = FaultConfig::none()
        .seed(7)
        .failure_rates(0.06, 0.0)
        .stragglers(0.4, 2.0);
    let without = base().faults(faults);
    let with_empty = base().faults(faults.domains(DomainConfig::none()));
    // Racks declared but no switch hazard: still inactive.
    let with_idle_racks = base().faults(faults.domains(DomainConfig::none().racks(TOPO_RACKS)));
    let (m0, t0) = traced(&without).expect("the run recovers");
    for cfg in [with_empty, with_idle_racks] {
        let (m, t) = traced(&cfg).expect("the run recovers");
        assert_eq!(m0, m, "inactive domains changed the measurement");
        assert_eq!(
            streamed(|w| t0.write_chrome_trace(w)),
            streamed(|w| t.write_chrome_trace(w)),
            "inactive domains changed the trace bytes"
        );
    }
}
