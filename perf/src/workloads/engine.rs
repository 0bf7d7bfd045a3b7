//! `engine-clean` and `engine-chaos`: the two phase engines of
//! `core::cluster`, driven directly.
//!
//! Clean calls `run_phase` only, so `core::cluster`'s clean path and the
//! `des` ladder calendar do all the work. Chaos drives the second engine
//! (`run_phase_faulty`, `run_phase_faulty_fetch`); its replicas come from
//! the `hdfs` namenode and its node fates from `faults`, both in set-up,
//! so those layers move `setup_s` here and nothing else.

use crate::clock::Stopwatch;

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{
    jitter, placement_probes, reset_placement_probes, run_phase, run_phase_faulty,
    run_phase_faulty_fetch, Cluster, ClusterTimeline, FetchPlan, FifoAnySlot, KindPreferring,
    NodeTiming, PhaseLoad, PhaseLocality, PhaseRun, TaskSet,
};
use hhsim_core::des::{CalendarKind, SimTime, Simulation};
use hhsim_core::faults::{AttemptOutcome, FaultConfig, NodeFaults, PhaseFaults, RecoveryPolicy};
use hhsim_core::hdfs::{BlockSize, Dfs, DfsConfig, HdfsDefault, LocalityTier, NodeId, Topology};

use super::{splitmix, PassOut, Workload};
use crate::digest::Digest;
use crate::metrics::{rate, Layers};
use crate::trace::Tracer;

const TASK_SECONDS: f64 = 5.0;
const OVERHEAD_SECONDS: f64 = 0.1;

// ---- engine-clean sizes -------------------------------------------------

/// Flat run: 10 000 x 2 slots, one million tasks, `FifoAnySlot`.
const FLAT_NODES: usize = 10_000;
const FLAT_SLOTS: usize = 2;
const FLAT_TASKS: usize = 1_000_000;
/// Mixed run: big and little nodes, `KindPreferring`.
const MIXED_BIG: usize = 2_500;
const MIXED_LITTLE: usize = 7_500;
const MIXED_SLOTS: usize = 2;
const MIXED_TASKS: usize = 1_000_000;
/// Locality run: replicas, tier read seconds and per-task extras.
const LOCAL_NODES: usize = 2_000;
const LOCAL_SLOTS: usize = 4;
const LOCAL_RACKS: usize = 40;
const LOCAL_TASKS: usize = 400_000;

// ---- engine-chaos sizes -------------------------------------------------

const CHAOS_NODES: usize = 1_000;
const CHAOS_SLOTS: usize = 8;
const CHAOS_RACKS: usize = 40;
/// Input blocks placed through the namenode. `HdfsDefault` costs time
/// linear in the node count per block, so the input is kept to what one
/// set-up second places; four chained jobs scan it, one map task each
/// per block.
const CHAOS_BLOCKS: usize = 60_000;
const CHAOS_MAPS: usize = 4 * CHAOS_BLOCKS;
const CHAOS_REDUCES: usize = 60_000;
/// Per-attempt failure rate of both phases.
const CHAOS_FAILURE_RATE: f64 = 0.02;
/// Two nodes of the doomed rack die this far into the map phase.
const CHAOS_NODE_CRASHES_S: [f64; 2] = [80.0, 160.0];
/// The rest of that rack dies this far into the reduce phase: after the
/// outputs lost with the two dead nodes have been re-executed, while
/// reduces are in flight.
const CHAOS_RACK_CRASH_S: f64 = 35.0;

// ---- DES probe sizes ----------------------------------------------------

const DES_HEAP_PENDING: u64 = 1_000;
const DES_LADDER_PENDING: u64 = 100_000;
const DES_EVENTS: u64 = 1_000_000;
const DES_CANCELS: u64 = 500_000;

fn timing() -> NodeTiming {
    NodeTiming {
        task_seconds: TASK_SECONDS,
        overhead_seconds: OVERHEAD_SECONDS,
    }
}

fn uniform_load(tasks: usize, cluster: &Cluster) -> PhaseLoad {
    PhaseLoad::uniform(
        &TaskSet {
            tasks,
            task_seconds: TASK_SECONDS,
            overhead_seconds: OVERHEAD_SECONDS,
        },
        cluster,
    )
}

/// Folds a run's simulated results into the digest.
fn digest_run(d: &mut Digest, run: &PhaseRun) {
    d.f64(run.makespan_s);
    for s in run.spans.iter().chain(&run.wasted).chain(&run.recovered) {
        d.u64(((s.node as u64) << 32) | s.slot as u64);
        d.f64(s.launched_s);
        d.f64(s.finished_s);
    }
    d.u64(run.faults.wasted_attempts());
    d.u64(run.faults.speculative_wins);
    d.u64(run.faults.reexecuted_maps);
}

/// Invariants of any completed run: exactly one winner per task in task
/// order, every losing attempt leaves one wasted span, the wasted-work
/// counter equals the wasted spans' slot time, and slots never oversell.
fn run_invariants(run: &PhaseRun, tasks: usize) -> bool {
    let winners = run.spans.len() == tasks
        && run.spans.iter().enumerate().all(|(i, s)| {
            s.task == i
                && s.outcome == AttemptOutcome::Success
                && s.queued_s <= s.launched_s
                && s.launched_s < s.finished_s
                && s.finished_s <= run.makespan_s + 1e-9
        });
    let wasted_s: f64 = run.wasted.iter().map(|w| w.finished_s - w.launched_s).sum();
    winners
        && run.wasted.len() as u64 == run.faults.wasted_attempts()
        && run
            .wasted
            .iter()
            .all(|w| w.outcome != AttemptOutcome::Success)
        && (run.faults.wasted_slot_s - wasted_s).abs() <= 1e-6 * wasted_s.max(1.0)
        && run.recovered.len() as u64 == run.faults.reexecuted_maps
        && run.slots.peak_in_use <= run.slots.capacity
}

/// Slot-second conservation of a fault-free run: every task occupies a
/// slot for exactly the duration the load prices on its landing node.
fn slot_seconds_conserved(run: &PhaseRun, load: &PhaseLoad) -> bool {
    let mut expected = 0.0;
    let mut actual = 0.0;
    for s in &run.spans {
        let Some(t) = load.timing.get(s.node) else {
            return false;
        };
        let read = load
            .locality
            .as_ref()
            .map_or(0.0, |l| l.read_seconds[s.tier.idx()]);
        let extra = load.extra_seconds.get(s.task).copied().unwrap_or(0.0);
        expected += t.task_seconds * jitter(s.task) + t.overhead_seconds + read + extra;
        actual += s.finished_s - s.launched_s;
    }
    (expected - actual).abs() <= 1e-6 * expected
}

// ---- engine-clean -------------------------------------------------------

struct CleanInputs {
    flat: (Cluster, PhaseLoad),
    mixed: (Cluster, PhaseLoad),
    local: (Cluster, PhaseLoad),
}

#[derive(Default)]
pub struct Clean {
    inputs: Option<CleanInputs>,
}

impl Workload for Clean {
    fn uses_seed(&self) -> bool {
        true
    }

    /// Builds the three clusters and loads; the seed lays out the
    /// locality run's replicas and per-task extras.
    fn setup(&mut self, seed: u64, _layers: &mut Layers) {
        let flat_cluster = Cluster::homogeneous(CoreKind::Big, FLAT_NODES, FLAT_SLOTS);
        let flat_load = uniform_load(FLAT_TASKS, &flat_cluster);

        let mixed_cluster = Cluster::mixed(MIXED_BIG, MIXED_SLOTS, MIXED_LITTLE, MIXED_SLOTS);
        let mixed_load = PhaseLoad::by_kind(
            MIXED_TASKS,
            timing(),
            NodeTiming {
                task_seconds: TASK_SECONDS * 1.7,
                overhead_seconds: OVERHEAD_SECONDS * 2.0,
            },
            &mixed_cluster,
        );

        let local_cluster = Cluster::homogeneous(CoreKind::Big, LOCAL_NODES, LOCAL_SLOTS);
        let mut rng = seed;
        let replicas = (0..LOCAL_TASKS)
            .map(|t| {
                let r = splitmix(&mut rng);
                vec![
                    t % LOCAL_NODES,
                    (r % LOCAL_NODES as u64) as usize,
                    ((r >> 32) % LOCAL_NODES as u64) as usize,
                ]
            })
            .collect();
        let extras = (0..LOCAL_TASKS)
            .map(|_| (splitmix(&mut rng) % 5) as f64 * 0.1)
            .collect();
        let local_load = uniform_load(LOCAL_TASKS, &local_cluster)
            .with_locality(PhaseLocality {
                replicas,
                racks: LOCAL_RACKS,
                read_seconds: [0.0, 0.8, 2.4],
            })
            .with_extra_seconds(extras);

        self.inputs = Some(CleanInputs {
            flat: (flat_cluster, flat_load),
            mixed: (mixed_cluster, mixed_load),
            local: (local_cluster, local_load),
        });
    }

    fn pass(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> PassOut {
        let inputs = self.inputs.as_ref().expect("setup ran");
        let mut digest = Digest::new();
        let mut verified = true;
        let started = Stopwatch::start();
        let mut unverified_s = 0.0;
        // Verification and hashing are harness work: their time is taken
        // back out of the pass wall.
        let mut check = |run: &PhaseRun, load: &PhaseLoad, digest: &mut Digest| {
            let t0 = Stopwatch::start();
            let ok = run_invariants(run, load.tasks) && slot_seconds_conserved(run, load);
            digest_run(digest, run);
            unverified_s += t0.seconds();
            ok
        };

        let (cluster, load) = &inputs.flat;
        let (run, secs) = tracer.span("run_phase:flat", "cluster", |_| {
            run_phase(cluster, load, &mut FifoAnySlot)
        });
        layers.set("cluster.clean.events_per_s", rate(load.tasks as f64, secs));
        verified &= check(&run, load, &mut digest);
        drop(run);

        let (cluster, load) = &inputs.mixed;
        let mut prefer_big = KindPreferring {
            preferred: CoreKind::Big,
        };
        let (run, secs) = tracer.span("run_phase:mixed", "cluster", |_| {
            run_phase(cluster, load, &mut prefer_big)
        });
        layers.set("cluster.kind.events_per_s", rate(load.tasks as f64, secs));
        verified &= check(&run, load, &mut digest);
        drop(run);

        let (cluster, load) = &inputs.local;
        reset_placement_probes();
        let (run, secs) = tracer.span("run_phase:locality", "cluster", |_| {
            run_phase(cluster, load, &mut FifoAnySlot)
        });
        layers.set(
            "cluster.locality.events_per_s",
            rate(load.tasks as f64, secs),
        );
        layers.set(
            "cluster.probes_per_launch",
            rate(placement_probes() as f64, load.tasks as f64),
        );
        verified &= check(&run, load, &mut digest);

        // Stream that last timeline through both exporters into a sink.
        let mut sink = Digest::new();
        let (exported, secs) = tracer.span("timeline:export", "cluster", |_| {
            let mut timeline = ClusterTimeline::new(cluster);
            timeline.extend("map", 0.0, &run);
            timeline
                .write_chrome_trace(&mut sink)
                .and_then(|()| timeline.write_utilization_csv(&mut sink))
        });
        layers.set(
            "cluster.timeline.export_mb_per_s",
            rate(sink.len() as f64 / 1e6, secs),
        );
        digest.u64(sink.finish());
        drop(run);

        let wall_s = started.seconds() - unverified_s;
        PassOut {
            wall_s,
            digest: digest.finish(),
            verified,
            attempted: 4,
            failed: u64::from(exported.is_err()),
        }
    }

    fn probes(&mut self, tracer: &mut Tracer, layers: &mut Layers) {
        des_probes(tracer, layers);
    }
}

// ---- engine-chaos -------------------------------------------------------

struct ChaosInputs {
    cluster: Cluster,
    topology: Topology,
    map_load: PhaseLoad,
    map_faults: PhaseFaults,
    red_load: PhaseLoad,
    red_faults: PhaseFaults,
}

#[derive(Default)]
pub struct Chaos {
    inputs: Option<ChaosInputs>,
}

impl Workload for Chaos {
    fn uses_seed(&self) -> bool {
        true
    }

    /// Places every map input block through the HDFS namenode
    /// (`HdfsDefault`, seeded), samples node fates from `faults`, and
    /// pins the crash schedule: two nodes of one seeded rack die during
    /// the map phase and the rest of that rack during the reduce phase.
    /// `HdfsDefault` puts a block's first replica on its writer and the
    /// other two together in a different rack, so with every crash inside
    /// one rack some replica of every block survives: the job completes
    /// for any seed, and the amount of recovery work barely depends on it.
    fn setup(&mut self, seed: u64, layers: &mut Layers) {
        let cluster = Cluster::homogeneous(CoreKind::Big, CHAOS_NODES, CHAOS_SLOTS);
        let topology = Topology::racked(CHAOS_RACKS, 4.0);

        let t0 = Stopwatch::start();
        let mut dfs = Dfs::with_placement(
            DfsConfig {
                block_size: BlockSize::from_bytes(1),
                replication: 3,
                num_nodes: CHAOS_NODES,
            },
            Box::new(HdfsDefault::new(seed)),
            topology,
        )
        .expect("three replicas fit the cluster");
        // Every node ingests its own share of the input (one-byte blocks,
        // so a file of n bytes is n placements), like the paper's
        // per-node data load.
        let per_node = CHAOS_BLOCKS / CHAOS_NODES;
        let mut block_replicas: Vec<Vec<usize>> = vec![Vec::new(); CHAOS_BLOCKS];
        for n in 0..CHAOS_NODES {
            let path = format!("/in/{n}");
            dfs.create_from(&path, NodeId(n), vec![0u8; per_node].into())
                .expect("fresh path");
            let blocks = dfs.blocks(&path).expect("just created");
            for (b, meta) in blocks.iter().enumerate() {
                // Block k was written by node k % N.
                block_replicas[b * CHAOS_NODES + n] = meta.replicas().iter().map(|r| r.0).collect();
            }
        }
        layers.set(
            "hdfs.placements_per_s",
            rate(CHAOS_BLOCKS as f64, t0.seconds()),
        );
        let replicas: Vec<Vec<usize>> = (0..CHAOS_MAPS)
            .map(|t| block_replicas[t % CHAOS_BLOCKS].clone())
            .collect();

        let mut policy = RecoveryPolicy::hadoop();
        // Out of reach at a 2% failure rate: no seed exhausts a task.
        policy.max_attempts = 12;
        // A node sees about 5 failed map attempts; Hadoop's default of 3
        // would blacklist the whole cluster down to its last node. At 12 a
        // handful of unlucky nodes still get blacklisted.
        policy.blacklist_after = 12;
        let config = FaultConfig::none()
            .seed(seed)
            .failure_rates(CHAOS_FAILURE_RATE, CHAOS_FAILURE_RATE)
            .stragglers(0.05, 3.0)
            .recovery(policy);
        let t0 = Stopwatch::start();
        let mut fates = NodeFaults::sample(&config, CHAOS_NODES);
        layers.set(
            "faults.node_samples_per_s",
            rate(CHAOS_NODES as f64, t0.seconds()),
        );
        let mut rng = seed ^ 0xC4A0_5EED;
        let doomed_rack = (splitmix(&mut rng) % CHAOS_RACKS as u64) as usize;
        let rack_nodes: Vec<usize> = (0..CHAOS_NODES)
            .filter(|&n| topology.rack_of(NodeId(n)) == doomed_rack)
            .collect();
        let first = (splitmix(&mut rng) % rack_nodes.len() as u64) as usize;
        let step = 1 + (splitmix(&mut rng) % (rack_nodes.len() as u64 - 1)) as usize;
        let second = (first + step) % rack_nodes.len();
        fates.crash_at_s[rack_nodes[first]] = Some(CHAOS_NODE_CRASHES_S[0]);
        fates.crash_at_s[rack_nodes[second]] = Some(CHAOS_NODE_CRASHES_S[1]);
        let map_faults = fates.phase(&config, 0, config.phase_rate(false), 0.0);
        // The reduce phase starts after every pinned map-phase crash; the
        // rack's ToR then takes the remaining nodes down mid-phase.
        let reduce_start = CHAOS_NODE_CRASHES_S[1] + 1.0;
        let mut red_faults = fates.phase(&config, 1, config.phase_rate(true), reduce_start);
        red_faults.domains.racks = CHAOS_RACKS;
        red_faults.domains.rack_crash_at_s = vec![None; CHAOS_RACKS];
        red_faults.domains.link_degraded = vec![None; CHAOS_RACKS];
        red_faults.domains.rack_crash_at_s[doomed_rack] = Some(CHAOS_RACK_CRASH_S);
        for &n in &rack_nodes {
            if !red_faults.dead_at_start[n] {
                red_faults.crash_at_s[n] = Some(CHAOS_RACK_CRASH_S);
            }
        }

        let map_bytes = 64u64 << 20;
        let read_seconds = [
            topology.read_seconds(map_bytes, LocalityTier::NodeLocal),
            topology.read_seconds(map_bytes, LocalityTier::RackLocal),
            topology.read_seconds(map_bytes, LocalityTier::OffRack),
        ];
        let map_load = uniform_load(CHAOS_MAPS, &cluster).with_locality(PhaseLocality {
            replicas,
            racks: CHAOS_RACKS,
            read_seconds,
        });
        let red_load = uniform_load(CHAOS_REDUCES, &cluster);
        self.inputs = Some(ChaosInputs {
            cluster,
            topology,
            map_load,
            map_faults,
            red_load,
            red_faults,
        });
    }

    fn pass(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> PassOut {
        let inputs = self.inputs.as_ref().expect("setup ran");
        let started = Stopwatch::start();
        let (map_run, map_s) = tracer.span("run_phase_faulty:map", "cluster", |_| {
            run_phase_faulty(
                &inputs.cluster,
                &inputs.map_load,
                &mut FifoAnySlot,
                Some(&inputs.map_faults),
            )
        });
        let map_run = match map_run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("engine-chaos: map phase failed: {e}");
                return PassOut {
                    wall_s: started.seconds(),
                    digest: 0,
                    verified: false,
                    attempted: 1,
                    failed: 1,
                };
            }
        };
        let map_attempts = map_run.spans.len() + map_run.wasted.len();
        layers.set(
            "cluster.faulty.attempts_per_s",
            rate(map_attempts as f64, map_s),
        );

        let (red_run, red_s) = tracer.span("run_phase_faulty_fetch:reduce", "cluster", |_| {
            let locality = inputs.map_load.locality.as_ref().expect("map locality");
            let plan = FetchPlan {
                holders: map_run.spans.iter().map(|s| s.node).collect(),
                map_replicas: locality.replicas.clone(),
                topology: inputs.topology,
                read_seconds: locality.read_seconds,
                map_timing: inputs.map_load.timing.clone(),
            };
            run_phase_faulty_fetch(
                &inputs.cluster,
                &inputs.red_load,
                &mut FifoAnySlot,
                Some(&inputs.red_faults),
                Some(&plan),
            )
        });
        // Verification and hashing are harness work, outside the pass wall.
        let wall_s = started.seconds();
        let mut digest = Digest::new();
        let mut failed = 0;
        let mut verified = run_invariants(&map_run, CHAOS_MAPS)
            && map_run.faults.node_crashes == CHAOS_NODE_CRASHES_S.len() as u64;
        digest_run(&mut digest, &map_run);
        let mut winners = map_run.spans.len();
        let mut attempts = map_attempts;
        match red_run {
            Ok(run) => {
                let red_attempts = run.spans.len() + run.wasted.len() + run.recovered.len();
                layers.set(
                    "cluster.fetch.attempts_per_s",
                    rate(red_attempts as f64, red_s),
                );
                layers.set(
                    "cluster.faulty.fetch_failures",
                    run.faults.fetch_failures as f64,
                );
                layers.set(
                    "cluster.faulty.reexecuted_maps",
                    run.faults.reexecuted_maps as f64,
                );
                verified &= run_invariants(&run, CHAOS_REDUCES);
                verified &= run.faults.rack_crashes == 1 && run.faults.reexecuted_maps > 0;
                digest_run(&mut digest, &run);
                winners += run.spans.len() + run.recovered.len();
                attempts += red_attempts;
            }
            Err(e) => {
                eprintln!("engine-chaos: reduce phase failed: {e}");
                failed += 1;
                verified = false;
            }
        }
        layers.set(
            "cluster.faulty.useful_ratio",
            rate(winners as f64, attempts as f64),
        );
        PassOut {
            wall_s,
            digest: digest.finish(),
            verified,
            attempted: 2,
            failed,
        }
    }

    fn probes(&mut self, tracer: &mut Tracer, layers: &mut Layers) {
        des_probes(tracer, layers);
    }
}

// ---- DES calendar probes ------------------------------------------------

/// One self-rescheduling event of the hold model: every executed event
/// schedules its successor a pseudo-random delay ahead until the budget
/// is spent, so the pending count stays at its initial value.
fn hold(sim: &mut Simulation, left: std::rc::Rc<std::cell::Cell<u64>>, mut rng: u64) {
    if left.get() == 0 {
        return;
    }
    left.set(left.get() - 1);
    let delay = SimTime::from_micros(1 + splitmix(&mut rng) % 10_000_000);
    sim.schedule_in(delay, move |sim| hold(sim, left, rng));
}

/// Events per second of the hold model at `pending` events on `kind`.
fn hold_rate(tracer: &mut Tracer, name: &str, kind: CalendarKind, pending: u64) -> f64 {
    let mut sim = Simulation::with_calendar(kind);
    let left = std::rc::Rc::new(std::cell::Cell::new(DES_EVENTS));
    for i in 0..pending {
        let left = left.clone();
        sim.schedule_in(SimTime::from_micros(1 + i), move |sim| hold(sim, left, i));
    }
    let (_, secs) = tracer.span(name, "des", |_| sim.run());
    rate(sim.executed_events() as f64, secs)
}

/// The calendar alone, from outside: the heap at the pending counts small
/// simulations see, the ladder at the density of a 10k-node phase, and
/// tombstone cancellation.
pub(super) fn des_probes(tracer: &mut Tracer, layers: &mut Layers) {
    layers.set(
        "des.heap.events_per_s",
        hold_rate(
            tracer,
            "probe:des_heap",
            CalendarKind::Heap,
            DES_HEAP_PENDING,
        ),
    );
    layers.set(
        "des.ladder.events_per_s",
        hold_rate(
            tracer,
            "probe:des_ladder",
            CalendarKind::Ladder,
            DES_LADDER_PENDING,
        ),
    );
    let mut sim = Simulation::new();
    let ids: Vec<_> = (0..DES_CANCELS)
        .map(|i| sim.schedule_in(SimTime::from_micros(1 + i % 1_000), |_| {}))
        .collect();
    let (_, secs) = tracer.span("probe:des_cancel", "des", |_| {
        for id in ids {
            sim.cancel(id);
        }
        sim.run()
    });
    layers.set("des.cancels_per_s", rate(DES_CANCELS as f64, secs));
}
