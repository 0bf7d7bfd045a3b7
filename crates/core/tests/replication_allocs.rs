//! Allocation ratchet for the seeded replication hot path, for warm and
//! cold points through the pricing pipeline and for both phase engines.
//!
//! Its own test binary so it may install a counting `#[global_allocator]`:
//! 64 and 512 seeds of the fig22 rack configuration and of the fig20
//! 3-node one through `ReplicationPlan::run_with` at one worker, to see
//! that a seed past the first costs no allocator call and that what a
//! plan leaves behind does not grow with what it ran, then three plain
//! points through `SimConfig::run` read by their own meter and one of them
//! traced, each asked again of a private memo that holds its run; then
//! plans of 40 and of 80 cold plain points through `run_grid_on`, whose
//! difference is what one more point costs; then `run_phase` with
//! locality on 2 000 nodes at two task counts, which must cost the same number of
//! calls; last, `run_phase_faulty_fetch` over 10 k map outputs on 500 and
//! on 2 000 nodes, without crashes and with them, which must too; and
//! `run_phase_faulty` at two task counts, which must cost the same number
//! of calls and at most 88 bytes per task more. Tests of their own count
//! the static machine and profile descriptions (zero calls to build or
//! clone a preset), a warm render of every artifact and the calibration
//! report on a private memo, and cold points on a small and on a 300-node
//! cluster, flat and on a rack fabric, which must cost the same number of
//! calls. Counts are of the thread
//! that runs the work (`hhsim_testkit::counted`), and at one worker the
//! work runs on that thread alone, so the counts repeat exactly — which is
//! why a count can be a gate here.

use hhsim_core::arch::{presets, ComputeProfile, CoreKind};
use hhsim_core::cluster::{
    run_phase, run_phase_faulty, run_phase_faulty_fetch, Cluster, FetchPlan, FifoAnySlot,
    PhaseLoad, PhaseLocality, TaskSet,
};
use hhsim_core::energy::MetricKind;
use hhsim_core::faults::{FaultConfig, PhaseFaults};
use hhsim_core::figures::{
    self, fig19_faults, fig22_faults, FAULT_BLOCK, FIG22_OVERSUB, MICRO_DATA, TOPO_NODES,
    TOPO_RACKS,
};
use hhsim_core::harness::run_grid_on;
use hhsim_core::hdfs::{BlockSize, Topology};
use hhsim_core::workloads::AppId;
use hhsim_core::{
    calibration, NodeMix, PlacementKind, Plan, Reading, ReplicationPlan, SimCache, SimConfig,
};
use hhsim_testkit::{counted, Allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

const APP: AppId = AppId::TeraSort;
const SEEDS: u64 = 64;
/// The longer plans: their 448 seeds more are the per-seed cost.
const LONG_SEEDS: u64 = 512;
/// Bytes the longer rack plan may leave behind on top of the shorter one's
/// and its own longer seed list.
const LEFT_SLACK: i64 = 256;

/// The fig22 rack configuration: 4 Xeon + 8 Atom, 4 racks, 4x
/// oversubscription, 4 switch crashes per rack-hour.
fn rack_config() -> SimConfig {
    SimConfig::new(APP, presets::xeon_e5_2420())
        .data_per_node(MICRO_DATA)
        .block_size(BlockSize::MB_256)
        .topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB))
        .faults(fig22_faults(4.0, true))
        .mix(NodeMix {
            big: 4,
            little: 8,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        })
}

/// The fig20 3-node configuration at a 6 % attempt-failure rate.
fn small_config() -> SimConfig {
    SimConfig::new(APP, presets::atom_c2758())
        .data_per_node(MICRO_DATA)
        .block_size(FAULT_BLOCK)
        .faults(fig19_faults(0.06, true))
}

/// Allocator calls of `config`'s plan over `seeds` at one worker, the
/// live bytes the run leaves behind and the rack crashes its seeds drew.
fn plan_allocs(config: SimConfig, seeds: u64, cache: &SimCache) -> (u64, i64, u64) {
    let plan = ReplicationPlan::new(config, 0..seeds);
    let (summary, Allocs { calls, live, .. }) = counted(|| plan.run_with(1, cache));
    assert_eq!(summary.replications, seeds);
    (calls, live, summary.faults.rack_crashes)
}

/// What the parent commit (PR 16) allocated per seed on the same two
/// plans, measured with this file: the change must stay below half.
const PARENT_RACK: u64 = 485;
const PARENT_SMALL: u64 = 203;
/// Allocator calls per seed this commit measures, (calls at 512 seeds −
/// calls at 64) / 448; the gate allows 10 % on top. A seed reuses its
/// worker's run scratch: node fates, phase fault plans, engine tables and
/// node meters are written over, and a domain event is recorded without
/// a label.
const MEASURED_RACK: u64 = 0;
const MEASURED_SMALL: u64 = 0;
/// The gate of a count this commit measures: 10 % on top.
fn with_slack(measured: u64) -> u64 {
    measured + measured / 10
}

/// Calls the 512-seed plan may make on top of the 64-seed one: a recycled
/// buffer doubling to a high-water mark only a later seed reaches. Not a
/// per-seed term.
const HIGH_WATER_CALLS: u64 = 8;

/// Three plain points (Atom preset, 512 MB blocks, 1.8 GHz) run warm
/// through `SimConfig::run` with `Reading::Auto`.
const WARM_PLAIN: [AppId; 3] = [AppId::WordCount, AppId::Grep, AppId::Sort];
/// (allocator calls, requested bytes) of one warm plain point, pinned at
/// what it costs: a warm point prices nothing, it is the point table's
/// entry cloned out, and a `Measurement` holds nothing on the heap.
const WARM_PLAIN_MAX: (u64, u64) = (0, 0);
/// The WordCount point once more, traced, pinned at what it costs: the
/// memo shares the entry's timeline, a reference count.
const ENGINE_POINT_MAX: u64 = 0;

/// The warm-point half of the ratchet.
fn warm_points_allocate_within_the_ratchet() {
    let cache = SimCache::new();
    let plain = |app| SimConfig::new(app, presets::atom_c2758());
    for app in WARM_PLAIN {
        let cfg = plain(app);
        let cold = cfg.run(&cache, Reading::Auto);
        let (warm, Allocs { calls, bytes, .. }) = counted(|| cfg.run(&cache, Reading::Auto));
        assert_eq!(warm, cold);
        println!("warm plain point {app}: {calls} calls, {bytes} bytes");
        assert!(
            calls <= WARM_PLAIN_MAX.0 && bytes <= WARM_PLAIN_MAX.1,
            "{app}: {calls} calls / {bytes} bytes, ratchet is {WARM_PLAIN_MAX:?}"
        );
    }
    let cfg = plain(AppId::WordCount);
    let cold = cfg.run(&cache, Reading::Traced);
    let (warm, Allocs { calls, bytes, .. }) = counted(|| cfg.run(&cache, Reading::Traced));
    assert_eq!(warm, cold);
    println!("warm engine-path point with a timeline: {calls} calls, {bytes} bytes");
    assert_eq!(calls, ENGINE_POINT_MAX, "{calls} calls");
}

/// Every block size the figures sweep.
const BLOCKS: [BlockSize; 5] = [
    BlockSize::MB_32,
    BlockSize::MB_64,
    BlockSize::MB_128,
    BlockSize::MB_256,
    BlockSize::MB_512,
];

/// Distinct points of both presets, the micro apps and `blocks`, each
/// made `shape`: 8 per block size, each priced from the same memo entries.
fn points(blocks: &[BlockSize], shape: impl Fn(SimConfig) -> SimConfig) -> Vec<SimConfig> {
    let mut points = Vec::new();
    for m in presets::both() {
        for app in AppId::MICRO {
            for &block in blocks {
                points.push(shape(SimConfig::new(app, m.clone()).block_size(block)));
            }
        }
    }
    points
}

/// What `K` more cold points of `grid`'s shapes cost, and `K`: with the
/// memo's functional runs and stall splits filled by `grid`, a plan of
/// `grid` and one of `grid` twice, every point cold, at one worker. A
/// point is made cold by an inactive fault config, whose seed no run
/// reads, so both plans run the same shapes: the second plan's second
/// half finds its run scratch at the high-water mark its first half left,
/// and each plan's first fill of its scratch is in both counts. Prints
/// `what` with the counts.
fn calls_of_more_cold_points(what: &str, grid: &[SimConfig]) -> (u64, u64) {
    let cold = |seeds: &[u64]| -> Vec<SimConfig> {
        (seeds.iter())
            .flat_map(|&seed| {
                grid.iter()
                    .map(move |cfg| cfg.clone().faults(FaultConfig::none().seed(seed)))
            })
            .collect()
    };
    let cache = SimCache::new();
    run_grid_on(grid, 1, &cache);
    let calls_of = |grid: &[SimConfig]| {
        let (ran, Allocs { calls, .. }) = counted(|| run_grid_on(grid, 1, &cache));
        assert_eq!(ran.len(), grid.len());
        calls
    };
    let (once, twice) = (cold(&[1]), cold(&[2, 3]));
    let (k, k2) = (calls_of(&once), calls_of(&twice));
    let n = once.len() as u64;
    let extra = k2.saturating_sub(k);
    println!(
        "allocator calls of a cold plan of {what}: {k} over {n} points, {k2} over {}; \
         {} per point",
        twice.len(),
        extra / n
    );
    (extra, n)
}

/// What the parent commit allocated per cold plain point through a plan
/// at one worker, measured with this file: the change must stay below
/// half. Each point built its engines' tables, step buffers and meters
/// afresh.
const PARENT_POINT: u64 = 62;
/// Allocator calls per cold plain point this commit measures,
/// (calls over 2K points − calls over K) / K; the gate allows 10 % on
/// top. A point is priced and run in its worker's run scratch, and its
/// memo entry holds nothing on the heap.
const MEASURED_POINT: u64 = 0;

/// The cold-point half: 40 plain points of every block size against the
/// same 80 ([`calls_of_more_cold_points`]).
fn cold_points_allocate_within_the_ratchet() {
    let (extra, points) = calls_of_more_cold_points("plain points", &points(&BLOCKS, |c| c));
    let got = extra / points;
    assert!(
        got <= with_slack(MEASURED_POINT),
        "{got} allocations per cold point, ratchet is {MEASURED_POINT} + 10 %"
    );
    assert!(
        2 * got < PARENT_POINT,
        "{got} allocations per cold point is not below half of the parent's {PARENT_POINT}"
    );
}

/// The cluster sizes a point's price must not grow with: the paper's and
/// a hundred times it.
const SMALL_CLUSTER: usize = 3;
const LARGE_CLUSTER: usize = 300;

/// Two block sizes keep the 300-node engine runs short.
const SCALE_BLOCKS: [BlockSize; 2] = [BlockSize::MB_256, BlockSize::MB_512];

/// Cold plain points cost the same number of allocator calls on a 3-node
/// cluster as on a 300-node one: pricing writes the roster, the phase
/// loads and the meters over its worker's buffers, and nothing it keeps
/// is sized per node.
#[test]
fn a_cold_point_costs_the_same_on_3_and_300_nodes() {
    let on = |nodes: usize| {
        let grid = points(&SCALE_BLOCKS, |cfg| SimConfig { nodes, ..cfg });
        calls_of_more_cold_points(&format!("flat points on {nodes} nodes"), &grid)
    };
    let (small, _) = on(SMALL_CLUSTER);
    assert_eq!(
        small,
        on(LARGE_CLUSTER).0,
        "calls per cold point grow with nodes"
    );
}

/// The same on an active rack fabric, 12 nodes against 300: each point
/// also lays out one replica row per block and prices the reduce shuffle.
/// One slot per node keeps the shuffle's all-to-all flows (reducers x
/// nodes) few enough for a debug build.
#[test]
fn a_cold_topology_point_costs_the_same_on_12_and_300_nodes() {
    let on = |nodes: usize| {
        let grid = points(&SCALE_BLOCKS, |cfg| SimConfig {
            nodes,
            mappers_per_node: Some(1),
            ..cfg.topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB))
        });
        calls_of_more_cold_points(&format!("topology points on {nodes} nodes"), &grid)
    };
    let (small, _) = on(TOPO_NODES);
    assert_eq!(
        small,
        on(LARGE_CLUSTER).0,
        "calls per cold point grow with nodes"
    );
}

/// The fault-free engine's half: `engine-clean`'s locality run (2 000
/// nodes x 4 slots, 40 racks, three replicas a task) allocates per *run*
/// — the span vector once, the slot book, the calendar's buckets, which
/// are refilled and not reallocated — and nothing per task: twice the
/// tasks, the same number of allocator calls.
fn clean_engine_allocates_nothing_per_task() {
    const NODES: usize = 2_000;
    let cluster = Cluster::homogeneous(CoreKind::Big, NODES, 4);
    let calls_at = |tasks: usize| {
        let set = TaskSet {
            tasks,
            task_seconds: 5.0,
            overhead_seconds: 0.1,
        };
        let load = PhaseLoad::uniform(&set, &cluster).with_locality(PhaseLocality {
            replicas: (0..tasks)
                .map(|t| vec![t % NODES, (t * 7919) % NODES, (t * 104_729 + 13) % NODES])
                .collect(),
            racks: 40,
            read_seconds: [0.0, 0.8, 2.4],
        });
        let (run, Allocs { calls, bytes, .. }) =
            counted(|| run_phase(&cluster, &load, &mut FifoAnySlot));
        assert_eq!(run.spans.len(), tasks);
        println!("run_phase, {tasks} tasks with locality: {calls} calls, {bytes} bytes");
        calls
    };
    // The first few rounds of the calendar still grow its buckets to the
    // size this cluster fills them to; by 100 k tasks that is over.
    assert_eq!(calls_at(100_000), calls_at(200_000));
}

/// The fault engine's half: a reduce phase of 400 tasks over 10 k map
/// outputs allocates per *call* — every table sized by the nodes, the
/// slots or the outputs (the speed classes, the outputs by holder among
/// them) once — and nothing per node or per crash. On 500 nodes and on
/// 2 000, without crashes and with 50 (each losing 25 outputs), the same
/// number of allocator calls: both clusters run the very same events,
/// every reduce, output, replica and landing sitting on nodes below 500.
/// What the crashes lost grows vectors — re-execution rows, the recovery
/// queue, the wasted and recovered spans — by doubling, so 50 crashes
/// more cost fewer calls than that.
fn fault_engine_allocates_nothing_per_node_or_crash() {
    const MAPS: usize = 10_000;
    let calls_at = |nodes: usize, crashes: usize| {
        let cluster = Cluster::homogeneous(CoreKind::Big, nodes, 4);
        let set = TaskSet {
            tasks: 400,
            task_seconds: 5.0,
            overhead_seconds: 0.1,
        };
        let load = PhaseLoad::uniform(&set, &cluster);
        // 25 outputs on each of nodes 100..500, their input's second
        // replica 200 nodes away.
        let holders: Vec<usize> = (0..MAPS).map(|m| 100 + m % 400).collect();
        let plan = FetchPlan {
            map_replicas: holders
                .iter()
                .map(|&h| vec![h, if h < 300 { h + 200 } else { h - 200 }])
                .collect(),
            holders,
            topology: Topology::racked(1, 1.0),
            read_seconds: [0.0, 0.5, 2.0],
            map_timing: load.timing.clone(),
        };
        let mut faults = PhaseFaults::inert(nodes);
        for (i, n) in (100..100 + crashes).enumerate() {
            faults.crash_at_s[n] = Some(1.0 + 0.01 * i as f64);
        }
        let (run, Allocs { calls, bytes, .. }) = counted(|| {
            run_phase_faulty_fetch(
                &cluster,
                &load,
                &mut FifoAnySlot,
                Some(&faults),
                Some(&plan),
            )
        });
        let run = run.expect("every lost output has a live replica");
        assert_eq!(run.faults.node_crashes, crashes as u64);
        assert_eq!(run.faults.reexecuted_maps, 25 * crashes as u64);
        println!(
            "run_phase_faulty_fetch, {nodes} nodes, {crashes} crashes: {calls} calls, {bytes} bytes"
        );
        calls
    };
    let calm = calls_at(500, 0);
    assert_eq!(calm, calls_at(2_000, 0), "calls per node without crashes");
    let crashed = calls_at(500, 50);
    assert_eq!(crashed, calls_at(2_000, 50), "calls per node with crashes");
    let twice = calls_at(500, 100);
    assert!(
        twice - crashed < 50,
        "{twice} calls with 100 crashes against {crashed} with 50"
    );
}

/// Bytes per task the fault engine may request: one 64-byte winning span,
/// written in place, and one 24-byte row. The parent commit requested 208
/// (a second span column it copied from, and a 16-byte queue entry).
const FAULT_BYTES_PER_TASK: u64 = 88;

/// The fault engine's per-task state: `run_phase_faulty` with nothing to
/// inject on 2 000 x 4 slots, at 100 k and at 200 k tasks on fresh
/// tables, makes the same number of allocator calls, and the 100 k tasks
/// more cost at most [`FAULT_BYTES_PER_TASK`] bytes each.
fn fault_engine_keeps_one_span_and_one_row_per_task() {
    const NODES: usize = 2_000;
    let cluster = Cluster::homogeneous(CoreKind::Big, NODES, 4);
    let faults = PhaseFaults::inert(NODES);
    let at = |tasks: usize| {
        let set = TaskSet {
            tasks,
            task_seconds: 5.0,
            overhead_seconds: 0.1,
        };
        let load = PhaseLoad::uniform(&set, &cluster);
        let (run, Allocs { calls, bytes, .. }) =
            counted(|| run_phase_faulty(&cluster, &load, &mut FifoAnySlot, Some(&faults)));
        assert_eq!(run.expect("inert faults complete").spans.len(), tasks);
        println!("run_phase_faulty, {tasks} tasks, inert: {calls} calls, {bytes} bytes");
        (calls, bytes)
    };
    let (small, small_bytes) = at(100_000);
    let (large, large_bytes) = at(200_000);
    assert_eq!(small, large, "allocator calls per task");
    let per_task = (large_bytes - small_bytes) / 100_000;
    println!("run_phase_faulty: {per_task} bytes per task");
    assert!(
        per_task <= FAULT_BYTES_PER_TASK,
        "{per_task} bytes per task, ratchet is {FAULT_BYTES_PER_TASK}"
    );
}

/// Runs `work`, which must hold, and asserts it called the allocator
/// zero times.
fn allocates_nothing(what: &str, work: impl FnOnce() -> bool) {
    let (held, Allocs { calls, .. }) = counted(work);
    assert!(held, "{what}");
    assert_eq!(calls, 0, "{what} called the allocator");
}

/// Table 1 and the profiles are borrowed static data: building, cloning
/// or comparing a preset machine, a preset config or a built-in profile
/// calls the allocator zero times.
#[test]
fn static_descriptions_allocate_nothing() {
    let [xeon, atom] = presets::both();
    let configs = [
        SimConfig::new(APP, presets::xeon_e5_2420()),
        rack_config(),
        small_config(),
    ];
    allocates_nothing("presets::both()", || presets::both()[1] == atom);
    allocates_nothing("MachineModel::clone", || xeon.clone() == xeon);
    allocates_nothing("SimConfig::clone", || {
        configs.iter().all(|c| c.clone() == *c)
    });
    for app in AppId::ALL {
        allocates_nothing("AppId::map_profile", || {
            app.map_profile().name.ends_with("-map")
        });
        allocates_nothing("AppId::reduce_profile", || {
            app.reduce_profile().name.ends_with("-reduce")
        });
    }
    allocates_nothing("ComputeProfile::hadoop_average()", || {
        ComputeProfile::hadoop_average().name == "Hadoop-avg"
    });
}

/// What the parent commit allocated on a warm render of every artifact
/// and the calibration report at one worker, measured with this file in a
/// clone of it: the change must stay below half. Each row's series and x
/// were two heap strings, most of them `format!`ed, the rows and each CSV
/// grew by doubling, and the report `format!`ed every row and number.
const PARENT_WARM_RENDER: u64 = 5_347;
/// Allocator calls this commit measures on the same render; the gate
/// allows 10 % on top. A row holds two `Copy` keys, a figure reserves its
/// rows once and a CSV or the report is one buffer.
const MEASURED_WARM_RENDER: u64 = 273;

/// Every artifact and the calibration claims declared into one plan, run
/// on `cache` at one worker and rendered: the CSVs in
/// [`figures::ARTIFACTS`] order and the report.
fn render_all(cache: &SimCache) -> (Vec<String>, String) {
    let mut plan = Plan::new();
    let renders: Vec<_> = (figures::ARTIFACTS.iter())
        .map(|(_, declare)| declare(&mut plan))
        .collect();
    let claims = calibration::claims(&mut plan);
    let ran = plan.run_on(1, cache);
    let csvs = (renders.into_iter())
        .map(|render| render(&ran).expect("renders").to_csv())
        .collect();
    let report = calibration::report(&claims(&ran).expect("the claims' runs complete"));
    (csvs, report)
}

/// A warm regeneration: one render fills a private memo, and a second,
/// counted, is answered from it.
#[test]
fn warm_render_allocates_within_the_ratchet() {
    let cache = SimCache::new();
    let cold = render_all(&cache);
    let (warm, Allocs { calls, .. }) = counted(|| render_all(&cache));
    assert_eq!(warm, cold);
    println!("allocator calls of a warm render: {calls}");
    assert!(
        calls <= with_slack(MEASURED_WARM_RENDER),
        "{calls} allocations per warm render, ratchet is {MEASURED_WARM_RENDER} + 10 %"
    );
    assert!(
        2 * calls < PARENT_WARM_RENDER,
        "{calls} allocations per warm render is not below half of the parent's {PARENT_WARM_RENDER}"
    );
}

#[test]
fn seeded_runs_allocate_within_the_ratchet() {
    let cache = SimCache::new();
    cache.ratios(APP);
    for m in presets::both() {
        cache.stall_split(&m, &APP.map_profile());
        cache.stall_split(&m, &APP.reduce_profile());
    }
    // A one-seed plan of each config first: what the memo prices and
    // stores once per config is paid before anything is counted.
    for config in [rack_config(), small_config()] {
        ReplicationPlan::new(config, LONG_SEEDS..LONG_SEEDS + 1).run_with(1, &cache);
    }
    let (rack_calls, left, rack_crashes) = plan_allocs(rack_config(), SEEDS, &cache);
    let (rack_long, left_long, _) = plan_allocs(rack_config(), LONG_SEEDS, &cache);
    let (small_calls, _, _) = plan_allocs(small_config(), SEEDS, &cache);
    let (small_long, _, _) = plan_allocs(small_config(), LONG_SEEDS, &cache);
    println!(
        "allocator calls of a plan at {SEEDS} / {LONG_SEEDS} seeds: \
         rack {rack_calls} / {rack_long}, small {small_calls} / {small_long}"
    );
    // The rack seeds crash racks, so the domain-event path ran.
    assert!(rack_crashes > 0, "no rack crash in {SEEDS} rack seeds");
    // What a plan leaves in the memo does not scale with what it ran:
    // eight times the seeds leave the longer seed list and nothing else.
    println!(
        "live bytes left by a rack plan: {left} at {SEEDS} seeds, {left_long} at {LONG_SEEDS}"
    );
    let seed_list = 8 * (LONG_SEEDS - SEEDS) as i64;
    assert!(
        left_long - left <= seed_list + LEFT_SLACK,
        "a plan left {left} bytes at {SEEDS} seeds and {left_long} at {LONG_SEEDS}"
    );
    for (name, short, long, measured, parent) in [
        ("rack", rack_calls, rack_long, MEASURED_RACK, PARENT_RACK),
        (
            "small",
            small_calls,
            small_long,
            MEASURED_SMALL,
            PARENT_SMALL,
        ),
    ] {
        let extra = long.saturating_sub(short);
        let got = extra / (LONG_SEEDS - SEEDS);
        println!("allocations per seed: {name} {got}");
        assert!(
            extra <= HIGH_WATER_CALLS,
            "{name}: {long} calls at {LONG_SEEDS} seeds against {short} at {SEEDS}"
        );
        assert!(
            got <= with_slack(measured),
            "{name}: {got} allocations per seed, ratchet is {measured} + 10 %"
        );
        assert!(
            2 * got < parent,
            "{name}: {got} allocations per seed is not below half of the parent's {parent}"
        );
    }
    warm_points_allocate_within_the_ratchet();
    cold_points_allocate_within_the_ratchet();
    clean_engine_allocates_nothing_per_task();
    fault_engine_allocates_nothing_per_node_or_crash();
    fault_engine_keeps_one_span_and_one_row_per_task();
}
