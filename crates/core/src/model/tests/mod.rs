use std::sync::Arc;

use hhsim_accel::AccelConfig;
use hhsim_arch::{presets, Frequency, MachineModel};
use hhsim_energy::{CostMetrics, MetricKind};
use hhsim_faults::{FaultConfig, FaultStats, PhaseError};
use hhsim_hdfs::{BlockSize, Topology};
use hhsim_testkit::streamed;
use hhsim_workloads::AppId;

use super::*;
use crate::cluster::ClusterTimeline;
use crate::simcache::SimCache;

fn base(app: AppId, m: MachineModel) -> SimConfig {
    SimConfig::new(app, m)
}

/// `cfg` read per node with its timeline, on the process-wide memo.
fn traced(cfg: &SimConfig) -> (Measurement, Arc<ClusterTimeline>) {
    traced_on(cfg, SimCache::global())
}

/// `cfg` read per node with its timeline, on `cache`.
fn traced_on(cfg: &SimConfig, cache: &SimCache) -> (Measurement, Arc<ClusterTimeline>) {
    let (m, timeline) = (cfg.run(cache, Reading::Traced)).expect("a valid run completes");
    (m, timeline.expect("a traced run fills a timeline"))
}

/// Dynamic power of the map phase over the whole cluster, watts: at equal
/// node counts, comparing it compares one node's.
fn map_watts(m: &Measurement) -> f64 {
    m.map_cost.energy_j / m.breakdown.map_s
}

/// `cfg` read per node without a timeline, on `cache`.
fn per_node(cfg: &SimConfig, cache: &SimCache) -> Result<Measurement, SimError> {
    cfg.run(cache, Reading::PerNode).map(|(m, _)| m)
}

#[test]
fn xeon_is_faster_everywhere() {
    for app in AppId::ALL {
        let x = simulate(&base(app, presets::xeon_e5_2420()));
        let a = simulate(&base(app, presets::atom_c2758()));
        assert!(
            x.breakdown.total() < a.breakdown.total(),
            "{app}: xeon {} vs atom {}",
            x.breakdown.total(),
            a.breakdown.total()
        );
    }
}

#[test]
fn atom_draws_much_less_power() {
    for app in AppId::ALL {
        let x = simulate(&base(app, presets::xeon_e5_2420()));
        let a = simulate(&base(app, presets::atom_c2758()));
        assert!(
            map_watts(&x) > 3.0 * map_watts(&a),
            "{app}: {} vs {}",
            map_watts(&x),
            map_watts(&a)
        );
    }
}

#[test]
fn frequency_helps_performance() {
    for m in [presets::xeon_e5_2420(), presets::atom_c2758()] {
        let lo = simulate(&base(AppId::WordCount, m.clone()).frequency(Frequency::GHZ_1_2));
        let hi = simulate(&base(AppId::WordCount, m).frequency(Frequency::GHZ_1_8));
        assert!(hi.breakdown.total() < lo.breakdown.total());
    }
}

#[test]
fn block_size_has_an_interior_optimum() {
    // §3.1.1: 32 MB pays task overhead, 512 MB pays spills and lost
    // parallelism; the optimum sits in between.
    let t = |b: BlockSize| {
        simulate(&base(AppId::WordCount, presets::xeon_e5_2420()).block_size(b))
            .breakdown
            .total()
    };
    let t32 = t(BlockSize::MB_32);
    let t128 = t(BlockSize::MB_128);
    let t512 = t(BlockSize::MB_512);
    assert!(
        t32 > t128,
        "tiny blocks pay task overhead ({t32} vs {t128})"
    );
    assert!(
        t512 > t128,
        "huge blocks pay spills/waves ({t512} vs {t128})"
    );
}

#[test]
fn execution_time_scales_with_data() {
    // §3.3: time grows with data, and grows faster on the little core.
    let grow = |m: MachineModel| {
        let one = simulate(&base(AppId::Grep, m.clone()).data_per_node(1 << 30));
        let twenty = simulate(&base(AppId::Grep, m).data_per_node(20 << 30));
        twenty.breakdown.total() / one.breakdown.total()
    };
    let gx = grow(presets::xeon_e5_2420());
    let ga = grow(presets::atom_c2758());
    assert!(gx > 2.5, "20x data must be much slower on Xeon, got {gx}");
    assert!(ga > gx, "Atom must degrade faster ({ga} vs {gx})");
}

#[test]
fn memory_gb_changes_no_number() {
    // Table 1's DRAM size is rendered, not priced: at 20 GB per node, a
    // node with 1 GB or 64 GB runs exactly as the preset's 8 GB does.
    for app in AppId::ALL {
        for m in presets::both() {
            let run = |memory_gb| {
                let machine = MachineModel {
                    memory_gb,
                    ..m.clone()
                };
                simulate(&base(app, machine).data_per_node(20 << 30))
            };
            let preset = run(m.memory_gb);
            for memory_gb in [1.0, 64.0] {
                assert_eq!(
                    run(memory_gb),
                    preset,
                    "{app} on {} with {memory_gb} GB",
                    m.name
                );
            }
        }
    }
}

#[test]
fn accelerator_shrinks_map_only() {
    let plain = simulate(&base(AppId::WordCount, presets::atom_c2758()));
    let acc = simulate(
        &base(AppId::WordCount, presets::atom_c2758()).accelerator(AccelConfig::fpga(50.0)),
    );
    assert!(acc.breakdown.map_s < plain.breakdown.map_s);
    assert!((acc.breakdown.reduce_s - plain.breakdown.reduce_s).abs() < 1e-9);
}

#[test]
fn more_mappers_speed_up_compute_bound_apps() {
    let m2 = simulate(&base(AppId::NaiveBayes, presets::atom_c2758()).mappers(2));
    let m8 = simulate(&base(AppId::NaiveBayes, presets::atom_c2758()).mappers(8));
    assert!(m8.breakdown.total() < m2.breakdown.total());
    // But power grows with cores.
    assert!(map_watts(&m8) > map_watts(&m2));
}

#[test]
fn sort_has_no_reduce_time() {
    let st = simulate(&base(AppId::Sort, presets::xeon_e5_2420()));
    assert_eq!(st.breakdown.reduce_s, 0.0);
    assert!(st.breakdown.map_s > 0.0);
}

#[test]
fn measurement_is_deterministic() {
    // A memo each: on one, the second run would be the first one's entry.
    let run = || {
        let cfg = base(AppId::TeraSort, presets::atom_c2758());
        cfg.run(&SimCache::new(), Reading::Auto)
    };
    assert_eq!(run(), run());
}

#[test]
fn slot_stats_populated_by_engine() {
    let m = simulate(
        &base(AppId::WordCount, presets::xeon_e5_2420()).block_size(hhsim_hdfs::BlockSize::MB_32),
    );
    assert_eq!(m.map_slots.capacity, 36, "3 nodes x 12 cores");
    assert!(m.map_slots.peak_in_use > 0);
    assert!(
        m.map_slots.tasks_queued > 0,
        "32 MB blocks make far more tasks than slots"
    );
    assert!(m.map_slots.total_wait_s > 0.0);
}

#[test]
fn mixed_cluster_runs_and_traces() {
    let cfg = base(AppId::WordCount, presets::xeon_e5_2420()).mix(NodeMix {
        big: 1,
        little: 2,
        placement: PlacementKind::PaperClass(MetricKind::Edp),
    });
    let (m, tl) = traced(&cfg);
    assert_eq!(tl.nodes.len(), 3);
    assert!(!tl.is_empty());
    assert!(m.breakdown.total() > 0.0);
    assert!(m.energy_j > 0.0);
    // simulate() routes node_mix configs through the same path.
    assert_eq!(simulate(&cfg), m);
}

#[test]
fn mixed_cluster_is_deterministic() {
    let cfg = base(AppId::Sort, presets::xeon_e5_2420()).mix(NodeMix {
        big: 2,
        little: 1,
        placement: PlacementKind::PaperClass(MetricKind::Edp),
    });
    let (m1, t1) = traced_on(&cfg, &SimCache::new());
    let (m2, t2) = traced_on(&cfg, &SimCache::new());
    assert_eq!(m1, m2);
    assert_eq!(t1, t2);
    assert_eq!(
        streamed(|w| t1.write_chrome_trace(w)),
        streamed(|w| t2.write_chrome_trace(w))
    );
}

#[test]
fn none_faults_config_is_bitwise_identical_to_no_faults() {
    // A present-but-inactive FaultConfig must not perturb a single bit
    // under either meter.
    let plain = base(AppId::WordCount, presets::xeon_e5_2420());
    let with_none = plain.clone().faults(FaultConfig::none());
    assert_eq!(simulate(&plain), simulate(&with_none));

    let mixed = base(AppId::Sort, presets::xeon_e5_2420()).mix(NodeMix {
        big: 1,
        little: 2,
        placement: PlacementKind::PaperClass(MetricKind::Edp),
    });
    let mixed_none = mixed.clone().faults(FaultConfig::none());
    let (m1, t1) = traced(&mixed);
    let (m2, t2) = traced(&mixed_none);
    assert_eq!(m1, m2);
    assert_eq!(t1, t2);
    assert_eq!(
        streamed(|w| t1.write_chrome_trace(w)),
        streamed(|w| t2.write_chrome_trace(w))
    );
}

#[test]
fn flat_topology_config_is_bitwise_identical_to_no_topology() {
    // A present-but-inactive Topology must not perturb a single bit
    // under either meter.
    let plain = base(AppId::WordCount, presets::xeon_e5_2420());
    let with_flat = plain.clone().topology(Topology::flat());
    assert_eq!(simulate(&plain), simulate(&with_flat));

    let mixed = base(AppId::Sort, presets::xeon_e5_2420()).mix(NodeMix {
        big: 1,
        little: 2,
        placement: PlacementKind::PaperClass(MetricKind::Edp),
    });
    let mixed_flat = mixed.clone().topology(Topology::flat());
    let (m1, t1) = traced(&mixed);
    let (m2, t2) = traced(&mixed_flat);
    assert_eq!(m1, m2);
    assert_eq!(t1, t2);
    assert_eq!(
        streamed(|w| t1.write_chrome_trace(w)),
        streamed(|w| t2.write_chrome_trace(w))
    );
    assert_eq!(
        streamed(|w| t1.write_utilization_csv(w)),
        streamed(|w| t2.write_utilization_csv(w))
    );
}

#[test]
fn active_topology_routes_through_the_cluster_engine() {
    let cfg = base(AppId::TeraSort, presets::xeon_e5_2420())
        .data_per_node(4 << 30)
        .topology(Topology::racked(3, 8.0));
    let (m, tl) = traced(&cfg);
    // simulate() routes topology-active configs through the engine.
    assert_eq!(simulate(&cfg), m);
    // The HDFS-default layout keeps most reads node-local (first
    // replica is writer-local) but spills the rest across tiers.
    let [nl, rl, of] = m.map_locality_tiers;
    assert!(
        nl > 0,
        "writer-local replicas exist: {:?}",
        m.map_locality_tiers
    );
    assert!(
        nl + rl + of > 0 && (rl + of) < nl.max(1) * 10,
        "tier mix is sane: {:?}",
        m.map_locality_tiers
    );
    // The trace carries the locality-tier vocabulary end to end.
    let json = streamed(|w| tl.write_chrome_trace(w));
    assert!(m.breakdown.total() > 0.0);
    let _ = json;
}

#[test]
fn oversubscription_slows_reduce_and_shifts_edp() {
    // fig21's monotonicity claim at a single point: same cluster,
    // same block size, fatter oversubscription ⇒ slower reduce
    // phase and no-better EDP.
    let at = |over: f64| {
        let cfg = base(AppId::TeraSort, presets::xeon_e5_2420())
            .data_per_node(4 << 30)
            .topology(Topology::racked(3, over));
        simulate(&cfg)
    };
    let fast = at(1.0);
    let slow = at(16.0);
    assert!(
        slow.breakdown.reduce_s >= fast.breakdown.reduce_s,
        "reduce must not speed up under oversubscription: {} < {}",
        slow.breakdown.reduce_s,
        fast.breakdown.reduce_s
    );
    assert!(
        slow.breakdown.reduce_s > fast.breakdown.reduce_s * 1.01,
        "contended shuffle must actually bite: {} vs {}",
        slow.breakdown.reduce_s,
        fast.breakdown.reduce_s
    );
    assert!(
        slow.cost.edp() > fast.cost.edp(),
        "EDP reflects the slowdown"
    );
}

#[test]
fn faulty_mixed_run_is_deterministic_and_counts_faults() {
    let faults = FaultConfig::none()
        .seed(42)
        .failure_rates(0.2, 0.2)
        .stragglers(0.3, 2.5);
    let cfg = base(AppId::WordCount, presets::xeon_e5_2420())
        .mix(NodeMix {
            big: 1,
            little: 2,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        })
        .faults(faults);
    let (m1, t1) = traced_on(&cfg, &SimCache::new());
    let (m2, t2) = traced_on(&cfg, &SimCache::new());
    assert_eq!(m1, m2);
    assert_eq!(t1, t2);
    assert!(
        m1.faults.failed_attempts > 0,
        "20% failure rate must fail some attempts"
    );
    assert!(m1.faults.wasted_slot_s > 0.0);

    let clean = traced(&cfg.clone().faults(FaultConfig::none())).0;
    assert!(
        m1.breakdown.total() > clean.breakdown.total(),
        "re-execution and stragglers must cost wall-clock time"
    );
    assert_eq!(clean.faults, FaultStats::default());
}

#[test]
fn cluster_wide_crash_surfaces_a_clean_error() {
    // A sub-millisecond MTTF kills every node before the first task can
    // finish; the fallible API reports it instead of hanging or panicking.
    let cfg = base(AppId::WordCount, presets::xeon_e5_2420())
        .faults(FaultConfig::none().seed(7).node_mttf(1e-3));
    match cfg.run(SimCache::global(), Reading::Traced) {
        Err(SimError::Unrecoverable(PhaseError::NoUsableSlots { pending })) => {
            assert!(pending > 0)
        }
        other => panic!("expected NoUsableSlots, got {other:?}"),
    }
}

/// The fig22 rack shape: 4 Xeon + 8 Atom on 4 racks.
fn racked(faults: Option<FaultConfig>) -> SimConfig {
    use crate::figures::{FIG22_OVERSUB, MICRO_DATA, TOPO_RACKS};
    let cfg = base(AppId::TeraSort, presets::xeon_e5_2420())
        .data_per_node(MICRO_DATA)
        .block_size(BlockSize::MB_256)
        .topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB))
        .mix(NodeMix {
            big: 4,
            little: 8,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        });
    match faults {
        Some(f) => cfg.faults(f),
        None => cfg,
    }
}

#[test]
fn measurement_does_not_depend_on_the_timeline_sink() {
    let app = AppId::TeraSort;
    let mix = NodeMix {
        big: 1,
        little: 2,
        placement: PlacementKind::PaperClass(MetricKind::Edp),
    };
    let shapes = [
        (
            "homogeneous on the engine",
            base(app, presets::atom_c2758()),
        ),
        ("mix", base(app, presets::xeon_e5_2420()).mix(mix)),
        (
            "faults only",
            base(app, presets::atom_c2758()).faults(crate::figures::fig19_faults(0.08, true)),
        ),
        ("racked only", racked(None)),
        (
            "racked + faults + domains",
            racked(Some(crate::figures::fig22_faults(4.0, true))),
        ),
        (
            "a seed that fails",
            base(app, presets::xeon_e5_2420()).faults(FaultConfig::none().seed(7).node_mttf(1e-3)),
        ),
    ];
    let pricing = SimCache::new();
    // One scratch through every shape in turn: node counts, racks and
    // faults change under buffers another shape filled, the prep's too.
    let reused = &mut RunScratch::default();
    for (shape, cfg) in shapes {
        let valid = cfg.validate(Reading::PerNode).expect("a valid config");
        let prep = ClusterPrep::new(valid, &pricing, reused);
        let faults = cfg.active_faults();
        let blind = prep
            .run(faults.as_ref(), &mut RunScratch::default(), None)
            .map_err(SimError::from);
        // Debug prints every float with its sign: bit for bit, -0.0 too.
        let again = prep
            .run(faults.as_ref(), reused, None)
            .map_err(SimError::from);
        assert_eq!(format!("{again:?}"), format!("{blind:?}"), "{shape}");
        let mut sink = ClusterTimeline::new(&prep.cluster);
        let seen = prep
            .run(faults.as_ref(), &mut RunScratch::default(), Some(&mut sink))
            .map_err(SimError::from);
        assert_eq!(blind, seen, "{shape}");
        assert_eq!(blind, per_node(&cfg, &pricing), "{shape}");
        match cfg.run(&pricing, Reading::Traced) {
            Ok((m, timeline)) => {
                let timeline = timeline.expect("a traced run fills a timeline");
                assert_eq!(Ok(m), seen, "{shape}");
                assert_eq!(*timeline, sink, "{shape}");
                assert!(!timeline.is_empty(), "{shape}");
            }
            Err(e) => {
                assert_eq!(shape, "a seed that fails");
                assert_eq!(Err(e), seen, "{shape}");
            }
        }
        prep.recycle(reused);
    }
}

/// Points of every shape through one `RunScratch`, as a harness worker
/// runs them — clean on the phase-average meter, faulty, traced on the
/// rack cluster, per node on a mix, a seed that fails, and 3, 5 and 12
/// nodes in turn — each equal to the same point on a scratch of its own:
/// the same `Measurement` (or error) and the same timeline bytes.
#[test]
fn one_run_scratch_through_mixed_points_equals_fresh_scratches() {
    let app = AppId::TeraSort;
    let mut five = base(app, presets::xeon_e5_2420());
    five.nodes = 5;
    let mix = NodeMix {
        big: 1,
        little: 2,
        placement: PlacementKind::PaperClass(MetricKind::Edp),
    };
    let points = [
        (base(app, presets::atom_c2758()), Reading::Auto),
        (
            base(app, presets::atom_c2758()).faults(crate::figures::fig19_faults(0.08, true)),
            Reading::Auto,
        ),
        (
            racked(Some(crate::figures::fig22_faults(4.0, true))),
            Reading::Traced,
        ),
        (
            base(app, presets::xeon_e5_2420()).mix(mix),
            Reading::PerNode,
        ),
        (
            base(app, presets::xeon_e5_2420()).faults(FaultConfig::none().seed(7).node_mttf(1e-3)),
            Reading::Auto,
        ),
        (five.clone(), Reading::Auto),
        (five, Reading::Traced),
        (racked(None), Reading::PerNode),
        (base(app, presets::atom_c2758()), Reading::Traced),
    ];
    // Two memos, so that each side runs every point rather than reading
    // the other's.
    let (reusing, fresh) = (SimCache::new(), SimCache::new());
    let scratch = &mut RunScratch::default();
    let mut failed = 0;
    let bytes = |t: &Option<Arc<ClusterTimeline>>| {
        t.as_ref().map(|t| {
            (
                streamed(|w| t.write_chrome_trace(w)),
                streamed(|w| t.write_utilization_csv(w)),
            )
        })
    };
    for (i, (cfg, reading)) in points.iter().enumerate() {
        let reused = cfg.run_in(&reusing, *reading, scratch);
        let alone = cfg.run(&fresh, *reading);
        match (&reused, &alone) {
            (Ok((m, t)), Ok((m_alone, t_alone))) => {
                assert_eq!(m, m_alone, "point {i}");
                assert_eq!(t.is_some(), *reading == Reading::Traced, "point {i}");
                assert_eq!(bytes(t), bytes(t_alone), "point {i}");
            }
            _ => {
                assert_eq!(reused, alone, "point {i}");
                failed += 1;
            }
        }
    }
    assert_eq!(failed, 1, "only the node-killing seed fails");
}

#[test]
fn prep_is_reusable_across_seeds() {
    let fc = crate::figures::fig22_faults(4.0, true);
    let cfg = racked(Some(fc));
    let valid = cfg.validate(Reading::PerNode).expect("a valid config");
    let scratch = &mut RunScratch::default();
    let prep = ClusterPrep::new(valid, &SimCache::new(), scratch);
    let mut run = |seed: u64| prep.run(Some(&fc.seed(seed)), scratch, None);
    // Seed 5 loses a rack mid-shuffle and recovers; seed 3 loses every
    // replica of a block and dies in the reduce phase.
    let first = run(5);
    let recovered = first.as_ref().expect("seed 5 recovers").faults;
    assert!(recovered.fetch_failures > 0 && recovered.reexecuted_maps > 0);
    assert!(matches!(run(3), Err(PhaseError::DataLost { .. })));
    // Seed 5 again through the same prep and the buffers the failed seed
    // left behind.
    assert_eq!(run(5), first);
}

#[test]
fn failed_run_is_held_as_its_error() {
    let fc = crate::figures::fig22_faults(4.0, true);
    let cache = SimCache::new();
    // A run that dies in its first phase, and seed 3 of the fig22 rack,
    // which loses every replica of a block in the reduce phase: each is
    // computed once, and asked again returns the same error from the
    // table, a hit and no miss.
    let doomed = base(AppId::TeraSort, presets::xeon_e5_2420())
        .faults(FaultConfig::none().seed(7).node_mttf(1e-3));
    let dying = racked(Some(fc.seed(3)));
    for (i, cfg) in [doomed, dying].iter().enumerate() {
        let first = per_node(cfg, &cache);
        assert!(
            matches!(first, Err(SimError::Unrecoverable(_))),
            "{first:?}"
        );
        let asked = cache.stats();
        assert_eq!(asked.phase_entries, i + 1);
        assert_eq!(per_node(cfg, &cache), first);
        let again = cache.stats();
        assert_eq!(
            (again.hits, again.misses, again.phase_entries),
            (asked.hits + 1, asked.misses, i + 1)
        );
        assert_eq!(per_node(cfg, &SimCache::new()), first, "held == computed");
    }
    assert!(matches!(
        per_node(&racked(Some(fc.seed(3))), &cache),
        Err(SimError::Unrecoverable(PhaseError::DataLost { .. }))
    ));
    // A config that breaks the contract is not a run: it never enters
    // the table.
    let broken = base(AppId::TeraSort, presets::xeon_e5_2420()).data_per_node(0);
    let before = cache.stats();
    assert_eq!(
        per_node(&broken, &cache),
        Err(SimError::Config(ConfigError::NoData))
    );
    assert_eq!(cache.stats(), before);
}

#[test]
fn homogeneous_trace_covers_cluster() {
    let cfg = base(AppId::Grep, presets::atom_c2758());
    let (_, tl) = traced(&cfg);
    assert_eq!(tl.nodes.len(), 3);
    // Grep chains two jobs: phase labels carry the job index.
    let json = streamed(|w| tl.write_chrome_trace(w));
    assert!(json.contains("\"cat\":\"map0\""));
    assert!(json.contains("\"cat\":\"map1\""));
}

#[test]
fn both_meters_read_the_same_run() {
    let mut energy_differs = false;
    for app in AppId::ALL {
        for m in presets::both() {
            for f in [Frequency::GHZ_1_2, Frequency::GHZ_1_8] {
                for block in [BlockSize::MB_32, BlockSize::MB_512] {
                    for mappers in [None, Some(2), Some(8)] {
                        let mut cfg = base(app, m.clone()).frequency(f).block_size(block);
                        cfg.mappers_per_node = mappers;
                        let point = format!("{app}/{}/{f:?}/{block:?}/{mappers:?}", m.name);
                        let averaged = simulate(&cfg);
                        let (per_node, _) = traced(&cfg);
                        energy_differs |= averaged.energy_j != per_node.energy_j;
                        assert_eq!(unmetered(averaged), unmetered(per_node), "{point}");
                    }
                }
            }
        }
    }
    // The meters differ on purpose; if they stop differing, one of
    // them is dead code.
    assert!(energy_differs);
}

/// `m` with the five fields a meter decides zeroed: what is left comes
/// from the engine, and both meters must read it the same.
fn unmetered(m: Measurement) -> Measurement {
    let none = CostMetrics::new(0.0, 0.0, 0.0);
    Measurement {
        energy_j: 0.0,
        exact_energy_j: 0.0,
        cost: none,
        map_cost: none,
        reduce_cost: none,
        ..m
    }
}

#[test]
fn zero_sided_mix_is_the_homogeneous_cluster() {
    for app in AppId::ALL {
        for (m, big, little) in [
            (presets::xeon_e5_2420(), 3, 0),
            (presets::atom_c2758(), 0, 3),
        ] {
            let plain = base(app, m);
            let mix = plain.clone().mix(NodeMix {
                big,
                little,
                placement: PlacementKind::FifoAny,
            });
            let (homogeneous, plain_timeline) = traced(&plain);
            let (mixed, mix_timeline) = traced(&mix);
            assert_eq!(mixed, homogeneous, "{app} {big}+{little}");
            assert_eq!(mix_timeline, plain_timeline, "{app} {big}+{little}");
        }
    }
}
