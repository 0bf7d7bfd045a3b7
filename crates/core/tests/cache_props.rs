//! Property tests of the simulation cache: memoization must be purely an
//! optimization. A run through a [`SimCache`] that already holds it has
//! to agree exactly with a run on a fresh memo for every configuration
//! and reading, timeline and unrecoverable runs included; any one field
//! of a config is part of the run's key; and concurrent access from many
//! threads must never let two callers observe different values.

use hhsim_core::arch::{presets, Frequency, MachineModel};
use hhsim_core::energy::MetricKind;
use hhsim_core::faults::FaultConfig;
use hhsim_core::figures::{fig19_faults, fig22_faults, FIG22_OVERSUB, MICRO_DATA, TOPO_RACKS};
use hhsim_core::hdfs::{BlockSize, Topology};
use hhsim_core::workloads::AppId;
use hhsim_core::{NodeMix, PlacementKind, Reading, SimCache, SimConfig};
use hhsim_testkit::{check, Gen};

/// What `cfg.run` returns.
type Run =
    Result<(hhsim_core::Measurement, Option<hhsim_core::ClusterTimeline>), hhsim_core::SimError>;

const APPS: [AppId; 5] = [
    AppId::WordCount,
    AppId::Sort,
    AppId::Grep,
    AppId::TeraSort,
    AppId::NaiveBayes,
];
const FREQS: [Frequency; 4] = [
    Frequency::GHZ_1_2,
    Frequency::GHZ_1_4,
    Frequency::GHZ_1_6,
    Frequency::GHZ_1_8,
];
const BLOCKS: [BlockSize; 4] = [
    BlockSize::MB_32,
    BlockSize::MB_64,
    BlockSize::MB_128,
    BlockSize::MB_256,
];

fn arb_machine(g: &mut Gen) -> MachineModel {
    if g.bool(0.5) {
        presets::xeon_e5_2420()
    } else {
        presets::atom_c2758()
    }
}

const PLACEMENTS: [PlacementKind; 4] = [
    PlacementKind::FifoAny,
    PlacementKind::PreferBig,
    PlacementKind::PreferLittle,
    PlacementKind::PaperClass(MetricKind::Edp),
];
const READINGS: [Reading; 3] = [Reading::Auto, Reading::PerNode, Reading::Traced];

/// No mix, or a mix with at least one node (a zero side included).
fn arb_mix(g: &mut Gen) -> Option<NodeMix> {
    if g.bool(0.6) {
        return None;
    }
    let big = g.usize(0..3);
    Some(NodeMix {
        big,
        little: g.usize(usize::from(big == 0)..3),
        placement: *g.pick(&PLACEMENTS),
    })
}

/// No fault config, an inactive seeded one, or an active seeded one.
fn arb_faults(g: &mut Gen) -> Option<FaultConfig> {
    let seed = g.u64(0..1_000);
    match g.usize(0..3) {
        0 => None,
        1 => Some(FaultConfig::none().seed(seed)),
        _ => Some(fig19_faults(*g.pick(&[0.0, 0.06, 0.12]), g.bool(0.5)).seed(seed)),
    }
}

/// No topology, the inactive flat one, or a racked fabric.
fn arb_topology(g: &mut Gen) -> Option<Topology> {
    match g.usize(0..3) {
        0 => None,
        1 => Some(Topology::flat()),
        _ => Some(Topology::racked(g.usize(1..4), *g.pick(&[1.0, 2.0, 4.0]))),
    }
}

fn arb_cfg(g: &mut Gen) -> SimConfig {
    let mut cfg = SimConfig::new(*g.pick(&APPS), arb_machine(g))
        .frequency(*g.pick(&FREQS))
        .block_size(*g.pick(&BLOCKS))
        .data_per_node(g.u64(1..4) << 30)
        .mappers(g.usize(2..8));
    cfg.node_mix = arb_mix(g);
    cfg.faults = arb_faults(g);
    cfg.topology = arb_topology(g);
    cfg
}

/// A shared, reused cache yields bit-identical runs to a fresh
/// (effectively uncached) evaluation, for randomized configurations and
/// readings: measurement, timeline and error alike.
#[test]
fn cached_simulate_equals_uncached() {
    let shared = SimCache::new();
    check(12, |g| {
        let cfg = arb_cfg(g);
        let reading = *g.pick(&READINGS);
        let uncached = cfg.run(&SimCache::new(), reading);
        let cached = cfg.run(&shared, reading);
        let before = shared.stats();
        let cached_again = cfg.run(&shared, reading);
        let after = shared.stats();
        assert_eq!(uncached, cached, "cache changed the run for {cfg:?}");
        assert_eq!(cached, cached_again, "warm re-read diverged for {cfg:?}");
        assert_eq!(
            (after.hits, after.misses, after.phase_entries),
            (before.hits + 1, before.misses, before.phase_entries),
            "a held point is one hit"
        );
        assert_eq!(
            cached.as_ref().map(|(_, t)| t.is_some()),
            cached.as_ref().map(|_| reading == Reading::Traced),
            "a timeline exactly when traced"
        );
    });
    // The shared cache actually worked: later cases hit entries created
    // by earlier ones.
    assert!(shared.stats().hits > 0, "shared cache never hit");
}

/// The fig22 rack: TeraSort on 12 Xeon nodes (or a 4 + 8 mix), 4 racks
/// at 4x oversubscription, failure domains active.
fn rack(mix: bool) -> SimConfig {
    let mut cfg = SimConfig::new(AppId::TeraSort, presets::xeon_e5_2420())
        .data_per_node(MICRO_DATA)
        .block_size(BlockSize::MB_256)
        .topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB))
        .faults(fig22_faults(4.0, true).seed(5));
    cfg.nodes = 12;
    if mix {
        cfg = cfg.mix(NodeMix {
            big: 4,
            little: 8,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        });
    }
    cfg
}

/// Editing any one field the run reads is another entry, equal to what a
/// fresh memo runs: the point table's key is the whole config, not a hand
/// list of the fields someone thought of.
#[test]
fn one_field_edit_is_another_entry() {
    let base = rack(false);
    let faults = base.faults.expect("faulty");
    let edit = |f: &dyn Fn(&mut SimConfig)| {
        let mut cfg = base.clone();
        f(&mut cfg);
        cfg
    };
    let edits: [(&str, SimConfig); 8] = [
        ("fault seed", base.clone().faults(faults.seed(6))),
        (
            "speculation flipped",
            edit(&|c| {
                let mut fc = faults;
                fc.recovery.speculation = !fc.recovery.speculation;
                c.faults = Some(fc);
            }),
        ),
        (
            "switch MTTF",
            edit(&|c| {
                let mut fc = faults;
                fc.domains.switch_mttf_s = fc.domains.switch_mttf_s.map(|m| m * 2.0);
                c.faults = Some(fc);
            }),
        ),
        (
            "oversubscription",
            base.clone()
                .topology(Topology::racked(TOPO_RACKS, 2.0 * FIG22_OVERSUB)),
        ),
        ("mappers", base.clone().mappers(4)),
        (
            "L2 latency",
            edit(&|c| c.machine.cache_levels[1].latency_cycles += 1.0),
        ),
        ("a mix", rack(true)),
        (
            "placement",
            rack(true).mix(NodeMix {
                big: 4,
                little: 8,
                placement: PlacementKind::PreferLittle,
            }),
        ),
    ];
    let shared = SimCache::new();
    let first = base.run(&shared, Reading::Auto);
    assert_eq!(first, base.run(&SimCache::new(), Reading::Auto));
    let mut moved = 0;
    for (i, (what, cfg)) in edits.iter().enumerate() {
        assert_ne!(*cfg, base, "{what} edits the config");
        let got = cfg.run(&shared, Reading::Auto);
        assert_eq!(shared.stats().phase_entries, i + 2, "{what} is a new entry");
        assert_eq!(got, cfg.run(&SimCache::new(), Reading::Auto), "{what}");
        moved += usize::from(got != first);
    }
    assert!(moved >= 6, "only {moved} of the edits moved the run");
    assert_eq!(
        base.run(&shared, Reading::Auto),
        first,
        "the base is still held"
    );
}

/// Hammering one cache from many threads — same and different keys mixed
/// — never diverges from the single-threaded reference.
#[test]
fn concurrent_cache_access_is_consistent() {
    check(4, |g| {
        let cfgs: Vec<SimConfig> = (0..3).map(|_| arb_cfg(g)).collect();
        let cache = SimCache::new();
        // 2 threads per config, all racing on the same fresh cache.
        let results: Vec<(usize, Run)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|i| {
                    let cfgs = &cfgs;
                    let cache = &cache;
                    s.spawn(move || (i % 3, cfgs[i % 3].run(cache, Reading::Auto)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, meas) in results {
            let reference = cfgs[i].run(&SimCache::new(), Reading::Auto);
            assert_eq!(
                meas, reference,
                "concurrent result diverged for {:?}",
                cfgs[i]
            );
        }
    });
}

/// The stall-split memo never re-runs the trace simulation for a key it
/// has seen, even under concurrency (each key's miss count is exactly 1).
#[test]
fn stall_splits_compute_once_per_key() {
    let cache = SimCache::new();
    let machines = [presets::xeon_e5_2420(), presets::atom_c2758()];
    let profiles: Vec<_> = APPS.iter().map(|a| a.map_profile()).collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for m in &machines {
                    for p in &profiles {
                        let _ = cache.stall_split(m, p);
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    let distinct = (machines.len() * profiles.len()) as u64;
    // Profiles may repeat across apps; misses can't exceed distinct keys.
    assert_eq!(stats.stall_entries as u64, stats.misses);
    assert!(stats.misses <= distinct);
    assert_eq!(stats.lookups(), 4 * distinct);
}
