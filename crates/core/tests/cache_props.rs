//! Property tests of the simulation cache: memoization must be purely an
//! optimization. A [`SimCache`]-backed `simulate` has to agree exactly
//! with an uncached evaluation for every configuration, and concurrent
//! access from many threads must never let two callers observe different
//! values.

use hhsim_core::arch::{presets, Frequency, MachineModel};
use hhsim_core::hdfs::BlockSize;
use hhsim_core::workloads::AppId;
use hhsim_core::{Measurement, Reading, SimCache, SimConfig};
use hhsim_testkit::{check, Gen};

/// `cfg` through the door on `cache`, read by its own meter.
fn simulate_on(cfg: &SimConfig, cache: &SimCache) -> Measurement {
    cfg.run(cache, Reading::Auto).expect("a valid point").0
}

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

fn arb_cfg(g: &mut Gen) -> SimConfig {
    SimConfig::new(*g.pick(&APPS), arb_machine(g))
        .frequency(*g.pick(&FREQS))
        .block_size(*g.pick(&BLOCKS))
        .data_per_node(g.u64(1..4) << 30)
        .mappers(g.usize(2..8))
}

/// A shared, reused cache yields bit-identical measurements to a fresh
/// (effectively uncached) evaluation, for randomized configurations.
#[test]
fn cached_simulate_equals_uncached() {
    let shared = SimCache::new();
    check(12, |g| {
        let cfg = arb_cfg(g);
        let uncached = simulate_on(&cfg, &SimCache::new());
        let cached = simulate_on(&cfg, &shared);
        let cached_again = simulate_on(&cfg, &shared);
        assert_eq!(uncached, cached, "cache changed the result for {cfg:?}");
        assert_eq!(cached, cached_again, "warm re-read diverged for {cfg:?}");
    });
    // The shared cache actually worked: later cases hit entries created
    // by earlier ones.
    assert!(shared.stats().hits > 0, "shared cache never hit");
}

/// Hammering one cache from many threads — same and different keys mixed
/// — never diverges from the single-threaded reference.
#[test]
fn concurrent_cache_access_is_consistent() {
    check(4, |g| {
        let cfgs: Vec<SimConfig> = (0..3).map(|_| arb_cfg(g)).collect();
        let cache = SimCache::new();
        // 2 threads per config, all racing on the same fresh cache.
        let results: Vec<(usize, Measurement)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|i| {
                    let cfgs = &cfgs;
                    let cache = &cache;
                    s.spawn(move || (i % 3, simulate_on(&cfgs[i % 3], cache)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, meas) in results {
            let reference = simulate_on(&cfgs[i], &SimCache::new());
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
