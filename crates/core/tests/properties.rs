//! Property-based tests over the experiment space: model invariants must
//! hold for *every* configuration, not just the paper's grid. Driven by
//! the in-repo deterministic testkit (offline replacement for proptest).

use hhsim_core::arch::{presets, Frequency};
use hhsim_core::hdfs::BlockSize;
use hhsim_core::workloads::AppId;
use hhsim_core::{simulate, Measurement, SimConfig};
use hhsim_testkit::{check, Gen};

const APPS: [AppId; 4] = [AppId::WordCount, AppId::Sort, AppId::Grep, AppId::TeraSort];
const FREQS: [Frequency; 4] = [
    Frequency::GHZ_1_2,
    Frequency::GHZ_1_4,
    Frequency::GHZ_1_6,
    Frequency::GHZ_1_8,
];
const BLOCKS: [BlockSize; 5] = [
    BlockSize::MB_32,
    BlockSize::MB_64,
    BlockSize::MB_128,
    BlockSize::MB_256,
    BlockSize::MB_512,
];

fn arb_app(g: &mut Gen) -> AppId {
    *g.pick(&APPS)
}

fn arb_freq(g: &mut Gen) -> Frequency {
    *g.pick(&FREQS)
}

fn arb_block(g: &mut Gen) -> BlockSize {
    *g.pick(&BLOCKS)
}

/// Whatever the configuration, the big core is faster and the
/// measurement is internally consistent.
#[test]
fn big_core_always_faster() {
    check(12, |g| {
        let app = arb_app(g);
        let f = arb_freq(g);
        let b = arb_block(g);
        let data_gb = g.u64(1..4);
        let mappers = g.usize(2..8);
        let mk = |m| {
            simulate(
                &SimConfig::new(app, m)
                    .frequency(f)
                    .block_size(b)
                    .data_per_node(data_gb << 30)
                    .mappers(mappers),
            )
        };
        let x = mk(presets::xeon_e5_2420());
        let a = mk(presets::atom_c2758());
        assert!(x.breakdown.total() > 0.0);
        assert!(x.breakdown.total() < a.breakdown.total());
        assert!(x.energy_j > 0.0 && a.energy_j > 0.0);
        // The big node never draws less dynamic power at equal settings.
        let map_watts = |m: &Measurement| m.map_cost.energy_j / m.breakdown.map_s;
        assert!(map_watts(&x) > map_watts(&a));
    });
}

/// More input data never makes a job faster, on either machine.
#[test]
fn time_monotone_in_data() {
    check(12, |g| {
        let app = arb_app(g);
        let b = arb_block(g);
        for m in presets::both() {
            let small = simulate(
                &SimConfig::new(app, m.clone())
                    .block_size(b)
                    .data_per_node(1 << 30),
            );
            let large = simulate(&SimConfig::new(app, m).block_size(b).data_per_node(3 << 30));
            assert!(large.breakdown.total() >= small.breakdown.total() * 0.999);
        }
    });
}

/// Raising only the frequency never slows the job down.
#[test]
fn time_monotone_in_frequency() {
    check(12, |g| {
        let app = arb_app(g);
        let b = arb_block(g);
        for m in presets::both() {
            let lo = simulate(
                &SimConfig::new(app, m.clone())
                    .block_size(b)
                    .frequency(Frequency::GHZ_1_2),
            );
            let hi = simulate(
                &SimConfig::new(app, m)
                    .block_size(b)
                    .frequency(Frequency::GHZ_1_8),
            );
            assert!(hi.breakdown.total() <= lo.breakdown.total() * 1.001);
        }
    });
}
