//! Criterion benchmarks of the substrates: the functional MapReduce
//! engine, the trace-driven cache simulator and the DES kernel.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use hhsim_core::arch::{presets, ComputeProfile, TraceGenerator};
use hhsim_core::des::{SimTime, Simulation};
use hhsim_core::mapreduce::JobConfig;
use hhsim_core::workloads::{sort, terasort, wordcount, AppId, FunctionalConfig};

fn bench_mapreduce_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/functional");
    g.sample_size(10);
    for app in [
        AppId::WordCount,
        AppId::Sort,
        AppId::TeraSort,
        AppId::FpGrowth,
    ] {
        let cfg = FunctionalConfig {
            input_bytes: 256 << 10,
            block_bytes: 32 << 10,
            sort_buffer_bytes: 24 << 10,
            num_reducers: 4,
            seed: 7,
        };
        g.throughput(Throughput::Bytes(cfg.input_bytes));
        g.bench_function(app.full_name(), |b| {
            b.iter(|| black_box(app.run_functional(&cfg)))
        });
    }
    g.finish();
}

/// Merge-heavy configurations: tiny sort buffers force many spills (so the
/// map side merges hundreds of sorted runs per partition) and tiny blocks
/// force many map tasks (so each reducer merges one segment per mapper).
/// These are the configurations the heap k-way merge is built for.
///
/// Input is generated *outside* the timed loop — unlike the functional
/// group above, these benches time the engine alone, not the data
/// generator.
fn bench_merge_heavy(c: &mut Criterion) {
    const INPUT_BYTES: u64 = 256 << 10;
    let mut g = c.benchmark_group("engine/merge_heavy");
    g.sample_size(10);
    // (tag, block size, sort buffer, reducers):
    // - many_spills: one 256 KiB map task spilling every 2 KiB — >100
    //   sorted runs merged per partition on the map side;
    // - many_runs: 128 map tasks of 2 KiB — each reducer merges 128
    //   shuffle segments.
    let shapes = [
        ("many_spills", 256u64 << 10, 2u64 << 10, 4usize),
        ("many_runs", 2 << 10, 4 << 10, 2),
    ];
    for (tag, block_bytes, sort_buffer, nred) in shapes {
        for app in [AppId::WordCount, AppId::Sort, AppId::TeraSort] {
            let input = app.generate_input(INPUT_BYTES, 7);
            let cfg = JobConfig::default()
                .num_reducers(nred)
                .sort_buffer_bytes(sort_buffer);
            g.throughput(Throughput::Bytes(INPUT_BYTES));
            g.bench_function(format!("{tag}/{}", app.full_name()), |b| {
                b.iter(|| match app {
                    AppId::WordCount => {
                        black_box(wordcount::run(&input, block_bytes, cfg))
                            .stats
                            .spills
                    }
                    AppId::Sort => black_box(sort::run(&input, block_bytes, cfg)).stats.spills,
                    AppId::TeraSort => {
                        black_box(terasort::run(&input, block_bytes, cfg))
                            .stats
                            .spills
                    }
                    _ => unreachable!("only the merge-heavy trio is benched"),
                })
            });
        }
    }
    g.finish();
}

fn bench_cache_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/cache");
    let profile = ComputeProfile::hadoop_average();
    for m in presets::both() {
        g.bench_function(format!("stall_split/{}", m.name), |b| {
            b.iter(|| black_box(m.stall_split(&profile)))
        });
    }
    let mut gen = TraceGenerator::new(profile.mem, 1);
    let mut h = presets::xeon_e5_2420().hierarchy();
    g.bench_function("hierarchy_access_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(h.access(gen.next_address()));
            }
        })
    });
    g.finish();
}

fn bench_des(c: &mut Criterion) {
    c.bench_function("des/10k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            for i in 0..10_000u64 {
                sim.schedule_at(SimTime::from_micros(i), |_| {});
            }
            black_box(sim.run())
        })
    });
}

criterion_group!(
    benches,
    bench_mapreduce_engine,
    bench_merge_heavy,
    bench_cache_sim,
    bench_des
);
criterion_main!(benches);
