//! Integration tests for the batched Monte Carlo replication engine.
//!
//! Five pins: the fig20 artifact is byte-identical to the checked-in
//! CSV for any worker count (`--jobs 1` vs `--jobs 4`); replication
//! summaries are invariant to the worker count down to the last bit; the
//! per-phase memo split means a reduce-only parameter sweep of direct
//! runs computes the shared map phase exactly once; a plan — one prep,
//! reused buffers, no timeline, no phase memo — reports what
//! one-at-a-time runs that build everything afresh report, failed seeds
//! included; and a plan is memoised whole, under full equality of its
//! config and seed list.

use hhsim_core::arch::presets;
use hhsim_core::energy::MetricKind;
use hhsim_core::faults::FaultStats;
use hhsim_core::harness::Aggregate;
use hhsim_core::hdfs::{BlockSize, Topology};
use hhsim_core::workloads::AppId;
use hhsim_core::{
    figures, set_jobs, Measurement, NodeMix, PlacementKind, Reading, ReplicationPlan, SimCache,
    SimConfig,
};

/// `cfg` through the door on `cache`, read by its own meter.
fn simulate_on(cfg: &SimConfig, cache: &SimCache) -> Measurement {
    cfg.run(cache, Reading::Auto).expect("the run recovers").0
}

fn faulty_cfg(map_rate: f64, reduce_rate: f64) -> SimConfig {
    // 64 MB blocks (the fig19/fig20 fault-study block size) keep tasks
    // numerous enough that per-attempt failure draws actually bite.
    SimConfig::new(AppId::WordCount, presets::atom_c2758())
        .block_size(BlockSize::MB_64)
        .faults(
            figures::fig19_faults(0.0, true)
                .failure_rates(map_rate, reduce_rate)
                .seed(0x0D15_EA5E),
        )
}

/// fig20 runs through `ReplicationPlan::run()` (global cache, global
/// worker count) — the exact path the figures binary takes. Serial and
/// 4-worker renders must produce the same bytes, and those bytes must
/// equal the checked-in artifact. The memo is emptied in between, or the
/// second render would be the first one's 24 plans handed back.
#[test]
fn fig20_is_byte_identical_across_jobs_and_matches_checked_in() {
    set_jobs(1);
    let serial = figures::fig20()
        .expect("fig20 baselines cannot fail")
        .to_csv();
    SimCache::global().clear();
    set_jobs(4);
    let par = figures::fig20()
        .expect("fig20 baselines cannot fail")
        .to_csv();
    set_jobs(0);
    assert_eq!(serial, par, "fig20 must not depend on --jobs");
    let path = format!("{}/../../results/fig20.csv", env!("CARGO_MANIFEST_DIR"));
    let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(
        serial, checked_in,
        "fig20: regenerated CSV must be byte-identical to results/fig20.csv"
    );
}

/// The full summary — aggregates, fault counters, failure count — is a
/// pure function of (config, seed list), not of scheduling. Every worker
/// count runs against a memo of its own: on a shared one the plan memo
/// would answer every run after the first with the first's summary.
#[test]
fn summary_invariant_to_workers_and_batch_size() {
    let plan = ReplicationPlan::new(faulty_cfg(0.08, 0.08), 100..124);
    let reference = plan.run_with(1, &SimCache::new());
    assert_eq!(reference.replications, 24);
    for workers in [2, 3, 4, 7] {
        let cache = SimCache::new();
        let got = plan.run_with(workers, &cache);
        assert_eq!(reference, got, "summary changed at workers={workers}");
        let held = cache.stats();
        assert_eq!((held.plan_entries, held.phase_entries), (1, 0));
    }
}

/// A cold cache must agree with a warm one: a memoized plan is a value,
/// not state.
#[test]
fn warm_and_cold_caches_agree() {
    let warm = SimCache::new();
    let a = ReplicationPlan::new(faulty_cfg(0.05, 0.05), 0..8).run_with(2, &warm);
    let b = ReplicationPlan::new(faulty_cfg(0.05, 0.05), 0..8).run_with(2, &warm);
    let cold = ReplicationPlan::new(faulty_cfg(0.05, 0.05), 0..8).run_with(2, &SimCache::new());
    assert_eq!(a, b, "re-running on a warm cache");
    assert_eq!(a, cold, "warm vs cold cache");
}

/// The phase memo keys map and reduce phases independently, so sweeping
/// a reduce-only parameter (the reduce failure rate) re-prices only the
/// reduce phase: one map-phase entry serves the whole sweep.
#[test]
fn reduce_only_sweep_computes_map_phase_once() {
    let cache = SimCache::new();
    let rates = [0.0, 0.15, 0.3, 0.45];
    let mut results = Vec::new();
    let mut entries = Vec::new();
    for &r in &rates {
        results.push(simulate_on(&faulty_cfg(0.05, r), &cache));
        entries.push(cache.stats().phase_entries);
    }
    // First run inserts map + reduce entries; every further rate may
    // only add reduce-side entries (the map keys are unchanged), so the
    // per-rate growth must be strictly below the first run's footprint
    // and constant across the sweep.
    let first = entries[0];
    let growth = entries[1] - first;
    assert!(growth >= 1, "distinct reduce rates must add phase entries");
    assert!(
        growth < first,
        "reduce-only sweep must reuse the memoized map phase \
         (first run: {first} entries, per-rate growth: {growth})"
    );
    for (i, &e) in entries.iter().enumerate() {
        assert_eq!(
            e,
            first + i * growth,
            "after rate {}: map phase must be memoized across the sweep",
            rates[i]
        );
    }
    // The sweep actually exercised distinct reduce phases (every draw
    // is deterministic, so this is a fixed fact of the seed, not luck)...
    let mut walls: Vec<u64> = results
        .iter()
        .map(|m| m.breakdown.reduce_s.to_bits())
        .collect();
    walls.sort_unstable();
    walls.dedup();
    let distinct = walls.len();
    assert!(
        distinct >= 2,
        "sweeping the reduce failure rate 0 -> 0.45 must move the reduce wall"
    );
    // ...while the shared map phase priced identically everywhere.
    for m in &results {
        assert_eq!(
            m.breakdown.map_s.to_bits(),
            results[0].breakdown.map_s.to_bits(),
            "shared map phase must be bit-identical across the sweep"
        );
    }
}

/// Replications through the plan equal one-at-a-time `SimConfig::run`
/// calls with the seed spliced into the config — the engine adds
/// batching, not semantics.
#[test]
fn plan_matches_sequential_simulation() {
    let cache = SimCache::new();
    let seeds = [7u64, 11, 13];
    let summary = ReplicationPlan::new(faulty_cfg(0.06, 0.06), seeds).run_with(2, &cache);
    let mut makespans = Vec::new();
    for s in seeds {
        let base = faulty_cfg(0.06, 0.06);
        let faults = base.faults.expect("faulty cfg").seed(s);
        let m = simulate_on(&base.faults(faults), &cache);
        makespans.push(m.breakdown.total());
    }
    let mean = makespans.iter().sum::<f64>() / makespans.len() as f64;
    assert_eq!(summary.makespan_s.n, 3);
    assert!(
        (summary.makespan_s.mean - mean).abs() < 1e-9,
        "plan mean {} vs sequential mean {mean}",
        summary.makespan_s.mean
    );
    let min = makespans.iter().copied().fold(f64::INFINITY, f64::min);
    let max = makespans.iter().copied().fold(0.0f64, f64::max);
    assert_eq!(summary.makespan_s.min, min);
    assert_eq!(summary.makespan_s.max, max);
}

/// The fig22 rack configuration: 4 Xeon + 8 Atom on 4 racks at 4x
/// oversubscription, 4 switch crashes per rack-hour.
fn rack_cfg() -> SimConfig {
    SimConfig::new(AppId::TeraSort, presets::xeon_e5_2420())
        .data_per_node(figures::MICRO_DATA)
        .block_size(BlockSize::MB_256)
        .topology(Topology::racked(
            figures::TOPO_RACKS,
            figures::FIG22_OVERSUB,
        ))
        .faults(figures::fig22_faults(4.0, true))
        .mix(NodeMix {
            big: 4,
            little: 8,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        })
}

/// The fig22 rack configuration takes the
/// `FetchPlan` path and kills some seeds outright (`DataLost`). The plan
/// must agree with one-at-a-time traced `SimConfig::run` calls, which
/// build prep, buffers and timeline per seed, on which seeds die and, to
/// the bit, on everything the survivors report.
#[test]
fn rack_plan_matches_sequential_runs_bit_for_bit() {
    let cfg = rack_cfg();
    let seeds = 0..64u64;

    let cache = SimCache::new();
    let mut survivors = Vec::new();
    let mut failed_runs = 0;
    let mut faults = FaultStats::default();
    for seed in seeds.clone() {
        let fc = cfg.faults.expect("faulty cfg").seed(seed);
        match cfg.clone().faults(fc).run(&cache, Reading::Traced) {
            Ok((m, timeline)) => {
                assert!(timeline.is_some_and(|t| !t.is_empty()));
                faults.absorb(&m.faults);
                survivors.push(m);
            }
            Err(_) => failed_runs += 1,
        }
    }
    assert!(
        failed_runs > 0,
        "no failing seed: the error path is untested"
    );
    assert!(faults.fetch_failures > 0 && faults.reexecuted_maps > 0);

    let extremes = |of: fn(&Measurement) -> f64| {
        let values = survivors.iter().map(of);
        let min = values.clone().fold(f64::INFINITY, f64::min);
        let max = values.fold(f64::NEG_INFINITY, f64::max);
        (survivors.len() as u64, min.to_bits(), max.to_bits())
    };
    let pin = |a: &Aggregate| (a.n, a.min.to_bits(), a.max.to_bits());
    for workers in [1, 2] {
        let plan = ReplicationPlan::new(cfg.clone(), seeds.clone());
        let summary = plan.run_with(workers, &SimCache::new());
        assert_eq!(summary.failed_runs, failed_runs, "workers={workers}");
        assert_eq!(
            pin(&summary.makespan_s),
            extremes(|m| m.breakdown.total()),
            "workers={workers}"
        );
        assert_eq!(
            pin(&summary.energy_j),
            extremes(|m| m.energy_j),
            "workers={workers}"
        );
        assert_eq!(
            pin(&summary.exact_energy_j),
            extremes(|m| m.exact_energy_j),
            "workers={workers}"
        );
        assert_eq!(summary.faults, faults, "workers={workers}");
    }
}

/// A plan is memoised whole. A second run of it is answered from the memo
/// — nothing priced, no engine run — with what the first run and a run on
/// a fresh memo report, failed seeds and summed fault counters included;
/// the key is full equality of config and seed list, so anything that
/// could change a seed's run is another plan; and what a plan leaves in
/// the memo is its summary, never a phase run.
#[test]
fn plan_memo_is_keyed_by_full_equality() {
    let cache = SimCache::new();
    let seeds = 0..24u64;
    let plan = ReplicationPlan::new(rack_cfg(), seeds.clone());
    let first = plan.run_with(1, &cache);
    assert_eq!(first.failed_runs, 3, "seeds 0..24 lose their data thrice");
    assert!(first.faults.fetch_failures > 0 && first.faults.reexecuted_maps > 0);
    let held = cache.stats();
    assert_eq!((held.plan_entries, held.phase_entries), (1, 0));
    for workers in [1, 2] {
        let asked = cache.stats();
        assert_eq!(plan.run_with(workers, &cache), first, "workers={workers}");
        let answered = cache.stats();
        assert_eq!(
            (answered.hits, answered.misses, answered.plan_entries),
            (asked.hits + 1, asked.misses, 1),
            "a hit is one lookup: nothing priced, nothing added"
        );
        let fresh = SimCache::new();
        assert_eq!(plan.run_with(workers, &fresh), first, "workers={workers}");
        assert_eq!(fresh.stats().phase_entries, 0);
    }

    // Anything that can change a seed's run is another plan.
    let fc = rack_cfg().faults.expect("faulty cfg");
    let mut one_bit = fc;
    one_bit.straggler_slowdown = f64::from_bits(fc.straggler_slowdown.to_bits() ^ 1);
    let mut no_speculation = fc;
    no_speculation.recovery.speculation = !fc.recovery.speculation;
    let others: [(&str, SimConfig, Vec<u64>); 5] = [
        ("one more seed", rack_cfg(), (0..25).collect()),
        ("seeds reordered", rack_cfg(), seeds.clone().rev().collect()),
        (
            "one bit of one f64",
            rack_cfg().faults(one_bit),
            seeds.clone().collect(),
        ),
        (
            "speculation flipped",
            rack_cfg().faults(no_speculation),
            seeds.clone().collect(),
        ),
        (
            "another block size",
            rack_cfg().block_size(BlockSize::MB_512),
            seeds.clone().collect(),
        ),
    ];
    for (i, (what, cfg, seeds)) in others.into_iter().enumerate() {
        let other = ReplicationPlan::new(cfg, seeds);
        let summary = other.run_with(2, &cache);
        assert_eq!(cache.stats().plan_entries, i + 2, "{what} must miss");
        assert_eq!(other.run_with(2, &cache), summary, "{what}");
        assert_eq!(cache.stats().plan_entries, i + 2, "{what} must then hit");
    }
    assert_eq!(
        plan.run_with(2, &cache),
        first,
        "the first plan is still held"
    );

    // A fault-free config replicates one deterministic point; its plan is
    // memoised like any other.
    let mut clean = rack_cfg();
    clean.faults = None;
    let clean = ReplicationPlan::new(clean, seeds);
    let summary = clean.run_with(2, &cache);
    assert_eq!((summary.failed_runs, summary.makespan_s.ci95), (0, 0.0));
    assert_eq!(clean.run_with(2, &cache), summary);
    let held = cache.stats();
    assert_eq!((held.plan_entries, held.phase_entries), (7, 0));

    cache.clear();
    assert_eq!(cache.stats(), hhsim_core::CacheStats::default());
}
