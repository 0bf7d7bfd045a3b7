//! Fault injection must not weaken the harness's determinism guarantee:
//! the same seed produces byte-identical measurements, spans and Chrome
//! traces whatever the `--jobs` worker count, and `FaultConfig::none()`
//! leaves the fault-free outputs untouched.

use hhsim_core::arch::presets;
use hhsim_core::energy::MetricKind;
use hhsim_core::faults::FaultConfig;
use hhsim_core::workloads::AppId;
use hhsim_core::{
    figures, harness, ClusterTimeline, Measurement, NodeMix, PlacementKind, Plan, Reading,
    SimCache, SimConfig,
};
use hhsim_testkit::streamed;

/// `cfg` read per node with its timeline, on a memo of its own: two calls
/// run it twice.
fn traced(cfg: &SimConfig) -> (Measurement, ClusterTimeline) {
    let (m, timeline) = (cfg.run(&SimCache::new(), Reading::Traced)).expect("the run recovers");
    (m, timeline.expect("a traced run fills a timeline"))
}

/// A small grid of fault-injected points spanning both phases' failure
/// rates, stragglers, speculation on/off and homogeneous vs mixed
/// clusters.
fn faulty_grid() -> Vec<SimConfig> {
    let mut grid = Vec::new();
    for app in [AppId::WordCount, AppId::TeraSort] {
        for speculation in [true, false] {
            for rate in [0.0, 0.06, 0.12] {
                let faults = figures::fig19_faults(rate, speculation);
                grid.push(
                    SimConfig::new(app, presets::xeon_e5_2420())
                        .data_per_node(figures::MICRO_DATA)
                        .block_size(figures::SCHED_BLOCK)
                        .faults(faults),
                );
                grid.push(
                    SimConfig::new(app, presets::xeon_e5_2420())
                        .data_per_node(figures::MICRO_DATA)
                        .block_size(figures::SCHED_BLOCK)
                        .mix(NodeMix {
                            big: 1,
                            little: 2,
                            placement: PlacementKind::PaperClass(MetricKind::Edp),
                        })
                        .faults(faults),
                );
            }
        }
    }
    grid
}

/// Every side of every comparison runs on a memo of its own: on a shared
/// one, the second side would be the first one's entries handed back.
#[test]
fn fault_outputs_are_identical_across_jobs() {
    let grid = faulty_grid();

    // Measurements through the worker pool, serial vs 4 workers.
    let serial = harness::run_grid_on(&grid, 1, &SimCache::new());
    let parallel = harness::run_grid_on(&grid, 4, &SimCache::new());
    assert_eq!(serial, parallel, "--jobs 4 diverged from --jobs 1");

    // The full fig19 artifact, serial vs 4 workers.
    let fig19 = |workers| {
        let mut plan = Plan::new();
        let render = figures::fig19(&mut plan);
        let ran = plan.run_on(workers, &SimCache::new());
        render(&ran).expect("fig19 recovers").to_csv()
    };
    assert_eq!(fig19(1), fig19(4), "fig19 CSV diverged across --jobs");

    // Spans and Chrome traces byte-identical run-to-run, and the fault
    // schedule itself (who failed, where, which attempt) is pinned by the
    // trace args.
    let cfg = &grid[3];
    let (m1, t1) = traced(cfg);
    let (m2, t2) = traced(cfg);
    assert_eq!(m1, m2);
    assert_eq!(t1, t2);
    assert_eq!(
        streamed(|w| t1.write_chrome_trace(w)),
        streamed(|w| t2.write_chrome_trace(w))
    );

    // An inactive FaultConfig is invisible: same bytes as no config.
    let clean = SimConfig::new(AppId::Sort, presets::xeon_e5_2420()).mix(NodeMix {
        big: 2,
        little: 1,
        placement: PlacementKind::PaperClass(MetricKind::Edp),
    });
    let with_none = clean.clone().faults(FaultConfig::none());
    let (ma, ta) = traced(&clean);
    let (mb, tb) = traced(&with_none);
    assert_eq!(ma, mb);
    assert_eq!(
        streamed(|w| ta.write_chrome_trace(w)),
        streamed(|w| tb.write_chrome_trace(w))
    );
}
