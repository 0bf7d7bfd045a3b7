//! Cross-crate integration: functional engine → ratios → timing model →
//! power meter → cost metrics → scheduler, exercised end to end.

use hhsim_core::accel::AccelConfig;
use hhsim_core::arch::{presets, Frequency};
use hhsim_core::energy::MetricKind;
use hhsim_core::figures::SCHED_BLOCK;
use hhsim_core::hdfs::BlockSize;
use hhsim_core::sched::{paper_schedule, CoreAllocation, CostTable, JobClass, CORE_COUNTS};
use hhsim_core::workloads::{AppClass, AppId};
use hhsim_core::{simulate, SimConfig};

#[test]
fn every_app_produces_consistent_measurements() {
    for app in AppId::ALL {
        for m in presets::both() {
            let r = simulate(&SimConfig::new(app, m.clone()));
            assert!(r.breakdown.map_s > 0.0, "{app}/{}", m.name);
            assert!(r.breakdown.others_s > 0.0, "{app}/{}", m.name);
            assert_eq!(app.has_reduce(), r.breakdown.reduce_s > 0.0, "{app}");
            assert!(r.energy_j > 0.0);
            // Meter consistency: average power within [idle, idle + max dyn].
            let max_dyn = r.map.dynamic_watts.max(r.reduce.dynamic_watts);
            assert!(
                r.reading.average_watts >= m.power.node_idle_w * 0.99,
                "{app}"
            );
            assert!(
                r.reading.average_watts <= m.power.node_idle_w + max_dyn + 1.0,
                "{app}/{}: {} vs idle {} + {}",
                m.name,
                r.reading.average_watts,
                m.power.node_idle_w,
                max_dyn
            );
            // Cost metrics consistent with the raw measurement.
            assert!((r.cost.energy_j - r.energy_j).abs() < 1e-6);
            assert!((r.cost.delay_s - r.breakdown.total()).abs() < 1e-9);
        }
    }
}

#[test]
fn meter_energy_matches_phase_accounting() {
    let r = simulate(&SimConfig::new(AppId::WordCount, presets::xeon_e5_2420()));
    let phase_sum = r.map.energy_j(3) + r.reduce.energy_j(3) + r.others.energy_j(3);
    let rel = (r.energy_j - phase_sum).abs() / phase_sum;
    assert!(rel < 0.05, "1 Hz sampling error should be small: {rel}");
}

#[test]
fn scheduler_pseudo_code_is_near_optimal() {
    for app in AppId::ALL {
        let mut table = CostTable::new();
        for m in presets::both() {
            for cores in CORE_COUNTS {
                let meas = simulate(
                    &SimConfig::new(app, m.clone())
                        .block_size(SCHED_BLOCK)
                        .mappers(cores),
                );
                table.insert(
                    CoreAllocation {
                        kind: m.core.kind,
                        cores,
                    },
                    meas.cost,
                );
            }
        }
        let class = match app.class() {
            AppClass::Compute => JobClass::Compute,
            AppClass::Io => JobClass::Io,
            AppClass::Hybrid => JobClass::Hybrid,
        };
        for goal in MetricKind::ALL {
            let alloc = paper_schedule(class, goal);
            let regret = table.regret(alloc, goal).expect("allocation characterized");
            assert!(
                regret < 4.0,
                "{app}/{goal}: pseudo-code regret {regret:.2} too far from optimal"
            );
        }
        // The energy-driven pseudo-code beats the max-performance baseline
        // on EDP for compute-bound applications.
        if app.class() == AppClass::Compute {
            let pseudo = table
                .regret(paper_schedule(class, MetricKind::Edp), MetricKind::Edp)
                .expect("present");
            let baseline = table
                .regret(
                    table.max_performance_baseline().expect("has Xeons"),
                    MetricKind::Edp,
                )
                .expect("present");
            assert!(
                pseudo < baseline,
                "{app}: pseudo {pseudo} vs baseline {baseline}"
            );
        }
    }
}

#[test]
fn acceleration_monotone_in_rate() {
    for app in [AppId::WordCount, AppId::NaiveBayes] {
        let mut last = f64::MAX;
        for rate in [1.0, 5.0, 25.0, 100.0] {
            let t = simulate(
                &SimConfig::new(app, presets::atom_c2758()).accelerator(AccelConfig::fpga(rate)),
            )
            .breakdown
            .total();
            assert!(t <= last * 1.001, "{app}: {t} after {last} at {rate}x");
            last = t;
        }
    }
}

#[test]
fn frequency_and_block_interact_as_the_paper_says() {
    // §3.1.1: with a large block, sensitivity to frequency is reduced
    // relative to the small-block configuration for I/O-heavy Sort on Xeon.
    let sens = |b: BlockSize| {
        let lo = simulate(
            &SimConfig::new(AppId::Sort, presets::xeon_e5_2420())
                .block_size(b)
                .frequency(Frequency::GHZ_1_2),
        )
        .breakdown
        .total();
        let hi = simulate(
            &SimConfig::new(AppId::Sort, presets::xeon_e5_2420())
                .block_size(b)
                .frequency(Frequency::GHZ_1_8),
        )
        .breakdown
        .total();
        (lo - hi) / lo
    };
    assert!(sens(BlockSize::MB_32) > 0.0);
    assert!(sens(BlockSize::MB_512) > 0.0);
}

#[test]
fn figures_are_deterministic() {
    // A memo each: on one, the second render would be the first one's
    // points handed back.
    let fig9 = || {
        let mut plan = hhsim_core::Plan::new();
        let render = hhsim_core::figures::fig9(&mut plan);
        render(&plan.run_on(2, &hhsim_core::SimCache::new()))
    };
    assert_eq!(fig9(), fig9());
}
