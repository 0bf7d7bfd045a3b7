//! Heterogeneous scheduling case study (paper §3.5): characterizes every
//! application over 2–8 Xeon or Atom cores, then compares the paper's
//! class-driven scheduling pseudo-code against exhaustive search and the
//! max-performance baseline for each cost objective.
//!
//! ```text
//! cargo run --release -p hhsim-core --example hetero_scheduling
//! ```

use hhsim_core::arch::{presets, CoreKind};
use hhsim_core::energy::MetricKind;
use hhsim_core::figures::SCHED_BLOCK;
use hhsim_core::sched::{paper_schedule, CoreAllocation, CostTable, JobClass, CORE_COUNTS};
use hhsim_core::workloads::{AppClass, AppId};
use hhsim_core::{simulate, SimConfig};

fn job_class(app: AppId) -> JobClass {
    match app.class() {
        AppClass::Compute => JobClass::Compute,
        AppClass::Io => JobClass::Io,
        AppClass::Hybrid => JobClass::Hybrid,
    }
}

fn main() {
    println!("Scheduling on a heterogeneous Xeon+Atom pool (paper Table 3 / Fig. 17)\n");
    for app in AppId::ALL {
        // Characterize: cost of every allocation.
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
        println!("{} ({:?}):", app.full_name(), app.class());
        for goal in MetricKind::ALL {
            let pseudo = paper_schedule(job_class(app), goal);
            let (optimal, _) = table.optimal(goal).expect("characterized");
            let regret = table.regret(pseudo, goal).expect("in table");
            let baseline = table
                .max_performance_baseline()
                .expect("has Xeon allocations");
            let base_regret = table.regret(baseline, goal).expect("in table");
            println!(
                "  {:<6} pseudo-code → {:<7} (regret {:.2}x) | optimal {:<7} | max-perf baseline {} (regret {:.2}x)",
                goal.to_string(),
                pseudo.to_string(),
                regret,
                optimal.to_string(),
                baseline,
                base_regret
            );
        }
        println!();
    }
    println!(
        "Compute-bound jobs land on many Atom cores, the I/O-bound Sort on a few\n\
         Xeons, and the pseudo-code stays close to the exhaustive optimum at a\n\
         fraction of the max-performance baseline's operational cost.\n"
    );

    // Sanity: show the paper's hybrid/ED2AP special case.
    let hybrid = paper_schedule(JobClass::Hybrid, MetricKind::Ed2ap);
    assert_eq!(hybrid.kind, CoreKind::Big);
    assert_eq!(hybrid.cores, 2);
}
