//! Heterogeneity-aware scheduling for big+little MapReduce clusters
//! (§3.5 of the paper).
//!
//! Given a heterogeneous pool of X Xeon and Y Atom cores, the cloud
//! provider wants to minimize **operational cost** (energy → ED^xP) and
//! **capital cost** (chip area → ED^xAP) while meeting user performance
//! expectations. This crate provides:
//!
//! * [`paper_schedule`] — the paper's class-driven pseudo-code: compute-
//!   bound jobs go to many little cores, I/O-bound jobs to a few big
//!   cores, hybrids to 2 Xeons when minimizing ED²AP and many Atoms
//!   otherwise;
//! * [`CostTable`] — characterization-derived `(core kind, core count) →`
//!   [`CostMetrics`] tables with exhaustive [`CostTable::optimal`] search
//!   and baseline policies, so the pseudo-code's regret can be measured.
//!
//! # Examples
//!
//! ```
//! use hhsim_sched::{paper_schedule, JobClass};
//! use hhsim_energy::MetricKind;
//! use hhsim_arch::CoreKind;
//!
//! let alloc = paper_schedule(JobClass::Compute, MetricKind::Edp);
//! assert_eq!(alloc.kind, CoreKind::Little);
//! assert_eq!(alloc.cores, 8);
//! ```

use hhsim_arch::CoreKind;
use hhsim_energy::{CostMetrics, MetricKind};

/// Workload class as used by the scheduling pseudo-code: compute bound
/// (C), I/O bound (I) or hybrid (H).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Compute bound.
    Compute,
    /// I/O bound.
    Io,
    /// Hybrid.
    Hybrid,
}

/// A homogeneous allocation out of the heterogeneous pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreAllocation {
    /// Which core type runs the job.
    pub kind: CoreKind,
    /// How many cores (the paper studies 2, 4, 6, 8).
    pub cores: usize,
}

impl std::fmt::Display for CoreAllocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.cores, self.kind)
    }
}

/// Core counts studied in Table 3 / Fig. 17.
pub const CORE_COUNTS: [usize; 4] = [2, 4, 6, 8];

/// The paper's §3.5 scheduling procedure, verbatim:
///
/// ```text
/// If App = C: assign a large number of Atom cores (A = 8)
/// If App = I: assign a small number of Xeon cores (X = 4)
/// If App = H: for min ED2AP assign X = 2, otherwise A = 8
/// ```
pub fn paper_schedule(class: JobClass, goal: MetricKind) -> CoreAllocation {
    match class {
        JobClass::Compute => CoreAllocation {
            kind: CoreKind::Little,
            cores: 8,
        },
        JobClass::Io => CoreAllocation {
            kind: CoreKind::Big,
            cores: 4,
        },
        JobClass::Hybrid => {
            if goal == MetricKind::Ed2ap {
                CoreAllocation {
                    kind: CoreKind::Big,
                    cores: 2,
                }
            } else {
                CoreAllocation {
                    kind: CoreKind::Little,
                    cores: 8,
                }
            }
        }
    }
}

/// Characterized costs of one application over every studied allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostTable {
    entries: Vec<(CoreAllocation, CostMetrics)>,
}

impl CostTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        CostTable::default()
    }

    /// Inserts (or replaces) the cost of one allocation.
    pub fn insert(&mut self, alloc: CoreAllocation, metrics: CostMetrics) {
        if let Some(e) = self.entries.iter_mut().find(|(a, _)| *a == alloc) {
            e.1 = metrics;
        } else {
            self.entries.push((alloc, metrics));
        }
    }

    /// Cost of a specific allocation, if characterized.
    pub fn get(&self, alloc: CoreAllocation) -> Option<&CostMetrics> {
        self.entries
            .iter()
            .find(|(a, _)| *a == alloc)
            .map(|(_, m)| m)
    }

    /// All characterized allocations.
    pub fn allocations(&self) -> impl Iterator<Item = CoreAllocation> + '_ {
        self.entries.iter().map(|(a, _)| *a)
    }

    /// Exhaustive search: the allocation minimizing `goal`.
    /// Returns `None` on an empty table.
    ///
    /// Comparison uses [`f64::total_cmp`], so the search is a total order by
    /// construction: equal costs keep insertion order (`min_by` returns the
    /// first minimum), and a NaN cost can never win — `total_cmp` sorts NaN
    /// above every real value instead of panicking mid-search.
    pub fn optimal(&self, goal: MetricKind) -> Option<(CoreAllocation, f64)> {
        self.entries
            .iter()
            .map(|(a, m)| (*a, m.get(goal)))
            .min_by(|x, y| x.1.total_cmp(&y.1))
    }

    /// The user-expectation baseline: most big cores available (maximum
    /// performance, what "allocating the maximum number of available big
    /// Xeon cores" gives).
    pub fn max_performance_baseline(&self) -> Option<CoreAllocation> {
        self.entries
            .iter()
            .filter(|(a, _)| a.kind == CoreKind::Big)
            .map(|(a, _)| *a)
            .max_by_key(|a| a.cores)
    }

    /// Regret of `alloc` versus the exhaustive optimum under `goal`
    /// (1.0 = optimal; 2.0 = twice the optimal cost). `None` if either
    /// side is missing.
    pub fn regret(&self, alloc: CoreAllocation, goal: MetricKind) -> Option<f64> {
        let chosen = self.get(alloc)?.get(goal);
        let (_, best) = self.optimal(goal)?;
        if best == 0.0 {
            return Some(1.0);
        }
        Some(chosen / best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CostTable {
        // Synthetic compute-bound-like costs: Atom cheap on energy, Xeon
        // fast; more cores = faster but more power.
        let mut t = CostTable::new();
        for (kind, base_p, base_t) in [(CoreKind::Big, 70.0, 50.0), (CoreKind::Little, 12.0, 95.0)]
        {
            for cores in CORE_COUNTS {
                let speedup = cores as f64 / 2.0;
                let delay = base_t / speedup;
                let power = base_p * cores as f64 / 6.0;
                let area = match kind {
                    CoreKind::Big => 216.0,
                    CoreKind::Little => 160.0,
                } * cores as f64;
                t.insert(
                    CoreAllocation { kind, cores },
                    CostMetrics::new(power * delay, delay, area),
                );
            }
        }
        t
    }

    #[test]
    fn pseudo_code_matches_paper() {
        use MetricKind::*;
        let a = paper_schedule(JobClass::Compute, Edp);
        assert_eq!((a.kind, a.cores), (CoreKind::Little, 8));
        let a = paper_schedule(JobClass::Io, Edp);
        assert_eq!((a.kind, a.cores), (CoreKind::Big, 4));
        let a = paper_schedule(JobClass::Hybrid, Ed2ap);
        assert_eq!((a.kind, a.cores), (CoreKind::Big, 2));
        let a = paper_schedule(JobClass::Hybrid, Edp);
        assert_eq!((a.kind, a.cores), (CoreKind::Little, 8));
    }

    #[test]
    fn optimal_search_finds_minimum() {
        let t = table();
        let (alloc, val) = t.optimal(MetricKind::Edp).expect("non-empty");
        for a in t.allocations() {
            assert!(t.get(a).expect("listed").edp() >= val, "{a} beats optimum");
        }
        // Synthetic numbers make 8 Atoms the EDP winner.
        assert_eq!(alloc.kind, CoreKind::Little);
        assert_eq!(alloc.cores, 8);
    }

    #[test]
    fn baseline_is_biggest_xeon() {
        let t = table();
        let b = t.max_performance_baseline().expect("has big cores");
        assert_eq!((b.kind, b.cores), (CoreKind::Big, 8));
    }

    #[test]
    fn regret_is_one_for_optimum() {
        let t = table();
        let (best, _) = t.optimal(MetricKind::Edap).expect("non-empty");
        assert_eq!(t.regret(best, MetricKind::Edap), Some(1.0));
        let worst = t
            .allocations()
            .max_by(|a, b| {
                let va = t.get(*a).map(|m| m.edap()).unwrap_or(0.0);
                let vb = t.get(*b).map(|m| m.edap()).unwrap_or(0.0);
                va.total_cmp(&vb)
            })
            .expect("non-empty");
        assert!(t.regret(worst, MetricKind::Edap).expect("present") > 1.0);
    }

    /// Pins the `optimal` tie-break after the `partial_cmp().expect(..)` →
    /// `total_cmp` migration: equal costs resolve to the first-inserted
    /// allocation (`Iterator::min_by` keeps the first minimum), so table
    /// construction order — not float identity quirks — decides ties.
    #[test]
    fn optimal_tie_break_keeps_first_inserted() {
        let mut t = CostTable::new();
        let first = CoreAllocation {
            kind: CoreKind::Big,
            cores: 4,
        };
        let second = CoreAllocation {
            kind: CoreKind::Little,
            cores: 8,
        };
        let same = CostMetrics::new(10.0, 2.0, 100.0);
        t.insert(first, same);
        t.insert(second, same);
        let (winner, _) = t.optimal(MetricKind::Edp).expect("non-empty");
        assert_eq!(winner, first, "ties resolve to insertion order");
    }

    /// `total_cmp` makes the search total: a NaN cost loses to every real
    /// cost instead of panicking, and -0.0 orders below +0.0.
    /// (`CostMetrics::new` validates finiteness, but the fields are public
    /// — the search must stay total even then.)
    #[test]
    fn optimal_is_total_over_nan_and_signed_zero() {
        let mut t = CostTable::new();
        let nan_alloc = CoreAllocation {
            kind: CoreKind::Big,
            cores: 2,
        };
        let real_alloc = CoreAllocation {
            kind: CoreKind::Little,
            cores: 2,
        };
        t.insert(
            nan_alloc,
            CostMetrics {
                energy_j: f64::NAN,
                delay_s: 1.0,
                area_mm2: 1.0,
            },
        );
        t.insert(real_alloc, CostMetrics::new(1e9, 1.0, 1.0));
        let (winner, _) = t.optimal(MetricKind::Edp).expect("non-empty");
        assert_eq!(winner, real_alloc, "NaN never wins under total_cmp");

        let mut t = CostTable::new();
        let pos_zero = CoreAllocation {
            kind: CoreKind::Big,
            cores: 4,
        };
        let neg_zero = CoreAllocation {
            kind: CoreKind::Little,
            cores: 4,
        };
        t.insert(pos_zero, CostMetrics::new(0.0, 1.0, 1.0));
        t.insert(
            neg_zero,
            CostMetrics {
                energy_j: -0.0,
                delay_s: 1.0,
                area_mm2: 1.0,
            },
        );
        let (winner, _) = t.optimal(MetricKind::Edp).expect("non-empty");
        assert_eq!(
            winner, neg_zero,
            "-0.0 < +0.0 under total_cmp, beating insertion order"
        );
    }

    #[test]
    fn insert_replaces() {
        let mut t = CostTable::new();
        let a = CoreAllocation {
            kind: CoreKind::Big,
            cores: 2,
        };
        t.insert(a, CostMetrics::new(1.0, 1.0, 1.0));
        t.insert(a, CostMetrics::new(2.0, 1.0, 1.0));
        assert_eq!(t.get(a).expect("inserted").energy_j, 2.0);
        assert_eq!(t.allocations().count(), 1);
    }

    #[test]
    fn empty_table_yields_none() {
        let t = CostTable::new();
        assert!(t.optimal(MetricKind::Edp).is_none());
        assert!(t.max_performance_baseline().is_none());
    }
}
