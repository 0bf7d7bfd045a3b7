//! Multi-job scheduling on a shared heterogeneous pool.
//!
//! The paper's §1.3 motivates the study with clusters that "host a variety
//! of big data applications running concurrently"; §3.5 derives per-job
//! allocations. This module closes the loop: a stream of jobs arrives at a
//! pool of X big and Y little cores, a [`Policy`] picks each job's
//! allocation (the paper's pseudo-code, exhaustive search, or the
//! max-performance baseline), and the event-driven queue simulation
//! reports makespan, energy and total cost — the provider-vs-user
//! trade-off made measurable.

use hhsim_arch::CoreKind;
use hhsim_des::{SimTime, Simulation};
use hhsim_energy::MetricKind;
use serde::{Deserialize, Serialize};

use crate::{paper_schedule, CoreAllocation, CostTable, JobClass};

/// Available cores of each kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Big (Xeon) cores in the pool.
    pub big_cores: usize,
    /// Little (Atom) cores in the pool.
    pub little_cores: usize,
}

impl PoolConfig {
    fn capacity(&self, kind: CoreKind) -> usize {
        match kind {
            CoreKind::Big => self.big_cores,
            CoreKind::Little => self.little_cores,
        }
    }
}

/// One job submitted to the queue: its class, arrival time, and the
/// characterized cost of every candidate allocation.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Label for reports.
    pub name: String,
    /// Compute/Io/Hybrid class (drives the paper's pseudo-code).
    pub class: JobClass,
    /// Submission time, seconds.
    pub arrival_s: f64,
    /// Characterization table (allocation → energy/delay/area).
    pub table: CostTable,
}

/// How allocations are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// The paper's §3.5 class-driven pseudo-code, minimizing `goal`.
    PaperClassDriven(MetricKind),
    /// Exhaustive search over the characterized allocations for `goal`.
    ExhaustiveOptimal(MetricKind),
    /// The user-expectation baseline: as many big cores as the pool has
    /// (capped at the largest characterized allocation).
    MaxPerformance,
}

impl Policy {
    fn choose(&self, job: &JobRequest, pool: &PoolConfig) -> CoreAllocation {
        let clamp = |a: CoreAllocation| CoreAllocation {
            kind: a.kind,
            cores: a.cores.min(pool.capacity(a.kind)).max(1),
        };
        match self {
            Policy::PaperClassDriven(goal) => clamp(paper_schedule(job.class, *goal)),
            Policy::ExhaustiveOptimal(goal) => clamp(
                job.table
                    .optimal(*goal)
                    .map(|(a, _)| a)
                    .unwrap_or(CoreAllocation {
                        kind: CoreKind::Little,
                        cores: 1,
                    }),
            ),
            Policy::MaxPerformance => clamp(job.table.max_performance_baseline().unwrap_or(
                CoreAllocation {
                    kind: CoreKind::Big,
                    cores: 1,
                },
            )),
        }
    }
}

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobCompletion {
    /// Job label.
    pub name: String,
    /// Allocation the policy picked.
    pub allocation: CoreAllocation,
    /// When the job started running, seconds.
    pub start_s: f64,
    /// When it finished, seconds.
    pub finish_s: f64,
    /// Energy it consumed, joules.
    pub energy_j: f64,
}

impl JobCompletion {
    /// Time spent waiting in the queue.
    pub fn wait_s(&self, arrival_s: f64) -> f64 {
        self.start_s - arrival_s
    }
}

/// Aggregate outcome of a queue run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueOutcome {
    /// Per-job results in completion order.
    pub completions: Vec<JobCompletion>,
    /// Time the last job finished.
    pub makespan_s: f64,
    /// Total energy across jobs, joules.
    pub total_energy_j: f64,
}

/// One job's resolved placement: what the policy picked, priced.
struct Pending {
    name: String,
    alloc: CoreAllocation,
    duration: SimTime,
    energy: f64,
}

/// Calendar events of the queue simulation; jobs are indices into the
/// resolved `Pending` list.
#[derive(Debug, Clone, Copy)]
enum QueueEvent {
    /// The job is submitted and joins the FIFO queue.
    Arrive(usize),
    /// The job, admitted at `start`, completes and frees its cores.
    Finish { job: usize, start: SimTime },
}

/// Mutable state of one queue run.
struct QueueState {
    free_big: usize,
    free_little: usize,
    queue: Vec<usize>, // indices into `pending`, FIFO
    completions: Vec<JobCompletion>,
}

impl QueueState {
    fn free_mut(&mut self, kind: CoreKind) -> &mut usize {
        match kind {
            CoreKind::Big => &mut self.free_big,
            CoreKind::Little => &mut self.free_little,
        }
    }

    /// Admits jobs from the head of the queue while resources allow,
    /// scheduling each admitted job's completion event. Called after
    /// every arrival and completion event, so admission interleaves with
    /// the event stream exactly as a live JobTracker's would.
    fn admit(&mut self, sim: &mut Simulation<QueueEvent>, pending: &[Pending]) {
        while let Some(&job) = self.queue.first() {
            let p = &pending[job];
            let free = self.free_mut(p.alloc.kind);
            if p.alloc.cores > *free {
                return; // head-of-line blocking: later jobs wait too
            }
            *free -= p.alloc.cores;
            self.queue.remove(0);
            let start = sim.now();
            sim.push_at(start + p.duration, QueueEvent::Finish { job, start });
        }
    }
}

/// Runs `jobs` through the pool under `policy` (FIFO admission: a queued
/// job blocks later jobs needing the same core kind until it fits).
///
/// Built directly on the [`hhsim_des`] event calendar: arrivals are
/// pre-scheduled submission events, completions are scheduled as jobs are
/// admitted, and the kernel's deterministic (time, sequence) ordering
/// guarantees arrivals at time *t* are processed before completions at
/// *t* — the same tie-break a FIFO JobTracker applies.
///
/// # Panics
///
/// Panics if the pool is empty, if a job's chosen allocation was never
/// characterized in its table, or if arrivals are not sorted.
pub fn run_queue(pool: PoolConfig, jobs: &[JobRequest], policy: Policy) -> QueueOutcome {
    assert!(
        pool.big_cores + pool.little_cores > 0,
        "pool must have cores"
    );
    assert!(
        jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
        "jobs must be sorted by arrival"
    );

    let pending: Vec<Pending> = jobs
        .iter()
        .map(|j| {
            let alloc = policy.choose(j, &pool);
            let cost = j
                .table
                .get(alloc)
                .unwrap_or_else(|| panic!("{}: allocation {alloc} not characterized", j.name));
            Pending {
                name: j.name.clone(),
                alloc,
                duration: SimTime::from_secs_f64(cost.delay_s),
                energy: cost.energy_j,
            }
        })
        .collect();

    let mut state = QueueState {
        free_big: pool.big_cores,
        free_little: pool.little_cores,
        queue: Vec::new(),
        completions: Vec::new(),
    };
    let mut sim = Simulation::default();
    // Arrivals are scheduled up front, in submission order: the kernel's
    // sequence-number tie-break then sorts an arrival before any
    // completion landing on the same timestamp.
    for (job, j) in jobs.iter().enumerate() {
        sim.push_at(SimTime::from_secs_f64(j.arrival_s), QueueEvent::Arrive(job));
    }
    while let Some(event) = sim.pop() {
        match event {
            QueueEvent::Arrive(job) => state.queue.push(job),
            QueueEvent::Finish { job, start } => {
                let p = &pending[job];
                *state.free_mut(p.alloc.kind) += p.alloc.cores;
                state.completions.push(JobCompletion {
                    name: p.name.clone(),
                    allocation: p.alloc,
                    start_s: start.as_secs_f64(),
                    finish_s: sim.now().as_secs_f64(),
                    energy_j: p.energy,
                });
            }
        }
        state.admit(&mut sim, &pending);
    }
    // The final clock is the last completion — the makespan.
    let makespan_s = sim.now().as_secs_f64();

    debug_assert!(state.queue.is_empty(), "all admitted");
    debug_assert_eq!(state.completions.len(), jobs.len(), "all completed");
    let total_energy_j = state.completions.iter().map(|c| c.energy_j).sum();
    QueueOutcome {
        completions: state.completions,
        makespan_s,
        total_energy_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhsim_energy::CostMetrics;

    /// A synthetic compute-bound cost table: Atom slow but cheap.
    fn table(atom_t: f64, xeon_t: f64) -> CostTable {
        let mut t = CostTable::new();
        for cores in crate::CORE_COUNTS {
            let speed = cores as f64 / 2.0;
            t.insert(
                CoreAllocation {
                    kind: CoreKind::Big,
                    cores,
                },
                CostMetrics::new(60.0 * xeon_t / speed, xeon_t / speed, 216.0 * cores as f64),
            );
            t.insert(
                CoreAllocation {
                    kind: CoreKind::Little,
                    cores,
                },
                CostMetrics::new(10.0 * atom_t / speed, atom_t / speed, 160.0 * cores as f64),
            );
        }
        t
    }

    fn jobs(n: usize, class: JobClass) -> Vec<JobRequest> {
        (0..n)
            .map(|i| JobRequest {
                name: format!("job{i}"),
                class,
                arrival_s: i as f64 * 1.0,
                table: table(100.0, 55.0),
            })
            .collect()
    }

    const POOL: PoolConfig = PoolConfig {
        big_cores: 8,
        little_cores: 8,
    };

    #[test]
    fn all_jobs_complete_exactly_once() {
        for policy in [
            Policy::PaperClassDriven(MetricKind::Edp),
            Policy::ExhaustiveOptimal(MetricKind::Edp),
            Policy::MaxPerformance,
        ] {
            let js = jobs(6, JobClass::Compute);
            let out = run_queue(POOL, &js, policy);
            assert_eq!(out.completions.len(), 6, "{policy:?}");
            let mut names: Vec<&str> = out.completions.iter().map(|c| c.name.as_str()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), 6);
        }
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let js = jobs(10, JobClass::Compute);
        let out = run_queue(POOL, &js, Policy::PaperClassDriven(MetricKind::Edp));
        // Paper policy sends compute jobs to 8 Atom cores: strictly serial
        // on an 8-little pool. Starts must therefore never overlap runs.
        let mut intervals: Vec<(f64, f64)> = out
            .completions
            .iter()
            .map(|c| (c.start_s, c.finish_s))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in intervals.windows(2) {
            assert!(w[1].0 >= w[0].1 - 1e-9, "overlap: {w:?}");
        }
    }

    #[test]
    fn paper_policy_saves_energy_vs_max_performance() {
        let js = jobs(8, JobClass::Compute);
        let paper = run_queue(POOL, &js, Policy::PaperClassDriven(MetricKind::Edp));
        let maxperf = run_queue(POOL, &js, Policy::MaxPerformance);
        assert!(
            paper.total_energy_j < maxperf.total_energy_j / 2.0,
            "paper {} vs baseline {}",
            paper.total_energy_j,
            maxperf.total_energy_j
        );
        // ... at a makespan cost, which is the provider/user trade-off.
        assert!(paper.makespan_s > maxperf.makespan_s);
    }

    #[test]
    fn io_jobs_go_to_big_cores() {
        let js = jobs(2, JobClass::Io);
        let out = run_queue(POOL, &js, Policy::PaperClassDriven(MetricKind::Edp));
        for c in &out.completions {
            assert_eq!(c.allocation.kind, CoreKind::Big);
            assert_eq!(c.allocation.cores, 4);
        }
    }

    #[test]
    fn allocation_clamped_to_pool() {
        let tiny = PoolConfig {
            big_cores: 2,
            little_cores: 2,
        };
        let js = jobs(1, JobClass::Compute);
        let out = run_queue(tiny, &js, Policy::PaperClassDriven(MetricKind::Edp));
        assert_eq!(out.completions[0].allocation.cores, 2, "clamped from 8");
    }

    #[test]
    fn queueing_delays_are_visible() {
        // Two compute jobs arriving together on an 8-little pool: the
        // second waits for the first.
        let mut js = jobs(2, JobClass::Compute);
        js[1].arrival_s = 0.0;
        let out = run_queue(POOL, &js, Policy::PaperClassDriven(MetricKind::Edp));
        let waited = out
            .completions
            .iter()
            .filter(|c| c.wait_s(0.0) > 1.0)
            .count();
        assert_eq!(waited, 1);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_arrivals_rejected() {
        let mut js = jobs(2, JobClass::Compute);
        js[0].arrival_s = 5.0;
        js[1].arrival_s = 0.0;
        let _ = run_queue(POOL, &js, Policy::MaxPerformance);
    }

    #[test]
    #[should_panic(expected = "pool must have cores")]
    fn empty_pool_rejected() {
        let _ = run_queue(
            PoolConfig {
                big_cores: 0,
                little_cores: 0,
            },
            &jobs(1, JobClass::Compute),
            Policy::MaxPerformance,
        );
    }
}
