//! The application catalog (Table 2) and the uniform functional-run entry
//! point used by the experiment harness.

use bytes::Bytes;
use hhsim_arch::ComputeProfile;
use hhsim_mapreduce::{run_map_only_job, JobConfig, JobStats};

use crate::{datagen, fp_growth, grep, naive_bayes, profiles, sort, terasort, wordcount};

/// Application class per the paper's scheduling pseudo-code (§3.5):
/// compute bound (C), I/O bound (I) or hybrid (H).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// Compute bound — favours many little cores.
    Compute,
    /// I/O bound — favours a few big cores.
    Io,
    /// Hybrid — decided by the cost metric.
    Hybrid,
}

/// The six studied applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// WordCount (WC) — CPU-intensive micro-benchmark.
    WordCount,
    /// Sort (ST) — I/O-intensive micro-benchmark; no reduce phase in the
    /// paper's accounting.
    Sort,
    /// Grep (GP) — hybrid micro-benchmark, two chained jobs.
    Grep,
    /// TeraSort (TS) — hybrid micro-benchmark with sampling.
    TeraSort,
    /// Naive Bayes (NB) — real-world classification (Mahout).
    NaiveBayes,
    /// FP-Growth (FP) — real-world association rule mining (Mahout).
    FpGrowth,
}

impl AppId {
    /// All six applications in the paper's reporting order.
    pub const ALL: [AppId; 6] = [
        AppId::WordCount,
        AppId::Sort,
        AppId::Grep,
        AppId::TeraSort,
        AppId::NaiveBayes,
        AppId::FpGrowth,
    ];

    /// The Hadoop micro-benchmarks (1 GB/node experiments).
    pub const MICRO: [AppId; 4] = [AppId::WordCount, AppId::Sort, AppId::Grep, AppId::TeraSort];

    /// The real-world applications (10 GB/node experiments).
    pub const REAL: [AppId; 2] = [AppId::NaiveBayes, AppId::FpGrowth];

    /// Two-letter tag used throughout the paper's figures.
    pub fn short_name(self) -> &'static str {
        match self {
            AppId::WordCount => "WC",
            AppId::Sort => "ST",
            AppId::Grep => "GP",
            AppId::TeraSort => "TS",
            AppId::NaiveBayes => "NB",
            AppId::FpGrowth => "FP",
        }
    }

    /// Full name as in Table 2.
    pub fn full_name(self) -> &'static str {
        match self {
            AppId::WordCount => "WordCount",
            AppId::Sort => "Sort",
            AppId::Grep => "Grep",
            AppId::TeraSort => "TeraSort",
            AppId::NaiveBayes => "Naive Bayes",
            AppId::FpGrowth => "FP-Growth",
        }
    }

    /// Application domain as in Table 2.
    pub fn domain(self) -> &'static str {
        match self {
            AppId::WordCount | AppId::Sort | AppId::Grep | AppId::TeraSort => {
                "I/O - CPU testing micro program"
            }
            AppId::NaiveBayes => "Classification",
            AppId::FpGrowth => "Association Rule Mining",
        }
    }

    /// Compute/Io/Hybrid classification used by the scheduler.
    pub fn class(self) -> AppClass {
        match self {
            AppId::WordCount | AppId::NaiveBayes | AppId::FpGrowth => AppClass::Compute,
            AppId::Sort => AppClass::Io,
            AppId::Grep | AppId::TeraSort => AppClass::Hybrid,
        }
    }

    /// True for the real-world (Mahout) applications.
    pub fn is_real_world(self) -> bool {
        matches!(self, AppId::NaiveBayes | AppId::FpGrowth)
    }

    /// Whether the paper's accounting gives this application a reduce
    /// phase ("Note that Sort benchmark has no reduce phase", §3.1.1).
    pub fn has_reduce(self) -> bool {
        !matches!(self, AppId::Sort)
    }

    /// Map-phase microarchitectural profile.
    pub fn map_profile(self) -> ComputeProfile {
        profiles::map_profile(self)
    }

    /// Reduce-phase microarchitectural profile.
    pub fn reduce_profile(self) -> ComputeProfile {
        profiles::reduce_profile(self)
    }

    /// Generates `bytes` of this application's input data.
    pub fn generate_input(self, bytes: u64, seed: u64) -> Bytes {
        match self {
            AppId::WordCount | AppId::Grep => datagen::text(bytes, seed),
            AppId::Sort => datagen::table(bytes, seed),
            AppId::TeraSort => datagen::teragen(bytes, seed),
            AppId::NaiveBayes => datagen::labeled_docs(bytes, 4, seed),
            AppId::FpGrowth => datagen::transactions(bytes, seed),
        }
    }

    /// Executes the application functionally over generated data and
    /// returns merged dataflow statistics (chained jobs are summed).
    pub fn run_functional(self, cfg: &FunctionalConfig) -> FunctionalRun {
        let input = self.generate_input(cfg.input_bytes, cfg.seed);
        let job_cfg = JobConfig::default()
            .num_reducers(cfg.num_reducers)
            .sort_buffer_bytes(cfg.sort_buffer_bytes);
        match self {
            AppId::WordCount => {
                let res = wordcount::run(&input, cfg.block_bytes, job_cfg);
                FunctionalRun::single(res.stats)
            }
            AppId::Sort => {
                // The paper accounts Sort as map-phase only; run map-only so
                // the statistics carry no reduce/shuffle component.
                let job = sort::job(job_cfg);
                let splits = hhsim_mapreduce::text_splits_from_bytes(&input, cfg.block_bytes);
                let res = run_map_only_job(&job, splits);
                FunctionalRun::single(res.stats)
            }
            AppId::Grep => {
                let res = grep::run(&input, "the", cfg.block_bytes, job_cfg);
                FunctionalRun::chained(vec![res.search_stats, res.sort_stats])
            }
            AppId::TeraSort => {
                let res = terasort::run(&input, cfg.block_bytes, job_cfg);
                FunctionalRun::single(res.stats)
            }
            AppId::NaiveBayes => {
                // The statistics are all a run keeps: no model is assembled.
                let res = naive_bayes::train_job(&input, cfg.block_bytes, job_cfg);
                FunctionalRun::single(res.stats)
            }
            AppId::FpGrowth => {
                let min_support = (cfg.input_bytes / 1200).max(3);
                // As with NB, the statistics are all a run keeps: the
                // mined patterns are not decoded into item names.
                let jobs = fp_growth::run_jobs(
                    &input,
                    min_support,
                    cfg.num_reducers.max(1) as u32,
                    cfg.block_bytes,
                    job_cfg,
                );
                FunctionalRun::chained(vec![jobs.count_stats, jobs.mine.stats])
            }
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

/// Configuration of a functional (MB-scale) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionalConfig {
    /// Input size to generate, bytes.
    pub input_bytes: u64,
    /// Split/block size, bytes.
    pub block_bytes: u64,
    /// Map-side sort buffer, bytes (scale it with `block_bytes` to keep
    /// spill behaviour faithful to full-scale runs).
    pub sort_buffer_bytes: u64,
    /// Reduce task count.
    pub num_reducers: usize,
    /// RNG seed for input generation.
    pub seed: u64,
}

/// Outcome of a functional run: merged statistics over all chained jobs,
/// plus the per-job statistics (Grep and FP-Growth chain two jobs whose
/// dataflow shapes differ radically).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalRun {
    /// Summed dataflow statistics.
    pub stats: JobStats,
    /// Statistics of each chained job, in execution order.
    pub per_job: Vec<JobStats>,
}

impl FunctionalRun {
    fn single(stats: JobStats) -> Self {
        FunctionalRun {
            stats,
            per_job: vec![stats],
        }
    }

    fn chained(per_job: Vec<JobStats>) -> Self {
        let mut stats = JobStats::default();
        for &s in &per_job {
            stats.absorb(s);
        }
        FunctionalRun { stats, per_job }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FunctionalConfig {
        FunctionalConfig {
            input_bytes: 48 << 10,
            block_bytes: 12 << 10,
            sort_buffer_bytes: 8 << 10,
            num_reducers: 2,
            seed: 21,
        }
    }

    #[test]
    fn table2_catalog_is_complete() {
        assert_eq!(AppId::ALL.len(), 6);
        assert_eq!(AppId::MICRO.len(), 4);
        assert_eq!(AppId::REAL.len(), 2);
        for app in AppId::ALL {
            assert!(!app.short_name().is_empty());
            assert!(!app.full_name().is_empty());
            assert!(!app.domain().is_empty());
        }
        assert_eq!(AppId::WordCount.class(), AppClass::Compute);
        assert_eq!(AppId::Sort.class(), AppClass::Io);
        assert_eq!(AppId::Grep.class(), AppClass::Hybrid);
        assert_eq!(AppId::TeraSort.class(), AppClass::Hybrid);
        assert_eq!(AppId::NaiveBayes.class(), AppClass::Compute);
        assert_eq!(AppId::FpGrowth.class(), AppClass::Compute);
    }

    #[test]
    fn every_app_runs_functionally() {
        for app in AppId::ALL {
            let run = app.run_functional(&cfg());
            assert!(run.stats.map_tasks >= 4, "{app}: {}", run.stats.map_tasks);
            assert!(run.stats.map_input_bytes > 0, "{app}");
            assert!(run.stats.output_records > 0, "{app}");
        }
    }

    #[test]
    fn sort_has_no_reduce_phase() {
        let run = AppId::Sort.run_functional(&cfg());
        assert!(!AppId::Sort.has_reduce());
        assert_eq!(run.stats.reduce_tasks, 0);
        assert_eq!(run.stats.shuffle_bytes, 0);
        for app in AppId::ALL {
            if app != AppId::Sort {
                assert!(app.has_reduce(), "{app}");
            }
        }
    }

    #[test]
    fn chained_apps_report_two_jobs() {
        assert_eq!(AppId::Grep.run_functional(&cfg()).per_job.len(), 2);
        assert_eq!(AppId::FpGrowth.run_functional(&cfg()).per_job.len(), 2);
        assert_eq!(AppId::WordCount.run_functional(&cfg()).per_job.len(), 1);
    }

    #[test]
    fn map_task_count_tracks_block_size() {
        let small = AppId::WordCount.run_functional(&FunctionalConfig {
            block_bytes: 6 << 10,
            ..cfg()
        });
        let large = AppId::WordCount.run_functional(&FunctionalConfig {
            block_bytes: 24 << 10,
            ..cfg()
        });
        assert!(small.stats.map_tasks > large.stats.map_tasks);
    }

    #[test]
    fn functional_runs_are_deterministic() {
        let a = AppId::TeraSort.run_functional(&cfg());
        let b = AppId::TeraSort.run_functional(&cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn selectivities_differentiate_classes() {
        // WordCount inflates bytes; Sort preserves; Grep shrinks.
        let wc = AppId::WordCount
            .run_functional(&cfg())
            .stats
            .map_selectivity();
        let st = AppId::Sort.run_functional(&cfg()).stats.map_selectivity();
        let gp = AppId::Grep.run_functional(&cfg()).stats.map_selectivity();
        assert!(wc > 1.2, "WC {wc}");
        assert!((0.85..=1.1).contains(&st), "ST {st}");
        assert!(gp < 0.5, "GP {gp}");
    }
}
