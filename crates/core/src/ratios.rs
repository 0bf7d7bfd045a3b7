//! Scale-invariant dataflow ratios extracted from one functional run.
//!
//! The MapReduce engine executes each application for real at MB scale;
//! per-byte ratios (map selectivity, output volume) are scale-invariant
//! for these workloads, so the timing model can extrapolate them to the
//! paper's 1–20 GB/node runs. Spill and merge *counts* are recomputed
//! analytically at target scale (they depend on absolute buffer sizes).
//! The distinct-key space — which caps what a combiner can materialize —
//! is the one the reference run measured, at every input size: the input
//! generators draw keys from bounded vocabularies (WordCount's text from
//! 60 000 words), so the key space does not keep growing with input.
//!
//! Chained applications (Grep, FP-Growth) keep **per-job** ratios: Grep's
//! second job consumes a tiny match table, while FP-Growth's second job
//! re-reads the full input and does the expensive mining in its reducers.

use hhsim_mapreduce::JobStats;
use hhsim_workloads::{AppId, FunctionalConfig, FunctionalRun};

/// Reference functional scale: large enough for stable ratios, small
/// enough to execute in milliseconds.
const REF_INPUT_BYTES: u64 = 768 << 10;
const REF_BLOCK_BYTES: u64 = 96 << 10;
const REF_SORT_BUFFER: u64 = 64 << 10;
const REF_REDUCERS: usize = 4;
const REF_SEED: u64 = 0x5eed;
/// The quarter-size scale of [`AppRatios::small_config`].
const SMALL_INPUT_BYTES: u64 = 192 << 10;

/// Per-byte dataflow ratios of one MapReduce job within an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRatios {
    /// This job's input bytes relative to the application input (job 0 is
    /// 1.0; Grep's sort job is tiny, FP-Growth's mining job ≈ 1.0).
    pub input_fraction: f64,
    /// Map output bytes per job-input byte (before combining).
    pub map_selectivity: f64,
    /// Whether a combiner runs.
    pub has_combiner: bool,
    /// Whether the job has a reduce phase.
    pub has_reduce: bool,
    /// Final output bytes per job-input byte.
    pub output_selectivity: f64,
    /// Bytes of one copy of the distinct intermediate key space.
    pub distinct_key_bytes: f64,
}

impl JobRatios {
    fn from_stats(s: &JobStats, app_input: f64) -> Self {
        let input = s.map_input_bytes.max(1) as f64;
        let rec_bytes = if s.map_materialized_records > 0 {
            s.map_materialized_bytes as f64 / s.map_materialized_records as f64
        } else {
            0.0
        };
        JobRatios {
            input_fraction: input / app_input,
            map_selectivity: s.map_selectivity(),
            has_combiner: s.combine_input_records > 0,
            has_reduce: s.reduce_tasks > 0,
            output_selectivity: s.output_bytes as f64 / input,
            distinct_key_bytes: distinct_keys(s) as f64 * rec_bytes,
        }
    }
}

/// Distinct intermediate keys observed in a job (reduce groups, or output
/// records for map-only jobs).
fn distinct_keys(s: &JobStats) -> u64 {
    if s.reduce_tasks > 0 {
        s.reduce_input_groups
    } else {
        s.output_records
    }
}

/// All ratios of one application: one entry per chained job.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRatios {
    /// Per-job ratios in execution order.
    pub jobs: Vec<JobRatios>,
}

impl AppRatios {
    /// Computes ratios from a reference-scale functional run.
    pub fn from_run(reference: &FunctionalRun) -> Self {
        let app_input = reference.per_job[0].map_input_bytes.max(1) as f64;
        let jobs = (reference.per_job.iter())
            .map(|s| JobRatios::from_stats(s, app_input))
            .collect();
        AppRatios { jobs }
    }

    /// The reference-scale functional configuration the ratios are
    /// measured at.
    pub fn reference_config() -> FunctionalConfig {
        FunctionalConfig {
            input_bytes: REF_INPUT_BYTES,
            block_bytes: REF_BLOCK_BYTES,
            sort_buffer_bytes: REF_SORT_BUFFER,
            num_reducers: REF_REDUCERS,
            seed: REF_SEED,
        }
    }

    /// A quarter-size functional scale. No pricing reads it: the ratios
    /// come from [`reference_config`](Self::reference_config) alone. The
    /// functional pins and the benchmark's functional probe run it beside
    /// the reference scale.
    pub fn small_config() -> FunctionalConfig {
        FunctionalConfig {
            input_bytes: SMALL_INPUT_BYTES,
            block_bytes: REF_BLOCK_BYTES / 2,
            sort_buffer_bytes: REF_SORT_BUFFER / 2,
            num_reducers: REF_REDUCERS,
            seed: REF_SEED + 1,
        }
    }

    /// Computes `app`'s ratios from scratch (no memoization): executes
    /// the reference functional run and derives the ratios.
    pub fn compute(app: AppId) -> AppRatios {
        AppRatios::from_run(&app.run_functional(&Self::reference_config()))
    }

    /// First (primary) job's ratios.
    pub fn primary(&self) -> &JobRatios {
        &self.jobs[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimCache;

    /// `hhsim-workloads`' functional pins run every app at both scales,
    /// which they restate; their table's `config` lines are these two.
    #[test]
    fn ratio_scales_are_the_pinned_functional_scales() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../workloads/tests/golden/functional.txt"
        );
        let pins = std::fs::read_to_string(path).expect("the functional pins are checked in");
        for (scale, cfg) in [
            ("reference", AppRatios::reference_config()),
            ("small", AppRatios::small_config()),
        ] {
            let line = format!("config {scale} {cfg:?}");
            assert!(pins.lines().any(|l| l == line), "{path} lacks `{line}`");
        }
    }

    #[test]
    fn ratios_are_memoized_and_deterministic() {
        let a = SimCache::global().ratios(AppId::WordCount);
        let b = SimCache::global().ratios(AppId::WordCount);
        assert_eq!(a, b);
    }

    #[test]
    fn class_signatures_show_in_ratios() {
        let wc = SimCache::global().ratios(AppId::WordCount);
        let st = SimCache::global().ratios(AppId::Sort);
        let gp = SimCache::global().ratios(AppId::Grep);
        assert!(wc.primary().map_selectivity > 1.2);
        assert!(wc.primary().has_combiner);
        assert!(!st.primary().has_reduce, "paper: Sort has no reduce phase");
        assert!(!st.primary().has_combiner);
        assert!(st.primary().output_selectivity > 0.8);
        assert_eq!(gp.jobs.len(), 2);
        assert!(
            gp.jobs[1].input_fraction < 0.2,
            "Grep's sort job consumes the small match table: {}",
            gp.jobs[1].input_fraction
        );
    }

    #[test]
    fn fp_growth_second_job_reads_full_input_and_mines_in_reduce() {
        let fp = SimCache::global().ratios(AppId::FpGrowth);
        assert_eq!(fp.jobs.len(), 2);
        assert!(
            fp.jobs[1].input_fraction > 0.8,
            "PFP mining re-reads the transactions: {}",
            fp.jobs[1].input_fraction
        );
        assert!(!fp.jobs[1].has_combiner);
        assert!(fp.jobs[1].has_reduce);
    }

    #[test]
    fn all_apps_have_ratios() {
        for app in AppId::ALL {
            let r = SimCache::global().ratios(app);
            assert!(!r.jobs.is_empty(), "{app}");
            for j in &r.jobs {
                assert!(j.input_fraction > 0.0, "{app}");
            }
        }
    }
}
