//! Scale-invariant dataflow ratios extracted from functional runs.
//!
//! The MapReduce engine executes each application for real at MB scale;
//! per-byte ratios (map selectivity, combiner reduction, output volume)
//! are scale-invariant for these workloads, so the timing model can
//! extrapolate them to the paper's 1–20 GB/node runs. Spill and merge
//! *counts* are recomputed analytically at target scale (they depend on
//! absolute buffer sizes), and the distinct-key space — which caps what a
//! combiner can materialize — is extrapolated with a Heaps'-law exponent
//! *measured* from two functional scales.
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
/// Secondary (smaller) scale used to fit the key-space growth exponent.
const SMALL_INPUT_BYTES: u64 = 192 << 10;

/// Per-byte dataflow ratios of one MapReduce job within an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRatios {
    /// This job's input bytes relative to the application input (job 0 is
    /// 1.0; Grep's sort job is tiny, FP-Growth's mining job ≈ 1.0).
    pub input_fraction: f64,
    /// Map output bytes per job-input byte (before combining).
    pub map_selectivity: f64,
    /// Materialized/emitted ratio observed functionally (no-combiner jobs:
    /// 1.0).
    pub combine_ratio: f64,
    /// Whether a combiner runs.
    pub has_combiner: bool,
    /// Whether the job has a reduce phase.
    pub has_reduce: bool,
    /// Final output bytes per job-input byte.
    pub output_selectivity: f64,
    /// Bytes of one copy of the distinct intermediate key space at the
    /// reference input size.
    pub distinct_key_bytes_ref: f64,
    /// Heaps'-law exponent: distinct keys ∝ input^beta (0 = fixed
    /// vocabulary, 1 = all keys unique).
    pub key_beta: f64,
    /// Reference input bytes the key space was measured at.
    pub ref_input_bytes: f64,
}

impl JobRatios {
    fn from_stats(s: &JobStats, small: Option<&JobStats>, app_input: f64) -> Self {
        let input = s.map_input_bytes.max(1) as f64;
        let rec_bytes = if s.map_materialized_records > 0 {
            s.map_materialized_bytes as f64 / s.map_materialized_records as f64
        } else {
            0.0
        };
        let keys_ref = distinct_keys(s) as f64;
        let key_beta = match small {
            Some(sm) if keys_ref > 0.0 => {
                let keys_small = distinct_keys(sm).max(1) as f64;
                let n_ratio = input / (sm.map_input_bytes.max(1) as f64);
                if n_ratio > 1.0 && keys_ref > keys_small {
                    ((keys_ref / keys_small).ln() / n_ratio.ln()).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            }
            _ => 0.0,
        };
        JobRatios {
            input_fraction: input / app_input,
            map_selectivity: s.map_selectivity(),
            combine_ratio: s.combine_ratio(),
            has_combiner: s.combine_input_records > 0,
            has_reduce: s.reduce_tasks > 0,
            output_selectivity: s.output_bytes as f64 / input,
            distinct_key_bytes_ref: keys_ref * rec_bytes,
            key_beta,
            ref_input_bytes: input,
        }
    }

    /// Distinct-key-space bytes expected when this job processes
    /// `input_bytes` of data, via the measured Heaps' exponent.
    pub fn distinct_key_bytes_at(&self, input_bytes: f64) -> f64 {
        if self.distinct_key_bytes_ref == 0.0 {
            return 0.0;
        }
        let scale = (input_bytes / self.ref_input_bytes).max(1e-6);
        self.distinct_key_bytes_ref * scale.powf(self.key_beta)
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
    /// Computes ratios from a pair of functional runs (reference + small
    /// scale for the Heaps' fit).
    pub fn from_runs(reference: &FunctionalRun, small: &FunctionalRun) -> Self {
        let app_input = reference.per_job[0].map_input_bytes.max(1) as f64;
        let jobs = reference
            .per_job
            .iter()
            .enumerate()
            .map(|(i, s)| JobRatios::from_stats(s, small.per_job.get(i), app_input))
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

    /// The secondary (smaller) scale used to fit the Heaps' exponent.
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
    /// both reference functional runs and derives the ratios.
    pub fn compute(app: AppId) -> AppRatios {
        let reference = app.run_functional(&Self::reference_config());
        let small = app.run_functional(&Self::small_config());
        AppRatios::from_runs(&reference, &small)
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

    /// `hhsim-workloads`' functional pins run the twelve ratio runs at
    /// scales they restate; their table's `config` lines are these two.
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
    fn text_apps_have_sublinear_key_growth() {
        let wc = SimCache::global().ratios(AppId::WordCount);
        let beta = wc.primary().key_beta;
        assert!(
            (0.2..=0.95).contains(&beta),
            "zipf text must show Heaps'-law growth, beta={beta}"
        );
        // Extrapolation grows monotonically and sublinearly.
        let k1 = wc.primary().distinct_key_bytes_at(1e9);
        let k10 = wc.primary().distinct_key_bytes_at(1e10);
        assert!(k10 > k1);
        assert!(k10 < 10.0 * k1);
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
