//! Per-application, per-phase microarchitectural profiles.
//!
//! These encode the paper's characterization findings as model inputs:
//!
//! * WordCount, Naive Bayes and FP-Growth are **CPU intensive** — high
//!   instruction density per byte, hash/tree hot sets;
//! * Sort is **I/O intensive** — a handful of instructions per byte,
//!   pure streaming;
//! * Grep and TeraSort are **hybrid**;
//! * **reduce phases are memory intensive** (§3.2.2: "reduce phase, unlike
//!   map phase is memory intensive as it requires significant communication
//!   with memory subsystem") — larger working sets, more random traffic,
//!   lower ILP, so reduce time barely improves with frequency, which is
//!   exactly why the paper sees reduce-phase EDP *rise* with frequency for
//!   NB and GP.

use std::borrow::Cow;

use hhsim_arch::{ComputeProfile, MemoryProfile};

use crate::catalog::AppId;

/// Map-phase compute profile of `app`.
pub fn map_profile(app: AppId) -> ComputeProfile {
    let (name, ipb, ilp, activity, mem) = match app {
        AppId::WordCount => (
            "WC-map",
            78.0,
            1.55,
            0.78,
            MemoryProfile {
                accesses_per_instr: 0.30,
                working_set_bytes: 256 << 20,
                hot_set_bytes: 28 << 10, // token hash table hot path
                hot_fraction: 0.86,
                streaming_fraction: 0.11,
            },
        ),
        AppId::Sort => (
            "ST-map",
            9.0,
            1.8,
            0.55,
            MemoryProfile {
                accesses_per_instr: 0.34,
                working_set_bytes: 512 << 20,
                hot_set_bytes: 16 << 10,
                hot_fraction: 0.55,
                streaming_fraction: 0.42, // pure record streaming
            },
        ),
        AppId::Grep => (
            "GP-map",
            24.0,
            1.45,
            0.74,
            MemoryProfile {
                accesses_per_instr: 0.30,
                working_set_bytes: 256 << 20,
                hot_set_bytes: 16 << 10,
                hot_fraction: 0.80,
                streaming_fraction: 0.17,
            },
        ),
        AppId::TeraSort => (
            "TS-map",
            19.0,
            1.5,
            0.62,
            MemoryProfile {
                accesses_per_instr: 0.32,
                working_set_bytes: 512 << 20,
                hot_set_bytes: 24 << 10,
                hot_fraction: 0.68,
                streaming_fraction: 0.28,
            },
        ),
        AppId::NaiveBayes => (
            "NB-map",
            90.0,
            1.45,
            0.80,
            MemoryProfile {
                accesses_per_instr: 0.31,
                working_set_bytes: 384 << 20,
                hot_set_bytes: 36 << 10,
                hot_fraction: 0.85,
                streaming_fraction: 0.10,
            },
        ),
        AppId::FpGrowth => (
            "FP-map",
            170.0,
            1.35,
            0.82,
            MemoryProfile {
                accesses_per_instr: 0.33,
                working_set_bytes: 512 << 20,
                hot_set_bytes: 48 << 10, // FP-tree nodes churn
                hot_fraction: 0.86,
                streaming_fraction: 0.08,
            },
        ),
    };
    ComputeProfile {
        name: Cow::Borrowed(name),
        instr_per_byte: ipb,
        ilp,
        activity,
        mem,
    }
}

/// Reduce-phase compute profile of `app` (memory intensive: large merge
/// working sets, pointer-chasing group iterators).
pub fn reduce_profile(app: AppId) -> ComputeProfile {
    let (name, ipb, ilp, activity, mem) = match app {
        AppId::WordCount => ("WC-reduce", 24.0, 1.3, 0.66, reduce_mem(128 << 20, 0.62)),
        AppId::Sort => ("ST-reduce", 8.0, 1.5, 0.52, reduce_mem(512 << 20, 0.50)),
        AppId::Grep => ("GP-reduce", 55.0, 1.25, 0.64, reduce_mem(192 << 20, 0.55)),
        AppId::TeraSort => ("TS-reduce", 22.0, 1.35, 0.58, reduce_mem(384 << 20, 0.58)),
        AppId::NaiveBayes => ("NB-reduce", 34.0, 1.25, 0.68, reduce_mem(256 << 20, 0.52)),
        AppId::FpGrowth => ("FP-reduce", 130.0, 1.3, 0.75, reduce_mem(512 << 20, 0.60)),
    };
    ComputeProfile {
        name: Cow::Borrowed(name),
        instr_per_byte: ipb,
        ilp,
        activity,
        mem,
    }
}

/// Common shape of reduce-phase memory behaviour: modest hot set, lots of
/// random merge traffic.
fn reduce_mem(working_set: u64, hot_fraction: f64) -> MemoryProfile {
    MemoryProfile {
        accesses_per_instr: 0.36,
        working_set_bytes: working_set,
        hot_set_bytes: 64 << 10,
        hot_fraction,
        streaming_fraction: 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for app in AppId::ALL {
            map_profile(app)
                .mem
                .validate()
                .unwrap_or_else(|e| panic!("{app:?} map: {e}"));
            reduce_profile(app)
                .mem
                .validate()
                .unwrap_or_else(|e| panic!("{app:?} reduce: {e}"));
        }
    }

    #[test]
    fn compute_apps_are_denser_than_io_apps() {
        let wc = map_profile(AppId::WordCount).instr_per_byte;
        let nb = map_profile(AppId::NaiveBayes).instr_per_byte;
        let fp = map_profile(AppId::FpGrowth).instr_per_byte;
        let st = map_profile(AppId::Sort).instr_per_byte;
        let ts = map_profile(AppId::TeraSort).instr_per_byte;
        assert!(st < ts && ts < wc && wc < nb && nb < fp);
    }

    #[test]
    fn reduce_is_more_memory_bound_than_map() {
        for app in AppId::ALL {
            let m = map_profile(app);
            let r = reduce_profile(app);
            assert!(
                r.mem.accesses_per_instr > m.mem.accesses_per_instr,
                "{app:?}"
            );
            assert!(r.ilp <= m.ilp, "{app:?}");
        }
    }

    /// The names seed the synthetic traces, so the literals must spell
    /// the short name and the phase, as they always have.
    #[test]
    fn profile_names_are_the_short_name_and_the_phase() {
        for app in AppId::ALL {
            assert_eq!(map_profile(app).name, format!("{}-map", app.short_name()));
            let reduce = format!("{}-reduce", app.short_name());
            assert_eq!(reduce_profile(app).name, reduce);
        }
    }

    #[test]
    fn sort_is_streaming_dominated() {
        let p = map_profile(AppId::Sort);
        assert!(p.mem.streaming_fraction > 0.4);
    }
}
