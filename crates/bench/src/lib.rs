//! Figure-regeneration harness for `hhsim`.
//!
//! `cargo run -p hhsim-bench --bin figures` regenerates **every** table
//! and figure of the paper as CSV under `results/`, plus the
//! paper-vs-measured calibration report. Speed is measured from outside,
//! by the `perf/` package behind `BENCHMARK.json`.

use std::io;

use hhsim_core::arch::presets;
use hhsim_core::energy::MetricKind;
use hhsim_core::faults::RecoveryPolicy;
use hhsim_core::figures::{
    fig19_faults, fig22_faults, FIG22_OVERSUB, MICRO_DATA, SCHED_BLOCK, TOPO_RACKS,
};
use hhsim_core::hdfs::{BlockSize, Topology};
use hhsim_core::workloads::AppId;
use hhsim_core::{NodeMix, PlacementKind, Reading, SimCache, SimConfig};

/// All artifact ids, in paper order.
pub fn artifact_ids() -> Vec<&'static str> {
    hhsim_core::figures::ARTIFACTS
        .iter()
        .map(|&(id, _)| id)
        .collect()
}

/// The representative heterogeneous run whose trace ships next to
/// `fig18.csv`: Sort (the I/O-bound app, where the class-aware placement
/// routes work to the big node) on 1 Xeon + 2 Atoms, EDP goal.
pub fn fig18_trace_config() -> SimConfig {
    SimConfig::new(AppId::Sort, presets::xeon_e5_2420())
        .data_per_node(MICRO_DATA)
        .block_size(SCHED_BLOCK)
        .mix(NodeMix {
            big: 1,
            little: 2,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        })
}

/// The representative fault-injection run whose trace ships next to
/// `fig19.csv`: WordCount on the 1 Xeon + 2 Atom mix under the Fig. 19
/// fault model at a 6% failure rate, plus a node MTTF tuned so exactly one
/// node crashes mid-run — the trace then shows re-executed attempts,
/// killed work draining off the dead node, and speculative backups.
pub fn fig19_trace_config() -> SimConfig {
    let faults = fig19_faults(0.12, true)
        .node_mttf(FIG19_TRACE_MTTF_S)
        .seed(FIG19_TRACE_SEED);
    SimConfig::new(AppId::WordCount, presets::xeon_e5_2420())
        .data_per_node(MICRO_DATA)
        .block_size(SCHED_BLOCK)
        .mix(NodeMix {
            big: 1,
            little: 2,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        })
        .faults(faults)
}

/// Node MTTF for the fig. 19 trace: long enough that only one of the
/// three nodes dies before the job drains, short enough that it dies
/// while work is still in flight.
pub const FIG19_TRACE_MTTF_S: f64 = 300.0;

/// Seed for the fig. 19 trace, picked (by sweeping a small grid) so the
/// single run exercises every recovery mechanism at once: re-executed
/// failures, a mid-run crash killing in-flight work, winning speculative
/// backups with cancelled rivals, and one blacklisted node.
pub const FIG19_TRACE_SEED: u64 = 6;

/// The representative rack-fabric run whose trace ships next to
/// `fig21.csv`: TeraSort on the 4 Xeon + 8 Atom mix over 4 racks with a
/// 16x-oversubscribed ToR uplink, at 64 MB blocks so map tasks outnumber
/// slots and late waves read rack-local and off-rack. The trace carries
/// the locality tier per span and the utilization CSV switches to its
/// tiered per-node columns.
pub fn fig21_trace_config() -> SimConfig {
    SimConfig::new(AppId::TeraSort, presets::xeon_e5_2420())
        .data_per_node(MICRO_DATA)
        .block_size(BlockSize::MB_64)
        .topology(Topology::racked(TOPO_RACKS, 16.0))
        .mix(NodeMix {
            big: 4,
            little: 8,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        })
}

/// Per-rack switch-failure rate (crashes/hour) for the fig. 22 trace:
/// hot enough that a rack dies mid-run with maps already shuffled.
pub const FIG22_TRACE_RATE: f64 = 10.0;

/// Seed for the fig. 22 trace, picked (by sweeping a small grid) so one
/// run exercises the whole correlated-failure story: a ToR switch crash
/// takes a rack offline, in-flight reduce fetches from the dead rack
/// cancel as fetch failures, the lost map outputs re-execute on
/// surviving replica holders, and repeated attempt failures escalate to
/// rack-granularity blacklisting — while the job still completes.
pub const FIG22_TRACE_SEED: u64 = 12;

/// The representative correlated-failure run whose trace ships next to
/// `fig22.csv`: TeraSort on the 4 Xeon + 8 Atom mix over the fig. 22
/// rack fabric, with the rack-failure model of [`fig22_faults`] plus a
/// 12% attempt-failure rate and an aggressive blacklist policy so the
/// rack-escalation path is visible in a single trace.
pub fn fig22_trace_config() -> SimConfig {
    let mut recovery = RecoveryPolicy::hadoop();
    recovery.spec_min_runtime_s = 2.0;
    recovery.blacklist_after = 1;
    recovery.rack_blacklist_after = 2;
    let faults = fig22_faults(FIG22_TRACE_RATE, true)
        .failure_rates(0.12, 0.0)
        .recovery(recovery)
        .seed(FIG22_TRACE_SEED);
    SimConfig::new(AppId::TeraSort, presets::xeon_e5_2420())
        .data_per_node(MICRO_DATA)
        .block_size(BlockSize::MB_256)
        .topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB))
        .mix(NodeMix {
            big: 4,
            little: 8,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        })
        .faults(faults)
}

/// The artifacts that ship a representative run's trace beside their
/// CSV (`<id>_trace.json`, `<id>_util.csv`), with that run's
/// configuration.
#[expect(
    clippy::type_complexity,
    reason = "a four-row table of (id, constructor); an alias would only add a name"
)]
pub const TRACES: [(&str, fn() -> SimConfig); 4] = [
    ("fig18", fig18_trace_config),
    ("fig19", fig19_trace_config),
    ("fig21", fig21_trace_config),
    ("fig22", fig22_trace_config),
];

/// Runs `cfg` on the cluster engine and streams its timeline out: the
/// Chrome trace into `trace`, the per-node utilization steps into `util`.
/// Written incrementally, so the export stays flat in memory at any span
/// count (wrap files in a `BufWriter`).
///
/// # Errors
///
/// The writers' I/O errors, and the run's
/// [`SimError`](hhsim_core::SimError) (an invalid config, an
/// unrecoverable run) as [`io::Error::other`].
pub fn write_trace(
    cfg: &SimConfig,
    trace: &mut impl io::Write,
    util: &mut impl io::Write,
) -> io::Result<()> {
    let (_, timeline) = cfg
        .run(SimCache::global(), Reading::Traced)
        .map_err(io::Error::other)?;
    let timeline = timeline.ok_or_else(|| io::Error::other("a traced run fills a timeline"))?;
    timeline.write_chrome_trace(trace)?;
    timeline.write_utilization_csv(util)
}

/// [`write_trace`] of [`fig18_trace_config`].
pub fn write_fig18_trace(trace: &mut impl io::Write, util: &mut impl io::Write) -> io::Result<()> {
    write_trace(&fig18_trace_config(), trace, util)
}

/// [`write_trace`] of [`fig19_trace_config`].
pub fn write_fig19_trace(trace: &mut impl io::Write, util: &mut impl io::Write) -> io::Result<()> {
    write_trace(&fig19_trace_config(), trace, util)
}

/// [`write_trace`] of [`fig21_trace_config`].
pub fn write_fig21_trace(trace: &mut impl io::Write, util: &mut impl io::Write) -> io::Result<()> {
    write_trace(&fig21_trace_config(), trace, util)
}

/// [`write_trace`] of [`fig22_trace_config`].
pub fn write_fig22_trace(trace: &mut impl io::Write, util: &mut impl io::Write) -> io::Result<()> {
    write_trace(&fig22_trace_config(), trace, util)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhsim_core::Measurement;

    /// The measurement of `cfg`, read as the trace writer reads it.
    fn measured(cfg: &SimConfig) -> Measurement {
        cfg.run(SimCache::global(), Reading::Traced)
            .expect("a traced config runs")
            .0
    }

    /// The config of a [`TRACES`] entry.
    fn traced_config(id: &str) -> SimConfig {
        let (_, cfg) = TRACES
            .iter()
            .find(|(tid, _)| *tid == id)
            .expect("a traced artifact");
        cfg()
    }

    /// `(chrome_trace_json, util_csv)` of a [`TRACES`] entry, as
    /// [`write_trace`] writes them.
    fn trace_of(id: &str) -> (String, String) {
        let (mut json, mut util) = (Vec::new(), Vec::new());
        write_trace(&traced_config(id), &mut json, &mut util).expect("write into a Vec");
        (
            String::from_utf8(json).expect("utf-8 trace"),
            String::from_utf8(util).expect("utf-8 csv"),
        )
    }

    /// [`trace_of`] computed afresh, on a memo of its own: what the
    /// writer's run on the process-wide memo is compared with.
    fn fresh_trace_of(id: &str) -> (String, String) {
        let (_, timeline) = (traced_config(id).run(&SimCache::new(), Reading::Traced))
            .expect("a traced config runs");
        let timeline = timeline.expect("a traced run fills a timeline");
        let (mut json, mut util) = (Vec::new(), Vec::new());
        timeline
            .write_chrome_trace(&mut json)
            .expect("write into a Vec");
        timeline
            .write_utilization_csv(&mut util)
            .expect("write into a Vec");
        (
            String::from_utf8(json).expect("utf-8 trace"),
            String::from_utf8(util).expect("utf-8 csv"),
        )
    }

    /// The shipped `results/<id>_trace.json` / `<id>_util.csv` are what
    /// the writer produces today.
    fn assert_checked_in_trace_is_current(id: &str) {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let (json, util) = trace_of(id);
        let disk_json = std::fs::read_to_string(format!("{root}/results/{id}_trace.json"))
            .expect("trace JSON is checked in");
        let disk_util = std::fs::read_to_string(format!("{root}/results/{id}_util.csv"))
            .expect("utilization CSV is checked in");
        assert_eq!(json, disk_json, "regenerate with the figures binary");
        assert_eq!(util, disk_util, "regenerate with the figures binary");
    }

    #[test]
    fn write_trace_returns_a_broken_config_as_an_error() {
        let mut cfg = fig18_trace_config();
        cfg.data_per_node_bytes = 0;
        let err = write_trace(&cfg, &mut Vec::new(), &mut Vec::new())
            .expect_err("a config without data does not run");
        assert_eq!(err.to_string(), "invalid config: there is no input data");
    }

    #[test]
    fn ids_cover_all_artifacts() {
        let ids = artifact_ids();
        assert!(ids.contains(&"table3"));
        assert!(ids.contains(&"fig17"));
        assert!(ids.contains(&"fig18"));
        assert!(ids.contains(&"fig19"));
        assert!(ids.contains(&"fig20"));
        assert!(ids.contains(&"fig21"));
        assert!(ids.contains(&"fig22"));
        assert_eq!(ids.len(), 25);
    }

    #[test]
    fn fig18_trace_is_deterministic_and_well_formed() {
        let (json, csv) = trace_of("fig18");
        let (json2, csv2) = fresh_trace_of("fig18");
        assert_eq!(json, json2, "trace export must be deterministic");
        assert_eq!(csv, csv2);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(csv.starts_with("node,name,time_s,active_slots\n"));
    }

    #[test]
    fn fig19_trace_shows_recovery_in_action() {
        let m = measured(&fig19_trace_config());
        assert_eq!(m.faults.node_crashes, 1, "exactly one node dies mid-run");
        assert!(m.faults.failed_attempts > 0, "12% rate must fail attempts");
        assert!(
            m.faults.killed_attempts > 0,
            "the crash kills in-flight work"
        );
        assert!(m.faults.speculative_wins > 0, "some backups must win");
        assert_eq!(m.faults.blacklisted_nodes, 1, "one node gets blacklisted");
        let (json, csv) = trace_of("fig19");
        let (json2, csv2) = fresh_trace_of("fig19");
        assert_eq!(json, json2, "trace export must be deterministic");
        assert_eq!(csv, csv2);
        assert!(json.contains("\"outcome\":\"killed\""));
        assert!(json.contains("\"outcome\":\"cancelled\""));
        assert!(json.contains("\"attempt\":"));
    }

    #[test]
    fn fig21_trace_carries_locality_tiers() {
        let m = measured(&fig21_trace_config());
        let [nl, rl, of] = m.map_locality_tiers;
        assert!(nl > 0, "writer-local replicas keep most reads on-node");
        assert!(
            rl + of > 0,
            "64 MB blocks must push some reads off-node: {:?}",
            m.map_locality_tiers
        );
        let (json, csv) = trace_of("fig21");
        let (json2, csv2) = fresh_trace_of("fig21");
        assert_eq!(json, json2, "trace export must be deterministic");
        assert_eq!(csv, csv2);
        assert!(json.contains("\"tier\":\"rack-local\"") || json.contains("\"tier\":\"off-rack\""));
        assert!(
            csv.starts_with("node,name,time_s,active_slots,node_local,rack_local,off_rack\n"),
            "tiered utilization header"
        );
    }

    #[test]
    fn checked_in_fig21_trace_is_current() {
        assert_checked_in_trace_is_current("fig21");
    }

    #[test]
    fn checked_in_fig18_trace_is_current() {
        assert_checked_in_trace_is_current("fig18");
    }

    #[test]
    fn checked_in_fig19_trace_is_current() {
        assert_checked_in_trace_is_current("fig19");
    }

    #[test]
    fn fig22_trace_shows_correlated_failure_recovery() {
        let m = measured(&fig22_trace_config());
        let f = &m.faults;
        assert!(f.rack_crashes >= 1, "a ToR switch must die mid-run");
        assert!(
            f.fetch_failures > 0,
            "in-flight reduces must register fetch failures"
        );
        assert!(
            f.reexecuted_maps > 0,
            "lost map outputs must re-execute on surviving replicas"
        );
        assert!(
            f.racks_blacklisted >= 1,
            "attempt failures must escalate to a rack blacklist"
        );
        let (json, csv) = trace_of("fig22");
        let (json2, csv2) = fresh_trace_of("fig22");
        assert_eq!(json, json2, "trace export must be deterministic");
        assert_eq!(csv, csv2);
        // The correlated-failure vocabulary is all visible in one trace…
        assert!(json.contains("\"outcome\":\"fetch-failed\""));
        assert!(json.contains("\"outcome\":\"recovered\""));
        assert!(json.contains("\"name\":\"rack-crash:"));
        assert!(json.contains("\"name\":\"rack-blacklisted:"));
        // …and in none of the clean traces (golden-vocabulary negative).
        for clean in [
            trace_of("fig18").0,
            trace_of("fig19").0,
            trace_of("fig21").0,
        ] {
            assert!(!clean.contains("fetch-failed"));
            assert!(!clean.contains("\"outcome\":\"recovered\""));
            assert!(!clean.contains("rack-crash"));
            assert!(!clean.contains("rack-blacklisted"));
        }
    }

    #[test]
    fn checked_in_fig22_trace_is_current() {
        assert_checked_in_trace_is_current("fig22");
    }
}
