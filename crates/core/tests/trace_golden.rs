//! Golden tests for the cluster trace exports.
//!
//! The Chrome-trace JSON and utilization CSV are consumed by external
//! tools (chrome://tracing, plotting scripts), so their exact bytes are
//! pinned here. The scenario is a fixed mixed cluster running a map and a
//! reduce phase; the engine is deterministic, so any byte change means
//! the export schema (or the engine) changed and the goldens must be
//! re-blessed consciously: `BLESS_GOLDEN=1 cargo test -p hhsim-core
//! --test trace_golden`.

use hhsim_core::arch::CoreKind;
use hhsim_core::cluster::{
    run_phase, run_phase_faulty, Cluster, ClusterTimeline, FifoAnySlot, KindPreferring, NodeTiming,
    PhaseLoad, PhaseLocality,
};
use hhsim_core::faults::{FaultPlan, PhaseFaults, RecoveryPolicy};
use hhsim_testkit::streamed;

const GOLDEN_JSON: &str = include_str!("golden/cluster_trace.json");
const GOLDEN_CSV: &str = include_str!("golden/cluster_util.csv");
const GOLDEN_FAULTY_JSON: &str = include_str!("golden/faulty_trace.json");
const GOLDEN_TIERED_JSON: &str = include_str!("golden/tiered_trace.json");
const GOLDEN_TIERED_CSV: &str = include_str!("golden/tiered_util.csv");

/// A small but structurally rich scenario: 1 big node (2 slots) + 2
/// little nodes (2 slots each), 7 map tasks under the kind-aware
/// placement, then 3 reduce tasks under the greedy baseline.
fn timeline() -> ClusterTimeline {
    let cluster = Cluster::mixed(1, 2, 2, 2);
    let big = NodeTiming {
        task_seconds: 4.0,
        overhead_seconds: 0.25,
    };
    let little = NodeTiming {
        task_seconds: 11.0,
        overhead_seconds: 0.25,
    };
    let map = run_phase(
        &cluster,
        &PhaseLoad::by_kind(7, big, little, &cluster),
        &mut KindPreferring {
            preferred: CoreKind::Little,
        },
    );
    let red = run_phase(
        &cluster,
        &PhaseLoad::by_kind(3, big, little, &cluster),
        &mut FifoAnySlot,
    );
    let mut tl = ClusterTimeline::new(&cluster);
    tl.extend("map", 0.0, &map);
    tl.extend("reduce", map.makespan_s, &red);
    tl
}

/// The faulty counterpart: the same cluster under a 30% failure rate, a
/// mid-run crash of one little node and a straggling second little node,
/// with Hadoop recovery — the trace pins attempt numbers and outcome
/// labels for failed, killed, cancelled and re-executed attempts.
fn faulty_timeline() -> ClusterTimeline {
    let cluster = Cluster::mixed(1, 2, 2, 2);
    let big = NodeTiming {
        task_seconds: 4.0,
        overhead_seconds: 0.25,
    };
    let little = NodeTiming {
        task_seconds: 11.0,
        overhead_seconds: 0.25,
    };
    let faults = PhaseFaults {
        plan: FaultPlan::new(0x601D, 0, 0.3),
        crash_at_s: vec![None, Some(9.0), None],
        dead_at_start: vec![false; 3],
        slowdown: vec![1.0, 1.0, 2.0],
        policy: RecoveryPolicy::hadoop(),
        domains: hhsim_faults::PhaseDomains::default(),
    };
    let map = run_phase_faulty(
        &cluster,
        &PhaseLoad::by_kind(9, big, little, &cluster),
        &mut FifoAnySlot,
        Some(&faults),
    )
    .expect("map phase recovers");
    let mut tl = ClusterTimeline::new(&cluster);
    tl.extend("map", 0.0, &map);
    tl
}

/// The topology-aware counterpart: the same cluster over a two-rack
/// fabric (node 1 alone in rack 1) with every replica on node 0, so the
/// two slots there drain node-local while nodes 1/2 must read off-rack
/// and rack-local respectively. The trace pins the `"tier"` span
/// argument and the tiered utilization columns.
fn tiered_timeline() -> ClusterTimeline {
    let cluster = Cluster::mixed(1, 2, 2, 2);
    let big = NodeTiming {
        task_seconds: 4.0,
        overhead_seconds: 0.25,
    };
    let little = NodeTiming {
        task_seconds: 11.0,
        overhead_seconds: 0.25,
    };
    let locality = PhaseLocality {
        replicas: vec![vec![0]; 7],
        racks: 2,
        read_seconds: [0.0, 1.5, 4.0],
    };
    let map = run_phase(
        &cluster,
        &PhaseLoad::by_kind(7, big, little, &cluster).with_locality(locality),
        &mut FifoAnySlot,
    );
    let red = run_phase(
        &cluster,
        &PhaseLoad::by_kind(3, big, little, &cluster).with_extra_seconds(vec![0.5, 2.0, 0.0]),
        &mut FifoAnySlot,
    );
    let mut tl = ClusterTimeline::new(&cluster);
    tl.extend("map", 0.0, &map);
    tl.extend("reduce", map.makespan_s, &red);
    tl
}

fn bless(rel: &str, content: &str) {
    let path = format!("{}/tests/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(path, content).expect("bless golden");
}

#[test]
fn chrome_trace_json_matches_golden() {
    let json = streamed(|w| timeline().write_chrome_trace(w));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        bless("golden/cluster_trace.json", &json);
        return;
    }
    assert_eq!(
        json, GOLDEN_JSON,
        "Chrome-trace export changed; re-bless with BLESS_GOLDEN=1 if intended"
    );
}

#[test]
fn utilization_csv_matches_golden() {
    let csv = streamed(|w| timeline().write_utilization_csv(w));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        bless("golden/cluster_util.csv", &csv);
        return;
    }
    assert_eq!(
        csv, GOLDEN_CSV,
        "utilization export changed; re-bless with BLESS_GOLDEN=1 if intended"
    );
}

#[test]
fn faulty_chrome_trace_json_matches_golden() {
    let json = streamed(|w| faulty_timeline().write_chrome_trace(w));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        bless("golden/faulty_trace.json", &json);
        return;
    }
    assert_eq!(
        json, GOLDEN_FAULTY_JSON,
        "faulty Chrome-trace export changed; re-bless with BLESS_GOLDEN=1 if intended"
    );
}

#[test]
fn faulty_golden_shows_recovery_vocabulary() {
    // Attempt/outcome args only appear on re-executed or wasted attempts,
    // so their presence here (and absence in the clean golden) pins the
    // backward-compatible trace schema.
    assert!(GOLDEN_FAULTY_JSON.contains("\"attempt\":"));
    assert!(GOLDEN_FAULTY_JSON.contains("\"outcome\":\"failed\""));
    assert!(GOLDEN_FAULTY_JSON.contains("\"outcome\":\"killed\""));
    assert!(!GOLDEN_JSON.contains("\"attempt\":"));
    assert!(!GOLDEN_JSON.contains("\"outcome\":"));
}

#[test]
fn tiered_chrome_trace_json_matches_golden() {
    let json = streamed(|w| tiered_timeline().write_chrome_trace(w));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        bless("golden/tiered_trace.json", &json);
        return;
    }
    assert_eq!(
        json, GOLDEN_TIERED_JSON,
        "tiered Chrome-trace export changed; re-bless with BLESS_GOLDEN=1 if intended"
    );
}

#[test]
fn tiered_utilization_csv_matches_golden() {
    let csv = streamed(|w| tiered_timeline().write_utilization_csv(w));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        bless("golden/tiered_util.csv", &csv);
        return;
    }
    assert_eq!(
        csv, GOLDEN_TIERED_CSV,
        "tiered utilization export changed; re-bless with BLESS_GOLDEN=1 if intended"
    );
}

#[test]
fn tiered_golden_shows_locality_vocabulary() {
    // The `tier` span arg only appears on remote reads, and the
    // utilization CSV only switches to its tiered columns when a remote
    // tier exists — so their presence here (and absence in the clean
    // golden) pins the backward-compatible schema on both sides.
    assert!(GOLDEN_TIERED_JSON.contains("\"tier\":\"rack-local\""));
    assert!(GOLDEN_TIERED_JSON.contains("\"tier\":\"off-rack\""));
    assert!(GOLDEN_TIERED_CSV
        .starts_with("node,name,time_s,active_slots,node_local,rack_local,off_rack\n"));
    assert!(!GOLDEN_JSON.contains("\"tier\":"));
    assert!(GOLDEN_CSV.starts_with("node,name,time_s,active_slots\n"));
}

#[test]
fn exports_are_deterministic_across_runs() {
    let a = timeline();
    let b = timeline();
    assert_eq!(
        streamed(|w| a.write_chrome_trace(w)),
        streamed(|w| b.write_chrome_trace(w))
    );
    assert_eq!(
        streamed(|w| a.write_utilization_csv(w)),
        streamed(|w| b.write_utilization_csv(w))
    );
}

#[test]
fn golden_json_is_structurally_sound() {
    // Cheap structural checks that hold for any valid export, so schema
    // drift is caught even when someone blesses blindly.
    assert!(GOLDEN_JSON.starts_with("{\"displayTimeUnit\":\"ms\""));
    assert!(GOLDEN_JSON.trim_end().ends_with("]}"));
    assert_eq!(
        GOLDEN_JSON.matches("\"ph\":\"X\"").count(),
        10,
        "7 map + 3 reduce complete events"
    );
    assert_eq!(
        GOLDEN_JSON.matches("process_name").count(),
        3,
        "one metadata event per node"
    );
    assert!(GOLDEN_CSV.starts_with("node,name,time_s,active_slots\n"));
    assert!(GOLDEN_CSV.lines().count() > 3);
}
