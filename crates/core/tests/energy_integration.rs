//! Integration tests for the event-driven energy integration path.
//!
//! The engine integrates power exactly, piecewise over active-slot
//! transitions, beside the 1 Hz metered view of the same segments (the
//! meter's own bit-equality and error-bound properties live with it, in
//! `hhsim-energy`'s `integrate` tests). These tests pin the two at the
//! model level: whole engine runs (exact vs metered agreement) and the
//! checked-in fig18/fig19 artifacts (byte-identical CSV regeneration).

use hhsim_core::{figures, FigureData};

#[test]
fn engine_exact_energy_tracks_metered_energy() {
    use hhsim_core::arch::presets;
    use hhsim_core::workloads::AppId;
    use hhsim_core::{Reading, SimCache, SimConfig};

    let cache = SimCache::new();
    for (app, machine) in [
        (AppId::WordCount, presets::atom_c2758()),
        (AppId::TeraSort, presets::xeon_e5_2420()),
    ] {
        let cfg = SimConfig::new(app, machine).faults(figures::fig19_faults(0.06, true));
        let (m, _) = cfg
            .run(&cache, Reading::Auto)
            .expect("fig19's fault model recovers");
        assert!(m.exact_energy_j > 0.0, "{app:?}: exact energy present");
        // Long cluster runs sample thousands of 1 Hz points, so the
        // views agree tightly; the exact value is the ground truth.
        let rel = (m.exact_energy_j - m.energy_j).abs() / m.exact_energy_j;
        assert!(
            rel < 0.02,
            "{app:?}: metered vs exact dynamic energy drift {rel}"
        );
    }
}

fn checked_in(id: &str) -> String {
    let path = format!("{}/../../results/{id}.csv", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_regenerates_byte_identical(id: &str, generate: fn() -> FigureData) {
    let got = generate().to_csv();
    assert_eq!(
        got,
        checked_in(id),
        "{id}: regenerated CSV must be byte-identical to results/{id}.csv"
    );
}

/// The streamed meter view feeds `Measurement.energy_j` and everything
/// derived from it; these artifacts exercise the full cluster engine
/// (fig18: mixed rosters; fig19: faults + speculation) and must not
/// move by a single byte.
#[test]
fn fig18_csv_regenerates_byte_identical() {
    assert_regenerates_byte_identical("fig18", figures::fig18);
}

#[test]
fn fig19_csv_regenerates_byte_identical() {
    assert_regenerates_byte_identical("fig19", || {
        figures::fig19().expect("fig19 recovers from every injected fault")
    });
}
