//! Integration tests for the event-driven energy integration path.
//!
//! The engine now integrates power exactly, piecewise over active-slot
//! transitions, and keeps the 1 Hz metered trace as a *streamed view*
//! that must stay bit-identical to the materialize-then-sample
//! reference. These tests pin that equivalence at three levels: random
//! traces (property + analytic error bound), whole engine runs (exact
//! vs metered agreement), and the checked-in fig18/fig19 artifacts
//! (byte-identical CSV regeneration).

use hhsim_core::energy::{measure_trace, PowerMeter, PowerTrace};
use hhsim_core::{figures, FigureData};

/// SplitMix64 — the workspace's stdlib-only PRNG idiom.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn random_trace(seed: u64, max_segments: usize) -> PowerTrace {
    let mut s = seed;
    let mut trace = PowerTrace::new();
    let n = 1 + (splitmix(&mut s) as usize % max_segments);
    for _ in 0..n {
        // Durations spanning sub-sample slivers to multi-minute plateaus.
        let d = 10f64.powf(unit(&mut s) * 4.0 - 2.0);
        let w = 40.0 + 200.0 * unit(&mut s);
        trace.push(d, w);
    }
    trace
}

#[test]
fn exact_integral_matches_segment_sum_and_meter_view_is_bitwise() {
    for seed in 0..200u64 {
        let trace = random_trace(seed, 64);
        let er = measure_trace(&trace);
        // Exact integration reproduces the segment sum bit-for-bit.
        assert_eq!(
            er.exact_energy_j.to_bits(),
            trace.exact_energy_j().to_bits(),
            "seed {seed}: exact integral"
        );
        // The streamed 1 Hz view is the meter, bit for bit.
        let reference = PowerMeter.measure(&trace);
        assert_eq!(er.meter, reference, "seed {seed}: 1 Hz view");
    }
}

#[test]
fn metered_energy_within_analytic_bound_of_exact() {
    // Midpoint sampling at interval h over k segments mis-prices at most
    // one interval per segment boundary plus the clamped tail:
    // |metered - exact| <= (k + 2) * h * w_max.
    for seed in 200..400u64 {
        let trace = random_trace(seed, 48);
        let er = measure_trace(&trace);
        let k = trace.segments().len() as f64;
        let w_max = trace
            .segments()
            .iter()
            .map(|&(_, w)| w)
            .fold(0.0f64, f64::max);
        let bound = (k + 2.0) * 1.0 * w_max;
        let metered = er.meter.energy_j();
        assert!(
            (metered - er.exact_energy_j).abs() <= bound,
            "seed {seed}: |{metered} - {}| > bound {bound}",
            er.exact_energy_j
        );
    }
}

#[test]
fn engine_exact_energy_tracks_metered_energy() {
    use hhsim_core::arch::presets;
    use hhsim_core::workloads::AppId;
    use hhsim_core::{simulate_with, SimCache, SimConfig};

    let cache = SimCache::new();
    for (app, machine) in [
        (AppId::WordCount, presets::atom_c2758()),
        (AppId::TeraSort, presets::xeon_e5_2420()),
    ] {
        let cfg = SimConfig::new(app, machine).faults(figures::fig19_faults(0.06, true));
        let m = simulate_with(&cfg, &cache);
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
