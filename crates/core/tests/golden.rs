//! Golden-file regression tests: the committed snapshots under
//! `tests/golden/` pin the CSV output of the cheap, simulation-free
//! artifacts (table1, fig1, fig2). Series and x labels must match
//! exactly; values are compared with a small relative tolerance so a
//! libm/platform float wiggle doesn't mask a real regression.
//!
//! To refresh after an intentional model change:
//!
//! ```text
//! cargo run --release -p hhsim-bench --bin figures -- table1 fig1 fig2
//! cp results/{table1,fig1,fig2}.csv crates/core/tests/golden/
//! ```

use hhsim_core::figures::{self, Declare};

const REL_TOL: f64 = 1e-6;

fn golden(id: &str) -> String {
    let path = format!("{}/tests/golden/{id}.csv", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Parses the `series,x,value` body rows of a rendered CSV (header and
/// `#` title line skipped). Values are formatted with 6 decimals, and no
/// label contains a comma, so splitting from the right is unambiguous.
fn rows(csv: &str) -> Vec<(String, String, f64)> {
    csv.lines()
        .skip(2)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (rest, value) = l.rsplit_once(',').expect("value column");
            let (series, x) = rest.rsplit_once(',').expect("series/x columns");
            (
                series.to_string(),
                x.to_string(),
                value.parse::<f64>().expect("numeric value"),
            )
        })
        .collect()
}

fn assert_matches_golden(id: &str, declare: Declare) {
    let got_csv = figures::generate(declare)
        .expect("the golden artifacts render")
        .to_csv();
    let want = rows(&golden(id));
    let got = rows(&got_csv);
    assert_eq!(
        got.len(),
        want.len(),
        "{id}: row count changed ({} vs golden {})",
        got.len(),
        want.len()
    );
    for (i, ((gs, gx, gv), (ws, wx, wv))) in got.iter().zip(&want).enumerate() {
        assert_eq!((gs, gx), (ws, wx), "{id} row {i}: labels changed");
        let tol = REL_TOL * wv.abs().max(1e-12);
        assert!(
            (gv - wv).abs() <= tol,
            "{id} row {i} ({gs},{gx}): {gv} vs golden {wv}"
        );
    }
}

#[test]
fn table1_matches_golden() {
    assert_matches_golden("table1", figures::table1);
}

#[test]
fn fig1_matches_golden() {
    assert_matches_golden("fig1", figures::fig1);
}

#[test]
fn fig2_matches_golden() {
    assert_matches_golden("fig2", figures::fig2);
}
