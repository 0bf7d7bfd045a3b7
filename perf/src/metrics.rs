//! The metric names and units the benchmark prints. `BENCHMARK.json`
//! lists exactly these (a test compares the two).

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs. `fail_ratio` is printed
/// too but is not listed here: it is 0 on every workload, and the driver
/// reads failures from the `attempted`/`failed` keys of the result line.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("time_ref", "ratio"),
    ("allocs", "count"),
    ("alloc_mb", "MB"),
    ("peak_live_mb", "MB"),
    ("digest_ok", "ratio"),
    ("fidelity.claims_held", "ratio"),
    ("fidelity.median_rel_err", "ratio"),
    ("fidelity.max_rel_err", "ratio"),
];

/// Per-layer metrics, printed by traced runs. A metric reads 0 on a
/// workload that does not exercise its layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The harness's own health.
    ("bench.wall_s", "s"),
    ("bench.ref_s", "s"),
    ("bench.pass_spread", "ratio"),
    ("bench.peak_rss_mb", "MB"),
    ("bench.trace_overhead", "ratio"),
    // Functional MapReduce (cold `SimCache::ratios(app)`).
    ("workloads.functional_s.wc", "s"),
    ("workloads.functional_s.st", "s"),
    ("workloads.functional_s.gp", "s"),
    ("workloads.functional_s.ts", "s"),
    ("workloads.functional_s.nb", "s"),
    ("workloads.functional_s.fp", "s"),
    ("mapreduce.map_records", "count"),
    ("mapreduce.records_per_s", "1/s"),
    ("mapreduce.spills", "count"),
    // Cache-hierarchy simulation.
    ("arch.stall_split_s", "s"),
    ("arch.accesses_per_s", "1/s"),
    // Set-up substrates of engine-chaos.
    ("hdfs.placements_per_s", "1/s"),
    ("faults.node_samples_per_s", "1/s"),
    // DES calendar.
    ("des.heap.events_per_s", "1/s"),
    ("des.ladder.events_per_s", "1/s"),
    ("des.cancels_per_s", "1/s"),
    // Clean phase engine.
    ("cluster.clean.events_per_s", "1/s"),
    ("cluster.kind.events_per_s", "1/s"),
    ("cluster.locality.events_per_s", "1/s"),
    ("cluster.probes_per_launch", "ratio"),
    ("cluster.timeline.export_mb_per_s", "MB/s"),
    // Faulty phase engine.
    ("cluster.faulty.attempts_per_s", "1/s"),
    ("cluster.fetch.attempts_per_s", "1/s"),
    ("cluster.faulty.useful_ratio", "ratio"),
    ("cluster.faulty.fetch_failures", "count"),
    ("cluster.faulty.reexecuted_maps", "count"),
    // Shuffle flow solver.
    ("shuffle.flows", "count"),
    ("shuffle.flows_per_s.clean", "1/s"),
    ("shuffle.flows_per_s.crash", "1/s"),
    ("shuffle.small.solves_per_s", "1/s"),
    // Streaming energy meter.
    ("energy.samples_per_s", "1/s"),
    ("energy.segments_per_s", "1/s"),
    // Node model and replication harness.
    ("model.points_per_s.warm", "1/s"),
    ("harness.rack.reps_per_s", "1/s"),
    ("harness.small.reps_per_s", "1/s"),
    ("harness.failed_runs", "count"),
    ("harness.scaling_2w", "ratio"),
    ("harness.points", "count"),
    ("harness.grids", "count"),
    // Memo.
    ("simcache.hits", "count"),
    ("simcache.misses", "count"),
    ("simcache.hit_ratio", "ratio"),
    ("simcache.run_entries", "count"),
    ("simcache.stall_entries", "count"),
    ("simcache.phase_entries", "count"),
    // Per-artifact attribution of the figures workloads.
    ("figures.render_s.arch", "s"),
    ("figures.render_s.exec", "s"),
    ("figures.render_s.model", "s"),
    ("figures.render_s.cluster", "s"),
    ("figures.render_s.replication", "s"),
    ("figures.bytes", "count"),
    ("calibration.check_s", "s"),
    // Low 32 bits of the workload's output hash.
    ("sim.digest", "count"),
];

/// Per-layer values collected during a run; anything not set reads 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name` (must be listed in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Adds to `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let now = self.get(name);
        self.set(name, now + value);
    }

    /// The value of `name`, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `count / seconds`, 0 when no time was measured.
pub fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        let mut chars = n.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(n), "bad metric name {n}");
            assert!(unit_ok(u), "bad unit {u} of {n}");
            assert!(seen.insert(*n), "duplicate metric {n}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// Every `"name": "<n>", "unit": "<u>"` pair of one `BENCHMARK.json`
    /// section, in file order.
    fn section(text: &str, key: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is checked in");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(&text, "end_to_end"), own(END_TO_END));
        assert_eq!(section(&text, "per_layer"), own(PER_LAYER));
        for w in crate::workloads::NAMES {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }

    #[test]
    fn layers_default_to_zero_and_accumulate() {
        let mut l = Layers::default();
        assert_eq!(l.get("shuffle.flows"), 0.0);
        l.add("shuffle.flows", 2.0);
        l.add("shuffle.flows", 3.0);
        assert_eq!(l.get("shuffle.flows"), 5.0);
        assert_eq!(rate(10.0, 0.0), 0.0);
        assert_eq!(rate(10.0, 2.0), 5.0);
    }
}
