//! Columnar sorted runs and the consuming heap k-way merge — the engine's
//! merge hot path.
//!
//! Runs keep keys and values in separate contiguous arrays ("columnar")
//! for two reasons. First, the merge can move records out of runs without
//! cloning them: each run is consumed through a pair of iterators and the
//! heads compete in a [`BinaryHeap`]. Second, after the merge a key group
//! occupies a contiguous range `i..j` of both arrays, so reduce and
//! combine can hand the user function a borrowed key and a real
//! `&vals[i..j]` slice instead of cloning every value into a fresh `Vec`
//! per group.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::kv::Datum;

/// A sorted run in columnar layout: record `i` is `(keys[i], vals[i])`.
/// Runs are ordered by key; records with equal keys keep insertion order.
#[derive(Debug, Clone)]
pub(crate) struct Run<K, V> {
    /// Record keys, ascending.
    pub(crate) keys: Vec<K>,
    /// Record values, aligned with `keys`.
    pub(crate) vals: Vec<V>,
}

impl<K: Datum, V: Datum> Run<K, V> {
    pub(crate) fn new() -> Self {
        Run {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    pub(crate) fn with_capacity(n: usize) -> Self {
        Run {
            keys: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub(crate) fn push(&mut self, key: K, val: V) {
        self.keys.push(key);
        self.vals.push(val);
    }

    /// Serialized size of every record, per the [`Datum`] byte model.
    pub(crate) fn data_bytes(&self) -> u64 {
        let k: u64 = self.keys.iter().map(|k| k.size_bytes() as u64).sum();
        let v: u64 = self.vals.iter().map(|v| v.size_bytes() as u64).sum();
        k + v
    }

    /// The run's key groups in order: each distinct key with the slice of
    /// values recorded under it.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (&K, &[V])> {
        let mut start = 0;
        std::iter::from_fn(move || {
            let key = self.keys.get(start)?;
            let rest = self.keys.get(start..)?;
            let end = start + rest.iter().take_while(|k| *k == key).count();
            let vals = self.vals.get(start..end)?;
            start = end;
            Some((key, vals))
        })
    }

    /// Consumes the run into `(key, value)` pairs in record order.
    pub(crate) fn into_pairs(self) -> impl Iterator<Item = (K, V)> {
        self.keys.into_iter().zip(self.vals)
    }

    /// Re-establishes the sort invariant with a *stable* sort by key
    /// (records with equal keys keep their current relative order). Only
    /// needed after a key-rewriting combiner breaks the order.
    pub(crate) fn sort_stable(&mut self) {
        let mut pairs: Vec<(K, V)> = std::mem::take(&mut self.keys)
            .into_iter()
            .zip(std::mem::take(&mut self.vals))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, v) in pairs {
            self.push(k, v);
        }
    }
}

impl<K: Datum, V: Datum> Default for Run<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Datum, V: Datum> FromIterator<(K, V)> for Run<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut run = Run::new();
        for (k, v) in iter {
            run.push(k, v);
        }
        run
    }
}

/// A run's current head key in the merge heap. The *derived* lexicographic
/// order — field order `(key, run)` — makes equal keys pop in run order,
/// the documented stability guarantee, total by construction. The position
/// within the run needs no explicit tie-break: each run has at most one
/// live head, and its iterator preserves in-run order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Head<K> {
    key: K,
    run: usize,
}

/// K-way merge of sorted runs into one sorted run, stable across equal
/// keys: earlier runs first, in-run order preserved.
///
/// The merge *consumes* its inputs — every key and value is moved, never
/// cloned — and costs `O(n log k)` for `n` records in `k` runs (the
/// pre-overhaul linear scan was `O(n·k)` with a clone per record).
pub(crate) fn merge_runs<K: Datum, V: Datum>(mut runs: Vec<Run<K, V>>) -> Run<K, V> {
    runs.retain(|r| !r.is_empty());
    match runs.len() {
        0 | 1 => runs.pop().unwrap_or_default(),
        _ => {
            let total: usize = runs.iter().map(Run::len).sum();
            let mut out = Run::with_capacity(total);
            let mut key_iters = Vec::with_capacity(runs.len());
            let mut val_iters = Vec::with_capacity(runs.len());
            for run in runs {
                key_iters.push(run.keys.into_iter());
                val_iters.push(run.vals.into_iter());
            }
            let mut heap = BinaryHeap::with_capacity(key_iters.len());
            for (ri, it) in key_iters.iter_mut().enumerate() {
                if let Some(key) = it.next() {
                    heap.push(Reverse(Head { key, run: ri }));
                }
            }
            while let Some(Reverse(Head { key, run })) = heap.pop() {
                out.keys.push(key);
                out.vals
                    .extend(val_iters.get_mut(run).and_then(Iterator::next));
                if let Some(key) = key_iters.get_mut(run).and_then(Iterator::next) {
                    heap.push(Reverse(Head { key, run }));
                }
            }
            assert_eq!(out.keys.len(), out.vals.len(), "keys and vals aligned");
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhsim_testkit::check;

    fn run_of(pairs: &[(&str, u64)]) -> Run<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// Reference merge: concatenate runs in order, stable sort by key.
    fn naive_merge(runs: &[Run<String, u64>]) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = runs
            .iter()
            .flat_map(|r| r.keys.iter().cloned().zip(r.vals.iter().cloned()))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    #[test]
    fn merges_empty_and_single() {
        assert_eq!(merge_runs(Vec::<Run<String, u64>>::new()).len(), 0);
        let one = merge_runs(vec![run_of(&[("a", 1), ("b", 2)])]);
        assert_eq!(one.keys, vec!["a", "b"]);
        assert_eq!(one.vals, vec![1, 2]);
        // Empty runs among non-empty ones are ignored.
        let mixed = merge_runs(vec![Run::new(), run_of(&[("x", 9)]), Run::new()]);
        assert_eq!(mixed.keys, vec!["x"]);
    }

    #[test]
    fn equal_keys_come_out_in_run_order() {
        // Values encode (run, position) so the full interleaving is visible.
        let runs = vec![
            run_of(&[("a", 0), ("a", 1), ("b", 2)]),
            run_of(&[("a", 10), ("b", 11)]),
            run_of(&[("a", 20), ("c", 21)]),
        ];
        let merged = merge_runs(runs);
        assert_eq!(merged.keys, vec!["a", "a", "a", "a", "b", "b", "c"]);
        // For each key: run 0 first (in-run order), then run 1, then run 2.
        assert_eq!(merged.vals, vec![0, 1, 10, 20, 2, 11, 21]);
    }

    /// The heap merge equals a naive sort-based reference on random runs:
    /// random key distributions, heavy duplication, empty runs included.
    #[test]
    fn prop_heap_merge_matches_naive_reference() {
        check(128, |g| {
            let nruns = g.usize(0..8);
            let runs: Vec<Run<String, u64>> = (0..nruns)
                .map(|ri| {
                    // Keys from a tiny alphabet force collisions; each run
                    // is sorted (stably, preserving emission order).
                    let mut pairs: Vec<(String, u64)> = g
                        .vec(0..30, |g| g.string(1..=2, &['a', 'b', 'c']))
                        .into_iter()
                        .enumerate()
                        .map(|(i, k)| (k, (ri * 1000 + i) as u64))
                        .collect();
                    pairs.sort_by(|a, b| a.0.cmp(&b.0));
                    pairs.into_iter().collect()
                })
                .collect();
            let expect = naive_merge(&runs);
            let got: Vec<(String, u64)> = merge_runs(runs).into_pairs().collect();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn sort_stable_keeps_equal_key_order() {
        let mut run = run_of(&[("b", 0), ("a", 1), ("b", 2), ("a", 3)]);
        run.sort_stable();
        assert_eq!(run.keys, vec!["a", "a", "b", "b"]);
        assert_eq!(run.vals, vec![1, 3, 0, 2]);
    }

    #[test]
    fn data_bytes_counts_keys_and_values() {
        let run = run_of(&[("ab", 1), ("c", 2)]);
        // 2 + 1 key bytes, 8 + 8 value bytes.
        assert_eq!(run.data_bytes(), 19);
    }
}
