//! Integration tests of the MapReduce engine: dataflow correctness and
//! Hadoop-counter semantics under spills, combiners and partitioners.

use hhsim_mapreduce::{
    hash_partition, range_partition, run_job, run_map_only_job, Datum, Emitter, IdentityMapper,
    IdentityReducer, JobConfig, JobSpec, JobStats, Mapper, Reducer,
};
use hhsim_testkit::check;

#[derive(Clone)]
struct Tokenize;
impl Mapper for Tokenize {
    type KIn = u64;
    type VIn = String;
    type KOut = String;
    type VOut = u64;
    fn map(&mut self, _k: &u64, line: &String, out: &mut Emitter<String, u64>) {
        for w in line.split_whitespace() {
            out.emit(w.to_string(), 1);
        }
    }
}

#[derive(Clone)]
struct Sum;
impl Reducer for Sum {
    type KIn = String;
    type VIn = u64;
    type KOut = String;
    type VOut = u64;
    fn reduce(&mut self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
        out.emit(k.clone(), vs.iter().sum());
    }
}

fn wc_job() -> JobSpec<Tokenize, Sum> {
    JobSpec::new(Tokenize, Sum)
}

fn lines(ls: &[&str]) -> Vec<(u64, String)> {
    ls.iter()
        .enumerate()
        .map(|(i, l)| (i as u64, l.to_string()))
        .collect()
}

#[test]
fn wordcount_counts_across_splits() {
    let splits = vec![lines(&["a b c a", "b b"]), lines(&["c a"]), lines(&[])];
    let res = run_job(
        &wc_job().config(JobConfig::default().num_reducers(3)),
        splits,
    );
    let mut out = res.output;
    out.sort();
    assert_eq!(
        out,
        vec![
            ("a".to_string(), 3),
            ("b".to_string(), 3),
            ("c".to_string(), 2)
        ]
    );
    assert_eq!(res.stats.map_tasks, 3);
    assert_eq!(res.stats.reduce_tasks, 3);
    assert_eq!(res.stats.map_input_records, 3);
    assert_eq!(res.stats.map_output_records, 8);
    assert_eq!(res.stats.reduce_input_records, 8);
    assert_eq!(res.stats.reduce_input_groups, 3);
    assert_eq!(res.stats.output_records, 3);
}

#[test]
fn combiner_shrinks_shuffle_but_not_answer() {
    let splits = vec![lines(&["x x x x y", "x y"]); 4];
    let no_comb = run_job(
        &wc_job().config(JobConfig::default().num_reducers(2)),
        splits.clone(),
    );
    let comb = run_job(
        &wc_job()
            .config(JobConfig::default().num_reducers(2))
            .combiner(Sum),
        splits,
    );
    let (mut a, mut b) = (no_comb.output.clone(), comb.output.clone());
    a.sort();
    b.sort();
    assert_eq!(a, b, "combiner must not change results");
    assert!(comb.stats.shuffle_bytes < no_comb.stats.shuffle_bytes);
    assert!(comb.stats.map_materialized_records < no_comb.stats.map_materialized_records);
    assert_eq!(comb.stats.combine_input_records, 28); // 7 words x 4 splits
    assert_eq!(comb.stats.combine_output_records, 8); // 2 keys x 4 splits
}

#[test]
fn tiny_sort_buffer_forces_spills() {
    let splits = vec![lines(&["w w", "w w", "w w", "w w", "w w", "w w"]); 2];
    let big_buf = run_job(&wc_job(), splits.clone());
    assert_eq!(big_buf.stats.spills, 2, "one final spill per map task");
    assert_eq!(big_buf.stats.map_merge_passes, 0);

    let small = run_job(
        &wc_job().config(JobConfig::default().sort_buffer_bytes(20).merge_factor(2)),
        splits,
    );
    assert!(small.stats.spills > 2, "tiny buffer must spill repeatedly");
    assert!(
        small.stats.map_merge_passes > 0,
        "multiple spills need merges"
    );
    assert!(small.stats.map_merge_bytes > 0);
    // Same answer regardless.
    let (mut a, mut b) = (big_buf.output.clone(), small.output.clone());
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

/// Twelve map tasks of ten lines of twenty distinct words each: every
/// task reaches every one of four reducers, and a 200-byte sort buffer
/// spills it after every line.
fn spilling_splits() -> Vec<Vec<(u64, String)>> {
    let line: Vec<String> = (0..20).map(|w| format!("w{w:02}")).collect();
    let line = line.join(" ");
    (0..12).map(|_| lines(&[line.as_str(); 10])).collect()
}

/// Reduce-side merge passes beyond the streaming one for `inputs` sorted
/// inputs merged `factor` at a time.
fn extra_passes(inputs: usize, factor: usize) -> u64 {
    let (mut left, mut passes) = (inputs, 0);
    while left > factor {
        left = left.div_ceil(factor);
        passes += 1;
    }
    passes
}

/// `stats` less the counters the number of spills per task moves: the
/// spill and map-merge counters, and with a combiner everything that
/// counts the combiner's output.
fn spill_free(stats: &JobStats, combined: bool) -> JobStats {
    let mut s = JobStats {
        spills: 0,
        spill_write_bytes: 0,
        map_merge_passes: 0,
        map_merge_bytes: 0,
        ..*stats
    };
    if combined {
        s.map_materialized_records = 0;
        s.map_materialized_bytes = 0;
        s.combine_output_records = 0;
        s.shuffle_bytes = 0;
        s.reduce_merge_bytes = 0;
        s.reduce_input_records = 0;
    }
    s
}

/// A reducer's merge passes count the map outputs that reached it, as
/// Hadoop's counters do, not the spill runs they arrive as: twelve
/// outputs of ten spills each are one pass at a merge factor of 10 where
/// 120 runs would be two, and three at a factor of 2 where 120 would be six.
#[test]
fn reduce_merge_passes_count_map_outputs_not_spill_runs() {
    for (combined, factor) in [(true, 10), (false, 2)] {
        let cfg = JobConfig::default().num_reducers(4).merge_factor(factor);
        let job = |cfg| {
            let job = wc_job().config(cfg);
            if combined {
                job.combiner(Sum)
            } else {
                job
            }
        };
        let spilled = run_job(&job(cfg.sort_buffer_bytes(200)), spilling_splits());
        let once = run_job(&job(cfg), spilling_splits());
        let s = &spilled.stats;
        assert_eq!(s.spills, 120, "ten spills per task");
        assert_eq!(once.stats.spills, 12, "one spill per task");
        assert_ne!(extra_passes(12, factor), extra_passes(120, factor));

        let passes = extra_passes(12, factor);
        assert_eq!(s.reduce_merge_passes, 4 * passes, "combined: {combined}");
        assert_eq!(s.reduce_merge_bytes, s.shuffle_bytes * passes);
        assert_eq!(spilled.output, once.output, "combined: {combined}");
        assert_eq!(
            spill_free(s, combined),
            spill_free(&once.stats, combined),
            "combined: {combined}"
        );
    }
}

/// A spilling job whose `merge_factor` is set through the public field,
/// past the builder's check.
fn with_merge_factor(factor: usize) -> JobSpec<Tokenize, Sum> {
    let cfg = JobConfig {
        merge_factor: factor,
        ..JobConfig::default().sort_buffer_bytes(200)
    };
    wc_job().config(cfg)
}

/// A factor of 0 divides by zero in the merge-pass count; the entry
/// check names the field instead.
#[test]
#[should_panic(expected = "merge factor must be at least 2")]
fn zero_merge_factor_panics_at_entry() {
    run_job(&with_merge_factor(0), spilling_splits());
}

/// A 1-way merge never shrinks the segment count: without the entry
/// check the merge-pass count spins forever.
#[test]
#[should_panic(expected = "merge factor must be at least 2")]
fn unit_merge_factor_panics_at_entry() {
    run_job(&with_merge_factor(1), spilling_splits());
}

#[test]
#[should_panic(expected = "merge factor must be at least 2")]
fn unit_merge_factor_panics_at_map_only_entry() {
    run_map_only_job(&with_merge_factor(1), spilling_splits());
}

#[test]
fn map_only_job_returns_mapper_output() {
    let splits = vec![lines(&["b a", "c"])];
    let res = run_map_only_job(&wc_job(), splits);
    // Output is sorted within the task (map outputs are sorted runs).
    let keys: Vec<&str> = res.output.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, vec!["a", "b", "c"]);
    assert_eq!(res.stats.reduce_tasks, 0);
    assert_eq!(res.stats.shuffle_bytes, 0);
    assert_eq!(res.stats.output_records, 3);
}

#[test]
fn range_partitioner_gives_globally_sorted_output() {
    // TeraSort-style: identity map/reduce with range partitioning.
    let mut records: Vec<(u64, u64)> = (0..100u64).map(|i| (i * 37 % 101, i)).collect();
    let job = JobSpec::new(IdentityMapper::<u64, u64>::new(), IdentityReducer::new())
        .config(JobConfig::default().num_reducers(4))
        .partitioner(range_partition(vec![25u64, 50, 75]));
    let res = run_job(&job, vec![records.clone()]);
    let keys: Vec<u64> = res.output.iter().map(|(k, _)| *k).collect();
    let mut expect: Vec<u64> = records.drain(..).map(|(k, _)| k).collect();
    expect.sort();
    assert_eq!(keys, expect, "concatenated reducer outputs must be sorted");
}

#[test]
fn hash_partitioner_balances_roughly() {
    let splits = vec![(0..2000u64)
        .map(|i| (i, format!("word{i}")))
        .collect::<Vec<_>>()];
    let job = JobSpec::new(IdentityMapper::<u64, String>::new(), IdentityReducer::new())
        .config(JobConfig::default().num_reducers(4))
        .partitioner(hash_partition());
    let res = run_job(&job, splits);
    // The identity reducer's output is its input, so the bytes each
    // reducer received are its keys' records, sliced by the partitioner.
    let part = hash_partition::<u64>();
    let mut bytes = [0u64; 4];
    for (k, v) in &res.output {
        bytes[part(k, 4)] += (k.size_bytes() + v.size_bytes()) as u64;
    }
    assert_eq!(bytes.iter().sum::<u64>(), res.stats.shuffle_bytes);
    let max = bytes.iter().max().copied().unwrap_or(0) as f64;
    let skew = max / (res.stats.shuffle_bytes as f64 / 4.0);
    assert!(skew < 1.25, "skew {skew}");
}

#[test]
fn stats_bytes_are_consistent() {
    let splits = vec![lines(&["aa bb aa", "cc"]); 3];
    let res = run_job(
        &wc_job().config(JobConfig::default().num_reducers(2)),
        splits,
    );
    let s = &res.stats;
    // No combiner: materialized == emitted == shuffled.
    assert_eq!(s.map_materialized_bytes, s.map_output_bytes);
    assert_eq!(s.shuffle_bytes, s.map_materialized_bytes);
    assert_eq!(s.spill_write_bytes, s.map_materialized_bytes);
}

#[test]
fn deterministic_across_runs() {
    let splits = vec![lines(&["q w e r t y u i o p", "a s d f g"]); 5];
    let r1 = run_job(
        &wc_job().config(JobConfig::default().num_reducers(3)),
        splits.clone(),
    );
    let r2 = run_job(
        &wc_job().config(JobConfig::default().num_reducers(3)),
        splits,
    );
    assert_eq!(r1.output, r2.output);
    assert_eq!(r1.stats, r2.stats);
}

/// Word counts from the engine always match a straightforward HashMap
/// count, regardless of split shapes, reducer counts or buffer sizes.
#[test]
fn prop_wordcount_matches_reference() {
    check(64, |g| {
        let docs: Vec<Vec<String>> = g.vec(1..6, |g| {
            g.vec(0..12, |g| g.string(1..=3, &['a', 'b', 'c', 'd']))
        });
        let nred = g.usize(1..5);
        let buf = g.u64(8..200);
        let splits: Vec<Vec<(u64, String)>> = docs
            .iter()
            .map(|words| vec![(0u64, words.join(" "))])
            .collect();
        let mut expect = std::collections::BTreeMap::new();
        for w in docs.iter().flatten() {
            *expect.entry(w.clone()).or_insert(0u64) += 1;
        }
        let res = run_job(
            &wc_job().config(
                JobConfig::default()
                    .num_reducers(nred)
                    .sort_buffer_bytes(buf),
            ),
            splits,
        );
        let got: std::collections::BTreeMap<String, u64> = res.output.into_iter().collect();
        assert_eq!(got, expect);
    });
}

/// Identity sort through the engine equals std sort.
#[test]
fn prop_engine_sort_matches_std() {
    check(64, |g| {
        let keys = g.vec(0..200, |g| g.u64(0..1000));
        let nred = g.usize(1..4);
        let records: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 0xff)).collect();
        let cuts = vec![333u64, 666];
        let job = JobSpec::new(IdentityMapper::<u64, u64>::new(), IdentityReducer::new())
            .config(JobConfig::default().num_reducers(nred.max(cuts.len() + 1)))
            .partitioner(range_partition(cuts));
        let res = run_job(&job, vec![records]);
        let got: Vec<u64> = res.output.iter().map(|(k, _)| *k).collect();
        let mut expect = keys;
        expect.sort();
        assert_eq!(got, expect);
    });
}

/// Emits every word twice: once verbatim and once upper-cased, so a
/// canonicalizing combiner has real rewriting to do.
#[derive(Clone)]
struct MixedCase;
impl Mapper for MixedCase {
    type KIn = u64;
    type VIn = String;
    type KOut = String;
    type VOut = u64;
    fn map(&mut self, _k: &u64, line: &String, out: &mut Emitter<String, u64>) {
        for w in line.split_whitespace() {
            out.emit(w.to_string(), 1);
            out.emit(w.to_uppercase(), 1);
        }
    }
}

/// Lower-cases before emitting — the reference for the rewrite tests.
#[derive(Clone)]
struct LowerCase;
impl Mapper for LowerCase {
    type KIn = u64;
    type VIn = String;
    type KOut = String;
    type VOut = u64;
    fn map(&mut self, _k: &u64, line: &String, out: &mut Emitter<String, u64>) {
        for w in line.split_whitespace() {
            out.emit(w.to_lowercase(), 1);
            out.emit(w.to_lowercase(), 1);
        }
    }
}

/// Sums under the lower-cased key: a combiner that rewrites keys.
#[derive(Clone)]
struct LowerSum;
impl Reducer for LowerSum {
    type KIn = String;
    type VIn = u64;
    type KOut = String;
    type VOut = u64;
    fn reduce(&mut self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
        out.emit(k.to_lowercase(), vs.iter().sum());
    }
}

fn rewrite_splits() -> Vec<Vec<(u64, String)>> {
    (0..6)
        .map(|i| {
            lines(&[
                &format!("alpha bravo charlie w{i} alpha"),
                &format!("delta w{} bravo echo", i % 3),
            ])
        })
        .collect()
}

/// A combiner that *rewrites* keys (canonicalizing case) must leave every
/// partition sorted despite the re-sort elision: rewritten records are
/// re-partitioned and only their target partitions pay the stable re-sort,
/// while key-preserving output keeps the elided fast path. The oracle is a
/// job whose mapper canonicalizes up front, which never rewrites in the
/// combiner — both must produce byte-identical final output.
#[test]
fn key_rewriting_combiner_keeps_partitions_sorted() {
    // Tiny buffer: several spills per task, so rewritten runs also go
    // through the map-side heap merge, which requires sorted inputs.
    let cfg = JobConfig::default().num_reducers(4).sort_buffer_bytes(48);
    let rewriting = JobSpec::new(MixedCase, Sum).config(cfg).combiner(LowerSum);
    let reference = JobSpec::new(LowerCase, Sum).config(cfg).combiner(Sum);

    let got = run_job(&rewriting, rewrite_splits());
    let expect = run_job(&reference, rewrite_splits());
    assert!(got.stats.spills > 6, "must spill repeatedly per task");
    assert_eq!(
        got.output, expect.output,
        "rewritten keys must land in the same partitions, same order"
    );

    // Each reduce task's slice of the concatenated output is sorted by key
    // — the invariant the re-sort elision must not break. Reducers write
    // in task order, so the partitioner's answer per key is
    // non-decreasing along the output and marks each task's slice.
    let part = hash_partition::<String>();
    let tasks: Vec<usize> = got.output.iter().map(|(k, _)| part(k, 4)).collect();
    assert!(
        tasks.windows(2).all(|w| w[0] <= w[1]),
        "reduce tasks write in task order"
    );
    for t in 0..4 {
        let keys: Vec<&String> = (got.output.iter().zip(&tasks))
            .filter(|(_, &p)| p == t)
            .map(|((k, _), _)| k)
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "reduce task {t} output must be key-sorted"
        );
    }
}

/// Drops the stop word `"the"` and splits every other count of two or
/// more into two records: a combiner that emits zero records for some
/// groups and two for others. Summing is unchanged by it, and so is
/// applying it again, so it is a valid combiner under [`Sum`].
#[derive(Clone)]
struct DropOrSplit;
impl Reducer for DropOrSplit {
    type KIn = String;
    type VIn = u64;
    type KOut = String;
    type VOut = u64;
    fn reduce(&mut self, k: &String, vs: &[u64], out: &mut Emitter<String, u64>) {
        if k == "the" {
            return;
        }
        let n: u64 = vs.iter().sum();
        if n >= 2 {
            out.emit(k.clone(), n - n / 2);
            out.emit(k.clone(), n / 2);
        } else {
            out.emit(k.clone(), n);
        }
    }
}

fn drop_or_split_splits() -> Vec<Vec<(u64, String)>> {
    (0..5)
        .map(|i| {
            lines(&[
                &format!("the cat w{i} the dog"),
                &format!("cat cat the w{} emu", i % 2),
                "dog",
            ])
        })
        .collect()
}

/// A combiner that emits zero records for some groups and two for others
/// goes through the one reused emitter like any other. The oracle runs
/// the same combiner as a *reducer*, one job per split (one spill each, as
/// under the default buffer), which yields exactly the records the
/// combiner emits and so both `combine_*` counters; reducing those records
/// with [`Sum`] gives the output.
#[test]
fn combiner_emitting_zero_or_two_records_matches_reducer_oracle() {
    let cfg = JobConfig::default().num_reducers(3);
    let got = run_job(
        &JobSpec::new(Tokenize, Sum)
            .config(cfg)
            .combiner(DropOrSplit),
        drop_or_split_splits(),
    );

    let mut combined: Vec<(String, u64)> = Vec::new();
    let (mut combine_in, mut combine_out) = (0u64, 0u64);
    for split in drop_or_split_splits() {
        let one = run_job(
            &JobSpec::new(Tokenize, DropOrSplit).config(cfg.num_reducers(1)),
            vec![split],
        );
        combine_in += one.stats.reduce_input_records;
        combine_out += one.stats.output_records;
        combined.extend(one.output);
    }
    let oracle = run_job(
        &JobSpec::new(IdentityMapper::<String, u64>::new(), Sum).config(cfg),
        vec![combined],
    );

    assert_eq!(got.stats.combine_input_records, combine_in);
    assert_eq!(got.stats.combine_output_records, combine_out);
    assert_eq!(got.stats.map_materialized_records, combine_out);
    assert_eq!(got.output, oracle.output);
    assert!(
        got.output.iter().all(|(k, _)| k != "the"),
        "dropped groups stay dropped"
    );
    assert!(
        combine_out > combine_in / 2,
        "split groups emit two records"
    );

    // Spilling every few records runs the combiner on more, smaller
    // groups; the answer must not move.
    let spilled = run_job(
        &JobSpec::new(Tokenize, Sum)
            .config(cfg.sort_buffer_bytes(40))
            .combiner(DropOrSplit),
        drop_or_split_splits(),
    );
    assert!(spilled.stats.spills > got.stats.spills);
    assert_eq!(spilled.output, got.output);
}

/// Total records are conserved through an identity job: reduce input
/// records equal map output records equal input records.
#[test]
fn prop_identity_conserves_records() {
    check(64, |g| {
        let n = g.usize(0..300);
        let nred = g.usize(1..6);
        let records: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 17, i)).collect();
        let job = JobSpec::new(IdentityMapper::<u64, u64>::new(), IdentityReducer::new())
            .config(JobConfig::default().num_reducers(nred));
        let res = run_job(&job, vec![records]);
        assert_eq!(res.stats.map_output_records, n as u64);
        assert_eq!(res.stats.reduce_input_records, n as u64);
        assert_eq!(res.stats.output_records, n as u64);
        assert_eq!(res.output.len(), n);
    });
}
