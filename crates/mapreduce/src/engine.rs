//! The execution engine: map → spill/sort/combine → merge → shuffle →
//! merge → reduce, with full dataflow accounting.
//!
//! Hot-path design (see DESIGN.md for the full story):
//!
//! - **Precomputed partitions** — each spill decorates every record with
//!   its partition index *once* and sorts on `(partition, key, arrival)`,
//!   instead of calling the partitioner twice per comparison inside the
//!   sort and once more per record on insertion.
//! - **Columnar runs** — sorted runs keep keys and values in separate
//!   contiguous arrays ([`crate::merge::Run`]), so key groups are real
//!   slices: combiners and reducers receive `&vals[i..j]` with zero
//!   cloning.
//! - **Heap merge** — the k-way merge consumes its runs through a
//!   `BinaryHeap` keyed on `(key, run)`: `O(n log k)` with zero clones,
//!   stable across equal keys (earlier runs first).
//! - **Re-sort elision** — combiner output skips the defensive
//!   per-partition re-sort unless the combiner actually rewrote a key.
//! - **No allocation per record** — input records are [`crate::Line`]
//!   windows into the shared input buffer, short keys are inline
//!   [`crate::Text`], and a combiner is a [`Combiner`] cloned once per map
//!   task that writes every key group into one reused [`Emitter`], so
//!   reading a line, emitting, combining and cloning a short-keyed or
//!   windowed record allocates nothing.

use crate::config::JobConfig;
use crate::emit::Emitter;
use crate::kv::Datum;
use crate::merge::{merge_runs, Run};
use crate::partition::{hash_partition, Partitioner};
use crate::stats::{JobStats, TaskIo};
use crate::task::{Combiner, Mapper, Reducer};

/// A fully specified job: mapper, reducer, optional combiner, partitioner
/// and engine configuration.
///
/// The combiner is held behind a pointer so jobs with and without
/// combining share one type.
pub struct JobSpec<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    mapper: M,
    reducer: R,
    combiner: Option<Box<dyn TaskCombiner<M::KOut, M::VOut>>>,
    partitioner: Partitioner<M::KOut>,
    config: JobConfig,
}

/// A [`Combiner`] with its types fixed, so a job can hold any one.
trait TaskCombiner<K, V>: Send {
    /// A fresh copy for one map task.
    fn fork(&self) -> Box<dyn TaskCombiner<K, V>>;
    /// Combines one key group into `out`.
    fn combine(&mut self, key: &K, values: &[V], out: &mut Emitter<K, V>);
}

impl<C: Combiner + 'static> TaskCombiner<C::KIn, C::VIn> for C {
    fn fork(&self) -> Box<dyn TaskCombiner<C::KIn, C::VIn>> {
        Box::new(self.clone())
    }
    fn combine(&mut self, key: &C::KIn, values: &[C::VIn], out: &mut Emitter<C::KIn, C::VIn>) {
        self.reduce(key, values, out);
    }
}

/// One map task's combiner and the emitter it writes every key group of
/// every spill into.
struct SpillCombiner<K, V> {
    combiner: Box<dyn TaskCombiner<K, V>>,
    out: Emitter<K, V>,
}

impl<M, R> JobSpec<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Creates a job with the default configuration and hash partitioning.
    pub fn new(mapper: M, reducer: R) -> Self {
        JobSpec {
            mapper,
            reducer,
            combiner: None,
            partitioner: hash_partition::<M::KOut>(),
            config: JobConfig::default(),
        }
    }

    /// Replaces the engine configuration.
    pub fn config(mut self, config: JobConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a combiner run over every spill of every map task, as
    /// Hadoop's `job.setCombinerClass(IntSumReducer.class)` does: a
    /// reducer whose output types are its input types ([`Combiner`]).
    ///
    /// It is cloned once per map task, like the mapper, and sees each key
    /// group of a sorted spill in turn. It may emit any number of records
    /// per group; one that rewrites a key sends the record to that key's
    /// partition, which is then re-sorted. Since Hadoop may run a combiner
    /// any number of times, it must be associative and commutative.
    ///
    /// # Examples
    ///
    /// ```
    /// use hhsim_mapreduce::{run_job, Emitter, JobSpec, Mapper, Reducer, Text};
    ///
    /// #[derive(Clone)]
    /// struct Words;
    /// impl Mapper for Words {
    ///     type KIn = u64;
    ///     type VIn = String;
    ///     type KOut = Text;
    ///     type VOut = u64;
    ///     fn map(&mut self, _k: &u64, line: &String, out: &mut Emitter<Text, u64>) {
    ///         for w in line.split_whitespace() {
    ///             out.emit(Text::from(w), 1);
    ///         }
    ///     }
    /// }
    ///
    /// #[derive(Clone)]
    /// struct SumReducer;
    /// impl Reducer for SumReducer {
    ///     type KIn = Text;
    ///     type VIn = u64;
    ///     type KOut = Text;
    ///     type VOut = u64;
    ///     fn reduce(&mut self, k: &Text, vs: &[u64], out: &mut Emitter<Text, u64>) {
    ///         out.emit(k.clone(), vs.iter().sum());
    ///     }
    /// }
    ///
    /// let job = JobSpec::new(Words, SumReducer).combiner(SumReducer);
    /// let res = run_job(&job, vec![vec![(0, "a b a".to_string())]]);
    /// assert_eq!(res.stats.combine_input_records, 3);
    /// assert_eq!(res.stats.combine_output_records, 2);
    /// assert_eq!(res.output, vec![(Text::from("a"), 2), (Text::from("b"), 1)]);
    /// ```
    pub fn combiner<C>(mut self, combiner: C) -> Self
    where
        C: Combiner<KIn = M::KOut, VIn = M::VOut> + 'static,
    {
        self.combiner = Some(Box::new(combiner));
        self
    }

    /// Replaces the partitioner (e.g. with a total-order range partitioner).
    pub fn partitioner(mut self, p: Partitioner<M::KOut>) -> Self {
        self.partitioner = p;
        self
    }
}

/// Everything a finished job produces: final records plus statistics.
#[derive(Debug, Clone)]
pub struct JobResult<K, V> {
    /// All output records, concatenated in reducer order (each reducer's
    /// output is sorted by key because reducers consume merged runs).
    pub output: Vec<(K, V)>,
    /// Dataflow statistics.
    pub stats: JobStats,
}

/// Sorted output of one map task: one columnar run per partition.
struct MapOutput<K, V> {
    partitions: Vec<Run<K, V>>,
}

/// Groups map-output partitions by reducer, accounting shuffle bytes.
/// Returns one segment list per reduce task.
fn shuffle_map_outputs<K: Datum, V: Datum>(
    map_outputs: Vec<MapOutput<K, V>>,
    nred: usize,
    stats: &mut JobStats,
) -> Vec<Vec<Run<K, V>>> {
    let mut reduce_inputs: Vec<Vec<Run<K, V>>> = (0..nred).map(|_| Vec::new()).collect();
    for mo in map_outputs {
        for (p, segment) in mo.partitions.into_iter().enumerate() {
            if segment.is_empty() {
                continue;
            }
            stats.shuffle_bytes += segment.data_bytes();
            // hhsim: allow(panic-in-engine): p enumerates mo.partitions, which spill() sizes to exactly nred
            reduce_inputs[p].push(segment);
        }
    }
    reduce_inputs
}

/// Runs `job` over `splits` (one inner `Vec` per map task) and returns the
/// output and statistics.
///
/// # Panics
///
/// Panics if `num_reducers == 0`; use [`run_map_only_job`] for map-only
/// jobs, whose output carries the *mapper's* output types.
pub fn run_job<M, R>(
    job: &JobSpec<M, R>,
    splits: Vec<Vec<(M::KIn, M::VIn)>>,
) -> JobResult<R::KOut, R::VOut>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let cfg = job.config;
    let nred = cfg.num_reducers;
    assert!(nred > 0, "run_job needs reducers; use run_map_only_job");
    let mut stats = JobStats {
        map_tasks: splits.len(),
        reduce_tasks: nred,
        ..JobStats::default()
    };

    // ------------------------------------------------------------------
    // Map phase: one task per split.
    // ------------------------------------------------------------------
    let mut map_outputs: Vec<MapOutput<M::KOut, M::VOut>> = Vec::with_capacity(splits.len());
    for split in splits {
        let out = run_map_task(job, split, &mut stats);
        map_outputs.push(out);
    }

    let reduce_inputs = shuffle_map_outputs(map_outputs, nred, &mut stats);
    let mut output = Vec::new();
    for segments in reduce_inputs {
        run_reduce_task(job, segments, &mut stats, &mut output);
    }
    JobResult { output, stats }
}

/// Runs a map-only job (`num_reducers` is ignored): map outputs, sorted
/// within each task, are the job output — like Hadoop with zero reduces
/// writing map output straight to HDFS.
pub fn run_map_only_job<M, R>(
    job: &JobSpec<M, R>,
    splits: Vec<Vec<(M::KIn, M::VIn)>>,
) -> JobResult<M::KOut, M::VOut>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let mut stats = JobStats {
        map_tasks: splits.len(),
        reduce_tasks: 0,
        ..JobStats::default()
    };
    let mut output = Vec::new();
    for split in splits {
        let mo = run_map_task(job, split, &mut stats);
        for part in mo.partitions {
            for (k, v) in part.into_pairs() {
                stats.output_records += 1;
                stats.output_bytes += (k.size_bytes() + v.size_bytes()) as u64;
                output.push((k, v));
            }
        }
    }
    JobResult { output, stats }
}

fn run_map_task<M, R>(
    job: &JobSpec<M, R>,
    split: Vec<(M::KIn, M::VIn)>,
    stats: &mut JobStats,
) -> MapOutput<M::KOut, M::VOut>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let cfg = job.config;
    let nparts = cfg.num_reducers.max(1);
    let mut mapper = job.mapper.clone();
    let mut combiner = job.combiner.as_ref().map(|c| SpillCombiner {
        combiner: c.fork(),
        out: Emitter::new(),
    });
    let mut emitter: Emitter<M::KOut, M::VOut> = Emitter::new();
    let mut task_io = TaskIo::default();

    // Recycled spill buffer: the emitter's full buffer is swapped out here
    // on every spill and drained in place by `sort_and_combine`, so its
    // capacity ping-pongs between the emitter and this scratch space and
    // steady-state mapping stops reallocating.
    let mut scratch: Vec<(M::KOut, M::VOut)> = Vec::new();

    // Sorted spill segments: each is per-partition sorted runs.
    let mut segments: Vec<Vec<Run<M::KOut, M::VOut>>> = Vec::new();

    let mut spill = |emitter: &mut Emitter<M::KOut, M::VOut>,
                     scratch: &mut Vec<(M::KOut, M::VOut)>,
                     stats: &mut JobStats,
                     segments: &mut Vec<_>| {
        emitter.drain_reusing(scratch);
        if scratch.is_empty() {
            return;
        }
        let (parts, in_recs, out_recs, out_bytes) =
            sort_and_combine::<M>(scratch, nparts, &job.partitioner, combiner.as_mut());
        if job.combiner.is_some() {
            stats.combine_input_records += in_recs;
            stats.combine_output_records += out_recs;
        }
        stats.spills += 1;
        stats.spill_write_bytes += out_bytes;
        stats.map_materialized_records += out_recs;
        stats.map_materialized_bytes += out_bytes;
        segments.push(parts);
    };

    for (k, v) in split {
        task_io.input_records += 1;
        task_io.input_bytes += (k.size_bytes() + v.size_bytes()) as u64;
        mapper.map(&k, &v, &mut emitter);
        if emitter.bytes() >= cfg.sort_buffer_bytes {
            stats.map_output_records += emitter.records();
            stats.map_output_bytes += emitter.bytes();
            spill(&mut emitter, &mut scratch, stats, &mut segments);
        }
    }
    mapper.finish(&mut emitter);
    stats.map_output_records += emitter.records();
    stats.map_output_bytes += emitter.bytes();
    spill(&mut emitter, &mut scratch, stats, &mut segments);

    stats.map_input_records += task_io.input_records;
    stats.map_input_bytes += task_io.input_bytes;

    // Merge spill segments per partition (accounting multi-pass cost).
    let nsegs = segments.len();
    if nsegs > 1 {
        stats.map_merge_passes += cfg.merge_passes(nsegs) as u64;
    }
    let mut partitions: Vec<Vec<Run<M::KOut, M::VOut>>> = (0..nparts).map(|_| Vec::new()).collect();
    let mut merged_bytes = 0u64;
    for seg in segments {
        for (p, run) in seg.into_iter().enumerate() {
            merged_bytes += run.data_bytes();
            // hhsim: allow(panic-in-engine): p enumerates seg, which holds exactly nparts runs by construction
            partitions[p].push(run);
        }
    }
    if nsegs > 1 {
        // Every extra pass rewrites the whole materialized output.
        stats.map_merge_bytes += merged_bytes * cfg.merge_passes(nsegs) as u64;
    }
    let partitions: Vec<Run<M::KOut, M::VOut>> = partitions.into_iter().map(merge_runs).collect();

    for part in &partitions {
        task_io.output_records += part.len() as u64;
        task_io.output_bytes += part.data_bytes();
    }
    stats.map_task_io.push(task_io);
    MapOutput { partitions }
}

/// Sorts a spill buffer by (partition, key), optionally combining per key
/// group, and splits it into per-partition sorted columnar runs. Returns
/// the runs plus (combine-in, combine-out, materialized-bytes) counters.
///
/// `records` is drained in place — its (empty) allocation survives for the
/// caller to recycle into the emitter.
///
/// The partitioner runs exactly once per input record: each record is
/// decorated with its partition index up front, the buffer is
/// `sort_unstable_by` on `(partition, key, arrival index)` — the arrival
/// tie-break makes the unstable sort equivalent to the documented stable
/// order — and the runs are then split at partition boundaries without
/// re-hashing. Only a key-*rewriting* combiner pays for re-partitioning
/// (of the rewritten records) and a stable per-partition re-sort.
#[expect(
    clippy::type_complexity,
    reason = "one private caller destructures the runs and three counters at once; an alias would only add a name"
)]
fn sort_and_combine<M: Mapper>(
    records: &mut Vec<(M::KOut, M::VOut)>,
    nparts: usize,
    partitioner: &Partitioner<M::KOut>,
    combiner: Option<&mut SpillCombiner<M::KOut, M::VOut>>,
) -> (Vec<Run<M::KOut, M::VOut>>, u64, u64, u64) {
    let in_records = records.len() as u64;
    assert!(
        records.len() <= u32::MAX as usize && nparts <= u32::MAX as usize,
        "spill buffers and partition counts are bounded by u32"
    );
    let mut counts = vec![0usize; nparts];
    let mut decorated: Vec<(u32, u32, M::KOut, M::VOut)> = Vec::with_capacity(records.len());
    for (i, (k, v)) in records.drain(..).enumerate() {
        let p = partitioner(&k, nparts);
        // hhsim: allow(panic-in-engine): the partitioner contract returns p < nparts (pinned by partition tests)
        counts[p] += 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "record and partition counts are asserted to fit in u32 above"
        )]
        decorated.push((p as u32, i as u32, k, v));
    }
    decorated.sort_unstable_by(|a, b| (a.0, &a.2, a.1).cmp(&(b.0, &b.2, b.1)));

    // Split the sorted buffer at partition boundaries into columnar runs;
    // every record's partition is already attached, so no re-hashing.
    let mut sorted_parts: Vec<Run<M::KOut, M::VOut>> =
        counts.iter().map(|&c| Run::with_capacity(c)).collect();
    for (p, _, k, v) in decorated {
        sorted_parts[p as usize].push(k, v);
    }

    let parts = match combiner {
        None => sorted_parts,
        Some(comb) => {
            let mut out_parts: Vec<Run<M::KOut, M::VOut>> =
                (0..nparts).map(|_| Run::new()).collect();
            // A partition only needs the defensive re-sort if the combiner
            // rewrote a key into it; key-preserving output arrives in
            // ascending key order and stays where it is.
            let mut dirty = vec![false; nparts];
            for (p, run) in sorted_parts.iter().enumerate() {
                for (key, vals) in run.groups() {
                    comb.combiner.combine(key, vals, &mut comb.out);
                    for (k, v) in comb.out.drain_kept() {
                        let q = if k == *key {
                            p
                        } else {
                            let q = partitioner(&k, nparts);
                            dirty[q] = true;
                            q
                        };
                        out_parts[q].push(k, v);
                    }
                }
            }
            for (p, run) in out_parts.iter_mut().enumerate() {
                if dirty[p] {
                    run.sort_stable();
                }
            }
            out_parts
        }
    };
    let out_records: u64 = parts.iter().map(|p| p.len() as u64).sum();
    let out_bytes: u64 = parts.iter().map(Run::data_bytes).sum();
    (parts, in_records, out_records, out_bytes)
}

fn run_reduce_task<M, R>(
    job: &JobSpec<M, R>,
    segments: Vec<Run<M::KOut, M::VOut>>,
    stats: &mut JobStats,
    output: &mut Vec<(R::KOut, R::VOut)>,
) where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let cfg = job.config;
    let mut task_io = TaskIo::default();
    let nsegs = segments.len();
    let seg_bytes: u64 = segments.iter().map(Run::data_bytes).sum();
    task_io.input_bytes = seg_bytes;
    task_io.input_records = segments.iter().map(|s| s.len() as u64).sum();

    // Extra merge passes beyond the final streaming merge: Hadoop merges
    // down to `merge_factor` runs on disk, then streams the last merge into
    // the reducer.
    if nsegs > cfg.merge_factor {
        let mut segs = nsegs;
        let mut passes = 0u64;
        while segs > cfg.merge_factor {
            segs = segs.div_ceil(cfg.merge_factor);
            passes += 1;
        }
        stats.reduce_merge_passes += passes;
        stats.reduce_merge_bytes += seg_bytes * passes;
    }

    let merged = merge_runs(segments);
    let mut reducer = job.reducer.clone();
    let mut emitter: Emitter<R::KOut, R::VOut> = Emitter::new();

    // Key groups are contiguous ranges of the merged columnar run, so the
    // reducer borrows the key and receives the values as a real slice —
    // no per-group clone.
    for (key, vals) in merged.groups() {
        stats.reduce_input_groups += 1;
        stats.reduce_input_records += vals.len() as u64;
        reducer.reduce(key, vals, &mut emitter);
    }
    let records = emitter.drain();
    for (k, v) in records {
        task_io.output_records += 1;
        task_io.output_bytes += (k.size_bytes() + v.size_bytes()) as u64;
        stats.output_records += 1;
        stats.output_bytes += (k.size_bytes() + v.size_bytes()) as u64;
        output.push((k, v));
    }
    stats.reduce_task_io.push(task_io);
}
