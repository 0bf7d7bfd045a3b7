//! The execution engine: map → spill/sort/combine → shuffle → merge →
//! reduce, with full dataflow accounting.
//!
//! Hot-path design (see DESIGN.md for the full story):
//!
//! - **Precomputed partitions** — each spill decorates every record with
//!   its partition index *once* and sorts on `(partition, key, arrival)`,
//!   instead of calling the partitioner twice per comparison inside the
//!   sort and once more per record on insertion.
//! - **Columnar runs** — sorted runs keep keys and values in separate
//!   contiguous arrays ([`crate::merge::Run`]), so key groups are real
//!   slices: reducers receive `&vals[i..j]` with zero cloning.
//! - **Heap merge** — the k-way merge consumes its runs through a
//!   `BinaryHeap` keyed on `(key, run)`: `O(n log k)` with zero clones,
//!   stable across equal keys (earlier runs first).
//! - **Re-sort elision** — combiner output skips the defensive
//!   per-partition re-sort unless the combiner actually rewrote a key.
//! - **One workspace per job** — the map phase spills through one set of
//!   buffers (the emitter and its recycled twin, the decorated sort
//!   buffer, the combiner's key group and output), reused by every spill
//!   of every map task and dropped before the reduce phase. A combiner
//!   reads each key group straight from the sorted buffer into one reused
//!   `Vec`, and its output runs are sized by a count of the groups.
//! - **Map outputs stay as spill runs** — a task's spills are not merged
//!   into one run per partition: each reducer merges every run of every
//!   map output in task order, spill order, once. The map-side merge is
//!   still accounted, and a reducer's merge passes count the map outputs
//!   that reached it, as Hadoop's counters do.
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
use crate::stats::JobStats;
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

/// The map phase's reused buffers: one per job, handed to every map task
/// in turn and dropped before the shuffle, so steady-state spilling
/// allocates only the runs it keeps.
struct Workspace<K, V> {
    /// The running task's output collector.
    emitter: Emitter<K, V>,
    /// The emitter's recycled twin: a spill swaps the full buffer out into
    /// it and drains it in place, so the two allocations ping-pong.
    recycled: Vec<(K, V)>,
    /// The spill's sort buffer: `(partition, arrival, key, value)`.
    sorted: Vec<(u32, u32, K, V)>,
    /// Records per partition of the spill being sorted, or key groups per
    /// partition when it is combined.
    counts: Vec<usize>,
    /// One key group's values, handed to the combiner as a slice.
    group: Vec<V>,
    /// The combiner's output, drained after every key group.
    combined: Emitter<K, V>,
}

impl<K: Datum, V: Datum> Workspace<K, V> {
    fn new() -> Self {
        Workspace {
            emitter: Emitter::new(),
            recycled: Vec::new(),
            sorted: Vec::new(),
            counts: Vec::new(),
            group: Vec::new(),
            combined: Emitter::new(),
        }
    }
}

/// Sorted output of one map task: per spill, in spill order, one columnar
/// run per partition. Hadoop merges a task's spills into one file; here
/// that merge is only accounted, and the runs travel as they are to the
/// reducer, whose one merge takes them in task order, then spill order —
/// the order a per-task merge followed by the reducer's merge gives.
struct MapOutput<K, V> {
    spills: Vec<Vec<Run<K, V>>>,
}

impl<K: Datum, V: Datum> MapOutput<K, V> {
    /// The task's sorted output per partition, its spills merged.
    fn into_merged(self, nparts: usize) -> impl Iterator<Item = Run<K, V>> {
        let mut parts: Vec<Vec<Run<K, V>>> = (0..nparts)
            .map(|_| Vec::with_capacity(self.spills.len()))
            .collect();
        for spill in self.spills {
            for (run, part) in spill.into_iter().zip(&mut parts) {
                part.push(run);
            }
        }
        parts.into_iter().map(merge_runs)
    }
}

/// What reaches one reduce task: the runs of every map output in task
/// order, and how many map outputs they came from.
struct ReduceInput<K, V> {
    runs: Vec<Run<K, V>>,
    map_outputs: usize,
}

/// Groups map-output runs by reducer, accounting shuffle bytes. Returns
/// one input per reduce task.
fn shuffle_map_outputs<K: Datum, V: Datum>(
    map_outputs: Vec<MapOutput<K, V>>,
    nred: usize,
    stats: &mut JobStats,
) -> Vec<ReduceInput<K, V>> {
    let mut inputs: Vec<ReduceInput<K, V>> = (0..nred)
        .map(|p| {
            let mut input = ReduceInput {
                runs: Vec::new(),
                map_outputs: 0,
            };
            let mut runs = 0;
            for mo in &map_outputs {
                let n = mo
                    .spills
                    .iter()
                    .filter(|s| s.get(p).is_some_and(|r| !r.is_empty()))
                    .count();
                runs += n;
                input.map_outputs += usize::from(n > 0);
            }
            input.runs.reserve_exact(runs);
            input
        })
        .collect();
    for mo in map_outputs {
        for spill in mo.spills {
            for (run, input) in spill.into_iter().zip(&mut inputs) {
                if run.is_empty() {
                    continue;
                }
                stats.shuffle_bytes += run.data_bytes();
                input.runs.push(run);
            }
        }
    }
    inputs
}

/// Runs `job` over `splits` (one inner `Vec` per map task) and returns the
/// output and statistics.
///
/// # Panics
///
/// Panics if `num_reducers == 0`; use [`run_map_only_job`] for map-only
/// jobs, whose output carries the *mapper's* output types. Panics if
/// `merge_factor < 2`, which no merge can make progress with.
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
    assert!(cfg.merge_factor >= 2, "merge factor must be at least 2");
    let mut stats = JobStats {
        map_tasks: splits.len(),
        reduce_tasks: nred,
        ..JobStats::default()
    };

    // ------------------------------------------------------------------
    // Map phase: one task per split, all spilling through one workspace,
    // which goes before the reduce phase so it adds nothing to its peak.
    // ------------------------------------------------------------------
    let mut ws = Workspace::new();
    let mut map_outputs: Vec<MapOutput<M::KOut, M::VOut>> = Vec::with_capacity(splits.len());
    for split in splits {
        map_outputs.push(run_map_task(job, split, &mut ws, &mut stats));
    }
    drop(ws);

    let reduce_inputs = shuffle_map_outputs(map_outputs, nred, &mut stats);
    let mut output = Vec::new();
    for input in reduce_inputs {
        run_reduce_task(job, input, &mut stats, &mut output);
    }
    JobResult { output, stats }
}

/// Runs a map-only job (`num_reducers` is ignored): map outputs, sorted
/// within each task, are the job output — like Hadoop with zero reduces
/// writing map output straight to HDFS.
///
/// # Panics
///
/// Panics if `merge_factor < 2`, which no merge can make progress with.
pub fn run_map_only_job<M, R>(
    job: &JobSpec<M, R>,
    splits: Vec<Vec<(M::KIn, M::VIn)>>,
) -> JobResult<M::KOut, M::VOut>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    assert!(
        job.config.merge_factor >= 2,
        "merge factor must be at least 2"
    );
    let mut stats = JobStats {
        map_tasks: splits.len(),
        reduce_tasks: 0,
        ..JobStats::default()
    };
    let nparts = job.config.num_reducers.max(1);
    let mut ws = Workspace::new();
    let mut output = Vec::new();
    for split in splits {
        let mo = run_map_task(job, split, &mut ws, &mut stats);
        for part in mo.into_merged(nparts) {
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
    ws: &mut Workspace<M::KOut, M::VOut>,
    stats: &mut JobStats,
) -> MapOutput<M::KOut, M::VOut>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    let cfg = job.config;
    let nparts = cfg.num_reducers.max(1);
    let mut mapper = job.mapper.clone();
    let mut combiner = job.combiner.as_ref().map(|c| c.fork());
    let mut spills: Vec<Vec<Run<M::KOut, M::VOut>>> = Vec::new();

    let mut spill = |ws: &mut Workspace<M::KOut, M::VOut>, stats: &mut JobStats| {
        stats.map_output_records += ws.emitter.records();
        stats.map_output_bytes += ws.emitter.bytes();
        ws.emitter.drain_reusing(&mut ws.recycled);
        if ws.recycled.is_empty() {
            return;
        }
        let in_records = ws.recycled.len() as u64;
        let parts = sort_and_combine(ws, nparts, &job.partitioner, combiner.as_deref_mut());
        let out_records: u64 = parts.iter().map(|p| p.len() as u64).sum();
        let out_bytes: u64 = parts.iter().map(Run::data_bytes).sum();
        if job.combiner.is_some() {
            stats.combine_input_records += in_records;
            stats.combine_output_records += out_records;
        }
        stats.spills += 1;
        stats.spill_write_bytes += out_bytes;
        stats.map_materialized_records += out_records;
        stats.map_materialized_bytes += out_bytes;
        spills.push(parts);
    };

    for (k, v) in split {
        stats.map_input_records += 1;
        stats.map_input_bytes += (k.size_bytes() + v.size_bytes()) as u64;
        mapper.map(&k, &v, &mut ws.emitter);
        if ws.emitter.bytes() >= cfg.sort_buffer_bytes {
            spill(ws, stats);
        }
    }
    mapper.finish(&mut ws.emitter);
    spill(ws, stats);

    // Hadoop merges the spills into one sorted file per partition; that
    // merge is accounted (every pass rewrites the whole materialized
    // output), and the runs themselves travel to the reducers unmerged.
    if spills.len() > 1 {
        let output_bytes: u64 = spills.iter().flatten().map(Run::data_bytes).sum();
        let passes = cfg.merge_passes(spills.len()) as u64;
        stats.map_merge_passes += passes;
        stats.map_merge_bytes += output_bytes * passes;
    }
    MapOutput { spills }
}

/// Sorts the spill in `ws.recycled` by (partition, key), optionally
/// combining per key group, and splits it into per-partition sorted
/// columnar runs.
///
/// The spill is drained into the workspace's sort buffer, which is
/// drained in turn, so both allocations survive for the next spill.
///
/// The partitioner runs exactly once per input record: each record is
/// decorated with its partition index up front, the buffer is
/// `sort_unstable_by` on `(partition, key, arrival index)` — the arrival
/// tie-break makes the unstable sort equivalent to the documented stable
/// order — and the runs are then split at partition boundaries without
/// re-hashing. A combiner reads each key group straight from the sorted
/// buffer; only a key-*rewriting* one pays for re-partitioning (of the
/// rewritten records) and a stable per-partition re-sort.
fn sort_and_combine<K: Datum, V: Datum>(
    ws: &mut Workspace<K, V>,
    nparts: usize,
    partitioner: &Partitioner<K>,
    combiner: Option<&mut (dyn TaskCombiner<K, V> + 'static)>,
) -> Vec<Run<K, V>> {
    assert!(
        ws.recycled.len() <= u32::MAX as usize && nparts <= u32::MAX as usize,
        "spill buffers and partition counts are bounded by u32"
    );
    ws.counts.clear();
    ws.counts.resize(nparts, 0);
    ws.sorted.reserve_exact(ws.recycled.len());
    for (i, (k, v)) in ws.recycled.drain(..).enumerate() {
        let p = partitioner(&k, nparts);
        // hhsim: allow(panic-in-engine): the partitioner contract returns p < nparts (pinned by partition tests)
        ws.counts[p] += 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "record and partition counts are asserted to fit in u32 above"
        )]
        ws.sorted.push((p as u32, i as u32, k, v));
    }
    ws.sorted
        .sort_unstable_by(|a, b| (a.0, &a.2, a.1).cmp(&(b.0, &b.2, b.1)));

    if combiner.is_some() {
        // Key groups per partition size the output runs instead: a
        // key-preserving combiner that folds a group emits one record.
        ws.counts.fill(0);
        let mut prev: Option<(u32, &K)> = None;
        for (p, _, k, _) in &ws.sorted {
            if prev != Some((*p, k)) {
                if let Some(c) = ws.counts.get_mut(*p as usize) {
                    *c += 1;
                }
                prev = Some((*p, k));
            }
        }
    }
    let mut parts: Vec<Run<K, V>> = ws.counts.iter().map(|&c| Run::with_capacity(c)).collect();

    let Some(combiner) = combiner else {
        // Split the sorted buffer at partition boundaries into columnar
        // runs; every record's partition is already attached.
        for (p, _, k, v) in ws.sorted.drain(..) {
            if let Some(run) = parts.get_mut(p as usize) {
                run.push(k, v);
            }
        }
        return parts;
    };

    // A partition only needs the defensive re-sort if the combiner
    // rewrote a key into it; key-preserving output arrives in ascending
    // key order and stays where it is.
    let mut dirty: Vec<bool> = Vec::new();
    let mut records = ws.sorted.drain(..).peekable();
    while let Some((p, _, key, v)) = records.next() {
        ws.group.push(v);
        while let Some((_, _, _, v)) = records.next_if(|r| r.0 == p && r.2 == key) {
            ws.group.push(v);
        }
        combiner.combine(&key, &ws.group, &mut ws.combined);
        ws.group.clear();
        for (k, v) in ws.combined.drain_kept() {
            let q = if k == key {
                p as usize
            } else {
                let q = partitioner(&k, nparts);
                assert!(
                    q < nparts,
                    "partitioner returned {q} of {nparts} partitions"
                );
                dirty.resize(nparts, false);
                if let Some(d) = dirty.get_mut(q) {
                    *d = true;
                }
                q
            };
            if let Some(run) = parts.get_mut(q) {
                run.push(k, v);
            }
        }
    }
    for (run, _) in parts.iter_mut().zip(&dirty).filter(|(_, &d)| d) {
        run.sort_stable();
    }
    parts
}

fn run_reduce_task<M, R>(
    job: &JobSpec<M, R>,
    input: ReduceInput<M::KOut, M::VOut>,
    stats: &mut JobStats,
    output: &mut Vec<(R::KOut, R::VOut)>,
) where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    // Extra merge passes beyond the final streaming merge: Hadoop merges
    // the map outputs that reached it down to `merge_factor` on disk, then
    // streams the last merge into the reducer.
    let passes = job.config.merge_passes(input.map_outputs).saturating_sub(1) as u64;
    if passes > 0 {
        let seg_bytes: u64 = input.runs.iter().map(Run::data_bytes).sum();
        stats.reduce_merge_passes += passes;
        stats.reduce_merge_bytes += seg_bytes * passes;
    }

    let merged = merge_runs(input.runs);
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
        stats.output_records += 1;
        stats.output_bytes += (k.size_bytes() + v.size_bytes()) as u64;
        output.push((k, v));
    }
}
