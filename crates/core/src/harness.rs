//! Parallel, memoized harness for the figure generators.
//!
//! Every artifact in [`crate::figures`] reads a set of independent runs:
//! [`SimConfig`] points, seed-swept [`ReplicationPlan`]s, and for Figs. 1
//! and 2 the stall splits of suite profiles no point prices. A [`Plan`]
//! holds one regeneration's worth of them: artifacts (and the calibration
//! claims) declare what they read and get typed handles back, a
//! declaration equal to a held entry gets that entry's handle, and
//! [`Plan::run`] runs every distinct entry once. Results land by entry,
//! so what a handle reads is byte-identical whatever the worker count or
//! scheduling interleaving. Shared expensive state (stall splits,
//! functional runs) goes through [`SimCache::global`](crate::SimCache::global),
//! whose per-key once-cells guarantee all workers observe identical
//! values.
//!
//! A plan runs in stages on one scoped worker pool whose worker 0 is the
//! caller: the **fill stage** enumerates the distinct expensive memo
//! entries its entries will look up and work-steals the ones not yet
//! computed, then the **point stage** answers on the caller every point
//! the memo holds and prices the rest on the pool against a full memo,
//! then each replication plan the memo lacks spreads its seeds over the
//! pool; a warm plan spawns nothing. Neighbouring points share entries, so
//! workers that discover them lazily queue on each other's once-cells;
//! workers handed distinct entries do not (DESIGN.md, "Parallel memoized
//! sweep harness"). [`run_grid_with`] declares a flat grid read by
//! [`Reading::Auto`] into a plan of its own.
//!
//! The worker count defaults to the machine's available parallelism and
//! is set process-wide with [`set_jobs`] (the `figures` binary's
//! `--jobs N` flag). Cumulative counters — runs evaluated and fills run —
//! are exposed via [`snapshot`]. The harness reads no clock: timing a
//! fill is its caller's business (the `figures` binary times itself).

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use hhsim_arch::{ComputeProfile, Frequency, MachineModel, StallBatch, TraceKey};
use hhsim_faults::{FaultConfig, FaultStats};
use hhsim_workloads::{AppId, FunctionalConfig};

use crate::model::{
    check_split, priced_profiles, recovered, ClusterPrep, Measurement, Reading, RunScratch,
    SimConfig, SimError, Validated,
};
use crate::ratios::AppRatios;
use crate::simcache::{MemoKey, SimCache};

/// Requested worker count; 0 means "auto" (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);
/// Points and seeds evaluated since process start.
static POINTS: AtomicU64 = AtomicU64::new(0);
/// Fills run since process start.
static GRIDS: AtomicU64 = AtomicU64::new(0);

/// Adds one fill of `runs` points and seeds to the process-wide counters.
fn count_fill(runs: usize) {
    POINTS.fetch_add(runs as u64, Ordering::Relaxed);
    GRIDS.fetch_add(1, Ordering::Relaxed);
}

/// The number of workers the harness would use when jobs is "auto".
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the process-wide worker count (0 restores "auto").
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The effective worker count used by [`Plan::run`] and
/// [`ReplicationPlan::run`].
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => available_jobs(),
        n => n,
    }
}

/// Cumulative harness counters (since process start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HarnessSnapshot {
    /// Simulation points and replication seeds evaluated through the
    /// harness.
    pub points: u64,
    /// Fills run: [`Plan::run`] (a grid's included) and stand-alone
    /// [`ReplicationPlan::run`] calls.
    pub grids: u64,
}

impl HarnessSnapshot {
    /// Difference relative to an earlier snapshot.
    pub fn since(&self, earlier: &HarnessSnapshot) -> HarnessSnapshot {
        HarnessSnapshot {
            points: self.points.saturating_sub(earlier.points),
            grids: self.grids.saturating_sub(earlier.grids),
        }
    }
}

/// Reads the cumulative counters.
pub fn snapshot() -> HarnessSnapshot {
    HarnessSnapshot {
        points: POINTS.load(Ordering::Relaxed),
        grids: GRIDS.load(Ordering::Relaxed),
    }
}

/// Evaluates `eval` over `items` on up to `workers` workers and returns
/// the results in item order. The caller is worker 0: it spawns
/// `min(workers, batches) − 1` scoped helpers and works beside them, so a
/// stage of one batch or less spawns nothing. ([`point_stage`] answers the
/// points the memo holds on the caller and hands only the rest here, so a
/// warm plan spawns nothing at all.) Workers claim `batch` contiguous
/// items per grab from a shared cursor and land each result in its own
/// slot, so neither the worker count nor the interleaving can reorder or
/// alias output. A caller without helpers runs inline, in order, and
/// drops each item once it is evaluated: a result no larger than its item
/// is written into the item's own storage, so the inline run holds the
/// items or their results, not both.
///
/// Every worker works in its own state of `states` — scratch `eval` may
/// reuse between items and must not read results out of (`()` when there
/// is nothing to reuse). The caller owns the states and may hand the same
/// ones to several calls; a call adds the helpers' states it lacks.
fn pool<I: Sync, S: Default + Send, T: Send + Sync>(
    items: Vec<I>,
    workers: usize,
    batch: usize,
    states: &mut WorkerStates<S>,
    eval: impl Fn(&mut S, &I) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    let helpers = workers.min(n.div_ceil(batch)).saturating_sub(1);
    let WorkerStates {
        caller,
        helpers: helper_states,
    } = states;
    if helpers == 0 {
        return items.into_iter().map(|item| eval(caller, &item)).collect();
    }
    if let Some(lacking) = helpers.checked_sub(helper_states.len()) {
        helper_states.reserve_exact(lacking);
        helper_states.resize_with(helpers, S::default);
    }
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let work = |state: &mut S| {
        loop {
            let start = next.fetch_add(batch, Ordering::Relaxed);
            let end = (start + batch).min(n);
            let (Some(claimed), Some(out)) = (items.get(start..end), slots.get(start..end)) else {
                break;
            };
            if claimed.is_empty() {
                break;
            }
            for (item, slot) in claimed.iter().zip(out) {
                // A claimed index belongs to this worker alone.
                let _ = slot.set(eval(state, item));
            }
        }
    };
    std::thread::scope(|scope| {
        for state in helper_states.iter_mut().take(helpers) {
            #[cfg(test)]
            tests::HELPERS.with(|c| c.set(c.get() + 1));
            scope.spawn(move || work(state));
        }
        work(caller);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("worker pool covered every item"))
        .collect()
}

/// The states of a [`pool`]'s workers: the caller's, held in place, and
/// its helpers', made when a call first spawns them.
#[derive(Default)]
struct WorkerStates<S> {
    caller: S,
    helpers: Vec<S>,
}

/// The expensive memo entries a fill computes: those pricing `points`
/// looks up — per point that holds the config contract for its reading,
/// the app's reference functional run and the splits of
/// [`priced_profiles`] on every machine of its roster, the list and the
/// roster `ClusterPrep::new` prices from, by the same calls — and the
/// stall splits of `splits` that hold theirs ([`check_split`]), each entry
/// once, less the ones `cache` already holds (a peek that counts nothing).
/// An entry missing here would be computed lazily by the first point that
/// needs it (slower, never wrong), one nobody asks for is wasted work;
/// `fill_stage_covers_every_lookup` pins both. A point or split that
/// breaks the contract is priced by nobody, and names nothing: it ends in
/// its [`SimError`], not inside the simulation of an entry.
fn missing_keys<'a>(
    points: impl IntoIterator<Item = (&'a SimConfig, Reading)>,
    splits: &'a [(MachineModel, ComputeProfile)],
    cache: &SimCache,
) -> Vec<MemoKey<'a>> {
    // Profiles own their names: build them once per distinct (machine,
    // app) pair, not once per point.
    let mut priced: Vec<(&MachineModel, AppId)> = Vec::new();
    let mut keys = Vec::new();
    let mut name = |key: MemoKey<'a>| {
        if !keys.contains(&key) && !cache.holds(&key) {
            keys.push(key);
        }
    };
    for (cfg, reading) in points {
        if cfg.validate(reading).is_err() {
            continue;
        }
        let roster = cfg.roster();
        for (m, _) in std::iter::once(roster.lead).chain(roster.other) {
            if priced.iter().any(|&(pm, pa)| pa == cfg.app && pm == m) {
                continue;
            }
            priced.push((m, cfg.app));
            name(MemoKey::Run(cfg.app, AppRatios::reference_config()));
            for p in priced_profiles(cfg.app) {
                name(MemoKey::Stall(m, Cow::Owned(p)));
            }
        }
    }
    for (m, p) in splits {
        if check_split(m, p).is_ok() {
            name(MemoKey::Stall(m, Cow::Borrowed(p)));
        }
    }
    keys
}

/// A trace of a fill: the profile that draws it, and the machines it runs
/// through, one per missing entry.
type TraceClaim<'a> = (Cow<'a, ComputeProfile>, Vec<&'a MachineModel>);

/// One claim of a fill.
enum FillJob<'a> {
    /// A trace, boxed so that the claims the pool holds until the last run
    /// is done are a run's size each.
    Trace(Box<TraceClaim<'a>>),
    /// A functional run.
    Run(AppId, FunctionalConfig),
}

/// The fill stage: computes the [`missing_keys`] of `points` and `splits`
/// across the pool, in one claim per address trace and one per
/// functional run. A trace claim draws its trace once for every machine
/// that misses it, through the hierarchies of the worker's [`StallBatch`]
/// (its `pool` state, reused from claim to claim and dropped with the
/// stage). The traces
/// are claimed first; a worker drops its batch before its first
/// functional run, so no hierarchy outlives its stall claims into a run.
/// With every key held it computes and spawns nothing, and with no point
/// declared it allocates nothing either.
fn fill_stage<'a>(
    points: impl IntoIterator<Item = (&'a SimConfig, Reading)>,
    splits: &'a [(MachineModel, ComputeProfile)],
    workers: usize,
    cache: &SimCache,
) {
    let mut traces: Vec<Box<TraceClaim<'a>>> = Vec::new();
    let mut runs = Vec::new();
    for key in missing_keys(points, splits, cache) {
        match key {
            MemoKey::Run(app, cfg) => runs.push(FillJob::Run(app, cfg)),
            MemoKey::Stall(m, p) => {
                let trace = TraceKey::of(&p);
                match traces.iter_mut().find(|t| TraceKey::of(&t.0) == trace) {
                    Some(t) => t.1.push(m),
                    None => traces.push(Box::new((p, vec![m]))),
                }
            }
        }
    }
    let jobs: Vec<FillJob<'a>> = traces.into_iter().map(FillJob::Trace).chain(runs).collect();
    let batches: &mut WorkerStates<StallBatch> = &mut WorkerStates::default();
    pool(jobs, workers, 1, batches, |batch, job| match job {
        FillJob::Trace(t) => cache.fill_stalls(&t.0, &t.1, batch),
        FillJob::Run(app, cfg) => {
            *batch = StallBatch::default();
            drop(cache.functional_run(*app, cfg));
        }
    });
}

/// Evaluates a flat grid of points on `workers` threads against the
/// process-wide cache. Results are returned in input order regardless of
/// which worker computed each point.
pub fn run_grid_with(configs: &[SimConfig], workers: usize) -> Vec<Measurement> {
    run_grid_on(configs, workers, SimCache::global())
}

/// [`run_grid_with`] against an explicit cache (tests): the configs
/// declared into a [`Plan`], each read by [`Reading::Auto`], and run.
///
/// # Panics
///
/// Panics with the [`SimError`] of a point that breaks the config contract
/// or fails unrecoverably, as [`simulate`](crate::simulate) does.
pub fn run_grid_on(configs: &[SimConfig], workers: usize, cache: &SimCache) -> Vec<Measurement> {
    let mut plan = Plan::new();
    let points: Vec<Point> = (configs.iter())
        .map(|cfg| plan.point(cfg.clone(), Reading::Auto))
        .collect();
    let ran = plan.run_on(workers, cache);
    (points.into_iter())
        .map(|p| recovered(ran.measurement(p).cloned()))
        .collect()
}

/// Handle of a point declared into a [`Plan`]: read with
/// [`Outcomes::measurement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point(usize);

/// Handle of a [`ReplicationPlan`] declared into a [`Plan`]: read with
/// [`Outcomes::summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replicas(usize);

/// Handle of a stall split declared into a [`Plan`]: read with
/// [`Outcomes::cpi`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split(usize);

/// The index of `entry` among `entries`, where it is pushed if it is new.
fn intern<T: PartialEq>(entries: &mut Vec<T>, entry: T) -> usize {
    if let Some(i) = entries.iter().position(|held| *held == entry) {
        return i;
    }
    entries.push(entry);
    entries.len() - 1
}

/// One regeneration's runs, declared before any of them runs.
///
/// Artifacts (and the calibration claims) register what they read —
/// points with the [`Reading`] each is read by, [`ReplicationPlan`]s, and
/// stall splits of (machine, profile) pairs that no point prices — and
/// keep the typed handles they get back. A declaration equal to one
/// already held gets the held entry's handle, so two artifacts that quote
/// the same run read one entry. [`Plan::run`] then runs every distinct
/// entry once — one fill stage for all of them, the points the memo lacks
/// on the pool (the held ones on the caller), each replication plan's
/// seeds on the pool, the splits read back — and hands the [`Outcomes`]
/// the handles read. What a handle reads does not depend on the worker
/// count.
///
/// ```
/// use hhsim_core::harness::Plan;
/// use hhsim_core::{arch::presets, workloads::AppId, Reading, SimConfig};
///
/// let atom = SimConfig::new(AppId::Sort, presets::atom_c2758());
/// let xeon = SimConfig::new(AppId::Sort, presets::xeon_e5_2420());
/// let mut plan = Plan::new();
/// let a = plan.point(atom.clone(), Reading::Auto);
/// let x = plan.point(xeon, Reading::Auto);
/// assert_eq!(plan.point(atom, Reading::Auto), a, "one entry per run");
/// let outcomes = plan.run();
/// let seconds = |p| outcomes.measurement(p).map(|m| m.breakdown.total());
/// assert!(seconds(a)? > seconds(x)?);
/// # Ok::<(), hhsim_core::SimError>(())
/// ```
#[derive(Default)]
pub struct Plan {
    points: Vec<(SimConfig, Reading)>,
    replications: Vec<ReplicationPlan>,
    splits: Vec<(MachineModel, ComputeProfile)>,
    /// Declarations of any kind, repeats included.
    declared: usize,
}

impl Plan {
    /// A plan with nothing declared.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Declares `cfg` read by `reading` (a timeline is not kept: read
    /// [`Reading::Traced`] through [`SimConfig::run`]).
    pub fn point(&mut self, cfg: SimConfig, reading: Reading) -> Point {
        self.declared += 1;
        Point(intern(&mut self.points, (cfg, reading)))
    }

    /// Declares a replication plan.
    pub fn replicate(&mut self, plan: ReplicationPlan) -> Replicas {
        self.declared += 1;
        Replicas(intern(&mut self.replications, plan))
    }

    /// Declares the trace-driven stall split of `profile` on `machine`.
    pub fn split(&mut self, machine: MachineModel, profile: ComputeProfile) -> Split {
        self.declared += 1;
        Split(intern(&mut self.splits, (machine, profile)))
    }

    /// Distinct entries of every kind: what a run runs.
    pub fn len(&self) -> usize {
        self.points.len() + self.replications.len() + self.splits.len()
    }

    /// Whether nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declarations of every kind, each repeat counted.
    pub fn declared(&self) -> usize {
        self.declared
    }

    /// Runs every entry with the configured worker count against the
    /// process-wide cache.
    pub fn run(self) -> Outcomes {
        self.run_on(jobs(), SimCache::global())
    }

    /// [`Plan::run`] with an explicit worker count and cache (tests). A
    /// point that breaks the config contract or fails unrecoverably, a
    /// replication plan over an invalid config and a split that breaks
    /// the contract keep their [`SimError`] for the reader; every other
    /// entry runs as it would alone. The points and every replication
    /// plan's seeds run in one set of run scratches, one per worker, made
    /// after the fill stage and dropped when this call returns.
    pub fn run_on(self, workers: usize, cache: &SimCache) -> Outcomes {
        let Plan {
            points,
            replications,
            splits,
            ..
        } = self;
        let declared = points.iter().map(|(cfg, reading)| (cfg, *reading));
        // A plan's seeds are all read per node.
        let seeded = replications.iter().map(|r| (&r.cfg, Reading::PerNode));
        fill_stage(declared.chain(seeded), &splits, workers, cache);
        let runs = points.len() + replications.iter().map(ReplicationPlan::len).sum::<usize>();
        // One run scratch per worker from here to the end of the plan,
        // each empty until its worker's first point or seed: none holds a
        // buffer beside a functional run, and a warm plan fills none.
        let scratches = &mut WorkerStates::default();
        let measured = point_stage(points, workers, cache, scratches);
        let summaries = (replications.iter())
            .map(|r| r.summarize(workers, cache, scratches))
            .collect();
        // A split that breaks the contract is not simulated: its slot is
        // never read, `Outcomes::cpi` returns its error first.
        let stalls = splits
            .iter()
            .map(|(m, p)| match check_split(m, p) {
                Ok(()) => cache.stall_split(m, p),
                Err(_) => (f64::NAN, f64::NAN),
            })
            .collect();
        count_fill(runs);
        Outcomes {
            measured,
            summaries,
            splits,
            stalls,
        }
    }
}

/// A point of the point stage: its declaration until it is answered, then
/// its outcome, in the same storage.
enum Slot {
    Declared(SimConfig, Reading),
    Answered(Result<Measurement, SimError>),
}

/// The point stage: every point's outcome, in declaration order. The
/// caller answers, in order, each point that needs no run — one `cache`
/// holds, or one that breaks the contract — and writes the answer over
/// its declaration; only the points `cache` lacks go to the pool, so a
/// warm plan spawns nothing. One worker is the caller alone: it runs a
/// missing point where it finds it. A point runs in its worker's run
/// scratch of `scratches`, which the plan's replications run in next, so
/// a worker's points after its first allocate only what their pricing
/// does. What the memo holds decides where a point is answered, never
/// what it reads.
fn point_stage(
    points: Vec<(SimConfig, Reading)>,
    workers: usize,
    cache: &SimCache,
    scratches: &mut WorkerStates<RunScratch>,
) -> Vec<Result<Measurement, SimError>> {
    let run = |cfg: &SimConfig, reading, scratch: &mut RunScratch| {
        cfg.run_in(cache, reading, scratch).map(|(m, _)| m)
    };
    let held = |cfg: &SimConfig, reading| cfg.held(cache, reading).map(|h| h.map(|(m, _)| m));
    let slots: Vec<Slot> = (points.into_iter())
        .map(|(cfg, reading)| {
            let answer = held(&cfg, reading)
                .or_else(|| (workers <= 1).then(|| run(&cfg, reading, &mut scratches.caller)));
            match answer {
                Some(outcome) => Slot::Answered(outcome),
                None => Slot::Declared(cfg, reading),
            }
        })
        .collect();
    let missing: Vec<(&SimConfig, Reading)> = (slots.iter())
        .filter_map(|slot| match slot {
            Slot::Declared(cfg, reading) => Some((cfg, *reading)),
            Slot::Answered(_) => None,
        })
        .collect();
    let eval = |scratch: &mut RunScratch, &(cfg, reading): &(&SimConfig, Reading)| {
        run(cfg, reading, scratch)
    };
    let mut ran = pool(missing, workers, 1, scratches, eval).into_iter();
    (slots.into_iter())
        .map(|slot| match slot {
            Slot::Answered(outcome) => outcome,
            // The pool answered every missing point, in order.
            Slot::Declared(cfg, reading) => ran
                .next()
                .unwrap_or_else(|| run(&cfg, reading, &mut RunScratch::default())),
        })
        .collect()
}

/// What a [`Plan`]'s entries ran to, read by the handles it minted.
///
/// Every read indexes the outcome its handle names; a handle of another
/// plan reads that plan's index here, and past the end it panics.
pub struct Outcomes {
    measured: Vec<Result<Measurement, SimError>>,
    summaries: Vec<Result<ReplicationSummary, SimError>>,
    splits: Vec<(MachineModel, ComputeProfile)>,
    stalls: Vec<(f64, f64)>,
}

/// The outcome of entry `i`: the plan's one index.
fn outcome<T>(outcomes: &[T], i: usize) -> &T {
    // hhsim: allow(panic-in-engine): a plan mints handles for its own entries only, and its outcomes hold one per entry
    &outcomes[i]
}

impl Outcomes {
    /// What `p`'s point measured, or the [`SimError`] it ended in.
    pub fn measurement(&self, p: Point) -> Result<&Measurement, SimError> {
        outcome(&self.measured, p.0).as_ref().map_err(|e| *e)
    }

    /// The summary of `r`'s replication plan, or the [`SimError`] of its
    /// invalid config.
    pub fn summary(&self, r: Replicas) -> Result<&ReplicationSummary, SimError> {
        outcome(&self.summaries, r.0).as_ref().map_err(|e| *e)
    }

    /// Cycles per instruction of `s`'s profile on its machine at `f`,
    /// with the split's on-chip and DRAM stalls, or the [`SimError`] of a
    /// split that breaks the contract (a hierarchy that cannot be
    /// simulated, no DRAM latency, an invalid memory profile).
    pub fn cpi(&self, s: Split, f: Frequency) -> Result<f64, SimError> {
        let (machine, profile) = outcome(&self.splits, s.0);
        check_split(machine, profile)?;
        let &(on_chip, dram_ns) = outcome(&self.stalls, s.0);
        Ok(machine.cpi_with_stalls(profile, f, on_chip, dram_ns))
    }
}

/// Streaming summary of one scalar across the successful replications:
/// count, mean, extremes and a normal-approximation 95% confidence
/// half-width (`1.96 · s / √n`, 0 when fewer than two samples).
///
/// Built by a serial Welford fold **in seed-index order**, so the exact
/// floating-point result is independent of worker count and batch size.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    /// Samples folded in.
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// 95% confidence half-width around the mean.
    pub ci95: f64,
}

impl Aggregate {
    /// Folds `values` in iteration order (Welford's online algorithm).
    fn fold(values: impl Iterator<Item = f64>) -> Aggregate {
        let mut agg = Aggregate::default();
        let mut m2 = 0.0;
        for v in values {
            agg.n += 1;
            if agg.n == 1 {
                agg.min = v;
                agg.max = v;
            } else {
                agg.min = agg.min.min(v);
                agg.max = agg.max.max(v);
            }
            let d = v - agg.mean;
            agg.mean += d / agg.n as f64;
            m2 += d * (v - agg.mean);
        }
        if agg.n > 1 {
            let var_mean = m2 / (agg.n - 1) as f64 / agg.n as f64;
            agg.ci95 = 1.96 * var_mean.max(0.0).sqrt();
        }
        agg
    }

    /// Mean minus the 95% half-width.
    pub fn lo(&self) -> f64 {
        self.mean - self.ci95
    }

    /// Mean plus the 95% half-width.
    pub fn hi(&self) -> f64 {
        self.mean + self.ci95
    }
}

/// The scalars one replication contributes to the reduction. A
/// replication builds no timeline and keeps no phase run (the plan passes
/// `ClusterPrep::run` no sink, and the run hands its phase runs back to
/// the worker's scratch) and its 1 Hz meter views end with the run, so
/// what the plan holds while it runs is O(replications), not
/// O(replications · trace).
#[derive(Debug, Clone)]
struct RepPoint {
    makespan_s: f64,
    energy_j: f64,
    exact_energy_j: f64,
    edp: f64,
    faults: FaultStats,
}

/// Deterministic reduction of a [`ReplicationPlan`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationSummary {
    /// Replications attempted (one per seed).
    pub replications: u64,
    /// Replications whose recovery budget was exhausted ([`PhaseError`]
    /// — excluded from the aggregates below).
    ///
    /// [`PhaseError`]: hhsim_faults::PhaseError
    pub failed_runs: u64,
    /// Job makespan, seconds.
    pub makespan_s: Aggregate,
    /// Metered dynamic energy (streamed 1 Hz view), joules.
    pub energy_j: Aggregate,
    /// Exact event-driven dynamic energy, joules.
    pub exact_energy_j: Aggregate,
    /// Energy-delay product from the **exact** energy, J·s.
    pub edp: Aggregate,
    /// Fault counters summed over the successful replications.
    pub faults: FaultStats,
}

/// Batched Monte Carlo replication of one [`SimConfig`] across fault
/// seeds.
///
/// The seed-independent half of the cluster run (node roster, phase
/// loads with their replica layout and shuffle extras, launch overheads,
/// protocol time) is prepared **once** and borrowed by every
/// worker; each seed then only re-runs the fault sampling, the wave
/// scheduler and the event-driven energy integration, in buffers its
/// worker keeps from seed to seed. Workers claim contiguous batches of
/// seeds from the same pool the grids run on, and the final reduction
/// folds the results serially in seed order — so the summary is
/// bit-identical whatever the worker count.
///
/// A plan is memoised whole: the cache keeps its [`ReplicationSummary`]
/// under the plan's config and seed list (full equality, order included),
/// so a re-render of the same plan prices and runs nothing. A seed's run
/// is kept nowhere — it would repeat only if the whole plan did — so what
/// a plan leaves behind does not grow with its seeds.
///
/// Seeds replace the seed of the config's own [`FaultConfig`]; a plan
/// over a fault-free config runs the same deterministic point once per
/// seed (useful as a baseline, every replication identical).
///
/// ```
/// use hhsim_core::figures::fig19_faults;
/// use hhsim_core::harness::ReplicationPlan;
/// use hhsim_core::{arch::presets, workloads::AppId, SimConfig};
///
/// let cfg = SimConfig::new(AppId::WordCount, presets::atom_c2758())
///     .faults(fig19_faults(0.06, true));
/// let summary = ReplicationPlan::new(cfg, 0..8).run();
/// assert_eq!(summary.replications, 8);
/// assert!(summary.makespan_s.ci95 >= 0.0);
/// assert!(summary.edp.lo() <= summary.edp.hi());
/// ```
#[derive(PartialEq)]
pub struct ReplicationPlan {
    cfg: SimConfig,
    seeds: Vec<u64>,
}

/// Seeds a worker claims per grab from a plan.
const SEED_BATCH: usize = 8;

impl ReplicationPlan {
    /// A plan replicating `cfg` once per seed.
    pub fn new(cfg: SimConfig, seeds: impl IntoIterator<Item = u64>) -> Self {
        ReplicationPlan {
            cfg,
            seeds: seeds.into_iter().collect(),
        }
    }

    /// Number of replications the plan will run.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the plan has no seeds.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Runs the plan with the configured worker count against the
    /// process-wide cache.
    pub fn run(&self) -> ReplicationSummary {
        self.run_with(jobs(), SimCache::global())
    }

    /// [`ReplicationPlan::run`] with an explicit worker count and cache
    /// (tests and benches). The cache is asked for the whole plan before
    /// anything is priced; only a plan it has not run runs its seeds.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] of an invalid config, as
    /// [`run_grid_on`] does.
    pub fn run_with(&self, workers: usize, cache: &SimCache) -> ReplicationSummary {
        let summary = recovered(self.summarize(workers, cache, &mut WorkerStates::default()));
        count_fill(self.seeds.len());
        summary
    }

    /// The summary, or the config's [`SimError`]: the config is validated
    /// once, for the per-node meter every seed is read with, before the
    /// plan memo is asked. The seeds run in `scratches`, one per worker.
    fn summarize(
        &self,
        workers: usize,
        cache: &SimCache,
        scratches: &mut WorkerStates<RunScratch>,
    ) -> Result<ReplicationSummary, SimError> {
        let valid = self.cfg.validate(Reading::PerNode)?;
        let replicate = || self.replicate(valid, workers, cache, scratches);
        Ok(cache.plan_summary(&self.cfg, &self.seeds, replicate))
    }

    /// Runs every seed and folds the summary. `workers` decides who runs
    /// a seed, never what it reports: it is not in the plan memo's key.
    fn replicate(
        &self,
        valid: Validated<'_>,
        workers: usize,
        cache: &SimCache,
        scratches: &mut WorkerStates<RunScratch>,
    ) -> ReplicationSummary {
        let prep = ClusterPrep::new(valid, cache, &mut scratches.caller);
        let base = self.cfg.faults.filter(FaultConfig::active);
        let eval = |scratch: &mut RunScratch, &seed: &u64| -> Option<RepPoint> {
            let seeded = base.map(|f| f.seed(seed));
            let m = prep.run(seeded.as_ref(), scratch, None).ok()?;
            let makespan_s = m.breakdown.total();
            Some(RepPoint {
                makespan_s,
                energy_j: m.energy_j,
                exact_energy_j: m.exact_energy_j,
                edp: m.exact_energy_j * makespan_s,
                faults: m.faults,
            })
        };

        let n = self.seeds.len();
        let points = pool(self.seeds.clone(), workers, SEED_BATCH, scratches, eval);
        prep.recycle(&mut scratches.caller);

        let ok: Vec<&RepPoint> = points.iter().flatten().collect();
        let mut faults = FaultStats::default();
        for p in &ok {
            faults.absorb(&p.faults);
        }
        ReplicationSummary {
            replications: n as u64,
            failed_runs: (n - ok.len()) as u64,
            makespan_s: Aggregate::fold(ok.iter().map(|p| p.makespan_s)),
            energy_j: Aggregate::fold(ok.iter().map(|p| p.energy_j)),
            exact_energy_j: Aggregate::fold(ok.iter().map(|p| p.exact_energy_j)),
            edp: Aggregate::fold(ok.iter().map(|p| p.edp)),
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simcache::CacheStats;
    use hhsim_arch::{presets, Frequency};
    use hhsim_energy::MetricKind;
    use std::cell::Cell;

    thread_local! {
        /// Helpers the `pool` calls of this thread have spawned.
        pub(super) static HELPERS: Cell<usize> = const { Cell::new(0) };
    }

    /// `f`'s result and the helpers the pools it calls spawn.
    fn spawning<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = HELPERS.with(Cell::get);
        let out = f();
        (out, HELPERS.with(Cell::get) - before)
    }

    /// One point through the door on `cache`, read by its own meter.
    fn simulate_on(cfg: &SimConfig, cache: &SimCache) -> Measurement {
        cfg.run(cache, Reading::Auto).expect("a valid point").0
    }

    /// `grid`'s points read by their own meters, as `run_grid_on` reads
    /// them.
    fn auto(grid: &[SimConfig]) -> impl Iterator<Item = (&SimConfig, Reading)> {
        grid.iter().map(|cfg| (cfg, Reading::Auto))
    }

    fn grid() -> Vec<SimConfig> {
        let mut v = Vec::new();
        for m in presets::both() {
            for app in [AppId::WordCount, AppId::Sort, AppId::Grep] {
                for f in Frequency::SWEEP {
                    v.push(SimConfig::new(app, m.clone()).frequency(f));
                }
            }
        }
        v
    }

    #[test]
    fn parallel_equals_serial() {
        // A memo each: on one, the second grid would be the first one's
        // points handed back.
        let g = grid();
        let serial = run_grid_on(&g, 1, &SimCache::new());
        let par = run_grid_on(&g, 4, &SimCache::new());
        assert_eq!(serial, par, "worker count must not affect results");
    }

    /// One config of each shape the figures price, with the number of
    /// machines on its roster: homogeneous big and little read by the
    /// phase-average meter, then the ways onto the per-node one (a mix,
    /// a mix with a zero side, faults, an active topology).
    fn shapes() -> Vec<(SimConfig, usize)> {
        let mix = |big, little| crate::NodeMix {
            big,
            little,
            placement: crate::PlacementKind::PaperClass(MetricKind::Edp),
        };
        let mut racked = SimConfig::new(AppId::TeraSort, presets::xeon_e5_2420())
            .topology(hhsim_hdfs::Topology::racked(4, 4.0));
        racked.nodes = 12;
        vec![
            (SimConfig::new(AppId::WordCount, presets::xeon_e5_2420()), 1),
            (SimConfig::new(AppId::Sort, presets::atom_c2758()), 1),
            (
                SimConfig::new(AppId::Grep, presets::xeon_e5_2420()).mix(mix(1, 2)),
                2,
            ),
            (
                SimConfig::new(AppId::Grep, presets::xeon_e5_2420()).mix(mix(0, 3)),
                1,
            ),
            (faulty_cfg(), 1),
            (racked, 1),
        ]
    }

    #[test]
    fn fill_stage_covers_every_lookup() {
        for (cfg, machines) in shapes() {
            let shape = format!("{}/{}", cfg.app.short_name(), cfg.machine.name);
            let grid = [cfg];
            let cache = SimCache::new();
            fill_stage(auto(&grid), &[], 2, &cache);
            let filled = cache.stats();
            assert_eq!(
                filled.misses as usize,
                filled.stall_entries + filled.run_entries,
                "{shape}: the fill stage computes its keys and nothing else"
            );
            assert_eq!(filled.hits, 0, "{shape}: distinct keys only");
            // Map, reduce and Hadoop-average splits per machine the roster
            // has; a kind without nodes is not priced.
            assert_eq!(filled.stall_entries, 3 * machines, "{shape}");
            let staged = run_grid_on(&grid, 2, &cache);
            let after = cache.stats();
            assert_eq!(
                (after.stall_entries, after.run_entries),
                (filled.stall_entries, filled.run_entries),
                "{shape}: pricing looked up an entry the fill stage did not name"
            );
            // ... and named none that pricing does not look up.
            let lazy_cache = SimCache::new();
            let lazy = simulate_on(&grid[0], &lazy_cache);
            let reference = lazy_cache.stats();
            assert_eq!(
                CacheStats {
                    hits: 0,
                    ..reference
                },
                CacheStats { hits: 0, ..after },
                "{shape}"
            );
            assert_eq!(staged, [lazy], "{shape}");
        }
    }

    #[test]
    fn pricing_reads_each_memo_input_once_per_kind() {
        let mixed = SimConfig::new(AppId::Grep, presets::xeon_e5_2420()).mix(crate::NodeMix {
            big: 1,
            little: 2,
            placement: crate::PlacementKind::PaperClass(MetricKind::Edp),
        });
        let plain = SimConfig::new(AppId::WordCount, presets::atom_c2758());
        // Grep chains two jobs; each kind's splits are still read once.
        for (cfg, kinds) in [(plain, 1), (mixed, 2)] {
            let cache = SimCache::new();
            let grid = [cfg];
            fill_stage(auto(&grid), &[], 1, &cache);
            cache.ratios(grid[0].app);
            let before = cache.stats();
            simulate_on(&grid[0], &cache);
            let asked = cache.stats().since(&before);
            // The ratios, the three priced splits per kind, and the point
            // entry itself, the one miss.
            assert_eq!(
                (asked.hits, asked.misses),
                (1 + 3 * kinds, 1),
                "{}",
                grid[0].app
            );
        }
    }

    #[test]
    fn each_memo_entry_is_computed_once_at_any_worker_count() {
        let g = grid();
        let lazy_cache = SimCache::new();
        let lazy: Vec<Measurement> = g.iter().map(|c| simulate_on(c, &lazy_cache)).collect();
        for workers in [1, 2, 4] {
            let cache = SimCache::new();
            let meas = run_grid_on(&g, workers, &cache);
            let s = cache.stats();
            // 2 machines x (3 apps x {map, reduce} + the Hadoop average),
            // 3 functional runs, 3 ratio sets (one of each per app), and
            // one point entry per point of the grid.
            assert_eq!(
                (s.stall_entries, s.run_entries, s.ratio_entries),
                (14, 3, 3),
                "workers={workers}"
            );
            assert_eq!(s.phase_entries, g.len(), "workers={workers}");
            assert_eq!(s.misses, 14 + 3 + 3 + 24, "workers={workers}");
            assert_eq!(meas, lazy, "workers={workers}");
        }
    }

    /// Counts what the thread running a closure allocates, for the tests
    /// that pin "allocates nothing".
    #[global_allocator]
    static GLOBAL: hhsim_testkit::Counting = hhsim_testkit::Counting;

    #[test]
    fn suite_fill_computes_the_six_splits_once() {
        let declare = || {
            let mut plan = Plan::new();
            let splits = crate::figures::suite_splits(&mut plan);
            (plan, splits)
        };
        let (plan, splits) = declare();
        assert_eq!((plan.len(), plan.declared()), (6, 6));
        let cache = SimCache::new();
        let ran = plan.run_on(2, &cache);
        let filled = cache.stats();
        assert_eq!(
            (
                filled.misses,
                filled.hits,
                filled.stall_entries,
                filled.run_entries
            ),
            (6, 6, 6, 0),
            "the six (machine, suite) splits and nothing else, each read back once"
        );
        let (machines, suites) = (presets::both(), crate::figures::suites());
        for (m, row) in machines.iter().zip(splits) {
            for ((_, p), s) in suites.iter().zip(row) {
                let (on_chip, dram_ns) = m.stall_split(p);
                let f = Frequency::GHZ_1_8;
                let uncached = m.cpi_with_stalls(p, f, on_chip, dram_ns);
                assert_eq!(ran.cpi(s, f), Ok(uncached), "filled == uncached");
            }
        }
        let (again, _) = declare();
        let before = cache.stats();
        let warm = || fill_stage(std::iter::empty(), &again.splits, 2, &cache);
        let ((), allocs) = hhsim_testkit::counted(warm);
        assert_eq!(cache.stats(), before, "a warm fill computes nothing");
        assert_eq!(allocs.calls, 0, "a warm fill allocates nothing");
    }

    #[test]
    #[should_panic(
        expected = "simulation failed: invalid config: machine.cache_levels is out of range"
    )]
    fn a_hostile_machine_ends_in_its_sim_error_not_in_the_fill() {
        let mut zero_ways = presets::atom_c2758();
        zero_ways.cache_levels.to_mut()[0].associativity = 0;
        let grid = [
            SimConfig::new(AppId::Sort, presets::xeon_e5_2420()),
            SimConfig::new(AppId::Sort, zero_ways),
        ];
        let keys = missing_keys(auto(&grid), &[], &SimCache::new());
        assert_eq!(keys.len(), 4, "the Xeon point's keys only");
        run_grid_on(&grid, 1, &SimCache::new());
    }

    #[test]
    fn warm_grid_has_nothing_to_fill() {
        let g = grid();
        let cache = SimCache::new();
        let cold = run_grid_on(&g, 2, &cache);
        let before = cache.stats();
        assert!(missing_keys(auto(&g), &[], &cache).is_empty());
        assert_eq!(cache.stats(), before, "a held key is neither hit nor miss");
        assert_eq!(run_grid_on(&g, 2, &cache), cold);
    }

    #[test]
    fn order_is_registration_order() {
        let g = grid();
        let mut plan = Plan::new();
        let handles: Vec<Point> = (g.iter().chain(&g))
            .map(|cfg| plan.point(cfg.clone(), Reading::Auto))
            .collect();
        assert_eq!(
            (plan.len(), plan.declared()),
            (g.len(), 2 * g.len()),
            "a repeated declaration is the held entry"
        );
        let ran = plan.run_on(2, &SimCache::new());
        let lazy = run_grid_on(&g, 1, &SimCache::new());
        for (&p, want) in handles.iter().zip(lazy.iter().cycle()) {
            assert_eq!(ran.measurement(p), Ok(want));
        }
    }

    #[test]
    fn pool_spawns_one_helper_less_than_its_batches() {
        for batch in [1, 3, 8] {
            for workers in [1, 2, 4] {
                for n in 0..=20 {
                    let items: Vec<usize> = (0..n).collect();
                    let (out, helpers) = spawning(|| {
                        pool(
                            items,
                            workers,
                            batch,
                            &mut WorkerStates::default(),
                            |(), &i| 10 * i,
                        )
                    });
                    let want = if n <= batch {
                        0
                    } else {
                        workers.min(n.div_ceil(batch)) - 1
                    };
                    let case = format!("{n} items, batch {batch}, {workers} workers");
                    assert_eq!(helpers, want, "{case}");
                    assert!(out.iter().copied().eq((0..n).map(|i| 10 * i)), "{case}");
                }
            }
        }
    }

    /// A plan of every kind of entry: the grid's points, a replication
    /// plan and fig1/fig2's splits, with the handles that read them.
    fn mixed_plan() -> (Plan, Vec<Point>, Replicas, Vec<Split>) {
        let mut plan = Plan::new();
        let points = (grid().into_iter())
            .map(|cfg| plan.point(cfg, Reading::Auto))
            .collect();
        let seeds = plan.replicate(ReplicationPlan::new(faulty_cfg(), 0..12));
        let splits = crate::figures::suite_splits(&mut plan).concat();
        (plan, points, seeds, splits)
    }

    #[test]
    fn a_warm_plan_spawns_no_thread() {
        let cache = SimCache::new();
        let mut runs = Vec::new();
        for workers in [4, 4, 1] {
            let (plan, points, seeds, splits) = mixed_plan();
            let before = cache.stats();
            let (ran, helpers) = spawning(|| plan.run_on(workers, &cache));
            let asked = cache.stats().since(&before);
            let measured: Vec<Result<Measurement, SimError>> = points
                .iter()
                .map(|&p| ran.measurement(p).cloned())
                .collect();
            let cpi: Vec<Result<f64, SimError>> = (splits.iter())
                .map(|&s| ran.cpi(s, Frequency::GHZ_1_8))
                .collect();
            let read = (measured, ran.summary(seeds).cloned(), cpi);
            runs.push((read, helpers, asked.hits, asked.misses));
        }
        let [cold, warm, serial] = [0, 1, 2].map(|i| &runs[i]);
        assert!(cold.1 > 0, "a cold plan spreads over the pool");
        assert_eq!(warm.0, cold.0, "a warm plan reads what the cold one did");
        assert_eq!(warm.1, 0, "a warm plan spawns no helper");
        assert_eq!(warm.3, 0, "a warm plan computes nothing");
        assert_eq!(
            (&warm.0, warm.2, warm.3),
            (&serial.0, serial.2, serial.3),
            "a warm plan at 4 workers asks the memo what one worker does"
        );
    }

    #[test]
    fn held_and_missing_points_keep_declaration_order() {
        let g = grid();
        let cold = run_grid_on(&g, 1, &SimCache::new());
        let every_other: Vec<SimConfig> = g.iter().step_by(2).cloned().collect();
        for workers in [1, 2, 4] {
            let cache = SimCache::new();
            run_grid_on(&every_other, 1, &cache);
            let before = cache.stats();
            assert_eq!(run_grid_on(&g, workers, &cache), cold, "workers={workers}");
            let asked = cache.stats().since(&before);
            // Every (machine, app) pair is priced by the held half, so the
            // fill stage finds nothing to do: the 12 held points are one
            // hit each, the 12 missing ones one miss and four pricing hits
            // each (the ratios and the three splits of their one machine).
            assert_eq!(
                (asked.hits, asked.misses),
                (12 + 12 * 4, 12),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn counters_accumulate() {
        let before = snapshot();
        let g = grid();
        let _ = run_grid_with(&g, 2);
        let delta = snapshot().since(&before);
        assert!(delta.points >= g.len() as u64);
        assert!(delta.grids >= 1);
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_grid_with(&[], 4).is_empty());
        let plan = Plan::new();
        assert!(plan.is_empty());
        plan.run_on(4, &SimCache::new());
    }

    #[test]
    fn aggregate_fold_matches_closed_form() {
        let agg = Aggregate::fold([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter());
        assert_eq!(agg.n, 8);
        assert!((agg.mean - 5.0).abs() < 1e-12);
        assert_eq!(agg.min, 2.0);
        assert_eq!(agg.max, 9.0);
        // Sample stddev of this set is sqrt(32/7); ci95 = 1.96 * s / sqrt(8).
        let expect = 1.96 * (32.0f64 / 7.0).sqrt() / 8.0f64.sqrt();
        assert!((agg.ci95 - expect).abs() < 1e-12);
        assert!(agg.lo() < agg.mean && agg.mean < agg.hi());
        let one = Aggregate::fold(std::iter::once(3.0));
        assert_eq!(
            (one.n, one.mean, one.min, one.max, one.ci95),
            (1, 3.0, 3.0, 3.0, 0.0)
        );
        assert_eq!(Aggregate::fold(std::iter::empty()), Aggregate::default());
    }

    fn faulty_cfg() -> SimConfig {
        SimConfig::new(AppId::WordCount, presets::atom_c2758())
            .faults(crate::figures::fig19_faults(0.08, true))
    }

    #[test]
    fn replication_invariant_to_workers_and_batch() {
        let plan = ReplicationPlan::new(faulty_cfg(), 0..12);
        let serial = plan.run_with(1, &SimCache::new());
        // A fresh memo per worker count: against a shared one every run
        // after the first would be the plan memo's copy of the first.
        for workers in [2, 3, 4, 7] {
            let cache = SimCache::new();
            assert_eq!(serial, plan.run_with(workers, &cache), "workers={workers}");
            let s = cache.stats();
            assert_eq!((s.plan_entries, s.phase_entries), (1, 0));
        }
        assert_eq!(serial.replications, 12);
        assert!(serial.makespan_s.n + serial.failed_runs == 12);
        assert!(serial.makespan_s.min > 0.0);
        assert!(serial.edp.mean > 0.0);
    }

    #[test]
    fn faultfree_plan_has_zero_spread() {
        let cache = SimCache::new();
        let cfg = SimConfig::new(AppId::Sort, presets::xeon_e5_2420());
        let s = ReplicationPlan::new(cfg, [1, 2, 3, 4]).run_with(2, &cache);
        assert_eq!(s.failed_runs, 0);
        assert_eq!(s.makespan_s.min, s.makespan_s.max);
        assert_eq!(s.makespan_s.ci95, 0.0);
        assert_eq!(s.faults, hhsim_faults::FaultStats::default());
    }

    #[test]
    fn faults_vary_per_seed_and_accumulate() {
        let cache = SimCache::new();
        let s = ReplicationPlan::new(faulty_cfg(), 0..16).run_with(2, &cache);
        assert!(
            s.faults.failed_attempts > 0,
            "rate 0.08 must inject failures"
        );
        assert!(
            s.makespan_s.max > s.makespan_s.min,
            "seeds must produce distinct makespans"
        );
        assert!(s.makespan_s.ci95 > 0.0);
        // Exact and metered energies agree to within the sampling bound.
        assert!(s.exact_energy_j.mean > 0.0);
        let rel = (s.exact_energy_j.mean - s.energy_j.mean).abs() / s.exact_energy_j.mean;
        assert!(rel < 0.05, "exact vs metered drift {rel}");
    }
}
