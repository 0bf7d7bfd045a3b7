//! Unified memoization for the expensive, reusable pieces of a
//! simulation: trace-driven stall splits and functional MapReduce runs
//! (plus the dataflow ratios derived from them), and the two kinds of run
//! a caller declares — points and whole replication plans.
//!
//! The figure generators sweep thousands of [`crate::SimConfig`] points,
//! but only a handful of distinct (machine, profile) stall splits and
//! (app, functional-config) runs exist underneath them. This cache makes
//! those computations safe and cheap to share across a pool of worker
//! threads (see [`crate::harness`]): each entry is a `OnceLock` cell, so
//! concurrent requests for the *same* key compute the value exactly once
//! while requests for *different* keys proceed in parallel, and every
//! caller observes the identical value — a prerequisite for the harness's
//! determinism guarantee.
//!
//! The process-wide instance is [`SimCache::global`]; tests that need an
//! uncached reference can construct private instances with
//! [`SimCache::new`] and run [`SimConfig::run`](crate::SimConfig::run)
//! against them.

#![expect(
    clippy::disallowed_types,
    reason = "the memo tables are keyed-lookup-only: each entry is published once per key (behind a OnceLock) and read back by key; no code path iterates a HashMap, and the point and plan tables are Vecs searched by equality, so hash order cannot reach simulation output (pinned by cache property tests: cached == uncached)"
)]

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use hhsim_arch::{ComputeProfile, MachineModel, StallBatch, StallKey};
use hhsim_workloads::{AppId, FunctionalConfig, FunctionalRun};

use crate::cluster::ClusterTimeline;
use crate::harness::ReplicationSummary;
use crate::model::{Measurement, Meter, SimConfig, SimError, Validated};
use crate::ratios::AppRatios;

/// The app plus its [`FunctionalConfig`]: functional runs are
/// deterministic functions of exactly this pair.
type RunKey = (AppId, FunctionalConfig);

/// One of the two expensive memo entries, named before anything asks for
/// its value: what the sweep harness's fill stage enumerates and
/// distributes (see [`crate::harness`]).
#[derive(Debug, PartialEq)]
pub(crate) enum MemoKey<'a> {
    /// A functional MapReduce run.
    Run(AppId, FunctionalConfig),
    /// A trace-driven stall split: of a profile a grid's app builds, or of
    /// one its caller holds (fig1/fig2's suites).
    Stall(&'a MachineModel, Cow<'a, ComputeProfile>),
}

/// Locks a table, taking a poisoned guard as it is: every update under the
/// lock is one insert, push or clear, and values are computed outside it,
/// so a holder that panicked left the table whole.
fn lock<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One memoization table. Values sit behind per-key `OnceLock` cells so
/// a miss computes outside the map lock (no convoying) and concurrent
/// misses on one key deduplicate into a single computation.
type Table<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// One entry of a table searched by equality: its key in full, and a
/// [`tag`] of it compared first.
struct Tagged<K, V> {
    tag: u64,
    key: K,
    value: V,
}

/// A table of whole runs, keyed by full equality of what they ran (a
/// `SimConfig` has no `Hash` and needs none: a lookup compares a handful
/// of configs that share a tag, not every entry held).
type Scanned<K, V> = Mutex<Vec<Tagged<K, V>>>;

/// A hash of a few cheap fields of a run's config and `extra`, compared
/// before anything else. Equal keys have equal tags; the key proper is the
/// entry's equality.
fn tag(cfg: &SimConfig, extra: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    let mix = cfg.node_mix.map(|mix| (mix.big, mix.little));
    (cfg.app, &cfg.machine.name, mix, extra).hash(&mut h);
    h.finish()
}

/// A point that has run: the config, the meter that read it and whether
/// its timeline was kept.
type PointKey = (SimConfig, Meter, bool);

/// The bits of `x`, equal for equal floats: `-0.0 + 0.0` is `0.0`.
fn bits(x: f64) -> u64 {
    (x + 0.0).to_bits()
}

/// The tag of a [`PointKey`]: besides [`tag`]'s fields, the scalars the
/// figures sweep (frequency, block size, data, nodes, mappers, offload
/// rate, failure rate, speculation, racks, oversubscription), so that a hit
/// compares one config in full.
fn point_tag(cfg: &SimConfig, meter: Meter, traced: bool) -> u64 {
    let extra = (
        (meter, traced),
        bits(cfg.frequency.ghz()),
        cfg.block_size,
        cfg.data_per_node_bytes,
        cfg.nodes,
        cfg.mappers_per_node,
        cfg.accel.map(|a| bits(a.rate)),
        (cfg.faults).map(|f| (f.seed, bits(f.map_failure_rate), f.recovery.speculation)),
        (cfg.topology).map(|t| (t.racks, bits(t.oversubscription))),
    );
    tag(cfg, extra)
}

/// Whether a held [`PointKey`] is `cfg` read by `meter`, with or without
/// its timeline: the point table's equality.
fn is_point(cfg: &SimConfig, meter: Meter, traced: bool) -> impl Fn(&PointKey) -> bool + '_ {
    move |(c, m, t)| *m == meter && *t == traced && c == cfg
}

/// What [`SimConfig::run`] returns for a valid config.
pub(crate) type PointRun = Result<(Measurement, Option<Arc<ClusterTimeline>>), SimError>;

/// A replication plan that has run: the config and the seed list, in full.
type PlanKey = (SimConfig, Vec<u64>);

/// Counters and sizes describing cache effectiveness at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from an already-computed entry.
    pub hits: u64,
    /// Lookups that had to compute (or wait for) a fresh entry.
    pub misses: u64,
    /// Distinct (cache hierarchy, memory profile) stall splits held.
    pub stall_entries: usize,
    /// Distinct functional runs held.
    pub run_entries: usize,
    /// Distinct per-app ratio sets held.
    pub ratio_entries: usize,
    /// Distinct points held: runs of one config read by one meter, with
    /// or without their timeline. Named `phase_entries` because the
    /// benchmark package reads it under that name.
    pub phase_entries: usize,
    /// Distinct replication plans held.
    pub plan_entries: usize,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter difference since an earlier snapshot (entry counts are
    /// reported as-is: they are already absolute).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            ..*self
        }
    }
}

/// Thread-safe memo, one table per level at which work repeats: stall
/// splits, functional runs and app ratios (asked by every pricing), and
/// the runs a caller declares — points and whole replication plans. A
/// seed of a plan asks the point table nothing: it repeats only when the
/// whole plan does, and then the plan table answers.
#[derive(Default)]
pub struct SimCache {
    stalls: Table<StallKey, (f64, f64)>,
    runs: Table<RunKey, Arc<FunctionalRun>>,
    ratios: Table<AppId, Arc<AppRatios>>,
    points: Scanned<PointKey, PointRun>,
    plans: Scanned<PlanKey, ReplicationSummary>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SimCache {
    /// An empty private cache (for tests and uncached references).
    pub fn new() -> Self {
        SimCache::default()
    }

    /// The process-wide cache shared by [`crate::simulate`] and the
    /// sweep harness.
    pub fn global() -> &'static SimCache {
        static GLOBAL: OnceLock<SimCache> = OnceLock::new();
        GLOBAL.get_or_init(SimCache::new)
    }

    /// Core memoization step: fetch-or-create the key's cell, then
    /// initialize it outside the map lock. Exactly one caller runs
    /// `compute` per key; latecomers block on the cell and count a hit
    /// (they did no work).
    fn memo<K, V>(&self, table: &Table<K, V>, key: K, compute: impl FnOnce() -> V) -> V
    where
        K: Eq + Hash,
        V: Clone,
    {
        let cell = Arc::clone(lock(table).entry(key).or_default());
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                compute()
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Memoized trace-driven stall split: the cache simulation replays
    /// hundreds of thousands of accesses but depends only on what
    /// [`MachineModel::stall_key`] names — the cache hierarchy and the
    /// profile's memory behaviour, never a name, frequency or data size.
    pub fn stall_split(&self, machine: &MachineModel, profile: &ComputeProfile) -> (f64, f64) {
        self.memo(&self.stalls, machine.stall_key(profile), || {
            machine.stall_split(profile)
        })
    }

    /// Computes the stall splits of `profile` on each of `machines` from
    /// one trace, through `batch`'s hierarchies ([`StallBatch::run`]), and
    /// publishes them: a miss each, or a hit for one that another caller
    /// published first (the same split, computed twice). The fill stage
    /// hands it machines whose entries it does not hold.
    pub(crate) fn fill_stalls(
        &self,
        profile: &ComputeProfile,
        machines: &[&MachineModel],
        batch: &mut StallBatch,
    ) {
        for (m, h) in machines.iter().zip(batch.run(profile, machines)) {
            let key = m.stall_key(profile);
            let cell = Arc::clone(lock(&self.stalls).entry(key).or_default());
            let counter = match cell.set(h.stall_split_per_access()) {
                Ok(()) => &self.misses,
                Err(_) => &self.hits,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Memoized functional MapReduce run of `app` under `cfg`. The run
    /// executes the real engine at MB scale, so it is by far the most
    /// expensive cacheable unit; [`JobStats`](hhsim_mapreduce::JobStats)
    /// land behind an `Arc` to keep hits allocation-free.
    pub fn functional_run(&self, app: AppId, cfg: &FunctionalConfig) -> Arc<FunctionalRun> {
        self.memo(&self.runs, (app, *cfg), || {
            Arc::new(app.run_functional(cfg))
        })
    }

    /// Whether `key`'s value is already computed. A peek: it creates no
    /// entry and counts neither hit nor miss.
    pub(crate) fn holds(&self, key: &MemoKey<'_>) -> bool {
        fn ready<K: Eq + Hash, V>(table: &Table<K, V>, key: &K) -> bool {
            lock(table).get(key).is_some_and(|c| c.get().is_some())
        }
        match key {
            MemoKey::Run(app, cfg) => ready(&self.runs, &(*app, *cfg)),
            MemoKey::Stall(m, p) => ready(&self.stalls, &m.stall_key(p)),
        }
    }

    /// Memoized dataflow ratios of `app`, built from its reference
    /// functional run (which is itself cached); behind an `Arc`, as the
    /// run is, so a hit copies nothing.
    pub fn ratios(&self, app: AppId) -> Arc<AppRatios> {
        self.memo(&self.ratios, app, || {
            Arc::new(AppRatios::from_run(
                &self.functional_run(app, &AppRatios::reference_config()),
            ))
        })
    }

    /// The value of the first entry of a table searched by equality that
    /// is tagged `tag` and whose key `is` names, cloned out and counted as
    /// a hit; `None`, counting nothing, when there is none.
    fn scan_hit<K, V: Clone>(
        &self,
        table: &Scanned<K, V>,
        tag: u64,
        is: impl Fn(&K) -> bool,
    ) -> Option<V> {
        let value = (lock(table).iter())
            .find(|e| e.tag == tag && is(&e.key))
            .map(|e| e.value.clone())?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Looks a run up in a table searched by equality ([`Self::scan_hit`]).
    /// A miss computes outside the lock and publishes the value under
    /// `key()`, unless another caller published it first: the value is a
    /// pure function of the key, so a lost race is a duplicated
    /// computation, published once.
    fn scanned<K, V: Clone>(
        &self,
        table: &Scanned<K, V>,
        tag: u64,
        is: impl Fn(&K) -> bool,
        key: impl FnOnce() -> K,
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(value) = self.scan_hit(table, tag, &is) {
            return value;
        }
        let held = |e: &&Tagged<K, V>| e.tag == tag && is(&e.key);
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = lock(table);
        if !entries.iter().any(|e| held(&e)) {
            entries.push(Tagged {
                tag,
                key: key(),
                value: value.clone(),
            });
        }
        value
    }

    /// Memoized run of a valid point, keyed by full equality of the
    /// config, the meter its reading resolved to and whether the timeline
    /// is kept: what [`SimConfig::run`] returns, an unrecoverable run's
    /// [`SimError`] included. A config that breaks the contract never gets
    /// here.
    pub(crate) fn point_run(
        &self,
        valid: Validated<'_>,
        traced: bool,
        compute: impl FnOnce() -> PointRun,
    ) -> PointRun {
        let (cfg, meter) = (valid.cfg(), valid.meter());
        self.scanned(
            &self.points,
            point_tag(cfg, meter, traced),
            is_point(cfg, meter, traced),
            || (cfg.clone(), meter, traced),
            compute,
        )
    }

    /// [`Self::point_run`] when the point is held: the same key, tag and
    /// equality, a hit counted. A point not held is `None`, computed by
    /// nobody and counted as nothing.
    pub(crate) fn held_point(&self, valid: Validated<'_>, traced: bool) -> Option<PointRun> {
        let (cfg, meter) = (valid.cfg(), valid.meter());
        let tag = point_tag(cfg, meter, traced);
        self.scan_hit(&self.points, tag, is_point(cfg, meter, traced))
    }

    /// Memoized summary of a whole replication plan, keyed by full
    /// equality of the config and the seed list (order included): what a
    /// re-render of the plan gets back without pricing, sampling or
    /// charging anything.
    pub(crate) fn plan_summary(
        &self,
        cfg: &SimConfig,
        seeds: &[u64],
        compute: impl FnOnce() -> ReplicationSummary,
    ) -> ReplicationSummary {
        self.scanned(
            &self.plans,
            tag(cfg, (seeds.len(), seeds.first())),
            |(c, s)| c == cfg && s == seeds,
            || (cfg.clone(), seeds.to_vec()),
            compute,
        )
    }

    /// Current counters and per-table entry counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stall_entries: lock(&self.stalls).len(),
            run_entries: lock(&self.runs).len(),
            ratio_entries: lock(&self.ratios).len(),
            phase_entries: lock(&self.points).len(),
            plan_entries: lock(&self.plans).len(),
        }
    }

    /// Drops every entry and zeroes the counters (benchmarks use this to
    /// measure cold-cache behaviour without a fresh process).
    pub fn clear(&self) {
        lock(&self.stalls).clear();
        lock(&self.runs).clear();
        lock(&self.ratios).clear();
        lock(&self.points).clear();
        lock(&self.plans).clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhsim_arch::presets;

    #[test]
    fn stall_split_hits_after_first_miss() {
        let c = SimCache::new();
        let m = presets::atom_c2758();
        let p = ComputeProfile::hadoop_average();
        let a = c.stall_split(&m, &p);
        let b = c.stall_split(&m, &p);
        assert_eq!(a, b);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stall_entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stall_key_is_what_the_simulation_reads() {
        let c = SimCache::new();
        let p = ComputeProfile::hadoop_average();
        let stock = presets::atom_c2758();
        let a = c.stall_split(&stock, &p);

        // Same name, smaller L2: a different hierarchy, a different split.
        let mut small_l2 = stock.clone();
        small_l2.cache_levels.to_mut()[1].size_bytes /= 4;
        let b = c.stall_split(&small_l2, &p);
        assert_ne!(a, b, "an edited hierarchy must not get the stale split");
        assert_eq!(b, small_l2.stall_split(&p), "cached == uncached");

        // Same profile name, different memory behaviour.
        let mut wide = p.clone();
        wide.mem.hot_fraction = 0.5;
        assert_eq!(c.stall_split(&stock, &wide), stock.stall_split(&wide));
        assert_eq!(c.stats().stall_entries, 3);

        // A renamed machine reads nothing new; a renamed profile reseeds
        // the trace.
        let mut renamed = stock.clone();
        renamed.name = "Atom (relabelled)".into();
        assert_eq!(c.stall_split(&renamed, &p), a);
        assert_eq!(c.stats().stall_entries, 3);
        let mut reseeded = p.clone();
        reseeded.name = "Hadoop-avg (reseeded)".into();
        c.stall_split(&stock, &reseeded);
        assert_eq!(c.stats().stall_entries, 4);
    }

    #[test]
    fn holds_is_a_peek() {
        let c = SimCache::new();
        let m = presets::atom_c2758();
        let p = ComputeProfile::hadoop_average();
        let stall = MemoKey::Stall(&m, Cow::Borrowed(&p));
        let run = MemoKey::Run(AppId::Sort, AppRatios::small_config());
        assert!(!c.holds(&stall) && !c.holds(&run));
        assert_eq!(c.stats(), CacheStats::default(), "no entry, no count");
        c.stall_split(&m, &p);
        c.functional_run(AppId::Sort, &AppRatios::small_config());
        assert!(c.holds(&stall) && c.holds(&run));
        let s = c.stats();
        assert_eq!(
            (s.hits, s.misses, s.stall_entries, s.run_entries),
            (0, 2, 1, 1)
        );
    }

    #[test]
    fn ratios_match_direct_computation() {
        let c = SimCache::new();
        let cached = c.ratios(AppId::WordCount);
        let direct = AppRatios::compute(AppId::WordCount);
        assert_eq!(*cached, direct);
        // The reference run landed in the run table.
        assert_eq!(c.stats().run_entries, 1);
        assert_eq!(c.stats().ratio_entries, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let c = SimCache::new();
        c.ratios(AppId::Sort);
        c.clear();
        let s = c.stats();
        assert_eq!(s, CacheStats::default());
    }

    #[test]
    fn point_tags_tell_swept_fields_apart() {
        let base = SimConfig::new(AppId::Sort, presets::xeon_e5_2420());
        let at = |cfg: &SimConfig, meter| point_tag(cfg, meter, false);
        let plain = at(&base, Meter::PhaseAverage);
        assert_eq!(
            at(&base.clone(), Meter::PhaseAverage),
            plain,
            "equal keys, equal tags"
        );
        let slower = base.clone().frequency(hhsim_arch::Frequency::GHZ_1_2);
        let smaller = base.clone().block_size(hhsim_hdfs::BlockSize::MB_64);
        let faster = |rate| {
            base.clone()
                .accelerator(hhsim_accel::AccelConfig::fpga(rate))
        };
        let failing = |rate| {
            base.clone()
                .faults(crate::figures::fig19_faults(rate, true))
        };
        let racked = |oversub| {
            base.clone()
                .topology(hhsim_hdfs::Topology::racked(4, oversub))
        };
        assert_eq!(
            at(&failing(-0.0), Meter::PerNode),
            at(&failing(0.0), Meter::PerNode),
            "-0.0 == 0.0"
        );
        for (what, tagged) in [
            ("frequency", at(&slower, Meter::PhaseAverage)),
            ("block size", at(&smaller, Meter::PhaseAverage)),
            ("meter", at(&base, Meter::PerNode)),
        ] {
            assert_ne!(tagged, plain, "{what}");
        }
        for (what, a, b) in [
            ("offload rate", faster(2.0), faster(4.0)),
            ("failure rate", failing(0.02), failing(0.04)),
            ("oversubscription", racked(2.0), racked(4.0)),
        ] {
            assert_ne!(at(&a, Meter::PerNode), at(&b, Meter::PerNode), "{what}");
        }
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let c = SimCache::new();
        let m = presets::xeon_e5_2420();
        let p = ComputeProfile::hadoop_average();
        let splits: Vec<(f64, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| c.stall_split(&m, &p))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(splits.windows(2).all(|w| w[0] == w[1]));
        let s = c.stats();
        assert_eq!(s.misses, 1, "one computation for eight lookups");
        assert_eq!(s.hits, 7);
    }
}
