//! Unified memoization for the expensive, reusable pieces of a
//! simulation: trace-driven stall splits and functional MapReduce runs
//! (plus the dataflow ratios derived from them), the cluster-engine phase
//! runs of direct cluster runs, and whole replication plans.
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
    reason = "the memo tables are keyed-lookup-only: each entry is published once per key (behind a OnceLock, or inserted once computed) and read back by key; no code path iterates a HashMap, and the plan table is a Vec searched by equality, so hash order cannot reach simulation output (pinned by cache property tests: cached == uncached)"
)]

use std::borrow::Cow;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use hhsim_arch::{ComputeProfile, MachineModel, StallKey};
use hhsim_faults::{FaultConfig, PhaseError};
use hhsim_hdfs::Topology;
use hhsim_workloads::{AppId, FunctionalConfig, FunctionalRun};
use parking_lot::Mutex;

use crate::cluster::{FetchView, PhaseLocality, PhaseRun};
use crate::harness::ReplicationSummary;
use crate::model::SimConfig;
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

/// One memoization table. Values sit behind per-key `OnceLock` cells so
/// a miss computes outside the map lock (no convoying) and concurrent
/// misses on one key deduplicate into a single computation.
type Table<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// One replication plan that has run: the config and the seed list it
/// ran over, in full, and what they summed to.
struct PlanEntry {
    /// [`plan_tag`] of `cfg` and `seeds`.
    tag: u64,
    cfg: SimConfig,
    seeds: Vec<u64>,
    summary: ReplicationSummary,
}

/// A hash of a few cheap fields of a plan, compared before anything else,
/// so a lookup compares a handful of configs in full rather than every
/// plan held. The key proper is the entry's `(SimConfig, seeds)` equality.
fn plan_tag(cfg: &SimConfig, seeds: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    let mix = cfg.node_mix.map(|mix| (mix.big, mix.little));
    (cfg.app, &cfg.machine.name, mix, seeds.len(), seeds.first()).hash(&mut h);
    h.finish()
}

/// Structural identity of one cluster-engine phase run — every input
/// `run_phase_faulty` sees, field by field (full equality, no lossy
/// digest). Sweeps that vary only reduce-side or fault parameters
/// produce identical map-phase keys and reuse the memoized
/// [`PhaseRun`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PhaseKey {
    /// Resolved placement policy: 0 = FIFO any-slot, 1 = prefer big
    /// cores, 2 = prefer little cores. The placement objects are
    /// stateless, so the code *is* the behavior.
    pub placement: u8,
    /// (big nodes, big slots/node, little nodes, little slots/node).
    pub roster: (usize, usize, usize, usize),
    /// Tasks in the phase.
    pub tasks: usize,
    /// Bit patterns of (big task_s, big overhead_s, little task_s,
    /// little overhead_s).
    pub timing: [u64; 4],
    /// Fault-injection identity, when the phase runs under faults.
    pub faults: Option<PhaseFaultKey>,
    /// Network-topology identity, when the phase runs on an active rack
    /// fabric. `None` means the legacy flat network, so every
    /// pre-topology key keeps its exact equality class.
    pub net: Option<PhaseNetKey>,
    /// FNV-1a digest of the fetch-failure recovery plan
    /// ([`fetch_digest`]), when the phase runs with one. `None` keeps
    /// every pre-fetch key's exact equality class.
    pub fetch: Option<u64>,
}

/// FNV-1a digest of every field of a fetch plan but its holders: input
/// replica sets, fabric parameters, per-tier read penalties and per-node
/// map timing. None of it depends on the fault seed, so `ClusterPrep`
/// folds it once per chained job. Same collision argument as
/// [`PhaseNetKey::digest`].
pub(crate) fn fetch_layout_digest(plan: &FetchView<'_>) -> u64 {
    let mut d = FNV_OFFSET;
    for reps in plan.map_replicas {
        // Replica-set delimiter: distinguishes [[1],[2]] from [[1,2]].
        d = fnv(d, u64::MAX);
        for &r in reps {
            d = fnv(d, r as u64);
        }
    }
    d = fnv(d, plan.topology.racks as u64);
    d = fnv(d, plan.topology.node_bytes_per_s.to_bits());
    d = fnv(d, plan.topology.core_bytes_per_s.to_bits());
    d = fnv(d, plan.topology.oversubscription.to_bits());
    for s in plan.read_seconds {
        d = fnv(d, s.to_bits());
    }
    for t in plan.map_timing {
        d = fnv(d, t.task_seconds.to_bits());
        d = fnv(d, t.overhead_seconds.to_bits());
    }
    d
}

/// [`PhaseKey::fetch`] of a whole fetch plan: the seed's map-output
/// `holders` folded onto the plan's [`fetch_layout_digest`]. Every FNV
/// step is a bijection of the accumulator, so two plans that differ in
/// any field still start or continue apart.
pub(crate) fn fetch_digest(layout: u64, holders: &[usize]) -> u64 {
    holders.iter().fold(layout, |d, &h| fnv(d, h as u64))
}

/// Identity of a phase's network inputs under an active [`Topology`]:
/// the fabric parameters plus a digest of the per-task locality layout
/// (map) or contended-shuffle penalties (reduce). A digest rather than
/// the full layout keeps the key small; collisions would need two
/// different layouts with equal FNV-1a over every replica id and f64
/// bit pattern *and* equal fabric parameters, which the deterministic
/// layout generator cannot produce within one process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PhaseNetKey {
    /// Rack count.
    pub racks: usize,
    /// Node-link bandwidth bits.
    pub node_bw: u64,
    /// Core-link bandwidth bits.
    pub core_bw: u64,
    /// Oversubscription factor bits.
    pub oversub: u64,
    /// FNV-1a digest of the per-task network inputs.
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over the eight little-endian bytes of `v`.
fn fnv(acc: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

impl PhaseNetKey {
    fn base(t: &Topology) -> Self {
        PhaseNetKey {
            racks: t.racks,
            node_bw: t.node_bytes_per_s.to_bits(),
            core_bw: t.core_bytes_per_s.to_bits(),
            oversub: t.oversubscription.to_bits(),
            digest: FNV_OFFSET,
        }
    }

    /// Key for a map phase: digests the replica layout and the per-tier
    /// read penalties.
    pub fn for_map(t: &Topology, loc: &PhaseLocality) -> Self {
        let mut k = Self::base(t);
        let mut d = k.digest;
        d = fnv(d, loc.racks as u64);
        for s in loc.read_seconds {
            d = fnv(d, s.to_bits());
        }
        for reps in &loc.replicas {
            // Replica-set delimiter: distinguishes [[1],[2]] from [[1,2]].
            d = fnv(d, u64::MAX);
            for &r in reps {
                d = fnv(d, r as u64);
            }
        }
        k.digest = d;
        k
    }

    /// Key for a reduce phase: digests the per-task contended-shuffle
    /// penalty seconds.
    pub fn for_extras(t: &Topology, extras: &[f64]) -> Self {
        let mut k = Self::base(t);
        k.digest = extras.iter().fold(k.digest, |d, e| fnv(d, e.to_bits()));
        k
    }
}

/// The inputs `NodeFaults::sample` + `NodeFaults::phase` derive a
/// `PhaseFaults` from (node count lives in [`PhaseKey::roster`]): the
/// fault config's fields plus the per-phase projection parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PhaseFaultKey {
    /// Run seed.
    pub seed: u64,
    /// Phase index within the run.
    pub phase_idx: u64,
    /// Per-attempt failure rate bits for this phase.
    pub rate: u64,
    /// Phase start offset bits (node crashes project through it).
    pub offset: u64,
    /// Node MTTF bits, if crashes are enabled.
    pub mttf: Option<u64>,
    /// Straggler probability bits.
    pub straggler_rate: u64,
    /// Straggler slowdown bits.
    pub straggler_slowdown: u64,
    /// Recovery policy, field by field.
    pub max_attempts: u32,
    /// Backoff base bits.
    pub backoff: u64,
    /// Speculative execution enabled.
    pub speculation: bool,
    /// Speculation rate threshold bits.
    pub spec_rate_threshold: u64,
    /// Speculation minimum runtime bits.
    pub spec_min_runtime_s: u64,
    /// Blacklist threshold.
    pub blacklist_after: u32,
    /// Rack blacklist escalation threshold.
    pub rack_blacklist_after: u32,
    /// Failure-domain identity, when domains are active: (racks,
    /// switch MTTF bits, rack MTTF bits, link MTTF bits, link factor
    /// bits, link window bits). `None` keeps every pre-domain key's
    /// exact equality class.
    pub domains: Option<(usize, u64, u64, u64, u64, u64)>,
}

impl PhaseFaultKey {
    /// Key for the `PhaseFaults` that `NodeFaults::sample(fc, nodes)`
    /// followed by `.phase(fc, phase_idx, rate, offset_s)` produces.
    pub fn new(fc: &FaultConfig, phase_idx: u64, rate: f64, offset_s: f64) -> Self {
        PhaseFaultKey {
            seed: fc.seed,
            phase_idx,
            rate: rate.to_bits(),
            offset: offset_s.to_bits(),
            mttf: fc.node_mttf_s.map(f64::to_bits),
            straggler_rate: fc.straggler_rate.to_bits(),
            straggler_slowdown: fc.straggler_slowdown.to_bits(),
            max_attempts: fc.recovery.max_attempts,
            backoff: fc.recovery.backoff_base_s.to_bits(),
            speculation: fc.recovery.speculation,
            spec_rate_threshold: fc.recovery.spec_rate_threshold.to_bits(),
            spec_min_runtime_s: fc.recovery.spec_min_runtime_s.to_bits(),
            blacklist_after: fc.recovery.blacklist_after,
            rack_blacklist_after: fc.recovery.rack_blacklist_after,
            domains: fc.domains.active().then(|| {
                let d = &fc.domains;
                let bits = |m: Option<f64>| m.map_or(0, f64::to_bits);
                (
                    d.racks,
                    bits(d.switch_mttf_s),
                    bits(d.rack_mttf_s),
                    bits(d.link_mttf_s),
                    d.link_factor.to_bits(),
                    d.link_window_s.to_bits(),
                )
            }),
        }
    }
}

/// A memo's shared copy of a value, or the caller's own when the memo was
/// skipped (no `Arc` to pay for that).
pub(crate) enum MaybeShared<T> {
    Shared(Arc<T>),
    Own(T),
}

impl<T> std::ops::Deref for MaybeShared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            MaybeShared::Shared(v) => v,
            MaybeShared::Own(v) => v,
        }
    }
}

/// Largest phase (in tasks) the phase table memoizes. A `PhaseRun`
/// retains one span per attempt, so million-task scale runs bypass the
/// cache rather than pinning hundreds of MB.
const PHASE_MEMO_MAX_TASKS: usize = 65_536;

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
    /// Distinct cluster-engine phase runs held.
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
/// splits, functional runs and app ratios (asked by every pricing), the
/// engine phase runs of direct cluster runs, and whole replication plans.
/// A seed of a plan asks the phase table nothing — its phase runs repeat
/// only when the whole plan does, and then the plan table answers.
#[derive(Default)]
pub struct SimCache {
    stalls: Table<StallKey, (f64, f64)>,
    runs: Table<RunKey, Arc<FunctionalRun>>,
    ratios: Table<AppId, AppRatios>,
    phases: Mutex<HashMap<PhaseKey, Arc<PhaseRun>>>,
    plans: Mutex<Vec<PlanEntry>>,
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
        let cell = Arc::clone(table.lock().entry(key).or_default());
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
            table.lock().get(key).is_some_and(|c| c.get().is_some())
        }
        match key {
            MemoKey::Run(app, cfg) => ready(&self.runs, &(*app, *cfg)),
            MemoKey::Stall(m, p) => ready(&self.stalls, &m.stall_key(p)),
        }
    }

    /// Computes (or waits for) `key`'s value through the ordinary
    /// memoized lookup and drops it.
    pub(crate) fn fill(&self, key: &MemoKey<'_>) {
        match key {
            MemoKey::Run(app, cfg) => drop(self.functional_run(*app, cfg)),
            MemoKey::Stall(m, p) => drop(self.stall_split(m, p)),
        }
    }

    /// Memoized dataflow ratios of `app`, built from the two reference
    /// functional runs (which are themselves cached individually).
    pub fn ratios(&self, app: AppId) -> AppRatios {
        self.memo(&self.ratios, app, || {
            let reference = self.functional_run(app, &AppRatios::reference_config());
            let small = self.functional_run(app, &AppRatios::small_config());
            AppRatios::from_runs(&reference, &small)
        })
    }

    /// Memoized cluster-engine phase run. Unlike [`SimCache::memo`]'s
    /// `OnceLock` path the computation is fallible, so a miss computes
    /// first and publishes on success; a failed run leaves nothing
    /// behind. Identical keys always compute identical runs (the engine
    /// is a pure function of the key), so a lost publish race costs a
    /// duplicated computation, never a different value.
    ///
    /// An oversized phase skips the table: no entry, no hit or miss, the
    /// run is the caller's own — as is every run of a caller that asks no
    /// memo at all (`ClusterPrep::run` without one).
    pub(crate) fn phase_run(
        &self,
        key: PhaseKey,
        compute: impl FnOnce() -> Result<PhaseRun, PhaseError>,
    ) -> Result<MaybeShared<PhaseRun>, PhaseError> {
        if key.tasks > PHASE_MEMO_MAX_TASKS {
            return compute().map(MaybeShared::Own);
        }
        if let Some(held) = self.phases.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(MaybeShared::Shared(Arc::clone(held)));
        }
        let run = Arc::new(compute()?);
        let run = match self.phases.lock().entry(key) {
            Entry::Occupied(first) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(first.get())
            }
            Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::clone(slot.insert(run))
            }
        };
        Ok(MaybeShared::Shared(run))
    }

    /// Memoized summary of a whole replication plan, keyed by full
    /// equality of the config and the seed list (order included): what a
    /// re-render of the plan gets back without pricing, sampling or
    /// charging anything. Computed outside the lock and published after,
    /// as [`SimCache::phase_run`] does: the summary is a pure function of
    /// the key, so a lost race is a duplicated computation, published once.
    pub(crate) fn plan_summary(
        &self,
        cfg: &SimConfig,
        seeds: &[u64],
        compute: impl FnOnce() -> ReplicationSummary,
    ) -> ReplicationSummary {
        let tag = plan_tag(cfg, seeds);
        let find = |held: &[PlanEntry]| {
            let same = |e: &&PlanEntry| e.tag == tag && e.cfg == *cfg && e.seeds == seeds;
            held.iter().find(same).map(|e| e.summary.clone())
        };
        if let Some(summary) = find(&self.plans.lock()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return summary;
        }
        let summary = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut held = self.plans.lock();
        if find(&held).is_none() {
            held.push(PlanEntry {
                tag,
                cfg: cfg.clone(),
                seeds: seeds.to_vec(),
                summary: summary.clone(),
            });
        }
        summary
    }

    /// Current counters and per-table entry counts.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stall_entries: self.stalls.lock().len(),
            run_entries: self.runs.lock().len(),
            ratio_entries: self.ratios.lock().len(),
            phase_entries: self.phases.lock().len(),
            plan_entries: self.plans.lock().len(),
        }
    }

    /// Drops every entry and zeroes the counters (benchmarks use this to
    /// measure cold-cache behaviour without a fresh process).
    pub fn clear(&self) {
        self.stalls.lock().clear();
        self.runs.lock().clear();
        self.ratios.lock().clear();
        self.phases.lock().clear();
        self.plans.lock().clear();
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
        small_l2.cache_levels[1].size_bytes /= 4;
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
    fn fetch_digest_separates_holders_layout_and_timing() {
        use crate::cluster::{FetchPlan, NodeTiming};

        let timing = |task_seconds| NodeTiming {
            task_seconds,
            overhead_seconds: 0.5,
        };
        let base = FetchPlan {
            holders: vec![0, 1],
            map_replicas: vec![vec![1], vec![2]],
            topology: Topology::racked(2, 4.0),
            read_seconds: [0.0, 0.1, 0.2],
            map_timing: vec![timing(3.0), timing(4.0), timing(4.0)],
        };
        let digest = |plan: &FetchView<'_>| fetch_digest(fetch_layout_digest(plan), plan.holders);

        let mut holder_moved = base.clone();
        holder_moved.holders = vec![0, 2];
        let mut replica_moved = base.clone();
        replica_moved.map_replicas = vec![vec![1], vec![0]];
        let mut sets_merged = base.clone();
        sets_merged.map_replicas = vec![vec![1, 2]];
        let mut timing_flipped = base.clone();
        timing_flipped.map_timing[2] = timing(f64::from_bits(4.0f64.to_bits() ^ 1));
        let plans = [
            &base,
            &holder_moved,
            &replica_moved,
            &sets_merged,
            &timing_flipped,
        ];
        let mut keys: Vec<u64> = plans.iter().map(|p| digest(&p.view())).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), plans.len(), "every perturbation is a new key");

        // The holders are the only seeded field: the part `ClusterPrep`
        // folds once does not read them.
        assert_eq!(
            fetch_layout_digest(&base.view()),
            fetch_layout_digest(&holder_moved.view())
        );
        // An owned plan and the same plan borrowed piecewise key alike.
        let (replicas, timings) = (base.map_replicas.clone(), base.map_timing.clone());
        let borrowed = FetchView {
            holders: &[0, 1],
            map_replicas: &replicas,
            topology: base.topology,
            read_seconds: base.read_seconds,
            map_timing: &timings,
        };
        assert_eq!(digest(&borrowed), digest(&base.view()));
    }

    #[test]
    fn holds_is_a_peek() {
        let c = SimCache::new();
        let m = presets::atom_c2758();
        let stall = MemoKey::Stall(&m, Cow::Owned(ComputeProfile::hadoop_average()));
        let run = MemoKey::Run(AppId::Sort, AppRatios::small_config());
        assert!(!c.holds(&stall) && !c.holds(&run));
        assert_eq!(c.stats(), CacheStats::default(), "no entry, no count");
        c.fill(&stall);
        c.fill(&run);
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
        assert_eq!(cached, direct);
        // The two reference runs landed in the run table.
        assert_eq!(c.stats().run_entries, 2);
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
