//! `hhsim-faults` — deterministic fault injection and Hadoop-style
//! recovery policies for the cluster engine.
//!
//! Real Hadoop's defining runtime behaviour is surviving task failures,
//! stragglers and node loss through re-execution and speculative backup
//! tasks. This crate supplies the *plan* side of that story: given a
//! [`FaultConfig`] (seed + rates) it derives, purely by hashing, which
//! task attempts fail and where, which nodes crash and when, and which
//! nodes run degraded — so the cluster engine can replay the exact same
//! fault schedule on every run, on every platform, under any `--jobs`
//! worker count.
//!
//! Determinism is structural, not incidental: there is no RNG *state*
//! anywhere. Every draw is a SplitMix64-style hash of
//! `(seed, stream tag, identity)` — the same technique as the engine's
//! per-task duration jitter — so the schedule cannot depend on event
//! order, thread interleaving or sampling order. The unseeded-RNG entries
//! of `clippy.toml` stay trivially satisfied because there is nothing to
//! seed at runtime.
//!
//! The recovery semantics ([`RecoveryPolicy`]) mirror Hadoop 1.x:
//! re-execution up to `max_attempts` with exponential backoff, LATE-style
//! speculative backups (duplicate a slow task on the fastest free slot,
//! first finisher wins, loser is cancelled), node blacklisting after
//! repeated failures, and the KILLED / FAILED distinction (attempts lost
//! to a node crash do not count against `max_attempts`).

// Every lossy `as` cast in shipped code names why it cannot lose bits,
// in an `#[expect]` at the site (test code is exempt).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of `(seed, tag, a, b)` — one deterministic draw per identity.
fn draw(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed ^ mix(tag)) ^ a) ^ b)
}

/// Maps a hash to a uniform `f64` in `[0, 1)` (53 mantissa bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Stream tags keep independent decision streams from aliasing.
const TAG_PHASE: u64 = 0x5048_4153; // "PHAS"
const TAG_FAIL: u64 = 0x4641_494c; // "FAIL"
const TAG_FRAC: u64 = 0x4652_4143; // "FRAC"
const TAG_CRASH: u64 = 0x4352_5348; // "CRSH"
const TAG_STRAG: u64 = 0x5354_5247; // "STRG"
const TAG_SWCH: u64 = 0x5357_4348; // "SWCH"

/// Base of the exponential re-execution backoff: attempt `k` is requeued
/// `BACKOFF_BASE_S * 2^(k-1)` seconds after its failure (Hadoop 1.x).
pub const BACKOFF_BASE_S: f64 = 1.0;

/// Hadoop-style recovery knobs applied by the cluster engine when a
/// [`FaultConfig`] is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Failed attempts allowed per task before the whole phase errors
    /// (Hadoop's `mapred.map.max.attempts`, default 4). Killed attempts
    /// (node crash) do not count.
    pub max_attempts: u32,
    /// Launch LATE-style speculative backup tasks.
    pub speculation: bool,
    /// A running attempt becomes a speculation candidate when its
    /// progress rate falls below `spec_rate_threshold` × the mean rate
    /// of all attempts launched so far.
    pub spec_rate_threshold: f64,
    /// Minimum seconds an attempt must have run before it can be
    /// speculated (Hadoop waits for a stable progress estimate).
    pub spec_min_runtime_s: f64,
    /// Blacklist a node after this many failed attempts on it
    /// (0 disables blacklisting). Blacklisted nodes receive no new
    /// attempts; in-flight work is allowed to finish.
    pub blacklist_after: u32,
    /// Blacklist a whole rack once this many of its nodes have been
    /// individually blacklisted (0 disables rack blacklisting). Only
    /// takes effect when the fault layer carries a rack structure
    /// ([`PhaseDomains::racks`] > 0), and never strands the cluster:
    /// the last rack with a usable node stays schedulable.
    pub rack_blacklist_after: u32,
}

impl RecoveryPolicy {
    /// Hadoop 1.x defaults: 4 attempts, 1 s backoff base, speculation on
    /// (candidate below 80 % of the mean progress rate after 5 s),
    /// blacklist after 3 failures.
    pub fn hadoop() -> Self {
        RecoveryPolicy {
            max_attempts: 4,
            speculation: true,
            spec_rate_threshold: 0.8,
            spec_min_runtime_s: 5.0,
            blacklist_after: 3,
            rack_blacklist_after: 2,
        }
    }

    /// Backoff delay before re-queueing after the `failures`-th failure.
    pub fn backoff_s(&self, failures: u32) -> f64 {
        let exp = failures.saturating_sub(1).min(16);
        BACKOFF_BASE_S * f64::from(1u32 << exp)
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::hadoop()
    }
}

/// Correlated failure-domain knobs: faults that hit a whole rack at
/// once instead of one node at a time. Like every other fault source
/// the draws are stateless hashes of `(seed, tag, rack)`, so an
/// inactive config ([`DomainConfig::none`]) is bitwise invisible to
/// every run that does not opt in.
///
/// Rack membership follows the fabric convention used everywhere else
/// in the workspace: node `n` lives in rack `n % racks`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainConfig {
    /// Number of failure domains (racks). 0 disables every domain
    /// fault regardless of the switch MTTF below.
    pub racks: usize,
    /// Mean time to ToR-switch failure, seconds (`None` = switches
    /// never crash). A switch crash takes its whole rack offline at
    /// one instant.
    pub switch_mttf_s: Option<f64>,
}

impl DomainConfig {
    /// No failure domains: zero racks, no switch crashes.
    pub fn none() -> Self {
        DomainConfig {
            racks: 0,
            switch_mttf_s: None,
        }
    }

    /// Sets the rack count.
    pub fn racks(mut self, racks: usize) -> Self {
        self.racks = racks;
        self
    }

    /// Enables ToR-switch crashes with the given mean time to failure.
    pub fn switch_mttf(mut self, mttf_s: f64) -> Self {
        self.switch_mttf_s = Some(mttf_s);
        self
    }

    /// True if this configuration can inject any domain fault at all.
    pub fn active(&self) -> bool {
        self.racks > 0 && self.switch_mttf_s.is_some()
    }
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig::none()
    }
}

/// A seeded, fully deterministic fault model for one cluster run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Root seed; every fault decision hashes off it.
    pub seed: u64,
    /// Per-attempt failure probability of map tasks.
    pub map_failure_rate: f64,
    /// Per-attempt failure probability of reduce tasks.
    pub reduce_failure_rate: f64,
    /// Mean time to node failure, seconds (`None` = nodes never crash).
    /// Crash times are drawn exponentially per node.
    pub node_mttf_s: Option<f64>,
    /// Probability that a node runs degraded for the whole run.
    pub straggler_rate: f64,
    /// Duration multiplier (≥ 1) on every task a straggler node runs.
    pub straggler_slowdown: f64,
    /// How the engine recovers from the injected faults.
    pub recovery: RecoveryPolicy,
    /// Correlated failure domains (rack-wide ToR-switch crashes). The
    /// default ([`DomainConfig::none`]) injects nothing.
    pub domains: DomainConfig,
}

impl FaultConfig {
    /// No faults at all: zero rates, no crashes, no stragglers. The
    /// engine treats this exactly like running without a `FaultConfig`.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            map_failure_rate: 0.0,
            reduce_failure_rate: 0.0,
            node_mttf_s: None,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
            recovery: RecoveryPolicy::hadoop(),
            domains: DomainConfig::none(),
        }
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-attempt failure probabilities of both phases.
    pub fn failure_rates(mut self, map: f64, reduce: f64) -> Self {
        self.map_failure_rate = map;
        self.reduce_failure_rate = reduce;
        self
    }

    /// Enables node crashes with the given mean time to failure.
    pub fn node_mttf(mut self, mttf_s: f64) -> Self {
        self.node_mttf_s = Some(mttf_s);
        self
    }

    /// Makes each node a straggler with probability `rate`, slowed by
    /// `slowdown`.
    pub fn stragglers(mut self, rate: f64, slowdown: f64) -> Self {
        self.straggler_rate = rate;
        self.straggler_slowdown = slowdown;
        self
    }

    /// Replaces the recovery policy.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Installs correlated failure domains (rack-wide switch crashes).
    pub fn domains(mut self, domains: DomainConfig) -> Self {
        self.domains = domains;
        self
    }

    /// True if this configuration can inject any fault at all. An
    /// inactive config (e.g. [`FaultConfig::none`]) leaves the engine on
    /// its fault-free fast path, byte-identical to no config.
    pub fn active(&self) -> bool {
        self.map_failure_rate > 0.0
            || self.reduce_failure_rate > 0.0
            || self.node_mttf_s.is_some()
            || (self.straggler_rate > 0.0 && self.straggler_slowdown > 1.0)
            || self.domains.active()
    }

    /// The per-attempt failure rate of a phase (`true` = reduce).
    pub fn phase_rate(&self, reduce: bool) -> f64 {
        if reduce {
            self.reduce_failure_rate
        } else {
            self.map_failure_rate
        }
    }
}

/// Per-attempt failure schedule of one phase: a pure function of
/// `(seed, phase id, task, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    phase_seed: u64,
    failure_rate: f64,
}

impl FaultPlan {
    /// Plan for phase `phase` (a run-global phase counter) under the
    /// given per-attempt failure rate.
    pub fn new(seed: u64, phase: u64, failure_rate: f64) -> Self {
        FaultPlan {
            phase_seed: draw(seed, TAG_PHASE, phase, 0),
            failure_rate: failure_rate.clamp(0.0, 1.0),
        }
    }

    /// If attempt `attempt` of `task` fails, the fraction of its runtime
    /// (in `[0.05, 0.95]`) at which it dies; `None` if it succeeds.
    pub fn attempt_failure(&self, task: usize, attempt: u32) -> Option<f64> {
        if self.failure_rate <= 0.0 {
            return None;
        }
        let (t, a) = (task as u64, u64::from(attempt));
        if unit(draw(self.phase_seed, TAG_FAIL, t, a)) < self.failure_rate {
            Some(0.05 + 0.9 * unit(draw(self.phase_seed, TAG_FRAC, t, a)))
        } else {
            None
        }
    }
}

/// One rack-uplink degradation window. Nothing draws or reads one any
/// more; it survives only as the element type of
/// [`PhaseDomains::link_degraded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkWindow {
    /// Window start, seconds.
    pub start_s: f64,
    /// Window end, seconds.
    pub end_s: f64,
    /// Multiplier on remote-read extras inside the window.
    pub factor: f64,
}

/// Run-level failure-domain fate: one entry per rack.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeDomains {
    /// Number of racks (0 = no domain structure; node `n` is in rack
    /// `n % racks` otherwise).
    pub racks: usize,
    /// Absolute time each rack goes down as a whole (its ToR switch
    /// crashes), `None` = never.
    pub rack_crash_at_s: Vec<Option<f64>>,
}

/// Run-level node fate: absolute crash times and straggler slowdowns,
/// sampled once per run so a node crashed in the map phase stays dead in
/// the reduce phase. The default is the fate of zero nodes, a buffer for
/// [`NodeFaults::sample_into`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeFaults {
    /// Absolute crash time per node, seconds from run start (`None` =
    /// never crashes). May exceed the run's makespan, in which case the
    /// crash simply never fires. When failure domains are active this
    /// already folds in the node's rack fate (its switch crash) as a
    /// competing hazard.
    pub crash_at_s: Vec<Option<f64>>,
    /// Whole-run duration multiplier per node (1.0 = healthy).
    pub slowdown: Vec<f64>,
    /// Rack-level fate (empty / zero racks without active domains).
    pub domains: NodeDomains,
}

/// Exponential inverse-CDF draw with mean `mttf`; `unit` < 1 keeps the
/// log argument strictly positive.
fn exp_draw(seed: u64, tag: u64, id: u64, mttf: f64) -> f64 {
    let u = unit(draw(seed, tag, id, 0));
    -mttf * (1.0 - u).ln()
}

/// Min of two optional crash candidates (competing hazards).
fn min_opt(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl NodeFaults {
    /// Samples every node's fate from the config seed.
    pub fn sample(cfg: &FaultConfig, nodes: usize) -> Self {
        let mut fates = NodeFaults::default();
        fates.sample_into(cfg, nodes);
        fates
    }

    /// [`NodeFaults::sample`] written over `self`: every column is cleared
    /// and refilled, so what a previous sample left (of any config or node
    /// count) shows only as capacity.
    pub fn sample_into(&mut self, cfg: &FaultConfig, nodes: usize) {
        let valid = |m: &f64| m.is_finite() && *m > 0.0;
        // Named field by field, as in `phase_into`.
        let NodeFaults {
            crash_at_s,
            slowdown,
            domains:
                NodeDomains {
                    racks,
                    rack_crash_at_s,
                },
        } = self;
        *racks = if cfg.domains.active() {
            cfg.domains.racks
        } else {
            0
        };
        rack_crash_at_s.clear();
        rack_crash_at_s.extend((0..*racks).map(|r| {
            cfg.domains
                .switch_mttf_s
                .filter(valid)
                .map(|mttf| exp_draw(cfg.seed, TAG_SWCH, r as u64, mttf))
        }));
        crash_at_s.clear();
        crash_at_s.extend((0..nodes).map(|n| {
            let own = cfg
                .node_mttf_s
                .filter(valid)
                .map(|mttf| exp_draw(cfg.seed, TAG_CRASH, n as u64, mttf));
            let rack = if *racks > 0 {
                rack_crash_at_s.get(n % *racks).copied().flatten()
            } else {
                None
            };
            min_opt(own, rack)
        }));
        slowdown.clear();
        slowdown.extend((0..nodes).map(|n| {
            if unit(draw(cfg.seed, TAG_STRAG, n as u64, 0)) < cfg.straggler_rate {
                cfg.straggler_slowdown.max(1.0)
            } else {
                1.0
            }
        }));
    }

    /// Projects the run-level fate onto one phase starting at absolute
    /// time `offset_s`: nodes whose crash time has already passed start
    /// the phase dead, the rest get phase-relative crash times.
    pub fn phase(
        &self,
        cfg: &FaultConfig,
        phase: u64,
        failure_rate: f64,
        offset_s: f64,
    ) -> PhaseFaults {
        let mut out = PhaseFaults::default();
        self.phase_into(cfg, phase, failure_rate, offset_s, &mut out);
        out
    }

    /// [`NodeFaults::phase`] written over `out`: every field is replaced
    /// and every column cleared and refilled, so what `out` held before
    /// (another phase, config or node count) shows only as capacity.
    pub fn phase_into(
        &self,
        cfg: &FaultConfig,
        phase: u64,
        failure_rate: f64,
        offset_s: f64,
        out: &mut PhaseFaults,
    ) {
        // Named field by field, so a field added later cannot be left
        // holding the previous phase's value.
        let PhaseFaults {
            plan,
            crash_at_s,
            dead_at_start,
            slowdown,
            policy,
            domains:
                PhaseDomains {
                    racks,
                    rack_crash_at_s,
                    link_degraded,
                },
        } = out;
        *plan = FaultPlan::new(cfg.seed, phase, failure_rate);
        *policy = cfg.recovery;
        dead_at_start.clear();
        dead_at_start
            .extend((self.crash_at_s.iter()).map(|c| matches!(c, Some(t) if *t <= offset_s)));
        // A crash before this phase shows up as `dead_at_start`; so does
        // a rack event, which was counted (if at all) by the phase it
        // landed in.
        let relative = |c: &Option<f64>| match c {
            Some(t) if *t <= offset_s => None,
            Some(t) => Some(t - offset_s),
            None => None,
        };
        crash_at_s.clear();
        crash_at_s.extend(self.crash_at_s.iter().map(relative));
        slowdown.clone_from(&self.slowdown);
        *racks = self.domains.racks;
        rack_crash_at_s.clear();
        rack_crash_at_s.extend(self.domains.rack_crash_at_s.iter().map(relative));
        link_degraded.clear();
    }
}

/// One phase's view of the failure domains: phase-relative rack crash
/// times. The default (zero racks) carries no domain structure at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseDomains {
    /// Number of racks (0 = no domain structure).
    pub racks: usize,
    /// Phase-relative time each rack goes down as a whole (`None` = not
    /// during this phase).
    pub rack_crash_at_s: Vec<Option<f64>>,
    /// Unread: no code reads this column, and [`NodeFaults::phase_into`]
    /// leaves it empty. It stays only because the benchmark package
    /// (`perf/`) still assigns it; ROADMAP item 10(a) drops that write,
    /// and item 17 then drops the column with [`LinkWindow`].
    pub link_degraded: Vec<Option<LinkWindow>>,
}

impl PhaseDomains {
    /// The rack of `node` (0 when no domain structure is configured).
    pub fn rack_of(&self, node: usize) -> usize {
        if self.racks == 0 {
            0
        } else {
            node % self.racks
        }
    }
}

/// Everything the engine needs to run one phase under faults.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseFaults {
    /// Which task attempts fail, and where in their runtime.
    pub plan: FaultPlan,
    /// Phase-relative crash time per node (`None` = no crash this phase).
    pub crash_at_s: Vec<Option<f64>>,
    /// Nodes that crashed in an earlier phase and contribute no slots.
    pub dead_at_start: Vec<bool>,
    /// Per-node duration multiplier (stragglers).
    pub slowdown: Vec<f64>,
    /// Recovery semantics.
    pub policy: RecoveryPolicy,
    /// Phase-projected failure domains (rack crashes).
    pub domains: PhaseDomains,
}

impl PhaseFaults {
    /// A fault-free phase over `nodes` nodes — useful for exercising the
    /// fault-aware engine path without injecting anything.
    pub fn inert(nodes: usize) -> Self {
        PhaseFaults {
            plan: FaultPlan::new(0, 0, 0.0),
            crash_at_s: vec![None; nodes],
            dead_at_start: vec![false; nodes],
            slowdown: vec![1.0; nodes],
            policy: RecoveryPolicy::hadoop(),
            domains: PhaseDomains::default(),
        }
    }
}

impl Default for PhaseFaults {
    /// The inert phase of zero nodes, a buffer for
    /// [`NodeFaults::phase_into`].
    fn default() -> Self {
        PhaseFaults::inert(0)
    }
}

/// How one task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttemptOutcome {
    /// Ran to completion and won its task.
    #[default]
    Success,
    /// Died mid-run to an injected task failure (counts toward
    /// `max_attempts`).
    Failed,
    /// Lost to a node crash (does not count toward `max_attempts`).
    Killed,
    /// A speculative duplicate that lost the race and was cancelled.
    Cancelled,
    /// A reduce attempt cancelled mid-shuffle because a node holding a
    /// map output it was fetching died (does not count toward
    /// `max_attempts`; the reduce re-runs after the map re-executes).
    FetchFailed,
    /// A completed map task re-executed on a surviving node after a
    /// fetch failure (the winning recovery attempt).
    Recovered,
}

impl AttemptOutcome {
    /// Lower-case label for trace exports.
    pub fn as_str(self) -> &'static str {
        match self {
            AttemptOutcome::Success => "success",
            AttemptOutcome::Failed => "failed",
            AttemptOutcome::Killed => "killed",
            AttemptOutcome::Cancelled => "cancelled",
            AttemptOutcome::FetchFailed => "fetch-failed",
            AttemptOutcome::Recovered => "recovered",
        }
    }
}

/// Fault and recovery counters of one phase (or, absorbed, one run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Attempts that died to an injected task failure.
    pub failed_attempts: u64,
    /// Attempts killed by a node crash.
    pub killed_attempts: u64,
    /// Speculative backup attempts launched.
    pub speculative_launched: u64,
    /// Tasks won by their speculative backup.
    pub speculative_wins: u64,
    /// Attempts cancelled because the rival finished first.
    pub cancelled_attempts: u64,
    /// Nodes that crashed mid-phase.
    pub node_crashes: u64,
    /// Nodes blacklisted after repeated failures.
    pub blacklisted_nodes: u64,
    /// Whole-rack failure events (ToR-switch crashes) that fired
    /// mid-phase.
    pub rack_crashes: u64,
    /// Racks blacklisted after too many of their nodes went bad.
    pub racks_blacklisted: u64,
    /// In-flight reduce attempts cancelled because a map output they
    /// were fetching was lost to a crash.
    pub fetch_failures: u64,
    /// Completed map tasks re-executed on surviving nodes after fetch
    /// failures.
    pub reexecuted_maps: u64,
    /// Slot-seconds spent on attempts that did not win (failed, killed
    /// or cancelled) — work the energy model still has to charge.
    pub wasted_slot_s: f64,
}

impl FaultStats {
    /// Folds another phase's counters into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.failed_attempts += other.failed_attempts;
        self.killed_attempts += other.killed_attempts;
        self.speculative_launched += other.speculative_launched;
        self.speculative_wins += other.speculative_wins;
        self.cancelled_attempts += other.cancelled_attempts;
        self.node_crashes += other.node_crashes;
        self.blacklisted_nodes += other.blacklisted_nodes;
        self.rack_crashes += other.rack_crashes;
        self.racks_blacklisted += other.racks_blacklisted;
        self.fetch_failures += other.fetch_failures;
        self.reexecuted_maps += other.reexecuted_maps;
        self.wasted_slot_s += other.wasted_slot_s;
    }

    /// Total attempts that consumed a slot without winning.
    pub fn wasted_attempts(&self) -> u64 {
        self.failed_attempts + self.killed_attempts + self.cancelled_attempts + self.fetch_failures
    }
}

/// Why a phase could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseError {
    /// A task failed `max_attempts` times; Hadoop fails the job.
    AttemptsExhausted {
        /// The task that ran out of attempts.
        task: usize,
        /// Failed attempts it accumulated.
        attempts: u32,
    },
    /// Tasks remain but every node is dead or blacklisted.
    NoUsableSlots {
        /// Tasks that never completed.
        pending: usize,
    },
    /// A map task needed re-execution after a fetch failure, but every
    /// replica of its input block died with its node or rack; Hadoop
    /// fails the job instead of retrying forever.
    DataLost {
        /// The map task whose input block lost all replicas.
        task: usize,
    },
}

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseError::AttemptsExhausted { task, attempts } => {
                write!(f, "task {task} failed {attempts} attempts; job failed")
            }
            PhaseError::NoUsableSlots { pending } => {
                write!(
                    f,
                    "{pending} task(s) pending but every node is dead or blacklisted"
                )
            }
            PhaseError::DataLost { task } => {
                write!(
                    f,
                    "map task {task} lost every replica of its input block; job failed"
                )
            }
        }
    }
}

impl std::error::Error for PhaseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use hhsim_testkit::{check, Gen};

    #[test]
    fn none_is_inactive_and_sampling_is_empty() {
        let cfg = FaultConfig::none();
        assert!(!cfg.active());
        let nf = NodeFaults::sample(&cfg, 4);
        assert_eq!(nf.crash_at_s, vec![None; 4]);
        assert_eq!(nf.slowdown, vec![1.0; 4]);
        let plan = FaultPlan::new(cfg.seed, 0, 0.0);
        for task in 0..64 {
            assert_eq!(plan.attempt_failure(task, 1), None);
        }
    }

    #[test]
    fn activation_flags() {
        assert!(FaultConfig::none().failure_rates(0.1, 0.0).active());
        assert!(FaultConfig::none().failure_rates(0.0, 0.1).active());
        assert!(FaultConfig::none().node_mttf(100.0).active());
        assert!(FaultConfig::none().stragglers(0.5, 2.0).active());
        // A "straggler" with no slowdown injects nothing.
        assert!(!FaultConfig::none().stragglers(0.5, 1.0).active());
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(7, 3, 0.3);
        let b = FaultPlan::new(7, 3, 0.3);
        let c = FaultPlan::new(8, 3, 0.3);
        let d = FaultPlan::new(7, 4, 0.3);
        let sched = |p: &FaultPlan| -> Vec<Option<f64>> {
            (0..256).map(|t| p.attempt_failure(t, 1)).collect()
        };
        assert_eq!(sched(&a), sched(&b), "same seed, same schedule");
        assert_ne!(sched(&a), sched(&c), "different seed, different schedule");
        assert_ne!(sched(&a), sched(&d), "different phase, different schedule");
    }

    #[test]
    fn failure_rate_is_respected_statistically() {
        let plan = FaultPlan::new(42, 0, 0.2);
        let n = 20_000;
        let failures = (0..n)
            .filter(|&t| plan.attempt_failure(t, 1).is_some())
            .count();
        let rate = failures as f64 / n as f64;
        assert!(
            (0.17..0.23).contains(&rate),
            "empirical rate {rate} far from 0.2"
        );
        for t in 0..n {
            if let Some(frac) = plan.attempt_failure(t, 1) {
                assert!((0.05..=0.95).contains(&frac), "failure point {frac}");
            }
        }
    }

    #[test]
    fn attempts_fail_independently() {
        let plan = FaultPlan::new(9, 1, 0.5);
        // Over many tasks, attempt 1 and attempt 2 outcomes must differ
        // somewhere — the draws are per (task, attempt).
        let differs = (0..128)
            .any(|t| plan.attempt_failure(t, 1).is_some() != plan.attempt_failure(t, 2).is_some());
        assert!(differs);
    }

    #[test]
    fn crash_times_are_exponential_ish() {
        let cfg = FaultConfig::none().seed(11).node_mttf(500.0);
        let nf = NodeFaults::sample(&cfg, 2000);
        let times: Vec<f64> = nf.crash_at_s.iter().map(|c| c.unwrap_or(0.0)).collect();
        assert!(times.iter().all(|&t| t > 0.0));
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        assert!(
            (400.0..600.0).contains(&mean),
            "mean crash time {mean} far from mttf 500"
        );
    }

    #[test]
    fn stragglers_follow_rate() {
        let cfg = FaultConfig::none().seed(5).stragglers(0.25, 3.0);
        let nf = NodeFaults::sample(&cfg, 4000);
        let slow = nf.slowdown.iter().filter(|&&s| s > 1.0).count();
        let rate = slow as f64 / 4000.0;
        assert!((0.21..0.29).contains(&rate), "straggler rate {rate}");
        assert!(nf.slowdown.iter().all(|&s| s == 1.0 || s == 3.0));
    }

    #[test]
    fn phase_projection_handles_earlier_crashes() {
        let cfg = FaultConfig::none().seed(3).node_mttf(100.0);
        let nf = NodeFaults {
            crash_at_s: vec![Some(50.0), Some(150.0), None],
            slowdown: vec![1.0, 2.0, 1.0],
            domains: NodeDomains::default(),
        };
        let pf = nf.phase(&cfg, 1, 0.1, 100.0);
        assert_eq!(pf.dead_at_start, vec![true, false, false]);
        assert_eq!(pf.crash_at_s, vec![None, Some(50.0), None]);
        assert_eq!(pf.slowdown, nf.slowdown);
        assert_eq!(pf.domains, PhaseDomains::default());
    }

    #[test]
    fn domain_activation_flags() {
        assert!(!DomainConfig::none().active());
        // A switch MTTF without racks injects nothing.
        assert!(!DomainConfig::none().switch_mttf(100.0).active());
        assert!(DomainConfig::none().racks(4).switch_mttf(100.0).active());
        assert!(!DomainConfig::none().racks(4).active());
        assert!(FaultConfig::none()
            .domains(DomainConfig::none().racks(4).switch_mttf(100.0))
            .active());
    }

    #[test]
    fn switch_crash_takes_the_whole_rack_down_at_once() {
        let cfg = FaultConfig::none()
            .seed(13)
            .domains(DomainConfig::none().racks(4).switch_mttf(300.0));
        let nf = NodeFaults::sample(&cfg, 12);
        assert_eq!(nf.domains.racks, 4);
        assert_eq!(nf.domains.rack_crash_at_s.len(), 4);
        for (n, c) in nf.crash_at_s.iter().enumerate() {
            // Without a per-node MTTF, every node inherits exactly its
            // rack's shared crash time.
            assert_eq!(*c, nf.domains.rack_crash_at_s[n % 4], "node {n}");
        }
    }

    #[test]
    fn rack_term_is_a_competing_hazard_on_node_mttf() {
        let cfg = FaultConfig::none()
            .seed(21)
            .node_mttf(500.0)
            .domains(DomainConfig::none().racks(2).switch_mttf(800.0));
        let solo = FaultConfig::none().seed(21).node_mttf(500.0);
        let nf = NodeFaults::sample(&cfg, 8);
        let base = NodeFaults::sample(&solo, 8);
        for n in 0..8 {
            let own = base.crash_at_s[n].expect("node mttf draws for all");
            let rack = nf.domains.rack_crash_at_s[n % 2].expect("switch term draws");
            assert_eq!(nf.crash_at_s[n], Some(own.min(rack)), "node {n}");
        }
    }

    #[test]
    fn domain_sampling_is_deterministic_and_seed_sensitive() {
        let dom = DomainConfig::none().racks(4).switch_mttf(200.0);
        let a = NodeFaults::sample(&FaultConfig::none().seed(7).domains(dom), 12);
        let b = NodeFaults::sample(&FaultConfig::none().seed(7).domains(dom), 12);
        let c = NodeFaults::sample(&FaultConfig::none().seed(8).domains(dom), 12);
        assert_eq!(a, b);
        assert_ne!(a.domains.rack_crash_at_s, c.domains.rack_crash_at_s);
    }

    #[test]
    fn inactive_domains_leave_sampling_bitwise_identical() {
        let plain = FaultConfig::none().seed(9).node_mttf(300.0);
        let with_none = plain.domains(DomainConfig::none());
        assert_eq!(
            NodeFaults::sample(&plain, 6),
            NodeFaults::sample(&with_none, 6)
        );
        // Racks alone (no switch MTTF) stay inactive too.
        let racks_only = plain.domains(DomainConfig::none().racks(4));
        let nf = NodeFaults::sample(&racks_only, 6);
        assert_eq!(nf, NodeFaults::sample(&plain, 6));
        assert_eq!(nf.domains, NodeDomains::default());
    }

    #[test]
    fn data_lost_error_displays() {
        let e = PhaseError::DataLost { task: 5 };
        assert!(e.to_string().contains("map task 5"));
        assert!(e.to_string().contains("replica"));
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RecoveryPolicy::hadoop();
        assert_eq!(p.backoff_s(1), 1.0);
        assert_eq!(p.backoff_s(2), 2.0);
        assert_eq!(p.backoff_s(3), 4.0);
        // Saturates instead of overflowing.
        assert!(p.backoff_s(60) > 0.0);
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = FaultStats {
            failed_attempts: 1,
            wasted_slot_s: 2.5,
            ..FaultStats::default()
        };
        let b = FaultStats {
            failed_attempts: 2,
            killed_attempts: 3,
            wasted_slot_s: 1.5,
            ..FaultStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.failed_attempts, 3);
        assert_eq!(a.killed_attempts, 3);
        assert_eq!(a.wasted_attempts(), 6);
        assert!((a.wasted_slot_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn errors_display() {
        let e = PhaseError::AttemptsExhausted {
            task: 3,
            attempts: 4,
        };
        assert!(e.to_string().contains("task 3"));
        let e = PhaseError::NoUsableSlots { pending: 2 };
        assert!(e.to_string().contains("2 task(s)"));
    }

    /// A fault config with node crashes, stragglers and racks each on or
    /// off.
    fn random_config(g: &mut Gen) -> FaultConfig {
        let mut cfg = FaultConfig::none()
            .seed(g.u64(0..u64::MAX))
            .failure_rates(0.2 * g.f64(), 0.2 * g.f64());
        if g.bool(0.6) {
            cfg = cfg.node_mttf(50.0 + 500.0 * g.f64());
        }
        if g.bool(0.5) {
            cfg = cfg.stragglers(0.5 * g.f64(), 1.0 + 3.0 * g.f64());
        }
        if g.bool(0.5) {
            let racks = DomainConfig::none().racks(g.usize(1..6));
            cfg = cfg.domains(racks.switch_mttf(50.0 + 400.0 * g.f64()));
        }
        cfg
    }

    /// `sample_into` and `phase_into` over buffers another config filled
    /// equal `sample` and `phase` on fresh ones, field for field: more
    /// or fewer nodes, racks turned on or off, rack crashes before and
    /// after the phase offset (each seen, and counted, at least once).
    #[test]
    fn in_place_forms_equal_the_allocating_ones() {
        let mut seen = [0u32; 6];
        check(500, |g| {
            let (old, new) = (random_config(g), random_config(g));
            let (old_nodes, nodes) = (g.usize(0..40), g.usize(0..40));
            let mut fates = NodeFaults::default();
            let mut phase = PhaseFaults::default();
            fates.sample_into(&old, old_nodes);
            fates.phase_into(&old, 0, old.map_failure_rate, 300.0 * g.f64(), &mut phase);
            phase.domains.link_degraded = vec![None; g.usize(0..4)];

            fates.sample_into(&new, nodes);
            assert_eq!(fates, NodeFaults::sample(&new, nodes));
            let offset = 300.0 * g.f64();
            let rate = new.reduce_failure_rate;
            fates.phase_into(&new, 1, rate, offset, &mut phase);
            assert_eq!(phase, fates.phase(&new, 1, rate, offset));

            let racks = |c: &FaultConfig| c.domains.active();
            let rack_crashes = &fates.domains.rack_crash_at_s;
            for (i, hit) in [
                nodes > old_nodes,
                nodes < old_nodes,
                racks(&old) && !racks(&new),
                !racks(&old) && racks(&new),
                rack_crashes.iter().flatten().any(|&t| t <= offset),
                rack_crashes.iter().flatten().any(|&t| t > offset),
            ]
            .into_iter()
            .enumerate()
            {
                seen[i] += u32::from(hit);
            }
        });
        assert!(seen.iter().all(|&n| n > 0), "cases seen: {seen:?}");
    }

    #[test]
    fn inert_phase_faults_inject_nothing() {
        let pf = PhaseFaults::inert(3);
        assert_eq!(pf.crash_at_s, vec![None; 3]);
        assert_eq!(pf.dead_at_start, vec![false; 3]);
        assert_eq!(pf.slowdown, vec![1.0; 3]);
        assert_eq!(pf.plan.attempt_failure(0, 1), None);
    }
}
