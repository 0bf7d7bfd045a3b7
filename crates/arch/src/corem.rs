//! Analytical core and machine performance model.
//!
//! Effective IPC combines three limits:
//!
//! 1. the machine's sustained issue rate (`issue_width ×
//!    pipeline_efficiency` — out-of-order cores convert width into
//!    throughput far better than in-order ones);
//! 2. the application's intrinsic ILP;
//! 3. memory stalls, obtained by running the application's synthetic
//!    address trace through the machine's simulated cache hierarchy, with a
//!    latency-hiding factor modelling out-of-order/MLP overlap.
//!
//! This reproduces the paper's Fig. 1: Hadoop IPC is far below SPEC/PARSEC
//! on both machines, and the big core sustains ≈1.4× the little core's IPC
//! on Hadoop code.

use std::borrow::Cow;

use crate::cache::{CacheConfig, CacheHierarchy, LevelKey, CHUNK};
use crate::dvfs::{Frequency, OperatingPoint, VoltageCurve};
use crate::power::ChipPowerModel;
use crate::profile::ComputeProfile;
use crate::trace::TraceGenerator;

/// Which side of the big/little divide a machine is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// High-performance out-of-order server core (Xeon).
    Big,
    /// Low-power in-order core (Atom).
    Little,
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreKind::Big => write!(f, "Xeon"),
            CoreKind::Little => write!(f, "Atom"),
        }
    }
}

/// Pipeline-level parameters of one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreModel {
    /// Big or little.
    pub kind: CoreKind,
    /// Instructions issued per cycle at best.
    pub issue_width: f64,
    /// Fraction of the issue width sustainable on real code (out-of-order
    /// scheduling recovers stalls an in-order pipeline cannot).
    pub pipeline_efficiency: f64,
    /// Fraction of memory-stall cycles hidden by out-of-order execution and
    /// memory-level parallelism.
    pub mem_hide: f64,
    /// Fraction of blocking I/O time overlapped with computation
    /// (deep buffers + aggressive prefetch on the big core; §3.1.1 of the
    /// paper credits Xeon's win on Sort to exactly this).
    pub io_overlap: f64,
    /// Sustained I/O-path throughput in bytes per core cycle: checksums,
    /// kernel copies and (de)serialization. Wide load/store units and
    /// vector checksum code give the big core a large edge — the mechanism
    /// that makes a wimpy core CPU-bound on I/O-heavy work.
    pub copy_bytes_per_cycle: f64,
}

impl CoreModel {
    /// Sustained issue rate for an application with intrinsic ILP `ilp`.
    pub fn issue_ipc(&self, ilp: f64) -> f64 {
        (self.issue_width * self.pipeline_efficiency).min(ilp)
    }

    /// Seconds of CPU time to push `bytes` through the I/O path at
    /// frequency `f`.
    pub fn io_path_seconds(&self, bytes: f64, f: Frequency) -> f64 {
        bytes / (self.copy_bytes_per_cycle * f.hz())
    }
}

/// A complete machine: core, cache hierarchy, DVFS curve, power and area.
///
/// The name and the cache levels are borrowed static data for the
/// [`presets`](crate::presets), so building, cloning or comparing a preset
/// allocates nothing. A custom machine owns what it changes: assign an
/// owned value (`m.name = format!(..).into()`) or edit in place through
/// [`Cow::to_mut`] (`m.cache_levels.to_mut().push(level)`), which copies a
/// borrowed list once.
///
/// # Examples
///
/// ```
/// use hhsim_arch::{presets, ComputeProfile, Frequency};
///
/// let xeon = presets::xeon_e5_2420();
/// let t = xeon.compute_seconds(1e9, &ComputeProfile::spec_average(), Frequency::GHZ_1_8);
/// assert!(t > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Marketing name ("Intel Xeon E5-2420").
    pub name: Cow<'static, str>,
    /// Core pipeline parameters.
    pub core: CoreModel,
    /// Cache hierarchy, innermost first.
    pub cache_levels: Cow<'static, [CacheConfig]>,
    /// DRAM access latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// Voltage/frequency curve for DVFS.
    pub voltage_curve: VoltageCurve,
    /// Chip power model.
    pub power: ChipPowerModel,
    /// Die area in mm² (Atom 160, Xeon 216 — §1.2).
    pub area_mm2: f64,
    /// Cores per chip.
    pub num_cores: usize,
    /// Installed DRAM in GiB (both machines use 8 GB in the paper).
    pub memory_gb: f64,
}

/// Cache levels a [`StallKey`] holds inline: the presets have three and
/// two, so building the key of either for a lookup allocates nothing.
const INLINE_LEVELS: usize = 4;

/// Everything [`MachineModel::stall_split`] reads and nothing it does
/// not, as a hashable value: two (machine, profile) pairs with equal keys
/// have equal splits, whatever they are called.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct StallKey {
    /// The first [`INLINE_LEVELS`] cache levels, innermost first, `None`
    /// past the last.
    levels: [Option<LevelKey>; INLINE_LEVELS],
    /// The levels past those, in order (empty, unallocated, for the
    /// presets).
    deeper: Vec<LevelKey>,
    /// DRAM latency bits.
    mem_latency_ns: u64,
    /// The trace run through the hierarchy.
    trace: TraceKey,
}

/// Everything the synthetic trace of a profile is drawn from, the trace
/// half of a [`StallKey`]: the [`MemoryProfile`](crate::MemoryProfile) —
/// accesses per instruction bits, working set, hot set, hot and streaming
/// fraction bits — and the trace seed, all the simulation reads of the
/// profile's name. Profiles with equal keys draw one trace, which
/// [`StallBatch::run`] draws once for all the machines it runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    mem: [u64; 5],
    seed: u64,
}

impl TraceKey {
    /// The trace `profile` draws.
    pub fn of(profile: &ComputeProfile) -> Self {
        let mem = &profile.mem;
        TraceKey {
            mem: [
                mem.accesses_per_instr.to_bits(),
                mem.working_set_bytes,
                mem.hot_set_bytes,
                mem.hot_fraction.to_bits(),
                mem.streaming_fraction.to_bits(),
            ],
            seed: trace_seed(&profile.name),
        }
    }
}

/// Number of addresses simulated when deriving stall behaviour; large
/// enough to warm the biggest L3 working sets while staying fast.
const TRACE_LEN: usize = 400_000;
/// Addresses discarded as cache warm-up before statistics are kept.
const TRACE_WARMUP: usize = 80_000;

/// Stall simulations of one profile on several machines, from one
/// address trace.
///
/// [`StallBatch::run`] draws the profile's trace once and feeds it, a
/// chunk at a time, to every machine's hierarchy, which runs each chunk a
/// level at a time ([`CacheHierarchy::access_all`]). The batch keeps the
/// hierarchies between runs: a machine that one of them simulates gets it
/// [`reset`](CacheHierarchy::reset) rather than rebuilt, so a worker that
/// runs batch after batch of the same machines allocates their caches
/// once. Drop the batch to release them. [`MachineModel::stall_split`] is
/// a batch of one machine.
///
/// ```
/// use hhsim_arch::{presets, ComputeProfile, StallBatch};
///
/// let [xeon, atom] = presets::both();
/// let hadoop = ComputeProfile::hadoop_average();
/// let mut batch = StallBatch::default();
/// let ran = batch.run(&hadoop, &[&xeon, &atom]);
/// assert_eq!(ran[1].stall_split_per_access(), atom.stall_split(&hadoop));
/// ```
#[derive(Debug, Default)]
pub struct StallBatch {
    /// One hierarchy per machine of the last run, in its order.
    hierarchies: Vec<CacheHierarchy>,
}

impl StallBatch {
    /// Runs `profile`'s trace through a hierarchy of each of `machines`
    /// and returns them, in order, with the statistics of the measured
    /// part of the trace (after the warm-up):
    /// [`CacheHierarchy::stall_split_per_access`] is the machine's
    /// [`MachineModel::stall_split`].
    ///
    /// # Panics
    ///
    /// Panics if the profile fails
    /// [`MemoryProfile::validate`](crate::MemoryProfile::validate) or a
    /// machine's hierarchy cannot be simulated ([`CacheConfig::check`]).
    pub fn run(
        &mut self,
        profile: &ComputeProfile,
        machines: &[&MachineModel],
    ) -> &[CacheHierarchy] {
        let mut gen = TraceGenerator::new(profile.mem, trace_seed(&profile.name));
        let held = &mut self.hierarchies;
        for (i, m) in machines.iter().enumerate() {
            let fits =
                (held[i..].iter()).position(|h| h.simulates(&m.cache_levels, m.mem_latency_ns));
            match fits {
                Some(j) => {
                    held.swap(i, i + j);
                    held[i].reset();
                }
                None => held.insert(i, m.hierarchy()),
            }
        }
        held.truncate(machines.len());
        feed(&mut gen, held, TRACE_WARMUP);
        // Reset statistics but keep contents: measure the warm steady state.
        for h in held.iter_mut() {
            h.reset_stats_keep_contents();
        }
        feed(&mut gen, held, TRACE_LEN - TRACE_WARMUP);
        held
    }
}

/// Feeds the next `n` addresses of `gen` to each of `hierarchies`, in
/// trace order, a chunk at a time.
fn feed(gen: &mut TraceGenerator, hierarchies: &mut [CacheHierarchy], n: usize) {
    let mut chunk = [0u64; CHUNK];
    let mut left = n;
    while left > 0 {
        let addrs = &mut chunk[..left.min(CHUNK)];
        gen.fill(addrs);
        for h in hierarchies.iter_mut() {
            h.access_all(addrs);
        }
        left -= addrs.len();
    }
}

impl MachineModel {
    /// Builds this machine's (empty) cache hierarchy.
    pub fn hierarchy(&self) -> CacheHierarchy {
        CacheHierarchy::new(self.cache_levels.to_vec(), self.mem_latency_ns)
    }

    /// Operating point on this machine's curve at frequency `f`.
    pub fn operating_point(&self, f: Frequency) -> OperatingPoint {
        OperatingPoint::on_curve(self.voltage_curve, f)
    }

    /// Simulates the profile's address trace through this machine's caches
    /// and returns `(on_chip_stall_cycles, dram_stall_ns)` per memory
    /// access, after warm-up. Deterministic for a given profile. A
    /// [`StallBatch`] of this machine alone.
    ///
    /// # Panics
    ///
    /// As [`StallBatch::run`].
    pub fn stall_split(&self, profile: &ComputeProfile) -> (f64, f64) {
        StallBatch::default().run(profile, &[self])[0].stall_split_per_access()
    }

    /// The identity of [`MachineModel::stall_split`]`(profile)` for
    /// memoization. Keep the two in step: a field the simulation starts
    /// to read belongs in [`StallKey`].
    pub fn stall_key(&self, profile: &ComputeProfile) -> StallKey {
        let mut levels = [None; INLINE_LEVELS];
        for (slot, c) in levels.iter_mut().zip(self.cache_levels.iter()) {
            *slot = Some(c.simulated());
        }
        StallKey {
            levels,
            deeper: self
                .cache_levels
                .iter()
                .skip(INLINE_LEVELS)
                .map(CacheConfig::simulated)
                .collect(),
            mem_latency_ns: self.mem_latency_ns.to_bits(),
            trace: TraceKey::of(profile),
        }
    }

    /// Cycles per instruction for `profile` at frequency `f`.
    ///
    /// Uncached: every call replays the 400 k-access trace through
    /// [`MachineModel::stall_split`] (as do [`MachineModel::effective_ipc`]
    /// and [`MachineModel::compute_seconds`], which call this). A loop
    /// over frequencies or derived quantities should take the stall split
    /// once and call [`MachineModel::cpi_with_stalls`]; several machines
    /// on one profile share one trace through a [`StallBatch`].
    pub fn cpi(&self, profile: &ComputeProfile, f: Frequency) -> f64 {
        let (on_chip, dram_ns) = self.stall_split(profile);
        self.cpi_with_stalls(profile, f, on_chip, dram_ns)
    }

    /// CPI given precomputed stall components (lets callers memoize the
    /// trace simulation, which does not depend on frequency).
    pub fn cpi_with_stalls(
        &self,
        profile: &ComputeProfile,
        f: Frequency,
        on_chip_stall_cycles: f64,
        dram_stall_ns: f64,
    ) -> f64 {
        let base = 1.0 / self.core.issue_ipc(profile.ilp);
        let stall_per_access = on_chip_stall_cycles + dram_stall_ns * f.ghz();
        let stall = profile.mem.accesses_per_instr * stall_per_access * (1.0 - self.core.mem_hide);
        base + stall
    }

    /// Effective instructions per cycle for `profile` at `f`. Uncached:
    /// one trace simulation per call, see [`MachineModel::cpi`].
    pub fn effective_ipc(&self, profile: &ComputeProfile, f: Frequency) -> f64 {
        1.0 / self.cpi(profile, f)
    }

    /// Wall-clock seconds to execute `instructions` of `profile` at `f` on
    /// one core. Uncached: one trace simulation per call, see
    /// [`MachineModel::cpi`].
    pub fn compute_seconds(
        &self,
        instructions: f64,
        profile: &ComputeProfile,
        f: Frequency,
    ) -> f64 {
        instructions * self.cpi(profile, f) / f.hz()
    }
}

/// Stable seed derived from the profile name so traces are reproducible
/// but distinct per application.
fn trace_seed(name: &str) -> u64 {
    // FNV-1a, deterministic across platforms (no DefaultHasher instability).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn issue_ipc_respects_both_limits() {
        let big = presets::xeon_e5_2420().core;
        let little = presets::atom_c2758().core;
        // Wide machine, low-ILP code: the code limits.
        assert_eq!(big.issue_ipc(1.0), 1.0);
        // Narrow machine, high-ILP code: the machine limits.
        assert!(little.issue_ipc(3.0) < 2.0);
        assert!(big.issue_ipc(3.0) > little.issue_ipc(3.0));
    }

    #[test]
    fn fig1_ipc_relationships_hold() {
        let xeon = presets::xeon_e5_2420();
        let atom = presets::atom_c2758();
        let spec = ComputeProfile::spec_average();
        let hadoop = ComputeProfile::hadoop_average();
        let f = Frequency::GHZ_1_8;

        let x_spec = xeon.effective_ipc(&spec, f);
        let x_had = xeon.effective_ipc(&hadoop, f);
        let a_spec = atom.effective_ipc(&spec, f);
        let a_had = atom.effective_ipc(&hadoop, f);

        // Hadoop IPC is much lower than traditional on both machines, and
        // the drop is bigger on the big core (paper: 2.16x vs 1.55x).
        assert!(
            x_spec / x_had > 1.6,
            "xeon spec/hadoop = {}",
            x_spec / x_had
        );
        assert!(
            a_spec / a_had > 1.2,
            "atom spec/hadoop = {}",
            a_spec / a_had
        );
        assert!(
            x_spec / x_had > a_spec / a_had,
            "IPC drop must be larger on the big core"
        );
        // Big sustains higher IPC than little on Hadoop (paper: 1.43x).
        let ratio = x_had / a_had;
        assert!(
            (1.25..=1.75).contains(&ratio),
            "xeon/atom hadoop IPC ratio {ratio} out of band"
        );
    }

    #[test]
    fn stall_split_is_deterministic() {
        let xeon = presets::xeon_e5_2420();
        let p = ComputeProfile::hadoop_average();
        assert_eq!(xeon.stall_split(&p), xeon.stall_split(&p));
    }

    #[test]
    fn stall_key_follows_the_inputs_not_the_names() {
        let atom = presets::atom_c2758();
        let p = ComputeProfile::hadoop_average();
        let key = atom.stall_key(&p);
        assert_eq!(key, presets::atom_c2758().stall_key(&p));
        assert_ne!(key, presets::xeon_e5_2420().stall_key(&p));

        let mut renamed = atom.clone();
        renamed.name = "relabelled".into();
        renamed.num_cores = 2;
        assert_eq!(key, renamed.stall_key(&p), "neither is read");

        let mut edited = atom.clone();
        edited.cache_levels.to_mut()[1].latency_cycles += 1.0;
        assert_ne!(key, edited.stall_key(&p));
        let mut slower_dram = atom.clone();
        slower_dram.mem_latency_ns += 1.0;
        assert_ne!(key, slower_dram.stall_key(&p));

        let mut streaming = p.clone();
        streaming.mem.streaming_fraction += 0.01;
        assert_ne!(key, atom.stall_key(&streaming));
        let mut reseeded = p.clone();
        reseeded.name.to_mut().push('2');
        assert_ne!(key, atom.stall_key(&reseeded), "the name seeds the trace");
        assert_eq!(key.trace, TraceKey::of(&p));
        assert_ne!(TraceKey::of(&p), TraceKey::of(&reseeded));

        // Levels past the inline ones are read as well.
        let mut deep = atom.clone();
        for size in [8, 16, 32, 64] {
            let level = CacheConfig::new("L", size << 20, 16, 64, 40.0);
            deep.cache_levels.to_mut().push(level);
        }
        let mut deeper = deep.clone();
        assert_eq!(deep.stall_key(&p), deeper.stall_key(&p));
        deeper.cache_levels.to_mut()[5].latency_cycles += 1.0;
        assert_ne!(deep.stall_key(&p), deeper.stall_key(&p));
        deeper.cache_levels.to_mut().pop();
        assert_ne!(deep.stall_key(&p), deeper.stall_key(&p));
    }

    #[test]
    fn batch_equals_one_machine_at_a_time() {
        let profiles = [
            ComputeProfile::hadoop_average(),
            ComputeProfile::spec_average(),
        ];
        let bits = |(on_chip, dram_ns): (f64, f64)| (on_chip.to_bits(), dram_ns.to_bits());
        // One batch for every run: its hierarchies are reset when a run's
        // machines fit them, in whichever order, and rebuilt when not — a
        // machine of equal geometry and other latencies included.
        let mut batch = StallBatch::default();
        let [xeon, atom] = presets::both();
        let mut slower = atom.clone();
        slower.mem_latency_ns *= 1.05;
        slower.cache_levels.to_mut()[1].latency_cycles *= 1.05;
        let machines = [&xeon, &atom, &slower];
        for p in &profiles {
            // A fresh hierarchy per machine, one trace each.
            let alone = machines.map(|m| {
                let mut h = m.hierarchy();
                let mut gen = TraceGenerator::new(p.mem, trace_seed(&p.name));
                for _ in 0..TRACE_WARMUP {
                    h.access(gen.next_address());
                }
                h.reset_stats_keep_contents();
                for _ in 0..(TRACE_LEN - TRACE_WARMUP) {
                    h.access(gen.next_address());
                }
                (h.stats(), bits(h.stall_split_per_access()))
            });
            for (m, (_, split)) in machines.iter().zip(&alone) {
                assert_eq!(bits(m.stall_split(p)), *split, "{}", p.name);
            }
            for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
                let ran = batch.run(p, &order.map(|i| machines[i]));
                for (h, i) in ran.iter().zip(order) {
                    let split = bits(h.stall_split_per_access());
                    assert_eq!((h.stats(), split), alone[i], "{order:?}");
                }
            }
            assert_ne!(alone[1].1, alone[2].1, "latencies price the split");
            assert_eq!(batch.run(p, &[&atom]).len(), 1);
        }
        assert!(batch.run(&profiles[0], &[]).is_empty());
        assert!(
            batch.hierarchies.is_empty(),
            "a run keeps its own machines only"
        );
    }

    #[test]
    fn cpi_grows_with_frequency_for_memory_bound_code() {
        // DRAM latency is fixed in ns, so cycles-per-instruction worsens at
        // higher clocks (memory wall).
        let atom = presets::atom_c2758();
        let hadoop = ComputeProfile::hadoop_average();
        let lo = atom.cpi(&hadoop, Frequency::GHZ_1_2);
        let hi = atom.cpi(&hadoop, Frequency::GHZ_1_8);
        assert!(hi > lo);
    }

    #[test]
    fn compute_time_scales_inversely_with_frequency_sublinearly() {
        let xeon = presets::xeon_e5_2420();
        let hadoop = ComputeProfile::hadoop_average();
        let t_lo = xeon.compute_seconds(1e9, &hadoop, Frequency::GHZ_1_2);
        let t_hi = xeon.compute_seconds(1e9, &hadoop, Frequency::GHZ_1_8);
        assert!(t_hi < t_lo, "higher frequency must be faster");
        let speedup = t_lo / t_hi;
        assert!(
            speedup < 1.5,
            "memory wall must keep speedup below the 1.5x clock ratio, got {speedup}"
        );
    }

    #[test]
    fn trace_seed_is_stable() {
        assert_eq!(trace_seed("WordCount"), trace_seed("WordCount"));
        assert_ne!(trace_seed("WordCount"), trace_seed("Sort"));
    }
}
