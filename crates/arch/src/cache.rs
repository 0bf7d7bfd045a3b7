//! Functional set-associative cache hierarchy simulator.
//!
//! The hierarchy is write-allocate and not inclusive: no level
//! back-invalidates another, so each level fills on its own misses and its
//! state is a function of the addresses that missed every level before it,
//! in order. Each level is a set-associative array under true LRU
//! replacement. It is driven by byte addresses (from
//! [`crate::trace::TraceGenerator`] or any other source) and accumulates
//! per-level hit/miss statistics, from which misses-per-kilo-instruction and
//! average stall latencies are derived for the analytical core model.
//!
//! One kernel serves every level: one loop over a run of addresses,
//! generic over the way count and picked per level in [`Cache::new`], which
//! keeps the addresses that missed; [`Cache::access`] runs it on a run of
//! one. [`CacheHierarchy::access_all`] runs a chunk of addresses one
//! level at a time: level 0 takes the whole chunk, the next level its
//! misses, and so on down to DRAM. A set holds its tags in recency order,
//! so a level stores nothing but tags. The kernel table
//! holds one instance per way count, so a set is at most [`MAX_WAYS`] ways
//! wide, and a level at most [`MAX_LINES`] lines large;
//! [`CacheConfig::check`] is that contract.

use std::borrow::Cow;

/// The widest set a [`Cache`] simulates: its kernel table holds one
/// instance per way count, up to this one.
pub const MAX_WAYS: usize = 32;

/// The most lines a [`Cache`] holds. A line costs 8 B of tag, so this is
/// 32 MiB of simulator state: a 256 MiB level of 64-byte lines (the
/// presets' largest, the Xeon's 15 MB L3, is 245 760 lines).
pub const MAX_LINES: usize = 1 << 22;

/// Addresses [`CacheHierarchy::access_all`] takes through the levels at a
/// time, and [`crate::StallBatch`] draws from its trace at a time (4 KiB on
/// the stack).
pub(crate) const CHUNK: usize = 512;

/// Geometry and timing of one cache level.
///
/// # Examples
///
/// ```
/// use hhsim_arch::CacheConfig;
///
/// let l1 = CacheConfig::new("L1d", 32 * 1024, 8, 64, 1.0);
/// assert_eq!(l1.num_sets(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Human-readable level name ("L1d", "L2", "L3"): borrowed for the
    /// presets' static levels, owned for a level built from a `String`.
    pub name: Cow<'static, str>,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Access latency of *this* level in core cycles (cost paid when the
    /// previous level misses and this one hits). On-chip latencies are
    /// cycle-based so they scale with DVFS; only DRAM is wall-clock.
    pub latency_cycles: f64,
}

impl CacheConfig {
    /// Creates a level configuration.
    ///
    /// # Panics
    ///
    /// Panics with the reason [`CacheConfig::check`] gives if a [`Cache`]
    /// cannot simulate the level.
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        size_bytes: usize,
        associativity: usize,
        line_bytes: usize,
        latency_cycles: f64,
    ) -> Self {
        let config = CacheConfig {
            name: name.into(),
            size_bytes,
            associativity,
            line_bytes,
            latency_cycles,
        };
        if let Err(why) = config.check() {
            panic!("{}: {why}", config.name);
        }
        config
    }

    /// Whether a [`Cache`] can simulate this level, or why not: the size
    /// must be a whole number of sets of at most [`MAX_WAYS`] ways, the
    /// line size a power of two of at least 2 bytes (so every tag is below
    /// 2⁶³ and none is `u64::MAX`, the empty-way marker), the level at most
    /// [`MAX_LINES`] lines and its latency finite and non-negative.
    ///
    /// # Errors
    ///
    /// The first of those the level breaks.
    pub fn check(&self) -> Result<(), &'static str> {
        let set_bytes = self.associativity.checked_mul(self.line_bytes);
        if self.size_bytes == 0 {
            Err("size must be positive")
        } else if !(1..=MAX_WAYS).contains(&self.associativity) {
            Err("associativity must be 1 to MAX_WAYS (32) ways")
        } else if !self.line_bytes.is_power_of_two() {
            Err("line size must be a power of two")
        } else if self.line_bytes < 2 {
            Err("line size must be at least 2 bytes")
        } else if set_bytes.map_or(true, |b| self.size_bytes % b != 0) {
            Err("size must be divisible by associativity * line size")
        } else if self.size_bytes / self.line_bytes > MAX_LINES {
            Err("size must be at most MAX_LINES lines")
        } else if !(self.latency_cycles.is_finite() && self.latency_cycles >= 0.0) {
            Err("latency must be finite and non-negative")
        } else {
            Ok(())
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.associativity * self.line_bytes)
    }

    /// The level as the simulation reads it, whatever it is called: what a
    /// reused hierarchy ([`CacheHierarchy::simulates`]) and the stall memo's
    /// key both compare.
    pub(crate) fn simulated(&self) -> LevelKey {
        (
            self.size_bytes,
            self.associativity,
            self.line_bytes,
            self.latency_cycles.to_bits(),
        )
    }
}

/// Size, associativity, line bytes and latency bits.
pub(crate) type LevelKey = (usize, usize, usize, u64);

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that reached this level.
    pub accesses: u64,
    /// Accesses satisfied at this level.
    pub hits: u64,
}

impl LevelStats {
    /// Accesses this level could not satisfy.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Local miss ratio (misses / accesses to this level); 0 when idle.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// The kernel of one way count `W`, `Cache::misses_ways::<W>`: what
/// [`Cache::misses`] runs.
type Kernel = fn(&mut Cache, &mut [u64]) -> usize;

macro_rules! kernels {
    ($($ways:literal)*) => {
        /// The kernel of each associativity `W`, at index `W - 1`.
        const KERNELS: [Kernel; MAX_WAYS] = [$(Cache::misses_ways::<$ways>),*];
    };
}

kernels!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);

/// Where a level keeps a line, derived once in [`Cache::new`] so the
/// kernel does no division on the (usual) power-of-two set counts: `log2`
/// of the line size, the set count, and `log2` of the set count when it is
/// a power of two.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    line_shift: u32,
    num_sets: u64,
    set_shift: Option<u32>,
}

impl Geometry {
    /// The set and tag of `addr`.
    #[inline(always)]
    fn locate(self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let (set, tag) = match self.set_shift {
            Some(shift) => (line & (self.num_sets - 1), line >> shift),
            None => (line % self.num_sets, line / self.num_sets),
        };
        (set as usize, tag)
    }
}

/// The kernel's one body: looks `addr` up in the level's `tags` and
/// updates its set as LRU does; returns whether it hit. A set's tags are
/// read as `[u64; W]` in recency order, so the position of a hit is its
/// stack distance. A hit in front changes nothing. Otherwise the tag goes
/// in front and one pass carries each tag after it one way back until it
/// reaches the hit; on a miss it carries the whole set, so the last tag
/// drops out.
///
/// Empty ways start at the back of a set, so they fill before any valid
/// line is evicted.
#[inline(always)]
fn lookup<const W: usize>(tags: &mut [u64], at: Geometry, addr: u64) -> bool {
    let (set, tag) = at.locate(addr);
    let base = set * W;
    let ways: &mut [u64; W] = (&mut tags[base..base + W]).try_into().expect("W ways");
    let mut carry = ways[0];
    if carry == tag {
        return true;
    }
    ways[0] = tag;
    for way in &mut ways[1..] {
        let t = std::mem::replace(way, carry);
        if t == tag {
            return true;
        }
        carry = t;
    }
    false
}

/// One set-associative cache level under LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// The kernel of this level's associativity, picked in [`Cache::new`].
    kernel: Kernel,
    /// `tags[set][way]`; `u64::MAX` marks an empty way. A set is in
    /// recency order, the most recently used tag first and the empty ways
    /// last.
    tags: Vec<u64>,
    stats: LevelStats,
    at: Geometry,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics with the reason [`CacheConfig::check`] gives if the geometry
    /// cannot be simulated.
    pub fn new(config: CacheConfig) -> Self {
        if let Err(why) = config.check() {
            panic!("cannot simulate {}: {why}", config.name);
        }
        let num_sets = config.num_sets();
        Cache {
            kernel: KERNELS[config.associativity - 1],
            tags: vec![u64::MAX; num_sets * config.associativity],
            stats: LevelStats::default(),
            at: Geometry {
                line_shift: config.line_bytes.trailing_zeros(),
                num_sets: num_sets as u64,
                set_shift: num_sets
                    .is_power_of_two()
                    .then(|| num_sets.trailing_zeros()),
            },
            config,
        }
    }

    /// Geometry of this level.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    /// Returns `true` on hit.
    pub fn access(&mut self, mut addr: u64) -> bool {
        self.misses(std::slice::from_mut(&mut addr)) == 0
    }

    /// Accesses `addrs` in order, as [`Cache::access`] on each would, and
    /// moves the ones that missed, in order, to the front of `addrs`.
    /// Returns how many missed.
    fn misses(&mut self, addrs: &mut [u64]) -> usize {
        (self.kernel)(self, addrs)
    }

    /// [`Cache::misses`] on sets of `W` ways: one loop over the run, with
    /// the counters in locals, written back once.
    fn misses_ways<const W: usize>(&mut self, addrs: &mut [u64]) -> usize {
        let at = self.at;
        let mut missed = 0;
        for i in 0..addrs.len() {
            let addr = addrs[i];
            if !lookup::<W>(&mut self.tags, at, addr) {
                addrs[missed] = addr;
                missed += 1;
            }
        }
        let n = addrs.len() as u64;
        self.stats.accesses += n;
        self.stats.hits += n - missed as u64;
        missed
    }

    /// Invalidates all lines and zeroes the statistics.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stats = LevelStats::default();
    }
}

/// Per-level and memory statistics of a hierarchy run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierarchyStats {
    /// Statistics per level, outermost last, under the level's name.
    pub levels: Vec<(Cow<'static, str>, LevelStats)>,
    /// Accesses that fell through every level to DRAM.
    pub memory_accesses: u64,
    /// Total accesses presented to the hierarchy.
    pub total_accesses: u64,
}

impl HierarchyStats {
    /// Misses per access at the given level index (0 when the level saw no
    /// traffic).
    pub fn miss_ratio(&self, level: usize) -> f64 {
        self.levels
            .get(level)
            .map(|(_, s)| s.miss_ratio())
            .unwrap_or(0.0)
    }
}

/// A multi-level cache hierarchy backed by DRAM. No level back-invalidates
/// another: each fills on its own misses, so a level sees exactly the
/// addresses every level before it missed, in order, which is what lets
/// [`CacheHierarchy::access_all`] run a chunk one level at a time.
///
/// # Examples
///
/// ```
/// use hhsim_arch::{CacheConfig, CacheHierarchy};
///
/// let mut h = CacheHierarchy::new(
///     vec![
///         CacheConfig::new("L1d", 32 * 1024, 8, 64, 4.0),
///         CacheConfig::new("L2", 256 * 1024, 8, 64, 12.0),
///     ],
///     80.0,
/// );
/// // A tiny loop fits in L1: after warm-up everything hits.
/// for _ in 0..4 {
///     for addr in (0..4096u64).step_by(64) {
///         h.access(addr);
///     }
/// }
/// let stats = h.stats();
/// assert!(stats.levels[0].1.miss_ratio() < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    levels: Vec<Cache>,
    mem_latency_ns: f64,
    memory_accesses: u64,
    total_accesses: u64,
}

impl CacheHierarchy {
    /// Builds a hierarchy from innermost to outermost level.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or the memory latency is not positive.
    pub fn new(levels: Vec<CacheConfig>, mem_latency_ns: f64) -> Self {
        assert!(!levels.is_empty(), "hierarchy needs at least one level");
        assert!(mem_latency_ns > 0.0);
        CacheHierarchy {
            levels: levels.into_iter().map(Cache::new).collect(),
            mem_latency_ns,
            memory_accesses: 0,
            total_accesses: 0,
        }
    }

    /// DRAM access latency used beyond the last level.
    pub fn mem_latency_ns(&self) -> f64 {
        self.mem_latency_ns
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Performs one access; returns the index of the level that hit
    /// (`None` = DRAM).
    pub fn access(&mut self, addr: u64) -> Option<usize> {
        self.total_accesses += 1;
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.access(addr) {
                return Some(i);
            }
        }
        self.memory_accesses += 1;
        None
    }

    /// Performs `addrs` in order, with the statistics of as many
    /// [`CacheHierarchy::access`] calls, a chunk at a time: level 0 takes
    /// the whole chunk and keeps its misses, in order, which the next level
    /// takes, and so on; what the last level misses goes to DRAM.
    pub fn access_all(&mut self, addrs: &[u64]) {
        let mut buf = [0u64; CHUNK];
        for chunk in addrs.chunks(CHUNK) {
            let mut missed = &mut buf[..chunk.len()];
            missed.copy_from_slice(chunk);
            for level in &mut self.levels {
                let n = level.misses(missed);
                missed = &mut missed[..n];
            }
            self.memory_accesses += missed.len() as u64;
        }
        self.total_accesses += addrs.len() as u64;
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            levels: self
                .levels
                .iter()
                .map(|c| (c.config().name.clone(), c.stats()))
                .collect(),
            memory_accesses: self.memory_accesses,
            total_accesses: self.total_accesses,
        }
    }

    /// Average stall *cycles* per access at core frequency `freq_ghz`:
    /// every access that missed level `i` pays level `i+1`'s cycle latency;
    /// full misses pay DRAM latency converted from nanoseconds to cycles
    /// (so memory looks relatively slower at higher clocks).
    pub fn stall_cycles_per_access(&self, freq_ghz: f64) -> f64 {
        assert!(freq_ghz > 0.0);
        if self.total_accesses == 0 {
            return 0.0;
        }
        let mut cycles = 0.0;
        for i in 0..self.levels.len() {
            let misses = self.levels[i].stats().misses() as f64;
            let next_latency = if i + 1 < self.levels.len() {
                self.levels[i + 1].config().latency_cycles
            } else {
                self.mem_latency_ns * freq_ghz
            };
            cycles += misses * next_latency;
        }
        cycles / self.total_accesses as f64
    }

    /// Like [`Self::stall_cycles_per_access`] but split into the on-chip
    /// (frequency-scaling) and DRAM (wall-clock) components, returned as
    /// `(on_chip_cycles, dram_ns)` per access.
    pub fn stall_split_per_access(&self) -> (f64, f64) {
        if self.total_accesses == 0 {
            return (0.0, 0.0);
        }
        let mut on_chip = 0.0;
        let mut dram_ns = 0.0;
        for i in 0..self.levels.len() {
            let misses = self.levels[i].stats().misses() as f64;
            if i + 1 < self.levels.len() {
                on_chip += misses * self.levels[i + 1].config().latency_cycles;
            } else {
                dram_ns += misses * self.mem_latency_ns;
            }
        }
        let n = self.total_accesses as f64;
        (on_chip / n, dram_ns / n)
    }

    /// Whether this hierarchy simulates `levels` over a DRAM latency of
    /// `mem_latency_ns`: the same number of levels, equal level by level
    /// as [`CacheConfig::simulated`] reads them.
    pub(crate) fn simulates(&self, levels: &[CacheConfig], mem_latency_ns: f64) -> bool {
        self.mem_latency_ns.to_bits() == mem_latency_ns.to_bits()
            && self.levels.len() == levels.len()
            && (self.levels.iter())
                .zip(levels)
                .all(|(have, want)| have.config().simulated() == want.simulated())
    }

    /// Invalidates everything and zeroes statistics.
    pub fn reset(&mut self) {
        for l in &mut self.levels {
            l.reset();
        }
        self.memory_accesses = 0;
        self.total_accesses = 0;
    }

    /// Zeroes statistics while keeping cache contents, so measurement can
    /// start from a warm state.
    pub fn reset_stats_keep_contents(&mut self) {
        for l in &mut self.levels {
            l.stats = LevelStats::default();
        }
        self.memory_accesses = 0;
        self.total_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(CacheConfig::new("t", 512, 2, 64, 1.0))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new("L2", 1024 * 1024, 16, 64, 3.0);
        assert_eq!(c.num_sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        let _ = CacheConfig::new("bad", 512, 2, 48, 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot simulate wide: associativity must be 1 to MAX_WAYS")]
    fn rejects_a_set_one_way_wider_than_the_mask() {
        let ways = MAX_WAYS + 1;
        let _ = Cache::new(CacheConfig {
            name: "wide".into(),
            size_bytes: 4 * ways * 64,
            associativity: ways,
            line_bytes: 64,
            latency_cycles: 1.0,
        });
    }

    #[test]
    fn check_names_what_cannot_be_simulated() {
        let good = CacheConfig::new("L1d", 32 * 1024, 8, 64, 4.0);
        assert_eq!(good.check(), Ok(()));
        let broken = |edit: fn(&mut CacheConfig)| {
            let mut c = good.clone();
            edit(&mut c);
            c.check().expect_err("a broken level")
        };
        assert!(broken(|c| c.size_bytes = 0).contains("positive"));
        assert!(broken(|c| c.associativity = 0).contains("associativity"));
        assert!(broken(|c| c.associativity = MAX_WAYS + 1).contains("associativity"));
        assert!(broken(|c| c.line_bytes = 48).contains("power of two"));
        assert!(broken(|c| c.line_bytes = 0).contains("power of two"));
        assert!(broken(|c| c.line_bytes = 1).contains("at least 2 bytes"));
        assert!(broken(|c| c.size_bytes = 1000).contains("divisible"));
        assert!(broken(|c| c.line_bytes = 1 << 62).contains("divisible"));
        assert!(broken(|c| c.size_bytes = (MAX_LINES + 8) * 64).contains("MAX_LINES"));
        assert!(broken(|c| c.latency_cycles = f64::NAN).contains("latency"));
        assert!(broken(|c| c.latency_cycles = -1.0).contains("latency"));
        let mut widest = good.clone();
        (widest.associativity, widest.size_bytes) = (MAX_WAYS, MAX_LINES * 64);
        assert_eq!(widest.check(), Ok(()), "both limits are inclusive");
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn a_cold_access_never_hits() {
        // An all-ones tag is the empty-way marker: with 1-byte lines and
        // one set the tag would be the address, and a cold cache would read
        // `u64::MAX` as a hit. Lines of at least 2 bytes keep every tag
        // below 2^63, at any geometry.
        for (size, ways, line) in [(8, 4, 2), (64, 1, 2), (512, 2, 64), (4096, 32, 128)] {
            let mut c = Cache::new(CacheConfig::new("x", size, ways, line, 1.0));
            for addr in [u64::MAX, u64::MAX - 1, 1 << 63, 0] {
                assert!(!c.access(addr), "{size}/{ways}/{line}: {addr:#x}");
                c.reset();
            }
            assert_eq!(c.stats().hits, 0);
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines whose line-index % 4 == 0: addresses 0, 256, 512...
        assert!(!c.access(0)); // way A <- tag 0
        assert!(!c.access(256)); // way B <- tag 1
        assert!(c.access(0)); // touch tag 0 (tag 1 now LRU)
        assert!(!c.access(512)); // evicts tag 1
        assert!(c.access(0)); // still resident
        assert!(!c.access(256)); // was evicted
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(0), "line gone after reset");
    }

    /// The stamp-based level the recency-ordered kernel replaced, kept as
    /// its oracle: geometry recomputed per call, physical ways, an 8-byte
    /// stamp per line (larger = more recently used), and one scan that
    /// exits at the hit. The victim is the first way holding the smallest
    /// stamp, so an empty way (stamp 0) fills before any valid line is
    /// evicted.
    struct ReferenceCache {
        config: CacheConfig,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        stats: LevelStats,
    }

    impl ReferenceCache {
        fn new(config: CacheConfig) -> Self {
            let slots = config.num_sets() * config.associativity;
            ReferenceCache {
                config,
                tags: vec![u64::MAX; slots],
                stamps: vec![0; slots],
                clock: 0,
                stats: LevelStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            self.stats.accesses += 1;
            let line = addr / self.config.line_bytes as u64;
            let num_sets = self.config.num_sets() as u64;
            let set = (line % num_sets) as usize;
            let tag = line / num_sets;
            let ways = self.config.associativity;
            let base = set * ways;

            let mut victim = base;
            let mut victim_stamp = u64::MAX;
            for slot in base..base + ways {
                if self.tags[slot] == tag {
                    self.stamps[slot] = self.clock;
                    self.stats.hits += 1;
                    return true;
                }
                if self.stamps[slot] < victim_stamp {
                    victim_stamp = self.stamps[slot];
                    victim = slot;
                }
            }
            self.tags[victim] = tag;
            self.stamps[victim] = self.clock;
            false
        }

        /// The tags as [`Cache`] must hold them: each set's tags by
        /// descending stamp, the empty ways (stamp 0) last.
        fn kernel_tags(&self) -> Vec<u64> {
            let ways = self.config.associativity;
            let mut by_recency = Vec::with_capacity(self.tags.len());
            for (tags, stamps) in self.tags.chunks(ways).zip(self.stamps.chunks(ways)) {
                let mut set: Vec<(u64, u64)> =
                    stamps.iter().copied().zip(tags.iter().copied()).collect();
                set.sort_by_key(|&(stamp, _)| std::cmp::Reverse(stamp));
                by_recency.extend(set.into_iter().map(|(_, tag)| tag));
            }
            by_recency
        }
    }

    /// A [`CacheHierarchy`] of reference levels.
    struct ReferenceHierarchy {
        levels: Vec<ReferenceCache>,
        memory_accesses: u64,
        total_accesses: u64,
    }

    impl ReferenceHierarchy {
        fn new(levels: Vec<CacheConfig>) -> Self {
            ReferenceHierarchy {
                levels: levels.into_iter().map(ReferenceCache::new).collect(),
                memory_accesses: 0,
                total_accesses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> Option<usize> {
            self.total_accesses += 1;
            for (i, level) in self.levels.iter_mut().enumerate() {
                if level.access(addr) {
                    return Some(i);
                }
            }
            self.memory_accesses += 1;
            None
        }

        fn stats(&self) -> HierarchyStats {
            HierarchyStats {
                levels: (self.levels.iter())
                    .map(|c| (c.config.name.clone(), c.stats))
                    .collect(),
                memory_accesses: self.memory_accesses,
                total_accesses: self.total_accesses,
            }
        }
    }

    #[test]
    fn kernel_matches_reference_access_for_access() {
        use crate::profile::ComputeProfile;
        use crate::trace::TraceGenerator;

        const ACCESSES: usize = 120_000;
        // Power-of-two sets (64), the Xeon L3's 12 288 sets, and the
        // Atom's 6-way L1 (64 sets, non-power-of-two ways); then the
        // kernel table's edges: direct-mapped, 2 ways, 3 ways over 96
        // sets, 12 ways, and the widest set the table holds.
        let geometries = [
            ("L1d", 32 * 1024, 8),
            ("L3", 15 * 1024 * 1024, 20),
            ("L1d6", 24 * 1024, 6),
            ("direct", 32 * 1024, 1),
            ("2-way", 16 * 1024, 2),
            ("3-way", 18 * 1024, 3),
            ("12-way", 48 * 1024, 12),
            ("widest", 64 * 1024, MAX_WAYS),
        ];
        let profiles = [
            ComputeProfile::hadoop_average(),
            ComputeProfile::spec_average(),
        ];
        for (name, size, ways) in geometries {
            for (seed, profile) in profiles.iter().enumerate() {
                let cfg = CacheConfig::new(name, size, ways, 64, 1.0);
                let mut fast = Cache::new(cfg.clone());
                let mut slow = ReferenceCache::new(cfg);
                let mut gen = TraceGenerator::new(profile.mem, seed as u64 + 7);
                for i in 0..ACCESSES {
                    let addr = gen.next_address();
                    assert_eq!(
                        fast.access(addr),
                        slow.access(addr),
                        "{name} {} access {i} (addr {addr:#x})",
                        profile.name
                    );
                }
                assert_eq!(fast.stats(), slow.stats);
                assert_eq!(
                    fast.tags,
                    slow.kernel_tags(),
                    "{name}: same residents, in recency order"
                );
            }
        }
        // Whole hierarchies, so fills at one level see the misses of the
        // level before: both presets.
        for machine in crate::presets::both() {
            let levels = machine.cache_levels.to_vec();
            let mut fast = CacheHierarchy::new(levels.clone(), machine.mem_latency_ns);
            let mut slow = ReferenceHierarchy::new(levels);
            let mut gen = TraceGenerator::new(profiles[0].mem, 11);
            for i in 0..ACCESSES {
                let addr = gen.next_address();
                assert_eq!(
                    fast.access(addr),
                    slow.access(addr),
                    "{} access {i}",
                    machine.name
                );
            }
            assert_eq!(fast.stats(), slow.stats());
            for (have, want) in fast.levels.iter().zip(&slow.levels) {
                assert_eq!(have.tags, want.kernel_tags(), "{}", machine.name);
            }
        }
    }

    #[test]
    fn chunks_of_any_length_equal_one_address_at_a_time() {
        use crate::profile::ComputeProfile;
        use crate::trace::TraceGenerator;

        const ACCESSES: usize = 60_000;
        let mut trace = vec![0; ACCESSES];
        TraceGenerator::new(ComputeProfile::hadoop_average().mem, 5).fill(&mut trace);
        let bits = |(on_chip, dram_ns): (f64, f64)| (on_chip.to_bits(), dram_ns.to_bits());
        for machine in crate::presets::both() {
            let mut one_at_a_time = machine.hierarchy();
            for &addr in &trace {
                one_at_a_time.access(addr);
            }
            for chunk in [1, 7, CHUNK, CHUNK + 1] {
                let mut chunked = machine.hierarchy();
                for addrs in trace.chunks(chunk) {
                    chunked.access_all(addrs);
                }
                let what = format!("{} in chunks of {chunk}", machine.name);
                assert_eq!(chunked.stats(), one_at_a_time.stats(), "{what}");
                assert_eq!(
                    bits(chunked.stall_split_per_access()),
                    bits(one_at_a_time.stall_split_per_access()),
                    "{what}"
                );
                for (a, b) in chunked.levels.iter().zip(&one_at_a_time.levels) {
                    assert_eq!(a.tags, b.tags, "{what}");
                }
            }
        }
    }

    #[test]
    fn working_set_fitting_l1_hits_after_warmup() {
        let mut h = CacheHierarchy::new(
            vec![
                CacheConfig::new("L1", 32 * 1024, 8, 64, 1.0),
                CacheConfig::new("L2", 256 * 1024, 8, 64, 4.0),
            ],
            80.0,
        );
        for round in 0..3 {
            for addr in (0..16 * 1024u64).step_by(64) {
                let hit = h.access(addr);
                if round > 0 {
                    assert_eq!(hit, Some(0), "warm L1 must hit");
                }
            }
        }
    }

    #[test]
    fn oversized_working_set_spills_to_next_level() {
        let mut h = CacheHierarchy::new(
            vec![
                CacheConfig::new("L1", 4 * 1024, 4, 64, 1.0),
                CacheConfig::new("L2", 64 * 1024, 8, 64, 4.0),
            ],
            80.0,
        );
        // 32 KiB working set: misses L1 (4 KiB) but fits L2 after warm-up.
        for _ in 0..6 {
            for addr in (0..32 * 1024u64).step_by(64) {
                h.access(addr);
            }
        }
        let s = h.stats();
        assert!(s.levels[0].1.miss_ratio() > 0.9, "L1 thrashes");
        assert!(s.levels[1].1.miss_ratio() < 0.3, "L2 absorbs");
        assert!(s.memory_accesses < s.total_accesses / 4);
    }

    #[test]
    fn stall_cycles_account_each_level() {
        let mut h = CacheHierarchy::new(
            vec![
                CacheConfig::new("L1", 512, 2, 64, 2.0),
                CacheConfig::new("L2", 4096, 4, 64, 10.0),
            ],
            100.0,
        );
        // One cold access misses both levels: pays L2 (10 cyc) plus DRAM
        // (100 ns = 100 cycles at 1 GHz).
        h.access(0);
        assert!((h.stall_cycles_per_access(1.0) - 110.0).abs() < 1e-9);
        // At 2 GHz the DRAM part doubles in cycles.
        assert!((h.stall_cycles_per_access(2.0) - 210.0).abs() < 1e-9);
        // Hit in L1 on repeat halves the average.
        h.access(0);
        assert!((h.stall_cycles_per_access(1.0) - 55.0).abs() < 1e-9);
        let (on_chip, dram) = h.stall_split_per_access();
        assert!((on_chip - 5.0).abs() < 1e-9);
        assert!((dram - 50.0).abs() < 1e-9);
    }

    #[test]
    fn deeper_hierarchy_reduces_memory_traffic() {
        let two = {
            let mut h = CacheHierarchy::new(
                vec![
                    CacheConfig::new("L1", 8 * 1024, 8, 64, 1.0),
                    CacheConfig::new("L2", 128 * 1024, 8, 64, 4.0),
                ],
                90.0,
            );
            for _ in 0..3 {
                for addr in (0..512 * 1024u64).step_by(64) {
                    h.access(addr);
                }
            }
            h.stats().memory_accesses
        };
        let three = {
            let mut h = CacheHierarchy::new(
                vec![
                    CacheConfig::new("L1", 8 * 1024, 8, 64, 1.0),
                    CacheConfig::new("L2", 128 * 1024, 8, 64, 4.0),
                    CacheConfig::new("L3", 4 * 1024 * 1024, 16, 64, 12.0),
                ],
                90.0,
            );
            for _ in 0..3 {
                for addr in (0..512 * 1024u64).step_by(64) {
                    h.access(addr);
                }
            }
            h.stats().memory_accesses
        };
        assert!(
            three < two,
            "an L3 big enough for the working set must cut DRAM accesses ({three} vs {two})"
        );
    }
}
