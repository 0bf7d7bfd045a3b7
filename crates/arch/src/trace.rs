//! Deterministic synthetic address-trace generation.
//!
//! Rather than hardcoding miss rates, `hhsim` *simulates* them: a
//! [`TraceGenerator`] turns a [`MemoryProfile`] into a reproducible address
//! stream (streaming scans + hot-set reuse + random working-set accesses)
//! which is then run through the [`crate::CacheHierarchy`] of each machine.
//! This is how the IPC gap of Fig. 1 emerges from first principles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::MemoryProfile;

/// Streaming/random/hot address generator over a profile.
///
/// # Examples
///
/// ```
/// use hhsim_arch::{ComputeProfile, TraceGenerator};
///
/// let profile = ComputeProfile::spec_average();
/// let mut gen = TraceGenerator::new(profile.mem, 42);
/// let addrs: Vec<u64> = (0..1000).map(|_| gen.next_address()).collect();
/// assert!(addrs.iter().all(|&a| a < profile.mem.working_set_bytes));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: MemoryProfile,
    rng: StdRng,
    stream_pos: u64,
    generated: u64,
}

impl TraceGenerator {
    /// Creates a generator with a fixed seed; identical seeds give identical
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`MemoryProfile::validate`].
    pub fn new(profile: MemoryProfile, seed: u64) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid memory profile: {e}"));
        TraceGenerator {
            profile,
            rng: StdRng::seed_from_u64(seed),
            stream_pos: 0,
            generated: 0,
        }
    }

    /// Profile driving this generator.
    pub fn profile(&self) -> &MemoryProfile {
        &self.profile
    }

    /// Number of addresses produced so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Produces the next byte address.
    pub fn next_address(&mut self) -> u64 {
        self.generated += 1;
        let r: f64 = self.rng.random();
        let p = &self.profile;
        if r < p.streaming_fraction {
            // Sequential scan through the working set, 8-byte words.
            self.stream_pos = (self.stream_pos + 8) % p.working_set_bytes;
            self.stream_pos
        } else if r < p.streaming_fraction + p.hot_fraction {
            // Temporally local access within the hot set.
            self.rng.random_range(0..p.hot_set_bytes)
        } else {
            // Uniform random over the full working set.
            self.rng.random_range(0..p.working_set_bytes)
        }
    }

    /// Fills `out` with the next `out.len()` addresses.
    pub fn fill(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.next_address();
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        Some(self.next_address())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, CacheHierarchy};
    use crate::profile::ComputeProfile;

    fn profile() -> MemoryProfile {
        ComputeProfile::hadoop_average().mem
    }

    #[test]
    fn deterministic_across_runs() {
        let a: Vec<u64> = TraceGenerator::new(profile(), 7).take(500).collect();
        let b: Vec<u64> = TraceGenerator::new(profile(), 7).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u64> = TraceGenerator::new(profile(), 1).take(500).collect();
        let b: Vec<u64> = TraceGenerator::new(profile(), 2).take(500).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let p = profile();
        let mut gen = TraceGenerator::new(p, 3);
        for _ in 0..10_000 {
            assert!(gen.next_address() < p.working_set_bytes);
        }
    }

    #[test]
    fn hot_fraction_reflected_in_distribution() {
        let p = MemoryProfile {
            accesses_per_instr: 0.3,
            working_set_bytes: 1 << 30,
            hot_set_bytes: 1 << 10,
            hot_fraction: 0.8,
            streaming_fraction: 0.0,
        };
        let mut gen = TraceGenerator::new(p, 11);
        let n = 20_000;
        let hot = (0..n)
            .filter(|_| gen.next_address() < p.hot_set_bytes)
            .count();
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "observed hot fraction {frac}");
    }

    #[test]
    fn local_profile_misses_less_than_random_profile() {
        let hierarchy = || {
            CacheHierarchy::new(
                vec![
                    CacheConfig::new("L1", 32 * 1024, 8, 64, 1.0),
                    CacheConfig::new("L2", 256 * 1024, 8, 64, 4.0),
                ],
                90.0,
            )
        };
        let run = |p: MemoryProfile| {
            let mut h = hierarchy();
            let mut gen = TraceGenerator::new(p, 5);
            for _ in 0..200_000 {
                h.access(gen.next_address());
            }
            let stats = h.stats();
            stats.memory_accesses as f64 / stats.total_accesses as f64
        };
        let local = run(MemoryProfile {
            accesses_per_instr: 0.3,
            working_set_bytes: 64 << 20,
            hot_set_bytes: 16 << 10,
            hot_fraction: 0.95,
            streaming_fraction: 0.03,
        });
        let random = run(MemoryProfile {
            accesses_per_instr: 0.3,
            working_set_bytes: 64 << 20,
            hot_set_bytes: 16 << 10,
            hot_fraction: 0.1,
            streaming_fraction: 0.05,
        });
        assert!(
            local < random / 3.0,
            "cache-friendly profile must miss far less ({local} vs {random})"
        );
    }

    #[test]
    #[should_panic(expected = "invalid memory profile")]
    fn invalid_profile_panics() {
        let mut p = profile();
        p.hot_fraction = 2.0;
        let _ = TraceGenerator::new(p, 0);
    }
}
