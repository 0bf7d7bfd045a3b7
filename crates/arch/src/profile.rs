//! Application compute/memory profiles consumed by the core model.
//!
//! A [`ComputeProfile`] captures *what the code does per byte of input*:
//! instruction density, intrinsic instruction-level parallelism, switching
//! activity and memory behaviour. The paper's characterization (Fig. 1, §2)
//! is reproduced by giving Hadoop phases low-ILP, large-working-set profiles
//! and traditional SPEC/PARSEC workloads high-ILP, cache-resident ones.

/// Memory-access behaviour driving the synthetic trace generator.
///
/// The generator mixes three streams: sequential strided accesses (scan-like
/// record processing), a hot set that usually stays cache-resident
/// (hash tables, stacks), and uniform random accesses over the full working
/// set (pointer chasing, large joins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryProfile {
    /// Memory operations per instruction (loads + stores).
    pub accesses_per_instr: f64,
    /// Full working-set size in bytes (targets of random accesses).
    pub working_set_bytes: u64,
    /// Hot-set size in bytes (targets of temporally local accesses).
    pub hot_set_bytes: u64,
    /// Fraction of accesses hitting the hot set.
    pub hot_fraction: f64,
    /// Fraction of accesses that are part of a sequential streaming scan
    /// (the remainder of non-hot accesses are uniform random over the
    /// working set).
    pub streaming_fraction: f64,
}

impl MemoryProfile {
    /// Validates the profile invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: fractions must
    /// be in `[0, 1]` and sum to at most 1, sizes and density positive.
    pub fn validate(&self) -> Result<(), String> {
        let frac_ok = |f: f64| (0.0..=1.0).contains(&f);
        #[expect(
            clippy::neg_cmp_op_on_partial_ord,
            reason = "`!(x > 0.0)` also rejects NaN; `x <= 0.0` would let NaN through"
        )]
        if !(self.accesses_per_instr > 0.0) {
            return Err("accesses_per_instr must be positive".into());
        }
        if self.working_set_bytes == 0 || self.hot_set_bytes == 0 {
            return Err("working/hot set sizes must be positive".into());
        }
        if self.hot_set_bytes > self.working_set_bytes {
            return Err("hot set cannot exceed working set".into());
        }
        if !frac_ok(self.hot_fraction) || !frac_ok(self.streaming_fraction) {
            return Err("fractions must lie in [0, 1]".into());
        }
        if self.hot_fraction + self.streaming_fraction > 1.0 + 1e-9 {
            return Err("hot + streaming fractions must not exceed 1".into());
        }
        Ok(())
    }
}

/// Full per-phase compute profile.
///
/// # Examples
///
/// ```
/// use hhsim_arch::ComputeProfile;
///
/// let p = ComputeProfile::hadoop_average();
/// assert!(p.mem.validate().is_ok());
/// assert!(p.ilp < ComputeProfile::spec_average().ilp);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeProfile {
    /// Label for reports.
    pub name: String,
    /// Dynamic instructions executed per byte of input processed.
    pub instr_per_byte: f64,
    /// Intrinsic instruction-level parallelism (upper bound on sustained
    /// issue regardless of machine width).
    pub ilp: f64,
    /// Switching-activity factor in `[0, 1]` scaling dynamic power.
    pub activity: f64,
    /// Memory behaviour.
    pub mem: MemoryProfile,
}

impl ComputeProfile {
    /// Suite-average profile for SPEC CPU2006 (high ILP, moderate working
    /// set): reference-input compute kernels.
    pub fn spec_average() -> Self {
        ComputeProfile {
            name: "SPEC2006-avg".into(),
            instr_per_byte: 60.0,
            ilp: 2.6,
            activity: 0.85,
            mem: MemoryProfile {
                accesses_per_instr: 0.32,
                working_set_bytes: 24 << 20,
                hot_set_bytes: 16 << 10,
                hot_fraction: 0.925,
                streaming_fraction: 0.06,
            },
        }
    }

    /// Suite-average profile for PARSEC 2.1 (parallel kernels, slightly more
    /// memory traffic than SPEC).
    pub fn parsec_average() -> Self {
        ComputeProfile {
            name: "PARSEC-avg".into(),
            instr_per_byte: 45.0,
            ilp: 2.3,
            activity: 0.82,
            mem: MemoryProfile {
                accesses_per_instr: 0.34,
                working_set_bytes: 48 << 20,
                hot_set_bytes: 24 << 10,
                hot_fraction: 0.90,
                streaming_fraction: 0.075,
            },
        }
    }

    /// Suite-average profile for the studied Hadoop applications: low ILP
    /// (branchy object churn), giant working sets, poor locality — the paper
    /// measures 2.16× lower IPC than SPEC on the big core (Fig. 1).
    pub fn hadoop_average() -> Self {
        ComputeProfile {
            name: "Hadoop-avg".into(),
            instr_per_byte: 38.0,
            ilp: 1.35,
            activity: 0.7,
            mem: MemoryProfile {
                accesses_per_instr: 0.30,
                working_set_bytes: 512 << 20,
                hot_set_bytes: 40 << 10,
                hot_fraction: 0.83,
                streaming_fraction: 0.14,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_profiles_validate() {
        for p in [
            ComputeProfile::spec_average(),
            ComputeProfile::parsec_average(),
            ComputeProfile::hadoop_average(),
        ] {
            p.mem
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(p.instr_per_byte > 0.0);
            assert!(p.ilp >= 1.0);
            assert!((0.0..=1.0).contains(&p.activity));
        }
    }

    #[test]
    fn hadoop_is_memory_hungrier_than_spec() {
        let h = ComputeProfile::hadoop_average();
        let s = ComputeProfile::spec_average();
        assert!(h.mem.working_set_bytes > s.mem.working_set_bytes);
        assert!(h.mem.hot_fraction < s.mem.hot_fraction);
        assert!(h.ilp < s.ilp);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let good = ComputeProfile::spec_average().mem;
        let mut p = good;
        p.accesses_per_instr = 0.0;
        assert!(p.validate().is_err());
        let mut p = good;
        p.hot_set_bytes = p.working_set_bytes + 1;
        assert!(p.validate().is_err());
        let mut p = good;
        p.hot_fraction = 0.9;
        p.streaming_fraction = 0.2;
        assert!(p.validate().is_err());
        let mut p = good;
        p.hot_fraction = 1.2;
        assert!(p.validate().is_err());
    }
}
