//! MapReduce execution phases and wall-clock breakdowns.
//!
//! The paper reports results per phase (map / reduce / "others" = setup,
//! cleanup, shuffle bookkeeping) — Figs. 7, 8, 10, 11, 13 all break time or
//! energy down this way, and the accelerator study offloads exactly the map
//! phase. [`PhaseBreakdown`] is the common currency between the cluster
//! simulator, the energy meter and the accelerator model.

/// One of the paper's three phase buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Map-task execution (the usual hotspot, §3.4).
    Map,
    /// Reduce-task execution including shuffle/merge on the reduce side.
    Reduce,
    /// Everything else: job setup, task scheduling, master↔slave
    /// interaction, cleanup.
    Others,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 3] = [Phase::Map, Phase::Reduce, Phase::Others];
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Map => write!(f, "Map"),
            Phase::Reduce => write!(f, "Reduce"),
            Phase::Others => write!(f, "Others"),
        }
    }
}

/// Wall-clock seconds per phase.
///
/// # Examples
///
/// ```
/// use hhsim_mapreduce::PhaseBreakdown;
///
/// let b = PhaseBreakdown::new(60.0, 30.0, 10.0);
/// assert_eq!(b.total(), 100.0);
/// assert!((b.fraction(hhsim_mapreduce::Phase::Map) - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Seconds in the map phase.
    pub map_s: f64,
    /// Seconds in the reduce phase.
    pub reduce_s: f64,
    /// Seconds in setup/cleanup/coordination.
    pub others_s: f64,
}

impl PhaseBreakdown {
    /// Builds a breakdown.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or non-finite.
    pub fn new(map_s: f64, reduce_s: f64, others_s: f64) -> Self {
        for (n, v) in [("map", map_s), ("reduce", reduce_s), ("others", others_s)] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{n} time must be finite and >= 0, got {v}"
            );
        }
        PhaseBreakdown {
            map_s,
            reduce_s,
            others_s,
        }
    }

    /// Total job wall-clock time.
    pub fn total(&self) -> f64 {
        self.map_s + self.reduce_s + self.others_s
    }

    /// Seconds spent in `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Map => self.map_s,
            Phase::Reduce => self.reduce_s,
            Phase::Others => self.others_s,
        }
    }

    /// Fraction of total time spent in `phase` (0 for an empty breakdown).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.get(phase) / t
        }
    }

    /// Element-wise scaling (used for what-if analyses).
    pub fn scaled(&self, factor: f64) -> PhaseBreakdown {
        PhaseBreakdown::new(
            self.map_s * factor,
            self.reduce_s * factor,
            self.others_s * factor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let b = PhaseBreakdown::new(10.0, 5.0, 5.0);
        assert_eq!(b.total(), 20.0);
        assert_eq!(b.fraction(Phase::Map), 0.5);
        assert_eq!(b.fraction(Phase::Reduce), 0.25);
        assert_eq!(b.fraction(Phase::Others), 0.25);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let b = PhaseBreakdown::default();
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.fraction(Phase::Map), 0.0);
    }

    #[test]
    fn scaling() {
        let b = PhaseBreakdown::new(4.0, 2.0, 1.0).scaled(0.5);
        assert_eq!(b.map_s, 2.0);
        assert_eq!(b.total(), 3.5);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_negative_times() {
        let _ = PhaseBreakdown::new(-1.0, 0.0, 0.0);
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::Map.to_string(), "Map");
        assert_eq!(Phase::ALL.len(), 3);
    }
}
