//! Time-resolved utilization → power conversion.
//!
//! The cluster engine emits, per node, a step function of how many task
//! slots are busy at every instant. [`UtilizationTimeline`] walks that
//! step function as `(duration, active slots)` pieces the caller prices
//! through an `active slots → watts` map (the arch crate's `node_power`),
//! so the 1 Hz meter samples *time-resolved* utilization — waves filling
//! and draining, stragglers trailing — instead of a single phase-average
//! power level.

/// A step function of busy slots over one node's phase: change points
/// `(time_s, active)` sorted by time, starting at `t = 0`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilizationTimeline {
    steps: Vec<(f64, usize)>,
    end_s: f64,
}

impl UtilizationTimeline {
    /// Builds a timeline from change points and the phase end time.
    ///
    /// # Panics
    ///
    /// Panics if the points are not strictly increasing in time, do not
    /// start at zero, or extend past `end_s`.
    pub fn new(steps: Vec<(f64, usize)>, end_s: f64) -> Self {
        if let Some(&(t0, _)) = steps.first() {
            assert!(t0 == 0.0, "timeline must start at t = 0, got {t0}");
        }
        for w in steps.windows(2) {
            if let &[(ta, _), (tb, _)] = w {
                assert!(
                    tb > ta,
                    "change points must be strictly increasing: {ta} then {tb}"
                );
            }
        }
        if let Some(&(t, _)) = steps.last() {
            assert!(t <= end_s, "change point {t} past end {end_s}");
        }
        UtilizationTimeline { steps, end_s }
    }

    /// Hands the change points back, so a caller that prices many
    /// timelines can refill one buffer instead of allocating per node.
    pub fn into_steps(self) -> Vec<(f64, usize)> {
        self.steps
    }

    /// `(duration_s, active)` pieces in time order, covering `[0, end_s)`
    /// — the event-driven integration walk: one piece per slot
    /// transition, priced once, however long the phase runs.
    pub fn pieces(&self) -> impl Iterator<Item = (f64, usize)> + '_ {
        let ends = self
            .steps
            .iter()
            .skip(1)
            .map(|&(t, _)| t)
            .chain(std::iter::once(self.end_s));
        self.steps
            .iter()
            .zip(ends)
            .map(|(&(t, a), next)| (next - t, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> UtilizationTimeline {
        // 2 slots for 1 s, 1 slot for 2 s, idle for 1 s.
        UtilizationTimeline::new(vec![(0.0, 2), (1.0, 1), (3.0, 0)], 4.0)
    }

    #[test]
    fn integral_counts_slot_seconds() {
        let slot_s: f64 = ramp().pieces().map(|(dur, a)| dur * a as f64).sum();
        assert!((slot_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn power_trace_prices_each_piece() {
        let mut meter = crate::StreamingMeter::new();
        for (dur, active) in ramp().pieces() {
            meter.push(dur, 100.0 + 50.0 * active as f64);
        }
        let r = meter.finish();
        assert_eq!(r.segments, 3);
        assert!((r.meter.duration_s - 4.0).abs() < 1e-12);
        // 1 s @ 200 W + 2 s @ 150 W + 1 s @ 100 W.
        assert!((r.exact_energy_j - 600.0).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline_is_harmless() {
        let tl = UtilizationTimeline::new(Vec::new(), 0.0);
        assert_eq!(tl.pieces().count(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_steps_rejected() {
        let _ = UtilizationTimeline::new(vec![(0.0, 1), (0.0, 2)], 1.0);
    }

    #[test]
    #[should_panic(expected = "must start at t = 0")]
    fn late_start_rejected() {
        let _ = UtilizationTimeline::new(vec![(1.0, 1)], 2.0);
    }
}
