//! Time-resolved utilization → power conversion.
//!
//! The cluster engine emits, per node, a step function of how many task
//! slots are busy at every instant. [`UtilizationTimeline`] walks that
//! step function as `(duration, active slots)` pieces the caller prices
//! through an `active slots → watts` map (the arch crate's `node_power`),
//! so the 1 Hz meter samples *time-resolved* utilization — waves filling
//! and draining, stragglers trailing — instead of a single phase-average
//! power level.

use serde::{Deserialize, Serialize};

/// A step function of busy slots over one node's phase: change points
/// `(time_s, active)` sorted by time, starting at `t = 0`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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

    /// Total covered time, seconds.
    pub fn end_s(&self) -> f64 {
        self.end_s
    }

    /// Hands the change points back, so a caller that prices many
    /// timelines can refill one buffer instead of allocating per node.
    pub fn into_steps(self) -> Vec<(f64, usize)> {
        self.steps
    }

    /// Busy slots at time `t` (0 outside the covered range).
    pub fn active_at(&self, t: f64) -> usize {
        if t < 0.0 || t >= self.end_s {
            return 0;
        }
        self.steps
            .iter()
            .take_while(|&&(start, _)| start <= t)
            .last()
            .map(|&(_, a)| a)
            .unwrap_or(0)
    }

    /// Largest number of simultaneously busy slots.
    pub fn peak(&self) -> usize {
        self.steps.iter().map(|&(_, a)| a).max().unwrap_or(0)
    }

    /// Integral of the step function: busy slot-seconds.
    pub fn busy_slot_seconds(&self) -> f64 {
        self.pieces().map(|(dur, active)| dur * active as f64).sum()
    }

    /// Mean busy slots over the covered time (0 for an empty timeline).
    pub fn mean_active(&self) -> f64 {
        if self.end_s > 0.0 {
            self.busy_slot_seconds() / self.end_s
        } else {
            0.0
        }
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
    fn active_lookup_walks_steps() {
        let tl = ramp();
        assert_eq!(tl.active_at(0.5), 2);
        assert_eq!(tl.active_at(2.0), 1);
        assert_eq!(tl.active_at(3.5), 0);
        assert_eq!(tl.active_at(99.0), 0);
        assert_eq!(tl.peak(), 2);
    }

    #[test]
    fn integral_counts_slot_seconds() {
        let tl = ramp();
        assert!((tl.busy_slot_seconds() - 4.0).abs() < 1e-12);
        assert!((tl.mean_active() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_trace_prices_each_piece() {
        let mut trace = crate::PowerTrace::new();
        for (dur, active) in ramp().pieces() {
            trace.push(dur, 100.0 + 50.0 * active as f64);
        }
        assert_eq!(trace.segments().len(), 3);
        assert!((trace.duration_s() - 4.0).abs() < 1e-12);
        // 1 s @ 200 W + 2 s @ 150 W + 1 s @ 100 W.
        assert!((trace.exact_energy_j() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline_is_harmless() {
        let tl = UtilizationTimeline::new(Vec::new(), 0.0);
        assert_eq!(tl.peak(), 0);
        assert_eq!(tl.mean_active(), 0.0);
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
