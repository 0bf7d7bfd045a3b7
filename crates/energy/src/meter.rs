//! The simulated wall-power meter.

use serde::{Deserialize, Serialize};

/// Piecewise-constant whole-system power over a run: `(duration s, watts)`
/// segments in execution order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    segments: Vec<(f64, f64)>,
}

impl PowerTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PowerTrace::default()
    }

    /// Appends a segment of `duration_s` seconds at `watts`.
    ///
    /// # Panics
    ///
    /// Panics if the duration is negative/non-finite or power is negative.
    pub fn push(&mut self, duration_s: f64, watts: f64) {
        assert!(
            duration_s.is_finite() && duration_s >= 0.0,
            "bad duration {duration_s}"
        );
        assert!(watts.is_finite() && watts >= 0.0, "bad power {watts}");
        if duration_s > 0.0 {
            self.segments.push((duration_s, watts));
        }
    }

    /// Total trace duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.segments.iter().map(|(d, _)| d).sum()
    }

    /// Exact energy under the trace, joules (ground truth the sampled meter
    /// approximates).
    pub fn exact_energy_j(&self) -> f64 {
        self.segments.iter().map(|(d, w)| d * w).sum()
    }

    /// Instantaneous power at time `t` (seconds from trace start); the last
    /// segment's power past the end, 0 for an empty trace.
    pub fn power_at(&self, t: f64) -> f64 {
        let mut acc = 0.0;
        for (d, w) in &self.segments {
            acc += d;
            if t < acc {
                return *w;
            }
        }
        self.segments.last().map(|(_, w)| *w).unwrap_or(0.0)
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[(f64, f64)] {
        &self.segments
    }
}

/// Result of a metered run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeterReading {
    /// Number of 1 Hz samples taken.
    pub samples: u64,
    /// Average of the samples, watts.
    pub average_watts: f64,
    /// Trace duration, seconds.
    pub duration_s: f64,
}

impl MeterReading {
    /// Average power above the given idle floor (the paper's §1.1
    /// methodology: "subtracted the system idle power to estimate the
    /// dynamic power dissipation"). Clamped at zero.
    pub fn dynamic_watts(&self, idle_w: f64) -> f64 {
        (self.average_watts - idle_w).max(0.0)
    }

    /// Estimated total energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.average_watts * self.duration_s
    }

    /// Estimated dynamic energy above idle, joules.
    pub fn dynamic_energy_j(&self, idle_w: f64) -> f64 {
        self.dynamic_watts(idle_w) * self.duration_s
    }
}

/// Sampling interval of both meters, seconds: the Wattsup PRO's 1 Hz, the
/// cadence the paper's §1.1 methodology samples at.
pub const SAMPLE_INTERVAL_S: f64 = 1.0;

/// A Wattsup-style sampling power meter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerMeter;

impl PowerMeter {
    /// Samples the trace at the meter cadence (midpoint convention) and
    /// averages. Short traces (< one interval) get a single midpoint
    /// sample, like a real meter latching at least one reading.
    pub fn measure(&self, trace: &PowerTrace) -> MeterReading {
        let duration = trace.duration_s();
        if duration == 0.0 {
            return MeterReading {
                samples: 0,
                average_watts: 0.0,
                duration_s: 0.0,
            };
        }
        let n = (duration / SAMPLE_INTERVAL_S).floor().max(1.0) as u64;
        let mut sum = 0.0;
        for i in 0..n {
            let t = (i as f64 + 0.5) * SAMPLE_INTERVAL_S;
            sum += trace.power_at(t.min(duration * 0.999_999));
        }
        MeterReading {
            samples: n,
            average_watts: sum / n as f64,
            duration_s: duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_measures_exactly() {
        let mut t = PowerTrace::new();
        t.push(60.0, 120.0);
        let r = PowerMeter.measure(&t);
        assert_eq!(r.samples, 60);
        assert_eq!(r.average_watts, 120.0);
        assert_eq!(r.energy_j(), 7200.0);
    }

    #[test]
    fn sampled_average_approximates_exact_energy() {
        let mut t = PowerTrace::new();
        t.push(33.3, 150.0);
        t.push(12.2, 80.0);
        t.push(7.5, 200.0);
        let r = PowerMeter.measure(&t);
        let exact = t.exact_energy_j();
        let est = r.energy_j();
        assert!(
            (est - exact).abs() / exact < 0.05,
            "1 Hz sampling error too large: {est} vs {exact}"
        );
    }

    #[test]
    fn idle_subtraction() {
        let mut t = PowerTrace::new();
        t.push(10.0, 130.0);
        let r = PowerMeter.measure(&t);
        assert_eq!(r.dynamic_watts(92.0), 38.0);
        assert_eq!(r.dynamic_energy_j(92.0), 380.0);
        // Below-idle readings clamp rather than going negative.
        assert_eq!(r.dynamic_watts(200.0), 0.0);
    }

    #[test]
    fn short_trace_gets_one_sample() {
        let mut t = PowerTrace::new();
        t.push(0.3, 77.0);
        let r = PowerMeter.measure(&t);
        assert_eq!(r.samples, 1);
        assert_eq!(r.average_watts, 77.0);
    }

    #[test]
    fn empty_trace_reads_zero() {
        let r = PowerMeter.measure(&PowerTrace::new());
        assert_eq!(r.samples, 0);
        assert_eq!(r.average_watts, 0.0);
        assert_eq!(r.energy_j(), 0.0);
    }

    #[test]
    fn power_at_walks_segments() {
        let mut t = PowerTrace::new();
        t.push(2.0, 10.0);
        t.push(3.0, 20.0);
        assert_eq!(t.power_at(1.0), 10.0);
        assert_eq!(t.power_at(2.5), 20.0);
        assert_eq!(t.power_at(99.0), 20.0);
    }

    #[test]
    fn zero_duration_segments_ignored() {
        let mut t = PowerTrace::new();
        t.push(0.0, 500.0);
        assert_eq!(t.duration_s(), 0.0);
        assert!(t.segments().is_empty());
    }

    #[test]
    #[should_panic(expected = "bad power")]
    fn negative_power_rejected() {
        PowerTrace::new().push(1.0, -5.0);
    }
}
