//! The reading a simulated wall-power meter reports.

/// Result of a metered run.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Sampling interval of the meter, seconds: the Wattsup PRO's 1 Hz, the
/// cadence the paper's §1.1 methodology samples at.
pub const SAMPLE_INTERVAL_S: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamingMeter;

    fn measure(segments: &[(f64, f64)]) -> MeterReading {
        let mut meter = StreamingMeter::new();
        for &(d, w) in segments {
            meter.push(d, w);
        }
        meter.finish().meter
    }

    #[test]
    fn constant_trace_measures_exactly() {
        let r = measure(&[(60.0, 120.0)]);
        assert_eq!(r.samples, 60);
        assert_eq!(r.average_watts, 120.0);
        assert_eq!(r.energy_j(), 7200.0);
    }

    #[test]
    fn sampled_average_approximates_exact_energy() {
        let segments = [(33.3, 150.0), (12.2, 80.0), (7.5, 200.0)];
        let exact: f64 = segments.iter().map(|(d, w)| d * w).sum();
        let est = measure(&segments).energy_j();
        assert!(
            (est - exact).abs() / exact < 0.05,
            "1 Hz sampling error too large: {est} vs {exact}"
        );
    }

    #[test]
    fn idle_subtraction() {
        let r = measure(&[(10.0, 130.0)]);
        assert_eq!(r.dynamic_watts(92.0), 38.0);
        assert_eq!(r.dynamic_energy_j(92.0), 380.0);
        // Below-idle readings clamp rather than going negative.
        assert_eq!(r.dynamic_watts(200.0), 0.0);
    }

    #[test]
    fn short_trace_gets_one_sample() {
        // Like a real meter latching at least one reading.
        let r = measure(&[(0.3, 77.0)]);
        assert_eq!(r.samples, 1);
        assert_eq!(r.average_watts, 77.0);
    }

    #[test]
    fn empty_trace_reads_zero() {
        let r = measure(&[]);
        assert_eq!(r.samples, 0);
        assert_eq!(r.average_watts, 0.0);
        assert_eq!(r.energy_j(), 0.0);
    }

    #[test]
    fn power_at_walks_segments() {
        // Midpoints 0.5 and 1.5 read the first segment, 2.5–4.5 the second.
        let r = measure(&[(2.0, 10.0), (3.0, 20.0)]);
        assert_eq!(r.samples, 5);
        assert_eq!(r.average_watts, (2.0 * 10.0 + 3.0 * 20.0) / 5.0);
    }

    #[test]
    fn zero_duration_segments_ignored() {
        let r = measure(&[(0.0, 500.0)]);
        assert_eq!(r.duration_s, 0.0);
        assert_eq!(r.samples, 0);
    }

    #[test]
    #[should_panic(expected = "bad power")]
    fn negative_power_rejected() {
        measure(&[(1.0, -5.0)]);
    }
}
