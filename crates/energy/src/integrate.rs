//! Event-driven energy integration with a streamed 1 Hz meter view.
//!
//! [`StreamingMeter`] is the repo's one wall-power meter: segments are
//! pushed once in execution order, the exact piecewise integral
//! `Σ duration × watts` accumulates per push, and the Wattsup-style 1 Hz
//! midpoint samples are resolved *online* against a tiny retained tail of
//! segments — O(samples + segments) time, O(1) memory in the trace
//! length.
//!
//! The sampling rule: a trace of duration `D` gets
//! `max(1, floor(D / interval))` samples (a sub-interval trace latches one
//! reading, like a real meter); sample `i` reads the power of the first
//! segment whose end prefix-sum exceeds `min(t, 0.999_999 × D)` with
//! `t = (i + 0.5) × interval`, falling through to the last segment; the
//! reading is their mean. A materialize-then-walk sampler that states the
//! rule directly (`reference`, test-only) is the oracle, and the
//! streamed view is **bit-for-bit identical** to it:
//!
//! * the running duration is a left-to-right `f64` sum over the retained
//!   segments (`duration_s <= 0` pushes are skipped);
//! * sample `i` is resolved early only when both
//!   `floor(acc / interval) >= i + 1` — which proves `i < samples` for
//!   every possible final duration `D >= acc` — and
//!   `t < 0.999_999 × acc`, which proves the end-of-trace clamp returns
//!   `t` itself. Under those guards the selected segment and the order of
//!   the sample-sum additions match the rule exactly;
//! * samples still pending at [`StreamingMeter::finish`] (a sub-interval
//!   trace, or midpoints inside the final `1e-6` relative clamp window)
//!   are resolved there with the clamp expression itself against the
//!   retained tail, including the past-the-end fall-through to the last
//!   segment's power.
//!
//! The guarantee is exercised by randomized bit-equality tests below and
//! by the golden-artifact regeneration gates in CI.

use std::collections::VecDeque;

use crate::{MeterReading, SAMPLE_INTERVAL_S};

/// Result of one metering pass: the 1 Hz reading plus the exact
/// piecewise energy integral over the same segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReading {
    /// The 1 Hz sampled view.
    pub meter: MeterReading,
    /// Exact energy under the step function, joules: `Σ duration × watts`
    /// in push order.
    pub exact_energy_j: f64,
    /// Number of retained (positive-duration) segments integrated.
    pub segments: u64,
}

impl EnergyReading {
    /// Exact dynamic energy above an idle floor, joules. Clamped at
    /// zero like [`MeterReading::dynamic_energy_j`].
    pub fn exact_dynamic_energy_j(&self, idle_w: f64) -> f64 {
        (self.exact_energy_j - idle_w * self.meter.duration_s).max(0.0)
    }
}

/// Streaming power integrator: push `(duration, watts)` segments in
/// execution order, then [`finish`](StreamingMeter::finish) for the
/// exact integral and the 1 Hz metered view, without ever holding the
/// full trace.
///
/// # Examples
///
/// ```
/// use hhsim_energy::StreamingMeter;
///
/// let mut meter = StreamingMeter::new();
/// for (d, w) in [(33.3, 150.0), (12.2, 80.0), (7.5, 200.0)] {
///     meter.push(d, w);
/// }
/// let r = meter.finish();
/// assert_eq!(r.meter.samples, 53);
/// assert_eq!(r.exact_energy_j, 33.3 * 150.0 + 12.2 * 80.0 + 7.5 * 200.0);
/// // 1 Hz sampling lands within a few percent of the exact integral.
/// assert!((r.meter.energy_j() - r.exact_energy_j).abs() / r.exact_energy_j < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingMeter {
    /// Running duration: a left fold over the retained segments.
    acc_s: f64,
    /// Exact integral so far, folded in push order.
    exact_j: f64,
    /// Sum of resolved sample watts, added strictly in sample order.
    sample_sum_w: f64,
    /// Index of the lowest unresolved 1 Hz sample.
    next_sample: u64,
    /// Retained segments pushed so far.
    segments: u64,
    /// Retained tail: `(end_prefix_sum, watts)` of segments that may
    /// still be selected by a pending sample. Bounded by the segments
    /// inside one sample interval plus the final `1e-6` clamp window.
    tail: VecDeque<(f64, f64)>,
}

impl Default for StreamingMeter {
    fn default() -> Self {
        StreamingMeter::new()
    }
}

impl StreamingMeter {
    /// An empty meter sampling every [`SAMPLE_INTERVAL_S`].
    pub fn new() -> Self {
        StreamingMeter {
            // -0.0 is the identity of IEEE addition and the seed of
            // std's f64 `Sum`, so even empty-trace folds are
            // bit-identical to an iterator `sum()` over the segments.
            acc_s: -0.0,
            exact_j: -0.0,
            sample_sum_w: 0.0,
            next_sample: 0,
            segments: 0,
            tail: VecDeque::new(),
        }
    }

    /// Appends a segment of `duration_s` seconds at `watts`, resolving
    /// every 1 Hz sample the new running duration proves safe.
    ///
    /// # Panics
    ///
    /// Panics on negative/non-finite duration or negative power.
    /// Zero-duration segments are skipped.
    pub fn push(&mut self, duration_s: f64, watts: f64) {
        assert!(
            duration_s.is_finite() && duration_s >= 0.0,
            "bad duration {duration_s}"
        );
        assert!(watts.is_finite() && watts >= 0.0, "bad power {watts}");
        if duration_s <= 0.0 {
            return;
        }
        self.acc_s += duration_s;
        self.exact_j += duration_s * watts;
        self.segments += 1;
        self.tail.push_back((self.acc_s, watts));
        self.resolve_safe_samples();
        self.trim_tail();
    }

    /// Duration pushed so far, seconds.
    pub fn duration_s(&self) -> f64 {
        self.acc_s
    }

    /// Exact energy pushed so far, joules.
    pub fn exact_energy_j(&self) -> f64 {
        self.exact_j
    }

    /// Midpoint time of sample `i`.
    fn sample_time(i: u64) -> f64 {
        (i as f64 + 0.5) * SAMPLE_INTERVAL_S
    }

    /// Resolves pending samples whose value can no longer change:
    /// sample `i` is safe once (a) `floor(acc / interval) >= i + 1`, so
    /// the final sample count includes it whatever else is pushed, and
    /// (b) `t < 0.999_999 * acc`, so the end-of-trace clamp provably
    /// returns `t` unchanged for any final duration `>= acc`.
    fn resolve_safe_samples(&mut self) {
        loop {
            let i = self.next_sample;
            let complete = (self.acc_s / SAMPLE_INTERVAL_S).floor() >= (i as f64) + 1.0;
            let t = Self::sample_time(i);
            if !(complete && t < 0.999_999 * self.acc_s) {
                break;
            }
            // Segments ending at or before `t` can never satisfy the
            // strict `t < end` test for this or any later sample; drop
            // them.
            while let Some(&(end, _)) = self.tail.front() {
                if end <= t {
                    self.tail.pop_front();
                } else {
                    break;
                }
            }
            // The last segment ends at `acc` and `t < 0.999_999 * acc
            // < acc`, so a matching segment always remains.
            let Some(&(_, w)) = self.tail.front() else {
                break;
            };
            self.sample_sum_w += w;
            self.next_sample += 1;
        }
    }

    /// Drops tail segments no pending or future sample can select. The
    /// next sample's final clamped midpoint is at least
    /// `min(t_next, 0.999_999 * acc)` — later pushes only grow both
    /// bounds — so segments ending at or before that are dead.
    fn trim_tail(&mut self) {
        let bound = Self::sample_time(self.next_sample).min(0.999_999 * self.acc_s);
        while self.tail.len() > 1 {
            match self.tail.front() {
                Some(&(end, _)) if end <= bound => {
                    self.tail.pop_front();
                }
                _ => break,
            }
        }
    }

    /// Resolves the remaining samples against the final duration and
    /// returns the reading. Deferred samples (sub-interval traces, or
    /// midpoints inside the final `1e-6` relative clamp window) use the
    /// clamp `min(t, 0.999_999 × duration)` and the past-the-end
    /// fall-through to the last segment's power.
    pub fn finish(self) -> EnergyReading {
        let duration = self.acc_s;
        if duration == 0.0 {
            return EnergyReading {
                meter: MeterReading {
                    samples: 0,
                    average_watts: 0.0,
                    duration_s: 0.0,
                },
                exact_energy_j: self.exact_j,
                segments: self.segments,
            };
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a whole, positive number of sample intervals (`floor().max(1.0)`) in a finite run"
        )]
        let n = (duration / SAMPLE_INTERVAL_S).floor().max(1.0) as u64;
        let mut sum = self.sample_sum_w;
        let last_w = self.tail.back().map(|&(_, w)| w).unwrap_or(0.0);
        for i in self.next_sample..n {
            let t = Self::sample_time(i).min(duration * 0.999_999);
            let mut w = last_w;
            for &(end, seg_w) in &self.tail {
                if t < end {
                    w = seg_w;
                    break;
                }
            }
            sum += w;
        }
        EnergyReading {
            meter: MeterReading {
                samples: n,
                average_watts: sum / n as f64,
                duration_s: duration,
            },
            exact_energy_j: self.exact_j,
            segments: self.segments,
        }
    }
}

/// The batch sampler [`StreamingMeter`] replaced, kept as the oracle of
/// the bit-equality tests: it materializes every segment and walks the
/// whole list once per 1 Hz sample.
#[cfg(test)]
mod reference {
    use crate::{MeterReading, SAMPLE_INTERVAL_S};

    /// Piecewise-constant power: `(duration s, watts)` segments in
    /// execution order.
    #[derive(Default)]
    pub struct PowerTrace {
        pub segments: Vec<(f64, f64)>,
    }

    impl PowerTrace {
        pub fn push(&mut self, duration_s: f64, watts: f64) {
            if duration_s > 0.0 {
                self.segments.push((duration_s, watts));
            }
        }

        pub fn duration_s(&self) -> f64 {
            self.segments.iter().map(|(d, _)| d).sum()
        }

        pub fn exact_energy_j(&self) -> f64 {
            self.segments.iter().map(|(d, w)| d * w).sum()
        }

        /// Power at time `t`; the last segment's power past the end.
        fn power_at(&self, t: f64) -> f64 {
            let mut acc = 0.0;
            for (d, w) in &self.segments {
                acc += d;
                if t < acc {
                    return *w;
                }
            }
            self.segments.last().map(|(_, w)| *w).unwrap_or(0.0)
        }

        /// Midpoint samples at the meter cadence, averaged.
        pub fn measure(&self) -> MeterReading {
            let duration = self.duration_s();
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
                sum += self.power_at(t.min(duration * 0.999_999));
            }
            MeterReading {
                samples: n,
                average_watts: sum / n as f64,
                duration_s: duration,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::PowerTrace;
    use super::*;

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(seed: u64, tag: u64) -> f64 {
        (splitmix(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)) >> 11) as f64
            / (1u64 << 53) as f64
    }

    /// A randomized step trace: durations spanning sub-sample slivers to
    /// multi-minute stretches (with occasional zero-duration pushes the
    /// filter must drop), watts in [0, 400].
    fn random_trace(seed: u64) -> Vec<(f64, f64)> {
        let k = (splitmix(seed) % 30) as usize;
        (0..k)
            .map(|i| {
                let r = unit(seed, i as u64 * 2 + 1);
                let d = match splitmix(seed ^ (i as u64)) % 5 {
                    0 => 0.0,
                    1 => r * 0.4,
                    2 => r * 3.0,
                    _ => r * 200.0,
                };
                let w = unit(seed, i as u64 * 2 + 2) * 400.0;
                (d, w)
            })
            .collect()
    }

    /// The three segments `ClusterPrep::phase_average` pushes (map,
    /// reduce, others), in the shapes that meet the meter's edges: a
    /// map-only job's zero-duration reduce segment, a sub-second total
    /// (one sample, deferred to `finish`), and a total long enough that
    /// the last midpoint falls inside the final `1e-6` clamp window.
    fn phase_average_shapes(seed: u64) -> [Vec<(f64, f64)>; 3] {
        let r = |tag| unit(seed, tag);
        let w = |tag| 90.0 + r(tag) * 300.0;
        [
            vec![(r(1) * 200.0, w(2)), (0.0, w(3)), (r(4) * 30.0, w(5))],
            vec![(r(6) * 0.3, w(7)), (r(8) * 0.3, w(9)), (r(10) * 0.3, w(11))],
            vec![
                (400_000.0 + r(12) * 1e5, w(13)),
                (300_000.0 + r(14) * 1e5, w(15)),
                (r(16) * 2.0, w(17)),
            ],
        ]
    }

    /// Pushes `segments` into both meters and compares every value a
    /// caller can read, bit for bit.
    fn assert_matches_batch(segments: &[(f64, f64)], what: &str) {
        let mut trace = PowerTrace::default();
        let mut meter = StreamingMeter::new();
        for &(d, w) in segments {
            trace.push(d, w);
            meter.push(d, w);
        }
        assert_eq!(
            meter.duration_s().to_bits(),
            trace.duration_s().to_bits(),
            "{what}: running duration"
        );
        assert_eq!(
            meter.exact_energy_j().to_bits(),
            trace.exact_energy_j().to_bits(),
            "{what}: running integral"
        );
        let streamed = meter.finish();
        let batch = trace.measure();
        assert_eq!(streamed.meter.samples, batch.samples, "{what}: samples");
        assert_eq!(
            streamed.meter.average_watts.to_bits(),
            batch.average_watts.to_bits(),
            "{what}: average_watts {} vs {}",
            streamed.meter.average_watts,
            batch.average_watts
        );
        assert_eq!(
            streamed.meter.duration_s.to_bits(),
            batch.duration_s.to_bits(),
            "{what}: duration_s"
        );
        assert_eq!(
            streamed.exact_energy_j.to_bits(),
            trace.exact_energy_j().to_bits(),
            "{what}: exact integral"
        );
        assert_eq!(streamed.segments as usize, trace.segments.len());
    }

    #[test]
    fn streamed_view_is_bitwise_identical_to_batch_meter() {
        for seed in 0..300u64 {
            assert_matches_batch(&random_trace(seed), &format!("seed {seed}"));
            for (shape, segments) in phase_average_shapes(seed).iter().enumerate() {
                assert_eq!(segments.len(), 3);
                assert_matches_batch(segments, &format!("seed {seed}, phase shape {shape}"));
            }
        }
    }

    #[test]
    fn long_trace_clamp_window_matches_batch() {
        // Past ~500k seconds the relative end clamp (1e-6) exceeds half
        // a sample interval, so the final midpoints defer to finish();
        // the resolved values must still match the batch meter exactly.
        assert_matches_batch(
            &[
                (400_000.0, 130.0),
                (399_999.25, 95.0),
                (0.75, 240.0),
                (0.4, 310.0),
            ],
            "long trace",
        );
    }

    #[test]
    fn short_trace_gets_one_deferred_sample() {
        let mut meter = StreamingMeter::new();
        meter.push(0.3, 77.0);
        let r = meter.finish();
        assert_eq!(r.meter.samples, 1);
        assert_eq!(r.meter.average_watts, 77.0);
        assert!((r.exact_energy_j - 0.3 * 77.0).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_reads_zero() {
        let r = StreamingMeter::new().finish();
        assert_eq!(r.meter.samples, 0);
        assert_eq!(r.meter.average_watts, 0.0);
        assert_eq!(r.exact_energy_j, 0.0);
        assert_eq!(r.segments, 0);
    }

    #[test]
    fn zero_duration_segments_are_filtered() {
        let mut meter = StreamingMeter::new();
        meter.push(0.0, 500.0);
        meter.push(2.0, 100.0);
        meter.push(0.0, 500.0);
        let r = meter.finish();
        assert_eq!(r.segments, 1);
        assert_eq!(r.meter.samples, 2);
        assert_eq!(r.meter.average_watts, 100.0);
    }

    #[test]
    fn tail_memory_stays_bounded_on_dense_traces() {
        // A million sub-millisecond segments: the retained tail must
        // stay within one sample interval plus the clamp window, not
        // grow with the trace.
        let mut meter = StreamingMeter::new();
        let mut peak_tail = 0;
        for i in 0..1_000_000u64 {
            meter.push(0.000_8, 100.0 + (i % 7) as f64);
            peak_tail = peak_tail.max(meter.tail.len());
        }
        // 1 s of samples / 0.8 ms per segment = 1250 segments per
        // interval; allow slack for the clamp window.
        assert!(peak_tail < 4_000, "tail grew to {peak_tail}");
        let r = meter.finish();
        assert_eq!(r.meter.samples, 800);
        assert_eq!(r.segments, 1_000_000);
    }

    #[test]
    fn exact_integral_within_analytic_bound_of_riemann_sum() {
        // |metered energy − exact| ≤ (k + 2)·h·w_max for a k-segment
        // trace sampled at interval h: at most k sample cells straddle a
        // transition (error ≤ h·Δw each), the untiled tail [n·h, D)
        // contributes < h·w_max, and extrapolating the sample mean over
        // the full duration adds ≤ h·w_max more.
        for seed in 0..200u64 {
            let segments = random_trace(seed);
            let mut meter = StreamingMeter::new();
            for &(d, w) in &segments {
                meter.push(d, w);
            }
            let r = meter.finish();
            let k = r.segments as f64;
            let w_max = segments
                .iter()
                .filter(|&&(d, _)| d > 0.0)
                .map(|&(_, w)| w)
                .fold(0.0_f64, f64::max);
            let err = (r.meter.energy_j() - r.exact_energy_j).abs();
            let bound = (k + 2.0) * SAMPLE_INTERVAL_S * w_max;
            assert!(
                err <= bound + 1e-9,
                "seed {seed}: Riemann gap {err} exceeds analytic bound {bound}"
            );
        }
    }

    #[test]
    fn exact_dynamic_energy_clamps_at_zero() {
        let mut meter = StreamingMeter::new();
        meter.push(10.0, 130.0);
        let r = meter.finish();
        assert!((r.exact_dynamic_energy_j(92.0) - 380.0).abs() < 1e-9);
        assert_eq!(r.exact_dynamic_energy_j(200.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad power")]
    fn negative_power_rejected() {
        StreamingMeter::new().push(1.0, -5.0);
    }
}
