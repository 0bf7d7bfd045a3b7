//! DVFS operating points.
//!
//! The paper sweeps both machines over 1.2, 1.4, 1.6 and 1.8 GHz (§3).
//! Voltage follows an affine voltage/frequency curve per machine, giving the
//! CV²f dynamic-power scaling the EDP analysis depends on.

use std::fmt;

/// A core clock frequency in GHz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// 1.2 GHz — lowest studied operating point.
    pub const GHZ_1_2: Frequency = Frequency(1.2);
    /// 1.4 GHz.
    pub const GHZ_1_4: Frequency = Frequency(1.4);
    /// 1.6 GHz.
    pub const GHZ_1_6: Frequency = Frequency(1.6);
    /// 1.8 GHz — nominal frequency of both machines (Table 1).
    pub const GHZ_1_8: Frequency = Frequency(1.8);

    /// The four operating points swept throughout the paper.
    pub const SWEEP: [Frequency; 4] = [
        Frequency::GHZ_1_2,
        Frequency::GHZ_1_4,
        Frequency::GHZ_1_6,
        Frequency::GHZ_1_8,
    ];

    /// Creates a frequency.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ghz <= 10` (sanity bound for this domain).
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0 && ghz <= 10.0, "unreasonable frequency {ghz} GHz");
        Frequency(ghz)
    }

    /// Value in GHz.
    pub fn ghz(self) -> f64 {
        self.0
    }

    /// Value in Hz.
    pub fn hz(self) -> f64 {
        self.0 * 1e9
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GHz", self.0)
    }
}

/// Affine voltage/frequency relationship `V(f) = v0 + slope · f`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageCurve {
    /// Voltage intercept at 0 GHz (the retention floor), volts.
    pub v0: f64,
    /// Volts per GHz.
    pub slope: f64,
}

impl VoltageCurve {
    /// Supply voltage at frequency `f`.
    pub fn voltage(&self, f: Frequency) -> f64 {
        self.v0 + self.slope * f.ghz()
    }
}

/// A (frequency, voltage) pair — the unit of DVFS control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency.
    pub frequency: Frequency,
    /// Supply voltage in volts.
    pub voltage: f64,
}

impl OperatingPoint {
    /// Builds the operating point on `curve` at frequency `f`.
    pub fn on_curve(curve: VoltageCurve, f: Frequency) -> Self {
        OperatingPoint {
            frequency: f,
            voltage: curve.voltage(f),
        }
    }

    /// The `V²f` factor that scales dynamic power at this point.
    pub fn v2f(&self) -> f64 {
        self.voltage * self.voltage * self.frequency.ghz()
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {:.3} V", self.frequency, self.voltage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_sorted_and_complete() {
        let s = Frequency::SWEEP;
        assert_eq!(s.len(), 4);
        for w in s.windows(2) {
            assert!(w[0].ghz() < w[1].ghz());
        }
        assert_eq!(s[0], Frequency::GHZ_1_2);
        assert_eq!(s[3], Frequency::GHZ_1_8);
    }

    #[test]
    #[should_panic(expected = "unreasonable frequency")]
    fn absurd_frequency_rejected() {
        let _ = Frequency::from_ghz(0.0);
    }

    #[test]
    fn voltage_scales_with_frequency() {
        let curve = VoltageCurve {
            v0: 0.6,
            slope: 0.2,
        };
        let lo = OperatingPoint::on_curve(curve, Frequency::GHZ_1_2);
        let hi = OperatingPoint::on_curve(curve, Frequency::GHZ_1_8);
        assert!((lo.voltage - 0.84).abs() < 1e-9);
        assert!((hi.voltage - 0.96).abs() < 1e-9);
        // v2f grows superlinearly in f.
        assert!(hi.v2f() / lo.v2f() > 1.8 / 1.2);
    }

    #[test]
    fn display_is_informative() {
        let op = OperatingPoint {
            frequency: Frequency::GHZ_1_4,
            voltage: 0.9,
        };
        assert_eq!(op.to_string(), "1.4 GHz @ 0.900 V");
    }
}
