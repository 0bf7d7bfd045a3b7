//! Operational (ED^xP) and capital (ED^xAP) cost metrics.

/// Which cost figure a report row refers to (the four corners of the
/// paper's Fig. 17 spider charts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Energy-Delay Product (J·s) — energy efficiency.
    Edp,
    /// Energy-Delay² Product (J·s²) — near-real-time energy efficiency.
    Ed2p,
    /// Energy-Delay-Area Product (J·mm²·s) — cost energy efficiency.
    Edap,
    /// Energy-Delay²-Area Product (J·mm²·s²) — near-real-time cost
    /// energy efficiency.
    Ed2ap,
}

impl MetricKind {
    /// The four metrics in Fig. 17 order.
    pub const ALL: [MetricKind; 4] = [
        MetricKind::Edp,
        MetricKind::Ed2p,
        MetricKind::Edap,
        MetricKind::Ed2ap,
    ];
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricKind::Edp => write!(f, "EDP"),
            MetricKind::Ed2p => write!(f, "ED2P"),
            MetricKind::Edap => write!(f, "EDAP"),
            MetricKind::Ed2ap => write!(f, "ED2AP"),
        }
    }
}

/// Energy, delay and area of one run — everything the ED^xP / ED^xAP
/// family needs.
///
/// # Examples
///
/// ```
/// use hhsim_energy::CostMetrics;
///
/// let m = CostMetrics::new(500.0, 10.0, 160.0);
/// assert_eq!(m.edp(), 5_000.0);
/// assert_eq!(m.ed2p(), 50_000.0);
/// assert_eq!(m.edap(), 800_000.0);
/// assert_eq!(m.ed2ap(), 8_000_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostMetrics {
    /// Dynamic energy of the run, joules.
    pub energy_j: f64,
    /// Wall-clock delay, seconds.
    pub delay_s: f64,
    /// Chip area engaged, mm² (the paper charges cores × die area, §3.5).
    pub area_mm2: f64,
}

impl CostMetrics {
    /// Creates the metric bundle.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or non-finite.
    pub fn new(energy_j: f64, delay_s: f64, area_mm2: f64) -> Self {
        let check = |n: &str, v: f64| {
            assert!(
                v.is_finite() && v >= 0.0,
                "{n} must be finite and >= 0, got {v}"
            );
        };
        check("energy", energy_j);
        check("delay", delay_s);
        check("area", area_mm2);
        CostMetrics {
            energy_j,
            delay_s,
            area_mm2,
        }
    }

    /// Energy-Delay^x Product in J·s^x.
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero (that would be plain energy, which the paper
    /// argues is not a fair comparison basis on its own, §2.2).
    pub fn edxp(&self, x: u32) -> f64 {
        assert!(x >= 1, "ED^xP requires x >= 1");
        self.energy_j * self.delay_s.powi(x as i32)
    }

    /// Energy-Delay^x-Area Product in J·s^x·mm².
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero.
    pub fn edxap(&self, x: u32) -> f64 {
        self.edxp(x) * self.area_mm2
    }

    /// Energy-Delay Product (J·s).
    pub fn edp(&self) -> f64 {
        self.edxp(1)
    }

    /// Energy-Delay² Product (J·s²).
    pub fn ed2p(&self) -> f64 {
        self.edxp(2)
    }

    /// Energy-Delay-Area Product (J·mm²·s).
    pub fn edap(&self) -> f64 {
        self.edxap(1)
    }

    /// Energy-Delay²-Area Product (J·mm²·s²).
    pub fn ed2ap(&self) -> f64 {
        self.edxap(2)
    }

    /// Value of `kind` for this run.
    pub fn get(&self, kind: MetricKind) -> f64 {
        match kind {
            MetricKind::Edp => self.edp(),
            MetricKind::Ed2p => self.ed2p(),
            MetricKind::Edap => self.edap(),
            MetricKind::Ed2ap => self.ed2ap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_is_consistent() {
        let m = CostMetrics::new(100.0, 3.0, 200.0);
        assert_eq!(m.edp(), 300.0);
        assert_eq!(m.ed2p(), 900.0);
        assert_eq!(m.edxp(3), 2700.0);
        assert_eq!(m.edap(), 60_000.0);
        assert_eq!(m.ed2ap(), 180_000.0);
        for k in MetricKind::ALL {
            assert!(m.get(k) > 0.0);
        }
    }

    #[test]
    fn higher_x_amplifies_delay_gaps() {
        // Machine A: half the energy, double the delay of machine B.
        let a = CostMetrics::new(50.0, 20.0, 100.0);
        let b = CostMetrics::new(100.0, 10.0, 100.0);
        assert!(a.edp() == b.edp(), "EDP ties");
        assert!(a.ed2p() > b.ed2p(), "ED2P prefers the faster machine");
        assert!(a.edxp(3) > b.edxp(3));
    }

    #[test]
    fn area_separates_capital_cost() {
        let small = CostMetrics::new(100.0, 10.0, 160.0);
        let big = CostMetrics::new(100.0, 10.0, 216.0);
        assert_eq!(small.edp(), big.edp());
        assert!(small.edap() < big.edap());
    }

    #[test]
    #[should_panic(expected = "x >= 1")]
    fn x_zero_rejected() {
        let _ = CostMetrics::new(1.0, 1.0, 1.0).edxp(0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn negative_energy_rejected() {
        let _ = CostMetrics::new(-1.0, 1.0, 1.0);
    }

    #[test]
    fn metric_kind_display() {
        let names: Vec<String> = MetricKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, vec!["EDP", "ED2P", "EDAP", "ED2AP"]);
    }
}
