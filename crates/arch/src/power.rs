//! Chip and node power model.
//!
//! System power is decomposed as
//! `idle + Σ_active_cores(C_dyn · V² · f · activity) + uncore + DRAM + disk`,
//! mirroring how the paper measures at the wall with a Wattsup meter and
//! subtracts idle power to isolate dynamic dissipation (§1.1).
//!
//! Units conspire nicely: effective capacitance in nanofarads × V² ×
//! frequency in GHz yields watts directly.

use crate::dvfs::OperatingPoint;

/// Power parameters of one chip plus its node-level adders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipPowerModel {
    /// Effective switched capacitance per core, nanofarads.
    pub cdyn_core_nf: f64,
    /// Static leakage per core at nominal voltage, watts.
    pub leak_core_w: f64,
    /// Uncore (interconnect, LLC, memory controller) dynamic power at the
    /// nominal operating point, watts; scales with `V²f`.
    pub uncore_dyn_w: f64,
    /// Nominal `V²f` used to normalize `uncore_dyn_w`.
    pub nominal_v2f: f64,
    /// Whole-node idle power (chip + board + fans + idle DRAM/disk), watts.
    pub node_idle_w: f64,
    /// DRAM power adder when memory traffic is high, watts.
    pub dram_active_w: f64,
    /// Disk power adder during heavy I/O, watts.
    pub disk_active_w: f64,
}

/// Instantaneous node power split into its sources, watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Whole-node idle floor.
    pub idle: f64,
    /// Active-core dynamic power.
    pub core_dynamic: f64,
    /// Core leakage above idle bookkeeping.
    pub core_leakage: f64,
    /// Uncore dynamic power.
    pub uncore: f64,
    /// DRAM activity adder.
    pub dram: f64,
    /// Disk activity adder.
    pub disk: f64,
}

impl PowerBreakdown {
    /// Total wall power.
    pub fn total(&self) -> f64 {
        self.idle + self.dynamic()
    }

    /// Dynamic (above-idle) power — what remains after the paper's
    /// idle-subtraction methodology.
    pub fn dynamic(&self) -> f64 {
        self.core_dynamic + self.core_leakage + self.uncore + self.dram + self.disk
    }
}

impl ChipPowerModel {
    /// Node power with `active_cores` busy at `op`, given utilization
    /// knobs in `[0, 1]`:
    ///
    /// * `activity` — switching activity of the running code;
    /// * `mem_intensity` — how hard DRAM is driven;
    /// * `io_intensity` — how hard the disk is driven.
    ///
    /// # Panics
    ///
    /// Panics if any knob lies outside `[0, 1]`.
    pub fn node_power(
        &self,
        op: OperatingPoint,
        active_cores: usize,
        total_cores: usize,
        activity: f64,
        mem_intensity: f64,
        io_intensity: f64,
    ) -> PowerBreakdown {
        assert!(total_cores > 0, "need at least one core");
        for (label, v) in [
            ("activity", activity),
            ("mem_intensity", mem_intensity),
            ("io_intensity", io_intensity),
        ] {
            assert!((0.0..=1.0).contains(&v), "{label} {v} outside [0, 1]");
        }
        let n = active_cores as f64;
        let core_dynamic = self.cdyn_core_nf * op.v2f() * activity * n;
        // Leakage at higher V than the floor; small correction term.
        let core_leakage = self.leak_core_w * n * (op.voltage / 1.0).powi(2) * 0.2;
        // Uncore (ring, LLC, memory controller) power tracks chip
        // utilization: clock gating idles unused slices but a floor remains
        // while any core is active.
        let utilization = (active_cores as f64 / total_cores as f64).min(1.0);
        let uncore = if active_cores > 0 {
            self.uncore_dyn_w * op.v2f() / self.nominal_v2f * (0.25 + 0.75 * utilization)
        } else {
            0.0
        };
        PowerBreakdown {
            idle: self.node_idle_w,
            core_dynamic,
            core_leakage,
            uncore,
            dram: self.dram_active_w * mem_intensity,
            disk: self.disk_active_w * io_intensity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::{Frequency, VoltageCurve};
    use crate::presets;

    fn op(machine: &crate::MachineModel, f: Frequency) -> OperatingPoint {
        machine.operating_point(f)
    }

    #[test]
    fn idle_node_draws_only_idle() {
        let m = presets::atom_c2758();
        let p = m
            .power
            .node_power(op(&m, Frequency::GHZ_1_8), 0, 8, 0.0, 0.0, 0.0);
        assert_eq!(p.dynamic(), 0.0);
        assert!(p.total() > 0.0);
    }

    #[test]
    fn power_monotone_in_cores_and_frequency() {
        let m = presets::xeon_e5_2420();
        let p2 = m
            .power
            .node_power(op(&m, Frequency::GHZ_1_2), 2, 12, 0.7, 0.5, 0.5);
        let p8_same_f = m
            .power
            .node_power(op(&m, Frequency::GHZ_1_2), 8, 12, 0.7, 0.5, 0.5);
        let p8_hi_f = m
            .power
            .node_power(op(&m, Frequency::GHZ_1_8), 8, 12, 0.7, 0.5, 0.5);
        assert!(p8_same_f.dynamic() > p2.dynamic());
        assert!(p8_hi_f.dynamic() > p8_same_f.dynamic());
    }

    #[test]
    fn v2f_scaling_is_superlinear() {
        // Raising f also raises V, so dynamic power grows faster than f.
        let m = presets::xeon_e5_2420();
        let lo = m
            .power
            .node_power(op(&m, Frequency::GHZ_1_2), 6, 6, 0.8, 0.0, 0.0)
            .core_dynamic;
        let hi = m
            .power
            .node_power(op(&m, Frequency::GHZ_1_8), 6, 6, 0.8, 0.0, 0.0)
            .core_dynamic;
        assert!(hi / lo > 1.8 / 1.2);
    }

    #[test]
    fn big_core_draws_much_more_than_little() {
        let xeon = presets::xeon_e5_2420();
        let atom = presets::atom_c2758();
        let f = Frequency::GHZ_1_8;
        let px = xeon
            .power
            .node_power(xeon.operating_point(f), 6, 6, 0.7, 0.6, 0.4)
            .dynamic();
        let pa = atom
            .power
            .node_power(atom.operating_point(f), 6, 6, 0.7, 0.6, 0.4)
            .dynamic();
        let ratio = px / pa;
        assert!(
            (3.5..=9.0).contains(&ratio),
            "Xeon/Atom dynamic power ratio {ratio} out of calibration band"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_utilization() {
        let m = presets::atom_c2758();
        let curve = VoltageCurve {
            v0: 0.6,
            slope: 0.2,
        };
        let _ = m.power.node_power(
            OperatingPoint::on_curve(curve, Frequency::GHZ_1_2),
            1,
            8,
            1.5,
            0.0,
            0.0,
        );
    }
}
