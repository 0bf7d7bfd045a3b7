//! FPGA map-phase offload model (§3.4 of the paper).
//!
//! The paper identifies the map phase as the hotspot in most studied
//! applications and asks how offloading it to an FPGA changes the big-vs-
//! little choice for the *post-acceleration* code left on the CPU. It
//! models the accelerated map phase as
//!
//! ```text
//! time_map' = time_cpu + time_fpga + time_trans
//! ```
//!
//! where `time_cpu` is the software residue on the CPU, `time_fpga` the
//! offloaded kernel at an assumed acceleration rate (swept 1×–100×,
//! Fig. 14), and `time_trans` the CPU↔FPGA transfer over the link. The
//! headline metric is Eq. (1): the ratio of the Atom→Xeon speedup *after*
//! acceleration to the speedup *before* it — below 1 means acceleration
//! erodes the big core's advantage. `hhsim-core` reads it off whole runs
//! (`figures::AccelSpec::ratio`); this crate prices the map phase only.
//!
//! # Examples
//!
//! ```
//! use hhsim_accel::{AccelConfig, accelerate};
//! use hhsim_mapreduce::PhaseBreakdown;
//!
//! let before = PhaseBreakdown::new(100.0, 30.0, 10.0);
//! let cfg = AccelConfig::fpga(20.0); // 20x mapper acceleration
//! let after = accelerate(&before, 4 << 30, &cfg);
//! assert!(after.map_s < before.map_s);
//! assert_eq!(after.reduce_s, before.reduce_s, "only the map phase offloads");
//! ```

use hhsim_mapreduce::PhaseBreakdown;

/// Accelerator and link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Acceleration rate of the offloaded kernel (time_fpga =
    /// offloaded_time / rate). The paper sweeps 1–100×.
    pub rate: f64,
    /// Fraction of map-phase work that cannot be offloaded and stays on
    /// the CPU (record readers, serialization, framework glue).
    pub cpu_residue: f64,
    /// Link bandwidth between CPU and FPGA, bytes/second.
    pub link_bytes_per_s: f64,
}

impl AccelConfig {
    /// A PCIe-attached FPGA at the given mapper acceleration rate:
    /// 15% CPU residue, ~6 GB/s effective PCIe Gen3 x8 link.
    ///
    /// # Panics
    ///
    /// Panics if `rate < 1` (a decelerator is outside the study).
    pub fn fpga(rate: f64) -> Self {
        assert!(rate >= 1.0, "acceleration rate must be >= 1, got {rate}");
        AccelConfig {
            rate,
            cpu_residue: 0.15,
            link_bytes_per_s: 6.0e9,
        }
    }

    /// The sweep of Fig. 14 (1× to 100×).
    pub fn sweep() -> Vec<AccelConfig> {
        [1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0]
            .into_iter()
            .map(AccelConfig::fpga)
            .collect()
    }

    /// Seconds to move `bytes` across the link (both directions are
    /// pipelined; the paper charges the transfer once).
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.link_bytes_per_s
    }
}

/// Applies map-phase offload to a phase breakdown. `transfer_bytes` is the
/// data volume crossing the link (map input + map output for a
/// non-resident FPGA).
pub fn accelerate(
    before: &PhaseBreakdown,
    transfer_bytes: u64,
    cfg: &AccelConfig,
) -> PhaseBreakdown {
    let time_cpu = before.map_s * cfg.cpu_residue;
    let time_fpga = before.map_s * (1.0 - cfg.cpu_residue) / cfg.rate;
    let time_trans = cfg.transfer_seconds(transfer_bytes);
    PhaseBreakdown::new(
        time_cpu + time_fpga + time_trans,
        before.reduce_s,
        before.others_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(map: f64, reduce: f64, others: f64) -> PhaseBreakdown {
        PhaseBreakdown::new(map, reduce, others)
    }

    /// The Atom/Xeon time ratio after both offload `transfer_bytes` under
    /// `cfg`, over the ratio before: Eq. (1), the quantity Fig. 14 plots.
    fn speedup_ratio(
        atom: &PhaseBreakdown,
        xeon: &PhaseBreakdown,
        transfer_bytes: u64,
        cfg: &AccelConfig,
    ) -> f64 {
        let after = |bd| accelerate(bd, transfer_bytes, cfg).total();
        (after(atom) / after(xeon)) / (atom.total() / xeon.total())
    }

    #[test]
    fn rate_one_still_pays_transfer() {
        let before = bd(100.0, 0.0, 0.0);
        let cfg = AccelConfig::fpga(1.0);
        let after = accelerate(&before, 6_000_000_000, &cfg);
        // 15 + 85 + 1s transfer
        assert!((after.map_s - 101.0).abs() < 1e-9);
    }

    #[test]
    fn amdahl_limit_is_cpu_residue_plus_transfer() {
        let before = bd(100.0, 20.0, 5.0);
        let huge = accelerate(&before, 0, &AccelConfig::fpga(1e9));
        assert!((huge.map_s - 15.0).abs() < 1e-6, "residue floor");
        let moderate = accelerate(&before, 0, &AccelConfig::fpga(10.0));
        assert!(moderate.map_s > huge.map_s);
    }

    #[test]
    fn non_map_phases_untouched() {
        let before = bd(50.0, 33.0, 7.0);
        let after = accelerate(&before, 1 << 30, &AccelConfig::fpga(40.0));
        assert_eq!(after.reduce_s, 33.0);
        assert_eq!(after.others_s, 7.0);
    }

    #[test]
    fn speedup_ratio_below_one_when_map_dominates() {
        // Atom 3x slower overall, entirely in map: accelerating map erases
        // most of Xeon's advantage -> ratio < 1 (Fig. 14's key claim).
        let atom = bd(300.0, 30.0, 10.0);
        let xeon = bd(100.0, 25.0, 8.0);
        let r = speedup_ratio(&atom, &xeon, 1 << 30, &AccelConfig::fpga(50.0));
        assert!(r < 1.0, "ratio {r}");
    }

    #[test]
    fn ratio_near_one_when_map_is_small() {
        // TeraSort/Grep-like: map is a minor share, so acceleration barely
        // changes the Atom/Xeon balance ("negligible impact on Terasort and
        // Grep", §3.4).
        let atom = bd(20.0, 280.0, 30.0);
        let xeon = bd(8.0, 180.0, 20.0);
        let r = speedup_ratio(&atom, &xeon, 1 << 28, &AccelConfig::fpga(50.0));
        assert!((0.9..=1.05).contains(&r), "ratio {r}");
    }

    #[test]
    fn sweep_is_monotone_in_rate_for_map_heavy_apps() {
        let atom = bd(300.0, 30.0, 10.0);
        let xeon = bd(100.0, 25.0, 8.0);
        let ratios: Vec<f64> = AccelConfig::sweep()
            .iter()
            .map(|c| speedup_ratio(&atom, &xeon, 1 << 30, c))
            .collect();
        for w in ratios.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "ratio must not rise with rate: {ratios:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn sub_unity_rate_rejected() {
        let _ = AccelConfig::fpga(0.5);
    }
}
