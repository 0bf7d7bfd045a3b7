//! The two machines of the paper, configured per Table 1.
//!
//! | Parameter | Atom C2758 | Xeon E5-2420 |
//! |---|---|---|
//! | Frequency | 1.8 GHz | 1.8 GHz |
//! | Microarchitecture | Silvermont (in-order, 2-wide) | Sandy Bridge (OoO, 4-wide) |
//! | L1i / L1d | 32 KB / 24 KB | 32 KB / 32 KB |
//! | L2 | 4 × 1024 KB | 256 KB |
//! | L3 | — | 15 MB |
//! | DRAM | 8 GB DDR3-1600 | 8 GB DDR3-1600 |
//! | Die area (§1.2) | 160 mm² | 216 mm² |

use std::borrow::Cow;

use crate::cache::CacheConfig;
use crate::corem::{CoreKind, CoreModel, MachineModel};
use crate::dvfs::VoltageCurve;
use crate::power::ChipPowerModel;

/// A preset level, built where a `static` can hold it. It skips
/// [`CacheConfig::new`]'s check; the tests below run that check on every
/// level of both presets.
const fn level(
    name: &'static str,
    size_bytes: usize,
    associativity: usize,
    latency_cycles: f64,
) -> CacheConfig {
    CacheConfig {
        name: Cow::Borrowed(name),
        size_bytes,
        associativity,
        line_bytes: 64,
        latency_cycles,
    }
}

/// The Xeon's levels: 32 KB L1d, 256 KB L2, 15 MB L3.
static XEON_LEVELS: [CacheConfig; 3] = [
    level("L1d", 32 * 1024, 8, 4.0),
    level("L2", 256 * 1024, 8, 12.0),
    level("L3", 15 * 1024 * 1024, 20, 30.0),
];

/// The Atom's levels: 24 KB L1d, 4 MB L2.
static ATOM_LEVELS: [CacheConfig; 2] = [
    level("L1d", 24 * 1024, 6, 3.0),
    level("L2", 4 * 1024 * 1024, 16, 17.0),
];

/// The big core: the paper's Xeon node encloses *two* Intel E5-2420
/// processors (§1.1), so the node model exposes 12 cores; die area stays
/// per-chip (216 mm², §1.2) and the scheduling study scales core counts
/// 2–8 via `SimConfig::mappers`.
pub fn xeon_e5_2420() -> MachineModel {
    let voltage_curve = VoltageCurve {
        v0: 0.875,
        slope: 0.08,
    };
    let nominal_v2f = {
        let v = voltage_curve.v0 + voltage_curve.slope * 1.8;
        v * v * 1.8
    };
    MachineModel {
        name: Cow::Borrowed("Intel Xeon E5-2420"),
        core: CoreModel {
            kind: CoreKind::Big,
            issue_width: 4.0,
            pipeline_efficiency: 0.82,
            mem_hide: 0.60,
            io_overlap: 0.82,
            copy_bytes_per_cycle: 0.16,
        },
        cache_levels: Cow::Borrowed(&XEON_LEVELS),
        mem_latency_ns: 52.0,
        voltage_curve,
        power: ChipPowerModel {
            cdyn_core_nf: 6.0,
            leak_core_w: 1.6,
            uncore_dyn_w: 22.0,
            nominal_v2f,
            node_idle_w: 92.0,
            dram_active_w: 9.0,
            disk_active_w: 6.0,
        },
        area_mm2: 216.0,
        num_cores: 12,
        memory_gb: 8.0,
    }
}

/// The little core: Intel Atom C2758 node (8 Silvermont cores).
pub fn atom_c2758() -> MachineModel {
    let voltage_curve = VoltageCurve {
        v0: 0.77,
        slope: 0.07,
    };
    let nominal_v2f = {
        let v = voltage_curve.v0 + voltage_curve.slope * 1.8;
        v * v * 1.8
    };
    MachineModel {
        name: Cow::Borrowed("Intel Atom C2758"),
        core: CoreModel {
            kind: CoreKind::Little,
            issue_width: 2.0,
            pipeline_efficiency: 0.70,
            mem_hide: 0.50,
            io_overlap: 0.35,
            copy_bytes_per_cycle: 0.055,
        },
        cache_levels: Cow::Borrowed(&ATOM_LEVELS),
        mem_latency_ns: 74.0,
        voltage_curve,
        power: ChipPowerModel {
            cdyn_core_nf: 0.55,
            leak_core_w: 0.22,
            uncore_dyn_w: 2.4,
            nominal_v2f,
            node_idle_w: 34.0,
            dram_active_w: 3.5,
            disk_active_w: 5.0,
        },
        area_mm2: 160.0,
        num_cores: 8,
        memory_gb: 8.0,
    }
}

/// Both machines, big first — convenient for sweeps. Allocates nothing.
pub fn both() -> [MachineModel; 2] {
    [xeon_e5_2420(), atom_c2758()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::Frequency;

    #[test]
    fn table1_parameters_match_paper() {
        let x = xeon_e5_2420();
        assert_eq!(x.cache_levels.len(), 3, "Xeon has three cache levels");
        assert_eq!(x.cache_levels[0].size_bytes, 32 * 1024);
        assert_eq!(x.cache_levels[1].size_bytes, 256 * 1024);
        assert_eq!(x.cache_levels[2].size_bytes, 15 * 1024 * 1024);
        assert_eq!(x.area_mm2, 216.0);
        assert_eq!(x.num_cores, 12, "two 6-core E5-2420 sockets");
        assert_eq!(x.memory_gb, 8.0);

        let a = atom_c2758();
        assert_eq!(a.cache_levels.len(), 2, "Atom has two cache levels");
        assert_eq!(a.cache_levels[0].size_bytes, 24 * 1024);
        assert_eq!(a.cache_levels[1].size_bytes, 4 * 1024 * 1024);
        assert_eq!(a.area_mm2, 160.0);
        assert_eq!(a.num_cores, 8);
        assert_eq!(a.memory_gb, 8.0);
    }

    /// Table 1's levels through the checked constructor, owned, Xeon
    /// first.
    fn checked_levels() -> [Vec<CacheConfig>; 2] {
        [
            vec![
                CacheConfig::new("L1d".to_string(), 32 * 1024, 8, 64, 4.0),
                CacheConfig::new("L2".to_string(), 256 * 1024, 8, 64, 12.0),
                CacheConfig::new("L3".to_string(), 15 * 1024 * 1024, 20, 64, 30.0),
            ],
            vec![
                CacheConfig::new("L1d".to_string(), 24 * 1024, 6, 64, 3.0),
                CacheConfig::new("L2".to_string(), 4 * 1024 * 1024, 16, 64, 17.0),
            ],
        ]
    }

    #[test]
    fn static_levels_pass_the_check_and_equal_checked_machines() {
        for (m, levels) in both().into_iter().zip(checked_levels()) {
            assert!(matches!(m.cache_levels, Cow::Borrowed(_)), "{}", m.name);
            for c in m.cache_levels.iter() {
                c.check()
                    .unwrap_or_else(|why| panic!("{} {}: {why}", m.name, c.name));
            }
            assert_eq!(m.cache_levels.len(), levels.len(), "{}", m.name);
            for (have, want) in m.cache_levels.iter().zip(&levels) {
                let CacheConfig {
                    name,
                    size_bytes,
                    associativity,
                    line_bytes,
                    latency_cycles,
                } = have;
                assert_eq!(*name, want.name);
                assert_eq!(*size_bytes, want.size_bytes, "{name}");
                assert_eq!(*associativity, want.associativity, "{name}");
                assert_eq!(*line_bytes, want.line_bytes, "{name}");
                assert_eq!(latency_cycles.to_bits(), want.latency_cycles.to_bits());
            }
            // The same machine built of owned parts compares equal.
            let owned = MachineModel {
                name: Cow::Owned(m.name.to_string()),
                cache_levels: Cow::Owned(levels),
                ..m.clone()
            };
            assert!(matches!(owned.cache_levels, Cow::Owned(_)));
            assert_eq!(owned, m);
        }
    }

    #[test]
    fn issue_widths_match_microarchitectures() {
        assert_eq!(xeon_e5_2420().core.issue_width, 4.0);
        assert_eq!(atom_c2758().core.issue_width, 2.0);
    }

    #[test]
    fn voltage_curves_stay_physical_over_sweep() {
        for m in both() {
            for f in Frequency::SWEEP {
                let v = m.operating_point(f).voltage;
                assert!((0.7..=1.2).contains(&v), "{}: {v} V at {f}", m.name);
            }
        }
    }

    #[test]
    fn big_core_hides_memory_and_io_better() {
        let x = xeon_e5_2420().core;
        let a = atom_c2758().core;
        assert!(x.mem_hide > a.mem_hide);
        assert!(x.io_overlap > a.io_overlap);
        assert!(x.pipeline_efficiency > a.pipeline_efficiency);
        assert!(x.copy_bytes_per_cycle > 2.0 * a.copy_bytes_per_cycle);
    }
}
