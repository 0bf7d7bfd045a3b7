//! Power measurement and cost metrics for `hhsim`.
//!
//! Reproduces the paper's §1.1/§1.2 methodology:
//!
//! * a simulated **Wattsup PRO** meter ([`StreamingMeter`]) samples
//!   whole-system power once per (virtual) second over the `(duration,
//!   watts)` segments pushed into it and reports the average
//!   ([`MeterReading`]) beside the exact integral; the idle floor is
//!   subtracted to isolate dynamic dissipation;
//! * **operational cost** is measured by Energy-Delay^X products (EDP,
//!   ED²P, ED³P) and **capital cost** by Energy-Delay^X-Area products
//!   (EDAP, ED²AP), with chip areas from Intel datasheets (Atom 160 mm²,
//!   Xeon 216 mm²) — see [`CostMetrics`].
//!
//! # Examples
//!
//! ```
//! use hhsim_energy::{CostMetrics, StreamingMeter};
//!
//! let mut meter = StreamingMeter::new();
//! meter.push(10.0, 150.0); // 10 s at 150 W
//! meter.push(5.0, 90.0);   // 5 s at 90 W
//! let reading = meter.finish().meter;
//! assert!((reading.average_watts - 130.0).abs() < 1.0);
//!
//! let m = CostMetrics::new(1000.0, 20.0, 216.0);
//! assert_eq!(m.edp(), 20_000.0);
//! assert_eq!(m.edxp(2), 400_000.0);
//! ```

// Every lossy `as` cast in shipped code names why it cannot lose bits,
// in an `#[expect]` at the site (test code is exempt).
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

mod integrate;
mod meter;
mod metrics;
mod timeline;

pub use integrate::{EnergyReading, StreamingMeter};
pub use meter::{MeterReading, SAMPLE_INTERVAL_S};
pub use metrics::{CostMetrics, MetricKind};
pub use timeline::UtilizationTimeline;
