//! The six workloads. Each one is a set-up sequence (timed as `setup_s`)
//! and a pass of identical work that is repeated, verified and hashed.
//! Sizes are constants next to each workload, chosen so that one pass
//! takes at least 0.8 s on the 2-core host the benchmark was written on.

mod engine;
mod fabric;
mod figures;
mod replicate;

use crate::metrics::Layers;
use crate::trace::Tracer;

/// Workload names, in `--all` order.
pub const NAMES: [&str; 6] = [
    "figures-cold",
    "figures-warm",
    "engine-clean",
    "engine-chaos",
    "fabric-shuffle",
    "replicate",
];

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOut {
    /// Wall seconds of the simulated work alone (verification excluded).
    pub wall_s: f64,
    /// Hash of every simulated output of the pass.
    pub digest: u64,
    /// Whether the outputs passed the workload's verification.
    pub verified: bool,
    /// Operations attempted (artifact renders, engine runs, solver runs,
    /// replication seeds).
    pub attempted: u64,
    /// Operations that failed unexpectedly.
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// Whether `--seed` changes the inputs (the figures workloads are the
    /// paper's fixed artifact set and ignore it).
    fn uses_seed(&self) -> bool;

    /// One repetition of the set-up sequence: builds every input of the
    /// pass from `seed`, replacing what an earlier repetition built.
    fn setup(&mut self, seed: u64, layers: &mut Layers);

    /// One pass over the inputs of the last [`Workload::setup`]. Spans go
    /// to `tracer`, per-layer counts and rates to `layers`.
    fn pass(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> PassOut;

    /// Stand-alone measurements of layers this workload leans on but
    /// cannot isolate inside its pass; run once, on traced runs only.
    fn probes(&mut self, tracer: &mut Tracer, layers: &mut Layers);
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "figures-cold" => Box::new(figures::Figures::cold()),
        "figures-warm" => Box::new(figures::Figures::warm()),
        "engine-clean" => Box::new(engine::Clean::default()),
        "engine-chaos" => Box::new(engine::Chaos::default()),
        "fabric-shuffle" => Box::new(fabric::Fabric::default()),
        "replicate" => Box::new(replicate::Replicate::default()),
        _ => return None,
    })
}

/// SplitMix64: the seeded stream every workload derives its inputs from.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_nothing_else_does() {
        for n in NAMES {
            assert!(by_name(n).is_some(), "{n}");
        }
        assert!(by_name("figures").is_none());
        assert!(!by_name("figures-cold").unwrap().uses_seed());
        assert!(by_name("engine-chaos").unwrap().uses_seed());
    }

    #[test]
    fn splitmix_is_a_pure_function_of_its_state() {
        let (mut a, mut b) = (7, 7);
        assert_eq!(splitmix(&mut a), splitmix(&mut b));
        assert_ne!(splitmix(&mut a), splitmix(&mut { 8 }));
    }
}
