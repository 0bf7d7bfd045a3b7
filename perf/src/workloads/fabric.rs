//! `fabric-shuffle`: the max-min flow solver of `core::shuffle`, alone.
//!
//! An all-to-all shuffle over a racked, oversubscribed fabric with seeded
//! per-reducer byte skew, so completions are staggered and fair shares
//! are re-solved many times — once without crashes and once with two
//! source nodes dying mid-transfer.

use crate::clock::Stopwatch;

use hhsim_core::hdfs::{NodeId, Topology};
use hhsim_core::shuffle::{flow_finish_times, flow_finish_times_with_crashes, Flow};

use super::engine::des_probes;
use super::{splitmix, PassOut, Workload};
use crate::digest::Digest;
use crate::metrics::{rate, Layers};
use crate::trace::Tracer;

/// The solver re-solves max-min shares over every flow at every
/// completion, so its cost grows roughly with the fourth power of the
/// node count: 110 nodes (11 990 flows) is what fits a one-second pass.
const NODES: usize = 110;
const RACKS: usize = 11;
const OVERSUBSCRIPTION: f64 = 4.0;
/// Mean bytes one reducer pulls from one source node.
const MEAN_FLOW_BYTES: f64 = 8.0e6;
/// Distinct reducer sizes: one per reducer, so no two reducers finish
/// together and fair shares are re-solved at every completion.
const SKEW_LEVELS: u64 = 110;
/// When the two crashing sources die, as shares of the crash-free
/// shuffle's duration.
const CRASHES_AT: [f64; 2] = [0.3, 0.6];
/// The two crashing sources, before the seed relabels them.
const CRASHING: [usize; 2] = [5, 67];

struct Inputs {
    topology: Topology,
    flows: Vec<Flow>,
    crashes: Vec<(usize, f64)>,
}

#[derive(Default)]
pub struct Fabric {
    inputs: Option<Inputs>,
}

/// Seconds `flow` would take with the fabric to itself: its bytes over
/// the narrowest link on its path.
fn uncontended_s(topology: &Topology, flow: &Flow) -> f64 {
    if flow.src == flow.dst || flow.bytes <= 0.0 {
        return 0.0;
    }
    let mut cap = topology.node_bytes_per_s;
    if !topology.same_rack(NodeId(flow.src), NodeId(flow.dst)) {
        cap = cap.min(topology.uplink_bytes_per_s());
    }
    flow.bytes / cap
}

impl Workload for Fabric {
    fn uses_seed(&self) -> bool {
        true
    }

    /// Builds the flow set: every node sends to every other node, the
    /// bytes scaled by the destination reducer's skew level. The pattern
    /// itself is fixed; the seed relabels it along the fabric's
    /// symmetries (rotating the racks and the positions within a rack),
    /// so every seed gives different flows, crashing sources and finish
    /// times but the same amount of solver work. One crash-free solve
    /// tells how long the shuffle lasts, so that both sources die
    /// mid-transfer.
    fn setup(&mut self, seed: u64, _layers: &mut Layers) {
        let topology = Topology::racked(RACKS, OVERSUBSCRIPTION);
        let mut rng = seed;
        let rack_shift = (splitmix(&mut rng) % RACKS as u64) as usize;
        let slot_shift = (splitmix(&mut rng) % (NODES / RACKS) as u64) as usize;
        // Node n hangs off rack n % RACKS, at position n / RACKS in it.
        let relabel = |n: usize| {
            (n % RACKS + rack_shift) % RACKS + RACKS * ((n / RACKS + slot_shift) % (NODES / RACKS))
        };
        let mut flows = Vec::with_capacity(NODES * (NODES - 1));
        for dst in 0..NODES {
            // A fixed permutation of the levels (37 is coprime to NODES).
            let level = (dst * 37 + 11) % NODES % SKEW_LEVELS as usize;
            let bytes = MEAN_FLOW_BYTES * (0.5 + level as f64 / SKEW_LEVELS as f64);
            for src in (0..NODES).filter(|&src| src != dst) {
                flows.push(Flow {
                    src: relabel(src),
                    dst: relabel(dst),
                    bytes,
                });
            }
        }
        let (first, second) = (relabel(CRASHING[0]), relabel(CRASHING[1]));
        let lasts_s = flow_finish_times(&topology, NODES, &flows)
            .into_iter()
            .fold(0.0, f64::max);
        self.inputs = Some(Inputs {
            topology,
            flows,
            crashes: vec![
                (first, CRASHES_AT[0] * lasts_s),
                (second, CRASHES_AT[1] * lasts_s),
            ],
        });
    }

    fn pass(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> PassOut {
        let Inputs {
            topology,
            flows,
            crashes,
        } = self.inputs.as_ref().expect("setup ran");
        let started = Stopwatch::start();
        let (clean, clean_s) = tracer.span("flow_finish_times", "shuffle", |_| {
            flow_finish_times(topology, NODES, flows)
        });
        let (crashed, crash_s) = tracer.span("flow_finish_times_with_crashes", "shuffle", |_| {
            flow_finish_times_with_crashes(topology, NODES, flows, crashes)
        });
        let wall_s = started.seconds();
        layers.set("shuffle.flows", flows.len() as f64);
        layers.set(
            "shuffle.flows_per_s.clean",
            rate(flows.len() as f64, clean_s),
        );
        layers.set(
            "shuffle.flows_per_s.crash",
            rate(flows.len() as f64, crash_s),
        );

        // No flow beats its uncontended time; a cancelled flow leaves at
        // the instant its source died, every other flow of a crashed
        // source had already finished by then.
        let mut verified = clean.len() == flows.len() && crashed.finish_s.len() == flows.len();
        let mut digest = Digest::new();
        let mut cancelled = 0u64;
        for (i, flow) in flows.iter().enumerate() {
            let floor = uncontended_s(topology, flow) * (1.0 - 1e-9);
            verified &= clean[i] >= floor;
            let died = crashes.iter().find(|(n, _)| *n == flow.src).map(|c| c.1);
            if crashed.cancelled[i] {
                cancelled += 1;
                verified &= died.is_some_and(|at| (crashed.finish_s[i] - at).abs() < 1e-6);
            } else {
                verified &= crashed.finish_s[i] >= floor;
                verified &= died.map_or(true, |at| crashed.finish_s[i] <= at + 1e-6);
            }
            digest.u64(((flow.src as u64) << 32) | flow.dst as u64);
            digest.f64(clean[i]);
            digest.f64(crashed.finish_s[i]);
        }
        verified &= cancelled > 0;
        digest.u64(cancelled);
        PassOut {
            wall_s,
            digest: digest.finish(),
            verified,
            attempted: 2,
            failed: 0,
        }
    }

    fn probes(&mut self, tracer: &mut Tracer, layers: &mut Layers) {
        des_probes(tracer, layers);
    }
}
