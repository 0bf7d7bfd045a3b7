//! `replicate`: batched Monte Carlo replication through
//! `ReplicationPlan::run_with` on a private memo.
//!
//! Thousands of fault seeds of the fig22 rack configuration and of the
//! fig20 3-node configuration: the only workload where model pricing
//! (`ClusterPrep::run_seeded`), the streaming energy meter, fault
//! sampling and the harness's batching dominate. The memo's ratio and
//! stall tables are warm and its phase table is cold on every pass.

use crate::clock::Stopwatch;

use hhsim_core::arch::presets;
use hhsim_core::energy::{MetricKind, StreamingMeter};
use hhsim_core::figures::{
    fig19_faults, fig22_faults, FAULT_BLOCK, FIG22_OVERSUB, MICRO_DATA, TOPO_RACKS,
};
use hhsim_core::harness::Aggregate;
use hhsim_core::hdfs::{BlockSize, Topology};
use hhsim_core::workloads::AppId;
use hhsim_core::{
    harness, NodeMix, PlacementKind, ReplicationPlan, ReplicationSummary, SimCache, SimConfig,
};

use super::figures::small_shuffle_probe;
use super::{PassOut, Workload};
use crate::digest::Digest;
use crate::metrics::{rate, Layers};
use crate::trace::Tracer;

/// Seeds of the fig22 rack configuration (12 nodes, 4 racks, 4 switch
/// crashes per rack-hour).
const RACK_SEEDS: u64 = 5_120;
/// Seeds of the fig20 3-node configuration (6 % attempt failures).
const SMALL_SEEDS: u64 = 10_240;
/// Seeds of the worker-count invariance check (untimed).
const INVARIANCE_SEEDS: u64 = 64;
/// The `energy.*` probe: a 14 400 s trace in 100 k segments.
const METER_SEGMENTS: usize = 100_000;
const METER_DURATION_S: f64 = 14_400.0;
const METER_REPEATS: usize = 20;

const APP: AppId = AppId::TeraSort;

fn rack_config() -> SimConfig {
    SimConfig::new(APP, presets::xeon_e5_2420())
        .data_per_node(MICRO_DATA)
        .block_size(BlockSize::MB_256)
        .topology(Topology::racked(TOPO_RACKS, FIG22_OVERSUB))
        .faults(fig22_faults(4.0, true))
        .mix(NodeMix {
            big: 4,
            little: 8,
            placement: PlacementKind::PaperClass(MetricKind::Edp),
        })
}

fn small_config() -> SimConfig {
    SimConfig::new(APP, presets::atom_c2758())
        .data_per_node(MICRO_DATA)
        .block_size(FAULT_BLOCK)
        .faults(fig19_faults(0.06, true))
}

fn digest_aggregate(d: &mut Digest, a: &Aggregate) {
    d.u64(a.n);
    for v in [a.mean, a.min, a.max, a.ci95] {
        d.f64(v);
    }
}

fn digest_summary(d: &mut Digest, s: &ReplicationSummary) {
    d.u64(s.replications);
    d.u64(s.failed_runs);
    for a in [&s.makespan_s, &s.energy_j, &s.exact_energy_j, &s.edp] {
        digest_aggregate(d, a);
    }
    d.u64(s.faults.wasted_attempts());
    d.u64(s.faults.node_crashes + s.faults.rack_crashes);
    d.f64(s.faults.wasted_slot_s);
}

struct Inputs {
    cache: SimCache,
    rack: ReplicationPlan,
    small: ReplicationPlan,
    invariance: ReplicationPlan,
}

impl Inputs {
    /// Empties the memo and recomputes what set-up keeps warm: the
    /// application's ratios and both machines' stall splits.
    fn rewarm(&self) {
        self.cache.clear();
        self.cache.ratios(APP);
        for m in presets::both() {
            self.cache.stall_split(&m, &APP.map_profile());
            self.cache.stall_split(&m, &APP.reduce_profile());
        }
    }
}

#[derive(Default)]
pub struct Replicate {
    inputs: Option<Inputs>,
}

impl Workload for Replicate {
    fn uses_seed(&self) -> bool {
        true
    }

    /// Builds the two plans (the seed is the base of both seed ranges)
    /// and warms the private memo.
    fn setup(&mut self, seed: u64, _layers: &mut Layers) {
        let base = seed.wrapping_mul(1 << 20);
        let inputs = Inputs {
            cache: SimCache::new(),
            rack: ReplicationPlan::new(rack_config(), base..base + RACK_SEEDS),
            small: ReplicationPlan::new(small_config(), base..base + SMALL_SEEDS),
            invariance: ReplicationPlan::new(rack_config(), base..base + INVARIANCE_SEEDS),
        };
        inputs.rewarm();
        self.inputs = Some(inputs);
    }

    fn pass(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> PassOut {
        let inputs = self.inputs.as_ref().expect("setup ran");
        // `SimCache` can only be cleared whole, so the phase table is made
        // cold by clearing and re-warming the rest — outside the pass wall.
        inputs.rewarm();
        let workers = harness::jobs();
        let started = Stopwatch::start();
        let (rack, rack_s) = tracer.span("replicate:rack", "harness", |_| {
            inputs.rack.run_with(workers, &inputs.cache)
        });
        let (small, small_s) = tracer.span("replicate:small", "harness", |_| {
            inputs.small.run_with(workers, &inputs.cache)
        });
        let wall_s = started.seconds();
        layers.set("harness.rack.reps_per_s", rate(RACK_SEEDS as f64, rack_s));
        layers.set(
            "harness.small.reps_per_s",
            rate(SMALL_SEEDS as f64, small_s),
        );
        // Seeds whose job dies (every replica of a block lost, no usable
        // node left) are results of the fault model, not failures of the
        // benchmark: they are reported, not counted as failed operations.
        layers.set(
            "harness.failed_runs",
            (rack.failed_runs + small.failed_runs) as f64,
        );
        let stats = inputs.cache.stats();
        layers.set("simcache.hits", stats.hits as f64);
        layers.set("simcache.misses", stats.misses as f64);
        layers.set("simcache.hit_ratio", stats.hit_rate());
        layers.set("simcache.run_entries", stats.run_entries as f64);
        layers.set("simcache.stall_entries", stats.stall_entries as f64);
        layers.set("simcache.phase_entries", stats.phase_entries as f64);

        let mut verified = rack.replications == RACK_SEEDS
            && small.replications == SMALL_SEEDS
            && rack.makespan_s.n + rack.failed_runs == RACK_SEEDS
            && small.makespan_s.n + small.failed_runs == SMALL_SEEDS;
        // The summary does not depend on the worker count.
        let one = inputs.invariance.run_with(1, &inputs.cache);
        inputs.rewarm();
        let two = inputs.invariance.run_with(2, &inputs.cache);
        verified &= one == two && one.replications == INVARIANCE_SEEDS;

        let mut digest = Digest::new();
        digest_summary(&mut digest, &rack);
        digest_summary(&mut digest, &small);
        digest_summary(&mut digest, &one);
        PassOut {
            wall_s,
            digest: digest.finish(),
            verified,
            attempted: RACK_SEEDS + SMALL_SEEDS,
            failed: 0,
        }
    }

    fn probes(&mut self, tracer: &mut Tracer, layers: &mut Layers) {
        // The streaming meter alone, on the energy_scale "large" trace.
        let d = METER_DURATION_S / METER_SEGMENTS as f64;
        let watts = |i: usize| 80.0 + (i % 13) as f64 * 10.0 + (i % 7) as f64 * 3.0;
        let mut samples = 0u64;
        let (_, secs) = tracer.span("probe:streaming_meter", "energy", |_| {
            for _ in 0..METER_REPEATS {
                let mut meter = StreamingMeter::new();
                for i in 0..METER_SEGMENTS {
                    meter.push(d, watts(i));
                }
                samples += std::hint::black_box(meter.finish()).meter.samples as u64;
            }
        });
        layers.set("energy.samples_per_s", rate(samples as f64, secs));
        layers.set(
            "energy.segments_per_s",
            rate((METER_REPEATS * METER_SEGMENTS) as f64, secs),
        );
        layers.set("shuffle.small.solves_per_s", small_shuffle_probe(tracer));
    }
}
