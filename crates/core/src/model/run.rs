//! Running a priced cluster and reading it: the one job/phase loop, both
//! meters, and [`SimConfig::run`], the one door into them. The engine's
//! phase runs fill a [`Measurement`]'s times and counters; a meter decides
//! its five energy fields (`energy_j`, `exact_energy_j`, `cost`,
//! `map_cost`, `reduce_cost`) and nothing else.

use hhsim_arch::ComputeProfile;
use hhsim_energy::{CostMetrics, StreamingMeter, UtilizationTimeline};
use hhsim_faults::{FaultConfig, FaultStats, NodeFaults, PhaseError, PhaseFaults};
use hhsim_mapreduce::PhaseBreakdown;

use super::config::{Measurement, SimConfig};
use super::contract::{Reading, SimError};
use super::prep::{of_kind, ClusterPrep, KindPrep, PhasePrep};
use crate::cluster::{
    run_phase_fetching, ClusterTimeline, EngineScratch, FetchView, FifoAnySlot, KindPreferring,
    PhaseRun, Placement, SlotStats, StepBuffers,
};
use crate::simcache::SimCache;

/// How a run's power and energy are read off its phase runs. The paper
/// has one Wattsup meter; the model has two readings of it, chosen by
/// [`Reading`] and config shape (module docs), never by a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Meter {
    /// One power level per phase on the one machine model, times the node
    /// count.
    PhaseAverage,
    /// Every node's time-resolved slot occupancy through its own power
    /// model.
    PerNode,
}

/// DRAM-intensity knob for the power model, derived from the profile's
/// non-resident access fractions.
fn mem_intensity(p: &ComputeProfile) -> f64 {
    ((1.0 - p.mem.hot_fraction) * 1.8 + 0.15).clamp(0.0, 1.0)
}

impl ClusterPrep<'_> {
    /// Streams one phase run's per-node power into the node meters,
    /// pricing the engine's time-resolved slot occupancy through each
    /// node's power model, and returns the phase's exact dynamic energy
    /// over all nodes.
    ///
    /// Each utilization piece is priced once and integrated exactly —
    /// O(transitions) per node, with the 1 Hz metered view resolving
    /// inside the [`StreamingMeter`]. The step functions are built in
    /// `steps`, one node at a time.
    fn charge_phase(
        &self,
        run: &PhaseRun,
        prof: &ComputeProfile,
        [big_io, little_io]: [f64; 2],
        meters: &mut [StreamingMeter],
        steps: &mut StepBuffers,
    ) -> f64 {
        let mut dynamic_j = 0.0;
        run.node_steps(self.cluster.nodes.len(), steps, |i, node_steps| {
            let (Some((node, m)), Some(meter)) = (self.node(i), meters.get_mut(i)) else {
                return;
            };
            let op = m.operating_point(self.cfg.frequency);
            let util = UtilizationTimeline::new(std::mem::take(node_steps), run.makespan_s);
            let node_io = of_kind(node.kind, big_io, little_io);
            // -0.0 seeds the same fold as `StreamingMeter::exact_energy_j`
            // (and an iterator `sum()`), so this phase's exact energy is
            // bit-identical to the meter's own integral.
            let mut node_j = -0.0;
            for (dur, active) in util.pieces() {
                // A node with no running task draws only its idle floor —
                // DRAM/disk activity follows the tasks, not the cluster.
                let (activity, mem, io) = if active > 0 {
                    (prof.activity, mem_intensity(prof), node_io)
                } else {
                    (0.0, 0.0, 0.0)
                };
                let w = m
                    .power
                    .node_power(op, active, m.num_cores, activity, mem, io)
                    .total();
                if dur > 0.0 {
                    node_j += dur * w;
                }
                meter.push(dur, w);
            }
            dynamic_j += node_j - m.power.node_idle_w * run.makespan_s;
            *node_steps = util.into_steps();
        });
        dynamic_j
    }

    /// Runs the prepared cluster under one fault configuration (or none)
    /// and has the prep's meter read the measurement off it. Only what the
    /// fault seed decides happens here — node fates, the phases' fault plans,
    /// the engine runs, metering — on loads and labels borrowed from the
    /// prep and in buffers borrowed from `scratch`: once `scratch` has run
    /// the prep, a run of another seed makes no allocator call short of a
    /// buffer outgrowing its high-water mark. Every phase run is this
    /// call's own: once read, it goes back to the scratch for the next
    /// phase of either engine to write into. `timeline`, when there is one
    /// to fill, receives every phase's spans on the run's clock; the
    /// measurement does not depend on it.
    ///
    /// # Errors
    ///
    /// Returns the [`PhaseError`] of the first unrecoverable phase.
    pub(crate) fn run(
        &self,
        faults: Option<&FaultConfig>,
        scratch: &mut RunScratch,
        mut timeline: Option<&mut ClusterTimeline>,
    ) -> Result<Measurement, PhaseError> {
        let (cluster, meter) = (&self.cluster, self.meter);
        let nodes_total = cluster.nodes.len();
        let RunScratch {
            steps,
            holders,
            engine,
            fates,
            phase_faults,
            meters,
        } = scratch;

        // Node fate (crash times, stragglers) is sampled once per run,
        // so a node that dies in one phase stays dead for every later
        // phase.
        if let Some(fc) = faults {
            fates.sample_into(fc, nodes_total);
        }
        let mut fault_stats = FaultStats::default();
        let mut phase_idx: u64 = 0;

        if meter == Meter::PerNode {
            debug_assert!(self.cfg.accel.is_none(), "validated: no offload per node");
            meters.resize_with(nodes_total, StreamingMeter::new);
            meters.iter_mut().for_each(StreamingMeter::reset);
        }
        let mut map_slots = SlotStats::default();
        let mut reduce_slots = SlotStats::default();
        let mut map_wall = 0.0;
        let mut reduce_wall = 0.0;
        let mut hotspot_wall = 0.0f64;
        let mut map_dyn_j = 0.0;
        let mut red_dyn_j = 0.0;
        let mut offset = 0.0;
        let mut map_locality_tiers = [0u64; 3];
        let (mut fifo, mut by_kind) = (
            FifoAnySlot,
            self.preferred.map(|preferred| KindPreferring { preferred }),
        );
        let placement: &mut dyn Placement = match by_kind.as_mut() {
            Some(kind_preferring) => kind_preferring,
            None => &mut fifo,
        };
        // One phase under the seed: its fault plan, the engine run, the
        // timeline sink and the node meters. `fetch` is the reduce phase's
        // recovery plan. Returns the run and its exact dynamic energy.
        let mut run = |phase: &PhasePrep,
                       reduce: bool,
                       fetch: Option<FetchView<'_>>,
                       engine: &mut EngineScratch| {
            let prof = if reduce {
                &self.red_prof
            } else {
                &self.map_prof
            };
            let phase_faults = faults.map(|fc| {
                let rate = fc.phase_rate(reduce);
                fates.phase_into(fc, phase_idx, rate, offset, phase_faults);
                &*phase_faults
            });
            let run =
                run_phase_fetching(cluster, &phase.load, placement, phase_faults, fetch, engine)?;
            phase_idx += 1;
            fault_stats.absorb(&run.faults);
            if let Some(timeline) = timeline.as_deref_mut() {
                match phase.label {
                    (base, Some(ji)) => timeline.extend(&format!("{base}{ji}"), offset, &run),
                    (base, None) => timeline.extend(base, offset, &run),
                }
            }
            offset += run.makespan_s;
            let dyn_j = match meter {
                Meter::PhaseAverage => 0.0,
                Meter::PerNode => self.charge_phase(&run, prof, phase.io_frac, meters, steps),
            };
            Ok((run, dyn_j))
        };

        for job in self.jobs() {
            let (map_run, dyn_j) = run(&job.map, false, None, engine)?;
            map_slots.absorb(&map_run.slots);
            for s in &map_run.spans {
                if let Some(c) = map_locality_tiers.get_mut(s.tier.idx()) {
                    *c += 1;
                }
            }
            map_wall += map_run.makespan_s;
            hotspot_wall = hotspot_wall.max(map_run.makespan_s);
            map_dyn_j += dyn_j;

            let Some(reduce) = &job.reduce else {
                engine.recycle(map_run);
                continue;
            };
            // Hadoop fetch-failure semantics need a replica layout on an
            // active topology and, per seed, faults (a holder can die);
            // either alone keeps the legacy reduce path bitwise intact. The
            // plan is the map phase's layout, held where this seed's map
            // attempts won.
            let fetch = (faults.and(job.map.fetch_view(self.topology, &[]))).and_then(|_| {
                holders.clear();
                holders.extend(map_run.spans.iter().map(|s| s.node));
                job.map.fetch_view(self.topology, holders)
            });
            engine.recycle(map_run);
            let (red_run, dyn_j) = run(reduce, true, fetch, engine)?;
            reduce_slots.absorb(&red_run.slots);
            reduce_wall += red_run.makespan_s;
            red_dyn_j += dyn_j;
            engine.recycle(red_run);
        }

        let walls = PhaseBreakdown::new(map_wall, reduce_wall, self.others_wall);
        let Metered {
            breakdown,
            phase_energy_j: (map_j, reduce_j),
            energy_j,
            exact_energy_j,
            area,
        } = match meter {
            Meter::PhaseAverage => self.phase_average(walls, hotspot_wall),
            Meter::PerNode => self.per_node(walls, meters, map_dyn_j, red_dyn_j),
        };
        Ok(Measurement {
            breakdown,
            map_slots,
            reduce_slots,
            faults: fault_stats,
            map_locality_tiers,
            energy_j,
            exact_energy_j,
            cost: CostMetrics::new(energy_j, breakdown.total(), area),
            map_cost: CostMetrics::new(map_j, breakdown.map_s.max(1e-9), area),
            reduce_cost: CostMetrics::new(reduce_j, breakdown.reduce_s.max(1e-9), area),
        })
    }

    /// The phase-average meter: one power level per phase from the
    /// dominant job's task mix and the share of the slots the waves fill,
    /// on the roster's one machine model, times the node count. Also the
    /// only reader of an accelerated run (§3.4): just the hotspot map (the
    /// chained job with the largest map wall) is offloaded — the paper
    /// profiles for the hotspot region and assumes *those* map tasks move
    /// to the FPGA; auxiliary jobs' maps stay on the CPU.
    fn phase_average(&self, walls: PhaseBreakdown, hotspot_wall: f64) -> Metered {
        let KindPrep { m, slots, .. } = self.lead;
        let nodes = self.cluster.nodes.len();
        let total_slots = slots * nodes;
        let mut breakdown = walls;
        if let Some(acc) = &self.cfg.accel {
            let rest_map = walls.map_s - hotspot_wall;
            let primary = self.ratios.primary();
            let transfer = (self.cfg.data_per_node_bytes as f64
                * nodes as f64
                * (1.0 + primary.map_selectivity))
                / nodes as f64
                / slots as f64;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a non-negative byte volume per slot, far below u64::MAX; the accelerator model takes whole bytes"
            )]
            let hot_accel = hhsim_accel::accelerate(
                &PhaseBreakdown::new(hotspot_wall, 0.0, 0.0),
                transfer as u64,
                acc,
            );
            breakdown =
                PhaseBreakdown::new(hot_accel.map_s + rest_map, walls.reduce_s, walls.others_s);
        }

        // One power level per phase: the task mix of the phase's profile on
        // as many slots as its waves fill on average.
        let op = m.operating_point(self.cfg.frequency);
        let power = |tasks: usize, prof: &ComputeProfile, io_frac| {
            let util = (tasks as f64 / total_slots as f64).min(1.0);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a share `util` <= 1 of `slots`, rounded back to whole slots"
            )]
            let active = ((slots as f64 * util).round() as usize).max(usize::from(tasks > 0));
            let mem = mem_intensity(prof);
            m.power
                .node_power(op, active, m.num_cores, prof.activity, mem, io_frac)
        };
        let dominant = &self.dominant.timing;
        let io_frac_map = (dominant.map_io_task / dominant.map_task_s.max(1e-9)).clamp(0.0, 1.0);
        let n_map_total = self.jobs().map(|j| j.timing.n_map).sum();
        let p_map = power(n_map_total, &self.map_prof, io_frac_map);
        let red_task_s: f64 = self.jobs().map(|j| j.timing.red_task_s).sum();
        let red_io_task: f64 = self.jobs().map(|j| j.timing.red_io_task).sum();
        let io_frac_red = if red_task_s > 0.0 {
            (red_io_task / red_task_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let n_red_total = self.jobs().map(|j| j.timing.n_red).sum();
        let p_red = power(n_red_total, &self.red_prof, io_frac_red);
        let [big_oth, little_oth] = self.oth_power;
        let oth_w = of_kind(m.core.kind, big_oth, little_oth);

        let mut meter = StreamingMeter::new();
        meter.push(breakdown.map_s, p_map.total());
        meter.push(breakdown.reduce_s, p_red.total());
        meter.push(breakdown.others_s, oth_w);
        let idle = m.power.node_idle_w;
        let exact_dynamic_j = (meter.exact_energy_j() - idle * meter.duration_s()).max(0.0);
        let reading = meter.finish().meter;

        // One node's phase energy, then `× nodes`: the cluster's.
        let phase_j = |seconds: f64, dynamic_w: f64| seconds * dynamic_w * nodes as f64;
        Metered {
            breakdown,
            phase_energy_j: (
                phase_j(breakdown.map_s, p_map.dynamic()),
                phase_j(breakdown.reduce_s, p_red.dynamic()),
            ),
            energy_j: reading.dynamic_energy_j(idle) * nodes as f64,
            exact_energy_j: exact_dynamic_j * nodes as f64,
            area: slots as f64 * m.area_mm2,
        }
    }

    /// The per-node meter: closes the node meters `charge_phase` streamed
    /// every phase into with the others window, and sums them.
    fn per_node(
        &self,
        breakdown: PhaseBreakdown,
        node_meters: &mut [StreamingMeter],
        map_dyn_j: f64,
        red_dyn_j: f64,
    ) -> Metered {
        let nodes = &self.cluster.nodes;
        let [big_oth, little_oth] = self.oth_power;
        for (meter, node) in node_meters.iter_mut().zip(nodes) {
            meter.push(self.others_wall, of_kind(node.kind, big_oth, little_oth));
        }

        // Finish every node's streamed 1 Hz view and exact integral. Engaged
        // area: average per-node slots × chip area, comparable to the
        // phase-average meter's `slots * area`.
        let mut energy_j = 0.0;
        let mut exact_energy_j = 0.0;
        let mut area_sum = 0.0;
        for (i, meter) in node_meters.iter().enumerate() {
            let Some((node, m)) = self.node(i) else {
                continue;
            };
            let er = meter.finish();
            energy_j += er.meter.dynamic_energy_j(m.power.node_idle_w);
            exact_energy_j += er.exact_dynamic_energy_j(m.power.node_idle_w);
            area_sum += node.slots as f64 * m.area_mm2;
        }
        Metered {
            breakdown,
            phase_energy_j: (map_dyn_j, red_dyn_j),
            energy_j,
            exact_energy_j,
            area: area_sum / nodes.len() as f64,
        }
    }
}

/// What a meter makes of a run: the [`Measurement`]'s energy fields are
/// put together from it, and its breakdown is the run's (with an
/// accelerated map phase, the offloaded one).
struct Metered {
    breakdown: PhaseBreakdown,
    /// Dynamic energy of the (map, reduce) phases over all nodes, joules.
    phase_energy_j: (f64, f64),
    energy_j: f64,
    exact_energy_j: f64,
    area: f64,
}

/// Buffers one cluster run fills and the next reuses: owned by a harness
/// worker across the points and seeds of a plan, or by a single call, and
/// freed with it. Nothing a run leaves here is read by the next (each user
/// clears before it fills).
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    /// Per-node step functions of the phase being charged.
    steps: StepBuffers,
    /// Map-output holders of the reduce phase's fetch plan.
    holders: Vec<usize>,
    /// Both engines' tables and the last phase run.
    engine: EngineScratch,
    /// The seed's node fates.
    fates: NodeFaults,
    /// The fault plan of the phase being run.
    phase_faults: PhaseFaults,
    /// One meter per node, reset at the start of a run (the per-node
    /// reading only).
    meters: Vec<StreamingMeter>,
}

impl SimConfig {
    /// Runs this point: checks it against the config contract for
    /// `reading`, prices it, runs it under its own faults and reads it.
    /// The run is memoized in `cache` under the config, the meter `reading`
    /// resolves to and whether the timeline is kept, an unrecoverable run
    /// as its error; so is what pricing shares (stall splits, functional
    /// runs). The timeline is `Some` exactly under [`Reading::Traced`].
    /// The engines run in buffers of this call's own, freed when it
    /// returns; a [`Plan`](crate::harness::Plan) runs its points in one
    /// set of buffers per worker instead.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the config breaks the contract, before
    /// anything is priced; [`SimError::Unrecoverable`] with the error of
    /// the first phase fault injection made unrecoverable.
    pub fn run(
        &self,
        cache: &SimCache,
        reading: Reading,
    ) -> Result<(Measurement, Option<ClusterTimeline>), SimError> {
        self.run_in(cache, reading, &mut RunScratch::default())
    }

    /// [`SimConfig::run`] in the buffers of `scratch`, which a harness
    /// worker keeps from point to point (a point `cache` holds reads
    /// none of them).
    pub(crate) fn run_in(
        &self,
        cache: &SimCache,
        reading: Reading,
        scratch: &mut RunScratch,
    ) -> Result<(Measurement, Option<ClusterTimeline>), SimError> {
        let valid = self.validate(reading)?;
        let traced = reading == Reading::Traced;
        cache.point_run(valid, traced, || {
            let prep = ClusterPrep::new(valid, cache);
            let mut timeline = traced.then(|| ClusterTimeline::new(&prep.cluster));
            let faults = self.active_faults();
            let m = prep.run(faults.as_ref(), scratch, timeline.as_mut())?;
            Ok((m, timeline))
        })
    }

    /// What [`SimConfig::run`] returns when that needs no run: the
    /// contract's [`SimError`], or the run `cache` holds (a hit). `None`
    /// for a valid point `cache` does not hold, which it counts as
    /// nothing.
    pub(crate) fn held(
        &self,
        cache: &SimCache,
        reading: Reading,
    ) -> Option<Result<(Measurement, Option<ClusterTimeline>), SimError>> {
        match self.validate(reading) {
            Ok(valid) => cache.held_point(valid, reading == Reading::Traced),
            Err(e) => Some(Err(e.into())),
        }
    }
}

/// [`SimConfig::run`] read by its own meter against the process-wide
/// [`SimCache`]: the measurement alone.
///
/// # Panics
///
/// Panics with the [`SimError`] when the config breaks the contract or
/// fault injection makes the run unrecoverable.
pub fn simulate(cfg: &SimConfig) -> Measurement {
    recovered(cfg.run(SimCache::global(), Reading::Auto)).0
}

/// What the infallible wrappers ([`simulate`], the grid and plan runners)
/// make of a run's outcome.
pub(crate) fn recovered<T>(outcome: Result<T, SimError>) -> T {
    match outcome {
        Ok(r) => r,
        // hhsim: allow(panic-in-engine): the infallible wrappers' one panic; SimConfig::run returns the same error typed
        Err(e) => panic!("simulation failed: {e}"),
    }
}
