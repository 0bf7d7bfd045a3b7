//! Flow-fair shuffle contention over the two-tier network topology.
//!
//! The reduce phase's all-to-all shuffle is the traffic pattern a rack
//! fabric actually throttles: every map-side node streams its partition
//! to every reduce-side node at once, and the racks' oversubscribed ToR
//! uplinks become the shared bottleneck the flat
//! `bytes / NIC_bandwidth` model cannot see.
//!
//! This module prices a set of concurrent [`Flow`]s with **max-min
//! flow-fair sharing** (progressive filling): every link — each node's
//! up and down link plus each rack's ToR uplink and downlink — divides
//! its capacity evenly among the flows crossing it, bottleneck links
//! saturate first, and released bandwidth is re-divided among the
//! remaining flows. Rates are piecewise constant between flow
//! completions, so the fluid system is integrated *exactly* on the DES
//! calendar ([`hhsim_des::Simulation`]): one completion event at a
//! time, recomputing shares after each.
//!
//! Everything is deterministic: no randomness, no wall clock, pure
//! `f64` arithmetic in a fixed order.

use hhsim_des::{SimTime, Simulation};
use hhsim_hdfs::Topology;

/// One shuffle transfer: `bytes` moving from node `src` to node `dst`.
/// Same-node transfers (`src == dst`) never touch the network and
/// complete at time zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Sending node id.
    pub src: usize,
    /// Receiving node id.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: f64,
}

/// The shared links of a two-tier fabric, flattened into one capacity
/// vector: node up / node down / rack up / rack down.
struct Links {
    caps: Vec<f64>,
    nodes: usize,
    racks: usize,
}

impl Links {
    fn new(topology: &Topology, nodes: usize) -> Self {
        let racks = topology.racks.max(1);
        let mut caps = Vec::with_capacity(2 * nodes + 2 * racks);
        for _ in 0..2 * nodes {
            caps.push(topology.node_bytes_per_s);
        }
        for _ in 0..2 * racks {
            caps.push(topology.uplink_bytes_per_s());
        }
        Links { caps, nodes, racks }
    }

    fn node_up(&self, n: usize) -> usize {
        n
    }

    fn node_down(&self, n: usize) -> usize {
        self.nodes + n
    }

    fn rack_up(&self, r: usize) -> usize {
        2 * self.nodes + r
    }

    fn rack_down(&self, r: usize) -> usize {
        2 * self.nodes + self.racks + r
    }

    /// Link ids a flow crosses: its endpoints' node links, plus both
    /// rack links when the endpoints sit in different racks (intra-rack
    /// traffic turns around inside the ToR switch).
    fn path(&self, f: &Flow) -> Vec<usize> {
        let ra = f.src % self.racks;
        let rb = f.dst % self.racks;
        let mut p = vec![self.node_up(f.src), self.node_down(f.dst)];
        if ra != rb {
            p.push(self.rack_up(ra));
            p.push(self.rack_down(rb));
        }
        p
    }
}

/// Max-min fair rates for the `active` flows over `links` (progressive
/// filling): repeatedly saturate the most-contended link, freeze its
/// flows at the fair share, release their capacity elsewhere.
fn fair_rates(paths: &[Vec<usize>], active: &[bool], links: &Links) -> Vec<f64> {
    let n = paths.len();
    let mut rate = vec![0.0; n];
    let mut frozen: Vec<bool> = active.iter().map(|a| !a).collect();
    let mut cap = links.caps.clone();
    let mut load = vec![0usize; cap.len()];
    for (p, &a) in paths.iter().zip(active) {
        if a {
            for &l in p {
                if let Some(c) = load.get_mut(l) {
                    *c += 1;
                }
            }
        }
    }
    loop {
        // The bottleneck: smallest per-flow share among loaded links.
        let mut bottleneck: Option<(usize, f64)> = None;
        for (l, (&c, &n_flows)) in cap.iter().zip(&load).enumerate() {
            if n_flows == 0 {
                continue;
            }
            let share = c / n_flows as f64;
            if !bottleneck.is_some_and(|(_, s)| share >= s) {
                bottleneck = Some((l, share));
            }
        }
        let Some((bl, share)) = bottleneck else {
            break;
        };
        // Freeze every unfrozen flow crossing the bottleneck at the
        // fair share and release its claim on the rest of its path.
        for (i, p) in paths.iter().enumerate() {
            let is_frozen = frozen.get(i).copied().unwrap_or(true);
            if is_frozen || !p.contains(&bl) {
                continue;
            }
            if let Some(f) = frozen.get_mut(i) {
                *f = true;
            }
            if let Some(r) = rate.get_mut(i) {
                *r = share;
            }
            for &l in p {
                if let Some(c) = cap.get_mut(l) {
                    *c = (*c - share).max(0.0);
                }
                if let Some(c) = load.get_mut(l) {
                    *c = c.saturating_sub(1);
                }
            }
        }
    }
    rate
}

/// Calendar events of the fluid-flow integration.
#[derive(Debug, Clone, Copy)]
enum FlowEvent {
    /// `node` dies: every flow it is still sourcing is cancelled.
    Crash(usize),
    /// The earliest finisher at the rates of the last recomputation
    /// runs dry.
    Completion,
}

/// Fluid-flow state between completion events.
struct FlowState {
    remaining: Vec<f64>,
    active: Vec<bool>,
    rates: Vec<f64>,
    finish_s: Vec<f64>,
    cancelled: Vec<bool>,
    last_t: SimTime,
    live: usize,
}

impl FlowState {
    /// Drains `rate × (now - last_t)` from every active flow and records
    /// finish times for the ones that ran dry.
    fn settle(&mut self, now: SimTime) {
        let dt = now.saturating_sub(self.last_t).as_secs_f64();
        self.last_t = now;
        let now_s = now.as_secs_f64();
        for i in 0..self.remaining.len() {
            if !self.active.get(i).copied().unwrap_or(false) {
                continue;
            }
            let rate = self.rates.get(i).copied().unwrap_or(0.0);
            let left = match self.remaining.get_mut(i) {
                Some(r) => {
                    *r = (*r - rate * dt).max(0.0);
                    *r
                }
                None => continue,
            };
            // A flow is done when its residue is negligible against one
            // microsecond of its own rate — ties complete together.
            if left <= rate * 1e-6 {
                if let Some(a) = self.active.get_mut(i) {
                    *a = false;
                }
                if let Some(f) = self.finish_s.get_mut(i) {
                    *f = now_s;
                }
                self.live -= 1;
            }
        }
    }

    /// Drops every flow `node` is still sourcing at `now`: the fluid
    /// system settles at the rates that were valid until then, and the
    /// next recomputation hands the released bandwidth to the survivors.
    fn crash(&mut self, node: usize, flows: &[Flow], now: SimTime) {
        self.settle(now);
        let now_s = now.as_secs_f64();
        for (i, f) in flows.iter().enumerate() {
            if f.src != node || !self.active.get(i).copied().unwrap_or(false) {
                continue;
            }
            if let Some(a) = self.active.get_mut(i) {
                *a = false;
            }
            if let Some(c) = self.cancelled.get_mut(i) {
                *c = true;
            }
            if let Some(f) = self.finish_s.get_mut(i) {
                *f = now_s;
            }
            self.live -= 1;
        }
    }

    /// Seconds until the next active flow completes at current rates.
    fn next_completion_s(&self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for ((&left, &rate), &a) in self.remaining.iter().zip(&self.rates).zip(&self.active) {
            if !a || rate <= 0.0 {
                continue;
            }
            let dt = left / rate;
            if !best.is_some_and(|b| dt >= b) {
                best = Some(dt);
            }
        }
        best
    }
}

/// Per-flow outcome of a shuffle whose sources can crash mid-transfer:
/// finish (or cancellation) times plus which flows never completed.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcomes {
    /// Time each flow left the fabric, seconds: its completion, or the
    /// crash instant for cancelled flows. Order matches the input.
    pub finish_s: Vec<f64>,
    /// True for flows cancelled because their source node crashed while
    /// they were still transferring.
    pub cancelled: Vec<bool>,
}

/// Finish time in seconds of every flow when all of them start at time
/// zero and share the fabric max-min fairly. Same-node and empty flows
/// finish at `0.0`. Output order matches `flows`.
///
/// The fluid system is exact: rates are recomputed at every completion
/// on a [`Simulation`] calendar, so the result is the closed-form
/// max-min trajectory, independent of any time-step size.
pub fn flow_finish_times(topology: &Topology, nodes: usize, flows: &[Flow]) -> Vec<f64> {
    flow_finish_times_with_crashes(topology, nodes, flows, &[]).finish_s
}

/// [`flow_finish_times`] with crash-cancelled sources: each `(node,
/// at_s)` entry kills `node` at `at_s`, cancelling every flow it is
/// still sourcing *at that instant* on the calendar and re-settling
/// max-min fair shares among the survivors — released bandwidth speeds
/// the remaining flows up from the crash onward. An empty crash list
/// reproduces [`flow_finish_times`] exactly.
pub fn flow_finish_times_with_crashes(
    topology: &Topology,
    nodes: usize,
    flows: &[Flow],
    crashes: &[(usize, f64)],
) -> FlowOutcomes {
    let links = Links::new(topology, nodes.max(1));
    let paths: Vec<Vec<usize>> = flows.iter().map(|f| links.path(f)).collect();
    let mut active: Vec<bool> = Vec::with_capacity(flows.len());
    let mut live = 0usize;
    for f in flows {
        let a = f.src != f.dst && f.bytes > 0.0;
        active.push(a);
        live += usize::from(a);
    }
    let mut st = FlowState {
        remaining: flows.iter().map(|f| f.bytes).collect(),
        rates: vec![0.0; flows.len()],
        finish_s: vec![0.0; flows.len()],
        cancelled: vec![false; flows.len()],
        active,
        last_t: SimTime::ZERO,
        live,
    };

    let mut sim = Simulation::default();
    // Crash events go on the calendar up front.
    for &(node, at_s) in crashes {
        if at_s < 0.0 {
            continue;
        }
        sim.push_in(SimTime::from_secs_f64(at_s), FlowEvent::Crash(node));
    }
    // One completion event in flight at a time: recompute fair shares,
    // schedule the earliest finisher, settle when it fires, repeat.
    // Crash events may land before a scheduled completion; the stale
    // completion event then just settles (a no-op drain at the already-
    // recomputed rates) and the loop schedules the true next finisher.
    loop {
        if st.live > 0 {
            st.rates = fair_rates(&paths, &st.active, &links);
            if let Some(dt) = st.next_completion_s() {
                sim.push_in(SimTime::from_secs_f64(dt), FlowEvent::Completion);
            }
        }
        match sim.pop() {
            Some(FlowEvent::Crash(node)) => st.crash(node, flows, sim.now()),
            Some(FlowEvent::Completion) => st.settle(sim.now()),
            None => break,
        }
    }
    FlowOutcomes {
        finish_s: st.finish_s,
        cancelled: st.cancelled,
    }
}

/// Contended shuffle-fetch time per reduce task.
///
/// Reducer `r` is pinned to node `r % nodes` (reducers spread evenly),
/// pulls `bytes_per_reducer / nodes` from every node's map output, and
/// all reducers fetch concurrently — the all-to-all pattern that makes
/// the ToR uplinks the shared bottleneck. Returns each reducer's
/// last-flow finish time, in reducer order.
pub fn reduce_fetch_seconds(
    topology: &Topology,
    nodes: usize,
    reducers: usize,
    bytes_per_reducer: f64,
) -> Vec<f64> {
    let nodes = nodes.max(1);
    if reducers == 0 || bytes_per_reducer <= 0.0 {
        return vec![0.0; reducers];
    }
    let per_src = bytes_per_reducer / nodes as f64;
    let mut flows = Vec::with_capacity(reducers * nodes.saturating_sub(1));
    let mut owner = Vec::with_capacity(reducers * nodes.saturating_sub(1));
    for r in 0..reducers {
        let dst = r % nodes;
        for src in 0..nodes {
            if src == dst {
                continue;
            }
            flows.push(Flow {
                src,
                dst,
                bytes: per_src,
            });
            owner.push(r);
        }
    }
    let finish = flow_finish_times(topology, nodes, &flows);
    let mut out = vec![0.0; reducers];
    for (&r, &t) in owner.iter().zip(&finish) {
        if let Some(slot) = out.get_mut(r) {
            if t > *slot {
                *slot = t;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_rack() -> Topology {
        Topology::racked(1, 1.0)
    }

    #[test]
    fn single_flow_runs_at_node_line_rate() {
        let t = one_rack();
        let bytes = 117.0e6; // one second at GigE payload rate
        let times = flow_finish_times(
            &t,
            2,
            &[Flow {
                src: 0,
                dst: 1,
                bytes,
            }],
        );
        assert_eq!(times.len(), 1);
        assert!(
            (times.first().copied().unwrap_or(0.0) - 1.0).abs() < 1e-6,
            "got {times:?}"
        );
    }

    #[test]
    fn same_node_and_empty_flows_are_free() {
        let t = one_rack();
        let times = flow_finish_times(
            &t,
            2,
            &[
                Flow {
                    src: 0,
                    dst: 0,
                    bytes: 1e9,
                },
                Flow {
                    src: 0,
                    dst: 1,
                    bytes: 0.0,
                },
            ],
        );
        assert_eq!(times, vec![0.0, 0.0]);
    }

    #[test]
    fn shared_source_uplink_halves_each_flow() {
        let t = one_rack();
        let bytes = 117.0e6;
        let times = flow_finish_times(
            &t,
            3,
            &[
                Flow {
                    src: 0,
                    dst: 1,
                    bytes,
                },
                Flow {
                    src: 0,
                    dst: 2,
                    bytes,
                },
            ],
        );
        for ft in &times {
            assert!((ft - 2.0).abs() < 1e-5, "fair halves, got {times:?}");
        }
    }

    #[test]
    fn released_bandwidth_speeds_up_the_survivor() {
        // Two flows share node 0's uplink; the short one finishes at
        // t=1 (half rate), after which the long one runs at full rate:
        // 2 units at half rate until t=1 leaves 1 unit, done at t=2... the
        // exact max-min trajectory: finish(long) = 3 units total? long has
        // 2x bytes: t in [0,2]: both at rate/2, short (1x) done at t=2;
        // long has 1x left, full rate, done at t=3.
        let t = one_rack();
        let unit = 117.0e6;
        let times = flow_finish_times(
            &t,
            3,
            &[
                Flow {
                    src: 0,
                    dst: 1,
                    bytes: unit,
                },
                Flow {
                    src: 0,
                    dst: 2,
                    bytes: 2.0 * unit,
                },
            ],
        );
        let short = times.first().copied().unwrap_or(0.0);
        let long = times.get(1).copied().unwrap_or(0.0);
        assert!((short - 2.0).abs() < 1e-5, "got {times:?}");
        assert!((long - 3.0).abs() < 1e-5, "got {times:?}");
    }

    #[test]
    fn oversubscribed_uplink_throttles_cross_rack_traffic() {
        // 4 nodes, 2 racks. Node 0 and node 2 are rack 0; nodes 1, 3 are
        // rack 1. All four cross-rack flows share the two rack links.
        let bytes = 117.0e6;
        let flows = [
            Flow {
                src: 0,
                dst: 1,
                bytes,
            },
            Flow {
                src: 2,
                dst: 3,
                bytes,
            },
        ];
        let fast = flow_finish_times(&Topology::racked(2, 1.0), 4, &flows);
        // Oversubscription 16 → uplink = 10*GigE/16 < GigE: the rack
        // uplink, shared by both flows, becomes the bottleneck.
        let slow = flow_finish_times(&Topology::racked(2, 16.0), 4, &flows);
        for (f, s) in fast.iter().zip(&slow) {
            assert!(s > f, "oversubscription must slow cross-rack flows");
        }
        // With full bisection the 10 GigE core is no bottleneck: each
        // flow runs at node line rate.
        for f in &fast {
            assert!((f - 1.0).abs() < 1e-5, "got {fast:?}");
        }
    }

    #[test]
    fn intra_rack_traffic_ignores_the_uplink() {
        // Nodes 0 and 2 share rack 0 of 2: their flow never crosses the
        // core, so even absurd oversubscription leaves it at line rate.
        let bytes = 117.0e6;
        let flows = [Flow {
            src: 0,
            dst: 2,
            bytes,
        }];
        let a = flow_finish_times(&Topology::racked(2, 1.0), 4, &flows);
        let b = flow_finish_times(&Topology::racked(2, 64.0), 4, &flows);
        assert_eq!(a, b);
        assert!((a.first().copied().unwrap_or(0.0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn fetch_seconds_monotone_in_oversubscription() {
        let mut prev = 0.0;
        for over in [1.0, 2.0, 4.0, 8.0, 16.0] {
            let t = Topology::racked(3, over);
            let fetch = reduce_fetch_seconds(&t, 6, 12, 512.0 * 1e6);
            let worst = fetch.iter().copied().fold(0.0, f64::max);
            assert!(
                worst >= prev - 1e-9,
                "oversubscription {over}: {worst} < {prev}"
            );
            prev = worst;
        }
    }

    #[test]
    fn deterministic() {
        let t = Topology::racked(3, 4.0);
        let a = reduce_fetch_seconds(&t, 9, 18, 1e9);
        let b = reduce_fetch_seconds(&t, 9, 18, 1e9);
        assert_eq!(a, b);
    }

    #[test]
    fn crashed_source_flow_is_cancelled_and_bandwidth_released() {
        // Regression: a flow sourced from a crashed node used to keep
        // filling bandwidth to completion. Flows 0→1 and 2→1 share node
        // 1's downlink at half rate each; node 0 dies at t=1, so its
        // flow must be cancelled there and the survivor must finish on
        // the released full rate: 1.5 units left at t=1 → done at 2.5,
        // not the contended 4.0.
        let t = one_rack();
        let unit = 117.0e6;
        let flows = [
            Flow {
                src: 0,
                dst: 1,
                bytes: 2.0 * unit,
            },
            Flow {
                src: 2,
                dst: 1,
                bytes: 2.0 * unit,
            },
        ];
        let out = flow_finish_times_with_crashes(&t, 3, &flows, &[(0, 1.0)]);
        assert_eq!(out.cancelled, vec![true, false]);
        let dead = out.finish_s.first().copied().unwrap_or(0.0);
        let live = out.finish_s.get(1).copied().unwrap_or(0.0);
        assert!((dead - 1.0).abs() < 1e-5, "cancelled at crash: {out:?}");
        assert!((live - 2.5).abs() < 1e-5, "released bandwidth: {out:?}");
        // The buggy (crash-blind) trajectory keeps both at half rate.
        let blind = flow_finish_times(&t, 3, &flows);
        for b in &blind {
            assert!((b - 4.0).abs() < 1e-5, "got {blind:?}");
        }
    }

    #[test]
    fn no_crashes_reproduces_flow_finish_times_exactly() {
        let t = Topology::racked(2, 8.0);
        let flows = [
            Flow {
                src: 0,
                dst: 1,
                bytes: 3.0e8,
            },
            Flow {
                src: 1,
                dst: 2,
                bytes: 1.0e8,
            },
            Flow {
                src: 3,
                dst: 0,
                bytes: 2.0e8,
            },
        ];
        let plain = flow_finish_times(&t, 4, &flows);
        let out = flow_finish_times_with_crashes(&t, 4, &flows, &[]);
        assert_eq!(out.finish_s, plain);
        assert_eq!(out.cancelled, vec![false; 3]);
    }

    #[test]
    fn crash_after_completion_cancels_nothing() {
        let t = one_rack();
        let flows = [Flow {
            src: 0,
            dst: 1,
            bytes: 117.0e6, // one second at line rate
        }];
        let out = flow_finish_times_with_crashes(&t, 2, &flows, &[(0, 5.0)]);
        assert_eq!(out.cancelled, vec![false]);
        assert!((out.finish_s.first().copied().unwrap_or(0.0) - 1.0).abs() < 1e-5);
    }
}
