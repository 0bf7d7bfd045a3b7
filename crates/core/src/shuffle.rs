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
//! `f64` arithmetic in a fixed order. Flows are visited in ascending id
//! order everywhere — per link and overall — so the solver's data layout
//! (DESIGN.md, "Flow-fair shuffle contention") cannot move a bit of the
//! result.

use hhsim_des::{SimTime, Simulation};
use hhsim_hdfs::{NodeId, Topology};

/// One shuffle transfer: `bytes` moving from node `src` to node `dst`.
/// Same-node transfers (`src == dst`) never touch the network and
/// complete at time zero, as do empty ones (`bytes <= 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Sending node id.
    pub src: usize,
    /// Receiving node id.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: f64,
}

impl Flow {
    /// True when a fabric of `nodes` nodes can carry this flow: both
    /// endpoints are its nodes and the byte count is finite. (Routed
    /// anyway, an out-of-range endpoint would land on another node's
    /// link and slow that node's flows.)
    fn fits(&self, nodes: usize) -> bool {
        self.src < nodes && self.dst < nodes && self.bytes.is_finite()
    }
}

// Flows touched by the solver's loops on this thread: the work measure
// the oracle tests compare with the reference solver's. Beside it, what
// the fast solver's event loop did: its max-min solves, and the
// completion events it settled, split by whether they finished a flow.
#[cfg(test)]
thread_local! {
    static FLOW_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static SOLVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static SETTLED_COMPLETIONS: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// Adds `n` flows about to be looped over to the test-only work counter;
/// outside test builds there is no counter and this is empty.
fn count_visits(_n: usize) {
    #[cfg(test)]
    FLOW_VISITS.with(|c| c.set(c.get() + _n as u64));
}

/// Counts one max-min solve of the fast solver (test builds only).
fn count_solve() {
    #[cfg(test)]
    SOLVES.with(|c| c.set(c.get() + 1));
}

/// Counts one completion event settled by the fast solver's loop, by
/// whether it finished `_finished > 0` flows (test builds only).
fn count_settled_completion(_finished: usize) {
    #[cfg(test)]
    SETTLED_COMPLETIONS.with(|c| {
        let [some, none] = c.get();
        c.set(if _finished > 0 {
            [some + 1, none]
        } else {
            [some, none + 1]
        });
    });
}

/// The shared links of a two-tier fabric, flattened into one capacity
/// vector: node up / node down / rack up / rack down.
struct Links {
    caps: Vec<f64>,
    nodes: usize,
    racks: usize,
    /// [`Topology::rack_of`] each node, tabulated: its division would
    /// sit on the solver's hottest path otherwise.
    rack_of: Vec<usize>,
}

/// The link ids one flow crosses, in the order its share is charged to
/// them: two for intra-rack traffic, four across racks. A pure function
/// of `(src, dst)`, so it is recomputed where needed and never stored.
struct Path {
    links: [usize; 4],
    len: usize,
}

impl Path {
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.links.iter().copied().take(self.len)
    }
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
        Links {
            caps,
            nodes,
            racks,
            rack_of: (0..nodes).map(|n| topology.rack_of(NodeId(n))).collect(),
        }
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
    fn path(&self, f: &Flow) -> Path {
        let rack = |n: usize| self.rack_of.get(n).copied().unwrap_or(0);
        let (ra, rb) = (rack(f.src), rack(f.dst));
        let (up, down) = (self.node_up(f.src), self.node_down(f.dst));
        if ra == rb {
            Path {
                links: [up, down, 0, 0],
                len: 2,
            }
        } else {
            Path {
                links: [up, down, self.rack_up(ra), self.rack_down(rb)],
                len: 4,
            }
        }
    }
}

/// Link → the flows crossing it, in compressed-sparse-row form: link
/// `l`'s flows are `flows[start[l]..start[l] + len[l]]`, ascending.
/// Built once per solve from the flows that start live; a list only
/// ever shrinks, when [`FlowState::fair_rates`] scans it as a bottleneck
/// and drops the flows that have left the fabric since.
struct Adjacency {
    start: Vec<usize>,
    len: Vec<usize>,
    flows: Vec<usize>,
}

impl Adjacency {
    fn new(links: &Links, flows: &[Flow], live: &[usize]) -> Self {
        let paths = || {
            live.iter()
                .filter_map(|&i| flows.get(i).map(|f| (i, links.path(f))))
        };
        let mut len = vec![0usize; links.caps.len()];
        for (_, path) in paths() {
            for l in path.iter() {
                if let Some(c) = len.get_mut(l) {
                    *c += 1;
                }
            }
        }
        let mut start = Vec::with_capacity(len.len());
        let mut total = 0;
        for &c in &len {
            start.push(total);
            total += c;
        }
        // `live` is ascending, so filling each link's row front to back
        // in that order leaves every row ascending.
        let mut entries = vec![0usize; total];
        let mut next = start.clone();
        for (i, path) in paths() {
            for l in path.iter() {
                let Some(slot) = next.get_mut(l) else {
                    continue;
                };
                if let Some(e) = entries.get_mut(*slot) {
                    *e = i;
                }
                *slot += 1;
            }
        }
        Adjacency {
            start,
            len,
            flows: entries,
        }
    }

    /// Link `l`'s current row.
    fn row_mut(&mut self, l: usize) -> &mut [usize] {
        let start = self.start.get(l).copied().unwrap_or(0);
        let len = self.len.get(l).copied().unwrap_or(0);
        self.flows.get_mut(start..start + len).unwrap_or_default()
    }
}

/// Calendar events of the fluid-flow integration.
#[derive(Debug, Clone, Copy)]
enum FlowEvent {
    /// `node` dies: every flow it is still sourcing is cancelled.
    Crash(usize),
    /// The earliest finisher at the rates of solve number `.0`
    /// ([`FlowState::solves`]) runs dry. Once a later solve has replaced
    /// those rates the event is stale, and the loop drops it unread.
    Completion(usize),
}

/// [`FlowState::frozen_at`] of a flow that is not (or no longer) on the
/// fabric.
const GONE: usize = usize::MAX;

/// Fluid-flow state between completion events.
struct FlowState<'a> {
    flows: &'a [Flow],
    links: Links,
    adjacency: Adjacency,
    /// Flows still transferring, ascending.
    live: Vec<usize>,
    /// Live flows per link, decremented along a flow's path as it leaves.
    load: Vec<usize>,
    remaining: Vec<f64>,
    rates: Vec<f64>,
    /// Per flow, the [`FlowState::fair_rates`] call that last fixed its
    /// rate, or [`GONE`]: one comparison tells a bottleneck scan that a
    /// flow is already frozen in this call or has left for good.
    frozen_at: Vec<usize>,
    /// [`FlowState::fair_rates`] calls so far: the stamp of the one
    /// completion event that is not stale.
    solves: usize,
    /// Scratch of one `fair_rates` call: capacity and unfrozen flows
    /// left per link.
    cap: Vec<f64>,
    unfrozen: Vec<usize>,
    finish_s: Vec<f64>,
    cancelled: Vec<bool>,
    last_t: SimTime,
}

impl<'a> FlowState<'a> {
    /// Every flow at time zero. A flow the fabric cannot carry
    /// ([`Flow::fits`]) never enters it and never finishes.
    fn new(topology: &Topology, nodes: usize, flows: &'a [Flow]) -> Self {
        let nodes = nodes.max(1);
        let links = Links::new(topology, nodes);
        let mut live = Vec::with_capacity(flows.len());
        let mut finish_s = vec![0.0; flows.len()];
        let mut frozen_at = vec![GONE; flows.len()];
        for (i, (f, (finish, frozen))) in flows
            .iter()
            .zip(finish_s.iter_mut().zip(frozen_at.iter_mut()))
            .enumerate()
        {
            if !f.fits(nodes) {
                *finish = f64::INFINITY;
            } else if f.src != f.dst && f.bytes > 0.0 {
                live.push(i);
                *frozen = 0;
            }
        }
        let adjacency = Adjacency::new(&links, flows, &live);
        FlowState {
            flows,
            load: adjacency.len.clone(),
            adjacency,
            live,
            remaining: flows.iter().map(|f| f.bytes).collect(),
            rates: vec![0.0; flows.len()],
            frozen_at,
            solves: 0,
            cap: Vec::with_capacity(links.caps.len()),
            unfrozen: Vec::with_capacity(links.caps.len()),
            links,
            finish_s,
            cancelled: vec![false; flows.len()],
            last_t: SimTime::ZERO,
        }
    }

    /// Max-min fair rates for the live flows (progressive filling):
    /// repeatedly saturate the most-contended link, freeze its flows at
    /// the fair share, release their capacity elsewhere. Returns the
    /// seconds until the first live flow runs dry at the new rates.
    ///
    /// A round visits only the bottleneck's adjacency row, in ascending
    /// flow order — the order a scan over all flows would meet them in —
    /// so each link's `cap` goes through the same sequence of
    /// subtractions either way.
    fn fair_rates(&mut self) -> Option<f64> {
        count_solve();
        self.solves += 1;
        let solve = self.solves;
        self.cap.clone_from(&self.links.caps);
        self.unfrozen.clone_from(&self.load);
        let mut next_completion_s: Option<f64> = None;
        loop {
            // The bottleneck: smallest per-flow share among loaded links.
            let mut bottleneck: Option<(usize, f64)> = None;
            for (l, (&c, &n_flows)) in self.cap.iter().zip(&self.unfrozen).enumerate() {
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
            // fair share and release its claim on the rest of its path;
            // flows that left the fabric are compacted out of the row.
            let row = self.adjacency.row_mut(bl);
            count_visits(row.len());
            let mut kept = 0;
            let mut least_left: Option<f64> = None;
            for k in 0..row.len() {
                let Some(&i) = row.get(k) else {
                    break;
                };
                let Some(frozen) = self.frozen_at.get_mut(i) else {
                    continue;
                };
                if *frozen == GONE {
                    continue;
                }
                if let Some(slot) = row.get_mut(kept) {
                    *slot = i;
                }
                kept += 1;
                if *frozen == solve {
                    continue;
                }
                *frozen = solve;
                if let Some(r) = self.rates.get_mut(i) {
                    *r = share;
                }
                let left = self.remaining.get(i).copied().unwrap_or(0.0);
                if !least_left.is_some_and(|m| left >= m) {
                    least_left = Some(left);
                }
                let Some(path) = self.flows.get(i).map(|f| self.links.path(f)) else {
                    continue;
                };
                for l in path.iter() {
                    if let Some(c) = self.cap.get_mut(l) {
                        *c = (*c - share).max(0.0);
                    }
                    if let Some(c) = self.unfrozen.get_mut(l) {
                        *c = c.saturating_sub(1);
                    }
                }
            }
            if let Some(len) = self.adjacency.len.get_mut(bl) {
                *len = kept;
            }
            // The round's first finisher is the flow with the least left:
            // they all drain at `share`, and a correctly rounded division
            // is monotone in its numerator, so one division per round
            // yields the very `f64` a minimum over `left / share` of each
            // flow would. A starved round (share 0) finishes nothing.
            if let Some(left) = least_left.filter(|_| share > 0.0) {
                let dt = left / share;
                if !next_completion_s.is_some_and(|b| dt >= b) {
                    next_completion_s = Some(dt);
                }
            }
        }
        next_completion_s
    }

    /// Takes live flow `i` off the fabric at `at_s`.
    fn leave(&mut self, i: usize, at_s: f64) {
        if let Some(frozen) = self.frozen_at.get_mut(i) {
            *frozen = GONE;
        }
        if let Some(f) = self.finish_s.get_mut(i) {
            *f = at_s;
        }
        let Some(path) = self.flows.get(i).map(|f| self.links.path(f)) else {
            return;
        };
        for l in path.iter() {
            if let Some(c) = self.load.get_mut(l) {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// Drains `rate × (now - last_t)` from every live flow and records
    /// finish times for the ones that ran dry; returns how many did.
    fn settle(&mut self, now: SimTime) -> usize {
        let dt = now.saturating_sub(self.last_t).as_secs_f64();
        self.last_t = now;
        let now_s = now.as_secs_f64();
        let mut live = std::mem::take(&mut self.live);
        let before = live.len();
        count_visits(before);
        live.retain(|&i| {
            let rate = self.rates.get(i).copied().unwrap_or(0.0);
            let left = match self.remaining.get_mut(i) {
                Some(r) => {
                    *r = (*r - rate * dt).max(0.0);
                    *r
                }
                None => return false,
            };
            // A flow is done when its residue is negligible against one
            // microsecond of its own rate — ties complete together.
            let done = left <= rate * 1e-6;
            if done {
                self.leave(i, now_s);
            }
            !done
        });
        let finished = before - live.len();
        self.live = live;
        finished
    }

    /// Drops every flow `node` is still sourcing at `now`: the fluid
    /// system settles at the rates that were valid until then, and the
    /// next recomputation hands the released bandwidth to the survivors.
    fn crash(&mut self, node: usize, now: SimTime) {
        self.settle(now);
        let now_s = now.as_secs_f64();
        let mut live = std::mem::take(&mut self.live);
        count_visits(live.len());
        live.retain(|&i| {
            let hit = self.flows.get(i).is_some_and(|f| f.src == node);
            if hit {
                self.leave(i, now_s);
                if let Some(c) = self.cancelled.get_mut(i) {
                    *c = true;
                }
            }
            !hit
        });
        self.live = live;
    }

    /// The outcome once the calendar has run out: whatever is still live
    /// then — no capacity on its path, or more bytes than the calendar's
    /// range can drain — never finishes.
    fn finish(mut self) -> FlowOutcomes {
        for &i in &self.live {
            if let Some(f) = self.finish_s.get_mut(i) {
                *f = f64::INFINITY;
            }
        }
        FlowOutcomes {
            finish_s: self.finish_s,
            cancelled: self.cancelled,
        }
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
///
/// Flows the fabric cannot carry are handled as
/// [`flow_finish_times_with_crashes`] documents.
pub fn flow_finish_times(topology: &Topology, nodes: usize, flows: &[Flow]) -> Vec<f64> {
    flow_finish_times_with_crashes(topology, nodes, flows, &[]).finish_s
}

/// [`flow_finish_times`] with crash-cancelled sources: each `(node,
/// at_s)` entry kills `node` at `at_s`, cancelling every flow it is
/// still sourcing *at that instant* on the calendar and re-settling
/// max-min fair shares among the survivors — released bandwidth speeds
/// the remaining flows up from the crash onward. An empty crash list
/// reproduces [`flow_finish_times`] exactly. Crash entries with a
/// negative or NaN time, or naming a node that sources nothing, do
/// nothing.
///
/// A flow that never finishes reports `f64::INFINITY`, uncancelled:
/// * one the fabric cannot carry (an endpoint `>= nodes`, NaN or
///   infinite bytes) — it is kept off the fabric altogether and takes
///   no bandwidth from the others;
/// * one still transferring when the calendar's range (about 584
///   simulated years) runs out, or whose path has no capacity.
pub fn flow_finish_times_with_crashes(
    topology: &Topology,
    nodes: usize,
    flows: &[Flow],
    crashes: &[(usize, f64)],
) -> FlowOutcomes {
    let mut st = FlowState::new(topology, nodes, flows);
    let mut sim = Simulation::default();
    // Crash events go on the calendar up front.
    for &(node, at_s) in crashes {
        if at_s.is_nan() || at_s < 0.0 {
            continue;
        }
        sim.push_in(SimTime::from_secs_f64(at_s), FlowEvent::Crash(node));
    }
    // At most one live completion in flight: recompute fair shares,
    // schedule the earliest finisher stamped with the solve number,
    // settle when it fires, repeat. A crash that lands first settles,
    // cancels and re-solves, which supersedes the pending completion:
    // when that one pops, its stamp is older than `st.solves`, and it
    // does nothing — no settle, no solve, no push. Once no flow is live,
    // the crashes still pending have nothing left to cancel.
    let mut resolve = true;
    while !st.live.is_empty() {
        if resolve {
            if let Some(dt) = st.fair_rates() {
                sim.push_in(SimTime::from_secs_f64(dt), FlowEvent::Completion(st.solves));
            }
        }
        let Some(event) = sim.pop() else {
            break;
        };
        // The clock saturates here: settling again would drain nothing,
        // and the loop would schedule the same completion forever.
        if sim.now() == SimTime::MAX {
            break;
        }
        resolve = match event {
            FlowEvent::Crash(node) => {
                st.crash(node, sim.now());
                true
            }
            FlowEvent::Completion(solve) if solve == st.solves => {
                count_settled_completion(st.settle(sim.now()));
                true
            }
            FlowEvent::Completion(_) => false,
        };
    }
    st.finish()
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
    let [seconds] = reduce_fetch_seconds_on([topology], nodes, reducers, bytes_per_reducer);
    seconds
}

/// [`reduce_fetch_seconds`] of one fetch pattern on each of `fabrics`:
/// the flows depend on the node and reducer counts only, so they are
/// built once however many fabrics price them.
pub(crate) fn reduce_fetch_seconds_on<const N: usize>(
    fabrics: [&Topology; N],
    nodes: usize,
    reducers: usize,
    bytes_per_reducer: f64,
) -> [Vec<f64>; N] {
    let nodes = nodes.max(1);
    if reducers == 0 || bytes_per_reducer <= 0.0 {
        return fabrics.map(|_| vec![0.0; reducers]);
    }
    let per_src = bytes_per_reducer / nodes as f64;
    let mut flows = Vec::with_capacity(reducers * (nodes - 1));
    for r in 0..reducers {
        let dst = r % nodes;
        for src in (0..nodes).filter(|&src| src != dst) {
            flows.push(Flow {
                src,
                dst,
                bytes: per_src,
            });
        }
    }
    // Reducer r owns flows r × (nodes − 1) .. (r + 1) × (nodes − 1); on
    // one node there are no flows and every reducer fetches in no time.
    fabrics.map(|topology| {
        let finish = flow_finish_times(topology, nodes, &flows);
        let mut out = vec![0.0; reducers];
        for (slot, fetched) in out.iter_mut().zip(finish.chunks((nodes - 1).max(1))) {
            *slot = fetched.iter().copied().fold(0.0, f64::max);
        }
        out
    })
}

/// The solver this module's [`FlowState`] replaced, kept as the oracle it
/// must match bit for bit: shares re-derived from scratch at every crash
/// and completion, every progressive-filling round a scan over all flows.
#[cfg(test)]
mod reference {
    use super::{count_visits, Flow, FlowEvent, FlowOutcomes, Links};
    use hhsim_des::{SimTime, Simulation};
    use hhsim_hdfs::Topology;

    fn fair_rates(paths: &[Vec<usize>], active: &[bool], links: &Links) -> Vec<f64> {
        let n = paths.len();
        let mut rate = vec![0.0; n];
        let mut frozen: Vec<bool> = active.iter().map(|a| !a).collect();
        let mut cap = links.caps.clone();
        let mut load = vec![0usize; cap.len()];
        count_visits(n);
        for (p, &a) in paths.iter().zip(active) {
            if a {
                for &l in p {
                    load[l] += 1;
                }
            }
        }
        loop {
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
            count_visits(n);
            for (i, p) in paths.iter().enumerate() {
                if frozen[i] || !p.contains(&bl) {
                    continue;
                }
                frozen[i] = true;
                rate[i] = share;
                for &l in p {
                    cap[l] = (cap[l] - share).max(0.0);
                    load[l] = load[l].saturating_sub(1);
                }
            }
        }
        rate
    }

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
        fn settle(&mut self, now: SimTime) {
            let dt = now.saturating_sub(self.last_t).as_secs_f64();
            self.last_t = now;
            let now_s = now.as_secs_f64();
            count_visits(self.remaining.len());
            for i in 0..self.remaining.len() {
                if !self.active[i] {
                    continue;
                }
                let rate = self.rates[i];
                self.remaining[i] = (self.remaining[i] - rate * dt).max(0.0);
                if self.remaining[i] <= rate * 1e-6 {
                    self.active[i] = false;
                    self.finish_s[i] = now_s;
                    self.live -= 1;
                }
            }
        }

        fn crash(&mut self, node: usize, flows: &[Flow], now: SimTime) {
            self.settle(now);
            let now_s = now.as_secs_f64();
            count_visits(flows.len());
            for (i, f) in flows.iter().enumerate() {
                if f.src != node || !self.active[i] {
                    continue;
                }
                self.active[i] = false;
                self.cancelled[i] = true;
                self.finish_s[i] = now_s;
                self.live -= 1;
            }
        }

        fn next_completion_s(&self) -> Option<f64> {
            count_visits(self.remaining.len());
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

    pub(super) fn flow_finish_times_with_crashes(
        topology: &Topology,
        nodes: usize,
        flows: &[Flow],
        crashes: &[(usize, f64)],
    ) -> FlowOutcomes {
        let links = Links::new(topology, nodes.max(1));
        let paths: Vec<Vec<usize>> = flows
            .iter()
            .map(|f| links.path(f).iter().collect())
            .collect();
        let active: Vec<bool> = flows
            .iter()
            .map(|f| f.src != f.dst && f.bytes > 0.0)
            .collect();
        let mut st = FlowState {
            remaining: flows.iter().map(|f| f.bytes).collect(),
            rates: vec![0.0; flows.len()],
            finish_s: vec![0.0; flows.len()],
            cancelled: vec![false; flows.len()],
            live: active.iter().filter(|&&a| a).count(),
            active,
            last_t: SimTime::ZERO,
        };
        let mut sim = Simulation::default();
        for &(node, at_s) in crashes {
            if at_s.is_nan() || at_s < 0.0 {
                continue;
            }
            sim.push_in(SimTime::from_secs_f64(at_s), FlowEvent::Crash(node));
        }
        // The fast solver's event semantics, on a counter of its own: a
        // completion stamped by an older solve does nothing.
        let mut solves = 0;
        let mut resolve = true;
        while st.live > 0 {
            if resolve {
                solves += 1;
                st.rates = fair_rates(&paths, &st.active, &links);
                if let Some(dt) = st.next_completion_s() {
                    sim.push_in(SimTime::from_secs_f64(dt), FlowEvent::Completion(solves));
                }
            }
            let Some(event) = sim.pop() else {
                break;
            };
            // The fast solver's break: at a saturated clock a settle
            // drains nothing.
            if sim.now() == SimTime::MAX {
                break;
            }
            resolve = match event {
                FlowEvent::Crash(node) => {
                    st.crash(node, flows, sim.now());
                    true
                }
                FlowEvent::Completion(solve) if solve == solves => {
                    st.settle(sim.now());
                    true
                }
                FlowEvent::Completion(_) => false,
            };
        }
        // What is still live when the calendar runs out never finishes.
        for (finish, &live) in st.finish_s.iter_mut().zip(&st.active) {
            if live {
                *finish = f64::INFINITY;
            }
        }
        FlowOutcomes {
            finish_s: st.finish_s,
            cancelled: st.cancelled,
        }
    }
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

    /// Both solvers on one input: outcomes and flows visited.
    fn solve_both(
        t: &Topology,
        nodes: usize,
        flows: &[Flow],
        crashes: &[(usize, f64)],
    ) -> [(FlowOutcomes, u64); 2] {
        let counted = |solve: &dyn Fn() -> FlowOutcomes| {
            FLOW_VISITS.with(|c| c.set(0));
            let out = solve();
            (out, FLOW_VISITS.with(|c| c.get()))
        };
        [
            counted(&|| flow_finish_times_with_crashes(t, nodes, flows, crashes)),
            counted(&|| reference::flow_finish_times_with_crashes(t, nodes, flows, crashes)),
        ]
    }

    fn assert_bit_identical(fast: &FlowOutcomes, slow: &FlowOutcomes, what: &str) {
        let bits = |o: &FlowOutcomes| o.finish_s.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fast), bits(slow), "{what}: finish_s");
        assert_eq!(fast.cancelled, slow.cancelled, "{what}: cancelled");
    }

    #[test]
    fn solver_matches_the_reference_bit_for_bit() {
        hhsim_testkit::check(300, |g| {
            let nodes = g.usize(2..41);
            // Rack counts that do not divide the node count included.
            let racks = g.usize(1..7);
            let t = Topology::racked(racks, *g.pick(&[1.0, 4.0, 16.0]));
            // Skewed sizes, or a handful of levels so that many flows tie.
            let levels = g.usize(1..6);
            let tied = g.bool(0.5);
            let mut flows = g.vec(0..120, |g| Flow {
                // Same-node flows included.
                src: g.usize(0..nodes),
                dst: g.usize(0..nodes),
                bytes: if g.bool(0.1) {
                    0.0
                } else if tied {
                    1.0e6 * (1 + g.usize(0..levels)) as f64
                } else {
                    1.0e4 + 5.0e7 * g.f64() * g.f64()
                },
            });
            // Duplicate (src, dst) pairs, with equal and unequal sizes.
            for k in 0..g.usize(0..6).min(flows.len()) {
                let mut twin = flows[k * 7 % flows.len()];
                if g.bool(0.5) {
                    twin.bytes *= 0.5;
                }
                flows.push(twin);
            }
            // Flows that outlast the calendar's range at any rate the
            // fabric gives them: they never finish, and they hold their
            // share until the clock saturates.
            for _ in 0..g.usize(0..4) {
                flows.push(Flow {
                    src: g.usize(0..nodes),
                    dst: g.usize(0..nodes),
                    bytes: *g.pick(&[1.0e20, 1.0e30]),
                });
            }
            let lasts_s = reference::flow_finish_times_with_crashes(&t, nodes, &flows, &[])
                .finish_s
                .into_iter()
                .filter(|s| s.is_finite())
                .fold(0.0, f64::max);
            // At zero, mid-transfer and after the last completion, plus
            // entries that name nothing: a negative or NaN time, or a
            // node the fabric does not have.
            let crashes = g.vec(0..5, |g| {
                let at = *g.pick(&[0.0, 0.25, 0.6, 0.6, 1.5, -0.5, f64::NAN]);
                let node = if g.bool(0.15) {
                    nodes + g.usize(0..3)
                } else {
                    g.usize(0..nodes)
                };
                (node, at * lasts_s)
            });
            let [(fast, _), (slow, _)] = solve_both(&t, nodes, &flows, &crashes);
            assert_bit_identical(&fast, &slow, &format!("{nodes} nodes, {racks} racks"));
        });
    }

    /// Every node sends to every other; reducer `dst` pulls a size of its
    /// own, so completions are staggered.
    fn skewed_all_to_all(nodes: usize) -> Vec<Flow> {
        let mut flows = Vec::new();
        for dst in 0..nodes {
            let level = (dst * 37 + 11) % nodes;
            let bytes = 8.0e6 * (0.5 + level as f64 / nodes as f64);
            for src in (0..nodes).filter(|&src| src != dst) {
                flows.push(Flow { src, dst, bytes });
            }
        }
        flows
    }

    #[test]
    fn solver_visits_ten_times_fewer_flows_than_the_reference() {
        let t = Topology::racked(6, 4.0);
        let flows = skewed_all_to_all(60);
        let lasts_s = flow_finish_times(&t, 60, &flows)
            .into_iter()
            .fold(0.0, f64::max);
        let [(fast, fast_visits), (slow, slow_visits)] =
            solve_both(&t, 60, &flows, &[(5, 0.4 * lasts_s)]);
        assert_bit_identical(&fast, &slow, "60-node all-to-all");
        assert!(fast.cancelled.iter().any(|&c| c), "the crash caught flows");
        assert!(
            fast_visits * 10 <= slow_visits,
            "{fast_visits} flow visits against the reference's {slow_visits}"
        );
    }

    #[test]
    fn a_crash_leaves_no_stale_completion() {
        // Regression: a crash re-solved and scheduled a fresh completion
        // but left the one it superseded on the calendar. That one fired
        // later, finished nothing, re-solved the whole fabric and pushed
        // a duplicate, a chain that lasted for the rest of the shuffle.
        let t = Topology::racked(4, 4.0);
        let flows = skewed_all_to_all(40);
        let lasts_s = flow_finish_times(&t, 40, &flows)
            .into_iter()
            .fold(0.0, f64::max);
        let crashes = [3, 17, 29].map(|node| (node, 0.15 * (node % 5 + 1) as f64 * lasts_s));
        SOLVES.with(|c| c.set(0));
        SETTLED_COMPLETIONS.with(|c| c.set([0; 2]));
        let out = flow_finish_times_with_crashes(&t, 40, &flows, &crashes);
        let solves = SOLVES.with(|c| c.get());
        let [finishing, idle] = SETTLED_COMPLETIONS.with(|c| c.get());
        assert!(out.cancelled.iter().any(|&c| c), "the crashes caught flows");
        assert_eq!(idle, 0, "completions that settled nothing");
        assert!(
            solves <= finishing + crashes.len() as u64 + 1,
            "{solves} solves for {finishing} finishing completions"
        );
        let slow = reference::flow_finish_times_with_crashes(&t, 40, &flows, &crashes);
        assert_bit_identical(&out, &slow, "40-node all-to-all, three crashes");
    }

    #[test]
    fn infinite_and_nan_bytes_end_in_infinity_not_a_hang() {
        let t = one_rack();
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let flows = [
                Flow {
                    src: 0,
                    dst: 1,
                    bytes: bad,
                },
                Flow {
                    src: 2,
                    dst: 1,
                    bytes: 117.0e6,
                },
            ];
            // The flow is kept off the fabric: it never finishes and its
            // neighbour keeps node 1's whole downlink.
            let times = flow_finish_times(&t, 3, &flows);
            assert_eq!(times.first().copied(), Some(f64::INFINITY));
            assert!((times.get(1).copied().unwrap_or(0.0) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bytes_beyond_the_calendar_range_never_finish_and_never_hang() {
        // Finite, so the fabric carries it — but at line rate it outlasts
        // the calendar's 584 years, where the clock saturates.
        let t = one_rack();
        let flows = [
            Flow {
                src: 0,
                dst: 1,
                bytes: 1e30,
            },
            Flow {
                src: 0,
                dst: 2,
                bytes: 117.0e6,
            },
        ];
        let out = flow_finish_times_with_crashes(&t, 3, &flows, &[]);
        assert_eq!(out.finish_s.first().copied(), Some(f64::INFINITY));
        // It still holds its fair half of node 0's uplink meanwhile.
        assert!((out.finish_s.get(1).copied().unwrap_or(0.0) - 2.0).abs() < 1e-5);
        assert_eq!(out.cancelled, vec![false, false]);
        let slow = reference::flow_finish_times_with_crashes(&t, 3, &flows, &[]);
        assert_bit_identical(&out, &slow, "a flow beyond the calendar");
    }

    #[test]
    fn a_fabric_without_capacity_carries_nothing() {
        let dead = Topology {
            node_bytes_per_s: 0.0,
            ..one_rack()
        };
        let times = flow_finish_times(
            &dead,
            2,
            &[Flow {
                src: 0,
                dst: 1,
                bytes: 1.0,
            }],
        );
        assert_eq!(times, vec![f64::INFINITY]);
    }

    #[test]
    fn out_of_range_node_never_finishes_and_never_aliases_a_link() {
        // Node 5's uplink id used to equal node 1's downlink id on a
        // 4-node fabric: the stray flow slowed 0 → 1 from 0.855 s to
        // 2.564 s.
        let t = Topology::racked(2, 1.0);
        let good = Flow {
            src: 0,
            dst: 1,
            bytes: 1.0e8,
        };
        let alone = flow_finish_times(&t, 4, &[good]);
        for stray in [
            Flow {
                src: 5,
                dst: 1,
                bytes: 2.0e8,
            },
            Flow {
                src: 1,
                dst: 4,
                bytes: 2.0e8,
            },
        ] {
            let out = flow_finish_times_with_crashes(&t, 4, &[good, stray], &[]);
            assert_eq!(out.finish_s.first(), alone.first(), "{stray:?}");
            assert_eq!(out.finish_s.get(1).copied(), Some(f64::INFINITY));
        }
        assert!((alone.first().copied().unwrap_or(0.0) - 0.8547).abs() < 1e-3);
    }

    #[test]
    fn crash_entries_that_name_nothing_change_nothing() {
        let t = Topology::racked(2, 4.0);
        let flows = skewed_all_to_all(6);
        let plain = flow_finish_times_with_crashes(&t, 6, &flows, &[]);
        // Negative or NaN times, and a node the fabric does not have.
        let inert = [(0, -1.0), (1, f64::NAN), (6, 0.01), (usize::MAX, 0.0)];
        let out = flow_finish_times_with_crashes(&t, 6, &flows, &inert);
        assert_bit_identical(&out, &plain, "inert crash entries");
        // The same node dying twice dies once.
        let once = flow_finish_times_with_crashes(&t, 6, &flows, &[(2, 0.05)]);
        let twice = flow_finish_times_with_crashes(&t, 6, &flows, &[(2, 0.05), (2, 0.07)]);
        assert!(once.cancelled.iter().any(|&c| c));
        assert_bit_identical(&twice, &once, "second crash of a dead node");
    }

    #[test]
    fn one_pattern_on_several_fabrics_equals_separate_solves() {
        let contended = Topology::racked(3, 8.0);
        let flat = Topology::racked(1, 1.0);
        let [a, b] = reduce_fetch_seconds_on([&contended, &flat], 12, 30, 3.0e8);
        assert_eq!(a, reduce_fetch_seconds(&contended, 12, 30, 3.0e8));
        assert_eq!(b, reduce_fetch_seconds(&flat, 12, 30, 3.0e8));
        assert!(a.iter().zip(&b).all(|(c, f)| c > f), "contention bites");
        // Reducer r's time is the slowest of its own nodes − 1 flows.
        let solo = reduce_fetch_seconds(&contended, 4, 1, 4.0e8);
        let by_hand = flow_finish_times(
            &contended,
            4,
            &[1, 2, 3].map(|src| Flow {
                src,
                dst: 0,
                bytes: 1.0e8,
            }),
        );
        assert_eq!(solo, vec![by_hand.into_iter().fold(0.0, f64::max)]);
        // One node: nothing crosses the network.
        assert_eq!(reduce_fetch_seconds(&contended, 1, 3, 1e9), vec![0.0; 3]);
        assert_eq!(
            reduce_fetch_seconds(&contended, 4, 0, 1e9),
            Vec::<f64>::new()
        );
    }
}
