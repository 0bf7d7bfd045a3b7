//! A whole run's spans on one absolute clock, and its exports.

use hhsim_faults::AttemptOutcome;
use std::fmt::Write as _;
use std::io;

use super::{Cluster, LocalityTier, PhaseRun};

/// Node metadata echoed into exports.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMeta {
    /// Node display name.
    pub name: String,
    /// "Xeon" or "Atom".
    pub kind: String,
    /// Slot count.
    pub slots: usize,
}

/// The per-task timeline of a whole run: successive phases' spans
/// shifted onto one absolute clock.
///
/// Spans are stored struct-of-arrays: one flat column per field, with
/// phase labels interned once per phase instead of cloned per span. At a
/// million tasks this is a single arena of primitive columns — no
/// per-span `String`, no per-span allocation — and iteration for export
/// is a linear column walk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterTimeline {
    /// The cluster's nodes (index = `TaskSpan::node`).
    pub nodes: Vec<NodeMeta>,
    /// Interned phase labels, in first-appearance order.
    phases: Vec<String>,
    /// Per-span phase label index into `phases`.
    phase_ix: Vec<u32>,
    task: Vec<u32>,
    node: Vec<u32>,
    slot: Vec<u32>,
    wave: Vec<u32>,
    queued_s: Vec<f64>,
    launched_s: Vec<f64>,
    finished_s: Vec<f64>,
    attempt: Vec<u32>,
    outcome: Vec<AttemptOutcome>,
    tier: Vec<LocalityTier>,
    /// Absolute-time domain-event annotations (`"rack-crash:<r>"`,
    /// `"rack-blacklisted:<r>"`), exported as instant events. Empty —
    /// and bitwise invisible in every export — without active failure
    /// domains.
    ann_time_s: Vec<f64>,
    ann_label: Vec<String>,
}

/// Narrows an engine-side index (task/node/slot/wave) to its column type.
pub(super) fn narrow(v: usize) -> u32 {
    // An index beyond u32 means the arena invariant is already broken;
    // wrapping would silently corrupt the timeline, so fail loudly.
    // hhsim: allow(panic-in-engine): invariant breach must not wrap into a valid-looking column value
    u32::try_from(v).expect("index exceeds u32 column")
}

/// Folds a `(time, ±1)` event list (already grouped per node, in
/// span-append order) into the active-slot step function, written over
/// whatever `steps` held.
fn fold_steps(events: &mut [(f64, i64)], steps: &mut Vec<(f64, usize)>) {
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    steps.clear();
    steps.push((0.0, 0usize));
    let mut active = 0i64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            active += events[i].1;
            i += 1;
        }
        let a = usize::try_from(active.max(0)).expect("active fits usize");
        if t == 0.0 {
            steps[0].1 = a;
        } else {
            steps.push((t, a));
        }
    }
}

/// The buffers [`PhaseRun::node_steps`] builds step functions in. Their
/// capacity outlives a call, so whoever owns one — a harness worker, or a
/// single `simulate` call — prices every node of every phase of every
/// seed it runs in the same few allocations.
#[derive(Debug, Default)]
pub(crate) struct StepBuffers {
    /// Per node: the phase's `(time, ±1)` slot events.
    events: Vec<Vec<(f64, i64)>>,
    /// The step function of the node being visited.
    steps: Vec<(f64, usize)>,
}

impl PhaseRun {
    /// Step function of busy slots per node over this phase, `nodes`
    /// nodes wide, one node at a time in node order: `(time, active)`
    /// points at every change, starting at `(0, 0)`, on the phase's own
    /// clock. Winning, wasted and recovered attempts all count — exactly
    /// what [`ClusterTimeline::extend`] followed by
    /// [`ClusterTimeline::active_steps_all`] yields, without the timeline
    /// in between. `visit` may take the vector (an owning consumer such
    /// as `UtilizationTimeline::new`) as long as it puts one back.
    pub(crate) fn node_steps(
        &self,
        nodes: usize,
        buf: &mut StepBuffers,
        mut visit: impl FnMut(usize, &mut Vec<(f64, usize)>),
    ) {
        buf.events.resize_with(nodes, Vec::new);
        buf.events.iter_mut().for_each(Vec::clear);
        for s in self.spans.iter().chain(&self.wasted).chain(&self.recovered) {
            if let Some(ev) = buf.events.get_mut(s.node) {
                ev.push((s.launched_s, 1));
                ev.push((s.finished_s, -1));
            }
        }
        for (node, ev) in buf.events.iter_mut().enumerate() {
            fold_steps(ev, &mut buf.steps);
            visit(node, &mut buf.steps);
        }
    }
}

impl ClusterTimeline {
    /// An empty timeline over `cluster`.
    pub fn new(cluster: &Cluster) -> Self {
        ClusterTimeline {
            nodes: cluster
                .nodes
                .iter()
                .map(|n| NodeMeta {
                    name: n.name.clone(),
                    kind: n.kind.to_string(),
                    slots: n.slots,
                })
                .collect(),
            ..ClusterTimeline::default()
        }
    }

    fn intern(&mut self, phase: &str) -> u32 {
        // Phase counts are tiny (a few per job); linear probe.
        if let Some(i) = self.phases.iter().position(|p| p == phase) {
            return narrow(i);
        }
        self.phases.push(phase.to_string());
        narrow(self.phases.len() - 1)
    }

    /// Appends a phase's spans, labelled `phase`, shifted by `offset_s`.
    /// Wasted attempts (failed/killed/cancelled/fetch-failed) follow the
    /// winning spans, and recovered map re-executions follow those, so
    /// utilization and the energy model charge their slot time too.
    /// Domain-event annotations are shifted onto the same clock.
    pub fn extend(&mut self, phase: &str, offset_s: f64, run: &PhaseRun) {
        let pix = self.intern(phase);
        let extra = run.spans.len() + run.wasted.len() + run.recovered.len();
        self.phase_ix.reserve(extra);
        for (t, label) in &run.annotations {
            self.ann_time_s.push(t + offset_s);
            self.ann_label.push(label.clone());
        }
        for s in run.spans.iter().chain(&run.wasted).chain(&run.recovered) {
            self.phase_ix.push(pix);
            self.task.push(narrow(s.task));
            self.node.push(narrow(s.node));
            self.slot.push(narrow(s.slot));
            self.wave.push(narrow(s.wave));
            self.queued_s.push(s.queued_s + offset_s);
            self.launched_s.push(s.launched_s + offset_s);
            self.finished_s.push(s.finished_s + offset_s);
            self.attempt.push(s.attempt);
            self.outcome.push(s.outcome);
            self.tier.push(s.tier);
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.phase_ix.len()
    }

    /// True if no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.phase_ix.is_empty()
    }

    /// Latest task completion, seconds.
    pub fn end_s(&self) -> f64 {
        self.finished_s.iter().copied().fold(0.0, f64::max)
    }

    /// True if any span ran off its input's node — the trigger for the
    /// tier-annotated utilization format. Flat (legacy) runs have every
    /// span node-local and keep the legacy export bytes.
    fn has_remote_tiers(&self) -> bool {
        self.tier.iter().any(|&t| t != LocalityTier::NodeLocal)
    }

    /// Tier-aware analogue of [`fold_steps`]:
    /// folds `(time, ±1, ±1-per-tier)` events into
    /// `(time, active, active-per-tier)` steps with identical time
    /// merging.
    fn tier_steps_from_events(
        // hhsim: allow(panic-in-engine): slice type in a signature, not indexing
        events: &mut [(f64, i64, [i64; 3])],
    ) -> Vec<(f64, usize, [usize; 3])> {
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut steps = vec![(0.0, 0usize, [0usize; 3])];
        let mut active = 0i64;
        let mut per = [0i64; 3];
        let mut it = events.iter().peekable();
        while let Some(&(t, d, dp)) = it.next() {
            active += d;
            for (acc, delta) in per.iter_mut().zip(dp) {
                *acc += delta;
            }
            if it.peek().is_some_and(|&&(t2, _, _)| t2 == t) {
                continue;
            }
            let a = active.max(0) as usize;
            let p = per.map(|v| v.max(0) as usize);
            if t == 0.0 {
                if let Some(first) = steps.first_mut() {
                    *first = (0.0, a, p);
                }
            } else {
                steps.push((t, a, p));
            }
        }
        steps
    }

    /// Per-node `(time, active, active-per-tier)` step functions in one
    /// linear pass over the span columns.
    fn tier_steps_all(&self) -> Vec<Vec<(f64, usize, [usize; 3])>> {
        let mut events: Vec<Vec<(f64, i64, [i64; 3])>> = vec![Vec::new(); self.nodes.len()];
        for i in 0..self.len() {
            let n = self.node.get(i).copied().unwrap_or(0) as usize;
            let tier = self.tier.get(i).copied().unwrap_or_default() as usize;
            if let Some(ev) = events.get_mut(n) {
                let mut up = [0i64; 3];
                up[tier] = 1; // hhsim: allow(panic-in-engine): tier = LocalityTier as usize <= 2 into a [_; 3]
                let mut down = [0i64; 3];
                down[tier] = -1; // hhsim: allow(panic-in-engine): tier = LocalityTier as usize <= 2 into a [_; 3]
                ev.push((self.launched_s.get(i).copied().unwrap_or(0.0), 1, up));
                ev.push((self.finished_s.get(i).copied().unwrap_or(0.0), -1, down));
            }
        }
        events
            .iter_mut()
            .map(|ev| Self::tier_steps_from_events(ev.as_mut_slice()))
            .collect()
    }

    /// Step function of busy slots per node (index = node): `(time,
    /// active)` points at every change, starting at `(0, 0)`, in one
    /// linear pass over the span columns — O(spans + nodes).
    pub fn active_steps_all(&self) -> Vec<Vec<(f64, usize)>> {
        let mut events: Vec<Vec<(f64, i64)>> = vec![Vec::new(); self.nodes.len()];
        for i in 0..self.len() {
            let n = self.node.get(i).copied().unwrap_or(0) as usize;
            if let Some(ev) = events.get_mut(n) {
                ev.push((self.launched_s.get(i).copied().unwrap_or(0.0), 1));
                ev.push((self.finished_s.get(i).copied().unwrap_or(0.0), -1));
            }
        }
        events
            .iter_mut()
            .map(|ev| {
                let mut steps = Vec::new();
                fold_steps(ev, &mut steps);
                steps
            })
            .collect()
    }

    /// Chrome-trace-viewer JSON (`chrome://tracing`, Perfetto): one `X`
    /// event per task span, `pid` = node, `tid` = slot, timestamps in
    /// microseconds, plus process-name metadata per node. Output is
    /// deterministic: spans are emitted in append order with fixed
    /// 3-decimal microsecond formatting. Written incrementally to `w`
    /// (wrap files in a `BufWriter`), so exporting a million-span trace
    /// needs no trace-sized `String`.
    pub fn write_chrome_trace<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (pid, n) in self.nodes.iter().enumerate() {
            writeln!(
                w,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{} ({} x{})\"}}}},",
                n.name, n.kind, n.slots
            )?;
        }
        let mut extra = String::new();
        for i in 0..self.len() {
            let launched = self.launched_s.get(i).copied().unwrap_or(0.0);
            let finished = self.finished_s.get(i).copied().unwrap_or(0.0);
            let queued = self.queued_s.get(i).copied().unwrap_or(0.0);
            let ts = launched * 1e6;
            let dur = (finished - launched) * 1e6;
            let wait = (launched - queued) * 1e6;
            let attempt = self.attempt.get(i).copied().unwrap_or(1);
            let outcome = self.outcome.get(i).copied().unwrap_or_default();
            let tier = self.tier.get(i).copied().unwrap_or_default();
            // Attempt/outcome/tier args only when non-default, so
            // fault-free node-local traces keep their bytes.
            extra.clear();
            if attempt > 1 {
                let _ = write!(extra, ",\"attempt\":{attempt}");
            }
            if outcome != AttemptOutcome::Success {
                let _ = write!(extra, ",\"outcome\":\"{}\"", outcome.as_str());
            }
            if tier != LocalityTier::NodeLocal {
                let _ = write!(extra, ",\"tier\":\"{}\"", tier.as_str());
            }
            let phase = self
                .phase_ix
                .get(i)
                .and_then(|&p| self.phases.get(p as usize))
                .map(String::as_str)
                .unwrap_or("");
            writeln!(
                w,
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"name\":\"{phase}-{}\",\"cat\":\"{phase}\",\
                 \"args\":{{\"task\":{},\"wave\":{},\"wait_us\":{wait:.3}{extra}}}}},",
                self.node.get(i).copied().unwrap_or(0),
                self.slot.get(i).copied().unwrap_or(0),
                self.task.get(i).copied().unwrap_or(0),
                self.task.get(i).copied().unwrap_or(0),
                self.wave.get(i).copied().unwrap_or(0),
            )?;
        }
        // Domain events (rack crashes, rack blacklists) as global
        // instant events; absent without active failure domains.
        for (t, label) in self.ann_time_s.iter().zip(&self.ann_label) {
            let ts = t * 1e6;
            writeln!(
                w,
                "{{\"ph\":\"i\",\"pid\":0,\"ts\":{ts:.3},\"name\":\"{label}\",\"s\":\"g\"}},"
            )?;
        }
        // Trailing comma is invalid JSON; close with a sentinel metadata
        // event instead of tracking "first".
        w.write_all(b"{\"ph\":\"M\",\"pid\":0,\"name\":\"trace_end\",\"args\":{}}\n]}\n")
    }

    /// Per-node utilization as CSV: `node,name,time_s,active_slots` step
    /// rows (one per change point). When any span ran rack-local or
    /// off-rack, three per-tier active-slot columns
    /// (`node_local,rack_local,off_rack`) follow, so the export carries
    /// the locality mix; flat (all node-local) runs keep the four-column
    /// format byte-for-byte. Written incrementally, with the per-node step
    /// functions computed in one pass over the span columns.
    pub fn write_utilization_csv<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        if self.has_remote_tiers() {
            w.write_all(b"node,name,time_s,active_slots,node_local,rack_local,off_rack\n")?;
            let steps = self.tier_steps_all();
            for (i, n) in self.nodes.iter().enumerate() {
                for &(t, a, [nl, rl, of]) in steps.get(i).map(Vec::as_slice).unwrap_or_default() {
                    writeln!(w, "{i},{},{t:.6},{a},{nl},{rl},{of}", n.name)?;
                }
            }
            return Ok(());
        }
        w.write_all(b"node,name,time_s,active_slots\n")?;
        let steps = self.active_steps_all();
        for (i, n) in self.nodes.iter().enumerate() {
            for (t, a) in steps.get(i).map_or(&[][..], Vec::as_slice) {
                writeln!(w, "{i},{},{t:.6},{a}", n.name)?;
            }
        }
        Ok(())
    }
}
