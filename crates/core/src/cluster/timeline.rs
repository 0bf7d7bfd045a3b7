//! A whole run's spans on one absolute clock, and its exports.

use hhsim_arch::CoreKind;
use hhsim_faults::AttemptOutcome;
use std::io::{self, Write as _};

use super::{Cluster, DomainEvent, LocalityTier, Node, PhaseRun};

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
    pub nodes: Vec<Node>,
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
    /// Absolute-time domain events, exported as instant events labelled
    /// `"rack-crash:<r>"` / `"rack-blacklisted:<r>"`. Empty — and bitwise
    /// invisible in every export — without active failure domains.
    ann_time_s: Vec<f64>,
    ann_event: Vec<DomainEvent>,
}

/// Narrows an engine-side index (task/node/slot/wave) to its column type.
pub(super) fn narrow(v: usize) -> u32 {
    // An index beyond u32 means the arena invariant is already broken;
    // wrapping would silently corrupt the timeline, so fail loudly.
    // hhsim: allow(panic-in-engine): invariant breach must not wrap into a valid-looking column value
    u32::try_from(v).expect("index exceeds u32 column")
}

/// Appends `v` in decimal, zero-padded on the left to `width` digits
/// (`width >= 1`; a `u64` has at most 20).
fn push_padded(out: &mut Vec<u8>, mut v: u64, width: usize) {
    let mut buf = [b'0'; 20];
    let mut used = 0;
    for digit in buf.iter_mut().rev() {
        if v == 0 && used >= width {
            break;
        }
        *digit = b'0' + u8::try_from(v % 10).unwrap_or(0);
        v /= 10;
        used += 1;
    }
    out.extend_from_slice(buf.get(buf.len() - used..).unwrap_or_default());
}

/// Appends `v` in decimal: what `{v}` prints.
fn push_u64(out: &mut Vec<u8>, v: u64) {
    push_padded(out, v, 1);
}

/// Appends a column index or count.
fn push_usize(out: &mut Vec<u8>, v: usize) {
    push_u64(out, u64::try_from(v).unwrap_or(u64::MAX));
}

/// Appends `v` with `decimals` digits after the point: what
/// `{v:.decimals$}` prints, digit for digit (the `reference` oracle and
/// `push_fixed_matches_format` hold it to that).
///
/// A double is `m × 2^-shift` with `m` a 53-bit integer, so
/// `v × 10^decimals` is the exact integer ratio `m × 10^decimals / 2^shift`
/// — 73 bits at most for `decimals <= 6`. Its quotient, rounded half to
/// even on the exact remainder, is the digit string; no `fmt` machinery,
/// no intermediate rounding. The quotient fits a `u64` for `|v| < 2^43`;
/// anything larger, non-finite values and other precisions take the
/// `format!` the rest is measured against.
fn push_fixed(out: &mut Vec<u8>, v: f64, decimals: u32) {
    const EXP_BIAS: u64 = 1023;
    const FRAC_BITS: u64 = 52;
    let bits = v.to_bits();
    let biased = (bits >> FRAC_BITS) & 0x7ff;
    let pow = 10u64.pow(decimals.min(6));
    if decimals > 6 || biased >= EXP_BIAS + 43 {
        let width = usize::try_from(decimals).unwrap_or(0);
        out.extend_from_slice(format!("{v:.width$}").as_bytes());
        return;
    }
    let frac = bits & ((1 << FRAC_BITS) - 1);
    // Subnormals have no implicit leading bit and share the least exponent.
    let (m, shift) = match biased {
        0 => (frac, EXP_BIAS + FRAC_BITS - 1),
        _ => (frac | (1 << FRAC_BITS), EXP_BIAS + FRAC_BITS - biased),
    };
    let scaled = u128::from(m) * u128::from(pow);
    // `scaled < 2^73`: past a shift of 74 it is below half a unit.
    let q = if shift > 74 {
        0
    } else {
        let q = scaled >> shift;
        let rem = scaled & ((1u128 << shift) - 1);
        let half = 1u128 << (shift - 1);
        let up = rem > half || (rem == half && q & 1 == 1);
        u64::try_from(q).unwrap_or(u64::MAX) + u64::from(up)
    };
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    push_u64(out, q / pow);
    if decimals > 0 {
        out.push(b'.');
        push_padded(out, q % pow, usize::try_from(decimals).unwrap_or(0));
    }
}

/// Appends `s` as the inside of a JSON string literal: `"`, `\` and
/// control characters escaped, everything else as it is.
fn push_json_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for &b in s.as_bytes() {
        match b {
            b'"' | b'\\' => out.extend_from_slice(&[b'\\', b]),
            0..=0x1f => {
                out.extend_from_slice(b"\\u00");
                for nibble in [b >> 4, b & 0xf] {
                    out.push(HEX.get(usize::from(nibble)).copied().unwrap_or(b'0'));
                }
            }
            _ => out.push(b),
        }
    }
}

/// Each node's label in the exports, `xeon{i}` or `atom{i}`: its kind's
/// stem and its index among the nodes of that kind.
fn labels(nodes: &[Node]) -> impl Iterator<Item = (&'static str, usize)> + '_ {
    nodes.iter().scan((0, 0), |(xeon, atom), n| {
        let (stem, seen) = match n.kind {
            CoreKind::Big => ("xeon", xeon),
            CoreKind::Little => ("atom", atom),
        };
        let ix = *seen;
        *seen += 1;
        Some((stem, ix))
    })
}

/// One slot-occupancy change on a node: `(time, ±1, tier of the span)`.
type TierEvent = (f64, i64, LocalityTier);
/// `(time, active slots, active slots per tier)` from that time on.
type TierStep = (f64, usize, [usize; 3]);

/// [`fold_steps`] with the locality mix: folds one node's events into its
/// `(time, active, active-per-tier)` step function, with the same time
/// merging and the same `(0, ·)` first step, written over whatever
/// `steps` held. Events that compare equal differ at most in their tier
/// and fold into the same step, so the unstable sort cannot show.
fn fold_tier_steps(events: &mut [TierEvent], steps: &mut Vec<TierStep>) {
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    steps.clear();
    steps.push((0.0, 0, [0; 3]));
    let mut active = 0i64;
    let mut per = [0i64; 3];
    let mut it = events.iter().peekable();
    while let Some(&(t, delta, tier)) = it.next() {
        active += delta;
        if let Some(p) = per.get_mut(tier.idx()) {
            *p += delta;
        }
        if it.peek().is_some_and(|&&(next, ..)| next == t) {
            continue;
        }
        let held = |v: i64| usize::try_from(v).unwrap_or(0);
        let step = (t, held(active), per.map(held));
        match steps.first_mut() {
            Some(first) if t == 0.0 => *first = (0.0, step.1, step.2),
            _ => steps.push(step),
        }
    }
}

/// Folds a `(time, ±1)` event list (already grouped per node, in
/// span-append order) into the active-slot step function, written over
/// whatever `steps` held.
fn fold_steps(events: &mut [(f64, i64)], steps: &mut Vec<(f64, usize)>) {
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    steps.clear();
    steps.push((0.0, 0usize));
    let mut active = 0i64;
    let mut it = events.iter().peekable();
    while let Some(&(t, delta)) = it.next() {
        active += delta;
        if it.peek().is_some_and(|&&(next, _)| next == t) {
            continue;
        }
        let held = usize::try_from(active).unwrap_or(0);
        match steps.first_mut() {
            Some(first) if t == 0.0 => first.1 = held,
            _ => steps.push((t, held)),
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
            nodes: cluster.nodes.clone(),
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
        // Every span column grows by the same count; reserving each one
        // up front keeps it from doubling its way there.
        let extra = run.spans.len() + run.wasted.len() + run.recovered.len();
        self.phase_ix.reserve(extra);
        self.task.reserve(extra);
        self.node.reserve(extra);
        self.slot.reserve(extra);
        self.wave.reserve(extra);
        self.queued_s.reserve(extra);
        self.launched_s.reserve(extra);
        self.finished_s.reserve(extra);
        self.attempt.reserve(extra);
        self.outcome.reserve(extra);
        self.tier.reserve(extra);
        for &(t, event) in &run.annotations {
            self.ann_time_s.push(t + offset_s);
            self.ann_event.push(event);
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

    /// Span ids grouped by node, append order kept within a node: node
    /// `n`'s are `ids[start[n]..start[n + 1]]`. A counting sort over the
    /// `node` column; spans on a node the cluster lacks are left out.
    fn spans_by_node(&self) -> (Vec<usize>, Vec<usize>) {
        let known = |n: u32| usize::try_from(n).ok().filter(|&n| n < self.nodes.len());
        let mut start = vec![0usize; self.nodes.len() + 1];
        for n in self.node.iter().filter_map(|&n| known(n)) {
            if let Some(count) = start.get_mut(n + 1) {
                *count += 1;
            }
        }
        let mut total = 0;
        for s in &mut start {
            total += *s;
            *s = total;
        }
        let mut next = start.clone();
        let mut ids = vec![0usize; total];
        for (id, n) in self.node.iter().enumerate() {
            let Some(cursor) = known(*n).and_then(|n| next.get_mut(n)) else {
                continue;
            };
            if let Some(place) = ids.get_mut(*cursor) {
                *place = id;
            }
            *cursor += 1;
        }
        (start, ids)
    }

    /// Chrome-trace-viewer JSON (`chrome://tracing`, Perfetto): one `X`
    /// event per task span, `pid` = node, `tid` = slot, timestamps in
    /// microseconds, plus process-name metadata per node. Output is
    /// deterministic: spans are emitted in append order with fixed
    /// 3-decimal microsecond formatting. Written incrementally to `w`, one
    /// `write_all` per event (wrap files in a `BufWriter`), so exporting a
    /// million-span trace needs no trace-sized `String`. Phase labels are
    /// escaped as JSON strings; a node is named by its label (`xeon0`).
    pub fn write_chrome_trace<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        let mut row: Vec<u8> = Vec::new();
        for (pid, (n, (stem, ix))) in self.nodes.iter().zip(labels(&self.nodes)).enumerate() {
            row.clear();
            row.extend_from_slice(b"{\"ph\":\"M\",\"pid\":");
            push_usize(&mut row, pid);
            row.extend_from_slice(b",\"name\":\"process_name\",\"args\":{\"name\":\"");
            // "xeon0 (Xeon x": nothing to escape.
            write!(row, "{stem}{ix} ({} x", n.kind)?;
            push_usize(&mut row, n.slots);
            row.extend_from_slice(b")\"}},\n");
            w.write_all(&row)?;
        }
        // A label is escaped once, not once per span.
        let phases: Vec<Vec<u8>> = (self.phases.iter())
            .map(|p| {
                let mut label = Vec::new();
                push_json_escaped(&mut label, p);
                label
            })
            .collect();
        for i in 0..self.len() {
            let launched = self.launched_s.get(i).copied().unwrap_or(0.0);
            let finished = self.finished_s.get(i).copied().unwrap_or(0.0);
            let queued = self.queued_s.get(i).copied().unwrap_or(0.0);
            let attempt = self.attempt.get(i).copied().unwrap_or(1);
            let outcome = self.outcome.get(i).copied().unwrap_or_default();
            let tier = self.tier.get(i).copied().unwrap_or_default();
            let task = u64::from(self.task.get(i).copied().unwrap_or(0));
            let phase = (self.phase_ix.get(i))
                .and_then(|&p| phases.get(usize::try_from(p).ok()?))
                .map(Vec::as_slice)
                .unwrap_or_default();
            row.clear();
            row.extend_from_slice(b"{\"ph\":\"X\",\"pid\":");
            push_u64(&mut row, u64::from(self.node.get(i).copied().unwrap_or(0)));
            row.extend_from_slice(b",\"tid\":");
            push_u64(&mut row, u64::from(self.slot.get(i).copied().unwrap_or(0)));
            row.extend_from_slice(b",\"ts\":");
            push_fixed(&mut row, launched * 1e6, 3);
            row.extend_from_slice(b",\"dur\":");
            push_fixed(&mut row, (finished - launched) * 1e6, 3);
            row.extend_from_slice(b",\"name\":\"");
            row.extend_from_slice(phase);
            row.push(b'-');
            push_u64(&mut row, task);
            row.extend_from_slice(b"\",\"cat\":\"");
            row.extend_from_slice(phase);
            row.extend_from_slice(b"\",\"args\":{\"task\":");
            push_u64(&mut row, task);
            row.extend_from_slice(b",\"wave\":");
            push_u64(&mut row, u64::from(self.wave.get(i).copied().unwrap_or(0)));
            row.extend_from_slice(b",\"wait_us\":");
            push_fixed(&mut row, (launched - queued) * 1e6, 3);
            // Attempt/outcome/tier args only when non-default, so
            // fault-free node-local traces keep their bytes.
            if attempt > 1 {
                row.extend_from_slice(b",\"attempt\":");
                push_u64(&mut row, u64::from(attempt));
            }
            if outcome != AttemptOutcome::Success {
                row.extend_from_slice(b",\"outcome\":\"");
                row.extend_from_slice(outcome.as_str().as_bytes());
                row.push(b'"');
            }
            if tier != LocalityTier::NodeLocal {
                row.extend_from_slice(b",\"tier\":\"");
                row.extend_from_slice(tier.as_str().as_bytes());
                row.push(b'"');
            }
            row.extend_from_slice(b"}},\n");
            w.write_all(&row)?;
        }
        // Domain events (rack crashes, rack blacklists) as global
        // instant events; absent without active failure domains.
        for (t, event) in self.ann_time_s.iter().zip(&self.ann_event) {
            let (name, rack) = event.parts();
            row.clear();
            row.extend_from_slice(b"{\"ph\":\"i\",\"pid\":0,\"ts\":");
            push_fixed(&mut row, t * 1e6, 3);
            row.extend_from_slice(b",\"name\":\"");
            row.extend_from_slice(name.as_bytes());
            row.push(b':');
            push_usize(&mut row, rack);
            row.extend_from_slice(b"\",\"s\":\"g\"},\n");
            w.write_all(&row)?;
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
    /// format byte-for-byte. The two are one fold whose last three columns
    /// are printed or not. Streamed node by node — one node's events and
    /// steps are all that is held, one `write_all` per row.
    pub fn write_utilization_csv<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let tiered = self.has_remote_tiers();
        w.write_all(b"node,name,time_s,active_slots")?;
        if tiered {
            w.write_all(b",node_local,rack_local,off_rack")?;
        }
        w.write_all(b"\n")?;
        let (start, ids) = self.spans_by_node();
        let mut events: Vec<TierEvent> = Vec::new();
        let mut steps: Vec<TierStep> = Vec::new();
        let mut row: Vec<u8> = Vec::new();
        let ranges = start.iter().zip(start.iter().skip(1));
        for (node, ((stem, ix), (&lo, &hi))) in labels(&self.nodes).zip(ranges).enumerate() {
            events.clear();
            for &id in ids.get(lo..hi).unwrap_or_default() {
                let tier = self.tier.get(id).copied().unwrap_or_default();
                events.push((self.launched_s.get(id).copied().unwrap_or(0.0), 1, tier));
                events.push((self.finished_s.get(id).copied().unwrap_or(0.0), -1, tier));
            }
            fold_tier_steps(&mut events, &mut steps);
            row.clear();
            write!(row, "{node},{stem}{ix},")?;
            let prefix = row.len();
            for &(t, active, per_tier) in &steps {
                row.truncate(prefix);
                push_fixed(&mut row, t, 6);
                row.push(b',');
                push_usize(&mut row, active);
                if tiered {
                    for held in per_tier {
                        row.push(b',');
                        push_usize(&mut row, held);
                    }
                }
                row.push(b'\n');
                w.write_all(&row)?;
            }
        }
        Ok(())
    }
}

/// The `fmt`-driven exporters the row builders above replaced, kept as
/// their oracle: `{:.3}` / `{:.6}` through `write!`, one step-function
/// table per format, every node's steps held at once, and each node's
/// name a `format!` of its kind's prefix and a count, as `Cluster::mixed`
/// once built it.
#[cfg(test)]
mod reference {
    use std::fmt::Write as _;
    use std::io::{self, Write};

    use super::{AttemptOutcome, ClusterTimeline, CoreKind, LocalityTier};

    /// The name each node of `tl` was given when nodes carried one.
    fn names(tl: &ClusterTimeline) -> Vec<String> {
        let (mut xeons, mut atoms) = (0.., 0..);
        (tl.nodes.iter())
            .map(|n| match n.kind {
                CoreKind::Big => format!("xeon{}", xeons.next().unwrap_or_default()),
                CoreKind::Little => format!("atom{}", atoms.next().unwrap_or_default()),
            })
            .collect()
    }

    pub(super) fn write_chrome_trace<W: Write>(tl: &ClusterTimeline, w: &mut W) -> io::Result<()> {
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (pid, (n, name)) in tl.nodes.iter().zip(names(tl)).enumerate() {
            writeln!(
                w,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{name} ({} x{})\"}}}},",
                n.kind, n.slots
            )?;
        }
        let mut extra = String::new();
        for i in 0..tl.len() {
            let (launched, finished, queued) = (tl.launched_s[i], tl.finished_s[i], tl.queued_s[i]);
            let ts = launched * 1e6;
            let dur = (finished - launched) * 1e6;
            let wait = (launched - queued) * 1e6;
            extra.clear();
            if tl.attempt[i] > 1 {
                let _ = write!(extra, ",\"attempt\":{}", tl.attempt[i]);
            }
            if tl.outcome[i] != AttemptOutcome::Success {
                let _ = write!(extra, ",\"outcome\":\"{}\"", tl.outcome[i].as_str());
            }
            if tl.tier[i] != LocalityTier::NodeLocal {
                let _ = write!(extra, ",\"tier\":\"{}\"", tl.tier[i].as_str());
            }
            let phase = &tl.phases[tl.phase_ix[i] as usize];
            writeln!(
                w,
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"name\":\"{phase}-{}\",\"cat\":\"{phase}\",\
                 \"args\":{{\"task\":{},\"wave\":{},\"wait_us\":{wait:.3}{extra}}}}},",
                tl.node[i], tl.slot[i], tl.task[i], tl.task[i], tl.wave[i],
            )?;
        }
        for (t, event) in tl.ann_time_s.iter().zip(&tl.ann_event) {
            let ts = t * 1e6;
            writeln!(
                w,
                "{{\"ph\":\"i\",\"pid\":0,\"ts\":{ts:.3},\"name\":\"{event}\",\"s\":\"g\"}},"
            )?;
        }
        w.write_all(b"{\"ph\":\"M\",\"pid\":0,\"name\":\"trace_end\",\"args\":{}}\n]}\n")
    }

    /// Per-node `(time, active, active-per-tier)` steps: every node's
    /// events gathered in one pass over the spans, stable-sorted, folded.
    fn steps_by_node(tl: &ClusterTimeline) -> Vec<Vec<(f64, usize, [usize; 3])>> {
        let mut events: Vec<Vec<(f64, i64, [i64; 3])>> = vec![Vec::new(); tl.nodes.len()];
        for i in 0..tl.len() {
            if let Some(ev) = events.get_mut(tl.node[i] as usize) {
                let mut up = [0i64; 3];
                up[tl.tier[i] as usize] = 1;
                ev.push((tl.launched_s[i], 1, up));
                ev.push((tl.finished_s[i], -1, up.map(|d| -d)));
            }
        }
        let fold = |ev: &mut Vec<(f64, i64, [i64; 3])>| {
            ev.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut steps = vec![(0.0, 0usize, [0usize; 3])];
            let mut active = 0i64;
            let mut per = [0i64; 3];
            let mut it = ev.iter().peekable();
            while let Some(&(t, d, dp)) = it.next() {
                active += d;
                for (acc, delta) in per.iter_mut().zip(dp) {
                    *acc += delta;
                }
                if it.peek().is_some_and(|&&(t2, _, _)| t2 == t) {
                    continue;
                }
                let step = (t, active.max(0) as usize, per.map(|v| v.max(0) as usize));
                if t == 0.0 {
                    steps[0] = (0.0, step.1, step.2);
                } else {
                    steps.push(step);
                }
            }
            steps
        };
        events.iter_mut().map(fold).collect()
    }

    pub(super) fn write_utilization_csv<W: Write>(
        tl: &ClusterTimeline,
        w: &mut W,
    ) -> io::Result<()> {
        if tl.has_remote_tiers() {
            w.write_all(b"node,name,time_s,active_slots,node_local,rack_local,off_rack\n")?;
            for (i, (name, steps)) in names(tl).iter().zip(steps_by_node(tl)).enumerate() {
                for (t, a, [nl, rl, of]) in steps {
                    writeln!(w, "{i},{name},{t:.6},{a},{nl},{rl},{of}")?;
                }
            }
            return Ok(());
        }
        w.write_all(b"node,name,time_s,active_slots\n")?;
        for (i, (name, steps)) in names(tl).iter().zip(tl.active_steps_all()).enumerate() {
            for (t, a) in steps {
                writeln!(w, "{i},{name},{t:.6},{a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use hhsim_arch::CoreKind;
    use hhsim_faults::FaultStats;
    use hhsim_testkit::{check, streamed, Gen};

    use super::super::{Node, SlotStats, TaskSpan};
    use super::*;

    /// Values per class and precision: a million in the release-mode CI
    /// step, which is also where the integer paths run without overflow
    /// checks; a debug `cargo test` samples the same generators.
    const PER_CLASS: u64 = if cfg!(debug_assertions) {
        20_000
    } else {
        1_000_000
    };

    fn assert_prints_like_format(v: f64) {
        for decimals in [0u32, 3, 6] {
            let mut ours = Vec::new();
            push_fixed(&mut ours, v, decimals);
            let width = decimals as usize;
            assert_eq!(
                String::from_utf8_lossy(&ours),
                format!("{v:.width$}"),
                "{v:e} (bits {:#018x}) at {decimals} decimals",
                v.to_bits()
            );
        }
    }

    fn signed(g: &mut Gen, v: f64) -> f64 {
        if g.bool(0.25) {
            -v
        } else {
            v
        }
    }

    /// `push_fixed` against `format!` over each class of value an export
    /// can meet (and the ones it cannot); `check` prints the failing seed.
    #[test]
    fn push_fixed_matches_format() {
        for v in [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.0625,
            0.1875,
            0.0005,
            0.0078125,
            0.9999995,
            999.9995,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::EPSILON,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            (1u64 << 43) as f64,
            f64::from_bits(((1u64 << 43) as f64).to_bits() - 1),
            (1u64 << 53) as f64,
        ] {
            assert_prints_like_format(v);
            assert_prints_like_format(-v);
        }
        let batch = 1_000;
        check(PER_CLASS / batch, |g| {
            for _ in 0..batch {
                // Any bit pattern: every exponent, NaNs and infinities.
                assert_prints_like_format(f64::from_bits(g.u64(0..u64::MAX)));
                // Simulated clocks: whole nanoseconds as seconds, their
                // differences, and the microseconds the trace prints.
                let (a, b) = (g.u64(0..10_000_000_000_000), g.u64(0..100_000_000_000));
                let (a_s, b_s) = (a as f64 / 1e9, (a + b) as f64 / 1e9);
                for s in [a_s, b_s, b_s - a_s, a_s + 1234.5] {
                    assert_prints_like_format(signed(g, s));
                    assert_prints_like_format(signed(g, s * 1e6));
                }
                // Dyadic rationals: exact ties at every precision.
                let tie = g.u64(0..1 << 40) as f64 / (1u64 << g.u64(1..13)) as f64;
                assert_prints_like_format(signed(g, tie));
                // Subnormals.
                let subnormal = f64::from_bits(g.u64(0..1 << 52));
                assert_prints_like_format(signed(g, subnormal));
                // Either side of the 2^43 hand-over to `format!`.
                let big = ((1u64 << 42) + g.u64(0..3 << 42)) as f64 + g.f64();
                assert_prints_like_format(signed(g, big));
            }
        });
    }

    /// `n` nodes of 4 slots, Xeon and Atom in turn.
    fn nodes(n: usize) -> Cluster {
        Cluster {
            nodes: ([CoreKind::Big, CoreKind::Little].into_iter().cycle())
                .map(|kind| Node { kind, slots: 4 })
                .take(n)
                .collect(),
        }
    }

    fn run_of(spans: Vec<TaskSpan>) -> PhaseRun {
        PhaseRun {
            makespan_s: 0.0,
            spans,
            slots: SlotStats::default(),
            wasted: Vec::new(),
            recovered: Vec::new(),
            annotations: Vec::new(),
            faults: FaultStats::default(),
        }
    }

    /// A span as an engine could have written it — or not: times are
    /// whole nanoseconds or small integers (so launches and finishes
    /// collide, at zero too), node ids may lie outside the cluster.
    fn span(g: &mut Gen, nodes: usize, tiered: bool, faulty: bool) -> TaskSpan {
        let time = |g: &mut Gen| match g.usize(0..3) {
            0 => g.u64(0..4) as f64,
            1 => g.u64(0..50) as f64 * 0.25,
            _ => g.u64(0..400_000_000_000) as f64 / 1e9,
        };
        let queued_s = time(g);
        let launched_s = queued_s + time(g);
        let tiers = [
            LocalityTier::NodeLocal,
            LocalityTier::RackLocal,
            LocalityTier::OffRack,
        ];
        let outcomes = [
            AttemptOutcome::Success,
            AttemptOutcome::Failed,
            AttemptOutcome::Killed,
            AttemptOutcome::Cancelled,
            AttemptOutcome::FetchFailed,
            AttemptOutcome::Recovered,
        ];
        TaskSpan {
            task: g.usize(0..5_000),
            node: g.usize(0..nodes + 1),
            slot: g.usize(0..4),
            wave: g.usize(1..300),
            queued_s,
            launched_s,
            finished_s: launched_s + time(g),
            attempt: if faulty { g.u64(1..5) as u32 } else { 1 },
            outcome: if faulty {
                *g.pick(&outcomes)
            } else {
                AttemptOutcome::Success
            },
            tier: if tiered {
                *g.pick(&tiers)
            } else {
                LocalityTier::NodeLocal
            },
        }
    }

    /// Clean, tiered, faulty (wasted and recovered spans, later attempts)
    /// and annotated timelines, several phases each, through the row
    /// builders and through the `write!` exporters they replaced.
    #[test]
    fn row_builders_match_the_reference_writers() {
        check(120, |g| {
            let (tiered, faulty, annotated) = (g.bool(0.5), g.bool(0.5), g.bool(0.5));
            let cluster = nodes(g.usize(1..6));
            let n = cluster.nodes.len();
            let mut tl = ClusterTimeline::new(&cluster);
            for phase in ["map", "reduce", "map#2", "map"].iter().take(g.usize(0..5)) {
                let mut run = run_of(g.vec(0..60, |g| span(g, n, tiered, false)));
                if faulty {
                    run.wasted = g.vec(0..20, |g| span(g, n, tiered, true));
                    run.recovered = g.vec(0..10, |g| span(g, n, tiered, true));
                }
                if annotated {
                    run.annotations = g.vec(0..3, |g| {
                        let rack = g.usize(0..40);
                        let event = if g.bool(0.5) {
                            DomainEvent::RackCrash(rack)
                        } else {
                            DomainEvent::RackBlacklisted(rack)
                        };
                        (g.u64(0..90_000_000_000) as f64 / 1e9, event)
                    });
                }
                tl.extend(phase, g.u64(0..3) as f64 * 101.125, &run);
            }
            assert_eq!(
                streamed(|w| tl.write_chrome_trace(w)),
                streamed(|w| reference::write_chrome_trace(&tl, w))
            );
            assert_eq!(
                streamed(|w| tl.write_utilization_csv(w)),
                streamed(|w| reference::write_utilization_csv(&tl, w))
            );
        });
    }

    /// A JSON value, as far as a trace needs one.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Json>),
        Object(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn str(&self) -> Option<&str> {
            match self {
                Json::String(s) => Some(s),
                _ => None,
            }
        }
    }

    /// A strict recursive-descent JSON reader (RFC 8259): raw control
    /// characters and unknown escapes are errors, as they are to Perfetto.
    struct JsonReader<'a> {
        text: &'a [u8],
        at: usize,
    }

    impl JsonReader<'_> {
        fn parse(text: &str) -> Result<Json, String> {
            let mut r = JsonReader {
                text: text.as_bytes(),
                at: 0,
            };
            let v = r.value()?;
            r.space();
            match r.at == r.text.len() {
                true => Ok(v),
                false => Err(format!("trailing bytes at {}", r.at)),
            }
        }

        fn space(&mut self) {
            while matches!(self.text.get(self.at), Some(b' ' | b'\n' | b'\t' | b'\r')) {
                self.at += 1;
            }
        }

        fn eat(&mut self, byte: u8) -> Result<(), String> {
            self.space();
            match self.text.get(self.at) {
                Some(&b) if b == byte => {
                    self.at += 1;
                    Ok(())
                }
                other => Err(format!(
                    "expected {:?} at {}, found {other:?}",
                    byte as char, self.at
                )),
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.space();
            match self.text.get(self.at).copied() {
                Some(b'{') => {
                    self.at += 1;
                    let mut fields = Vec::new();
                    self.space();
                    if self.text.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(Json::Object(fields));
                    }
                    loop {
                        self.space();
                        let key = self.string()?;
                        self.eat(b':')?;
                        fields.push((key, self.value()?));
                        self.space();
                        if self.eat(b',').is_err() {
                            self.eat(b'}')?;
                            return Ok(Json::Object(fields));
                        }
                    }
                }
                Some(b'[') => {
                    self.at += 1;
                    let mut items = Vec::new();
                    self.space();
                    if self.text.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(Json::Array(items));
                    }
                    loop {
                        items.push(self.value()?);
                        if self.eat(b',').is_err() {
                            self.eat(b']')?;
                            return Ok(Json::Array(items));
                        }
                    }
                }
                Some(b'"') => self.string().map(Json::String),
                Some(b't') => self.word("true", Json::Bool(true)),
                Some(b'f') => self.word("false", Json::Bool(false)),
                Some(b'n') => self.word("null", Json::Null),
                _ => {
                    let start = self.at;
                    while matches!(
                        self.text.get(self.at),
                        Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                    ) {
                        self.at += 1;
                    }
                    std::str::from_utf8(&self.text[start..self.at])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .map(Json::Number)
                        .ok_or_else(|| format!("no value at {start}"))
                }
            }
        }

        fn word(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.text[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at {}", self.at))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = Vec::new();
            loop {
                let b = *(self.text.get(self.at)).ok_or("unterminated string")?;
                self.at += 1;
                match b {
                    b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                    0..=0x1f => return Err(format!("raw control byte at {}", self.at - 1)),
                    b'\\' => {
                        let e = *(self.text.get(self.at)).ok_or("unterminated escape")?;
                        self.at += 1;
                        match e {
                            b'"' | b'\\' | b'/' => out.push(e),
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'r' => out.push(b'\r'),
                            b'b' => out.push(8),
                            b'f' => out.push(12),
                            b'u' => {
                                let hex = (self.text.get(self.at..self.at + 4))
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or_else(|| format!("bad \\u at {}", self.at))?;
                                self.at += 4;
                                out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                            }
                            _ => return Err(format!("unknown escape at {}", self.at - 1)),
                        }
                    }
                    _ => out.push(b),
                }
            }
        }
    }

    /// What a phase label must survive: the two JSON metacharacters, the
    /// CSV ones, control characters and non-ASCII text.
    const HOSTILE: &str = "rack \"7\"\\node,a\n\tb\u{1}\u{1f} é–✓ 'x'";

    fn one_task_run() -> PhaseRun {
        run_of(vec![TaskSpan {
            task: 0,
            node: 0,
            slot: 0,
            wave: 1,
            queued_s: 0.0,
            launched_s: 0.5,
            finished_s: 2.0,
            attempt: 1,
            outcome: AttemptOutcome::Success,
            tier: LocalityTier::NodeLocal,
        }])
    }

    fn trace_events(tl: &ClusterTimeline) -> Vec<Json> {
        let text = streamed(|w| tl.write_chrome_trace(w));
        let trace = JsonReader::parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
        match trace {
            Json::Object(mut fields) => match fields.pop() {
                Some((key, Json::Array(events))) if key == "traceEvents" => events,
                other => panic!("no traceEvents array: {other:?}"),
            },
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn hostile_phase_label_stays_a_json_string() {
        let mut tl = ClusterTimeline::new(&nodes(1));
        tl.extend(HOSTILE, 0.0, &one_task_run());
        let events = trace_events(&tl);
        let span = &events[1];
        assert_eq!(span.get("cat").and_then(Json::str), Some(HOSTILE));
        assert_eq!(
            span.get("name").and_then(Json::str),
            Some(format!("{HOSTILE}-0").as_str())
        );
        assert_eq!(span.get("ts"), Some(&Json::Number(500_000.0)));
    }

    /// Each typed domain event exports the bytes its `String` label did:
    /// one instant event named `rack-crash:<r>` / `rack-blacklisted:<r>`,
    /// on the run's clock.
    #[test]
    fn domain_events_export_their_old_labels() {
        for rack in [0, 7, 39, 1_000_003] {
            for (event, label) in [
                (DomainEvent::RackCrash(rack), format!("rack-crash:{rack}")),
                (
                    DomainEvent::RackBlacklisted(rack),
                    format!("rack-blacklisted:{rack}"),
                ),
            ] {
                let mut tl = ClusterTimeline::new(&nodes(1));
                let mut run = one_task_run();
                run.annotations.push((1.25, event));
                tl.extend("map", 0.5, &run);
                let row = format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"ts\":1750000.000,\"name\":\"{label}\",\"s\":\"g\"}},\n"
                );
                let trace = streamed(|w| tl.write_chrome_trace(w));
                assert_eq!(trace.matches(&row).count(), 1, "{row} in {trace}");
                assert_eq!(event.to_string(), label);
                let instant = &trace_events(&tl)[2];
                assert_eq!(instant.get("name").and_then(Json::str), Some(&*label));
            }
        }
    }

    /// Each node's name in both exports, in node order: the `process_name`
    /// event's (less the ` (Xeon x4)` after it) and the second field of
    /// the node's utilization rows.
    fn exported_names(cluster: &Cluster) -> [Vec<String>; 2] {
        let tl = ClusterTimeline::new(cluster);
        let events = trace_events(&tl);
        let traced = (events.iter().take(cluster.nodes.len()))
            .filter_map(|e| e.get("args")?.get("name")?.str()?.split(" (").next())
            .map(str::to_string)
            .collect();
        // Without spans every node has exactly its one (0, 0) row.
        let csv = streamed(|w| tl.write_utilization_csv(w));
        let rows = (csv.lines().skip(1))
            .filter_map(|row| row.split(',').nth(1))
            .map(str::to_string)
            .collect();
        [traced, rows]
    }

    /// The exports name each node `xeon{i}` / `atom{i}` by its index among
    /// its kind: the names `Cluster::homogeneous` and `Cluster::mixed` gave
    /// their nodes with `format!`, and the names a hand-built cluster that
    /// interleaves the kinds would have given them by the same rule.
    #[test]
    fn node_labels_are_the_names_nodes_were_given() {
        let old_mixed = |big: usize, little: usize| -> Vec<String> {
            ((0..big).map(|i| format!("xeon{i}")))
                .chain((0..little).map(|i| format!("atom{i}")))
                .collect()
        };
        let old_homogeneous = |name: &str, nodes: usize| -> Vec<String> {
            (0..nodes).map(|i| format!("{name}{i}")).collect()
        };
        let interleaved = Cluster {
            nodes: [
                CoreKind::Little,
                CoreKind::Big,
                CoreKind::Big,
                CoreKind::Little,
                CoreKind::Big,
                CoreKind::Little,
                CoreKind::Little,
            ]
            .map(|kind| Node { kind, slots: 2 })
            .to_vec(),
        };
        let cases = [
            (Cluster::mixed(3, 4, 12, 2), old_mixed(3, 12)),
            (Cluster::mixed(0, 4, 1, 2), old_mixed(0, 1)),
            (Cluster::mixed(11, 4, 0, 2), old_mixed(11, 0)),
            (
                Cluster::homogeneous(CoreKind::Big, 12, 4),
                old_homogeneous("xeon", 12),
            ),
            (
                Cluster::homogeneous(CoreKind::Little, 3, 8),
                old_homogeneous("atom", 3),
            ),
            (
                interleaved,
                [
                    "atom0", "xeon0", "xeon1", "atom1", "xeon2", "atom2", "atom3",
                ]
                .map(str::to_string)
                .to_vec(),
            ),
        ];
        for (cluster, old) in cases {
            assert_eq!(exported_names(&cluster), [old.clone(), old]);
        }
    }
}
