//! The fault-aware phase engine: injected task failures, node and rack
//! crashes, LATE speculation, blacklisting, and fetch-failure recovery of
//! lost map outputs.
//!
//! Every attempt has one lifecycle, whatever it runs: a [`TaskRow`] asks
//! for a slot, [`launch_attempt`] puts a [`RunningAttempt`] in it, and the
//! attempt leaves through [`attempt_completed`], [`attempt_failed`] or a
//! crash. A re-executed map is an ordinary row behind the phase's own
//! tasks; it differs only in where its timing, read cost, jitter key and
//! reported task id come from, and in what its completion unblocks.

use hhsim_des::{EventId, SimTime, Simulation};
use hhsim_faults::{AttemptOutcome, FaultStats, PhaseError, PhaseFaults, RecoveryPolicy};
use hhsim_hdfs::Topology;
use std::collections::VecDeque;

use super::engine::{run_phase_in, CleanScratch};
use super::late::LateIndex;
use super::slots::{count_probes, refill, wide, SlotBook, NIL};
use super::timeline::narrow;
use super::{
    attempt_jitter, Cluster, DomainEvent, LocalityTier, NodeTiming, PhaseLoad, PhaseRun, Placement,
    TaskSpan,
};

/// A row waiting for a slot, remembering when it (re-)entered the queue.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    row: usize,
    queued: SimTime,
}

/// What a row's attempts run.
#[derive(Debug, Clone, Copy)]
enum RowKind {
    /// The phase task whose id is the row's index.
    Task,
    /// Completed map `map`, run again because its output died with its
    /// holder.
    Reexec { map: usize },
}

/// Recovery state of one unit of work. Rows `0..load.tasks` are the
/// phase's tasks in task order; re-executed maps are pushed behind them
/// as their outputs are lost.
///
/// A row is always in exactly one place: waiting (in a queue, a backoff
/// window or behind the shuffle barrier), in flight, or finished. Only a
/// row with nothing in flight is ever queued, so an attempt that dies with
/// a crash can put its idle row straight back in line without asking
/// whether it is there already.
///
/// One row per task, so its columns are `u32`, [`NIL`] for none: 24
/// bytes a row.
#[derive(Debug)]
struct TaskRow {
    /// The map a re-execution row runs again; [`NIL`] for a phase task.
    map: u32,
    /// Attempts that hit an injected failure (the `max_attempts` count).
    failed: u32,
    /// 1-based number of the next attempt to launch.
    next_attempt: u32,
    /// Global slot of the oldest attempt in flight.
    primary: u32,
    /// Global slot of a second attempt in flight: the LATE backup, until
    /// it outlives the primary and takes its place.
    backup: u32,
    /// A LATE backup has been launched; a row gets at most one, ever.
    speculated: bool,
}

const _: () = assert!(size_of::<TaskRow>() == 24);

/// A `u32` column value as an index, `None` for [`NIL`].
fn unless_nil(v: u32) -> Option<usize> {
    (v != NIL).then(|| wide(v))
}

impl TaskRow {
    fn task() -> Self {
        TaskRow {
            map: NIL,
            failed: 0,
            next_attempt: 1,
            primary: NIL,
            backup: NIL,
            speculated: false,
        }
    }

    /// A lost map: re-executions are attempt ≥ 2 of the original map
    /// task, and LATE never duplicates them (they are born speculated).
    fn reexec(map: usize) -> Self {
        TaskRow {
            map: narrow(map),
            next_attempt: 2,
            speculated: true,
            ..TaskRow::task()
        }
    }

    fn kind(&self) -> RowKind {
        match unless_nil(self.map) {
            None => RowKind::Task,
            Some(map) => RowKind::Reexec { map },
        }
    }

    fn primary(&self) -> Option<usize> {
        unless_nil(self.primary)
    }

    fn is_idle(&self) -> bool {
        self.primary == NIL
    }

    /// The most recently launched attempt still in flight.
    fn youngest(&self) -> Option<usize> {
        unless_nil(self.backup).or(self.primary())
    }

    fn attach(&mut self, slot: usize) {
        debug_assert!(self.backup == NIL, "more than two live attempts");
        if self.primary == NIL {
            self.primary = narrow(slot);
        } else {
            self.backup = narrow(slot);
        }
    }

    fn detach(&mut self, slot: usize) {
        let slot = narrow(slot);
        if self.primary == slot {
            self.primary = std::mem::replace(&mut self.backup, NIL);
        } else if self.backup == slot {
            self.backup = NIL;
        }
    }
}

/// An attempt occupying a slot.
#[derive(Debug, Clone, Copy)]
struct RunningAttempt {
    row: usize,
    kind: RowKind,
    attempt: u32,
    node: usize,
    slot: usize,
    wave: usize,
    queued: SimTime,
    launched: SimTime,
    /// Full would-be runtime on its node (failure truncates it).
    duration: SimTime,
    /// Progress rate estimate: 1 / full runtime in seconds — finite and
    /// never negative, so rates order by their bits. While the attempt's
    /// row has no backup, the [`LateIndex`] holds this slot: in its
    /// launch-ordered list until the attempt has run for
    /// `spec_min_runtime_s`, then in its heap under `(rate, row)`.
    rate: f64,
    /// The pending failure-or-completion calendar event.
    event: EventId,
    speculative: bool,
    /// Input locality of this attempt's landing node.
    tier: LocalityTier,
}

impl RunningAttempt {
    /// The task id this attempt reports under: the phase task's own, or
    /// the *map* task's for a re-execution.
    fn task(&self) -> usize {
        match self.kind {
            RowKind::Task => self.row,
            RowKind::Reexec { map } => map,
        }
    }

    /// This attempt's span, ended at `now` as `outcome`.
    fn span(&self, now: SimTime, outcome: AttemptOutcome) -> TaskSpan {
        TaskSpan {
            task: self.task(),
            node: self.node,
            slot: self.slot,
            wave: self.wave,
            queued_s: self.queued.as_secs_f64(),
            launched_s: self.launched.as_secs_f64(),
            finished_s: now.as_secs_f64(),
            attempt: self.attempt,
            outcome,
            tier: self.tier,
        }
    }
}

/// A task's cell of the winners' column until its winner is written
/// over it. Attempts are 1-based, so attempt 0 names none.
const UNWON: TaskSpan = TaskSpan {
    task: 0,
    node: 0,
    slot: 0,
    wave: 0,
    queued_s: 0.0,
    launched_s: 0.0,
    finished_s: 0.0,
    attempt: 0,
    outcome: AttemptOutcome::Success,
    tier: LocalityTier::NodeLocal,
};

/// Map-output availability context for a reduce phase, enabling
/// Hadoop's fetch-failure semantics: when a node dies after its map
/// tasks completed, those outputs are lost, in-flight reduce attempts
/// register fetch failures, and the engine re-executes the lost maps on
/// surviving nodes — re-querying the surviving replica set so the re-run
/// is priced at the correct locality tier. A map whose every input
/// replica is gone fails the phase with [`PhaseError::DataLost`].
#[derive(Debug, Clone, PartialEq)]
pub struct FetchPlan {
    /// Node that holds each completed map task's output (indexed by map
    /// task), i.e. the map phase's winning span nodes.
    pub holders: Vec<usize>,
    /// Input-block replica holders per map task, one list per holder —
    /// the NameNode's answer a re-execution consults after filtering to
    /// surviving nodes.
    pub map_replicas: Vec<Vec<usize>>,
    /// The fabric replicas were placed against, answering
    /// surviving-replica locality queries for re-executed maps.
    pub topology: Topology,
    /// Extra input-read seconds by tier for a re-executed map, indexed
    /// `[node-local, rack-local, off-rack]`.
    pub read_seconds: [f64; 3],
    /// Per-node map-task timing, one entry per node (a re-executed map
    /// runs at map speed, not the surrounding reduce phase's).
    pub map_timing: Vec<NodeTiming>,
}

/// A [`FetchPlan`] by borrow, field for field — the form the engine
/// reads. A seeded run owns only its `holders`; the replica layout and
/// the map timing are slices into whatever holds them across seeds
/// (`ClusterPrep`'s map [`PhaseLoad`]), so nothing is cloned per run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchView<'a> {
    pub holders: &'a [usize],
    pub map_replicas: &'a [Vec<usize>],
    pub topology: Topology,
    pub read_seconds: [f64; 3],
    pub map_timing: &'a [NodeTiming],
}

impl FetchPlan {
    pub(crate) fn view(&self) -> FetchView<'_> {
        FetchView {
            holders: &self.holders,
            map_replicas: &self.map_replicas,
            topology: self.topology,
            read_seconds: self.read_seconds,
            map_timing: &self.map_timing,
        }
    }
}

/// Where one completed map's output is now: two `u32` columns, [`NIL`]
/// for none.
#[derive(Debug, Clone, Copy)]
struct MapOutput {
    /// The node holding it; none while the map is being re-executed.
    holder: u32,
    /// The map's re-execution row, once it has been lost.
    row: u32,
}

impl MapOutput {
    fn held_by(&self, node: usize) -> bool {
        self.holder != NIL && wide(self.holder) == node
    }
}

/// A re-executed map that landed on a node, in that node's chain of
/// landings.
#[derive(Debug, Clone, Copy)]
struct Landing {
    map: u32,
    /// The node's landing before this one, [`NIL`] for none.
    before: u32,
}

/// Where each completed map's output is, indexed both ways: by map, and
/// by the node that holds it — so that a crash looks at the outputs its
/// node has held and not at every output of the phase.
///
/// Outputs only ever leave a node by its crash, and a dead node receives
/// nothing, so the maps a node holds are among the ones it held when the
/// phase began (grouped by holder, one column) and the re-executions that
/// landed on it since (a chain per node through one list); whether one is
/// still there, `outputs` says.
#[derive(Debug, Default)]
struct MapOutputs {
    /// Indexed by map task; holders move as re-runs land.
    outputs: Vec<MapOutput>,
    /// The initial holders' maps, grouped by holder and ascending within
    /// a node: node `n`'s are `initial[start[n]..start[n + 1]]`.
    start: Vec<u32>,
    initial: Vec<u32>,
    /// Newest entry of each node's chain of `landings`.
    last_landing: Vec<u32>,
    landings: Vec<Landing>,
}

impl MapOutputs {
    /// Outputs on `holders` (one per map; each a node below `nodes`),
    /// none lost yet, in the tables the last run left.
    ///
    /// # Panics
    ///
    /// Panics if map ids do not fit the `u32` columns.
    fn reset(&mut self, holders: &[usize], nodes: usize) {
        assert!(
            narrow(holders.len()) != NIL,
            "map ids must stay below the NIL column value"
        );
        self.outputs.clear();
        self.outputs.reserve_exact(holders.len());
        self.outputs.extend(holders.iter().map(|&h| MapOutput {
            holder: narrow(h),
            row: NIL,
        }));
        // A counting sort by holder, stable, so each node's maps ascend:
        // counts, then where each node's run begins, then each map placed
        // at its node's cursor — which leaves every cursor where the next
        // node's run begins: `start`, shifted one node to the left.
        refill(&mut self.start, nodes + 1, 0);
        for &h in holders {
            if let Some(count) = self.start.get_mut(h + 1) {
                *count += 1;
            }
        }
        let mut begins = 0;
        for cell in &mut self.start {
            begins += *cell;
            *cell = begins;
        }
        refill(&mut self.initial, holders.len(), 0);
        for (map, &h) in holders.iter().enumerate() {
            if let Some(cursor) = self.start.get_mut(h) {
                if let Some(cell) = self.initial.get_mut(wide(*cursor)) {
                    *cell = narrow(map);
                }
                *cursor += 1;
            }
        }
        self.start.copy_within(0..nodes, 1);
        if let Some(first) = self.start.first_mut() {
            *first = 0;
        }
        refill(&mut self.last_landing, nodes, NIL);
        self.landings.clear();
    }

    /// Map `map`'s output as it stands now.
    fn get(&self, map: usize) -> Option<MapOutput> {
        self.outputs.get(map).copied()
    }

    /// `map`'s output is gone; the map re-executes in `row`.
    fn lose(&mut self, map: usize, row: usize) {
        if let Some(out) = self.outputs.get_mut(map) {
            out.holder = NIL;
            out.row = narrow(row);
        }
    }

    /// `map`'s re-execution landed on `node`, which holds its output now.
    fn land(&mut self, map: usize, node: usize) {
        let Some(out) = self.outputs.get_mut(map) else {
            return;
        };
        out.holder = narrow(node);
        let Some(last) = self.last_landing.get_mut(node) else {
            return;
        };
        self.landings.push(Landing {
            map: narrow(map),
            before: *last,
        });
        *last = narrow(self.landings.len() - 1);
    }

    /// The maps whose output `node` holds, ascending, into `maps` — one
    /// probe per entry of its initial run and its chain of landings.
    fn held_by(&self, node: usize, maps: &mut Vec<u32>) {
        maps.clear();
        let at = |i: usize| self.start.get(i).copied().map_or(0, wide);
        let initial = self.initial.get(at(node)..at(node + 1)).unwrap_or_default();
        let holds = |map: u32| self.outputs.get(wide(map)).is_some_and(|o| o.held_by(node));
        count_probes(initial.len() as u64);
        maps.extend(initial.iter().copied().filter(|&map| holds(map)));
        let mut next = self.last_landing.get(node).copied().unwrap_or(NIL);
        while let Some(landing) = self.landings.get(wide(next)) {
            count_probes(1);
            if holds(landing.map) {
                maps.push(landing.map);
            }
            next = landing.before;
        }
        maps.sort_unstable();
    }
}

/// Live fetch-failure recovery state inside one engine run.
#[derive(Debug)]
struct FetchCtx<'a> {
    plan: FetchView<'a>,
    outputs: &'a mut MapOutputs,
    /// The maps a crash takes down, ascending.
    lost: &'a mut Vec<u32>,
    /// Rows of lost maps awaiting a slot.
    queue: &'a mut VecDeque<QueueEntry>,
    /// Lost-map re-executions not yet landed; reduces are gated while
    /// this is non-zero (the shuffle barrier stalls on missing inputs).
    outstanding: usize,
    /// Fetch-failed reduce tasks parked until recovery completes.
    gated: &'a mut Vec<QueueEntry>,
}

/// Both engines' working state between runs: every table a run sizes by
/// the cluster or the task count and is done with when it returns. A
/// caller that runs many phases hands the same one to each, and a run
/// starts by resetting what it uses, so nothing of the last run is read.
///
/// What a fault-engine run keeps per task is one 24-byte [`TaskRow`] here
/// and one span in the result's winners' column, which the run writes in
/// place; the tasks not launched yet are a cursor, not queue entries. A
/// run that errors leaves its result vectors in `done`, as a recycled run
/// does.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    /// The fault-free loop's calendar and slot book.
    pub(super) clean: CleanScratch,
    sim: Simulation<FaultEvent>,
    book: SlotBook<QueueEntry>,
    node_failures: Vec<u32>,
    rows: Vec<TaskRow>,
    attempts: Vec<Option<RunningAttempt>>,
    rack_blacklist_count: Vec<u32>,
    rack_blacklisted: Vec<bool>,
    outputs: MapOutputs,
    lost: Vec<u32>,
    fetch_queue: VecDeque<QueueEntry>,
    gated: Vec<QueueEntry>,
    late: LateIndex,
    /// `(row, slot)` of the attempts a crash takes down.
    victims: Vec<(usize, usize)>,
    /// The result vectors of a run its caller is done with
    /// ([`EngineScratch::recycle`]) or of a run that errored, for the
    /// next run of either engine to fill.
    pub(super) done: Option<PhaseRun>,
}

impl EngineScratch {
    /// Takes back a run nobody reads any more: the next run writes its
    /// result into this one's vectors.
    pub(crate) fn recycle(&mut self, run: PhaseRun) {
        self.done = Some(run);
    }
}

/// Calendar events of the fault-aware engine. Payloads are ids only; the
/// handlers look everything else up in [`FaultState`].
#[derive(Debug, Clone, Copy)]
pub(super) enum FaultEvent {
    /// The attempt in global slot `slot` ran to completion.
    AttemptDone { slot: usize },
    /// The attempt in global slot `slot` hit its injected failure.
    AttemptFailed { slot: usize },
    /// `row`'s backoff is over; it re-enters its queue.
    Requeue { row: usize },
    /// Marker for a whole-rack outage, ahead of the member nodes' crashes.
    RackCrash { rack: usize },
    /// `node` dies, and with it the map outputs it held.
    NodeCrash { node: usize },
}

/// State of one fault-aware engine run.
#[derive(Debug)]
pub(super) struct FaultState<'a> {
    book: &'a mut SlotBook<QueueEntry>,
    node_failures: &'a mut Vec<u32>,
    rows: &'a mut Vec<TaskRow>,
    /// In-flight attempts by global slot id ([`SlotBook::global_slots`]).
    /// An attempt *is* what occupies a slot, so this table is the running
    /// set: bounded by cluster capacity, whatever the task count.
    attempts: &'a mut Vec<Option<RunningAttempt>>,
    /// Phase tasks never launched yet: the head of the FIFO queue, ahead
    /// of everything `book.queue` holds.
    fresh: std::ops::Range<usize>,
    /// Phase tasks not yet won.
    pending: usize,
    // LATE progress-rate statistics over every attempt launched so far.
    rate_sum: f64,
    rate_count: u64,
    // Outputs.
    /// The winners' column, by task: [`UNWON`] until the task's winner
    /// is written over it.
    spans: Vec<TaskSpan>,
    wasted: Vec<TaskSpan>,
    recovered: Vec<TaskSpan>,
    annotations: Vec<(f64, DomainEvent)>,
    fstats: FaultStats,
    policy: RecoveryPolicy,
    error: Option<PhaseError>,
    // Failure-domain state (inert when `racks == 0`).
    /// Rack count of the failure-domain config (0 = no domains).
    racks: usize,
    /// Individually-blacklisted nodes per rack, driving the escalation
    /// to rack-granularity blacklisting.
    rack_blacklist_count: &'a mut Vec<u32>,
    rack_blacklisted: &'a mut Vec<bool>,
    fetch: Option<FetchCtx<'a>>,
    /// The attempts LATE may still duplicate: every in-flight attempt of
    /// a row without a backup, and nothing else.
    late: &'a mut LateIndex,
    victims: &'a mut Vec<(usize, usize)>,
}

impl FaultState<'_> {
    /// Empties global slot `slot`: its attempt leaves its row and the
    /// slot returns to the pool.
    fn vacate(&mut self, slot: usize) -> Option<RunningAttempt> {
        let r = self.attempts.get_mut(slot)?.take()?;
        self.late.remove(slot);
        self.rows[r.row].detach(slot);
        self.book.release_slot(r.node, r.slot);
        Some(r)
    }

    /// `(row, slot)` of the in-flight attempts in global slots `slots`
    /// that `hit` selects, ascending, in the scratch's vector — which the
    /// caller hands back to `self.victims` when done with it.
    fn victims_in(
        &mut self,
        slots: std::ops::Range<usize>,
        hit: impl Fn(&RunningAttempt) -> bool,
    ) -> Vec<(usize, usize)> {
        let mut victims = std::mem::take(self.victims);
        victims.clear();
        victims.extend(slots.filter_map(|slot| {
            let r = self.attempts.get(slot)?.as_ref()?;
            hit(r).then_some((r.row, slot))
        }));
        victims.sort_unstable();
        victims
    }

    /// Puts `row` in line for a slot. Lost maps queue for recovery,
    /// which is served ahead of the phase's own tasks.
    fn enqueue(&mut self, row: usize, queued: SimTime) {
        let entry = QueueEntry { row, queued };
        match (self.rows[row].kind(), self.fetch.as_mut()) {
            (RowKind::Reexec { .. }, Some(f)) => f.queue.push_back(entry),
            _ => self.book.queue.push_back(entry),
        }
    }

    /// Takes the head of the phase's FIFO queue: the tasks never launched,
    /// in task order and queued at phase start, then `book.queue` in push
    /// order.
    fn next_in_line(&mut self) -> Option<QueueEntry> {
        match self.fresh.next() {
            Some(row) => Some(QueueEntry {
                row,
                queued: SimTime::ZERO,
            }),
            None => self.book.queue.pop_front(),
        }
    }

    /// Counts a failed attempt against `node`, blacklisting it — and,
    /// with an active rack domain, possibly its whole rack — once the
    /// policy thresholds are crossed. Blacklisting never strands the
    /// job: the last usable node, and the last rack with a usable node,
    /// stay schedulable.
    fn note_attempt_failure(&mut self, node: usize, now: SimTime) {
        if let Some(f) = self.node_failures.get_mut(node) {
            *f += 1;
        }
        let limit = self.policy.blacklist_after;
        let fails = self.node_failures.get(node).copied().unwrap_or(0);
        if limit > 0
            && fails >= limit
            && self.book.slots.usable(node)
            && self.book.slots.usable_other_than(node)
        {
            self.book.slots.set_unusable(node);
            self.fstats.blacklisted_nodes += 1;
            self.maybe_blacklist_rack(node, now);
        }
    }

    /// Escalates node blacklisting to rack granularity: once
    /// `rack_blacklist_after` nodes of one rack have been individually
    /// blacklisted, the whole rack (a bad ToR switch, in Hadoop terms)
    /// stops receiving attempts — unless it is the last rack with any
    /// usable node, which must stay schedulable.
    fn maybe_blacklist_rack(&mut self, node: usize, now: SimTime) {
        let racks = self.racks;
        let after = self.policy.rack_blacklist_after;
        if racks == 0 || after == 0 {
            return;
        }
        let rack = node % racks;
        if self.rack_blacklisted.get(rack).copied().unwrap_or(true) {
            return;
        }
        if let Some(c) = self.rack_blacklist_count.get_mut(rack) {
            *c += 1;
        }
        if self.rack_blacklist_count.get(rack).copied().unwrap_or(0) < after {
            return;
        }
        let nodes = self.node_failures.len();
        let usable_elsewhere = (0..nodes).any(|n| n % racks != rack && self.book.slots.usable(n));
        if !usable_elsewhere {
            return;
        }
        for n in (rack..nodes).step_by(racks) {
            if self.book.slots.usable(n) {
                self.book.slots.set_unusable(n);
            }
        }
        if let Some(b) = self.rack_blacklisted.get_mut(rack) {
            *b = true;
        }
        self.fstats.racks_blacklisted += 1;
        self.annotations
            .push((now.as_secs_f64(), DomainEvent::RackBlacklisted(rack)));
    }

    /// Records a losing attempt's span and its wasted slot-seconds.
    fn record_wasted(&mut self, r: &RunningAttempt, now: SimTime, outcome: AttemptOutcome) {
        self.fstats.wasted_slot_s += now.saturating_sub(r.launched).as_secs_f64();
        self.wasted.push(r.span(now, outcome));
    }
}

/// Starts the next attempt of `entry.row` on `node`, scheduling its
/// failure or completion event per the fault plan. A phase task runs at
/// the phase's timing and pays `load`'s extras at `tier`; a re-executed
/// map runs at map speed (not the surrounding reduce phase's) and pays
/// the surviving-replica tier's read. The slot, the jitter and slowdown,
/// the injected-failure draw and the LATE statistics are the same for
/// both — re-executions can fail, be killed or get
/// their node blacklisted like any other attempt.
#[expect(
    clippy::too_many_arguments,
    reason = "the engine, its state, the phase's load and faults and the attempt's placement come from three call sites in the event loop; a bundle struct would exist only to carry them across this call"
)]
fn launch_attempt(
    sim: &mut Simulation<FaultEvent>,
    st: &mut FaultState,
    load: &PhaseLoad,
    faults: &PhaseFaults,
    entry: QueueEntry,
    node: usize,
    tier: LocalityTier,
    speculative: bool,
) {
    let now = sim.now();
    let QueueEntry { row, queued } = entry;
    let (slot, wave) = st.book.claim_slot(node);
    st.book.note_wait(now.saturating_sub(queued));
    let global = st.book.global_slots(node).start + slot;
    let r = &mut st.rows[row];
    let (kind, attempt) = (r.kind(), r.next_attempt);
    r.next_attempt += 1;
    r.attach(global);
    if speculative {
        r.speculated = true;
        st.fstats.speculative_launched += 1;
        // With its backup in flight the primary is no candidate any more.
        if let Some(primary) = r.primary() {
            st.late.remove(primary);
        }
    } else if !r.speculated {
        st.late.launched(global);
    }
    let (jitter_key, timing, extra) = match (kind, st.fetch.as_ref()) {
        (RowKind::Reexec { map }, Some(f)) => (
            map,
            f.plan.map_timing,
            f.plan.read_seconds.get(tier.idx()).copied().unwrap_or(0.0),
        ),
        _ => (row, load.timing.as_slice(), load.extra_for(row, tier)),
    };
    let t = timing[node];
    let dur_s = t.task_seconds * attempt_jitter(jitter_key, attempt) * faults.slowdown[node]
        + t.overhead_seconds
        + extra;
    let dur = SimTime::from_secs_f64(dur_s);
    let rate = 1.0 / dur_s.max(1e-12);
    st.rate_sum += rate;
    st.rate_count += 1;
    let event = match faults.plan.attempt_failure(row, attempt) {
        Some(frac) => sim.push_in(
            SimTime::from_secs_f64(dur_s * frac),
            FaultEvent::AttemptFailed { slot: global },
        ),
        None => sim.push_in(dur, FaultEvent::AttemptDone { slot: global }),
    };
    st.attempts[global] = Some(RunningAttempt {
        row,
        kind,
        attempt,
        node,
        slot,
        wave,
        queued,
        launched: now,
        duration: dur,
        rate,
        event,
        speculative,
        tier,
    });
}

/// Completion event. A phase task's first finisher wins it and any rival
/// attempt is cancelled (Hadoop kills the loser of a speculative race).
/// A re-executed map that lands moves its output to the new holder and —
/// once no re-execution is outstanding — releases the gated reduces back
/// into the queue.
fn attempt_completed(sim: &mut Simulation<FaultEvent>, st: &mut FaultState, slot: usize) {
    let now = sim.now();
    let Some(r) = st.vacate(slot) else {
        return;
    };
    if st.error.is_some() {
        // Phase already failed; just drain the calendar.
        return;
    }
    st.book.note_finish(now);
    match r.kind {
        RowKind::Task => {
            st.pending -= 1;
            if r.speculative {
                st.fstats.speculative_wins += 1;
            }
            let won = std::mem::replace(&mut st.spans[r.row], r.span(now, AttemptOutcome::Success));
            debug_assert_eq!(won.attempt, UNWON.attempt, "two winners for task {}", r.row);
            // With the winner gone, a rival is the row's only attempt.
            if let Some(rival) = st.rows[r.row].primary().and_then(|s| st.vacate(s)) {
                sim.cancel(rival.event);
                st.record_wasted(&rival, now, AttemptOutcome::Cancelled);
                st.fstats.cancelled_attempts += 1;
            }
        }
        RowKind::Reexec { map } => {
            st.recovered.push(r.span(now, AttemptOutcome::Recovered));
            st.fstats.reexecuted_maps += 1;
            let Some(f) = st.fetch.as_mut() else {
                return;
            };
            f.outputs.land(map, r.node);
            f.outstanding = f.outstanding.saturating_sub(1);
            if f.outstanding == 0 {
                st.book.queue.extend(f.gated.drain(..));
            }
        }
    }
}

/// Injected-failure event: count the failure, maybe blacklist the node,
/// and re-queue the row after exponential backoff — or fail the phase
/// once `max_attempts` is exhausted.
fn attempt_failed(sim: &mut Simulation<FaultEvent>, st: &mut FaultState, slot: usize) {
    let now = sim.now();
    let Some(r) = st.vacate(slot) else {
        return;
    };
    if st.error.is_some() {
        return;
    }
    st.record_wasted(&r, now, AttemptOutcome::Failed);
    st.fstats.failed_attempts += 1;
    let row = &mut st.rows[r.row];
    row.failed += 1;
    let (fails, idle) = (row.failed, row.is_idle());
    // Hadoop never blacklists its way to an empty cluster (it caps the
    // blacklisted fraction); we keep the last usable node schedulable.
    st.note_attempt_failure(r.node, now);
    if fails >= st.policy.max_attempts {
        st.error = Some(PhaseError::AttemptsExhausted {
            task: r.task(),
            attempts: fails,
        });
        return;
    }
    if !idle {
        // A speculative rival is still in flight and may yet win.
        return;
    }
    let delay = SimTime::from_secs_f64(st.policy.backoff_s(fails));
    sim.push_in(delay, FaultEvent::Requeue { row: r.row });
}

/// Node-crash event: the node's slots disappear for the rest of the run
/// and every in-flight attempt on it is killed. Killed attempts do not
/// count against `max_attempts` (Hadoop's KILLED vs FAILED distinction)
/// and re-queue immediately.
fn crash_node(sim: &mut Simulation<FaultEvent>, st: &mut FaultState, node: usize) {
    if st.error.is_some() || st.pending == 0 || !st.book.slots.alive(node) {
        // The phase is already over (the crash belongs to a later phase,
        // handled there via `dead_at_start`) or has failed.
        return;
    }
    let now = sim.now();
    st.book.slots.kill(node);
    st.fstats.node_crashes += 1;
    // The node's stretch of the slot table holds exactly its victims;
    // they are processed in ascending row order.
    let victims = st.victims_in(st.book.global_slots(node), |_| true);
    for &(row, slot) in &victims {
        let Some(r) = st.vacate(slot) else {
            continue;
        };
        sim.cancel(r.event);
        st.record_wasted(&r, now, AttemptOutcome::Killed);
        st.fstats.killed_attempts += 1;
        if st.rows.get(row).is_some_and(TaskRow::is_idle) {
            st.enqueue(row, now);
        }
    }
    *st.victims = victims;
}

/// Rack-crash marker event: counts and annotates a whole-rack (ToR
/// switch or correlated-domain) outage. Scheduled *before* the member
/// nodes' own crash events at the same instant, so "some node of the
/// rack was still alive" distinguishes a real rack outage from racks
/// that had already bled out node by node.
fn rack_crashed(sim: &mut Simulation<FaultEvent>, st: &mut FaultState, rack: usize) {
    if st.error.is_some() || st.pending == 0 {
        return;
    }
    let nodes = st.node_failures.len();
    let any_alive = (rack..nodes)
        .step_by(st.racks.max(1))
        .any(|n| st.book.slots.alive(n));
    if !any_alive {
        return;
    }
    st.fstats.rack_crashes += 1;
    st.annotations
        .push((sim.now().as_secs_f64(), DomainEvent::RackCrash(rack)));
}

/// Fetch-failure handler, run right after [`crash_node`] for the same
/// node: any completed map whose output lived on the dead node is lost,
/// every in-flight reduce attempt registers a fetch failure (its shuffle
/// flow from that output is cancelled on the calendar) and is parked
/// until the lost maps have been re-executed on surviving nodes. A map
/// whose every input replica is also gone fails the phase with
/// [`PhaseError::DataLost`].
///
/// The lost maps are handled in ascending map order, which is what the
/// holder index hands over: the same rows, queue entries and first
/// unrecoverable map as a walk over every output.
fn fetch_on_crash(sim: &mut Simulation<FaultEvent>, st: &mut FaultState, node: usize) {
    if st.error.is_some() || st.pending == 0 {
        return;
    }
    let Some(f) = st.fetch.as_mut() else {
        return;
    };
    let mut lost = std::mem::take(f.lost);
    f.outputs.held_by(node, &mut lost);
    #[cfg(any(test, debug_assertions))]
    assert!(
        lost.iter()
            .map(|&map| wide(map))
            .eq(oracle::lost_outputs(f.outputs, node)),
        "outputs lost with node {node}"
    );
    let now = sim.now();
    for map in lost.iter().map(|&map| wide(map)) {
        let Some(f) = st.fetch.as_mut() else {
            break;
        };
        let all_replicas_gone = f
            .plan
            .map_replicas
            .get(map)
            .map_or(true, |reps| reps.iter().all(|&r| !st.book.slots.alive(r)));
        if all_replicas_gone {
            st.error = Some(PhaseError::DataLost { task: map });
            break;
        }
        f.outstanding += 1;
        // First loss of this map: it gets a row. Re-losses (the re-run's
        // holder crashed too) reuse it so attempt counters carry on.
        let row = match f.outputs.get(map).map(|out| out.row) {
            Some(row) if row != NIL => wide(row),
            _ => {
                st.rows.push(TaskRow::reexec(map));
                st.rows.len() - 1
            }
        };
        f.outputs.lose(map, row);
        st.enqueue(row, now);
    }
    let any_lost = st.error.is_none() && !lost.is_empty();
    if let Some(f) = st.fetch.as_mut() {
        *f.lost = lost;
    }
    if !any_lost {
        return;
    }
    // The shuffle is all-to-all: every in-flight reduce was fetching
    // from the lost outputs. Cancel their flows on the calendar and gate
    // them behind the re-executions, in ascending task order. (Attempts
    // on the dead node itself were already killed by `crash_node`.)
    let mut victims = st.victims_in(0..st.attempts.len(), |r| matches!(r.kind, RowKind::Task));
    victims.dedup_by_key(|&mut (row, _)| row);
    for &(row, _) in &victims {
        while let Some(r) = (st.rows.get(row))
            .and_then(TaskRow::youngest)
            .and_then(|s| st.vacate(s))
        {
            sim.cancel(r.event);
            st.record_wasted(&r, now, AttemptOutcome::FetchFailed);
            st.fstats.fetch_failures += 1;
        }
        if let Some(f) = st.fetch.as_mut() {
            f.gated.push(QueueEntry { row, queued: now });
        }
    }
    *st.victims = victims;
}

/// Picks the node and locality tier for the re-execution of the lost
/// map in `row`, `None` while no slot is free. The NameNode is re-queried
/// for the *surviving* replica set, and among free usable nodes the best
/// locality tier wins, the lowest node id within it — which the replicas
/// name without a look at any other node: the lowest surviving holder
/// with a free slot; else, per rack that holds a surviving replica, that
/// rack's first free node, the lowest of them; else the cluster's first
/// free node, pricing the off-rack read. With every input replica gone
/// the job cannot recover.
fn choose_reexec_node(
    st: &FaultState,
    row: usize,
) -> Result<Option<(usize, LocalityTier)>, PhaseError> {
    let (Some(f), Some(RowKind::Reexec { map })) =
        (st.fetch.as_ref(), st.rows.get(row).map(TaskRow::kind))
    else {
        return Ok(None);
    };
    let slots = &st.book.slots;
    let reps = f
        .plan
        .map_replicas
        .get(map)
        .map(Vec::as_slice)
        .unwrap_or_default();
    count_probes(reps.len() as u64);
    let survivors = || reps.iter().copied().filter(move |&r| slots.alive(r));
    let pick = if survivors().next().is_none() {
        Err(PhaseError::DataLost { task: map })
    } else if let Some(n) = survivors()
        .filter(|&r| slots.usable(r) && slots.free(r) > 0)
        .min()
    {
        Ok(Some((n, LocalityTier::NodeLocal)))
    } else {
        let racks = f.plan.topology.racks.max(1);
        let in_a_survivors_rack = if racks == 1 {
            slots.first_free()
        } else {
            // Replicas are few, so a rack two of them share is searched
            // twice rather than remembered.
            survivors()
                .filter_map(|r| slots.first_free_in_rack(r % racks, racks))
                .min()
        };
        Ok(match in_a_survivors_rack {
            Some(n) => Some((n, LocalityTier::RackLocal)),
            None => slots.first_free().map(|n| (n, LocalityTier::OffRack)),
        })
    };
    #[cfg(any(test, debug_assertions))]
    assert_eq!(
        pick,
        oracle::reexec_node(st, map),
        "re-execution of map {map}"
    );
    pick
}

/// LATE speculation: among tasks with a single running attempt that has
/// run at least `spec_min_runtime_s` and progresses below
/// `spec_rate_threshold` × the mean rate of all launched attempts, pick
/// the slowest — the least `(rate, row)` — and duplicate it on the
/// fastest usable node that is not the primary's, but only if the backup
/// is expected to finish first.
///
/// The laggard is read off the [`LateIndex`], which holds exactly the
/// attempts of rows without a backup. The clock never runs backwards, so
/// launch order is age order and the attempts that have run long enough
/// are a prefix of it: the index keeps the too-young in launch order,
/// this moves the head of that list into a heap on `(rate, row)` while it
/// is old enough, and the heap's top is the laggard — if even the slowest
/// is not slow enough, nothing is.
///
/// The backup node is read off the speed classes installed at run start.
/// A backup's duration depends on the node only through the bits of its
/// timing and slowdown, which is what a class shares, so the node a walk
/// over every free node settles on — the first of the least duration,
/// unless the lowest free node's is NaN: nothing compares below a NaN —
/// is some class's lowest free node.
fn choose_speculation(
    st: &mut FaultState,
    load: &PhaseLoad,
    faults: &PhaseFaults,
    now: SimTime,
) -> Option<(usize, usize)> {
    if st.rate_count == 0 {
        return None;
    }
    let mean = st.rate_sum / st.rate_count as f64;
    let running = |slot: usize| st.attempts.get(slot).and_then(Option::as_ref);
    while let Some(slot) = st.late.oldest_young() {
        let r = running(slot)?;
        if now.saturating_sub(r.launched).as_secs_f64() < st.policy.spec_min_runtime_s {
            break;
        }
        st.late.promote(slot, r.rate, r.row);
    }
    // The test as the policy words it: a NaN threshold keeps nobody out.
    let keeps_up = |r: &RunningAttempt| r.rate >= st.policy.spec_rate_threshold * mean;
    let primary = st.late.slowest().and_then(running).filter(|r| !keeps_up(r));
    #[cfg(any(test, debug_assertions))]
    assert_eq!(
        primary.map(|r| r.row),
        oracle::laggard(st, now, mean),
        "LATE primary at {now:?}"
    );
    let primary = primary?;
    let task = primary.row;
    let aj = attempt_jitter(task, st.rows.get(task)?.next_attempt);
    let backup_s = |node: usize| {
        let t = load.timing.get(node)?;
        Some(t.task_seconds * aj * faults.slowdown.get(node)? + t.overhead_seconds)
    };
    // The lowest candidate, and the least `(duration, node)` of the
    // candidates whose duration is a number.
    let mut lowest: Option<(usize, f64)> = None;
    let mut least: Option<(f64, usize)> = None;
    for node in st.book.slots.class_leaders(primary.node) {
        let d = backup_s(node)?;
        if lowest.map_or(true, |(n, _)| node < n) {
            lowest = Some((node, d));
        }
        if !d.is_nan() && least.map_or(true, |(ld, ln)| d < ld || (d == ld && node < ln)) {
            least = Some((d, node));
        }
    }
    let best = match lowest {
        Some((node, d)) if d.is_nan() => Some((d, node)),
        _ => least,
    };
    #[cfg(any(test, debug_assertions))]
    assert_eq!(
        best.map(|(_, node)| node),
        oracle::backup_node(st, primary.node, backup_s),
        "LATE backup of row {task} at {now:?}"
    );
    let (backup_s, node) = best?;
    if now + SimTime::from_secs_f64(backup_s) >= primary.launched + primary.duration {
        return None;
    }
    Some((task, node))
}

/// The indexed decisions made the exhaustive way, over every slot, every
/// free node and every map output: debug and test builds hold each pick
/// against these, release builds do not carry them.
#[cfg(any(test, debug_assertions))]
pub(super) mod oracle {
    use hhsim_hdfs::NodeId;
    use std::cell::Cell;

    use super::{FaultState, LocalityTier, MapOutputs, PhaseError, SimTime};

    thread_local! {
        /// Entries the searches below examined on this thread: what every
        /// decision would cost made their way.
        static PROBES: Cell<u64> = const { Cell::new(0) };
    }

    fn count_oracle_probes(entries: u64) {
        PROBES.with(|p| p.set(p.get() + entries));
    }

    /// Returns this thread's count of examined entries and zeroes it.
    #[cfg(test)]
    pub(in crate::cluster) fn take_probes() -> u64 {
        PROBES.with(|p| p.replace(0))
    }

    /// Row of the attempt LATE would duplicate, by a walk over every slot.
    pub(super) fn laggard(st: &FaultState, now: SimTime, mean: f64) -> Option<usize> {
        count_oracle_probes(st.attempts.len() as u64);
        let mut primary: Option<&super::RunningAttempt> = None;
        for r in st.attempts.iter().flatten() {
            if st.rows.get(r.row).map_or(true, |row| row.speculated) {
                continue;
            }
            if now.saturating_sub(r.launched).as_secs_f64() < st.policy.spec_min_runtime_s {
                continue;
            }
            if r.rate >= st.policy.spec_rate_threshold * mean {
                continue;
            }
            if primary.map_or(true, |best| {
                r.rate < best.rate || (r.rate == best.rate && r.row < best.row)
            }) {
                primary = Some(r);
            }
        }
        primary.map(|r| r.row)
    }

    /// Node LATE would put the backup of an attempt on `primary` on, by a
    /// walk over every free usable node in id order: the first of the
    /// least `duration`, where nothing replaces a NaN.
    pub(super) fn backup_node(
        st: &FaultState,
        primary: usize,
        duration: impl Fn(usize) -> Option<f64>,
    ) -> Option<usize> {
        let slots = &st.book.slots;
        count_oracle_probes(slots.nodes() as u64);
        let mut best: Option<(f64, usize)> = None;
        for node in (0..slots.nodes()).filter(|&n| slots.usable(n) && slots.free(n) > 0) {
            if node == primary {
                continue;
            }
            let d = duration(node)?;
            if best.map_or(true, |(bd, _)| d < bd) {
                best = Some((d, node));
            }
        }
        best.map(|(_, node)| node)
    }

    /// Maps whose output a crash of `node` takes, by a walk over every
    /// output, in map order.
    pub(super) fn lost_outputs(
        outputs: &MapOutputs,
        node: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        count_oracle_probes(outputs.outputs.len() as u64);
        (outputs.outputs.iter().enumerate())
            .filter(move |(_, out)| out.held_by(node))
            .map(|(map, _)| map)
    }

    /// Where lost map `map` re-executes, by [`Topology::surviving_tier`]
    /// of every free node — asked one replica at a time, so that the
    /// oracle allocates nothing and a debug build's allocation counts are
    /// a release build's.
    ///
    /// [`Topology::surviving_tier`]: hhsim_hdfs::Topology::surviving_tier
    pub(super) fn reexec_node(
        st: &FaultState,
        map: usize,
    ) -> Result<Option<(usize, LocalityTier)>, PhaseError> {
        let Some(f) = st.fetch.as_ref() else {
            return Ok(None);
        };
        let slots = &st.book.slots;
        let reps = f
            .plan
            .map_replicas
            .get(map)
            .map(Vec::as_slice)
            .unwrap_or_default();
        let alive = slots.alive_mask();
        let lost = PhaseError::DataLost { task: map };
        let mut best: Option<(LocalityTier, usize)> = None;
        for n in (0..slots.nodes()).filter(|&n| slots.usable(n) && slots.free(n) > 0) {
            count_oracle_probes(reps.len() as u64);
            let tier = reps
                .iter()
                .filter_map(|&r| {
                    f.plan
                        .topology
                        .surviving_tier(NodeId(n), &[NodeId(r)], alive)
                })
                .min();
            let Some(tier) = tier else {
                return Err(lost);
            };
            if best.map_or(true, |(bt, bn)| (tier, n) < (bt, bn)) {
                best = Some((tier, n));
            }
        }
        match best {
            Some((tier, n)) => Ok(Some((n, tier))),
            None if reps.iter().any(|&r| slots.alive(r)) => Ok(None),
            None => Err(lost),
        }
    }
}

/// [`run_phase`](super::run_phase) with optional fault injection: `None`
/// (or an inert [`PhaseFaults`]) reproduces the fault-free engine exactly;
/// with faults, tasks are re-executed per the plan's failures, node crashes
/// and the policy's speculation/blacklisting, and the run either
/// completes with attempt-level spans (wasted work included) or errors
/// cleanly.
///
/// # Panics
///
/// Panics if the cluster has no slots or more than `u32::MAX − 1` (the
/// engine's `u32` columns reserve `u32::MAX` for "none"), or
/// `load.timing`/the fault vectors do not match the cluster's node count.
/// [`SimConfig::run`](crate::SimConfig::run) cannot get here: its
/// `ConfigError` already bounds the node, slot and map-task columns.
pub fn run_phase_faulty(
    cluster: &Cluster,
    load: &PhaseLoad,
    placement: &mut dyn Placement,
    faults: Option<&PhaseFaults>,
) -> Result<PhaseRun, PhaseError> {
    run_phase_faulty_fetch(cluster, load, placement, faults, None)
}

/// [`run_phase_faulty`] with Hadoop fetch-failure semantics for a reduce
/// phase: `fetch` says which node holds each completed map's output and
/// where the map input replicas live. When a holder dies mid-phase (or
/// died between the phases), its outputs are lost — in-flight reduce
/// attempts' shuffle flows are cancelled on the calendar as fetch
/// failures, reduces stall on the shuffle barrier, and the lost maps are
/// re-executed on surviving nodes at the surviving-replica locality tier
/// before the reduces resume. A map whose every input replica is gone
/// fails cleanly with [`PhaseError::DataLost`]. `fetch = None` is
/// exactly [`run_phase_faulty`].
///
/// # Panics
///
/// Same contract as [`run_phase_faulty`]; with faults, also if the plan
/// does not have one `map_timing` entry per node, one `map_replicas` list
/// per holder, or holders that are nodes of the cluster, or if it has
/// more than `u32::MAX − 1` map outputs.
pub fn run_phase_faulty_fetch(
    cluster: &Cluster,
    load: &PhaseLoad,
    placement: &mut dyn Placement,
    faults: Option<&PhaseFaults>,
    fetch: Option<&FetchPlan>,
) -> Result<PhaseRun, PhaseError> {
    let scratch = &mut EngineScratch::default();
    run_phase_fetching(
        cluster,
        load,
        placement,
        faults,
        fetch.map(FetchPlan::view),
        scratch,
    )
}

/// [`run_phase_faulty_fetch`] over the borrowed plan: the engine itself.
pub(crate) fn run_phase_fetching(
    cluster: &Cluster,
    load: &PhaseLoad,
    placement: &mut dyn Placement,
    faults: Option<&PhaseFaults>,
    fetch: Option<FetchView<'_>>,
    scratch: &mut EngineScratch,
) -> Result<PhaseRun, PhaseError> {
    let Some(faults) = faults else {
        let recycled = scratch.done.take();
        return Ok(run_phase_in(
            cluster,
            load,
            placement,
            &mut scratch.clean,
            recycled,
        ));
    };
    let nodes = cluster.nodes.len();
    let capacity = cluster.total_slots();
    assert!(capacity > 0, "need at least one slot");
    assert!(
        u32::try_from(capacity).is_ok_and(|c| c != NIL),
        "global slot ids must stay below the NIL column value"
    );
    assert_eq!(load.timing.len(), nodes, "one timing entry per node");
    assert_eq!(faults.slowdown.len(), nodes, "one slowdown entry per node");
    assert_eq!(faults.crash_at_s.len(), nodes, "one crash entry per node");
    assert_eq!(
        faults.dead_at_start.len(),
        nodes,
        "one liveness entry per node"
    );
    if let Some(plan) = fetch {
        assert_eq!(
            plan.map_timing.len(),
            nodes,
            "one map timing entry per node"
        );
        assert_eq!(
            plan.map_replicas.len(),
            plan.holders.len(),
            "one replica list per map output"
        );
        assert!(
            plan.holders.iter().all(|&h| h < nodes),
            "every map output held by a node of the cluster"
        );
    }
    if load.tasks == 0 {
        return Ok(PhaseRun::idle(capacity, scratch.done.take()));
    }

    let EngineScratch {
        clean: _,
        sim,
        book,
        node_failures,
        rows,
        attempts,
        rack_blacklist_count,
        rack_blacklisted,
        outputs,
        lost,
        fetch_queue,
        gated,
        late,
        victims,
        done,
    } = scratch;
    let mut out = PhaseRun::idle(capacity, done.take());
    // Sized once, and each winner written over its task's cell: grown by
    // doubling or copied from a table of its own, the winners' column
    // would peak at twice its size.
    refill(&mut out.spans, load.tasks, UNWON);
    sim.reset();
    book.reset(cluster, Some(&faults.dead_at_start));
    // A backup's duration on a node is a function of these bits alone.
    book.slots.install_classes(|n| {
        let t = load.timing.get(n);
        let t = t.map(|t| (t.task_seconds.to_bits(), t.overhead_seconds.to_bits()));
        (t, faults.slowdown.get(n).map(|s| s.to_bits()))
    });
    refill(node_failures, nodes, 0);
    rows.clear();
    rows.extend((0..load.tasks).map(|_| TaskRow::task()));
    refill(attempts, capacity, None);
    refill(rack_blacklist_count, faults.domains.racks, 0);
    refill(rack_blacklisted, faults.domains.racks, false);
    late.reset(capacity);
    let mut st = FaultState {
        book,
        node_failures,
        rows,
        attempts,
        fresh: 0..load.tasks,
        pending: load.tasks,
        rate_sum: 0.0,
        rate_count: 0,
        spans: out.spans,
        wasted: out.wasted,
        recovered: out.recovered,
        annotations: out.annotations,
        fstats: FaultStats::default(),
        policy: faults.policy,
        error: None,
        racks: faults.domains.racks,
        rack_blacklist_count,
        rack_blacklisted,
        fetch: fetch.map(|plan| {
            outputs.reset(plan.holders, nodes);
            fetch_queue.clear();
            gated.clear();
            FetchCtx {
                plan,
                outputs,
                lost,
                queue: fetch_queue,
                outstanding: 0,
                gated,
            }
        }),
        late,
        victims,
    };

    // Map outputs on nodes that died between the phases are lost before
    // the first reduce even launches.
    if fetch.is_some() {
        for (node, &dead) in faults.dead_at_start.iter().enumerate() {
            if dead {
                fetch_on_crash(sim, &mut st, node);
            }
        }
    }

    // Rack-outage markers go on the calendar before the member nodes'
    // own crash events, so at an identical timestamp the marker still
    // sees the rack alive.
    if faults.domains.racks > 0 {
        for (rack, crash) in faults.domains.rack_crash_at_s.iter().enumerate() {
            if let Some(t) = crash {
                sim.push_at(SimTime::from_secs_f64(*t), FaultEvent::RackCrash { rack });
            }
        }
    }

    for (node, crash) in faults.crash_at_s.iter().enumerate() {
        if let Some(t) = crash {
            sim.push_at(SimTime::from_secs_f64(*t), FaultEvent::NodeCrash { node });
        }
    }

    loop {
        // Same grant discipline as the fault-free engine — FIFO queue,
        // placement picks the node, at phase start and after every event
        // — plus a speculation pass once the queue is empty.
        while st.error.is_none() && st.book.slots.total_free() > 0 {
            // Fetch-failure recovery runs ahead of everything else.
            let lost = st.fetch.as_ref().and_then(|f| f.queue.front().copied());
            if let Some(entry) = lost {
                match choose_reexec_node(&st, entry.row) {
                    Ok(Some((node, tier))) => {
                        if let Some(f) = st.fetch.as_mut() {
                            f.queue.pop_front();
                        }
                        launch_attempt(sim, &mut st, load, faults, entry, node, tier, false);
                        continue;
                    }
                    Ok(None) => break,
                    Err(lost) => {
                        st.error = Some(lost);
                        break;
                    }
                }
            }
            // Reduces stall on the shuffle barrier while lost map
            // outputs are being re-executed.
            if st.fetch.as_ref().is_some_and(|f| f.outstanding > 0) {
                break;
            }
            if let Some(entry) = st.next_in_line() {
                let (node, _tier) = placement.place_local(
                    entry.row,
                    cluster,
                    &st.book.slots,
                    load.locality.as_ref(),
                );
                assert!(
                    st.book.slots.free(node) > 0 && st.book.slots.usable(node),
                    "placement chose an unusable node"
                );
                let tier = load.tier_for(entry.row, node);
                launch_attempt(sim, &mut st, load, faults, entry, node, tier, false);
                continue;
            }
            if !faults.policy.speculation {
                break;
            }
            let now = sim.now();
            let Some((row, node)) = choose_speculation(&mut st, load, faults, now) else {
                break;
            };
            let entry = QueueEntry { row, queued: now };
            let tier = load.tier_for(row, node);
            launch_attempt(sim, &mut st, load, faults, entry, node, tier, true);
        }
        let backlog = st.fresh.len() + st.book.queue.len();
        st.book.stats.max_queue_len = st.book.stats.max_queue_len.max(backlog);

        let Some(event) = sim.pop() else {
            break;
        };
        match event {
            FaultEvent::AttemptDone { slot } => attempt_completed(sim, &mut st, slot),
            FaultEvent::AttemptFailed { slot } => attempt_failed(sim, &mut st, slot),
            FaultEvent::Requeue { row } => {
                if st.error.is_none() {
                    st.enqueue(row, sim.now());
                }
            }
            FaultEvent::RackCrash { rack } => rack_crashed(sim, &mut st, rack),
            FaultEvent::NodeCrash { node } => {
                crash_node(sim, &mut st, node);
                fetch_on_crash(sim, &mut st, node);
            }
        }
    }

    let error = st
        .error
        .or((st.pending > 0).then_some(PhaseError::NoUsableSlots {
            pending: st.pending,
        }));
    let run = PhaseRun {
        makespan_s: st.book.max_finish.as_secs_f64(),
        spans: st.spans,
        slots: st.book.stats,
        wasted: st.wasted,
        recovered: st.recovered,
        annotations: st.annotations,
        faults: st.fstats,
    };
    if let Some(e) = error {
        // A failed seed is one of many: the next run fills these vectors
        // rather than growing its own.
        *done = Some(run);
        return Err(e);
    }
    debug_assert!(
        run.spans.iter().all(|s| s.attempt != UNWON.attempt),
        "a task without a winner"
    );
    Ok(run)
}
