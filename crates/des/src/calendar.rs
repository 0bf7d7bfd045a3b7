//! Event-calendar backends.
//!
//! Two implementations stand behind [`crate::Simulation`]:
//!
//! * **Heap** — the reference `BinaryHeap<Reverse<Scheduled<E>>>`. Simple,
//!   obviously correct, `O(log n)` per operation with a constant factor
//!   that grows with the pending-event count.
//! * **Ladder** — a bucketed calendar queue for dense runs (10k-node /
//!   million-task cluster simulations): mid-term events live in
//!   fixed-width unsorted buckets, far-future events in an unsorted
//!   overflow that is re-bucketed when the buckets drain, and the front
//!   bucket is rotated in as one *sorted run* that pops off its end. Only
//!   an event pushed below the rotated-in range after the rotation — a
//!   delay shorter than a bucket width — goes through a (small) side
//!   heap. Push and pop are amortized `O(1)` in the event count: an
//!   event is bucketed once and sorted once, among one bucket's worth of
//!   neighbours, and emptied buckets are refilled rather than reallocated.
//!
//! Both backends pop events in exactly the same `(time, seq)` order —
//! the differential oracle in `tests/calendar_oracle.rs` fuzzes that
//! equivalence, and the artifact byte-identity gate depends on it.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::SimTime;

/// Calendar position of an event. The *derived* lexicographic order —
/// earliest time first, insertion sequence breaking ties (FIFO) — is the
/// kernel's entire determinism guarantee, total by construction; the
/// max-heap inversion lives in the [`Reverse`] wrapper at the heap, not in
/// a hand-flipped comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CalendarKey {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
}

/// One pending event: an opaque payload ordered by its calendar key alone.
pub(crate) struct Scheduled<E> {
    pub(crate) key: CalendarKey,
    pub(crate) event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Which event-calendar backend a [`crate::Simulation`] runs on.
///
/// The default, [`CalendarKind::Auto`], starts on the reference heap and
/// migrates to the ladder once the pending-event count crosses
/// [`AUTO_LADDER_THRESHOLD`] — small interactive simulations never pay
/// the ladder's bucket bookkeeping, dense cluster runs never pay
/// `O(log n)` heap churn. Pinning a backend is for the differential oracle
/// and for benchmarks that measure one backend alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CalendarKind {
    /// Heap first, ladder beyond [`AUTO_LADDER_THRESHOLD`] pending events.
    #[default]
    Auto,
    /// Always the reference binary heap.
    Heap,
    /// Always the bucketed ladder calendar.
    Ladder,
}

/// Pending-event count at which [`CalendarKind::Auto`] migrates the
/// calendar from the heap to the ladder.
pub const AUTO_LADDER_THRESHOLD: usize = 4096;

/// Bucket count targeted when the ladder re-buckets its overflow.
const TARGET_RUNGS: u64 = 64;

pub(crate) enum Calendar<E> {
    Heap(BinaryHeap<Reverse<Scheduled<E>>>),
    Ladder(Ladder<E>),
}

impl<E> Calendar<E> {
    pub(crate) fn new(kind: CalendarKind) -> Self {
        match kind {
            CalendarKind::Auto | CalendarKind::Heap => Calendar::Heap(BinaryHeap::new()),
            CalendarKind::Ladder => Calendar::Ladder(Ladder::new()),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Calendar::Heap(h) => h.len(),
            Calendar::Ladder(l) => l.len,
        }
    }

    /// The empty calendar [`Calendar::new`]`(kind)` builds, in the heap's
    /// allocation when there is one to keep (a ladder is rebuilt).
    pub(crate) fn reset(&mut self, kind: CalendarKind) {
        match (&mut *self, kind) {
            (Calendar::Heap(h), CalendarKind::Auto | CalendarKind::Heap) => h.clear(),
            _ => *self = Calendar::new(kind),
        }
    }

    pub(crate) fn push(&mut self, ev: Scheduled<E>) {
        match self {
            Calendar::Heap(h) => h.push(Reverse(ev)),
            Calendar::Ladder(l) => l.push(ev),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        match self {
            Calendar::Heap(h) => h.pop().map(|Reverse(ev)| ev),
            Calendar::Ladder(l) => l.pop(),
        }
    }

    /// Key of the next event to pop. `&mut` because the ladder may need
    /// to rotate buckets into its active zone to expose the minimum;
    /// rotation never changes the pop order.
    pub(crate) fn peek_key(&mut self) -> Option<CalendarKey> {
        match self {
            Calendar::Heap(h) => h.peek().map(|Reverse(ev)| ev.key),
            Calendar::Ladder(l) => l.peek_key(),
        }
    }

    /// Rebuilds the pending events into a ladder (no-op if already one).
    pub(crate) fn migrate_to_ladder(&mut self) {
        if let Calendar::Heap(heap) = self {
            let events: Vec<Scheduled<E>> = std::mem::take(heap)
                .into_iter()
                .map(|Reverse(ev)| ev)
                .collect();
            *self = Calendar::Ladder(Ladder::from_events(events));
        }
    }

    pub(crate) fn backend(&self) -> &'static str {
        match self {
            Calendar::Heap(_) => "heap",
            Calendar::Ladder(_) => "ladder",
        }
    }
}

/// The bucketed ladder calendar.
///
/// Time is split into three zones, nearest first:
///
/// 1. The active zone, every pending event with `at < active_end_ns`, in
///    two parts: `run`, the bucket last rotated in, sorted latest first so
///    that the next event is its last element; and `active`, a binary heap
///    of the events pushed into the zone *after* that rotation. All pops
///    come from here — the lesser key of the run's end and the heap's top
///    — so pop order within the zone is exact `(time, seq)`.
/// 2. `buckets`: `buckets[b]` is an *unsorted* list of events with
///    `at ∈ [active_end_ns + b·width_ns, active_end_ns + (b+1)·width_ns)`.
///    When the active zone drains, the front bucket is sorted (one
///    bucket's worth of events, once) and becomes the run, and
///    `active_end_ns` advances by one width.
/// 3. `overflow`: unsorted events at or beyond the bucket range. When
///    the active zone and `buckets` drain, the overflow is re-bucketed
///    over its own `[min, max]` span with a fresh width targeting
///    [`TARGET_RUNGS`] buckets, into the vectors the last round emptied
///    (`spare`).
///
/// Zone boundaries are strict on `at`, so two events with equal
/// timestamps always sit in the same zone relative to any boundary and
/// their FIFO `seq` tie-break is decided by key comparison inside the
/// active zone — never by bucket order. Keys are unique (`seq` is), so
/// the order is total and the unstable sort deterministic.
pub(crate) struct Ladder<E> {
    /// The rotated-in bucket, sorted by key, latest first.
    run: Vec<Scheduled<E>>,
    /// Events pushed below `active_end_ns` since the last rotation.
    active: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Exclusive upper time bound of the active zone, nanoseconds.
    active_end_ns: u64,
    buckets: VecDeque<Vec<Scheduled<E>>>,
    /// Width of one bucket, nanoseconds (always >= 1).
    width_ns: u64,
    overflow: Vec<Scheduled<E>>,
    /// Emptied bucket vectors, kept for the next re-bucketing.
    spare: Vec<Vec<Scheduled<E>>>,
    len: usize,
}

impl<E> Ladder<E> {
    pub(crate) fn new() -> Self {
        Ladder {
            run: Vec::new(),
            active: BinaryHeap::new(),
            active_end_ns: 0,
            buckets: VecDeque::new(),
            width_ns: 1,
            overflow: Vec::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Builds a ladder holding `events` (a heap migration): everything
    /// starts in overflow and is spread into buckets on the first pop.
    pub(crate) fn from_events(events: Vec<Scheduled<E>>) -> Self {
        let mut l = Ladder::new();
        l.active_end_ns = events
            .iter()
            .map(|ev| ev.key.at.as_nanos())
            .min()
            .unwrap_or(0);
        l.len = events.len();
        l.overflow = events;
        l
    }

    // `push`, `pop` and `peek_key` are kept out of line: inlined into
    // [`Calendar`]'s arms they grow the function the heap backend's pops
    // go through too, and simulations that never leave the heap pay for
    // ladder code they never run (measured on the heap probe and on
    // `replicate`; a call costs a ladder event about a nanosecond).
    #[inline(never)]
    pub(crate) fn push(&mut self, ev: Scheduled<E>) {
        self.len += 1;
        let at = ev.key.at.as_nanos();
        if at < self.active_end_ns {
            self.active.push(Reverse(ev));
            return;
        }
        // Out-of-range (32-bit hosts) maps to usize::MAX, which misses
        // every bucket and lands the event in overflow — same path a
        // beyond-the-ladder deadline takes, with no silent wrap.
        let idx = usize::try_from((at - self.active_end_ns) / self.width_ns).unwrap_or(usize::MAX);
        match self.buckets.get_mut(idx) {
            Some(bucket) => bucket.push(ev),
            None => self.overflow.push(ev),
        }
    }

    /// True if the next event is the run's last rather than the side
    /// heap's top. Keys are unique, so the two never compare equal.
    fn next_is_in_run(&self) -> bool {
        match (self.run.last(), self.active.peek()) {
            (Some(r), Some(Reverse(h))) => r.key < h.key,
            (r, _) => r.is_some(),
        }
    }

    #[inline(never)]
    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        self.advance();
        let ev = if self.next_is_in_run() {
            self.run.pop()
        } else {
            self.active.pop().map(|Reverse(ev)| ev)
        };
        if ev.is_some() {
            self.len -= 1;
        }
        ev
    }

    #[inline(never)]
    pub(crate) fn peek_key(&mut self) -> Option<CalendarKey> {
        self.advance();
        if self.next_is_in_run() {
            self.run.last().map(|ev| ev.key)
        } else {
            self.active.peek().map(|Reverse(ev)| ev.key)
        }
    }

    /// Rotates buckets (and, when they drain, the overflow) into the
    /// active zone until it holds the global minimum or the ladder is
    /// empty.
    fn advance(&mut self) {
        while self.run.is_empty() && self.active.is_empty() {
            if let Some(mut bucket) = self.buckets.pop_front() {
                // The popped bucket covered [active_end, active_end+width);
                // afterwards every remaining bucket index still matches
                // its time range and the bucket-range end is unchanged.
                self.active_end_ns = self.active_end_ns.saturating_add(self.width_ns);
                bucket.sort_unstable_by_key(|ev| Reverse(ev.key));
                // The run it replaces is empty: its allocation waits for
                // the next re-bucketing. (An empty bucket becomes an empty
                // run, and the loop rotates again.)
                self.spare.push(std::mem::replace(&mut self.run, bucket));
                continue;
            }
            if self.overflow.is_empty() {
                return;
            }
            self.spread_overflow();
        }
    }

    /// Re-buckets the overflow over its own time span. Only called with
    /// the active zone and `buckets` empty, so jumping `active_end_ns`
    /// forward to the overflow minimum is safe: no pending event is
    /// earlier.
    fn spread_overflow(&mut self) {
        let mut events = std::mem::take(&mut self.overflow);
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for ev in &events {
            let at = ev.key.at.as_nanos();
            lo = lo.min(at);
            hi = hi.max(at);
        }
        self.active_end_ns = lo;
        self.width_ns = ((hi - lo) / TARGET_RUNGS).max(1);
        let last = (hi - lo) / self.width_ns;
        let spare = &mut self.spare;
        self.buckets
            .extend((0..=last).map(|_| spare.pop().unwrap_or_default()));
        for ev in events.drain(..) {
            let idx =
                usize::try_from((ev.key.at.as_nanos() - lo) / self.width_ns).unwrap_or(usize::MAX);
            match self.buckets.get_mut(idx) {
                Some(bucket) => bucket.push(ev),
                // Unreachable by construction (`last` covers `hi`), but
                // falling back to overflow keeps the event rather than
                // asserting in the engine's hot path.
                None => self.overflow.push(ev),
            }
        }
        if self.overflow.is_empty() {
            self.overflow = events;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, seq: u64) -> Scheduled<()> {
        Scheduled {
            key: CalendarKey {
                at: SimTime::from_nanos(at_ns),
                seq,
            },
            event: (),
        }
    }

    fn drain(l: &mut Ladder<()>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = l.pop() {
            out.push((e.key.at.as_nanos(), e.key.seq));
        }
        out
    }

    #[test]
    fn ladder_pops_in_key_order() {
        let mut l = Ladder::new();
        for (i, at) in [500u64, 3, 3, 1_000_000, 42, 3, 0].iter().enumerate() {
            l.push(ev(*at, i as u64));
        }
        let order = drain(&mut l);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 7);
        assert_eq!(l.len, 0);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut l = Ladder::new();
        for i in 0..100u64 {
            l.push(ev(i * 1000, i));
        }
        let mut last = (0, 0);
        for i in 0..50u64 {
            let e = l.pop().expect("non-empty");
            let k = (e.key.at.as_nanos(), e.key.seq);
            assert!(k >= last);
            last = k;
            // Push below, inside and beyond the current bucket range.
            l.push(ev(e.key.at.as_nanos() + 1, 1000 + i));
            l.push(ev(10_000_000 + i, 2000 + i));
        }
        let rest = drain(&mut l);
        let mut sorted = rest.clone();
        sorted.sort();
        assert_eq!(rest, sorted);
    }

    #[test]
    fn far_future_overflow_rebuckets() {
        let mut l = Ladder::new();
        l.push(ev(10, 0));
        // Push something u64-range far away: the overflow re-bucket must
        // not allocate a bucket per nanosecond.
        l.push(ev(u64::MAX / 2, 1));
        assert_eq!(drain(&mut l), vec![(10, 0), (u64::MAX / 2, 1)]);
        assert!(l.buckets.len() as u64 <= TARGET_RUNGS + 2);
    }

    #[test]
    fn identical_timestamps_pop_fifo() {
        let mut l = Ladder::new();
        for seq in 0..200u64 {
            l.push(ev(777, seq));
        }
        let order = drain(&mut l);
        assert_eq!(order, (0..200u64).map(|s| (777, s)).collect::<Vec<_>>());
    }
}
