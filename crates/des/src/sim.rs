//! The event calendar and execution loop.

use std::fmt;

use crate::calendar::{Calendar, CalendarKey, CalendarKind, Scheduled, AUTO_LADDER_THRESHOLD};
use crate::SimTime;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

/// Event payload of the closure instantiation: a boxed action run against
/// the simulation that popped it. See [`Simulation::schedule_at`].
pub struct Closure(Box<dyn FnOnce(&mut Simulation)>);

/// Dense bitmap over event sequence numbers; allocated lazily so runs
/// that never cancel pay nothing.
#[derive(Debug, Default)]
struct SeqSet {
    words: Vec<u64>,
}

impl SeqSet {
    /// Inserts `seq`; `false` if it was already present.
    fn insert(&mut self, seq: u64) -> bool {
        let w = (seq / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << (seq % 64);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        true
    }

    fn contains(&self, seq: u64) -> bool {
        let w = (seq / 64) as usize;
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << (seq % 64)) != 0)
    }
}

/// A deterministic discrete-event simulation.
///
/// Events are values of type `E`, pushed at absolute or relative virtual
/// times and popped in `(time, insertion order)` order; the caller owns
/// its state and matches on each popped event. `E` defaults to
/// [`Closure`], the instantiation whose events are boxed actions that
/// receive the simulation itself (`schedule_at` / `step` / `run`).
///
/// Two calendar backends implement that contract (see [`CalendarKind`]):
/// the reference binary heap and a bucketed ladder for dense runs. They
/// pop byte-identical sequences; [`Simulation::default`] picks
/// automatically by event density, [`Simulation::typed`] pins one
/// explicitly.
///
/// # Examples
///
/// ```
/// use hhsim_des::{SimTime, Simulation};
///
/// let mut sim = Simulation::new();
/// sim.schedule_in(SimTime::from_secs(1), |sim| {
///     sim.schedule_in(SimTime::from_secs(1), |_| {});
/// });
/// assert_eq!(sim.run(), SimTime::from_secs(2));
/// ```
pub struct Simulation<E = Closure> {
    now: SimTime,
    calendar: Calendar<E>,
    /// The backend choice this simulation was built with.
    kind: CalendarKind,
    /// True while [`CalendarKind::Auto`] may still migrate to the ladder.
    auto: bool,
    next_seq: u64,
    executed: u64,
    cancelled: SeqSet,
}

impl<E> fmt::Debug for Simulation<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("calendar", &self.calendar.backend())
            .field("pending", &self.calendar.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<E> Default for Simulation<E> {
    /// An empty simulation at time zero on [`CalendarKind::Auto`].
    fn default() -> Self {
        Self::typed(CalendarKind::Auto)
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation at time zero on an explicit calendar
    /// backend, for any event type.
    pub fn typed(kind: CalendarKind) -> Self {
        Simulation {
            now: SimTime::ZERO,
            calendar: Calendar::new(kind),
            kind,
            auto: kind == CalendarKind::Auto,
            next_seq: 0,
            executed: 0,
            cancelled: SeqSet::default(),
        }
    }

    /// Back to the empty simulation at time zero that
    /// [`Simulation::typed`] built, on the same backend choice, keeping
    /// the heap's and the cancellation bitmap's allocations — for a
    /// caller that runs many short simulations one after another. Event
    /// ids start over: ids of the run before must not be cancelled after.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.calendar.reset(self.kind);
        self.auto = self.kind == CalendarKind::Auto;
        self.next_seq = 0;
        self.executed = 0;
        self.cancelled.words.clear();
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live events delivered so far (cancelled ones never count).
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled tombstones).
    #[cfg(test)]
    fn pending_events(&self) -> usize {
        self.calendar.len()
    }

    /// The calendar backend currently in use: `"heap"` or `"ladder"`.
    /// Under [`CalendarKind::Auto`] this flips once event density crosses
    /// the migration threshold.
    pub fn calendar_backend(&self) -> &'static str {
        self.calendar.backend()
    }

    /// Puts `event` on the calendar at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: scheduling into the
    /// past would silently reorder causality.
    pub fn push_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.calendar.push(Scheduled {
            key: CalendarKey { at, seq },
            event,
        });
        self.next_seq += 1;
        if self.auto && self.calendar.len() > AUTO_LADDER_THRESHOLD {
            self.calendar.migrate_to_ladder();
            self.auto = false;
        }
        EventId(seq)
    }

    /// Puts `event` on the calendar after a relative delay.
    pub fn push_in(&mut self, delay: SimTime, event: E) -> EventId {
        self.push_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Cancelling an already-
    /// cancelled or unknown event is a no-op (returns `false`).
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Tombstone approach: neither backend supports removal from the
        // middle of the calendar, so mark the id in a dense bitmap and
        // skip it when popped.
        if id.0 >= self.next_seq {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// Takes the next live event off the calendar, advancing the clock to
    /// its time. Returns `None` when the calendar is empty.
    pub fn pop(&mut self) -> Option<E> {
        self.pop_until(SimTime::MAX)
    }

    /// [`pop`](Self::pop) restricted to events with `time <= until`. When
    /// only later events remain, the clock advances to `until` (never
    /// past it) and `None` is returned.
    pub fn pop_until(&mut self, until: SimTime) -> Option<E> {
        while let Some(key) = self.calendar.peek_key() {
            if key.at > until {
                self.now = self.now.max(until);
                break;
            }
            let ev = self.calendar.pop()?;
            if self.cancelled.contains(key.seq) {
                continue;
            }
            debug_assert!(key.at >= self.now);
            self.now = key.at;
            self.executed += 1;
            return Some(ev.event);
        }
        None
    }
}

impl Simulation {
    /// Creates an empty closure simulation at time zero on
    /// [`CalendarKind::Auto`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty closure simulation on an explicit calendar backend.
    pub fn with_calendar(kind: CalendarKind) -> Self {
        Self::typed(kind)
    }

    /// Schedules `action` at absolute time `at`; see [`Simulation::push_at`].
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        self.push_at(at, Closure(Box::new(action)))
    }

    /// Schedules `action` after a relative delay.
    pub fn schedule_in<F>(&mut self, delay: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        self.push_in(delay, Closure(Box::new(action)))
    }

    /// Executes the next pending event, advancing the clock. Returns `false`
    /// when the calendar is empty.
    pub fn step(&mut self) -> bool {
        self.run_next(SimTime::MAX)
    }

    /// Runs until the calendar drains; returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs while events exist with `time <= until`; the clock never passes
    /// `until`. Returns the final virtual time.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        while self.run_next(until) {}
        self.now
    }

    fn run_next(&mut self, until: SimTime) -> bool {
        match self.pop_until(until) {
            Some(Closure(action)) => {
                action(self);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        for (label, t) in [("c", 3u64), ("a", 1), ("b", 2)] {
            let order = order.clone();
            sim.schedule_at(SimTime::from_secs(t), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        for label in ["first", "second", "third"] {
            let order = order.clone();
            sim.schedule_at(SimTime::from_secs(5), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulation::new();
        sim.schedule_in(SimTime::from_secs(1), |sim| {
            sim.schedule_in(SimTime::from_secs(4), |_| {});
        });
        assert_eq!(sim.run(), SimTime::from_secs(5));
        assert_eq!(sim.executed_events(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(10), |sim| {
            sim.schedule_at(SimTime::from_secs(1), |_| {});
        });
        sim.run();
    }

    #[test]
    fn cancel_prevents_execution() {
        for kind in [CalendarKind::Heap, CalendarKind::Ladder] {
            let fired = Rc::new(RefCell::new(false));
            let mut sim = Simulation::with_calendar(kind);
            let f = fired.clone();
            let id = sim.schedule_in(SimTime::from_secs(1), move |_| {
                *f.borrow_mut() = true;
            });
            assert!(sim.cancel(id));
            assert!(!sim.cancel(id), "double-cancel reports false");
            sim.run();
            assert!(!*fired.borrow());
            assert_eq!(sim.executed_events(), 0);

            let mut typed: Simulation<u64> = Simulation::typed(kind);
            let id = typed.push_in(SimTime::from_secs(1), 7);
            assert!(!typed.cancel(EventId(1)), "unknown id reports false");
            assert!(typed.cancel(id));
            assert!(!typed.cancel(id), "double-cancel reports false");
            assert_eq!(typed.pop(), None);
            assert_eq!(typed.executed_events(), 0, "tombstones do not count");
        }
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let secs = SimTime::from_secs;
        for kind in [CalendarKind::Heap, CalendarKind::Ladder] {
            let mut sim = Simulation::with_calendar(kind);
            sim.schedule_at(secs(1), |_| {});
            sim.schedule_at(secs(10), |_| {});
            sim.run_until(secs(5));
            assert_eq!(sim.now(), secs(5));
            assert_eq!(sim.executed_events(), 1);
            sim.run();
            assert_eq!(sim.now(), secs(10));

            // Typed twin, plus a tombstone inside the bound: skipping it
            // must not deliver the live event beyond the bound.
            let mut typed: Simulation<u64> = Simulation::typed(kind);
            typed.push_at(secs(1), 1);
            let dead = typed.push_at(secs(2), 2);
            typed.push_at(secs(10), 10);
            typed.cancel(dead);
            assert_eq!(typed.pop_until(secs(5)), Some(1));
            assert_eq!(typed.pop_until(secs(5)), None);
            assert_eq!((typed.now(), typed.executed_events()), (secs(5), 1));
            assert_eq!(typed.pop(), Some(10));
            assert_eq!((typed.now(), typed.executed_events()), (secs(10), 2));
        }
    }

    /// Fails to compile if `Rc` or a boxed non-`Send` closure ever comes
    /// back into the typed kernel.
    #[test]
    fn typed_kernel_is_send() {
        fn is_send<T: Send>() {}
        is_send::<Simulation<u64>>();
    }

    #[test]
    fn empty_run_stays_at_zero() {
        let mut sim = Simulation::new();
        assert_eq!(sim.run(), SimTime::ZERO);
        assert!(!sim.step());
    }

    #[test]
    fn ladder_backend_runs_in_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::with_calendar(CalendarKind::Ladder);
        assert_eq!(sim.calendar_backend(), "ladder");
        for (label, t) in [("c", 30u64), ("a", 1), ("b", 2), ("d", 30)] {
            let order = order.clone();
            sim.schedule_at(SimTime::from_millis(t), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn auto_migrates_to_ladder_at_density_threshold() {
        let mut sim = Simulation::with_calendar(CalendarKind::Auto);
        assert_eq!(sim.calendar_backend(), "heap");
        let count = Rc::new(RefCell::new(0u64));
        for i in 0..(AUTO_LADDER_THRESHOLD as u64 + 8) {
            let count = count.clone();
            sim.schedule_at(SimTime::from_nanos(i * 3), move |_| {
                *count.borrow_mut() += 1;
            });
        }
        assert_eq!(sim.calendar_backend(), "ladder");
        let end = sim.run();
        assert_eq!(*count.borrow(), AUTO_LADDER_THRESHOLD as u64 + 8);
        assert_eq!(
            end,
            SimTime::from_nanos((AUTO_LADDER_THRESHOLD as u64 + 7) * 3)
        );
    }

    #[test]
    fn explicit_heap_never_migrates() {
        let mut sim = Simulation::with_calendar(CalendarKind::Heap);
        for i in 0..(AUTO_LADDER_THRESHOLD as u64 + 8) {
            sim.schedule_at(SimTime::from_nanos(i), |_| {});
        }
        assert_eq!(sim.calendar_backend(), "heap");
    }

    #[test]
    fn reset_replays_like_a_fresh_simulation() {
        // Pending events, a cancelled id and a migration to the ladder,
        // then reset: each backend choice must come back as built.
        for kind in [CalendarKind::Auto, CalendarKind::Heap, CalendarKind::Ladder] {
            let mut sim: Simulation<u32> = Simulation::typed(kind);
            let first = sim.push_at(SimTime::from_secs(9), 0);
            sim.cancel(first);
            for i in 0..(AUTO_LADDER_THRESHOLD as u32 + 8) {
                sim.push_at(SimTime::from_secs(10), i);
            }
            assert_eq!(sim.pop(), Some(0));
            let migrated = sim.calendar_backend();
            sim.reset();
            let fresh: Simulation<u32> = Simulation::typed(kind);
            assert_eq!(sim.calendar_backend(), fresh.calendar_backend());
            assert_eq!(migrated == "ladder", kind != CalendarKind::Heap);
            assert_eq!((sim.now(), sim.pending_events()), (SimTime::ZERO, 0));
            assert_eq!(sim.executed_events(), 0);
            // Ids start over, and the old run's tombstone is gone: the
            // new event 0 is live, and earlier than the old clock allows.
            let again = sim.push_at(SimTime::from_secs(1), 7);
            assert_eq!(again, first);
            assert_eq!(sim.pop(), Some(7));
            assert_eq!(sim.now(), SimTime::from_secs(1));
            assert_eq!(sim.pop(), None);
        }
    }
}
