//! Discrete-event simulation kernel for `hhsim`.
//!
//! This crate provides the minimal machinery the rest of the simulator is
//! built on: a virtual clock ([`SimTime`]) and an event calendar
//! ([`Simulation`]) that hands events back in timestamp order.
//!
//! **Events are values, state is owned.** `Simulation<E>` stores payloads
//! of the caller's event type `E` — in this workspace a small `Copy` enum
//! per engine — and [`Simulation::pop`] returns them one at a time. The
//! engine keeps its state in a plain struct, matches on the popped event
//! with `&mut` access to it, and pushes follow-up events: no allocation
//! per event, no shared ownership, and whatever else needs `&mut` (a
//! placement policy, say) simply runs between two pops.
//!
//! **The closure form is one instantiation.** `E` defaults to [`Closure`],
//! a boxed `FnOnce(&mut Simulation)`; `schedule_at` / `step` / `run` are a
//! thin layer over `push_at` / `pop` on the same kernel. It remains for
//! callers whose events really are heterogeneous actions: `SlotPool` in
//! `hhsim-testkit`, the FIFO counted resource the cluster engine's parity
//! test uses as its reference, and benchmarks that time the calendar alone.
//!
//! Determinism is a hard requirement — the whole paper reproduction depends
//! on re-running an experiment and getting bit-identical timings — so ties in
//! the calendar are broken by insertion sequence number, never by pointer or
//! hash order. Two calendar backends honour that contract with identical pop
//! sequences (see [`CalendarKind`]): the reference binary heap and a bucketed
//! ladder that dense 10k-node runs migrate onto automatically.
//!
//! # Examples
//!
//! ```
//! use hhsim_des::{SimTime, Simulation};
//!
//! // A two-slot machine draining five one-second jobs.
//! struct Done;
//! let (mut queued, mut free) = (5, 2);
//! let mut sim = Simulation::default();
//! loop {
//!     while queued > 0 && free > 0 {
//!         (queued, free) = (queued - 1, free - 1);
//!         sim.push_in(SimTime::from_secs(1), Done);
//!     }
//!     let Some(Done) = sim.pop() else { break };
//!     free += 1;
//! }
//! assert_eq!(sim.now(), SimTime::from_secs(3));
//! assert_eq!(sim.executed_events(), 5);
//! ```

mod calendar;
mod sim;
mod time;

pub use calendar::{CalendarKind, AUTO_LADDER_THRESHOLD};
pub use sim::{Closure, EventId, Simulation};
pub use time::SimTime;
