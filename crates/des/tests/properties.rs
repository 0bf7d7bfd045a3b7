//! Property-based tests of the DES kernel invariants, driven by the
//! in-repo deterministic testkit (offline replacement for proptest).

use std::cell::RefCell;
use std::rc::Rc;

use hhsim_des::{SimTime, Simulation};
use hhsim_testkit::{check, SlotPool};

/// Events always execute in non-decreasing time order, whatever order
/// they were scheduled in.
#[test]
fn events_execute_in_time_order() {
    check(64, |g| {
        let times = g.vec(1..200, |g| g.u64(0..10_000));
        let fired: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        for t in &times {
            let fired = fired.clone();
            let t = *t;
            sim.schedule_at(SimTime::from_micros(t), move |_| {
                fired.borrow_mut().push(t);
            });
        }
        sim.run();
        let got = fired.borrow();
        assert_eq!(got.len(), times.len());
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    });
}

/// The clock never moves backwards and ends at the latest event.
#[test]
fn clock_is_monotone() {
    check(64, |g| {
        let times = g.vec(1..100, |g| g.u64(0..1_000_000));
        let mut sim = Simulation::new();
        for t in &times {
            sim.schedule_at(SimTime::from_nanos(*t), |_| {});
        }
        let end = sim.run();
        assert_eq!(
            end,
            SimTime::from_nanos(*times.iter().max().expect("non-empty"))
        );
    });
}

/// Slot-pool makespan: with capacity c and n identical unit tasks the
/// makespan is exactly ceil(n/c) — the waves law the cluster model
/// relies on.
#[test]
fn slot_pool_waves_law() {
    check(64, |g| {
        let n = g.usize(1..60);
        let cap = g.usize(1..10);
        let mut sim = Simulation::new();
        let pool = SlotPool::shared("p", cap);
        for _ in 0..n {
            SlotPool::acquire(&pool, &mut sim, |sim, guard| {
                sim.schedule_in(SimTime::from_secs(1), move |sim| guard.release(sim));
            });
        }
        let end = sim.run();
        assert_eq!(end, SimTime::from_secs(n.div_ceil(cap) as u64));
    });
}

/// SimTime arithmetic: addition is commutative/associative over the
/// safe range and subtraction undoes addition.
#[test]
fn simtime_addition_laws() {
    check(128, |g| {
        let a = g.u64(0..u64::MAX / 4);
        let b = g.u64(0..u64::MAX / 4);
        let c = g.u64(0..u64::MAX / 4);
        let (ta, tb, tc) = (
            SimTime::from_nanos(a),
            SimTime::from_nanos(b),
            SimTime::from_nanos(c),
        );
        assert_eq!(ta + tb, tb + ta);
        assert_eq!((ta + tb) + tc, ta + (tb + tc));
        assert_eq!((ta + tb).saturating_sub(tb), ta);
    });
}
