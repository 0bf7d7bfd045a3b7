//! Counted resources with FIFO admission.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use hhsim_des::{SimTime, Simulation};

/// A pool of identical slots (task slots, disk channels, network lanes).
///
/// Acquisitions beyond the capacity queue in FIFO order and are granted as
/// holders release. Use through [`SharedSlotPool`], which lets the grant
/// callbacks re-enter the simulation.
///
/// # Examples
///
/// ```
/// use hhsim_des::{SimTime, Simulation};
/// use hhsim_testkit::SlotPool;
///
/// let mut sim = Simulation::new();
/// let pool = SlotPool::shared("slots", 1);
/// for _ in 0..2 {
///     let p = pool.clone();
///     SlotPool::acquire(&pool, &mut sim, move |sim, guard| {
///         // hold the slot for one second, then release
///         sim.schedule_in(SimTime::from_secs(1), move |sim| {
///             guard.release(sim);
///         });
///     });
/// }
/// // second acquisition waits for the first: total 2 virtual seconds
/// assert_eq!(sim.run(), SimTime::from_secs(2));
/// ```
#[derive(Debug)]
pub struct SlotPool {
    name: String,
    capacity: usize,
    in_use: usize,
    peak_in_use: usize,
    total_grants: u64,
    total_wait: SimTime,
    waiters: VecDeque<Waiter>,
}

type GrantFn = Box<dyn FnOnce(&mut Simulation, SlotGuard)>;

struct Waiter {
    enqueued_at: SimTime,
    grant: GrantFn,
}

impl std::fmt::Debug for Waiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waiter")
            .field("enqueued_at", &self.enqueued_at)
            .finish()
    }
}

/// Shared handle to a [`SlotPool`]; clone freely into event closures.
pub type SharedSlotPool = Rc<RefCell<SlotPool>>;

/// Point-in-time snapshot of a pool's admission counters, cheap to copy
/// out of the simulation for per-phase reporting (slot utilization and
/// queueing delay end up in `Measurement` via the cluster engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total number of slots.
    pub capacity: usize,
    /// Largest number of slots ever simultaneously held.
    pub peak_in_use: usize,
    /// Grants issued so far.
    pub total_grants: u64,
    /// Cumulative time requests spent waiting in the queue.
    pub total_wait: SimTime,
    /// Requests currently queued.
    pub queued: usize,
}

/// Proof of slot ownership; release it back when the work completes.
///
/// Dropping a guard without calling [`SlotGuard::release`] leaks the slot —
/// deliberate, because a release must run inside the simulation to hand the
/// slot to the next waiter at the correct virtual time.
#[must_use = "a slot guard must be released back into the simulation"]
#[derive(Debug)]
pub struct SlotGuard {
    pool: SharedSlotPool,
}

impl SlotGuard {
    /// Returns the slot to the pool, immediately granting the oldest waiter
    /// (at the current virtual time) if any.
    pub fn release(self, sim: &mut Simulation) {
        let next = {
            let mut pool = self.pool.borrow_mut();
            debug_assert!(pool.in_use > 0, "release without acquire");
            if let Some(w) = pool.waiters.pop_front() {
                pool.total_grants += 1;
                pool.total_wait += sim.now().saturating_sub(w.enqueued_at);
                Some(w.grant)
            } else {
                pool.in_use -= 1;
                None
            }
        };
        if let Some(grant) = next {
            let guard = SlotGuard { pool: self.pool };
            grant(sim, guard);
        }
    }
}

impl SlotPool {
    /// Creates a pool wrapped for sharing across event closures.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-capacity pool can never grant.
    pub fn shared(name: impl Into<String>, capacity: usize) -> SharedSlotPool {
        assert!(capacity > 0, "slot pool capacity must be positive");
        Rc::new(RefCell::new(SlotPool {
            name: name.into(),
            capacity,
            in_use: 0,
            peak_in_use: 0,
            total_grants: 0,
            total_wait: SimTime::ZERO,
            waiters: VecDeque::new(),
        }))
    }

    /// Requests a slot; `grant` runs as soon as one is available (possibly
    /// immediately, re-entrantly) and receives the guard to release later.
    pub fn acquire<F>(pool: &SharedSlotPool, sim: &mut Simulation, grant: F)
    where
        F: FnOnce(&mut Simulation, SlotGuard) + 'static,
    {
        let immediate = {
            let mut p = pool.borrow_mut();
            if p.in_use < p.capacity {
                p.in_use += 1;
                p.peak_in_use = p.peak_in_use.max(p.in_use);
                p.total_grants += 1;
                true
            } else {
                false
            }
        };
        if immediate {
            let guard = SlotGuard { pool: pool.clone() };
            grant(sim, guard);
        } else {
            pool.borrow_mut().waiters.push_back(Waiter {
                enqueued_at: sim.now(),
                grant: Box::new(grant),
            });
        }
    }

    /// Pool label, for diagnostics.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots currently held.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Largest number of slots ever simultaneously held.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// Requests currently queued.
    pub fn queued(&self) -> usize {
        self.waiters.len()
    }

    /// Number of grants issued so far.
    pub fn total_grants(&self) -> u64 {
        self.total_grants
    }

    /// Cumulative time requests spent waiting in the queue.
    pub fn total_wait(&self) -> SimTime {
        self.total_wait
    }

    /// Snapshot of the admission counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            capacity: self.capacity,
            peak_in_use: self.peak_in_use,
            total_grants: self.total_grants,
            total_wait: self.total_wait,
            queued: self.waiters.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Runs `n` unit-duration jobs through a pool of `cap` slots and returns
    /// the makespan in seconds.
    fn makespan(n: usize, cap: usize) -> f64 {
        let mut sim = Simulation::new();
        let pool = SlotPool::shared("t", cap);
        for _ in 0..n {
            SlotPool::acquire(&pool, &mut sim, |sim, guard| {
                sim.schedule_in(SimTime::from_secs(1), move |sim| guard.release(sim));
            });
        }
        sim.run().as_secs_f64()
    }

    #[test]
    fn serializes_beyond_capacity() {
        assert_eq!(makespan(4, 1), 4.0);
        assert_eq!(makespan(4, 2), 2.0);
        assert_eq!(makespan(4, 4), 1.0);
        assert_eq!(makespan(5, 2), 3.0); // waves of 2,2,1
    }

    #[test]
    fn fifo_grant_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let pool = SlotPool::shared("fifo", 1);
        for i in 0..3 {
            let order = order.clone();
            SlotPool::acquire(&pool, &mut sim, move |sim, guard| {
                order.borrow_mut().push(i);
                sim.schedule_in(SimTime::from_secs(1), move |sim| guard.release(sim));
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn statistics_track_usage() {
        let mut sim = Simulation::new();
        let pool = SlotPool::shared("stats", 2);
        for _ in 0..4 {
            SlotPool::acquire(&pool, &mut sim, |sim, guard| {
                sim.schedule_in(SimTime::from_secs(2), move |sim| guard.release(sim));
            });
        }
        sim.run();
        let p = pool.borrow();
        assert_eq!(p.total_grants(), 4);
        assert_eq!(p.peak_in_use(), 2);
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.queued(), 0);
        // Two jobs waited 2 seconds each.
        assert_eq!(p.total_wait(), SimTime::from_secs(4));
    }

    #[test]
    fn stats_snapshot_mirrors_accessors() {
        let mut sim = Simulation::new();
        let pool = SlotPool::shared("snap", 2);
        for _ in 0..3 {
            SlotPool::acquire(&pool, &mut sim, |sim, guard| {
                sim.schedule_in(SimTime::from_secs(1), move |sim| guard.release(sim));
            });
        }
        {
            let s = pool.borrow().stats();
            assert_eq!(s.capacity, 2);
            assert_eq!(s.peak_in_use, 2);
            assert_eq!(s.queued, 1, "third request waits");
        }
        sim.run();
        let s = pool.borrow().stats();
        assert_eq!(s.total_grants, 3);
        assert_eq!(s.queued, 0);
        assert_eq!(s.total_wait, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SlotPool::shared("bad", 0);
    }

    #[test]
    fn immediate_grant_is_reentrant() {
        let granted = Rc::new(Cell::new(false));
        let mut sim = Simulation::new();
        let pool = SlotPool::shared("now", 1);
        let g = granted.clone();
        SlotPool::acquire(&pool, &mut sim, move |sim, guard| {
            g.set(true);
            guard.release(sim);
        });
        // granted before run(): acquisition at capacity is synchronous
        assert!(granted.get());
        sim.run();
    }
}
