//! LATE's candidate index: the in-flight attempts speculation may still
//! duplicate, with the slowest old-enough one at hand.
//!
//! A candidate is an attempt whose row has no backup yet. The fault engine
//! reports each one when it launches and when it leaves its slot (or gets
//! its backup), so a speculation decision costs what it looks at instead
//! of a walk over every slot of the cluster. Two facts make the tables
//! exact rather than approximate:
//!
//! * **Launch order is age order.** The clock never runs backwards, so of
//!   two candidates the earlier-launched one is at least as old, and "has
//!   run for `spec_min_runtime_s`" — once true, true for the rest of the
//!   run — holds for a *prefix* of launch order. The too-young wait in a
//!   launch-ordered list; a decision moves the head of the list over while
//!   it is old enough and never looks past the first that is not.
//! * **A slot holds at most one attempt.** Every table is indexed by
//!   global slot id and sized from the cluster's capacity when a run
//!   starts: nothing grows inside the event loop, no entry can be stale,
//!   and an 88-slot phase runs the same code as an 8 000-slot one.
//!
//! The old-enough sit in a min-heap on `(rate, row)` with removal by slot.
//! Rates are non-negative and never NaN, so their bit patterns order as
//! the numbers do, and an unspeculated row has one attempt in flight, so
//! no two entries compare equal: the top is the one attempt a walk over
//! every slot settles on (debug builds take that walk at every decision
//! and compare, `recovery::oracle`), and if the top is not slow enough
//! nothing behind it is.
//!
//! Columns are `u32` (28 bytes per slot against 48 in `usize`): a fresh
//! engine allocates them per phase, and the benchmark counts those bytes.

use super::slots::{count_probes, refill, wide, NIL};
use super::timeline::narrow;

fn at(column: &[u32], i: u32) -> u32 {
    column.get(wide(i)).copied().unwrap_or(NIL)
}

fn put(column: &mut [u32], i: u32, v: u32) {
    if let Some(cell) = column.get_mut(wide(i)) {
        *cell = v;
    }
}

/// An old-enough candidate in the heap.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Bit pattern of the attempt's progress rate (non-negative, so the
    /// bits order as the rate does).
    rate_bits: u64,
    row: u32,
    slot: u32,
}

impl Candidate {
    fn key(&self) -> (u64, u32) {
        (self.rate_bits, self.row)
    }
}

/// See the module docs. Slots are global slot ids throughout.
#[derive(Debug, Default)]
pub(super) struct LateIndex {
    /// The too-young list in launch order, as a ring through entry
    /// `ring`: `next[ring]` is the oldest, `prev[ring]` the youngest, and
    /// a slot outside the list has `next == NIL`.
    prev: Vec<u32>,
    next: Vec<u32>,
    ring: u32,
    /// Min-heap of the old enough, by [`Candidate::key`].
    heap: Vec<Candidate>,
    /// Heap position by slot, `NIL` outside the heap.
    pos: Vec<u32>,
}

impl LateIndex {
    /// Empty tables for a cluster of `capacity` slots, in the allocations
    /// the last run left.
    ///
    /// # Panics
    ///
    /// Panics if slot ids do not fit the `u32` columns.
    pub(super) fn reset(&mut self, capacity: usize) {
        self.ring = narrow(capacity);
        assert!(
            self.ring != NIL,
            "slot ids must stay below the NIL column value"
        );
        refill(&mut self.prev, capacity + 1, NIL);
        refill(&mut self.next, capacity + 1, NIL);
        put(&mut self.prev, self.ring, self.ring);
        put(&mut self.next, self.ring, self.ring);
        self.heap.clear();
        self.heap.reserve_exact(capacity);
        refill(&mut self.pos, capacity, NIL);
    }

    /// A candidate was just launched into `slot`: it is the youngest.
    pub(super) fn launched(&mut self, slot: usize) {
        let slot = narrow(slot);
        debug_assert!(
            at(&self.next, slot) == NIL && at(&self.pos, slot) == NIL,
            "slot {slot} already holds a candidate"
        );
        let youngest = at(&self.prev, self.ring);
        put(&mut self.next, youngest, slot);
        put(&mut self.prev, slot, youngest);
        put(&mut self.next, slot, self.ring);
        put(&mut self.prev, self.ring, slot);
    }

    /// The oldest candidate still waiting to be old enough.
    pub(super) fn oldest_young(&self) -> Option<usize> {
        count_probes(1);
        let oldest = at(&self.next, self.ring);
        (oldest != self.ring && oldest != NIL).then(|| wide(oldest))
    }

    /// The candidate in `slot` has run long enough: it moves from the
    /// too-young list into the heap under its `rate` and `row`.
    pub(super) fn promote(&mut self, slot: usize, rate: f64, row: usize) {
        let slot = narrow(slot);
        self.unlink(slot);
        let i = self.heap.len();
        self.heap.push(Candidate {
            rate_bits: rate.to_bits(),
            row: narrow(row),
            slot,
        });
        self.sift_up(i);
    }

    /// `slot` no longer holds a candidate: its attempt left, or its row
    /// got its backup. A slot the index does not hold is left alone.
    pub(super) fn remove(&mut self, slot: usize) {
        let slot = narrow(slot);
        let i = at(&self.pos, slot);
        if i != NIL {
            self.remove_at(wide(i));
        } else if at(&self.next, slot) != NIL {
            self.unlink(slot);
        }
    }

    /// Slot of the old-enough candidate with the least `(rate, row)`.
    pub(super) fn slowest(&self) -> Option<usize> {
        count_probes(1);
        self.heap.first().map(|c| wide(c.slot))
    }

    fn unlink(&mut self, slot: u32) {
        let (before, after) = (at(&self.prev, slot), at(&self.next, slot));
        put(&mut self.next, before, after);
        put(&mut self.prev, after, before);
        put(&mut self.next, slot, NIL);
    }

    fn key_at(&self, i: usize) -> Option<(u64, u32)> {
        count_probes(1);
        self.heap.get(i).map(Candidate::key)
    }

    /// Records that heap entry `i` sits at `i`.
    fn seat(&mut self, i: usize) {
        if let Some(c) = self.heap.get(i) {
            put(&mut self.pos, c.slot, narrow(i));
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let Some(key) = self.key_at(i) else {
            return;
        };
        while i > 0 {
            let up = (i - 1) / 2;
            if self.key_at(up).map_or(true, |above| above <= key) {
                break;
            }
            self.heap.swap(i, up);
            self.seat(i);
            i = up;
        }
        self.seat(i);
    }

    fn sift_down(&mut self, mut i: usize) {
        let Some(key) = self.key_at(i) else {
            return;
        };
        loop {
            let left = 2 * i + 1;
            let Some(mut least) = self.key_at(left) else {
                break;
            };
            let mut child = left;
            if let Some(right) = self.key_at(left + 1).filter(|&k| k < least) {
                (child, least) = (left + 1, right);
            }
            if key <= least {
                break;
            }
            self.heap.swap(i, child);
            self.seat(i);
            i = child;
        }
        self.seat(i);
    }

    fn remove_at(&mut self, i: usize) {
        let Some(last) = self.heap.len().checked_sub(1).filter(|&last| i <= last) else {
            return;
        };
        self.heap.swap(i, last);
        if let Some(gone) = self.heap.pop() {
            put(&mut self.pos, gone.slot, NIL);
        }
        if i < last {
            self.sift_down(i);
            self.sift_up(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LateIndex;
    use hhsim_testkit::{check, Gen};

    /// What the index must answer, kept the slow way: candidates in
    /// launch order, each `(slot, rate, row, old enough)`.
    #[derive(Default)]
    struct Model(Vec<(usize, f64, usize, bool)>);

    impl Model {
        fn slowest(&self) -> Option<usize> {
            self.0
                .iter()
                .filter(|c| c.3)
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)))
                .map(|c| c.0)
        }

        fn oldest_young(&self) -> Option<usize> {
            self.0.iter().find(|c| !c.3).map(|c| c.0)
        }
    }

    /// Launches, promotions of the head of the young list, and removals
    /// from either table in random order, few distinct rates so that rows
    /// break ties; one index reset between runs of different capacity.
    #[test]
    fn answers_as_a_list_searched_in_full() {
        let mut index = LateIndex::default();
        check(64, |g: &mut Gen| {
            let capacity = g.usize(1..40);
            index.reset(capacity);
            let mut model = Model::default();
            let mut next_row = 0;
            for _ in 0..400 {
                match g.usize(0..4) {
                    0 | 1 => {
                        let slot = g.usize(0..capacity);
                        if model.0.iter().all(|c| c.0 != slot) {
                            let rate = *g.pick(&[0.0, 0.125, 0.125, 0.5, 1e12]);
                            model.0.push((slot, rate, next_row, false));
                            index.launched(slot);
                            next_row += 1;
                        }
                    }
                    2 => {
                        if let Some(c) = model.0.iter_mut().find(|c| !c.3) {
                            c.3 = true;
                            index.promote(c.0, c.1, c.2);
                        }
                    }
                    _ => {
                        // A slot the index may or may not hold.
                        let slot = g.usize(0..capacity);
                        model.0.retain(|c| c.0 != slot);
                        index.remove(slot);
                    }
                }
                assert_eq!(index.slowest(), model.slowest());
                assert_eq!(index.oldest_young(), model.oldest_young());
            }
        });
    }
}
