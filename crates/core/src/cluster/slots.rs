//! Slot bookkeeping shared by both phase engines: the ready-node bitmaps
//! placement queries, the per-node slot-occupancy bitmap, and the
//! [`SlotBook`] that ties them to a wait queue and the admission counters.
//!
//! The per-event accessors here are `#[inline]`: their callers — the two
//! engines and `Placement::place_local` — live in sibling modules, and
//! without the hint they compile into another codegen unit as calls
//! (`engine-clean`'s locality run lost a quarter of its events/s).

use hhsim_arch::CoreKind;
use hhsim_des::SimTime;
use std::collections::VecDeque;

use super::{Cluster, SlotStats};

thread_local! {
    /// Bitmap words examined by [`FreeSlots`] placement queries on this
    /// thread, plus the entries (list, heap and attempt entries, replicas,
    /// nodes, speed-class range queries, map outputs) the fault engine's
    /// speculation, re-execution and crash handling look at. Pure
    /// diagnostics for the scale regression tests — never feeds
    /// simulation state.
    static PLACEMENT_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bitmap words examined by placement queries on this thread since the
/// last [`reset_placement_probes`], plus one per entry the fault engine's
/// speculation, re-execution and crash handling examined (one per speed
/// class range query, one per map output a crash looks at). The scale
/// regression tests use this to pin the engine's amortized-O(1) lookups:
/// a 10k-node run must not degrade to per-event linear scans when nodes
/// die or get blacklisted, nor a speculating one to a walk over every
/// slot or node per event, nor a crash to a walk over every map output.
pub fn placement_probes() -> u64 {
    PLACEMENT_PROBES.with(|p| p.get())
}

/// Zeroes this thread's [`placement_probes`] counter.
pub fn reset_placement_probes() {
    PLACEMENT_PROBES.with(|p| p.set(0));
}

#[inline]
pub(super) fn count_probes(words: u64) {
    PLACEMENT_PROBES.with(|p| p.set(p.get() + words));
}

/// Two-level bitmap over node ids: `words` holds one bit per node,
/// `summary` one bit per (non-zero) word. Find-first-set is two word
/// scans — amortized O(1) at 10k nodes — and always returns the *lowest*
/// set index, which is what keeps placement decisions byte-identical to
/// the linear scans this structure replaced.
#[derive(Debug, Clone, Default)]
struct NodeBitmap {
    words: Vec<u64>,
    summary: Vec<u64>,
}

/// `v` as `n` copies of `value`, in the allocation it already has; a
/// table that has none yet gets exactly what `vec![value; n]` would.
pub(super) fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.reserve_exact(n);
    v.resize(n, value);
}

/// "No entry" in a `u32` column. Tables whose ids could reach it reject
/// the run that would need them.
pub(super) const NIL: u32 = u32::MAX;

/// Widens a `u32` column value to an index; lossless on every target
/// wider than 16 bits, and out of every table's range on the others.
pub(super) fn wide(v: u32) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Index of the lowest set bit of a non-zero `word`.
fn lowest_bit(word: u64) -> usize {
    usize::try_from(word.trailing_zeros()).unwrap_or(64)
}

impl NodeBitmap {
    /// Every bit of a `nodes`-wide bitmap clear.
    fn reset(&mut self, nodes: usize) {
        let nw = nodes.div_ceil(64);
        refill(&mut self.words, nw, 0);
        refill(&mut self.summary, nw.div_ceil(64), 0);
    }

    fn set(&mut self, i: usize) {
        let w = i / 64;
        if let Some(word) = self.words.get_mut(w) {
            *word |= 1u64 << (i % 64);
        }
        if let Some(s) = self.summary.get_mut(w / 64) {
            *s |= 1u64 << (w % 64);
        }
    }

    fn clear(&mut self, i: usize) {
        let w = i / 64;
        let Some(word) = self.words.get_mut(w) else {
            return;
        };
        *word &= !(1u64 << (i % 64));
        if *word == 0 {
            if let Some(s) = self.summary.get_mut(w / 64) {
                *s &= !(1u64 << (w % 64));
            }
        }
    }

    /// Lowest set index, if any.
    #[inline]
    fn first(&self) -> Option<usize> {
        for (si, &s) in self.summary.iter().enumerate() {
            count_probes(1);
            if s == 0 {
                continue;
            }
            let w = si * 64 + s.trailing_zeros() as usize;
            count_probes(1);
            let word = self.words.get(w).copied().unwrap_or(0);
            if word == 0 {
                return None; // unreachable: summary bit implies a set word
            }
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        None
    }

    /// Lowest set index at or above `from`, if any: the word of `from`,
    /// then the summary from the next word on. Counts no probes — the
    /// caller counts the query.
    fn first_from(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let word = self.words.get(w)? & (u64::MAX << (from % 64));
        if word != 0 {
            return Some(w * 64 + lowest_bit(word));
        }
        let mut si = (w + 1) / 64;
        let mut s = self.summary.get(si)? & (u64::MAX << ((w + 1) % 64));
        while s == 0 {
            si += 1;
            s = *self.summary.get(si)?;
        }
        let w = si * 64 + lowest_bit(s);
        Some(w * 64 + lowest_bit(*self.words.get(w)?))
    }
}

/// Amortized-O(1) free-slot index over the cluster's nodes: per-node
/// free counts plus ready-node bitmaps (overall, per core kind and, once
/// the fault engine installs them, per speed class) that track exactly
/// the nodes placement may choose — usable (alive, not blacklisted) with
/// at least one free slot.
///
/// Placement policies query this instead of scanning a free-count slice;
/// every query returns the same node the old linear scan returned (the
/// lowest-id match), so spans and artifacts stay byte-identical while a
/// 10k-node dispatch drops from O(nodes) to O(1) per event.
#[derive(Debug, Clone, Default)]
pub struct FreeSlots {
    free: Vec<usize>,
    alive: Vec<bool>,
    usable: Vec<bool>,
    any: NodeBitmap,
    big: NodeBitmap,
    little: NodeBitmap,
    kind_of: Vec<CoreKind>,
    /// Free slots summed over usable nodes.
    free_total: usize,
    /// Nodes currently usable.
    usable_nodes: usize,
    /// Node ids class-major — by class key, then by id — while speed
    /// classes are installed ([`FreeSlots::install_classes`]).
    class_order: Vec<usize>,
    /// Position of each node in `class_order`; empty while no classes
    /// are installed, which is all a ready-set update then asks.
    class_pos: Vec<usize>,
    /// End of each class's range of `class_order`, ascending.
    class_ends: Vec<usize>,
    /// Ready nodes by their position in `class_order`.
    by_class: NodeBitmap,
}

impl FreeSlots {
    /// Every slot of `cluster` free. `dead[n]` nodes start dead: zero
    /// free slots, never usable; `None` (the fault-free engine) starts
    /// every node alive. No speed classes are installed.
    fn reset(&mut self, cluster: &Cluster, dead: Option<&[bool]>) {
        let n = cluster.nodes.len();
        self.class_pos.clear();
        self.class_ends.clear();
        refill(&mut self.free, n, 0);
        refill(&mut self.alive, n, true);
        refill(&mut self.usable, n, true);
        self.any.reset(n);
        self.big.reset(n);
        self.little.reset(n);
        self.kind_of.clear();
        self.kind_of.extend(cluster.nodes.iter().map(|nd| nd.kind));
        self.free_total = 0;
        self.usable_nodes = n;
        for (i, nd) in cluster.nodes.iter().enumerate() {
            if dead.and_then(|d| d.get(i)).copied().unwrap_or(false) {
                if let Some(a) = self.alive.get_mut(i) {
                    *a = false;
                }
                if let Some(u) = self.usable.get_mut(i) {
                    *u = false;
                }
                self.usable_nodes -= 1;
                continue;
            }
            if let Some(f) = self.free.get_mut(i) {
                *f = nd.slots;
            }
            self.free_total += nd.slots;
            if nd.slots > 0 {
                self.set_ready(i);
            }
        }
    }

    fn set_ready(&mut self, node: usize) {
        self.any.set(node);
        match self.kind_of.get(node) {
            Some(CoreKind::Big) => self.big.set(node),
            Some(CoreKind::Little) => self.little.set(node),
            None => {}
        }
        if let Some(&pos) = self.class_pos.get(node) {
            self.by_class.set(pos);
        }
    }

    fn clear_ready(&mut self, node: usize) {
        self.any.clear(node);
        match self.kind_of.get(node) {
            Some(CoreKind::Big) => self.big.clear(node),
            Some(CoreKind::Little) => self.little.clear(node),
            None => {}
        }
        if let Some(&pos) = self.class_pos.get(node) {
            self.by_class.clear(pos);
        }
    }

    /// Groups the nodes into speed classes — nodes of equal `key` — and
    /// indexes the ready ones by class from here to the next reset, for
    /// [`FreeSlots::class_leaders`]. Sorts in the tables the last run
    /// left: nothing is allocated once they have reached the cluster's
    /// size.
    pub(super) fn install_classes<K: Ord>(&mut self, key: impl Fn(usize) -> K) {
        let n = self.nodes();
        self.class_order.clear();
        self.class_order.reserve_exact(n);
        self.class_order.extend(0..n);
        self.class_order
            .sort_unstable_by(|&a, &b| key(a).cmp(&key(b)).then(a.cmp(&b)));
        refill(&mut self.class_pos, n, 0);
        for (pos, &node) in self.class_order.iter().enumerate() {
            if let Some(p) = self.class_pos.get_mut(node) {
                *p = pos;
            }
        }
        let order = &self.class_order;
        let pairs = order.iter().zip(order.iter().skip(1)).enumerate();
        let boundaries = pairs
            .filter(|(_, (&a, &b))| key(a) != key(b))
            .map(|(pos, _)| pos + 1);
        self.class_ends.clear();
        self.class_ends
            .extend(boundaries.chain((n > 0).then_some(n)));
        self.by_class.reset(n);
        for node in 0..n {
            if self.usable(node) && self.free(node) > 0 {
                if let Some(&pos) = self.class_pos.get(node) {
                    self.by_class.set(pos);
                }
            }
        }
    }

    /// The lowest-id ready node of each installed speed class, leaving
    /// out `except`: the only node of its class a search for the least
    /// of anything that depends on the class alone can settle on. One
    /// range query per class, two for the class of `except` when it is
    /// that class's lowest; each counts one probe.
    pub(super) fn class_leaders(&self, except: usize) -> impl Iterator<Item = usize> + '_ {
        let starts = std::iter::once(0).chain(self.class_ends.iter().copied());
        starts
            .zip(self.class_ends.iter().copied())
            .filter_map(move |(start, end)| {
                let lowest = self.first_ready_in_class(start, end)?;
                if lowest != except {
                    return Some(lowest);
                }
                let after = self.class_pos.get(except)? + 1;
                self.first_ready_in_class(after, end)
            })
    }

    /// Lowest-id ready node at positions `from..end` of `class_order`.
    fn first_ready_in_class(&self, from: usize, end: usize) -> Option<usize> {
        count_probes(1);
        let pos = self.by_class.first_from(from).filter(|&pos| pos < end)?;
        self.class_order.get(pos).copied()
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.free.len()
    }

    /// Free slots on `node` (0 for dead nodes).
    #[inline]
    pub fn free(&self, node: usize) -> usize {
        self.free.get(node).copied().unwrap_or(0)
    }

    /// True if `node` may receive new attempts (alive, not blacklisted).
    #[inline]
    pub fn usable(&self, node: usize) -> bool {
        self.usable.get(node).copied().unwrap_or(false)
    }

    /// Free slots summed over usable nodes; zero means dispatch must wait.
    #[inline]
    pub fn total_free(&self) -> usize {
        self.free_total
    }

    /// Lowest-id usable node with a free slot.
    #[inline]
    pub fn first_free(&self) -> Option<usize> {
        self.any.first()
    }

    /// Lowest-id usable node of `kind` with a free slot.
    #[inline]
    pub fn first_free_of(&self, kind: CoreKind) -> Option<usize> {
        match kind {
            CoreKind::Big => self.big.first(),
            CoreKind::Little => self.little.first(),
        }
    }

    /// Lowest-id usable node with a free slot among those of `rack` when
    /// nodes are dealt to `racks` racks round-robin (`rack`, `rack +
    /// racks`, ..).
    pub(super) fn first_free_in_rack(&self, rack: usize, racks: usize) -> Option<usize> {
        (rack..self.nodes()).step_by(racks.max(1)).find(|&n| {
            count_probes(1);
            self.usable(n) && self.free(n) > 0
        })
    }

    /// True if any node other than `node` can still accept attempts.
    pub(super) fn usable_other_than(&self, node: usize) -> bool {
        self.usable_nodes > 1 || (self.usable_nodes == 1 && !self.usable(node))
    }

    #[inline]
    pub(super) fn alive(&self, node: usize) -> bool {
        self.alive.get(node).copied().unwrap_or(false)
    }

    /// Liveness of every node, indexed by node id, for the fault engine's
    /// debug oracle.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// Takes one free slot on a usable `node`.
    #[inline]
    fn claim(&mut self, node: usize) {
        let Some(f) = self.free.get_mut(node) else {
            return;
        };
        *f -= 1;
        self.free_total -= 1;
        if *f == 0 {
            self.clear_ready(node);
        }
    }

    /// Returns a slot to `node`'s pool (no-op on a crashed node: its
    /// pool is zeroed forever).
    #[inline]
    fn release(&mut self, node: usize) {
        if !self.alive(node) {
            return;
        }
        let Some(f) = self.free.get_mut(node) else {
            return;
        };
        *f += 1;
        let became_ready = *f == 1;
        if self.usable(node) {
            self.free_total += 1;
            if became_ready {
                self.set_ready(node);
            }
        }
    }

    /// Masks `node` from placement (blacklisting): its free slots stay
    /// physically free but stop counting or matching.
    pub(super) fn set_unusable(&mut self, node: usize) {
        if !self.usable(node) {
            return;
        }
        if let Some(u) = self.usable.get_mut(node) {
            *u = false;
        }
        self.usable_nodes -= 1;
        self.free_total -= self.free(node);
        self.clear_ready(node);
    }

    /// Kills `node` (crash): unusable and zero slots for the rest of the
    /// run.
    pub(super) fn kill(&mut self, node: usize) {
        self.set_unusable(node);
        if let Some(a) = self.alive.get_mut(node) {
            *a = false;
        }
        if let Some(f) = self.free.get_mut(node) {
            *f = 0;
        }
    }
}

/// Per-node slot-occupancy bitmaps (bit set = slot free), flattened into
/// one word array. Claiming always takes the lowest free slot — the same
/// slot the old per-slot boolean scan picked — in O(1) for clusters with
/// up to 64 slots per node.
#[derive(Debug, Clone, Default)]
struct SlotTable {
    words: Vec<u64>,
    /// Word range of node `n` is `offset[n]..offset[n + 1]`.
    offset: Vec<usize>,
}

impl SlotTable {
    /// Every slot of `cluster` free.
    fn reset(&mut self, cluster: &Cluster) {
        self.offset.clear();
        self.offset.reserve_exact(cluster.nodes.len() + 1);
        self.offset.push(0);
        let mut total = 0usize;
        for n in &cluster.nodes {
            total += n.slots.div_ceil(64);
            self.offset.push(total);
        }
        refill(&mut self.words, total, 0);
        for (i, n) in cluster.nodes.iter().enumerate() {
            let base = self.offset.get(i).copied().unwrap_or(0);
            let mut left = n.slots;
            let mut w = base;
            while left > 0 {
                let bits = left.min(64);
                if let Some(word) = self.words.get_mut(w) {
                    *word = if bits == 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits) - 1
                    };
                }
                left -= bits;
                w += 1;
            }
        }
    }

    /// Claims the lowest free slot on `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node has no free slot (engine invariant: callers
    /// check the free count first).
    #[inline]
    fn claim_first(&mut self, node: usize) -> usize {
        let lo = self.offset.get(node).copied().unwrap_or(0);
        let hi = self.offset.get(node + 1).copied().unwrap_or(lo);
        for w in lo..hi {
            let Some(word) = self.words.get_mut(w) else {
                break;
            };
            if *word == 0 {
                continue;
            }
            let bit = word.trailing_zeros() as usize;
            *word &= !(1u64 << bit);
            return (w - lo) * 64 + bit;
        }
        unreachable!("free slot exists on chosen node");
    }

    /// Marks `slot` on `node` free again.
    #[inline]
    fn release(&mut self, node: usize, slot: usize) {
        let lo = self.offset.get(node).copied().unwrap_or(0);
        if let Some(word) = self.words.get_mut(lo + slot / 64) {
            *word |= 1u64 << (slot % 64);
        }
    }
}

/// Slot bookkeeping of one engine run, shared by the fault-free and the
/// fault-aware engine: which slots are free, which wave each is on, who
/// is waiting (`Q` is the engine's queue entry), and the admission
/// counters. `slots` also carries node health: dead and blacklisted
/// nodes are unusable.
///
/// The cluster's slots are numbered node by node: slot `s` of node `n`
/// has *global* id `slot_base[n] + s`, which is what per-slot columns —
/// the wave counters here, the fault engine's attempt table — are
/// indexed by.
#[derive(Debug)]
pub(super) struct SlotBook<Q> {
    pub(super) slots: FreeSlots,
    slot_table: SlotTable,
    /// Global id of each node's slot 0, plus the total as a last entry.
    slot_base: Vec<usize>,
    /// Tasks each slot has been given so far, by global slot id.
    slot_waves: Vec<usize>,
    pub(super) queue: VecDeque<Q>,
    in_use: usize,
    pub(super) max_finish: SimTime,
    pub(super) stats: SlotStats,
}

impl<Q> Default for SlotBook<Q> {
    /// The book of a cluster without nodes; [`SlotBook::reset`] opens it
    /// on a real one.
    fn default() -> Self {
        SlotBook {
            slots: FreeSlots::default(),
            slot_table: SlotTable::default(),
            slot_base: Vec::new(),
            slot_waves: Vec::new(),
            queue: VecDeque::new(),
            in_use: 0,
            max_finish: SimTime::ZERO,
            stats: SlotStats::default(),
        }
    }
}

impl<Q> SlotBook<Q> {
    /// Every slot of `cluster` free (none on `dead` nodes), nobody
    /// waiting.
    pub(super) fn new(cluster: &Cluster, dead: Option<&[bool]>) -> Self {
        let mut book = SlotBook::default();
        book.reset(cluster, dead);
        book
    }

    /// [`SlotBook::new`] in place, in the allocations the last run left.
    pub(super) fn reset(&mut self, cluster: &Cluster, dead: Option<&[bool]>) {
        self.slots.reset(cluster, dead);
        self.slot_table.reset(cluster);
        self.slot_base.clear();
        self.slot_base.reserve_exact(cluster.nodes.len() + 1);
        let mut total = 0;
        self.slot_base.push(total);
        for n in &cluster.nodes {
            total += n.slots;
            self.slot_base.push(total);
        }
        refill(&mut self.slot_waves, total, 0);
        self.queue.clear();
        self.in_use = 0;
        self.max_finish = SimTime::ZERO;
        self.stats = SlotStats {
            capacity: total,
            ..SlotStats::default()
        };
    }

    /// Global ids of `node`'s slots (empty for a node the cluster lacks).
    #[inline]
    pub(super) fn global_slots(&self, node: usize) -> std::ops::Range<usize> {
        let lo = self.slot_base.get(node).copied().unwrap_or(0);
        lo..self.slot_base.get(node + 1).copied().unwrap_or(lo)
    }

    /// Marks the first idle slot on `node` busy; returns `(slot, wave)`.
    #[inline]
    pub(super) fn claim_slot(&mut self, node: usize) -> (usize, usize) {
        self.slots.claim(node);
        self.in_use += 1;
        self.stats.peak_in_use = self.stats.peak_in_use.max(self.in_use);
        let slot = self.slot_table.claim_first(node);
        let global = self.global_slots(node).start + slot;
        match self.slot_waves.get_mut(global) {
            Some(w) => {
                *w += 1;
                (slot, *w)
            }
            None => (slot, 0), // unreachable: slot ids come from the table
        }
    }

    /// Returns an attempt's slot to the pool (no-op free count on a node
    /// that has since crashed: its pool is already zeroed forever).
    #[inline]
    pub(super) fn release_slot(&mut self, node: usize, slot: usize) {
        self.slots.release(node);
        self.in_use -= 1;
        self.slot_table.release(node, slot);
    }

    /// Counts a launch that spent `wait` in the queue.
    #[inline]
    pub(super) fn note_wait(&mut self, wait: SimTime) {
        if !wait.is_zero() {
            self.stats.tasks_queued += 1;
            self.stats.total_wait_s += wait.as_secs_f64();
        }
    }

    /// Extends the makespan to a completion at `now`.
    #[inline]
    pub(super) fn note_finish(&mut self, now: SimTime) {
        if now > self.max_finish {
            self.max_finish = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{FreeSlots, NodeBitmap};
    use crate::cluster::Cluster;
    use hhsim_arch::CoreKind;
    use hhsim_testkit::{check, Gen};

    /// `first_from` against a scan of the bits, on bitmaps that end on
    /// either side of a word and of a summary word, sparse and dense.
    #[test]
    fn first_from_is_the_next_set_bit() {
        check(48, |g: &mut Gen| {
            let n = *g.pick(&[1, 63, 64, 65, 4095, 4096, 4097, 9000]);
            let density = *g.pick(&[0.0005, 0.02, 0.5]);
            let mut bits = NodeBitmap::default();
            bits.reset(n);
            let mut set = vec![false; n];
            for (i, s) in set.iter_mut().enumerate() {
                if g.bool(density) {
                    bits.set(i);
                    *s = true;
                }
            }
            for _ in 0..n / 4 {
                let i = g.usize(0..n);
                bits.clear(i);
                set[i] = false;
            }
            let probes = (0..200).map(|_| g.usize(0..n + 2));
            for from in probes.chain([0, 63, 64, 4095, 4096, n - 1, n]) {
                let next = (from..n).find(|&i| set[i]);
                assert_eq!(bits.first_from(from), next, "from {from} of {n}");
            }
        });
    }

    /// Each class's lowest ready node but `except`, against a scan of the
    /// nodes, while slots are claimed and released and nodes are
    /// blacklisted or killed — one class up to one class per node.
    #[test]
    fn class_leaders_are_each_class_lowest_ready_node() {
        check(32, |g: &mut Gen| {
            let nodes = *g.pick(&[1, 5, 70, 300]);
            let cluster = Cluster::homogeneous(CoreKind::Big, nodes, 2);
            let dead: Vec<bool> = (0..nodes).map(|_| g.bool(0.1)).collect();
            let mut slots = FreeSlots::default();
            slots.reset(&cluster, Some(&dead));
            let classes = g.usize(1..nodes + 1);
            let class: Vec<usize> = (0..nodes).map(|_| g.usize(0..classes)).collect();
            slots.install_classes(|n| class[n]);
            let mut claimed = vec![0; nodes];
            for _ in 0..4 * nodes {
                let n = g.usize(0..nodes);
                match g.usize(0..8) {
                    0..=3 if slots.usable(n) && slots.free(n) > 0 => {
                        slots.claim(n);
                        claimed[n] += 1;
                    }
                    4 | 5 if claimed[n] > 0 => {
                        slots.release(n);
                        claimed[n] -= 1;
                    }
                    6 => slots.set_unusable(n),
                    7 => slots.kill(n),
                    _ => {}
                }
                let except = g.usize(0..nodes);
                let ready = |n: usize| n != except && slots.usable(n) && slots.free(n) > 0;
                let lowest = (0..classes)
                    .filter_map(|c| (0..nodes).find(|&n| class[n] == c && ready(n)))
                    .collect::<Vec<_>>();
                assert_eq!(slots.class_leaders(except).collect::<Vec<_>>(), lowest);
            }
        });
    }
}
