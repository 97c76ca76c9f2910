//! The event calendar: a same-instant FIFO lane in front of a four-ary
//! min-heap, both keyed on `(time, seq)`.
//!
//! The key is packed into a single `u128` (`time` in the high 64 bits, the
//! globally unique sequence number in the low 64), so an entry's position in
//! the calendar is a pure function of when it fires and when it was
//! scheduled. [`EventKind`] is payload, never part of the ordering — the old
//! `BinaryHeap<Reverse<CalendarEntry>>` derived `Ord` across the whole
//! struct, which made the diagnostic `kind` field a silent tiebreaker if the
//! seq-uniqueness invariant ever broke. Here that hazard is excluded
//! structurally: `Ord` is implemented by hand on the packed key alone.
//!
//! Most wakes (spawns, service hops, hand-offs, zero holds) are scheduled at
//! the current instant. Those go to a FIFO lane instead of the heap, and
//! `Calendar::pop_due` takes whichever of the lane front and the heap top
//! has the smaller key. This pops exactly what one heap would:
//!
//! * every lane entry was scheduled at `now` and `seq` is globally
//!   monotonic, so the lane is already sorted by key;
//! * a heap entry due at `now` was scheduled at an earlier instant, so its
//!   seq is smaller than every lane entry's and it fires first;
//! * the clock cannot pass a lane entry, so the lane always holds a single
//!   instant.
//!
//! A four-ary layout halves the tree depth of a binary heap; sift-down does
//! more comparisons per level but touches half as many cache lines, which is
//! the better trade for the pop-heavy access pattern of an event loop. Both
//! sifts carry the moving entry in a local and shift parents or children
//! into the hole, so each level costs one 32-byte write, not a swap.

use std::collections::VecDeque;

use crate::kernel::{EventKind, ProcId};
use crate::time::SimTime;

/// One scheduled wake of process `proc`. Ordering is by `(time, seq)`
/// only; `proc` and `kind` are payload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    key: u128,
    pub(crate) proc: ProcId,
    pub(crate) kind: EventKind,
}

impl Entry {
    pub(crate) fn new(time: SimTime, seq: u64, proc: ProcId, kind: EventKind) -> Self {
        Entry {
            key: ((time.as_nanos() as u128) << 64) | seq as u128,
            proc,
            kind,
        }
    }

    #[inline]
    pub(crate) fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }

    #[inline]
    pub(crate) fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // (time, seq) only — `kind` and `proc` must never break ties.
        self.key.cmp(&other.key)
    }
}

const ARITY: usize = 4;

/// The event calendar: a FIFO lane for wakes at the current instant in
/// front of a four-ary min-heap for everything later.
#[derive(Default)]
pub(crate) struct Calendar {
    /// Entries scheduled at the instant they fire, in scheduling order —
    /// which is key order, because every one was scheduled at `now`.
    lane: VecDeque<Entry>,
    heap: Vec<Entry>,
}

impl Calendar {
    pub(crate) fn new() -> Self {
        Calendar {
            lane: VecDeque::new(),
            heap: Vec::with_capacity(256),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Schedule `entry`; `now` is the clock at the moment of scheduling.
    /// An entry due at `now` joins the lane, any other the heap.
    #[inline]
    pub(crate) fn push(&mut self, entry: Entry, now: SimTime) {
        if entry.time() == now {
            debug_assert!(
                self.lane.back().is_none_or(|b| b.key < entry.key),
                "same-instant lane out of key order"
            );
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Pop the earliest entry if it fires at or before `deadline`: the lane
    /// front or the heap top, whichever has the smaller key.
    #[inline]
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<Entry> {
        let from_lane = match (self.lane.front(), self.heap.first()) {
            (Some(l), Some(h)) => l.key < h.key,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if from_lane {
            match self.lane.front() {
                Some(e) if e.time() <= deadline => self.lane.pop_front(),
                _ => None,
            }
        } else {
            match self.heap.first() {
                Some(e) if e.time() <= deadline => Some(self.pop_heap()),
                _ => None,
            }
        }
    }

    /// Pop the heap top (the heap must be non-empty): the last entry fills
    /// the root's hole and sifts down.
    fn pop_heap(&mut self) -> Entry {
        let last = self.heap.pop().expect("pop from an empty heap");
        match self.heap.first().copied() {
            Some(top) => {
                self.sift_down(last);
                top
            }
            None => last,
        }
    }

    /// Move the entry at `at` up to its place, shifting each larger parent
    /// down into the hole it leaves: one write per level, no swaps.
    fn sift_up(&mut self, mut at: usize) {
        let moving = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / ARITY;
            if moving.key >= self.heap[parent].key {
                break;
            }
            self.heap[at] = self.heap[parent];
            at = parent;
        }
        self.heap[at] = moving;
    }

    /// Place `moving` starting from a hole at the root, shifting the
    /// smallest child up into the hole while it is smaller than `moving`.
    fn sift_down(&mut self, moving: Entry) {
        let len = self.heap.len();
        let mut at = 0;
        loop {
            let first_child = at * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut min = first_child;
            for c in first_child + 1..last_child {
                if self.heap[c].key < self.heap[min].key {
                    min = c;
                }
            }
            if self.heap[min].key >= moving.key {
                break;
            }
            self.heap[at] = self.heap[min];
            at = min;
        }
        self.heap[at] = moving;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn proc(slot: u32, generation: u32) -> ProcId {
        ProcId { slot, generation }
    }

    fn entry(ns: u64, seq: u64, kind: EventKind) -> Entry {
        Entry::new(SimTime::from_nanos(ns), seq, proc(0, 0), kind)
    }

    #[test]
    fn ordering_ignores_kind_entirely() {
        // The old derived Ord made `kind` a tiebreaker after (time, seq).
        // Pin that (time, seq) alone decides: same key, different kinds,
        // different targets — still Equal.
        let a = Entry::new(SimTime::from_nanos(5), 7, proc(1, 2), EventKind::Spawn);
        let b = Entry::new(SimTime::from_nanos(5), 7, proc(9, 4), EventKind::Oneshot);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(a, b);
        // And a kind that sorts high never outranks a lower seq.
        let early = entry(5, 1, EventKind::Oneshot);
        let late = entry(5, 2, EventKind::Spawn);
        assert_eq!(early.cmp(&late), Ordering::Less);
    }

    #[test]
    fn pop_yields_time_then_seq_order() {
        let mut cal = Calendar::new();
        // Insert in a scrambled order, all after `now`, so all on the heap.
        let now = SimTime::ZERO;
        for (ns, seq) in [(3, 10), (1, 4), (3, 2), (5, 9), (1, 3), (2, 0), (5, 1)] {
            cal.push(entry(ns, seq, EventKind::Hold), now);
        }
        let mut got = Vec::new();
        while let Some(e) = cal.pop_due(SimTime::MAX) {
            got.push((e.time().as_nanos(), e.seq()));
        }
        assert_eq!(
            got,
            vec![(1, 3), (1, 4), (2, 0), (3, 2), (3, 10), (5, 1), (5, 9)]
        );
    }

    #[test]
    fn pop_due_respects_deadline() {
        let mut cal = Calendar::new();
        cal.push(entry(10, 0, EventKind::Hold), SimTime::ZERO);
        assert!(cal.pop_due(SimTime::from_nanos(9)).is_none());
        assert!(cal.pop_due(SimTime::from_nanos(10)).is_some());
        assert!(cal.pop_due(SimTime::MAX).is_none());
        // A lane entry is held back by the deadline too.
        cal.push(entry(20, 1, EventKind::Spawn), SimTime::from_nanos(20));
        assert!(cal.pop_due(SimTime::from_nanos(19)).is_none());
        assert_eq!(
            cal.pop_due(SimTime::from_nanos(20)).map(|e| e.seq()),
            Some(1)
        );
    }

    #[test]
    fn heap_entries_due_now_precede_the_lane() {
        let mut cal = Calendar::new();
        // Scheduled at t=0 to fire at t=5: heap.
        cal.push(entry(5, 0, EventKind::Hold), SimTime::ZERO);
        cal.push(entry(5, 1, EventKind::Hold), SimTime::ZERO);
        let now = SimTime::from_nanos(5);
        assert_eq!(cal.pop_due(now).map(|e| e.seq()), Some(0));
        // Scheduled at t=5 for t=5: lane, behind the heap's seq 1.
        cal.push(entry(5, 2, EventKind::Spawn), now);
        cal.push(entry(5, 3, EventKind::Task), now);
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop_due(now))
            .map(|e| e.seq())
            .collect();
        assert_eq!(order, [1, 2, 3]);
        assert_eq!(cal.len(), 0);
    }

    /// Reference-model check of the lane + heap against a `BTreeSet`:
    /// random pushes at `now` and in the future, pops through `pop_due`
    /// with random deadlines, and the clock advancing as `run_loop` moves
    /// it (to each popped time, or to the deadline once nothing is due).
    /// Every pop must be the model's minimum `(time, seq)`. Small enough
    /// for Miri.
    #[test]
    fn pops_match_a_sorted_reference_model() {
        let mut cal = Calendar::new();
        let mut model = std::collections::BTreeSet::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        let (mut lane_pushes, mut heap_pushes, mut pops) = (0, 0, 0);
        for _ in 0..1500 {
            let r = next();
            if r % 8 < 5 || model.is_empty() {
                // Half the pushes land at the current instant.
                let at = if r % 2 == 0 {
                    now
                } else {
                    now + 1 + next() % 64
                };
                if at == now {
                    lane_pushes += 1;
                } else {
                    heap_pushes += 1;
                }
                cal.push(entry(at, seq, EventKind::Hold), SimTime::from_nanos(now));
                model.insert((at, seq));
                seq += 1;
            } else {
                let deadline = now + next() % 32;
                let want = model.first().copied().filter(|&(t, _)| t <= deadline);
                let got = cal
                    .pop_due(SimTime::from_nanos(deadline))
                    .map(|e| (e.time().as_nanos(), e.seq()));
                assert_eq!(got, want, "pop at now={now} deadline={deadline}");
                match got {
                    Some(key) => {
                        model.remove(&key);
                        now = key.0;
                        pops += 1;
                    }
                    None => now = deadline,
                }
            }
            assert_eq!(cal.len(), model.len());
        }
        while let Some(e) = cal.pop_due(SimTime::MAX) {
            assert_eq!(model.pop_first(), Some((e.time().as_nanos(), e.seq())));
        }
        assert!(model.is_empty());
        assert!(lane_pushes > 100 && heap_pushes > 100 && pops > 100);
    }
}
