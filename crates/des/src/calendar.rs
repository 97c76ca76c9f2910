//! The event calendar: a four-ary min-heap keyed on `(time, seq)`.
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
//! A four-ary layout halves the tree depth of a binary heap; sift-down does
//! more comparisons per level but touches half as many cache lines, which is
//! the better trade for the pop-heavy access pattern of an event loop.

use crate::kernel::EventKind;
use crate::time::SimTime;

/// What a calendar entry wakes: an ordinary simulation process or a
/// pending service task ([`Env::spawn_service`](crate::Env::spawn_service)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Target {
    Proc { slot: u32, generation: u32 },
    Task { slot: u32, generation: u32 },
}

/// One scheduled wake. Ordering is by `(time, seq)` only; `target` and
/// `kind` are payload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    key: u128,
    pub(crate) target: Target,
    pub(crate) kind: EventKind,
}

impl Entry {
    pub(crate) fn new(time: SimTime, seq: u64, target: Target, kind: EventKind) -> Self {
        Entry {
            key: ((time.as_nanos() as u128) << 64) | seq as u128,
            target,
            kind,
        }
    }

    #[inline]
    pub(crate) fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }

    #[cfg(test)]
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
        // (time, seq) only — `kind` and `target` must never break ties.
        self.key.cmp(&other.key)
    }
}

const ARITY: usize = 4;

/// Four-ary min-heap of calendar entries.
#[derive(Default)]
pub(crate) struct Calendar {
    heap: Vec<Entry>,
}

impl Calendar {
    pub(crate) fn new() -> Self {
        Calendar {
            heap: Vec::with_capacity(256),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn push(&mut self, entry: Entry) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    /// Pop the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<Entry> {
        let len = self.heap.len();
        if len == 0 {
            return None;
        }
        self.heap.swap(0, len - 1);
        let top = self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        top
    }

    /// Pop the earliest entry if it fires at or before `deadline`.
    #[inline]
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<Entry> {
        match self.heap.first() {
            Some(e) if e.time() <= deadline => self.pop(),
            _ => None,
        }
    }

    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / ARITY;
            if self.heap[at] < self.heap[parent] {
                self.heap.swap(at, parent);
                at = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        let len = self.heap.len();
        loop {
            let first_child = at * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut min = first_child;
            for c in first_child + 1..last_child {
                if self.heap[c] < self.heap[min] {
                    min = c;
                }
            }
            if self.heap[min] < self.heap[at] {
                self.heap.swap(at, min);
                at = min;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn entry(ns: u64, seq: u64, kind: EventKind) -> Entry {
        Entry::new(
            SimTime::from_nanos(ns),
            seq,
            Target::Proc {
                slot: 0,
                generation: 0,
            },
            kind,
        )
    }

    #[test]
    fn ordering_ignores_kind_entirely() {
        // The old derived Ord made `kind` a tiebreaker after (time, seq).
        // Pin that (time, seq) alone decides: same key, different kinds,
        // different targets — still Equal.
        let a = Entry::new(
            SimTime::from_nanos(5),
            7,
            Target::Proc {
                slot: 1,
                generation: 2,
            },
            EventKind::Spawn,
        );
        let b = Entry::new(
            SimTime::from_nanos(5),
            7,
            Target::Task {
                slot: 9,
                generation: 4,
            },
            EventKind::Oneshot,
        );
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
        // Insert in a scrambled order.
        for (ns, seq) in [(3, 10), (1, 4), (3, 2), (0, 9), (1, 3), (2, 0), (0, 1)] {
            cal.push(entry(ns, seq, EventKind::Hold));
        }
        let mut got = Vec::new();
        while let Some(e) = cal.pop() {
            got.push((e.time().as_nanos(), e.seq()));
        }
        assert_eq!(
            got,
            vec![(0, 1), (0, 9), (1, 3), (1, 4), (2, 0), (3, 2), (3, 10)]
        );
    }

    #[test]
    fn pop_due_respects_deadline() {
        let mut cal = Calendar::new();
        cal.push(entry(10, 0, EventKind::Hold));
        assert!(cal.pop_due(SimTime::from_nanos(9)).is_none());
        assert!(cal.pop_due(SimTime::from_nanos(10)).is_some());
        assert!(cal.pop_due(SimTime::MAX).is_none());
    }

    #[test]
    fn heap_property_survives_random_churn() {
        // Deterministic LCG-driven push/pop interleaving.
        let mut cal = Calendar::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if state >> 63 == 0 || cal.len() == 0 {
                cal.push(entry((state >> 40) & 0xFF, seq, EventKind::Hold));
                seq += 1;
            } else {
                popped.push(cal.pop().unwrap());
            }
        }
        while let Some(e) = cal.pop() {
            popped.push(e);
        }
        // Every pop run must itself be sorted against what remained: check
        // global multiset order by re-sorting keys.
        let keys: Vec<(u64, u64)> = popped
            .iter()
            .map(|e| (e.time().as_nanos(), e.seq()))
            .collect();
        assert_eq!(keys.len(), seq as usize);
        for pair in popped.windows(2) {
            // Not globally sorted (interleaved pops), but each pop was the
            // minimum at its moment; verify no duplicate seq.
            assert_ne!(pair[0].seq(), pair[1].seq());
        }
        let mut seqs: Vec<u64> = popped.iter().map(Entry::seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..seq).collect::<Vec<_>>());
    }
}
