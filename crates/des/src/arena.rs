//! Slab arenas backing the split-borrow kernel.
//!
//! [`Slab`] stores process futures in reusable, generation-counted slots, so a stale calendar entry can never resume an
//! unrelated occupant that reused the slot. [`WaitArena`] is the
//! allocation-free replacement for the per-wait `Rc<RefCell<...>>` cells the
//! synchronization primitives used to box: a parked waiter owns one `u32`
//! word in a recycled cell, and wait queues remember `(ProcId, WaitHandle)`
//! copies that go harmlessly stale when the owner departs.

use std::fmt;

/// A generation-counted slab slot address.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SlabId {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

enum SlotState<T> {
    /// Occupied. `value` is `None` while the occupant is temporarily moved
    /// out for polling.
    Live { generation: u32, value: Option<T> },
    /// Free-list link.
    Free {
        next_free: Option<u32>,
        generation: u32,
    },
}

/// Generic generation-checked slab with O(1) insert/take/restore/retire.
pub(crate) struct Slab<T> {
    slots: Vec<SlotState<T>>,
    free_head: Option<u32>,
    live: usize,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: None,
            live: 0,
        }
    }

    /// Number of live (unretired) occupants.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Insert a value, reusing a free slot when one exists.
    pub(crate) fn insert(&mut self, value: T) -> SlabId {
        let id = match self.free_head {
            Some(slot) => {
                let (next_free, generation) = match self.slots[slot as usize] {
                    SlotState::Free {
                        next_free,
                        generation,
                    } => (next_free, generation),
                    SlotState::Live { .. } => unreachable!("free list points at live slot"),
                };
                self.free_head = next_free;
                self.slots[slot as usize] = SlotState::Live {
                    generation,
                    value: Some(value),
                };
                SlabId { slot, generation }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push(SlotState::Live {
                    generation: 0,
                    value: Some(value),
                });
                SlabId {
                    slot,
                    generation: 0,
                }
            }
        };
        self.live += 1;
        id
    }

    /// Move the occupant out for polling. `None` if the id is stale or the
    /// occupant is already moved out.
    pub(crate) fn take(&mut self, id: SlabId) -> Option<T> {
        match self.slots.get_mut(id.slot as usize) {
            Some(SlotState::Live { generation, value }) if *generation == id.generation => {
                value.take()
            }
            _ => None,
        }
    }

    /// Put a moved-out occupant back (no-op on a stale id).
    pub(crate) fn restore(&mut self, id: SlabId, v: T) {
        if let Some(SlotState::Live { generation, value }) = self.slots.get_mut(id.slot as usize) {
            if *generation == id.generation {
                *value = Some(v);
            }
        }
    }

    /// Free the slot, bumping its generation so outstanding ids go stale.
    /// Returns any value still stored (callers drop it outside the arena
    /// borrow: occupant destructors may re-enter kernel components).
    pub(crate) fn retire(&mut self, id: SlabId) -> Option<T> {
        let slot = self.slots.get_mut(id.slot as usize)?;
        match slot {
            SlotState::Live { generation, value } if *generation == id.generation => {
                let leftover = value.take();
                *slot = SlotState::Free {
                    next_free: self.free_head,
                    generation: id.generation.wrapping_add(1),
                };
                self.free_head = Some(id.slot);
                self.live -= 1;
                leftover
            }
            _ => None,
        }
    }
}

/// Handle to one cell in a [`WaitArena`]. Copies held by wait queues become
/// stale (and are skipped) once the owning future frees the cell.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct WaitHandle {
    index: u32,
    generation: u32,
}

impl fmt::Debug for WaitHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wait#{}.{}", self.index, self.generation)
    }
}

struct WaitCell {
    generation: u32,
    word: u32,
}

/// Recycled pool of single-word wait cells.
///
/// Ownership discipline: the **future** that allocated a cell owns it and
/// frees it exactly once (on completion or in its destructor). Queues hold
/// handle copies only and must treat a generation mismatch as "waiter
/// departed, skip". This reproduces the old `Rc<RefCell<state>>` +
/// cancelled-flag protocol without any per-wait heap allocation.
pub(crate) struct WaitArena {
    cells: Vec<WaitCell>,
    free: Vec<u32>,
}

impl WaitArena {
    pub(crate) fn new() -> Self {
        WaitArena {
            cells: Vec::with_capacity(64),
            free: Vec::new(),
        }
    }

    /// Allocate a cell initialized to `word`.
    pub(crate) fn alloc(&mut self, word: u32) -> WaitHandle {
        match self.free.pop() {
            Some(index) => {
                let cell = &mut self.cells[index as usize];
                cell.word = word;
                WaitHandle {
                    index,
                    generation: cell.generation,
                }
            }
            None => {
                let index = u32::try_from(self.cells.len()).expect("wait arena overflow");
                self.cells.push(WaitCell {
                    generation: 0,
                    word,
                });
                WaitHandle {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Read the cell's word; `None` if the handle is stale.
    pub(crate) fn get(&self, h: WaitHandle) -> Option<u32> {
        let cell = self.cells.get(h.index as usize)?;
        (cell.generation == h.generation).then_some(cell.word)
    }

    /// Write the cell's word; `false` if the handle is stale.
    pub(crate) fn set(&mut self, h: WaitHandle, word: u32) -> bool {
        match self.cells.get_mut(h.index as usize) {
            Some(cell) if cell.generation == h.generation => {
                cell.word = word;
                true
            }
            _ => false,
        }
    }

    /// Free the cell (owner only). Outstanding handle copies go stale.
    pub(crate) fn free(&mut self, h: WaitHandle) {
        if let Some(cell) = self.cells.get_mut(h.index as usize) {
            if cell.generation == h.generation {
                cell.generation = cell.generation.wrapping_add(1);
                self.free.push(h.index);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_reuses_slots_with_fresh_generations() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        assert_eq!(slab.live(), 1);
        assert_eq!(slab.retire(a), Some("a"));
        assert_eq!(slab.live(), 0);
        let b = slab.insert("b");
        assert_eq!(b.slot, a.slot);
        assert_ne!(b.generation, a.generation);
        // The stale id can neither take nor restore nor retire.
        assert_eq!(slab.take(a), None);
        slab.restore(a, "ghost");
        assert_eq!(slab.take(b), Some("b"));
        slab.restore(b, "b2");
        assert_eq!(slab.retire(b), Some("b2"));
    }

    #[test]
    fn slab_take_while_taken_yields_none() {
        let mut slab = Slab::new();
        let id = slab.insert(1u32);
        assert_eq!(slab.take(id), Some(1));
        assert_eq!(slab.take(id), None);
        slab.restore(id, 2);
        assert_eq!(slab.take(id), Some(2));
    }

    #[test]
    fn wait_cells_recycle_and_stale_handles_are_inert() {
        let mut arena = WaitArena::new();
        let a = arena.alloc(7);
        assert_eq!(arena.get(a), Some(7));
        assert!(arena.set(a, 9));
        assert_eq!(arena.get(a), Some(9));
        arena.free(a);
        // Recycled cell: same index, new generation, old handle dead.
        let b = arena.alloc(1);
        assert_eq!(arena.get(a), None);
        assert!(!arena.set(a, 5));
        assert_eq!(arena.get(b), Some(1));
        // Double-free of the stale handle must not corrupt the free list.
        arena.free(a);
        let c = arena.alloc(2);
        assert_ne!(
            (arena.get(b), arena.get(c)),
            (None, None),
            "live cells survived"
        );
        assert_eq!(arena.get(b), Some(1));
        assert_eq!(arena.get(c), Some(2));
    }
}
