//! Deterministic event queue.
//!
//! A slab-backed **indexed 4-ary min-heap** ordered by `(time, sequence)`,
//! so two events scheduled for the same instant pop in the order they were
//! pushed. This tie-break is what makes whole simulation runs bit-for-bit
//! reproducible across platforms — a plain binary heap alone gives no
//! guarantee for equal keys. Sequence numbers are unique, so the key order
//! is total and pop order is independent of the heap's internal shape:
//! rewriting the structure cannot perturb a golden trace.
//!
//! ## Why indexed instead of tombstoned
//!
//! The previous implementation wrapped `std::collections::BinaryHeap` and
//! cancelled events by recording their sequence numbers in a tombstone
//! `HashSet`, paying two hash operations per push/pop/cancel and leaving
//! dead entries in the heap until they surfaced. Here every slab slot
//! remembers its current heap position (updated on every sift swap), so:
//!
//! * [`EventQueue::cancel`] is a true O(log n) *removal* — swap the hole
//!   with the last leaf and re-sift — with no tombstones and no hashing;
//! * [`EventQueue::pop`] touches only the heap array and the slab;
//! * the heap never holds dead entries, so its minimum is always live and
//!   [`EventQueue::peek_time`] stays a pure `&self` read.
//!
//! Heap entries carry their `(time, seq)` sort key **inline** next to the
//! slot index, so the sift loops — the hottest code in the whole simulator —
//! compare against contiguous heap memory and never chase a pointer into
//! the slab; the slab is touched once per moved entry, to update its
//! position backlink. The 4-ary layout halves the tree height versus binary
//! and keeps the hot sift-down loop within one cache line of child
//! indices — the same trade NS-3-style simulators make for their
//! pending-event sets.
//!
//! ## Handle safety
//!
//! [`EventId`] packs `(slot, generation)` into one `u64`. A slot's
//! generation bumps every time the slot is freed (pop, cancel, or clear),
//! so a stale handle — double cancel, cancel-after-pop, or a handle from
//! before [`EventQueue::clear`] — fails the generation check and
//! [`EventQueue::cancel`] returns `false` instead of killing an unrelated
//! event that happens to reuse the slot.

use crate::time::SimTime;

/// Sentinel for "no free slot" in the slab free list.
const NIL: u32 = u32::MAX;

/// Opaque handle to a scheduled event, usable for cancellation.
///
/// Internally `(slot, generation)` packed into a `u64`; the generation
/// makes handles single-use (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> EventId {
        EventId(((generation as u64) << 32) | slot as u64)
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot: either a live event plus its current heap position, or
/// a link in the free list. The generation survives frees so stale
/// [`EventId`]s can be rejected.
struct Slot<T> {
    generation: u32,
    state: SlotState<T>,
}

enum SlotState<T> {
    Occupied {
        /// Index of this slot's entry in `EventQueue::heap`; maintained by
        /// every sift swap.
        pos: u32,
        item: T,
    },
    Free {
        next: u32,
    },
}

/// One heap entry: the `(time, seq)` sort key inline plus the owning slot.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A deterministic min-priority queue of timed events.
pub struct EventQueue<T> {
    /// Slot storage; indices are stable for an event's lifetime.
    slots: Vec<Slot<T>>,
    /// 4-ary min-heap ordered by the entries' inline `(time, seq)` keys.
    heap: Vec<HeapEntry>,
    /// Head of the free-slot list (`NIL` when every slot is live).
    free_head: u32,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { slots: Vec::new(), heap: Vec::new(), free_head: NIL, next_seq: 0 }
    }

    /// An empty queue with pre-reserved capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(cap),
            heap: Vec::with_capacity(cap),
            free_head: NIL,
            next_seq: 0,
        }
    }

    /// Reserve room for at least `additional` more live events, so wiring
    /// code can pre-size the queue from the topology before the run.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.heap.reserve(additional);
    }

    /// Record in the slab that `slot`'s heap entry now lives at `pos`.
    #[inline]
    fn set_pos(&mut self, slot: u32, pos: usize) {
        match &mut self.slots[slot as usize].state {
            SlotState::Occupied { pos: p, .. } => *p = pos as u32,
            SlotState::Free { .. } => unreachable!("heap entries are always occupied"),
        }
    }

    /// Move the entry at `pos` toward the root until its parent is
    /// smaller. Returns the final position.
    fn sift_up(&mut self, mut pos: usize) -> usize {
        let entry = self.heap[pos];
        let key = entry.key();
        while pos > 0 {
            let parent = (pos - 1) / 4;
            let p = self.heap[parent];
            if p.key() <= key {
                break;
            }
            self.heap[pos] = p;
            self.set_pos(p.slot, pos);
            pos = parent;
        }
        self.heap[pos] = entry;
        self.set_pos(entry.slot, pos);
        pos
    }

    /// Move the entry at `pos` toward the leaves until no child is
    /// smaller.
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        let entry = self.heap[pos];
        let key = entry.key();
        loop {
            let first_child = 4 * pos + 1;
            if first_child >= len {
                break;
            }
            // Smallest of up to four children.
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            let last_child = (first_child + 3).min(len - 1);
            for c in first_child + 1..=last_child {
                let k = self.heap[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if key <= best_key {
                break;
            }
            let b = self.heap[best];
            self.heap[pos] = b;
            self.set_pos(b.slot, pos);
            pos = best;
        }
        self.heap[pos] = entry;
        self.set_pos(entry.slot, pos);
    }

    /// Detach heap position `pos`: swap with the last leaf, shrink, and
    /// re-sift the displaced leaf. The caller owns freeing the slot.
    fn remove_at(&mut self, pos: usize) {
        self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            if pos == 0 {
                // Root removal (every pop): the displaced leaf can only
                // move down.
                self.sift_down(0);
            } else {
                // The displaced leaf can need to move either direction.
                let settled = self.sift_up(pos);
                if settled == pos {
                    self.sift_down(pos);
                }
            }
        }
    }

    /// Return `slot` to the free list, invalidating outstanding handles.
    fn free_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        s.state = SlotState::Free { next: self.free_head };
        self.free_head = slot;
    }

    /// Schedule `item` at `time`. Returns a handle for cancellation.
    pub fn push(&mut self, time: SimTime, item: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len() as u32;
        let state = SlotState::Occupied { pos, item };
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            match s.state {
                SlotState::Free { next } => self.free_head = next,
                SlotState::Occupied { .. } => unreachable!("free list links only free slots"),
            }
            s.state = state;
            slot
        } else {
            let slot = self.slots.len() as u32;
            assert!(slot != NIL, "event queue slot space exhausted");
            self.slots.push(Slot { generation: 0, state });
            slot
        };
        self.heap.push(HeapEntry { time, seq, slot });
        self.sift_up(pos as usize);
        EventId::new(slot, self.slots[slot as usize].generation)
    }

    /// Cancel a previously pushed event. Returns `true` if the event was
    /// still pending (i.e. not yet popped or already cancelled); a stale
    /// or foreign handle returns `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot();
        let Some(s) = self.slots.get(slot as usize) else {
            return false; // never-allocated slot: unknown handle
        };
        if s.generation != id.generation() {
            return false; // already popped, cancelled, or cleared
        }
        let SlotState::Occupied { pos, .. } = s.state else {
            return false;
        };
        self.remove_at(pos as usize);
        self.free_slot(slot);
        true
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let &HeapEntry { time, slot, .. } = self.heap.first()?;
        self.remove_at(0);
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        let state = std::mem::replace(&mut s.state, SlotState::Free { next: self.free_head });
        self.free_head = slot;
        match state {
            SlotState::Occupied { item, .. } => Some((time, item)),
            SlotState::Free { .. } => unreachable!("heap entries are always occupied"),
        }
    }

    /// Drain every event scheduled exactly at `time` into `out`, in pop
    /// order, and return how many were drained. `out` is appended to, not
    /// cleared, so callers can reuse one buffer across the whole run.
    ///
    /// Because the `(time, seq)` key order is total and new same-time
    /// pushes always receive higher sequence numbers, draining a batch and
    /// then dispatching it yields byte-for-byte the same order as popping
    /// one event at a time.
    pub fn pop_batch_at(&mut self, time: SimTime, out: &mut Vec<T>) -> usize {
        let before = out.len();
        while self.peek_time() == Some(time) {
            let (_, item) = self.pop().expect("invariant: peek_time saw an event");
            out.push(item);
        }
        out.len() - before
    }

    /// The scheduled time of a still-pending event. Stale or foreign
    /// handles (popped, cancelled, cleared) return `None`.
    pub fn time_of(&self, id: EventId) -> Option<SimTime> {
        let s = self.slots.get(id.slot() as usize)?;
        if s.generation != id.generation() {
            return None;
        }
        match s.state {
            SlotState::Occupied { pos, .. } => Some(self.heap[pos as usize].time),
            SlotState::Free { .. } => None,
        }
    }

    /// The time of the earliest live event without removing it.
    ///
    /// A pure read: the heap holds no cancelled entries, so its minimum is
    /// always live.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events. Outstanding handles are invalidated:
    /// cancelling one afterwards returns `false`.
    pub fn clear(&mut self) {
        while let Some(e) = self.heap.pop() {
            self.free_slot(e.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(3), "c");
        q.push(SimTime::from_ms(1), "a");
        q.push(SimTime::from_ms(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ms(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_ms(1), "a");
        q.push(SimTime::from_ms(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel must report false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_ms(1), "a");
        q.push(SimTime::from_ms(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(9)));
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn peek_time_is_a_pure_read() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_ms(1), "a");
        q.push(SimTime::from_ms(5), "b");
        let c = q.push(SimTime::from_ms(2), "c");
        // Cancel an interior entry, then the (new) top: the top must be
        // purged eagerly so an immutable peek sees a live minimum.
        q.cancel(c);
        q.cancel(a);
        let q_ref: &EventQueue<&str> = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_ms(5)));
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(1), 1);
        q.push(SimTime::from_ms(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_is_stable() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(10), 1);
        q.push(SimTime::from_ms(10), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_ms(10), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    // ---- tests added with the indexed rewrite -----------------------------

    #[test]
    fn clear_invalidates_outstanding_handles() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_ms(1), 1);
        q.clear();
        assert!(!q.cancel(a), "handles from before clear() must be stale");
        // The slot is reused; the old handle must not kill the new event.
        let b = q.push(SimTime::from_ms(2), 2);
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn stale_handle_does_not_cancel_slot_reuser() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_ms(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        // "b" reuses a's slab slot; the popped handle must be rejected.
        q.push(SimTime::from_ms(2), "b");
        assert!(!q.cancel(a), "handle of a popped event must be stale");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn interior_cancellation_keeps_order() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..32).map(|i| q.push(SimTime::from_ms(i), i)).collect();
        // Remove every third event from the middle of the heap.
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 1 {
                assert!(q.cancel(*id));
            }
        }
        let mut expect: Vec<u64> = (0..32).filter(|i| i % 3 != 1).collect();
        expect.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pop_batch_drains_exactly_one_timestamp() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(1), "a");
        q.push(SimTime::from_ms(1), "b");
        q.push(SimTime::from_ms(2), "c");
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch_at(SimTime::from_ms(1), &mut buf), 2);
        assert_eq!(buf, vec!["a", "b"]);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(2)));
        // Appends without clearing, and an absent timestamp drains nothing.
        assert_eq!(q.pop_batch_at(SimTime::from_ms(9), &mut buf), 0);
        assert_eq!(q.pop_batch_at(SimTime::from_ms(2), &mut buf), 1);
        assert_eq!(buf, vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for i in 0..8 {
                q.push(SimTime::from_ms(round * 8 + i), (round, i));
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        // 8 live events at peak → at most 8 slab slots ever allocated.
        assert!(q.slots.len() <= 8, "slab grew to {} slots", q.slots.len());
    }
}
