//! Deterministic event queue.
//!
//! An **indexed 4-ary min-heap** ordered by `(time, sequence)`, so two
//! events scheduled for the same instant pop in the order they were
//! pushed. This tie-break is what makes whole simulation runs bit-for-bit
//! reproducible across platforms — a plain binary heap alone gives no
//! guarantee for equal keys. Sequence numbers are unique, so the key order
//! is total and pop order is independent of the heap's internal shape:
//! rewriting the structure cannot perturb a golden trace.
//!
//! ## Layout
//!
//! Every pending event owns a *slot*, and four dense tables are indexed
//! by slot or heap position:
//!
//! * `heap` — 24-byte entries, each the event's time, sequence number and
//!   slot, compared as one packed `u128` key (time in the high half), so
//!   the sift loops never chase a pointer out of contiguous heap memory;
//! * `pos` — the slot's current heap position, rewritten for every entry a
//!   sift moves (4 bytes, so a sift never touches the payloads), or `NIL`
//!   while the slot is free;
//! * `gen` — the slot's generation (see *Handle safety*);
//! * `items` — the payloads, written once by [`EventQueue::push`] and
//!   taken once by [`EventQueue::pop`] or dropped by a cancel.
//!
//! Free slots wait on a stack and are reused first, so the tables grow
//! only to the peak number of pending events.
//!
//! Every removal — [`EventQueue::pop`] of the root and
//! [`EventQueue::cancel`] of an interior entry alike — is *bottom-up*:
//! the hole walks down along the smallest children to a leaf (three key
//! comparisons a level, none against the displaced entry), and the former
//! last leaf then sifts up from there, which from a leaf is rarely more
//! than a step. So cancel is a true O(log n) removal with no tombstones,
//! the heap never holds a dead entry, and [`EventQueue::peek_time`] stays a
//! pure `&self` read. The 4-ary layout halves the tree height versus binary
//! and keeps a node's four children side by side in memory — the same
//! trade NS-3-style simulators make for their pending-event sets.
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

/// `pos` of a free slot.
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

/// One heap entry: the sort key inline plus the owning slot.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    /// `(time, seq)` as one integer, so an order test is one wide compare.
    #[inline]
    fn key(self) -> u128 {
        ((self.time.as_us() as u128) << 64) | self.seq as u128
    }
}

/// A deterministic min-priority queue of timed events.
pub struct EventQueue<T> {
    /// 4-ary min-heap ordered by [`HeapEntry::key`].
    heap: Vec<HeapEntry>,
    /// Slot → index of its entry in `heap`; `NIL` for a free slot.
    pos: Vec<u32>,
    /// Slot → generation, bumped whenever the slot is freed.
    gen: Vec<u32>,
    /// Slot → payload; `None` exactly when the slot is free.
    items: Vec<Option<T>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
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
        Self::with_capacity(0)
    }

    /// An empty queue with pre-reserved capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            pos: Vec::with_capacity(cap),
            gen: Vec::with_capacity(cap),
            items: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Store `entry` at `hole`, first moving every larger ancestor one
    /// level down into the hole.
    fn sift_up(&mut self, mut hole: usize, entry: HeapEntry) {
        let key = entry.key();
        while hole > 0 {
            let parent = (hole - 1) / 4;
            let p = self.heap[parent];
            if p.key() <= key {
                break;
            }
            self.heap[hole] = p;
            self.pos[p.slot as usize] = hole as u32;
            hole = parent;
        }
        self.heap[hole] = entry;
        self.pos[entry.slot as usize] = hole as u32;
    }

    /// Detach heap position `hole` and restore the heap: walk the hole
    /// down along the smallest children to a leaf, then sift the former
    /// last leaf up from there. The caller owns freeing the slot.
    fn remove_at(&mut self, mut hole: usize) {
        let last = self.heap.pop().expect("invariant: removing from a non-empty heap");
        let len = self.heap.len();
        if hole == len {
            return; // the removed entry was the last leaf
        }
        loop {
            let first = 4 * hole + 1;
            let best = if first + 4 <= len {
                // Four children: a two-round tournament, whose pairs are
                // independent compares rather than one dependent chain.
                let c = &self.heap[first..first + 4];
                let (a, ka) =
                    if c[1].key() < c[0].key() { (1, c[1].key()) } else { (0, c[0].key()) };
                let (b, kb) =
                    if c[3].key() < c[2].key() { (3, c[3].key()) } else { (2, c[2].key()) };
                first + if kb < ka { b } else { a }
            } else if first < len {
                // One to three children: only the last inner node.
                let mut best = first;
                for c in first + 1..len {
                    if self.heap[c].key() < self.heap[best].key() {
                        best = c;
                    }
                }
                best
            } else {
                break; // a leaf
            };
            let child = self.heap[best];
            self.heap[hole] = child;
            self.pos[child.slot as usize] = hole as u32;
            hole = best;
        }
        self.sift_up(hole, last);
    }

    /// Return `slot` to the free list, invalidating outstanding handles,
    /// and hand back its payload.
    fn free_slot(&mut self, slot: u32) -> T {
        let s = slot as usize;
        self.gen[s] = self.gen[s].wrapping_add(1);
        self.pos[s] = NIL;
        self.free.push(slot);
        self.items[s].take().expect("invariant: heap entries own live slots")
    }

    /// The heap position of the event `id` names, if it is still pending.
    fn live_pos(&self, id: EventId) -> Option<usize> {
        let s = id.slot() as usize;
        let pos = *self.pos.get(s)?;
        (pos != NIL && self.gen[s] == id.generation()).then_some(pos as usize)
    }

    /// Schedule `item` at `time`. Returns a handle for cancellation.
    pub fn push(&mut self, time: SimTime, item: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.items[slot as usize] = Some(item);
                slot
            }
            None => {
                let slot = self.items.len() as u32;
                assert!(slot != NIL, "event queue slot space exhausted");
                self.items.push(Some(item));
                self.gen.push(0);
                self.pos.push(NIL);
                slot
            }
        };
        let entry = HeapEntry { time, seq, slot };
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
        EventId::new(slot, self.gen[slot as usize])
    }

    /// Cancel a previously pushed event. Returns `true` if the event was
    /// still pending (i.e. not yet popped or already cancelled); a stale
    /// or foreign handle returns `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(pos) = self.live_pos(id) else {
            return false; // unknown, or already popped, cancelled, or cleared
        };
        self.remove_at(pos);
        self.free_slot(id.slot());
        true
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let HeapEntry { time, slot, .. } = *self.heap.first()?;
        self.remove_at(0);
        Some((time, self.free_slot(slot)))
    }

    /// The scheduled time of a still-pending event. Stale or foreign
    /// handles (popped, cancelled, cleared) return `None`.
    pub fn time_of(&self, id: EventId) -> Option<SimTime> {
        self.live_pos(id).map(|pos| self.heap[pos].time)
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
        // "b" reuses a's slot; the popped handle must be rejected.
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
        // 8 live events at peak → at most 8 slots ever allocated.
        assert!(q.items.len() <= 8, "tables grew to {} slots", q.items.len());
    }
}
