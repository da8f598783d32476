//! The event queue: a time-ordered heap with a sequence-number tiebreak
//! so simultaneous events dispatch in insertion order, keeping runs
//! fully deterministic.
//!
//! The heap holds only 16-byte keys — the time, and the insertion
//! sequence number with the event's slot index packed into its low
//! bits — so a sift moves two words, not a whole datagram. The events
//! themselves sit still in a slab; a popped slot goes on a free list and
//! is reused by the next push.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::{Datagram, HostId};
use crate::time::SimTime;

/// Something scheduled to happen to a host.
#[derive(Debug)]
pub(crate) enum Event {
    /// A datagram arrives.
    Deliver(Datagram),
    /// A timer fires with the actor-chosen token.
    Timer(u64),
    /// An anycast site is withdrawn from (`false`) or restored to
    /// (`true`) the service with the given address index. The `host`
    /// field of the [`Scheduled`] entry names the site. Handled by the
    /// engine itself, not dispatched to an actor.
    SetAnnounced {
        /// Index of the anycast address.
        addr_index: u32,
        /// Whether the site announces the prefix after this event.
        announced: bool,
    },
}

/// A popped event, with the time it was scheduled for.
#[derive(Debug)]
pub(crate) struct Scheduled {
    pub time: SimTime,
    pub host: HostId,
    pub event: Event,
}

/// Bits of [`Key::order`] that hold the slot index; the sequence number
/// sits above them.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// A heap entry. Sequence numbers are unique, so ordering by the packed
/// `order` is ordering by `(time, seq)` — the slot bits never decide.
#[derive(Debug, PartialEq, Eq)]
struct Key {
    time: SimTime,
    order: u64,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so earliest time (then lowest
        // sequence number) pops first.
        other.time.cmp(&self.time).then_with(|| other.order.cmp(&self.order))
    }
}

/// Deterministic min-queue of scheduled events.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Key>,
    /// Every pending event, where its key's slot bits point; `None` for
    /// a slot on the free list.
    slots: Vec<Option<(HostId, Event)>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, time: SimTime, host: HostId, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        assert!(seq < 1 << (64 - SLOT_BITS), "event sequence numbers exhausted");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some((host, event));
                slot
            }
            None => {
                assert!((self.slots.len() as u64) < SLOT_MASK, "too many pending events");
                self.slots.push(Some((host, event)));
                self.slots.len() as u32 - 1
            }
        };
        self.heap.push(Key { time, order: seq << SLOT_BITS | u64::from(slot) });
    }

    pub fn pop(&mut self) -> Option<Scheduled> {
        let Key { time, order } = self.heap.pop()?;
        let slot = (order & SLOT_MASK) as u32;
        let (host, event) = self.slots[slot as usize].take().expect("a keyed slot is occupied");
        self.free.push(slot);
        Some(Scheduled { time, host, event })
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.time)
    }

    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use detrand::qc;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        q.push(t(30), HostId::from_index(0), Event::Timer(3));
        q.push(t(10), HostId::from_index(0), Event::Timer(1));
        q.push(t(20), HostId::from_index(0), Event::Timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                Event::Timer(k) => k,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        for k in 0..10 {
            q.push(t, HostId::from_index(0), Event::Timer(k));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                Event::Timer(k) => k,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(9), HostId::from_index(1), Event::Timer(0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
    }

    /// Random push/pop interleavings with heavy timestamp ties against a
    /// sorted-`Vec` model: every event pops exactly once, in `(time,
    /// insertion)` order, with its own host — so a reused slot never
    /// aliases another pending event.
    #[test]
    fn matches_a_sorted_vec_model() {
        qc::property("event_queue_matches_model").cases(256).check(|g| {
            let mut q = EventQueue::new();
            // (time, insertion number, host); kept sorted by the first two.
            let mut model: Vec<(u64, u64, u32)> = Vec::new();
            let mut inserted = 0u64;
            let mut popped = Vec::new();
            for _ in 0..g.usize_in(1..300) {
                if model.is_empty() || g.u32_in(0..3) < 2 {
                    // Few distinct instants, so ties are the common case.
                    let time = g.u64_in(0..8);
                    let host = g.u32_in(0..5);
                    let (at, on) = (SimTime::from_micros(time), HostId::from_index(host));
                    q.push(at, on, Event::Timer(inserted));
                    let at = model.partition_point(|&(t, n, _)| (t, n) < (time, inserted));
                    model.insert(at, (time, inserted, host));
                    inserted += 1;
                } else {
                    let (time, n, host) = model.remove(0);
                    assert_eq!(q.peek_time(), Some(SimTime::from_micros(time)));
                    let s = q.pop().expect("the model holds an event");
                    assert_eq!(s.time, SimTime::from_micros(time));
                    assert_eq!(s.host, HostId::from_index(host));
                    let Event::Timer(token) = s.event else { unreachable!() };
                    assert_eq!(token, n);
                    popped.push(token);
                }
                assert_eq!(q.len(), model.len());
            }
            while let Some((_, n, _)) = model.first().copied() {
                model.remove(0);
                let Some(Scheduled { event: Event::Timer(token), .. }) = q.pop() else {
                    panic!("queue ran dry before the model");
                };
                assert_eq!(token, n);
                popped.push(token);
            }
            assert!(q.pop().is_none());
            popped.sort_unstable();
            assert_eq!(popped, (0..inserted).collect::<Vec<_>>(), "each event pops exactly once");
        });
    }
}
