//! The deterministic event queue.
//!
//! # Invariants
//!
//! The queue is the only ordering authority in the engine, and it is
//! bit-reproducible by construction:
//!
//! * **Total order.** Events are delivered in ascending
//!   ([`SimTime`], insertion sequence) order. Two events scheduled for
//!   the same virtual instant fire in the order they were scheduled —
//!   never in heap order, hash order, or address order.
//! * **No wall clock.** Nothing in this module (or anywhere in
//!   [`des`](crate::des)) reads `std::time`; virtual time advances only
//!   when an event is popped or a backend operation adds latency, so the
//!   same seed always produces the same event sequence.
//! * **Monotone delivery.** [`EventQueue::pop_before`] never returns an
//!   event scheduled after the requested horizon, and repeated calls
//!   with non-decreasing horizons deliver every event exactly once.
//!
//! Scheduling an event in the past is allowed (a settlement wave
//! computed from an earlier sender clock may land before another
//! payment's current horizon); it simply fires at the next drain.

use super::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled event. Ordering ignores the payload entirely.
struct Scheduled<T> {
    fire: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.fire == other.fire && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.fire, self.seq).cmp(&(other.fire, other.seq))
    }
}

/// A binary-heap event queue over [`SimTime`] with insertion-sequence
/// tie-breaking (see the module docs for the determinism invariants).
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Scheduled<T>>>,
    next_seq: u64,
    delivered: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            delivered: 0,
        }
    }

    /// Schedules `payload` to fire at `fire`. Events scheduled for the
    /// same instant fire in call order.
    pub fn schedule(&mut self, fire: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { fire, seq, payload }));
    }

    /// The fire time of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.fire)
    }

    /// Pops the earliest event if it fires at or before `horizon`.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, T)> {
        if self.peek_time()? > horizon {
            return None;
        }
        let Reverse(s) = self.heap.pop()?;
        self.delivered += 1;
        Some((s.fire, s.payload))
    }

    /// Total events delivered so far (the engine's event counter).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total events scheduled so far: heap pushes, one per
    /// [`EventQueue::schedule`] call (the next insertion sequence
    /// number).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        let mut seen = Vec::new();
        while let Some((_, p)) = q.pop_before(SimTime::MAX) {
            seen.push(p);
        }
        assert_eq!(seen, vec!["a", "b", "c"]);
        assert_eq!((q.scheduled(), q.delivered()), (3, 3));
    }

    #[test]
    fn ties_break_by_insertion_sequence() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let mut seen = Vec::new();
        while let Some((_, p)) = q.pop_before(t(5)) {
            seen.push(p);
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 'x');
        q.schedule(t(20), 'y');
        assert_eq!(q.pop_before(t(5)), None);
        assert_eq!(q.pop_before(t(10)), Some((t(10), 'x')));
        assert_eq!(q.pop_before(t(10)), None);
        assert_eq!((q.scheduled(), q.delivered()), (2, 1));
        assert_eq!(q.pop_before(t(25)), Some((t(20), 'y')));
        assert_eq!(q.pop_before(SimTime::MAX), None);
    }

    #[test]
    fn scheduling_in_the_past_still_fires() {
        let mut q = EventQueue::new();
        q.schedule(t(100), 1);
        assert_eq!(q.pop_before(t(100)), Some((t(100), 1)));
        // An event computed from an earlier sender clock.
        q.schedule(t(50), 2);
        assert_eq!(q.pop_before(t(100)), Some((t(50), 2)));
    }
}
