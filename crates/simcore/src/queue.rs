//! The discrete-event queue.
//!
//! A thin wrapper over a binary heap keyed by `(SimTime, sequence)`. The
//! sequence number gives simultaneous events a deterministic FIFO order —
//! essential for reproducibility: two heartbeats scheduled for the same
//! instant are always delivered in the order they were scheduled, on every
//! run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// Events are arbitrary payloads `E`; the caller owns the dispatch loop:
///
/// ```ignore
/// while let Some((now, ev)) = queue.pop() {
///     world.handle(now, ev, &mut queue);
/// }
/// ```
///
/// `pop` never returns events out of time order, and the queue tracks the
/// current simulated time ([`EventQueue::now`]) as the timestamp of the last
/// popped event. Scheduling an event in the past (before `now`) is clamped to
/// `now` — a message can arrive "immediately" but never travel back in time.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`. Times before the current clock
    /// are clamped to the current clock.
    // `#[inline]` lets a caller in another crate inline the heap push
    // whichever codegen unit the caller lands in. Without it, an edit to an
    // unrelated part of `pool` left the recovery pipeline's DHT heartbeat
    // loop calling this out of line, and that run took 5–10 % longer.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Schedule `event` to fire `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pop the earliest pending event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        debug_assert!(e.at >= self.now, "event queue time went backwards");
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Peek at the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_millis(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.pop();
        // Now at t=10ms; scheduling at t=2ms must deliver at t=10ms.
        q.schedule(SimTime::from_millis(2), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_millis(10));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 0);
        q.pop();
        q.schedule_after(SimTime::from_millis(5), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(15));
    }

    #[test]
    fn peek_time_matches_next_pop_without_advancing() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "b");
        q.schedule(SimTime::from_millis(10), "a");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(30)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
