//! Deterministic future-event list.
//!
//! The queue orders events by `(time, insertion sequence)`. Breaking ties by
//! insertion order — instead of whatever order a binary heap happens to pop
//! equal keys in — is what makes whole-cluster simulations reproducible:
//! two events scheduled for the same instant always fire in the order they
//! were scheduled.
//!
//! Events come in two shapes: a simulation's follow-ups (an iteration's
//! completion, a transfer's next chunk), scheduled a short way ahead in no
//! particular order, and runs already in time order (a batch run's whole
//! arrival trace, pushed before the first event fires). So the queue keeps
//! a FIFO lane beside its binary heap: an event at or after the lane's last
//! time joins the lane, any other goes to the heap. Both hold their events
//! sorted by `(time, seq)`, so taking the smaller of the two heads pops the
//! exact order, and a presorted run costs O(1) per event rather than a heap
//! operation on a heap as deep as the trace.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A future-event list with deterministic tie-breaking.
///
/// Pops in `(time, insertion order)` order. Events pushed in time order
/// (each at or after the previous one in the lane) bypass the heap.
///
/// # Examples
///
/// ```
/// use sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1), 'b');
/// q.push(SimTime::from_secs(1), 'c');
/// q.push(SimTime::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Events in push order, each at or after the time of the one before.
    lane: VecDeque<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, event };
        if self.lane.back().is_none_or(|last| time >= last.time) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Whether the earliest event heads the lane rather than the heap.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(Reverse(heap))) => lane < heap,
            (lane, _) => lane.is_some(),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        }?;
        Some((e.time, e.event))
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane_first() {
            self.lane.front().map(|e| e.time)
        } else {
            self.heap.peek().map(|Reverse(e)| e.time)
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn presorted_pushes_bypass_the_heap() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime::from_micros(i / 3), i);
        }
        assert!(q.heap.is_empty(), "a time-ordered run stays in the lane");
        q.push(SimTime::ZERO, 1000);
        assert_eq!(q.heap.len(), 1, "an earlier event goes to the heap");
        assert_eq!(q.len(), 1001);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1)));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 2)));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1000)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), 3)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let mut t = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for round in 0..50u64 {
            q.push(t + SimDuration::from_micros(round * 7 % 13), round);
            q.push(t + SimDuration::from_micros(round * 11 % 17), round);
            if let Some((pt, _)) = q.pop() {
                assert!(pt >= last, "events must pop in non-decreasing time order");
                last = pt;
                t = pt;
            }
        }
        while let Some((pt, _)) = q.pop() {
            assert!(pt >= last);
            last = pt;
        }
    }
}
