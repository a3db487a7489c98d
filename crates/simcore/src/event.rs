//! A time-ordered, FIFO-stable discrete-event queue.
//!
//! The queue is generic over the event payload so each simulation layer can
//! define its own event enum while sharing the same deterministic executor
//! semantics: events fire in non-decreasing time order, and events scheduled
//! for the same instant fire in the order they were scheduled.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event payload together with its scheduled firing time and a sequence
/// number that breaks ties deterministically.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use rpclens_simcore::event::EventQueue;
/// use rpclens_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "second");
/// q.schedule(SimTime::from_nanos(10), "first");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), e), (10, "first"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with capacity pre-reserved for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the queue
    /// clamps such events to the current instant so time never runs
    /// backwards, matching how a real event loop would treat an
    /// already-expired timer.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the next event, advancing the clock to its
    /// firing time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "event queue time went backwards");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// The current simulated instant (the firing time of the most recently
    /// popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[50u64, 10, 30, 20, 40] {
            q.schedule(SimTime::from_nanos(t), t);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn ties_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_and_clamps_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "a");
        assert_eq!(q.pop().unwrap().0.as_nanos(), 100);
        assert_eq!(q.now().as_nanos(), 100);
        // Scheduling in the past clamps to now.
        q.schedule(SimTime::from_nanos(10), "late");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), e), (100, "late"));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_monotonic() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 0u32);
        let mut last = SimTime::ZERO;
        let mut fired = 0;
        while let Some((t, ev)) = q.pop() {
            assert!(t >= last);
            last = t;
            fired += 1;
            if ev < 5 {
                // Each event schedules two children later in time.
                q.schedule(t + SimDuration::from_nanos(3), ev + 1);
                q.schedule(t + SimDuration::from_nanos(1), ev + 1);
            }
        }
        assert_eq!(fired, 2u32.pow(6) - 1);
    }

    proptest! {
        #[test]
        fn arbitrary_schedules_pop_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut popped: Vec<(u64, usize)> = Vec::new();
            while let Some((t, i)) = q.pop() {
                popped.push((t.as_nanos(), i));
            }
            prop_assert_eq!(popped.len(), times.len());
            // Time-sorted, and FIFO within equal timestamps (seq == insertion
            // index here, so equal-time runs must have increasing index).
            for w in popped.windows(2) {
                prop_assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
            }
        }
    }
}
