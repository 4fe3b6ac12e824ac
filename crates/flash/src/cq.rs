//! A queue pair's completion queue: completions leave in the order they
//! become visible, ties in the order they were posted. Each entry's key
//! packs both into one `u128` — the instant in the high word, the
//! poster's sequence number in the low — so the heap compares one integer.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use reflex_sim::SimTime;

/// An item and its key, ordered by the key alone and reversed, so the
/// standard max-heap pops the smallest. Keys are unique: the poster never
/// reuses a sequence number.
struct Entry<T>(u128, T);

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T> Eq for Entry<T> {}

fn instant(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// Items ordered by `(at, seq)`, popped once `at` has passed.
pub(crate) struct CompletionQueue<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> CompletionQueue<T> {
    pub(crate) fn new() -> Self {
        CompletionQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Posts `item`, visible from `at`; `seq` must be unique in the queue.
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let key = u128::from(at.as_nanos()) << 64 | u128::from(seq);
        self.heap.push(Entry(key, item));
    }

    /// The instant the first item becomes visible.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| instant(e.0))
    }

    /// The first item and its instant, if that instant is `now` or earlier.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        let first = self.heap.peek_mut()?;
        let at = instant(first.0);
        (at <= now).then(|| (at, PeekMut::pop(first).1))
    }
}
