//! The simulator's one time-ordered queue: items leave in the order of
//! their instants, ties in the order they were posted. Each entry's key
//! packs both into one `u128` — the instant in the high word, the
//! poster's sequence number in the low — so the heap compares one integer.
//! The engine's events, each queue pair's NVMe completions and a NIC
//! receive queue's set-aside messages all wait in one.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::SimTime;

/// `(at, seq)` packed into one integer that orders as the pair does.
#[inline]
pub fn time_key(at: SimTime, seq: u64) -> u128 {
    u128::from(at.as_nanos()) << 64 | u128::from(seq)
}

/// The instant a key was packed from.
#[inline]
fn instant(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

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

/// Items ordered by `(at, seq)`, popped once `at` has passed.
///
/// # Examples
///
/// ```
/// use reflex_sim::{SimTime, TimeHeap};
///
/// let mut q = TimeHeap::default();
/// q.push(SimTime::from_micros(5), 0, "late");
/// q.push(SimTime::from_micros(2), 1, "first");
/// q.push(SimTime::from_micros(2), 2, "second");
/// assert_eq!(q.next_at(), Some(SimTime::from_micros(2)));
/// assert_eq!(q.pop_due(SimTime::from_micros(1)), None);
/// let now = SimTime::from_micros(2);
/// assert_eq!(q.pop_due(now), Some((now, "first")));
/// assert_eq!(q.pop_due(now), Some((now, "second")));
/// assert_eq!(q.next_at(), Some(SimTime::from_micros(5)));
/// ```
pub struct TimeHeap<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> std::fmt::Debug for TimeHeap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeHeap")
            .field("len", &self.heap.len())
            .field("next_at", &self.next_at())
            .finish()
    }
}

impl<T> Default for TimeHeap<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> TimeHeap<T> {
    /// An empty queue with room for `n` items before it first grows.
    pub fn with_capacity(n: usize) -> Self {
        TimeHeap {
            heap: BinaryHeap::with_capacity(n),
        }
    }

    /// Posts `item`, visible from `at`; `seq` must be unique in the queue.
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        self.heap.push(Entry(time_key(at, seq), item));
    }

    /// The first item's [`time_key`].
    #[inline]
    pub fn peek_key(&self) -> Option<u128> {
        self.heap.peek().map(|e| e.0)
    }

    /// The instant the first item becomes visible.
    #[inline]
    pub fn next_at(&self) -> Option<SimTime> {
        self.peek_key().map(instant)
    }

    /// The first item and its instant, if that instant is `now` or earlier.
    #[inline]
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        let first = self.heap.peek_mut()?;
        let at = instant(first.0);
        (at <= now).then(|| (at, PeekMut::pop(first).1))
    }
}
