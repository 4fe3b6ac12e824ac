//! Which tenants of one class a scheduling round has to visit.
//!
//! A tenant is *live* (visited every round) or *parked* until its class's
//! generation clock reaches a wake value. Live tenants are a bitset,
//! scanned in index order as runs; parked ones a min-heap on their wake
//! clocks, one entry each, removable from anywhere. Both are sized at
//! registration, so parking, unparking and waking never allocate.

use std::ops::Range;

/// Heap position of a tenant that is not parked.
const LIVE: u32 = u32::MAX;

#[derive(Debug, Default)]
pub(crate) struct WakeIndex {
    /// Min-heap of `(wake clock, tenant index)`.
    heap: Vec<(u128, u32)>,
    /// Each tenant's position in `heap`, or [`LIVE`].
    pos: Vec<u32>,
    /// Bit `i` is set while tenant `i` is live.
    live: Vec<u64>,
}

impl WakeIndex {
    /// Adds a tenant at the next index, live.
    pub(crate) fn push_tenant(&mut self) {
        let i = self.pos.len();
        self.pos.push(LIVE);
        self.heap.reserve(self.pos.len() - self.heap.len());
        self.live.resize(i / 64 + 1, 0);
        self.live[i / 64] |= 1 << (i % 64);
    }

    /// Forgets the last index and makes every remaining tenant live: what
    /// a removal, which shifts the indices above it, leaves valid.
    pub(crate) fn pop_tenant(&mut self) {
        self.pos.pop();
        self.live.truncate(self.pos.len().div_ceil(64));
        self.unpark_all();
    }

    /// Makes every tenant live.
    pub(crate) fn unpark_all(&mut self) {
        self.heap.clear();
        self.pos.fill(LIVE);
        self.live.fill(u64::MAX);
        if let Some(last) = self.live.last_mut() {
            *last >>= (64 - self.pos.len() % 64) % 64;
        }
    }

    #[inline]
    pub(crate) fn is_parked(&self, i: usize) -> bool {
        self.pos[i] != LIVE
    }

    /// Parks live tenant `i` until the clock reaches `wake`.
    pub(crate) fn park(&mut self, i: usize, wake: u128) {
        debug_assert!(!self.is_parked(i));
        self.live[i / 64] &= !(1 << (i % 64));
        self.heap.push((wake, i as u32));
        self.sift(self.heap.len() - 1);
    }

    /// Makes tenant `i` live; a no-op if it is.
    #[inline]
    pub(crate) fn unpark(&mut self, i: usize) {
        let at = self.pos[i] as usize;
        if at == LIVE as usize {
            return;
        }
        self.pos[i] = LIVE;
        self.live[i / 64] |= 1 << (i % 64);
        let last = self.heap.pop().expect("a parked tenant has a heap entry");
        if at < self.heap.len() {
            self.heap[at] = last;
            self.sift(at);
        }
    }

    /// Whether no tenant is live: a round would visit nobody.
    #[inline]
    pub(crate) fn all_parked(&self) -> bool {
        self.heap.len() == self.pos.len()
    }

    /// The earliest wake clock among the parked tenants.
    #[inline]
    pub(crate) fn next_wake(&self) -> Option<u128> {
        self.heap.first().map(|&(wake, _)| wake)
    }

    /// Makes every tenant whose wake clock is at or before `clock` live.
    pub(crate) fn wake_due(&mut self, clock: u128) {
        while let Some(&(wake, i)) = self.heap.first() {
            if wake > clock {
                break;
            }
            self.unpark(i as usize);
        }
    }

    /// The first run of consecutive live tenants at index `from` or above.
    pub(crate) fn live_run(&self, from: usize) -> Option<Range<usize>> {
        let start = self.first_set(from, |word| word)?;
        // Past the last tenant no bit is set.
        let end = self.first_set(start, |word| !word);
        Some(start..end.map_or(self.pos.len(), |end| end.min(self.pos.len())))
    }

    /// The first index at or above `from` whose bit is set in `view` of
    /// the live words.
    fn first_set(&self, from: usize, view: impl Fn(u64) -> u64) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = view(*self.live.get(word)?) & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            bits = view(*self.live.get(word)?);
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Restores heap order around the entry at `at`, which is new there.
    fn sift(&mut self, mut at: usize) {
        while at > 0 && self.heap[at] < self.heap[(at - 1) / 2] {
            at = self.swap(at, (at - 1) / 2);
        }
        while let Some(child) = (2 * at + 1..2 * at + 3)
            .filter(|&child| child < self.heap.len())
            .min_by_key(|&child| self.heap[child])
            .filter(|&child| self.heap[child] < self.heap[at])
        {
            at = self.swap(at, child);
        }
        self.pos[self.heap[at].1 as usize] = at as u32;
    }

    /// Swaps the entries at `at` and `with`; returns `with`, where the
    /// first one went.
    fn swap(&mut self, at: usize, with: usize) -> usize {
        self.heap.swap(at, with);
        self.pos[self.heap[at].1 as usize] = at as u32;
        with
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Against a plain `Vec<Option<wake>>`: same parked set, same
        /// wake-ups, same scan order, and no growth after registration.
        #[test]
        fn matches_a_flat_model(
            tenants in 1usize..200,
            ops in prop::collection::vec((0u8..5, any::<u16>(), 0u64..1_000), 1..300),
        ) {
            let mut index = WakeIndex::default();
            let mut model: Vec<Option<u128>> = Vec::new();
            for _ in 0..tenants {
                index.push_tenant();
                model.push(None);
            }
            let capacity = index.heap.capacity();
            for (kind, i, clock) in ops {
                let (i, clock) = (i as usize % model.len(), u128::from(clock));
                match kind {
                    0 | 1 if model[i].is_none() => {
                        index.park(i, clock);
                        model[i] = Some(clock);
                    }
                    0..=2 => {
                        index.unpark(i);
                        model[i] = None;
                    }
                    3 => {
                        index.wake_due(clock);
                        for w in &mut model {
                            if w.is_some_and(|w| w <= clock) {
                                *w = None;
                            }
                        }
                    }
                    _ if model.len() > 1 => {
                        index.pop_tenant();
                        model.pop();
                        model.fill(None);
                    }
                    _ => {}
                }
                let mut live = Vec::new();
                let mut from = 0;
                while let Some(run) = index.live_run(from) {
                    prop_assert!(run.start < run.end && run.end <= model.len());
                    prop_assert!(run.end == model.len() || model[run.end].is_some());
                    from = run.end;
                    live.extend(run);
                }
                let want: Vec<usize> =
                    (0..model.len()).filter(|&i| model[i].is_none()).collect();
                prop_assert_eq!(live, want);
                for (i, w) in model.iter().enumerate() {
                    prop_assert_eq!(index.is_parked(i), w.is_some());
                }
                prop_assert_eq!(index.heap.len(), model.iter().flatten().count());
                let earliest = model.iter().flatten().min();
                prop_assert_eq!(index.heap.first().map(|e| &e.0), earliest);
            }
            prop_assert_eq!(index.heap.capacity(), capacity);
        }
    }
}
