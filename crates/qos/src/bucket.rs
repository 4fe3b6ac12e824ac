//! The global token bucket shared by all dataplane threads.
//!
//! LC tenants with spare tokens donate into the bucket; BE tenants on any
//! thread claim from it. Threads use atomic read-modify-write operations —
//! no locks — and the bucket is reset once every thread has completed at
//! least one scheduling round since the last reset, with the *last* thread
//! to mark performing the reset (paper §4.1, "Multi-threading operation").

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::tokens::Tokens;

/// Lock-free shared token bucket with last-thread-resets round tracking.
///
/// # Examples
///
/// ```
/// use reflex_qos::{GlobalBucket, Tokens};
///
/// let bucket = GlobalBucket::new(2); // two dataplane threads
/// bucket.give(Tokens::from_tokens(10));
/// let got = bucket.take(Tokens::from_tokens(4));
/// assert_eq!(got, Tokens::from_tokens(4));
/// assert_eq!(bucket.balance(), Tokens::from_tokens(6));
///
/// // Thread 0 finishes a round: not everyone yet, no reset.
/// assert!(!bucket.mark_round(0));
/// // Thread 1 finishes: last one marks, bucket resets.
/// assert!(bucket.mark_round(1));
/// assert_eq!(bucket.balance(), Tokens::ZERO);
/// ```
#[derive(Debug)]
pub struct GlobalBucket {
    millitokens: AtomicI64,
    round_marks: AtomicU64,
    /// One bit per thread sharing the bucket, fixed at construction.
    active_mask: u64,
    /// Millitokens thrown away by resets so far. Touched on the reset
    /// path only, never by give/take.
    discarded: AtomicI64,
}

impl GlobalBucket {
    /// Creates a bucket shared by `num_threads` dataplane threads.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero or exceeds 64 (one mark bit per
    /// thread).
    pub fn new(num_threads: u32) -> Self {
        assert!(
            (1..=64).contains(&num_threads),
            "bucket supports 1..=64 threads, got {num_threads}"
        );
        let mask = if num_threads == 64 {
            u64::MAX
        } else {
            (1u64 << num_threads) - 1
        };
        GlobalBucket {
            millitokens: AtomicI64::new(0),
            round_marks: AtomicU64::new(0),
            active_mask: mask,
            discarded: AtomicI64::new(0),
        }
    }

    /// Donates tokens to the bucket. Negative or zero amounts are ignored.
    pub fn give(&self, tokens: Tokens) {
        let mt = tokens.as_millitokens();
        if mt > 0 {
            self.millitokens.fetch_add(mt, Ordering::AcqRel);
        }
    }

    /// Atomically claims up to `want` tokens, returning what was granted
    /// (zero if the bucket is empty or `want` is non-positive).
    pub fn take(&self, want: Tokens) -> Tokens {
        let want_mt = want.as_millitokens();
        if want_mt <= 0 {
            return Tokens::ZERO;
        }
        let mut current = self.millitokens.load(Ordering::Acquire);
        loop {
            let grant = current.min(want_mt).max(0);
            if grant == 0 {
                return Tokens::ZERO;
            }
            match self.millitokens.compare_exchange_weak(
                current,
                current - grant,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Tokens::from_millitokens(grant),
                Err(actual) => current = actual,
            }
        }
    }

    /// Current balance (advisory; may race with concurrent give/take).
    pub fn balance(&self) -> Tokens {
        Tokens::from_millitokens(self.millitokens.load(Ordering::Acquire))
    }

    /// Everything resets have thrown away so far. Closes the bucket's
    /// books: donated = granted + [`balance`](Self::balance) + discarded.
    pub fn discarded(&self) -> Tokens {
        Tokens::from_millitokens(self.discarded.load(Ordering::Acquire))
    }

    /// Marks that thread `thread_idx` completed a scheduling round. When
    /// every thread has marked since the last reset, the caller — the last
    /// thread — zeroes the bucket and the marks; returns `true` in that
    /// case. This keeps BE bursting bounded without cross-thread locking
    /// and lets threads schedule at different frequencies.
    ///
    /// Marks from a thread index beyond those the bucket was built for
    /// are ignored and return `false`.
    pub fn mark_round(&self, thread_idx: u32) -> bool {
        let bit = 1u64 << thread_idx;
        let active = self.active_mask;
        if bit & active == 0 {
            return false;
        }
        // Most rounds need no locked read-modify-write: the thread that
        // sees every other mark set resets without setting its own, a
        // thread that marked already waits for its siblings, and most
        // resets find the bucket empty.
        let prev = self.round_marks.load(Ordering::Acquire);
        let last = |marks: u64| (marks | bit) & active == active;
        if !last(prev) {
            if prev & bit != 0 {
                return false;
            }
            if !last(self.round_marks.fetch_or(bit, Ordering::AcqRel)) {
                return false;
            }
        }
        self.round_marks.store(0, Ordering::Release);
        if self.millitokens.load(Ordering::Acquire) != 0 {
            let dropped = self.millitokens.swap(0, Ordering::AcqRel);
            self.discarded.fetch_add(dropped, Ordering::AcqRel);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn take_is_bounded_by_balance() {
        let b = GlobalBucket::new(1);
        b.give(Tokens::from_tokens(3));
        assert_eq!(b.take(Tokens::from_tokens(10)), Tokens::from_tokens(3));
        assert_eq!(b.take(Tokens::from_tokens(1)), Tokens::ZERO);
    }

    #[test]
    fn give_ignores_non_positive() {
        let b = GlobalBucket::new(1);
        b.give(Tokens::from_tokens(-5));
        b.give(Tokens::ZERO);
        assert_eq!(b.balance(), Tokens::ZERO);
    }

    #[test]
    fn take_ignores_non_positive_want() {
        let b = GlobalBucket::new(1);
        b.give(Tokens::from_tokens(1));
        assert_eq!(b.take(Tokens::from_tokens(-1)), Tokens::ZERO);
        assert_eq!(b.balance(), Tokens::from_tokens(1));
    }

    #[test]
    fn single_thread_reset_every_round() {
        let b = GlobalBucket::new(1);
        b.give(Tokens::from_tokens(5));
        assert_eq!(b.take(Tokens::from_tokens(2)), Tokens::from_tokens(2));
        assert!(b.mark_round(0));
        assert_eq!(b.balance(), Tokens::ZERO);
        assert_eq!(b.discarded(), Tokens::from_tokens(3));
    }

    #[test]
    fn reset_requires_all_threads() {
        let b = GlobalBucket::new(3);
        b.give(Tokens::from_tokens(5));
        assert!(!b.mark_round(0));
        assert!(!b.mark_round(1));
        assert!(!b.mark_round(0)); // re-marking the same thread doesn't help
        assert_eq!(b.balance(), Tokens::from_tokens(5));
        assert!(b.mark_round(2));
        assert_eq!(b.balance(), Tokens::ZERO);
        // Next cycle starts fresh.
        assert!(!b.mark_round(2));
    }

    #[test]
    fn foreign_thread_marks_are_ignored() {
        let b = GlobalBucket::new(2);
        b.give(Tokens::from_tokens(1));
        assert!(!b.mark_round(7));
        assert_eq!(
            b.balance(),
            Tokens::from_tokens(1),
            "no reset from outsiders"
        );
    }

    #[test]
    fn concurrent_takes_never_over_grant() {
        // Hammer the bucket from 8 OS threads; total granted must equal
        // total donated (conservation under real concurrency).
        let b = Arc::new(GlobalBucket::new(8));
        let donated = 8 * 10_000i64;
        b.give(Tokens::from_millitokens(donated));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut got = 0i64;
                for _ in 0..5_000 {
                    got += b.take(Tokens::from_millitokens(7)).as_millitokens();
                }
                got
            }));
        }
        let total: i64 = handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .sum();
        assert_eq!(total + b.balance().as_millitokens(), donated);
    }

    #[test]
    fn concurrent_give_take_conserves() {
        let b = Arc::new(GlobalBucket::new(4));
        let mut handles = Vec::new();
        for i in 0..4 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64; // taken - given by this thread
                for k in 0..10_000 {
                    if (k + i) % 2 == 0 {
                        b.give(Tokens::from_millitokens(3));
                        net -= 3;
                    } else {
                        net += b.take(Tokens::from_millitokens(2)).as_millitokens();
                    }
                }
                net
            }));
        }
        let net: i64 = handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .sum();
        // given - taken must equal what's left in the bucket.
        assert_eq!(-net, b.balance().as_millitokens());
        assert!(b.balance().as_millitokens() >= 0);
    }
}
