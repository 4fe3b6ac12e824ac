//! Runtime switches for deliberately-wrong accounting (mutation testing).
//!
//! Compiled in only with the `mutation-hooks` feature and **off by
//! default even then** — a build with the feature but no switch flipped
//! behaves identically to a build without it. The swarm runner
//! (`reflex-swarm --mutate`) flips [`set_bucket_skim`] and then asserts
//! that its token-budget oracle catches the drift; a CI job that passes
//! with mutation enabled means the oracle is vacuous.

use std::sync::atomic::{AtomicBool, Ordering};

static BUCKET_SKIM: AtomicBool = AtomicBool::new(false);

/// Enables (or disables) the bucket-skim mutation: every non-empty
/// [`GlobalBucket::take`](crate::GlobalBucket::take) grants one
/// millitoken more than it debits, creating tokens from nothing.
pub fn set_bucket_skim(on: bool) {
    BUCKET_SKIM.store(on, Ordering::Relaxed);
}

pub(crate) fn bucket_skim() -> bool {
    BUCKET_SKIM.load(Ordering::Relaxed)
}
