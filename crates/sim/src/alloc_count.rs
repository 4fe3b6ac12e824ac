//! A counting global allocator for allocation-budget tests.
//!
//! Only compiled under the `alloc-count` feature. Install it in a test
//! binary with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: reflex_sim::alloc_count::CountingAlloc = reflex_sim::alloc_count::CountingAlloc;
//! ```
//!
//! then bracket the region under test with [`allocations`] snapshots. The
//! counters are global and monotonic: tests sharing one process must
//! serialize themselves (e.g. behind a `Mutex`) so another thread's
//! allocations do not bleed into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are plain atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still hits the allocator; count it as one.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocations (alloc + realloc calls) since process start.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
