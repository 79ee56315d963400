//! A counting wrapper over the system allocator. Only the traced binary
//! installs it (`#[global_allocator]`); in the timed binary the counters
//! stay at zero and cost nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Counts allocation calls and tracks live and peak heap bytes.
pub struct CountingAlloc;

fn account(bytes: u64) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to the system allocator with the
// caller's own arguments, so the `GlobalAlloc` contract the caller keeps
// for `CountingAlloc` is exactly the one `System` needs; the counters
// are plain atomics and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; see the impl comment.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; see the impl comment.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; see the impl comment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            account(new_size as u64);
        }
        p
    }
}

/// Allocation calls so far.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Peak live heap bytes so far.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
