//! The counting global allocator the allocation gates share. A gate is a
//! binary of its own holding one test, because the allocator and its
//! counters are process-wide state; each includes this file by `#[path]`
//! and installs the allocator in its own `#[global_allocator]` static.

// Each gate reads the counter it asserts on and leaves the other.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts every allocation and reallocation, and sums the bytes each asks
/// for, while [`counted`] runs its closure.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// What [`counted`]'s closure allocated.
#[derive(Debug, Clone, Copy)]
pub struct Allocated {
    /// Allocation and reallocation calls.
    pub calls: u64,
    /// Bytes those calls asked for.
    pub bytes: usize,
}

/// Runs `f` with the allocator counting; returns its result and what it
/// allocated.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Allocated) {
    CALLS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let allocated = Allocated {
        calls: CALLS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst) as usize,
    };
    (out, allocated)
}
