//! A counting `#[global_allocator]` for allocation-gate test binaries,
//! included with `#[path]` by each crate that has one (the library crates
//! themselves forbid `unsafe`). Counts per thread, so the test
//! harness's own threads cannot disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two thread-local counters
// with const initialisers and no destructors, so touching them never
// allocates and is valid for the whole life of the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` performs on this
/// thread, and the bytes they asked for — a reallocation counts only what
/// it grew by, so the total bounds the heap `f` took, frees ignored.
pub fn allocated_in(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Heap allocations (including reallocations) `f` performs on this thread.
pub fn allocations_in(f: impl FnOnce()) -> u64 {
    allocated_in(f).0
}

#[test]
fn the_counter_counts() {
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(vec![1u8; 64]))),
        1
    );
}

#[test]
fn the_byte_counter_counts_what_was_asked_for() {
    let grown = || {
        let mut v = std::hint::black_box(Vec::<u8>::with_capacity(64));
        v.reserve_exact(128);
        drop(v);
    };
    assert_eq!(allocated_in(grown), (2, 128));
}
