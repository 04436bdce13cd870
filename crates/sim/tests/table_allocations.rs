//! A full tag table reuses its rows without allocating: each row's stream
//! storage outlives the tags that use it, and the smoothing policy and the
//! median's scratch live once in the middleware.
//!
//! Its own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use vire_sim::middleware::MAX_TAGS;
use vire_sim::smoothing::SmoothingKind;
use vire_sim::{Middleware, ReaderId, Reading, TagId};

/// Counts allocations made on a thread while its `COUNTING` flag is set,
/// so the harness's other threads do not disturb the count.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout,
// pointer and size unchanged, so `System` receives exactly the guarantees
// `GlobalAlloc` asks of the caller; counting touches only an atomic and a
// const-initialized thread-local, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this call.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let start = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - start
}

const READERS: u32 = 4;
const WINDOW: usize = 5;

/// Fills every stream of tags `ids` to a full window.
fn feed(mw: &mut Middleware, ids: std::ops::Range<u32>) {
    for index in ids {
        for reader in 0..READERS {
            for n in 0..WINDOW {
                mw.ingest(Reading {
                    time: 0.0,
                    tag: TagId::first(index),
                    reader: ReaderId(reader),
                    rssi: -70.0 - (index % 7 + n as u32 + reader) as f64,
                });
            }
        }
    }
}

#[test]
fn evicting_a_full_table_allocates_nothing() {
    let mut mw = Middleware::new(SmoothingKind::Median(WINDOW), false);
    let full = MAX_TAGS as u32;
    feed(&mut mw, 0..full);
    assert_eq!(mw.tag_count(), MAX_TAGS);
    assert_eq!(mw.evicted(), 0);

    let allocations = allocations_in(|| feed(&mut mw, full..2 * full));
    assert_eq!(mw.evicted(), MAX_TAGS as u64, "every old tag was evicted");
    assert_eq!(mw.tag_count(), MAX_TAGS);
    assert_eq!(mw.rssi(TagId::first(0), ReaderId(0)), None);
    assert_eq!(mw.fill(TagId::first(2 * full - 1), ReaderId(3)), WINDOW);
    assert_eq!(allocations, 0, "a reused row allocated");
}
