//! A steady-state locate allocates nothing, VIRE's or LANDMARC's:
//! elimination reads the tile store in place, LANDMARC reads the map
//! mirror's planes in place, and every buffer of the scratch arena keeps
//! its capacity from one reading to the next. Neither does a steady-state
//! sync: the sweep re-interpolates a reader through its own scratch and
//! writes the virtual grid's store in place.
//!
//! Its own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use vire_bench::fixture;
use vire_core::incremental::SyncOutcome;
use vire_core::{
    Landmarc, OwnedPreparedLocalizer, PreparedLocalizer, TrackingReading, Vire, VireConfig,
    VireScratch,
};
use vire_geom::GridIndex;

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

/// Locates every reading once to warm the scratch up, then twice more
/// under the counting allocator, and returns the allocations counted.
fn allocations(readings: &[TrackingReading], mut locate: impl FnMut(&TrackingReading)) -> u64 {
    readings.iter().for_each(&mut locate);
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    readings.iter().chain(readings).for_each(&mut locate);
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_locates_allocate_nothing() {
    let (map, tags) = fixture();
    // The fixture's readings, and each shifted by up to ±3 dB per reader
    // so phase 1 runs for several steps.
    let mut readings: Vec<TrackingReading> = tags.iter().map(|(_, r)| r.clone()).collect();
    for (i, (_, r)) in tags.iter().enumerate() {
        let shifted = r.rssi().iter().enumerate();
        let shifted = shifted.map(|(k, &s)| s + [-3.0, 1.5, 3.0, -1.5][(i + k) % 4]);
        readings.push(TrackingReading::new(shifted.collect()));
    }
    for refine in [10, 20] {
        let config = VireConfig {
            refine,
            ..VireConfig::default()
        };
        let prepared = Vire::new(config).prepare(&map).expect("refine > 0");
        let mut scratch = VireScratch::new();
        let count = allocations(&readings, |r| {
            prepared
                .locate_with_scratch(r, &mut scratch)
                .expect("locates");
        });
        assert_eq!(count, 0, "refine {refine}");
    }
    // LANDMARC, alone and as the fallback of a VIRE whose threshold
    // eliminates every region, on the thread's own scratch.
    let landmarc = Landmarc::default().prepare(&map);
    let count = allocations(&readings, |r| {
        landmarc.locate(r).expect("locates");
    });
    assert_eq!(count, 0, "LANDMARC");
    let falling_back = Vire::new(VireConfig::with_fixed_threshold(1e-9));
    let prepared = falling_back.prepare(&map).expect("refine > 0");
    let count = allocations(&readings, |r| {
        let est = prepared.locate(r).expect("locates");
        assert_eq!(est.threshold, None, "falls back to LANDMARC");
    });
    assert_eq!(count, 0, "VIRE falling back to LANDMARC");
}

/// A hinted sync that re-interpolates one reader, at refine 10 and 20.
#[test]
fn steady_state_syncs_allocate_nothing() {
    let (map, _) = fixture();
    let cell = GridIndex::new(1, 2);
    for refine in [10, 20] {
        let config = VireConfig {
            refine,
            ..VireConfig::default()
        };
        let mut prepared = Vire::new(config).prepare(&map).expect("refine > 0");
        let mut moving = map.clone();
        let base = map.rssi(0, cell);
        let mut sync = |round: usize| {
            moving.set_rssi(0, cell, base - [0.5, 1.0][round % 2]);
            let outcome = prepared.sync(&moving, &[(0, cell)]);
            assert_eq!(outcome, SyncOutcome::Patched(1), "refine {refine}");
        };
        // The first sync meets a new map id and diffs the whole map.
        sync(0);
        ALLOCATIONS.store(0, Ordering::Relaxed);
        COUNTING.with(|c| c.set(true));
        for round in 1..9 {
            sync(round);
        }
        COUNTING.with(|c| c.set(false));
        assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), 0, "refine {refine}");
    }
}
