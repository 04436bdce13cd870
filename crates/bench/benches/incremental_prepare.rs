//! Incremental sync vs from-scratch prepare.
//!
//! A calibration update dirties a handful of coarse cells;
//! `PreparedVire`'s `sync` re-interpolates only the kernel-support
//! region of each and patches the flattened planes in place, where the
//! pre-incremental path rebuilt the whole prepared state. Both paths
//! end with the planes' tile summary: a patch refreshes the tiles it
//! wrote, a rebuild all of them.
//! This bench
//! sweeps the dirty-cell count (1, 2, 4, 16, all) on the default 3-reader
//! 4×4 map at refine 10 and, in bench mode, writes a machine-readable
//! summary to `target/incremental_prepare.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use vire_core::{OwnedPreparedLocalizer, ReferenceRssiMap, Vire, VireConfig};
use vire_geom::{GridData, GridIndex, Point2, RegularGrid};

const SIDE: usize = 4;
const READERS: usize = 3;
/// Dirty-cell counts swept; from 4 up (12·dirty ≥ 48) sync crosses its
/// rebuild cutover, so the 4, 16 and all-cells rows measure an in-place
/// rebuild rather than patching.
const DIRTY_COUNTS: [usize; 5] = [1, 2, 4, 16, READERS * SIDE * SIDE];

fn base_map() -> ReferenceRssiMap {
    let readers = vec![
        Point2::new(-1.0, -1.0),
        Point2::new(4.0, -1.0),
        Point2::new(4.0, 4.0),
    ];
    let grid = RegularGrid::square(Point2::ORIGIN, 1.0, SIDE);
    let fields = readers
        .iter()
        .map(|r| GridData::from_fn(grid, |_, p| -62.0 - 24.0 * p.distance(*r).max(0.1).log10()))
        .collect();
    ReferenceRssiMap::new(grid, readers, fields)
}

/// The `dirty`-many (reader, cell) targets, spread across the table.
fn dirty_cells(map: &ReferenceRssiMap, dirty: usize) -> Vec<(usize, GridIndex, f64)> {
    let nodes = map.grid().node_count();
    let total = READERS * nodes;
    let stride = total / dirty;
    (0..dirty)
        .map(|n| {
            let flat = n * stride;
            let (k, node) = (flat / nodes, flat % nodes);
            let idx = map.grid().unflat(node);
            (k, idx, map.rssi(k, idx))
        })
        .collect()
}

/// Writes iteration `round`'s toggled values into `map` — every write is a
/// guaranteed bit-change, so sync can never short-circuit.
fn toggle(map: &mut ReferenceRssiMap, cells: &[(usize, GridIndex, f64)], round: u64) {
    let delta = if round.is_multiple_of(2) { 0.25 } else { -0.25 };
    for &(k, idx, base) in cells {
        map.set_rssi(k, idx, base + delta);
    }
}

fn bench_incremental_prepare(c: &mut Criterion) {
    let vire = Vire::new(VireConfig::default());
    let mut group = c.benchmark_group("incremental_prepare");
    for dirty in DIRTY_COUNTS {
        let mut map = base_map();
        let cells = dirty_cells(&map, dirty);

        let mut owned = vire.prepare(&map).expect("refine > 0");
        let mut round = 0u64;
        group.bench_with_input(BenchmarkId::new("patched", dirty), &dirty, |b, _| {
            b.iter(|| {
                toggle(&mut map, &cells, round);
                round += 1;
                black_box(owned.sync(black_box(&map), &[]))
            })
        });

        let mut round = 0u64;
        group.bench_with_input(BenchmarkId::new("rebuild", dirty), &dirty, |b, _| {
            b.iter(|| {
                toggle(&mut map, &cells, round);
                round += 1;
                let prepared = vire.prepare(black_box(&map)).expect("refine > 0");
                black_box(prepared.planes()[0]);
            })
        });
    }
    group.finish();
}

/// One dirty-count level's measurements in the JSON summary.
///
/// `sync_vs_prepare_ratio` is a diagnostic: sync time vs a from-scratch
/// prepare at that dirty count. Rows at or past the rebuild cutover
/// (`12 · dirty ≥ readers · nodes`) measure an in-place rebuild against a
/// fresh prepare, so the ratio sits near 1.0 there by construction — it is **not** a
/// regression signal, which is why it is not named `speedup` (the
/// `scripts/check.sh` gate requires every `speedup` field to be ≥ 1.0).
#[derive(Serialize)]
struct SummaryRow {
    dirty: usize,
    patched_ns: f64,
    rebuild_ns: f64,
    sync_vs_prepare_ratio: f64,
}

/// The `target/incremental_prepare.json` document. The top-level
/// `speedup` is the worst sync-vs-prepare ratio over the rows where sync
/// chooses the patch path (below the rebuild cutover) — the advantage the
/// incremental machinery must actually deliver.
#[derive(Serialize)]
struct Summary {
    group: String,
    fixture: String,
    speedup: f64,
    rows: Vec<SummaryRow>,
}

/// Mean ns per call of `f` over a fixed wall-clock budget.
fn time_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    let budget = std::time::Duration::from_millis(250);
    let start = Instant::now();
    let mut calls: u64 = 0;
    while start.elapsed() < budget / 5 {
        black_box(f());
        calls += 1;
    }
    let batch = calls.max(1);
    let start = Instant::now();
    let mut done: u64 = 0;
    while start.elapsed() < budget {
        for _ in 0..batch {
            black_box(f());
        }
        done += batch;
    }
    start.elapsed().as_secs_f64() * 1e9 / done as f64
}

/// Times both paths directly and emits `target/incremental_prepare.json`.
/// Only runs under `cargo bench` (`--bench` flag), mirroring the other
/// bench summaries.
fn emit_json_summary(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let vire = Vire::new(VireConfig::default());
    let rows: Vec<SummaryRow> = DIRTY_COUNTS
        .iter()
        .map(|&dirty| {
            let mut map = base_map();
            let cells = dirty_cells(&map, dirty);
            let mut owned = vire.prepare(&map).expect("refine > 0");

            // Bit-identity sanity check rides along with the timing run.
            toggle(&mut map, &cells, 0);
            owned.sync(&map, &[]);
            let fresh = vire.prepare(&map).expect("refine > 0");
            assert_eq!(
                owned
                    .planes()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                fresh
                    .planes()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "patched planes must be bit-identical at dirty={dirty}"
            );

            let mut round = 1u64;
            let patched_ns = time_ns(|| {
                toggle(&mut map, &cells, round);
                round += 1;
                owned.sync(black_box(&map), &[])
            });
            let mut round = 0u64;
            let rebuild_ns = time_ns(|| {
                toggle(&mut map, &cells, round);
                round += 1;
                let prepared = vire.prepare(black_box(&map)).expect("refine > 0");
                black_box(prepared.planes()[0])
            });
            SummaryRow {
                dirty,
                patched_ns,
                rebuild_ns,
                sync_vs_prepare_ratio: rebuild_ns / patched_ns,
            }
        })
        .collect();

    // The gated number: worst advantage over the patch-path rows (sync
    // rebuilds instead once 12 · dirty ≥ readers · nodes).
    let nodes = base_map().grid().node_count();
    let speedup = rows
        .iter()
        .filter(|r| 12 * r.dirty < READERS * nodes)
        .map(|r| r.sync_vs_prepare_ratio)
        .fold(f64::INFINITY, f64::min);
    let summary = Summary {
        group: "incremental_prepare".into(),
        fixture: "3 readers, 4x4 lattice, refine 10, linear kernel".into(),
        speedup,
        rows,
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    let path = format!("{out}/incremental_prepare.json");
    std::fs::create_dir_all(out).expect("target dir");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&path, body + "\n").expect("write summary");
    println!("incremental_prepare summary -> {path}");
    for row in &summary.rows {
        println!(
            "  dirty {:>2}: rebuild {:>10.0} ns  patched {:>10.0} ns  ratio {:>6.1}x",
            row.dirty, row.rebuild_ns, row.patched_ns, row.sync_vs_prepare_ratio,
        );
    }
    println!("  patch-path speedup {:>6.1}x", summary.speedup);
}

criterion_group!(benches, bench_incremental_prepare, emit_json_summary);
criterion_main!(benches);
