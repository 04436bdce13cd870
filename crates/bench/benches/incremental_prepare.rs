//! Incremental sync vs from-scratch prepare.
//!
//! A calibration update dirties a handful of coarse cells;
//! `PreparedVire`'s `sync` re-interpolates, in place, the whole plane of
//! each reader owning one (and refreshes that reader's tile summary),
//! where a fresh `prepare` clones the map and builds every plane anew.
//! This bench sweeps the dirty readers on the default 3-reader 4×4 map at
//! refine 10 — one cell on one reader, one cell on each of two readers,
//! and every cell — and, in bench mode, writes a machine-readable summary
//! to `target/incremental_prepare.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use vire_core::{OwnedPreparedLocalizer, ReferenceRssiMap, Vire, VireConfig};
use vire_geom::{GridData, GridIndex, Point2, RegularGrid};

const SIDE: usize = 4;
const READERS: usize = 3;
/// The swept cases, `(dirty readers, dirty cells)`: one cell on one
/// reader, one cell on each of two readers, every cell of every reader.
const CASES: [(usize, usize); 3] = [(1, 1), (2, 2), (READERS, READERS * SIDE * SIDE)];

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

/// The `cells`-many (reader, cell) targets of a case, on its first
/// `readers` readers: one cell each, or every cell of every reader.
fn dirty_cells(
    map: &ReferenceRssiMap,
    (readers, cells): (usize, usize),
) -> Vec<(usize, GridIndex, f64)> {
    let nodes = map.grid().node_count();
    (0..cells)
        .map(|n| {
            let (k, node) = if cells == readers {
                (n, n)
            } else {
                (n / nodes, n % nodes)
            };
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
    for case in CASES {
        let mut map = base_map();
        let cells = dirty_cells(&map, case);
        let label = format!("{}r{}c", case.0, case.1);

        let mut owned = vire.prepare(&map).expect("refine > 0");
        let mut round = 0u64;
        group.bench_with_input(BenchmarkId::new("sync", &label), &case, |b, _| {
            b.iter(|| {
                toggle(&mut map, &cells, round);
                round += 1;
                black_box(owned.sync(black_box(&map), &[]))
            })
        });

        let mut round = 0u64;
        group.bench_with_input(BenchmarkId::new("prepare", &label), &case, |b, _| {
            b.iter(|| {
                toggle(&mut map, &cells, round);
                round += 1;
                black_box(vire.prepare(black_box(&map)).expect("refine > 0"));
            })
        });
    }
    group.finish();
}

/// One case's measurements in the JSON summary: `sync_ns` times the
/// in-place sync, `prepare_ns` a fresh prepare against the same map.
///
/// `sync_vs_prepare_ratio` is a diagnostic (`prepare_ns / sync_ns`): with
/// every reader dirty both re-interpolate every plane, so it sits near
/// 1.0 there by construction — it is **not** a regression signal, which
/// is why it is not named `speedup` (the `scripts/check.sh` gate requires
/// every `speedup` field to be ≥ 1.0).
#[derive(Serialize)]
struct SummaryRow {
    dirty_readers: usize,
    dirty_cells: usize,
    sync_ns: f64,
    prepare_ns: f64,
    sync_vs_prepare_ratio: f64,
}

/// The `target/incremental_prepare.json` document. The top-level
/// `speedup` is the every-reader sync time over the one-reader sync time
/// — the saving that re-interpolating only the changed readers must
/// deliver.
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
    let rows: Vec<SummaryRow> = CASES
        .iter()
        .map(|&case| {
            let mut map = base_map();
            let cells = dirty_cells(&map, case);
            let mut owned = vire.prepare(&map).expect("refine > 0");

            // Bit-identity sanity check rides along with the timing run.
            toggle(&mut map, &cells, 0);
            owned.sync(&map, &[]);
            let fresh = vire.prepare(&map).expect("refine > 0");
            let bits = |prepared: &vire_core::PreparedVire| {
                let grid = prepared.grid();
                let fields = (0..grid.reader_count()).flat_map(|k| grid.field(k));
                fields.map(f64::to_bits).collect::<Vec<_>>()
            };
            assert_eq!(
                bits(&owned),
                bits(&fresh),
                "synced grid must be bit-identical at {case:?}"
            );

            let mut round = 1u64;
            let sync_ns = time_ns(|| {
                toggle(&mut map, &cells, round);
                round += 1;
                owned.sync(black_box(&map), &[])
            });
            let mut round = 0u64;
            let prepare_ns = time_ns(|| {
                toggle(&mut map, &cells, round);
                round += 1;
                black_box(vire.prepare(black_box(&map)).expect("refine > 0"))
            });
            SummaryRow {
                dirty_readers: case.0,
                dirty_cells: case.1,
                sync_ns,
                prepare_ns,
                sync_vs_prepare_ratio: prepare_ns / sync_ns,
            }
        })
        .collect();

    let speedup = rows[rows.len() - 1].sync_ns / rows[0].sync_ns;
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
            "  {} reader(s), {:>2} cell(s): sync {:>8.0} ns  prepare {:>8.0} ns  ratio {:>5.2}x",
            row.dirty_readers,
            row.dirty_cells,
            row.sync_ns,
            row.prepare_ns,
            row.sync_vs_prepare_ratio,
        );
    }
    println!(
        "  every-reader over one-reader sync {:>5.2}x",
        summary.speedup
    );
}

criterion_group!(benches, bench_incremental_prepare, emit_json_summary);
criterion_main!(benches);
