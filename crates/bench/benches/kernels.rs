//! Scalar-vs-vector data-plane kernels and bool-vs-bitset masks.
//!
//! Measures the two dense per-reading sweeps that dominate a prepared
//! locate — the §4.3 max-gap plane (VIRE's hot loop) and the LANDMARC
//! E-distance — against node-at-a-time scalar baselines, plus the packed
//! `u64` elimination mask against the historical `Vec<bool>` build. In
//! bench mode a machine-readable summary goes to `target/kernels.json`
//! (collected into `BENCH_kernels.json` by `scripts/collect_bench.sh`).
//!
//! Every timed pair is also asserted bit-identical before timing: the
//! speedups below are for *the same answer*, not an approximation.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use vire_bench::fixture;
use vire_core::kernels::{edist_sq_into, max_gap_into};
use vire_core::{Landmarc, PreparedLocalizer, ReferenceRssiMap, TrackingReading};
use vire_geom::{bitgrid, Point2};

/// Node-at-a-time scalar max-gap: the loop shape the lane-chunked kernel
/// replaced (readers inner, stride-`nodes` plane access per node), plus
/// each reader's smallest gap folded over its plane, so both sides do the
/// kernel's work.
fn scalar_max_gap(
    planes: &[f64],
    nodes: usize,
    thetas: &[f64],
    out: &mut Vec<f64>,
    mins: &mut Vec<f64>,
) {
    out.clear();
    out.resize(nodes, 0.0);
    for (i, m) in out.iter_mut().enumerate() {
        for (k, &theta) in thetas.iter().enumerate() {
            let g = (planes[k * nodes + i] - theta).abs();
            if g > *m {
                *m = g;
            }
        }
    }
    mins.clear();
    mins.extend(thetas.iter().enumerate().map(|(k, &theta)| {
        planes[k * nodes..(k + 1) * nodes]
            .iter()
            .fold(f64::INFINITY, |m, &s| m.min((s - theta).abs()))
    }));
}

/// Node-at-a-time scalar E-distance with the historical eager per-node
/// sqrt.
fn scalar_edist(planes: &[f64], nodes: usize, thetas: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.resize(nodes, 0.0);
    for (i, e) in out.iter_mut().enumerate() {
        let mut esq = 0.0f64;
        for (k, &theta) in thetas.iter().enumerate() {
            let d = theta - planes[k * nodes + i];
            esq += d * d;
        }
        *e = esq.sqrt();
    }
}

/// Historical `Vec<bool>` fixed-threshold mask: per-reader compare, AND,
/// then a count pass.
fn bool_mask(planes: &[f64], nodes: usize, thetas: &[f64], t: f64, mask: &mut Vec<bool>) -> usize {
    mask.clear();
    mask.resize(nodes, true);
    for (k, &theta) in thetas.iter().enumerate() {
        let plane = &planes[k * nodes..(k + 1) * nodes];
        for (m, &s) in mask.iter_mut().zip(plane) {
            *m &= (s - theta).abs() < t;
        }
    }
    mask.iter().filter(|&&b| b).count()
}

/// Packed bitset fixed-threshold mask: word-wise compare + AND + popcount.
fn bitset_mask(
    planes: &[f64],
    nodes: usize,
    thetas: &[f64],
    t: f64,
    words: &mut Vec<u64>,
) -> usize {
    bitgrid::ensure_words(words, nodes);
    bitgrid::fill_ones(words, nodes);
    for (k, &theta) in thetas.iter().enumerate() {
        let plane = &planes[k * nodes..(k + 1) * nodes];
        for (word, chunk) in words.iter_mut().zip(plane.chunks(bitgrid::WORD_BITS)) {
            let mut bits = 0u64;
            for (b, &s) in chunk.iter().enumerate() {
                bits |= u64::from((s - theta).abs() < t) << b;
            }
            *word &= bits;
        }
    }
    bitgrid::popcount(words)
}

/// K-map intersection + survivor count over prebuilt `Vec<bool>` masks
/// (the shape of the historical `proximity::intersect` + `count_true`).
fn bool_and_count(maps: &[Vec<bool>], acc: &mut Vec<bool>) -> usize {
    acc.clear();
    acc.extend_from_slice(&maps[0]);
    for m in &maps[1..] {
        for (a, &b) in acc.iter_mut().zip(m) {
            *a &= b;
        }
    }
    acc.iter().filter(|&&b| b).count()
}

/// The same intersection over packed words: 64 regions per AND, popcount
/// for the survivor count.
fn bitset_and_count(maps: &[Vec<u64>], acc: &mut Vec<u64>) -> usize {
    acc.clear();
    acc.extend_from_slice(&maps[0]);
    for m in &maps[1..] {
        for (a, &b) in acc.iter_mut().zip(m) {
            *a &= b;
        }
    }
    bitgrid::popcount(acc)
}

/// The pre-kernel LANDMARC locate: allocate, eager sqrt per node, full
/// stable sort, truncate.
fn scalar_landmarc_locate(
    map: &ReferenceRssiMap,
    reading: &TrackingReading,
    k_select: usize,
) -> Point2 {
    let mut scored: Vec<(f64, Point2)> = Landmarc::signal_distances(map, reading);
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    scored.truncate(k_select);
    const EXACT: f64 = 1e-12;
    let n_exact = scored.iter().filter(|&&(e, _)| e < EXACT).count();
    let weights: Vec<f64> = if n_exact > 0 {
        scored
            .iter()
            .map(|&(e, _)| if e < EXACT { 1.0 / n_exact as f64 } else { 0.0 })
            .collect()
    } else {
        let raw: Vec<f64> = scored.iter().map(|&(e, _)| 1.0 / (e * e)).collect();
        let total: f64 = raw.iter().sum();
        raw.iter().map(|w| w / total).collect()
    };
    let positions: Vec<Point2> = scored.iter().map(|&(_, p)| p).collect();
    Point2::weighted_centroid(&positions, &weights).expect("non-degenerate fixture")
}

/// Reader-major planes of the Env2 virtual grid at the paper's default
/// refine = 10, plus the reading's thetas.
fn virtual_planes() -> (Vec<f64>, usize, Vec<f64>) {
    let (map, tags) = fixture();
    let (_, reading) = &tags[0];
    let vire = vire_core::Vire::default();
    let prepared = vire.prepare(&map).expect("refine > 0");
    let nodes = prepared.grid().tag_count();
    (prepared.planes().to_vec(), nodes, reading.rssi().to_vec())
}

fn bench_kernels(c: &mut Criterion) {
    let (planes, nodes, thetas) = virtual_planes();
    let mut group = c.benchmark_group("kernels");
    let (mut out, mut mins) = (Vec::new(), Vec::new());
    group.bench_function("maxgap_vector", |b| {
        b.iter(|| {
            max_gap_into(
                black_box(&planes),
                nodes,
                black_box(&thetas),
                &mut out,
                &mut mins,
            )
        })
    });
    group.bench_function("maxgap_scalar", |b| {
        b.iter(|| {
            scalar_max_gap(
                black_box(&planes),
                nodes,
                black_box(&thetas),
                &mut out,
                &mut mins,
            )
        })
    });
    group.bench_function("edist_sq_vector", |b| {
        b.iter(|| edist_sq_into(black_box(&planes), nodes, black_box(&thetas), &mut out))
    });
    let mut words = Vec::new();
    group.bench_function("mask_bitset", |b| {
        b.iter(|| {
            bitset_mask(
                black_box(&planes),
                nodes,
                black_box(&thetas),
                3.0,
                &mut words,
            )
        })
    });
    group.finish();
}

/// One scalar-vs-vector pair in the JSON summary.
#[derive(Serialize)]
struct SummaryRow {
    series: String,
    nodes: usize,
    scalar_ns: f64,
    vector_ns: f64,
    speedup: f64,
}

/// The `target/kernels.json` document.
#[derive(Serialize)]
struct Summary {
    group: String,
    fixture: String,
    lanes: usize,
    rows: Vec<SummaryRow>,
}

/// Mean ns per call of `f` over a fixed wall-clock budget.
fn time_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    let budget = std::time::Duration::from_millis(250);
    // Warm-up sizes the batch so clock reads don't dominate.
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

/// Times scalar vs vector directly and emits `target/kernels.json`. Only
/// runs under `cargo bench` (`--bench` flag): the criterion bodies above
/// already smoke-test the code under `cargo test`.
fn emit_json_summary(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let (planes, nodes, thetas) = virtual_planes();
    let (map, tags) = fixture();
    let (_, reading) = &tags[0];
    let mut rows = Vec::new();

    // VIRE's single-tag locate hot loop: the max-gap plane over the full
    // virtual grid and each reader's smallest gap, recomputed on every
    // reading.
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let (mut vector, mut vector_mins) = (Vec::new(), Vec::new());
    let (mut scalar, mut scalar_mins) = (Vec::new(), Vec::new());
    max_gap_into(&planes, nodes, &thetas, &mut vector, &mut vector_mins);
    scalar_max_gap(&planes, nodes, &thetas, &mut scalar, &mut scalar_mins);
    assert_eq!(
        bits(&vector),
        bits(&scalar),
        "max-gap kernel must be bit-identical to the scalar fold"
    );
    assert_eq!(
        bits(&vector_mins),
        bits(&scalar_mins),
        "per-reader minima must be bit-identical to the scalar fold"
    );
    let scalar_ns = time_ns(|| {
        scalar_max_gap(
            black_box(&planes),
            nodes,
            black_box(&thetas),
            &mut scalar,
            &mut scalar_mins,
        )
    });
    let vector_ns = time_ns(|| {
        max_gap_into(
            black_box(&planes),
            nodes,
            black_box(&thetas),
            &mut vector,
            &mut vector_mins,
        )
    });
    rows.push(SummaryRow {
        series: "locate_hot_loop_maxgap".into(),
        nodes,
        scalar_ns,
        vector_ns,
        speedup: scalar_ns / vector_ns,
    });

    // LANDMARC's distance plane: scalar (eager per-node sqrt) vs the
    // squared-distance kernel with the sqrt deferred to the winners.
    edist_sq_into(&planes, nodes, &thetas, &mut vector);
    scalar_edist(&planes, nodes, &thetas, &mut scalar);
    for (v, s) in vector.iter().zip(&scalar) {
        assert_eq!(v.sqrt().to_bits(), s.to_bits(), "√(Σd²) must bit-match");
    }
    let scalar_ns =
        time_ns(|| scalar_edist(black_box(&planes), nodes, black_box(&thetas), &mut scalar));
    let vector_ns =
        time_ns(|| edist_sq_into(black_box(&planes), nodes, black_box(&thetas), &mut vector));
    rows.push(SummaryRow {
        series: "edist_plane".into(),
        nodes,
        scalar_ns,
        vector_ns,
        speedup: scalar_ns / vector_ns,
    });

    // Fixed-threshold elimination mask: Vec<bool> build vs packed words.
    let mut bools = Vec::new();
    let mut words = Vec::new();
    assert_eq!(
        bool_mask(&planes, nodes, &thetas, 3.0, &mut bools),
        bitset_mask(&planes, nodes, &thetas, 3.0, &mut words),
        "popcount must equal the bool count"
    );
    let scalar_ns = time_ns(|| {
        bool_mask(
            black_box(&planes),
            nodes,
            black_box(&thetas),
            3.0,
            &mut bools,
        )
    });
    let vector_ns = time_ns(|| {
        bitset_mask(
            black_box(&planes),
            nodes,
            black_box(&thetas),
            3.0,
            &mut words,
        )
    });
    rows.push(SummaryRow {
        series: "fixed_mask_build_bool_vs_bitset".into(),
        nodes,
        scalar_ns,
        vector_ns,
        speedup: scalar_ns / vector_ns,
    });

    // K-reader intersection + survivor count over prebuilt per-reader
    // masks: the operation the packed representation turns into word-wise
    // AND + popcount.
    let k_readers = thetas.len();
    let per_reader_bools: Vec<Vec<bool>> = (0..k_readers)
        .map(|k| {
            planes[k * nodes..(k + 1) * nodes]
                .iter()
                .map(|&s| (s - thetas[k]).abs() < 3.0)
                .collect()
        })
        .collect();
    let per_reader_words: Vec<Vec<u64>> = per_reader_bools
        .iter()
        .map(|bs| {
            let mut w = vec![0u64; bitgrid::words_for(nodes)];
            for (i, &b) in bs.iter().enumerate() {
                if b {
                    bitgrid::set_bit(&mut w, i);
                }
            }
            w
        })
        .collect();
    let mut acc_bools = Vec::new();
    let mut acc_words = Vec::new();
    assert_eq!(
        bool_and_count(&per_reader_bools, &mut acc_bools),
        bitset_and_count(&per_reader_words, &mut acc_words),
        "intersection survivor counts must agree"
    );
    let scalar_ns = time_ns(|| bool_and_count(black_box(&per_reader_bools), &mut acc_bools));
    let vector_ns = time_ns(|| bitset_and_count(black_box(&per_reader_words), &mut acc_words));
    rows.push(SummaryRow {
        series: "mask_and_popcount_bool_vs_bitset".into(),
        nodes,
        scalar_ns,
        vector_ns,
        speedup: scalar_ns / vector_ns,
    });

    // End-to-end single-tag LANDMARC locate: the historical allocating
    // sort path vs the prepared kernel path (same estimate, asserted).
    let lm = Landmarc::default();
    let prepared_lm = Landmarc::prepare(&lm, &map);
    let coarse_nodes = map.grid().node_count();
    let kernel_est = prepared_lm.locate(reading).unwrap();
    let scalar_est = scalar_landmarc_locate(&map, reading, lm.k());
    assert_eq!(
        (
            kernel_est.position.x.to_bits(),
            kernel_est.position.y.to_bits()
        ),
        (scalar_est.x.to_bits(), scalar_est.y.to_bits()),
        "LANDMARC estimates must be bit-identical"
    );
    let scalar_ns = time_ns(|| scalar_landmarc_locate(black_box(&map), black_box(reading), lm.k()));
    let vector_ns = time_ns(|| prepared_lm.locate(black_box(reading)).unwrap());
    rows.push(SummaryRow {
        series: "landmarc_locate".into(),
        nodes: coarse_nodes,
        scalar_ns,
        vector_ns,
        speedup: scalar_ns / vector_ns,
    });

    let summary = Summary {
        group: "kernels".into(),
        fixture: "env2 seed 42, Fig. 2(a) tag 1, refine 10".into(),
        lanes: vire_core::kernels::LANES,
        rows,
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    let path = format!("{out}/kernels.json");
    std::fs::create_dir_all(out).expect("target dir");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&path, body + "\n").expect("write summary");
    println!("kernels summary -> {path}");
    for row in &summary.rows {
        println!(
            "  {:<26} {:>6} nodes: scalar {:>10.0} ns  vector {:>10.0} ns  speedup {:>5.1}x",
            row.series, row.nodes, row.scalar_ns, row.vector_ns, row.speedup,
        );
    }
}

criterion_group!(benches, bench_kernels, emit_json_summary);
criterion_main!(benches);
