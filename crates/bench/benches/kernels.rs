//! VIRE's elimination, LANDMARC's E-distance, and bool-vs-bitset masks.
//!
//! Measures VIRE's tile-pruned §4.3 elimination (the locate hot loop)
//! against the dense elimination it replaced, one max-gap pass over every
//! node; the LANDMARC E-distance plane against a node-at-a-time scalar
//! baseline; and the packed `u64` elimination mask against the historical
//! `Vec<bool>` build. In bench mode a machine-readable summary goes to
//! `target/kernels.json` (collected into `BENCH_kernels.json` by
//! `scripts/collect_bench.sh`).
//!
//! Every timed pair is also asserted bit-identical before timing: the
//! speedups below are for *the same answer*, not an approximation.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use vire_bench::fixture;
use vire_core::kernels::edist_sq_into;
use vire_core::{
    Landmarc, PreparedLocalizer, PreparedVire, ReferenceRssiMap, ThresholdMode, TrackingReading,
};
use vire_geom::{bitgrid, Point2};

/// Buffers of the dense elimination, kept across calls as production
/// keeps its scratch.
#[derive(Default)]
struct DenseBuffers {
    maxgap: Vec<f64>,
    mins: Vec<f64>,
    quantile: Vec<f64>,
    list: Vec<usize>,
    mask: Vec<u64>,
}

/// The dense adaptive elimination tile pruning replaced: one lane-chunked
/// pass takes every node's max-gap `max_k |s_k − θ_k|` and each reader's
/// smallest gap, then phases 1–3 probe the whole max-gap plane. Returns
/// the mask words and thresholds, owned, as `PreparedVire::eliminate`
/// does.
fn dense_eliminate(
    planes: &[f64],
    nodes: usize,
    reading: &TrackingReading,
    mode: ThresholdMode,
    buf: &mut DenseBuffers,
) -> (Vec<u64>, Vec<f64>) {
    let ThresholdMode::Adaptive {
        step,
        min,
        per_reader,
        min_candidates,
    } = mode
    else {
        unreachable!("the fixture runs the adaptive mode")
    };
    const LANES: usize = 8;
    let k_readers = reading.reader_count();
    let (maxgap, mins) = (&mut buf.maxgap, &mut buf.mins);
    maxgap.clear();
    maxgap.resize(nodes, 0.0);
    mins.clear();
    for (k, &theta) in reading.rssi().iter().enumerate() {
        let mut acc = maxgap.chunks_exact_mut(LANES);
        let mut vals = planes[k * nodes..(k + 1) * nodes].chunks_exact(LANES);
        let mut lo = [f64::INFINITY; LANES];
        for (a, s) in (&mut acc).zip(&mut vals) {
            for ((a, l), &s) in a.iter_mut().zip(&mut lo).zip(s) {
                let g = (s - theta).abs();
                *a = if g > *a { g } else { *a };
                *l = if g < *l { g } else { *l };
            }
        }
        let mut m = lo.iter().fold(f64::INFINITY, |m, &l| m.min(l));
        for (a, &s) in acc.into_remainder().iter_mut().zip(vals.remainder()) {
            let g = (s - theta).abs();
            *a = if g > *a { g } else { *a };
            m = m.min(g);
        }
        mins.push(m);
    }
    let floor = min_candidates.max(1).min(nodes);
    let mut t = mins.iter().copied().fold(0.0f64, f64::max).max(min) + step;
    let tightest = maxgap.iter().fold(f64::INFINITY, |m, &g| m.min(g));
    while tightest >= t {
        t += step;
    }
    let count = maxgap.iter().filter(|&&g| g < t - step).count();
    if t - step >= min && count >= floor {
        t -= step;
        buf.quantile.clear();
        buf.quantile.extend_from_slice(maxgap);
        let (_, &mut q, _) = buf
            .quantile
            .select_nth_unstable_by(floor - 1, |a, b| a.partial_cmp(b).unwrap());
        while t - step >= min && q < t - step {
            t -= step;
        }
    }
    let mut thresholds = vec![t; k_readers];
    buf.list.clear();
    buf.list.extend((0..nodes).filter(|&i| maxgap[i] < t));
    let gap = |k: usize, i: usize| (planes[k * nodes + i] - reading.at(k)).abs();
    if per_reader && buf.list.len() >= floor {
        let area = |k: usize| (0..nodes).filter(|&i| gap(k, i) < t).count();
        let mut order: Vec<usize> = (0..k_readers).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(area(k)));
        for k in order {
            buf.quantile.clear();
            buf.quantile.extend(buf.list.iter().map(|&i| gap(k, i)));
            let (_, &mut qk, _) = buf
                .quantile
                .select_nth_unstable_by(floor - 1, |a, b| a.partial_cmp(b).unwrap());
            while thresholds[k] - step >= min && qk < thresholds[k] - step {
                thresholds[k] -= step;
            }
            let keep = thresholds[k];
            buf.list.retain(|&i| gap(k, i) < keep);
        }
    }
    bitgrid::ensure_words(&mut buf.mask, nodes);
    buf.mask.fill(0);
    for &i in &buf.list {
        bitgrid::set_bit(&mut buf.mask, i);
    }
    (buf.mask.clone(), thresholds)
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

/// The VIRE state prepared on the Env2 map at the paper's default
/// refine = 10, and its threshold mode with the candidate floor resolved
/// (n² = 100, as `PreparedVire` resolves the auto floor).
fn prepared_vire() -> (PreparedVire, ThresholdMode) {
    let (map, _) = fixture();
    let prepared = vire_core::Vire::default()
        .prepare(&map)
        .expect("refine > 0");
    let mode = ThresholdMode::Adaptive {
        step: 0.25,
        min: 0.05,
        per_reader: true,
        min_candidates: 100,
    };
    (prepared, mode)
}

/// Reader-major planes of the Env2 virtual grid at the paper's default
/// refine = 10, plus the reading's thetas.
fn virtual_planes() -> (Vec<f64>, usize, Vec<f64>) {
    let (_, tags) = fixture();
    let (prepared, _) = prepared_vire();
    let grid = prepared.grid();
    let planes = (0..grid.reader_count()).flat_map(|k| grid.field(k));
    (
        planes.collect(),
        grid.tag_count(),
        tags[0].1.rssi().to_vec(),
    )
}

fn bench_kernels(c: &mut Criterion) {
    let (planes, nodes, thetas) = virtual_planes();
    let (prepared, mode) = prepared_vire();
    let reading = TrackingReading::new(thetas.clone());
    let mut group = c.benchmark_group("kernels");
    group.bench_function("eliminate_tiled", |b| {
        b.iter(|| prepared.eliminate(black_box(&reading)))
    });
    let mut dense = DenseBuffers::default();
    group.bench_function("eliminate_dense", |b| {
        b.iter(|| {
            dense_eliminate(
                black_box(&planes),
                nodes,
                black_box(&reading),
                mode,
                &mut dense,
            )
        })
    });
    let mut out = Vec::new();
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

/// One baseline-vs-optimized pair in the JSON summary: `scalar_ns` is
/// the baseline (the dense elimination, or a scalar loop), `vector_ns`
/// the path production runs.
#[derive(Serialize)]
struct SummaryRow {
    series: String,
    nodes: usize,
    scalar_ns: f64,
    vector_ns: f64,
    speedup: f64,
}

/// A pair of builds that cost about the same, reported as a ratio the
/// speedup gate does not read (its field is not named `speedup`).
#[derive(Serialize)]
struct RatioRow {
    series: String,
    nodes: usize,
    bool_ns: f64,
    bitset_ns: f64,
    bool_vs_bitset_ratio: f64,
}

/// The `target/kernels.json` document.
#[derive(Serialize)]
struct Summary {
    group: String,
    fixture: String,
    lanes: usize,
    rows: Vec<SummaryRow>,
    ratios: Vec<RatioRow>,
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

    // VIRE's single-tag locate hot loop: adaptive elimination of one
    // reading, tile-pruned (production) against the dense max-gap pass
    // over every node it replaced, each returning an owned mask and
    // thresholds. `scalar_ns` is the dense side, `vector_ns` the pruned.
    let (prepared, mode) = prepared_vire();
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut dense = DenseBuffers::default();
    for (_, r) in &tags {
        let pruned = prepared.eliminate(r).expect("adaptive keeps a region");
        let (mask, thresholds) = dense_eliminate(&planes, nodes, r, mode, &mut dense);
        assert_eq!(
            (pruned.mask.words(), bits(&pruned.thresholds)),
            (mask.as_slice(), bits(&thresholds)),
            "tile-pruned elimination must be bit-identical to the dense one"
        );
    }
    let scalar_ns = time_ns(|| {
        dense_eliminate(
            black_box(&planes),
            nodes,
            black_box(reading),
            mode,
            &mut dense,
        )
    });
    let vector_ns = time_ns(|| prepared.eliminate(black_box(reading)));
    rows.push(SummaryRow {
        series: "locate_hot_loop_maxgap".into(),
        nodes,
        scalar_ns,
        vector_ns,
        speedup: scalar_ns / vector_ns,
    });

    // LANDMARC's distance plane: scalar (eager per-node sqrt) vs the
    // squared-distance kernel with the sqrt deferred to the winners.
    let (mut vector, mut scalar) = (Vec::new(), Vec::new());
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
    // Both are a compare per node and reader; the packed build is about
    // as fast, so this is a ratio, not a gated speedup.
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
    let ratios = vec![RatioRow {
        series: "fixed_mask_build_bool_vs_bitset".into(),
        nodes,
        bool_ns: scalar_ns,
        bitset_ns: vector_ns,
        bool_vs_bitset_ratio: scalar_ns / vector_ns,
    }];

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
        ratios,
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
    for row in &summary.ratios {
        println!(
            "  {:<26} {:>6} nodes: bool {:>10.0} ns  bitset {:>10.0} ns  ratio {:>5.2}",
            row.series, row.nodes, row.bool_ns, row.bitset_ns, row.bool_vs_bitset_ratio,
        );
    }
}

criterion_group!(benches, bench_kernels, emit_json_summary);
criterion_main!(benches);
