//! Property tests pinning the vectorized data plane to its scalar
//! specification: the lane-chunked E-distance kernel, the packed
//! fixed-threshold elimination mask, and the full LANDMARC / VIRE paths
//! must all be **bit-identical** to naive node-at-a-time scalar oracles,
//! for every interpolation kernel and for node counts that leave ragged
//! vector tails. Adaptive elimination, which reads only the tiles that
//! can hold a survivor, must match a map-building reference of the §4.3
//! procedure through all three phases.

use proptest::prelude::*;
use vire_core::elimination::{eliminate, ThresholdMode};
use vire_core::kernels::{edist_sq_into, select_k_smallest};
use vire_core::virtual_grid::VirtualGrid;
use vire_core::{
    InterpolationKernel, Landmarc, LandmarcConfig, Localizer, OwnedPreparedLocalizer,
    PreparedLocalizer, ReferenceRssiMap, SyncOutcome, TrackingReading, Vire, VireConfig,
};
use vire_geom::{GridData, GridIndex, Point2, RegularGrid};

const READERS: usize = 3;
const MAX_SIDE: usize = 6;

fn readers() -> Vec<Point2> {
    vec![
        Point2::new(-1.0, -1.0),
        Point2::new(6.0, -1.0),
        Point2::new(6.0, 6.0),
    ]
}

/// A calibration map over a `side × side` lattice: a smooth log-distance
/// falloff per reader plus one independent perturbation per cell, so no
/// two generated planes share structure.
fn map_with(side: usize, noise: &[f64]) -> ReferenceRssiMap {
    let rs = readers();
    let grid = RegularGrid::square(Point2::ORIGIN, 1.0, side);
    let fields = rs
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let mut flat = 0;
            GridData::from_fn(grid, |_, p| {
                let v =
                    -62.0 - 24.0 * p.distance(*r).max(0.1).log10() + noise[k * side * side + flat];
                flat += 1;
                v
            })
        })
        .collect();
    ReferenceRssiMap::new(grid, rs, fields)
}

/// Map geometry + perturbations + a tracking reading. Sides 3–6 with odd
/// refines give virtual lattices from 25 to 1156 nodes — many of them not
/// multiples of the lane width, so the scalar tail path is always
/// exercised.
fn workload() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
    (3..=MAX_SIDE).prop_flat_map(|side| {
        (
            Just(side),
            prop::collection::vec(-3.0..3.0f64, READERS * side * side),
            prop::collection::vec(-92.0..-58.0f64, READERS),
        )
    })
}

fn all_kernels() -> [InterpolationKernel; 4] {
    [
        InterpolationKernel::Linear,
        InterpolationKernel::PaperLinear,
        InterpolationKernel::CubicSpline,
        InterpolationKernel::Polynomial,
    ]
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The §4.3 adaptive elimination built the obvious way, as the
/// map-building reference for `eliminate`: every probe recounts the joint
/// survivors `∀k: |s_k − θ_k| < t_k` over the whole lattice.
///
/// 1. Start every reader at the largest of the per-reader smallest gaps
///    (at least `min`), plus one step, and grow the common threshold until
///    the intersection is non-empty.
/// 2. Shrink the common threshold while at least `floor` regions survive.
/// 3. With `per_reader`, visit the readers largest proximity-map area
///    first (area at the common threshold, ties in reader order) and
///    shrink each one's threshold while at least `floor` regions survive.
///
/// Returns the per-reader thresholds and the surviving mask.
fn reference_adaptive(
    planes: &[&[f64]],
    thetas: &[f64],
    step: f64,
    min: f64,
    per_reader: bool,
    floor: usize,
) -> (Vec<f64>, Vec<bool>) {
    let nodes = planes[0].len();
    let gap = |k: usize, i: usize| (planes[k][i] - thetas[k]).abs();
    let survives = |i: usize, ts: &[f64]| (0..planes.len()).all(|k| gap(k, i) < ts[k]);
    let count = |ts: &[f64]| (0..nodes).filter(|&i| survives(i, ts)).count();
    let k_readers = planes.len();
    let start = (0..k_readers)
        .map(|k| (0..nodes).map(|i| gap(k, i)).fold(f64::INFINITY, f64::min))
        .fold(0.0f64, f64::max)
        .max(min)
        + step;
    let mut t = start;
    while count(&vec![t; k_readers]) == 0 {
        t += step;
    }
    while t - step >= min && count(&vec![t - step; k_readers]) >= floor {
        t -= step;
    }
    let mut ts = vec![t; k_readers];
    if per_reader {
        let area = |k: usize| (0..nodes).filter(|&i| gap(k, i) < t).count();
        let mut order: Vec<usize> = (0..k_readers).collect();
        order.sort_by_key(|&k| std::cmp::Reverse(area(k)));
        for k in order {
            loop {
                let mut probe = ts.clone();
                probe[k] = ts[k] - step;
                if probe[k] < min || count(&probe) < floor {
                    break;
                }
                ts = probe;
            }
        }
    }
    let mask = (0..nodes).map(|i| survives(i, &ts)).collect();
    (ts, mask)
}

/// A calibration map for the elimination oracle: each reader's smooth
/// log-distance falloff plus noise, rounded to half a dB so the planes
/// tie, with the odd cell set to `0.0` or `-0.0`.
fn tie_map() -> impl Strategy<Value = ReferenceRssiMap> {
    (2usize..=4)
        .prop_flat_map(|side| {
            let cell = (0u8..24, -3.0..3.0f64);
            (
                Just(side),
                prop::collection::vec(cell, READERS * side * side),
            )
        })
        .prop_map(|(side, cells)| {
            let grid = RegularGrid::square(Point2::ORIGIN, 1.0, side);
            let rs = readers();
            let fields = rs
                .iter()
                .zip(cells.chunks_exact(side * side))
                .map(|(r, cells)| {
                    let mut flat = 0;
                    GridData::from_fn(grid, |_, p| {
                        let (kind, noise) = cells[flat];
                        flat += 1;
                        match kind {
                            0 => 0.0,
                            1 => -0.0,
                            _ => {
                                let db = -62.0 - 24.0 * p.distance(*r).max(0.1).log10() + noise;
                                (db * 2.0).round() / 2.0
                            }
                        }
                    })
                })
                .collect();
            ReferenceRssiMap::new(grid, rs, fields)
        })
}

/// A reading's offset from a plane value: none, `-0.0`, up to 1.5 dB, or
/// up to 6 dB (readers that disagree, so phase 1 overshoots and phase 3
/// starts from more survivors than the floor).
fn theta_offset() -> impl Strategy<Value = f64> {
    (0u8..4, -1.5..1.5f64).prop_map(|(kind, d)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => d,
        _ => 4.0 * d,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The LANDMARC E-distance kernel: `out[i] = Σ_k (θ_k − s_k(i))²` in
    /// ascending-k order, bit-identical to the scalar fold — and its sqrt
    /// bit-identical to the historical `signal_distance`.
    #[test]
    fn edist_kernel_is_bit_identical_to_scalar((side, noise, thetas) in workload()) {
        let map = map_with(side, &noise);
        let reading = TrackingReading::new(thetas.clone());
        let nodes = side * side;
        let mut planes = Vec::new();
        for k in 0..READERS {
            planes.extend_from_slice(map.field(k));
        }
        let mut out = Vec::new();
        edist_sq_into(&planes, nodes, &thetas, &mut out);
        for (flat, idx) in map.grid().indices().enumerate() {
            let mut esq = 0.0f64;
            for (k, &theta) in thetas.iter().enumerate() {
                let d = theta - map.rssi(k, idx);
                esq += d * d;
            }
            prop_assert_eq!(out[flat].to_bits(), esq.to_bits(), "node {}", flat);
            // Deferred sqrt equals the historical eager per-node sqrt.
            let e = reading.signal_distance(&map.signal_vector(idx));
            prop_assert_eq!(out[flat].sqrt().to_bits(), e.to_bits(), "sqrt at node {}", flat);
        }
    }

    /// The packed fixed-threshold elimination: the word-wise AND mask must
    /// agree bit-for-bit with the obvious per-node `∀k: gap < t` test, and
    /// come back `None` exactly when the oracle mask is all-false.
    #[test]
    fn fixed_eliminate_mask_matches_scalar_oracle(
        (side, noise, thetas) in workload(),
        refine in 1usize..5,
        threshold in 0.0..10.0f64,
    ) {
        let map = map_with(side, &noise);
        let reading = TrackingReading::new(thetas.clone());
        for kernel in all_kernels() {
            let grid = VirtualGrid::build(&map, refine, kernel);
            let oracle: Vec<bool> = grid
                .grid()
                .indices()
                .map(|idx| {
                    (0..READERS).all(|k| (grid.rssi(k, idx) - thetas[k]).abs() < threshold)
                })
                .collect();
            let result = eliminate(&grid, &reading, ThresholdMode::Fixed(threshold));
            match result {
                None => prop_assert!(oracle.iter().all(|&b| !b), "kernel {:?}", kernel),
                Some(r) => {
                    prop_assert!(oracle.iter().any(|&b| b));
                    let unpacked = r.mask.to_grid_data();
                    prop_assert_eq!(unpacked.as_slice(), oracle.as_slice());
                    prop_assert_eq!(r.candidates(), oracle.iter().filter(|&&b| b).count());
                    prop_assert_eq!(r.thresholds, vec![threshold; READERS]);
                }
            }
        }
    }

    /// The full LANDMARC path over the vector kernels must reproduce a
    /// from-scratch scalar oracle bit-for-bit: scalar E² per node, k-NN
    /// selection by `(E², node index)`, sqrt on the winners only, 1/E²
    /// weights, weighted centroid.
    #[test]
    fn prepared_landmarc_is_bit_identical_to_scalar_oracle(
        (side, noise, thetas) in workload(),
        k_select in 1usize..8,
    ) {
        let map = map_with(side, &noise);
        let reading = TrackingReading::new(thetas.clone());
        prop_assume!(k_select <= side * side);

        // Scalar oracle, node-at-a-time.
        let mut scored: Vec<(f64, u32)> = map
            .grid()
            .indices()
            .enumerate()
            .map(|(flat, idx)| {
                let mut esq = 0.0f64;
                for (k, &theta) in thetas.iter().enumerate() {
                    let d = theta - map.rssi(k, idx);
                    esq += d * d;
                }
                (esq, flat as u32)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        scored.truncate(k_select);
        let distances: Vec<f64> = scored.iter().map(|&(esq, _)| esq.sqrt()).collect();
        let positions: Vec<Point2> = scored
            .iter()
            .map(|&(_, flat)| {
                let idx = map.grid().indices().nth(flat as usize).unwrap();
                map.grid().position(idx)
            })
            .collect();
        // Inline 1/E² weighting with the library's exact-match rule.
        const EXACT: f64 = 1e-12;
        let n_exact = distances.iter().filter(|&&e| e < EXACT).count();
        let weights: Vec<f64> = if n_exact > 0 {
            distances
                .iter()
                .map(|&e| if e < EXACT { 1.0 / n_exact as f64 } else { 0.0 })
                .collect()
        } else {
            let raw: Vec<f64> = distances.iter().map(|&e| 1.0 / (e * e)).collect();
            let total: f64 = raw.iter().sum();
            raw.iter().map(|w| w / total).collect()
        };
        let oracle = Point2::weighted_centroid(&positions, &weights).unwrap();

        let lm = Landmarc::new(LandmarcConfig { k: k_select });
        let prepared = lm.prepare(&map).locate(&reading).unwrap();
        prop_assert_eq!(prepared.position.x.to_bits(), oracle.x.to_bits());
        prop_assert_eq!(prepared.position.y.to_bits(), oracle.y.to_bits());
        // The one-shot path routes through the same core.
        let one_shot = Localizer::locate(&lm, &map, &reading).unwrap();
        prop_assert_eq!(one_shot, prepared);
    }

    /// `select_k_smallest` is exactly a stable sort by value + truncate.
    #[test]
    fn select_k_smallest_matches_stable_sort(
        values in prop::collection::vec(0.0..100.0f64, 1..200),
        k in 0usize..210,
    ) {
        let base: Vec<(f64, u32)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut fast = base.clone();
        select_k_smallest(&mut fast, k);
        let mut slow = base;
        slow.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        slow.truncate(k.min(values.len()));
        prop_assert_eq!(fast, slow);
    }

    /// Every way into VIRE's prepared state must produce identical
    /// estimates for every interpolation kernel: one-shot locate, the
    /// trait-level prepare, and a state first built on a perturbed map and
    /// then synced back to `map` (some readers re-interpolated).
    #[test]
    fn vire_paths_agree_bitwise((side, noise, thetas) in workload()) {
        let map = map_with(side, &noise);
        let reading = TrackingReading::new(thetas);
        // One moved cell on each of two of the three readers: sync
        // re-interpolates those two readers and reports their two cells.
        let mut perturbed = map.clone();
        for k in [0, READERS - 1] {
            let idx = GridIndex::new(k % side, (k + 1) % side);
            perturbed.set_rssi(k, idx, map.rssi(k, idx) + 2.5);
        }
        for kernel in all_kernels() {
            let vire = Vire::new(VireConfig { kernel, refine: 3, ..VireConfig::default() });
            let one_shot = Localizer::locate(&vire, &map, &reading);
            let prepared = Localizer::prepare(&vire, &map).locate(&reading);
            let mut synced = vire.prepare(&perturbed).expect("non-degenerate config");
            prop_assert_eq!(synced.sync(&map, &[]), SyncOutcome::Patched(2));
            let synced = synced.locate(&reading);
            prop_assert_eq!(&one_shot, &prepared, "prepared diverged, kernel {:?}", kernel);
            prop_assert_eq!(&one_shot, &synced, "synced diverged, kernel {:?}", kernel);
        }
    }
}

proptest! {
    // Phase 3 decides a case only when its survivors reach the floor and
    // the reader order matters, so this oracle runs more cases.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Adaptive elimination — phases 1–3, `per_reader` on and off, every
    /// candidate floor from 1 to the node count — matches the
    /// map-building reference to the bit: thresholds and mask, on every
    /// interpolation kernel, over planes with ties and ±0.0 and readings
    /// taken on or near one region's plane values.
    #[test]
    fn adaptive_eliminate_matches_map_building_reference(
        map in tie_map(),
        refine in 1usize..=3,
        pick in any::<usize>(),
        offsets in prop::collection::vec(theta_offset(), READERS),
        (step, min) in (0usize..4, 0usize..3),
        per_reader in any::<bool>(),
        floor_pick in any::<usize>(),
        small_floor in 0u8..4,
    ) {
        let (step, min) = ([0.25, 1.0, 2.0, 4.0][step], [0.0, 0.05, 0.5][min]);
        for kernel in all_kernels() {
            let vg = VirtualGrid::build(&map, refine, kernel);
            let nodes = vg.tag_count();
            // The tag sits on (or just off, reader by reader) one region.
            let fields: Vec<Vec<f64>> = (0..READERS).map(|k| vg.field(k)).collect();
            let thetas: Vec<f64> = (0..READERS)
                .map(|k| fields[k][pick % nodes] + offsets[k])
                .collect();
            // Mostly a small floor, which the survivors can exceed.
            let floor = 1 + floor_pick % if small_floor > 0 { nodes.min(4) } else { nodes };
            let mode = ThresholdMode::Adaptive { step, min, per_reader, min_candidates: floor };
            let planes: Vec<&[f64]> = fields.iter().map(Vec::as_slice).collect();
            let (ts, mask) = reference_adaptive(&planes, &thetas, step, min, per_reader, floor);
            let r = eliminate(&vg, &TrackingReading::new(thetas), mode)
                .expect("adaptive elimination keeps a region");
            prop_assert_eq!(bits(&r.thresholds), bits(&ts), "kernel {:?}, floor {}", kernel, floor);
            let unpacked = r.mask.to_grid_data();
            prop_assert_eq!(unpacked.as_slice(), mask.as_slice(), "kernel {:?}", kernel);
        }
    }
}

proptest! {
    // The oracle recounts the whole lattice per probe, so the serving
    // lattices run fewer cases, one kernel each.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same comparison at the lattices the server runs: a 4 × 4 map
    /// at refine 10 (31 × 31 nodes, 64 tiles with 3-wide edge tiles) and
    /// refine 20 (61 × 61 nodes, 256 tiles), with 1 to 6 readers.
    #[test]
    fn adaptive_eliminate_matches_map_building_reference_at_serving_lattices(
        k_readers in 1usize..=6,
        refine in (0usize..2).prop_map(|i| [10, 20][i]),
        kernel in 0usize..4,
        cells in prop::collection::vec((0u8..24, -3.0..3.0f64), 6 * 16),
        pick in any::<usize>(),
        offsets in prop::collection::vec(theta_offset(), 6),
        (step, min) in (0usize..4, 0usize..3),
        per_reader in any::<bool>(),
        floor_pick in any::<usize>(),
        small_floor in 0u8..4,
    ) {
        let (step, min) = ([0.25, 1.0, 2.0, 4.0][step], [0.0, 0.05, 0.5][min]);
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let rs: Vec<Point2> = (0..k_readers)
            .map(|k| Point2::new(-1.0 + 1.5 * k as f64, if k % 2 == 0 { -1.0 } else { 4.0 }))
            .collect();
        let fields = rs
            .iter()
            .zip(cells.chunks_exact(16))
            .map(|(r, cells)| {
                let mut flat = 0;
                GridData::from_fn(grid, |_, p| {
                    let (kind, noise) = cells[flat];
                    flat += 1;
                    match kind {
                        0 => 0.0,
                        1 => -0.0,
                        _ => {
                            let db = -62.0 - 24.0 * p.distance(*r).max(0.1).log10() + noise;
                            (db * 2.0).round() / 2.0
                        }
                    }
                })
            })
            .collect();
        let map = ReferenceRssiMap::new(grid, rs, fields);
        let kernel = all_kernels()[kernel];
        let vg = VirtualGrid::build(&map, refine, kernel);
        let nodes = vg.tag_count();
        let fields: Vec<Vec<f64>> = (0..k_readers).map(|k| vg.field(k)).collect();
        let thetas: Vec<f64> = (0..k_readers)
            .map(|k| fields[k][pick % nodes] + offsets[k])
            .collect();
        let floor = 1 + floor_pick % if small_floor > 0 { nodes.min(4) } else { nodes };
        let mode = ThresholdMode::Adaptive { step, min, per_reader, min_candidates: floor };
        let planes: Vec<&[f64]> = fields.iter().map(Vec::as_slice).collect();
        let (ts, mask) = reference_adaptive(&planes, &thetas, step, min, per_reader, floor);
        let r = eliminate(&vg, &TrackingReading::new(thetas), mode)
            .expect("adaptive elimination keeps a region");
        prop_assert_eq!(bits(&r.thresholds), bits(&ts), "kernel {:?}, floor {}", kernel, floor);
        let unpacked = r.mask.to_grid_data();
        prop_assert_eq!(unpacked.as_slice(), mask.as_slice(), "kernel {:?}", kernel);
    }
}
