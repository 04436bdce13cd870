//! Lane-chunked data-plane kernels for the dense per-node sweeps.
//!
//! The per-reading hot path is dominated by two full passes over the
//! virtual grid: the §4.3 max-gap plane (`max_k |s_k − θ_k|` per node)
//! and the LANDMARC E-distance (`Σ_k (θ_k − s_k)²` per node). Both
//! kernels here vectorize **across nodes** over the reader-major
//! prepared planes (`planes[k * nodes + flat]`): each loop body works on
//! a fixed-width `[f64; LANES]` block of consecutive nodes, which the
//! compiler autovectorizes without SIMD intrinsics or new dependencies.
//!
//! Bit-identity with the scalar reference is structural, not accidental:
//! every lane holds exactly one node, and the reader loop visits
//! `k = 0..K` in ascending order for every lane — so each node sees the
//! same operations in the same order as a scalar node-at-a-time loop
//! (`for k { acc = op(acc, gap_k) }`). Reordering happens only *across*
//! nodes, which share no accumulator. The max is accumulated with a
//! plain `if g > acc` compare (order-deterministic for finite inputs)
//! and the sum in ascending-`k` order, matching the scalar oracles in
//! `tests/kernels.rs` to the last bit.
//!
//! The max-gap pass also yields each reader's smallest gap (phase 1's
//! starting point). It runs readers on the outside, one plane at a time
//! over the node blocks, so each reader's minimum lives in a local lane
//! array; a node-block-outer loop has to keep its per-reader minima in
//! memory, and measured 30–50% slower as a kernel. A minimum over a fixed
//! set of gaps does not depend on the order it is taken in, so the lanes
//! reduce to the scalar fold's bits.

/// Nodes processed per vector block. 8 × f64 fills one AVX-512 register
/// or two AVX2 registers; the tail (`nodes % LANES`) runs node-at-a-time
/// with the identical per-node operation order.
pub const LANES: usize = 8;

/// Per-node largest gap over readers, `out[i] = max_k |planes[k][i] − thetas[k]|`,
/// and per-reader smallest gap, `mins[k] = min_i |planes[k][i] − thetas[k]|`,
/// from one pass over the planes.
///
/// `planes` is reader-major (`planes[k * nodes + i]`). Readers run on the
/// outside, ascending, so every node still folds its gaps in ascending
/// `k` from a zero start: gaps are ≥ 0, so the zero start is exact for
/// `K ≥ 1`, and with `K = 0` the plane is all zeros, matching the scalar
/// fold. Each reader's minimum is kept in a `LANES`-wide local while its
/// plane streams past; the minimum of a fixed set of gaps is exact and
/// order-independent, so it equals a sequential fold to the bit (`+∞`
/// for an empty plane).
///
/// # Panics
/// Debug-asserts `planes.len() == thetas.len() * nodes`.
pub fn max_gap_into(
    planes: &[f64],
    nodes: usize,
    thetas: &[f64],
    out: &mut Vec<f64>,
    mins: &mut Vec<f64>,
) {
    debug_assert_eq!(planes.len(), thetas.len() * nodes);
    out.clear();
    out.resize(nodes, 0.0);
    mins.clear();
    for (k, &theta) in thetas.iter().enumerate() {
        let mut acc = out.chunks_exact_mut(LANES);
        let mut vals = planes[k * nodes..(k + 1) * nodes].chunks_exact(LANES);
        let mut lo = [f64::INFINITY; LANES];
        for (a, s) in (&mut acc).zip(&mut vals) {
            let a: &mut [f64; LANES] = a.try_into().expect("block is LANES wide");
            let s: &[f64; LANES] = s.try_into().expect("block is LANES wide");
            let g = s.map(|s| (s - theta).abs());
            // Selects rather than conditional stores, so the blocks
            // vectorize; each is the same compare as the tail's `if`.
            for (a, &g) in a.iter_mut().zip(&g) {
                *a = if g > *a { g } else { *a };
            }
            for (l, &g) in lo.iter_mut().zip(&g) {
                *l = if g < *l { g } else { *l };
            }
        }
        let mut m = lo.iter().fold(f64::INFINITY, |m, &l| m.min(l));
        for (a, &s) in acc.into_remainder().iter_mut().zip(vals.remainder()) {
            let g = (s - theta).abs();
            if g > *a {
                *a = g;
            }
            if g < m {
                m = g;
            }
        }
        mins.push(m);
    }
}

/// Per-node squared E-distance: `out[i] = Σ_k (thetas[k] − planes[k][i])²`,
/// summed in ascending-`k` order per node (the same order as the scalar
/// `signal_distance` fold, so `out[i].sqrt()` is bit-identical to the
/// historical per-node `Σ (θ−s)²  → sqrt` pipeline).
///
/// The square root is deliberately *not* taken here: selection by
/// squared distance is exact (`sqrt` is monotone), so k-NN callers defer
/// it to the few winners.
///
/// # Panics
/// Debug-asserts `planes.len() == thetas.len() * nodes`.
pub fn edist_sq_into(planes: &[f64], nodes: usize, thetas: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(planes.len(), thetas.len() * nodes);
    out.clear();
    out.resize(nodes, 0.0);
    let lane_end = nodes - nodes % LANES;
    let mut base = 0;
    while base < lane_end {
        let mut acc = [0.0f64; LANES];
        for (k, &theta) in thetas.iter().enumerate() {
            let block: &[f64; LANES] = planes[k * nodes + base..k * nodes + base + LANES]
                .try_into()
                .expect("block is LANES wide");
            for (a, &s) in acc.iter_mut().zip(block) {
                let d = theta - s;
                *a += d * d;
            }
        }
        out[base..base + LANES].copy_from_slice(&acc);
        base += LANES;
    }
    for (i, e) in out.iter_mut().enumerate().skip(lane_end) {
        for (k, &theta) in thetas.iter().enumerate() {
            let d = theta - planes[k * nodes + i];
            *e += d * d;
        }
    }
}

/// Moves the `k` smallest entries of `scored` — ordered by
/// `(value, index)` — to the front in ascending order and truncates the
/// rest. Equivalent to a full stable sort by value followed by
/// `truncate(k)` (the index tie-break reproduces stability), but costs
/// O(n + k log k) via `select_nth_unstable`.
///
/// Values must be finite (the prepared planes and readings are); the
/// comparator uses `total_cmp`, which agrees with the numeric order on
/// finite floats.
pub fn select_k_smallest(scored: &mut Vec<(f64, u32)>, k: usize) {
    let cmp = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1));
    if k < scored.len() {
        scored.select_nth_unstable_by(k, cmp);
        scored.truncate(k);
    }
    scored.sort_unstable_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Node-at-a-time max-gap fold, readers inner.
    fn scalar_max_gap(planes: &[f64], nodes: usize, thetas: &[f64]) -> Vec<u64> {
        let max = (0..nodes).map(|i| {
            let mut m = 0.0f64;
            for (k, &theta) in thetas.iter().enumerate() {
                let g = (planes[k * nodes + i] - theta).abs();
                if g > m {
                    m = g;
                }
            }
            m
        });
        bits(&max.collect::<Vec<_>>())
    }

    /// Each reader's smallest gap, folded sequentially over its plane.
    fn scalar_min_gaps(planes: &[f64], nodes: usize, thetas: &[f64]) -> Vec<u64> {
        let mins = thetas.iter().enumerate().map(|(k, &theta)| {
            planes[k * nodes..(k + 1) * nodes]
                .iter()
                .fold(f64::INFINITY, |m, &s| m.min((s - theta).abs()))
        });
        bits(&mins.collect::<Vec<_>>())
    }

    fn planes_fixture(k_readers: usize, nodes: usize) -> (Vec<f64>, Vec<f64>) {
        let planes: Vec<f64> = (0..k_readers * nodes)
            .map(|i| -60.0 - (i as f64 * 0.37).sin() * 15.0)
            .collect();
        let thetas: Vec<f64> = (0..k_readers).map(|k| -70.0 + k as f64 * 1.3).collect();
        (planes, thetas)
    }

    #[test]
    fn max_gap_matches_scalar_fold_on_tail_sizes() {
        for nodes in [1, 7, 8, 9, 63, 64, 65] {
            let (planes, thetas) = planes_fixture(3, nodes);
            let (mut out, mut mins) = (Vec::new(), Vec::new());
            max_gap_into(&planes, nodes, &thetas, &mut out, &mut mins);
            assert_eq!(
                bits(&out),
                scalar_max_gap(&planes, nodes, &thetas),
                "{nodes}"
            );
            assert_eq!(
                bits(&mins),
                scalar_min_gaps(&planes, nodes, &thetas),
                "{nodes}"
            );
        }
    }

    #[test]
    fn edist_sq_matches_scalar_fold_on_tail_sizes() {
        for nodes in [1, 7, 8, 9, 65] {
            let (planes, thetas) = planes_fixture(4, nodes);
            let mut out = Vec::new();
            edist_sq_into(&planes, nodes, &thetas, &mut out);
            for i in 0..nodes {
                let mut e = 0.0f64;
                for (k, &theta) in thetas.iter().enumerate() {
                    let d = theta - planes[k * nodes + i];
                    e += d * d;
                }
                assert_eq!(out[i].to_bits(), e.to_bits(), "node {i} of {nodes}");
            }
        }
    }

    #[test]
    fn select_k_smallest_matches_stable_sort() {
        let base: Vec<(f64, u32)> = [5.0, 1.0, 3.0, 1.0, 4.0, 1.0, 2.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        for k in 0..=base.len() {
            let mut fast = base.clone();
            select_k_smallest(&mut fast, k);
            let mut slow = base.clone();
            slow.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            slow.truncate(k);
            assert_eq!(fast, slow, "k = {k}");
        }
    }

    #[test]
    fn zero_readers_yield_zero_planes() {
        let (mut out, mut mins) = (vec![1.0; 3], vec![1.0; 2]);
        max_gap_into(&[], 3, &[], &mut out, &mut mins);
        assert_eq!(out, vec![0.0; 3]);
        assert!(mins.is_empty());
        edist_sq_into(&[], 3, &[], &mut out);
        assert_eq!(out, vec![0.0; 3]);
    }

    /// Plane values: RSSI-like decibels plus values around and at ±0.0,
    /// so ties, signed zeros and exact matches all occur.
    fn plane_value() -> impl Strategy<Value = f64> {
        (0u8..5, -95.0..-40.0f64, -1.0..1.0f64).prop_map(|(kind, db, small)| match kind {
            0 => db,
            1 => small,
            2 => 0.0,
            3 => -0.0,
            _ => -70.25,
        })
    }

    /// A `theta` placed relative to `plane`: below it, above it, equal to
    /// one of its values, between two neighbouring values, or ±0.0.
    fn theta_for(plane: &[f64], pick: usize, kind: u8) -> f64 {
        let mut sorted = plane.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let i = pick % sorted.len();
        let next = sorted[(i + 1).min(sorted.len() - 1)];
        match kind {
            0 => sorted[0] - 1.5,
            1 => sorted[sorted.len() - 1] + 2.25,
            2 => plane[i],
            3 => sorted[i] + (next - sorted[i]) / 2.0,
            4 => 0.0,
            _ => -0.0,
        }
    }

    /// Up to three readers' planes of 1..=40 nodes (on and off the lane
    /// width), each with a `theta` placed against its own plane.
    fn gap_case() -> impl Strategy<Value = (Vec<f64>, usize, Vec<f64>)> {
        (1usize..=40, 1usize..=3)
            .prop_flat_map(|(nodes, k_readers)| {
                (
                    Just(nodes),
                    prop::collection::vec(plane_value(), k_readers * nodes),
                    prop::collection::vec((any::<usize>(), 0u8..6), k_readers),
                )
            })
            .prop_map(|(nodes, planes, picks)| {
                let thetas = picks
                    .iter()
                    .enumerate()
                    .map(|(k, &(pick, kind))| {
                        theta_for(&planes[k * nodes..(k + 1) * nodes], pick, kind)
                    })
                    .collect();
                (planes, nodes, thetas)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One pass gives the per-node maxima and the per-reader minima of
        /// the scalar folds, to the bit, with ties, ±0.0 and exact matches.
        #[test]
        fn max_gap_pass_matches_scalar_max_and_min_folds((planes, nodes, thetas) in gap_case()) {
            let (mut out, mut mins) = (Vec::new(), Vec::new());
            max_gap_into(&planes, nodes, &thetas, &mut out, &mut mins);
            prop_assert_eq!(bits(&out), scalar_max_gap(&planes, nodes, &thetas));
            prop_assert_eq!(
                bits(&mins),
                scalar_min_gaps(&planes, nodes, &thetas),
                "thetas {:?} over {:?}", thetas, planes
            );
        }
    }
}
