//! Lane-chunked data-plane kernels for the dense per-node sweeps.
//!
//! LANDMARC's E-distance (`Σ_k (θ_k − s_k)²` per node) is a full pass
//! over the reader-major planes (`planes[k * nodes + flat]`) on every
//! reading. The kernel here vectorizes it **across nodes**: each loop body
//! works on a fixed-width `[f64; LANES]` block of consecutive nodes, which
//! the compiler autovectorizes without SIMD intrinsics or new
//! dependencies. (VIRE's elimination used to run a dense max-gap pass of
//! the same shape; it now visits only the tiles that can hold a survivor,
//! reading their values from a tile-major store, see
//! [`crate::elimination`].)
//!
//! Bit-identity with the scalar reference is structural, not accidental:
//! every lane holds exactly one node, and the reader loop visits
//! `k = 0..K` in ascending order for every lane — so each node sees the
//! same operations in the same order as a scalar node-at-a-time loop
//! (`for k { acc += gap_k² }`). Reordering happens only *across* nodes,
//! which share no accumulator, matching the scalar oracles in
//! `tests/kernels.rs` to the last bit.

/// Nodes processed per vector block. 8 × f64 fills one AVX-512 register
/// or two AVX2 registers; the tail (`nodes % LANES`) runs node-at-a-time
/// with the identical per-node operation order.
pub const LANES: usize = 8;

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

    fn planes_fixture(k_readers: usize, nodes: usize) -> (Vec<f64>, Vec<f64>) {
        let planes: Vec<f64> = (0..k_readers * nodes)
            .map(|i| -60.0 - (i as f64 * 0.37).sin() * 15.0)
            .collect();
        let thetas: Vec<f64> = (0..k_readers).map(|k| -70.0 + k as f64 * 1.3).collect();
        (planes, thetas)
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
        let mut out = vec![1.0; 3];
        edist_sq_into(&[], 3, &[], &mut out);
        assert_eq!(out, vec![0.0; 3]);
    }
}
