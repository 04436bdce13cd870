//! VIRE's dual weighting factors (§4.3).
//!
//! * `w1` reflects RSSI agreement between each surviving virtual tag and
//!   the tracking tag. Two variants ([`W1Mode`]): the paper's §4.3 formula
//!   taken verbatim (a normalized *discrepancy* — the default, because it
//!   reproduces the paper's Fig. 8 behaviour), and the inverse-square
//!   variant other reimplementations use. See DESIGN.md §3.
//! * `w2` rewards density: each candidate is weighted by the size of the
//!   4-connected blob ("conjunctive region") it belongs to, normalized
//!   over all candidates — "the densest area has the largest weight".
//!
//! The combined weight is `w = w1·w2`, renormalized. Each candidate's
//! per-reader values come from the virtual grid's tile store, the one
//! store elimination reads too.

use crate::landmarc::inverse_square_weights_into;
use crate::virtual_grid::VirtualGrid;
use crate::TrackingReading;
use vire_geom::{bitgrid, BitGrid, GridIndex};

/// How the signal-agreement factor `w1` is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum W1Mode {
    /// The paper's §4.3 formula taken at face value (with magnitudes so
    /// dBm signs cancel): `w1ᵢ = Σ_k |S_k(Tᵢ) − θ_k| / (K·|S_k(Tᵢ)|)`,
    /// normalized over the candidates. The weight *grows* with
    /// discrepancy — counter-intuitive, but it is what makes the paper's
    /// Fig. 8 right side climb: an over-large threshold admits poorly
    /// matching regions and this w1 hands them extra mass.
    #[default]
    PaperDiscrepancy,
    /// Normalized inverse-square discrepancy (LANDMARC-style): better
    /// matches count more. The "fixed" variant other reimplementations
    /// use; flattens the Fig. 8 U-curve's right side. Exposed as an
    /// ablation axis.
    InverseSquare,
}

impl W1Mode {
    /// Both modes, for sweeps.
    pub const ALL: [W1Mode; 2] = [W1Mode::PaperDiscrepancy, W1Mode::InverseSquare];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            W1Mode::PaperDiscrepancy => "w1-paper",
            W1Mode::InverseSquare => "w1-inverse-sq",
        }
    }
}

/// Which weighting factors to apply — the ablation axis for the weighting
/// design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightingMode {
    /// Signal-agreement factor only.
    W1Only,
    /// Density factor only.
    W2Only,
    /// The paper's combination `w = w1·w2`.
    #[default]
    Combined,
}

impl WeightingMode {
    /// All modes, for sweeps.
    pub const ALL: [WeightingMode; 3] = [
        WeightingMode::W1Only,
        WeightingMode::W2Only,
        WeightingMode::Combined,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WeightingMode::W1Only => "w1-only",
            WeightingMode::W2Only => "w2-only",
            WeightingMode::Combined => "w1*w2",
        }
    }
}

/// Reusable buffers for the zero-allocation weighting core. Held inside
/// [`crate::VireScratch`]; every vector retains its capacity between
/// readings.
#[derive(Debug, Default, Clone)]
pub(crate) struct WeightBuffers {
    /// Surviving candidates as flat (row-major) node indices, ascending.
    pub(crate) candidates: Vec<usize>,
    /// Per-candidate scores: signal distances (inverse-square mode) or raw
    /// discrepancies (paper mode), before normalization.
    scores: Vec<f64>,
    /// Signal-agreement factor per candidate.
    w1: Vec<f64>,
    /// Density factor per candidate.
    w2: Vec<f64>,
    /// Final normalized weights, aligned with `candidates`.
    pub(crate) weights: Vec<f64>,
    /// Connected-component label per node (0 = background / unvisited).
    /// All zero between calls: only candidates get labels, and
    /// `candidate_weights_into` clears exactly those before it returns.
    labels: Vec<u32>,
    /// Size of each component, indexed by label − 1.
    comp_sizes: Vec<usize>,
    /// Flood-fill work stack.
    stack: Vec<usize>,
}

/// 4-connected component labelling on a packed bitset mask — the
/// allocation-free equivalent of `vire_geom::label::Components::label`.
/// Component *sizes* are what w2 consumes, and those are invariant to
/// traversal order, so this produces weights identical to the grid-based
/// labelling.
///
/// `buf.labels` must be all zero on entry (it grows, zero-filled, to the
/// node count); only the candidates' entries are written.
fn label_components(mask: &[u64], nx: usize, nodes: usize, buf: &mut WeightBuffers) {
    if buf.labels.len() < nodes {
        buf.labels.resize(nodes, 0);
    }
    buf.comp_sizes.clear();
    // Seeding from the candidate list (all masked flats, ascending) visits
    // seeds in the same order as scanning every node, without the scan.
    let WeightBuffers {
        candidates,
        labels,
        comp_sizes,
        stack,
        ..
    } = buf;
    for &seed in candidates.iter() {
        if labels[seed] != 0 {
            continue;
        }
        let label = comp_sizes.len() as u32 + 1;
        let mut size = 0usize;
        stack.clear();
        stack.push(seed);
        labels[seed] = label;
        while let Some(flat) = stack.pop() {
            size += 1;
            let i = flat % nx;
            // 4-neighbourhood in flat coordinates.
            if i > 0 && bitgrid::get_bit(mask, flat - 1) && labels[flat - 1] == 0 {
                labels[flat - 1] = label;
                stack.push(flat - 1);
            }
            if i + 1 < nx && bitgrid::get_bit(mask, flat + 1) && labels[flat + 1] == 0 {
                labels[flat + 1] = label;
                stack.push(flat + 1);
            }
            if flat >= nx && bitgrid::get_bit(mask, flat - nx) && labels[flat - nx] == 0 {
                labels[flat - nx] = label;
                stack.push(flat - nx);
            }
            if flat + nx < nodes && bitgrid::get_bit(mask, flat + nx) && labels[flat + nx] == 0 {
                labels[flat + nx] = label;
                stack.push(flat + nx);
            }
        }
        comp_sizes.push(size);
    }
}

/// Allocation-free weighting over the virtual grid's tile store (the one
/// store elimination reads) and a packed candidate mask in the [`bitgrid`]
/// word layout. On success the candidate flat indices and their
/// normalized weights are left in `buf` and `true` is returned; `false`
/// corresponds to the `None` cases of [`candidate_weights`] (empty mask or
/// degenerate weights).
///
/// Bit-for-bit equivalent to the historical implementation: candidate
/// iteration walks `trailing_zeros` word by word, which enumerates the
/// same ascending row-major order as a full scan; every per-candidate sum
/// runs k-ascending over the same values the store holds, and
/// normalization divides in the same order.
pub(crate) fn candidate_weights_into(
    grid: &VirtualGrid,
    reading: &TrackingReading,
    mask: &[u64],
    mode: WeightingMode,
    w1_mode: W1Mode,
    buf: &mut WeightBuffers,
) -> bool {
    let (nodes, nx) = (grid.tag_count(), grid.grid().nx());
    debug_assert_eq!(mask.len(), bitgrid::words_for(nodes));
    buf.candidates.clear();
    buf.candidates.extend(bitgrid::iter_ones(mask));
    if buf.candidates.is_empty() {
        return false;
    }

    match w1_mode {
        W1Mode::InverseSquare => {
            // Same accumulation as `TrackingReading::signal_distance`:
            // Σ_k (θ_k − s_k)², k ascending, then sqrt.
            buf.scores.clear();
            for &flat in &buf.candidates {
                let e = (reading.rssi().iter().zip(grid.node_values(flat)))
                    .map(|(&theta, s)| (theta - s).powi(2))
                    .sum::<f64>()
                    .sqrt();
                buf.scores.push(e);
            }
            inverse_square_weights_into(&buf.scores, &mut buf.w1);
        }
        W1Mode::PaperDiscrepancy => {
            // The paper's w1 formula with magnitudes, normalized over the
            // candidates: `w1ᵢ ∝ Σ_k |S_k(Tᵢ) − θ_k| / (K·|S_k(Tᵢ)|)`.
            // When every discrepancy is zero the weights degrade to
            // uniform.
            let k_f = reading.reader_count() as f64;
            buf.scores.clear();
            for &flat in &buf.candidates {
                let raw = (reading.rssi().iter().zip(grid.node_values(flat)))
                    .map(|(&theta, s)| (s - theta).abs() / (k_f * s.abs().max(1e-9)))
                    .sum::<f64>();
                buf.scores.push(raw);
            }
            let total: f64 = buf.scores.iter().sum();
            buf.w1.clear();
            if total <= 0.0 {
                buf.w1
                    .resize(buf.candidates.len(), 1.0 / buf.candidates.len() as f64);
            } else {
                buf.w1.extend(buf.scores.iter().map(|w| w / total));
            }
        }
    }

    // w2: conjunctive-region size, normalized over candidates. Reading a
    // candidate's label also clears it, which leaves the labels all zero
    // for the next call without a pass over every node.
    label_components(mask, nx, nodes, buf);
    buf.w2.clear();
    let mut size_total = 0.0f64;
    for &flat in &buf.candidates {
        let label = std::mem::take(&mut buf.labels[flat]);
        let size = buf.comp_sizes[label as usize - 1] as f64;
        buf.w2.push(size);
        size_total += size;
    }
    if size_total <= 0.0 {
        return false;
    }
    for s in buf.w2.iter_mut() {
        *s /= size_total;
    }

    buf.weights.clear();
    match mode {
        WeightingMode::W1Only => buf.weights.extend_from_slice(&buf.w1),
        WeightingMode::W2Only => buf.weights.extend_from_slice(&buf.w2),
        WeightingMode::Combined => buf
            .weights
            .extend(buf.w1.iter().zip(&buf.w2).map(|(a, b)| a * b)),
    }

    let total: f64 = buf.weights.iter().sum();
    if !(total > 0.0 && total.is_finite()) {
        return false;
    }
    for w in buf.weights.iter_mut() {
        *w /= total;
    }
    true
}

/// Computes the per-candidate weights over the surviving mask.
///
/// Returns `(candidate_indices, weights)`; weights are normalized to sum
/// to 1. Returns `None` when the mask is empty or the weights degenerate.
///
/// One-shot convenience over the internal `candidate_weights_into`, which
/// reads the grid's store in place; hot paths go through
/// [`crate::PreparedVire`], which reuses the buffers across readings.
///
/// # Panics
/// Panics when the reading's reader count differs from the grid's.
pub fn candidate_weights(
    grid: &VirtualGrid,
    reading: &TrackingReading,
    mask: &BitGrid,
    mode: WeightingMode,
    w1_mode: W1Mode,
) -> Option<(Vec<GridIndex>, Vec<f64>)> {
    assert_eq!(
        reading.reader_count(),
        grid.reader_count(),
        "reading and virtual grid must cover the same readers"
    );
    let nx = grid.grid().nx();
    let mut buf = WeightBuffers::default();
    if !candidate_weights_into(grid, reading, mask.words(), mode, w1_mode, &mut buf) {
        return None;
    }
    let candidates = buf
        .candidates
        .iter()
        .map(|&flat| GridIndex::new(flat % nx, flat / nx))
        .collect();
    Some((candidates, std::mem::take(&mut buf.weights)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ReferenceRssiMap;
    use crate::virtual_grid::InterpolationKernel;
    use vire_geom::{GridData as GD, Point2, RegularGrid};

    fn setup() -> (VirtualGrid, TrackingReading) {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let readers = vec![Point2::new(-1.0, -1.0), Point2::new(4.0, 4.0)];
        let fields = readers
            .iter()
            .map(|r| GD::from_fn(grid, |_, p| -60.0 - 4.0 * p.distance(*r)))
            .collect();
        let refs = ReferenceRssiMap::new(grid, readers.clone(), fields);
        let vg = VirtualGrid::build(&refs, 4, InterpolationKernel::Linear);
        let truth = Point2::new(1.5, 1.5);
        let reading = TrackingReading::new(
            readers
                .iter()
                .map(|r| -60.0 - 4.0 * truth.distance(*r))
                .collect(),
        );
        (vg, reading)
    }

    fn mask_with(grid: &VirtualGrid, indices: &[GridIndex]) -> BitGrid {
        let mut m = BitGrid::empty(*grid.grid());
        for &idx in indices {
            m.set(idx, true);
        }
        m
    }

    #[test]
    fn weights_normalize_for_all_modes() {
        let (vg, reading) = setup();
        let mask = mask_with(
            &vg,
            &[
                GridIndex::new(5, 5),
                GridIndex::new(6, 5),
                GridIndex::new(6, 6),
                GridIndex::new(10, 10),
            ],
        );
        for mode in WeightingMode::ALL {
            let (cands, w) =
                candidate_weights(&vg, &reading, &mask, mode, W1Mode::InverseSquare).unwrap();
            assert_eq!(cands.len(), 4);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{mode:?}");
            assert!(w.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn empty_mask_returns_none() {
        let (vg, reading) = setup();
        let mask = BitGrid::empty(*vg.grid());
        assert!(candidate_weights(
            &vg,
            &reading,
            &mask,
            WeightingMode::Combined,
            W1Mode::InverseSquare
        )
        .is_none());
    }

    #[test]
    fn w2_prefers_the_larger_blob() {
        let (vg, reading) = setup();
        // A 4-cell blob and an isolated cell (the paper's Fig. 5 example:
        // "four adjacent black regions … have a larger weight").
        let blob = [
            GridIndex::new(4, 4),
            GridIndex::new(5, 4),
            GridIndex::new(4, 5),
            GridIndex::new(5, 5),
        ];
        let lone = GridIndex::new(11, 11);
        let mut all = blob.to_vec();
        all.push(lone);
        let mask = mask_with(&vg, &all);
        let (cands, w) = candidate_weights(
            &vg,
            &reading,
            &mask,
            WeightingMode::W2Only,
            W1Mode::InverseSquare,
        )
        .unwrap();
        let lone_pos = cands.iter().position(|&c| c == lone).unwrap();
        let blob_pos = cands.iter().position(|&c| c == blob[0]).unwrap();
        assert!(
            w[blob_pos] > w[lone_pos],
            "blob weight {} must exceed lone weight {}",
            w[blob_pos],
            w[lone_pos]
        );
        // Exact ratio: blob cells carry 4/(4·4+1) each, lone 1/17.
        assert!((w[blob_pos] / w[lone_pos] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn w1_prefers_the_better_signal_match() {
        let (vg, reading) = setup();
        // Candidate near the truth (center ≈ (1.5, 1.5) is fine node (6,6)
        // with n = 4) vs one far away.
        let near = GridIndex::new(6, 6);
        let far = GridIndex::new(0, 0);
        let mask = mask_with(&vg, &[near, far]);
        let (cands, w) = candidate_weights(
            &vg,
            &reading,
            &mask,
            WeightingMode::W1Only,
            W1Mode::InverseSquare,
        )
        .unwrap();
        let near_pos = cands.iter().position(|&c| c == near).unwrap();
        let far_pos = cands.iter().position(|&c| c == far).unwrap();
        assert!(w[near_pos] > w[far_pos]);
    }

    #[test]
    fn combined_mode_multiplies_factors() {
        let (vg, reading) = setup();
        let idxs = [
            GridIndex::new(5, 5),
            GridIndex::new(6, 5),
            GridIndex::new(12, 12),
        ];
        let mask = mask_with(&vg, &idxs);
        let (c, comb) = candidate_weights(
            &vg,
            &reading,
            &mask,
            WeightingMode::Combined,
            W1Mode::InverseSquare,
        )
        .unwrap();
        let (_, w1) = candidate_weights(
            &vg,
            &reading,
            &mask,
            WeightingMode::W1Only,
            W1Mode::InverseSquare,
        )
        .unwrap();
        let (_, w2) = candidate_weights(
            &vg,
            &reading,
            &mask,
            WeightingMode::W2Only,
            W1Mode::InverseSquare,
        )
        .unwrap();
        let raw: Vec<f64> = w1.iter().zip(&w2).map(|(a, b)| a * b).collect();
        let total: f64 = raw.iter().sum();
        for i in 0..c.len() {
            assert!((comb[i] - raw[i] / total).abs() < 1e-12);
        }
    }

    #[test]
    fn reused_buffers_leave_labels_clear_and_match_fresh_ones() {
        let (vg, reading) = setup();
        let masks = [
            mask_with(&vg, &[GridIndex::new(5, 5), GridIndex::new(6, 5)]),
            mask_with(
                &vg,
                &[
                    GridIndex::new(5, 5),
                    GridIndex::new(6, 6),
                    GridIndex::new(0, 12),
                    GridIndex::new(12, 0),
                ],
            ),
            mask_with(&vg, &[GridIndex::new(12, 12)]),
        ];
        let mut reused = WeightBuffers::default();
        for mask in masks.iter().chain(&masks) {
            let run = |buf: &mut WeightBuffers| {
                candidate_weights_into(
                    &vg,
                    &reading,
                    mask.words(),
                    WeightingMode::Combined,
                    W1Mode::PaperDiscrepancy,
                    buf,
                )
            };
            let mut fresh = WeightBuffers::default();
            assert!(run(&mut reused) && run(&mut fresh));
            let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused.weights), bits(&fresh.weights));
            assert!(reused.labels.iter().all(|&l| l == 0));
        }
    }

    /// The one-shot path refuses a reading with more or fewer readers
    /// than the grid, rather than zipping past the shorter side.
    fn weights_for_readers(rssi: Vec<f64>) {
        let (vg, _) = setup();
        let mask = mask_with(&vg, &[GridIndex::new(5, 5), GridIndex::new(6, 5)]);
        let reading = TrackingReading::new(rssi);
        for (mode, w1) in WeightingMode::ALL.into_iter().zip(W1Mode::ALL) {
            candidate_weights(&vg, &reading, &mask, mode, w1);
        }
    }

    #[test]
    #[should_panic(expected = "same readers")]
    fn candidate_weights_rejects_a_reading_with_more_readers() {
        weights_for_readers(vec![-70.0, -72.0, -74.0, -76.0]);
    }

    #[test]
    #[should_panic(expected = "same readers")]
    fn candidate_weights_rejects_a_reading_with_fewer_readers() {
        weights_for_readers(vec![-70.0]);
    }

    #[test]
    fn mode_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            WeightingMode::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
