//! Threshold selection and elimination of unlikely positions (§4.3).
//!
//! The paper's adaptive procedure, paraphrased: start from the threshold
//! that gives the largest proximity-map area, then "reduce the chosen
//! reader's threshold step by step", largest-area reader first, and keep
//! "the smallest area formed by the smallest threshold available". We
//! implement that as:
//!
//! 1. a common threshold starts high enough that every reader's map
//!    highlights at least its best-matching region,
//! 2. the common threshold is reduced stepwise while the K-map
//!    intersection stays non-empty,
//! 3. optionally each reader's threshold is then tightened individually
//!    (largest area first) while the intersection stays non-empty.
//!
//! A fixed-threshold mode exists for the Fig. 8 sweep, where the threshold
//! is the independent variable.

use crate::kernels;
use crate::types::TrackingReading;
use crate::virtual_grid::VirtualGrid;
use vire_geom::{bitgrid, BitGrid};

/// How the elimination threshold is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdMode {
    /// A fixed threshold (dB) for all readers — Fig. 8's independent
    /// variable. The intersection may come out empty.
    Fixed(f64),
    /// The adaptive reduction of §4.3.
    Adaptive {
        /// Reduction step per iteration, dB.
        step: f64,
        /// Lower bound on the threshold, dB.
        min: f64,
        /// Whether to run the per-reader tightening pass after the common
        /// reduction.
        per_reader: bool,
        /// Floor on the surviving candidate count: reduction stops before
        /// the mask would shrink below this many regions. The paper's
        /// algorithm preserves "that particular area" while tightening —
        /// shrinking all the way to one cell degenerates VIRE into a noisy
        /// nearest-virtual-tag snap. `0` means *auto*: [`crate::Vire`]
        /// substitutes one physical cell's worth of virtual regions (n²).
        min_candidates: usize,
    },
}

impl Default for ThresholdMode {
    /// The paper's operating point: adaptive with a 0.25 dB step,
    /// per-reader tightening, and the auto candidate floor.
    fn default() -> Self {
        ThresholdMode::Adaptive {
            step: 0.25,
            min: 0.05,
            per_reader: true,
            min_candidates: 0,
        }
    }
}

/// Result of the elimination stage.
#[derive(Debug, Clone)]
pub struct EliminationResult {
    /// Combined candidate mask on the virtual grid, packed 64 regions per
    /// word ([`BitGrid`]).
    pub mask: BitGrid,
    /// Final per-reader thresholds (equal in fixed/common modes).
    pub thresholds: Vec<f64>,
}

impl EliminationResult {
    /// Number of surviving candidate regions — a word-wise popcount.
    pub fn candidates(&self) -> usize {
        self.mask.count_ones()
    }
}

/// Reusable buffers for the zero-allocation elimination core. In steady
/// state ([`crate::PreparedVire`] holds one per scratch arena) no heap
/// allocation happens per reading: every vector retains its capacity
/// between calls.
#[derive(Debug, Default, Clone)]
pub(crate) struct ElimBuffers {
    /// Per-node largest gap over readers, `max_k |s_k(node) − θ_k|`. The
    /// joint survival test at a uniform threshold `t` is exactly
    /// `maxgap < t`, which turns every common-threshold probe into a
    /// scalar comparison against precomputed reductions of this plane.
    maxgap: Vec<f64>,
    /// `select_nth` scratch (a copy of `maxgap`, permuted).
    quantile: Vec<f64>,
    /// Per-reader smallest gaps, `min_node |s_k(node) − θ_k|`, taken by
    /// the max-gap pass, for the phase-1 starting point.
    best: Vec<f64>,
    /// Surviving flat node indices, ascending, during phase 3.
    list: Vec<u32>,
    /// Per-survivor gaps, entry-major: `list_gaps[e * K + k]`.
    list_gaps: Vec<f64>,
    /// Combined candidate mask, packed 64 row-major nodes per word (the
    /// [`bitgrid`] layout: node `flat` is bit `flat % 64` of word
    /// `flat / 64`; tail bits stay zero).
    pub(crate) mask: Vec<u64>,
    /// Final per-reader thresholds.
    pub(crate) thresholds: Vec<f64>,
    /// Phase-3 reader ordering.
    order: Vec<usize>,
    /// Phase-3 sort keys: each reader's proximity-map area at the common
    /// threshold, computed once per locate that runs phase 3.
    areas: Vec<usize>,
}

/// Minimum of `vals`, reduced with lane-parallel accumulators. `min`
/// over a fixed set of non-NaN values is exact and order-independent, so
/// this returns the same value as a sequential fold while letting the
/// loop vectorize instead of serializing on the FP-min latency chain.
fn lane_min(vals: &[f64]) -> f64 {
    let mut acc = [f64::INFINITY; kernels::LANES];
    let mut chunks = vals.chunks_exact(kernels::LANES);
    for c in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            if v < *a {
                *a = v;
            }
        }
    }
    let m = chunks
        .remainder()
        .iter()
        .fold(f64::INFINITY, |m, &v| m.min(v));
    acc.iter().fold(m, |m, &a| m.min(a))
}

/// `#{i : vals[i] < bound}` as a vectorizable bool-sum.
fn count_below(vals: &[f64], bound: f64) -> usize {
    vals.iter().map(|&v| usize::from(v < bound)).sum()
}

/// `#{i : |plane[i] − theta| < bound}` as a vectorizable bool-sum.
fn count_gap_below(plane: &[f64], theta: f64, bound: f64) -> usize {
    plane
        .iter()
        .map(|&s| usize::from((s - theta).abs() < bound))
        .sum()
}

/// Packs `vals[i] < bound` into bitset words: 64 comparisons per output
/// word, tail bits zero. Every word is fully overwritten, so the buffer
/// needs no clearing between calls.
fn write_below_mask(vals: &[f64], bound: f64, words: &mut [u64]) {
    debug_assert_eq!(words.len(), bitgrid::words_for(vals.len()));
    for (word, chunk) in words.iter_mut().zip(vals.chunks(bitgrid::WORD_BITS)) {
        let mut bits = 0u64;
        for (b, &v) in chunk.iter().enumerate() {
            bits |= u64::from(v < bound) << b;
        }
        *word = bits;
    }
}

/// Allocation-free elimination over reader-major RSSI planes
/// (`planes[k * nodes + flat]`, the layout [`VirtualGrid::planes`] stores).
/// On success the final mask and per-reader thresholds are left in `buf`
/// and `true` is returned; `false` means a **fixed** threshold eliminated
/// every region (adaptive mode always keeps at least one).
///
/// Bit-for-bit equivalent to the historical map-building implementation,
/// but probes cost O(1) instead of a grid pass each:
///
/// * the joint survival test `∀k: |s_k − θ_k| < t` at a *uniform* `t`
///   equals `max_k |s_k − θ_k| < t`, so one fused pass precomputes the
///   per-node max-gap plane, and with it each reader's smallest gap (the
///   phase-1 start);
/// * phase 1's "intersection still empty" probe is then
///   `min(maxgap) ≥ t`, a scalar comparison;
/// * phase 2's "count ≥ floor" probe is `Q < t` where `Q` is the
///   floor-th smallest max-gap (one `select_nth`) — exact, because the
///   survivor count at `t` is the rank of `t` in the max-gap plane;
/// * phase 3 probes only the surviving candidate list (survivors are
///   monotone under tightening, so pruning on accepted probes is exact).
///
/// The threshold sequences themselves are produced by the same repeated
/// `+ step` / `− step` float arithmetic as the historical loops, so the
/// resulting thresholds, mask, and downstream weights are bit-identical.
pub(crate) fn eliminate_into(
    planes: &[f64],
    nodes: usize,
    reading: &TrackingReading,
    mode: ThresholdMode,
    buf: &mut ElimBuffers,
) -> bool {
    let k_readers = reading.reader_count();
    debug_assert_eq!(planes.len(), k_readers * nodes);

    match mode {
        ThresholdMode::Fixed(t) => {
            assert!(
                t >= 0.0 && t.is_finite(),
                "threshold must be non-negative and finite"
            );
            let mask = &mut buf.mask;
            bitgrid::ensure_words(mask, nodes);
            // Each reader's threshold comparison emits word bitmasks; the
            // K-reader intersection is then a word-wise AND, with no
            // max-gap plane materialized at all. Equivalent to the
            // historical `max_k gap < t` test since `∀k: gap_k < t`
            // ⟺ `max_k gap_k < t` for finite gaps.
            bitgrid::fill_ones(mask, nodes);
            if k_readers == 0 {
                // Degenerate zero-reader case: the max-gap plane is all
                // zeros, so every node survives iff `0 < t`.
                if t <= 0.0 {
                    mask.fill(0);
                }
            }
            for k in 0..k_readers {
                let theta = reading.at(k);
                let plane = &planes[k * nodes..(k + 1) * nodes];
                for (word, chunk) in mask.iter_mut().zip(plane.chunks(bitgrid::WORD_BITS)) {
                    let mut bits = 0u64;
                    for (b, &s) in chunk.iter().enumerate() {
                        bits |= u64::from((s - theta).abs() < t) << b;
                    }
                    *word &= bits;
                }
            }
            if mask.iter().all(|&w| w == 0) {
                return false;
            }
            buf.thresholds.clear();
            buf.thresholds.resize(k_readers, t);
            true
        }
        ThresholdMode::Adaptive {
            step,
            min,
            per_reader,
            min_candidates,
        } => {
            assert!(step > 0.0 && min >= 0.0, "invalid adaptive parameters");
            // Max-gap plane and per-reader smallest gaps in one pass of
            // the lane-chunked kernel: gaps are ≥ 0, so starting at 0 is
            // exact for K ≥ 1, the per-node compare order matches a scalar
            // node-at-a-time fold bit-for-bit, and a minimum does not
            // depend on the order it is taken in.
            kernels::max_gap_into(
                planes,
                nodes,
                reading.rssi(),
                &mut buf.maxgap,
                &mut buf.best,
            );
            let ElimBuffers {
                maxgap,
                quantile,
                best,
                list,
                list_gaps,
                mask,
                thresholds,
                order,
                areas,
            } = buf;
            let maxgap = maxgap.as_slice();
            // Clamp so a floor larger than the lattice cannot make the
            // growth loop unbounded.
            let floor = min_candidates.max(1).min(nodes);
            // Smallest per-reader gap: at threshold just above it, reader k
            // still highlights its best-matching region. The common start
            // is the largest of those, guaranteeing a non-empty map for
            // every reader (though not yet a non-empty intersection).
            let start = best.iter().copied().fold(0.0f64, f64::max).max(min) + step;

            // Phase 1: grow the common threshold until the intersection is
            // non-empty (the per-reader floors guarantee each map alone is
            // non-empty, but their intersection may need more slack). The
            // candidate floor deliberately does NOT apply here: a small
            // initial intersection means the readers already agree tightly,
            // and widening the threshold would only admit spurious regions.
            // The floor exists to stop the *shrinking* phases from
            // whittling an ample consistent region down to a noisy
            // single-cell snap. Empty intersection ⟺ no max-gap below t.
            let tightest = lane_min(maxgap);
            let mut t = start;
            while tightest >= t {
                t += step;
            }

            // Phase 2: shrink the common threshold while the candidate
            // floor holds. The first probe is a plain count pass (cheap,
            // and in hostile conditions it already fails); only if it
            // succeeds is the floor-th smallest max-gap selected to drive
            // the remaining probes as scalar rank tests.
            if t - step >= min && count_below(maxgap, t - step) >= floor {
                t -= step;
                quantile.clear();
                quantile.extend_from_slice(maxgap);
                let (_, &mut q, _) = quantile.select_nth_unstable_by(floor - 1, |a, b| {
                    a.partial_cmp(b).expect("finite gaps")
                });
                while t - step >= min {
                    let cand = t - step;
                    if q >= cand {
                        break;
                    }
                    t = cand;
                }
            }
            thresholds.clear();
            thresholds.resize(k_readers, t);

            // Phase 3: per-reader tightening, largest area first (area of
            // each reader's own proximity map at the common threshold).
            // Probes run over the surviving candidate list only: tightening
            // never resurrects a node, so survivors at any accepted
            // threshold vector are a subset of the current list, and the
            // list is re-pruned after each accepted probe.
            if per_reader {
                // Materialize the survivors at the common threshold with
                // their per-reader gaps (entry-major for contiguous probes).
                list.clear();
                list_gaps.clear();
                for (flat, &m) in maxgap.iter().enumerate() {
                    if m < t {
                        list.push(flat as u32);
                        for k in 0..k_readers {
                            list_gaps.push((planes[k * nodes + flat] - reading.at(k)).abs());
                        }
                    }
                }
                // While reader k's threshold is being tightened, every
                // other reader's threshold is fixed and every list entry
                // already satisfies it — so the joint survivor count at a
                // probe is simply how many list entries have their k-gap
                // below the probe: a rank test against the floor-th
                // smallest k-gap, exactly like phase 2. (When the list is
                // already below the floor, every probe fails and each
                // reader's threshold stays — skip directly, without
                // ordering the readers.)
                if list.len() >= floor {
                    // Each area is one pass over a plane, so compute the
                    // keys once; the stable sort keeps ties in reader
                    // order.
                    areas.clear();
                    areas.extend((0..k_readers).map(|k| {
                        count_gap_below(&planes[k * nodes..(k + 1) * nodes], reading.at(k), t)
                    }));
                    order.clear();
                    order.extend(0..k_readers);
                    order.sort_by_key(|&k| std::cmp::Reverse(areas[k]));
                    for &k in order.iter() {
                        quantile.clear();
                        quantile.extend(list_gaps.iter().skip(k).step_by(k_readers));
                        let (_, &mut qk, _) = quantile.select_nth_unstable_by(floor - 1, |a, b| {
                            a.partial_cmp(b).expect("finite gaps")
                        });
                        let before = thresholds[k];
                        while thresholds[k] - step >= min {
                            let cand = thresholds[k] - step;
                            if qk >= cand {
                                break;
                            }
                            thresholds[k] = cand;
                        }
                        // One in-place compaction per reader (the accepted
                        // survivor set only depends on the final value).
                        if thresholds[k] < before {
                            let keep = thresholds[k];
                            let mut w = 0;
                            for e in 0..list.len() {
                                if list_gaps[e * k_readers + k] < keep {
                                    list[w] = list[e];
                                    list_gaps.copy_within(
                                        e * k_readers..(e + 1) * k_readers,
                                        w * k_readers,
                                    );
                                    w += 1;
                                }
                            }
                            list.truncate(w);
                            list_gaps.truncate(w * k_readers);
                        }
                    }
                }
                // The word buffer is sized once (a no-op resize in steady
                // state) and zero-filled per reading — no per-iteration
                // `clear`/`resize` churn — then the survivor list scatters
                // its bits.
                bitgrid::ensure_words(mask, nodes);
                mask.fill(0);
                for &flat in list.iter() {
                    bitgrid::set_bit(mask, flat as usize);
                }
            } else {
                bitgrid::ensure_words(mask, nodes);
                write_below_mask(maxgap, t, mask);
            }
            true
        }
    }
}

/// Runs elimination. Returns `None` when a **fixed** threshold eliminates
/// every region (adaptive mode always keeps at least one).
///
/// One-shot convenience over the internal `eliminate_into`; hot paths go through
/// [`crate::PreparedVire`], which reuses the buffers across readings.
pub fn eliminate(
    grid: &VirtualGrid,
    reading: &TrackingReading,
    mode: ThresholdMode,
) -> Option<EliminationResult> {
    debug_assert_eq!(grid.reader_count(), reading.reader_count());
    let mut buf = ElimBuffers::default();
    if !eliminate_into(grid.planes(), grid.tag_count(), reading, mode, &mut buf) {
        return None;
    }
    Some(EliminationResult {
        mask: BitGrid::from_words(*grid.grid(), std::mem::take(&mut buf.mask)),
        thresholds: std::mem::take(&mut buf.thresholds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ReferenceRssiMap;
    use crate::virtual_grid::InterpolationKernel;
    use vire_geom::{GridData as GD, Point2, RegularGrid};

    fn setup() -> (VirtualGrid, TrackingReading, Point2) {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let readers = vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
            Point2::new(-1.0, 4.0),
        ];
        let fields = readers
            .iter()
            .map(|r| GD::from_fn(grid, |_, p| -60.0 - 4.0 * p.distance(*r)))
            .collect();
        let refs = ReferenceRssiMap::new(grid, readers.clone(), fields);
        let vg = VirtualGrid::build(&refs, 5, InterpolationKernel::Linear);
        let truth = Point2::new(1.3, 1.7);
        let reading = TrackingReading::new(
            readers
                .iter()
                .map(|r| -60.0 - 4.0 * truth.distance(*r))
                .collect(),
        );
        (vg, reading, truth)
    }

    #[test]
    fn fixed_threshold_keeps_truth_region() {
        let (vg, reading, truth) = setup();
        let result = eliminate(&vg, &reading, ThresholdMode::Fixed(2.0)).unwrap();
        assert!(result.candidates() > 0);
        let nearest = vg.grid().nearest_node(truth);
        assert!(result.mask.get(nearest), "true region must survive");
        assert_eq!(result.thresholds, vec![2.0; 4]);
    }

    #[test]
    fn tiny_fixed_threshold_can_eliminate_everything() {
        let (vg, reading, _) = setup();
        assert!(eliminate(&vg, &reading, ThresholdMode::Fixed(1e-6)).is_none());
    }

    #[test]
    fn adaptive_never_returns_empty() {
        let (vg, reading, _) = setup();
        let result = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        assert!(result.candidates() > 0);
    }

    #[test]
    fn adaptive_keeps_truth_region_nearby() {
        let (vg, reading, truth) = setup();
        let result = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        // The surviving mask's candidates should cluster around the truth:
        // every candidate within 1 m on this noise-free field.
        for (idx, set) in result.mask.iter() {
            if set {
                let p = vg.grid().position(idx);
                assert!(
                    p.distance(truth) < 1.0,
                    "candidate {p} too far from truth {truth}"
                );
            }
        }
    }

    #[test]
    fn adaptive_area_not_larger_than_loose_fixed() {
        let (vg, reading, _) = setup();
        let adaptive = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        let loose = eliminate(&vg, &reading, ThresholdMode::Fixed(6.0)).unwrap();
        assert!(adaptive.candidates() <= loose.candidates());
    }

    #[test]
    fn per_reader_tightening_never_grows_the_mask() {
        let (vg, reading, _) = setup();
        let common_only = eliminate(
            &vg,
            &reading,
            ThresholdMode::Adaptive {
                step: 0.25,
                min: 0.05,
                per_reader: false,
                min_candidates: 1,
            },
        )
        .unwrap();
        let tightened = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        assert!(tightened.candidates() <= common_only.candidates());
        assert!(tightened.candidates() > 0);
    }

    #[test]
    fn fixed_candidates_grow_with_threshold() {
        let (vg, reading, _) = setup();
        let mut prev = 0;
        for t in [0.5, 1.0, 2.0, 4.0, 8.0] {
            if let Some(r) = eliminate(&vg, &reading, ThresholdMode::Fixed(t)) {
                assert!(r.candidates() >= prev);
                prev = r.candidates();
            }
        }
        assert!(prev > 0);
    }

    #[test]
    fn per_reader_thresholds_do_not_exceed_common() {
        let (vg, reading, _) = setup();
        let r = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        let max_t = r.thresholds.iter().cloned().fold(0.0, f64::max);
        for &t in &r.thresholds {
            assert!(t <= max_t);
            assert!(t >= 0.05);
        }
    }
}
