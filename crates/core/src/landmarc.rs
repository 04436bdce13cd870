//! The LANDMARC baseline (Ni, Liu, Lau, Patil — PerCom 2003).
//!
//! For each reference tag `j`, the signal-space distance to the tracking
//! tag is `E_j = √(Σ_k (θ_k − S_k(j))²)` over the K readers. The `k`
//! nearest references in that space are selected and the position estimate
//! is their weighted centroid with weights `w_j ∝ 1/E_j²`. The paper under
//! reproduction uses k = 4 ("an algorithm looking for the 4 nearest tags").

use crate::incremental::OwnedPreparedLocalizer;
use crate::localizer::{Estimate, LocalizeError, Localizer};
use crate::prepared::PreparedLocalizer;
use crate::types::{ReferenceRssiMap, TrackingReading};
use vire_geom::Point2;

/// LANDMARC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LandmarcConfig {
    /// Number of nearest reference tags to blend (the paper's k = 4).
    pub k: usize,
}

impl Default for LandmarcConfig {
    fn default() -> Self {
        LandmarcConfig { k: 4 }
    }
}

/// The LANDMARC localizer.
#[derive(Debug, Clone, Default)]
pub struct Landmarc {
    config: LandmarcConfig,
}

impl Landmarc {
    /// Creates a localizer with the given configuration.
    pub fn new(config: LandmarcConfig) -> Self {
        Landmarc { config }
    }

    /// The k in use.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Computes `(E_j, position_j)` for every reference tag, unsorted.
    pub fn signal_distances(
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Vec<(f64, Point2)> {
        refs.grid()
            .indices()
            .map(|idx| {
                let e = reading.signal_distance(&refs.signal_vector(idx));
                (e, refs.grid().position(idx))
            })
            .collect()
    }

    /// Computes `(E_j², position_j)` for every reference tag, unsorted —
    /// the sqrt-free sibling of [`Landmarc::signal_distances`] for callers
    /// that only rank by distance (`sqrt` is monotone, so ordering by `E²`
    /// is exact; take `sqrt` of a winner if its `E` is needed).
    pub fn signal_distances_sq(
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Vec<(f64, Point2)> {
        refs.grid()
            .indices()
            .map(|idx| {
                // Same k-ascending accumulation as
                // `TrackingReading::signal_distance`, minus the final sqrt.
                let esq = (0..reading.reader_count())
                    .map(|k| {
                        let d = reading.at(k) - refs.rssi(k, idx);
                        d * d
                    })
                    .sum::<f64>();
                (esq, refs.grid().position(idx))
            })
            .collect()
    }
}

/// Converts signal distances of the selected neighbours into normalized
/// weights `w_j = (1/E_j²)/Σ(1/E_i²)`.
///
/// Exact matches (`E = 0`) dominate: when any are present, the non-matching
/// references get zero weight and the matches share the mass equally
/// (the limit of the formula as E → 0).
pub(crate) fn inverse_square_weights(distances: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(distances.len());
    inverse_square_weights_into(distances, &mut out);
    out
}

/// Allocation-free core of [`inverse_square_weights`]: writes the weights
/// into `out` (cleared first), reusing its capacity.
pub(crate) fn inverse_square_weights_into(distances: &[f64], out: &mut Vec<f64>) {
    const EXACT: f64 = 1e-12;
    out.clear();
    let n_exact = distances.iter().filter(|&&e| e < EXACT).count();
    if n_exact > 0 {
        let share = 1.0 / n_exact as f64;
        out.extend(
            distances
                .iter()
                .map(|&e| if e < EXACT { share } else { 0.0 }),
        );
        return;
    }
    out.extend(distances.iter().map(|&e| 1.0 / (e * e)));
    let total: f64 = out.iter().sum();
    for v in out.iter_mut() {
        *v /= total;
    }
}

impl Localizer for Landmarc {
    /// One-shot localization: prepares `refs` (a mirror of the map and
    /// its node positions), answers the single query, and discards them.
    /// Loops over
    /// many readings against one map should use [`Landmarc::prepare`] —
    /// the results are bit-identical (this method routes through the same
    /// prepared state).
    fn locate(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<Estimate, LocalizeError> {
        self.prepare(refs).locate(reading)
    }

    fn name(&self) -> &'static str {
        "LANDMARC"
    }

    fn prepare_owned(&self, refs: &ReferenceRssiMap) -> Option<Box<dyn OwnedPreparedLocalizer>> {
        Some(Box::new(self.prepare(refs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_geom::{GridData, RegularGrid};

    /// A synthetic map where RSSI is an exact linear function of position
    /// per reader — distance in signal space then mirrors distance in
    /// physical space, so LANDMARC should be accurate.
    fn linear_map() -> ReferenceRssiMap {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let readers = vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
            Point2::new(-1.0, 4.0),
        ];
        let fields = readers
            .iter()
            .map(|r| GridData::from_fn(grid, |_, p| -60.0 - 3.0 * p.distance(*r)))
            .collect();
        ReferenceRssiMap::new(grid, readers, fields)
    }

    fn reading_at(map: &ReferenceRssiMap, p: Point2) -> TrackingReading {
        TrackingReading::new(
            map.readers()
                .iter()
                .map(|r| -60.0 - 3.0 * p.distance(*r))
                .collect(),
        )
    }

    #[test]
    fn exact_match_on_a_reference_tag() {
        let map = linear_map();
        let truth = Point2::new(2.0, 1.0); // a lattice node
        let est = Landmarc::default()
            .locate(&map, &reading_at(&map, truth))
            .unwrap();
        assert!(est.error(truth) < 1e-9, "error {}", est.error(truth));
    }

    #[test]
    fn interior_tag_is_close() {
        let map = linear_map();
        let truth = Point2::new(1.5, 1.5);
        let est = Landmarc::default()
            .locate(&map, &reading_at(&map, truth))
            .unwrap();
        assert!(est.error(truth) < 0.25, "error {}", est.error(truth));
        assert_eq!(est.contributors, 4);
    }

    #[test]
    fn estimate_inside_reference_hull() {
        let map = linear_map();
        let bounds = map.grid().bounds();
        for &(x, y) in &[(0.3, 0.4), (2.7, 2.9), (1.1, 2.2)] {
            let est = Landmarc::default()
                .locate(&map, &reading_at(&map, Point2::new(x, y)))
                .unwrap();
            assert!(bounds.contains(est.position), "estimate escaped lattice");
        }
    }

    #[test]
    fn boundary_tag_error_exceeds_center_tag_error() {
        // The Fig. 2(b) effect: LANDMARC cannot extrapolate, so a tag
        // outside the lattice gets pulled inward.
        let map = linear_map();
        let center = Landmarc::default()
            .locate(&map, &reading_at(&map, Point2::new(1.5, 1.5)))
            .unwrap()
            .error(Point2::new(1.5, 1.5));
        let outside_truth = Point2::new(3.4, 3.4);
        let outside = Landmarc::default()
            .locate(&map, &reading_at(&map, outside_truth))
            .unwrap()
            .error(outside_truth);
        assert!(
            outside > center + 0.2,
            "outside {outside} vs center {center}"
        );
    }

    #[test]
    fn k_equal_to_reference_count_is_allowed() {
        let map = linear_map();
        let cfg = LandmarcConfig { k: 16 };
        let est = Landmarc::new(cfg)
            .locate(&map, &reading_at(&map, Point2::new(1.5, 1.5)))
            .unwrap();
        assert_eq!(est.contributors, 16);
    }

    #[test]
    fn invalid_k_is_rejected() {
        let map = linear_map();
        let reading = reading_at(&map, Point2::new(1.0, 1.0));
        for k in [0usize, 17] {
            let err = Landmarc::new(LandmarcConfig { k })
                .locate(&map, &reading)
                .unwrap_err();
            assert!(matches!(err, LocalizeError::InsufficientData(_)));
        }
    }

    #[test]
    fn reader_mismatch_is_rejected() {
        let map = linear_map();
        let short = TrackingReading::new(vec![-70.0, -75.0]);
        let err = Landmarc::default().locate(&map, &short).unwrap_err();
        assert_eq!(err, LocalizeError::ReaderMismatch { map: 4, reading: 2 });
    }

    #[test]
    fn inverse_square_weights_normalize() {
        let w = inverse_square_weights(&[1.0, 2.0, 4.0]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1] && w[1] > w[2]);
        // Ratio check: w ∝ 1/E².
        assert!((w[0] / w[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exact_match_takes_all_weight() {
        let w = inverse_square_weights(&[0.0, 3.0, 5.0]);
        assert_eq!(w, vec![1.0, 0.0, 0.0]);
        let w2 = inverse_square_weights(&[0.0, 0.0, 5.0]);
        assert_eq!(w2, vec![0.5, 0.5, 0.0]);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Landmarc::default().name(), "LANDMARC");
    }
}
