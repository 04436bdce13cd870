//! Boundary compensation via virtual lattice extrapolation.
//!
//! LANDMARC and VIRE can only *interpolate*: every estimate is a convex
//! combination of reference positions, so a tag outside the lattice (the
//! paper's Tag 9) is always pulled inward. The paper's remedy is physical —
//! "putting more reference tags in a large area" — and it leaves "how to
//! identify such boundary tags and to compensate" as future work.
//!
//! This module compensates *without hardware*: the reference RSSI fields
//! are linearly extrapolated one or more cells beyond the lattice,
//! producing a larger synthetic reference map on which standard VIRE runs.
//! Interior estimates are unaffected (the extrapolated ring only wins
//! candidates when the signal actually looks out-of-lattice), while
//! boundary tags gain references "in all surrounding directions".

use crate::localizer::{Estimate, LocalizeError, Localizer};
use crate::types::{ReferenceRssiMap, TrackingReading};
use crate::vire_alg::{Vire, VireConfig};
use vire_geom::{GridData, Point2, RegularGrid};

/// Extends a reference map by `margin` lattice cells on every side,
/// filling the new nodes by separable linear extrapolation of each
/// reader's RSSI field (row pass then column pass, extending the end
/// segments).
///
/// # Panics
/// Panics when `margin == 0` (use the original map) or the lattice has
/// fewer than 2 nodes per axis (no slope to extrapolate).
pub fn extend_reference_map(refs: &ReferenceRssiMap, margin: usize) -> ReferenceRssiMap {
    assert!(margin > 0, "margin must be at least one cell");
    let g = refs.grid();
    assert!(
        g.nx() >= 2 && g.ny() >= 2,
        "extrapolation needs at least 2 nodes per axis"
    );

    let ext_grid = RegularGrid::new(
        Point2::new(
            g.origin().x - margin as f64 * g.pitch_x(),
            g.origin().y - margin as f64 * g.pitch_y(),
        ),
        g.pitch_x(),
        g.pitch_y(),
        g.nx() + 2 * margin,
        g.ny() + 2 * margin,
    );

    let fields = refs
        .planes()
        .chunks_exact(g.node_count())
        .map(|field| {
            // Pass 1: extend every original row horizontally.
            let rows: Vec<Vec<f64>> = field
                .chunks_exact(g.nx())
                .map(|row| extend_line(row, margin))
                .collect();
            // Pass 2: extend each (already widened) column vertically.
            GridData::from_fn(ext_grid, |idx, _| {
                let col: Vec<f64> = rows.iter().map(|r| r[idx.i]).collect();
                let extended_col = extend_line(&col, margin);
                extended_col[idx.j]
            })
        })
        .collect();

    ReferenceRssiMap::new(ext_grid, refs.readers().to_vec(), fields)
}

/// Extends a 1D sample line by `margin` entries on both ends using the
/// slopes of the first/last segments.
fn extend_line(vals: &[f64], margin: usize) -> Vec<f64> {
    let n = vals.len();
    debug_assert!(n >= 2);
    let lo_slope = vals[1] - vals[0];
    let hi_slope = vals[n - 1] - vals[n - 2];
    let mut out = Vec::with_capacity(n + 2 * margin);
    for k in (1..=margin).rev() {
        out.push(vals[0] - k as f64 * lo_slope);
    }
    out.extend_from_slice(vals);
    for k in 1..=margin {
        out.push(vals[n - 1] + k as f64 * hi_slope);
    }
    out
}

/// VIRE with boundary compensation: runs standard VIRE on the
/// extrapolation-extended reference map.
#[derive(Debug, Clone)]
pub struct BoundaryCompensatedVire {
    inner: Vire,
    margin: usize,
}

impl BoundaryCompensatedVire {
    /// Creates the localizer; `margin` is the number of extrapolated cells
    /// added on each side (1 is usually enough).
    pub fn new(config: VireConfig, margin: usize) -> Self {
        assert!(margin > 0, "margin must be at least one cell");
        BoundaryCompensatedVire {
            inner: Vire::new(config),
            margin,
        }
    }

    /// The extension margin in cells.
    pub fn margin(&self) -> usize {
        self.margin
    }
}

impl Localizer for BoundaryCompensatedVire {
    fn locate(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<Estimate, LocalizeError> {
        let extended = extend_reference_map(refs, self.margin);
        self.inner.locate(&extended, reading)
    }

    fn name(&self) -> &'static str {
        "VIRE+boundary"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_geom::{GridData as GD, GridIndex};

    fn readers() -> Vec<Point2> {
        vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
            Point2::new(-1.0, 4.0),
        ]
    }

    fn rssi(p: Point2, r: Point2) -> f64 {
        -60.0 - 20.0 * (p.distance(r).max(0.1)).log10()
    }

    fn map() -> ReferenceRssiMap {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let fields = readers()
            .iter()
            .map(|r| GD::from_fn(grid, |_, p| rssi(p, *r)))
            .collect();
        ReferenceRssiMap::new(grid, readers(), fields)
    }

    fn reading_at(p: Point2) -> TrackingReading {
        TrackingReading::new(readers().iter().map(|r| rssi(p, *r)).collect())
    }

    #[test]
    fn extension_grows_the_lattice_symmetrically() {
        let ext = extend_reference_map(&map(), 1);
        assert_eq!(ext.grid().nx(), 6);
        assert_eq!(ext.grid().ny(), 6);
        assert_eq!(ext.grid().origin(), Point2::new(-1.0, -1.0));
        assert_eq!(ext.reader_count(), 4);
    }

    #[test]
    fn extension_preserves_original_values() {
        let original = map();
        let ext = extend_reference_map(&original, 2);
        for idx in original.grid().indices() {
            let ext_idx = GridIndex::new(idx.i + 2, idx.j + 2);
            for k in 0..4 {
                assert!(
                    (original.rssi(k, idx) - ext.rssi(k, ext_idx)).abs() < 1e-9,
                    "value changed at {idx}"
                );
            }
        }
    }

    #[test]
    fn extension_is_exact_on_linear_fields() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let f = |p: Point2| -70.0 - 2.0 * p.x + 1.5 * p.y;
        let refs = ReferenceRssiMap::new(
            grid,
            vec![Point2::new(-1.0, -1.0)],
            vec![GD::from_fn(grid, |_, p| f(p))],
        );
        let ext = extend_reference_map(&refs, 1);
        for (idx, pos) in ext.grid().nodes() {
            assert!(
                (ext.rssi(0, idx) - f(pos)).abs() < 1e-9,
                "at {pos}: {} vs {}",
                ext.rssi(0, idx),
                f(pos)
            );
        }
    }

    #[test]
    fn compensated_vire_reduces_tag9_error() {
        // The paper's Tag 9 scenario: a tag outside the lattice corner.
        let refs = map();
        let truth = Point2::new(3.3, 3.2);
        let reading = reading_at(truth);
        let plain = Vire::default()
            .locate(&refs, &reading)
            .unwrap()
            .error(truth);
        let comp = BoundaryCompensatedVire::new(VireConfig::default(), 1)
            .locate(&refs, &reading)
            .unwrap()
            .error(truth);
        assert!(
            comp < plain,
            "compensated {comp:.3} should beat plain {plain:.3}"
        );
    }

    #[test]
    fn interior_tags_unharmed_by_compensation() {
        let refs = map();
        for &(x, y) in &[(1.5, 1.5), (0.8, 2.1), (2.4, 1.2)] {
            let truth = Point2::new(x, y);
            let reading = reading_at(truth);
            let plain = Vire::default()
                .locate(&refs, &reading)
                .unwrap()
                .error(truth);
            let comp = BoundaryCompensatedVire::new(VireConfig::default(), 1)
                .locate(&refs, &reading)
                .unwrap()
                .error(truth);
            assert!(
                comp <= plain + 0.08,
                "interior tag at ({x}, {y}): comp {comp:.3} vs plain {plain:.3}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn zero_margin_panics() {
        extend_reference_map(&map(), 0);
    }

    #[test]
    fn extend_line_slopes() {
        let out = extend_line(&[10.0, 12.0, 13.0], 2);
        assert_eq!(out, vec![6.0, 8.0, 10.0, 12.0, 13.0, 14.0, 15.0]);
    }
}
