//! Two-pass coarse-then-fine localization (adaptive granularity).
//!
//! The paper notes that accuracy saturates past `N² ≈ 900` virtual tags
//! (Fig. 7) while cost keeps growing, and suggests per-cell granularity as
//! future work. This module implements the computational variant: a cheap
//! coarse VIRE pass locates the neighbourhood, then a fine pass runs on a
//! cropped reference sub-map around it. Accuracy matches single-pass fine
//! VIRE while interpolating far fewer virtual tags — the ablation bench
//! quantifies the savings.

use crate::localizer::{Estimate, LocalizeError, Localizer};
use crate::types::{ReferenceRssiMap, TrackingReading};
use crate::vire_alg::{Vire, VireConfig};
use vire_geom::{GridData, GridIndex, Point2, RegularGrid};

/// Two-pass VIRE: coarse localization, then fine localization on a cropped
/// window of reference cells around the coarse estimate.
#[derive(Debug, Clone)]
pub struct TwoPassVire {
    coarse: Vire,
    fine_config: VireConfig,
    /// Half-width of the crop window, in reference cells around the cell
    /// containing the coarse estimate.
    window_cells: usize,
}

impl TwoPassVire {
    /// Creates the localizer.
    ///
    /// * `coarse_refine` — refinement for pass 1 (2–3 is plenty),
    /// * `fine_refine` — refinement for pass 2 (the paper's 10),
    /// * `window_cells` — how many reference cells around the coarse hit to
    ///   keep for pass 2 (1 keeps a 3×3-cell window).
    ///
    /// # Panics
    /// Panics when either refinement factor is zero.
    pub fn new(coarse_refine: usize, fine_refine: usize, window_cells: usize) -> Self {
        assert!(coarse_refine > 0 && fine_refine > 0, "refine must be >= 1");
        TwoPassVire {
            coarse: Vire::new(VireConfig::with_refine(coarse_refine)),
            fine_config: VireConfig::with_refine(fine_refine),
            window_cells,
        }
    }

    /// Crops `refs` to the window of reference cells around `center`.
    ///
    /// The window is clamped to the lattice; the result always keeps at
    /// least 2×2 nodes so interpolation stays possible.
    pub fn crop(refs: &ReferenceRssiMap, center: Point2, window_cells: usize) -> ReferenceRssiMap {
        let g = refs.grid();
        let Some((cell, _, _)) = g.locate(center) else {
            return refs.clone();
        };
        let w = window_cells;
        let i_lo = cell.i.saturating_sub(w);
        let j_lo = cell.j.saturating_sub(w);
        let i_hi = (cell.i + 1 + w).min(g.nx() - 1);
        let j_hi = (cell.j + 1 + w).min(g.ny() - 1);

        let sub = RegularGrid::new(
            g.position(GridIndex::new(i_lo, j_lo)),
            g.pitch_x(),
            g.pitch_y(),
            i_hi - i_lo + 1,
            j_hi - j_lo + 1,
        );
        let fields = (0..refs.reader_count())
            .map(|k| {
                GridData::from_fn(sub, |idx, _| {
                    refs.rssi(k, GridIndex::new(idx.i + i_lo, idx.j + j_lo))
                })
            })
            .collect();
        ReferenceRssiMap::new(sub, refs.readers().to_vec(), fields)
    }
}

impl Localizer for TwoPassVire {
    fn locate(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<Estimate, LocalizeError> {
        let rough = self.coarse.locate(refs, reading)?;
        let cropped = Self::crop(refs, rough.position, self.window_cells);
        Vire::new(self.fine_config.clone()).locate(&cropped, reading)
    }

    fn name(&self) -> &'static str {
        "VIRE-2pass"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_geom::GridData as GD;

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
    fn crop_keeps_window_around_center() {
        let refs = map();
        let cropped = TwoPassVire::crop(&refs, Point2::new(1.5, 1.5), 1);
        // Cell (1,1) ± 1 cell → nodes 0..=3 clipped to lattice = full 4x4
        // on this small map... use window 0 for a tighter check.
        assert!(cropped.grid().node_count() <= refs.grid().node_count());
        let tight = TwoPassVire::crop(&refs, Point2::new(1.5, 1.5), 0);
        assert_eq!(tight.grid().nx(), 2);
        assert_eq!(tight.grid().ny(), 2);
        assert_eq!(tight.grid().origin(), Point2::new(1.0, 1.0));
    }

    #[test]
    fn crop_preserves_rssi_values() {
        let refs = map();
        let tight = TwoPassVire::crop(&refs, Point2::new(2.5, 0.5), 0);
        for (idx, pos) in tight.grid().nodes() {
            let orig_idx = refs.grid().nearest_node(pos);
            for k in 0..4 {
                assert!(
                    (tight.rssi(k, idx) - refs.rssi(k, orig_idx)).abs() < 1e-12,
                    "value mismatch at {pos}"
                );
            }
        }
    }

    #[test]
    fn crop_clamps_at_lattice_corner() {
        let refs = map();
        let c = TwoPassVire::crop(&refs, Point2::new(0.1, 0.1), 1);
        assert_eq!(c.grid().origin(), Point2::ORIGIN);
        assert!(c.grid().nx() >= 2 && c.grid().ny() >= 2);
    }

    #[test]
    fn two_pass_matches_single_pass_accuracy() {
        let refs = map();
        let two_pass = TwoPassVire::new(2, 10, 1);
        let single = Vire::new(VireConfig::with_refine(10));
        for &(x, y) in &[(1.4, 1.8), (0.7, 2.2), (2.5, 1.3), (1.5, 0.6)] {
            let truth = Point2::new(x, y);
            let reading = reading_at(truth);
            let e2 = two_pass.locate(&refs, &reading).unwrap().error(truth);
            let e1 = single.locate(&refs, &reading).unwrap().error(truth);
            assert!(
                e2 <= e1 + 0.1,
                "two-pass {e2:.3} should track single-pass {e1:.3} at ({x}, {y})"
            );
        }
    }

    #[test]
    fn two_pass_fine_grid_is_smaller_on_large_lattices() {
        // The efficiency claim: on a lattice bigger than the paper's 4×4,
        // the cropped window interpolates far fewer virtual tags than the
        // full fine lattice. (On the tiny 4×4 testbed a ±1-cell window
        // already spans everything, so the savings only appear at scale.)
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 8);
        let fields = readers()
            .iter()
            .map(|r| GD::from_fn(grid, |_, p| rssi(p, *r)))
            .collect();
        let refs = ReferenceRssiMap::new(grid, readers(), fields);
        let cropped = TwoPassVire::crop(&refs, Point2::new(3.5, 3.5), 1);
        let fine = cropped.grid().refined(10);
        let full = refs.grid().refined(10);
        assert!(
            fine.node_count() * 4 < full.node_count(),
            "cropped {} vs full {}",
            fine.node_count(),
            full.node_count()
        );
    }

    #[test]
    #[should_panic(expected = "refine")]
    fn zero_refine_panics() {
        TwoPassVire::new(0, 10, 1);
    }
}
