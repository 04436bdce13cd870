//! The assembled VIRE localizer (paper §4).
//!
//! The pipeline is split into a **prepare** phase and a **query** phase
//! (see [`crate::prepared`] and [`crate::PreparedVire`]):
//!
//! 1. *prepare, once per calibration map:* build the virtual reference
//!    grid (interpolation, §4.2), held as one tile-major store,
//! 2. *query, per tracking reading:* run proximity-based elimination
//!    (§4.3) over the cached store,
//! 3. weight the surviving virtual tags by `w1·w2`,
//! 4. estimate `(x, y) = Σ wᵢ (xᵢ, yᵢ)`.
//!
//! The one-shot [`Localizer::locate`] API is retained — it prepares a
//! [`crate::PreparedVire`], queries once, and discards it — so both paths
//! share one implementation and produce bit-identical estimates.
//!
//! When a **fixed** threshold eliminates everything, the configured
//! fallback applies: error out, or degrade gracefully to LANDMARC on the
//! real reference tags (the behaviour a deployment would want).

use crate::elimination::EliminationResult;
use crate::incremental::OwnedPreparedLocalizer;
use crate::localizer::{check_readers, Estimate, LocalizeError, Localizer};
use crate::prepared::PreparedLocalizer;
use crate::types::{ReferenceRssiMap, TrackingReading};
use crate::virtual_grid::InterpolationKernel;
use crate::weights::{W1Mode, WeightingMode};

pub use crate::elimination::ThresholdMode;
pub use crate::weights::WeightingMode as VireWeighting;

/// What to do when elimination leaves no candidates (fixed threshold only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmptyFallback {
    /// Return [`LocalizeError::AllEliminated`].
    Error,
    /// Fall back to LANDMARC (k = 4) on the real reference tags.
    #[default]
    Landmarc,
}

/// VIRE configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VireConfig {
    /// Per-cell refinement factor `n` (§4.2). The paper's operating point
    /// `N² = 900` on the 4×4 testbed corresponds to `n = 10`.
    pub refine: usize,
    /// Virtual-tag interpolation kernel.
    pub kernel: InterpolationKernel,
    /// Threshold selection mode.
    pub threshold: ThresholdMode,
    /// Weighting factors.
    pub weighting: WeightingMode,
    /// How the signal-agreement factor w1 is computed.
    pub w1: W1Mode,
    /// Behaviour when elimination empties the candidate set.
    pub fallback: EmptyFallback,
}

impl Default for VireConfig {
    fn default() -> Self {
        VireConfig {
            refine: 10,
            kernel: InterpolationKernel::Linear,
            threshold: ThresholdMode::default(),
            weighting: WeightingMode::Combined,
            w1: W1Mode::default(),
            fallback: EmptyFallback::Landmarc,
        }
    }
}

impl VireConfig {
    /// Config with a fixed elimination threshold (Fig. 8 sweeps).
    pub fn with_fixed_threshold(threshold: f64) -> Self {
        VireConfig {
            threshold: ThresholdMode::Fixed(threshold),
            ..VireConfig::default()
        }
    }

    /// Config with a given refinement factor (Fig. 7 sweeps).
    pub fn with_refine(refine: usize) -> Self {
        VireConfig {
            refine,
            ..VireConfig::default()
        }
    }
}

/// The VIRE localizer.
///
/// ```
/// use vire_core::{Landmarc, Localizer, ReferenceRssiMap, TrackingReading, Vire};
/// use vire_geom::{GridData, Point2, RegularGrid};
///
/// // A noise-free synthetic calibration map: RSSI falls off with
/// // distance to each of four corner readers.
/// let readers = vec![
///     Point2::new(-1.0, -1.0),
///     Point2::new(4.0, -1.0),
///     Point2::new(4.0, 4.0),
///     Point2::new(-1.0, 4.0),
/// ];
/// let rssi = |p: Point2, r: Point2| -60.0 - 22.0 * p.distance(r).max(0.1).log10();
/// let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
/// let fields = readers
///     .iter()
///     .map(|r| GridData::from_fn(grid, |_, p| rssi(p, *r)))
///     .collect();
/// let map = ReferenceRssiMap::new(grid, readers.clone(), fields);
///
/// // A tag at (1.4, 1.8) produces this reading; VIRE recovers the spot.
/// let truth = Point2::new(1.4, 1.8);
/// let reading = TrackingReading::new(readers.iter().map(|r| rssi(truth, *r)).collect());
/// let estimate = Vire::default().locate(&map, &reading).unwrap();
/// assert!(estimate.error(truth) < 0.15);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Vire {
    config: VireConfig,
}

impl Vire {
    /// Creates a VIRE localizer.
    pub fn new(config: VireConfig) -> Self {
        Vire { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &VireConfig {
        &self.config
    }

    /// Runs the pipeline, also returning the elimination diagnostics
    /// (used by the experiment harness to render Fig. 5-style maps).
    ///
    /// One-shot: prepares the virtual grid for `refs`, answers the single
    /// query, and discards the preparation. Loops over many readings
    /// against one map should use [`Vire::prepare`] instead and query the
    /// returned [`crate::PreparedVire`] — the results are bit-identical
    /// (this method routes through the same prepared core).
    pub fn locate_with_diagnostics(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<(Estimate, Option<EliminationResult>), LocalizeError> {
        check_readers(refs, reading)?;
        self.prepare(refs)?.locate_with_diagnostics(reading)
    }
}

impl Localizer for Vire {
    fn locate(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<Estimate, LocalizeError> {
        check_readers(refs, reading)?;
        self.prepare(refs)?.locate(reading)
    }

    fn name(&self) -> &'static str {
        "VIRE"
    }

    /// `None` for a degenerate configuration (`refine == 0`): the default
    /// [`Localizer::prepare`] then falls back to the unprepared adapter,
    /// which surfaces the same per-reading error as the one-shot path.
    fn prepare_owned(&self, refs: &ReferenceRssiMap) -> Option<Box<dyn OwnedPreparedLocalizer>> {
        let prepared = self.prepare(refs).ok()?;
        Some(Box::new(prepared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarc::Landmarc;
    use vire_geom::{GridData, Point2, RegularGrid};

    fn readers() -> Vec<Point2> {
        vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
            Point2::new(-1.0, 4.0),
        ]
    }

    fn rssi_at(p: Point2, r: Point2) -> f64 {
        -60.0 - 22.0 * (p.distance(r).max(0.1)).log10()
    }

    fn map() -> ReferenceRssiMap {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let fields = readers()
            .iter()
            .map(|r| GridData::from_fn(grid, |_, p| rssi_at(p, *r)))
            .collect();
        ReferenceRssiMap::new(grid, readers(), fields)
    }

    fn reading_at(p: Point2) -> TrackingReading {
        TrackingReading::new(readers().iter().map(|r| rssi_at(p, *r)).collect())
    }

    #[test]
    fn noise_free_interior_tag_is_located_precisely() {
        let refs = map();
        let truth = Point2::new(1.4, 1.8);
        let est = Vire::default().locate(&refs, &reading_at(truth)).unwrap();
        assert!(
            est.error(truth) < 0.15,
            "error {} at estimate {}",
            est.error(truth),
            est.position
        );
    }

    #[test]
    fn vire_beats_landmarc_on_off_lattice_tags() {
        let refs = map();
        let vire = Vire::default();
        let landmarc = Landmarc::default();
        let mut vire_total = 0.0;
        let mut lm_total = 0.0;
        for &(x, y) in &[(0.7, 2.2), (2.3, 2.4), (2.5, 1.3), (1.4, 0.6), (1.5, 1.5)] {
            let truth = Point2::new(x, y);
            let reading = reading_at(truth);
            vire_total += vire.locate(&refs, &reading).unwrap().error(truth);
            lm_total += landmarc.locate(&refs, &reading).unwrap().error(truth);
        }
        assert!(
            vire_total < lm_total,
            "VIRE {vire_total:.3} should beat LANDMARC {lm_total:.3}"
        );
    }

    #[test]
    fn estimate_stays_inside_the_virtual_lattice() {
        let refs = map();
        let bounds = refs.grid().bounds();
        for &(x, y) in &[(0.1, 0.1), (2.9, 0.2), (1.5, 2.9), (3.3, 3.3)] {
            let est = Vire::default()
                .locate(&refs, &reading_at(Point2::new(x, y)))
                .unwrap();
            assert!(bounds.contains(est.position));
        }
    }

    #[test]
    fn diagnostics_expose_threshold_and_candidates() {
        let refs = map();
        let (est, diag) = Vire::default()
            .locate_with_diagnostics(&refs, &reading_at(Point2::new(1.5, 1.5)))
            .unwrap();
        let diag = diag.expect("adaptive mode always has diagnostics");
        assert!(est.threshold.unwrap() > 0.0);
        assert_eq!(diag.candidates(), est.contributors);
        assert!(est.contributors >= 1);
    }

    #[test]
    fn fixed_threshold_empty_falls_back_to_landmarc() {
        let refs = map();
        let truth = Point2::new(1.5, 1.5);
        let cfg = VireConfig {
            threshold: ThresholdMode::Fixed(1e-9),
            fallback: EmptyFallback::Landmarc,
            ..VireConfig::default()
        };
        let (est, diag) = Vire::new(cfg)
            .locate_with_diagnostics(&refs, &reading_at(truth))
            .unwrap();
        assert!(diag.is_none(), "fallback path carries no elimination diag");
        // Must equal plain LANDMARC.
        let lm = Landmarc::default()
            .locate(&refs, &reading_at(truth))
            .unwrap();
        assert_eq!(est.position, lm.position);
    }

    #[test]
    fn fixed_threshold_empty_errors_when_configured() {
        let refs = map();
        let cfg = VireConfig {
            threshold: ThresholdMode::Fixed(1e-9),
            fallback: EmptyFallback::Error,
            ..VireConfig::default()
        };
        let err = Vire::new(cfg)
            .locate(&refs, &reading_at(Point2::new(1.5, 1.5)))
            .unwrap_err();
        assert_eq!(err, LocalizeError::AllEliminated);
    }

    #[test]
    fn zero_refine_is_rejected() {
        let refs = map();
        let cfg = VireConfig {
            refine: 0,
            ..VireConfig::default()
        };
        let err = Vire::new(cfg)
            .locate(&refs, &reading_at(Point2::new(1.0, 1.0)))
            .unwrap_err();
        assert!(matches!(err, LocalizeError::InsufficientData(_)));
    }

    #[test]
    fn reader_mismatch_detected() {
        let refs = map();
        let err = Vire::default()
            .locate(&refs, &TrackingReading::new(vec![-70.0]))
            .unwrap_err();
        assert!(matches!(err, LocalizeError::ReaderMismatch { .. }));
    }

    #[test]
    fn higher_refinement_does_not_hurt_noise_free_accuracy() {
        let refs = map();
        let truth = Point2::new(2.2, 0.9);
        let coarse = Vire::new(VireConfig::with_refine(2))
            .locate(&refs, &reading_at(truth))
            .unwrap()
            .error(truth);
        let fine = Vire::new(VireConfig::with_refine(12))
            .locate(&refs, &reading_at(truth))
            .unwrap()
            .error(truth);
        assert!(fine <= coarse + 0.05, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Vire::default().name(), "VIRE");
    }
}
