//! The common localizer interface.

use crate::types::{ReferenceRssiMap, TrackingReading};
use std::fmt;
use vire_geom::Point2;

/// A position estimate with algorithm diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Estimated tag position.
    pub position: Point2,
    /// Number of reference points (real or virtual) that contributed
    /// weight to the estimate.
    pub contributors: usize,
    /// The elimination threshold that was ultimately applied (VIRE only;
    /// `None` for algorithms without a threshold).
    pub threshold: Option<f64>,
}

impl Estimate {
    /// Estimate at `position` from `contributors` references, no threshold.
    pub fn new(position: Point2, contributors: usize) -> Self {
        Estimate {
            position,
            contributors,
            threshold: None,
        }
    }

    /// Euclidean estimation error against the true position — the paper's
    /// metric `e = √((x−x₀)² + (y−y₀)²)` (§4.3).
    pub fn error(&self, truth: Point2) -> f64 {
        self.position.distance(truth)
    }
}

/// Why a localizer could not produce an estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalizeError {
    /// The reading covers a different number of readers than the map.
    ReaderMismatch {
        /// Readers in the reference map.
        map: usize,
        /// Readers in the tracking reading.
        reading: usize,
    },
    /// The elimination step removed every candidate and no fallback was
    /// enabled.
    AllEliminated,
    /// The algorithm's numeric pipeline degenerated (zero total weight).
    DegenerateWeights,
    /// Not enough references/readers for this algorithm.
    InsufficientData(String),
}

impl fmt::Display for LocalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalizeError::ReaderMismatch { map, reading } => write!(
                f,
                "tracking reading covers {reading} readers but the map has {map}"
            ),
            LocalizeError::AllEliminated => {
                write!(f, "elimination removed every candidate position")
            }
            LocalizeError::DegenerateWeights => {
                write!(f, "weights degenerated to zero total mass")
            }
            LocalizeError::InsufficientData(what) => write!(f, "insufficient data: {what}"),
        }
    }
}

impl std::error::Error for LocalizeError {}

/// A localization algorithm: maps a reference calibration map plus one
/// tracking reading to a position estimate.
///
/// `Sync` is a supertrait: localizers are immutable algorithm
/// configurations, and the experiment harness and
/// [`PreparedLocalizer::locate_batch`](crate::PreparedLocalizer::locate_batch)
/// share them across worker-pool lanes.
pub trait Localizer: Sync {
    /// Estimates the tracking tag's position.
    fn locate(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<Estimate, LocalizeError>;

    /// Short human-readable algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Binds this localizer to one calibration map, returning a prepared
    /// query object that amortizes per-map work (virtual-grid
    /// interpolation) across many readings.
    ///
    /// The default returns the owned state from
    /// [`Localizer::prepare_owned`] when there is one (VIRE, LANDMARC).
    /// Otherwise it performs no precomputation — each
    /// [`PreparedLocalizer::locate`](crate::PreparedLocalizer::locate)
    /// call simply delegates to [`Localizer::locate`] through
    /// [`Unprepared`](crate::Unprepared), so every localizer gets the
    /// prepared/batch API for free.
    fn prepare<'a>(
        &'a self,
        refs: &'a ReferenceRssiMap,
    ) -> Box<dyn crate::prepared::PreparedLocalizer + 'a> {
        match self.prepare_owned(refs) {
            Some(owned) => owned,
            None => Box::new(crate::prepared::Unprepared::new(self, refs)),
        }
    }

    /// Binds this localizer to a *copy* of the calibration map, returning
    /// an owned prepared instance that outlives the source map and can be
    /// kept in [`sync`](crate::incremental::OwnedPreparedLocalizer::sync)
    /// with later calibration snapshots by redoing only the work the
    /// changed cells reach.
    ///
    /// Returns `None` when the algorithm has no per-map state (the
    /// default) or the configuration cannot be prepared; callers fall back
    /// to per-snapshot [`Localizer::prepare`].
    fn prepare_owned(
        &self,
        refs: &ReferenceRssiMap,
    ) -> Option<Box<dyn crate::incremental::OwnedPreparedLocalizer>> {
        let _ = refs;
        None
    }
}

/// Validates the reader counts agree; shared by all implementations.
pub(crate) fn check_readers(
    refs: &ReferenceRssiMap,
    reading: &TrackingReading,
) -> Result<(), LocalizeError> {
    if refs.reader_count() != reading.reader_count() {
        return Err(LocalizeError::ReaderMismatch {
            map: refs.reader_count(),
            reading: reading.reader_count(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_euclidean_distance() {
        let e = Estimate::new(Point2::new(1.0, 2.0), 4);
        assert!((e.error(Point2::new(4.0, 6.0)) - 5.0).abs() < 1e-12);
        assert_eq!(e.error(Point2::new(1.0, 2.0)), 0.0);
    }

    #[test]
    fn display_messages_are_informative() {
        let msgs = [
            LocalizeError::ReaderMismatch { map: 4, reading: 3 }.to_string(),
            LocalizeError::AllEliminated.to_string(),
            LocalizeError::DegenerateWeights.to_string(),
            LocalizeError::InsufficientData("k > reference count".into()).to_string(),
        ];
        assert!(msgs[0].contains('4') && msgs[0].contains('3'));
        assert!(msgs[1].contains("elimination"));
        assert!(msgs[3].contains("k > reference count"));
    }
}
