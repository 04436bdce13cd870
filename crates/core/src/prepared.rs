//! Prepared (two-phase) localization: bind a localizer to one calibration
//! map once, then answer many queries cheaply.
//!
//! VIRE's map-dependent work — interpolating the virtual grid (§4.2) into
//! its tile-major store — does not depend on the reading; elimination and
//! weighting (§4.3) do, and read only that store. This module holds the
//! query contract of that split:
//!
//! * the [`PreparedLocalizer`] trait every prepared form implements, with
//!   an order-preserving [`PreparedLocalizer::locate_batch`] that fans a
//!   slice of readings across the [`WorkerPool`](crate::pool::WorkerPool)
//!   (each lane with its own thread-local scratch);
//! * [`VireScratch`], the reusable arena every VIRE and LANDMARC query
//!   runs through, one per thread for the implicit entry points, so steady
//!   state performs **zero heap allocation** per reading;
//! * [`Unprepared`], the adapter for localizers with no per-map state.
//!
//! The prepared states themselves, [`crate::PreparedVire`] and
//! [`crate::PreparedLandmarc`], own a mirror of their map and their query
//! core, and live in [`crate::incremental`] beside the `sync` that
//! updates them. They are the only prepared form of either algorithm:
//! one-shot [`Localizer::locate`] is prepare-then-locate on the same
//! state, so there is a single code path to trust.

use std::borrow::Borrow;
use std::cell::RefCell;

use crate::elimination::ElimBuffers;
use crate::incremental::LandmarcBuffers;
use crate::localizer::{Estimate, LocalizeError, Localizer};
use crate::types::{ReferenceRssiMap, TrackingReading};
use crate::weights::WeightBuffers;
use vire_geom::Point2;

/// A localizer already bound to one calibration map. Queries borrow the
/// prepared state immutably, so a single prepared instance can serve many
/// threads at once (`Sync` is a supertrait).
pub trait PreparedLocalizer: Sync {
    /// Estimates the position for one tracking reading.
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError>;

    /// Short human-readable algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Localizes a batch of readings, preserving input order.
    ///
    /// The default fans the slice across the worker pool via
    /// [`locate_batch_parallel`]; results are identical to calling
    /// [`PreparedLocalizer::locate`] sequentially.
    fn locate_batch(&self, readings: &[TrackingReading]) -> Vec<Result<Estimate, LocalizeError>> {
        locate_batch_parallel(self, readings)
    }

    /// Localizes a batch given by reference, preserving input order — the
    /// clone-free sibling of [`PreparedLocalizer::locate_batch`] for
    /// callers whose readings live inside a larger structure (the
    /// snapshot-driven service path). Same fan-out, same results.
    fn locate_batch_refs(
        &self,
        readings: &[&TrackingReading],
    ) -> Vec<Result<Estimate, LocalizeError>> {
        locate_batch_parallel(self, readings)
    }
}

/// Fewest readings worth handing to a pool lane. A VIRE locate costs
/// about 0.6–1.1 µs on the tile store, and waking a lane costs about as
/// much as ten of them: on a 2-core x86-64 host (medians of 15 × 500
/// batches, three runs) a 16-reading batch took 13.5–26.7 µs fanned over
/// two lanes against 9.9–17.8 µs inline. Two runs broke even between 24
/// and 40 readings; in the third, with the second core busy, fanning
/// still lost at 64. So a lane still needs 16 readings, and a batch fans
/// out from 32.
const MIN_READINGS_PER_LANE: usize = 16;

/// Fans `readings` (owned or by reference) across the persistent
/// [`WorkerPool`](crate::pool::WorkerPool) in contiguous, order-preserving
/// chunks (one per pool lane, each at least `MIN_READINGS_PER_LANE`
/// long). Each index writes its own pre-allocated output slot, so results
/// are bit-identical to a sequential loop — which is exactly what runs
/// when the pool has no workers or the batch is too small to split.
pub fn locate_batch_parallel<P, R>(
    prepared: &P,
    readings: &[R],
) -> Vec<Result<Estimate, LocalizeError>>
where
    P: PreparedLocalizer + ?Sized,
    R: Borrow<TrackingReading> + Sync,
{
    let pool = crate::pool::WorkerPool::global();
    let lanes = (pool.workers() + 1).min(readings.len() / MIN_READINGS_PER_LANE);
    if lanes <= 1 {
        return readings
            .iter()
            .map(|r| prepared.locate(r.borrow()))
            .collect();
    }
    let chunk = readings.len().div_ceil(lanes);
    // Placeholder value only; every slot is overwritten below.
    let mut out: Vec<Result<Estimate, LocalizeError>> =
        vec![Err(LocalizeError::AllEliminated); readings.len()];
    // One pool index per contiguous chunk, so each lane reuses its
    // thread-local scratch across the whole chunk instead of per reading.
    let mut chunks: Vec<&mut [Result<Estimate, LocalizeError>]> = out.chunks_mut(chunk).collect();
    pool.for_each_mut(&mut chunks, |c, slots| {
        for (slot, reading) in slots.iter_mut().zip(&readings[c * chunk..]) {
            *slot = prepared.locate(reading.borrow());
        }
    });
    drop(chunks);
    out
}

/// The trivial prepared adapter [`Localizer::prepare`]'s default falls
/// back to when a localizer has no owned prepared form: holds the
/// localizer and map and delegates every query to the one-shot path. No
/// precomputation, but it still provides `locate_batch`.
pub struct Unprepared<'a, L: ?Sized> {
    inner: &'a L,
    refs: &'a ReferenceRssiMap,
}

impl<'a, L: Localizer + ?Sized> Unprepared<'a, L> {
    /// Binds `inner` to `refs` without precomputation.
    pub fn new(inner: &'a L, refs: &'a ReferenceRssiMap) -> Self {
        Unprepared { inner, refs }
    }
}

impl<L: Localizer + ?Sized> PreparedLocalizer for Unprepared<'_, L> {
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError> {
        self.inner.locate(self.refs, reading)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Reusable per-thread scratch arena for prepared queries: VIRE's
/// elimination gaps and masks and candidate/weight buffers, LANDMARC's
/// E-distance and selection buffers, and the centroid position buffer
/// both algorithms blend. After the first query every vector has its
/// steady-state capacity, so subsequent queries allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct VireScratch {
    pub(crate) elim: ElimBuffers,
    pub(crate) weights: WeightBuffers,
    pub(crate) landmarc: LandmarcBuffers,
    pub(crate) positions: Vec<Point2>,
}

impl VireScratch {
    /// An empty scratch arena; buffers grow to steady-state size on first
    /// use.
    pub fn new() -> Self {
        VireScratch::default()
    }
}

thread_local! {
    /// Scratch for the implicit-arena entry points
    /// ([`PreparedLocalizer::locate`] on [`crate::PreparedVire`] and
    /// [`crate::PreparedLandmarc`], and the one-shot locates that route
    /// through them). One arena per thread keeps `locate_batch` workers
    /// allocation-free without synchronization.
    static SCRATCH: RefCell<VireScratch> = RefCell::new(VireScratch::new());
}

/// Runs `f` with this thread's scratch arena borrowed mutably. `f` must
/// not call back into it: a VIRE locate that falls back to LANDMARC
/// passes its own borrow on instead.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut VireScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarc::Landmarc;
    use crate::nearest::NearestReference;
    use crate::vire_alg::{Vire, VireConfig};
    use vire_geom::{GridData, RegularGrid};

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

    fn sample_readings() -> Vec<TrackingReading> {
        [
            (0.7, 2.2),
            (2.3, 2.4),
            (2.5, 1.3),
            (1.4, 0.6),
            (1.5, 1.5),
            (0.2, 0.3),
            (3.1, 2.8),
        ]
        .iter()
        .map(|&(x, y)| reading_at(Point2::new(x, y)))
        .collect()
    }

    #[test]
    fn batch_matches_sequential_in_order() {
        let refs = map();
        let vire = Vire::default();
        let prepared = vire.prepare(&refs).unwrap();
        let readings = sample_readings();
        let batch = prepared.locate_batch(&readings);
        assert_eq!(batch.len(), readings.len());
        for (reading, batched) in readings.iter().zip(&batch) {
            assert_eq!(
                &prepared.locate(reading).unwrap(),
                batched.as_ref().unwrap()
            );
        }
    }

    #[test]
    fn explicit_scratch_reuse_matches_implicit() {
        let refs = map();
        let prepared = Vire::default().prepare(&refs).unwrap();
        let mut scratch = VireScratch::new();
        for reading in sample_readings() {
            assert_eq!(
                prepared
                    .locate_with_scratch(&reading, &mut scratch)
                    .unwrap(),
                prepared.locate(&reading).unwrap()
            );
        }
    }

    #[test]
    fn default_prepare_matches_one_shot_without_an_owned_form() {
        let refs = map();
        let reading = reading_at(Point2::new(1.2, 2.1));
        // A localizer with no per-map state gets the unprepared adapter.
        let nearest = NearestReference;
        assert!(nearest.prepare_owned(&refs).is_none());
        let boxed = Localizer::prepare(&nearest, &refs);
        assert_eq!(boxed.name(), nearest.name());
        assert_eq!(boxed.locate(&reading), nearest.locate(&refs, &reading));
        // A degenerate VIRE (refine = 0) has no owned form either: the
        // adapter reports the same per-reading error as one-shot.
        let vire = Vire::new(VireConfig {
            refine: 0,
            ..VireConfig::default()
        });
        assert!(matches!(
            vire.prepare(&refs),
            Err(LocalizeError::InsufficientData(_))
        ));
        assert_eq!(
            Localizer::prepare(&vire, &refs)
                .locate(&reading)
                .unwrap_err(),
            vire.locate(&refs, &reading).unwrap_err()
        );
    }

    #[test]
    fn default_prepare_adapter_delegates() {
        let refs = map();
        let lm = Landmarc::default();
        let adapter = Unprepared::new(&lm, &refs);
        let reading = reading_at(Point2::new(1.2, 2.1));
        assert_eq!(adapter.name(), "LANDMARC");
        assert_eq!(
            adapter.locate(&reading).unwrap(),
            lm.locate(&refs, &reading).unwrap()
        );
    }

    #[test]
    fn prepared_errors_match_one_shot_on_reader_mismatch() {
        let refs = map();
        let prepared = Vire::default().prepare(&refs).unwrap();
        let short = TrackingReading::new(vec![-70.0]);
        assert_eq!(
            prepared.locate(&short).unwrap_err(),
            Vire::default().locate(&refs, &short).unwrap_err()
        );
    }

    #[test]
    fn batch_propagates_per_reading_errors_in_place() {
        let refs = map();
        let prepared = Vire::default().prepare(&refs).unwrap();
        let readings = vec![
            reading_at(Point2::new(1.5, 1.5)),
            TrackingReading::new(vec![-70.0]),
            reading_at(Point2::new(2.0, 2.0)),
        ];
        let out = prepared.locate_batch(&readings);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(LocalizeError::ReaderMismatch { .. })));
        assert!(out[2].is_ok());
    }
}
