//! Prepared (two-phase) localization: bind a localizer to one calibration
//! map once, then answer many queries cheaply.
//!
//! VIRE's map-dependent work — interpolating the virtual grid (§4.2) into
//! its tile-major store (each reader's RSSI range and 16 values per 4 × 4
//! tile) — does not depend on the reading. Each locate reads only that
//! store: one pass over the ranges bounds every tile's gaps, and only the
//! tiles that can hold a reader's smallest gap or a survivor have their
//! values read.
//! This module holds the query side of that split:
//!
//! * the [`PreparedLocalizer`] trait every prepared form implements, with
//!   an order-preserving [`PreparedLocalizer::locate_batch`] that fans a
//!   slice of readings across the [`WorkerPool`](crate::pool::WorkerPool)
//!   (each lane with its own thread-local scratch);
//! * the VIRE and LANDMARC query cores, which run elimination and
//!   weighting through a reusable [`VireScratch`] arena, so steady state
//!   performs **zero heap allocation** per reading;
//! * [`Unprepared`], the adapter for localizers with no per-map state.
//!
//! The prepared states themselves, [`crate::PreparedVire`] and
//! [`crate::PreparedLandmarc`], own a mirror of their map and live in
//! [`crate::incremental`] beside the `sync` that updates them. They are
//! the only prepared form of either algorithm: one-shot
//! [`Localizer::locate`] is prepare-then-locate on the same state, so
//! there is a single code path to trust.

use std::borrow::Borrow;
use std::cell::RefCell;

use crate::elimination::{eliminate_into, ElimBuffers, Tally, ThresholdMode};
use crate::kernels;
use crate::landmarc::{inverse_square_weights_into, Landmarc, LandmarcConfig};
use crate::localizer::{check_readers, Estimate, LocalizeError, Localizer};
use crate::types::{ReferenceRssiMap, TrackingReading};
use crate::vire_alg::{EmptyFallback, VireConfig};
use crate::virtual_grid::{Sweep, VirtualGrid};
use crate::weights::{candidate_weights_into, WeightBuffers};
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

/// Reusable per-thread scratch arena for [`crate::PreparedVire`] queries:
/// elimination gaps and masks, candidate/weight buffers, and the
/// centroid position buffer. After the first query every vector has its
/// steady-state capacity, so subsequent queries allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct VireScratch {
    pub(crate) elim: ElimBuffers,
    pub(crate) weights: WeightBuffers,
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
    /// ([`PreparedLocalizer::locate`] on [`crate::PreparedVire`], and the
    /// one-shot `Vire::locate` which routes through it). One arena per
    /// thread keeps `locate_batch` workers allocation-free without
    /// synchronization.
    static VIRE_SCRATCH: RefCell<VireScratch> = RefCell::new(VireScratch::new());
}

/// Runs `f` with this thread's VIRE scratch borrowed mutably.
pub(crate) fn with_vire_scratch<R>(f: impl FnOnce(&mut VireScratch) -> R) -> R {
    VIRE_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The map-bound core of [`crate::PreparedVire`]: the interpolated
/// [`VirtualGrid`] (the tile store elimination and weighting read), the
/// sweep that re-interpolates a reader into it, and the resolved
/// threshold mode.
pub(crate) struct VireState {
    pub(crate) config: VireConfig,
    pub(crate) grid: VirtualGrid,
    pub(crate) sweep: Sweep,
    /// Threshold mode with the auto candidate floor already resolved to
    /// `refine²` (see `ThresholdMode::Adaptive::min_candidates`).
    pub(crate) threshold: ThresholdMode,
}

impl VireState {
    /// Interpolates the virtual grid of `refs`. Errors when the
    /// configuration is degenerate (`refine == 0`).
    pub(crate) fn build(
        config: &VireConfig,
        refs: &ReferenceRssiMap,
    ) -> Result<Self, LocalizeError> {
        if config.refine == 0 {
            return Err(LocalizeError::InsufficientData(
                "refinement factor must be >= 1".into(),
            ));
        }
        let mut sweep = Sweep::new(refs.grid(), config.refine, config.kernel);
        let grid = sweep.build(refs);
        // Resolve the auto candidate floor: one physical cell's worth of
        // virtual regions (n²) keeps elimination from degenerating into a
        // single-cell snap (see ThresholdMode::Adaptive::min_candidates).
        let threshold = match config.threshold {
            ThresholdMode::Adaptive {
                step,
                min,
                per_reader,
                min_candidates: 0,
            } => ThresholdMode::Adaptive {
                step,
                min,
                per_reader,
                min_candidates: config.refine * config.refine,
            },
            other => other,
        };
        Ok(VireState {
            config: config.clone(),
            grid,
            sweep,
            threshold,
        })
    }

    /// Elimination over the grid's tile store (see `eliminate_into`),
    /// counting its work into `work`: `false` when a fixed threshold left
    /// nothing.
    pub(crate) fn eliminate(
        &self,
        reading: &TrackingReading,
        buf: &mut ElimBuffers,
        work: &mut impl Tally,
    ) -> bool {
        eliminate_into(&self.grid, reading, self.threshold, buf, work)
    }

    /// Query core shared by every VIRE entry point (prepared, batch, and
    /// the one-shot [`crate::Vire::locate_with_diagnostics`]). `refs`
    /// supplies the reader count check and the LANDMARC fallback; it must
    /// be the map this state was built from (bit-identical values). The
    /// bool is false when the fallback produced the estimate (no
    /// elimination diagnostics exist); on true, `scratch.elim` holds the
    /// final mask and thresholds.
    pub(crate) fn locate_core(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
        scratch: &mut VireScratch,
    ) -> Result<(Estimate, bool), LocalizeError> {
        check_readers(refs, reading)?;

        if !self.eliminate(reading, &mut scratch.elim, &mut ()) {
            return match self.config.fallback {
                EmptyFallback::Error => Err(LocalizeError::AllEliminated),
                EmptyFallback::Landmarc => {
                    let est = Landmarc::new(LandmarcConfig::default()).locate(refs, reading)?;
                    Ok((est, false))
                }
            };
        }

        if !candidate_weights_into(
            &self.grid,
            reading,
            &scratch.elim.mask,
            self.config.weighting,
            self.config.w1,
            &mut scratch.weights,
        ) {
            return Err(LocalizeError::DegenerateWeights);
        }

        let fine = self.grid.grid();
        scratch.positions.clear();
        scratch.positions.extend(
            scratch
                .weights
                .candidates
                .iter()
                .map(|&flat| fine.position(fine.unflat(flat))),
        );
        let position = Point2::weighted_centroid(&scratch.positions, &scratch.weights.weights)
            .ok_or(LocalizeError::DegenerateWeights)?;

        let estimate = Estimate {
            position,
            contributors: scratch.weights.candidates.len(),
            threshold: scratch.elim.thresholds.iter().copied().reduce(f64::max),
        };
        Ok((estimate, true))
    }
}

/// Scratch for [`crate::PreparedLandmarc`] queries:
/// the kernel's squared-distance plane, the `(e², flat)` selection pairs,
/// and the winner distance/position/weight buffers.
#[derive(Debug, Default)]
pub(crate) struct LandmarcScratch {
    esq: Vec<f64>,
    scored: Vec<(f64, u32)>,
    distances: Vec<f64>,
    positions: Vec<Point2>,
    weights: Vec<f64>,
}

thread_local! {
    static LANDMARC_SCRATCH: RefCell<LandmarcScratch> = RefCell::new(LandmarcScratch::default());
}

/// Runs `f` with this thread's LANDMARC scratch borrowed mutably.
pub(crate) fn with_landmarc_scratch<R>(f: impl FnOnce(&mut LandmarcScratch) -> R) -> R {
    LANDMARC_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// LANDMARC query core over the reader-major planes of
/// [`crate::PreparedLandmarc`].
///
/// The per-node E-distance plane comes from the vector kernel in squared
/// form; selection of the `k_select` nearest runs on `(e², flat)` — exact
/// because `sqrt` is monotone, with the flat-index tie-break reproducing
/// the historical stable sort — and the square root is taken only for the
/// winners before the inverse-square weighting.
pub(crate) fn landmarc_locate_core(
    planes: &[f64],
    positions: &[Point2],
    k_select: usize,
    reading: &TrackingReading,
    scratch: &mut LandmarcScratch,
) -> Result<Estimate, LocalizeError> {
    let total_refs = positions.len();
    if k_select == 0 || k_select > total_refs {
        return Err(LocalizeError::InsufficientData(format!(
            "k = {k_select} with {total_refs} reference tags"
        )));
    }
    // Same per-node accumulation as `TrackingReading::signal_distance`:
    // Σ_k (θ_k − S_k)², k ascending; node order is the grid's row-major
    // order, as in `Landmarc::signal_distances`.
    kernels::edist_sq_into(planes, total_refs, reading.rssi(), &mut scratch.esq);
    scratch.scored.clear();
    scratch.scored.extend(
        scratch
            .esq
            .iter()
            .enumerate()
            .map(|(flat, &e)| (e, flat as u32)),
    );
    kernels::select_k_smallest(&mut scratch.scored, k_select);

    scratch.distances.clear();
    scratch.positions.clear();
    for &(esq, flat) in scratch.scored.iter() {
        // Deferred sqrt: e = √(Σ d²) bit-matches the historical per-node
        // sqrt because the sum ran in the same order.
        scratch.distances.push(esq.sqrt());
        scratch.positions.push(positions[flat as usize]);
    }
    inverse_square_weights_into(&scratch.distances, &mut scratch.weights);

    Point2::weighted_centroid(&scratch.positions, &scratch.weights)
        .map(|position| Estimate::new(position, k_select))
        .ok_or(LocalizeError::DegenerateWeights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nearest::NearestReference;
    use crate::vire_alg::Vire;
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
