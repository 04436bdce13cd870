//! The prepared states of VIRE and LANDMARC, and the sync that keeps
//! them in step with a changing calibration map.
//!
//! Each state owns a mirror of its map, so one instance can outlive any
//! single snapshot — [`crate::service::LocationService::drive`] keeps one
//! hot across drives instead of preparing afresh whenever a calibration
//! cell moves:
//!
//! * [`PreparedVire`] — owns the map mirror, the resolved threshold mode,
//!   the virtual grid (a tile-major store: each reader's RSSI range and
//!   values per 4 × 4 tile) and the sweep that writes it, and runs the
//!   one VIRE query core over that store: elimination, weighting, the
//!   centroid, and the LANDMARC fallback on the mirror. Paper §4.2
//!   interpolates each reader's values from that reader's real tags
//!   alone, so [`sync`](OwnedPreparedLocalizer::sync) flags each reader
//!   whose cells changed and re-interpolates exactly those readers,
//!   whole and in place, into their part of the store. A build is the
//!   same per-reader call run for every reader, so the synced state is
//!   **bit-identical** to a from-scratch [`PreparedVire::build`] (pinned
//!   by property tests in `tests/incremental.rs`).
//! * [`PreparedLandmarc`] — the same lifecycle for the LANDMARC
//!   baseline, whose query core reads the mirror's own reader-major
//!   planes, so a changed calibration cell is one O(1) write into the
//!   mirror.
//!
//! Both query cores run through one [`VireScratch`] arena: the caller's,
//! or the calling thread's (see [`crate::prepared`]).
//!
//! These are the only prepared forms: [`Vire::prepare`] and
//! [`Landmarc::prepare`] build them, and the one-shot
//! [`Localizer::locate`](crate::Localizer::locate) of both algorithms is
//! prepare-then-locate on the same state.
//!
//! The map keeps no change record; its writer names the cells it changed
//! (the
//! [`SnapshotSource::take_dirty_cells`](crate::pipeline::SnapshotSource::take_dirty_cells)
//! hint). A new lattice or reader set rebuilds. A non-empty hint for the
//! map `id` the state last synced to is applied in one pass, cell by cell
//! through [`ReferenceRssiMap::set_rssi`], whose `to_bits` compare makes
//! a repeat or a revert cost one compare. Anything else, an empty hint
//! included, bit-diffs the whole coarse map (`readers × nodes` compares)
//! the same way. Debug builds check after every sync that the mirror
//! equals the map bit for bit, so a hint that misses a cell fails loudly.

use crate::elimination::{
    eliminate_into, ElimBuffers, EliminationResult, EliminationWork, ThresholdMode,
};
use crate::kernels;
use crate::landmarc::{inverse_square_weights_into, Landmarc, LandmarcConfig};
use crate::localizer::{check_readers, Estimate, LocalizeError};
use crate::prepared::{with_scratch, PreparedLocalizer, VireScratch};
use crate::types::{ReferenceRssiMap, TrackingReading};
use crate::vire_alg::{EmptyFallback, Vire, VireConfig};
use crate::virtual_grid::{Sweep, VirtualGrid};
use crate::weights::candidate_weights_into;
use vire_geom::{BitGrid, GridIndex, Point2};

/// One changed calibration entry: `(reader, coarse lattice node)`.
pub type DirtyCell = (usize, GridIndex);

/// What [`OwnedPreparedLocalizer::sync`] did to the prepared state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// The map was bit-identical to the synced state; nothing touched.
    Reused,
    /// The given number of coarse cells changed, on some readers but not
    /// all; only the readers owning them were re-interpolated.
    Patched(usize),
    /// Every reader was re-interpolated: each had a changed cell, or the
    /// lattice or reader set changed and the state was built afresh.
    Rebuilt,
}

/// A prepared localizer that owns its state and can follow a calibration
/// map across snapshots, redoing only the work the changed cells reach.
///
/// `sync` must leave the state bit-identical to preparing against `refs`
/// from scratch — callers (the service layer) choose freely between
/// keeping an instance hot and re-preparing, and results never differ.
pub trait OwnedPreparedLocalizer: PreparedLocalizer + Send {
    /// Brings the prepared state up to date with `refs`.
    ///
    /// `hint` names the cells the map's writer changed since the last
    /// sync (see
    /// [`SnapshotSource::take_dirty_cells`](crate::pipeline::SnapshotSource::take_dirty_cells)).
    /// A non-empty hint must name **every** changed cell; it may repeat
    /// cells or name ones that changed back. It is trusted only when
    /// `refs` is the map instance (same [`ReferenceRssiMap::id`]) this
    /// state last synced to. `&[]` is always safe: the state then
    /// bit-diffs the whole coarse map.
    fn sync(&mut self, refs: &ReferenceRssiMap, hint: &[DirtyCell]) -> SyncOutcome;
}

/// Copies into `mirror` every coarse cell whose bits differ in `refs`,
/// calling `flag(k)` for each one's reader, and returns how many changed:
/// the `hint` cells (a repeat or a revert costs one compare), or, with no
/// trusted hint, every cell of the coarse table (`readers × nodes`
/// compares). A hint is trusted when it is non-empty and `refs` is the map
/// instance the state last synced to.
fn adopt_changes(
    mirror: &mut ReferenceRssiMap,
    refs: &ReferenceRssiMap,
    hint: Option<&[DirtyCell]>,
    mut flag: impl FnMut(usize),
) -> usize {
    let mut changed = 0;
    let mut adopt = |k: usize, idx: GridIndex| {
        if mirror.set_rssi(k, idx, refs.rssi(k, idx)) {
            changed += 1;
            flag(k);
        }
    };
    match hint {
        Some(hint) => hint.iter().for_each(|&(k, idx)| adopt(k, idx)),
        None => {
            for k in 0..refs.reader_count() {
                refs.grid().indices().for_each(|idx| adopt(k, idx));
            }
        }
    }
    changed
}

/// Whether the two maps span the same lattice and reader set — the
/// precondition for syncing in place rather than building afresh.
fn same_shape(a: &ReferenceRssiMap, b: &ReferenceRssiMap) -> bool {
    a.grid() == b.grid() && a.readers() == b.readers()
}

/// VIRE bound to one calibration map, surviving across snapshots.
///
/// Owns a mirror of the calibration map and the interpolated virtual
/// grid, whose tile-major store elimination and weighting read in place.
/// [`sync`](OwnedPreparedLocalizer::sync) re-interpolates, in place, each
/// reader whose calibration cells changed.
pub struct PreparedVire {
    config: VireConfig,
    /// Threshold mode with the auto candidate floor already resolved to
    /// `refine²` (see `ThresholdMode::Adaptive::min_candidates`).
    threshold: ThresholdMode,
    grid: VirtualGrid,
    /// Re-interpolates one reader into `grid` (the only writer of its
    /// store).
    sweep: Sweep,
    /// Owned mirror of the source map, bit-identical to it as of the last
    /// sync.
    refs: ReferenceRssiMap,
    /// [`ReferenceRssiMap::id`] of the map last synced to.
    source_id: u64,
    /// `flagged[k]`: reader `k` had a changed cell this sync (all false
    /// between syncs).
    flagged: Vec<bool>,
}

impl PreparedVire {
    /// Builds the prepared state bound to `refs` (cloned into an internal
    /// mirror). Errors when the configuration is degenerate
    /// (`refine == 0`).
    pub fn build(config: &VireConfig, refs: &ReferenceRssiMap) -> Result<Self, LocalizeError> {
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
        Ok(PreparedVire {
            config: config.clone(),
            threshold,
            grid,
            sweep,
            refs: refs.clone(),
            source_id: refs.id(),
            flagged: vec![false; refs.reader_count()],
        })
    }

    /// The cached virtual grid.
    pub fn grid(&self) -> &VirtualGrid {
        &self.grid
    }

    /// The owned mirror of the calibration map.
    pub fn refs(&self) -> &ReferenceRssiMap {
        &self.refs
    }

    /// Localizes one reading through an explicit scratch arena — the
    /// fully allocation-free entry point for callers managing their own
    /// scratch. [`PreparedLocalizer::locate`] is the implicit
    /// (thread-local scratch) equivalent.
    pub fn locate_with_scratch(
        &self,
        reading: &TrackingReading,
        scratch: &mut VireScratch,
    ) -> Result<Estimate, LocalizeError> {
        self.locate_core(reading, scratch).map(|(est, _)| est)
    }

    /// Localizes one reading and also returns the elimination diagnostics
    /// (the final mask and per-reader thresholds; `None` when the
    /// LANDMARC fallback produced the estimate).
    pub fn locate_with_diagnostics(
        &self,
        reading: &TrackingReading,
    ) -> Result<(Estimate, Option<EliminationResult>), LocalizeError> {
        with_scratch(|scratch| {
            let (estimate, eliminated) = self.locate_core(reading, scratch)?;
            Ok((estimate, eliminated.then(|| self.result(&scratch.elim))))
        })
    }

    /// Runs only the elimination stage on one reading: the surviving
    /// mask and per-reader thresholds, or `None` when a fixed threshold
    /// eliminates every region. The same tile-pruned elimination
    /// [`PreparedLocalizer::locate`] runs, without weighting.
    pub fn eliminate(&self, reading: &TrackingReading) -> Option<EliminationResult> {
        with_scratch(|scratch| {
            let elim = &mut scratch.elim;
            eliminate_into(&self.grid, reading, self.threshold, elim, &mut ())
                .then(|| self.result(elim))
        })
    }

    /// The work [`PreparedVire::eliminate`] does on one reading: the
    /// tile ranges it reads, the tiles its smallest-gap scans read, the
    /// tiles phase 1 queues and the tiles whose max-gaps it computes.
    /// Production locates count nothing; this runs the same code with the
    /// counts kept.
    pub fn elimination_work(&self, reading: &TrackingReading) -> EliminationWork {
        let mut work = EliminationWork::default();
        with_scratch(|s| {
            eliminate_into(&self.grid, reading, self.threshold, &mut s.elim, &mut work)
        });
        work
    }

    /// The owned form of the mask and thresholds an elimination left in
    /// `elim`.
    fn result(&self, elim: &ElimBuffers) -> EliminationResult {
        EliminationResult {
            mask: BitGrid::from_words(*self.grid.grid(), elim.mask.clone()),
            thresholds: elim.thresholds.clone(),
        }
    }

    /// The query core every VIRE entry point runs. The bool is false when
    /// the LANDMARC fallback produced the estimate; on true,
    /// `scratch.elim` holds the final mask and thresholds and
    /// `scratch.weights` the candidates and their weights.
    pub(crate) fn locate_core(
        &self,
        reading: &TrackingReading,
        scratch: &mut VireScratch,
    ) -> Result<(Estimate, bool), LocalizeError> {
        check_readers(&self.refs, reading)?;

        let elim = &mut scratch.elim;
        if !eliminate_into(&self.grid, reading, self.threshold, elim, &mut ()) {
            return match self.config.fallback {
                EmptyFallback::Error => Err(LocalizeError::AllEliminated),
                EmptyFallback::Landmarc => {
                    let k = LandmarcConfig::default().k;
                    let est = PreparedLandmarc::locate_core(&self.refs, k, reading, scratch)?;
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

impl PreparedLocalizer for PreparedVire {
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError> {
        with_scratch(|scratch| self.locate_with_scratch(reading, scratch))
    }

    fn name(&self) -> &'static str {
        "VIRE"
    }
}

impl OwnedPreparedLocalizer for PreparedVire {
    fn sync(&mut self, refs: &ReferenceRssiMap, hint: &[DirtyCell]) -> SyncOutcome {
        if !same_shape(&self.refs, refs) {
            *self = PreparedVire::build(&self.config, refs)
                .expect("refine was validated when this instance was built");
            return SyncOutcome::Rebuilt;
        }
        let hint = (refs.id() == self.source_id && !hint.is_empty()).then_some(hint);
        self.source_id = refs.id();
        let flagged = &mut self.flagged;
        let changed = adopt_changes(&mut self.refs, refs, hint, |k| flagged[k] = true);
        let outcome = match changed {
            0 => SyncOutcome::Reused,
            _ if self.flagged.iter().all(|&f| f) => SyncOutcome::Rebuilt,
            n => SyncOutcome::Patched(n),
        };
        for k in 0..self.flagged.len() {
            if std::mem::take(&mut self.flagged[k]) {
                self.sweep.reinterpolate(&mut self.grid, &self.refs, k);
            }
        }
        debug_assert!(
            self.refs.same_bits(refs),
            "VIRE mirror diverged from the map after sync: the hint missed a changed cell"
        );
        outcome
    }
}

impl Vire {
    /// Binds this VIRE configuration to one calibration map, building the
    /// virtual grid once (see [`PreparedVire`]).
    /// Errors when the configuration is degenerate (`refine == 0`).
    pub fn prepare(&self, refs: &ReferenceRssiMap) -> Result<PreparedVire, LocalizeError> {
        PreparedVire::build(self.config(), refs)
    }
}

/// LANDMARC bound to one calibration map, surviving across snapshots: a
/// mirror of the map, whose reader-major RSSI planes
/// (`planes[k * nodes + flat]`) each query's lane-chunked
/// squared-E-distance kernel scans in place. A dirty calibration cell is
/// one write into the mirror.
pub struct PreparedLandmarc {
    config: LandmarcConfig,
    refs: ReferenceRssiMap,
    /// [`ReferenceRssiMap::id`] of the map last synced to.
    source_id: u64,
}

/// LANDMARC's part of the query scratch arena: the kernel's
/// squared-distance plane, the `(e², flat)` selection pairs, and the
/// winners' distances and weights (their positions go in the arena's
/// shared centroid buffer).
#[derive(Debug, Default, Clone)]
pub(crate) struct LandmarcBuffers {
    esq: Vec<f64>,
    scored: Vec<(f64, u32)>,
    distances: Vec<f64>,
    weights: Vec<f64>,
}

impl PreparedLandmarc {
    /// Builds the prepared state bound to `refs` (cloned).
    pub fn build(config: LandmarcConfig, refs: &ReferenceRssiMap) -> Self {
        PreparedLandmarc {
            config,
            refs: refs.clone(),
            source_id: refs.id(),
        }
    }

    /// The mirror's reader-major signal planes — for bit-identity tests.
    pub fn planes(&self) -> &[f64] {
        self.refs.planes()
    }

    /// The query core, over the reader-major planes of `refs`: this
    /// state's mirror, or a VIRE state's when its elimination came up
    /// empty. The reading's reader count must already be checked.
    ///
    /// The per-node E-distance plane comes from the vector kernel in
    /// squared form; selection of the `k` nearest runs on `(e², flat)` —
    /// exact because `sqrt` is monotone, with the flat-index tie-break
    /// reproducing the historical stable sort — and the square root is
    /// taken only for the winners before the inverse-square weighting.
    pub(crate) fn locate_core(
        refs: &ReferenceRssiMap,
        k: usize,
        reading: &TrackingReading,
        scratch: &mut VireScratch,
    ) -> Result<Estimate, LocalizeError> {
        let grid = refs.grid();
        let total_refs = grid.node_count();
        if k == 0 || k > total_refs {
            return Err(LocalizeError::InsufficientData(format!(
                "k = {k} with {total_refs} reference tags"
            )));
        }
        let buf = &mut scratch.landmarc;
        // Same per-node accumulation as `TrackingReading::signal_distance`:
        // Σ_k (θ_k − S_k)², k ascending; node order is the grid's row-major
        // order, as in `Landmarc::signal_distances`.
        kernels::edist_sq_into(refs.planes(), total_refs, reading.rssi(), &mut buf.esq);
        buf.scored.clear();
        let scored = buf
            .esq
            .iter()
            .enumerate()
            .map(|(flat, &e)| (e, flat as u32));
        buf.scored.extend(scored);
        kernels::select_k_smallest(&mut buf.scored, k);

        buf.distances.clear();
        scratch.positions.clear();
        for &(esq, flat) in buf.scored.iter() {
            // Deferred sqrt: e = √(Σ d²) bit-matches the historical per-node
            // sqrt because the sum ran in the same order.
            buf.distances.push(esq.sqrt());
            scratch
                .positions
                .push(grid.position(grid.unflat(flat as usize)));
        }
        inverse_square_weights_into(&buf.distances, &mut buf.weights);

        Point2::weighted_centroid(&scratch.positions, &buf.weights)
            .map(|position| Estimate::new(position, k))
            .ok_or(LocalizeError::DegenerateWeights)
    }
}

impl PreparedLocalizer for PreparedLandmarc {
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError> {
        check_readers(&self.refs, reading)?;
        with_scratch(|scratch| Self::locate_core(&self.refs, self.config.k, reading, scratch))
    }

    fn name(&self) -> &'static str {
        "LANDMARC"
    }
}

impl OwnedPreparedLocalizer for PreparedLandmarc {
    fn sync(&mut self, refs: &ReferenceRssiMap, hint: &[DirtyCell]) -> SyncOutcome {
        if !same_shape(&self.refs, refs) {
            *self = PreparedLandmarc::build(self.config, refs);
            return SyncOutcome::Rebuilt;
        }
        let hint = (refs.id() == self.source_id && !hint.is_empty()).then_some(hint);
        self.source_id = refs.id();
        let changed = adopt_changes(&mut self.refs, refs, hint, |_| {});
        debug_assert!(
            self.refs.same_bits(refs),
            "LANDMARC mirror diverged from the map after sync: the hint missed a changed cell"
        );
        match changed {
            0 => SyncOutcome::Reused,
            n => SyncOutcome::Patched(n),
        }
    }
}

impl Landmarc {
    /// Binds this LANDMARC configuration to one calibration map, mirroring
    /// it (see [`PreparedLandmarc`]).
    pub fn prepare(&self, refs: &ReferenceRssiMap) -> PreparedLandmarc {
        PreparedLandmarc::build(LandmarcConfig { k: self.k() }, refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_geom::{GridData, Point2, RegularGrid};

    fn readers() -> Vec<Point2> {
        vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
        ]
    }

    fn map() -> ReferenceRssiMap {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let fields = readers()
            .iter()
            .map(|r| GridData::from_fn(grid, |_, p| -60.0 - 22.0 * p.distance(*r).max(0.1).log10()))
            .collect();
        ReferenceRssiMap::new(grid, readers(), fields)
    }

    /// Every reader's field of the prepared grid, reader-major, as bits.
    fn grid_bits(prepared: &PreparedVire) -> Vec<u64> {
        let grid = prepared.grid();
        let fields = (0..grid.reader_count()).flat_map(|k| grid.field(k));
        fields.map(f64::to_bits).collect()
    }

    fn assert_matches_fresh(owned: &PreparedVire, refs: &ReferenceRssiMap) {
        let fresh = Vire::default().prepare(refs).unwrap();
        assert_eq!(grid_bits(owned), grid_bits(&fresh));
        let probe = TrackingReading::new(vec![-70.0, -74.5, -77.25]);
        assert_eq!(owned.locate(&probe), fresh.locate(&probe));
    }

    #[test]
    fn sync_patches_the_named_cell_and_matches_fresh() {
        let mut refs = map();
        let mut owned = Vire::default().prepare(&refs).unwrap();
        assert_eq!(owned.sync(&refs, &[]), SyncOutcome::Reused);
        let cell = GridIndex::new(1, 2);
        refs.set_rssi(0, cell, refs.rssi(0, cell) - 4.0);
        assert_eq!(owned.sync(&refs, &[(0, cell)]), SyncOutcome::Patched(1));
        assert_matches_fresh(&owned, &refs);
        // Second sync: the hint names nothing that still differs, and the
        // full diff finds nothing either.
        assert_eq!(owned.sync(&refs, &[(0, cell)]), SyncOutcome::Reused);
        assert_eq!(owned.sync(&refs, &[]), SyncOutcome::Reused);
    }

    #[test]
    fn sync_follows_fresh_identities_and_reshapes() {
        let mut refs = map();
        let mut owned = Vire::default().prepare(&refs).unwrap();
        // A clone has a new id; change two cells.
        let mut other = refs.clone();
        other.set_rssi(1, GridIndex::new(3, 3), -88.25);
        other.set_rssi(2, GridIndex::new(0, 0), -86.5);
        assert_eq!(owned.sync(&other, &[]), SyncOutcome::Patched(2));
        assert_matches_fresh(&owned, &other);
        // Content-identical re-export (another fresh id): reused.
        let reexport = other.clone();
        assert_eq!(owned.sync(&reexport, &[]), SyncOutcome::Reused);
        // The original map, with one more cell moved, now differs from
        // the synced state on every reader (readers 1 and 2 changed
        // back), so every plane is re-interpolated.
        refs.set_rssi(0, GridIndex::new(2, 2), -70.125);
        assert_eq!(owned.sync(&refs, &[]), SyncOutcome::Rebuilt);
        assert_matches_fresh(&owned, &refs);
        // A new reader set rebuilds.
        let smaller = refs.without_reader(2).unwrap();
        assert_eq!(owned.sync(&smaller, &[]), SyncOutcome::Rebuilt);
        assert_matches_fresh(&owned, &smaller);
    }

    #[test]
    fn hint_path_and_diff_path_agree() {
        let mut refs = map();
        let mut hinted = Vire::default().prepare(&refs).unwrap();
        let mut diffed = Vire::default().prepare(&refs).unwrap();
        // Churn on one cell, netting out to a small real change set, plus
        // a cell that changes and reverts.
        let (a, b) = (GridIndex::new(2, 3), GridIndex::new(0, 1));
        for step in 0..120 {
            refs.set_rssi(0, a, -75.0 - (step % 7) as f64 * 0.25);
        }
        let old = refs.rssi(2, b);
        refs.set_rssi(2, b, old - 3.0);
        refs.set_rssi(2, b, old);
        let hint = [(0, a), (2, b), (0, a)];
        assert_eq!(hinted.sync(&refs, &hint), SyncOutcome::Patched(1));
        assert_eq!(diffed.sync(&refs, &[]), SyncOutcome::Patched(1));
        assert_eq!(hinted.sync(&refs, &[]), SyncOutcome::Reused);
        assert_eq!(grid_bits(&hinted), grid_bits(&diffed));
        assert_matches_fresh(&hinted, &refs);
    }
}
