//! The location service: the application-facing layer a deployment runs.
//!
//! A middleware feeds periodic RSSI snapshots; the service localizes each
//! tracking tag (any [`Localizer`]) and maintains a per-tag Kalman track,
//! exposing filtered positions, velocities and uncertainties. This is the
//! "location sensing system" the paper's introduction motivates, assembled
//! from the pieces.

use crate::incremental::{OwnedPreparedLocalizer, SyncOutcome};
use crate::kalman::KalmanTracker;
use crate::localizer::{Estimate, LocalizeError, Localizer};
use crate::pipeline::SnapshotSource;
use crate::types::{ReferenceRssiMap, TrackingReading};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use vire_geom::{Point2, TagHandle, Vec2};

/// A tag key in the service (the deployment's tag identifier).
///
/// An alias of [`vire_geom::TagHandle`]: the key carries both the dense
/// slot index and the slot's lifetime generation. The service keys its
/// tracks by slot and records each track's generation, so a reading from
/// a slot's **newer** lifetime drops the dead lifetime's Kalman track and
/// starts fresh, while a straggler reading from an **older** lifetime can
/// never resurrect or disturb the current track. Fixed-population
/// deployments only ever see generation 0, where the key behaves exactly
/// like the historical dense integer id.
pub type TagKey = TagHandle;

/// One tracked output.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedEstimate {
    /// The raw localizer estimate for this snapshot.
    pub raw: Estimate,
    /// Kalman-filtered position.
    pub position: Point2,
    /// Velocity estimate, m/s.
    pub velocity: Vec2,
    /// Position uncertainty (σx, σy), m.
    pub sigma: (f64, f64),
}

/// A point-in-time location question about one tag lifetime, answerable
/// between drives from the per-tag Kalman track state alone (no
/// localization work, `&self` — queries never block ingestion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationQuery {
    /// The tag lifetime being asked about.
    pub tag: TagKey,
    /// Query time, absolute seconds (same clock as the snapshots).
    pub at: f64,
}

/// The answer to a [`LocationQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// The tag has a live track updated within `stale_after`.
    Fresh {
        /// Dead-reckoned position at the query time (the Kalman state
        /// propagated `age` seconds past its last update).
        position: Point2,
        /// Velocity estimate at the last update, m/s.
        velocity: Vec2,
        /// Position uncertainty (σx, σy) at the last update, m.
        sigma: (f64, f64),
        /// Seconds between the track's last update and the query time.
        age: f64,
    },
    /// The tag was seen, but not recently: its track aged past
    /// `stale_after`, or the lifetime was evicted/churned away. The last
    /// filtered position is reported as-is (dead-reckoning a stale
    /// velocity would extrapolate noise).
    Stale {
        /// Last filtered position before the track went stale.
        position: Point2,
        /// Seconds since that position was computed.
        age: f64,
    },
    /// This tag lifetime was never tracked (or retired long ago).
    Unknown,
}

/// Last known state of a retired track, kept so queries about an evicted
/// or churned-away lifetime can answer `Stale { age }` instead of
/// pretending the tag never existed. Bounded: one entry per slot, pruned
/// by the amortized sweep once [`RETIRED_HORIZON`] sweeps-worth stale.
#[derive(Debug, Clone, Copy)]
struct RetiredTrack {
    /// Lifetime the retired state belongs to.
    generation: u32,
    /// Time of the lifetime's last accepted snapshot.
    last_update: f64,
    /// Last filtered position.
    position: Point2,
}

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Kalman process noise (see [`KalmanTracker::new`]).
    pub process_noise: f64,
    /// Kalman measurement noise.
    pub measurement_noise: f64,
    /// Tracks with no update for this many seconds are dropped.
    pub stale_after: f64,
}

/// Retired-track tombstones outlive live tracks by this factor of
/// [`ServiceConfig::stale_after`] before the sweep forgets them entirely
/// (a [`QueryResponse::Stale`] answer becomes `Unknown` past it).
const RETIRED_HORIZON: f64 = 4.0;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            process_noise: 0.02,
            measurement_noise: 0.09,
            stale_after: 60.0,
        }
    }
}

/// Counters describing how [`LocationService::drive`] maintained its
/// cached prepared localizer across calibration snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Drives where the calibration map was bit-identical to the synced
    /// state, so the prepared localizer was reused untouched.
    pub reused: u64,
    /// Drives that re-interpolated the readers owning changed calibration
    /// cells, but not every reader.
    pub patched: u64,
    /// Total changed cells across all `patched` drives.
    pub patched_cells: u64,
    /// Drives that re-interpolated every reader (each had a changed cell)
    /// or rebuilt the state for a new lattice or reader set.
    pub rebuilt: u64,
}

/// The location service over localizer `L`.
pub struct LocationService<L: Localizer> {
    localizer: L,
    config: ServiceConfig,
    /// Kalman tracks keyed by slot index; each track remembers which
    /// lifetime (generation) of the slot it belongs to.
    tracks: HashMap<u32, Track>,
    /// Time of the last full stale sweep; sweeps are amortized to at most
    /// one HashMap scan per `stale_after` interval instead of one per
    /// snapshot.
    last_sweep: f64,
    /// Owned prepared state persisted across [`LocationService::drive`]
    /// calls and kept in sync with the source map by re-interpolating the
    /// readers whose calibration cells changed.
    /// `None` until the first drive, or when the localizer has no owned
    /// prepared form (then each drive prepares against that drive's map
    /// through [`Localizer::prepare`]).
    prepared: Option<Box<dyn OwnedPreparedLocalizer>>,
    /// Tombstones of evicted/churned lifetimes, for `Stale` query answers.
    retired: HashMap<u32, RetiredTrack>,
    sync_stats: SyncStats,
}

impl<L: Localizer + fmt::Debug> fmt::Debug for LocationService<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocationService")
            .field("localizer", &self.localizer)
            .field("config", &self.config)
            .field("tracks", &self.tracks)
            .field("last_sweep", &self.last_sweep)
            .field("prepared", &self.prepared.as_ref().map(|p| p.name()))
            .field("sync_stats", &self.sync_stats)
            .finish()
    }
}

#[derive(Debug)]
struct Track {
    /// Lifetime of the slot this track belongs to.
    generation: u32,
    filter: KalmanTracker,
    last_update: f64,
}

impl<L: Localizer> LocationService<L> {
    /// Creates a service around a localizer.
    pub fn new(localizer: L, config: ServiceConfig) -> Self {
        LocationService {
            localizer,
            config,
            tracks: HashMap::new(),
            last_sweep: f64::NEG_INFINITY,
            prepared: None,
            retired: HashMap::new(),
            sync_stats: SyncStats::default(),
        }
    }

    /// Answers a location query from track state alone — no localization,
    /// no mutation, `&self`: queries interleave freely with ingestion and
    /// cost O(1).
    ///
    /// * a lifetime updated within `stale_after` answers
    ///   [`QueryResponse::Fresh`] with its dead-reckoned position,
    /// * a lifetime that aged out, was evicted, or lost its slot to a
    ///   newer generation answers [`QueryResponse::Stale`] with its last
    ///   filtered position and exact age,
    /// * anything else is [`QueryResponse::Unknown`].
    pub fn query(&self, q: LocationQuery) -> QueryResponse {
        if let Some(track) = self.tracks.get(&q.tag.index) {
            if track.generation == q.tag.generation {
                let Some(position) = track.filter.position() else {
                    return QueryResponse::Unknown;
                };
                let age = q.at - track.last_update;
                if age <= self.config.stale_after {
                    return QueryResponse::Fresh {
                        position: track.filter.predict(age.max(0.0)).unwrap_or(position),
                        velocity: track.filter.velocity().unwrap_or(Vec2::ZERO),
                        sigma: track.filter.position_sigma().unwrap_or((0.0, 0.0)),
                        age,
                    };
                }
                return QueryResponse::Stale { position, age };
            }
            if track.generation < q.tag.generation {
                // Asking about a lifetime newer than anything seen.
                return QueryResponse::Unknown;
            }
            // The slot churned to a newer lifetime: fall through to the
            // tombstone recorded when this lifetime lost the slot.
        }
        match self.retired.get(&q.tag.index) {
            Some(r) if r.generation == q.tag.generation => QueryResponse::Stale {
                position: r.position,
                age: q.at - r.last_update,
            },
            _ => QueryResponse::Unknown,
        }
    }

    /// Records a dropped track's last state so later queries about that
    /// lifetime answer `Stale` rather than `Unknown`. A tombstone never
    /// regresses to an older generation of the slot.
    fn retire_into(retired: &mut HashMap<u32, RetiredTrack>, index: u32, track: &Track) {
        let Some(position) = track.filter.position() else {
            return;
        };
        let entry = RetiredTrack {
            generation: track.generation,
            last_update: track.last_update,
            position,
        };
        match retired.get(&index) {
            Some(old) if old.generation > entry.generation => {}
            _ => {
                retired.insert(index, entry);
            }
        }
    }

    /// Processes one snapshot for one tag at absolute time `time` seconds.
    ///
    /// Localizes the reading, folds it into the tag's track (creating the
    /// track on first sight), and returns the tracked output. Stale tracks
    /// are evicted opportunistically (amortized; see
    /// [`LocationService::process_snapshot_batch`] for the batch path).
    pub fn observe(
        &mut self,
        time: f64,
        tag: TagKey,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<TrackedEstimate, LocalizeError> {
        let raw = self.localizer.locate(refs, reading)?;
        self.maybe_sweep(time);
        Ok(self.fold(time, tag, raw))
    }

    /// Processes one snapshot covering many tags at absolute time `time`.
    ///
    /// The readings are localized **in parallel** through the localizer's
    /// prepared form ([`Localizer::prepare`] +
    /// [`crate::PreparedLocalizer::locate_batch`]) — the per-map work
    /// (e.g. VIRE's virtual-grid interpolation) happens once for the
    /// whole batch — then the results are folded into the per-tag Kalman
    /// tracks sequentially, in input order. Output order matches input
    /// order; each element is exactly what [`LocationService::observe`]
    /// would have returned for that tag at the same `time`.
    pub fn process_snapshot_batch(
        &mut self,
        time: f64,
        refs: &ReferenceRssiMap,
        snapshots: &[(TagKey, TrackingReading)],
    ) -> Vec<Result<TrackedEstimate, LocalizeError>> {
        // Borrow the readings out of the snapshot slice instead of cloning
        // their RSSI vectors: the prepared batch path only needs `&T`.
        let readings: Vec<&TrackingReading> = snapshots.iter().map(|(_, r)| r).collect();
        let raws = self.localizer.prepare(refs).locate_batch_refs(&readings);
        self.maybe_sweep(time);
        raws.into_iter()
            .zip(snapshots)
            .map(|(raw, &(tag, _))| raw.map(|raw| self.fold(time, tag, raw)))
            .collect()
    }

    /// Drives the service one step from a streaming pipeline stage.
    ///
    /// This is the incremental counterpart of
    /// [`LocationService::process_snapshot_batch`]: instead of localizing
    /// every tag on every snapshot, it asks the stage which tracking tags'
    /// smoothed RSSI actually changed since the last call
    /// ([`SnapshotSource::changed_readings`]) and localizes **only
    /// those**, through the prepared localizer and parallel batch fan-out.
    /// Tags whose readings did not move keep their existing tracks
    /// untouched (their Kalman state still answers
    /// [`LocationService::position`] / [`LocationService::predict`]).
    ///
    /// Across calls, the service keeps an **owned prepared localizer**
    /// ([`Localizer::prepare_owned`]) alive instead of re-preparing per
    /// snapshot: when the calibration map is unchanged the cached state is
    /// reused outright, and when calibration cells moved only the readers
    /// owning them are re-interpolated in place
    /// ([`OwnedPreparedLocalizer::sync`], fed the stage's
    /// [`SnapshotSource::take_dirty_cells`] hint) — bit-identical to a
    /// rebuild. [`LocationService::sync_stats`]
    /// reports which path each drive took.
    ///
    /// Returns one `(tag, result)` per changed tag, in first-dirtied
    /// order; empty when nothing changed or the stage's calibration map is
    /// still incomplete. The stage is the only buffer before locate: the
    /// service reads the map before draining anything, so while it is
    /// incomplete the changed readings and dirty cells stay in the stage,
    /// and a drive that drains no readings leaves the dirty cells there
    /// too. A drain keeps one reading per slot, at the slot's first
    /// position: a later reading of the same or a newer lifetime replaces
    /// it, and an older lifetime's straggler is dropped.
    pub fn drive(
        &mut self,
        stage: &mut dyn SnapshotSource,
    ) -> Vec<(TagKey, Result<TrackedEstimate, LocalizeError>)> {
        let time = stage.snapshot_time();
        // Removals first: a tag despawned upstream must be evicted before
        // its slot's next lifetime (possibly drained in this same call)
        // claims the track.
        for removed in stage.removed_tags() {
            self.evict(removed);
        }
        if stage.reference_map().is_none() {
            return Vec::new();
        }
        let snapshots = newest_per_slot(stage.changed_readings());
        if snapshots.is_empty() {
            return Vec::new();
        }
        let hint = stage.take_dirty_cells();
        let refs = stage
            .reference_map()
            .expect("a source's map stays complete within one drive");

        if self.prepared.is_none() {
            self.prepared = self.localizer.prepare_owned(refs);
        }
        let readings: Vec<&TrackingReading> = snapshots.iter().map(|(_, r)| r).collect();
        let raws = match self.prepared.as_mut() {
            Some(prepared) => {
                match prepared.sync(refs, &hint) {
                    SyncOutcome::Reused => self.sync_stats.reused += 1,
                    SyncOutcome::Patched(cells) => {
                        self.sync_stats.patched += 1;
                        self.sync_stats.patched_cells += cells as u64;
                    }
                    SyncOutcome::Rebuilt => self.sync_stats.rebuilt += 1,
                }
                prepared.locate_batch_refs(&readings)
            }
            // No owned prepared form for this localizer: prepare against
            // this drive's map for this drive only.
            None => self.localizer.prepare(refs).locate_batch_refs(&readings),
        };
        drop(readings);
        self.maybe_sweep(time);
        snapshots
            .into_iter()
            .zip(raws)
            .map(|((tag, _), raw)| (tag, raw.map(|raw| self.fold(time, tag, raw))))
            .collect()
    }

    /// Evicts `tag`'s lifetime, or an older one of its slot, leaving a
    /// tombstone for [`LocationService::query`]; a **newer** lifetime of
    /// the slot is left untouched, so a late-arriving removal of a dead
    /// generation never disturbs the slot's current occupant.
    /// [`LocationService::drive`] calls it for each upstream removal
    /// ([`SnapshotSource::removed_tags`]).
    pub fn evict(&mut self, tag: TagKey) {
        if let Some(track) = self.tracks.get(&tag.index) {
            if track.generation <= tag.generation {
                Self::retire_into(&mut self.retired, tag.index, track);
                self.tracks.remove(&tag.index);
            }
        }
    }

    /// How [`LocationService::drive`] maintained its cached prepared
    /// localizer so far (reused / patched / rebuilt counters).
    pub fn sync_stats(&self) -> SyncStats {
        self.sync_stats
    }

    /// Folds one raw estimate into the tag's track (creating the track on
    /// first sight) and produces the tracked output.
    fn fold(&mut self, time: f64, tag: TagKey, raw: Estimate) -> TrackedEstimate {
        if let Some(track) = self.tracks.get(&tag.index) {
            if track.generation > tag.generation {
                // A straggler from a dead lifetime of this slot: it must
                // never fold into (or resurrect over) the current
                // occupant's track. Answer it statelessly, primed on its
                // own measurement like a first sight.
                return TrackedEstimate {
                    position: raw.position,
                    velocity: Vec2::ZERO,
                    sigma: (0.0, 0.0),
                    raw,
                };
            }
            // A newer lifetime claims the slot: the dead tag's track is
            // dropped and the re-entering tag starts fresh. For the same
            // lifetime, the amortized sweep's safety net still applies: a
            // returning tag whose own track went stale gets a fresh
            // filter immediately, even when the next full sweep hasn't
            // run yet.
            if track.generation < tag.generation
                || time - track.last_update > self.config.stale_after
            {
                Self::retire_into(&mut self.retired, tag.index, track);
                self.tracks.remove(&tag.index);
            }
        }
        let track = self.tracks.entry(tag.index).or_insert_with(|| Track {
            generation: tag.generation,
            filter: KalmanTracker::new(self.config.process_noise, self.config.measurement_noise),
            last_update: f64::NEG_INFINITY,
        });
        // Ignore out-of-order snapshots (a real middleware can deliver
        // duplicates); the previous filtered state stands.
        let position = if time > track.last_update {
            let p = track.filter.update(time, raw.position);
            track.last_update = time;
            p
        } else {
            track.filter.position().unwrap_or(raw.position)
        };

        TrackedEstimate {
            position,
            velocity: track.filter.velocity().unwrap_or(Vec2::ZERO),
            sigma: track.filter.position_sigma().unwrap_or((0.0, 0.0)),
            raw,
        }
    }

    /// The slot's track when it belongs to exactly `tag`'s lifetime.
    fn track_of(&self, tag: TagKey) -> Option<&Track> {
        self.tracks
            .get(&tag.index)
            .filter(|t| t.generation == tag.generation)
    }

    /// Latest filtered position of a tag, if this exact lifetime is
    /// tracked (another generation of the slot answers `None`).
    pub fn position(&self, tag: TagKey) -> Option<Point2> {
        self.track_of(tag).and_then(|t| t.filter.position())
    }

    /// Dead-reckoned position `dt` seconds past a tag's last update.
    pub fn predict(&self, tag: TagKey, dt: f64) -> Option<Point2> {
        self.track_of(tag).and_then(|t| t.filter.predict(dt))
    }

    /// Currently tracked tag keys (unordered), each carrying the
    /// generation its track belongs to.
    pub fn tracked_tags(&self) -> Vec<TagKey> {
        self.tracks
            .iter()
            .map(|(&index, t)| TagKey::new(index, t.generation))
            .collect()
    }

    /// The wrapped localizer.
    pub fn localizer(&self) -> &L {
        &self.localizer
    }

    /// Full stale sweep, amortized: scans the track map at most once per
    /// `stale_after` interval. Tags observed in between are checked
    /// individually in [`LocationService::fold`], so per-snapshot cost no
    /// longer grows with the number of tracked tags.
    fn maybe_sweep(&mut self, now: f64) {
        if now - self.last_sweep < self.config.stale_after {
            return;
        }
        let horizon = self.config.stale_after;
        let retired = &mut self.retired;
        self.tracks.retain(|&index, t| {
            let keep = now - t.last_update <= horizon;
            if !keep {
                Self::retire_into(retired, index, t);
            }
            keep
        });
        // Tombstones are bounded too: queries about a lifetime retired
        // more than `RETIRED_HORIZON` sweeps ago answer `Unknown`.
        retired.retain(|_, r| now - r.last_update <= horizon * RETIRED_HORIZON);
        self.last_sweep = now;
    }
}

/// One reading per slot index, in first-drained order, in one pass: a
/// later reading of the same or a newer lifetime (generation) replaces the
/// slot's reading in place, and a straggler from an older lifetime is
/// dropped rather than clobbering the current occupant's reading.
fn newest_per_slot(drained: Vec<(TagKey, TrackingReading)>) -> Vec<(TagKey, TrackingReading)> {
    let mut at: HashMap<u32, usize> = HashMap::with_capacity(drained.len());
    let mut kept: Vec<(TagKey, TrackingReading)> = Vec::with_capacity(drained.len());
    for (tag, reading) in drained {
        match at.entry(tag.index) {
            Entry::Vacant(slot) => {
                slot.insert(kept.len());
                kept.push((tag, reading));
            }
            Entry::Occupied(slot) => {
                let held = &mut kept[*slot.get()];
                if held.0.generation <= tag.generation {
                    *held = (tag, reading);
                }
            }
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::DirtyCell;
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

    fn rssi(p: Point2, r: Point2) -> f64 {
        -60.0 - 20.0 * p.distance(r).max(0.1).log10()
    }

    fn map() -> ReferenceRssiMap {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let fields = readers()
            .iter()
            .map(|r| GridData::from_fn(grid, |_, p| rssi(p, *r)))
            .collect();
        ReferenceRssiMap::new(grid, readers(), fields)
    }

    fn reading_at(p: Point2) -> TrackingReading {
        TrackingReading::new(readers().iter().map(|r| rssi(p, *r)).collect())
    }

    fn key(n: u32) -> TagKey {
        TagKey::first(n)
    }

    #[test]
    fn observe_creates_and_updates_tracks() {
        let refs = map();
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        let truth = Point2::new(1.4, 1.7);
        let out = svc.observe(0.0, key(7), &refs, &reading_at(truth)).unwrap();
        assert!(out.position.distance(truth) < 0.3);
        assert_eq!(svc.tracked_tags(), vec![key(7)]);
        let out2 = svc.observe(2.0, key(7), &refs, &reading_at(truth)).unwrap();
        assert!(out2.sigma.0 <= out.sigma.0, "uncertainty must not grow");
    }

    #[test]
    fn tracks_are_per_tag() {
        let refs = map();
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        svc.observe(0.0, key(1), &refs, &reading_at(Point2::new(0.6, 0.6)))
            .unwrap();
        svc.observe(0.0, key(2), &refs, &reading_at(Point2::new(2.4, 2.4)))
            .unwrap();
        let p1 = svc.position(key(1)).unwrap();
        let p2 = svc.position(key(2)).unwrap();
        assert!(p1.distance(p2) > 1.0, "tags must not share state");
    }

    #[test]
    fn stale_tracks_are_evicted() {
        let refs = map();
        let cfg = ServiceConfig {
            stale_after: 10.0,
            ..ServiceConfig::default()
        };
        let mut svc = LocationService::new(Vire::default(), cfg);
        svc.observe(0.0, key(1), &refs, &reading_at(Point2::new(1.0, 1.0)))
            .unwrap();
        // A later observation of another tag triggers eviction.
        svc.observe(30.0, key(2), &refs, &reading_at(Point2::new(2.0, 2.0)))
            .unwrap();
        assert_eq!(svc.position(key(1)), None, "tag 1 went stale");
        assert!(svc.position(key(2)).is_some());
    }

    #[test]
    fn evicted_tags_recreate_fresh_tracks() {
        let refs = map();
        let cfg = ServiceConfig {
            stale_after: 10.0,
            ..ServiceConfig::default()
        };
        let mut svc = LocationService::new(Vire::default(), cfg);
        // Build up a moving track for tag 1 so its filter carries velocity.
        svc.observe(0.0, key(1), &refs, &reading_at(Point2::new(0.5, 0.5)))
            .unwrap();
        svc.observe(5.0, key(1), &refs, &reading_at(Point2::new(1.0, 1.0)))
            .unwrap();
        // Keep the service busy with tag 2; the sweep at t = 12 keeps
        // tag 1 (12 − 5 = 7 ≤ 10) and stamps last_sweep = 12, so no full
        // sweep runs again before t = 22.
        svc.observe(12.0, key(2), &refs, &reading_at(Point2::new(2.0, 2.0)))
            .unwrap();
        // Tag 1 returns at t = 16: stale (16 − 5 = 11 > 10) but the next
        // amortized sweep is not due yet — the per-tag check must still
        // hand it a fresh track, not resume the old filter.
        let out = svc
            .observe(16.0, key(1), &refs, &reading_at(Point2::new(2.5, 2.5)))
            .unwrap();
        assert_eq!(
            out.position, out.raw.position,
            "a fresh track primes on the measurement"
        );
        assert_eq!(out.velocity, Vec2::ZERO, "stale velocity must not leak");
    }

    #[test]
    fn batch_matches_sequential_observes() {
        let refs = map();
        let spots = [(1u32, 0.6, 0.6), (2u32, 2.4, 2.4), (3u32, 1.5, 0.9)];
        let snapshots: Vec<(TagKey, TrackingReading)> = spots
            .iter()
            .map(|&(tag, x, y)| (key(tag), reading_at(Point2::new(x, y))))
            .collect();

        let mut batch_svc = LocationService::new(Vire::default(), ServiceConfig::default());
        let mut seq_svc = LocationService::new(Vire::default(), ServiceConfig::default());
        for time in [0.0, 1.0, 2.0] {
            let batched = batch_svc.process_snapshot_batch(time, &refs, &snapshots);
            for ((tag, reading), out) in snapshots.iter().zip(batched) {
                let sequential = seq_svc.observe(time, *tag, &refs, reading).unwrap();
                assert_eq!(out.unwrap(), sequential);
            }
        }
    }

    #[test]
    fn batch_propagates_errors_without_touching_tracks() {
        let refs = map();
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        let snapshots = vec![
            (key(1), reading_at(Point2::new(1.0, 1.0))),
            (key(2), TrackingReading::new(vec![-70.0])),
        ];
        let out = svc.process_snapshot_batch(0.0, &refs, &snapshots);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert_eq!(svc.tracked_tags(), vec![key(1)]);
    }

    #[test]
    fn out_of_order_snapshots_are_ignored() {
        let refs = map();
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        let truth = Point2::new(1.5, 1.5);
        svc.observe(10.0, key(1), &refs, &reading_at(truth))
            .unwrap();
        let before = svc.position(key(1)).unwrap();
        // A duplicate at an earlier time must not disturb the track.
        let out = svc
            .observe(5.0, key(1), &refs, &reading_at(Point2::new(0.2, 0.2)))
            .unwrap();
        assert_eq!(out.position, before);
        assert_eq!(svc.position(key(1)), Some(before));
    }

    /// A hand-driven pipeline stage for exercising `drive` without the
    /// simulator.
    struct MockStage {
        time: f64,
        map: ReferenceRssiMap,
        dirty: Vec<(TagKey, TrackingReading)>,
        /// Calibration cells written since the last drain.
        cells: Vec<DirtyCell>,
        complete: bool,
    }

    impl SnapshotSource for MockStage {
        fn snapshot_time(&self) -> f64 {
            self.time
        }
        fn reference_map(&mut self) -> Option<&ReferenceRssiMap> {
            self.complete.then_some(&self.map)
        }
        fn changed_readings(&mut self) -> Vec<(TagKey, TrackingReading)> {
            std::mem::take(&mut self.dirty)
        }
        fn take_dirty_cells(&mut self) -> Vec<DirtyCell> {
            std::mem::take(&mut self.cells)
        }
    }

    #[test]
    fn drive_localizes_only_changed_tags_and_matches_observe() {
        let mut stage = MockStage {
            time: 0.0,
            map: map(),
            dirty: vec![
                (key(1), reading_at(Point2::new(0.6, 0.6))),
                (key(2), reading_at(Point2::new(2.4, 2.4))),
            ],
            cells: Vec::new(),
            complete: true,
        };
        let mut driven = LocationService::new(Vire::default(), ServiceConfig::default());
        let mut reference = LocationService::new(Vire::default(), ServiceConfig::default());

        let out = driven.drive(&mut stage);
        assert_eq!(out.len(), 2);
        for (tag, result) in &out {
            let expect = reference
                .observe(0.0, *tag, &map(), &stage_reading(*tag))
                .unwrap();
            assert_eq!(result.as_ref().unwrap(), &expect, "tag {tag}");
        }

        // Nothing dirty -> nothing localized, but tracks persist.
        stage.time = 2.0;
        assert!(driven.drive(&mut stage).is_empty());
        assert!(driven.position(key(1)).is_some());

        // Only tag 2 changes -> only tag 2 is localized.
        stage.dirty = vec![(key(2), reading_at(Point2::new(2.0, 2.0)))];
        let out = driven.drive(&mut stage);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, key(2));
    }

    fn stage_reading(tag: TagKey) -> TrackingReading {
        match tag.index {
            1 => reading_at(Point2::new(0.6, 0.6)),
            2 => reading_at(Point2::new(2.4, 2.4)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn drive_drains_nothing_until_the_map_completes() {
        let mut stage = MockStage {
            time: 0.0,
            map: map(),
            dirty: vec![(key(1), reading_at(Point2::new(1.0, 1.0)))],
            cells: vec![(0, map().grid().unflat(5))],
            complete: false,
        };
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        assert!(svc.drive(&mut stage).is_empty());
        assert_eq!(stage.dirty.len(), 1, "the stage keeps the reading");
        assert_eq!(stage.cells.len(), 1, "the stage keeps the hint");
        // The tag re-dirties while the map is still incomplete: the stage
        // holds its newest reading.
        stage.dirty = vec![(key(1), reading_at(Point2::new(1.5, 1.5)))];
        assert!(svc.drive(&mut stage).is_empty());
        stage.complete = true;
        let out = svc.drive(&mut stage);
        assert_eq!(out.len(), 1, "the tag localizes once the map is up");
        assert!(stage.dirty.is_empty() && stage.cells.is_empty());
        let expect = LocationService::new(Vire::default(), ServiceConfig::default())
            .observe(0.0, key(1), &map(), &reading_at(Point2::new(1.5, 1.5)))
            .unwrap();
        assert_eq!(out[0].1.as_ref().unwrap(), &expect, "newest reading wins");
    }

    #[test]
    fn drive_keeps_the_newest_lifetime_per_slot_in_first_drained_order() {
        let (old, new) = (TagKey::new(5, 0), TagKey::new(5, 1));
        let (at_old, at_new, at_two) = (
            reading_at(Point2::new(0.6, 0.6)),
            reading_at(Point2::new(2.4, 2.4)),
            reading_at(Point2::new(1.5, 0.9)),
        );
        let fresh = |tag: TagKey, reading: &TrackingReading| {
            LocationService::new(Vire::default(), ServiceConfig::default())
                .observe(0.0, tag, &map(), reading)
                .unwrap()
        };
        let drive = |dirty: Vec<(TagKey, TrackingReading)>| {
            let mut stage = MockStage {
                time: 0.0,
                map: map(),
                dirty,
                cells: Vec::new(),
                complete: true,
            };
            LocationService::new(Vire::default(), ServiceConfig::default()).drive(&mut stage)
        };
        let expect = vec![
            (new, Ok(fresh(new, &at_new))),
            (key(2), Ok(fresh(key(2), &at_two))),
        ];
        // The newer lifetime replaces the older one in place, and an
        // older lifetime's straggler is dropped.
        let newer_last = vec![
            (old, at_old.clone()),
            (key(2), at_two.clone()),
            (new, at_new.clone()),
        ];
        assert_eq!(drive(newer_last), expect);
        let older_last = vec![
            (new, at_new.clone()),
            (key(2), at_two),
            (old, at_old.clone()),
        ];
        assert_eq!(drive(older_last), expect);
        // A repeated key keeps its newest reading.
        let repeated = vec![(key(3), at_old), (key(3), at_new.clone())];
        assert_eq!(drive(repeated), vec![(key(3), Ok(fresh(key(3), &at_new)))]);
    }

    #[test]
    fn drive_patches_cached_state_on_calibration_change() {
        let mut stage = MockStage {
            time: 0.0,
            map: map(),
            dirty: vec![(key(1), reading_at(Point2::new(0.6, 0.6)))],
            cells: Vec::new(),
            complete: true,
        };
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        svc.drive(&mut stage);
        assert_eq!(svc.sync_stats().reused, 1, "first drive binds the map");

        // One calibration cell moves; the next drive must patch, not
        // rebuild, and the estimate must match a service localizing
        // against the updated map from scratch.
        let cell = stage.map.grid().unflat(5);
        stage.map.set_rssi(2, cell, -64.25);
        stage.time = 1.0;
        stage.dirty = vec![(key(2), reading_at(Point2::new(2.4, 2.4)))];
        let out = svc.drive(&mut stage);
        assert_eq!(svc.sync_stats().patched, 1);
        assert_eq!(svc.sync_stats().patched_cells, 1);
        assert_eq!(svc.sync_stats().rebuilt, 0);
        let expect = LocationService::new(Vire::default(), ServiceConfig::default())
            .observe(1.0, key(2), &stage.map, &reading_at(Point2::new(2.4, 2.4)))
            .unwrap();
        assert_eq!(out[0].1.as_ref().unwrap(), &expect);

        // An unchanged map on the next drive is reused outright.
        stage.time = 2.0;
        stage.dirty = vec![(key(2), reading_at(Point2::new(2.0, 2.0)))];
        svc.drive(&mut stage);
        assert_eq!(svc.sync_stats().reused, 2);
    }

    #[test]
    fn quiet_drives_leave_the_dirty_cells_in_the_stage() {
        let mut stage = MockStage {
            time: 0.0,
            map: map(),
            dirty: vec![(key(1), reading_at(Point2::new(0.6, 0.6)))],
            cells: Vec::new(),
            complete: true,
        };
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        svc.drive(&mut stage);
        let (readers, nodes) = (stage.map.reader_count(), stage.map.grid().node_count());
        // The reference tags keep re-calibrating the map for 10,000
        // drives while no tracking reading changes: every drive returns
        // early without taking the hint, which stays in the stage (deduped
        // there, as a real stage does).
        for n in 0..10_000 {
            let (k, idx) = (n % readers, stage.map.grid().unflat(n / readers % nodes));
            if stage.map.set_rssi(k, idx, -70.0 - (n % 11) as f64 * 0.5)
                && !stage.cells.contains(&(k, idx))
            {
                stage.cells.push((k, idx));
            }
            let held = stage.cells.len();
            stage.time = n as f64 * 0.01;
            assert!(svc.drive(&mut stage).is_empty());
            assert_eq!(stage.cells.len(), held, "drive {n} took the hint");
        }
        assert_eq!(stage.cells.len(), readers * nodes);
        // The next tracking change syncs through the stage's hint and
        // matches a service localizing against the final map from scratch.
        let reading = reading_at(Point2::new(2.4, 1.9));
        stage.time = 100.0;
        stage.dirty = vec![(key(2), reading.clone())];
        let out = svc.drive(&mut stage);
        let expect = LocationService::new(Vire::default(), ServiceConfig::default())
            .observe(100.0, key(2), &stage.map, &reading)
            .unwrap();
        assert_eq!(out[0].1.as_ref().unwrap(), &expect);
        assert!(stage.cells.is_empty(), "the sync took the hint");
    }

    #[test]
    fn evict_and_predict() {
        let refs = map();
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        svc.observe(0.0, key(1), &refs, &reading_at(Point2::new(1.0, 2.0)))
            .unwrap();
        assert!(svc.predict(key(1), 2.0).is_some());
        svc.evict(key(1));
        assert_eq!(svc.predict(key(1), 2.0), None);
        assert!(svc.tracked_tags().is_empty());
    }

    #[test]
    fn query_fresh_dead_reckons_between_drives() {
        let refs = map();
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        svc.observe(0.0, key(1), &refs, &reading_at(Point2::new(0.8, 0.8)))
            .unwrap();
        svc.observe(2.0, key(1), &refs, &reading_at(Point2::new(1.2, 1.2)))
            .unwrap();
        let q = LocationQuery {
            tag: key(1),
            at: 3.0,
        };
        match svc.query(q) {
            QueryResponse::Fresh { position, age, .. } => {
                assert_eq!(age, 1.0);
                assert_eq!(
                    Some(position),
                    svc.predict(key(1), 1.0),
                    "a fresh answer is the dead-reckoned Kalman state"
                );
            }
            other => panic!("expected Fresh, got {other:?}"),
        }
        // Unseen tags are Unknown, not invented.
        assert_eq!(
            svc.query(LocationQuery {
                tag: key(9),
                at: 3.0
            }),
            QueryResponse::Unknown
        );
    }

    #[test]
    fn query_stale_for_aged_and_evicted_tracks() {
        let refs = map();
        let cfg = ServiceConfig {
            stale_after: 10.0,
            ..ServiceConfig::default()
        };
        let mut svc = LocationService::new(Vire::default(), cfg);
        svc.observe(0.0, key(1), &refs, &reading_at(Point2::new(1.0, 1.0)))
            .unwrap();
        let held = svc.position(key(1)).unwrap();
        // Aged past stale_after but not yet swept: Stale with exact age.
        assert_eq!(
            svc.query(LocationQuery {
                tag: key(1),
                at: 25.0
            }),
            QueryResponse::Stale {
                position: held,
                age: 25.0
            }
        );
        // Explicit eviction leaves a tombstone answering Stale too.
        svc.evict(key(1));
        assert_eq!(svc.position(key(1)), None);
        assert_eq!(
            svc.query(LocationQuery {
                tag: key(1),
                at: 30.0
            }),
            QueryResponse::Stale {
                position: held,
                age: 30.0
            }
        );
    }

    #[test]
    fn query_answers_churned_lifetimes_from_tombstones() {
        let refs = map();
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        let old = TagKey::new(1, 0);
        let new = TagKey::new(1, 1);
        svc.observe(0.0, old, &refs, &reading_at(Point2::new(0.6, 0.6)))
            .unwrap();
        let old_pos = svc.position(old).unwrap();
        // The slot churns to generation 1: the old lifetime's track is
        // replaced, but queries about it answer Stale, not Unknown.
        svc.observe(5.0, new, &refs, &reading_at(Point2::new(2.4, 2.4)))
            .unwrap();
        assert_eq!(
            svc.query(LocationQuery { tag: old, at: 6.0 }),
            QueryResponse::Stale {
                position: old_pos,
                age: 6.0
            }
        );
        assert!(matches!(
            svc.query(LocationQuery { tag: new, at: 6.0 }),
            QueryResponse::Fresh { .. }
        ));
        // A lifetime newer than anything seen is Unknown.
        assert_eq!(
            svc.query(LocationQuery {
                tag: TagKey::new(1, 2),
                at: 6.0
            }),
            QueryResponse::Unknown
        );
    }

    #[test]
    fn tombstones_age_out_of_the_sweep() {
        let refs = map();
        let cfg = ServiceConfig {
            stale_after: 10.0,
            ..ServiceConfig::default()
        };
        let mut svc = LocationService::new(Vire::default(), cfg);
        svc.observe(0.0, key(1), &refs, &reading_at(Point2::new(1.0, 1.0)))
            .unwrap();
        svc.evict(key(1));
        assert!(matches!(
            svc.query(LocationQuery {
                tag: key(1),
                at: 20.0
            }),
            QueryResponse::Stale { .. }
        ));
        // A sweep at 25 s keeps it: 25 s is within the retired horizon
        // (4 × stale_after = 40 s).
        svc.observe(25.0, key(2), &refs, &reading_at(Point2::new(2.0, 2.0)))
            .unwrap();
        assert!(matches!(
            svc.query(LocationQuery {
                tag: key(1),
                at: 25.0
            }),
            QueryResponse::Stale { .. }
        ));
        // Keep the service alive far past the retired horizon: the
        // tombstone is pruned.
        svc.observe(100.0, key(2), &refs, &reading_at(Point2::new(2.0, 2.0)))
            .unwrap();
        assert_eq!(
            svc.query(LocationQuery {
                tag: key(1),
                at: 100.0
            }),
            QueryResponse::Unknown
        );
    }

    #[test]
    fn localize_failure_propagates_without_touching_tracks() {
        let refs = map();
        let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
        let short = TrackingReading::new(vec![-70.0]);
        assert!(svc.observe(0.0, key(1), &refs, &short).is_err());
        assert!(svc.tracked_tags().is_empty());
    }
}
