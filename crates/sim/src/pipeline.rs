//! The middleware pipeline stage.
//!
//! The streaming data path is `engine → middleware stage → location
//! service`: the engine (or a serving front end) hands every decoded
//! [`Reading`] to [`MiddlewareStage::ingest`], which applies the smoothing
//! filters per event and tracks exactly which `(tag, reader)` cells
//! changed, so downstream exports touch only dirty state:
//!
//! * [`MiddlewareStage::reference_map`] exports the calibration map once,
//!   and each ingest rewrites in place only the cells whose smoothed value
//!   moved,
//! * [`MiddlewareStage::changed_readings`] drains only the tracking tags
//!   whose reading vector changed since the last drain and that every
//!   reader has heard,
//! * [`MiddlewareStage::take_dirty_cells`] drains the calibration cells
//!   whose cached-map value bit-changed, feeding the service's
//!   incremental prepared-state sync
//!   ([`vire_core::incremental`]).
//!
//! A stage built with [`MiddlewareStage::new`] can also read a
//! [`vire_bus::EventBus`] through its own [`vire_bus::ReaderToken`]:
//! [`MiddlewareStage::pump`] drains the bus into the same smoothing loop
//! and counts what the ring overwrote. The library's own pipelines hand
//! readings over directly and build their stages with
//! [`MiddlewareStage::detached`].
//!
//! The stage keeps no per-tag state of its own: the pins, the filters and
//! the first-dirtied list of tracking tags are rows of the middleware's
//! tag table ([`crate::middleware`]), so each ingested reading costs one
//! keyed lookup.
//!
//! The stage implements [`vire_core::SnapshotSource`], so
//! [`vire_core::LocationService::drive`] can poll it incrementally —
//! localizing nothing when the deployment is quiet.

use crate::middleware::{Middleware, Reading};
use crate::tag::TagId;
use vire_bus::{EventBus, ReaderToken};
use vire_core::{DirtyCell, ReferenceRssiMap, SnapshotSource, TrackingReading};
use vire_geom::{GridIndex, Point2, RegularGrid};

/// What one [`MiddlewareStage::ingest`] or [`MiddlewareStage::pump`]
/// call consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PumpStats {
    /// Events ingested.
    pub events: usize,
    /// Events whose smoothed `(tag, reader)` value changed.
    pub changed: usize,
    /// Events lost to bus overwriting before this pump (the stage fell
    /// more than the bus capacity behind); always 0 from an ingest.
    pub lagged: u64,
    /// Tags evicted from the full tag table to make room for new ones
    /// (see [`crate::middleware::MAX_TAGS`]).
    pub evicted: usize,
}

/// A middleware consuming [`Reading`] events, with incremental dirty-cell
/// tracking. See the [module docs](self).
#[derive(Debug)]
pub struct MiddlewareStage {
    middleware: Middleware,
    /// Bus position read by [`MiddlewareStage::pump`]; `None` for a
    /// [`MiddlewareStage::detached`] stage.
    token: Option<ReaderToken>,
    /// Timestamp of the newest ingested reading.
    clock: f64,
    /// Total events lost to bus overwriting across all pumps.
    lagged_total: u64,
    grid: RegularGrid,
    readers: Vec<Point2>,
    /// Last exported calibration map, updated in place as reference
    /// readings are ingested. Until its first full export there is nothing
    /// to update: that export reads every smoothed value itself.
    cached_map: Option<ReferenceRssiMap>,
    /// Cells whose `cached_map` value bit-changed, not yet drained by
    /// [`MiddlewareStage::take_dirty_cells`]. This is the only record of
    /// how `cached_map` changed, so every bit-changing write lands here.
    service_dirty: Vec<DirtyCell>,
    /// `service_pending[k * nodes + flat]`: cell `(k, flat)` is in
    /// `service_dirty`, so it holds each cell at most once.
    service_pending: Vec<bool>,
    /// Tracking tags removed upstream or evicted from the full tag table,
    /// not yet drained by [`MiddlewareStage::take_removed_tags`].
    removed: Vec<TagId>,
}

impl MiddlewareStage {
    /// Wraps `middleware` as a pipeline stage reading from the bus
    /// position captured in `token` (see [`MiddlewareStage::pump`]);
    /// otherwise as [`MiddlewareStage::detached`].
    pub fn new(
        middleware: Middleware,
        grid: RegularGrid,
        readers: Vec<Point2>,
        token: ReaderToken,
    ) -> Self {
        MiddlewareStage {
            token: Some(token),
            ..MiddlewareStage::detached(middleware, grid, readers)
        }
    }

    /// Wraps `middleware` as a pipeline stage fed through
    /// [`MiddlewareStage::ingest`]. `grid` and `readers` describe the
    /// deployment; pin reference tags with
    /// [`MiddlewareStage::pin_reference`].
    pub fn detached(middleware: Middleware, grid: RegularGrid, readers: Vec<Point2>) -> Self {
        let cells = readers.len() * grid.node_count();
        MiddlewareStage {
            middleware,
            token: None,
            clock: 0.0,
            lagged_total: 0,
            grid,
            readers,
            cached_map: None,
            service_dirty: Vec::new(),
            service_pending: vec![false; cells],
            removed: Vec::new(),
        }
    }

    /// Notes that tracking tag `id` was removed upstream: its smoothing
    /// streams are reset in the middleware, any pending dirty entry
    /// for it is discarded, and the removal is queued for
    /// [`MiddlewareStage::take_removed_tags`] so the location service can
    /// evict the tag's track immediately instead of waiting for the
    /// stale-track sweep.
    pub fn note_removed(&mut self, id: TagId) {
        self.middleware.forget_tag(id);
        self.removed.push(id);
    }

    /// Drains the tags removed upstream or evicted from the full tag table
    /// since the last drain — the [`SnapshotSource::removed_tags`] seam.
    /// Each eviction is queued here, so a location service driven by this
    /// stage retires the evicted tag's track in its next drive and never
    /// holds more live tracks than the table holds rows.
    pub fn take_removed_tags(&mut self) -> Vec<TagId> {
        std::mem::take(&mut self.removed)
    }

    /// Declares `tag` as the reference tag pinned to lattice node `idx`.
    /// Readings from pinned tags feed the calibration map instead of the
    /// tracking dirty list. See [`Middleware::pin`]; a tag it evicts is
    /// queued for [`MiddlewareStage::take_removed_tags`].
    pub fn pin_reference(&mut self, idx: GridIndex, tag: TagId) {
        self.removed.extend(self.middleware.pin(tag, idx));
    }

    /// Runs `readings` through the smoothing filters in order, writing
    /// changed reference cells into the cached map and recording which
    /// cells changed, and queues each tag evicted to make room for
    /// [`MiddlewareStage::take_removed_tags`]. Returns what was consumed.
    pub fn ingest(&mut self, readings: impl IntoIterator<Item = Reading>) -> PumpStats {
        let mut stats = PumpStats::default();
        let nodes = self.grid.node_count();
        for reading in readings {
            stats.events += 1;
            if reading.time > self.clock {
                self.clock = reading.time;
            }
            let (evicted, changed) = self.middleware.ingest_and_mark(reading);
            stats.evicted += usize::from(evicted.is_some());
            self.removed.extend(evicted);
            let Some((pin, value)) = changed else {
                continue;
            };
            stats.changed += 1;
            let (Some(cell), Some(map)) = (pin, self.cached_map.as_mut()) else {
                continue;
            };
            let k = reading.reader.0 as usize;
            if map.set_rssi(k, cell, value) {
                let pending = &mut self.service_pending[k * nodes + self.grid.flat(cell)];
                if !std::mem::replace(pending, true) {
                    self.service_dirty.push((k, cell));
                }
            }
        }
        stats
    }

    /// Drains every new event from the bus through
    /// [`MiddlewareStage::ingest`], counting the events the bus overwrote
    /// before this pump in [`PumpStats::lagged`].
    ///
    /// # Panics
    /// Panics on a [`MiddlewareStage::detached`] stage, which holds no bus
    /// position.
    pub fn pump(&mut self, bus: &EventBus<Reading>) -> PumpStats {
        let token = self.token.as_mut().expect(
            "MiddlewareStage::pump needs a stage built with a bus token (MiddlewareStage::new)",
        );
        let read = bus.read(token);
        let lagged = read.lagged();
        self.lagged_total += lagged;
        let mut stats = self.ingest(read.copied());
        stats.lagged = lagged;
        stats
    }

    /// The wrapped middleware (smoothed table, raw log ring).
    pub fn middleware(&self) -> &Middleware {
        &self.middleware
    }

    /// Timestamp of the newest ingested reading, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Total events this stage lost to bus overwriting (0 when it always
    /// kept up).
    pub fn lagged_total(&self) -> u64 {
        self.lagged_total
    }

    /// Total tags evicted from the middleware's full tag table.
    pub fn evicted_total(&self) -> u64 {
        self.middleware.evicted()
    }

    /// Number of tracking tags marked dirty since the last
    /// [`MiddlewareStage::changed_readings`] drain (0 right after one: a
    /// drain keeps nothing).
    pub fn pending_tracking(&self) -> usize {
        self.middleware.dirty_len()
    }

    /// The reference calibration map, refreshed incrementally.
    ///
    /// The first successful call performs a full export; afterwards
    /// [`MiddlewareStage::ingest`] rewrites only the `(cell, reader)` entries
    /// whose smoothed value changed. `None` while some (reference tag,
    /// reader) pair has no smoothed value yet.
    pub fn reference_map(&mut self) -> Option<&ReferenceRssiMap> {
        if self.cached_map.is_none() {
            // The full export reflects every change so far, and a consumer
            // binding to this brand-new map has no prior state a dirty
            // hint could update.
            self.cached_map = self.middleware.reference_map(self.grid, &self.readers);
        }
        self.cached_map.as_ref()
    }

    /// Drains the calibration cells whose cached-map value bit-changed
    /// since the last drain, as `(reader, cell)` pairs — the
    /// [`SnapshotSource::take_dirty_cells`] seam.
    ///
    /// The set is **complete** up to the last ingest: a consumer that
    /// syncs its prepared state by exactly these cells ends up
    /// bit-identical to rebuilding against
    /// [`MiddlewareStage::reference_map`]. The cached map keeps no change
    /// record of its own, so this drain is the hint's only source, and one
    /// consumer should drain it.
    pub fn take_dirty_cells(&mut self) -> Vec<DirtyCell> {
        let nodes = self.grid.node_count();
        for &(k, cell) in &self.service_dirty {
            self.service_pending[k * nodes + self.grid.flat(cell)] = false;
        }
        std::mem::take(&mut self.service_dirty)
    }

    /// Drains the tracking tags whose smoothed reading changed since the
    /// last drain, in first-dirtied order, examining each dirty tag once
    /// and keeping none. A tag some reader has not heard yet is left out:
    /// that reader's first reading always changes its stream, which
    /// dirties the tag again, so it is reported once complete.
    pub fn changed_readings(&mut self) -> Vec<(TagId, TrackingReading)> {
        self.middleware.drain_dirty(self.readers.len())
    }
}

impl SnapshotSource for MiddlewareStage {
    fn snapshot_time(&self) -> f64 {
        self.clock
    }

    fn reference_map(&mut self) -> Option<&ReferenceRssiMap> {
        MiddlewareStage::reference_map(self)
    }

    fn changed_readings(&mut self) -> Vec<(TagId, TrackingReading)> {
        MiddlewareStage::changed_readings(self)
    }

    fn removed_tags(&mut self) -> Vec<TagId> {
        MiddlewareStage::take_removed_tags(self)
    }

    fn take_dirty_cells(&mut self) -> Vec<DirtyCell> {
        MiddlewareStage::take_dirty_cells(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::ReaderId;
    use crate::smoothing::SmoothingKind;

    fn reading(time: f64, tag: u32, reader: u32, rssi: f64) -> Reading {
        Reading {
            time,
            tag: TagId::first(tag),
            reader: ReaderId(reader),
            rssi,
        }
    }

    fn grid() -> RegularGrid {
        RegularGrid::square(Point2::ORIGIN, 1.0, 2)
    }

    /// 2×2 lattice with tags 0–3 pinned, one reader, tag 10 tracking.
    fn stage() -> MiddlewareStage {
        let mut stage = MiddlewareStage::detached(
            Middleware::new(SmoothingKind::Raw, false),
            grid(),
            vec![Point2::new(-1.0, -1.0)],
        );
        for (n, idx) in grid().indices().enumerate() {
            stage.pin_reference(idx, TagId::first(n as u32));
        }
        stage
    }

    #[test]
    fn ingest_applies_smoothing_and_tracks_clock() {
        let mut stage = stage();
        let stats = stage.ingest([reading(1.0, 0, 0, -70.0), reading(3.0, 10, 0, -80.0)]);
        assert_eq!(stats.events, 2);
        assert_eq!(stats.changed, 2);
        assert_eq!(stats.lagged, 0);
        assert_eq!(stage.clock(), 3.0);
        assert_eq!(
            stage.middleware().rssi(TagId::first(0), ReaderId(0)),
            Some(-70.0)
        );
        // Repeating the identical reading changes nothing.
        let stats = stage.ingest([reading(4.0, 0, 0, -70.0)]);
        assert_eq!(stats.events, 1);
        assert_eq!(stats.changed, 0);
    }

    #[test]
    fn reference_map_is_incrementally_refreshed() {
        let mut stage = stage();
        // Incomplete coverage -> None.
        stage.ingest([reading(0.0, 0, 0, -70.0)]);
        assert!(stage.reference_map().is_none());
        // Complete coverage -> full export.
        stage.ingest((1..4u32).map(|n| reading(0.5, n, 0, -70.0 - n as f64)));
        let map = stage.reference_map().expect("complete");
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -70.0);
        // A changed cell is rewritten in place; untouched cells keep
        // their values.
        stage.ingest([reading(1.0, 0, 0, -90.0)]);
        let map = stage.reference_map().expect("still complete");
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -90.0);
        assert_eq!(map.rssi(0, GridIndex::new(1, 1)), -73.0);
    }

    #[test]
    fn changed_readings_drains_only_dirty_tracking_tags() {
        let mut stage = stage();
        stage.ingest([reading(0.0, 10, 0, -75.0), reading(0.0, 11, 0, -85.0)]);
        let changed = stage.changed_readings();
        assert_eq!(changed.len(), 2);
        assert_eq!(changed[0].0, TagId::first(10), "first-dirtied order");
        assert_eq!(changed[0].1.rssi(), &[-75.0]);
        // Drained: nothing pending until a value changes again.
        assert!(stage.changed_readings().is_empty());
        stage.ingest([reading(1.0, 11, 0, -80.0)]);
        let changed = stage.changed_readings();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].0, TagId::first(11));
    }

    #[test]
    fn take_dirty_cells_reports_each_bit_changed_cell_once() {
        let mut stage = stage();
        stage.ingest((0..4u32).map(|n| reading(0.0, n, 0, -70.0 - n as f64)));
        assert!(stage.reference_map().is_some());
        assert!(
            stage.take_dirty_cells().is_empty(),
            "a fresh full export has no deltas to report"
        );
        // Two updates to one cell plus one to another, drained without an
        // intervening reference_map() call: the ingest wrote them into the
        // map, and the drain coalesces the repeat.
        stage.ingest([
            reading(1.0, 0, 0, -90.0),
            reading(2.0, 0, 0, -91.0),
            reading(2.0, 1, 0, -75.0),
        ]);
        let dirty = stage.take_dirty_cells();
        assert_eq!(dirty.len(), 2);
        assert!(dirty.contains(&(0, GridIndex::new(0, 0))));
        assert!(dirty.contains(&(0, GridIndex::new(1, 0))));
        // The ingest already applied the changes to the cached map.
        let map = stage.reference_map().expect("still complete");
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -91.0);
        assert!(stage.take_dirty_cells().is_empty(), "drained");
        // Re-ingesting the identical value dirties nothing.
        stage.ingest([reading(3.0, 0, 0, -91.0)]);
        assert!(stage.take_dirty_cells().is_empty());
    }

    #[test]
    fn stage_state_stays_bounded_while_the_map_is_incomplete() {
        let mut stage = stage();
        // Reference tag 3 is never heard (a dead spot): the map stays
        // incomplete while tags 0-2 keep re-calibrating. The Debug
        // rendering shows every buffer the stage holds, so its length
        // must not grow with the number of drives.
        let mut first_size = None;
        for drive in 0..2_000u32 {
            stage.ingest((0..3u32).map(|n| {
                let rssi = -70.0 - n as f64 - (drive % 9) as f64 * 0.5;
                reading(drive as f64, n, 0, rssi)
            }));
            assert!(stage.reference_map().is_none());
            assert!(stage.take_dirty_cells().is_empty());
            let size = format!("{stage:?}").len();
            let first = *first_size.get_or_insert(size);
            assert!(
                size <= first + 64,
                "drive {drive}: state grew from {first} to {size} B"
            );
        }
        // Tag 3 is heard at last: the first export holds every newest
        // value, with nothing left over for a hint.
        stage.ingest([reading(2_000.0, 3, 0, -77.0)]);
        let map = stage.reference_map().expect("complete");
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -70.5);
        assert_eq!(map.rssi(0, GridIndex::new(1, 1)), -77.0);
        assert!(stage.take_dirty_cells().is_empty());
    }

    #[test]
    fn evicted_tags_are_queued_as_removals() {
        use crate::middleware::MAX_TAGS;
        let mut stage = MiddlewareStage::detached(
            Middleware::new(SmoothingKind::Raw, false),
            grid(),
            vec![Point2::new(-1.0, -1.0)],
        );
        let full = MAX_TAGS as u32;
        let stats = stage.ingest((0..full).map(|n| reading(0.0, n, 0, -70.0)));
        assert_eq!(stats.evicted, 0);
        assert!(stage.take_removed_tags().is_empty());
        // Every row was heard once, so the hand takes row 0 for a new
        // tracking tag and row 1 for a new reference tag.
        assert_eq!(stage.ingest([reading(1.0, full, 0, -71.0)]).evicted, 1);
        stage.pin_reference(GridIndex::new(0, 0), TagId::first(full + 1));
        assert_eq!(
            stage.take_removed_tags(),
            vec![TagId::first(0), TagId::first(1)]
        );
        assert_eq!(stage.evicted_total(), 2);
    }

    #[test]
    fn lag_is_recorded_not_fatal() {
        let mut bus = EventBus::with_capacity(2);
        let mut stage = MiddlewareStage::new(
            Middleware::new(SmoothingKind::Raw, false),
            grid(),
            vec![Point2::new(-1.0, -1.0)],
            bus.reader(),
        );
        for n in 0..5 {
            bus.publish(reading(n as f64, 10, 0, -70.0 - n as f64));
        }
        let stats = stage.pump(&bus);
        assert_eq!(stats.lagged, 3);
        assert_eq!(stats.events, 2);
        assert_eq!(stage.lagged_total(), 3);
        // The survivors were still applied.
        assert_eq!(
            stage.middleware().rssi(TagId::first(10), ReaderId(0)),
            Some(-74.0)
        );
        assert_eq!(stage.clock(), 4.0);
    }

    #[test]
    #[should_panic(expected = "bus token")]
    fn pump_on_a_detached_stage_panics() {
        let bus = EventBus::with_capacity(2);
        stage().pump(&bus);
    }
}
