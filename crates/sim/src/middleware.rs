//! The middleware server: collects readings, smooths them, and exports the
//! localization data model.

use crate::reader::ReaderId;
use crate::smoothing::{Filter, SmoothingKind};
use crate::tag::TagId;
use std::collections::{HashMap, VecDeque};
use vire_core::{ReferenceRssiMap, TrackingReading};
use vire_geom::{GridData, GridIndex, Point2, RegularGrid};

/// One raw reading as reported by a reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Simulation time of the beacon, seconds.
    pub time: f64,
    /// The beaconing tag.
    pub tag: TagId,
    /// The reporting reader.
    pub reader: ReaderId,
    /// Raw RSSI, dBm.
    pub rssi: f64,
}

/// Default raw-log retention when logging is enabled: enough for hours of
/// the paper testbed (16 reference + tens of tracking tags × 4 readers at
/// 2 s beacons ≈ 100 readings/s) without unbounded growth.
pub const DEFAULT_LOG_CAPACITY: usize = 262_144;

/// The middleware: a smoothed RSSI table keyed by (tag, reader), plus an
/// optional raw log for diagnostics.
///
/// The log is a bounded ring: when it reaches its configured capacity the
/// **oldest reading is evicted** for each new one, so memory stays flat no
/// matter how long the simulation runs. [`Middleware::log_evicted`] counts
/// what was dropped.
#[derive(Debug)]
pub struct Middleware {
    smoothing: SmoothingKind,
    filters: HashMap<(TagId, ReaderId), Filter>,
    log: VecDeque<Reading>,
    /// Maximum retained readings; 0 disables logging entirely.
    log_capacity: usize,
    /// Readings evicted from the front of the full ring.
    log_evicted: u64,
}

impl Middleware {
    /// Creates a middleware with the given smoothing policy. `keep_log`
    /// retains raw readings up to [`DEFAULT_LOG_CAPACITY`] (oldest evicted
    /// first); see [`Middleware::with_log_capacity`] to size the ring.
    pub fn new(smoothing: SmoothingKind, keep_log: bool) -> Self {
        Middleware::with_log_capacity(smoothing, if keep_log { DEFAULT_LOG_CAPACITY } else { 0 })
    }

    /// Creates a middleware retaining at most `log_capacity` raw readings
    /// (0 disables the log). When the ring is full, each new reading
    /// evicts the oldest one.
    pub fn with_log_capacity(smoothing: SmoothingKind, log_capacity: usize) -> Self {
        Middleware {
            smoothing,
            filters: HashMap::new(),
            log: VecDeque::new(),
            log_capacity,
            log_evicted: 0,
        }
    }

    /// Ingests one reading.
    ///
    /// Returns the new smoothed value of the `(tag, reader)` stream when
    /// it changed (bit-exact comparison; a stream's first reading always
    /// does), else `None` — the dirty signal the incremental pipeline
    /// stage uses to re-export only touched cells.
    pub fn ingest(&mut self, reading: Reading) -> Option<f64> {
        let filter = self
            .filters
            .entry((reading.tag, reading.reader))
            .or_insert_with(|| self.smoothing.build());
        let changed = if filter.update(reading.rssi) {
            filter.value()
        } else {
            None
        };
        if self.log_capacity > 0 {
            if self.log.len() == self.log_capacity {
                self.log.pop_front();
                self.log_evicted += 1;
            }
            self.log.push_back(reading);
        }
        changed
    }

    /// Smoothed RSSI for a (tag, reader) pair, if any readings arrived.
    pub fn rssi(&self, tag: TagId, reader: ReaderId) -> Option<f64> {
        self.filters.get(&(tag, reader)).and_then(Filter::value)
    }

    /// Drops every smoothing filter of `tag` — the tag despawned and its
    /// smoothed state must not linger (nor be inherited by a later
    /// lifetime of the same slot). Returns the number of `(tag, reader)`
    /// streams dropped; the raw log ring is left untouched.
    pub fn forget_tag(&mut self, tag: TagId) -> usize {
        let before = self.filters.len();
        self.filters.retain(|(t, _), _| *t != tag);
        before - self.filters.len()
    }

    /// Number of readings currently influencing a (tag, reader) estimate.
    pub fn fill(&self, tag: TagId, reader: ReaderId) -> usize {
        self.filters.get(&(tag, reader)).map_or(0, Filter::fill)
    }

    /// The retained raw readings, oldest first (empty unless logging was
    /// enabled). When the ring overflowed, this is the most recent
    /// [`Middleware::log_capacity`] readings only.
    pub fn log_readings(&self) -> impl ExactSizeIterator<Item = &Reading> + '_ {
        self.log.iter()
    }

    /// Number of readings currently retained in the log ring.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Configured log ring capacity (0 = logging disabled).
    pub fn log_capacity(&self) -> usize {
        self.log_capacity
    }

    /// Number of readings evicted from the full log ring so far.
    pub fn log_evicted(&self) -> u64 {
        self.log_evicted
    }

    /// Exports the reference calibration map.
    ///
    /// `reference_tags` maps each lattice node to the tag pinned there;
    /// `readers` must be in dense [`ReaderId`] order. Returns `None` when
    /// any (reference tag, reader) pair has no smoothed value yet — run
    /// the simulation longer.
    pub fn reference_map(
        &self,
        grid: RegularGrid,
        reference_tags: &HashMap<GridIndex, TagId>,
        readers: &[Point2],
    ) -> Option<ReferenceRssiMap> {
        let mut fields = Vec::with_capacity(readers.len());
        for (k, _) in readers.iter().enumerate() {
            let reader = ReaderId(k as u32);
            let mut field = GridData::filled(grid, 0.0f64);
            for idx in grid.indices() {
                let tag = *reference_tags.get(&idx)?;
                let value = self.rssi(tag, reader)?;
                field.set(idx, value);
            }
            fields.push(field);
        }
        Some(ReferenceRssiMap::new(grid, readers.to_vec(), fields))
    }

    /// Exports one tracking tag's reading vector across `reader_count`
    /// readers, or `None` when readings are missing.
    pub fn tracking_reading(&self, tag: TagId, reader_count: usize) -> Option<TrackingReading> {
        let rssi: Option<Vec<f64>> = (0..reader_count)
            .map(|k| self.rssi(tag, ReaderId(k as u32)))
            .collect();
        Some(TrackingReading::new(rssi?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(tag: u32, reader: u32, rssi: f64) -> Reading {
        Reading {
            time: 0.0,
            tag: TagId::first(tag),
            reader: ReaderId(reader),
            rssi,
        }
    }

    #[test]
    fn ingest_and_query() {
        let mut mw = Middleware::new(SmoothingKind::MovingAverage(2), false);
        mw.ingest(reading(1, 0, -70.0));
        mw.ingest(reading(1, 0, -72.0));
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(0)), Some(-71.0));
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(1)), None);
        assert_eq!(mw.fill(TagId::first(1), ReaderId(0)), 2);
        assert_eq!(mw.fill(TagId::first(9), ReaderId(0)), 0);
    }

    #[test]
    fn log_is_kept_only_when_requested() {
        let mut quiet = Middleware::new(SmoothingKind::Raw, false);
        quiet.ingest(reading(1, 0, -70.0));
        assert_eq!(quiet.log_len(), 0);
        assert_eq!(quiet.log_capacity(), 0);

        let mut chatty = Middleware::new(SmoothingKind::Raw, true);
        chatty.ingest(reading(1, 0, -70.0));
        chatty.ingest(reading(2, 1, -80.0));
        assert_eq!(chatty.log_len(), 2);
        assert_eq!(chatty.log_readings().nth(1).unwrap().tag, TagId::first(2));
        assert_eq!(chatty.log_capacity(), DEFAULT_LOG_CAPACITY);
    }

    #[test]
    fn full_log_ring_evicts_oldest_first() {
        let mut mw = Middleware::with_log_capacity(SmoothingKind::Raw, 3);
        for n in 0..5u32 {
            mw.ingest(reading(n, 0, -70.0 - n as f64));
        }
        // Capacity 3: readings from tags 0 and 1 were evicted.
        assert_eq!(mw.log_len(), 3);
        assert_eq!(mw.log_evicted(), 2);
        let tags: Vec<u32> = mw.log_readings().map(|r| r.tag.index).collect();
        assert_eq!(tags, vec![2, 3, 4], "oldest evicted, order preserved");
        // The smoothed table is unaffected by log eviction.
        assert_eq!(mw.rssi(TagId::first(0), ReaderId(0)), Some(-70.0));
    }

    #[test]
    fn ingest_reports_smoothed_value_changes() {
        let mut mw = Middleware::new(SmoothingKind::MovingAverage(2), false);
        // The first value is a change; an unchanged mean is not.
        assert_eq!(mw.ingest(reading(1, 0, -70.0)), Some(-70.0));
        assert_eq!(mw.ingest(reading(1, 0, -70.0)), None);
        assert_eq!(mw.ingest(reading(1, 0, -90.0)), Some(-80.0));
        // Another stream is independent.
        assert_eq!(mw.ingest(reading(1, 1, -55.0)), Some(-55.0));
        // A median window absorbing a spike reports no change.
        let mut med = Middleware::new(SmoothingKind::Median(3), false);
        med.ingest(reading(2, 0, -70.0));
        med.ingest(reading(2, 0, -70.0));
        assert_eq!(med.ingest(reading(2, 0, -95.0)), None);
    }

    #[test]
    fn forget_tag_drops_all_its_streams_and_only_its_streams() {
        let mut mw = Middleware::new(SmoothingKind::Raw, true);
        mw.ingest(reading(1, 0, -70.0));
        mw.ingest(reading(1, 1, -71.0));
        mw.ingest(reading(2, 0, -80.0));
        assert_eq!(mw.forget_tag(TagId::first(1)), 2);
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(0)), None);
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(1)), None);
        assert_eq!(mw.rssi(TagId::first(2), ReaderId(0)), Some(-80.0));
        assert_eq!(mw.forget_tag(TagId::first(1)), 0, "idempotent");
        // A later lifetime of the same slot starts from a clean filter and
        // is not dropped by a (stale) repeat of the old removal.
        let reborn = Reading {
            tag: TagId::new(1, 1),
            ..reading(1, 0, -60.0)
        };
        mw.ingest(reborn);
        assert_eq!(mw.forget_tag(TagId::first(1)), 0);
        assert_eq!(mw.rssi(TagId::new(1, 1), ReaderId(0)), Some(-60.0));
        // The raw log is left untouched by forgetting.
        assert_eq!(mw.log_len(), 4);
    }

    #[test]
    fn reference_map_requires_full_coverage() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let readers = vec![Point2::new(-1.0, -1.0)];
        let mut tags = HashMap::new();
        let mut mw = Middleware::new(SmoothingKind::Raw, false);
        for (n, idx) in grid.indices().enumerate() {
            tags.insert(idx, TagId::first(n as u32));
        }
        // Missing readings -> None.
        assert!(mw.reference_map(grid, &tags, &readers).is_none());
        // Fill three of four -> still None.
        for n in 0..3u32 {
            mw.ingest(reading(n, 0, -70.0 - n as f64));
        }
        assert!(mw.reference_map(grid, &tags, &readers).is_none());
        // Complete -> Some, with values in the right cells.
        mw.ingest(reading(3, 0, -73.0));
        let map = mw.reference_map(grid, &tags, &readers).unwrap();
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -70.0);
        assert_eq!(map.rssi(0, GridIndex::new(1, 1)), -73.0);
    }

    #[test]
    fn tracking_reading_requires_all_readers() {
        let mut mw = Middleware::new(SmoothingKind::Raw, false);
        mw.ingest(reading(5, 0, -70.0));
        assert!(mw.tracking_reading(TagId::first(5), 2).is_none());
        mw.ingest(reading(5, 1, -75.0));
        let t = mw.tracking_reading(TagId::first(5), 2).unwrap();
        assert_eq!(t.rssi(), &[-70.0, -75.0]);
    }
}
