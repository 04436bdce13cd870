//! The middleware server: collects readings, smooths them, and exports the
//! localization data model.
//!
//! One table holds everything the middleware knows about a tag. A keyed
//! index maps each [`TagId`] to a dense row, and the row holds the tag's
//! smoothing streams (one per reader, indexed by [`ReaderId`]), the
//! lattice node its reference tag is pinned to, and its place on the
//! first-dirtied list the pipeline stage drains; the middleware keeps the
//! one smoothing policy. Rows freed by [`Middleware::forget_tag`] go on a
//! free list, and a reused row keeps its stream storage. The table holds
//! at most [`MAX_TAGS`] rows: a new tag arriving at capacity takes the row
//! of an unpinned tag chosen by a second-chance (CLOCK) sweep, so a stream
//! of ever-new tag ids cannot grow it. The pipeline stage queues each
//! evicted tag as a removal ([`crate::MiddlewareStage::take_removed_tags`]),
//! so the location service it drives retires the tag's track too.

use crate::reader::ReaderId;
use crate::smoothing::SmoothingKind;
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

/// Rows in one middleware's tag table (the default zone-ring ceiling). A
/// new tag arriving with every row taken evicts an unpinned tag.
pub const MAX_TAGS: usize = 1 << 16;

/// End of the dirty list.
const NIL: u32 = u32::MAX;

/// One tag's row in the table.
#[derive(Debug)]
struct Row {
    /// The tag owning the row (stale while the row is free).
    tag: TagId,
    /// Per reader, indexed by reader id: the readings in its stream's
    /// window (0 until that reader's first reading) and its smoothed value.
    streams: Vec<(usize, f64)>,
    /// Per reader, its stream's window (`SmoothingKind::window` values).
    windows: Vec<f64>,
    /// The lattice node of a pinned reference tag. Pinned rows are never
    /// evicted.
    pin: Option<GridIndex>,
    /// On the dirty list, between `prev` and `next`.
    dirty: bool,
    prev: u32,
    next: u32,
    /// Heard again since the eviction hand last passed (or since the
    /// row's first reading): the row's second chance.
    heard: bool,
}

impl Row {
    fn value(&self, k: usize) -> Option<f64> {
        let &(held, value) = self.streams.get(k)?;
        (held > 0).then_some(value)
    }

    fn reading(&self, reader_count: usize) -> Option<TrackingReading> {
        let rssi: Option<Vec<f64>> = (0..reader_count).map(|k| self.value(k)).collect();
        Some(TrackingReading::new(rssi?))
    }
}

/// The middleware: a table of smoothed RSSI streams, one row per tag (see
/// the [module docs](self)), plus an optional raw log for diagnostics.
///
/// The log is a bounded ring: when it reaches its configured capacity the
/// **oldest reading is evicted** for each new one, so memory stays flat no
/// matter how long the simulation runs. [`Middleware::log_evicted`] counts
/// what was dropped.
#[derive(Debug)]
pub struct Middleware {
    smoothing: SmoothingKind,
    /// The median's scratch, shared by every stream.
    sorted: Vec<f64>,
    /// Tag -> row. Tag ids come from the wire, so the keyed hasher stays.
    index: HashMap<TagId, u32>,
    rows: Vec<Row>,
    /// Rows released by [`Middleware::forget_tag`].
    free: Vec<u32>,
    /// Rows pinned to a lattice node.
    pinned: usize,
    /// Next row the eviction sweep examines.
    hand: usize,
    /// Tags evicted to make room for new ones.
    evicted: u64,
    /// The dirty list, in first-dirtied order.
    dirty_head: u32,
    dirty_tail: u32,
    dirty_len: usize,
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
    ///
    /// # Panics
    /// On an invalid smoothing policy ([`SmoothingKind::check`]).
    pub fn new(smoothing: SmoothingKind, keep_log: bool) -> Self {
        Middleware::with_log_capacity(smoothing, if keep_log { DEFAULT_LOG_CAPACITY } else { 0 })
    }

    /// Creates a middleware retaining at most `log_capacity` raw readings
    /// (0 disables the log). When the ring is full, each new reading
    /// evicts the oldest one.
    ///
    /// # Panics
    /// On an invalid smoothing policy ([`SmoothingKind::check`]).
    pub fn with_log_capacity(smoothing: SmoothingKind, log_capacity: usize) -> Self {
        smoothing.check().unwrap_or_else(|e| panic!("{e}"));
        Middleware {
            smoothing,
            sorted: Vec::new(),
            index: HashMap::new(),
            rows: Vec::new(),
            free: Vec::new(),
            pinned: 0,
            hand: 0,
            evicted: 0,
            dirty_head: NIL,
            dirty_tail: NIL,
            dirty_len: 0,
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
    /// stage uses to re-export only touched cells. The reader id indexes
    /// the tag's row, so it must be the deployment's dense id (the trace
    /// schema, the serve front end and the zone ring all check it).
    pub fn ingest(&mut self, reading: Reading) -> Option<f64> {
        self.ingest_at(reading).1
    }

    /// Ingests one reading for the pipeline stage: returns the tag evicted
    /// to give the reading's tag a row, if any, and the row's pin and new
    /// smoothed value when it changed. A changed unpinned row goes on the
    /// dirty list.
    pub(crate) fn ingest_and_mark(
        &mut self,
        reading: Reading,
    ) -> (Option<TagId>, Option<(Option<GridIndex>, f64)>) {
        let (row, value, evicted) = self.ingest_at(reading);
        let Some(value) = value else {
            return (evicted, None);
        };
        let pin = self.rows[row].pin;
        if pin.is_none() {
            self.mark_dirty(row);
        }
        (evicted, Some((pin, value)))
    }

    fn ingest_at(&mut self, reading: Reading) -> (usize, Option<f64>, Option<TagId>) {
        let (row, evicted) = match self.index.get(&reading.tag) {
            Some(&row) => {
                self.rows[row as usize].heard = true;
                (row as usize, None)
            }
            None => self.insert(reading.tag),
        };
        let k = reading.reader.0 as usize;
        let w = self.smoothing.window();
        let r = &mut self.rows[row];
        if r.streams.len() <= k {
            r.streams.resize(k + 1, (0, 0.0));
            r.windows.resize((k + 1) * w, 0.0);
        }
        let window = &mut r.windows[k * w..(k + 1) * w];
        let stream = &mut r.streams[k];
        let changed = self
            .smoothing
            .feed(stream, window, reading.rssi, &mut self.sorted);
        if self.log_capacity > 0 {
            if self.log.len() == self.log_capacity {
                self.log.pop_front();
                self.log_evicted += 1;
            }
            self.log.push_back(reading);
        }
        (row, changed.then_some(stream.1), evicted)
    }

    /// Gives `tag` a row: a freed one, a new one below [`MAX_TAGS`], or
    /// the first unpinned row the CLOCK hand finds not heard since it
    /// last passed. The hand clears each heard bit it passes, so a sweep
    /// costs O(1) amortized over the readings that set those bits.
    /// Returns the row and the tag evicted from it, if any.
    fn insert(&mut self, tag: TagId) -> (usize, Option<TagId>) {
        let mut evicted = None;
        let row = if let Some(row) = self.free.pop() {
            row as usize
        } else if self.rows.len() < MAX_TAGS {
            self.rows.push(Row {
                tag,
                streams: Vec::new(),
                windows: Vec::new(),
                pin: None,
                dirty: false,
                prev: NIL,
                next: NIL,
                heard: false,
            });
            self.rows.len() - 1
        } else {
            loop {
                let row = self.hand;
                self.hand = (row + 1) % self.rows.len();
                let r = &mut self.rows[row];
                if r.pin.is_none() && !std::mem::take(&mut r.heard) {
                    self.index.remove(&r.tag);
                    evicted = Some(r.tag);
                    self.clear(row);
                    self.evicted += 1;
                    break row;
                }
            }
        };
        self.rows[row].tag = tag;
        self.index.insert(tag, row as u32);
        (row, evicted)
    }

    /// Takes `row` off the dirty list and resets its stream counts (the
    /// storage stays) and heard bit, so the next tag starts clean.
    fn clear(&mut self, row: usize) {
        self.unmark_dirty(row);
        let r = &mut self.rows[row];
        r.streams.iter_mut().for_each(|(held, _)| *held = 0);
        r.heard = false;
    }

    fn mark_dirty(&mut self, row: usize) {
        let r = &mut self.rows[row];
        if r.dirty {
            return;
        }
        r.dirty = true;
        r.prev = self.dirty_tail;
        r.next = NIL;
        match self.dirty_tail {
            NIL => self.dirty_head = row as u32,
            tail => self.rows[tail as usize].next = row as u32,
        }
        self.dirty_tail = row as u32;
        self.dirty_len += 1;
    }

    fn unmark_dirty(&mut self, row: usize) {
        let r = &mut self.rows[row];
        if !std::mem::take(&mut r.dirty) {
            return;
        }
        let (prev, next) = (r.prev, r.next);
        match prev {
            NIL => self.dirty_head = next,
            p => self.rows[p as usize].next = next,
        }
        match next {
            NIL => self.dirty_tail = prev,
            n => self.rows[n as usize].prev = prev,
        }
        self.dirty_len -= 1;
    }

    /// Number of rows on the dirty list.
    pub(crate) fn dirty_len(&self) -> usize {
        self.dirty_len
    }

    /// Empties the dirty list in first-dirtied order, returning the
    /// reading vector of each tag every one of `reader_count` readers has
    /// heard.
    pub(crate) fn drain_dirty(&mut self, reader_count: usize) -> Vec<(TagId, TrackingReading)> {
        let mut out = Vec::with_capacity(self.dirty_len);
        let mut at = std::mem::replace(&mut self.dirty_head, NIL);
        self.dirty_tail = NIL;
        self.dirty_len = 0;
        while at != NIL {
            let row = &mut self.rows[at as usize];
            row.dirty = false;
            at = row.next;
            if let Some(reading) = row.reading(reader_count) {
                out.push((row.tag, reading));
            }
        }
        out
    }

    /// Pins `tag` to lattice node `idx` as a reference tag, giving it a
    /// row if it has none. A pinned row is never evicted, and
    /// [`Middleware::reference_map`] reads it. Pin each node once.
    /// Returns the tag evicted to give `tag` a row, if any.
    ///
    /// # Panics
    /// Panics when the pin would leave no row to evict
    /// ([`MAX_TAGS`] − 1 pinned rows at most).
    pub fn pin(&mut self, tag: TagId, idx: GridIndex) -> Option<TagId> {
        let (row, evicted) = match self.index.get(&tag) {
            Some(&row) => (row as usize, None),
            None => self.insert(tag),
        };
        if self.rows[row].pin.is_none() {
            assert!(self.pinned + 1 < MAX_TAGS, "too many pinned reference tags");
            self.pinned += 1;
        }
        self.rows[row].pin = Some(idx);
        evicted
    }

    /// The pinned reference tags, as `(lattice node, tag)` pairs in row
    /// order.
    pub fn pinned(&self) -> impl Iterator<Item = (GridIndex, TagId)> + '_ {
        self.rows.iter().filter_map(|r| Some((r.pin?, r.tag)))
    }

    /// Smoothed RSSI for a (tag, reader) pair, if any readings arrived.
    pub fn rssi(&self, tag: TagId, reader: ReaderId) -> Option<f64> {
        self.row(tag)?.value(reader.0 as usize)
    }

    fn row(&self, tag: TagId) -> Option<&Row> {
        self.index.get(&tag).map(|&row| &self.rows[row as usize])
    }

    /// Resets every smoothing stream of `tag` — the tag despawned and its
    /// smoothed state must not linger (nor be inherited by a later
    /// lifetime of the same slot) — and takes it off the dirty list.
    /// Returns the number of `(tag, reader)` streams that had a reading;
    /// the raw log ring is left untouched. An unpinned tag's row is freed;
    /// a pinned one keeps its (now empty) row and its pin.
    pub fn forget_tag(&mut self, tag: TagId) -> usize {
        let Some(&row) = self.index.get(&tag) else {
            return 0;
        };
        let row = row as usize;
        let streams = self.rows[row].streams.iter().filter(|s| s.0 > 0).count();
        self.clear(row);
        if self.rows[row].pin.is_none() {
            self.index.remove(&tag);
            self.free.push(row as u32);
        }
        streams
    }

    /// Number of readings currently influencing a (tag, reader) estimate.
    pub fn fill(&self, tag: TagId, reader: ReaderId) -> usize {
        self.row(tag)
            .and_then(|r| r.streams.get(reader.0 as usize))
            .map_or(0, |s| s.0)
    }

    /// Number of tags holding a row, pinned ones included (at most
    /// [`MAX_TAGS`]).
    pub fn tag_count(&self) -> usize {
        self.index.len()
    }

    /// Tags evicted so far to make room for new ones.
    pub fn evicted(&self) -> u64 {
        self.evicted
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

    /// Exports the reference calibration map from the pinned rows.
    ///
    /// `readers` must be in dense [`ReaderId`] order. Returns `None` when
    /// some lattice node has no pinned tag, or some (reference tag,
    /// reader) pair has no smoothed value yet — run the simulation longer.
    pub fn reference_map(&self, grid: RegularGrid, readers: &[Point2]) -> Option<ReferenceRssiMap> {
        let mut fields = vec![GridData::filled(grid, 0.0f64); readers.len()];
        let mut covered = vec![false; grid.node_count()];
        for row in &self.rows {
            let Some(idx) = row.pin else {
                continue;
            };
            for (k, field) in fields.iter_mut().enumerate() {
                field.set(idx, row.value(k)?);
            }
            covered[grid.flat(idx)] = true;
        }
        covered
            .iter()
            .all(|&c| c)
            .then(|| ReferenceRssiMap::new(grid, readers.to_vec(), fields))
    }

    /// Exports one tracking tag's reading vector across `reader_count`
    /// readers, or `None` when readings are missing.
    pub fn tracking_reading(&self, tag: TagId, reader_count: usize) -> Option<TrackingReading> {
        self.row(tag)?.reading(reader_count)
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
        assert_eq!(mw.tag_count(), 1, "the forgotten row is freed");
        // A later lifetime of the same slot starts from a clean stream and
        // is not dropped by a (stale) repeat of the old removal.
        let reborn = Reading {
            tag: TagId::new(1, 1),
            ..reading(1, 0, -60.0)
        };
        mw.ingest(reborn);
        assert_eq!(mw.forget_tag(TagId::first(1)), 0);
        assert_eq!(mw.rssi(TagId::new(1, 1), ReaderId(0)), Some(-60.0));
        // It reused the freed row, whose other reader's stream is gone.
        assert_eq!(mw.rssi(TagId::new(1, 1), ReaderId(1)), None);
        assert_eq!(mw.rows.len(), 2);
        // The raw log is left untouched by forgetting.
        assert_eq!(mw.log_len(), 4);
    }

    #[test]
    fn reference_map_requires_full_coverage() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let readers = vec![Point2::new(-1.0, -1.0)];
        let mut mw = Middleware::new(SmoothingKind::Raw, false);
        for (n, idx) in grid.indices().enumerate() {
            mw.pin(TagId::first(n as u32), idx);
        }
        // Missing readings -> None.
        assert!(mw.reference_map(grid, &readers).is_none());
        // Fill three of four -> still None.
        for n in 0..3u32 {
            mw.ingest(reading(n, 0, -70.0 - n as f64));
        }
        assert!(mw.reference_map(grid, &readers).is_none());
        // Complete -> Some, with values in the right cells.
        mw.ingest(reading(3, 0, -73.0));
        let map = mw.reference_map(grid, &readers).unwrap();
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -70.0);
        assert_eq!(map.rssi(0, GridIndex::new(1, 1)), -73.0);
        // A node nobody is pinned to leaves the map incomplete.
        let mut partial = Middleware::new(SmoothingKind::Raw, false);
        partial.pin(TagId::first(0), GridIndex::new(0, 0));
        partial.ingest(reading(0, 0, -70.0));
        assert!(partial.reference_map(grid, &readers).is_none());
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

    #[test]
    fn a_full_table_evicts_an_unheard_unpinned_row() {
        let mut mw = Middleware::new(SmoothingKind::Raw, false);
        mw.pin(TagId::first(0), GridIndex::new(0, 0));
        let first = MAX_TAGS as u32;
        for n in 1..first {
            mw.ingest_and_mark(reading(n, 0, -70.0));
        }
        assert_eq!(mw.tag_count(), MAX_TAGS);
        assert_eq!(mw.dirty_len(), MAX_TAGS - 1);
        // Tag 1 is heard again, so the hand passes it once.
        mw.ingest(reading(1, 0, -71.0));
        // Two new tags: the hand skips the pin, clears tag 1's bit and
        // takes tag 2, then tag 3, each off the dirty list.
        mw.ingest(reading(first, 0, -60.0));
        mw.ingest(reading(first + 1, 0, -61.0));
        assert_eq!(mw.evicted(), 2);
        assert_eq!(mw.tag_count(), MAX_TAGS);
        assert_eq!(mw.dirty_len(), MAX_TAGS - 3);
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(0)), Some(-71.0));
        assert_eq!(mw.rssi(TagId::first(2), ReaderId(0)), None);
        assert_eq!(mw.rssi(TagId::first(3), ReaderId(0)), None);
        assert_eq!(mw.rssi(TagId::first(first), ReaderId(0)), Some(-60.0));
        assert_eq!(mw.pinned().count(), 1);
        let drained: Vec<u32> = mw.drain_dirty(1).iter().map(|(t, _)| t.index).collect();
        assert_eq!(drained.len(), MAX_TAGS - 3);
        assert_eq!(
            drained[..3],
            [1, 4, 5],
            "first-dirtied order survives eviction"
        );
        assert_eq!(mw.dirty_len(), 0);
    }
}
