//! The data model shared by every localizer.

use std::sync::atomic::{AtomicU64, Ordering};
use vire_geom::{GridData, GridIndex, Point2, RegularGrid};

/// Monotonic source of map identities; never reused within a process.
static NEXT_MAP_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_map_id() -> u64 {
    NEXT_MAP_ID.fetch_add(1, Ordering::Relaxed)
}

/// Smoothed RSSI of every real reference tag as heard by every reader.
///
/// Reader `k`'s [`field`](ReferenceRssiMap::field) is a scalar field on
/// the reference lattice: the RSSI of the reference tag at each lattice
/// node, measured by reader `k`, in row-major node order. The fields are
/// stored as one reader-major buffer ([`planes`](ReferenceRssiMap::planes),
/// `planes[k * nodes + flat]`), the layout LANDMARC's kernel and the
/// virtual-grid sweep read directly. Reader
/// positions are carried along for baselines that need geometry
/// (trilateration) and for diagnostics; LANDMARC and VIRE themselves only
/// compare signal values.
///
/// # Identity
///
/// Each map carries a process-unique [`id`](ReferenceRssiMap::id), fresh
/// on construction and on clone and stable across
/// [`set_rssi`](ReferenceRssiMap::set_rssi). The map keeps no record of
/// which cells changed: the writer names them (the
/// [`SnapshotSource::take_dirty_cells`](crate::pipeline::SnapshotSource::take_dirty_cells)
/// hint), and a prepared state trusts those names only for the map whose
/// `id` it last synced to (see [`crate::incremental`]). A clone is a new
/// identity, so a hint about the original never describes it.
#[derive(Debug)]
pub struct ReferenceRssiMap {
    grid: RegularGrid,
    readers: Vec<Point2>,
    /// Reader-major RSSI planes: `planes[k * nodes + flat]`.
    planes: Vec<f64>,
    id: u64,
}

impl Clone for ReferenceRssiMap {
    /// Clones the RSSI data under a **fresh identity**, so prepared state
    /// derived from the original never mistakes the clone for the map it
    /// was built from.
    fn clone(&self) -> Self {
        ReferenceRssiMap {
            grid: self.grid,
            readers: self.readers.clone(),
            planes: self.planes.clone(),
            id: fresh_map_id(),
        }
    }
}

impl ReferenceRssiMap {
    /// Assembles a map from one RSSI field per reader.
    ///
    /// # Panics
    /// Panics when the field count differs from the reader count, a field's
    /// grid differs from `grid`, there are no readers, or any RSSI is
    /// non-finite.
    pub fn new(grid: RegularGrid, readers: Vec<Point2>, per_reader: Vec<GridData<f64>>) -> Self {
        assert!(!readers.is_empty(), "need at least one reader");
        assert_eq!(
            readers.len(),
            per_reader.len(),
            "one RSSI field per reader required"
        );
        let mut planes = Vec::with_capacity(per_reader.len() * grid.node_count());
        for field in &per_reader {
            assert_eq!(field.grid(), &grid, "field grid mismatch");
            planes.extend_from_slice(field.as_slice());
        }
        assert!(
            planes.iter().all(|v| v.is_finite()),
            "reference RSSI must be finite"
        );
        ReferenceRssiMap {
            grid,
            readers,
            planes,
            id: fresh_map_id(),
        }
    }

    /// The process-unique identity of this map instance. Fresh on
    /// construction and on clone; stable across [`set_rssi`] calls.
    ///
    /// [`set_rssi`]: ReferenceRssiMap::set_rssi
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The reference lattice.
    pub fn grid(&self) -> &RegularGrid {
        &self.grid
    }

    /// Reader positions.
    pub fn readers(&self) -> &[Point2] {
        &self.readers
    }

    /// Number of readers.
    pub fn reader_count(&self) -> usize {
        self.readers.len()
    }

    /// RSSI plane of reader `k`, in row-major node order.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn field(&self, k: usize) -> &[f64] {
        let nodes = self.grid.node_count();
        &self.planes[k * nodes..(k + 1) * nodes]
    }

    /// Every reader's plane, reader-major: `planes[k * nodes + flat]`.
    pub fn planes(&self) -> &[f64] {
        &self.planes
    }

    /// Offset of node `idx` of reader `k` in [`planes`](Self::planes).
    fn offset(&self, k: usize, idx: GridIndex) -> usize {
        k * self.grid.node_count() + self.grid.flat(idx)
    }

    /// RSSI of the reference tag at node `idx` seen by reader `k`.
    pub fn rssi(&self, k: usize, idx: GridIndex) -> f64 {
        self.planes[self.offset(k, idx)]
    }

    /// Overwrites the RSSI of the reference tag at node `idx` seen by
    /// reader `k` — the incremental-update hook the streaming pipeline
    /// uses to refresh only the calibration cells whose smoothed value
    /// actually changed, instead of re-exporting the whole table.
    ///
    /// Returns `true` when the stored bits changed. Writing the
    /// bit-identical value is a no-op.
    ///
    /// # Panics
    /// Panics when `k` or `idx` is out of range or `value` is non-finite
    /// (the constructor's invariant).
    pub fn set_rssi(&mut self, k: usize, idx: GridIndex, value: f64) -> bool {
        assert!(value.is_finite(), "reference RSSI must be finite");
        let at = self.offset(k, idx);
        let slot = &mut self.planes[at];
        if slot.to_bits() == value.to_bits() {
            return false;
        }
        *slot = value;
        true
    }

    /// Whether `other` spans the same lattice and readers and holds the
    /// same RSSI bits in every cell (identity aside).
    pub fn same_bits(&self, other: &ReferenceRssiMap) -> bool {
        self.grid == other.grid
            && self.readers == other.readers
            && self
                .planes
                .iter()
                .zip(&other.planes)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// The signal-space vector (one RSSI per reader) of the reference tag
    /// at node `idx`.
    pub fn signal_vector(&self, idx: GridIndex) -> Vec<f64> {
        (0..self.reader_count())
            .map(|k| self.rssi(k, idx))
            .collect()
    }

    /// Builds a copy with reader `k` removed — the dead-reader failure
    /// injection used by the robustness tests.
    ///
    /// Returns `None` when removing the reader would leave no readers or
    /// `k` is out of range.
    pub fn without_reader(&self, k: usize) -> Option<ReferenceRssiMap> {
        if k >= self.reader_count() || self.reader_count() == 1 {
            return None;
        }
        let mut readers = self.readers.clone();
        readers.remove(k);
        let mut planes = self.planes.clone();
        let nodes = self.grid.node_count();
        planes.drain(k * nodes..(k + 1) * nodes);
        Some(ReferenceRssiMap {
            grid: self.grid,
            readers,
            planes,
            id: fresh_map_id(),
        })
    }
}

/// RSSI of one tracking tag at every reader (same order as the reference
/// map's readers).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackingReading {
    rssi: Vec<f64>,
}

impl TrackingReading {
    /// Wraps a per-reader RSSI vector.
    ///
    /// # Panics
    /// Panics when the vector is empty or contains non-finite values.
    pub fn new(rssi: Vec<f64>) -> Self {
        assert!(!rssi.is_empty(), "need at least one reading");
        assert!(
            rssi.iter().all(|v| v.is_finite()),
            "tracking RSSI must be finite"
        );
        TrackingReading { rssi }
    }

    /// Per-reader RSSI values.
    pub fn rssi(&self) -> &[f64] {
        &self.rssi
    }

    /// Reading at reader `k`.
    pub fn at(&self, k: usize) -> f64 {
        self.rssi[k]
    }

    /// Number of readers represented.
    pub fn reader_count(&self) -> usize {
        self.rssi.len()
    }

    /// Copy with reader `k` removed (see
    /// [`ReferenceRssiMap::without_reader`]).
    pub fn without_reader(&self, k: usize) -> Option<TrackingReading> {
        if k >= self.rssi.len() || self.rssi.len() == 1 {
            return None;
        }
        let mut rssi = self.rssi.clone();
        rssi.remove(k);
        Some(TrackingReading { rssi })
    }

    /// Euclidean signal-space distance to a reference signal vector —
    /// LANDMARC's `E_j` (§3 of the paper, eq. for E).
    ///
    /// # Panics
    /// Panics when the vector lengths differ.
    pub fn signal_distance(&self, reference: &[f64]) -> f64 {
        assert_eq!(
            self.rssi.len(),
            reference.len(),
            "signal vectors must cover the same readers"
        );
        self.rssi
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_map() -> ReferenceRssiMap {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let readers = vec![Point2::new(-1.0, -1.0), Point2::new(2.0, 2.0)];
        let f0 = GridData::from_fn(grid, |_, p| -70.0 - p.x - p.y);
        let f1 = GridData::from_fn(grid, |_, p| -80.0 + p.x + p.y);
        ReferenceRssiMap::new(grid, readers, vec![f0, f1])
    }

    #[test]
    fn accessors_agree() {
        let m = tiny_map();
        assert_eq!(m.reader_count(), 2);
        let idx = GridIndex::new(1, 1);
        assert_eq!(m.rssi(0, idx), -72.0);
        assert_eq!(m.rssi(1, idx), -78.0);
        assert_eq!(m.signal_vector(idx), vec![-72.0, -78.0]);
    }

    #[test]
    fn set_rssi_touches_only_the_named_cell() {
        let mut m = tiny_map();
        let idx = GridIndex::new(1, 1);
        let other = GridIndex::new(0, 0);
        let before_other = m.rssi(0, other);
        let before_k1 = m.rssi(1, idx);
        m.set_rssi(0, idx, -99.5);
        assert_eq!(m.rssi(0, idx), -99.5);
        assert_eq!(m.rssi(0, other), before_other);
        assert_eq!(m.rssi(1, idx), before_k1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn set_rssi_rejects_non_finite() {
        tiny_map().set_rssi(0, GridIndex::new(0, 0), f64::NAN);
    }

    #[test]
    fn set_rssi_reports_only_bit_changes() {
        let mut m = tiny_map();
        let idx = GridIndex::new(0, 1);
        let same = m.rssi(0, idx);
        assert!(!m.set_rssi(0, idx, same), "identical bits are a no-op");
        assert!(m.set_rssi(0, idx, same - 1.0));
        assert!(m.set_rssi(1, GridIndex::new(1, 0), -55.25));
    }

    #[test]
    fn clone_gets_a_fresh_identity() {
        let mut m = tiny_map();
        m.set_rssi(0, GridIndex::new(0, 0), -99.0);
        let c = m.clone();
        assert_ne!(m.id(), c.id());
        // Data still matches bit-for-bit.
        assert!(c.same_bits(&m));
        // without_reader is a new identity too.
        assert_ne!(m.without_reader(0).unwrap().id(), m.id());
    }

    #[test]
    #[should_panic(expected = "one RSSI field per reader")]
    fn mismatched_field_count_panics() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let f = GridData::filled(grid, -70.0);
        ReferenceRssiMap::new(grid, vec![Point2::ORIGIN], vec![f.clone(), f]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_reference_rssi_panics() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let f = GridData::filled(grid, f64::NAN);
        ReferenceRssiMap::new(grid, vec![Point2::ORIGIN], vec![f]);
    }

    #[test]
    fn without_reader_drops_matching_entries() {
        let m = tiny_map();
        let m2 = m.without_reader(0).unwrap();
        assert_eq!(m2.reader_count(), 1);
        assert_eq!(m2.readers()[0], Point2::new(2.0, 2.0));
        assert_eq!(m2.rssi(0, GridIndex::new(0, 0)), -80.0);
        // Cannot remove the last reader.
        assert!(m2.without_reader(0).is_none());
        assert!(m.without_reader(5).is_none());
    }

    #[test]
    fn signal_distance_is_euclidean() {
        let t = TrackingReading::new(vec![-70.0, -80.0]);
        let d = t.signal_distance(&[-73.0, -84.0]);
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn signal_distance_zero_for_identical() {
        let t = TrackingReading::new(vec![-70.0, -80.0, -90.0]);
        assert_eq!(t.signal_distance(&[-70.0, -80.0, -90.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "same readers")]
    fn signal_distance_rejects_length_mismatch() {
        TrackingReading::new(vec![-70.0]).signal_distance(&[-70.0, -80.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_tracking_reading_panics() {
        TrackingReading::new(vec![f64::NAN]);
    }

    #[test]
    fn tracking_without_reader() {
        let t = TrackingReading::new(vec![-70.0, -75.0, -80.0]);
        let t2 = t.without_reader(1).unwrap();
        assert_eq!(t2.rssi(), &[-70.0, -80.0]);
        assert!(TrackingReading::new(vec![-70.0])
            .without_reader(0)
            .is_none());
    }
}
