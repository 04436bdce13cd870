//! Per-reader proximity maps (paper §4.3).
//!
//! "Each reader will maintain its own proximity map … the reader will mark
//! those regions as '1' (or highlighted) if the difference of RSSI values
//! between the region and tracking tag is smaller than a threshold."
//!
//! Maps are stored as packed [`BitGrid`] masks: the threshold compare emits
//! one `u64` word per 64 virtual tags, the K-reader intersection is a
//! word-wise AND, and the highlighted area is a popcount.

use crate::virtual_grid::VirtualGrid;
use vire_geom::{bitgrid, BitGrid, GridIndex};

/// One reader's proximity map over the virtual grid.
#[derive(Debug, Clone)]
pub struct ProximityMap {
    mask: BitGrid,
    threshold: f64,
}

impl ProximityMap {
    /// Builds the map for reader `k`: a virtual region is highlighted iff
    /// `|S_k(region) − θ_k| < threshold`.
    ///
    /// # Panics
    /// Panics when the threshold is negative or non-finite, or `k` is out
    /// of range.
    pub fn build(grid: &VirtualGrid, k: usize, tracking_rssi: f64, threshold: f64) -> Self {
        assert!(
            threshold >= 0.0 && threshold.is_finite(),
            "threshold must be non-negative and finite"
        );
        let field = grid.field(k);
        let mut words = vec![0u64; bitgrid::words_for(field.len())];
        for (word, chunk) in words.iter_mut().zip(field.chunks(bitgrid::WORD_BITS)) {
            let mut bits = 0u64;
            for (b, &s) in chunk.iter().enumerate() {
                bits |= u64::from((s - tracking_rssi).abs() < threshold) << b;
            }
            *word = bits;
        }
        let mask = BitGrid::from_words(*grid.grid(), words);
        ProximityMap { mask, threshold }
    }

    /// The highlight mask.
    pub fn mask(&self) -> &BitGrid {
        &self.mask
    }

    /// The threshold used to build this map.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of highlighted regions — the "area" the adaptive threshold
    /// algorithm compares across readers.
    pub fn area(&self) -> usize {
        self.mask.count_ones()
    }

    /// Whether a region is highlighted.
    pub fn is_highlighted(&self, idx: GridIndex) -> bool {
        self.mask.get(idx)
    }
}

/// Intersects K proximity maps into the combined candidate mask
/// ("an intersection function is applied to indicate the most probable
/// regions from the K readers") — a word-wise AND over the packed masks.
///
/// # Panics
/// Panics when `maps` is empty.
pub fn intersect(maps: &[ProximityMap]) -> BitGrid {
    assert!(!maps.is_empty(), "need at least one proximity map");
    let mut acc = maps[0].mask().clone();
    for m in &maps[1..] {
        acc.and_assign(m.mask());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ReferenceRssiMap;
    use crate::virtual_grid::{InterpolationKernel, VirtualGrid};
    use vire_geom::{GridData as GD, Point2, RegularGrid};

    fn vg() -> VirtualGrid {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let readers = vec![Point2::new(-1.0, -1.0), Point2::new(4.0, 4.0)];
        let fields = readers
            .iter()
            .map(|r| GD::from_fn(grid, |_, p| -60.0 - 5.0 * p.distance(*r)))
            .collect();
        let refs = ReferenceRssiMap::new(grid, readers, fields);
        VirtualGrid::build(&refs, 4, InterpolationKernel::Linear)
    }

    #[test]
    fn zero_threshold_highlights_nothing() {
        let g = vg();
        let m = ProximityMap::build(&g, 0, -75.0, 0.0);
        assert_eq!(m.area(), 0);
    }

    #[test]
    fn huge_threshold_highlights_everything() {
        let g = vg();
        let m = ProximityMap::build(&g, 0, -75.0, 1e6);
        assert_eq!(m.area(), g.tag_count());
    }

    #[test]
    fn area_is_monotone_in_threshold() {
        let g = vg();
        let mut prev = 0;
        for step in 0..20 {
            let t = step as f64 * 0.8;
            let area = ProximityMap::build(&g, 0, -72.0, t).area();
            assert!(area >= prev, "area must grow with threshold");
            prev = area;
        }
    }

    #[test]
    fn highlighted_regions_have_close_rssi() {
        let g = vg();
        let theta = -74.0;
        let t = 1.5;
        let m = ProximityMap::build(&g, 1, theta, t);
        for idx in g.grid().indices() {
            let close = (g.rssi(1, idx) - theta).abs() < t;
            assert_eq!(m.is_highlighted(idx), close);
        }
        assert_eq!(m.threshold(), t);
    }

    #[test]
    fn mask_matches_scalar_grid_data_build() {
        // The word-chunked build must agree bit-for-bit with the obvious
        // per-node map over `GridData<bool>`.
        let g = vg();
        for &(theta, t) in &[(-74.0, 1.5), (-60.0, 0.3), (-80.0, 6.0)] {
            let m = ProximityMap::build(&g, 0, theta, t);
            let scalar: Vec<bool> = g.field(0).iter().map(|&s| (s - theta).abs() < t).collect();
            assert_eq!(m.mask().to_grid_data().as_slice(), scalar.as_slice());
        }
    }

    #[test]
    fn intersection_shrinks_the_candidate_set() {
        let g = vg();
        // Tracking tag at (1.5, 1.5): true RSSI per reader via the same
        // field formula.
        let p = Point2::new(1.5, 1.5);
        let theta0 = -60.0 - 5.0 * p.distance(Point2::new(-1.0, -1.0));
        let theta1 = -60.0 - 5.0 * p.distance(Point2::new(4.0, 4.0));
        let m0 = ProximityMap::build(&g, 0, theta0, 2.0);
        let m1 = ProximityMap::build(&g, 1, theta1, 2.0);
        let both = intersect(&[m0.clone(), m1.clone()]);
        assert!(both.count_ones() <= m0.area().min(m1.area()));
        assert!(both.count_ones() > 0, "true position must survive");
        // The intersection must contain the virtual tag nearest the truth.
        let nearest = g.grid().nearest_node(p);
        assert!(both.get(nearest));
    }

    #[test]
    #[should_panic(expected = "at least one proximity map")]
    fn empty_intersection_input_panics() {
        intersect(&[]);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn negative_threshold_panics() {
        let g = vg();
        ProximityMap::build(&g, 0, -70.0, -1.0);
    }
}
