//! Threshold selection and elimination of unlikely positions (§4.3).
//!
//! The paper's adaptive procedure, paraphrased: start from the threshold
//! that gives the largest proximity-map area, then "reduce the chosen
//! reader's threshold step by step", largest-area reader first, and keep
//! "the smallest area formed by the smallest threshold available". We
//! implement that as:
//!
//! 1. a common threshold starts high enough that every reader's map
//!    highlights at least its best-matching region,
//! 2. the common threshold is reduced stepwise while the K-map
//!    intersection stays non-empty,
//! 3. optionally each reader's threshold is then tightened individually
//!    (largest area first) while the intersection stays non-empty.
//!
//! A fixed-threshold mode exists for the Fig. 8 sweep, where the threshold
//! is the independent variable.
//!
//! At the default operating point only two or three of the 961 virtual
//! regions survive, so the adaptive mode does not sweep the lattice. A
//! tile summary holds each reader's RSSI range over every 4 × 4 tile,
//! and each locate bounds a tile's gaps `|s − θ|` from those ranges
//! before reading any node: a reader's smallest gap is taken exactly
//! from the few tiles that could hold it, and per-node max-gaps are
//! computed only in the tiles whose bound is below the threshold, where
//! every survivor lies. The thresholds and the mask are bit-identical to
//! a dense pass over every node.

use crate::types::TrackingReading;
use crate::virtual_grid::VirtualGrid;
use std::ops::Range;
use vire_geom::{bitgrid, BitGrid};

/// How the elimination threshold is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdMode {
    /// A fixed threshold (dB) for all readers — Fig. 8's independent
    /// variable. The intersection may come out empty.
    Fixed(f64),
    /// The adaptive reduction of §4.3.
    Adaptive {
        /// Reduction step per iteration, dB.
        step: f64,
        /// Lower bound on the threshold, dB.
        min: f64,
        /// Whether to run the per-reader tightening pass after the common
        /// reduction.
        per_reader: bool,
        /// Floor on the surviving candidate count: reduction stops before
        /// the mask would shrink below this many regions. The paper's
        /// algorithm preserves "that particular area" while tightening —
        /// shrinking all the way to one cell degenerates VIRE into a noisy
        /// nearest-virtual-tag snap. `0` means *auto*: [`crate::Vire`]
        /// substitutes one physical cell's worth of virtual regions (n²).
        min_candidates: usize,
    },
}

impl Default for ThresholdMode {
    /// The paper's operating point: adaptive with a 0.25 dB step,
    /// per-reader tightening, and the auto candidate floor.
    fn default() -> Self {
        ThresholdMode::Adaptive {
            step: 0.25,
            min: 0.05,
            per_reader: true,
            min_candidates: 0,
        }
    }
}

/// Result of the elimination stage.
#[derive(Debug, Clone)]
pub struct EliminationResult {
    /// Combined candidate mask on the virtual grid, packed 64 regions per
    /// word ([`BitGrid`]).
    pub mask: BitGrid,
    /// Final per-reader thresholds (equal in fixed/common modes).
    pub thresholds: Vec<f64>,
}

impl EliminationResult {
    /// Number of surviving candidate regions — a word-wise popcount.
    pub fn candidates(&self) -> usize {
        self.mask.count_ones()
    }
}

/// Side of one elimination tile, in fine-lattice nodes. The paper's
/// operating point (31 × 31 nodes) splits into 8 × 8 tiles; an edge tile
/// is narrower where a side is not a multiple of `TILE`.
pub(crate) const TILE: usize = 4;

/// Each reader's smallest and largest RSSI over every `TILE × TILE` tile
/// of the fine lattice, read from the reader-major planes in one pass.
///
/// Adaptive elimination bounds a whole tile's gaps from it before looking
/// at any node: for `s ∈ [lo, hi]`, `|s − θ| ≥ max(θ − hi, lo − θ, 0)`.
/// The bound holds for the computed floats too, because rounding is
/// monotone: `s ≤ hi` gives `fl(θ − s) ≥ fl(θ − hi)`, and `s ≥ lo` gives
/// `fl(s − θ) ≥ fl(lo − θ)`. The summary is a function of the planes
/// alone, so whatever changes the planes must refresh it (every sync of
/// [`crate::PreparedVire`] does).
#[derive(Debug, Clone, Default)]
pub(crate) struct TileSummary {
    nx: usize,
    ny: usize,
    /// Tiles per band of `TILE` fine rows, `⌈nx / TILE⌉`.
    tiles_x: usize,
    /// Tiles in the lattice, `tiles_x · ⌈ny / TILE⌉`.
    tiles: usize,
    /// `lo[k * tiles + tile]`: reader `k`'s smallest RSSI in the tile.
    lo: Vec<f64>,
    /// `hi[k * tiles + tile]`: reader `k`'s largest RSSI in the tile.
    hi: Vec<f64>,
    /// Each tile's first (top-left) flat node, width and height.
    spans: Vec<(u32, u32, u32)>,
    /// Column-wise minima and maxima of one band (refresh scratch).
    col_lo: Vec<f64>,
    col_hi: Vec<f64>,
}

impl TileSummary {
    /// The summary of a virtual grid's planes.
    pub(crate) fn of(grid: &VirtualGrid) -> Self {
        let mut summary = TileSummary::default();
        summary.refresh_planes(grid.planes(), grid.grid().nx(), grid.grid().ny());
        summary
    }

    /// Rebuilds the summary of reader-major planes over an `nx × ny`
    /// row-major lattice.
    fn refresh_planes(&mut self, planes: &[f64], nx: usize, ny: usize) {
        let nodes = nx * ny;
        debug_assert!(nodes > 0 && planes.len().is_multiple_of(nodes));
        self.nx = nx;
        self.ny = ny;
        self.tiles_x = nx.div_ceil(TILE);
        self.tiles = self.tiles_x * ny.div_ceil(TILE);
        let slots = planes.len() / nodes * self.tiles;
        self.lo.resize(slots, 0.0);
        self.hi.resize(slots, 0.0);
        self.col_lo.resize(nx, 0.0);
        self.col_hi.resize(nx, 0.0);
        self.spans.clear();
        for y0 in (0..ny).step_by(TILE) {
            for x0 in (0..nx).step_by(TILE) {
                let (w, h) = (TILE.min(nx - x0), TILE.min(ny - y0));
                self.spans.push(((y0 * nx + x0) as u32, w as u32, h as u32));
            }
        }
        for k in 0..planes.len() / nodes {
            self.refresh_reader(planes, k);
        }
    }

    /// Recomputes reader `k`'s tiles from the summarized `planes` — all a
    /// sync must redo after re-interpolating that reader's plane. Each
    /// band of `TILE` rows first folds into column-wise minima and maxima
    /// (contiguous, so the loop vectorizes), and those then fold `TILE`
    /// columns at a time.
    pub(crate) fn refresh_reader(&mut self, planes: &[f64], k: usize) {
        let (nx, ny) = (self.nx, self.ny);
        let plane = &planes[k * nx * ny..(k + 1) * nx * ny];
        let (col_lo, col_hi) = (&mut self.col_lo, &mut self.col_hi);
        for ty in 0..ny.div_ceil(TILE) {
            let (y0, y1) = (ty * TILE, (ty * TILE + TILE).min(ny));
            col_lo.copy_from_slice(&plane[y0 * nx..(y0 + 1) * nx]);
            col_hi.copy_from_slice(col_lo);
            for y in y0 + 1..y1 {
                let row = &plane[y * nx..(y + 1) * nx];
                for ((l, h), &s) in col_lo.iter_mut().zip(col_hi.iter_mut()).zip(row) {
                    *l = if s < *l { s } else { *l };
                    *h = if s > *h { s } else { *h };
                }
            }
            let slot = k * self.tiles + ty * self.tiles_x;
            let tiles = col_lo.chunks(TILE).zip(col_hi.chunks(TILE));
            for ((lo, hi), (cl, ch)) in self.lo[slot..]
                .iter_mut()
                .zip(&mut self.hi[slot..])
                .zip(tiles)
            {
                *lo = cl.iter().fold(cl[0], |m, &v| if v < m { v } else { m });
                *hi = ch.iter().fold(ch[0], |m, &v| if v > m { v } else { m });
            }
        }
    }

    /// Node count of the summarized lattice.
    fn nodes(&self) -> usize {
        self.nx * self.ny
    }

    /// The nodes of `tile`: one half-open flat range per row.
    fn rows(&self, tile: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let (first, w, h) = self.spans[tile];
        let (first, w) = (first as usize, w as usize);
        (0..h as usize).map(move |r| first + r * self.nx..first + r * self.nx + w)
    }

    /// `min(m, min |s − θ|)` over reader plane `plane`'s nodes in `tile`.
    fn min_gap(&self, plane: &[f64], theta: f64, tile: usize, m: f64) -> f64 {
        let mut acc = [m; TILE];
        for row in self.rows(tile) {
            for (a, &s) in acc.iter_mut().zip(&plane[row]) {
                let g = (s - theta).abs();
                *a = if g < *a { g } else { *a };
            }
        }
        acc.iter().fold(m, |m, &a| if a < m { a } else { m })
    }

    /// Calls `visit(flat, max_k |s_k − θ_k|)` for every node of `tile`,
    /// row-major. The max-gap folds from zero in ascending `k`, like the
    /// dense max-gap plane's per-node value, so it has the same bits.
    fn for_each_max_gap(
        &self,
        planes: &[f64],
        thetas: &[f64],
        tile: usize,
        mut visit: impl FnMut(usize, f64),
    ) {
        let nodes = self.nodes();
        for row in self.rows(tile) {
            let mut acc = [0.0f64; TILE];
            for (k, &theta) in thetas.iter().enumerate() {
                let vals = &planes[k * nodes + row.start..k * nodes + row.end];
                for (a, &s) in acc.iter_mut().zip(vals) {
                    let g = (s - theta).abs();
                    *a = if g > *a { g } else { *a };
                }
            }
            for (flat, &m) in row.zip(&acc) {
                visit(flat, m);
            }
        }
    }
}

/// Reusable buffers for the zero-allocation elimination core. In steady
/// state ([`crate::PreparedVire`] holds one per scratch arena) no heap
/// allocation happens per reading: every vector retains its capacity
/// between calls.
#[derive(Debug, Default, Clone)]
pub(crate) struct ElimBuffers {
    /// One reader's tile bounds: a lower bound on `|s_k − θ_k|` over
    /// each tile's nodes.
    bounds: Vec<f64>,
    /// One reader's per-tile gap nearest to its reading among the tile's
    /// extremes.
    near: Vec<f64>,
    /// Tiles that may lower a minimum or hold a survivor, one bit per
    /// tile in the [`bitgrid`] word layout.
    tile_bits: Vec<u64>,
    /// Phase 1's tiles whose max-gaps are already computed, as bits.
    covered: Vec<u64>,
    /// Per-tile largest bound over readers: a lower bound on every
    /// max-gap in the tile, so a tile whose bound is at least `t` holds
    /// no survivor at `t`.
    tile_bounds: Vec<f64>,
    /// Flat indices of the nodes whose max-gap was computed: every node
    /// of every tile whose bound is below the phase-1 threshold.
    flats: Vec<u32>,
    /// Those nodes' max-gaps `max_k |s_k − θ_k|`, aligned with `flats`.
    gaps: Vec<f64>,
    /// `select_nth` scratch (a copy of `gaps`, permuted).
    quantile: Vec<f64>,
    /// Surviving flat node indices during phase 3.
    list: Vec<u32>,
    /// Per-survivor gaps, entry-major: `list_gaps[e * K + k]`.
    list_gaps: Vec<f64>,
    /// Combined candidate mask, packed 64 row-major nodes per word (the
    /// [`bitgrid`] layout: node `flat` is bit `flat % 64` of word
    /// `flat / 64`; tail bits stay zero).
    pub(crate) mask: Vec<u64>,
    /// Final per-reader thresholds.
    pub(crate) thresholds: Vec<f64>,
    /// Phase-3 reader ordering.
    order: Vec<usize>,
    /// Phase-3 sort keys: each reader's proximity-map area at the common
    /// threshold, computed once per locate that runs phase 3.
    areas: Vec<usize>,
}

/// Smallest of `vals` not below `floor` (`+∞` if none), reduced with
/// lane-parallel accumulators. `min` over a fixed set of non-NaN values
/// is exact and order-independent, so this returns the same value as a
/// sequential fold while letting the loop vectorize instead of
/// serializing on the FP-min latency chain.
fn lane_min(vals: &[f64], floor: f64) -> f64 {
    let mut acc = [f64::INFINITY; 8];
    let mut chunks = vals.chunks_exact(acc.len());
    for c in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a = if v >= floor && v < *a { v } else { *a };
        }
    }
    let tail = chunks.remainder().iter().filter(|&&v| v >= floor);
    let m = tail.fold(f64::INFINITY, |m, &v| m.min(v));
    acc.iter().fold(m, |m, &a| m.min(a))
}

/// Packs `vals[i] < bound` into bitset words (the [`bitgrid`] layout),
/// 64 comparisons per word, tail bits zero.
fn pack_below(vals: &[f64], bound: f64, words: &mut Vec<u64>) {
    words.clear();
    words.extend(vals.chunks(bitgrid::WORD_BITS).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0u64, |bits, (b, &v)| bits | u64::from(v < bound) << b)
    }));
}

/// `#{i : vals[i] < bound}` as a vectorizable bool-sum.
fn count_below(vals: &[f64], bound: f64) -> usize {
    vals.iter().map(|&v| usize::from(v < bound)).sum()
}

/// `#{i : |plane[i] − theta| < bound}` as a vectorizable bool-sum.
fn count_gap_below(plane: &[f64], theta: f64, bound: f64) -> usize {
    plane
        .iter()
        .map(|&s| usize::from((s - theta).abs() < bound))
        .sum()
}

/// Allocation-free elimination over reader-major RSSI planes
/// (`planes[k * nodes + flat]`, the layout [`VirtualGrid::planes`] stores)
/// and their tile summary. On success the final mask and per-reader
/// thresholds are left in `buf` and `true` is returned; `false` means a
/// **fixed** threshold eliminated every region (adaptive mode always
/// keeps at least one).
///
/// A fixed threshold is one dense pass: each reader's `|s − θ| < t`
/// compares pack into 64-node words, and the readers' words AND.
///
/// The adaptive mode is bit-for-bit equivalent to the historical
/// map-building implementation, but visits only the tiles that can hold
/// a survivor. The joint survival test `∀k: |s_k − θ_k| < t` at a uniform
/// `t` equals `max_k |s_k − θ_k| < t`, and every tile carries a lower
/// bound on that max-gap (see [`TileSummary`]):
///
/// * the phase-1 start, the largest of the readers' smallest gaps (at
///   least `min`), is exact: a tile is scanned for reader `k` only while
///   its bound for `k` is below the running minimum, which starts at a
///   gap some node is known to have (the tile extreme nearest to `θ_k`),
///   and a reader stops once its minimum is at most the largest exact
///   minimum so far, since it can no longer raise the start;
/// * phase 1 computes exact max-gaps only in the tiles whose bound is
///   below the current `t`, and adds the tiles that newly fall below it
///   each time it raises `t`. A node with max-gap below `t` lies in such a
///   tile, so "the intersection is still empty" reads the same off the
///   computed nodes as off the whole lattice;
/// * phase 2's count and floor-th smallest max-gap (one `select_nth`),
///   phase 3's survivor list and the final mask see only computed nodes.
///   A skipped node's max-gap is at least its tile's bound, which is at
///   least the `t` it was skipped at, and phases 2–3 only lower `t`, so
///   it never survives and never ranks among the floor smallest;
/// * phase 3 probes only the surviving candidate list (survivors are
///   monotone under tightening, so pruning on accepted probes is exact);
///   its reader order counts each reader's area over the dense plane,
///   which it only needs when the list reaches the floor.
///
/// The threshold sequences themselves are produced by the same repeated
/// `+ step` / `− step` float arithmetic as the historical loops, so the
/// resulting thresholds, mask, and downstream weights are bit-identical.
pub(crate) fn eliminate_into(
    planes: &[f64],
    tiles: &TileSummary,
    reading: &TrackingReading,
    mode: ThresholdMode,
    buf: &mut ElimBuffers,
) -> bool {
    let k_readers = reading.reader_count();
    let nodes = tiles.nodes();
    debug_assert_eq!(planes.len(), k_readers * nodes);

    match mode {
        ThresholdMode::Fixed(t) => {
            assert!(
                t >= 0.0 && t.is_finite(),
                "threshold must be non-negative and finite"
            );
            let mask = &mut buf.mask;
            bitgrid::ensure_words(mask, nodes);
            // Each reader's threshold comparison emits word bitmasks; the
            // K-reader intersection is then a word-wise AND, with no
            // max-gap plane materialized at all. Equivalent to the
            // historical `max_k gap < t` test since `∀k: gap_k < t`
            // ⟺ `max_k gap_k < t` for finite gaps.
            bitgrid::fill_ones(mask, nodes);
            for k in 0..k_readers {
                let theta = reading.at(k);
                let plane = &planes[k * nodes..(k + 1) * nodes];
                for (word, chunk) in mask.iter_mut().zip(plane.chunks(bitgrid::WORD_BITS)) {
                    let mut bits = 0u64;
                    for (b, &s) in chunk.iter().enumerate() {
                        bits |= u64::from((s - theta).abs() < t) << b;
                    }
                    *word &= bits;
                }
            }
            if mask.iter().all(|&w| w == 0) {
                return false;
            }
            buf.thresholds.clear();
            buf.thresholds.resize(k_readers, t);
            true
        }
        ThresholdMode::Adaptive {
            step,
            min,
            per_reader,
            min_candidates,
        } => {
            assert!(step > 0.0 && min >= 0.0, "invalid adaptive parameters");
            let ElimBuffers {
                bounds,
                near,
                tile_bounds,
                tile_bits,
                covered,
                flats,
                gaps,
                quantile,
                list,
                list_gaps,
                mask,
                thresholds,
                order,
                areas,
            } = buf;
            let n_tiles = tiles.tiles;
            // Smallest per-reader gap: at threshold just above it, reader k
            // still highlights its best-matching region. The common start
            // is the largest of those (at least `min`), plus one step,
            // guaranteeing a non-empty map for every reader (though not yet
            // a non-empty intersection). Only that largest minimum enters
            // the threshold, so `reach` holds the largest exact minimum so
            // far (from `min`), and a reader whose minimum cannot exceed it
            // need not be finished.
            let mut reach = min;
            bounds.resize(n_tiles, 0.0);
            near.resize(n_tiles, 0.0);
            tile_bounds.clear();
            tile_bounds.resize(n_tiles, 0.0);
            for k in 0..k_readers {
                let theta = reading.at(k);
                let span = k * n_tiles..(k + 1) * n_tiles;
                let (lo, hi) = (&tiles.lo[span.clone()], &tiles.hi[span]);
                let (rb, nr, tb) = (&mut bounds[..], &mut near[..], &mut tile_bounds[..]);
                // Per tile: reader k's bound, the bound over readers so far,
                // and the nearer of the gaps of the nodes holding the
                // tile's extremes, `|lo − θ|` and `|θ − hi|`. Those are
                // bit for bit the nodes' own gaps (`fl(θ − s) = −fl(s − θ)`),
                // so the nearer one is a gap some node has.
                for i in 0..n_tiles {
                    let (below, above) = (theta - hi[i], lo[i] - theta);
                    let d = if below > above { below } else { above };
                    let d = if d > 0.0 { d } else { 0.0 };
                    rb[i] = d;
                    tb[i] = if d > tb[i] { d } else { tb[i] };
                    let (gl, gh) = (above.abs(), below.abs());
                    nr[i] = if gl < gh { gl } else { gh };
                }
                // Reader k's smallest gap, exactly whenever it exceeds
                // `reach`: starting from a gap some node has, only a tile
                // whose bound is below the running minimum can lower it,
                // and once the minimum is at most `reach` it cannot raise
                // the start.
                let mut m = lane_min(near, f64::NEG_INFINITY);
                if m > reach {
                    pack_below(bounds, m, tile_bits);
                    let plane = &planes[k * nodes..(k + 1) * nodes];
                    for tile in bitgrid::iter_ones(tile_bits) {
                        if bounds[tile] < m {
                            m = tiles.min_gap(plane, theta, tile, m);
                            if m <= reach {
                                break;
                            }
                        }
                    }
                    reach = if m > reach { m } else { reach };
                }
            }
            // Clamp so a floor larger than the lattice cannot make the
            // growth loop unbounded.
            let floor = min_candidates.max(1).min(nodes);
            let start = reach + step;

            // Phase 1: grow the common threshold until the intersection is
            // non-empty (the per-reader floors guarantee each map alone is
            // non-empty, but their intersection may need more slack). The
            // candidate floor deliberately does NOT apply here: a small
            // initial intersection means the readers already agree tightly,
            // and widening the threshold would only admit spurious regions.
            // The floor exists to stop the *shrinking* phases from
            // whittling an ample consistent region down to a noisy
            // single-cell snap. Empty intersection ⟺ no max-gap below t,
            // and every max-gap below t lies in a tile whose bound is below
            // t: those tiles are computed, once each, as t passes their
            // bounds. `next` is the smallest bound not yet covered, so a
            // step that does not pass it reads no tile.
            flats.clear();
            gaps.clear();
            covered.clear();
            covered.resize(bitgrid::words_for(n_tiles), 0);
            let mut t = start;
            let mut tightest = f64::INFINITY;
            let mut next = f64::NEG_INFINITY;
            loop {
                if next < t {
                    pack_below(tile_bounds, t, tile_bits);
                    next = lane_min(tile_bounds, t);
                    for (word, seen) in tile_bits.iter_mut().zip(covered.iter_mut()) {
                        (*word, *seen) = (*word & !*seen, *seen | *word);
                    }
                    for tile in bitgrid::iter_ones(tile_bits) {
                        tiles.for_each_max_gap(planes, reading.rssi(), tile, |flat, g| {
                            flats.push(flat as u32);
                            gaps.push(g);
                            tightest = if g < tightest { g } else { tightest };
                        });
                    }
                }
                if tightest < t {
                    break;
                }
                t += step;
            }
            let gaps = gaps.as_slice();

            // Phase 2: shrink the common threshold while the candidate
            // floor holds. The first probe is a plain count pass (cheap,
            // and in hostile conditions it already fails); only if it
            // succeeds is the floor-th smallest max-gap selected to drive
            // the remaining probes as scalar rank tests.
            if t - step >= min && count_below(gaps, t - step) >= floor {
                t -= step;
                quantile.clear();
                quantile.extend_from_slice(gaps);
                let (_, &mut q, _) = quantile.select_nth_unstable_by(floor - 1, |a, b| {
                    a.partial_cmp(b).expect("finite gaps")
                });
                while t - step >= min {
                    let cand = t - step;
                    if q >= cand {
                        break;
                    }
                    t = cand;
                }
            }
            thresholds.clear();
            thresholds.resize(k_readers, t);
            bitgrid::ensure_words(mask, nodes);
            mask.fill(0);

            // Phase 3: per-reader tightening, largest area first (area of
            // each reader's own proximity map at the common threshold).
            // Probes run over the surviving candidate list only: tightening
            // never resurrects a node, so survivors at any accepted
            // threshold vector are a subset of the current list, and the
            // list is re-pruned after each accepted probe.
            if per_reader {
                // Materialize the survivors at the common threshold with
                // their per-reader gaps (entry-major for contiguous probes).
                list.clear();
                list_gaps.clear();
                for (&flat, &m) in flats.iter().zip(gaps) {
                    if m < t {
                        list.push(flat);
                        for k in 0..k_readers {
                            let s = planes[k * nodes + flat as usize];
                            list_gaps.push((s - reading.at(k)).abs());
                        }
                    }
                }
                // While reader k's threshold is being tightened, every
                // other reader's threshold is fixed and every list entry
                // already satisfies it — so the joint survivor count at a
                // probe is simply how many list entries have their k-gap
                // below the probe: a rank test against the floor-th
                // smallest k-gap, exactly like phase 2. (When the list is
                // already below the floor, every probe fails and each
                // reader's threshold stays — skip directly, without
                // ordering the readers.)
                if list.len() >= floor {
                    // Each area is one pass over a plane, so compute the
                    // keys once; the stable sort keeps ties in reader
                    // order.
                    areas.clear();
                    areas.extend((0..k_readers).map(|k| {
                        count_gap_below(&planes[k * nodes..(k + 1) * nodes], reading.at(k), t)
                    }));
                    order.clear();
                    order.extend(0..k_readers);
                    order.sort_by_key(|&k| std::cmp::Reverse(areas[k]));
                    for &k in order.iter() {
                        quantile.clear();
                        quantile.extend(list_gaps.iter().skip(k).step_by(k_readers));
                        let (_, &mut qk, _) = quantile.select_nth_unstable_by(floor - 1, |a, b| {
                            a.partial_cmp(b).expect("finite gaps")
                        });
                        let before = thresholds[k];
                        while thresholds[k] - step >= min {
                            let cand = thresholds[k] - step;
                            if qk >= cand {
                                break;
                            }
                            thresholds[k] = cand;
                        }
                        // One in-place compaction per reader (the accepted
                        // survivor set only depends on the final value).
                        if thresholds[k] < before {
                            let keep = thresholds[k];
                            let mut w = 0;
                            for e in 0..list.len() {
                                if list_gaps[e * k_readers + k] < keep {
                                    list[w] = list[e];
                                    list_gaps.copy_within(
                                        e * k_readers..(e + 1) * k_readers,
                                        w * k_readers,
                                    );
                                    w += 1;
                                }
                            }
                            list.truncate(w);
                            list_gaps.truncate(w * k_readers);
                        }
                    }
                }
                for &flat in list.iter() {
                    bitgrid::set_bit(mask, flat as usize);
                }
            } else {
                for (&flat, &m) in flats.iter().zip(gaps) {
                    if m < t {
                        bitgrid::set_bit(mask, flat as usize);
                    }
                }
            }
            true
        }
    }
}

/// Runs elimination. Returns `None` when a **fixed** threshold eliminates
/// every region (adaptive mode always keeps at least one).
///
/// One-shot convenience over the internal `eliminate_into`, which also
/// builds the grid's tile summary; hot paths go through
/// [`crate::PreparedVire`], which keeps the summary in step with its
/// grid and reuses the buffers across readings.
pub fn eliminate(
    grid: &VirtualGrid,
    reading: &TrackingReading,
    mode: ThresholdMode,
) -> Option<EliminationResult> {
    debug_assert_eq!(grid.reader_count(), reading.reader_count());
    let mut buf = ElimBuffers::default();
    let tiles = TileSummary::of(grid);
    if !eliminate_into(grid.planes(), &tiles, reading, mode, &mut buf) {
        return None;
    }
    Some(EliminationResult {
        mask: BitGrid::from_words(*grid.grid(), std::mem::take(&mut buf.mask)),
        thresholds: std::mem::take(&mut buf.thresholds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ReferenceRssiMap;
    use crate::virtual_grid::InterpolationKernel;
    use proptest::prelude::*;
    use vire_geom::{GridData as GD, Point2, RegularGrid};

    fn setup() -> (VirtualGrid, TrackingReading, Point2) {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let readers = vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
            Point2::new(-1.0, 4.0),
        ];
        let fields = readers
            .iter()
            .map(|r| GD::from_fn(grid, |_, p| -60.0 - 4.0 * p.distance(*r)))
            .collect();
        let refs = ReferenceRssiMap::new(grid, readers.clone(), fields);
        let vg = VirtualGrid::build(&refs, 5, InterpolationKernel::Linear);
        let truth = Point2::new(1.3, 1.7);
        let reading = TrackingReading::new(
            readers
                .iter()
                .map(|r| -60.0 - 4.0 * truth.distance(*r))
                .collect(),
        );
        (vg, reading, truth)
    }

    #[test]
    fn fixed_threshold_keeps_truth_region() {
        let (vg, reading, truth) = setup();
        let result = eliminate(&vg, &reading, ThresholdMode::Fixed(2.0)).unwrap();
        assert!(result.candidates() > 0);
        let nearest = vg.grid().nearest_node(truth);
        assert!(result.mask.get(nearest), "true region must survive");
        assert_eq!(result.thresholds, vec![2.0; 4]);
    }

    #[test]
    fn tiny_fixed_threshold_can_eliminate_everything() {
        let (vg, reading, _) = setup();
        assert!(eliminate(&vg, &reading, ThresholdMode::Fixed(1e-6)).is_none());
    }

    #[test]
    fn adaptive_never_returns_empty() {
        let (vg, reading, _) = setup();
        let result = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        assert!(result.candidates() > 0);
    }

    #[test]
    fn adaptive_keeps_truth_region_nearby() {
        let (vg, reading, truth) = setup();
        let result = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        // The surviving mask's candidates should cluster around the truth:
        // every candidate within 1 m on this noise-free field.
        for (idx, set) in result.mask.iter() {
            if set {
                let p = vg.grid().position(idx);
                assert!(
                    p.distance(truth) < 1.0,
                    "candidate {p} too far from truth {truth}"
                );
            }
        }
    }

    #[test]
    fn adaptive_area_not_larger_than_loose_fixed() {
        let (vg, reading, _) = setup();
        let adaptive = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        let loose = eliminate(&vg, &reading, ThresholdMode::Fixed(6.0)).unwrap();
        assert!(adaptive.candidates() <= loose.candidates());
    }

    #[test]
    fn per_reader_tightening_never_grows_the_mask() {
        let (vg, reading, _) = setup();
        let common_only = eliminate(
            &vg,
            &reading,
            ThresholdMode::Adaptive {
                step: 0.25,
                min: 0.05,
                per_reader: false,
                min_candidates: 1,
            },
        )
        .unwrap();
        let tightened = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        assert!(tightened.candidates() <= common_only.candidates());
        assert!(tightened.candidates() > 0);
    }

    #[test]
    fn fixed_candidates_grow_with_threshold() {
        let (vg, reading, _) = setup();
        let mut prev = 0;
        for t in [0.5, 1.0, 2.0, 4.0, 8.0] {
            if let Some(r) = eliminate(&vg, &reading, ThresholdMode::Fixed(t)) {
                assert!(r.candidates() >= prev);
                prev = r.candidates();
            }
        }
        assert!(prev > 0);
    }

    #[test]
    fn per_reader_thresholds_do_not_exceed_common() {
        let (vg, reading, _) = setup();
        let r = eliminate(&vg, &reading, ThresholdMode::default()).unwrap();
        let max_t = r.thresholds.iter().cloned().fold(0.0, f64::max);
        for &t in &r.thresholds {
            assert!(t <= max_t);
            assert!(t >= 0.05);
        }
    }

    /// The dense elimination every locate ran before tile pruning, kept
    /// as the reference the pruned one must match to the bit: one
    /// lane-chunked pass computes every node's max-gap and each reader's
    /// smallest gap, and phases 1–3 then probe that whole plane.
    mod dense {
        use super::super::{count_below, count_gap_below};
        use crate::types::TrackingReading;
        use crate::ThresholdMode;
        use vire_geom::bitgrid;

        const LANES: usize = 8;

        /// `out[i] = max_k |planes[k][i] − thetas[k]|` folded from zero in
        /// ascending `k`, and `mins[k] = min_i |planes[k][i] − thetas[k]|`.
        pub(super) fn max_gap_into(
            planes: &[f64],
            nodes: usize,
            thetas: &[f64],
            out: &mut Vec<f64>,
            mins: &mut Vec<f64>,
        ) {
            out.clear();
            out.resize(nodes, 0.0);
            mins.clear();
            for (k, &theta) in thetas.iter().enumerate() {
                let mut acc = out.chunks_exact_mut(LANES);
                let mut vals = planes[k * nodes..(k + 1) * nodes].chunks_exact(LANES);
                let mut lo = [f64::INFINITY; LANES];
                for (a, s) in (&mut acc).zip(&mut vals) {
                    for ((a, l), &s) in a.iter_mut().zip(&mut lo).zip(s) {
                        let g = (s - theta).abs();
                        *a = if g > *a { g } else { *a };
                        *l = if g < *l { g } else { *l };
                    }
                }
                let mut m = lo.iter().fold(f64::INFINITY, |m, &l| m.min(l));
                for (a, &s) in acc.into_remainder().iter_mut().zip(vals.remainder()) {
                    let g = (s - theta).abs();
                    if g > *a {
                        *a = g;
                    }
                    if g < m {
                        m = g;
                    }
                }
                mins.push(m);
            }
        }

        /// The mask and thresholds, or `None` when a fixed threshold
        /// eliminates every region.
        pub(super) fn eliminate(
            planes: &[f64],
            nodes: usize,
            reading: &TrackingReading,
            mode: ThresholdMode,
        ) -> Option<(Vec<u64>, Vec<f64>)> {
            let k_readers = reading.reader_count();
            let mut mask = vec![0u64; bitgrid::words_for(nodes)];
            match mode {
                ThresholdMode::Fixed(t) => {
                    for i in 0..nodes {
                        if (0..k_readers).all(|k| (planes[k * nodes + i] - reading.at(k)).abs() < t)
                        {
                            bitgrid::set_bit(&mut mask, i);
                        }
                    }
                    (!mask.iter().all(|&w| w == 0)).then(|| (mask, vec![t; k_readers]))
                }
                ThresholdMode::Adaptive {
                    step,
                    min,
                    per_reader,
                    min_candidates,
                } => {
                    let (mut maxgap, mut best) = (Vec::new(), Vec::new());
                    max_gap_into(planes, nodes, reading.rssi(), &mut maxgap, &mut best);
                    let floor = min_candidates.max(1).min(nodes);
                    let start = best.iter().copied().fold(0.0f64, f64::max).max(min) + step;
                    let tightest = maxgap.iter().fold(f64::INFINITY, |m, &g| m.min(g));
                    let mut t = start;
                    while tightest >= t {
                        t += step;
                    }
                    if t - step >= min && count_below(&maxgap, t - step) >= floor {
                        t -= step;
                        let mut quantile = maxgap.clone();
                        let (_, &mut q, _) = quantile
                            .select_nth_unstable_by(floor - 1, |a, b| a.partial_cmp(b).unwrap());
                        while t - step >= min && q < t - step {
                            t -= step;
                        }
                    }
                    let mut thresholds = vec![t; k_readers];
                    let gap =
                        |k: usize, flat: usize| (planes[k * nodes + flat] - reading.at(k)).abs();
                    let mut list: Vec<usize> = (0..nodes).filter(|&i| maxgap[i] < t).collect();
                    if per_reader && list.len() >= floor {
                        let areas: Vec<usize> = (0..k_readers)
                            .map(|k| {
                                count_gap_below(
                                    &planes[k * nodes..(k + 1) * nodes],
                                    reading.at(k),
                                    t,
                                )
                            })
                            .collect();
                        let mut order: Vec<usize> = (0..k_readers).collect();
                        order.sort_by_key(|&k| std::cmp::Reverse(areas[k]));
                        for k in order {
                            let mut quantile: Vec<f64> = list.iter().map(|&i| gap(k, i)).collect();
                            let (_, &mut qk, _) = quantile
                                .select_nth_unstable_by(floor - 1, |a, b| {
                                    a.partial_cmp(b).unwrap()
                                });
                            while thresholds[k] - step >= min && qk < thresholds[k] - step {
                                thresholds[k] -= step;
                            }
                            list.retain(|&i| gap(k, i) < thresholds[k]);
                        }
                    }
                    for i in list {
                        bitgrid::set_bit(&mut mask, i);
                    }
                    Some((mask, thresholds))
                }
            }
        }
    }

    /// Plane values: RSSI-like decibels, half-dB steps that tie, and
    /// values at and around ±0.0.
    fn plane_value() -> impl Strategy<Value = f64> {
        (0u8..6, -95.0..-40.0f64, -1.0..1.0f64).prop_map(|(kind, db, small)| match kind {
            0 | 1 => db,
            2 => (db * 2.0).round() / 2.0,
            3 => small,
            4 => 0.0,
            _ => -0.0,
        })
    }

    /// A reading for reader `k`'s plane: one of its values, the smallest
    /// or largest value of one of its tiles, a point between two values,
    /// a point outside its range, or ±0.0.
    fn theta_for(plane: &[f64], nx: usize, ny: usize, pick: usize, kind: u8) -> f64 {
        let mut summary = TileSummary::default();
        summary.refresh_planes(plane, nx, ny);
        let tile = pick % summary.tiles;
        let (i, j) = (pick % plane.len(), (pick / 7) % plane.len());
        match kind {
            0 | 1 => plane[i],
            2 => summary.lo[tile],
            3 => summary.hi[tile],
            4 => plane[i] + (plane[j] - plane[i]) / 2.0,
            5 => summary.lo[tile] - 2.5,
            6 => summary.hi[tile] + 0.75,
            7 => 0.0,
            _ => -0.0,
        }
    }

    /// The threshold modes to compare: fixed thresholds (zero, tiny, or
    /// exactly one node's gap), and adaptive ones with every floor from 1
    /// up to the node count, so phases 2 and 3 run too.
    fn mode_for(
        nodes: usize,
        gap: f64,
        (kind, step, min, per_reader, floor): (u8, usize, usize, bool, usize),
    ) -> ThresholdMode {
        match kind {
            0 => ThresholdMode::Fixed([0.0, 1e-9, gap, 3.0][floor % 4]),
            _ => ThresholdMode::Adaptive {
                step: [0.25, 1.0, 2.0, 4.0][step],
                min: [0.0, 0.05, 0.5][min],
                per_reader,
                min_candidates: if kind == 1 {
                    1 + floor % nodes
                } else {
                    1 + floor % nodes.min(4)
                },
            },
        }
    }

    /// Runs both eliminations and compares the outcome, mask and
    /// threshold bits.
    fn assert_matches_dense(
        planes: &[f64],
        nx: usize,
        ny: usize,
        thetas: &[f64],
        mode: ThresholdMode,
    ) -> Result<(), TestCaseError> {
        let reading = TrackingReading::new(thetas.to_vec());
        let mut summary = TileSummary::default();
        summary.refresh_planes(planes, nx, ny);
        let mut buf = ElimBuffers::default();
        // Twice through one buffer, so stale scratch would show.
        for _ in 0..2 {
            let kept = eliminate_into(planes, &summary, &reading, mode, &mut buf);
            let reference = dense::eliminate(planes, nx * ny, &reading, mode);
            prop_assert_eq!(kept, reference.is_some(), "{:?}", mode);
            if let Some((mask, thresholds)) = reference {
                let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(&buf.mask, &mask, "{:?} on {}x{}", mode, nx, ny);
                prop_assert_eq!(bits(&buf.thresholds), bits(&thresholds), "{:?}", mode);
            }
        }
        Ok(())
    }

    /// Lattice sides from 1 to 13: on and off multiples of the tile side,
    /// with 1 × N, N × 1 and 1 × 1 among them.
    fn side() -> impl Strategy<Value = usize> {
        (0u8..4, 2usize..=13).prop_map(|(one, n)| if one == 0 { 1 } else { n })
    }

    fn mode_params() -> impl Strategy<Value = (u8, usize, usize, bool, usize)> {
        (0u8..3, 0usize..4, 0usize..3, any::<bool>(), any::<usize>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Tile-pruned elimination against the dense reference on raw
        /// planes: ties and ±0.0, readings on a tile's extremes, every
        /// lattice shape up to 13 × 13, fixed and adaptive modes with
        /// `per_reader` on and off and every floor.
        #[test]
        fn tile_pruned_elimination_matches_dense(
            (nx, ny, k_readers) in (side(), side(), 1usize..=4),
            seed in prop::collection::vec(plane_value(), 4 * 13 * 13),
            picks in prop::collection::vec((any::<usize>(), 0u8..9), 4),
            params in mode_params(),
        ) {
            let nodes = nx * ny;
            let planes = &seed[..k_readers * nodes];
            let thetas: Vec<f64> = (0..k_readers)
                .map(|k| {
                    let (pick, kind) = picks[k];
                    theta_for(&planes[k * nodes..(k + 1) * nodes], nx, ny, pick, kind)
                })
                .collect();
            let gap = (planes[picks[0].0 % nodes] - thetas[0]).abs();
            assert_matches_dense(planes, nx, ny, &thetas, mode_for(nodes, gap, params))?;
        }

        /// The same comparison on interpolated virtual grids: coarse
        /// lattices of 1 to 5 nodes a side, refine 1 to 3, every kernel.
        #[test]
        fn tile_pruned_elimination_matches_dense_on_virtual_grids(
            (cnx, cny, refine) in (1usize..=5, 1usize..=5, 1usize..=3),
            cells in prop::collection::vec(plane_value(), 3 * 25),
            picks in prop::collection::vec((any::<usize>(), 0u8..9), 3),
            params in mode_params(),
        ) {
            let coarse = RegularGrid::new(Point2::ORIGIN, 1.0, 1.5, cnx, cny);
            let readers = vec![Point2::new(-1.0, -1.0), Point2::new(6.0, 0.5), Point2::new(2.0, 8.0)];
            let fields = cells
                .chunks_exact(25)
                .map(|c| {
                    let mut i = 0;
                    GD::from_fn(coarse, |_, _| {
                        i += 1;
                        c[i - 1]
                    })
                })
                .collect();
            let refs = ReferenceRssiMap::new(coarse, readers, fields);
            for kernel in InterpolationKernel::ALL {
                let vg = VirtualGrid::build(&refs, refine, kernel);
                let (nx, ny, nodes) = (vg.grid().nx(), vg.grid().ny(), vg.tag_count());
                let thetas: Vec<f64> = (0..3)
                    .map(|k| theta_for(vg.field(k), nx, ny, picks[k].0, picks[k].1))
                    .collect();
                let gap = (vg.field(0)[picks[0].0 % nodes] - thetas[0]).abs();
                assert_matches_dense(vg.planes(), nx, ny, &thetas, mode_for(nodes, gap, params))?;
            }
        }
    }
}
