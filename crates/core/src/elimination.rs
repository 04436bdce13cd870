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
//! regions survive, so the adaptive mode does not sweep the lattice. The
//! [`VirtualGrid`] is itself a tile-major store: for every 4 × 4 tile,
//! each reader's RSSI range over the tile and its 16 values in one
//! contiguous block, and a locate reads it in place. One fused pass over
//! the ranges bounds every tile's gaps `|s − θ|` before any node is
//! read; a reader's smallest gap is then taken exactly from the few
//! tiles that could hold it, and per-node max-gaps are computed only in
//! the tiles whose bound is below the threshold, where every survivor
//! lies, visited best-first by bound. Phases 2–3 and the weighting read
//! the survivors' values from the same store. The thresholds and the mask are bit-identical to a
//! dense pass over every node.

use crate::types::TrackingReading;
use crate::virtual_grid::{lanes_min, Lanes, VirtualGrid, LANES, SLOTS};
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

// The bounds a locate reads off the grid's tile store (see `VirtualGrid`
// for its layout). For `s ∈ [lo, hi]`,
// `|s − θ| ≥ max(θ − hi, lo − θ, 0)`; the bound holds for the computed
// floats too, because rounding is monotone: `s ≤ hi` gives
// `fl(θ − s) ≥ fl(θ − hi)`, and `s ≥ lo` gives `fl(s − θ) ≥ fl(lo − θ)`.
impl VirtualGrid {
    /// The block pass, one read of every block range: `bounds[block]`
    /// becomes the block's bound over readers, a lower bound on every
    /// max-gap in it (padded to whole groups with `+∞`), and
    /// `near[k][lane]` the smallest, over the lane's blocks, of reader
    /// `k`'s gap at the block extreme nearest its reading. With
    /// `d = max(θ − hi, lo − θ)` that gap is `|d|`: `lo − θ` when
    /// `θ < lo`, `θ − hi` when `θ > hi`, and the smaller of `θ − lo` and
    /// `hi − θ` in between (rounding is monotone, so this holds for the
    /// computed floats too). It is bit for bit the extreme node's own gap
    /// (`fl(θ − s) = −fl(s − θ)`), so a gap some node has.
    fn block_pass(&self, thetas: &[f64], bounds: &mut Vec<f64>, near: &mut Vec<Lanes>) {
        bounds.clear();
        near.clear();
        near.resize(self.readers, [f64::INFINITY; LANES]);
        for group in self.blocks.chunks_exact(self.readers) {
            // Folding from zero clamps the bound at zero.
            let mut acc = [0.0f64; LANES];
            for ((&theta, [lo, hi]), nr) in thetas.iter().zip(group).zip(near.iter_mut()) {
                for l in 0..LANES {
                    let (below, above) = (theta - hi[l], lo[l] - theta);
                    let d = if below > above { below } else { above };
                    acc[l] = if d > acc[l] { d } else { acc[l] };
                    let g = d.abs();
                    nr[l] = if g < nr[l] { g } else { nr[l] };
                }
            }
            bounds.extend_from_slice(&acc);
        }
    }

    /// The bounds over readers of `block`'s tiles, clamped at zero like
    /// the block bounds (`+∞` for pad tiles).
    fn tile_bounds(&self, block: usize, thetas: &[f64]) -> Lanes {
        let mut acc = [0.0f64; LANES];
        let ranges = &self.ranges[block * self.readers..][..self.readers];
        for (&theta, [lo, hi]) in thetas.iter().zip(ranges) {
            for l in 0..LANES {
                let (below, above) = (theta - hi[l], lo[l] - theta);
                let d = if below > above { below } else { above };
                acc[l] = if d > acc[l] { d } else { acc[l] };
            }
        }
        acc
    }

    /// Reader `k`'s smallest gap to `theta`, exactly whenever it exceeds
    /// `reach`, starting from `m`, a gap some node has: only a tile (in a
    /// block) whose bound for `k` is below the running minimum can lower
    /// it, and once the minimum is at most `reach` it is no longer
    /// needed. Entering a block first takes the gap of each of its tiles'
    /// nearest extreme (`|d|`, see the block pass), also a gap some node
    /// has. (Every
    /// reader's bound below would be clamped at zero, but the minimum
    /// only runs while it exceeds `reach ≥ 0`, so the clamp changes no
    /// comparison.)
    fn smallest_gap(
        &self,
        k: usize,
        theta: f64,
        mut m: f64,
        reach: f64,
        work: &mut impl Tally,
    ) -> f64 {
        let groups = self.blocks.iter().skip(k).step_by(self.readers);
        let blocks = groups.flat_map(|[lo, hi]| lo.iter().zip(hi));
        for (block, (&block_lo, &block_hi)) in blocks.enumerate() {
            work.range_entries(2);
            if theta - block_hi >= m || block_lo - theta >= m {
                continue;
            }
            // The block's tile extremes are nodes too: the nearest one
            // may lower the minimum before any value is read.
            let [lo, hi] = &self.ranges[block * self.readers + k];
            work.range_entries(2 * LANES);
            let mut d = [0.0f64; LANES];
            let mut nearest = [f64::INFINITY; LANES];
            for l in 0..LANES {
                let (below, above) = (theta - hi[l], lo[l] - theta);
                d[l] = if below > above { below } else { above };
                nearest[l] = d[l].abs();
            }
            m = m.min(lanes_min(nearest));
            for (l, &d) in d.iter().enumerate() {
                if d < m {
                    work.scanned_tile();
                    m = self.min_gap(block * LANES + l, k, theta, m);
                    if m <= reach {
                        return m;
                    }
                }
            }
        }
        m
    }

    /// `min(m, min |s − θ|)` over reader `k`'s values in `tile`: one
    /// contiguous block.
    fn min_gap(&self, tile: usize, k: usize, theta: f64, m: f64) -> f64 {
        let mut acc = [m; SLOTS];
        for (a, &s) in acc.iter_mut().zip(self.block(tile, k)) {
            let g = (s - theta).abs();
            *a = if g < *a { g } else { *a };
        }
        lanes_min(acc)
    }

    /// Every node's max-gap `max_k |s_k − θ_k|` in `tile`, by slot (`+∞`
    /// off the lattice). It folds from zero in ascending `k`, like the
    /// dense max-gap plane's per-node value, so it has the same bits.
    fn max_gaps(&self, tile: usize, thetas: &[f64]) -> [f64; SLOTS] {
        let mut acc = [0.0f64; SLOTS];
        let blocks = self.values[tile * self.readers * SLOTS..].chunks_exact(SLOTS);
        for (&theta, block) in thetas.iter().zip(blocks) {
            for (a, &s) in acc.iter_mut().zip(block) {
                let g = (s - theta).abs();
                *a = if g > *a { g } else { *a };
            }
        }
        acc
    }

    /// `#{nodes : |s_k − θ| < bound}` over reader `k`'s values.
    fn area(&self, k: usize, theta: f64, bound: f64) -> usize {
        let blocks = self
            .values
            .chunks_exact(SLOTS)
            .skip(k)
            .step_by(self.readers);
        blocks
            .map(|block| count_gap_below(block, theta, bound))
            .sum()
    }
}

/// What one elimination read and computed: the work tile pruning leaves,
/// counted only when a caller asks for it
/// ([`crate::PreparedVire::elimination_work`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EliminationWork {
    /// Tile range entries read (one reader's smallest or largest value
    /// over one tile, the pad tiles of the last block included).
    pub range_entries: usize,
    /// Tiles whose values a reader's smallest-gap scan read.
    pub scanned_tiles: usize,
    /// Tiles phase 1 queued by bound after its first tile.
    pub queued_tiles: usize,
    /// Tiles whose nodes' max-gaps were computed.
    pub computed_tiles: usize,
}

/// Where an elimination counts its work: production passes `()`, which
/// counts nothing and compiles away.
pub(crate) trait Tally {
    fn range_entries(&mut self, n: usize);
    fn scanned_tile(&mut self);
    fn queued_tiles(&mut self, n: usize);
    fn computed_tile(&mut self);
}

impl Tally for () {
    fn range_entries(&mut self, _: usize) {}
    fn scanned_tile(&mut self) {}
    fn queued_tiles(&mut self, _: usize) {}
    fn computed_tile(&mut self) {}
}

impl Tally for EliminationWork {
    fn range_entries(&mut self, n: usize) {
        self.range_entries += n;
    }
    fn scanned_tile(&mut self) {
        self.scanned_tiles += 1;
    }
    fn queued_tiles(&mut self, n: usize) {
        self.queued_tiles += n;
    }
    fn computed_tile(&mut self) {
        self.computed_tiles += 1;
    }
}

/// Reusable buffers for the zero-allocation elimination core. In steady
/// state ([`crate::PreparedVire`] holds one per scratch arena) no heap
/// allocation happens per reading: every vector retains its capacity
/// between calls.
#[derive(Debug, Default, Clone)]
pub(crate) struct ElimBuffers {
    /// Per-block largest bound over readers: a lower bound on every
    /// max-gap in the block, so a block whose bound is at least `t` holds
    /// no survivor at `t`.
    block_bounds: Vec<f64>,
    /// Each reader's lanes of nearest-extreme gaps (see the block pass).
    near: Vec<Lanes>,
    /// Blocks whose tile bounds phase 1 computed while looking for the
    /// tile of smallest bound, with those bounds.
    descended: Vec<(usize, Lanes)>,
    /// Phase 1's tiles to compute after the first, as `(bound, tile)`,
    /// ascending by bound.
    queue: Vec<(f64, u32)>,
    /// The tiles whose max-gaps were computed, in the order computed.
    done: Vec<u32>,
    /// Their nodes' max-gaps, one `SLOTS` block per tile of `done`.
    gaps: Vec<f64>,
    /// `select_nth` scratch (a copy of `gaps`, permuted).
    quantile: Vec<f64>,
    /// Surviving nodes during phase 3, as `tile · SLOTS + slot`.
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

/// The slots of one tile's max-gaps below `t`, as bits.
fn below(gaps: &[f64], t: f64) -> u32 {
    let bits = gaps.iter().enumerate();
    bits.fold(0, |bits, (slot, &g)| bits | u32::from(g < t) << slot)
}

/// Calls `visit(tile, slot)` for every computed node whose max-gap is
/// below `t`.
fn for_each_below(done: &[u32], gaps: &[f64], t: f64, mut visit: impl FnMut(usize, usize)) {
    for (&tile, g) in done.iter().zip(gaps.chunks_exact(SLOTS)) {
        let mut bits = below(g, t);
        while bits != 0 {
            visit(tile as usize, bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// `#{i : |vals[i] − theta| < bound}` as a vectorizable bool-sum.
fn count_gap_below(vals: &[f64], theta: f64, bound: f64) -> usize {
    vals.iter()
        .map(|&s| usize::from((s - theta).abs() < bound))
        .sum()
}

/// Computes `tile`'s max-gaps into `done` and `gaps` and returns their
/// smallest.
fn compute_tile(
    grid: &VirtualGrid,
    thetas: &[f64],
    tile: usize,
    done: &mut Vec<u32>,
    gaps: &mut Vec<f64>,
    work: &mut impl Tally,
) -> f64 {
    work.computed_tile();
    let g = grid.max_gaps(tile, thetas);
    done.push(tile as u32);
    gaps.extend_from_slice(&g);
    lanes_min(g)
}

/// Allocation-free elimination over the virtual grid's tile store. On
/// success the final mask and per-reader thresholds are left in `buf` and
/// `true` is returned; `false` means a **fixed** threshold eliminated
/// every region (adaptive mode always keeps at least one). `work` counts
/// what the elimination read (`()` counts nothing).
///
/// A fixed threshold computes every tile's max-gaps and keeps the nodes
/// below it: `∀k: |s_k − θ_k| < t` ⟺ `max_k |s_k − θ_k| < t` for finite
/// gaps.
///
/// The adaptive mode is bit-for-bit equivalent to the historical
/// map-building implementation, but visits only the tiles that can hold
/// a survivor. The joint survival test `∀k: |s_k − θ_k| < t` at a uniform
/// `t` equals `max_k |s_k − θ_k| < t`, and every block and tile carries a
/// lower bound on that max-gap, from each reader's range `[lo, hi]` over
/// it: `|s − θ| ≥ max(θ − hi, lo − θ, 0)`, for the computed floats too:
///
/// * one pass over the block ranges yields each block's bound over
///   readers and each reader's nearest-extreme gap;
/// * the phase-1 start, the largest of the readers' smallest gaps (at
///   least `min`), is exact: a tile is scanned for reader `k` only while
///   its bound for `k` (and its block's) is below the running minimum,
///   which starts at the reader's nearest-extreme gap, and a reader stops
///   once its minimum is
///   at most the largest exact minimum so far, since it can no longer
///   raise the start;
/// * phase 1 visits tiles best-first by bound. It computes the tile of
///   smallest bound first: every max-gap is at least that bound, and the
///   growth stops at the first `t` above the smallest max-gap, so that
///   tile is always below the final `t`. Its smallest max-gap caps the
///   final `t` by the first `t` of the same `+ step` walk above it, so
///   one more pass queues every other tile below that cap, sorted by
///   bound, and each `t` step computes the queued tiles it passes. A node
///   with max-gap below `t` lies in a tile whose bound is below `t`, so
///   "the intersection is still empty" reads the same off the computed
///   nodes as off the whole lattice;
/// * phase 2's count and floor-th smallest max-gap (one `select_nth`),
///   phase 3's survivor list and the final mask see only computed nodes.
///   A skipped node's max-gap is at least its tile's bound, which is at
///   least the final phase-1 `t`, and phases 2–3 only lower `t`, so it
///   never survives and never ranks among the floor smallest;
/// * phase 3 probes only the surviving candidate list (survivors are
///   monotone under tightening, so pruning on accepted probes is exact);
///   its reader order counts each reader's area over the whole store,
///   which it only needs when the list reaches the floor.
///
/// The threshold sequences themselves are produced by the same repeated
/// `+ step` / `− step` float arithmetic as the historical loops, so the
/// resulting thresholds, mask, and downstream weights are bit-identical.
pub(crate) fn eliminate_into(
    grid: &VirtualGrid,
    reading: &TrackingReading,
    mode: ThresholdMode,
    buf: &mut ElimBuffers,
    work: &mut impl Tally,
) -> bool {
    let thetas = reading.rssi();
    let k_readers = thetas.len();
    let nodes = grid.tag_count();
    debug_assert_eq!(k_readers, grid.readers);

    match mode {
        ThresholdMode::Fixed(t) => {
            assert!(
                t >= 0.0 && t.is_finite(),
                "threshold must be non-negative and finite"
            );
            let mask = &mut buf.mask;
            bitgrid::ensure_words(mask, nodes);
            mask.fill(0);
            for tile in 0..grid.tiles {
                for (slot, &g) in grid.max_gaps(tile, thetas).iter().enumerate() {
                    if g < t {
                        bitgrid::set_bit(mask, grid.flat(tile, slot));
                    }
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
                block_bounds,
                near,
                descended,
                queue,
                done,
                gaps,
                quantile,
                list,
                list_gaps,
                mask,
                thresholds,
                order,
                areas,
            } = buf;
            grid.block_pass(thetas, block_bounds, near);
            work.range_entries(grid.blocks.len() * 2 * LANES);
            // Smallest per-reader gap: at threshold just above it, reader k
            // still highlights its best-matching region. The common start
            // is the largest of those (at least `min`), plus one step,
            // guaranteeing a non-empty map for every reader (though not yet
            // a non-empty intersection). Only that largest minimum enters
            // the threshold, so `reach` holds the largest exact minimum so
            // far (from `min`), and a reader whose minimum cannot exceed it
            // need not be finished.
            let mut reach = min;
            for (k, (&theta, lanes)) in thetas.iter().zip(near.iter()).enumerate() {
                let m = lanes_min(*lanes);
                if m > reach {
                    let m = grid.smallest_gap(k, theta, m, reach, work);
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
            // t: those tiles are computed, once each, best-first, as t
            // passes their bounds.
            done.clear();
            gaps.clear();
            // The tile of smallest bound: only a block whose bound is
            // below the best tile bound so far can hold a smaller one.
            // Each block's tile bounds are computed once and kept.
            descended.clear();
            let best_block = (0..block_bounds.len())
                .min_by(|&a, &b| block_bounds[a].total_cmp(&block_bounds[b]))
                .unwrap_or(0);
            let others = (0..block_bounds.len()).filter(|&b| b != best_block);
            let (mut first, mut first_bound) = (0, f64::INFINITY);
            for block in std::iter::once(best_block).chain(others) {
                if block_bounds[block] >= first_bound {
                    continue;
                }
                work.range_entries(k_readers * 2 * LANES);
                let lanes = grid.tile_bounds(block, thetas);
                descended.push((block, lanes));
                for (tile, b) in (block * LANES..).zip(lanes) {
                    if b < first_bound {
                        (first, first_bound) = (tile, b);
                    }
                }
            }
            // Every max-gap is at least that tile's bound, so it lies below
            // the final `t` and is computed first; its smallest max-gap caps
            // the walk at `last`, and the tiles below the cap are queued.
            let mut tightest = compute_tile(grid, thetas, first, done, gaps, work);
            let mut last = start;
            while tightest >= last {
                last += step;
            }
            queue.clear();
            for (block, &bound) in block_bounds.iter().enumerate() {
                if bound >= last {
                    continue;
                }
                let lanes = match descended.iter().find(|(b, _)| *b == block) {
                    Some(&(_, lanes)) => lanes,
                    None => {
                        work.range_entries(k_readers * 2 * LANES);
                        grid.tile_bounds(block, thetas)
                    }
                };
                let lanes = (block * LANES..).zip(lanes);
                queue.extend(
                    lanes
                        .filter(|&(tile, b)| b < last && tile != first)
                        .map(|(tile, b)| (b, tile as u32)),
                );
            }
            queue.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            work.queued_tiles(queue.len());
            let mut t = start;
            let mut queued = queue.iter().peekable();
            loop {
                while let Some(&(_, tile)) = queued.next_if(|&&(b, _)| b < t) {
                    let g = compute_tile(grid, thetas, tile as usize, done, gaps, work);
                    tightest = if g < tightest { g } else { tightest };
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
            let count_below = |t| -> usize {
                let blocks = gaps.chunks_exact(SLOTS);
                blocks.map(|g| below(g, t).count_ones() as usize).sum()
            };
            if t - step >= min && count_below(t - step) >= floor {
                t -= step;
                quantile.clear();
                quantile.extend_from_slice(gaps);
                let (_, &mut q, _) = quantile.select_nth_unstable_by(floor - 1, |a, b| {
                    a.partial_cmp(b).expect("gaps are not NaN")
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
                for_each_below(done, gaps, t, |tile, slot| {
                    list.push((tile * SLOTS + slot) as u32);
                    for (k, &theta) in thetas.iter().enumerate() {
                        list_gaps.push((grid.block(tile, k)[slot] - theta).abs());
                    }
                });
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
                    // Each area is one pass over a reader's values, so
                    // compute the keys once; the stable sort keeps ties in
                    // reader order.
                    areas.clear();
                    areas.extend(
                        (thetas.iter().enumerate()).map(|(k, &theta)| grid.area(k, theta, t)),
                    );
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
                for &id in list.iter() {
                    let id = id as usize;
                    bitgrid::set_bit(mask, grid.flat(id / SLOTS, id % SLOTS));
                }
            } else {
                for_each_below(done, gaps, t, |tile, slot| {
                    bitgrid::set_bit(mask, grid.flat(tile, slot));
                });
            }
            true
        }
    }
}

/// Runs elimination. Returns `None` when a **fixed** threshold eliminates
/// every region (adaptive mode always keeps at least one).
///
/// One-shot convenience over the internal `eliminate_into`, which reads
/// the grid's store in place; hot paths go through
/// [`crate::PreparedVire`], which reuses the buffers across readings.
///
/// # Panics
/// Panics when the reading's reader count differs from the grid's.
pub fn eliminate(
    grid: &VirtualGrid,
    reading: &TrackingReading,
    mode: ThresholdMode,
) -> Option<EliminationResult> {
    assert_eq!(
        reading.reader_count(),
        grid.reader_count(),
        "reading and virtual grid must cover the same readers"
    );
    let mut buf = ElimBuffers::default();
    if !eliminate_into(grid, reading, mode, &mut buf, &mut ()) {
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

    /// The one-shot path refuses a reading with more or fewer readers
    /// than the grid, rather than reading other tiles' values.
    #[test]
    #[should_panic(expected = "same readers")]
    fn eliminate_rejects_a_reading_with_more_readers() {
        let (vg, reading, _) = setup();
        let mut rssi = reading.rssi().to_vec();
        rssi.push(-70.0);
        eliminate(&vg, &TrackingReading::new(rssi), ThresholdMode::default());
    }

    #[test]
    #[should_panic(expected = "same readers")]
    fn eliminate_rejects_a_reading_with_fewer_readers() {
        let (vg, reading, _) = setup();
        let rssi = reading.rssi()[..2].to_vec();
        eliminate(&vg, &TrackingReading::new(rssi), ThresholdMode::Fixed(2.0));
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
        use super::super::count_gap_below;
        use crate::types::TrackingReading;
        use crate::ThresholdMode;
        use vire_geom::bitgrid;

        const LANES: usize = 8;

        /// `#{i : vals[i] < bound}`.
        fn count_below(vals: &[f64], bound: f64) -> usize {
            vals.iter().filter(|&&v| v < bound).count()
        }

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

    /// The store of reader-major `planes` over an `nx × ny` lattice.
    fn store_of(planes: &[f64], nx: usize, ny: usize) -> VirtualGrid {
        let grid = RegularGrid::new(Point2::ORIGIN, 1.0, 1.0, nx, ny);
        let fields = planes.chunks_exact(nx * ny);
        let fields = fields.map(|p| GD::from_vec(grid, p.to_vec())).collect();
        VirtualGrid::from_fields(grid, fields)
    }

    /// Every reader's field of `vg`, reader-major.
    fn planes_of(vg: &VirtualGrid) -> Vec<f64> {
        (0..vg.reader_count()).flat_map(|k| vg.field(k)).collect()
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
        let store = store_of(plane, nx, ny);
        let tile = pick % store.tiles;
        let [lo, hi] = store.ranges[tile / LANES];
        let (lo, hi) = (lo[tile % LANES], hi[tile % LANES]);
        let (i, j) = (pick % plane.len(), (pick / 7) % plane.len());
        match kind {
            0 | 1 => plane[i],
            2 => lo,
            3 => hi,
            4 => plane[i] + (plane[j] - plane[i]) / 2.0,
            5 => lo - 2.5,
            6 => hi + 0.75,
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
        let store = store_of(planes, nx, ny);
        let mut buf = ElimBuffers::default();
        // Twice through one buffer, so stale scratch would show.
        for _ in 0..2 {
            let kept = eliminate_into(&store, &reading, mode, &mut buf, &mut ());
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
                let planes = planes_of(&vg);
                let plane = |k: usize| &planes[k * nodes..(k + 1) * nodes];
                let thetas: Vec<f64> = (0..3)
                    .map(|k| theta_for(plane(k), nx, ny, picks[k].0, picks[k].1))
                    .collect();
                let gap = (planes[picks[0].0 % nodes] - thetas[0]).abs();
                assert_matches_dense(&planes, nx, ny, &thetas, mode_for(nodes, gap, params))?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The same comparison at the lattices the server runs: a 4 × 4
        /// coarse map at refine 10 (31 × 31 nodes, 64 tiles whose last
        /// column and row are 3 wide) and refine 20 (61 × 61 nodes, 256
        /// tiles whose last column and row are 1 wide), with 1 to 6
        /// readers, one kernel a case.
        #[test]
        fn tile_pruned_elimination_matches_dense_at_serving_lattices(
            refine in (0usize..2).prop_map(|i| [10, 20][i]),
            k_readers in 1usize..=6,
            kernel in 0usize..4,
            cells in prop::collection::vec(plane_value(), 6 * 16),
            picks in prop::collection::vec((any::<usize>(), 0u8..9), 6),
            params in mode_params(),
        ) {
            let coarse = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
            let readers: Vec<Point2> =
                (0..k_readers).map(|k| Point2::new(k as f64, -1.0)).collect();
            let fields = cells
                .chunks_exact(16)
                .take(k_readers)
                .map(|c| {
                    let mut i = 0;
                    GD::from_fn(coarse, |_, _| {
                        i += 1;
                        c[i - 1]
                    })
                })
                .collect();
            let refs = ReferenceRssiMap::new(coarse, readers, fields);
            let vg = VirtualGrid::build(&refs, refine, InterpolationKernel::ALL[kernel]);
            let (nx, ny, nodes) = (vg.grid().nx(), vg.grid().ny(), vg.tag_count());
            let planes = planes_of(&vg);
            let plane = |k: usize| &planes[k * nodes..(k + 1) * nodes];
            let thetas: Vec<f64> = (0..k_readers)
                .map(|k| theta_for(plane(k), nx, ny, picks[k].0, picks[k].1))
                .collect();
            let gap = (planes[picks[0].0 % nodes] - thetas[0]).abs();
            assert_matches_dense(&planes, nx, ny, &thetas, mode_for(nodes, gap, params))?;
        }
    }

    /// The work of one adaptive elimination over raw planes on an
    /// `nx × ny` lattice, with `step` 0.25, `min` 0, floor 1 and no
    /// per-reader tightening.
    fn work_on(planes: &[f64], nx: usize, ny: usize, thetas: &[f64]) -> EliminationWork {
        let store = store_of(planes, nx, ny);
        let mode = ThresholdMode::Adaptive {
            step: 0.25,
            min: 0.0,
            per_reader: false,
            min_candidates: 1,
        };
        let mut work = EliminationWork::default();
        let reading = TrackingReading::new(thetas.to_vec());
        assert!(eliminate_into(
            &store,
            &reading,
            mode,
            &mut ElimBuffers::default(),
            &mut work
        ));
        work
    }

    /// A row-major plane over `n` side-by-side 4 × 4 tiles, each tile's
    /// nodes from `tile(t, slot)`.
    fn tiles_in_a_row(n: usize, tile: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        let nx = 4 * n;
        (0..4 * nx)
            .map(|flat| tile(flat % nx / 4, flat / nx * 4 + flat % 4))
            .collect()
    }

    /// A tile whose bound equals the final threshold holds no survivor
    /// and is not computed. Two readers at `θ = 0`: tile 0's gaps reach
    /// from 0 to 1 on either reader but no node has both below 1 (bound
    /// 0, max-gaps 1), tile 1's nodes are all 0.5 off on both (bound and
    /// max-gaps 0.5), tile 2's all 0.75 (bound 0.75). Phase 1 starts at
    /// 0.25, computes tile 0 first, and stops at `t = 0.75` once tile 1
    /// is computed; tile 2 is queued (below the cap 1.25 from tile 0's
    /// max-gap 1) but its bound is not below `t`. The block pass reads
    /// the one group of block ranges and phase 1 the one block's tile
    /// ranges: 2 · 2 · 8 entries each.
    #[test]
    fn a_tile_whose_bound_equals_the_threshold_is_not_computed() {
        let reader = |k: usize| {
            tiles_in_a_row(3, move |tile, slot| match (tile, slot) {
                (0, 0) => [0.0, 1.0][k],
                (0, 1) => [1.0, 0.0][k],
                (0, _) => 1.0,
                (1, _) => 0.5,
                _ => 0.75,
            })
        };
        let planes = [reader(0), reader(1)].concat();
        let work = work_on(&planes, 12, 4, &[0.0, 0.0]);
        let expected = EliminationWork {
            range_entries: 2 * 2 * LANES + 2 * 2 * LANES,
            scanned_tiles: 0,
            queued_tiles: 2,
            computed_tiles: 2,
        };
        assert_eq!(work, expected);
    }

    /// Block and tile bounds are clamped at zero, so blocks and tiles
    /// whose ranges hold the reading tie at 0 and phase 1 starts from the
    /// first of them. One reader at `θ = 0`, nine tiles in two blocks:
    /// tile 0 spans ±0.5, tile 1 spans ±1 with a node at 0, tile 2 sits
    /// at 0.375, tiles 3–7 at 5, and tile 8 (the second block) spans ±2
    /// with a node at 0.1. Both blocks' bounds are 0, so phase 1 looks in
    /// block 0 first and starts from tile 0: its smallest max-gap 0.5
    /// caps the walk at 0.75, and tiles 1, 2 and 8 are queued; tiles 1
    /// and 8 are computed at `t = 0.25`. Unclamped, block 1 (−2) would
    /// come first and tile 8 (cap 0.25) would queue only tiles 0 and 1,
    /// and unclamped tiles would start from tile 1 (−1) and queue only
    /// tiles 0 and 8.
    #[test]
    fn tiles_holding_the_reading_tie_at_a_zero_bound() {
        let plane = tiles_in_a_row(9, |tile, slot| match tile {
            0 => [-0.5, 0.5][slot % 2],
            1 => [-1.0, 1.0, 0.0][slot % 3],
            2 => 0.375,
            8 => [-2.0, 2.0, 0.1][slot % 3],
            _ => 5.0,
        });
        let work = work_on(&plane, 36, 4, &[0.0]);
        // The block pass reads 16 entries; the smallest-gap scan reads
        // block 0's range and its tiles' ranges (18 entries) and scans
        // tiles 0 and 1; phase 1 reads both blocks' tile ranges (32).
        let expected = EliminationWork {
            range_entries: 2 * LANES + 2 + 2 * LANES + 2 * 2 * LANES,
            scanned_tiles: 2,
            queued_tiles: 3,
            computed_tiles: 3,
        };
        assert_eq!(work, expected);
    }
}
