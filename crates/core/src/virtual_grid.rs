//! Virtual reference grid construction (paper §4.2).
//!
//! Each physical cell of the reference lattice is split into `n × n`
//! virtual cells; the virtual reference tags at the fine lattice nodes get
//! RSSI values interpolated from the real tags, per reader, by a
//! row-pass-then-column-pass sweep. With the linear kernel that composition
//! is exactly the paper's horizontal/vertical formulas; the nonlinear
//! kernels implement the paper's §6 future work.
//!
//! For a 4×4 lattice refined with `n = 10` the virtual lattice has
//! 31² = 961 nodes — the paper's `N² = 900` operating point. The
//! construction is O(N²) in the number of virtual tags, as stated in §4.2.
//!
//! The grid holds its values once, tile-major: for every 4 × 4 tile of
//! the fine lattice, each reader's 16 values in one contiguous block and
//! its RSSI range over the tile, plus each reader's range over every
//! block of 8 tiles (see [`VirtualGrid`]). Elimination and weighting read
//! that store in place; [`VirtualGrid::rssi`], [`VirtualGrid::field`] and
//! [`VirtualGrid::signal_vector`] read it for everyone else.
//!
//! A reader's values depend on that reader's real tags only, so the grid
//! is interpolated one whole reader at a time by a `Sweep`: it runs the
//! two passes into one reusable row-major plane and writes that plane
//! into the reader's tile blocks and ranges. A build runs it for every
//! reader, and a sync of [`crate::PreparedVire`] runs it for each reader
//! whose calibration cells changed. There is no partial
//! re-interpolation of a reader.

use crate::types::ReferenceRssiMap;
use vire_geom::interp::linear::{lerp_uniform, paper_weighting};
use vire_geom::interp::newton::Newton;
use vire_geom::interp::spline::CubicSpline;
use vire_geom::interp::Interpolator1D;
use vire_geom::{GridData, GridIndex, RegularGrid};

/// Which 1D kernel synthesizes the virtual-tag RSSI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterpolationKernel {
    /// Uniform linear interpolation between adjacent real tags — the
    /// natural reading of §4.2 ("n−1 virtual reference tags are equally
    /// placed between two adjacent real tags"); virtual tags on real-tag
    /// nodes reproduce the real RSSI exactly.
    #[default]
    Linear,
    /// The §4.2 formulas taken verbatim, with their `n + 1` divisor. Kept
    /// for fidelity comparison; biases interior values slightly toward the
    /// left/lower real tag.
    PaperLinear,
    /// Natural cubic spline along each row/column (§6 nonlinear option).
    CubicSpline,
    /// Full-degree Newton polynomial along each row/column (§6 warns about
    /// its endpoint behaviour; included to reproduce that warning).
    Polynomial,
}

impl InterpolationKernel {
    /// All kernels, for sweeps.
    pub const ALL: [InterpolationKernel; 4] = [
        InterpolationKernel::Linear,
        InterpolationKernel::PaperLinear,
        InterpolationKernel::CubicSpline,
        InterpolationKernel::Polynomial,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InterpolationKernel::Linear => "linear",
            InterpolationKernel::PaperLinear => "paper-linear",
            InterpolationKernel::CubicSpline => "cubic-spline",
            InterpolationKernel::Polynomial => "polynomial",
        }
    }

    /// Whether the kernel is piecewise linear, so each fine sample blends
    /// only its two adjacent knots: `vertical_pass` then blends whole
    /// intermediate rows, one weight per fine row. The spline's
    /// tridiagonal solve and the full-degree polynomial couple every knot,
    /// so they are fitted one fine column at a time.
    pub fn is_local(self) -> bool {
        matches!(
            self,
            InterpolationKernel::Linear | InterpolationKernel::PaperLinear
        )
    }
}

/// Side of one tile, in fine-lattice nodes. The paper's operating point
/// (31 × 31 nodes) splits into 8 × 8 tiles; an edge tile is narrower
/// where a side is not a multiple of `TILE`.
pub(crate) const TILE: usize = 4;

/// Nodes in one tile. A reader's values over a tile are one contiguous
/// block of `SLOTS`, row-major within the tile.
pub(crate) const SLOTS: usize = TILE * TILE;

/// Tiles per block, and blocks per group, of the range store: one
/// reader's ranges over a block (or a group) are `LANES` independent
/// lanes, so the bounds run across tiles, for any reader count.
pub(crate) const LANES: usize = 8;

/// One value per tile of a block.
pub(crate) type Lanes = [f64; LANES];

/// The virtual reference grid: every reader's RSSI at every node of the
/// fine lattice, held once, tile-major — the one store elimination,
/// weighting and the accessors read.
///
/// * `values[(tile · K + k) · SLOTS + slot]` is reader `k`'s value at the
///   tile's node `slot = r · TILE + c`, `r` rows below and `c` columns
///   right of the tile's first node. Tiles run row-major over the
///   lattice. Slots off the lattice (in edge tiles) hold `+∞`, whose gap
///   to any reading is `+∞`: never a survivor and never a smaller gap.
/// * `ranges[block · K + k]` holds reader `k`'s minima and maxima over a
///   block of `LANES` consecutive tiles, lane `tile % LANES` of block
///   `tile / LANES`. The last block is padded with tiles whose range is
///   `[+∞, +∞]`.
/// * `blocks[group · K + k]` holds, the same way, reader `k`'s range over
///   each whole block (lane `block % LANES` of group `block / LANES`): a
///   second level, so a locate bounds blocks first and reads the tile
///   ranges of only the blocks that can matter.
///
/// A reader's values and ranges are written together, whole, by
/// `write_reader`, so the ranges always describe the values.
#[derive(Debug, Clone)]
pub struct VirtualGrid {
    fine: RegularGrid,
    refine: usize,
    /// Readers `K`.
    pub(crate) readers: usize,
    /// Tiles per band of `TILE` fine rows, `⌈nx / TILE⌉`.
    tiles_x: usize,
    /// Tiles in the lattice, `tiles_x · ⌈ny / TILE⌉`.
    pub(crate) tiles: usize,
    /// Each reader's smallest and largest value per tile, in blocks of
    /// `LANES` tiles.
    pub(crate) ranges: Vec<[Lanes; 2]>,
    /// Each reader's smallest and largest value per block of tiles, in
    /// groups of `LANES` blocks.
    pub(crate) blocks: Vec<[Lanes; 2]>,
    /// Each reader's values per tile, one `SLOTS` block per tile and
    /// reader.
    pub(crate) values: Vec<f64>,
    /// Each tile's first (top-left) flat node.
    firsts: Vec<u32>,
}

impl VirtualGrid {
    /// Builds the virtual grid from the real reference map.
    ///
    /// `n` is the per-cell refinement factor (`n = 1` keeps only the real
    /// tags). The total number of virtual+real tags is
    /// `((nx−1)·n+1) · ((ny−1)·n+1)`. Each reader is interpolated by the
    /// same per-reader call a sync of [`crate::PreparedVire`] runs for
    /// each reader whose cells changed.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn build(refs: &ReferenceRssiMap, n: usize, kernel: InterpolationKernel) -> Self {
        Sweep::new(refs.grid(), n, kernel).build(refs)
    }

    /// Wraps pre-computed per-reader RSSI fields as a virtual grid.
    ///
    /// Used by the scattered-reference pipeline (paper §6: non-square real
    /// grids), where the fields come from inverse-distance interpolation
    /// instead of the row/column sweep. `refine` is recorded as 1 (there
    /// is no coarse lattice to refine).
    ///
    /// # Panics
    /// Panics when `per_reader` is empty or any field's grid differs from
    /// `grid`.
    pub fn from_fields(grid: RegularGrid, per_reader: Vec<GridData<f64>>) -> Self {
        assert!(!per_reader.is_empty(), "need at least one reader field");
        let mut vg = VirtualGrid::empty(grid, per_reader.len(), 1);
        for (k, f) in per_reader.iter().enumerate() {
            assert_eq!(f.grid(), &grid, "field grid mismatch");
            vg.write_reader(k, f.as_slice());
        }
        vg
    }

    /// The store of `readers` readers over `fine`, every value and range
    /// `+∞` until `write_reader` fills it. Pad tiles, pad blocks and
    /// off-lattice slots keep their `+∞`: a write touches only the
    /// lattice's own tiles, blocks and nodes.
    fn empty(fine: RegularGrid, readers: usize, refine: usize) -> Self {
        let (nx, ny) = (fine.nx(), fine.ny());
        let tiles_x = nx.div_ceil(TILE);
        let tiles = tiles_x * ny.div_ceil(TILE);
        let blocks = tiles.div_ceil(LANES);
        let pad = [[f64::INFINITY; LANES]; 2];
        let mut firsts = Vec::with_capacity(tiles);
        for y0 in (0..ny).step_by(TILE) {
            firsts.extend((0..nx).step_by(TILE).map(|x0| (y0 * nx + x0) as u32));
        }
        VirtualGrid {
            fine,
            refine,
            readers,
            tiles_x,
            tiles,
            ranges: vec![pad; blocks * readers],
            blocks: vec![pad; blocks.div_ceil(LANES) * readers],
            values: vec![f64::INFINITY; tiles * readers * SLOTS],
            firsts,
        }
    }

    /// Writes reader `k`'s row-major `plane` into the store: each tile's
    /// rows into its value block (a whole tile row at a time where the
    /// tile is `TILE` wide), each tile's range folded from its values on
    /// the lattice, and each block's range from its tiles'.
    fn write_reader(&mut self, k: usize, plane: &[f64]) {
        let (nx, ny, readers) = (self.fine.nx(), self.fine.ny(), self.readers);
        debug_assert_eq!(plane.len(), nx * ny);
        let VirtualGrid {
            tiles,
            ranges,
            blocks,
            values,
            ..
        } = self;
        let mut tile = 0;
        for y0 in (0..ny).step_by(TILE) {
            let h = TILE.min(ny - y0);
            for x0 in (0..nx).step_by(TILE) {
                let w = TILE.min(nx - x0);
                let block = &mut values[(tile * readers + k) * SLOTS..][..SLOTS];
                let (lo, hi) = if (h, w) == (TILE, TILE) {
                    let mut full = [0.0f64; SLOTS];
                    for (r, row) in full.chunks_exact_mut(TILE).enumerate() {
                        row.copy_from_slice(&plane[(y0 + r) * nx + x0..][..TILE]);
                    }
                    block.copy_from_slice(&full);
                    (lanes_min(full), lanes_max(full))
                } else {
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for (r, row) in block.chunks_exact_mut(TILE).take(h).enumerate() {
                        let src = &plane[(y0 + r) * nx + x0..][..w];
                        for (slot, &v) in row.iter_mut().zip(src) {
                            *slot = v;
                            lo = if v < lo { v } else { lo };
                            hi = if v > hi { v } else { hi };
                        }
                    }
                    (lo, hi)
                };
                let [tile_lo, tile_hi] = &mut ranges[tile / LANES * readers + k];
                tile_lo[tile % LANES] = lo;
                tile_hi[tile % LANES] = hi;
                tile += 1;
            }
        }
        // Each block's range folds its real tiles' ranges.
        for (block, [lo, hi]) in ranges.iter().skip(k).step_by(readers).enumerate() {
            let real = LANES.min(*tiles - block * LANES);
            let [block_lo, block_hi] = &mut blocks[block / LANES * readers + k];
            block_lo[block % LANES] = lo[..real].iter().fold(lo[0], |m, &v| m.min(v));
            block_hi[block % LANES] = hi[..real].iter().fold(hi[0], |m, &v| m.max(v));
        }
    }

    /// The fine lattice.
    pub fn grid(&self) -> &RegularGrid {
        &self.fine
    }

    /// The refinement factor used.
    pub fn refine(&self) -> usize {
        self.refine
    }

    /// Number of readers covered.
    pub fn reader_count(&self) -> usize {
        self.readers
    }

    /// Total number of virtual+real reference tags — the paper's `N²`.
    pub fn tag_count(&self) -> usize {
        self.fine.node_count()
    }

    /// RSSI field of reader `k` on the fine lattice, in row-major node
    /// order, gathered from the tile store.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn field(&self, k: usize) -> Vec<f64> {
        assert!(k < self.readers, "reader {k} out of range");
        (0..self.tag_count())
            .map(|flat| self.values[self.index(k, flat)])
            .collect()
    }

    /// RSSI of virtual tag `idx` at reader `k`.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn rssi(&self, k: usize, idx: GridIndex) -> f64 {
        assert!(k < self.readers, "reader {k} out of range");
        self.values[self.index(k, self.fine.flat(idx))]
    }

    /// Signal vector (one RSSI per reader) of virtual tag `idx`.
    pub fn signal_vector(&self, idx: GridIndex) -> Vec<f64> {
        self.node_values(self.fine.flat(idx)).collect()
    }

    /// Position in `values` of reader `k`'s value at node `flat`.
    fn index(&self, k: usize, flat: usize) -> usize {
        let nx = self.fine.nx();
        let (y, x) = (flat / nx, flat % nx);
        let tile = y / TILE * self.tiles_x + x / TILE;
        (tile * self.readers + k) * SLOTS + y % TILE * TILE + x % TILE
    }

    /// The readers' values at node `flat`, `k` ascending.
    pub(crate) fn node_values(&self, flat: usize) -> impl Iterator<Item = f64> + '_ {
        let values = self.values[self.index(0, flat)..].iter().step_by(SLOTS);
        values.take(self.readers).copied()
    }

    /// Flat (row-major) index of the node in `slot` of `tile`.
    pub(crate) fn flat(&self, tile: usize, slot: usize) -> usize {
        self.firsts[tile] as usize + slot / TILE * self.fine.nx() + slot % TILE
    }

    /// Reader `k`'s values over `tile`.
    pub(crate) fn block(&self, tile: usize, k: usize) -> &[f64] {
        &self.values[(tile * self.readers + k) * SLOTS..][..SLOTS]
    }
}

/// `lanes` reduced pairwise by `pick` (`min` or `max`), so the lanes stay
/// independent. Over non-NaN values both are exact and do not depend on
/// the order, so this equals a sequential fold.
fn lanes_fold<const N: usize>(mut lanes: [f64; N], pick: impl Fn(f64, f64) -> f64) -> f64 {
    const { assert!(N.is_power_of_two(), "pairwise halving needs 2^n lanes") };
    let mut n = N;
    while n > 1 {
        n /= 2;
        for i in 0..n {
            lanes[i] = pick(lanes[i], lanes[i + n]);
        }
    }
    lanes[0]
}

/// The smallest of `lanes` (see `lanes_fold`).
pub(crate) fn lanes_min<const N: usize>(lanes: [f64; N]) -> f64 {
    lanes_fold(lanes, |a, b| if b < a { b } else { a })
}

/// The largest of `lanes` (see `lanes_fold`).
fn lanes_max<const N: usize>(lanes: [f64; N]) -> f64 {
    lanes_fold(lanes, |a, b| if b > a { b } else { a })
}

/// The coarse and fine abscissae of both axes: `(coarse_xs, fine_xs,
/// coarse_ys, fine_ys)`.
fn axis_positions(
    coarse: &RegularGrid,
    fine: &RegularGrid,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let coarse_xs = (0..coarse.nx())
        .map(|i| coarse.position(GridIndex::new(i, 0)).x)
        .collect();
    let fine_xs = (0..fine.nx())
        .map(|i| fine.position(GridIndex::new(i, 0)).x)
        .collect();
    let coarse_ys = (0..coarse.ny())
        .map(|j| coarse.position(GridIndex::new(0, j)).y)
        .collect();
    let fine_ys = (0..fine.ny())
        .map(|j| fine.position(GridIndex::new(0, j)).y)
        .collect();
    (coarse_xs, fine_xs, coarse_ys, fine_ys)
}

/// Pass 1 of the separable sweep: per coarse row `j` of the row-major
/// `field`, interpolate along x into `intermediate[j * fnx ..][.. fnx]` (a
/// flat `cny × fnx` buffer).
fn horizontal_pass(
    field: &[f64],
    coarse_xs: &[f64],
    fine_xs: &[f64],
    n: usize,
    kernel: InterpolationKernel,
    intermediate: &mut [f64],
) {
    let rows = field.chunks_exact(coarse_xs.len());
    for (row, row_out) in rows.zip(intermediate.chunks_exact_mut(fine_xs.len())) {
        interpolate_line(coarse_xs, row, fine_xs, n, kernel, row_out);
    }
}

/// Pass 2: interpolate the intermediate along y into the row-major output
/// plane.
///
/// The piecewise-linear kernels run row-major: fine row `fj` lies in
/// coarse cell `c = min(fj / n, cny − 2)` at offset `p = fj − c·n`, so
/// its weight is computed once per row and every node of the row blends
/// the same two intermediate rows with `interpolate_line`'s arithmetic
/// (`l + (r − l)·t` with `t = p / n`, or the §4.2 formula); rows at
/// `p = 0` and `p = n` are copies. The global kernels fit one spline or
/// polynomial per fine column, so they gather each column into the first
/// `cny` values of `columns` and interpolate it into the next `fny`.
fn vertical_pass(
    intermediate: &[f64],
    coarse_ys: &[f64],
    fine_ys: &[f64],
    n: usize,
    kernel: InterpolationKernel,
    columns: &mut [f64],
    out: &mut [f64],
) {
    let cny = coarse_ys.len();
    let fnx = intermediate.len() / cny;
    if kernel.is_local() {
        let row = |j: usize| &intermediate[j * fnx..(j + 1) * fnx];
        for (fj, out_row) in out.chunks_exact_mut(fnx).enumerate() {
            if cny == 1 {
                out_row.copy_from_slice(row(0));
                continue;
            }
            let cell = (fj / n).min(cny - 2);
            let p = fj - cell * n;
            let (left, right) = (row(cell), row(cell + 1));
            if p == 0 {
                out_row.copy_from_slice(left);
            } else if p == n {
                out_row.copy_from_slice(right);
            } else if kernel == InterpolationKernel::PaperLinear {
                let (nf, pf) = (n as f64, p as f64);
                let (wl, d) = (nf + 1.0 - pf, nf + 1.0);
                for ((o, &l), &r) in out_row.iter_mut().zip(left).zip(right) {
                    *o = (pf * r + wl * l) / d;
                }
            } else {
                let t = p as f64 / n as f64;
                for ((o, &l), &r) in out_row.iter_mut().zip(left).zip(right) {
                    *o = l + (r - l) * t;
                }
            }
        }
        return;
    }
    let (col_vals, col_out) = columns.split_at_mut(cny);
    for fi in 0..fnx {
        for (j, v) in col_vals.iter_mut().enumerate() {
            *v = intermediate[j * fnx + fi];
        }
        interpolate_line(coarse_ys, col_vals, fine_ys, n, kernel, col_out);
        for (fj, &v) in col_out.iter().enumerate() {
            out[fj * fnx + fi] = v;
        }
    }
}

/// The §4.2 sweep from one coarse lattice onto its refinement: the four
/// axes' abscissae, one `cny × fnx` scratch for the horizontal pass, one
/// column scratch for the vertical pass and one row-major plane it
/// writes.
///
/// Each reader's values are a function of that reader's coarse field
/// alone, so re-interpolating reader `k` whole, in place, is both how
/// [`VirtualGrid::build`] fills a fresh store (every reader) and how a
/// sync follows a changed map (each reader whose cells changed). It runs
/// the same `horizontal_pass`, `vertical_pass` and store write on the
/// same inputs either way, so the store is **bit-identical** to a fresh
/// build.
#[derive(Debug, Clone)]
pub(crate) struct Sweep {
    coarse: RegularGrid,
    fine: RegularGrid,
    n: usize,
    kernel: InterpolationKernel,
    coarse_xs: Vec<f64>,
    fine_xs: Vec<f64>,
    coarse_ys: Vec<f64>,
    fine_ys: Vec<f64>,
    /// The horizontal-pass output of the reader being interpolated,
    /// flattened `[j * fnx + fi]`.
    intermediate: Vec<f64>,
    /// The global kernels' column of `intermediate` (`cny` values), then
    /// its interpolation (`fny` values).
    columns: Vec<f64>,
    /// The vertical-pass output of the reader being interpolated: its
    /// row-major plane on the fine lattice, before the store write.
    plane: Vec<f64>,
}

impl Sweep {
    /// The sweep refining `coarse` by `n` with `kernel`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub(crate) fn new(coarse: &RegularGrid, n: usize, kernel: InterpolationKernel) -> Self {
        assert!(n > 0, "refinement factor must be at least 1");
        let fine = coarse.refined(n);
        let (coarse_xs, fine_xs, coarse_ys, fine_ys) = axis_positions(coarse, &fine);
        Sweep {
            coarse: *coarse,
            fine,
            n,
            kernel,
            coarse_xs,
            fine_xs,
            coarse_ys,
            fine_ys,
            intermediate: vec![0.0; coarse.ny() * fine.nx()],
            columns: vec![0.0; coarse.ny() + fine.ny()],
            plane: vec![0.0; fine.node_count()],
        }
    }

    /// Interpolates every reader of `refs` into a fresh store.
    pub(crate) fn build(&mut self, refs: &ReferenceRssiMap) -> VirtualGrid {
        let mut grid = VirtualGrid::empty(self.fine, refs.reader_count(), self.n);
        for k in 0..refs.reader_count() {
            self.reinterpolate(&mut grid, refs, k);
        }
        grid
    }

    /// Re-interpolates reader `k` of `grid` whole from `refs` and writes
    /// its values and ranges into the store, in place; every other
    /// reader's values and ranges are untouched.
    ///
    /// # Panics
    /// Panics when `refs` or `grid` does not span the lattices and
    /// readers this sweep refines, or `k` is out of range.
    pub(crate) fn reinterpolate(
        &mut self,
        grid: &mut VirtualGrid,
        refs: &ReferenceRssiMap,
        k: usize,
    ) {
        assert_eq!(refs.grid(), &self.coarse, "reference lattice mismatch");
        assert_eq!(grid.grid(), &self.fine, "virtual lattice mismatch");
        assert_eq!(refs.reader_count(), grid.readers, "reader count mismatch");
        horizontal_pass(
            refs.field(k),
            &self.coarse_xs,
            &self.fine_xs,
            self.n,
            self.kernel,
            &mut self.intermediate,
        );
        vertical_pass(
            &self.intermediate,
            &self.coarse_ys,
            &self.fine_ys,
            self.n,
            self.kernel,
            &mut self.columns,
            &mut self.plane,
        );
        grid.write_reader(k, &self.plane);
    }
}

/// Evaluates the 1D kernel over one grid line.
///
/// `knots`/`values` are the coarse samples; `targets` the fine abscissae
/// (refinement factor `n`, so `targets[c·n + p]` lies in coarse cell `c`
/// at offset `p`).
fn interpolate_line(
    knots: &[f64],
    values: &[f64],
    targets: &[f64],
    n: usize,
    kernel: InterpolationKernel,
    out: &mut [f64],
) {
    debug_assert_eq!(targets.len(), out.len());
    match kernel {
        InterpolationKernel::Linear | InterpolationKernel::PaperLinear if knots.len() == 1 => {
            // Degenerate line (single knot): constant, as for the
            // global kernels below.
            out.fill(values[0]);
        }
        InterpolationKernel::Linear | InterpolationKernel::PaperLinear => {
            let paper = kernel == InterpolationKernel::PaperLinear;
            for (t_idx, slot) in out.iter_mut().enumerate() {
                let cell = (t_idx / n).min(knots.len() - 2);
                let p = t_idx - cell * n;
                let (l, r) = (values[cell], values[cell + 1]);
                *slot = if p == 0 {
                    l
                } else if p == n {
                    r
                } else if paper {
                    paper_weighting(l, r, n, p)
                } else {
                    lerp_uniform(l, r, n, p)
                };
            }
        }
        InterpolationKernel::CubicSpline => {
            if let Some(sp) = CubicSpline::fit(knots, values) {
                for (slot, &x) in out.iter_mut().zip(targets) {
                    *slot = sp.eval(x);
                }
            } else {
                // Degenerate line (single knot): constant.
                out.fill(values[0]);
            }
        }
        InterpolationKernel::Polynomial => {
            if let Some(poly) = Newton::fit(knots, values) {
                for (slot, &x) in out.iter_mut().zip(targets) {
                    *slot = poly.eval(x);
                }
            } else {
                out.fill(values[0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_geom::Point2;

    fn map_with(f: impl Fn(Point2) -> f64 + Copy) -> ReferenceRssiMap {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let readers = vec![Point2::new(-1.0, -1.0), Point2::new(4.0, 4.0)];
        let fields = readers
            .iter()
            .map(|_| GridData::from_fn(grid, |_, p| f(p)))
            .collect();
        ReferenceRssiMap::new(grid, readers, fields)
    }

    #[test]
    fn tag_count_matches_paper_operating_point() {
        let refs = map_with(|p| -70.0 - p.x);
        let vg = VirtualGrid::build(&refs, 10, InterpolationKernel::Linear);
        assert_eq!(vg.tag_count(), 961); // (3·10+1)² ≈ the paper's N² = 900
        assert_eq!(vg.refine(), 10);
        assert_eq!(vg.reader_count(), 2);
    }

    #[test]
    fn refine_one_reproduces_real_tags_only() {
        let refs = map_with(|p| -70.0 - 2.0 * p.x - 3.0 * p.y);
        let vg = VirtualGrid::build(&refs, 1, InterpolationKernel::Linear);
        assert_eq!(vg.tag_count(), 16);
        for idx in refs.grid().indices() {
            assert_eq!(vg.rssi(0, idx), refs.rssi(0, idx));
        }
    }

    #[test]
    fn real_tags_survive_on_fine_lattice_for_all_kernels() {
        let refs = map_with(|p| -70.0 - 1.7 * p.x + 0.9 * p.y * p.y);
        for kernel in InterpolationKernel::ALL {
            let vg = VirtualGrid::build(&refs, 5, kernel);
            for idx in refs.grid().indices() {
                let fine_idx = refs.grid().coarse_to_fine(idx, 5);
                let (a, b) = (vg.rssi(0, fine_idx), refs.rssi(0, idx));
                assert!(
                    (a - b).abs() < 1e-9,
                    "{:?}: virtual {a} vs real {b} at {idx}",
                    kernel
                );
            }
        }
    }

    #[test]
    fn linear_kernel_is_exact_on_bilinear_field() {
        let refs = map_with(|p| -60.0 - 2.0 * p.x - 5.0 * p.y + 0.5 * p.x * p.y);
        let vg = VirtualGrid::build(&refs, 4, InterpolationKernel::Linear);
        for (idx, pos) in vg.grid().nodes() {
            let expect = -60.0 - 2.0 * pos.x - 5.0 * pos.y + 0.5 * pos.x * pos.y;
            assert!(
                (vg.rssi(0, idx) - expect).abs() < 1e-9,
                "at {pos}: {} vs {expect}",
                vg.rssi(0, idx)
            );
        }
    }

    /// On 1 × 1, 1 × 4 and 4 × 1 reference lattices, at refines that put
    /// the long side on and off a multiple of the tile side, every
    /// kernel's values read back through `rssi`, `field` and
    /// `signal_vector` are the formula's at each node: the piecewise
    /// kernels' own 1D formula along the long axis, to the bit, and for
    /// the spline and the polynomial the plane field they reproduce. Each
    /// node's value differs, so a store slot read for the wrong node
    /// fails here rather than agreeing with the store it came from.
    #[test]
    fn thin_lattices_hold_the_formula_on_every_kernel() {
        let f = |k: usize, p: Point2| -60.0 - (2.5 + k as f64) * p.x + (1.25 - k as f64) * p.y;
        for (nx, ny) in [(1, 1), (1, 4), (4, 1)] {
            let grid = RegularGrid::new(Point2::ORIGIN, 1.0, 1.5, nx, ny);
            let readers = vec![Point2::new(-1.0, -1.0), Point2::new(4.0, 4.0)];
            let fields = (0..2)
                .map(|k| GridData::from_fn(grid, |_, p| f(k, p)))
                .collect();
            let refs = ReferenceRssiMap::new(grid, readers, fields);
            // The coarse values along the long axis, and the fine node's
            // position on it.
            let along = |k: usize, c: usize| refs.rssi(k, GridIndex::new(c % nx, c % ny));
            let (long, pos) = (nx.max(ny), |idx: GridIndex| idx.i.max(idx.j));
            for (n, kernel) in [1, 3, 6]
                .into_iter()
                .flat_map(|n| InterpolationKernel::ALL.map(|kernel| (n, kernel)))
            {
                let vg = VirtualGrid::build(&refs, n, kernel);
                assert_eq!(vg.tag_count(), (long - 1) * n + 1);
                let fields = [vg.field(0), vg.field(1)];
                for (idx, p) in vg.grid().nodes() {
                    let flat = vg.grid().flat(idx);
                    for (k, field) in fields.iter().enumerate() {
                        let got = vg.rssi(k, idx);
                        let want = if !kernel.is_local() {
                            f(k, p)
                        } else if long == 1 {
                            along(k, 0)
                        } else {
                            let t = pos(idx);
                            let c = (t / n).min(long - 2);
                            let (l, r, q) = (along(k, c), along(k, c + 1), t - c * n);
                            match q {
                                0 => l,
                                _ if q == n => r,
                                _ if kernel == InterpolationKernel::PaperLinear => {
                                    paper_weighting(l, r, n, q)
                                }
                                _ => lerp_uniform(l, r, n, q),
                            }
                        };
                        let close = if kernel.is_local() {
                            got.to_bits() == want.to_bits()
                        } else {
                            (got - want).abs() < 1e-9
                        };
                        assert!(
                            close,
                            "{kernel:?} {nx}×{ny} n={n} at {idx}: {got} vs {want}"
                        );
                        assert_eq!(field[flat].to_bits(), got.to_bits());
                        assert_eq!(vg.signal_vector(idx)[k].to_bits(), got.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn spline_and_polynomial_exact_on_cubic_rows() {
        // A separable cubic is reproduced exactly by both nonlinear kernels
        // (4 knots determine a cubic).
        let f = |p: Point2| 0.3 * p.x.powi(3) - p.x + 0.1 * p.y.powi(2);
        let refs = map_with(f);
        for kernel in [InterpolationKernel::Polynomial] {
            let vg = VirtualGrid::build(&refs, 3, kernel);
            for (idx, pos) in vg.grid().nodes() {
                assert!(
                    (vg.rssi(0, idx) - f(pos)).abs() < 1e-8,
                    "{kernel:?} at {pos}"
                );
            }
        }
    }

    #[test]
    fn paper_linear_matches_formula_on_interior_row_points() {
        let refs = map_with(|p| -70.0 - 6.0 * p.x);
        let n = 4;
        let vg = VirtualGrid::build(&refs, n, InterpolationKernel::PaperLinear);
        // Bottom row, first cell: between real tags at x = 0 (−70) and
        // x = 1 (−76); p = 2 → (2·(−76) + 3·(−70)) / 5.
        let v = vg.rssi(0, GridIndex::new(2, 0));
        let expect = (2.0 * -76.0 + 3.0 * -70.0) / 5.0;
        assert!((v - expect).abs() < 1e-9, "{v} vs {expect}");
    }

    #[test]
    fn interpolated_values_between_neighbours_linear() {
        // Monotone field stays monotone along rows under the linear kernel.
        let refs = map_with(|p| -60.0 - 4.0 * p.x);
        let vg = VirtualGrid::build(&refs, 6, InterpolationKernel::Linear);
        let fnx = vg.grid().nx();
        for fi in 1..fnx {
            let prev = vg.rssi(0, GridIndex::new(fi - 1, 0));
            let cur = vg.rssi(0, GridIndex::new(fi, 0));
            assert!(cur <= prev + 1e-12);
        }
    }

    #[test]
    fn per_reader_fields_are_independent() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let readers = vec![Point2::new(-1.0, -1.0), Point2::new(4.0, 4.0)];
        let f0 = GridData::from_fn(grid, |_, p| -70.0 - p.x);
        let f1 = GridData::from_fn(grid, |_, p| -80.0 - p.y);
        let refs = ReferenceRssiMap::new(grid, readers, vec![f0, f1]);
        let vg = VirtualGrid::build(&refs, 2, InterpolationKernel::Linear);
        let mid = GridIndex::new(3, 3);
        assert_ne!(vg.rssi(0, mid), vg.rssi(1, mid));
        assert_eq!(vg.signal_vector(mid).len(), 2);
    }

    #[test]
    #[should_panic(expected = "refinement factor")]
    fn zero_refine_panics() {
        let refs = map_with(|p| -70.0 - p.x);
        VirtualGrid::build(&refs, 0, InterpolationKernel::Linear);
    }

    #[test]
    fn kernel_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            InterpolationKernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 4);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Re-interpolating any subset of readers of a grid built from `old`
    /// leaves each reader in the subset bit-identical to a fresh build
    /// from the new map and every other reader bit-identical to the old
    /// build, on every kernel; a map on a foreign lattice is refused.
    #[test]
    #[should_panic(expected = "reference lattice mismatch")]
    fn reinterpolating_any_reader_subset_matches_fresh_builds() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let readers = vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
        ];
        let fields = |shift: f64| {
            readers
                .iter()
                .map(|r| GridData::from_fn(grid, |_, p| shift - 24.0 * p.distance(*r).log10()))
                .collect()
        };
        let old = ReferenceRssiMap::new(grid, readers.clone(), fields(-62.0));
        let new = ReferenceRssiMap::new(grid, readers.clone(), fields(-58.75));
        for kernel in InterpolationKernel::ALL {
            let (before, after) = (
                VirtualGrid::build(&old, 4, kernel),
                VirtualGrid::build(&new, 4, kernel),
            );
            for subset in 0..1u32 << readers.len() {
                let mut sweep = Sweep::new(&grid, 4, kernel);
                let mut vg = sweep.build(&old);
                for k in (0..readers.len()).filter(|k| subset >> k & 1 == 1) {
                    sweep.reinterpolate(&mut vg, &new, k);
                }
                for k in 0..readers.len() {
                    let want = if subset >> k & 1 == 1 {
                        &after
                    } else {
                        &before
                    };
                    assert_eq!(
                        bits(&vg.field(k)),
                        bits(&want.field(k)),
                        "{kernel:?}, subset {subset:#b}, reader {k}"
                    );
                }
            }
        }
        let other_grid = RegularGrid::square(Point2::ORIGIN, 2.0, 4);
        let foreign = ReferenceRssiMap::new(
            other_grid,
            readers.clone(),
            readers
                .iter()
                .map(|_| GridData::filled(other_grid, -70.0))
                .collect(),
        );
        let mut sweep = Sweep::new(&grid, 2, InterpolationKernel::Linear);
        let mut vg = sweep.build(&old);
        sweep.reinterpolate(&mut vg, &foreign, 0);
    }
}
