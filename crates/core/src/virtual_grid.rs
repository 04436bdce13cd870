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
//! A reader's plane depends on that reader's real tags only, so the grid
//! is interpolated one whole reader plane at a time by a `Sweep`: a
//! build runs it for every reader, and a sync of
//! [`crate::PreparedVire`] runs it for each reader whose calibration
//! cells changed. There is no partial re-interpolation of a plane.

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

    /// Whether a changed knot moves only the fine samples in its two
    /// adjacent cells (piecewise-linear kernels). The spline's tridiagonal
    /// solve and the full-degree polynomial couple every knot, so any
    /// change re-shapes the whole line.
    pub fn is_local(self) -> bool {
        matches!(
            self,
            InterpolationKernel::Linear | InterpolationKernel::PaperLinear
        )
    }
}

/// The virtual reference grid: per-reader RSSI fields on the fine lattice,
/// stored as one reader-major buffer (`planes[k * nodes + flat]`) — the
/// layout elimination, weighting and the proximity maps read directly.
#[derive(Debug, Clone)]
pub struct VirtualGrid {
    fine: RegularGrid,
    planes: Vec<f64>,
    refine: usize,
}

impl VirtualGrid {
    /// Builds the virtual grid from the real reference map.
    ///
    /// `n` is the per-cell refinement factor (`n = 1` keeps only the real
    /// tags). The total number of virtual+real tags is
    /// `((nx−1)·n+1) · ((ny−1)·n+1)`. Each reader's plane is interpolated
    /// by the same per-reader call a sync of [`crate::PreparedVire`] runs
    /// for each reader whose cells changed.
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
        let mut planes = Vec::with_capacity(per_reader.len() * grid.node_count());
        for f in &per_reader {
            assert_eq!(f.grid(), &grid, "field grid mismatch");
            planes.extend_from_slice(f.as_slice());
        }
        VirtualGrid {
            fine: grid,
            planes,
            refine: 1,
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
        self.planes.len() / self.fine.node_count()
    }

    /// Total number of virtual+real reference tags — the paper's `N²`.
    pub fn tag_count(&self) -> usize {
        self.fine.node_count()
    }

    /// RSSI plane of reader `k` on the fine lattice, in row-major node
    /// order.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn field(&self, k: usize) -> &[f64] {
        let nodes = self.fine.node_count();
        &self.planes[k * nodes..(k + 1) * nodes]
    }

    /// Every reader's plane, reader-major: `planes[k * nodes + flat]`.
    pub fn planes(&self) -> &[f64] {
        &self.planes
    }

    /// RSSI of virtual tag `idx` at reader `k`.
    pub fn rssi(&self, k: usize, idx: GridIndex) -> f64 {
        self.field(k)[self.fine.flat(idx)]
    }

    /// Signal vector (one RSSI per reader) of virtual tag `idx`.
    pub fn signal_vector(&self, idx: GridIndex) -> Vec<f64> {
        (0..self.reader_count())
            .map(|k| self.rssi(k, idx))
            .collect()
    }
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
/// polynomial per fine column, so they gather each column.
fn vertical_pass(
    intermediate: &[f64],
    coarse_ys: &[f64],
    fine_ys: &[f64],
    n: usize,
    kernel: InterpolationKernel,
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
    let fny = fine_ys.len();
    let mut col_vals = vec![0.0f64; cny];
    let mut col_out = vec![0.0f64; fny];
    for fi in 0..fnx {
        for (j, v) in col_vals.iter_mut().enumerate() {
            *v = intermediate[j * fnx + fi];
        }
        interpolate_line(coarse_ys, &col_vals, fine_ys, n, kernel, &mut col_out);
        for (fj, &v) in col_out.iter().enumerate() {
            out[fj * fnx + fi] = v;
        }
    }
}

/// The §4.2 sweep from one coarse lattice onto its refinement: the four
/// axes' abscissae and one `cny × fnx` scratch for the horizontal pass.
///
/// Each reader's plane is a function of that reader's coarse field alone,
/// so re-interpolating reader `k` whole, in place, is both how
/// [`VirtualGrid::build`] fills fresh planes (every reader) and how a
/// sync follows a changed map (each reader whose cells changed). It runs
/// the same `horizontal_pass` and `vertical_pass` on the same inputs
/// either way, so the planes are **bit-identical** to a fresh build.
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
        }
    }

    /// Interpolates every reader of `refs` into fresh planes.
    pub(crate) fn build(&mut self, refs: &ReferenceRssiMap) -> VirtualGrid {
        let mut grid = VirtualGrid {
            fine: self.fine,
            planes: vec![0.0; refs.reader_count() * self.fine.node_count()],
            refine: self.n,
        };
        for k in 0..refs.reader_count() {
            self.reinterpolate(&mut grid, refs, k);
        }
        grid
    }

    /// Re-interpolates reader `k`'s whole plane of `grid` from `refs`, in
    /// place; every other reader's plane is untouched.
    ///
    /// # Panics
    /// Panics when `refs` or `grid` does not span the lattices this sweep
    /// refines, or `k` is out of range.
    pub(crate) fn reinterpolate(
        &mut self,
        grid: &mut VirtualGrid,
        refs: &ReferenceRssiMap,
        k: usize,
    ) {
        assert_eq!(refs.grid(), &self.coarse, "reference lattice mismatch");
        assert_eq!(grid.grid(), &self.fine, "virtual lattice mismatch");
        let nodes = self.fine.node_count();
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
            &mut grid.planes[k * nodes..(k + 1) * nodes],
        );
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
                        bits(vg.field(k)),
                        bits(want.field(k)),
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
