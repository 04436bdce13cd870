//! Property tests pinning the incremental-sync contract: after an
//! arbitrary sequence of calibration-cell writes, a patched
//! [`PreparedVire`] must be **bit-identical** — flattened planes and every
//! estimate — to a fresh [`PreparedVire::build`] against the final map,
//! for every interpolation kernel, whether `sync` is told the written
//! cells (the writer's hint, repeats and reverts included) or bit-diffs
//! the map. A hint is trusted only for the map it describes, and one that
//! misses a cell trips the debug mirror check. Every kind of map change
//! (patch, in-place rebuild, reshape) localizes like a fresh build.

use proptest::prelude::*;
use vire_core::elimination::ThresholdMode;
use vire_core::incremental::SyncOutcome;
use vire_core::{
    DirtyCell, InterpolationKernel, Landmarc, Localizer, OwnedPreparedLocalizer, PreparedLocalizer,
    PreparedVire, ReferenceRssiMap, TrackingReading, Vire, VireConfig,
};
use vire_geom::{GridData, GridIndex, Point2, RegularGrid};

const SIDE: usize = 4;

fn readers() -> Vec<Point2> {
    vec![
        Point2::new(-1.0, -1.0),
        Point2::new(4.0, -1.0),
        Point2::new(4.0, 4.0),
    ]
}

fn base_map() -> ReferenceRssiMap {
    let rs = readers();
    let grid = RegularGrid::square(Point2::ORIGIN, 1.0, SIDE);
    let fields = rs
        .iter()
        .map(|r| GridData::from_fn(grid, |_, p| -62.0 - 24.0 * p.distance(*r).max(0.1).log10()))
        .collect();
    ReferenceRssiMap::new(grid, rs, fields)
}

/// One calibration write: reader, lattice node, absolute RSSI value.
fn writes() -> impl Strategy<Value = Vec<(usize, usize, usize, f64)>> {
    prop::collection::vec((0..3usize, 0..SIDE, 0..SIDE, -95.0..-55.0f64), 1..20)
}

fn kernels() -> [InterpolationKernel; 4] {
    [
        InterpolationKernel::Linear,
        InterpolationKernel::PaperLinear,
        InterpolationKernel::CubicSpline,
        InterpolationKernel::Polynomial,
    ]
}

/// Asserts the synced `owned` state is bit-identical to a from-scratch
/// build against `map`, including on a probe localization.
fn assert_matches_fresh(
    owned: &PreparedVire,
    config: &VireConfig,
    map: &ReferenceRssiMap,
) -> Result<(), TestCaseError> {
    let fresh = PreparedVire::build(config, map).expect("config is non-degenerate");
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(
        bits(owned.planes()),
        bits(fresh.planes()),
        "flattened planes diverged from a fresh prepare"
    );
    let probe = TrackingReading::new(vec![-70.0, -74.5, -77.25]);
    prop_assert_eq!(owned.locate(&probe), fresh.locate(&probe));
    Ok(())
}

/// The coarse cells where `a` and `b` differ.
fn changed_cells(a: &ReferenceRssiMap, b: &ReferenceRssiMap) -> usize {
    (0..a.reader_count())
        .map(|k| {
            a.grid()
                .indices()
                .filter(|&idx| a.rssi(k, idx).to_bits() != b.rssi(k, idx).to_bits())
                .count()
        })
        .sum()
}

/// Whether `sync` rebuilds rather than patches `cells` dirty cells of
/// the 3-reader, 16-node map: from a twelfth of its 48 cells on.
fn past_cutover(cells: usize) -> bool {
    12 * cells >= 48
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: patching after random dirty sequences is
    /// bit-identical to rebuilding, for local and global kernels alike.
    /// Rounds alternate between passing the written cells as the hint —
    /// repeats included, and the first `reverts` cells written back to
    /// their synced value (A→B→A), so the hint names cells that did not
    /// change — and passing an empty hint (a full diff). Either way sync
    /// patches exactly the cells that really changed, unless the hint's
    /// length or the real dirty count crosses the rebuild cutover.
    #[test]
    fn patched_state_is_bit_identical_to_rebuild(
        writes in writes(),
        rounds in 1usize..4,
        reverts in 0usize..4,
    ) {
        for (n, kernel) in kernels().into_iter().enumerate() {
            let config = VireConfig { kernel, ..VireConfig::default() };
            let mut map = base_map();
            let mut owned = PreparedVire::build(&config, &map)
                .expect("default refine prepares");
            let mut landmarc = Landmarc::default().prepare(&map);
            let chunk = writes.len().div_ceil(rounds);
            for (round, batch) in writes.chunks(chunk).enumerate() {
                let synced = map.clone();
                let mut hint: Vec<DirtyCell> = Vec::new();
                for &(k, i, j, value) in batch {
                    map.set_rssi(k, GridIndex::new(i, j), value);
                    hint.push((k, GridIndex::new(i, j)));
                }
                for &(k, i, j, _) in batch.iter().take(reverts) {
                    let idx = GridIndex::new(i, j);
                    map.set_rssi(k, idx, synced.rssi(k, idx));
                }
                let hinted = (n + round) % 2 == 0;
                let hint: &[DirtyCell] = if hinted { &hint } else { &[] };
                let real = changed_cells(&synced, &map);
                let expect = if past_cutover(real) || (hinted && past_cutover(hint.len())) {
                    SyncOutcome::Rebuilt
                } else if real == 0 {
                    SyncOutcome::Reused
                } else {
                    SyncOutcome::Patched(real)
                };
                prop_assert_eq!(owned.sync(&map, hint), expect, "round {} hinted {}", round, hinted);
                prop_assert!(owned.refs().same_bits(&map));
                assert_matches_fresh(&owned, &config, &map)?;
                let landmarc_expect = match real {
                    0 => SyncOutcome::Reused,
                    real => SyncOutcome::Patched(real),
                };
                prop_assert_eq!(landmarc.sync(&map, hint), landmarc_expect);
                let fresh = Landmarc::default().prepare(&map);
                prop_assert_eq!(bits(landmarc.planes()), bits(fresh.planes()));
                let probe = TrackingReading::new(vec![-70.0, -74.5, -77.25]);
                prop_assert_eq!(landmarc.locate(&probe), fresh.locate(&probe));
            }
        }
    }

    /// Same invariant under a fixed threshold.
    #[test]
    fn fixed_threshold_patching_matches_rebuild(writes in writes()) {
        let config = VireConfig {
            threshold: ThresholdMode::Fixed(6.0),
            ..VireConfig::default()
        };
        let mut map = base_map();
        let mut owned = PreparedVire::build(&config, &map).unwrap();
        for &(k, i, j, value) in &writes {
            map.set_rssi(k, GridIndex::new(i, j), value);
        }
        owned.sync(&map, &[]);
        assert_matches_fresh(&owned, &config, &map)?;
    }

    /// A cloned map is a new identity, so a hint naming cells of its
    /// parent — the map the state last synced to — is ignored, and the
    /// clone syncs to the bit-identical state through the full diff.
    #[test]
    fn foreign_map_identity_syncs_via_full_diff(
        writes in writes(),
        parent_cells in prop::collection::vec((0..3usize, 0..SIDE, 0..SIDE), 1..4),
    ) {
        let config = VireConfig::default();
        let map = base_map();
        let mut owned = PreparedVire::build(&config, &map).unwrap();
        let mut landmarc = Landmarc::default().prepare(&map);
        let mut foreign = map.clone();
        for &(k, i, j, value) in &writes {
            foreign.set_rssi(k, GridIndex::new(i, j), value);
        }
        let hint: Vec<DirtyCell> = parent_cells
            .iter()
            .map(|&(k, i, j)| (k, GridIndex::new(i, j)))
            .collect();
        owned.sync(&foreign, &hint);
        prop_assert!(owned.refs().same_bits(&foreign));
        assert_matches_fresh(&owned, &config, &foreign)?;
        landmarc.sync(&foreign, &hint);
        prop_assert_eq!(
            bits(landmarc.planes()),
            bits(Landmarc::default().prepare(&foreign).planes())
        );
    }
}

/// A hint must name every changed cell: one that misses a cell leaves the
/// mirror behind the map, and debug builds catch that after the sync
/// instead of localizing against drifted state.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "the hint missed a changed cell")]
fn a_hint_that_misses_a_changed_cell_trips_the_mirror_check() {
    let mut map = base_map();
    let mut owned = PreparedVire::build(&VireConfig::default(), &map).unwrap();
    let (a, b) = (GridIndex::new(0, 1), GridIndex::new(2, 2));
    map.set_rssi(0, a, -80.25);
    map.set_rssi(1, b, -81.5);
    owned.sync(&map, &[(0, a)]);
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// A reading whose per-reader RSSI is `value(k)`.
fn reading_from(readers: usize, value: impl Fn(usize) -> f64) -> TrackingReading {
    TrackingReading::new((0..readers).map(value).collect())
}

/// Readings that state left over from the old map would answer
/// differently: every reader's θ equal to its new fine value at the node
/// that moved most (true smallest gaps all zero), the same with the old
/// values, each reader's new maximum, and a mid-range probe. After a reshape, where
/// old and new nodes do not correspond, the middle node stands in.
fn telling_readings(before: &[f64], after: &PreparedVire) -> Vec<TrackingReading> {
    let planes = after.planes();
    let nodes = after.grid().tag_count();
    let readers = planes.len() / nodes;
    let mut readings = vec![TrackingReading::new(vec![-70.0, -74.5, -77.25])];
    if before.len() == planes.len() {
        let moved = (0..planes.len())
            .max_by(|&a, &b| {
                (planes[a] - before[a])
                    .abs()
                    .total_cmp(&(planes[b] - before[b]).abs())
            })
            .expect("planes are non-empty");
        let node = moved % nodes;
        readings.push(reading_from(readers, |k| planes[k * nodes + node]));
        readings.push(reading_from(readers, |k| before[k * nodes + node]));
    } else {
        readings.push(reading_from(readers, |k| planes[k * nodes + nodes / 2]));
    }
    readings.push(reading_from(readers, |k| {
        planes[k * nodes..(k + 1) * nodes]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }));
    readings
}

/// Every reading localizes on the synced `owned` state exactly as on a
/// fresh build — estimate, per-reader thresholds and mask to the bit.
fn assert_diagnostics_match_fresh(
    owned: &PreparedVire,
    config: &VireConfig,
    map: &ReferenceRssiMap,
    readings: &[TrackingReading],
    stage: &str,
) {
    let fresh = PreparedVire::build(config, map).expect("config is non-degenerate");
    for reading in readings {
        let (est, diag) = owned
            .locate_with_diagnostics(reading)
            .expect("synced locate");
        let (want, want_diag) = fresh
            .locate_with_diagnostics(reading)
            .expect("fresh locate");
        let (diag, want_diag) = (diag.expect("eliminated"), want_diag.expect("eliminated"));
        let what = format!("{stage}, {:?}, reading {:?}", config.kernel, reading.rssi());
        assert_eq!(
            [est.position.x.to_bits(), est.position.y.to_bits()],
            [want.position.x.to_bits(), want.position.y.to_bits()],
            "estimate diverged: {what}"
        );
        assert_eq!(est.contributors, want.contributors, "{what}");
        assert_eq!(
            est.threshold.map(f64::to_bits),
            want.threshold.map(f64::to_bits),
            "{what}"
        );
        assert_eq!(
            bits(&diag.thresholds),
            bits(&want_diag.thresholds),
            "thresholds diverged: {what}"
        );
        assert_eq!(
            diag.mask.words(),
            want_diag.mask.words(),
            "mask diverged: {what}"
        );
    }
}

/// The map-change oracle: after every kind of map change — one dirty cell
/// (patch), every cell (in-place rebuild), a new lattice (reshape) — a
/// locate reads only the new values, so readings that the old map would
/// answer differently localize exactly as on a fresh build, on every
/// kernel.
#[test]
fn every_map_change_localizes_like_a_fresh_build() {
    for kernel in kernels() {
        let config = VireConfig {
            kernel,
            ..VireConfig::default()
        };
        let mut map = base_map();
        let mut owned = PreparedVire::build(&config, &map).expect("default refine prepares");

        // One dirty cell, lifted well above its neighbours: the patch path.
        let before = owned.planes().to_vec();
        let cell = GridIndex::new(1, 2);
        map.set_rssi(0, cell, map.rssi(0, cell) + 12.0);
        assert_eq!(owned.sync(&map, &[]), SyncOutcome::Patched(1));
        let readings = telling_readings(&before, &owned);
        assert_diagnostics_match_fresh(&owned, &config, &map, &readings, "patch");

        // Every cell: past the cutover, so the in-place rebuild.
        let before = owned.planes().to_vec();
        for k in 0..map.reader_count() {
            for idx in map.grid().indices().collect::<Vec<_>>() {
                map.set_rssi(k, idx, map.rssi(k, idx) + 7.5);
            }
        }
        assert_eq!(owned.sync(&map, &[]), SyncOutcome::Rebuilt);
        let readings = telling_readings(&before, &owned);
        assert_diagnostics_match_fresh(&owned, &config, &map, &readings, "rebuild in place");

        // A different lattice: the reshape rebuild.
        let before = owned.planes().to_vec();
        let grid = RegularGrid::square(Point2::ORIGIN, 0.75, SIDE + 1);
        let fields = readers()
            .iter()
            .map(|r| GridData::from_fn(grid, |_, p| -58.0 - 26.0 * p.distance(*r).max(0.1).log10()))
            .collect();
        let reshaped = ReferenceRssiMap::new(grid, readers(), fields);
        assert_eq!(owned.sync(&reshaped, &[]), SyncOutcome::Rebuilt);
        let readings = telling_readings(&before, &owned);
        assert_diagnostics_match_fresh(&owned, &config, &reshaped, &readings, "reshape");
    }
}

/// A lattice with one node along an axis is a valid map
/// (`RegularGrid::new` allows it): every kernel localizes on the 5×1,
/// 1×5 and 1×1 lattices, and a one-cell sync (the patch path, where the
/// map's 15 cells keep one below the rebuild cutover) equals a fresh
/// build.
#[test]
fn one_node_axis_lattices_localize_and_patch_on_every_kernel() {
    let reading = TrackingReading::new(vec![-70.0, -74.5, -77.25]);
    for (nx, ny) in [(5, 1), (1, 5), (1, 1)] {
        let grid = RegularGrid::new(Point2::ORIGIN, 1.0, 1.0, nx, ny);
        let rs = readers();
        let fields = rs
            .iter()
            .map(|r| GridData::from_fn(grid, |_, p| -62.0 - 24.0 * p.distance(*r).max(0.1).log10()))
            .collect();
        let map = ReferenceRssiMap::new(grid, rs, fields);
        let mut moved = map.clone();
        let cell = GridIndex::new(nx - 1, ny - 1);
        moved.set_rssi(1, cell, map.rssi(1, cell) - 3.5);
        for kernel in kernels() {
            let config = VireConfig {
                kernel,
                ..VireConfig::default()
            };
            let located = Localizer::locate(&Vire::new(config.clone()), &map, &reading);
            assert!(located.is_ok(), "{kernel:?} on {nx}×{ny}: {located:?}");
            let mut owned = PreparedVire::build(&config, &map).unwrap();
            let outcome = owned.sync(&moved, &[]);
            if nx * ny > 1 {
                assert_eq!(outcome, SyncOutcome::Patched(1), "{kernel:?} on {nx}×{ny}");
            }
            let fresh = PreparedVire::build(&config, &moved).unwrap();
            assert_eq!(
                bits(owned.planes()),
                bits(fresh.planes()),
                "{kernel:?} on {nx}×{ny}"
            );
            assert_eq!(owned.locate(&reading), fresh.locate(&reading));
        }
    }
}
