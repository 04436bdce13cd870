//! Property tests pinning the incremental-sync contract: after an
//! arbitrary sequence of calibration-cell writes, a synced
//! [`PreparedVire`] must be **bit-identical** — flattened planes and every
//! estimate — to a fresh [`PreparedVire::build`] against the final map,
//! for every interpolation kernel, whether `sync` is told the written
//! cells (the writer's hint, repeats and reverts included) or bit-diffs
//! the map. Sync re-interpolates exactly the readers whose cells changed
//! and reports what it did from that alone. A hint is trusted only for
//! the map it describes, and one that misses a cell trips the debug
//! mirror check. Every kind of map change (some readers, every reader,
//! reshape) localizes like a fresh build.

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

/// Every reader's field of the prepared virtual grid, reader-major.
fn planes(prepared: &PreparedVire) -> Vec<f64> {
    let grid = prepared.grid();
    (0..grid.reader_count())
        .flat_map(|k| grid.field(k))
        .collect()
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
        bits(&planes(owned)),
        bits(&planes(&fresh)),
        "flattened planes diverged from a fresh prepare"
    );
    let probe = TrackingReading::new(vec![-70.0, -74.5, -77.25]);
    prop_assert_eq!(owned.locate(&probe), fresh.locate(&probe));
    Ok(())
}

/// The readers with a cell where `a` and `b` differ, and the number of
/// such cells.
fn map_diff(a: &ReferenceRssiMap, b: &ReferenceRssiMap) -> (Vec<usize>, usize) {
    let per_reader: Vec<usize> = (0..a.reader_count())
        .map(|k| {
            a.grid()
                .indices()
                .filter(|&idx| a.rssi(k, idx).to_bits() != b.rssi(k, idx).to_bits())
                .count()
        })
        .collect();
    let dirty = (0..per_reader.len())
        .filter(|&k| per_reader[k] > 0)
        .collect();
    (dirty, per_reader.iter().sum())
}

/// What syncing a state from `synced` to `map` (same lattice and readers)
/// must report: nothing changed, every reader changed, or the changed
/// cells of some readers.
fn expected_outcome(synced: &ReferenceRssiMap, map: &ReferenceRssiMap) -> SyncOutcome {
    match map_diff(synced, map) {
        (_, 0) => SyncOutcome::Reused,
        (dirty, _) if dirty.len() == map.reader_count() => SyncOutcome::Rebuilt,
        (_, cells) => SyncOutcome::Patched(cells),
    }
}

/// One sync round's writes, `(lattice i, lattice j, RSSI)`, which the
/// round spreads over its readers.
fn round_writes() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..SIDE, 0..SIDE, -95.0..-55.0f64), 3..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: a sync after random writes is
    /// bit-identical to a fresh build, for local and global kernels
    /// alike. Round `r` dirties exactly `r % 3 + 1` of the three readers
    /// (one, several, all), starting at a random one, and every reader it
    /// leaves clean keeps its plane bit-unchanged. Each round also writes
    /// `reverts` cells on any reader and writes them back (A→B→A), so the
    /// hint names cells that did not change. Rounds alternate between
    /// passing every written cell as the hint, repeats included, and
    /// passing an empty hint (a full diff); either way sync reports
    /// exactly the cells and readers that really changed.
    #[test]
    fn patched_state_is_bit_identical_to_rebuild(
        rounds in prop::collection::vec(round_writes(), 3..6),
        first in 0..3usize,
        reverts in prop::collection::vec((0..3usize, 0..SIDE, 0..SIDE, -95.0..-55.0f64), 0..4),
    ) {
        for (n, kernel) in kernels().into_iter().enumerate() {
            let config = VireConfig { kernel, ..VireConfig::default() };
            let mut map = base_map();
            let mut owned = PreparedVire::build(&config, &map)
                .expect("default refine prepares");
            let mut landmarc = Landmarc::default().prepare(&map);
            for (round, writes) in rounds.iter().enumerate() {
                let synced = map.clone();
                let mut hint: Vec<DirtyCell> = Vec::new();
                for &(k, i, j, value) in &reverts {
                    let idx = GridIndex::new(i, j);
                    map.set_rssi(k, idx, value);
                    map.set_rssi(k, idx, synced.rssi(k, idx));
                    hint.push((k, idx));
                }
                let readers = round % 3 + 1;
                let mut want_dirty: Vec<usize> =
                    (0..readers).map(|r| (first + r) % 3).collect();
                for (w, &(i, j, value)) in writes.iter().enumerate() {
                    let (k, idx) = (want_dirty[w % readers], GridIndex::new(i, j));
                    map.set_rssi(k, idx, value);
                    hint.push((k, idx));
                }
                hint.extend_from_within(..hint.len() / 2);
                want_dirty.sort_unstable();
                let (dirty, _) = map_diff(&synced, &map);
                prop_assert_eq!(&dirty, &want_dirty, "round {} dirties its readers", round);

                let hinted = (n + round) % 2 == 0;
                let hint: &[DirtyCell] = if hinted { &hint } else { &[] };
                let before = planes(&owned);
                let expect = expected_outcome(&synced, &map);
                prop_assert_eq!(owned.sync(&map, hint), expect, "round {} hinted {}", round, hinted);
                prop_assert!(owned.refs().same_bits(&map));
                let nodes = owned.grid().tag_count();
                for k in (0..3).filter(|k| !dirty.contains(k)) {
                    prop_assert_eq!(
                        bits(&planes(&owned)[k * nodes..(k + 1) * nodes]),
                        bits(&before[k * nodes..(k + 1) * nodes]),
                        "clean reader {} changed in round {}", k, round
                    );
                }
                assert_matches_fresh(&owned, &config, &map)?;
                let landmarc_expect = match map_diff(&synced, &map).1 {
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
    let planes = planes(after);
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
/// (one reader re-interpolated), every cell (every reader), a new lattice
/// (reshape) — a locate reads only the new values, so readings that the old map would
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

        // One dirty cell, lifted well above its neighbours: one reader
        // re-interpolated.
        let (before, synced) = (planes(&owned), map.clone());
        let cell = GridIndex::new(1, 2);
        map.set_rssi(0, cell, map.rssi(0, cell) + 12.0);
        assert_eq!(owned.sync(&map, &[]), expected_outcome(&synced, &map));
        let readings = telling_readings(&before, &owned);
        assert_diagnostics_match_fresh(&owned, &config, &map, &readings, "one reader");

        // Every cell: every reader re-interpolated in place.
        let (before, synced) = (planes(&owned), map.clone());
        for k in 0..map.reader_count() {
            for idx in map.grid().indices().collect::<Vec<_>>() {
                map.set_rssi(k, idx, map.rssi(k, idx) + 7.5);
            }
        }
        assert_eq!(owned.sync(&map, &[]), expected_outcome(&synced, &map));
        let readings = telling_readings(&before, &owned);
        assert_diagnostics_match_fresh(&owned, &config, &map, &readings, "every reader");

        // A different lattice: the reshape rebuild.
        let before = planes(&owned);
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
/// 1×5 and 1×1 lattices, and a one-cell sync (one reader re-interpolated)
/// equals a fresh build.
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
            assert_eq!(
                outcome,
                expected_outcome(&map, &moved),
                "{kernel:?} on {nx}×{ny}"
            );
            let fresh = PreparedVire::build(&config, &moved).unwrap();
            assert_eq!(
                bits(&planes(&owned)),
                bits(&planes(&fresh)),
                "{kernel:?} on {nx}×{ny}"
            );
            assert_eq!(owned.locate(&reading), fresh.locate(&reading));
        }
    }
}
