//! Property tests pinning the incremental-sync contract: after an
//! arbitrary sequence of calibration-cell writes, a patched
//! [`PreparedVire`] must be **bit-identical** — flattened planes, sorted
//! planes, and every estimate — to a fresh [`PreparedVire::build`]
//! against the final map, for every interpolation kernel.

use proptest::prelude::*;
use vire_core::elimination::ThresholdMode;
use vire_core::incremental::SyncOutcome;
use vire_core::{
    InterpolationKernel, OwnedPreparedLocalizer, PreparedLocalizer, PreparedVire, ReferenceRssiMap,
    TrackingReading, VireConfig,
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
    prop_assert_eq!(
        bits(owned.sorted_planes()),
        bits(fresh.sorted_planes()),
        "sorted planes diverged from a fresh prepare"
    );
    let probe = TrackingReading::new(vec![-70.0, -74.5, -77.25]);
    prop_assert_eq!(owned.locate(&probe), fresh.locate(&probe));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: patching after random dirty sequences is
    /// bit-identical to rebuilding, for local and global kernels alike.
    #[test]
    fn patched_state_is_bit_identical_to_rebuild(
        writes in writes(),
        rounds in 1usize..4,
    ) {
        for kernel in kernels() {
            let config = VireConfig { kernel, ..VireConfig::default() };
            let mut map = base_map();
            let mut owned = PreparedVire::build(&config, &map)
                .expect("default refine prepares");
            // Split the write sequence into `rounds` sync batches so the
            // journal replay crosses several epochs.
            let chunk = writes.len().div_ceil(rounds);
            for batch in writes.chunks(chunk) {
                let mut cells: Vec<(usize, usize, usize)> =
                    batch.iter().map(|&(k, i, j, _)| (k, i, j)).collect();
                cells.sort_unstable();
                cells.dedup();
                let epoch_before = map.epoch();
                for &(k, i, j, value) in batch {
                    map.set_rssi(k, GridIndex::new(i, j), value);
                }
                // Journal length since the last sync (bit-changing writes,
                // duplicates included) — the early-cutover trigger that
                // skips `discover_dirty` when a rebuild is certain.
                let pending = (map.epoch() - epoch_before) as usize;
                let outcome = owned.sync(&map, &[]);
                // Below both cutovers (6·dirty < 48 coarse cells on the
                // deduplicated set, and 6·journal-length < 48 on the raw
                // pending count) sync must stay on the patch path; at or
                // above either, rebuilding is also bit-identical, so only
                // the outcome flag differs.
                if 6 * cells.len() < 48 && 6 * pending < 48 {
                    prop_assert!(outcome != SyncOutcome::Rebuilt);
                }
            }
            assert_matches_fresh(&owned, &config, &map)?;
        }
    }

    /// Same invariant under a fixed threshold, where the sorted planes are
    /// unused (empty) and sync must not materialize them.
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
        prop_assert!(owned.sorted_planes().is_empty());
        assert_matches_fresh(&owned, &config, &map)?;
    }

    /// A cloned map (fresh identity, no usable journal) still syncs to the
    /// bit-identical state through the full-diff path.
    #[test]
    fn foreign_map_identity_syncs_via_full_diff(writes in writes()) {
        let config = VireConfig::default();
        let map = base_map();
        let mut owned = PreparedVire::build(&config, &map).unwrap();
        let mut foreign = map.clone();
        for &(k, i, j, value) in &writes {
            foreign.set_rssi(k, GridIndex::new(i, j), value);
        }
        owned.sync(&foreign, &[]);
        assert_matches_fresh(&owned, &config, &foreign)?;
    }
}
