//! End-to-end acceptance: a seeded scenario run through the streaming bus
//! pipeline produces bit-identical raw `Estimate`s to the direct-call
//! path (full map export + one-shot `Localizer::locate`).

use vire_core::{
    Estimate, LocalizeError, Localizer, LocationService, ReferenceRssiMap, ServiceConfig,
    TrackingReading, Vire,
};
use vire_env::presets::env2;
use vire_env::Deployment;
use vire_exp::stream_trial;
use vire_sim::{TagId, Testbed, TestbedConfig};

const SEED: u64 = 42;
const SNAPSHOTS: usize = 25;
const INTERVAL: f64 = 2.0;

#[test]
fn streamed_estimates_are_bit_identical_to_direct_path() {
    // Streaming path: engine → bus → middleware stage → service.drive.
    let positions = Deployment::tracking_tags_fig2a();
    let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
    let (steps, ids) = stream_trial(
        TestbedConfig::paper(env2(), SEED),
        &positions,
        &mut svc,
        SNAPSHOTS,
        INTERVAL,
    );

    // Direct path: an identical seeded testbed stepped in lockstep; at
    // each snapshot, export the full calibration map and locate one-shot.
    let mut tb = Testbed::new(TestbedConfig::paper(env2(), SEED));
    let direct_ids: Vec<TagId> = positions.iter().map(|&p| tb.add_tracking_tag(p)).collect();
    assert_eq!(ids, direct_ids, "same deployment must assign the same ids");
    let vire = Vire::default();

    let mut compared = 0usize;
    for step in &steps {
        tb.run_for(INTERVAL);
        assert_eq!(step.time, tb.clock(), "testbeds drifted out of lockstep");
        if step.estimates.is_empty() {
            continue;
        }
        let map = tb.reference_map().expect("estimates imply full coverage");
        for (tag, result) in &step.estimates {
            let reading = tb.tracking_reading(*tag).expect("estimates imply readings");
            let direct = vire.locate(&map, &reading);
            match (result, direct) {
                (Ok(streamed), Ok(direct)) => {
                    assert_eq!(
                        streamed.raw, direct,
                        "tag {tag} at t={}: streamed raw estimate differs from direct locate",
                        step.time
                    );
                    compared += 1;
                }
                (Err(streamed), Err(direct)) => assert_eq!(streamed, &direct),
                (streamed, direct) => {
                    panic!("tag {tag}: outcome mismatch: {streamed:?} vs {direct:?}")
                }
            }
        }
    }
    assert!(
        compared >= positions.len(),
        "expected estimates to compare, got {compared}"
    );
}

/// VIRE with the incremental sync path disabled: with no
/// `prepare_owned`, [`LocationService::drive`] takes its fallback arm and
/// re-prepares a fresh state (a new copy of the map) on every drive,
/// never patching one across drives.
#[derive(Debug, Default)]
struct NoIncrementalVire(Vire);

impl Localizer for NoIncrementalVire {
    fn locate(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<Estimate, LocalizeError> {
        self.0.locate(refs, reading)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn prepare<'a>(
        &'a self,
        refs: &'a ReferenceRssiMap,
    ) -> Box<dyn vire_core::PreparedLocalizer + 'a> {
        Localizer::prepare(&self.0, refs)
    }
    // prepare_owned: trait default (None) — the point of this wrapper;
    // `prepare` still hands out VIRE's own prepared state, built afresh.
}

/// Drives interleave with calibration updates (sub-beacon-interval polling
/// dirties only part of the calibration table between drives), so the
/// service patches its cached prepared state instead of rebuilding. Every
/// tracked estimate — Kalman state included — must be bit-identical to a
/// replay through the non-incremental re-prepare-every-drive path.
#[test]
fn incremental_drive_is_bit_identical_to_reprepared_replay() {
    let positions = Deployment::tracking_tags_fig2a();
    // 0.7 s polling against 2 s jittered beacons: most drives see a
    // partial set of dirty calibration cells.
    let snapshots = 80;
    let interval = 0.7;

    let mut incremental = LocationService::new(Vire::default(), ServiceConfig::default());
    let (inc_steps, inc_ids) = stream_trial(
        TestbedConfig::paper(env2(), SEED),
        &positions,
        &mut incremental,
        snapshots,
        interval,
    );

    let mut replay = LocationService::new(NoIncrementalVire::default(), ServiceConfig::default());
    let (replay_steps, replay_ids) = stream_trial(
        TestbedConfig::paper(env2(), SEED),
        &positions,
        &mut replay,
        snapshots,
        interval,
    );

    assert_eq!(inc_ids, replay_ids);
    assert_eq!(inc_steps.len(), replay_steps.len());
    for (inc, rep) in inc_steps.iter().zip(&replay_steps) {
        assert_eq!(inc.time, rep.time);
        assert_eq!(
            inc.estimates, rep.estimates,
            "incremental and re-prepared drives diverged at t={}",
            inc.time
        );
    }

    let stats = incremental.sync_stats();
    assert!(
        stats.patched > 0,
        "scenario never exercised the patch path: {stats:?}"
    );
    assert!(
        stats.reused > 0,
        "scenario never reused the cached state: {stats:?}"
    );
}
