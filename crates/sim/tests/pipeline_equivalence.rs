//! The middleware stage is a refactoring, not a behavior change:
//! replaying the testbed's raw reading log into a fresh middleware must
//! reproduce the engine's smoothed table bit for bit, and the stage's
//! incrementally-maintained calibration map must equal the full
//! re-export.

use proptest::prelude::*;
use std::collections::HashSet;
use vire_geom::Point2;
use vire_sim::{Middleware, Testbed, TestbedConfig};

fn paper_testbed(seed: u64) -> Testbed {
    let env = vire_env::presets::env1();
    Testbed::new(TestbedConfig::paper(env, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replaying the raw log into a fresh middleware (the "external
    /// consumer" path) yields exactly the smoothed table the engine's own
    /// stage built — same readings, same order, bit-identical filters.
    #[test]
    fn log_replay_matches_engine_middleware(
        seed in 0u64..1000,
        snapshots in 1usize..8,
        tag_x in 0.25f64..3.75,
        tag_y in 0.25f64..3.75,
    ) {
        let mut cfg = TestbedConfig::paper(vire_env::presets::env1(), seed);
        cfg.keep_log = true;
        let smoothing = cfg.smoothing;
        let mut tb = Testbed::new(cfg);
        tb.add_tracking_tag(Point2::new(tag_x, tag_y));
        for _ in 0..snapshots {
            tb.run_for(2.0);
        }
        prop_assert_eq!(tb.middleware().log_evicted(), 0, "the log dropped readings");

        let mut shadow = Middleware::new(smoothing, false);
        let mut seen: HashSet<(vire_sim::TagId, vire_sim::ReaderId)> = HashSet::new();
        for &reading in tb.middleware().log_readings() {
            seen.insert((reading.tag, reading.reader));
            shadow.ingest(reading);
        }

        prop_assert!(!seen.is_empty(), "no readings decoded at all");
        for &(tag, reader) in &seen {
            let engine = tb.middleware().rssi(tag, reader).map(f64::to_bits);
            let replay = shadow.rssi(tag, reader).map(f64::to_bits);
            prop_assert_eq!(engine, replay, "smoothed value diverged for {:?}/{:?}", tag, reader);
        }
    }

    /// The stage's dirty-cell incremental map equals a from-scratch full
    /// export, cell for cell, after any number of snapshots.
    #[test]
    fn incremental_map_matches_full_reexport(
        seed in 0u64..1000,
        snapshots in 1usize..6,
    ) {
        let mut tb = paper_testbed(seed);
        // Warm up so every reference cell is covered, then keep running.
        tb.run_for(tb.warmup_duration() * 2.0);
        for _ in 0..snapshots {
            tb.run_for(2.0);
        }
        let full = tb.reference_map().expect("warmed up");
        let incremental = tb
            .stage_mut()
            .reference_map()
            .expect("stage map complete after warmup")
            .clone();
        prop_assert_eq!(full.reader_count(), incremental.reader_count());
        for k in 0..full.reader_count() {
            for idx in full.grid().indices() {
                prop_assert_eq!(
                    full.rssi(k, idx).to_bits(),
                    incremental.rssi(k, idx).to_bits(),
                    "cell {:?} reader {} diverged", idx, k
                );
            }
        }
    }
}
