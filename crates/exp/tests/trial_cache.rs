//! Tier-1 contract of the content-addressed trial cache:
//!
//! 1. cached trials are `f64::to_bits`-identical to freshly simulated
//!    ones, across every preset environment and equipment generation
//!    (property-based),
//! 2. the fixture key is sensitive to every simulation knob — any single
//!    change moves the key,
//! 3. concurrent requests for one fixture are single-flight: N threads,
//!    one simulation,
//! 4. the figure suite shares fixtures through the global cache: fig7,
//!    fig8 and the kernel ablation request the same Env3 trials and only
//!    the first one simulates,
//! 5. an on-disk corpus round-trips fixtures bit-exactly and replaces
//!    simulation on a warm start.

use proptest::prelude::*;
use std::sync::Arc;
use vire_env::presets::{env1, env2, env3};
use vire_env::Deployment;
use vire_exp::cache::test_support::scratch_dir;
use vire_exp::runner::{collect_trial_with, TrialData, TrialSet};
use vire_exp::{fixture_key, TrialCache};
use vire_geom::Point2;
use vire_sim::{SmoothingKind, TestbedConfig};

/// Every float a trial produces, as raw bits (map fields, then per-tag
/// truth and RSSI), so equality means bit-identity, not approximation.
fn trial_bits(trial: &TrialData) -> Vec<u64> {
    let mut bits = Vec::new();
    bits.extend(trial.map.planes().iter().map(|v| v.to_bits()));
    for tag in &trial.tags {
        bits.push(tag.truth.x.to_bits());
        bits.push(tag.truth.y.to_bits());
        bits.extend(tag.reading.rssi().iter().map(|v| v.to_bits()));
    }
    bits
}

fn preset(index: usize) -> vire_env::Environment {
    match index {
        0 => env1(),
        1 => env2(),
        _ => env3(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cached and freshly simulated trials agree bit-for-bit for any
    /// (environment, equipment generation, seed, position).
    #[test]
    fn cached_trials_are_bit_identical_to_fresh_ones(
        env_index in 0usize..3,
        legacy in any::<bool>(),
        seed in 1u64..1000,
        x in 0.3f64..2.7,
        y in 0.3f64..2.7,
    ) {
        let env = preset(env_index);
        let config = if legacy {
            TestbedConfig::legacy(env, seed)
        } else {
            TestbedConfig::paper(env, seed)
        };
        let positions = [Point2::new(x, y)];
        let cache = TrialCache::new();
        let cached = cache.get_or_collect(&config, &positions);
        let fresh = collect_trial_with(config, &positions);
        prop_assert_eq!(trial_bits(&cached), trial_bits(&fresh));
    }
}

#[test]
fn every_knob_moves_the_fixture_key() {
    let base = TestbedConfig::paper(env3(), 7);
    let positions = vec![Point2::new(1.5, 1.5), Point2::new(0.5, 2.5)];
    let key = fixture_key(&base, &positions);

    let mut variants: Vec<(&str, TestbedConfig)> = Vec::new();
    let mut push = |label, config| variants.push((label, config));
    push(
        "seed",
        TestbedConfig {
            seed: 8,
            ..base.clone()
        },
    );
    push(
        "environment",
        TestbedConfig {
            environment: env1(),
            ..base.clone()
        },
    );
    push(
        "deployment",
        TestbedConfig {
            deployment: Deployment::scaled(4, 1.0, 6),
            ..base.clone()
        },
    );
    push(
        "beacon_interval",
        TestbedConfig {
            beacon_interval: 2.5,
            ..base.clone()
        },
    );
    push(
        "beacon_jitter_frac",
        TestbedConfig {
            beacon_jitter_frac: 0.07,
            ..base.clone()
        },
    );
    push(
        "smoothing",
        TestbedConfig {
            smoothing: SmoothingKind::Ewma(0.3),
            ..base.clone()
        },
    );
    push(
        "legacy_power_levels",
        TestbedConfig {
            legacy_power_levels: true,
            ..base.clone()
        },
    );
    push(
        "keep_log",
        TestbedConfig {
            keep_log: true,
            ..base.clone()
        },
    );
    push(
        "collision_radius",
        TestbedConfig {
            collision_radius: 0.4,
            ..base.clone()
        },
    );
    push(
        "tag_gain_sigma",
        TestbedConfig {
            tag_gain_sigma: 1.5,
            ..base.clone()
        },
    );
    push(
        "link_budget_cache",
        TestbedConfig {
            link_budget_cache: false,
            ..base.clone()
        },
    );
    push(
        "reader_antennas",
        TestbedConfig {
            reader_antennas: base
                .deployment
                .readers
                .iter()
                .map(|&r| vire_radio::antenna::AntennaPattern::cardioid(Point2::new(1.5, 1.5) - r))
                .collect(),
            ..base.clone()
        },
    );

    for (label, variant) in &variants {
        assert_ne!(
            key,
            fixture_key(variant, &positions),
            "changing `{label}` must move the fixture key"
        );
    }

    // The tracking positions are part of the fixture too — order included
    // (tag index determines which reading belongs to which truth).
    let mut reversed = positions.clone();
    reversed.reverse();
    assert_ne!(key, fixture_key(&base, &reversed));
    assert_ne!(key, fixture_key(&base, &positions[..1]));

    // And the key is a pure content address: recomputing it from a clone
    // lands on the same value.
    assert_eq!(key, fixture_key(&base.clone(), &positions));
}

#[test]
fn concurrent_requests_single_flight_one_simulation() {
    let cache = Arc::new(TrialCache::new());
    let config = TestbedConfig::paper(env1(), 17);
    let positions = vec![Point2::new(1.2, 1.8)];
    const THREADS: usize = 8;

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let config = config.clone();
            let positions = positions.clone();
            std::thread::spawn(move || cache.get_or_collect(&config, &positions))
        })
        .collect();
    let results: Vec<Arc<TrialData>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for r in &results[1..] {
        assert!(
            Arc::ptr_eq(&results[0], r),
            "all threads must share the winner's Arc"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.simulated, 1, "exactly one thread simulates");
    assert_eq!(stats.distinct, 1);
    assert_eq!(stats.lookups, THREADS as u64);
    assert_eq!(
        stats.hits + stats.in_flight_waits,
        THREADS as u64 - 1,
        "the other threads hit or wait"
    );
}

#[test]
fn figure_suite_shares_env3_fixtures_across_figures() {
    // fig7, fig8 and the kernel ablation all sweep localizer variants
    // over the same (Env3, 5 non-boundary tags, seeds) fixture. Run them
    // back-to-back with seeds unique to this test (other tests share the
    // global cache in parallel, so global counter deltas would race —
    // per-key stats don't).
    let seeds = [910_001u64, 910_002];
    let positions: Vec<Point2> = Deployment::tracking_tags_fig2a()[..5].to_vec();
    let keys: Vec<_> = seeds
        .iter()
        .map(|&s| fixture_key(&TestbedConfig::paper(env3(), s), &positions))
        .collect();
    let cache = TrialCache::global();

    let mut lookups_after = Vec::new();
    vire_exp::figures::fig7::run(&seeds);
    for key in &keys {
        let ks = cache.key_stats(*key).expect("fig7 collected the fixture");
        assert!(ks.simulated, "this process simulated the fixture");
        lookups_after.push(ks.lookups);
    }
    vire_exp::figures::fig8::run(&seeds);
    for (i, key) in keys.iter().enumerate() {
        let ks = cache.key_stats(*key).unwrap();
        assert!(
            ks.lookups > lookups_after[i],
            "fig8 must request the shared fixture again (cache hit, not a re-simulation)"
        );
        lookups_after[i] = ks.lookups;
    }
    vire_exp::figures::ablations::kernels(&seeds);
    for (i, key) in keys.iter().enumerate() {
        let ks = cache.key_stats(*key).unwrap();
        assert!(ks.lookups > lookups_after[i]);
        assert!(
            ks.simulated && !ks.corpus_loaded,
            "still exactly the one original simulation"
        );
    }
}

#[test]
fn trial_set_cached_matches_uncached_collection() {
    // The TrialSet path every figure uses: collected through a cache, the
    // numbers are bit-identical to direct simulation.
    let seeds = [3u64, 4, 5];
    let positions: Vec<Point2> = Deployment::tracking_tags_fig2a()[..3].to_vec();
    let cache = TrialCache::new();
    let set = TrialSet::collect_in(&cache, &env2(), &positions, &seeds);
    for (trial, &seed) in set.trials().iter().zip(&seeds) {
        let fresh = collect_trial_with(TestbedConfig::paper(env2(), seed), &positions);
        assert_eq!(trial_bits(trial), trial_bits(&fresh));
    }
    assert_eq!(cache.stats().simulated, seeds.len() as u64);

    // A second collection of the same fixture is all hits.
    let again = TrialSet::collect_in(&cache, &env2(), &positions, &seeds);
    assert_eq!(cache.stats().simulated, seeds.len() as u64);
    for (a, b) in set.trials().iter().zip(again.trials()) {
        assert!(Arc::ptr_eq(a, b));
    }
}

#[test]
fn warm_corpus_replaces_simulation_bit_exactly() {
    let dir = scratch_dir("warm");
    let config = TestbedConfig::paper(env3(), 23);
    let legacy = TestbedConfig::legacy(env1(), 24);
    let positions = vec![Point2::new(0.8, 2.1), Point2::new(2.2, 0.9)];

    // Cold: simulate and persist.
    let cold = TrialCache::with_corpus(&dir).unwrap();
    let a1 = cold.get_or_collect(&config, &positions);
    let a2 = cold.get_or_collect(&legacy, &positions);
    assert_eq!(cold.stats().simulated, 2);
    assert_eq!(cold.stats().corpus_loaded, 0);

    // Warm: a fresh cache over the same directory loads instead.
    let warm = TrialCache::with_corpus(&dir).unwrap();
    let b1 = warm.get_or_collect(&config, &positions);
    let b2 = warm.get_or_collect(&legacy, &positions);
    let stats = warm.stats();
    assert_eq!(stats.simulated, 0, "warm start must not simulate");
    assert_eq!(stats.corpus_loaded, 2);
    assert_eq!(trial_bits(&a1), trial_bits(&b1));
    assert_eq!(trial_bits(&a2), trial_bits(&b2));

    std::fs::remove_dir_all(&dir).ok();
}
