//! Link-budget cache: cold vs warm beacon cost, and the end-to-end
//! trial-collection speedup it buys.
//!
//! A *cold* beacon pays the full deterministic link budget — path loss,
//! wall/obstacle attenuation, multipath — before the stochastic tail; a
//! *warm* beacon replays the memoized mean and pays only the noise, spike,
//! and interference draws ([`RfChannel::sample_with_mean`]). The testbed
//! caches the budget per (tag, reader) link, so steady-state beacons are
//! all warm. In bench mode a machine-readable summary is written to
//! `target/channel_cache.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use vire_env::presets::env2;
use vire_env::Deployment;
use vire_exp::runner::collect_trial_with;
use vire_exp::TrialData;
use vire_geom::Point2;
use vire_radio::{Dbm, RfChannel};
use vire_sim::TestbedConfig;

/// Every (tag, reader) link of the paper deployment plus the Fig. 2(a)
/// tracking tags — the links the testbed's cache actually holds.
fn links() -> Vec<(Point2, Point2)> {
    let deployment = Deployment::paper_testbed();
    let mut tags = deployment.reference_positions();
    tags.extend(Deployment::tracking_tags_fig2a());
    tags.iter()
        .flat_map(|&t| deployment.readers.iter().map(move |&r| (t, r)))
        .collect()
}

fn channel(seed: u64) -> RfChannel {
    RfChannel::new(env2().channel_params(seed))
}

fn bench_channel_cache(c: &mut Criterion) {
    let links = links();
    let mut group = c.benchmark_group("channel_cache");

    let mut ch = channel(7);
    group.bench_function("cold_beacon", |b| {
        let mut i = 0;
        b.iter(|| {
            let (tx, rx) = links[i % links.len()];
            i += 1;
            black_box(ch.measure(black_box(tx), black_box(rx), 0))
        })
    });

    let mut ch = channel(7);
    let means: Vec<Dbm> = links.iter().map(|&(tx, rx)| ch.mean_rssi(tx, rx)).collect();
    group.bench_function("warm_beacon", |b| {
        let mut i = 0;
        b.iter(|| {
            let mean = means[i % means.len()];
            i += 1;
            black_box(ch.sample_with_mean(black_box(mean), 0))
        })
    });
    group.finish();
}

/// Mean ns per call of `f` over a fixed wall-clock budget.
fn time_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    let budget = std::time::Duration::from_millis(250);
    let start = Instant::now();
    let mut calls: u64 = 0;
    while start.elapsed() < budget / 5 {
        black_box(f());
        calls += 1;
    }
    let batch = calls.max(1);
    let start = Instant::now();
    let mut done: u64 = 0;
    while start.elapsed() < budget {
        for _ in 0..batch {
            black_box(f());
        }
        done += batch;
    }
    start.elapsed().as_secs_f64() * 1e9 / done as f64
}

/// Mean ns per call of `f` over `reps` timed repetitions (for calls far
/// too slow for the wall-clock-budget loop).
fn time_ns_reps<O>(reps: u32, mut f: impl FnMut() -> O) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / reps as f64
}

fn trial_config(cached: bool, seed: u64) -> TestbedConfig {
    let mut config = TestbedConfig::paper(env2(), seed);
    config.link_budget_cache = cached;
    config
}

fn trial_bits(trial: &TrialData) -> Vec<u64> {
    let mut bits: Vec<u64> = trial.map.planes().iter().map(|v| v.to_bits()).collect();
    for tag in &trial.tags {
        bits.extend(tag.reading.rssi().iter().map(|v| v.to_bits()));
    }
    bits
}

#[derive(Serialize)]
struct Summary {
    group: String,
    fixture: String,
    cold_beacon_ns: f64,
    warm_beacon_ns: f64,
    /// Per-beacon saving of a cache hit: cold / warm.
    speedup: f64,
    collect_trial_cached_ns: f64,
    collect_trial_uncached_ns: f64,
    /// End-to-end trial-collection saving: uncached / cached.
    collect_trial_speedup: f64,
}

/// Times the beacon paths and the end-to-end trial collection, and emits
/// `target/channel_cache.json`. Only runs under `cargo bench` (`--bench`
/// flag), mirroring the other bench summaries.
fn emit_json_summary(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let positions = Deployment::tracking_tags_fig2a();

    // Bit-identity sanity check rides along with the timing run: the
    // cached and uncached testbeds must produce the same calibration map
    // and smoothed readings bit-for-bit (also pinned, across all preset
    // environments, by `vire-sim/tests/channel_cache.rs`).
    let cached_trial = collect_trial_with(trial_config(true, 42), &positions);
    let uncached_trial = collect_trial_with(trial_config(false, 42), &positions);
    assert_eq!(
        trial_bits(&cached_trial),
        trial_bits(&uncached_trial),
        "cached testbed must be bit-identical to uncached"
    );

    let links = links();
    let mut ch = channel(7);
    let mut i = 0;
    let cold_beacon_ns = time_ns(|| {
        let (tx, rx) = links[i % links.len()];
        i += 1;
        ch.measure(tx, rx, 0)
    });
    let mut ch = channel(7);
    let means: Vec<Dbm> = links.iter().map(|&(tx, rx)| ch.mean_rssi(tx, rx)).collect();
    let mut i = 0;
    let warm_beacon_ns = time_ns(|| {
        let mean = means[i % means.len()];
        i += 1;
        ch.sample_with_mean(mean, 0)
    });

    const REPS: u32 = 5;
    let mut seed = 0;
    let collect_trial_cached_ns = time_ns_reps(REPS, || {
        seed += 1;
        collect_trial_with(trial_config(true, seed), &positions)
    });
    let mut seed = 0;
    let collect_trial_uncached_ns = time_ns_reps(REPS, || {
        seed += 1;
        collect_trial_with(trial_config(false, seed), &positions)
    });

    let summary = Summary {
        group: "channel_cache".into(),
        fixture: "env2, paper deployment + Fig. 2(a) tags".into(),
        cold_beacon_ns,
        warm_beacon_ns,
        speedup: cold_beacon_ns / warm_beacon_ns,
        collect_trial_cached_ns,
        collect_trial_uncached_ns,
        collect_trial_speedup: collect_trial_uncached_ns / collect_trial_cached_ns,
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    let path = format!("{out}/channel_cache.json");
    std::fs::create_dir_all(out).expect("target dir");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&path, body + "\n").expect("write summary");
    println!("channel_cache summary -> {path}");
    println!(
        "  beacon: cold {:>7.1} ns  warm {:>7.1} ns  speedup {:>5.1}x",
        summary.cold_beacon_ns, summary.warm_beacon_ns, summary.speedup,
    );
    println!(
        "  collect_trial: cached {:>11.0} ns  uncached {:>11.0} ns  speedup {:>5.2}x",
        summary.collect_trial_cached_ns,
        summary.collect_trial_uncached_ns,
        summary.collect_trial_speedup,
    );
}

criterion_group!(benches, bench_channel_cache, emit_json_summary);
criterion_main!(benches);
