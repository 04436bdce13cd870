//! Content-addressed trial cache: cross-figure dedup and warm-corpus
//! speedups.
//!
//! Five consumers in the experiment suite — fig7, fig8 and the
//! kernel/weighting/LANDMARC-k ablations — sweep localizer variants over
//! the *same* `(Env3, 5 non-boundary tags, seeds)` fixture. Before the
//! cache each collected its own trials; now the first requester simulates
//! and the rest hit. This bench times the trial-collection cost of that
//! bundle both ways, plus a cold-vs-warm corpus start, and writes a
//! machine-readable summary to `target/trial_cache.json` in bench mode.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use vire_env::presets::env3;
use vire_env::Deployment;
use vire_exp::runner::collect_trial_with;
use vire_exp::{TrialCache, TrialData};
use vire_geom::Point2;
use vire_sim::TestbedConfig;

/// The shared Env3 fixture: the 5 non-boundary Fig. 2(a) tags.
fn positions() -> Vec<Point2> {
    Deployment::tracking_tags_fig2a()[..5].to_vec()
}

const SEEDS: [u64; 2] = [1, 2];

/// How many figure-level consumers request the fixture in one
/// `vire-repro all` run: fig7, fig8, and the kernel, weighting and
/// LANDMARC-k ablations.
const CONSUMERS: usize = 5;

fn bench_trial_cache(c: &mut Criterion) {
    let positions = positions();
    let config = TestbedConfig::paper(env3(), SEEDS[0]);
    let mut group = c.benchmark_group("trial_cache");

    let warm = TrialCache::new();
    warm.get_or_collect(&config, &positions);
    group.bench_function("hit", |b| {
        b.iter(|| black_box(warm.get_or_collect(black_box(&config), black_box(&positions))))
    });

    group.bench_function("fingerprint", |b| {
        b.iter(|| {
            black_box(vire_exp::fixture_key(
                black_box(&config),
                black_box(&positions),
            ))
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
    consumers: usize,
    seeds: usize,
    bundle_uncached_ns: f64,
    bundle_cached_ns: f64,
    /// Trial-collection saving of the fig7+fig8+ablations bundle:
    /// uncached / cached. Floor in CI: 3.0.
    dedup_speedup: f64,
    cold_corpus_ns: f64,
    warm_corpus_ns: f64,
    /// Corpus saving on a warm start: cold (simulate + persist) / warm
    /// (load). Floor in CI: 1.0.
    warm_corpus_speedup: f64,
    cache_hit_ns: f64,
    fingerprint_ns: f64,
}

/// Times the dedup bundle and the corpus paths, and emits
/// `target/trial_cache.json`. Only runs under `cargo bench` (`--bench`
/// flag), mirroring the other bench summaries.
fn emit_json_summary(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let positions = positions();
    let configs: Vec<TestbedConfig> = SEEDS
        .iter()
        .map(|&s| TestbedConfig::paper(env3(), s))
        .collect();

    // Bit-identity sanity check rides along with the timing run: a cached
    // trial must match a fresh simulation bit-for-bit (also pinned, with
    // proptest coverage, by `vire-exp/tests/trial_cache.rs`).
    {
        let cache = TrialCache::new();
        let cached = cache.get_or_collect(&configs[0], &positions);
        let fresh = collect_trial_with(configs[0].clone(), &positions);
        assert_eq!(
            trial_bits(&cached),
            trial_bits(&fresh),
            "cached trial must be bit-identical to a fresh simulation"
        );
    }

    const REPS: u32 = 3;
    // Pre-cache: every figure collects its own trials, CONSUMERS times
    // over the seed set.
    let bundle_uncached_ns = time_ns_reps(REPS, || {
        for _ in 0..CONSUMERS {
            for config in &configs {
                black_box(collect_trial_with(config.clone(), &positions));
            }
        }
    });
    // Post-cache: one simulation per seed, the rest of the bundle hits.
    let bundle_cached_ns = time_ns_reps(REPS, || {
        let cache = TrialCache::new();
        for _ in 0..CONSUMERS {
            for config in &configs {
                black_box(cache.get_or_collect(config, &positions));
            }
        }
    });

    // Corpus: cold start simulates and persists; warm start loads.
    let corpus = vire_exp::cache::test_support::scratch_dir("bench");
    let cold_corpus_ns = time_ns_reps(REPS, || {
        for f in std::fs::read_dir(&corpus).expect("corpus dir") {
            std::fs::remove_file(f.expect("entry").path()).expect("reset corpus");
        }
        let cache = TrialCache::with_corpus(&corpus).expect("corpus");
        for config in &configs {
            black_box(cache.get_or_collect(config, &positions));
        }
    });
    let warm_corpus_ns = time_ns_reps(REPS, || {
        let cache = TrialCache::with_corpus(&corpus).expect("corpus");
        for config in &configs {
            black_box(cache.get_or_collect(config, &positions));
        }
        assert_eq!(cache.stats().simulated, 0, "warm start must not simulate");
    });
    std::fs::remove_dir_all(&corpus).ok();

    let warm = TrialCache::new();
    warm.get_or_collect(&configs[0], &positions);
    let cache_hit_ns = time_ns(|| warm.get_or_collect(&configs[0], &positions));
    let fingerprint_ns = time_ns(|| vire_exp::fixture_key(&configs[0], &positions));

    let summary = Summary {
        group: "trial_cache".into(),
        fixture: "env3, 5 non-boundary Fig. 2(a) tags, 2 seeds".into(),
        consumers: CONSUMERS,
        seeds: SEEDS.len(),
        bundle_uncached_ns,
        bundle_cached_ns,
        dedup_speedup: bundle_uncached_ns / bundle_cached_ns,
        cold_corpus_ns,
        warm_corpus_ns,
        warm_corpus_speedup: cold_corpus_ns / warm_corpus_ns,
        cache_hit_ns,
        fingerprint_ns,
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    let path = format!("{out}/trial_cache.json");
    std::fs::create_dir_all(out).expect("target dir");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&path, body + "\n").expect("write summary");
    println!("trial_cache summary -> {path}");
    println!(
        "  bundle ({CONSUMERS} consumers x {} seeds): uncached {:>11.0} ns  cached {:>11.0} ns  dedup speedup {:>5.2}x",
        SEEDS.len(),
        summary.bundle_uncached_ns,
        summary.bundle_cached_ns,
        summary.dedup_speedup,
    );
    println!(
        "  corpus: cold {:>11.0} ns  warm {:>11.0} ns  speedup {:>5.2}x",
        summary.cold_corpus_ns, summary.warm_corpus_ns, summary.warm_corpus_speedup,
    );
    println!(
        "  lookup: hit {:>7.1} ns  (fingerprint {:>7.1} ns)",
        summary.cache_hit_ns, summary.fingerprint_ns,
    );
}

criterion_group!(benches, bench_trial_cache, emit_json_summary);
criterion_main!(benches);
