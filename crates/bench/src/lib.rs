//! # vire-bench
//!
//! Shared fixtures for the Criterion benchmark harness in `benches/`:
//!
//! * paper reproduction — `figures` (every figure's wall-clock cost, with
//!   the rendered tables printed once) and `ablations` (design-choice
//!   variants);
//! * the localization core — `algorithms` (per-call cost of each
//!   localizer and VIRE stage), `prepared` (prepared vs per-reading
//!   rebuild), `incremental_prepare` (dirty-cell sync vs fresh prepare)
//!   and `kernels` (scalar vs vector data-plane sweeps);
//! * the simulation substrate — `substrate`, `channel_cache` and
//!   `trial_cache`;
//! * serving — `pipeline`, `service_latency`, `shard_scaling`,
//!   `tag_churn` and `net_throughput`.
//!
//! Under `cargo bench` most of them also write a JSON summary to
//! `target/`, which `scripts/collect_bench.sh` copies to the committed
//! `BENCH_*.json` files.

#![warn(missing_docs)]

use vire_core::{ReferenceRssiMap, TrackingReading};
use vire_env::presets::env2;
use vire_env::Deployment;
use vire_exp::runner::collect_trial;
use vire_geom::Point2;

/// A deterministic mid-hostility trial fixture shared by the algorithm
/// benches: Env2, seed 42, the nine Fig. 2(a) tracking tags.
pub fn fixture() -> (ReferenceRssiMap, Vec<(Point2, TrackingReading)>) {
    let positions = Deployment::tracking_tags_fig2a();
    let trial = collect_trial(&env2(), &positions, 42);
    let tags = trial
        .tags
        .iter()
        .map(|t| (t.truth, t.reading.clone()))
        .collect();
    (trial.map, tags)
}

/// Seeds used by the figure benches — fewer than the 10-seed default so a
/// full `cargo bench` stays tractable; the rendered tables note the count.
pub fn bench_seeds() -> Vec<u64> {
    vec![1, 2, 3]
}

/// The `q`-th percentile (0–100) of ascending-sorted samples, by the
/// nearest-rank method.
///
/// # Panics
/// Panics when `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
