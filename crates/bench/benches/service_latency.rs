//! Serving latency under beacon-burst load, and the overload-accuracy win
//! of coalescing back-pressure over naive oldest-drop.
//!
//! Drives a captured paper-testbed trace through the
//! [`vire_sim::IngestServer`] at three offered rates (1 k, 10 k and
//! 100 k events/s against a 10 Hz snapshot cadence) and records the
//! p50/p99/p999 latency of:
//!
//! * **per-snapshot** — `accept` + `drive`: ring publication (with
//!   growth/coalescing), smoothing, calibration patching, localization,
//! * **per-query** — [`vire_sim::IngestServer::query`] between drives,
//!   which must stay O(1) and oblivious to the offered rate.
//!
//! A second workload pits two back-pressure policies against each other
//! on an overloaded tag-major burst schedule: `coalesce_vs_drop` (gated
//! ≥ 1.0 by `scripts/check.sh`) is the mean localization error of the
//! drop arm over the coalescing arm. The coalescing arm is the ring at its
//! ceiling, which keeps every tag's newest reading; the drop arm models a
//! ring that drops the oldest events instead by offering it only each
//! burst's newest ceiling's worth, which loses whole tags per burst. The
//! ratio measures accuracy bought purely by loss *policy* at equal
//! memory.
//!
//! In bench mode (`cargo bench -p vire-bench --bench service_latency`)
//! writes `target/service_latency.json` for `scripts/collect_bench.sh`;
//! `scripts/check.sh` additionally fails if `p999_per_query_us` exceeds
//! the recorded `p999_per_query_us_bound`.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use vire_bench::percentile;
use vire_core::{
    BeaconEvent, IngestConfig, InterpolationKernel, LocationQuery, QueryResponse, ServiceConfig,
    TagKey, Vire, VireConfig,
};
use vire_geom::Point2;
use vire_sim::{IngestServer, ServeConfig, SmoothingKind, Testbed, TestbedConfig, Trace};

/// Tracking-tag truth positions (non-boundary spots of the paper room).
const SPOTS: [(f64, f64); 5] = [(0.8, 0.7), (1.3, 1.9), (2.1, 1.1), (1.7, 2.4), (2.3, 2.2)];

/// Snapshot cadence all rates are offered against, seconds.
const SNAPSHOT_DT: f64 = 0.1;

/// Ceiling for the per-query p999, µs. Queries are a track-table lookup
/// plus a closed-form Kalman predict; even p999 scheduler noise sits two
/// orders of magnitude below this. A query path that started scanning or
/// draining ingest state would blow straight through it.
const P999_PER_QUERY_US_BOUND: f64 = 250.0;

fn vire() -> Vire {
    Vire::new(VireConfig {
        kernel: InterpolationKernel::Linear,
        ..VireConfig::default()
    })
}

/// Captures a 100 s trace of the paper testbed with five static tracking
/// tags — the reading pool every workload below replays.
fn capture() -> Trace {
    let mut cfg = TestbedConfig::paper(vire_env::presets::env2(), 23);
    cfg.keep_log = true;
    let mut tb = Testbed::new(cfg);
    for &(x, y) in &SPOTS {
        tb.add_tracking_tag(Point2::new(x, y));
    }
    tb.run_for(100.0);
    tb.export_trace("service latency capture")
}

#[derive(Serialize)]
struct RateSummary {
    events_per_sec: usize,
    burst: usize,
    snapshots: usize,
    p50_per_snapshot_us: f64,
    p99_per_snapshot_us: f64,
    p999_per_snapshot_us: f64,
    p50_per_query_us: f64,
    p99_per_query_us: f64,
    p999_per_query_us: f64,
    query_samples: usize,
    delivered: u64,
    coalesced: u64,
    lagged: u64,
    grown: u64,
}

/// Replays the capture's readings as a steady offered load of
/// `events_per_sec`, timing every snapshot drive and every between-drive
/// query. The reading pool cycles with timestamps rewritten to the
/// snapshot clock, so the stream stays time-ordered at any rate.
fn run_rate(trace: &Trace, events_per_sec: usize, snapshots: usize) -> RateSummary {
    let mut server = IngestServer::from_trace(trace, vire(), ServeConfig::default())
        .expect("capture infers its deployment");
    let burst = (events_per_sec as f64 * SNAPSHOT_DT) as usize;
    let tracking: Vec<TagKey> = (0..SPOTS.len())
        .map(|k| TagKey::new((trace.reference_tags.len() + k) as u32, 0))
        .collect();

    let mut pool = trace.readings.iter().cycle();
    let mut snapshot_us = Vec::with_capacity(snapshots);
    let mut query_us = Vec::with_capacity(snapshots * tracking.len());
    for s in 0..snapshots {
        let now = (s + 1) as f64 * SNAPSHOT_DT;
        let events: Vec<BeaconEvent> = pool
            .by_ref()
            .take(burst)
            .map(|r| BeaconEvent {
                time: now,
                tag: TagKey::new(r.tag, r.generation),
                reader: r.reader,
                rssi: r.rssi,
            })
            .collect();
        let t0 = Instant::now();
        server.accept(events);
        let report = server.drive();
        snapshot_us.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(report.results.len());

        for &tag in &tracking {
            let t0 = Instant::now();
            let resp = server.query(LocationQuery { tag, at: now });
            query_us.push(t0.elapsed().as_secs_f64() * 1e6);
            black_box(&resp);
        }
    }

    let stats = server.ingest_stats();
    assert_eq!(
        stats.accepted,
        stats.delivered + stats.lagged + stats.coalesced_in_ring,
        "ingest accounting must balance at {events_per_sec} ev/s"
    );

    snapshot_us.sort_by(f64::total_cmp);
    query_us.sort_by(f64::total_cmp);
    RateSummary {
        events_per_sec,
        burst,
        snapshots,
        p50_per_snapshot_us: percentile(&snapshot_us, 50.0),
        p99_per_snapshot_us: percentile(&snapshot_us, 99.0),
        p999_per_snapshot_us: percentile(&snapshot_us, 99.9),
        p50_per_query_us: percentile(&query_us, 50.0),
        p99_per_query_us: percentile(&query_us, 99.0),
        p999_per_query_us: percentile(&query_us, 99.9),
        query_samples: query_us.len(),
        delivered: stats.delivered,
        coalesced: stats.coalesced_in_ring + stats.coalesced_in_batch,
        lagged: stats.lagged,
        grown: server.grown(),
    }
}

/// Ring ceiling of the overload comparison, events.
const OVERLOAD_CEILING: usize = 128;

/// Mean localization error of one back-pressure arm over an overloaded
/// tag-major burst schedule (chunks far larger than the ring ceiling,
/// readings sorted tag-first so oldest-drop starves whole tags). The drop
/// arm (`coalesce` false) accepts only the newest [`OVERLOAD_CEILING`]
/// events of each burst: exactly what a ring dropping the oldest event at
/// that ceiling delivers. A tag the service cannot answer scores as a
/// blind guess at the room center — the estimate a consumer would fall
/// back to.
fn overload_error(trace: &Trace, coalesce: bool) -> f64 {
    let mut server = IngestServer::from_trace(
        trace,
        vire(),
        ServeConfig {
            ingest: IngestConfig {
                initial_capacity: 16,
                max_capacity: OVERLOAD_CEILING,
            },
            service: ServiceConfig::default(),
            // Raw smoothing: the policy comparison measures loss, not
            // filter warm-up.
            smoothing: SmoothingKind::Raw,
        },
    )
    .expect("capture infers its deployment");

    let first_tracking = trace.reference_tags.len() as u32;
    let truths: Vec<(TagKey, Point2)> = SPOTS
        .iter()
        .enumerate()
        .map(|(k, &(x, y))| (TagKey::new(first_tracking + k as u32, 0), Point2::new(x, y)))
        .collect();
    let center = {
        let readers = trace.reader_positions();
        let n = readers.len() as f64;
        Point2::new(
            readers.iter().map(|p| p.x).sum::<f64>() / n,
            readers.iter().map(|p| p.y).sum::<f64>() / n,
        )
    };

    let mut total = 0.0;
    let mut samples = 0usize;
    for chunk in trace.readings.chunks(440) {
        let mut burst = chunk.to_vec();
        burst.sort_by_key(|r| r.tag); // stable: time order kept per tag
        let now = chunk.last().unwrap().time;
        let offered = if coalesce {
            &burst[..]
        } else {
            &burst[burst.len().saturating_sub(OVERLOAD_CEILING)..]
        };
        server.accept(offered.iter().map(|r| BeaconEvent {
            time: r.time,
            tag: TagKey::new(r.tag, r.generation),
            reader: r.reader,
            rssi: r.rssi,
        }));
        server.drive();
        for &(tag, truth) in &truths {
            let estimate = match server.query(LocationQuery { tag, at: now }) {
                QueryResponse::Fresh { position, .. } | QueryResponse::Stale { position, .. } => {
                    position
                }
                QueryResponse::Unknown => center,
            };
            total += estimate.distance(truth);
            samples += 1;
        }
    }
    total / samples as f64
}

fn bench_service_latency(c: &mut Criterion) {
    let trace = capture();
    let mut group = c.benchmark_group("service_latency");
    group.sample_size(10);
    group.bench_function("drive_10k_events_per_sec_snapshot", |b| {
        b.iter(|| black_box(run_rate(black_box(&trace), 10_000, 20)))
    });
    group.finish();
}

#[derive(Serialize)]
struct Summary {
    group: String,
    fixture: String,
    rates: Vec<RateSummary>,
    p999_per_query_us: f64,
    p999_per_query_us_bound: f64,
    coalesce_vs_drop: f64,
    err_coalesce_m: f64,
    err_drop_m: f64,
    wall_seconds: f64,
}

/// Runs the full latency sweep and the policy comparison once, then
/// emits the JSON summary. Only runs under `cargo bench` (`--bench`
/// flag), mirroring the other bench summaries.
fn emit_json_summary(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let start = Instant::now();
    let trace = capture();

    let rates: Vec<RateSummary> = [1_000usize, 10_000, 100_000]
        .iter()
        .map(|&rate| run_rate(&trace, rate, 200))
        .collect();
    for r in &rates {
        assert!(
            r.query_samples >= 1000,
            "need ≥ 1000 query samples per rate, got {}",
            r.query_samples
        );
    }
    let p999_per_query_us = rates
        .iter()
        .map(|r| r.p999_per_query_us)
        .fold(0.0f64, f64::max);

    let err_coalesce_m = overload_error(&trace, true);
    let err_drop_m = overload_error(&trace, false);
    let coalesce_vs_drop = err_drop_m / err_coalesce_m;

    let summary = Summary {
        group: "service_latency".into(),
        fixture: format!(
            "paper testbed (env2, seed 23), {} readings over 100 s, {} tracking tags, \
             {} Hz snapshots",
            trace.readings.len(),
            SPOTS.len(),
            (1.0 / SNAPSHOT_DT) as u32
        ),
        rates,
        p999_per_query_us,
        p999_per_query_us_bound: P999_PER_QUERY_US_BOUND,
        coalesce_vs_drop,
        err_coalesce_m,
        err_drop_m,
        wall_seconds: start.elapsed().as_secs_f64(),
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    let path = format!("{out}/service_latency.json");
    std::fs::create_dir_all(out).expect("target dir");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&path, body + "\n").expect("write summary");
    println!("service_latency summary -> {path}");
    for r in &summary.rates {
        println!(
            "  {:>6} ev/s: snapshot p50 {:.0} µs / p99 {:.0} µs / p999 {:.0} µs, \
             query p50 {:.2} µs / p999 {:.2} µs, coalesced {}, lagged {}",
            r.events_per_sec,
            r.p50_per_snapshot_us,
            r.p99_per_snapshot_us,
            r.p999_per_snapshot_us,
            r.p50_per_query_us,
            r.p999_per_query_us,
            r.coalesced,
            r.lagged
        );
    }
    println!(
        "  coalesce_vs_drop {:.2}x (err {:.3} m vs {:.3} m)",
        summary.coalesce_vs_drop, summary.err_coalesce_m, summary.err_drop_m
    );
}

criterion_group!(benches, bench_service_latency, emit_json_summary);
criterion_main!(benches);
