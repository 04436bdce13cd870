//! Loopback throughput and latency of the TCP serving fabric.
//!
//! Stands up a real [`vire_net::NetServer`] on `127.0.0.1` and measures
//! what the wire adds to PR 9's in-process serving numbers:
//!
//! * **sustained ingest** — gateway threads (1, 4 and 8 connections,
//!   one zone shard each) stream beacon batches with per-batch acks;
//!   recorded as end-to-end events/s including framing, decode,
//!   connection-level coalescing, shard routing, and the zone drives.
//! * **query RTT** — p50/p99/p999 of a synchronous `QUERY`→`LOCATION`
//!   round trip on an idle stream (`TCP_NODELAY` on both ends), gated
//!   by `scripts/check.sh` against the recorded
//!   `p999_rtt_us_bound`.
//! * **binary vs JSON framing** — the same event stream sent once
//!   packed and once as trace-schema JSON; `binary_vs_json_speedup`
//!   (gated ≥ 1.0) is the JSON wall over the binary wall.
//!
//! In bench mode (`cargo bench -p vire-bench --bench net_throughput`)
//! writes `target/net_throughput.json` for `scripts/collect_bench.sh`;
//! check.sh additionally asserts `lagged_at_top_rate == 0` — the
//! fabric's loss accounting must show zero hard drops at the top
//! loopback rate.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use vire_bench::percentile;
use vire_core::{BeaconEvent, InterpolationKernel, LocationQuery, TagKey, Vire, VireConfig};
use vire_geom::Point2;
use vire_net::{Encoding, GatewayClient, NetConfig, NetServer, ReaderRoute};
use vire_sim::trace::TraceReading;
use vire_sim::{Testbed, TestbedConfig, Trace};

/// Tracking-tag truth positions per zone (non-boundary paper-room spots).
const SPOTS: [(f64, f64); 5] = [(0.8, 0.7), (1.3, 1.9), (2.1, 1.1), (1.7, 2.4), (2.3, 2.2)];

/// Gateway batch cadence, seconds — each batch round advances the
/// stream clock by this much.
const BATCH_DT: f64 = 0.05;

/// Events per batch frame in the throughput sweep.
const BATCH: usize = 512;

/// Batch rounds each gateway streams per throughput configuration.
const ROUNDS: usize = 40;

/// Ceiling for the query RTT p999, µs. A loopback round trip with
/// `TCP_NODELAY` is two small writes, two reads, and an O(1) track
/// lookup under a zone read lock; the headroom absorbs scheduler noise
/// on a loaded box. A query path that waited out a Nagle timer (40 ms)
/// or a zone drive would blow straight through it.
const P999_RTT_US_BOUND: f64 = 250.0;

fn vire() -> Vire {
    Vire::new(VireConfig {
        kernel: InterpolationKernel::Linear,
        ..VireConfig::default()
    })
}

/// Captures one zone's 60 s paper-testbed trace with five tracking tags.
fn capture_zone(seed: u64) -> Trace {
    let mut cfg = TestbedConfig::paper(vire_env::presets::env2(), seed);
    cfg.keep_log = true;
    let mut tb = Testbed::new(cfg);
    for &(x, y) in &SPOTS {
        tb.add_tracking_tag(Point2::new(x, y));
    }
    tb.run_for(60.0);
    tb.export_trace(format!("net throughput zone capture, seed {seed}"))
}

/// Pre-builds gateway `round`'s batch: the zone pool cycled, timestamps
/// rewritten to the stream clock, reader ids lifted into the campus
/// frame by the zone's global base.
fn build_batch(pool: &[TraceReading], round: usize, base: u32) -> Vec<BeaconEvent> {
    let now = (round + 1) as f64 * BATCH_DT;
    (0..BATCH)
        .map(|i| {
            let r = &pool[(round * BATCH + i) % pool.len()];
            BeaconEvent {
                time: now,
                tag: TagKey::new(r.tag, r.generation),
                reader: base + r.reader,
                rssi: r.rssi,
            }
        })
        .collect()
}

#[derive(Serialize)]
struct GatewaySummary {
    connections: usize,
    zones: usize,
    rounds: usize,
    batch: usize,
    events: u64,
    wall_seconds: f64,
    events_per_sec: f64,
    delivered: u64,
    coalesced: u64,
    lagged: u64,
}

/// Streams `gateways` concurrent connections (one zone each) and
/// returns the sustained end-to-end rate plus the fabric's final
/// accounting.
fn run_gateways(traces: &[Trace], gateways: usize) -> GatewaySummary {
    let zones = &traces[..gateways];
    let server = NetServer::from_traces("127.0.0.1:0", zones, |_| vire(), NetConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let route =
        ReaderRoute::from_zone_sizes(&zones.iter().map(|t| t.readers.len()).collect::<Vec<_>>());

    let barrier = Arc::new(Barrier::new(gateways + 1));
    let mut handles = Vec::with_capacity(gateways);
    for (g, zone_trace) in zones.iter().enumerate() {
        let pool = zone_trace.readings.clone();
        let base = route.zone_base(g);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = GatewayClient::connect(addr, Encoding::Binary).expect("connect");
            let batches: Vec<Vec<BeaconEvent>> = (0..ROUNDS)
                .map(|round| build_batch(&pool, round, base))
                .collect();
            barrier.wait();
            for batch in &batches {
                let ack = client.send_batch_ack(batch).expect("batch acked");
                assert_eq!(ack.lagged, 0, "loopback batches must never hard-drop");
            }
            client.bye().expect("clean close");
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("gateway thread");
    }
    let wall = t0.elapsed().as_secs_f64();

    let stats = server.shutdown();
    assert!(stats.balanced(), "fabric accounting must balance: {stats}");
    let events = (gateways * ROUNDS * BATCH) as u64;
    assert_eq!(stats.accepted, events);
    GatewaySummary {
        connections: gateways,
        zones: gateways,
        rounds: ROUNDS,
        batch: BATCH,
        events,
        wall_seconds: wall,
        events_per_sec: events as f64 / wall,
        delivered: stats.delivered,
        coalesced: stats.coalesced,
        lagged: stats.lagged,
    }
}

#[derive(Serialize)]
struct RttSummary {
    samples: usize,
    warmup_batches: usize,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

/// Measures the `QUERY`→`LOCATION` round trip on an idle stream: warm
/// the zone with real batches (all acked), then time synchronous
/// queries back to back.
fn run_query_rtt(trace: &Trace, samples: usize) -> RttSummary {
    let server = NetServer::from_traces(
        "127.0.0.1:0",
        std::slice::from_ref(trace),
        |_| vire(),
        NetConfig::default(),
    )
    .expect("bind loopback");
    let mut client =
        GatewayClient::connect(server.local_addr(), Encoding::Binary).expect("connect");

    let warmup = 20usize;
    for round in 0..warmup {
        let batch = build_batch(&trace.readings, round, 0);
        client.send_batch_ack(&batch).expect("warmup batch");
    }
    let tracking: Vec<TagKey> = (0..SPOTS.len())
        .map(|k| TagKey::new((trace.reference_tags.len() + k) as u32, 0))
        .collect();
    let at = warmup as f64 * BATCH_DT;

    let mut rtt_us = Vec::with_capacity(samples);
    for i in 0..samples {
        let tag = tracking[i % tracking.len()];
        let t0 = Instant::now();
        let resp = client.query(0, LocationQuery { tag, at }).expect("query");
        rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(&resp);
    }
    client.bye().expect("clean close");
    server.shutdown();

    rtt_us.sort_by(f64::total_cmp);
    RttSummary {
        samples,
        warmup_batches: warmup,
        p50_us: percentile(&rtt_us, 50.0),
        p99_us: percentile(&rtt_us, 99.0),
        p999_us: percentile(&rtt_us, 99.9),
    }
}

/// Streams the same rewritten event stream once packed-binary and once
/// as trace-schema JSON (payloads pre-serialized, so the comparison is
/// wire framing + server decode, not client-side serialization).
/// Returns `(binary_wall, json_wall)`.
fn run_encoding_race(trace: &Trace, rounds: usize) -> (f64, f64) {
    let batches: Vec<Vec<BeaconEvent>> = (0..rounds)
        .map(|round| build_batch(&trace.readings, round, 0))
        .collect();
    let payloads: Vec<String> = batches
        .iter()
        .map(|batch| {
            let readings: Vec<TraceReading> = batch
                .iter()
                .map(|e| TraceReading {
                    time: e.time,
                    tag: e.tag.index,
                    reader: e.reader,
                    rssi: e.rssi,
                    generation: e.tag.generation,
                })
                .collect();
            serde_json::to_string(&readings).expect("readings serialize")
        })
        .collect();

    let mut walls = [0.0f64; 2];
    for (arm, wall) in walls.iter_mut().enumerate() {
        let server = NetServer::from_traces(
            "127.0.0.1:0",
            std::slice::from_ref(trace),
            |_| vire(),
            NetConfig::default(),
        )
        .expect("bind loopback");
        let encoding = if arm == 0 {
            Encoding::Binary
        } else {
            Encoding::Json
        };
        let mut client = GatewayClient::connect(server.local_addr(), encoding).expect("connect");
        let t0 = Instant::now();
        match encoding {
            Encoding::Binary => {
                for batch in &batches {
                    client.send_batch_ack(batch).expect("binary batch");
                }
            }
            Encoding::Json => {
                for payload in &payloads {
                    client.send_batch_json_ack(payload).expect("json batch");
                }
            }
        }
        *wall = t0.elapsed().as_secs_f64();
        client.bye().expect("clean close");
        server.shutdown();
    }
    (walls[0], walls[1])
}

fn bench_net_throughput(c: &mut Criterion) {
    let trace = capture_zone(31);
    let mut group = c.benchmark_group("net_throughput");
    group.sample_size(10);
    group.bench_function("single_gateway_stream_512x40_loopback", |b| {
        b.iter(|| black_box(run_gateways(std::slice::from_ref(&trace), 1)))
    });
    group.finish();
}

#[derive(Serialize)]
struct Summary {
    group: String,
    fixture: String,
    gateways: Vec<GatewaySummary>,
    top_rate_events_per_sec: f64,
    lagged_at_top_rate: u64,
    query_rtt: RttSummary,
    p999_rtt_us: f64,
    p999_rtt_us_bound: f64,
    binary_wall_seconds: f64,
    json_wall_seconds: f64,
    binary_vs_json_speedup: f64,
    wall_seconds: f64,
}

/// Runs the full loopback sweep once and emits the JSON summary. Only
/// runs under `cargo bench` (`--bench` flag), mirroring the other
/// bench summaries.
fn emit_json_summary(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let start = Instant::now();
    let traces: Vec<Trace> = (0..8).map(|k| capture_zone(31 + k)).collect();

    let gateways: Vec<GatewaySummary> = [1usize, 4, 8]
        .iter()
        .map(|&g| run_gateways(&traces, g))
        .collect();
    let top = gateways
        .iter()
        .max_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec))
        .expect("non-empty sweep");
    let top_rate_events_per_sec = top.events_per_sec;
    let lagged_at_top_rate = top.lagged;

    let query_rtt = run_query_rtt(&traces[0], 3000);
    let (binary_wall_seconds, json_wall_seconds) = run_encoding_race(&traces[0], 60);
    let binary_vs_json_speedup = json_wall_seconds / binary_wall_seconds;

    let summary = Summary {
        group: "net_throughput".into(),
        fixture: format!(
            "paper testbed zones (env2, seeds 31..39), {} readings per 60 s zone capture, \
             {}-event batches over loopback TCP",
            traces[0].readings.len(),
            BATCH
        ),
        gateways,
        top_rate_events_per_sec,
        lagged_at_top_rate,
        p999_rtt_us: query_rtt.p999_us,
        p999_rtt_us_bound: P999_RTT_US_BOUND,
        query_rtt,
        binary_wall_seconds,
        json_wall_seconds,
        binary_vs_json_speedup,
        wall_seconds: start.elapsed().as_secs_f64(),
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    let path = format!("{out}/net_throughput.json");
    std::fs::create_dir_all(out).expect("target dir");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&path, body + "\n").expect("write summary");
    println!("net_throughput summary -> {path}");
    for g in &summary.gateways {
        println!(
            "  {} gateway(s): {:.0} ev/s end-to-end ({} events in {:.2} s), \
             coalesced {}, lagged {}",
            g.connections, g.events_per_sec, g.events, g.wall_seconds, g.coalesced, g.lagged
        );
    }
    println!(
        "  query RTT: p50 {:.1} µs / p99 {:.1} µs / p999 {:.1} µs (bound {:.0} µs)",
        summary.query_rtt.p50_us,
        summary.query_rtt.p99_us,
        summary.query_rtt.p999_us,
        P999_RTT_US_BOUND
    );
    println!(
        "  binary vs JSON framing: {:.2}x ({:.2} s vs {:.2} s)",
        summary.binary_vs_json_speedup, summary.binary_wall_seconds, summary.json_wall_seconds
    );
}

criterion_group!(benches, bench_net_throughput, emit_json_summary);
criterion_main!(benches);
