//! The serving-pipeline acceptance pin: driving a capture through the
//! burst-coalescing [`vire_sim::IngestServer`] — constrained ring, forced
//! growth, forced back-pressure coalescing — produces `f64::to_bits`
//! **identical** localization to replaying only the surviving readings
//! through a plain bus → stage → service pipeline, across all four
//! interpolation kernels. Coalescing may drop superseded beacons; it must
//! never change a number.

use std::collections::HashMap;
use vire_core::{
    BeaconEvent, InterpolationKernel, LocalizeError, LocationQuery, LocationService, QueryResponse,
    ServiceConfig, TagKey, TrackedEstimate, Vire, VireConfig,
};
use vire_geom::Point2;
use vire_sim::trace::TraceReading;
use vire_sim::{
    EventBus, IngestServer, Middleware, MiddlewareStage, ReaderId, Reading, ServeConfig,
    SmoothingKind, TagId, Testbed, TestbedConfig, Trace,
};

type DriveResult = Vec<(TagKey, Result<TrackedEstimate, LocalizeError>)>;

fn vire(kernel: InterpolationKernel) -> Vire {
    Vire::new(VireConfig {
        kernel,
        ..VireConfig::default()
    })
}

/// A 40 s paper-testbed capture with one tracking tag that relocates
/// halfway through, so drives cover both steady tracking and a step.
fn capture() -> Trace {
    let mut cfg = TestbedConfig::paper(vire_env::presets::env2(), 11);
    cfg.keep_log = true;
    let mut tb = Testbed::new(cfg);
    let id = tb.add_tracking_tag(Point2::new(1.2, 1.1));
    tb.run_for(20.0);
    tb.move_tag(id, Point2::new(2.0, 2.3));
    tb.run_for(20.0);
    tb.export_trace("ingest oracle capture")
}

fn to_beacon(r: &TraceReading) -> BeaconEvent {
    BeaconEvent {
        time: r.time,
        tag: TagKey::new(r.tag, r.generation),
        reader: r.reader,
        rssi: r.rssi,
    }
}

/// Independent re-statement of the front end's coalescing contract:
/// newest reading per `(tag lifetime, reader)`, in last-occurrence order.
fn surviving(chunk: &[TraceReading]) -> Vec<TraceReading> {
    let mut latest: HashMap<(u32, u32, u32), usize> = HashMap::new();
    let mut keep: Vec<Option<TraceReading>> = Vec::with_capacity(chunk.len());
    for &r in chunk {
        if let Some(prev) = latest.insert((r.tag, r.generation, r.reader), keep.len()) {
            keep[prev] = None;
        }
        keep.push(Some(r));
    }
    keep.into_iter().flatten().collect()
}

fn bits(results: &DriveResult) -> Vec<(TagKey, Result<Vec<u64>, String>)> {
    results
        .iter()
        .map(|(tag, r)| {
            let payload = match r {
                Ok(e) => Ok(vec![
                    e.position.x.to_bits(),
                    e.position.y.to_bits(),
                    e.velocity.x.to_bits(),
                    e.velocity.y.to_bits(),
                    e.sigma.0.to_bits(),
                    e.sigma.1.to_bits(),
                    e.raw.position.x.to_bits(),
                    e.raw.position.y.to_bits(),
                ]),
                Err(e) => Err(format!("{e:?}")),
            };
            (*tag, payload)
        })
        .collect()
}

#[test]
fn coalesced_ingest_is_bit_identical_to_replaying_survivors() {
    let trace = capture();
    assert!(trace.readings.len() > 1000, "capture too small to stress");
    // Bursts of ~5 beacon rounds: several same-key duplicates per chunk,
    // and far more events than the ring ceiling below.
    let chunks: Vec<&[TraceReading]> = trace.readings.chunks(340).collect();

    for kernel in InterpolationKernel::ALL {
        // Serving arm: tiny ring forced to grow 8 → 128, then coalesce.
        let mut server = IngestServer::from_trace(
            &trace,
            vire(kernel),
            ServeConfig {
                ingest: vire_core::IngestConfig {
                    initial_capacity: 8,
                    max_capacity: 128,
                },
                ..ServeConfig::default()
            },
        )
        .expect("paper testbed trace infers its own deployment");

        // Oracle arm: a plain pipeline with a ring big enough to never
        // coalesce or drop, fed only the surviving readings.
        let (grid, nodes) = trace.infer_deployment().unwrap();
        let mut bus = EventBus::with_capacity(8192);
        let mut stage = MiddlewareStage::new(
            Middleware::new(SmoothingKind::default(), false),
            grid,
            trace.reader_positions(),
            bus.reader(),
        );
        for (slot, idx) in nodes {
            stage.pin_reference(idx, TagId::first(slot));
        }
        let mut oracle = LocationService::new(vire(kernel), ServiceConfig::default());

        for chunk in &chunks {
            let accepted = server.accept(chunk.iter().map(to_beacon));
            assert_eq!(accepted, chunk.len());
            let report = server.drive();
            assert_eq!(report.lagged, 0, "coalescing must prevent hard drops");

            let survivors = surviving(chunk);
            assert_eq!(
                report.delivered,
                survivors.len(),
                "front end must deliver exactly the surviving readings"
            );
            assert_eq!(
                report.coalesced,
                (chunk.len() - survivors.len()) as u64,
                "every superseded reading must be counted"
            );
            for s in survivors {
                bus.publish(s.into());
            }
            stage.pump(&bus);
            let expect = oracle.drive(&mut stage);
            assert_eq!(
                bits(&report.results),
                bits(&expect),
                "kernel {kernel:?}: coalesced drive diverged from survivor replay"
            );
        }

        // The constrained ring really was stressed: it grew to its
        // ceiling and back-pressure coalescing fired.
        assert!(server.grown() >= 4, "ring never grew: {}", server.grown());
        let stats = server.ingest_stats();
        assert!(
            stats.coalesced_in_ring > 0,
            "ring back-pressure never coalesced"
        );
        assert_eq!(stats.lagged, 0);
        assert_eq!(
            stats.accepted,
            stats.delivered + stats.lagged + stats.coalesced_in_ring,
            "ingest accounting must balance"
        );
    }
}

/// Beacons handed straight to the in-process server from a reader id the
/// deployment lacks, or with a non-finite time or RSSI (the wire parsers
/// already reject those), are skipped and not counted: the drive must not
/// panic — a NaN on a tracking tag reaches the smoothing filters, an
/// infinity or an unknown reader on a reference tag reaches the
/// calibration map — the ledger must balance, and the results must match
/// driving the batch without them, to the bit, on every kernel.
#[test]
fn unknown_reader_and_non_finite_events_are_skipped_not_ingested() {
    let trace = capture();
    let tracking = TagKey::new(16, 0); // 16 reference slots, then the tag
    let reference = TagKey::new(3, 0);
    let reader_count = trace.reader_positions().len() as u32;
    for kernel in InterpolationKernel::ALL {
        let server = || {
            IngestServer::from_trace(&trace, vire(kernel), ServeConfig::default())
                .expect("paper testbed trace infers its own deployment")
        };
        let (mut clean, mut poisoned) = (server(), server());
        for chunk in trace.readings.chunks(500) {
            let events: Vec<BeaconEvent> = chunk.iter().map(to_beacon).collect();
            let mut mixed = Vec::new();
            for (n, &e) in events.iter().enumerate() {
                mixed.push(e);
                if n % 40 == 0 {
                    mixed.extend([
                        BeaconEvent {
                            tag: tracking,
                            rssi: f64::NAN,
                            ..e
                        },
                        BeaconEvent {
                            tag: reference,
                            rssi: f64::INFINITY,
                            ..e
                        },
                        BeaconEvent {
                            rssi: f64::NEG_INFINITY,
                            ..e
                        },
                        BeaconEvent {
                            time: f64::NAN,
                            ..e
                        },
                        BeaconEvent {
                            time: f64::INFINITY,
                            tag: reference,
                            ..e
                        },
                    ]);
                    for reader in [reader_count, u32::MAX] {
                        for tag in [reference, tracking] {
                            mixed.push(BeaconEvent { tag, reader, ..e });
                        }
                    }
                }
            }
            assert_eq!(clean.accept(events.iter().copied()), events.len());
            assert_eq!(
                poisoned.accept(mixed),
                events.len(),
                "unknown-reader and non-finite events must not count as accepted"
            );
            let (want, got) = (clean.drive(), poisoned.drive());
            assert_eq!(got.delivered, want.delivered);
            assert_eq!(got.coalesced, want.coalesced);
            assert_eq!(
                bits(&got.results),
                bits(&want.results),
                "kernel {kernel:?}: skipping unknown-reader or non-finite events changed a number"
            );
        }
        let stats = poisoned.ingest_stats();
        assert_eq!(stats, clean.ingest_stats());
        assert_eq!(
            stats.accepted,
            stats.delivered + stats.lagged + stats.coalesced_in_ring,
            "ingest accounting must balance"
        );
        // The JSON path skips unknown readers too.
        let json =
            format!(r#"[{{"time": 1.0, "tag": 3, "reader": {reader_count}, "rssi": -70.0}}]"#);
        assert_eq!(poisoned.accept_json(&json).unwrap(), 0);
        assert_eq!(poisoned.drive().delivered, 0);
    }
}

#[test]
fn server_answers_queries_between_drives() {
    let trace = capture();
    let mut server = IngestServer::from_trace(
        &trace,
        vire(InterpolationKernel::Linear),
        ServeConfig::default(),
    )
    .unwrap();

    let tracking = TagKey::new(16, 0); // 16 reference slots, then the tag
    let mut last_time = 0.0f64;
    for chunk in trace.readings.chunks(500) {
        server.accept(chunk.iter().map(to_beacon));
        let report = server.drive();
        assert!(report.lagged == 0);
        last_time = chunk.last().unwrap().time;
    }
    match server.query(LocationQuery {
        tag: tracking,
        at: last_time,
    }) {
        QueryResponse::Fresh { position, age, .. } => {
            assert!(age <= 0.0 + 1e-9, "query at newest snapshot time");
            assert!(position.x.is_finite() && position.y.is_finite());
        }
        other => panic!("tracked tag must answer Fresh, got {other:?}"),
    }
    assert_eq!(
        server.query(LocationQuery {
            tag: TagKey::new(99, 0),
            at: last_time,
        }),
        QueryResponse::Unknown
    );
}

#[test]
fn server_ingests_trace_json_wholesale() {
    let trace = capture();
    let mut server = IngestServer::from_trace(
        &trace,
        vire(InterpolationKernel::Linear),
        ServeConfig::default(),
    )
    .unwrap();
    let accepted = server.accept_json(&trace.to_json()).unwrap();
    assert_eq!(accepted, trace.readings.len());
    let report = server.drive();
    assert!(report.delivered > 0);
    assert_eq!(
        report.delivered as u64 + report.lagged + report.coalesced,
        accepted as u64
    );
}

/// The sim crate's trace schema constants are the core crate's wire-format
/// constants — they describe the same JSON. If one moved without the
/// other, ingest would accept (or reject) versions the trace format does
/// not.
#[test]
fn wire_versions_track_trace_versions() {
    assert_eq!(
        vire_core::ingest::WIRE_VERSION,
        vire_sim::trace::TRACE_VERSION
    );
    assert_eq!(
        vire_core::ingest::WIRE_MIN_VERSION,
        vire_sim::trace::TRACE_MIN_VERSION
    );
}

/// While the calibration map is incomplete the service drains nothing, so
/// it holds nothing either: a gateway streaming ever-new tags cannot grow
/// it. Reference slot 3 is never sent until the end; meanwhile 2,000
/// drives each bring 10 new tags that every reader heard. The service's
/// whole state (its `Debug` text) stays the size it had after the first
/// drive. Once slot 3 arrives, every tag is localized, exactly once.
#[test]
fn an_incomplete_map_buffers_nothing_in_the_service() {
    const DRIVES: u32 = 2_000;
    const NEW_PER_DRIVE: u32 = 10;
    let trace = capture();
    let (missing, tracking) = (3, 16); // 16 reference slots, then the tag
    let mut server = IngestServer::from_trace(
        &trace,
        vire(InterpolationKernel::Linear),
        ServeConfig::default(),
    )
    .expect("paper testbed trace infers its own deployment");
    let (held_back, sent): (Vec<TraceReading>, Vec<TraceReading>) =
        trace.readings.iter().partition(|r| r.tag == missing);
    server.accept(sent.iter().map(to_beacon));
    assert!(server.drive().results.is_empty(), "the map is incomplete");

    // Every new tag copies the tracking tag's last reading per reader, so
    // it localizes inside the room once the map is up.
    let readers = trace.reader_positions().len() as u32;
    let last_rssi: Vec<f64> = (0..readers)
        .map(|k| {
            let last = trace
                .readings
                .iter()
                .rev()
                .find(|r| r.tag == tracking && r.reader == k);
            last.expect("every reader heard the tracking tag").rssi
        })
        .collect();
    let mut clock = trace.readings.last().unwrap().time;
    let first_new = 100;
    let mut size_after_first = None;
    for d in 0..DRIVES {
        clock += 0.1;
        let tags = (0..NEW_PER_DRIVE).map(|j| TagKey::first(first_new + d * NEW_PER_DRIVE + j));
        let events: Vec<BeaconEvent> = tags
            .flat_map(|tag| {
                last_rssi
                    .iter()
                    .enumerate()
                    .map(move |(k, &rssi)| BeaconEvent {
                        time: clock,
                        tag,
                        reader: k as u32,
                        rssi,
                    })
            })
            .collect();
        server.accept(events);
        assert!(
            server.drive().results.is_empty(),
            "drive {d}: map incomplete"
        );
        let size = format!("{:?}", server.service()).len();
        let first = *size_after_first.get_or_insert(size);
        assert!(
            size <= first + 64,
            "drive {d}: the service grew from {first} B to {size} B"
        );
    }

    server.accept(held_back.iter().map(|r| BeaconEvent {
        time: clock + 0.1,
        ..to_beacon(r)
    }));
    let mut localized: HashMap<TagKey, usize> = HashMap::new();
    for (tag, result) in server.drive().results {
        assert!(result.is_ok(), "tag {tag}: {result:?}");
        *localized.entry(tag).or_default() += 1;
    }
    for n in first_new..first_new + DRIVES * NEW_PER_DRIVE {
        assert_eq!(localized.get(&TagKey::first(n)), Some(&1), "tag {n}");
    }
    assert_eq!(localized.get(&TagKey::first(tracking)), Some(&1));
    assert!(localized.values().all(|&n| n == 1));
    assert!(server.drive().results.is_empty(), "nothing is left over");
}

/// No wire message removes a tag, so a gateway sending ever-new tag ids
/// must not grow a zone: the middleware's tag table holds at most
/// `MAX_TAGS` rows, and a new tag at capacity evicts the unpinned tag the
/// CLOCK hand finds unheard since it last passed. 10⁶ distinct tracking
/// ids arrive in batches of 1,000, each heard once; one more tag is heard
/// again in every batch, so the hand (about 1,000 rows per batch) always
/// finds it heard and it keeps its filters. The reference tags are never
/// heard, so the map stays incomplete and the service drains nothing:
/// the stage's dirty list holds every unpinned row and must shrink as
/// rows are evicted.
#[test]
fn a_million_new_tag_ids_stay_within_the_tag_table() {
    use vire_sim::middleware::MAX_TAGS;
    const IDS: u32 = 1_000_000;
    const BATCH: u32 = 1_000;
    let trace = capture();
    let mut server = IngestServer::from_trace(
        &trace,
        vire(InterpolationKernel::Linear),
        ServeConfig::default(),
    )
    .expect("paper testbed trace infers its own deployment");
    let pinned = trace.infer_deployment().unwrap().1.len();
    let kept = TagKey::first(100);
    let first_new = 1_000;
    let mut fresh = Middleware::new(SmoothingKind::default(), false);
    let mut evicted = 0;
    for b in 0..IDS / BATCH {
        let time = b as f64;
        let rssi = -60.0 - f64::from(b % 7);
        let new = (0..BATCH).map(|j| BeaconEvent {
            time,
            tag: TagKey::first(first_new + b * BATCH + j),
            reader: j % 4,
            rssi: -70.0,
        });
        let again = BeaconEvent {
            time,
            tag: kept,
            reader: 0,
            rssi,
        };
        assert_eq!(server.accept(new.chain([again])), BATCH as usize + 1);
        let report = server.drive();
        assert!(
            report.results.is_empty(),
            "batch {b}: the map is incomplete"
        );
        evicted += report.evicted as u64;
        fresh.ingest(Reading {
            time,
            tag: TagId::new(kept.index, kept.generation),
            reader: ReaderId(0),
            rssi,
        });
        let stage = server.stage_mut();
        assert!(stage.middleware().tag_count() <= MAX_TAGS, "batch {b}");
        assert!(stage.pending_tracking() <= MAX_TAGS, "batch {b}");
    }
    let stage = server.stage_mut();
    let want = u64::from(IDS) - (MAX_TAGS - pinned - 1) as u64;
    assert_eq!(evicted, want);
    assert_eq!(stage.evicted_total(), want);
    assert_eq!(stage.middleware().tag_count(), MAX_TAGS);
    let kept = TagId::new(kept.index, kept.generation);
    assert_eq!(
        stage.middleware().rssi(kept, ReaderId(0)).map(f64::to_bits),
        fresh.rssi(kept, ReaderId(0)).map(f64::to_bits),
        "the re-heard tag kept its filter"
    );
    assert_eq!(stage.middleware().pinned().count(), pinned);
}

/// Nor may a gateway sending ever-new tag ids grow the location service
/// behind the table. Once the paper capture completes the map, 200
/// batches of 1,000 new tracking ids arrive, each id heard by all four
/// readers, all at one beacon time, so no track ever ages out; one more
/// tag is heard again in every batch. Each tag the table evicts reaches
/// the service as a removal in the same drive, so live tracks never
/// outnumber the unpinned rows. Each retired track leaves a tombstone,
/// and past `TOMBSTONE_CAP` the oldest are dropped and counted, so every
/// eviction is either held or counted. The re-heard tag keeps its track:
/// it answers as a server fed only the capture and that tag's readings
/// does, to the bit.
#[test]
fn a_flood_of_new_tag_ids_stays_within_the_service() {
    use vire_core::service::TOMBSTONE_CAP;
    use vire_sim::middleware::MAX_TAGS;
    const BATCHES: u32 = 200;
    const BATCH: u32 = 1_000;
    let trace = capture();
    let server = || {
        IngestServer::from_trace(
            &trace,
            vire(InterpolationKernel::Linear),
            ServeConfig::default(),
        )
        .expect("paper testbed trace infers its own deployment")
    };
    let (mut flooded, mut quiet) = (server(), server());
    for s in [&mut flooded, &mut quiet] {
        s.accept(trace.readings.iter().map(to_beacon));
        assert!(
            !s.drive().results.is_empty(),
            "the capture completes the map"
        );
    }
    let pinned = trace.infer_deployment().unwrap().1.len();
    let tracking = 16; // 16 reference slots, then the tag
                       // Every tag copies the tracking tag's last reading per reader, so it
                       // localizes inside the room.
    let last_rssi: Vec<f64> = (0..trace.reader_positions().len() as u32)
        .map(|k| {
            let last = trace
                .readings
                .iter()
                .rev()
                .find(|r| r.tag == tracking && r.reader == k);
            last.expect("every reader heard the tracking tag").rssi
        })
        .collect();
    let time = trace.readings.last().unwrap().time + 1.0;
    let heard = |tag: TagKey, shift: f64| -> Vec<BeaconEvent> {
        let rssi = last_rssi.iter().enumerate();
        rssi.map(|(k, &rssi)| BeaconEvent {
            time,
            tag,
            reader: k as u32,
            rssi: rssi + shift,
        })
        .collect()
    };
    let kept = TagKey::first(100);
    let first_new = 1_000;
    let mut evicted = 0u64;
    for b in 0..BATCHES {
        let again = heard(kept, -0.5 * f64::from(b % 5));
        let new = (0..BATCH).flat_map(|j| heard(TagKey::first(first_new + b * BATCH + j), 0.0));
        flooded.accept(new.chain(again.iter().copied()));
        evicted += flooded.drive().evicted as u64;
        quiet.accept(again);
        quiet.drive();
        let service = flooded.service();
        if b % 20 == 19 {
            assert!(
                service.tracked_tags().len() <= MAX_TAGS - pinned,
                "batch {b}: {} tracks behind {} unpinned rows",
                service.tracked_tags().len(),
                MAX_TAGS - pinned
            );
        }
        assert!(service.tombstone_count() <= TOMBSTONE_CAP, "batch {b}");
    }
    let service = flooded.service();
    assert!(service.tracked_tags().len() <= MAX_TAGS - pinned);
    assert!(evicted > TOMBSTONE_CAP as u64, "the flood filled the cap");
    assert!(service.tombstone_count() <= TOMBSTONE_CAP);
    assert!(service.tombstones_dropped() > 0);
    assert_eq!(
        service.tombstone_count() as u64 + service.tombstones_dropped(),
        evicted,
        "every evicted track is held as a tombstone or counted as dropped"
    );
    let q = LocationQuery {
        tag: kept,
        at: time,
    };
    let (got, want) = (flooded.query(q), quiet.query(q));
    assert!(matches!(got, QueryResponse::Fresh { .. }), "{got:?}");
    // `Debug` prints each f64 in its shortest round-trip form.
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}
