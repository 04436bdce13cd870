//! The transport acceptance pin: a trace streamed over a **real TCP
//! socket** produces location estimates `f64::to_bits`-identical to
//! in-process [`IngestServer::accept_json`] replay, on all four
//! interpolation kernels — the network layer may frame, buffer, and
//! batch, but it must never change a number. Plus the failure-domain
//! pins: a malformed frame closes exactly one gateway's connection with
//! a counted `protocol_errors`, leaving the shared service serving, and a
//! gateway that stops reading its replies cannot hold shutdown hostage.

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use vire_core::{
    beacon_key, BeaconEvent, IngestConfig, InterpolationKernel, LocationQuery, QueryResponse,
    TagKey, Vire, VireConfig,
};
use vire_geom::Point2;
use vire_net::{
    decode_batch_ok, decode_hello_ok, Encoding, FrameDecoder, FrameSink, GatewayClient, NetConfig,
    NetServer, MAX_FRAME_LEN,
};
use vire_sim::trace::TraceReading;
use vire_sim::{IngestServer, ServeConfig, Testbed, TestbedConfig, Trace};

fn vire(kernel: InterpolationKernel) -> Vire {
    Vire::new(VireConfig {
        kernel,
        ..VireConfig::default()
    })
}

/// A 40 s paper-testbed capture with one tracking tag that relocates
/// halfway through (same shape as the in-process ingest oracle).
fn capture() -> Trace {
    let mut cfg = TestbedConfig::paper(vire_env::presets::env2(), 11);
    cfg.keep_log = true;
    let mut tb = Testbed::new(cfg);
    let id = tb.add_tracking_tag(Point2::new(1.2, 1.1));
    tb.run_for(20.0);
    tb.move_tag(id, Point2::new(2.0, 2.3));
    tb.run_for(20.0);
    tb.export_trace("socket oracle capture")
}

fn to_beacon(r: &TraceReading) -> BeaconEvent {
    BeaconEvent {
        time: r.time,
        tag: TagKey::new(r.tag, r.generation),
        reader: r.reader,
        rssi: r.rssi,
    }
}

fn chunk_json(chunk: &[TraceReading]) -> String {
    serde_json::to_string(&chunk.to_vec()).expect("readings serialize")
}

fn response_bits(r: &QueryResponse) -> Vec<u64> {
    match r {
        QueryResponse::Unknown => vec![0],
        QueryResponse::Fresh {
            position,
            velocity,
            sigma,
            age,
        } => vec![
            1,
            position.x.to_bits(),
            position.y.to_bits(),
            velocity.x.to_bits(),
            velocity.y.to_bits(),
            sigma.0.to_bits(),
            sigma.1.to_bits(),
            age.to_bits(),
        ],
        QueryResponse::Stale { position, age } => {
            vec![2, position.x.to_bits(), position.y.to_bits(), age.to_bits()]
        }
    }
}

/// Tag keys worth interrogating: the 16 reference tags plus the
/// tracking tag in slot 16.
fn probes() -> Vec<TagKey> {
    (0..17).map(TagKey::first).collect()
}

/// Readings per BATCH frame in the oracle streams.
const CHUNK: usize = 340;

/// Streams `trace` over a real socket (binary or JSON framing) and over
/// the in-process `accept_json` path, comparing every query bit-for-bit
/// after every chunk. Both arms run the same `serve` config; the
/// in-process server is returned so callers can inspect its ring.
fn assert_socket_matches_in_process(
    kernel: InterpolationKernel,
    encoding: Encoding,
    serve: ServeConfig,
) -> IngestServer<Vire> {
    let trace = capture();
    assert!(trace.readings.len() > 1000, "capture too small to stress");

    let server = NetServer::from_traces(
        "127.0.0.1:0",
        std::slice::from_ref(&trace),
        |_| vire(kernel),
        NetConfig {
            serve: serve.clone(),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = GatewayClient::connect(server.local_addr(), encoding).expect("connect");
    assert_eq!(client.hello().zones, 1);

    let mut inproc = IngestServer::from_trace(&trace, vire(kernel), serve)
        .expect("trace infers its own deployment");

    for chunk in trace.readings.chunks(CHUNK) {
        // Socket arm: one BATCH frame, acked after the zone was driven.
        let ack = match encoding {
            Encoding::Binary => {
                let events: Vec<BeaconEvent> = chunk.iter().map(to_beacon).collect();
                client.send_batch_ack(&events).expect("batch over socket")
            }
            Encoding::Json => client
                .send_batch_json_ack(&chunk_json(chunk))
                .expect("json batch over socket"),
        };
        assert_eq!(ack.accepted as usize, chunk.len());
        assert_eq!(ack.lagged, 0, "loopback batches must never hard-drop");
        assert!(
            ack.drove,
            "single-gateway streams always win the drive lock"
        );

        // In-process arm: the same bytes' worth of readings via
        // accept_json + drive.
        inproc
            .accept_json(&chunk_json(chunk))
            .expect("wire json parses");
        let report = inproc.drive();
        assert_eq!(report.lagged, 0);

        // Compare every tag's answer at the chunk horizon, bit for bit.
        let at = chunk.last().expect("chunks non-empty").time;
        for tag in probes() {
            let over_wire = client.query(0, LocationQuery { tag, at }).expect("query");
            let local = inproc.query(LocationQuery { tag, at });
            assert_eq!(
                response_bits(&over_wire),
                response_bits(&local),
                "kernel {kernel:?} {encoding:?}: socket and in-process answers diverged \
                 for tag {tag:?} at {at}"
            );
        }
    }

    let stats = client.stats().expect("stats over socket");
    assert!(stats.balanced(), "final accounting must balance: {stats}");
    assert_eq!(stats.lagged, 0);
    assert_eq!(stats.accepted, trace.readings.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
    client.bye().expect("clean close");
    let final_stats = server.shutdown();
    assert!(final_stats.balanced(), "post-shutdown: {final_stats}");
    assert_eq!(final_stats.lagged, 0);
    inproc
}

#[test]
fn binary_socket_is_bit_identical_to_in_process_replay_all_kernels() {
    for kernel in InterpolationKernel::ALL {
        assert_socket_matches_in_process(kernel, Encoding::Binary, ServeConfig::default());
    }
}

#[test]
fn json_fallback_socket_is_bit_identical_to_in_process_replay() {
    // The negotiated JSON fallback rides the identical server path after
    // parse; one kernel pins the encoding equivalence.
    assert_socket_matches_in_process(
        InterpolationKernel::Linear,
        Encoding::Json,
        ServeConfig::default(),
    );
}

#[test]
fn ring_at_its_ceiling_is_bit_identical_to_in_process_replay_all_kernels() {
    // A ceiling below one chunk's raw length but above its distinct-key
    // count: the in-process ring must coalesce at the ceiling mid-chunk,
    // while the socket arm collapses each batch before its zone ring.
    // Collapsing is idempotent and composes, so the answers must agree.
    const CEILING: usize = 128;
    let trace = capture();
    let first = &trace.readings[..CHUNK];
    let keys: HashSet<u128> = first.iter().map(|r| beacon_key(&to_beacon(r))).collect();
    assert!(
        keys.len() < CEILING && CEILING < CHUNK,
        "{} distinct keys per chunk must sit below the ceiling",
        keys.len()
    );
    let serve = ServeConfig {
        ingest: IngestConfig {
            initial_capacity: 16,
            max_capacity: CEILING,
        },
        ..ServeConfig::default()
    };
    for kernel in InterpolationKernel::ALL {
        let inproc = assert_socket_matches_in_process(kernel, Encoding::Binary, serve.clone());
        assert_eq!(inproc.capacity(), CEILING, "the ring grew to its ceiling");
        assert!(inproc.grown() > 0);
        let ring = inproc.ingest_stats();
        assert!(
            ring.coalesced_in_ring > 0,
            "the ceiling coalesce must actually fire: {ring:?}"
        );
        assert_eq!(ring.lagged, 0);
    }
}

#[test]
fn malformed_frame_closes_one_connection_not_the_service() {
    let trace = capture();
    let server = NetServer::from_traces(
        "127.0.0.1:0",
        std::slice::from_ref(&trace),
        |_| vire(InterpolationKernel::Linear),
        NetConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // A healthy gateway streams the first half of the capture.
    let mut healthy = GatewayClient::connect(addr, Encoding::Binary).expect("connect");
    let half: Vec<BeaconEvent> = trace.readings[..trace.readings.len() / 2]
        .iter()
        .map(to_beacon)
        .collect();
    for chunk in half.chunks(340) {
        healthy.send_batch_ack(chunk).expect("healthy stream");
    }

    // Rogue 1: an oversize length prefix. The server must drop the
    // connection (EOF on our side), not allocate 4 GiB or panic.
    let mut rogue = TcpStream::connect(addr).expect("connect rogue");
    rogue
        .write_all(&[0xff, 0xff, 0xff, 0xff, 0x02])
        .expect("write garbage");
    let mut sink = Vec::new();
    let n = rogue.read_to_end(&mut sink).unwrap_or(0);
    drop(rogue);
    assert_eq!(n, 0, "server must close without replying to garbage");

    // Rogue 2: a valid frame grammar but no HELLO first.
    let mut rogue2 = TcpStream::connect(addr).expect("connect rogue2");
    rogue2
        .write_all(&[0u8, 0, 0, 0, 0x04])
        .expect("write STATS before HELLO");
    let mut sink2 = Vec::new();
    let _ = rogue2.read_to_end(&mut sink2);
    assert!(sink2.is_empty(), "no reply to a pre-HELLO frame");
    drop(rogue2);

    // Rogue 3: an unroutable reader id in an otherwise valid batch.
    let mut rogue3 = GatewayClient::connect(addr, Encoding::Binary).expect("connect rogue3");
    let bogus = BeaconEvent {
        time: 1.0,
        tag: TagKey::first(0),
        reader: 9999,
        rssi: -70.0,
    };
    assert!(
        rogue3.send_batch_ack(&[bogus]).is_err(),
        "unroutable reader must close the connection instead of acking"
    );

    // Rogue 4: a well-formed batch whose RSSI is NaN, aimed at the
    // healthy gateway's own tracking tag and reader. Accepted, it would
    // poison that tag's median filter and panic the zone drive; it must
    // instead fail decode and close only this connection.
    let mut rogue4 = GatewayClient::connect(addr, Encoding::Binary).expect("connect rogue4");
    let poisoned = BeaconEvent {
        time: half.last().expect("non-empty").time,
        tag: TagKey::first(16),
        reader: 0,
        rssi: f64::NAN,
    };
    assert!(
        rogue4.send_batch_ack(&[poisoned]).is_err(),
        "a non-finite RSSI must close the connection instead of acking"
    );

    // The healthy gateway is entirely unaffected: it streams the second
    // half and queries fine.
    let rest: Vec<BeaconEvent> = trace.readings[trace.readings.len() / 2..]
        .iter()
        .map(to_beacon)
        .collect();
    for chunk in rest.chunks(340) {
        healthy
            .send_batch_ack(chunk)
            .expect("healthy stream survives");
    }
    let at = trace.readings.last().expect("non-empty").time;
    let resp = healthy
        .query(
            0,
            LocationQuery {
                tag: TagKey::first(16),
                at,
            },
        )
        .expect("query still served");
    assert!(
        matches!(resp, QueryResponse::Fresh { .. }),
        "tracking tag must still answer Fresh, got {resp:?}"
    );

    let stats = healthy.stats().expect("stats");
    assert_eq!(
        stats.protocol_errors, 4,
        "each rogue counted exactly once: {stats}"
    );
    assert!(stats.balanced(), "rogues must not skew accounting: {stats}");
    assert_eq!(stats.accepted, trace.readings.len() as u64);
    healthy.bye().expect("clean close");
    let final_stats = server.shutdown();
    assert!(final_stats.balanced(), "post-shutdown: {final_stats}");
    assert_eq!(final_stats.accepted, trace.readings.len() as u64);
}

#[test]
fn json_payload_newer_than_negotiated_wire_version_is_rejected() {
    let trace = capture();
    let server = NetServer::from_traces(
        "127.0.0.1:0",
        std::slice::from_ref(&trace),
        |_| vire(InterpolationKernel::Linear),
        NetConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // `GatewayClient` always negotiates the current wire version, so pin
    // v1 by hand-framing the handshake.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut sink = FrameSink::new();
    let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
    sink.hello(1, Encoding::Json);
    sink.flush_to(&mut stream).expect("send HELLO");
    let hello_ok = loop {
        if let Some(frame) = dec.next_frame().expect("framed reply") {
            break decode_hello_ok(frame.body).expect("HELLO_OK");
        }
        assert!(dec.read_from(&mut stream).expect("read") > 0);
    };
    assert_eq!(hello_ok.wire_version, 1, "server echoes the pinned version");

    // Control: a v1 payload on the pinned connection is served normally.
    let v1 = r#"{"version":1,"readings":[{"time":0.5,"tag":16,"reader":0,"rssi":-55.0}]}"#;
    sink.batch_json(v1);
    sink.flush_to(&mut stream).expect("send v1 batch");
    let ack = loop {
        if let Some(frame) = dec.next_frame().expect("framed reply") {
            break decode_batch_ok(frame.body).expect("BATCH_OK");
        }
        assert!(dec.read_from(&mut stream).expect("read") > 0);
    };
    assert_eq!(ack.accepted, 1);

    // A payload claiming v2 (generation fields) must not slip past the
    // v1 handshake: the connection closes with a counted protocol error
    // and no ack.
    let v2 = r#"{"version":2,"readings":[{"time":1.0,"tag":16,"generation":1,"reader":0,"rssi":-55.0}]}"#;
    sink.batch_json(v2);
    sink.flush_to(&mut stream).expect("send v2 batch");
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "no ack for a version-violating batch");
    drop(stream);

    let mut observer = GatewayClient::connect(addr, Encoding::Binary).expect("connect observer");
    let stats = observer.stats().expect("stats");
    assert_eq!(stats.protocol_errors, 1, "{stats}");
    assert_eq!(stats.accepted, 1, "only the v1 control batch landed");
    assert!(stats.balanced(), "{stats}");
    observer.bye().expect("clean close");
    server.shutdown();
}

#[test]
fn shutdown_drains_buffered_frames_and_balances() {
    let trace = capture();
    let server = NetServer::from_traces(
        "127.0.0.1:0",
        std::slice::from_ref(&trace),
        |_| vire(InterpolationKernel::Linear),
        NetConfig::default(),
    )
    .expect("bind loopback");
    let mut client =
        GatewayClient::connect(server.local_addr(), Encoding::Binary).expect("connect");

    // Pipeline every chunk without waiting for acks, then shut the
    // server down: the drain contract says everything already written
    // to the wire is processed before the final accounting.
    let events: Vec<BeaconEvent> = trace.readings.iter().map(to_beacon).collect();
    let mut batches = 0u64;
    for chunk in events.chunks(340) {
        client.send_batch(chunk).expect("pipelined batch");
        batches += 1;
    }
    // Absorb the acks so the server has definitely consumed every frame
    // (acks are sent only after a batch is handled).
    for _ in 0..batches {
        let ack = client.recv_ack().expect("ack");
        assert_eq!(ack.lagged, 0);
    }

    let final_stats = server.shutdown();
    assert!(final_stats.balanced(), "drained shutdown: {final_stats}");
    assert_eq!(final_stats.accepted, events.len() as u64);
    assert_eq!(final_stats.lagged, 0);
    assert_eq!(final_stats.protocol_errors, 0);
}

#[test]
fn gateway_that_stops_reading_cannot_pin_shutdown() {
    let trace = capture();
    let server = NetServer::from_traces(
        "127.0.0.1:0",
        std::slice::from_ref(&trace),
        |_| vire(InterpolationKernel::Linear),
        NetConfig::default(),
    )
    .expect("bind loopback");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut sink = FrameSink::new();
    sink.hello(vire_core::WIRE_VERSION, Encoding::Binary);
    sink.flush_to(&mut stream).expect("send HELLO");

    // Stream QUERY frames and never read a reply, until the server's
    // replies back up through both socket buffers and it stops reading:
    // several write timeouts in a row without a byte accepted.
    let stop = Arc::new(AtomicBool::new(false));
    let (stalled_tx, stalled) = mpsc::channel();
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            stream
                .set_write_timeout(Some(Duration::from_millis(50)))
                .expect("write timeout");
            let q = LocationQuery {
                tag: TagKey::first(16),
                at: 0.0,
            };
            let mut idle_ticks = 0;
            while !stop.load(Ordering::SeqCst) {
                if sink.is_empty() {
                    for _ in 0..256 {
                        sink.query(0, q);
                    }
                }
                let queued = sink.byte_count();
                match sink.flush_to(&mut stream) {
                    Ok(_) => idle_ticks = 0,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        idle_ticks = if sink.byte_count() == queued {
                            idle_ticks + 1
                        } else {
                            0
                        };
                        if idle_ticks == 4 {
                            let _ = stalled_tx.send(());
                        }
                    }
                    // The server closed the connection.
                    Err(_) => break,
                }
            }
        })
    };
    stalled
        .recv_timeout(Duration::from_secs(30))
        .expect("the server's replies never backed up");

    let (done, finished) = mpsc::channel();
    let closer = std::thread::spawn(move || {
        let _ = done.send(server.shutdown());
    });
    let final_stats = finished
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown must not wait on a gateway that stopped reading");
    closer.join().expect("shutdown thread");
    stop.store(true, Ordering::SeqCst);
    writer.join().expect("writer thread");

    assert!(final_stats.queries > 0, "{final_stats}");
    assert!(final_stats.balanced(), "{final_stats}");
    assert_eq!(final_stats.protocol_errors, 0, "{final_stats}");
}
