//! Frame-codec pins: arbitrary payloads survive
//! encode → split-at-every-byte-boundary → decode bit-for-bit, partial
//! reads reassemble across syscall-sized chunks, and malformed inputs
//! (bad length prefixes, unknown kinds, short bodies, trailing bytes,
//! non-finite event values) are errors — never panics, never wrong data.

use proptest::prelude::*;
use vire_core::{BeaconEvent, LocationQuery, QueryResponse, TagKey};
use vire_geom::{Point2, Vec2};
use vire_net::{
    decode_batch_events, decode_batch_ok, decode_hello, decode_hello_ok, decode_location,
    decode_query, decode_stats_ok, BatchAck, CodecError, Encoding, FrameDecoder, FrameKind,
    FrameSink, HelloOk, NetStats, EVENT_LEN, HEADER_LEN, MAX_FRAME_LEN,
};

/// An arbitrary *finite* `f64` bit pattern (subnormals and `-0.0`
/// included): a non-finite pattern has its top exponent bit cleared.
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        f64::from_bits(bits & !(1 << 62))
    }
}

/// Events with arbitrary finite `f64` bit patterns: the codec must move
/// bits, not values. (Non-finite values are rejected; see
/// `non_finite_event_values_are_rejected`.)
fn arb_event() -> impl Strategy<Value = BeaconEvent> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(t, tag, generation, reader, rssi)| BeaconEvent {
            time: finite(t),
            tag: TagKey::new(tag, generation),
            reader,
            rssi: finite(rssi),
        })
}

fn event_bits(e: &BeaconEvent) -> (u64, u32, u32, u32, u64) {
    (
        e.time.to_bits(),
        e.tag.index,
        e.tag.generation,
        e.reader,
        e.rssi.to_bits(),
    )
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

fn arb_response() -> impl Strategy<Value = QueryResponse> {
    (
        0u32..3,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(kind, x, y, v, age)| match kind {
            0 => QueryResponse::Unknown,
            1 => QueryResponse::Stale {
                position: Point2 {
                    x: f64::from_bits(x),
                    y: f64::from_bits(y),
                },
                age: f64::from_bits(age),
            },
            _ => QueryResponse::Fresh {
                position: Point2 {
                    x: f64::from_bits(x),
                    y: f64::from_bits(y),
                },
                velocity: Vec2 {
                    x: f64::from_bits(v),
                    y: f64::from_bits(x ^ v),
                },
                sigma: (f64::from_bits(y ^ v), f64::from_bits(age ^ x)),
                age: f64::from_bits(age),
            },
        })
}

proptest! {
    /// A batch frame split at **every** byte boundary reassembles into
    /// the same events, bit-for-bit.
    #[test]
    fn batch_survives_every_split_point(
        events in prop::collection::vec(arb_event(), 0..12),
    ) {
        let mut sink = FrameSink::new();
        sink.batch_events(&events);
        let wire = sink.bytes().to_vec();
        for split in 0..wire.len() {
            let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
            dec.push(&wire[..split]);
            match dec.next_frame() {
                Ok(None) => {}
                Ok(Some(_)) => prop_assert!(false, "frame complete early at split {}", split),
                Err(e) => return Err(TestCaseError::fail(format!("split {split}: {e}"))),
            }
            dec.push(&wire[split..]);
            let frame = dec.next_frame().unwrap().expect("whole frame buffered");
            prop_assert_eq!(frame.kind, FrameKind::Batch);
            let mut out = Vec::new();
            let n = decode_batch_events(frame.body, &mut out).unwrap();
            prop_assert_eq!(n, events.len());
            let got: Vec<_> = out.iter().map(event_bits).collect();
            let want: Vec<_> = events.iter().map(event_bits).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(dec.pending(), 0);
        }
    }

    /// A whole conversation delivered in arbitrary chunk sizes (1 byte,
    /// 7 bytes, syscall-sized) decodes to the same frame sequence as one
    /// big read.
    #[test]
    fn stream_reassembles_across_chunk_sizes(
        events in prop::collection::vec(arb_event(), 1..8),
        resp in arb_response(),
        chunk_idx in 0usize..5,
    ) {
        let mut sink = FrameSink::new();
        sink.hello(2, Encoding::Binary);
        sink.batch_events(&events);
        sink.query(3, LocationQuery { tag: events[0].tag, at: events[0].time });
        sink.location(&resp);
        sink.batch_ok(BatchAck {
            accepted: events.len() as u32,
            survivors: events.len() as u32,
            coalesced: 1,
            lagged: 2,
            drove: true,
        });
        sink.stats();
        sink.bye();
        let wire = sink.bytes().to_vec();

        // 1-byte drip, odd sizes, and syscall-sized chunks.
        let chunk = [1usize, 7, 64, 1024, 65536][chunk_idx];
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let mut kinds = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.push(piece);
            while let Some(frame) = dec.next_frame().unwrap() {
                match frame.kind {
                    FrameKind::Hello => {
                        let h = decode_hello(frame.body).unwrap();
                        prop_assert_eq!(h.encoding, Encoding::Binary);
                        prop_assert_eq!(h.wire_version, 2);
                    }
                    FrameKind::Batch => {
                        let mut out = Vec::new();
                        decode_batch_events(frame.body, &mut out).unwrap();
                        let got: Vec<_> = out.iter().map(event_bits).collect();
                        let want: Vec<_> = events.iter().map(event_bits).collect();
                        prop_assert_eq!(got, want);
                    }
                    FrameKind::Query => {
                        let q = decode_query(frame.body).unwrap();
                        prop_assert_eq!(q.zone, 3);
                        prop_assert_eq!(q.query.tag, events[0].tag);
                        prop_assert_eq!(q.query.at.to_bits(), events[0].time.to_bits());
                    }
                    FrameKind::Location => {
                        let got = decode_location(frame.body).unwrap();
                        prop_assert_eq!(response_bits(&got), response_bits(&resp));
                    }
                    FrameKind::BatchOk => {
                        let ack = decode_batch_ok(frame.body).unwrap();
                        prop_assert_eq!(ack.coalesced, 1);
                        prop_assert_eq!(ack.lagged, 2);
                        prop_assert!(ack.drove);
                    }
                    _ => {}
                }
                kinds.push(frame.kind);
            }
        }
        prop_assert_eq!(kinds, vec![
            FrameKind::Hello,
            FrameKind::Batch,
            FrameKind::Query,
            FrameKind::Location,
            FrameKind::BatchOk,
            FrameKind::Stats,
            FrameKind::Bye,
        ]);
        prop_assert_eq!(dec.pending(), 0);
        dec.finish().unwrap();
    }

    /// Truncating a batch body anywhere inside its claimed fields is a
    /// `Truncated` error, never a panic or a short read of garbage.
    #[test]
    fn truncated_bodies_error_cleanly(
        events in prop::collection::vec(arb_event(), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut sink = FrameSink::new();
        sink.batch_events(&events);
        let wire = sink.bytes();
        let body = &wire[HEADER_LEN..];
        let cut = ((body.len() - 1) as f64 * cut_frac) as usize;
        let mut out = Vec::new();
        match decode_batch_events(&body[..cut], &mut out) {
            Err(CodecError::Truncated { .. }) => {}
            Ok(_) => prop_assert!(false, "decoded a truncated body"),
            Err(e) => return Err(TestCaseError::fail(format!("wrong error: {e}"))),
        }
    }
}

#[test]
fn oversize_length_prefix_is_rejected_not_allocated() {
    let mut dec = FrameDecoder::new(1024);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.push(FrameKind::Batch as u8);
    dec.push(&bytes);
    match dec.next_frame() {
        Err(CodecError::Oversize { len, max }) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(max, 1024);
        }
        other => panic!("expected Oversize, got {other:?}"),
    }
}

#[test]
fn hostile_batch_count_is_rejected_not_reserved() {
    // A tiny body claiming u32::MAX events must fail validation before
    // the event-count reservation: reserving ~100 GiB would abort the
    // process on allocation failure instead of closing one connection.
    let mut body = Vec::new();
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.extend_from_slice(&[0u8; 16]); // far fewer bytes than one event
    let mut out: Vec<BeaconEvent> = Vec::new();
    match decode_batch_events(&body, &mut out) {
        Err(CodecError::Truncated { need, have }) => {
            assert_eq!(have, 16);
            assert_eq!(need, u32::MAX as usize * EVENT_LEN);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert!(out.is_empty());
    assert_eq!(
        out.capacity(),
        0,
        "nothing may be reserved for a hostile count"
    );

    // A plausible-but-wrong count over a valid-sized body is rejected
    // too: count is only trusted once it matches the bytes present.
    let mut sink = FrameSink::new();
    sink.batch_events(&[BeaconEvent {
        time: 1.0,
        tag: TagKey::first(3),
        reader: 1,
        rssi: -70.0,
    }]);
    let mut inflated = sink.bytes()[HEADER_LEN..].to_vec();
    inflated[..4].copy_from_slice(&2u32.to_le_bytes()); // claims 2, holds 1
    assert!(matches!(
        decode_batch_events(&inflated, &mut out),
        Err(CodecError::Truncated { .. })
    ));
}

#[test]
fn non_finite_event_values_are_rejected() {
    let good = BeaconEvent {
        time: 1.0,
        tag: TagKey::first(3),
        reader: 1,
        rssi: -70.0,
    };
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for field in ["time", "rssi"] {
            let mut rogue = good;
            match field {
                "time" => rogue.time = bad,
                _ => rogue.rssi = bad,
            }
            // The bad event sits second, behind a clean one.
            let mut sink = FrameSink::new();
            sink.batch_events(&[good, rogue]);
            let mut out = Vec::new();
            assert_eq!(
                decode_batch_events(&sink.bytes()[HEADER_LEN..], &mut out),
                Err(CodecError::NotFinite { field, index: 1 }),
                "{field} = {bad}"
            );
        }
    }
}

#[test]
fn unknown_frame_kind_is_rejected() {
    let mut dec = FrameDecoder::new(1024);
    dec.push(&[0, 0, 0, 0, 0x7f]);
    assert!(matches!(
        dec.next_frame(),
        Err(CodecError::UnknownKind(0x7f))
    ));
}

#[test]
fn trailing_bytes_inside_a_body_are_rejected() {
    let mut sink = FrameSink::new();
    sink.query(
        0,
        LocationQuery {
            tag: TagKey::first(0),
            at: 1.0,
        },
    );
    let mut body = sink.bytes()[HEADER_LEN..].to_vec();
    body.push(0xaa);
    assert!(matches!(
        decode_query(&body),
        Err(CodecError::TrailingBytes(1))
    ));
}

#[test]
fn hello_rejects_bad_magic_and_versions() {
    let mut sink = FrameSink::new();
    sink.hello(2, Encoding::Json);
    let good = sink.bytes()[HEADER_LEN..].to_vec();
    assert_eq!(
        decode_hello(&good).unwrap().encoding,
        Encoding::Json,
        "control: the untampered body decodes"
    );

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        decode_hello(&bad_magic),
        Err(CodecError::BadMagic)
    ));

    let mut bad_proto = good.clone();
    bad_proto[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        decode_hello(&bad_proto),
        Err(CodecError::BadProtoVersion(99))
    ));

    let mut bad_wire = good.clone();
    bad_wire[8..12].copy_from_slice(&77u32.to_le_bytes());
    assert!(matches!(
        decode_hello(&bad_wire),
        Err(CodecError::BadWireVersion(77))
    ));

    let mut bad_encoding = good;
    bad_encoding[12] = 9;
    assert!(matches!(
        decode_hello(&bad_encoding),
        Err(CodecError::BadEncoding(9))
    ));
}

#[test]
fn eof_mid_frame_is_a_truncated_stream() {
    let mut sink = FrameSink::new();
    sink.batch_events(&[BeaconEvent {
        time: 1.0,
        tag: TagKey::first(3),
        reader: 1,
        rssi: -70.0,
    }]);
    let wire = sink.bytes();
    let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
    dec.push(&wire[..wire.len() - 1]);
    assert!(dec.next_frame().unwrap().is_none());
    assert!(matches!(
        dec.finish(),
        Err(CodecError::TruncatedStream { .. })
    ));
}

/// A socket that takes at most `budget` more bytes, then times out.
struct Stalling {
    out: Vec<u8>,
    budget: usize,
}

impl std::io::Write for Stalling {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.budget).min(7);
        self.budget -= n;
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn flush_resumes_after_a_timed_out_write_without_resending() {
    let mut sink = FrameSink::new();
    sink.hello(2, Encoding::Binary);
    sink.stats();
    sink.bye();
    let wire = sink.bytes().to_vec();
    let mut socket = Stalling {
        out: Vec::new(),
        budget: wire.len() / 2,
    };
    let err = sink.flush_to(&mut socket).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    assert_eq!(sink.byte_count(), wire.len() - wire.len() / 2);
    socket.budget = usize::MAX;
    assert_eq!(
        sink.flush_to(&mut socket).unwrap(),
        wire.len() - wire.len() / 2
    );
    assert!(sink.is_empty());
    assert_eq!(
        socket.out, wire,
        "every byte written exactly once, in order"
    );
}

#[test]
fn packed_event_is_exactly_event_len_bytes() {
    let mut sink = FrameSink::new();
    sink.batch_events(&[BeaconEvent {
        time: 0.5,
        tag: TagKey::new(7, 3),
        reader: 2,
        rssi: -61.25,
    }]);
    // header + count + one packed event
    assert_eq!(sink.byte_count(), HEADER_LEN + 4 + EVENT_LEN);
}

#[test]
fn stats_round_trip_is_exact() {
    let stats = NetStats {
        accepted: 1,
        delivered: 2,
        coalesced: 3,
        lagged: 4,
        protocol_errors: 5,
        accept_errors: 9,
        connections: 6,
        frames: 7,
        queries: 8,
    };
    let mut sink = FrameSink::new();
    sink.stats_ok(stats);
    let got = decode_stats_ok(&sink.bytes()[HEADER_LEN..]).unwrap();
    assert_eq!(got, stats);
    assert!(!got.balanced(), "1 != 2 + 3 + 4");
}

#[test]
fn hello_ok_round_trip() {
    let granted = HelloOk {
        wire_version: 2,
        encoding: Encoding::Json,
        zones: 5,
    };
    let mut sink = FrameSink::new();
    sink.hello_ok(granted);
    assert_eq!(
        decode_hello_ok(&sink.bytes()[HEADER_LEN..]).unwrap(),
        granted
    );
}
