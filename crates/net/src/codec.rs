//! Length-prefixed binary frame codec for the serving fabric.
//!
//! ## Frame layout
//!
//! Every frame is a 5-byte header followed by a kind-specific body; all
//! integers are little-endian and every `f64` travels as its exact
//! [`f64::to_bits`] image, so a value decoded on the far side is
//! bit-identical to the one encoded:
//!
//! ```text
//! ┌────────────┬──────────┬──────────────────────────┐
//! │ len: u32LE │ kind: u8 │ body: len bytes          │
//! └────────────┴──────────┴──────────────────────────┘
//! ```
//!
//! Client→server kinds: [`FrameKind::Hello`] (`"VIRE"` magic, protocol
//! and wire versions, requested [`Encoding`]), [`FrameKind::Batch`]
//! (binary: `count: u32` + `count` packed 28-byte events; JSON: a
//! trace-schema payload exactly as [`vire_core::IngestFrontEnd::accept_json`]
//! takes it), [`FrameKind::Query`], [`FrameKind::Stats`],
//! [`FrameKind::Bye`]. Server→client kinds mirror them with the high bit
//! set. A packed event is `time: f64 · tag: u64` ([`TagHandle::pack`])
//! `· reader: u32 · rssi: f64` — [`EVENT_LEN`] bytes.
//!
//! ## Zero-copy steady state
//!
//! [`FrameDecoder`] owns one growable buffer per connection: reads land
//! in its spare tail, frames are yielded as in-place [`Frame`] views,
//! and consumed bytes are compacted lazily — after warm-up, decode
//! performs no allocation per frame. The encode side mirrors it:
//! [`FrameSink`] accumulates a burst of frames in one buffer and flushes
//! the whole buffer at once ([`FrameSink::flush_to`]).
//!
//! ## Robustness
//!
//! A length prefix above the decoder's ceiling, an unknown frame kind, a
//! short body, or trailing garbage inside a body all surface as
//! [`CodecError`] — the transport layer turns them into a counted
//! protocol error that closes one connection, never a panic.
//!
//! [`TagHandle::pack`]: vire_geom::TagHandle::pack

use crate::NetStats;
use std::io::{self, ErrorKind, Read, Write};
use vire_core::{BeaconEvent, LocationQuery, QueryResponse, TagKey};
use vire_geom::{Point2, Vec2};

/// Protocol version spoken by this crate (frame grammar, not payload
/// semantics — those are pinned by the wire version).
pub const PROTO_VERSION: u32 = 1;
/// Default ceiling on one frame's body length; a length prefix above the
/// decoder's configured ceiling is a protocol error, so a corrupt or
/// hostile prefix can never force an unbounded allocation.
pub const MAX_FRAME_LEN: usize = 4 << 20;
/// Bytes in the fixed frame header (`len: u32` + `kind: u8`).
pub const HEADER_LEN: usize = 5;
/// Bytes in one packed binary beacon event.
pub const EVENT_LEN: usize = 28;
/// Magic bytes opening every `HELLO` body.
pub const MAGIC: [u8; 4] = *b"VIRE";

/// How batch bodies on a connection are encoded, negotiated at `HELLO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Packed little-endian events ([`EVENT_LEN`] bytes each).
    Binary,
    /// Trace-schema JSON (wire v1/v2), byte-for-byte what
    /// [`vire_core::IngestFrontEnd::accept_json`] accepts — existing
    /// traces replay unchanged.
    Json,
}

impl Encoding {
    fn from_u8(b: u8) -> Result<Self, CodecError> {
        match b {
            0 => Ok(Encoding::Binary),
            1 => Ok(Encoding::Json),
            other => Err(CodecError::BadEncoding(other)),
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Encoding::Binary => 0,
            Encoding::Json => 1,
        }
    }
}

/// Frame kinds. Client→server kinds are `0x0…`; each server→client
/// reply mirrors its request with the high bit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Connection opener: magic, versions, requested encoding.
    Hello = 0x01,
    /// A burst of beacon events (binary or JSON per the negotiation).
    Batch = 0x02,
    /// A location question about one tag lifetime in one zone.
    Query = 0x03,
    /// Request the fabric-wide [`NetStats`] snapshot (flushes shards).
    Stats = 0x04,
    /// Graceful close request.
    Bye = 0x05,
    /// `HELLO` accepted: echoed versions, granted encoding, zone count.
    HelloOk = 0x81,
    /// Per-batch ack with this batch's coalescing/loss share.
    BatchOk = 0x82,
    /// A [`QueryResponse`], bit-exact.
    Location = 0x83,
    /// The [`NetStats`] snapshot.
    StatsOk = 0x84,
    /// Close acknowledged; the server ends the connection after this.
    ByeOk = 0x85,
}

impl FrameKind {
    /// Parses a wire kind byte.
    pub fn from_u8(b: u8) -> Result<Self, CodecError> {
        match b {
            0x01 => Ok(FrameKind::Hello),
            0x02 => Ok(FrameKind::Batch),
            0x03 => Ok(FrameKind::Query),
            0x04 => Ok(FrameKind::Stats),
            0x05 => Ok(FrameKind::Bye),
            0x81 => Ok(FrameKind::HelloOk),
            0x82 => Ok(FrameKind::BatchOk),
            0x83 => Ok(FrameKind::Location),
            0x84 => Ok(FrameKind::StatsOk),
            0x85 => Ok(FrameKind::ByeOk),
            other => Err(CodecError::UnknownKind(other)),
        }
    }
}

/// Why a byte stream failed to decode. Every variant is a protocol
/// violation by the peer (or corruption in transit) — the connection is
/// closed and counted, the shared service is untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A frame's length prefix exceeded the decoder's ceiling.
    Oversize {
        /// Claimed body length.
        len: usize,
        /// The decoder's configured ceiling.
        max: usize,
    },
    /// An unrecognized frame kind byte.
    UnknownKind(u8),
    /// A `HELLO` body that does not open with [`MAGIC`].
    BadMagic,
    /// The peer speaks an unsupported frame-protocol version.
    BadProtoVersion(u32),
    /// The peer speaks an unsupported payload wire version.
    BadWireVersion(u32),
    /// An unrecognized [`Encoding`] byte.
    BadEncoding(u8),
    /// An unrecognized [`QueryResponse`] discriminant.
    BadResponseKind(u8),
    /// A body ended before its fields did.
    Truncated {
        /// Bytes the next field needed.
        need: usize,
        /// Bytes the body had left.
        have: usize,
    },
    /// A body had bytes left over after its last field.
    TrailingBytes(usize),
    /// A JSON batch body was not valid UTF-8.
    BadUtf8,
    /// A binary batch event carried a non-finite `time` or `rssi` (the
    /// binary twin of [`vire_core::WireError::NotFinite`]).
    NotFinite {
        /// Which field was non-finite.
        field: &'static str,
        /// Index of the offending event within the batch.
        index: usize,
    },
    /// The stream ended (EOF) with a partial frame still buffered.
    TruncatedStream {
        /// Bytes of the partial frame that had arrived.
        buffered: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds ceiling {max}")
            }
            CodecError::UnknownKind(b) => write!(f, "unknown frame kind {b:#04x}"),
            CodecError::BadMagic => write!(f, "HELLO does not open with the VIRE magic"),
            CodecError::BadProtoVersion(v) => {
                write!(
                    f,
                    "unsupported frame protocol version {v} (want {PROTO_VERSION})"
                )
            }
            CodecError::BadWireVersion(v) => write!(f, "unsupported payload wire version {v}"),
            CodecError::BadEncoding(b) => write!(f, "unknown encoding byte {b}"),
            CodecError::BadResponseKind(b) => write!(f, "unknown query-response kind {b}"),
            CodecError::Truncated { need, have } => {
                write!(
                    f,
                    "body truncated: next field needs {need} bytes, {have} left"
                )
            }
            CodecError::TrailingBytes(n) => write!(f, "body has {n} trailing bytes"),
            CodecError::BadUtf8 => write!(f, "JSON batch body is not valid UTF-8"),
            CodecError::NotFinite { field, index } => {
                write!(f, "batch event {index} has non-finite {field}")
            }
            CodecError::TruncatedStream { buffered } => {
                write!(f, "stream ended mid-frame ({buffered} bytes buffered)")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// One decoded frame: its kind and an in-place view of its body inside
/// the decoder's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The frame kind from the header.
    pub kind: FrameKind,
    /// The body bytes (length taken from the header prefix).
    pub body: &'a [u8],
}

/// Incremental frame reassembly over one reusable buffer.
///
/// Feed bytes with [`FrameDecoder::read_from`] (sockets) or
/// [`FrameDecoder::push`] (tests), then drain complete frames with
/// [`FrameDecoder::next_frame`]. Partial frames stay buffered across
/// arbitrarily unkind read boundaries — byte-at-a-time delivery
/// reassembles identically to one big read (pinned by property tests).
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte; bytes before it are dead and
    /// compacted away on the next read.
    start: usize,
    max_frame: usize,
}

/// Socket read granularity: how much spare tail `read_from` offers the
/// kernel per call.
const READ_CHUNK: usize = 64 * 1024;

impl FrameDecoder {
    /// A decoder that rejects frames whose body exceeds `max_frame`.
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Appends raw bytes (test/bench entry point; sockets use
    /// [`FrameDecoder::read_from`]).
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `r` into the buffer's spare tail. Returns the
    /// byte count (`0` means EOF). The buffer is compacted first, so
    /// steady-state reads reuse the same allocation.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.compact();
        let old = self.buf.len();
        self.buf.resize(old + READ_CHUNK, 0);
        match r.read(&mut self.buf[old..]) {
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e)
            }
        }
    }

    /// Yields the next complete frame, or `Ok(None)` when more bytes are
    /// needed. The returned view borrows the internal buffer; it is
    /// consumed immediately (the next call moves past it).
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, CodecError> {
        let avail = self.buf.len() - self.start;
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let h = &self.buf[self.start..];
        let len = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
        if len > self.max_frame {
            return Err(CodecError::Oversize {
                len,
                max: self.max_frame,
            });
        }
        let kind = FrameKind::from_u8(h[4])?;
        if avail < HEADER_LEN + len {
            return Ok(None);
        }
        let body_start = self.start + HEADER_LEN;
        self.start = body_start + len;
        Ok(Some(Frame {
            kind,
            body: &self.buf[body_start..body_start + len],
        }))
    }

    /// The EOF verdict: clean if the stream ended on a frame boundary,
    /// [`CodecError::TruncatedStream`] if a partial frame was buffered.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.pending() {
            0 => Ok(()),
            buffered => Err(CodecError::TruncatedStream { buffered }),
        }
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// A parsed `HELLO` body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Payload wire version the gateway will send (v1/v2 accepted).
    pub wire_version: u32,
    /// Requested batch-body encoding.
    pub encoding: Encoding,
}

/// A parsed `HELLO_OK` body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloOk {
    /// Wire version the server pinned for the connection.
    pub wire_version: u32,
    /// Encoding the server granted (always the requested one today).
    pub encoding: Encoding,
    /// How many zone shards the deployment routes into.
    pub zones: u32,
}

/// A parsed `BATCH_OK` body: the batch's share of the loss accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchAck {
    /// Events decoded and accepted from the batch frame.
    pub accepted: u32,
    /// Events left after collapsing the batch to the newest reading per
    /// `(tag, reader)`; these were routed to the zone rings.
    pub survivors: u32,
    /// Events merged away by that collapse.
    pub coalesced: u64,
    /// Events hard-dropped before reaching a zone ring. Always 0 from this
    /// server: a connection holds no ring, and the frame-length ceiling
    /// already bounds a batch.
    pub lagged: u64,
    /// Whether this batch's routed zones were driven before the ack
    /// (false only when another gateway held a zone's pipeline lock —
    /// that driver or the next one picks the survivors up).
    pub drove: bool,
}

/// A parsed `QUERY` body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryFrame {
    /// Zone shard being asked.
    pub zone: u32,
    /// The question itself (tag lifetime + query time).
    pub query: LocationQuery,
}

/// Strict little-endian body reader: every read is bounds-checked into
/// [`CodecError::Truncated`], and [`BodyReader::finish`] rejects
/// trailing bytes.
struct BodyReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(body: &'a [u8]) -> Self {
        BodyReader { body, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let have = self.body.len() - self.pos;
        if have < n {
            return Err(CodecError::Truncated { need: n, have });
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> Result<(), CodecError> {
        match self.body.len() - self.pos {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// Decodes a `HELLO` body, validating magic and versions.
pub fn decode_hello(body: &[u8]) -> Result<Hello, CodecError> {
    let mut r = BodyReader::new(body);
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let proto = r.u32()?;
    if proto != PROTO_VERSION {
        return Err(CodecError::BadProtoVersion(proto));
    }
    let wire = r.u32()?;
    if !(vire_core::ingest::WIRE_MIN_VERSION..=vire_core::ingest::WIRE_VERSION).contains(&wire) {
        return Err(CodecError::BadWireVersion(wire));
    }
    let encoding = Encoding::from_u8(r.u8()?)?;
    r.finish()?;
    Ok(Hello {
        wire_version: wire,
        encoding,
    })
}

/// Decodes a `HELLO_OK` body.
pub fn decode_hello_ok(body: &[u8]) -> Result<HelloOk, CodecError> {
    let mut r = BodyReader::new(body);
    let wire = r.u32()?;
    let encoding = Encoding::from_u8(r.u8()?)?;
    let zones = r.u32()?;
    r.finish()?;
    Ok(HelloOk {
        wire_version: wire,
        encoding,
        zones,
    })
}

/// Decodes a binary `BATCH` body into `out` (appended). Returns the
/// event count. Every `f64` is reconstructed from its exact bit image,
/// and a non-finite `time` or `rssi` fails the whole frame, as the JSON
/// path does: downstream smoothing and the calibration map assume
/// finite numbers.
pub fn decode_batch_events(body: &[u8], out: &mut Vec<BeaconEvent>) -> Result<usize, CodecError> {
    let mut r = BodyReader::new(body);
    let count = r.u32()? as usize;
    // The count field is peer-controlled and the frame-length ceiling
    // does not bound it: a tiny body claiming `u32::MAX` events must be
    // rejected *before* the reservation, or the decoder would attempt a
    // ~100 GiB allocation whose failure aborts the whole process instead
    // of closing one connection.
    let have = body.len() - 4;
    if count > have / EVENT_LEN {
        return Err(CodecError::Truncated {
            need: count.saturating_mul(EVENT_LEN),
            have,
        });
    }
    out.reserve(count);
    for index in 0..count {
        let time = r.f64()?;
        let tag = TagKey::unpack(r.u64()?);
        let reader = r.u32()?;
        let rssi = r.f64()?;
        for (field, value) in [("time", time), ("rssi", rssi)] {
            if !value.is_finite() {
                return Err(CodecError::NotFinite { field, index });
            }
        }
        out.push(BeaconEvent {
            time,
            tag,
            reader,
            rssi,
        });
    }
    r.finish()?;
    Ok(count)
}

/// Decodes a `BATCH_OK` body.
pub fn decode_batch_ok(body: &[u8]) -> Result<BatchAck, CodecError> {
    let mut r = BodyReader::new(body);
    let ack = BatchAck {
        accepted: r.u32()?,
        survivors: r.u32()?,
        coalesced: r.u64()?,
        lagged: r.u64()?,
        drove: r.u8()? != 0,
    };
    r.finish()?;
    Ok(ack)
}

/// Decodes a `QUERY` body.
pub fn decode_query(body: &[u8]) -> Result<QueryFrame, CodecError> {
    let mut r = BodyReader::new(body);
    let zone = r.u32()?;
    let tag = TagKey::unpack(r.u64()?);
    let at = r.f64()?;
    r.finish()?;
    Ok(QueryFrame {
        zone,
        query: LocationQuery { tag, at },
    })
}

/// Decodes a `LOCATION` body into the [`QueryResponse`] it encodes,
/// bit-identical to the server-side value.
pub fn decode_location(body: &[u8]) -> Result<QueryResponse, CodecError> {
    let mut r = BodyReader::new(body);
    let resp = match r.u8()? {
        0 => QueryResponse::Unknown,
        1 => QueryResponse::Fresh {
            position: Point2 {
                x: r.f64()?,
                y: r.f64()?,
            },
            velocity: Vec2 {
                x: r.f64()?,
                y: r.f64()?,
            },
            sigma: (r.f64()?, r.f64()?),
            age: r.f64()?,
        },
        2 => QueryResponse::Stale {
            position: Point2 {
                x: r.f64()?,
                y: r.f64()?,
            },
            age: r.f64()?,
        },
        other => return Err(CodecError::BadResponseKind(other)),
    };
    r.finish()?;
    Ok(resp)
}

/// Decodes a `STATS_OK` body.
pub fn decode_stats_ok(body: &[u8]) -> Result<NetStats, CodecError> {
    let mut r = BodyReader::new(body);
    let s = NetStats {
        accepted: r.u64()?,
        delivered: r.u64()?,
        coalesced: r.u64()?,
        lagged: r.u64()?,
        protocol_errors: r.u64()?,
        accept_errors: r.u64()?,
        connections: r.u64()?,
        frames: r.u64()?,
        queries: r.u64()?,
    };
    r.finish()?;
    Ok(s)
}

/// Frame assembler + batched writer for one connection's outbound side.
///
/// Frames accumulate back-to-back in one reusable buffer;
/// [`FrameSink::flush_to`] hands the whole burst to the kernel in as few
/// writes as it will take. Length prefixes are back-patched when each
/// frame ends, so bodies are serialized straight into place — no
/// per-frame allocation in the steady state.
#[derive(Debug, Default)]
pub struct FrameSink {
    buf: Vec<u8>,
}

impl FrameSink {
    /// An empty sink.
    pub fn new() -> Self {
        FrameSink::default()
    }

    /// Queued bytes.
    pub fn byte_count(&self) -> usize {
        self.buf.len()
    }

    /// Whether anything is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The queued bytes, in wire order (test/bench access; sockets use
    /// [`FrameSink::flush_to`]).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drops everything queued without writing it.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    fn begin(&mut self, kind: FrameKind) -> usize {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0, 0, 0, 0, kind as u8]);
        start
    }

    fn end(&mut self, start: usize) {
        let len = (self.buf.len() - start - HEADER_LEN) as u32;
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Queues a `HELLO`.
    pub fn hello(&mut self, wire_version: u32, encoding: Encoding) {
        let s = self.begin(FrameKind::Hello);
        self.buf.extend_from_slice(&MAGIC);
        self.put_u32(PROTO_VERSION);
        self.put_u32(wire_version);
        self.put_u8(encoding.as_u8());
        self.end(s);
    }

    /// Queues a `HELLO_OK`.
    pub fn hello_ok(&mut self, granted: HelloOk) {
        let s = self.begin(FrameKind::HelloOk);
        self.put_u32(granted.wire_version);
        self.put_u8(granted.encoding.as_u8());
        self.put_u32(granted.zones);
        self.end(s);
    }

    /// Queues a binary `BATCH` of packed events.
    pub fn batch_events(&mut self, events: &[BeaconEvent]) {
        let s = self.begin(FrameKind::Batch);
        self.put_u32(events.len() as u32);
        for e in events {
            self.put_f64(e.time);
            self.put_u64(e.tag.pack());
            self.put_u32(e.reader);
            self.put_f64(e.rssi);
        }
        self.end(s);
    }

    /// Queues a JSON `BATCH` carrying a trace-schema payload verbatim.
    pub fn batch_json(&mut self, json: &str) {
        let s = self.begin(FrameKind::Batch);
        self.buf.extend_from_slice(json.as_bytes());
        self.end(s);
    }

    /// Queues a `BATCH_OK`.
    pub fn batch_ok(&mut self, ack: BatchAck) {
        let s = self.begin(FrameKind::BatchOk);
        self.put_u32(ack.accepted);
        self.put_u32(ack.survivors);
        self.put_u64(ack.coalesced);
        self.put_u64(ack.lagged);
        self.put_u8(ack.drove as u8);
        self.end(s);
    }

    /// Queues a `QUERY`.
    pub fn query(&mut self, zone: u32, q: LocationQuery) {
        let s = self.begin(FrameKind::Query);
        self.put_u32(zone);
        self.put_u64(q.tag.pack());
        self.put_f64(q.at);
        self.end(s);
    }

    /// Queues a `LOCATION` reply, preserving every `f64` bit-for-bit.
    pub fn location(&mut self, resp: &QueryResponse) {
        let s = self.begin(FrameKind::Location);
        match resp {
            QueryResponse::Unknown => self.put_u8(0),
            QueryResponse::Fresh {
                position,
                velocity,
                sigma,
                age,
            } => {
                self.put_u8(1);
                self.put_f64(position.x);
                self.put_f64(position.y);
                self.put_f64(velocity.x);
                self.put_f64(velocity.y);
                self.put_f64(sigma.0);
                self.put_f64(sigma.1);
                self.put_f64(*age);
            }
            QueryResponse::Stale { position, age } => {
                self.put_u8(2);
                self.put_f64(position.x);
                self.put_f64(position.y);
                self.put_f64(*age);
            }
        }
        self.end(s);
    }

    /// Queues a `STATS` request.
    pub fn stats(&mut self) {
        let s = self.begin(FrameKind::Stats);
        self.end(s);
    }

    /// Queues a `STATS_OK`.
    pub fn stats_ok(&mut self, stats: NetStats) {
        let s = self.begin(FrameKind::StatsOk);
        self.put_u64(stats.accepted);
        self.put_u64(stats.delivered);
        self.put_u64(stats.coalesced);
        self.put_u64(stats.lagged);
        self.put_u64(stats.protocol_errors);
        self.put_u64(stats.accept_errors);
        self.put_u64(stats.connections);
        self.put_u64(stats.frames);
        self.put_u64(stats.queries);
        self.end(s);
    }

    /// Queues a `BYE`.
    pub fn bye(&mut self) {
        let s = self.begin(FrameKind::Bye);
        self.end(s);
    }

    /// Queues a `BYE_OK`.
    pub fn bye_ok(&mut self) {
        let s = self.begin(FrameKind::ByeOk);
        self.end(s);
    }

    /// Writes every queued frame to `w`, looping over partial writes, and
    /// returns the bytes this call wrote. On an error the written prefix
    /// is dropped and the unwritten tail stays queued, so a caller whose
    /// socket write timed out can call `flush_to` again to resume.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let mut written = 0;
        let result = loop {
            if written == self.buf.len() {
                break Ok(written);
            }
            match w.write(&self.buf[written..]) {
                Ok(0) => break Err(io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.buf.drain(..written);
        result
    }
}
