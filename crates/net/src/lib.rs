//! The network serving fabric: TCP transport for the VIRE location
//! server.
//!
//! PR 9's [`vire_sim::IngestServer`] stops at the process boundary —
//! beacon bursts enter through in-process calls. This crate puts a real
//! socket in front of it, built entirely on `std::net` (the workspace is
//! offline/vendored — no async runtime):
//!
//! - [`codec`] — a length-prefixed binary frame protocol for beacon
//!   batches, location queries, and their replies. Wire v2 semantics are
//!   preserved exactly; trace-schema JSON is accepted as a negotiated
//!   fallback so existing traces replay unchanged. Decode runs out of a
//!   per-connection reusable buffer ([`FrameDecoder`]) so the steady
//!   state allocates nothing, and replies accumulate in a [`FrameSink`]
//!   that flushes whole bursts at once.
//! - [`server`] — [`NetServer`]: a listener plus thread-per-gateway
//!   connections. Each connection collapses its own batches to the
//!   newest reading per `(tag, reader)` ([`vire_core::coalesce_newest`]),
//!   so gateways never contend on a shared lock; survivors are routed by
//!   campus-frame reader id ([`ReaderRoute`]) into one ingest ring per
//!   zone, which feeds that zone's [`vire_sim::IngestServer`] pipeline.
//!   The ring keeps the newest reading per key as events arrive, so even
//!   a frame of more distinct keys than the ring's ceiling appends in
//!   O(1) per event under the zone's ring lock.
//! - [`client`] — [`GatewayClient`]: the load-generating counterpart
//!   used by the oracle tests, the `net_throughput` bench, and any
//!   external gateway.
//! - [`shutdown`] — a tiny SIGINT latch (no `libc` crate; direct
//!   `signal(2)` FFI) so `vire-repro serve --listen` can drain in-flight
//!   frames and print final accounting on ctrl-c.
//!
//! ## Loss accounting across the fabric
//!
//! The ingest identity — accepted == delivered + lagged + coalesced —
//! holds across the fabric from two sources: the connection counters
//! (events accepted, events merged by the per-batch collapse) and each
//! zone ring's [`vire_core::IngestStats`]. [`NetStats`] folds them into
//! one ledger and [`NetStats::balanced`] checks the identity; it holds
//! exactly whenever the zone rings are flushed (every `STATS` request and
//! every shutdown flushes them).
//!
//! ## Failure domains
//!
//! A malformed or truncated frame (bad length prefix, short read,
//! invalid wire version, unroutable reader) closes **only** that
//! gateway's connection and increments [`NetStats::protocol_errors`];
//! the shared zone state is never poisoned and other gateways stream on
//! undisturbed.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod codec;
pub mod server;
pub mod shutdown;

pub use client::{ClientError, GatewayClient};
pub use codec::{
    decode_batch_events, decode_batch_ok, decode_hello, decode_hello_ok, decode_location,
    decode_query, decode_stats_ok, BatchAck, CodecError, Encoding, Frame, FrameDecoder, FrameKind,
    FrameSink, Hello, HelloOk, QueryFrame, EVENT_LEN, HEADER_LEN, MAGIC, MAX_FRAME_LEN,
    PROTO_VERSION,
};
pub use server::{NetConfig, NetServer, ReaderRoute, ServerError};
pub use shutdown::{install_sigint, reset_sigint, sigint_pending, trigger_sigint};

use std::fmt;

/// Aggregated serving-fabric accounting: the connection-level atomics
/// plus every zone ring's [`vire_core::IngestStats`] folded into one
/// ledger. Snapshot via [`server::NetServer::stats`] or over the wire via
/// [`GatewayClient::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Beacon events accepted from gateway frames (post-decode,
    /// pre-coalescing).
    pub accepted: u64,
    /// Events that survived coalescing and were handed from a zone ring
    /// to its pipeline.
    pub delivered: u64,
    /// Events merged away by newest-per-`(tag, reader)` coalescing,
    /// either in a connection's per-batch collapse or in a zone ring.
    pub coalesced: u64,
    /// Events hard-dropped at a zone ring's ceiling.
    pub lagged: u64,
    /// Connections closed for protocol violations (malformed frame, bad
    /// length prefix, invalid wire version, unroutable reader, …).
    pub protocol_errors: u64,
    /// `accept(2)` failures other than the non-blocking listener's idle
    /// `WouldBlock` tick, plus accepted gateways dropped because their
    /// connection thread could not be spawned. A steadily climbing count
    /// means the server is unhealthy (fd or thread exhaustion, dead
    /// socket) — it keeps serving existing gateways but cannot admit new
    /// ones.
    pub accept_errors: u64,
    /// Gateway connections accepted over the server's lifetime.
    pub connections: u64,
    /// Frames processed across all connections.
    pub frames: u64,
    /// Location queries answered.
    pub queries: u64,
}

impl NetStats {
    /// Whether the loss-accounting identity
    /// `accepted == delivered + lagged + coalesced` holds. True whenever
    /// the shard rings have been flushed (after `STATS` or shutdown);
    /// mid-stream a snapshot may be transiently unbalanced because
    /// survivors are parked in a shard ring awaiting the next drive.
    pub fn balanced(&self) -> bool {
        self.accepted == self.delivered + self.lagged + self.coalesced
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accepted {} == delivered {} + lagged {} + coalesced {} ({}); \
             protocol_errors {}, accept_errors {}, connections {}, frames {}, queries {}",
            self.accepted,
            self.delivered,
            self.lagged,
            self.coalesced,
            if self.balanced() {
                "balanced"
            } else {
                "UNBALANCED"
            },
            self.protocol_errors,
            self.accept_errors,
            self.connections,
            self.frames,
            self.queries,
        )
    }
}
