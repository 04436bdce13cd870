//! [`NetServer`]: the listener + thread-per-gateway connection model.
//!
//! ## Connection model
//!
//! One acceptor thread owns the listener; every gateway connection gets
//! its own service thread (the `WorkerPool` idiom of persistent named
//! threads — zone drives performed on a connection thread still fan
//! localization out through [`vire_core::WorkerPool::global`]). The
//! acceptor joins finished connection threads as new gateways arrive, so
//! a gateway that reconnects in a loop cannot grow the handle list. Each
//! connection owns its decode state end-to-end: a [`FrameDecoder`], a
//! [`FrameSink`], and a scratch buffer in which each batch is validated
//! and collapsed to the newest reading per `(tag, reader)`
//! ([`coalesce_newest`]) without any shared lock. A connection holds no
//! ring: nothing it buffers outlives the frame in flight.
//!
//! ## Shard routing
//!
//! Survivors of the collapse are routed by campus-frame reader id
//! ([`ReaderRoute`]: contiguous global id blocks, one per zone) into
//! that zone's shard: a mutex-guarded ingest ring — the one ring on the
//! TCP path — feeding an [`IngestServer`] pipeline behind a `RwLock`.
//! The routing thread appends to the ring (short critical section), then
//! *tries* to take the zone's drive lock — if another gateway is already
//! driving the zone, the survivors are safely parked in the ring for
//! that (or the next) driver, which hands the drained batch straight to
//! [`IngestServer::drive_batch`]. Queries take the zone's read lock: they
//! run concurrently with each other and only wait out an actual drive
//! of the same zone.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] flips the stop latch, joins the acceptor and
//! every connection thread (each drains frames already buffered before
//! exiting), then flushes every shard ring through its pipeline so the
//! final [`NetStats`] is exactly balanced. Reply writes time out every
//! poll interval, so a gateway that stops reading its replies holds its
//! connection thread only until the stop latch is set.

use crate::codec::{
    decode_batch_events, decode_hello, decode_query, BatchAck, Encoding, FrameDecoder, FrameKind,
    FrameSink, HelloOk, MAX_FRAME_LEN,
};
use crate::NetStats;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use vire_core::{
    coalesce_newest, ingest::parse_wire_versioned, BeaconEvent, IngestFrontEnd, Localizer,
};
use vire_sim::trace::TraceError;
use vire_sim::{IngestServer, ServeConfig, Trace};

/// Serving-fabric configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Ring shape of the zone rings (and of each zone pipeline's own
    /// front end, which the TCP path bypasses); location-service and
    /// smoothing tuning per zone.
    pub serve: ServeConfig,
    /// Ceiling on one frame's body length (a bad length prefix above it
    /// is a protocol error, never an allocation).
    pub max_frame_len: usize,
    /// How often blocked reads and reply writes wake to check the stop
    /// latch.
    pub poll_interval: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            serve: ServeConfig::default(),
            max_frame_len: MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// Why a server failed to stand up.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure (bind, listen, thread spawn).
    Io(io::Error),
    /// A zone trace's deployment metadata was unusable.
    Trace(TraceError),
    /// No zone traces were supplied.
    NoZones,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "socket error: {e}"),
            ServerError::Trace(e) => write!(f, "zone trace error: {e}"),
            ServerError::NoZones => write!(f, "a deployment needs at least one zone trace"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<TraceError> for ServerError {
    fn from(e: TraceError) -> Self {
        ServerError::Trace(e)
    }
}

/// Campus-frame reader routing: global reader ids are contiguous blocks,
/// one block per zone in deployment order (zone 0 owns `0..n₀`, zone 1
/// owns `n₀..n₀+n₁`, …). Resolving a global id yields the owning zone
/// and the reader's zone-local id — the same campus→zone frame mapping
/// `MultiZoneTestbed` uses for tags.
#[derive(Debug, Clone)]
pub struct ReaderRoute {
    /// `starts[z]` = first global id of zone `z`, plus one sentinel
    /// holding the total, so `starts.windows(2)` brackets every zone.
    starts: Vec<u32>,
}

impl ReaderRoute {
    /// A route over per-zone reader counts, in deployment order.
    pub fn from_zone_sizes(sizes: &[usize]) -> Self {
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0u32;
        starts.push(0);
        for &n in sizes {
            acc += n as u32;
            starts.push(acc);
        }
        ReaderRoute { starts }
    }

    /// Zone count.
    pub fn zones(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total routable readers across the campus.
    pub fn readers(&self) -> u32 {
        *self.starts.last().expect("route always has a sentinel")
    }

    /// First global reader id owned by `zone`.
    pub fn zone_base(&self, zone: usize) -> u32 {
        self.starts[zone]
    }

    /// Resolves a global reader id to `(zone, zone-local reader id)`;
    /// `None` for ids outside every zone's block.
    pub fn resolve(&self, global: u32) -> Option<(u32, u32)> {
        // Zones are few (single digits); a linear scan beats a binary
        // search's branch misses and needs no per-event setup.
        let zone = self
            .starts
            .windows(2)
            .position(|w| (w[0]..w[1]).contains(&global))?;
        Some((zone as u32, global - self.starts[zone]))
    }
}

/// One zone's shard: the parking ring survivors are routed into, and the
/// pipeline that drains it. Ring and pipeline are locked independently,
/// so routing (a short append) never waits on a drive in progress.
struct ZoneShard<L: Localizer> {
    ring: Mutex<IngestFrontEnd>,
    pipeline: RwLock<IngestServer<L>>,
}

/// State shared by the acceptor, every connection thread, and the
/// owning [`NetServer`] handle.
struct Shared<L: Localizer> {
    zones: Vec<ZoneShard<L>>,
    route: ReaderRoute,
    config: NetConfig,
    stop: AtomicBool,
    accepted: AtomicU64,
    conn_coalesced: AtomicU64,
    protocol_errors: AtomicU64,
    accept_errors: AtomicU64,
    connections: AtomicU64,
    frames: AtomicU64,
    queries: AtomicU64,
}

impl<L: Localizer> Shared<L> {
    // Lock recovery: a connection thread that panics mid-drive is its
    // own failure domain — it closes one socket. Poisoning must never
    // wedge the shared zone, so every guard recovers via `into_inner`.

    fn pipeline_write(&self, zone: usize) -> RwLockWriteGuard<'_, IngestServer<L>> {
        self.zones[zone]
            .pipeline
            .write()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn pipeline_read(&self, zone: usize) -> std::sync::RwLockReadGuard<'_, IngestServer<L>> {
        self.zones[zone]
            .pipeline
            .read()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn ring_lock(&self, zone: usize) -> std::sync::MutexGuard<'_, IngestFrontEnd> {
        self.zones[zone]
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Drains `zone`'s parking ring and drives the batch through a held
    /// pipeline guard. The ring lock is taken *after* the pipeline lock
    /// and released before the drive — append-side threads never queue
    /// behind localization work.
    fn drive_zone(&self, zone: usize, pipe: &mut IngestServer<L>) {
        let parked = self.ring_lock(zone).drain();
        pipe.drive_batch(parked);
    }

    /// Flushes every shard so the accounting identity holds exactly.
    fn flush_all(&self) {
        for z in 0..self.zones.len() {
            let mut pipe = self.pipeline_write(z);
            self.drive_zone(z, &mut pipe);
        }
    }

    /// Folds the connection counters and every zone ring's accounting
    /// into one ledger.
    fn stats(&self) -> NetStats {
        let mut s = NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            coalesced: self.conn_coalesced.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            ..NetStats::default()
        };
        for z in 0..self.zones.len() {
            let ring = self.ring_lock(z).stats();
            s.coalesced += ring.coalesced_in_ring + ring.coalesced_in_batch;
            s.lagged += ring.lagged;
            // Final survivors: what the ring handed to the pipeline.
            s.delivered += ring.delivered - ring.coalesced_in_batch;
        }
        s
    }
}

/// The TCP serving fabric. See the [module docs](self).
pub struct NetServer<L: Localizer + Send + 'static> {
    shared: Arc<Shared<L>>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<L: Localizer + Send + 'static> std::fmt::Debug for NetServer<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("zones", &self.shared.zones.len())
            .finish()
    }
}

impl<L: Localizer + Send + 'static> NetServer<L> {
    /// Binds `addr` and stands up one zone pipeline per trace (geometry
    /// only — readings stream in over connections). `localizer(zone)`
    /// supplies each zone's kernel; the reader route assigns each zone a
    /// contiguous global reader-id block in trace order.
    pub fn from_traces(
        addr: impl ToSocketAddrs,
        traces: &[Trace],
        mut localizer: impl FnMut(usize) -> L,
        config: NetConfig,
    ) -> Result<Self, ServerError> {
        if traces.is_empty() {
            return Err(ServerError::NoZones);
        }
        let mut zones = Vec::with_capacity(traces.len());
        let mut sizes = Vec::with_capacity(traces.len());
        for (z, trace) in traces.iter().enumerate() {
            sizes.push(trace.readers.len());
            zones.push(ZoneShard {
                ring: Mutex::new(IngestFrontEnd::new(config.serve.ingest)),
                pipeline: RwLock::new(IngestServer::from_trace(
                    trace,
                    localizer(z),
                    config.serve.clone(),
                )?),
            });
        }
        let route = ReaderRoute::from_zone_sizes(&sizes);
        Self::bind(addr, zones, route, config)
    }

    fn bind(
        addr: impl ToSocketAddrs,
        zones: Vec<ZoneShard<L>>,
        route: ReaderRoute,
        config: NetConfig,
    ) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            zones,
            route,
            config,
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            conn_coalesced: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("vire-net-accept".into())
                .spawn(move || accept_loop(listener, shared, conns))
                .map_err(ServerError::Io)?
        };
        Ok(NetServer {
            shared,
            addr,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Zone count.
    pub fn zones(&self) -> usize {
        self.shared.zones.len()
    }

    /// The campus-frame reader route.
    pub fn route(&self) -> &ReaderRoute {
        &self.shared.route
    }

    /// A live accounting snapshot (may be transiently unbalanced while
    /// survivors are parked in shard rings — see [`NetStats::balanced`]).
    pub fn stats(&self) -> NetStats {
        self.shared.stats()
    }

    /// Stops accepting, joins every connection thread (each drains what
    /// it already buffered), flushes all shard rings, and returns the
    /// final — exactly balanced — accounting.
    pub fn shutdown(mut self) -> NetStats {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> NetStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The acceptor was the only pusher and it has exited; drain the
        // handle list it left behind.
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        self.shared.flush_all();
        self.shared.stats()
    }
}

impl<L: Localizer + Send + 'static> Drop for NetServer<L> {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_in_place();
        }
    }
}

fn accept_loop<L: Localizer + Send + 'static>(
    listener: TcpListener,
    shared: Arc<Shared<L>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_id = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let id = next_id;
                next_id += 1;
                let spawned = std::thread::Builder::new()
                    .name(format!("vire-net-conn-{id}"))
                    .spawn({
                        let shared = Arc::clone(&shared);
                        move || serve_conn(&shared, stream)
                    });
                match spawned {
                    Ok(h) => {
                        let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
                        reap_finished(&mut conns);
                        conns.push(h);
                    }
                    // The gateway was dropped with the unspawned closure;
                    // count it like any other failure to admit one.
                    Err(_) => {
                        shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // The listener is non-blocking, so WouldBlock is the normal
            // idle tick. Anything else — EMFILE, a dead listener — is a
            // real failure: count it so a stats snapshot surfaces a
            // listener that has silently stopped admitting gateways,
            // then back off so a persistent error cannot spin hot.
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.poll_interval)
            }
            Err(_) => {
                shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(shared.config.poll_interval);
            }
        }
    }
}

/// Joins and drops every connection thread that has already exited.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    let (done, live): (Vec<_>, Vec<_>) = std::mem::take(conns)
        .into_iter()
        .partition(JoinHandle::is_finished);
    *conns = live;
    for h in done {
        let _ = h.join();
    }
}

/// Why one connection's serve loop ended. `Protocol` is the only ending
/// counted against the gateway.
enum ConnEnd {
    /// `BYE` handshake completed, or peer closed on a frame boundary,
    /// or the server drained and shut down.
    Clean,
    /// The peer violated the protocol (codec, wire, or routing error).
    Protocol,
    /// Transport-level I/O error mid-stream, or replies the gateway
    /// stopped reading when the server shut down.
    Io,
}

/// Per-connection mutable state *other than* the decoder — split out so
/// a frame body borrowed from the decoder can be handled while this
/// half is mutated. Everything here is reused across frames, so the
/// steady state allocates nothing.
struct ConnState {
    sink: FrameSink,
    /// Decoded events of the frame in flight, collapsed in place before
    /// they are routed.
    scratch: Vec<BeaconEvent>,
    /// Per-zone survivor runs for the frame in flight.
    runs: Vec<Vec<BeaconEvent>>,
    encoding: Option<Encoding>,
    /// The wire version pinned at `HELLO`. A JSON batch whose payload
    /// claims a *newer* version than the connection negotiated is a
    /// protocol error; older payloads are accepted (the version gate is
    /// a feature ceiling, and existing traces must replay unchanged).
    wire_version: u32,
}

fn serve_conn<L: Localizer>(shared: &Shared<L>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.config.poll_interval));
    let mut decoder = FrameDecoder::new(shared.config.max_frame_len);
    let mut st = ConnState {
        sink: FrameSink::new(),
        scratch: Vec::new(),
        runs: (0..shared.zones.len()).map(|_| Vec::new()).collect(),
        encoding: None,
        wire_version: vire_core::ingest::WIRE_VERSION,
    };
    let end = conn_loop(shared, &mut stream, &mut decoder, &mut st);
    if matches!(end, ConnEnd::Protocol) {
        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
    let _ = stream.flush();
    // Dropping the stream closes only this gateway's connection; the
    // shared zone state was only ever touched through recovered locks.
}

fn conn_loop<L: Localizer>(
    shared: &Shared<L>,
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    st: &mut ConnState,
) -> ConnEnd {
    loop {
        // Drain every complete frame already buffered before reading
        // again — on shutdown this is what "drain in-flight frames"
        // means: everything the gateway got onto the wire is processed.
        loop {
            let frame = match decoder.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => return ConnEnd::Protocol,
            };
            shared.frames.fetch_add(1, Ordering::Relaxed);
            match handle_frame(shared, st, frame.kind, frame.body) {
                Ok(done) => {
                    if flush_replies(shared, &mut st.sink, stream).is_err() {
                        return ConnEnd::Io;
                    }
                    if done {
                        return ConnEnd::Clean;
                    }
                }
                Err(()) => {
                    let _ = st.sink.flush_to(stream);
                    return ConnEnd::Protocol;
                }
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return ConnEnd::Clean;
        }
        match decoder.read_from(stream) {
            Ok(0) => {
                return match decoder.finish() {
                    Ok(()) => ConnEnd::Clean,
                    Err(_) => ConnEnd::Protocol,
                };
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                // Timeout tick: loop back around to check the stop latch.
            }
            Err(_) => return ConnEnd::Io,
        }
    }
}

/// Whether `e` is a socket timeout tick rather than a real failure.
fn is_timeout(e: &io::Error) -> bool {
    e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut
}

/// Writes the queued replies, riding out write-timeout ticks until the
/// stop latch is set: a gateway that stops reading can stall its own
/// connection, but never shutdown.
fn flush_replies<L: Localizer>(
    shared: &Shared<L>,
    sink: &mut FrameSink,
    stream: &mut TcpStream,
) -> io::Result<()> {
    loop {
        match sink.flush_to(stream) {
            Ok(_) => return Ok(()),
            Err(e) if is_timeout(&e) && !shared.stop.load(Ordering::SeqCst) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Handles one frame. `Ok(true)` ends the connection cleanly (`BYE`);
/// `Err(())` is a protocol violation (the caller counts and closes).
fn handle_frame<L: Localizer>(
    shared: &Shared<L>,
    st: &mut ConnState,
    kind: FrameKind,
    body: &[u8],
) -> Result<bool, ()> {
    // HELLO must come first and exactly once.
    match (st.encoding, kind) {
        (None, FrameKind::Hello) => {
            let hello = decode_hello(body).map_err(|_| ())?;
            st.encoding = Some(hello.encoding);
            st.wire_version = hello.wire_version;
            st.sink.hello_ok(HelloOk {
                wire_version: hello.wire_version,
                encoding: hello.encoding,
                zones: shared.zones.len() as u32,
            });
            return Ok(false);
        }
        (None, _) | (Some(_), FrameKind::Hello) => return Err(()),
        _ => {}
    }
    match kind {
        FrameKind::Batch => handle_batch(shared, st, body).map(|()| false),
        FrameKind::Query => {
            let q = decode_query(body).map_err(|_| ())?;
            let zone = q.zone as usize;
            if zone >= shared.zones.len() {
                return Err(());
            }
            let resp = shared.pipeline_read(zone).query(q.query);
            shared.queries.fetch_add(1, Ordering::Relaxed);
            st.sink.location(&resp);
            Ok(false)
        }
        FrameKind::Stats => {
            shared.flush_all();
            st.sink.stats_ok(shared.stats());
            Ok(false)
        }
        FrameKind::Bye => {
            st.sink.bye_ok();
            Ok(true)
        }
        // Server→client kinds arriving at the server are violations.
        _ => Err(()),
    }
}

/// Decodes, validates, collapses, routes, and drives one batch frame.
fn handle_batch<L: Localizer>(
    shared: &Shared<L>,
    st: &mut ConnState,
    body: &[u8],
) -> Result<(), ()> {
    st.scratch.clear();
    match st.encoding.expect("checked by caller") {
        Encoding::Binary => {
            decode_batch_events(body, &mut st.scratch).map_err(|_| ())?;
        }
        Encoding::Json => {
            let json = std::str::from_utf8(body).map_err(|_| ())?;
            let (version, events) = parse_wire_versioned(json).map_err(|_| ())?;
            // The HELLO-pinned wire version is a ceiling: a connection
            // that negotiated v1 must not smuggle v2 payloads past the
            // handshake. Older payloads stay accepted — traces recorded
            // at earlier versions replay unchanged on a current client.
            if version > st.wire_version {
                return Err(());
            }
            st.scratch.extend(events);
        }
    }
    // Validate routing *before* accepting, so a protocol error never
    // strands accepted events and the accounting identity stays exact.
    for e in &st.scratch {
        if shared.route.resolve(e.reader).is_none() {
            return Err(());
        }
    }
    let accepted = st.scratch.len();
    let coalesced = coalesce_newest(&mut st.scratch);
    let survivors = st.scratch.len();
    shared
        .accepted
        .fetch_add(accepted as u64, Ordering::Relaxed);
    shared
        .conn_coalesced
        .fetch_add(coalesced, Ordering::Relaxed);

    for e in st.scratch.drain(..) {
        let (zone, local) = shared
            .route
            .resolve(e.reader)
            .expect("validated before accept");
        st.runs[zone as usize].push(BeaconEvent { reader: local, ..e });
    }
    let mut drove = true;
    for zone in 0..st.runs.len() {
        if st.runs[zone].is_empty() {
            continue;
        }
        // Park survivors in the shard ring (short critical section;
        // never held while driving)…
        shared.ring_lock(zone).accept(st.runs[zone].drain(..));
        // …then try to become the zone's driver. Losing the race is
        // fine: the current driver (or the next) drains the ring.
        match shared.zones[zone].pipeline.try_write() {
            Ok(mut pipe) => shared.drive_zone(zone, &mut pipe),
            Err(std::sync::TryLockError::Poisoned(e)) => {
                shared.drive_zone(zone, &mut e.into_inner());
            }
            Err(std::sync::TryLockError::WouldBlock) => drove = false,
        }
    }
    st.sink.batch_ok(BatchAck {
        accepted: accepted as u32,
        survivors: survivors as u32,
        coalesced,
        lagged: 0,
        drove,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GatewayClient;
    use vire_core::Vire;
    use vire_geom::Point2;
    use vire_sim::TagId;

    /// A 2×2 reference lattice with four corner readers and no readings:
    /// enough geometry to stand one zone up.
    fn bare_zone() -> Trace {
        let readers = [
            Point2::new(-1.0, -1.0),
            Point2::new(2.0, -1.0),
            Point2::new(2.0, 2.0),
            Point2::new(-1.0, 2.0),
        ];
        let refs: Vec<(TagId, Point2)> = (0..4u32)
            .map(|k| {
                let p = Point2::new(f64::from(k % 2), f64::from(k / 2));
                (TagId::first(k), p)
            })
            .collect();
        Trace::new("bare zone", &readers, &refs, std::iter::empty())
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let config = NetConfig {
            poll_interval: Duration::from_millis(2),
            ..NetConfig::default()
        };
        let server =
            NetServer::from_traces("127.0.0.1:0", &[bare_zone()], |_| Vire::default(), config)
                .expect("bind loopback");
        for _ in 0..64 {
            GatewayClient::connect(server.local_addr(), Encoding::Binary)
                .expect("connect")
                .bye()
                .expect("clean close");
        }
        // The HELLO round trip proves the 65th thread was spawned.
        let last = GatewayClient::connect(server.local_addr(), Encoding::Binary).expect("connect");
        let held = server.conns.lock().expect("handle list").len();
        assert!(held <= 8, "{held} handles held after 65 connections");
        last.bye().expect("clean close");
        let stats = server.shutdown();
        assert_eq!(stats.connections, 65);
        assert_eq!(stats.accept_errors, 0);
    }
}
