//! The serving front end: wire-format ingest, burst coalescing, and
//! non-blocking location queries over one localization pipeline.
//!
//! [`IngestServer`] is the deployment-facing assembly of the streaming
//! stack. Beacon bursts enter through a [`vire_core::IngestFrontEnd`]
//! (raw events or trace-schema JSON), a ring that keeps the newest
//! reading per `(tag, reader)` as they arrive, and are drained in batches
//! straight into the classic pipeline — [`MiddlewareStage::ingest`] →
//! [`vire_core::LocationService::drive`]. Between
//! drives, [`IngestServer::query`] answers position questions from the
//! per-tag Kalman state in O(1) without touching (or blocking) ingestion.
//!
//! The server is built from a [`Trace`]'s deployment metadata
//! ([`Trace::infer_deployment`]), so a captured trace file is all it
//! takes to stand one up — no testbed required.
//!
//! ## Loss accounting
//!
//! Overload never loses readings silently. The front end's ring grows
//! (amortized doubling) up to its ceiling; there it gives up the
//! readings a newer same-`(tag, reader)` reading supersedes, the
//! incoming one's included, and drops the oldest only when the incoming
//! key is new and every buffered key is distinct. Every
//! superseded or dropped event lands in the [`DriveReport`] counters:
//! `delivered + lagged + coalesced` always equals the events accepted.
//! A coalesced drive is bit-identical to replaying only the surviving
//! readings (pinned by `tests/ingest.rs`). It equals a drive fed every
//! reading only under [`SmoothingKind::Raw`]: a windowed filter loses the
//! superseded readings. Under the default `Median(5)`, one `(tag, reader)`
//! fed −60, −70, −61, −75, −62, −80 smooths to −70.0 from every reading
//! and to −80.0 from the newest alone, and the `burst_flood` benchmark
//! workload coalesces about 84% of its events. ROADMAP.md direction 1
//! makes the collapse exact.

use crate::middleware::{Middleware, Reading};
use crate::pipeline::MiddlewareStage;
use crate::reader::ReaderId;
use crate::smoothing::SmoothingKind;
use crate::tag::TagId;
use crate::trace::{Trace, TraceError};
use vire_core::{
    parse_wire, BeaconEvent, IngestBatch, IngestConfig, IngestFrontEnd, IngestStats, LocalizeError,
    Localizer, LocationQuery, LocationService, QueryResponse, ServiceConfig, TagKey,
    TrackedEstimate, WireError,
};

/// Configuration for [`IngestServer`].
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Front-end ring shape and back-pressure ceiling.
    pub ingest: IngestConfig,
    /// Location service tuning (stale horizon, tracker, …).
    pub service: ServiceConfig,
    /// Middleware smoothing policy applied to drained readings.
    pub smoothing: SmoothingKind,
}

/// What one [`IngestServer::drive`] call consumed and produced.
#[derive(Debug, Clone, Default)]
pub struct DriveReport {
    /// Readings delivered into the pipeline this drive.
    pub delivered: usize,
    /// Readings hard-dropped by the front end since the last drive
    /// (ceiling reached by a new key with every buffered key distinct).
    pub lagged: u64,
    /// Readings superseded by a newer same-`(tag, reader)` reading —
    /// ring-policy and batch-dedup coalescing combined.
    pub coalesced: u64,
    /// Tags evicted from the middleware's full tag table this drive to
    /// make room for new ones (see [`crate::middleware::MAX_TAGS`]). The
    /// service retired each one's track in the same drive.
    pub evicted: usize,
    /// Localization results for the tags whose smoothed readings changed,
    /// in first-dirtied order.
    pub results: Vec<(TagKey, Result<TrackedEstimate, LocalizeError>)>,
}

/// A serving pipeline: ingest front end + middleware stage + location
/// service. See the [module docs](self).
#[derive(Debug)]
pub struct IngestServer<L: Localizer> {
    front: IngestFrontEnd,
    stage: MiddlewareStage,
    service: LocationService<L>,
    /// Readers the deployment has; events from any other reader id are
    /// skipped on accept.
    reader_count: u32,
}

impl<L: Localizer> IngestServer<L> {
    /// Stands up a server for the deployment recorded in `trace` (its
    /// readings are *not* ingested — the trace supplies geometry only;
    /// feed readings through [`IngestServer::accept`] /
    /// [`IngestServer::accept_json`]).
    ///
    /// # Panics
    /// Panics on a degenerate `config.ingest` ring shape (zero capacity
    /// or ceiling below the initial capacity), or on an invalid smoothing
    /// policy ([`SmoothingKind::check`]).
    pub fn from_trace(
        trace: &Trace,
        localizer: L,
        config: ServeConfig,
    ) -> Result<Self, TraceError> {
        let (grid, nodes) = trace.infer_deployment()?;
        let front = IngestFrontEnd::new(config.ingest);
        let readers = trace.reader_positions();
        let reader_count = readers.len() as u32;
        let mut stage =
            MiddlewareStage::detached(Middleware::new(config.smoothing, false), grid, readers);
        for (slot, idx) in nodes {
            stage.pin_reference(idx, TagId::first(slot));
        }
        Ok(IngestServer {
            front,
            stage,
            service: LocationService::new(localizer, config.service),
            reader_count,
        })
    }

    /// Queues a burst of raw beacon events. Returns how many were
    /// accepted (reference and tracking beacons alike). Events from a
    /// reader id the deployment lacks, or with a non-finite time or RSSI
    /// (see [`IngestFrontEnd::accept`]), are skipped and not counted.
    pub fn accept(&mut self, events: impl IntoIterator<Item = BeaconEvent>) -> usize {
        let reader_count = self.reader_count;
        self.front
            .accept(events.into_iter().filter(|e| e.reader < reader_count))
    }

    /// Queues a burst from trace-schema JSON (wire v1 or v2): either a
    /// bare array of readings or a `{"version": …, "readings": […]}`
    /// envelope. Skips events as [`IngestServer::accept`] does.
    pub fn accept_json(&mut self, json: &str) -> Result<usize, WireError> {
        Ok(self.accept(parse_wire(json)?))
    }

    /// Drains everything queued since the last drive through the
    /// pipeline: smoothing, calibration-map patching, and localization of
    /// exactly the tags whose smoothed readings changed.
    pub fn drive(&mut self) -> DriveReport {
        let batch = self.front.drain();
        self.drive_batch(batch)
    }

    /// Drives one batch already drained from an [`IngestFrontEnd`] (a
    /// transport's zone ring) through the pipeline, as [`IngestServer::drive`]
    /// does with its own front end's batch. Events queued through
    /// [`IngestServer::accept`] stay queued for the next `drive`.
    ///
    /// Every event in `batch` must come from a reader the deployment has
    /// (a transport's zone ring guarantees this by routing only known
    /// readers to the zone).
    pub fn drive_batch(&mut self, batch: IngestBatch) -> DriveReport {
        let ingested = self.stage.ingest(batch.readings.iter().map(|e| Reading {
            time: e.time,
            tag: TagId::new(e.tag.index, e.tag.generation),
            reader: ReaderId(e.reader),
            rssi: e.rssi,
        }));
        let results = self.service.drive(&mut self.stage);
        DriveReport {
            delivered: batch.readings.len(),
            lagged: batch.lagged,
            coalesced: batch.coalesced_in_ring + batch.coalesced_in_batch,
            evicted: ingested.evicted,
            results,
        }
    }

    /// Answers a location query from the per-tag Kalman state — O(1),
    /// no locks, no interaction with queued ingest. Fresh tracks are
    /// dead-reckoned to the queried time; evicted or churned-out tags
    /// answer [`QueryResponse::Stale`] from their tombstone.
    pub fn query(&self, q: LocationQuery) -> QueryResponse {
        self.service.query(q)
    }

    /// Cumulative front-end accounting since construction.
    pub fn ingest_stats(&self) -> IngestStats {
        self.front.stats()
    }

    /// Current front-end ring capacity.
    pub fn capacity(&self) -> usize {
        self.front.capacity()
    }

    /// Front-end ring capacity ceiling.
    pub fn front_max_capacity(&self) -> usize {
        self.front.max_capacity()
    }

    /// How many times the front-end ring has doubled.
    pub fn grown(&self) -> u64 {
        self.front.grown()
    }

    /// The location service (for estimate export and tuning inspection).
    pub fn service(&self) -> &LocationService<L> {
        &self.service
    }

    /// The middleware stage (for map export in tests and tools).
    pub fn stage_mut(&mut self) -> &mut MiddlewareStage {
        &mut self.stage
    }
}
