//! In-process replays of the batches a socket run sent.
//!
//! [`Replay`] performs, per batch, the calls `NetServer::handle_batch`
//! makes — encode, frame decode, reader validation, the connection's
//! `IngestFrontEnd`, `ReaderRoute`, the zone ring's `IngestFrontEnd` —
//! and hands each zone's parked survivors to a [`ZonePipeline`]. Two
//! pipelines exist:
//! * `IngestServer` itself, untraced: the reference a replay is checked
//!   against, and (for one gateway per zone) what a socket run must
//!   match bit for bit;
//! * [`MirrorZone`], the same pipeline assembled from public
//!   constructors exactly as `IngestServer::from_trace` composes it, so
//!   each layer call gets its own span. Its final answers must equal
//!   `IngestServer`'s bit for bit, which keeps the mirror from drifting.

use crate::trace::{Timed, TracedStage, Tracer};
use crate::workload::{Inputs, Stream};
use std::ops::Range;
use std::time::Instant;
use vire_bus::{BackPressure, EventBus};
use vire_core::{
    BeaconEvent, IngestFrontEnd, LocationQuery, LocationService, QueryResponse, SyncStats, Vire,
};
use vire_net::{decode_batch_events, FrameDecoder, FrameSink, NetConfig, ReaderRoute};
use vire_sim::{
    IngestServer, Middleware, MiddlewareStage, ReaderId, Reading, ServeConfig, TagId, Trace,
};

/// Work counted during a replay, for the per-layer ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Batches replayed.
    pub batches: u64,
    /// Events encoded.
    pub events: u64,
    /// Framed bytes encoded.
    pub bytes: u64,
    /// Events accepted by connection front ends.
    pub conn_in: u64,
    /// Events merged away by connection front ends.
    pub conn_coalesced: u64,
    /// Survivors routed into zone rings.
    pub ring_in: u64,
    /// Events merged away by zone rings.
    pub ring_coalesced: u64,
    /// Events accepted by pipeline fronts.
    pub front_in: u64,
    /// Events merged away by pipeline fronts.
    pub front_coalesced: u64,
    /// Readings published onto zone buses (and pumped off them).
    pub published: u64,
    /// Pumped readings whose smoothed value changed.
    pub changed: u64,
    /// `LocationService::drive` calls.
    pub drives: u64,
    /// Drives that located at least one tag.
    pub locating_drives: u64,
    /// Tags located.
    pub located: u64,
    /// Locate results that were errors.
    pub locate_errors: u64,
    /// Dirty calibration cells drained by drives.
    pub dirty_cells: u64,
}

/// One zone's pipeline behind the zone ring.
pub trait ZonePipeline {
    /// Accepts the survivors drained from the zone ring and drives the
    /// pipeline once.
    fn drive_parked(&mut self, parked: Vec<BeaconEvent>, tracer: &Tracer, counts: &mut Counts);
    /// Answers a location query.
    fn query(&self, q: LocationQuery) -> QueryResponse;
    /// How the zone's location service kept its prepared state.
    fn sync_stats(&self) -> SyncStats;
}

impl ZonePipeline for IngestServer<Vire> {
    fn drive_parked(&mut self, parked: Vec<BeaconEvent>, _: &Tracer, _: &mut Counts) {
        if !parked.is_empty() {
            self.accept(parked);
        }
        self.drive();
    }

    fn query(&self, q: LocationQuery) -> QueryResponse {
        IngestServer::query(self, q)
    }

    fn sync_stats(&self) -> SyncStats {
        self.service().sync_stats()
    }
}

/// `IngestServer`'s pipeline — front end, reading bus, middleware
/// stage, location service — held as separate parts.
#[derive(Debug)]
pub struct MirrorZone {
    front: IngestFrontEnd,
    bus: EventBus<Reading>,
    stage: MiddlewareStage,
    service: LocationService<Timed<Vire>>,
}

impl MirrorZone {
    /// Assembles the pipeline for `trace`'s deployment exactly as
    /// `IngestServer::from_trace` does.
    pub fn from_trace(trace: &Trace, localizer: Timed<Vire>, config: &ServeConfig) -> Self {
        let (grid, nodes) = trace
            .infer_deployment()
            .expect("generated zone traces tile the paper lattice");
        let bus = EventBus::resizable(
            config.ingest.initial_capacity,
            config.ingest.max_capacity,
            BackPressure::DropOldest,
        );
        let mut stage = MiddlewareStage::new(
            Middleware::new(config.smoothing, false),
            grid,
            trace.reader_positions(),
            bus.reader(),
        );
        for (slot, idx) in nodes {
            stage.pin_reference(idx, TagId::first(slot));
        }
        MirrorZone {
            front: IngestFrontEnd::new(config.ingest),
            bus,
            stage,
            service: LocationService::new(localizer, config.service),
        }
    }
}

impl ZonePipeline for MirrorZone {
    fn drive_parked(&mut self, parked: Vec<BeaconEvent>, tracer: &Tracer, counts: &mut Counts) {
        let front = &mut self.front;
        counts.front_in += parked.len() as u64;
        let batch = tracer.span("ingest.front", || {
            if !parked.is_empty() {
                front.accept(parked);
            }
            front.drain()
        });
        counts.front_coalesced += batch.coalesced_in_ring + batch.coalesced_in_batch;
        let bus = &mut self.bus;
        tracer.span("bus.publish", || {
            for e in &batch.readings {
                bus.publish(Reading {
                    time: e.time,
                    tag: TagId::new(e.tag.index, e.tag.generation),
                    reader: ReaderId(e.reader),
                    rssi: e.rssi,
                });
            }
        });
        let (stage, bus) = (&mut self.stage, &self.bus);
        let pumped = tracer.span("middleware.pump", || stage.pump(bus));
        counts.published += pumped.events as u64;
        counts.changed += pumped.changed as u64;
        let service = &mut self.service;
        let mut source = TracedStage {
            stage: &mut self.stage,
            tracer,
            dirty_cells: &mut counts.dirty_cells,
        };
        let results = tracer.span("service.drive", || service.drive(&mut source));
        counts.drives += 1;
        counts.locating_drives += u64::from(!results.is_empty());
        counts.located += results.len() as u64;
        counts.locate_errors += results.iter().filter(|(_, r)| r.is_err()).count() as u64;
    }

    fn query(&self, q: LocationQuery) -> QueryResponse {
        self.service.query(q)
    }

    fn sync_stats(&self) -> SyncStats {
        self.service.sync_stats()
    }
}

/// The untraced reference pipelines: one `IngestServer` per zone.
pub fn ingest_servers(inputs: &Inputs) -> Vec<IngestServer<Vire>> {
    inputs
        .zones
        .iter()
        .map(|t| {
            IngestServer::from_trace(t, Vire::default(), NetConfig::default().serve)
                .expect("generated zone traces tile the paper lattice")
        })
        .collect()
}

/// The traced mirror pipelines: one [`MirrorZone`] per zone.
pub fn mirror_zones(inputs: &Inputs, tracer: &Tracer) -> Vec<MirrorZone> {
    let serve = NetConfig::default().serve;
    inputs
        .zones
        .iter()
        .map(|t| MirrorZone::from_trace(t, Timed::new(Vire::default(), tracer.clone()), &serve))
        .collect()
}

/// A socket-free replay of gateway batches into per-zone pipelines.
pub struct Replay<P> {
    zones: Vec<P>,
    /// One connection front end per gateway, as on the server.
    conns: Vec<IngestFrontEnd>,
    rings: Vec<IngestFrontEnd>,
    route: ReaderRoute,
    sink: FrameSink,
    decoder: FrameDecoder,
    scratch: Vec<BeaconEvent>,
    runs: Vec<Vec<BeaconEvent>>,
    tracer: Tracer,
    /// Work done so far.
    pub counts: Counts,
}

impl<P: ZonePipeline> Replay<P> {
    /// A replay of `inputs`' gateways into `zones`, recording spans into
    /// `tracer`.
    pub fn new(inputs: &Inputs, zones: Vec<P>, tracer: Tracer) -> Self {
        let config = NetConfig::default();
        let sizes: Vec<usize> = inputs.zones.iter().map(|t| t.readers.len()).collect();
        Replay {
            conns: inputs
                .gateways
                .iter()
                .map(|_| IngestFrontEnd::new(config.serve.ingest))
                .collect(),
            rings: sizes
                .iter()
                .map(|_| IngestFrontEnd::new(config.serve.ingest))
                .collect(),
            runs: vec![Vec::new(); sizes.len()],
            route: ReaderRoute::from_zone_sizes(&sizes),
            sink: FrameSink::new(),
            decoder: FrameDecoder::new(config.max_frame_len),
            scratch: Vec::new(),
            zones,
            tracer,
            counts: Counts::default(),
        }
    }

    /// Replays batch indices `rounds` of every gateway `g` that sent
    /// them (`b < sent[g]`), interleaved round-robin by batch index.
    /// Returns the wall time, seconds.
    pub fn run(&mut self, gateways: &[Stream], sent: &[u64], rounds: Range<u64>) -> f64 {
        let mut events = Vec::new();
        let start = Instant::now();
        for b in rounds {
            for (g, stream) in gateways.iter().enumerate() {
                if b >= sent[g] {
                    continue;
                }
                self.tracer.set_batch(self.counts.batches as u32);
                let tracer = self.tracer.clone();
                tracer.span("batch", || {
                    tracer.span("gen", || stream.batch_into(b, &mut events));
                    self.batch(g, &events);
                });
            }
        }
        start.elapsed().as_secs_f64()
    }

    /// One gateway batch through the calls `NetServer::handle_batch`
    /// makes, then each touched zone's drive.
    fn batch(&mut self, gateway: usize, events: &[BeaconEvent]) {
        let t = &self.tracer;
        let c = &mut self.counts;
        c.batches += 1;
        c.events += events.len() as u64;
        let sink = &mut self.sink;
        t.span("codec.encode", || {
            sink.clear();
            sink.batch_events(events);
        });
        c.bytes += sink.byte_count() as u64;
        let (decoder, scratch) = (&mut self.decoder, &mut self.scratch);
        t.span("codec.decode", || {
            decoder.push(sink.bytes());
            let frame = decoder
                .next_frame()
                .expect("a frame this replay encoded decodes")
                .expect("the whole frame was pushed");
            scratch.clear();
            decode_batch_events(frame.body, scratch).expect("a batch this replay encoded decodes");
        });
        let route = &self.route;
        t.span("route", || {
            assert!(
                scratch.iter().all(|e| route.resolve(e.reader).is_some()),
                "generated readers are routable"
            );
        });
        let front = &mut self.conns[gateway];
        c.conn_in += scratch.len() as u64;
        let drained = t.span("ingest.conn", || {
            front.accept(scratch.drain(..));
            front.drain()
        });
        c.conn_coalesced += drained.coalesced_in_ring + drained.coalesced_in_batch;
        let runs = &mut self.runs;
        t.span("route", || {
            for e in &drained.readings {
                let (zone, local) = route.resolve(e.reader).expect("validated above");
                runs[zone as usize].push(BeaconEvent {
                    reader: local,
                    ..*e
                });
            }
        });
        let zones = runs.iter_mut().zip(&mut self.rings).zip(&mut self.zones);
        for ((run, ring), zone) in zones {
            if run.is_empty() {
                continue;
            }
            c.ring_in += run.len() as u64;
            let parked = t.span("ingest.ring", || {
                ring.accept(run.drain(..));
                ring.drain()
            });
            c.ring_coalesced += parked.coalesced_in_ring + parked.coalesced_in_batch;
            zone.drive_parked(parked.readings, t, c);
        }
    }

    /// Every tracked tag's answer at stream time `at`, in
    /// `inputs.tracked` order.
    pub fn answers(&self, inputs: &Inputs, at: f64) -> Vec<QueryResponse> {
        inputs
            .tracked
            .iter()
            .map(|t| self.zones[t.zone as usize].query(LocationQuery { tag: t.tag, at }))
            .collect()
    }

    /// Mean cost of one in-process query over `rounds` sweeps of every
    /// tracked tag, nanoseconds.
    pub fn query_ns(&self, inputs: &Inputs, at: f64, rounds: usize) -> f64 {
        let start = Instant::now();
        for _ in 0..rounds {
            for t in &inputs.tracked {
                std::hint::black_box(
                    self.zones[t.zone as usize].query(LocationQuery { tag: t.tag, at }),
                );
            }
        }
        start.elapsed().as_nanos() as f64 / (rounds * inputs.tracked.len()) as f64
    }

    /// Summed sync counters over every zone.
    pub fn sync_stats(&self) -> SyncStats {
        self.zones
            .iter()
            .map(ZonePipeline::sync_stats)
            .fold(SyncStats::default(), |a, s| SyncStats {
                reused: a.reused + s.reused,
                patched: a.patched + s.patched,
                patched_cells: a.patched_cells + s.patched_cells,
                rebuilt: a.rebuilt + s.rebuilt,
            })
    }
}

/// The bits of an answer, so two answers compare `f64::to_bits`-exactly.
pub fn answer_bits(r: &QueryResponse) -> Vec<u64> {
    match r {
        QueryResponse::Fresh {
            position,
            velocity,
            sigma,
            age,
        } => [
            0.0, position.x, position.y, velocity.x, velocity.y, sigma.0, sigma.1, *age,
        ]
        .iter()
        .map(|x| x.to_bits())
        .collect(),
        QueryResponse::Stale { position, age } => [1.0, position.x, position.y, *age]
            .iter()
            .map(|x| x.to_bits())
            .collect(),
        QueryResponse::Unknown => vec![2],
    }
}

/// Number of answers whose bits differ between `a` and `b`.
pub fn mismatches(a: &[QueryResponse], b: &[QueryResponse]) -> usize {
    assert_eq!(a.len(), b.len(), "answer sets cover the same tags");
    a.iter()
        .zip(b)
        .filter(|(x, y)| answer_bits(x) != answer_bits(y))
        .count()
}
