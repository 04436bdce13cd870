//! Seeded workload inputs: zone geometry, per-gateway batch streams, and
//! the ground truth the final fixes are scored against.
//!
//! Everything here is a pure function of `(workload, seed)`. Each zone's
//! reading pool is captured once from a [`Testbed`] (the paper's
//! deployment in environment 2) before any server starts; the server
//! only ever sees framed batches cut from those pools, with timestamps
//! rewritten to the batch clock.

use std::time::Duration;
use vire_core::{BeaconEvent, TagKey};
use vire_geom::Point2;
use vire_net::FrameSink;
use vire_sim::{Testbed, TestbedConfig, Trace};

/// Simulated seconds captured per zone: 15 beacons per tag at the
/// paper's 2 s interval, enough distinct RSSI samples per key that the
/// median-5 smoothing keeps moving as samples are drawn from the pool.
const CAPTURE_S: f64 = 30.0;

/// Stream-clock advance per batch, seconds.
const BATCH_DT: f64 = 0.01;

/// Margin kept between tracking tags and the edge of the 3 m × 3 m
/// reference lattice, meters.
const EDGE: f64 = 0.1;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One zone, 1000 tracking tags; open-loop gateway at 40 k ev/s plus
    /// a closed-loop query client. Locate-heavy.
    RoomTrack,
    /// One zone, 5 tracking tags; closed-loop 512-event batches over 84
    /// keys. The codec and ingest path at full rate; at most 5 tags
    /// located per drive.
    BurstFlood,
    /// Four zones, 100 tracking tags each; two closed-loop gateways whose
    /// every batch spans all four zones. Exercises routing and drive
    /// races.
    CampusOverlap,
}

/// How a gateway paces its batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// A batch is due every `period` whether or not the previous one was
    /// acknowledged in time (independent readers).
    Open {
        /// Time between due times.
        period: Duration,
    },
    /// The next batch is sent as soon as the previous one is acked.
    Closed,
}

/// Where location queries come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Queries {
    /// A separate application connection asks in a closed loop, pausing
    /// `think` between answers.
    App {
        /// Pause after each answer.
        think: Duration,
    },
    /// Each gateway asks one query after every
    /// [`INLINE_QUERY_EVERY`]th acked batch.
    Inline,
}

/// Acked batches between two inline queries of a gateway: queries stay a
/// light share of the connection's traffic yet number in the thousands
/// per run.
pub const INLINE_QUERY_EVERY: u64 = 4;

/// Static shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Zone count.
    pub zones: usize,
    /// Tracking tags requested per zone.
    pub tracking: usize,
    /// Gateway connections.
    pub gateways: usize,
    /// Events per zone in one batch.
    pub per_zone: usize,
    /// Gateway pacing.
    pub pacing: Pacing,
    /// Query source.
    pub queries: Queries,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::RoomTrack,
        Workload::BurstFlood,
        Workload::CampusOverlap,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoomTrack => "room_track",
            Workload::BurstFlood => "burst_flood",
            Workload::CampusOverlap => "campus_overlap",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's static shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::RoomTrack => Shape {
                zones: 1,
                tracking: 1000,
                gateways: 1,
                per_zone: 400,
                pacing: Pacing::Open {
                    period: Duration::from_millis(10),
                },
                queries: Queries::App {
                    think: Duration::from_millis(1),
                },
            },
            Workload::BurstFlood => Shape {
                zones: 1,
                tracking: 5,
                gateways: 1,
                per_zone: 512,
                pacing: Pacing::Closed,
                queries: Queries::Inline,
            },
            Workload::CampusOverlap => Shape {
                zones: 4,
                tracking: 100,
                gateways: 2,
                per_zone: 50,
                pacing: Pacing::Closed,
                queries: Queries::Inline,
            },
        }
    }
}

/// One tracking tag the harness queries and scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tracked {
    /// Zone the tag lives in.
    pub zone: u32,
    /// The tag's key inside its zone.
    pub tag: TagKey,
    /// Where the tag really is.
    pub truth: Point2,
}

/// One `(tag, reader)` beacon stream of a pool.
#[derive(Debug, Clone)]
struct Key {
    tag: TagKey,
    /// Campus-frame reader id.
    reader: u32,
    /// Captured RSSI samples, in capture order.
    rssi: Vec<f64>,
}

/// One gateway's deterministic batch stream. Batch `b` holds
/// `per_lane` consecutive events of every lane; lane event `c` is key
/// `c mod K` carrying one of that key's samples picked by a hash of
/// `c`, stamped with the batch clock `(b + 1) · 10 ms`.
///
/// Hashing matters where a key recurs within a batch (`burst_flood`):
/// only its last occurrence survives coalescing, and stepping through
/// the samples in order would then revisit the same few samples, so
/// the median-5 smoothing would stop moving — and the work per batch
/// would depend on how the stride happens to align with the pool.
#[derive(Debug, Clone)]
pub struct Stream {
    /// One key list per zone this gateway feeds.
    lanes: Vec<Vec<Key>>,
    per_lane: usize,
}

impl Stream {
    /// Events in every batch.
    pub fn events_per_batch(&self) -> usize {
        self.per_lane * self.lanes.len()
    }

    /// Stream-clock timestamp of batch `b`.
    pub fn time_of(b: u64) -> f64 {
        (b + 1) as f64 * BATCH_DT
    }

    /// Batches until every key of every lane has been sent at least once.
    pub fn cover_batches(&self) -> u64 {
        let widest = self.lanes.iter().map(Vec::len).max().unwrap_or(0);
        widest.div_ceil(self.per_lane) as u64
    }

    /// Writes batch `b` into `out` (cleared first).
    pub fn batch_into(&self, b: u64, out: &mut Vec<BeaconEvent>) {
        out.clear();
        let time = Self::time_of(b);
        for keys in &self.lanes {
            let first = b as usize * self.per_lane;
            for c in first..first + self.per_lane {
                let key = &keys[c % keys.len()];
                out.push(BeaconEvent {
                    time,
                    tag: key.tag,
                    reader: key.reader,
                    rssi: key.rssi[(mix(c as u64) % key.rssi.len() as u64) as usize],
                });
            }
        }
    }
}

/// Everything a run needs, generated before any server starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these inputs are for.
    pub workload: Workload,
    /// The seed they were generated from.
    pub seed: u64,
    /// One geometry-only trace per zone (readers and reference tags; no
    /// readings — readings reach the server only as batches).
    pub zones: Vec<Trace>,
    /// Every tracking tag, zone-major.
    pub tracked: Vec<Tracked>,
    /// One batch stream per gateway.
    pub gateways: Vec<Stream>,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    ///
    /// Fails when a reference tag or tracking tag is not heard by every
    /// reader in its zone's capture (a zone pipeline would then never
    /// complete its calibration map or the tag's reading vector).
    pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
        let shape = workload.shape();
        let mut zones = Vec::with_capacity(shape.zones);
        let mut tracked = Vec::new();
        let mut pools: Vec<Vec<Key>> = Vec::with_capacity(shape.zones);
        let mut reader_base = 0u32;
        for z in 0..shape.zones {
            let zone_seed = mix(seed ^ mix(z as u64 + 1));
            let (trace, truth) = capture_zone(zone_seed, shape.tracking);
            let readers = trace.readers.len() as u32;
            let refs = trace.reference_tags.len() as u32;
            let keys = pool_keys(&trace, reader_base);
            for (slot, _) in &trace.reference_tags {
                if keys.iter().filter(|k| k.tag.index == *slot).count() != readers as usize {
                    return Err(format!(
                        "zone {z}: reference tag {slot} is not heard by every reader"
                    ));
                }
            }
            for (k, &p) in truth.iter().enumerate() {
                let tag = TagKey::new(refs + k as u32, 0);
                if keys.iter().filter(|key| key.tag == tag).count() != readers as usize {
                    return Err(format!(
                        "zone {z}: tracking tag {tag} is not heard by every reader"
                    ));
                }
                tracked.push(Tracked {
                    zone: z as u32,
                    tag,
                    truth: p,
                });
            }
            pools.push(keys);
            zones.push(Trace {
                readings: Vec::new(),
                ..trace
            });
            reader_base += readers;
        }
        // Gateway `g` of `n` fronts the readers `k` with `k mod n == g`
        // in every zone, so with two gateways each batch of either one
        // spans all zones and both race for every zone's drive.
        let gateways = (0..shape.gateways)
            .map(|g| Stream {
                lanes: pools
                    .iter()
                    .map(|keys| {
                        keys.iter()
                            .filter(|k| k.reader as usize % shape.gateways == g)
                            .cloned()
                            .collect()
                    })
                    .collect(),
                per_lane: shape.per_zone,
            })
            .collect();
        Ok(Inputs {
            workload,
            seed,
            zones,
            tracked,
            gateways,
        })
    }

    /// FNV-1a over the framed bytes of the first `batches` batches of
    /// every gateway: equal inputs give equal fingerprints.
    pub fn fingerprint(&self, batches: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut sink = FrameSink::new();
        let mut buf = Vec::new();
        for stream in &self.gateways {
            for b in 0..batches {
                stream.batch_into(b, &mut buf);
                sink.clear();
                sink.batch_events(&buf);
                for &byte in sink.bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }
}

/// Captures one zone: the paper testbed in environment 2 with
/// `tracking` tags at stratified positions (one per cell of a square
/// lattice over the room, jittered within its cell). Beacon collisions
/// are disabled: the tags are a serving load, not a crowd, so accuracy
/// reflects the algorithm rather than co-location interference.
fn capture_zone(seed: u64, tracking: usize) -> (Trace, Vec<Point2>) {
    let mut cfg = TestbedConfig::paper(vire_env::presets::env2(), seed);
    cfg.keep_log = true;
    cfg.collision_radius = 0.0;
    let mut tb = Testbed::new(cfg);
    let side = (tracking as f64).sqrt().ceil() as usize;
    let cell = (3.0 - 2.0 * EDGE) / side as f64;
    let mut rng = seed;
    let truth: Vec<Point2> = (0..tracking)
        .map(|k| {
            let (i, j) = ((k % side) as f64, (k / side) as f64);
            Point2::new(
                EDGE + (i + unit(&mut rng)) * cell,
                EDGE + (j + unit(&mut rng)) * cell,
            )
        })
        .collect();
    for &p in &truth {
        tb.add_tracking_tag(p);
    }
    tb.run_for(CAPTURE_S);
    (tb.export_trace(format!("zone capture, seed {seed}")), truth)
}

/// Groups a capture into `(tag, reader)` keys, tag-major then reader, so
/// a tag's readers arrive in the same batch. Readers are lifted into the
/// campus frame by `reader_base`.
fn pool_keys(trace: &Trace, reader_base: u32) -> Vec<Key> {
    let mut keys: Vec<Key> = Vec::new();
    let mut readings = trace.readings.clone();
    readings.sort_by_key(|r| (r.tag, r.generation, r.reader));
    for r in readings {
        let tag = TagKey::new(r.tag, r.generation);
        let reader = reader_base + r.reader;
        match keys.last_mut() {
            Some(k) if k.tag == tag && k.reader == reader => k.rssi.push(r.rssi),
            _ => keys.push(Key {
                tag,
                reader,
                rssi: vec![r.rssi],
            }),
        }
    }
    keys
}

/// SplitMix64 finalizer: spreads a seed into an independent stream.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Next uniform draw in `[0, 1)` from a SplitMix64 state.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(1);
    (mix(*state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7).unwrap().fingerprint(3);
            let b = Inputs::generate(w, 7).unwrap().fingerprint(3);
            let c = Inputs::generate(w, 8).unwrap().fingerprint(3);
            assert_eq!(a, b, "{}: same seed must give identical bytes", w.name());
            assert_ne!(a, c, "{}: a new seed must give new bytes", w.name());
        }
    }

    #[test]
    fn shapes_match_the_documented_workloads() {
        let room = Inputs::generate(Workload::RoomTrack, 1).unwrap();
        assert_eq!(room.tracked.len(), 1000);
        assert_eq!(room.gateways[0].events_per_batch(), 400);
        let mut batch = Vec::new();
        room.gateways[0].batch_into(5, &mut batch);
        let mut keys: Vec<_> = batch.iter().map(|e| (e.tag, e.reader)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(
            keys.len(),
            400,
            "every room_track key in a batch is distinct"
        );

        let flood = Inputs::generate(Workload::BurstFlood, 1).unwrap();
        assert_eq!(flood.tracked.len(), 5);
        flood.gateways[0].batch_into(0, &mut batch);
        let mut keys: Vec<_> = batch.iter().map(|e| (e.tag, e.reader)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!((batch.len(), keys.len()), (512, 84));

        let campus = Inputs::generate(Workload::CampusOverlap, 1).unwrap();
        assert_eq!(campus.tracked.len(), 400);
        for stream in &campus.gateways {
            stream.batch_into(0, &mut batch);
            assert_eq!(batch.len(), 200);
            for z in 0..4u32 {
                let n = batch.iter().filter(|e| e.reader / 4 == z).count();
                assert_eq!(n, 50, "every campus batch carries 50 events per zone");
            }
        }
    }
}
