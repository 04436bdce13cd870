//! The ingest front end: burst batching and beacon-run coalescing ahead
//! of the location service.
//!
//! A real deployment's readers emit beacon events far faster than the
//! localization rate — a tag beaconing every ~2 s against four readers is
//! already 4 events per period, and a burst of gateway traffic can deliver
//! thousands of readings between two `drive` calls. Localizing every one
//! of them is wasted work, so a run of beacons for the same
//! `(tag lifetime, reader)` pair collapses to its newest element. A
//! coalesced drive is bit-identical to replaying only the surviving
//! readings (the oracle test in `vire-sim`), but it equals feeding every
//! reading only under `SmoothingKind::Raw`: a windowed filter sees fewer
//! readings. Under the default `Median(5)`, one `(tag, reader)` fed −60,
//! −70, −61, −75, −62, −80 smooths to −70.0 when every reading reaches it
//! and to −80.0 when only the newest does. The `burst_flood` benchmark
//! workload coalesces about 84% of its events. ROADMAP.md direction 1
//! makes the collapse exact.
//!
//! [`coalesce_newest`] is that collapse: newest reading per
//! [`beacon_key`], in last-occurrence order. It is idempotent and it
//! composes — `collapse(collapse(a) ++ b) == collapse(a ++ b)` — so a
//! burst may be collapsed at any point on its way to the pipeline without
//! changing a number. [`IngestFrontEnd`] is a ring that applies it as
//! events arrive:
//!
//! * **On accept** — the ring keeps an index from [`beacon_key`] to the
//!   slot of that key's newest event, so a repeat key supersedes the older
//!   slot at once (one hash insert per event).
//! * **At the ceiling** — the ring doubles up to
//!   [`IngestConfig::max_capacity`]. Full at the ceiling, it first gives
//!   up the superseded events (counted in
//!   [`IngestBatch::coalesced_in_ring`], O(1) because they are already
//!   known), and only when every buffered key is distinct drops the
//!   oldest event (counted in [`IngestBatch::lagged`]).
//! * **At drain** — the live slots *are* the collapse, so
//!   [`IngestFrontEnd::drain`] is one in-order walk; the superseded
//!   events are the batch's [`IngestBatch::coalesced_in_batch`].
//!
//! The wire format is the `vire-sim` trace schema (versions 1 and 2):
//! [`IngestFrontEnd::accept_json`] takes either a full trace object or a
//! bare array of readings, so captured traces and live gateway payloads
//! share one code path.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::service::TagKey;

/// Newest wire schema version accepted ([`vire-sim`'s `TRACE_VERSION`]
/// — kept equal by a cross-crate test there).
pub const WIRE_VERSION: u32 = 2;

/// Oldest wire schema version accepted (v1 readings carry no tag
/// generations and parse as generation 0).
pub const WIRE_MIN_VERSION: u32 = 1;

/// One beacon event on the wire: a single tag/reader RSSI observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconEvent {
    /// Beacon time, seconds.
    pub time: f64,
    /// Tag lifetime (slot index + generation).
    pub tag: TagKey,
    /// Reader identifier (dense index).
    pub reader: u32,
    /// Raw RSSI, dBm.
    pub rssi: f64,
}

/// The coalesce key of a beacon event: the exact `(slot, generation,
/// reader)` triple packed into 96 bits, so two distinct beacon streams can
/// never merge (no hashing, no collisions).
pub fn beacon_key(e: &BeaconEvent) -> u128 {
    ((e.tag.index as u128) << 64) | ((e.tag.generation as u128) << 32) | e.reader as u128
}

/// Collapses `events` in place to the newest event per [`beacon_key`],
/// survivors in last-occurrence order, and returns how many events were
/// merged away. Any number of collapses along the way leaves the same
/// survivors as one; see the [module docs](self) for what a collapse
/// changes.
pub fn coalesce_newest(events: &mut Vec<BeaconEvent>) -> u64 {
    let before = events.len();
    // Walk newest → oldest: the first sighting of a key is its newest.
    let mut seen: HashSet<u128> = HashSet::with_capacity(before);
    let mut keep = vec![false; before];
    for (i, e) in events.iter().enumerate().rev() {
        keep[i] = seen.insert(beacon_key(e));
    }
    let mut keep = keep.into_iter();
    events.retain(|_| keep.next().expect("one flag per event"));
    (before - events.len()) as u64
}

/// Shape of the ingest ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Initial ring capacity; doubles under load (amortized O(1)).
    pub initial_capacity: usize,
    /// Capacity ceiling; past it beacon runs coalesce per [`beacon_key`].
    pub max_capacity: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            initial_capacity: 64,
            max_capacity: 65_536,
        }
    }
}

/// Wire-format rejection from [`IngestFrontEnd::accept_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The payload is not valid JSON, or not the expected shape.
    Json(String),
    /// The trace schema version is outside the supported range.
    UnsupportedVersion {
        /// Version the payload declared.
        found: u32,
        /// Oldest accepted version.
        min: u32,
        /// Newest accepted version.
        max: u32,
    },
    /// A v1 payload carried a tag generation (v1 predates generations).
    GenerationInV1 {
        /// Index of the offending reading.
        index: usize,
    },
    /// A reading carried a non-finite number.
    NotFinite {
        /// Which field was non-finite.
        field: &'static str,
        /// Index of the offending reading.
        index: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(msg) => write!(f, "malformed ingest payload: {msg}"),
            WireError::UnsupportedVersion { found, min, max } => {
                write!(
                    f,
                    "unsupported wire version {found} (accepted: {min}..={max})"
                )
            }
            WireError::GenerationInV1 { index } => {
                write!(f, "reading {index} carries a generation in a v1 payload")
            }
            WireError::NotFinite { field, index } => {
                write!(f, "reading {index} has non-finite {field}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Cumulative ingest accounting. At every drain point the counters
/// balance: `accepted == delivered + lagged + coalesced_in_ring` — no
/// event ever disappears silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Events accepted into the ring.
    pub accepted: u64,
    /// Drain calls.
    pub batches: u64,
    /// Events delivered out of the ring (before batch coalescing).
    pub delivered: u64,
    /// Events merged away inside the ring by back-pressure coalescing.
    pub coalesced_in_ring: u64,
    /// Events merged away at drain time (same-key runs in one batch).
    pub coalesced_in_batch: u64,
    /// Events hard-dropped by the ring (0 unless every buffered event had
    /// a distinct key at the capacity ceiling).
    pub lagged: u64,
}

/// One drained batch: the surviving readings plus this drain's share of
/// the loss accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestBatch {
    /// Newest reading per `(tag lifetime, reader)`, in last-occurrence
    /// order — what the pipeline should replay.
    pub readings: Vec<BeaconEvent>,
    /// Events the ring delivered into this batch before coalescing.
    pub delivered: usize,
    /// Events hard-dropped since the previous drain.
    pub lagged: u64,
    /// Events merged inside the ring since the previous drain.
    pub coalesced_in_ring: u64,
    /// Events merged at drain time (duplicates within this batch).
    pub coalesced_in_batch: u64,
}

/// Burst-batching, coalescing ingest stage (see the [module docs](self)).
#[derive(Debug)]
pub struct IngestFrontEnd {
    /// Events accepted since the last drain, oldest first; superseded and
    /// dropped events leave a `None` tombstone behind.
    slots: Vec<Option<BeaconEvent>>,
    /// No live event sits below this slot.
    front: usize,
    /// [`beacon_key`] → slot of that key's newest event. Keys arrive from
    /// the wire, so the map keeps the default keyed hasher: crafted
    /// collisions cannot degrade it.
    newest: HashMap<u128, usize>,
    /// Buffered events: the live slots plus the `superseded` ones.
    len: usize,
    /// Events superseded by a newer same-key event since the last drain
    /// or ceiling collapse.
    superseded: u64,
    cap: usize,
    max_cap: usize,
    grown: u64,
    /// Loss since the last drain.
    lagged: u64,
    coalesced_in_ring: u64,
    stats: IngestStats,
}

impl IngestFrontEnd {
    /// Builds a front end with the given ring shape.
    ///
    /// # Panics
    /// Panics when `initial_capacity` is zero or `max_capacity` is below
    /// it.
    pub fn new(config: IngestConfig) -> Self {
        let IngestConfig {
            initial_capacity,
            max_capacity,
        } = config;
        assert!(
            initial_capacity > 0,
            "ingest ring capacity must be positive"
        );
        assert!(
            max_capacity >= initial_capacity,
            "ingest ring max_capacity ({max_capacity}) must be at least the initial capacity \
             ({initial_capacity})"
        );
        IngestFrontEnd {
            slots: Vec::with_capacity(initial_capacity),
            front: 0,
            newest: HashMap::new(),
            len: 0,
            superseded: 0,
            cap: initial_capacity,
            max_cap: max_capacity,
            grown: 0,
            lagged: 0,
            coalesced_in_ring: 0,
            stats: IngestStats::default(),
        }
    }

    /// Accepts a burst of already-decoded beacon events; returns how many
    /// were enqueued. An event whose time or RSSI is not finite (NaN,
    /// ±inf) is skipped, as the wire parsers reject it: it is neither
    /// enqueued nor counted in [`IngestStats::accepted`], so the ledger
    /// stays balanced.
    pub fn accept(&mut self, events: impl IntoIterator<Item = BeaconEvent>) -> usize {
        let mut n = 0;
        for e in events {
            if !(e.time.is_finite() && e.rssi.is_finite()) {
                continue;
            }
            self.push(e);
            n += 1;
        }
        self.stats.accepted += n as u64;
        n
    }

    /// Buffers one event, making room first when the ring is full.
    fn push(&mut self, e: BeaconEvent) {
        if self.len == self.cap {
            self.make_room();
        }
        if self.slots.len() >= self.cap.saturating_mul(2) {
            self.compact();
        }
        let slot = self.slots.len();
        if let Some(older) = self.newest.insert(beacon_key(&e), slot) {
            self.slots[older] = None;
            self.superseded += 1;
        }
        self.slots.push(Some(e));
        self.len += 1;
    }

    /// Frees room in a full ring: grow below the ceiling; at it, give up
    /// the superseded events, or drop the oldest when there are none.
    fn make_room(&mut self) {
        if self.cap < self.max_cap {
            self.cap = self.cap.saturating_mul(2).min(self.max_cap);
            self.grown += 1;
        } else if self.superseded > 0 {
            self.len -= self.superseded as usize;
            self.coalesced_in_ring += self.superseded;
            self.superseded = 0;
        } else {
            let oldest = self.slots[self.front..]
                .iter()
                .position(Option::is_some)
                .map(|i| self.front + i)
                .expect("a full ring holds a live event");
            let e = self.slots[oldest].take().expect("live slot");
            self.newest.remove(&beacon_key(&e));
            self.front = oldest + 1;
            self.len -= 1;
            self.lagged += 1;
        }
    }

    /// Squeezes out tombstones, keeping the live events in order. Runs
    /// once the slots reach twice the capacity, so at least half of them
    /// are dead and the copy is O(1) amortized per event.
    fn compact(&mut self) {
        let mut kept = 0;
        for i in self.front..self.slots.len() {
            if let Some(e) = self.slots[i] {
                *self.newest.get_mut(&beacon_key(&e)).expect("indexed") = kept;
                self.slots[kept] = Some(e);
                kept += 1;
            }
        }
        self.slots.truncate(kept);
        self.front = 0;
    }

    /// Accepts a JSON payload in the `vire-sim` trace wire format: either
    /// a full trace object (`{"version": .., "readings": [..], ..}`) or a
    /// bare array of readings. Returns how many readings were enqueued;
    /// on error nothing is enqueued.
    pub fn accept_json(&mut self, json: &str) -> Result<usize, WireError> {
        let events = parse_wire(json)?;
        Ok(self.accept(events))
    }

    /// Drains everything buffered since the last drain, coalescing each
    /// `(tag lifetime, reader)` beacon run down to its newest reading.
    pub fn drain(&mut self) -> IngestBatch {
        let delivered = self.len;
        let mut readings = Vec::with_capacity(self.len - self.superseded as usize);
        readings.extend(self.slots[self.front..].iter().flatten());
        self.newest.clear();
        let coalesced_in_batch = self.superseded;
        let lagged = std::mem::take(&mut self.lagged);
        let coalesced_in_ring = std::mem::take(&mut self.coalesced_in_ring);
        self.slots.clear();
        self.front = 0;
        self.len = 0;
        self.superseded = 0;

        self.stats.batches += 1;
        self.stats.delivered += delivered as u64;
        self.stats.lagged += lagged;
        self.stats.coalesced_in_ring += coalesced_in_ring;
        self.stats.coalesced_in_batch += coalesced_in_batch;

        IngestBatch {
            readings,
            delivered,
            lagged,
            coalesced_in_ring,
            coalesced_in_batch,
        }
    }

    /// Cumulative accounting across all drains.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Current ring capacity (grows under load).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Ring capacity ceiling.
    pub fn max_capacity(&self) -> usize {
        self.max_cap
    }

    /// Ring capacity doublings so far.
    pub fn grown(&self) -> u64 {
        self.grown
    }
}

/// Adapter: the vendored serde has no blanket `Deserialize` for `Value`,
/// so wire parsing keeps the raw tree and walks it by hand (optional
/// fields and version gating need more than the derive offers anyway).
struct RawValue(serde::Value);

impl serde::Deserialize for RawValue {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(RawValue(v.clone()))
    }
}

/// Parses a wire payload (trace object or bare readings array) into
/// beacon events, validating version and finiteness. Public so
/// transports can decode-and-validate *before* accepting into a front
/// end (a rejected payload must never strand accepted events).
pub fn parse_wire(json: &str) -> Result<Vec<BeaconEvent>, WireError> {
    parse_wire_versioned(json).map(|(_, events)| events)
}

/// [`parse_wire`], but also returns the payload's wire version (a bare
/// readings array carries no version field and counts as the current
/// [`WIRE_VERSION`]). Transports that pin a version per connection use
/// this to reject payloads newer than what the peer negotiated.
pub fn parse_wire_versioned(json: &str) -> Result<(u32, Vec<BeaconEvent>), WireError> {
    let RawValue(root) = serde_json::from_str(json).map_err(|e| WireError::Json(e.to_string()))?;
    let (version, readings) = match &root {
        serde::Value::Array(items) => (WIRE_VERSION, items.as_slice()),
        serde::Value::Object(_) => {
            let version = match root.get("version") {
                Some(v) => field_u32(v, "version")?,
                None => return Err(WireError::Json("missing field `version`".into())),
            };
            if !(WIRE_MIN_VERSION..=WIRE_VERSION).contains(&version) {
                return Err(WireError::UnsupportedVersion {
                    found: version,
                    min: WIRE_MIN_VERSION,
                    max: WIRE_VERSION,
                });
            }
            let readings = match root.get("readings") {
                Some(serde::Value::Array(items)) => items.as_slice(),
                Some(_) => return Err(WireError::Json("`readings` must be an array".into())),
                None => return Err(WireError::Json("missing field `readings`".into())),
            };
            (version, readings)
        }
        _ => {
            return Err(WireError::Json(
                "payload must be a trace object or a readings array".into(),
            ))
        }
    };

    let mut events = Vec::with_capacity(readings.len());
    for (index, r) in readings.iter().enumerate() {
        let time = field_f64(r, "time", index)?;
        let tag = field_u32_at(r, "tag", index)?;
        let reader = field_u32_at(r, "reader", index)?;
        let rssi = field_f64(r, "rssi", index)?;
        let generation = match r.get("generation") {
            Some(g) => {
                if version < 2 {
                    return Err(WireError::GenerationInV1 { index });
                }
                field_u32(g, "generation")?
            }
            None => 0,
        };
        if !time.is_finite() {
            return Err(WireError::NotFinite {
                field: "time",
                index,
            });
        }
        if !rssi.is_finite() {
            return Err(WireError::NotFinite {
                field: "rssi",
                index,
            });
        }
        events.push(BeaconEvent {
            time,
            tag: TagKey::new(tag, generation),
            reader,
            rssi,
        });
    }
    Ok((version, events))
}

fn field_u32(v: &serde::Value, name: &str) -> Result<u32, WireError> {
    use serde::Deserialize as _;
    u32::from_value(v).map_err(|e| WireError::Json(format!("field `{name}`: {e}")))
}

fn field_u32_at(r: &serde::Value, name: &'static str, index: usize) -> Result<u32, WireError> {
    let v = r
        .get(name)
        .ok_or_else(|| WireError::Json(format!("reading {index}: missing field `{name}`")))?;
    field_u32(v, name)
}

fn field_f64(r: &serde::Value, name: &'static str, index: usize) -> Result<f64, WireError> {
    use serde::Deserialize as _;
    let v = r
        .get(name)
        .ok_or_else(|| WireError::Json(format!("reading {index}: missing field `{name}`")))?;
    f64::from_value(v).map_err(|e| WireError::Json(format!("reading {index} `{name}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, tag: u32, generation: u32, reader: u32, rssi: f64) -> BeaconEvent {
        BeaconEvent {
            time,
            tag: TagKey::new(tag, generation),
            reader,
            rssi,
        }
    }

    fn tiny() -> IngestFrontEnd {
        IngestFrontEnd::new(IngestConfig {
            initial_capacity: 2,
            max_capacity: 4,
        })
    }

    #[test]
    fn drain_keeps_newest_per_tag_reader_run() {
        let mut front = IngestFrontEnd::new(IngestConfig::default());
        front.accept([
            ev(0.0, 1, 0, 0, -60.0),
            ev(0.1, 1, 0, 1, -62.0),
            ev(0.2, 1, 0, 0, -61.0), // newer (1, r0): replaces the first
            ev(0.3, 2, 0, 0, -70.0),
            ev(0.4, 1, 0, 0, -59.5), // newest (1, r0)
        ]);
        let batch = front.drain();
        assert_eq!(batch.delivered, 5);
        assert_eq!(batch.coalesced_in_batch, 2);
        assert_eq!(batch.lagged, 0);
        assert_eq!(
            batch.readings,
            vec![
                ev(0.1, 1, 0, 1, -62.0),
                ev(0.3, 2, 0, 0, -70.0),
                ev(0.4, 1, 0, 0, -59.5),
            ],
            "newest per key, in last-occurrence order"
        );
    }

    #[test]
    fn coalesce_newest_is_idempotent_and_composes() {
        let a = [
            ev(0.0, 1, 0, 0, -60.0),
            ev(0.1, 2, 0, 0, -70.0),
            ev(0.2, 1, 0, 0, -61.0),
        ];
        let b = [ev(0.3, 2, 0, 0, -71.0), ev(0.4, 3, 0, 1, -80.0)];
        let mut whole: Vec<BeaconEvent> = a.iter().chain(&b).copied().collect();
        assert_eq!(coalesce_newest(&mut whole), 2);
        let mut staged = a.to_vec();
        assert_eq!(coalesce_newest(&mut staged), 1);
        staged.extend(b);
        assert_eq!(coalesce_newest(&mut staged), 1);
        assert_eq!(
            staged, whole,
            "collapse(collapse(a) ++ b) == collapse(a ++ b)"
        );
        assert_eq!(coalesce_newest(&mut staged), 0, "idempotent");
        assert_eq!(
            whole,
            vec![
                ev(0.2, 1, 0, 0, -61.0),
                ev(0.3, 2, 0, 0, -71.0),
                ev(0.4, 3, 0, 1, -80.0)
            ]
        );
    }

    #[test]
    fn distinct_generations_never_merge() {
        let mut front = IngestFrontEnd::new(IngestConfig::default());
        front.accept([ev(0.0, 1, 0, 0, -60.0), ev(0.1, 1, 1, 0, -65.0)]);
        let batch = front.drain();
        assert_eq!(batch.readings.len(), 2, "lifetimes are distinct streams");
        assert_eq!(batch.coalesced_in_batch, 0);
    }

    #[test]
    fn overload_coalesces_in_ring_without_loss() {
        let mut front = tiny();
        // 12 events for 2 keys through a ring capped at 4: the ring must
        // coalesce (never drop), and the drained batch still ends with
        // the newest reading of each key.
        for n in 0..12 {
            front.accept([ev(n as f64, (n % 2) as u32, 0, 0, -60.0 - n as f64)]);
        }
        let batch = front.drain();
        assert_eq!(batch.lagged, 0, "coalescing must prevent hard drops");
        assert!(batch.coalesced_in_ring > 0);
        let stats = front.stats();
        assert_eq!(
            stats.accepted,
            stats.delivered + stats.lagged + stats.coalesced_in_ring,
            "ring accounting must balance"
        );
        assert_eq!(batch.readings.len(), 2);
        assert_eq!(batch.readings[1], ev(11.0, 1, 0, 0, -71.0));
        assert_eq!(batch.readings[0], ev(10.0, 0, 0, 0, -70.0));
    }

    #[test]
    fn slots_stay_within_twice_the_ceiling() {
        // Repeat keys leave tombstones and distinct keys past the ceiling
        // leave dropped slots; compaction bounds both.
        for keys in [2, 1_000] {
            let mut front = tiny();
            for n in 0..1_000 {
                front.accept([ev(n as f64, n % keys, 0, 0, -60.0)]);
                assert!(front.slots.len() <= 2 * front.max_capacity());
                assert!(front.newest.len() <= front.max_capacity());
            }
        }
    }

    #[test]
    fn accept_json_bare_array_and_trace_object() {
        let mut front = IngestFrontEnd::new(IngestConfig::default());
        let n = front
            .accept_json(r#"[{"time": 0.5, "tag": 3, "reader": 1, "rssi": -58.25}]"#)
            .unwrap();
        assert_eq!(n, 1);
        let n = front
            .accept_json(
                r#"{"version": 2, "readings": [
                    {"time": 1.0, "tag": 3, "reader": 1, "rssi": -59.0, "generation": 2}
                ]}"#,
            )
            .unwrap();
        assert_eq!(n, 1);
        let batch = front.drain();
        assert_eq!(batch.readings.len(), 2, "generations stay distinct");
        assert_eq!(batch.readings[0], ev(0.5, 3, 0, 1, -58.25));
        assert_eq!(batch.readings[1], ev(1.0, 3, 2, 1, -59.0));
    }

    #[test]
    fn accept_json_rejects_bad_payloads() {
        let mut front = IngestFrontEnd::new(IngestConfig::default());
        assert!(matches!(
            front.accept_json("not json"),
            Err(WireError::Json(_))
        ));
        assert_eq!(
            front.accept_json(r#"{"version": 3, "readings": []}"#),
            Err(WireError::UnsupportedVersion {
                found: 3,
                min: 1,
                max: 2
            })
        );
        assert_eq!(
            front.accept_json(
                r#"{"version": 1, "readings": [
                    {"time": 0.0, "tag": 1, "reader": 0, "rssi": -60.0, "generation": 1}
                ]}"#
            ),
            Err(WireError::GenerationInV1 { index: 0 })
        );
        assert_eq!(
            front.accept_json(r#"[{"time": 0.0, "tag": 1, "reader": 0, "rssi": null}]"#),
            Err(WireError::Json(
                "reading 0 `rssi`: expected number, got Null".into()
            ))
        );
        assert_eq!(
            front.stats().accepted,
            0,
            "rejected payloads enqueue nothing"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_ring_panics() {
        IngestFrontEnd::new(IngestConfig {
            initial_capacity: 0,
            max_capacity: 4,
        });
    }

    #[test]
    #[should_panic(expected = "max_capacity")]
    fn ceiling_below_initial_capacity_panics() {
        IngestFrontEnd::new(IngestConfig {
            initial_capacity: 8,
            max_capacity: 4,
        });
    }

    #[test]
    fn beacon_key_is_exact() {
        let a = ev(0.0, 1, 0, 0, -60.0);
        let b = ev(0.0, 0, 1, 0, -60.0);
        let c = ev(0.0, 0, 0, 1, -60.0);
        assert_ne!(beacon_key(&a), beacon_key(&b));
        assert_ne!(beacon_key(&a), beacon_key(&c));
        assert_ne!(beacon_key(&b), beacon_key(&c));
        assert_eq!(beacon_key(&a), beacon_key(&ev(9.9, 1, 0, 0, -10.0)));
    }
}
