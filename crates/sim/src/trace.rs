//! Reading traces: export, import, and replay.
//!
//! The middleware's raw reading log can be saved as a JSON trace and later
//! replayed into a fresh middleware — the bridge between this simulator
//! and real-world data. A trace captured from physical RF Code readers in
//! the same `(time, tag, reader, rssi)` schema drops straight into the
//! localization pipeline; conversely, simulated traces can be shipped as
//! reproducible datasets.
//!
//! ## Wire format versions
//!
//! * **v1** identified tags by a bare integer. A capture containing a
//!   remove-then-respawn of the same tag slot collapsed both lifetimes
//!   onto one `TagId`, so replay married the re-entering tag to the dead
//!   tag's smoothing streams.
//! * **v2** (current) adds the slot **generation** to each reading, so a
//!   churn capture replays each lifetime into its own smoothing streams.
//!   Generation 0 is omitted from the JSON, which keeps fixed-population
//!   v2 traces byte-compatible with v1 readers and lets v1 captures
//!   deserialize as all-generation-0 v2 data. [`Trace::load`] accepts
//!   both versions; [`Trace::new`] always emits v2.

use crate::middleware::{Middleware, Reading};
use crate::reader::ReaderId;
use crate::smoothing::SmoothingKind;
use crate::tag::TagId;
use serde::{Deserialize, Serialize};
use std::io::{Read as _, Write as _};
use std::path::Path;
use vire_geom::{GridIndex, Point2, RegularGrid};

/// Schema version of the trace format (see the [module docs](self) for
/// the version history): the ingest wire's, since both are one JSON
/// schema.
pub use vire_core::ingest::WIRE_VERSION as TRACE_VERSION;

/// Oldest schema version [`Trace::validate`] still accepts (the ingest
/// wire's oldest). v1 traces carry no generations and deserialize as
/// generation 0 throughout.
pub use vire_core::ingest::WIRE_MIN_VERSION as TRACE_MIN_VERSION;

/// One serialized reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceReading {
    /// Beacon time, seconds since trace start.
    pub time: f64,
    /// Tag slot index.
    pub tag: u32,
    /// Reader identifier (dense index).
    pub reader: u32,
    /// Raw RSSI, dBm.
    pub rssi: f64,
    /// Lifetime generation of the tag slot (v2; absent in v1 traces and
    /// omitted when 0, which covers every fixed-population capture).
    pub generation: u32,
}

// Hand-rolled (de)serialization: the vendored serde derive has no
// `#[serde(default)]` / `skip_serializing_if`, and the generation field
// needs both — absent in v1 captures, omitted at 0 so fixed-population
// v2 traces stay byte-compatible with v1 readers.
impl serde::Serialize for TraceReading {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("time".to_string(), self.time.to_value()),
            ("tag".to_string(), self.tag.to_value()),
            ("reader".to_string(), self.reader.to_value()),
            ("rssi".to_string(), self.rssi.to_value()),
        ];
        if self.generation != 0 {
            fields.push(("generation".to_string(), self.generation.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl serde::Deserialize for TraceReading {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        fn field<T: serde::Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::DeError> {
            let f = v
                .get(name)
                .ok_or_else(|| serde::DeError::custom(format!("missing field `{name}`")))?;
            T::from_value(f)
        }
        Ok(TraceReading {
            time: field(v, "time")?,
            tag: field(v, "tag")?,
            reader: field(v, "reader")?,
            rssi: field(v, "rssi")?,
            generation: match v.get("generation") {
                Some(g) => u32::from_value(g)?,
                None => 0,
            },
        })
    }
}

impl From<Reading> for TraceReading {
    fn from(r: Reading) -> Self {
        TraceReading {
            time: r.time,
            tag: r.tag.index,
            reader: r.reader.0,
            rssi: r.rssi,
            generation: r.tag.generation,
        }
    }
}

impl From<TraceReading> for Reading {
    fn from(r: TraceReading) -> Self {
        Reading {
            time: r.time,
            tag: TagId::new(r.tag, r.generation),
            reader: ReaderId(r.reader),
            rssi: r.rssi,
        }
    }
}

/// A complete trace: deployment metadata plus the reading log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Format version ([`TRACE_VERSION`]).
    pub version: u32,
    /// Free-form description (environment name, capture notes).
    pub description: String,
    /// Reader positions, dense [`ReaderId`] order, meters.
    pub readers: Vec<(f64, f64)>,
    /// Reference tag slot indices and their known positions. Reference
    /// tags are pinned for a deployment's whole life, so they are always
    /// generation 0 and the wire format stores only the slot.
    pub reference_tags: Vec<(u32, (f64, f64))>,
    /// The reading log, time-ascending.
    pub readings: Vec<TraceReading>,
}

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// The trace's schema version is not supported.
    Version(u32),
    /// The trace violates an invariant (e.g. unordered readings).
    Invalid(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O: {e}"),
            TraceError::Json(e) => write!(f, "trace JSON: {e}"),
            TraceError::Version(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (supported: {TRACE_MIN_VERSION}..={TRACE_VERSION})"
                )
            }
            TraceError::Invalid(what) => write!(f, "invalid trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}
impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Json(e)
    }
}

impl Trace {
    /// Builds a trace from a reading log and deployment metadata. The
    /// readings may come from any source — a slice, the middleware's
    /// bounded log ring, or a live bus read.
    pub fn new(
        description: impl Into<String>,
        readers: &[Point2],
        reference_tags: &[(TagId, Point2)],
        readings: impl IntoIterator<Item = Reading>,
    ) -> Self {
        Trace {
            version: TRACE_VERSION,
            description: description.into(),
            readers: readers.iter().map(|p| (p.x, p.y)).collect(),
            reference_tags: reference_tags
                .iter()
                .map(|(id, p)| (id.index, (p.x, p.y)))
                .collect(),
            readings: readings.into_iter().map(Into::into).collect(),
        }
    }

    /// Validates the trace invariants. Accepts every schema version in
    /// `TRACE_MIN_VERSION..=TRACE_VERSION`; a v1 trace must not carry
    /// generations (they did not exist in that schema).
    pub fn validate(&self) -> Result<(), TraceError> {
        if !(TRACE_MIN_VERSION..=TRACE_VERSION).contains(&self.version) {
            return Err(TraceError::Version(self.version));
        }
        if self.version < 2 && self.readings.iter().any(|r| r.generation != 0) {
            return Err(TraceError::Invalid(
                "v1 trace carries tag generations".into(),
            ));
        }
        if self.readers.is_empty() {
            return Err(TraceError::Invalid("no readers".into()));
        }
        let reader_count = self.readers.len() as u32;
        let mut last = f64::NEG_INFINITY;
        for r in &self.readings {
            if !r.rssi.is_finite() || !r.time.is_finite() {
                return Err(TraceError::Invalid("non-finite reading".into()));
            }
            if r.time < last {
                return Err(TraceError::Invalid(format!(
                    "readings not time-ordered at t = {}",
                    r.time
                )));
            }
            last = r.time;
            if r.reader >= reader_count {
                return Err(TraceError::Invalid(format!(
                    "reading references reader {} of {reader_count}",
                    r.reader
                )));
            }
        }
        Ok(())
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace is always serializable")
    }

    /// Parses and validates a JSON trace.
    pub fn from_json(json: &str) -> Result<Trace, TraceError> {
        let trace: Trace = serde_json::from_str(json)?;
        trace.validate()?;
        Ok(trace)
    }

    /// Writes the trace to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(())
    }

    /// Loads and validates a trace file.
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let mut s = String::new();
        std::fs::File::open(path)?.read_to_string(&mut s)?;
        Trace::from_json(&s)
    }

    /// Replays the trace into a fresh middleware with the given smoothing
    /// policy, returning it ready for map/reading export.
    pub fn replay(&self, smoothing: SmoothingKind) -> Middleware {
        let mut mw = Middleware::new(smoothing, false);
        for &r in &self.readings {
            mw.ingest(r.into());
        }
        mw
    }

    /// Reader positions as points.
    pub fn reader_positions(&self) -> Vec<Point2> {
        self.readers
            .iter()
            .map(|&(x, y)| Point2::new(x, y))
            .collect()
    }

    /// Reconstructs the reference deployment the trace was captured on:
    /// the regular lattice its reference-tag positions lie on, and each
    /// reference slot's lattice node. This is what lets a bare trace file
    /// stand up a full serving pipeline ([`crate::serve::IngestServer`])
    /// without shipping the original [`TestbedConfig`](crate::TestbedConfig)
    /// alongside it.
    ///
    /// The lattice is inferred as: origin at the minimum coordinate on
    /// each axis, pitch the smallest positive coordinate step, extent the
    /// number of distinct coordinates. Fails with
    /// [`TraceError::Invalid`] when the positions do not tile a full
    /// regular lattice (missing nodes, duplicate slots, uneven pitch).
    pub fn infer_deployment(&self) -> Result<(RegularGrid, Vec<(u32, GridIndex)>), TraceError> {
        if self.reference_tags.is_empty() {
            return Err(TraceError::Invalid(
                "no reference tags to infer a lattice from".into(),
            ));
        }
        let mut xs: Vec<f64> = self.reference_tags.iter().map(|&(_, (x, _))| x).collect();
        let mut ys: Vec<f64> = self.reference_tags.iter().map(|&(_, (_, y))| y).collect();
        for axis in [&mut xs, &mut ys] {
            axis.sort_by(f64::total_cmp);
            axis.dedup();
        }
        let min_step = |axis: &[f64]| {
            axis.windows(2)
                .map(|w| w[1] - w[0])
                .fold(f64::INFINITY, f64::min)
        };
        // A single-row or single-column capture has no pitch along the
        // degenerate axis; any positive value works there (nothing is ever
        // interpolated along it), so borrow the other axis's.
        let (sx, sy) = (min_step(&xs), min_step(&ys));
        let px = if sx.is_finite() {
            sx
        } else if sy.is_finite() {
            sy
        } else {
            1.0
        };
        let py = if sy.is_finite() { sy } else { px };
        let grid = RegularGrid::new(Point2::new(xs[0], ys[0]), px, py, xs.len(), ys.len());
        if grid.node_count() != self.reference_tags.len() {
            return Err(TraceError::Invalid(format!(
                "{} reference tags do not fill a {}x{} lattice",
                self.reference_tags.len(),
                xs.len(),
                ys.len()
            )));
        }
        let tol = 1e-6 * px.max(py);
        let mut nodes = Vec::with_capacity(self.reference_tags.len());
        let mut seen = vec![false; grid.node_count()];
        for &(slot, (x, y)) in &self.reference_tags {
            let idx = grid.nearest_node(Point2::new(x, y));
            let p = grid.position(idx);
            if (p.x - x).abs() > tol || (p.y - y).abs() > tol {
                return Err(TraceError::Invalid(format!(
                    "reference tag {slot} at ({x}, {y}) is off-lattice"
                )));
            }
            let flat = grid.flat(idx);
            if std::mem::replace(&mut seen[flat], true) {
                return Err(TraceError::Invalid(format!(
                    "two reference tags share lattice node ({}, {})",
                    idx.i, idx.j
                )));
            }
            nodes.push((slot, idx));
        }
        Ok((grid, nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let readings = vec![
            Reading {
                time: 0.0,
                tag: TagId::first(0),
                reader: ReaderId(0),
                rssi: -70.0,
            },
            Reading {
                time: 1.0,
                tag: TagId::first(0),
                reader: ReaderId(1),
                rssi: -75.0,
            },
            Reading {
                time: 2.0,
                tag: TagId::first(1),
                reader: ReaderId(0),
                rssi: -80.0,
            },
        ];
        Trace::new(
            "unit-test capture",
            &[Point2::new(-1.0, -1.0), Point2::new(4.0, 4.0)],
            &[(TagId::first(0), Point2::new(0.0, 0.0))],
            readings,
        )
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let t = sample_trace();
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.description, t.description);
        assert_eq!(back.readers, t.readers);
        assert_eq!(back.reference_tags, t.reference_tags);
        assert_eq!(back.readings, t.readings);
    }

    #[test]
    fn file_round_trip() {
        let t = sample_trace();
        let path = std::env::temp_dir().join("vire_trace_test.json");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(back.readings.len(), 3);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn replay_feeds_the_middleware() {
        let t = sample_trace();
        let mw = t.replay(SmoothingKind::Raw);
        assert_eq!(mw.rssi(TagId::first(0), ReaderId(0)), Some(-70.0));
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(0)), Some(-80.0));
        assert_eq!(mw.rssi(TagId::first(9), ReaderId(0)), None);
    }

    #[test]
    fn validation_rejects_unordered_readings() {
        let mut t = sample_trace();
        t.readings.swap(0, 2);
        assert!(matches!(t.validate(), Err(TraceError::Invalid(_))));
    }

    #[test]
    fn validation_rejects_unknown_reader() {
        let mut t = sample_trace();
        t.readings.push(TraceReading {
            time: 3.0,
            tag: 0,
            reader: 9,
            rssi: -70.0,
            generation: 0,
        });
        assert!(matches!(t.validate(), Err(TraceError::Invalid(_))));
    }

    #[test]
    fn v1_trace_without_generations_still_loads() {
        // A capture from before the generational wire format: version 1,
        // no `generation` field anywhere. Must deserialize (generation
        // defaults to 0), validate, and replay.
        let json = r#"{
            "version": 1,
            "description": "legacy capture",
            "readers": [[0.0, 0.0]],
            "reference_tags": [[0, [0.0, 0.0]]],
            "readings": [
                {"time": 1.0, "tag": 0, "reader": 0, "rssi": -70.0},
                {"time": 2.0, "tag": 1, "reader": 0, "rssi": -80.0}
            ]
        }"#;
        let t = Trace::from_json(json).unwrap();
        assert_eq!(t.version, 1);
        assert_eq!(t.readings[0].generation, 0);
        let mw = t.replay(SmoothingKind::Raw);
        assert_eq!(mw.rssi(TagId::first(0), ReaderId(0)), Some(-70.0));
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(0)), Some(-80.0));
    }

    #[test]
    fn emitted_traces_are_v2_and_gen0_stays_v1_compatible() {
        let t = sample_trace();
        assert_eq!(t.version, TRACE_VERSION);
        // Fixed-population captures are all generation 0, which the wire
        // format omits — the JSON is byte-compatible with v1 readings.
        assert!(!t.to_json().contains("generation"));
    }

    #[test]
    fn respawned_lifetimes_stay_distinct_through_a_round_trip() {
        // Slot 0 is removed and respawned mid-capture: two lifetimes,
        // generations 0 and 1. The trace must keep them apart so replay
        // feeds each lifetime its own smoothing streams.
        let readings = vec![
            Reading {
                time: 1.0,
                tag: TagId::first(0),
                reader: ReaderId(0),
                rssi: -70.0,
            },
            Reading {
                time: 2.0,
                tag: TagId::new(0, 1),
                reader: ReaderId(0),
                rssi: -55.0,
            },
        ];
        let t = Trace::new("churn capture", &[Point2::new(0.0, 0.0)], &[], readings);
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.readings[0].generation, 0);
        assert_eq!(back.readings[1].generation, 1);
        let mw = back.replay(SmoothingKind::Raw);
        assert_eq!(mw.rssi(TagId::first(0), ReaderId(0)), Some(-70.0));
        assert_eq!(mw.rssi(TagId::new(0, 1), ReaderId(0)), Some(-55.0));
    }

    #[test]
    fn v1_trace_with_generations_is_rejected() {
        let mut t = sample_trace();
        t.version = 1;
        t.readings[0].generation = 3;
        assert!(matches!(t.validate(), Err(TraceError::Invalid(_))));
    }

    #[test]
    fn validation_rejects_wrong_version() {
        let mut t = sample_trace();
        t.version = 99;
        assert!(matches!(t.validate(), Err(TraceError::Version(99))));
    }

    #[test]
    fn validation_rejects_nan_rssi() {
        let mut t = sample_trace();
        t.readings[0].rssi = f64::NAN;
        assert!(matches!(t.validate(), Err(TraceError::Invalid(_))));
    }

    #[test]
    fn reader_positions_round_trip() {
        let t = sample_trace();
        assert_eq!(
            t.reader_positions(),
            vec![Point2::new(-1.0, -1.0), Point2::new(4.0, 4.0)]
        );
    }
}
