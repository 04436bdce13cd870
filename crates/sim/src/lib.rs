//! # vire-sim
//!
//! Discrete-event simulation of the active-RFID testbed.
//!
//! The paper's hardware loop is: active tags beacon every ~2 s (7.5 s on
//! the legacy equipment); every reader in range hears each beacon and
//! reports `(tag id, reader id, RSSI)` to a middleware server, which keeps
//! a smoothed RSSI table the localization algorithms read. This crate
//! reproduces that loop over the `vire-radio` channel:
//!
//! * [`tag`] / [`reader`] — the hardware inventory,
//! * [`events`] — the beacon event queue (time-ordered, deterministic
//!   tie-breaking),
//! * [`smoothing`] — the middleware's per-(tag, reader) RSSI filters,
//!   including the median filter that rejects human-movement spikes,
//! * [`middleware`] — the reading store and its export into the
//!   `vire-core` data model ([`vire_core::ReferenceRssiMap`] +
//!   [`vire_core::TrackingReading`]),
//! * [`pipeline`] — the streaming data path: the engine hands every
//!   decoded reading to the [`MiddlewareStage`], which smooths per event
//!   with incremental dirty-cell tracking, implementing
//!   [`vire_core::SnapshotSource`] so
//!   [`vire_core::LocationService::drive`] localizes only what changed,
//! * [`engine`] — [`Testbed`]: wires a deployment, an environment, and a
//!   channel together and runs simulated time; it is itself a
//!   [`vire_core::SnapshotSource`], so [`vire_core::drive_zones`] drives
//!   testbeds directly,
//! * [`multizone`] — [`MultiZoneTestbed`]: a campus of independent zone
//!   testbeds with position-based tag routing, the simulation side of
//!   [`vire_core::drive_zones`],
//! * [`trace`] — JSON reading traces: export simulated captures as
//!   reproducible datasets, or replay real middleware logs into the
//!   localization pipeline.
//!
//! Everything is seeded and replayable.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod events;
pub mod middleware;
pub mod multizone;
pub mod pipeline;
pub mod reader;
pub mod serve;
pub mod smoothing;
pub mod tag;
pub mod trace;

pub use engine::{Testbed, TestbedConfig};
pub use middleware::{Middleware, Reading};
pub use multizone::MultiZoneTestbed;
pub use pipeline::{MiddlewareStage, PumpStats};
pub use reader::ReaderId;
pub use serve::{DriveReport, IngestServer, ServeConfig};
pub use smoothing::{SmoothingError, SmoothingKind};
pub use tag::{TagId, TagRole};
pub use trace::Trace;
pub use vire_bus::{EventBus, ReaderToken};
