//! # vire-core
//!
//! The localization algorithms: **VIRE** (the paper's contribution), the
//! **LANDMARC** baseline it improves on, and supporting baselines and
//! extensions.
//!
//! ## Data model
//!
//! Localization consumes two things ([`types`]):
//!
//! * a [`ReferenceRssiMap`] — the smoothed RSSI of every *real* reference
//!   tag as heard by every reader, on the reference lattice,
//! * a [`TrackingReading`] — the RSSI of the tracking tag at the same
//!   readers.
//!
//! Both are produced by the `vire-sim` testbed (or could come from real
//! middleware; the algorithms never look behind these types).
//!
//! ## Algorithms
//!
//! * [`landmarc`] — signal-space k-nearest-neighbour weighting (Ni et al.,
//!   PerCom 2003), the baseline of every figure,
//! * [`vire_alg`] — the four VIRE stages: virtual grid interpolation
//!   ([`virtual_grid`]), per-reader proximity maps ([`proximity`]),
//!   threshold elimination ([`elimination`]) and dual-factor weighting
//!   ([`weights`]),
//! * [`trilateration`], [`nearest`] — sanity baselines the paper does not
//!   plot but any practitioner would ask about,
//! * [`ext`] — the paper's §6 future-work items: nonlinear interpolation
//!   kernels, boundary-tag compensation, and two-pass adaptive granularity.
//!
//! ## Prepared (two-phase) localization
//!
//! Hot loops should not rebuild the virtual grid per reading. Every
//! localizer splits into a *prepare* phase (bind to one
//! [`ReferenceRssiMap`], via [`Localizer::prepare`] or the concrete
//! [`Vire::prepare`] / [`Landmarc::prepare`]) and a *query* phase
//! ([`PreparedLocalizer::locate`] / [`PreparedLocalizer::locate_batch`])
//! that allocates nothing in steady state and can fan a batch across
//! threads. VIRE and LANDMARC have one prepared form each,
//! [`PreparedVire`] and [`PreparedLandmarc`]: it owns a mirror of the
//! map, follows later snapshots by re-interpolating only the readers
//! whose cells changed ([`OwnedPreparedLocalizer::sync`], module
//! [`incremental`]), and is
//! also what one-shot [`Localizer::locate`] prepares and discards. See
//! DESIGN.md §"Prepared localization".

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod elimination;
pub mod ext;
pub mod fabric;
pub mod incremental;
pub mod ingest;
pub mod kalman;
pub mod kernels;
pub mod landmarc;
pub mod localizer;
pub mod nearest;
pub mod pipeline;
pub mod pool;
pub mod prepared;
pub mod proximity;
pub mod quality;
pub mod scattered;
pub mod service;
pub mod tracking;
pub mod trilateration;
pub mod types;
pub mod vire_alg;
pub mod virtual_grid;
pub mod weights;

pub use fabric::{drive_zones, ZoneDriveResult};
pub use incremental::{
    DirtyCell, OwnedPreparedLocalizer, PreparedLandmarc, PreparedVire, SyncOutcome,
};
pub use ingest::{
    beacon_key, coalesce_newest, parse_wire, parse_wire_versioned, BeaconEvent, IngestBatch,
    IngestConfig, IngestFrontEnd, IngestStats, WireError, WIRE_MIN_VERSION, WIRE_VERSION,
};
pub use kalman::KalmanTracker;
pub use landmarc::{Landmarc, LandmarcConfig};
pub use localizer::{Estimate, LocalizeError, Localizer};
pub use pipeline::SnapshotSource;
pub use pool::WorkerPool;
pub use prepared::{locate_batch_parallel, PreparedLocalizer, Unprepared, VireScratch};
pub use quality::FixQuality;
pub use scattered::{ScatteredLandmarc, ScatteredReferenceMap, ScatteredVire};
pub use service::{
    LocationQuery, LocationService, QueryResponse, ServiceConfig, SyncStats, TagKey,
    TrackedEstimate,
};
pub use tracking::PositionTracker;
pub use types::{ReferenceRssiMap, TrackingReading};
pub use vire_alg::{ThresholdMode, Vire, VireConfig};
pub use virtual_grid::InterpolationKernel;
pub use weights::{W1Mode, WeightingMode};
