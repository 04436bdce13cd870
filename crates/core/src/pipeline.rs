//! The pipeline-stage contract between a streaming middleware and the
//! location service.
//!
//! The paper's deployment is a chain of decoupled stages: readers feed an
//! event stream into a middleware, and the location server consumes the
//! middleware's smoothed table at its own pace (§4.1). [`SnapshotSource`]
//! is the seam between the last two stages: anything that maintains a
//! smoothed calibration table and can say *which tracking tags changed*
//! can drive [`LocationService::drive`](crate::LocationService::drive)
//! incrementally. The `vire-sim` crate implements it for its
//! `MiddlewareStage`, which is handed each decoded reading through
//! `ingest`; a real deployment would implement it over a live reader
//! gateway.

use crate::incremental::DirtyCell;
use crate::service::TagKey;
use crate::types::{ReferenceRssiMap, TrackingReading};

/// A middleware-side pipeline stage the location service can poll.
///
/// Implementations own the smoothed RSSI state and expose it
/// *incrementally*: [`SnapshotSource::changed_readings`] drains only the
/// tracking tags whose smoothed value moved since the last drain, and
/// [`SnapshotSource::reference_map`] refreshes only the calibration cells
/// that changed. Both are cheap when nothing happened — the property that
/// lets a service poll a mostly-idle deployment at high frequency.
///
/// The source is the only buffer between ingest and locate.
/// [`LocationService::drive`](crate::LocationService::drive) reads the map
/// before draining anything and drains nothing while it is `None`, and it
/// takes the dirty cells only on a drive whose drained readings it
/// localizes. So a source keeps its dirty state until it is drained, and
/// once its map is `Some` it must stay `Some` for the rest of that drive.
pub trait SnapshotSource {
    /// Timestamp of the newest ingested event, seconds. Estimates
    /// produced from the current state carry this time.
    fn snapshot_time(&self) -> f64;

    /// The reference calibration map, refreshed in place so only changed
    /// cells are touched. `None` while calibration coverage is still
    /// incomplete (some reference tag unheard by some reader).
    fn reference_map(&mut self) -> Option<&ReferenceRssiMap>;

    /// Drains the tracking tags whose smoothed RSSI changed since the
    /// previous drain, with their current reading vectors, in
    /// first-dirtied order. Tags without full reader coverage yet are
    /// left out; each is reported once complete.
    fn changed_readings(&mut self) -> Vec<(TagKey, TrackingReading)>;

    /// Drains the tracking tags removed upstream since the previous
    /// drain, despawned or evicted from a full table alike: a source that
    /// bounds its tags and reports each eviction here bounds the service's
    /// live tracks too.
    /// [`LocationService::drive`](crate::LocationService::drive)
    /// evicts each one's Kalman track **immediately** — before the same
    /// drive's changed readings are processed — instead of letting it
    /// linger until the stale-track sweep. The key's
    /// generation scopes the eviction: a newer lifetime already occupying
    /// the slot is never disturbed by a late removal event. Sources
    /// without removal tracking keep the default (empty).
    fn removed_tags(&mut self) -> Vec<TagKey> {
        Vec::new()
    }

    /// Drains the calibration cells whose smoothed RSSI changed since the
    /// previous drain, as `(reader, cell)` pairs.
    ///
    /// This is the only record of calibration changes: the map keeps
    /// none. A service keeping an incrementally synced prepared localizer
    /// feeds it to
    /// [`OwnedPreparedLocalizer::sync`](crate::incremental::OwnedPreparedLocalizer::sync)
    /// as its dirty hint, which adopts exactly the named cells. A source
    /// that overrides this must therefore name **every** cell of the map
    /// [`reference_map`](SnapshotSource::reference_map) returns that it
    /// changed since its last drain (repeats and cells that changed back
    /// are fine). A source that does not track its cells keeps the
    /// default, which is always safe: an empty hint makes the consumer
    /// bit-diff the whole coarse map instead.
    fn take_dirty_cells(&mut self) -> Vec<DirtyCell> {
        Vec::new()
    }
}
