//! Zone-sharded driving: many independent VIRE zones, one pool call.
//!
//! The paper deploys readers over one covered region and runs VIRE there;
//! LANDMARC-style systems (Ni et al., PerCom 2003 — the baseline VIRE
//! improves on) are explicitly pitched for multi-room indoor deployments.
//! Scaling that to a campus means many such regions — *zones* — each with
//! its own reference lattice, readers, calibration map, and prepared
//! localizer. Nothing couples two zones: a tag is localized by the zone
//! whose readers cover it, against that zone's references only.
//!
//! A campus is therefore a slice of complete [`LocationService`]s, one per
//! zone, and [`drive_zones`] drives them all from per-zone
//! [`SnapshotSource`] stages on the process-wide [`WorkerPool`]. Because a
//! zone's drive is *exactly* the standalone service code path — same
//! localizer, same sync, same fold, on state no other lane touches —
//! per-zone results are `f64::to_bits`-identical to driving each service
//! on its own, at any worker count.

use crate::localizer::{LocalizeError, Localizer};
use crate::pipeline::SnapshotSource;
use crate::pool::WorkerPool;
use crate::service::{LocationService, TagKey, TrackedEstimate};

/// One zone's drive output: `(tag, estimate-or-error)` pairs, exactly as
/// the standalone [`LocationService::drive`] returns them.
pub type ZoneDriveResult = Vec<(TagKey, Result<TrackedEstimate, LocalizeError>)>;

/// Drives every zone one step from its own snapshot stage, all zones
/// concurrently on the [`WorkerPool`]: `stages[k]` feeds `services[k]`.
///
/// Results are bit-identical to calling `services[k].drive(&mut
/// stages[k])` for each `k` in turn, because each lane runs exactly that
/// call on state no other lane touches.
///
/// # Panics
/// Panics when `stages.len() != services.len()`.
pub fn drive_zones<L, S>(
    services: &mut [LocationService<L>],
    stages: &mut [S],
) -> Vec<ZoneDriveResult>
where
    L: Localizer + Send,
    S: SnapshotSource + Send,
{
    assert_eq!(stages.len(), services.len(), "one snapshot stage per zone");
    let mut lanes: Vec<(&mut LocationService<L>, &mut S, ZoneDriveResult)> = services
        .iter_mut()
        .zip(stages.iter_mut())
        .map(|(service, stage)| (service, stage, Vec::new()))
        .collect();
    WorkerPool::global().for_each_mut(&mut lanes, |_, (service, stage, out)| {
        *out = service.drive(&mut **stage);
    });
    lanes.into_iter().map(|(_, _, out)| out).collect()
}
