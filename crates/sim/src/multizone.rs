//! Multi-zone campus testbed: one independent [`Testbed`] per zone.
//!
//! A zone is a room or floor with its own deployment, environment,
//! channel, and event bus — zones share nothing, which is exactly the
//! independence [`vire_core::drive_zones`] exploits to drive them as
//! parallel shards. The campus layer adds the one cross-zone concern:
//! **routing**. Tags live in a campus coordinate frame; each zone covers
//! the axis-aligned region of its sensing area, and a tracking tag is
//! registered with the (first) zone covering its position, translated
//! into that zone's local frame.
//!
//! ```
//! use vire_core::{drive_zones, LocationService, ServiceConfig, Vire};
//! use vire_env::presets::env1;
//! use vire_geom::Point2;
//! use vire_sim::MultiZoneTestbed;
//!
//! let mut campus = MultiZoneTestbed::paper_campus(2, env1(), 7, 4.0);
//! campus.add_tracking_tag(Point2::new(1.5, 1.5)).expect("zone 0");
//! campus.add_tracking_tag(Point2::new(8.5, 1.5)).expect("zone 1");
//! let mut services: Vec<_> = (0..2)
//!     .map(|_| LocationService::new(Vire::default(), ServiceConfig::default()))
//!     .collect();
//! campus.run_for(campus.warmup_duration() * 2.0);
//! let per_zone = drive_zones(&mut services, campus.zones_mut());
//! assert_eq!(per_zone.len(), 2);
//! assert!(per_zone.iter().all(|z| !z.is_empty()));
//! ```

use crate::engine::{Testbed, TestbedConfig};
use crate::tag::TagId;
use vire_env::{Deployment, Environment};
use vire_geom::{Aabb, Point2, Vec2};

/// A campus of independent zone [`Testbed`]s with position-based routing.
/// See the [module docs](self).
#[derive(Debug)]
pub struct MultiZoneTestbed {
    zones: Vec<Testbed>,
    /// Campus-frame coverage region per zone.
    regions: Vec<Aabb>,
    /// Campus-frame origin of each zone's local frame: a campus point `p`
    /// lands in zone `k` at `p - offsets[k]`.
    offsets: Vec<Vec2>,
}

impl MultiZoneTestbed {
    /// Builds one zone per config, all sharing the campus frame directly
    /// (zero offsets — each deployment is already placed in campus
    /// coordinates).
    ///
    /// # Panics
    /// Panics on an empty config list.
    pub fn new(configs: Vec<TestbedConfig>) -> Self {
        assert!(!configs.is_empty(), "a campus needs at least one zone");
        let regions: Vec<Aabb> = configs
            .iter()
            .map(|c| c.deployment.sensing_area())
            .collect();
        let offsets = vec![Vec2::new(0.0, 0.0); configs.len()];
        MultiZoneTestbed {
            zones: configs.into_iter().map(Testbed::new).collect(),
            regions,
            offsets,
        }
    }

    /// `zone_count` copies of the paper's 4×4 testbed laid out in a row,
    /// `gap` meters apart, every zone running `environment` with its own
    /// derived channel seed. Zones keep their local coordinate frames (the
    /// preset environments' room geometry encloses the testbed at the
    /// origin); only the routing regions live in the campus frame.
    ///
    /// # Panics
    /// Panics when `zone_count` is 0 or `gap` is negative.
    pub fn paper_campus(zone_count: usize, environment: Environment, seed: u64, gap: f64) -> Self {
        assert!(zone_count > 0, "a campus needs at least one zone");
        assert!(gap >= 0.0, "zones cannot overlap");
        let base = Deployment::paper_testbed();
        let local = base.sensing_area();
        let span = local.width() + gap;
        let mut zones = Vec::with_capacity(zone_count);
        let mut regions = Vec::with_capacity(zone_count);
        let mut offsets = Vec::with_capacity(zone_count);
        for k in 0..zone_count {
            let offset = Vec2::new(span * k as f64, 0.0);
            zones.push(Testbed::new(TestbedConfig::paper(
                environment.clone(),
                seed.wrapping_add(k as u64),
            )));
            regions.push(Aabb::new(local.min + offset, local.max + offset));
            offsets.push(offset);
        }
        MultiZoneTestbed {
            zones,
            regions,
            offsets,
        }
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Campus-frame coverage region of each zone.
    pub fn regions(&self) -> &[Aabb] {
        &self.regions
    }

    /// The zone covering campus position `p`, or `None` when no zone's
    /// sensing area contains it. Overlapping regions resolve to the lowest
    /// zone index, deterministically.
    pub fn route(&self, p: Point2) -> Option<usize> {
        self.regions.iter().position(|r| r.contains(p))
    }

    /// Translates campus position `p` into zone `k`'s local frame.
    pub fn to_local(&self, k: usize, p: Point2) -> Point2 {
        let off = self.offsets[k];
        Point2::new(p.x - off.x, p.y - off.y)
    }

    /// Registers a tracking tag at campus position `p` with the zone
    /// covering it; `None` when the position is outside every zone (dead
    /// zone between rooms). Returns the zone index and the tag's id
    /// *within that zone* — ids are per-zone, not campus-global.
    pub fn add_tracking_tag(&mut self, p: Point2) -> Option<(usize, TagId)> {
        let k = self.route(p)?;
        let local = self.to_local(k, p);
        Some((k, self.zones[k].add_tracking_tag(local)))
    }

    /// Removes a tracking tag from zone `k`, releasing its slab slot back
    /// to that zone's allocator and queueing a removal event for the
    /// zone's location service. The handle is per-zone — removal must be
    /// routed to the zone that issued it (the zone index returned by
    /// [`MultiZoneTestbed::add_tracking_tag`]). A later spawn in the same
    /// zone may reuse the slot at a bumped generation; the stale handle
    /// then misses everywhere instead of aliasing the newcomer.
    ///
    /// # Panics
    /// Panics when `k` is out of range, or when `id`'s slot in zone `k`
    /// does not hold a tracking tag.
    pub fn remove_tracking_tag(&mut self, k: usize, id: TagId) {
        self.zones[k].remove_tracking_tag(id);
    }

    /// Whether handle `id` names the live occupant of its slot in zone
    /// `k` — false once the tag was removed, even if the slot has been
    /// reused by a newer generation.
    pub fn is_live(&self, k: usize, id: TagId) -> bool {
        self.zones[k].is_live(id)
    }

    /// Advances every zone's simulation by `seconds`. Zones are
    /// independent discrete-event simulations; advancing them in sequence
    /// or in parallel is indistinguishable.
    pub fn run_for(&mut self, seconds: f64) {
        for zone in &mut self.zones {
            zone.run_for(seconds);
        }
    }

    /// Zone `k`'s testbed (read access).
    pub fn zone(&self, k: usize) -> &Testbed {
        &self.zones[k]
    }

    /// Zone `k`'s testbed (mutable: move tags, mutate the environment).
    pub fn zone_mut(&mut self, k: usize) -> &mut Testbed {
        &mut self.zones[k]
    }

    /// All zones as a mutable slice — the shape [`vire_core::drive_zones`]
    /// consumes, one snapshot source per zone:
    /// `drive_zones(&mut services, campus.zones_mut())`.
    pub fn zones_mut(&mut self) -> &mut [Testbed] {
        &mut self.zones
    }

    /// The longest warmup over all zones (they are homogeneous in
    /// practice, but configs may differ).
    pub fn warmup_duration(&self) -> f64 {
        self.zones
            .iter()
            .map(Testbed::warmup_duration)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_env::presets::env1;

    #[test]
    fn routing_picks_the_covering_zone() {
        let campus = MultiZoneTestbed::paper_campus(3, env1(), 5, 4.0);
        assert_eq!(campus.zone_count(), 3);
        assert_eq!(campus.route(Point2::new(1.5, 1.5)), Some(0));
        assert_eq!(campus.route(Point2::new(8.5, 1.5)), Some(1));
        assert_eq!(campus.route(Point2::new(15.5, 1.5)), Some(2));
        // The gap between zones is covered by nobody.
        assert_eq!(campus.route(Point2::new(5.0, 1.5)), None);
        assert_eq!(campus.route(Point2::new(1.5, 9.0)), None);
    }

    #[test]
    fn tags_land_in_their_zone_at_the_local_position() {
        let mut campus = MultiZoneTestbed::paper_campus(2, env1(), 5, 4.0);
        let (k, id) = campus
            .add_tracking_tag(Point2::new(8.5, 1.5))
            .expect("covered");
        assert_eq!(k, 1);
        assert_eq!(campus.zone(1).tag_position(id), Point2::new(1.5, 1.5));
        assert!(campus.add_tracking_tag(Point2::new(50.0, 0.0)).is_none());
        campus.run_for(campus.warmup_duration());
        assert!(campus.zone(1).tracking_reading(id).is_some());
    }

    #[test]
    fn removal_routes_to_the_owning_zone_and_respawn_bumps_generation() {
        let mut campus = MultiZoneTestbed::paper_campus(2, env1(), 5, 4.0);
        let (k, id) = campus
            .add_tracking_tag(Point2::new(8.5, 1.5))
            .expect("covered");
        assert!(campus.is_live(k, id));
        campus.remove_tracking_tag(k, id);
        assert!(!campus.is_live(k, id));
        // Respawn in the same zone: the slot is reused at generation + 1,
        // so the dead handle keeps missing while the newcomer is live.
        let (k2, id2) = campus
            .add_tracking_tag(Point2::new(8.0, 1.0))
            .expect("covered");
        assert_eq!(k2, k);
        assert_eq!(id2.index, id.index, "slot reused");
        assert_eq!(id2.generation, id.generation + 1);
        assert!(campus.is_live(k, id2));
        assert!(!campus.is_live(k, id));
    }

    /// A campus zone is bit-identical to a standalone testbed with the
    /// same config and seed — the campus layer adds routing, not physics.
    /// (Dyadic coordinates make the campus → local frame translation
    /// lossless, so the standalone twin sees the exact same position.)
    #[test]
    fn zones_are_bit_identical_to_standalone_testbeds() {
        let spot = Point2::new(1.25, 1.75);
        let mut campus = MultiZoneTestbed::paper_campus(2, env1(), 11, 4.0);
        let (k, id) = campus
            .add_tracking_tag(Point2::new(spot.x + 7.0, spot.y))
            .expect("zone 1 covers it");
        assert_eq!(k, 1);
        // Zone 1's seed is 11 + 1.
        let mut standalone = Testbed::new(TestbedConfig::paper(env1(), 12));
        let lone = standalone.add_tracking_tag(spot);
        campus.run_for(60.0);
        standalone.run_for(60.0);
        let a = campus.zone(1).tracking_reading(id).expect("heard");
        let b = standalone.tracking_reading(lone).expect("heard");
        let bits = |r: &vire_core::TrackingReading| -> Vec<u64> {
            r.rssi().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b));
    }
}
