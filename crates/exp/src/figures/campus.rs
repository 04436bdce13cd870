//! Multi-zone campus workload (this repository's extension, the paper's
//! §6 scaling question).
//!
//! N copies of the paper testbed — independent rooms laid out in a row —
//! each get their own [`LocationService`], all driven by one
//! [`drive_zones`] call per round. Each zone hosts the paper's five
//! non-boundary Fig. 2(a) tracking tags; every round polls each zone's
//! middleware stage and localizes only what changed. The per-zone accuracy
//! must match the single-zone paper operating point (zones share nothing).

use serde::{Deserialize, Serialize};
use vire_core::{drive_zones, LocationService, ServiceConfig, Vire};
use vire_env::Deployment;
use vire_geom::Point2;
use vire_sim::{MultiZoneTestbed, TagId};

/// One zone's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampusZoneRow {
    /// Zone index.
    pub zone: usize,
    /// Tracking tags registered in the zone.
    pub tags: usize,
    /// Tags the fabric produced at least one successful estimate for.
    pub located: usize,
    /// Mean estimation error over the zone's located tags, m.
    pub mean_error: f64,
    /// Calibration syncs that re-interpolated some readers, not all.
    pub sync_patched: u64,
    /// Calibration syncs that rebuilt from scratch.
    pub sync_rebuilt: u64,
}

/// Result of the campus experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampusResult {
    /// Zones in index order.
    pub zones: Vec<CampusZoneRow>,
    /// Fabric drive rounds executed.
    pub drives: usize,
    /// Mean error across every located tag on the campus, m.
    pub mean_error: f64,
}

/// Runs `zone_count` zones for `drives` fabric rounds and reports per-zone
/// accuracy. Deterministic in `seed`.
pub fn run(zone_count: usize, drives: usize, seed: u64) -> CampusResult {
    let mut campus =
        MultiZoneTestbed::paper_campus(zone_count, vire_env::presets::env1(), seed, 4.0);
    // The paper's non-boundary tags (1-5), registered through campus
    // routing; ground truth is read back in each zone's local frame.
    let spots: Vec<Point2> = Deployment::tracking_tags_fig2a()[..5].to_vec();
    let mut truths: Vec<Vec<(TagId, Point2)>> = vec![Vec::new(); zone_count];
    for (k, truth) in truths.iter_mut().enumerate() {
        let origin = campus.regions()[k].min;
        for &p in &spots {
            let (routed, id) = campus
                .add_tracking_tag(Point2::new(origin.x + p.x, origin.y + p.y))
                .expect("non-boundary tags are covered");
            assert_eq!(routed, k);
            truth.push((id, campus.zone(k).tag_position(id)));
        }
    }
    let mut services: Vec<LocationService<Vire>> = (0..zone_count)
        .map(|_| LocationService::new(Vire::default(), ServiceConfig::default()))
        .collect();
    let step = campus.warmup_duration();
    // Last successful estimate per (zone, tag).
    let mut last: Vec<std::collections::HashMap<TagId, Point2>> =
        vec![std::collections::HashMap::new(); zone_count];
    for _ in 0..drives {
        campus.run_for(step);
        for (k, zone_out) in drive_zones(&mut services, campus.zones_mut())
            .iter()
            .enumerate()
        {
            for (tag, result) in zone_out {
                if let Ok(est) = result {
                    last[k].insert(*tag, est.position);
                }
            }
        }
    }
    let mut zones = Vec::with_capacity(zone_count);
    let mut all_errors = Vec::new();
    for k in 0..zone_count {
        let errors: Vec<f64> = truths[k]
            .iter()
            .filter_map(|(tag, truth)| last[k].get(tag).map(|est| est.distance(*truth)))
            .collect();
        let mean = if errors.is_empty() {
            f64::NAN
        } else {
            errors.iter().sum::<f64>() / errors.len() as f64
        };
        all_errors.extend(errors.iter().copied());
        zones.push(CampusZoneRow {
            zone: k,
            tags: truths[k].len(),
            located: errors.len(),
            mean_error: mean,
            sync_patched: services[k].sync_stats().patched,
            sync_rebuilt: services[k].sync_stats().rebuilt,
        });
    }
    let mean_error = if all_errors.is_empty() {
        f64::NAN
    } else {
        all_errors.iter().sum::<f64>() / all_errors.len() as f64
    };
    CampusResult {
        zones,
        drives,
        mean_error,
    }
}

/// Renders the per-zone table.
pub fn render(result: &CampusResult) -> String {
    use crate::report::{fmt3, Table};
    let mut t = Table::new(
        "Multi-zone campus — per-zone accuracy, all zones driven together (VIRE, Env1)",
        &[
            "zone",
            "tags",
            "located",
            "mean err (m)",
            "patched",
            "rebuilt",
        ],
    );
    for z in &result.zones {
        t.row(vec![
            z.zone.to_string(),
            z.tags.to_string(),
            z.located.to_string(),
            fmt3(z.mean_error),
            z.sync_patched.to_string(),
            z.sync_rebuilt.to_string(),
        ]);
    }
    format!(
        "{}campus mean error over {} drives: {}\n{}\n",
        t.render(),
        result.drives,
        fmt3(result.mean_error),
        super::SUBSTRATE_NOTE
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_zone_locates_its_tags_at_paper_accuracy() {
        let r = run(3, 3, 7);
        assert_eq!(r.zones.len(), 3);
        for z in &r.zones {
            assert_eq!(z.tags, 5);
            assert_eq!(z.located, 5, "zone {} must locate every tag", z.zone);
            assert!(
                z.mean_error < 1.0,
                "zone {} mean error {} m",
                z.zone,
                z.mean_error
            );
        }
        assert!(r.mean_error < 1.0);
    }

    #[test]
    fn zones_are_independent_of_campus_size() {
        // Zone 0 must produce the same numbers whether the campus has one
        // zone or three — shards share nothing.
        let small = run(1, 3, 11);
        let large = run(3, 3, 11);
        assert_eq!(
            small.zones[0].mean_error.to_bits(),
            large.zones[0].mean_error.to_bits()
        );
    }

    #[test]
    fn render_includes_every_zone() {
        let s = render(&run(2, 2, 5));
        assert!(s.contains("campus mean error"));
        assert!(s.contains("all zones driven together"));
    }
}
