//! Production churn workload (this repository's extension).
//!
//! The paper's experiments track a fixed tag population, but a deployed
//! RTLS sees *churn*: assets enter the campus, move for a while, and
//! leave, at rates of thousands of arrivals and departures per minute
//! across a building. This workload drives a multi-zone campus fabric
//! under a seeded spawn/despawn schedule and reports two things:
//!
//! * **Steady-state locate behavior** — how many lifetimes the fabric
//!   localized, at what accuracy, while the roster was turning over.
//! * **Bounded memory** — the generational slab reuses freed tag slots,
//!   so per-tag storage (tag table, link-budget cache rows, middleware
//!   smoothing streams) is bounded by the *peak live* population. The
//!   no-reuse baseline is what the pre-generational engine did: one fresh
//!   row per lifetime, growing monotonically with total arrivals.
//!
//! Every spawned lifetime gets its own generational handle, so a reused
//! slot never aliases the departed tag: caches miss, tracks restart, and
//! the trace wire format keeps the lifetimes apart on replay.

use serde::{Deserialize, Serialize};
use vire_core::{drive_zones, LocationService, ServiceConfig, Vire};
use vire_geom::Point2;
use vire_sim::{MultiZoneTestbed, TagId};

/// Parameters of a churn run. All fields are in simulated units;
/// determinism is total in (`seed`, the other fields).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Campus zones (independent paper testbeds in a row).
    pub zone_count: usize,
    /// Fabric drive rounds after warmup.
    pub rounds: usize,
    /// Tags spawned per zone per round (an equal number is removed once
    /// the pipeline is full, so steady-state live count is
    /// `batch_per_zone * lifetime_rounds` per zone).
    pub batch_per_zone: usize,
    /// Rounds a tag lives before it is removed.
    pub lifetime_rounds: usize,
    /// Simulated seconds per round.
    pub step: f64,
    /// Schedule seed (spawn positions).
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        // 2 zones x 10 spawns + 10 removals per 2 s round in steady
        // state: 40 events / 2 s = 1200 events per simulated minute
        // (~1100/min measured over the run, including the fill ramp
        // before the first removals come due).
        ChurnConfig {
            zone_count: 2,
            rounds: 30,
            batch_per_zone: 10,
            lifetime_rounds: 5,
            step: 2.0,
            seed: 1,
        }
    }
}

/// One zone's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnZoneRow {
    /// Zone index.
    pub zone: usize,
    /// Tracking-tag lifetimes spawned in the zone.
    pub spawns: usize,
    /// Lifetimes removed before the run ended.
    pub removals: usize,
    /// Peak live tags (reference lattice + tracking) — the bound every
    /// per-tag table must respect.
    pub peak_live: usize,
    /// Tag slots ever allocated (slab high-water mark).
    pub slab_slots: usize,
    /// Link-budget cache rows allocated (one per slot, not per lifetime).
    pub cache_rows: usize,
    /// Rows a grow-only allocator would hold: lattice + every lifetime.
    pub no_reuse_rows: usize,
    /// Lifetimes that produced at least one successful estimate.
    pub located_lifetimes: usize,
    /// Mean error over located lifetimes' last estimates, m.
    pub mean_error: f64,
}

/// Result of the churn workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnResult {
    /// The schedule that was run.
    pub config: ChurnConfig,
    /// Zones in index order.
    pub zones: Vec<ChurnZoneRow>,
    /// Spawn + despawn events per simulated minute, steady state.
    pub events_per_minute: f64,
    /// Successful locate results across the whole run.
    pub locates: usize,
    /// Campus-wide mean error over located lifetimes, m.
    pub mean_error: f64,
    /// Campus-wide slab high-water mark (sum of zone slabs).
    pub slab_slots: usize,
    /// Campus-wide cache rows with slot reuse.
    pub cache_rows: usize,
    /// Campus-wide rows without reuse (the pre-generational baseline).
    pub no_reuse_rows: usize,
    /// Allocations served by reusing a freed slot.
    pub reused_slots: u64,
}

/// Splitmix-style deterministic position stream, one per run.
struct PosRng(u64);

impl PosRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }
}

/// Runs the churn schedule and reports locate + memory outcomes.
pub fn run(config: ChurnConfig) -> ChurnResult {
    assert!(config.zone_count > 0 && config.rounds > 0);
    assert!(config.lifetime_rounds > 0 && config.step > 0.0);
    let mut campus = MultiZoneTestbed::paper_campus(
        config.zone_count,
        vire_env::presets::env1(),
        config.seed,
        4.0,
    );
    let mut services: Vec<LocationService<Vire>> = (0..config.zone_count)
        .map(|_| LocationService::new(Vire::default(), ServiceConfig::default()))
        .collect();
    let mut rng = PosRng(config.seed.wrapping_mul(0x5851_F42D_4C95_7F2D));
    // Calibrate the reference lattice before churn starts.
    campus.run_for(campus.warmup_duration());

    // Pending removals per zone, oldest first, with each lifetime's true
    // position and removal round.
    let mut live: Vec<std::collections::VecDeque<(TagId, Point2, usize)>> =
        vec![std::collections::VecDeque::new(); config.zone_count];
    let mut spawns = vec![0usize; config.zone_count];
    let mut removals = vec![0usize; config.zone_count];
    let mut peak_live = vec![0usize; config.zone_count];
    // Last successful estimate and truth per lifetime, per zone.
    // BTreeMap, not HashMap: the error mean folds in iteration order, and
    // slot-major handle order keeps that fold deterministic.
    let mut last: Vec<std::collections::BTreeMap<TagId, (Point2, Point2)>> =
        vec![std::collections::BTreeMap::new(); config.zone_count];
    let mut locates = 0usize;
    let mut events = 0usize;

    for round in 0..config.rounds {
        for k in 0..config.zone_count {
            let origin = campus.regions()[k].min;
            for _ in 0..config.batch_per_zone {
                // Strictly inside the lattice, away from its border.
                let p = Point2::new(
                    origin.x + rng.range(0.3, 2.7),
                    origin.y + rng.range(0.3, 2.7),
                );
                let (routed, id) = campus.add_tracking_tag(p).expect("in-zone spawn");
                assert_eq!(routed, k);
                let truth = campus.zone(k).tag_position(id);
                live[k].push_back((id, truth, round + config.lifetime_rounds));
                spawns[k] += 1;
                events += 1;
            }
            peak_live[k] = peak_live[k].max(campus.zone(k).live_tag_count());
        }
        campus.run_for(config.step);
        for (k, zone_out) in drive_zones(&mut services, campus.zones_mut())
            .iter()
            .enumerate()
        {
            for (tag, result) in zone_out {
                if let Ok(est) = result {
                    locates += 1;
                    if let Some(truth) = live[k]
                        .iter()
                        .find(|(id, _, _)| id == tag)
                        .map(|(_, truth, _)| *truth)
                    {
                        last[k].insert(*tag, (est.position, truth));
                    }
                }
            }
        }
        for k in 0..config.zone_count {
            while let Some(&(id, _, due)) = live[k].front() {
                if due > round {
                    break;
                }
                campus.remove_tracking_tag(k, id);
                live[k].pop_front();
                removals[k] += 1;
                events += 1;
            }
        }
    }

    let sim_minutes = config.rounds as f64 * config.step / 60.0;
    let mut zones = Vec::with_capacity(config.zone_count);
    let mut all_errors = Vec::new();
    for k in 0..config.zone_count {
        let zone = campus.zone(k);
        let lattice = zone.tags().iter().filter(|t| t.is_reference()).count();
        let cache_rows = zone
            .link_budget_cache()
            .map(|c| c.allocated_rows())
            .unwrap_or(0);
        let errors: Vec<f64> = last[k]
            .values()
            .map(|(est, truth)| est.distance(*truth))
            .collect();
        let mean = if errors.is_empty() {
            f64::NAN
        } else {
            errors.iter().sum::<f64>() / errors.len() as f64
        };
        all_errors.extend(errors.iter().copied());
        zones.push(ChurnZoneRow {
            zone: k,
            spawns: spawns[k],
            removals: removals[k],
            peak_live: peak_live[k],
            slab_slots: zone.tag_slot_count(),
            cache_rows,
            no_reuse_rows: lattice + spawns[k],
            located_lifetimes: last[k].len(),
            mean_error: mean,
        });
    }
    let mean_error = if all_errors.is_empty() {
        f64::NAN
    } else {
        all_errors.iter().sum::<f64>() / all_errors.len() as f64
    };
    let reused_slots = (0..config.zone_count)
        .map(|k| campus.zone(k).tag_slab_stats().reused_slots)
        .sum();
    ChurnResult {
        config,
        events_per_minute: events as f64 / sim_minutes,
        locates,
        mean_error,
        slab_slots: zones.iter().map(|z| z.slab_slots).sum(),
        cache_rows: zones.iter().map(|z| z.cache_rows).sum(),
        no_reuse_rows: zones.iter().map(|z| z.no_reuse_rows).sum(),
        reused_slots,
        zones,
    }
}

/// Runs the default schedule, deterministic in `seed`.
pub fn run_default(seed: u64) -> ChurnResult {
    run(ChurnConfig {
        seed,
        ..ChurnConfig::default()
    })
}

/// Renders the per-zone table plus the campus memory summary.
pub fn render(result: &ChurnResult) -> String {
    use crate::report::{fmt3, Table};
    let mut t = Table::new(
        "Tag churn — bounded storage under spawn/despawn (VIRE, Env1)",
        &[
            "zone",
            "spawns",
            "removed",
            "peak live",
            "slab slots",
            "cache rows",
            "no-reuse rows",
            "located",
            "mean err (m)",
        ],
    );
    for z in &result.zones {
        t.row(vec![
            z.zone.to_string(),
            z.spawns.to_string(),
            z.removals.to_string(),
            z.peak_live.to_string(),
            z.slab_slots.to_string(),
            z.cache_rows.to_string(),
            z.no_reuse_rows.to_string(),
            z.located_lifetimes.to_string(),
            fmt3(z.mean_error),
        ]);
    }
    format!(
        "{}churn: {:.0} events/min, {} locates, mean error {} m; \
         campus rows {} (no-reuse baseline {}, {} slot reuses)\n{}\n",
        t.render(),
        result.events_per_minute,
        result.locates,
        fmt3(result.mean_error),
        result.cache_rows,
        result.no_reuse_rows,
        result.reused_slots,
        super::SUBSTRATE_NOTE
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChurnConfig {
        ChurnConfig {
            zone_count: 1,
            rounds: 12,
            batch_per_zone: 3,
            lifetime_rounds: 4,
            step: 2.0,
            seed: 7,
        }
    }

    #[test]
    fn storage_is_bounded_by_peak_live_not_total_lifetimes() {
        let r = run(small());
        let z = &r.zones[0];
        assert_eq!(z.spawns, 36);
        assert!(
            z.removals >= 24,
            "steady-state removals, got {}",
            z.removals
        );
        // 16 lattice tags + peak tracking population, far below the
        // 16 + 36 rows a grow-only allocator would hold.
        assert_eq!(z.slab_slots, z.peak_live);
        assert_eq!(z.cache_rows, z.slab_slots);
        assert!(
            z.slab_slots < z.no_reuse_rows,
            "slab {} must undercut no-reuse {}",
            z.slab_slots,
            z.no_reuse_rows
        );
        assert!(r.reused_slots > 0);
    }

    #[test]
    fn churned_lifetimes_still_localize() {
        let r = run(small());
        assert!(r.locates > 0, "churning roster must still produce fixes");
        let z = &r.zones[0];
        assert!(z.located_lifetimes > 0);
        assert!(
            z.mean_error < 1.5,
            "churn must not wreck accuracy: {} m",
            z.mean_error
        );
    }

    #[test]
    fn default_schedule_clears_a_thousand_events_per_minute() {
        let r = run_default(1);
        assert!(
            r.events_per_minute >= 1000.0,
            "default schedule must model production churn, got {:.0}/min",
            r.events_per_minute
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = run(small());
        let b = run(small());
        assert_eq!(a.locates, b.locates);
        assert_eq!(a.mean_error.to_bits(), b.mean_error.to_bits());
    }

    #[test]
    fn render_reports_the_memory_bound() {
        let s = render(&run(small()));
        assert!(s.contains("no-reuse"));
        assert!(s.contains("events/min"));
    }
}
