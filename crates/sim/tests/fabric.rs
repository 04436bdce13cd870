//! The `drive_zones` acceptance pin: a tag covered by zone `k` gets the
//! **same estimate** from [`vire_core::drive_zones`] driving the whole
//! campus as from zone `k`'s standalone [`vire_core::LocationService`] —
//! `f64::to_bits`-identical, across all four interpolation kernels and
//! repeated incremental drives. The pool fan-out is pure orchestration;
//! it must never change a number.

use proptest::prelude::*;
use vire_core::{
    drive_zones, InterpolationKernel, LocalizeError, LocationService, ServiceConfig, TagKey,
    TrackedEstimate, Vire, VireConfig,
};
use vire_geom::Point2;
use vire_sim::MultiZoneTestbed;

type DriveResult = Vec<(TagKey, Result<TrackedEstimate, LocalizeError>)>;

fn kernels() -> [InterpolationKernel; 4] {
    [
        InterpolationKernel::Linear,
        InterpolationKernel::PaperLinear,
        InterpolationKernel::CubicSpline,
        InterpolationKernel::Polynomial,
    ]
}

fn service(kernel: InterpolationKernel) -> LocationService<Vire> {
    let vire = Vire::new(VireConfig {
        kernel,
        ..VireConfig::default()
    });
    LocationService::new(vire, ServiceConfig::default())
}

/// Dyadic in-zone offsets so the campus → local frame translation is
/// lossless and both arms localize the exact same positions.
const SPOTS: [(f64, f64); 3] = [(1.25, 1.75), (2.5, 0.75), (0.5, 2.25)];

/// Builds the campus, registers one tracking tag per zone, and returns it.
fn campus_with_tags(zones: usize, seed: u64) -> MultiZoneTestbed {
    let mut campus = MultiZoneTestbed::paper_campus(zones, vire_env::presets::env1(), seed, 4.0);
    let width = campus.regions()[0].width();
    for k in 0..zones {
        let (dx, dy) = SPOTS[k % SPOTS.len()];
        let origin = campus.regions()[k].min;
        let p = Point2::new(origin.x + dx, origin.y + dy);
        let (routed, _) = campus.add_tracking_tag(p).expect("zone covers its spot");
        assert_eq!(routed, k);
    }
    let _ = width;
    campus
}

fn bits(results: &DriveResult) -> Vec<(TagKey, Result<Vec<u64>, String>)> {
    results
        .iter()
        .map(|(tag, r)| {
            let payload = match r {
                Ok(e) => Ok(vec![
                    e.position.x.to_bits(),
                    e.position.y.to_bits(),
                    e.velocity.x.to_bits(),
                    e.velocity.y.to_bits(),
                    e.sigma.0.to_bits(),
                    e.sigma.1.to_bits(),
                    e.raw.position.x.to_bits(),
                    e.raw.position.y.to_bits(),
                    e.raw.contributors as u64,
                    e.raw.threshold.unwrap_or(0.0).to_bits(),
                ]),
                Err(err) => Err(format!("{err:?}")),
            };
            (*tag, payload)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `drive_zones` ≡ per-zone standalone drive, bitwise, for every
    /// kernel, across several incremental drive rounds.
    #[test]
    fn drive_zones_matches_standalone_zone_services(
        zones in 2usize..=3,
        seed in 0u64..500,
        rounds in 2usize..=4,
    ) {
        for kernel in kernels() {
            // Two bit-identical campuses: one driven by `drive_zones`, one
            // zone at a time.
            let mut pooled_campus = campus_with_tags(zones, seed);
            let mut solo_campus = campus_with_tags(zones, seed);
            let mut pooled: Vec<LocationService<Vire>> =
                (0..zones).map(|_| service(kernel)).collect();
            let mut solo: Vec<LocationService<Vire>> =
                (0..zones).map(|_| service(kernel)).collect();
            let step = pooled_campus.warmup_duration();
            for _ in 0..rounds {
                pooled_campus.run_for(step);
                solo_campus.run_for(step);
                let pooled_out = drive_zones(&mut pooled, pooled_campus.zones_mut());
                prop_assert_eq!(pooled_out.len(), zones);
                for (k, zone_out) in pooled_out.iter().enumerate() {
                    let solo_out = solo[k].drive(solo_campus.zone_mut(k));
                    prop_assert_eq!(
                        bits(zone_out),
                        bits(&solo_out),
                        "zone {} diverged under {:?}",
                        k,
                        kernel
                    );
                }
            }
            // Every zone actually localized something by the end.
            prop_assert!(pooled.iter().all(|s| !s.tracked_tags().is_empty()));
        }
    }
}
