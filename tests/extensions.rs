//! Integration tests for the future-work extensions: scattered
//! references, the location service, and trace export/replay.

use vire::core::{Localizer, LocationService, ScatteredVire, ServiceConfig, Vire};
use vire::env::presets::{env2, env3};
use vire::geom::Point2;
use vire::sim::{SmoothingKind, Testbed, TestbedConfig};

#[test]
fn scattered_references_improve_obstacle_shadow_accuracy() {
    use vire::env::{Material, Obstacle};
    use vire::geom::Segment;
    let mut env = env3();
    env.obstacles.push(Obstacle::new(
        Segment::new(Point2::new(1.2, 1.8), Point2::new(2.2, 1.8)),
        Material::Metal,
    ));
    let mut tb = Testbed::new(TestbedConfig::paper(env, 13));
    for &(x, y) in &[(1.0, 1.55), (1.7, 1.5), (2.4, 1.55), (1.7, 2.15)] {
        tb.add_scattered_reference(Point2::new(x, y));
    }
    let truths = [
        Point2::new(1.45, 2.0),
        Point2::new(1.95, 1.6),
        Point2::new(1.8, 1.95),
    ];
    let ids: Vec<_> = truths.iter().map(|&p| tb.add_tracking_tag(p)).collect();
    tb.run_for(tb.warmup_duration() * 2.0);

    let lattice = tb.reference_map().unwrap();
    let scattered = tb.scattered_reference_map().unwrap();
    let mut grid_err = 0.0;
    let mut ring_err = 0.0;
    for (&id, &truth) in ids.iter().zip(&truths) {
        let reading = tb.tracking_reading(id).unwrap();
        grid_err += Vire::default()
            .locate(&lattice, &reading)
            .unwrap()
            .error(truth);
        ring_err += ScatteredVire::default()
            .locate(&scattered, &reading)
            .unwrap()
            .error(truth);
    }
    // Averaged over the shadow-zone tags, extra references must not hurt
    // and typically help (the obstacle_ring example shows ~2x).
    assert!(
        ring_err < grid_err + 0.15,
        "ring {ring_err:.3} should be competitive with lattice {grid_err:.3}"
    );
    assert!(ring_err / 3.0 < 0.8, "absolute accuracy sanity");
}

#[test]
fn service_tracks_a_full_fleet_end_to_end() {
    let mut tb = Testbed::new(TestbedConfig::paper(env2(), 23));
    let fleet: Vec<(vire::sim::TagId, Point2)> = [
        Point2::new(0.5, 0.5),
        Point2::new(1.5, 1.5),
        Point2::new(2.5, 2.5),
        Point2::new(0.5, 2.5),
        Point2::new(2.5, 0.5),
    ]
    .iter()
    .map(|&p| (tb.add_tracking_tag(p), p))
    .collect();
    tb.run_for(tb.warmup_duration() * 2.0);
    let map = tb.reference_map().unwrap();

    let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
    for round in 1..=5 {
        let t = round as f64 * 4.0;
        tb.run_for(4.0);
        for &(id, truth) in &fleet {
            let reading = tb.tracking_reading(id).unwrap();
            let out = svc.observe(t, id, &map, &reading).unwrap();
            assert!(
                out.position.distance(truth) < 1.0,
                "tag {id} round {round}: tracked {} vs truth {truth}",
                out.position
            );
        }
    }
    assert_eq!(svc.tracked_tags().len(), 5);
}

#[test]
fn trace_export_relocalizes_identically() {
    // Capture a trace, replay it into a fresh middleware, and verify the
    // localization answer is bit-identical — the dataset path works.
    let mut cfg = TestbedConfig::paper(env2(), 29);
    cfg.keep_log = true;
    let mut tb = Testbed::new(cfg);
    let truth = Point2::new(1.3, 2.2);
    let id = tb.add_tracking_tag(truth);
    tb.run_for(tb.warmup_duration() * 2.0);

    let live_map = tb.reference_map().unwrap();
    let live_reading = tb.tracking_reading(id).unwrap();
    let live_est = Vire::default().locate(&live_map, &live_reading).unwrap();

    // Round-trip through JSON.
    let trace = tb.export_trace("integration capture");
    let trace = vire::sim::Trace::from_json(&trace.to_json()).unwrap();
    let mut mw = trace.replay(SmoothingKind::default());

    // Rebuild the reference map from the replayed middleware using the
    // trace's own metadata.
    let grid = vire::geom::RegularGrid::square(Point2::ORIGIN, 1.0, 4);
    for (tag_id, (x, y)) in &trace.reference_tags {
        let idx = grid.nearest_node(Point2::new(*x, *y));
        mw.pin(vire::sim::TagId::first(*tag_id), idx);
    }
    let replay_map = mw
        .reference_map(grid, &trace.reader_positions())
        .expect("replay covers all reference tags");
    let replay_reading = mw.tracking_reading(id, 4).unwrap();
    let replay_est = Vire::default()
        .locate(&replay_map, &replay_reading)
        .unwrap();

    assert_eq!(live_est.position, replay_est.position);
    assert!(replay_est.error(truth) < 1.0);
}

#[test]
fn scattered_vire_is_a_localizer_for_arbitrary_layouts() {
    // A deployment with lattice + scattered refs: the scattered pipeline
    // must accept any site geometry the testbed produces.
    let mut tb = Testbed::new(TestbedConfig::paper(env3(), 31));
    tb.add_scattered_reference(Point2::new(0.4, 2.7));
    tb.add_scattered_reference(Point2::new(2.7, 0.4));
    let id = tb.add_tracking_tag(Point2::new(1.1, 1.9));
    tb.run_for(tb.warmup_duration() * 2.0);
    let map = tb.scattered_reference_map().unwrap();
    assert_eq!(map.sites().len(), 18);
    let est = ScatteredVire::default()
        .locate(&map, &tb.tracking_reading(id).unwrap())
        .unwrap();
    assert!(est.position.is_finite());
    assert!(map.bounds().inflated(0.2).contains(est.position));
}

#[test]
fn fix_quality_correlates_with_true_error() {
    // Over random positions in the hostile office, the best-quality third
    // of fixes must have lower mean error than the worst-quality third —
    // the property that makes the score usable for alerting.
    use vire::exp::figures::cdf::random_positions;
    use vire::exp::runner::collect_trial;

    let positions = random_positions(36, 11);
    let vire = Vire::default();
    let mut scored: Vec<(f64, f64)> = Vec::new(); // (score, error)
    for (b, batch) in positions.chunks(6).enumerate() {
        let trial = collect_trial(&env3(), batch, 100 + b as u64);
        for tag in &trial.tags {
            let (est, q) = vire.locate_scored(&trial.map, &tag.reading).unwrap();
            scored.push((q.score, est.error(tag.truth)));
        }
    }
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap()); // best first
    let third = scored.len() / 3;
    let best: f64 = scored[..third].iter().map(|s| s.1).sum::<f64>() / third as f64;
    let worst: f64 = scored[scored.len() - third..]
        .iter()
        .map(|s| s.1)
        .sum::<f64>()
        / third as f64;
    assert!(
        best < worst,
        "best-quality tercile error {best:.3} must undercut worst {worst:.3}"
    );
}

#[test]
fn l_shaped_room_localizes_end_to_end() {
    // §6's "closed and complex environment": an L-shaped outline built
    // from a polygon, walls on every edge.
    use vire::env::{EnvironmentBuilder, Material};
    use vire::geom::Polygon;
    let outline = Polygon::new(vec![
        Point2::new(-2.0, -2.0),
        Point2::new(6.0, -2.0),
        Point2::new(6.0, 5.0),
        Point2::new(2.5, 5.0),
        Point2::new(2.5, 7.0),
        Point2::new(-2.0, 7.0),
    ]);
    let env = EnvironmentBuilder::new("L-shaped office")
        .polygon_room(&outline, Material::Concrete)
        .pathloss_exponent(2.8)
        .clutter(3.0)
        .clutter_band(2.0, 6.0)
        .measurement_noise(1.0)
        .build();
    assert_eq!(env.walls.len(), 6);

    let mut tb = Testbed::new(TestbedConfig::paper(env, 37));
    let truth = Point2::new(1.4, 1.8);
    let id = tb.add_tracking_tag(truth);
    tb.run_for(tb.warmup_duration() * 2.0);
    let map = tb.reference_map().unwrap();
    let est = Vire::default()
        .locate(&map, &tb.tracking_reading(id).unwrap())
        .unwrap();
    assert!(
        est.error(truth) < 0.8,
        "L-room error {:.3} implausible",
        est.error(truth)
    );
}
