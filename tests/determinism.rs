//! Determinism across the full stack: a seeded run replays bit-for-bit.

use vire::core::{Localizer, Vire};
use vire::env::presets::{env1, env3};
use vire::exp::figures::{fig2, fig7};
use vire::exp::runner::collect_trial;
use vire::geom::Point2;

#[test]
fn trials_replay_bit_for_bit() {
    let positions = [Point2::new(1.2, 2.1), Point2::new(0.4, 0.9)];
    let a = collect_trial(&env3(), &positions, 77);
    let b = collect_trial(&env3(), &positions, 77);
    for k in 0..a.map.reader_count() {
        assert_eq!(a.map.field(k), b.map.field(k));
    }
    for (ta, tb) in a.tags.iter().zip(&b.tags) {
        assert_eq!(ta.reading, tb.reading);
    }
}

#[test]
fn different_seeds_differ() {
    let positions = [Point2::new(1.2, 2.1)];
    let a = collect_trial(&env1(), &positions, 1);
    let b = collect_trial(&env1(), &positions, 2);
    assert_ne!(a.tags[0].reading, b.tags[0].reading);
}

#[test]
fn estimates_are_pure_functions_of_inputs() {
    let positions = [Point2::new(2.2, 1.4)];
    let trial = collect_trial(&env3(), &positions, 5);
    let vire = Vire::default();
    let e1 = vire.locate(&trial.map, &trial.tags[0].reading).unwrap();
    let e2 = vire.locate(&trial.map, &trial.tags[0].reading).unwrap();
    assert_eq!(e1, e2);
}

#[test]
fn figure_generators_are_reproducible() {
    let a = fig2::run(&[1]);
    let b = fig2::run(&[1]);
    assert_eq!(a.errors, b.errors);

    let c = fig7::run(&[2]);
    let d = fig7::run(&[2]);
    for (p, q) in c.points.iter().zip(&d.points) {
        assert_eq!(p.non_boundary_error, q.non_boundary_error);
    }
}
