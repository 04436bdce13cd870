//! The tracking drain keeps nothing: [`MiddlewareStage::changed_readings`]
//! reports each dirty tag that every reader has heard exactly once, leaves
//! out the others, and holds no tag over to the next drain. A partially
//! heard tag is reported once its last reader's first reading re-dirties
//! it, so tags heard by only some readers cannot pile up.

use vire_geom::{Point2, RegularGrid};
use vire_sim::{EventBus, Middleware, MiddlewareStage, ReaderId, Reading, SmoothingKind, TagId};

fn reading(tag: u32, reader: u32, rssi: f64) -> Reading {
    Reading {
        time: 0.0,
        tag: TagId::first(tag),
        reader: ReaderId(reader),
        rssi,
    }
}

/// Three readers, no reference tags: every tag is a tracking tag.
fn stage_and_bus() -> (MiddlewareStage, EventBus<Reading>) {
    let bus = EventBus::with_capacity(64);
    let stage = MiddlewareStage::new(
        Middleware::new(SmoothingKind::Raw, false),
        RegularGrid::square(Point2::ORIGIN, 1.0, 2),
        vec![
            Point2::new(-1.0, -1.0),
            Point2::new(2.0, -1.0),
            Point2::new(2.0, 2.0),
        ],
        bus.reader(),
    );
    (stage, bus)
}

fn drain(stage: &mut MiddlewareStage) -> Vec<(u32, Vec<f64>)> {
    let out = stage
        .changed_readings()
        .into_iter()
        .map(|(tag, r)| (tag.index, r.rssi().to_vec()))
        .collect();
    assert_eq!(stage.pending_tracking(), 0, "a drain keeps nothing");
    out
}

#[test]
fn partially_heard_tags_are_left_out_and_reported_once_complete() {
    let (mut stage, mut bus) = stage_and_bus();
    // Tag 5 heard by reader 0 only: left out, not held over.
    bus.publish(reading(5, 0, -70.0));
    stage.pump(&bus);
    assert!(drain(&mut stage).is_empty());
    // Reader 1 hears it, and reader 0 again: still incomplete.
    bus.publish(reading(5, 1, -72.0));
    bus.publish(reading(5, 0, -71.0));
    stage.pump(&bus);
    assert!(drain(&mut stage).is_empty());
    // Tag 6 completes first, then reader 2's first reading completes tag
    // 5: both are reported once, tag 5 at the reading that completed it.
    for reader in 0..3 {
        bus.publish(reading(6, reader, -80.0));
    }
    bus.publish(reading(5, 2, -74.0));
    stage.pump(&bus);
    assert_eq!(
        drain(&mut stage),
        vec![
            (6, vec![-80.0, -80.0, -80.0]),
            (5, vec![-71.0, -72.0, -74.0])
        ]
    );
    // Reported once: nothing left for the next drain.
    stage.pump(&bus);
    assert!(drain(&mut stage).is_empty());
}

#[test]
fn tags_heard_by_one_reader_do_not_accumulate() {
    let (mut stage, mut bus) = stage_and_bus();
    for pump in 0..2_000u32 {
        for n in 0..10 {
            bus.publish(reading(100 + pump * 10 + n, 0, -70.0));
        }
        stage.pump(&bus);
        assert_eq!(stage.pending_tracking(), 10);
        assert!(drain(&mut stage).is_empty(), "pump {pump}");
    }
}
