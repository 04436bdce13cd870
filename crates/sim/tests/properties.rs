//! Property-based tests for the simulation layer.

use proptest::prelude::*;
use vire_sim::smoothing::SmoothingKind;

fn readings() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-105.0..-55.0f64, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_filters_stay_within_input_range(xs in readings()) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for kind in [
            SmoothingKind::Raw,
            SmoothingKind::MovingAverage(5),
            SmoothingKind::Ewma(0.3),
            SmoothingKind::Median(5),
        ] {
            let mut f = kind.build();
            for &x in &xs {
                f.update(x);
                let v = f.value().expect("primed after first update");
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{kind:?}: {v} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn constant_input_is_a_fixed_point(x in -100.0..-60.0f64, n in 1usize..20) {
        for kind in [
            SmoothingKind::Raw,
            SmoothingKind::MovingAverage(4),
            SmoothingKind::Ewma(0.5),
            SmoothingKind::Median(3),
        ] {
            let mut f = kind.build();
            for _ in 0..n {
                f.update(x);
            }
            prop_assert!((f.value().unwrap() - x).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn median_ignores_a_minority_of_spikes(
        base in -80.0..-70.0f64,
        spike in -40.0..-20.0f64,
    ) {
        // 2 spikes inside a window of 5 cannot move the median.
        let mut f = SmoothingKind::Median(5).build();
        for x in [base, base + 0.1, spike, base - 0.1, spike] {
            f.update(x);
        }
        let v = f.value().unwrap();
        prop_assert!((v - base).abs() < 0.2, "median {v} dragged by spikes");
    }

    #[test]
    fn moving_average_window_really_slides(
        head in prop::collection::vec(-100.0..-60.0f64, 3),
        tail in prop::collection::vec(-100.0..-60.0f64, 3),
    ) {
        // After 3 more updates than the window holds, the head values are
        // forgotten entirely.
        let mut f = SmoothingKind::MovingAverage(3).build();
        for &x in head.iter().chain(&tail) {
            f.update(x);
        }
        let expect = tail.iter().sum::<f64>() / 3.0;
        prop_assert!((f.value().unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn ewma_is_a_convex_combination(xs in readings(), alpha in 0.05..1.0f64) {
        let mut f = SmoothingKind::Ewma(alpha).build();
        let mut prev: Option<f64> = None;
        for &x in &xs {
            f.update(x);
            let v = f.value().unwrap();
            if let Some(p) = prev {
                let lo = p.min(x) - 1e-9;
                let hi = p.max(x) + 1e-9;
                prop_assert!(v >= lo && v <= hi, "EWMA escaped [{lo}, {hi}]: {v}");
            }
            prev = Some(v);
        }
    }

    #[test]
    fn filter_fill_never_exceeds_window(xs in readings()) {
        let mut f = SmoothingKind::Median(7).build();
        for (k, &x) in xs.iter().enumerate() {
            f.update(x);
            prop_assert!(f.fill() <= 7);
            prop_assert_eq!(f.fill(), (k + 1).min(7));
        }
    }
}

/// Readings that stress the median's order: both zero signs, repeats,
/// and values across the RSSI range.
const POOL: [f64; 6] = [0.0, -0.0, -70.0, -70.0, -70.5, -105.0];

fn pooled_readings() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (0..POOL.len() + 2, -105.0..-55.0f64).prop_map(|(i, x)| POOL.get(i).copied().unwrap_or(x)),
        1..40,
    )
}

/// Every kind: windows 1–8, alpha in (0, 1].
fn any_kind() -> impl Strategy<Value = SmoothingKind> {
    (0..4usize, 1..=8usize, 0.0..1.0f64).prop_map(|(k, n, u)| match k {
        0 => SmoothingKind::Raw,
        1 => SmoothingKind::MovingAverage(n),
        2 => SmoothingKind::Ewma(1.0 - u),
        _ => SmoothingKind::Median(n),
    })
}

/// The smoothed value recomputed from the whole reading history, from
/// scratch: the tail window for the windowed kinds (a median sorted with
/// `partial_cmp`, stable), the full fold for EWMA.
fn recomputed(kind: SmoothingKind, history: &[f64]) -> Option<f64> {
    let (&first, rest) = history.split_first()?;
    let tail = |n: usize| &history[history.len().saturating_sub(n)..];
    Some(match kind {
        SmoothingKind::Raw => history[history.len() - 1],
        SmoothingKind::Ewma(alpha) => rest
            .iter()
            .fold(first, |s, &x| alpha * x + (1.0 - alpha) * s),
        SmoothingKind::MovingAverage(n) => tail(n).iter().sum::<f64>() / tail(n).len() as f64,
        SmoothingKind::Median(n) => {
            let mut sorted = tail(n).to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("the pool holds finite readings"));
            let mid = sorted.len() / 2;
            if sorted.len() % 2 == 1 {
                sorted[mid]
            } else {
                (sorted[mid - 1] + sorted[mid]) / 2.0
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A filter computes its value once per reading and keeps it: after
    /// every update, the value and the change flag equal a from-scratch
    /// recompute over the reading history, to the bit.
    #[test]
    fn filter_value_and_change_flag_match_a_recompute(kind in any_kind(), xs in pooled_readings()) {
        let mut f = kind.build();
        for k in 0..xs.len() {
            let before = recomputed(kind, &xs[..k]).map(f64::to_bits);
            let want = recomputed(kind, &xs[..=k]).map(f64::to_bits);
            let changed = f.update(xs[k]);
            prop_assert_eq!(f.value().map(f64::to_bits), want, "{:?} after {:?}", kind, &xs[..=k]);
            prop_assert_eq!(changed, want != before, "{:?} after {:?}", kind, &xs[..=k]);
        }
    }
}

/// Non-finite readings are rejected upstream, but the windowed filters
/// must not panic on one either: the median's order is total.
#[test]
fn windowed_filters_take_non_finite_readings_without_panicking() {
    for kind in [SmoothingKind::Median(3), SmoothingKind::MovingAverage(3)] {
        let mut f = kind.build();
        for x in [
            -70.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -71.0,
            f64::NAN,
        ] {
            f.update(x);
            assert!(f.value().is_some(), "{kind:?}");
        }
    }
}

/// The tag table against the structures it replaced: a filter per
/// `(tag, reader)` in one map, the pins in two maps, and the tracking
/// dirty set as a first-dirtied `Vec` deduplicated by a `HashSet`, driven
/// exactly as the pipeline stage drove them.
mod tag_table {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use vire_core::{DirtyCell, ReferenceRssiMap, TrackingReading};
    use vire_geom::{GridData, GridIndex, Point2, RegularGrid};
    use vire_sim::smoothing::Filter;
    use vire_sim::{EventBus, Middleware, MiddlewareStage, ReaderId, Reading, TagId};

    const READERS: u32 = 3;
    const SLOTS: u32 = 5;
    const GENERATIONS: u32 = 2;

    #[derive(Debug, Clone)]
    enum Op {
        Ingest(TagId, u32, f64),
        Pin(TagId),
        Remove(TagId),
        ChangedReadings,
        TakeDirtyCells,
        ReferenceMap,
        TakeRemoved,
    }

    /// Three tags in four are a slot's first lifetime, where the pins go.
    fn tag() -> impl Strategy<Value = TagId> {
        (0..SLOTS, 0..4u32).prop_map(|(slot, g)| TagId::new(slot, g.saturating_sub(2)))
    }

    /// Mostly ingests, with pins, removals and each drain mixed in.
    fn op() -> impl Strategy<Value = Op> {
        let rssi = (0..POOL.len() + 2, -105.0..-55.0f64)
            .prop_map(|(i, x)| POOL.get(i).copied().unwrap_or(x));
        (0..18u32, tag(), 0..READERS, rssi).prop_map(|(pick, t, k, x)| match pick {
            0..=9 => Op::Ingest(t, k, x),
            10 => Op::Pin(t),
            11 | 12 => Op::Remove(t),
            13 | 14 => Op::ChangedReadings,
            15 => Op::TakeDirtyCells,
            16 => Op::ReferenceMap,
            _ => Op::TakeRemoved,
        })
    }

    fn grid() -> RegularGrid {
        RegularGrid::square(Point2::ORIGIN, 1.0, 2)
    }

    fn readers() -> Vec<Point2> {
        (0..READERS).map(|k| Point2::new(k as f64, -1.0)).collect()
    }

    #[derive(Default)]
    struct Model {
        filters: HashMap<(TagId, ReaderId), Filter>,
        reference_tags: HashMap<GridIndex, TagId>,
        reference_cells: HashMap<TagId, GridIndex>,
        cached_map: Option<ReferenceRssiMap>,
        service_dirty: Vec<DirtyCell>,
        service_pending: HashSet<DirtyCell>,
        dirty_tracking: Vec<TagId>,
        dirty_tracking_set: HashSet<TagId>,
        removed: Vec<TagId>,
    }

    impl Model {
        fn rssi(&self, tag: TagId, reader: ReaderId) -> Option<f64> {
            self.filters.get(&(tag, reader)).and_then(Filter::value)
        }

        fn fill(&self, tag: TagId, reader: ReaderId) -> usize {
            self.filters.get(&(tag, reader)).map_or(0, Filter::fill)
        }

        fn ingest(&mut self, kind: SmoothingKind, r: Reading) -> Option<f64> {
            let filter = self
                .filters
                .entry((r.tag, r.reader))
                .or_insert_with(|| kind.build());
            let value = filter.update(r.rssi).then(|| filter.value()).flatten()?;
            if let Some(&cell) = self.reference_cells.get(&r.tag) {
                if let Some(map) = self.cached_map.as_mut() {
                    let k = r.reader.0 as usize;
                    if map.set_rssi(k, cell, value) && self.service_pending.insert((k, cell)) {
                        self.service_dirty.push((k, cell));
                    }
                }
            } else if self.dirty_tracking_set.insert(r.tag) {
                self.dirty_tracking.push(r.tag);
            }
            Some(value)
        }

        fn forget(&mut self, tag: TagId) -> usize {
            let before = self.filters.len();
            self.filters.retain(|(t, _), _| *t != tag);
            if self.dirty_tracking_set.remove(&tag) {
                self.dirty_tracking.retain(|t| *t != tag);
            }
            self.removed.push(tag);
            before - self.filters.len()
        }

        fn full_export(&self) -> Option<ReferenceRssiMap> {
            let mut fields = Vec::new();
            for k in 0..READERS {
                let mut field = GridData::filled(grid(), 0.0f64);
                for idx in grid().indices() {
                    let tag = *self.reference_tags.get(&idx)?;
                    field.set(idx, self.rssi(tag, ReaderId(k))?);
                }
                fields.push(field);
            }
            Some(ReferenceRssiMap::new(grid(), readers(), fields))
        }

        fn changed_readings(&mut self) -> Vec<(TagId, TrackingReading)> {
            self.dirty_tracking_set.clear();
            let tags = std::mem::take(&mut self.dirty_tracking);
            tags.into_iter()
                .filter_map(|tag| {
                    let rssi: Option<Vec<f64>> =
                        (0..READERS).map(|k| self.rssi(tag, ReaderId(k))).collect();
                    Some((tag, TrackingReading::new(rssi?)))
                })
                .collect()
        }
    }

    fn map_bits(map: Option<&ReferenceRssiMap>) -> Option<Vec<u64>> {
        map.map(|m| m.planes().iter().map(|x| x.to_bits()).collect())
    }

    fn reading_bits(readings: &[(TagId, TrackingReading)]) -> Vec<(TagId, Vec<u64>)> {
        readings
            .iter()
            .map(|(t, r)| (*t, r.rssi().iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table-backed middleware and stage match the model on every
        /// output, to the bit: each reading's reported value, every
        /// stream's value and fill, each drain (order and values), the
        /// full and incremental calibration maps, and the removals.
        #[test]
        fn tag_table_matches_the_keyed_maps_it_replaced(
            kind in any_kind(),
            pin_first in 0..3u32,
            ops in prop::collection::vec(op(), 1..200),
        ) {
            let mut bus = EventBus::with_capacity(4);
            let mut stage =
                MiddlewareStage::new(Middleware::new(kind, false), grid(), readers(), bus.reader());
            let mut bare = Middleware::new(kind, false);
            let mut model = Model::default();
            let nodes: Vec<GridIndex> = grid().indices().collect();
            // Two cases in three pin every node before the first reading,
            // and one of those never removes a pinned tag, so the
            // calibration map completes and its cells get dirty.
            let keep_pins = pin_first == 1;
            let pins = (0..nodes.len() as u32).map(|slot| Op::Pin(TagId::first(slot)));
            let ops = pins.take(if pin_first > 0 { nodes.len() } else { 0 }).chain(ops);
            for (step, op) in ops.enumerate() {
                match op {
                    Op::Ingest(tag, k, rssi) => {
                        let r = Reading { time: step as f64, tag, reader: ReaderId(k), rssi };
                        let want = model.ingest(kind, r);
                        prop_assert_eq!(bare.ingest(r).map(f64::to_bits), want.map(f64::to_bits));
                        bus.publish(r);
                        let pumped = stage.pump(&bus);
                        prop_assert_eq!((pumped.events, pumped.changed), (1, usize::from(want.is_some())));
                    }
                    Op::Pin(tag) => {
                        let n = model.reference_tags.len();
                        if n < nodes.len() && !model.reference_cells.contains_key(&tag) {
                            model.reference_tags.insert(nodes[n], tag);
                            model.reference_cells.insert(tag, nodes[n]);
                            stage.pin_reference(nodes[n], tag);
                            bare.pin(tag, nodes[n]);
                        }
                    }
                    Op::Remove(tag) if keep_pins && model.reference_cells.contains_key(&tag) => {}
                    Op::Remove(tag) => {
                        let want = model.forget(tag);
                        prop_assert_eq!(bare.forget_tag(tag), want);
                        stage.note_removed(tag);
                    }
                    Op::ChangedReadings => {
                        let want = reading_bits(&model.changed_readings());
                        prop_assert_eq!(reading_bits(&stage.changed_readings()), want);
                    }
                    Op::TakeDirtyCells => {
                        model.service_pending.clear();
                        let want = std::mem::take(&mut model.service_dirty);
                        prop_assert_eq!(stage.take_dirty_cells(), want);
                    }
                    Op::ReferenceMap => {
                        if model.cached_map.is_none() {
                            model.cached_map = model.full_export();
                        }
                        let want = map_bits(model.cached_map.as_ref());
                        prop_assert_eq!(map_bits(stage.reference_map()), want);
                    }
                    Op::TakeRemoved => {
                        let want = std::mem::take(&mut model.removed);
                        prop_assert_eq!(stage.take_removed_tags(), want);
                    }
                }
                prop_assert_eq!(stage.pending_tracking(), model.dirty_tracking.len(), "step {}", step);
                for slot in 0..SLOTS {
                    for generation in 0..GENERATIONS {
                        let tag = TagId::new(slot, generation);
                        for k in 0..=READERS {
                            let reader = ReaderId(k);
                            let want = (model.rssi(tag, reader).map(f64::to_bits), model.fill(tag, reader));
                            for mw in [stage.middleware(), &bare] {
                                prop_assert_eq!(
                                    (mw.rssi(tag, reader).map(f64::to_bits), mw.fill(tag, reader)),
                                    want,
                                    "step {}: {:?} at reader {}", step, tag, k
                                );
                            }
                        }
                    }
                }
                let want = map_bits(model.full_export().as_ref());
                prop_assert_eq!(map_bits(bare.reference_map(grid(), &readers()).as_ref()), want);
            }
        }
    }
}
