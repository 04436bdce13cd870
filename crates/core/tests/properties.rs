//! Property-based tests for the localization algorithms, the ingest
//! ring and the location service's slot table.

use proptest::prelude::*;
use std::collections::HashMap;
use vire_core::elimination::{eliminate, ThresholdMode};
use vire_core::ext::extend_reference_map;
use vire_core::virtual_grid::{InterpolationKernel, VirtualGrid};
use vire_core::weights::{candidate_weights, W1Mode, WeightingMode};
use vire_core::{
    beacon_key, coalesce_newest, BeaconEvent, Estimate, IngestBatch, IngestConfig, IngestFrontEnd,
    IngestStats, KalmanTracker, Landmarc, LandmarcConfig, Localizer, LocationQuery,
    LocationService, PreparedLocalizer, QueryResponse, ReferenceRssiMap, ServiceConfig, TagKey,
    TrackedEstimate, TrackingReading, Vire, VireConfig,
};
use vire_geom::hull::{convex_hull, hull_contains};
use vire_geom::Vec2;
use vire_geom::{GridData, Point2, RegularGrid};

fn readers() -> Vec<Point2> {
    vec![
        Point2::new(-1.0, -1.0),
        Point2::new(4.0, -1.0),
        Point2::new(4.0, 4.0),
        Point2::new(-1.0, 4.0),
    ]
}

/// A synthetic reference map whose RSSI is log-distance plus a smooth
/// position-dependent perturbation parameterized by `(ax, ay, amp)`.
fn map_with_field(
    ax: f64,
    ay: f64,
    amp: f64,
) -> (ReferenceRssiMap, impl Fn(Point2) -> TrackingReading) {
    let rs = readers();
    let field = move |p: Point2, r: Point2| -> f64 {
        -62.0 - 24.0 * p.distance(r).max(0.1).log10() + amp * (ax * p.x + ay * p.y).sin()
    };
    let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
    let fields = rs
        .iter()
        .map(|r| {
            let r = *r;
            GridData::from_fn(grid, move |_, p| field(p, r))
        })
        .collect();
    let map = ReferenceRssiMap::new(grid, rs.clone(), fields);
    let make = move |p: Point2| TrackingReading::new(rs.iter().map(|r| field(p, *r)).collect());
    (map, make)
}

fn interior_point() -> impl Strategy<Value = Point2> {
    (0.05..2.95f64, 0.05..2.95f64).prop_map(|(x, y)| Point2::new(x, y))
}

fn field_params() -> impl Strategy<Value = (f64, f64, f64)> {
    (0.3..1.5f64, 0.3..1.5f64, 0.0..3.0f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn landmarc_estimate_inside_reference_hull(
        p in interior_point(),
        (ax, ay, amp) in field_params(),
        k in 1usize..16,
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let est = Landmarc::new(LandmarcConfig { k })
            .locate(&map, &make(p))
            .unwrap();
        let hull = convex_hull(&map.grid().nodes().map(|(_, p)| p).collect::<Vec<_>>());
        prop_assert!(hull_contains(&hull, est.position, 1e-6));
    }

    #[test]
    fn vire_estimate_inside_reference_hull(
        p in interior_point(),
        (ax, ay, amp) in field_params(),
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let est = Vire::default().locate(&map, &make(p)).unwrap();
        prop_assert!(map.grid().bounds().inflated(1e-6).contains(est.position));
    }

    #[test]
    fn vire_estimate_is_finite_and_has_contributors(
        p in interior_point(),
        (ax, ay, amp) in field_params(),
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let est = Vire::default().locate(&map, &make(p)).unwrap();
        prop_assert!(est.position.is_finite());
        prop_assert!(est.contributors >= 1);
        prop_assert!(est.threshold.unwrap_or(0.0) >= 0.0);
    }

    #[test]
    fn exact_reference_reading_localizes_to_that_node(
        i in 0usize..4, j in 0usize..4,
        (ax, ay, amp) in field_params(),
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let node = map.grid().position(vire_geom::GridIndex::new(i, j));
        let est = Landmarc::default().locate(&map, &make(node)).unwrap();
        prop_assert!(est.error(node) < 1e-6, "error {} at node {node}", est.error(node));
    }

    #[test]
    fn elimination_candidates_monotone_in_fixed_threshold(
        p in interior_point(),
        (ax, ay, amp) in field_params(),
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let grid = VirtualGrid::build(&map, 5, InterpolationKernel::Linear);
        let reading = make(p);
        let mut prev = 0usize;
        for t in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let count = eliminate(&grid, &reading, ThresholdMode::Fixed(t))
                .map(|r| r.candidates())
                .unwrap_or(0);
            prop_assert!(count >= prev, "threshold {t}: {count} < {prev}");
            prev = count;
        }
    }

    #[test]
    fn adaptive_elimination_never_empty(
        p in interior_point(),
        (ax, ay, amp) in field_params(),
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let grid = VirtualGrid::build(&map, 5, InterpolationKernel::Linear);
        let result = eliminate(&grid, &make(p), ThresholdMode::default()).unwrap();
        prop_assert!(result.candidates() > 0);
        prop_assert!(result.thresholds.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn weights_always_normalized(
        p in interior_point(),
        (ax, ay, amp) in field_params(),
        t in 0.5..6.0f64,
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let grid = VirtualGrid::build(&map, 5, InterpolationKernel::Linear);
        let reading = make(p);
        let Some(result) = eliminate(&grid, &reading, ThresholdMode::Fixed(t)) else {
            return Ok(());
        };
        for mode in WeightingMode::ALL {
            for w1 in W1Mode::ALL {
                let (c, w) = candidate_weights(&grid, &reading, &result.mask, mode, w1).unwrap();
                prop_assert_eq!(c.len(), w.len());
                prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                prop_assert!(w.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
            }
        }
    }

    #[test]
    fn virtual_grid_preserves_real_tags_for_all_kernels(
        (ax, ay, amp) in field_params(),
        n in 1usize..8,
    ) {
        let (map, _) = map_with_field(ax, ay, amp);
        for kernel in InterpolationKernel::ALL {
            let vg = VirtualGrid::build(&map, n, kernel);
            for idx in map.grid().indices() {
                let fine = map.grid().coarse_to_fine(idx, n);
                for k in 0..map.reader_count() {
                    prop_assert!(
                        (vg.rssi(k, fine) - map.rssi(k, idx)).abs() < 1e-7,
                        "{kernel:?} altered a real tag"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_virtual_grid_bounded_by_cell_corners(
        (ax, ay, amp) in field_params(),
    ) {
        let (map, _) = map_with_field(ax, ay, amp);
        let n = 4;
        let vg = VirtualGrid::build(&map, n, InterpolationKernel::Linear);
        // Every virtual tag's RSSI lies within the min/max of its cell's
        // four real corners (a property of bilinear interpolation).
        for (idx, pos) in vg.grid().nodes() {
            let Some((cell, _, _)) = map.grid().locate(pos) else { continue };
            for k in 0..map.reader_count() {
                let corners = [
                    map.rssi(k, cell),
                    map.rssi(k, vire_geom::GridIndex::new(cell.i + 1, cell.j)),
                    map.rssi(k, vire_geom::GridIndex::new(cell.i, cell.j + 1)),
                    map.rssi(k, vire_geom::GridIndex::new(cell.i + 1, cell.j + 1)),
                ];
                let lo = corners.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = corners.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let v = vg.rssi(k, idx);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn extended_map_preserves_interior(
        (ax, ay, amp) in field_params(),
        margin in 1usize..3,
    ) {
        let (map, _) = map_with_field(ax, ay, amp);
        let ext = extend_reference_map(&map, margin);
        prop_assert_eq!(ext.grid().nx(), map.grid().nx() + 2 * margin);
        for idx in map.grid().indices() {
            let shifted = vire_geom::GridIndex::new(idx.i + margin, idx.j + margin);
            for k in 0..map.reader_count() {
                prop_assert!((ext.rssi(k, shifted) - map.rssi(k, idx)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn estimation_error_metric_properties(a in interior_point(), b in interior_point()) {
        let e = vire_core::Estimate::new(a, 1);
        prop_assert!(e.error(b) >= 0.0);
        prop_assert!((e.error(b) - b.distance(a)).abs() < 1e-12);
        prop_assert_eq!(e.error(a), 0.0);
    }

    #[test]
    fn prepared_vire_bit_identical_to_one_shot_for_all_kernels(
        p in interior_point(),
        (ax, ay, amp) in field_params(),
        refine in 2usize..8,
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let reading = make(p);
        for kernel in InterpolationKernel::ALL {
            let vire = Vire::new(VireConfig {
                refine,
                kernel,
                ..VireConfig::default()
            });
            let one_shot = vire.locate(&map, &reading).unwrap();
            let prepared = vire.prepare(&map).unwrap();
            let fast = prepared.locate(&reading).unwrap();
            // Bit identity, not approximate equality: the one-shot path
            // routes through the prepared core, so every float must match.
            prop_assert_eq!(one_shot, fast, "{:?}", kernel);
        }
    }

    #[test]
    fn prepared_landmarc_bit_identical_to_one_shot(
        p in interior_point(),
        (ax, ay, amp) in field_params(),
        k in 1usize..16,
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let reading = make(p);
        let lm = Landmarc::new(LandmarcConfig { k });
        let prepared = lm.prepare(&map);
        prop_assert_eq!(
            lm.locate(&map, &reading).unwrap(),
            prepared.locate(&reading).unwrap()
        );
    }

    /// A batch of 1 to 79 readings — inline below the fan-out threshold
    /// of 16 readings per lane, split across the pool above it — returns
    /// sequential locates' results in order.
    #[test]
    fn locate_batch_matches_sequential_order_and_values(
        ps in proptest::collection::vec(interior_point(), 1..80),
        (ax, ay, amp) in field_params(),
    ) {
        let (map, make) = map_with_field(ax, ay, amp);
        let readings: Vec<TrackingReading> = ps.iter().map(|&p| make(p)).collect();
        let prepared = Vire::default().prepare(&map).unwrap();
        let batch = prepared.locate_batch(&readings);
        prop_assert_eq!(batch.len(), readings.len());
        for (reading, batched) in readings.iter().zip(batch) {
            prop_assert_eq!(prepared.locate(reading), batched);
        }
    }
}

/// The ingest ring's policy, naively: `r` is the unread buffer, at most
/// `cap` long. Full at `cap`, it grows below the ceiling; at the ceiling
/// it collapses `r` to the newest event per key when a key repeats, else
/// drops the oldest event. A drain hands out
/// `coalesce_newest(r)`.
struct RingModel {
    config: IngestConfig,
    r: Vec<BeaconEvent>,
    cap: usize,
    grown: u64,
    lagged: u64,
    coalesced_in_ring: u64,
    stats: IngestStats,
}

impl RingModel {
    fn new(config: IngestConfig) -> Self {
        RingModel {
            config,
            r: Vec::new(),
            cap: config.initial_capacity,
            grown: 0,
            lagged: 0,
            coalesced_in_ring: 0,
            stats: IngestStats::default(),
        }
    }

    fn accept(&mut self, e: BeaconEvent) {
        if self.r.len() == self.cap {
            if self.cap < self.config.max_capacity {
                self.cap = (self.cap * 2).min(self.config.max_capacity);
                self.grown += 1;
            } else {
                let mut collapsed = self.r.clone();
                let merged = coalesce_newest(&mut collapsed);
                if merged > 0 {
                    self.r = collapsed;
                    self.coalesced_in_ring += merged;
                } else {
                    self.r.remove(0);
                    self.lagged += 1;
                }
            }
        }
        self.r.push(e);
        self.stats.accepted += 1;
    }

    fn drain(&mut self) -> IngestBatch {
        let mut readings = std::mem::take(&mut self.r);
        let delivered = readings.len();
        let coalesced_in_batch = coalesce_newest(&mut readings);
        let batch = IngestBatch {
            readings,
            delivered,
            lagged: std::mem::take(&mut self.lagged),
            coalesced_in_ring: std::mem::take(&mut self.coalesced_in_ring),
            coalesced_in_batch,
        };
        self.stats.batches += 1;
        self.stats.delivered += delivered as u64;
        self.stats.lagged += batch.lagged;
        self.stats.coalesced_in_ring += batch.coalesced_in_ring;
        self.stats.coalesced_in_batch += batch.coalesced_in_batch;
        batch
    }
}

/// A batch with every `f64` as its bit pattern, so equality is exact:
/// `[time, beacon key, rssi]` per reading, then the four counters.
fn batch_bits(b: &IngestBatch) -> (Vec<[u128; 3]>, [u64; 4]) {
    let readings = b
        .readings
        .iter()
        .map(|e| {
            let bits = |x: f64| u128::from(x.to_bits());
            [bits(e.time), beacon_key(e), bits(e.rssi)]
        })
        .collect();
    let counters = [
        b.delivered as u64,
        b.lagged,
        b.coalesced_in_ring,
        b.coalesced_in_batch,
    ];
    (readings, counters)
}

/// Event `n` of a stream whose keys repeat with period `keys` (0: every
/// key distinct); the key is spread over tag slot, generation and reader.
fn keyed_event(n: u64, keys: u64) -> BeaconEvent {
    let key = if keys == 0 { n } else { n % keys };
    BeaconEvent {
        time: n as f64 * 0.25,
        tag: TagKey::new((key / 4) as u32, (key % 2) as u32),
        reader: (key % 4) as u32,
        rssi: -50.0 - n as f64 / 8.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ring matches the naive model of its policy on every output —
    /// batches bit for bit, stats, capacity and growth — after every
    /// accept and at every drain, for any burst/drain schedule, ring
    /// shape and key density (`keys = 0`, all keys distinct, covers the
    /// drop of the oldest at the ceiling); and each drain balances
    /// `accepted == delivered + lagged + coalesced_in_ring`.
    #[test]
    fn ingest_ring_matches_naive_policy_model(
        initial in 1usize..6,
        headroom in 0u32..3,
        keys_idx in 0usize..4,
        bursts in prop::collection::vec(0usize..24, 1..16),
        drain_after in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let config = IngestConfig {
            initial_capacity: initial,
            max_capacity: initial << headroom,
        };
        let keys = [2, 3, 5, 0][keys_idx];
        let mut front = IngestFrontEnd::new(config);
        let mut model = RingModel::new(config);
        let mut n = 0u64;
        for (burst, drain) in bursts.iter().zip(drain_after.iter().cycle()) {
            for _ in 0..*burst {
                let e = keyed_event(n, keys);
                n += 1;
                prop_assert_eq!(front.accept([e]), 1);
                model.accept(e);
                prop_assert_eq!(front.stats(), model.stats);
                prop_assert_eq!(front.capacity(), model.cap);
                prop_assert_eq!(front.max_capacity(), config.max_capacity);
                prop_assert_eq!(front.grown(), model.grown);
            }
            if *drain {
                let got = front.drain();
                prop_assert_eq!(batch_bits(&got), batch_bits(&model.drain()));
                let s = front.stats();
                prop_assert_eq!(s, model.stats);
                prop_assert_eq!(s.accepted, s.delivered + s.lagged + s.coalesced_in_ring);
            }
        }
        prop_assert_eq!(batch_bits(&front.drain()), batch_bits(&model.drain()));
        let s = front.stats();
        prop_assert_eq!(s, model.stats);
        prop_assert_eq!(s.accepted, s.delivered + s.lagged + s.coalesced_in_ring);
    }
}

/// Past the ceiling with every key distinct, each accept drops the oldest
/// event in O(1): four ceilings' worth of distinct keys accept and drain
/// in well under the timeout, and the batch is exactly the newest
/// ceiling's worth, in order.
#[test]
fn distinct_keys_past_the_ceiling_do_not_stall() {
    let ceiling = IngestConfig::default().max_capacity;
    assert_eq!(ceiling, 65_536);
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let events: Vec<BeaconEvent> = (0..4 * ceiling as u64).map(|n| keyed_event(n, 0)).collect();
        let mut front = IngestFrontEnd::new(IngestConfig::default());
        front.accept(events.iter().copied());
        let _ = tx.send((front.drain(), events));
    });
    let received = rx.recv_timeout(std::time::Duration::from_secs(10));
    // A stalled worker cannot be joined; fail on the timeout instead.
    assert!(
        !matches!(received, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
        "accepting 4 x 65,536 distinct keys must not stall at the ceiling"
    );
    worker.join().expect("the ring worker must not panic");
    let (batch, events) = received.expect("the worker sends its batch");
    assert_eq!(batch.lagged, 3 * ceiling as u64);
    assert_eq!(batch.delivered, ceiling);
    assert_eq!(batch.coalesced_in_ring + batch.coalesced_in_batch, 0);
    assert_eq!(batch.readings, events[3 * ceiling..]);
}

/// The location service's table as it was before live tracks and
/// tombstones shared one slot-keyed map: two maps, with the same fold,
/// query, evict and sweep rules, fed the raw estimates the service
/// localized.
struct TwoMaps {
    config: ServiceConfig,
    /// slot -> (generation, filter, last update)
    tracks: HashMap<u32, (u32, KalmanTracker, f64)>,
    /// slot -> (generation, last update, last filtered position)
    retired: HashMap<u32, (u32, f64, Point2)>,
    last_sweep: f64,
}

impl TwoMaps {
    fn new(config: ServiceConfig) -> Self {
        TwoMaps {
            config,
            tracks: HashMap::new(),
            retired: HashMap::new(),
            last_sweep: f64::NEG_INFINITY,
        }
    }

    fn retire(
        retired: &mut HashMap<u32, (u32, f64, Point2)>,
        index: u32,
        track: &(u32, KalmanTracker, f64),
    ) {
        let Some(position) = track.1.position() else {
            return;
        };
        match retired.get(&index) {
            Some(old) if old.0 > track.0 => {}
            _ => {
                retired.insert(index, (track.0, track.2, position));
            }
        }
    }

    fn observe(&mut self, time: f64, tag: TagKey, raw: Estimate) -> TrackedEstimate {
        self.sweep(time);
        if let Some(track) = self.tracks.get(&tag.index) {
            if track.0 > tag.generation {
                return TrackedEstimate {
                    position: raw.position,
                    velocity: Vec2::ZERO,
                    sigma: (0.0, 0.0),
                    raw,
                };
            }
            if track.0 < tag.generation || time - track.2 > self.config.stale_after {
                Self::retire(&mut self.retired, tag.index, track);
                self.tracks.remove(&tag.index);
            }
        }
        let config = self.config;
        let track = self.tracks.entry(tag.index).or_insert_with(|| {
            let filter = KalmanTracker::new(config.process_noise, config.measurement_noise);
            (tag.generation, filter, f64::NEG_INFINITY)
        });
        let position = if time > track.2 {
            let p = track.1.update(time, raw.position);
            track.2 = time;
            p
        } else {
            track.1.position().unwrap_or(raw.position)
        };
        TrackedEstimate {
            position,
            velocity: track.1.velocity().unwrap_or(Vec2::ZERO),
            sigma: track.1.position_sigma().unwrap_or((0.0, 0.0)),
            raw,
        }
    }

    fn evict(&mut self, tag: TagKey) {
        if let Some(track) = self.tracks.get(&tag.index) {
            if track.0 <= tag.generation {
                Self::retire(&mut self.retired, tag.index, track);
                self.tracks.remove(&tag.index);
            }
        }
    }

    fn sweep(&mut self, now: f64) {
        if now - self.last_sweep < self.config.stale_after {
            return;
        }
        let horizon = self.config.stale_after;
        let retired = &mut self.retired;
        self.tracks.retain(|&index, t| {
            let keep = now - t.2 <= horizon;
            if !keep {
                Self::retire(retired, index, t);
            }
            keep
        });
        retired.retain(|_, r| now - r.1 <= horizon * 4.0);
        self.last_sweep = now;
    }

    fn query(&self, q: LocationQuery) -> QueryResponse {
        if let Some((generation, filter, last_update)) = self.tracks.get(&q.tag.index) {
            if *generation == q.tag.generation {
                let Some(position) = filter.position() else {
                    return QueryResponse::Unknown;
                };
                let age = q.at - last_update;
                if age <= self.config.stale_after {
                    return QueryResponse::Fresh {
                        position: filter.predict(age.max(0.0)).unwrap_or(position),
                        velocity: filter.velocity().unwrap_or(Vec2::ZERO),
                        sigma: filter.position_sigma().unwrap_or((0.0, 0.0)),
                        age,
                    };
                }
                return QueryResponse::Stale { position, age };
            }
            if *generation < q.tag.generation {
                return QueryResponse::Unknown;
            }
        }
        match self.retired.get(&q.tag.index) {
            Some(r) if r.0 == q.tag.generation => QueryResponse::Stale {
                position: r.2,
                age: q.at - r.1,
            },
            _ => QueryResponse::Unknown,
        }
    }

    fn tracked_tags(&self) -> Vec<TagKey> {
        let mut tags: Vec<TagKey> = self
            .tracks
            .iter()
            .map(|(&index, t)| TagKey::new(index, t.0))
            .collect();
        tags.sort_by_key(|t| (t.index, t.generation));
        tags
    }
}

fn estimate_bits(e: &TrackedEstimate) -> [u64; 8] {
    [
        e.position.x.to_bits(),
        e.position.y.to_bits(),
        e.velocity.x.to_bits(),
        e.velocity.y.to_bits(),
        e.sigma.0.to_bits(),
        e.sigma.1.to_bits(),
        e.raw.position.x.to_bits(),
        e.raw.position.y.to_bits(),
    ]
}

fn response_bits(r: &QueryResponse) -> (u8, Vec<u64>) {
    match r {
        QueryResponse::Fresh {
            position,
            velocity,
            sigma,
            age,
        } => (
            0,
            [
                position.x, position.y, velocity.x, velocity.y, sigma.0, sigma.1, *age,
            ]
            .map(f64::to_bits)
            .to_vec(),
        ),
        QueryResponse::Stale { position, age } => {
            (1, [position.x, position.y, *age].map(f64::to_bits).to_vec())
        }
        QueryResponse::Unknown => (2, Vec::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one slot table answers exactly as the two maps it replaced,
    /// below the tombstone cap: every tracked estimate and every query
    /// answer to the bit, and the same tracked tags. Four slots see random
    /// observes of their current lifetime, stragglers from older ones,
    /// evictions of either, generation bumps, out-of-order times, jumps
    /// past `stale_after` and past four of them (the tombstone horizon),
    /// and first sights at `-inf` or NaN, which leave a track with no
    /// position. After every step, each slot is asked about lifetimes 0-4
    /// now, a little later, past `stale_after` and past the horizon.
    #[test]
    fn slot_table_matches_the_two_maps_it_replaced(
        ops in prop::collection::vec(
            (0u32..9, 0u32..4, 0u32..3, 0usize..7, 0.05..2.95f64, 0.05..2.95f64),
            1..80,
        ),
    ) {
        const STALE: f64 = 10.0;
        let config = ServiceConfig { stale_after: STALE, ..ServiceConfig::default() };
        let (map, reading_at) = map_with_field(0.7, 1.1, 1.5);
        let mut service = LocationService::new(Vire::default(), config);
        let mut model = TwoMaps::new(config);
        let mut current = [0u32; 4];
        let mut clock = 0.0f64;
        for (step, &(kind, slot, back, dt, x, y)) in ops.iter().enumerate() {
            let older = current[slot as usize].saturating_sub(back);
            match kind {
                // Observe the current lifetime (0-3) or a straggler (4).
                0..=4 | 8 => {
                    let generation = if kind == 4 { older } else { current[slot as usize] };
                    let time = if kind == 8 {
                        [f64::NEG_INFINITY, f64::NAN][dt % 2]
                    } else {
                        let jump = [0.0, 0.25, 1.5, STALE + 0.5, 4.0 * STALE + 0.5, -2.0, -STALE][dt];
                        if jump >= 0.0 {
                            clock += jump;
                            clock
                        } else {
                            clock + jump
                        }
                    };
                    let tag = TagKey::new(slot, generation);
                    let got = service
                        .observe(time, tag, &map, &reading_at(Point2::new(x, y)))
                        .unwrap();
                    let want = model.observe(time, tag, got.raw.clone());
                    prop_assert_eq!(estimate_bits(&got), estimate_bits(&want), "step {}", step);
                }
                // Evict the current lifetime or an older one.
                5 | 6 => {
                    let generation = if kind == 5 { current[slot as usize] } else { older };
                    service.evict(TagKey::new(slot, generation));
                    model.evict(TagKey::new(slot, generation));
                }
                // The slot's next lifetime begins.
                _ => current[slot as usize] += 1,
            }
            for index in 0..4 {
                for generation in 0..5 {
                    for later in [0.0, 3.0, STALE + 1.0, 4.0 * STALE + 1.0] {
                        let q = LocationQuery { tag: TagKey::new(index, generation), at: clock + later };
                        prop_assert_eq!(
                            response_bits(&service.query(q)),
                            response_bits(&model.query(q)),
                            "step {} query {:?}", step, q
                        );
                    }
                }
            }
            let mut tracked = service.tracked_tags();
            tracked.sort_by_key(|t| (t.index, t.generation));
            prop_assert_eq!(tracked, model.tracked_tags(), "step {}", step);
        }
        prop_assert_eq!(service.tombstones_dropped(), 0);
        prop_assert_eq!(service.tombstone_count(), model.retired.len());
    }
}
