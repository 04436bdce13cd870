//! The testbed engine: deployment + environment + channel + clock.

use crate::events::{Event, EventQueue};
use crate::middleware::{Middleware, Reading};
use crate::pipeline::MiddlewareStage;
use crate::reader::{Reader, ReaderId};
use crate::smoothing::SmoothingKind;
use crate::tag::{Tag, TagId, TagRole};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vire_core::{DirtyCell, ReferenceRssiMap, SnapshotSource, TrackingReading};
use vire_env::{Deployment, Environment, Obstacle, Wall};
use vire_geom::{GridIndex, HandleAllocator, Point2};
use vire_radio::antenna::AntennaPattern;
use vire_radio::quantize::PowerLevelQuantizer;
use vire_radio::{LinkBudget, LinkBudgetCache, LinkBudgetStats, RfChannel};

/// Testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Reference lattice and reader placement.
    pub deployment: Deployment,
    /// RF environment.
    pub environment: Environment,
    /// Master seed (drives the channel and the beacon jitter).
    pub seed: u64,
    /// Mean beacon interval, seconds. The improved RF Code equipment
    /// beacons every 2 s; the original LANDMARC hardware averaged 7.5 s.
    pub beacon_interval: f64,
    /// Beacon interval jitter as a fraction of the interval (tags are
    /// unsynchronized oscillators).
    pub beacon_jitter_frac: f64,
    /// Middleware smoothing policy.
    pub smoothing: SmoothingKind,
    /// Emulate the original LANDMARC equipment: quantize every RSSI to the
    /// 8 legacy power levels before it reaches the middleware.
    pub legacy_power_levels: bool,
    /// Keep the raw reading log in the middleware: the record of every
    /// decoded reading ([`Middleware::log_readings`]).
    pub keep_log: bool,
    /// Radius within which tags count as co-located for the beacon
    /// collision (interference) model, meters.
    pub collision_radius: f64,
    /// Standard deviation of per-tag transmit-gain offsets, dB (the §3.1
    /// "varying behaviors of tags" pitfall). 0 models the improved
    /// equipment; ~1.5 the original generation before calibration.
    pub tag_gain_sigma: f64,
    /// Memoize the deterministic link budget (channel mean + receiver
    /// antenna gain) per (tag, reader) link, so repeated beacons pay only
    /// the stochastic tail. Results are `f64::to_bits`-identical either
    /// way (pinned by `tests/channel_cache.rs`); disabling is useful only
    /// as the reference arm of that comparison.
    pub link_budget_cache: bool,
    /// Per-reader antenna patterns, parallel to `deployment.readers`.
    /// Empty means every reader is omnidirectional. Because this lives in
    /// the config (and its fingerprint), antenna ablations are
    /// cache-addressable: two placements differing only in patterns get
    /// distinct fixture keys instead of sharing a stale trial.
    pub reader_antennas: Vec<AntennaPattern>,
}

impl TestbedConfig {
    /// The paper's operating point: its testbed, 2 s beacons, median-5
    /// smoothing, direct RSSI.
    pub fn paper(environment: Environment, seed: u64) -> Self {
        TestbedConfig {
            deployment: Deployment::paper_testbed(),
            environment,
            seed,
            beacon_interval: 2.0,
            beacon_jitter_frac: 0.05,
            smoothing: SmoothingKind::default(),
            legacy_power_levels: false,
            keep_log: false,
            collision_radius: 0.3,
            tag_gain_sigma: 0.0,
            link_budget_cache: true,
            reader_antennas: Vec::new(),
        }
    }

    /// The original-LANDMARC equipment emulation: 7.5 s beacons and
    /// 8-level quantized RSSI (§3.1's pitfalls, for the ablation).
    pub fn legacy(environment: Environment, seed: u64) -> Self {
        TestbedConfig {
            beacon_interval: 7.5,
            legacy_power_levels: true,
            tag_gain_sigma: 1.5,
            ..TestbedConfig::paper(environment, seed)
        }
    }
}

impl vire_geom::Fingerprint for TestbedConfig {
    /// Canonical bytes of the *whole* configuration: deployment layout,
    /// environment physics, seed, and every simulation knob. Knobs that
    /// are provably output-neutral (`link_budget_cache`, `keep_log`) are
    /// hashed anyway — over-splitting a cache key costs one redundant
    /// simulation; under-splitting silently serves a stale fixture, so
    /// drift detection wins.
    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        self.deployment.fingerprint(h);
        self.environment.fingerprint(h);
        self.seed.fingerprint(h);
        self.beacon_interval.fingerprint(h);
        self.beacon_jitter_frac.fingerprint(h);
        self.smoothing.fingerprint(h);
        self.legacy_power_levels.fingerprint(h);
        self.keep_log.fingerprint(h);
        self.collision_radius.fingerprint(h);
        self.tag_gain_sigma.fingerprint(h);
        self.link_budget_cache.fingerprint(h);
        self.reader_antennas.fingerprint(h);
    }
}

/// The running testbed.
///
/// ```
/// use vire_sim::{Testbed, TestbedConfig};
/// use vire_env::presets::env2;
/// use vire_geom::Point2;
///
/// let mut testbed = Testbed::new(TestbedConfig::paper(env2(), 7));
/// let tag = testbed.add_tracking_tag(Point2::new(1.3, 1.7));
/// testbed.run_for(testbed.warmup_duration() * 2.0);
/// let map = testbed.reference_map().expect("warmed up");
/// let reading = testbed.tracking_reading(tag).expect("tag heard");
/// assert_eq!(map.reader_count(), reading.reader_count());
/// ```
#[derive(Debug)]
pub struct Testbed {
    config: TestbedConfig,
    channel: RfChannel,
    readers: Vec<Reader>,
    tags: Vec<Tag>,
    /// The middleware stage, handed every reading as it is decoded.
    stage: MiddlewareStage,
    queue: EventQueue,
    clock: f64,
    rng: SmallRng,
    quantizer: Option<PowerLevelQuantizer>,
    /// Memoized deterministic link budgets, one slot per (tag, reader)
    /// link; `None` when [`TestbedConfig::link_budget_cache`] is off.
    budget_cache: Option<LinkBudgetCache>,
    /// Beacons emitted per tag slot (indexed by [`TagId::slot`]; reset
    /// when a slot is reused). Distinguishes "not yet beaconed" from
    /// "beaconed but below reader sensitivity".
    beacon_counts: Vec<u64>,
    /// Generational slab behind every [`TagId`]: slots are reused across
    /// tag lifetimes with a bumped generation, so `tags`/`beacon_counts`
    /// stay bounded by the peak live population while a stale handle
    /// (from a removed tag's earlier lifetime) never reads the new
    /// occupant's state. A removed tag's pending beacon is dropped unsent
    /// and never rescheduled — its handle fails the liveness check.
    slab: HandleAllocator,
}

impl Testbed {
    /// Builds the testbed and registers the deployment's reference tags.
    ///
    /// # Panics
    /// Panics on non-positive beacon interval or out-of-range jitter.
    pub fn new(config: TestbedConfig) -> Self {
        assert!(
            config.beacon_interval > 0.0,
            "beacon interval must be positive"
        );
        assert!(
            (0.0..1.0).contains(&config.beacon_jitter_frac),
            "jitter fraction must be within [0, 1)"
        );
        assert!(
            config.reader_antennas.is_empty()
                || config.reader_antennas.len() == config.deployment.readers.len(),
            "reader_antennas must cover every reader (or be empty for all-omni)"
        );
        let channel = RfChannel::new(config.environment.channel_params(config.seed));
        let mut readers: Vec<Reader> = config
            .deployment
            .readers
            .iter()
            .enumerate()
            .map(|(k, &p)| Reader::new(ReaderId(k as u32), p))
            .collect();
        // Link budgets are pure geometry, so dressing the readers before
        // the first warm_links is bit-identical to calling
        // `set_reader_antenna` per reader afterwards — minus the wasted
        // omni warm-up.
        for (reader, &antenna) in readers.iter_mut().zip(&config.reader_antennas) {
            reader.antenna = antenna;
        }
        let quantizer = config
            .legacy_power_levels
            .then(PowerLevelQuantizer::paper_default);
        let stage = MiddlewareStage::detached(
            Middleware::new(config.smoothing, config.keep_log),
            config.deployment.reference_grid,
            config.deployment.readers.clone(),
        );
        let budget_cache = config
            .link_budget_cache
            .then(|| LinkBudgetCache::new(readers.len()));
        let mut testbed = Testbed {
            rng: SmallRng::seed_from_u64(config.seed ^ 0x0bea_c017),
            channel,
            readers,
            tags: Vec::new(),
            stage,
            queue: EventQueue::new(),
            clock: 0.0,
            quantizer,
            budget_cache,
            beacon_counts: Vec::new(),
            slab: HandleAllocator::new(),
            config,
        };
        // Pin one reference tag to every lattice node.
        let nodes: Vec<(GridIndex, Point2)> =
            testbed.config.deployment.reference_grid.nodes().collect();
        for (idx, pos) in nodes {
            let id = testbed.register_tag(pos, TagRole::Reference(idx));
            testbed.stage.pin_reference(idx, id);
        }
        // Warm the whole reference lattice's link budgets in one batch
        // (fans across scoped threads when the lattice is large enough).
        let ids: Vec<TagId> = testbed.tags.iter().map(|t| t.id).collect();
        testbed.warm_links(&ids);
        testbed
    }

    /// Fills the link-budget cache for `ids` across every reader in one
    /// batch, fanning across the persistent worker pool (which runs the
    /// batch inline when it is tiny or the pool has no workers). Each pool
    /// index fills its own pre-sized slot and each budget is a pure
    /// function of geometry, so parallel evaluation stores bit-identical
    /// values to sequential regardless of worker count.
    fn warm_links(&mut self, ids: &[TagId]) {
        let Some(cache) = self.budget_cache.as_mut() else {
            return;
        };
        cache.ensure_transmitters(self.tags.len());
        let channel = &self.channel;
        let readers = &self.readers;
        let tags = &self.tags;
        let mut rows: Vec<Option<Vec<LinkBudget>>> = vec![None; ids.len()];
        vire_core::WorkerPool::global().for_each_mut(&mut rows, |i, slot| {
            let pos = tags[ids[i].slot()].position;
            *slot = Some(
                readers
                    .iter()
                    .map(|r| LinkBudget {
                        mean_dbm: channel.mean_rssi(pos, r.position),
                        rx_gain_db: r.antenna_gain_db(pos),
                    })
                    .collect(),
            );
        });
        for (&id, budgets) in ids.iter().zip(rows) {
            for (k, budget) in budgets.expect("every slot filled").into_iter().enumerate() {
                cache.insert(id, k, budget);
            }
        }
    }

    /// Link-budget cache counters; `None` when the cache is disabled.
    pub fn link_budget_stats(&self) -> Option<LinkBudgetStats> {
        self.budget_cache.as_ref().map(|c| c.stats())
    }

    /// The link-budget cache itself (diagnostics: row occupancy under tag
    /// churn); `None` when the cache is disabled.
    pub fn link_budget_cache(&self) -> Option<&LinkBudgetCache> {
        self.budget_cache.as_ref()
    }

    fn register_tag(&mut self, position: Point2, role: TagRole) -> TagId {
        let id = self.slab.alloc();
        let interval = self.config.beacon_interval;
        // Random initial phase staggers the tags.
        let phase = self.rng.gen_range(0.0..interval);
        // Per-tag transmit gain (Box-Muller; 0 when sigma is 0).
        let gain_db = if self.config.tag_gain_sigma > 0.0 {
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            self.config.tag_gain_sigma
                * (-2.0 * u1.ln()).sqrt()
                * (std::f64::consts::TAU * u2).cos()
        } else {
            0.0
        };
        let tag = Tag {
            id,
            position,
            role,
            beacon_interval: interval,
            phase,
            gain_db,
        };
        // A fresh slot grows the parallel storage; a reused slot (a new
        // lifetime of a despawned tag's slot) overwrites the dead tag's
        // entry in place, keeping the footprint at the slab's high-water
        // mark.
        if id.slot() == self.tags.len() {
            self.tags.push(tag);
            self.beacon_counts.push(0);
        } else {
            self.tags[id.slot()] = tag;
            self.beacon_counts[id.slot()] = 0;
        }
        self.queue
            .schedule(self.clock + phase, Event::Beacon { tag: id });
        id
    }

    /// Adds a tracking tag at `position`; beacons start within one
    /// interval of the current clock. Registration warms the tag's link
    /// budgets for every reader in one batch.
    pub fn add_tracking_tag(&mut self, position: Point2) -> TagId {
        let id = self.register_tag(position, TagRole::Tracking);
        self.warm_links(&[id]);
        id
    }

    /// Moves a tracking tag to a new position (the paper's §6 mobility
    /// future work). Subsequent beacons are measured from the new spot;
    /// the middleware's smoothing window spans the move, so estimates lag
    /// realistically until the window refills.
    ///
    /// # Panics
    /// Panics when `id` is unknown or names a reference tag (reference
    /// tags are pinned to the lattice by definition).
    pub fn move_tag(&mut self, id: TagId, position: Point2) {
        let tag = self.tags.get_mut(id.slot()).expect("unknown tag id");
        assert!(
            matches!(tag.role, TagRole::Tracking),
            "reference tags cannot move"
        );
        assert!(self.slab.is_live(id), "unknown tag id");
        tag.position = position;
        // The deterministic plane of every link this tag transmits on just
        // changed; drop exactly that row and re-warm it at the new spot.
        if let Some(cache) = &mut self.budget_cache {
            cache.invalidate_tx(id);
        }
        self.warm_links(&[id]);
    }

    /// Retires a tracking tag: its pending beacon is dropped at the next
    /// scheduled slot (never rescheduled), it stops counting toward
    /// co-location interference, its smoothing filters are forgotten, its
    /// link-budget row is released, and its slab slot is freed for reuse
    /// by future tags (at a bumped generation), so long-running tag churn
    /// keeps every per-tag table bounded by the peak *live* population.
    /// The removal is also queued on the pipeline stage
    /// ([`MiddlewareStage::take_removed_tags`]) so a driving
    /// [`vire_core::LocationService`] evicts the tag's track immediately.
    /// Removing the same tag twice — or through a stale handle from an
    /// earlier lifetime of a reused slot — is a no-op.
    ///
    /// # Panics
    /// Panics when `id`'s slot is unknown or holds a reference tag (the
    /// lattice calibration must stay complete).
    pub fn remove_tracking_tag(&mut self, id: TagId) {
        let tag = self.tags.get(id.slot()).expect("unknown tag id");
        assert!(
            matches!(tag.role, TagRole::Tracking),
            "reference tags cannot be removed"
        );
        if !self.slab.release(id) {
            return;
        }
        if let Some(cache) = &mut self.budget_cache {
            cache.release_tx(id);
        }
        self.stage.note_removed(id);
    }

    /// Adds a reference tag at an arbitrary known position (a scattered,
    /// non-lattice deployment — paper §6). Export the calibration data
    /// with [`Testbed::scattered_reference_map`].
    pub fn add_scattered_reference(&mut self, position: Point2) -> TagId {
        let id = self.register_tag(position, TagRole::ScatteredReference);
        self.warm_links(&[id]);
        id
    }

    /// Exports the calibration map over every reference tag — lattice and
    /// scattered alike — as a [`vire_core::ScatteredReferenceMap`].
    /// `None` until every reference tag has beaconed at least once.
    pub fn scattered_reference_map(&self) -> Option<vire_core::ScatteredReferenceMap> {
        let refs: Vec<&Tag> = self.tags.iter().filter(|t| t.is_reference()).collect();
        if refs.is_empty() {
            return None;
        }
        let sites: Vec<Point2> = refs.iter().map(|t| t.position).collect();
        let mut rssi = Vec::with_capacity(self.readers.len());
        for k in 0..self.readers.len() {
            let row: Option<Vec<f64>> = refs.iter().map(|t| self.rssi_or_floor(t.id, k)).collect();
            rssi.push(row?);
        }
        Some(vire_core::ScatteredReferenceMap::new(
            sites,
            self.config.deployment.readers.clone(),
            rssi,
        ))
    }

    /// Replaces reader `k`'s antenna pattern (readers default to omni).
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn set_reader_antenna(&mut self, k: usize, antenna: vire_radio::antenna::AntennaPattern) {
        self.readers[k].antenna = antenna;
        // Record the change in the config (as `add_wall` does for the
        // environment) so the live fingerprint tracks the live physics.
        if self.config.reader_antennas.is_empty() {
            self.config.reader_antennas = vec![AntennaPattern::Omni; self.readers.len()];
        }
        self.config.reader_antennas[k] = antenna;
        // Every link into this reader now has a different receive gain;
        // drop exactly that column (refilled lazily on the next beacons).
        if let Some(cache) = &mut self.budget_cache {
            cache.invalidate_rx(k);
        }
    }

    /// Erects a wall at runtime (a door closing, a partition rolled in).
    /// The channel's deterministic geometry is rebuilt in place and every
    /// memoized link budget is dropped — a stale mean would otherwise pin
    /// readings to the pre-wall propagation forever.
    pub fn add_wall(&mut self, wall: Wall) {
        self.config.environment.walls.push(wall);
        self.adopt_environment();
    }

    /// Places an obstacle at runtime (furniture moved into the aisle).
    /// Adds both its reflective face and its through-loss to the channel
    /// and invalidates the link-budget cache like [`Testbed::add_wall`].
    pub fn add_obstacle(&mut self, obstacle: Obstacle) {
        self.config.environment.obstacles.push(obstacle);
        self.adopt_environment();
    }

    /// Re-tunes the unresolved-clutter disturbance process (RMS amplitude
    /// in dB, spatial band in meters) at runtime. The clutter field is
    /// part of the deterministic mean plane, so the memoized budgets are
    /// dropped along with the rest of the geometry.
    pub fn set_clutter(&mut self, sigma_db: f64, band: (f64, f64)) {
        self.config.environment.clutter_sigma_db = sigma_db;
        self.config.environment.clutter_band = band;
        self.adopt_environment();
    }

    /// Applies the mutated environment: rebuilds the channel's
    /// deterministic geometry (the stochastic streams keep their state, so
    /// the draw sequence stays aligned with an unmutated twin) and clears
    /// the whole link-budget cache — any mean may have moved. Budgets
    /// refill lazily on the next beacons.
    fn adopt_environment(&mut self) {
        let params = self.config.environment.channel_params(self.config.seed);
        self.channel.adopt_geometry(&params);
        if let Some(cache) = &mut self.budget_cache {
            cache.clear();
        }
    }

    /// Number of tags within the collision radius of `position`
    /// (co-location count for the interference model). A non-positive
    /// radius disables the interference model entirely — used to emulate
    /// tags occupying the same spot *at different times* (the Fig. 4
    /// "in sequence" arm).
    pub fn co_located_count(&self, position: Point2) -> usize {
        if self.config.collision_radius <= 0.0 {
            return 1;
        }
        self.slab
            .iter_live()
            .filter(|h| {
                self.tags[h.slot()].position.distance(position) <= self.config.collision_radius
            })
            .count()
    }

    /// Advances simulated time by `seconds`, processing every beacon due
    /// in that span.
    pub fn run_for(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot run backwards");
        let horizon = self.clock + seconds;
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (time, Event::Beacon { tag }) = self.queue.pop().expect("peeked");
            self.clock = time;
            if !self.slab.is_live(tag) {
                // The tag was removed: drop its pending beacon without
                // rescheduling, which retires it from the event queue.
                continue;
            }
            self.process_beacon(tag);
            // Reschedule the next beacon with jitter.
            let tag_info = self.tags[tag.slot()];
            let jitter = if self.config.beacon_jitter_frac > 0.0 {
                let j = self.config.beacon_jitter_frac;
                self.rng.gen_range(-j..j)
            } else {
                0.0
            };
            let next = time + tag_info.beacon_interval * (1.0 + jitter);
            self.queue.schedule(next, Event::Beacon { tag });
        }
        self.clock = horizon;
    }

    fn process_beacon(&mut self, tag_id: TagId) {
        let tag = self.tags[tag_id.slot()];
        self.beacon_counts[tag_id.slot()] += 1;
        let co_located = self.co_located_count(tag.position);
        for k in 0..self.readers.len() {
            let reader = self.readers[k];
            // The deterministic plane comes from the memo table (filled at
            // registration, re-filled lazily after invalidation); only the
            // stochastic tail is drawn per beacon. The summation order
            // matches the uncached expression term for term, so both paths
            // are f64::to_bits-identical.
            let budget = match self.budget_cache.as_mut() {
                Some(cache) => {
                    let channel = &self.channel;
                    cache.get_or_insert_with(tag_id, k, || LinkBudget {
                        mean_dbm: channel.mean_rssi(tag.position, reader.position),
                        rx_gain_db: reader.antenna_gain_db(tag.position),
                    })
                }
                None => LinkBudget {
                    mean_dbm: self.channel.mean_rssi(tag.position, reader.position),
                    rx_gain_db: reader.antenna_gain_db(tag.position),
                },
            };
            let mut rssi = self.channel.sample_with_mean(budget.mean_dbm, co_located)
                + tag.gain_db
                + budget.rx_gain_db;
            if let Some(q) = &self.quantizer {
                rssi = q.degrade(rssi);
            }
            if reader.can_hear(rssi) {
                self.stage.ingest([Reading {
                    time: self.clock,
                    tag: tag_id,
                    reader: reader.id,
                    rssi,
                }]);
            }
        }
    }

    /// Current simulated time, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The middleware (read access for diagnostics).
    pub fn middleware(&self) -> &Middleware {
        self.stage.middleware()
    }

    /// The middleware pipeline stage. Mutable access is what
    /// [`vire_core::LocationService::drive`] needs to poll the stage
    /// incrementally:
    ///
    /// ```
    /// use vire_core::{LocationService, ServiceConfig, Vire};
    /// use vire_env::presets::env2;
    /// use vire_geom::Point2;
    /// use vire_sim::{Testbed, TestbedConfig};
    ///
    /// let mut tb = Testbed::new(TestbedConfig::paper(env2(), 7));
    /// tb.add_tracking_tag(Point2::new(1.3, 1.7));
    /// let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
    /// tb.run_for(tb.warmup_duration() * 2.0);
    /// let estimates = svc.drive(tb.stage_mut());
    /// assert!(!estimates.is_empty());
    /// ```
    pub fn stage_mut(&mut self) -> &mut MiddlewareStage {
        &mut self.stage
    }

    /// The middleware pipeline stage (read access).
    pub fn stage(&self) -> &MiddlewareStage {
        &self.stage
    }

    /// All tag slots (reference + tracking), slot-major. Under churn a
    /// slot holds its **latest** occupant, which may be dead; check
    /// [`Testbed::is_live`] or iterate the live population's handles via
    /// the slab-backed accessors below.
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// Whether this exact tag lifetime is currently live.
    pub fn is_live(&self, id: TagId) -> bool {
        self.slab.is_live(id)
    }

    /// Number of currently live tags (reference + tracking).
    pub fn live_tag_count(&self) -> usize {
        self.slab.live_count()
    }

    /// Number of tag slots ever allocated — the slab's high-water mark,
    /// which bounds every per-tag table regardless of how many lifetimes
    /// have churned through.
    pub fn tag_slot_count(&self) -> usize {
        self.slab.slot_count()
    }

    /// Lifetime counters of the tag slab: total handles allocated,
    /// released, and allocations served by reusing a freed slot.
    pub fn tag_slab_stats(&self) -> vire_geom::HandleStats {
        self.slab.stats()
    }

    /// True position of a tag.
    pub fn tag_position(&self, id: TagId) -> Point2 {
        self.tags[id.slot()].position
    }

    /// Smoothed RSSI of `tag` at reader `k`, with the dead-spot fallback:
    /// a tag that has beaconed at least once but was never decoded by this
    /// reader reads as the reader's sensitivity floor (what a real
    /// middleware records for a "no read"). `None` only before the tag's
    /// first beacon.
    fn rssi_or_floor(&self, tag: TagId, k: usize) -> Option<f64> {
        let reader = self.readers[k];
        self.stage
            .middleware()
            .rssi(tag, reader.id)
            .or_else(|| (self.beacon_counts[tag.slot()] > 0).then_some(reader.sensitivity_dbm))
    }

    /// Exports the reference calibration map; `None` until every reference
    /// tag has beaconed at least once (run longer). Reference tags sitting
    /// in a fade below a reader's sensitivity are recorded at the
    /// sensitivity floor — the "dead spots" the paper's §1 lists among
    /// indoor propagation hazards.
    pub fn reference_map(&self) -> Option<ReferenceRssiMap> {
        let grid = self.config.deployment.reference_grid;
        let mut fields = vec![vire_geom::GridData::filled(grid, 0.0f64); self.readers.len()];
        // `new` pinned a reference tag to every lattice node.
        for (idx, tag) in self.stage.middleware().pinned() {
            for (k, field) in fields.iter_mut().enumerate() {
                field.set(idx, self.rssi_or_floor(tag, k)?);
            }
        }
        Some(ReferenceRssiMap::new(
            grid,
            self.config.deployment.readers.clone(),
            fields,
        ))
    }

    /// Exports one tracking tag's reading; `None` until its first beacon.
    /// Readers that never decoded the tag report their sensitivity floor.
    pub fn tracking_reading(&self, tag: TagId) -> Option<TrackingReading> {
        let rssi: Option<Vec<f64>> = (0..self.readers.len())
            .map(|k| self.rssi_or_floor(tag, k))
            .collect();
        Some(TrackingReading::new(rssi?))
    }

    /// Exports the middleware's raw reading log as a [`crate::Trace`]
    /// (requires `keep_log` in the config; the trace is empty otherwise).
    pub fn export_trace(&self, description: impl Into<String>) -> crate::Trace {
        let reference_tags: Vec<(TagId, Point2)> = self
            .tags
            .iter()
            .filter(|t| t.is_reference())
            .map(|t| (t.id, t.position))
            .collect();
        crate::Trace::new(
            description,
            &self.config.deployment.readers,
            &reference_tags,
            self.stage.middleware().log_readings().copied(),
        )
    }

    /// Convenience: simulated time that guarantees every smoothing window
    /// is full (`window × interval` plus one interval of phase slack).
    pub fn warmup_duration(&self) -> f64 {
        let window = match self.config.smoothing {
            SmoothingKind::Raw => 1,
            SmoothingKind::Ewma(_) => 4,
            SmoothingKind::MovingAverage(n) | SmoothingKind::Median(n) => n,
        };
        self.config.beacon_interval * (window as f64 + 2.0)
    }
}

/// A [`Testbed`] is itself a snapshot source, delegating to its embedded
/// middleware stage, which has ingested every decoded reading. This is
/// what lets [`vire_core::drive_zones`] drive a whole slice of zone
/// testbeds directly: `drive_zones(&mut services, campus.zones_mut())`.
/// Note the inherent [`Testbed::reference_map`] (a from-scratch export
/// with the dead-spot floor) remains distinct from the trait's incremental
/// [`SnapshotSource::reference_map`], which is `None` until the stage has
/// complete smoothed coverage.
impl SnapshotSource for Testbed {
    fn snapshot_time(&self) -> f64 {
        self.stage.clock()
    }

    fn reference_map(&mut self) -> Option<&ReferenceRssiMap> {
        self.stage.reference_map()
    }

    fn changed_readings(&mut self) -> Vec<(TagId, TrackingReading)> {
        self.stage.changed_readings()
    }

    fn removed_tags(&mut self) -> Vec<TagId> {
        self.stage.take_removed_tags()
    }

    fn take_dirty_cells(&mut self) -> Vec<DirtyCell> {
        self.stage.take_dirty_cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_env::presets::env2;

    fn testbed(seed: u64) -> Testbed {
        Testbed::new(TestbedConfig::paper(env2(), seed))
    }

    #[test]
    fn reference_map_becomes_available_after_warmup() {
        let mut tb = testbed(1);
        assert!(tb.reference_map().is_none(), "no readings at t = 0");
        let warmup = tb.warmup_duration();
        tb.run_for(warmup);
        let map = tb.reference_map().expect("warmed up");
        assert_eq!(map.reader_count(), 4);
        assert_eq!(map.grid().node_count(), 16);
    }

    #[test]
    fn tracking_tag_reading_appears() {
        let mut tb = testbed(2);
        let id = tb.add_tracking_tag(Point2::new(1.5, 1.5));
        tb.run_for(tb.warmup_duration());
        let reading = tb.tracking_reading(id).expect("tracked");
        assert_eq!(reading.reader_count(), 4);
        assert!(reading.rssi().iter().all(|r| (-110.0..=-40.0).contains(r)));
    }

    #[test]
    fn replay_is_deterministic() {
        let run = |seed| {
            let mut tb = testbed(seed);
            let id = tb.add_tracking_tag(Point2::new(2.0, 1.0));
            tb.run_for(60.0);
            tb.tracking_reading(id).unwrap().rssi().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn clock_advances_to_horizon() {
        let mut tb = testbed(3);
        tb.run_for(10.0);
        assert_eq!(tb.clock(), 10.0);
        tb.run_for(5.0);
        assert_eq!(tb.clock(), 15.0);
    }

    #[test]
    fn nearby_tags_reduce_rssi_fidelity() {
        // Stack 20 tracking tags on one spot: the interference model must
        // scatter their readings (paper Fig. 4).
        let spot = Point2::new(1.5, 1.5);
        let mut dense = testbed(4);
        for _ in 0..20 {
            dense.add_tracking_tag(spot);
        }
        assert_eq!(dense.co_located_count(spot), 20);

        let mut sparse = testbed(4);
        let lone = sparse.add_tracking_tag(spot);
        assert!(sparse.co_located_count(spot) <= 2);

        // Compare reading scatter (use raw smoothing for direct access).
        let mut cfg = TestbedConfig::paper(env2(), 4);
        cfg.smoothing = SmoothingKind::Raw;
        cfg.keep_log = true;
        let mut tb = Testbed::new(cfg);
        let ids: Vec<TagId> = (0..20).map(|_| tb.add_tracking_tag(spot)).collect();
        tb.run_for(120.0);
        let rssi_spread: Vec<f64> = ids
            .iter()
            .filter_map(|&id| tb.tracking_reading(id))
            .map(|r| r.at(0))
            .collect();
        let mean = rssi_spread.iter().sum::<f64>() / rssi_spread.len() as f64;
        let sd = (rssi_spread.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
            / rssi_spread.len() as f64)
            .sqrt();
        assert!(sd > 1.5, "20 co-located tags should scatter, σ = {sd:.2}");
        let _ = (dense, sparse, lone);
    }

    #[test]
    fn legacy_mode_quantizes_rssi() {
        let mut tb = Testbed::new(TestbedConfig::legacy(env2(), 5));
        let id = tb.add_tracking_tag(Point2::new(1.0, 2.0));
        tb.run_for(tb.warmup_duration());
        let q = PowerLevelQuantizer::paper_default();
        // Raw smoothing isn't on, but the median of quantized levels is
        // itself a representative (odd window) — check it maps to itself.
        let reading = tb.tracking_reading(id).unwrap();
        for &r in reading.rssi() {
            assert!(
                (q.degrade(r) - r).abs() < 1e-9,
                "smoothed legacy reading {r} is not a representative level"
            );
        }
    }

    #[test]
    fn tag_gain_variation_spreads_same_spot_readings() {
        // §3.1's "varying behaviors of tags": with gain variation on, tags
        // at the same position read differently even without collisions.
        // Averaged over seeds so no single realization decides.
        let spot = Point2::new(1.5, 1.5);
        let spread_with_sigma = |sigma: f64, seed: u64| -> f64 {
            let mut cfg = TestbedConfig::paper(env2(), seed);
            cfg.tag_gain_sigma = sigma;
            cfg.smoothing = SmoothingKind::Median(5);
            cfg.collision_radius = 0.0; // isolate the gain effect
            let mut tb = Testbed::new(cfg);
            let ids: Vec<TagId> = (0..12).map(|_| tb.add_tracking_tag(spot)).collect();
            tb.run_for(tb.warmup_duration() * 2.0);
            let vals: Vec<f64> = ids
                .iter()
                .map(|&id| tb.tracking_reading(id).unwrap().at(0))
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        let calibrated = (0..6u64).map(|s| spread_with_sigma(0.0, s)).sum::<f64>() / 6.0;
        let varying = (0..6u64).map(|s| spread_with_sigma(1.5, s)).sum::<f64>() / 6.0;
        assert!(
            calibrated < 0.8,
            "calibrated tags should agree: σ {calibrated:.2}"
        );
        assert!(
            varying > calibrated + 0.5,
            "gain variation should spread readings: {varying:.2} vs {calibrated:.2}"
        );
    }

    #[test]
    fn legacy_beacons_are_slower() {
        let env = env2();
        let paper = TestbedConfig::paper(env.clone(), 0);
        let legacy = TestbedConfig::legacy(env, 0);
        assert!(legacy.beacon_interval > 3.0 * paper.beacon_interval);
        assert!(legacy.legacy_power_levels);
    }

    #[test]
    fn moved_tag_readings_converge_to_new_position() {
        let mut tb = testbed(9);
        let id = tb.add_tracking_tag(Point2::new(0.5, 0.5));
        tb.run_for(tb.warmup_duration());
        let before = tb.tracking_reading(id).unwrap();
        tb.move_tag(id, Point2::new(2.5, 2.5));
        assert_eq!(tb.tag_position(id), Point2::new(2.5, 2.5));
        tb.run_for(tb.warmup_duration());
        let after = tb.tracking_reading(id).unwrap();
        assert_ne!(before, after, "readings must reflect the move");
        // Reader 0 sits at the SW corner: moving away must weaken RSSI.
        assert!(after.at(0) < before.at(0));
    }

    #[test]
    fn scattered_reference_map_covers_all_reference_tags() {
        let mut tb = testbed(12);
        // Add three scattered references around an imaginary obstacle.
        for &(x, y) in &[(0.4, 2.6), (2.6, 0.4), (2.6, 2.6)] {
            tb.add_scattered_reference(Point2::new(x, y));
        }
        assert!(tb.scattered_reference_map().is_none(), "not warmed up yet");
        tb.run_for(tb.warmup_duration());
        let map = tb.scattered_reference_map().expect("warmed up");
        // 16 lattice references + 3 scattered.
        assert_eq!(map.sites().len(), 19);
        assert_eq!(map.reader_count(), 4);
        // Scattered sites appear with their exact positions.
        assert!(map
            .sites()
            .iter()
            .any(|p| p.distance(Point2::new(0.4, 2.6)) < 1e-9));
    }

    #[test]
    fn exported_trace_replays_to_the_same_rssi_table() {
        let mut cfg = TestbedConfig::paper(env2(), 19);
        cfg.keep_log = true;
        cfg.smoothing = SmoothingKind::Median(5);
        let mut tb = Testbed::new(cfg);
        let id = tb.add_tracking_tag(Point2::new(1.2, 2.1));
        tb.run_for(tb.warmup_duration() * 2.0);

        let trace = tb.export_trace("round-trip test");
        trace.validate().expect("exported traces are valid");
        let mw = trace.replay(SmoothingKind::Median(5));
        // The replayed middleware reproduces the smoothed values exactly.
        for k in 0..4u32 {
            assert_eq!(
                mw.rssi(id, crate::reader::ReaderId(k)),
                tb.middleware().rssi(id, crate::reader::ReaderId(k)),
                "reader {k}"
            );
        }
        assert_eq!(trace.reference_tags.len(), 16);
        assert_eq!(trace.readers.len(), 4);
    }

    #[test]
    #[should_panic(expected = "reference tags cannot move")]
    fn reference_tags_cannot_move() {
        let mut tb = testbed(10);
        tb.move_tag(TagId::first(0), Point2::new(9.0, 9.0));
    }

    #[test]
    #[should_panic(expected = "beacon interval")]
    fn zero_interval_panics() {
        let mut cfg = TestbedConfig::paper(env2(), 0);
        cfg.beacon_interval = 0.0;
        Testbed::new(cfg);
    }
}
