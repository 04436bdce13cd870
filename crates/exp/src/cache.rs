//! Content-addressed, single-flight trial cache.
//!
//! Simulation dominates reproduction cost, and the experiment suite keeps
//! asking for the *same* simulations: fig7, fig8 and three ablations all
//! sweep localizer variants over the identical Env3 fixture; fig2 and
//! fig6 both run the Fig. 2(a) deployment through env1–3; the CDF and
//! heatmap extras batch hundreds of probe positions through ad-hoc seed
//! loops. [`TrialCache`] memoizes [`TrialData`] behind a canonical
//! content fingerprint of *what is simulated* —
//! `(environment geometry + clutter, deployment layout, tracking
//! positions, every testbed knob, seed)` — so each distinct fixture is
//! simulated exactly once per process no matter how many figures request
//! it.
//!
//! * **Content-addressed** — keys come from the
//!   [`vire_geom::Fingerprint`] canonical-bytes protocol (floats hash as
//!   [`f64::to_bits`], sequences are length-prefixed, enum tags are
//!   explicit), so value-equal fixtures collide by construction and any
//!   config drift moves the key.
//! * **Single-flight** — when two figures race on the same fixture,
//!   exactly one simulates; the loser blocks on the winner's flight slot
//!   and receives the same `Arc<TrialData>`.
//! * **Corpus-backed** — with [`TrialCache::set_corpus`], misses first
//!   try `DIR/<fingerprint>.json` and every simulation is persisted
//!   there, making repeated `vire-repro all --corpus DIR` runs near-zero
//!   simulation.
//!
//! The process-wide instance is [`TrialCache::global`]; every figure
//! routes through it via [`crate::runner::TrialSet::collect`] and
//! [`crate::runner::collect_trial_cached`].

use crate::runner::{collect_trial_with, TrialData, TrialTag};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use vire_core::{ReferenceRssiMap, TrackingReading};
use vire_geom::{Fingerprint, Fnv1a128, GridData, Point2, RegularGrid};
use vire_sim::TestbedConfig;

/// Version tag mixed into every fixture key and stored in every corpus
/// file. Bump when the canonical encoding or the trial contents change
/// meaning: old corpus entries then miss instead of deserializing into
/// silently wrong fixtures.
///
/// v2: `TestbedConfig::reader_antennas` joined the fingerprint stream.
/// v3: `TestbedConfig::event_capacity` left it.
const FORMAT_VERSION: u32 = 3;

/// A fixture's content address: the stable 128-bit digest of its
/// canonical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixtureKey(u128);

impl FixtureKey {
    /// The raw 128-bit digest.
    pub fn as_u128(&self) -> u128 {
        self.0
    }
}

impl fmt::Display for FixtureKey {
    /// 32 lowercase hex digits — also the corpus file stem.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Computes the content address of the fixture `(config, positions)`.
///
/// The key covers the full [`TestbedConfig`] (deployment, environment,
/// seed, and every knob — see its [`Fingerprint`] impl) plus the tracking
/// positions, prefixed with the cache format version.
pub fn fixture_key(config: &TestbedConfig, positions: &[Point2]) -> FixtureKey {
    let mut h = Fnv1a128::new();
    std::hash::Hasher::write_u32(&mut h, FORMAT_VERSION);
    config.fingerprint(&mut h);
    positions.fingerprint(&mut h);
    FixtureKey(h.finish128())
}

/// One in-flight simulation: the winner publishes here, losers block on
/// the condvar.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Default)]
struct FlightState {
    finished: bool,
    /// `None` after `finished` means the winner panicked; waiters retry.
    result: Option<Arc<TrialData>>,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::default()),
            done: Condvar::new(),
        })
    }

    fn publish(&self, result: Option<Arc<TrialData>>) {
        let mut state = self.state.lock().expect("flight lock");
        state.finished = true;
        state.result = result;
        self.done.notify_all();
    }

    fn wait(&self) -> Option<Arc<TrialData>> {
        let mut state = self.state.lock().expect("flight lock");
        while !state.finished {
            state = self.done.wait(state).expect("flight lock");
        }
        state.result.clone()
    }
}

/// How a ready entry came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provenance {
    /// Simulated in this process.
    Simulated,
    /// Deserialized from the on-disk corpus.
    Corpus,
}

enum SlotState {
    InFlight(Arc<Flight>),
    Ready(Arc<TrialData>, Provenance),
}

struct Entry {
    state: SlotState,
    lookups: u64,
}

/// Aggregate cache counters. `lookups == hits + in_flight_waits +
/// simulated + corpus_loaded`, and `distinct == simulated +
/// corpus_loaded` once nothing is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total `get_or_collect` calls.
    pub lookups: u64,
    /// Lookups answered from a ready slot.
    pub hits: u64,
    /// Lookups that blocked on another thread's in-flight simulation.
    pub in_flight_waits: u64,
    /// Fixtures simulated in this process (cache misses that ran the
    /// testbed).
    pub simulated: u64,
    /// Fixtures loaded from the on-disk corpus instead of simulating.
    pub corpus_loaded: u64,
    /// Distinct fixtures resident in the cache.
    pub distinct: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (waits count as hits: the work was
    /// shared, not repeated). NaN-free: 0 lookups yields 0.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        (self.hits + self.in_flight_waits) as f64 / self.lookups as f64
    }

    /// Counter-wise difference since `earlier` (for per-figure
    /// attribution inside one process). `distinct` reports the newly
    /// admitted fixtures.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
            in_flight_waits: self.in_flight_waits - earlier.in_flight_waits,
            simulated: self.simulated - earlier.simulated,
            corpus_loaded: self.corpus_loaded - earlier.corpus_loaded,
            distinct: self.distinct - earlier.distinct,
        }
    }
}

/// Per-fixture counters (see [`TrialCache::key_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyStats {
    /// `get_or_collect` calls that resolved to this fixture.
    pub lookups: u64,
    /// Whether this process simulated the fixture (`false` when it was
    /// loaded from the corpus or is still in flight).
    pub simulated: bool,
    /// Whether the fixture was deserialized from the corpus.
    pub corpus_loaded: bool,
}

/// The content-addressed, single-flight memo of simulated trials.
pub struct TrialCache {
    entries: Mutex<HashMap<u128, Entry>>,
    corpus: Mutex<Option<PathBuf>>,
    hits: AtomicU64,
    waits: AtomicU64,
    simulated: AtomicU64,
    corpus_loaded: AtomicU64,
}

impl TrialCache {
    /// Fresh, empty, memory-only cache.
    pub fn new() -> Self {
        TrialCache {
            entries: Mutex::new(HashMap::new()),
            corpus: Mutex::new(None),
            hits: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            corpus_loaded: AtomicU64::new(0),
        }
    }

    /// Fresh cache backed by the on-disk corpus at `dir` (created if
    /// missing).
    pub fn with_corpus(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let cache = TrialCache::new();
        cache.set_corpus(dir)?;
        Ok(cache)
    }

    /// The process-wide cache every figure routes through.
    pub fn global() -> &'static TrialCache {
        static GLOBAL: OnceLock<TrialCache> = OnceLock::new();
        GLOBAL.get_or_init(TrialCache::new)
    }

    /// Attaches (or replaces) the on-disk corpus directory: misses first
    /// try `dir/<fingerprint>.json`, and every simulation is persisted
    /// there. Fixtures already resident stay resident.
    pub fn set_corpus(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        *self.corpus.lock().expect("corpus lock") = Some(dir);
        Ok(())
    }

    /// The memoized trial for `(config, positions)` — simulated at most
    /// once per process.
    ///
    /// Lookup order: ready slot → block on an in-flight simulation →
    /// corpus file → simulate (and persist when a corpus is attached).
    /// Concurrent requests for the same fixture are single-flight: one
    /// simulates, the rest receive the winner's `Arc`.
    pub fn get_or_collect(&self, config: &TestbedConfig, positions: &[Point2]) -> Arc<TrialData> {
        let key = fixture_key(config, positions);
        loop {
            let flight = {
                let mut entries = self.entries.lock().expect("cache lock");
                match entries.entry(key.0) {
                    std::collections::hash_map::Entry::Occupied(mut slot) => {
                        let entry = slot.get_mut();
                        entry.lookups += 1;
                        match &entry.state {
                            SlotState::Ready(data, _) => {
                                self.hits.fetch_add(1, Ordering::Relaxed);
                                return Arc::clone(data);
                            }
                            SlotState::InFlight(flight) => Arc::clone(flight),
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        let flight = Flight::new();
                        slot.insert(Entry {
                            state: SlotState::InFlight(Arc::clone(&flight)),
                            lookups: 1,
                        });
                        drop(entries);
                        return self.fill(key, config, positions, &flight);
                    }
                }
            };
            self.waits.fetch_add(1, Ordering::Relaxed);
            if let Some(data) = flight.wait() {
                return data;
            }
            // The winner panicked and unlisted the slot; take over.
        }
    }

    /// Winner path: resolve the fixture (corpus, else simulate), publish
    /// it, and persist new simulations. A panic inside the simulation
    /// unlists the slot and wakes waiters empty-handed so they can retry
    /// instead of blocking forever.
    fn fill(
        &self,
        key: FixtureKey,
        config: &TestbedConfig,
        positions: &[Point2],
        flight: &Arc<Flight>,
    ) -> Arc<TrialData> {
        struct Abort<'a> {
            cache: &'a TrialCache,
            key: FixtureKey,
            flight: &'a Arc<Flight>,
            armed: bool,
        }
        impl Drop for Abort<'_> {
            fn drop(&mut self) {
                if self.armed {
                    let mut entries = self.cache.entries.lock().expect("cache lock");
                    entries.remove(&self.key.0);
                    drop(entries);
                    self.flight.publish(None);
                }
            }
        }
        let mut abort = Abort {
            cache: self,
            key,
            flight,
            armed: true,
        };

        let corpus_dir = self.corpus.lock().expect("corpus lock").clone();
        let (data, provenance) = match corpus_dir
            .as_deref()
            .and_then(|dir| load_trial(dir, key, config, positions))
        {
            Some(loaded) => (Arc::new(loaded), Provenance::Corpus),
            None => {
                let simulated = Arc::new(collect_trial_with(config.clone(), positions));
                if let Some(dir) = corpus_dir.as_deref() {
                    if let Err(err) = save_trial(dir, key, &simulated) {
                        eprintln!("trial-cache: failed to persist {key}: {err}");
                    }
                }
                (simulated, Provenance::Simulated)
            }
        };

        match provenance {
            Provenance::Simulated => self.simulated.fetch_add(1, Ordering::Relaxed),
            Provenance::Corpus => self.corpus_loaded.fetch_add(1, Ordering::Relaxed),
        };
        {
            let mut entries = self.entries.lock().expect("cache lock");
            let entry = entries.get_mut(&key.0).expect("winner's slot is listed");
            entry.state = SlotState::Ready(Arc::clone(&data), provenance);
        }
        abort.armed = false;
        flight.publish(Some(Arc::clone(&data)));
        data
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self.entries.lock().expect("cache lock");
        let hits = self.hits.load(Ordering::Relaxed);
        let waits = self.waits.load(Ordering::Relaxed);
        let simulated = self.simulated.load(Ordering::Relaxed);
        let corpus_loaded = self.corpus_loaded.load(Ordering::Relaxed);
        CacheStats {
            lookups: hits + waits + simulated + corpus_loaded,
            hits,
            in_flight_waits: waits,
            simulated,
            corpus_loaded,
            distinct: entries.len() as u64,
        }
    }

    /// Per-fixture counters, or `None` when the fixture was never
    /// requested.
    pub fn key_stats(&self, key: FixtureKey) -> Option<KeyStats> {
        let entries = self.entries.lock().expect("cache lock");
        entries.get(&key.0).map(|entry| KeyStats {
            lookups: entry.lookups,
            simulated: matches!(entry.state, SlotState::Ready(_, Provenance::Simulated)),
            corpus_loaded: matches!(entry.state, SlotState::Ready(_, Provenance::Corpus)),
        })
    }
}

impl Default for TrialCache {
    fn default() -> Self {
        TrialCache::new()
    }
}

// ---------------------------------------------------------------------------
// Corpus wire format
// ---------------------------------------------------------------------------
//
// One JSON file per fixture, named `<fingerprint>.json`. Floats travel as
// plain JSON numbers: serde_json emits the shortest representation that
// parses back to the identical f64 (ryu), so the round trip is bit-exact
// for the finite values `TrialData` is guaranteed to hold.

#[derive(Serialize, Deserialize)]
struct WireGrid {
    origin: (f64, f64),
    pitch_x: f64,
    pitch_y: f64,
    nx: usize,
    ny: usize,
}

#[derive(Serialize, Deserialize)]
struct WireTag {
    truth: (f64, f64),
    rssi: Vec<f64>,
}

#[derive(Serialize, Deserialize)]
struct WireTrial {
    version: u32,
    grid: WireGrid,
    readers: Vec<(f64, f64)>,
    per_reader: Vec<Vec<f64>>,
    tags: Vec<WireTag>,
}

impl WireTrial {
    fn from_trial(trial: &TrialData) -> WireTrial {
        let grid = trial.map.grid();
        WireTrial {
            version: FORMAT_VERSION,
            grid: WireGrid {
                origin: (grid.origin().x, grid.origin().y),
                pitch_x: grid.pitch_x(),
                pitch_y: grid.pitch_y(),
                nx: grid.nx(),
                ny: grid.ny(),
            },
            readers: trial.map.readers().iter().map(|r| (r.x, r.y)).collect(),
            per_reader: trial
                .map
                .planes()
                .chunks_exact(grid.node_count())
                .map(<[f64]>::to_vec)
                .collect(),
            tags: trial
                .tags
                .iter()
                .map(|t| WireTag {
                    truth: (t.truth.x, t.truth.y),
                    rssi: t.reading.rssi().to_vec(),
                })
                .collect(),
        }
    }

    /// Rebuilds the trial, validating the invariants `ReferenceRssiMap`
    /// and `TrackingReading` assert (finite values, matching counts).
    /// Returns `None` on any structural mismatch instead of panicking —
    /// a corrupt corpus entry degrades to a re-simulation.
    fn into_trial(self) -> Option<TrialData> {
        if self.version != FORMAT_VERSION
            || self.readers.is_empty()
            || self.per_reader.len() != self.readers.len()
        {
            return None;
        }
        if self.grid.nx == 0
            || self.grid.ny == 0
            || !(self.grid.pitch_x > 0.0 && self.grid.pitch_x.is_finite())
            || !(self.grid.pitch_y > 0.0 && self.grid.pitch_y.is_finite())
        {
            return None;
        }
        let grid = RegularGrid::new(
            Point2::new(self.grid.origin.0, self.grid.origin.1),
            self.grid.pitch_x,
            self.grid.pitch_y,
            self.grid.nx,
            self.grid.ny,
        );
        let node_count = grid.node_count();
        let all_finite = |vals: &[f64]| vals.iter().all(|v| v.is_finite());
        if self
            .per_reader
            .iter()
            .any(|f| f.len() != node_count || !all_finite(f))
        {
            return None;
        }
        let reader_count = self.readers.len();
        if self
            .tags
            .iter()
            .any(|t| t.rssi.len() != reader_count || t.rssi.is_empty() || !all_finite(&t.rssi))
        {
            return None;
        }
        let readers = self
            .readers
            .iter()
            .map(|&(x, y)| Point2::new(x, y))
            .collect();
        let per_reader = self
            .per_reader
            .into_iter()
            .map(|f| GridData::from_vec(grid, f))
            .collect();
        let tags = self
            .tags
            .into_iter()
            .map(|t| TrialTag {
                truth: Point2::new(t.truth.0, t.truth.1),
                reading: TrackingReading::new(t.rssi),
            })
            .collect();
        Some(TrialData {
            map: ReferenceRssiMap::new(grid, readers, per_reader),
            tags,
        })
    }
}

fn corpus_path(dir: &Path, key: FixtureKey) -> PathBuf {
    dir.join(format!("{key}.json"))
}

/// Loads and validates the corpus entry for `key`, checking it against
/// the *requesting* fixture (reader/tag counts and lattice) so a stale or
/// colliding file can never masquerade as the wrong fixture.
fn load_trial(
    dir: &Path,
    key: FixtureKey,
    config: &TestbedConfig,
    positions: &[Point2],
) -> Option<TrialData> {
    let text = std::fs::read_to_string(corpus_path(dir, key)).ok()?;
    let wire: WireTrial = serde_json::from_str(&text).ok()?;
    let trial = wire.into_trial()?;
    let deployment = &config.deployment;
    let consistent = trial.map.reader_count() == deployment.reader_count()
        && trial.map.grid() == &deployment.reference_grid
        && trial.tags.len() == positions.len()
        && trial.tags.iter().zip(positions).all(|(t, &p)| t.truth == p);
    if !consistent {
        return None;
    }
    Some(trial)
}

/// Persists `trial` under `key`, atomically (write-temp + rename) so a
/// concurrent reader never observes a half-written entry.
fn save_trial(dir: &Path, key: FixtureKey, trial: &TrialData) -> std::io::Result<()> {
    let body = serde_json::to_string(&WireTrial::from_trial(trial))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let tmp = dir.join(format!(".{key}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, corpus_path(dir, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_env::presets::env1;

    fn fixture() -> (TestbedConfig, Vec<Point2>) {
        (
            TestbedConfig::paper(env1(), 5),
            vec![Point2::new(1.5, 1.5), Point2::new(0.5, 2.5)],
        )
    }

    #[test]
    fn repeat_lookups_hit_and_share_one_arc() {
        let cache = TrialCache::new();
        let (config, positions) = fixture();
        let a = cache.get_or_collect(&config, &positions);
        let b = cache.get_or_collect(&config, &positions);
        assert!(Arc::ptr_eq(&a, &b), "hits must share the winner's Arc");
        let stats = cache.stats();
        assert_eq!(stats.simulated, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.distinct, 1);
        assert_eq!(stats.lookups, 2);
    }

    #[test]
    fn key_stats_track_per_fixture_lookups() {
        let cache = TrialCache::new();
        let (config, positions) = fixture();
        let key = fixture_key(&config, &positions);
        assert!(cache.key_stats(key).is_none());
        cache.get_or_collect(&config, &positions);
        cache.get_or_collect(&config, &positions);
        let ks = cache.key_stats(key).expect("fixture resident");
        assert_eq!(ks.lookups, 2);
        assert!(ks.simulated);
        assert!(!ks.corpus_loaded);
    }

    #[test]
    fn distinct_fixtures_do_not_collide() {
        let cache = TrialCache::new();
        let (config, positions) = fixture();
        let mut other = config.clone();
        other.seed += 1;
        let a = cache.get_or_collect(&config, &positions);
        let b = cache.get_or_collect(&other, &positions);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().simulated, 2);
        assert_eq!(cache.stats().distinct, 2);
    }

    #[test]
    fn wire_round_trip_is_bit_exact() {
        let (config, positions) = fixture();
        let trial = collect_trial_with(config, &positions);
        let body = serde_json::to_string(&WireTrial::from_trial(&trial)).unwrap();
        let wire: WireTrial = serde_json::from_str(&body).unwrap();
        let back = wire.into_trial().expect("valid wire trial");
        assert_eq!(trial.map.grid(), back.map.grid());
        let a_bits: Vec<u64> = trial.map.planes().iter().map(|v| v.to_bits()).collect();
        let b_bits: Vec<u64> = back.map.planes().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a_bits, b_bits);
        for (a, b) in trial.tags.iter().zip(&back.tags) {
            assert_eq!(a.truth, b.truth);
            let a_bits: Vec<u64> = a.reading.rssi().iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.reading.rssi().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn corrupt_corpus_entries_degrade_to_resimulation() {
        let dir = crate::cache::test_support::scratch_dir("corrupt");
        let (config, positions) = fixture();
        let key = fixture_key(&config, &positions);
        std::fs::write(corpus_path(&dir, key), b"{ not json").unwrap();
        let cache = TrialCache::with_corpus(&dir).unwrap();
        let _ = cache.get_or_collect(&config, &positions);
        assert_eq!(cache.stats().simulated, 1);
        assert_eq!(cache.stats().corpus_loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[doc(hidden)]
pub mod test_support {
    //! Shared scratch-directory helper for cache tests (no tempfile dep).

    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, created-on-call scratch directory under the system temp
    /// dir. Callers clean up with `remove_dir_all`.
    pub fn scratch_dir(label: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "vire-trial-cache-{label}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }
}
