//! Bit-identity pins for the memoized link-budget plane.
//!
//! The cache is a pure performance device: a testbed with
//! `link_budget_cache` on must be `f64::to_bits`-indistinguishable from
//! one with it off, across every preset environment and both equipment
//! configs. These tests also give the invalidation paths teeth — a
//! stale-cache bug (skipping `move_tag` / `set_reader_antenna`
//! invalidation) shows up as a bitwise mismatch against a testbed that
//! had the final geometry from the start.

use proptest::prelude::*;
use vire_env::presets::{all_paper_environments, env2};
use vire_geom::Point2;
use vire_sim::middleware::Reading;
use vire_sim::{Testbed, TestbedConfig};

/// Tracking-tag spots kept > 0.3 m (the collision radius) away from the
/// 1 m lattice nodes and from each other, so the interference model draws
/// no RNG samples regardless of position and streams stay aligned.
const SPARSE_SPOTS: [(f64, f64); 3] = [(1.3, 1.7), (2.6, 0.7), (0.4, 2.55)];

fn config(env_idx: usize, legacy: bool, seed: u64) -> TestbedConfig {
    let env = all_paper_environments()[env_idx].clone();
    if legacy {
        TestbedConfig::legacy(env, seed)
    } else {
        TestbedConfig::paper(env, seed)
    }
}

/// A testbed that keeps the middleware's raw log: the record of every
/// decoded reading.
fn logged(mut cfg: TestbedConfig) -> Testbed {
    cfg.keep_log = true;
    Testbed::new(cfg)
}

/// Every reading `tb` decoded, oldest first, from its raw log.
fn decoded(tb: &Testbed) -> Vec<Reading> {
    assert_eq!(tb.middleware().log_evicted(), 0, "the log dropped readings");
    tb.middleware().log_readings().copied().collect()
}

/// Runs one scripted scenario and returns every decoded reading plus the
/// final calibration table, for bitwise comparison.
fn run_scenario(
    mut cfg: TestbedConfig,
    cached: bool,
    tag_count: usize,
) -> (Vec<Reading>, Vec<u64>) {
    cfg.link_budget_cache = cached;
    let mut tb = logged(cfg);
    for &(x, y) in SPARSE_SPOTS.iter().take(tag_count) {
        tb.add_tracking_tag(Point2::new(x, y));
    }
    let step = tb.warmup_duration();
    for _ in 0..3 {
        tb.run_for(step);
    }
    let readings = decoded(&tb);
    let map_bits: Vec<u64> = tb
        .reference_map()
        .expect("warmed up")
        .planes()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (readings, map_bits)
}

fn assert_bit_identical(a: &[Reading], b: &[Reading], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: reading counts differ");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.time.to_bits(), rb.time.to_bits(), "{label}: time @{i}");
        assert_eq!(ra.tag, rb.tag, "{label}: tag @{i}");
        assert_eq!(ra.reader, rb.reader, "{label}: reader @{i}");
        assert_eq!(
            ra.rssi.to_bits(),
            rb.rssi.to_bits(),
            "{label}: rssi @{i} ({} vs {})",
            ra.rssi,
            rb.rssi
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance pin: cached and uncached testbeds replay to
    /// bit-identical reading streams and middleware RSSI tables across
    /// Env1/Env2/Env3 and both equipment configs.
    #[test]
    fn cached_testbed_is_bit_identical_to_uncached(
        env_idx in 0usize..3,
        legacy in any::<bool>(),
        seed in 0u64..1_000,
        tag_count in 1usize..=3,
    ) {
        let cached = run_scenario(config(env_idx, legacy, seed), true, tag_count);
        let uncached = run_scenario(config(env_idx, legacy, seed), false, tag_count);
        prop_assert_eq!(cached.0.len(), uncached.0.len());
        for (ra, rb) in cached.0.iter().zip(&uncached.0) {
            prop_assert_eq!(ra.time.to_bits(), rb.time.to_bits());
            prop_assert_eq!(ra.tag, rb.tag);
            prop_assert_eq!(ra.reader, rb.reader);
            prop_assert_eq!(ra.rssi.to_bits(), rb.rssi.to_bits());
        }
        prop_assert_eq!(&cached.1, &uncached.1, "reference map bits differ");
    }
}

/// Collects `(time, rssi_bits)` of one tag's readings after `cutoff`.
fn tail_of(readings: &[Reading], tag: vire_sim::tag::TagId, cutoff: f64) -> Vec<Reading> {
    readings
        .iter()
        .filter(|r| r.tag == tag && r.time > cutoff)
        .copied()
        .collect()
}

/// `move_tag` mid-run must produce, from the move instant onward, the
/// exact stream a testbed would produce with the tag at the new position
/// all along — and a different stream from one where the tag never moved.
/// A stale cache (skipped invalidation) fails the first assertion; a
/// cache that somehow bled into the RNG fails the second.
#[test]
fn move_tag_matches_testbed_built_at_new_position() {
    let p_old = Point2::new(1.3, 1.7);
    let p_new = Point2::new(2.6, 0.7);
    let t_pre = 30.0;
    let t_post = 30.0;

    let run = |start: Point2, moved: Option<Point2>| -> (vire_sim::tag::TagId, Vec<Reading>) {
        let mut tb = logged(TestbedConfig::paper(env2(), 41));
        let id = tb.add_tracking_tag(start);
        tb.run_for(t_pre);
        if let Some(p) = moved {
            tb.move_tag(id, p);
        }
        tb.run_for(t_post);
        (id, decoded(&tb))
    };

    let (id_a, moved) = run(p_old, Some(p_new));
    let (id_b, always_new) = run(p_new, None);
    let (id_c, never_moved) = run(p_old, None);
    assert_eq!(id_a, id_b);
    assert_eq!(id_a, id_c);

    let tail_moved = tail_of(&moved, id_a, t_pre);
    let tail_new = tail_of(&always_new, id_b, t_pre);
    let tail_stale = tail_of(&never_moved, id_c, t_pre);
    assert!(!tail_moved.is_empty(), "tag must beacon after the move");
    assert_bit_identical(&tail_moved, &tail_new, "post-move vs built-at-new");
    // Teeth: with invalidation skipped, the cached P_old budget would make
    // the moved stream equal the never-moved one instead.
    let stale_bits: Vec<u64> = tail_stale.iter().map(|r| r.rssi.to_bits()).collect();
    let moved_bits: Vec<u64> = tail_moved.iter().map(|r| r.rssi.to_bits()).collect();
    assert_ne!(
        moved_bits, stale_bits,
        "post-move readings must reflect the new position"
    );
}

/// `set_reader_antenna` mid-run must produce, from the swap onward, the
/// exact stream of a testbed that had the new antenna from t = 0.
#[test]
fn antenna_swap_matches_testbed_built_with_new_antenna() {
    use vire_radio::antenna::AntennaPattern;
    let pattern = || AntennaPattern::cardioid(vire_geom::Vec2::new(1.0, 1.0));
    let t_pre = 30.0;
    let t_post = 30.0;

    let run = |swap_at_start: bool, swap_mid: bool| -> Vec<Reading> {
        let mut tb = logged(TestbedConfig::paper(env2(), 43));
        tb.add_tracking_tag(Point2::new(1.3, 1.7));
        if swap_at_start {
            tb.set_reader_antenna(0, pattern());
        }
        tb.run_for(t_pre);
        if swap_mid {
            tb.set_reader_antenna(0, pattern());
        }
        tb.run_for(t_post);
        decoded(&tb)
    };

    let swapped_mid = run(false, true);
    let from_start = run(true, false);
    let never = run(false, false);

    let after = |rs: &[Reading]| -> Vec<Reading> {
        rs.iter().filter(|r| r.time > t_pre).copied().collect()
    };
    let tail_mid = after(&swapped_mid);
    let tail_start = after(&from_start);
    let tail_never = after(&never);
    assert!(!tail_mid.is_empty());
    assert_bit_identical(&tail_mid, &tail_start, "post-swap vs built-with-antenna");
    let mid_bits: Vec<u64> = tail_mid.iter().map(|r| r.rssi.to_bits()).collect();
    let never_bits: Vec<u64> = tail_never.iter().map(|r| r.rssi.to_bits()).collect();
    assert_ne!(
        mid_bits, never_bits,
        "reader-0 readings must reflect the antenna swap"
    );
}

/// Registration-time warming covers every link: a run with no geometry
/// mutation never misses in the cache.
#[test]
fn warmed_cache_never_misses() {
    let mut tb = Testbed::new(TestbedConfig::paper(env2(), 7));
    tb.add_tracking_tag(Point2::new(1.3, 1.7));
    tb.run_for(tb.warmup_duration() * 2.0);
    let stats = tb.link_budget_stats().expect("cache on by default");
    assert_eq!(stats.misses, 0, "warming must cover every link");
    assert!(stats.hits > 0, "beacons must hit the memo table");
}

/// Shared teeth harness for the runtime environment mutators: applying
/// `mutate` mid-run must produce, from that instant onward, the exact
/// stream of a testbed that had the final environment from t = 0 — and a
/// different stream from one that was never mutated. A stale link-budget
/// cache (a mutator that forgets to clear it) keeps serving the pre-mutation
/// means and fails the first assertion by matching the never-mutated arm.
fn assert_mutator_has_teeth(mutate: impl Fn(&mut Testbed), label: &str) {
    let t_pre = 30.0;
    let t_post = 30.0;
    let run = |at_start: bool, mid: bool| -> Vec<Reading> {
        let mut tb = logged(TestbedConfig::paper(env2(), 47));
        tb.add_tracking_tag(Point2::new(1.3, 1.7));
        if at_start {
            mutate(&mut tb);
        }
        tb.run_for(t_pre);
        if mid {
            mutate(&mut tb);
        }
        tb.run_for(t_post);
        decoded(&tb)
    };
    let mutated_mid = run(false, true);
    let from_start = run(true, false);
    let never = run(false, false);
    let after = |rs: &[Reading]| -> Vec<Reading> {
        rs.iter().filter(|r| r.time > t_pre).copied().collect()
    };
    let tail_mid = after(&mutated_mid);
    let tail_start = after(&from_start);
    let tail_never = after(&never);
    assert!(!tail_mid.is_empty(), "{label}: tags must beacon after it");
    assert_bit_identical(&tail_mid, &tail_start, label);
    let mid_bits: Vec<u64> = tail_mid.iter().map(|r| r.rssi.to_bits()).collect();
    let never_bits: Vec<u64> = tail_never.iter().map(|r| r.rssi.to_bits()).collect();
    assert_ne!(
        mid_bits, never_bits,
        "{label}: readings must reflect the mutation"
    );
}

#[test]
fn add_wall_invalidates_the_memoized_budgets() {
    use vire_env::{Material, Wall};
    use vire_geom::Segment;
    // A metal partition through the middle of the testbed: strong new
    // reflections on most tag-reader links.
    assert_mutator_has_teeth(
        |tb| {
            tb.add_wall(Wall::new(
                Segment::new(Point2::new(1.5, -0.5), Point2::new(1.5, 3.5)),
                Material::Metal,
            ));
        },
        "add_wall mid-run vs built-with-wall",
    );
}

#[test]
fn add_obstacle_invalidates_the_memoized_budgets() {
    use vire_env::{Material, Obstacle};
    use vire_geom::Segment;
    // A metal cabinet between the tag at (1.3, 1.7) and the SW reader:
    // its through-loss attenuates that link directly.
    assert_mutator_has_teeth(
        |tb| {
            tb.add_obstacle(Obstacle::new(
                Segment::new(Point2::new(0.0, 1.2), Point2::new(1.2, 0.0)),
                Material::Metal,
            ));
        },
        "add_obstacle mid-run vs built-with-obstacle",
    );
}

#[test]
fn set_clutter_invalidates_the_memoized_budgets() {
    // Doubling the disturbance field's RMS amplitude moves the
    // deterministic mean at every position.
    let sigma = env2().clutter_sigma_db;
    assert!(sigma > 0.0, "env2 must carry a clutter field");
    assert_mutator_has_teeth(
        |tb| tb.set_clutter(2.0 * sigma, (2.0, 6.0)),
        "set_clutter mid-run vs built-with-clutter",
    );
}

/// Tag churn: rounds of add + remove keep the cache's storage bounded by
/// the peak live population — slots (and their cache rows) are reused at
/// bumped generations, so row storage never grows past the high-water
/// mark — and removed tags stop beaconing.
#[test]
fn tag_churn_keeps_cache_rows_bounded_and_silences_removed_tags() {
    let mut tb = logged(TestbedConfig::paper(env2(), 11));
    let lattice_rows = tb.link_budget_cache().expect("cache on").allocated_rows();
    let mut removed = Vec::new();
    for round in 0..10 {
        let ids: Vec<_> = (0..3)
            .map(|i| tb.add_tracking_tag(Point2::new(0.4 + i as f64, 2.55)))
            .collect();
        tb.run_for(5.0);
        for id in ids {
            tb.remove_tracking_tag(id);
            removed.push(id);
        }
        let _ = round;
    }
    let cache = tb.link_budget_cache().expect("cache on");
    assert_eq!(
        cache.allocated_rows(),
        lattice_rows + 3,
        "row storage must stay at the peak live population"
    );
    assert_eq!(
        cache.transmitters(),
        16 + 3,
        "slot reuse keeps the row table at the high-water mark"
    );
    let stats = tb.link_budget_stats().unwrap();
    assert_eq!(stats.released_rows, 30);
    assert_eq!(stats.reclaimed_rows, 27, "9 later rounds reuse 3 rows each");
    // Silence: no reading from any removed tag after its removal.
    let before = tb.middleware().log_len();
    tb.run_for(60.0);
    let tail = &decoded(&tb)[before..];
    assert!(
        tail.iter().all(|r| !removed.contains(&r.tag)),
        "removed tags must stop beaconing"
    );
    // Reference lattice is untouched and keeps calibrating.
    assert!(tb.reference_map().is_some());
}

/// Removing a tag is idempotent and re-adding after removal reuses the
/// freed storage row without perturbing live tags' readings.
#[test]
fn remove_is_idempotent_and_reuses_rows() {
    let mut tb = Testbed::new(TestbedConfig::paper(env2(), 13));
    let a = tb.add_tracking_tag(Point2::new(1.3, 1.7));
    let rows_with_a = tb.link_budget_cache().unwrap().allocated_rows();
    tb.remove_tracking_tag(a);
    tb.remove_tracking_tag(a);
    assert_eq!(tb.link_budget_stats().unwrap().released_rows, 1);
    let b = tb.add_tracking_tag(Point2::new(2.6, 0.7));
    assert_ne!(a, b, "handles are never reused");
    assert_eq!(a.index, b.index, "the freed slot itself is");
    assert_eq!(b.generation, a.generation + 1);
    assert_eq!(
        tb.link_budget_cache().unwrap().allocated_rows(),
        rows_with_a,
        "the replacement tag must reuse the freed row"
    );
    tb.run_for(tb.warmup_duration());
    assert!(tb.tracking_reading(b).is_some());
}
