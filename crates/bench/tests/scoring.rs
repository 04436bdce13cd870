//! `Vire::locate_scored` scores a fix from the candidates and weights its
//! own locate left behind. This test holds it, bit for bit, to a
//! reference built from the one-shot stages: the diagnostics locate, then
//! `weights::candidate_weights` on its mask, then the residual and spread
//! arithmetic; a fix the LANDMARC fallback produced gets the fallback
//! score, also right after an eliminated fix on the same thread.

use vire_bench::fixture;
use vire_core::vire_alg::EmptyFallback;
use vire_core::weights::candidate_weights;
use vire_core::{
    Estimate, FixQuality, Landmarc, LocalizeError, ReferenceRssiMap, ThresholdMode,
    TrackingReading, Vire, VireConfig, W1Mode, WeightingMode,
};

type Scored = Result<(Estimate, FixQuality), LocalizeError>;

/// The fallback score: the best reference tag's signal distance and a
/// full cell of spread.
fn fallback_quality(map: &ReferenceRssiMap, reading: &TrackingReading) -> FixQuality {
    let best = Landmarc::signal_distances_sq(map, reading)
        .into_iter()
        .map(|(esq, _)| esq)
        .fold(f64::INFINITY, f64::min)
        .sqrt();
    FixQuality::combine(best, map.grid().pitch_x())
}

/// Scores one fix from the one-shot stages.
fn reference(vire: &Vire, map: &ReferenceRssiMap, reading: &TrackingReading) -> Scored {
    let prepared = vire.prepare(map)?;
    let (estimate, diag) = prepared.locate_with_diagnostics(reading)?;
    let Some(result) = diag else {
        return Ok((estimate, fallback_quality(map, reading)));
    };
    let config = vire.config();
    let grid = prepared.grid();
    let (candidates, weights) =
        candidate_weights(grid, reading, &result.mask, config.weighting, config.w1)
            .ok_or(LocalizeError::DegenerateWeights)?;
    let mut residual = 0.0;
    let mut spread_sq = 0.0;
    for (&idx, &w) in candidates.iter().zip(&weights) {
        residual += w * reading.signal_distance(&grid.signal_vector(idx));
        spread_sq += w * grid.grid().position(idx).distance_sq(estimate.position);
    }
    Ok((estimate, FixQuality::combine(residual, spread_sq.sqrt())))
}

/// Every float of a scored fix as bits, with the contributor count.
fn bits(scored: &Scored) -> Result<[u64; 7], LocalizeError> {
    let (est, q) = scored.clone()?;
    Ok([
        est.position.x.to_bits(),
        est.position.y.to_bits(),
        est.contributors as u64,
        est.threshold.map_or(u64::MAX, f64::to_bits),
        q.residual_db.to_bits(),
        q.spread_m.to_bits(),
        q.score.to_bits(),
    ])
}

#[test]
fn locate_scored_matches_the_one_shot_stages() {
    let (map, tags) = fixture();
    let thresholds = [
        ThresholdMode::default(),
        ThresholdMode::Fixed(2.0),
        ThresholdMode::Fixed(1e-9),
    ];
    let mut fallbacks = 0;
    for refine in [1, 3, 10] {
        for weighting in WeightingMode::ALL {
            for w1 in W1Mode::ALL {
                for threshold in thresholds {
                    let vire = Vire::new(VireConfig {
                        refine,
                        weighting,
                        w1,
                        threshold,
                        ..VireConfig::default()
                    });
                    for (_, reading) in &tags {
                        let want = reference(&vire, &map, reading);
                        let got = vire.locate_scored(&map, reading);
                        let case = format!("refine {refine}, {weighting:?}, {w1:?}, {threshold:?}");
                        assert_eq!(bits(&got), bits(&want), "{case}, {reading:?}");
                        fallbacks += usize::from(got.is_ok_and(|(est, _)| est.threshold.is_none()));
                    }
                }
            }
        }
    }
    // The 1e-9 threshold eliminates every region, so its fixes fall back.
    assert!(fallbacks > 0, "no fix fell back to LANDMARC");

    // Scoring reads the weights its own locate left on this thread: a fix
    // that falls back right after an eliminated one must get the fallback
    // score, not one read off the eliminated fix's candidates.
    let eliminating = Vire::default();
    let falling_back = Vire::new(VireConfig {
        threshold: ThresholdMode::Fixed(1e-9),
        fallback: EmptyFallback::Landmarc,
        ..VireConfig::default()
    });
    for (_, reading) in &tags {
        let want = reference(&falling_back, &map, reading);
        let (_, diag) = eliminating.locate_with_diagnostics(&map, reading).unwrap();
        assert!(diag.is_some(), "the default configuration eliminates");
        let (_, diag) = falling_back.locate_with_diagnostics(&map, reading).unwrap();
        assert!(diag.is_none(), "a 1e-9 threshold falls back");

        let (_, first) = eliminating.locate_scored(&map, reading).unwrap();
        let second = falling_back.locate_scored(&map, reading);
        assert_eq!(bits(&second), bits(&want), "{reading:?}");
        let (_, q) = second.unwrap();
        assert_eq!(q, fallback_quality(&map, reading));
        assert_ne!(q, first, "the two fixes score alike");
    }
}
