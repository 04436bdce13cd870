//! Fix-quality scoring: how much should a consumer trust one estimate?
//!
//! A deployed system needs to flag unreliable fixes (alert suppression,
//! map display confidence). Two diagnostics fall out of the VIRE pipeline
//! for free:
//!
//! * **signal residual** — the weighted mean signal-space distance between
//!   the tracking reading and the selected virtual tags: large residual
//!   means nothing on the map really matched the reading,
//! * **candidate spread** — the weighted RMS distance of the surviving
//!   candidates from the estimate: a wide, ambiguous candidate cloud means
//!   the intersection did not pin the tag down.
//!
//! Both are read off the fix's own locate: the candidates and weights it
//! left in the scratch arena, and the candidates' signal vectors in its
//! prepared grid, so scoring weights nothing twice. A fix the LANDMARC
//! fallback produced has no candidates; it is scored from the best
//! reference tag's signal distance and a full cell of spread.
//!
//! The combined score maps both to `(0, 1]` (1 = clean fix). The quality
//! tests check the property that matters: low scores must correlate with
//! high true error on random workloads.

use crate::landmarc::Landmarc;
use crate::localizer::{check_readers, Estimate, LocalizeError};
use crate::prepared::with_scratch;
use crate::types::{ReferenceRssiMap, TrackingReading};
use crate::vire_alg::Vire;

/// Quality diagnostics for one fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixQuality {
    /// Weighted mean signal residual, dB.
    pub residual_db: f64,
    /// Weighted RMS candidate distance from the estimate, m.
    pub spread_m: f64,
    /// Combined score in `(0, 1]`; higher is better.
    pub score: f64,
}

impl FixQuality {
    /// Combines residual and spread into the score.
    ///
    /// `1 / (1 + residual/4 + spread)` — a 4 dB residual or a 1 m spread
    /// each halve the score; the constants are calibrated on the Env3
    /// workload (see the quality tests).
    pub fn combine(residual_db: f64, spread_m: f64) -> FixQuality {
        let score = 1.0 / (1.0 + residual_db.max(0.0) / 4.0 + spread_m.max(0.0));
        FixQuality {
            residual_db,
            spread_m,
            score,
        }
    }
}

impl Vire {
    /// Localizes and scores the fix.
    ///
    /// Falls back like `Vire::locate`; fallback fixes get the worst
    /// possible diagnostics available (no candidate cloud to measure), so
    /// their score is conservatively low. An eliminated fix is scored from
    /// the candidates and weights its own locate left in the scratch
    /// arena, and the candidates' signal vectors from the same prepared
    /// grid.
    pub fn locate_scored(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<(Estimate, FixQuality), LocalizeError> {
        check_readers(refs, reading)?;
        let prepared = self.prepare(refs)?;
        with_scratch(|scratch| {
            let (estimate, eliminated) = prepared.locate_core(reading, scratch)?;
            if !eliminated {
                // Fallback path (LANDMARC): no elimination diagnostics.
                // Score from the LANDMARC residual alone with a spread
                // penalty of a full cell. sqrt-free scan: sqrt is monotone
                // (and correctly rounded), so √(min E²) is bitwise the same
                // as min √(E²) — one sqrt total.
                let best = Landmarc::signal_distances_sq(refs, reading)
                    .into_iter()
                    .map(|(esq, _)| esq)
                    .fold(f64::INFINITY, f64::min)
                    .sqrt();
                return Ok((estimate, FixQuality::combine(best, refs.grid().pitch_x())));
            }
            let grid = prepared.grid();
            let fine = grid.grid();
            let mut residual = 0.0;
            let mut spread_sq = 0.0;
            let weighted = scratch
                .weights
                .candidates
                .iter()
                .zip(&scratch.weights.weights);
            for (&flat, &w) in weighted {
                let idx = fine.unflat(flat);
                residual += w * reading.signal_distance(&grid.signal_vector(idx));
                spread_sq += w * fine.position(idx).distance_sq(estimate.position);
            }
            Ok((estimate, FixQuality::combine(residual, spread_sq.sqrt())))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_geom::{GridData, Point2, RegularGrid};

    fn readers() -> Vec<Point2> {
        vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
            Point2::new(-1.0, 4.0),
        ]
    }

    fn rssi(p: Point2, r: Point2) -> f64 {
        -60.0 - 20.0 * p.distance(r).max(0.1).log10()
    }

    fn map() -> ReferenceRssiMap {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let fields = readers()
            .iter()
            .map(|r| GridData::from_fn(grid, |_, p| rssi(p, *r)))
            .collect();
        ReferenceRssiMap::new(grid, readers(), fields)
    }

    fn reading_at(p: Point2) -> TrackingReading {
        TrackingReading::new(readers().iter().map(|r| rssi(p, *r)).collect())
    }

    #[test]
    fn clean_fix_scores_high() {
        let refs = map();
        let (est, q) = Vire::default()
            .locate_scored(&refs, &reading_at(Point2::new(1.5, 1.5)))
            .unwrap();
        assert!(q.score > 0.5, "clean fix score {:.3}", q.score);
        assert!(q.residual_db < 1.0);
        assert!(est.position.is_finite());
    }

    #[test]
    fn corrupted_reading_scores_low() {
        let refs = map();
        // A reading that matches no position: one reader biased +15 dB.
        let mut rssi_vec: Vec<f64> = readers()
            .iter()
            .map(|r| rssi(Point2::new(1.5, 1.5), *r))
            .collect();
        rssi_vec[0] += 15.0;
        let (_, q) = Vire::default()
            .locate_scored(&refs, &TrackingReading::new(rssi_vec))
            .unwrap();
        let (_, q_clean) = Vire::default()
            .locate_scored(&refs, &reading_at(Point2::new(1.5, 1.5)))
            .unwrap();
        assert!(
            q.score < q_clean.score,
            "corrupted {:.3} must score below clean {:.3}",
            q.score,
            q_clean.score
        );
    }

    #[test]
    fn combine_is_monotone_and_bounded() {
        let base = FixQuality::combine(0.0, 0.0);
        assert_eq!(base.score, 1.0);
        let worse_res = FixQuality::combine(4.0, 0.0);
        let worse_spread = FixQuality::combine(0.0, 1.0);
        assert!((worse_res.score - 0.5).abs() < 1e-12);
        assert!((worse_spread.score - 0.5).abs() < 1e-12);
        let terrible = FixQuality::combine(40.0, 10.0);
        assert!(terrible.score > 0.0 && terrible.score < 0.1);
        // Negative inputs clamp rather than inflate the score.
        assert_eq!(FixQuality::combine(-5.0, -1.0).score, 1.0);
    }

    #[test]
    fn fallback_fix_is_scored_conservatively() {
        use crate::vire_alg::{EmptyFallback, ThresholdMode, VireConfig};
        let refs = map();
        let vire = Vire::new(VireConfig {
            threshold: ThresholdMode::Fixed(1e-9),
            fallback: EmptyFallback::Landmarc,
            ..VireConfig::default()
        });
        let (_, q) = vire
            .locate_scored(&refs, &reading_at(Point2::new(1.5, 1.5)))
            .unwrap();
        assert!(
            q.score < 0.6,
            "fallback score {:.3} should be modest",
            q.score
        );
        assert!(q.spread_m >= 1.0, "fallback spread is a full cell");
    }
}
