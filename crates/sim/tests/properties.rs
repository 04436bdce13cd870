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
