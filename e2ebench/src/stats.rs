//! Order statistics shared by every metric the harness reports.
//!
//! * [`percentile`] — the ceil-rank (nearest-rank) percentile: the
//!   smallest sample with at least `q`% of the samples at or below it.
//!   Always a value that was actually measured, never an interpolation.
//! * [`median`] — the middle of an unsorted sample (mean of the two
//!   middle values for an even count).
//! * [`quartiles`] — `(q1, q2, q3)` by the same "exclusive" method as
//!   Python's `statistics.quantiles(values, n=4)`, so spreads computed
//!   here agree with ones computed from the emitted JSON.
//! * [`window_rates`] and [`window_percentiles`] — per-window event
//!   rates and latency percentiles over a timed run, and
//!   [`best_tenth`], which reduces them to one value per run.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
/// `q` is in percent, `0 < q <= 100`; `q = 100` is the maximum.
///
/// # Panics
/// Panics on an empty slice or `q` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(
        q > 0.0 && q <= 100.0,
        "percentile rank {q} outside (0, 100]"
    );
    // A hair below the exact product, so binary rounding of `q` (99.9 is
    // not representable) cannot push an exact rank up one slot.
    let rank = (q * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (total order, so NaN cannot poison it).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a non-empty sample, in any order.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` of a non-empty sample, in any order, by the
/// exclusive method (`statistics.quantiles(values, n=4)`). A single
/// sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let s = sorted(values.to_vec());
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = s.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The value a tenth of the way in from the best end of a non-empty
/// sample: the ceil-rank 10th percentile counted from the best value
/// (`higher_is_better` picks the direction). Of 20 per-second windows
/// this is the second best.
///
/// # Panics
/// Panics on an empty slice.
pub fn best_tenth(values: &[f64], higher_is_better: bool) -> f64 {
    let mut s = sorted(values.to_vec());
    if higher_is_better {
        s.reverse();
    }
    percentile(&s, 10.0)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are compared against. `0` for a zero median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Splits `(offset seconds, value)` samples into `windows` consecutive
/// `width`-second windows starting at offset `start`; samples outside
/// every window are dropped.
fn bin<T: Copy>(
    samples: &[(f64, T)],
    start: f64,
    width: f64,
    windows: usize,
) -> Vec<Vec<(f64, T)>> {
    let mut bins = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let k = ((t - start) / width).floor();
        if k >= 0.0 && (k as usize) < windows {
            bins[k as usize].push((t, v));
        }
    }
    bins
}

/// Percentile `q` of the values in each of `windows` consecutive
/// `width`-second windows starting at offset `start`. `samples` are
/// `(offset seconds, value)` pairs in any order; empty windows yield
/// nothing.
pub fn window_percentiles(
    samples: &[(f64, f64)],
    start: f64,
    width: f64,
    windows: usize,
    q: f64,
) -> Vec<f64> {
    bin(samples, start, width, windows)
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|b| percentile(&sorted(b.into_iter().map(|(_, v)| v).collect()), q))
        .collect()
}

/// Event rates over consecutive `width`-second windows of a timed run
/// that started at offset `start` and lasted `windows * width` seconds.
///
/// `acks` are `(offset seconds, events)` completions in any order. A
/// window's rate is the events completed after its first completion
/// divided by the time from that first to its last completion, so a
/// window is timed by measured completions rather than by its nominal
/// edges. Windows with fewer than two completions yield no rate.
pub fn window_rates(acks: &[(f64, u64)], start: f64, width: f64, windows: usize) -> Vec<f64> {
    bin(acks, start, width, windows)
        .into_iter()
        .filter(|b| b.len() >= 2)
        .map(|mut b| {
            b.sort_by(|x, y| x.0.total_cmp(&y.0));
            let span = b[b.len() - 1].0 - b[0].0;
            let events: u64 = b[1..].iter().map(|&(_, e)| e).sum();
            events as f64 / span
        })
        .filter(|r| r.is_finite())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_single_element_is_that_element_at_every_rank() {
        for q in [0.1, 50.0, 99.9, 100.0] {
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn percentile_is_nearest_rank_with_ties() {
        let s = [1.0, 2.0, 2.0, 2.0, 9.0];
        assert_eq!(percentile(&s, 20.0), 1.0);
        assert_eq!(percentile(&s, 21.0), 2.0);
        assert_eq!(percentile(&s, 80.0), 2.0);
        assert_eq!(percentile(&s, 81.0), 9.0);
    }

    #[test]
    fn percentile_100_is_the_maximum() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 100.0), 1000.0);
        assert_eq!(percentile(&s, 99.9), 999.0);
        assert_eq!(percentile(&s, 50.0), 500.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn quartiles_of_one_element_and_of_ties() {
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
        assert_eq!(quartiles(&[4.0; 6]), (4.0, 4.0, 4.0));
        assert_eq!(relative_spread(&[4.0; 6]), 0.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[9.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn window_rates_time_each_window_by_its_completions() {
        // Window 0: completions at 0.1, 0.6 (100 ev after the first in
        // 0.5 s); window 1: a lone completion yields no rate; the late
        // completion falls outside both windows.
        let acks = [(0.1, 100), (0.6, 100), (1.5, 100), (2.5, 100)];
        assert_eq!(window_rates(&acks, 0.0, 1.0, 2), vec![200.0]);
    }

    #[test]
    fn best_tenth_counts_from_the_better_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_tenth(&v, false), 2.0);
        assert_eq!(best_tenth(&v, true), 19.0);
        assert_eq!(best_tenth(&[7.0], false), 7.0);
        assert_eq!(best_tenth(&[7.0], true), 7.0);
    }

    #[test]
    fn window_percentiles_take_each_window_separately() {
        let samples = [(0.2, 1.0), (0.4, 3.0), (0.9, 2.0), (1.1, 50.0), (3.0, 9.0)];
        assert_eq!(
            window_percentiles(&samples, 0.0, 1.0, 3, 50.0),
            vec![2.0, 50.0]
        );
    }
}
