//! Middleware RSSI smoothing filters.
//!
//! Raw beacon readings carry per-measurement noise and the occasional
//! human-movement spike (paper §4.1: "such a factor should be avoided or
//! filtered out when designing the location sensing system"). The
//! middleware smooths each (tag, reader) stream with one of these filters
//! before the localization algorithms see it. The middleware validates its
//! [`SmoothingKind`] once, at construction ([`SmoothingKind::check`]), and
//! keeps each stream's state in its tag-table row: the readings held, the
//! smoothed value and the window. `SmoothingKind::feed` computes the
//! value once per reading; every later read is the stored value.

/// Which filter the middleware applies per (tag, reader) stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SmoothingKind {
    /// No smoothing: the last raw reading wins.
    Raw,
    /// Arithmetic mean over a sliding window of `n` readings.
    MovingAverage(usize),
    /// Exponentially weighted moving average with weight `alpha` on the
    /// newest reading (`0 < alpha <= 1`).
    Ewma(f64),
    /// Median over a sliding window of `n` readings — robust to spikes.
    Median(usize),
}

impl vire_geom::Fingerprint for SmoothingKind {
    /// Stable tag byte plus the filter parameter (variants must append,
    /// never reorder, to keep on-disk fixture keys valid).
    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        match self {
            SmoothingKind::Raw => h.write_u8(0),
            SmoothingKind::MovingAverage(n) => {
                h.write_u8(1);
                n.fingerprint(h);
            }
            SmoothingKind::Ewma(alpha) => {
                h.write_u8(2);
                alpha.fingerprint(h);
            }
            SmoothingKind::Median(n) => {
                h.write_u8(3);
                n.fingerprint(h);
            }
        }
    }
}

impl Default for SmoothingKind {
    /// Median over 5 readings: robust and low-latency at a 2 s beacon
    /// interval (10 s to fill the window).
    fn default() -> Self {
        SmoothingKind::Median(5)
    }
}

/// Why a [`SmoothingKind`] carries parameters no filter can run with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SmoothingError {
    /// A sliding-window filter was configured with a zero-length window.
    ZeroWindow,
    /// EWMA weight outside `(0, 1]` (carries the offending alpha).
    InvalidAlpha(f64),
}

impl std::fmt::Display for SmoothingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmoothingError::ZeroWindow => write!(f, "window must be positive"),
            SmoothingError::InvalidAlpha(alpha) => {
                write!(f, "alpha must be within (0, 1], got {alpha}")
            }
        }
    }
}

impl std::error::Error for SmoothingError {}

impl SmoothingKind {
    /// Rejects parameters no stream can run with: a zero window, or an
    /// EWMA alpha outside `(0, 1]`.
    pub fn check(self) -> Result<(), SmoothingError> {
        match self {
            SmoothingKind::MovingAverage(0) | SmoothingKind::Median(0) => {
                Err(SmoothingError::ZeroWindow)
            }
            SmoothingKind::Ewma(alpha) if !(alpha > 0.0 && alpha <= 1.0) => {
                Err(SmoothingError::InvalidAlpha(alpha))
            }
            _ => Ok(()),
        }
    }

    /// Readings a stream's window holds: Raw and EWMA keep the newest.
    pub(crate) fn window(self) -> usize {
        match self {
            SmoothingKind::MovingAverage(n) | SmoothingKind::Median(n) => n,
            SmoothingKind::Raw | SmoothingKind::Ewma(_) => 1,
        }
    }

    /// Feeds raw reading `x` into one stream: `stream` holds the number of
    /// readings in its window (0 before the first) and its smoothed value,
    /// `window` its newest [`SmoothingKind::window`] readings, oldest
    /// first. `sorted` is the median's scratch. Returns whether the value's
    /// bits changed (the first reading always does).
    pub(crate) fn feed(
        self,
        stream: &mut (usize, f64),
        window: &mut [f64],
        x: f64,
        sorted: &mut Vec<f64>,
    ) -> bool {
        let (held, value) = stream;
        let first = *held == 0;
        // A full window drops its oldest reading.
        if *held == window.len() {
            window.copy_within(1.., 0);
        } else {
            *held += 1;
        }
        window[*held - 1] = x;
        let window = &window[..*held];
        let new = match self {
            SmoothingKind::Raw => x,
            SmoothingKind::Ewma(alpha) if !first => alpha * x + (1.0 - alpha) * *value,
            SmoothingKind::Ewma(_) => x,
            SmoothingKind::MovingAverage(_) => window.iter().sum::<f64>() / *held as f64,
            SmoothingKind::Median(_) => median(window, sorted),
        };
        let changed = first || value.to_bits() != new.to_bits();
        *value = new;
        changed
    }
}

/// Median of a non-empty window, sorted in `sorted` (cleared first). The
/// stable sort keeps arrival order among equal readings, and adding `0.0`
/// maps −0.0 to +0.0, so the order agrees with `partial_cmp` on every
/// finite value (±0.0 ties included) while staying total: a NaN sorts
/// instead of panicking.
fn median(window: &[f64], sorted: &mut Vec<f64>) -> f64 {
    sorted.clear();
    sorted.extend_from_slice(window);
    sorted.sort_by(|a, b| (a + 0.0).total_cmp(&(b + 0.0)));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Middleware, ReaderId, Reading, TagId};

    /// One stream of a one-tag middleware.
    struct Stream(Middleware);

    impl Stream {
        fn new(kind: SmoothingKind) -> Self {
            Stream(Middleware::new(kind, false))
        }

        fn update(&mut self, rssi: f64) -> bool {
            let (tag, reader) = (TagId::first(0), ReaderId(0));
            let time = 0.0;
            self.0
                .ingest(Reading {
                    time,
                    tag,
                    reader,
                    rssi,
                })
                .is_some()
        }

        fn value(&self) -> Option<f64> {
            self.0.rssi(TagId::first(0), ReaderId(0))
        }

        fn fill(&self) -> usize {
            self.0.fill(TagId::first(0), ReaderId(0))
        }
    }

    #[test]
    fn raw_tracks_last_value() {
        let mut f = Stream::new(SmoothingKind::Raw);
        assert_eq!(f.value(), None);
        f.update(-70.0);
        f.update(-75.0);
        assert_eq!(f.value(), Some(-75.0));
        assert_eq!(f.fill(), 1);
    }

    #[test]
    fn moving_average_averages_the_window() {
        let mut f = Stream::new(SmoothingKind::MovingAverage(3));
        for x in [-70.0, -72.0, -74.0] {
            f.update(x);
        }
        assert_eq!(f.value(), Some(-72.0));
        // Window slides: oldest (-70) drops.
        f.update(-76.0);
        assert_eq!(f.value(), Some(-74.0));
        assert_eq!(f.fill(), 3);
    }

    #[test]
    fn ewma_converges_geometrically() {
        let mut f = Stream::new(SmoothingKind::Ewma(0.5));
        f.update(-80.0);
        assert_eq!(f.value(), Some(-80.0)); // primes with first value
        f.update(-70.0);
        assert_eq!(f.value(), Some(-75.0));
        f.update(-70.0);
        assert_eq!(f.value(), Some(-72.5));
    }

    #[test]
    fn median_rejects_single_spike() {
        let mut f = Stream::new(SmoothingKind::Median(5));
        for x in [-70.0, -70.5, -99.0 /* spike */, -70.2, -69.8] {
            f.update(x);
        }
        let v = f.value().unwrap();
        assert!(
            (-71.0..=-69.0).contains(&v),
            "median {v} should ignore the spike"
        );
    }

    #[test]
    fn mean_is_dragged_by_spike_median_is_not() {
        let feed = [-70.0, -70.0, -95.0, -70.0, -70.0];
        let mut mean = Stream::new(SmoothingKind::MovingAverage(5));
        let mut med = Stream::new(SmoothingKind::Median(5));
        for x in feed {
            mean.update(x);
            med.update(x);
        }
        assert_eq!(med.value(), Some(-70.0));
        assert!(mean.value().unwrap() < -74.0);
    }

    #[test]
    fn median_of_even_window_interpolates() {
        let mut f = Stream::new(SmoothingKind::Median(4));
        for x in [-70.0, -72.0, -74.0, -76.0] {
            f.update(x);
        }
        assert_eq!(f.value(), Some(-73.0));
    }

    #[test]
    fn empty_filters_have_no_value() {
        for kind in [
            SmoothingKind::Raw,
            SmoothingKind::MovingAverage(3),
            SmoothingKind::Ewma(0.3),
            SmoothingKind::Median(3),
        ] {
            assert_eq!(Stream::new(kind).value(), None);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        Middleware::new(SmoothingKind::Ewma(1.5), false);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        Middleware::new(SmoothingKind::Median(0), false);
    }

    #[test]
    fn check_reports_invalid_parameters_as_values() {
        assert_eq!(
            SmoothingKind::MovingAverage(0).check().unwrap_err(),
            SmoothingError::ZeroWindow
        );
        assert_eq!(
            SmoothingKind::Median(0).check().unwrap_err(),
            SmoothingError::ZeroWindow
        );
        assert_eq!(
            SmoothingKind::Ewma(0.0).check().unwrap_err(),
            SmoothingError::InvalidAlpha(0.0)
        );
        assert_eq!(
            SmoothingKind::Ewma(1.5).check().unwrap_err(),
            SmoothingError::InvalidAlpha(1.5)
        );
        assert!(SmoothingKind::Ewma(f64::NAN).check().is_err());
        // Valid parameters pass.
        assert!(SmoothingKind::Raw.check().is_ok());
        assert!(SmoothingKind::MovingAverage(1).check().is_ok());
        assert!(SmoothingKind::Ewma(1.0).check().is_ok());
        // Error messages match what `Middleware::new` panics with.
        assert_eq!(
            SmoothingError::ZeroWindow.to_string(),
            "window must be positive"
        );
        assert!(SmoothingError::InvalidAlpha(2.0).to_string().contains("2"));
    }

    #[test]
    fn window_of_one_tracks_last_value_like_raw() {
        for kind in [SmoothingKind::MovingAverage(1), SmoothingKind::Median(1)] {
            let mut f = Stream::new(kind);
            let mut raw = Stream::new(SmoothingKind::Raw);
            for x in [-70.0, -90.5, -61.25] {
                f.update(x);
                raw.update(x);
                assert_eq!(f.value(), raw.value(), "{kind:?} window 1 == Raw");
                assert_eq!(f.fill(), 1);
            }
        }
    }

    #[test]
    fn exactly_full_window_then_one_more_slides() {
        let mut f = Stream::new(SmoothingKind::MovingAverage(3));
        // One short of full: averages what's there.
        f.update(-70.0);
        f.update(-74.0);
        assert_eq!(f.fill(), 2);
        assert_eq!(f.value(), Some(-72.0));
        // Exactly full.
        f.update(-78.0);
        assert_eq!(f.fill(), 3);
        assert_eq!(f.value(), Some(-74.0));
        // One past full: the window slides, fill stays at capacity.
        f.update(-82.0);
        assert_eq!(f.fill(), 3);
        assert_eq!(f.value(), Some(-78.0));
    }

    #[test]
    fn ewma_alpha_one_equals_raw() {
        let mut ewma = Stream::new(SmoothingKind::Ewma(1.0));
        let mut raw = Stream::new(SmoothingKind::Raw);
        for x in [-70.0, -95.0, -62.5, -80.0] {
            ewma.update(x);
            raw.update(x);
            assert_eq!(ewma.value(), raw.value(), "alpha = 1 keeps no history");
        }
    }
}
