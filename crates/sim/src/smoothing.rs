//! Middleware RSSI smoothing filters.
//!
//! Raw beacon readings carry per-measurement noise and the occasional
//! human-movement spike (paper §4.1: "such a factor should be avoided or
//! filtered out when designing the location sensing system"). The
//! middleware smooths each (tag, reader) stream with one of these filters
//! before the localization algorithms see it. A [`Filter`] computes its
//! smoothed value once per reading, in [`Filter::update`], and keeps it:
//! [`Filter::value`] only reads the stored value.

use std::collections::VecDeque;

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
    /// Instantiates the filter state, rejecting invalid parameters (zero
    /// window, alpha outside `(0, 1]`) instead of panicking.
    pub fn try_build(self) -> Result<Filter, SmoothingError> {
        let window = match self {
            SmoothingKind::MovingAverage(0) | SmoothingKind::Median(0) => {
                return Err(SmoothingError::ZeroWindow)
            }
            SmoothingKind::Ewma(alpha) if !(alpha > 0.0 && alpha <= 1.0) => {
                return Err(SmoothingError::InvalidAlpha(alpha))
            }
            SmoothingKind::MovingAverage(n) | SmoothingKind::Median(n) => n,
            SmoothingKind::Raw | SmoothingKind::Ewma(_) => 0,
        };
        Ok(Filter {
            kind: self,
            window: VecDeque::with_capacity(window),
            sorted: Vec::new(),
            value: None,
        })
    }

    /// Instantiates the filter state.
    ///
    /// # Panics
    /// Panics on invalid parameters (zero window, alpha outside `(0, 1]`);
    /// use [`SmoothingKind::try_build`] to handle them as values.
    pub fn build(self) -> Filter {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Filter state for one (tag, reader) stream: its [`SmoothingKind`], the
/// sliding window (moving average and median only), the median's sort
/// scratch and the smoothed value, computed once per reading.
#[derive(Debug, Clone)]
pub struct Filter {
    kind: SmoothingKind,
    window: VecDeque<f64>,
    /// The median's copy of the window, cleared and refilled on each
    /// reading: it grows to the window length once, so a median allocates
    /// nothing per reading after that.
    sorted: Vec<f64>,
    value: Option<f64>,
}

impl Filter {
    /// Feeds one raw reading and recomputes the smoothed value. Returns
    /// whether the value's bits changed (the first reading always does).
    pub fn update(&mut self, x: f64) -> bool {
        if let SmoothingKind::MovingAverage(n) | SmoothingKind::Median(n) = self.kind {
            if self.window.len() == n {
                self.window.pop_front();
            }
            self.window.push_back(x);
        }
        let value = match self.kind {
            SmoothingKind::Raw => x,
            SmoothingKind::Ewma(alpha) => self.value.map_or(x, |s| alpha * x + (1.0 - alpha) * s),
            SmoothingKind::MovingAverage(_) => {
                self.window.iter().sum::<f64>() / self.window.len() as f64
            }
            SmoothingKind::Median(_) => median(&self.window, &mut self.sorted),
        };
        let changed = self.value.map(f64::to_bits) != Some(value.to_bits());
        self.value = Some(value);
        changed
    }

    /// Current smoothed value, or `None` before the first reading.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Number of readings consumed so far that still influence the value
    /// (window length; 1 for Raw/EWMA once primed).
    pub fn fill(&self) -> usize {
        match self.kind {
            SmoothingKind::MovingAverage(_) | SmoothingKind::Median(_) => self.window.len(),
            SmoothingKind::Raw | SmoothingKind::Ewma(_) => usize::from(self.value.is_some()),
        }
    }
}

/// Median of a non-empty window, sorted in `sorted` (cleared first). The
/// stable sort keeps arrival order among equal readings, and adding `0.0`
/// maps −0.0 to +0.0, so the order agrees with `partial_cmp` on every
/// finite value (±0.0 ties included) while staying total: a NaN sorts
/// instead of panicking.
fn median(window: &VecDeque<f64>, sorted: &mut Vec<f64>) -> f64 {
    sorted.clear();
    sorted.extend(window.iter().copied());
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

    #[test]
    fn raw_tracks_last_value() {
        let mut f = SmoothingKind::Raw.build();
        assert_eq!(f.value(), None);
        f.update(-70.0);
        f.update(-75.0);
        assert_eq!(f.value(), Some(-75.0));
        assert_eq!(f.fill(), 1);
    }

    #[test]
    fn moving_average_averages_the_window() {
        let mut f = SmoothingKind::MovingAverage(3).build();
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
        let mut f = SmoothingKind::Ewma(0.5).build();
        f.update(-80.0);
        assert_eq!(f.value(), Some(-80.0)); // primes with first value
        f.update(-70.0);
        assert_eq!(f.value(), Some(-75.0));
        f.update(-70.0);
        assert_eq!(f.value(), Some(-72.5));
    }

    #[test]
    fn median_rejects_single_spike() {
        let mut f = SmoothingKind::Median(5).build();
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
        let mut mean = SmoothingKind::MovingAverage(5).build();
        let mut med = SmoothingKind::Median(5).build();
        for x in feed {
            mean.update(x);
            med.update(x);
        }
        assert_eq!(med.value(), Some(-70.0));
        assert!(mean.value().unwrap() < -74.0);
    }

    #[test]
    fn median_of_even_window_interpolates() {
        let mut f = SmoothingKind::Median(4).build();
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
            assert_eq!(kind.build().value(), None);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        SmoothingKind::Ewma(1.5).build();
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        SmoothingKind::Median(0).build();
    }

    #[test]
    fn try_build_reports_invalid_parameters_as_values() {
        assert_eq!(
            SmoothingKind::MovingAverage(0).try_build().unwrap_err(),
            SmoothingError::ZeroWindow
        );
        assert_eq!(
            SmoothingKind::Median(0).try_build().unwrap_err(),
            SmoothingError::ZeroWindow
        );
        assert_eq!(
            SmoothingKind::Ewma(0.0).try_build().unwrap_err(),
            SmoothingError::InvalidAlpha(0.0)
        );
        assert_eq!(
            SmoothingKind::Ewma(1.5).try_build().unwrap_err(),
            SmoothingError::InvalidAlpha(1.5)
        );
        assert!(SmoothingKind::Ewma(f64::NAN).try_build().is_err());
        // Valid parameters still build.
        assert!(SmoothingKind::Raw.try_build().is_ok());
        assert!(SmoothingKind::MovingAverage(1).try_build().is_ok());
        assert!(SmoothingKind::Ewma(1.0).try_build().is_ok());
        // Error messages match what `build` panics with.
        assert_eq!(
            SmoothingError::ZeroWindow.to_string(),
            "window must be positive"
        );
        assert!(SmoothingError::InvalidAlpha(2.0).to_string().contains("2"));
    }

    #[test]
    fn window_of_one_tracks_last_value_like_raw() {
        for kind in [SmoothingKind::MovingAverage(1), SmoothingKind::Median(1)] {
            let mut f = kind.build();
            let mut raw = SmoothingKind::Raw.build();
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
        let mut f = SmoothingKind::MovingAverage(3).build();
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
        let mut ewma = SmoothingKind::Ewma(1.0).build();
        let mut raw = SmoothingKind::Raw.build();
        for x in [-70.0, -95.0, -62.5, -80.0] {
            ewma.update(x);
            raw.update(x);
            assert_eq!(ewma.value(), raw.value(), "alpha = 1 keeps no history");
        }
    }
}
