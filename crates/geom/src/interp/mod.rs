//! Interpolation kernels.
//!
//! VIRE synthesizes the RSSI of virtual reference tags from the measured
//! RSSI of the real reference lattice. The paper uses **linear**
//! interpolation along grid rows and columns (§4.2) and explicitly names
//! polynomial and other nonlinear schemes as future work (§6). This module
//! provides them all behind a common 1D interface so the virtual-grid
//! builder in `vire-core` can swap kernels:
//!
//! * [`linear`] — the paper's scheme, including the exact §4.2 formulas,
//! * [`bilinear`] — the 2D composition of two linear passes,
//! * [`newton`] — Newton divided-difference polynomial interpolation,
//! * [`lagrange`] — Lagrange-form polynomial interpolation (same polynomial,
//!   different evaluation; kept for cross-checking),
//! * [`spline`] — natural cubic splines (the well-behaved nonlinear option),
//! * [`idw`] — inverse-distance weighting, a scattered-data fallback for
//!   non-rectangular deployments (paper §6, "the requirement of having a
//!   square real grid is not necessary").

pub mod bilinear;
pub mod idw;
pub mod lagrange;
pub mod linear;
pub mod newton;
pub mod spline;

/// A 1D interpolation kernel over samples at strictly increasing knots.
///
/// Implementations must reproduce the sample values exactly at the knots
/// (interpolation, not regression).
pub trait Interpolator1D {
    /// Builds the interpolant from `(x, y)` samples.
    ///
    /// Returns `None` when the samples are unusable (fewer than the kernel's
    /// minimum, non-increasing knots, or non-finite values).
    fn fit(xs: &[f64], ys: &[f64]) -> Option<Self>
    where
        Self: Sized;

    /// Evaluates the interpolant at `x`.
    fn eval(&self, x: f64) -> f64;
}

/// Validates that `xs` is strictly increasing, matches `ys` in length, has at
/// least `min_len` entries, and all values are finite.
pub(crate) fn validate_samples(xs: &[f64], ys: &[f64], min_len: usize) -> bool {
    if xs.len() != ys.len() || xs.len() < min_len {
        return false;
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return false;
    }
    xs.windows(2).all(|w| w[1] > w[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_input() {
        assert!(validate_samples(&[0.0, 1.0], &[5.0, 6.0], 2));
        assert!(!validate_samples(&[0.0, 1.0], &[5.0], 2));
        assert!(!validate_samples(&[0.0], &[5.0], 2));
        assert!(!validate_samples(&[1.0, 0.0], &[5.0, 6.0], 2)); // decreasing
        assert!(!validate_samples(&[0.0, 0.0], &[5.0, 6.0], 2)); // duplicate
        assert!(!validate_samples(&[0.0, f64::NAN], &[5.0, 6.0], 2));
        assert!(!validate_samples(&[0.0, 1.0], &[5.0, f64::INFINITY], 2));
    }
}
