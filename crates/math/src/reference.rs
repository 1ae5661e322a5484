//! The sanctioned gateway to the host libm.
//!
//! Cold paths (controller gain schedules, policy utility curves, the
//! Gaussian tail in `cpm-rng`) and the accuracy baselines still want the
//! host's transcendentals — they either never touch a golden trajectory
//! or exist precisely to *measure* the deterministic kernels against
//! libm. Routing them through this module keeps the `math-scope` lint
//! rule simple: a bare `.sin()`/`.exp()`/`.ln()`/`.powf()` in a library
//! crate is always a violation, and the handful of legitimate libm uses
//! are greppable as `reference::` calls. The libm oracles that the
//! kernel-vs-libm trajectory tests diff against live in those tests'
//! `#[cfg(test)]` modules, which the rule exempts.
//!
//! Nothing here is deterministic across platforms. Do not let a value
//! produced by this module reach a golden digest.

/// Host-libm `sin`. Cold paths and accuracy baselines only.
#[inline]
pub fn sin(x: f64) -> f64 {
    x.sin()
}

/// Host-libm `cos`. Cold paths and accuracy baselines only.
#[inline]
pub fn cos(x: f64) -> f64 {
    x.cos()
}

/// Host-libm `exp`. Cold paths and accuracy baselines only.
#[inline]
pub fn exp(x: f64) -> f64 {
    x.exp()
}

/// Host-libm `ln`. Cold paths and accuracy baselines only.
#[inline]
pub fn ln(x: f64) -> f64 {
    x.ln()
}

/// Host-libm `log10`. Cold paths and accuracy baselines only.
#[inline]
pub fn log10(x: f64) -> f64 {
    x.log10()
}

/// Host-libm `powf`. Cold paths and accuracy baselines only.
#[inline]
pub fn powf(x: f64, y: f64) -> f64 {
    x.powf(y)
}
