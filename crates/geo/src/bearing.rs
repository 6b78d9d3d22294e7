//! Headings and angular arithmetic.
//!
//! The map-based predictor resolves intersections by choosing the outgoing
//! link "with the smallest angle to the previous link" (Section 3 of the
//! paper); that comparison is [`angle_between`] on two headings.

use std::f64::consts::{PI, TAU};

/// A compass heading in radians clockwise from north, normalised to `[0, 2π)`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bearing(f64);

impl Bearing {
    /// North (0 rad).
    pub const NORTH: Bearing = Bearing(0.0);

    /// Creates a bearing, normalising the angle into `[0, 2π)`.
    #[inline]
    pub fn new(radians: f64) -> Self {
        Bearing(normalize_angle(radians))
    }

    /// Creates a bearing from degrees clockwise from north.
    #[inline]
    pub fn from_degrees(degrees: f64) -> Self {
        Bearing::new(degrees.to_radians())
    }

    /// The bearing in radians, in `[0, 2π)`.
    #[inline]
    pub fn radians(&self) -> f64 {
        self.0
    }

    /// The bearing in degrees, in `[0, 360)`.
    #[inline]
    pub fn degrees(&self) -> f64 {
        self.0.to_degrees()
    }

    /// Absolute angular difference to `other`, in `[0, π]`.
    #[inline]
    pub fn difference(&self, other: &Bearing) -> f64 {
        angle_between(self.0, other.0)
    }

    /// The bearing rotated by `delta` radians (positive = clockwise).
    #[inline]
    pub fn rotated(&self, delta: f64) -> Bearing {
        Bearing::new(self.0 + delta)
    }

    /// The opposite direction.
    #[inline]
    pub fn reversed(&self) -> Bearing {
        self.rotated(PI)
    }
}

impl From<f64> for Bearing {
    fn from(radians: f64) -> Self {
        Bearing::new(radians)
    }
}

/// Normalises any angle in radians into `[0, 2π)`.
#[inline]
pub fn normalize_angle(radians: f64) -> f64 {
    let r = radians.rem_euclid(TAU);
    // `rem_euclid` can return TAU for inputs just below zero due to rounding.
    if r >= TAU {
        0.0
    } else {
        r
    }
}

/// Smallest absolute difference between two angles (radians), in `[0, π]`.
#[inline]
pub fn angle_between(a: f64, b: f64) -> f64 {
    let diff = (normalize_angle(a) - normalize_angle(b)).abs();
    if diff > PI {
        TAU - diff
    } else {
        diff
    }
}

/// Signed smallest rotation that takes heading `from` to heading `to`,
/// in `(-π, π]`; positive means clockwise.
#[inline]
pub fn signed_angle_between(from: f64, to: f64) -> f64 {
    let mut diff = normalize_angle(to) - normalize_angle(from);
    if diff > PI {
        diff -= TAU;
    } else if diff <= -PI {
        diff += TAU;
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn normalisation_wraps_into_range() {
        assert!(approx_eq(normalize_angle(TAU + 0.5), 0.5));
        assert!(approx_eq(normalize_angle(-FRAC_PI_2), 1.5 * PI));
        assert!(approx_eq(normalize_angle(0.0), 0.0));
        let r = normalize_angle(-1e-16);
        assert!((0.0..TAU).contains(&r));
    }

    #[test]
    fn angle_between_takes_the_short_way_round() {
        assert!(approx_eq(angle_between(0.1, TAU - 0.1), 0.2));
        assert!(approx_eq(angle_between(0.0, PI), PI));
        assert!(approx_eq(angle_between(FRAC_PI_2, FRAC_PI_2), 0.0));
    }

    #[test]
    fn signed_angle_has_correct_sign() {
        assert!(signed_angle_between(0.0, 0.3) > 0.0);
        assert!(signed_angle_between(0.3, 0.0) < 0.0);
        // Crossing the north wrap-around.
        assert!(approx_eq(signed_angle_between(TAU - 0.1, 0.1), 0.2));
        assert!(approx_eq(signed_angle_between(0.1, TAU - 0.1), -0.2));
    }

    #[test]
    fn bearing_conversions() {
        let b = Bearing::from_degrees(90.0);
        assert!(approx_eq(b.radians(), FRAC_PI_2));
        assert!(approx_eq(b.degrees(), 90.0));
        assert!(approx_eq(Bearing::from_degrees(450.0).degrees(), 90.0));
    }

    #[test]
    fn bearing_difference_and_rotation() {
        let east = Bearing::from_degrees(90.0);
        let north = Bearing::NORTH;
        assert!(approx_eq(east.difference(&north), FRAC_PI_2));
        assert!(approx_eq(north.rotated(FRAC_PI_2).degrees(), 90.0));
        assert!(approx_eq(east.reversed().degrees(), 270.0));
    }
}
