//! Edge weights and network distances.
//!
//! The paper defines the network distance `d(n_i, n_j)` as the minimum sum of
//! edge weights along any path, where each weight is a *positive real
//! number*. [`Weight`] wraps an `f64` and provides a total order so it can be
//! used directly as a priority in binary heaps and as a key in sorted
//! structures. Construction rejects NaN, which is what makes the total order
//! sound.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A non-negative, totally ordered weight / distance value.
///
/// `Weight` is the unit in which all edge weights, network distances, query
/// ranges and verification bounds are expressed.
#[derive(Copy, Clone, PartialEq, Default)]
pub struct Weight(f64);

impl Weight {
    /// The zero distance.
    pub const ZERO: Weight = Weight(0.0);
    /// Positive infinity; used as the "no k-th neighbor known yet" sentinel
    /// (the paper's `d(n, p_k(n)) = ∞` convention).
    pub const INFINITY: Weight = Weight(f64::INFINITY);

    /// Creates a weight from a raw value.
    ///
    /// # Panics
    /// Panics (in debug builds) if `value` is NaN or negative. Distances in
    /// the paper's model are always non-negative.
    #[inline]
    pub fn new(value: f64) -> Self {
        debug_assert!(!value.is_nan(), "weight must not be NaN");
        debug_assert!(value >= 0.0, "weight must be non-negative, got {value}");
        Weight(value)
    }

    /// Returns the raw floating point value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns `true` if this weight is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the smaller of two weights.
    #[inline]
    pub fn min(self, other: Weight) -> Weight {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two weights.
    #[inline]
    pub fn max(self, other: Weight) -> Weight {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: returns `self - other`, clamped at zero.
    ///
    /// Used when computing the offset of a point from the far endpoint of an
    /// edge, `w(n_i n_j) - pos`, where floating point rounding could
    /// otherwise produce a tiny negative value.
    #[inline]
    pub fn saturating_sub(self, other: Weight) -> Weight {
        Weight((self.0 - other.0).max(0.0))
    }

    /// Returns `true` if the two weights differ by at most `eps`.
    ///
    /// Network distances are sums of floating point edge weights computed
    /// along different paths, so exact equality is too strict for
    /// cross-checking algorithms against each other.
    #[inline]
    pub fn approx_eq(self, other: Weight, eps: f64) -> bool {
        if self.0 == other.0 {
            return true;
        }
        (self.0 - other.0).abs() <= eps * (1.0 + self.0.abs().max(other.0.abs()))
    }
}

impl Eq for Weight {}

impl PartialOrd for Weight {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }

    // The provided operators go through `partial_cmp`, i.e. build an
    // `Ordering` behind `cmp`'s NaN check, on every distance comparison of
    // every inner loop. On the non-NaN values a `Weight` holds the plain
    // `f64` operators give the same answers.
    #[inline]
    fn lt(&self, other: &Self) -> bool {
        self.0 < other.0
    }

    #[inline]
    fn le(&self, other: &Self) -> bool {
        self.0 <= other.0
    }

    #[inline]
    fn gt(&self, other: &Self) -> bool {
        self.0 > other.0
    }

    #[inline]
    fn ge(&self, other: &Self) -> bool {
        self.0 >= other.0
    }
}

impl Ord for Weight {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Weights are never NaN by construction, so partial_cmp cannot fail.
        self.0.partial_cmp(&other.0).expect("weight is never NaN")
    }
}

impl Add for Weight {
    type Output = Weight;
    #[inline]
    fn add(self, rhs: Weight) -> Weight {
        Weight(self.0 + rhs.0)
    }
}

impl AddAssign for Weight {
    #[inline]
    fn add_assign(&mut self, rhs: Weight) {
        self.0 += rhs.0;
    }
}

impl Sub for Weight {
    type Output = Weight;
    #[inline]
    fn sub(self, rhs: Weight) -> Weight {
        Weight::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Weight {
    type Output = Weight;
    #[inline]
    fn mul(self, rhs: f64) -> Weight {
        Weight::new(self.0 * rhs)
    }
}

impl Div<f64> for Weight {
    type Output = Weight;
    #[inline]
    fn div(self, rhs: f64) -> Weight {
        Weight::new(self.0 / rhs)
    }
}

impl Sum for Weight {
    fn sum<I: Iterator<Item = Weight>>(iter: I) -> Self {
        iter.fold(Weight::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Weight {
    #[inline]
    fn from(v: f64) -> Self {
        Weight::new(v)
    }
}

impl From<Weight> for f64 {
    #[inline]
    fn from(w: Weight) -> Self {
        w.0
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_on_constructed_values() {
        let a = Weight::new(1.0);
        let b = Weight::new(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(a < Weight::INFINITY);
        // The four operators are overridden; they must answer as `cmp` does.
        let values = [0.0, -0.0, f64::MIN_POSITIVE, 1.0, 2.0, f64::INFINITY].map(Weight::new);
        for x in values {
            for y in values {
                let ord = x.cmp(&y);
                assert_eq!(
                    (x < y, x <= y, x > y, x >= y),
                    (ord.is_lt(), ord.is_le(), ord.is_gt(), ord.is_ge())
                );
            }
        }
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Weight::new(1.5);
        let b = Weight::new(2.25);
        assert_eq!((a + b).value(), 3.75);
        assert_eq!((b - a).value(), 0.75);
        assert_eq!((a * 2.0).value(), 3.0);
        assert_eq!((b / 2.0).value(), 1.125);
        let s: Weight = [a, b, Weight::ZERO].into_iter().sum();
        assert_eq!(s.value(), 3.75);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = Weight::new(1.0);
        let b = Weight::new(3.0);
        assert_eq!(a.saturating_sub(b), Weight::ZERO);
        assert_eq!(b.saturating_sub(a).value(), 2.0);
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = Weight::new(100.0);
        let b = Weight::new(100.0 + 1e-12);
        assert!(a.approx_eq(b, 1e-9));
        assert!(!a.approx_eq(Weight::new(101.0), 1e-9));
        assert!(Weight::INFINITY.approx_eq(Weight::INFINITY, 1e-9));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn negative_weight_panics_in_debug() {
        let _ = Weight::new(-1.0);
    }

    #[test]
    fn conversions_round_trip() {
        let w: Weight = 4.5.into();
        let v: f64 = w.into();
        assert_eq!(v, 4.5);
    }
}
