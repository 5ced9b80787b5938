//! Non-negative cost values with a total order.
//!
//! The SOF problem mixes link connection costs and VM setup costs, both
//! non-negative reals. [`Cost`] wraps `f64` while guaranteeing the value is
//! never NaN, which lets it implement [`Ord`] / [`Eq`] / [`Hash`] and be used
//! directly inside binary heaps and B-tree keys.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative, non-NaN cost.
///
/// # Examples
///
/// ```
/// use sof_graph::Cost;
///
/// let a = Cost::new(1.5);
/// let b = Cost::new(2.0);
/// assert!(a < b);
/// assert_eq!((a + b).value(), 3.5);
/// assert!(Cost::INFINITY > b);
/// ```
#[derive(Clone, Copy, Default)]
pub struct Cost(f64);

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost(0.0);
    /// An unreachable / infinite cost.
    pub const INFINITY: Cost = Cost(f64::INFINITY);

    /// Creates a new cost.
    ///
    /// Negative zero is normalized to positive zero so that equal costs hash
    /// equally.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or negative.
    #[inline]
    pub fn new(value: f64) -> Cost {
        assert!(!value.is_nan(), "cost must not be NaN");
        assert!(value >= 0.0, "cost must be non-negative, got {value}");
        Cost(value + 0.0)
    }

    /// Returns the underlying `f64`.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns `true` when the cost is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the smaller of two costs.
    #[inline]
    pub fn min(self, other: Cost) -> Cost {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two costs.
    #[inline]
    pub fn max(self, other: Cost) -> Cost {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: returns zero instead of going negative.
    #[inline]
    pub fn saturating_sub(self, other: Cost) -> Cost {
        if self.0 > other.0 {
            Cost(self.0 - other.0)
        } else {
            Cost::ZERO
        }
    }

    /// Compares two costs up to a small relative tolerance.
    ///
    /// Useful in tests where two different summation orders of the same set
    /// of link costs must compare equal.
    pub fn approx_eq(self, other: Cost) -> bool {
        if self.0 == other.0 {
            return true;
        }
        if !self.is_finite() || !other.is_finite() {
            return false;
        }
        let scale = self.0.abs().max(other.0.abs()).max(1.0);
        (self.0 - other.0).abs() <= 1e-6 * scale
    }
}

impl fmt::Debug for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cost({})", self.0)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.*}", precision, self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl PartialEq for Cost {
    #[inline]
    fn eq(&self, other: &Cost) -> bool {
        self.0 == other.0
    }
}

impl Eq for Cost {}

impl PartialOrd for Cost {
    #[inline]
    fn partial_cmp(&self, other: &Cost) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    #[inline]
    fn cmp(&self, other: &Cost) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for Cost {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl From<f64> for Cost {
    fn from(value: f64) -> Cost {
        Cost::new(value)
    }
}

impl From<u32> for Cost {
    fn from(value: u32) -> Cost {
        Cost(f64::from(value))
    }
}

impl Add for Cost {
    type Output = Cost;
    #[inline]
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    #[inline]
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Sub for Cost {
    type Output = Cost;
    /// # Panics
    ///
    /// Panics (in debug builds) if the result would be negative.
    #[inline]
    fn sub(self, rhs: Cost) -> Cost {
        let out = self.0 - rhs.0;
        debug_assert!(out >= -1e-9, "cost subtraction went negative: {out}");
        Cost(out.max(0.0))
    }
}

impl SubAssign for Cost {
    #[inline]
    fn sub_assign(&mut self, rhs: Cost) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    #[inline]
    fn mul(self, rhs: f64) -> Cost {
        Cost::new(self.0 * rhs)
    }
}

impl Div<f64> for Cost {
    type Output = Cost;
    #[inline]
    fn div(self, rhs: f64) -> Cost {
        Cost::new(self.0 / rhs)
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Cost> for Cost {
    fn sum<I: Iterator<Item = &'a Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let mut v = [Cost::new(3.0), Cost::ZERO, Cost::INFINITY, Cost::new(1.0)];
        v.sort();
        assert_eq!(v[0], Cost::ZERO);
        assert_eq!(v[1], Cost::new(1.0));
        assert_eq!(v[2], Cost::new(3.0));
        assert_eq!(v[3], Cost::INFINITY);
    }

    #[test]
    fn arithmetic() {
        let a = Cost::new(2.5);
        let b = Cost::new(1.5);
        assert_eq!(a + b, Cost::new(4.0));
        assert_eq!(a - b, Cost::new(1.0));
        assert_eq!(a * 2.0, Cost::new(5.0));
        assert_eq!(a / 2.0, Cost::new(1.25));
        assert_eq!([a, b].iter().sum::<Cost>(), Cost::new(4.0));
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Cost::new(1.0).saturating_sub(Cost::new(3.0)), Cost::ZERO);
        assert_eq!(
            Cost::new(3.0).saturating_sub(Cost::new(1.0)),
            Cost::new(2.0)
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_panics() {
        let _ = Cost::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_cost_panics() {
        let _ = Cost::new(f64::NAN);
    }

    #[test]
    fn negative_zero_normalized() {
        assert_eq!(Cost::new(-0.0), Cost::ZERO);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        Cost::new(-0.0).hash(&mut h1);
        Cost::ZERO.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = Cost::new(0.1 + 0.2);
        let b = Cost::new(0.3);
        assert!(a.approx_eq(b));
        assert!(!Cost::new(1.0).approx_eq(Cost::new(1.1)));
        assert!(Cost::INFINITY.approx_eq(Cost::INFINITY));
        assert!(!Cost::INFINITY.approx_eq(Cost::new(1.0)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Cost::new(1.25)), "1.25");
        assert_eq!(format!("{:.1}", Cost::new(1.25)), "1.2");
        assert_eq!(format!("{:?}", Cost::new(2.0)), "Cost(2)");
    }
}
