//! Complex-valued IQ samples.
//!
//! Every waveform in this workspace is a sequence of [`Complex`] baseband
//! samples (in-phase on the real axis, quadrature on the imaginary axis).
//! The type is a deliberate minimal re-implementation: the paper's maths
//! (FFT, cumulants, QAM quantization) only needs field arithmetic, conjugation
//! and polar conversions, and keeping it local avoids an external num crate.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number backed by two `f64` values.
///
/// # Examples
///
/// ```
/// use ctc_dsp::Complex;
///
/// let a = Complex::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!(a * Complex::I, Complex::new(-4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real (in-phase) part.
    pub re: f64,
    /// Imaginary (quadrature) part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * e^{i theta}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctc_dsp::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z - Complex::new(0.0, 2.0)).norm() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{i theta}`, a unit phasor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|^2` (cheaper than [`Complex::norm`]).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in `[-pi, pi]`: `f64::atan2(im, re)`, so the
    /// negative real axis reads `pi` or `-pi` by the sign of a zero
    /// imaginary part.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctc_dsp::Complex;
    /// use std::f64::consts::PI;
    /// assert_eq!(Complex::new(-1.0, 0.0).arg(), PI);
    /// assert_eq!(Complex::new(-1.0, -0.0).arg(), -PI);
    /// ```
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns a non-finite value when `self` is zero, mirroring `f64`
    /// division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// True when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl From<(f64, f64)> for Complex {
    fn from((re, im): (f64, f64)) -> Self {
        Complex::new(re, im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division as multiply-by-inverse
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl DivAssign<f64> for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex> for Complex {
    fn sum<I: Iterator<Item = &'a Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).norm() < 1e-12
    }

    #[test]
    fn constructors() {
        assert_eq!(Complex::new(1.0, 2.0).re, 1.0);
        assert_eq!(Complex::from_re(3.0), Complex::new(3.0, 0.0));
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
        assert_eq!(Complex::from((1.0, -1.0)), Complex::new(1.0, -1.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::new(-3.0, 4.0);
        let back = Complex::from_polar(z.norm(), z.arg());
        assert!(close(z, back));
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.5, -2.25);
        assert!(close(a + Complex::ZERO, a));
        assert!(close(a * Complex::ONE, a));
        assert!(close(a - a, Complex::ZERO));
        assert!(close(a * a.inv(), Complex::ONE));
        assert!(close(-a + a, Complex::ZERO));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(-1.0, 4.0);
        // (2+3i)(-1+4i) = -2 + 8i - 3i + 12 i^2 = -14 + 5i
        assert!(close(a * b, Complex::new(-14.0, 5.0)));
    }

    #[test]
    fn division() {
        let a = Complex::new(4.0, 2.0);
        let b = Complex::new(1.0, -1.0);
        assert!(close(a / b * b, a));
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex::new(3.0, -4.0);
        assert_eq!(a.conj(), Complex::new(3.0, 4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert!(close(a * a.conj(), Complex::from_re(25.0)));
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let th = k as f64 * 0.41;
            assert!((Complex::cis(th).norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn scalar_ops() {
        let a = Complex::new(1.0, 2.0);
        assert!(close(a * 2.0, Complex::new(2.0, 4.0)));
        assert!(close(2.0 * a, Complex::new(2.0, 4.0)));
        assert!(close(a / 2.0, Complex::new(0.5, 1.0)));
    }

    #[test]
    fn assign_ops() {
        let mut a = Complex::new(1.0, 1.0);
        a += Complex::ONE;
        assert!(close(a, Complex::new(2.0, 1.0)));
        a -= Complex::I;
        assert!(close(a, Complex::new(2.0, 0.0)));
        a *= Complex::I;
        assert!(close(a, Complex::new(0.0, 2.0)));
        a *= 0.5;
        assert!(close(a, Complex::new(0.0, 1.0)));
        a /= 2.0;
        assert!(close(a, Complex::new(0.0, 0.5)));
    }

    #[test]
    fn sum_iterators() {
        let v = [Complex::ONE, Complex::I, Complex::new(1.0, 1.0)];
        let owned: Complex = v.iter().copied().sum();
        let byref: Complex = v.iter().sum();
        assert!(close(owned, Complex::new(2.0, 2.0)));
        assert!(close(byref, owned));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn finite_check() {
        assert!(Complex::new(1.0, 2.0).is_finite());
        assert!(!Complex::new(f64::NAN, 0.0).is_finite());
        assert!(!Complex::new(0.0, f64::INFINITY).is_finite());
    }
}
