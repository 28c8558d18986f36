//! GF(2⁸) finite-field arithmetic for random linear network coding.
//!
//! MORE codes packets over the finite field of size 2⁸ (thesis §4.6a). Every
//! byte of a packet is a field element; coding multiplies packets by random
//! coefficients and adds them, so the two hot operations are
//! *multiply-a-slice-by-a-scalar* and *multiply-accumulate-a-slice*.
//!
//! The thesis optimizes multiplication with "a 64KiB lookup-table indexed by
//! pairs of 8 bits" so that "multiplying any byte of a packet with a random
//! number is simply a fast lookup". [`tables::MUL`] is exactly that table,
//! computed at compile time; [`slice_ops`] provides the cache-friendly
//! row-at-a-time kernels built on it.
//!
//! Two kernel families implement the slice operations: [`scalar`] walks the
//! 64 KiB table one byte at a time (the paper's formulation, kept as the
//! reference the tests compare against), and [`wide`] is one fused
//! `dst ← s·dst ⊕ Σ cⱼ·srcⱼ` per SIMD tier — GFNI + AVX-512 (`vgf2p8mulb`,
//! 64-byte lanes), AVX2 (two `vpshufb` over the 16-entry nibble half-tables
//! [`tables::MUL_LO`] / [`tables::MUL_HI`], 32-byte lanes) or a portable
//! table walk, picked by the CPU at runtime. [`slice_ops`] re-exports the
//! wide kernels, among them the multi-source [`slice_ops::axpy_many`] pass
//! that the coding hot path batches through.
//!
//! The field is GF(2⁸) with the AES reduction polynomial
//! x⁸ + x⁴ + x³ + x + 1 (0x11B). Addition is XOR; subtraction equals
//! addition; every non-zero element has a multiplicative inverse.
//!
//! # Example
//!
//! ```
//! use more_gf256::Gf256;
//!
//! let a = Gf256(0x57);
//! let b = Gf256(0x83);
//! assert_eq!(a * b, Gf256(0xC1)); // the classic AES example
//! assert_eq!((a * b) / b, a);
//! assert_eq!(a + a, Gf256::ZERO); // characteristic 2
//! ```

#![deny(missing_docs)]
// Panic freedom and seeding discipline for the shipped (non-test) build;
// each sanctioned site carries `#[expect(clippy::…, reason = "…")]`.
#![cfg_attr(
    not(test),
    warn(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods
    )
)]

pub mod scalar;
pub mod slice_ops;
pub mod tables;
pub mod wide;

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of GF(2⁸).
///
/// A thin newtype over `u8`; all arithmetic is table-driven and constant
/// time with respect to the operand values.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Gf256(pub u8);

#[expect(
    clippy::indexing_slicing,
    reason = "log/exp table lookups are indexed by u8 values bounded 0..=255 by the field construction"
)]
impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// A generator of the multiplicative group (0x03 generates for 0x11B).
    pub const GENERATOR: Gf256 = Gf256(3);

    /// Number of elements in the field.
    pub const ORDER: usize = 256;

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Field multiplication via the 64 KiB lookup table.
    #[inline]
    pub const fn mul(self, rhs: Gf256) -> Gf256 {
        Gf256(tables::MUL[self.0 as usize][rhs.0 as usize])
    }

    /// Field addition (XOR).
    #[inline]
    pub const fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero, which has no inverse.
    #[inline]
    pub fn inv(self) -> Gf256 {
        assert!(self.0 != 0, "attempt to invert 0 in GF(2^8)");
        Gf256(tables::INV[self.0 as usize])
    }

    /// The multiplicative inverse, or `None` for zero.
    #[inline]
    pub fn checked_inv(self) -> Option<Gf256> {
        if self.0 == 0 {
            None
        } else {
            Some(Gf256(tables::INV[self.0 as usize]))
        }
    }

    /// Raises `self` to the power `exp` (with `0^0 == 1`).
    pub fn pow(self, mut exp: u32) -> Gf256 {
        let mut base = self;
        let mut acc = Gf256::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            exp >>= 1;
        }
        acc
    }

    /// Discrete logarithm base [`Self::GENERATOR`], or `None` for zero.
    #[inline]
    pub fn log(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(tables::LOG[self.0 as usize])
        }
    }

    /// `GENERATOR^e`.
    #[inline]
    pub fn exp(e: u8) -> Gf256 {
        Gf256(tables::EXP[e as usize])
    }

    /// Iterator over all 256 field elements in numeric order.
    pub fn all() -> impl Iterator<Item = Gf256> {
        (0u16..256).map(|v| Gf256(v as u8))
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02X})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02X}", self.0)
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(v: Gf256) -> Self {
        v.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    #[expect(clippy::suspicious_arithmetic_impl, reason = "XOR is GF(2^8) addition")]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[inline]
    #[expect(clippy::suspicious_op_assign_impl, reason = "XOR is GF(2^8) addition")]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    #[expect(clippy::suspicious_arithmetic_impl, reason = "XOR is GF(2^8) addition")]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction is addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[inline]
    #[expect(clippy::suspicious_op_assign_impl, reason = "XOR is GF(2^8) addition")]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        Gf256::mul(self, rhs)
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = Gf256::mul(*self, rhs);
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        Gf256::mul(self, rhs.inv())
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |a, b| a + b)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod test {
    use super::*;

    /// Bit-by-bit ("Russian peasant") reference multiplication, independent
    /// of the lookup tables.
    fn slow_mul(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 == 1 {
                acc ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= 0x1B; // x^8 == x^4 + x^3 + x + 1 (mod 0x11B)
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn mul_matches_reference_everywhere() {
        for a in 0u16..256 {
            for b in 0u16..256 {
                assert_eq!(
                    (Gf256(a as u8) * Gf256(b as u8)).0,
                    slow_mul(a as u8, b as u8),
                    "mismatch at {a} * {b}"
                );
            }
        }
    }

    #[test]
    fn aes_worked_example() {
        // The FIPS-197 worked example: 0x57 * 0x83 = 0xC1.
        assert_eq!(Gf256(0x57) * Gf256(0x83), Gf256(0xC1));
        // And 0x57 * 0x13 = 0xFE.
        assert_eq!(Gf256(0x57) * Gf256(0x13), Gf256(0xFE));
    }

    #[test]
    fn additive_identity_and_self_inverse() {
        for a in Gf256::all() {
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(a + a, Gf256::ZERO);
            assert_eq!(-a, a);
            assert_eq!(a - a, Gf256::ZERO);
        }
    }

    #[test]
    fn multiplicative_identity_and_zero() {
        for a in Gf256::all() {
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn inverses_invert() {
        for a in Gf256::all().skip(1) {
            assert_eq!(a * a.inv(), Gf256::ONE, "inv failed for {a:?}");
            assert_eq!(a / a, Gf256::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "invert 0")]
    fn zero_inverse_panics() {
        let _ = Gf256::ZERO.inv();
    }

    #[test]
    fn checked_inv_zero() {
        assert_eq!(Gf256::ZERO.checked_inv(), None);
        assert_eq!(Gf256::ONE.checked_inv(), Some(Gf256::ONE));
    }

    #[test]
    fn generator_generates_the_multiplicative_group() {
        let mut seen = [false; 256];
        let mut x = Gf256::ONE;
        for _ in 0..255 {
            assert!(!seen[x.0 as usize], "generator order < 255");
            seen[x.0 as usize] = true;
            x *= Gf256::GENERATOR;
        }
        assert_eq!(x, Gf256::ONE, "generator order != 255");
        assert!(!seen[0]);
        assert!(seen[1..].iter().all(|&s| s));
    }

    #[test]
    fn log_exp_roundtrip() {
        for a in Gf256::all().skip(1) {
            let l = a.log().unwrap();
            assert_eq!(Gf256::exp(l), a);
        }
        assert_eq!(Gf256::ZERO.log(), None);
    }

    #[test]
    fn pow_basics() {
        assert_eq!(Gf256(7).pow(0), Gf256::ONE);
        assert_eq!(Gf256(7).pow(1), Gf256(7));
        assert_eq!(Gf256(7).pow(2), Gf256(7) * Gf256(7));
        // Fermat: a^255 == 1 for a != 0.
        for a in Gf256::all().skip(1) {
            assert_eq!(a.pow(255), Gf256::ONE);
        }
    }

    #[test]
    fn sum_and_product_impls() {
        let v = [Gf256(1), Gf256(2), Gf256(3)];
        let s: Gf256 = v.iter().copied().sum();
        assert_eq!(s, Gf256(1 ^ 2 ^ 3));
        let p: Gf256 = v.iter().copied().product();
        assert_eq!(p, Gf256(1) * Gf256(2) * Gf256(3));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Gf256(0xAB)), "AB");
        assert_eq!(format!("{:?}", Gf256(0x0F)), "Gf256(0x0F)");
    }

    #[test]
    fn conversions() {
        let a: Gf256 = 0x42u8.into();
        let b: u8 = a.into();
        assert_eq!(b, 0x42);
    }
}
