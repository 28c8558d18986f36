//! Bulk operations on byte slices interpreted as vectors over GF(2⁸).
//!
//! These are the kernels behind packet coding and decoding: a coded packet
//! is `Σ cᵢ·pᵢ`, so producing one is a single [`axpy_many`] pass over the
//! sources, and decoding is row reduction built from [`mul_assign`],
//! [`mul_into`], and [`mul_add_assign`].
//!
//! All of them are the [`crate::wide`] kernels re-exported — one fused
//! `dst ← s·dst ⊕ Σ cⱼ·srcⱼ` per SIMD tier (GFNI + AVX-512 / AVX2 / `u64`
//! SWAR, the CPU picks), of which the single-source kernels are the
//! one-term cases. [`crate::scalar`] — the original byte-at-a-time 64 KiB
//! table walk — is the reference they are tested against byte for byte;
//! nothing routes production calls to it.
//!
//! ```
//! use more_gf256::{slice_ops, Gf256};
//!
//! // One coded packet from three sources in one streaming pass.
//! let (p0, p1, p2) = ([1u8; 8], [2u8; 8], [3u8; 8]);
//! let mut coded = vec![0u8; 8];
//! slice_ops::axpy_many(
//!     &mut coded,
//!     &[(Gf256(5), &p0), (Gf256(7), &p1), (Gf256(11), &p2)],
//! );
//! let byte = Gf256(5) * Gf256(1) + Gf256(7) * Gf256(2) + Gf256(11) * Gf256(3);
//! assert_eq!(coded, vec![byte.0; 8]);
//! ```

// xtask: allow(panic_path, file) -- the MUL table is 256x256 indexed by a pair of u8.

use crate::tables::MUL;
use crate::Gf256;

pub use crate::wide::{add_assign, axpy as axpy_many, mul_add_assign, mul_assign, mul_into};

/// Dot product of two equal-length byte slices over GF(2⁸).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[u8], b: &[u8]) -> Gf256 {
    assert_eq!(a.len(), b.len(), "slice length mismatch");
    let mut acc = 0u8;
    for (&x, &y) in a.iter().zip(b) {
        acc ^= MUL[x as usize][y as usize];
    }
    Gf256(acc)
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn add_assign_is_xor() {
        let mut a = vec![0x00, 0xFF, 0x55];
        add_assign(&mut a, &[0x0F, 0xF0, 0x55]);
        assert_eq!(a, vec![0x0F, 0x0F, 0x00]);
    }

    #[test]
    fn add_assign_self_inverse() {
        let orig = vec![1u8, 2, 3, 4, 5];
        let mut a = orig.clone();
        let b = vec![9u8, 8, 7, 6, 5];
        add_assign(&mut a, &b);
        add_assign(&mut a, &b);
        assert_eq!(a, orig);
    }

    #[test]
    fn mul_assign_zero_one() {
        let mut a = vec![1u8, 2, 3];
        mul_assign(&mut a, Gf256::ONE);
        assert_eq!(a, vec![1, 2, 3]);
        mul_assign(&mut a, Gf256::ZERO);
        assert_eq!(a, vec![0, 0, 0]);
    }

    #[test]
    fn mul_assign_then_inverse_restores() {
        let orig: Vec<u8> = (0..=255).collect();
        for c in [Gf256(2), Gf256(0x53), Gf256(0xFF)] {
            let mut a = orig.clone();
            mul_assign(&mut a, c);
            mul_assign(&mut a, c.inv());
            assert_eq!(a, orig, "failed for c={c:?}");
        }
    }

    #[test]
    fn mul_add_assign_matches_scalar_ops() {
        let src: Vec<u8> = (10..20).collect();
        let mut dst: Vec<u8> = (50..60).collect();
        let snapshot = dst.clone();
        let c = Gf256(0x1D);
        mul_add_assign(&mut dst, &src, c);
        for i in 0..src.len() {
            assert_eq!(Gf256(dst[i]), Gf256(snapshot[i]) + Gf256(src[i]) * c);
        }
    }

    #[test]
    fn mul_into_matches_mul_assign() {
        let src: Vec<u8> = (0..=255).collect();
        let c = Gf256(0xA7);
        let mut out = vec![0u8; 256];
        mul_into(&mut out, &src, c);
        let mut expect = src.clone();
        mul_assign(&mut expect, c);
        assert_eq!(out, expect);
    }

    #[test]
    fn dot_product() {
        // (1,2,3)·(4,5,6) = 1*4 + 2*5 + 3*6
        let expect = Gf256(1) * Gf256(4) + Gf256(2) * Gf256(5) + Gf256(3) * Gf256(6);
        assert_eq!(dot(&[1, 2, 3], &[4, 5, 6]), expect);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut a = [0u8; 3];
        mul_add_assign(&mut a, &[0u8; 4], Gf256(2));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_many_length_mismatch_panics() {
        let mut a = [0u8; 3];
        let bad = [0u8; 4];
        axpy_many(&mut a, &[(Gf256(2), &bad)]);
    }

    #[test]
    fn axpy_many_matches_sequential_passes() {
        let k = 37;
        let len = 1500;
        let sources: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| ((i * 31 + j * 7) % 251) as u8).collect())
            .collect();
        let coeffs: Vec<Gf256> = (0..k).map(|i| Gf256((i * 89 % 256) as u8)).collect();

        let mut fused = vec![0u8; len];
        let terms: Vec<(Gf256, &[u8])> = coeffs
            .iter()
            .zip(&sources)
            .map(|(&c, s)| (c, s.as_slice()))
            .collect();
        axpy_many(&mut fused, &terms);

        let mut unfused = vec![0u8; len];
        for (&c, s) in coeffs.iter().zip(&sources) {
            mul_add_assign(&mut unfused, s, c);
        }
        assert_eq!(fused, unfused);
    }

    #[test]
    fn distributivity_over_slices() {
        // c*(a+b) == c*a + c*b elementwise.
        let a: Vec<u8> = (0..100).map(|i| (i * 7) as u8).collect();
        let b: Vec<u8> = (0..100).map(|i| (i * 13 + 1) as u8).collect();
        let c = Gf256(0x9E);

        let mut lhs = a.clone();
        add_assign(&mut lhs, &b);
        mul_assign(&mut lhs, c);

        let mut rhs = vec![0u8; 100];
        mul_into(&mut rhs, &a, c);
        mul_add_assign(&mut rhs, &b, c);

        assert_eq!(lhs, rhs);
    }
}
