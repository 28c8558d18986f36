//! Bulk operations on byte slices interpreted as vectors over GF(2⁸).
//!
//! These are the kernels behind packet coding and decoding: a coded packet
//! is `Σ cᵢ·pᵢ`, so producing one is a single [`axpy_many`] pass over the
//! sources, and decoding is row reduction built from [`mul_assign`],
//! [`mul_into`], and [`mul_add_assign`].
//!
//! The single-source kernels ([`add_assign`], [`mul_assign`],
//! [`mul_add_assign`], [`mul_into`]) are the [`crate::wide`] nibble
//! split-table kernels, re-exported: 32/16/8 bytes per step (AVX2 / SSSE3 /
//! `u64` SWAR, detected at runtime). [`crate::scalar`] — the original
//! byte-at-a-time 64 KiB table walk — is the reference they are tested
//! against byte for byte; nothing routes production calls to it.
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

// xtask: allow(panic_path, file) -- the MUL table is 256x256 indexed by a pair of u8; chunk bounds come from split_at arithmetic on equal-length slices.

use crate::tables::MUL;
use crate::Gf256;

pub use crate::wide::{add_assign, mul_add_assign, mul_assign, mul_into};

/// Bytes of `dst` kept hot per block while [`axpy_many`] folds every
/// source into it. Half a typical L1 data cache, so block + one source
/// stream fit comfortably.
const AXPY_BLOCK: usize = 16 * 1024;

/// `dst += Σ cⱼ·srcⱼ` — multi-source multiply-accumulate in one pass.
///
/// This is the batching contract the coding hot path is built on: producing
/// a coded packet `Σ cᵢ·pᵢ` is **one** call, not K separate
/// [`mul_add_assign`] passes. `dst` is walked in L1-sized blocks and every
/// source is folded into the resident block before moving on, so `dst` is
/// read and written once per block regardless of how many sources there
/// are. Zero coefficients are skipped for free.
///
/// ```
/// use more_gf256::{slice_ops, Gf256};
///
/// let sources = [[7u8; 4], [9u8; 4]];
/// let mut fused = vec![0u8; 4];
/// slice_ops::axpy_many(
///     &mut fused,
///     &[(Gf256(2), &sources[0]), (Gf256(3), &sources[1])],
/// );
///
/// let mut unfused = vec![0u8; 4];
/// for (c, s) in [(Gf256(2), &sources[0]), (Gf256(3), &sources[1])] {
///     slice_ops::mul_add_assign(&mut unfused, s, c);
/// }
/// assert_eq!(fused, unfused);
/// ```
///
/// # Panics
///
/// Panics if any source length differs from `dst`.
pub fn axpy_many(dst: &mut [u8], terms: &[(Gf256, &[u8])]) {
    for (_, src) in terms {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
    }
    let n = dst.len();
    let mut off = 0;
    while off < n {
        let end = (off + AXPY_BLOCK).min(n);
        for &(c, src) in terms {
            mul_add_assign(&mut dst[off..end], &src[off..end], c);
        }
        off = end;
    }
}

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

/// Linear combination: `out = Σ coeffs[j] * rows[j]`, all rows equal length.
///
/// Zeroes `out` first, then runs one [`axpy_many`] pass.
///
/// # Panics
///
/// Panics if `coeffs.len() != rows.len()` or any row length differs from
/// `out`.
pub fn linear_combination(out: &mut [u8], rows: &[&[u8]], coeffs: &[Gf256]) {
    assert_eq!(rows.len(), coeffs.len(), "rows/coeffs length mismatch");
    out.fill(0);
    let terms: Vec<(Gf256, &[u8])> = coeffs.iter().zip(rows).map(|(&c, &r)| (c, r)).collect();
    axpy_many(out, &terms);
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
    fn linear_combination_two_rows() {
        let r1 = [1u8, 0, 0, 7];
        let r2 = [0u8, 1, 0, 9];
        let mut out = [0u8; 4];
        linear_combination(&mut out, &[&r1, &r2], &[Gf256(3), Gf256(5)]);
        for i in 0..4 {
            assert_eq!(
                Gf256(out[i]),
                Gf256(r1[i]) * Gf256(3) + Gf256(r2[i]) * Gf256(5)
            );
        }
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
    fn axpy_many_crosses_block_boundary() {
        // Longer than AXPY_BLOCK so the blocked walk takes several strides.
        let len = AXPY_BLOCK * 2 + 17;
        let s1: Vec<u8> = (0..len).map(|i| (i % 255) as u8).collect();
        let s2: Vec<u8> = (0..len).map(|i| ((i * 3 + 1) % 253) as u8).collect();
        let mut fused = vec![0u8; len];
        axpy_many(&mut fused, &[(Gf256(0x35), &s1), (Gf256(0xC2), &s2)]);
        let mut unfused = vec![0u8; len];
        mul_add_assign(&mut unfused, &s1, Gf256(0x35));
        mul_add_assign(&mut unfused, &s2, Gf256(0xC2));
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
