//! The byte-at-a-time reference kernels.
//!
//! These are the original table-walk kernels: fetch the 256-byte row of
//! [`MUL`] for the scalar once, then process one byte
//! per step. They are kept as the permanent reference — the wide kernels in
//! [`wide`](crate::wide) must produce byte-identical output (property-tested
//! in `tests/kernel_equivalence.rs`). No production call reaches them.

#![expect(
    clippy::indexing_slicing,
    reason = "the 256-entry log/exp tables are indexed by u8 values (and EXP by log sums < 510, within its padded length), which cannot overrun"
)]

use crate::tables::MUL;
use crate::Gf256;

/// `dst[i] ^= src[i]` — add (XOR) `src` into `dst`, one byte at a time.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// `dst[i] = c * dst[i]` — scale a slice in place, one byte at a time.
#[inline]
pub fn mul_assign(dst: &mut [u8], c: Gf256) {
    match c {
        Gf256::ZERO => dst.fill(0),
        Gf256::ONE => {}
        _ => {
            let row = &MUL[c.0 as usize];
            for d in dst.iter_mut() {
                *d = row[*d as usize];
            }
        }
    }
}

/// `dst[i] ^= c * src[i]` — multiply-accumulate, one byte at a time.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_add_assign(dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        Gf256::ZERO => {}
        Gf256::ONE => add_assign(dst, src),
        _ => {
            let row = &MUL[c.0 as usize];
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= row[*s as usize];
            }
        }
    }
}

/// `out[i] = c * src[i]` — scale into a fresh output slice, byte-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_into(out: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(out.len(), src.len(), "slice length mismatch");
    match c {
        Gf256::ZERO => out.fill(0),
        Gf256::ONE => out.copy_from_slice(src),
        _ => {
            let row = &MUL[c.0 as usize];
            for (o, s) in out.iter_mut().zip(src) {
                *o = row[*s as usize];
            }
        }
    }
}
