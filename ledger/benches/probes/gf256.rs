//! `gf256::slice_ops` on 1500 B rows.

use super::{Bench, Out};
use gf256::{slice_ops, Gf256};
use std::hint::black_box;

const ROW: usize = 1500;

pub fn probe(b: &Bench, out: &mut Out) {
    let rows: Vec<Vec<u8>> = (0..128usize)
        .map(|i| (0..ROW).map(|j| (i * 31 + j * 7 + 1) as u8).collect())
        .collect();
    let terms: Vec<(Gf256, &[u8])> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (Gf256((i % 255 + 1) as u8), r.as_slice()))
        .collect();
    let mut dst = vec![0u8; ROW];
    // Source megabytes folded into `dst` per second.
    let mut axpy = |k: usize| {
        let ns = b.ns(|| slice_ops::axpy_many(black_box(&mut dst), black_box(&terms[..k])));
        (k * ROW) as f64 / ns * 1e3
    };
    out.push(("gf256.axpy_many_k32_mb_s", axpy(32)));
    out.push(("gf256.axpy_many_k128_mb_s", axpy(128)));
    let ns =
        b.ns(|| slice_ops::mul_add_assign(black_box(&mut dst), black_box(&rows[0]), Gf256(29)));
    out.push(("gf256.mul_add_assign_mb_s", ROW as f64 / ns * 1e3));
    // Computed, not timed: what one K=128 call does.
    out.push(("gf256.axpy_many_k128_ops", (128 * ROW) as f64));
    out.push(("gf256.axpy_many_k128_bytes", ((128 + 2) * ROW) as f64));
}
