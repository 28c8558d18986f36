//! Wide slice kernels: one fused multiply-accumulate per SIMD tier.
//!
//! Everything a coded packet needs is one operation,
//!
//! ```text
//! dst ← s·dst ⊕ Σⱼ cⱼ·srcⱼ        (s, cⱼ ∈ GF(2⁸), all slices one length)
//! ```
//!
//! and every kernel here is a case of it: [`axpy`] is `s = 1`,
//! [`mul_add_assign`] is [`axpy`] with one term, [`mul_assign`] has no terms
//! and [`mul_into`] is `s = 0` with one term. A tier implements that one
//! primitive so that a destination lane is loaded once, folds a whole group
//! of sources while it sits in a register, and is stored once:
//!
//! * **GFNI + AVX-512BW** (`"gfni"`) — 64-byte lanes, one `vgf2p8mulb` per
//!   source lane (the instruction hard-wires the AES polynomial 0x11B, the
//!   field's [`crate::tables::POLY`]), 8 sources per group.
//! * **AVX2** (`"avx2"`) — 32-byte lanes; multiplication by a fixed `c` is
//!   GF(2)-linear, so `c·x = MUL_LO[c][x & 0xF] ^ MUL_HI[c][x >> 4]` is two
//!   `vpshufb` over the 16-entry half-tables ([`crate::tables::MUL_LO`] /
//!   [`crate::tables::MUL_HI`]); 4 sources (8 table registers) per group.
//! * **Table** (`"table"`) — portable: the 256-byte row of the full product
//!   table ([`crate::tables::MUL`]), one lookup per byte, one source at a
//!   time (the half-tables cost two lookups per byte and only pay as
//!   shuffle operands). What Miri and non-x86 targets run.
//!
//! No tier has a scalar tail. A partial last lane is the full lane that
//! *ends* at the slice end, computed like any other and stored under a mask
//! (AVX-512) or blend (AVX2) that leaves the bytes the whole lanes already
//! covered as they were; a slice shorter than one lane goes to the tier
//! below (32–63 bytes to AVX2, under 32 to the table walk), so the 8- and
//! 32-byte code vectors of small batches pay no vector set-up.
//!
//! The CPU picks the tier — runtime detection, once per process — and
//! nothing else can. Every tier computes exactly the bytes of the
//! [`crate::scalar`] reference kernels; the tests below drive every tier
//! this CPU supports, not only the dispatched one, against that reference.

// xtask: allow(panic_path, file) -- table rows are indexed by u8 into 256-entry tables, and group arrays by an index below the const group size.

use crate::tables::{MUL, MUL_HI, MUL_LO};
use crate::Gf256;

/// The SIMD tiers, narrowest first; a CPU that has one has all below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    Table,
    Avx2,
    Gfni,
}

/// The widest tier this CPU supports. Detection runs once; the result is
/// cached for every later kernel call.
#[inline]
fn detected() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        static TIER: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *TIER.get_or_init(|| {
            if !has!("avx2") {
                Tier::Table
            } else if has!("gfni") && has!("avx512f") && has!("avx512bw") {
                Tier::Gfni
            } else {
                Tier::Avx2
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    Tier::Table
}

/// Name of the tier the kernels run on this machine: `"gfni"`, `"avx2"` or
/// `"table"`. Recorded in benchmark artifacts so throughput numbers are
/// comparable across hosts.
pub fn backend() -> &'static str {
    match detected() {
        Tier::Gfni => "gfni",
        Tier::Avx2 => "avx2",
        Tier::Table => "table",
    }
}

/// `dst ← s·dst ⊕ Σ cⱼ·srcⱼ` on the widest detected tier not above `cap`
/// that `dst` fills a lane of (production passes the top tier; the tests
/// pass each in turn).
#[inline(always)]
fn fused(cap: Tier, dst: &mut [u8], s: Gf256, terms: &[(Gf256, &[u8])]) {
    for (_, src) in terms {
        assert_eq!(dst.len(), src.len(), "slice length mismatch");
    }
    let tier = cap.min(detected());
    // A single term goes to the pass by value, not through the grouping
    // loop: its coefficient is usually a byte the caller has just read out
    // of `dst` (row reduction), and stays in a register this way.
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Gfni && dst.len() >= 64 {
        // SAFETY: tier is at most detected(), so gfni, avx512f and avx512bw
        // were found on this CPU at runtime; dst holds the one whole
        // 64-byte lane both kernels require; every source was asserted
        // above to have dst's length, so its pointer is readable that far.
        return unsafe {
            match *terms {
                [(c, src)] => x86::pass_gfni(dst, s.0, [c.0], [src.as_ptr()]),
                _ => x86::fused_gfni(dst, s.0, terms),
            }
        };
    }
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 && dst.len() >= 32 {
        // SAFETY: tier is at most detected(), so avx2 (which the gfni tier
        // includes) was found on this CPU at runtime; dst holds the one
        // whole 32-byte lane both kernels require; every source was asserted
        // above to have dst's length, so its pointer is readable that far.
        return unsafe {
            match *terms {
                [(c, src)] => x86::pass_avx2(dst, s.0, [c.0], [src.as_ptr()]),
                _ => x86::fused_avx2(dst, s.0, terms),
            }
        };
    }
    if s != Gf256::ONE {
        let row = &MUL[s.0 as usize];
        for d in dst.iter_mut() {
            *d = row[*d as usize];
        }
    }
    for &(c, src) in terms.iter().filter(|(c, _)| !c.is_zero()) {
        mul_add_table(dst, src, c.0);
    }
}

/// `dst[i] ^= c·src[i]` (equal lengths), a byte at a step.
fn mul_add_table(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    for (d, x) in dst.iter_mut().zip(src) {
        *d ^= row[*x as usize];
    }
}

/// `dst += Σ cⱼ·srcⱼ` — multi-source multiply-accumulate in one pass
/// ([`crate::slice_ops::axpy_many`]).
///
/// This is the batching contract the coding hot path is built on: producing
/// a coded packet `Σ cᵢ·pᵢ` is **one** call, not K separate
/// [`mul_add_assign`] passes. Each lane of `dst` stays in a register while
/// a group of sources (8 on the GFNI tier, 4 on AVX2) is folded into it, so
/// `dst` is read and written once per group, not once per source.
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
#[inline]
pub fn axpy(dst: &mut [u8], terms: &[(Gf256, &[u8])]) {
    fused(Tier::Gfni, dst, Gf256::ONE, terms);
}

/// `dst[i] ^= c * src[i]` — [`axpy`] with one term.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_add_assign(dst: &mut [u8], src: &[u8], c: Gf256) {
    axpy(dst, &[(c, src)]);
}

/// `dst[i] = c * dst[i]` — in-place scale.
#[inline]
pub fn mul_assign(dst: &mut [u8], c: Gf256) {
    fused(Tier::Gfni, dst, c, &[]);
}

/// `out[i] = c * src[i]` — scale into an output slice, whatever it held.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_into(out: &mut [u8], src: &[u8], c: Gf256) {
    fused(Tier::Gfni, out, Gf256::ZERO, &[(c, src)]);
}

/// `dst[i] ^= src[i]` (the compiler vectorizes the XOR loop on its own).
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Gf256, MUL_HI, MUL_LO};
    use core::arch::x86_64::*;
    use core::array::from_fn;

    /// Runs `$pass::<N>` over `$terms` in groups of up to `$max` — a group's
    /// size is a const so its coefficients live in registers — with the
    /// scale `$s` applied by the first pass only.
    macro_rules! in_groups {
        ($pass:ident::<$($n:literal)* | $max:literal>($dst:ident, $s:ident, $terms:ident)) => {{
            let (mut s, mut rest) = ($s, $terms);
            while !rest.is_empty() || s != 1 {
                let (group, tail) = rest.split_at(rest.len().min($max));
                let (c, src) = (|j: usize| group[j].0 .0, |j: usize| group[j].1.as_ptr());
                match group.len() {
                    $($n => $pass::<$n>($dst, s, from_fn(c), from_fn(src)),)*
                    _ => $pass::<$max>($dst, s, from_fn(c), from_fn(src)),
                }
                (s, rest) = (1, tail);
            }
        }};
    }

    // SAFETY: the caller must have detected gfni, avx512f and avx512bw on
    // this CPU, dst must hold at least one 64-byte lane and every source
    // must have dst's length — pass_gfni's contract, with each source
    // pointer taken from a slice of that length.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) unsafe fn fused_gfni(dst: &mut [u8], s: u8, terms: &[(Gf256, &[u8])]) {
        in_groups!(pass_gfni::<0 1 2 3 4 5 6 7 | 8>(dst, s, terms));
    }

    // SAFETY: the caller must have detected gfni, avx512f and avx512bw on
    // this CPU, dst must hold at least one 64-byte lane, and every src[j]
    // must be readable for dst.len() bytes. Whole lanes touch bytes
    // i..i + 64 with i + 64 <= len; the partial last lane is the one at
    // len - 64..len (in bounds because len >= 64), written back under a
    // mask that leaves the bytes before `whole` as they were.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) unsafe fn pass_gfni<const N: usize>(
        dst: &mut [u8],
        s: u8,
        c: [u8; N],
        src: [*const u8; N],
    ) {
        let len = dst.len();
        let dp = dst.as_mut_ptr();
        let whole = len - len % 64;
        let scale = _mm512_set1_epi8(s as i8);
        let coef = c.map(|c| _mm512_set1_epi8(c as i8));
        // The lane at byte `at`: its old value and its new one.
        let lane = |at: usize| {
            let old = _mm512_loadu_si512(dp.add(at).cast());
            let mut acc = if s == 1 {
                old
            } else {
                _mm512_gf2p8mul_epi8(old, scale)
            };
            for j in 0..N {
                let x = _mm512_loadu_si512(src[j].add(at).cast());
                acc = _mm512_xor_si512(acc, _mm512_gf2p8mul_epi8(x, coef[j]));
            }
            (old, acc)
        };
        let mut i = 0;
        while i < whole {
            _mm512_storeu_si512(dp.add(i).cast(), lane(i).1);
            i += 64;
        }
        if whole < len {
            let (old, acc) = lane(len - 64);
            let fresh: __mmask64 = !0 << (64 - len % 64);
            let new = _mm512_mask_blend_epi8(fresh, old, acc);
            _mm512_storeu_si512(dp.add(len - 64).cast(), new);
        }
    }

    // SAFETY: the caller must have detected avx2 on this CPU, dst must hold
    // at least one 32-byte lane and every source must have dst's length —
    // pass_avx2's contract, with each source pointer taken from a slice of
    // that length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fused_avx2(dst: &mut [u8], s: u8, terms: &[(Gf256, &[u8])]) {
        in_groups!(pass_avx2::<0 1 2 3 | 4>(dst, s, terms));
    }

    /// `0x00 × 32` then `0xFF × 32`: the 32-byte window at byte offset `t`
    /// is a blend mask selecting the last `t` bytes of a lane.
    static LAST: [[u8; 32]; 2] = [[0x00; 32], [0xFF; 32]];

    // SAFETY: the caller must have detected avx2 on this CPU, dst must hold
    // at least one 32-byte lane, and every src[j] must be readable for
    // dst.len() bytes. Whole lanes touch bytes i..i + 32 with
    // i + 32 <= len; the partial last lane is the one at len - 32..len (in
    // bounds because len >= 32), written back blended so the bytes before
    // `whole` stay as they were. The LAST window starts at len % 32 < 32,
    // so it ends inside the 64-byte table.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pass_avx2<const N: usize>(
        dst: &mut [u8],
        s: u8,
        c: [u8; N],
        src: [*const u8; N],
    ) {
        let len = dst.len();
        let dp = dst.as_mut_ptr();
        let whole = len - len % 32;
        let nibble = _mm256_set1_epi8(0x0F);
        let table =
            |row: &[u8; 16]| _mm256_broadcastsi128_si256(_mm_loadu_si128(row.as_ptr().cast()));
        let mul = |x: __m256i, lo: __m256i, hi: __m256i| {
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, nibble));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(x), nibble));
            _mm256_xor_si256(l, h)
        };
        let (slo, shi) = (table(&MUL_LO[s as usize]), table(&MUL_HI[s as usize]));
        let lo = c.map(|c| table(&MUL_LO[c as usize]));
        let hi = c.map(|c| table(&MUL_HI[c as usize]));
        // The lane at byte `at`: its old value and its new one.
        let lane = |at: usize| {
            let old = _mm256_loadu_si256(dp.add(at).cast());
            let mut acc = if s == 1 { old } else { mul(old, slo, shi) };
            for j in 0..N {
                let x = _mm256_loadu_si256(src[j].add(at).cast());
                acc = _mm256_xor_si256(acc, mul(x, lo[j], hi[j]));
            }
            (old, acc)
        };
        let mut i = 0;
        while i < whole {
            _mm256_storeu_si256(dp.add(i).cast(), lane(i).1);
            i += 32;
        }
        if whole < len {
            let (old, acc) = lane(len - 32);
            let fresh = _mm256_loadu_si256(LAST.as_ptr().cast::<u8>().add(len % 32).cast());
            let new = _mm256_blendv_epi8(old, acc, fresh);
            _mm256_storeu_si256(dp.add(len - 32).cast(), new);
        }
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::scalar;

    /// Deterministic pseudo-random bytes without pulling in an RNG.
    fn noise(len: usize, salt: u64) -> Vec<u8> {
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// Lengths around every lane boundary of every tier, and the two the
    /// simulator uses (1500 B payload, 1628 B flat K=128 packet).
    const LENS: [usize; 15] = [
        0, 1, 15, 16, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1500, 1628,
    ];
    /// Term counts around the group sizes (4, 8) and `axpy_chunked`'s 16.
    const TERMS: [usize; 8] = [0, 1, 7, 8, 9, 16, 17, 128];

    #[test]
    fn every_tier_this_cpu_has_matches_scalar() {
        let tiers: Vec<Tier> = [Tier::Table, Tier::Avx2, Tier::Gfni]
            .into_iter()
            .filter(|&t| t <= detected())
            .collect();
        println!(
            "gf256::wide: tiers verified against scalar {tiers:?}, dispatching {}",
            backend()
        );
        // Interpreted, the full matrix takes minutes; Miri has one tier and
        // the group sizes do not exist on it.
        let counts = if cfg!(miri) { &TERMS[..3] } else { &TERMS[..] };
        let rows: Vec<Vec<u8>> = (0..128).map(|j| noise(1628 + 3, j + 1)).collect();
        for &tier in &tiers {
            for &len in &LENS {
                for &n in counts {
                    for s in [1u8, 0, 0x53] {
                        // Unaligned on purpose, with guard bytes either
                        // side: dst is bytes 1..=len of its buffer, source
                        // j starts at byte j % 4 of its row.
                        let terms: Vec<(Gf256, &[u8])> = (0..n)
                            .map(|j| {
                                let c = match j % 5 {
                                    0 => 0,
                                    1 => 1,
                                    _ => rows[j][0] | 2,
                                };
                                (Gf256(c), &rows[j][j % 4..j % 4 + len])
                            })
                            .collect();
                        let base = noise(len + 2, 999);
                        let mut want = base.clone();
                        scalar::mul_assign(&mut want[1..=len], Gf256(s));
                        for &(c, src) in &terms {
                            scalar::mul_add_assign(&mut want[1..=len], src, c);
                        }
                        let mut got = base;
                        fused(tier, &mut got[1..=len], Gf256(s), &terms);
                        assert_eq!(got, want, "{tier:?} len={len} terms={n} s={s:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn public_kernels_are_cases_of_the_fused_one() {
        for &len in &LENS {
            for c in [0u8, 1, 2, 0x53, 0xFF] {
                let src = noise(len, c as u64 + 1);
                let base = noise(len, c as u64 + 1000);

                let mut want = base.clone();
                scalar::mul_add_assign(&mut want, &src, Gf256(c));
                let mut got = base.clone();
                mul_add_assign(&mut got, &src, Gf256(c));
                assert_eq!(got, want, "mul_add len={len} c={c:#x}");

                let mut want = base.clone();
                scalar::mul_assign(&mut want, Gf256(c));
                let mut got = base.clone();
                mul_assign(&mut got, Gf256(c));
                assert_eq!(got, want, "mul_assign len={len} c={c:#x}");

                let mut want = vec![0u8; len];
                scalar::mul_into(&mut want, &src, Gf256(c));
                let mut got = base.clone();
                mul_into(&mut got, &src, Gf256(c));
                assert_eq!(got, want, "mul_into len={len} c={c:#x}");

                let mut got = base.clone();
                add_assign(&mut got, &src);
                let want: Vec<u8> = base.iter().zip(&src).map(|(x, y)| x ^ y).collect();
                assert_eq!(got, want, "add_assign len={len}");
            }
        }
    }
}
