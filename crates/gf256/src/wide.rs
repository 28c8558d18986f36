//! Wide slice kernels: one fused multiply-accumulate per SIMD tier, and
//! the row reduction built on it.
//!
//! Everything a coded packet needs is one operation,
//!
//! ```text
//! dst ← s·dst ⊕ Σⱼ cⱼ·rowⱼ        (s, cⱼ ∈ GF(2⁸), all rows dst's length)
//! ```
//!
//! and every kernel here is a case of it: [`axpy_rows`] is `s = 1` over
//! rows read in place ([`Rows`]: one strided matrix, or a list of
//! slices), [`axpy`] is `s = 1` over `(cⱼ, rowⱼ)` pairs,
//! [`mul_add_assign`] is [`axpy`] with one term, [`mul_assign`] has no
//! terms and [`mul_into`] is `s = 0` with one term. A tier implements that
//! one primitive so that a destination lane is loaded once, folds a whole
//! group of rows while it sits in a register, and is stored once; a group
//! whose coefficients are all zero is skipped, its rows unread:
//!
//! * **GFNI + AVX-512BW** (`"gfni"`) — 64-byte lanes, one `vgf2p8mulb` per
//!   row lane (the instruction hard-wires the AES polynomial 0x11B, the
//!   field's [`crate::tables::POLY`]), 8 rows per group.
//! * **AVX2** (`"avx2"`) — 32-byte lanes; multiplication by a fixed `c` is
//!   GF(2)-linear, so `c·x = MUL_LO[c][x & 0xF] ^ MUL_HI[c][x >> 4]` is two
//!   `vpshufb` over the 16-entry half-tables ([`crate::tables::MUL_LO`] /
//!   [`crate::tables::MUL_HI`]); 4 rows (8 table registers) per group.
//! * **Table** (`"table"`) — portable: the 256-byte row of the full product
//!   table ([`crate::tables::MUL`]), one lookup per byte, one row at a
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
//! [`eliminate`] is Algorithm 2's reduction of one code vector against an
//! echelon matrix — a chain of one-term passes, each coefficient read out
//! of the vector the previous pass wrote — run as one dispatch: the
//! GFNI tier holds a vector of 32 to 128 bytes in two registers for the
//! whole walk, the others loop over their one-term pass inside the tier,
//! and a vector under 32 bytes takes the table walk.
//!
//! The CPU picks the tier — runtime detection, once per process — and
//! nothing else can. Every tier computes exactly the bytes of the
//! [`crate::scalar`] reference kernels; the tests below drive every tier
//! this CPU supports, not only the dispatched one, against that reference.

#![expect(
    clippy::indexing_slicing,
    reason = "table rows are indexed by u8 into 256-entry tables, group arrays by an index below the const group size, and a vector by a column below its length"
)]

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

/// The rows a combine reads in place, row `j` paired with coefficient `j`;
/// every row has the destination's length.
#[derive(Clone, Copy, Debug)]
pub enum Rows<'a, B = &'a [u8]> {
    /// Rows `stride` bytes apart in one block: row `j` is the
    /// destination-length run of bytes at `block[j·stride..]`. What a
    /// matrix of rows with padding between them is.
    Strided {
        /// Row 0's first byte onward.
        block: &'a [u8],
        /// Bytes from one row's start to the next's.
        stride: usize,
    },
    /// One buffer per row.
    Listed(&'a [B]),
}

impl<'a> Rows<'a> {
    /// [`Rows::Strided`], its list type left at the default so that the
    /// call needs no annotation.
    #[inline]
    pub fn strided(block: &'a [u8], stride: usize) -> Self {
        Rows::Strided { block, stride }
    }
}

/// The terms of one fused call: a count, and term `j`'s coefficient and
/// row, read where they are.
trait Terms {
    /// Number of terms.
    fn count(&self) -> usize;
    /// Term `j`'s coefficient.
    fn coeff(&self, j: usize) -> u8;
    /// Term `j`'s row, checked to be `len` bytes.
    fn row(&self, j: usize, len: usize) -> &[u8];
    /// Panics unless every term has a row of `len` bytes, whatever its
    /// coefficient: the check a call makes once, on entry.
    #[inline(always)]
    fn check(&self, len: usize) {
        for j in 0..self.count() {
            self.row(j, len);
        }
    }
    /// The rows of the `N` terms from `first`, as the passes read them:
    /// each pointer is readable for `len` bytes, which every impl checks.
    #[inline(always)]
    fn rows<const N: usize>(&self, first: usize, len: usize) -> [*const u8; N] {
        let mut rows = [core::ptr::null(); N];
        for (i, row) in rows.iter_mut().enumerate() {
            *row = self.row(first + i, len).as_ptr();
        }
        rows
    }
}

/// One term: the one-term kernels, whose run of one is a direct pass.
impl Terms for (Gf256, &[u8]) {
    #[inline(always)]
    fn count(&self) -> usize {
        1
    }

    #[inline(always)]
    fn coeff(&self, _: usize) -> u8 {
        self.0 .0
    }

    #[inline(always)]
    fn row(&self, _: usize, len: usize) -> &[u8] {
        assert_eq!(self.1.len(), len, "slice length mismatch");
        self.1
    }
}

/// [`axpy`]'s terms.
impl Terms for &[(Gf256, &[u8])] {
    #[inline(always)]
    fn count(&self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn coeff(&self, j: usize) -> u8 {
        self[j].0 .0
    }

    #[inline(always)]
    fn row(&self, j: usize, len: usize) -> &[u8] {
        let row = self[j].1;
        assert_eq!(row.len(), len, "slice length mismatch");
        row
    }
}

/// [`axpy_rows`]'s terms over [`Rows::Strided`]: coefficient `j` and the
/// row at `block[j·stride..]`.
struct Strided<'a> {
    coeffs: &'a [u8],
    block: &'a [u8],
    stride: usize,
}

impl Terms for Strided<'_> {
    #[inline(always)]
    fn count(&self) -> usize {
        self.coeffs.len()
    }

    #[inline(always)]
    fn coeff(&self, j: usize) -> u8 {
        self.coeffs[j]
    }

    #[inline(always)]
    fn row(&self, j: usize, len: usize) -> &[u8] {
        let at = j * self.stride;
        let row = self.block.get(at..at + len).unwrap_or_default();
        assert_eq!(row.len(), len, "slice length mismatch");
        row
    }

    /// One check for all rows: the last ends inside the block.
    #[inline(always)]
    fn check(&self, len: usize) {
        self.holds(self.count(), len);
    }

    /// One check for the run: its last row ends inside the block, so
    /// every row before it does too.
    #[inline(always)]
    fn rows<const N: usize>(&self, first: usize, len: usize) -> [*const u8; N] {
        self.holds(first + N, len);
        let base = self.block.as_ptr();
        let mut rows = [base; N];
        for (i, row) in rows.iter_mut().enumerate() {
            *row = base.wrapping_add((first + i) * self.stride);
        }
        rows
    }
}

impl Strided<'_> {
    /// Panics unless the block holds `n` rows of `len` bytes: row `n − 1`
    /// ends inside it, so every row before it does too.
    #[inline(always)]
    fn holds(&self, n: usize, len: usize) {
        let end = n
            .checked_sub(1)
            .and_then(|last| last.checked_mul(self.stride)?.checked_add(len));
        assert!(
            end.is_none_or(|end| end <= self.block.len()),
            "slice length mismatch"
        );
    }
}

/// [`axpy_rows`]'s terms over [`Rows::Listed`]: coefficient `j` and buffer
/// `j`.
struct Listed<'a, B> {
    coeffs: &'a [u8],
    list: &'a [B],
}

impl<B: AsRef<[u8]>> Terms for Listed<'_, B> {
    #[inline(always)]
    fn count(&self) -> usize {
        self.coeffs.len()
    }

    #[inline(always)]
    fn coeff(&self, j: usize) -> u8 {
        self.coeffs[j]
    }

    #[inline(always)]
    fn row(&self, j: usize, len: usize) -> &[u8] {
        let row = self.list.get(j).map(AsRef::as_ref);
        assert!(
            row.is_some_and(|row| row.len() == len),
            "slice length mismatch"
        );
        row.unwrap_or_default()
    }
}

/// `dst ← s·dst ⊕ Σ cⱼ·rowⱼ` on the widest detected tier not above `cap`
/// that `dst` fills a lane of (production passes the top tier; the tests
/// pass each in turn).
///
/// # Panics
///
/// Panics unless every term has a row of `dst`'s length, checked on entry
/// whatever the coefficients and the tier.
#[inline(always)]
fn fused(cap: Tier, dst: &mut [u8], s: Gf256, terms: impl Terms) {
    terms.check(dst.len());
    let tier = cap.min(detected());
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 && dst.len() >= 32 {
        // SAFETY: tier is at most detected(), so the GFNI driver runs only
        // where gfni, avx512f and avx512bw were found on this CPU at
        // runtime, and the AVX2 one where avx2 was (the GFNI tier implies
        // it). Both are safe functions that check their own slices.
        return unsafe {
            if tier == Tier::Gfni && dst.len() >= 64 {
                x86::fused_gfni(dst, s.0, terms)
            } else {
                x86::fused_avx2(dst, s.0, terms)
            }
        };
    }
    if s != Gf256::ONE {
        let row = &MUL[s.0 as usize];
        for d in dst.iter_mut() {
            *d = row[*d as usize];
        }
    }
    for j in 0..terms.count() {
        let c = terms.coeff(j);
        if c != 0 {
            mul_add_table(dst, terms.row(j, dst.len()), c);
        }
    }
}

/// `dst[i] ^= c·src[i]` (equal lengths), a byte at a step.
fn mul_add_table(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    for (d, x) in dst.iter_mut().zip(src) {
        *d ^= row[*x as usize];
    }
}

/// `dst += Σ cⱼ·rowⱼ` over rows read in place — the row-batch entry every
/// multi-term combine of the coding hot path makes once
/// ([`crate::slice_ops::axpy_rows`]).
///
/// Term `j` pairs `coeffs[j]` (a GF(2⁸) element, as in a code vector) with
/// row `j` of `rows`, so the rows are addressed where they live — a
/// strided matrix or a list of buffers — and no term list is built. Each
/// lane of `dst` stays in a register while a group of consecutive rows (8
/// on the GFNI tier, 4 on AVX2) is folded into it, so `dst` is read and
/// written once per group, not once per row. A group whose coefficients
/// are all zero is skipped and its rows are not read (the table walk skips
/// each zero coefficient alone).
///
/// ```
/// use more_gf256::{slice_ops, wide::Rows, Gf256};
///
/// // Two 4-byte rows, 8 bytes apart in one block.
/// let block = [7u8, 7, 7, 7, 0, 0, 0, 0, 9, 9, 9, 9];
/// let mut strided = vec![0u8; 4];
/// slice_ops::axpy_rows(&mut strided, &[2, 3], Rows::strided(&block, 8));
///
/// let mut listed = vec![0u8; 4];
/// slice_ops::axpy_rows(&mut listed, &[2, 3], Rows::Listed(&[&block[..4], &block[8..]]));
///
/// let byte = Gf256(2) * Gf256(7) + Gf256(3) * Gf256(9);
/// assert_eq!((strided, listed), (vec![byte.0; 4], vec![byte.0; 4]));
/// ```
///
/// # Panics
///
/// Panics if `rows` holds fewer rows than `coeffs` has entries, or a row is
/// not `dst`'s length — whatever the coefficients, zeros included.
#[inline]
pub fn axpy_rows<B: AsRef<[u8]>>(dst: &mut [u8], coeffs: &[u8], rows: Rows<'_, B>) {
    match rows {
        Rows::Strided { block, stride } => {
            let terms = Strided {
                coeffs,
                block,
                stride,
            };
            fused(Tier::Gfni, dst, Gf256::ONE, terms);
        }
        Rows::Listed(list) => fused(Tier::Gfni, dst, Gf256::ONE, Listed { coeffs, list }),
    }
}

/// `dst += Σ cⱼ·srcⱼ` — multi-source multiply-accumulate in one pass
/// ([`crate::slice_ops::axpy_many`]): [`axpy_rows`] over `(cⱼ, srcⱼ)`
/// pairs.
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
    fused(Tier::Gfni, dst, Gf256::ONE, (c, src));
}

/// `dst[i] = c * dst[i]` — in-place scale.
#[inline]
pub fn mul_assign(dst: &mut [u8], c: Gf256) {
    let none: &[(Gf256, &[u8])] = &[];
    fused(Tier::Gfni, dst, c, none);
}

/// `out[i] = c * src[i]` — scale into an output slice, whatever it held.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_into(out: &mut [u8], src: &[u8], c: Gf256) {
    fused(Tier::Gfni, out, Gf256::ZERO, (c, src));
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

/// Algorithm 2's reduction of `u` against an echelon matrix, in one
/// dispatch ([`crate::slice_ops::eliminate`]).
///
/// The matrix holds one row of `u`'s length per column `j` of `u`, row `j`
/// being the bytes at `rows[j·stride..]` (`stride >= u.len()`). Row `j` is
/// zero before column `j` and is either *stored* — 1 at column `j` — or
/// zero throughout. Walking the columns in order, at each `j` where
/// `u[j] = c ≠ 0`:
///
/// * row `j` not stored: `j` is the pivot `u` would fill. The walk stops
///   and returns `Some(j)`; `u[j]` is the value there and the columns
///   after it are `u` reduced so far.
/// * row `j` stored: `u ← u + c·rowⱼ`, which clears column `j` — and
///   column `j` is then set back to `c`, the multiple of row `j` taken.
///
/// `None` when no pivot remains: `u` was a combination of the stored rows,
/// the multiples are in their columns and nothing else is left.
///
/// ```
/// use more_gf256::{slice_ops, Gf256};
///
/// // Row 0 stored, row 1 not: (1, 2) then zeros, 2 bytes apart.
/// let matrix = [1u8, 2, 0, 0];
/// let mut u = [3u8, 5];
/// assert_eq!(slice_ops::eliminate(&mut u, &matrix, 2), Some(1));
/// // The multiple 3 of row 0 taken, and 5 + 3·2 left at the pivot.
/// assert_eq!(u, [3, (Gf256(5) + Gf256(3) * Gf256(2)).0]);
/// ```
///
/// # Panics
///
/// Panics if `stride` is shorter than `u`, or `rows` holds fewer than
/// `u.len()` rows.
#[inline]
pub fn eliminate(u: &mut [u8], rows: &[u8], stride: usize) -> Option<usize> {
    eliminate_on(Tier::Gfni, u, rows, stride)
}

/// [`eliminate`] on the widest detected tier not above `cap`. A vector
/// under 32 bytes takes the table walk, as in the fused kernels: timed
/// at K = 8, it beat the GFNI register walk (35 against 50 ns a check
/// against 4 stored rows), which wins from 32 bytes up.
fn eliminate_on(cap: Tier, u: &mut [u8], rows: &[u8], stride: usize) -> Option<usize> {
    assert!(stride >= u.len(), "rows overlap");
    let tier = cap.min(detected());
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx2 && u.len() >= 32 {
        // SAFETY: tier is at most detected(), so the GFNI walk runs only
        // where gfni, avx512f and avx512bw were found on this CPU at
        // runtime, and the AVX2 one where avx2 was (the GFNI tier implies
        // it). Both are safe functions that check their own slices.
        return unsafe {
            if tier == Tier::Gfni {
                x86::eliminate_gfni(u, rows, stride)
            } else {
                x86::eliminate_avx2(u, rows, stride)
            }
        };
    }
    walk(u, rows, stride, 1, |u, c, row| mul_add_table(u, row, c))
}

/// The matrix's first `len` rows, `stride` bytes apart, each the start of
/// a chunk of the block cut to them.
///
/// # Panics
///
/// Panics if the block cannot hold them.
#[inline(always)]
fn rows_of(rows: &[u8], stride: usize, len: usize) -> core::slice::Chunks<'_, u8> {
    let need = len.checked_sub(1).map_or(0, |last| last * stride + len);
    assert!(rows.len() >= need, "slice length mismatch");
    rows[..need].chunks(stride.max(1))
}

/// [`eliminate`]'s column walk over one tier's one-term pass: `step(u, c,
/// row)` adds `c·row` to `u`, and is handed the tails from the start of the
/// `lane`-byte lane holding column `j` — moved back to keep a whole lane
/// when the vector ends sooner (`u` is at least `lane` long). Row `j` is
/// zero before column `j`, so the columns skipped lose nothing.
#[inline(always)]
fn walk(
    u: &mut [u8],
    rows: &[u8],
    stride: usize,
    lane: usize,
    mut step: impl FnMut(&mut [u8], u8, &[u8]),
) -> Option<usize> {
    let len = u.len();
    for (j, row) in rows_of(rows, stride, len).enumerate() {
        let c = u[j];
        if c == 0 {
            continue;
        }
        let row = &row[..len];
        if row[j] == 0 {
            return Some(j);
        }
        let from = (j - j % lane).min(len - lane);
        step(&mut u[from..], c, &row[from..]);
        u[j] = c;
    }
    None
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{rows_of, walk, Gf256, Terms, MUL_HI, MUL_LO};
    use core::arch::x86_64::*;

    /// Runs `$pass::<N>` over runs of up to `$max` consecutive terms — a
    /// run's size is a const, so its coefficients live in registers, and
    /// the pass takes the run's rows from the terms ([`Terms::rows`]) —
    /// with the scale `$s` applied by the first pass only. A run whose
    /// coefficients are all zero adds nothing, and its rows are not read.
    macro_rules! in_groups {
        ($pass:ident::<$($n:literal)* | $max:literal>($dst:ident, $s:ident, $terms:ident)) => {{
            let count = $terms.count();
            let (mut s, mut at) = ($s, 0);
            while count - at >= $max {
                let c = coeffs::<$max>(&$terms, at);
                if s != 1 || c != [0; $max] {
                    $pass($dst, s, c, &$terms, at);
                    s = 1;
                }
                at += $max;
            }
            match count - at {
                $($n => {
                    let c = coeffs::<$n>(&$terms, at);
                    if s != 1 || c != [0; $n] {
                        $pass($dst, s, c, &$terms, at);
                    }
                })*
                _ => {
                    if s != 1 {
                        $pass::<0>($dst, s, [], &$terms, at);
                    }
                }
            }
        }};
    }

    /// The coefficients of the `N` terms from `at`. A loop, not
    /// `array::from_fn`: a closure made inside a `target_feature` function
    /// carries its features, so `from_fn` could not inline it.
    #[inline(always)]
    fn coeffs<const N: usize>(terms: &impl Terms, at: usize) -> [u8; N] {
        let mut c = [0; N];
        for (i, c) in c.iter_mut().enumerate() {
            *c = terms.coeff(at + i);
        }
        c
    }

    /// `dst ← s·dst ⊕ Σ cⱼ·rowⱼ`, 64-byte lanes, groups of 8.
    ///
    /// # Safety
    ///
    /// Callers not compiled for gfni, avx512f and avx512bw must have detected them.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) fn fused_gfni(dst: &mut [u8], s: u8, terms: impl Terms) {
        in_groups!(pass_gfni::<1 2 3 4 5 6 7 | 8>(dst, s, terms));
    }

    /// One group: `dst ← s·dst ⊕ Σ c[j]·src[j]`, each lane of `dst` loaded
    /// and stored once.
    ///
    /// # Panics
    ///
    /// Panics unless `dst` holds a whole 64-byte lane and every source has
    /// its length.
    ///
    /// # Safety
    ///
    /// Callers not compiled for gfni, avx512f and avx512bw must have detected them.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    fn pass_gfni<const N: usize>(dst: &mut [u8], s: u8, c: [u8; N], t: &impl Terms, first: usize) {
        let len = dst.len();
        assert!(len >= 64, "pass_gfni needs a whole lane");
        let src: [*const u8; N] = t.rows(first, len);
        let dp = dst.as_mut_ptr();
        let whole = len - len % 64;
        let scale = _mm512_set1_epi8(s as i8);
        let mut coef = [scale; N];
        for (v, &c) in coef.iter_mut().zip(&c) {
            *v = _mm512_set1_epi8(c as i8);
        }
        // SAFETY: every load and store is of 64 bytes at an offset `at`
        // with `at + 64 <= len`, of dst or of a source `Terms::rows`
        // checked to be readable for `len` bytes. Whole lanes are `i..i + 64` with
        // `i + 64 <= whole`; the partial last lane is the one at
        // `len - 64..len` (in bounds as `len >= 64`), written back under a
        // mask that leaves the bytes before `whole` as they were.
        unsafe {
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
    }

    /// `dst ← s·dst ⊕ Σ cⱼ·rowⱼ`, 32-byte lanes, groups of 4.
    ///
    /// # Safety
    ///
    /// Callers not compiled for avx2 must have detected it.
    #[target_feature(enable = "avx2")]
    pub(super) fn fused_avx2(dst: &mut [u8], s: u8, terms: impl Terms) {
        in_groups!(pass_avx2::<1 2 3 | 4>(dst, s, terms));
    }

    /// `0x00 × 32` then `0xFF × 32`: the 32-byte window at byte offset `t`
    /// is a blend mask selecting the last `t` bytes of a lane.
    static LAST: [[u8; 32]; 2] = [[0x00; 32], [0xFF; 32]];

    /// One group: `dst ← s·dst ⊕ Σ c[j]·src[j]`, each lane of `dst` loaded
    /// and stored once.
    ///
    /// # Panics
    ///
    /// Panics unless `dst` holds a whole 32-byte lane and every source has
    /// its length.
    ///
    /// # Safety
    ///
    /// Callers not compiled for avx2 must have detected it.
    #[target_feature(enable = "avx2")]
    fn pass_avx2<const N: usize>(dst: &mut [u8], s: u8, c: [u8; N], t: &impl Terms, first: usize) {
        let len = dst.len();
        assert!(len >= 32, "pass_avx2 needs a whole lane");
        let src: [*const u8; N] = t.rows(first, len);
        let dp = dst.as_mut_ptr();
        let whole = len - len % 32;
        let nibble = _mm256_set1_epi8(0x0F);
        let mul = |x: __m256i, lo: __m256i, hi: __m256i| {
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, nibble));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(x), nibble));
            _mm256_xor_si256(l, h)
        };
        // SAFETY: every table load reads one 16-byte row of MUL_LO /
        // MUL_HI. Every lane load and store is of 32 bytes at an offset
        // `at` with `at + 32 <= len`, of dst or of a source `Terms::rows`
        // checked to be readable for `len` bytes. Whole lanes are `i..i + 32` with
        // `i + 32 <= whole`; the partial last lane is the one at
        // `len - 32..len` (in bounds as `len >= 32`), written back blended
        // so the bytes before `whole` stay as they were. The `LAST` window
        // starts at `len % 32 < 32`, so it ends inside the 64-byte table.
        unsafe {
            let table =
                |row: &[u8; 16]| _mm256_broadcastsi128_si256(_mm_loadu_si128(row.as_ptr().cast()));
            let (slo, shi) = (table(&MUL_LO[s as usize]), table(&MUL_HI[s as usize]));
            let (mut lo, mut hi) = ([slo; N], [shi; N]);
            for j in 0..N {
                (lo[j], hi[j]) = (table(&MUL_LO[c[j] as usize]), table(&MUL_HI[c[j] as usize]));
            }
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

    /// [`super::eliminate`] on 32-byte lanes: the walk over one-term passes
    /// (`u` is at least 32 bytes).
    ///
    /// # Safety
    ///
    /// Callers not compiled for avx2 must have detected it.
    #[target_feature(enable = "avx2")]
    pub(super) fn eliminate_avx2(u: &mut [u8], rows: &[u8], stride: usize) -> Option<usize> {
        walk(u, rows, stride, 32, |u, c, row| {
            pass_avx2(u, 1, [c], &(Gf256(c), row), 0)
        })
    }

    /// [`super::eliminate`] on 64-byte lanes. A vector of up to 128 bytes
    /// stays in two registers for the whole walk: each step broadcasts
    /// column `j` out of them, and a byte mask keeps column `j` out of the
    /// update, so it holds the multiple taken without a write-back. A
    /// longer one walks over one-term passes.
    ///
    /// # Safety
    ///
    /// Callers not compiled for gfni, avx512f and avx512bw must have detected them.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) fn eliminate_gfni(u: &mut [u8], rows: &[u8], stride: usize) -> Option<usize> {
        let len = u.len();
        if len > 128 {
            return walk(u, rows, stride, 64, |u, c, row| {
                pass_gfni(u, 1, [c], &(Gf256(c), row), 0)
            });
        }
        // The masks of the vector's bytes in its first lane and its second.
        let first = |n: usize| u64::MAX.checked_shr(64 - n as u32).unwrap_or(0);
        let (m0, m1) = (first(len.min(64)), first(len.saturating_sub(64)));
        // SAFETY: called below on `u` and on rows cut to `u`'s length only,
        // with `(0, m0)` or `(64, m1)`: the mask selects bytes inside the
        // slice, and masked-off bytes are not read (AVX-512 suppresses
        // their faults), so the address past the slice is never accessed.
        let load = |v: &[u8], at: usize, m| unsafe {
            _mm512_maskz_loadu_epi8(m, v.as_ptr().wrapping_add(at).cast())
        };
        // Byte `i` of `v` in every byte: its dword everywhere, then the
        // byte within it.
        let broadcast = |v, i: usize| {
            let dword = _mm512_permutexvar_epi32(_mm512_set1_epi32((i / 4) as i32), v);
            _mm512_shuffle_epi8(dword, _mm512_set1_epi8((i % 4) as i8))
        };
        let (mut lo, mut hi) = (load(u, 0, m0), load(u, 64, m1));
        let mut pivot = None;
        for (j, row) in rows_of(rows, stride, len).enumerate() {
            let c = broadcast(if j < 64 { lo } else { hi }, j % 64);
            if _mm_cvtsi128_si32(_mm512_castsi512_si128(c)) as u8 == 0 {
                continue;
            }
            let row = &row[..len];
            if row[j] == 0 {
                pivot = Some(j);
                break;
            }
            let keep = !(1 << (j % 64));
            if j < 64 {
                lo = _mm512_xor_si512(lo, _mm512_maskz_gf2p8mul_epi8(keep, load(row, 0, m0), c));
                hi = _mm512_xor_si512(hi, _mm512_gf2p8mul_epi8(load(row, 64, m1), c));
            } else {
                hi = _mm512_xor_si512(hi, _mm512_maskz_gf2p8mul_epi8(keep, load(row, 64, m1), c));
            }
        }
        // SAFETY: as for `load`, the masks select bytes of `u` only.
        unsafe {
            _mm512_mask_storeu_epi8(u.as_mut_ptr().cast(), m0, lo);
            _mm512_mask_storeu_epi8(u.as_mut_ptr().wrapping_add(64).cast(), m1, hi);
        }
        pivot
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

    /// The tiers this CPU has, narrowest first.
    fn tiers() -> Vec<Tier> {
        [Tier::Table, Tier::Avx2, Tier::Gfni]
            .into_iter()
            .filter(|&t| t <= detected())
            .collect()
    }

    /// Lengths around every lane boundary of every tier, and the two the
    /// simulator uses (1500 B payload, 1628 B flat K=128 packet).
    const LENS: [usize; 15] = [
        0, 1, 15, 16, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1500, 1628,
    ];
    /// Term counts around the group sizes (4, 8).
    const TERMS: [usize; 8] = [0, 1, 7, 8, 9, 16, 17, 128];

    /// A coefficient: every fifth zero, every fifth one, the rest other.
    fn coefficient(j: usize, salt: u8) -> u8 {
        match j % 5 {
            0 => 0,
            1 => 1,
            _ => salt | 2,
        }
    }

    #[test]
    fn every_tier_this_cpu_has_matches_scalar() {
        let tiers = tiers();
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
                                let c = coefficient(j, rows[j][0]);
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
                        fused(tier, &mut got[1..=len], Gf256(s), &terms[..]);
                        assert_eq!(got, want, "{tier:?} len={len} terms={n} s={s:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_tier_combines_rows_in_place_like_scalar() {
        // Row counts across the groups of 4 and 8, lengths 1–200 and the
        // two payload lengths, strides at and past the row length.
        let (counts, lens): (Vec<usize>, Vec<usize>) = if cfg!(miri) {
            (vec![0, 1, 9], vec![1, 31, 33])
        } else {
            (
                (0..=17)
                    .chain([31, 32, 33, 63, 64, 65, 127, 128, 129, 130])
                    .collect(),
                (1..=200).chain([1500, 1536]).collect(),
            )
        };
        let tiers = tiers();
        println!("gf256::wide: axpy_rows verified against scalar on {tiers:?}");
        let max_n = *counts.iter().max().unwrap_or(&0);
        for &len in &lens {
            for stride in [len, len + 1, len.next_multiple_of(64) + 64] {
                let block = noise(max_n * stride + 1, len as u64);
                let listed: Vec<Vec<u8>> = (0..max_n)
                    .map(|j| noise(len, (len * 1000 + j) as u64))
                    .collect();
                let coeffs: Vec<u8> = (0..max_n)
                    .map(|j| coefficient(j, block[j * stride]))
                    .collect();
                for &n in &counts {
                    let base = noise(len, 7 + n as u64);
                    let strided_rows = (0..n).map(|j| &block[j * stride..j * stride + len]);
                    let mut want_strided = base.clone();
                    let mut want_listed = base.clone();
                    for (j, row) in strided_rows.enumerate() {
                        scalar::mul_add_assign(&mut want_strided, row, Gf256(coeffs[j]));
                        scalar::mul_add_assign(&mut want_listed, &listed[j], Gf256(coeffs[j]));
                    }
                    for &tier in &tiers {
                        let mut got = base.clone();
                        let terms = Strided {
                            coeffs: &coeffs[..n],
                            block: &block,
                            stride,
                        };
                        fused(tier, &mut got, Gf256::ONE, terms);
                        assert_eq!(got, want_strided, "{tier:?} strided len={len} n={n}");

                        let mut got = base.clone();
                        let list = &listed[..n];
                        let terms = Listed {
                            coeffs: &coeffs[..n],
                            list,
                        };
                        fused(tier, &mut got, Gf256::ONE, terms);
                        assert_eq!(got, want_listed, "{tier:?} listed len={len} n={n}");
                    }
                }
            }
        }
    }

    /// [`eliminate`] as the tracker first wrote it: a whole-row scalar pass
    /// per stored row met, and the multiple written back.
    fn eliminate_reference(u: &mut [u8], rows: &[u8], stride: usize) -> Option<usize> {
        let len = u.len();
        for j in 0..len {
            let row = &rows[j * stride..j * stride + len];
            let c = u[j];
            if c == 0 {
                continue;
            }
            if row[j] == 0 {
                return Some(j);
            }
            scalar::mul_add_assign(u, row, Gf256(c));
            u[j] = c;
        }
        None
    }

    /// An echelon matrix of `k` rows, `stride` bytes apart: row `j` stored
    /// (zero before `j`, 1 at it, noise after) unless `j % gap == gap - 1`.
    fn echelon(k: usize, stride: usize, gap: usize, salt: u64) -> Vec<u8> {
        let mut m = noise(k * stride, salt);
        for j in 0..k {
            let row = &mut m[j * stride..j * stride + k];
            if j % gap == gap - 1 {
                row.fill(0);
            } else {
                row[..j].fill(0);
                row[j] = 1;
            }
        }
        m
    }

    #[test]
    fn every_tier_eliminates_like_scalar() {
        let ks: &[usize] = if cfg!(miri) {
            &[1, 8, 9]
        } else {
            &[
                0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 200,
            ]
        };
        let tiers = tiers();
        println!("gf256::wide: eliminate verified against scalar on {tiers:?}");
        for &k in ks {
            for gap in [2, 5, usize::MAX] {
                let stride = k.next_multiple_of(64).max(1);
                let rows = echelon(k, stride, gap, k as u64);
                // Random vectors, sparse ones and combinations of the
                // stored rows (dependent when every row is stored).
                let mut cases: Vec<Vec<u8>> = (0..6).map(|i| noise(k, 31 * i + k as u64)).collect();
                cases.push(vec![0; k]);
                let mut sparse = noise(k, 5);
                sparse.iter_mut().step_by(3).for_each(|b| *b = 0);
                cases.push(sparse);
                let mut combo = vec![0u8; k];
                for j in (0..k).filter(|j| j % gap != gap - 1) {
                    let row = &rows[j * stride..j * stride + k];
                    scalar::mul_add_assign(&mut combo, row, Gf256(j as u8 | 1));
                }
                cases.push(combo);
                for u in cases {
                    let mut want = u.clone();
                    let want_pivot = eliminate_reference(&mut want, &rows, stride);
                    for &tier in &tiers {
                        let mut got = u.clone();
                        let pivot = eliminate_on(tier, &mut got, &rows, stride);
                        assert_eq!(
                            (pivot, &got),
                            (want_pivot, &want),
                            "{tier:?} k={k} gap={gap}"
                        );
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

                let mut got = base.clone();
                axpy_rows(&mut got, &[c], Rows::Listed(&[&src]));
                assert_eq!(got, want, "axpy_rows len={len} c={c:#x}");

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

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn a_short_block_panics() {
        let block = [1u8; 10];
        axpy_rows(&mut [0u8; 4], &[1, 1, 1], Rows::strided(&block, 4));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn a_short_source_panics_under_a_zero_coefficient() {
        mul_add_assign(&mut [0u8; 100], &[1u8; 99], Gf256::ZERO);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn a_block_short_of_a_zero_coefficients_row_panics() {
        let block = [1u8; 64];
        axpy_rows(&mut [0u8; 64], &[1, 0], Rows::strided(&block, 64));
    }

    /// A call with a missing or short row panics on entry on every tier,
    /// whatever the row's coefficient: whether it panics depends on
    /// neither.
    #[test]
    fn every_tier_rejects_a_missing_or_short_row_under_a_zero_coefficient() {
        for tier in tiers() {
            for len in [16usize, 64, 100] {
                let (row, short) = (vec![1u8; len], vec![1u8; len - 1]);
                let mut dst = vec![0u8; len];
                let mut panics = |what: &str, call: &dyn Fn(&mut [u8])| {
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        call(&mut dst);
                    }));
                    assert!(caught.is_err(), "{what}: no panic on {tier:?}, len {len}");
                };
                panics("short source", &|d| {
                    fused(tier, d, Gf256::ONE, (Gf256::ZERO, &short[..]));
                });
                panics("scaled into from a short source", &|d| {
                    fused(tier, d, Gf256::ZERO, (Gf256::ZERO, &short[..]));
                });
                let pairs = [(Gf256::ONE, &row[..]), (Gf256::ZERO, &short[..])];
                panics("short pair", &|d| fused(tier, d, Gf256::ONE, &pairs[..]));
                panics("one-row block", &|d| {
                    let (coeffs, block, stride) = (&[1, 0][..], &row[..], len);
                    fused(
                        tier,
                        d,
                        Gf256::ONE,
                        Strided {
                            coeffs,
                            block,
                            stride,
                        },
                    );
                });
                panics("one-row list", &|d| {
                    let list = [&row[..]];
                    fused(
                        tier,
                        d,
                        Gf256::ONE,
                        Listed {
                            coeffs: &[0, 0],
                            list: &list,
                        },
                    );
                });
                panics("short listed row", &|d| {
                    let list = [&row[..], &short[..]];
                    fused(
                        tier,
                        d,
                        Gf256::ONE,
                        Listed {
                            coeffs: &[1, 0],
                            list: &list,
                        },
                    );
                });
            }
        }
    }
}
