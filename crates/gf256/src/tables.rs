//! Compile-time lookup tables for GF(2⁸) arithmetic.
//!
//! Four tables are generated in `const` context, so they live in `.rodata`
//! and cost nothing at startup:
//!
//! * [`MUL`] — the full 256×256 = 64 KiB product table the MORE paper uses
//!   (§4.6a: "a 64KiB lookup-table indexed by pairs of 8 bits"). Row `c` of
//!   the table is the map `x ↦ c·x`, which the slice kernels walk linearly.
//! * [`EXP`]/[`LOG`] — anti-log and log tables base the generator 0x03,
//!   doubled-length `EXP` so `EXP[LOG[a]+LOG[b]]` needs no reduction.
//! * [`INV`] — multiplicative inverses (`INV[0]` is 0 as a sentinel; the
//!   public API guards against inverting zero).

#![expect(
    clippy::indexing_slicing,
    reason = "the tables are built by const fns evaluated at compile time, where an out-of-bounds index is a build error"
)]

/// The AES reduction polynomial x⁸+x⁴+x³+x+1, low 8 bits (the x⁸ term is
/// implicit in the reduction step).
pub const POLY: u8 = 0x1B;

/// Bit-serial GF(2⁸) multiply used only at compile time to build the tables.
const fn mul_slow(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 == 1 {
            acc ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= POLY;
        }
        b >>= 1;
    }
    acc
}

const fn build_exp() -> [u8; 512] {
    let mut t = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 255 {
        t[i] = x;
        x = mul_slow(x, 3);
        i += 1;
    }
    // Duplicate so that EXP[i + 255] == EXP[i]; indices up to 508 are used
    // when adding two logs. Fill the rest of the array by wrapping too.
    let mut j = 255;
    while j < 512 {
        t[j] = t[j - 255];
        j += 1;
    }
    t
}

/// `EXP[i] = g^i` for the generator g = 0x03, length-doubled.
pub const EXP: [u8; 512] = build_exp();

const fn build_log() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        t[EXP[i] as usize] = i as u8;
        i += 1;
    }
    t
}

/// `LOG[a] = log_g(a)` for a ≠ 0; `LOG[0]` is 0 and must not be used.
pub const LOG: [u8; 256] = build_log();

const fn build_mul() -> [[u8; 256]; 256] {
    let mut t = [[0u8; 256]; 256];
    let mut a = 0usize;
    while a < 256 {
        let mut b = 0usize;
        while b < 256 {
            t[a][b] = mul_slow(a as u8, b as u8);
            b += 1;
        }
        a += 1;
    }
    t
}

/// The 64 KiB full multiplication table: `MUL[a][b] = a·b` in GF(2⁸).
pub static MUL: [[u8; 256]; 256] = build_mul();

const fn build_half(high: bool) -> [[u8; 16]; 256] {
    let mut t = [[0u8; 16]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut n = 0usize;
        while n < 16 {
            let x = if high { (n << 4) as u8 } else { n as u8 };
            t[c][n] = mul_slow(c as u8, x);
            n += 1;
        }
        c += 1;
    }
    t
}

/// Low-nibble half-table: `MUL_LO[c][n] = c·n` for `n < 16`.
///
/// Together with [`MUL_HI`] this splits multiplication by a fixed scalar
/// into two 16-entry lookups — `c·x = MUL_LO[c][x & 0xF] ^ MUL_HI[c][x >> 4]`
/// by linearity of the field over GF(2). The pair of 16-byte rows for one
/// scalar is 32 bytes (one cache line), and each row is exactly the shape a
/// 128-bit byte-shuffle instruction consumes, which is what the wide slice
/// kernels are built on.
pub static MUL_LO: [[u8; 16]; 256] = build_half(false);

/// High-nibble half-table: `MUL_HI[c][n] = c·(n << 4)` for `n < 16`.
///
/// See [`MUL_LO`] for the split-multiplication identity.
pub static MUL_HI: [[u8; 16]; 256] = build_half(true);

const fn build_inv() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut a = 1usize;
    while a < 256 {
        // a^-1 = g^(255 - log a)
        t[a] = EXP[255 - LOG[a] as usize];
        a += 1;
    }
    t
}

/// Multiplicative inverses; `INV[0] == 0` is a sentinel, never a real inverse.
pub static INV: [u8; 256] = build_inv();

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn exp_table_wraps() {
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
        assert_eq!(EXP[0], 1);
        assert_eq!(EXP[1], 3);
    }

    #[test]
    fn log_exp_consistent() {
        for a in 1..256usize {
            assert_eq!(EXP[LOG[a] as usize] as usize, a);
        }
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "(a, b) index the full 256x256 table"
    )]
    fn mul_table_symmetric_with_identity_row() {
        for a in 0..256usize {
            assert_eq!(MUL[1][a], a as u8);
            assert_eq!(MUL[a][1], a as u8);
            assert_eq!(MUL[0][a], 0);
            for b in 0..256usize {
                assert_eq!(MUL[a][b], MUL[b][a]);
            }
        }
    }

    #[test]
    fn mul_agrees_with_log_exp() {
        for a in 1..256usize {
            for b in 1..256usize {
                let via_log = EXP[LOG[a] as usize + LOG[b] as usize];
                assert_eq!(MUL[a][b], via_log);
            }
        }
    }

    #[test]
    fn inv_table() {
        assert_eq!(INV[0], 0);
        assert_eq!(INV[1], 1);
        for a in 1..256usize {
            assert_eq!(MUL[a][INV[a] as usize], 1, "INV wrong at {a}");
        }
    }

    #[test]
    fn table_is_64kib() {
        assert_eq!(core::mem::size_of_val(&MUL), 64 * 1024);
    }

    #[test]
    fn half_tables_recombine_to_mul() {
        for c in 0..256usize {
            for x in 0..256usize {
                let split = MUL_LO[c][x & 0xF] ^ MUL_HI[c][x >> 4];
                assert_eq!(split, MUL[c][x], "half-table mismatch at {c}·{x}");
            }
        }
        assert_eq!(core::mem::size_of_val(&MUL_LO), 4 * 1024);
        assert_eq!(core::mem::size_of_val(&MUL_HI), 4 * 1024);
    }
}
