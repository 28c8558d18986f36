//! Property-based equivalence of the wide kernels against the scalar
//! reference on arbitrary (coefficient, slice) inputs.
//!
//! The wide family ([`more_gf256::wide`]) must be a drop-in replacement
//! for the byte-at-a-time family ([`more_gf256::scalar`]): same bytes out
//! for every input, including lengths that end in a partial lane. These
//! go through the public API and so run the tier this CPU dispatches to;
//! `wide.rs`'s own tests drive every tier the CPU has (and print which).

use more_gf256::{scalar, slice_ops, wide, Gf256};
use proptest::prelude::*;

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256)
}

proptest! {
    #[test]
    fn wide_mul_add_assign_matches_scalar(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        src in proptest::collection::vec(any::<u8>(), 0..600),
        c in gf(),
    ) {
        let n = data.len().min(src.len());
        let mut want = data[..n].to_vec();
        scalar::mul_add_assign(&mut want, &src[..n], c);
        let mut got = data[..n].to_vec();
        wide::mul_add_assign(&mut got, &src[..n], c);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn wide_mul_assign_matches_scalar(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        c in gf(),
    ) {
        let mut want = data.clone();
        scalar::mul_assign(&mut want, c);
        let mut got = data;
        wide::mul_assign(&mut got, c);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn wide_mul_into_matches_scalar(
        src in proptest::collection::vec(any::<u8>(), 0..600),
        c in gf(),
    ) {
        let mut want = vec![0xEE; src.len()];
        scalar::mul_into(&mut want, &src, c);
        let mut got = vec![0x11; src.len()];
        wide::mul_into(&mut got, &src, c);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn wide_add_assign_matches_scalar(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        src in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let n = data.len().min(src.len());
        let mut want = data[..n].to_vec();
        scalar::add_assign(&mut want, &src[..n]);
        let mut got = data[..n].to_vec();
        wide::add_assign(&mut got, &src[..n]);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn axpy_many_matches_scalar_passes(
        // Up to 40 terms crosses the kernels' groups of 4 and 8 and rlnc's
        // chunks of 16; `skip` makes every slice an unaligned sub-slice.
        len in 0usize..300,
        skip in 0usize..4,
        dst in proptest::collection::vec(any::<u8>(), 304),
        rows in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 304)),
            0..40,
        ),
    ) {
        let terms: Vec<(Gf256, &[u8])> = rows
            .iter()
            .map(|(c, row)| (Gf256(*c), &row[skip..skip + len]))
            .collect();
        let mut fused = dst.clone();
        slice_ops::axpy_many(&mut fused[skip..skip + len], &terms);
        let mut folded = dst;
        for &(c, row) in &terms {
            scalar::mul_add_assign(&mut folded[skip..skip + len], row, c);
        }
        prop_assert_eq!(fused, folded);
    }
}
