//! Algorithm 2: the row-echelon innovativeness check.
//!
//! "Each node keeps code vectors of the packets in its buffer in a row
//! echelon form. Specifically, they are stored in a triangular matrix M of K
//! rows with some of the rows missing, thus for each stored row, the
//! smallest index of a non-zero element is distinct." (§3.2.3b)
//!
//! The tracker operates on code vectors only — payloads are never touched —
//! which is why checking innovativeness "is fairly cheap" compared to coding
//! or decoding (Table 4.1). Forwarders and destinations both run it: a
//! [`crate::Decoder`] is a tracker plus one payload row per stored vector,
//! combined the way [`InnovationTracker`]'s insert reports.
//!
//! The K rows live in one matrix from [`crate::pool`], one more row past
//! them holding the vector being reduced, so steady-state rank tracking
//! never touches the allocator.

use crate::pool::{self, Matrix};
use crate::rows::AlignedRows;
use gf256::{slice_ops, Gf256};

/// Incremental rank tracker over code vectors (Algorithm 2).
#[derive(Debug)]
pub struct InnovationTracker {
    /// K + 1 rows of K bytes. Stored row `i` is zero before column `i` and
    /// 1 at it; a row not stored is all zero. Row K is the vector being
    /// reduced.
    rows: AlignedRows,
    rank: usize,
}

impl InnovationTracker {
    /// An empty tracker for batch size `k`.
    pub fn new(k: usize) -> Self {
        InnovationTracker {
            rows: pool::acquire_rows(Matrix::Vectors, k + 1, k),
            rank: 0,
        }
    }

    /// Batch size K.
    #[inline]
    pub fn k(&self) -> usize {
        self.rows.width()
    }

    /// Number of linearly independent vectors absorbed so far.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// True when rank has reached K (a full batch of information).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.rank == self.k()
    }

    /// Would `v` be innovative? [`Self::absorb`] without storing anything.
    pub fn is_innovative(&mut self, v: impl AsRef<[u8]>) -> bool {
        let v = v.as_ref();
        assert_eq!(v.len(), self.k(), "vector length != K");
        !self.is_full() && self.reduce(v).is_some()
    }

    /// Algorithm 2: reduce `v` against the stored rows; if a pivot remains,
    /// store the reduced, normalized vector and report `true` (innovative).
    ///
    /// Returns `false` — "discard packet" — when `v` is a linear combination
    /// of what the node already holds, and at once when that is everything.
    pub fn absorb(&mut self, v: impl AsRef<[u8]>) -> bool {
        self.insert(v.as_ref()).is_some()
    }

    /// [`Self::absorb`], reporting how: the pivot `p` the vector fills,
    /// the normaliser `inv`, and the multiple of each stored row before
    /// `p` that the reduction took (zero for a row it did not meet). The
    /// row stored is `inv · (v + Σⱼ multipleⱼ · rowⱼ)`; `None` when `v` is
    /// dependent. The multiples are the tracker's scratch, the caller's to
    /// overwrite until the next vector is reduced.
    pub(crate) fn insert(&mut self, v: &[u8]) -> Option<(usize, Gf256, &mut [u8])> {
        assert_eq!(v.len(), self.k(), "vector length != K");
        if self.is_full() {
            return None;
        }
        let (pivot, lead) = self.reduce(v)?;
        self.rank += 1;
        let (row, u) = self.rows.pair_mut(pivot, self.k());
        let (multiples, reduced) = u.split_at_mut(pivot);
        let inv = lead.inv();
        // The zeros before the pivot are there already.
        slice_ops::mul_into(row.get_mut(pivot..).unwrap_or_default(), reduced, inv);
        Some((pivot, inv, multiples))
    }

    /// Copies `v` into row K and reduces it against the stored rows in
    /// pivot order until it is non-zero at a column no stored row leads:
    /// the pivot it would fill, with the value there, or `None` once it
    /// has reduced to zero (dependent). Each stored row `j` it passes
    /// leaves in column `j` the multiple of that row taken. One
    /// [`slice_ops::eliminate`] over the matrix in place.
    fn reduce(&mut self, v: &[u8]) -> Option<(usize, Gf256)> {
        let stride = self.rows.stride();
        let (stored, u, _) = self.rows.split_mut(self.k());
        u.copy_from_slice(v);
        let pivot = slice_ops::eliminate(u, stored, stride)?;
        u.get(pivot).map(|&lead| (pivot, Gf256(lead)))
    }

    /// Stored row `i`, writable (empty past the last row): the decoder's
    /// back-substitution clears it right of the diagonal.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u8] {
        self.rows.row_mut(i)
    }

    /// Row `i` (row K is the last vector reduced).
    #[cfg(test)]
    pub(crate) fn row(&self, i: usize) -> &[u8] {
        self.rows.row(i)
    }

    /// Clears all state (e.g. when a batch is flushed), keeping the storage.
    pub fn reset(&mut self) {
        self.rows.zero();
        self.rank = 0;
    }
}

impl Drop for InnovationTracker {
    /// Returns the matrix to the pool, for the next batch's tracker.
    fn drop(&mut self) {
        pool::release_rows(Matrix::Vectors, std::mem::take(&mut self.rows));
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn unit(k: usize, i: usize) -> Vec<u8> {
        let mut v = vec![0; k];
        v[i] = 1;
        v
    }

    fn random(k: usize, rng: &mut ChaCha8Rng) -> Vec<u8> {
        let mut v = vec![0; k];
        rng.fill(&mut v[..]);
        v
    }

    #[test]
    fn zero_vector_is_never_innovative() {
        let mut t = InnovationTracker::new(4);
        assert!(!t.is_innovative([0u8; 4]));
        assert!(!t.absorb([0u8; 4]));
        assert_eq!(t.rank(), 0);
    }

    #[test]
    fn unit_vectors_fill_the_tracker() {
        let mut t = InnovationTracker::new(3);
        for i in 0..3 {
            assert!(t.absorb(unit(3, i)));
        }
        assert!(t.is_full());
        assert_eq!(t.rank(), 3);
        // Anything further is dependent.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..10 {
            assert!(!t.absorb(random(3, &mut rng)));
        }
    }

    #[test]
    fn duplicate_is_not_innovative() {
        let mut t = InnovationTracker::new(4);
        let a = [1u8, 2, 3, 4];
        assert!(t.absorb(a));
        assert!(!t.is_innovative(a));
        assert!(!t.absorb(a));
        assert_eq!(t.rank(), 1);
    }

    #[test]
    fn scaled_copy_is_not_innovative() {
        let mut t = InnovationTracker::new(4);
        assert!(t.absorb([1u8, 2, 3, 4]));
        let mut scaled = [1u8, 2, 3, 4];
        slice_ops::mul_assign(&mut scaled, Gf256(7));
        assert!(!t.absorb(scaled));
    }

    #[test]
    fn combination_of_absorbed_is_not_innovative() {
        let mut t = InnovationTracker::new(4);
        let (a, b) = ([1u8, 2, 3, 4], [5u8, 6, 7, 8]);
        assert!(t.absorb(a));
        assert!(t.absorb(b));
        let mut combo = a;
        slice_ops::mul_add_assign(&mut combo, &b, Gf256(0x41));
        assert!(!t.is_innovative(combo));
        assert!(!t.absorb(combo));
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn is_innovative_agrees_with_absorb_and_does_not_mutate() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut t = InnovationTracker::new(8);
        for _ in 0..40 {
            let u = random(8, &mut rng);
            let pre_rank = t.rank();
            let stored: Vec<Vec<u8>> = (0..8).map(|i| t.row(i).to_vec()).collect();
            let predicted = t.is_innovative(&u);
            assert!((0..8).all(|i| t.row(i) == stored[i]), "a check stored");
            let actual = t.absorb(&u);
            assert_eq!(predicted, actual);
            assert_eq!(t.rank(), pre_rank + usize::from(actual));
        }
        assert!(t.is_full(), "40 random vectors should fill K=8 w.h.p.");
    }

    #[test]
    fn insert_reports_the_combination_it_stored() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let k = 6;
        let mut t = InnovationTracker::new(k);
        while !t.is_full() {
            let v = random(k, &mut rng);
            let before: Vec<Vec<u8>> = (0..k).map(|i| t.row(i).to_vec()).collect();
            let Some((pivot, inv, multiples)) = t.insert(&v) else {
                continue;
            };
            // inv · (v + Σⱼ multipleⱼ · rowⱼ), from the rows as they were.
            let mut want = v.clone();
            for (j, &c) in multiples.iter().enumerate() {
                slice_ops::mul_add_assign(&mut want, &before[j], Gf256(c));
            }
            slice_ops::mul_assign(&mut want, inv);
            assert_eq!(t.row(pivot), &want[..]);
            assert_eq!(t.row(pivot)[pivot], 1, "pivot not normalized");
            assert!(before[pivot].iter().all(|&b| b == 0), "pivot was stored");
        }
    }

    /// Algorithm 2 in plain scalar field arithmetic, a byte at a time: the
    /// reference the tracker's one-dispatch elimination is held to.
    struct Gauss {
        /// Row `i`: stored (zero before `i`, 1 at it) or all zero.
        rows: Vec<Vec<Gf256>>,
    }

    impl Gauss {
        fn new(k: usize) -> Self {
            Gauss {
                rows: vec![vec![Gf256::ZERO; k]; k],
            }
        }

        /// `(pivot, inv, multiples)` as [`InnovationTracker::insert`]
        /// reports them, storing the row; `None` when dependent.
        fn insert(&mut self, v: &[u8]) -> Option<(usize, Gf256, Vec<u8>)> {
            let mut u: Vec<Gf256> = v.iter().map(|&b| Gf256(b)).collect();
            let mut multiples = Vec::new();
            for j in 0..u.len() {
                let c = u[j];
                if !c.is_zero() && self.rows[j][j].is_zero() {
                    let inv = c.inv();
                    let stored: Vec<Gf256> = u.iter().map(|&x| x * inv).collect();
                    self.rows[j][j..].copy_from_slice(&stored[j..]);
                    return Some((j, inv, multiples));
                }
                for (x, &y) in u.iter_mut().zip(&self.rows[j]) {
                    *x += c * y;
                }
                multiples.push(c.0);
            }
            None
        }
    }

    #[test]
    fn elimination_matches_a_scalar_gauss_reference() {
        let ks: &[usize] = if cfg!(miri) {
            &[1, 7, 8, 9]
        } else {
            &[1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128]
        };
        for &k in ks {
            let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
            let mut t = InnovationTracker::new(k);
            let mut gauss = Gauss::new(k);
            let mut heard: Vec<Vec<u8>> = Vec::new();
            let (mut dependent, mut step) = (0, 0);
            while !t.is_full() {
                // The zero vector first; then random, a duplicate of the
                // last vector heard, and a combination of everything
                // heard, in turn.
                let v = match (step % 3, heard.last()) {
                    (_, None) => vec![0; k],
                    (1, Some(last)) => last.clone(),
                    (2, Some(_)) => {
                        let mut combo = vec![0u8; k];
                        for h in &heard {
                            slice_ops::mul_add_assign(&mut combo, h, Gf256(rng.gen()));
                        }
                        combo
                    }
                    _ => random(k, &mut rng),
                };
                step += 1;
                let want = gauss.insert(&v);
                let got = t.insert(&v).map(|(p, inv, m)| (p, inv, m.to_vec()));
                assert_eq!(got, want, "K = {k}, step {step}");
                dependent += usize::from(got.is_none());
                heard.push(v);
                for (i, row) in gauss.rows.iter().enumerate() {
                    let bytes: Vec<u8> = row.iter().map(|x| x.0).collect();
                    assert_eq!(t.row(i), &bytes[..], "K = {k}, row {i}, step {step}");
                }
            }
            assert!(
                dependent > usize::from(k > 1),
                "K = {k}: too little dependent"
            );
        }
    }

    #[test]
    fn reset_empties() {
        let mut t = InnovationTracker::new(2);
        t.absorb([1u8, 0]);
        t.absorb([0u8, 1]);
        assert!(t.is_full());
        t.reset();
        assert_eq!(t.rank(), 0);
        assert!(t.absorb([1u8, 0]));
    }

    #[test]
    fn rank_bounded_by_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut t = InnovationTracker::new(4);
        let mut innovative = 0;
        for _ in 0..100 {
            if t.absorb(random(4, &mut rng)) {
                innovative += 1;
            }
        }
        assert_eq!(innovative, 4);
        assert_eq!(t.rank(), 4);
    }

    #[test]
    fn a_full_tracker_rejects_without_touching_its_rows() {
        let k = 16;
        let mut t = InnovationTracker::new(k);
        for i in 0..k {
            assert!(t.absorb(unit(k, i)));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut vectors: Vec<Vec<u8>> = (0..10).map(|_| random(k, &mut rng)).collect();
        vectors.push(vec![0; k]);
        let outstanding = pool::outstanding();
        for u in &vectors {
            // The full walk answers the same: everything reduces to zero.
            assert_eq!(t.reduce(u), None);
            assert!(!t.is_innovative(u));
            assert!(!t.absorb(u));
        }
        assert_eq!(pool::outstanding(), outstanding);
        assert_eq!(t.rank(), k);
        for i in 0..k {
            assert_eq!(t.row(i), unit(k, i));
        }
    }
}
