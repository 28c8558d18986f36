//! The destination's decoder (§3.1.3, §3.2.3b).
//!
//! The destination keeps what it receives in row-echelon form: stored row
//! `i` is zero before column `i` and 1 at it. "Once the destination
//! receives the Kth innovative packet, it decodes the whole batch."
//!
//! While the batch fills, an arrival's code vector is reduced against the
//! stored rows in pivot order, one K-byte step per stored row it meets,
//! until it reaches a column no stored row leads: that is its pivot. A
//! vector that reduces to zero is dependent, and the packet is rejected
//! there without a single payload byte read — so a payload still pending
//! (see [`CodedPacket`]) is never computed. An innovative packet's payload
//! takes the same combination, normalized, in one fused [`axpy_chunked`]
//! pass: `row = inv · (packet + Σⱼ cⱼ · rowⱼ)` over the rows `j` it met.
//!
//! At rank K the rows are upper triangular with a unit diagonal, and one
//! back-substitution, a fused pass per row from the last to the first,
//! clears every entry right of the diagonal: the vectors become the
//! identity and the payloads *are* the native packets. Keeping the matrix
//! reduced at every arrival instead would cost the same number of
//! row-times-coefficient terms, but as one unfused whole-row pass per
//! stored row per arrival, each reading and writing its destination row.
//!
//! Rows are stored flat, in one matrix of K rows of `[payload | pad |
//! vector]`, every payload on a 64-byte boundary (see [`crate::rows`]).
//! The matrix and the vectors being reduced cycle through [`crate::pool`],
//! so a steady-state destination decodes without touching the allocator.

#![expect(
    clippy::indexing_slicing,
    reason = "Gaussian elimination is index arithmetic by nature: every column index here is below k == the vector length, pinned by Decoder::new and the receive() length asserts, and every row is vector_at + k bytes with vector_at >= payload_len"
)]

use crate::packet::{axpy_chunked, CodedPacket};
use crate::rows::{AlignedRows, ALIGN};
use crate::{pool, CodingError};
use gf256::{slice_ops, Gf256};

/// Row-echelon decoder for one batch, back-substituted at rank K.
#[derive(Debug)]
pub struct Decoder {
    k: usize,
    payload_len: usize,
    /// Where a row's vector starts: the payload length rounded up to a
    /// 64-byte boundary.
    vector_at: usize,
    /// Row `i` is `[payload | pad | vector]`. A stored row's vector is
    /// zero before column `i` and 1 at it; a row not stored is all zero.
    rows: AlignedRows,
    rank: usize,
}

/// The first `len` bytes of a row: its payload.
fn payload(row: &[u8], len: usize) -> &[u8] {
    &row[..len]
}

/// A row's payload, and its vector (which starts at byte `at`) from
/// column `from` on.
fn split_row(row: &mut [u8], at: usize, len: usize, from: usize) -> (&mut [u8], &mut [u8]) {
    let (payload, vector) = row.split_at_mut(at);
    (&mut payload[..len], &mut vector[from..])
}

impl Decoder {
    /// An empty decoder for batch size `k`, payload size `payload_len`.
    pub fn new(k: usize, payload_len: usize) -> Self {
        let vector_at = payload_len.next_multiple_of(ALIGN);
        Decoder {
            k,
            payload_len,
            vector_at,
            rows: pool::acquire_rows(k, vector_at + k),
            rank: 0,
        }
    }

    /// Batch size K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Payload size in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Rank accumulated so far.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// True once K innovative packets have been absorbed.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.rank == self.k
    }

    /// Reduces `u`, an arriving code vector, against the stored rows in
    /// pivot order until it is non-zero at a column no stored row leads:
    /// the pivot it would fill, with the value there, or `None` once it
    /// has reduced to zero
    /// (dependent). Each stored row `j` it passes leaves in `u[j]` the
    /// multiple of that row taken (zero when none was).
    fn reduce(&self, u: &mut [u8]) -> Option<(usize, Gf256)> {
        for (j, row) in self.rows.rows().enumerate() {
            let (Some(&c), Some(v)) = (u.get(j), row.get(self.vector_at..)) else {
                break;
            };
            if c == 0 {
                continue;
            }
            if v.get(j) == Some(&0) {
                return Some((j, Gf256(c)));
            }
            // The whole vector, an aligned whole-lane pass: the row is
            // zero before column `j`, so only `u[j]` changes there — to
            // zero, and back to the multiple taken.
            slice_ops::mul_add_assign(u, v, Gf256(c));
            if let Some(at_j) = u.get_mut(j) {
                *at_j = c;
            }
        }
        None
    }

    /// Non-destructively checks whether `p` would be innovative; never,
    /// once the batch is complete.
    ///
    /// # Panics
    ///
    /// Panics if the packet's K disagrees with the decoder.
    pub fn is_innovative(&self, p: &CodedPacket) -> bool {
        assert_eq!(p.k(), self.k, "packet K != decoder K");
        if self.is_complete() {
            return false;
        }
        let mut u = pool::acquire_vec(self.k);
        u.copy_from_slice(p.vector());
        let innovative = self.reduce(&mut u).is_some();
        pool::release_vec(u);
        innovative
    }

    /// Absorbs a received packet; returns `true` iff it was innovative,
    /// which it never is once the batch is complete. The K-th innovative
    /// packet decodes the batch.
    ///
    /// # Panics
    ///
    /// Panics if the packet's K or payload length disagree with the decoder.
    pub fn receive(&mut self, p: &CodedPacket) -> bool {
        assert_eq!(p.k(), self.k, "packet K != decoder K");
        assert_eq!(
            p.payload_len(),
            self.payload_len,
            "packet payload length mismatch"
        );
        if self.is_complete() {
            return false;
        }

        // The code vector alone first: a dependent packet is detected — and
        // discarded — without touching a single payload byte.
        let mut u = pool::acquire_vec(self.k);
        u.copy_from_slice(p.vector());
        let Some((pivot, lead)) = self.reduce(&mut u) else {
            pool::release_vec(u);
            return false; // dependent: discard
        };

        // Store it normalized in the empty row `pivot`: the vector from the
        // pivot on (the zeros before it are there already), and the
        // payload as the same combination, scaled, in one fused pass (none
        // when payloads are empty).
        let (len, at) = (self.payload_len, self.vector_at);
        {
            let (met, row, _) = self.rows.split_mut(pivot);
            let (row_payload, row_vector) = split_row(row, at, len, pivot);
            let (coeffs, reduced) = u.split_at(pivot);
            let inv = lead.inv();
            slice_ops::mul_into(row_vector, reduced, inv);
            if len > 0 {
                let terms = coeffs.iter().zip(met).filter(|(&c, _)| c != 0);
                axpy_chunked(
                    row_payload,
                    std::iter::once((inv, p.payload()))
                        .chain(terms.map(|(&c, r)| (inv * Gf256(c), payload(r, len)))),
                );
            }
        }
        pool::release_vec(u);

        self.rank += 1;
        if self.is_complete() {
            self.back_substitute();
        }
        true
    }

    /// At rank K: clears every entry right of the diagonal, last row
    /// first, taking each row's multiples of the rows below it — already
    /// natives by then — in one fused payload pass per row.
    fn back_substitute(&mut self) {
        let (len, at) = (self.payload_len, self.vector_at);
        for i in (0..self.k).rev() {
            let (_, row, below) = self.rows.split_mut(i);
            let (row_payload, right) = split_row(row, at, len, i + 1);
            if len > 0 {
                let terms = right.iter().zip(below).filter(|(&c, _)| c != 0);
                axpy_chunked(
                    row_payload,
                    terms.map(|(&c, r)| (Gf256(c), payload(r, len))),
                );
            }
            right.fill(0);
        }
    }

    /// Decoded native packet `i`, readable in place once the batch is
    /// complete (no per-packet copy, unlike [`Self::natives`]).
    pub fn native(&self, i: usize) -> Option<&[u8]> {
        (self.is_complete() && i < self.k).then(|| payload(self.rows.row(i), self.payload_len))
    }

    /// Returns the decoded native packets, consuming nothing; errors if the
    /// batch is not yet complete.
    pub fn natives(&self) -> Result<Vec<Vec<u8>>, CodingError> {
        if !self.is_complete() {
            return Err(CodingError::Incomplete {
                rank: self.rank,
                k: self.k,
            });
        }
        let len = self.payload_len;
        Ok(self.rows.rows().map(|r| payload(r, len).to_vec()).collect())
    }

    /// Consumes the decoder, returning the native packets.
    pub fn take_natives(self) -> Result<Vec<Vec<u8>>, CodingError> {
        self.natives()
    }

    /// Drops all state, keeping the row storage.
    pub fn reset(&mut self) {
        self.rows.zero();
        self.rank = 0;
    }
}

impl Drop for Decoder {
    /// Returns the row matrix to the pool, for the next batch's decoder.
    fn drop(&mut self) {
        pool::release_rows(std::mem::take(&mut self.rows));
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::packet::{CodeVector, SourceEncoder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn natives(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 31 + j * 7 + 1) as u8).collect())
            .collect()
    }

    #[test]
    fn decode_roundtrip_random_packets() {
        for k in [1usize, 2, 8, 32] {
            let data = natives(k, 40);
            let enc = SourceEncoder::new(data.clone()).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
            let mut dec = Decoder::new(k, 40);
            let mut received = 0;
            while !dec.is_complete() {
                dec.receive(&enc.encode(&mut rng));
                received += 1;
                assert!(received < 10 * k + 16, "decoder not converging");
            }
            assert_eq!(dec.take_natives().unwrap(), data);
        }
    }

    #[test]
    fn decode_from_unit_vectors_is_identity() {
        let data = natives(4, 10);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut dec = Decoder::new(4, 10);
        for i in [2usize, 0, 3, 1] {
            assert!(dec.receive(&enc.encode_with(CodeVector::unit(4, i))));
        }
        assert_eq!(dec.natives().unwrap(), data);
        // In-place access agrees with the copying accessor.
        for (i, d) in data.iter().enumerate() {
            assert_eq!(dec.native(i).unwrap(), &d[..]);
        }
    }

    #[test]
    fn native_is_none_until_complete() {
        let data = natives(3, 8);
        let enc = SourceEncoder::new(data).unwrap();
        let mut dec = Decoder::new(3, 8);
        assert!(dec.native(0).is_none());
        dec.receive(&enc.encode_with(CodeVector::unit(3, 0)));
        assert!(dec.native(0).is_none(), "partial batch must not decode");
    }

    #[test]
    fn dependent_packets_are_rejected() {
        let data = natives(3, 12);
        let enc = SourceEncoder::new(data).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut dec = Decoder::new(3, 12);
        let p = enc.encode(&mut rng);
        assert!(dec.receive(&p));
        assert!(!dec.receive(&p));
        assert!(!dec.is_innovative(&p));
        assert_eq!(dec.rank(), 1);
    }

    #[test]
    fn incomplete_decode_errors() {
        let dec = Decoder::new(4, 8);
        assert!(matches!(
            dec.natives(),
            Err(CodingError::Incomplete { rank: 0, k: 4 })
        ));
    }

    /// Row `i` is stored (leads with a 1 at column `i`, zeros before it)
    /// or all zero; the stored rows count the rank; and a complete
    /// decoder's vectors are the identity.
    fn assert_row_echelon(dec: &Decoder) {
        let mut stored = 0;
        for (i, row) in dec.rows.rows().enumerate() {
            let vector = &row[dec.vector_at..];
            if vector[i] == 0 {
                assert!(row.iter().all(|&b| b == 0), "row {i} half stored");
                continue;
            }
            stored += 1;
            assert_eq!(vector[i], 1, "row {i} not normalized");
            assert!(vector[..i].iter().all(|&b| b == 0), "row {i} leads early");
            if dec.is_complete() {
                assert!(
                    vector[i + 1..].iter().all(|&b| b == 0),
                    "row {i} not back-substituted"
                );
            }
            assert!(
                row[dec.payload_len..dec.vector_at].iter().all(|&b| b == 0),
                "padding written"
            );
        }
        assert_eq!(stored, dec.rank());
    }

    #[test]
    fn agrees_with_the_tracker_packet_by_packet_behind_a_recoding_forwarder() {
        // src -> forwarder (recodes) -> dst. The forwarder emits twice per
        // packet it hears, so about half of what the destination receives
        // is dependent.
        use crate::buffer::ForwarderBuffer;
        use crate::tracker::InnovationTracker;
        // Interpreted, K = 128 alone takes minutes; the smaller batches walk
        // the same code.
        let ks: &[usize] = if cfg!(miri) {
            &[1, 8]
        } else {
            &[1, 8, 32, 128]
        };
        for &k in ks {
            let data = natives(k, 100);
            let enc = SourceEncoder::new(data.clone()).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(42 + k as u64);
            let mut fwd = ForwarderBuffer::new(k, 100);
            let mut dec = Decoder::new(k, 100);
            let mut tracker = InnovationTracker::new(k);
            let (mut heard, mut dependent) = (0, 0);
            while !dec.is_complete() {
                fwd.receive(&enc.encode(&mut rng), &mut rng);
                heard += 1;
                assert!(heard < 20 * k + 20, "relay decode not converging");
                for _ in 0..2 {
                    let p = fwd.emit(&mut rng).unwrap();
                    let predicted = dec.is_innovative(&p);
                    let innovative = dec.receive(&p);
                    assert_eq!(predicted, innovative, "is_innovative vs receive");
                    assert_eq!(tracker.absorb(p.vector()), innovative, "tracker vs receive");
                    assert_eq!(dec.rank(), tracker.rank());
                    assert_row_echelon(&dec);
                    dependent += usize::from(!innovative);
                }
            }
            assert!(dependent > 0, "no dependent arrival exercised at K = {k}");
            assert_eq!(dec.take_natives().unwrap(), data, "K = {k}");
        }
    }

    #[test]
    fn partial_rank_from_partial_info() {
        // If the destination only ever hears combinations of 2 natives, the
        // rank must cap at 2.
        let data = natives(5, 20);
        let enc = SourceEncoder::new(data).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut dec = Decoder::new(5, 20);
        for _ in 0..50 {
            // Random combination of natives 0 and 1 only.
            let mut v = CodeVector::zero(5);
            v.as_bytes_mut()[0] = rng.gen_range(1..=255);
            v.as_bytes_mut()[1] = rng.gen_range(1..=255);
            dec.receive(&enc.encode_with(&v));
        }
        assert_eq!(dec.rank(), 2);
        assert!(!dec.is_complete());
    }

    #[test]
    fn a_complete_decoder_rejects_without_acquiring_a_row() {
        let (k, len) = (8, 24);
        let data = natives(k, len);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut dec = Decoder::new(k, len);
        for i in 0..k {
            assert!(dec.receive(&enc.encode_with(CodeVector::unit(k, i))));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let packets: Vec<CodedPacket> = (0..10).map(|_| enc.encode(&mut rng)).collect();
        let held = pool::hold_idle_rows();
        let outstanding = pool::outstanding();
        for p in &packets {
            // The full reduction answers the same: every vector reduces
            // to zero against the identity.
            let mut u = p.vector().to_vec();
            assert_eq!(dec.reduce(&mut u), None);
            assert!(!dec.is_innovative(p));
            assert!(!dec.receive(p));
        }
        assert_eq!((pool::idle_rows(), pool::outstanding()), (0, outstanding));
        assert_eq!(dec.rank(), k);
        held.into_iter().for_each(pool::release_vec);
        assert_eq!(dec.take_natives().unwrap(), data);
    }

    #[test]
    fn reset_restarts() {
        let data = natives(2, 4);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut dec = Decoder::new(2, 4);
        dec.receive(&enc.encode_with(CodeVector::unit(2, 0)));
        dec.reset();
        assert_eq!(dec.rank(), 0);
        dec.receive(&enc.encode_with(CodeVector::unit(2, 0)));
        dec.receive(&enc.encode_with(CodeVector::unit(2, 1)));
        assert_eq!(dec.take_natives().unwrap(), data);
    }

    use rand::Rng;
}
