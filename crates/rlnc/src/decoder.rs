//! The destination's incremental decoder (§3.1.3, §3.2.3b).
//!
//! The destination keeps received packets in *reduced* row-echelon form:
//! each arriving packet is forward-reduced against the stored rows (and the
//! same row operations are applied to its payload), then — if innovative —
//! its pivot column is back-eliminated from every earlier row. When rank
//! reaches K the coefficient matrix is the identity and the stored payloads
//! *are* the native packets; "once the destination receives the Kth
//! innovative packet, it decodes the whole batch".
//!
//! Keeping the matrix reduced as packets arrive is what bounds the work to
//! "2NS multiplications per packet" instead of a cubic batch-end
//! elimination.
//!
//! Rows are stored flat, `[vector | payload]` in one buffer like the packets
//! themselves, and the arithmetic is batched. Because the stored rows are
//! kept *fully* reduced (a stored pivot column is zero in every other row),
//! reducing an arrival against them never changes a coefficient a later
//! step reads, so the whole reduce → normalize → reduce sequence is one
//! linear combination with coefficients read off the arriving vector:
//! `row = inv · (packet + Σᵢ vᵢ · rowᵢ)` over the stored rows `i`. The
//! K-byte vector part is one fused [`axpy_chunked`] pass and decides
//! innovativeness — a dependent packet is rejected there, without reading
//! its payload bytes at all — and the payload part is a second. Row storage
//! cycles through [`crate::pool`], so a steady-state destination decodes
//! without touching the allocator.

// xtask: allow(panic_path, file) -- Gaussian elimination is index arithmetic by
// nature: every row index here is bounded by k == rows.len() == the vector
// length, pinned by Decoder::new and the receive() length asserts, and every
// stored row is k + payload_len long.

use crate::packet::{axpy_chunked, CodedPacket};
use crate::{pool, CodingError};
use gf256::{slice_ops, Gf256};

/// Incremental reduced-row-echelon decoder for one batch.
#[derive(Clone, Debug)]
pub struct Decoder {
    k: usize,
    payload_len: usize,
    /// `rows[i]` is the flat `[vector | payload]` row with pivot at column
    /// `i` (coefficient 1) and zeros at every other stored pivot column.
    rows: Vec<Option<Vec<u8>>>,
    rank: usize,
}

impl Decoder {
    /// An empty decoder for batch size `k`, payload size `payload_len`.
    pub fn new(k: usize, payload_len: usize) -> Self {
        Decoder {
            k,
            payload_len,
            rows: (0..k).map(|_| None).collect(),
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

    /// The stored rows a vector `v` reduces against, each with its
    /// coefficient `v[i]` (zero coefficients skipped).
    fn reducers<'a>(&'a self, v: &'a [u8]) -> impl Iterator<Item = (Gf256, &'a [u8])> {
        self.rows
            .iter()
            .zip(v)
            .filter(|(_, &c)| c != 0)
            .filter_map(|(row, &c)| Some((Gf256(c), &row.as_ref()?[..])))
    }

    /// `out = v + Σ vᵢ·rowᵢ[..k]`: `v` reduced against every stored row in
    /// one pass. The result is zero at every stored pivot column, so it is
    /// zero everywhere iff `v` is dependent, and its first non-zero column
    /// is the pivot `v` would fill.
    fn reduce_vector(&self, v: &[u8], out: &mut [u8]) {
        out.copy_from_slice(v);
        axpy_chunked(out, self.reducers(v).map(|(c, row)| (c, &row[..self.k])));
    }

    /// Non-destructively checks whether `p` would be innovative.
    pub fn is_innovative(&self, p: &CodedPacket) -> bool {
        let mut u = pool::acquire_vec(self.k);
        self.reduce_vector(p.vector(), &mut u);
        let innovative = u.iter().any(|&b| b != 0);
        pool::release_vec(u);
        innovative
    }

    /// Absorbs a received packet; returns `true` iff it was innovative.
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

        // The code vector alone first: a dependent packet is detected — and
        // discarded — without touching a single payload byte.
        let mut row = pool::acquire_vec(self.k + self.payload_len);
        let (vector, payload) = row.split_at_mut(self.k);
        self.reduce_vector(p.vector(), vector);
        let Some(pivot) = vector.iter().position(|&b| b != 0) else {
            pool::release_vec(row);
            return false; // dependent: discard
        };
        debug_assert!(self.rows[pivot].is_none(), "stored rows not fully reduced");

        // Normalize the pivot to 1; the payload gets the same combination,
        // scaled, in its own fused pass.
        let inv = Gf256(vector[pivot]).inv();
        slice_ops::mul_assign(vector, inv);
        axpy_chunked(
            payload,
            std::iter::once((inv, p.payload())).chain(
                self.reducers(p.vector())
                    .map(|(c, row)| (inv * c, &row[self.k..])),
            ),
        );

        // Back-eliminate the new pivot column from every stored row.
        for stored in self.rows.iter_mut().flatten() {
            let c = Gf256(stored[pivot]);
            if !c.is_zero() {
                slice_ops::mul_add_assign(stored, &row, c);
            }
        }

        self.rows[pivot] = Some(row);
        self.rank += 1;
        true
    }

    /// Decoded native packet `i`, readable in place once the batch is
    /// complete (no per-packet copy, unlike [`Self::natives`]).
    pub fn native(&self, i: usize) -> Option<&[u8]> {
        if !self.is_complete() {
            return None;
        }
        self.rows[i].as_ref().map(|row| &row[self.k..])
    }

    /// Rank recomputed from storage rather than the counter — a complete
    /// decoder has every row populated, and reporting the stored count
    /// keeps [`Self::natives`]/[`Self::take_natives`] panic-free even if
    /// that invariant were ever broken.
    fn stored_rank(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// Returns the decoded native packets, consuming nothing; errors if the
    /// batch is not yet complete.
    pub fn natives(&self) -> Result<Vec<Vec<u8>>, CodingError> {
        let stored = self.stored_rank();
        if !self.is_complete() || stored < self.k {
            return Err(CodingError::Incomplete {
                rank: self.rank.min(stored),
                k: self.k,
            });
        }
        Ok(self
            .rows
            .iter()
            .flatten()
            .map(|row| row[self.k..].to_vec())
            .collect())
    }

    /// Consumes the decoder, returning the native packets.
    pub fn take_natives(mut self) -> Result<Vec<Vec<u8>>, CodingError> {
        let stored = self.stored_rank();
        if !self.is_complete() || stored < self.k {
            return Err(CodingError::Incomplete {
                rank: self.rank.min(stored),
                k: self.k,
            });
        }
        let rows = std::mem::take(&mut self.rows);
        self.rank = 0;
        Ok(rows
            .into_iter()
            .flatten()
            .map(|mut row| {
                row.drain(..self.k);
                row
            })
            .collect())
    }

    /// Drops all state, returning row storage to the buffer pool.
    pub fn reset(&mut self) {
        for r in &mut self.rows {
            if let Some(row) = r.take() {
                pool::release_vec(row);
            }
        }
        self.rank = 0;
    }
}

impl Drop for Decoder {
    fn drop(&mut self) {
        self.reset();
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

    /// Each stored row leads with a 1 at its pivot and is zero at every
    /// other stored pivot column.
    fn assert_fully_reduced(dec: &Decoder) {
        let stored = |i: usize| dec.rows[i].as_deref();
        for (i, row) in (0..dec.k).filter_map(|i| Some((i, stored(i)?))) {
            assert!(row[..i].iter().all(|&b| b == 0), "row {i} leads early");
            for j in (0..dec.k).filter(|&j| stored(j).is_some()) {
                assert_eq!(row[j], u8::from(i == j), "row {i} at pivot column {j}");
            }
        }
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
                    assert_fully_reduced(&dec);
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
