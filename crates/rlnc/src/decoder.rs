//! The destination's decoder (§3.1.3, §3.2.3b).
//!
//! The destination runs the forwarders' Algorithm 2 — an
//! [`InnovationTracker`] — and keeps one payload row beside each vector it
//! stores. "Once the destination receives the Kth innovative packet, it
//! decodes the whole batch."
//!
//! A dependent arrival is rejected by the tracker without a single payload
//! byte read — so a payload still pending (see [`CodedPacket`]) is never
//! computed. An innovative one's payload takes the combination the tracker
//! reports, normalized: `row = inv · (packet + Σⱼ cⱼ · rowⱼ)` over the rows
//! `j` its vector met — the packet scaled into the row, then one
//! [`slice_ops::axpy_rows`] call over the rows before it in place, with the
//! multiples scaled by `inv` first (K bytes, not a payload).
//!
//! At rank K the vectors are upper triangular with a unit diagonal, and
//! one back-substitution, one [`slice_ops::axpy_rows`] call per row from
//! the last to the first, clears every entry right of the diagonal: the
//! vectors become the identity and the payload rows *are* the native
//! packets. Keeping the
//! matrix reduced at every arrival instead would cost the same number of
//! row-times-coefficient terms, but as one unfused whole-row pass per
//! stored row per arrival, each reading and writing its destination row.
//!
//! The payload rows sit in one matrix, each on a 64-byte boundary (see
//! [`crate::rows`]), that cycles through [`crate::pool`] like the
//! tracker's, so a steady-state destination decodes without touching the
//! allocator.

use crate::packet::CodedPacket;
use crate::pool::{self, Matrix};
use crate::rows::AlignedRows;
use crate::tracker::InnovationTracker;
use crate::CodingError;
use gf256::slice_ops::{self, Rows};

/// Row-echelon decoder for one batch, back-substituted at rank K.
#[derive(Debug)]
pub struct Decoder {
    tracker: InnovationTracker,
    /// Row `i` is the payload whose code vector is the tracker's row `i`;
    /// no rows when payloads are empty.
    payloads: AlignedRows,
    payload_len: usize,
}

impl Decoder {
    /// An empty decoder for batch size `k`, payload size `payload_len`.
    pub fn new(k: usize, payload_len: usize) -> Self {
        Decoder {
            tracker: InnovationTracker::new(k),
            payloads: pool::acquire_rows(Matrix::Payloads, k, payload_len),
            payload_len,
        }
    }

    /// Batch size K.
    #[inline]
    pub fn k(&self) -> usize {
        self.tracker.k()
    }

    /// Rank accumulated so far.
    #[inline]
    pub fn rank(&self) -> usize {
        self.tracker.rank()
    }

    /// True once K innovative packets have been absorbed.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.tracker.is_full()
    }

    /// Absorbs a received packet; returns `true` iff it was innovative,
    /// which it never is once the batch is complete. The K-th innovative
    /// packet decodes the batch.
    ///
    /// # Panics
    ///
    /// Panics if the packet's K or payload length disagree with the decoder.
    pub fn receive(&mut self, p: &CodedPacket) -> bool {
        assert_eq!(p.k(), self.k(), "packet K != decoder K");
        assert_eq!(
            p.payload_len(),
            self.payload_len,
            "packet payload length mismatch"
        );
        // The code vector alone first: a dependent packet is detected — and
        // discarded — without touching a single payload byte.
        let Some((pivot, inv, multiples)) = self.tracker.insert(p.vector()) else {
            return false;
        };
        if self.payload_len > 0 {
            let stride = self.payloads.stride();
            let (met, row, _) = self.payloads.split_mut(pivot);
            slice_ops::mul_into(row, p.payload(), inv);
            slice_ops::mul_assign(multiples, inv);
            slice_ops::axpy_rows(row, multiples, Rows::strided(met, stride));
        }
        if self.is_complete() {
            self.back_substitute();
        }
        true
    }

    /// At rank K: clears every entry right of the diagonal, last row
    /// first, taking each row's multiples of the rows below it — already
    /// natives by then — in one payload combine per row.
    fn back_substitute(&mut self) {
        for i in (0..self.k()).rev() {
            let right = self.tracker.row_mut(i).get_mut(i + 1..).unwrap_or_default();
            if self.payload_len > 0 {
                let stride = self.payloads.stride();
                let (_, row, below) = self.payloads.split_mut(i);
                slice_ops::axpy_rows(row, right, Rows::strided(below, stride));
            }
            right.fill(0);
        }
    }

    /// Decoded native packet `i`, readable in place once the batch is
    /// complete (no per-packet copy, unlike [`Self::natives`]).
    pub fn native(&self, i: usize) -> Option<&[u8]> {
        (self.is_complete() && i < self.k()).then(|| self.payloads.row(i))
    }

    /// Returns copies of the decoded native packets; errors if the batch is
    /// not yet complete.
    pub fn natives(&self) -> Result<Vec<Vec<u8>>, CodingError> {
        if !self.is_complete() {
            return Err(CodingError::Incomplete {
                rank: self.rank(),
                k: self.k(),
            });
        }
        Ok(self.payloads.rows().map(<[u8]>::to_vec).collect())
    }
}

impl Drop for Decoder {
    /// Returns the payload matrix to the pool, for the next batch's decoder.
    fn drop(&mut self) {
        pool::release_rows(Matrix::Payloads, std::mem::take(&mut self.payloads));
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::packet::SourceEncoder;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn natives(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 31 + j * 7 + 1) as u8).collect())
            .collect()
    }

    fn unit(k: usize, i: usize) -> Vec<u8> {
        let mut v = vec![0; k];
        v[i] = 1;
        v
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
            assert_eq!(dec.natives().unwrap(), data);
        }
    }

    #[test]
    fn decode_from_unit_vectors_is_identity() {
        let data = natives(4, 10);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut dec = Decoder::new(4, 10);
        for i in [2usize, 0, 3, 1] {
            assert!(dec.receive(&enc.encode_with(unit(4, i))));
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
        dec.receive(&enc.encode_with(unit(3, 0)));
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

    /// Row `i` is stored (its vector leads with a 1 at column `i`, zeros
    /// before it) or all zero, payload included; the stored rows count the
    /// rank; and a complete decoder's vectors are the identity.
    fn assert_row_echelon(dec: &Decoder) {
        let mut stored = 0;
        for i in 0..dec.k() {
            let (vector, payload) = (dec.tracker.row(i), dec.payloads.row(i));
            if vector[i] == 0 {
                assert!(
                    vector.iter().chain(payload).all(|&b| b == 0),
                    "row {i} half stored"
                );
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
        }
        assert_eq!(stored, dec.rank());
    }

    #[test]
    fn agrees_with_the_tracker_packet_by_packet_behind_a_recoding_forwarder() {
        // src -> forwarder (recodes) -> dst. The forwarder emits twice per
        // packet it hears, so about half of what the destination receives
        // is dependent.
        use crate::buffer::ForwarderBuffer;
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
                    let predicted = tracker.is_innovative(p.vector());
                    let innovative = dec.receive(&p);
                    assert_eq!(predicted, innovative, "tracker check vs receive");
                    assert_eq!(tracker.absorb(p.vector()), innovative, "tracker vs receive");
                    assert_eq!(dec.rank(), tracker.rank());
                    assert_row_echelon(&dec);
                    dependent += usize::from(!innovative);
                }
            }
            assert!(dependent > 0, "no dependent arrival exercised at K = {k}");
            assert_eq!(dec.natives().unwrap(), data, "K = {k}");
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
            let v = [rng.gen_range(1..=255), rng.gen_range(1..=255), 0, 0, 0];
            dec.receive(&enc.encode_with(v));
        }
        assert_eq!(dec.rank(), 2);
        assert!(!dec.is_complete());
    }

    #[test]
    fn a_complete_decoder_rejects_without_reading_a_payload() {
        let (k, len) = (8, 24);
        let data = natives(k, len);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut dec = Decoder::new(k, len);
        for i in 0..k {
            assert!(dec.receive(&enc.encode_with(unit(k, i))));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // With the buffer pool held empty, a computed payload would come
        // back to it when its packet is recycled.
        let mut held = Vec::new();
        while pool::idle_buffers() > 0 {
            held.push(pool::acquire(1));
        }
        for _ in 0..10 {
            let p = enc.encode(&mut rng);
            assert!(!dec.receive(&p));
            pool::recycle(p);
        }
        assert_eq!(pool::idle_buffers(), 0, "a payload was computed");
        held.into_iter().for_each(pool::release_mut);
        assert_eq!(dec.rank(), k);
        assert_eq!(dec.natives().unwrap(), data);
    }
}
