//! The forwarder's batch buffer with pre-coding (§3.1.2, §3.2.3, §3.3.2).
//!
//! A forwarder stores the innovative packets it hears ("the batch buffer
//! stores the received innovative packets; note that the number of
//! innovative packets in a batch is bounded by the batch size K") and, when
//! the MAC allows it to transmit, broadcasts a random linear combination of
//! them. The payload bytes of stored packets are *not* modified — reduction
//! happens only on code vectors in the [`InnovationTracker`]; the raw packet
//! "is just stored in a pool to be used later" (§3.2.3b).
//!
//! Pre-coding (§3.2.3c): the buffer keeps one outgoing combination ready.
//! Its random coefficients are drawn when the previous packet goes out;
//! when an innovative packet arrives it is folded in with a fresh random
//! coefficient, so the prepared packet always reflects everything the node
//! knows. The paper pre-codes to keep the K-way payload combine off the
//! MAC's critical path. Here the prepared packet holds only its code vector
//! and its coefficients — folding in an arrival is one K-byte
//! multiply-accumulate — and the payload is combined later, by whichever
//! receiver first keeps the emitted packet (see [`CodedPacket`]); a packet
//! nobody stores is never combined at all.
//!
//! What the buffer stores is laid out for those combines to read in
//! place, one kernel call each:
//!
//! * the stored packets' code vectors, copied as they arrived into one
//!   row matrix (K bytes a packet) — a fresh pre-coded vector is one
//!   [`slice_ops::axpy_rows`] call over its rows;
//! * the stored packets' payloads, zero-copy: each is a view into the flat
//!   buffer its packet arrived in (a refcount bump), kept in a list shared
//!   with the emitted packets — an emitted packet's recipe is that list
//!   and a prefix length, the list only growing between flushes, and its
//!   payload one [`slice_ops::axpy_rows`] call over the list.
//!
//! Flushing a batch returns every stored buffer no pending packet still
//! reads to [`crate::pool`].

use crate::packet::{CodedPacket, PacketMut, Recipe, SharedPool};
use crate::pool::{self, Matrix};
use crate::rows::AlignedRows;
use crate::tracker::InnovationTracker;
use gf256::{slice_ops, Gf256};
use rand::Rng;
use std::rc::Rc;

/// A forwarder's per-batch coding state.
///
/// ```
/// use more_rlnc::{ForwarderBuffer, SourceEncoder};
/// use rand::SeedableRng;
///
/// let natives: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 32]).collect();
/// let enc = SourceEncoder::new(natives).unwrap();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let mut fwd = ForwarderBuffer::new(4, 32);
/// while fwd.rank() < 2 {
///     fwd.receive(&enc.encode(&mut rng), &mut rng);
/// }
/// // The emitted packet spans everything the forwarder has heard.
/// let p = fwd.emit(&mut rng).unwrap();
/// assert_eq!(p.k(), 4);
/// assert!(p.vector().iter().any(|&c| c != 0));
/// ```
#[derive(Debug)]
pub struct ForwarderBuffer {
    k: usize,
    payload_len: usize,
    tracker: InnovationTracker,
    /// Row `i`: the code vector of the `i`-th packet stored, as it arrived;
    /// `rank()` rows are in use.
    vectors: AlignedRows,
    /// The stored packets' payloads, in the order stored — views into the
    /// buffers they arrived in — also read by emitted packets whose
    /// payloads are still pending. Empty when payloads are.
    pool: SharedPool,
    /// The pre-coded packet kept ready for the next transmit opportunity:
    /// its vector, and one coefficient per pooled packet.
    precoded: Option<PacketMut>,
}

impl ForwarderBuffer {
    /// An empty buffer for batch size `k` and payload size `payload_len`.
    pub fn new(k: usize, payload_len: usize) -> Self {
        ForwarderBuffer {
            k,
            payload_len,
            tracker: InnovationTracker::new(k),
            // K + 1 rows, one unused: the shape of a tracker's matrix, so
            // the two trade storage through one freelist.
            vectors: pool::acquire_rows(Matrix::Vectors, k + 1, k),
            pool: pool::acquire_store(),
            precoded: None,
        }
    }

    /// Rank of the stored information (== number of pooled packets).
    #[inline]
    pub fn rank(&self) -> usize {
        self.tracker.rank()
    }

    /// True if no packets are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rank() == 0
    }

    /// Offers a received packet to the buffer.
    ///
    /// Innovative packets are stored — a refcount bump, no payload copy,
    /// their payload computed now if no other holder has — and folded into
    /// the pre-coded packet with a fresh random coefficient;
    /// non-innovative packets are discarded without touching their payload.
    /// Returns `true` iff the packet was innovative.
    ///
    /// # Panics
    ///
    /// Panics if the packet's K or payload length disagree with the buffer.
    pub fn receive<R: Rng + ?Sized>(&mut self, p: &CodedPacket, rng: &mut R) -> bool {
        assert_eq!(p.k(), self.k, "packet K != buffer K");
        assert_eq!(
            p.payload_len(),
            self.payload_len,
            "packet payload length mismatch"
        );
        if !self.tracker.absorb(p.vector()) {
            return false;
        }
        self.vectors
            .row_mut(self.rank() - 1)
            .copy_from_slice(p.vector());
        // Kept, so its bytes are needed: the recipes this pool feeds read
        // computed payloads only.
        if self.payload_len > 0 {
            self.pool.borrow_mut().push(p.payload_bytes());
        }
        // Keep the prepared packet fresh: "the pre-coded packet is updated
        // by multiplying the newly arrived packet with a random coefficient
        // and adding it to the pre-coded packet." On the vector now, on the
        // payload when the emitted packet is first kept.
        if let Some(pre) = &mut self.precoded {
            let r = random_nonzero(rng);
            let (vector, coeffs) = pre.vector_and_coeffs();
            slice_ops::mul_add_assign(vector, p.vector(), r);
            coeffs.push(r.0);
        } else {
            self.precode(rng);
        }
        true
    }

    /// Replaces the pre-coded packet with a fresh random combination of the
    /// whole pool ("as soon as the transmission starts, a new packet is
    /// pre-coded for this flow and stored for future use").
    ///
    /// Draws one coefficient per stored packet, in the order stored (the
    /// RNG stream of a packet-at-a-time fold), and combines the stored code
    /// vectors with one [`slice_ops::axpy_rows`] call over their matrix;
    /// the payload is left to the emitted packet's recipe.
    fn precode<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if let Some(old) = self.precoded.take() {
            old.release();
        }
        if self.is_empty() {
            return;
        }
        let mut next = PacketMut::new(self.k, self.payload_len);
        let (vector, coeffs) = next.vector_and_coeffs();
        coeffs.extend((0..self.rank()).map(|_| random_nonzero(rng).0));
        slice_ops::axpy_rows(vector, coeffs, self.vectors.all());
        self.precoded = Some(next);
    }

    /// Hands out the prepared packet and immediately pre-codes the next one.
    /// The packet's payload combines the pool as it stands now, whenever it
    /// is first read — later arrivals and a flush do not change it.
    ///
    /// Returns `None` when the buffer holds no packets (a forwarder that has
    /// heard nothing has nothing to say).
    pub fn emit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<CodedPacket> {
        if self.precoded.is_none() {
            self.precode(rng);
        }
        let next = self.precoded.take()?;
        self.precode(rng);
        Some(next.freeze(Recipe::Pool(Rc::clone(&self.pool))))
    }

    /// Drops all state (batch flushed on ACK or a newer batch, §3.2.2),
    /// returning every buffer this node is the last holder of to the pool
    /// — without computing anything. While an emitted packet's payload is
    /// still pending, the payload list it reads is left to it and the
    /// buffer starts a new one.
    pub fn flush(&mut self) {
        self.tracker.reset();
        self.release_packets();
    }

    /// [`Self::flush`] without the tracker's reset.
    fn release_packets(&mut self) {
        if let Some(pre) = self.precoded.take() {
            pre.release();
        }
        match Rc::get_mut(&mut self.pool) {
            Some(stored) => stored.get_mut().drain(..).for_each(pool::release),
            None => self.pool = pool::acquire_store(),
        }
    }
}

impl Drop for ForwarderBuffer {
    fn drop(&mut self) {
        // No tracker reset: the pool zero-fills its matrices for the next
        // buffer. The empty store left is this buffer's alone: the next
        // buffer may have it once this one's fields are gone.
        self.release_packets();
        pool::release_store(Rc::clone(&self.pool));
        pool::release_rows(Matrix::Vectors, std::mem::take(&mut self.vectors));
    }
}

/// Uniform non-zero field element: a zero coefficient would silently drop a
/// packet from the combination.
fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Gf256 {
    Gf256(rng.gen_range(1..=255u8))
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::packet::SourceEncoder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(k: usize, len: usize, seed: u64) -> (SourceEncoder, ChaCha8Rng) {
        let natives: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8 + 1; len]).collect();
        (
            SourceEncoder::new(natives).unwrap(),
            ChaCha8Rng::seed_from_u64(seed),
        )
    }

    #[test]
    fn empty_buffer_emits_nothing() {
        let mut buf = ForwarderBuffer::new(4, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(buf.emit(&mut rng).is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn innovative_packets_accumulate_rank() {
        let (enc, mut rng) = setup(4, 16, 1);
        let mut buf = ForwarderBuffer::new(4, 16);
        let mut stored = 0;
        for _ in 0..32 {
            if buf.receive(&enc.encode(&mut rng), &mut rng) {
                stored += 1;
            }
        }
        assert_eq!(stored, 4);
        assert_eq!(buf.rank(), 4);
    }

    #[test]
    fn emitted_packets_are_combinations_of_received() {
        let (enc, mut rng) = setup(8, 64, 2);
        let mut buf = ForwarderBuffer::new(8, 64);
        for _ in 0..3 {
            buf.receive(&enc.encode(&mut rng), &mut rng);
        }
        // The emitted packet's payload must equal what its vector says it is:
        // re-encode the vector straight from the natives and compare.
        for _ in 0..5 {
            let p = buf.emit(&mut rng).unwrap();
            let reference = enc.encode_with(p.vector());
            assert_eq!(p.payload(), reference.payload(), "payload/vector mismatch");
        }
    }

    #[test]
    fn emission_rank_limited_by_received_rank() {
        let (enc, mut rng) = setup(6, 32, 3);
        let mut buf = ForwarderBuffer::new(6, 32);
        for _ in 0..2 {
            buf.receive(&enc.encode(&mut rng), &mut rng);
        }
        // A downstream tracker can never extract more than rank-2 info.
        let mut downstream = InnovationTracker::new(6);
        for _ in 0..64 {
            let p = buf.emit(&mut rng).unwrap();
            downstream.absorb(p.vector());
        }
        assert_eq!(downstream.rank(), 2);
    }

    #[test]
    fn precoded_packet_reflects_latest_arrival() {
        let (enc, mut rng) = setup(4, 16, 4);
        let mut buf = ForwarderBuffer::new(4, 16);
        buf.receive(&enc.encode(&mut rng), &mut rng);
        // Force a known precoded state, then deliver a second innovative
        // packet; the next emitted packet must span rank 2 w.h.p.
        buf.receive(&enc.encode(&mut rng), &mut rng);
        let p = buf.emit(&mut rng).unwrap();
        let mut t = InnovationTracker::new(4);
        t.absorb(p.vector());
        // Emit more; with non-zero coefficients over GF(256) two packets
        // nearly surely yield rank 2 within a few tries.
        let mut got2 = false;
        for _ in 0..8 {
            let q = buf.emit(&mut rng).unwrap();
            if t.absorb(q.vector()) {
                got2 = true;
                break;
            }
        }
        assert!(got2, "emissions failed to span the received rank");
    }

    #[test]
    fn flush_clears_everything() {
        let (enc, mut rng) = setup(4, 16, 5);
        let mut buf = ForwarderBuffer::new(4, 16);
        buf.receive(&enc.encode(&mut rng), &mut rng);
        buf.flush();
        assert!(buf.is_empty());
        assert_eq!(buf.rank(), 0);
        assert!(buf.emit(&mut rng).is_none());
    }

    #[test]
    fn non_innovative_discarded_without_pool_growth() {
        let (enc, mut rng) = setup(2, 8, 6);
        let mut buf = ForwarderBuffer::new(2, 8);
        let p = enc.encode(&mut rng);
        assert!(buf.receive(&p, &mut rng));
        assert!(!buf.receive(&p, &mut rng));
        assert_eq!(buf.rank(), 1);
    }

    #[test]
    fn zero_length_packets_keep_no_pool_alive() {
        // Two forwarders that store each other's packets: a pending
        // recipe in each pool would read the other pool, a cycle that
        // outlives both flushes.
        let (enc, mut rng) = setup(4, 0, 9);
        let (mut a, mut b) = (ForwarderBuffer::new(4, 0), ForwarderBuffer::new(4, 0));
        a.receive(&enc.encode(&mut rng), &mut rng);
        b.receive(&enc.encode(&mut rng), &mut rng);
        let from_a = a.emit(&mut rng).unwrap();
        let from_b = b.emit(&mut rng).unwrap();
        assert!(b.receive(&from_a, &mut rng) && a.receive(&from_b, &mut rng));
        assert!(from_a.payload().is_empty());
        crate::pool::recycle(from_a);
        crate::pool::recycle(from_b);
        assert_eq!(Rc::strong_count(&a.pool), 1);
        assert_eq!(Rc::strong_count(&b.pool), 1);
    }

    #[test]
    fn stored_packets_share_the_arriving_buffer() {
        let (enc, mut rng) = setup(2, 8, 8);
        let mut buf = ForwarderBuffer::new(2, 8);
        let p = enc.encode(&mut rng);
        buf.receive(&p, &mut rng);
        // The caller's copy and the pooled copy are the same packet:
        // recycling the caller's must NOT reclaim it for reuse.
        crate::pool::recycle(p);
        let q = buf.emit(&mut rng).unwrap();
        let reference = enc.encode_with(q.vector());
        assert_eq!(q.payload(), reference.payload());
    }

    #[test]
    #[should_panic(expected = "packet K != buffer K")]
    fn k_mismatch_panics() {
        let (enc, mut rng) = setup(4, 16, 7);
        let mut buf = ForwarderBuffer::new(5, 16);
        buf.receive(&enc.encode(&mut rng), &mut rng);
    }
}
