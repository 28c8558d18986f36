//! Coded packets with payloads computed on demand, and the source-side
//! encoder.
//!
//! A code vector is a plain byte slice: for `p' = Σ cᵢ pᵢ` it is
//! `(c₁, …, c_K)` (thesis Table 3.1), each byte a GF(2⁸) element.

#![expect(
    clippy::indexing_slicing,
    reason = "header/payload splits index buffers acquired with exactly the k + payload length being split"
)]

use crate::rows::AlignedRows;
use crate::{pool, CodingError};
use bytes::Bytes;
use gf256::slice_ops::{self, Rows};
use rand::Rng;
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

/// A coded packet: its code vector, and its payload `Σ cᵢ·pᵢ` — computed
/// the first time a holder reads it.
///
/// Most packets on the simulated air are kept by no receiver (a forwarder
/// stores only innovative packets), and nothing but the bytes a node keeps
/// is ever read. So a packet is built with its vector and a *recipe*: a
/// source packet's is the batch's natives (shared, not copied) with its own
/// vector as the coefficients; a forwarder packet's is the first `m`
/// payloads of that forwarder's pool with the `m` coefficients drawn for
/// them. The first [`Self::payload`], [`Self::data`] or [`Self::into_data`]
/// runs the recipe — one [`slice_ops::axpy_rows`] call over the rows where
/// they lie, the same bytes an eager combine would produce — into one flat
/// `[coeffs | payload]` buffer whose payload starts on a 64-byte boundary.
///
/// Cloning a packet — e.g. for each receiver of a simulated broadcast — is
/// a refcount bump, and every clone sees the one computed payload. Packets
/// are built in cells recycled through [`crate::pool`]; hand one back with
/// [`pool::recycle`], which computes nothing.
#[derive(Clone, Debug)]
pub struct CodedPacket(Rc<PacketCell>);

/// What every clone of one packet shares.
#[derive(Clone, Default)]
pub(crate) struct PacketCell {
    /// The code vector, fixed when the packet is built.
    vector: Vec<u8>,
    /// Payload size in bytes.
    payload_len: usize,
    /// A forwarder recipe's coefficients, one per pooled packet it combines.
    coeffs: Vec<u8>,
    /// How to compute the payload; taken when it is computed.
    recipe: RefCell<Recipe>,
    /// The flat `[coeffs | payload]` buffer, once computed.
    data: OnceCell<Bytes>,
}

/// A forwarder's pool: the payloads of the packets it stored, each a view
/// into the flat buffer it arrived in, shared with the packets it emits.
/// Append-only between flushes, so a prefix length is a snapshot.
pub(crate) type SharedPool = Rc<RefCell<Vec<Bytes>>>;

/// The sources a pending payload combines.
#[derive(Clone, Default)]
pub(crate) enum Recipe {
    /// Nothing to add: the payload is computed, or all zero.
    #[default]
    Done,
    /// `Σ vectorᵢ·nativeᵢ` over a batch's natives.
    Natives(Rc<AlignedRows>),
    /// `Σ coeffsⱼ·poolⱼ` over the first `coeffs.len()` pooled payloads.
    Pool(SharedPool),
}

impl PacketCell {
    /// Runs the recipe into a pooled flat buffer, its payload aligned.
    fn compute(&self) -> Bytes {
        let k = self.vector.len();
        let mut buf = pool::acquire_split(k, self.payload_len);
        let (head, payload) = buf.split_at_mut(k);
        head.copy_from_slice(&self.vector);
        match self.recipe.take() {
            Recipe::Done => {}
            Recipe::Natives(natives) => slice_ops::axpy_rows(payload, &self.vector, natives.all()),
            Recipe::Pool(pool) => {
                slice_ops::axpy_rows(payload, &self.coeffs, Rows::Listed(&pool.borrow()));
            }
        }
        buf.freeze()
    }

    /// Back to an unbuilt cell, keeping the vectors' storage; a computed
    /// payload's buffer returns to the pool, a pending recipe is dropped
    /// unrun.
    pub(crate) fn clear(&mut self) {
        if let Some(data) = self.data.take() {
            pool::release(data);
        }
        *self.recipe.get_mut() = Recipe::Done;
    }
}

impl core::fmt::Debug for PacketCell {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PacketCell")
            .field("vector", &self.vector)
            .field("payload_len", &self.payload_len)
            .field("computed", &self.data.get().is_some())
            .finish()
    }
}

/// A packet under construction: its cell is uniquely owned until
/// [`Self::freeze`].
#[derive(Debug)]
pub(crate) struct PacketMut(Rc<PacketCell>);

impl PacketMut {
    /// A zero vector of length `k` and no recipe, in a recycled cell.
    pub(crate) fn new(k: usize, payload_len: usize) -> Self {
        let mut cell = pool::acquire_cell();
        let c = Rc::make_mut(&mut cell);
        c.vector.clear();
        c.vector.resize(k, 0);
        c.coeffs.clear();
        c.payload_len = payload_len;
        PacketMut(cell)
    }

    /// The cell, mutably: `make_mut` never copies, as nothing else holds
    /// a cell under construction.
    fn cell(&mut self) -> &mut PacketCell {
        Rc::make_mut(&mut self.0)
    }

    /// The code vector being built.
    pub(crate) fn vector_mut(&mut self) -> &mut [u8] {
        &mut self.cell().vector
    }

    /// The vector and the recipe coefficients, both writable.
    pub(crate) fn vector_and_coeffs(&mut self) -> (&mut [u8], &mut Vec<u8>) {
        let c = self.cell();
        (&mut c.vector, &mut c.coeffs)
    }

    /// The finished packet, its payload to come from `recipe`. A
    /// zero-length payload combines nothing, so it keeps no recipe: held
    /// unrun, one would keep its sources alive.
    pub(crate) fn freeze(mut self, recipe: Recipe) -> CodedPacket {
        if self.0.payload_len > 0 {
            *self.cell().recipe.get_mut() = recipe;
        }
        CodedPacket(self.0)
    }

    /// Hands the cell back to the pool unused.
    pub(crate) fn release(self) {
        pool::recycle(self.freeze(Recipe::Done));
    }
}

impl CodedPacket {
    /// The shared cell, for [`pool::recycle`].
    pub(crate) fn into_cell(self) -> Rc<PacketCell> {
        self.0
    }

    /// Batch size K.
    #[inline]
    pub fn k(&self) -> usize {
        self.0.vector.len()
    }

    /// Payload size in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.0.payload_len
    }

    /// The code vector coefficients.
    #[inline]
    pub fn vector(&self) -> &[u8] {
        &self.0.vector
    }

    /// The coded payload, `Σ cᵢ pᵢ` byte-wise over GF(2⁸); computed on the
    /// first call by any clone. A zero-length payload is empty without
    /// building the flat buffer.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        if self.payload_len() == 0 {
            return &[];
        }
        &self.data()[self.k()..]
    }

    /// The whole flat `[coeffs | payload]` buffer, computing the payload if
    /// no clone has yet.
    #[inline]
    pub fn data(&self) -> &Bytes {
        self.0.data.get_or_init(|| self.0.compute())
    }

    /// The payload as a view into the flat buffer, computing it if no
    /// clone has yet: a refcount bump, no copy.
    pub(crate) fn payload_bytes(&self) -> Bytes {
        let mut payload = self.data().clone();
        payload.advance(self.k());
        payload
    }

    /// Consumes the packet, returning the flat buffer with the payload
    /// computed (e.g. to hand it back to [`pool::release`]). The packet's
    /// cell is recycled when this was its last holder.
    pub fn into_data(self) -> Bytes {
        let data = self.data().clone();
        pool::recycle(self);
        data
    }
}

/// The source's encoder over one batch of K native packets (§3.1.1).
///
/// "When the 802.11 MAC is ready to send, the source creates a random linear
/// combination of the K native packets in the current batch and broadcasts
/// the coded packet."
///
/// The natives are held once, in one arena with each native on a 64-byte
/// boundary, shared with every packet whose payload is still to be
/// computed.
#[derive(Clone, Debug)]
pub struct SourceEncoder {
    natives: Rc<AlignedRows>,
}

impl SourceEncoder {
    /// Builds an encoder over `natives`, copied into the encoder's arena;
    /// all packets must share one length and the batch must be non-empty.
    /// Zero-length natives are a batch too: its packets carry code vectors
    /// and an empty payload.
    pub fn new<B: AsRef<[u8]>>(natives: Vec<B>) -> Result<Self, CodingError> {
        let payload_len = natives.first().map_or(0, |n| n.as_ref().len());
        if natives.iter().any(|p| p.as_ref().len() != payload_len) {
            return Err(CodingError::BadBatch("unequal packet lengths".into()));
        }
        Self::from_fn(natives.len(), payload_len, |i, row| {
            if let Some(native) = natives.get(i) {
                row.copy_from_slice(native.as_ref());
            }
        })
    }

    /// Builds an encoder over `k` natives of `payload_len` bytes, each
    /// written in place by `fill(i, row)` into a zeroed row of the arena;
    /// the batch must be non-empty.
    pub fn from_fn(
        k: usize,
        payload_len: usize,
        mut fill: impl FnMut(usize, &mut [u8]),
    ) -> Result<Self, CodingError> {
        if k == 0 {
            return Err(CodingError::BadBatch("empty batch".into()));
        }
        let mut arena = AlignedRows::in_storage(Vec::new(), k, payload_len);
        for i in 0..k {
            fill(i, arena.row_mut(i));
        }
        Ok(SourceEncoder {
            natives: Rc::new(arena),
        })
    }

    /// Batch size K.
    #[inline]
    pub fn k(&self) -> usize {
        self.natives.len()
    }

    /// Payload size in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.natives.width()
    }

    /// The native packets this encoder codes over, in order.
    pub fn natives(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        self.natives.rows()
    }

    /// Emits one coded packet with fresh random coefficients.
    ///
    /// The K random coefficients are drawn straight into the packet's
    /// vector; its payload is left as a recipe over this batch's natives.
    /// Computing it — when a receiver keeps the packet — is one
    /// [`slice_ops::axpy_rows`] call folding all K natives in place, the
    /// most expensive coding operation in the system (Table 4.1: "the
    /// coding cost is highest at the source because it has to code all K
    /// packets together"); a packet no receiver keeps never pays it.
    pub fn encode<R: Rng + ?Sized>(&self, rng: &mut R) -> CodedPacket {
        let mut p = PacketMut::new(self.k(), self.payload_len());
        rng.fill(p.vector_mut());
        p.freeze(Recipe::Natives(Rc::clone(&self.natives)))
    }

    /// Emits the coded packet for a caller-chosen code vector, its payload
    /// computed on demand as in [`Self::encode`].
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the batch size K.
    pub fn encode_with(&self, vector: impl AsRef<[u8]>) -> CodedPacket {
        let vector = vector.as_ref();
        assert_eq!(vector.len(), self.k(), "vector length != K");
        let mut p = PacketMut::new(self.k(), self.payload_len());
        p.vector_mut().copy_from_slice(vector);
        p.freeze(Recipe::Natives(Rc::clone(&self.natives)))
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn flat_packet_slices_line_up() {
        let enc = SourceEncoder::new(vec![vec![9u8, 8, 7, 6], vec![0; 4], vec![0; 4]]).unwrap();
        let p = enc.encode_with([1, 2, 3]);
        let q = p.clone();
        assert_eq!(p.k(), 3);
        assert_eq!(p.payload_len(), 4);
        assert_eq!(p.vector(), &[1, 2, 3]);
        assert_eq!(p.payload(), &[9, 8, 7, 6]);
        assert_eq!(&p.data()[..], &[1, 2, 3, 9, 8, 7, 6]);
        // A clone taken before the payload was computed reads the same
        // buffer: one combine per packet, not one per holder.
        assert!(std::ptr::eq(q.payload(), p.payload()));
        assert_eq!(q.into_data(), p.into_data());
    }

    #[test]
    fn encoder_rejects_bad_batches() {
        assert!(matches!(
            SourceEncoder::new(Vec::<Vec<u8>>::new()),
            Err(CodingError::BadBatch(_))
        ));
        assert!(matches!(
            SourceEncoder::new(vec![vec![1u8, 2], vec![3u8]]),
            Err(CodingError::BadBatch(_))
        ));
        assert!(matches!(
            SourceEncoder::from_fn(0, 4, |_, _| {}),
            Err(CodingError::BadBatch(_))
        ));
    }

    #[test]
    fn zero_length_natives_code_vectors_alone() {
        let k = 8;
        let enc = SourceEncoder::new(vec![Vec::<u8>::new(); k]).unwrap();
        assert_eq!(enc.payload_len(), 0);
        let p = enc.encode(&mut ChaCha8Rng::seed_from_u64(9));
        // The vector is K bytes from the same stream a coded packet draws.
        let mut want = vec![0u8; k];
        ChaCha8Rng::seed_from_u64(9).fill(&mut want[..]);
        assert_eq!(p.vector(), &want[..]);
        assert!(p.payload().is_empty());
        // Decoders and forwarders with no payload absorb it.
        let mut dec = crate::Decoder::new(k, 0);
        assert!(dec.receive(&p));
        let mut fwd = crate::ForwarderBuffer::new(k, 0);
        assert!(fwd.receive(&p, &mut ChaCha8Rng::seed_from_u64(10)));
        assert_eq!((dec.rank(), fwd.rank()), (1, 1));
    }

    #[test]
    fn encode_with_unit_vector_reproduces_native() {
        let natives = vec![vec![1u8, 2, 3], vec![4u8, 5, 6]];
        let enc = SourceEncoder::new(natives.clone()).unwrap();
        for (i, native) in natives.iter().enumerate() {
            let mut unit = [0u8; 2];
            unit[i] = 1;
            assert_eq!(enc.encode_with(unit).payload(), &native[..]);
        }
    }

    #[test]
    fn encode_is_linear_in_the_vector() {
        let natives = vec![vec![10u8; 32], vec![20u8; 32], vec![30u8; 32]];
        let enc = SourceEncoder::new(natives).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (mut va, mut vb) = ([0u8; 3], [0u8; 3]);
        rng.fill(&mut va);
        rng.fill(&mut vb);
        let mut vsum = va;
        slice_ops::add_assign(&mut vsum, &vb);

        let pa = enc.encode_with(va);
        let pb = enc.encode_with(vb);
        let psum = enc.encode_with(vsum);
        let xor: Vec<u8> = pa
            .payload()
            .iter()
            .zip(pb.payload().iter())
            .map(|(a, b)| a ^ b)
            .collect();
        assert_eq!(psum.payload(), &xor[..]);
    }

    #[test]
    fn random_encode_has_right_shape() {
        let enc = SourceEncoder::new(vec![vec![0xAAu8; 100]; 5]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = enc.encode(&mut rng);
        assert_eq!(p.k(), 5);
        assert_eq!(p.payload_len(), 100);
    }

    #[test]
    fn encode_draws_its_vector_straight_from_the_rng() {
        // The packet's vector is the K bytes `rng.fill` would draw — the
        // determinism contract that keeps pre-rewrite golden runs
        // byte-identical.
        let enc = SourceEncoder::new(vec![vec![5u8; 16]; 4]).unwrap();
        let p = enc.encode(&mut ChaCha8Rng::seed_from_u64(77));
        let mut want = [0u8; 4];
        ChaCha8Rng::seed_from_u64(77).fill(&mut want);
        assert_eq!(p.vector(), &want);
    }
}
