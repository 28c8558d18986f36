//! Random linear network coding, as used by MORE (thesis §3.1–§3.2.3).
//!
//! A file is sent in *batches* of `K` *native* (uncoded) packets. Every data
//! packet on the air is a *coded* packet `p' = Σ cᵢ·pᵢ`, carrying its
//! *code vector* `c = (c₁ … c_K)` over GF(2⁸). A received packet is
//! *innovative* if its code vector is linearly independent of everything the
//! node already holds from the batch; non-innovative packets are discarded.
//!
//! This crate provides the four roles in that pipeline:
//!
//! * [`SourceEncoder`] — the source's "code all K natives together" path.
//! * [`InnovationTracker`] — Algorithm 2: the row-echelon independence check
//!   that touches only code vectors, never payload bytes. It is the crate's
//!   one elimination; the other two roles below are built on it.
//! * [`ForwarderBuffer`] — a tracker, a forwarder's pool of innovative
//!   packets, and the *pre-coding* optimisation (§3.2.3c): one outgoing
//!   combination's coefficients are kept ready and folded together with
//!   each innovative arrival, so transmission never waits on a K-packet
//!   combine.
//! * [`Decoder`] — the destination's decode: a tracker plus one payload
//!   row per stored vector, combined as the tracker reduced it; the K-th
//!   innovative arrival triggers a single back-substitution, after which
//!   the payload rows *are* the native batch.
//!
//! Code vectors are plain byte slices, one GF(2⁸) coefficient per byte.
//! A [`CodedPacket`] carries its code vector and computes its payload when
//! a holder first reads it — in this simulator, when some receiver keeps
//! it — into one flat `[coeffs | payload]` buffer. Cloning a packet — e.g.
//! for each receiver of a simulated broadcast — is a refcount bump, every
//! clone sees the one computed payload, and packets and buffers recycle
//! through a thread-local [`pool`] instead of the allocator. Every payload
//! row the GF(2⁸) kernels read or write — a computed payload, a source
//! native, a decoder row, a tracked vector — starts on a 64-byte boundary
//! ([`rows`]).
//!
//! Every multi-term combine is one kernel call over rows where they lie
//! ([`gf256::slice_ops::axpy_rows`]): a source packet's payload over the
//! natives' matrix, a forwarder packet's over the pool's list of payload
//! views, a pre-coded vector over the forwarder's stored vectors, and the
//! decoder's row updates and back-substitution over its payload matrix.
//! The innovation check is one call too ([`gf256::slice_ops::eliminate`]
//! over the tracker's matrix).
//!
//! ```
//! use more_rlnc::{SourceEncoder, Decoder};
//! use rand::SeedableRng;
//!
//! let natives: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 64]).collect();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let enc = SourceEncoder::new(natives.clone()).unwrap();
//! let mut dec = Decoder::new(8, 64);
//! while !dec.is_complete() {
//!     let p = enc.encode(&mut rng);
//!     dec.receive(&p);
//! }
//! assert_eq!(dec.natives().unwrap(), natives);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Panic freedom and seeding discipline for the shipped (non-test) build;
// each sanctioned site carries `#[expect(clippy::…, reason = "…")]`.
#![cfg_attr(
    not(test),
    warn(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods
    )
)]

pub mod buffer;
pub mod decoder;
pub mod packet;
pub mod pool;
pub mod rows;
pub mod tracker;

pub use buffer::ForwarderBuffer;
pub use decoder::Decoder;
pub use packet::{CodedPacket, SourceEncoder};
pub use tracker::InnovationTracker;

/// Errors reported by coding components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodingError {
    /// Batch construction was given no packets or packets of unequal length.
    BadBatch(String),
    /// A packet's code vector length does not match the batch size K.
    VectorLength {
        /// The batch size K the component was built for.
        expected: usize,
        /// The offending packet's code vector length.
        got: usize,
    },
    /// A packet's payload length does not match the batch payload size.
    PayloadLength {
        /// The payload size the component was built for.
        expected: usize,
        /// The offending packet's payload length.
        got: usize,
    },
    /// Decode requested before rank reached K.
    Incomplete {
        /// Rank accumulated so far.
        rank: usize,
        /// Batch size K required to decode.
        k: usize,
    },
}

impl core::fmt::Display for CodingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodingError::BadBatch(m) => write!(f, "bad batch: {m}"),
            CodingError::VectorLength { expected, got } => {
                write!(f, "code vector length {got}, expected {expected}")
            }
            CodingError::PayloadLength { expected, got } => {
                write!(f, "payload length {got}, expected {expected}")
            }
            CodingError::Incomplete { rank, k } => {
                write!(f, "cannot decode: rank {rank} < K = {k}")
            }
        }
    }
}

impl std::error::Error for CodingError {}
