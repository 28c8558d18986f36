//! Thread-local buffer pool recycling coded-packet buffers across frames.
//!
//! Every coded packet on the simulated air is a cell holding its code
//! vector and, once a receiver keeps it, one flat `[coeffs | payload]`
//! buffer (see [`crate::CodedPacket`]) whose payload starts on a 64-byte
//! boundary ([`crate::rows`]). In steady state a simulator
//! produces and retires a packet for every transmission — thousands per
//! simulated second — and the pool turns that churn into reuse: the agent
//! hands a packet back with [`recycle`] when the engine returns its frame
//! (`mesh_sim::NodeAgent::on_tx_done`: it left the air or a queue dropped
//! it), forwarders hand back the buffers they stored on batch flush, and
//! the next packet is built in a recycled cell, its payload in a buffer
//! from [`acquire`]. Recycling never computes a payload: a packet nobody
//! kept goes back uncombined.
//!
//! ## Safety of reuse
//!
//! A buffer re-enters the pool only through [`release`], which calls
//! [`Bytes::try_into_mut`] — it succeeds **iff the caller holds the sole
//! reference** — and a packet cell only through [`recycle`], under the
//! same rule. A buffer or packet some receiver still holds (a forwarder's
//! pool of payload views, an in-flight frame, a pending packet reading a
//! forwarder's pool) fails that check and is simply dropped from the
//! releaser's side; the live holders keep it untouched. Recycling
//! therefore can never alias live packet data (property-tested in
//! `tests/pool_props.rs`).
//!
//! ## Determinism
//!
//! Pool state affects *where* a buffer lives, never *what* the simulation
//! computes: [`acquire`] zero-fills to the requested length, so a recycled
//! buffer is byte-for-byte the buffer a fresh allocation would be, and no
//! code path branches on pool occupancy. Back-to-back runs on one thread
//! share the pool yet replay identically (asserted by the golden test
//! `tests/packet_path_equivalence.rs`).
//!
//! The pools are thread-local (`Rc`-style single-threaded reasoning, like
//! the rest of a simulator run); parallel sweeps get one pool per worker.
//!
//! ## Pairing
//!
//! Builds with debug assertions count, per thread, the buffers handed out
//! by [`acquire`] and the row matrices trackers, forwarders and decoders
//! take, less
//! those that came back: as sole owner through [`release`]/[`release_mut`],
//! or when their holder dropped. [`outstanding`] reads the count: a
//! forwarder holds two matrices — its tracker's and its stored code
//! vectors — and a decoder two — its tracker's and its payload matrix,
//! even an empty one. A run that drops a pooled buffer instead of
//! returning it leaves the count above where it started
//! (`tests/alloc_budget.rs` and `tests/pool_props.rs` assert this).

use crate::packet::{PacketCell, SharedPool};
use crate::rows::{padding, AlignedRows, ALIGN};
use crate::CodedPacket;
use bytes::{Bytes, BytesMut};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Freelist cap, per list, per thread. Two concurrent coded flows keep
/// well under a hundred buffers in flight; the cap only matters as a
/// bound on memory held by an idle thread.
const MAX_POOLED: usize = 256;

thread_local! {
    /// Flat packet buffers (`[coeffs | payload]`).
    static BUFFERS: RefCell<Vec<BytesMut>> = const { RefCell::new(Vec::new()) };
    /// The storage of trackers' and forwarders' vector matrices: K + 1
    /// rows of K bytes.
    static VECTORS: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    /// The storage of decoders' payload matrices.
    static PAYLOADS: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    /// Cleared packet cells, each the sole reference to itself.
    static PACKETS: RefCell<Vec<Rc<PacketCell>>> = const { RefCell::new(Vec::new()) };
    /// Emptied forwarder stores, storage kept.
    static STORES: RefCell<Vec<SharedPool>> = const { RefCell::new(Vec::new()) };
    /// Buffers and matrices acquired minus those released as sole owner.
    static OUTSTANDING: Cell<isize> = const { Cell::new(0) };
}

/// Moves the [`outstanding`] count; compiled out without debug assertions.
fn count(delta: isize) {
    if cfg!(debug_assertions) {
        let _ = OUTSTANDING.try_with(|n| n.set(n.get() + delta));
    }
}

/// Buffers and matrices this thread has acquired and not yet released as
/// sole owner — always 0 in builds without debug assertions.
pub fn outstanding() -> isize {
    OUTSTANDING.with(Cell::get)
}

/// A zeroed, uniquely owned buffer of exactly `len` bytes, starting on a
/// 64-byte boundary — recycled when the freelist has one, freshly
/// allocated otherwise.
pub fn acquire(len: usize) -> BytesMut {
    acquire_split(0, len)
}

/// A zeroed, uniquely owned buffer of `head + len` bytes whose byte
/// `head` starts on a 64-byte boundary: a flat `[coeffs | payload]`
/// buffer with its payload aligned. The padding in front of the head is
/// outside the buffer's view.
pub(crate) fn acquire_split(head: usize, len: usize) -> BytesMut {
    count(1);
    let size = head + len;
    let recycled = BUFFERS.with(|p| p.borrow_mut().pop());
    let mut m = match recycled {
        Some(mut m) => {
            m.clear();
            m.reserve(size + ALIGN - 1);
            m
        }
        None => BytesMut::with_capacity(size + ALIGN - 1),
    };
    // Within the capacity, so the storage does not move.
    let pad = padding(m.as_ptr().wrapping_add(head));
    m.resize(pad + size, 0);
    m.advance(pad);
    m
}

/// Offers a frozen buffer back to the pool. Reclaimed only when `b` is
/// the sole reference ([`Bytes::try_into_mut`]); otherwise the reference
/// is dropped and the live holders keep the buffer.
pub fn release(b: Bytes) {
    if let Ok(m) = b.try_into_mut() {
        release_mut(m);
    }
}

/// Returns a uniquely owned buffer to the pool.
pub fn release_mut(m: BytesMut) {
    count(-1);
    // `try_with`: a thread tearing down its TLS just drops the buffer.
    let _ = BUFFERS.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED {
            p.push(m);
        }
    });
}

/// Which freelist a row matrix's storage cycles through. Vector and
/// payload matrices keep apart: a tracker taking a payload matrix's
/// storage would hold it idle while the next decoder allocated afresh,
/// so memory would grow with the number of forwarders.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Matrix {
    /// A tracker's code vectors, or a forwarder's stored ones.
    Vectors,
    /// A decoder's payload rows.
    Payloads,
}

impl Matrix {
    fn freelist(self) -> &'static std::thread::LocalKey<RefCell<Vec<Vec<u8>>>> {
        match self {
            Matrix::Vectors => &VECTORS,
            Matrix::Payloads => &PAYLOADS,
        }
    }
}

/// `n` zeroed rows of `width` bytes, each starting on a 64-byte boundary,
/// in storage from `kind`'s freelist when it has some. Empty rows take
/// nothing from it.
pub(crate) fn acquire_rows(kind: Matrix, n: usize, width: usize) -> AlignedRows {
    count(1);
    let storage = match n * width {
        0 => Vec::new(),
        _ => kind
            .freelist()
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_default(),
    };
    AlignedRows::in_storage(storage, n, width)
}

/// Returns a row matrix's storage to `kind`'s freelist.
pub(crate) fn release_rows(kind: Matrix, rows: AlignedRows) {
    count(-1);
    let storage = rows.into_storage();
    if storage.capacity() == 0 {
        return;
    }
    let _ = kind.freelist().try_with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED {
            p.push(storage);
        }
    });
}

/// A cleared packet cell to build in — recycled when the freelist has one.
pub(crate) fn acquire_cell() -> Rc<PacketCell> {
    PACKETS.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Hands a packet back **without computing its payload**. When the caller
/// held the last reference, the packet's flat buffer (if its payload was
/// ever computed) returns to the buffer freelist and its cell is reused
/// for the next packet built; otherwise the reference is dropped and the
/// other holders keep the packet untouched.
pub fn recycle(p: CodedPacket) {
    let mut cell = p.into_cell();
    let Some(c) = Rc::get_mut(&mut cell) else {
        return;
    };
    c.clear();
    let _ = PACKETS.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED {
            p.push(cell);
        }
    });
}

/// An empty forwarder store — recycled when the freelist has one that no
/// pending packet reads any more.
pub(crate) fn acquire_store() -> SharedPool {
    let recycled = STORES.with(|s| s.borrow_mut().pop());
    recycled
        .filter(|s| Rc::strong_count(s) == 1)
        .unwrap_or_default()
}

/// Returns an emptied forwarder store to the freelist.
pub(crate) fn release_store(store: SharedPool) {
    let _ = STORES.try_with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < MAX_POOLED {
            s.push(store);
        }
    });
}

/// Number of buffers currently idle in this thread's flat-buffer pool
/// (test/diagnostic aid).
pub fn idle_buffers() -> usize {
    BUFFERS.with(|p| p.borrow().len())
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn acquire_is_zeroed_even_after_dirty_release() {
        let mut m = acquire(8);
        m.as_mut().copy_from_slice(&[0xFF; 8]);
        release(m.freeze());
        let again = acquire(16);
        assert_eq!(&again[..], &[0u8; 16]);
        release_mut(again);
    }

    #[test]
    fn split_buffers_align_the_byte_after_the_head() {
        let mut held = Vec::new();
        for (head, len) in [(0usize, 0usize), (1, 1500), (32, 64), (128, 1500), (7, 3)] {
            let m = acquire_split(head, len);
            assert_eq!(m.len(), head + len);
            assert_eq!(m.as_ptr().wrapping_add(head).addr() % ALIGN, 0);
            held.push(m);
        }
        // Recycled buffers are placed again for their new head.
        held.into_iter().for_each(release_mut);
        for head in [3usize, 64, 0] {
            let m = acquire_split(head, 100);
            assert_eq!(m.as_ptr().wrapping_add(head).addr() % ALIGN, 0);
            release_mut(m);
        }
    }

    #[test]
    fn shared_buffers_are_not_reclaimed() {
        // Drain the pool so the count below is exact.
        while idle_buffers() > 0 {
            let _ = BUFFERS.with(|p| p.borrow_mut().pop());
        }
        let b = acquire(4).freeze();
        let live = b.clone();
        release(b);
        assert_eq!(idle_buffers(), 0, "shared buffer entered the pool");
        assert_eq!(live.len(), 4);
        release(live);
        assert_eq!(idle_buffers(), 1, "sole reference must be reclaimed");
    }

    #[test]
    fn trackers_never_take_a_payload_matrix() {
        let (k, len) = (32usize, 1500);
        let small = (k + 1) * k.next_multiple_of(ALIGN) + ALIGN - 1;
        // Empty both freelists, so that only what is dropped below is on
        // them.
        let held = [Matrix::Vectors, Matrix::Payloads].map(|kind| {
            kind.freelist()
                .with(|p| std::mem::take(&mut *p.borrow_mut()))
        });
        drop(crate::Decoder::new(k, len));
        // Were the lists one, the second forwarder would take the
        // decoder's payload storage, and a later decoder would allocate.
        drop([
            crate::ForwarderBuffer::new(k, len),
            crate::ForwarderBuffer::new(k, len),
        ]);
        // Each forwarder leaves two vector matrices: its tracker's and its
        // stored vectors.
        VECTORS.with(|p| {
            let p = p.borrow();
            assert_eq!(p.len(), 4);
            assert!(
                p.iter().all(|s| s.capacity() <= small),
                "a vector matrix holds payload storage"
            );
        });
        PAYLOADS.with(|p| assert_eq!(p.borrow().len(), 1));
        // No payloads, no payload storage.
        drop(crate::Decoder::new(k, 0));
        PAYLOADS.with(|p| assert_eq!(p.borrow().len(), 1));
        for (kind, list) in [Matrix::Vectors, Matrix::Payloads].into_iter().zip(held) {
            kind.freelist().with(|p| *p.borrow_mut() = list);
        }
    }
}
