//! Rows on cache-line boundaries.
//!
//! The GF(2⁸) kernels stream a row 64 bytes at a time on their widest
//! tier. A row that starts off a 64-byte boundary makes every one of those
//! loads and stores straddle two cache lines, which halves the kernels'
//! throughput, and the allocator only promises 16. So every row the
//! coding hot path reads or writes starts on an [`ALIGN`] boundary: a
//! computed packet's payload ([`crate::pool`] places its buffer), and the
//! source's natives, the decoder's payload rows and the tracker's code
//! vectors, which live in a crate-private row matrix, `AlignedRows`. The
//! padding that buys this sits outside every row's view; nothing computed
//! depends on where a row lives. A matrix hands its rows to the kernels in
//! place, as one strided block ([`Rows::Strided`]).

use gf256::slice_ops::Rows;

/// The boundary every coded payload row starts on: one cache line, one
/// 512-bit register.
pub const ALIGN: usize = 64;

/// Bytes from `ptr` up to the next [`ALIGN`] boundary: 0 when it is on one.
pub(crate) fn padding(ptr: *const u8) -> usize {
    ptr.addr().wrapping_neg() % ALIGN
}

/// `n` rows of `width` bytes in one buffer, each starting on an [`ALIGN`]
/// boundary: row `i` sits `i · stride` bytes after the first, `stride`
/// being `width` rounded up to a multiple of [`ALIGN`]. The bytes between
/// rows are zero and belong to no row.
#[derive(Default)]
pub(crate) struct AlignedRows {
    storage: Vec<u8>,
    /// Offset of the first row in `storage`.
    start: usize,
    stride: usize,
    width: usize,
    n: usize,
}

impl AlignedRows {
    /// `n` zeroed rows of `width` bytes laid out in `storage`, whose
    /// allocation is reused when it is large enough and whose contents
    /// are discarded. No rows, or empty ones, allocate nothing.
    pub(crate) fn in_storage(mut storage: Vec<u8>, n: usize, width: usize) -> Self {
        let stride = width.next_multiple_of(ALIGN);
        let size = n * stride;
        storage.clear();
        let start = if size == 0 {
            0
        } else {
            // Room for the rows wherever the allocation's first boundary
            // falls; reserving first, so the address measured is final.
            storage.reserve_exact(size + ALIGN - 1);
            padding(storage.as_ptr())
        };
        storage.resize(start + size, 0);
        AlignedRows {
            storage,
            start,
            stride,
            width,
            n,
        }
    }

    /// The storage, for reuse by [`Self::in_storage`].
    pub(crate) fn into_storage(self) -> Vec<u8> {
        self.storage
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Bytes per row.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Bytes from one row's start to the next's.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i`; empty past the last row.
    pub(crate) fn row(&self, i: usize) -> &[u8] {
        let at = self.start + i * self.stride;
        self.storage.get(at..at + self.width).unwrap_or_default()
    }

    /// Row `i`, writable; empty past the last row.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u8] {
        let at = self.start + i * self.stride;
        self.storage
            .get_mut(at..at + self.width)
            .unwrap_or_default()
    }

    /// Every row, in order.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        (0..self.n).map(|i| self.row(i))
    }

    /// Every row in place, for a GF(2⁸) combine.
    pub(crate) fn all(&self) -> Rows<'_> {
        Rows::strided(
            self.storage.get(self.start..).unwrap_or_default(),
            self.stride,
        )
    }

    /// Row `i`, writable, with the rows before it and the rows after it
    /// in place: each a block whose rows are [`Self::stride`] bytes apart.
    pub(crate) fn split_mut(&mut self, i: usize) -> (&[u8], &mut [u8], &[u8]) {
        let (stride, width) = (self.stride, self.width);
        let body = self.storage.get_mut(self.start..).unwrap_or_default();
        let (before, rest) = body.split_at_mut((i * stride).min(body.len()));
        let (row, after) = rest.split_at_mut(stride.min(rest.len()));
        (before, row.get_mut(..width).unwrap_or_default(), after)
    }

    /// Rows `i` and `j`, both writable (`i < j`; empty past the last row).
    pub(crate) fn pair_mut(&mut self, i: usize, j: usize) -> (&mut [u8], &mut [u8]) {
        let (stride, width) = (self.stride, self.width);
        let body = self.storage.get_mut(self.start..).unwrap_or_default();
        let (first, second) = body.split_at_mut((j * stride).min(body.len()));
        let first = first.get_mut(i * stride..).unwrap_or_default();
        (
            first.get_mut(..width).unwrap_or_default(),
            second.get_mut(..width).unwrap_or_default(),
        )
    }

    /// Zeroes every row, keeping the storage and the layout.
    pub(crate) fn zero(&mut self) {
        self.storage.fill(0);
    }
}

impl core::fmt::Debug for AlignedRows {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AlignedRows")
            .field("n", &self.n)
            .field("width", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn rows_start_on_boundaries_whatever_the_storage() {
        for width in [0usize, 1, 63, 64, 65, 1500] {
            // A fresh allocation, then one reused at an odd length.
            let mut storage = Vec::new();
            for n in [3usize, 2] {
                let mut rows = AlignedRows::in_storage(storage, n, width);
                assert_eq!((rows.len(), rows.width()), (n, width));
                for i in 0..n {
                    assert_eq!(rows.row(i).len(), width);
                    if width > 0 {
                        assert_eq!(rows.row(i).as_ptr().addr() % ALIGN, 0, "width {width}");
                    }
                    rows.row_mut(i).fill(i as u8 + 1);
                }
                let stride = rows.stride();
                assert_eq!(stride, width.next_multiple_of(ALIGN));
                let (before, row, after) = rows.split_mut(1);
                assert!(before.iter().take(width).all(|&b| b == 1));
                assert!(row.iter().all(|&b| b == 2));
                assert!(after.iter().take(width).all(|&b| b == 3));
                assert_eq!(after.len(), (n - 2) * stride, "rows after row 1");
                let (first, last) = rows.pair_mut(0, n - 1);
                assert_eq!((first[..].to_vec(), last.len()), (vec![1; width], width));
                assert!(rows.row(n).is_empty(), "past the last row");
                storage = rows.into_storage();
                storage.push(0xFF);
            }
        }
    }
}
