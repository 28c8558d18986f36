//! Property tests for the network-coding invariants MORE depends on.

use gf256::Gf256;
use more_rlnc::{pool, CodedPacket, Decoder, ForwarderBuffer, InnovationTracker, SourceEncoder};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Largest batch the recoding-chain property draws: interpreted, a K = 24
/// chain takes minutes, and K ≤ 8 walks the same code.
const CHAIN_MAX_K: usize = if cfg!(miri) { 8 } else { 24 };

fn batch(k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..len).map(|j| (i * 37 + j * 11 + 3) as u8).collect())
        .collect()
}

/// Number of flat buffers this thread's pool gains while `f` runs with the
/// pool emptied first. Computing a payload takes a buffer the pool does not
/// have, and recycling the packet's last reference returns it, so a
/// computation shows as one gained buffer.
fn buffers_gained(f: impl FnOnce()) -> usize {
    let mut held = Vec::new();
    while pool::idle_buffers() > 0 {
        held.push(pool::acquire(1));
    }
    f();
    let gained = pool::idle_buffers();
    held.into_iter().for_each(pool::release_mut);
    gained
}

/// Fails unless a non-empty row starts on a 64-byte boundary.
fn assert_aligned(row: &[u8], what: &str) {
    if !row.is_empty() {
        assert_eq!(
            row.as_ptr().addr() % 64,
            0,
            "{what} starts off a 64-byte boundary"
        );
    }
}

/// Naive Gauss–Jordan elimination over `[vector | payload]` rows, one
/// scalar GF(2⁸) operation at a time: the reference the decoder is held
/// to. It shares no code with the crate but the field arithmetic.
struct GaussJordan {
    k: usize,
    /// Fully reduced rows, each with its pivot column.
    rows: Vec<(usize, Vec<Gf256>)>,
}

impl GaussJordan {
    fn new(k: usize) -> Self {
        GaussJordan {
            k,
            rows: Vec::new(),
        }
    }

    fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Adds a row; true iff it raised the rank.
    fn absorb(&mut self, vector: &[u8], payload: &[u8]) -> bool {
        let mut r: Vec<Gf256> = vector.iter().chain(payload).map(|&b| Gf256(b)).collect();
        for (pivot, row) in &self.rows {
            let f = r[*pivot];
            for (x, &y) in r.iter_mut().zip(row) {
                *x += f * y;
            }
        }
        let Some(pivot) = r[..self.k].iter().position(|x| !x.is_zero()) else {
            return false;
        };
        let inv = r[pivot].inv();
        for x in &mut r {
            *x *= inv;
        }
        for (_, row) in &mut self.rows {
            let f = row[pivot];
            for (x, &y) in row.iter_mut().zip(&r) {
                *x += f * y;
            }
        }
        self.rows.push((pivot, r));
        true
    }

    /// At rank K, native `i` is the payload of the row whose pivot is `i`.
    fn natives(&self) -> Vec<Vec<u8>> {
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_by_key(|(pivot, _)| *pivot);
        rows.iter()
            .map(|(_, row)| row[self.k..].iter().map(|x| x.0).collect())
            .collect()
    }
}

/// One batch `source → recoding forwarder → destination`, arrival by
/// arrival against the oracle: the forwarder hears the source every other
/// step, so some of what it emits the destination already spans, and every
/// other step re-delivers the previous packet as a duplicate.
fn decode_against_the_oracle(natives: &[Vec<u8>], rng: &mut ChaCha8Rng) {
    let (k, len) = (natives.len(), natives[0].len());
    let enc = SourceEncoder::new(natives.to_vec()).unwrap();
    for native in enc.natives() {
        assert_aligned(native, "a source native");
    }
    let mut fwd = ForwarderBuffer::new(k, len);
    let mut dec = Decoder::new(k, len);
    let mut oracle = GaussJordan::new(k);
    let (mut dependent, mut duplicates) = (0, 0);
    let mut previous: Option<CodedPacket> = None;
    let mut step = 0;
    while !dec.is_complete() {
        if step % 2 == 0 {
            let heard = enc.encode(rng);
            if fwd.receive(&heard, rng) {
                assert_aligned(heard.payload(), "a stored source packet's payload");
            }
        }
        let fresh = fwd.emit(rng).expect("the forwarder has heard the source");
        let duplicate = previous.take().filter(|_| step % 2 == 1);
        duplicates += usize::from(duplicate.is_some());
        for p in std::iter::once(&fresh).chain(&duplicate) {
            let innovative = dec.receive(p);
            let expected = oracle.absorb(p.vector(), p.payload());
            assert_eq!(innovative, expected, "receive at step {step}");
            assert_eq!(dec.rank(), oracle.rank(), "rank at step {step}");
            assert_aligned(p.payload(), "a recoded payload");
            dependent += usize::from(!innovative);
        }
        previous = Some(fresh);
        step += 1;
        assert!(step < 8 * k + 16, "K = {k}, {len} B: not converging");
    }
    if k > 1 {
        assert!(
            duplicates > 0 && dependent > duplicates,
            "K = {k}: nothing dependent arrived"
        );
    }
    // Complete: nothing more is innovative.
    let late = enc.encode(rng);
    assert!(!dec.receive(&late));
    for (i, native) in natives.iter().enumerate() {
        let decoded = dec.native(i).unwrap();
        assert_aligned(decoded, "a decoded row");
        assert_eq!(decoded, &native[..], "K = {k}, {len} B: native {i}");
    }
    assert_eq!(oracle.natives(), natives);
    assert_eq!(dec.natives().unwrap(), natives);
}

#[test]
fn recoded_batches_decode_like_gauss_jordan() {
    // Interpreted, the large batches and payloads take minutes; the small
    // ones walk the same code, padding and short last rows included.
    let (ks, lens): (&[usize], &[usize]) = if cfg!(miri) {
        (&[1, 2, 8], &[0, 1, 63, 64, 65])
    } else {
        (&[1, 2, 8, 32, 128], &[0, 1, 63, 64, 65, 1500, 1628])
    };
    for &k in ks {
        for &len in lens {
            // A full batch, then a short final one: the decoder's matrix
            // comes back from the pool for a smaller K.
            let file = batch(k + k.div_ceil(2), len);
            let mut rng = ChaCha8Rng::seed_from_u64((k * 10_000 + len) as u64);
            for natives in file.chunks(k) {
                decode_against_the_oracle(natives, &mut rng);
            }
        }
    }
}

/// `p`'s payload, whenever it is first read, is what the source would have
/// coded eagerly for `p`'s vector.
fn assert_matches_eager(p: &CodedPacket, enc: &SourceEncoder) {
    assert_eq!(p.payload(), enc.encode_with(p.vector()).payload());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode round-trips for arbitrary batch shapes and seeds.
    #[test]
    fn roundtrip(k in 1usize..24, len in 1usize..200, seed in any::<u64>()) {
        let data = batch(k, len);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut dec = Decoder::new(k, len);
        let mut tries = 0;
        while !dec.is_complete() {
            dec.receive(&enc.encode(&mut rng));
            tries += 1;
            prop_assert!(tries < 8 * k + 32, "decoder not converging");
        }
        prop_assert_eq!(dec.natives().unwrap(), data);
    }

    /// The tracker's innovativeness decision equals a rank computation:
    /// absorbing N random vectors yields rank == #accepted, bounded by K.
    #[test]
    fn tracker_counts_rank(k in 1usize..16, n in 0usize..64, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut t = InnovationTracker::new(k);
        let mut accepted = 0;
        for _ in 0..n {
            let mut v = vec![0u8; k];
            rng.fill(&mut v[..]);
            let pred = t.is_innovative(&v);
            let got = t.absorb(&v);
            prop_assert_eq!(pred, got);
            accepted += usize::from(got);
        }
        prop_assert_eq!(t.rank(), accepted);
        prop_assert!(t.rank() <= k);
    }

    /// Relaying through any chain of recoding forwarders preserves the data:
    /// information may degrade (rank caps) but never corrupts.
    #[test]
    fn relay_chain_preserves_data(
        k in 1usize..10,
        hops in 1usize..4,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let data = batch(k, len);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        let mut buffers: Vec<ForwarderBuffer> =
            (0..hops).map(|_| ForwarderBuffer::new(k, len)).collect();
        let mut dec = Decoder::new(k, len);

        // Fill hop 0 from the source, each next hop from the previous,
        // destination from the last hop.
        while buffers[0].rank() < k {
            buffers[0].receive(&enc.encode(&mut rng), &mut rng);
        }
        for h in 1..hops {
            let mut guard = 0;
            while buffers[h].rank() < k {
                let (left, right) = buffers.split_at_mut(h);
                let p = left[h - 1].emit(&mut rng).unwrap();
                right[0].receive(&p, &mut rng);
                guard += 1;
                prop_assert!(guard < 64 * k + 64, "hop {h} not converging");
            }
        }
        let mut guard = 0;
        while !dec.is_complete() {
            let p = buffers[hops - 1].emit(&mut rng).unwrap();
            dec.receive(&p);
            guard += 1;
            prop_assert!(guard < 64 * k + 64, "destination not converging");
        }
        prop_assert_eq!(dec.natives().unwrap(), data);
    }

    /// A forwarder's emissions never exceed the information it received:
    /// downstream rank ≤ upstream rank.
    #[test]
    fn no_information_amplification(
        k in 2usize..12,
        upstream_rank in 1usize..6,
        seed in any::<u64>(),
    ) {
        let upstream_rank = upstream_rank.min(k);
        let data = batch(k, 32);
        let enc = SourceEncoder::new(data).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut fwd = ForwarderBuffer::new(k, 32);
        while fwd.rank() < upstream_rank {
            // Restrict the source to the first `upstream_rank` natives so the
            // forwarder can never see more than that much information.
            let mut v = vec![0u8; k];
            rng.fill(&mut v[..upstream_rank]);
            if v.iter().all(|&c| c == 0) { continue; }
            fwd.receive(&enc.encode_with(&v), &mut rng);
        }
        let mut down = InnovationTracker::new(k);
        for _ in 0..32 {
            if let Some(p) = fwd.emit(&mut rng) {
                down.absorb(p.vector());
            }
        }
        prop_assert!(down.rank() <= upstream_rank);
    }

    /// `src → fwd → fwd → dst`, recoding at every hop: a payload computed
    /// when a node first keeps the packet equals the eager combine of its
    /// vector — and so does one first read only after its forwarder has
    /// absorbed more arrivals, flushed, and started its pool over. That is
    /// the snapshot a forwarder packet's recipe promises: the first `m`
    /// pooled packets as they stood at emission.
    #[test]
    fn on_demand_payloads_equal_eager_ones(
        k in 1usize..=CHAIN_MAX_K,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let enc = SourceEncoder::new(batch(k, len)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut near, mut far) = (ForwarderBuffer::new(k, len), ForwarderBuffer::new(k, len));
        let mut dec = Decoder::new(k, len);
        // Emissions nobody hears: their payloads stay pending until read.
        let mut unheard = Vec::new();
        let mut rounds = 0;
        while !dec.is_complete() {
            near.receive(&enc.encode(&mut rng), &mut rng);
            if let Some(p) = near.emit(&mut rng) {
                far.receive(&p, &mut rng);
                assert_matches_eager(&p, &enc);
            }
            if let Some(p) = far.emit(&mut rng) {
                dec.receive(&p);
                assert_matches_eager(&p, &enc);
            }
            unheard.extend(near.emit(&mut rng));
            unheard.extend(far.emit(&mut rng));
            rounds += 1;
            prop_assert!(rounds < 64 * k + 64, "chain not converging");
        }
        prop_assert_eq!(dec.natives().unwrap(), batch(k, len));
        // The emitters move on: flush, then hear and emit a fresh batch.
        near.flush();
        far.flush();
        for _ in 0..k {
            near.receive(&enc.encode(&mut rng), &mut rng);
            if let Some(p) = near.emit(&mut rng) {
                far.receive(&p, &mut rng);
            }
        }
        unheard.extend(far.emit(&mut rng));
        for p in &unheard {
            assert_matches_eager(p, &enc);
        }
    }

    /// A packet recycled by its last holder, unstored, never runs its
    /// recipe — source or forwarder — while reading the payload first does.
    #[test]
    fn recycling_an_unstored_packet_computes_nothing(
        k in 1usize..=CHAIN_MAX_K,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let enc = SourceEncoder::new(batch(k, len)).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut fwd = ForwarderBuffer::new(k, len);
        while fwd.is_empty() {
            fwd.receive(&enc.encode(&mut rng), &mut rng);
        }
        for read_first in [false, true] {
            let gained = buffers_gained(|| {
                let packets = [enc.encode(&mut rng), fwd.emit(&mut rng).unwrap()];
                if read_first {
                    for p in &packets {
                        p.payload();
                    }
                }
                packets.into_iter().for_each(pool::recycle);
            });
            prop_assert_eq!(gained, if read_first { 2 } else { 0 });
        }
    }

    /// Emitted payloads always match their code vectors (consistency between
    /// header and data — what a malicious or buggy forwarder would violate).
    #[test]
    fn vector_payload_consistency(k in 1usize..12, seed in any::<u64>()) {
        let data = batch(k, 48);
        let enc = SourceEncoder::new(data).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut fwd = ForwarderBuffer::new(k, 48);
        for _ in 0..k {
            fwd.receive(&enc.encode(&mut rng), &mut rng);
        }
        for _ in 0..8 {
            let p = fwd.emit(&mut rng).unwrap();
            let reference = enc.encode_with(p.vector());
            prop_assert_eq!(p.payload(), reference.payload());
        }
    }
}
