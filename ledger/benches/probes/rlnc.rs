//! `rlnc` encode / decode / recode / innovation check — the K=32 rows are
//! the paper's Table 4-1.

use super::{Bench, Out};
use more_core::batch_natives;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlnc::{pool, CodedPacket, Decoder, ForwarderBuffer, InnovationTracker, SourceEncoder};
use std::hint::black_box;

const PAYLOAD: usize = 1500;

pub fn probe(b: &Bench, out: &mut Out) {
    let names = [
        (
            32,
            "rlnc.encode_k32_us",
            "rlnc.decode_k32_us",
            "rlnc.innovation_check_k32_ns",
        ),
        (
            128,
            "rlnc.encode_k128_us",
            "rlnc.decode_k128_us",
            "rlnc.innovation_check_k128_ns",
        ),
    ];
    for (k, encode, decode, check) in names {
        let enc = SourceEncoder::new(batch_natives(1, 0, k, PAYLOAD)).expect("valid batch");
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // The engine recycles every frame it is done with; so does the probe.
        let ns = b.ns(|| pool::release(black_box(enc.encode(&mut rng)).into_data()));
        out.push((encode, ns / 1e3));

        // 2K random packets hold K innovative ones with near certainty.
        let packets: Vec<CodedPacket> = (0..2 * k).map(|_| enc.encode(&mut rng)).collect();
        let ns = b.ns(|| {
            let mut dec = Decoder::new(k, PAYLOAD);
            for p in &packets {
                if dec.is_complete() {
                    break;
                }
                dec.receive(p);
            }
            assert!(dec.is_complete(), "2K packets did not decode");
            black_box(dec.rank());
        });
        out.push((decode, ns / k as f64 / 1e3));

        if k == 128 {
            let ns = b.ns(|| {
                let mut fwd = ForwarderBuffer::new(k, PAYLOAD);
                for p in &packets[..k] {
                    fwd.receive(p, &mut rng);
                    if let Some(coded) = fwd.emit(&mut rng) {
                        pool::release(black_box(coded).into_data());
                    }
                }
                fwd.flush();
            });
            out.push(("rlnc.recode_k128_us", ns / k as f64 / 1e3));
        }

        // Half-full tracker: the check eliminates against K/2 rows.
        let mut tracker = InnovationTracker::new(k);
        while tracker.rank() < k / 2 {
            let v: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
            tracker.absorb(&v);
        }
        let candidates: Vec<Vec<u8>> = (0..64)
            .map(|_| (0..k).map(|_| rng.gen()).collect())
            .collect();
        let mut i = 0;
        let ns = b.ns(|| {
            i = (i + 1) % candidates.len();
            black_box(tracker.is_innovative(&candidates[i]));
        });
        out.push((check, ns));
    }
    out.push(("rlnc.pool_idle_buffers", pool::idle_buffers() as f64));
}
