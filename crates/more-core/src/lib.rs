//! MORE — MAC-independent Opportunistic Routing and Encoding.
//!
//! The paper's contribution (thesis Chapter 3), implemented as a
//! [`mesh_sim::NodeAgent`]:
//!
//! * the **source** breaks the file into batches of K native packets and,
//!   whenever the MAC lets it, broadcasts a fresh random linear
//!   combination of the current batch (§3.1.1);
//! * **forwarders** listen to all transmissions, store innovative packets,
//!   maintain a *credit counter* — incremented by the flow's TX credit
//!   (Eq 3.3) per packet heard from upstream, decremented per transmission
//!   — and broadcast pre-coded combinations while credit is positive
//!   (§3.2.1, §3.3.3);
//! * the **destination** checks innovativeness, ACKs the batch the moment
//!   the K-th innovative packet arrives (before decoding, §3.2.2), decodes
//!   by incremental Gaussian elimination, and pushes native packets up;
//! * **batch ACKs** travel back to the source as prioritized, reliably
//!   retransmitted unicasts along the ETX shortest path; every node that
//!   hears one purges the batch (§3.3.4).
//!
//! **Multicast** is the same protocol with more destinations, which is
//! the point of trading ExOR's structured scheduler for random coding
//! (§1): a coded packet is useful to every destination at once. A flow
//! holds one [`Destination`] per receiver, each with its own forwarder
//! plan and ACK frontier. A node's TX credit is the largest of its
//! per-destination credits, a packet counts as "from upstream" if its
//! sender is farther from some destination both serve, and the source
//! pumps the earliest batch some destination has not ACKed. There is one
//! purge rule: a participant that hears a batch ACK — overheard or
//! addressed to it for relaying — notes it against the destination it
//! came from and drops every batch all destinations have ACKed. With one
//! destination that is the paper's unicast protocol exactly.
//!
//! The forwarder set, transmission counts `z_i`, TX credits, and the 10 %
//! pruning rule come from [`mesh_metrics::ForwarderPlan`] — exactly the
//! Algorithm 1 pipeline of §3.2.1.
//!
//! Because MORE never touches the MAC, the same agent works unmodified for
//! one flow or many, unicast and multicast mixed
//! ([`mesh_sim::FlowAgent::add_flow`]), at any bit-rate, with
//! spatial reuse falling out of the 802.11 model rather than protocol
//! machinery — the property the paper trades ExOR's structure for.
//!
//! Frames carry [`MorePayload`] values, not bytes: the Fig 3-1 header
//! reaches the air only as its size, [`HEADER_BYTES`].

#![forbid(unsafe_code)]
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

pub mod agent;
pub mod flow;
pub mod header;

pub use agent::MoreAgent;
pub use flow::{Destination, FlowId, MoreFlow};
pub use header::MorePayload;

/// Which metric orders the forwarder list.
///
/// The shipped MORE uses ETX because it pre-dates EOTX; §5.7 argues
/// "future incarnations of both protocols should use the theoretically
/// exact EOTX". Both are offered; `paper ablation_eotx` measures the
/// difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ForwarderMetric {
    /// ETX ordering, as in the paper's evaluation (§3.2.1).
    #[default]
    Etx,
    /// EOTX ordering — the Chapter-5 optimum.
    Eotx,
}

/// MORE header bytes added to every data frame besides its K-byte code
/// vector, which is charged on its own. Fig 3-1's fields: packet type (1),
/// source and destination IP (4 + 4), flow id (4), batch id (4), and for
/// data packets the batch size K (2) and the forwarder list — a count (1),
/// then per forwarder a one-byte id (a hash of its IP) and a TX credit in
/// 1/256 fixed point (2). That is 50 B at the 10-forwarder cap; §4.6c
/// bounds the header by 70 B.
pub const HEADER_BYTES: usize = 70;

/// Protocol parameters (§4.1.2 defaults).
#[derive(Clone, Copy, Debug)]
pub struct MoreConfig {
    /// Batch size K (32 in the evaluation; Fig 4-7 sweeps 8–128).
    pub k: usize,
    /// Native packet size in bytes (1500 in the evaluation).
    pub packet_bytes: usize,
    /// Metric used to order forwarders and derive transmission counts.
    pub metric: ForwarderMetric,
    /// Carry and verify real coded payloads end-to-end: switches the
    /// payload bytes on, and nothing else. Without them every coded packet
    /// has a zero-length payload; the code vectors, the random draws and
    /// with them the whole run are the same, so a same-seed run replays
    /// exactly either way (`tests/payload_oracle.rs`). Costs CPU in large
    /// sweeps.
    pub track_payloads: bool,
}

impl Default for MoreConfig {
    fn default() -> Self {
        MoreConfig {
            k: 32,
            packet_bytes: 1500,
            metric: ForwarderMetric::default(),
            track_payloads: false,
        }
    }
}

/// Deterministic byte for native packet `idx` of `batch` in `flow` —
/// lets the destination verify decoded payloads without shipping the file.
pub fn native_byte(flow: u32, batch: u32, idx: usize) -> u8 {
    (flow as usize)
        .wrapping_mul(151)
        .wrapping_add((batch as usize).wrapping_mul(53))
        .wrapping_add(idx.wrapping_mul(7))
        .wrapping_add(13) as u8
}

/// The test file's period: byte `b` of a native is `seed + (b mod 251)`.
const PERIOD: usize = 251;

/// One period of the test file's ramp, `RAMP[b] = b`.
#[expect(
    clippy::indexing_slicing,
    reason = "evaluated at compile time, where an out-of-bounds index is a build error"
)]
const RAMP: [u8; PERIOD] = {
    let mut ramp = [0; PERIOD];
    let mut b = 0;
    while b < PERIOD {
        ramp[b] = b as u8;
        b += 1;
    }
    ramp
};

/// Writes native `i` of `batch` in `flow` into `row`: the ramp `b mod 251`
/// shifted by `native_byte(flow, batch, i)`, byte-wise wrapping, one
/// period at a time so that each is one wrapping add over a slice.
pub fn write_native(flow: u32, batch: u32, i: usize, row: &mut [u8]) {
    let seed = native_byte(flow, batch, i);
    for period in row.chunks_mut(PERIOD) {
        for (b, &r) in period.iter_mut().zip(&RAMP) {
            *b = r.wrapping_add(seed);
        }
    }
}

/// Builds the native packets for one batch (see [`write_native`]).
pub fn batch_natives(flow: u32, batch: u32, k: usize, bytes: usize) -> Vec<Vec<u8>> {
    let mut natives = vec![vec![0; bytes]; k];
    for (i, native) in natives.iter_mut().enumerate() {
        write_native(flow, batch, i, native);
    }
    natives
}

/// True iff `native` is the test file's native with seed `seed`: its first
/// period matches the ramp (an OR-fold of differences) and every later byte
/// equals the byte one period before it (a `memcmp`). Shares nothing with
/// [`write_native`]'s loop but the one-period table.
pub(crate) fn native_is_intact(native: &[u8], seed: u8) -> bool {
    let (head, tail) = native.split_at(native.len().min(PERIOD));
    let diff = head
        .iter()
        .zip(&RAMP)
        .fold(0, |acc, (&x, &r)| acc | (x ^ r.wrapping_add(seed)));
    diff == 0 && tail == native.split_at(tail.len()).0
}

#[cfg(test)]
mod test {
    use super::*;
    use rand::SeedableRng;
    use rlnc::{Decoder, SourceEncoder};

    /// Batch `batch` of flow 2 as a destination decodes it.
    fn decoded(batch: u32, k: usize, bytes: usize) -> Vec<Vec<u8>> {
        let enc = SourceEncoder::new(batch_natives(2, batch, k, bytes)).expect("valid batch");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(u64::from(batch));
        let mut dec = Decoder::new(k, bytes);
        while !dec.is_complete() {
            dec.receive(&enc.encode(&mut rng));
        }
        dec.natives().expect("rank K reached")
    }

    #[test]
    fn natives_follow_the_byte_at_a_time_definition() {
        for bytes in [1, 250, 251, 252, 1500] {
            let natives = batch_natives(3, 5, 4, bytes);
            for (i, native) in natives.iter().enumerate() {
                let seed = native_byte(3, 5, i);
                let want: Vec<u8> = (0..bytes)
                    .map(|b| seed.wrapping_add((b % 251) as u8))
                    .collect();
                assert_eq!(native, &want, "native {i}, {bytes} B");
            }
        }
    }

    #[test]
    fn verifier_rejects_any_one_flipped_byte() {
        // A full batch of 1500 B natives, a short final batch (3 natives),
        // and natives shorter than one period.
        let cases: [(u32, usize, usize, &[usize]); 3] = [
            (0, 4, 1500, &[0, 250, 251, 1499]),
            (1, 3, 1500, &[1499]),
            (2, 2, 100, &[0, 99]),
        ];
        for (batch, k, bytes, offsets) in cases {
            for (i, native) in decoded(batch, k, bytes).iter().enumerate() {
                let seed = native_byte(2, batch, i);
                assert!(native_is_intact(native, seed), "batch {batch} native {i}");
                for &at in offsets {
                    for flip in [0x01, 0x80, 0xFF] {
                        let mut bad = native.clone();
                        bad[at] ^= flip;
                        assert!(
                            !native_is_intact(&bad, seed),
                            "batch {batch} native {i}: byte {at} ^ {flip:#04x} passed"
                        );
                    }
                }
            }
        }
    }
}
