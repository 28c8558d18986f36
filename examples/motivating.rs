//! The Fig 1-1 motivating example, in code.
//!
//! The source sends 2 packets. The destination overhears p2; the relay R
//! receives both. Without coordination R might waste a transmission on
//! p2 — but a *coded* packet `c1·p1 + c2·p2` lets the destination recover
//! whatever it misses, no matter which packet that is.
//!
//! ```sh
//! cargo run --release --example motivating
//! ```

use more_repro::rlnc::{CodedPacket, Decoder, SourceEncoder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    // Two native packets at the source.
    let p1 = b"When a node transmits, there is always a chance...".to_vec();
    let p2 = b"...that a node closer to the destination overhears".to_vec();
    let len = p1.len().max(p2.len());
    let pad = |mut v: Vec<u8>| {
        v.resize(len, b' ');
        v
    };
    let natives = vec![pad(p1), pad(p2)];
    let enc = SourceEncoder::new(natives.clone()).unwrap();

    // The broadcast: destination happened to catch only p2.
    let dst_heard = enc.encode_with([0, 1]);
    let mut dst = Decoder::new(2, len);
    dst.receive(&dst_heard);
    println!("destination rank after overhearing p2: {}/2", dst.rank());

    // R heard both, but does NOT know what the destination holds. It
    // sends one random combination c1·p1 + c2·p2.
    let relay_packet: CodedPacket = enc.encode(&mut rng);
    println!(
        "relay broadcasts one coded packet with vector {:?}",
        relay_packet.vector()
    );

    // That single packet completes the transfer regardless of which
    // native the destination already has.
    dst.receive(&relay_packet);
    assert!(dst.is_complete());
    let decoded = dst.natives().unwrap();
    assert_eq!(decoded, natives);
    println!("destination decoded both packets:");
    for (i, p) in decoded.iter().enumerate() {
        println!("  p{}: {}", i + 1, String::from_utf8_lossy(p).trim_end());
    }
    println!("\nno coordination needed — that is MORE's trade of structure for randomness.");
}
