//! How fast the host is running *right now*: a reference kernel of the
//! benchmark's own, timed beside everything that is measured.
//!
//! The box is a two-vCPU microVM on shared hardware. What disturbs it is a
//! neighbour that switches on and off (most likely on the sibling hardware
//! thread): while it is on, every workload here runs 1.45–1.9 times slower
//! and this kernel 1.6–1.7 times slower, in user time, with no steal
//! reported; it toggles within fractions of a second and stays mostly-on
//! for minutes at a stretch (README, "Noise"). No statistic over raw pass
//! times survives that — the fastest of twenty 1 s passes read +45 % for
//! minutes — so every timing is divided by the *host speed index* observed
//! around it: this kernel's time just before and just after, over
//! [`NOMINAL_S`].
//!
//! The kernel is a streaming xor-multiply over two 256 KiB buffers — wide
//! loads and stores that live in L2, the resource mix the simulator's hot
//! loops share with a hardware-thread sibling. A latency-bound multiply
//! chain moves 1–3 % under the same disturbance, a random walk over 32 MiB
//! 4–8 %, independent ALU chains 27–41 %: they were measured and dropped
//! as references. The kernel calls nothing in the repository, so a change
//! to the code under test cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// What one [`Reference::sample`] takes on this host class while
/// undisturbed. Only a scale: it makes a normalized time read as the
/// seconds an undisturbed host would have shown.
pub const NOMINAL_S: f64 = 0.0105;

const BUFFER_BYTES: usize = 256 << 10;
const CHUNKS: usize = 45;
const SWEEPS_PER_CHUNK: usize = 24;

/// A chunk counts for at most this many times the sample's fastest chunk.
/// The neighbour slows a chunk 1.7 times; what is beyond 3 is a stall of
/// another kind (a timer tick, a page fault) of some milliseconds, which
/// is nothing to a one-second pass and would be everything to this sample.
const STALL_CAP: f64 = 3.0;

/// The reference kernel and its two buffers.
pub struct Reference {
    a: Vec<u8>,
    b: Vec<u8>,
}

impl Reference {
    /// Allocates and touches the buffers, and runs the kernel once so that
    /// the first timed sample finds them cached.
    pub fn new() -> Reference {
        let mut reference = Reference {
            a: vec![1; BUFFER_BYTES],
            b: vec![7; BUFFER_BYTES],
        };
        reference.sample();
        reference
    }

    /// Seconds the kernel takes now (≈ 10.5 ms undisturbed), timed in
    /// [`CHUNKS`] chunks so that a stall inside one can be capped.
    pub fn sample(&mut self) -> f64 {
        let mut chunks = [0.0f64; CHUNKS];
        for chunk in &mut chunks {
            let t0 = Instant::now();
            for _ in 0..SWEEPS_PER_CHUNK {
                for (x, y) in self.a.iter_mut().zip(&self.b) {
                    *x ^= y.wrapping_mul(3);
                }
                black_box(&mut self.a);
            }
            *chunk = t0.elapsed().as_secs_f64();
        }
        let cap = STALL_CAP * chunks.iter().copied().fold(f64::INFINITY, f64::min);
        chunks.iter().map(|chunk| chunk.min(cap)).sum()
    }
}

/// Host speed index around one measurement: 1 on an undisturbed host,
/// ≈ 1.65 while the neighbour is on.
pub fn index(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / (2.0 * NOMINAL_S)
}
