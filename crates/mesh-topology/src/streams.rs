//! The canonical RNG stream registry, and the only place library code
//! seeds a generator.
//!
//! Every independent randomness consumer in the workspace draws from the
//! ChaCha8 stream `seed ^ <NAME>_STREAM`, where the constant lives here
//! and nowhere else. Three properties hold by construction:
//!
//! 1. **uniqueness of names**: every stream is a variant of [`Stream`],
//!    where a second variant of one name is error E0428;
//! 2. **uniqueness of values**: two streams with the same XOR constant
//!    would collapse into one RNG sequence, silently correlating draws
//!    that the determinism contract promises are independent. Every
//!    constant is the discriminant of its `#[repr(u64)]` variant, where
//!    two equal discriminants are error E0081;
//! 3. **the derivation's shape**: [`rng`], [`retry_rng`] and
//!    [`pair_rngs`] are the library's only seeding calls (the root
//!    `clippy.toml` disallows the others outside tests), so every
//!    library generator mixes its seed with a named [`Stream`] in one of
//!    three fixed shapes.
//!
//! A new stream is a new `Stream` variant plus its constant here.
//!
//! [`draw`] is the one randomness primitive that is not a generator: a
//! counter-based word per `(key, slot, index)`, for a consumer that reads
//! its randomness out of order. Its key is a word of a named stream, so
//! it derives from the seed through [`rng`] like everything else.
//!
//! Consumers re-export their constant at its historical public path
//! (e.g. `scenario::TRAFFIC_STREAM`), so moving the definitions here
//! changed no values and therefore no RNG byte-stream.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One variant per stream. The discriminants are the constants' values,
/// so the compiler rejects a duplicate value (E0081).
#[repr(u64)]
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// The bare seed: the engine's main stream, and draws keyed by a
    /// seed the caller chose for them alone.
    Run = 0,
    /// [`CHANNEL_STREAM`].
    Channel = 0xC4A2_2E1C_51A7_0DE1,
    /// [`PROBE_STREAM`].
    Probe = 0x9B0B_E57A_11E5_7331,
    /// [`TRAFFIC_STREAM`].
    Traffic = 0x7AFF_1C00_5EED_F10B,
    /// [`QUEUE_STREAM`].
    Queue = 0x51EE_7AB1_E0DD_90C3,
    /// [`TESTBED_ATTEMPT_STREAM`].
    TestbedAttempt = 0x9E37_79B9_7F4A_7C15,
    /// [`MESH_ATTEMPT_STREAM`].
    MeshAttempt = 0xD1B5_4A32_D192_ED03,
    /// [`CITY_SCATTER_STREAM`].
    CityScatter = 0xA5C3_91E4_6B2D_8F17,
    /// [`CITY_LINK_STREAM`].
    CityLink = 0x3D8E_5A01_C97B_42D9,
}

/// The generator of `stream` under `seed`: ChaCha8 seeded with
/// `seed ^ stream`.
pub fn rng(seed: u64, stream: Stream) -> ChaCha8Rng {
    seeded(seed ^ stream as u64)
}

/// The generator of retry `attempt` of `stream` under `seed`: ChaCha8
/// seeded with `seed ^ attempt * stream` (wrapping), so attempt 0 draws
/// from the bare seed and each later one from its own stream.
pub fn retry_rng(seed: u64, stream: Stream, attempt: u64) -> ChaCha8Rng {
    seeded(seed ^ attempt.wrapping_mul(stream as u64))
}

/// The generators of up to eight unordered node pairs `(i, j)`, `i < j`,
/// of `stream` under `seed`, seeded together. Each lane is the generator
/// its pair's seed alone would give; the lanes past the last pair are
/// seeded with 0, for the caller to drop unread.
pub fn pair_rngs(
    seed: u64,
    stream: Stream,
    pairs: impl IntoIterator<Item = (usize, usize)>,
) -> [ChaCha8Rng; 8] {
    let mut seeds = [0; 8];
    for (lane, (i, j)) in seeds.iter_mut().zip(pairs) {
        *lane = pair_seed(seed, stream, i, j);
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the batched form of `seeded`; every lane is a pair_seed"
    )]
    ChaCha8Rng::seed_eight_from_u64(seeds)
}

/// Seed for the unordered pair `(i, j)`, `i < j`: a pure function of
/// `seed`, `stream` and the pair, so a pair's draws do not depend on the
/// order in which pairs are enumerated.
pub(crate) fn pair_seed(seed: u64, stream: Stream, i: usize, j: usize) -> u64 {
    seed ^ stream as u64 ^ mix64(((i as u64) << 32) | j as u64)
}

/// Word `index` of `slot`'s sequence under `key`: a pure function of the
/// three, so any word can be read in any order. Each slot is a SplitMix64
/// sequence — its finalizer over golden-ratio steps from the slot's own
/// origin, itself the finalizer of `key` and the slot. The finalizer is
/// a bijection, so distinct slots start from distinct origins.
pub fn draw(key: u64, slot: u64, index: u64) -> u64 {
    let origin = mix64(key ^ slot.wrapping_mul(GOLDEN_GAMMA));
    mix64(origin.wrapping_add(index.wrapping_mul(GOLDEN_GAMMA)))
}

/// SplitMix64's increment, `⌊2⁶⁴/φ⌋` made odd.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: decorrelates consecutive pair indices into
/// well-spread RNG seeds, and [`draw`]'s counters into words.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the registry's single seeding site: rng and retry_rng mix seed and stream"
)]
fn seeded(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// XOR'd into the run seed to give channel evolution its own ChaCha8
/// stream, so model-internal draws never perturb the engine's main
/// stream (which is what keeps static runs byte-identical to the
/// pre-channel engine). Consumed by `mesh_sim::channel`.
pub const CHANNEL_STREAM: u64 = Stream::Channel as u64;

/// XOR'd into the seed of `LinkEstimator::estimate_live` so probe draws
/// get their own ChaCha8 stream: callers pass the *run* seed (the probe
/// window previews that run's channel), and without the separation the
/// probe's Bernoulli draws would be bit-identical to the run's early
/// MAC/loss draws, correlating measured beliefs with actual outcomes.
pub const PROBE_STREAM: u64 = Stream::Probe as u64;

/// XOR'd into the run seed to give workload randomness its own ChaCha8
/// stream (the same device `mesh_sim::channel` uses for loss-process
/// evolution), so traffic draws never perturb the engine's main stream.
/// Consumed by `scenario::traffic`.
pub const TRAFFIC_STREAM: u64 = Stream::Traffic as u64;

/// XOR'd into the run seed to give queue-discipline randomness (RED's
/// marking draws, CHOKe's random peek) its own ChaCha8 stream, so AQM
/// decisions never perturb the engine's main stream — which is what
/// keeps `QueueSpec::Unbounded` runs byte-identical to the pre-queue
/// engine. Consumed by `mesh_sim::queue`.
pub const QUEUE_STREAM: u64 = Stream::Queue as u64;

/// Stream constant decorrelating testbed-generation retries from the
/// run seed (`crate::generate::testbed`).
pub const TESTBED_ATTEMPT_STREAM: u64 = Stream::TestbedAttempt as u64;

/// Stream constant decorrelating random-mesh retries from the run seed
/// (`crate::generate::random_mesh`).
pub const MESH_ATTEMPT_STREAM: u64 = Stream::MeshAttempt as u64;

/// XOR'd into the seed of the city-scale generator's node-placement RNG
/// (`crate::generate::city_mesh`), so scatter draws stay decorrelated
/// from the per-pair link draws below and from every run-seed consumer.
pub const CITY_SCATTER_STREAM: u64 = Stream::CityScatter as u64;

/// XOR'd (together with a splitmix-mixed pair index) into the per-pair
/// link RNG of `crate::generate::city_mesh`. Seeding each unordered node
/// pair independently makes the drawn shadowing/asymmetry — and hence
/// the generated mesh — independent of the order in which the spatial
/// grid enumerates candidate neighbors.
pub const CITY_LINK_STREAM: u64 = Stream::CityLink as u64;
