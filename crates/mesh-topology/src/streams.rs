//! The canonical RNG stream registry, and the only place library code
//! seeds a generator.
//!
//! Every independent randomness consumer in the workspace draws from a
//! ChaCha8 stream derived from its seed and a variant of [`Stream`],
//! defined here and nowhere else. Three properties hold by construction:
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
//! A new stream is a new `Stream` variant, with the reason it needs a
//! stream of its own.
//!
//! [`draw`] is the one randomness primitive that is not a generator: a
//! counter-based word per `(key, slot, index)`, for a consumer that reads
//! its randomness out of order. Its key is a word of a named stream, so
//! it derives from the seed through [`rng`] like everything else.
//!
//! [`bernoulli`] is the one coin: a verdict at probability `p` from one
//! generator word, the draw `rng.gen::<f64>() < p` makes, decided without
//! a branch on the outcome.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One variant per stream. A stream's generator is seeded from the seed
/// xor its discriminant, so the compiler rejects a duplicate value
/// (E0081).
#[repr(u64)]
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// The bare seed: the engine's main stream, and draws keyed by a
    /// seed the caller chose for them alone.
    Run = 0,
    /// Channel evolution (`mesh_sim::channel`), under the run seed: a
    /// stream of its own so model-internal draws never perturb the
    /// engine's main stream (which is what keeps static runs
    /// byte-identical to the pre-channel engine).
    Channel = 0xC4A2_2E1C_51A7_0DE1,
    /// Probe draws (`LinkEstimator::estimate_live`): callers pass the
    /// *run* seed (the probe window previews that run's channel), and
    /// without the separation the probe's Bernoulli draws would be
    /// bit-identical to the run's early MAC/loss draws, correlating
    /// measured beliefs with actual outcomes.
    Probe = 0x9B0B_E57A_11E5_7331,
    /// Workload randomness (`scenario::traffic`), under the run seed, so
    /// traffic draws never perturb the engine's main stream.
    Traffic = 0x7AFF_1C00_5EED_F10B,
    /// Queue-discipline randomness (RED's marking draws, CHOKe's random
    /// peek; `mesh_sim::queue`), under the run seed, so AQM decisions
    /// never perturb the engine's main stream — which is what keeps
    /// `QueueSpec::Unbounded` runs byte-identical to the pre-queue
    /// engine.
    Queue = 0x51EE_7AB1_E0DD_90C3,
    /// Decorrelates testbed-generation retries from the run seed
    /// (`crate::generate::testbed`).
    TestbedAttempt = 0x9E37_79B9_7F4A_7C15,
    /// Decorrelates random-mesh retries from the run seed
    /// (`crate::generate::random_mesh`).
    MeshAttempt = 0xD1B5_4A32_D192_ED03,
    /// The city-scale generator's node placement
    /// (`crate::generate::city_mesh`), so scatter draws stay
    /// decorrelated from the per-pair link draws and from every run-seed
    /// consumer.
    CityScatter = 0xA5C3_91E4_6B2D_8F17,
    /// The per-pair link draws of `crate::generate::city_mesh`, mixed
    /// with a splitmix-mixed pair index ([`pair_rngs`]). Seeding each
    /// unordered node pair independently makes the drawn
    /// shadowing/asymmetry — and hence the generated mesh — independent
    /// of the order in which the spatial grid enumerates candidate
    /// neighbors.
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

/// `rng.gen::<f64>() < p`, draw for draw: the same word is consumed and
/// the same verdict given, NaN included.
///
/// `gen::<f64>()` is `m·2⁻⁵³` for `m` the word's top 53 bits. Scaling by a
/// power of two is exact (`p·2⁵³` that overflows is `∞`, and `p > 1`
/// there), and `m` converts exactly, so `m·2⁻⁵³ < p` is `m < p·2⁵³`. The
/// verdict is a value, so a caller can count or keep it without
/// branching on it (`hits += u32::from(bernoulli(..))`).
#[inline]
pub fn bernoulli(rng: &mut impl RngCore, p: f64) -> bool {
    ((rng.next_u64() >> 11) as f64) < p * TWO_POW_53
}

/// `2⁵³`: the scale of [`bernoulli`]'s threshold.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

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
