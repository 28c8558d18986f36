//! [`streams::bernoulli`] is `rng.gen::<f64>() < p`, draw for draw: the
//! same verdict from the same word, and the stream left at the same
//! place, for random words and at the probabilities where a threshold
//! could round — 0, subnormals, the neighbours of 2⁻⁵³ (one step of the
//! 53-bit grid), ½, 1 − ulp, 1, and NaN — as well as at each word's own
//! grid point and its float neighbours.

use mesh_topology::streams::bernoulli;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `2⁻⁵³`, one step of the grid `gen::<f64>()` lands on.
const STEP: f64 = 1.0 / (1u64 << 53) as f64;

/// Probabilities where a scaled threshold could round differently.
fn edges() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
        STEP.next_down(),
        STEP,
        STEP.next_up(),
        2.0 * STEP,
        0.5f64.next_down(),
        0.5,
        0.5f64.next_up(),
        1.0 - STEP,
        1.0f64.next_down(),
        1.0,
        1.0f64.next_up(),
        -1.0,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]
}

/// A generator that answers every call with one word.
struct Word(u64);

impl RngCore for Word {
    fn next_u32(&mut self) -> u32 {
        self.0 as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.0
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for (b, w) in dest.iter_mut().zip(self.0.to_le_bytes().iter().cycle()) {
            *b = *w;
        }
    }
}

/// The reference verdict of `word` at `p`.
fn reference(word: u64, p: f64) -> bool {
    Word(word).gen::<f64>() < p
}

/// The words at and around the grid point of `p`, and the extremes.
fn words_near(p: f64) -> Vec<u64> {
    let mut words = vec![0, 1 << 11, u64::MAX, u64::MAX << 11, (1 << 11) - 1];
    if (0.0..1.0).contains(&p) {
        let m = (p / STEP) as u64;
        for m in [m.saturating_sub(1), m, m + 1] {
            words.extend([m << 11, (m << 11) | 0x7ff]);
        }
    }
    words
}

#[test]
fn edge_probabilities_against_their_neighbouring_words() {
    for p in edges() {
        for word in words_near(p) {
            assert_eq!(
                bernoulli(&mut Word(word), p),
                reference(word, p),
                "word {word:#x} at p = {p:e} ({:#x})",
                p.to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random words at random probabilities, at each word's own grid
    /// point (where `<` is decided by one ulp) and at the edges.
    #[test]
    fn one_word_one_verdict(word in any::<u64>(), bits in any::<u64>(), u in any::<f64>()) {
        let grid = (word >> 11) as f64 * STEP;
        let mut ps = vec![u, f64::from_bits(bits), grid, grid.next_up(), grid.next_down()];
        ps.extend(edges());
        for p in ps {
            prop_assert_eq!(
                bernoulli(&mut Word(word), p),
                reference(word, p),
                "word {:#x} at p = {:e}", word, p
            );
        }
    }

    /// Over a generator's stream: each call consumes exactly the word the
    /// reference consumes, so both generators stay in step.
    #[test]
    fn the_stream_moves_word_for_word(seed in any::<u64>(), picks in proptest::collection::vec(any::<u64>(), 1..64)) {
        let edges = edges();
        let mut ours = ChaCha8Rng::seed_from_u64(seed);
        let mut theirs = ours.clone();
        for (i, pick) in picks.into_iter().enumerate() {
            let p = edges
                .get(pick as usize % (edges.len() + 1))
                .copied()
                .unwrap_or((pick >> 11) as f64 * STEP);
            prop_assert_eq!(bernoulli(&mut ours, p), theirs.gen::<f64>() < p, "call {} at p = {:e}", i, p);
            prop_assert_eq!(ours.clone().next_u64(), theirs.clone().next_u64(), "position after call {}", i);
        }
    }
}
