//! Pluggable channel models: how the air decides, frame by frame, whether
//! a receiver hears a transmitter.
//!
//! The paper's §5.3.1 network model is a *static* channel: every directed
//! link has one delivery probability, sampled independently per receiver
//! when a transmission ends. That is [`ChannelSpec::Static`], and it stays
//! the default everywhere. Real meshes also see bursty, correlated losses
//! (interference, microwave ovens). The [`ChannelModel`] trait makes the
//! loss process a swappable component so scenarios can put the same
//! protocols on different air:
//!
//! * [`ChannelSpec::Static`] — the paper's model; byte-identical runs to
//!   the pre-channel engine.
//! * [`ChannelSpec::GilbertElliott`] — two-state bursty loss per directed
//!   link (good/bad delivery scaling with per-epoch transition
//!   probabilities).
//!
//! Either way the air is the topology's link list: a pair without a link
//! never delivers (see [`ChannelModel`]).
//!
//! ## Determinism
//!
//! A model instance draws its state evolution (Gilbert–Elliott states
//! and sojourns) from its **own** ChaCha8 stream derived from the run
//! seed, while per-frame delivery verdicts are drawn by the engine from
//! the run's main stream — exactly where the static engine drew them.
//! Runs therefore stay a pure function of `(topology, agent, seed,
//! channel)`, and a static channel consumes the main stream identically
//! to the pre-channel engine.
//!
//! A model's sample path does not depend on when [`ChannelModel::tick`]
//! is called: every model consumes its stream in an order fixed by
//! `(topology, spec, seed)` alone — epoch-major, then link order — so
//! ticking to `T` in one call, epoch by epoch, or at the instants some
//! protocol's frames happen to end leaves the same air. Two protocols run
//! at one seed therefore face identical channels
//! (`tests/channel_oracle.rs` holds this for every ticking model).
//!
//! ```
//! use mesh_sim::channel::ChannelSpec;
//! use mesh_topology::{generate, NodeId};
//!
//! let topo = generate::line(2, 0.8, 0.0, 30.0);
//! // The default channel reports exactly the topology's links…
//! let stat = ChannelSpec::Static.build(&topo, 1);
//! assert_eq!(stat.delivery(NodeId(0), NodeId(1), 0), 0.8);
//! // …while a bursty channel modulates it over time.
//! let mut ge = ChannelSpec::bursty_matched(0.0, 0.02, 0.2, 10).build(&topo, 1);
//! ge.tick(5_000_000);
//! let p = ge.delivery(NodeId(0), NodeId(1), 5_000_000);
//! assert!((0.0..=1.0).contains(&p));
//! ```

use crate::Time;
use mesh_topology::{NodeId, Topology};
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

use mesh_topology::streams::{self, Stream};

/// A loss process over the mesh's directed links.
///
/// The medium asks [`ChannelModel::delivery`] for the instantaneous
/// delivery probability of `(tx, rx)` when a frame ends; the engine draws
/// the per-receiver Bernoulli verdict from the run's main RNG stream.
/// Between two [`ChannelModel::tick`] calls the model must behave as a
/// pure function of `(tx, rx, now)` — all randomness happens inside
/// `tick`, which the simulator invokes (monotonically, possibly repeatedly
/// at the same instant) before evaluating each reception. What `tick`
/// leaves behind must depend on the instant reached, never on the calls
/// that led there: the state at `now` is the same after one call as after
/// any monotone sequence of calls ending at `now`.
///
/// **A channel delivers only on the topology's links**: `delivery` is `0`
/// at every instant for every pair the topology has no link for. The
/// medium relies on this — its reception candidates per transmitter are
/// the link list (plus carrier-sense and interference range), and a pair
/// outside them is never asked — and so does [`probe_topology`], which
/// probes `topo.links()` only (`tests/channel_oracle.rs` holds every
/// model in this crate to it).
pub trait ChannelModel: Send {
    /// Instantaneous delivery probability of the directed link `(tx, rx)`
    /// at time `now`, in `[0, 1]`; `0` where the topology has no link.
    fn delivery(&self, tx: NodeId, rx: NodeId, now: Time) -> f64;

    /// [`ChannelModel::delivery`] from `tx` to each of `candidates` at
    /// `now`, written to `out` (cleared first) in candidate order — what
    /// the medium asks once per finished frame, over its whole
    /// reception-candidate list. `candidates` holds node ids in
    /// **strictly ascending** order; it may include `tx` itself and nodes
    /// `tx` cannot reach, which read `0`.
    ///
    /// An override **must equal `delivery` per candidate**, bit for bit;
    /// it exists so that a matrix-backed model can walk `tx`'s link row
    /// alongside the list once instead of searching it per receiver
    /// (`tests/channel_oracle.rs` holds every model in this crate to it).
    fn delivery_row(&self, tx: NodeId, candidates: &[u32], now: Time, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            candidates
                .iter()
                .map(|&rx| self.delivery(tx, NodeId(rx as usize), now)),
        );
    }

    /// Advances the model's internal state to `now` (µs). Must be
    /// idempotent for repeated calls with the same `now` and is never
    /// called with a smaller `now` than before. Static models do nothing.
    fn tick(&mut self, _now: Time) {}
}

/// Serializable description of a channel model; builds a fresh
/// [`ChannelModel`] instance per run via [`ChannelSpec::build`].
/// `GilbertElliott` holds its model's parameter struct.
///
/// `Static` is the default and reproduces the engine's historical
/// behaviour byte-for-byte.
#[derive(Clone, Debug, PartialEq, Default)]
#[must_use]
pub enum ChannelSpec {
    /// The §5.3.1 model: each link delivers at the topology's fixed
    /// probability. The default.
    #[default]
    Static,
    /// Two-state burst loss per directed link.
    GilbertElliott(GilbertElliott),
}

/// Two-state Gilbert–Elliott burst loss, independently per directed
/// link. In the *good* state a link delivers at `good_scale ×` its static
/// probability, in the *bad* state at `bad_scale ×`. Where the good-state
/// product saturates at 1, the clamped excess is redistributed into the
/// bad state (weighted by state occupancy) so each link's stationary mean
/// stays at the unclamped `π_g·good_scale·p + π_b·bad_scale·p` whenever
/// achievable — strong links degrade in bursts instead of silently losing
/// mean. Every `epoch_ms` each link flips good→bad with probability
/// `to_bad` and bad→good with `to_good`; initial states are drawn from
/// the stationary distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Delivery multiplier in the good state (≥ 1 compensates bursts).
    pub good_scale: f64,
    /// Delivery multiplier in the bad state (0 = outage).
    pub bad_scale: f64,
    /// Per-epoch probability of entering the bad state.
    pub to_bad: f64,
    /// Per-epoch probability of leaving the bad state.
    pub to_good: f64,
    /// State-transition epoch in milliseconds.
    pub epoch_ms: u64,
}

impl GilbertElliott {
    fn label(&self) -> String {
        let GilbertElliott {
            good_scale,
            bad_scale,
            to_bad,
            to_good,
            epoch_ms,
        } = self;
        format!("ge(good={good_scale};bad={bad_scale};to_bad={to_bad};to_good={to_good};epoch={epoch_ms}ms)")
    }

    fn validate(&self) -> Result<(), String> {
        check_interval("GilbertElliott epoch_ms", self.epoch_ms)?;
        for (name, v) in [("to_bad", self.to_bad), ("to_good", self.to_good)] {
            // Written so that NaN fails the range test.
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("GilbertElliott {name} = {v} outside [0,1]"));
            }
        }
        check_at_least_zero("GilbertElliott good_scale", self.good_scale)?;
        check_at_least_zero("GilbertElliott bad_scale", self.bad_scale)
    }
}

impl ChannelSpec {
    /// A Gilbert–Elliott channel whose *mean* delivery matches the static
    /// topology: given the bad-state scale and the transition
    /// probabilities, the good-state scale is solved from the stationary
    /// distribution so that `π_good·good + π_bad·bad = 1`. Per-link
    /// saturation redistribution (see [`GilbertElliott`]) keeps the match
    /// exact even on links whose static delivery exceeds `1 / good_scale`.
    ///
    /// ```
    /// use mesh_sim::channel::ChannelSpec;
    /// let spec = ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10);
    /// if let ChannelSpec::GilbertElliott(ge) = spec {
    ///     assert!((ge.good_scale - 1.25).abs() < 1e-12); // π_good = 0.8
    /// } else {
    ///     unreachable!();
    /// }
    /// ```
    pub fn bursty_matched(bad_scale: f64, to_bad: f64, to_good: f64, epoch_ms: u64) -> Self {
        assert!(
            to_bad > 0.0 && to_good > 0.0,
            "transition rates must be positive"
        );
        let pi_bad = to_bad / (to_bad + to_good);
        let pi_good = 1.0 - pi_bad;
        ChannelSpec::GilbertElliott(GilbertElliott {
            good_scale: (1.0 - pi_bad * bad_scale) / pi_good,
            bad_scale,
            to_bad,
            to_good,
            epoch_ms,
        })
    }

    /// Short, comma-free identifier used as the `channel` key in scenario
    /// JSON/CSV output ("static", "ge(…)").
    pub fn label(&self) -> String {
        match self {
            ChannelSpec::Static => "static".to_string(),
            ChannelSpec::GilbertElliott(ge) => ge.label(),
        }
    }

    /// Checks that every parameter is usable: real-valued parameters must
    /// be finite and inside their ranges, the epoch must be non-zero and
    /// fit [`Time`] once converted to microseconds. No topology is needed:
    /// every model lives on whatever link list it is built over.
    pub fn validate_params(&self) -> Result<(), String> {
        match self {
            ChannelSpec::Static => Ok(()),
            ChannelSpec::GilbertElliott(ge) => ge.validate(),
        }
    }

    /// [`ChannelSpec::validate_params`]. `_topo` is unused; the form stays
    /// only because `ledger/benches/staged.rs` calls it, and `ledger/`
    /// moves only in a `benchmark` PR (ROADMAP item 1 drops it).
    pub fn validate(&self, _topo: &Topology) -> Result<(), String> {
        self.validate_params()
    }

    /// Instantiates the model over `topo` for one run, deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics when [`ChannelSpec::validate_params`] would fail (callers
    /// that want an error value validate first).
    pub fn build(&self, topo: &Topology, seed: u64) -> Box<dyn ChannelModel> {
        #[expect(
            clippy::panic,
            reason = "the documented contract above; validate_params() is the fallible form"
        )]
        if let Err(e) = self.validate_params() {
            panic!("invalid channel spec: {e}");
        }
        let rng = streams::rng(seed, Stream::Channel);
        match *self {
            ChannelSpec::Static => Box::new(StaticChannel { topo: topo.clone() }),
            ChannelSpec::GilbertElliott(ge) => Box::new(GilbertElliottChannel::new(topo, ge, rng)),
        }
    }
}

/// Rejects an interval of `ms` milliseconds that is zero (`tick` divides
/// by it) or does not fit [`Time`] in microseconds (it would wrap).
fn check_interval(what: &str, ms: u64) -> Result<(), String> {
    match ms.checked_mul(crate::MS) {
        Some(0) => Err(format!("{what} must be > 0")),
        Some(_) => Ok(()),
        None => Err(format!("{what} = {ms} overflows the engine's µs clock")),
    }
}

/// Rejects a parameter that is NaN, infinite or negative.
fn check_at_least_zero(what: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && v >= 0.0 {
        Ok(())
    } else {
        Err(format!("{what} = {v} must be finite and non-negative"))
    }
}

/// The shared body of the matrix-backed models' [`ChannelModel::delivery_row`]:
/// one merge-walk of `tx`'s out-links (ascending by receiver, as
/// [`Topology::neighbors_out`] yields them) against the ascending
/// `candidates`. A candidate with a link gets `on_link(k, p)` — `k` the
/// link's position in `tx`'s row, `p` its matrix entry — and any other `0`.
fn merge_row(
    topo: &Topology,
    tx: NodeId,
    candidates: &[u32],
    out: &mut Vec<f64>,
    mut on_link: impl FnMut(usize, f64) -> f64,
) {
    debug_assert!(candidates.is_sorted_by(|a, b| a < b), "ascending");
    out.clear();
    let mut row = topo.neighbors_out(tx).enumerate().peekable();
    out.extend(candidates.iter().map(|&rx| {
        let rx = rx as usize;
        while row.next_if(|&(_, (to, _))| to.0 < rx).is_some() {}
        row.next_if(|&(_, (to, _))| to.0 == rx)
            .map_or(0.0, |(k, (_, p))| on_link(k, p))
    }));
}

/// Where each transmitter's row starts in [`Topology::links`] order
/// (`n + 1` offsets): link `k` of `tx`'s row has slot `starts[tx] + k`,
/// the slot [`Topology::link_slot`] finds by search.
fn row_starts(topo: &Topology) -> Vec<u32> {
    let mut starts = Vec::with_capacity(topo.n() + 1);
    let mut at = 0u32;
    starts.push(at);
    for i in topo.nodes() {
        at += topo.neighbors(i).count() as u32;
        starts.push(at);
    }
    starts
}

/// The paper's static channel: delivery is the topology's links.
pub struct StaticChannel {
    topo: Topology,
}

impl ChannelModel for StaticChannel {
    fn delivery(&self, tx: NodeId, rx: NodeId, _now: Time) -> f64 {
        self.topo.delivery(tx, rx)
    }

    fn delivery_row(&self, tx: NodeId, candidates: &[u32], _now: Time, out: &mut Vec<f64>) {
        merge_row(&self.topo, tx, candidates, out, |_, p| p);
    }
}

/// Two-state burst-loss channel (see [`GilbertElliott`]).
///
/// A two-state Markov chain spends geometric sojourns in each state, so a
/// link is evolved by *when it next flips* instead of being asked every
/// epoch whether it does: entering a state draws how many epochs the link
/// stays there, and `tick` applies only the flips that have come due —
/// epoch by epoch and, within an epoch, in link order, all from the one
/// channel stream. Cost is one draw per state change, not one per link
/// per epoch, and the sample path is the same however `tick` is called.
///
/// `tick` finds the due links on an epoch wheel (`Wheel`) instead of
/// scanning every link, and draws sojourns from an exact lookup table
/// (`SojournTable`) instead of through `ln`: the same draws in the same
/// order as `sojourn`, so the same sample path. Both are built on the
/// first `tick` that advances an epoch, not with the channel: a run
/// whose air never moves pays nothing for them.
pub struct GilbertElliottChannel {
    /// Resolves `(tx, rx)` to a link slot.
    topo: Topology,
    /// See [`row_starts`].
    row_start: Vec<u32>,
    epoch: Time,
    /// `ln(1 − to_bad)`: what a sojourn in the good state is drawn from.
    ln_stay_good: f64,
    /// `ln(1 − to_good)`, likewise for the bad state.
    ln_stay_bad: f64,
    /// Per link slot, the epoch at which the link next changes state;
    /// `u64::MAX` where it never does.
    next_flip: Vec<u64>,
    /// Per link slot, the state and what it delivers.
    links: Vec<GeLink>,
    epochs_done: u64,
    rng: ChaCha8Rng,
    /// The wheel and both sojourn tables, once an epoch has passed.
    air: Option<Box<Air>>,
}

/// What [`GilbertElliottChannel::tick`] needs beyond the per-link state.
struct Air {
    wheel: Wheel,
    stay_good: SojournTable,
    stay_bad: SojournTable,
}

/// One directed link of a [`GilbertElliottChannel`].
struct GeLink {
    /// Delivery in the good state.
    good_p: f64,
    /// Delivery in the bad state.
    bad_p: f64,
    bad: bool,
}

impl GeLink {
    fn delivery(&self) -> f64 {
        if self.bad {
            self.bad_p
        } else {
            self.good_p
        }
    }
}

/// `gen::<f64>()` is `m · 2⁻⁵³` for the 53-bit integer `m = next_u64() >> 11`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
/// One past the largest `m`.
const M_END: u64 = 1 << 53;

/// Epochs a link spends in a state it leaves with per-epoch probability
/// `q`, given `ln_stay = ln(1 − q)`: geometric on `1, 2, …` by inversion,
/// `1 + ⌊ln(1 − U) / ln(1 − q)⌋`. `q = 0` never leaves (`u64::MAX`, no
/// draw); `q = 1` leaves at the next epoch.
fn sojourn(rng: &mut ChaCha8Rng, ln_stay: f64) -> u64 {
    if ln_stay == 0.0 {
        return u64::MAX;
    }
    sojourn_at(rng.next_u64() >> 11, ln_stay)
}

/// [`sojourn`] for the draw whose 53-bit integer is `m`: the definition
/// every [`SojournTable`] is built from, and its answer past its last
/// entry. Non-decreasing in `m`.
fn sojourn_at(m: u64, ln_stay: f64) -> u64 {
    // `1 − u` is exact and lies in (0, 1], so the quotient is ≥ 0 (and 0
    // under `ln_stay = −∞`); the cast floors it and saturates.
    let u = m as f64 * UNIT;
    (((1.0 - u).ln() / ln_stay) as u64).saturating_add(1)
}

/// Sojourn lengths a [`SojournTable`] resolves; a longer one is computed.
const TABLE_CAP: usize = 256;
/// `m >> GUIDE_SHIFT` is `m`'s top ten bits, its [`SojournTable::guide`] entry.
const GUIDE_SHIFT: u32 = 43;

/// [`sojourn`] by lookup: thresholds on `m` instead of `ln` per draw.
/// Since `sojourn_at` is non-decreasing in `m`, the sojourn of `m` is one
/// plus the number of thresholds `t_k` (the least `m` whose sojourn is at
/// least `k`, for `k ≥ 2`) at or below `m`. Each threshold is found by
/// evaluating `sojourn_at` itself, so table and formula agree on every
/// `m`, and a draw consumes exactly the one word [`sojourn`] does.
struct SojournTable {
    ln_stay: f64,
    /// `t_2, t_3, …`, ascending (ties where one step of `m` skips a
    /// length); at most [`TABLE_CAP`] of them.
    thresholds: Vec<u64>,
    /// Where `sojourn_at` takes over: the last threshold when the table
    /// was capped, [`M_END`] when it lists every length `m` can reach.
    beyond: u64,
    /// Per top-ten-bit prefix `g`: how many thresholds are at or below
    /// `g · 2⁴³`, where the scan for an `m` with that prefix starts.
    guide: [u16; 1 << (53 - GUIDE_SHIFT)],
}

impl SojournTable {
    fn new(ln_stay: f64) -> Self {
        // `ln_stay = 0` never draws (its quotients are infinite or NaN).
        let longest = if ln_stay == 0.0 {
            1
        } else {
            sojourn_at(M_END - 1, ln_stay)
        };
        let last_k = longest.min(TABLE_CAP as u64 + 1);
        let mut thresholds: Vec<u64> = Vec::new();
        for k in 2..=last_k {
            let from = thresholds.last().copied().unwrap_or(0);
            // Where `1 − U = (1 − q)^(k−1)`, give or take rounding.
            let guess = -((k - 1) as f64 * ln_stay).exp_m1() / UNIT;
            thresholds.push(threshold(k, ln_stay, from, guess as u64));
        }
        let beyond = match thresholds.last() {
            Some(&last) if longest > last_k => last,
            _ => M_END,
        };
        let guide = std::array::from_fn(|g| {
            let start = (g as u64) << GUIDE_SHIFT;
            thresholds.partition_point(|&t| t <= start) as u16
        });
        SojournTable {
            ln_stay,
            thresholds,
            beyond,
            guide,
        }
    }

    /// [`sojourn`]`(rng, ln_stay)`, draw for draw.
    fn draw(&self, rng: &mut ChaCha8Rng) -> u64 {
        if self.ln_stay == 0.0 {
            return u64::MAX;
        }
        self.at(rng.next_u64() >> 11)
    }

    /// [`sojourn_at`]`(m, ln_stay)` for `m < 2⁵³`.
    fn at(&self, m: u64) -> u64 {
        if m >= self.beyond {
            return sojourn_at(m, self.ln_stay);
        }
        let mut i = self
            .guide
            .get((m >> GUIDE_SHIFT) as usize)
            .map_or(0, |&g| usize::from(g));
        while self.thresholds.get(i).is_some_and(|&t| t <= m) {
            i += 1;
        }
        i as u64 + 1
    }
}

/// `t_k`: the least `m` whose sojourn reaches `k`, for `2 ≤ k ≤` the
/// longest sojourn any `m` draws. Steps from `guess` with the formula
/// itself; `from` is `t_{k−1}`, below which no `m` reaches `k`.
fn threshold(k: u64, ln_stay: f64, from: u64, guess: u64) -> u64 {
    let reaches = |m| sojourn_at(m, ln_stay) >= k;
    let mut t = guess.clamp(from, M_END - 1);
    while t > from && reaches(t - 1) {
        t -= 1;
    }
    while !reaches(t) {
        t += 1;
    }
    t
}

/// Revolution of the epoch wheel, in epochs.
const WHEEL: u64 = 64;

/// Which links may be due at which epoch: [`WHEEL`] buckets of one bit
/// per link slot, bucket `e mod WHEEL` holding every link whose
/// `next_flip ≡ e`. Walking a bucket's bits in ascending order visits its
/// links in link order; a link due in a later revolution is passed over
/// and keeps its bit. A link that never flips has none.
struct Wheel {
    /// `⌈links / 64⌉`: words per bucket.
    words: usize,
    /// Bucket `b` is `bits[b·words .. (b+1)·words]`.
    bits: Vec<u64>,
}

impl Wheel {
    fn new(next_flip: &[u64]) -> Self {
        let words = next_flip.len().div_ceil(64);
        let mut wheel = Wheel {
            words,
            bits: vec![0; WHEEL as usize * words],
        };
        for (slot, &due) in next_flip.iter().enumerate() {
            wheel.set(slot, due);
        }
        wheel
    }

    /// Marks `slot` due at epoch `due` (unless that is never).
    fn set(&mut self, slot: usize, due: u64) {
        if due == u64::MAX {
            return;
        }
        let at = (due % WHEEL) as usize * self.words + slot / 64;
        if let Some(word) = self.bits.get_mut(at) {
            *word |= 1 << (slot % 64);
        }
    }

    /// Unmarks `slot` in `bucket`.
    fn clear(&mut self, slot: usize, bucket: usize) {
        if let Some(word) = self.bits.get_mut(bucket * self.words + slot / 64) {
            *word &= !(1 << (slot % 64));
        }
    }

    /// Word `w` of `bucket`.
    fn word(&self, bucket: usize, w: usize) -> u64 {
        self.bits.get(bucket * self.words + w).copied().unwrap_or(0)
    }
}

impl GilbertElliottChannel {
    fn new(topo: &Topology, params: GilbertElliott, mut rng: ChaCha8Rng) -> Self {
        let GilbertElliott {
            good_scale,
            bad_scale,
            to_bad,
            to_good,
            epoch_ms,
        } = params;
        let pi_bad = if to_bad + to_good > 0.0 {
            to_bad / (to_bad + to_good)
        } else {
            0.0
        };
        let pi_good = 1.0 - pi_bad;
        // `ln_1p` keeps rates below f64's epsilon from rounding to "never".
        let (ln_stay_good, ln_stay_bad) = ((-to_bad).ln_1p(), (-to_good).ln_1p());
        // Per-link state deliveries. Strong links saturate: `p ×
        // good_scale` can exceed 1, and simply clamping it would silently
        // lower the link's stationary mean (breaking `bursty_matched`'s
        // matched-mean construction exactly on the best links). The
        // clamped excess is therefore redistributed into the bad state,
        // weighted by the state occupancies, so each link's mean stays
        // `π_g·good_scale·p + π_b·bad_scale·p` whenever that is
        // achievable — strong links degrade in bursts rather than die.
        //
        // Each link then draws, in link order, its initial state from the
        // stationary distribution and how long it stays there.
        let mut next_flip = Vec::with_capacity(topo.link_count());
        let links = topo
            .links()
            .map(|l| {
                let p = l.delivery;
                let raw_good = p * good_scale;
                let good_p = raw_good.min(1.0);
                let excess = raw_good - good_p;
                // Guarded so that `0 × ∞` (no excess, vanishing π_bad)
                // cannot put a NaN into the table.
                let moved = if excess > 0.0 && pi_bad > 0.0 {
                    excess * pi_good / pi_bad
                } else {
                    0.0
                };
                let bad = rng.gen::<f64>() < pi_bad;
                let ln_stay = if bad { ln_stay_bad } else { ln_stay_good };
                next_flip.push(sojourn(&mut rng, ln_stay));
                GeLink {
                    good_p,
                    bad_p: (p * bad_scale + moved).clamp(0.0, 1.0),
                    bad,
                }
            })
            .collect();
        GilbertElliottChannel {
            topo: topo.clone(),
            row_start: row_starts(topo),
            epoch: epoch_ms * crate::MS,
            ln_stay_good,
            ln_stay_bad,
            next_flip,
            links,
            epochs_done: 0,
            rng,
            air: None,
        }
    }

    fn link(&self, tx: NodeId, rx: NodeId) -> Option<&GeLink> {
        self.links.get(self.topo.link_slot(tx, rx)?)
    }
}

impl ChannelModel for GilbertElliottChannel {
    fn delivery(&self, tx: NodeId, rx: NodeId, _now: Time) -> f64 {
        self.link(tx, rx).map_or(0.0, GeLink::delivery)
    }

    fn delivery_row(&self, tx: NodeId, candidates: &[u32], _now: Time, out: &mut Vec<f64>) {
        let row = self.row_start.get(tx.0).map_or(0, |&s| s as usize);
        merge_row(&self.topo, tx, candidates, out, |k, _| {
            self.links.get(row + k).map_or(0.0, GeLink::delivery)
        });
    }

    fn tick(&mut self, now: Time) {
        let target = now / self.epoch;
        if self.epochs_done >= target {
            return;
        }
        let air = self.air.get_or_insert_with(|| {
            Box::new(Air {
                wheel: Wheel::new(&self.next_flip),
                stay_good: SojournTable::new(self.ln_stay_good),
                stay_bad: SojournTable::new(self.ln_stay_bad),
            })
        });
        while self.epochs_done < target {
            self.epochs_done += 1;
            let e = self.epochs_done;
            let bucket = (e % WHEEL) as usize;
            for w in 0..air.wheel.words {
                // A copy: a link that flips here is not visited again
                // this epoch, even when its next flip lands in this bucket
                // (a sojourn is ≥ 1 epoch, so it flips at most once).
                let mut pending = air.wheel.word(bucket, w);
                while pending != 0 {
                    let slot = w * 64 + pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    let (Some(due), Some(link)) =
                        (self.next_flip.get_mut(slot), self.links.get_mut(slot))
                    else {
                        continue;
                    };
                    if *due != e {
                        continue; // due in a later revolution
                    }
                    link.bad = !link.bad;
                    let table = if link.bad {
                        &air.stay_bad
                    } else {
                        &air.stay_good
                    };
                    *due = e.saturating_add(table.draw(&mut self.rng));
                    air.wheel.clear(slot, bucket);
                    air.wheel.set(slot, *due);
                }
            }
        }
    }
}

/// Measures the topology a probing deployment would see over a live
/// channel: a fresh model instance (same `seed` as the run, so the probe
/// window previews exactly the run's channel) is advanced probe by probe
/// while the estimator counts successes over `topo.links()` — the only
/// pairs a channel delivers on (see [`ChannelModel`]), which is also what
/// keeps city-scale probe windows at O(links · probes) draws.
///
/// This is the experiment the paper could not run — routing on probe-era
/// beliefs while the air keeps moving underneath.
///
/// ```
/// use mesh_sim::channel::{probe_topology, ChannelSpec};
/// use mesh_topology::estimator::LinkEstimator;
/// use mesh_topology::generate;
///
/// let topo = generate::line(2, 0.8, 0.0, 30.0);
/// let est = LinkEstimator { probes: 200, min_delivery: 0.05 };
/// let spec = ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10);
/// let believed = probe_topology(&est, &topo, &spec, 1, 1_000);
/// assert_eq!(believed.n(), topo.n());
/// ```
pub fn probe_topology(
    est: &mesh_topology::estimator::LinkEstimator,
    topo: &Topology,
    spec: &ChannelSpec,
    seed: u64,
    interval_us: Time,
) -> Topology {
    let mut model = spec.build(topo, seed);
    est.estimate_live(topo, seed, interval_us, |tx, rx, now| {
        model.tick(now);
        model.delivery(tx, rx, now)
    })
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::generate;
    use rand::SeedableRng;

    fn mean_delivery(model: &mut dyn ChannelModel, tx: NodeId, rx: NodeId, epoch: Time) -> f64 {
        let rounds = 20_000u64;
        let mut sum = 0.0;
        for k in 0..rounds {
            let now = k * epoch;
            model.tick(now);
            sum += model.delivery(tx, rx, now);
        }
        sum / rounds as f64
    }

    #[test]
    fn static_channel_reports_the_matrix() {
        let topo = generate::testbed(1);
        let c = ChannelSpec::Static.build(&topo, 3);
        for l in topo.links() {
            assert_eq!(c.delivery(l.from, l.to, 123_456), l.delivery);
        }
        assert_eq!(c.delivery(NodeId(0), NodeId(0), 0), 0.0);
    }

    #[test]
    fn gilbert_elliott_matched_mean_approaches_static() {
        let topo = generate::line(1, 0.8, 0.0, 30.0);
        let spec = ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10);
        let mut model = spec.build(&topo, 7);
        let mean = mean_delivery(model.as_mut(), NodeId(0), NodeId(1), 10 * crate::MS);
        assert!(
            (mean - 0.8).abs() < 0.03,
            "matched GE mean {mean} far from static 0.8"
        );
    }

    #[test]
    fn gilbert_elliott_matched_mean_survives_good_state_saturation() {
        // p = 0.95 × good_scale 1.25 saturates at 1.0; the clamped excess
        // must flow into the bad state so the stationary mean stays 0.95
        // (testbed links reach 0.98 — without this the "matched mean"
        // construction silently raises their loss rate).
        let topo = generate::line(1, 0.95, 0.0, 30.0);
        let spec = ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10);
        let mut model = spec.build(&topo, 13);
        let mean = mean_delivery(model.as_mut(), NodeId(0), NodeId(1), 10 * crate::MS);
        assert!(
            (mean - 0.95).abs() < 0.03,
            "saturated GE mean {mean} far from static 0.95"
        );
    }

    #[test]
    fn gilbert_elliott_is_bursty_not_iid() {
        // With slow transitions the state at t and t+epoch must be highly
        // correlated: count state flips between consecutive epochs.
        let topo = generate::line(1, 0.8, 0.0, 30.0);
        let spec = ChannelSpec::bursty_matched(0.0, 0.02, 0.1, 10);
        let mut model = spec.build(&topo, 11);
        let epoch = 10 * crate::MS;
        let mut flips = 0;
        let mut prev = model.delivery(NodeId(0), NodeId(1), 0);
        for k in 1..5_000u64 {
            model.tick(k * epoch);
            let cur = model.delivery(NodeId(0), NodeId(1), k * epoch);
            if (cur - prev).abs() > 1e-9 {
                flips += 1;
            }
            prev = cur;
        }
        // iid sampling would flip ~50% of epochs; GE flips ≈ 2·π_g·to_bad.
        assert!(flips > 0, "the chain must move");
        assert!(
            (flips as f64) < 5_000.0 * 0.15,
            "GE flipped too often ({flips}) to be bursty"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = generate::testbed(1);
        let spec = ChannelSpec::bursty_matched(0.1, 0.05, 0.2, 10);
        let mut a = spec.build(&topo, 42);
        let mut b = spec.build(&topo, 42);
        let mut c = spec.build(&topo, 43);
        let mut saw_diff = false;
        for k in 0..200u64 {
            let now = k * 100 * crate::MS;
            a.tick(now);
            b.tick(now);
            c.tick(now);
            for l in topo.links() {
                let pa = a.delivery(l.from, l.to, now);
                assert_eq!(pa, b.delivery(l.from, l.to, now));
                if (pa - c.delivery(l.from, l.to, now)).abs() > 1e-12 {
                    saw_diff = true;
                }
            }
        }
        assert!(saw_diff, "different seeds never diverged");
    }

    #[test]
    fn labels_are_distinct_and_comma_free() {
        let labels = [
            ChannelSpec::Static.label(),
            ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10).label(),
        ];
        assert!(labels.iter().all(|l| !l.contains(',')), "{labels:?}");
        assert_ne!(labels[0], labels[1]);
        assert_eq!(labels[0], "static");
    }

    /// The rates the table is held to: the ledger workload's, long and
    /// short sojourns, near-certain flips, rates far below `f64`'s
    /// epsilon (capped tables, mostly formula), and `q = 1` (no
    /// thresholds at all).
    const TABLE_RATES: [f64; 9] = [0.05, 0.25, 0.01, 0.5, 0.9, 0.999, 1e-6, 1e-12, 1.0];

    #[test]
    fn sojourn_table_is_the_formula() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut checked = 0u64;
        for q in TABLE_RATES {
            let ln_stay = (-q).ln_1p();
            let table = SojournTable::new(ln_stay);
            let formula = |m| sojourn_at(m, ln_stay);
            assert!(table.thresholds.len() <= TABLE_CAP, "q = {q}");
            assert!(table.thresholds.is_sorted(), "q = {q}");
            let mut near = vec![0, 1, M_END - 2, M_END - 1];
            for (k, &t) in (2u64..).zip(&table.thresholds) {
                // `t_k` is the least `m` whose sojourn reaches `k`.
                assert!(
                    t > 0 && formula(t - 1) < k && k <= formula(t),
                    "q = {q}: t_{k} = {t}"
                );
                near.extend(
                    (t.saturating_sub(4096)..=t.saturating_add(4096)).filter(|&m| m < M_END),
                );
            }
            near.extend((0..1_000_000).map(|_| rng.next_u64() >> 11));
            for m in near {
                assert_eq!(table.at(m), formula(m), "q = {q}, m = {m}");
                checked += 1;
            }
        }
        assert!(checked > 18_000_000, "only {checked} values checked");
    }

    #[test]
    fn sojourn_table_caps_only_where_sojourns_run_long() {
        for q in TABLE_RATES {
            let table = SojournTable::new((-q).ln_1p());
            let longest = sojourn_at(M_END - 1, (-q).ln_1p());
            // A full table lists `t_2 ..= t_{CAP+1}`: it is capped only
            // when a longer sojourn exists.
            let capped = table.beyond < M_END;
            assert_eq!(capped, longest > TABLE_CAP as u64 + 1, "q = {q}");
            if !capped {
                assert_eq!(table.thresholds.len() as u64, longest - 1, "q = {q}");
            }
        }
        // q = 1e-12: past the cap almost every draw is the formula's.
        let rare = SojournTable::new((-1e-12f64).ln_1p());
        assert!(rare.beyond < M_END >> 20, "{}", rare.beyond);
    }

    #[test]
    fn sojourn_table_draws_what_the_formula_draws() {
        for q in TABLE_RATES.into_iter().chain([0.0]) {
            let ln_stay = (-q).ln_1p();
            let table = SojournTable::new(ln_stay);
            let mut by_table = ChaCha8Rng::seed_from_u64(9);
            let mut by_formula = ChaCha8Rng::seed_from_u64(9);
            for _ in 0..10_000 {
                assert_eq!(
                    table.draw(&mut by_table),
                    sojourn(&mut by_formula, ln_stay),
                    "q = {q}"
                );
            }
            // One word per draw, and none at `q = 0`.
            assert_eq!(by_table.next_u64(), by_formula.next_u64(), "q = {q}");
        }
    }

    #[test]
    fn validate_rejects_nonsense() {
        let topo = generate::line(1, 0.9, 0.0, 30.0);
        let ge = |good_scale, bad_scale, to_bad, to_good, epoch_ms| {
            ChannelSpec::GilbertElliott(GilbertElliott {
                good_scale,
                bad_scale,
                to_bad,
                to_good,
                epoch_ms,
            })
        };
        // The longest interval `validate_params` lets through; one epoch
        // of it reaches the end of the clock.
        let max_ms = u64::MAX / crate::MS;
        for (good, horizon) in [
            (ge(1.25, 0.0, 0.05, 0.2, 10), crate::SEC),
            (ge(0.0, 0.0, 0.0, 0.0, 1), crate::SEC),
            (ge(2.0, 0.0, 5e-324, 1.0, 10), crate::SEC),
            (ge(f64::MAX, f64::MAX, 1.0, 1.0, max_ms), u64::MAX),
        ] {
            assert_eq!(good.validate_params(), Ok(()), "{good:?}");
            // A spec `validate_params` passes builds and ticks without
            // panicking and never reports a delivery outside [0, 1].
            let mut c = good.build(&topo, 1);
            for now in [0, 1, 999, 10 * crate::MS, horizon] {
                c.tick(now);
                let p = c.delivery(NodeId(0), NodeId(1), now);
                assert!((0.0..=1.0).contains(&p), "{good:?}: delivery {p} at {now}");
            }
        }
        // Wrapping and zero intervals: `1 << 61` ms is 0 µs modulo 2^64.
        for ms in [0, 1 << 61, max_ms + 1, u64::MAX] {
            let bad = ge(1.0, 0.0, 0.05, 0.2, ms);
            assert!(bad.validate_params().is_err(), "{bad:?}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            for bad in [
                ge(x, 0.0, 0.05, 0.2, 10),
                ge(1.0, x, 0.05, 0.2, 10),
                ge(1.0, 0.0, x, 0.2, 10),
                ge(1.0, 0.0, 0.05, x, 10),
            ] {
                assert!(bad.validate_params().is_err(), "{bad:?}");
            }
        }
        assert!(ge(1.0, 0.0, 1.5, 0.2, 10).validate_params().is_err());
    }
}
