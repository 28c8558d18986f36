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
//! A model draws its state evolution from its **own** stream derived from
//! the run seed, while per-frame delivery verdicts are drawn by the engine
//! from the run's main stream — exactly where the static engine drew them.
//! Runs therefore stay a pure function of `(topology, agent, seed,
//! channel)`, and a static channel consumes the main stream identically
//! to the pre-channel engine. A Gilbert–Elliott link's state at an instant
//! depends on `(topology, spec, seed)`, the link and the instant alone —
//! not on `tick` calls or query order — so two protocols run at one seed
//! face identical air (`tests/channel_oracle.rs` holds this).
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
//! let ge = ChannelSpec::bursty_matched(0.0, 0.02, 0.2, 10).build(&topo, 1);
//! let p = ge.delivery(NodeId(0), NodeId(1), 5_000_000);
//! assert!((0.0..=1.0).contains(&p));
//! ```

use std::cell::Cell;

use crate::Time;
use mesh_topology::{NodeId, Topology};
use rand::RngCore;

use mesh_topology::streams::{self, Stream};

/// A loss process over the mesh's directed links.
///
/// The medium asks [`ChannelModel::delivery`] for the instantaneous
/// delivery probability of `(tx, rx)` when a frame ends; the engine draws
/// the per-receiver Bernoulli verdict from the run's main RNG stream.
/// Between two [`ChannelModel::tick`] calls the model must behave as a
/// pure function of `(tx, rx, now)`. A model may draw inside `tick`,
/// which the simulator invokes (monotonically, possibly repeatedly at the
/// same instant) before evaluating each reception, or work its state out
/// when asked, as the Gilbert–Elliott channel does. Either way the answer
/// must depend on the instant, never on the calls that led there: the
/// state at `now` is the same after one `tick` as after any monotone
/// sequence of them ending at `now`.
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
    /// called with a smaller `now` than before. Both models in this crate
    /// do nothing: their state is a function of the instant.
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
    ///
    /// Rates with no stationary mix to match — `(0, 0)`, `(a, 0)`, NaN —
    /// give a spec that [`ChannelSpec::validate_params`] rejects (its
    /// `good_scale` is not finite); `(0, b)` is a chain that is never bad
    /// and builds.
    pub fn bursty_matched(bad_scale: f64, to_bad: f64, to_good: f64, epoch_ms: u64) -> Self {
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
        match *self {
            ChannelSpec::Static => Box::new(StaticChannel { topo: topo.clone() }),
            ChannelSpec::GilbertElliott(ge) => {
                let key = streams::rng(seed, Stream::Channel).next_u64();
                Box::new(GilbertElliottChannel::new(topo, ge, key))
            }
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
/// A link's state at epoch `e` is a pure function of `(key, slot, e)`,
/// worked out when asked; `tick` does nothing. With `a = to_bad`,
/// `b = to_good`, the kernel `[[1−a, a], [b, 1−b]]` is one coin per
/// epoch. If `a + b ≤ 1` the epoch is *fresh* with probability `a + b`
/// and then bad with probability `a / (a + b)`, else the link keeps its
/// state; if `a + b > 1` it is fresh with probability `2 − a − b` and then
/// bad with probability `(1 − b) / (2 − a − b)`, else the link swaps.
/// Epoch 0 draws from π. One word per `(slot, epoch)` ([`streams::draw`])
/// settles both questions against exact IEEE thresholds: no `ln`, no `exp`.
///
/// The state at `e` is the latest fresh epoch's, swapped `e − k` times
/// where the chain swaps. A query walks back from `e`, stopping early at
/// the link's last query (if not later than `e`) or at epoch 0: at a new
/// epoch it costs `min(epochs since that query, 1 / P(fresh))` words in
/// expectation, and an epoch nobody asks about costs nothing.
pub struct GilbertElliottChannel {
    /// Resolves `(tx, rx)` to a link slot.
    topo: Topology,
    /// See [`row_starts`].
    row_start: Vec<u32>,
    epoch: Time,
    /// Keys [`streams::draw`]: the channel stream's first word.
    key: u64,
    /// `⌊P(fresh)·2⁶⁴⌋`. 0 where no epoch is fresh: `(0, 0)` freezes
    /// every link and `(1, 1)` swaps it every epoch.
    fresh: u128,
    /// `⌊P(fresh and bad)·2⁶⁴⌋`, at most `fresh`.
    fresh_bad: u128,
    /// `⌊π_bad·2⁶⁴⌋`: how epoch 0 draws.
    start_bad: u128,
    /// Whether an epoch that is not fresh swaps the state (`a + b > 1`).
    swaps: bool,
    /// Per link slot, what it delivers and where it was last asked.
    links: Vec<GeLink>,
}

/// One directed link of a [`GilbertElliottChannel`].
struct GeLink {
    /// Delivery in the good state.
    good_p: f64,
    /// Delivery in the bad state.
    bad_p: f64,
    /// `epoch << 1 | bad` at the link's last query.
    seen: Cell<u64>,
}

/// `⌊p·2⁶⁴⌋` for `p ∈ [0, 1]`, exactly (the cast floors): a uniform `u64`
/// lies below it with probability `p` to within `2⁻⁶⁴`, and surely at 1.
fn threshold(p: f64) -> u128 {
    (p * (1u128 << 64) as f64) as u128
}

impl GilbertElliottChannel {
    fn new(topo: &Topology, params: GilbertElliott, key: u64) -> Self {
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
        let (fresh, fresh_bad, swaps) = if to_bad + to_good <= 1.0 {
            (to_bad + to_good, to_bad, false)
        } else {
            ((1.0 - to_bad) + (1.0 - to_good), 1.0 - to_good, true)
        };
        let start_bad = threshold(pi_bad);
        // Per-link state deliveries. Where `p × good_scale` saturates, the
        // clamped excess moves into the bad state, weighted by occupancy,
        // so the link keeps its mean (see [`GilbertElliott`]); simply
        // clamping would break `bursty_matched` exactly on the best links.
        let links = topo
            .links()
            .enumerate()
            .map(|(slot, l)| {
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
                let bad = u128::from(streams::draw(key, slot as u64, 0)) < start_bad;
                GeLink {
                    good_p,
                    bad_p: (p * bad_scale + moved).clamp(0.0, 1.0),
                    seen: Cell::new(u64::from(bad)),
                }
            })
            .collect();
        GilbertElliottChannel {
            topo: topo.clone(),
            row_start: row_starts(topo),
            epoch: epoch_ms * crate::MS,
            key,
            fresh: threshold(fresh),
            fresh_bad: threshold(fresh_bad),
            start_bad,
            swaps,
            links,
        }
    }

    /// What link `slot` delivers at epoch `e`.
    fn delivery_at(&self, slot: usize, e: u64) -> f64 {
        let Some(link) = self.links.get(slot) else {
            return 0.0;
        };
        let seen = link.seen.get();
        let word = |k| u128::from(streams::draw(self.key, slot as u64, k));
        // Without fresh epochs the state is epoch 0's, swapped or not.
        let mut k = if self.fresh == 0 { 0 } else { e };
        let settled = loop {
            // Only reached when the last query is not later than `e`.
            if seen >> 1 == k {
                break seen & 1 == 1;
            }
            if k == 0 {
                break word(0) < self.start_bad;
            }
            let u = word(k);
            if u < self.fresh {
                break u < self.fresh_bad;
            }
            k -= 1;
        };
        let bad = settled ^ (self.swaps && (e - k) % 2 == 1);
        link.seen.set(e << 1 | u64::from(bad));
        if bad {
            link.bad_p
        } else {
            link.good_p
        }
    }
}

impl ChannelModel for GilbertElliottChannel {
    fn delivery(&self, tx: NodeId, rx: NodeId, now: Time) -> f64 {
        self.topo
            .link_slot(tx, rx)
            .map_or(0.0, |slot| self.delivery_at(slot, now / self.epoch))
    }

    fn delivery_row(&self, tx: NodeId, candidates: &[u32], now: Time, out: &mut Vec<f64>) {
        let row = self.row_start.get(tx.0).map_or(0, |&s| s as usize);
        let e = now / self.epoch;
        merge_row(&self.topo, tx, candidates, out, |k, _| {
            self.delivery_at(row + k, e)
        });
    }
}

/// Measures the topology a probing deployment would see over a live
/// channel: a fresh model instance (same `seed` as the run, so the probe
/// window previews exactly the run's channel) is asked at each probe's
/// instant while the estimator counts successes over `topo.links()` —
/// the only pairs a channel delivers on (see [`ChannelModel`]), which is
/// also what keeps city-scale probe windows at O(links · probes) draws.
/// A Gilbert–Elliott link costs `min(gap, 1 / P(fresh))` words per probe
/// (`gap`: epochs since the previous one), not the window's whole span.
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
