//! The channel: how the air decides, frame by frame, whether a receiver
//! hears a transmitter.
//!
//! The paper's §5.3.1 network model is a *static* channel: every directed
//! link has one delivery probability, sampled independently per receiver
//! when a transmission ends. That is [`ChannelSpec::Static`], and it stays
//! the default everywhere. Real meshes also see bursty, correlated losses
//! (interference, microwave ovens), so a [`Channel`] runs one of two loss
//! processes, and scenarios can put the same protocols on different air:
//!
//! * [`ChannelSpec::Static`] — the paper's model; byte-identical runs to
//!   the pre-channel engine.
//! * [`ChannelSpec::GilbertElliott`] — two-state bursty loss per directed
//!   link (good/bad delivery scaling with per-epoch transition
//!   probabilities).
//!
//! Either way the air is the topology's link list: a pair without a link
//! never delivers (see [`Channel`]).
//!
//! ## Determinism
//!
//! The burst process draws its state from its **own** stream derived from
//! the run seed, while per-frame delivery verdicts are drawn by the engine
//! from the run's main stream — exactly where the static engine drew them.
//! Runs therefore stay a pure function of `(topology, agent, seed,
//! channel)`, and a static channel consumes the main stream identically
//! to the pre-channel engine. A Gilbert–Elliott link's state at an instant
//! depends on `(topology, spec, seed)`, the link and the instant alone —
//! not on query order — so two protocols run at one seed face identical
//! air (`tests/channel_oracle.rs` holds this).
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

/// Serializable description of a channel; builds a fresh [`Channel`] per
/// run via [`ChannelSpec::build`].
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

    /// Instantiates the channel over `topo` for one run, deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics when [`ChannelSpec::validate_params`] would fail (callers
    /// that want an error value validate first).
    pub fn build(&self, topo: &Topology, seed: u64) -> Channel {
        Channel::new(self, topo.clone(), seed)
    }
}

/// Rejects an interval of `ms` milliseconds that is zero (a query divides
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

/// The loss process of one run over its topology's directed links, built
/// by [`ChannelSpec::build`]: the topology's links as they are, or
/// Gilbert–Elliott bursts over them.
///
/// The medium asks [`Channel::delivery_row`] for the instantaneous
/// delivery probabilities out of a transmitter when its frame ends; the
/// engine draws the per-receiver Bernoulli verdicts from the run's main
/// RNG stream. The answer is a pure function of `(tx, rx, now)`: it
/// depends on the instant, never on the queries that led there.
///
/// **A channel delivers only on the topology's links**: `delivery` is `0`
/// at every instant for every pair the topology has no link for. The
/// medium relies on this — its reception candidates per transmitter are
/// the link list (plus carrier-sense and interference range), and a pair
/// outside them is never asked — and so does [`probe_topology`], which
/// probes `topo.links()` only (`tests/channel_oracle.rs` holds both
/// processes to it).
pub struct Channel {
    topo: Topology,
    /// The burst state; `None` on the static channel.
    bursts: Option<Bursts>,
}

impl Channel {
    /// The channel `spec` describes over `topo`, deterministic in `seed`
    /// (see [`ChannelSpec::build`]).
    pub(crate) fn new(spec: &ChannelSpec, topo: Topology, seed: u64) -> Self {
        #[expect(
            clippy::panic,
            reason = "the documented contract of ChannelSpec::build; validate_params() is the fallible form"
        )]
        if let Err(e) = spec.validate_params() {
            panic!("invalid channel spec: {e}");
        }
        let bursts = match *spec {
            ChannelSpec::Static => None,
            ChannelSpec::GilbertElliott(ge) => {
                let key = streams::rng(seed, Stream::Channel).next_u64();
                Some(Bursts::new(&topo, ge, key))
            }
        };
        Channel { topo, bursts }
    }

    /// The topology the channel runs over.
    pub(crate) fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Instantaneous delivery probability of the directed link `(tx, rx)`
    /// at time `now`, in `[0, 1]`; `0` where the topology has no link.
    pub fn delivery(&self, tx: NodeId, rx: NodeId, now: Time) -> f64 {
        match &self.bursts {
            None => self.topo.delivery(tx, rx),
            Some(b) => self
                .topo
                .link_slot(tx, rx)
                .map_or(0.0, |slot| b.delivery_at(slot, now / b.epoch)),
        }
    }

    /// [`Channel::delivery`] from `tx` to each of `candidates` at `now`,
    /// written to `out` (cleared first) in candidate order — what the
    /// medium asks once per finished frame, over its whole
    /// reception-candidate list. `candidates` holds node ids in **strictly
    /// ascending** order; it may include `tx` itself and nodes `tx` cannot
    /// reach, which read `0`.
    ///
    /// It equals `delivery` per candidate, bit for bit, but walks `tx`'s
    /// link row (ascending by receiver, as [`Topology::out_row`] holds
    /// it) alongside the list once instead of searching it per
    /// receiver (`tests/channel_oracle.rs` holds both processes to it).
    pub fn delivery_row(&self, tx: NodeId, candidates: &[u32], now: Time, out: &mut Vec<f64>) {
        match &self.bursts {
            None => self.merge_row(tx, candidates, out, |_, p| p),
            Some(b) => {
                let row = self.topo.link_slots(tx).start;
                let e = now / b.epoch;
                self.merge_row(tx, candidates, out, |k, _| b.delivery_at(row + k, e))
            }
        }
    }

    /// The body of [`Channel::delivery_row`]: one merge-walk of `tx`'s
    /// out-links against the ascending `candidates`. A candidate with a
    /// link gets `on_link(k, p)` — `k` the link's position in `tx`'s row,
    /// `p` its static delivery — and any other `0`.
    ///
    /// The medium's lists hold every out-link target (they are the
    /// symmetric linked relation), so the cursor steps by whether the
    /// candidate is the next link's target, with no search per candidate;
    /// a list that leaves link targets out is caught up by the skip loop,
    /// which the medium's lists never enter.
    fn merge_row(
        &self,
        tx: NodeId,
        candidates: &[u32],
        out: &mut Vec<f64>,
        mut on_link: impl FnMut(usize, f64) -> f64,
    ) {
        debug_assert!(candidates.is_sorted_by(|a, b| a < b), "ascending");
        out.clear();
        let (to, ps) = self.topo.out_row(tx);
        // Past the row's end: `u32::MAX`, which no node id reaches.
        let target = |k: usize| to.get(k).copied().unwrap_or(u32::MAX);
        let mut k = 0;
        out.extend(candidates.iter().map(|&rx| {
            while target(k) < rx {
                k += 1;
            }
            let (slot, has) = (k, target(k) == rx);
            k += usize::from(has);
            match ps.get(slot) {
                Some(&p) if has => on_link(slot, p),
                _ => 0.0,
            }
        }));
    }

    /// Does nothing: the channel's state is a function of the instant.
    /// Kept only because `ledger/benches/probes/mesh_sim.rs` times it for
    /// `mesh_sim.ge_tick_ns_per_link`; ROADMAP items 1(i) and 18 delete it.
    pub fn tick(&mut self, _now: Time) {}
}

/// Kept only because `ledger/benches/probes/mesh_sim.rs` passes
/// `ChannelSpec::build(..).as_ref()` to the medium; ROADMAP items 1(i)
/// and 18 delete it.
impl AsRef<Channel> for Channel {
    fn as_ref(&self) -> &Channel {
        self
    }
}

/// Two-state burst loss (see [`GilbertElliott`]): the state a [`Channel`]
/// keeps beside its topology, per link slot.
///
/// A link's state at epoch `e` is a pure function of `(key, slot, e)`,
/// worked out when asked. With `a = to_bad`, `b = to_good`, the kernel
/// `[[1−a, a], [b, 1−b]]` is one coin per epoch. If `a + b ≤ 1` the
/// epoch is *fresh* with probability `a + b` and then bad with
/// probability `a / (a + b)`, else the link keeps its state; if
/// `a + b > 1` it is fresh with probability `2 − a − b` and then bad with
/// probability `(1 − b) / (2 − a − b)`, else the link swaps.
/// Epoch 0 draws from π. One word per `(slot, epoch)` ([`streams::draw`])
/// settles both questions against exact IEEE thresholds: no `ln`, no `exp`.
///
/// The state at `e` is the latest fresh epoch's, swapped `e − k` times
/// where the chain swaps. A query one epoch after the link's last takes
/// one word; any other walks back from `e`, stopping early at the link's
/// last query (if not later than `e`) or at epoch 0: at a new epoch it
/// costs `min(epochs since that query, 1 / P(fresh))` words in
/// expectation, and an epoch nobody asks about costs nothing.
struct Bursts {
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

/// One directed link of a [`Bursts`].
struct GeLink {
    /// Delivery in the good state, then in the bad one: `p[bad]`.
    p: [f64; 2],
    /// `epoch << 1 | bad` at the link's last query.
    seen: Cell<u64>,
}

/// `⌊p·2⁶⁴⌋` for `p ∈ [0, 1]`, exactly (the cast floors): a uniform `u64`
/// lies below it with probability `p` to within `2⁻⁶⁴`, and surely at 1.
fn threshold(p: f64) -> u128 {
    (p * (1u128 << 64) as f64) as u128
}

impl Bursts {
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
                    p: [good_p, (p * bad_scale + moved).clamp(0.0, 1.0)],
                    seen: Cell::new(u64::from(bad)),
                }
            })
            .collect();
        Bursts {
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
    ///
    /// A link asked at `e` or `e − 1` last — most queries, as frames end
    /// several times per epoch — takes one step, by selects rather than
    /// branches on the coin: the same epoch keeps the state, a fresh one
    /// draws it, and any other carries it, swapped where the chain swaps.
    /// Longer gaps, and queries back in time, walk back.
    fn delivery_at(&self, slot: usize, e: u64) -> f64 {
        let Some(link) = self.links.get(slot) else {
            return 0.0;
        };
        let seen = link.seen.get();
        let word = |k| u128::from(streams::draw(self.key, slot as u64, k));
        let bad = if e.wrapping_sub(seen >> 1) <= 1 {
            let (last, u) = (seen & 1 == 1, word(e));
            // Bad when fresh and drawn bad (`fresh_bad ≤ fresh`), or not
            // fresh and carried bad. `|` and `&`, not `||` and `&&`: no
            // branch on the word.
            let next = (u < self.fresh_bad) | ((u >= self.fresh) & (last ^ self.swaps));
            // Unpredictable, or the word goes behind a branch on the epoch.
            std::hint::select_unpredictable(seen >> 1 == e, last, next)
        } else {
            self.walk_back(seen, e, word)
        };
        link.seen.set(e << 1 | u64::from(bad));
        link.p.get(usize::from(bad)).copied().unwrap_or(0.0)
    }

    /// The state at `e` of a link last asked at `seen`, walking back from
    /// `e` to the latest fresh epoch, the last query (if not later than
    /// `e`) or epoch 0, with `word(k)` the link's word at epoch `k`.
    fn walk_back(&self, seen: u64, e: u64, word: impl Fn(u64) -> u128) -> bool {
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
        settled ^ (self.swaps && (e - k) % 2 == 1)
    }
}

/// Measures the topology a probing deployment would see over a live
/// channel: a fresh channel (same `seed` as the run, so the probe
/// window previews exactly the run's channel) is asked at each probe's
/// instant while the estimator counts successes over `topo.links()` —
/// the only pairs a channel delivers on (see [`Channel`]), which is
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
    let chan = spec.build(topo, seed);
    est.estimate_live(topo, seed, interval_us, |tx, rx, now| {
        chan.delivery(tx, rx, now)
    })
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::generate;

    fn mean_delivery(chan: &Channel, tx: NodeId, rx: NodeId, epoch: Time) -> f64 {
        let rounds = 20_000u64;
        let mut sum = 0.0;
        for k in 0..rounds {
            sum += chan.delivery(tx, rx, k * epoch);
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
        let chan = spec.build(&topo, 7);
        let mean = mean_delivery(&chan, NodeId(0), NodeId(1), 10 * crate::MS);
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
        let chan = spec.build(&topo, 13);
        let mean = mean_delivery(&chan, NodeId(0), NodeId(1), 10 * crate::MS);
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
        let chan = spec.build(&topo, 11);
        let epoch = 10 * crate::MS;
        let mut flips = 0;
        let mut prev = chan.delivery(NodeId(0), NodeId(1), 0);
        for k in 1..5_000u64 {
            let cur = chan.delivery(NodeId(0), NodeId(1), k * epoch);
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
        let a = spec.build(&topo, 42);
        let b = spec.build(&topo, 42);
        let c = spec.build(&topo, 43);
        let mut saw_diff = false;
        for k in 0..200u64 {
            let now = k * 100 * crate::MS;
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
            // A spec `validate_params` passes builds without panicking
            // and never reports a delivery outside [0, 1].
            let c = good.build(&topo, 1);
            for now in [0, 1, 999, 10 * crate::MS, horizon] {
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
