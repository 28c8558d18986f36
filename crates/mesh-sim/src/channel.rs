//! Pluggable channel models: how the air decides, frame by frame, whether
//! a receiver hears a transmitter.
//!
//! The paper's §5.3.1 network model is a *static* channel: every directed
//! link has one delivery probability, sampled independently per receiver
//! when a transmission ends. That is [`ChannelSpec::Static`], and it stays
//! the default everywhere. Real meshes see more: bursty, correlated losses
//! (interference, microwave ovens), slow fades as people and doors move,
//! and links whose quality drifts over minutes. The [`ChannelModel`] trait
//! makes the loss process a first-class, swappable component so scenarios
//! can put the same protocols on very different air:
//!
//! * [`ChannelSpec::Static`] — the paper's model; byte-identical runs to
//!   the pre-channel engine.
//! * [`ChannelSpec::GilbertElliott`] — two-state bursty loss per directed
//!   link (good/bad delivery scaling with per-epoch transition
//!   probabilities).
//! * [`ChannelSpec::Shadowing`] — distance-based path loss plus log-normal
//!   shadowing re-drawn per epoch; requires node positions and *ignores*
//!   the topology's delivery matrix (the geometry is the channel).
//! * [`ChannelSpec::TimeVarying`] — slow sinusoidal plus random-walk drift
//!   of each link's delivery around the topology's mean.
//!
//! ## Determinism
//!
//! A model instance draws its state evolution (Gilbert–Elliott states
//! and sojourns, shadowing redraws, random-walk steps) from its **own**
//! ChaCha8 stream derived from the run seed, while per-frame delivery
//! verdicts are drawn by the engine from the run's main stream — exactly
//! where the static engine drew them. Runs therefore stay a pure function
//! of `(topology, agent, seed, channel)`, and a static channel consumes
//! the main stream identically to the pre-channel engine.
//!
//! A model's sample path does not depend on when [`ChannelModel::tick`]
//! is called: every model consumes its stream in an order fixed by
//! `(topology, spec, seed)` alone — epoch-major, then link (or pair)
//! order — so ticking to `T` in one call, epoch by epoch, or at the
//! instants some protocol's frames happen to end leaves the same air.
//! Two protocols run at one seed therefore face identical channels
//! (`tests/channel_oracle.rs` holds this for every ticking model).
//!
//! ```
//! use mesh_sim::channel::ChannelSpec;
//! use mesh_topology::{generate, NodeId};
//!
//! let topo = generate::line(2, 0.8, 0.0, 30.0);
//! // The default channel reports exactly the topology's matrix…
//! let stat = ChannelSpec::Static.build(&topo, 1);
//! assert_eq!(stat.delivery(NodeId(0), NodeId(1), 0), 0.8);
//! // …while a bursty channel modulates it over time.
//! let mut ge = ChannelSpec::bursty_matched(0.0, 0.02, 0.2, 10).build(&topo, 1);
//! ge.tick(5_000_000);
//! let p = ge.delivery(NodeId(0), NodeId(1), 5_000_000);
//! assert!((0.0..=1.0).contains(&p));
//! ```

use crate::Time;
use mesh_topology::{NodeId, Position, Topology};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mesh_topology::streams::CHANNEL_STREAM;

/// Vertical meters per floor, matching the medium's range computations.
const FLOOR_HEIGHT_M: f64 = 10.0;

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
pub trait ChannelModel: Send {
    /// Instantaneous delivery probability of the directed link `(tx, rx)`
    /// at time `now`, in `[0, 1]`; `0` where no energy arrives.
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

    /// Can `(tx, rx)` *ever* carry energy under this model? The medium
    /// extends its carrier-sense and interference relations with this,
    /// so geometry-driven channels whose link set goes beyond the static
    /// matrix (shadowing) still defer to — and collide with — every
    /// transmitter that could plausibly be decoded. Must be time-
    /// independent (a superset of all instants is fine), and must
    /// contain the support of [`ChannelModel::delivery`]: whenever
    /// `delivery(tx, rx, now) > 0` at any instant, `may_reach(tx, rx)`
    /// is `true`. The medium relies on this to enumerate reception
    /// candidates per transmitter instead of scanning every node.
    fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool;

    /// How the medium and the probing helpers enumerate the
    /// [`ChannelModel::may_reach`] relation without an O(n²) pair scan.
    /// Every model states one: a model whose support leaves the
    /// topology's matrix must carry node positions and bound its reach
    /// ([`ReachHint::WithinDistance`]); there is no unstructured mode.
    fn reach_hint(&self) -> ReachHint;
}

/// How a channel's [`ChannelModel::may_reach`] relation is shaped.
///
/// The medium and the probing helpers use this to *enumerate* the pairs
/// that could ever carry energy: from the topology's link set alone, or
/// from a spatial-index query. A hint only narrows the enumeration;
/// `may_reach` itself stays the source of truth for each candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
#[must_use]
pub enum ReachHint {
    /// `may_reach` is contained in the support of the topology's static
    /// delivery matrix: the topology's links enumerate every reachable
    /// pair. True for matrix-backed models (static, Gilbert–Elliott,
    /// time-varying drift).
    MatrixOnly,
    /// `may_reach(a, b)` implies the nodes sit within this many meters of
    /// each other (3D, counting floors); node positions are available.
    /// A 2D spatial-index query with this radius therefore yields a
    /// candidate superset, confirmed pair by pair with `may_reach`.
    WithinDistance(f64),
}

/// Serializable description of a channel model; builds a fresh
/// [`ChannelModel`] instance per run via [`ChannelSpec::build`].
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
    /// Two-state Gilbert–Elliott burst loss, independently per directed
    /// link. In the *good* state a link delivers at `good_scale ×` its
    /// static probability, in the *bad* state at `bad_scale ×`. Where the
    /// good-state product saturates at 1, the clamped excess is
    /// redistributed into the bad state (weighted by state occupancy) so
    /// each link's stationary mean stays at the unclamped
    /// `π_g·good_scale·p + π_b·bad_scale·p` whenever achievable — strong
    /// links degrade in bursts instead of silently losing mean. Every
    /// `epoch_ms` each link flips good→bad with probability `to_bad` and
    /// bad→good with `to_good`; initial states are drawn from the
    /// stationary distribution.
    GilbertElliott {
        /// Delivery multiplier in the good state (≥ 1 compensates bursts).
        good_scale: f64,
        /// Delivery multiplier in the bad state (0 = outage).
        bad_scale: f64,
        /// Per-epoch probability of entering the bad state.
        to_bad: f64,
        /// Per-epoch probability of leaving the bad state.
        to_good: f64,
        /// State-transition epoch in milliseconds.
        epoch_ms: u64,
    },
    /// Distance-based path loss plus log-normal shadowing, re-drawn per
    /// epoch and symmetric per node pair. Requires node positions; the
    /// topology's delivery matrix is ignored (the geometry *is* the
    /// channel), which is what lets scenarios separate "what routing
    /// believes" from "what the air does".
    Shadowing {
        /// Path-loss exponent (2 free space … 4 indoor).
        path_loss_exp: f64,
        /// Standard deviation of the log-normal shadowing term, dB.
        sigma_db: f64,
        /// Distance in meters at which un-shadowed delivery is 50%.
        midpoint_m: f64,
        /// Shadowing redraw epoch in milliseconds.
        epoch_ms: u64,
    },
    /// Slow drift of each link's delivery around the topology's mean: a
    /// per-link-phase sinusoid of the given amplitude plus a per-epoch
    /// Gaussian random walk, clamped to `[0, 1]`.
    TimeVarying {
        /// Peak sinusoidal deviation from the static probability.
        amplitude: f64,
        /// Sinusoid period in milliseconds.
        period_ms: u64,
        /// Per-epoch standard deviation of the random-walk step.
        walk_sigma: f64,
        /// Random-walk epoch in milliseconds.
        epoch_ms: u64,
    },
}

impl ChannelSpec {
    /// A Gilbert–Elliott channel whose *mean* delivery matches the static
    /// topology: given the bad-state scale and the transition
    /// probabilities, the good-state scale is solved from the stationary
    /// distribution so that `π_good·good + π_bad·bad = 1`. Per-link
    /// saturation redistribution (see [`ChannelSpec::GilbertElliott`])
    /// keeps the match exact even on links whose static delivery exceeds
    /// `1 / good_scale`.
    ///
    /// ```
    /// use mesh_sim::channel::ChannelSpec;
    /// let spec = ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10);
    /// if let ChannelSpec::GilbertElliott { good_scale, .. } = spec {
    ///     assert!((good_scale - 1.25).abs() < 1e-12); // π_good = 0.8
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
        ChannelSpec::GilbertElliott {
            good_scale: (1.0 - pi_bad * bad_scale) / pi_good,
            bad_scale,
            to_bad,
            to_good,
            epoch_ms,
        }
    }

    /// Short, comma-free identifier used as the `channel` key in scenario
    /// JSON/CSV output ("static", "ge(…)", "shadow(…)", "drift(…)").
    pub fn label(&self) -> String {
        match self {
            ChannelSpec::Static => "static".to_string(),
            ChannelSpec::GilbertElliott {
                good_scale,
                bad_scale,
                to_bad,
                to_good,
                epoch_ms,
            } => format!("ge(good={good_scale};bad={bad_scale};to_bad={to_bad};to_good={to_good};epoch={epoch_ms}ms)"),
            ChannelSpec::Shadowing {
                path_loss_exp,
                sigma_db,
                midpoint_m,
                epoch_ms,
            } => format!("shadow(ple={path_loss_exp};sigma={sigma_db}dB;mid={midpoint_m}m;epoch={epoch_ms}ms)"),
            ChannelSpec::TimeVarying {
                amplitude,
                period_ms,
                walk_sigma,
                epoch_ms,
            } => format!("drift(amp={amplitude};period={period_ms}ms;walk={walk_sigma};epoch={epoch_ms}ms)"),
        }
    }

    /// True for the default static channel.
    pub fn is_static(&self) -> bool {
        matches!(self, ChannelSpec::Static)
    }

    /// Checks that `topo` can host this channel and that every parameter
    /// is usable: shadowing needs node positions, real-valued parameters
    /// must be finite and inside their ranges, epochs and periods must be
    /// non-zero and fit [`Time`] once converted to microseconds.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        match *self {
            ChannelSpec::Static => Ok(()),
            ChannelSpec::GilbertElliott {
                good_scale,
                bad_scale,
                to_bad,
                to_good,
                epoch_ms,
            } => {
                check_interval("GilbertElliott epoch_ms", epoch_ms)?;
                for (name, v) in [("to_bad", to_bad), ("to_good", to_good)] {
                    // Written so that NaN fails the range test.
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("GilbertElliott {name} = {v} outside [0,1]"));
                    }
                }
                check_at_least_zero("GilbertElliott good_scale", good_scale)?;
                check_at_least_zero("GilbertElliott bad_scale", bad_scale)
            }
            ChannelSpec::Shadowing {
                path_loss_exp,
                sigma_db,
                midpoint_m,
                epoch_ms,
            } => {
                if topo.positions().is_none() {
                    return Err(format!(
                        "Shadowing channel requires node positions; topology {:?} has none",
                        topo.name
                    ));
                }
                check_interval("Shadowing epoch_ms", epoch_ms)?;
                for (name, v) in [("path_loss_exp", path_loss_exp), ("midpoint_m", midpoint_m)] {
                    if !(v.is_finite() && v > 0.0) {
                        return Err(format!(
                            "Shadowing {name} = {v} must be finite and positive"
                        ));
                    }
                }
                check_at_least_zero("Shadowing sigma_db", sigma_db)
            }
            ChannelSpec::TimeVarying {
                amplitude,
                period_ms,
                walk_sigma,
                epoch_ms,
            } => {
                check_interval("TimeVarying epoch_ms", epoch_ms)?;
                check_interval("TimeVarying period_ms", period_ms)?;
                check_at_least_zero("TimeVarying amplitude", amplitude)?;
                check_at_least_zero("TimeVarying walk_sigma", walk_sigma)
            }
        }
    }

    /// Instantiates the model over `topo` for one run, deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics when [`ChannelSpec::validate`] would fail (callers that
    /// want an error value validate first).
    pub fn build(&self, topo: &Topology, seed: u64) -> Box<dyn ChannelModel> {
        if let Err(e) = self.validate(topo) {
            // xtask: allow(panic_path) -- the documented contract above; validate() is the fallible form.
            panic!("invalid channel spec: {e}");
        }
        let rng = ChaCha8Rng::seed_from_u64(seed ^ CHANNEL_STREAM);
        match *self {
            ChannelSpec::Static => Box::new(StaticChannel { topo: topo.clone() }),
            ChannelSpec::GilbertElliott {
                good_scale,
                bad_scale,
                to_bad,
                to_good,
                epoch_ms,
            } => Box::new(GilbertElliottChannel::new(
                topo, good_scale, bad_scale, to_bad, to_good, epoch_ms, rng,
            )),
            ChannelSpec::Shadowing {
                path_loss_exp,
                sigma_db,
                midpoint_m,
                epoch_ms,
            } => Box::new(ShadowingChannel::new(
                topo,
                path_loss_exp,
                sigma_db,
                midpoint_m,
                epoch_ms,
                rng,
            )),
            ChannelSpec::TimeVarying {
                amplitude,
                period_ms,
                walk_sigma,
                epoch_ms,
            } => Box::new(TimeVaryingChannel::new(
                topo, amplitude, period_ms, walk_sigma, epoch_ms, rng,
            )),
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

/// The paper's static channel: delivery is the topology's matrix.
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

    fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool {
        self.topo.delivery(tx, rx) > 0.0
    }

    fn reach_hint(&self) -> ReachHint {
        ReachHint::MatrixOnly
    }
}

/// Two-state burst-loss channel (see [`ChannelSpec::GilbertElliott`]).
///
/// A two-state Markov chain spends geometric sojourns in each state, so a
/// link is evolved by *when it next flips* instead of being asked every
/// epoch whether it does: entering a state draws how many epochs the link
/// stays there, and `tick` applies only the flips that have come due —
/// epoch by epoch and, within an epoch, in link order, all from the one
/// channel stream. Cost is one draw per state change, not one per link
/// per epoch, and the sample path is the same however `tick` is called.
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
    /// `u64::MAX` where it never does. Apart from `links` so the per-epoch
    /// scan for due flips walks nothing else.
    next_flip: Vec<u64>,
    /// Per link slot, the state and what it delivers.
    links: Vec<GeLink>,
    epochs_done: u64,
    rng: ChaCha8Rng,
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

/// Epochs a link spends in a state it leaves with per-epoch probability
/// `q`, given `ln_stay = ln(1 − q)`: geometric on `1, 2, …` by inversion,
/// `1 + ⌊ln(1 − U) / ln(1 − q)⌋`. `q = 0` never leaves (`u64::MAX`, no
/// draw); `q = 1` leaves at the next epoch.
fn sojourn(rng: &mut ChaCha8Rng, ln_stay: f64) -> u64 {
    if ln_stay == 0.0 {
        return u64::MAX;
    }
    let u: f64 = rng.gen();
    // `1 − u` lies in (0, 1], so the quotient is ≥ 0 (and 0 under
    // `ln_stay = −∞`); the cast floors it and saturates.
    (((1.0 - u).ln() / ln_stay) as u64).saturating_add(1)
}

impl GilbertElliottChannel {
    fn new(
        topo: &Topology,
        good_scale: f64,
        bad_scale: f64,
        to_bad: f64,
        to_good: f64,
        epoch_ms: u64,
        mut rng: ChaCha8Rng,
    ) -> Self {
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

    fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool {
        self.link(tx, rx)
            .is_some_and(|l| l.good_p > 0.0 || l.bad_p > 0.0)
    }

    fn reach_hint(&self) -> ReachHint {
        // State deliveries are scaled matrix entries: no link, no energy.
        ReachHint::MatrixOnly
    }

    fn tick(&mut self, now: Time) {
        let target = now / self.epoch;
        while self.epochs_done < target {
            self.epochs_done += 1;
            let e = self.epochs_done;
            // A sojourn is ≥ 1 epoch, so a link flips at most once here.
            for (due, link) in self.next_flip.iter_mut().zip(&mut self.links) {
                if *due == e {
                    link.bad = !link.bad;
                    let ln_stay = if link.bad {
                        self.ln_stay_bad
                    } else {
                        self.ln_stay_good
                    };
                    *due = e.saturating_add(sojourn(&mut self.rng, ln_stay));
                }
            }
        }
    }
}

/// Geometry-driven channel (see [`ChannelSpec::Shadowing`]).
///
/// Unlike the matrix-backed models, whose state is one entry per link of
/// the topology, this one is keyed by geometry: any pair of nodes within
/// reach can carry energy, whatever the matrix says, so its shadow table
/// is `n × n` and every epoch redraws all `n(n−1)/2` pairs. That bounds
/// it to testbed-sized meshes; a table over in-reach pairs only would
/// draw a different stream and is left for a change of its own.
pub struct ShadowingChannel {
    positions: Vec<Position>,
    path_loss_exp: f64,
    sigma_db: f64,
    midpoint_m: f64,
    epoch: Time,
    /// Symmetric shadow per unordered pair, row-major upper triangle
    /// addressed as `min·n + max`.
    shadow_db: Vec<f64>,
    /// Hard reachability radius, meters: beyond it no shadow draw can
    /// lift delivery to [`MIN_DELIVERY`], and delivery is clamped to 0 so
    /// `may_reach` stays a strict superset of the delivery support.
    reach_m: f64,
    n: usize,
    epochs_done: u64,
    rng: ChaCha8Rng,
}

/// Logistic width of the delivery-vs-margin curve, dB. A ±3·width margin
/// swings delivery from ~5% to ~95%.
const SHADOW_SOFTNESS_DB: f64 = 3.0;

/// Instantaneous deliveries this small are treated as no link at all,
/// keeping the receiver scan from crawling over hundreds of hopeless
/// micro-probability pairs.
const MIN_DELIVERY: f64 = 0.01;

impl ShadowingChannel {
    fn new(
        topo: &Topology,
        path_loss_exp: f64,
        sigma_db: f64,
        midpoint_m: f64,
        epoch_ms: u64,
        mut rng: ChaCha8Rng,
    ) -> Self {
        // xtask: allow(panic_path) -- build() validated the spec, and validate() rejects a topology without positions.
        let positions = topo.positions().expect("validated").to_vec();
        let n = positions.len();
        let mut shadow_db = vec![0.0; n * n];
        redraw_shadows(&mut shadow_db, n, sigma_db, &mut rng);
        ShadowingChannel {
            positions,
            path_loss_exp,
            sigma_db,
            midpoint_m,
            epoch: epoch_ms * crate::MS,
            shadow_db,
            reach_m: shadow_reach_m(path_loss_exp, sigma_db, midpoint_m),
            n,
            epochs_done: 0,
            rng,
        }
    }
}

/// Distance at which even a +3σ shadow leaves delivery below
/// [`MIN_DELIVERY`]: `p ≥ MIN_DELIVERY` ⟺ `margin ≥ −softness ·
/// ln((1−MIN)/MIN)`, and the margin falls with `10·ple·log₁₀(mid/d)`.
fn shadow_reach_m(path_loss_exp: f64, sigma_db: f64, midpoint_m: f64) -> f64 {
    let margin_floor = -SHADOW_SOFTNESS_DB * ((1.0 - MIN_DELIVERY) / MIN_DELIVERY).ln();
    midpoint_m * 10f64.powf((3.0 * sigma_db - margin_floor) / (10.0 * path_loss_exp))
}

fn redraw_shadows(shadow_db: &mut [f64], n: usize, sigma_db: f64, rng: &mut ChaCha8Rng) {
    // Row `i` of the `n × n` table, entries right of the diagonal.
    for (i, row) in shadow_db.chunks_mut(n.max(1)).enumerate() {
        for shadow in row.iter_mut().skip(i + 1) {
            *shadow = gauss(rng) * sigma_db;
        }
    }
}

impl ShadowingChannel {
    /// Distance between two distinct nodes if they are within reach of
    /// each other, floored at 0.1 m; `None` for a node and itself, a pair
    /// beyond `reach_m`, or an id outside the topology.
    fn reach_distance(&self, tx: NodeId, rx: NodeId) -> Option<f64> {
        if tx == rx {
            return None;
        }
        let (a, b) = (self.positions.get(tx.0)?, self.positions.get(rx.0)?);
        Some(a.distance(b, FLOOR_HEIGHT_M).max(0.1)).filter(|&d| d <= self.reach_m)
    }
}

impl ChannelModel for ShadowingChannel {
    fn delivery(&self, tx: NodeId, rx: NodeId, _now: Time) -> f64 {
        // Beyond the reach radius delivery is clamped to 0 even when the
        // (unbounded Box–Muller) shadow draw exceeds +3σ, keeping
        // `may_reach` a strict superset of the delivery support — the
        // contract the medium's candidate lists depend on.
        let Some(d) = self.reach_distance(tx, rx) else {
            return 0.0;
        };
        let (lo, hi) = (tx.0.min(rx.0), tx.0.max(rx.0));
        // xtask: allow(panic_path) -- reach_distance found both ids among the n positions, so lo·n + hi < n², the table's length.
        let shadow = self.shadow_db[lo * self.n + hi];
        // Link margin: positive inside the midpoint, sign-flipped by the
        // log-distance path loss, perturbed by the shadow.
        let margin = 10.0 * self.path_loss_exp * (self.midpoint_m / d).log10() + shadow;
        let p = 1.0 / (1.0 + (-margin / SHADOW_SOFTNESS_DB).exp());
        if p < MIN_DELIVERY {
            0.0
        } else {
            p
        }
    }

    fn tick(&mut self, now: Time) {
        let target = now / self.epoch;
        while self.epochs_done < target {
            redraw_shadows(&mut self.shadow_db, self.n, self.sigma_db, &mut self.rng);
            self.epochs_done += 1;
        }
    }

    fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool {
        // Best plausible shadow: +3σ. Pairs that could decode under it
        // must be sensed by, and interfere with, each other's radios;
        // `reach_m` is exactly the distance where that best case drops
        // below `MIN_DELIVERY`.
        self.reach_distance(tx, rx).is_some()
    }

    fn reach_hint(&self) -> ReachHint {
        ReachHint::WithinDistance(self.reach_m)
    }
}

/// Slow per-link drift channel (see [`ChannelSpec::TimeVarying`]).
pub struct TimeVaryingChannel {
    /// Resolves `(tx, rx)` to a link slot.
    topo: Topology,
    /// See [`row_starts`].
    row_start: Vec<u32>,
    amplitude: f64,
    period: Time,
    walk_sigma: f64,
    epoch: Time,
    /// Per link slot: the mean it drifts around, its phase and its walk.
    links: Vec<DriftLink>,
    epochs_done: u64,
    rng: ChaCha8Rng,
}

/// One directed link of a [`TimeVaryingChannel`].
struct DriftLink {
    /// The topology's delivery probability.
    mean: f64,
    /// Sinusoid phase in turns.
    phase: f64,
    /// Random-walk offset.
    walk: f64,
}

impl TimeVaryingChannel {
    fn new(
        topo: &Topology,
        amplitude: f64,
        period_ms: u64,
        walk_sigma: f64,
        epoch_ms: u64,
        mut rng: ChaCha8Rng,
    ) -> Self {
        let links = topo
            .links()
            .map(|l| DriftLink {
                mean: l.delivery,
                phase: rng.gen::<f64>(),
                walk: 0.0,
            })
            .collect();
        TimeVaryingChannel {
            topo: topo.clone(),
            row_start: row_starts(topo),
            amplitude,
            period: period_ms * crate::MS,
            walk_sigma,
            epoch: epoch_ms * crate::MS,
            links,
            epochs_done: 0,
            rng,
        }
    }

    /// What link `l` delivers at `now`: its mean, the wave, the walk.
    fn drifted(&self, l: &DriftLink, now: Time) -> f64 {
        let turns = now as f64 / self.period as f64 + l.phase;
        let wave = self.amplitude * (std::f64::consts::TAU * turns).sin();
        (l.mean + wave + l.walk).clamp(0.0, 1.0)
    }
}

impl ChannelModel for TimeVaryingChannel {
    fn delivery(&self, tx: NodeId, rx: NodeId, now: Time) -> f64 {
        // Where the matrix has no link, drift does not invent one.
        self.topo
            .link_slot(tx, rx)
            .and_then(|slot| self.links.get(slot))
            .map_or(0.0, |l| self.drifted(l, now))
    }

    fn delivery_row(&self, tx: NodeId, candidates: &[u32], now: Time, out: &mut Vec<f64>) {
        let row = self.row_start.get(tx.0).map_or(0, |&s| s as usize);
        merge_row(&self.topo, tx, candidates, out, |k, _| {
            self.links
                .get(row + k)
                .map_or(0.0, |l| self.drifted(l, now))
        });
    }

    fn tick(&mut self, now: Time) {
        let target = now / self.epoch;
        while self.epochs_done < target {
            for l in &mut self.links {
                let step = gauss(&mut self.rng) * self.walk_sigma;
                l.walk = (l.walk + step).clamp(-1.0, 1.0);
            }
            self.epochs_done += 1;
        }
    }

    fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool {
        self.topo.link_slot(tx, rx).is_some()
    }

    fn reach_hint(&self) -> ReachHint {
        // Drift modulates matrix entries; non-links stay silent.
        ReachHint::MatrixOnly
    }
}

/// Standard normal draw (Box–Muller; the vendored `rand` has no
/// distributions module).
fn gauss(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Every directed pair `(tx, rx)` the channel could ever deliver on, in
/// ascending `(tx, rx)` order — the probe-candidate enumeration behind
/// [`probe_topology`].
///
/// Uses the model's [`ChannelModel::reach_hint`] so sparse meshes
/// enumerate O(links) or O(geometric-neighborhood) pairs: matrix-backed
/// channels yield exactly the topology's links, distance-bounded channels
/// query a spatial index and confirm with [`ChannelModel::may_reach`].
///
/// # Panics
///
/// Panics when the hint is [`ReachHint::WithinDistance`] but the
/// topology carries no node positions (such models cannot be built over
/// position-less topologies in the first place).
pub fn reach_candidates(topo: &Topology, chan: &dyn ChannelModel) -> Vec<(NodeId, NodeId)> {
    match chan.reach_hint() {
        ReachHint::MatrixOnly => topo.links().map(|l| (l.from, l.to)).collect(),
        ReachHint::WithinDistance(d) => {
            // xtask: allow(panic_path) -- the documented contract above: a distance-bounded model is only ever built over positions.
            let positions = topo.positions().expect("WithinDistance needs positions");
            let grid = mesh_topology::spatial::CellGrid::from_positions(positions, d);
            let mut out = Vec::new();
            for (i, pos) in positions.iter().enumerate() {
                let mut row: Vec<u32> = Vec::new();
                grid.for_each_candidate(pos.x, pos.y, d, |j| {
                    if j as usize != i && chan.may_reach(NodeId(i), NodeId(j as usize)) {
                        row.push(j);
                    }
                });
                // Each id is bucketed once, so sorting alone dedups.
                row.sort_unstable();
                out.extend(row.into_iter().map(|j| (NodeId(i), NodeId(j as usize))));
            }
            out
        }
    }
}

/// Measures the topology a probing deployment would see over a live
/// channel: a fresh model instance (same `seed` as the run, so the probe
/// window previews exactly the run's channel) is advanced probe by probe
/// while the estimator counts successes over the channel's
/// [`reach_candidates`] — pairs the channel can never deliver on are
/// never probed, which is also what keeps city-scale probe windows at
/// O(links · probes) draws.
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
    let candidates = reach_candidates(topo, model.as_ref());
    est.estimate_live_candidates(topo, seed, interval_us, &candidates, |tx, rx, now| {
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
        for spec in [
            ChannelSpec::bursty_matched(0.1, 0.05, 0.2, 10),
            ChannelSpec::Shadowing {
                path_loss_exp: 3.0,
                sigma_db: 6.0,
                midpoint_m: 35.0,
                epoch_ms: 100,
            },
            ChannelSpec::TimeVarying {
                amplitude: 0.2,
                period_ms: 30_000,
                walk_sigma: 0.02,
                epoch_ms: 1_000,
            },
        ] {
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
                    assert_eq!(pa, b.delivery(l.from, l.to, now), "{spec:?}");
                    if (pa - c.delivery(l.from, l.to, now)).abs() > 1e-12 {
                        saw_diff = true;
                    }
                }
            }
            assert!(saw_diff, "{spec:?}: different seeds never diverged");
        }
    }

    #[test]
    fn shadowing_decays_with_distance_and_requires_positions() {
        let topo = generate::line(4, 0.9, 0.0, 25.0);
        let spec = ChannelSpec::Shadowing {
            path_loss_exp: 3.0,
            sigma_db: 0.0,
            midpoint_m: 35.0,
            epoch_ms: 100,
        };
        let c = spec.build(&topo, 1);
        let near = c.delivery(NodeId(0), NodeId(1), 0); // 25 m
        let far = c.delivery(NodeId(0), NodeId(3), 0); // 75 m
        assert!(near > 0.8, "25 m link should be strong, got {near}");
        assert!(far < near, "delivery must decay with distance");

        let no_pos = Topology::from_matrix("bare", vec![vec![0.0, 0.9], vec![0.9, 0.0]]);
        assert!(spec.validate(&no_pos).is_err());
    }

    #[test]
    fn shadowing_redraws_per_epoch() {
        let topo = generate::line(1, 0.9, 0.0, 30.0);
        let spec = ChannelSpec::Shadowing {
            path_loss_exp: 3.0,
            sigma_db: 8.0,
            midpoint_m: 35.0,
            epoch_ms: 100,
        };
        let mut c = spec.build(&topo, 5);
        let p0 = c.delivery(NodeId(0), NodeId(1), 0);
        c.tick(150 * crate::MS);
        let p1 = c.delivery(NodeId(0), NodeId(1), 150 * crate::MS);
        assert_ne!(p0, p1, "an 8 dB shadow redraw must move delivery");
        // Symmetry: both directions share the pair's shadow.
        assert_eq!(
            c.delivery(NodeId(0), NodeId(1), 0),
            c.delivery(NodeId(1), NodeId(0), 0)
        );
    }

    #[test]
    fn time_varying_oscillates_within_bounds() {
        let topo = generate::line(1, 0.5, 0.0, 30.0);
        let spec = ChannelSpec::TimeVarying {
            amplitude: 0.3,
            period_ms: 1_000,
            walk_sigma: 0.0,
            epoch_ms: 1_000,
        };
        let c = spec.build(&topo, 9);
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for k in 0..100u64 {
            let p = c.delivery(NodeId(0), NodeId(1), k * 20 * crate::MS);
            assert!((0.0..=1.0).contains(&p));
            lo = lo.min(p);
            hi = hi.max(p);
        }
        assert!(hi - lo > 0.3, "sinusoid must actually swing ({lo}..{hi})");

        // Where the matrix has no link, drift must not invent one.
        let one_way = Topology::from_matrix("1way", vec![vec![0.0, 0.5], vec![0.0, 0.0]]);
        let c = spec.build(&one_way, 9);
        assert_eq!(c.delivery(NodeId(1), NodeId(0), 0), 0.0, "no reverse link");
    }

    #[test]
    fn labels_are_distinct_and_comma_free() {
        let specs = [
            ChannelSpec::Static,
            ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10),
            ChannelSpec::Shadowing {
                path_loss_exp: 3.0,
                sigma_db: 6.0,
                midpoint_m: 35.0,
                epoch_ms: 100,
            },
            ChannelSpec::TimeVarying {
                amplitude: 0.2,
                period_ms: 30_000,
                walk_sigma: 0.02,
                epoch_ms: 1_000,
            },
        ];
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        for (i, a) in labels.iter().enumerate() {
            assert!(!a.contains(','), "CSV-hostile label {a:?}");
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(labels[0], "static");
    }

    #[test]
    fn reach_hints_match_structure() {
        let t = generate::testbed(1);
        for spec in [
            ChannelSpec::Static,
            ChannelSpec::bursty_matched(0.1, 0.05, 0.2, 10),
            ChannelSpec::TimeVarying {
                amplitude: 0.2,
                period_ms: 30_000,
                walk_sigma: 0.02,
                epoch_ms: 1_000,
            },
        ] {
            assert_eq!(
                spec.build(&t, 0).reach_hint(),
                ReachHint::MatrixOnly,
                "{spec:?}"
            );
        }
        let shadow = ChannelSpec::Shadowing {
            path_loss_exp: 3.0,
            sigma_db: 6.0,
            midpoint_m: 35.0,
            epoch_ms: 100,
        }
        .build(&t, 0);
        match shadow.reach_hint() {
            ReachHint::WithinDistance(d) => assert!(d > 35.0, "radius {d} too tight"),
            h => panic!("shadowing must hint a distance bound, got {h:?}"),
        }
    }

    #[test]
    fn shadowing_delivery_support_stays_within_reach() {
        // Two nodes 200 m apart sit beyond the +3σ reach radius (≈ 137 m
        // at ple 3, σ 2 dB, midpoint 30 m): no shadow draw, however
        // extreme, may deliver — the clamp keeps `may_reach` a strict
        // superset of the delivery support.
        let t = generate::line(1, 0.9, 0.0, 200.0);
        let spec = ChannelSpec::Shadowing {
            path_loss_exp: 3.0,
            sigma_db: 2.0,
            midpoint_m: 30.0,
            epoch_ms: 100,
        };
        let mut c = spec.build(&t, 17);
        assert!(!c.may_reach(NodeId(0), NodeId(1)));
        for k in 0..500u64 {
            let now = k * 100 * crate::MS;
            c.tick(now);
            assert_eq!(c.delivery(NodeId(0), NodeId(1), now), 0.0);
        }
        assert!(reach_candidates(&t, c.as_ref()).is_empty());
    }

    #[test]
    fn reach_candidates_cover_delivery_support() {
        let t = generate::testbed(1);
        for spec in [
            ChannelSpec::Static,
            ChannelSpec::bursty_matched(0.1, 0.05, 0.2, 10),
            ChannelSpec::Shadowing {
                path_loss_exp: 3.0,
                sigma_db: 6.0,
                midpoint_m: 35.0,
                epoch_ms: 100,
            },
            ChannelSpec::TimeVarying {
                amplitude: 0.2,
                period_ms: 30_000,
                walk_sigma: 0.02,
                epoch_ms: 1_000,
            },
        ] {
            let mut c = spec.build(&t, 3);
            let cands = reach_candidates(&t, c.as_ref());
            assert!(
                cands.windows(2).all(|w| w[0] < w[1]),
                "{spec:?}: candidates must be ascending and unique"
            );
            let set: std::collections::BTreeSet<_> = cands.iter().copied().collect();
            for k in 0..20u64 {
                let now = k * 50 * crate::MS;
                c.tick(now);
                for i in t.nodes() {
                    for j in t.nodes() {
                        if i != j && c.delivery(i, j, now) > 0.0 {
                            assert!(
                                set.contains(&(i, j)),
                                "{spec:?}: delivery support escapes candidates at {i}->{j}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validate_rejects_nonsense() {
        let topo = generate::line(1, 0.9, 0.0, 30.0);
        let ge = |good_scale, bad_scale, to_bad, to_good, epoch_ms| ChannelSpec::GilbertElliott {
            good_scale,
            bad_scale,
            to_bad,
            to_good,
            epoch_ms,
        };
        let shadow = |path_loss_exp, sigma_db, midpoint_m, epoch_ms| ChannelSpec::Shadowing {
            path_loss_exp,
            sigma_db,
            midpoint_m,
            epoch_ms,
        };
        let drift = |amplitude, period_ms, walk_sigma, epoch_ms| ChannelSpec::TimeVarying {
            amplitude,
            period_ms,
            walk_sigma,
            epoch_ms,
        };
        // The longest interval `validate` lets through; one epoch of it
        // reaches the end of the clock.
        let max_ms = u64::MAX / crate::MS;
        for (good, horizon) in [
            (ge(1.25, 0.0, 0.05, 0.2, 10), crate::SEC),
            (ge(0.0, 0.0, 0.0, 0.0, 1), crate::SEC),
            (ge(2.0, 0.0, 5e-324, 1.0, 10), crate::SEC),
            (ge(f64::MAX, f64::MAX, 1.0, 1.0, max_ms), u64::MAX),
            (shadow(3.0, 0.0, 35.0, 100), crate::SEC),
            (drift(0.0, 1, 0.0, max_ms), u64::MAX),
        ] {
            assert_eq!(good.validate(&topo), Ok(()), "{good:?}");
            // A spec `validate` passes builds and ticks without panicking
            // and never reports a delivery outside [0, 1].
            let mut c = good.build(&topo, 1);
            for now in [0, 1, 999, 10 * crate::MS, horizon] {
                c.tick(now);
                let p = c.delivery(NodeId(0), NodeId(1), now);
                assert!((0.0..=1.0).contains(&p), "{good:?}: delivery {p} at {now}");
            }
        }
        // Wrapping and zero intervals: `1 << 61` ms is 0 µs modulo 2^64.
        for ms in [0, 1 << 61, max_ms + 1, u64::MAX] {
            for bad in [
                ge(1.0, 0.0, 0.05, 0.2, ms),
                shadow(3.0, 6.0, 35.0, ms),
                drift(0.1, 1_000, 0.0, ms),
                drift(0.1, ms, 0.0, 10),
            ] {
                assert!(bad.validate(&topo).is_err(), "{bad:?}");
            }
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            for bad in [
                ge(x, 0.0, 0.05, 0.2, 10),
                ge(1.0, x, 0.05, 0.2, 10),
                ge(1.0, 0.0, x, 0.2, 10),
                ge(1.0, 0.0, 0.05, x, 10),
                shadow(x, 6.0, 35.0, 100),
                shadow(3.0, x, 35.0, 100),
                shadow(3.0, 6.0, x, 100),
                drift(x, 1_000, 0.0, 10),
                drift(0.1, 1_000, x, 10),
            ] {
                assert!(bad.validate(&topo).is_err(), "{bad:?}");
            }
        }
        assert!(ge(1.0, 0.0, 1.5, 0.2, 10).validate(&topo).is_err());
        assert!(shadow(0.0, 6.0, 35.0, 100).validate(&topo).is_err());
        assert!(shadow(3.0, 6.0, 0.0, 100).validate(&topo).is_err());
    }
}
