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
//! A model instance draws its state evolution (initial Gilbert–Elliott
//! states, shadowing redraws, random-walk steps) from its **own** ChaCha8
//! stream derived from the run seed, while per-frame delivery verdicts are
//! drawn by the engine from the run's main stream — exactly where the
//! static engine drew them. Runs therefore stay a pure function of
//! `(topology, agent, seed, channel)`, and a static channel consumes the
//! main stream identically to the pre-channel engine.
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

// xtask: allow(panic_path, file) -- per-link channel state is sized to the validated topology's link set at build; build() panicking on an invalid spec is its documented contract (validate() is the fallible form).

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
/// at the same instant) before evaluating each reception.
pub trait ChannelModel: Send {
    /// Instantaneous delivery probability of the directed link `(tx, rx)`
    /// at time `now`, in `[0, 1]`; `0` where no energy arrives.
    fn delivery(&self, tx: NodeId, rx: NodeId, now: Time) -> f64;

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

    /// Checks that `topo` can host this channel (e.g. shadowing needs
    /// node positions, epochs must be non-zero).
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        match self {
            ChannelSpec::Static => Ok(()),
            ChannelSpec::GilbertElliott {
                good_scale,
                bad_scale,
                to_bad,
                to_good,
                epoch_ms,
            } => {
                if *epoch_ms == 0 {
                    return Err("GilbertElliott epoch_ms must be > 0".into());
                }
                for (name, v) in [("to_bad", to_bad), ("to_good", to_good)] {
                    if !(0.0..=1.0).contains(v) {
                        return Err(format!("GilbertElliott {name} = {v} outside [0,1]"));
                    }
                }
                if *good_scale < 0.0 || *bad_scale < 0.0 {
                    return Err("GilbertElliott scales must be non-negative".into());
                }
                Ok(())
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
                if *epoch_ms == 0 {
                    return Err("Shadowing epoch_ms must be > 0".into());
                }
                if *path_loss_exp <= 0.0 || *sigma_db < 0.0 || *midpoint_m <= 0.0 {
                    return Err("Shadowing parameters must be positive".into());
                }
                Ok(())
            }
            ChannelSpec::TimeVarying {
                amplitude,
                period_ms,
                walk_sigma,
                epoch_ms,
            } => {
                if *epoch_ms == 0 || *period_ms == 0 {
                    return Err("TimeVarying epochs/period must be > 0".into());
                }
                if *amplitude < 0.0 || *walk_sigma < 0.0 {
                    return Err("TimeVarying amplitude/walk_sigma must be non-negative".into());
                }
                Ok(())
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

/// The paper's static channel: delivery is the topology's matrix.
pub struct StaticChannel {
    topo: Topology,
}

impl ChannelModel for StaticChannel {
    fn delivery(&self, tx: NodeId, rx: NodeId, _now: Time) -> f64 {
        self.topo.delivery(tx, rx)
    }

    fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool {
        self.topo.delivery(tx, rx) > 0.0
    }

    fn reach_hint(&self) -> ReachHint {
        ReachHint::MatrixOnly
    }
}

/// Two-state burst-loss channel (see [`ChannelSpec::GilbertElliott`]).
pub struct GilbertElliottChannel {
    n: usize,
    to_bad: f64,
    to_good: f64,
    epoch: Time,
    /// Per-directed-link delivery in the good state, row-major `n × n`.
    good_p: Vec<f64>,
    /// Per-directed-link delivery in the bad state, row-major `n × n`.
    bad_p: Vec<f64>,
    /// Row-major `n × n`; `true` = link currently in the bad state.
    bad: Vec<bool>,
    /// Flat indices of directed links (`p > 0`), row-major.
    links: Vec<usize>,
    epochs_done: u64,
    rng: ChaCha8Rng,
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
        let n = topo.n();
        let links: Vec<usize> = topo.links().map(|l| l.from.0 * n + l.to.0).collect();
        let pi_bad = if to_bad + to_good > 0.0 {
            to_bad / (to_bad + to_good)
        } else {
            0.0
        };
        let pi_good = 1.0 - pi_bad;
        // Per-link state deliveries. Strong links saturate: `p ×
        // good_scale` can exceed 1, and simply clamping it would silently
        // lower the link's stationary mean (breaking `bursty_matched`'s
        // matched-mean construction exactly on the best links). The
        // clamped excess is therefore redistributed into the bad state,
        // weighted by the state occupancies, so each link's mean stays
        // `π_g·good_scale·p + π_b·bad_scale·p` whenever that is
        // achievable — strong links degrade in bursts rather than die.
        let mut good_p = vec![0.0; n * n];
        let mut bad_p = vec![0.0; n * n];
        for &idx in &links {
            let p = topo.delivery(NodeId(idx / n), NodeId(idx % n));
            let raw_good = p * good_scale;
            let g = raw_good.min(1.0);
            let excess = raw_good - g;
            let b = if pi_bad > 0.0 {
                (p * bad_scale + excess * pi_good / pi_bad).clamp(0.0, 1.0)
            } else {
                (p * bad_scale).clamp(0.0, 1.0)
            };
            good_p[idx] = g;
            bad_p[idx] = b;
        }
        let mut bad = vec![false; n * n];
        for &idx in &links {
            bad[idx] = rng.gen::<f64>() < pi_bad;
        }
        GilbertElliottChannel {
            n,
            to_bad,
            to_good,
            epoch: epoch_ms * crate::MS,
            good_p,
            bad_p,
            bad,
            links,
            epochs_done: 0,
            rng,
        }
    }
}

impl ChannelModel for GilbertElliottChannel {
    fn delivery(&self, tx: NodeId, rx: NodeId, _now: Time) -> f64 {
        let idx = tx.0 * self.n + rx.0;
        if self.bad[idx] {
            self.bad_p[idx]
        } else {
            self.good_p[idx]
        }
    }

    fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool {
        let idx = tx.0 * self.n + rx.0;
        self.good_p[idx] > 0.0 || self.bad_p[idx] > 0.0
    }

    fn reach_hint(&self) -> ReachHint {
        // State deliveries are scaled matrix entries: no link, no energy.
        ReachHint::MatrixOnly
    }

    fn tick(&mut self, now: Time) {
        let target = now / self.epoch;
        while self.epochs_done < target {
            for &idx in &self.links {
                let u = self.rng.gen::<f64>();
                let flip = if self.bad[idx] {
                    u < self.to_good
                } else {
                    u < self.to_bad
                };
                if flip {
                    self.bad[idx] = !self.bad[idx];
                }
            }
            self.epochs_done += 1;
        }
    }
}

/// Geometry-driven channel (see [`ChannelSpec::Shadowing`]).
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
        let positions = topo
            .positions()
            .expect("validated: shadowing needs positions")
            .to_vec();
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
    for i in 0..n {
        for j in (i + 1)..n {
            shadow_db[i * n + j] = gauss(rng) * sigma_db;
        }
    }
}

impl ChannelModel for ShadowingChannel {
    fn delivery(&self, tx: NodeId, rx: NodeId, _now: Time) -> f64 {
        if tx == rx {
            return 0.0;
        }
        let d = self.positions[tx.0]
            .distance(&self.positions[rx.0], FLOOR_HEIGHT_M)
            .max(0.1);
        // Beyond the reach radius delivery is clamped to 0 even when the
        // (unbounded Box–Muller) shadow draw exceeds +3σ, keeping
        // `may_reach` a strict superset of the delivery support — the
        // contract the medium's candidate lists depend on.
        if d > self.reach_m {
            return 0.0;
        }
        let (lo, hi) = (tx.0.min(rx.0), tx.0.max(rx.0));
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
        if tx == rx {
            return false;
        }
        // Best plausible shadow: +3σ. Pairs that could decode under it
        // must be sensed by, and interfere with, each other's radios;
        // `reach_m` is exactly the distance where that best case drops
        // below `MIN_DELIVERY`.
        let d = self.positions[tx.0]
            .distance(&self.positions[rx.0], FLOOR_HEIGHT_M)
            .max(0.1);
        d <= self.reach_m
    }

    fn reach_hint(&self) -> ReachHint {
        ReachHint::WithinDistance(self.reach_m)
    }
}

/// Slow per-link drift channel (see [`ChannelSpec::TimeVarying`]).
pub struct TimeVaryingChannel {
    topo: Topology,
    amplitude: f64,
    period: Time,
    walk_sigma: f64,
    epoch: Time,
    /// Per-directed-link sinusoid phase in turns, row-major `n × n`.
    phase: Vec<f64>,
    /// Per-directed-link random-walk offset, row-major `n × n`.
    walk: Vec<f64>,
    links: Vec<usize>,
    epochs_done: u64,
    rng: ChaCha8Rng,
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
        let n = topo.n();
        let links: Vec<usize> = topo.links().map(|l| l.from.0 * n + l.to.0).collect();
        let mut phase = vec![0.0; n * n];
        for &idx in &links {
            phase[idx] = rng.gen::<f64>();
        }
        TimeVaryingChannel {
            topo: topo.clone(),
            amplitude,
            period: period_ms * crate::MS,
            walk_sigma,
            epoch: epoch_ms * crate::MS,
            phase,
            walk: vec![0.0; n * n],
            links,
            epochs_done: 0,
            rng,
        }
    }
}

impl ChannelModel for TimeVaryingChannel {
    fn delivery(&self, tx: NodeId, rx: NodeId, now: Time) -> f64 {
        let p = self.topo.delivery(tx, rx);
        if p <= 0.0 {
            return 0.0;
        }
        let idx = tx.0 * self.topo.n() + rx.0;
        let turns = now as f64 / self.period as f64 + self.phase[idx];
        let wave = self.amplitude * (std::f64::consts::TAU * turns).sin();
        (p + wave + self.walk[idx]).clamp(0.0, 1.0)
    }

    fn tick(&mut self, now: Time) {
        let target = now / self.epoch;
        while self.epochs_done < target {
            for &idx in &self.links {
                let step = gauss(&mut self.rng) * self.walk_sigma;
                self.walk[idx] = (self.walk[idx] + step).clamp(-1.0, 1.0);
            }
            self.epochs_done += 1;
        }
    }

    fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool {
        self.topo.delivery(tx, rx) > 0.0
    }

    fn reach_hint(&self) -> ReachHint {
        // Drift modulates matrix entries and `delivery` zeroes out
        // non-links explicitly.
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
            let positions = topo
                .positions()
                .expect("WithinDistance reach hint requires node positions");
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
        let bad = ChannelSpec::GilbertElliott {
            good_scale: 1.0,
            bad_scale: 0.0,
            to_bad: 1.5,
            to_good: 0.2,
            epoch_ms: 10,
        };
        assert!(bad.validate(&topo).is_err());
        let zero_epoch = ChannelSpec::TimeVarying {
            amplitude: 0.1,
            period_ms: 0,
            walk_sigma: 0.0,
            epoch_ms: 10,
        };
        assert!(zero_epoch.validate(&topo).is_err());
    }
}
