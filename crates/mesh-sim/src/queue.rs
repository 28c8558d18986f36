//! Per-node transmit queues and active queue management (AQM).
//!
//! The paper evaluates MORE against real 802.11 interfaces, whose driver
//! queues drop packets under overload. Every frame a protocol hands its
//! MAC passes its node's [`Discipline`], built from a serializable
//! [`QueueSpec`] that names the only disciplines there are: the default
//! one-frame slot (the pre-queue engine, byte for byte), DropTail, RED,
//! and CHOKe — RED plus a random peek that drops an arrival together
//! with a queued frame of its flow, penalizing unresponsive heavy flows
//! without per-flow state.
//!
//! All AQM randomness (RED's marking draws, CHOKe's peek) runs on a
//! dedicated ChaCha8 stream of the run seed,
//! [`Stream::Queue`](mesh_topology::streams::Stream::Queue), so queue
//! decisions never perturb the engine's main RNG stream.
//!
//! On top of the queue sits a minimal end-to-end congestion controller:
//! an [`AimdPacer`] per opted-in flow throttles the *source's* dequeue
//! rate with additive increase / multiplicative decrease keyed on queue
//! losses anywhere along the flow's path (an idealized, zero-delay loss
//! signal — the simulator's stand-in for a transport's feedback loop).

use crate::Time;
use mesh_topology::{streams, NodeId};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Why a frame was dropped at a transmit queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// The queue was at capacity when the frame arrived (tail drop).
    Overflow,
    /// RED/CHOKe marked the arrival early (EWMA depth past a threshold).
    Early,
    /// CHOKe matched the arrival against a random queued frame of the
    /// same flow and dropped both.
    FlowMatch,
}

/// What a discipline decided about an arriving frame.
///
/// The engine owns the actual frame storage (a FIFO per node); the
/// discipline keeps a parallel mirror of flow keys. The verdict tells
/// the engine how to keep the two in sync.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueVerdict {
    /// Append the arrival at the tail (the discipline has already
    /// recorded its key).
    Accept,
    /// Discard the arrival; the queue is unchanged.
    DropIncoming(DropCause),
    /// CHOKe: discard the arrival *and* the queued frame at `index`
    /// (the discipline has already removed its own mirror entry).
    DropMatched {
        /// Position of the matched victim in the node's FIFO.
        index: usize,
    },
}

/// Serializable description of a node's transmit queue policy.
///
/// The engine-facing mirror of [`crate::channel::ChannelSpec`]: a small
/// value type the scenario layer can store, sweep over, and label, with
/// [`QueueSpec::build_node`] producing each node's [`Discipline`].
#[derive(Clone, Debug, Default, PartialEq)]
pub enum QueueSpec {
    /// A one-frame slot — the pre-queue engine, byte-for-byte: one poll
    /// per transmit opportunity, no drop before the air, no queue draw.
    #[default]
    Unbounded,
    /// Fixed-capacity FIFO; arrivals beyond `capacity` are tail-dropped.
    DropTail {
        /// Queue capacity in frames.
        capacity: usize,
    },
    /// Random Early Detection (EWMA average-depth marking).
    Red(Aqm),
    /// CHOKe: RED plus random-peek flow matching — past `min_th`, each
    /// arrival is compared with one uniformly chosen queued frame and a
    /// flow match drops both, no per-flow state required.
    Choke(Aqm),
}

/// RED's parameters, which CHOKe shares: a hard capacity, an EWMA of the
/// queue depth, and an early-drop probability that rises linearly from 0
/// at `min_th` to `max_p` at `max_th`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aqm {
    /// Hard queue capacity in frames (overflow drops past it).
    pub capacity: usize,
    /// No early drops (and, for CHOKe, no peeks) while the EWMA depth is
    /// below this.
    pub min_th: f64,
    /// All (unmatched) arrivals drop once the EWMA depth reaches this.
    pub max_th: f64,
    /// Early-drop probability as the EWMA depth reaches `max_th`.
    pub max_p: f64,
    /// EWMA weight per arrival (classic RED uses ~0.002).
    pub weight: f64,
}

impl Aqm {
    /// The classic parameterization for a queue of `capacity` frames:
    /// thresholds at 25% / 75%, `max_p` 0.1, weight 0.002.
    fn classic(capacity: usize) -> Self {
        Aqm {
            capacity,
            min_th: capacity as f64 * 0.25,
            max_th: capacity as f64 * 0.75,
            max_p: 0.1,
            weight: 0.002,
        }
    }

    /// `kind(cap=…;min=…;max=…;p=…;w=…)`.
    fn label(&self, kind: &str) -> String {
        let Aqm {
            capacity,
            min_th,
            max_th,
            max_p,
            weight,
        } = self;
        format!("{kind}(cap={capacity};min={min_th};max={max_th};p={max_p};w={weight})")
    }

    /// Whether RED marks an arrival at EWMA depth `avg`: always from
    /// `max_th` up, never below `min_th`, and in between with a
    /// probability rising linearly to `max_p` — the one case that draws.
    fn marks(&self, avg: f64, rng: &mut ChaCha8Rng) -> bool {
        let p = self.max_p * (avg - self.min_th) / (self.max_th - self.min_th);
        avg >= self.max_th || (avg >= self.min_th && streams::bernoulli(rng, p))
    }

    fn validate(&self) -> Result<(), String> {
        let Aqm {
            capacity,
            min_th,
            max_th,
            max_p,
            weight,
        } = *self;
        check_capacity(capacity)?;
        if !(min_th >= 0.0 && max_th > min_th && max_th <= capacity as f64) {
            return Err(format!(
                "thresholds must satisfy 0 <= min_th < max_th <= capacity \
                 (got min_th={min_th} max_th={max_th} capacity={capacity})"
            ));
        }
        if !(max_p > 0.0 && max_p <= 1.0) {
            return Err(format!("max_p must be in (0, 1], got {max_p}"));
        }
        if !(weight > 0.0 && weight <= 1.0) {
            return Err(format!("EWMA weight must be in (0, 1], got {weight}"));
        }
        Ok(())
    }
}

fn check_capacity(capacity: usize) -> Result<(), String> {
    if capacity == 0 {
        Err("queue capacity must be at least 1".to_string())
    } else {
        Ok(())
    }
}

impl QueueSpec {
    /// A DropTail queue of `capacity` frames.
    #[must_use]
    pub fn drop_tail(capacity: usize) -> Self {
        QueueSpec::DropTail { capacity }
    }

    /// RED with the classic parameterization for a queue of `capacity`
    /// frames: thresholds at 25% / 75%, `max_p` 0.1, weight 0.002.
    #[must_use]
    pub fn red(capacity: usize) -> Self {
        QueueSpec::Red(Aqm::classic(capacity))
    }

    /// CHOKe with the same default parameterization as [`QueueSpec::red`].
    #[must_use]
    pub fn choke(capacity: usize) -> Self {
        QueueSpec::Choke(Aqm::classic(capacity))
    }

    /// The one-frame slot, the default: no queue to drop from or pace.
    pub fn is_unbounded(&self) -> bool {
        matches!(self, QueueSpec::Unbounded)
    }

    /// Short comma-free label naming the policy and its parameters, used
    /// in run records and sweep axes.
    pub fn label(&self) -> String {
        match self {
            QueueSpec::Unbounded => "unbounded".to_string(),
            QueueSpec::DropTail { capacity } => format!("droptail(cap={capacity})"),
            QueueSpec::Red(aqm) => aqm.label("red"),
            QueueSpec::Choke(aqm) => aqm.label("choke"),
        }
    }

    /// Checks the parameters, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            QueueSpec::Unbounded => Ok(()),
            QueueSpec::DropTail { capacity } => check_capacity(*capacity),
            QueueSpec::Red(aqm) | QueueSpec::Choke(aqm) => aqm.validate(),
        }
    }

    /// Builds one node's live discipline; always `Some` (the slot of
    /// [`QueueSpec::Unbounded`] included).
    ///
    /// # Panics
    ///
    /// Panics when the spec is invalid — call [`QueueSpec::validate`]
    /// first for an error value.
    pub fn build_node(&self) -> Option<Discipline> {
        #[expect(
            clippy::panic,
            reason = "documented \"# Panics\" contract, mirroring ChannelSpec::build: validate() is the error-value path"
        )]
        if let Err(e) = self.validate() {
            panic!("invalid QueueSpec: {e}");
        }
        Some(Discipline {
            spec: self.clone(),
            avg: 0.0,
            keys: VecDeque::new(),
        })
    }
}

/// One node's transmit queue policy: the [`QueueSpec`] it was built
/// from, RED's EWMA depth estimate, and the flow keys (from
/// [`Discipline::classify`]) of the frames the engine holds in the
/// node's FIFO, kept in step by [`Discipline::offer`] and
/// [`Discipline::dequeue`]. The slot of [`QueueSpec::Unbounded`] keeps
/// no keys: its one frame is served as it is accepted.
#[derive(Clone, Debug)]
pub struct Discipline {
    spec: QueueSpec,
    /// RED's EWMA of the depth, updated per arrival.
    avg: f64,
    keys: VecDeque<u64>,
}

impl Discipline {
    /// Maps a frame to the flow key the discipline reasons about: the
    /// protocol-declared flow id when present, and otherwise a bucket
    /// per sending node (control frames of one node share a key but
    /// never match a data flow).
    pub fn classify(&self, node: NodeId, flow: Option<u32>) -> u64 {
        match flow {
            Some(f) => f as u64,
            None => (1u64 << 32) | node.0 as u64,
        }
    }

    /// Decides the fate of a frame with flow key `key` arriving at time
    /// `now`, drawing from `rng` (the dedicated `Stream::Queue`) only
    /// under RED and CHOKe.
    pub fn offer(&mut self, key: u64, _now: Time, rng: &mut ChaCha8Rng) -> QueueVerdict {
        let depth = self.keys.len();
        let drop = match self.spec {
            // The slot's frame is served as it is accepted: no mirror.
            QueueSpec::Unbounded => return QueueVerdict::Accept,
            QueueSpec::DropTail { capacity } => (depth >= capacity).then_some(DropCause::Overflow),
            QueueSpec::Red(aqm) | QueueSpec::Choke(aqm) => {
                // Draw order per arrival is fixed: EWMA update, [CHOKe
                // peek], overflow check, [marking draw]. The peek happens
                // past min_th, *before* the RED coin flip — the CHOKe
                // paper's ordering.
                self.avg = (1.0 - aqm.weight) * self.avg + aqm.weight * depth as f64;
                let peek = matches!(self.spec, QueueSpec::Choke(_));
                if peek && depth > 0 && self.avg >= aqm.min_th {
                    let index = rng.gen_range(0..depth);
                    if self.keys.get(index) == Some(&key) {
                        // Flow match: drop the queued victim and the arrival.
                        self.keys.remove(index);
                        return QueueVerdict::DropMatched { index };
                    }
                }
                if depth >= aqm.capacity {
                    Some(DropCause::Overflow)
                } else {
                    aqm.marks(self.avg, rng).then_some(DropCause::Early)
                }
            }
        };
        match drop {
            Some(cause) => QueueVerdict::DropIncoming(cause),
            None => {
                self.keys.push_back(key);
                QueueVerdict::Accept
            }
        }
    }

    /// The engine served the head-of-line frame.
    pub fn dequeue(&mut self, _now: Time) {
        self.keys.pop_front();
    }

    /// Frames currently queued (excluding the one in service at the MAC).
    pub fn depth(&self) -> usize {
        self.keys.len()
    }

    /// Whether the engine should poll the protocol for another frame
    /// while `queued` frames sit in the node's FIFO: the slot only into
    /// an empty FIFO, every bounded queue until [`Discipline::offer`]
    /// discards an arrival.
    pub(crate) fn wants_poll(&self, queued: usize) -> bool {
        queued == 0 || self.is_bounded()
    }

    /// Whether the queue can drop, which is what a pacer reacts to.
    pub(crate) fn is_bounded(&self) -> bool {
        !self.spec.is_unbounded()
    }
}

/// Parameters of the AIMD source pacer (see [`AimdPacer`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AimdConfig {
    /// Pacing rate a flow starts at, packets per second.
    pub initial_pps: f64,
    /// Floor the rate never decreases below.
    pub min_pps: f64,
    /// Cap the rate never increases past.
    pub max_pps: f64,
    /// Additive increase: packets-per-second added per loss-free second.
    pub increase_pps_per_s: f64,
    /// Multiplicative decrease factor applied per loss signal.
    pub decrease: f64,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            initial_pps: 20.0,
            min_pps: 1.0,
            max_pps: 2000.0,
            increase_pps_per_s: 10.0,
            decrease: 0.5,
        }
    }
}

impl AimdConfig {
    /// Checks the parameters, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.min_pps > 0.0 && self.min_pps <= self.initial_pps) {
            return Err(format!(
                "need 0 < min_pps <= initial_pps (got min={} initial={})",
                self.min_pps, self.initial_pps
            ));
        }
        if self.max_pps.is_nan() || self.initial_pps > self.max_pps {
            return Err(format!(
                "need initial_pps <= max_pps (got initial={} max={})",
                self.initial_pps, self.max_pps
            ));
        }
        if self.increase_pps_per_s.is_nan() || self.increase_pps_per_s < 0.0 {
            return Err(format!(
                "additive increase must be non-negative, got {}",
                self.increase_pps_per_s
            ));
        }
        if !(self.decrease > 0.0 && self.decrease < 1.0) {
            return Err(format!(
                "multiplicative decrease must be in (0, 1), got {}",
                self.decrease
            ));
        }
        Ok(())
    }

    /// Short comma-free label for fingerprints and logs.
    pub fn label(&self) -> String {
        format!(
            "aimd(i={};min={};max={};a={};b={})",
            self.initial_pps, self.min_pps, self.max_pps, self.increase_pps_per_s, self.decrease
        )
    }
}

/// The per-flow source pacer: a token-less AIMD rate controller.
///
/// The rate increases additively with loss-free simulated time (applied
/// lazily — no timer events, so pacing stays free when the flow is
/// idle) and halves (by [`AimdConfig::decrease`]) on every queue-loss
/// signal. The engine gates the *source node's* dequeue of the flow's
/// frames on [`AimdPacer::gate`] and reports sends/losses back; the
/// controller itself is pure arithmetic and fully deterministic.
#[derive(Clone, Debug)]
pub struct AimdPacer {
    cfg: AimdConfig,
    rate_pps: f64,
    next_release: Time,
    last_update: Time,
}

impl AimdPacer {
    /// A pacer starting at [`AimdConfig::initial_pps`], ready to send.
    #[must_use]
    pub fn new(cfg: AimdConfig) -> Self {
        AimdPacer {
            cfg,
            rate_pps: cfg.initial_pps,
            next_release: 0,
            last_update: 0,
        }
    }

    /// Lazily applies the additive increase accumulated since the last
    /// rate touch.
    fn refresh(&mut self, now: Time) {
        if now > self.last_update {
            let dt_s = (now - self.last_update) as f64 / crate::SEC as f64;
            self.rate_pps =
                (self.rate_pps + self.cfg.increase_pps_per_s * dt_s).min(self.cfg.max_pps);
            self.last_update = now;
        }
    }

    /// May the flow's next frame leave now? Returns `None` when clear to
    /// send, or `Some(release_time)` to try again at that instant.
    pub fn gate(&mut self, now: Time) -> Option<Time> {
        self.refresh(now);
        (now < self.next_release).then_some(self.next_release)
    }

    /// A frame of the flow left the source: arms the inter-packet gap.
    pub fn on_send(&mut self, now: Time) {
        self.refresh(now);
        let gap_us = (crate::SEC as f64 / self.rate_pps).ceil().max(1.0) as Time;
        self.next_release = now.saturating_add(gap_us);
    }

    /// A frame of the flow was lost at a queue: multiplicative decrease.
    pub fn on_loss(&mut self, now: Time) {
        self.refresh(now);
        self.rate_pps = (self.rate_pps * self.cfg.decrease).max(self.cfg.min_pps);
    }

    /// The current pacing rate, packets per second.
    pub fn rate_pps(&self) -> f64 {
        self.rate_pps
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::streams::{self, Stream};

    fn rng(seed: u64) -> ChaCha8Rng {
        streams::rng(seed, Stream::Queue)
    }

    #[test]
    fn droptail_admits_to_capacity_then_drops() {
        let spec = QueueSpec::drop_tail(3);
        let mut q = spec.build_node().expect("bounded");
        let mut r = rng(1);
        for _ in 0..3 {
            assert_eq!(q.offer(1, 0, &mut r), QueueVerdict::Accept);
        }
        assert_eq!(
            q.offer(1, 0, &mut r),
            QueueVerdict::DropIncoming(DropCause::Overflow)
        );
        assert_eq!(q.depth(), 3);
        q.dequeue(0);
        assert_eq!(q.offer(2, 0, &mut r), QueueVerdict::Accept);
    }

    #[test]
    fn red_drops_early_under_sustained_load() {
        // Weight 1.0 makes the EWMA track the instantaneous depth, so
        // the early-drop region is reached deterministically.
        let spec = QueueSpec::Red(Aqm {
            capacity: 10,
            min_th: 2.0,
            max_th: 6.0,
            max_p: 1.0,
            weight: 1.0,
        });
        let mut q = spec.build_node().expect("bounded");
        let mut r = rng(2);
        let mut early = 0;
        for _ in 0..50 {
            match q.offer(1, 0, &mut r) {
                QueueVerdict::DropIncoming(DropCause::Early) => early += 1,
                QueueVerdict::DropIncoming(DropCause::Overflow) => {}
                QueueVerdict::Accept => {}
                v => panic!("unexpected verdict {v:?}"),
            }
        }
        assert!(early > 0, "RED never dropped early");
        assert!(
            q.depth() < 10,
            "RED should hold the queue short of capacity"
        );
    }

    #[test]
    fn choke_matches_the_dominant_flow() {
        let spec = QueueSpec::Choke(Aqm {
            capacity: 20,
            min_th: 1.0,
            max_th: 20.0,
            max_p: 0.0001,
            weight: 1.0,
        });
        let mut q = spec.build_node().expect("bounded");
        let mut r = rng(3);
        let mut matched = 0;
        // One flow floods; CHOKe's random peek must eventually match it.
        for _ in 0..40 {
            match q.offer(7, 0, &mut r) {
                QueueVerdict::DropMatched { index } => {
                    matched += 1;
                    assert!(index <= q.depth(), "victim index out of range");
                }
                QueueVerdict::Accept | QueueVerdict::DropIncoming(_) => {}
            }
        }
        assert!(matched > 0, "CHOKe never matched the flooding flow");
    }

    #[test]
    fn choke_never_matches_across_flows() {
        let spec = QueueSpec::Choke(Aqm {
            capacity: 8,
            min_th: 0.0,
            max_th: 8.0,
            max_p: 0.0001,
            weight: 1.0,
        });
        let mut q = spec.build_node().expect("bounded");
        let mut r = rng(4);
        // Alternating distinct flows: every queued key differs from the
        // arrival, so DropMatched must never fire.
        for i in 0..8u64 {
            if let QueueVerdict::DropMatched { .. } = q.offer(i, 0, &mut r) {
                panic!("matched across distinct flows");
            }
        }
    }

    #[test]
    fn disciplines_are_deterministic_per_seed() {
        // Aggressive marking parameters and interleaved dequeues keep the
        // average depth inside [min_th, max_th), where verdicts actually
        // consume random draws (a full queue tail-drops deterministically).
        for spec in [
            QueueSpec::Red(Aqm {
                capacity: 16,
                min_th: 2.0,
                max_th: 15.0,
                max_p: 0.5,
                weight: 0.5,
            }),
            QueueSpec::Choke(Aqm {
                capacity: 16,
                min_th: 2.0,
                max_th: 15.0,
                max_p: 0.5,
                weight: 0.5,
            }),
        ] {
            let run = |seed: u64| {
                let mut q = spec.build_node().expect("bounded");
                let mut r = rng(seed);
                (0..200u64)
                    .map(|i| {
                        let v = format!("{:?}", q.offer(i % 3, i, &mut r));
                        if q.depth() > 6 {
                            q.dequeue(i);
                        }
                        v
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(9), run(9), "same seed must replay ({spec:?})");
            assert_ne!(run(9), run(10), "seeds must decorrelate ({spec:?})");
        }
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        assert!(QueueSpec::drop_tail(0).validate().is_err());
        assert!(QueueSpec::Red(Aqm {
            capacity: 10,
            min_th: 8.0,
            max_th: 4.0,
            max_p: 0.1,
            weight: 0.002,
        })
        .validate()
        .is_err());
        assert!(QueueSpec::Choke(Aqm {
            capacity: 10,
            min_th: 1.0,
            max_th: 20.0,
            max_p: 0.1,
            weight: 0.002,
        })
        .validate()
        .is_err());
        assert!(QueueSpec::red(50).validate().is_ok());
        assert!(QueueSpec::Unbounded.validate().is_ok());
    }

    #[test]
    fn labels_are_distinct_and_comma_free() {
        let specs = [
            QueueSpec::Unbounded,
            QueueSpec::drop_tail(50),
            QueueSpec::red(50),
            QueueSpec::choke(50),
        ];
        for (i, a) in specs.iter().enumerate() {
            assert!(!a.label().contains(','), "comma in {}", a.label());
            for b in &specs[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn aimd_pacer_increases_and_halves() {
        let cfg = AimdConfig {
            initial_pps: 10.0,
            min_pps: 1.0,
            max_pps: 100.0,
            increase_pps_per_s: 10.0,
            decrease: 0.5,
        };
        let mut p = AimdPacer::new(cfg);
        assert!(p.gate(0).is_none(), "fresh pacer must be open");
        p.on_send(0);
        let release = p.gate(1).expect("gap after a send");
        assert!(release > 1, "release must be in the future");
        // One loss-free second: +10 pps.
        p.refresh(crate::SEC);
        assert!((p.rate_pps() - 20.0).abs() < 1e-9, "rate {}", p.rate_pps());
        p.on_loss(crate::SEC);
        assert!((p.rate_pps() - 10.0).abs() < 1e-9);
        // Losses never push below the floor.
        for _ in 0..20 {
            p.on_loss(crate::SEC);
        }
        assert!(p.rate_pps() >= 1.0);
    }

    #[test]
    fn aimd_release_saturates_instead_of_wrapping() {
        // A valid config whose gap does not fit in a `Time`: the release
        // is "never", not a wrapped instant in the past.
        let cfg = AimdConfig {
            initial_pps: 1e-15,
            min_pps: 1e-15,
            increase_pps_per_s: 0.0,
            ..AimdConfig::default()
        };
        assert!(cfg.validate().is_ok());
        let mut p = AimdPacer::new(cfg);
        p.on_send(1);
        assert_eq!(p.gate(2), Some(Time::MAX));
    }

    #[test]
    fn unbounded_slot_admits_everything_and_holds_nothing() {
        let mut q = QueueSpec::Unbounded.build_node().expect("a slot");
        let mut r = rng(5);
        for key in 0..4 {
            assert!(q.wants_poll(0));
            assert_eq!(q.offer(key, 0, &mut r), QueueVerdict::Accept);
            assert!(!q.wants_poll(1));
            assert_eq!(q.depth(), 0);
            q.dequeue(0);
        }
        assert_eq!(r.gen::<u64>(), rng(5).gen::<u64>(), "the slot drew");
    }

    #[test]
    fn aimd_config_validation() {
        assert!(AimdConfig::default().validate().is_ok());
        assert!(AimdConfig {
            decrease: 1.5,
            ..AimdConfig::default()
        }
        .validate()
        .is_err());
        assert!(AimdConfig {
            min_pps: 0.0,
            ..AimdConfig::default()
        }
        .validate()
        .is_err());
    }
}
