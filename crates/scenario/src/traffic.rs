//! Pluggable traffic models: how the flows of a run arrive and depart.
//!
//! The paper's evaluation only ever runs *static* workloads — a fixed set
//! of flows that all start at t = 0 and send a fixed packet budget. Real
//! mesh workloads are dynamic: streaming sources talk and pause, transfers
//! arrive mid-run and leave when they finish. The [`TrafficModel`] trait
//! makes the workload a first-class, swappable component, mirroring
//! [`mesh_sim::ChannelModel`] (loss processes) and
//! [`crate::ProtocolFactory`] (protocols):
//!
//! * [`TrafficModelSpec::Static`] — the legacy [`TrafficSpec`] expansion;
//!   byte-identical `RunRecord`s to the pre-redesign engine.
//! * [`TrafficModelSpec::Poisson`] — flows arrive with exponential
//!   inter-arrival times, hold for an exponential lifetime, and the
//!   active-flow count is capped (blocked arrivals are dropped).
//! * [`TrafficModelSpec::OnOff`] — a fixed set of endpoint pairs, each
//!   alternating exponential talk/silence periods (streaming-style).
//! * [`TrafficModelSpec::Staggered`] — a deterministic ramp: flow *i*
//!   starts at *i*·gap, for scaling studies.
//!
//! ## Determinism
//!
//! A model draws all of its randomness (arrival instants, lifetimes,
//! endpoint choices) from its **own** ChaCha8 stream derived from the run
//! seed (`seed ^ TRAFFIC_STREAM`), never from the engine's main stream —
//! so adding dynamics cannot perturb MAC backoffs or per-frame loss
//! draws, and a static workload stays byte-identical to the
//! pre-traffic-model engine.

use crate::pairs::PairPool;
use crate::spec::{reachable_pairs, FlowSpec, TrafficSpec};
use mesh_sim::{Time, SEC};
use mesh_topology::{NodeId, Topology};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

pub use mesh_topology::streams::TRAFFIC_STREAM;

/// A timestamped workload event within one simulator run.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowEvent {
    /// A flow arrives at simulated time `at` (µs).
    Start {
        /// The arriving flow.
        flow: FlowSpec,
        /// Arrival instant, µs of simulated time.
        at: Time,
    },
    /// A flow departs at simulated time `at` (µs).
    Stop {
        /// Index of the departing flow: the position of its `Start` among
        /// the schedule's `Start` events, in order.
        flow: usize,
        /// Departure instant, µs of simulated time.
        at: Time,
    },
}

impl FlowEvent {
    /// The event's timestamp.
    pub fn at(&self) -> Time {
        match self {
            FlowEvent::Start { at, .. } | FlowEvent::Stop { at, .. } => *at,
        }
    }
}

/// A workload generator: expands a run seed into one or more *schedules*,
/// each the timestamped flow arrivals/departures of one simulator run.
///
/// Schedules must be sorted by timestamp, and every [`FlowEvent::Stop`]
/// must reference an earlier `Start` (by start order). Models draw their
/// randomness from `seed ^ TRAFFIC_STREAM` so runs stay a pure function
/// of `(topology, agent, seed, channel, traffic)`.
///
/// ```
/// use mesh_sim::SEC;
/// use mesh_topology::generate;
/// use more_scenario::{PoissonModel, TrafficModel};
///
/// let topo = generate::testbed(1);
/// let model = PoissonModel {
///     rate_per_s: 0.2,
///     mean_hold_s: 10.0,
///     max_active: 4,
/// };
/// let schedules = model.schedules(&topo, 1, 64, 120 * SEC);
/// assert_eq!(schedules.len(), 1, "Poisson emits one run per seed");
/// // Same seed ⇒ the identical arrival process, for every protocol.
/// assert_eq!(schedules, model.schedules(&topo, 1, 64, 120 * SEC));
/// ```
pub trait TrafficModel: Send + Sync {
    /// The schedules of one run seed; each schedule is one simulator run
    /// (its flows share the air). `packets` is the per-flow budget from
    /// [`crate::ExpConfig`], `horizon` the run's deadline in µs — no
    /// event may be scheduled at or beyond it.
    fn schedules(
        &self,
        topo: &Topology,
        run_seed: u64,
        packets: usize,
        horizon: Time,
    ) -> Vec<Vec<FlowEvent>>;
}

/// One flow's lifetime window within a schedule, derived from its events
/// (the builder-facing view of a schedule).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FlowWindow {
    pub spec: FlowSpec,
    pub start: Time,
    pub stop: Option<Time>,
}

/// Checks a schedule obeys the [`TrafficModel`] contract, so a
/// misbehaving [`TrafficModelSpec::Custom`] model surfaces as a
/// [`crate::BuildError::InvalidSchedule`] from `try_run` instead of a
/// panic inside a worker thread. Rejects: an unsorted event list, any
/// event at or beyond the horizon, and a `Stop` referencing a flow that
/// has not started yet (which covers both unknown indices and a `Stop`
/// ordered before its `Start`). A `Stop` at the same instant as its
/// `Start` is legal — a zero-width window reports `0.0` throughput.
///
/// The built-in models satisfy this by construction; validation runs on
/// every schedule anyway as a cheap invariant check.
pub fn validate_schedule(schedule: &[FlowEvent], horizon: Time) -> Result<(), String> {
    let mut starts = 0usize;
    let mut last: Time = 0;
    for ev in schedule {
        let at = ev.at();
        if at < last {
            return Err(format!(
                "events must be time-sorted: event at {at} µs follows one at {last} µs"
            ));
        }
        last = at;
        if at >= horizon {
            return Err(format!(
                "event at {at} µs lies at or beyond the {horizon} µs run horizon"
            ));
        }
        match ev {
            FlowEvent::Start { .. } => starts += 1,
            FlowEvent::Stop { flow, .. } => {
                if *flow >= starts {
                    return Err(format!(
                        "Stop references flow {flow}, but only {starts} flow(s) have \
                         started by {at} µs (unknown flow, or a Stop before its Start)"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Collapses a schedule into per-flow windows, in start order.
///
/// # Panics
///
/// Panics when a `Stop` references a flow that has not started (callers
/// inside the engine run [`validate_schedule`] first).
pub(crate) fn flow_windows(schedule: &[FlowEvent]) -> Vec<FlowWindow> {
    let mut windows: Vec<FlowWindow> = Vec::new();
    for ev in schedule {
        match ev {
            FlowEvent::Start { flow, at } => windows.push(FlowWindow {
                spec: flow.clone(),
                start: *at,
                stop: None,
            }),
            FlowEvent::Stop { flow, at } => {
                let w = windows
                    .get_mut(*flow)
                    // xtask: allow(panic_path) -- Stop events are only emitted for flows a Start already inserted
                    .expect("Stop references a flow that never started");
                w.stop = Some(*at);
            }
        }
    }
    windows
}

/// Builds a sorted event list from `(spec, start, stop)` intervals.
fn events_from_intervals(mut intervals: Vec<(FlowSpec, Time, Option<Time>)>) -> Vec<FlowEvent> {
    // Start order is chronological; ties keep generation order.
    intervals.sort_by_key(|&(_, start, _)| start);
    let mut events: Vec<(Time, FlowEvent)> = Vec::new();
    for (i, (spec, start, stop)) in intervals.into_iter().enumerate() {
        events.push((
            start,
            FlowEvent::Start {
                flow: spec,
                at: start,
            },
        ));
        if let Some(stop) = stop {
            events.push((stop, FlowEvent::Stop { flow: i, at: stop }));
        }
    }
    events.sort_by_key(|&(at, _)| at); // stable: Start precedes its Stop
    events.into_iter().map(|(_, ev)| ev).collect()
}

/// Draws exponentially-distributed µs with the given mean (in seconds).
fn exp_us(rng: &mut ChaCha8Rng, mean_s: f64) -> Time {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    (-u.ln() * mean_s * SEC as f64) as Time
}

/// The legacy workload: a [`TrafficSpec`] expansion with every flow
/// starting at t = 0 and running to completion.
pub struct StaticModel(pub TrafficSpec);

impl TrafficModel for StaticModel {
    fn schedules(
        &self,
        topo: &Topology,
        run_seed: u64,
        packets: usize,
        _horizon: Time,
    ) -> Vec<Vec<FlowEvent>> {
        self.0
            .flow_sets(topo, run_seed, packets)
            .into_iter()
            .map(|flows| {
                flows
                    .into_iter()
                    .map(|flow| FlowEvent::Start { flow, at: 0 })
                    .collect()
            })
            .collect()
    }
}

/// Poisson flow arrivals over the reachable pairs of the topology:
/// exponential inter-arrival times at `rate_per_s`, exponential lifetimes
/// of mean `mean_hold_s`, and at most `max_active` simultaneous flows
/// (arrivals that would exceed the cap are dropped, M/M/c/c-style).
pub struct PoissonModel {
    /// Mean flow arrivals per simulated second.
    pub rate_per_s: f64,
    /// Mean flow lifetime in simulated seconds; a flow that completes its
    /// packet budget earlier simply finishes early.
    pub mean_hold_s: f64,
    /// Cap on simultaneously active flows.
    pub max_active: usize,
}

impl TrafficModel for PoissonModel {
    fn schedules(
        &self,
        topo: &Topology,
        run_seed: u64,
        packets: usize,
        horizon: Time,
    ) -> Vec<Vec<FlowEvent>> {
        assert!(self.rate_per_s > 0.0, "arrival rate must be positive");
        assert!(self.max_active > 0, "max_active must be at least 1");
        // Lazy pool: Poisson samples a handful of the O(n²) reachable
        // pairs, so the list is indexed — never materialized — keeping a
        // 10k-node city run at O(n) traffic memory. Draw order and pair
        // sequence match the materialized list exactly.
        let mut pool = PairPool::new(topo);
        assert!(
            !pool.is_empty(),
            "topology {} has no reachable pairs",
            topo.name
        );
        let mut rng = ChaCha8Rng::seed_from_u64(run_seed ^ TRAFFIC_STREAM);
        let mut intervals: Vec<(FlowSpec, Time, Option<Time>)> = Vec::new();
        let mut active: Vec<Time> = Vec::new(); // departure instants
        let mut t: Time = 0;
        loop {
            t += exp_us(&mut rng, 1.0 / self.rate_per_s).max(1);
            if t >= horizon {
                break;
            }
            // Depart the flows whose lifetime ended before this arrival.
            active.retain(|&stop| stop > t);
            // Every arrival draws its endpoints and lifetime even when
            // blocked, so the accepted set only depends on the cap.
            let (src, dst) = pool.get(rng.gen_range(0..pool.len()));
            let hold = exp_us(&mut rng, self.mean_hold_s).max(1);
            if active.len() >= self.max_active {
                continue; // blocked arrival
            }
            let stop = t.saturating_add(hold);
            active.push(stop);
            let stop = (stop < horizon).then_some(stop);
            intervals.push((FlowSpec::unicast(src, dst, packets), t, stop));
        }
        vec![events_from_intervals(intervals)]
    }
}

/// A fixed set of endpoint pairs, each alternating exponential ON
/// (talking) and OFF (silent) periods — the streaming-source shape. Every
/// ON period arrives as a fresh flow and departs when the period ends.
pub struct OnOffModel {
    /// Number of on-off sources (distinct pairs sampled per run seed).
    pub n_flows: usize,
    /// Mean talk-period length, simulated seconds.
    pub mean_on_s: f64,
    /// Mean silence-period length, simulated seconds.
    pub mean_off_s: f64,
}

impl TrafficModel for OnOffModel {
    fn schedules(
        &self,
        topo: &Topology,
        run_seed: u64,
        packets: usize,
        horizon: Time,
    ) -> Vec<Vec<FlowEvent>> {
        let mut rng = ChaCha8Rng::seed_from_u64(run_seed ^ TRAFFIC_STREAM);
        let mut pool = reachable_pairs(topo);
        assert!(
            pool.len() >= self.n_flows,
            "topology {} cannot host {} on-off pairs",
            topo.name,
            self.n_flows
        );
        rand::seq::SliceRandom::shuffle(&mut pool[..], &mut rng);
        let mut intervals = Vec::new();
        for &(src, dst) in pool.iter().take(self.n_flows) {
            // Each source starts silent: a random offset decorrelates the
            // sources without a shared phase.
            let mut t = exp_us(&mut rng, self.mean_off_s);
            while t < horizon {
                let on = exp_us(&mut rng, self.mean_on_s).max(1);
                let stop = t.saturating_add(on);
                intervals.push((
                    FlowSpec::unicast(src, dst, packets),
                    t,
                    (stop < horizon).then_some(stop),
                ));
                t = stop.saturating_add(exp_us(&mut rng, self.mean_off_s).max(1));
            }
        }
        vec![events_from_intervals(intervals)]
    }
}

/// A deterministic arrival ramp for scaling studies: flow *i* (endpoints
/// sampled per run seed, distinct sources) starts at `i × gap_ms` and
/// optionally departs `hold_ms` later.
pub struct StaggeredModel {
    /// Number of flows in the ramp.
    pub n_flows: usize,
    /// Gap between consecutive arrivals, milliseconds.
    pub gap_ms: u64,
    /// Lifetime of each flow, milliseconds; `None` runs to completion.
    pub hold_ms: Option<u64>,
}

impl TrafficModel for StaggeredModel {
    fn schedules(
        &self,
        topo: &Topology,
        run_seed: u64,
        packets: usize,
        horizon: Time,
    ) -> Vec<Vec<FlowEvent>> {
        let mut rng = ChaCha8Rng::seed_from_u64(run_seed ^ TRAFFIC_STREAM);
        let mut pool = reachable_pairs(topo);
        rand::seq::SliceRandom::shuffle(&mut pool[..], &mut rng);
        // Distinct sources, like TrafficSpec::RandomConcurrent.
        let mut used = std::collections::BTreeSet::new();
        let mut flows = Vec::new();
        for (s, d) in pool {
            if !used.insert(s) {
                continue;
            }
            flows.push((s, d));
            if flows.len() == self.n_flows {
                break;
            }
        }
        assert_eq!(
            flows.len(),
            self.n_flows,
            "topology {} cannot host {} distinct-source flows",
            topo.name,
            self.n_flows
        );
        let gap = self.gap_ms * mesh_sim::MS;
        let intervals = flows
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| {
                let start = i as Time * gap;
                let stop = self
                    .hold_ms
                    .map(|h| start + h * mesh_sim::MS)
                    .filter(|&s| s < horizon);
                (FlowSpec::unicast(src, dst, packets), start, stop)
            })
            .filter(|&(_, start, _)| start < horizon)
            .collect();
        vec![events_from_intervals(intervals)]
    }
}

/// Serializable description of a traffic model; builds a fresh
/// [`TrafficModel`] via [`TrafficModelSpec::build`].
///
/// `Static` wraps the legacy [`TrafficSpec`] and reproduces its expansion
/// byte-for-byte (enforced by `tests/traffic_equivalence.rs`); the other
/// variants make flow arrival dynamics a sweepable axis.
#[derive(Clone)]
pub enum TrafficModelSpec {
    /// The legacy workload (see [`StaticModel`]). The default.
    Static(TrafficSpec),
    /// Poisson arrivals (see [`PoissonModel`]).
    Poisson {
        /// Mean flow arrivals per simulated second.
        rate_per_s: f64,
        /// Mean flow lifetime, simulated seconds.
        mean_hold_s: f64,
        /// Cap on simultaneously active flows.
        max_active: usize,
    },
    /// On-off streaming sources (see [`OnOffModel`]).
    OnOff {
        /// Number of on-off sources.
        n_flows: usize,
        /// Mean talk-period length, simulated seconds.
        mean_on_s: f64,
        /// Mean silence-period length, simulated seconds.
        mean_off_s: f64,
    },
    /// A deterministic arrival ramp (see [`StaggeredModel`]).
    Staggered {
        /// Number of flows in the ramp.
        n_flows: usize,
        /// Gap between consecutive arrivals, milliseconds.
        gap_ms: u64,
        /// Lifetime of each flow, milliseconds; `None` runs to completion.
        hold_ms: Option<u64>,
    },
    /// A caller-supplied model — the escape hatch for workload shapes the
    /// built-ins cannot express.
    Custom(Arc<dyn TrafficModel>),
}

impl Default for TrafficModelSpec {
    fn default() -> Self {
        TrafficModelSpec::Static(TrafficSpec::SinglePair {
            src: NodeId(0),
            dst: NodeId(19),
        })
    }
}

impl std::fmt::Debug for TrafficModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficModelSpec::Static(spec) => write!(f, "Static({spec:?})"),
            TrafficModelSpec::Poisson {
                rate_per_s,
                mean_hold_s,
                max_active,
            } => write!(
                f,
                "Poisson{{rate:{rate_per_s}/s,hold:{mean_hold_s}s,max:{max_active}}}"
            ),
            TrafficModelSpec::OnOff {
                n_flows,
                mean_on_s,
                mean_off_s,
            } => write!(f, "OnOff{{n:{n_flows},on:{mean_on_s}s,off:{mean_off_s}s}}"),
            TrafficModelSpec::Staggered {
                n_flows,
                gap_ms,
                hold_ms,
            } => write!(
                f,
                "Staggered{{n:{n_flows},gap:{gap_ms}ms,hold:{hold_ms:?}}}"
            ),
            TrafficModelSpec::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl TrafficModelSpec {
    /// Instantiates the model this spec describes.
    pub fn build(&self) -> Arc<dyn TrafficModel> {
        match self {
            TrafficModelSpec::Static(spec) => Arc::new(StaticModel(spec.clone())),
            TrafficModelSpec::Poisson {
                rate_per_s,
                mean_hold_s,
                max_active,
            } => Arc::new(PoissonModel {
                rate_per_s: *rate_per_s,
                mean_hold_s: *mean_hold_s,
                max_active: *max_active,
            }),
            TrafficModelSpec::OnOff {
                n_flows,
                mean_on_s,
                mean_off_s,
            } => Arc::new(OnOffModel {
                n_flows: *n_flows,
                mean_on_s: *mean_on_s,
                mean_off_s: *mean_off_s,
            }),
            TrafficModelSpec::Staggered {
                n_flows,
                gap_ms,
                hold_ms,
            } => Arc::new(StaggeredModel {
                n_flows: *n_flows,
                gap_ms: *gap_ms,
                hold_ms: *hold_ms,
            }),
            TrafficModelSpec::Custom(model) => model.clone(),
        }
    }

    /// Validates the model against an instantiated topology, so
    /// infeasible endpoint demands surface as errors from the run grid
    /// instead of panicking inside a worker (the same pattern channel
    /// validation uses). The models keep equivalent asserts as backstops
    /// for direct trait use.
    pub fn validate_for(&self, topo: &Topology) -> Result<(), String> {
        match self {
            TrafficModelSpec::Poisson { .. } => {
                // A reachable ordered pair exists iff any `p > 0` link
                // does — O(1), where counting the pool would be O(n²)
                // at city scale.
                if topo.link_count() == 0 {
                    return Err(format!("topology {} has no reachable pairs", topo.name));
                }
                Ok(())
            }
            TrafficModelSpec::OnOff { n_flows, .. }
            | TrafficModelSpec::Static(TrafficSpec::RandomConcurrent {
                n_flows,
                distinct_sources: false,
                ..
            }) => {
                let pairs = PairPool::new(topo).len();
                if pairs < *n_flows {
                    return Err(format!(
                        "topology {} has {pairs} reachable pairs, fewer than the \
                         {n_flows} flows requested",
                        topo.name
                    ));
                }
                Ok(())
            }
            TrafficModelSpec::Staggered { n_flows, .. }
            | TrafficModelSpec::Static(TrafficSpec::RandomConcurrent {
                n_flows,
                distinct_sources: true,
                ..
            }) => {
                // Both need n_flows distinct sources, each with at least
                // one reachable destination.
                let sources = PairPool::new(topo).sources_with_destinations();
                if sources < *n_flows {
                    return Err(format!(
                        "topology {} cannot host {n_flows} distinct-source flows \
                         ({sources} sources reach anything)",
                        topo.name
                    ));
                }
                Ok(())
            }
            TrafficModelSpec::Static(_) | TrafficModelSpec::Custom(_) => Ok(()),
        }
    }

    /// Validates the model's parameters against a run deadline (seconds),
    /// so bad configurations fail at build time instead of panicking
    /// inside a sweep worker. `Custom` models validate themselves.
    pub fn validate(&self, deadline_s: u64) -> Result<(), String> {
        fn positive(v: f64, what: &str) -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{what} must be positive and finite, got {v}"))
            }
        }
        match self {
            TrafficModelSpec::Static(TrafficSpec::RandomConcurrent { n_flows: 0, .. }) => {
                Err("RandomConcurrent needs at least one flow".into())
            }
            TrafficModelSpec::Static(_) | TrafficModelSpec::Custom(_) => Ok(()),
            TrafficModelSpec::Poisson {
                rate_per_s,
                mean_hold_s,
                max_active,
            } => {
                positive(*rate_per_s, "Poisson arrival rate")?;
                positive(*mean_hold_s, "Poisson mean hold time")?;
                if *max_active == 0 {
                    return Err("Poisson max_active must be at least 1".into());
                }
                Ok(())
            }
            TrafficModelSpec::OnOff {
                n_flows,
                mean_on_s,
                mean_off_s,
            } => {
                if *n_flows == 0 {
                    return Err("OnOff needs at least one source".into());
                }
                positive(*mean_on_s, "OnOff mean talk period")?;
                if !mean_off_s.is_finite() || *mean_off_s < 0.0 {
                    return Err(format!(
                        "OnOff mean silence period must be non-negative and finite, \
                         got {mean_off_s}"
                    ));
                }
                Ok(())
            }
            TrafficModelSpec::Staggered {
                n_flows, gap_ms, ..
            } => {
                if *n_flows == 0 {
                    return Err("Staggered needs at least one flow".into());
                }
                // The whole ramp must fit the deadline, otherwise the tail
                // of the ramp would be silently dropped and a Flows sweep
                // would report flow counts that never ran.
                let last_start = (*n_flows as Time - 1) * gap_ms * mesh_sim::MS;
                let horizon = deadline_s * SEC;
                if last_start >= horizon {
                    return Err(format!(
                        "Staggered ramp of {n_flows} flows every {gap_ms} ms ends at \
                         {last_start} µs, at or beyond the {deadline_s} s deadline"
                    ));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::generate;

    const HORIZON: Time = 240 * SEC;

    #[test]
    fn static_model_matches_flow_sets() {
        let topo = generate::testbed(1);
        let spec = TrafficSpec::RandomPairs { count: 3, seed: 7 };
        let legacy = spec.flow_sets(&topo, 1, 64);
        let schedules = StaticModel(spec).schedules(&topo, 1, 64, HORIZON);
        assert_eq!(schedules.len(), legacy.len());
        for (sched, flows) in schedules.iter().zip(&legacy) {
            let windows = flow_windows(sched);
            assert_eq!(windows.len(), flows.len());
            for (w, f) in windows.iter().zip(flows) {
                assert_eq!(&w.spec, f);
                assert_eq!(w.start, 0);
                assert_eq!(w.stop, None);
            }
        }
    }

    #[test]
    fn poisson_is_deterministic_and_seed_sensitive() {
        let topo = generate::testbed(1);
        let model = PoissonModel {
            rate_per_s: 0.5,
            mean_hold_s: 10.0,
            max_active: 4,
        };
        let a = model.schedules(&topo, 1, 32, HORIZON);
        let b = model.schedules(&topo, 1, 32, HORIZON);
        let c = model.schedules(&topo, 2, 32, HORIZON);
        assert_eq!(a, b, "same seed must replay exactly");
        assert_ne!(a, c, "different seeds must differ");
        assert!(!a[0].is_empty(), "240 s at 0.5/s should see arrivals");
        for ev in &a[0] {
            assert!(ev.at() < HORIZON);
        }
    }

    #[test]
    fn poisson_respects_the_active_cap() {
        let topo = generate::testbed(1);
        let model = PoissonModel {
            rate_per_s: 5.0,
            mean_hold_s: 1e6, // effectively immortal flows
            max_active: 3,
        };
        let schedule = model.schedules(&topo, 1, 32, HORIZON).remove(0);
        let windows = flow_windows(&schedule);
        assert_eq!(windows.len(), 3, "cap must block the fourth arrival");
    }

    #[test]
    fn onoff_alternates_start_stop_per_pair() {
        let topo = generate::testbed(1);
        let model = OnOffModel {
            n_flows: 2,
            mean_on_s: 5.0,
            mean_off_s: 5.0,
        };
        let schedule = model.schedules(&topo, 3, 32, HORIZON).remove(0);
        let windows = flow_windows(&schedule);
        assert!(windows.len() >= 2, "each source talks at least once");
        for w in &windows {
            if let Some(stop) = w.stop {
                assert!(stop > w.start);
            }
        }
        // Windows of the same pair never overlap.
        for i in 0..windows.len() {
            for j in i + 1..windows.len() {
                let (a, b) = (&windows[i], &windows[j]);
                if a.spec.src == b.spec.src && a.spec.dsts == b.spec.dsts {
                    let a_end = a.stop.unwrap_or(Time::MAX);
                    assert!(b.start >= a_end || a.start >= b.stop.unwrap_or(Time::MAX));
                }
            }
        }
    }

    #[test]
    fn staggered_ramp_is_deterministic_spacing() {
        let topo = generate::testbed(1);
        let model = StaggeredModel {
            n_flows: 4,
            gap_ms: 2_000,
            hold_ms: None,
        };
        let schedule = model.schedules(&topo, 1, 32, HORIZON).remove(0);
        let windows = flow_windows(&schedule);
        assert_eq!(windows.len(), 4);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.start, i as Time * 2_000 * mesh_sim::MS);
            assert_eq!(w.stop, None);
        }
        let sources: std::collections::BTreeSet<NodeId> =
            windows.iter().map(|w| w.spec.src).collect();
        assert_eq!(sources.len(), 4, "distinct sources");
    }

    #[test]
    fn validate_schedule_rejects_contract_violations() {
        let flow = FlowSpec::unicast(NodeId(0), NodeId(1), 8);
        let start = |at| FlowEvent::Start {
            flow: flow.clone(),
            at,
        };
        // Legal: start, zero-width stop, later stop of a known flow.
        let ok = vec![
            start(0),
            FlowEvent::Stop { flow: 0, at: 0 },
            start(10),
            FlowEvent::Stop { flow: 1, at: 20 },
        ];
        assert!(validate_schedule(&ok, 100).is_ok());
        // Stop for a flow that never started.
        let unknown = vec![start(0), FlowEvent::Stop { flow: 3, at: 5 }];
        assert!(validate_schedule(&unknown, 100)
            .unwrap_err()
            .contains("Stop references flow 3"));
        // Stop ordered before its Start.
        let early = vec![FlowEvent::Stop { flow: 0, at: 0 }, start(5)];
        assert!(validate_schedule(&early, 100).is_err());
        // Unsorted events.
        let unsorted = vec![start(10), start(5)];
        assert!(validate_schedule(&unsorted, 100)
            .unwrap_err()
            .contains("time-sorted"));
        // Event at the horizon.
        assert!(validate_schedule(&[start(100)], 100)
            .unwrap_err()
            .contains("horizon"));
    }

    #[test]
    fn built_in_models_always_validate() {
        let topo = generate::testbed(1);
        let models: Vec<Box<dyn TrafficModel>> = vec![
            Box::new(StaticModel(TrafficSpec::RandomPairs { count: 3, seed: 7 })),
            Box::new(PoissonModel {
                rate_per_s: 0.5,
                mean_hold_s: 10.0,
                max_active: 4,
            }),
            Box::new(OnOffModel {
                n_flows: 3,
                mean_on_s: 4.0,
                mean_off_s: 4.0,
            }),
            Box::new(StaggeredModel {
                n_flows: 4,
                gap_ms: 1_000,
                hold_ms: Some(2_000),
            }),
        ];
        for model in &models {
            for seed in 1..=3 {
                for schedule in model.schedules(&topo, seed, 16, HORIZON) {
                    validate_schedule(&schedule, HORIZON).expect("built-in model contract");
                }
            }
        }
    }

    #[test]
    fn events_are_time_sorted_with_valid_stop_references() {
        let topo = generate::testbed(2);
        let model = OnOffModel {
            n_flows: 3,
            mean_on_s: 2.0,
            mean_off_s: 2.0,
        };
        let schedule = model.schedules(&topo, 5, 16, HORIZON).remove(0);
        let mut starts_seen = 0usize;
        let mut last = 0;
        for ev in &schedule {
            assert!(ev.at() >= last, "events must be time-sorted");
            last = ev.at();
            match ev {
                FlowEvent::Start { .. } => starts_seen += 1,
                FlowEvent::Stop { flow, .. } => {
                    assert!(*flow < starts_seen, "Stop must follow its Start")
                }
            }
        }
    }
}
