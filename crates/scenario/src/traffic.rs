//! Pluggable traffic models: how the flows of a run arrive and depart.
//!
//! The paper's evaluation only ever runs *static* workloads — a fixed set
//! of flows that all start at t = 0 and send a fixed packet budget. Real
//! mesh workloads are dynamic: transfers arrive mid-run and leave when
//! they finish. The [`TrafficModel`] trait
//! makes the workload a first-class, swappable component, mirroring
//! [`crate::ProtocolFactory`] (protocols):
//!
//! * [`TrafficModelSpec::Static`] — the legacy [`TrafficSpec`] expansion;
//!   byte-identical `RunRecord`s to the pre-redesign engine.
//! * [`TrafficModelSpec::Poisson`] — flows arrive with exponential
//!   inter-arrival times, hold for an exponential lifetime, and the
//!   active-flow count is capped (blocked arrivals are dropped).
//! * [`TrafficModelSpec::Custom`] — any caller-supplied
//!   [`TrafficModel`], e.g. a fixed schedule of arrivals and departures.
//!
//! ## Determinism
//!
//! A model draws all of its randomness (arrival instants, lifetimes,
//! endpoint choices) from its **own** ChaCha8 stream derived from the run
//! seed (`Stream::Traffic`), never from the engine's main stream —
//! so adding dynamics cannot perturb MAC backoffs or per-frame loss
//! draws, and a static workload stays byte-identical to the
//! pre-traffic-model engine.

use crate::pairs::PairPool;
use crate::spec::{FlowSpec, TrafficSpec};
use mesh_sim::{Time, SEC};
use mesh_topology::streams::{self, Stream};
use mesh_topology::{NodeId, Topology};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::Arc;

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
/// randomness from the seed's `Stream::Traffic` so runs stay a pure function
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
                #[expect(
                    clippy::expect_used,
                    reason = "Stop events are only emitted for flows a Start already inserted"
                )]
                let w = windows
                    .get_mut(*flow)
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

/// `Ok` when `v` is positive and finite.
fn positive(v: f64, what: &str) -> Result<(), String> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(format!("{what} must be positive and finite, got {v}"))
    }
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
#[derive(Clone, Copy, PartialEq)]
pub struct PoissonModel {
    /// Mean flow arrivals per simulated second.
    pub rate_per_s: f64,
    /// Mean flow lifetime in simulated seconds; a flow that completes its
    /// packet budget earlier simply finishes early.
    pub mean_hold_s: f64,
    /// Cap on simultaneously active flows.
    pub max_active: usize,
}

impl fmt::Debug for PoissonModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let PoissonModel {
            rate_per_s,
            mean_hold_s,
            max_active,
        } = self;
        write!(
            f,
            "Poisson{{rate:{rate_per_s}/s,hold:{mean_hold_s}s,max:{max_active}}}"
        )
    }
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
        let pool = PairPool::new(topo);
        assert!(
            !pool.is_empty(),
            "topology {} has no reachable pairs",
            topo.name
        );
        let mut rng = streams::rng(run_seed, Stream::Traffic);
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
    /// Poisson arrivals.
    Poisson(PoissonModel),
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

impl fmt::Debug for TrafficModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficModelSpec::Static(spec) => write!(f, "Static({spec:?})"),
            TrafficModelSpec::Poisson(m) => m.fmt(f),
            TrafficModelSpec::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl TrafficModelSpec {
    /// Instantiates the model this spec describes.
    pub fn build(&self) -> Arc<dyn TrafficModel> {
        match self {
            TrafficModelSpec::Static(spec) => Arc::new(StaticModel(spec.clone())),
            TrafficModelSpec::Poisson(m) => Arc::new(*m),
            TrafficModelSpec::Custom(model) => model.clone(),
        }
    }

    /// Validates the model's parameters, then its endpoint demands
    /// against the instantiated topology, so a bad configuration or an
    /// infeasible one fails before the run grid starts instead of
    /// panicking inside a sweep worker (the same pattern channel
    /// validation uses). The models keep equivalent asserts as backstops
    /// for direct trait use; `Custom` models validate themselves.
    pub fn validate_for(&self, topo: &Topology) -> Result<(), String> {
        match self {
            TrafficModelSpec::Poisson(m) => {
                positive(m.rate_per_s, "Poisson arrival rate")?;
                positive(m.mean_hold_s, "Poisson mean hold time")?;
                if m.max_active == 0 {
                    return Err("Poisson max_active must be at least 1".into());
                }
                // A reachable ordered pair exists iff any `p > 0` link
                // does — O(1), where counting the pool would be O(n²)
                // at city scale.
                if topo.link_count() == 0 {
                    return Err(format!("topology {} has no reachable pairs", topo.name));
                }
                Ok(())
            }
            TrafficModelSpec::Static(TrafficSpec::RandomConcurrent { n_flows: 0, .. }) => {
                Err("RandomConcurrent needs at least one flow".into())
            }
            TrafficModelSpec::Static(TrafficSpec::RandomConcurrent {
                n_flows,
                distinct_sources,
                ..
            }) => {
                let pool = PairPool::new(topo);
                let (sources, pairs) = (pool.sources_with_destinations(), pool.len());
                let name = &topo.name;
                match distinct_sources {
                    // Distinct sources, each with a reachable destination.
                    true if sources < *n_flows => Err(format!(
                        "topology {name} cannot host {n_flows} distinct-source flows \
                         ({sources} sources reach anything)"
                    )),
                    false if pairs < *n_flows => Err(format!(
                        "topology {name} has {pairs} reachable pairs, fewer than the \
                         {n_flows} flows requested"
                    )),
                    _ => Ok(()),
                }
            }
            TrafficModelSpec::Static(_) | TrafficModelSpec::Custom(_) => Ok(()),
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
        let model = PoissonModel {
            rate_per_s: 0.5,
            mean_hold_s: 2.0,
            max_active: 3,
        };
        let schedule = model.schedules(&topo, 5, 16, HORIZON).remove(0);
        let mut starts_seen = 0usize;
        let mut stops_seen = 0usize;
        let mut last = 0;
        for ev in &schedule {
            assert!(ev.at() >= last, "events must be time-sorted");
            last = ev.at();
            match ev {
                FlowEvent::Start { .. } => starts_seen += 1,
                FlowEvent::Stop { flow, .. } => {
                    stops_seen += 1;
                    assert!(*flow < starts_seen, "Stop must follow its Start")
                }
            }
        }
        assert!(stops_seen > 0, "the schedule must exercise Stop references");
    }
}
