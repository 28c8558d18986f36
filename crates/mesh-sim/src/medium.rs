//! The shared wireless medium: who senses whom, who interferes at whom,
//! and which receivers decode a finished transmission.
//!
//! Sensing and interference relations are precomputed from the topology
//! and the run's channel model: any directed link (`p > 0` in the matrix,
//! or reachable under the channel per [`ChannelModel::may_reach`], either
//! direction) is both sensable and interfering; when node positions are
//! known, the carrier-sense and interference *ranges* extend those
//! relations beyond decodable links (real radios defer to, and are jammed
//! by, signals too weak to decode).
//!
//! All three relations are held as **per-node sorted neighbor lists**
//! rather than `n × n` matrices, enumerated from the topology's link set,
//! the channel's [`ReachHint`], and a spatial index over node positions —
//! so a 10k-node city mesh costs O(nodes + pairs-in-range), not O(n²),
//! to build and to query. Reception evaluation walks the transmitter's
//! reachable-candidate list instead of every node; candidates are a
//! superset of the channel's delivery support, and a node outside it
//! has `p = 0` and consumes no randomness.
//!
//! Bookkeeping costs what is physically near a node, not what the run
//! has sent: frames live in an **on-air set** until the clock passes
//! their end, then in a **history** ordered by `end` that keeps a record
//! exactly as long as some frame still on the air started before it
//! ended (the only frames it can still have overlapped). Carrier sense
//! and the half-duplex guard are one comparison against per-node
//! latest-end marks that [`Medium::begin`] raises over the transmitter's
//! sense list. This rests on the engine's clock: every frame begins at
//! the current instant, so `begin`, `prune` and the `now` of every query
//! never go back in time.
//!
//! Reception is evaluated when a transmission ends:
//!
//! 1. half-duplex — a node that transmitted during any part of the frame
//!    cannot receive it;
//! 2. collision — any other transmission overlapping the frame's airtime
//!    that interferes at the receiver destroys the frame, unless capture:
//!    the frame's delivery probability exceeds `capture_ratio ×` the
//!    strongest overlapping interferer's (a delivery-probability proxy for
//!    SINR);
//! 3. loss — surviving frames are delivered with the link's *instantaneous*
//!    probability as reported by the run's [`ChannelModel`], independently
//!    per receiver (the §5.3.1 model when the channel is static).

// xtask: allow(panic_path, file) -- transmission ids are issued by this module and resolved before eviction; per-node vectors are sized to the topology.

use crate::channel::{ChannelModel, ReachHint};
use crate::{SimConfig, Time};
use mesh_topology::spatial::CellGrid;
use mesh_topology::{NodeId, Topology};
use rand::Rng;
use std::collections::VecDeque;

/// Vertical meters per floor in 3D range computations (matches
/// `channel`'s constant).
const FLOOR_HEIGHT_M: f64 = 10.0;

/// A transmission on the air (or recently finished).
#[derive(Clone, Debug)]
pub struct Transmission {
    /// Engine-assigned transmission id.
    pub id: u64,
    /// The transmitting node.
    pub tx: NodeId,
    /// Airtime start, µs.
    pub start: Time,
    /// Airtime end, µs.
    pub end: Time,
}

/// Precomputed radio relations plus the set of in-flight transmissions.
#[derive(Clone, Debug)]
#[must_use]
pub struct Medium {
    n: usize,
    /// `sense[a]`: sorted ids whose MACs defer to a transmission by `a`.
    sense: Vec<Vec<u32>>,
    /// `interfere[a]`: sorted ids at which a transmission by `a` collides
    /// with arriving frames.
    interfere: Vec<Vec<u32>>,
    /// `reach[t]`: sorted reception candidates for transmitter `t` — a
    /// superset of every node the channel can deliver `t`'s frames to.
    reach: Vec<Vec<u32>>,
    /// Frames begun whose `end` the clock has not passed, in `begin`
    /// order — the first started earliest. A frame ending exactly at the
    /// clock is still here, waiting to be judged.
    air: Vec<Transmission>,
    /// Frames that ended before the clock, ascending by `end`; a record
    /// stays while some frame in `air` started before it ended.
    history: VecDeque<Transmission>,
    /// Latest instant seen by [`Medium::begin`] / [`Medium::prune`].
    clock: Time,
    /// `busy_end[b]`: latest `end` of any frame begun by a node `b` senses.
    busy_end: Vec<Time>,
    /// `own_end[a]`: latest `end` of any frame begun by `a` itself.
    own_end: Vec<Time>,
    /// `stamp[a] == generation`: `a` transmitted during the frame being
    /// judged. Bumping `generation` clears every stamp at once.
    stamp: Vec<u64>,
    generation: u64,
    /// Scratch for the judged frame's delivery probabilities, parallel to
    /// its transmitter's `reach` row.
    deliveries: Vec<f64>,
}

impl Medium {
    /// Builds the medium for `topo` under `cfg`, with `chan` supplying
    /// reachability beyond the static matrix (matrix-backed channels add
    /// nothing; shadowing extends the relations to every pair that could
    /// plausibly decode).
    pub fn new(topo: &Topology, cfg: &SimConfig, chan: &dyn ChannelModel) -> Self {
        let n = topo.n();
        // The symmetric "linked" relation: some direction of the pair
        // carries matrix delivery or channel reachability. Enumerated
        // from the topology's link set plus the channel's reach hint.
        let mut linked: Vec<Vec<u32>> = vec![Vec::new(); n];
        for l in topo.links() {
            linked[l.from.0].push(l.to.0 as u32);
            linked[l.to.0].push(l.from.0 as u32);
        }
        if let ReachHint::WithinDistance(d) = chan.reach_hint() {
            let pos = topo
                .positions()
                .expect("WithinDistance reach hint requires node positions");
            let grid = CellGrid::from_positions(pos, d);
            for (a, row) in linked.iter_mut().enumerate() {
                grid.for_each_candidate(pos[a].x, pos[a].y, d, |b| {
                    let (na, nb) = (NodeId(a), NodeId(b as usize));
                    if b as usize != a && (chan.may_reach(na, nb) || chan.may_reach(nb, na)) {
                        row.push(b);
                    }
                });
            }
        }
        for row in &mut linked {
            row.sort_unstable();
            row.dedup();
        }
        // Reception candidates per transmitter: the linked relation is a
        // superset of the channel's delivery support in either direction,
        // so it serves unchanged.
        let reach = linked.clone();
        // Range-based extension from node positions: pairs within
        // carrier-sense range defer, pairs within interference range jam,
        // decodable or not.
        let mut sense = linked.clone();
        let mut interfere = linked;
        if let Some(pos) = topo.positions() {
            let r_max = cfg.carrier_sense_range.max(cfg.interference_range);
            if r_max > 0.0 {
                let grid = CellGrid::from_positions(pos, r_max);
                for a in 0..n {
                    grid.for_each_candidate(pos[a].x, pos[a].y, r_max, |b| {
                        let b = b as usize;
                        if b == a {
                            return;
                        }
                        let d = pos[a].distance(&pos[b], FLOOR_HEIGHT_M);
                        if d <= cfg.carrier_sense_range {
                            sense[a].push(b as u32);
                        }
                        if d <= cfg.interference_range {
                            interfere[a].push(b as u32);
                        }
                    });
                }
            }
        }
        for row in sense.iter_mut().chain(interfere.iter_mut()) {
            row.sort_unstable();
            row.dedup();
        }
        // Reception looks interferers up from the receiver's side, which
        // is the same relation only because every rule above adds a pair
        // in both directions.
        debug_assert!(is_symmetric(&interfere), "interference is mutual");
        Medium {
            n,
            sense,
            interfere,
            reach,
            air: Vec::new(),
            history: VecDeque::new(),
            clock: 0,
            busy_end: vec![0; n],
            own_end: vec![0; n],
            stamp: vec![0; n],
            generation: 0,
            deliveries: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Does a transmission by `a` keep `b` deferring?
    #[inline]
    pub fn senses(&self, a: NodeId, b: NodeId) -> bool {
        self.sense[a.0].binary_search(&(b.0 as u32)).is_ok()
    }

    /// Does a transmission by `a` interfere at receiver `r`?
    #[inline]
    pub fn interferes(&self, a: NodeId, r: NodeId) -> bool {
        self.interfere[a.0].binary_search(&(r.0 as u32)).is_ok()
    }

    /// Registers a transmission starting now: `t.start` is the caller's
    /// current instant, no earlier than any previous `begin` or `prune`.
    pub fn begin(&mut self, t: Transmission) {
        debug_assert!(t.start <= t.end);
        debug_assert!(t.start >= self.clock, "frames begin at the clock");
        self.prune(t.start);
        raise(&mut self.own_end, t.tx.0, t.end);
        for &b in self.sense.get(t.tx.0).into_iter().flatten() {
            raise(&mut self.busy_end, b as usize, t.end);
        }
        self.air.push(t);
    }

    /// Advances the clock to `now`: frames that ended before it leave the
    /// on-air set for the history, and the history drops every record
    /// that ended before the oldest frame still on the air started (with
    /// nothing on the air, all of it). [`Medium::begin`] does this itself;
    /// a frame can be judged until the clock passes its end.
    pub fn prune(&mut self, now: Time) {
        self.clock = self.clock.max(now);
        let history = &mut self.history;
        self.air.retain(|t| {
            let on_air = t.end >= now;
            if !on_air {
                // Keep `history` ascending by end; almost always an append.
                let at = history.iter().rposition(|h| h.end <= t.end);
                history.insert(at.map_or(0, |i| i + 1), t.clone());
            }
            on_air
        });
        let oldest_start = self.air.first().map_or(now, |t| t.start);
        while history.front().is_some_and(|h| h.end <= oldest_start) {
            history.pop_front();
        }
    }

    /// `(on-air set, history)` sizes, for the engine's retention test.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> (usize, usize) {
        (self.air.len(), self.history.len())
    }

    /// Latest end time among transmissions currently on the air that
    /// `node` senses; `None` if the medium is idle at `node`. `now` is the
    /// caller's current instant (see [`Medium::begin`]).
    pub fn busy_until(&self, node: NodeId, now: Time) -> Option<Time> {
        debug_assert!(now >= self.clock, "queries do not look back in time");
        self.busy_end.get(node.0).copied().filter(|&end| end > now)
    }

    /// True when `node` senses an ongoing transmission.
    pub fn is_busy(&self, node: NodeId, now: Time) -> bool {
        self.busy_until(node, now).is_some()
    }

    /// Evaluates which nodes decode transmission `id` (call at its end).
    ///
    /// Delivery probabilities — the frame's own and each interferer's in
    /// the capture rule — are the channel model's instantaneous values at
    /// the frame's end time. Draws per-receiver Bernoulli losses from
    /// `rng`; `collisions`/`captures` counters are incremented for the
    /// stats module.
    ///
    /// The receiver set is written into a caller-supplied vector (cleared
    /// first), so the engine's hot path reuses one allocation per run
    /// instead of one per transmission. The frame's delivery
    /// probabilities come from one [`ChannelModel::delivery_row`] call
    /// over the transmitter's candidate list. The nodes that transmitted
    /// during the frame are stamped once, from the on-air set and the
    /// tail of the history; if there were none — most frames have the air
    /// to themselves — no receiver is half-duplex-blocked or interfered
    /// with, and that is all there is to know. Otherwise half-duplex is
    /// one load per receiver and the strongest interferer a walk over the
    /// receiver's own interference list (not over the overlapping
    /// transmitters: a large mesh has dozens of those on the air, most of
    /// them nowhere near this receiver). Same receivers, same counter
    /// increments, and — critically — the same RNG draws in the same
    /// order as a scan of every retained transmission per receiver.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not on the air: never begun, or the clock has
    /// passed its end (see [`Medium::prune`]).
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_reception_into(
        &mut self,
        id: u64,
        chan: &dyn ChannelModel,
        cfg: &SimConfig,
        rng: &mut impl Rng,
        collisions: &mut u64,
        captures: &mut u64,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let f = self
            .air
            .iter()
            .find(|t| t.id == id)
            .expect("evaluating a transmission that is not on the air")
            .clone();
        let now = f.end;
        self.generation += 1;
        let generation = self.generation;
        let ended_during = self.history.iter().rev().take_while(|h| h.end > f.start);
        // Did anything else occupy the air during the frame?
        let mut contended = false;
        for t in self.air.iter().chain(ended_during) {
            if t.id != f.id && overlaps(t, &f) {
                contended = true;
                if let Some(stamp) = self.stamp.get_mut(t.tx.0) {
                    *stamp = generation;
                }
            }
        }
        let transmitted = |node: usize| self.stamp.get(node) == Some(&generation);
        // Walk the transmitter's reception-candidate list in ascending
        // node order — the order the per-receiver draws are made in.
        // Nodes not on the list have `p = 0` at every instant and touch
        // no randomness.
        let candidates = &self.reach[f.tx.0];
        chan.delivery_row(f.tx, candidates, now, &mut self.deliveries);
        debug_assert_eq!(self.deliveries.len(), candidates.len());
        for (r, &p) in candidates.iter().map(|&r| r as usize).zip(&self.deliveries) {
            if r == f.tx.0 || p <= 0.0 {
                continue;
            }
            let strongest: f64 = if contended {
                // Half-duplex: r transmitting during any part of f's airtime.
                if transmitted(r) {
                    continue;
                }
                // Strongest overlapping interferer at r.
                self.interfere[r]
                    .iter()
                    .filter(|&&a| transmitted(a as usize))
                    .map(|&a| chan.delivery(NodeId(a as usize), NodeId(r), now).max(0.05))
                    .fold(0.0, f64::max)
            } else {
                0.0
            };
            if strongest > 0.0 {
                *collisions += 1;
                if p < cfg.capture_ratio * strongest {
                    continue; // destroyed
                }
                *captures += 1;
            }
            if rng.gen::<f64>() < p {
                out.push(NodeId(r));
            }
        }
    }

    /// Total µs of overlap between `[start, end)` and other nodes'
    /// transmissions currently on the air — the spatial-reuse indicator.
    /// `start` is the caller's current instant (see [`Medium::begin`]).
    pub fn overlap_with(&self, node: NodeId, start: Time, end: Time) -> Time {
        debug_assert!(start >= self.clock, "queries do not look back in time");
        self.air
            .iter()
            .filter(|t| t.tx != node && t.start < end && start < t.end)
            .map(|t| t.end.min(end) - t.start.max(start))
            .sum()
    }

    /// End time of `node`'s own in-air transmission, if any (half-duplex
    /// guard for the MAC). `now` is the caller's current instant (see
    /// [`Medium::begin`]).
    pub fn own_tx_until(&self, node: NodeId, now: Time) -> Option<Time> {
        debug_assert!(now >= self.clock, "queries do not look back in time");
        self.own_end.get(node.0).copied().filter(|&end| end > now)
    }
}

/// `ends[node] = max(ends[node], end)`.
fn raise(ends: &mut [Time], node: usize, end: Time) {
    if let Some(e) = ends.get_mut(node) {
        *e = (*e).max(end);
    }
}

#[inline]
fn overlaps(a: &Transmission, b: &Transmission) -> bool {
    a.start < b.end && b.start < a.end
}

/// Is `b` in `rows[a]` exactly when `a` is in `rows[b]`?
fn is_symmetric(rows: &[Vec<u32>]) -> bool {
    rows.iter().enumerate().all(|(a, row)| {
        row.iter().all(|&b| {
            rows.get(b as usize)
                .is_some_and(|back| back.binary_search(&(a as u32)).is_ok())
        })
    })
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::channel::ChannelSpec;
    use mesh_topology::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    /// The static channel over `t`, as the engine would build it.
    fn chan(t: &Topology) -> Box<dyn ChannelModel> {
        ChannelSpec::Static.build(t, 0)
    }

    impl Medium {
        /// [`Medium::evaluate_reception_into`] returning a fresh vector.
        fn evaluate_reception(
            &mut self,
            id: u64,
            chan: &dyn ChannelModel,
            cfg: &SimConfig,
            rng: &mut impl Rng,
            collisions: &mut u64,
            captures: &mut u64,
        ) -> Vec<NodeId> {
            let mut out = Vec::new();
            self.evaluate_reception_into(id, chan, cfg, rng, collisions, captures, &mut out);
            out
        }
    }

    fn line5() -> Topology {
        // 30 m spacing: adjacent nodes linked, carrier sense 42 m reaches
        // one hop but not two.
        generate::line(4, 0.9, 0.0, 30.0)
    }

    #[test]
    fn sense_relations_follow_links_and_range() {
        let t = line5();
        let ch = chan(&t);
        let m = Medium::new(&t, &cfg(), ch.as_ref());
        assert!(m.senses(NodeId(0), NodeId(1))); // linked
        assert!(!m.senses(NodeId(0), NodeId(2))); // 60 m: no link, out of CS range
        assert!(!m.senses(NodeId(0), NodeId(4))); // 120 m
        assert!(m.interferes(NodeId(1), NodeId(0)));
    }

    #[test]
    fn busy_only_within_sense_range() {
        let t = line5();
        let ch = chan(&t);
        let mut m = Medium::new(&t, &cfg(), ch.as_ref());
        m.begin(Transmission {
            id: 1,
            tx: NodeId(0),
            start: 0,
            end: 1000,
        });
        assert!(m.is_busy(NodeId(1), 500));
        assert!(!m.is_busy(NodeId(2), 500), "spatial reuse: node 2 clear");
        assert!(!m.is_busy(NodeId(3), 500));
        assert!(!m.is_busy(NodeId(1), 1000), "ends at end time");
        // The transmitter itself is not 'busy' from sensing its own frame.
        assert!(!m.is_busy(NodeId(0), 500));
    }

    #[test]
    fn reception_is_bernoulli_at_link_probability() {
        let t = generate::line(1, 0.7, 0.0, 20.0);
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut got = 0;
        let trials = 4000;
        let (mut col, mut cap) = (0, 0);
        for i in 0..trials {
            let mut m = Medium::new(&t, &cfg(), ch.as_ref());
            m.begin(Transmission {
                id: i,
                tx: NodeId(0),
                start: 0,
                end: 100,
            });
            let rx = m.evaluate_reception(i, ch.as_ref(), &cfg(), &mut rng, &mut col, &mut cap);
            got += rx.len();
        }
        let rate = got as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.03, "empirical delivery {rate}");
        assert_eq!(col, 0);
    }

    #[test]
    fn overlapping_equal_strength_frames_collide() {
        // Nodes 0 and 2 both linked to 1 with equal probability: no capture.
        let t = mesh_topology::Topology::from_matrix(
            "y",
            vec![
                vec![0.0, 0.9, 0.0],
                vec![0.9, 0.0, 0.9],
                vec![0.0, 0.9, 0.0],
            ],
        );
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut m = Medium::new(&t, &cfg(), ch.as_ref());
        m.begin(Transmission {
            id: 1,
            tx: NodeId(0),
            start: 0,
            end: 100,
        });
        m.begin(Transmission {
            id: 2,
            tx: NodeId(2),
            start: 50,
            end: 150,
        });
        let (mut col, mut cap) = (0, 0);
        let rx1 = m.evaluate_reception(1, ch.as_ref(), &cfg(), &mut rng, &mut col, &mut cap);
        let rx2 = m.evaluate_reception(2, ch.as_ref(), &cfg(), &mut rng, &mut col, &mut cap);
        assert!(rx1.is_empty(), "frame 1 should be destroyed at node 1");
        assert!(rx2.is_empty(), "frame 2 should be destroyed at node 1");
        assert_eq!(col, 2);
        assert_eq!(cap, 0);
    }

    #[test]
    fn capture_lets_much_stronger_frame_survive() {
        // Node 1 hears node 0 at 0.95 and node 2 at 0.2: 0.95 > 1.8 × 0.2,
        // so node 0's frame captures.
        let t = mesh_topology::Topology::from_matrix(
            "cap",
            vec![
                vec![0.0, 0.95, 0.0],
                vec![0.95, 0.0, 0.2],
                vec![0.0, 0.2, 0.0],
            ],
        );
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut wins = 0;
        let trials = 2000;
        for i in 0..trials {
            let mut m = Medium::new(&t, &cfg(), ch.as_ref());
            m.begin(Transmission {
                id: 2 * i,
                tx: NodeId(0),
                start: 0,
                end: 100,
            });
            m.begin(Transmission {
                id: 2 * i + 1,
                tx: NodeId(2),
                start: 10,
                end: 110,
            });
            let (mut col, mut cap) = (0, 0);
            let rx = m.evaluate_reception(2 * i, ch.as_ref(), &cfg(), &mut rng, &mut col, &mut cap);
            if !rx.is_empty() {
                wins += 1;
                assert_eq!(cap, 1);
            }
        }
        let rate = wins as f64 / trials as f64;
        assert!((rate - 0.95).abs() < 0.03, "capture rate {rate}");
    }

    #[test]
    fn half_duplex_blocks_reception() {
        let t = generate::line(1, 1.0, 0.0, 20.0);
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut m = Medium::new(&t, &cfg(), ch.as_ref());
        // Node 1 transmits while node 0's frame is on the air.
        m.begin(Transmission {
            id: 1,
            tx: NodeId(0),
            start: 0,
            end: 100,
        });
        m.begin(Transmission {
            id: 2,
            tx: NodeId(1),
            start: 20,
            end: 120,
        });
        let (mut col, mut cap) = (0, 0);
        let rx = m.evaluate_reception(1, ch.as_ref(), &cfg(), &mut rng, &mut col, &mut cap);
        assert!(rx.is_empty(), "half-duplex node 1 must not receive");
    }

    #[test]
    fn non_overlapping_frames_do_not_collide() {
        let t = generate::line(1, 1.0, 0.0, 20.0);
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut m = Medium::new(&t, &cfg(), ch.as_ref());
        m.begin(Transmission {
            id: 1,
            tx: NodeId(0),
            start: 0,
            end: 100,
        });
        m.begin(Transmission {
            id: 2,
            tx: NodeId(0),
            start: 100,
            end: 200,
        });
        let (mut col, mut cap) = (0, 0);
        let rx = m.evaluate_reception(1, ch.as_ref(), &cfg(), &mut rng, &mut col, &mut cap);
        assert_eq!(rx, vec![NodeId(1)]);
        assert_eq!(col, 0);
    }

    #[test]
    fn shadowing_channel_extends_sense_and_interference() {
        // Nodes 0 and 2 sit 60 m apart: no matrix link, outside the fixed
        // carrier-sense (42 m) and interference (38 m) ranges. A shadowing
        // channel can still deliver at that distance (+3σ shadow), so the
        // pair must sense and interfere — otherwise a link carrying real
        // frames could never collide or defer.
        let t = line5();
        let static_ch = chan(&t);
        let m = Medium::new(&t, &cfg(), static_ch.as_ref());
        assert!(!m.senses(NodeId(0), NodeId(2)), "static: out of range");

        let shadow = ChannelSpec::Shadowing {
            path_loss_exp: 3.0,
            sigma_db: 8.0,
            midpoint_m: 40.0,
            epoch_ms: 100,
        }
        .build(&t, 0);
        assert!(shadow.may_reach(NodeId(0), NodeId(2)));
        let m = Medium::new(&t, &cfg(), shadow.as_ref());
        assert!(m.senses(NodeId(0), NodeId(2)));
        assert!(m.interferes(NodeId(0), NodeId(2)));
    }

    #[test]
    fn sparse_relations_match_dense_scan() {
        // The neighbor-list relations must equal the historical O(n²)
        // formula for every pair, for matrix-backed and geometry-driven
        // channels alike.
        let t = generate::testbed(1);
        let shadow = ChannelSpec::Shadowing {
            path_loss_exp: 3.0,
            sigma_db: 8.0,
            midpoint_m: 40.0,
            epoch_ms: 100,
        }
        .build(&t, 0);
        let cfg = cfg();
        for ch in [chan(&t), shadow] {
            let m = Medium::new(&t, &cfg, ch.as_ref());
            let pos = t.positions().expect("testbed has positions");
            for a in t.nodes() {
                assert!(!m.senses(a, a));
                assert!(!m.interferes(a, a));
                for b in t.nodes() {
                    if a == b {
                        continue;
                    }
                    let linked = t.delivery(a, b) > 0.0
                        || t.delivery(b, a) > 0.0
                        || ch.may_reach(a, b)
                        || ch.may_reach(b, a);
                    let d = pos[a.0].distance(&pos[b.0], 10.0);
                    assert_eq!(
                        m.senses(a, b),
                        linked || d <= cfg.carrier_sense_range,
                        "sense {a} -> {b}"
                    );
                    assert_eq!(
                        m.interferes(a, b),
                        linked || d <= cfg.interference_range,
                        "interfere {a} -> {b}"
                    );
                }
            }
        }
    }

    /// A channel outside the matrix, as the [`ChannelModel`] contract asks
    /// of one: it carries the node positions and bounds its reach.
    struct Ranged {
        pos: Vec<mesh_topology::Position>,
        reach_m: f64,
    }
    impl ChannelModel for Ranged {
        fn delivery(&self, tx: NodeId, rx: NodeId, _now: Time) -> f64 {
            if self.may_reach(tx, rx) {
                0.3
            } else {
                0.0
            }
        }
        fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool {
            tx != rx && self.pos[tx.0].distance(&self.pos[rx.0], FLOOR_HEIGHT_M) <= self.reach_m
        }
        fn reach_hint(&self) -> ReachHint {
            ReachHint::WithinDistance(self.reach_m)
        }
    }

    #[test]
    fn distance_bounded_channel_reaches_pairs_the_matrix_lacks() {
        let t = line5();
        let ranged = Ranged {
            pos: t.positions().expect("line has positions").to_vec(),
            reach_m: 100.0,
        };
        let mut m = Medium::new(&t, &cfg(), &ranged);
        // 90 m: no matrix link, outside both fixed ranges, inside the
        // channel's reach. 120 m: outside that too.
        assert!(m.senses(NodeId(0), NodeId(3)));
        assert!(m.interferes(NodeId(3), NodeId(0)));
        assert!(!m.senses(NodeId(0), NodeId(4)));
        // Reception considers every node the channel can reach, and no
        // other: over enough trials node 3 decodes, node 4 never does.
        m.begin(Transmission {
            id: 1,
            tx: NodeId(0),
            start: 0,
            end: 100,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let (mut col, mut cap) = (0, 0);
        let mut heard = [false; 5];
        for _ in 0..100 {
            for r in m.evaluate_reception(1, &ranged, &cfg(), &mut rng, &mut col, &mut cap) {
                heard[r.0] = true;
            }
        }
        assert_eq!(heard, [false, true, true, true, false]);
    }

    #[test]
    fn capture_ratio_boundary_is_inclusive() {
        // Destruction requires p < ratio × strongest, so a frame sitting
        // exactly on the boundary survives (and counts as a capture).
        let t = mesh_topology::Topology::from_matrix(
            "edge",
            vec![
                vec![0.0, 1.0, 0.0],
                vec![1.0, 0.0, 0.5],
                vec![0.0, 0.5, 0.0],
            ],
        );
        let ch = chan(&t);
        let mut cfg = cfg();
        cfg.capture_ratio = 2.0; // threshold = 2.0 × 0.5 = 1.0 == p
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut m = Medium::new(&t, &cfg, ch.as_ref());
        m.begin(Transmission {
            id: 1,
            tx: NodeId(0),
            start: 0,
            end: 100,
        });
        m.begin(Transmission {
            id: 2,
            tx: NodeId(2),
            start: 10,
            end: 110,
        });
        let (mut col, mut cap) = (0, 0);
        let rx = m.evaluate_reception(1, ch.as_ref(), &cfg, &mut rng, &mut col, &mut cap);
        assert_eq!(rx, vec![NodeId(1)], "p == ratio × strongest survives");
        assert_eq!((col, cap), (1, 1));

        // One hair past the boundary destroys the frame.
        cfg.capture_ratio = 2.0 + 1e-9;
        let (mut col, mut cap) = (0, 0);
        let rx = m.evaluate_reception(1, ch.as_ref(), &cfg, &mut rng, &mut col, &mut cap);
        assert!(rx.is_empty(), "p < ratio × strongest is destroyed");
        assert_eq!((col, cap), (1, 0));
    }

    #[test]
    fn one_microsecond_of_overlap_collides() {
        // Intervals are half-open: [0, 100) and [99, 199) share 1 µs.
        let t = mesh_topology::Topology::from_matrix(
            "y",
            vec![
                vec![0.0, 0.9, 0.0],
                vec![0.9, 0.0, 0.9],
                vec![0.0, 0.9, 0.0],
            ],
        );
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut m = Medium::new(&t, &cfg(), ch.as_ref());
        m.begin(Transmission {
            id: 1,
            tx: NodeId(0),
            start: 0,
            end: 100,
        });
        m.begin(Transmission {
            id: 2,
            tx: NodeId(2),
            start: 99,
            end: 199,
        });
        let (mut col, mut cap) = (0, 0);
        let rx = m.evaluate_reception(1, ch.as_ref(), &cfg(), &mut rng, &mut col, &mut cap);
        assert!(rx.is_empty(), "equal-strength 1 µs overlap destroys both");
        assert_eq!(col, 1);
    }

    #[test]
    fn half_duplex_clears_when_own_tx_only_touches_the_frame_edge() {
        // Node 1's own transmission ends exactly when node 0's frame
        // starts: half-open intervals do not overlap, so node 1 receives.
        let t = generate::line(1, 1.0, 0.0, 20.0);
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut m = Medium::new(&t, &cfg(), ch.as_ref());
        m.begin(Transmission {
            id: 1,
            tx: NodeId(1),
            start: 0,
            end: 100,
        });
        m.begin(Transmission {
            id: 2,
            tx: NodeId(0),
            start: 100,
            end: 200,
        });
        let (mut col, mut cap) = (0, 0);
        let rx = m.evaluate_reception(2, ch.as_ref(), &cfg(), &mut rng, &mut col, &mut cap);
        assert_eq!(rx, vec![NodeId(1)]);
        assert_eq!(col, 0);
    }

    #[test]
    fn history_keeps_only_what_a_frame_on_the_air_can_have_overlapped() {
        let t = line5();
        let ch = chan(&t);
        let mut m = Medium::new(&t, &cfg(), ch.as_ref());
        let mut id = 0;
        let mut begin = |m: &mut Medium, tx: usize, start: Time, end: Time| {
            id += 1;
            m.begin(Transmission {
                id,
                tx: NodeId(tx),
                start,
                end,
            });
        };
        let ends = |m: &Medium| m.history.iter().map(|h| h.end).collect::<Vec<_>>();
        begin(&mut m, 0, 0, 100);
        begin(&mut m, 2, 50, 300);
        begin(&mut m, 4, 150, 250);
        // [0, 100) ended, but [50, 300) is on the air and overlapped it.
        assert_eq!((m.air.len(), ends(&m)), (2, vec![100]));
        m.prune(300);
        // A frame ending exactly at the clock still awaits its verdict.
        assert_eq!((m.air.len(), ends(&m)), (1, vec![100, 250]));
        m.prune(301);
        assert_eq!(
            (m.air.len(), ends(&m)),
            (0, vec![]),
            "idle air: nothing kept"
        );
        begin(&mut m, 0, 400, 500);
        begin(&mut m, 2, 450, 600);
        begin(&mut m, 4, 550, 700);
        assert_eq!((m.air.len(), ends(&m)), (2, vec![500]));
        m.prune(601);
        // [400, 500) ended before [550, 700) began; [450, 600) did not.
        assert_eq!((m.air.len(), ends(&m)), (1, vec![600]));
    }
}
