//! The shared wireless medium: who senses whom, who interferes at whom,
//! and which receivers decode a finished transmission.
//!
//! Sensing and interference relations are precomputed from the topology:
//! any directed link (either direction) is both sensable and interfering;
//! when node positions are known, the carrier-sense and interference
//! *ranges* extend those relations beyond decodable links (real radios
//! defer to, and are jammed by, signals too weak to decode).
//!
//! All three relations are held as **CSR rows** rather than `n × n`
//! matrices: one offsets array and one id array per relation, each row
//! sorted by node id — so a 10k-node city mesh costs O(nodes +
//! pairs-in-range), not O(n²), and a handful of allocations, to build
//! and to query. The linked relation is the merge of the topology's
//! sorted out-row and in-row of each node. The range relations come from
//! one pass over a spatial index over node positions, which yields each
//! node's pairs unsorted; they are then counted and filled by column, and
//! filling column by column in ascending node order sorts every row.
//! Reception evaluation walks the transmitter's linked-candidate row
//! instead of every node: a channel delivers only on the topology's links
//! (the [`Channel`] contract), so a node outside the row has
//! `p = 0` and consumes no randomness.
//!
//! Bookkeeping costs a frame's neighbourhood, not what is on the air
//! city-wide. Frames stay in an **on-air set** until they are judged, once
//! each; a verdict takes its frame out of it by transmission id in O(1),
//! and no verdict walks it. Whether a node
//! transmitted during a frame is read from that node's own **marks**,
//! and carrier sense from the two latest ends among the frames a node
//! senses, both kept in O(1) by [`Medium::begin`]. This rests on the
//! engine's clock: every frame begins at the current instant and is
//! judged at its end, so `begin`, `prune`, the verdicts and the `now` of
//! every query never go back in time.
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
//!    probability as reported by the run's [`Channel`], independently
//!    per receiver (the §5.3.1 model when the channel is static).

#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "transmission ids are issued by this module and resolved before eviction; per-node vectors are sized to the topology"
)]

use crate::channel::Channel;
use crate::{SimConfig, Time};
use mesh_topology::spatial::CellGrid;
use mesh_topology::{streams, NodeId, Position, Topology};
use rand::Rng;
use std::collections::VecDeque;

/// Vertical meters per floor in 3D range computations.
pub const FLOOR_HEIGHT_M: f64 = 10.0;

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

/// Rows of node ids, flat: row `a` is `ids[offsets[a]..offsets[a + 1]]`.
#[derive(Clone, Debug)]
struct Rows {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl Rows {
    /// No rows yet, room for `ids` ids.
    fn with_capacity(ids: usize) -> Self {
        Rows {
            offsets: vec![0],
            ids: Vec::with_capacity(ids),
        }
    }

    /// Ends the row being pushed.
    fn end_row(&mut self) {
        self.offsets.push(self.ids.len());
    }

    /// Row `a`; empty past the last row.
    #[inline]
    fn row(&self, a: usize) -> &[u32] {
        match self.offsets.get(a..a + 2) {
            Some(&[start, end]) => self.ids.get(start..end).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Is `b` in row `a`? Rows must be sorted.
    #[inline]
    fn contains(&self, a: usize, b: usize) -> bool {
        self.row(a).binary_search(&(b as u32)).is_ok()
    }

    /// The transpose over `n` nodes: row `a` lists every `b` whose row
    /// holds `a`, ascending. Counted, then filled column by column.
    fn transpose(&self, n: usize) -> Rows {
        let mut counts = vec![0usize; n];
        for &a in &self.ids {
            counts[a as usize] += 1;
        }
        let offsets: Vec<usize> = std::iter::once(0)
            .chain(counts.iter().scan(0, |total, &c| {
                *total += c;
                Some(*total)
            }))
            .collect();
        let mut fill = offsets.clone();
        let mut ids = vec![0; self.ids.len()];
        for b in 0..n {
            for &a in self.row(b) {
                let slot = &mut fill[a as usize];
                ids[*slot] = b as u32;
                *slot += 1;
            }
        }
        Rows { offsets, ids }
    }
}

/// One node's frames, added in begin order at non-decreasing starts: the
/// latest end and begin order (from 1) among them, and among those begun
/// before the latest start.
#[derive(Clone, Copy, Debug, Default)]
struct Marks {
    end: Time,
    last: u64,
    last_start: Time,
    earlier_end: Time,
    earlier: u64,
}

impl Marks {
    fn add(&mut self, order: u64, start: Time, end: Time) {
        if start > self.last_start {
            (self.earlier, self.earlier_end, self.last_start) = (self.last, self.end, start);
        }
        (self.last, self.end) = (order, self.end.max(end));
    }

    /// Did one of the frames begun before `t`, a time no earlier than the
    /// latest start, end after `start`?
    fn ended_after(&self, start: Time, t: Time) -> bool {
        self.end > start && (self.last_start < t || self.earlier_end > start)
    }

    /// The latest begin order among the frames begun before `t`.
    fn last_before(&self, t: Time) -> u64 {
        if self.last_start < t {
            self.last
        } else {
            self.earlier
        }
    }
}

/// The latest end among a set of frames, the begin order of one that has
/// it, and the latest end among the others.
#[derive(Clone, Copy, Debug, Default)]
struct Heard {
    order: u64,
    end: Time,
    runner_up: Time,
}

impl Heard {
    fn add(&mut self, order: u64, end: Time) {
        if end >= self.end {
            (self.order, self.end, self.runner_up) = (order, end, self.end);
        } else {
            self.runner_up = self.runner_up.max(end);
        }
    }

    /// Could a frame of the set other than `f` have overlapped it?
    fn besides(&self, f: &OnAir) -> bool {
        let end = if self.order == f.order {
            self.runner_up
        } else {
            self.end
        };
        end > f.t.start
    }
}

/// A frame in the on-air set: its begin order (from 1), and whether a
/// frame of its transmitter's was on the air when it began.
#[derive(Clone, Debug)]
struct OnAir {
    t: Transmission,
    order: u64,
    tx_busy: bool,
}

/// Precomputed radio relations plus the set of in-flight transmissions.
#[derive(Clone, Debug)]
#[must_use]
pub struct Medium {
    n: usize,
    /// Row `a`: sorted ids whose MACs defer to a transmission by `a`.
    sense: Rows,
    /// Row `a`: sorted ids at which a transmission by `a` collides with
    /// arriving frames.
    interfere: Rows,
    /// Row `t`: sorted reception candidates for transmitter `t` — every
    /// node linked to `t` in either direction, a superset of the nodes the
    /// channel can deliver `t`'s frames to.
    reach: Rows,
    /// Frames begun and not yet judged, by transmission id, in slot
    /// `id − first`; judged slots empty and leave from the front, as in
    /// the engine's `in_flight` ring.
    air: VecDeque<Option<OnAir>>,
    /// Each `air` slot's frame end and transmitter, for
    /// [`Medium::overlap_with`]; an emptied slot's frame ended by the clock.
    ends: VecDeque<(Time, u32)>,
    /// The id in `air`'s first slot.
    first: u64,
    /// Latest instant seen by `begin`, `prune` or a verdict.
    clock: Time,
    /// Frames begun: the latest one's begin order.
    frames: u64,
    /// `heard[b]`: over the frames begun by nodes `b` senses.
    heard: Vec<Heard>,
    /// Every node senses the nodes that interfere at it (interference
    /// range within carrier-sense range), so `heard` covers those too.
    interferers_heard: bool,
    /// `marks[a]`: over the frames `a` began.
    marks: Vec<Marks>,
    /// Over every frame begun.
    all: Heard,
    /// Scratch for the judged frame's delivery probabilities, parallel to
    /// its transmitter's `reach` row.
    deliveries: Vec<f64>,
}

impl Medium {
    /// Builds the medium for `topo` under `cfg`.
    ///
    /// `_chan` is unused: every channel delivers only on the topology's
    /// links, so the links alone give the relations. The argument stays
    /// because `ledger/benches/probes/mesh_sim.rs` calls this form, and
    /// `ledger/` moves only in a `benchmark` PR (ROADMAP item 1 drops it).
    pub fn new(topo: &Topology, cfg: &SimConfig, _chan: &Channel) -> Self {
        let n = topo.n();
        // The symmetric "linked" relation: some direction of the pair is
        // a topology link. It holds every link out of a transmitter, so it
        // serves as the reception candidates unchanged.
        let mut reach = Rows::with_capacity(2 * topo.link_count());
        for a in topo.nodes() {
            let ids = |(b, _): (NodeId, f64)| b.0 as u32;
            let out = topo.neighbors_out(a).map(ids);
            push_union(&mut reach.ids, out, topo.neighbors_in(a).map(ids));
            reach.end_row();
        }
        // Range-based extension from node positions: pairs within
        // carrier-sense range defer, pairs within interference range jam,
        // decodable or not.
        let r_max = cfg.carrier_sense_range.max(cfg.interference_range);
        let (sense, interfere, interferers_heard) = match topo.positions() {
            Some(pos) if r_max > 0.0 => {
                let (sense, interfere) = in_range_or_linked(pos, &reach, cfg);
                let covered = cfg.interference_range <= cfg.carrier_sense_range;
                (sense.transpose(n), interfere.transpose(n), covered)
            }
            _ => (reach.clone(), reach.clone(), true),
        };
        // Reception looks interferers up from the receiver's side, which
        // is the same relation only because every rule above adds a pair
        // in both directions.
        debug_assert!(is_symmetric(&interfere), "interference is mutual");
        Medium {
            n,
            sense,
            interfere,
            reach,
            air: VecDeque::new(),
            ends: VecDeque::new(),
            first: 0,
            clock: 0,
            frames: 0,
            heard: vec![Heard::default(); n],
            interferers_heard,
            marks: vec![Marks::default(); n],
            all: Heard::default(),
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
        self.sense.contains(a.0, b.0)
    }

    /// Does a transmission by `a` interfere at receiver `r`?
    #[inline]
    pub fn interferes(&self, a: NodeId, r: NodeId) -> bool {
        self.interfere.contains(a.0, r.0)
    }

    /// The nodes a frame from `tx` is judged at, ascending: every node
    /// linked to `tx` in either direction.
    pub fn reception_candidates(&self, tx: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.reach.row(tx.0).iter().map(|&r| NodeId(r as usize))
    }

    /// Registers a transmission starting now: `t.start` is the caller's
    /// current instant, no earlier than any previous `begin`, `prune` or
    /// verdict, and `t.end` is later.
    ///
    /// # Panics
    ///
    /// Panics when `t.id` is not one more than the last id begun, as the
    /// engine issues them, while frames of that run are on the air.
    pub fn begin(&mut self, t: Transmission) {
        debug_assert!(t.start < t.end, "a frame takes airtime");
        debug_assert!(t.start >= self.clock, "frames begin at the clock");
        self.prune(t.start);
        self.frames += 1;
        let (order, own) = (self.frames, &mut self.marks[t.tx.0]);
        let tx_busy = own.end > t.start;
        own.add(order, t.start, t.end);
        self.all.add(order, t.end);
        for &b in self.sense.row(t.tx.0) {
            if let Some(h) = self.heard.get_mut(b as usize) {
                h.add(order, t.end);
            }
        }
        if self.air.is_empty() {
            self.first = t.id;
        }
        let next = self.first + self.air.len() as u64;
        assert_eq!(t.id, next, "transmission ids rise by one");
        self.ends.push_back((t.end, t.tx.0 as u32));
        self.air.push_back(Some(OnAir { t, order, tx_busy }));
    }

    /// Takes frame `id` out of the on-air ring, if it is there; emptied
    /// slots leave from the front.
    fn take(&mut self, id: u64) -> Option<OnAir> {
        let slot = usize::try_from(id.checked_sub(self.first)?).ok()?;
        let clock = self.clock;
        let on_air = self.air.get_mut(slot)?;
        let f = on_air.take_if(|f| f.t.end >= clock)?;
        while let Some(None) = self.air.front() {
            self.air.pop_front();
            self.ends.pop_front();
            self.first += 1;
        }
        Some(f)
    }

    /// Advances the clock to `now`. [`Medium::begin`] and the verdicts do
    /// this themselves.
    pub fn prune(&mut self, now: Time) {
        self.clock = self.clock.max(now);
    }

    /// Latest end time among transmissions currently on the air that
    /// `node` senses; `None` if the medium is idle at `node`. `now` is the
    /// caller's current instant (see [`Medium::begin`]).
    pub fn busy_until(&self, node: NodeId, now: Time) -> Option<Time> {
        debug_assert!(now >= self.clock, "queries do not look back in time");
        let end = self.heard.get(node.0).map(|h| h.end);
        end.filter(|&end| end > now)
    }

    /// True when `node` senses an ongoing transmission.
    pub fn is_busy(&self, node: NodeId, now: Time) -> bool {
        self.busy_until(node, now).is_some()
    }

    /// Evaluates which nodes decode transmission `id`, at its end: the
    /// clock moves there.
    ///
    /// Delivery probabilities — the frame's own and each interferer's in
    /// the capture rule — are the channel's instantaneous values at
    /// the frame's end time. Each surviving receiver with `p > 0` gets one
    /// verdict from `rng`, in candidate order: [`streams::bernoulli`],
    /// which reads the word `rng.gen::<f64>() < p` would and gives its
    /// answer, so the stream and the receivers are what that draw gave;
    /// the verdict sets the receiver list's length instead of branching.
    /// `collisions`/`captures` counters are incremented for the stats
    /// module.
    ///
    /// The receiver set is written into a caller-supplied vector (cleared
    /// first), so the engine's hot path reuses one allocation per run
    /// instead of one per transmission. The frame's delivery
    /// probabilities come from one [`Channel::delivery_row`] call
    /// over the transmitter's candidate list. A frame with the air to
    /// itself has no half-duplex-blocked or interfered receiver. Otherwise
    /// half-duplex is the receiver's marks, and the strongest interferer a
    /// walk over the receiver's interference list asking each node's marks
    /// — skipped when nothing the receiver senses can have overlapped. Same
    /// receivers, counters and RNG draws, in the same order, as a scan of
    /// every transmission per receiver. Each frame is judged once.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not on the air: never begun, already judged, or
    /// the clock has passed its end.
    #[expect(
        clippy::too_many_arguments,
        reason = "the engine's per-frame call: counters and the receiver list are its own scratch, passed in to keep the hot path allocation-free"
    )]
    pub fn evaluate_reception_into(
        &mut self,
        id: u64,
        chan: &Channel,
        cfg: &SimConfig,
        rng: &mut impl Rng,
        collisions: &mut u64,
        captures: &mut u64,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let f = self
            .take(id)
            .expect("evaluating a transmission that is not on the air");
        self.prune(f.t.end);
        let (now, start) = (f.t.end, f.t.start);
        let contended = self.all.besides(&f);
        let tx = f.t.tx.0;
        // Did `node` transmit during `f`? If one of its frames begun before
        // `f.end` ended after `f.start`; `tx` if one was on the air when `f`
        // began, or began after it.
        let began_during = |m: &Marks| m.last_before(now) > f.order;
        let tx_overlapped = f.tx_busy || self.marks.get(tx).is_some_and(began_during);
        let transmitted = |node: usize| {
            if node == tx {
                tx_overlapped
            } else {
                let overlapped = |m: &Marks| m.ended_after(start, now);
                self.marks.get(node).is_some_and(overlapped)
            }
        };
        // Walk the transmitter's reception-candidate list in ascending
        // node order — the order the per-receiver draws are made in.
        // Nodes not on the list have `p = 0` at every instant and touch
        // no randomness.
        let candidates = self.reach.row(tx);
        chan.delivery_row(NodeId(tx), candidates, now, &mut self.deliveries);
        debug_assert_eq!(self.deliveries.len(), candidates.len());
        for (r, &p) in candidates.iter().map(|&r| r as usize).zip(&self.deliveries) {
            if r == tx || p <= 0.0 {
                continue;
            }
            let strongest: f64 = if contended {
                // Half-duplex: r transmitting during any part of f's airtime.
                if transmitted(r) {
                    continue;
                }
                // Strongest overlapping interferer at r: none when nothing
                // r senses, so none of its interferers, can have overlapped.
                let quiet = |h: &Heard| !h.besides(&f);
                if self.interferers_heard && self.heard.get(r).is_some_and(quiet) {
                    0.0
                } else {
                    self.interfere
                        .row(r)
                        .iter()
                        .filter(|&&a| transmitted(a as usize))
                        .map(|&a| chan.delivery(NodeId(a as usize), NodeId(r), now).max(0.05))
                        .fold(0.0, f64::max)
                }
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
            // The verdict is a value, not a branch: the receiver is written
            // either way, and the list's length keeps it or not.
            let kept = out.len() + usize::from(streams::bernoulli(rng, p));
            out.push(NodeId(r));
            out.truncate(kept);
        }
    }

    /// Total µs of overlap between `[start, end)` and other nodes'
    /// transmissions currently on the air — the spatial-reuse indicator.
    /// `start` is the caller's current instant (see [`Medium::begin`]), so
    /// every frame began by then, and a judged one has ended.
    pub fn overlap_with(&self, node: NodeId, start: Time, end: Time) -> Time {
        debug_assert!(start >= self.clock, "queries do not look back in time");
        let node = node.0 as u32;
        let others = self.ends.iter().filter(|&&(_, tx)| tx != node);
        others
            .map(|&(f_end, _)| f_end.min(end).saturating_sub(start))
            .sum()
    }

    /// End time of `node`'s own in-air transmission, if any (half-duplex
    /// guard for the MAC). `now` is the caller's current instant (see
    /// [`Medium::begin`]).
    pub fn own_tx_until(&self, node: NodeId, now: Time) -> Option<Time> {
        debug_assert!(now >= self.clock, "queries do not look back in time");
        let end = self.marks.get(node.0).map(|m| m.end);
        end.filter(|&end| end > now)
    }
}

/// Pushes the union of two ascending id sequences onto `out`, ascending.
fn push_union(out: &mut Vec<u32>, a: impl Iterator<Item = u32>, b: impl Iterator<Item = u32>) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    while let Some(id) = match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y < x => b.next(),
        (Some(x), Some(y)) if x == y => b.next().and(a.next()),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    } {
        out.push(id);
    }
}

/// The sense and interference rows of `positions` under `cfg`, unsorted:
/// every pair within range of each other, as one [`CellGrid`] pass finds
/// them, then the pairs in `linked` it did not keep.
fn in_range_or_linked(positions: &[Position], linked: &Rows, cfg: &SimConfig) -> (Rows, Rows) {
    let (sense_range, interference_range) = (cfg.carrier_sense_range, cfg.interference_range);
    let r_max = sense_range.max(interference_range);
    let grid = CellGrid::from_positions(positions, r_max);
    let mut sense = Rows::with_capacity(linked.ids.len());
    let mut interfere = Rows::with_capacity(linked.ids.len());
    for (a, pa) in positions.iter().enumerate() {
        let distance = |b: u32| {
            let pb = positions.get(b as usize);
            pb.map_or(f64::NAN, |pb| pa.distance(pb, FLOOR_HEIGHT_M))
        };
        grid.for_each_candidate(pa.x, pa.y, r_max, |b| {
            if b as usize != a {
                let d = distance(b);
                if d <= sense_range {
                    sense.ids.push(b);
                }
                if d <= interference_range {
                    interfere.ids.push(b);
                }
            }
        });
        for &b in linked.row(a) {
            let d = distance(b);
            let (sensed, interfered) = (d <= sense_range, d <= interference_range);
            if !sensed {
                sense.ids.push(b);
            }
            if !interfered {
                interfere.ids.push(b);
            }
        }
        sense.end_row();
        interfere.end_row();
    }
    (sense, interfere)
}

/// Is `b` in row `a` exactly when `a` is in row `b`?
fn is_symmetric(rows: &Rows) -> bool {
    let n = rows.offsets.len().saturating_sub(1);
    (0..n).all(|a| rows.row(a).iter().all(|&b| rows.contains(b as usize, a)))
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::channel::ChannelSpec;
    use mesh_topology::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// An `n`-node topology from `(from, to, p)` triples.
    fn topo(name: &str, n: usize, links: &[(usize, usize, f64)]) -> mesh_topology::Topology {
        let links = links
            .iter()
            .map(|&(from, to, delivery)| mesh_topology::Link {
                from: mesh_topology::NodeId(from),
                to: mesh_topology::NodeId(to),
                delivery,
            });
        mesh_topology::Topology::from_links(name, n, links.collect())
    }

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    /// The static channel over `t`, as the engine would build it.
    fn chan(t: &Topology) -> Channel {
        ChannelSpec::Static.build(t, 0)
    }

    impl Medium {
        /// The ends of the frames held, none of them judged yet, and the
        /// clock, for the retention tests.
        pub(crate) fn held(&self) -> (Vec<Time>, Time) {
            let air = self.air.iter().flatten().map(|f| f.t.end).collect();
            (air, self.clock)
        }

        /// [`Medium::evaluate_reception_into`] returning a fresh vector.
        fn evaluate_reception(
            &mut self,
            id: u64,
            chan: &Channel,
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
        let m = Medium::new(&t, &cfg(), &ch);
        assert!(m.senses(NodeId(0), NodeId(1))); // linked
        assert!(!m.senses(NodeId(0), NodeId(2))); // 60 m: no link, out of CS range
        assert!(!m.senses(NodeId(0), NodeId(4))); // 120 m
        assert!(m.interferes(NodeId(1), NodeId(0)));
    }

    #[test]
    fn busy_only_within_sense_range() {
        let t = line5();
        let ch = chan(&t);
        let mut m = Medium::new(&t, &cfg(), &ch);
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
            let mut m = Medium::new(&t, &cfg(), &ch);
            m.begin(Transmission {
                id: i,
                tx: NodeId(0),
                start: 0,
                end: 100,
            });
            let rx = m.evaluate_reception(i, &ch, &cfg(), &mut rng, &mut col, &mut cap);
            got += rx.len();
        }
        let rate = got as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.03, "empirical delivery {rate}");
        assert_eq!(col, 0);
    }

    #[test]
    fn overlapping_equal_strength_frames_collide() {
        // Nodes 0 and 2 both linked to 1 with equal probability: no capture.
        let t = topo(
            "y",
            3,
            &[(0, 1, 0.9), (1, 0, 0.9), (1, 2, 0.9), (2, 1, 0.9)],
        );
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut m = Medium::new(&t, &cfg(), &ch);
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
        let rx1 = m.evaluate_reception(1, &ch, &cfg(), &mut rng, &mut col, &mut cap);
        let rx2 = m.evaluate_reception(2, &ch, &cfg(), &mut rng, &mut col, &mut cap);
        assert!(rx1.is_empty(), "frame 1 should be destroyed at node 1");
        assert!(rx2.is_empty(), "frame 2 should be destroyed at node 1");
        assert_eq!(col, 2);
        assert_eq!(cap, 0);
    }

    #[test]
    fn capture_lets_much_stronger_frame_survive() {
        // Node 1 hears node 0 at 0.95 and node 2 at 0.2: 0.95 > 1.8 × 0.2,
        // so node 0's frame captures.
        let t = topo(
            "cap",
            3,
            &[(0, 1, 0.95), (1, 0, 0.95), (1, 2, 0.2), (2, 1, 0.2)],
        );
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut wins = 0;
        let trials = 2000;
        for i in 0..trials {
            let mut m = Medium::new(&t, &cfg(), &ch);
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
            let rx = m.evaluate_reception(2 * i, &ch, &cfg(), &mut rng, &mut col, &mut cap);
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
        let mut m = Medium::new(&t, &cfg(), &ch);
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
        let rx = m.evaluate_reception(1, &ch, &cfg(), &mut rng, &mut col, &mut cap);
        assert!(rx.is_empty(), "half-duplex node 1 must not receive");
    }

    #[test]
    fn non_overlapping_frames_do_not_collide() {
        let t = generate::line(1, 1.0, 0.0, 20.0);
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut m = Medium::new(&t, &cfg(), &ch);
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
        let rx = m.evaluate_reception(1, &ch, &cfg(), &mut rng, &mut col, &mut cap);
        assert_eq!(rx, vec![NodeId(1)]);
        assert_eq!(col, 0);
    }

    #[test]
    fn far_apart_linked_nodes_build_a_small_medium() {
        // Two linked nodes 1.4 million km apart, as `Topology::from_json`
        // accepts them. Cells of carrier-sense size over that extent were
        // once ~5.7e14 buckets, and the allocation aborted the process.
        let json = r#"{"name": "far", "n": 3,
            "links": [{"from": 0, "to": 1, "p": 0.5}, {"from": 1, "to": 0, "p": 0.5}],
            "positions": [{"x": 0, "y": 0, "floor": 0}, {"x": 1e9, "y": 1e9, "floor": 0},
                          {"x": 30, "y": 0, "floor": 0}]}"#;
        let t = Topology::from_json(json).expect("finite coordinates are accepted");
        let m = Medium::new(&t, &cfg(), &chan(&t));
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        assert!(m.senses(a, b) && m.interferes(b, a), "linked, however far");
        assert!(m.senses(a, c) && m.interferes(c, a), "30 m apart");
        assert!(!m.senses(b, c) && !m.interferes(c, b));
        assert_eq!(m.reception_candidates(a).collect::<Vec<_>>(), [b]);
    }

    #[test]
    fn capture_ratio_boundary_is_inclusive() {
        // Destruction requires p < ratio × strongest, so a frame sitting
        // exactly on the boundary survives (and counts as a capture).
        let t = topo(
            "edge",
            3,
            &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.5), (2, 1, 0.5)],
        );
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        // Frame 1 from node 0 under node 2's overlapping frame, judged
        // under a capture ratio of `ratio`.
        let mut judge = |ratio: f64| {
            let cfg = SimConfig {
                capture_ratio: ratio,
                ..cfg()
            };
            let mut m = Medium::new(&t, &cfg, &ch);
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
            let rx = m.evaluate_reception(1, &ch, &cfg, &mut rng, &mut col, &mut cap);
            (rx, col, cap)
        };
        // threshold = 2.0 × 0.5 = 1.0 == p
        let (rx, col, cap) = judge(2.0);
        assert_eq!(rx, vec![NodeId(1)], "p == ratio × strongest survives");
        assert_eq!((col, cap), (1, 1));

        // One hair past the boundary destroys the frame.
        let (rx, col, cap) = judge(2.0 + 1e-9);
        assert!(rx.is_empty(), "p < ratio × strongest is destroyed");
        assert_eq!((col, cap), (1, 0));
    }

    #[test]
    fn one_microsecond_of_overlap_collides() {
        // Intervals are half-open: [0, 100) and [99, 199) share 1 µs.
        let t = topo(
            "y",
            3,
            &[(0, 1, 0.9), (1, 0, 0.9), (1, 2, 0.9), (2, 1, 0.9)],
        );
        let ch = chan(&t);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut m = Medium::new(&t, &cfg(), &ch);
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
        let rx = m.evaluate_reception(1, &ch, &cfg(), &mut rng, &mut col, &mut cap);
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
        let mut m = Medium::new(&t, &cfg(), &ch);
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
        let rx = m.evaluate_reception(2, &ch, &cfg(), &mut rng, &mut col, &mut cap);
        assert_eq!(rx, vec![NodeId(1)]);
        assert_eq!(col, 0);
    }

    #[test]
    fn an_interferer_beyond_carrier_sense_still_collides() {
        // Node 3 is 60 m from node 1: inside a 65 m interference range,
        // outside a 25 m carrier-sense range, and not linked to it.
        let t = line5();
        let ch = chan(&t);
        let cfg = SimConfig {
            carrier_sense_range: 25.0,
            interference_range: 65.0,
            ..cfg()
        };
        let mut m = Medium::new(&t, &cfg, &ch);
        assert!(m.interferes(NodeId(3), NodeId(1)) && !m.senses(NodeId(3), NodeId(1)));
        for (id, tx) in [(1, 0), (2, 3)] {
            m.begin(Transmission {
                id,
                tx: NodeId(tx),
                start: 0,
                end: 100,
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let (mut col, mut cap) = (0, 0);
        m.evaluate_reception(1, &ch, &cfg, &mut rng, &mut col, &mut cap);
        // Node 1 hears node 0 at 0.9, well above 1.8 × the 0.05 floor.
        assert_eq!((col, cap), (1, 1));
    }

    #[test]
    fn the_on_air_set_holds_only_unjudged_frames() {
        let t = line5();
        let ch = chan(&t);
        let mut m = Medium::new(&t, &cfg(), &ch);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (mut col, mut cap) = (0, 0);
        let mut judge = |m: &mut Medium, id: u64| {
            m.evaluate_reception(id, &ch, &cfg(), &mut rng, &mut col, &mut cap);
        };
        for (id, tx, start, end) in [(1, 0, 0, 100), (2, 2, 50, 300)] {
            m.begin(Transmission {
                id,
                tx: NodeId(tx),
                start,
                end,
            });
        }
        assert_eq!(m.held(), (vec![100, 300], 50));
        // A verdict takes its frame and moves the clock to the frame's end.
        judge(&mut m, 1);
        assert_eq!(m.held(), (vec![300], 100));
        m.begin(Transmission {
            id: 3,
            tx: NodeId(4),
            start: 150,
            end: 250,
        });
        assert_eq!(m.held(), (vec![300, 250], 150), "the clock moved on");
        judge(&mut m, 3);
        m.prune(300);
        // A frame ending exactly at the clock still awaits its verdict.
        assert_eq!(m.held(), (vec![300], 300));
        judge(&mut m, 2);
        assert_eq!(m.held(), (vec![], 300), "idle air: nothing kept");
        m.prune(301);
        assert_eq!(m.held(), (vec![], 301));
    }
}
