//! Differential oracle for [`Medium`]'s indexed bookkeeping.
//!
//! [`Scan`] is the linear-scan medium this crate shipped before the
//! on-air set / history / latest-end marks: every retained transmission
//! is walked per query. Both are driven with the same engine-shaped
//! random sequences — frames begin at the clock, are judged at their end,
//! time never goes back — and must give identical answers, receiver
//! lists, counters and RNG state.

use mesh_sim::channel::{ChannelModel, ChannelSpec, ReachHint};
use mesh_sim::medium::Transmission;
use mesh_sim::{Medium, SimConfig, Time, MS};
use mesh_topology::{generate, NodeId, Position, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The reference model: the pre-index `Medium`, scan for scan. The radio
/// relations are read from a second, idle [`Medium`].
struct Scan {
    relations: Medium,
    active: Vec<Transmission>,
}

impl Scan {
    fn prune(&mut self, now: Time) {
        self.active.retain(|t| t.end + 100 * MS >= now);
    }

    fn busy_until(&self, node: NodeId, now: Time) -> Option<Time> {
        self.active
            .iter()
            .filter(|t| t.start <= now && now < t.end && t.tx != node)
            .filter(|t| self.relations.senses(t.tx, node))
            .map(|t| t.end)
            .max()
    }

    fn own_tx_until(&self, node: NodeId, now: Time) -> Option<Time> {
        self.active
            .iter()
            .filter(|t| t.tx == node && t.start <= now && now < t.end)
            .map(|t| t.end)
            .max()
    }

    fn overlap_with(&self, node: NodeId, start: Time, end: Time) -> Time {
        self.active
            .iter()
            .filter(|t| t.tx != node && t.start < end && start < t.end)
            .map(|t| t.end.min(end) - t.start.max(start))
            .sum()
    }

    /// The historical dense scan: every node in ascending order.
    fn evaluate(
        &self,
        id: u64,
        chan: &dyn ChannelModel,
        cfg: &SimConfig,
        rng: &mut impl Rng,
        collisions: &mut u64,
        captures: &mut u64,
    ) -> Vec<NodeId> {
        let f = self
            .active
            .iter()
            .find(|t| t.id == id)
            .expect("the driver judges frames it began");
        let now = f.end;
        let overlapping: Vec<&Transmission> = self
            .active
            .iter()
            .filter(|t| t.id != f.id && t.start < f.end && f.start < t.end)
            .collect();
        let mut out = Vec::new();
        for r in (0..self.relations.n()).map(NodeId) {
            if r == f.tx {
                continue;
            }
            let p = chan.delivery(f.tx, r, now);
            if p <= 0.0 {
                continue;
            }
            if overlapping.iter().any(|t| t.tx == r) {
                continue;
            }
            let strongest = overlapping
                .iter()
                .filter(|t| t.tx != r && self.relations.interferes(t.tx, r))
                .map(|t| chan.delivery(t.tx, r, now).max(0.05))
                .fold(0.0, f64::max);
            if strongest > 0.0 {
                *collisions += 1;
                if p < cfg.capture_ratio * strongest {
                    continue;
                }
                *captures += 1;
            }
            if rng.gen::<f64>() < p {
                out.push(r);
            }
        }
        out
    }
}

fn one_in(rng: &mut ChaCha8Rng, k: u32) -> bool {
    rng.gen_range(0..k) == 0
}

/// What a sequence exercised, so each scenario can assert it was not
/// vacuous.
#[derive(Default, Debug)]
struct Coverage {
    frames: u64,
    collisions: u64,
    captures: u64,
    half_duplex_overlaps: u64,
    same_instant_begins: u64,
    one_us_overlaps: u64,
}

/// One model's verdict stream: its RNG and the counters it bumps.
struct Verdicts {
    rng: ChaCha8Rng,
    collisions: u64,
    captures: u64,
}

impl Verdicts {
    fn new(seed: u64) -> Self {
        Verdicts {
            rng: ChaCha8Rng::seed_from_u64(seed),
            collisions: 0,
            captures: 0,
        }
    }
}

/// The indexed medium and the scan, fed the same calls.
struct Both {
    cfg: SimConfig,
    chan: Box<dyn ChannelModel>,
    medium: Medium,
    scan: Scan,
    indexed: Verdicts,
    scanned: Verdicts,
    /// Frames begun and not yet judged.
    pending: Vec<Transmission>,
    receivers: Vec<NodeId>,
}

impl Both {
    fn new(topo: &Topology, chan: Box<dyn ChannelModel>, seed: u64) -> Self {
        let cfg = SimConfig::default();
        let medium = Medium::new(topo, &cfg, chan.as_ref());
        Both {
            scan: Scan {
                relations: medium.clone(),
                active: Vec::new(),
            },
            medium,
            cfg,
            chan,
            indexed: Verdicts::new(seed),
            scanned: Verdicts::new(seed),
            pending: Vec::new(),
            receivers: Vec::new(),
        }
    }

    /// Judges what is pending, in order of end, and returns the clock.
    fn judge_all(&mut self) -> Time {
        let mut now = 0;
        while let Some(end) = self.next_end() {
            now = end;
            self.judge(now);
        }
        now
    }

    /// Same verdict streams on both sides when the run is over.
    fn assert_same_streams(&mut self) {
        let (a, b) = (&mut self.indexed, &mut self.scanned);
        assert_eq!(
            (a.collisions, a.captures, a.rng.gen::<u64>()),
            (b.collisions, b.captures, b.rng.gen::<u64>()),
            "counters and RNG state after the run"
        );
    }

    fn begin(&mut self, t: Transmission) {
        self.medium.begin(t.clone());
        self.scan.active.push(t.clone());
        self.pending.push(t);
    }

    fn prune(&mut self, now: Time) {
        self.medium.prune(now);
        self.scan.prune(now);
    }

    fn next_end(&self) -> Option<Time> {
        self.pending.iter().map(|t| t.end).min()
    }

    /// Carrier sense, half-duplex guard and airtime overlap at `node`.
    fn compare_queries(&self, node: NodeId, now: Time, air: Time) {
        let (m, s) = (&self.medium, &self.scan);
        let busy = s.busy_until(node, now);
        assert_eq!(m.busy_until(node, now), busy, "busy_until({node}, {now})");
        assert_eq!(m.is_busy(node, now), busy.is_some());
        assert_eq!(
            m.own_tx_until(node, now),
            s.own_tx_until(node, now),
            "own_tx_until({node}, {now})"
        );
        assert_eq!(
            m.overlap_with(node, now, now + air),
            s.overlap_with(node, now, now + air),
            "overlap_with({node}, {now}, +{air})"
        );
    }

    /// Judges every frame ending at `now` with both models.
    fn judge(&mut self, now: Time) {
        self.chan.tick(now);
        let (due, rest) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|t| t.end == now);
        self.pending = rest;
        let due: Vec<Transmission> = due;
        let (chan, cfg) = (self.chan.as_ref(), &self.cfg);
        for Transmission { id, .. } in due {
            let (a, b) = (&mut self.indexed, &mut self.scanned);
            self.medium.evaluate_reception_into(
                id,
                chan,
                cfg,
                &mut a.rng,
                &mut a.collisions,
                &mut a.captures,
                &mut self.receivers,
            );
            let expected = self.scan.evaluate(
                id,
                chan,
                cfg,
                &mut b.rng,
                &mut b.collisions,
                &mut b.captures,
            );
            assert_eq!(self.receivers, expected, "receivers of frame {id} at {now}");
            assert_eq!(
                (a.collisions, a.captures),
                (b.collisions, b.captures),
                "counters after frame {id}"
            );
        }
    }
}

/// Drives both models through `frames` transmissions. Transmitters are
/// drawn half from `hot` (a neighbourhood, so frames collide) and half
/// from the whole mesh (so distant air is in the records too).
fn drive(
    topo: &Topology,
    chan: Box<dyn ChannelModel>,
    hot: &[NodeId],
    frames: u64,
    seed: u64,
) -> Coverage {
    let mut both = Both::new(topo, chan, seed ^ 0xA1);
    let n = topo.n();
    let mut script = ChaCha8Rng::seed_from_u64(seed);
    let mut cover = Coverage::default();
    let mut now: Time = 0;
    while cover.frames < frames || !both.pending.is_empty() {
        let due = both.next_end() == Some(now);
        // Same-instant ordering: sometimes a frame begins at the very
        // instant another ends, before that one is judged.
        if due && script.gen_bool(0.5) {
            both.judge(now);
            continue;
        }
        // Queries at the clock, at a random node and at a transmitter.
        for node in [
            NodeId(script.gen_range(0..n)),
            both.pending.last().map_or(NodeId(0), |t| t.tx),
        ] {
            both.compare_queries(node, now, script.gen_range(1..3000u64));
        }
        if one_in(&mut script, 64) {
            both.prune(now);
        }
        // Crowded and quiet air alternate every 250 frames.
        let p_begin = if (cover.frames / 250).is_multiple_of(2) {
            0.6
        } else {
            0.05
        };
        if cover.frames < frames && script.gen_bool(p_begin) {
            // Same-node data + ACK: now and then a node already on the
            // air (or just off it) transmits again.
            let tx = match both.pending.last() {
                Some(t) if one_in(&mut script, 8) => t.tx,
                _ if script.gen_bool(0.5) => hot[script.gen_range(0..hot.len())],
                _ => NodeId(script.gen_range(0..n)),
            };
            // Data frame, MAC ACK, or a sliver.
            let air = match script.gen_range(0..4u32) {
                0 => 248,
                1 => script.gen_range(1..40u64),
                _ => 2374,
            };
            let on_air = |p: &&Transmission| p.end > now;
            cover.same_instant_begins += u64::from(due);
            cover.one_us_overlaps += u64::from(both.pending.iter().any(|p| p.end == now + 1));
            cover.half_duplex_overlaps +=
                u64::from(both.pending.iter().filter(on_air).any(|p| p.tx == tx));
            both.begin(Transmission {
                id: cover.frames,
                tx,
                start: now,
                end: now + air,
            });
            cover.frames += 1;
        }
        if due {
            both.judge(now);
            continue;
        }
        // Advance: to the next end, to 1 µs before it, or a short hop.
        let hop: Time = now + script.gen_range(0..1200u64);
        now = match both.next_end() {
            Some(end) if one_in(&mut script, 4) && end - 1 > now => end - 1,
            Some(end) => hop.min(end),
            None => hop,
        };
    }
    both.assert_same_streams();
    cover.collisions = both.indexed.collisions;
    cover.captures = both.indexed.captures;
    cover
}

/// The nodes a transmission by `center` interferes at, plus `center`.
fn neighbourhood(topo: &Topology, chan: &dyn ChannelModel, center: NodeId) -> Vec<NodeId> {
    let m = Medium::new(topo, &SimConfig::default(), chan);
    topo.nodes()
        .filter(|&b| b == center || m.interferes(center, b))
        .collect()
}

fn shadowing() -> ChannelSpec {
    ChannelSpec::Shadowing {
        path_loss_exp: 3.0,
        sigma_db: 8.0,
        midpoint_m: 40.0,
        epoch_ms: 100,
    }
}

fn assert_exercised(c: &Coverage) {
    assert!(c.collisions > 0 && c.captures > 0, "{c:?}");
    assert!(
        c.half_duplex_overlaps > 0 && c.same_instant_begins > 0,
        "{c:?}"
    );
    assert!(c.one_us_overlaps > 0, "{c:?}");
}

#[test]
fn testbed_static_channel_matches_the_scan() {
    let topo = generate::testbed(1);
    let hot: Vec<NodeId> = topo.nodes().collect();
    for seed in 0..4 {
        let chan = ChannelSpec::Static.build(&topo, seed);
        assert_exercised(&drive(&topo, chan, &hot, 3000, seed));
    }
}

#[test]
fn city_mesh_matches_the_scan() {
    let topo = generate::city_mesh(2000, 3);
    let chan = ChannelSpec::Static.build(&topo, 3);
    let hot = neighbourhood(&topo, chan.as_ref(), NodeId(700));
    assert!(hot.len() > 3, "a neighbourhood to collide in: {hot:?}");
    assert_exercised(&drive(&topo, chan, &hot, 4000, 11));
}

#[test]
fn shadowing_channel_matches_the_scan() {
    let topo = generate::testbed(2);
    let hot: Vec<NodeId> = topo.nodes().collect();
    let chan = shadowing().build(&topo, 5);
    assert_exercised(&drive(&topo, chan, &hot, 3000, 5));
}

/// A channel outside the matrix: every pair within `reach_m` reaches, at
/// a strength that depends on the pair so capture goes both ways.
struct Ranged {
    pos: Vec<Position>,
    reach_m: f64,
}
impl ChannelModel for Ranged {
    fn delivery(&self, tx: NodeId, rx: NodeId, _now: Time) -> f64 {
        if self.may_reach(tx, rx) {
            0.05 + 0.9 * ((tx.0 * 7 + rx.0 * 3) % 10) as f64 / 10.0
        } else {
            0.0
        }
    }
    fn may_reach(&self, tx: NodeId, rx: NodeId) -> bool {
        tx != rx && self.pos[tx.0].distance(&self.pos[rx.0], 10.0) <= self.reach_m
    }
    fn reach_hint(&self) -> ReachHint {
        ReachHint::WithinDistance(self.reach_m)
    }
}

#[test]
fn distance_bounded_channel_matches_the_scan() {
    // 330 m of line under a 200 m reach: most pairs reach without a
    // matrix link, the far ones do not.
    let topo = generate::line(11, 0.9, 0.0, 30.0);
    let hot: Vec<NodeId> = topo.nodes().collect();
    let chan = Ranged {
        pos: topo.positions().expect("line has positions").to_vec(),
        reach_m: 200.0,
    };
    assert_exercised(&drive(&topo, Box::new(chan), &hot, 3000, 9));
}

#[test]
fn sense_and_interfere_are_symmetric_on_every_builtin_pair() {
    let topologies = [
        generate::motivating(),
        generate::motivating_symmetric(),
        generate::line(6, 0.8, 0.5, 25.0),
        generate::diamond(4, 0.5),
        generate::diamond_symmetricized(4, 0.5),
        generate::testbed(1),
        generate::random_mesh(60, 200.0, 120.0, 2),
        generate::city_mesh(400, 4),
        generate::grid(6, 5, 0.8, 0.3, 25.0),
    ];
    let channels = [
        ChannelSpec::Static,
        ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10),
        shadowing(),
        ChannelSpec::TimeVarying {
            amplitude: 0.2,
            period_ms: 500,
            walk_sigma: 0.02,
            epoch_ms: 50,
        },
    ];
    let cfg = SimConfig::default();
    for topo in &topologies {
        for spec in &channels {
            if spec.validate(topo).is_err() {
                continue; // shadowing needs positions
            }
            let chan = spec.build(topo, 1);
            let m = Medium::new(topo, &cfg, chan.as_ref());
            for a in topo.nodes() {
                for b in topo.nodes() {
                    let pair = format!("{} / {}: {a}, {b}", topo.name, spec.label());
                    assert_eq!(m.senses(a, b), m.senses(b, a), "sense {pair}");
                    assert_eq!(m.interferes(a, b), m.interferes(b, a), "interfere {pair}");
                }
            }
        }
    }
}

#[test]
fn a_finished_frame_judged_again_gives_the_same_receivers() {
    // The engine judges a frame once, at its end; direct callers may ask
    // again until the clock moves past it, and get the same answer from
    // the same RNG state.
    let topo = generate::testbed(1);
    let cfg = SimConfig::default();
    let chan = ChannelSpec::Static.build(&topo, 1);
    let mut m = Medium::new(&topo, &cfg, chan.as_ref());
    let frames = [(0, 3, 0, 2374), (1, 11, 900, 3274), (2, 3, 2374, 2622)];
    for (id, tx, start, end) in frames {
        m.begin(Transmission {
            id,
            tx: NodeId(tx),
            start,
            end,
        });
    }
    // Frame 0 finished at 2374, which is where the clock stands.
    let rng = ChaCha8Rng::seed_from_u64(17);
    let mut verdicts = Vec::new();
    for _ in 0..2 {
        let (mut rng, mut col, mut cap, mut rx) = (rng.clone(), 0, 0, Vec::new());
        m.evaluate_reception_into(
            0,
            chan.as_ref(),
            &cfg,
            &mut rng,
            &mut col,
            &mut cap,
            &mut rx,
        );
        verdicts.push((rx, col, cap, rng.gen::<u64>()));
    }
    assert_eq!(verdicts[0], verdicts[1]);
    assert!(verdicts[0].1 > 0, "frame 1 overlapped it: {verdicts:?}");
}

#[test]
fn lone_frames_and_crowds_alternate() {
    // The medium judges a frame nothing overlapped without looking at an
    // interference list. Both arms against the scan, back to back: a frame
    // alone on the air, then 8–64 frames piled onto each other, again and
    // again — so a lone frame is judged with the crowd before it still in
    // the history and its stamps still on the nodes.
    let testbed = generate::testbed(1);
    let city = generate::city_mesh(2000, 3);
    let bursty = ChannelSpec::bursty_matched(0.2, 0.05, 0.25, 10);
    for (topo, spec, seed) in [
        (&testbed, ChannelSpec::Static, 21),
        (&testbed, bursty, 22),
        (&testbed, shadowing(), 23),
        (&city, ChannelSpec::Static, 24),
    ] {
        let chan = spec.build(topo, seed);
        // Crowds gather where they can hear each other.
        let hot = neighbourhood(topo, chan.as_ref(), NodeId(topo.n() / 3));
        assert!(hot.len() > 3, "{hot:?}");
        let mut both = Both::new(topo, chan, seed);
        let mut script = ChaCha8Rng::seed_from_u64(seed);
        let (mut id, mut now) = (0, 0);
        let (mut lone_heard, mut crowded) = (0, 0);
        for _round in 0..40 {
            // Alone: begun after everything before it has ended.
            now += script.gen_range(1..500u64);
            let tx = hot[script.gen_range(0..hot.len())];
            both.begin(Transmission {
                id,
                tx,
                start: now,
                end: now + 2374,
            });
            id += 1;
            let collisions = both.indexed.collisions;
            now = both.judge_all();
            assert_eq!(both.indexed.collisions, collisions, "a lone frame collided");
            lone_heard += both.receivers.len();
            // A crowd: each begins before the first of them ends.
            let first_end = now + 2374;
            for _ in 0..script.gen_range(8..=64u32) {
                let tx = match script.gen_range(0..4u32) {
                    0 => NodeId(script.gen_range(0..topo.n())),
                    _ => hot[script.gen_range(0..hot.len())],
                };
                let air = [248, 2374][script.gen_range(0..2usize)];
                both.begin(Transmission {
                    id,
                    tx,
                    start: now,
                    end: now + air,
                });
                id += 1;
                crowded += 1;
                now = (now + script.gen_range(0..60u64)).min(first_end - 1);
                // Frames of the crowd that end on the way are judged there.
                while both.next_end().is_some_and(|end| end <= now) {
                    let end = both.next_end().expect("just seen");
                    both.judge(end);
                }
            }
            now = both.judge_all();
        }
        both.assert_same_streams();
        let what = format!("{} on {}", spec.label(), topo.name);
        assert!(lone_heard > 10, "{what}: lone frames reached {lone_heard}");
        assert!(crowded > 40 * 8, "{what}: {crowded}");
        assert!(
            both.indexed.collisions > 100,
            "{what}: the crowds collided {} times",
            both.indexed.collisions
        );
    }
}

#[test]
fn the_only_overlapper_is_the_receiver_itself() {
    // One frame, and during it one transmission — by a node the frame
    // would otherwise reach. That node is half-duplex-deaf to the frame,
    // and its neighbours hear it as interference; nothing else is on the
    // air, before or after.
    let topo = generate::testbed(1);
    let chan = ChannelSpec::Static.build(&topo, 1);
    let (a, b, _) = topo
        .nodes()
        .flat_map(|a| topo.neighbors_out(a).map(move |(b, p)| (a, b, p)))
        .max_by(|x, y| x.2.total_cmp(&y.2))
        .expect("the testbed has links");
    let mut both = Both::new(&topo, chan, 31);
    let mut heard_when_silent = 0;
    for (round, b_transmits) in [true, false].into_iter().cycle().take(200).enumerate() {
        let start = round as Time * 10_000;
        let id = 2 * round as u64;
        both.begin(Transmission {
            id,
            tx: a,
            start,
            end: start + 2374,
        });
        if b_transmits {
            both.begin(Transmission {
                id: id + 1,
                tx: b,
                start: start + 100,
                end: start + 348,
            });
            both.judge(start + 348);
        }
        both.judge(start + 2374);
        if b_transmits {
            assert!(!both.receivers.contains(&b), "{b} heard {a} while sending");
        } else {
            heard_when_silent += usize::from(both.receivers.contains(&b));
        }
    }
    both.assert_same_streams();
    assert!(
        heard_when_silent > 50,
        "{a} -> {b} is the best link there is"
    );
    assert!(both.indexed.collisions > 0, "{b}'s neighbours were jammed");
}
