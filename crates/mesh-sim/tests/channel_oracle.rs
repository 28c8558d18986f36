//! The law and the path of the Gilbert–Elliott channel.
//!
//! **Law.** The Gilbert–Elliott [`Channel`] works a link's state out at
//! the epoch it is asked about, from one
//! counter-based word per `(link, epoch)`; the code it replaced asked
//! every link every epoch whether it flips. [`PerEpochGe`] is that code,
//! kept here as the oracle. The two draw different numbers, so they are
//! compared in law, not path by path: each one's bad-state occupancy,
//! sojourn lengths (mean and histogram, per state) and state
//! autocorrelation must sit within 4σ of the two-state chain's analytic
//! values. The analytic check gates; the oracle run shows that the
//! per-epoch loop passes the same gate, i.e. that the process is the one
//! the engine always simulated. Adjacent links, which read neighbouring
//! counters, must be uncorrelated within 4σ.
//!
//! **Path.** A link's state is a function of `(topology, spec, seed)`, the
//! link and the epoch — not of when or in what order anyone asks. The
//! channel walks back from the asked epoch to the latest *fresh* one,
//! stopping at the link's last query; [`ForwardGe`] runs the same coins
//! forward, epoch by epoch from epoch 0, with the public
//! [`streams::draw`], and must agree bit for bit under random query
//! schedules: repeated instants, sub-epoch steps, multi-epoch jumps,
//! links left cold for long stretches, and queries back in time.
//!
//! **Row.** [`Channel::delivery_row`] is what the medium asks once per
//! finished frame; the channel answers it by walking the transmitter's
//! link row alongside the candidate list instead of searching per
//! receiver. Whatever the list — the medium's own, one with strangers and
//! the transmitter itself in it, all nodes, none — the row must be
//! `delivery` per candidate, bit for bit, static or bursty. And the
//! channel (and [`PerEpochGe`]) reads exactly 0 wherever the topology has
//! no link: the medium's candidate lists and `probe_topology` rest on
//! that.
//!
//! **Step.** Most queries come at the epoch of the link's last one or
//! the next, and those take one step instead of the walk back. A channel
//! asked through rows — the medium's lists, lists that leave every other
//! link target out, lists with the transmitter and strangers in them — on
//! a schedule of same-epoch, next-epoch, longer and backward steps must
//! answer like a fresh channel of the same seed asked once, cold: for a
//! chain with fresh epochs, one that swaps (`to_bad + to_good > 1`), and
//! the two with no fresh epoch at all.
//!
//! Mutations tried against this file (each reverted):
//!
//! * the link's last query consulted for a query back in time (`>=` for
//!   `==` where the walk meets it) — `path_is_the_forward_chain_under_any_query_schedule`
//!   fails at the first backward query ("asked out of order", seed 1,
//!   4 180 µs), and `sojourn_law` on `(1, 1)`'s lag-1 autocorrelation
//!   (0 against −1);
//! * the swap parity off by one (`e − k + 1`) — the path test fails at
//!   the first instant on `(1, 1)`, `sojourn_law` on `(1, 1)`'s lag-1
//!   autocorrelation, and `adjacent_links_are_uncorrelated` on
//!   `(0.05, 1)`;
//! * the fresh threshold taken from `to_good` alone — the path test fails
//!   on the ledger workload's rates ("asked every epoch", seed 1,
//!   10 000 µs), `sojourn_law` on occupancy (0.200 against 0.167 at
//!   σ = 1.9·10⁻⁴);
//! * `streams::draw` with an unmixed slot origin (`key + slot·γ`, so slot
//!   `s + 1` reads slot `s`'s next word) — the path test cannot see it
//!   (the reference reads the same draw), and
//!   `adjacent_links_are_uncorrelated` fails (0.68 against 0 at
//!   σ = 5·10⁻⁵);
//! * `delivery_row` reading link state at `row + k + 1` (the next link's),
//!   and the merge-walk stepping past a link equal to the candidate (`<=`
//!   for `<`) — each fails `row_is_delivery_per_candidate` on the first
//!   transmitter checked, and the path test, which asks half its links
//!   through one-candidate rows, at 0 µs;
//! * in the one-epoch step: the swap dropped from a carried state, the
//!   same-epoch and next-epoch picks exchanged, a two-epoch gap taken as
//!   one step, and the fresh draw ignored — each fails
//!   `one_epoch_steps_answer_like_a_fresh_channel` (and the path test);
//! * in the row walk: the skip loop for left-out link targets removed,
//!   and the cursor stepped on every candidate instead of by whether it
//!   matched — each fails `one_epoch_steps_answer_like_a_fresh_channel`
//!   and `row_is_delivery_per_candidate`.
use mesh_sim::channel::{Channel, ChannelSpec, GilbertElliott};
use mesh_sim::{Time, MS};
use mesh_topology::streams::{self, Stream};
use mesh_topology::{generate, Link, NodeId, Topology};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What the law and row checks ask of a loss process, so that they run
/// alike over the crate's [`Channel`] and over [`PerEpochGe`].
trait Air {
    /// Delivery of `(tx, rx)` at `now`.
    fn delivery(&self, tx: NodeId, rx: NodeId, now: Time) -> f64;

    /// `delivery` from `tx` to each of the ascending `candidates`, into
    /// `out` (cleared first). The reference has no row walk of its own
    /// and answers per pair.
    fn delivery_row(&self, tx: NodeId, candidates: &[u32], now: Time, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            candidates
                .iter()
                .map(|&rx| self.delivery(tx, NodeId(rx as usize), now)),
        );
    }

    /// Runs the process up to `now`. The channel's state is a function of
    /// the instant, so only the reference draws here.
    fn tick(&mut self, _now: Time) {}
}

impl Air for Channel {
    fn delivery(&self, tx: NodeId, rx: NodeId, now: Time) -> f64 {
        Channel::delivery(self, tx, rx, now)
    }

    fn delivery_row(&self, tx: NodeId, candidates: &[u32], now: Time, out: &mut Vec<f64>) {
        Channel::delivery_row(self, tx, candidates, now, out);
    }
}

/// The Gilbert–Elliott channel as it was before sojourn sampling: dense
/// `n × n` state, one uniform draw per link per epoch.
struct PerEpochGe {
    n: usize,
    to_bad: f64,
    to_good: f64,
    epoch: Time,
    good_p: Vec<f64>,
    bad_p: Vec<f64>,
    bad: Vec<bool>,
    links: Vec<usize>,
    epochs_done: u64,
    rng: ChaCha8Rng,
}

impl PerEpochGe {
    fn new(topo: &Topology, spec: &ChannelSpec, seed: u64) -> Self {
        let ge = params(spec);
        let mut rng = streams::rng(seed, Stream::Channel);
        let n = topo.n();
        let links: Vec<usize> = topo.links().map(|l| l.from.0 * n + l.to.0).collect();
        let mut good_p = vec![0.0; n * n];
        let mut bad_p = vec![0.0; n * n];
        for l in topo.links() {
            let idx = l.from.0 * n + l.to.0;
            (good_p[idx], bad_p[idx]) = state_deliveries(l.delivery, &ge);
        }
        let pi_bad = pi_bad(ge.to_bad, ge.to_good);
        let mut bad = vec![false; n * n];
        for &idx in &links {
            bad[idx] = rng.gen::<f64>() < pi_bad;
        }
        PerEpochGe {
            n,
            to_bad: ge.to_bad,
            to_good: ge.to_good,
            epoch: ge.epoch_ms * MS,
            good_p,
            bad_p,
            bad,
            links,
            epochs_done: 0,
            rng,
        }
    }
}

impl Air for PerEpochGe {
    fn delivery(&self, tx: NodeId, rx: NodeId, _now: Time) -> f64 {
        let idx = tx.0 * self.n + rx.0;
        if self.bad[idx] {
            self.bad_p[idx]
        } else {
            self.good_p[idx]
        }
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

/// The parameters of a Gilbert–Elliott spec.
fn params(spec: &ChannelSpec) -> GilbertElliott {
    let ChannelSpec::GilbertElliott(ge) = *spec else {
        panic!("not a Gilbert–Elliott spec: {spec:?}");
    };
    ge
}

/// `π_bad`, 0 where the chain never moves.
fn pi_bad(to_bad: f64, to_good: f64) -> f64 {
    if to_bad + to_good > 0.0 {
        to_bad / (to_bad + to_good)
    } else {
        0.0
    }
}

/// Good- and bad-state delivery of a link of static delivery `p`: the
/// matched-mean saturation rule.
fn state_deliveries(p: f64, ge: &GilbertElliott) -> (f64, f64) {
    let pi_bad = pi_bad(ge.to_bad, ge.to_good);
    let raw_good = p * ge.good_scale;
    let good = raw_good.min(1.0);
    let excess = raw_good - good;
    let bad = if pi_bad > 0.0 {
        (p * ge.bad_scale + excess * (1.0 - pi_bad) / pi_bad).clamp(0.0, 1.0)
    } else {
        (p * ge.bad_scale).clamp(0.0, 1.0)
    };
    (good, bad)
}

/// `⌊p·2⁶⁴⌋`.
fn threshold(p: f64) -> u128 {
    (p * 2f64.powi(64)) as u128
}

/// The chain run forward, epoch by epoch, from the public draw. Epoch 0
/// is bad when its word is below `⌊π_bad·2⁶⁴⌋`. Each later epoch is
/// *fresh* when its word `u` is below `⌊f·2⁶⁴⌋` and then bad when `u` is
/// below `⌊g·2⁶⁴⌋`; otherwise the link keeps its state (`a + b ≤ 1`:
/// `f = a + b`, `g = a`) or swaps it (`a + b > 1`: `f = 2 − a − b`,
/// `g = 1 − b`).
struct ForwardGe {
    key: u64,
    epoch: Time,
    start_bad: u128,
    fresh: u128,
    fresh_bad: u128,
    swaps: bool,
    /// Per link slot: good- and bad-state delivery.
    deliveries: Vec<(f64, f64)>,
    /// Per link slot: the epoch the chain has been run to, and its state.
    reached: Vec<(u64, bool)>,
}

impl ForwardGe {
    fn new(topo: &Topology, spec: &ChannelSpec, seed: u64) -> Self {
        let ge = params(spec);
        let (a, b) = (ge.to_bad, ge.to_good);
        let (fresh, fresh_bad, swaps) = if a + b <= 1.0 {
            (a + b, a, false)
        } else {
            ((1.0 - a) + (1.0 - b), 1.0 - b, true)
        };
        let mut chain = ForwardGe {
            key: streams::rng(seed, Stream::Channel).next_u64(),
            epoch: ge.epoch_ms * MS,
            start_bad: threshold(pi_bad(a, b)),
            fresh: threshold(fresh),
            fresh_bad: threshold(fresh_bad),
            swaps,
            deliveries: topo
                .links()
                .map(|l| state_deliveries(l.delivery, &ge))
                .collect(),
            reached: Vec::new(),
        };
        chain.reached = (0..topo.link_count())
            .map(|slot| (0, chain.word(slot, 0) < chain.start_bad))
            .collect();
        chain
    }

    fn word(&self, slot: usize, epoch: u64) -> u128 {
        u128::from(streams::draw(self.key, slot as u64, epoch))
    }

    /// Link `slot`'s delivery at `now`; an instant before the one the
    /// link was run to starts it over from epoch 0.
    fn delivery(&mut self, slot: usize, now: Time) -> f64 {
        let target = now / self.epoch;
        let (mut e, mut bad) = self.reached[slot];
        if e > target {
            (e, bad) = (0, self.word(slot, 0) < self.start_bad);
        }
        while e < target {
            e += 1;
            let u = self.word(slot, e);
            if u < self.fresh {
                bad = u < self.fresh_bad;
            } else if self.swaps {
                bad = !bad;
            }
        }
        self.reached[slot] = (e, bad);
        let (good_p, bad_p) = self.deliveries[slot];
        if bad {
            bad_p
        } else {
            good_p
        }
    }
}

// ---------------------------------------------------------------------
// (a) The law.
// ---------------------------------------------------------------------

/// `(to_bad, to_good)` pairs: the ledger workload's, the doc example's, a
/// memoryless chain, rare long bursts, strict alternation, and the two
/// absorbing chains.
const RATES: [(f64, f64); 7] = [
    (0.05, 0.25),
    (0.05, 0.2),
    (0.5, 0.5),
    (1e-3, 0.3),
    (1.0, 1.0),
    (0.0, 0.3),
    (0.3, 0.0),
];

const EPOCHS: u64 = 200_000;
const EPOCH_MS: u64 = 10;
const HIST_BINS: usize = 30;
const LAGS: usize = 5;

/// What one link did over the window.
#[derive(Clone, Default)]
struct LinkLaw {
    /// Epochs spent in the bad state.
    bad_epochs: u64,
    /// `Σ_t (x_t − π)(x_{t+k} − π)` for lags `k = 1..=LAGS`.
    lagged: [f64; LAGS],
    /// The last `LAGS + 1` states, newest in bit 0.
    recent: u8,
    /// State and first epoch of the sojourn under way.
    run: Option<(bool, u64)>,
}

/// Pooled observations of every link of one model instance.
struct Law {
    links: Vec<LinkLaw>,
    /// Per state (`[good, bad]`): how many sojourns of each length
    /// `1..=HIST_BINS` (index 0 unused), and of all lengths.
    hist: [[u64; HIST_BINS + 1]; 2],
    sojourns: [u64; 2],
    sojourn_epochs: [u64; 2],
    /// The same for the sojourn each link *starts* in: geometric too (the
    /// chain is memoryless), but drawn when the channel is built.
    first_sojourns: [u64; 2],
    first_sojourn_epochs: [u64; 2],
    flips: u64,
}

/// Runs `model` for [`EPOCHS`] epochs, reading every link's state once per
/// epoch (`bad_scale = 0`, so a link is bad exactly when it delivers 0).
///
/// Sojourns are counted when they *begin* in the first half of the window
/// and followed to their end: counting the ones that fit would favour
/// short ones.
fn observe(model: &mut impl Air, links: &[Link], pi_bad: f64) -> Law {
    let mut law = Law {
        links: vec![LinkLaw::default(); links.len()],
        hist: [[0; HIST_BINS + 1]; 2],
        sojourns: [0; 2],
        sojourn_epochs: [0; 2],
        first_sojourns: [0; 2],
        first_sojourn_epochs: [0; 2],
        flips: 0,
    };
    for e in 0..=EPOCHS {
        let now = e * EPOCH_MS * MS;
        model.tick(now);
        for (l, s) in links.iter().zip(&mut law.links) {
            let bad = model.delivery(l.from, l.to, now) == 0.0;
            s.bad_epochs += bad as u64;
            s.recent = (s.recent << 1) | bad as u8;
            let x = bad as u8 as f64 - pi_bad;
            for (k, acc) in s.lagged.iter_mut().enumerate() {
                let lag = k as u64 + 1;
                if e >= lag {
                    let then = (s.recent >> lag) & 1;
                    *acc += x * (then as f64 - pi_bad);
                }
            }
            match s.run {
                Some((state, _)) if state == bad => {}
                Some((state, since)) => {
                    law.flips += 1;
                    let len = e - since;
                    let st = state as usize;
                    if since == 0 {
                        law.first_sojourns[st] += 1;
                        law.first_sojourn_epochs[st] += len;
                    } else if since <= EPOCHS / 2 {
                        law.sojourns[st] += 1;
                        law.sojourn_epochs[st] += len;
                        if let Some(bin) = law.hist[st].get_mut(len as usize) {
                            *bin += 1;
                        }
                    }
                    s.run = Some((bad, e));
                }
                None => s.run = Some((bad, e)),
            }
        }
    }
    for s in &law.links {
        if let Some((_, since)) = s.run {
            assert!(
                since == 0 || since > EPOCHS / 2,
                "a sojourn begun in the first half outlived the window"
            );
        }
    }
    law
}

/// Mean of per-link values and the standard error of that mean. Links are
/// independent chains, so this error needs no model of the correlation
/// *within* a chain — which a binomial band over epochs would ignore.
fn mean_se(per_link: impl Iterator<Item = f64>) -> (f64, f64) {
    let v: Vec<f64> = per_link.collect();
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Fails unless `got` is within `4·se` of `want`; `slack` absorbs
/// rounding where the band is exactly zero.
fn within(what: &str, got: f64, want: f64, se: f64, slack: f64) {
    assert!(
        (got - want).abs() <= 4.0 * se + slack,
        "{what}: {got} vs analytic {want} (σ = {se})"
    );
}

fn check_law<M: Air>(name: &str, build: impl Fn(&Topology, &ChannelSpec, u64) -> M) {
    let topo = generate::testbed(1);
    let links: Vec<Link> = topo.links().collect();
    assert!(links.len() >= 150);
    for (i, &(to_bad, to_good)) in RATES.iter().enumerate() {
        let spec = ChannelSpec::GilbertElliott(GilbertElliott {
            good_scale: 1.0,
            bad_scale: 0.0,
            to_bad,
            to_good,
            epoch_ms: EPOCH_MS,
        });
        let tag = format!("{name} ({to_bad}, {to_good})");
        let pi_bad = pi_bad(to_bad, to_good);
        let law = observe(&mut build(&topo, &spec, 100 + i as u64), &links, pi_bad);
        let samples = (EPOCHS + 1) as f64;

        let (occ, se) = mean_se(law.links.iter().map(|s| s.bad_epochs as f64 / samples));
        within(&format!("{tag} occupancy"), occ, pi_bad, se, 1e-9);

        if to_bad == 0.0 || to_good == 0.0 {
            // One state is absorbing and the stationary start is in it.
            assert_eq!(law.flips, 0, "{tag}: an absorbing state was left");
            continue;
        }

        let rho = 1.0 - to_bad - to_good;
        for k in 0..LAGS {
            let pairs = samples - (k + 1) as f64;
            let norm = pairs * pi_bad * (1.0 - pi_bad);
            let (r, se) = mean_se(law.links.iter().map(|s| s.lagged[k] / norm));
            let what = format!("{tag} autocorrelation at lag {}", k + 1);
            within(&what, r, rho.powi(k as i32 + 1), se, 1e-9);
        }

        // Sojourns are i.i.d. geometric, so here the bands are exact.
        for (st, q) in [(0, to_bad), (1, to_good)] {
            let state = ["good", "bad"][st];
            let count = law.sojourns[st] as f64;
            assert!(count > 1e4, "{tag}: only {count} {state} sojourns");
            let mean = law.sojourn_epochs[st] as f64 / count;
            let se = ((1.0 - q) / (q * q) / count).sqrt();
            let what = format!("{tag} mean {state} sojourn");
            within(&what, mean, 1.0 / q, se, 1e-9);
            let first = law.first_sojourns[st] as f64;
            if first > 0.0 {
                let mean = law.first_sojourn_epochs[st] as f64 / first;
                let se = ((1.0 - q) / (q * q) / first).sqrt();
                let what = format!("{tag} mean first {state} sojourn");
                within(&what, mean, 1.0 / q, se, 1e-9);
            }
            for (len, &got) in law.hist[st].iter().enumerate().skip(1) {
                let p = (1.0 - q).powi(len as i32 - 1) * q;
                let se = (count * p * (1.0 - p)).sqrt();
                // + 1: a count moves in whole steps.
                let what = format!("{tag} {state} sojourns of length {len}");
                within(&what, got as f64, count * p, se, 1.0);
            }
        }
    }
}

#[test]
fn sojourn_law() {
    check_law("sojourn", |topo, spec, seed| spec.build(topo, seed));
}

#[test]
fn per_epoch_oracle_obeys_the_same_law() {
    check_law("per-epoch", PerEpochGe::new);
}

/// Adjacent link slots read neighbouring counters of the one keyed
/// draw; their states must be as independent as the chains of separate
/// links. Per adjacent pair, the lag-0 correlation of the two state
/// sequences; their mean over pairs must sit within 4σ of 0.
#[test]
fn adjacent_links_are_uncorrelated() {
    let topo = generate::testbed(1);
    let links: Vec<Link> = topo.links().collect();
    let epochs = 20_000u64;
    for (to_bad, to_good) in [(0.05, 0.25), (0.01, 0.01), (0.5, 0.5), (0.05, 1.0)] {
        let spec = ChannelSpec::GilbertElliott(GilbertElliott {
            good_scale: 1.0,
            bad_scale: 0.0,
            to_bad,
            to_good,
            epoch_ms: EPOCH_MS,
        });
        for seed in [1, 2] {
            let chan = spec.build(&topo, seed);
            let mut bad = vec![0.0; links.len()];
            let mut both = vec![0.0; links.len() - 1];
            for e in 0..epochs {
                let now = e * EPOCH_MS * MS;
                let x: Vec<f64> = links
                    .iter()
                    .map(|l| (chan.delivery(l.from, l.to, now) == 0.0) as u8 as f64)
                    .collect();
                for (acc, &x) in bad.iter_mut().zip(&x) {
                    *acc += x;
                }
                for (acc, w) in both.iter_mut().zip(x.windows(2)) {
                    *acc += w[0] * w[1];
                }
            }
            let t = epochs as f64;
            let r = both.iter().zip(bad.windows(2)).filter_map(|(&xy, m)| {
                let (mx, my) = (m[0] / t, m[1] / t);
                let var = mx * (1.0 - mx) * my * (1.0 - my);
                (var > 0.0).then(|| (xy / t - mx * my) / var.sqrt())
            });
            let (r, se) = mean_se(r);
            let what = format!("({to_bad}, {to_good}) seed {seed}: adjacent-link correlation");
            within(&what, r, 0.0, se, 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// (b) The path.
// ---------------------------------------------------------------------

/// Asks instances of `spec` about the links of `topo` on a random
/// schedule and holds every answer to [`ForwardGe`], bit for bit:
///
/// * `random` is asked at instants that repeat, step within an epoch,
///   jump several or tens of epochs, or go back in time, about a random
///   quarter of the links each time (so some links stay cold for long
///   stretches), half of them through `delivery_row`;
/// * `warm` is asked about every link at every epoch, in time order;
/// * at every 40th instant a fresh instance is asked once, cold; where
///   `moves`, another seed must give other air.
fn check_path(topo: &Topology, spec: &ChannelSpec, seed: u64, moves: bool) {
    let links: Vec<Link> = topo.links().collect();
    let epoch = params(spec).epoch_ms * MS;
    let mut schedule = ChaCha8Rng::seed_from_u64(seed);
    let mut truth = ForwardGe::new(topo, spec, seed);
    let mut warm_truth = ForwardGe::new(topo, spec, seed);
    let random = spec.build(topo, seed);
    let warm = spec.build(topo, seed);
    let mut warm_epochs = 0;
    let mut latest: Time = 0;
    let mut now: Time = 0;
    let mut backward = 0;
    let mut row = Vec::new();
    for step in 0..240 {
        now = match schedule.gen_range(0..6u32) {
            0 => now,
            1 => now + schedule.gen_range(1..epoch),
            2 => now + schedule.gen_range(epoch..4 * epoch),
            3 => latest + schedule.gen_range(10 * epoch..40 * epoch),
            _ if latest > 0 => {
                backward += 1;
                schedule.gen_range(0..latest)
            }
            _ => now,
        };
        latest = latest.max(now);
        let what = format!("{} seed {seed} at {now} µs", spec.label());
        for (slot, l) in links.iter().enumerate() {
            if schedule.gen_range(0..4u32) != 0 {
                continue;
            }
            let got = if schedule.gen_bool(0.5) {
                random.delivery(l.from, l.to, now)
            } else {
                random.delivery_row(l.from, &[l.to.0 as u32], now, &mut row);
                row[0]
            };
            assert_eq!(
                got.to_bits(),
                truth.delivery(slot, now).to_bits(),
                "{what}: link {slot} ({} -> {}) asked out of order",
                l.from,
                l.to
            );
        }
        while warm_epochs * epoch <= latest {
            let at = warm_epochs * epoch;
            for (slot, l) in links.iter().enumerate() {
                assert_eq!(
                    warm.delivery(l.from, l.to, at).to_bits(),
                    warm_truth.delivery(slot, at).to_bits(),
                    "{what}: link {slot} asked every epoch, at {at} µs"
                );
            }
            warm_epochs += 1;
        }
        if step % 40 == 39 {
            let once = spec.build(topo, seed);
            let snapshot = |chan: &Channel| -> Vec<u64> {
                links
                    .iter()
                    .map(|l| chan.delivery(l.from, l.to, now).to_bits())
                    .collect()
            };
            let want: Vec<u64> = (0..links.len())
                .map(|slot| truth.delivery(slot, now).to_bits())
                .collect();
            assert!(want == snapshot(&once), "{what}: asked once, cold");
            let other = spec.build(topo, seed + 1);
            assert!(
                !moves || want != snapshot(&other),
                "{what}: seed {} gives the same air",
                seed + 1
            );
        }
    }
    assert!(latest > 500 * epoch, "the schedule covers too few epochs");
    assert!(backward > 20, "only {backward} queries back in time");
}

/// A Gilbert–Elliott spec with a bad state at 0.2 of the good one's.
fn ge(to_bad: f64, to_good: f64) -> ChannelSpec {
    ChannelSpec::GilbertElliott(GilbertElliott {
        good_scale: 1.0,
        bad_scale: 0.2,
        to_bad,
        to_good,
        epoch_ms: 10,
    })
}

#[test]
fn path_is_the_forward_chain_under_any_query_schedule() {
    let testbed = generate::testbed(1);
    let city = generate::city_mesh(2_000, 1);
    let bursty = ChannelSpec::bursty_matched(0.2, 0.05, 0.25, 10);
    for seed in [1, 2, 3] {
        check_path(&testbed, &bursty, seed, true);
        check_path(&city, &bursty, seed, true);
    }
    // `moves`: whether the air at one instant tells seeds apart — not
    // where a state is absorbing, nor where nearly every link sits in
    // one state (`π_bad` ≈ 0.003 or ≈ 1). `(0, 0)` freezes every link.
    let moving = |(a, b): (f64, f64)| (0.01..=0.99).contains(&pi_bad(a, b));
    let extra = [(0.01, 0.01), (0.05, 1.0), (0.5, 1e-12), (0.0, 0.0)];
    for rates in RATES.into_iter().chain(extra) {
        for seed in [1, 2] {
            check_path(&testbed, &ge(rates.0, rates.1), seed, moving(rates));
        }
    }
}

// ---------------------------------------------------------------------
// (c) The row.
// ---------------------------------------------------------------------

/// The medium's reception-candidate list for `tx`: every node linked to it
/// in either direction.
fn medium_candidates(topo: &Topology, tx: NodeId) -> Vec<u32> {
    topo.nodes()
        .filter(|&r| r != tx && (topo.delivery(tx, r) > 0.0 || topo.delivery(r, tx) > 0.0))
        .map(|r| r.0 as u32)
        .collect()
}

/// Holds `chan.delivery_row` to `chan.delivery` at `now`, for `txs` and
/// four kinds of candidate list each, and holds `chan` to the link-list
/// contract: over the all-nodes list, every pair without a link reads
/// exactly 0. Returns how many candidates read a positive delivery (so a
/// caller can tell the check was not vacuous).
fn check_rows(
    what: &str,
    topo: &Topology,
    chan: &impl Air,
    txs: &[NodeId],
    now: Time,
    lists: &mut ChaCha8Rng,
) -> usize {
    let n = topo.n() as u32;
    // Stale contents: the row must clear them.
    let mut row = vec![f64::NAN; 3];
    let mut positive = 0;
    for &tx in txs {
        let own = medium_candidates(topo, tx);
        // Strangers, neighbours and `tx` itself, ascending.
        let mut mixed: Vec<u32> = (0..n).filter(|_| lists.gen_range(0..8u32) == 0).collect();
        mixed.extend(own.iter().filter(|_| lists.gen_bool(0.5)));
        mixed.push(tx.0 as u32);
        mixed.sort_unstable();
        mixed.dedup();
        let all: Vec<u32> = (0..n).collect();
        for cands in [&own, &mixed, &all, &Vec::new()] {
            chan.delivery_row(tx, cands, now, &mut row);
            let want: Vec<f64> = cands
                .iter()
                .map(|&r| chan.delivery(tx, NodeId(r as usize), now))
                .collect();
            assert!(
                row.iter()
                    .map(|p| p.to_bits())
                    .eq(want.iter().map(|p| p.to_bits())),
                "{what}: row of {tx} at {now} µs over {} candidates:\n{row:?}\nvs\n{want:?}",
                cands.len()
            );
            positive += want.iter().filter(|&&p| p > 0.0).count();
        }
        // The row over `all` equals `delivery` (just checked), so the
        // contract is read off `delivery`.
        for r in topo.nodes().filter(|&r| topo.link_slot(tx, r).is_none()) {
            let p = chan.delivery(tx, r, now);
            assert_eq!(
                p, 0.0,
                "{what}: {tx} -> {r} has no link, yet delivers at {now} µs"
            );
        }
    }
    positive
}

#[test]
fn row_is_delivery_per_candidate() {
    let specs = [
        ChannelSpec::Static,
        ChannelSpec::bursty_matched(0.2, 0.05, 0.25, 10),
    ];
    let testbed = generate::testbed(1);
    let city = generate::city_mesh(2_000, 1);
    for (topo, tx_count) in [(&testbed, testbed.n()), (&city, 60)] {
        for spec in &specs {
            let what = format!("{} on {}", spec.label(), topo.name);
            let mut script = ChaCha8Rng::seed_from_u64(7);
            let chan = spec.build(topo, 3);
            let mut now: Time = 0;
            let mut positive = 0;
            // At 0, then after random steps: sub-epoch steps and jumps.
            for _ in 0..6 {
                let txs: Vec<NodeId> = (0..tx_count)
                    .map(|_| NodeId(script.gen_range(0..topo.n())))
                    .collect();
                positive += check_rows(&what, topo, &chan, &txs, now, &mut script);
                now += script.gen_range(1..400 * MS);
            }
            assert!(positive > 1_000, "{what}: only {positive} live candidates");
        }
    }
}

#[test]
fn a_model_without_its_own_row_gets_the_per_pair_loop() {
    // The per-pair row, through the reference, which has no row walk.
    let topo = generate::testbed(1);
    let spec = ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10);
    let mut chan = PerEpochGe::new(&topo, &spec, 1);
    chan.tick(500 * MS);
    let txs: Vec<NodeId> = topo.nodes().collect();
    let mut script = ChaCha8Rng::seed_from_u64(1);
    assert!(
        check_rows(
            "per-epoch oracle",
            &topo,
            &chan,
            &txs,
            500 * MS,
            &mut script
        ) > 0
    );
}

// ---------------------------------------------------------------------
// (d) The one-epoch step.
// ---------------------------------------------------------------------

/// Lists a row is asked over for `tx`: the medium's own; one that leaves
/// out every other link target; the transmitter and some strangers with a
/// few neighbours; and strangers alone. All ascending.
fn odd_lists(topo: &Topology, tx: NodeId, pick: &mut ChaCha8Rng) -> [Vec<u32>; 4] {
    let own = medium_candidates(topo, tx);
    let skipping = own.iter().copied().step_by(2).collect();
    let strangers: Vec<u32> = (0..topo.n() as u32)
        .filter(|r| own.binary_search(r).is_err())
        .collect();
    let mut mixed: Vec<u32> = own
        .iter()
        .copied()
        .filter(|_| pick.gen_range(0..4u32) == 0)
        .collect();
    mixed.extend(strangers.iter().filter(|_| pick.gen_bool(0.5)));
    mixed.sort_unstable();
    mixed.dedup();
    [own, skipping, mixed, strangers]
}

/// Asks one channel about the links of a few transmitters through their
/// rows, on a schedule that stays within an epoch, steps to the next one,
/// jumps several, or goes back in time, and holds every answer to a fresh
/// channel of the same seed, asked once per link, cold. The rows are the
/// lists of [`odd_lists`]. Returns how many link answers came in the
/// epoch of the link's last query, in the next one, and otherwise.
fn check_steps(topo: &Topology, spec: &ChannelSpec, seed: u64) -> [u32; 3] {
    let epoch = params(spec).epoch_ms * MS;
    let chan = spec.build(topo, seed);
    let mut script = ChaCha8Rng::seed_from_u64(seed);
    let txs: Vec<NodeId> = (0..3)
        .map(|_| NodeId(script.gen_range(0..topo.n())))
        .collect();
    let mut last: Vec<Option<u64>> = vec![None; topo.link_count()];
    let mut kinds = [0; 3];
    let (mut now, mut row): (Time, Vec<f64>) = (0, Vec::new());
    for _ in 0..300 {
        now = match script.gen_range(0..8u32) {
            0..=2 => now + script.gen_range(0..epoch - now % epoch),
            3..=5 => (now / epoch + 1) * epoch + script.gen_range(0..epoch),
            6 => now + script.gen_range(2 * epoch..12 * epoch),
            _ => script.gen_range(0..=now),
        };
        let e = now / epoch;
        let cold = spec.build(topo, seed);
        let mut once: Vec<Option<f64>> = vec![None; topo.link_count()];
        for &tx in &txs {
            for cands in odd_lists(topo, tx, &mut script) {
                chan.delivery_row(tx, &cands, now, &mut row);
                assert_eq!(row.len(), cands.len());
                for (&rx, &got) in cands.iter().zip(&row) {
                    let rx = NodeId(rx as usize);
                    let Some(slot) = topo.link_slot(tx, rx) else {
                        assert_eq!(got, 0.0, "{tx} -> {rx} has no link");
                        continue;
                    };
                    let want = *once[slot].get_or_insert_with(|| cold.delivery(tx, rx, now));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} seed {seed}: link {slot} ({tx} -> {rx}) at {now} µs, epoch {e}, \
                         last asked at epoch {:?}",
                        spec.label(),
                        last[slot]
                    );
                    kinds[match last[slot] {
                        Some(l) if l == e => 0,
                        Some(l) if l + 1 == e => 1,
                        _ => 2,
                    }] += 1;
                    last[slot] = Some(e);
                }
            }
        }
    }
    kinds
}

#[test]
fn one_epoch_steps_answer_like_a_fresh_channel() {
    let testbed = generate::testbed(1);
    let specs = [
        // The ledger workload's chain: fresh epochs, no swap.
        ChannelSpec::bursty_matched(0.2, 0.05, 0.25, 10),
        // `to_bad + to_good > 1`: an epoch that is not fresh swaps.
        ge(0.8, 0.7),
        // No fresh epoch at all: swapped every epoch, or frozen.
        ge(1.0, 1.0),
        ge(0.0, 0.0),
    ];
    for spec in &specs {
        for seed in [1, 2] {
            let kinds = check_steps(&testbed, spec, seed);
            assert!(
                kinds.iter().all(|&k| k > 300),
                "{} seed {seed}: same-epoch, next-epoch and other answers {kinds:?}",
                spec.label()
            );
        }
    }
}
