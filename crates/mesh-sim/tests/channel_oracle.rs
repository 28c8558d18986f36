//! The law and the path of the ticking channel models.
//!
//! **Law.** [`GilbertElliottChannel`](mesh_sim::channel::GilbertElliottChannel)
//! evolves each link by drawing how long it stays in a state; the code it
//! replaced asked every link every epoch whether it flips. [`PerEpochGe`]
//! is that code, kept here as the oracle. The two draw different numbers,
//! so they are compared in law, not path by path: each one's bad-state
//! occupancy, sojourn lengths (mean and histogram, per state) and state
//! autocorrelation must sit within 4σ of the two-state chain's analytic
//! values. The analytic check gates; the oracle run shows that the
//! per-epoch loop passes the same gate, i.e. that the process is the one
//! the engine always simulated.
//!
//! **Path.** A model's sample path is a function of `(topology, spec,
//! seed)` and the instant reached — not of the `tick` calls that led
//! there. Every ticking model is driven to the same instants in one call,
//! epoch by epoch and on a random schedule, and must report bit-equal
//! deliveries on every link.
//!
//! **Row.** [`ChannelModel::delivery_row`] is what the medium asks once
//! per finished frame; the matrix-backed models answer it by walking the
//! transmitter's link row alongside the candidate list instead of
//! searching per receiver. Whatever the list — the medium's own, one with
//! strangers and the transmitter itself in it, all nodes, none — the row
//! must be `delivery` per candidate, bit for bit, for every model.
//!
//! Mutations tried against this file (each reverted):
//!
//! * sojourn `⌊ln(1−U)/ln(1−q)⌋` without the `1 +` — a zero-length
//!   sojourn is due in an epoch already past, so the link sticks:
//!   `sojourn_law` fails on "outlived the window"; with `2 +` instead it
//!   fails on occupancy (0.192 against 0.167 at σ = 1.6·10⁻⁴);
//! * sojourn drawn with the rate of the state being *left* —
//!   `sojourn_law` fails on occupancy (0.833 against 0.167); the same
//!   slip at build only, for the sojourn a link starts in, fails on
//!   "mean first good sojourn" (4.08 against 20 at σ = 1.7);
//! * flips applied link-major (each link run forward to the target
//!   before the next) instead of epoch-major — the law holds, and
//!   `path_ignores_tick_schedule` fails at the first instant checked
//!   ("epoch-by-epoch ticking left different air", seed 1, 26 195 µs);
//! * `delivery_row` reading link state at `row + k + 1` (the next link's)
//!   in the Gilbert–Elliott channel, and the merge-walk stepping past a
//!   link equal to the candidate (`<=` for `<`) — each fails
//!   `row_is_delivery_per_candidate` on the first transmitter checked.

use mesh_sim::channel::{ChannelModel, ChannelSpec, ReachHint};
use mesh_sim::{Time, MS};
use mesh_topology::streams::CHANNEL_STREAM;
use mesh_topology::{generate, Link, NodeId, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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
        let ChannelSpec::GilbertElliott {
            good_scale,
            bad_scale,
            to_bad,
            to_good,
            epoch_ms,
        } = *spec
        else {
            panic!("not a Gilbert–Elliott spec: {spec:?}");
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ CHANNEL_STREAM);
        let n = topo.n();
        let links: Vec<usize> = topo.links().map(|l| l.from.0 * n + l.to.0).collect();
        let pi_bad = if to_bad + to_good > 0.0 {
            to_bad / (to_bad + to_good)
        } else {
            0.0
        };
        let pi_good = 1.0 - pi_bad;
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
        PerEpochGe {
            n,
            to_bad,
            to_good,
            epoch: epoch_ms * MS,
            good_p,
            bad_p,
            bad,
            links,
            epochs_done: 0,
            rng,
        }
    }
}

impl ChannelModel for PerEpochGe {
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
fn observe(model: &mut dyn ChannelModel, links: &[Link], pi_bad: f64) -> Law {
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

fn check_law(name: &str, build: impl Fn(&Topology, &ChannelSpec, u64) -> Box<dyn ChannelModel>) {
    let topo = generate::testbed(1);
    let links: Vec<Link> = topo.links().collect();
    assert!(links.len() >= 150);
    for (i, &(to_bad, to_good)) in RATES.iter().enumerate() {
        let spec = ChannelSpec::GilbertElliott {
            good_scale: 1.0,
            bad_scale: 0.0,
            to_bad,
            to_good,
            epoch_ms: EPOCH_MS,
        };
        let tag = format!("{name} ({to_bad}, {to_good})");
        let pi_bad = if to_bad + to_good > 0.0 {
            to_bad / (to_bad + to_good)
        } else {
            0.0
        };
        let law = observe(build(&topo, &spec, 100 + i as u64).as_mut(), &links, pi_bad);
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
    check_law("per-epoch", |topo, spec, seed| {
        Box::new(PerEpochGe::new(topo, spec, seed))
    });
}

// ---------------------------------------------------------------------
// (b) The path.
// ---------------------------------------------------------------------

/// Every link's delivery at `now`, as bits.
fn snapshot(model: &dyn ChannelModel, links: &[Link], now: Time) -> Vec<u64> {
    links
        .iter()
        .map(|l| model.delivery(l.from, l.to, now).to_bits())
        .collect()
}

/// Drives three instances of `spec` to the same instants — one on a
/// random schedule (sub-epoch steps, jumps of several epochs, repeated
/// calls at one instant), one epoch boundary by epoch boundary, and, at
/// every 40th instant, a fresh one in a single call.
fn check_path(topo: &Topology, spec: &ChannelSpec, epoch_ms: u64, seed: u64) {
    let links: Vec<Link> = topo.links().collect();
    let epoch = epoch_ms * MS;
    let mut schedule = ChaCha8Rng::seed_from_u64(seed);
    let mut random = spec.build(topo, seed);
    let mut stepped = spec.build(topo, seed);
    let mut stepped_epochs = 0;
    let mut now: Time = 0;
    for step in 0..240 {
        now += match schedule.gen_range(0..4u32) {
            0 => 0,
            1 => schedule.gen_range(1..epoch),
            _ => schedule.gen_range(epoch..4 * epoch),
        };
        for _ in 0..schedule.gen_range(1..3u32) {
            random.tick(now);
        }
        while (stepped_epochs + 1) * epoch <= now {
            stepped_epochs += 1;
            stepped.tick(stepped_epochs * epoch);
        }
        let want = snapshot(random.as_ref(), &links, now);
        let what = format!("{} seed {seed} at {now} µs", spec.label());
        assert!(
            want == snapshot(stepped.as_ref(), &links, now),
            "{what}: epoch-by-epoch ticking left different air"
        );
        if step % 40 == 39 {
            let mut once = spec.build(topo, seed);
            once.tick(now);
            assert!(
                want == snapshot(once.as_ref(), &links, now),
                "{what}: one call left different air"
            );
            // Same seed, same air; another seed, other air.
            let mut other = spec.build(topo, seed + 1);
            other.tick(now);
            assert!(
                want != snapshot(other.as_ref(), &links, now),
                "{what}: seed {} gives the same air",
                seed + 1
            );
        }
    }
    assert!(now > 100 * epoch, "the schedule covers too few epochs");
}

#[test]
fn path_ignores_tick_schedule() {
    let bursty = ChannelSpec::bursty_matched(0.2, 0.05, 0.25, 10);
    let drift = ChannelSpec::TimeVarying {
        amplitude: 0.2,
        period_ms: 3_000,
        walk_sigma: 0.02,
        epoch_ms: 20,
    };
    let shadow = ChannelSpec::Shadowing {
        path_loss_exp: 3.0,
        sigma_db: 6.0,
        midpoint_m: 35.0,
        epoch_ms: 50,
    };
    let testbed = generate::testbed(1);
    let city = generate::city_mesh(2_000, 1);
    for seed in [1, 2, 3] {
        check_path(&testbed, &bursty, 10, seed);
        check_path(&testbed, &drift, 20, seed);
        check_path(&testbed, &shadow, 50, seed);
        // Matrix-backed models only: shadowing's pair table is n × n.
        check_path(&city, &bursty, 10, seed);
        check_path(&city, &drift, 20, seed);
    }
}

// ---------------------------------------------------------------------
// (c) The row.
// ---------------------------------------------------------------------

/// The medium's reception-candidate list for `tx`: every node linked to it
/// in either direction, by the matrix or under the channel.
fn medium_candidates(topo: &Topology, chan: &dyn ChannelModel, tx: NodeId) -> Vec<u32> {
    topo.nodes()
        .filter(|&r| {
            r != tx
                && (topo.delivery(tx, r) > 0.0
                    || topo.delivery(r, tx) > 0.0
                    || chan.may_reach(tx, r)
                    || chan.may_reach(r, tx))
        })
        .map(|r| r.0 as u32)
        .collect()
}

/// Holds `chan.delivery_row` to `chan.delivery` at `now`, for `txs` and
/// four kinds of candidate list each. Returns how many candidates read a
/// positive delivery (so a caller can tell the check was not vacuous).
fn check_rows(
    what: &str,
    topo: &Topology,
    chan: &dyn ChannelModel,
    txs: &[NodeId],
    now: Time,
    lists: &mut ChaCha8Rng,
) -> usize {
    let n = topo.n() as u32;
    // Stale contents: the row must clear them.
    let mut row = vec![f64::NAN; 3];
    let mut positive = 0;
    for &tx in txs {
        let own = medium_candidates(topo, chan, tx);
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
    }
    positive
}

#[test]
fn row_is_delivery_per_candidate() {
    let specs = [
        ChannelSpec::Static,
        ChannelSpec::bursty_matched(0.2, 0.05, 0.25, 10),
        ChannelSpec::TimeVarying {
            amplitude: 0.2,
            period_ms: 3_000,
            walk_sigma: 0.02,
            epoch_ms: 20,
        },
        ChannelSpec::Shadowing {
            path_loss_exp: 3.0,
            sigma_db: 6.0,
            midpoint_m: 35.0,
            epoch_ms: 50,
        },
    ];
    let testbed = generate::testbed(1);
    let city = generate::city_mesh(2_000, 1);
    for (topo, tx_count) in [(&testbed, testbed.n()), (&city, 60)] {
        for spec in &specs {
            if topo.n() > 100 && matches!(spec, ChannelSpec::Shadowing { .. }) {
                continue; // its pair table is n × n: testbed-sized meshes only
            }
            let what = format!("{} on {}", spec.label(), topo.name);
            let mut script = ChaCha8Rng::seed_from_u64(7);
            let mut chan = spec.build(topo, 3);
            let mut now: Time = 0;
            let mut positive = 0;
            // At build, then after random ticks: sub-epoch steps and jumps.
            for _ in 0..6 {
                let txs: Vec<NodeId> = (0..tx_count)
                    .map(|_| NodeId(script.gen_range(0..topo.n())))
                    .collect();
                positive += check_rows(&what, topo, chan.as_ref(), &txs, now, &mut script);
                now += script.gen_range(1..400 * MS);
                chan.tick(now);
            }
            assert!(positive > 1_000, "{what}: only {positive} live candidates");
        }
    }
}

#[test]
fn a_model_without_its_own_row_gets_the_per_pair_loop() {
    // The provided method, through a model that does not override it.
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
