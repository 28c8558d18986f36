//! Probe-based link estimation, standing in for Roofnet's ETX module.
//!
//! The paper measures pairwise delivery probabilities with ten minutes of
//! periodic ping probes before every run (§4.1.2) and feeds the same
//! estimates to all three protocols. [`LinkEstimator`] reproduces that
//! measurement process: each directed link's estimate is the empirical
//! success rate of `probes` Bernoulli trials at the true probability —
//! binomially distributed noise, exactly what a real prober sees.
//!
//! [`LinkEstimator::estimate_live`] runs the probe window: probe rounds
//! are spaced in time and each round samples an instantaneous-delivery
//! callback, so ETX/EOTX inputs can be measured from a live, time-varying
//! channel (`mesh_sim::channel`) rather than read off the topology —
//! separating what the routing layer *believes* from what the air
//! *does*. A callback that reads the topology
//! (`|tx, rx, _| truth.delivery(tx, rx)`) probes a static truth.

use crate::{Link, NodeId, Topology};

use crate::streams::{self, Stream};

/// Configuration for the probing process.
#[derive(Clone, Copy, Debug)]
pub struct LinkEstimator {
    /// Number of probe frames per directed link (Roofnet sends one probe
    /// per second; 600 probes ≈ the paper's 10-minute warm-up).
    pub probes: u32,
    /// Links whose *estimated* delivery falls below this are dropped from
    /// the estimate, as a real prober never hears them often enough to
    /// advertise them.
    pub min_delivery: f64,
}

impl Default for LinkEstimator {
    fn default() -> Self {
        LinkEstimator {
            probes: 600,
            min_delivery: 0.05,
        }
    }
}

impl LinkEstimator {
    /// Windowed probing of a live channel: `probes` rounds, one every
    /// `interval_us` simulated microseconds, each sampling
    /// `delivery_at(tx, rx, now)` for every link of `truth` (in
    /// [`Topology::links`] order) and drawing one Bernoulli probe at that
    /// instantaneous probability.
    ///
    /// Only `truth`'s links are probed: a live channel delivers on no
    /// other pair (`mesh_sim::channel`'s contract), and that keeps a
    /// window at O(links · probes) draws on sparse meshes.
    ///
    /// The estimate of a link is its success rate over the whole window —
    /// a bursty channel that averages to the static topology yields the
    /// same beliefs in expectation. Deterministic in `seed`; probe draws
    /// use their own stream ([`Stream::Probe`]), independent of both the
    /// run's main RNG and whatever stream the callback's channel model
    /// owns. Links estimated below `min_delivery`, and links no probe
    /// crossed, are dropped; the result keeps `truth`'s node count and
    /// positions.
    ///
    /// ```
    /// use mesh_topology::estimator::LinkEstimator;
    /// use mesh_topology::generate;
    ///
    /// let truth = generate::line(2, 0.8, 0.0, 30.0);
    /// let est = LinkEstimator { probes: 2000, min_delivery: 0.05 };
    /// // A closure that reads the topology probes a static truth.
    /// let believed = est.estimate_live(&truth, 7, 1_000, |tx, rx, _now| {
    ///     truth.delivery(tx, rx)
    /// });
    /// assert!((believed.delivery(0.into(), 1.into()) - 0.8).abs() < 0.05);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `probes` is zero.
    pub fn estimate_live(
        &self,
        truth: &Topology,
        seed: u64,
        interval_us: u64,
        mut delivery_at: impl FnMut(NodeId, NodeId, u64) -> f64,
    ) -> Topology {
        assert!(self.probes > 0, "need at least one probe");
        let mut rng = streams::rng(seed, Stream::Probe);
        let mut successes = vec![0u32; truth.link_count()];
        for round in 0..self.probes {
            let now = round as u64 * interval_us;
            for (hits, l) in successes.iter_mut().zip(truth.links()) {
                let p = delivery_at(l.from, l.to, now);
                *hits += u32::from(streams::bernoulli(&mut rng, p));
            }
        }
        let links = truth
            .links()
            .zip(successes)
            .map(|(l, hits)| Link {
                delivery: hits as f64 / self.probes as f64,
                ..l
            })
            // A link never heard is no link, whatever the threshold.
            .filter(|l| l.delivery > 0.0 && l.delivery >= self.min_delivery)
            .collect();
        let mut t = Topology::from_links(format!("{}-est", truth.name), truth.n(), links);
        if let Some(pos) = truth.positions() {
            t = t.with_positions(pos.to_vec());
        }
        t
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::generate;

    /// A probe window over a static truth: every round samples the
    /// topology itself.
    fn probe(est: &LinkEstimator, truth: &Topology, seed: u64) -> Topology {
        est.estimate_live(truth, seed, 1_000, |tx, rx, _| truth.delivery(tx, rx))
    }

    #[test]
    fn estimates_converge_with_many_probes() {
        // Each estimate is a binomial success rate: within five standard
        // deviations of the truth on every link.
        let truth = generate::testbed(1);
        let est = LinkEstimator {
            probes: 20_000,
            min_delivery: 0.0,
        };
        let believed = probe(&est, &truth, 99);
        for l in truth.links() {
            let e = believed.delivery(l.from, l.to);
            let sd = (l.delivery * (1.0 - l.delivery) / est.probes as f64).sqrt();
            assert!(
                (e - l.delivery).abs() <= 5.0 * sd,
                "estimate {e} far from truth {} on {:?}",
                l.delivery,
                (l.from, l.to)
            );
        }
    }

    #[test]
    fn estimates_are_noisy_with_few_probes() {
        let truth = generate::testbed(1);
        let est = LinkEstimator {
            probes: 30,
            min_delivery: 0.0,
        };
        let believed = probe(&est, &truth, 7);
        // At 30 probes the estimates quantize to 1/30 steps; at least one
        // link must differ from truth.
        let any_diff = truth
            .links()
            .any(|l| (believed.delivery(l.from, l.to) - l.delivery).abs() > 1e-9);
        assert!(any_diff);
    }

    #[test]
    fn deterministic_in_seed() {
        let truth = generate::testbed(2);
        let est = LinkEstimator::default();
        let links = |seed| probe(&est, &truth, seed).links().collect::<Vec<_>>();
        assert_eq!(links(5), links(5));
        assert_ne!(links(5), links(6));
    }

    #[test]
    fn a_link_never_heard_is_dropped_even_at_floor_zero() {
        // A window over air where the first hop is out: its estimate is
        // 0, which no topology link may carry.
        let truth = generate::line(2, 0.9, 0.0, 30.0);
        let est = LinkEstimator {
            probes: 50,
            min_delivery: 0.0,
        };
        let believed = est.estimate_live(&truth, 3, 1_000, |tx, rx, _| {
            if tx.0 == 0 && rx.0 == 1 {
                0.0
            } else {
                truth.delivery(tx, rx)
            }
        });
        assert_eq!(believed.delivery(0.into(), 1.into()), 0.0);
        assert_eq!(believed.link_count(), truth.link_count() - 1);
    }

    #[test]
    fn links_heard_below_min_delivery_are_dropped() {
        // The floor filters the estimates and changes no draw.
        let truth = generate::testbed(1);
        let window = |min_delivery| {
            let est = LinkEstimator {
                probes: 600,
                min_delivery,
            };
            probe(&est, &truth, 4)
        };
        let (all, floor) = (window(0.0), 0.5);
        let kept = window(floor);
        let mut dropped = 0;
        for l in all.links() {
            let e = kept.delivery(l.from, l.to);
            if l.delivery >= floor {
                assert_eq!(e, l.delivery, "{l:?}");
            } else {
                assert_eq!(e, 0.0, "{l:?} kept below the floor");
                dropped += 1;
            }
        }
        assert!(dropped > 0, "no testbed link is heard under half the time");
        assert_eq!(kept.link_count(), all.link_count() - dropped);
    }

    #[test]
    fn preserves_positions_and_structure() {
        let truth = generate::testbed(3);
        let est = probe(&LinkEstimator::default(), &truth, 1);
        assert_eq!(est.n(), truth.n());
        assert!(est.positions().is_some());
        // No estimated link where none exists.
        for i in truth.nodes() {
            for j in truth.nodes() {
                if truth.delivery(i, j) == 0.0 {
                    assert_eq!(est.delivery(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn windowed_probing_averages_a_flapping_link() {
        // The link alternates 1.0 / 0.0 every second; the window mean is 0.5.
        let truth = generate::line(1, 0.9, 0.0, 30.0);
        let est = LinkEstimator {
            probes: 4000,
            min_delivery: 0.05,
        };
        let believed = est.estimate_live(&truth, 3, 1_000_000, |_, _, now| {
            if (now / 1_000_000).is_multiple_of(2) {
                1.0
            } else {
                0.0
            }
        });
        let e = believed.delivery(NodeId(0), NodeId(1));
        assert!((e - 0.5).abs() < 0.02, "windowed mean {e} should be ≈ 0.5");
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probes_panics() {
        let truth = generate::motivating();
        let est = LinkEstimator {
            probes: 0,
            min_delivery: 0.0,
        };
        probe(&est, &truth, 0);
    }
}
