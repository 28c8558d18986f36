//! Algorithm 1, TX credits (Eq 3.3), and pruning — the per-flow plan a
//! MORE source distributes in its packet headers (§3.2.1).
//!
//! Given a distance metric toward the destination (ETX in the shipped
//! protocol; EOTX for the §5.7 comparison), the plan:
//!
//! 1. keeps only nodes strictly closer to the destination than the source
//!    ("we can ignore nodes whose ETX to the destination is greater than
//!    that of the source");
//! 2. computes each node's expected transmissions `z_i` per source packet
//!    (Algorithm 1);
//! 3. prunes forwarders expected to perform less than a configurable
//!    fraction (10 % in MORE) of all transmissions, and optionally caps the
//!    forwarder list (the implementation bounds it to 10, §4.6c), then
//!    recomputes `z` over the survivors;
//! 4. derives the TX credit of every forwarder (Eq 3.3): transmissions owed
//!    per packet *received from upstream*.

#![expect(
    clippy::indexing_slicing,
    reason = "credit matrices are square in the participant count fixed at build and indices come from the same participant ordering"
)]

use crate::EPS;
use mesh_topology::{NodeId, Topology};

/// Tuning for [`ForwarderPlan::compute`].
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    /// Prune forwarders with `z_i < prune_fraction · Σ z_j` (§3.2.1
    /// "Pruning"; MORE uses 0.1). Zero disables pruning.
    pub prune_fraction: f64,
    /// Hard cap on intermediate forwarders (the header bounds it to 10,
    /// §4.6c). `None` disables the cap.
    pub max_forwarders: Option<usize>,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            prune_fraction: 0.1,
            max_forwarders: Some(10),
        }
    }
}

impl PlanConfig {
    /// No pruning, no cap — the raw Algorithm 1 output (used by the theory
    /// code and the gap analysis).
    pub fn unpruned() -> Self {
        PlanConfig {
            prune_fraction: 0.0,
            max_forwarders: None,
        }
    }
}

/// The routing state MORE carries per flow: participating nodes in metric
/// order, expected transmission counts, and TX credits.
#[derive(Clone, Debug)]
pub struct ForwarderPlan {
    pub src: NodeId,
    pub dst: NodeId,
    /// Participants sorted by ascending metric: `order[0] == dst`, last is
    /// `src`. Includes only surviving (un-pruned) nodes.
    pub order: Vec<NodeId>,
    /// `z[i]` — expected transmissions node `i` makes per source packet;
    /// zero for non-participants. Indexed by raw node id.
    pub z: Vec<f64>,
    /// `L[i]` — expected packets node `i` must forward per source packet
    /// (Eq 3.1); `L[dst]` is the delivered flow and ≈ 1.
    pub load: Vec<f64>,
    /// `tx_credit[i]` — Eq (3.3): transmissions per packet heard from
    /// upstream. Zero for the source (it is clocked by its own send loop)
    /// and the destination.
    pub tx_credit: Vec<f64>,
}

impl ForwarderPlan {
    /// Builds the plan for a `src → dst` flow under the given metric.
    ///
    /// `metric` must hold each node's distance to `dst` (e.g.
    /// [`crate::EtxTable::distances`]); `metric[dst] == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`, either id is out of range, or the source
    /// cannot reach the destination under the metric.
    pub fn compute(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        metric: &[f64],
        cfg: &PlanConfig,
    ) -> Self {
        let n = topo.n();
        assert!(src.0 < n && dst.0 < n, "node out of range");
        assert_ne!(src, dst, "source equals destination");
        assert_eq!(metric.len(), n, "metric length mismatch");
        assert!(
            metric[src.0].is_finite(),
            "source cannot reach destination under the metric"
        );

        // Strict order key: (metric, id). A node participates when it is
        // strictly closer than the source under this order.
        let key = |i: usize| (metric[i], i);
        let mut participants: Vec<usize> = (0..n)
            .filter(|&i| i == src.0 || (metric[i].is_finite() && key(i) < key(src.0)))
            .collect();
        participants.sort_by(|&a, &b| {
            let (ka, kb) = (key(a), key(b));
            ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1))
        });
        debug_assert_eq!(participants[0], dst.0, "destination must be cheapest");

        let (z, load) = algorithm1(topo, &participants, src.0);

        // Pruning pass (§3.2.1): drop low-contribution forwarders, then
        // recompute z over the survivors so credits stay consistent.
        //
        // The paper's bare rule (z_i < 0.1·Σz_j) can disconnect a long
        // flow whose transmissions spread thinly over many relays, so
        // removal is *connectivity-checked*: a forwarder is pruned only if
        // the recomputed plan still delivers the unit flow. Forwarders are
        // tried lowest-z first; the same guarded loop then enforces the
        // forwarder cap (§4.6c).
        let mut survivors = participants.clone();
        let mut z = z;
        let mut load = load;
        let mut protected: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        loop {
            let total: f64 = z.iter().sum();
            let over_cap = cfg
                .max_forwarders
                .is_some_and(|cap| survivors.len().saturating_sub(2) > cap);
            // Lowest-z removable forwarder that violates a rule.
            let candidate = survivors
                .iter()
                .copied()
                .filter(|&i| i != src.0 && i != dst.0 && !protected.contains(&i))
                .filter(|&i| {
                    over_cap
                        || (cfg.prune_fraction > 0.0 && z[i] < cfg.prune_fraction * total - EPS)
                })
                .min_by(|&a, &b| z[a].total_cmp(&z[b]));
            let Some(worst) = candidate else { break };
            let trial: Vec<usize> = survivors.iter().copied().filter(|&i| i != worst).collect();
            let (tz, tload) = algorithm1(topo, &trial, src.0);
            if tload[dst.0] >= 1.0 - 1e-6 {
                survivors = trial;
                z = tz;
                load = tload;
            } else {
                // Removing this node strands flow; keep it regardless of
                // its low contribution.
                protected.insert(worst);
            }
        }

        // Eq (3.3): TX_credit_i = z_i / Σ_{j upstream of i} z_j (1 − ε_ji).
        let mut tx_credit = vec![0.0; n];
        for (pos, &i) in survivors.iter().enumerate() {
            if i == src.0 || i == dst.0 {
                continue;
            }
            let mut heard = 0.0;
            for &j in &survivors[pos + 1..] {
                heard += z[j] * topo.delivery(NodeId(j), NodeId(i));
            }
            if heard > EPS {
                tx_credit[i] = z[i] / heard;
            }
        }

        ForwarderPlan {
            src,
            dst,
            order: survivors.into_iter().map(NodeId).collect(),
            z,
            load,
            tx_credit,
        }
    }

    /// Total expected transmissions per delivered packet, Σ z_i.
    pub fn total_cost(&self) -> f64 {
        self.z.iter().sum()
    }

    /// Intermediate forwarders (everyone but src and dst), ordered by
    /// ascending metric — the header's forwarder list.
    pub fn forwarders(&self) -> Vec<NodeId> {
        self.order
            .iter()
            .copied()
            .filter(|&i| i != self.src && i != self.dst)
            .collect()
    }

    /// True if `i` participates in this flow (src, dst, or forwarder).
    pub fn participates(&self, i: NodeId) -> bool {
        self.order.contains(&i)
    }

    /// Position of `i` in the ascending-metric order, if it participates.
    pub fn rank(&self, i: NodeId) -> Option<usize> {
        self.order.iter().position(|&x| x == i)
    }
}

/// Algorithm 1 over an ascending-ordered participant list.
///
/// Returns `(z, load)`, both indexed by raw node id and zero for
/// non-participants.
fn algorithm1(topo: &Topology, order: &[usize], src: usize) -> (Vec<f64>, Vec<f64>) {
    let n = topo.n();
    let mut z = vec![0.0; n];
    let mut load = vec![0.0; n];
    load[src] = 1.0; // L_n ← 1 {at source}

    // From the source down to (but excluding) the destination at position 0.
    for pos in (1..order.len()).rev() {
        let i = order[pos];
        if load[i] <= 0.0 {
            continue;
        }
        // Denominator: probability that at least one cheaper participant
        // hears i.
        let mut p_none = 1.0;
        for &k in &order[..pos] {
            p_none *= topo.loss(NodeId(i), NodeId(k));
        }
        let reach = 1.0 - p_none;
        if reach <= EPS {
            // i cannot make progress; it contributes nothing (packets that
            // only i holds are lost — matches the LP where such a node
            // would receive no flow).
            z[i] = 0.0;
            continue;
        }
        z[i] = load[i] / reach;

        // Contribution of i to every cheaper node's load:
        // L_j += z_i · Π_{k<j} ε_ik · (1 − ε_ij).
        let mut p_closer_all_missed = 1.0;
        for &j in &order[..pos] {
            let p_ij = topo.delivery(NodeId(i), NodeId(j));
            load[j] += z[i] * p_closer_all_missed * p_ij;
            p_closer_all_missed *= 1.0 - p_ij;
        }
    }
    (z, load)
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::etx::{EtxTable, LinkCost};
    use mesh_topology::generate;

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

    fn plan_for(topo: &Topology, src: usize, dst: usize, cfg: &PlanConfig) -> ForwarderPlan {
        let etx = EtxTable::compute(topo, NodeId(dst), LinkCost::Forward);
        ForwarderPlan::compute(topo, NodeId(src), NodeId(dst), etx.distances(), cfg)
    }

    #[test]
    fn single_perfect_link() {
        let t = topo("pair", 2, &[(0, 1, 1.0)]);
        let p = plan_for(&t, 0, 1, &PlanConfig::unpruned());
        assert!((p.z[0] - 1.0).abs() < 1e-9);
        assert!((p.load[1] - 1.0).abs() < 1e-9);
        assert!((p.total_cost() - 1.0).abs() < 1e-9);
        assert!(p.forwarders().is_empty());
    }

    #[test]
    fn single_lossy_link_costs_inverse_p() {
        let t = topo("pair", 2, &[(0, 1, 0.25)]);
        let p = plan_for(&t, 0, 1, &PlanConfig::unpruned());
        assert!((p.z[0] - 4.0).abs() < 1e-9, "z_src = 1/p");
        assert!((p.load[1] - 1.0).abs() < 1e-9, "delivered flow = 1");
    }

    #[test]
    fn motivating_example_loads() {
        // src(0) hears: dst via 0.49, R via 1.0. Every src transmission is
        // heard by R or dst, so z_src = 1. R must forward only what dst
        // missed: L_R = 0.51, z_R = 0.51.
        let t = generate::motivating();
        let p = plan_for(&t, 0, 2, &PlanConfig::unpruned());
        assert!((p.z[0] - 1.0).abs() < 1e-9, "z_src {}", p.z[0]);
        assert!((p.load[1] - 0.51).abs() < 1e-9, "L_R {}", p.load[1]);
        assert!((p.z[1] - 0.51).abs() < 1e-9, "z_R {}", p.z[1]);
        assert!((p.load[2] - 1.0).abs() < 1e-9, "delivered {}", p.load[2]);
        // Total cost 1.51 == the EOTX of the source on this topology.
        assert!((p.total_cost() - 1.51).abs() < 1e-9);
    }

    #[test]
    fn delivered_flow_is_unit_on_testbed() {
        let t = generate::testbed(0);
        for (s, d) in [(0usize, 19usize), (3, 11), (15, 2)] {
            let p = plan_for(&t, s, d, &PlanConfig::unpruned());
            assert!(
                (p.load[d] - 1.0).abs() < 1e-6,
                "delivered flow {} for {s}->{d}",
                p.load[d]
            );
        }
    }

    #[test]
    fn tx_credits_balance_expected_receptions() {
        // credit_i × (expected packets i hears from upstream) == z_i.
        let t = generate::testbed(1);
        let p = plan_for(&t, 0, 19, &PlanConfig::unpruned());
        for (pos, &i) in p.order.iter().enumerate() {
            if i == p.src || i == p.dst || p.tx_credit[i.0] == 0.0 {
                continue;
            }
            let heard: f64 = p.order[pos + 1..]
                .iter()
                .map(|&j| p.z[j.0] * t.delivery(j, i))
                .sum();
            assert!(
                (p.tx_credit[i.0] * heard - p.z[i.0]).abs() < 1e-9,
                "credit imbalance at {i}"
            );
        }
    }

    #[test]
    fn pruning_removes_low_contributors() {
        let t = generate::testbed(2);
        let raw = plan_for(&t, 4, 16, &PlanConfig::unpruned());
        let pruned = plan_for(&t, 4, 16, &PlanConfig::default());
        assert!(pruned.order.len() <= raw.order.len());
        // All pruned-plan forwarders carry their weight.
        let total = pruned.total_cost();
        for f in pruned.forwarders() {
            assert!(
                pruned.z[f.0] >= 0.1 * total - 1e-6 || pruned.forwarders().len() <= 1,
                "forwarder {f} kept despite z={} < 10% of {total}",
                pruned.z[f.0]
            );
        }
        // Source and destination always survive.
        assert!(pruned.participates(NodeId(4)));
        assert!(pruned.participates(NodeId(16)));
    }

    #[test]
    fn forwarder_cap_respected() {
        let t = generate::testbed(3);
        let cfg = PlanConfig {
            prune_fraction: 0.0,
            max_forwarders: Some(2),
        };
        let p = plan_for(&t, 0, 19, &cfg);
        assert!(p.forwarders().len() <= 2);
    }

    #[test]
    fn participants_are_strictly_closer_than_source() {
        let t = generate::testbed(4);
        let etx = EtxTable::compute(&t, NodeId(9), LinkCost::Forward);
        let p = ForwarderPlan::compute(
            &t,
            NodeId(2),
            NodeId(9),
            etx.distances(),
            &PlanConfig::unpruned(),
        );
        let src_key = (etx.dist(NodeId(2)), 2usize);
        for &i in &p.order {
            if i == NodeId(2) {
                continue;
            }
            assert!(
                (etx.dist(i), i.0) < src_key,
                "participant {i} not closer than source"
            );
        }
    }

    #[test]
    #[should_panic(expected = "source equals destination")]
    fn same_src_dst_panics() {
        let t = generate::motivating();
        let _ = plan_for(&t, 1, 1, &PlanConfig::unpruned());
    }

    #[test]
    fn order_is_ascending_metric() {
        let t = generate::testbed(5);
        let etx = EtxTable::compute(&t, NodeId(0), LinkCost::Forward);
        let p = ForwarderPlan::compute(
            &t,
            NodeId(19),
            NodeId(0),
            etx.distances(),
            &PlanConfig::default(),
        );
        for w in p.order.windows(2) {
            assert!((etx.dist(w[0]), w[0].0) < (etx.dist(w[1]), w[1].0));
        }
        assert_eq!(p.order[0], NodeId(0));
        assert_eq!(*p.order.last().unwrap(), NodeId(19));
    }

    #[test]
    fn nan_metric_entry_is_excluded_like_unreachable() {
        // total_cmp regression: a NaN distance used to panic the
        // participant sort; it must act like an unreachable node.
        let t = generate::motivating();
        let etx = EtxTable::compute(&t, NodeId(2), LinkCost::Forward);
        let mut with_nan = etx.distances().to_vec();
        let mut with_inf = with_nan.clone();
        with_nan[1] = f64::NAN;
        with_inf[1] = f64::INFINITY;
        let cfg = PlanConfig::unpruned();
        let p_nan = ForwarderPlan::compute(&t, NodeId(0), NodeId(2), &with_nan, &cfg);
        let p_inf = ForwarderPlan::compute(&t, NodeId(0), NodeId(2), &with_inf, &cfg);
        assert!(!p_nan.participates(NodeId(1)));
        assert_eq!(p_nan.order, p_inf.order);
        assert_eq!(p_nan.z, p_inf.z);
    }
}
