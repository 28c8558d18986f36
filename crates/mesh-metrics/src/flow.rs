//! Algorithm 6: recovering the full flow solution `z, x` from a cost order
//! (§5.6.1), plus helpers to check the LP constraints of §5.3.2.
//!
//! Given nodes ordered by ascending cost (the EOTX order for the optimum;
//! any strict order for analysis), the water-filling solution distributes
//! each node's outgoing flow to strictly cheaper nodes in order:
//! `x_ij = (q_ij − q_i(j−1)) · z_i` with `z_i = L_i / q_i(i−1)`, where
//! `q_ij` is the probability at least one of the `j` cheapest nodes hears
//! `i`, and loads accumulate downstream from `L_src = 1`.

#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "the participant order is validated non-empty up front; all matrix indices range over that order's length"
)]

use crate::EPS;
use mesh_topology::{NodeId, Topology};

/// The minimum-cost flow solution for one unit of `src → dst` demand.
#[derive(Clone, Debug)]
pub struct FlowSolution {
    /// Participants in ascending cost order (`order[0] == dst`).
    pub order: Vec<NodeId>,
    /// `z[i]` — expected transmissions by node `i` per delivered packet.
    pub z: Vec<f64>,
    /// `x[i][j]` — innovative-information flow from `i` to `j`.
    pub x: Vec<Vec<f64>>,
    /// `load[i]` — `L_i`, the flow entering node `i`.
    pub load: Vec<f64>,
}

impl FlowSolution {
    /// Runs Algorithm 6 for the participant set `order` (ascending cost,
    /// destination first, source last).
    pub fn compute(topo: &Topology, order: &[NodeId], src: NodeId) -> Self {
        let n = topo.n();
        assert!(!order.is_empty(), "empty participant order");
        assert_eq!(
            *order.last().expect("non-empty"),
            src,
            "source must be the most expensive participant"
        );
        let mut z = vec![0.0; n];
        let mut x = vec![vec![0.0; n]; n];
        let mut load = vec![0.0; n];
        load[src.0] = 1.0;

        for pos in (1..order.len()).rev() {
            let i = order[pos];
            if load[i.0] <= EPS {
                continue;
            }
            // q over the cheaper prefix.
            let mut q_prev = 0.0;
            let mut q_full = 0.0;
            for &j in &order[..pos] {
                q_full = 1.0 - (1.0 - q_full) * (1.0 - topo.delivery(i, j));
            }
            if q_full <= EPS {
                continue; // stranded flow; matches Algorithm 1's behaviour
            }
            z[i.0] = load[i.0] / q_full;
            for &j in &order[..pos] {
                let q_new = 1.0 - (1.0 - q_prev) * (1.0 - topo.delivery(i, j));
                let xij = (q_new - q_prev) * z[i.0];
                x[i.0][j.0] = xij;
                load[j.0] += xij;
                q_prev = q_new;
            }
        }

        FlowSolution {
            order: order.to_vec(),
            z,
            x,
            load,
        }
    }

    /// Σ z_i — the objective of the minimum-cost LP (5.3).
    pub fn total_cost(&self) -> f64 {
        self.z.iter().sum()
    }

    /// Net flow out of node `i`: Σ_k x_ik − x_ki (LHS of Eq 5.1).
    pub fn net_flow(&self, i: NodeId) -> f64 {
        let n = self.x.len();
        let mut out = 0.0;
        for k in 0..n {
            out += self.x[i.0][k] - self.x[k][i.0];
        }
        out
    }

    /// Checks the flow-conservation constraints (Eq 5.1) for unit demand.
    pub fn conserves(&self, src: NodeId, dst: NodeId, tol: f64) -> bool {
        let n = self.x.len();
        (0..n).all(|i| {
            let expect = if i == src.0 {
                1.0
            } else if i == dst.0 {
                -1.0
            } else {
                0.0
            };
            // Nodes that never carry flow trivially conserve.
            (self.net_flow(NodeId(i)) - expect).abs() <= tol
                || (expect == 0.0 && self.load[i] <= EPS)
        })
    }

    /// Checks the per-hyperedge cost constraints (Eq 5.2) for the prefix
    /// sets `{1..k}` — the binding family by Proposition 3.
    pub fn satisfies_cost_constraints(&self, topo: &Topology, tol: f64) -> bool {
        for (pos, &i) in self.order.iter().enumerate() {
            let mut q = 0.0;
            let mut xsum = 0.0;
            for &j in &self.order[..pos] {
                q = 1.0 - (1.0 - q) * (1.0 - topo.delivery(i, j));
                xsum += self.x[i.0][j.0];
                if q * self.z[i.0] + tol < xsum {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::credits::{ForwarderPlan, PlanConfig};
    use crate::eotx::EotxTable;
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

    /// Participants under a metric, ascending, source last (mirrors
    /// ForwarderPlan's eligibility rule).
    fn order_for(topo: &mesh_topology::Topology, metric: &[f64], src: usize) -> Vec<NodeId> {
        let key = |i: usize| (metric[i], i);
        let mut v: Vec<usize> = (0..topo.n())
            .filter(|&i| i == src || (metric[i].is_finite() && key(i) < key(src)))
            .collect();
        v.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).unwrap());
        v.into_iter().map(NodeId).collect()
    }

    #[test]
    fn flow_conserves_on_testbed() {
        let t = generate::testbed(0);
        let (s, d) = (NodeId(19), NodeId(0));
        let eotx = EotxTable::compute(&t, d);
        let order = order_for(&t, eotx.distances(), s.0);
        let sol = FlowSolution::compute(&t, &order, s);
        assert!(sol.conserves(s, d, 1e-6));
        assert!(sol.satisfies_cost_constraints(&t, 1e-9));
    }

    #[test]
    fn flow_total_cost_equals_source_eotx() {
        // §5.6.2: with the EOTX order, Σ z_i == d(src).
        for seed in 0..3u64 {
            let t = generate::testbed(seed);
            for (s, d) in [(19usize, 0usize), (7, 12)] {
                let eotx = EotxTable::compute(&t, NodeId(d));
                let order = order_for(&t, eotx.distances(), s);
                let sol = FlowSolution::compute(&t, &order, NodeId(s));
                assert!(
                    (sol.total_cost() - eotx.dist(NodeId(s))).abs() < 1e-6,
                    "seed {seed} {s}->{d}: {} vs {}",
                    sol.total_cost(),
                    eotx.dist(NodeId(s))
                );
            }
        }
    }

    #[test]
    fn algorithm1_equals_algorithm6_under_same_order() {
        // §5.6.2: for independent losses Alg 1 (credits) and Alg 6 (flow)
        // compute the same z — under any strict order, here ETX's.
        for seed in 0..3u64 {
            let t = generate::testbed(seed);
            let (s, d) = (NodeId(17), NodeId(1));
            let etx = EtxTable::compute(&t, d, LinkCost::Forward);
            let plan = ForwarderPlan::compute(&t, s, d, etx.distances(), &PlanConfig::unpruned());
            let order = order_for(&t, etx.distances(), s.0);
            assert_eq!(plan.order, order, "participant sets differ");
            let sol = FlowSolution::compute(&t, &order, s);
            for i in t.nodes() {
                assert!(
                    (plan.z[i.0] - sol.z[i.0]).abs() < 1e-9,
                    "z mismatch at {i} (seed {seed}): {} vs {}",
                    plan.z[i.0],
                    sol.z[i.0]
                );
            }
        }
    }

    #[test]
    fn flow_only_moves_downhill() {
        let t = generate::testbed(1);
        let (s, d) = (NodeId(5), NodeId(14));
        let eotx = EotxTable::compute(&t, d);
        let order = order_for(&t, eotx.distances(), s.0);
        let sol = FlowSolution::compute(&t, &order, s);
        let rank: std::collections::BTreeMap<NodeId, usize> =
            order.iter().enumerate().map(|(r, &n)| (n, r)).collect();
        for i in t.nodes() {
            for j in t.nodes() {
                if sol.x[i.0][j.0] > 0.0 {
                    assert!(rank[&i] > rank[&j], "flow from {i} to non-cheaper {j}");
                }
            }
        }
    }

    #[test]
    fn two_node_flow() {
        let t = topo("pair", 2, &[(0, 1, 0.5)]);
        let order = vec![NodeId(1), NodeId(0)];
        let sol = FlowSolution::compute(&t, &order, NodeId(0));
        assert!((sol.z[0] - 2.0).abs() < 1e-9);
        assert!((sol.x[0][1] - 1.0).abs() < 1e-9);
        assert!(sol.conserves(NodeId(0), NodeId(1), 1e-9));
    }

    #[test]
    #[should_panic(expected = "most expensive participant")]
    fn wrong_source_position_panics() {
        let t = generate::motivating();
        let order = vec![NodeId(0), NodeId(1), NodeId(2)];
        let _ = FlowSolution::compute(&t, &order, NodeId(0));
    }
}
