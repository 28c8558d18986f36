//! The EOTX metric (thesis §5.4–§5.5).
//!
//! EOTX of a node is "the minimum expected number of opportunistic
//! transmissions that need to be performed in the network in order to
//! deliver a single packet from source to sink", under the forwarding rule
//! *of all successful recipients, the one with the lowest EOTX forwards*.
//! Theorem 1 + Proposition 4 show it equals the optimal value of the
//! minimum-cost flow LP, and the closed form (5.15) is
//!
//! ```text
//! d(s) = (1 + Σ_{i<s} (q_i − q_{i−1})·d(i)) / q_{s−1}
//! ```
//!
//! where nodes are sorted by ascending cost and `q_k` is the probability
//! that at least one of the `k` cheapest nodes receives `s`'s transmission.
//!
//! Two solvers untangle the recursion:
//!
//! * [`EotxTable::compute`] — Algorithm 5, the Dijkstra-style pass for
//!   independent per-receiver losses, `O(n²)`.
//! * [`EotxTable::compute_bellman_ford`] — Algorithms 3–4, the
//!   Bellman–Ford-style relaxation (the shape suited to distributed
//!   implementations), kept as an independent implementation to
//!   cross-check the Dijkstra result.
//!
//! The admission test in `Recompute` follows the water-filling optimality
//! condition of Proposition 2: candidate `k` is admitted as a forwarder
//! exactly while `d(k) < T/q_{admitted so far}` — i.e. while it is cheaper
//! than the cost we would settle for without it.

#![expect(
    clippy::indexing_slicing,
    reason = "EOTX distance/forwarder matrices are square in the node count fixed at build; every loop index ranges over 0..n of those same matrices"
)]

use crate::etx::Entry;
use crate::{EPS, INF};
use mesh_topology::{NodeId, Topology};

/// Per-node EOTX distances to one destination.
#[derive(Clone, Debug)]
pub struct EotxTable {
    dst: NodeId,
    /// `dist[i]` = EOTX from node i to the destination.
    dist: Vec<f64>,
    /// `reach[i]` = probability that at least one *strictly cheaper* node
    /// receives a transmission from `i` (the `q_{i,(i−1)}` of §5.6.1;
    /// `z_i = L_i / reach[i]` for unit load).
    reach: Vec<f64>,
}

impl EotxTable {
    /// Algorithm 5: Dijkstra-fashion EOTX for independent losses.
    ///
    /// Extract-min runs on a lazy-deletion binary heap and relaxation
    /// walks the CSR in-row of the closed node, so the cost is
    /// O((n + E) log n) over the subgraph that can reach `dst` rather
    /// than the historical O(n²) scans. The closure order, the relaxation
    /// order (ascending in-neighbor id), and therefore every float
    /// operation are identical to the linear-scan implementation:
    /// estimates only decrease under relaxation, stale heap entries are
    /// skipped by an exact value comparison, and ties pop in ascending
    /// node id exactly as the scan's `dist[i] < dist[b]` kept the lowest
    /// index.
    pub fn compute(topo: &Topology, dst: NodeId) -> Self {
        let n = topo.n();
        assert!(dst.0 < n, "destination out of range");
        let mut dist = vec![INF; n];
        // T(i): accumulated 1 + Σ (q_k − q_{k−1}) d(k) over closed nodes k.
        let mut t_acc = vec![1.0; n];
        // P(i): probability NO closed node receives i's transmission.
        let mut p_none = vec![1.0; n];
        let mut closed = vec![false; n];
        dist[dst.0] = 0.0;

        let mut heap = std::collections::BinaryHeap::new();
        heap.push(Entry(0.0, dst.0));
        while let Some(Entry(d, k)) = heap.pop() {
            // Lazy deletion: entries left behind by later relaxations
            // carry an out-of-date (always larger) estimate.
            if closed[k] || d != dist[k] {
                continue;
            }
            closed[k] = true;
            // Relax every open node i that can reach k (ascending id).
            for (i, p_ik) in topo.neighbors_in(NodeId(k)) {
                let i = i.0;
                if closed[i] {
                    continue;
                }
                t_acc[i] += p_ik * p_none[i] * dist[k];
                p_none[i] *= 1.0 - p_ik;
                dist[i] = t_acc[i] / (1.0 - p_none[i]);
                heap.push(Entry(dist[i], i));
            }
        }

        let reach = p_none.iter().map(|p| 1.0 - p).collect();
        EotxTable { dst, dist, reach }
    }

    /// Algorithms 3–4: Bellman–Ford-fashion EOTX. Independent
    /// implementation used to cross-validate [`Self::compute`].
    pub fn compute_bellman_ford(topo: &Topology, dst: NodeId) -> Self {
        let n = topo.n();
        assert!(dst.0 < n, "destination out of range");
        let mut dist = vec![INF; n];
        dist[dst.0] = 0.0;

        for _ in 0..n {
            // Sort nodes by current estimate (Algorithm 4's "sort nodes in
            // order"); ties broken by id.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)));
            let mut new_dist = dist.clone();
            #[expect(clippy::needless_range_loop, reason = "i is also compared against dst")]
            for i in 0..n {
                if i == dst.0 {
                    continue;
                }
                new_dist[i] = recompute(topo, i, &order, &dist);
            }
            dist = new_dist;
        }

        // Recover reach from the final order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)));
        let mut reach = vec![0.0; n];
        for i in 0..n {
            let mut p_none = 1.0;
            for &k in &order {
                if (dist[k], k) >= (dist[i], i) {
                    break;
                }
                p_none *= 1.0 - topo.delivery(NodeId(i), NodeId(k));
            }
            reach[i] = 1.0 - p_none;
        }
        reach[dst.0] = 0.0;
        EotxTable { dst, dist, reach }
    }

    /// The destination this table routes toward.
    pub fn destination(&self) -> NodeId {
        self.dst
    }

    /// EOTX from `i` to the destination (∞ when unreachable).
    #[inline]
    pub fn dist(&self, i: NodeId) -> f64 {
        self.dist[i.0]
    }

    /// All distances, indexed by node.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// `q_{i,(i−1)}`: probability that some strictly cheaper node hears a
    /// transmission from `i`.
    #[inline]
    pub fn reach(&self, i: NodeId) -> f64 {
        self.reach[i.0]
    }

    /// Strict "closer to destination" order with id tie-breaking.
    pub fn closer(&self, a: NodeId, b: NodeId) -> bool {
        (self.dist[a.0], a.0) < (self.dist[b.0], b.0)
    }
}

/// Algorithm 3 (`Recompute(i)`) with the water-filling admission test:
/// walk candidates in ascending cost, admitting `k` while
/// `d(k) < T / q_admitted`.
fn recompute(topo: &Topology, i: usize, order: &[usize], dist: &[f64]) -> f64 {
    let mut t = 1.0;
    let mut q_prev = 0.0;
    for &k in order {
        if k == i {
            continue;
        }
        if dist[k].is_infinite() {
            break;
        }
        // Would-be cost with the current admitted set.
        let current = if q_prev > 0.0 { t / q_prev } else { INF };
        if dist[k] + EPS >= current {
            break; // k (and everyone after) is too expensive to help
        }
        let p_ik = topo.delivery(NodeId(i), NodeId(k));
        if p_ik <= 0.0 {
            continue;
        }
        let q_new = 1.0 - (1.0 - q_prev) * (1.0 - p_ik);
        t += (q_new - q_prev) * dist[k];
        q_prev = q_new;
    }
    if q_prev > 0.0 {
        t / q_prev
    } else {
        INF
    }
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

    fn assert_close(a: f64, b: f64, tol: f64, msg: &str) {
        if a.is_infinite() && b.is_infinite() {
            return;
        }
        assert!((a - b).abs() <= tol, "{msg}: {a} vs {b}");
    }

    #[test]
    fn motivating_example_eotx() {
        // src can reach dst (0.49) and R (1.0). Water filling:
        // d(src) = (1 + 0.49·0 + 0.51·1) / 1 = 1.51.
        let t = generate::motivating();
        let table = EotxTable::compute(&t, NodeId(2));
        assert_close(table.dist(NodeId(1)), 1.0, 1e-9, "R");
        assert_close(table.dist(NodeId(0)), 1.51, 1e-9, "src");
        assert_close(table.reach(NodeId(0)), 1.0, 1e-9, "src reach");
    }

    #[test]
    fn single_link_eotx_is_inverse_probability() {
        let t = topo("pair", 2, &[(0, 1, 0.25)]);
        let table = EotxTable::compute(&t, NodeId(1));
        assert_close(table.dist(NodeId(0)), 4.0, 1e-9, "1/p");
    }

    #[test]
    fn fig_5_1_diamond_values() {
        // Fig 5-1: through B with k forwarders, total EOTX from src is
        // 1/(1−(1−p)^k) + 2 when that beats A's 1/p + 1.
        let k = 10;
        let p = 0.1;
        let t = generate::diamond(k, p);
        let (src, a, b, _cs, dst) = generate::diamond_roles(k);
        let table = EotxTable::compute(&t, dst);
        assert_close(table.dist(a), 1.0, 1e-9, "A");
        let expect_b = 1.0 / (1.0 - (1.0 - p).powi(k as i32)) + 1.0;
        assert_close(table.dist(b), expect_b, 1e-9, "B");
        // src reaches B perfectly and A with p; B (cost ≈ 2.53 for k=10,
        // p=0.1) is cheaper than A's path cost seen from src.
        let d_src = table.dist(src);
        assert!(d_src < 1.0 / p + 1.0, "EOTX must beat the A-only path");
    }

    #[test]
    fn eotx_never_exceeds_etx() {
        // Opportunism can only help: EOTX ≤ ETX everywhere.
        for seed in 0..4u64 {
            let t = generate::testbed(seed);
            for dst in [NodeId(0), NodeId(7), NodeId(19)] {
                let etx = EtxTable::compute(&t, dst, LinkCost::Forward);
                let eotx = EotxTable::compute(&t, dst);
                for i in t.nodes() {
                    assert!(
                        eotx.dist(i) <= etx.dist(i) + 1e-6,
                        "EOTX > ETX at {i} (seed {seed}, dst {dst}): {} vs {}",
                        eotx.dist(i),
                        etx.dist(i)
                    );
                }
            }
        }
    }

    #[test]
    fn dijkstra_and_bellman_ford_agree() {
        for seed in 0..4u64 {
            let t = generate::testbed(seed);
            for dst in [NodeId(0), NodeId(10)] {
                let d = EotxTable::compute(&t, dst);
                let bf = EotxTable::compute_bellman_ford(&t, dst);
                for i in t.nodes() {
                    assert_close(
                        d.dist(i),
                        bf.dist(i),
                        1e-6,
                        &format!("node {i} seed {seed}"),
                    );
                }
            }
        }
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let t = topo("islands", 3, &[(0, 1, 0.9), (1, 0, 0.9)]);
        let table = EotxTable::compute(&t, NodeId(0));
        assert!(table.dist(NodeId(2)).is_infinite());
        assert!(table.dist(NodeId(1)).is_finite());
    }

    #[test]
    fn destination_is_zero() {
        let t = generate::testbed(0);
        let table = EotxTable::compute(&t, NodeId(3));
        assert_eq!(table.dist(NodeId(3)), 0.0);
        assert_eq!(table.reach(NodeId(3)), 0.0);
    }

    #[test]
    fn more_forwarders_reduce_eotx() {
        // Adding an extra relay can only lower (or keep) the source's EOTX.
        let two = topo("sparse", 3, &[(0, 1, 0.5), (0, 2, 0.3), (1, 2, 0.9)]);
        let three = topo(
            "dense",
            4,
            &[
                (0, 1, 0.5),
                (0, 2, 0.5),
                (0, 3, 0.3),
                (1, 3, 0.9),
                (2, 3, 0.9),
            ],
        );
        let d2 = EotxTable::compute(&two, NodeId(2)).dist(NodeId(0));
        let d3 = EotxTable::compute(&three, NodeId(3)).dist(NodeId(0));
        assert!(d3 < d2 + 1e-9, "extra forwarder made things worse");
    }
}
