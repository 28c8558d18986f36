//! Lazily indexable reachable-pair pools, and the endpoint reachability
//! index.
//!
//! Pair-sampling traffic (Poisson arrivals, `RandomPairs`) draws from
//! "all reachable ordered pairs, in node order". Materializing that list
//! is O(n²) memory — ~10⁸ pairs on a 10k-node city mesh — even though a
//! Poisson run touches only a few thousand of them. A [`PairPool`]
//! exposes the *same sequence* (source-major, destination ascending)
//! through `len()` + `get(k)` while holding O(n) state: per-source
//! prefix counts plus every node's reachable set in one shared form. The
//! same pool answers whether a flow's source reaches its destination
//! ([`PairPool::reaches`]), which is how a cell checks its endpoints
//! against the topology routing sees.
//!
//! Reachability comes from one of two strategies:
//!
//! * **Symmetric support** (every `p > 0` link has a `p > 0` reverse —
//!   true of every built-in generator): reachable-from-`s` is exactly
//!   the connected component of `s`, so one O(links) BFS sweep
//!   ([`Topology::symmetric_components`]) labels every node, and one
//!   O(n) counting pass lays the nodes out component by component, so
//!   a component's members are one ascending slice; counts are
//!   component sizes and `reaches` compares labels.
//! * **Directed fallback**: one BFS per source asked about, O(links)
//!   each; the pair counts, which need every source's, are taken only
//!   when the pool is first counted or indexed.
//!
//! Determinism: `get(k)` is a pure function of `(topology, k)`; RNG
//! consumers that previously indexed the materialized list draw
//! byte-identical pairs through the pool.

#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "label/start/order vectors are sized at construction from the one labelling; get() asserts k < len() up front, partition_point over a prefix ending in len() keeps the source index in range, reaches() checks both endpoints against n, and a source always appears in its own member list (it reaches itself in 0 hops)"
)]

use mesh_topology::{NodeId, Topology};
use std::borrow::Cow;
use std::cell::OnceCell;

/// The connected components of a topology with symmetric support, laid
/// out component-major: component `c`'s members are
/// `order[start[c]..start[c + 1]]`, ascending.
struct Components {
    /// `label[i]` = the component of node `i`.
    label: Vec<u32>,
    start: Vec<usize>,
    order: Vec<NodeId>,
}

impl Components {
    /// Groups the nodes by label in one counting pass: filling in
    /// ascending node order keeps every component's slice sorted.
    fn new(label: Vec<u32>, sizes: &[usize]) -> Self {
        let start: Vec<usize> = std::iter::once(0)
            .chain(sizes.iter().scan(0, |total, &size| {
                *total += size;
                Some(*total)
            }))
            .collect();
        let mut fill = start.clone();
        let mut order = vec![NodeId(0); label.len()];
        for (i, &c) in label.iter().enumerate() {
            let slot = &mut fill[c as usize];
            order[*slot] = NodeId(i);
            *slot += 1;
        }
        Components {
            label,
            start,
            order,
        }
    }

    /// The ascending members of node `s`'s component.
    fn members(&self, s: usize) -> &[NodeId] {
        let c = self.label[s] as usize;
        &self.order[self.start[c]..self.start[c + 1]]
    }
}

/// The reachable ordered pairs of one topology, indexable without being
/// materialized.
#[must_use = "a pair pool does nothing until indexed"]
pub(crate) struct PairPool<'a> {
    /// The topology indexed.
    pub(crate) topo: &'a Topology,
    /// `prefix[s]` = reachable pairs with source `< s`; `prefix[n]` =
    /// total. Taken on first use.
    prefix: OnceCell<Vec<usize>>,
    /// The components when link support is symmetric; `None` selects the
    /// per-source BFS fallback.
    comp: Option<Components>,
}

impl<'a> PairPool<'a> {
    /// Builds the index for `topo`: O(links) when support is symmetric,
    /// nothing up front otherwise — never O(n²) memory.
    pub(crate) fn new(topo: &'a Topology) -> Self {
        PairPool {
            topo,
            prefix: OnceCell::new(),
            comp: topo
                .symmetric_components()
                .map(|(label, sizes)| Components::new(label, &sizes)),
        }
    }

    /// The per-source prefix counts: component sizes when support is
    /// symmetric, one BFS per source otherwise.
    fn prefix(&self) -> &[usize] {
        self.prefix.get_or_init(|| {
            let topo = self.topo;
            let reach = |i: usize| match &self.comp {
                Some(comp) => comp.members(i).len(),
                None => topo.hops_from(NodeId(i)).iter().flatten().count(),
            };
            // Each count includes the source itself.
            let mut acc = 0usize;
            let rest = (0..topo.n()).map(|i| {
                acc += reach(i) - 1;
                acc
            });
            std::iter::once(0).chain(rest).collect()
        })
    }

    /// Total number of reachable ordered pairs.
    pub(crate) fn len(&self) -> usize {
        *self
            .prefix()
            .last()
            .expect("prefix always has n + 1 entries")
    }

    /// True when no ordered pair is reachable at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sources with at least one reachable destination.
    pub(crate) fn sources_with_destinations(&self) -> usize {
        self.prefix().windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// The ascending list of nodes `s` reaches, itself included: a slice
    /// of the component layout, or one BFS on directed support.
    fn members(&self, s: usize) -> Cow<'_, [NodeId]> {
        match &self.comp {
            Some(comp) => Cow::Borrowed(comp.members(s)),
            None => {
                let hops = self.topo.hops_from(NodeId(s));
                let reached = hops.iter().enumerate().filter(|(_, h)| h.is_some());
                Cow::Owned(reached.map(|(i, _)| NodeId(i)).collect())
            }
        }
    }

    /// True when a `p > 0` path leads from `s` to `d` (a node reaches
    /// itself); endpoints outside the topology reach nothing.
    pub(crate) fn reaches(&self, s: NodeId, d: NodeId) -> bool {
        let n = self.topo.n();
        if s.0 >= n || d.0 >= n {
            return false;
        }
        match &self.comp {
            Some(comp) => comp.label[s.0] == comp.label[d.0],
            None => self.members(s.0).binary_search(&d).is_ok(),
        }
    }

    /// Pair `k` of the source-major, destination-ascending sequence —
    /// exactly `materialize()[k]`, computed lazily.
    pub(crate) fn get(&self, k: usize) -> (NodeId, NodeId) {
        assert!(k < self.len(), "pair index {k} out of {}", self.len());
        let prefix = self.prefix();
        let s = prefix.partition_point(|&p| p <= k) - 1;
        let r = k - prefix[s];
        let members = self.members(s);
        let pos = members
            .binary_search(&NodeId(s))
            .expect("a source always appears in its own reachable set");
        let d = if r < pos { members[r] } else { members[r + 1] };
        (NodeId(s), d)
    }

    /// The full materialized sequence — only for consumers that must
    /// shuffle the whole pool (O(n²) on dense topologies; avoid at city
    /// scale).
    pub(crate) fn materialize(&self) -> Vec<(NodeId, NodeId)> {
        let mut all = Vec::with_capacity(self.len());
        for s in self.topo.nodes() {
            let members = self.members(s.0);
            all.extend(members.iter().filter(|&&d| d != s).map(|&d| (s, d)));
        }
        all
    }
}

#[cfg(test)]
mod test {
    use super::*;
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

    /// The historical definition: every ordered pair a BFS from its
    /// source reaches, in node order.
    fn naive_pairs(topo: &Topology) -> Vec<(NodeId, NodeId)> {
        let mut all = Vec::new();
        for s in topo.nodes() {
            let hops = topo.hops_from(s);
            for d in topo.nodes() {
                if s != d && hops[d.0].is_some() {
                    all.push((s, d));
                }
            }
        }
        all
    }

    /// `pool` indexes and materializes `naive_pairs(pool.topo)`, every
    /// index of it.
    fn assert_naive(pool: &PairPool<'_>) {
        let (naive, name) = (naive_pairs(pool.topo), &pool.topo.name);
        assert_eq!(pool.len(), naive.len(), "{name}");
        for (k, &pair) in naive.iter().enumerate() {
            assert_eq!(pool.get(k), pair, "{name}: pair {k}");
        }
        assert_eq!(pool.materialize(), naive, "{name}");
    }

    #[test]
    fn pool_matches_naive_enumeration_symmetric() {
        // A sparse city mesh splits into many components, isolated nodes
        // among them, interleaved in node order.
        let city = generate::city_mesh(400, 1);
        let (label, sizes) = city
            .symmetric_components()
            .expect("city links are symmetric");
        assert!(sizes.len() > 20 && sizes.contains(&1) && sizes.iter().any(|&s| s > 3));
        assert!(label.windows(2).any(|w| w[1] < w[0]));
        for topo in [
            generate::testbed(1),
            generate::grid(3, 3, 0.8, 0.4, 30.0),
            city,
        ] {
            let pool = PairPool::new(&topo);
            assert!(pool.comp.is_some(), "{}: support is symmetric", topo.name);
            assert_naive(&pool);
        }
        // The diamond is a DAG (src → forwarders → dst): asymmetric
        // support, so the pool must take the per-source BFS fallback and
        // still reproduce the sequence.
        let topo = generate::diamond(4, 0.5);
        let pool = PairPool::new(&topo);
        assert!(pool.comp.is_none(), "diamond support is directed");
        assert_naive(&pool);
    }

    #[test]
    fn pool_matches_naive_enumeration_directed() {
        // A one-way chain plus an isolated node: support is asymmetric,
        // forcing the per-source BFS fallback.
        let topo = topo("oneway", 4, &[(0, 1, 0.9), (1, 2, 0.8)]);
        let pool = PairPool::new(&topo);
        assert!(
            pool.comp.is_none(),
            "asymmetric support must not use components"
        );
        let naive = naive_pairs(&topo);
        assert_eq!(
            naive,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2)),
            ]
        );
        assert_naive(&pool);
        assert_eq!(pool.sources_with_destinations(), 2);
    }

    #[test]
    fn random_access_agrees_with_sequence() {
        let topo = generate::testbed(3);
        let pool = PairPool::new(&topo);
        let all = naive_pairs(&topo);
        // Out-of-order access must not disturb the indexing.
        for &k in &[all.len() - 1, 0, all.len() / 2, 1] {
            assert_eq!(pool.get(k), all[k], "pair {k}");
        }
    }

    #[test]
    fn split_topology_spans_components() {
        // Node 4 is isolated.
        let topo = topo(
            "split",
            5,
            &[(0, 1, 0.9), (1, 0, 0.9), (2, 3, 0.9), (3, 2, 0.9)],
        );
        let pool = PairPool::new(&topo);
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.sources_with_destinations(), 4);
        assert_naive(&pool);
    }

    #[test]
    fn reaches_agrees_with_hops_from() {
        // Both strategies, plus endpoints one past the last node.
        let oneway = topo("oneway", 4, &[(0, 1, 0.9), (1, 2, 0.8)]);
        let split = topo(
            "split",
            5,
            &[(0, 1, 0.9), (1, 0, 0.9), (2, 3, 0.9), (3, 2, 0.9)],
        );
        for topo in [
            generate::testbed(1),
            generate::diamond(4, 0.5),
            oneway,
            split,
        ] {
            let pool = PairPool::new(&topo);
            let n = topo.n();
            for s in 0..=n {
                let hops = (s < n).then(|| topo.hops_from(NodeId(s)));
                for d in 0..=n {
                    let reached = hops
                        .as_ref()
                        .is_some_and(|h| h.get(d).is_some_and(Option::is_some));
                    assert_eq!(
                        pool.reaches(NodeId(s), NodeId(d)),
                        reached,
                        "{}: {s} -> {d}",
                        topo.name
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_single_node_pools() {
        let empty = topo("none", 0, &[]);
        assert_eq!(PairPool::new(&empty).len(), 0);
        let one = topo("lone", 1, &[]);
        let pool = PairPool::new(&one);
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.sources_with_destinations(), 0);
    }
}
