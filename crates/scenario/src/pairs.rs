//! Lazily indexable reachable-pair pools.
//!
//! Pair-sampling traffic (Poisson arrivals, `RandomPairs`) draws from
//! "all reachable ordered pairs, in node order". Materializing that list
//! is O(n²) memory — ~10⁸ pairs on a 10k-node city mesh — even though a
//! Poisson run touches only a few thousand of them. A [`PairPool`]
//! exposes the *same sequence* (source-major, destination ascending)
//! through `len()` + `get(k)` while holding O(n) state: per-source
//! prefix counts plus memoized destination lists for the sources
//! actually drawn.
//!
//! Reachability counts come from one of two strategies:
//!
//! * **Symmetric support** (every `p > 0` link has a `p > 0` reverse —
//!   true of every built-in generator): reachable-from-`s` is exactly
//!   the connected component of `s`, so one O(links) BFS sweep labels
//!   every node and counts are component sizes.
//! * **Directed fallback**: one BFS per source, O(n · links) time but
//!   still O(n) memory.
//!
//! Determinism: `get(k)` is a pure function of `(topology, k)`; RNG
//! consumers that previously indexed the materialized list draw
//! byte-identical pairs through the pool.

#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "prefix/comp vectors are sized n+1/n at construction; get() asserts k < len() up front, partition_point over a prefix ending in len() keeps the source index in range, and a source always appears in its own memoized member list (it reaches itself in 0 hops)"
)]

use mesh_topology::{NodeId, Topology};
use std::collections::{BTreeMap, VecDeque};

/// The reachable ordered pairs of one topology, indexable without being
/// materialized.
#[must_use = "a pair pool does nothing until indexed"]
pub(crate) struct PairPool<'a> {
    topo: &'a Topology,
    /// `prefix[s]` = reachable pairs with source `< s`; `prefix[n]` = total.
    prefix: Vec<usize>,
    /// Component id per node when link support is symmetric; `None`
    /// selects the per-source BFS fallback.
    comp: Option<Vec<u32>>,
    /// Memoized ascending member lists, keyed by component id (symmetric)
    /// or source id (directed fallback). Each list contains the source
    /// itself; `get` skips over it.
    members: BTreeMap<u32, Vec<NodeId>>,
}

/// Component labels and sizes of the undirected support graph, or `None`
/// when some link lacks a `p > 0` reverse (reachability is then truly
/// directed and components would over-count).
pub(crate) fn symmetric_components(topo: &Topology) -> Option<(Vec<u32>, Vec<usize>)> {
    for l in topo.links() {
        if topo.delivery(l.to, l.from) <= 0.0 {
            return None;
        }
    }
    let n = topo.n();
    let mut comp = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    for s in 0..n {
        if comp[s] != u32::MAX {
            continue;
        }
        let id = sizes.len() as u32;
        comp[s] = id;
        let mut size = 0usize;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for v in topo.neighbors(NodeId(u)) {
                if comp[v.0] == u32::MAX {
                    comp[v.0] = id;
                    queue.push_back(v.0);
                }
            }
        }
        sizes.push(size);
    }
    Some((comp, sizes))
}

impl<'a> PairPool<'a> {
    /// Builds the index for `topo`: O(links) when support is symmetric,
    /// O(n · links) otherwise — never O(n²) memory.
    pub(crate) fn new(topo: &'a Topology) -> Self {
        let n = topo.n();
        let sym = symmetric_components(topo);
        let counts: Vec<usize> = match &sym {
            Some((comp, sizes)) => (0..n).map(|i| sizes[comp[i] as usize] - 1).collect(),
            None => (0..n)
                .map(|i| {
                    let reach = topo
                        .hops_from(NodeId(i))
                        .iter()
                        .filter(|h| h.is_some())
                        .count();
                    reach - 1 // hops_from counts the source itself
                })
                .collect(),
        };
        let mut prefix = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        prefix.push(0);
        for c in counts {
            acc += c;
            prefix.push(acc);
        }
        PairPool {
            topo,
            prefix,
            comp: sym.map(|(c, _)| c),
            members: BTreeMap::new(),
        }
    }

    /// Total number of reachable ordered pairs.
    pub(crate) fn len(&self) -> usize {
        *self.prefix.last().expect("prefix always has n + 1 entries")
    }

    /// True when no ordered pair is reachable at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sources with at least one reachable destination.
    pub(crate) fn sources_with_destinations(&self) -> usize {
        self.prefix.windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// Pair `k` of the source-major, destination-ascending sequence —
    /// exactly `materialize()[k]`, computed lazily.
    pub(crate) fn get(&mut self, k: usize) -> (NodeId, NodeId) {
        assert!(k < self.len(), "pair index {k} out of {}", self.len());
        let s = self.prefix.partition_point(|&p| p <= k) - 1;
        let r = k - self.prefix[s];
        let key = match &self.comp {
            Some(comp) => comp[s],
            None => s as u32,
        };
        let (topo, comp) = (self.topo, &self.comp);
        let members = self.members.entry(key).or_insert_with(|| match comp {
            Some(comp) => (0..topo.n())
                .filter(|&i| comp[i] == key)
                .map(NodeId)
                .collect(),
            None => topo
                .hops_from(NodeId(s))
                .iter()
                .enumerate()
                .filter(|(_, h)| h.is_some())
                .map(|(i, _)| NodeId(i))
                .collect(),
        });
        let pos = members
            .binary_search(&NodeId(s))
            .expect("a source always appears in its own reachable set");
        let d = if r < pos { members[r] } else { members[r + 1] };
        (NodeId(s), d)
    }

    /// The full materialized sequence — only for consumers that must
    /// shuffle the whole pool (O(n²) on dense topologies; avoid at city
    /// scale).
    pub(crate) fn materialize(&mut self) -> Vec<(NodeId, NodeId)> {
        let mut all = Vec::with_capacity(self.len());
        for k in 0..self.len() {
            all.push(self.get(k));
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

    #[test]
    fn pool_matches_naive_enumeration_symmetric() {
        for topo in [generate::testbed(1), generate::grid(3, 3, 0.8, 0.4, 30.0)] {
            let naive = naive_pairs(&topo);
            let mut pool = PairPool::new(&topo);
            assert!(pool.comp.is_some(), "{}: support is symmetric", topo.name);
            assert_eq!(pool.len(), naive.len(), "{}", topo.name);
            assert_eq!(pool.materialize(), naive, "{}", topo.name);
        }
        // The diamond is a DAG (src → forwarders → dst): asymmetric
        // support, so the pool must take the per-source BFS fallback and
        // still reproduce the sequence.
        let topo = generate::diamond(4, 0.5);
        let mut pool = PairPool::new(&topo);
        assert!(pool.comp.is_none(), "diamond support is directed");
        assert_eq!(pool.materialize(), naive_pairs(&topo));
    }

    #[test]
    fn pool_matches_naive_enumeration_directed() {
        // A one-way chain plus an isolated node: support is asymmetric,
        // forcing the per-source BFS fallback.
        let topo = topo("oneway", 4, &[(0, 1, 0.9), (1, 2, 0.8)]);
        let mut pool = PairPool::new(&topo);
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
        assert_eq!(pool.len(), naive.len());
        assert_eq!(pool.materialize(), naive);
        assert_eq!(pool.sources_with_destinations(), 2);
    }

    #[test]
    fn random_access_agrees_with_sequence() {
        let topo = generate::testbed(3);
        let mut pool = PairPool::new(&topo);
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
        let mut pool = PairPool::new(&topo);
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.sources_with_destinations(), 4);
        assert_eq!(pool.materialize(), naive_pairs(&topo));
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
