//! Wireless mesh topologies for the MORE reproduction.
//!
//! A [`Topology`] is the network model of thesis §5.3.1: broadcast-capable
//! nodes and, for every ordered pair `(i, j)`, the *marginal delivery
//! probability* `p_ij` that a transmission by `i` is received by `j`.
//! Receptions at different nodes are independent given the transmitter —
//! the loss-independence assumption the thesis adopts from prior
//! measurement studies.
//!
//! Only the links with `p_ij > 0` exist: a topology is built from a link
//! list ([`Topology::from_links`]) and stored as CSR (compressed sparse
//! row) adjacency grouped by transmitter *and* by receiver, each row
//! sorted by neighbor id, so city-scale meshes (10k+ nodes, bounded
//! degree) cost O(n + E) memory. [`Topology::delivery`] reads `0` for a
//! pair with no link.
//!
//! Nodes may carry physical [`Position`]s (used by the testbed generator,
//! the simulator's carrier-sense/interference ranges, and the Fig 4-1 map);
//! link-only topologies (e.g. the Fig 5-1 diamond) work without them.
//!
//! Generators for every topology the paper uses live in [`generate`]; the
//! probing-based link estimator that stands in for Roofnet's ETX
//! measurement module is in [`estimator`]; the spatial hash the geometric
//! generators use to find candidate neighbors in O(cell) is in [`spatial`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Panic freedom and seeding discipline for the shipped (non-test) build;
// each sanctioned site carries `#[expect(clippy::…, reason = "…")]`.
#![cfg_attr(
    not(test),
    warn(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods
    )
)]

pub mod estimator;
pub mod generate;
pub mod json;
pub mod spatial;
pub mod streams;

use std::fmt;

/// Index of a node in a topology. Dense, 0-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// Physical position in meters; `floor` is the building storey.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Position {
    /// East–west coordinate, meters.
    pub x: f64,
    /// North–south coordinate, meters.
    pub y: f64,
    /// Building storey the node sits on.
    pub floor: i32,
}

impl Position {
    /// Euclidean distance in the floor plane plus a per-floor vertical
    /// separation of `floor_height` meters.
    pub fn distance(&self, other: &Position, floor_height: f64) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = (self.floor - other.floor) as f64 * floor_height;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }
}

/// A directed wireless link with its delivery probability.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Link {
    /// Transmitting endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
    /// Marginal probability that a frame from `from` is decoded by `to`.
    pub delivery: f64,
}

/// A lossy wireless mesh: `n` nodes and a sparse directed link set.
///
/// Stored as two CSR adjacency views — out-links grouped by transmitter
/// and in-links grouped by receiver — with neighbor ids ascending within
/// each row. [`Topology::delivery`] is a binary search in the out-row;
/// [`Topology::neighbors_out`]/[`Topology::neighbors_in`] iterate rows in
/// sorted-by-`NodeId` order, which keeps every consumer's RNG draw order
/// independent of node positions or construction order.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Human-readable label ("testbed", "line4", …).
    pub name: String,
    /// Node count.
    n: usize,
    /// CSR row offsets into `out_nbr`/`out_p`; length `n + 1`.
    out_start: Vec<u32>,
    /// Receiver ids grouped by transmitter, ascending within each row.
    out_nbr: Vec<u32>,
    /// Delivery probabilities parallel to `out_nbr`.
    out_p: Vec<f64>,
    /// CSR row offsets into `in_nbr`/`in_p`; length `n + 1`.
    in_start: Vec<u32>,
    /// Transmitter ids grouped by receiver, ascending within each row.
    in_nbr: Vec<u32>,
    /// Delivery probabilities parallel to `in_nbr`.
    in_p: Vec<f64>,
    /// Optional physical layout, parallel to node indices.
    positions: Option<Vec<Position>>,
}

/// `links` checked for an `n`-node mesh and sorted by `(from, to)`, or
/// the first problem found: a node count past the `u32` index space, an
/// endpoint out of range, a self-loop, a delivery probability outside
/// `(0, 1]`, an ordered pair listed twice.
fn checked_links(n: usize, mut links: Vec<Link>) -> Result<Vec<Link>, String> {
    if n >= u32::MAX as usize {
        return Err(format!("node count {n} exceeds the u32 index space"));
    }
    for l in &links {
        if l.from.0 >= n || l.to.0 >= n {
            return Err(format!(
                "link {} -> {} out of range for n = {n}",
                l.from, l.to
            ));
        }
        if l.from == l.to {
            return Err(format!("self-loop at {}", l.from));
        }
        if !(l.delivery > 0.0 && l.delivery <= 1.0) {
            return Err(format!(
                "link {} -> {} delivery {} outside (0,1]",
                l.from, l.to, l.delivery
            ));
        }
    }
    links.sort_by_key(|l| (l.from.0, l.to.0));
    let duplicate = links.windows(2).find_map(|w| match w {
        [a, b] if (a.from, a.to) == (b.from, b.to) => Some(a),
        _ => None,
    });
    match duplicate {
        Some(l) => Err(format!("duplicate link {} -> {}", l.from, l.to)),
        None => Ok(links),
    }
}

/// `v` as a node index, if it is a non-negative integer below `u32::MAX`.
fn as_index(v: f64) -> Option<usize> {
    (v >= 0.0 && v.fract() == 0.0 && v < u32::MAX as f64).then_some(v as usize)
}

#[expect(
    clippy::indexing_slicing,
    reason = "ascii-art grid cells are bounded by the extent computed from the same node positions; CSR rows are sized to the node count at construction"
)]
impl Topology {
    /// Builds a topology from a link list (any order).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, a delivery probability is
    /// outside `(0, 1]`, a link is a self-loop, the same ordered pair
    /// appears twice, or `n` does not fit the `u32` index space.
    #[expect(
        clippy::panic,
        reason = "documented \"# Panics\" contract; from_json is the fallible form"
    )]
    pub fn from_links(name: impl Into<String>, n: usize, links: Vec<Link>) -> Self {
        match checked_links(n, links) {
            Ok(links) => Self::from_sorted_links(name.into(), n, links),
            Err(e) => panic!("{e}"),
        }
    }

    /// CSR assembly from links already sorted by `(from, to)`.
    fn from_sorted_links(name: String, n: usize, links: Vec<Link>) -> Self {
        debug_assert!(n < u32::MAX as usize, "node count exceeds u32 index space");
        let m = links.len();
        let mut out_start = vec![0u32; n + 1];
        let mut in_start = vec![0u32; n + 1];
        for l in &links {
            out_start[l.from.0 + 1] += 1;
            in_start[l.to.0 + 1] += 1;
        }
        for i in 0..n {
            out_start[i + 1] += out_start[i];
            in_start[i + 1] += in_start[i];
        }
        let mut out_nbr = Vec::with_capacity(m);
        let mut out_p = Vec::with_capacity(m);
        let mut in_nbr = vec![0u32; m];
        let mut in_p = vec![0.0f64; m];
        let mut in_fill: Vec<u32> = in_start[..n].to_vec();
        for l in &links {
            out_nbr.push(l.to.0 as u32);
            out_p.push(l.delivery);
            // Visiting links in ascending `from` fills every in-row in
            // ascending source order, so both views end up sorted.
            let slot = in_fill[l.to.0] as usize;
            in_nbr[slot] = l.from.0 as u32;
            in_p[slot] = l.delivery;
            in_fill[l.to.0] += 1;
        }
        Topology {
            name,
            n,
            out_start,
            out_nbr,
            out_p,
            in_start,
            in_nbr,
            in_p,
            positions: None,
        }
    }

    /// Attaches physical positions (must match the node count).
    pub fn with_positions(mut self, positions: Vec<Position>) -> Self {
        assert_eq!(positions.len(), self.n(), "positions length mismatch");
        self.positions = Some(positions);
        self
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of directed links with non-zero delivery probability.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.out_nbr.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId)
    }

    /// Position of the directed link `(i, j)` in [`Topology::links`]
    /// order, in `0..link_count()`; `None` when no link exists. Keys
    /// per-link state kept outside the topology (channel models) in
    /// O(links) instead of an `n × n` table.
    #[inline]
    pub fn link_slot(&self, i: NodeId, j: NodeId) -> Option<usize> {
        debug_assert!(j.0 < self.n, "receiver {j} out of range");
        let s = self.link_slots(i);
        let k = self.out_nbr[s.clone()].binary_search(&(j.0 as u32)).ok()?;
        Some(s.start + k)
    }

    /// The slots of `i`'s out-links, ascending by receiver, in [`Topology::links`] order.
    #[inline]
    pub fn link_slots(&self, i: NodeId) -> std::ops::Range<usize> {
        self.out_start[i.0] as usize..self.out_start[i.0 + 1] as usize
    }

    /// Delivery probability `p_ij`; zero when no link exists.
    #[inline]
    pub fn delivery(&self, i: NodeId, j: NodeId) -> f64 {
        self.link_slot(i, j).map_or(0.0, |k| self.out_p[k])
    }

    /// Loss probability `ε_ij = 1 − p_ij`.
    #[inline]
    pub fn loss(&self, i: NodeId, j: NodeId) -> f64 {
        1.0 - self.delivery(i, j)
    }

    /// Physical positions, if the topology has them.
    pub fn positions(&self) -> Option<&[Position]> {
        self.positions.as_deref()
    }

    /// Out-neighbors of `i`: nodes with `p_ij > 0`, ascending by id.
    pub fn neighbors(&self, i: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let s = self.link_slots(i);
        self.out_nbr[s].iter().map(|&j| NodeId(j as usize))
    }

    /// `i`'s out-links as two parallel slices, ascending by receiver: the
    /// receivers' ids and their delivery probabilities. Entry `k` is the
    /// link in slot `link_slots(i).start + k`.
    #[inline]
    pub fn out_row(&self, i: NodeId) -> (&[u32], &[f64]) {
        let slots = self.link_slots(i);
        let to = self.out_nbr.get(slots.clone()).unwrap_or_default();
        (to, self.out_p.get(slots).unwrap_or_default())
    }

    /// Out-neighbors of `i` with delivery probabilities, ascending by id.
    pub fn neighbors_out(&self, i: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let slots = self.link_slots(i);
        self.out_nbr[slots.clone()]
            .iter()
            .zip(&self.out_p[slots])
            .map(|(&j, &p)| (NodeId(j as usize), p))
    }

    /// In-neighbors of `j` (nodes whose transmissions `j` can hear) with
    /// delivery probabilities, ascending by id.
    pub fn neighbors_in(&self, j: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let s = self.in_start[j.0] as usize;
        let e = self.in_start[j.0 + 1] as usize;
        self.in_nbr[s..e]
            .iter()
            .zip(&self.in_p[s..e])
            .map(|(&i, &p)| (NodeId(i as usize), p))
    }

    /// Every directed link with non-zero delivery probability, in
    /// transmitter-major, receiver-ascending order.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        (0..self.n).flat_map(move |i| {
            self.link_slots(NodeId(i)).map(move |k| Link {
                from: NodeId(i),
                to: NodeId(self.out_nbr[k] as usize),
                delivery: self.out_p[k],
            })
        })
    }

    /// Mean loss rate over all existing links (both directions counted).
    pub fn mean_link_loss(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for l in self.links() {
            total += 1.0 - l.delivery;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Breadth-first search from `src` over out-links (`forward`) or
    /// in-links, skipping and marking nodes in `seen`: the nodes visited,
    /// `src` first, each with its hop count, in BFS order. `queue` is the
    /// caller's buffer, so repeated searches allocate nothing.
    fn bfs<'q>(
        &self,
        src: NodeId,
        forward: bool,
        seen: &mut [bool],
        queue: &'q mut Vec<(NodeId, usize)>,
    ) -> &'q [(NodeId, usize)] {
        let (start, nbr) = if forward {
            (&self.out_start, &self.out_nbr)
        } else {
            (&self.in_start, &self.in_nbr)
        };
        queue.clear();
        queue.push((src, 0));
        seen[src.0] = true;
        let mut head = 0;
        while let Some(&(u, hops)) = queue.get(head) {
            head += 1;
            for &v in &nbr[start[u.0] as usize..start[u.0 + 1] as usize] {
                if !std::mem::replace(&mut seen[v as usize], true) {
                    queue.push((NodeId(v as usize), hops + 1));
                }
            }
        }
        queue
    }

    /// BFS hop distances from `src` to every node over `p > 0` links
    /// (`None` = unreachable).
    pub fn hops_from(&self, src: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.n];
        let mut seen = vec![false; self.n];
        for &(v, hops) in self.bfs(src, true, &mut seen, &mut Vec::new()) {
            dist[v.0] = Some(hops);
        }
        dist
    }

    /// The longest shortest path, in hops, over every ordered pair with a
    /// `p > 0` path between them (0 without links): one BFS per source,
    /// all of them over one visited buffer and one queue.
    pub fn max_hops(&self) -> usize {
        let (mut seen, mut queue) = (vec![false; self.n], Vec::with_capacity(self.n));
        let mut longest = 0;
        for src in self.nodes() {
            seen.fill(false);
            // BFS visits in nondecreasing distance: the last is the farthest.
            let farthest = self.bfs(src, true, &mut seen, &mut queue).last();
            longest = farthest.map_or(longest, |&(_, hops)| longest.max(hops));
        }
        longest
    }

    /// True when every node can reach every other node over `p > 0` links.
    ///
    /// Strong connectivity via two BFS passes — everyone reachable *from*
    /// node 0 over out-links and everyone able to *reach* node 0 over
    /// in-links — rather than `n²` pairwise searches.
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let (mut seen, mut queue) = (vec![false; self.n], Vec::with_capacity(self.n));
        [true, false].into_iter().all(|forward| {
            seen.fill(false);
            self.bfs(NodeId(0), forward, &mut seen, &mut queue).len() == self.n
        })
    }

    /// Component labels (per node) and sizes (per label) when every `p > 0`
    /// link has a `p > 0` reverse, as every built-in generator's does: `s`
    /// then reaches `d` exactly when both carry one label. `None` when
    /// reachability is directed. One O(n + links) pass.
    pub fn symmetric_components(&self) -> Option<(Vec<u32>, Vec<usize>)> {
        // Symmetric support: each node's in-row lists its out-row.
        if self.out_start != self.in_start || self.out_nbr != self.in_nbr {
            return None;
        }
        let mut comp = vec![0u32; self.n];
        let (mut seen, mut queue) = (vec![false; self.n], Vec::with_capacity(self.n));
        let mut sizes = Vec::new();
        for src in self.nodes() {
            if seen[src.0] {
                continue;
            }
            let members = self.bfs(src, true, &mut seen, &mut queue);
            for &(v, _) in members {
                comp[v.0] = sizes.len() as u32;
            }
            sizes.push(members.len());
        }
        Some((comp, sizes))
    }

    /// Serializes to pretty JSON: `{"name", "n", "links": [{"from", "to",
    /// "p"}, …], "positions"}` (hand-rolled; see [`json`]), O(E) on disk.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", json::escape(&self.name)));
        out.push_str(&format!("  \"n\": {},\n", self.n));
        out.push_str("  \"links\": [\n");
        let m = self.out_nbr.len();
        for (k, l) in self.links().enumerate() {
            out.push_str(&format!(
                "    {{\"from\": {}, \"to\": {}, \"p\": {}}}",
                l.from.0,
                l.to.0,
                format_f64(l.delivery)
            ));
            out.push_str(if k + 1 < m { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        match &self.positions {
            None => out.push_str("  \"positions\": null\n"),
            Some(pos) => {
                out.push_str("  \"positions\": [\n");
                for (i, p) in pos.iter().enumerate() {
                    out.push_str(&format!(
                        "    {{\"x\": {}, \"y\": {}, \"floor\": {}}}",
                        format_f64(p.x),
                        format_f64(p.y),
                        p.floor
                    ));
                    out.push_str(if i + 1 < pos.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]\n");
            }
        }
        out.push('}');
        out
    }

    /// Deserializes the JSON [`Topology::to_json`] writes.
    ///
    /// Checks what [`Topology::from_links`] asserts, plus that numbers
    /// meant as indices and floors are integers in range and coordinates
    /// are finite; malformed input is a [`json::JsonError`], never a panic.
    pub fn from_json(s: &str) -> Result<Self, json::JsonError> {
        let bad = |msg: &str| json::JsonError {
            offset: 0,
            message: msg.to_string(),
        };
        let v = json::parse(s)?;
        let name = v
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| bad("missing \"name\""))?
            .to_string();
        let n = v
            .get("n")
            .and_then(|x| x.as_f64())
            .ok_or_else(|| bad("missing \"n\""))?;
        let n = as_index(n).ok_or_else(|| bad("\"n\" is not an integer in [0, 2^32 - 1)"))?;
        let links = v
            .get("links")
            .and_then(|l| l.as_arr())
            .ok_or_else(|| bad("missing \"links\" array"))?
            .iter()
            .map(|l| {
                let num = |key: &str| {
                    l.get(key)
                        .and_then(|x| x.as_f64())
                        .ok_or_else(|| bad("link missing \"from\"/\"to\"/\"p\""))
                };
                let idx = |key: &str| {
                    as_index(num(key)?)
                        .ok_or_else(|| bad("link endpoint is not a non-negative integer"))
                };
                Ok(Link {
                    from: NodeId(idx("from")?),
                    to: NodeId(idx("to")?),
                    delivery: num("p")?,
                })
            })
            .collect::<Result<_, json::JsonError>>()?;
        let links = checked_links(n, links).map_err(|e| bad(&e))?;
        let mut topo = Topology::from_sorted_links(name, n, links);
        match v.get("positions") {
            None | Some(json::Value::Null) => {}
            Some(p) => {
                let positions: Vec<Position> = p
                    .as_arr()
                    .ok_or_else(|| bad("\"positions\" is not an array"))?
                    .iter()
                    .map(|q| {
                        let coord = |key: &str| {
                            q.get(key)
                                .and_then(|x| x.as_f64())
                                .ok_or_else(|| bad("position missing coordinate"))
                        };
                        let (x, y, floor) = (coord("x")?, coord("y")?, coord("floor")?);
                        if !(x.is_finite() && y.is_finite()) {
                            return Err(bad("position coordinate is not finite"));
                        }
                        let floors = i32::MIN as f64..=i32::MAX as f64;
                        if floor.fract() != 0.0 || !floors.contains(&floor) {
                            return Err(bad("position floor is not a 32-bit integer"));
                        }
                        Ok(Position {
                            x,
                            y,
                            floor: floor as i32,
                        })
                    })
                    .collect::<Result<_, json::JsonError>>()?;
                if positions.len() != topo.n() {
                    return Err(bad("positions length mismatch"));
                }
                topo = topo.with_positions(positions);
            }
        }
        Ok(topo)
    }

    /// A coarse ASCII floor map (Fig 4-1 style); one grid per floor.
    pub fn ascii_map(&self, cols: usize, rows: usize) -> String {
        let Some(pos) = &self.positions else {
            return String::from("(no positions)\n");
        };
        let (min_x, max_x) = min_max(pos.iter().map(|p| p.x));
        let (min_y, max_y) = min_max(pos.iter().map(|p| p.y));
        let floors: std::collections::BTreeSet<i32> = pos.iter().map(|p| p.floor).collect();
        let mut out = String::new();
        for floor in floors {
            out.push_str(&format!("floor {floor}:\n"));
            let mut grid = vec![b'.'; cols * rows];
            for (i, p) in pos.iter().enumerate() {
                if p.floor != floor {
                    continue;
                }
                let cx = scale(p.x, min_x, max_x, cols);
                let cy = scale(p.y, min_y, max_y, rows);
                let label = if i < 10 {
                    b'0' + i as u8
                } else {
                    b'a' + (i - 10) as u8
                };
                grid[cy * cols + cx] = label;
            }
            for row in grid.chunks(cols.max(1)) {
                out.push_str(&String::from_utf8_lossy(row));
                out.push('\n');
            }
        }
        out
    }
}

/// Formats an f64 with full round-trip precision but without the noise
/// of `{:?}` for integral values (`1` rather than `1.0` is fine to parse).
fn format_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.parse::<f64>() == Ok(v) {
        s
    } else {
        format!("{v:?}")
    }
}

fn min_max(it: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in it {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > hi {
        (0.0, 1.0)
    } else {
        (lo, hi)
    }
}

fn scale(v: f64, lo: f64, hi: f64, cells: usize) -> usize {
    if hi <= lo {
        return 0;
    }
    let t = (v - lo) / (hi - lo);
    ((t * (cells - 1) as f64).round() as usize).min(cells - 1)
}

#[cfg(test)]
mod test {
    use super::*;

    /// An `n`-node topology from `(from, to, p)` triples.
    fn topo(name: &str, n: usize, links: &[(usize, usize, f64)]) -> Topology {
        let links = links
            .iter()
            .map(|&(from, to, delivery)| Link {
                from: NodeId(from),
                to: NodeId(to),
                delivery,
            })
            .collect();
        Topology::from_links(name, n, links)
    }

    /// src(0) -> R(1) -> dst(2), plus a weak direct link.
    fn tri() -> Topology {
        topo("tri", 3, &[(0, 1, 1.0), (0, 2, 0.49), (1, 2, 1.0)])
    }

    fn positions3() -> Vec<Position> {
        vec![
            Position {
                x: 0.0,
                y: 0.0,
                floor: 0,
            },
            Position {
                x: 10.0,
                y: 0.0,
                floor: 0,
            },
            Position {
                x: 20.0,
                y: 5.0,
                floor: 1,
            },
        ]
    }

    #[test]
    fn basic_accessors() {
        let t = tri();
        assert_eq!(t.n(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.delivery(NodeId(0), NodeId(2)), 0.49);
        assert_eq!(t.delivery(NodeId(2), NodeId(0)), 0.0);
        assert!((t.loss(NodeId(0), NodeId(2)) - 0.51).abs() < 1e-12);
        let nbrs: Vec<_> = t.neighbors(NodeId(0)).collect();
        assert_eq!(nbrs, vec![NodeId(1), NodeId(2)]);
        assert_eq!(t.links().count(), 3);
        // Slots number the links in `links()` order; non-links have none.
        for (k, l) in t.links().enumerate() {
            assert_eq!(t.link_slot(l.from, l.to), Some(k));
        }
        assert_eq!(t.link_slot(NodeId(2), NodeId(0)), None);
        assert_eq!(t.link_slot(NodeId(1), NodeId(1)), None);
    }

    #[test]
    fn neighbors_in_mirrors_out() {
        let t = tri();
        let into_dst: Vec<_> = t.neighbors_in(NodeId(2)).collect();
        assert_eq!(into_dst, vec![(NodeId(0), 0.49), (NodeId(1), 1.0)]);
        assert_eq!(t.neighbors_in(NodeId(0)).count(), 0);
        let out_src: Vec<_> = t.neighbors_out(NodeId(0)).collect();
        assert_eq!(out_src, vec![(NodeId(1), 1.0), (NodeId(2), 0.49)]);
    }

    #[test]
    fn from_links_sorts_any_order() {
        // Deliberately shuffled link order: construction sorts.
        let shuffled = topo("tri", 3, &[(1, 2, 1.0), (0, 2, 0.49), (0, 1, 1.0)]);
        assert_eq!(
            shuffled.links().collect::<Vec<_>>(),
            tri().links().collect::<Vec<_>>()
        );
        assert_eq!(shuffled.to_json(), tri().to_json());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_links_rejects_out_of_range() {
        topo("bad", 2, &[(0, 2, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn from_links_rejects_duplicates() {
        topo("bad", 2, &[(0, 1, 0.5), (0, 1, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_links_rejects_self_loop() {
        topo("bad", 2, &[(1, 1, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "outside (0,1]")]
    fn from_links_rejects_bad_probability() {
        topo("bad", 2, &[(0, 1, 1.5)]);
    }

    #[test]
    fn hops_from_is_directed() {
        let t = tri();
        // The weak direct link makes dst one hop away.
        assert_eq!(t.hops_from(NodeId(0)), vec![Some(0), Some(1), Some(1)]);
        assert_eq!(t.hops_from(NodeId(2)), vec![None, None, Some(0)]);
        assert!(!t.is_connected());
    }

    /// Hop counts of every ordered pair, without a BFS: each node is 0
    /// hops from itself, then every link relaxes every source's distances
    /// until nothing changes.
    fn naive_hops(t: &Topology) -> Vec<Vec<Option<usize>>> {
        let mut hops: Vec<Vec<Option<usize>>> = (0..t.n())
            .map(|a| (0..t.n()).map(|b| (a == b).then_some(0)).collect())
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for row in &mut hops {
                for l in t.links() {
                    let Some(via) = row[l.from.0] else { continue };
                    if row[l.to.0].is_none_or(|h| h > via + 1) {
                        row[l.to.0] = Some(via + 1);
                        changed = true;
                    }
                }
            }
        }
        hops
    }

    #[test]
    fn reachability_agrees_with_a_naive_hop_matrix() {
        // Directed, one-way, partitioned, isolated, empty and generated
        // meshes: `cut` reaches everything from node 0 over out-links but
        // not over in-links, `tuc` the other way round; `islands` is
        // symmetric with three components, the diamond is a DAG.
        let chain = topo("chain", 4, &[(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)]);
        assert_eq!((tri().max_hops(), chain.max_hops()), (1, 3));
        let meshes = [
            tri(),
            chain,
            topo("split", 4, &[(0, 1, 0.9), (1, 0, 0.9), (2, 3, 0.9)]),
            topo("ring", 3, &[(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9)]),
            topo("cut", 3, &[(0, 1, 0.9), (1, 2, 0.9)]),
            topo("tuc", 3, &[(1, 0, 0.9), (2, 1, 0.9)]),
            topo(
                "islands",
                5,
                &[(0, 1, 0.9), (1, 0, 0.8), (2, 3, 0.7), (3, 2, 0.6)],
            ),
            topo("lonely", 1, &[]),
            topo("none", 0, &[]),
            generate::line(6, 0.9, 0.3, 25.0),
            generate::diamond(4, 0.5),
            generate::testbed(1),
            generate::random_mesh(30, 60.0, 40.0, 2),
        ];
        let mut components_seen = [false; 2];
        for t in meshes {
            let hops = naive_hops(&t);
            for a in t.nodes() {
                assert_eq!(t.hops_from(a), hops[a.0], "{}: from {a}", t.name);
            }
            let longest = hops.iter().flatten().flatten().max();
            assert_eq!(t.max_hops(), longest.copied().unwrap_or(0), "{}", t.name);
            let everyone = hops.iter().flatten().all(Option::is_some);
            assert_eq!(t.is_connected(), everyone, "{}", t.name);
            let symmetric = t.links().all(|l| t.delivery(l.to, l.from) > 0.0);
            let components = t.symmetric_components();
            assert_eq!(components.is_some(), symmetric, "{}", t.name);
            components_seen[usize::from(symmetric)] = true;
            let Some((comp, sizes)) = components else {
                continue;
            };
            for a in t.nodes() {
                for b in t.nodes() {
                    let same = comp[a.0] == comp[b.0];
                    assert_eq!(same, hops[a.0][b.0].is_some(), "{}: {a} {b}", t.name);
                }
                let reached = hops[a.0].iter().flatten().count();
                assert_eq!(sizes[comp[a.0] as usize], reached, "{}: {a}", t.name);
            }
            assert_eq!(sizes.iter().sum::<usize>(), t.n(), "{}", t.name);
        }
        assert_eq!(components_seen, [true, true], "both answers exercised");
    }

    #[test]
    fn connectivity_is_strong() {
        // A directed ring is strongly connected; cut one arc and it isn't.
        let ring = topo("ring", 3, &[(0, 1, 0.9), (1, 2, 0.9), (2, 0, 0.9)]);
        assert!(ring.is_connected());
        let cut = topo("cut", 3, &[(0, 1, 0.9), (1, 2, 0.9)]);
        assert!(!cut.is_connected());
        assert!(topo("lonely", 1, &[]).is_connected());
    }

    #[test]
    fn mean_loss() {
        let t = tri();
        let expect = ((1.0 - 1.0) + (1.0 - 0.49) + (1.0 - 1.0)) / 3.0;
        assert!((t.mean_link_loss() - expect).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let t = tri().with_positions(positions3());
        let s = t.to_json();
        let back = Topology::from_json(&s).unwrap();
        assert_eq!(
            back.links().collect::<Vec<_>>(),
            t.links().collect::<Vec<_>>()
        );
        assert_eq!(back.positions().unwrap()[2].floor, 1);
        // Re-serializing the reread topology is byte-stable.
        assert_eq!(back.to_json(), s);
    }

    #[test]
    fn json_isolated_node() {
        // "n" carries nodes the link list never mentions.
        let t = topo("island", 3, &[(0, 1, 0.7)]);
        let back = Topology::from_json(&t.to_json()).unwrap();
        assert_eq!(back.n(), 3);
        assert_eq!(back.neighbors(NodeId(2)).count(), 0);
    }

    #[test]
    fn json_rejects_malformed() {
        for bad in [
            // Missing "n".
            r#"{"name": "x", "links": []}"#,
            // "n" fractional, negative, or past the u32 index space.
            r#"{"name": "x", "n": 2.5, "links": []}"#,
            r#"{"name": "x", "n": -1, "links": []}"#,
            r#"{"name": "x", "n": 4294967295, "links": []}"#,
            r#"{"name": "x", "n": 1e400, "links": []}"#,
            // Link out of range.
            r#"{"name": "x", "n": 2, "links": [{"from": 0, "to": 5, "p": 0.5}]}"#,
            // Probability outside (0,1].
            r#"{"name": "x", "n": 2, "links": [{"from": 0, "to": 1, "p": 1.5}]}"#,
            r#"{"name": "x", "n": 2, "links": [{"from": 0, "to": 1, "p": 1e400}]}"#,
            // Self-loop.
            r#"{"name": "x", "n": 2, "links": [{"from": 1, "to": 1, "p": 0.5}]}"#,
            // Duplicate ordered pair.
            r#"{"name": "x", "n": 2, "links": [{"from": 0, "to": 1, "p": 0.5}, {"from": 0, "to": 1, "p": 0.6}]}"#,
            // Fractional endpoint.
            r#"{"name": "x", "n": 2, "links": [{"from": 0.5, "to": 1, "p": 0.5}]}"#,
            // Missing link field.
            r#"{"name": "x", "n": 2, "links": [{"from": 0, "to": 1}]}"#,
            // "links" missing or not an array.
            r#"{"name": "x", "n": 2}"#,
            r#"{"name": "x", "n": 2, "links": {}}"#,
            // Positions: length mismatch, fractional or huge floor,
            // infinite coordinate.
            r#"{"name": "x", "n": 2, "links": [], "positions": [{"x": 0, "y": 0, "floor": 0}]}"#,
            r#"{"name": "x", "n": 1, "links": [], "positions": [{"x": 0, "y": 0, "floor": 2.5}]}"#,
            r#"{"name": "x", "n": 1, "links": [], "positions": [{"x": 0, "y": 0, "floor": 1e12}]}"#,
            r#"{"name": "x", "n": 1, "links": [], "positions": [{"x": 1e400, "y": 0, "floor": 0}]}"#,
            r#"{"name": "x", "n": 1, "links": [], "positions": [{"x": 0, "y": -1e400, "floor": 0}]}"#,
        ] {
            assert!(Topology::from_json(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn position_distance() {
        let a = Position {
            x: 0.0,
            y: 0.0,
            floor: 0,
        };
        let b = Position {
            x: 3.0,
            y: 4.0,
            floor: 0,
        };
        assert!((a.distance(&b, 4.0) - 5.0).abs() < 1e-12);
        let c = Position {
            x: 0.0,
            y: 0.0,
            floor: 1,
        };
        assert!((a.distance(&c, 4.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_map_renders_without_positions() {
        assert_eq!(tri().ascii_map(10, 5), "(no positions)\n");
    }

    #[test]
    fn ascii_map_places_nodes() {
        let t = tri().with_positions(vec![
            Position {
                x: 0.0,
                y: 0.0,
                floor: 0,
            },
            Position {
                x: 30.0,
                y: 0.0,
                floor: 0,
            },
            Position {
                x: 60.0,
                y: 20.0,
                floor: 0,
            },
        ]);
        let map = t.ascii_map(20, 6);
        assert!(map.contains('0'));
        assert!(map.contains('1'));
        assert!(map.contains('2'));
    }
}
