//! Wireless mesh topologies for the MORE reproduction.
//!
//! A [`Topology`] is the network model of thesis §5.3.1: broadcast-capable
//! nodes and, for every ordered pair `(i, j)`, the *marginal delivery
//! probability* `p_ij` that a transmission by `i` is received by `j`.
//! Receptions at different nodes are independent given the transmitter —
//! the loss-independence assumption the thesis adopts from prior
//! measurement studies.
//!
//! The link set is stored sparsely: CSR (compressed sparse row) adjacency
//! grouped by transmitter *and* by receiver, each row sorted by neighbor
//! id, so city-scale meshes (10k+ nodes, bounded degree) cost O(n + E)
//! memory instead of the O(n²) a dense matrix would. Dense matrices
//! survive as compatibility constructors/views ([`Topology::from_matrix`],
//! [`Topology::matrix`]).
//!
//! Nodes may carry physical [`Position`]s (used by the testbed generator,
//! the simulator's carrier-sense/interference ranges, and the Fig 4-1 map);
//! matrix-only topologies (e.g. the Fig 5-1 diamond) work without them.
//!
//! Generators for every topology the paper uses live in [`generate`]; the
//! probing-based link estimator that stands in for Roofnet's ETX
//! measurement module is in [`estimator`]; the spatial hash the geometric
//! generators use to find candidate neighbors in O(cell) is in [`spatial`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

// xtask: allow(panic_path, file) -- ascii-art grid cells are bounded by the extent computed from the same node positions; CSR rows are sized to the node count at construction.

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

/// First invalid link in `links` for an `n`-node mesh, as a message.
fn link_error(n: usize, links: &[Link]) -> Option<String> {
    for l in links {
        if l.from.0 >= n || l.to.0 >= n {
            return Some(format!(
                "link {} -> {} out of range for n = {n}",
                l.from, l.to
            ));
        }
        if l.from == l.to {
            return Some(format!("self-loop at {}", l.from));
        }
        if !(l.delivery > 0.0 && l.delivery <= 1.0) {
            return Some(format!(
                "link {} -> {} delivery {} outside (0,1]",
                l.from, l.to, l.delivery
            ));
        }
    }
    None
}

/// First duplicated ordered pair in `(from, to)`-sorted `links`.
fn dup_error(sorted: &[Link]) -> Option<String> {
    sorted.windows(2).find_map(|w| {
        ((w[0].from, w[0].to) == (w[1].from, w[1].to))
            .then(|| format!("duplicate link {} -> {}", w[0].from, w[0].to))
    })
}

impl Topology {
    /// Builds a topology from a dense delivery matrix (compatibility
    /// constructor; internally converts to CSR).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, probabilities fall outside
    /// `[0, 1]`, or a diagonal entry is non-zero.
    pub fn from_matrix(name: impl Into<String>, delivery: Vec<Vec<f64>>) -> Self {
        let n = delivery.len();
        let mut links = Vec::new();
        for (i, row) in delivery.iter().enumerate() {
            assert_eq!(row.len(), n, "delivery matrix is not square");
            for (j, &p) in row.iter().enumerate() {
                assert!(
                    (0.0..=1.0).contains(&p),
                    "delivery[{i}][{j}] = {p} outside [0,1]"
                );
                if i == j {
                    assert_eq!(p, 0.0, "diagonal delivery[{i}][{i}] must be 0");
                }
                if p > 0.0 {
                    links.push(Link {
                        from: NodeId(i),
                        to: NodeId(j),
                        delivery: p,
                    });
                }
            }
        }
        // Row-major matrix order is already CSR order.
        Self::from_sorted_links(name.into(), n, links)
    }

    /// Builds a topology directly from a sparse link list (any order).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, a delivery probability is
    /// outside `(0, 1]`, a link is a self-loop, or the same ordered pair
    /// appears twice.
    pub fn from_links(name: impl Into<String>, n: usize, mut links: Vec<Link>) -> Self {
        if let Some(e) = link_error(n, &links) {
            panic!("{e}");
        }
        links.sort_by_key(|l| (l.from.0, l.to.0));
        if let Some(e) = dup_error(&links) {
            panic!("{e}");
        }
        Self::from_sorted_links(name.into(), n, links)
    }

    /// CSR assembly from links already sorted by `(from, to)`.
    fn from_sorted_links(name: String, n: usize, links: Vec<Link>) -> Self {
        assert!(n < u32::MAX as usize, "node count exceeds u32 index space");
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
        let s = self.out_start[i.0] as usize;
        let e = self.out_start[i.0 + 1] as usize;
        let k = self.out_nbr[s..e].binary_search(&(j.0 as u32)).ok()?;
        Some(s + k)
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

    /// The delivery matrix, densified from the CSR rows.
    ///
    /// Compatibility view: allocates `n × n` floats every call, so prefer
    /// [`Topology::neighbors_out`] / [`Topology::delivery`] at scale.
    #[must_use = "densifying allocates an n × n matrix"]
    pub fn matrix(&self) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; self.n]; self.n];
        for l in self.links() {
            m[l.from.0][l.to.0] = l.delivery;
        }
        m
    }

    /// Physical positions, if the topology has them.
    pub fn positions(&self) -> Option<&[Position]> {
        self.positions.as_deref()
    }

    /// Out-neighbors of `i`: nodes with `p_ij > 0`, ascending by id.
    pub fn neighbors(&self, i: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let s = self.out_start[i.0] as usize;
        let e = self.out_start[i.0 + 1] as usize;
        self.out_nbr[s..e].iter().map(|&j| NodeId(j as usize))
    }

    /// Out-neighbors of `i` with delivery probabilities, ascending by id.
    pub fn neighbors_out(&self, i: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let s = self.out_start[i.0] as usize;
        let e = self.out_start[i.0 + 1] as usize;
        self.out_nbr[s..e]
            .iter()
            .zip(&self.out_p[s..e])
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
            let s = self.out_start[i] as usize;
            let e = self.out_start[i + 1] as usize;
            (s..e).map(move |k| Link {
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

    /// Minimum hop count from `src` to `dst` (BFS over links with `p > 0`),
    /// or `None` if unreachable.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        if src == dst {
            return Some(0);
        }
        let n = self.n();
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[src.0] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if dist[v.0] == usize::MAX {
                    dist[v.0] = dist[u.0] + 1;
                    if v == dst {
                        return Some(dist[v.0]);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// BFS hop distances from `src` to every node (`None` = unreachable).
    ///
    /// One call replaces `n` [`Topology::hop_count`] probes when a whole
    /// row of distances is needed (connectivity checks, reachable-pair
    /// enumeration).
    pub fn hops_from(&self, src: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[src.0] = Some(0);
        queue.push_back((src, 0));
        while let Some((u, hops)) = queue.pop_front() {
            for v in self.neighbors(u) {
                if dist[v.0].is_none() {
                    dist[v.0] = Some(hops + 1);
                    queue.push_back((v, hops + 1));
                }
            }
        }
        dist
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
        self.bfs_covers_all(true) && self.bfs_covers_all(false)
    }

    /// BFS from node 0 along out-links (`forward`) or in-links; true when
    /// it visits every node.
    fn bfs_covers_all(&self, forward: bool) -> bool {
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId(0));
        let mut visited = 1usize;
        while let Some(u) = queue.pop_front() {
            let (start, nbr) = if forward {
                (&self.out_start, &self.out_nbr)
            } else {
                (&self.in_start, &self.in_nbr)
            };
            for &v in &nbr[start[u.0] as usize..start[u.0 + 1] as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    visited += 1;
                    queue.push_back(NodeId(v as usize));
                }
            }
        }
        visited == self.n
    }

    /// Serializes to pretty JSON in the dense `delivery`-matrix form
    /// (hand-rolled; see [`json`]). Byte-identical to the output of the
    /// historical dense-matrix implementation.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", json::escape(&self.name)));
        out.push_str("  \"delivery\": [\n");
        let mut row = vec![0.0f64; self.n];
        for i in 0..self.n {
            for (j, p) in self.neighbors_out(NodeId(i)) {
                row[j.0] = p;
            }
            let cells: Vec<String> = row.iter().map(|p| format_f64(*p)).collect();
            out.push_str(&format!("    [{}]", cells.join(", ")));
            out.push_str(if i + 1 < self.n { ",\n" } else { "\n" });
            for (j, _) in self.neighbors_out(NodeId(i)) {
                row[j.0] = 0.0;
            }
        }
        out.push_str("  ],\n");
        self.push_positions_json(&mut out);
        out.push('}');
        out
    }

    /// Serializes to the sparse `links`-array JSON form: `{"name", "n",
    /// "links": [{"from", "to", "p"}, …], "positions"}`. Reading
    /// auto-detects either form ([`Topology::from_json`]); this one stays
    /// O(E) on disk for city-scale meshes.
    pub fn to_json_sparse(&self) -> String {
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
        self.push_positions_json(&mut out);
        out.push('}');
        out
    }

    /// The shared `"positions"` tail of both JSON forms.
    fn push_positions_json(&self, out: &mut String) {
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
    }

    /// Deserializes from JSON produced by [`Topology::to_json`] (dense
    /// `delivery` matrix) or [`Topology::to_json_sparse`] (`links` array);
    /// the form is auto-detected by which key is present.
    ///
    /// Validates as the constructors do, but reports malformed input as a
    /// [`json::JsonError`] instead of panicking.
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
        let mut topo = if let Some(links_v) = v.get("links") {
            let n_f = v
                .get("n")
                .and_then(|x| x.as_f64())
                .ok_or_else(|| bad("sparse form missing \"n\""))?;
            if n_f < 0.0 || n_f.fract() != 0.0 {
                return Err(bad("\"n\" is not a non-negative integer"));
            }
            let n = n_f as usize;
            let mut links: Vec<Link> = links_v
                .as_arr()
                .ok_or_else(|| bad("\"links\" is not an array"))?
                .iter()
                .map(|l| {
                    let num = |key: &str| {
                        l.get(key)
                            .and_then(|x| x.as_f64())
                            .ok_or_else(|| bad("link missing \"from\"/\"to\"/\"p\""))
                    };
                    let idx = |key: &str| {
                        let v = num(key)?;
                        if v < 0.0 || v.fract() != 0.0 {
                            return Err(bad("link endpoint is not a non-negative integer"));
                        }
                        Ok(v as usize)
                    };
                    Ok(Link {
                        from: NodeId(idx("from")?),
                        to: NodeId(idx("to")?),
                        delivery: num("p")?,
                    })
                })
                .collect::<Result<_, json::JsonError>>()?;
            if let Some(e) = link_error(n, &links) {
                return Err(bad(&e));
            }
            links.sort_by_key(|l| (l.from.0, l.to.0));
            if let Some(e) = dup_error(&links) {
                return Err(bad(&e));
            }
            Topology::from_sorted_links(name, n, links)
        } else {
            let delivery: Vec<Vec<f64>> = v
                .get("delivery")
                .and_then(|d| d.as_arr())
                .ok_or_else(|| bad("missing \"delivery\""))?
                .iter()
                .map(|row| {
                    row.as_arr()
                        .ok_or_else(|| bad("delivery row is not an array"))?
                        .iter()
                        .map(|c| {
                            c.as_f64()
                                .ok_or_else(|| bad("delivery cell is not a number"))
                        })
                        .collect()
                })
                .collect::<Result<_, _>>()?;
            let n = delivery.len();
            for (i, row) in delivery.iter().enumerate() {
                if row.len() != n {
                    return Err(bad("delivery matrix is not square"));
                }
                for (j, &p) in row.iter().enumerate() {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(bad("delivery probability outside [0,1]"));
                    }
                    if i == j && p != 0.0 {
                        return Err(bad("diagonal delivery must be 0"));
                    }
                }
            }
            Topology::from_matrix(name, delivery)
        };
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
                        Ok(Position {
                            x: coord("x")?,
                            y: coord("y")?,
                            floor: coord("floor")? as i32,
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
            let mut grid = vec![vec![b'.'; cols]; rows];
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
                grid[cy][cx] = label;
            }
            for row in grid {
                out.push_str(&String::from_utf8_lossy(&row));
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

    fn tri() -> Topology {
        // src(0) -> R(1) -> dst(2), plus a weak direct link.
        Topology::from_matrix(
            "tri",
            vec![
                vec![0.0, 1.0, 0.49],
                vec![0.0, 0.0, 1.0],
                vec![0.0, 0.0, 0.0],
            ],
        )
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
    fn from_links_matches_from_matrix() {
        let dense = tri();
        // Deliberately shuffled link order: construction sorts.
        let sparse = Topology::from_links(
            "tri",
            3,
            vec![
                Link {
                    from: NodeId(1),
                    to: NodeId(2),
                    delivery: 1.0,
                },
                Link {
                    from: NodeId(0),
                    to: NodeId(2),
                    delivery: 0.49,
                },
                Link {
                    from: NodeId(0),
                    to: NodeId(1),
                    delivery: 1.0,
                },
            ],
        );
        assert_eq!(dense.matrix(), sparse.matrix());
        assert_eq!(dense.to_json(), sparse.to_json());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_links_rejects_out_of_range() {
        Topology::from_links(
            "bad",
            2,
            vec![Link {
                from: NodeId(0),
                to: NodeId(2),
                delivery: 0.5,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn from_links_rejects_duplicates() {
        let l = Link {
            from: NodeId(0),
            to: NodeId(1),
            delivery: 0.5,
        };
        Topology::from_links("bad", 2, vec![l, l]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_links_rejects_self_loop() {
        Topology::from_links(
            "bad",
            2,
            vec![Link {
                from: NodeId(1),
                to: NodeId(1),
                delivery: 0.5,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "not square")]
    fn rejects_non_square() {
        Topology::from_matrix("bad", vec![vec![0.0, 1.0], vec![0.0]]);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_bad_probability() {
        Topology::from_matrix("bad", vec![vec![0.0, 1.5], vec![0.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn rejects_self_link() {
        Topology::from_matrix("bad", vec![vec![0.5]]);
    }

    #[test]
    fn hop_counts() {
        let t = tri();
        assert_eq!(t.hop_count(NodeId(0), NodeId(0)), Some(0));
        assert_eq!(t.hop_count(NodeId(0), NodeId(2)), Some(1)); // direct weak link
        assert_eq!(t.hop_count(NodeId(2), NodeId(0)), None); // directed
        assert!(!t.is_connected());
    }

    #[test]
    fn hops_from_matches_hop_count() {
        let t = tri();
        let hops = t.hops_from(NodeId(0));
        for d in t.nodes() {
            assert_eq!(hops[d.0], t.hop_count(NodeId(0), d), "dst {d}");
        }
        assert_eq!(t.hops_from(NodeId(2)), vec![None, None, Some(0)]);
    }

    #[test]
    fn connectivity_is_strong() {
        // A directed ring is strongly connected; cut one arc and it isn't.
        let ring = Topology::from_links(
            "ring",
            3,
            vec![
                Link {
                    from: NodeId(0),
                    to: NodeId(1),
                    delivery: 0.9,
                },
                Link {
                    from: NodeId(1),
                    to: NodeId(2),
                    delivery: 0.9,
                },
                Link {
                    from: NodeId(2),
                    to: NodeId(0),
                    delivery: 0.9,
                },
            ],
        );
        assert!(ring.is_connected());
        let cut = Topology::from_links(
            "cut",
            3,
            vec![
                Link {
                    from: NodeId(0),
                    to: NodeId(1),
                    delivery: 0.9,
                },
                Link {
                    from: NodeId(1),
                    to: NodeId(2),
                    delivery: 0.9,
                },
            ],
        );
        assert!(!cut.is_connected());
        assert!(Topology::from_links("lonely", 1, vec![]).is_connected());
    }

    #[test]
    fn mean_loss() {
        let t = tri();
        let expect = ((1.0 - 1.0) + (1.0 - 0.49) + (1.0 - 1.0)) / 3.0;
        assert!((t.mean_link_loss() - expect).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let t = tri().with_positions(vec![
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
        ]);
        let s = t.to_json();
        let back = Topology::from_json(&s).unwrap();
        assert_eq!(back.n(), 3);
        assert_eq!(back.delivery(NodeId(0), NodeId(2)), 0.49);
        assert_eq!(back.positions().unwrap()[2].floor, 1);
    }

    #[test]
    fn sparse_json_roundtrip() {
        let t = tri().with_positions(vec![
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
        ]);
        let s = t.to_json_sparse();
        let back = Topology::from_json(&s).unwrap();
        assert_eq!(back.matrix(), t.matrix());
        assert_eq!(back.positions().unwrap()[2].floor, 1);
        // Re-serializing the reread topology is byte-stable in both forms.
        assert_eq!(back.to_json_sparse(), s);
        assert_eq!(back.to_json(), t.to_json());
    }

    #[test]
    fn sparse_json_isolated_node() {
        // "n" carries nodes the link list never mentions.
        let t = Topology::from_links(
            "island",
            3,
            vec![Link {
                from: NodeId(0),
                to: NodeId(1),
                delivery: 0.7,
            }],
        );
        let back = Topology::from_json(&t.to_json_sparse()).unwrap();
        assert_eq!(back.n(), 3);
        assert_eq!(back.neighbors(NodeId(2)).count(), 0);
    }

    #[test]
    fn sparse_json_rejects_malformed() {
        // Missing "n".
        assert!(Topology::from_json(r#"{"name": "x", "links": []}"#).is_err());
        // Link out of range.
        assert!(Topology::from_json(
            r#"{"name": "x", "n": 2, "links": [{"from": 0, "to": 5, "p": 0.5}]}"#
        )
        .is_err());
        // Probability outside (0,1].
        assert!(Topology::from_json(
            r#"{"name": "x", "n": 2, "links": [{"from": 0, "to": 1, "p": 1.5}]}"#
        )
        .is_err());
        // Self-loop.
        assert!(Topology::from_json(
            r#"{"name": "x", "n": 2, "links": [{"from": 1, "to": 1, "p": 0.5}]}"#
        )
        .is_err());
        // Duplicate ordered pair.
        assert!(Topology::from_json(
            r#"{"name": "x", "n": 2, "links": [{"from": 0, "to": 1, "p": 0.5}, {"from": 0, "to": 1, "p": 0.6}]}"#
        )
        .is_err());
        // Fractional endpoint.
        assert!(Topology::from_json(
            r#"{"name": "x", "n": 2, "links": [{"from": 0.5, "to": 1, "p": 0.5}]}"#
        )
        .is_err());
        // Missing link field.
        assert!(
            Topology::from_json(r#"{"name": "x", "n": 2, "links": [{"from": 0, "to": 1}]}"#)
                .is_err()
        );
        // Dense-form errors now surface as Err, not panics.
        assert!(Topology::from_json(r#"{"name": "x", "delivery": [[0, 2.0], [0, 0]]}"#).is_err());
        assert!(Topology::from_json(r#"{"name": "x", "delivery": [[0, 1.0], [0]]}"#).is_err());
        // Positions length mismatch.
        assert!(Topology::from_json(
            r#"{"name": "x", "n": 2, "links": [], "positions": [{"x": 0, "y": 0, "floor": 0}]}"#
        )
        .is_err());
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
