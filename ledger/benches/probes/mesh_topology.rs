//! `mesh-topology`: city generator, spatial index, CSR lookups, BFS.

use super::{Bench, Inputs, Out};
use mesh_topology::spatial::CellGrid;
use mesh_topology::{generate, Link, NodeId};
use std::hint::black_box;

/// Query radius, meters: about the city generator's longest usable link.
const RANGE_M: f64 = 150.0;

pub fn probe(b: &Bench, inputs: &Inputs, out: &mut Out) {
    let ns = b.ns(|| {
        black_box(generate::city_mesh(10_000, 1));
    });
    out.push(("mesh_topology.city_mesh_10k_ms", ns / 1e6));

    let topo = &inputs.city10k;
    let pos = topo.positions().expect("city meshes carry positions");
    let grid = CellGrid::from_positions(pos, RANGE_M);
    let (mut i, mut acc) = (0usize, 0u64);
    let ns = b.ns(|| {
        i = (i + 1) % pos.len();
        grid.for_each_candidate(pos[i].x, pos[i].y, RANGE_M, |id| acc += u64::from(id));
    });
    black_box(acc);
    out.push(("mesh_topology.cellgrid_query_ns", ns));

    let links: Vec<Link> = topo.links().take(4096).collect();
    let mut i = 0usize;
    let ns = b.ns(|| {
        i = (i + 1) % links.len();
        black_box(topo.delivery(links[i].from, links[i].to));
    });
    out.push(("mesh_topology.delivery_lookup_ns", ns));

    let mut src = 0usize;
    let ns = b.ns(|| {
        src = (src + 997) % topo.n();
        black_box(topo.hops_from(NodeId(src)));
    });
    out.push(("mesh_topology.hops_from_10k_ms", ns / 1e6));
}
