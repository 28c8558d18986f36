//! Spatial hashing for geometric topologies.
//!
//! A [`CellGrid`] buckets node positions into square cells of a chosen
//! size so "who is within `r` meters of (x, y)?" touches only the cells
//! overlapping that disc — O(points-in-cells) instead of a scan over all
//! `n` nodes. The geometric generators use it for minimum-separation
//! checks and candidate-link enumeration; the simulator's `Medium` uses
//! it to find carrier-sense/interference-range pairs.
//!
//! **Storage is flat and O(points).** A cell holds no vector of its own.
//! [`CellGrid::from_positions`] counting-sorts the points by cell into one
//! id array with per-cell offsets, so the cells of a grid row are one
//! contiguous run of ids. [`CellGrid::insert`] links a point into its
//! cell's chain instead: the cell holds the newest inserted entry, and
//! each entry the one inserted before it in the same cell.
//!
//! **The cell count is bounded by the point count.** A grid covering
//! `w × h` meters for `p` points widens its cells to at least `√(w·h ÷ p)`,
//! `w ÷ p` and `h ÷ p` whenever the requested side would allocate more,
//! so it never has more than `3p + 1` cells however far apart the points
//! lie. A wider cell only adds candidates: every caller applies the exact
//! distance predicate, so no result depends on the cell side.
//!
//! Determinism contract: queries visit the covered cells row by row. In
//! each row they visit first the points [`CellGrid::from_positions`]
//! placed, cell by cell in row-major order and ascending by id within a
//! cell, then the points inserted since, cell by cell, newest first.
//! Callers that feed results into anything RNG-bearing must therefore
//! either tolerate cell-major order or sort the candidate set — the
//! topology/medium builders do one or the other, so neighbor iteration
//! order is always sorted-by-`NodeId` regardless of geometry.
//!
//! The grid is strictly 2D (ground-plane x/y). Floors add vertical
//! distance, which can only *grow* a 3D separation, so a 2D query with a
//! 3D radius returns a superset of the true 3D neighborhood — callers do
//! the exact distance check on the candidates. Generators that need
//! same-floor queries keep one grid per floor.

#![expect(
    clippy::indexing_slicing,
    reason = "start and head are sized from rows*cols at construction and every cell index comes from cell_xy, which clamps into 0..cols-1 x 0..rows-1"
)]

use crate::Position;

/// End of a cell's chain.
const NONE: u32 = u32::MAX;

/// A uniform grid over a rectangle, bucketing point ids by cell.
///
/// Coordinates outside the covered rectangle are clamped into the border
/// cells, so the grid never loses a point — worst case a border cell is
/// overfull and queries do a few extra exact checks.
#[derive(Clone, Debug)]
#[must_use = "a cell grid does nothing until queried"]
pub struct CellGrid {
    cell: f64,
    /// `1 / cell`: a point's cell is a monotone function of its
    /// coordinates however it rounds, which is all a query needs.
    inv_cell: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// Row-major `rows × cols + 1` offsets: cell `c`'s points placed by
    /// [`CellGrid::from_positions`] are `ids[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    /// Point ids grouped by cell.
    ids: Vec<u32>,
    /// Row-major `rows × cols` chain heads: per cell, the index in
    /// `inserted` of its newest inserted point, or [`NONE`].
    head: Vec<u32>,
    /// Inserted points as `(id, previous entry in the same cell or NONE)`.
    inserted: Vec<(u32, u32)>,
}

impl CellGrid {
    /// An empty grid covering `[min_x, max_x] × [min_y, max_y]` for about
    /// `points` points, with square cells of side `cell` — clamped to a
    /// sane minimum, and widened so the grid has at most `3·points + 1`
    /// cells (see the module docs).
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64, cell: f64, points: usize) -> Self {
        let cell = if cell.is_finite() && cell > 1e-9 {
            cell
        } else {
            1.0
        };
        let width = (max_x - min_x).max(0.0);
        let depth = (max_y - min_y).max(0.0);
        let p = points.max(1) as f64;
        let cell = cell
            .max((width * depth / p).sqrt())
            .max(width / p)
            .max(depth / p);
        // At most `p` whole cells per side, so `cols × rows ≤ 3p + 1`;
        // NaN (an infinite extent) saturates to a single cell.
        let span = |extent: f64| (extent / cell).floor() as usize + 1;
        let cols = span(width);
        let rows = span(depth);
        CellGrid {
            cell,
            inv_cell: 1.0 / cell,
            min_x,
            min_y,
            cols,
            rows,
            start: vec![0; cols * rows + 1],
            ids: Vec::new(),
            head: vec![NONE; cols * rows],
            inserted: Vec::new(),
        }
    }

    /// A grid covering the bounding box of `positions`, with every point
    /// placed under its index, each cell's points ascending.
    pub fn from_positions(positions: &[Position], cell: f64) -> Self {
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if positions.is_empty() {
            min_x = 0.0;
            min_y = 0.0;
            max_x = 0.0;
            max_y = 0.0;
        }
        let mut grid = CellGrid::new(min_x, min_y, max_x, max_y, cell, positions.len());
        // Counting sort by cell: count into `start[c + 1]`, sum, then fill
        // each cell's run in ascending id order.
        let cells: Vec<usize> = positions.iter().map(|p| grid.cell_of(p.x, p.y)).collect();
        for &c in &cells {
            grid.start[c + 1] += 1;
        }
        let mut total = 0;
        for s in &mut grid.start {
            total += *s;
            *s = total;
        }
        let mut fill = grid.start.clone();
        grid.ids = vec![0; positions.len()];
        for (id, &c) in cells.iter().enumerate() {
            grid.ids[fill[c] as usize] = id as u32;
            fill[c] += 1;
        }
        grid
    }

    /// Side length of one cell, meters: the requested side, or wider when
    /// the point count bounded it.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Row-major index of the cell holding a point, clamped into the grid.
    #[inline]
    fn cell_of(&self, x: f64, y: f64) -> usize {
        let (cx, cy) = self.cell_xy(x, y);
        cy * self.cols + cx
    }

    /// Cell coordinates for a point, clamped into the grid.
    #[inline]
    fn cell_xy(&self, x: f64, y: f64) -> (usize, usize) {
        let cx = ((x - self.min_x) * self.inv_cell).floor();
        let cy = ((y - self.min_y) * self.inv_cell).floor();
        let clamp = |v: f64, hi: usize| (v.max(0.0) as usize).min(hi - 1);
        (clamp(cx, self.cols), clamp(cy, self.rows))
    }

    /// Adds a point id at `(x, y)`, first among its cell's inserted points.
    pub fn insert(&mut self, id: u32, x: f64, y: f64) {
        let c = self.cell_of(x, y);
        debug_assert!(self.inserted.len() < NONE as usize, "entry index space");
        self.inserted.push((id, self.head[c]));
        self.head[c] = (self.inserted.len() - 1) as u32;
    }

    /// Visits every id bucketed in a cell that intersects the axis-aligned
    /// square of half-width `radius` around `(x, y)` — a superset of all
    /// points within `radius` of the query point, in the order the module
    /// docs give; the caller applies the exact distance predicate.
    pub fn for_each_candidate(&self, x: f64, y: f64, radius: f64, mut f: impl FnMut(u32)) {
        let (cx0, cy0) = self.cell_xy(x - radius, y - radius);
        let (cx1, cy1) = self.cell_xy(x + radius, y + radius);
        for cy in cy0..=cy1 {
            let cells = cy * self.cols + cx0..cy * self.cols + cx1 + 1;
            let placed = self.start[cells.start] as usize..self.start[cells.end] as usize;
            for &id in &self.ids[placed] {
                f(id);
            }
            if self.inserted.is_empty() {
                continue;
            }
            for c in cells {
                let mut entry = self.head[c];
                while let Some(&(id, previous)) = self.inserted.get(entry as usize) {
                    f(id);
                    entry = previous;
                }
            }
        }
    }

    /// All candidate ids for a query disc, ascending and deduplicated
    /// (each id is bucketed once, so sorting suffices).
    pub fn candidates(&self, x: f64, y: f64, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_candidate(x, y, radius, |id| out.push(id));
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn finds_all_points_within_radius() {
        let pts: Vec<Position> = (0..100)
            .map(|i| Position {
                x: (i % 10) as f64 * 7.0,
                y: (i / 10) as f64 * 7.0,
                floor: 0,
            })
            .collect();
        let grid = CellGrid::from_positions(&pts, 10.0);
        for (qi, q) in pts.iter().enumerate() {
            let cand = grid.candidates(q.x, q.y, 15.0);
            // Every point truly within the radius must be a candidate.
            for (i, p) in pts.iter().enumerate() {
                let d = ((p.x - q.x).powi(2) + (p.y - q.y).powi(2)).sqrt();
                if d <= 15.0 {
                    assert!(
                        cand.binary_search(&(i as u32)).is_ok(),
                        "query {qi} missed point {i} at distance {d:.1}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidates_are_sorted_and_bounded() {
        let pts: Vec<Position> = (0..50)
            .map(|i| Position {
                x: (i as f64 * 13.7) % 100.0,
                y: (i as f64 * 29.3) % 80.0,
                floor: i % 3,
            })
            .collect();
        let grid = CellGrid::from_positions(&pts, 12.0);
        let cand = grid.candidates(50.0, 40.0, 12.0);
        assert!(cand.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        // The candidate square has side 2r + 2·cell at most: nothing
        // farther than the covered cells may appear.
        let reach = 12.0 + 2.0 * grid.cell_size();
        for &id in &cand {
            let p = &pts[id as usize];
            assert!((p.x - 50.0).abs() <= reach);
            assert!((p.y - 40.0).abs() <= reach);
        }
    }

    #[test]
    fn out_of_bounds_queries_clamp() {
        let pts = vec![
            Position {
                x: 0.0,
                y: 0.0,
                floor: 0,
            },
            Position {
                x: 5.0,
                y: 5.0,
                floor: 0,
            },
        ];
        let grid = CellGrid::from_positions(&pts, 4.0);
        // A query far outside the box still terminates and sees the
        // border cells.
        let cand = grid.candidates(-100.0, -100.0, 150.0);
        assert_eq!(cand, vec![0, 1]);
        // The far corner clamps to the border cell too: it terminates
        // and can only ever report real point ids.
        assert!(grid.candidates(1e9, 1e9, 1.0).iter().all(|&id| id < 2));
    }

    #[test]
    fn empty_and_degenerate_extents() {
        let grid = CellGrid::from_positions(&[], 10.0);
        assert!(grid.candidates(0.0, 0.0, 5.0).is_empty());
        let one = CellGrid::from_positions(
            &[Position {
                x: 3.0,
                y: 3.0,
                floor: 0,
            }],
            10.0,
        );
        assert_eq!(one.candidates(3.0, 3.0, 1.0), vec![0]);
    }

    #[test]
    fn incremental_insertion_matches_bulk() {
        let pts: Vec<Position> = (0..20)
            .map(|i| Position {
                x: i as f64 * 3.0,
                y: (i * i % 17) as f64,
                floor: 0,
            })
            .collect();
        let bulk = CellGrid::from_positions(&pts, 8.0);
        let mut inc = CellGrid::new(0.0, 0.0, 57.0, 16.0, 8.0, pts.len());
        for (i, p) in pts.iter().enumerate() {
            inc.insert(i as u32, p.x, p.y);
        }
        for q in &pts {
            assert_eq!(
                bulk.candidates(q.x, q.y, 9.0),
                inc.candidates(q.x, q.y, 9.0)
            );
        }
    }

    #[test]
    fn queries_keep_the_visiting_order_contract() {
        // Three points in one cell: placed points come ascending, then
        // the inserted ones, newest first.
        let at = |x: f64| Position {
            x,
            y: 0.0,
            floor: 0,
        };
        let pts = [at(0.0), at(1.0), at(2.0)];
        let mut grid = CellGrid::from_positions(&pts, 100.0);
        let visit = |grid: &CellGrid| {
            let mut seen = Vec::new();
            grid.for_each_candidate(1.0, 0.0, 1.0, |id| seen.push(id));
            seen
        };
        assert_eq!(visit(&grid), [0, 1, 2]);
        grid.insert(7, 1.5, 0.0);
        grid.insert(5, 0.5, 0.0);
        assert_eq!(visit(&grid), [0, 1, 2, 5, 7]);
    }

    #[test]
    fn far_flung_points_get_at_most_three_cells_per_point_and_one() {
        // Two points a million kilometres apart with 42 m cells asked for
        // would be ~5.7e14 cells; the point count bounds the grid instead,
        // and queries still find every point within range.
        let pts = [
            Position::default(),
            Position {
                x: 1e9,
                y: 1e9,
                floor: 0,
            },
            Position {
                x: 30.0,
                y: 0.0,
                floor: 0,
            },
        ];
        let grid = CellGrid::from_positions(&pts, 42.0);
        assert!(
            grid.head.len() <= 3 * pts.len() + 1,
            "{} cells",
            grid.head.len()
        );
        assert_eq!(grid.candidates(0.0, 0.0, 42.0), vec![0, 2]);
        assert!(grid.candidates(1e9, 1e9, 42.0).contains(&1));
        // A long thin line is bounded too: no area to divide, one row.
        let line: Vec<Position> = (0..10)
            .map(|i| Position {
                x: i as f64 * 1e8,
                y: 0.0,
                floor: 0,
            })
            .collect();
        let grid = CellGrid::from_positions(&line, 1.0);
        assert!(
            grid.head.len() <= 3 * line.len() + 1,
            "{} cells",
            grid.head.len()
        );
        // So is an empty grid asked for tiny cells over a wide box.
        let empty = CellGrid::new(0.0, 0.0, 1e12, 1e12, 1e-3, 0);
        assert!(empty.head.len() <= 4, "{} cells", empty.head.len());
    }
}
