//! PE grid coordinates and interconnect latency models.
//!
//! MESA is "generally backend-agnostic ... as long as point-to-point latency
//! can be modeled" (paper §3.3). The [`LatencyModel`] trait is that
//! contract; the mapper consumes it when scoring candidate positions and
//! the accelerator consumes it when timing transfers. The two example
//! interconnects of the paper's Fig. 4 (Manhattan mesh and hierarchical row
//! slices) and the evaluation accelerator's neighbor-links-plus-half-ring
//! fabric (§5.2, Fig. 9) are all provided.

use std::fmt;

/// A PE position: `(row, col)` in the accelerator grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Coord {
    /// Row index (0-based).
    pub row: usize,
    /// Column index (0-based).
    pub col: usize,
}

impl Coord {
    /// Creates a coordinate.
    #[must_use]
    pub fn new(row: usize, col: usize) -> Self {
        Coord { row, col }
    }

    /// Manhattan distance (hop count on a mesh) to `other`.
    #[must_use]
    pub fn manhattan(self, other: Coord) -> u64 {
        (self.row.abs_diff(other.row) + self.col.abs_diff(other.col)) as u64
    }

    /// `true` when `other` is an immediate 4-neighbor.
    #[must_use]
    fn is_adjacent(self, other: Coord) -> bool {
        self.manhattan(other) == 1
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// Grid dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDim {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl GridDim {
    /// Creates a dimension descriptor.
    ///
    /// # Panics
    /// Panics on a zero-sized grid.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        GridDim { rows, cols }
    }

    /// Total PE count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` for a zero-sized grid (never constructed via [`GridDim::new`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when `c` lies inside the grid.
    #[must_use]
    pub fn contains(&self, c: Coord) -> bool {
        c.row < self.rows && c.col < self.cols
    }

    /// Row-major linear index of `c`.
    ///
    /// # Panics
    /// Panics when `c` is outside the grid.
    #[must_use]
    pub fn index(&self, c: Coord) -> usize {
        assert!(self.contains(c), "{c} outside {}x{} grid", self.rows, self.cols);
        c.row * self.cols + c.col
    }

    /// Inverse of [`GridDim::index`].
    #[must_use]
    pub fn coord(&self, index: usize) -> Coord {
        Coord::new(index / self.cols, index % self.cols)
    }

    /// Iterates all coordinates in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        let cols = self.cols;
        (0..self.len()).map(move |i| Coord::new(i / cols, i % cols))
    }
}

/// Point-to-point transfer latency of a backend interconnect.
///
/// Implementations must be cheap: the mapper evaluates one latency per
/// candidate position per instruction, in hardware a combinational cost
/// function.
pub trait LatencyModel {
    /// Cycles for a value produced at `from` to arrive at `to`.
    ///
    /// `from == to` is free (a PE forwarding to itself).
    fn transfer_latency(&self, from: Coord, to: Coord) -> u64;

    /// `true` when the transfer uses a direct (local) link rather than the
    /// shared network — local transfers are contention-free.
    fn is_local(&self, from: Coord, to: Coord) -> bool {
        from == to || self.transfer_latency(from, to) <= 1
    }

    /// A lower bound on [`transfer_latency`](Self::transfer_latency)
    /// between any two PEs `rows` rows apart, nondecreasing in `rows`.
    /// The mapper stops scanning rows once this bound rules them out; the
    /// default of 0 never rules a row out.
    fn min_latency_rows_apart(&self, _rows: usize) -> u64 {
        0
    }
}

/// Pure 2-D mesh: latency is the Manhattan distance (Fig. 4, Example 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshModel;

impl LatencyModel for MeshModel {
    fn transfer_latency(&self, from: Coord, to: Coord) -> u64 {
        from.manhattan(to)
    }

    fn min_latency_rows_apart(&self, rows: usize) -> u64 {
        rows as u64
    }
}

/// Hierarchical row slices: single-cycle within a row, fixed cost across
/// rows (Fig. 4, Example 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalRowModel {
    /// Latency between any two PEs in the same row.
    pub within_row: u64,
    /// Latency between PEs in different rows.
    pub cross_row: u64,
}

impl Default for HierarchicalRowModel {
    fn default() -> Self {
        // The constants used in the paper's Fig. 4 example.
        HierarchicalRowModel { within_row: 1, cross_row: 3 }
    }
}

impl LatencyModel for HierarchicalRowModel {
    fn transfer_latency(&self, from: Coord, to: Coord) -> u64 {
        if from == to {
            0
        } else if from.row == to.row {
            self.within_row
        } else {
            self.cross_row
        }
    }

    fn is_local(&self, from: Coord, to: Coord) -> bool {
        from.row == to.row
    }

    fn min_latency_rows_apart(&self, rows: usize) -> u64 {
        if rows == 0 {
            0
        } else {
            self.cross_row
        }
    }
}

/// The evaluation accelerator's fabric (paper §5.2, Fig. 9): direct
/// single-cycle links to the 4 immediate neighbors, and a lightweight
/// half-ring NoC with routing logic at every 4 PEs ("slices") for distant
/// transfers.
///
/// NoC latency = injection + ejection (one cycle each) plus one cycle per
/// slice hop horizontally and one per row hop vertically. Because mapped
/// loop bodies are acyclic and data flows feedforward, each lane behaves
/// like a bus (no deadlock), so contention — modelled in the engine, not
/// here — is per-row-lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfRingModel {
    /// PEs per routing slice along a row.
    pub slice_width: usize,
}

impl Default for HalfRingModel {
    fn default() -> Self {
        HalfRingModel { slice_width: 4 }
    }
}

impl LatencyModel for HalfRingModel {
    fn transfer_latency(&self, from: Coord, to: Coord) -> u64 {
        if from == to {
            return 0;
        }
        if from.is_adjacent(to) {
            return 1; // direct PE-PE link
        }
        let slice_from = from.col / self.slice_width;
        let slice_to = to.col / self.slice_width;
        let horiz = slice_from.abs_diff(slice_to) as u64;
        let vert = from.row.abs_diff(to.row) as u64;
        // inject + eject + lane traversal
        2 + horiz + vert
    }

    fn is_local(&self, from: Coord, to: Coord) -> bool {
        from == to || from.is_adjacent(to)
    }

    fn min_latency_rows_apart(&self, rows: usize) -> u64 {
        // Same PE; the vertical direct link; else the NoC's inject + eject
        // plus one hop per row.
        match rows {
            0 => 0,
            1 => 1,
            _ => 2 + rows as u64,
        }
    }
}

/// Rows that must stay together when a region moves: the FP checkerboard
/// (`AccelConfig::supports`) and the half-ring slices both repeat with this
/// period, and `AccelProgram::rows_per_tile` rounds to the same multiple,
/// so a region translated by a whole number of these bands lands on
/// identically-capable PEs.
pub const REGION_ROW_ALIGN: usize = 4;

/// A horizontal band of the PE grid leased to one tenant.
///
/// The fabric is carved along rows only: every region spans the full column
/// width (the half-ring lanes are per-row, so row bands never share a NoC
/// lane), and `first_row` is kept [`REGION_ROW_ALIGN`]-aligned so relocating
/// a region preserves both FP support and slice geometry. Because the
/// interconnect latency depends only on *relative* coordinates, a program
/// runs cycle-identically in any region of the same grid — the theorem the
/// migration property tests exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First grid row owned by the region.
    pub first_row: usize,
    /// Number of rows owned (non-zero).
    pub rows: usize,
    /// Number of columns (the full grid width for row-band regions).
    pub cols: usize,
}

impl Region {
    /// Creates a region descriptor. Emptiness and grid fit are checked at
    /// use sites (session start), not here, so a region can be built from
    /// untrusted snapshot data without panicking.
    #[must_use]
    pub fn new(first_row: usize, rows: usize, cols: usize) -> Self {
        Region { first_row, rows, cols }
    }

    /// The region covering a whole grid (what solo offloads use).
    #[must_use]
    pub fn full(grid: GridDim) -> Self {
        Region { first_row: 0, rows: grid.rows, cols: grid.cols }
    }

    /// One-past-the-last row owned by the region.
    #[must_use]
    pub fn end_row(&self) -> usize {
        self.first_row + self.rows
    }

    /// The region's own dimensions (programs validate against these).
    ///
    /// # Panics
    /// Panics for an empty region, like [`GridDim::new`]; callers check
    /// emptiness first (see [`Region::new`]).
    #[must_use]
    pub fn dims(&self) -> GridDim {
        GridDim::new(self.rows, self.cols)
    }

    /// `true` when the two regions share any row (disjointness check for
    /// admission).
    #[must_use]
    pub fn overlaps(&self, other: &Region) -> bool {
        self.first_row < other.end_row() && other.first_row < self.end_row()
    }

    /// `true` when the region starts on a [`REGION_ROW_ALIGN`] boundary.
    #[must_use]
    pub fn is_aligned(&self) -> bool {
        self.first_row.is_multiple_of(REGION_ROW_ALIGN)
    }

    /// `true` when the region fits inside a `rows` × `cols` grid.
    #[must_use]
    pub fn fits(&self, rows: usize, cols: usize) -> bool {
        self.rows > 0 && self.cols > 0 && self.end_row() <= rows && self.cols <= cols
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rows {}..{} x {} cols", self.first_row, self.end_row(), self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_test::{forall, prop_assert, Checker};

    #[test]
    fn manhattan_and_adjacency() {
        let a = Coord::new(1, 1);
        assert_eq!(a.manhattan(Coord::new(1, 1)), 0);
        assert_eq!(a.manhattan(Coord::new(3, 4)), 5);
        assert!(a.is_adjacent(Coord::new(1, 2)));
        assert!(a.is_adjacent(Coord::new(0, 1)));
        assert!(!a.is_adjacent(Coord::new(2, 2)), "diagonal is not adjacent");
    }

    #[test]
    fn grid_indexing_roundtrip() {
        let g = GridDim::new(16, 8);
        assert_eq!(g.len(), 128);
        for idx in [0, 7, 8, 127] {
            assert_eq!(g.index(g.coord(idx)), idx);
        }
        assert!(g.contains(Coord::new(15, 7)));
        assert!(!g.contains(Coord::new(16, 0)));
    }

    #[test]
    fn grid_iter_covers_all() {
        let g = GridDim::new(3, 4);
        let coords: Vec<_> = g.iter().collect();
        assert_eq!(coords.len(), 12);
        assert_eq!(coords[0], Coord::new(0, 0));
        assert_eq!(coords[11], Coord::new(2, 3));
    }

    #[test]
    fn mesh_latency_is_manhattan() {
        let m = MeshModel;
        assert_eq!(m.transfer_latency(Coord::new(0, 0), Coord::new(2, 3)), 5);
        assert!(m.is_local(Coord::new(0, 0), Coord::new(0, 1)));
        assert!(!m.is_local(Coord::new(0, 0), Coord::new(2, 3)));
    }

    #[test]
    fn hierarchical_matches_figure4_example1() {
        let h = HierarchicalRowModel::default();
        // Same row: 1 cycle; across rows: 3 cycles; self: 0.
        assert_eq!(h.transfer_latency(Coord::new(0, 0), Coord::new(0, 5)), 1);
        assert_eq!(h.transfer_latency(Coord::new(0, 0), Coord::new(2, 0)), 3);
        assert_eq!(h.transfer_latency(Coord::new(1, 1), Coord::new(1, 1)), 0);
    }

    #[test]
    fn half_ring_neighbor_is_one_cycle() {
        let r = HalfRingModel::default();
        assert_eq!(r.transfer_latency(Coord::new(3, 3), Coord::new(3, 4)), 1);
        assert_eq!(r.transfer_latency(Coord::new(3, 3), Coord::new(4, 3)), 1);
    }

    #[test]
    fn half_ring_distant_uses_noc() {
        let r = HalfRingModel::default();
        // Same slice, distance 2: inject(1)+eject(1)+0 hops = 2.
        assert_eq!(r.transfer_latency(Coord::new(0, 0), Coord::new(0, 2)), 2);
        // Two slices over (col 0 → col 9), same row: 2 + 2 = 4.
        assert_eq!(r.transfer_latency(Coord::new(0, 0), Coord::new(0, 9)), 4);
        // Cross-row long haul.
        assert_eq!(r.transfer_latency(Coord::new(0, 0), Coord::new(5, 9)), 9);
        assert!(!r.is_local(Coord::new(0, 0), Coord::new(0, 2)));
    }

    #[test]
    fn latency_models_are_symmetric() {
        let coords = [Coord::new(0, 0), Coord::new(3, 7), Coord::new(7, 1)];
        for &a in &coords {
            for &b in &coords {
                assert_eq!(MeshModel.transfer_latency(a, b), MeshModel.transfer_latency(b, a));
                let h = HierarchicalRowModel::default();
                assert_eq!(h.transfer_latency(a, b), h.transfer_latency(b, a));
                let r = HalfRingModel::default();
                assert_eq!(r.transfer_latency(a, b), r.transfer_latency(b, a));
            }
        }
    }

    /// The mapper's row pruning is exact only if no transfer beats the row
    /// bound and the bound never falls as rows grow apart.
    #[test]
    fn row_bounds_are_monotone_lower_bounds() {
        forall!(
            Checker::new("grid::row_bounds_are_monotone_lower_bounds").cases(256),
            |(
                a_row in 0usize..80,
                a_col in 0usize..16,
                b_row in 0usize..80,
                b_col in 0usize..16,
                hier in (0u64..8, 0u64..8),
                slice_width in 1usize..9,
            )| {
                let (a, b) = (Coord::new(a_row, a_col), Coord::new(b_row, b_col));
                let rows = a_row.abs_diff(b_row);
                let (within_row, cross_row) = hier;
                let models: [&dyn LatencyModel; 3] = [
                    &MeshModel,
                    &HierarchicalRowModel { within_row, cross_row },
                    &HalfRingModel { slice_width },
                ];
                for (m, model) in models.into_iter().enumerate() {
                    let bound = model.min_latency_rows_apart(rows);
                    prop_assert!(
                        model.transfer_latency(a, b) >= bound,
                        "model {m}: {a} -> {b} beats its row bound {bound}"
                    );
                    prop_assert!(
                        model.min_latency_rows_apart(rows + 1) >= bound,
                        "model {m}: bound falls after {rows} rows"
                    );
                }
            }
        );
    }

    #[test]
    fn regions_partition_rows() {
        let grid = GridDim::new(16, 8);
        let full = Region::full(grid);
        assert_eq!(full.dims(), grid);
        assert!(full.is_aligned() && full.fits(16, 8));

        let a = Region::new(0, 4, 8);
        let b = Region::new(4, 8, 8);
        let c = Region::new(12, 4, 8);
        assert!(!a.overlaps(&b) && !b.overlaps(&c) && !a.overlaps(&c));
        assert!(b.overlaps(&Region::new(8, 8, 8)));
        assert!(a.overlaps(&a));
        assert_eq!(b.end_row(), 12);
        assert!(Region::new(2, 4, 8).fits(16, 8));
        assert!(!Region::new(2, 4, 8).is_aligned());
        assert!(!Region::new(14, 4, 8).fits(16, 8), "hangs off the bottom");
        assert!(!Region::new(0, 4, 9).fits(16, 8), "too wide");
        assert!(!Region::new(0, 0, 8).fits(16, 8), "empty region never fits");
        assert_eq!(format!("{c}"), "rows 12..16 x 8 cols");
    }

    /// The migration-invisibility precondition: half-ring latency depends
    /// only on relative position, so translating both endpoints by an
    /// aligned row offset never changes the latency or locality class.
    #[test]
    fn half_ring_is_translation_invariant_across_aligned_bands() {
        let model = HalfRingModel::default();
        for (a, b) in [
            (Coord::new(0, 0), Coord::new(3, 7)),
            (Coord::new(1, 2), Coord::new(1, 3)),
            (Coord::new(2, 5), Coord::new(0, 0)),
        ] {
            for shift in [REGION_ROW_ALIGN, 2 * REGION_ROW_ALIGN, 3 * REGION_ROW_ALIGN] {
                let a2 = Coord::new(a.row + shift, a.col);
                let b2 = Coord::new(b.row + shift, b.col);
                assert_eq!(model.transfer_latency(a, b), model.transfer_latency(a2, b2));
                assert_eq!(model.is_local(a, b), model.is_local(a2, b2));
            }
        }
    }
}
