//! The Spatial DFG (SDFG) and the data-driven instruction mapping
//! algorithm (paper §3.3, Algorithm 1).
//!
//! For each instruction in LDFG order, the mapper takes a candidate
//! window `C_i` of nearby positions (a fixed 4×8 window positioned at the
//! higher-latency predecessor, as in the hardware implementation), filters
//! it with the occupancy matrix `F_free` and the per-operation support
//! matrix `F_op`, computes the expected completion latency of the
//! instruction at the remaining candidates (Eq. 1), and greedily commits
//! to the latency-minimizing position — single pass, no backtracking.
//! Instructions that fail to place fall back to the slower shared bus.
//!
//! The winner is the lexicographic minimum of `(latency, −free neighbors,
//! row, col)`, or `(latency, row, col)` with the neighbor tie-break off:
//! exactly the position a row-major scan keeping strict improvements (and
//! strictly more free neighbors on a latency tie) would pick. Since the key
//! alone fixes the winner, the window's rows can be visited in any order.
//! They are visited outward from the row of the *pivot*, the placed
//! non-carried source with the largest latency `l*`: every candidate `r`
//! rows from it costs at least `op_weight + l* +`
//! [`LatencyModel::min_latency_rows_apart`]`(r)`, a bound that never falls
//! as `r` grows, so the scan stops at the first row whose bound exceeds
//! the best latency found. On a tall exhaustive window this scores a few
//! rows instead of every free PE, with the same placement. Nodes without a
//! pivot score the same everywhere and scan the window row-major.

use crate::{Ldfg, LdfgNode};
use mesa_accel::{Coord, GridDim, LatencyModel, Operand};
use mesa_isa::OpClass;
use std::ops::Range;

/// How the candidate matrix is positioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowMode {
    /// Fixed `rows × cols` window anchored at the higher-latency
    /// predecessor — what the paper's RTL implements ("due to constraints,
    /// C_i is a fixed 4×8 matrix positioned based on the predecessor with
    /// higher latency").
    FixedAtAnchor,
    /// The equidistant rectangle enclosed by the two predecessors (Eq. 3),
    /// falling back to the fixed window when fewer than two predecessors
    /// are placed. Used as an ablation.
    PredecessorRect,
}

/// Mapper parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapperConfig {
    /// Candidate window rows.
    pub window_rows: usize,
    /// Candidate window columns.
    pub window_cols: usize,
    /// Window positioning policy.
    pub window_mode: WindowMode,
    /// Break latency ties by preferring positions with more free
    /// neighbors (the paper's tie-break); `false` takes the first minimum
    /// (ablation).
    pub tie_break_neighbors: bool,
    /// Expected extra latency for operands crossing the fallback bus
    /// (used in the model when a producer is unplaced).
    pub fallback_penalty: u64,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            window_rows: 4,
            window_cols: 8,
            window_mode: WindowMode::FixedAtAnchor,
            tie_break_neighbors: true,
            fallback_penalty: 6,
        }
    }
}

/// The planar, position-indexed view of the mapped region (paper §3).
#[derive(Debug, Clone, PartialEq)]
pub struct Sdfg {
    /// Target grid dimensions.
    pub grid: GridDim,
    /// Placement per LDFG node (`None` = fallback bus).
    pub placement: Vec<Option<Coord>>,
    /// Expected completion latency per node at placement time (the model's
    /// `L_i`).
    pub est_latency: Vec<u64>,
    /// Nodes that could not be placed.
    pub failed: Vec<u32>,
}

impl Sdfg {
    /// Expected latency of one iteration under the placement model.
    #[must_use]
    pub fn expected_iteration_latency(&self) -> u64 {
        self.est_latency.iter().copied().max().unwrap_or(0)
    }

    /// Number of PEs used.
    #[must_use]
    pub fn pes_used(&self) -> usize {
        self.placement.iter().flatten().count()
    }

    /// The node placed at `c`, if any.
    #[must_use]
    fn node_at(&self, c: Coord) -> Option<u32> {
        self.placement
            .iter()
            .position(|&p| p == Some(c))
            .map(|i| i as u32)
    }
}

impl std::fmt::Display for Sdfg {
    /// Renders the placement as a grid: each cell shows the node index
    /// occupying that PE (`.` for free PEs). Rows beyond the last used one
    /// are elided.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let last_row = self
            .placement
            .iter()
            .flatten()
            .map(|c| c.row)
            .max()
            .unwrap_or(0);
        writeln!(
            f,
            "SDFG on {}x{} grid ({} placed, {} on fallback bus):",
            self.grid.rows,
            self.grid.cols,
            self.pes_used(),
            self.failed.len()
        )?;
        for row in 0..=last_row.min(self.grid.rows - 1) {
            for col in 0..self.grid.cols {
                match self.node_at(Coord::new(row, col)) {
                    Some(i) => write!(f, "{i:>4}")?,
                    None => write!(f, "{:>4}", ".")?,
                }
            }
            writeln!(f)?;
        }
        if !self.failed.is_empty() {
            writeln!(f, "fallback bus: {:?}", self.failed)?;
        }
        Ok(())
    }
}

/// Maps an LDFG onto a grid, producing the SDFG.
///
/// `supports(coord, class)` is the backend's `F_op` oracle (which PEs can
/// execute which operation classes); `model` supplies point-to-point
/// transfer latencies.
pub fn map_instructions<S, M>(
    ldfg: &Ldfg,
    grid: GridDim,
    supports: &S,
    model: &M,
    cfg: &MapperConfig,
) -> Sdfg
where
    S: Fn(Coord, OpClass) -> bool,
    M: LatencyModel + ?Sized,
{
    let n = ldfg.nodes.len();
    let mut free = vec![true; grid.len()];
    let mut placement: Vec<Option<Coord>> = vec![None; n];
    let mut est_latency = vec![0u64; n];
    let mut failed = Vec::new();
    let mut last_placed: Option<Coord> = None;
    // Reused across nodes: the memoized per-source (latency, producer
    // placement) pairs.
    let mut src_arrivals: Vec<(u64, Option<Coord>)> = Vec::new();

    for (i, node) in ldfg.nodes.iter().enumerate() {
        // Arrival estimate per source and the anchoring predecessor.
        let (anchor, rect_corners) =
            anchor_for(node, &placement, &est_latency, last_placed);
        let (rows, cols) = window(grid, anchor, rect_corners, cfg);
        let class = node.instr.class();

        // Memoize the placed-source arrival inputs once per node instead of
        // re-resolving operands and placements for every candidate.
        src_arrivals.clear();
        for src in &node.src {
            if let Operand::Node { idx, carried: false, .. } = *src {
                src_arrivals.push((
                    est_latency[idx as usize],
                    placement.get(idx as usize).copied().flatten(),
                ));
            }
        }
        // The pivot: the placed source with the largest latency `l*`. A
        // candidate `r` rows from it costs at least `floor` (`op_weight +
        // l*`) plus the model's bound for `r` rows. Without a pivot the
        // scan is row-major from the window's first row.
        let pivot = src_arrivals
            .iter()
            .filter_map(|&(l, p)| Some((p?.row, l)))
            .max_by_key(|&(_, l)| l);
        let (pivot_row, floor) = match pivot {
            Some((row, l)) => (row, Some(node.op_weight + l)),
            None => (rows.start, None),
        };
        // `free_neighbors` only breaks exact latency ties, so it is
        // evaluated lazily: for candidates that improve on the best
        // latency (to seed future tie-breaks) and for tie candidates.
        let neighbors = |c: Coord| {
            if cfg.tie_break_neighbors {
                free_neighbors(grid, &free, c)
            } else {
                0
            }
        };

        // Evaluate expected latency at the candidates (Alg. 1 lines 8-18).
        let mut best: Option<(Coord, u64, usize)> = None;
        'rows: for row in rows_outward(pivot_row, rows) {
            if let (Some(floor), Some((_, bl, _))) = (floor, best) {
                if floor + model.min_latency_rows_apart(row.abs_diff(pivot_row)) > bl {
                    break;
                }
            }
            for col in cols.clone() {
                let c = Coord::new(row, col);
                if !free[grid.index(c)] || !supports(c, class) {
                    continue;
                }
                let mut arrival = 0u64;
                for &(l_s, p) in &src_arrivals {
                    let transfer = match p {
                        Some(p) => model.transfer_latency(p, c),
                        None => cfg.fallback_penalty,
                    };
                    arrival = arrival.max(l_s + transfer);
                }
                let exp = node.op_weight + arrival;
                // Keep the minimum of (exp, −neighbors, row, col).
                match best {
                    Some((_, bl, _)) if exp > bl => {}
                    Some((bc, bl, bn)) if exp == bl => {
                        let nb = neighbors(c);
                        if nb > bn || (nb == bn && c < bc) {
                            best = Some((c, exp, nb));
                        }
                    }
                    _ => {
                        best = Some((c, exp, neighbors(c)));
                        // Without a pivot every candidate scores the same;
                        // with the tie-break off the first one is final.
                        if floor.is_none() && !cfg.tie_break_neighbors {
                            break 'rows;
                        }
                    }
                }
            }
        }

        match best {
            Some((c, exp, _)) => {
                placement[i] = Some(c);
                est_latency[i] = exp;
                free[grid.index(c)] = false;
                last_placed = Some(c);
            }
            None => {
                failed.push(i as u32);
                est_latency[i] = expected_latency_unplaced(node, &est_latency, cfg);
            }
        }
    }

    Sdfg { grid, placement, est_latency, failed }
}

/// Finds the window anchor: the placed predecessor whose data arrives
/// last (it "necessarily lies on the critical path", §3.3), plus both
/// predecessors' corners for the rectangle mode.
fn anchor_for(
    node: &LdfgNode,
    placement: &[Option<Coord>],
    est_latency: &[u64],
    last_placed: Option<Coord>,
) -> (Coord, Option<(Coord, Coord)>) {
    let mut anchor: Option<(Coord, u64)> = None;
    let mut corners: Vec<Coord> = Vec::new();
    for src in &node.src {
        if let Operand::Node { idx, carried, .. } = *src {
            if let Some(c) = placement.get(idx as usize).copied().flatten() {
                corners.push(c);
                // Carried inputs arrive at iteration start; they anchor
                // for locality but with zero arrival weight.
                let arrival = if carried { 0 } else { est_latency[idx as usize] };
                if anchor.is_none_or(|(_, a)| arrival >= a) {
                    anchor = Some((c, arrival));
                }
            }
        }
    }
    let anchor = anchor
        .map(|(c, _)| c)
        .or(last_placed)
        .unwrap_or(Coord::new(0, 0));
    let rect = if corners.len() == 2 {
        Some((corners[0], corners[1]))
    } else {
        None
    };
    (anchor, rect)
}

/// The candidate window `C_i` as row and column ranges, clipped to the
/// grid.
fn window(
    grid: GridDim,
    anchor: Coord,
    rect: Option<(Coord, Coord)>,
    cfg: &MapperConfig,
) -> (Range<usize>, Range<usize>) {
    match (cfg.window_mode, rect) {
        (WindowMode::PredecessorRect, Some((a, b))) => {
            // The rectangle enclosed by the predecessors, padded by one so
            // that fully-occupied degenerate rectangles still offer room.
            let r0 = a.row.min(b.row).saturating_sub(1);
            let r1 = (a.row.max(b.row) + 2).min(grid.rows);
            let c0 = a.col.min(b.col).saturating_sub(1);
            let c1 = (a.col.max(b.col) + 2).min(grid.cols);
            (r0..r1, c0..c1)
        }
        _ => {
            // Fixed window anchored at the predecessor, clipped to the grid
            // while keeping its full size where possible.
            let r0 = anchor
                .row
                .saturating_sub(1)
                .min(grid.rows.saturating_sub(cfg.window_rows));
            let r1 = (r0 + cfg.window_rows).min(grid.rows);
            let c0 = anchor
                .col
                .saturating_sub(cfg.window_cols / 2)
                .min(grid.cols.saturating_sub(cfg.window_cols.min(grid.cols)));
            let c1 = (c0 + cfg.window_cols).min(grid.cols);
            (r0..r1, c0..c1)
        }
    }
}

/// The rows of `rows` in nondecreasing distance from `pivot`, which may
/// lie outside the range.
fn rows_outward(pivot: usize, rows: Range<usize>) -> impl Iterator<Item = usize> {
    let split = pivot.clamp(rows.start, rows.end);
    let mut below = (split..rows.end).peekable();
    let mut above = (rows.start..split).rev().peekable();
    std::iter::from_fn(move || match (below.peek(), above.peek()) {
        // Both sides non-empty means `pivot == split`, inside the range.
        (Some(&b), Some(&a)) if b - pivot > pivot - a => above.next(),
        (Some(_), _) => below.next(),
        (None, _) => above.next(),
    })
}

/// Model latency for a node left on the fallback bus.
fn expected_latency_unplaced(node: &LdfgNode, est_latency: &[u64], cfg: &MapperConfig) -> u64 {
    let mut arrival = 0u64;
    for src in &node.src {
        if let Operand::Node { idx, carried: false, .. } = *src {
            arrival = arrival.max(est_latency[idx as usize] + cfg.fallback_penalty);
        }
    }
    node.op_weight + arrival + cfg.fallback_penalty
}

/// Counts free 4-neighbors of `c` (the tie-break metric).
fn free_neighbors(grid: GridDim, free: &[bool], c: Coord) -> usize {
    let mut count = 0;
    let deltas: [(isize, isize); 4] = [(-1, 0), (1, 0), (0, -1), (0, 1)];
    for (dr, dc) in deltas {
        let row = c.row as isize + dr;
        let col = c.col as isize + dc;
        if row >= 0 && col >= 0 {
            let nc = Coord::new(row as usize, col as usize);
            if grid.contains(nc) && free[grid.index(nc)] {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_accel::{HierarchicalRowModel, MeshModel};
    use mesa_isa::{Asm};
    use mesa_isa::reg::abi::*;

    fn fp_chain_ldfg() -> Ldfg {
        // i1 = fadd (inputs ready), i2 = fmul(i1), i3 = fmul(i1) — the
        // shape of the paper's Fig. 3/4 snippet.
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.fadd_s(FT0, FA0, FA1); // i1
        a.fmul_s(FT1, FT0, FA2); // i2
        a.fmul_s(FT2, FT0, FA3); // i3
        a.addi(T0, T0, 1);
        a.bne(T0, A1, "loop");
        Ldfg::build(&a.finish().unwrap()).unwrap()
    }

    #[test]
    fn figure4_example2_mesh_picks_nearest_compatible() {
        // Mesh interconnect: latency = Manhattan distance. FP only on
        // columns 2 and 3 ("integer PEs filtered out by F_op").
        let ldfg = fp_chain_ldfg();
        let grid = GridDim::new(4, 4);
        let supports = |c: Coord, class: OpClass| -> bool {
            if class.needs_fp() {
                c.col >= 2
            } else {
                true
            }
        };
        let sdfg = map_instructions(&ldfg, grid, &supports, &MeshModel, &MapperConfig::default());
        assert!(sdfg.failed.is_empty());
        let p1 = sdfg.placement[0].unwrap(); // i1
        let p3 = sdfg.placement[2].unwrap(); // i3 (depends only on i1)
        // i3 must sit at an FP PE...
        assert!(p3.col >= 2);
        // ...and as close to i1 as any other free FP PE could be, given i2
        // took one neighbor.
        let dist = p1.manhattan(p3);
        assert!(dist <= 2, "i3 at {p3} is {dist} hops from i1 at {p1}");
    }

    #[test]
    fn figure4_example1_hierarchical_prefers_same_row() {
        // Row-slice interconnect: 1 cycle within a row, 3 across rows. The
        // mapper should keep the dependent multiply in i1's row when a
        // compatible PE is free there.
        let ldfg = fp_chain_ldfg();
        let grid = GridDim::new(4, 8);
        let supports = |_c: Coord, _class: OpClass| true;
        let model = HierarchicalRowModel::default();
        let sdfg = map_instructions(&ldfg, grid, &supports, &model, &MapperConfig::default());
        let p1 = sdfg.placement[0].unwrap();
        let p2 = sdfg.placement[1].unwrap();
        let p3 = sdfg.placement[2].unwrap();
        assert_eq!(p1.row, p2.row, "i2 stays in i1's row slice");
        assert_eq!(p1.row, p3.row, "i3 stays in i1's row slice");
    }

    #[test]
    fn occupied_positions_are_filtered() {
        let ldfg = fp_chain_ldfg();
        let grid = GridDim::new(4, 4);
        let supports = |_: Coord, _: OpClass| true;
        let sdfg = map_instructions(&ldfg, grid, &supports, &MeshModel, &MapperConfig::default());
        let placed: Vec<Coord> = sdfg.placement.iter().flatten().copied().collect();
        let mut dedup = placed.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(placed.len(), dedup.len(), "no two nodes share a PE");
    }

    #[test]
    fn unsupported_everywhere_falls_back_to_bus() {
        let ldfg = fp_chain_ldfg();
        let grid = GridDim::new(4, 4);
        // No FP anywhere: all three FP nodes must fail to place.
        let supports = |_c: Coord, class: OpClass| !class.needs_fp();
        let sdfg = map_instructions(&ldfg, grid, &supports, &MeshModel, &MapperConfig::default());
        assert_eq!(sdfg.failed, vec![0, 1, 2]);
        assert!(sdfg.placement[0].is_none());
        // The integer tail still places.
        assert!(sdfg.placement[3].is_some());
        assert!(sdfg.placement[4].is_some());
    }

    #[test]
    fn estimated_latency_reflects_placement_distance() {
        let ldfg = fp_chain_ldfg();
        let grid = GridDim::new(8, 8);
        let supports = |_: Coord, _: OpClass| true;
        let sdfg = map_instructions(&ldfg, grid, &supports, &MeshModel, &MapperConfig::default());
        // i1: 3 cycles (fadd, inputs ready). i2: 5 + (3 + dist).
        assert_eq!(sdfg.est_latency[0], 3);
        let p1 = sdfg.placement[0].unwrap();
        let p2 = sdfg.placement[1].unwrap();
        assert_eq!(sdfg.est_latency[1], 5 + 3 + p1.manhattan(p2));
        // The mapper found an adjacent slot for the first dependent.
        assert_eq!(p1.manhattan(p2), 1);
    }

    #[test]
    fn predecessor_rect_mode_places_between_parents() {
        // Node with two placed parents: the rectangle mode searches the
        // enclosed region.
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.fadd_s(FT0, FA0, FA1); // i0
        a.fadd_s(FT1, FA2, FA3); // i1
        a.fmul_s(FT2, FT0, FT1); // i2: two parents
        a.addi(T0, T0, 1);
        a.bne(T0, A1, "loop");
        let ldfg = Ldfg::build(&a.finish().unwrap()).unwrap();
        let grid = GridDim::new(8, 8);
        let supports = |_: Coord, _: OpClass| true;
        let cfg = MapperConfig { window_mode: WindowMode::PredecessorRect, ..Default::default() };
        let sdfg = map_instructions(&ldfg, grid, &supports, &MeshModel, &cfg);
        assert!(sdfg.failed.is_empty());
        let p0 = sdfg.placement[0].unwrap();
        let p1 = sdfg.placement[1].unwrap();
        let p2 = sdfg.placement[2].unwrap();
        // The child sits within one step of the parents' bounding box.
        assert!(p2.row + 1 >= p0.row.min(p1.row) && p2.row <= p0.row.max(p1.row) + 1);
        assert!(p2.col + 1 >= p0.col.min(p1.col) && p2.col <= p0.col.max(p1.col) + 1);
    }

    #[test]
    fn dense_region_saturates_small_grid() {
        // More FP instructions than a 2x2 grid can hold: the tail fails.
        let mut a = Asm::new(0x1000);
        a.label("loop");
        for _ in 0..6 {
            a.fadd_s(FT0, FT0, FA1);
        }
        a.addi(T0, T0, 1);
        a.bne(T0, A1, "loop");
        let ldfg = Ldfg::build(&a.finish().unwrap()).unwrap();
        let grid = GridDim::new(2, 2);
        let supports = |_: Coord, _: OpClass| true;
        let sdfg = map_instructions(&ldfg, grid, &supports, &MeshModel, &MapperConfig::default());
        assert_eq!(sdfg.pes_used(), 4);
        assert!(!sdfg.failed.is_empty());
    }

    #[test]
    fn expected_iteration_latency_is_max() {
        let ldfg = fp_chain_ldfg();
        let grid = GridDim::new(8, 8);
        let supports = |_: Coord, _: OpClass| true;
        let sdfg = map_instructions(&ldfg, grid, &supports, &MeshModel, &MapperConfig::default());
        assert_eq!(
            sdfg.expected_iteration_latency(),
            *sdfg.est_latency.iter().max().unwrap()
        );
    }

    #[test]
    fn node_at_inverts_placement() {
        let ldfg = fp_chain_ldfg();
        let grid = GridDim::new(8, 8);
        let supports = |_: Coord, _: OpClass| true;
        let sdfg = map_instructions(&ldfg, grid, &supports, &MeshModel, &MapperConfig::default());
        for (i, p) in sdfg.placement.iter().enumerate() {
            if let Some(c) = p {
                assert_eq!(sdfg.node_at(*c), Some(i as u32));
            }
        }
        assert_eq!(sdfg.node_at(Coord::new(7, 7)), None);
    }

    #[test]
    fn display_renders_the_grid() {
        let ldfg = fp_chain_ldfg();
        let grid = GridDim::new(8, 8);
        let supports = |_: Coord, _: OpClass| true;
        let sdfg = map_instructions(&ldfg, grid, &supports, &MeshModel, &MapperConfig::default());
        let s = sdfg.to_string();
        assert!(s.contains("SDFG on 8x8 grid"));
        assert!(s.contains('0'), "node indices shown: {s}");
        assert!(s.contains('.'), "free PEs shown: {s}");
    }
}
