//! Per-PE spatial attribution: fold the feedback-channel counter bank
//! onto the accelerator grid so mapper hot spots are visible at a glance.
//!
//! Each placed node's [`NodeCounter`] readings accumulate into the cell of
//! its configured coordinate (tiled replicas fold onto the base tile —
//! the counters themselves are per-node across all tiles); nodes on the
//! fallback bus accumulate into a separate `bus` cell. Totals are exact:
//! the grid plus the bus hold every fire and every counted cycle, and the
//! fire total equals the engine's [`ActivityStats`] operation total.

use mesa_accel::{ActivityStats, Coord, GridDim, NodeCounter, PerfCounters};
use mesa_trace::Json;

/// Accumulated counters of one grid cell (or the fallback bus).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeCell {
    /// Node firings attributed to this PE.
    pub fires: u64,
    /// Operation cycles (inputs-ready → output) attributed to this PE.
    pub op_cycles: u64,
    /// Input transfer cycles (routing occupancy) attributed to this PE.
    pub in_cycles: u64,
}

impl PeCell {
    fn absorb(&mut self, ctr: &NodeCounter) {
        self.fires += ctr.fires;
        self.op_cycles += ctr.total_op_cycles;
        self.in_cycles += ctr.total_in_cycles[0] + ctr.total_in_cycles[1];
    }

    /// Total busy cycles: operation plus routing.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.op_cycles + self.in_cycles
    }
}

/// A `Coord`-indexed grid of per-PE activity, plus the fallback bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpatialProfile {
    rows: usize,
    cols: usize,
    cells: Vec<PeCell>,
    /// Activity of nodes that fell back to the shared bus (no coordinate).
    pub bus: PeCell,
}

impl SpatialProfile {
    /// Folds a counter bank onto the grid using the final placement
    /// (`placement[i]` is node `i`'s coordinate, `None` = bus), as the
    /// controller reports it in `OffloadReport::placement`.
    ///
    /// Coordinates outside `grid` (which a valid program never produces)
    /// fold onto the bus rather than being dropped, keeping totals exact.
    #[must_use]
    pub fn new(grid: GridDim, placement: &[Option<Coord>], counters: &PerfCounters) -> Self {
        let mut p = SpatialProfile {
            rows: grid.rows,
            cols: grid.cols,
            cells: vec![PeCell::default(); grid.rows * grid.cols],
            bus: PeCell::default(),
        };
        for (slot, ctr) in placement.iter().zip(&counters.nodes) {
            match slot {
                Some(c) if grid.contains(*c) => {
                    p.cells[c.row * grid.cols + c.col].absorb(ctr);
                }
                _ => p.bus.absorb(ctr),
            }
        }
        p
    }

    /// Grid rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The cell at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the grid.
    #[must_use]
    pub fn cell(&self, row: usize, col: usize) -> &PeCell {
        assert!(row < self.rows && col < self.cols, "({row},{col}) outside the grid");
        &self.cells[row * self.cols + col]
    }

    /// Total fires across the grid and the bus.
    #[must_use]
    pub fn total_fires(&self) -> u64 {
        self.cells.iter().map(|c| c.fires).sum::<u64>() + self.bus.fires
    }

    /// Total operation cycles across the grid and the bus.
    #[must_use]
    pub fn total_op_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.op_cycles).sum::<u64>() + self.bus.op_cycles
    }

    /// Total transfer (routing) cycles across the grid and the bus.
    #[must_use]
    pub fn total_in_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.in_cycles).sum::<u64>() + self.bus.in_cycles
    }

    /// PEs with at least one fire.
    #[must_use]
    fn occupied_pes(&self) -> usize {
        self.cells.iter().filter(|c| c.fires > 0).count()
    }

    /// The heatmap/activity consistency invariant: every enabled node
    /// firing executes exactly one operation, so the fold's fire total
    /// must equal the engine's op total (`int + fp + loads + stores`).
    #[must_use]
    pub fn matches_activity(&self, activity: &ActivityStats) -> bool {
        self.total_fires()
            == activity.int_ops + activity.fp_ops + activity.loads + activity.stores
    }

    /// The hottest `k` cells by busy cycles, hottest first, as
    /// `(coord, cell)`. Ties break row-major so the ranking is
    /// deterministic.
    #[must_use]
    pub fn hottest(&self, k: usize) -> Vec<(Coord, PeCell)> {
        let mut ranked: Vec<(Coord, PeCell)> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.busy_cycles() > 0)
            .map(|(i, c)| (Coord::new(i / self.cols, i % self.cols), *c))
            .collect();
        ranked.sort_by_key(|(_, c)| std::cmp::Reverse(c.busy_cycles()));
        ranked.truncate(k);
        ranked
    }

    /// ASCII heatmap: one glyph per PE scaled to the hottest cell's busy
    /// cycles (`.` = mapped but idle this fold, ` ` = never used). Rows
    /// past the last occupied one are elided.
    #[must_use]
    pub fn render(&self) -> String {
        const RAMP: [char; 9] = ['1', '2', '3', '4', '5', '6', '7', '8', '9'];
        let max = self.cells.iter().map(PeCell::busy_cycles).max().unwrap_or(0);
        let used_rows = (0..self.rows)
            .rev()
            .find(|&r| (0..self.cols).any(|c| self.cell(r, c).fires > 0))
            .map_or(0, |r| r + 1);
        let mut out = format!(
            "per-PE heatmap ({}x{} grid, {} PEs active, scale 1-9 = busy cycles / {}):\n",
            self.rows,
            self.cols,
            self.occupied_pes(),
            max.max(1)
        );
        for r in 0..used_rows {
            out.push_str(&format!("  row {r:>2} |"));
            for c in 0..self.cols {
                let cell = self.cell(r, c);
                let glyph = if cell.fires == 0 {
                    ' '
                } else if cell.busy_cycles() == 0 || max == 0 {
                    '.'
                } else {
                    // busy in [1, max] → index in [0, 8].
                    RAMP[((cell.busy_cycles() * 9 - 1) / max.max(1)).min(8) as usize]
                };
                out.push(glyph);
            }
            out.push_str("|\n");
        }
        if used_rows == 0 {
            out.push_str("  (no PE activity)\n");
        }
        if self.bus.fires > 0 {
            out.push_str(&format!(
                "  bus (unplaced): {} fires, {} busy cycles\n",
                self.bus.fires,
                self.bus.busy_cycles()
            ));
        }
        out
    }

    /// The machine-readable matrix:
    /// `{"rows":R,"cols":C,"fires":[[...]],"op_cycles":[[...]],"in_cycles":[[...]],"bus":{...}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let matrix = |field: fn(&PeCell) -> u64| {
            let row = |r| Json::arr((0..self.cols).map(|c| field(self.cell(r, c))));
            Json::arr((0..self.rows).map(row))
        };
        let bus = &self.bus;
        let bus = Json::obj([
            ("fires", bus.fires.into()),
            ("op_cycles", bus.op_cycles.into()),
            ("in_cycles", bus.in_cycles.into()),
        ]);
        Json::obj([
            ("rows", self.rows.into()),
            ("cols", self.cols.into()),
            ("fires", matrix(|c| c.fires)),
            ("op_cycles", matrix(|c| c.op_cycles)),
            ("in_cycles", matrix(|c| c.in_cycles)),
            ("bus", bus),
            ("total_fires", self.total_fires().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> (Vec<Option<Coord>>, PerfCounters) {
        let mut counters = PerfCounters::new(3);
        counters.nodes[0] = NodeCounter {
            fires: 10,
            total_op_cycles: 50,
            total_in_cycles: [5, 0],
            in_samples: [10, 0],
        };
        counters.nodes[1] = NodeCounter { fires: 10, total_op_cycles: 10, ..Default::default() };
        counters.nodes[2] = NodeCounter { fires: 10, total_op_cycles: 30, ..Default::default() };
        let placement =
            vec![Some(Coord::new(0, 0)), Some(Coord::new(1, 3)), None /* bus */];
        (placement, counters)
    }

    #[test]
    fn folds_counters_onto_grid_and_bus_exactly() {
        let (placement, counters) = bank();
        let p = SpatialProfile::new(GridDim::new(4, 4), &placement, &counters);
        assert_eq!(p.cell(0, 0).fires, 10);
        assert_eq!(p.cell(0, 0).busy_cycles(), 55);
        assert_eq!(p.cell(1, 3).op_cycles, 10);
        assert_eq!(p.bus.fires, 10);
        assert_eq!(p.total_fires(), counters.total_fires());
        assert_eq!(p.total_op_cycles(), counters.total_op_cycles());
        assert_eq!(p.occupied_pes(), 2);
    }

    #[test]
    fn activity_invariant_checks_op_total() {
        let (placement, counters) = bank();
        let p = SpatialProfile::new(GridDim::new(4, 4), &placement, &counters);
        let good = ActivityStats { int_ops: 20, loads: 10, ..Default::default() };
        assert!(p.matches_activity(&good));
        let bad = ActivityStats { int_ops: 20, ..Default::default() };
        assert!(!p.matches_activity(&bad));
    }

    #[test]
    fn out_of_grid_coordinate_folds_to_bus() {
        let (mut placement, counters) = bank();
        placement[1] = Some(Coord::new(9, 9));
        let p = SpatialProfile::new(GridDim::new(4, 4), &placement, &counters);
        assert_eq!(p.bus.fires, 20);
        assert_eq!(p.total_fires(), 30);
    }

    #[test]
    fn render_elides_empty_rows_and_marks_bus() {
        let (placement, counters) = bank();
        let p = SpatialProfile::new(GridDim::new(4, 4), &placement, &counters);
        let text = p.render();
        assert!(text.contains("row  0"));
        assert!(text.contains("row  1"));
        assert!(!text.contains("row  2"), "{text}");
        assert!(text.contains("bus (unplaced): 10 fires"));
        // The hottest cell renders as the top of the ramp.
        assert!(text.lines().nth(1).unwrap().contains('9'));
    }

    #[test]
    fn hottest_ranks_by_busy_cycles() {
        let (placement, counters) = bank();
        let p = SpatialProfile::new(GridDim::new(4, 4), &placement, &counters);
        let hot = p.hottest(8);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, Coord::new(0, 0));
        assert_eq!(hot[1].0, Coord::new(1, 3));
    }

    #[test]
    fn json_matrix_is_valid_and_exact() {
        let (placement, counters) = bank();
        let p = SpatialProfile::new(GridDim::new(2, 4), &placement, &counters);
        let json = p.to_json().to_string();
        assert_eq!(mesa_trace::json::parse(&json).map(|j| j.to_string()), Ok(json.clone()));
        assert!(json.contains("\"total_fires\":30"));
        assert!(json.contains("\"rows\":2"));
    }
}
