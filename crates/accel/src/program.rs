//! The accelerator-side configuration format — the decoded form of the
//! "configuration bitstream" MESA's config block writes (paper §4.3).
//!
//! A configured region is a list of [`NodeConfig`]s in original program
//! order (the order the LDFG maintains, which the load/store entries use
//! for memory ordering), each carrying its placement, operand routing,
//! predication guards, and the memory-optimization flags set by the
//! controller (store→load forwarding, vectorization, prefetching).

use crate::{Coord, GridDim};
use mesa_isa::{Instruction, Reg};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Where one operand of a node comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// No operand in this slot (immediate-only or unused).
    None,
    /// Output of another node in the region.
    Node {
        /// Producer node index (program order within the region).
        idx: u32,
        /// `true` when the value crosses iterations (loop-carried): the
        /// consumer reads the producer's *previous* iteration output. On
        /// iteration 0 the value comes from the architectural register
        /// `via` captured at offload.
        carried: bool,
        /// The architectural register this dependency flows through.
        via: Reg,
    },
    /// A loop-invariant architectural register captured at offload time.
    InitReg(Reg),
}

/// One configured instruction slot.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct NodeConfig {
    /// Original instruction address (matched against the dynamic PC for
    /// predication, §5.2).
    pub pc: u64,
    /// The operation this slot performs.
    pub instr: Instruction,
    /// Grid placement; `None` routes through the fallback bus.
    pub coord: Option<Coord>,
    /// Sources for `s1` and `s2`.
    pub inputs: [Operand; 2],
    /// The previous producer of this node's destination register. A node
    /// disabled by predication forwards this value instead of computing
    /// (the "hidden dependency" of §5.2).
    pub hidden: Operand,
    /// Indices of forward-branch nodes guarding this node; if any of them
    /// is taken this iteration, this node is disabled.
    pub guards: Vec<u32>,
    /// Store→load forwarding: this load's value arrives directly from the
    /// given store node (same base register + offset, §4.2), skipping the
    /// cache.
    pub forwarded_from: Option<u32>,
    /// Vectorization group head: this load piggybacks on the wide access
    /// issued by the given (earlier) load node (§4.2).
    pub vector_head: Option<u32>,
    /// This load's address depends only on induction registers, so it is
    /// prefetched an iteration ahead: steady-state latency is an L1 hit
    /// (§4.2).
    pub prefetched: bool,
    /// Induction update whose immediate is scaled by the tile count when
    /// the region is tiled (each tile strides over iterations).
    pub scale_imm_by_tiles: bool,
}

impl NodeConfig {
    /// A plain node: placed instruction with explicit inputs, no
    /// optimization flags.
    #[must_use]
    pub fn new(pc: u64, instr: Instruction, coord: Option<Coord>, inputs: [Operand; 2]) -> Self {
        NodeConfig {
            pc,
            instr,
            coord,
            inputs,
            hidden: Operand::None,
            guards: Vec::new(),
            forwarded_from: None,
            vector_head: None,
            prefetched: false,
            scale_imm_by_tiles: false,
        }
    }
}

/// A fully configured accelerator region.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct AccelProgram {
    /// First PC of the region.
    pub start_pc: u64,
    /// One past the last PC.
    pub end_pc: u64,
    /// Nodes in original program order.
    pub nodes: Vec<NodeConfig>,
    /// Index of the loop-closing backward branch.
    pub loop_branch: u32,
    /// Live-out registers: `(register, producing node)` — applied to the
    /// CPU's architectural state when control returns (§5.1).
    pub live_out: Vec<(Reg, u32)>,
    /// Number of duplicated SDFG instances (spatial tiling, Fig. 6).
    pub tiles: usize,
    /// `true` when iterations may overlap (loop pipelining).
    pub pipelined: bool,
}

/// Validation failure for an [`AccelProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A node/operand index points past the node list.
    BadIndex(u32),
    /// An operand references a node at or after its consumer (violates
    /// feedforward order for non-carried edges).
    ForwardReference {
        /// The consuming node.
        consumer: u32,
        /// The out-of-order producer it referenced.
        producer: u32,
    },
    /// The loop branch index is not a backward conditional branch.
    BadLoopBranch,
    /// A coordinate lies outside the grid.
    OutOfGrid(Coord),
    /// The tiled region does not fit in the grid.
    TilesDontFit {
        /// Tiles requested.
        tiles: usize,
        /// Rows each tile occupies.
        rows_per_tile: usize,
        /// Rows available.
        rows: usize,
    },
    /// A guard index names a node that is not a forward branch.
    GuardNotBranch(u32),
    /// Region is empty.
    Empty,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BadIndex(i) => write!(f, "node index {i} out of range"),
            ProgramError::ForwardReference { consumer, producer } => write!(
                f,
                "node {consumer} consumes node {producer} which does not precede it"
            ),
            ProgramError::BadLoopBranch => write!(f, "loop branch is not a backward branch"),
            ProgramError::OutOfGrid(c) => write!(f, "coordinate {c} outside the grid"),
            ProgramError::TilesDontFit { tiles, rows_per_tile, rows } => write!(
                f,
                "{tiles} tiles x {rows_per_tile} rows do not fit in {rows} grid rows"
            ),
            ProgramError::GuardNotBranch(g) => {
                write!(f, "guard node {g} is not a forward branch")
            }
            ProgramError::Empty => write!(f, "empty region"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl AccelProgram {
    /// Number of configured nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes are configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rows used by one tile instance (highest placed row + 1), rounded up
    /// to the FP-pattern period so duplicated tiles see identical PE
    /// capabilities.
    #[must_use]
    pub fn rows_per_tile(&self) -> usize {
        let max_row = self
            .nodes
            .iter()
            .filter_map(|n| n.coord)
            .map(|c| c.row)
            .max()
            .unwrap_or(0);
        (max_row + 1).next_multiple_of(4)
    }

    /// A stable 64-bit digest of the whole configuration: the derived
    /// [`Hash`] of every field, fed to one byte-wise FNV-1a
    /// [`Fnv64`](mesa_trace::Fnv64) with no formatting or allocation. A
    /// `PlacementSnapshot` records it so a checkpoint can only be resumed
    /// against the exact program it was taken from.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = mesa_trace::Fnv64::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Checks structural sanity against a target grid.
    ///
    /// # Errors
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self, grid: GridDim) -> Result<(), ProgramError> {
        if self.nodes.is_empty() {
            return Err(ProgramError::Empty);
        }
        let n = self.nodes.len() as u32;
        let check_idx = |i: u32| if i < n { Ok(()) } else { Err(ProgramError::BadIndex(i)) };

        for (ci, node) in self.nodes.iter().enumerate() {
            let ci = ci as u32;
            if let Some(c) = node.coord {
                if !grid.contains(c) {
                    return Err(ProgramError::OutOfGrid(c));
                }
            }
            for op in node.inputs.iter().chain(std::iter::once(&node.hidden)) {
                if let Operand::Node { idx, carried, .. } = *op {
                    check_idx(idx)?;
                    if !carried && idx >= ci {
                        return Err(ProgramError::ForwardReference { consumer: ci, producer: idx });
                    }
                }
            }
            for &g in &node.guards {
                check_idx(g)?;
                if g >= ci {
                    return Err(ProgramError::ForwardReference { consumer: ci, producer: g });
                }
                if !self.nodes[g as usize].instr.op.is_branch() {
                    return Err(ProgramError::GuardNotBranch(g));
                }
            }
            if let Some(s) = node.forwarded_from {
                check_idx(s)?;
                if s >= ci {
                    return Err(ProgramError::ForwardReference { consumer: ci, producer: s });
                }
            }
            if let Some(h) = node.vector_head {
                check_idx(h)?;
                if h > ci {
                    return Err(ProgramError::ForwardReference { consumer: ci, producer: h });
                }
            }
        }

        check_idx(self.loop_branch)?;
        let lb = &self.nodes[self.loop_branch as usize];
        if !lb.instr.op.is_branch() || lb.instr.imm >= 0 {
            return Err(ProgramError::BadLoopBranch);
        }
        for &(_, node) in &self.live_out {
            check_idx(node)?;
        }

        if self.tiles > 1 {
            let rpt = self.rows_per_tile();
            if self.tiles * rpt > grid.rows {
                return Err(ProgramError::TilesDontFit {
                    tiles: self.tiles,
                    rows_per_tile: rpt,
                    rows: grid.rows,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::{Opcode, Reg};
    use mesa_isa::reg::abi::*;

    fn minimal_loop() -> AccelProgram {
        // addi t0, t0, 1 ; bne t0, a1, loop
        let add = NodeConfig {
            hidden: Operand::None,
            ..NodeConfig::new(
                0x1000,
                Instruction::reg_imm(Opcode::Addi, T0, T0, 1),
                Some(Coord::new(0, 0)),
                [Operand::Node { idx: 0, carried: true, via: T0 }, Operand::None],
            )
        };
        let bne = NodeConfig::new(
            0x1004,
            Instruction::branch(Opcode::Bne, T0, A1, -4),
            Some(Coord::new(0, 1)),
            [
                Operand::Node { idx: 0, carried: false, via: T0 },
                Operand::InitReg(A1),
            ],
        );
        AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1008,
            nodes: vec![add, bne],
            loop_branch: 1,
            live_out: vec![(T0, 0)],
            tiles: 1,
            pipelined: false,
        }
    }

    #[test]
    fn minimal_loop_validates() {
        let p = minimal_loop();
        assert!(p.validate(GridDim::new(16, 8)).is_ok());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn forward_reference_rejected() {
        let mut p = minimal_loop();
        p.nodes[0].inputs[0] = Operand::Node { idx: 1, carried: false, via: T0 };
        assert_eq!(
            p.validate(GridDim::new(16, 8)),
            Err(ProgramError::ForwardReference { consumer: 0, producer: 1 })
        );
    }

    #[test]
    fn carried_self_reference_allowed() {
        // The induction `addi t0, t0, 1` consumes its own previous value.
        let p = minimal_loop();
        assert!(matches!(
            p.nodes[0].inputs[0],
            Operand::Node { idx: 0, carried: true, .. }
        ));
        assert!(p.validate(GridDim::new(16, 8)).is_ok());
    }

    #[test]
    fn out_of_grid_rejected() {
        let mut p = minimal_loop();
        p.nodes[1].coord = Some(Coord::new(20, 0));
        assert_eq!(
            p.validate(GridDim::new(16, 8)),
            Err(ProgramError::OutOfGrid(Coord::new(20, 0)))
        );
    }

    #[test]
    fn bad_loop_branch_rejected() {
        let mut p = minimal_loop();
        p.nodes[1].instr = Instruction::branch(Opcode::Bne, T0, A1, 8); // forward
        assert_eq!(p.validate(GridDim::new(16, 8)), Err(ProgramError::BadLoopBranch));
    }

    #[test]
    fn tiles_must_fit() {
        let mut p = minimal_loop();
        p.tiles = 5; // 5 tiles x 4 rows (rounded) = 20 > 16
        assert!(matches!(
            p.validate(GridDim::new(16, 8)),
            Err(ProgramError::TilesDontFit { .. })
        ));
        p.tiles = 4;
        assert!(p.validate(GridDim::new(16, 8)).is_ok());
    }

    #[test]
    fn rows_per_tile_rounds_to_fp_period() {
        let p = minimal_loop(); // max row 0 → 1 → rounds to 4
        assert_eq!(p.rows_per_tile(), 4);
    }

    #[test]
    fn non_branch_guard_rejected() {
        let mut p = minimal_loop();
        // Guard the loop branch with the addi node — not a branch.
        p.nodes[1].guards = vec![0];
        assert_eq!(
            p.validate(GridDim::new(16, 8)),
            Err(ProgramError::GuardNotBranch(0))
        );
    }

    #[test]
    fn bad_index_rejected() {
        let mut p = minimal_loop();
        p.live_out = vec![(Reg::x(5), 9)];
        assert_eq!(p.validate(GridDim::new(16, 8)), Err(ProgramError::BadIndex(9)));
    }
}
