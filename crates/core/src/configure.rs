//! Configuration generation — task T3 of paper §3: turning the optimized
//! SDFG into the accelerator's configuration, plus the loop-level
//! optimizations (tiling by subgraph duplication and pipelining, §4.3) and
//! the configuration cache for re-encountered loops.

use crate::{Ldfg, MemOptPlan, Sdfg};
use mesa_accel::{AccelConfig, AccelProgram, NodeConfig, Operand};
use mesa_isa::{Opcode, ParallelKind};
use std::collections::HashMap;

/// Which optimizations the controller applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptFlags {
    /// Store→load forwarding, vectorization, prefetching (§4.2).
    pub memory_opts: bool,
    /// Spatial tiling of annotated parallel loops (§4.3, Fig. 6).
    pub tiling: bool,
    /// Loop pipelining of annotated parallel loops (§4.3).
    pub pipelining: bool,
    /// Iterative runtime re-optimization from performance counters.
    pub iterative: bool,
    /// Iterations to profile between optimization attempts.
    pub opt_interval: u64,
    /// Maximum reconfigurations per region.
    pub max_reconfigs: u32,
    /// Upper bound on tile instances.
    pub max_tiles: usize,
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags {
            memory_opts: true,
            tiling: true,
            pipelining: true,
            iterative: true,
            opt_interval: 32,
            max_reconfigs: 3,
            max_tiles: 16,
        }
    }
}

impl OptFlags {
    /// Everything off — the "no optimizations" configuration used for the
    /// OpenCGRA scheduling-only comparison (Fig. 12).
    #[must_use]
    pub fn none() -> Self {
        OptFlags {
            memory_opts: false,
            tiling: false,
            pipelining: false,
            iterative: false,
            opt_interval: 32,
            max_reconfigs: 0,
            max_tiles: 1,
        }
    }
}

/// Determines whether the loop-closing branch tolerates tile striding, and
/// whether it needs rewriting.
///
/// Each tile's induction cursor advances `tiles × stride` per iteration
/// from a per-tile offset, so an equality exit (`bne cursor, bound`) would
/// step *over* the bound on every tile but the first and never terminate.
/// Inequality exits (`bltu`/`blt` with a positive stride) are naturally
/// robust; a `bne` over a monotonically increasing induction register is
/// semantically equivalent to `bltu` and is rewritten during subgraph
/// duplication. Anything else refuses tiling.
///
/// Returns `None` when the branch cannot tolerate striding, `Some(None)`
/// when it already can, and `Some(Some(op))` when the branch must be
/// rewritten to `op`.
#[must_use]
fn tiling_branch_rewrite(ldfg: &Ldfg) -> Option<Option<Opcode>> {
    let branch = &ldfg.nodes[ldfg.loop_branch as usize];
    let induction = ldfg.induction_nodes();
    let step = match branch.src[0] {
        Operand::Node { idx, .. } if induction.contains(&idx) => {
            ldfg.nodes[idx as usize].instr.imm
        }
        _ => return None,
    };
    if step <= 0 {
        return None;
    }
    match branch.instr.op {
        Opcode::Bltu | Opcode::Blt => Some(None),
        Opcode::Bne => Some(Some(Opcode::Bltu)),
        _ => None,
    }
}

/// Chooses the tile count for an annotated parallel region.
///
/// Tiling requires every loop-carried register to be an induction update
/// (otherwise iterations are not independent) and a stride-tolerant loop
/// branch; the count is bounded by grid capacity, remaining iterations,
/// and the configured cap.
#[must_use]
fn choose_tiles(
    ldfg: &Ldfg,
    sdfg: &Sdfg,
    annotation: Option<ParallelKind>,
    accel: &AccelConfig,
    flags: &OptFlags,
    expected_iterations: u64,
) -> usize {
    if !flags.tiling
        || annotation.is_none()
        || !ldfg.carried_regs_are_induction()
        || tiling_branch_rewrite(ldfg).is_none()
    {
        return 1;
    }
    let max_row = sdfg
        .placement
        .iter()
        .flatten()
        .map(|c| c.row)
        .max()
        .unwrap_or(0);
    let rows_per_tile = (max_row + 1).next_multiple_of(4);
    let fit = (accel.rows / rows_per_tile).max(1);
    // Don't tile beyond the point where each tile has a healthy slice of
    // iterations to amortize its pipeline fill.
    let useful = (expected_iterations / 16).max(1) as usize;
    fit.min(useful).min(flags.max_tiles).max(1)
}

/// Builds the accelerator configuration from the mapped region.
///
/// The LDFG supplies dependency structure (and therefore memory ordering),
/// the SDFG supplies placements, the [`MemOptPlan`] supplies memory
/// optimization flags, and the annotation (if any) enables the loop-level
/// optimizations.
#[must_use]
pub fn build_accel_program(
    ldfg: &Ldfg,
    sdfg: &Sdfg,
    plan: Option<&MemOptPlan>,
    annotation: Option<ParallelKind>,
    accel: &AccelConfig,
    flags: &OptFlags,
    expected_iterations: u64,
) -> AccelProgram {
    let tiles = choose_tiles(ldfg, sdfg, annotation, accel, flags, expected_iterations);
    let induction = ldfg.induction_nodes();
    let branch_rewrite = if tiles > 1 {
        tiling_branch_rewrite(ldfg).flatten()
    } else {
        None
    };

    let nodes = ldfg
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let mut instr = n.instr;
            if i as u32 == ldfg.loop_branch {
                if let Some(op) = branch_rewrite {
                    instr.op = op;
                }
            }
            let mut node = NodeConfig::new(n.pc, instr, sdfg.placement[i], n.src);
            node.hidden = n.hidden;
            node.guards = n.guards.clone();
            node.scale_imm_by_tiles = tiles > 1 && induction.contains(&(i as u32));
            if let Some(plan) = plan.filter(|_| flags.memory_opts) {
                node.forwarded_from = plan
                    .forwards
                    .iter()
                    .find(|&&(l, _)| l == i as u32)
                    .map(|&(_, s)| s);
                node.vector_head = plan
                    .vector_groups
                    .iter()
                    .find(|&&(m, _)| m == i as u32)
                    .map(|&(_, h)| h);
                node.prefetched = plan.prefetchable.contains(&(i as u32));
            }
            node
        })
        .collect();

    AccelProgram {
        start_pc: ldfg.start_pc,
        end_pc: ldfg.end_pc,
        nodes,
        loop_branch: ldfg.loop_branch,
        live_out: ldfg.live_out.clone(),
        tiles,
        pipelined: flags.pipelining && annotation.is_some(),
    }
}

/// The configuration cache: finished configurations for loops that may be
/// re-encountered (paper §4.3), keyed by the loop's PC range.
#[derive(Debug, Clone, Default)]
pub struct ConfigCache {
    entries: HashMap<(u64, u64), AccelProgram>,
}

impl ConfigCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a configuration for the loop at `[start_pc, end_pc)`.
    #[must_use]
    pub fn get(&self, start_pc: u64, end_pc: u64) -> Option<&AccelProgram> {
        self.entries.get(&(start_pc, end_pc))
    }

    /// Stores a configuration, replacing any previous one for the range.
    pub fn insert(&mut self, program: AccelProgram) {
        self.entries.insert((program.start_pc, program.end_pc), program);
    }

    /// Number of cached configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops everything (e.g. on context switch to another process).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{map_instructions, memopt, MapperConfig};
    use mesa_accel::{Coord, HalfRingModel};
    use mesa_isa::{Asm, OpClass};
    use mesa_isa::reg::abi::*;

    fn copy_kernel_ldfg() -> Ldfg {
        // Pure-induction copy loop: tileable.
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.sw(T0, A2, 0);
        a.addi(A0, A0, 4);
        a.addi(A2, A2, 4);
        a.bne(A0, A1, "loop");
        Ldfg::build(&a.finish().unwrap()).unwrap()
    }

    fn map(ldfg: &Ldfg, accel: &AccelConfig) -> Sdfg {
        let supports = |c: Coord, class: OpClass| accel.supports(c, class);
        map_instructions(
            ldfg,
            accel.grid(),
            &supports,
            &HalfRingModel::default(),
            &MapperConfig::default(),
        )
    }

    #[test]
    fn builds_valid_program() {
        let ldfg = copy_kernel_ldfg();
        let accel = AccelConfig::m128();
        let sdfg = map(&ldfg, &accel);
        let plan = memopt::analyze(&ldfg);
        let prog = build_accel_program(
            &ldfg,
            &sdfg,
            Some(&plan),
            None,
            &accel,
            &OptFlags::default(),
            1000,
        );
        prog.validate(accel.grid()).unwrap();
        assert_eq!(prog.tiles, 1, "no annotation → no tiling");
        assert!(!prog.pipelined);
    }

    #[test]
    fn annotation_enables_tiling_and_pipelining() {
        let ldfg = copy_kernel_ldfg();
        let accel = AccelConfig::m128();
        let sdfg = map(&ldfg, &accel);
        let prog = build_accel_program(
            &ldfg,
            &sdfg,
            None,
            Some(ParallelKind::Parallel),
            &accel,
            &OptFlags::default(),
            10_000,
        );
        prog.validate(accel.grid()).unwrap();
        assert!(prog.tiles > 1, "parallel annotation tiles the grid");
        assert!(prog.pipelined);
        // Induction nodes got their stride scaled.
        assert!(prog.nodes[2].scale_imm_by_tiles);
        assert!(prog.nodes[3].scale_imm_by_tiles);
        assert!(!prog.nodes[0].scale_imm_by_tiles);
    }

    #[test]
    fn reduction_loop_refuses_tiling() {
        // sum += a[i]: t1 is carried but not induction.
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.add(T1, T1, T0);
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        let ldfg = Ldfg::build(&a.finish().unwrap()).unwrap();
        let accel = AccelConfig::m128();
        let sdfg = map(&ldfg, &accel);
        let tiles = choose_tiles(
            &ldfg,
            &sdfg,
            Some(ParallelKind::Parallel),
            &accel,
            &OptFlags::default(),
            10_000,
        );
        assert_eq!(tiles, 1, "register reduction cannot tile");
    }

    #[test]
    fn short_loops_tile_less() {
        let ldfg = copy_kernel_ldfg();
        let accel = AccelConfig::m512();
        let sdfg = map(&ldfg, &accel);
        let flags = OptFlags::default();
        let long = choose_tiles(&ldfg, &sdfg, Some(ParallelKind::Simd), &accel, &flags, 100_000);
        let short = choose_tiles(&ldfg, &sdfg, Some(ParallelKind::Simd), &accel, &flags, 48);
        assert!(long > short);
        assert!(short >= 1);
    }

    #[test]
    fn opt_flags_none_disables_everything() {
        let ldfg = copy_kernel_ldfg();
        let accel = AccelConfig::m128();
        let sdfg = map(&ldfg, &accel);
        let plan = memopt::analyze(&ldfg);
        let prog = build_accel_program(
            &ldfg,
            &sdfg,
            Some(&plan),
            Some(ParallelKind::Parallel),
            &accel,
            &OptFlags::none(),
            10_000,
        );
        assert_eq!(prog.tiles, 1);
        assert!(!prog.pipelined);
        assert!(prog.nodes.iter().all(|n| !n.prefetched && n.forwarded_from.is_none()));
    }


    #[test]
    fn bne_loop_branch_rewritten_for_tiling() {
        // A `bne`-bounded induction loop would never terminate under tile
        // striding; MESA rewrites the exit to `bltu` when duplicating.
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.sw(T0, A2, 0);
        a.addi(A0, A0, 4);
        a.addi(A2, A2, 4);
        a.bne(A0, A1, "loop");
        let ldfg = Ldfg::build(&a.finish().unwrap()).unwrap();
        assert_eq!(tiling_branch_rewrite(&ldfg), Some(Some(mesa_isa::Opcode::Bltu)));

        let accel = AccelConfig::m128();
        let sdfg = map(&ldfg, &accel);
        let prog = build_accel_program(
            &ldfg, &sdfg, None, Some(ParallelKind::Parallel), &accel,
            &OptFlags::default(), 10_000,
        );
        assert!(prog.tiles > 1);
        let lb = &prog.nodes[prog.loop_branch as usize];
        assert_eq!(lb.instr.op, mesa_isa::Opcode::Bltu, "exit rewritten");
    }

    #[test]
    fn equality_bounded_negative_stride_refuses_tiling() {
        // Down-counting bne loop: rewriting to bltu would be wrong, so
        // tiling is refused entirely.
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.sw(T0, A0, 0);
        a.addi(A0, A0, -4);
        a.bne(A0, A1, "loop");
        let ldfg = Ldfg::build(&a.finish().unwrap()).unwrap();
        assert_eq!(tiling_branch_rewrite(&ldfg), None);
        let accel = AccelConfig::m128();
        let sdfg = map(&ldfg, &accel);
        let tiles = choose_tiles(
            &ldfg, &sdfg, Some(ParallelKind::Parallel), &accel,
            &OptFlags::default(), 10_000,
        );
        assert_eq!(tiles, 1);
    }

    #[test]
    fn config_cache_roundtrip() {
        let ldfg = copy_kernel_ldfg();
        let accel = AccelConfig::m128();
        let sdfg = map(&ldfg, &accel);
        let prog =
            build_accel_program(&ldfg, &sdfg, None, None, &accel, &OptFlags::default(), 1000);
        let mut cache = ConfigCache::new();
        assert!(cache.get(0x1000, 0x1014).is_none());
        cache.insert(prog.clone());
        assert_eq!(cache.get(0x1000, 0x1014), Some(&prog));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }
}
