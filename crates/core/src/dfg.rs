//! The Logical Dataflow Graph (LDFG) — MESA's program-order-indexed view of
//! the code region (paper §3.2).
//!
//! The LDFG is built by *renaming architectural registers to instruction
//! addresses*: a rename table maps each register to the last instruction
//! that wrote it, so a source register resolves to an edge from its
//! producer. Registers read before any in-region write resolve either to a
//! loop-carried edge (the region's *final* writer of that register, whose
//! previous-iteration output flows around the back edge) or to an
//! architectural register captured at offload (loop-invariant input).
//!
//! Nodes carry weights (operation latency) and edges carry weights (data
//! transfer latency), making the LDFG MESA's performance model: Eq. 1/2 of
//! the paper compute each instruction's completion cycle, and the heaviest
//! path is the critical path (the worked example of Fig. 2 is a test here).

use mesa_accel::Operand;
use mesa_isa::{Instruction, OpClass, Program, Reg};
use std::fmt;

/// One LDFG entry: an instruction plus its resolved dependencies and
/// measured weights.
#[derive(Debug, Clone, PartialEq)]
pub struct LdfgNode {
    /// Instruction address.
    pub pc: u64,
    /// The decoded instruction.
    pub instr: Instruction,
    /// Resolved sources `s1`, `s2` (paper §3.1: at most two predecessors).
    pub src: [Operand; 2],
    /// Previous writer of the destination register — the hidden dependency
    /// used when this node is disabled by predication (§5.2).
    pub hidden: Operand,
    /// Forward-branch nodes guarding this instruction.
    pub guards: Vec<u32>,
    /// Node weight: average operation latency in cycles (measured when
    /// counters are available, else the static estimate).
    pub op_weight: u64,
    /// Edge weights: average transfer latency into each source slot.
    pub edge_weight: [u64; 2],
}

impl LdfgNode {
    /// `true` when this node is the region's loop-closing backward branch.
    #[must_use]
    pub fn is_backward_branch(&self) -> bool {
        self.instr.op.is_branch() && self.instr.imm < 0
    }
}

/// Why a region could not be turned into an LDFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Region has no instructions.
    Empty,
    /// The last instruction is not a backward branch closing the loop.
    NoClosingBranch,
    /// A branch targets an address outside the region (early exit or inner
    /// loop), which predication cannot express.
    BranchLeavesRegion {
        /// PC of the offending branch.
        pc: u64,
    },
    /// A second backward branch (inner loop) was found.
    InnerLoop {
        /// PC of the inner backward branch.
        pc: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Empty => write!(f, "empty region"),
            BuildError::NoClosingBranch => {
                write!(f, "region does not end with a loop-closing backward branch")
            }
            BuildError::BranchLeavesRegion { pc } => {
                write!(f, "branch at {pc:#x} targets outside the region")
            }
            BuildError::InnerLoop { pc } => write!(f, "inner loop at {pc:#x}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The Logical DFG of one loop region.
#[derive(Debug, Clone, PartialEq)]
pub struct Ldfg {
    /// First PC of the region.
    pub start_pc: u64,
    /// One past the last PC.
    pub end_pc: u64,
    /// Nodes in program order.
    pub nodes: Vec<LdfgNode>,
    /// Index of the loop-closing branch (always the last node).
    pub loop_branch: u32,
    /// Registers written in the region and their final producers.
    pub live_out: Vec<(Reg, u32)>,
}

impl Ldfg {
    /// Builds the LDFG for a region program (all instructions between the
    /// loop's start PC and its closing branch, as captured by the trace
    /// cache).
    ///
    /// # Errors
    /// Returns [`BuildError`] for structurally unacceptable regions. Note
    /// that instruction-level *support* checks (C2) belong to the region
    /// detector; this builder only rejects what it cannot represent.
    pub fn build(region: &Program) -> Result<Self, BuildError> {
        let n = region.instrs.len();
        if n == 0 {
            return Err(BuildError::Empty);
        }

        // The closing branch must be the last instruction, jumping back to
        // the region start.
        let last = &region.instrs[n - 1];
        if !(last.op.is_branch() && last.imm < 0) {
            return Err(BuildError::NoClosingBranch);
        }
        let back_target =
            (region.base_pc + 4 * (n as u64 - 1)).wrapping_add(last.imm as u64);
        if back_target != region.base_pc {
            return Err(BuildError::BranchLeavesRegion { pc: region.base_pc + 4 * (n as u64 - 1) });
        }

        // Pass 1: final writer of every register (for loop-carried edges).
        let mut final_writer = [None::<u32>; Reg::COUNT];
        for (idx, instr) in region.instrs.iter().enumerate() {
            if let Some(rd) = instr.dest() {
                final_writer[rd.flat_index()] = Some(idx as u32);
            }
        }

        // Pass 2: rename and resolve.
        let mut rename = [None::<u32>; Reg::COUNT];
        let mut nodes = Vec::with_capacity(n);
        for (idx, instr) in region.instrs.iter().enumerate() {
            let pc = region.base_pc + 4 * idx as u64;

            // Branch structural checks (all but the closing one must be
            // forward and stay inside the region).
            if instr.op.is_branch() && idx != n - 1 {
                if instr.imm < 0 {
                    return Err(BuildError::InnerLoop { pc });
                }
                // A forward branch may skip at most up to the closing
                // branch; reaching or passing `end_pc` would skip the loop
                // branch itself (an early exit predication cannot express).
                let target = pc.wrapping_add(instr.imm as u64);
                if target >= region.end_pc() {
                    return Err(BuildError::BranchLeavesRegion { pc });
                }
            }

            #[allow(clippy::type_complexity)]
            let resolve = |reg: Option<Reg>, rename: &[Option<u32>; Reg::COUNT]| -> Operand {
                match reg {
                    None => Operand::None,
                    Some(r) if r.is_zero() => Operand::None,
                    Some(r) => {
                        if let Some(idx) = rename[r.flat_index()] {
                            Operand::Node { idx, carried: false, via: r }
                        } else if let Some(idx) = final_writer[r.flat_index()] {
                            Operand::Node { idx, carried: true, via: r }
                        } else {
                            Operand::InitReg(r)
                        }
                    }
                }
            };

            let [s1, s2] = instr.sources();
            let src = [resolve(s1, &rename), resolve(s2, &rename)];
            let hidden = resolve(instr.dest(), &rename);

            nodes.push(LdfgNode {
                pc,
                instr: *instr,
                src,
                hidden,
                guards: Vec::new(),
                op_weight: instr.op.base_latency(),
                edge_weight: [0, 0],
            });

            if let Some(rd) = instr.dest() {
                rename[rd.flat_index()] = Some(idx as u32);
            }
        }

        // Pass 3: predication guards from forward branches.
        for idx in 0..n - 1 {
            let instr = &region.instrs[idx];
            if instr.op.is_branch() && instr.imm > 0 {
                let skip_to = idx + (instr.imm / 4) as usize;
                for guarded in &mut nodes[idx + 1..skip_to.min(n)] {
                    guarded.guards.push(idx as u32);
                }
            }
        }

        let live_out = (0..Reg::COUNT)
            .filter_map(|i| rename[i].map(|w| (Reg::from_flat_index(i), w)))
            .collect();

        Ok(Ldfg {
            start_pc: region.base_pc,
            end_pc: region.end_pc(),
            nodes,
            loop_branch: (n - 1) as u32,
            live_out,
        })
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Per-instruction completion latencies `L_i` under the current node
    /// and edge weights (Eq. 2 of the paper).
    ///
    /// Loop-carried and loop-invariant inputs are available at iteration
    /// start (cycle 0): the model computes the latency of *one* iteration.
    #[must_use]
    fn iteration_latencies(&self) -> Vec<u64> {
        let mut latency = vec![0u64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let mut arrival = 0u64;
            for (slot, src) in node.src.iter().enumerate() {
                if let Operand::Node { idx, carried: false, .. } = *src {
                    arrival =
                        arrival.max(latency[idx as usize] + node.edge_weight[slot]);
                }
            }
            latency[i] = node.op_weight + arrival;
        }
        latency
    }

    /// The latency of one loop iteration: `max { L_i }` (paper §3.1).
    #[must_use]
    pub fn iteration_latency(&self) -> u64 {
        self.iteration_latencies().into_iter().max().unwrap_or(0)
    }

    /// The critical path: the heaviest weighted path through the graph,
    /// returned as node indices from source to sink, plus its latency.
    ///
    /// MESA uses this to "rapidly identify the critical path and pinpoint
    /// nodes or edges that are sources of bottleneck" (§1).
    #[must_use]
    pub fn critical_path(&self) -> (Vec<u32>, u64) {
        let latencies = self.iteration_latencies();
        let Some((mut at, &total)) = latencies
            .iter()
            .enumerate()
            .max_by_key(|&(i, &l)| (l, std::cmp::Reverse(i)))
        else {
            return (Vec::new(), 0);
        };
        // Walk back through the argmax predecessor at each step.
        let mut path = vec![at as u32];
        loop {
            let node = &self.nodes[at];
            let mut best: Option<(usize, u64)> = None;
            for (slot, src) in node.src.iter().enumerate() {
                if let Operand::Node { idx, carried: false, .. } = *src {
                    let a = latencies[idx as usize] + node.edge_weight[slot];
                    if best.is_none_or(|(_, b)| a > b) {
                        best = Some((idx as usize, a));
                    }
                }
            }
            match best {
                Some((pred, arrival))
                    if latencies[at] == node.op_weight + arrival =>
                {
                    path.push(pred as u32);
                    at = pred;
                }
                _ => break,
            }
        }
        path.reverse();
        (path, total)
    }

    /// Counts of `(compute, memory, control)` nodes — the instruction-mix
    /// statistic of detection condition C3.
    #[must_use]
    pub fn instruction_mix(&self) -> (usize, usize, usize) {
        let mut compute = 0;
        let mut memory = 0;
        let mut control = 0;
        for node in &self.nodes {
            match node.instr.class() {
                OpClass::Load | OpClass::Store => memory += 1,
                OpClass::Branch | OpClass::Jump => control += 1,
                _ => compute += 1,
            }
        }
        (compute, memory, control)
    }

    /// Indices of induction nodes: `addi r, r, imm` self-updates, the
    /// pattern behind tiling stride scaling and prefetch eligibility
    /// (§4.2, §4.3).
    #[must_use]
    pub fn induction_nodes(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| {
                n.instr.op == mesa_isa::Opcode::Addi
                    && n.instr.rd == n.instr.rs1
                    && n.instr.dest().is_some()
                    && matches!(
                        n.src[0],
                        Operand::Node { idx, carried: true, .. } if idx as usize == *i
                    )
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// `true` when every loop-carried register is produced by an induction
    /// node — the condition under which iterations are independent enough
    /// to tile (given an `omp parallel`/`simd` annotation).
    ///
    /// Carried *hidden* dependencies (the predication pass-through of
    /// §5.2) are exempt when no node consumes the same register through a
    /// carried data edge: the forwarded stale value is then dead — it only
    /// circulates until the next enabled iteration overwrites it — so it
    /// cannot couple iterations. (A live-out of such a register may read
    /// tile-locally stale state; the engine documents this.)
    #[must_use]
    pub fn carried_regs_are_induction(&self) -> bool {
        let induction = self.induction_nodes();
        for node in &self.nodes {
            for src in &node.src {
                if let Operand::Node { idx, carried: true, .. } = *src {
                    if !induction.contains(&idx) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl fmt::Display for Ldfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "LDFG [{:#x}, {:#x}):", self.start_pc, self.end_pc)?;
        for (i, node) in self.nodes.iter().enumerate() {
            write!(f, "  i{i}: {} (w={}", node.instr, node.op_weight)?;
            for (slot, src) in node.src.iter().enumerate() {
                match src {
                    Operand::Node { idx, carried, via } => {
                        let mark = if *carried { "~" } else { "" };
                        write!(f, ", s{}={mark}i{idx} via {via}", slot + 1)?;
                    }
                    Operand::InitReg(r) => write!(f, ", s{}={r}", slot + 1)?,
                    Operand::None => {}
                }
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::Asm;
    use mesa_isa::reg::abi::*;

    fn region(build: impl FnOnce(&mut Asm)) -> Program {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        a.finish().unwrap()
    }

    fn simple_sum_region() -> Program {
        region(|a| {
            a.label("loop");
            a.lw(T0, A0, 0);
            a.add(T1, T1, T0);
            a.addi(A0, A0, 4);
            a.bne(A0, A1, "loop");
        })
    }

    #[test]
    fn rename_resolves_in_region_deps() {
        let ldfg = Ldfg::build(&simple_sum_region()).unwrap();
        assert_eq!(ldfg.len(), 4);
        // add consumes the load's output through t0.
        assert_eq!(
            ldfg.nodes[1].src[1],
            Operand::Node { idx: 0, carried: false, via: T0 }
        );
        // The closing branch consumes the fresh a0.
        assert_eq!(
            ldfg.nodes[3].src[0],
            Operand::Node { idx: 2, carried: false, via: A0 }
        );
        // The bound a1 is loop-invariant.
        assert_eq!(ldfg.nodes[3].src[1], Operand::InitReg(A1));
    }

    #[test]
    fn carried_deps_point_to_final_writer() {
        let ldfg = Ldfg::build(&simple_sum_region()).unwrap();
        // The load's base a0 is written later (node 2): loop-carried.
        assert_eq!(
            ldfg.nodes[0].src[0],
            Operand::Node { idx: 2, carried: true, via: A0 }
        );
        // t1 accumulates into itself: carried self-edge through node 1.
        assert_eq!(
            ldfg.nodes[1].src[0],
            Operand::Node { idx: 1, carried: true, via: T1 }
        );
    }

    #[test]
    fn live_out_lists_final_writers() {
        let ldfg = Ldfg::build(&simple_sum_region()).unwrap();
        let mut lo = ldfg.live_out.clone();
        lo.sort();
        assert_eq!(lo, vec![(T0, 0), (A0, 2), (T1, 1)].into_iter().collect::<std::collections::BTreeSet<_>>().into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn rejects_region_without_closing_branch() {
        let p = region(|a| {
            a.addi(T0, T0, 1);
            a.addi(T1, T1, 1);
        });
        assert_eq!(Ldfg::build(&p), Err(BuildError::NoClosingBranch));
    }

    #[test]
    fn rejects_inner_loop() {
        let p = region(|a| {
            a.label("outer");
            a.addi(T0, T0, 1);
            a.label("inner");
            a.addi(T1, T1, 1);
            a.bne(T1, A0, "inner");
            a.bne(T0, A1, "outer");
        });
        assert_eq!(Ldfg::build(&p), Err(BuildError::InnerLoop { pc: 0x1008 }));
    }

    #[test]
    fn guards_cover_skipped_range() {
        let p = region(|a| {
            a.label("loop");
            a.bge(T0, T1, "skip"); // node 0: forward branch
            a.addi(T2, T2, 5); // node 1: guarded
            a.addi(T3, T3, 1); // node 2: guarded
            a.label("skip");
            a.addi(T0, T0, 1); // node 3: not guarded
            a.bne(T0, A1, "loop");
        });
        let ldfg = Ldfg::build(&p).unwrap();
        assert_eq!(ldfg.nodes[1].guards, vec![0]);
        assert_eq!(ldfg.nodes[2].guards, vec![0]);
        assert!(ldfg.nodes[3].guards.is_empty());
        // Guarded node's hidden dep flows through its destination register.
        assert_eq!(
            ldfg.nodes[1].hidden,
            Operand::Node { idx: 1, carried: true, via: T2 }
        );
    }

    #[test]
    fn figure2_worked_example() {
        // The paper's Fig. 2: five instructions, add/sub = 3 cycles,
        // mul = 5 cycles, transfer = Manhattan distance of the placement.
        // i1=add (inputs ready), i2=mul(i1) 1 hop, i3=sub(i2) 1 hop,
        // i4=mul(i1) 2 hops, i5=add(i4 @2 hops, i2 @1 hop).
        // Expected: L = [3, 9, 13, 10, 15], critical path i1→i4→i5.
        let p = region(|a| {
            a.label("loop");
            a.fadd_s(FT0, FA0, FA1); // i1
            a.fmul_s(FT1, FT0, FA2); // i2 (dep i1)
            a.fsub_s(FT2, FT1, FA3); // i3 (dep i2)
            a.fmul_s(FT3, FT0, FA4); // i4 (dep i1)
            a.fadd_s(FT4, FT3, FT1); // i5 (dep i4, i2)
            a.addi(T0, T0, 1);
            a.bne(T0, A1, "loop");
        });
        let mut ldfg = Ldfg::build(&p).unwrap();
        // Make the integer tail free so the FP numbers match the figure.
        ldfg.nodes[5].op_weight = 0;
        ldfg.nodes[6].op_weight = 0;
        // Edge weights from the figure's placement.
        ldfg.nodes[1].edge_weight = [1, 0]; // i1→i2: neighbors
        ldfg.nodes[2].edge_weight = [1, 0]; // i2→i3: neighbors
        ldfg.nodes[3].edge_weight = [2, 0]; // i1→i4: diagonal
        ldfg.nodes[4].edge_weight = [2, 1]; // i4→i5 diagonal, i2→i5 neighbor

        let lat = ldfg.iteration_latencies();
        assert_eq!(&lat[..5], &[3, 9, 13, 10, 15]);
        assert_eq!(ldfg.iteration_latency(), 15);

        let (path, total) = ldfg.critical_path();
        assert_eq!(total, 15);
        assert_eq!(path, vec![0, 3, 4], "critical path is i1, i4, i5");
    }

    #[test]
    fn instruction_mix_counts() {
        let ldfg = Ldfg::build(&simple_sum_region()).unwrap();
        let (compute, memory, control) = ldfg.instruction_mix();
        assert_eq!((compute, memory, control), (2, 1, 1));
    }

    #[test]
    fn induction_detection() {
        let ldfg = Ldfg::build(&simple_sum_region()).unwrap();
        assert_eq!(ldfg.induction_nodes(), vec![2]); // addi a0, a0, 4
        // t1 accumulation is carried but NOT induction (add t1,t1,t0):
        assert!(!ldfg.carried_regs_are_induction());
    }

    #[test]
    fn pure_induction_loop_is_tileable() {
        let p = region(|a| {
            a.label("loop");
            a.lw(T0, A0, 0);
            a.sw(T0, A2, 0);
            a.addi(A0, A0, 4);
            a.addi(A2, A2, 4);
            a.bne(A0, A1, "loop");
        });
        let ldfg = Ldfg::build(&p).unwrap();
        assert_eq!(ldfg.induction_nodes(), vec![2, 3]);
        assert!(ldfg.carried_regs_are_induction());
    }

    #[test]
    fn display_is_readable() {
        let ldfg = Ldfg::build(&simple_sum_region()).unwrap();
        let s = ldfg.to_string();
        assert!(s.contains("i0: lw t0, 0(a0)"));
        assert!(s.contains("~i2 via a0"), "carried edge marked: {s}");
    }
}
