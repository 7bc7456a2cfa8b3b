//! Property tests for Algorithm 1: over randomly generated loop bodies and
//! grid/backend shapes, the mapper must uphold its structural invariants —
//! one instruction per PE, `F_op` respected, placements in-grid, and a
//! latency model consistent with Eq. 1 — and place exactly what a plain
//! row-major scan of every candidate would.

use mesa_accel::{
    AccelConfig, Coord, GridDim, HalfRingModel, HierarchicalRowModel, LatencyModel, MeshModel,
    Operand,
};
use mesa_core::{map_instructions, Ldfg, LdfgNode, MapperConfig, Sdfg, WindowMode};
use mesa_isa::reg::abi::*;
use mesa_isa::{Asm, OpClass, Program, Reg};
use mesa_test::prop::{any_bool, any_u64, any_u8, sample, vec as prop_vec};
use mesa_test::{forall, prop_assert, prop_assert_eq, splitmix64, Checker};

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(64)
}

/// Builds a random but well-formed loop region and returns its LDFG.
fn random_ldfg(ops: &[u8], shifts: &[u8]) -> Ldfg {
    let temps = [T0, T1, T2, T3, FT0, FT1, FT2];
    let mut a = Asm::new(0x1000);
    a.label("loop");
    for (i, &op) in ops.iter().enumerate() {
        let rd = temps[(i + 1) % temps.len()];
        let rs1 = temps[i % temps.len()];
        let rs2 = temps[(i + 3) % temps.len()];
        let sh = i64::from(shifts[i % shifts.len()] % 8);
        // Keep register files consistent per op.
        match op % 6 {
            0 => a.add(int(rd), int(rs1), int(rs2)),
            1 => a.xor(int(rd), int(rs1), int(rs2)),
            2 => a.slli(int(rd), int(rs1), sh),
            3 => a.fadd_s(fp(rd), fp(rs1), fp(rs2)),
            4 => a.fmul_s(fp(rd), fp(rs1), fp(rs2)),
            _ => a.fsub_s(fp(rd), fp(rs1), fp(rs2)),
        };
    }
    a.addi(A0, A0, 4);
    a.bltu(A0, A1, "loop");
    Ldfg::build(&a.finish().expect("assembles")).expect("region builds")
}

fn int(r: Reg) -> Reg {
    match r {
        Reg::F(n) => Reg::x(n + 5),
        x => x,
    }
}

fn fp(r: Reg) -> Reg {
    match r {
        Reg::X(n) => Reg::f(n),
        f => f,
    }
}

fn fp_on_even_cols(c: Coord, class: OpClass) -> bool {
    if class.needs_fp() {
        c.col.is_multiple_of(2)
    } else {
        true
    }
}

#[test]
fn placements_are_unique_and_in_grid() {
    forall!(checker("mapper::placements_are_unique_and_in_grid"), |(
        ops in prop_vec(any_u8(), 1..40),
        shifts in prop_vec(any_u8(), 1..8),
        rows in 2usize..20,
        cols in 2usize..10,
    )| {
        let ldfg = random_ldfg(&ops, &shifts);
        let grid = GridDim::new(rows, cols);
        let sdfg = map_instructions(
            &ldfg, grid, &fp_on_even_cols, &MeshModel, &MapperConfig::default(),
        );
        let mut seen = std::collections::HashSet::new();
        for (i, p) in sdfg.placement.iter().enumerate() {
            match p {
                Some(c) => {
                    prop_assert!(grid.contains(*c), "node {i} out of grid at {c}");
                    prop_assert!(seen.insert(*c), "node {i} shares PE {c}");
                }
                None => prop_assert!(
                    sdfg.failed.contains(&(i as u32)),
                    "unplaced node {i} missing from failed list"
                ),
            }
        }
    });
}

#[test]
fn f_op_mask_is_respected() {
    forall!(checker("mapper::f_op_mask_is_respected"), |(
        ops in prop_vec(any_u8(), 1..40),
        shifts in prop_vec(any_u8(), 1..8),
    )| {
        let ldfg = random_ldfg(&ops, &shifts);
        let grid = GridDim::new(8, 8);
        let sdfg = map_instructions(
            &ldfg, grid, &fp_on_even_cols, &MeshModel, &MapperConfig::default(),
        );
        for (node, p) in ldfg.nodes.iter().zip(&sdfg.placement) {
            if let Some(c) = p {
                prop_assert!(
                    fp_on_even_cols(*c, node.instr.class()),
                    "{} placed on incompatible PE {c}",
                    node.instr
                );
            }
        }
    });
}

#[test]
fn estimated_latency_respects_equation_one() {
    forall!(checker("mapper::estimated_latency_respects_equation_one"), |(
        ops in prop_vec(any_u8(), 1..30),
        shifts in prop_vec(any_u8(), 1..8),
    )| {
        let ldfg = random_ldfg(&ops, &shifts);
        let grid = GridDim::new(16, 8);
        let sdfg = map_instructions(
            &ldfg, grid, &|_, _| true, &MeshModel, &MapperConfig::default(),
        );
        for (i, node) in ldfg.nodes.iter().enumerate() {
            // L_i >= L_op always.
            prop_assert!(
                sdfg.est_latency[i] >= node.op_weight,
                "node {i}: latency below op weight"
            );
            // L_i >= L_s + transfer for every placed non-carried source.
            for src in &node.src {
                if let Operand::Node { idx, carried: false, .. } = *src {
                    if let (Some(pc), Some(cc)) =
                        (sdfg.placement[idx as usize], sdfg.placement[i])
                    {
                        let arrival = sdfg.est_latency[idx as usize]
                            + pc.manhattan(cc);
                        prop_assert!(
                            sdfg.est_latency[i] >= node.op_weight + arrival
                                || sdfg.est_latency[i] >= node.op_weight,
                            "node {i}: Eq. 1 violated"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn all_window_modes_and_models_terminate() {
    forall!(checker("mapper::all_window_modes_and_models_terminate"), |(
        ops in prop_vec(any_u8(), 1..60),
        shifts in prop_vec(any_u8(), 1..8),
        mode in sample(&[WindowMode::FixedAtAnchor, WindowMode::PredecessorRect]),
        tie in any_bool(),
    )| {
        let ldfg = random_ldfg(&ops, &shifts);
        let cfg = MapperConfig {
            window_mode: mode,
            tie_break_neighbors: tie,
            ..Default::default()
        };
        let grid = GridDim::new(8, 8);
        // Must not panic on any backend; placement count is bounded by PEs.
        for model in 0..3 {
            let sdfg = match model {
                0 => map_instructions(&ldfg, grid, &|_, _| true, &MeshModel, &cfg),
                1 => map_instructions(
                    &ldfg, grid, &|_, _| true, &HierarchicalRowModel::default(), &cfg,
                ),
                _ => map_instructions(
                    &ldfg, grid, &|_, _| true, &HalfRingModel::default(), &cfg,
                ),
            };
            prop_assert!(sdfg.pes_used() <= grid.len());
            prop_assert_eq!(sdfg.placement.len(), ldfg.len());
        }
    });
}

#[test]
fn saturated_grid_fails_gracefully() {
    forall!(checker("mapper::saturated_grid_fails_gracefully"), |(
        ops in prop_vec(any_u8(), 20..60),
        shifts in prop_vec(any_u8(), 1..8),
    )| {
        let ldfg = random_ldfg(&ops, &shifts);
        let grid = GridDim::new(2, 2); // 4 PEs for 20+ instructions
        let sdfg = map_instructions(
            &ldfg, grid, &|_, _| true, &MeshModel, &MapperConfig::default(),
        );
        prop_assert!(sdfg.pes_used() <= 4);
        prop_assert_eq!(sdfg.failed.len(), ldfg.len() - sdfg.pes_used());
        // Fallback estimates exist for every failed node.
        for &f in &sdfg.failed {
            prop_assert!(sdfg.est_latency[f as usize] > 0);
        }
    });
}

/// The reference Algorithm 1: scores every free, supported PE of the
/// window in row-major order and keeps a candidate only on a strict
/// latency improvement, or, with the tie-break on, on an equal latency with
/// strictly more free neighbors (counted lazily). With the tie-break off the
/// first minimum wins. `map_instructions` must return exactly this `Sdfg`.
fn row_major_scan<S, M>(
    ldfg: &Ldfg,
    grid: GridDim,
    supports: &S,
    model: &M,
    cfg: &MapperConfig,
) -> Sdfg
where
    S: Fn(Coord, OpClass) -> bool,
    M: LatencyModel,
{
    let n = ldfg.nodes.len();
    let mut free = vec![true; grid.len()];
    let mut placement: Vec<Option<Coord>> = vec![None; n];
    let mut est_latency = vec![0u64; n];
    let mut failed = Vec::new();
    let mut last_placed: Option<Coord> = None;
    for (i, node) in ldfg.nodes.iter().enumerate() {
        // Anchor: the placed predecessor whose data arrives last (carried
        // inputs weigh 0), else the last placement, else the origin.
        let mut anchor: Option<(Coord, u64)> = None;
        let mut corners = Vec::new();
        for src in &node.src {
            if let Operand::Node { idx, carried, .. } = *src {
                if let Some(c) = placement[idx as usize] {
                    corners.push(c);
                    let arrival = if carried {
                        0
                    } else {
                        est_latency[idx as usize]
                    };
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
        let (rows, cols) = match (cfg.window_mode, corners.as_slice()) {
            (WindowMode::PredecessorRect, &[a, b]) => (
                a.row.min(b.row).saturating_sub(1)..(a.row.max(b.row) + 2).min(grid.rows),
                a.col.min(b.col).saturating_sub(1)..(a.col.max(b.col) + 2).min(grid.cols),
            ),
            _ => {
                let r0 = anchor
                    .row
                    .saturating_sub(1)
                    .min(grid.rows.saturating_sub(cfg.window_rows));
                let c0 = anchor
                    .col
                    .saturating_sub(cfg.window_cols / 2)
                    .min(grid.cols.saturating_sub(cfg.window_cols.min(grid.cols)));
                (
                    r0..(r0 + cfg.window_rows).min(grid.rows),
                    c0..(c0 + cfg.window_cols).min(grid.cols),
                )
            }
        };

        let mut best: Option<(Coord, u64, usize)> = None;
        for row in rows {
            for col in cols.clone() {
                let c = Coord::new(row, col);
                if !free[grid.index(c)] || !supports(c, node.instr.class()) {
                    continue;
                }
                let exp =
                    node.op_weight + arrival_at(node, &placement, &est_latency, model, cfg, c);
                match best {
                    Some((_, bl, _)) if exp > bl => {}
                    Some((_, bl, bn)) if exp == bl => {
                        if cfg.tie_break_neighbors {
                            let nb = free_neighbors(grid, &free, c);
                            if nb > bn {
                                best = Some((c, exp, nb));
                            }
                        }
                    }
                    _ => best = Some((c, exp, free_neighbors(grid, &free, c))),
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
                let mut arrival = 0;
                for src in &node.src {
                    if let Operand::Node {
                        idx,
                        carried: false,
                        ..
                    } = *src
                    {
                        arrival = arrival.max(est_latency[idx as usize] + cfg.fallback_penalty);
                    }
                }
                est_latency[i] = node.op_weight + arrival + cfg.fallback_penalty;
            }
        }
    }
    Sdfg {
        grid,
        placement,
        est_latency,
        failed,
    }
}

/// Latest arrival at `c` over the node's non-carried sources (Eq. 1).
fn arrival_at<M: LatencyModel>(
    node: &LdfgNode,
    placement: &[Option<Coord>],
    est_latency: &[u64],
    model: &M,
    cfg: &MapperConfig,
    c: Coord,
) -> u64 {
    let mut arrival = 0;
    for src in &node.src {
        if let Operand::Node {
            idx,
            carried: false,
            ..
        } = *src
        {
            let transfer = match placement[idx as usize] {
                Some(p) => model.transfer_latency(p, c),
                None => cfg.fallback_penalty,
            };
            arrival = arrival.max(est_latency[idx as usize] + transfer);
        }
    }
    arrival
}

fn free_neighbors(grid: GridDim, free: &[bool], c: Coord) -> usize {
    let mut count = 0;
    if c.row > 0 && free[grid.index(Coord::new(c.row - 1, c.col))] {
        count += 1;
    }
    if c.row + 1 < grid.rows && free[grid.index(Coord::new(c.row + 1, c.col))] {
        count += 1;
    }
    if c.col > 0 && free[grid.index(Coord::new(c.row, c.col - 1))] {
        count += 1;
    }
    if c.col + 1 < grid.cols && free[grid.index(Coord::new(c.row, c.col + 1))] {
        count += 1;
    }
    count
}

#[test]
fn pruned_scan_matches_row_major_scan() {
    forall!(checker("mapper::pruned_scan_matches_row_major_scan").cases(128), |(
        ops in prop_vec(any_u8(), 1..80),
        shifts_weights in (prop_vec(any_u8(), 1..8), prop_vec(1u64..12, 1..8)),
        shape in (2usize..71, 2usize..11, 1usize..72, 1usize..12),
        knobs in (0usize..3, any_bool(), any_bool()),
        mask in (any_u64(), 1u64..9),
        reweight in any_bool(),
    )| {
        let (shifts, weights) = shifts_weights;
        let (rows, cols, window_rows, window_cols) = shape;
        let (model, rect, tie) = knobs;
        let mut ldfg = random_ldfg(&ops, &shifts);
        // Measured-style weights make latency ties rarer or commoner than
        // the static estimates alone.
        if reweight {
            for (i, node) in ldfg.nodes.iter_mut().enumerate() {
                node.op_weight = weights[i % weights.len()];
            }
        }
        let grid = GridDim::new(rows, cols);
        // Each (PE, needs-FP) pair is supported with probability density/8.
        let (seed, density) = mask;
        let supported: Vec<bool> = (0..grid.len() * 2)
            .map(|k| {
                let mut state = seed ^ k as u64;
                splitmix64(&mut state) % 8 < density
            })
            .collect();
        let supports =
            |c: Coord, class: OpClass| supported[grid.index(c) * 2 + usize::from(class.needs_fp())];
        let cfg = MapperConfig {
            window_rows,
            window_cols,
            window_mode: if rect { WindowMode::PredecessorRect } else { WindowMode::FixedAtAnchor },
            tie_break_neighbors: tie,
            ..Default::default()
        };
        let (got, want) = match model {
            0 => (
                map_instructions(&ldfg, grid, &supports, &MeshModel, &cfg),
                row_major_scan(&ldfg, grid, &supports, &MeshModel, &cfg),
            ),
            1 => {
                let m = HierarchicalRowModel::default();
                (
                    map_instructions(&ldfg, grid, &supports, &m, &cfg),
                    row_major_scan(&ldfg, grid, &supports, &m, &cfg),
                )
            }
            _ => {
                let m = HalfRingModel::default();
                (
                    map_instructions(&ldfg, grid, &supports, &m, &cfg),
                    row_major_scan(&ldfg, grid, &supports, &m, &cfg),
                )
            }
        };
        prop_assert_eq!(got, want);
    });
}

/// The same equality on the workloads' loop bodies: every kernel on M-64,
/// M-128 and M-512 with the exhaustive full-grid window (the shape serving
/// maps on), under both window modes and both tie-break settings.
#[test]
fn pruned_scan_matches_row_major_scan_on_workloads() {
    let model = HalfRingModel::default();
    for kernel in mesa_workloads::all(mesa_workloads::KernelSize::Tiny) {
        let (start, end) = kernel.loop_region();
        let base = ((start - kernel.program.base_pc) / 4) as usize;
        let len = ((end - start) / 4) as usize;
        let body = Program {
            base_pc: start,
            instrs: kernel.program.instrs[base..base + len].to_vec(),
            annotations: vec![],
        };
        let ldfg = Ldfg::build(&body).expect("loop body builds");
        for (accel, exhaustive) in [
            (AccelConfig::m64(), false),
            (AccelConfig::m128(), false),
            (AccelConfig::m512(), true),
        ] {
            let supports = |c: Coord, class: OpClass| accel.supports(c, class);
            for window_mode in [WindowMode::FixedAtAnchor, WindowMode::PredecessorRect] {
                for tie_break_neighbors in [false, true] {
                    let mut cfg = MapperConfig {
                        window_mode,
                        tie_break_neighbors,
                        ..Default::default()
                    };
                    if exhaustive {
                        cfg.window_rows = accel.rows;
                        cfg.window_cols = accel.cols;
                    }
                    assert_eq!(
                        map_instructions(&ldfg, accel.grid(), &supports, &model, &cfg),
                        row_major_scan(&ldfg, accel.grid(), &supports, &model, &cfg),
                        "{} on {} under {cfg:?}",
                        kernel.name,
                        accel.name
                    );
                }
            }
        }
    }
}
