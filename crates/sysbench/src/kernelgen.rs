//! Random well-formed loop kernels plus the soak-episode drivers built on
//! them.
//!
//! One episode takes a seed and derives everything from it — the kernel,
//! the accelerator configuration, the optimization flags, and the fault
//! plan — via `splitmix64`, so a divergence printed by the `soak` binary
//! replays exactly from its seed. Two checks run per episode:
//!
//! 1. **Engine differential**: the optimized engine and the straight-line
//!    reference interpreter ([`mesa_accel::run_differential`]) must agree
//!    bit-for-bit under the episode's timing faults, and the engine's
//!    architectural results must match a functional golden run.
//! 2. **Controller survival** (sampled): a full offload episode under the
//!    complete fault taxonomy must either produce a report or a typed
//!    decline — never a panic.

use mesa_accel::{
    AccelConfig, AccelProgram, Coord, FaultPlan, PlacementSnapshot, SessionRequest,
    SpatialAccelerator,
};
use mesa_core::{
    analyze_memopts, build_accel_program, map_instructions, run_tenants_fleet, Ldfg, MapperConfig,
    OptFlags, RunOptions, SystemConfig, TenantJob,
};
use mesa_isa::reg::abi::*;
use mesa_isa::{step, ArchState, Asm, OpClass, Outcome, ParallelKind, Program, Reg, Xlen};
use mesa_mem::{MemConfig, MemorySystem};
use mesa_test::{splitmix64, Rng};
use mesa_trace::{Fnv64, NullTracer};
use mesa_workloads::KernelSize;
use std::hash::Hasher;

/// Base address of the input array every generated loop reads.
pub const ARR_A: u64 = 0x10_0000;
/// Base address of the output array generated stores write.
pub const ARR_OUT: u64 = 0x20_0000;
/// Trip count of every generated loop.
pub const ITERS: u64 = 37;

/// Builds a random well-formed loop: an optional load feeding the temps,
/// 3–8 ALU ops, an optional forward-branch-guarded update, an optional
/// store, and the induction + `bltu` closing pair.
#[must_use]
pub fn random_loop(seed: u64) -> Program {
    let mut rng = Rng::seed_from_u64(seed);
    let temps = [T0, T1, T2, T3, T4];
    let mut a = Asm::new(0x1000);
    a.label("loop");

    if rng.gen_bool(0.7) {
        a.lw(temps[rng.gen_range(0..temps.len())], A0, 0);
    }

    for _ in 0..rng.gen_range(3..=8) {
        let rd = temps[rng.gen_range(0..temps.len())];
        let rs1 = temps[rng.gen_range(0..temps.len())];
        let rs2 = temps[rng.gen_range(0..temps.len())];
        match rng.gen_range(0..7) {
            0 => a.add(rd, rs1, rs2),
            1 => a.sub(rd, rs1, rs2),
            2 => a.xor(rd, rs1, rs2),
            3 => a.and(rd, rs1, rs2),
            4 => a.or(rd, rs1, rs2),
            5 => a.addi(rd, rs1, rng.gen_range(-64..64)),
            _ => a.slli(rd, rs1, rng.gen_range(0..8)),
        };
    }

    if rng.gen_bool(0.5) {
        a.bge(T0, T1, "skip");
        a.addi(T5, T5, 3);
        a.label("skip");
    }

    if rng.gen_bool(0.7) {
        a.sw(temps[rng.gen_range(0..temps.len())], A4, 0);
        a.addi(A4, A4, 4);
    }

    a.addi(A0, A0, 4);
    a.bltu(A0, A1, "loop");
    a.finish().expect("random loop assembles")
}

/// Deterministic entry state for `seed`'s kernel.
#[must_use]
pub fn entry_state(seed: u64) -> ArchState {
    let mut rng = Rng::seed_from_u64(seed ^ 0xDEAD);
    let mut st = ArchState::new(0x1000, Xlen::Rv32);
    for r in [T0, T1, T2, T3, T4, T5] {
        st.write(r, u64::from(rng.gen::<u32>() % 1000));
    }
    st.write(A0, ARR_A);
    st.write(A1, ARR_A + 4 * ITERS);
    st.write(A4, ARR_OUT);
    st
}

/// Writes the deterministic input array for `seed` (shared by the golden
/// and accelerator runs).
pub fn populate_input(mem: &mut MemorySystem, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed ^ 0xBEEF);
    for i in 0..ITERS {
        mem.data_mut().store_u32(ARR_A + 4 * i, rng.gen::<u32>() % 10_000);
    }
}

/// Functional golden run with the plain ISA semantics.
#[must_use]
pub fn golden(program: &Program, seed: u64) -> (ArchState, MemorySystem) {
    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    populate_input(&mut mem, seed);
    let mut st = entry_state(seed);
    for _ in 0..1_000_000 {
        let Some(instr) = program.fetch(st.pc) else { break };
        let info = step(&mut st, instr, mem.data_mut());
        if matches!(info.outcome, Outcome::Halt) {
            break;
        }
    }
    (st, mem)
}

/// Runs the full translate→map→configure pipeline for `program` against
/// one accelerator configuration. Returns `None` when the region is not
/// translatable or the result fails validation (the episode is skipped).
#[must_use]
fn build_for(
    program: &Program,
    cfg: &AccelConfig,
    opts: &OptFlags,
    annotated: bool,
) -> Option<AccelProgram> {
    let ldfg = Ldfg::build(program).ok()?;
    let accel = SpatialAccelerator::new(*cfg);
    let supports = |c: Coord, class: OpClass| cfg.supports(c, class);
    let sdfg = map_instructions(
        &ldfg,
        cfg.grid(),
        &supports,
        accel.latency_model(),
        &MapperConfig::default(),
    );
    let plan = analyze_memopts(&ldfg);
    let annotation = annotated.then_some(ParallelKind::Simd);
    let prog = build_accel_program(&ldfg, &sdfg, Some(&plan), annotation, cfg, opts, ITERS);
    prog.validate(cfg.grid()).ok()?;
    Some(prog)
}

/// What one soak episode exercised (for the end-of-run summary).
#[derive(Debug, Clone, Copy, Default)]
pub struct EpisodeStats {
    /// Accelerator iterations the differential pair executed.
    pub iterations: u64,
    /// Engine cycles of the faulted run.
    pub cycles: u64,
    /// Bus tokens the fault plan dropped.
    pub bus_tokens_dropped: u64,
    /// `true` when the generated kernel was untranslatable and skipped.
    pub skipped: bool,
    /// `true` when the sampled controller episode ran.
    pub controller_checked: bool,
}

/// One engine-differential episode, fully derived from `seed`.
///
/// # Errors
/// Returns a human-readable description of the first divergence — between
/// the two engines, or between the engine and the functional golden run.
pub fn differential_episode(seed: u64) -> Result<EpisodeStats, String> {
    let mut s = seed;
    let kseed = splitmix64(&mut s);
    let cfg_pick = splitmix64(&mut s);
    let opt_pick = splitmix64(&mut s) % 3;
    let fseed = splitmix64(&mut s);

    let program = random_loop(kseed);
    let cfg = match cfg_pick % 3 {
        0 => AccelConfig::m64(),
        1 => AccelConfig::m128(),
        _ => AccelConfig::m512(),
    };
    let opts = match opt_pick {
        0 => OptFlags::none(),
        1 => OptFlags { memory_opts: true, ..OptFlags::none() },
        _ => OptFlags { pipelining: true, memory_opts: true, ..OptFlags::none() },
    };
    let Some(mut prog) = build_for(&program, &cfg, &opts, opt_pick == 2) else {
        return Ok(EpisodeStats { skipped: true, ..EpisodeStats::default() });
    };

    // Timing-only faults for the engine pair: bus drops are mirrored by
    // both engines; stuck PEs are a configuration-time fault, so scrub
    // them once, up front, exactly as the controller would.
    let grid = cfg.grid();
    let mut plan = FaultPlan::from_seed(fseed, grid.rows, grid.cols);
    plan.truncate_config = None;
    plan.counter_bit_flips = 0;
    // Re-target stuck PEs at coordinates the program actually uses — a
    // random coordinate on a big grid rarely hits a placed node, and a
    // scrubbed node is also what routes traffic onto the (droppable) bus.
    let placed: Vec<Coord> = prog.nodes.iter().filter_map(|n| n.coord).collect();
    if !plan.stuck_pes.is_empty() && !placed.is_empty() {
        let mut rng = Rng::seed_from_u64(fseed ^ 0x57C4);
        plan.stuck_pes =
            (0..plan.stuck_pes.len()).map(|_| placed[rng.gen_range(0..placed.len())]).collect();
    }
    plan.scrub_stuck_pes(&mut prog);
    plan.stuck_pes.clear();
    if prog.validate(grid).is_err() {
        return Ok(EpisodeStats { skipped: true, ..EpisodeStats::default() });
    }

    let accel = SpatialAccelerator::new(cfg);
    let entry = entry_state(kseed);
    let mut mem = MemorySystem::new(MemConfig::default(), 1);
    populate_input(&mut mem, kseed);

    match mesa_accel::run_differential(&accel, &prog, &entry, &mem, 0, 10_000, &plan) {
        Err(e) => return Err(format!("program rejected by the engines: {e}")),
        Ok(Some(d)) => return Err(format!("engines diverged: {d}")),
        Ok(None) => {}
    }

    // Golden compare: injected timing faults must never change results.
    let req = SessionRequest::solo(0, 10_000, &plan, grid);
    let mut state = PlacementSnapshot::new(&prog, &entry, req.region.rows, &plan);
    accel
        .run_session(&prog, &mut mem, &req, &mut state, &mut NullTracer, 0)
        .map_err(|e| format!("engine rejected validated program: {e}"))?;
    let r = state.into_result(&prog);
    if !r.completed {
        return Err("loop did not terminate within the iteration budget".into());
    }
    let (gold_st, mut gold_mem) = golden(&program, kseed);
    let mut st = entry_state(kseed);
    for (reg, value) in &r.final_regs {
        st.write(*reg, *value);
    }
    for x in 0..32u8 {
        let reg = Reg::x(x);
        if gold_st.read(reg) != st.read(reg) {
            return Err(format!(
                "x{x} mismatch vs golden: accel={:#x} golden={:#x}\nprogram:\n{program}",
                st.read(reg),
                gold_st.read(reg)
            ));
        }
    }
    for i in 0..ITERS {
        let addr = ARR_OUT + 4 * i;
        let (g, m) = (gold_mem.data_mut().load_u32(addr), mem.data_mut().load_u32(addr));
        if g != m {
            return Err(format!(
                "out[{i}] mismatch vs golden: accel={m:#x} golden={g:#x}\nprogram:\n{program}"
            ));
        }
    }

    Ok(EpisodeStats {
        iterations: r.iterations,
        cycles: r.cycles,
        bus_tokens_dropped: r.faults.bus_tokens_dropped,
        skipped: false,
        controller_checked: false,
    })
}

/// One controller-survival episode: a real workload offloaded under the
/// full fault taxonomy, with CPU warmup fast-forwarded when
/// `fast_forward` is set. The episode must produce a report or a typed
/// decline; a panic escapes to the soak harness and fails the run.
///
/// # Errors
/// Returns a description when the episode ends in an inconsistent state
/// (neither report nor decline, or a zero-cycle measurement).
pub fn controller_episode(seed: u64, fast_forward: bool) -> Result<(), String> {
    let mut s = seed ^ 0xC0FF_EE00;
    let kernels = mesa_workloads::all(KernelSize::Tiny);
    let kernel = &kernels[(splitmix64(&mut s) as usize) % kernels.len()];
    let system = SystemConfig { fast_forward, ..SystemConfig::m128() };
    let grid = system.accel.grid();
    let plan = FaultPlan::from_seed(splitmix64(&mut s), grid.rows, grid.cols);
    let opts = RunOptions { faults: Some(plan), cache: None };
    let run = crate::harness::mesa_offload_with(kernel, &system, 4, &opts, &mut NullTracer);
    if run.report.is_some() == run.declined.is_some() {
        return Err(format!(
            "{}: episode must end with exactly one of report/decline",
            kernel.name
        ));
    }
    if run.cycles == 0 {
        return Err(format!("{}: zero-cycle episode", kernel.name));
    }
    Ok(())
}

/// What one multi-tenant fabric episode exercised.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantsStats {
    /// Jobs admitted to the shared fabric (including declined ones).
    pub tenants: usize,
    /// Mid-episode checkpoint+migrations across the concurrent run.
    pub migrations: u32,
    /// Jobs the controller declined (identically solo and shared).
    pub declined: usize,
}

/// FNV-1a digest (one symbol per 32-bit word) of every data window the
/// workloads kernels write, so two runs of the same kernel can be compared
/// without knowing its footprint (untouched addresses read as zero).
fn data_digest(mem: &mut MemorySystem) -> u64 {
    let mut h = Fnv64::new();
    for base in [
        mesa_workloads::DATA_A,
        mesa_workloads::DATA_B,
        mesa_workloads::DATA_C,
        mesa_workloads::DATA_OUT,
        0x140_0000, // backprop's private delta block
    ] {
        for off in (0..0x8000u64).step_by(4) {
            h.write_symbol(u64::from(mem.data_mut().load_u32(base + off)));
        }
    }
    h.finish()
}

/// The seed-derived plan for one multi-tenant episode: the round-robin
/// quantum and one named [`TenantJob`] per tenant. Fully deterministic in
/// `(seed, tenants)` — calling it twice builds identical fresh jobs, which
/// is how the solo-baseline and shared runs stay comparable. `mesa-top`
/// uses the same helper so its dashboard replays exactly what `soak` ran.
#[must_use]
pub fn tenant_jobs(seed: u64, tenants: usize) -> (u64, Vec<(&'static str, TenantJob)>) {
    let mut s = seed ^ 0x7E4A_17F0;
    let kernels = mesa_workloads::all(KernelSize::Tiny);
    let picks: Vec<usize> =
        (0..tenants).map(|_| (splitmix64(&mut s) as usize) % kernels.len()).collect();
    let quantum = 100 + splitmix64(&mut s) % 400;
    let jobs = picks
        .iter()
        .map(|&p| {
            let kernel = &kernels[p];
            let mut mem = MemorySystem::new(MemConfig::default(), 2);
            kernel.populate(mem.data_mut());
            (kernel.name, TenantJob::new(kernel.program.clone(), kernel.entry.clone(), mem))
        })
        .collect();
    (quantum, jobs)
}

/// One multi-tenant fabric episode, fully derived from `seed`: `tenants`
/// workloads kernels share one M-128 fabric, time-sliced with a
/// seed-derived quantum and periodically checkpoint+migrated between
/// bands. Sharing must be architecturally invisible — each tenant's
/// decline-or-report outcome, iteration count, final architectural state,
/// and output memory must match its sequential solo run. (Cycle counts and
/// bands are *not* pinned: concurrent admission may shrink a tiling, which
/// legitimately changes timing but never results.)
///
/// Returns the differential stats, the shared run's [`mesa_core::FleetStats`], and
/// the flight recorder's post-mortem if the run declined a job or
/// survived a fault. `fast_forward` fast-forwards every tenant's CPU
/// warmup, in the solo baselines and the shared run alike.
///
/// `force_fault` arms a config-stream truncation on tenant 0 — in *both*
/// the solo baseline and the shared run, so the resulting declines still
/// compare equal — to exercise the decline → flight-recorder → post-mortem
/// path end to end (CI greps the dump for well-formedness).
///
/// A differential divergence also dumps: the returned error message
/// carries the shared run's flight post-mortem inline.
///
/// # Errors
/// Returns a human-readable description of the first tenant whose shared
/// run diverged from its solo run; the message embeds the post-mortem
/// JSON.
pub fn tenants_episode_fleet(
    seed: u64,
    tenants: usize,
    migrate_every: u64,
    force_fault: bool,
    fast_forward: bool,
) -> Result<(TenantsStats, mesa_core::FleetStats, Option<String>), String> {
    let system = SystemConfig { fast_forward, ..SystemConfig::m128() };
    let (quantum, named) = tenant_jobs(seed, tenants);
    let names: Vec<&'static str> = named.iter().map(|(n, _)| *n).collect();
    let arm = |jobs: &mut Vec<TenantJob>| {
        if force_fault {
            if let Some(job) = jobs.first_mut() {
                job.faults.truncate_config = Some(2);
            }
        }
    };

    // Sequential solo baselines: each job is its fabric's only tenant,
    // with the same quantum and migration cadence.
    let mut solo = Vec::with_capacity(tenants);
    for slot in 0..tenants {
        let (_, mut fresh) = tenant_jobs(seed, tenants);
        let mut jobs = vec![fresh.swap_remove(slot).1];
        if force_fault && slot == 0 {
            jobs[0].faults.truncate_config = Some(2);
        }
        let mut reports =
            run_tenants_fleet(&system, &mut jobs, quantum, migrate_every, None, &mut NullTracer)
                .outcomes;
        let outcome = reports.pop().expect("one report per job");
        let digest = data_digest(&mut jobs[0].mem);
        solo.push((outcome, format!("{:?}", jobs[0].state), digest));
    }

    // The concurrent run: all jobs admitted to one shared fabric.
    let mut jobs: Vec<TenantJob> = named.into_iter().map(|(_, j)| j).collect();
    arm(&mut jobs);
    let run = run_tenants_fleet(&system, &mut jobs, quantum, migrate_every, None, &mut NullTracer);
    let reports = &run.outcomes;

    let mut stats = TenantsStats { tenants, ..TenantsStats::default() };
    let mut divergence: Option<String> = None;
    for (slot, (shared, (solo_outcome, solo_state, solo_digest))) in
        reports.iter().zip(&solo).enumerate()
    {
        let name = names[slot];
        match (shared, solo_outcome) {
            (Ok(r), Ok(sr)) => {
                if r.accel_iterations != sr.accel_iterations {
                    divergence = Some(format!(
                        "tenant {slot} ({name}): {} iterations shared vs {} solo",
                        r.accel_iterations, sr.accel_iterations
                    ));
                    break;
                }
                let state = format!("{:?}", jobs[slot].state);
                if state != *solo_state {
                    divergence = Some(format!(
                        "tenant {slot} ({name}): final state diverged\nshared: {state}\nsolo:   {solo_state}"
                    ));
                    break;
                }
                let digest = data_digest(&mut jobs[slot].mem);
                if digest != *solo_digest {
                    divergence = Some(format!(
                        "tenant {slot} ({name}): output memory diverged ({digest:#018x} vs {solo_digest:#018x})"
                    ));
                    break;
                }
                stats.migrations += r.migrations;
            }
            (Err(e), Err(se)) => {
                if e.to_string() != se.to_string() {
                    divergence = Some(format!(
                        "tenant {slot} ({name}): decline diverged — shared \"{e}\" vs solo \"{se}\""
                    ));
                    break;
                }
                stats.declined += 1;
            }
            (Ok(_), Err(se)) => {
                divergence = Some(format!(
                    "tenant {slot} ({name}): shared run offloaded but solo declined with \"{se}\""
                ));
                break;
            }
            (Err(e), Ok(_)) => {
                divergence = Some(format!(
                    "tenant {slot} ({name}): solo run offloaded but shared declined with \"{e}\""
                ));
                break;
            }
        }
    }
    if let Some(msg) = divergence {
        // The always-on flight recorder earns its keep here: dump the
        // recent per-tenant history alongside the divergence.
        let dump = run.flight.post_mortem(&format!("differential divergence: {msg}"));
        return Err(format!("{msg}\nflight post-mortem: {dump}"));
    }
    Ok((stats, run.stats, run.post_mortem))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_episode_is_deterministic_and_clean() {
        for seed in 0..6 {
            let a = differential_episode(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let b = differential_episode(seed).unwrap();
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.bus_tokens_dropped, b.bus_tokens_dropped);
        }
    }

    #[test]
    fn controller_episode_survives_fault_taxonomy() {
        for seed in 0..3 {
            controller_episode(seed, false).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn tenants_episode_is_invisible_and_deterministic() {
        let episode = |seed| tenants_episode_fleet(seed, 2, 3, false, false).map(|(s, _, _)| s);
        for seed in 0..2 {
            let a = episode(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let b = episode(seed).unwrap();
            assert_eq!(a.migrations, b.migrations, "seed {seed}");
            assert_eq!(a.declined, b.declined, "seed {seed}");
            assert_eq!(a.tenants, 2);
        }
    }

    #[test]
    fn fleet_episode_exports_telemetry_and_forced_fault_dumps() {
        let (stats, fleet, pm) =
            tenants_episode_fleet(2, 2, 3, false, false).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(stats.tenants, 2);
        assert_eq!(fleet.runs, 1);
        let busy: u64 = fleet.band_busy.iter().sum();
        let idle: u64 = fleet.band_idle.iter().sum();
        assert_eq!(busy + idle, fleet.elapsed_cycles * fleet.bands as u64);
        assert!(pm.is_none(), "clean run must not dump a post-mortem");

        // Forced fault: tenant 0's config stream truncates identically in
        // the solo baseline and the shared run, so the declines compare
        // equal — and the decline auto-dumps a flight post-mortem.
        let (stats, _, pm) =
            tenants_episode_fleet(2, 2, 3, true, false).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(stats.declined, 1);
        let dump = pm.expect("decline must produce a post-mortem");
        let doc = mesa_trace::json::parse(&dump).expect("post-mortem parses");
        assert_eq!(doc.get("schema"), Some(&"mesa.flight/v1".into()));
    }

    /// Pins the bytes of the two fleet exports `scripts/ci.sh` validates:
    /// the folded fleetstats of `soak --iters 16 --seed 3 --tenants 2
    /// --migrate-every 3 --fleetstats` and the post-mortem of `soak
    /// --iters 1 --seed 2 --tenants 2 --force-fault --postmortem`. Each
    /// digest is the FNV-64 of the file `soak` writes. A change to how
    /// the fabric keeps its telemetry must leave both unchanged; only a
    /// deliberate schema change re-pins them.
    #[test]
    fn fleet_exports_match_their_pinned_digests() {
        let digest = |doc: &str| {
            let mut h = Fnv64::new();
            h.write(doc.as_bytes());
            h.finish()
        };
        let mut state = 3;
        let mut folded = mesa_core::FleetStats::default();
        for _ in 0..16 {
            let seed = splitmix64(&mut state);
            let (_, fleet, _) =
                tenants_episode_fleet(seed, 2, 3, false, false).unwrap_or_else(|e| panic!("{e}"));
            folded.merge(&fleet);
        }
        assert_eq!(digest(&folded.to_json().to_string()), 0x51de_334c_28fc_efc1);

        let seed = splitmix64(&mut 2);
        let (_, _, pm) =
            tenants_episode_fleet(seed, 2, 0, true, false).unwrap_or_else(|e| panic!("{e}"));
        let pm = pm.expect("forced fault dumps a post-mortem");
        assert_eq!(digest(&pm), 0x2b35_1bf6_d0b7_6a53);
    }

    #[test]
    fn tenant_jobs_is_deterministic() {
        let (q1, jobs1) = tenant_jobs(7, 3);
        let (q2, jobs2) = tenant_jobs(7, 3);
        assert_eq!(q1, q2);
        assert_eq!(jobs1.len(), 3);
        for ((n1, j1), (n2, j2)) in jobs1.iter().zip(&jobs2) {
            assert_eq!(n1, n2);
            assert_eq!(format!("{:?}", j1.state), format!("{:?}", j2.state));
        }
    }
}
