//! One function per table/figure of the paper's evaluation (§6), each
//! returning structured rows that the `figures` binary prints and
//! `EXPERIMENTS.md` records. Every function that runs offload episodes
//! takes `fast_forward`, which it sets as [`SystemConfig::fast_forward`]
//! on each system it builds (`figures --fast-forward`).

use crate::harness::{
    cpu_multicore, cpu_single, geomean, mesa_offload, region_ldfg, BaselineRun, MesaRun,
};
use crate::pool::par_map;
use mesa_accel::AccelConfig;
use mesa_baselines::{dora, dynaspam, opencgra};
use mesa_core::{config_latency, ImapTiming, MapperConfig, OptFlags, SystemConfig};
use mesa_cpu::CoreConfig;
use mesa_power::{
    accel_energy, amortization_series, config_energy, cpu_energy, table1_rows, EnergyBreakdown,
    EnergyParams, Table1Row,
};
use mesa_workloads::{
    all, by_name, KernelSize, DYNASPAM_SHARED, OPENCGRA_COMPATIBLE, POWER_BREAKDOWN_SET,
};

/// Cores in the multicore baseline (§6: "16-core quad-issue out-of-order
/// RISC-V CPU").
pub const BASELINE_CORES: usize = 16;

/// `num / den`, with non-positive or non-finite denominators (and
/// non-finite numerators) flattened to 0.0 so no NaN/inf ever reaches a
/// printed row or an exported JSON figure.
fn ratio(num: f64, den: f64) -> f64 {
    if num.is_finite() && den.is_finite() && den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The M-128 system, with CPU warmup fast-forwarded when `fast_forward`
/// is set.
fn m128(fast_forward: bool) -> SystemConfig {
    SystemConfig { fast_forward, ..SystemConfig::m128() }
}

fn mesa_energy(run: &MesaRun, p: &EnergyParams) -> EnergyBreakdown {
    match &run.report {
        // Only the configured region's PEs draw power; unused tiles are
        // power-gated (§6.1 assumes disabled units are clock-gated).
        Some(r) => {
            let pes_active = r.counters.nodes.len() * r.tiles;
            // Charge each phase its own traffic: the harness splits the
            // episode's memory activity at the controller's pre-offload
            // snapshot, so warmup/config traffic lands on the CPU and only
            // the accelerator's own accesses land on the fabric.
            accel_energy(&r.activity, &run.accel_mem, r.accel_cycles, pes_active, p)
            .add(&config_energy(r.config.total() + r.reconfig_cycles, p))
            .add(&cpu_energy(
                r.warmup_instrs + r.cpu_iterations_during_config * 8,
                r.warmup_cycles + r.config_phase_cpu_cycles,
                &run.cpu_mem,
                p,
            ))
        }
        None => cpu_energy(0, run.cycles, &run.mem, p), // fallback handled by caller
    }
}

fn baseline_energy(run: &BaselineRun, p: &EnergyParams) -> EnergyBreakdown {
    cpu_energy(run.retired, run.core_cycles, &run.mem, p)
}

/// One row of Fig. 11: speedup and energy efficiency of M-128/M-512 over
/// the 16-core baseline.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Speedup of M-128 over the multicore (>1 = MESA faster).
    pub speedup_m128: f64,
    /// Speedup of M-512.
    pub speedup_m512: f64,
    /// Energy-efficiency gain of M-128 (baseline energy / MESA energy).
    pub energy_m128: f64,
    /// Energy-efficiency gain of M-512.
    pub energy_m512: f64,
    /// Why the M-128 offload was declined, when it was (the `Display` of
    /// the controller's error; C1–C3 rejections keep their prefix).
    pub reject: Option<String>,
}

/// Short tag for a decline reason: `C1`/`C2`/`C3` for the paper's reject
/// conditions, `decl` for the other decline paths, `-` for accepted.
#[must_use]
pub fn reject_tag(reject: Option<&str>) -> &'static str {
    match reject {
        None => "-",
        Some(r) if r.contains("C1") => "C1",
        Some(r) if r.contains("C2") => "C2",
        Some(r) if r.contains("C3") => "C3",
        Some(_) => "decl",
    }
}

/// Fig. 11: performance and energy efficiency vs the 16-core baseline
/// across the Rodinia kernels. Returns per-kernel rows plus the geometric
/// means `(perf128, perf512, energy128, energy512)`.
#[must_use]
pub fn fig11(size: KernelSize, fast_forward: bool) -> (Vec<Fig11Row>, [f64; 4]) {
    let p = EnergyParams::default();
    let rows = par_map(all(size), |kernel| {
        let base = cpu_multicore(&kernel, BASELINE_CORES);
        let base_e = baseline_energy(&base, &p).total_pj();
        let per_cfg = |system: &SystemConfig| -> (f64, f64, Option<String>) {
            let run = mesa_offload(&kernel, system, BASELINE_CORES);
            let speedup = ratio(base.cycles as f64, run.cycles as f64);
            let energy = if run.report.is_some() {
                ratio(base_e, mesa_energy(&run, &p).total_pj())
            } else {
                1.0 // fell back to the same multicore
            };
            (speedup, energy, run.declined.map(|e| e.to_string()))
        };
        let (s128, e128, reject) = per_cfg(&m128(fast_forward));
        let (s512, e512, _) = per_cfg(&SystemConfig { fast_forward, ..SystemConfig::m512() });
        Fig11Row {
            name: kernel.name,
            speedup_m128: s128,
            speedup_m512: s512,
            energy_m128: e128,
            energy_m512: e512,
            reject,
        }
    });
    // The paper reports plain averages ("MESA achieves 1.33x and 1.81x
    // performance gains ... averaged 1.86x and 1.92x").
    let mean = |f: &dyn Fn(&Fig11Row) -> f64| {
        ratio(rows.iter().map(f).sum::<f64>(), rows.len() as f64)
    };
    let means = [
        mean(&|r| r.speedup_m128),
        mean(&|r| r.speedup_m512),
        mean(&|r| r.energy_m128),
        mean(&|r| r.energy_m512),
    ];
    (rows, means)
}

/// One row of Fig. 12: per-iteration IPC against OpenCGRA.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Loop-body instructions per iteration.
    pub loop_instrs: u64,
    /// MESA without optimizations: IPC (= instrs / cycles-per-iteration).
    pub mesa_noopt_ipc: f64,
    /// OpenCGRA modulo schedule: IPC.
    pub opencgra_ipc: f64,
    /// MESA with its common optimizations: IPC.
    pub mesa_opt_ipc: f64,
}

/// Fig. 12: simulated per-iteration IPC against a similarly configured
/// OpenCGRA, with and without MESA's optimizations.
#[must_use]
pub fn fig12(size: KernelSize, fast_forward: bool) -> Vec<Fig12Row> {
    let rows = par_map(OPENCGRA_COMPATIBLE.to_vec(), |name| {
        let kernel = by_name(name, size).expect("compatible kernel");
        let ldfg = region_ldfg(&kernel).expect("compatible region");
        let instrs = ldfg.len() as u64;

        // OpenCGRA: steady-state II.
        let cgra = opencgra::CgraConfig::similar_to(128, AccelConfig::m128().mem_ports);
        let sched = opencgra::schedule(&ldfg, &cgra).expect("schedulable");
        let opencgra_ipc = ratio(instrs as f64, sched.ii as f64);

        // MESA without optimizations (pure spatial SDFG). Iteration
        // overlap is inherent to the dataflow fabric, as software
        // pipelining is inherent to OpenCGRA's modulo schedule; "no
        // optimizations" disables tiling, memory opts, and reconfiguration.
        let mut sys_noopt = m128(fast_forward);
        sys_noopt.opts = OptFlags::none();
        sys_noopt.opts.pipelining = true;
        let noopt = mesa_offload(&kernel, &sys_noopt, BASELINE_CORES);
        let mesa_noopt_ipc = noopt
            .report
            .as_ref()
            .map_or(0.0, |r| ratio(instrs as f64, r.cycles_per_iteration()));

        // MESA with its common optimizations (tiling, pipelining, etc.).
        let opt = mesa_offload(&kernel, &m128(fast_forward), BASELINE_CORES);
        let mesa_opt_ipc = opt
            .report
            .as_ref()
            .map_or(0.0, |r| ratio(instrs as f64, r.cycles_per_iteration()));

        Fig12Row {
            name: kernel.name,
            loop_instrs: instrs,
            mesa_noopt_ipc,
            opencgra_ipc,
            mesa_opt_ipc,
        }
    });
    rows
}

/// Fig. 13: area, power, and energy fractions by component, averaged over
/// the four-kernel set the paper uses.
#[derive(Debug, Clone)]
pub struct Fig13Report {
    /// `(component, area mm², fraction)` for the M-128 system.
    pub area: Vec<(&'static str, f64)>,
    /// Energy fractions `(compute, memory, interconnect, control)`.
    pub energy_fractions: [f64; 4],
    /// The kernels averaged.
    pub kernels: [&'static str; 4],
}

/// Fig. 13: component breakdown averaged over nn/kmeans/hotspot/cfd.
#[must_use]
pub fn fig13(size: KernelSize, fast_forward: bool) -> Fig13Report {
    let p = EnergyParams::default();
    let parts = par_map(POWER_BREAKDOWN_SET.to_vec(), |name| {
        let kernel = by_name(name, size).expect("registered");
        let run = mesa_offload(&kernel, &m128(fast_forward), BASELINE_CORES);
        assert!(run.report.is_some(), "{name} must accelerate");
        mesa_energy(&run, &p)
    });
    // Fold in kernel order so the float sums match the sequential run.
    let mut total = EnergyBreakdown::default();
    for part in &parts {
        total = total.add(part);
    }
    Fig13Report {
        area: vec![
            ("PE array", 14.95),
            ("NoC + LSU + caches", mesa_power::accel_area_mm2(128) - 14.95),
            ("MESA controller", mesa_power::mesa_area_mm2()),
            ("core additions", mesa_power::core_additions_mm2()),
        ],
        energy_fractions: total.fractions(),
        kernels: POWER_BREAKDOWN_SET,
    }
}

/// One row of Fig. 14: speedups over a single OoO core.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Benchmark name.
    pub name: &'static str,
    /// DynaSpAM-style fabric speedup (speculation on).
    pub dynaspam: f64,
    /// M-64 with parallel optimizations, no iterative reconfiguration.
    pub mesa64: f64,
    /// M-64 with runtime iterative reconfiguration as well.
    pub mesa64_reconfig: f64,
    /// Whether the kernel qualified for MESA at all.
    pub mesa_qualified: bool,
}

/// Fig. 14: M-64 vs a single core and the DynaSpAM baseline on the shared
/// kernels. Returns rows plus geomean speedups `(dynaspam, mesa64,
/// mesa64+reconfig)` over the kernels where each qualifies.
#[must_use]
pub fn fig14(size: KernelSize, fast_forward: bool) -> (Vec<Fig14Row>, [f64; 3]) {
    let core = CoreConfig::dynaspam_host();
    let rows = par_map(DYNASPAM_SHARED.to_vec(), |name| {
        let kernel = by_name(name, size).expect("registered");
        let single = cpu_single(&kernel, core);

        // DynaSpAM: analytic fabric model over the same LDFG.
        let dynaspam = region_ldfg(&kernel)
            .and_then(|ldfg| dynaspam::map(&ldfg, &dynaspam::DynaspamConfig::default()).ok())
            .map_or(1.0, |m| ratio(single.cycles as f64, m.cycles_for(kernel.iterations) as f64));

        // M-64 without iterative reconfiguration.
        let mut sys = SystemConfig { fast_forward, ..SystemConfig::m64() };
        sys.core = core;
        sys.opts.iterative = false;
        let run = mesa_offload(&kernel, &sys, 1);
        let qualified = run.report.is_some();
        let mesa64 = ratio(single.cycles as f64, run.cycles as f64);

        // M-64 with iterative reconfiguration.
        let mut sys_it = SystemConfig { fast_forward, ..SystemConfig::m64() };
        sys_it.core = core;
        sys_it.opts.iterative = true;
        let run_it = mesa_offload(&kernel, &sys_it, 1);
        let mesa64_reconfig = ratio(single.cycles as f64, run_it.cycles as f64);

        Fig14Row { name: kernel.name, dynaspam, mesa64, mesa64_reconfig, mesa_qualified: qualified }
    });
    let qualified: Vec<&Fig14Row> = rows.iter().filter(|r| r.mesa_qualified).collect();
    let means = [
        geomean(&rows.iter().map(|r| r.dynaspam).collect::<Vec<_>>()),
        geomean(&qualified.iter().map(|r| r.mesa64).collect::<Vec<_>>()),
        geomean(&qualified.iter().map(|r| r.mesa64_reconfig).collect::<Vec<_>>()),
    ];
    (rows, means)
}

/// One point of Fig. 15: PE scaling on the `nn` kernel.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// PE count.
    pub pes: usize,
    /// Speedup over the 16-PE configuration, default memory system.
    pub speedup: f64,
    /// Speedup with unlimited memory ports ("ideal memory").
    pub speedup_ideal_mem: f64,
    /// Perfect linear scaling reference.
    pub ideal: f64,
}

/// Fig. 15: MESA performance scaling with PE count for `nn`.
#[must_use]
pub fn fig15(size: KernelSize, fast_forward: bool) -> Vec<Fig15Row> {
    let kernel = by_name("nn", size).expect("nn");
    let accel_cycles = |accel: AccelConfig| -> u64 {
        let mut sys = m128(fast_forward);
        sys.accel = accel;
        let run = mesa_offload(&kernel, &sys, 1);
        run.report.expect("nn accelerates").accel_cycles
    };
    let pes_list = [16usize, 32, 64, 128, 256, 512];
    let base = accel_cycles(AccelConfig::with_pes(16));
    let base_ideal = accel_cycles(AccelConfig::with_pes(16).with_ideal_memory());
    par_map(pes_list.to_vec(), |pes| {
        let default = accel_cycles(AccelConfig::with_pes(pes));
        let ideal_mem = accel_cycles(AccelConfig::with_pes(pes).with_ideal_memory());
        Fig15Row {
            pes,
            speedup: ratio(base as f64, default as f64),
            speedup_ideal_mem: ratio(base_ideal as f64, ideal_mem as f64),
            ideal: pes as f64 / 16.0,
        }
    })
}

/// Fig. 16: average energy (nJ) per iteration vs iterations elapsed for
/// `nn`, showing configuration-cost amortization. Returns `(points,
/// break_even_iterations)`.
#[must_use]
pub fn fig16(size: KernelSize, fast_forward: bool) -> (Vec<(u64, f64)>, u64) {
    let p = EnergyParams::default();
    let kernel = by_name("nn", size).expect("nn");
    let run = mesa_offload(&kernel, &m128(fast_forward), 1);
    let report = run.report.expect("nn accelerates");

    // Sunk cost: MESA's configuration activity plus the CPU cycles burned
    // on monitoring and the overlapped configuration phase.
    let config_nj = config_energy(report.config.total() + report.reconfig_cycles, &p)
        .total_nj()
        + cpu_energy(
            report.warmup_instrs + report.cpu_iterations_during_config * 13,
            report.warmup_cycles + report.config_phase_cpu_cycles,
            &run.cpu_mem,
            &p,
        )
        .total_nj();
    let pes_active = report.counters.nodes.len() * report.tiles;
    let steady_nj =
        accel_energy(&report.activity, &run.accel_mem, report.accel_cycles, pes_active, &p)
            .total_nj()
            / report.accel_iterations.max(1) as f64;
    let points = [1u64, 2, 5, 10, 20, 35, 50, 70, 100, 150, 250, 500, 1000];
    let series = amortization_series(config_nj, steady_nj, &points);
    let break_even = mesa_power::break_even_iterations(config_nj, steady_nj, 1.0);
    (series, break_even)
}

/// Table 1: the published synthesis breakdown.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    table1_rows()
}

/// One row of Table 2: configuration latencies by approach.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The work being compared.
    pub work: &'static str,
    /// Configuration latency description.
    pub config_latency: String,
    /// Target hardware.
    pub targets: &'static str,
    /// Optimizations applied.
    pub optimizations: &'static str,
}

/// Table 2: MESA's measured configuration latency range across the suite
/// against the related approaches' published characteristics.
#[must_use]
pub fn table2(size: KernelSize) -> Vec<Table2Row> {
    // Measure MESA's config latency over every accelerable kernel.
    let timing = ImapTiming::default();
    let mapper = MapperConfig::default();
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for kernel in all(size) {
        if let Some(ldfg) = region_ldfg(&kernel) {
            let lat = config_latency(&timing, &mapper, ldfg.len(), 1).total();
            lo = lo.min(lat);
            hi = hi.max(lat);
        }
    }
    // Also the largest supportable region (512 instructions on M-512).
    let max_lat = config_latency(&timing, &mapper, 512, 1).total();
    hi = hi.max(max_lat);

    vec![
        Table2Row {
            work: "TRIPS",
            config_latency: "AOT".into(),
            targets: "2D Spatial",
            optimizations: "H-Block (EDGE)",
        },
        Table2Row {
            work: "CCA",
            config_latency: "-".into(),
            targets: "1D FF",
            optimizations: "N/A",
        },
        Table2Row {
            work: "DynaSpAM",
            config_latency: format!(
                "JIT (ns): {} cycles",
                dynaspam::DynaspamConfig::default().config_cycles
            ),
            targets: "1D FF",
            optimizations: "Out-of-order",
        },
        Table2Row {
            work: "DORA",
            config_latency: "JIT (ms): ~10^6-10^7 cycles".into(),
            targets: "2D Spatial",
            optimizations: "Vect., Unroll, Deepen",
        },
        Table2Row {
            work: "MESA",
            config_latency: format!("JIT (ns-us): {lo}-{hi} cycles measured"),
            targets: "2D Spatial",
            optimizations: "Dynamic, Tile, Pipeline",
        },
    ]
}


/// One row of the Table 2 trade-off study: total cycles for `iterations`
/// loop iterations under each dynamic-translation approach, configuration
/// included.
#[derive(Debug, Clone, Copy)]
pub struct CrossoverRow {
    /// Loop trip count.
    pub iterations: u64,
    /// DynaSpAM-style (ns config, 1-D fabric, no tiling).
    pub dynaspam: u64,
    /// MESA (µs config, 2-D fabric, tiling + pipelining).
    pub mesa: u64,
    /// DORA-style (ms config, compiler-grade schedule).
    pub dora: u64,
}

/// Quantifies Table 2's configuration-time vs optimization-level
/// trade-off on the `nn` kernel: at small trip counts DynaSpAM's
/// nanosecond configuration wins, at huge trip counts DORA's
/// compiler-grade schedule wins, and MESA occupies the middle ground the
/// paper claims. Returns the sweep plus `(mesa_beats_dynaspam_at,
/// dora_beats_mesa_at)` crossover trip counts (`u64::MAX` = never within
/// the sweep).
#[must_use]
pub fn crossover(size: KernelSize, fast_forward: bool) -> (Vec<CrossoverRow>, [u64; 2]) {
    let kernel = by_name("nn", size).expect("nn");
    let ldfg = region_ldfg(&kernel).expect("nn region");

    // Measured MESA behaviour: config latency + steady per-iteration rate.
    let run = mesa_offload(&kernel, &m128(fast_forward), 1);
    let report = run.report.expect("nn accelerates");
    let mesa_config = report.config.total() + report.reconfig_cycles;
    let mesa_rate = report.cycles_per_iteration();

    let dspam = dynaspam::map(&ldfg, &dynaspam::DynaspamConfig::default())
        .expect("nn fits the 64-slot fabric");
    let dora = dora::map(&ldfg, &dora::DoraConfig::default());

    let mut rows = Vec::new();
    let mut n = 16u64;
    while n <= 1 << 24 {
        rows.push(CrossoverRow {
            iterations: n,
            dynaspam: dspam.cycles_for(n),
            mesa: mesa_config + (mesa_rate * n as f64).ceil() as u64,
            dora: dora.cycles_for(n),
        });
        n *= 4;
    }
    let first = |pred: &dyn Fn(&CrossoverRow) -> bool| {
        rows.iter().find(|r| pred(r)).map_or(u64::MAX, |r| r.iterations)
    };
    let crossings = [
        first(&|r: &CrossoverRow| r.mesa < r.dynaspam),
        first(&|r: &CrossoverRow| r.dora < r.mesa),
    ];
    (rows, crossings)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The figure functions are exercised end-to-end (with shape
    // assertions) in `tests/figures_shape.rs`; here we only cover the
    // cheap pieces so `cargo test -p mesa-bench` stays fast.

    #[test]
    fn ratio_flattens_degenerate_denominators_to_zero() {
        assert_eq!(ratio(10.0, 2.0), 5.0);
        assert_eq!(ratio(10.0, 0.0), 0.0);
        assert_eq!(ratio(10.0, -1.0), 0.0);
        assert_eq!(ratio(10.0, f64::NAN), 0.0);
        assert_eq!(ratio(10.0, f64::INFINITY), 0.0);
        assert_eq!(ratio(f64::NAN, 2.0), 0.0);
        assert!(ratio(10.0, 0.0).is_finite());
    }

    #[test]
    fn reject_tags_cover_the_conditions() {
        assert_eq!(reject_tag(None), "-");
        assert_eq!(reject_tag(Some("loop rejected: C1: loop body too large")), "C1");
        assert_eq!(reject_tag(Some("loop rejected: C2: unsupported instruction")), "C2");
        assert_eq!(reject_tag(Some("loop rejected: C3: irregular control flow")), "C3");
        assert_eq!(reject_tag(Some("no hot loop detected")), "decl");
    }

    #[test]
    fn table1_has_the_headline_numbers() {
        let rows = table1();
        let mesa = rows.iter().find(|r| r.component == "MESA Top").unwrap();
        assert!((mesa.area_um2 - 0.502e6).abs() < 1.0);
        let accel = rows.iter().find(|r| r.component == "Accelerator Top").unwrap();
        assert!((accel.area_um2 - 26.56e6).abs() < 1.0);
    }

    #[test]
    fn table2_mesa_range_is_ns_to_us() {
        let rows = table2(KernelSize::Tiny);
        let mesa = rows.iter().find(|r| r.work == "MESA").unwrap();
        assert!(mesa.config_latency.contains("JIT"));
        // The range string embeds measured cycles within 10^2..10^5.
        let nums: Vec<u64> = mesa
            .config_latency
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(nums.iter().any(|&n| (100..=100_000).contains(&n)));
    }
}
