//! Shape assertions for the paper's evaluation claims: these tests pin the
//! *qualitative* results — who wins, roughly by how much, where knees and
//! crossovers fall — so regressions in the simulators or the controller
//! show up as figure-shape breaks, not just unit-test failures.
//!
//! Exact values live in `EXPERIMENTS.md`; sizes here are chosen to keep
//! debug-mode runtime reasonable.

use mesa_bench::{fig12, fig13, fig15, fig16, table2, BASELINE_CORES};
use mesa_bench::{cpu_multicore, mesa_offload};
use mesa_core::SystemConfig;
use mesa_workloads::{by_name, KernelSize};

#[test]
fn fig11_shape_compute_kernels_beat_multicore_on_m512() {
    // The paper's M-512 averages 1.81x over the 16-core baseline, carried
    // by the compute-dense kernels.
    for name in ["nn", "cfd", "streamcluster"] {
        let kernel = by_name(name, KernelSize::Small).unwrap();
        let base = cpu_multicore(&kernel, BASELINE_CORES);
        let run = mesa_offload(&kernel, &SystemConfig::m512(), BASELINE_CORES);
        let speedup = base.cycles as f64 / run.cycles as f64;
        assert!(speedup > 1.3, "{name}: M-512 speedup {speedup:.2} too low");
    }
}

#[test]
fn fig11_shape_m512_not_slower_than_m128() {
    for name in ["nn", "kmeans"] {
        let kernel = by_name(name, KernelSize::Small).unwrap();
        let m128 = mesa_offload(&kernel, &SystemConfig::m128(), BASELINE_CORES);
        let m512 = mesa_offload(&kernel, &SystemConfig::m512(), BASELINE_CORES);
        assert!(
            m512.cycles <= m128.cycles * 11 / 10,
            "{name}: M-512 ({}) should not trail M-128 ({})",
            m512.cycles,
            m128.cycles
        );
    }
}

#[test]
fn fig12_shape_scheduling_only_trails_opencgra_and_opts_flip_it() {
    let rows = fig12(KernelSize::Small, false);
    assert_eq!(rows.len(), 8);
    // "MESA falls slightly behind in most benchmarks" without opts.
    let trailing = rows.iter().filter(|r| r.mesa_noopt_ipc <= r.opencgra_ipc).count();
    assert!(trailing >= 6, "only {trailing}/8 kernels trail OpenCGRA without opts");
    // "MESA with optimizations enabled easily outperforms OpenCGRA" in the
    // majority of kernels (loop parallelization).
    let winning = rows.iter().filter(|r| r.mesa_opt_ipc > r.opencgra_ipc).count();
    assert!(winning >= 5, "only {winning}/8 kernels win with optimizations");
    // And optimizations never hurt.
    for r in &rows {
        assert!(
            r.mesa_opt_ipc >= r.mesa_noopt_ipc * 0.9,
            "{}: optimizations regressed IPC {:.2} -> {:.2}",
            r.name,
            r.mesa_noopt_ipc,
            r.mesa_opt_ipc
        );
    }
}

#[test]
fn fig13_shape_memory_and_compute_dominate() {
    let rep = fig13(KernelSize::Small, false);
    let [compute, memory, _interconnect, control] = rep.energy_fractions;
    // Paper: "almost 87% of total energy is spent on either memory or
    // computation ... with a small fraction on the control subsystem."
    assert!(
        compute + memory > 0.70,
        "memory+compute fraction {:.2} too small",
        compute + memory
    );
    assert!(control < 0.15, "control fraction {control:.2} too large");
}

#[test]
fn fig15_shape_scaling_knees_at_memory_ports() {
    let rows = fig15(KernelSize::Small, false);
    let at = |pes: usize| rows.iter().find(|r| r.pes == pes).expect("row");
    // Scaling is real through the middle of the range…
    assert!(at(64).speedup > 1.8, "64 PEs: {:.2}", at(64).speedup);
    assert!(at(128).speedup > 3.0, "128 PEs: {:.2}", at(128).speedup);
    assert!(at(256).speedup > at(128).speedup);
    // …but memory ports stop the default config beyond the knee, while
    // ideal memory keeps going (the figure's central claim).
    let knee_gain = at(512).speedup / at(256).speedup;
    assert!(knee_gain < 1.25, "512 PEs should be past the knee, gain {knee_gain:.2}");
    assert!(
        at(512).speedup_ideal_mem > at(512).speedup,
        "ideal memory must out-scale limited ports at 512 PEs"
    );
    // Nothing scales beyond the hardware ideal.
    for r in &rows {
        assert!(r.speedup <= r.ideal * 1.05, "{} PEs exceed ideal", r.pes);
    }
}

#[test]
fn fig16_shape_amortization_curve() {
    let (series, break_even) = fig16(KernelSize::Small, false);
    // Strictly decreasing energy per iteration.
    for w in series.windows(2) {
        assert!(w[1].1 < w[0].1, "series must decrease: {w:?}");
    }
    // Break-even lands in the paper's "50-100 iterations" ballpark.
    assert!(
        (30..=250).contains(&break_even),
        "break-even {break_even} outside the plausible band"
    );
}

#[test]
fn table2_shape_mesa_between_dynaspam_and_dora() {
    let rows = table2(KernelSize::Small);
    let mesa = rows.iter().find(|r| r.work == "MESA").unwrap();
    let nums: Vec<u64> = mesa
        .config_latency
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    let (lo, hi) = (*nums.iter().min().unwrap(), *nums.iter().max().unwrap());
    // Slower than DynaSpAM's ns-range JIT…
    assert!(lo > 64, "MESA min {lo} should exceed DynaSpAM's 64 cycles");
    // …but orders of magnitude below DORA's ms-range.
    assert!(hi < 100_000, "MESA max {hi} should stay far below ms-range");
}
