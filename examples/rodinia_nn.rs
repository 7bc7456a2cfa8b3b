//! The paper's flagship workload: the Rodinia `nn` (nearest neighbor)
//! kernel, offloaded end-to-end and compared against the CPU.
//!
//! Reproduces in miniature the methodology behind Fig. 11/15/16: the same
//! binary runs on the out-of-order core and on the MESA-configured
//! accelerator, and we compare cycles and energy.
//!
//! Run with: `cargo run --example rodinia_nn`
//!
//! Pass `--trace <path>` (`cargo run --example rodinia_nn -- --trace
//! out.json`) to also write a Chrome trace-event file of the offload
//! episode (phases on simulated-cycle timestamps; open it in Perfetto or
//! `chrome://tracing`).

use mesa::core::{run_offload_with, RunOptions, SystemConfig};
use mesa::cpu::{CoreConfig, NullMonitor, OoOCore, RunLimits};
use mesa::mem::{MemConfig, MemorySystem};
use mesa::power::{accel_energy, config_energy, cpu_energy, EnergyParams, MemActivity};
use mesa::trace::RingTracer;
use mesa::workloads::{by_name, KernelSize};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let mut trace_path = None;
    while let Some(a) = args.next() {
        match a.strip_prefix("--trace=") {
            Some(p) => trace_path = Some(p.to_string()),
            None if a == "--trace" => trace_path = args.next(),
            None => return Err(format!("unknown argument `{a}` (usage: [--trace <path>])").into()),
        }
    }
    let kernel = by_name("nn", KernelSize::Small).expect("nn is registered");
    println!("kernel: {} — {}", kernel.name, kernel.description);
    println!("{} iterations, {} instructions in the hot loop\n",
        kernel.iterations,
        (kernel.loop_region().1 - kernel.loop_region().0) / 4);

    // ---- CPU-only run ----
    let mut mem = MemorySystem::new(MemConfig::default(), 2);
    kernel.populate(mem.data_mut());
    let mut state = kernel.entry.clone();
    let mut cpu = OoOCore::new(CoreConfig::boom_baseline());
    let cpu_run = cpu.run(&kernel.program, &mut state, &mut mem, 0, RunLimits::none(), &mut NullMonitor);
    let cpu_mem = MemActivity {
        l1_accesses: mem.l1_stats(0).accesses(),
        l2_accesses: mem.l2_stats().accesses(),
        dram_accesses: mem.dram_accesses(),
    };
    println!("CPU (quad-issue OoO): {} cycles, IPC {:.2}", cpu_run.cycles, cpu_run.ipc());

    // ---- MESA offload run ----
    let mut mem = MemorySystem::new(MemConfig::default(), 2);
    kernel.populate(mem.data_mut());
    let mut state = kernel.entry.clone();
    let mut tracer = RingTracer::new(1 << 16);
    let (system, opts) = (SystemConfig::m128(), RunOptions::default());
    let report =
        run_offload_with(&kernel.program, &mut state, &mut mem, &system, &opts, &mut tracer)?;
    if let Some(path) = &trace_path {
        std::fs::write(path, tracer.to_chrome_trace())?;
        println!("wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)\n");
    }
    let accel_mem = MemActivity {
        l1_accesses: mem.l1_stats(1).accesses(),
        l2_accesses: mem.l2_stats().accesses(),
        dram_accesses: mem.dram_accesses(),
    };

    println!(
        "MESA M-128: {} total cycles ({} warmup + {} config-phase + {} accel)",
        report.total_cycles(),
        report.warmup_cycles,
        report.config.total().max(report.config_phase_cpu_cycles),
        report.accel_cycles
    );
    println!("  tiles: {}, pipelined: {}, prefetch hits: {}",
        report.tiles, report.pipelined, report.activity.prefetch_hits);

    let speedup = cpu_run.cycles as f64 / report.total_cycles() as f64;
    println!("\nspeedup over one core: {speedup:.2}x");

    // ---- energy ----
    let p = EnergyParams::default();
    let e_cpu = cpu_energy(cpu_run.retired, cpu_run.cycles, &cpu_mem, &p);
    let e_mesa = accel_energy(&report.activity, &accel_mem, report.accel_cycles, 128, &p)
        .add(&config_energy(report.config.total() + report.reconfig_cycles, &p))
        .add(&cpu_energy(
            report.warmup_instrs,
            report.warmup_cycles + report.config_phase_cpu_cycles,
            // The controller samples memory totals just before handing off
            // to the fabric, so warmup traffic is charged to the CPU.
            &MemActivity {
                l1_accesses: report.cpu_phase_traffic.l1_accesses,
                l2_accesses: report.cpu_phase_traffic.l2_accesses,
                dram_accesses: report.cpu_phase_traffic.dram_accesses,
            },
            &p,
        ));
    println!("CPU energy:  {:.1} µJ", e_cpu.total_nj() / 1000.0);
    println!("MESA energy: {:.1} µJ  ({:.2}x more efficient)",
        e_mesa.total_nj() / 1000.0,
        e_cpu.total_nj() / e_mesa.total_nj());
    let [c, m, i, ctl] = e_mesa.fractions();
    println!("MESA breakdown: compute {:.0}%, memory {:.0}%, interconnect {:.0}%, control {:.0}%",
        c * 100.0, m * 100.0, i * 100.0, ctl * 100.0);
    Ok(())
}
