//! Diagnostic dump: run one kernel through the full MESA controller, then
//! map and execute its region by hand, printing the placement, per-node
//! measured latencies, and activity — the raw data behind the figures, for
//! calibration and debugging. Kernels the controller rejects get their
//! rejection reason printed instead of a silent fallthrough.
//!
//! Usage: `cargo run --release -p mesa-bench --bin inspect -- <kernel>
//! [tiny|small|large] [--trace <path>] [--profile <path>] [--fast-forward]`
//!
//! `--trace <path>` (or `MESA_TRACE=<path>`) additionally writes a Chrome
//! trace-event file of the controller episode to `<path>` and the raw
//! event log to `<path>.jsonl`. `--profile <path>` (or
//! `MESA_PROFILE=<path>`) writes the unified bottleneck-attribution
//! report of the episode as JSON to `<path>` and prints its summary.

use mesa_accel::{AccelConfig, Coord, SpatialAccelerator};
use mesa_bench::region_ldfg;
use mesa_core::{
    analyze_memopts, build_accel_program, map_instructions, run_offload_with, MapperConfig,
    MesaError, OptFlags, RunOptions,
};
use mesa_isa::OpClass;
use mesa_mem::{MemConfig, MemorySystem};
use mesa_profile::ProfileReport;
use mesa_trace::{EventKind, RingTracer};
use mesa_workloads::{by_name, KernelSize};

fn main() {
    let mut trace_path = std::env::var("MESA_TRACE").ok().filter(|p| !p.is_empty());
    let mut profile_path = std::env::var("MESA_PROFILE").ok().filter(|p| !p.is_empty());
    let mut rest: Vec<String> = Vec::new();
    let (fast_forward, args) = mesa_bench::cli::fast_forward_args();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--trace" {
            trace_path = args.next();
        } else if let Some(p) = a.strip_prefix("--trace=") {
            trace_path = Some(p.to_string());
        } else if a == "--profile" {
            profile_path = args.next();
        } else if let Some(p) = a.strip_prefix("--profile=") {
            profile_path = Some(p.to_string());
        } else {
            rest.push(a);
        }
    }
    let name = rest.first().map_or("nn", String::as_str);
    let size = match rest.get(1).map(String::as_str) {
        Some("tiny") => KernelSize::Tiny,
        Some("large") => KernelSize::Large,
        _ => KernelSize::Small,
    };
    let kernel = by_name(name, size).expect("kernel exists");

    // Full controller episode first: this is what the system would really
    // do, and it surfaces the rejection diagnostics for kernels that fail
    // C1–C3 (or never form a stable loop).
    let system = mesa_core::SystemConfig { fast_forward, ..mesa_core::SystemConfig::m128() };
    let mut tracer = RingTracer::new(1 << 16);
    let mut sys_mem = MemorySystem::new(system.mem, 2);
    kernel.populate(sys_mem.data_mut());
    let mut sys_state = kernel.entry.clone();
    let (program, opts) = (&kernel.program, RunOptions::default());
    let outcome =
        run_offload_with(program, &mut sys_state, &mut sys_mem, &system, &opts, &mut tracer);
    match &outcome {
        Ok(report) => {
            println!(
                "{}: offloaded — warmup {} + config {} (cpu overlapped {}) + accel {} cycles, \
                 {} iterations on the fabric ({:.2} cyc/iter), {} reconfiguration(s)",
                kernel.name,
                report.warmup_cycles,
                report.config.total(),
                report.config_phase_cpu_cycles,
                report.accel_cycles,
                report.accel_iterations,
                report.cycles_per_iteration(),
                report.reconfigurations,
            );
            // CPU speed layers: macro-op fusion counters from the warmup
            // pipeline, and how much of warmup ran at interpreter speed.
            let fusion = &report.cpu_pipeline.fusion;
            println!(
                "  cpu: {} warmup instrs ({} fast-forwarded, {} simulated); \
                 {} fused pairs ({:.1}% of retired; cmp+br {}, addr+ld {}, addr+st {}, alu+alu {})",
                report.warmup_instrs,
                report.ff_instrs,
                report.warmup_instrs - report.ff_instrs,
                fusion.fused_pairs(),
                fusion.hit_rate(report.cpu_pipeline.retired) * 100.0,
                fusion.cmp_branch,
                fusion.addr_load,
                fusion.addr_store,
                fusion.alu_alu,
            );
            // Fleet telemetry (zero for a solo offload like this one, but
            // populated when the report came off a shared fabric).
            if report.queue_wait_cycles > 0 || report.checkpoint_cycles > 0 {
                println!(
                    "  fabric: {} cycles queued, {} checkpoint/restore cycles over {} migration(s)",
                    report.queue_wait_cycles, report.checkpoint_cycles, report.migrations
                );
            }
        }
        Err(MesaError::Rejected(reason)) => {
            println!("{}: offload REJECTED — {reason}", kernel.name);
            for ev in tracer.events() {
                if let EventKind::Instant { name, detail } = &ev.kind {
                    if name == "reject" {
                        println!("  cycle {}: {detail}", ev.cycle);
                    }
                }
            }
            println!("  (execution stays on the host CPU; the dump below maps the region by hand)");
        }
        Err(e) => println!("{}: offload did not complete — {e}", kernel.name),
    }
    if let Some(path) = &profile_path {
        let profile = match &outcome {
            Ok(report) => ProfileReport::from_offload(
                kernel.name,
                report,
                &system,
                region_ldfg(&kernel).as_ref(),
                Some(&sys_mem.traffic()),
            ),
            Err(e) => ProfileReport::declined(kernel.name, &system, &e.to_string()),
        };
        std::fs::write(path, profile.to_json().to_lines())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\n{}", profile.render());
        println!("wrote profile report to {path}");
    }
    if let Some(path) = &trace_path {
        let jsonl_path = format!("{path}.jsonl");
        std::fs::write(path, tracer.to_chrome_trace())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        std::fs::write(&jsonl_path, tracer.to_json_lines())
            .unwrap_or_else(|e| panic!("writing {jsonl_path}: {e}"));
        println!("wrote Chrome trace to {path} and event log to {jsonl_path}");
    }
    println!();

    // Manual mapping dump (independent of the controller's verdict, where
    // the region is structurally buildable at all).
    let Some(ldfg) = region_ldfg(&kernel) else {
        println!(
            "{}: the loop region's LDFG cannot be built, nothing to map by hand",
            kernel.name
        );
        return;
    };

    let accel_cfg = AccelConfig::m128();
    let accel = SpatialAccelerator::new(accel_cfg);
    let supports = |c: Coord, class: OpClass| accel_cfg.supports(c, class);
    let sdfg = map_instructions(
        &ldfg,
        accel_cfg.grid(),
        &supports,
        accel.latency_model(),
        &MapperConfig::default(),
    );
    let plan = analyze_memopts(&ldfg);
    let prog = build_accel_program(
        &ldfg,
        &sdfg,
        Some(&plan),
        kernel.annotation,
        &accel_cfg,
        &OptFlags::default(),
        kernel.iterations,
    );
    println!(
        "{}: {} nodes, tiles={}, pipelined={}, est iter latency={}",
        kernel.name,
        prog.len(),
        prog.tiles,
        prog.pipelined,
        sdfg.expected_iteration_latency()
    );

    let mut mem = MemorySystem::new(MemConfig::default(), 2);
    kernel.populate(mem.data_mut());
    let r = accel
        .execute(&prog, &kernel.entry, &mut mem, 1, 10_000_000)
        .expect("runs");
    println!(
        "iterations={} cycles={} ({:.2} cyc/iter) completed={}",
        r.iterations,
        r.cycles,
        r.cycles_per_iteration(),
        r.completed
    );
    println!("activity: {:?}\n", r.activity);

    println!(
        "{:<4} {:<26} {:<8} {:>8} {:>7} {:>7} {:>6}",
        "idx", "instr", "coord", "fires", "avg_op", "avg_s1", "avg_s2"
    );
    for (i, node) in prog.nodes.iter().enumerate() {
        let ctr = &r.counters.nodes[i];
        println!(
            "{:<4} {:<26} {:<8} {:>8} {:>7} {:>7} {:>6}",
            i,
            node.instr.to_string(),
            node.coord.map_or("bus".into(), |c| c.to_string()),
            ctr.fires,
            ctr.avg_op().map_or(0, |v| v),
            ctr.avg_in(0).unwrap_or(0),
            ctr.avg_in(1).unwrap_or(0),
        );
    }
}
