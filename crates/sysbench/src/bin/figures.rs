//! Regenerates the paper's tables and figures as text.
//!
//! Usage: `cargo run --release -p mesa-bench --bin figures [-- <what> [size]]`
//! where `<what>` is one of `table1 table2 fig11 fig12 fig13 fig14 fig15
//! fig16 crossover trace all` (default `all`) and `size` is `tiny|small|large`
//! (default `small`).
//!
//! `--jobs N` (or `MESA_JOBS=N`) fans the independent per-kernel
//! simulations out over N worker threads; output is byte-identical for
//! every worker count (defaults to the machine's available parallelism).
//!
//! `--fast-forward` runs every episode's CPU warmup through the
//! functional fast-forward interpreter (estimated warmup cycles), for
//! quick large-size runs.
//!
//! Passing `--trace <path>` captures a cycle-timestamped trace of one
//! full `nn` offload episode: a Chrome trace-event file at `<path>` (load
//! in Perfetto or `chrome://tracing`), the raw event log at
//! `<path>.jsonl`, and a timeline summary plus the episode's
//! `OffloadReport` on stdout. With no positional argument, `--trace`
//! captures only the trace (it does not regenerate the figures).
//!
//! Passing `--profile <path>` runs one full `nn` offload episode through
//! the profiler and writes the unified bottleneck-attribution report
//! (top-down cycle accounting, per-PE heatmap, measured critical path,
//! re-optimization rounds) as JSON to `<path>`, printing the human
//! summary on stdout.
//!
//! Passing `--host-profile[=<path>]` additionally profiles the *host*
//! side of the run: wall-clock span tree, allocation accounting, and
//! sim-throughput gauges, written as `mesa.hostprofile/v1` JSON to
//! `<path>` (default `mesa_host.json`) plus a flamegraph-ready
//! folded-stack file at `<path>.folded`. `--host-clock mock[:STEP_NS]`
//! swaps the real clock for a deterministic mock, making both exports
//! byte-identical at any `--jobs N`. A one-line wall-clock summary
//! (elapsed, episodes/sec, peak allocation) always goes to **stderr**, so
//! stdout stays byte-comparable across worker counts.

use mesa_bench as bench;
use mesa_core::{RunOptions, SystemConfig};
use mesa_trace::host::{self, HostClock};
use mesa_trace::RingTracer;
use mesa_workloads::{by_name, KernelSize};

/// Pass-through to the system allocator until counting is switched on
/// at the top of `main`; from then on it feeds the peak-allocation
/// figure in the stderr summary and (real-clock runs) per-span deltas.
#[global_allocator]
static ALLOC: mesa_trace::CountingAlloc = mesa_trace::CountingAlloc;

fn main() {
    let mut trace_path = None;
    let mut profile_path = None;
    let mut host_path = None;
    let mut host_clock = None;
    let mut rest: Vec<String> = Vec::new();
    let (ff, args) = bench::cli::fast_forward_args();
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
        } else if a == "--host-profile" {
            host_path.get_or_insert_with(|| "mesa_host.json".to_string());
        } else if let Some(p) = a.strip_prefix("--host-profile=") {
            host_path = Some(p.to_string());
        } else if a == "--host-clock" {
            host_clock = args.next();
        } else if let Some(c) = a.strip_prefix("--host-clock=") {
            host_clock = Some(c.to_string());
        } else if a == "--jobs" {
            set_jobs_arg(args.next().as_deref());
        } else if let Some(n) = a.strip_prefix("--jobs=") {
            set_jobs_arg(Some(n));
        } else {
            rest.push(a);
        }
    }
    // Wall clock + allocation counters back the always-on stderr
    // summary; the span profiler only engages under `--host-profile`.
    let mut wall = host::RealClock::new();
    mesa_trace::alloc::set_counting(true);
    if host_path.is_some() {
        host::enable(parse_host_clock(host_clock.as_deref()));
        host::install();
    }
    let default_what = if trace_path.is_some() || profile_path.is_some() { "capture" } else { "all" };
    let what = rest.first().map_or(default_what, String::as_str);
    let size = match rest.get(1).map(String::as_str) {
        Some("tiny") => KernelSize::Tiny,
        Some("large") => KernelSize::Large,
        _ => KernelSize::Small,
    };

    let run = |name: &str| what == "all" || what == name;

    // `trace`/`profile` only run when asked for by name or by path —
    // `all` does not silently write capture files.
    if what == "trace" || trace_path.is_some() {
        let _s = host::span("figures.trace");
        capture_trace(trace_path.as_deref().unwrap_or("mesa_trace.json"), size, ff);
    }
    if what == "profile" || profile_path.is_some() {
        let _s = host::span("figures.profile");
        capture_profile(profile_path.as_deref().unwrap_or("mesa_profile.json"), size, ff);
    }
    if run("table1") {
        let _s = host::span("figures.table1");
        print_table1();
    }
    if run("fig11") {
        let _s = host::span("figures.fig11");
        print_fig11(size, ff);
    }
    if run("fig12") {
        let _s = host::span("figures.fig12");
        print_fig12(size, ff);
    }
    if run("fig13") {
        let _s = host::span("figures.fig13");
        print_fig13(size, ff);
    }
    if run("fig14") {
        let _s = host::span("figures.fig14");
        print_fig14(size, ff);
    }
    if run("fig15") {
        let _s = host::span("figures.fig15");
        print_fig15(size, ff);
    }
    if run("fig16") {
        let _s = host::span("figures.fig16");
        print_fig16(size, ff);
    }
    if run("table2") {
        let _s = host::span("figures.table2");
        print_table2(size);
    }
    if run("crossover") {
        let _s = host::span("figures.crossover");
        print_crossover(size, ff);
    }

    if let Some(path) = host_path.as_deref() {
        write_host_profile(path);
    }
    let elapsed_ns = wall.now_ns();
    let episodes = host::episodes_total();
    let alloc = mesa_trace::alloc::stats();
    eprintln!(
        "host: {episodes} episodes in {:.3}s ({} eps/s), {:.1} Msim-cycles, peak alloc {:.1} MiB",
        elapsed_ns as f64 / 1e9,
        host::fmt_gauge(episodes as f64 * 1e9 / elapsed_ns as f64),
        host::sim_cycles_total() as f64 / 1e6,
        alloc.peak_bytes as f64 / (1024.0 * 1024.0),
    );
}

/// Parses `--host-clock`: `real` (default), `mock`, or `mock:STEP_NS`.
fn parse_host_clock(value: Option<&str>) -> host::ClockSpec {
    match value {
        None | Some("real") => host::ClockSpec::Real,
        Some("mock") => host::ClockSpec::Mock { step_ns: 1_000 },
        Some(v) => match v.strip_prefix("mock:").and_then(|s| s.trim().parse::<u64>().ok()) {
            Some(step_ns) => host::ClockSpec::Mock { step_ns },
            None => {
                eprintln!("--host-clock expects real, mock, or mock:STEP_NS (got {v:?})");
                std::process::exit(2);
            }
        },
    }
}

/// Finishes the thread's host profiler, attaches the throughput
/// gauges, and writes the `mesa.hostprofile/v1` JSON plus the
/// folded-stack file (`<path>.folded`).
fn write_host_profile(path: &str) {
    let Some(mut profile) = host::take() else { return };
    host::disable();
    let episodes = host::episodes_total();
    let sim_cycles = host::sim_cycles_total();
    profile.gauges.insert("episodes".to_string(), episodes as f64);
    profile.gauges.insert("sim_cycles".to_string(), sim_cycles as f64);
    // Rates divide by profile wall time: deterministic under the mock
    // clock, real throughput under the real one. Non-finite values
    // export as JSON null via fmt_gauge.
    let wall = profile.wall_ns as f64;
    profile
        .gauges
        .insert("episodes_per_sec".to_string(), episodes as f64 * 1e9 / wall);
    profile
        .gauges
        .insert("sim_mcycles_per_sec".to_string(), sim_cycles as f64 * 1e3 / wall);
    profile
        .gauges
        .insert("sim_to_host_ratio".to_string(), sim_cycles as f64 / wall);
    let folded_path = format!("{path}.folded");
    std::fs::write(path, profile.to_json().to_string())
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    std::fs::write(&folded_path, profile.to_folded())
        .unwrap_or_else(|e| panic!("writing {folded_path}: {e}"));
    eprintln!("host: wrote host profile to {path} and folded stacks to {folded_path}");
}

fn set_jobs_arg(value: Option<&str>) {
    match value.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0) {
        Some(n) => bench::set_jobs(n),
        None => {
            eprintln!("--jobs expects a positive integer");
            std::process::exit(2);
        }
    }
}

fn capture_trace(path: &str, size: KernelSize, ff: bool) {
    let kernel = by_name("nn", size).expect("nn is registered");
    let mut tracer = RingTracer::new(1 << 16);
    let run = bench::mesa_offload_with(
        &kernel,
        &SystemConfig { fast_forward: ff, ..SystemConfig::m128() },
        bench::BASELINE_CORES,
        &RunOptions::default(),
        &mut tracer,
    );
    // Write the artifacts before printing anything long, so a closed
    // stdout pipe can't lose them.
    let jsonl_path = format!("{path}.jsonl");
    std::fs::write(path, tracer.to_chrome_trace())
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    std::fs::write(&jsonl_path, tracer.to_json_lines())
        .unwrap_or_else(|e| panic!("writing {jsonl_path}: {e}"));
    println!("== Trace: one nn offload episode on M-128 ==");
    println!("{}", tracer.timeline_summary());
    if let Some(report) = &run.report {
        println!("{report}\n");
    }
    println!(
        "wrote Chrome trace to {path} (open in Perfetto or chrome://tracing) and event log to {jsonl_path}\n"
    );
}

fn capture_profile(path: &str, size: KernelSize, ff: bool) {
    let kernel = by_name("nn", size).expect("nn is registered");
    let system = SystemConfig { fast_forward: ff, ..SystemConfig::m128() };
    let (_, profile) = bench::mesa_profile(&kernel, &system, bench::BASELINE_CORES);
    std::fs::write(path, profile.to_json().to_lines())
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("== Profile: one nn offload episode on M-128 ==");
    println!("{}", profile.render());
    println!("wrote profile report to {path}\n");
}

fn print_crossover(size: KernelSize, ff: bool) {
    let (rows, [mesa_wins, dora_wins]) = bench::crossover(size, ff);
    println!("== Extra: config-time vs optimization trade-off (nn, total cycles) ==");
    println!("{:>10} {:>14} {:>14} {:>14}", "iters", "DynaSpAM", "MESA", "DORA");
    for r in rows {
        println!(
            "{:>10} {:>14} {:>14} {:>14}",
            r.iterations, r.dynaspam, r.mesa, r.dora
        );
    }
    println!("MESA overtakes DynaSpAM at ~{mesa_wins} iterations; DORA overtakes MESA at ~{dora_wins}.");
    println!("(paper Table 2: MESA is the middle ground between ns-config/limited-opt and ms-config/full-opt)\n");
}

fn print_table1() {
    println!("== Table 1: hardware area and power breakdown (published synthesis) ==");
    println!("{:<34} {:>14} {:>12}", "Component", "Area (um^2)", "Power (mW)");
    for row in bench::table1() {
        let name = format!("{}{}", "- ".repeat(row.indent), row.component);
        println!("{name:<34} {:>14.1} {:>12.3}", row.area_um2, row.power_mw);
    }
    println!(
        "MESA adds {:.1}% of a core's area per core; accel area model: {:.2} mm2 (M-64) / {:.2} mm2 (M-128) / {:.2} mm2 (M-512)\n",
        mesa_power::per_core_overhead_fraction() * 100.0,
        mesa_power::accel_area_mm2(64),
        mesa_power::accel_area_mm2(128),
        mesa_power::accel_area_mm2(512),
    );
}

fn print_fig11(size: KernelSize, ff: bool) {
    println!("== Fig. 11: performance & energy efficiency vs 16-core baseline ==");
    println!(
        "{:<14} {:>9} {:>9} {:>11} {:>11} {:>7}",
        "benchmark", "perf M128", "perf M512", "energy M128", "energy M512", "reject"
    );
    let (rows, means) = bench::fig11(size, ff);
    for r in &rows {
        println!(
            "{:<14} {:>8.2}x {:>8.2}x {:>10.2}x {:>10.2}x {:>7}",
            r.name,
            r.speedup_m128,
            r.speedup_m512,
            r.energy_m128,
            r.energy_m512,
            bench::reject_tag(r.reject.as_deref()),
        );
    }
    println!(
        "{:<14} {:>8.2}x {:>8.2}x {:>10.2}x {:>10.2}x   (paper: 1.33x / 1.81x / 1.86x / 1.92x)",
        "MEAN", means[0], means[1], means[2], means[3]
    );
    let declined: Vec<&bench::Fig11Row> = rows.iter().filter(|r| r.reject.is_some()).collect();
    println!("offloaded {}/{} kernels on M-128; declined:", rows.len() - declined.len(), rows.len());
    for r in &declined {
        println!("  {:<14} {}", r.name, r.reject.as_deref().unwrap_or(""));
    }
    println!();
}

fn print_fig12(size: KernelSize, ff: bool) {
    println!("== Fig. 12: per-iteration IPC vs OpenCGRA (M-128-class fabric) ==");
    println!(
        "{:<14} {:>7} {:>12} {:>12} {:>12}",
        "benchmark", "instrs", "MESA no-opt", "OpenCGRA", "MESA +opt"
    );
    for r in bench::fig12(size, ff) {
        println!(
            "{:<14} {:>7} {:>12.2} {:>12.2} {:>12.2}",
            r.name, r.loop_instrs, r.mesa_noopt_ipc, r.opencgra_ipc, r.mesa_opt_ipc
        );
    }
    println!("(paper: scheduling-only MESA falls slightly behind; MESA with optimizations wins)\n");
}

fn print_fig13(size: KernelSize, ff: bool) {
    let rep = bench::fig13(size, ff);
    println!("== Fig. 13: component breakdown (avg of {:?}) ==", rep.kernels);
    println!("area (mm^2):");
    for (name, mm2) in &rep.area {
        println!("  {name:<22} {mm2:>8.2}");
    }
    let [c, m, i, ctl] = rep.energy_fractions;
    println!(
        "energy fractions: compute {:.0}%  memory {:.0}%  interconnect {:.0}%  control {:.0}%",
        c * 100.0,
        m * 100.0,
        i * 100.0,
        ctl * 100.0
    );
    println!(
        "memory+compute = {:.0}%   (paper: ~87% on memory or computation, small control share)\n",
        (c + m) * 100.0
    );
}

fn print_fig14(size: KernelSize, ff: bool) {
    println!("== Fig. 14: M-64 vs single core vs DynaSpAM ==");
    println!(
        "{:<14} {:>10} {:>10} {:>14} {:>10}",
        "benchmark", "DynaSpAM", "M-64", "M-64+reconfig", "qualified"
    );
    let (rows, means) = bench::fig14(size, ff);
    for r in &rows {
        println!(
            "{:<14} {:>9.2}x {:>9.2}x {:>13.2}x {:>10}",
            r.name,
            r.dynaspam,
            r.mesa64,
            r.mesa64_reconfig,
            if r.mesa_qualified { "yes" } else { "no" }
        );
    }
    println!(
        "{:<14} {:>9.2}x {:>9.2}x {:>13.2}x   (paper: 1.42x / 1.86x / 2.01x)\n",
        "GEOMEAN", means[0], means[1], means[2]
    );
}

fn print_fig15(size: KernelSize, ff: bool) {
    println!("== Fig. 15: PE scaling on nn (speedup over 16 PEs) ==");
    println!("{:>5} {:>10} {:>12} {:>8}", "PEs", "default", "ideal mem", "ideal");
    for r in bench::fig15(size, ff) {
        println!(
            "{:>5} {:>9.2}x {:>11.2}x {:>7.2}x",
            r.pes, r.speedup, r.speedup_ideal_mem, r.ideal
        );
    }
    println!("(paper: near-perfect scaling until memory bottlenecks beyond 128 PEs)\n");
}

fn print_fig16(size: KernelSize, ff: bool) {
    let (series, break_even) = bench::fig16(size, ff);
    println!("== Fig. 16: energy per iteration (nJ) vs iterations elapsed (nn) ==");
    println!("{:>10} {:>14}", "iters", "nJ/iteration");
    for (k, nj) in &series {
        println!("{k:>10} {nj:>14.2}");
    }
    println!("break-even at ~{break_even} iterations (paper: around 70)\n");
}

fn print_table2(size: KernelSize) {
    println!("== Table 2: configuration latency by approach ==");
    println!("{:<10} {:<40} {:<12} optimizations", "work", "config latency", "targets");
    for r in bench::table2(size) {
        println!(
            "{:<10} {:<40} {:<12} {}",
            r.work, r.config_latency, r.targets, r.optimizations
        );
    }
    println!();
}
