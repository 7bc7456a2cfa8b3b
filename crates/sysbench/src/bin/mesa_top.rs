//! `mesa-top` — live text dashboard for the virtualized fabric.
//!
//! Derives a deterministic multi-tenant workload mix from a seed (the
//! same `tenant_jobs` derivation the soak loop uses), drives the shared
//! fabric one scheduler round at a time through `FleetDriver`, and
//! renders a frame between rounds: the aligned-band ownership map, a
//! per-tenant table (state, band, cycles, iterations, slices,
//! migrations, queue wait, checkpoint cost), rolling throughput, and the
//! fleet latency histogram summaries.
//!
//! Output is deterministic plain text by default, so frames can be
//! captured and diffed; `--ansi` redraws in place for a live view.
//!
//! `--host-clock real|mock[:STEP_NS]` attaches a host clock to the
//! fleet driver and adds one host line per frame: wall-clock
//! episodes/sec plus the rolling sim-to-host throughput between frames.
//! `mock` keeps the dashboard byte-deterministic; the default (`off`)
//! leaves the classic output untouched.
//!
//! Usage:
//!   mesa-top [--tenants K] [--seed S] [--migrate-every M]
//!            [--every R] [--frames N] [--ansi]
//!            [--host-clock real|mock[:STEP_NS]]

use mesa_bench::cli::{self, CliError};
use mesa_bench::kernelgen::tenant_jobs;
use mesa_core::{FleetDriver, FleetStats, HostStats, SystemConfig, TenantStats};
use mesa_trace::host::{self, fmt_gauge, MockClock, RealClock};
use mesa_trace::NullTracer;
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: mesa-top [--tenants K] [--seed S] [--migrate-every M] \
         [--every R] [--frames N] [--ansi] [--host-clock real|mock[:STEP_NS]]"
    );
}

/// Band ownership map: one cell per aligned band slot, labelled with the
/// owning tenant id or `--` when idle.
fn band_map(stats: &FleetStats) -> String {
    let mut map = String::new();
    let align = mesa_accel::REGION_ROW_ALIGN;
    for slot in 0..stats.bands {
        let owner = stats.tenants.iter().find(|t| {
            t.state == "running"
                && t.band.is_some_and(|(first_row, rows)| {
                    slot >= first_row / align && slot < (first_row + rows).div_ceil(align)
                })
        });
        match owner {
            Some(t) => {
                let _ = write!(map, "[T{}]", t.tenant);
            }
            None => map.push_str("[--]"),
        }
    }
    map
}

fn tenant_row(t: &TenantStats, name: &str) -> String {
    let band = match t.band {
        Some((first_row, rows)) => format!("r{first_row:02}+{rows}"),
        None => "-".to_string(),
    };
    format!(
        "  T{:<3} {:<10} {:<8} {:<7} {:>9} {:>7} {:>6} {:>5} {:>6} {:>6}",
        t.tenant,
        name,
        t.state,
        band,
        t.cycles,
        t.iterations,
        t.slices,
        t.migrations,
        t.queue_wait_cycles,
        t.checkpoint_cycles
    )
}

/// One compact host-telemetry line: total wall-clock episode rate plus
/// the rolling sim-to-host throughput since the previous frame. Kept on
/// a single short line so `--ansi` redraws stay stable at narrow
/// terminal widths.
fn host_line(h: &HostStats, prev: Option<&HostStats>) -> String {
    let (d_cycles, d_ns) = match prev {
        Some(p) => (
            h.sim_cycles.saturating_sub(p.sim_cycles),
            h.elapsed_ns.saturating_sub(p.elapsed_ns),
        ),
        None => (h.sim_cycles, h.elapsed_ns),
    };
    // A zero-width window (two frames inside one clock tick, or a mock
    // clock that hasn't stepped) has no defined rate: render `-` instead
    // of dividing by zero.
    let rolling = match host::rate_per_sec(d_cycles, d_ns) {
        Some(rate) => fmt_gauge(rate / 1e6),
        None => "-".to_string(),
    };
    format!(
        "host: {:.1}ms {} eps/s {} Mcyc/s (rolling {rolling})",
        h.elapsed_ns as f64 / 1e6,
        h.episodes_per_sec().map_or_else(|| "-".to_string(), fmt_gauge),
        h.sim_mcycles_per_sec().map_or_else(|| "-".to_string(), fmt_gauge),
    )
}

fn render_frame(
    frame: u64,
    round: u64,
    stats: &FleetStats,
    names: &[Option<&str>],
    last_elapsed: u64,
    remaining: usize,
    ansi: bool,
) {
    if ansi {
        // Clear screen + home; keeps the dashboard in place like top(1).
        print!("\x1b[2J\x1b[H");
    }
    let live = stats.tenants.iter().filter(|t| t.state != "done").count();
    println!(
        "mesa-top — frame {frame}, round {round}: fleet clock {} cycles, \
         {live} live / {} tenant(s), {remaining} unfinished",
        stats.elapsed_cycles,
        stats.tenants.len()
    );
    println!("bands: {}", band_map(stats));
    println!(
        "  {:<4} {:<10} {:<8} {:<7} {:>9} {:>7} {:>6} {:>5} {:>6} {:>6}",
        "id", "workload", "state", "band", "cycles", "iters", "slices", "migr", "qwait", "ckpt"
    );
    for t in &stats.tenants {
        println!("{}", tenant_row(t, names.get(t.tenant as usize).copied().flatten().unwrap_or("?")));
    }
    println!(
        "throughput: {} cycles this frame ({} total); admissions \
         full={} shrunk={} queued={} declined={}; migrations={}",
        stats.elapsed_cycles - last_elapsed,
        stats.elapsed_cycles,
        stats.admitted_full,
        stats.admitted_shrunk,
        stats.queued,
        stats.declined,
        stats.migrations
    );
    println!("  queue_wait_cycles: {}", stats.queue_wait.render());
    println!("  slice_cycles:      {}", stats.slice_cycles.render());
    println!("  migration_cycles:  {}", stats.migration_cycles.render());
}

struct Options {
    tenants: usize,
    seed: u64,
    migrate_every: u64,
    every: u64,
    frames: u64,
    ansi: bool,
    host_clock: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        tenants: 4,
        seed: 1,
        migrate_every: 3,
        every: 1,
        frames: u64::MAX,
        ansi: false,
        host_clock: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--tenants" => {
                opts.tenants =
                    cli::parse_nonzero_usize(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--seed" => {
                opts.seed = cli::parse_u64(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--migrate-every" => {
                opts.migrate_every =
                    cli::parse_u64(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--every" => {
                opts.every =
                    cli::parse_nonzero_u64(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--frames" => {
                opts.frames = cli::parse_u64(flag, cli::take_value(flag, args, &mut i)?)?;
            }
            "--ansi" => opts.ansi = true,
            "--host-clock" => {
                let v = cli::take_value(flag, args, &mut i)?;
                match v {
                    "off" | "real" | "mock" => {}
                    other => {
                        if other
                            .strip_prefix("mock:")
                            .is_none_or(|s| s.trim().parse::<u64>().is_err())
                        {
                            return Err(CliError {
                                flag: flag.to_string(),
                                value: Some(v.to_string()),
                                reason: "expected off, real, or mock[:STEP_NS]".to_string(),
                            });
                        }
                    }
                }
                opts.host_clock = Some(v.to_string());
            }
            other => {
                return Err(CliError {
                    flag: other.to_string(),
                    value: None,
                    reason: "unknown flag".to_string(),
                })
            }
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options { tenants, seed, migrate_every, every, frames, ansi, host_clock } =
        match parse_args(&args) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("mesa-top: {e}");
                usage();
                return ExitCode::from(2);
            }
        };

    let system = SystemConfig::m128();
    let (quantum, named) = tenant_jobs(seed, tenants);
    let job_names: Vec<&str> = named.iter().map(|(n, _)| *n).collect();
    let mut jobs: Vec<_> = named.into_iter().map(|(_, j)| j).collect();
    let mut tracer = NullTracer;
    let mut driver =
        FleetDriver::new(&system, &mut jobs, quantum, migrate_every, None, &mut tracer);
    match host_clock.as_deref() {
        None | Some("off") => {}
        Some("real") => driver.set_host_clock(Box::new(RealClock::new())),
        Some("mock") => driver.set_host_clock(Box::new(MockClock::new(1_000_000))),
        Some(v) => {
            // parse_args validated the spelling; anything else is mock:STEP.
            if let Some(step_ns) =
                v.strip_prefix("mock:").and_then(|s| s.trim().parse::<u64>().ok())
            {
                driver.set_host_clock(Box::new(MockClock::new(step_ns)));
            }
        }
    }
    // Tenant ids skip over prepare-stage declines; index names by tenant.
    let names: Vec<Option<&str>> = (0..job_names.len())
        .map(|id| driver.job_of_tenant(id as u32).map(|j| job_names[j]))
        .collect();

    let mut frame = 0u64;
    let mut round = 0u64;
    let mut last_elapsed = 0u64;
    let mut last_host: Option<HostStats> = None;
    loop {
        let stats = driver.fleet_stats();
        render_frame(frame, round, &stats, &names, last_elapsed, driver.remaining(), ansi);
        if let Some(h) = &stats.host {
            println!("{}", host_line(h, last_host.as_ref()));
            last_host = Some(*h);
        }
        last_elapsed = stats.elapsed_cycles;
        frame += 1;
        if frame >= frames || driver.remaining() == 0 {
            break;
        }
        for _ in 0..every {
            round += 1;
            if !driver.step(&mut tracer) {
                break;
            }
        }
    }

    let run = driver.into_run();
    let failures = run.outcomes.iter().filter(|o| o.is_err()).count();
    println!(
        "mesa-top: {} tenant(s) finished, {failures} declined, \
         {} fleet cycles, {} migration(s)",
        run.stats.tenants.len(),
        run.stats.elapsed_cycles,
        run.stats.migrations
    );
    if let Some(dump) = &run.post_mortem {
        println!("post-mortem: {dump}");
    }
    ExitCode::SUCCESS
}
