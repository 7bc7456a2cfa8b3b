//! Bottleneck profiler: run one kernel through the full MESA system and
//! emit the unified attribution report — top-down cycle accounting for
//! the CPU phases, the per-PE spatial heatmap, the measured critical
//! path, and the controller's re-optimization rounds.
//!
//! Usage: `cargo run --release -p mesa-bench --bin profile -- [kernel]
//! [tiny|small|large] [--out <path>] [--fast-forward]`
//!
//! Prints the human summary on stdout and writes the JSON report to
//! `<path>` (default `mesa_profile.json`). Declined kernels produce a
//! minimal report carrying the C1–C3 reject reason.

use mesa_bench as bench;
use mesa_core::SystemConfig;
use mesa_workloads::{by_name, KernelSize};

fn main() {
    let mut out = String::from("mesa_profile.json");
    let mut rest: Vec<String> = Vec::new();
    let (fast_forward, args) = bench::cli::fast_forward_args();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--out" {
            out = args.next().expect("--out needs a path");
        } else if let Some(p) = a.strip_prefix("--out=") {
            out = p.to_string();
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
    let kernel = by_name(name, size)
        .unwrap_or_else(|| panic!("unknown kernel {name}; see `figures` for the suite"));

    let system = SystemConfig { fast_forward, ..SystemConfig::m128() };
    let (_, profile) = bench::mesa_profile(&kernel, &system, bench::BASELINE_CORES);

    // The report's invariants are cheap to check and catastrophic to
    // ship broken — fail loudly here rather than in a consumer.
    assert!(profile.topdown.sums_to_total(), "top-down buckets must sum to total cycles");
    assert!(profile.spatial_matches_activity(), "heatmap totals must match ActivityStats");

    std::fs::write(&out, profile.to_json().to_lines())
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("{}", profile.render());
    println!("wrote profile report to {out}");
}
