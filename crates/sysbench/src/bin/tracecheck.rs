//! CI-facing trace and benchmark validators.
//!
//! Two subcommands, both exiting non-zero with a diagnostic on failure:
//!
//! * `tracecheck chrome <path>` — parses `<path>` as a Chrome trace-event
//!   file (full JSON syntax check, no external parser), requires it to be
//!   non-empty with balanced span begin/end events, and requires the
//!   controller-phase spans `detect`, `translate`, `map`, `configure`, and
//!   `offload` to be present. Both `chrome` and `profile` also reject any
//!   non-finite numeric value (`NaN`/`inf`) so a missed ratio guard can
//!   never leak into a committed artifact. Used by `scripts/ci.sh` as the
//!   trace smoke test.
//! * `tracecheck benchgate <bench.json> <name_a> <name_b> <max_ratio>` —
//!   reads the JSON-lines microbench report written by the `components`
//!   bench and asserts `median_ns(name_a) <= median_ns(name_b) *
//!   max_ratio`. Used to gate the `NullTracer` overhead against the
//!   untraced engine path.
//! * `tracecheck benchdiff <new.json> <baseline.json> <max_ratio>
//!   [name...]` — compares a freshly produced microbench report against a
//!   committed baseline and fails when any compared benchmark's median
//!   regressed by more than `max_ratio` (e.g. `1.15` = 15% slower).
//!   Benchmarks to compare may be listed explicitly; with none listed,
//!   every benchmark present in the *baseline* is compared (a benchmark
//!   missing from the new report is a failure; extra new benchmarks are
//!   ignored so adding benches never breaks old baselines). Used by
//!   `scripts/bench_diff.sh` as the perf-regression gate.
//! * `tracecheck profile <report.json>` — parses `<path>` as the unified
//!   profile report the `profile` binary writes (full JSON syntax check),
//!   requires the top-down buckets to sum exactly to the total CPU-phase
//!   cycles, and, for an accepted offload (`"reject": null`), requires a
//!   non-empty heatmap (`fires_total > 0`). The CPU-speed sections are
//!   validated too: the four per-idiom fusion counters must sum to
//!   `fused_pairs`, every fused pair must account for two retired
//!   instructions (`2 × fused_pairs ≤ retired`), and the fast-forward
//!   split must tile the retired count exactly
//!   (`ff_instrs + simulated_instrs == retired`). Used by `scripts/ci.sh`
//!   as the profile smoke test.
//! * `tracecheck figdiff <a.txt> <b.txt> <max_rel_err>` — compares the
//!   `MEAN` speedup/energy rows of two captured `figures` fig11 outputs
//!   column by column and fails when any column's relative difference
//!   exceeds `max_rel_err` (`b` is the reference). Used by `scripts/ci.sh`
//!   to check that a `figures --fast-forward` run reproduces the default
//!   run's speedup table within the fast-forward model's error bound.
//! * `tracecheck fleetstats <stats.json>` — validates a
//!   `"schema":"mesa.fleetstats/v1"` export (from `soak --fleetstats` or
//!   `FleetStats::to_json`): full JSON syntax check, exact occupancy
//!   conservation (`Σ band_busy + Σ band_idle == elapsed_cycles × bands`),
//!   quantile monotonicity (`min ≤ p50 ≤ p90 ≤ p99 ≤ max`) for every
//!   latency histogram, and `migrations == migration_cycles.count`.
//! * `tracecheck postmortem <dump.json>` — validates a flight-recorder
//!   post-mortem (`"schema":"mesa.flight/v1"`): full JSON syntax check, a
//!   non-empty reason, and at least one recorded event.
//! * `tracecheck hostprofile <host.json> [stacks.folded]` — validates a
//!   `"schema":"mesa.hostprofile/v1"` export (from `figures
//!   --host-profile`): full JSON syntax + finiteness check, **exact**
//!   wall-time conservation at every level of the span tree
//!   (`self_ns + Σ children.total_ns == total_ns`, roots sum to the
//!   profile total), `dur.count == calls` per span, and allocator-counter
//!   sanity (`peak ≥ current`, `total ≥ current`). With the optional
//!   folded-stack file: every line must match a span's `self_ns` and the
//!   lines must sum exactly to the profile total.

use mesa_trace::{validate_chrome_trace, validate_json};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("chrome") => check_chrome(args.get(1).map_or("", String::as_str)),
        Some("benchgate") => check_benchgate(&args[1..]),
        Some("benchdiff") => check_benchdiff(&args[1..]),
        Some("profile") => check_profile(args.get(1).map_or("", String::as_str)),
        Some("figdiff") => check_figdiff(&args[1..]),
        Some("fleetstats") => check_fleetstats(args.get(1).map_or("", String::as_str)),
        Some("postmortem") => check_postmortem(args.get(1).map_or("", String::as_str)),
        Some("hostprofile") => check_hostprofile(&args[1..]),
        _ => Err(
            "usage: tracecheck chrome <trace.json>\n\
             \x20      tracecheck benchgate <bench.json> <name_a> <name_b> <max_ratio>\n\
             \x20      tracecheck benchdiff <new.json> <baseline.json> <max_ratio> [name...]\n\
             \x20      tracecheck profile <report.json>\n\
             \x20      tracecheck figdiff <a.txt> <b.txt> <max_rel_err>\n\
             \x20      tracecheck fleetstats <stats.json>\n\
             \x20      tracecheck postmortem <dump.json>\n\
             \x20      tracecheck hostprofile <host.json> [stacks.folded]"
                .to_string(),
        ),
    };
    match result {
        Ok(msg) => {
            println!("tracecheck: {msg}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("tracecheck: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Controller-phase spans every successful offload trace must contain.
const REQUIRED_SPANS: [&str; 5] = ["detect", "translate", "map", "configure", "offload"];

fn check_chrome(path: &str) -> Result<String, String> {
    if path.is_empty() {
        return Err("chrome: missing <trace.json> path".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    check_finite(path, &text)?;
    let summary = validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    for name in REQUIRED_SPANS {
        if !summary.span_names.iter().any(|n| n == name) {
            return Err(format!(
                "{path}: required span {name:?} missing (spans present: {:?})",
                summary.span_names
            ));
        }
    }
    Ok(format!(
        "{path}: well-formed Chrome trace, {} events ({} spans: {:?})",
        summary.events,
        summary.begins,
        summary.span_names
    ))
}

fn check_benchgate(args: &[String]) -> Result<String, String> {
    let [bench, name_a, name_b, max_ratio] = args else {
        return Err("benchgate: expected <bench.json> <name_a> <name_b> <max_ratio>".into());
    };
    let max_ratio: f64 = max_ratio
        .parse()
        .map_err(|e| format!("benchgate: bad max_ratio {max_ratio:?}: {e}"))?;
    let text = std::fs::read_to_string(bench).map_err(|e| format!("reading {bench}: {e}"))?;
    let a = median_ns(&text, name_a).ok_or_else(|| format!("{bench}: no entry {name_a:?}"))?;
    let b = median_ns(&text, name_b).ok_or_else(|| format!("{bench}: no entry {name_b:?}"))?;
    let ratio = a / b.max(f64::MIN_POSITIVE);
    if ratio <= max_ratio {
        Ok(format!(
            "{name_a} = {a:.0} ns vs {name_b} = {b:.0} ns: ratio {ratio:.3} <= {max_ratio}"
        ))
    } else {
        Err(format!(
            "{name_a} = {a:.0} ns vs {name_b} = {b:.0} ns: ratio {ratio:.3} exceeds {max_ratio}"
        ))
    }
}

fn check_benchdiff(args: &[String]) -> Result<String, String> {
    let [new_path, base_path, max_ratio, names @ ..] = args else {
        return Err(
            "benchdiff: expected <new.json> <baseline.json> <max_ratio> [name...]".into(),
        );
    };
    let max_ratio: f64 = max_ratio
        .parse()
        .map_err(|e| format!("benchdiff: bad max_ratio {max_ratio:?}: {e}"))?;
    let new_text =
        std::fs::read_to_string(new_path).map_err(|e| format!("reading {new_path}: {e}"))?;
    let base_text =
        std::fs::read_to_string(base_path).map_err(|e| format!("reading {base_path}: {e}"))?;

    let compare: Vec<String> = if names.is_empty() {
        bench_names(&base_text)
    } else {
        names.to_vec()
    };
    if compare.is_empty() {
        return Err(format!("{base_path}: baseline contains no benchmarks"));
    }

    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for name in &compare {
        let base = median_ns(&base_text, name)
            .ok_or_else(|| format!("{base_path}: no entry {name:?}"))?;
        let new = median_ns(&new_text, name)
            .ok_or_else(|| format!("{new_path}: no entry {name:?} (benchmark removed?)"))?;
        let ratio = new / base.max(f64::MIN_POSITIVE);
        // Sim throughput is informational: cycle-reporting benches carry
        // it, plain ones don't, and old baselines may predate the field.
        let sim = match (
            bench_field_f64(&base_text, name, "sim_mcycles_per_sec"),
            bench_field_f64(&new_text, name, "sim_mcycles_per_sec"),
        ) {
            (Some(b), Some(n)) => format!(" [sim {b:.1} -> {n:.1} Mcyc/s]"),
            _ => String::new(),
        };
        lines.push(format!("  {name}: {base:.1} -> {new:.1} ns ({ratio:.3}x){sim}"));
        if ratio > max_ratio {
            regressions.push(format!(
                "{name}: {base:.1} -> {new:.1} ns ({ratio:.3}x > {max_ratio}x)"
            ));
        }
    }
    println!("tracecheck: benchdiff {new_path} vs {base_path}:");
    for line in &lines {
        println!("{line}");
    }
    if regressions.is_empty() {
        Ok(format!(
            "{} benchmark(s) within {max_ratio}x of the baseline",
            compare.len()
        ))
    } else {
        Err(format!("median regression(s): {}", regressions.join("; ")))
    }
}

fn check_profile(path: &str) -> Result<String, String> {
    if path.is_empty() {
        return Err("profile: missing <report.json> path".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    check_finite(path, &text)?;
    validate_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let compact: String = text.split_whitespace().collect();

    // Conservation: the four top-down buckets tile the CPU-phase cycles.
    // `total_cycles` appears only inside the report's `topdown` object.
    let field = |key: &str| -> Result<u64, String> {
        field_u64(&compact, key).ok_or_else(|| format!("{path}: no field {key:?}"))
    };
    let total = field("total_cycles")?;
    let buckets = ["retiring", "frontend_bound", "backend_core_bound", "memory_bound"];
    let sum: u64 = buckets.iter().map(|k| field(k)).sum::<Result<u64, _>>()?;
    if sum != total {
        return Err(format!(
            "{path}: top-down buckets sum to {sum}, expected total_cycles = {total}"
        ));
    }

    // An accepted offload must leave a non-empty heatmap behind.
    let accepted = compact.contains("\"reject\":null");
    if accepted && field("fires_total")? == 0 {
        return Err(format!("{path}: accepted offload but the heatmap recorded zero fires"));
    }

    // Fusion accounting: the per-idiom counters must tile `fused_pairs`,
    // and each fused pair stands for exactly two retired instructions.
    // The section's field order (fused_pairs, per-idiom counters, retired)
    // is part of the schema, so first-occurrence extraction on the
    // sub-object works.
    let fusion_pos = compact
        .find("\"fusion\":{")
        .ok_or_else(|| format!("{path}: no \"fusion\" section"))?;
    let fusion_sub = &compact[fusion_pos..];
    let ffield = |key: &str| -> Result<u64, String> {
        field_u64(fusion_sub, key)
            .ok_or_else(|| format!("{path}: fusion section has no field {key:?}"))
    };
    let fused_pairs = ffield("fused_pairs")?;
    let by_kind = ["cmp_branch", "addr_load", "addr_store", "alu_alu"];
    let kind_sum: u64 = by_kind.iter().map(|k| ffield(k)).sum::<Result<u64, _>>()?;
    if kind_sum != fused_pairs {
        return Err(format!(
            "{path}: per-idiom fusion counters sum to {kind_sum}, \
             expected fused_pairs = {fused_pairs}"
        ));
    }
    let retired = ffield("retired")?;
    if 2 * fused_pairs > retired {
        return Err(format!(
            "{path}: {fused_pairs} fused pair(s) account for {} instruction(s) \
             but only {retired} retired",
            2 * fused_pairs
        ));
    }

    // Fast-forward accounting: fast-forwarded and fully simulated
    // instructions must tile the retired count exactly.
    let ff_pos = compact
        .find("\"fastfwd\":{")
        .ok_or_else(|| format!("{path}: no \"fastfwd\" section"))?;
    let ff_sub = &compact[ff_pos..];
    let xfield = |key: &str| -> Result<u64, String> {
        field_u64(ff_sub, key)
            .ok_or_else(|| format!("{path}: fastfwd section has no field {key:?}"))
    };
    let (ff, simulated) = (xfield("ff_instrs")?, xfield("simulated_instrs")?);
    if ff + simulated != retired {
        return Err(format!(
            "{path}: fast-forward split not conserved: ff_instrs={ff} + \
             simulated_instrs={simulated} != retired = {retired}"
        ));
    }

    Ok(format!(
        "{path}: well-formed profile report, buckets sum to {total} cycles, \
         {fused_pairs} fused pair(s) + {ff} fast-forwarded instr(s) conserved, {}",
        if accepted { "offload accepted" } else { "offload declined" }
    ))
}

/// Parses the fig11 `MEAN` row of a captured `figures` output: the four
/// `<f64>x` columns (speedup M-128/M-512, energy M-128/M-512) before the
/// `(paper: ...)` annotation. `None` when no such row exists.
fn mean_row(text: &str) -> Option<Vec<f64>> {
    for line in text.lines() {
        let mut toks = line.split_whitespace();
        if toks.next() != Some("MEAN") {
            continue;
        }
        let vals: Vec<f64> = toks
            .take_while(|t| !t.starts_with('('))
            .filter_map(|t| t.strip_suffix('x')?.parse().ok())
            .collect();
        if !vals.is_empty() {
            return Some(vals);
        }
    }
    None
}

fn check_figdiff(args: &[String]) -> Result<String, String> {
    let [a_path, b_path, max_err] = args else {
        return Err("figdiff: expected <a.txt> <b.txt> <max_rel_err>".into());
    };
    let max_err: f64 = max_err
        .parse()
        .map_err(|e| format!("figdiff: bad max_rel_err {max_err:?}: {e}"))?;
    let a_text = std::fs::read_to_string(a_path).map_err(|e| format!("reading {a_path}: {e}"))?;
    let b_text = std::fs::read_to_string(b_path).map_err(|e| format!("reading {b_path}: {e}"))?;
    let a = mean_row(&a_text).ok_or_else(|| format!("{a_path}: no fig11 MEAN row"))?;
    let b = mean_row(&b_text).ok_or_else(|| format!("{b_path}: no fig11 MEAN row"))?;
    if a.len() != b.len() {
        return Err(format!(
            "MEAN rows have {} vs {} column(s) ({a_path} vs {b_path})",
            a.len(),
            b.len()
        ));
    }
    let mut worst = 0.0f64;
    for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
        let rel = (x - y).abs() / y.abs().max(f64::MIN_POSITIVE);
        if rel > max_err {
            return Err(format!(
                "MEAN column {i}: {x:.3} vs {y:.3} differ by {:.1}% \
                 (> {:.1}% allowed)",
                rel * 100.0,
                max_err * 100.0
            ));
        }
        worst = worst.max(rel);
    }
    Ok(format!(
        "{a_path} vs {b_path}: {} MEAN column(s) agree within {:.1}% \
         (worst {:.1}%)",
        a.len(),
        max_err * 100.0,
        worst * 100.0
    ))
}

/// Latency histograms every fleetstats export must carry, in schema order.
const FLEET_HISTOGRAMS: [&str; 3] = ["queue_wait_cycles", "slice_cycles", "migration_cycles"];

fn check_fleetstats(path: &str) -> Result<String, String> {
    if path.is_empty() {
        return Err("fleetstats: missing <stats.json> path".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    check_finite(path, &text)?;
    validate_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let compact: String = text.split_whitespace().collect();
    if !compact.contains("\"schema\":\"mesa.fleetstats/v1\"") {
        return Err(format!("{path}: missing \"schema\":\"mesa.fleetstats/v1\" marker"));
    }

    let field = |key: &str| -> Result<u64, String> {
        field_u64(&compact, key).ok_or_else(|| format!("{path}: no field {key:?}"))
    };
    let elapsed = field("elapsed_cycles")?;
    let bands = field("bands")? as usize;
    let busy = field_u64_array(&compact, "band_busy")
        .ok_or_else(|| format!("{path}: no array \"band_busy\""))?;
    let idle = field_u64_array(&compact, "band_idle")
        .ok_or_else(|| format!("{path}: no array \"band_idle\""))?;
    if busy.len() != bands || idle.len() != bands {
        return Err(format!(
            "{path}: band arrays have {}/{} slots, expected bands = {bands}",
            busy.len(),
            idle.len()
        ));
    }
    // Occupancy conservation: every elapsed fleet cycle is attributed to
    // every band slot as exactly one of busy or idle.
    let occupied: u128 = busy.iter().chain(&idle).map(|&v| u128::from(v)).sum();
    let expected = u128::from(elapsed) * bands as u128;
    if occupied != expected {
        return Err(format!(
            "{path}: occupancy not conserved: Σ busy + Σ idle = {occupied}, \
             expected elapsed_cycles × bands = {expected}"
        ));
    }

    // Quantile monotonicity for each latency histogram. The histogram's
    // JSON field order (count, sum, min, p50, p90, p99, max) is part of
    // the schema, so first-occurrence extraction on the sub-object works.
    for name in FLEET_HISTOGRAMS {
        let needle = format!("\"{name}\":{{");
        let Some(pos) = compact.find(&needle) else {
            return Err(format!("{path}: no histogram {name:?}"));
        };
        let sub = &compact[pos..];
        let hfield = |key: &str| -> Result<u64, String> {
            field_u64(sub, key)
                .ok_or_else(|| format!("{path}: histogram {name:?} has no field {key:?}"))
        };
        let (count, min) = (hfield("count")?, hfield("min")?);
        let (p50, p90) = (hfield("p50")?, hfield("p90")?);
        let (p99, max) = (hfield("p99")?, hfield("max")?);
        if count > 0 && !(min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
            return Err(format!(
                "{path}: histogram {name:?} quantiles not monotone: \
                 min={min} p50={p50} p90={p90} p99={p99} max={max}"
            ));
        }
        if name == "migration_cycles" {
            let migrations = field("migrations")?;
            if count != migrations {
                return Err(format!(
                    "{path}: migration_cycles has {count} sample(s) but the \
                     export reports {migrations} migration(s)"
                ));
            }
        }
    }
    Ok(format!(
        "{path}: valid fleetstats export — {} run(s), {bands} band(s), \
         {elapsed} fleet cycles conserved, {} histogram(s) monotone",
        field("runs")?,
        FLEET_HISTOGRAMS.len()
    ))
}

/// One span row extracted from a hostprofile export.
struct HostSpanRec {
    path: String,
    total_ns: u64,
    self_ns: u64,
    busy_ns: u64,
    calls: u64,
    dur_count: u64,
}

fn check_hostprofile(args: &[String]) -> Result<String, String> {
    let Some(path) = args.first() else {
        return Err("hostprofile: expected <host.json> [stacks.folded]".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    check_finite(path, &text)?;
    validate_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let compact: String = text.split_whitespace().collect();
    if !compact.contains("\"schema\":\"mesa.hostprofile/v1\"") {
        return Err(format!("{path}: missing \"schema\":\"mesa.hostprofile/v1\" marker"));
    }

    // The first `total_ns` occurrence is the profile-level total (it
    // precedes the spans array in the schema's field order).
    let total = field_u64(&compact, "total_ns")
        .ok_or_else(|| format!("{path}: no field \"total_ns\""))?;

    // Allocator-counter sanity on the top-level `alloc` object.
    let alloc_pos = compact
        .find("\"alloc\":{")
        .ok_or_else(|| format!("{path}: no \"alloc\" object"))?;
    let alloc_sub = &compact[alloc_pos..];
    let afield = |key: &str| -> Result<u64, String> {
        field_u64(alloc_sub, key)
            .ok_or_else(|| format!("{path}: alloc object has no field {key:?}"))
    };
    let (a_total, a_current, a_peak) =
        (afield("total_bytes")?, afield("current_bytes")?, afield("peak_bytes")?);
    if a_peak < a_current || a_total < a_current {
        return Err(format!(
            "{path}: inconsistent allocator counters: total_bytes={a_total} \
             current_bytes={a_current} peak_bytes={a_peak}"
        ));
    }

    // Spans: each element of the array begins with `{"path":"`, so
    // splitting on that marker yields one chunk per span whose fields
    // are first occurrences within the chunk.
    let mut spans: Vec<HostSpanRec> = Vec::new();
    for chunk in compact.split("{\"path\":\"").skip(1) {
        let (span_path, rest) = chunk
            .split_once('"')
            .ok_or_else(|| format!("{path}: unterminated span path"))?;
        let sfield = |key: &str| -> Result<u64, String> {
            field_u64(rest, key)
                .ok_or_else(|| format!("{path}: span {span_path:?} has no field {key:?}"))
        };
        spans.push(HostSpanRec {
            path: span_path.to_string(),
            total_ns: sfield("total_ns")?,
            self_ns: sfield("self_ns")?,
            busy_ns: sfield("busy_ns")?,
            calls: sfield("calls")?,
            // `dur` is the only sub-object in a span, so the chunk's
            // first `count` is the histogram's sample count.
            dur_count: sfield("count")?,
        });
    }

    // Exact conservation at every level: a span's children are exactly
    // the spans whose path extends it by one `;`-separated segment.
    let mut children_sum: std::collections::BTreeMap<&str, u64> =
        std::collections::BTreeMap::new();
    let mut roots_sum = 0u64;
    for s in &spans {
        match s.path.rsplit_once(';') {
            Some((parent, _)) => {
                *children_sum.entry(parent).or_insert(0) += s.total_ns;
            }
            None => roots_sum += s.total_ns,
        }
    }
    for s in &spans {
        let kids = children_sum.get(s.path.as_str()).copied().unwrap_or(0);
        if s.self_ns + kids != s.total_ns {
            return Err(format!(
                "{path}: span {:?} not conserved: self_ns={} + Σ children={} != total_ns={}",
                s.path, s.self_ns, kids, s.total_ns
            ));
        }
        if s.busy_ns > s.total_ns {
            return Err(format!(
                "{path}: span {:?} has busy_ns={} > total_ns={}",
                s.path, s.busy_ns, s.total_ns
            ));
        }
        if s.dur_count != s.calls {
            return Err(format!(
                "{path}: span {:?} histogram has {} sample(s) but calls={}",
                s.path, s.dur_count, s.calls
            ));
        }
    }
    if roots_sum != total {
        return Err(format!(
            "{path}: root spans sum to {roots_sum}, expected total_ns = {total}"
        ));
    }

    // Optional folded-stack file: every line matches a span's self time
    // and the lines tile the profile total exactly.
    let mut folded_note = String::new();
    if let Some(fpath) = args.get(1) {
        let ftext =
            std::fs::read_to_string(fpath).map_err(|e| format!("reading {fpath}: {e}"))?;
        let mut folded_sum = 0u64;
        let mut folded_lines = 0usize;
        for line in ftext.lines().filter(|l| !l.trim().is_empty()) {
            let (fp, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("{fpath}: malformed folded line {line:?}"))?;
            let value: u64 = value
                .parse()
                .map_err(|e| format!("{fpath}: bad count in folded line {line:?}: {e}"))?;
            let span = spans
                .iter()
                .find(|s| s.path == fp)
                .ok_or_else(|| format!("{fpath}: folded path {fp:?} not in {path}"))?;
            if span.self_ns != value {
                return Err(format!(
                    "{fpath}: folded {fp:?} = {value} but the profile says self_ns = {}",
                    span.self_ns
                ));
            }
            folded_sum += value;
            folded_lines += 1;
        }
        if folded_sum != total {
            return Err(format!(
                "{fpath}: folded stacks sum to {folded_sum}, expected total_ns = {total}"
            ));
        }
        folded_note = format!(", {folded_lines} folded line(s) tile the total");
    }
    Ok(format!(
        "{path}: valid host profile — {} span(s), {total} ns conserved at \
         every level{folded_note}",
        spans.len()
    ))
}

fn check_postmortem(path: &str) -> Result<String, String> {
    if path.is_empty() {
        return Err("postmortem: missing <dump.json> path".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    check_finite(path, &text)?;
    validate_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let compact: String = text.split_whitespace().collect();
    if !compact.contains("\"schema\":\"mesa.flight/v1\"") {
        return Err(format!("{path}: missing \"schema\":\"mesa.flight/v1\" marker"));
    }
    if compact.contains("\"reason\":\"\"") || !compact.contains("\"reason\":\"") {
        return Err(format!("{path}: post-mortem has no reason"));
    }
    let events = compact.matches("\"cycle\":").count();
    if events == 0 {
        return Err(format!("{path}: post-mortem recorded zero flight events"));
    }
    Ok(format!("{path}: valid flight post-mortem, {events} event(s)"))
}

/// Rejects non-finite numeric literals (`NaN`, `inf`, `-inf`) in value
/// position. JSON has no syntax for them, but Rust's float formatter emits
/// these tokens when an upstream ratio guard is missed — so their presence
/// in an exported artifact always marks a division-by-zero bug, and the
/// syntax validators alone would report it less precisely.
fn check_finite(path: &str, text: &str) -> Result<(), String> {
    let compact: String = text.split_whitespace().collect();
    for needle in
        [":NaN", ":inf", ":-inf", ",NaN", ",inf", ",-inf", "[NaN", "[inf", "[-inf"]
    {
        if compact.contains(needle) {
            return Err(format!(
                "{path}: non-finite numeric value ({}) in exported JSON",
                &needle[1..]
            ));
        }
    }
    Ok(())
}

/// Extracts the first `"key": <u64>` occurrence from compacted JSON.
fn field_u64(compact: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let (_, rest) = compact.split_once(&needle)?;
    let num: String = rest.chars().take_while(char::is_ascii_digit).collect();
    num.parse().ok()
}

/// Extracts the first `"key": [u64, ...]` array from compacted JSON.
fn field_u64_array(compact: &str, key: &str) -> Option<Vec<u64>> {
    let needle = format!("\"{key}\":[");
    let (_, rest) = compact.split_once(&needle)?;
    let (body, _) = rest.split_once(']')?;
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|n| n.parse().ok()).collect()
}

/// Lists every benchmark name in a JSON-lines report, in file order.
fn bench_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in text.lines() {
        let compact: String = line.split_whitespace().collect();
        if let Some((_, rest)) = compact.split_once("\"name\":\"") {
            if let Some((name, _)) = rest.split_once('"') {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// Extracts `median_ns` for the named benchmark from the JSON-lines report
/// the in-repo `mesa-test` BenchSuite writes (one object per line with
/// `"name"` and `"median_ns"` fields).
fn median_ns(text: &str, name: &str) -> Option<f64> {
    bench_field_f64(text, name, "median_ns")
}

/// Extracts any numeric field from the named benchmark's JSON line
/// (`None` when the benchmark or the field is absent).
fn bench_field_f64(text: &str, name: &str, key: &str) -> Option<f64> {
    let needle = format!("\"name\":\"{name}\"");
    let field = format!("\"{key}\":");
    for line in text.lines() {
        let compact: String = line.split_whitespace().collect();
        if !compact.contains(&needle) {
            continue;
        }
        let (_, rest) = compact.split_once(field.as_str())?;
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        return num.parse().ok();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finiteness_check_rejects_nan_and_inf_values() {
        assert!(check_finite("t", "{\"speedup\": 1.33, \"ipc\": [2.0, 3.5]}").is_ok());
        assert!(check_finite("t", "{\"name\": \"config\", \"info\": \"x\"}").is_ok());
        assert!(check_finite("t", "{\"speedup\": NaN}").is_err());
        assert!(check_finite("t", "{\"speedup\": inf}").is_err());
        assert!(check_finite("t", "{\"speedup\": -inf}").is_err());
        assert!(check_finite("t", "{\"ipc\": [1.0, inf]}").is_err());
        assert!(check_finite("t", "{\"ipc\": [NaN]}").is_err());
    }

    #[test]
    fn field_extraction_takes_first_occurrence() {
        let compact = "{\"total_cycles\":690,\"retiring\":49,\"nested\":{\"retiring\":1}}";
        assert_eq!(field_u64(compact, "total_cycles"), Some(690));
        assert_eq!(field_u64(compact, "retiring"), Some(49));
        assert_eq!(field_u64(compact, "missing"), None);
    }

    #[test]
    fn array_extraction_parses_u64_lists() {
        let compact = "{\"band_busy\":[1,2,3],\"band_idle\":[],\"x\":[9]}";
        assert_eq!(field_u64_array(compact, "band_busy"), Some(vec![1, 2, 3]));
        assert_eq!(field_u64_array(compact, "band_idle"), Some(Vec::new()));
        assert_eq!(field_u64_array(compact, "missing"), None);
        assert_eq!(field_u64_array("{\"a\":[1,x]}", "a"), None);
    }

    #[test]
    fn bench_names_lists_in_file_order() {
        let text = "{\"name\":\"a/b\",\"median_ns\":1}\n{ \"name\": \"c/d\", \"median_ns\": 2 }\nnot json\n";
        assert_eq!(bench_names(text), vec!["a/b".to_string(), "c/d".to_string()]);
        assert!(bench_names("").is_empty());
    }

    #[test]
    fn median_extraction_handles_spacing() {
        let text = "{ \"name\": \"a/b\", \"median_ns\": 125.5 }\n{\"name\":\"c\",\"median_ns\":3}\n";
        assert_eq!(median_ns(text, "a/b"), Some(125.5));
        assert_eq!(median_ns(text, "c"), Some(3.0));
        assert_eq!(median_ns(text, "missing"), None);
    }

    #[test]
    fn mean_row_parses_fig11_columns() {
        let text = "== Fig. 11 ==\n\
                    nn                 1.10x    1.50x      1.60x      1.70x\n\
                    MEAN               1.33x    1.81x      1.86x      1.92x   (paper: ...)\n";
        assert_eq!(mean_row(text), Some(vec![1.33, 1.81, 1.86, 1.92]));
        // GEOMEAN rows and outputs without a MEAN row don't match.
        assert_eq!(mean_row("GEOMEAN 1.42x 1.86x 2.01x   (paper: ...)\n"), None);
        assert_eq!(mean_row(""), None);
    }

    #[test]
    fn bench_field_extraction_reads_optional_fields() {
        let text = "{\"name\":\"a\",\"median_ns\":10.0,\"sim_mcycles_per_sec\":123.456}\n\
                    {\"name\":\"b\",\"median_ns\":20.0}\n";
        assert_eq!(bench_field_f64(text, "a", "sim_mcycles_per_sec"), Some(123.456));
        assert_eq!(bench_field_f64(text, "b", "sim_mcycles_per_sec"), None);
        assert_eq!(bench_field_f64(text, "b", "median_ns"), Some(20.0));
    }
}
