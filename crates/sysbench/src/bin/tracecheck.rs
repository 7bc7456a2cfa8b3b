//! CI-facing trace and benchmark validators.
//!
//! Every JSON input is parsed whole with `mesa_trace::json`, and fields
//! are read by their path through the tree, so neither field order nor
//! whitespace matters. The parser rejects a non-finite numeric value
//! (`NaN`/`inf`) and names it, so a missed ratio guard can never leak into
//! a committed artifact. Each subcommand exits non-zero with a diagnostic
//! on failure:
//!
//! * `tracecheck chrome <path>` — validates a Chrome trace-event file:
//!   non-empty `traceEvents` with balanced span begin/end events, and the
//!   controller-phase spans `detect`, `translate`, `map`, `configure` and
//!   `offload` present. Used by `scripts/ci.sh` as the trace smoke test.
//! * `tracecheck benchgate <bench.json> <name_a> <name_b> <max_ratio>` —
//!   reads the bench-suite report written by the `components` bench (a
//!   JSON array of results) and asserts that `name_a`'s `median_ns` is at
//!   most `max_ratio` × `name_b`'s. Used by `scripts/bench_gates.sh` for
//!   the same-run gates.
//! * `tracecheck benchdiff <new.json> <baseline.json> <max_ratio>
//!   [name...]` — compares a freshly produced bench-suite report against a
//!   committed baseline and fails when any compared benchmark's median
//!   regressed by more than `max_ratio` (e.g. `1.15` = 15% slower).
//!   Benchmarks to compare may be listed explicitly; with none listed,
//!   every benchmark present in the *baseline* is compared (a benchmark
//!   missing from the new report is a failure; extra new benchmarks are
//!   ignored so adding benches never breaks old baselines). Used by
//!   `scripts/bench_diff.sh` as the perf-regression gate.
//! * `tracecheck profile <report.json>` — validates the unified profile
//!   report the `profile` binary writes: the `topdown` buckets sum exactly
//!   to its `total_cycles`, and an accepted offload (`"reject": null`)
//!   leaves a non-empty heatmap (`summary.fires_total > 0`). The CPU-speed
//!   sections are checked too: the four per-idiom `fusion` counters sum to
//!   `fused_pairs`, every fused pair accounts for two retired instructions
//!   (`2 × fused_pairs ≤ retired`), and the `fastfwd` split tiles the
//!   retired count exactly (`ff_instrs + simulated_instrs == retired`).
//!   Used by `scripts/ci.sh` as the profile smoke test.
//! * `tracecheck figdiff <a.txt> <b.txt> <max_rel_err>` — compares the
//!   `MEAN` speedup/energy rows of two captured `figures` fig11 outputs
//!   column by column and fails when any column's relative difference
//!   exceeds `max_rel_err` (`b` is the reference). Used by `scripts/ci.sh`
//!   to check that a `figures --fast-forward` run reproduces the default
//!   run's speedup table within the fast-forward model's error bound.
//! * `tracecheck fleetstats <stats.json>` — validates a
//!   `"schema":"mesa.fleetstats/v1"` export (from `soak --fleetstats` or
//!   `FleetStats::to_json`): exact occupancy conservation (`Σ band_busy +
//!   Σ band_idle == elapsed_cycles × bands`), quantile monotonicity (`min ≤
//!   p50 ≤ p90 ≤ p99 ≤ max`) for every latency histogram, and `migrations
//!   == histograms.migration_cycles.count`.
//! * `tracecheck postmortem <dump.json>` — validates a flight-recorder
//!   post-mortem (`"schema":"mesa.flight/v1"`): a non-empty reason, and at
//!   least one recorded event, each with a cycle.
//! * `tracecheck hostprofile <host.json> [stacks.folded]` — validates a
//!   `"schema":"mesa.hostprofile/v1"` export (from `figures
//!   --host-profile`): **exact** wall-time conservation at every level of
//!   the span tree (`self_ns + Σ children.total_ns == total_ns`, roots sum
//!   to the profile total), `dur.count == calls` per span, and
//!   allocator-counter sanity (`peak ≥ current`, `total ≥ current`). With
//!   the optional folded-stack file: every line must match a span's
//!   `self_ns` and the lines must sum exactly to the profile total.

use mesa_trace::json::{parse, Json};
use mesa_trace::validate_chrome_trace;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("chrome") => check_chrome(rest),
        Some("benchgate") => check_benchgate(rest),
        Some("benchdiff") => check_benchdiff(rest),
        Some("profile") => with_doc(rest, check_profile),
        Some("figdiff") => check_figdiff(rest),
        Some("fleetstats") => with_doc(rest, check_fleetstats),
        Some("postmortem") => with_doc(rest, check_postmortem),
        Some("hostprofile") => check_hostprofile(rest),
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

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Reads and parses one JSON document.
fn load(path: &str) -> Result<Json, String> {
    parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Runs `check` on the document named by the one argument, prefixing its
/// verdict with the path.
fn with_doc(args: &[String], check: fn(&Json) -> Result<String, String>) -> Result<String, String> {
    let [path] = args else {
        return Err("expected one <path> argument".into());
    };
    let verdict = check(&load(path)?);
    verdict.map(|msg| format!("{path}: {msg}")).map_err(|e| format!("{path}: {e}"))
}

/// The unsigned integer at `path` inside `doc`.
fn u64_at(doc: &Json, path: &[&str]) -> Result<u64, String> {
    doc.at(path)
        .and_then(Json::u64)
        .ok_or_else(|| format!("no unsigned integer at {:?}", path.join(".")))
}

/// The sum of the unsigned integers at `section.key` for each key.
fn sum_at(doc: &Json, section: &str, keys: &[&str]) -> Result<u128, String> {
    keys.iter().map(|k| u64_at(doc, &[section, k]).map(u128::from)).sum()
}

fn expect_schema(doc: &Json, schema: &str) -> Result<(), String> {
    if doc.get("schema").and_then(Json::str) == Some(schema) {
        Ok(())
    } else {
        Err(format!("missing \"schema\":{schema:?} marker"))
    }
}

/// Controller-phase spans every successful offload trace must contain.
const REQUIRED_SPANS: [&str; 5] = ["detect", "translate", "map", "configure", "offload"];

fn check_chrome(args: &[String]) -> Result<String, String> {
    let [path] = args else {
        return Err("chrome: expected <trace.json>".into());
    };
    let summary = validate_chrome_trace(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
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

/// The named benchmark's entry in a bench-suite report, and its median.
fn bench<'a>(suite: &'a Json, path: &str, name: &str) -> Result<(&'a Json, f64), String> {
    let entry = suite.items().iter().find(|b| b.get("name").and_then(Json::str) == Some(name));
    let entry = entry.ok_or_else(|| format!("{path}: no entry {name:?}"))?;
    let median = entry.get("median_ns").and_then(Json::f64);
    Ok((entry, median.ok_or_else(|| format!("{path}: {name:?} has no median_ns"))?))
}

fn check_benchgate(args: &[String]) -> Result<String, String> {
    let [path, name_a, name_b, max_ratio] = args else {
        return Err("benchgate: expected <bench.json> <name_a> <name_b> <max_ratio>".into());
    };
    let max_ratio: f64 = max_ratio
        .parse()
        .map_err(|e| format!("benchgate: bad max_ratio {max_ratio:?}: {e}"))?;
    let suite = load(path)?;
    let (_, a) = bench(&suite, path, name_a)?;
    let (_, b) = bench(&suite, path, name_b)?;
    let ratio = a / b.max(f64::MIN_POSITIVE);
    let verdict = format!("{name_a} = {a:.0} ns vs {name_b} = {b:.0} ns: ratio {ratio:.3}");
    if ratio <= max_ratio {
        Ok(format!("{verdict} <= {max_ratio}"))
    } else {
        Err(format!("{verdict} exceeds {max_ratio}"))
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
    let new_suite = load(new_path)?;
    let base_suite = load(base_path)?;

    let compare: Vec<String> = if names.is_empty() {
        let names = base_suite.items().iter().filter_map(|b| b.get("name")?.str());
        names.map(str::to_string).collect()
    } else {
        names.to_vec()
    };
    if compare.is_empty() {
        return Err(format!("{base_path}: baseline contains no benchmarks"));
    }

    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for name in &compare {
        let (base, base_ns) = bench(&base_suite, base_path, name)?;
        let (new, new_ns) =
            bench(&new_suite, new_path, name).map_err(|e| format!("{e} (benchmark removed?)"))?;
        let ratio = new_ns / base_ns.max(f64::MIN_POSITIVE);
        // Sim throughput is informational: cycle-reporting benches carry
        // it, plain ones don't, and old baselines may predate the field.
        let sim = |entry: &Json| entry.get("sim_mcycles_per_sec").and_then(Json::f64);
        let sim = match (sim(base), sim(new)) {
            (Some(b), Some(n)) => format!(" [sim {b:.1} -> {n:.1} Mcyc/s]"),
            _ => String::new(),
        };
        lines.push(format!("  {name}: {base_ns:.1} -> {new_ns:.1} ns ({ratio:.3}x){sim}"));
        if ratio > max_ratio {
            regressions.push(format!(
                "{name}: {base_ns:.1} -> {new_ns:.1} ns ({ratio:.3}x > {max_ratio}x)"
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

fn check_profile(doc: &Json) -> Result<String, String> {
    // Conservation: the four top-down buckets tile the CPU-phase cycles.
    let total = u64_at(doc, &["topdown", "total_cycles"])?;
    let buckets = ["retiring", "frontend_bound", "backend_core_bound", "memory_bound"];
    let sum = sum_at(doc, "topdown", &buckets)?;
    if sum != u128::from(total) {
        return Err(format!("top-down buckets sum to {sum}, expected total_cycles = {total}"));
    }

    // An accepted offload must leave a non-empty heatmap behind.
    let accepted = doc.get("reject") == Some(&Json::Null);
    if accepted && u64_at(doc, &["summary", "fires_total"])? == 0 {
        return Err("accepted offload but the heatmap recorded zero fires".into());
    }

    // Fusion accounting: the per-idiom counters must tile `fused_pairs`,
    // and each fused pair stands for exactly two retired instructions.
    let fused_pairs = u64_at(doc, &["fusion", "fused_pairs"])?;
    let by_kind = ["cmp_branch", "addr_load", "addr_store", "alu_alu"];
    let kind_sum = sum_at(doc, "fusion", &by_kind)?;
    if kind_sum != u128::from(fused_pairs) {
        return Err(format!(
            "per-idiom fusion counters sum to {kind_sum}, expected fused_pairs = {fused_pairs}"
        ));
    }
    let retired = u64_at(doc, &["fusion", "retired"])?;
    if 2 * u128::from(fused_pairs) > u128::from(retired) {
        return Err(format!(
            "{fused_pairs} fused pair(s) account for twice as many instructions \
             but only {retired} retired"
        ));
    }

    // Fast-forward accounting: fast-forwarded and fully simulated
    // instructions must tile the retired count exactly.
    let ff = u64_at(doc, &["fastfwd", "ff_instrs"])?;
    let simulated = u64_at(doc, &["fastfwd", "simulated_instrs"])?;
    if u128::from(ff) + u128::from(simulated) != u128::from(retired) {
        return Err(format!(
            "fast-forward split not conserved: ff_instrs={ff} + \
             simulated_instrs={simulated} != retired = {retired}"
        ));
    }

    Ok(format!(
        "well-formed profile report, buckets sum to {total} cycles, \
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

/// Latency histograms every fleetstats export must carry.
const FLEET_HISTOGRAMS: [&str; 3] = ["queue_wait_cycles", "slice_cycles", "migration_cycles"];

fn check_fleetstats(doc: &Json) -> Result<String, String> {
    expect_schema(doc, "mesa.fleetstats/v1")?;
    let elapsed = u64_at(doc, &["elapsed_cycles"])?;
    let bands = u64_at(doc, &["bands"])?;
    let band_slots = |key: &str| -> Result<Vec<u64>, String> {
        let Some(Json::Arr(slots)) = doc.get(key) else {
            return Err(format!("no array {key:?}"));
        };
        let slot = |v: &Json| v.u64().ok_or_else(|| format!("non-integer slot in {key:?}"));
        slots.iter().map(slot).collect()
    };
    let (busy, idle) = (band_slots("band_busy")?, band_slots("band_idle")?);
    if busy.len() as u64 != bands || idle.len() as u64 != bands {
        return Err(format!(
            "band arrays have {}/{} slots, expected bands = {bands}",
            busy.len(),
            idle.len()
        ));
    }
    // Occupancy conservation: every elapsed fleet cycle is attributed to
    // every band slot as exactly one of busy or idle.
    let occupied: u128 = busy.iter().chain(&idle).map(|&v| u128::from(v)).sum();
    let expected = u128::from(elapsed) * u128::from(bands);
    if occupied != expected {
        return Err(format!(
            "occupancy not conserved: Σ busy + Σ idle = {occupied}, \
             expected elapsed_cycles × bands = {expected}"
        ));
    }

    // Quantile monotonicity for each latency histogram.
    for name in FLEET_HISTOGRAMS {
        let q = |key: &str| u64_at(doc, &["histograms", name, key]);
        let (count, min, p50) = (q("count")?, q("min")?, q("p50")?);
        let (p90, p99, max) = (q("p90")?, q("p99")?, q("max")?);
        if count > 0 && !(min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
            return Err(format!(
                "histogram {name:?} quantiles not monotone: \
                 min={min} p50={p50} p90={p90} p99={p99} max={max}"
            ));
        }
    }
    let migrations = u64_at(doc, &["migrations"])?;
    let samples = u64_at(doc, &["histograms", "migration_cycles", "count"])?;
    if samples != migrations {
        return Err(format!(
            "migration_cycles has {samples} sample(s) but the export reports \
             {migrations} migration(s)"
        ));
    }
    Ok(format!(
        "valid fleetstats export — {} run(s), {bands} band(s), \
         {elapsed} fleet cycles conserved, {} histogram(s) monotone",
        u64_at(doc, &["runs"])?,
        FLEET_HISTOGRAMS.len()
    ))
}

/// One span row of a hostprofile export.
struct HostSpanRec<'a> {
    path: &'a str,
    total_ns: u64,
    self_ns: u64,
}

fn check_hostprofile(args: &[String]) -> Result<String, String> {
    let [path, folded @ ..] = args else {
        return Err("hostprofile: expected <host.json> [stacks.folded]".into());
    };
    let doc = load(path)?;
    let (spans, total) = host_spans(&doc).map_err(|e| format!("{path}: {e}"))?;
    let mut folded_note = String::new();
    if let Some(fpath) = folded.first() {
        let lines = check_folded(&read(fpath)?, &spans, total);
        let lines = lines.map_err(|e| format!("{fpath}: {e}"))?;
        folded_note = format!(", {lines} folded line(s) tile the total");
    }
    Ok(format!(
        "{path}: valid host profile — {} span(s), {total} ns conserved at \
         every level{folded_note}",
        spans.len()
    ))
}

/// Checks a hostprofile document; returns its spans and the profile total.
fn host_spans(doc: &Json) -> Result<(Vec<HostSpanRec<'_>>, u64), String> {
    expect_schema(doc, "mesa.hostprofile/v1")?;
    let total = u64_at(doc, &["total_ns"])?;

    // Allocator-counter sanity.
    let a = |key: &str| u64_at(doc, &["alloc", key]);
    let (a_total, a_current, a_peak) = (a("total_bytes")?, a("current_bytes")?, a("peak_bytes")?);
    if a_peak < a_current || a_total < a_current {
        return Err(format!(
            "inconsistent allocator counters: total_bytes={a_total} \
             current_bytes={a_current} peak_bytes={a_peak}"
        ));
    }

    let mut spans = Vec::new();
    for span in doc.get("spans").map(Json::items).unwrap_or_default() {
        let path = span.get("path").and_then(Json::str).ok_or("span without a string \"path\"")?;
        let field = |key: &[&str]| u64_at(span, key).map_err(|e| format!("span {path:?}: {e}"));
        let (total_ns, busy_ns) = (field(&["total_ns"])?, field(&["busy_ns"])?);
        let (calls, samples) = (field(&["calls"])?, field(&["dur", "count"])?);
        if busy_ns > total_ns {
            return Err(format!("span {path:?} has busy_ns={busy_ns} > total_ns={total_ns}"));
        }
        if samples != calls {
            return Err(format!(
                "span {path:?} histogram has {samples} sample(s) but calls={calls}"
            ));
        }
        spans.push(HostSpanRec { path, total_ns, self_ns: field(&["self_ns"])? });
    }

    // Exact conservation at every level: a span's children are exactly
    // the spans whose path extends it by one `;`-separated segment.
    let mut children_sum: BTreeMap<&str, u128> = BTreeMap::new();
    let mut roots_sum = 0u128;
    for s in &spans {
        match s.path.rsplit_once(';') {
            Some((parent, _)) => *children_sum.entry(parent).or_insert(0) += u128::from(s.total_ns),
            None => roots_sum += u128::from(s.total_ns),
        }
    }
    for s in &spans {
        let kids = children_sum.get(s.path).copied().unwrap_or(0);
        if u128::from(s.self_ns) + kids != u128::from(s.total_ns) {
            return Err(format!(
                "span {:?} not conserved: self_ns={} + Σ children={kids} != total_ns={}",
                s.path, s.self_ns, s.total_ns
            ));
        }
    }
    if roots_sum != u128::from(total) {
        return Err(format!("root spans sum to {roots_sum}, expected total_ns = {total}"));
    }
    Ok((spans, total))
}

/// Checks a folded-stack file against the profile's spans: every line
/// matches a span's self time and the lines tile the total. Returns the
/// line count.
fn check_folded(text: &str, spans: &[HostSpanRec<'_>], total: u64) -> Result<usize, String> {
    let mut sum = 0u128;
    let mut lines = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (path, value) =
            line.rsplit_once(' ').ok_or_else(|| format!("malformed folded line {line:?}"))?;
        let value: u64 =
            value.parse().map_err(|e| format!("bad count in folded line {line:?}: {e}"))?;
        let span = spans
            .iter()
            .find(|s| s.path == path)
            .ok_or_else(|| format!("folded path {path:?} not in the profile"))?;
        if span.self_ns != value {
            return Err(format!(
                "folded {path:?} = {value} but the profile says self_ns = {}",
                span.self_ns
            ));
        }
        sum += u128::from(value);
        lines += 1;
    }
    if sum != u128::from(total) {
        return Err(format!("folded stacks sum to {sum}, expected total_ns = {total}"));
    }
    Ok(lines)
}

fn check_postmortem(doc: &Json) -> Result<String, String> {
    expect_schema(doc, "mesa.flight/v1")?;
    if doc.get("reason").and_then(Json::str).is_none_or(str::is_empty) {
        return Err("post-mortem has no reason".into());
    }
    let lanes = doc.get("lanes").map(Json::entries).unwrap_or_default();
    let events: Vec<&Json> = lanes.iter().flat_map(|(_, ring)| ring.items()).collect();
    if events.iter().any(|ev| ev.get("cycle").and_then(Json::u64).is_none()) {
        return Err("flight event without a cycle".into());
    }
    if events.is_empty() {
        return Err("post-mortem recorded zero flight events".into());
    }
    Ok(format!("valid flight post-mortem, {} event(s)", events.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_core::{FleetStats, TenantStats};
    use mesa_trace::host::{ClockSpec, HostProfiler};

    /// Writes `text` to a per-process temporary file named after `name`.
    fn temp_file(name: &str, text: &str) -> String {
        let path = std::env::temp_dir().join(format!("tracecheck-{}-{name}", std::process::id()));
        std::fs::write(&path, text).expect("temporary file writes");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn non_finite_values_fail_with_the_value_named() {
        let path = temp_file("nan.json", "{\"speedup\": 1.5, \"ipc\": [2.0, NaN]}");
        let err = with_doc(std::slice::from_ref(&path), check_profile).expect_err("NaN fails");
        assert!(err.contains("non-finite number NaN"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn hostprofile_accepts_span_paths_with_spaces_and_quotes() {
        let mut prof = HostProfiler::from_spec(ClockSpec::Mock { step_ns: 100 });
        prof.begin("run \"fast\" path");
        prof.begin("inner step");
        prof.end();
        prof.end();
        let profile = prof.finish();
        let json = temp_file("host.json", &profile.to_json().to_string());
        let folded = temp_file("host.folded", &profile.to_folded());
        let verdict = check_hostprofile(&[json.clone(), folded.clone()]);
        assert!(verdict.as_ref().is_ok_and(|m| m.contains("2 span(s)")), "{verdict:?}");
        let _ = (std::fs::remove_file(json), std::fs::remove_file(folded));
    }

    #[test]
    fn fleetstats_accepts_reordered_top_level_keys() {
        let tenant = |tenant, migrations| TenantStats {
            tenant,
            state: "done",
            band: Some((0, 4)),
            cycles: 50,
            iterations: 10,
            slices: 2,
            migrations,
            queue_wait_cycles: 0,
            checkpoint_cycles: 0,
        };
        let mut stats = FleetStats {
            runs: 1,
            elapsed_cycles: 100,
            bands: 2,
            band_busy: vec![60, 100],
            band_idle: vec![40, 0],
            migrations: 1,
            tenants: vec![tenant(0, 0), tenant(1, 1)],
            ..FleetStats::default()
        };
        stats.migration_cycles.record(546);
        for _ in 0..4 {
            stats.slice_cycles.record(25);
        }
        let mut doc = stats.to_json();
        assert!(check_fleetstats(&doc).is_ok());
        if let Json::Obj(entries) = &mut doc {
            entries.reverse();
        }
        let path = temp_file("fleet.json", &doc.to_string());
        let verdict = with_doc(std::slice::from_ref(&path), check_fleetstats);
        assert!(verdict.is_ok(), "{verdict:?}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn benchdiff_reads_the_committed_baseline() {
        let base = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_components.json");
        let count = read(base).expect("baseline reads").matches("\"name\"").count();
        let args = [base.to_string(), base.to_string(), "1.0".to_string()];
        assert_eq!(
            check_benchdiff(&args),
            Ok(format!("{count} benchmark(s) within 1x of the baseline"))
        );
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

}
