//! Exporters for [`HostProfile`]: the `"schema":"mesa.hostprofile/v1"`
//! JSON document and the folded-stack text format that flamegraph /
//! speedscope / `inferno` consume directly.
//!
//! Both exports are byte-deterministic for a deterministic profile
//! (mock clock): spans serialize in DFS pre-order with
//! `;`-joined paths, gauges in key order, and every floating-point
//! field is a [`Json::fixed`] with three decimals (`null` when not
//! finite).
//!
//! Conservation is part of the schema: for every span,
//! `self_ns + Σ direct-child total_ns == total_ns` exactly, the
//! document's `total_ns` is the sum of the root spans' totals, and the
//! folded export's sample values are exactly the `self_ns` fields — so
//! `Σ folded == total_ns`. `tracecheck hostprofile` re-derives all
//! three identities.

use crate::host::{HostProfile, HostSpan};
use crate::json::Json;
use std::fmt::Write as _;

impl HostProfile {
    /// The stable `"schema":"mesa.hostprofile/v1"` JSON export. Field
    /// order is part of the schema.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let alloc = &self.alloc;
        let gauges = self.gauges.iter().map(|(name, &v)| (name.as_str(), Json::fixed(v, 3)));
        let mut spans = Vec::new();
        for root in &self.roots {
            span_json(&mut spans, root, "");
        }
        let alloc = Json::obj([
            ("enabled", alloc.enabled.into()),
            ("allocations", alloc.allocations.into()),
            ("total_bytes", alloc.total_bytes.into()),
            ("current_bytes", alloc.current_bytes.into()),
            ("peak_bytes", alloc.peak_bytes.into()),
        ]);
        Json::obj([
            ("schema", "mesa.hostprofile/v1".into()),
            ("clock", self.clock.into()),
            ("wall_ns", self.wall_ns.into()),
            ("total_ns", self.total_ns().into()),
            ("sim_cycles", self.sim_cycles().into()),
            ("alloc", alloc),
            ("gauges", Json::obj(gauges)),
            ("spans", Json::Arr(spans)),
        ])
    }

    /// Renders the folded-stack text export: one `path value` line per
    /// span with nonzero self time, where `path` is the
    /// `;`-joined span stack and `value` is the span's exact
    /// `self_ns`. Feed it to any flamegraph renderer
    /// (`flamegraph.pl`, inferno, speedscope).
    #[must_use]
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            write_span_folded(&mut out, root, "");
        }
        out
    }
}

/// Appends `span` and its subtree to `out` in DFS pre-order.
fn span_json(out: &mut Vec<Json>, span: &HostSpan, prefix: &str) {
    let path = join_path(prefix, &span.name);
    let total = span.total_ns();
    // Per-phase throughput gauge: simulated cycles per host second, in
    // Mcycles/s (null when no sim cycles were attributed here).
    let rate = if span.sim_cycles > 0 && total > 0 {
        span.sim_cycles as f64 * 1e3 / total as f64
    } else {
        f64::NAN
    };
    out.push(Json::obj([
        ("path", path.as_str().into()),
        ("total_ns", total.into()),
        ("self_ns", span.self_ns().into()),
        ("busy_ns", span.busy_ns.into()),
        ("calls", span.calls.into()),
        ("sim_cycles", span.sim_cycles.into()),
        ("sim_mcycles_per_sec", Json::fixed(rate, 3)),
        ("alloc_count", span.alloc_count.into()),
        ("alloc_bytes", span.alloc_bytes.into()),
        ("dur", span.dur.to_json()),
    ]));
    for child in &span.children {
        span_json(out, child, &path);
    }
}

fn write_span_folded(out: &mut String, span: &HostSpan, prefix: &str) {
    let path = join_path(prefix, &span.name);
    let self_ns = span.self_ns();
    if self_ns > 0 {
        let _ = writeln!(out, "{path} {self_ns}");
    }
    for child in &span.children {
        write_span_folded(out, child, &path);
    }
}

fn join_path(prefix: &str, name: &str) -> String {
    // Semicolons delimit folded-stack frames; scrub them out of names.
    let clean: String =
        name.chars().map(|c| if c == ';' || c == '\n' { '_' } else { c }).collect();
    if prefix.is_empty() {
        clean
    } else {
        format!("{prefix};{clean}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{ClockSpec, HostProfiler};
    use crate::json::parse;

    fn sample_profile() -> HostProfile {
        let mut prof = HostProfiler::from_spec(ClockSpec::Mock { step_ns: 100 });
        prof.begin("episode");
        prof.attribute_sim_cycles(5_000);
        prof.begin("detect");
        prof.end();
        prof.begin("offload");
        prof.attribute_sim_cycles(95_000);
        prof.end();
        prof.end();
        let mut p = prof.finish();
        p.gauges.insert("episodes_per_sec".to_string(), 42.125);
        p.gauges.insert("broken_ratio".to_string(), f64::NAN);
        p
    }

    #[test]
    fn json_export_is_well_formed_and_deterministic() {
        let a = sample_profile().to_json().to_string();
        let b = sample_profile().to_json().to_string();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"mesa.hostprofile/v1\""));
        assert_eq!(parse(&a).expect("well-formed JSON").to_string(), a);
        assert!(a.contains("\"path\":\"episode\""));
        assert!(a.contains("\"path\":\"episode;offload\""));
        assert!(a.contains("\"episodes_per_sec\":42.125"));
        // Non-finite gauges serialize as null, keeping the finiteness
        // scan in tracecheck happy.
        assert!(a.contains("\"broken_ratio\":null"));
        assert!(!a.contains("NaN"));
    }

    #[test]
    fn folded_export_sums_exactly_to_total() {
        let p = sample_profile();
        let folded = p.to_folded();
        let mut sum = 0u64;
        for line in folded.lines() {
            let (path, value) = line.rsplit_once(' ').expect("path value");
            assert!(!path.is_empty());
            sum += value.parse::<u64>().expect("numeric self_ns");
        }
        assert_eq!(sum, p.total_ns());
        assert!(folded.contains("episode;detect "));
    }

    #[test]
    fn semicolons_in_span_names_are_scrubbed() {
        let mut prof = HostProfiler::from_spec(ClockSpec::Mock { step_ns: 10 });
        prof.begin("weird;name");
        prof.end();
        let p = prof.finish();
        assert!(p.to_folded().starts_with("weird_name "));
        let json = p.to_json();
        assert_eq!(
            json.get("spans").map(|s| s.items()[0].get("path")),
            Some(Some(&"weird_name".into()))
        );
    }
}
