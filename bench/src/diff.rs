//! `mesa-e2e diff A.json B.json`: the relative change of every
//! (workload, metric) between two `--out` documents, flagged against the
//! regression bounds in `BENCHMARK.json`.

use crate::json::Json;
use std::fmt::Write as _;

/// How a changed value is flagged.
fn flag(name: &str, a: f64, b: f64, bench: &Json) -> Option<String> {
    if name == "fail_frac" {
        return (b > a).then(|| "MORE FAILURES".to_string());
    }
    if name.starts_with("sim.") {
        return (a != b).then(|| "CHANGED (simulation invariant)".to_string());
    }
    let declared = bench
        .get("end_to_end")?
        .items()
        .iter()
        .find(|m| m.get("name").and_then(Json::str) == Some(name))?;
    let bound = declared.get("bound").and_then(Json::num)?;
    let lower_is_better = declared.get("better").and_then(Json::str) == Some("lower");
    let worse = if lower_is_better { b - a } else { a - b };
    (worse > bound * a.abs()).then(|| format!("REGRESSION (bound {:.0}%)", bound * 100.0))
}

/// Renders the comparison of `a` (base) against `b` (change) and says
/// whether anything was flagged.
#[must_use]
pub fn diff(a: &Json, b: &Json, bench: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut flagged = false;
    let empty = Json::Obj(Vec::new());
    let b_workloads = b.get("workloads").unwrap_or(&empty);
    for (workload, wa) in a.get("workloads").unwrap_or(&empty).entries() {
        let Some(wb) = b_workloads.get(workload) else {
            let _ = writeln!(out, "{workload}: only in the base");
            continue;
        };
        let value = |w: &Json, name: &str| {
            w.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::num)
        };
        for (name, _) in wa.get("metrics").unwrap_or(&empty).entries() {
            let (Some(va), Some(vb)) = (value(wa, name), value(wb, name)) else {
                continue;
            };
            let change = if va == 0.0 {
                if vb == 0.0 {
                    "+0.00%".to_string()
                } else {
                    "n/a".to_string()
                }
            } else {
                format!("{:+.2}%", (vb - va) / va.abs() * 100.0)
            };
            let mark = flag(name, va, vb, bench);
            flagged |= mark.is_some();
            let _ = writeln!(
                out,
                "{workload:<14} {name:<40} {va:>16.6} {vb:>16.6} {change:>9}  {}",
                mark.unwrap_or_default()
            );
        }
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn flags_regressions_beyond_the_bound_and_changed_invariants() {
        let bench = parse(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"ops/s","better":"higher","bound":0.1},
                               {"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .expect("bench");
        let doc = |ops: f64, p50: f64, digest: f64, failed: u64| {
            parse(&format!(
                r#"{{"workloads":{{"w":{{"correct":true,"attempted":10,"failed":{failed},"metrics":{{
                    "ops_per_s":{{"value":{ops},"unit":"ops/s"}},
                    "op_p50_ms":{{"value":{p50},"unit":"ms"}},
                    "fail_frac":{{"value":{},"unit":"fraction"}},
                    "sim.digest":{{"value":{digest},"unit":"hash"}}}}}}}}}}"#,
                failed as f64 / 10.0
            ))
            .expect("doc")
        };
        let base = doc(100.0, 1.0, 7.0, 0);
        let (text, flagged) = diff(&base, &doc(95.0, 1.05, 7.0, 0), &bench);
        assert!(!flagged, "{text}");
        let (text, flagged) = diff(&base, &doc(85.0, 1.0, 7.0, 0), &bench);
        assert!(flagged && text.contains("REGRESSION"), "{text}");
        let (text, flagged) = diff(&base, &doc(100.0, 1.2, 7.0, 0), &bench);
        assert!(flagged && text.contains("REGRESSION"), "{text}");
        let (text, flagged) = diff(&base, &doc(100.0, 1.0, 8.0, 0), &bench);
        assert!(flagged && text.contains("CHANGED"), "{text}");
        let (text, flagged) = diff(&base, &doc(100.0, 1.0, 7.0, 1), &bench);
        assert!(flagged && text.contains("MORE FAILURES"), "{text}");
    }
}
