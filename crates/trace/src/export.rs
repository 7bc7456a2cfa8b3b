//! Exporters: JSON-lines event log, Chrome trace-event format, and a
//! plain-text timeline summary — plus the Chrome trace validator used by
//! the CI smoke test (`tracecheck`).
//!
//! Both JSON exports render through the [`Json`] codec. The Chrome trace
//! uses the documented trace-event fields: `ph` `"B"`/`"E"` for spans,
//! `"i"` for instants, `"C"` for counters and `"M"` for
//! process/thread-name metadata; `ts` is the simulated cycle
//! (so Perfetto's "microseconds" are really cycles), `pid` is always 0 and
//! `tid` is the [`Subsystem`] id — one visual track per subsystem.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse, Json};
use crate::tracer::{Event, EventKind, RingTracer, Subsystem};

/// What an event carries in both exports: its JSON-lines `type`, its
/// Chrome `ph`, its name, and the instant's detail or the counter's value.
fn event_fields(e: &Event) -> (&'static str, &'static str, &str, Option<(&'static str, Json)>) {
    match &e.kind {
        EventKind::Begin { name } => ("begin", "B", name, None),
        EventKind::End { name } => ("end", "E", name, None),
        EventKind::Instant { name, detail } => {
            ("instant", "i", name, Some(("detail", Json::from(detail.as_str()))))
        }
        EventKind::Counter { name, value } => {
            ("counter", "C", name, Some(("value", Json::from(*value))))
        }
    }
}

impl RingTracer {
    /// One JSON object per line, oldest event first. Stable field order,
    /// so two identical runs produce byte-identical output.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let (kind, _, name, extra) = event_fields(e);
            let mut fields = vec![
                ("cycle", Json::from(e.cycle)),
                ("subsystem", e.subsystem.name().into()),
                ("type", kind.into()),
                ("name", name.into()),
            ];
            fields.extend(extra);
            let _ = writeln!(out, "{}", Json::obj(fields));
        }
        out
    }

    /// A complete Chrome trace-event document (`{"traceEvents":[...]}`),
    /// loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let meta = |tid: Option<u32>, kind: &str, name: &str| {
            let mut fields = vec![("ph", Json::from("M")), ("pid", 0u64.into())];
            fields.extend(tid.map(|t| ("tid", t.into())));
            fields.push(("name", kind.into()));
            fields.push(("args", Json::obj([("name", name.into())])));
            Json::obj(fields)
        };
        let mut events = vec![meta(None, "process_name", "mesa-sim")];
        events.extend(Subsystem::ALL.iter().map(|s| meta(Some(s.tid()), "thread_name", s.name())));
        for e in self.events() {
            let (_, ph, name, extra) = event_fields(e);
            let mut fields = vec![
                ("ph", Json::from(ph)),
                ("pid", 0u64.into()),
                ("tid", e.subsystem.tid().into()),
                ("ts", e.cycle.into()),
            ];
            if ph == "i" {
                fields.push(("s", Json::from("t")));
            }
            fields.push(("name", name.into()));
            fields.extend(extra.map(|(k, v)| ("args", Json::obj([(k, v)]))));
            events.push(Json::obj(fields));
        }
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", "ns".into())])
            .to_string()
    }

    /// Plain-text aggregate: per `(subsystem, span)` the invocation count
    /// and total simulated cycles, then instants and dropped-event info.
    #[must_use]
    pub fn timeline_summary(&self) -> String {
        // (subsystem, name) -> (count, total cycles)
        let mut spans: BTreeMap<(&'static str, String), (u64, u64)> = BTreeMap::new();
        let mut instants: Vec<String> = Vec::new();
        // Per-subsystem stack of (name, begin cycle).
        let mut open: Vec<(Subsystem, String, u64)> = Vec::new();
        for e in self.events() {
            match &e.kind {
                EventKind::Begin { name } => open.push((e.subsystem, name.clone(), e.cycle)),
                EventKind::End { name } => {
                    if let Some(i) = open
                        .iter()
                        .rposition(|(s, n, _)| *s == e.subsystem && n == name)
                    {
                        let (_, n, begun) = open.remove(i);
                        let slot = spans.entry((e.subsystem.name(), n)).or_insert((0, 0));
                        slot.0 += 1;
                        slot.1 += e.cycle.saturating_sub(begun);
                    }
                }
                EventKind::Instant { name, detail } => {
                    instants.push(format!(
                        "  @{:>10}  [{}] {}: {}",
                        e.cycle,
                        e.subsystem.name(),
                        name,
                        detail
                    ));
                }
                EventKind::Counter { .. } => {}
            }
        }
        let mut out = String::from("timeline summary (ts = simulated cycles)\n");
        let width = spans
            .keys()
            .map(|(sub, name)| sub.len() + name.len() + 1)
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = writeln!(out, "  {:width$}  {:>8}  {:>12}", "span", "count", "cycles");
        for ((sub, name), (count, cycles)) in &spans {
            let label = format!("{sub}/{name}");
            let _ = writeln!(out, "  {label:width$}  {count:>8}  {cycles:>12}");
        }
        if !instants.is_empty() {
            out.push_str("instants:\n");
            for line in &instants {
                out.push_str(line);
                out.push('\n');
            }
        }
        if self.dropped() > 0 {
            let _ = writeln!(out, "({} oldest events dropped by the ring buffer)", self.dropped());
        }
        out
    }
}

/// What [`validate_chrome_trace`] learned about a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total entries in `traceEvents` (including metadata).
    pub events: usize,
    /// `ph:"B"` span-begin events.
    pub begins: usize,
    /// `ph:"E"` span-end events.
    pub ends: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// `ph:"C"` counter events.
    pub counters: usize,
    /// Distinct span names seen on begin events.
    pub span_names: Vec<String>,
}

/// Validates a Chrome trace-event document: well-formed JSON, a non-empty
/// `traceEvents` array, and balanced begin/end counts. Returns per-phase
/// counts and the set of span names so callers (the CI smoke test) can
/// assert required phases are present.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let doc = parse(text)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let mut summary = ChromeTraceSummary { events: events.len(), ..Default::default() };
    for ev in events {
        match ev.get("ph").and_then(Json::str) {
            Some("B") => {
                summary.begins += 1;
                if let Some(name) = ev.get("name").and_then(Json::str) {
                    if !summary.span_names.iter().any(|n| n == name) {
                        summary.span_names.push(name.to_string());
                    }
                }
            }
            Some("E") => summary.ends += 1,
            Some("i") => summary.instants += 1,
            Some("C") => summary.counters += 1,
            _ => {}
        }
    }
    if summary.events == 0 {
        return Err("traceEvents is empty".to_string());
    }
    if summary.begins != summary.ends {
        return Err(format!(
            "unbalanced spans: {} begins vs {} ends",
            summary.begins, summary.ends
        ));
    }
    if summary.begins == 0 {
        return Err("trace contains no spans".to_string());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    fn sample() -> RingTracer {
        let mut t = RingTracer::new(256);
        t.span_begin(Subsystem::Controller, "detect", 0);
        t.instant(Subsystem::Controller, "hot_loop", "pc=[0x1000,0x1010)", 950);
        t.span_end(Subsystem::Controller, "detect", 1000);
        t.span_begin(Subsystem::Controller, "configure", 1000);
        t.span_begin(Subsystem::Controller, "map", 1100);
        t.span_end(Subsystem::Controller, "map", 1400);
        t.span_end(Subsystem::Controller, "configure", 1500);
        t.counter(Subsystem::Memory, "mem.dram_accesses", 42, 1500);
        t
    }

    #[test]
    fn json_lines_one_object_per_event() {
        let t = sample();
        let jsonl = t.to_json_lines();
        assert_eq!(jsonl.lines().count(), t.len());
        for line in jsonl.lines() {
            assert_eq!(parse(line).expect("each line parses").to_string(), line);
        }
        assert!(jsonl.contains("\"detail\":\"pc=[0x1000,0x1010)\""));
    }

    #[test]
    fn chrome_trace_validates_and_counts() {
        let t = sample();
        let chrome = t.to_chrome_trace();
        let s = validate_chrome_trace(&chrome).expect("valid");
        assert_eq!(s.begins, 3);
        assert_eq!(s.ends, 3);
        assert_eq!(s.instants, 1);
        assert_eq!(s.counters, 1);
        assert!(s.span_names.iter().any(|n| n == "detect"));
        assert!(s.span_names.iter().any(|n| n == "map"));
    }

    #[test]
    fn chrome_trace_escapes_details() {
        let mut t = RingTracer::new(64);
        t.span_begin(Subsystem::Harness, "run", 0);
        t.instant(Subsystem::Harness, "note", "quote \" backslash \\ newline \n tab \t", 1);
        t.span_end(Subsystem::Harness, "run", 2);
        validate_chrome_trace(&t.to_chrome_trace()).expect("escaped trace still parses");
    }

    #[test]
    fn validator_rejects_malformed_and_unbalanced() {
        assert!(validate_chrome_trace("{\"traceEvents\":[],}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        let mut t = RingTracer::new(64);
        t.span_begin(Subsystem::Cpu, "orphan", 0);
        assert!(validate_chrome_trace(&t.to_chrome_trace()).is_err());
    }

    #[test]
    fn timeline_summary_aggregates_spans() {
        let t = sample();
        let text = t.timeline_summary();
        assert!(text.contains("controller/detect"), "{text}");
        assert!(text.contains("controller/map"), "{text}");
        assert!(text.contains("hot_loop"), "{text}");
        // detect span total is 1000 cycles.
        assert!(text.contains("1000"), "{text}");
    }

    #[test]
    fn determinism_same_events_same_bytes() {
        let a = sample().to_chrome_trace();
        let b = sample().to_chrome_trace();
        assert_eq!(a, b);
        assert_eq!(sample().to_json_lines(), sample().to_json_lines());
    }
}
