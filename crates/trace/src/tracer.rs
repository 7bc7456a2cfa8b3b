//! The tracer: typed cycle-timestamped events, a bounded ring buffer, and
//! the [`Tracer`] trait every simulator layer is instrumented against.
//!
//! Instrumentation sites hold a `&mut dyn Tracer`. The two standard
//! implementations are [`NullTracer`] (the default everywhere; every call
//! early-outs on `enabled() == false` before any formatting or allocation)
//! and [`RingTracer`] (a bounded in-memory ring that the exporters in
//! [`crate::export`] serialize).

use std::collections::VecDeque;

/// The simulated component an event belongs to. Exported as one "thread"
/// per subsystem in the Chrome trace, so Perfetto shows CPU, controller,
/// accelerator, and memory as parallel timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// The out-of-order host core(s).
    Cpu,
    /// The MESA controller (detection, translation, mapping, F3).
    Controller,
    /// The spatial accelerator engine.
    Accelerator,
    /// The shared memory hierarchy.
    Memory,
    /// The measurement harness wrapping a whole episode.
    Harness,
    /// Injected-fault events (corruption, scrubbing, recovery decisions).
    Fault,
}

impl Subsystem {
    /// All subsystems, in thread-id order.
    pub const ALL: [Subsystem; 6] = [
        Subsystem::Cpu,
        Subsystem::Controller,
        Subsystem::Accelerator,
        Subsystem::Memory,
        Subsystem::Harness,
        Subsystem::Fault,
    ];

    /// Stable thread id used by the Chrome-trace exporter.
    #[must_use]
    pub fn tid(self) -> u32 {
        match self {
            Subsystem::Cpu => 1,
            Subsystem::Controller => 2,
            Subsystem::Accelerator => 3,
            Subsystem::Memory => 4,
            Subsystem::Harness => 5,
            Subsystem::Fault => 6,
        }
    }

    /// Human-readable name (also the Chrome-trace thread name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Cpu => "cpu",
            Subsystem::Controller => "controller",
            Subsystem::Accelerator => "accelerator",
            Subsystem::Memory => "memory",
            Subsystem::Harness => "harness",
            Subsystem::Fault => "fault",
        }
    }
}

/// Payload of one trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (nestable; must be closed by a matching [`EventKind::End`]
    /// on the same subsystem, LIFO order).
    Begin {
        /// Span name (see the crate docs for the vocabulary).
        name: String,
    },
    /// A span closed.
    End {
        /// Span name; must match the innermost open span.
        name: String,
    },
    /// A point-in-time marker with a free-form detail string.
    Instant {
        /// Marker name (e.g. `hot_loop`, `reject`, `reconfigure`).
        name: String,
        /// Free-form detail (e.g. the rendered reject reason).
        detail: String,
    },
    /// A sampled counter value.
    Counter {
        /// Counter name (e.g. `mem.dram_accesses`).
        name: String,
        /// Value at this cycle.
        value: u64,
    },
}

impl EventKind {
    /// The event's name, whichever variant it is.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            EventKind::Begin { name }
            | EventKind::End { name }
            | EventKind::Instant { name, .. }
            | EventKind::Counter { name, .. } => name,
        }
    }
}

/// One trace event: a simulated-cycle timestamp, the subsystem timeline it
/// belongs to, and a typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle (never wall clock — see the crate docs).
    pub cycle: u64,
    /// Which timeline the event belongs to.
    pub subsystem: Subsystem,
    /// The payload.
    pub kind: EventKind,
}

/// The instrumentation interface.
///
/// All convenience methods funnel through [`Tracer::record`] and early-out
/// when [`Tracer::enabled`] is false, so a disabled tracer performs no
/// allocation and no formatting — the instrumented hot path stays within
/// measurement noise of the uninstrumented one (see the `tracer/*` benches
/// in `mesa-bench`).
pub trait Tracer {
    /// Whether events are being collected. Guards every convenience
    /// method; also lets call sites skip building expensive detail
    /// strings.
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event. The single choke point implementations override.
    fn record(&mut self, event: Event) {
        let _ = event;
    }

    /// Opens a span named `name` on `subsystem` at `cycle`.
    fn span_begin(&mut self, subsystem: Subsystem, name: &str, cycle: u64) {
        if self.enabled() {
            self.record(Event { cycle, subsystem, kind: EventKind::Begin { name: name.to_string() } });
        }
    }

    /// Closes the innermost open span (which must be named `name`) on
    /// `subsystem` at `cycle`.
    fn span_end(&mut self, subsystem: Subsystem, name: &str, cycle: u64) {
        if self.enabled() {
            self.record(Event { cycle, subsystem, kind: EventKind::End { name: name.to_string() } });
        }
    }

    /// Emits an instant marker.
    fn instant(&mut self, subsystem: Subsystem, name: &str, detail: &str, cycle: u64) {
        if self.enabled() {
            self.record(Event {
                cycle,
                subsystem,
                kind: EventKind::Instant { name: name.to_string(), detail: detail.to_string() },
            });
        }
    }

    /// Emits a counter sample.
    fn counter(&mut self, subsystem: Subsystem, name: &str, value: u64, cycle: u64) {
        if self.enabled() {
            self.record(Event { cycle, subsystem, kind: EventKind::Counter { name: name.to_string(), value } });
        }
    }
}

/// The disabled tracer: every method is a no-op. This is what every
/// un-traced entry point passes through, so the untraced path pays only a
/// virtual `enabled()` check per (coarse-grained) instrumentation site.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    // Explicit empty bodies (rather than the defaults, which re-dispatch
    // through `enabled()`): each vtable entry is a trivially inlinable
    // no-op, so a `&mut dyn Tracer` holding a NullTracer costs one direct
    // call with no branch. The `tracer/null_engine_nn_on_m128` bench and
    // the ci.sh benchgate hold this within noise of the untraced path.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _event: Event) {}

    #[inline]
    fn span_begin(&mut self, _subsystem: Subsystem, _name: &str, _cycle: u64) {}

    #[inline]
    fn span_end(&mut self, _subsystem: Subsystem, _name: &str, _cycle: u64) {}

    #[inline]
    fn instant(&mut self, _subsystem: Subsystem, _name: &str, _detail: &str, _cycle: u64) {}

    #[inline]
    fn counter(&mut self, _subsystem: Subsystem, _name: &str, _value: u64, _cycle: u64) {}
}

/// A bounded ring buffer of events with span-nesting bookkeeping.
///
/// When the buffer is full the *oldest* events are dropped (and counted in
/// [`RingTracer::dropped`]) so a long-running simulation keeps the most
/// recent window — the same policy as a hardware trace buffer.
#[derive(Debug, Clone)]
pub struct RingTracer {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    /// Currently-open spans, per subsystem, in open order (a stack).
    open: Vec<(Subsystem, String)>,
    /// Deepest nesting observed on any subsystem.
    max_depth: usize,
}

impl RingTracer {
    /// A tracer holding at most `capacity` events (minimum 16).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        RingTracer {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            open: Vec::new(),
            max_depth: 0,
        }
    }

    /// The recorded events, oldest first.
    #[must_use]
    pub fn events(&self) -> &VecDeque<Event> {
        &self.events
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans opened but not yet closed, in open order. Empty after any
    /// well-balanced instrumentation run — the span-balance property test
    /// in `tests/trace_determinism.rs` relies on this.
    #[must_use]
    pub fn open_spans(&self) -> &[(Subsystem, String)] {
        &self.open
    }

    /// Deepest span nesting observed so far (across all subsystems).
    #[must_use]
    #[cfg(test)]
    fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        match &event.kind {
            EventKind::Begin { name } => {
                self.open.push((event.subsystem, name.clone()));
                self.max_depth = self.max_depth.max(self.open.len());
            }
            EventKind::End { name } => {
                // Close the innermost matching open span on this
                // subsystem; tolerate (but remember) imbalance so a
                // panicking simulation still exports something useful.
                if let Some(i) = self
                    .open
                    .iter()
                    .rposition(|(s, n)| *s == event.subsystem && n == name)
                {
                    self.open.remove(i);
                }
            }
            EventKind::Instant { .. } | EventKind::Counter { .. } => {}
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_disabled_and_silent() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        t.span_begin(Subsystem::Cpu, "x", 0);
        t.span_end(Subsystem::Cpu, "x", 1);
        t.instant(Subsystem::Cpu, "i", "d", 2);
        t.counter(Subsystem::Cpu, "c", 3, 4);
    }

    #[test]
    fn ring_records_in_order() {
        let mut t = RingTracer::new(64);
        t.span_begin(Subsystem::Controller, "detect", 0);
        t.counter(Subsystem::Memory, "dram", 7, 5);
        t.span_end(Subsystem::Controller, "detect", 10);
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[0].kind.name(), "detect");
        assert_eq!(t.events()[1].cycle, 5);
        assert!(t.open_spans().is_empty());
        assert_eq!(t.max_depth(), 1);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut t = RingTracer::new(16);
        for i in 0..26 {
            t.counter(Subsystem::Cpu, "c", i, i);
        }
        assert_eq!(t.len(), 16);
        assert_eq!(t.dropped(), 10);
        // Oldest were evicted: the first surviving event is #10.
        assert_eq!(t.events()[0].cycle, 10);
    }

    #[test]
    fn nesting_tracks_depth_and_balance() {
        let mut t = RingTracer::new(64);
        t.span_begin(Subsystem::Controller, "configure", 0);
        t.span_begin(Subsystem::Controller, "map", 1);
        t.span_begin(Subsystem::Accelerator, "accel.execute", 2);
        assert_eq!(t.open_spans().len(), 3);
        t.span_end(Subsystem::Accelerator, "accel.execute", 3);
        t.span_end(Subsystem::Controller, "map", 4);
        t.span_end(Subsystem::Controller, "configure", 5);
        assert!(t.open_spans().is_empty());
        assert_eq!(t.max_depth(), 3);
    }

    #[test]
    fn subsystem_tids_are_unique() {
        let mut tids: Vec<u32> = Subsystem::ALL.iter().map(|s| s.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), Subsystem::ALL.len());
    }
}
