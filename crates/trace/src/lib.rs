//! `mesa-trace`: the workspace's observability layer.
//!
//! MESA's whole premise is feedback-driven re-optimization — "latency
//! counters at PEs and load-store entries are reported back to MESA's
//! frontend" (paper §5.2) — and this crate makes that loop *visible*:
//! every phase of an offload episode emits cycle-timestamped events into a
//! [`Tracer`].
//!
//! Three design rules:
//!
//! 1. **Simulated cycles, never wall clock.** Every event carries a
//!    simulated-cycle timestamp supplied by the caller, so traces are a
//!    pure function of the simulated execution and two runs of the same
//!    kernel with the same `MESA_TEST_SEED` produce byte-identical output.
//!    (The [`host`] module is the one sanctioned exception: it profiles
//!    the *simulator's own* wall-clock time behind a [`HostClock`]
//!    abstraction, and a CI grep gate keeps raw `Instant` reads from
//!    appearing anywhere else in the workspace.)
//! 2. **Zero dependencies.** Like the rest of the workspace, this crate
//!    builds with an empty cargo registry; every exporter renders through
//!    the crate's own [`json`] codec, and every validator parses with it.
//! 3. **Free when off.** [`NullTracer`] reports `enabled() == false` and
//!    every default [`Tracer`] method early-outs before formatting or
//!    allocating anything; the `tracer/*` benches in `mesa-bench` hold the
//!    instrumented hot path to within noise of the uninstrumented one.
//!
//! # Span vocabulary
//!
//! Span names map onto the paper's structures so a trace reads like the
//! paper's timeline figures:
//!
//! | Span | Subsystem | Paper reference |
//! |---|---|---|
//! | `detect` | Controller | F1 monitoring, §4.1 (C1–C3 happen at its end) |
//! | `cpu.warmup` | Cpu | CPU execution under the loop-stream detector |
//! | `configure` | Controller | Fig. 7 configuration episode |
//! | `translate` | Controller | LDFG build from the trace cache (T1, §3.1) |
//! | `map` | Controller | Algorithm 1 on the `imap` FSM (T2) |
//! | `imap.fetch` … `imap.writeback` | Controller | one span per Fig. 8 FSM stage |
//! | `config.write` | Controller | bitstream streaming (T3) |
//! | `config.transfer` | Controller | architectural-state shuttle, §5.1 |
//! | `cpu.config_overlap` | Cpu | CPU iterations concurrent with configuration, §5.1 |
//! | `offload` | Controller | accelerated execution window |
//! | `accel.execute` | Accelerator | one span per engine run (profile segment) |
//! | `reoptimize` | Controller | F3 iterative optimization round, §5.2 |
//!
//! Instant events: `hot_loop` (detection verdict), `reject` (C1–C3
//! failure, carrying the rendered reject reason), `reconfigure`
//! (an accepted re-mapping). Counter events carry memory-system and
//! accelerator activity totals at phase boundaries.
//!
//! # Capturing a trace
//!
//! ```
//! use mesa_trace::{RingTracer, Subsystem, Tracer};
//!
//! let mut t = RingTracer::new(1024);
//! t.span_begin(Subsystem::Controller, "detect", 0);
//! t.instant(Subsystem::Controller, "hot_loop", "pc=[0x1000,0x1010)", 950);
//! t.span_end(Subsystem::Controller, "detect", 1000);
//! t.counter(Subsystem::Memory, "mem.dram_accesses", 42, 1000);
//!
//! let chrome = t.to_chrome_trace();     // load in chrome://tracing / Perfetto
//! let jsonl = t.to_json_lines();        // one event per line
//! let summary = t.timeline_summary();   // plain-text per-span aggregate
//! assert!(mesa_trace::validate_chrome_trace(&chrome).is_ok());
//! # let _ = (jsonl, summary);
//! ```
// `deny` rather than `forbid`: the counting global allocator in
// [`alloc`] needs one `#[allow(unsafe_code)]` for its `GlobalAlloc`
// impl (the trait is unsafe by contract); everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod export;
pub mod flight;
pub mod fnv;
pub mod folded;
pub mod histogram;
pub mod host;
pub mod json;
pub mod tracer;

pub use alloc::{AllocStats, CountingAlloc};
pub use export::{validate_chrome_trace, ChromeTraceSummary};
pub use flight::FlightRecorder;
pub use fnv::Fnv64;
pub use histogram::Histogram;
pub use host::{
    ClockSpec, HostClock, HostProfile, HostProfiler, HostSpan, MockClock, RealClock, SpanGuard,
};
pub use json::{json_string, Json};
pub use tracer::{Event, EventKind, NullTracer, RingTracer, Subsystem, Tracer};
