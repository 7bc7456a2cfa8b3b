//! Host-side (wall-clock) span profiling.
//!
//! Everything else in `mesa-trace` observes *simulated* cycles; this
//! module is the one sanctioned home of wall-clock time in the whole
//! workspace (a CI grep gate forbids `std::time::Instant` anywhere
//! else). It answers the question the simulated-cycle tracer cannot:
//! *where does the simulator's own host time and memory go?* — the
//! measurement layer ROADMAP item 3 (interpreter-class raw speed)
//! optimizes against.
//!
//! Design rules, mirroring the crate-level ones:
//!
//! 1. **Clock behind a trait.** [`HostClock`] has a real
//!    [`std::time::Instant`]-backed implementation ([`RealClock`]) and a
//!    deterministic [`MockClock`] that advances by a fixed step per
//!    reading, so every export is byte-reproducible in tests at any
//!    worker count.
//! 2. **Exact conservation.** A [`HostSpan`]'s exported `total_ns` is
//!    `max(busy_ns, Σ children.total_ns)` and `self_ns` is
//!    `total_ns − Σ children.total_ns`, so `Σ self + Σ child totals ==
//!    total` holds exactly at every node — even after merging parallel
//!    worker subtrees whose summed wall time exceeds the parent's.
//!    Rendered percentages use the same largest-remainder apportionment
//!    as `mesa-profile`, so they also sum exactly.
//! 3. **Free when off.** [`span`] is a single relaxed atomic load when
//!    profiling is disabled; the `host/*` bench pair in `mesa-bench`
//!    gates the instrumented offload path to ≤1.05× of the
//!    uninstrumented one.
//!
//! # Capturing a host profile
//!
//! ```
//! use mesa_trace::host;
//!
//! host::enable(host::ClockSpec::Mock { step_ns: 1_000 });
//! host::install();
//! {
//!     let _outer = host::span("episode");
//!     host::sim_cycles(4096);
//!     let _inner = host::span("offload");
//! } // guards close the spans in drop order
//! let profile = host::take().expect("profiler was installed");
//! host::disable();
//! assert_eq!(profile.total_ns(), profile.roots[0].total_ns());
//! assert_eq!(profile.to_json().get("schema"), Some(&"mesa.hostprofile/v1".into()));
//! ```

use crate::alloc as alloc_counters;
use crate::alloc::AllocStats;
use crate::histogram::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock. The trait exists so every measurement
/// site can run against either real wall time ([`RealClock`]) or a
/// deterministic test double ([`MockClock`]).
pub trait HostClock: Send {
    /// Current reading in nanoseconds since the clock's epoch.
    fn now_ns(&mut self) -> u64;
    /// `"real"` or `"mock"` — exported in profile headers.
    fn kind(&self) -> &'static str;
}

/// Wall-clock [`HostClock`] backed by [`std::time::Instant`]. This is
/// the workspace's only permitted `Instant` call site.
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A clock whose epoch is "now".
    #[must_use]
    pub fn new() -> Self {
        RealClock { epoch: Instant::now() }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl HostClock for RealClock {
    fn now_ns(&mut self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn kind(&self) -> &'static str {
        "real"
    }
}

/// Deterministic [`HostClock`]: every reading advances the clock by a
/// fixed `step_ns`, so a run's timings are a pure function of how many
/// times the clock was read — byte-identical at any `--jobs N`.
#[derive(Debug, Clone)]
pub struct MockClock {
    now: u64,
    step_ns: u64,
}

impl MockClock {
    /// A mock clock starting at zero that advances `step_ns` per reading.
    #[must_use]
    pub fn new(step_ns: u64) -> Self {
        MockClock { now: 0, step_ns }
    }
}

impl HostClock for MockClock {
    fn now_ns(&mut self) -> u64 {
        self.now = self.now.saturating_add(self.step_ns);
        self.now
    }

    fn kind(&self) -> &'static str {
        "mock"
    }
}

/// Which clock [`install`] and [`scoped`] should construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockSpec {
    /// Real wall clock — measurement mode.
    Real,
    /// Deterministic mock advancing `step_ns` per reading — test mode.
    /// Per-span allocation deltas are suppressed under the mock clock
    /// (allocator interleaving across threads is not deterministic).
    Mock {
        /// Nanoseconds the clock advances per reading.
        step_ns: u64,
    },
}

impl ClockSpec {
    /// Constructs the clock this spec describes.
    #[must_use]
    pub fn make(self) -> Box<dyn HostClock> {
        match self {
            ClockSpec::Real => Box::new(RealClock::new()),
            ClockSpec::Mock { step_ns } => Box::new(MockClock::new(step_ns)),
        }
    }
}

/// One aggregated span in a finished [`HostProfile`] tree. Repeated
/// entries into the same `name` under the same parent fold into one
/// node (calls counts them; `dur` histograms the per-call durations).
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpan {
    /// Span name (e.g. `"detect"`, `"episode"`).
    pub name: String,
    /// Measured wall nanoseconds across all calls (may be less than the
    /// children's sum after merging parallel worker subtrees).
    pub busy_ns: u64,
    /// Times this span was entered.
    pub calls: u64,
    /// Simulated cycles attributed to this span via [`sim_cycles`].
    pub sim_cycles: u64,
    /// Heap allocations made while the span was innermost-open
    /// (zero under the mock clock or when counting is off).
    pub alloc_count: u64,
    /// Heap bytes requested while the span was innermost-open.
    pub alloc_bytes: u64,
    /// Per-call duration histogram (`dur.count() == calls`).
    pub dur: Histogram,
    /// Child spans, in first-entry order.
    pub children: Vec<HostSpan>,
}

impl HostSpan {
    fn new(name: &str) -> Self {
        HostSpan {
            name: name.to_string(),
            busy_ns: 0,
            calls: 0,
            sim_cycles: 0,
            alloc_count: 0,
            alloc_bytes: 0,
            dur: Histogram::new(),
            children: Vec::new(),
        }
    }

    /// Sum of the children's conserved totals.
    #[must_use]
    fn children_ns(&self) -> u64 {
        self.children.iter().fold(0u64, |acc, c| acc.saturating_add(c.total_ns()))
    }

    /// Conserved total: `max(busy_ns, Σ children.total_ns)`. Using the
    /// max keeps `Σ self + Σ children == total` exact even when merged
    /// parallel subtrees carry more summed wall time than the parent.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.busy_ns.max(self.children_ns())
    }

    /// Conserved self time: `total_ns − Σ children.total_ns`.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.total_ns() - self.children_ns()
    }

    /// Simulated cycles in this subtree (self + descendants).
    #[must_use]
    fn sim_cycles_deep(&self) -> u64 {
        self.children
            .iter()
            .fold(self.sim_cycles, |acc, c| acc.saturating_add(c.sim_cycles_deep()))
    }

    /// Folds `other` into `self` by name, recursively: counters add,
    /// duration histograms merge exactly, children match by name (new
    /// names append in `other`'s order).
    pub fn merge(&mut self, other: &HostSpan) {
        self.busy_ns = self.busy_ns.saturating_add(other.busy_ns);
        self.calls = self.calls.saturating_add(other.calls);
        self.sim_cycles = self.sim_cycles.saturating_add(other.sim_cycles);
        self.alloc_count = self.alloc_count.saturating_add(other.alloc_count);
        self.alloc_bytes = self.alloc_bytes.saturating_add(other.alloc_bytes);
        self.dur.merge(&other.dur);
        for theirs in &other.children {
            match self.children.iter_mut().find(|c| c.name == theirs.name) {
                Some(mine) => mine.merge(theirs),
                None => self.children.push(theirs.clone()),
            }
        }
    }
}

/// A finished host profile: the span tree plus process-level context
/// (clock kind, wall time, allocator totals, throughput gauges).
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// `"real"` or `"mock"`.
    pub clock: &'static str,
    /// Clock reading when the profile was finished.
    pub wall_ns: u64,
    /// Global allocator counters at finish (disabled/zero under the
    /// mock clock so exports stay deterministic).
    pub alloc: AllocStats,
    /// Named throughput gauges (e.g. `episodes_per_sec`), exported in
    /// key order.
    pub gauges: BTreeMap<String, f64>,
    /// Root spans, in first-entry order.
    pub roots: Vec<HostSpan>,
}

impl HostProfile {
    /// Conserved profile total: the sum of the roots' totals.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().fold(0u64, |acc, r| acc.saturating_add(r.total_ns()))
    }

    /// Simulated cycles attributed anywhere in the tree.
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.roots.iter().fold(0u64, |acc, r| acc.saturating_add(r.sim_cycles_deep()))
    }

    /// Folds `other` into `self`: roots merge by name, wall time adds,
    /// allocator counters take the field-wise max (they are snapshots
    /// of the same process-global counters, not disjoint deltas), and
    /// missing gauges copy over.
    pub fn merge(&mut self, other: &HostProfile) {
        self.wall_ns = self.wall_ns.saturating_add(other.wall_ns);
        self.alloc.merge_max(&other.alloc);
        for (k, v) in &other.gauges {
            self.gauges.entry(k.clone()).or_insert(*v);
        }
        for theirs in &other.roots {
            match self.roots.iter_mut().find(|r| r.name == theirs.name) {
                Some(mine) => mine.merge(theirs),
                None => self.roots.push(theirs.clone()),
            }
        }
    }

    /// Plain-text rendering with exactly-conserved permille columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.total_ns();
        let _ = writeln!(
            out,
            "host profile ({} clock): total {}, wall {}",
            self.clock,
            fmt_ns(total),
            fmt_ns(self.wall_ns)
        );
        if self.alloc.enabled {
            let _ = writeln!(
                out,
                "alloc: {} allocations, {} total, peak {}",
                self.alloc.allocations,
                fmt_bytes(self.alloc.total_bytes),
                fmt_bytes(self.alloc.peak_bytes)
            );
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} = {}", fmt_gauge(*value));
        }
        let weights: Vec<u64> = self.roots.iter().map(HostSpan::total_ns).collect();
        let units = apportion(1000, &weights);
        for (root, share) in self.roots.iter().zip(units) {
            render_span(&mut out, root, share, 1);
        }
        out
    }
}

fn render_span(out: &mut String, span: &HostSpan, permille: u64, depth: usize) {
    let _ = writeln!(
        out,
        "{:indent$}{:<24} {:>5.1}%  total {}  self {}  calls {}  sim {}",
        "",
        span.name,
        permille as f64 / 10.0,
        fmt_ns(span.total_ns()),
        fmt_ns(span.self_ns()),
        span.calls,
        span.sim_cycles,
        indent = depth * 2
    );
    if span.children.is_empty() {
        return;
    }
    // Re-apportion this node's permille share across [self, children...]
    // so every level of the rendering conserves exactly.
    let mut weights: Vec<u64> = Vec::with_capacity(span.children.len() + 1);
    weights.push(span.self_ns());
    weights.extend(span.children.iter().map(HostSpan::total_ns));
    let shares = apportion(permille, &weights);
    for (child, share) in span.children.iter().zip(shares.into_iter().skip(1)) {
        render_span(out, child, share, depth + 1);
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Deterministic gauge formatting for text reports: finite values as
/// `{:.3}`, anything else as `null` (the same rendering the JSON export's
/// [`Json::fixed`](crate::Json::fixed) gives).
#[must_use]
pub fn fmt_gauge(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Events-per-second over a wall-clock window, guarded against the
/// zero-width windows every rolling-rate display eventually hits: the
/// first refresh tick (no previous sample), a `MockClock` that did not
/// step between two readings, or two samples racing the same clock edge.
/// Returns `None` for a zero-width window instead of dividing by zero —
/// render it as `-`, never as `inf`/`NaN` garbage.
#[must_use]
pub fn rate_per_sec(events: u64, window_ns: u64) -> Option<f64> {
    (window_ns > 0).then(|| events as f64 * 1e9 / window_ns as f64)
}

/// [`rate_per_sec`] pre-rendered for dashboards: the rate as `{:.3}`, or
/// `-` when the window is zero-width.
#[must_use]
pub fn fmt_rate(events: u64, window_ns: u64) -> String {
    rate_per_sec(events, window_ns).map_or_else(|| "-".to_string(), |r| format!("{r:.3}"))
}

/// Splits `total` units across `weights` proportionally with the
/// largest-remainder method (the same exact-conservation style as
/// `mesa-profile`'s top-down buckets): the returned shares always sum
/// to `total` when any weight is nonzero; ties break by index.
#[must_use]
pub fn apportion(total: u64, weights: &[u64]) -> Vec<u64> {
    let sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if sum == 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let numer = u128::from(total) * u128::from(w);
        let floor = (numer / sum) as u64;
        shares.push(floor);
        assigned = assigned.saturating_add(floor);
        remainders.push((numer % sum, i));
    }
    // Hand the leftover units to the largest remainders, index-ordered
    // on ties for determinism.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = total.saturating_sub(assigned);
    for &(_, i) in &remainders {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

struct Node {
    span: HostSpan,
    children_idx: Vec<usize>,
}

struct Frame {
    node: usize,
    start_ns: u64,
    start_allocs: u64,
    start_bytes: u64,
}

/// Accumulates wall-clock spans into a conserving tree. One profiler
/// per thread; worker profiles from [`scoped`] merge back into the
/// parent in input order, keeping exports `--jobs`-invariant.
pub struct HostProfiler {
    clock: Box<dyn HostClock>,
    clock_kind: &'static str,
    /// Per-span allocation deltas are only meaningful under the real
    /// clock; under the mock clock they would leak scheduling
    /// nondeterminism into byte-compared exports.
    track_allocs: bool,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    open: Vec<Frame>,
}

impl std::fmt::Debug for HostProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostProfiler")
            .field("clock", &self.clock_kind)
            .field("nodes", &self.nodes.len())
            .field("open", &self.open.len())
            .finish()
    }
}

impl HostProfiler {
    /// A profiler reading from the given clock.
    #[must_use]
    pub fn new(clock: Box<dyn HostClock>) -> Self {
        let clock_kind = clock.kind();
        HostProfiler {
            clock,
            clock_kind,
            track_allocs: clock_kind == "real",
            nodes: Vec::new(),
            roots: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A profiler whose clock is built from `spec`.
    #[must_use]
    pub fn from_spec(spec: ClockSpec) -> Self {
        HostProfiler::new(spec.make())
    }

    fn find_or_create(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children_idx,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&i| self.nodes[i].span.name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node { span: HostSpan::new(name), children_idx: Vec::new() });
        match parent {
            Some(p) => self.nodes[p].children_idx.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &str) {
        let parent = self.open.last().map(|f| f.node);
        let idx = self.find_or_create(parent, name);
        let (start_allocs, start_bytes) = if self.track_allocs && alloc_counters::counting() {
            let s = alloc_counters::stats();
            (s.allocations, s.total_bytes)
        } else {
            (0, 0)
        };
        let start_ns = self.clock.now_ns();
        self.open.push(Frame { node: idx, start_ns, start_allocs, start_bytes });
    }

    /// Closes the innermost open span (no-op if none is open).
    pub fn end(&mut self) {
        let Some(frame) = self.open.pop() else { return };
        let now = self.clock.now_ns();
        let dt = now.saturating_sub(frame.start_ns);
        let track = self.track_allocs && alloc_counters::counting();
        let delta = if track {
            let s = alloc_counters::stats();
            Some((
                s.allocations.saturating_sub(frame.start_allocs),
                s.total_bytes.saturating_sub(frame.start_bytes),
            ))
        } else {
            None
        };
        let span = &mut self.nodes[frame.node].span;
        span.busy_ns = span.busy_ns.saturating_add(dt);
        span.calls = span.calls.saturating_add(1);
        span.dur.record(dt);
        if let Some((count, bytes)) = delta {
            span.alloc_count = span.alloc_count.saturating_add(count);
            span.alloc_bytes = span.alloc_bytes.saturating_add(bytes);
        }
    }

    /// Attributes `n` simulated cycles to the innermost open span.
    pub fn attribute_sim_cycles(&mut self, n: u64) {
        if let Some(frame) = self.open.last() {
            let span = &mut self.nodes[frame.node].span;
            span.sim_cycles = span.sim_cycles.saturating_add(n);
        }
    }

    /// Grafts a finished worker profile under the innermost open span
    /// (or at the roots), merging by name. Call in input order to keep
    /// the merged export independent of worker count.
    pub fn adopt(&mut self, profile: &HostProfile) {
        let parent = self.open.last().map(|f| f.node);
        for root in &profile.roots {
            self.adopt_span(parent, root);
        }
    }

    fn adopt_span(&mut self, parent: Option<usize>, span: &HostSpan) {
        let idx = self.find_or_create(parent, &span.name);
        let mine = &mut self.nodes[idx].span;
        mine.busy_ns = mine.busy_ns.saturating_add(span.busy_ns);
        mine.calls = mine.calls.saturating_add(span.calls);
        mine.sim_cycles = mine.sim_cycles.saturating_add(span.sim_cycles);
        mine.alloc_count = mine.alloc_count.saturating_add(span.alloc_count);
        mine.alloc_bytes = mine.alloc_bytes.saturating_add(span.alloc_bytes);
        mine.dur.merge(&span.dur);
        for child in &span.children {
            self.adopt_span(Some(idx), child);
        }
    }

    /// Closes any still-open spans and yields the finished profile.
    #[must_use]
    pub fn finish(mut self) -> HostProfile {
        while !self.open.is_empty() {
            self.end();
        }
        let wall_ns = self.clock.now_ns();
        let alloc = if self.track_allocs && alloc_counters::counting() {
            alloc_counters::stats()
        } else {
            AllocStats::default()
        };
        let roots = self
            .roots
            .clone()
            .into_iter()
            .map(|idx| build_span(&mut self.nodes, idx))
            .collect();
        HostProfile { clock: self.clock_kind, wall_ns, alloc, gauges: BTreeMap::new(), roots }
    }
}

fn build_span(nodes: &mut [Node], idx: usize) -> HostSpan {
    let children_idx = std::mem::take(&mut nodes[idx].children_idx);
    let children: Vec<HostSpan> =
        children_idx.into_iter().map(|c| build_span(nodes, c)).collect();
    let mut span = std::mem::replace(&mut nodes[idx].span, HostSpan::new(""));
    span.children = children;
    span
}

// --- process-global enablement + per-thread profiler ------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPEC_IS_MOCK: AtomicBool = AtomicBool::new(false);
static SPEC_STEP_NS: AtomicU64 = AtomicU64::new(0);
static EPISODES: AtomicU64 = AtomicU64::new(0);
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static PROFILER: RefCell<Option<HostProfiler>> = const { RefCell::new(None) };
}

/// Turns host profiling on process-wide with the given clock spec.
/// Threads still need [`install`] (or [`scoped`]) to start recording.
pub fn enable(spec: ClockSpec) {
    match spec {
        ClockSpec::Real => SPEC_IS_MOCK.store(false, Ordering::Relaxed),
        ClockSpec::Mock { step_ns } => {
            SPEC_STEP_NS.store(step_ns, Ordering::Relaxed);
            SPEC_IS_MOCK.store(true, Ordering::Relaxed);
        }
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns host profiling off process-wide; [`span`] reverts to a single
/// atomic load.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether host profiling is enabled process-wide.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The clock spec new profilers are built from.
#[must_use]
pub fn spec() -> ClockSpec {
    if SPEC_IS_MOCK.load(Ordering::Relaxed) {
        ClockSpec::Mock { step_ns: SPEC_STEP_NS.load(Ordering::Relaxed) }
    } else {
        ClockSpec::Real
    }
}

/// Installs a fresh profiler on the current thread (replacing any
/// prior one). No-op when profiling is disabled.
pub fn install() {
    if !enabled() {
        return;
    }
    let prof = HostProfiler::from_spec(spec());
    PROFILER.with(|p| *p.borrow_mut() = Some(prof));
}

/// Finishes and removes the current thread's profiler, if any.
pub fn take() -> Option<HostProfile> {
    PROFILER.with(|p| p.borrow_mut().take()).map(HostProfiler::finish)
}

/// RAII guard returned by [`span`]; closes the span on drop.
#[must_use = "the span closes when this guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            PROFILER.with(|p| {
                if let Some(prof) = p.borrow_mut().as_mut() {
                    prof.end();
                }
            });
        }
    }
}

/// Opens a named span on the current thread's profiler. Free (one
/// relaxed atomic load) when profiling is off or no profiler is
/// installed on this thread.
pub fn span(name: &str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { active: false };
    }
    PROFILER.with(|p| match p.borrow_mut().as_mut() {
        Some(prof) => {
            prof.begin(name);
            SpanGuard { active: true }
        }
        None => SpanGuard { active: false },
    })
}

/// Attributes simulated cycles to the innermost open host span on this
/// thread (no-op when profiling is off).
pub fn sim_cycles(n: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    PROFILER.with(|p| {
        if let Some(prof) = p.borrow_mut().as_mut() {
            prof.attribute_sim_cycles(n);
        }
    });
}

/// Runs `f` under a fresh profiler (the current thread's profiler, if
/// any, is shelved and restored afterwards) and returns `f`'s result
/// plus the finished profile. When profiling is off, just runs `f`.
///
/// This is how the figures pool gives every work item its own profile
/// regardless of which worker thread runs it: per-item profiles merge
/// back in input order, so the aggregate is `--jobs`-invariant.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Option<HostProfile>) {
    if !ENABLED.load(Ordering::Relaxed) {
        return (f(), None);
    }
    let saved = PROFILER.with(|p| p.borrow_mut().take());
    PROFILER.with(|p| *p.borrow_mut() = Some(HostProfiler::from_spec(spec())));
    let result = f();
    let prof = PROFILER.with(|p| p.borrow_mut().take());
    PROFILER.with(|p| *p.borrow_mut() = saved);
    (result, prof.map(HostProfiler::finish))
}

/// Grafts a finished profile into the current thread's profiler under
/// its innermost open span (no-op when profiling is off).
pub fn adopt(profile: &HostProfile) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    PROFILER.with(|p| {
        if let Some(prof) = p.borrow_mut().as_mut() {
            prof.adopt(profile);
        }
    });
}

/// Records one completed offload episode and its simulated cycles in
/// the process-global throughput counters (always counted — the
/// counters are two relaxed atomic adds and feed the `figures`/`soak`
/// wall-clock summary lines and `mesa-top`'s host columns).
pub fn record_episode(cycles: u64) {
    EPISODES.fetch_add(1, Ordering::Relaxed);
    SIM_CYCLES.fetch_add(cycles, Ordering::Relaxed);
}

/// Episodes recorded process-wide via [`record_episode`].
#[must_use]
pub fn episodes_total() -> u64 {
    EPISODES.load(Ordering::Relaxed)
}

/// Simulated cycles recorded process-wide via [`record_episode`].
#[must_use]
pub fn sim_cycles_total() -> u64 {
    SIM_CYCLES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_of(f: impl FnOnce(&mut HostProfiler)) -> HostProfile {
        let mut prof = HostProfiler::from_spec(ClockSpec::Mock { step_ns: 10 });
        f(&mut prof);
        prof.finish()
    }

    #[test]
    fn mock_clock_is_deterministic() {
        let mut a = MockClock::new(7);
        let mut b = MockClock::new(7);
        for _ in 0..5 {
            assert_eq!(a.now_ns(), b.now_ns());
        }
        assert_eq!(a.now_ns(), 42);
    }

    #[test]
    fn nested_spans_conserve_exactly() {
        let p = profile_of(|prof| {
            prof.begin("episode");
            prof.attribute_sim_cycles(100);
            prof.begin("detect");
            prof.end();
            prof.begin("offload");
            prof.attribute_sim_cycles(900);
            prof.end();
            prof.end();
        });
        assert_eq!(p.roots.len(), 1);
        let ep = &p.roots[0];
        assert_eq!(ep.name, "episode");
        assert_eq!(ep.children.len(), 2);
        assert_eq!(ep.self_ns() + ep.children_ns(), ep.total_ns());
        assert_eq!(p.total_ns(), ep.total_ns());
        assert_eq!(p.sim_cycles(), 1000);
        assert_eq!(ep.sim_cycles, 100);
        assert_eq!(ep.children[1].sim_cycles, 900);
        assert!(ep.busy_ns >= ep.children_ns());
    }

    #[test]
    fn repeated_spans_fold_with_duration_histogram() {
        let p = profile_of(|prof| {
            for _ in 0..5 {
                prof.begin("episode");
                prof.end();
            }
        });
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].calls, 5);
        assert_eq!(p.roots[0].dur.count(), 5);
    }

    #[test]
    fn unbalanced_open_spans_close_at_finish() {
        let p = profile_of(|prof| {
            prof.begin("a");
            prof.begin("b");
            // finish() must close both.
        });
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].children.len(), 1);
        assert_eq!(p.roots[0].self_ns() + p.roots[0].children_ns(), p.roots[0].total_ns());
    }

    #[test]
    fn merge_of_parallel_worker_subtrees_keeps_conservation() {
        // Two "workers" each spend more summed time than the parent
        // wall-clock span that adopts them — conservation must survive
        // via the max() total.
        let worker = |cycles| {
            profile_of(|prof| {
                prof.begin("item");
                prof.attribute_sim_cycles(cycles);
                prof.begin("inner");
                prof.end();
                prof.end();
            })
        };
        let a = worker(10);
        let b = worker(20);
        let mut prof = HostProfiler::from_spec(ClockSpec::Mock { step_ns: 1 });
        prof.begin("figure");
        prof.adopt(&a);
        prof.adopt(&b);
        prof.end();
        let p = prof.finish();
        let fig = &p.roots[0];
        assert_eq!(fig.children.len(), 1, "same-named worker roots fold");
        assert_eq!(fig.children[0].calls, 2);
        assert_eq!(fig.children[0].sim_cycles, 30);
        assert_eq!(fig.self_ns() + fig.children_ns(), fig.total_ns());
        assert!(fig.total_ns() >= fig.children_ns());
        // The parent's busy time (a few 1ns ticks) is far below the
        // adopted children's sum, so the max() branch is exercised.
        assert!(fig.busy_ns < fig.children_ns());
        assert_eq!(fig.self_ns(), 0);
    }

    // Tests that flip the process-global ENABLED flag serialize on a
    // lock so parallel test threads don't observe each other's state.
    static ENABLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn cross_thread_scoped_profiles_merge_into_parent() {
        let _guard = ENABLE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        enable(ClockSpec::Mock { step_ns: 5 });
        install();
        let outer = span("driver");
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    // Worker threads have no installed profiler, but
                    // profiling is enabled, so scoped() records.
                    let (val, prof) = scoped(|| {
                        let _g = span("work");
                        sim_cycles(7);
                        i
                    });
                    (val, prof.expect("scoped records when enabled"))
                })
            })
            .collect();
        let mut profs: Vec<(usize, HostProfile)> =
            handles.into_iter().map(|h| h.join().expect("worker")).collect();
        profs.sort_by_key(|(i, _)| *i);
        for (_, prof) in &profs {
            adopt(prof);
        }
        drop(outer);
        let p = take().expect("installed");
        disable();
        let driver = &p.roots[0];
        assert_eq!(driver.name, "driver");
        assert_eq!(driver.children.len(), 1);
        assert_eq!(driver.children[0].name, "work");
        assert_eq!(driver.children[0].calls, 3);
        assert_eq!(driver.children[0].sim_cycles, 21);
        assert_eq!(driver.self_ns() + driver.children_ns(), driver.total_ns());
    }

    #[test]
    fn span_is_inert_when_disabled() {
        let _guard = ENABLE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        disable();
        let g = span("nothing");
        assert!(!g.active);
        drop(g);
        sim_cycles(1);
        let (v, prof) = scoped(|| 42);
        assert_eq!(v, 42);
        assert!(prof.is_none());
    }

    #[test]
    fn apportion_conserves_and_is_deterministic() {
        assert_eq!(apportion(1000, &[1, 1, 1]).iter().sum::<u64>(), 1000);
        assert_eq!(apportion(1000, &[0, 0]), vec![0, 0]);
        assert_eq!(apportion(10, &[3, 3, 3]), vec![4, 3, 3]);
        let a = apportion(997, &[123, 456, 789, 1]);
        assert_eq!(a.iter().sum::<u64>(), 997);
        assert_eq!(a, apportion(997, &[123, 456, 789, 1]));
    }

    #[test]
    fn mock_profiles_suppress_alloc_deltas() {
        let p = profile_of(|prof| {
            prof.begin("x");
            let v: Vec<u64> = (0..100).collect();
            assert_eq!(v.len(), 100);
            prof.end();
        });
        assert_eq!(p.roots[0].alloc_count, 0);
        assert_eq!(p.roots[0].alloc_bytes, 0);
        assert!(!p.alloc.enabled);
    }

    #[test]
    fn render_mentions_clock_and_spans() {
        let mut p = profile_of(|prof| {
            prof.begin("episode");
            prof.begin("offload");
            prof.end();
            prof.end();
        });
        p.gauges.insert("episodes_per_sec".to_string(), 12.5);
        let text = p.render();
        assert!(text.contains("mock clock"));
        assert!(text.contains("episode"));
        assert!(text.contains("offload"));
        assert!(text.contains("episodes_per_sec"));
    }

    /// Regression for the rolling-rate windows in `mesa-top` and the
    /// serve loadgen: a zero-width window (first refresh tick, or two
    /// samples between `MockClock` steps) must yield "no rate", never a
    /// division by zero rendered as `inf`/`NaN`.
    #[test]
    fn rate_per_sec_guards_zero_width_windows() {
        assert_eq!(rate_per_sec(100, 0), None);
        assert_eq!(rate_per_sec(0, 0), None);
        assert_eq!(fmt_rate(100, 0), "-");
        assert_eq!(rate_per_sec(5, 1_000_000_000), Some(5.0));
        assert_eq!(rate_per_sec(0, 1_000_000_000), Some(0.0));
        assert_eq!(fmt_rate(3, 2_000_000_000), "1.500");

        // The MockClock scenario that used to produce the zero-width
        // window: a step-0 clock reads the same instant twice, so the
        // delta between two refresh ticks is exactly zero.
        let mut clock = MockClock::new(0);
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert_eq!(b - a, 0);
        assert_eq!(rate_per_sec(42, b - a), None);

        // A stepping clock yields a finite, exact rate.
        let mut clock = MockClock::new(500_000_000);
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert_eq!(rate_per_sec(1, b - a), Some(2.0));
    }
}
