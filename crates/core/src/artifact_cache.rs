//! Shared cross-request artifact cache for the serving layer.
//!
//! One-shot binaries pay detect → translate → map for every episode even
//! when the fabric just ran the same kernel, because the decoded-`Program`
//! cache and the configuration cache live inside a single
//! [`MesaController`](crate::MesaController) and die with it. The
//! [`SharedArtifactCache`] promotes both to a process-wide, `Arc`-shared
//! store that any number of controllers (one per request, one per tenant,
//! one per worker thread) can consult concurrently:
//!
//! * **Decoded programs** — keyed by `(start_pc, end_pc, fill
//!   fingerprint)`, where the fingerprint digests the exact machine words
//!   the trace cache captured ([`TraceCache::fill_fingerprint`]
//!   (mesa_cpu::TraceCache::fill_fingerprint)). The fingerprint is the
//!   cross-controller analog of the per-controller fill *generation*: a
//!   self-modifying region that rewrites its code between two requests
//!   hashes to a different key even though `(start_pc, end_pc)` is
//!   unchanged, so a stale decode can never be served.
//! * **Mapped artifacts** — the `AccelProgram` + model estimate produced
//!   by Algorithm 1 + T3, keyed by a fingerprint over everything the
//!   mapping is a pure function of: the latency-weighted DFG (including
//!   AMAT-seeded op weights), the annotation, the expected trip count,
//!   the accelerator/grid configuration, the optimization flags, and the
//!   mapper parameters.
//!
//! The cache is **architecturally invisible**: a hit returns bit-identical
//! artifacts to what the cold path would have computed (every keyed input
//! is part of the fingerprint and the producers are deterministic), and
//! the controller still charges the analytic configuration latency of the
//! cold path on a hit — so an [`OffloadReport`](crate::OffloadReport) is
//! byte-identical at any cache state. Only *host-side* work is skipped.
//!
//! Capacity is bounded with deterministic FIFO eviction so a soak run
//! cannot grow without bound, and hit/miss/insert/evict counters are
//! exported through [`ArtifactCacheStats`] into `MetricsRegistry` and
//! `FleetStats`.

use crate::{Ldfg, MapperConfig, OptFlags};
use mesa_accel::{AccelConfig, AccelProgram};
use mesa_isa::{ParallelKind, Program};
use mesa_trace::{Fnv64, Json, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

/// Default bound on entries per map (decoded programs and mapped
/// artifacts are bounded independently).
const DEFAULT_CAPACITY: usize = 256;

/// Fingerprint of everything the F2 map/configure stage is a pure
/// function of. Two episodes with equal fingerprints would compute
/// bit-identical `(AccelProgram, initial_estimate)` pairs, so the cached
/// pair can stand in for the cold computation.
///
/// The LDFG's structure (nodes, operands, guards, live-outs) is itself a
/// pure function of the region's machine words, which
/// `region_fingerprint` (the trace cache's fill fingerprint) already
/// digests — so only the *measured* inputs layered on top need hashing
/// here: the AMAT-seeded node and edge weights. The small configuration
/// structs enter through their derived [`Hash`], so the whole key is
/// O(nodes) integer mixing into one [`Fnv64`] with no formatting or
/// allocation.
#[must_use]
pub(crate) fn artifact_fingerprint(
    region_fingerprint: u64,
    ldfg: &Ldfg,
    annotation: Option<ParallelKind>,
    accel: &AccelConfig,
    opts: &OptFlags,
    mapper: &MapperConfig,
    expected_iterations: u64,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(region_fingerprint);
    h.write_u64(ldfg.start_pc);
    h.write_u64(ldfg.end_pc);
    for node in &ldfg.nodes {
        h.write_u64(node.op_weight);
        h.write_u64(node.edge_weight[0]);
        h.write_u64(node.edge_weight[1]);
    }
    (annotation, accel, opts, mapper).hash(&mut h);
    h.write_u64(expected_iterations);
    h.finish()
}

/// Hit/miss/insert/evict counters of a [`SharedArtifactCache`], split by
/// the two artifact kinds it stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactCacheStats {
    /// Decoded-`Program` lookups served from the cache.
    pub program_hits: u64,
    /// Decoded-`Program` lookups that fell through to a fresh decode.
    pub program_misses: u64,
    /// Mapped-artifact lookups served from the cache (the big win: a hit
    /// skips Algorithm 1, the memory-opt analysis, program build, and
    /// validation).
    pub artifact_hits: u64,
    /// Mapped-artifact lookups that fell through to the cold path.
    pub artifact_misses: u64,
    /// Entries inserted (both kinds).
    pub inserts: u64,
    /// Entries evicted to respect the capacity bound (both kinds).
    pub evictions: u64,
}

impl ArtifactCacheStats {
    /// Total lookups served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.program_hits + self.artifact_hits
    }

    /// Total lookups that fell through.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.program_misses + self.artifact_misses
    }

    /// Fraction of lookups served from the cache; `None` before the
    /// first lookup (no garbage 0/0 quantities reach a dashboard).
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits() + self.misses();
        (total > 0).then(|| self.hits() as f64 / total as f64)
    }

    /// Field-wise accumulation (used when merging fleet exports).
    pub fn absorb(&mut self, other: &ArtifactCacheStats) {
        self.program_hits += other.program_hits;
        self.program_misses += other.program_misses;
        self.artifact_hits += other.artifact_hits;
        self.artifact_misses += other.artifact_misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
    }

    /// Registers the counters into `reg` under the `artifact_cache.`
    /// prefix.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.add("artifact_cache.program_hits", self.program_hits);
        reg.add("artifact_cache.program_misses", self.program_misses);
        reg.add("artifact_cache.artifact_hits", self.artifact_hits);
        reg.add("artifact_cache.artifact_misses", self.artifact_misses);
        reg.add("artifact_cache.inserts", self.inserts);
        reg.add("artifact_cache.evictions", self.evictions);
        if let Some(rate) = self.hit_rate() {
            reg.gauge("artifact_cache.hit_rate", rate);
        }
    }

    /// JSON object (all fields numeric, in a fixed order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("program_hits", self.program_hits.into()),
            ("program_misses", self.program_misses.into()),
            ("artifact_hits", self.artifact_hits.into()),
            ("artifact_misses", self.artifact_misses.into()),
            ("inserts", self.inserts.into()),
            ("evictions", self.evictions.into()),
        ])
    }

    /// One-line human rendering for dashboards and serve summaries.
    #[must_use]
    pub fn render(&self) -> String {
        let rate = self
            .hit_rate()
            .map_or_else(|| "-".to_string(), |r| format!("{:.1}%", r * 100.0));
        format!(
            "hits={} misses={} hit_rate={rate} inserts={} evictions={}",
            self.hits(),
            self.misses(),
            self.inserts,
            self.evictions,
        )
    }
}

/// A cached F2 product: the mapped accelerator program and the model's
/// per-iteration latency estimate at initial mapping.
#[derive(Debug, Clone)]
struct MappedArtifact {
    prog: AccelProgram,
    initial_estimate: u64,
}

/// Interior state behind the [`SharedArtifactCache`] mutex.
#[derive(Debug, Default)]
struct CacheInner {
    programs: HashMap<(u64, u64, u64), Program>,
    program_order: VecDeque<(u64, u64, u64)>,
    artifacts: HashMap<u64, MappedArtifact>,
    artifact_order: VecDeque<u64>,
    stats: ArtifactCacheStats,
}

/// Process-wide, thread-safe cache of decoded programs and mapped
/// accelerator artifacts, shared across controllers (see module docs).
#[derive(Debug)]
pub struct SharedArtifactCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl Default for SharedArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedArtifactCache {
    /// Builds an empty cache with the default capacity bound.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Builds an empty cache bounded to `capacity` entries per artifact
    /// kind (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SharedArtifactCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Locks the interior state, recovering from a poisoned mutex (a
    /// panicking worker must not wedge every other request; the state is
    /// only ever mutated under short, non-panicking critical sections).
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up the decoded [`Program`] for a region whose trace-cache
    /// fill digests to `fingerprint`. Counts a hit or miss.
    #[must_use]
    pub fn lookup_program(&self, start_pc: u64, end_pc: u64, fingerprint: u64) -> Option<Program> {
        let mut inner = self.lock();
        let hit = inner.programs.get(&(start_pc, end_pc, fingerprint)).cloned();
        if hit.is_some() {
            inner.stats.program_hits += 1;
        } else {
            inner.stats.program_misses += 1;
        }
        hit
    }

    /// Inserts a decoded [`Program`] under its region + fill fingerprint,
    /// evicting the oldest entry beyond the capacity bound.
    pub fn insert_program(&self, start_pc: u64, end_pc: u64, fingerprint: u64, prog: Program) {
        let key = (start_pc, end_pc, fingerprint);
        let mut inner = self.lock();
        if inner.programs.insert(key, prog).is_none() {
            inner.program_order.push_back(key);
            inner.stats.inserts += 1;
            while inner.program_order.len() > self.capacity {
                if let Some(old) = inner.program_order.pop_front() {
                    inner.programs.remove(&old);
                    inner.stats.evictions += 1;
                }
            }
        }
    }

    /// Looks up a mapped artifact by its full F2 fingerprint (see
    /// [`artifact_fingerprint`]). Counts a hit or miss.
    #[must_use]
    pub fn lookup_artifact(&self, fingerprint: u64) -> Option<(AccelProgram, u64)> {
        let mut inner = self.lock();
        let hit = inner.artifacts.get(&fingerprint).cloned();
        if let Some(a) = hit {
            inner.stats.artifact_hits += 1;
            Some((a.prog, a.initial_estimate))
        } else {
            inner.stats.artifact_misses += 1;
            None
        }
    }

    /// Inserts a mapped artifact (a validated `AccelProgram` and its
    /// model estimate), evicting the oldest beyond the capacity bound.
    pub fn insert_artifact(&self, fingerprint: u64, prog: AccelProgram, initial_estimate: u64) {
        let mut inner = self.lock();
        if inner
            .artifacts
            .insert(fingerprint, MappedArtifact { prog, initial_estimate })
            .is_none()
        {
            inner.artifact_order.push_back(fingerprint);
            inner.stats.inserts += 1;
            while inner.artifact_order.len() > self.capacity {
                if let Some(old) = inner.artifact_order.pop_front() {
                    inner.artifacts.remove(&old);
                    inner.stats.evictions += 1;
                }
            }
        }
    }

    /// Snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> ArtifactCacheStats {
        self.lock().stats
    }

    /// Entries currently resident, `(decoded programs, mapped artifacts)`.
    #[must_use]
    pub fn len(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.programs.len(), inner.artifacts.len())
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let (p, a) = self.len();
        p == 0 && a == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::reg::abi::*;
    use mesa_isa::Asm;

    fn loop_program(third_op_is_xor: bool) -> Program {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.add(T1, T1, T0);
        if third_op_is_xor {
            a.xor(T2, T1, T0);
        } else {
            a.and(T2, T1, T0);
        }
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        a.finish().unwrap()
    }

    #[test]
    fn program_lookup_counts_hits_and_misses() {
        let cache = SharedArtifactCache::new();
        assert!(cache.lookup_program(0x1000, 0x1014, 7).is_none());
        cache.insert_program(0x1000, 0x1014, 7, loop_program(false));
        assert!(cache.lookup_program(0x1000, 0x1014, 7).is_some());
        let s = cache.stats();
        assert_eq!((s.program_hits, s.program_misses, s.inserts), (1, 1, 1));
        assert_eq!(s.hit_rate(), Some(0.5));
    }

    /// The coherence property behind the stale-artifact bugfix: two
    /// different code images at the *same* `(start_pc, end_pc)` must
    /// occupy distinct cache entries. With a key of only `(start_pc,
    /// end_pc)` — the pre-fix shape — the second request would be served
    /// the first request's stale decode.
    #[test]
    fn same_region_different_fill_does_not_collide() {
        let cache = SharedArtifactCache::new();
        let a = loop_program(false);
        let b = loop_program(true);
        // Distinct fingerprints stand in for the differing fill words.
        cache.insert_program(0x1000, 0x1014, 0xAAAA, a.clone());
        cache.insert_program(0x1000, 0x1014, 0xBBBB, b.clone());
        let got_a = cache.lookup_program(0x1000, 0x1014, 0xAAAA).expect("entry a");
        let got_b = cache.lookup_program(0x1000, 0x1014, 0xBBBB).expect("entry b");
        assert_eq!(format!("{got_a:?}"), format!("{a:?}"));
        assert_eq!(format!("{got_b:?}"), format!("{b:?}"));
        assert_ne!(format!("{got_a:?}"), format!("{got_b:?}"));
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let cache = SharedArtifactCache::with_capacity(2);
        for fp in 0..5u64 {
            cache.insert_program(0x1000, 0x1014, fp, loop_program(false));
        }
        let (programs, _) = cache.len();
        assert_eq!(programs, 2);
        let s = cache.stats();
        assert_eq!(s.inserts, 5);
        assert_eq!(s.evictions, 3);
        // Oldest evicted, newest resident.
        assert!(cache.lookup_program(0x1000, 0x1014, 0).is_none());
        assert!(cache.lookup_program(0x1000, 0x1014, 4).is_some());
    }

    #[test]
    fn reinsert_same_key_does_not_grow_order_queue() {
        let cache = SharedArtifactCache::with_capacity(2);
        for _ in 0..10 {
            cache.insert_program(0x1000, 0x1014, 1, loop_program(false));
        }
        assert_eq!(cache.len().0, 1);
        assert_eq!(cache.stats().inserts, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn stats_absorb_and_render() {
        let mut a = ArtifactCacheStats {
            program_hits: 1,
            artifact_hits: 2,
            program_misses: 1,
            ..ArtifactCacheStats::default()
        };
        let b = ArtifactCacheStats { artifact_misses: 2, inserts: 3, ..ArtifactCacheStats::default() };
        a.absorb(&b);
        assert_eq!(a.hits(), 3);
        assert_eq!(a.misses(), 3);
        assert_eq!(a.hit_rate(), Some(0.5));
        assert!(a.render().contains("hit_rate=50.0%"));
        // No lookups yet: the rate is undefined and renders as `-`.
        assert_eq!(ArtifactCacheStats::default().hit_rate(), None);
        assert!(ArtifactCacheStats::default().render().contains("hit_rate=-"));
        let json = a.to_json().to_string();
        assert_eq!(mesa_trace::json::parse(&json).map(|j| j.to_string()), Ok(json));
        assert_eq!(a.to_json().get("artifact_misses"), Some(&2u64.into()));
    }
}
