//! Set-associative cache timing model (LRU, write-back, write-allocate).
//!
//! Only *timing* is modelled here — data always lives in the
//! [`crate::SparseMemory`] backing store. This matches the paper's
//! methodology (§6.1), where caches determine latency while functional
//! values come from the simulator state.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// 64 KiB, 8-way, 64 B lines, 3-cycle hit — the paper's per-core L1.
    #[must_use]
    pub fn l1_64k() -> Self {
        CacheConfig { size: 64 << 10, ways: 8, line: 64, hit_latency: 3 }
    }

    /// 8 MiB, 16-way, 64 B lines, 18-cycle hit — the paper's unified L2.
    #[must_use]
    pub fn l2_8m() -> Self {
        CacheConfig { size: 8 << 20, ways: 16, line: 64, hit_latency: 18 }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sets or non-power-of-two
    /// line size).
    #[must_use]
    fn num_sets(&self) -> usize {
        assert!(self.line.is_power_of_two(), "line size must be a power of two");
        let sets = self.size / (self.ways * self.line);
        assert!(sets > 0, "cache must have at least one set");
        sets
    }
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when no accesses occurred.
    #[must_use]
    #[cfg(test)]
    fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Total demand accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// What an access did, as seen by this level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// `true` when the line was present.
    pub hit: bool,
    /// `true` when a dirty victim was evicted (costs a writeback below).
    pub evicted_dirty: bool,
}

/// Per-line state. An all-default line (`valid == false`) is an empty way.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_used: u64,
}

/// Sets whose slot count is at or below this live in flat, set-major
/// arrays; above it, only touched sets are materialized. The boundary
/// (16 K slots ≈ a 1 MiB direct-mapped or 64 KiB 16-way geometry) keeps
/// every per-core L1 flat while the 8 MiB L2 goes sparse.
const SPARSE_SLOT_THRESHOLD: usize = 1 << 14;

/// Backing storage for the line state: flat for small caches (the L1s —
/// the per-access hot path), sparse for big ones (the L2). A fresh
/// `Cache::new(l2_8m())` used to clone-initialize megabytes of line
/// state, which dominated short simulation runs that build a
/// [`crate::MemorySystem`] per run; the sparse form makes construction
/// O(1) and `flush` O(touched sets) while making exactly the same
/// hit/miss/eviction decisions (an absent set *is* a set of invalid
/// lines).
#[derive(Debug, Clone)]
enum SetStore {
    /// `lines[set * ways + way]`, every set materialized.
    Flat { lines: Vec<Line> },
    /// Touched sets only, keyed by set index.
    Sparse { sets: std::collections::HashMap<u64, Box<[Line]>, crate::sparse::PageHasherBuild> },
}

/// One level of set-associative cache (timing only).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    num_sets: usize,
    /// `log2(line)` — the line size is asserted to be a power of two, so
    /// the per-access address split is shifts/masks, not divisions.
    line_shift: u32,
    /// `(mask, shift)` for the set split when `num_sets` is a power of two
    /// (always, for the shipped geometries); `None` falls back to
    /// division with identical results.
    set_pow2: Option<(u64, u32)>,
    store: SetStore,
    /// Most-recently-hit way per set. Purely a lookup accelerator: the hint
    /// may go stale (invalidate/flush/eviction) so it is revalidated against
    /// the line's `valid` bit and tag before use; a wrong hint only costs
    /// the normal associative scan.
    mru_way: Vec<u32>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Builds an empty cache from its geometry.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        let slots = num_sets * cfg.ways;
        let store = if slots <= SPARSE_SLOT_THRESHOLD {
            SetStore::Flat { lines: vec![Line::default(); slots] }
        } else {
            SetStore::Sparse { sets: std::collections::HashMap::default() }
        };
        Cache {
            cfg,
            num_sets,
            line_shift: cfg.line.trailing_zeros(),
            set_pow2: num_sets
                .is_power_of_two()
                .then(|| (num_sets as u64 - 1, num_sets.trailing_zeros())),
            store,
            mru_way: vec![0; num_sets],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// Builds the cache with the given storage form regardless of geometry.
    ///
    /// Only for the flat-vs-sparse equivalence property tests — the two
    /// forms must be observationally identical, and this lets the test pit
    /// them against each other on the same geometry.
    #[doc(hidden)]
    #[must_use]
    pub fn with_forced_storage(cfg: CacheConfig, sparse: bool) -> Self {
        let num_sets = cfg.num_sets();
        let store = if sparse {
            SetStore::Sparse { sets: std::collections::HashMap::default() }
        } else {
            SetStore::Flat { lines: vec![Line::default(); num_sets * cfg.ways] }
        };
        Cache {
            cfg,
            num_sets,
            line_shift: cfg.line.trailing_zeros(),
            set_pow2: num_sets
                .is_power_of_two()
                .then(|| (num_sets as u64 - 1, num_sets.trailing_zeros())),
            store,
            mru_way: vec![0; num_sets],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        match self.set_pow2 {
            Some((mask, shift)) => (((line_addr & mask) as usize), line_addr >> shift),
            None => (
                (line_addr % self.num_sets as u64) as usize,
                line_addr / self.num_sets as u64,
            ),
        }
    }

    /// Performs a demand access, filling on miss. Returns whether it hit and
    /// whether a dirty line was displaced.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.tick += 1;
        let tick = self.tick;
        let (set_idx, tag) = self.index(addr);
        let ways = self.cfg.ways;
        let set: &mut [Line] = match &mut self.store {
            SetStore::Flat { lines } => &mut lines[set_idx * ways..(set_idx + 1) * ways],
            SetStore::Sparse { sets } => sets
                .entry(set_idx as u64)
                .or_insert_with(|| vec![Line::default(); ways].into_boxed_slice()),
        };

        // Fast path: re-hit on the most recently used way of this set
        // (the common case for the simulators' streaming access patterns).
        // Tags are unique within a set, so hitting via the hint is
        // indistinguishable from hitting via the scan below.
        let hint = self.mru_way[set_idx] as usize;
        if let Some(line) = set.get_mut(hint) {
            if line.valid && line.tag == tag {
                line.last_used = tick;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return AccessResult { hit: true, evicted_dirty: false };
            }
        }

        if let Some((way, line)) =
            set.iter_mut().enumerate().find(|(_, l)| l.valid && l.tag == tag)
        {
            line.last_used = tick;
            line.dirty |= is_write;
            self.stats.hits += 1;
            self.mru_way[set_idx] = way as u32;
            return AccessResult { hit: true, evicted_dirty: false };
        }

        self.stats.misses += 1;
        // Victim: invalid line first, else LRU.
        let (victim_way, victim) = set
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.last_used + 1 } else { 0 })
            .expect("cache set is never empty");
        let evicted_dirty = victim.valid && victim.dirty;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line { tag, valid: true, dirty: is_write, last_used: tick };
        self.mru_way[set_idx] = victim_way as u32;
        AccessResult { hit: false, evicted_dirty }
    }

    /// The set's lines, if materialized (a missing sparse set holds only
    /// invalid lines, so "absent" and "all-invalid" are interchangeable).
    fn set_lines(&self, set_idx: usize) -> Option<&[Line]> {
        match &self.store {
            SetStore::Flat { lines } => {
                Some(&lines[set_idx * self.cfg.ways..(set_idx + 1) * self.cfg.ways])
            }
            SetStore::Sparse { sets } => sets.get(&(set_idx as u64)).map(|s| &s[..]),
        }
    }

    /// Probes without filling or updating stats (used for snooping /
    /// invalidation checks).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.set_lines(set_idx)
            .is_some_and(|set| set.iter().any(|l| l.valid && l.tag == tag))
    }

    /// Invalidates the line containing `addr`, if present. Returns whether a
    /// line was dropped.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        let set: &mut [Line] = match &mut self.store {
            SetStore::Flat { lines } => {
                &mut lines[set_idx * self.cfg.ways..(set_idx + 1) * self.cfg.ways]
            }
            SetStore::Sparse { sets } => match sets.get_mut(&(set_idx as u64)) {
                Some(set) => set,
                None => return false,
            },
        };
        for line in set {
            if line.valid && line.tag == tag {
                line.valid = false;
                line.dirty = false;
                return true;
            }
        }
        false
    }

    /// Invalidates the whole cache (keeps statistics).
    pub fn flush(&mut self) {
        match &mut self.store {
            SetStore::Flat { lines } => {
                for line in lines {
                    line.valid = false;
                    line.dirty = false;
                }
            }
            SetStore::Sparse { sets } => sets.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets, 2 ways, 16 B lines = 128 B.
        Cache::new(CacheConfig { size: 128, ways: 2, line: 16, hit_latency: 1 })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1_64k().num_sets(), 128);
        assert_eq!(CacheConfig::l2_8m().num_sets(), 8192);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x108, false).hit, "same 16B line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Three distinct lines mapping to the same set (stride = sets*line = 64).
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x000, false); // touch 0x000 so 0x040 is LRU
        c.access(0x080, false); // evicts 0x040
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
        assert!(c.probe(0x080));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x040, false);
        let r = c.access(0x080, false); // evicts dirty 0x000
        assert!(r.evicted_dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        c.access(0x100, true);
        assert!(c.invalidate(0x100));
        assert!(!c.probe(0x100));
        c.access(0x100, false);
        c.access(0x200, false);
        c.flush();
        assert!(!c.probe(0x100));
        assert!(!c.probe(0x200));
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, true); // now dirty
        c.access(0x040, false);
        let r = c.access(0x080, false);
        assert!(r.evicted_dirty, "the written line must have become dirty");
    }

    #[test]
    fn miss_rate() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_rate() - 0.25).abs() < 1e-12);
    }
}
