//! The shared memory system: per-requester L1 caches over a banked, shared
//! L2 and a flat-latency DRAM.
//!
//! Both the multicore CPU baseline and the spatial accelerator issue their
//! accesses through a [`MemorySystem`]; the accelerator's limited
//! memory-port count (the knee in the paper's Fig. 15 PE-scaling study)
//! is modelled at the accelerator side, while bank contention on the shared
//! L2 is modelled here.

use crate::{Cache, CacheConfig, CacheStats, SparseMemory};
use mesa_trace::{Subsystem, Tracer};

/// Parameters of the whole memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Per-requester L1 geometry.
    pub l1: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// DRAM access latency in cycles (beyond the L2 lookup).
    pub dram_latency: u64,
    /// Number of independently-busy L2 banks.
    pub l2_banks: usize,
    /// Cycles a bank stays busy per request (throughput limit).
    pub l2_bank_occupancy: u64,
    /// Cycles one DRAM channel is busy per line fill.
    pub dram_occupancy: u64,
    /// Independent DRAM channels.
    pub dram_channels: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        // 64 KB L1 + unified 8 MB L2, as configured in the paper (§6.1).
        MemConfig {
            l1: CacheConfig::l1_64k(),
            l2: CacheConfig::l2_8m(),
            dram_latency: 120,
            l2_banks: 8,
            l2_bank_occupancy: 4,
            dram_occupancy: 16,
            dram_channels: 2,
        }
    }
}

/// Latency breakdown of one access (for AMAT accounting and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessLatency {
    /// Total cycles from issue to data available.
    pub total: u64,
    /// Where the access was served from.
    pub served_by: ServedBy,
    /// Extra cycles spent waiting for a busy L2 bank.
    pub bank_wait: u64,
}

/// The level that supplied the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both levels; DRAM supplied the line.
    Dram,
}

/// Aggregate traffic totals across the whole hierarchy — monotonic
/// counters suitable for phase attribution by snapshot/diff.
///
/// Capture one [`MemorySystem::traffic`] at a phase boundary and subtract
/// with [`MemTraffic::since`] to get the traffic of just that phase; this
/// is how the harness keeps warmup traffic out of the accelerated-phase
/// energy numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTraffic {
    /// Total L1 accesses, summed over requesters.
    pub l1_accesses: u64,
    /// Total L1 misses, summed over requesters.
    pub l1_misses: u64,
    /// Shared-L2 accesses.
    pub l2_accesses: u64,
    /// Shared-L2 misses.
    pub l2_misses: u64,
    /// DRAM line fills.
    pub dram_accesses: u64,
}

impl MemTraffic {
    /// The traffic accumulated since `earlier` (saturating, so a stats
    /// reset in between reads as zero rather than wrapping).
    #[must_use]
    pub fn since(&self, earlier: &MemTraffic) -> MemTraffic {
        MemTraffic {
            l1_accesses: self.l1_accesses.saturating_sub(earlier.l1_accesses),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            l2_accesses: self.l2_accesses.saturating_sub(earlier.l2_accesses),
            l2_misses: self.l2_misses.saturating_sub(earlier.l2_misses),
            dram_accesses: self.dram_accesses.saturating_sub(earlier.dram_accesses),
        }
    }

    /// Emits the totals as counter events on the memory timeline at
    /// `cycle`.
    pub fn trace_counters(&self, tracer: &mut dyn Tracer, cycle: u64) {
        if !tracer.enabled() {
            return;
        }
        tracer.counter(Subsystem::Memory, "mem.l1_accesses", self.l1_accesses, cycle);
        tracer.counter(Subsystem::Memory, "mem.l1_misses", self.l1_misses, cycle);
        tracer.counter(Subsystem::Memory, "mem.l2_accesses", self.l2_accesses, cycle);
        tracer.counter(Subsystem::Memory, "mem.l2_misses", self.l2_misses, cycle);
        tracer.counter(Subsystem::Memory, "mem.dram_accesses", self.dram_accesses, cycle);
    }
}

/// A multi-requester two-level memory system over sparse backing storage.
///
/// Requester IDs index the private L1s: the multicore baseline uses one per
/// core; the accelerator uses one as its shared data port.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemConfig,
    data: SparseMemory,
    l1s: Vec<Cache>,
    l2: Cache,
    bank_free_at: Vec<u64>,
    dram_accesses: u64,
}

impl MemorySystem {
    /// Builds a system with `requesters` private L1 caches.
    #[must_use]
    pub fn new(cfg: MemConfig, requesters: usize) -> Self {
        MemorySystem {
            cfg,
            data: SparseMemory::new(),
            l1s: (0..requesters).map(|_| Cache::new(cfg.l1)).collect(),
            l2: Cache::new(cfg.l2),
            bank_free_at: vec![0; cfg.l2_banks.max(1)],
            dram_accesses: 0,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Number of requesters (private L1s).
    #[must_use]
    pub fn requesters(&self) -> usize {
        self.l1s.len()
    }

    /// The functional backing store.
    #[inline]
    pub fn data_mut(&mut self) -> &mut SparseMemory {
        &mut self.data
    }

    /// Immutable view of the backing store.
    #[must_use]
    pub fn data(&self) -> &SparseMemory {
        &self.data
    }

    /// Clears transient bank-contention timing (`bank_free_at`) without
    /// touching cache contents or statistics. Each `OoOCore::run` begins
    /// at cycle 0, so a caller that interleaves timing runs with
    /// interpreted stretches (the hybrid fast-forward sampler) must
    /// settle the banks before each sample: program time has advanced
    /// far past any in-flight bank occupancy left by the previous run,
    /// and carrying those absolute deadlines into a fresh cycle-0 run
    /// would charge phantom bank waits.
    pub fn settle_timing(&mut self) {
        for b in &mut self.bank_free_at {
            *b = 0;
        }
    }

    /// Timing for an access by `requester` to `addr` at cycle `now`.
    ///
    /// # Panics
    /// Panics if `requester` is out of range.
    #[inline]
    pub fn access(&mut self, requester: usize, addr: u64, is_write: bool, now: u64) -> AccessLatency {
        let l1 = &mut self.l1s[requester];
        let l1_result = l1.access(addr, is_write);
        if l1_result.hit {
            return AccessLatency {
                total: self.cfg.l1.hit_latency,
                served_by: ServedBy::L1,
                bank_wait: 0,
            };
        }

        // L1 miss → L2, with bank contention.
        let bank = (addr / self.cfg.l2.line as u64) as usize % self.bank_free_at.len();
        let ready = now + self.cfg.l1.hit_latency;
        let start = ready.max(self.bank_free_at[bank]);
        let bank_wait = start - ready;
        self.bank_free_at[bank] = start + self.cfg.l2_bank_occupancy;

        let l2_result = self.l2.access(addr, is_write);
        if l2_result.hit {
            AccessLatency {
                total: self.cfg.l1.hit_latency + bank_wait + self.cfg.l2.hit_latency,
                served_by: ServedBy::L2,
                bank_wait,
            }
        } else {
            self.dram_accesses += 1;
            AccessLatency {
                total: self.cfg.l1.hit_latency
                    + bank_wait
                    + self.cfg.l2.hit_latency
                    + self.cfg.dram_latency,
                served_by: ServedBy::Dram,
                bank_wait,
            }
        }
    }

    /// Statistics for requester `id`'s L1.
    #[must_use]
    pub fn l1_stats(&self, id: usize) -> CacheStats {
        self.l1s[id].stats()
    }

    /// Shared L2 statistics.
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Total DRAM line fills.
    #[must_use]
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Current aggregate traffic totals across the whole hierarchy.
    #[must_use]
    pub fn traffic(&self) -> MemTraffic {
        let mut t = MemTraffic { dram_accesses: self.dram_accesses, ..MemTraffic::default() };
        for l1 in &self.l1s {
            let s = l1.stats();
            t.l1_accesses += s.accesses();
            t.l1_misses += s.misses;
        }
        let l2 = self.l2.stats();
        t.l2_accesses = l2.accesses();
        t.l2_misses = l2.misses;
        t
    }

    /// Clears the L2 bank busy schedule.
    ///
    /// Each requester's timeline starts at cycle 0 when cores are simulated
    /// one after another, so the bank schedule models *self*-contention only
    /// and must be reset between requester timelines. Cross-requester
    /// contention is applied as an aggregate bandwidth bound (see
    /// [`bandwidth_bound_cycles`](Self::bandwidth_bound_cycles)).
    pub fn reset_bank_schedule(&mut self) {
        self.bank_free_at.fill(0);
    }

    /// The minimum number of cycles the *shared* L2 and DRAM need to serve
    /// `l2_accesses` L1-miss requests and `dram_fills` line fills — the
    /// bandwidth roofline applied on top of per-core latencies for
    /// multicore runs.
    #[must_use]
    pub fn bandwidth_bound_cycles(&self, l2_accesses: u64, dram_fills: u64) -> u64 {
        let l2 = l2_accesses * self.cfg.l2_bank_occupancy / self.cfg.l2_banks.max(1) as u64;
        let dram = dram_fills * self.cfg.dram_occupancy / self.cfg.dram_channels.max(1) as u64;
        l2.max(dram)
    }

    /// Invalidates all cache state (e.g. between benchmark runs) while
    /// keeping the functional data.
    #[cfg(test)]
    fn flush_caches(&mut self) {
        for l1 in &mut self.l1s {
            l1.flush();
        }
        self.l2.flush();
        self.bank_free_at.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::default(), 2)
    }

    #[test]
    fn first_touch_goes_to_dram() {
        let mut m = sys();
        let lat = m.access(0, 0x1000, false, 0);
        assert_eq!(lat.served_by, ServedBy::Dram);
        assert_eq!(lat.total, 3 + 18 + 120);
    }

    #[test]
    fn second_touch_hits_l1() {
        let mut m = sys();
        m.access(0, 0x1000, false, 0);
        let lat = m.access(0, 0x1000, false, 10);
        assert_eq!(lat.served_by, ServedBy::L1);
        assert_eq!(lat.total, 3);
    }

    #[test]
    fn sharing_through_l2() {
        let mut m = sys();
        m.access(0, 0x1000, false, 0);
        // Other requester misses its L1 but hits the shared L2.
        let lat = m.access(1, 0x1000, false, 200);
        assert_eq!(lat.served_by, ServedBy::L2);
    }

    #[test]
    fn bank_contention_adds_wait() {
        let mut m = sys();
        // Two back-to-back misses to the same bank at the same cycle.
        let a = m.access(0, 0x0000, false, 0);
        let b = m.access(1, 0x0000, false, 0);
        assert_eq!(a.bank_wait, 0);
        assert_eq!(b.bank_wait, m.config().l2_bank_occupancy);
        assert!(b.total > a.total - 120, "second access delayed");
    }

    #[test]
    fn different_banks_no_contention() {
        let mut m = sys();
        let a = m.access(0, 0x0000, false, 0);
        let b = m.access(1, 0x0040, false, 0); // next line → next bank
        assert_eq!(a.bank_wait, 0);
        assert_eq!(b.bank_wait, 0);
    }

    #[test]
    fn traffic_snapshots_diff_cleanly() {
        let mut m = sys();
        m.access(0, 0x1000, false, 0); // L1 miss, L2 miss, DRAM
        let warmup = m.traffic();
        assert_eq!(warmup.l1_accesses, 1);
        assert_eq!(warmup.dram_accesses, 1);
        m.access(0, 0x1000, false, 10); // L1 hit
        m.access(1, 0x1000, false, 20); // L1 miss, L2 hit
        let phase = m.traffic().since(&warmup);
        assert_eq!(phase.l1_accesses, 2);
        assert_eq!(phase.l1_misses, 1);
        assert_eq!(phase.l2_accesses, 1);
        assert_eq!(phase.l2_misses, 0);
        assert_eq!(phase.dram_accesses, 0);
    }

    #[test]
    fn traffic_counts_every_level() {
        let mut m = sys();
        m.access(0, 0x1000, false, 0);
        m.access(0, 0x1000, true, 10);
        let t = m.traffic();
        assert_eq!(t.l1_accesses, 2);
        assert_eq!(t.l1_misses, 1, "the second access hits");
        assert_eq!(t.l2_accesses, 1);
        assert_eq!(t.l2_misses, 1);
        assert_eq!(t.dram_accesses, 1);
    }

    #[test]
    fn flush_retains_data_but_drops_lines() {
        let mut m = sys();
        m.data_mut().store_u32(0x1000, 7);
        m.access(0, 0x1000, false, 0);
        m.flush_caches();
        let lat = m.access(0, 0x1000, false, 0);
        assert_eq!(lat.served_by, ServedBy::Dram);
        assert_eq!(m.data_mut().load_u32(0x1000), 7);
    }
}
