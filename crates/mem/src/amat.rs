//! Per-instruction average-memory-access-time (AMAT) counters.
//!
//! The paper models memory nodes in the DFG "by per-instruction average
//! memory access time (AMAT), using counters at load/store unit entries"
//! (§3.1). This table is that counter bank: keyed by instruction address,
//! it accumulates observed latencies and reports the running average that
//! MESA feeds into its performance model.

use std::collections::HashMap;

/// Running latency statistics for one instruction address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AmatEntry {
    /// Number of accesses observed.
    pub count: u64,
    /// Sum of observed latencies.
    pub total_cycles: u64,
    /// Largest single observed latency.
    pub worst: u64,
}

impl AmatEntry {
    /// Average latency, or `None` before the first observation.
    #[must_use]
    fn average(&self) -> Option<u64> {
        (self.count > 0).then(|| self.total_cycles / self.count)
    }
}

/// A bank of per-instruction AMAT counters.
///
/// ```
/// use mesa_mem::AmatTable;
/// let mut t = AmatTable::new();
/// t.record(0x1000, 3);
/// t.record(0x1000, 121);
/// assert_eq!(t.amat(0x1000), Some(62));
/// assert_eq!(t.amat(0x2000), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AmatTable {
    entries: HashMap<u64, AmatEntry>,
}

impl AmatTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observed access latency for the instruction at `pc`.
    pub fn record(&mut self, pc: u64, latency: u64) {
        let e = self.entries.entry(pc).or_default();
        e.count += 1;
        e.total_cycles += latency;
        e.worst = e.worst.max(latency);
    }

    /// The running average latency for `pc`.
    #[must_use]
    pub fn amat(&self, pc: u64) -> Option<u64> {
        self.entries.get(&pc).and_then(AmatEntry::average)
    }

    /// Full statistics for `pc`.
    #[must_use]
    pub fn entry(&self, pc: u64) -> Option<&AmatEntry> {
        self.entries.get(&pc)
    }

    /// Number of distinct instruction addresses tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears all counters (e.g. when a new code region is profiled).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over `(pc, entry)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &AmatEntry)> {
        self.entries.iter().map(|(&pc, e)| (pc, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_accumulate() {
        let mut t = AmatTable::new();
        for lat in [10, 20, 30] {
            t.record(0x40, lat);
        }
        assert_eq!(t.amat(0x40), Some(20));
        assert_eq!(t.entry(0x40).unwrap().worst, 30);
        assert_eq!(t.entry(0x40).unwrap().count, 3);
    }

    #[test]
    fn distinct_pcs_are_independent() {
        let mut t = AmatTable::new();
        t.record(0x40, 100);
        t.record(0x44, 2);
        assert_eq!(t.amat(0x40), Some(100));
        assert_eq!(t.amat(0x44), Some(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut t = AmatTable::new();
        t.record(0x40, 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.amat(0x40), None);
    }
}
