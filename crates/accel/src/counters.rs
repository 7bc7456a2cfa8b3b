//! Performance counters and activity statistics.
//!
//! The paper places "simple latency counters ... at PEs and load-store
//! entries" whose readings "are reported back to MESA's frontend where
//! latencies are tallied and used to refine MESA's DFG model" (§5.2). The
//! [`PerfCounters`] here are exactly that feedback channel; the
//! [`ActivityStats`] additionally drive the activity-based energy model
//! (§6.1).

/// Per-node latency counters (one bank per configured instruction slot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounter {
    /// Times the node fired (enabled iterations).
    pub fires: u64,
    /// Sum of observed operation latencies (inputs-ready → output).
    pub total_op_cycles: u64,
    /// Sum of observed input transfer latencies, per operand slot.
    pub total_in_cycles: [u64; 2],
    /// Number of transfer samples per operand slot.
    pub in_samples: [u64; 2],
}

impl NodeCounter {
    /// Average operation latency, or `None` before the first firing.
    #[must_use]
    pub fn avg_op(&self) -> Option<u64> {
        (self.fires > 0).then(|| self.total_op_cycles / self.fires)
    }

    /// Average transfer latency into operand `slot`.
    #[must_use]
    pub fn avg_in(&self, slot: usize) -> Option<u64> {
        (self.in_samples[slot] > 0).then(|| self.total_in_cycles[slot] / self.in_samples[slot])
    }

    /// Number of words [`NodeCounter::write_words`] emits per counter.
    pub const SNAPSHOT_WORDS: usize = 6;

    /// Appends this counter to a snapshot word stream (fixed field order;
    /// see `PlacementSnapshot`).
    pub fn write_words(&self, out: &mut Vec<u64>) {
        out.push(self.fires);
        out.push(self.total_op_cycles);
        out.push(self.total_in_cycles[0]);
        out.push(self.total_in_cycles[1]);
        out.push(self.in_samples[0]);
        out.push(self.in_samples[1]);
    }

    /// Inverse of [`NodeCounter::write_words`]; `None` when the slice is
    /// short.
    #[must_use]
    pub fn from_words(words: &[u64]) -> Option<Self> {
        let &[fires, op, in0, in1, s0, s1] = words.get(..Self::SNAPSHOT_WORDS)? else {
            return None;
        };
        Some(NodeCounter {
            fires,
            total_op_cycles: op,
            total_in_cycles: [in0, in1],
            in_samples: [s0, s1],
        })
    }
}

/// The full counter bank for one configured region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// One counter per node, indexed like `AccelProgram::nodes`.
    pub nodes: Vec<NodeCounter>,
}

impl PerfCounters {
    /// Counter bank sized for `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        PerfCounters { nodes: vec![NodeCounter::default(); n] }
    }

    /// Total fires across every node in the bank.
    #[must_use]
    pub fn total_fires(&self) -> u64 {
        self.nodes.iter().map(|n| n.fires).sum()
    }

    /// Total operation cycles across every node in the bank.
    #[must_use]
    pub fn total_op_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.total_op_cycles).sum()
    }
}

/// Aggregate activity, consumed by the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityStats {
    /// Integer PE operations executed.
    pub int_ops: u64,
    /// FP PE operations executed.
    pub fp_ops: u64,
    /// Loads issued to the memory system.
    pub loads: u64,
    /// Stores issued to the memory system.
    pub stores: u64,
    /// Cycles PEs spent actively computing (for dynamic power).
    pub pe_busy_cycles: u64,
    /// Values moved over direct neighbor links.
    pub local_transfers: u64,
    /// Values moved over the NoC.
    pub noc_transfers: u64,
    /// Total NoC cycles consumed (distance-weighted).
    pub noc_hop_cycles: u64,
    /// Transfers that used the fallback bus (unplaced nodes).
    pub fallback_transfers: u64,
    /// Store→load pairs served by direct forwarding (no cache access).
    pub forwards: u64,
    /// Loads invalidated by a later-resolving same-address store.
    pub violations: u64,
    /// Node firings suppressed by predication (branch-skipped).
    pub disabled_fires: u64,
    /// Loads served from a vector group head's wide access.
    pub vector_piggybacks: u64,
    /// Loads whose latency was hidden by next-iteration prefetch.
    pub prefetch_hits: u64,
}

impl ActivityStats {
    /// Total memory operations issued.
    #[must_use]
    pub fn mem_ops(&self) -> u64 {
        self.loads + self.stores
    }

    /// Number of words [`ActivityStats::write_words`] emits.
    pub const SNAPSHOT_WORDS: usize = 14;

    /// Appends every field to a snapshot word stream, in declaration
    /// order.
    pub fn write_words(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&[
            self.int_ops,
            self.fp_ops,
            self.loads,
            self.stores,
            self.pe_busy_cycles,
            self.local_transfers,
            self.noc_transfers,
            self.noc_hop_cycles,
            self.fallback_transfers,
            self.forwards,
            self.violations,
            self.disabled_fires,
            self.vector_piggybacks,
            self.prefetch_hits,
        ]);
    }

    /// Inverse of [`ActivityStats::write_words`]; `None` when the slice is
    /// short.
    #[must_use]
    pub fn from_words(words: &[u64]) -> Option<Self> {
        let &[int_ops, fp_ops, loads, stores, pe_busy_cycles, local_transfers, noc_transfers, noc_hop_cycles, fallback_transfers, forwards, violations, disabled_fires, vector_piggybacks, prefetch_hits] =
            words.get(..Self::SNAPSHOT_WORDS)?
        else {
            return None;
        };
        Some(ActivityStats {
            int_ops,
            fp_ops,
            loads,
            stores,
            pe_busy_cycles,
            local_transfers,
            noc_transfers,
            noc_hop_cycles,
            fallback_transfers,
            forwards,
            violations,
            disabled_fires,
            vector_piggybacks,
            prefetch_hits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_test::prop::words_near;
    use mesa_test::{forall, prop_assert, prop_assert_eq, Checker};

    /// Both counter decoders read a fixed-width prefix: any stream
    /// decodes to `None` when short, and otherwise to a value that
    /// re-encodes to exactly that prefix; none panics.
    #[test]
    fn from_words_is_total_and_reencodes_its_prefix() {
        let mut valid = Vec::new();
        NodeCounter { fires: 3, total_op_cycles: 9, total_in_cycles: [4, 5], in_samples: [2, 1] }
            .write_words(&mut valid);
        ActivityStats { int_ops: 7, prefetch_hits: 2, ..ActivityStats::default() }
            .write_words(&mut valid);
        forall!(
            Checker::new("counters::from_words_is_total_and_reencodes_its_prefix").cases(512),
            |(words in words_near(valid.clone()))| {
                let mut out = Vec::new();
                match NodeCounter::from_words(&words) {
                    Some(c) => c.write_words(&mut out),
                    None => {
                        prop_assert!(words.len() < NodeCounter::SNAPSHOT_WORDS);
                    }
                }
                let tail = words.get(NodeCounter::SNAPSHOT_WORDS..).unwrap_or_default();
                match ActivityStats::from_words(tail) {
                    Some(a) => a.write_words(&mut out),
                    None => {
                        prop_assert!(tail.len() < ActivityStats::SNAPSHOT_WORDS);
                    }
                }
                prop_assert_eq!(&out[..], &words[..out.len()]);
            }
        );
    }

    #[test]
    fn node_counter_averages() {
        let mut c = NodeCounter::default();
        assert_eq!(c.avg_op(), None);
        c.fires = 4;
        c.total_op_cycles = 20;
        c.total_in_cycles = [8, 0];
        c.in_samples = [4, 0];
        assert_eq!(c.avg_op(), Some(5));
        assert_eq!(c.avg_in(0), Some(2));
        assert_eq!(c.avg_in(1), None);
    }

    #[test]
    fn perf_counters_sized() {
        let p = PerfCounters::new(7);
        assert_eq!(p.nodes.len(), 7);
    }

    #[test]
    fn mem_ops_sum() {
        let a = ActivityStats { loads: 3, stores: 2, ..Default::default() };
        assert_eq!(a.mem_ops(), 5);
    }
}
