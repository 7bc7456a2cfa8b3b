//! Branch prediction: gshare direction predictor + direct-mapped BTB.
//!
//! Loop-closing backward branches — the pattern MESA accelerates — predict
//! nearly perfectly after warmup, so the baseline core is not handicapped
//! unfairly in the comparison figures.

/// A gshare direction predictor with a branch target buffer.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    history: u64,
    history_bits: u32,
    counters: Vec<u8>,
    btb: Vec<Option<(u64, u64)>>, // (tag pc, target)
}

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new(12, 512)
    }
}

impl BranchPredictor {
    /// Creates a predictor with `history_bits` of global history (table of
    /// `2^history_bits` two-bit counters) and `btb_entries` BTB slots.
    ///
    /// # Panics
    /// Panics if `btb_entries` is zero or `history_bits > 20`.
    #[must_use]
    pub fn new(history_bits: u32, btb_entries: usize) -> Self {
        assert!(btb_entries > 0, "BTB must have at least one entry");
        assert!(history_bits <= 20, "history too long");
        BranchPredictor {
            history: 0,
            history_bits,
            counters: vec![2; 1 << history_bits], // weakly taken
            btb: vec![None; btb_entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.history_bits) - 1;
        (((pc >> 2) ^ self.history) & mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    #[must_use]
    fn predict_taken(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Predicted target from the BTB, if one is cached for `pc`.
    #[must_use]
    fn predict_target(&self, pc: u64) -> Option<u64> {
        let slot = (pc >> 2) as usize % self.btb.len();
        self.btb[slot].and_then(|(tag, tgt)| (tag == pc).then_some(tgt))
    }

    /// Trains on the resolved branch and reports whether the prediction was
    /// correct (direction *and*, for taken branches, target).
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        let predicted_taken = self.predict_taken(pc);
        let predicted_target = self.predict_target(pc);
        let correct = predicted_taken == taken && (!taken || predicted_target == Some(target));

        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        let mask = (1u64 << self.history_bits) - 1;
        self.history = ((self.history << 1) | u64::from(taken)) & mask;

        if taken {
            let slot = (pc >> 2) as usize % self.btb.len();
            self.btb[slot] = Some((pc, target));
        }
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_branch_saturates_to_taken() {
        let mut p = BranchPredictor::default();
        let pc = 0x1000;
        for _ in 0..8 {
            p.update(pc, true, 0xF00);
        }
        assert!(p.predict_taken(pc));
        assert_eq!(p.predict_target(pc), Some(0xF00));
    }

    #[test]
    fn alternating_pattern_learned_by_history() {
        let mut p = BranchPredictor::new(4, 16);
        // Warm up a strict alternation; gshare should eventually track it.
        let pc = 0x2000;
        let mut correct_late = 0;
        for i in 0..200u32 {
            let taken = i % 2 == 0;
            let c = p.update(pc, taken, 0x100);
            if i >= 100 && c {
                correct_late += 1;
            }
        }
        assert!(correct_late > 80, "learned {correct_late}/100");
    }

    #[test]
    fn mispredict_counted() {
        let mut p = BranchPredictor::default();
        // Fresh counters are weakly-taken; a not-taken branch mispredicts.
        assert!(!p.update(0x3000, false, 0));
    }

    #[test]
    fn btb_tag_mismatch_is_miss() {
        let mut p = BranchPredictor::new(12, 4);
        p.update(0x1000, true, 0xAA0);
        // 0x1010 aliases to the same slot (4-entry BTB) but has another tag.
        assert_eq!(p.predict_target(0x1010), None);
    }
}
