//! CPU-side microarchitectural additions for MESA: the loop-stream
//! detector and the trace cache (paper §4.1).
//!
//! The loop-stream detector (LSD) watches the retire stream for backward
//! branches with stable targets — the loop-closing pattern — and reports
//! candidate regions once the same loop has repeated enough times. The
//! trace cache captures the region's machine words so MESA can build the
//! LDFG "without interfering with regular fetch on the CPU".

use crate::{RetireEvent, RetireMonitor};
use mesa_isa::{codec, Outcome, Program};
use mesa_trace::Fnv64;
use std::hash::Hasher;

/// A loop region candidate emitted by the LSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopCandidate {
    /// First instruction of the loop body (the backward branch's target).
    pub start_pc: u64,
    /// One past the loop-closing branch (exclusive end).
    pub end_pc: u64,
    /// Iterations observed so far for this loop.
    pub iterations_seen: u64,
}

impl LoopCandidate {
    /// Number of static instructions in the loop body.
    #[must_use]
    pub fn len(&self) -> usize {
        ((self.end_pc - self.start_pc) / 4) as usize
    }

    /// `true` for an empty (degenerate) region.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end_pc <= self.start_pc
    }
}

/// Loop-stream detector over the retire stream.
///
/// ```
/// use mesa_cpu::LoopStreamDetector;
/// let mut lsd = LoopStreamDetector::new(3);
/// // (driven by the core's retire events in practice)
/// assert!(lsd.hot_loop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct LoopStreamDetector {
    threshold: u64,
    current: Option<LoopCandidate>,
    hot: Option<LoopCandidate>,
}

impl LoopStreamDetector {
    /// A detector that reports a loop after `threshold` consecutive
    /// iterations of the same backward branch.
    #[must_use]
    pub fn new(threshold: u64) -> Self {
        LoopStreamDetector { threshold, current: None, hot: None }
    }

    /// Feeds one retired control-flow event.
    pub fn observe(&mut self, pc: u64, outcome: Outcome) {
        if let Outcome::Branch { taken: true, target } = outcome {
            if target <= pc {
                let (start, end) = (target, pc + 4);
                match &mut self.current {
                    Some(c) if c.start_pc == start && c.end_pc == end => {
                        c.iterations_seen += 1;
                        if c.iterations_seen >= self.threshold {
                            self.hot = Some(*c);
                        }
                    }
                    _ => {
                        self.current = Some(LoopCandidate {
                            start_pc: start,
                            end_pc: end,
                            iterations_seen: 1,
                        });
                    }
                }
            }
        }
        // A not-taken loop branch or other control flow inside the stream
        // does not reset the candidate (loops contain forward branches);
        // only a *different* backward branch replaces it, handled above.
    }

    /// The hottest loop seen so far, once past the detection threshold.
    #[must_use]
    pub fn hot_loop(&self) -> Option<LoopCandidate> {
        self.hot
    }

    /// Clears all detection state (e.g. after an offload completes).
    pub fn reset(&mut self) {
        self.current = None;
        self.hot = None;
    }
}

impl RetireMonitor for LoopStreamDetector {
    fn on_retire(&mut self, event: &RetireEvent) {
        self.observe(event.pc, event.info.outcome);
    }
}

/// Trace cache holding the machine words of one candidate region.
///
/// Sized to the maximum number of instructions mappable on the accelerator
/// (64–512 in the paper's evaluations); a region longer than the capacity
/// fails condition C1 up front.
///
/// The cache is designed to be long-lived: re-opening the same region and
/// re-filling it with identical words (the common case when the same hot
/// loop is offloaded episode after episode) leaves the fill generation
/// unchanged, so [`TraceCache::to_program`] can serve the previously
/// decoded [`Program`] instead of re-decoding every word.
#[derive(Debug, Clone)]
pub struct TraceCache {
    capacity: usize,
    start_pc: u64,
    end_pc: u64,
    words: Vec<Option<u32>>,
    /// Per-slot "written since the last `open_region`" bits. A slot whose
    /// bit is clear behaves exactly like an empty slot — `is_complete`,
    /// `fill_ratio`, and the fallback fill all look at these bits — but its
    /// previous word is retained so an identical re-fill does not bump the
    /// generation.
    fresh: Vec<bool>,
    /// Bumped only when a slot's word *value* actually changes.
    generation: u64,
    /// Last decode, keyed by `(start_pc, end_pc, generation)`.
    decoded: Option<(u64, u64, u64, Option<Program>)>,
}

/// Error from [`TraceCache::open_region`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionTooLarge {
    /// Instructions the region needs.
    pub needed: usize,
    /// Instructions the trace cache can hold.
    pub capacity: usize,
}

impl std::fmt::Display for RegionTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "code region of {} instructions exceeds trace cache capacity {}",
            self.needed, self.capacity
        )
    }
}

impl std::error::Error for RegionTooLarge {}

impl TraceCache {
    /// An empty trace cache able to hold `capacity` instructions.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceCache {
            capacity,
            start_pc: 0,
            end_pc: 0,
            words: Vec::new(),
            fresh: Vec::new(),
            generation: 0,
            decoded: None,
        }
    }

    /// Capacity in instructions.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Points the cache at a region, clearing previous contents.
    ///
    /// # Errors
    /// Fails (condition C1) when the region exceeds capacity.
    pub fn open_region(&mut self, start_pc: u64, end_pc: u64) -> Result<(), RegionTooLarge> {
        let needed = ((end_pc.saturating_sub(start_pc)) / 4) as usize;
        if needed > self.capacity {
            return Err(RegionTooLarge { needed, capacity: self.capacity });
        }
        if start_pc == self.start_pc && end_pc == self.end_pc && self.words.len() == needed {
            // Same region as last time: keep the stored words (so identical
            // re-fills preserve the generation) but mark every slot stale.
            self.fresh.fill(false);
        } else {
            self.start_pc = start_pc;
            self.end_pc = end_pc;
            self.words = vec![None; needed];
            self.fresh = vec![false; needed];
        }
        Ok(())
    }

    /// Captures one fetched word if it falls inside the open region.
    pub fn fill(&mut self, pc: u64, word: u32) {
        if (self.start_pc..self.end_pc).contains(&pc) && (pc - self.start_pc).is_multiple_of(4) {
            let idx = ((pc - self.start_pc) / 4) as usize;
            if self.words[idx] != Some(word) {
                self.words[idx] = Some(word);
                self.generation += 1;
            }
            self.fresh[idx] = true;
        }
    }

    /// Captures instructions by re-encoding them from the program image —
    /// the "stall fetch and read the I-cache directly" fallback the paper
    /// describes for instructions never observed dynamically.
    pub fn fill_from_program(&mut self, program: &Program) {
        for idx in 0..self.words.len() {
            if !self.fresh[idx] {
                let pc = self.start_pc + 4 * idx as u64;
                if let Some(i) = program.fetch(pc) {
                    if let Ok(w) = codec::encode(i) {
                        if self.words[idx] != Some(w) {
                            self.words[idx] = Some(w);
                            self.generation += 1;
                        }
                        self.fresh[idx] = true;
                    }
                }
            }
        }
    }

    /// `true` once every slot in the region has been captured.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        !self.fresh.is_empty() && self.fresh.iter().all(|&f| f)
    }

    /// Fraction of the region captured so far.
    #[must_use]
    #[cfg(test)]
    fn fill_ratio(&self) -> f64 {
        if self.fresh.is_empty() {
            return 0.0;
        }
        self.fresh.iter().filter(|&&f| f).count() as f64 / self.fresh.len() as f64
    }

    /// Fill generation: bumps only when a captured word actually changes,
    /// never on identical re-fills of the same region.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Content fingerprint of the current fill: an FNV-1a digest over the
    /// region bounds and every captured word (empty slots included).
    ///
    /// Where [`generation`](Self::generation) is per-instance state — it
    /// counts *changes* and dies with the controller that owns this cache
    /// — the fingerprint is a pure function of the fill contents, so two
    /// controllers that capture identical code images compute identical
    /// fingerprints, and a self-modified region at the same `(start_pc,
    /// end_pc)` computes a different one. Cross-request artifact caches
    /// key on this instead of the generation.
    #[must_use]
    pub fn fill_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.start_pc);
        h.write_u64(self.end_pc);
        for w in &self.words {
            // Distinguish "empty slot" from any captured word value.
            h.write_u64(w.map_or(0, |word| 1 + u64::from(word)));
        }
        h.finish()
    }

    /// Decodes the captured region into a [`Program`] based at the region
    /// start. Re-decoding the same `(region, generation)` is served from a
    /// one-entry decode cache.
    ///
    /// Returns `None` until [`TraceCache::is_complete`].
    #[must_use]
    pub fn to_program(&mut self) -> Option<Program> {
        if !self.is_complete() {
            return None;
        }
        let key = (self.start_pc, self.end_pc, self.generation);
        if let Some((s, e, g, prog)) = &self.decoded {
            if (*s, *e, *g) == key {
                return prog.clone();
            }
        }
        let words: Vec<u32> = self.words.iter().map(|w| w.expect("complete")).collect();
        let prog = Program::decode(self.start_pc, &words).ok();
        self.decoded = Some((key.0, key.1, key.2, prog.clone()));
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::{Asm, Instruction, Opcode};
    use mesa_isa::reg::abi::*;

    #[test]
    fn lsd_detects_after_threshold() {
        let mut lsd = LoopStreamDetector::new(3);
        let branch_pc = 0x1010;
        let target = 0x1000;
        for n in 1..=2 {
            lsd.observe(branch_pc, Outcome::Branch { taken: true, target });
            assert!(lsd.hot_loop().is_none(), "not hot after {n}");
        }
        lsd.observe(branch_pc, Outcome::Branch { taken: true, target });
        let hot = lsd.hot_loop().expect("hot after 3");
        assert_eq!(hot.start_pc, 0x1000);
        assert_eq!(hot.end_pc, 0x1014);
        assert_eq!(hot.len(), 5);
    }

    #[test]
    fn lsd_ignores_forward_branches() {
        let mut lsd = LoopStreamDetector::new(1);
        lsd.observe(0x1000, Outcome::Branch { taken: true, target: 0x1040 });
        assert!(lsd.hot_loop().is_none());
    }

    #[test]
    fn lsd_not_taken_does_not_count() {
        let mut lsd = LoopStreamDetector::new(1);
        lsd.observe(0x1010, Outcome::Branch { taken: false, target: 0x1000 });
        assert!(lsd.hot_loop().is_none());
    }

    #[test]
    fn lsd_switches_to_new_loop() {
        let mut lsd = LoopStreamDetector::new(2);
        lsd.observe(0x1010, Outcome::Branch { taken: true, target: 0x1000 });
        // Different loop appears; candidate resets.
        lsd.observe(0x2020, Outcome::Branch { taken: true, target: 0x2000 });
        lsd.observe(0x2020, Outcome::Branch { taken: true, target: 0x2000 });
        let hot = lsd.hot_loop().unwrap();
        assert_eq!(hot.start_pc, 0x2000);
    }

    #[test]
    fn trace_cache_fills_and_decodes() {
        let mut a = Asm::new(0x1000);
        a.label("l");
        a.addi(T0, T0, 1);
        a.bne(T0, T1, "l");
        let p = a.finish().unwrap();
        let words = p.encode().unwrap();

        let mut tc = TraceCache::new(64);
        tc.open_region(0x1000, 0x1008).unwrap();
        assert!(!tc.is_complete());
        tc.fill(0x1000, words[0]);
        assert!((tc.fill_ratio() - 0.5).abs() < 1e-9);
        tc.fill(0x1004, words[1]);
        assert!(tc.is_complete());
        let back = tc.to_program().unwrap();
        assert_eq!(back.instrs, p.instrs);
    }

    #[test]
    fn trace_cache_rejects_oversized_region() {
        let mut tc = TraceCache::new(4);
        let err = tc.open_region(0x1000, 0x1000 + 4 * 5).unwrap_err();
        assert_eq!(err.needed, 5);
        assert_eq!(err.capacity, 4);
    }

    #[test]
    fn trace_cache_ignores_out_of_region_fills() {
        let mut tc = TraceCache::new(4);
        tc.open_region(0x1000, 0x1008).unwrap();
        tc.fill(0x0FFC, 0x13); // below
        tc.fill(0x1008, 0x13); // at end (exclusive)
        tc.fill(0x1002, 0x13); // misaligned
        assert_eq!(tc.fill_ratio(), 0.0);
    }

    #[test]
    fn reopening_same_region_requires_refill_but_keeps_generation() {
        let mut a = Asm::new(0x1000);
        a.label("l");
        a.addi(T0, T0, 1);
        a.bne(T0, T1, "l");
        let p = a.finish().unwrap();
        let words = p.encode().unwrap();

        let mut tc = TraceCache::new(64);
        tc.open_region(0x1000, 0x1008).unwrap();
        tc.fill(0x1000, words[0]);
        tc.fill(0x1004, words[1]);
        let first = tc.to_program().unwrap();
        let gen_after_first = tc.generation();

        // Re-opening the same region invalidates completeness...
        tc.open_region(0x1000, 0x1008).unwrap();
        assert!(!tc.is_complete());
        assert_eq!(tc.fill_ratio(), 0.0);
        assert_eq!(tc.to_program(), None);

        // ...but an identical re-fill does not advance the generation, and
        // decodes to the same program (now via the decode cache).
        tc.fill(0x1000, words[0]);
        tc.fill(0x1004, words[1]);
        assert_eq!(tc.generation(), gen_after_first);
        assert_eq!(tc.to_program().unwrap().instrs, first.instrs);
    }

    #[test]
    fn changed_word_bumps_generation_and_redecodes() {
        let mut a = Asm::new(0x1000);
        a.addi(T0, T0, 1);
        a.addi(T1, T1, 2);
        let p = a.finish().unwrap();
        let words = p.encode().unwrap();

        let mut tc = TraceCache::new(8);
        tc.open_region(0x1000, 0x1008).unwrap();
        tc.fill(0x1000, words[0]);
        tc.fill(0x1004, words[1]);
        let first = tc.to_program().unwrap();
        assert_eq!(first.instrs[1], Instruction::reg_imm(Opcode::Addi, T1, T1, 2));

        // Same region, one word replaced: the decode must reflect it.
        let mut b = Asm::new(0x1004);
        b.addi(T2, T2, 7);
        let replacement = b.finish().unwrap().encode().unwrap()[0];
        let gen_before = tc.generation();
        tc.open_region(0x1000, 0x1008).unwrap();
        tc.fill(0x1000, words[0]);
        tc.fill(0x1004, replacement);
        assert!(tc.generation() > gen_before);
        let second = tc.to_program().unwrap();
        assert_eq!(second.instrs[0], first.instrs[0]);
        assert_eq!(second.instrs[1], Instruction::reg_imm(Opcode::Addi, T2, T2, 7));
    }

    #[test]
    fn fallback_fill_from_program() {
        let mut a = Asm::new(0x1000);
        a.addi(T0, T0, 1);
        a.raw(Instruction::reg3(Opcode::Add, T1, T0, T0));
        let p = a.finish().unwrap();
        let mut tc = TraceCache::new(8);
        tc.open_region(0x1000, 0x1008).unwrap();
        tc.fill_from_program(&p);
        assert!(tc.is_complete());
        assert_eq!(tc.to_program().unwrap().instrs, p.instrs);
    }

    /// The cross-request coherence key: identical fills — even from two
    /// independent trace caches — agree on the fingerprint, while a
    /// self-modified region at the same `(start_pc, end_pc)` diverges.
    #[test]
    fn fill_fingerprint_tracks_content_not_instance() {
        let mut a = Asm::new(0x1000);
        a.addi(T0, T0, 1);
        a.addi(T1, T1, 2);
        let words = a.finish().unwrap().encode().unwrap();

        let mut tc1 = TraceCache::new(8);
        tc1.open_region(0x1000, 0x1008).unwrap();
        tc1.fill(0x1000, words[0]);
        tc1.fill(0x1004, words[1]);

        // A different instance with the same content: same fingerprint,
        // even though the generations differ per-instance.
        let mut tc2 = TraceCache::new(8);
        tc2.open_region(0x1000, 0x1008).unwrap();
        tc2.fill(0x1004, words[1]);
        tc2.fill(0x1004, words[1]); // duplicate fill, no content change
        tc2.fill(0x1000, words[0]);
        assert_eq!(tc1.fill_fingerprint(), tc2.fill_fingerprint());

        // Self-modifying rewrite at the same region bounds: the
        // fingerprint must change (this is what keeps a shared cache from
        // serving the stale decode).
        let mut b = Asm::new(0x1004);
        b.addi(T2, T2, 7);
        let replacement = b.finish().unwrap().encode().unwrap()[0];
        let before = tc1.fill_fingerprint();
        tc1.open_region(0x1000, 0x1008).unwrap();
        tc1.fill(0x1000, words[0]);
        tc1.fill(0x1004, replacement);
        assert_ne!(tc1.fill_fingerprint(), before);
    }

    #[test]
    fn fill_fingerprint_distinguishes_region_bounds_and_empty_slots() {
        let mut tc1 = TraceCache::new(8);
        tc1.open_region(0x1000, 0x1008).unwrap();
        let mut tc2 = TraceCache::new(8);
        tc2.open_region(0x1000, 0x100C).unwrap();
        assert_ne!(tc1.fill_fingerprint(), tc2.fill_fingerprint());

        // An empty slot is not the same as any captured word.
        let empty = tc1.fill_fingerprint();
        tc1.fill(0x1000, 0);
        assert_ne!(tc1.fill_fingerprint(), empty);
    }
}
