//! Serializable placement checkpoints.
//!
//! A [`PlacementSnapshot`] freezes a running spatial session at a round
//! boundary: per-tile architectural state (entry registers with induction
//! offsets, carried node outputs), the timing state the fabric needs to
//! continue bit-identically (completion times, the LSU's in-order store
//! cursor, per-lane/port/bus booking counters, in-flight bus-token drop
//! position), and the cumulative latency counters MESA's feedback channel
//! reports. Snapshots are *position-independent*: they record how many rows
//! the session's region had, not where it sat, so a checkpoint taken in one
//! region resumes in any other region of the same height — on the same grid
//! or a different one. That is the mechanism behind tenant migration, and
//! the differential property tests pin down that it is architecturally
//! invisible.
//!
//! The wire format mirrors the config bitstream (`bitstream.rs`): a
//! little-endian `u64` word stream with a magic word, a version, explicit
//! counts, and a trailing FNV checksum, so a truncated or corrupted
//! snapshot is rejected with a typed [`SnapshotError`] instead of
//! panicking.

use crate::counters::{ActivityStats, NodeCounter, PerfCounters};
use crate::faults::{FaultLog, FaultPlan};
use crate::{AccelProgram, AccelRunResult, Region};
use mesa_isa::{Reg, Xlen};
use mesa_trace::Fnv64;
use std::fmt;
use std::hash::Hasher;

/// Magic word opening every snapshot stream (`"MESASNP1"` as ASCII).
pub const SNAPSHOT_MAGIC: u64 = u64::from_le_bytes(*b"MESASNP1");

/// Wire-format version emitted by [`PlacementSnapshot::to_words`].
const VERSION: u64 = 1;

/// Decode-time bounds: a corrupted count must not trigger an enormous
/// allocation before the checksum gets a chance to reject the stream.
const MAX_NODES: u64 = 1 << 20;
const MAX_TILES: u64 = 1 << 10;
const MAX_REGION_ROWS: u64 = 1 << 16;

/// Errors produced while decoding or resuming a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Stream too short for the structure it claims to contain.
    Truncated,
    /// The magic word did not match.
    BadMagic(u64),
    /// The version word is not one this decoder understands.
    BadVersion(u64),
    /// The trailing checksum did not match the stream contents.
    ChecksumMismatch {
        /// Checksum recomputed from the received words.
        expected: u64,
        /// Checksum word carried by the stream.
        found: u64,
    },
    /// A count or enum field held an impossible value.
    FieldOutOfRange(&'static str),
    /// The snapshot does not belong to the program/region/fault plan it is
    /// being resumed against.
    Mismatch {
        /// Which binding failed.
        field: &'static str,
        /// Value the resume context requires.
        expected: u64,
        /// Value the snapshot carries.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:#018x}"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: computed {expected:#018x}, stream carries {found:#018x}"
            ),
            SnapshotError::FieldOutOfRange(field) => {
                write!(f, "snapshot field {field} out of range")
            }
            SnapshotError::Mismatch { field, expected, found } => write!(
                f,
                "snapshot does not match resume context: {field} is {found:#x}, expected {expected:#x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One tile's frozen execution state (mirrors the engine's internal
/// `TileState`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TileSnap {
    /// Entry registers with per-tile induction offsets applied.
    pub(crate) entry_regs: Vec<u64>,
    /// Previous-iteration node outputs (the carried operand source).
    pub(crate) prev_value: Vec<u64>,
    /// Previous-iteration node completion times.
    pub(crate) prev_complete: Vec<u64>,
    /// Iterations this tile has executed.
    pub(crate) iters: u64,
    /// Completion time of the tile's last iteration.
    pub(crate) last_complete: u64,
    /// Whether the tile's loop is still running.
    pub(crate) running: bool,
    /// In-order store-commit cursor (the LSU queue's frozen head).
    pub(crate) last_store_start: u64,
}

/// A frozen spatial session: everything needed to resume mid-episode,
/// bit-identically, in any same-height region. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementSnapshot {
    /// Digest of the program this snapshot belongs to.
    pub(crate) fingerprint: u64,
    /// Register width of the offloaded state.
    pub(crate) xlen: Xlen,
    /// Node count (redundant with the program, kept for validation).
    pub(crate) nodes: usize,
    /// Tile count the session ran with.
    pub(crate) tiles: usize,
    /// Height of the region the session ran in.
    pub(crate) region_rows: usize,
    /// Fault binding: the bus-token drop period the session ran under.
    pub(crate) bus_drop_period: u64,
    /// Total iterations executed so far (across tiles).
    pub(crate) total_iters: u64,
    /// Tile that ran the globally-last iteration (live-out source).
    pub(crate) last_iter_tile: usize,
    /// Memory-port booking counter.
    pub(crate) port_requests: u64,
    /// Fallback-bus booking counter (also the drop-schedule position).
    pub(crate) bus_requests: u64,
    /// Bus tokens dropped so far.
    pub(crate) bus_drops: u64,
    /// Per-row NoC lane booking counters, region-relative.
    pub(crate) lane_requests: Vec<u64>,
    /// Per-tile frozen state.
    pub(crate) tile_states: Vec<TileSnap>,
    /// Cumulative per-node latency counters.
    pub(crate) counters: PerfCounters,
    /// Cumulative activity statistics.
    pub(crate) activity: ActivityStats,
}

impl PlacementSnapshot {
    /// Digest of the program this snapshot was taken from.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Iterations executed before the freeze (across all tiles).
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.total_iters
    }

    /// Session clock at the freeze: the latest per-tile completion time.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.tile_states.iter().map(|t| t.last_complete).max().unwrap_or(0)
    }

    /// Tile count the frozen session ran with.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Height (in rows) of the region the session ran in; a resume target
    /// region must match it.
    #[must_use]
    pub fn region_rows(&self) -> usize {
        self.region_rows
    }

    /// `true` while at least one tile's loop has not exited.
    #[must_use]
    fn is_running(&self) -> bool {
        self.tile_states.iter().any(|t| t.running)
    }

    /// Checks that this snapshot can resume against `prog` in `region`
    /// under `faults`.
    ///
    /// # Errors
    /// Returns [`SnapshotError::Mismatch`] naming the first binding that
    /// fails (program digest, node/tile counts, region height, or fault
    /// plan).
    pub fn check_compatible(
        &self,
        prog: &AccelProgram,
        region: Region,
        faults: &FaultPlan,
    ) -> Result<(), SnapshotError> {
        let checks = [
            ("program fingerprint", prog.fingerprint(), self.fingerprint),
            ("node count", prog.nodes.len() as u64, self.nodes as u64),
            ("tile count", prog.tiles.max(1) as u64, self.tiles as u64),
            ("region rows", region.rows as u64, self.region_rows as u64),
            ("bus drop period", faults.bus_drop_period, self.bus_drop_period),
        ];
        for (field, expected, found) in checks {
            if expected != found {
                return Err(SnapshotError::Mismatch { field, expected, found });
            }
        }
        Ok(())
    }

    /// Converts the frozen state into a partial [`AccelRunResult`]
    /// (`completed` reflects whether every tile's loop already exited).
    /// Live-out registers are read through the same last-iteration-tile
    /// rule the engine uses at completion.
    #[must_use]
    pub fn to_result(&self, prog: &AccelProgram) -> AccelRunResult {
        let final_regs = self
            .tile_states
            .get(self.last_iter_tile)
            .map(|last| {
                prog.live_out
                    .iter()
                    .map(|&(reg, node)| {
                        (reg, last.prev_value.get(node as usize).copied().unwrap_or(0))
                    })
                    .collect()
            })
            .unwrap_or_default();
        AccelRunResult {
            iterations: self.total_iters,
            cycles: self.cycles(),
            counters: self.counters.clone(),
            activity: self.activity,
            final_regs,
            completed: !self.is_running(),
            faults: FaultLog { bus_tokens_dropped: self.bus_drops, ..FaultLog::default() },
        }
    }

    /// Exact length in words of the stream [`PlacementSnapshot::to_words`]
    /// would produce, computed arithmetically — no allocation or
    /// serialization. The fabric's telemetry uses this to account
    /// checkpoint/restore cost in "wire words shuttled" without paying for
    /// a second serialization on the migration hot path.
    #[must_use]
    pub fn word_len(&self) -> usize {
        let tile_words = Reg::COUNT + 2 * self.nodes + 4;
        14 // header: magic..Reg::COUNT (see to_words)
            + self.region_rows
            + self.tiles * tile_words
            + self.nodes * NodeCounter::SNAPSHOT_WORDS
            + ActivityStats::SNAPSHOT_WORDS
            + 1 // trailing checksum
    }

    /// Serializes the snapshot to a little-endian word stream (magic,
    /// version, counts, payload, trailing FNV checksum).
    #[must_use]
    pub fn to_words(&self) -> Vec<u64> {
        let mut out = vec![
            SNAPSHOT_MAGIC,
            VERSION,
            self.fingerprint,
            match self.xlen {
                Xlen::Rv32 => 32,
                Xlen::Rv64 => 64,
            },
            self.nodes as u64,
            self.tiles as u64,
            self.region_rows as u64,
            self.bus_drop_period,
            self.total_iters,
            self.last_iter_tile as u64,
            self.port_requests,
            self.bus_requests,
            self.bus_drops,
            Reg::COUNT as u64,
        ];
        out.extend_from_slice(&self.lane_requests);
        for tile in &self.tile_states {
            out.extend_from_slice(&tile.entry_regs);
            out.extend_from_slice(&tile.prev_value);
            out.extend_from_slice(&tile.prev_complete);
            out.push(tile.iters);
            out.push(tile.last_complete);
            out.push(u64::from(tile.running));
            out.push(tile.last_store_start);
        }
        for ctr in &self.counters.nodes {
            ctr.write_words(&mut out);
        }
        self.activity.write_words(&mut out);
        out.push(fnv_words(&out));
        out
    }

    /// Decodes a word stream produced by [`PlacementSnapshot::to_words`].
    ///
    /// # Errors
    /// Returns a typed [`SnapshotError`] for any malformed input —
    /// truncation, bad magic/version, impossible counts, or a checksum
    /// mismatch — never panics.
    pub fn from_words(words: &[u64]) -> Result<Self, SnapshotError> {
        let mut r = WordReader { words, at: 0 };
        let magic = r.next()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = r.next()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let fingerprint = r.next()?;
        let xlen = match r.next()? {
            32 => Xlen::Rv32,
            64 => Xlen::Rv64,
            _ => return Err(SnapshotError::FieldOutOfRange("xlen")),
        };
        let nodes = r.bounded("node count", MAX_NODES)? as usize;
        let tiles = r.bounded("tile count", MAX_TILES)? as usize;
        if tiles == 0 {
            return Err(SnapshotError::FieldOutOfRange("tile count"));
        }
        let region_rows = r.bounded("region rows", MAX_REGION_ROWS)? as usize;
        if region_rows == 0 {
            return Err(SnapshotError::FieldOutOfRange("region rows"));
        }
        let bus_drop_period = r.next()?;
        let total_iters = r.next()?;
        let last_iter_tile = r.next()? as usize;
        if last_iter_tile >= tiles {
            return Err(SnapshotError::FieldOutOfRange("last iteration tile"));
        }
        let port_requests = r.next()?;
        let bus_requests = r.next()?;
        let bus_drops = r.next()?;
        if r.next()? != Reg::COUNT as u64 {
            return Err(SnapshotError::FieldOutOfRange("register file size"));
        }

        // The payload size is now fully determined; verify the trailing
        // checksum before decoding the bulk arrays.
        let tile_words = Reg::COUNT + 2 * nodes + 4;
        let payload_end = r.at
            + region_rows
            + tiles * tile_words
            + nodes * NodeCounter::SNAPSHOT_WORDS
            + ActivityStats::SNAPSHOT_WORDS;
        let Some(&carried) = words.get(payload_end) else {
            return Err(SnapshotError::Truncated);
        };
        if words.len() != payload_end + 1 {
            return Err(SnapshotError::FieldOutOfRange("stream length"));
        }
        let expected = fnv_words(&words[..payload_end]);
        if expected != carried {
            return Err(SnapshotError::ChecksumMismatch { expected, found: carried });
        }

        let lane_requests = r.take(region_rows)?.to_vec();
        let mut tile_states = Vec::with_capacity(tiles);
        for _ in 0..tiles {
            let entry_regs = r.take(Reg::COUNT)?.to_vec();
            let prev_value = r.take(nodes)?.to_vec();
            let prev_complete = r.take(nodes)?.to_vec();
            let iters = r.next()?;
            let last_complete = r.next()?;
            let running = match r.next()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::FieldOutOfRange("running flag")),
            };
            let last_store_start = r.next()?;
            tile_states.push(TileSnap {
                entry_regs,
                prev_value,
                prev_complete,
                iters,
                last_complete,
                running,
                last_store_start,
            });
        }
        let mut counters = PerfCounters::new(nodes);
        for ctr in &mut counters.nodes {
            *ctr = NodeCounter::from_words(r.take(NodeCounter::SNAPSHOT_WORDS)?)
                .ok_or(SnapshotError::Truncated)?;
        }
        let activity = ActivityStats::from_words(r.take(ActivityStats::SNAPSHOT_WORDS)?)
            .ok_or(SnapshotError::Truncated)?;

        Ok(PlacementSnapshot {
            fingerprint,
            xlen,
            nodes,
            tiles,
            region_rows,
            bus_drop_period,
            total_iters,
            last_iter_tile,
            port_requests,
            bus_requests,
            bus_drops,
            lane_requests,
            tile_states,
            counters,
            activity,
        })
    }
}

/// Cursor over the word stream (the bitstream decoder's idiom).
struct WordReader<'a> {
    words: &'a [u64],
    at: usize,
}

impl<'a> WordReader<'a> {
    fn next(&mut self) -> Result<u64, SnapshotError> {
        let w = self.words.get(self.at).copied().ok_or(SnapshotError::Truncated)?;
        self.at += 1;
        Ok(w)
    }

    /// Reads a count field and rejects values above `max` before any
    /// allocation sized by it.
    fn bounded(&mut self, field: &'static str, max: u64) -> Result<u64, SnapshotError> {
        let v = self.next()?;
        if v > max {
            return Err(SnapshotError::FieldOutOfRange(field));
        }
        Ok(v)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u64], SnapshotError> {
        let end = self.at.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self.words.get(self.at..end).ok_or(SnapshotError::Truncated)?;
        self.at = end;
        Ok(slice)
    }
}

/// FNV-1a over the little-endian bytes of a word stream (the checksum the
/// trailing word carries).
fn fnv_words(words: &[u64]) -> u64 {
    let mut hash = Fnv64::new();
    for &w in words {
        hash.write_u64(w);
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_test::prop::words_near;
    use mesa_test::{forall, prop_assert_eq, Checker};

    fn sample() -> PlacementSnapshot {
        PlacementSnapshot {
            fingerprint: 0xDEAD_BEEF,
            xlen: Xlen::Rv32,
            nodes: 2,
            tiles: 1,
            region_rows: 4,
            bus_drop_period: 3,
            total_iters: 5,
            last_iter_tile: 0,
            port_requests: 7,
            bus_requests: 9,
            bus_drops: 3,
            lane_requests: vec![1, 0, 2, 0],
            tile_states: vec![TileSnap {
                entry_regs: vec![0; Reg::COUNT],
                prev_value: vec![11, 22],
                prev_complete: vec![4, 5],
                iters: 5,
                last_complete: 5,
                running: true,
                last_store_start: 3,
            }],
            counters: PerfCounters::new(2),
            activity: ActivityStats { int_ops: 10, ..ActivityStats::default() },
        }
    }

    /// Any word stream, with its checksum as sent or recomputed over the
    /// (mutated) payload, decodes to a typed error or to a snapshot that
    /// re-encodes to exactly that stream; none panics.
    #[test]
    fn from_words_is_total_and_canonical() {
        let valid = sample().to_words();
        forall!(
            Checker::new("snapshot::from_words_is_total_and_canonical").cases(512),
            |(words in words_near(valid.clone()))| {
                let mut resealed = words.clone();
                if let Some((last, payload)) = resealed.split_last_mut() {
                    *last = fnv_words(payload);
                }
                for stream in [&words, &resealed] {
                    if let Ok(snap) = PlacementSnapshot::from_words(stream) {
                        prop_assert_eq!(&snap.to_words(), stream);
                    }
                }
            }
        );
    }

    #[test]
    fn words_roundtrip_exactly() {
        let snap = sample();
        let words = snap.to_words();
        let back = PlacementSnapshot::from_words(&words).expect("roundtrip");
        assert_eq!(snap, back);
        assert_eq!(back.cycles(), 5);
        assert_eq!(back.iterations(), 5);
        assert!(back.is_running());
    }

    #[test]
    fn word_len_matches_serialized_length() {
        let snap = sample();
        assert_eq!(snap.word_len(), snap.to_words().len());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let words = sample().to_words();
        for cut in 0..words.len() {
            let err = PlacementSnapshot::from_words(&words[..cut])
                .expect_err("truncated stream must not decode");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::FieldOutOfRange(_)
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn every_single_word_corruption_is_detected() {
        let words = sample().to_words();
        for i in 0..words.len() {
            let mut bad = words.clone();
            bad[i] ^= 1 << 17;
            assert!(
                PlacementSnapshot::from_words(&bad).is_err(),
                "flip in word {i} went undetected"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_reported() {
        let mut words = sample().to_words();
        words[0] = 42;
        assert_eq!(PlacementSnapshot::from_words(&words), Err(SnapshotError::BadMagic(42)));
        let mut words = sample().to_words();
        words[1] = 99;
        assert_eq!(PlacementSnapshot::from_words(&words), Err(SnapshotError::BadVersion(99)));
    }
}
