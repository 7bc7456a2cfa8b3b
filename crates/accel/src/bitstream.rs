//! Configuration bitstream serialization.
//!
//! The paper's configuration step has MESA's config block "iterate through
//! the SDFG and send operation and interconnect control bits (a
//! configuration bitstream) to the accelerator" (§4.3). This module
//! defines that wire format: a compact little-endian word stream carrying
//! the region header, one record per instruction slot (operation word,
//! placement, operand routing, predication, memory-optimization flags),
//! and the live-out map. Encoding and decoding round-trip exactly, so the
//! controller and accelerator can be developed and tested against the same
//! artifact a hardware implementation would ship over its config bus.

use crate::{AccelProgram, Coord, NodeConfig, Operand};
use mesa_isa::{codec, Reg};
use std::fmt;

/// Magic word opening every bitstream (`"MESACFG1"` as ASCII).
pub const MAGIC: u64 = u64::from_le_bytes(*b"MESACFG1");

/// Errors produced while decoding a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// Stream too short for the structure it claims to contain.
    Truncated,
    /// The magic word did not match.
    BadMagic(u64),
    /// An embedded machine word failed to decode.
    BadInstruction(u32),
    /// An operand tag byte was not recognized.
    BadOperandTag(u8),
    /// A register index exceeded the architectural range.
    BadRegister(u64),
    /// An instruction could not be re-encoded to machine form while
    /// building the stream (a malformed configuration).
    Unencodable(u64),
    /// The stream parsed, but is not the encoding of what it parsed to:
    /// reserved bits set, trailing words, or a non-canonical instruction
    /// word.
    NonCanonical,
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::Truncated => write!(f, "bitstream truncated"),
            BitstreamError::BadMagic(m) => write!(f, "bad magic {m:#018x}"),
            BitstreamError::BadInstruction(w) => {
                write!(f, "embedded instruction {w:#010x} failed to decode")
            }
            BitstreamError::BadOperandTag(t) => write!(f, "unknown operand tag {t}"),
            BitstreamError::BadRegister(r) => write!(f, "register index {r} out of range"),
            BitstreamError::Unencodable(pc) => {
                write!(f, "instruction at {pc:#x} cannot be re-encoded")
            }
            BitstreamError::NonCanonical => write!(f, "bitstream is not in canonical form"),
        }
    }
}

impl std::error::Error for BitstreamError {}

/// Little-endian word writer.
#[derive(Debug, Default)]
struct Writer {
    words: Vec<u64>,
}

impl Writer {
    fn push(&mut self, w: u64) {
        self.words.push(w);
    }
}

/// Cursor over the word stream.
struct Reader<'a> {
    words: &'a [u64],
    at: usize,
}

impl Reader<'_> {
    fn next(&mut self) -> Result<u64, BitstreamError> {
        let w = self.words.get(self.at).copied().ok_or(BitstreamError::Truncated)?;
        self.at += 1;
        Ok(w)
    }
}

/// Packs an operand into one word:
/// `tag[0..8] | idx[8..40] | carried[40] | via[41..48]`.
fn pack_operand(op: &Operand) -> u64 {
    match *op {
        Operand::None => 0,
        Operand::InitReg(r) => 1 | (r.flat_index() as u64) << 41,
        Operand::Node { idx, carried, via } => {
            2 | u64::from(idx) << 8
                | u64::from(carried) << 40
                | (via.flat_index() as u64) << 41
        }
    }
}

fn unpack_operand(w: u64) -> Result<Operand, BitstreamError> {
    let tag = (w & 0xFF) as u8;
    let reg_of = |bits: u64| -> Result<Reg, BitstreamError> {
        let idx = (bits >> 41) & 0x7F;
        if idx as usize >= Reg::COUNT {
            return Err(BitstreamError::BadRegister(idx));
        }
        Ok(Reg::from_flat_index(idx as usize))
    };
    match tag {
        0 => Ok(Operand::None),
        1 => Ok(Operand::InitReg(reg_of(w)?)),
        2 => Ok(Operand::Node {
            idx: ((w >> 8) & 0xFFFF_FFFF) as u32,
            carried: (w >> 40) & 1 == 1,
            via: reg_of(w)?,
        }),
        t => Err(BitstreamError::BadOperandTag(t)),
    }
}

/// Packs a placement: bit 63 = placed; row/col in the low bits.
fn pack_coord(c: Option<Coord>) -> u64 {
    match c {
        None => 0,
        Some(c) => 1 << 63 | (c.row as u64) << 16 | c.col as u64,
    }
}

fn unpack_coord(w: u64) -> Option<Coord> {
    (w >> 63 == 1).then(|| Coord::new(((w >> 16) & 0xFFFF_FFFF) as usize, (w & 0xFFFF) as usize))
}

/// Per-node flag bits.
const FLAG_PREFETCHED: u64 = 1;
const FLAG_SCALE_IMM: u64 = 2;
const FLAG_HAS_FORWARD: u64 = 4;
const FLAG_HAS_VECTOR_HEAD: u64 = 8;

/// Encodes a configured region into its bitstream.
///
/// The instruction itself is carried as its *machine word* — the
/// accelerator re-decodes it, exactly as PEs latch "registers holding
/// instruction data" in the paper's §5.2.
///
/// # Errors
/// Returns [`BitstreamError::Unencodable`] when an instruction cannot be
/// re-encoded to machine form (impossible for programs built from decoded
/// regions, but reachable from hand-built or corrupted configurations).
pub fn encode(prog: &AccelProgram) -> Result<Vec<u64>, BitstreamError> {
    let mut w = Writer::default();
    w.push(MAGIC);
    w.push(prog.start_pc);
    w.push(prog.end_pc);
    w.push(prog.nodes.len() as u64);
    w.push(
        u64::from(prog.loop_branch)
            | (prog.tiles as u64) << 32
            | u64::from(prog.pipelined) << 48,
    );

    for node in &prog.nodes {
        w.push(node.pc);
        let instr_word =
            codec::encode(&node.instr).map_err(|_| BitstreamError::Unencodable(node.pc))?;
        let mut flags = 0u64;
        if node.prefetched {
            flags |= FLAG_PREFETCHED;
        }
        if node.scale_imm_by_tiles {
            flags |= FLAG_SCALE_IMM;
        }
        if node.forwarded_from.is_some() {
            flags |= FLAG_HAS_FORWARD;
        }
        if node.vector_head.is_some() {
            flags |= FLAG_HAS_VECTOR_HEAD;
        }
        w.push(u64::from(instr_word) | flags << 32);
        w.push(pack_coord(node.coord));
        w.push(pack_operand(&node.inputs[0]));
        w.push(pack_operand(&node.inputs[1]));
        w.push(pack_operand(&node.hidden));
        w.push(
            u64::from(node.forwarded_from.unwrap_or(0))
                | u64::from(node.vector_head.unwrap_or(0)) << 32,
        );
        w.push(node.guards.len() as u64);
        for &g in &node.guards {
            w.push(u64::from(g));
        }
    }

    w.push(prog.live_out.len() as u64);
    for &(reg, node) in &prog.live_out {
        w.push((reg.flat_index() as u64) << 32 | u64::from(node));
    }
    Ok(w.words)
}

/// Decodes a bitstream back into the configured region.
///
/// # Errors
/// Returns [`BitstreamError`] on malformed input, never panics. A
/// successful decode round-trips [`encode`] exactly.
pub fn decode(words: &[u64]) -> Result<AccelProgram, BitstreamError> {
    let mut r = Reader { words, at: 0 };
    let magic = r.next()?;
    if magic != MAGIC {
        return Err(BitstreamError::BadMagic(magic));
    }
    let start_pc = r.next()?;
    let end_pc = r.next()?;
    let n = r.next()? as usize;
    let meta = r.next()?;
    let loop_branch = (meta & 0xFFFF_FFFF) as u32;
    let tiles = ((meta >> 32) & 0xFFFF) as usize;
    let pipelined = (meta >> 48) & 1 == 1;

    // Counts come off the wire: reserve no more than the stream can hold.
    let mut nodes = Vec::with_capacity(n.min(words.len()));
    for _ in 0..n {
        let pc = r.next()?;
        let instr_flags = r.next()?;
        let instr_word = (instr_flags & 0xFFFF_FFFF) as u32;
        let flags = instr_flags >> 32;
        let instr = codec::decode(instr_word)
            .map_err(|_| BitstreamError::BadInstruction(instr_word))?;
        let coord = unpack_coord(r.next()?);
        let s1 = unpack_operand(r.next()?)?;
        let s2 = unpack_operand(r.next()?)?;
        let hidden = unpack_operand(r.next()?)?;
        let fw_vec = r.next()?;
        let guard_count = r.next()? as usize;
        let mut guards = Vec::with_capacity(guard_count.min(words.len()));
        for _ in 0..guard_count {
            guards.push(r.next()? as u32);
        }
        let mut node = NodeConfig::new(pc, instr, coord, [s1, s2]);
        node.hidden = hidden;
        node.guards = guards;
        node.prefetched = flags & FLAG_PREFETCHED != 0;
        node.scale_imm_by_tiles = flags & FLAG_SCALE_IMM != 0;
        node.forwarded_from =
            (flags & FLAG_HAS_FORWARD != 0).then_some((fw_vec & 0xFFFF_FFFF) as u32);
        node.vector_head = (flags & FLAG_HAS_VECTOR_HEAD != 0).then_some((fw_vec >> 32) as u32);
        nodes.push(node);
    }

    let live_count = r.next()? as usize;
    let mut live_out = Vec::with_capacity(live_count.min(words.len()));
    for _ in 0..live_count {
        let w = r.next()?;
        let reg_idx = (w >> 32) as usize;
        if reg_idx >= Reg::COUNT {
            return Err(BitstreamError::BadRegister(reg_idx as u64));
        }
        live_out.push((Reg::from_flat_index(reg_idx), (w & 0xFFFF_FFFF) as u32));
    }

    let prog = AccelProgram { start_pc, end_pc, nodes, loop_branch, live_out, tiles, pipelined };
    if encode(&prog)? != words {
        return Err(BitstreamError::NonCanonical);
    }
    Ok(prog)
}

/// Size of the encoded bitstream in bits — what the config bus actually
/// carries, used to sanity-check the cycle model's write cost. An
/// unencodable program reports zero bits (it can never be shipped).
#[must_use]
pub fn size_bits(prog: &AccelProgram) -> usize {
    encode(prog).map_or(0, |words| words.len() * 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::{Instruction, Opcode};
    use mesa_isa::reg::abi::*;
    use mesa_test::prop::words_near;
    use mesa_test::{forall, prop_assert_eq, Checker};

    fn sample_program() -> AccelProgram {
        let mut load = NodeConfig::new(
            0x1000,
            Instruction::load(Opcode::Lw, T0, A0, 0),
            Some(Coord::new(1, 2)),
            [Operand::Node { idx: 2, carried: true, via: A0 }, Operand::None],
        );
        load.prefetched = true;
        let mut guarded = NodeConfig::new(
            0x1004,
            Instruction::reg_imm(Opcode::Addi, T1, T1, 5),
            None, // fallback bus
            [Operand::Node { idx: 1, carried: true, via: T1 }, Operand::None],
        );
        guarded.guards = vec![0];
        guarded.hidden = Operand::Node { idx: 1, carried: true, via: T1 };
        let mut addi = NodeConfig::new(
            0x1008,
            Instruction::reg_imm(Opcode::Addi, A0, A0, 4),
            Some(Coord::new(0, 0)),
            [Operand::Node { idx: 2, carried: true, via: A0 }, Operand::None],
        );
        addi.scale_imm_by_tiles = true;
        let branch = NodeConfig::new(
            0x100C,
            Instruction::branch(Opcode::Bltu, A0, A1, -12),
            Some(Coord::new(0, 1)),
            [
                Operand::Node { idx: 2, carried: false, via: A0 },
                Operand::InitReg(A1),
            ],
        );
        AccelProgram {
            start_pc: 0x1000,
            end_pc: 0x1010,
            nodes: vec![load, guarded, addi, branch],
            loop_branch: 3,
            live_out: vec![(T0, 0), (A0, 2)],
            tiles: 4,
            pipelined: true,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let prog = sample_program();
        let words = encode(&prog).unwrap();
        let back = decode(&words).expect("decodes");
        assert_eq!(back, prog);
    }

    #[test]
    fn magic_is_checked() {
        let mut words = encode(&sample_program()).unwrap();
        words[0] ^= 0xFF;
        assert!(matches!(decode(&words), Err(BitstreamError::BadMagic(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let words = encode(&sample_program()).unwrap();
        for cut in [1, 4, 7, words.len() - 1] {
            assert_eq!(
                decode(&words[..cut]),
                Err(BitstreamError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_instruction_is_detected() {
        let prog = sample_program();
        let mut words = encode(&prog).unwrap();
        // Node records start at word 5; word 6 holds instr|flags.
        words[6] = (words[6] & !0xFFFF_FFFF) | 0xFFFF_FFFF;
        assert!(matches!(decode(&words), Err(BitstreamError::BadInstruction(_))));
    }

    #[test]
    fn operand_packing_roundtrips() {
        let ops = [
            Operand::None,
            Operand::InitReg(A1),
            Operand::InitReg(FT0),
            Operand::Node { idx: 0, carried: false, via: T0 },
            Operand::Node { idx: 4_000_000, carried: true, via: FA5 },
        ];
        for op in ops {
            assert_eq!(unpack_operand(pack_operand(&op)).unwrap(), op, "{op:?}");
        }
    }

    #[test]
    fn coord_packing_roundtrips() {
        for c in [None, Some(Coord::new(0, 0)), Some(Coord::new(63, 7))] {
            assert_eq!(unpack_coord(pack_coord(c)), c);
        }
    }

    #[test]
    fn size_is_compact() {
        let prog = sample_program();
        // 5 header + 4 nodes * (8 fixed + guards) + 1 + 2 live-outs.
        let bits = size_bits(&prog);
        assert_eq!(bits, (5 + (8 * 4 + 1) + 1 + 2) * 64);
    }

    #[test]
    fn trailing_words_and_reserved_bits_are_not_canonical() {
        let mut words = encode(&sample_program()).unwrap();
        words.push(0);
        assert_eq!(decode(&words), Err(BitstreamError::NonCanonical));
        words.pop();
        words[4] |= 1 << 60; // reserved bit of the header's meta word
        assert_eq!(decode(&words), Err(BitstreamError::NonCanonical));
    }

    /// Any word stream decodes to a typed error or to a program whose
    /// encoding is exactly that stream; none panics.
    #[test]
    fn decode_is_total_and_canonical() {
        let valid = encode(&sample_program()).unwrap();
        forall!(
            Checker::new("bitstream::decode_is_total_and_canonical").cases(512),
            |(words in words_near(valid.clone()))| {
                if let Ok(prog) = decode(&words) {
                    prop_assert_eq!(encode(&prog), Ok(words.clone()));
                }
            }
        );
    }
}
