//! The workspace's one FNV-1a implementation.
//!
//! Snapshot checksums, program fingerprints, artifact-cache keys, trace
//! cache fill digests and property-test seeds all hash with 64-bit FNV-1a.
//! [`Fnv64`] is a byte-wise [`Hasher`], so any `#[derive(Hash)]` type can
//! be digested structurally with no formatting and no allocation:
//!
//! ```
//! use mesa_trace::Fnv64;
//! use std::hash::{Hash, Hasher};
//!
//! let mut h = Fnv64::new();
//! (7u32, Some(true)).hash(&mut h);
//! let digest = h.finish();
//! assert_ne!(digest, Fnv64::new().finish());
//! ```
//!
//! Every fixed-width integer `write_*` feeds its little-endian bytes, and
//! `usize`/`isize` (which `Hash` uses for lengths and enum discriminants)
//! are widened to 64 bits first, so a digest does not depend on the host's
//! byte order or pointer width. One exception is std's own: slices of
//! primitive integers (`[u32]`, `Vec<u32>`, ...) hash their in-memory bytes
//! through a single [`Hasher::write`], which is little-endian only on
//! little-endian hosts.

use std::hash::Hasher;

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-wise 64-bit FNV-1a hasher. [`Default`] starts at the offset basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// One FNV-1a round over `symbol` taken as a single wide symbol rather
    /// than as its bytes (xor the whole value, then multiply). Digests
    /// defined over 32-bit memory words use this; it is not interchangeable
    /// with [`Hasher::write_u64`].
    pub fn write_symbol(&mut self, symbol: u64) {
        self.0 = (self.0 ^ symbol).wrapping_mul(PRIME);
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_symbol(u64::from(b));
        }
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    // The other signed `write_*` defaults forward to their unsigned
    // twins; `isize` would forward to `usize` and zero-extend on 32-bit
    // hosts, so it is sign-extended to 64 bits here instead.
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(Fnv64::default(), Fnv64::new());
    }

    #[test]
    fn integers_hash_their_little_endian_bytes() {
        let v = 0x0123_4567_89ab_cdef_u64;
        let mut h = Fnv64::new();
        h.write_u64(v);
        assert_eq!(h.finish(), fnv(&v.to_le_bytes()));

        let mut wide = Fnv64::new();
        wide.write_usize(7);
        wide.write_isize(-1);
        let mut narrow = Fnv64::new();
        narrow.write_u64(7);
        narrow.write_i64(-1);
        assert_eq!(wide, narrow);
    }

    #[test]
    fn a_symbol_round_folds_the_whole_value() {
        let mut h = Fnv64::new();
        h.write_symbol(0x1_0000);
        assert_eq!(
            h.finish(),
            (0xcbf2_9ce4_8422_2325_u64 ^ 0x1_0000).wrapping_mul(PRIME)
        );
        assert_ne!(h.finish(), fnv(&0x1_0000u64.to_le_bytes()));
    }
}
