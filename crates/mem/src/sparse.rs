//! Page-granular sparse backing store.
//!
//! Workload footprints are megabytes against a 64-bit address space, so the
//! functional state is held in 4 KiB pages allocated on first touch. Reads
//! of untouched memory return zero, matching a zero-initialized heap.

use mesa_isa::MemoryIo;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Multiply–xorshift hasher for page numbers.
///
/// The default SipHash dominated the simulators' memory path (one keyed
/// hash per *byte* before the per-access fast path below). Page numbers
/// are small, dense integers under our control — not attacker input — so
/// a single odd-constant multiply plus an xorshift to spread entropy into
/// the low bits (the bucket index) is collision-free in practice and an
/// order of magnitude cheaper.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0;
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `BuildHasher` for [`PageHasher`] — shared with the sparse cache-set
/// store in [`crate::cache`], which has the same small-dense-integer key
/// profile.
pub type PageHasherBuild = BuildHasherDefault<PageHasher>;

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, PageHasherBuild>;

/// Pages below this number resolve through a flat pointer table instead
/// of the hash map: 8 Ki pages = the low 32 MiB, which covers every
/// shipped workload footprint (they top out at 24 MiB). The table is one
/// lazily allocated 64 KiB vector of `Option<Box<Page>>` (null-pointer
/// optimized), so an untouched `SparseMemory` still costs nothing and
/// the simulators' per-access page walk is an index instead of a hash
/// probe — the probe showed up at ~13% of OoO simulation time.
const DIRECT_PAGES: usize = 1 << 13;

/// Sparse byte-addressable memory with 4 KiB page granularity.
///
/// ```
/// use mesa_mem::SparseMemory;
/// use mesa_isa::MemoryIo;
/// let mut m = SparseMemory::new();
/// m.store(0x1000, 4, 0xDEAD_BEEF);
/// assert_eq!(m.load(0x1000, 4), 0xDEAD_BEEF);
/// assert_eq!(m.load(0x2000, 8), 0); // untouched reads as zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    /// Flat table for pages below [`DIRECT_PAGES`]; empty until the
    /// first low-page store.
    direct: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    /// Everything at or above the direct window.
    pages: PageMap,
}

impl SparseMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages touched so far (footprint / 4 KiB).
    #[must_use]
    #[cfg(test)]
    fn resident_pages(&self) -> usize {
        self.direct.iter().filter(|p| p.is_some()).count() + self.pages.len()
    }

    /// Resolves the page holding `addr`, without allocating.
    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        let pn = addr >> PAGE_SHIFT;
        if (pn as usize) < DIRECT_PAGES {
            match self.direct.get(pn as usize) {
                Some(slot) => slot.as_deref(),
                None => None,
            }
        } else {
            self.pages.get(&pn).map(|b| &**b)
        }
    }

    /// Resolves the page holding `addr`, allocating it on first touch.
    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let pn = addr >> PAGE_SHIFT;
        if (pn as usize) < DIRECT_PAGES {
            if self.direct.is_empty() {
                self.direct.resize_with(DIRECT_PAGES, || None);
            }
            self.direct[pn as usize].get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
        } else {
            self.pages.entry(pn).or_insert_with(|| Box::new([0; PAGE_SIZE]))
        }
    }

    fn read_byte(&self, addr: u64) -> u8 {
        self.page(addr).map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    fn write_byte(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Writes a `u32` little-endian (test/workload setup convenience).
    pub fn store_u32(&mut self, addr: u64, value: u32) {
        self.store(addr, 4, u64::from(value));
    }

    /// Reads a `u32` little-endian.
    pub fn load_u32(&mut self, addr: u64) -> u32 {
        self.load(addr, 4) as u32
    }
}

impl MemoryIo for SparseMemory {
    #[inline]
    fn load(&mut self, addr: u64, width: u8) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        // Fast path: the access fits in one page, so resolve it once
        // instead of once per byte. Word accesses (the overwhelmingly
        // common shape on RV32) read in one fixed-width move instead of a
        // runtime-width byte loop.
        if off + usize::from(width) <= PAGE_SIZE {
            return match self.page(addr) {
                Some(page) => {
                    if width == 4 {
                        let bytes: [u8; 4] =
                            page[off..off + 4].try_into().expect("4-byte slice");
                        u64::from(u32::from_le_bytes(bytes))
                    } else {
                        let mut v = 0u64;
                        for i in 0..usize::from(width) {
                            v |= u64::from(page[off + i]) << (8 * i);
                        }
                        v
                    }
                }
                None => 0,
            };
        }
        let mut v = 0u64;
        for i in 0..width {
            v |= u64::from(self.read_byte(addr.wrapping_add(u64::from(i)))) << (8 * i);
        }
        v
    }

    #[inline]
    fn store(&mut self, addr: u64, width: u8, value: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + usize::from(width) <= PAGE_SIZE {
            let page = self.page_mut(addr);
            if width == 4 {
                page[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes());
            } else {
                for i in 0..usize::from(width) {
                    page[off + i] = (value >> (8 * i)) as u8;
                }
            }
            return;
        }
        for i in 0..width {
            self.write_byte(addr.wrapping_add(u64::from(i)), (value >> (8 * i)) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mut m = SparseMemory::new();
        assert_eq!(m.load(0xDEAD_0000, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let addr = 0x1FFE; // straddles the 0x1000/0x2000 page boundary
        m.store(addr, 4, 0xAABB_CCDD);
        assert_eq!(m.load(addr, 4), 0xAABB_CCDD);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn partial_overwrite() {
        let mut m = SparseMemory::new();
        m.store(0x100, 8, 0x1122_3344_5566_7788);
        m.store(0x102, 2, 0xFFFF);
        assert_eq!(m.load(0x100, 8), 0x1122_3344_FFFF_7788);
    }
}
