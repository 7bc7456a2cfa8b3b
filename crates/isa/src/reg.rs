//! Architectural register names for the integer (`x0`–`x31`) and
//! floating-point (`f0`–`f31`) register files.
//!
//! MESA's rename table (paper §3.2) maps *architectural registers* to the
//! last instruction that wrote them. Treating the two register files as one
//! 64-entry architectural space keeps that table a single flat array, which
//! mirrors the hardware structure the paper synthesizes.

use std::fmt;

/// An architectural register: either an integer register `x0`–`x31` or a
/// floating-point register `f0`–`f31`.
///
/// ```
/// use mesa_isa::Reg;
/// let a0 = Reg::x(10);
/// assert_eq!(a0.to_string(), "a0");
/// assert_eq!(Reg::f(0).to_string(), "ft0");
/// assert_eq!(a0.flat_index(), 10);
/// assert_eq!(Reg::f(3).flat_index(), 35);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    /// Integer register `x{n}`, `n < 32`.
    X(u8),
    /// Floating-point register `f{n}`, `n < 32`.
    F(u8),
}

impl Reg {
    /// Number of architectural registers across both files.
    pub const COUNT: usize = 64;

    /// The hard-wired zero register `x0`.
    pub const ZERO: Reg = Reg::X(0);

    /// Creates an integer register.
    ///
    /// # Panics
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn x(n: u8) -> Self {
        assert!(n < 32, "integer register index {n} out of range");
        Reg::X(n)
    }

    /// Creates a floating-point register.
    ///
    /// # Panics
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn f(n: u8) -> Self {
        assert!(n < 32, "fp register index {n} out of range");
        Reg::F(n)
    }

    /// Raw 5-bit register number within its file.
    #[must_use]
    pub fn num(self) -> u8 {
        match self {
            Reg::X(n) | Reg::F(n) => n,
        }
    }

    /// Index into a flat 64-entry array covering both register files
    /// (`x` registers occupy 0–31, `f` registers 32–63).
    #[must_use]
    pub fn flat_index(self) -> usize {
        match self {
            Reg::X(n) => n as usize,
            Reg::F(n) => 32 + n as usize,
        }
    }

    /// Inverse of [`Reg::flat_index`].
    ///
    /// # Panics
    /// Panics if `idx >= 64`.
    #[must_use]
    pub fn from_flat_index(idx: usize) -> Self {
        assert!(idx < Self::COUNT, "flat register index {idx} out of range");
        if idx < 32 {
            Reg::X(idx as u8)
        } else {
            Reg::F((idx - 32) as u8)
        }
    }

    /// `true` for integer registers.
    #[must_use]
    pub fn is_int(self) -> bool {
        matches!(self, Reg::X(_))
    }

    /// `true` for floating-point registers.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, Reg::F(_))
    }

    /// `true` for the hard-wired zero register `x0`.
    ///
    /// Writes to `x0` are discarded and reads always return 0, so `x0` never
    /// participates in renaming or DFG edges.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == Reg::X(0)
    }
}

/// ABI names for the integer registers, indexed by register number.
const INT_ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1",
    "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
];

/// ABI names for the floating-point registers, indexed by register number.
const FP_ABI_NAMES: [&str; 32] = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1",
    "fa0", "fa1", "fa2", "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3",
    "fs4", "fs5", "fs6", "fs7", "fs8", "fs9", "fs10", "fs11", "ft8", "ft9",
    "ft10", "ft11",
];

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Reg::X(n) => f.write_str(INT_ABI_NAMES[n as usize]),
            Reg::F(n) => f.write_str(FP_ABI_NAMES[n as usize]),
        }
    }
}

macro_rules! abi_consts {
    ($($name:ident = $kind:ident($n:expr);)*) => {
        $(
            #[doc = concat!("ABI register `", stringify!($name), "`.")]
            pub const $name: Reg = Reg::$kind($n);
        )*
    };
}

/// ABI aliases (`A0`, `T0`, `S0`, `FA0`, …) for terse kernel construction.
pub mod abi {
    use super::Reg;
    abi_consts! {
        ZERO = X(0); RA = X(1); SP = X(2); GP = X(3); TP = X(4);
        T0 = X(5); T1 = X(6); T2 = X(7);
        S0 = X(8); S1 = X(9);
        A0 = X(10); A1 = X(11); A2 = X(12); A3 = X(13);
        A4 = X(14); A5 = X(15); A6 = X(16); A7 = X(17);
        S2 = X(18); S3 = X(19); S4 = X(20); S5 = X(21);
        S6 = X(22); S7 = X(23); S8 = X(24); S9 = X(25);
        S10 = X(26); S11 = X(27);
        T3 = X(28); T4 = X(29); T5 = X(30); T6 = X(31);
        FT0 = F(0); FT1 = F(1); FT2 = F(2); FT3 = F(3);
        FT4 = F(4); FT5 = F(5); FT6 = F(6); FT7 = F(7);
        FS0 = F(8); FS1 = F(9);
        FA0 = F(10); FA1 = F(11); FA2 = F(12); FA3 = F(13);
        FA4 = F(14); FA5 = F(15); FA6 = F(16); FA7 = F(17);
        FS2 = F(18); FS3 = F(19); FS4 = F(20); FS5 = F(21);
        FS6 = F(22); FS7 = F(23); FS8 = F(24); FS9 = F(25);
        FS10 = F(26); FS11 = F(27);
        FT8 = F(28); FT9 = F(29); FT10 = F(30); FT11 = F(31);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_roundtrip() {
        for idx in 0..Reg::COUNT {
            assert_eq!(Reg::from_flat_index(idx).flat_index(), idx);
        }
    }

    #[test]
    fn display_uses_abi_names() {
        assert_eq!(Reg::x(0).to_string(), "zero");
        assert_eq!(Reg::x(2).to_string(), "sp");
        assert_eq!(Reg::x(10).to_string(), "a0");
        assert_eq!(Reg::f(10).to_string(), "fa0");
        assert_eq!(Reg::f(31).to_string(), "ft11");
    }

    #[test]
    fn zero_detection() {
        assert!(Reg::x(0).is_zero());
        assert!(!Reg::f(0).is_zero());
        assert!(!Reg::x(1).is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn x_register_out_of_range_panics() {
        let _ = Reg::x(32);
    }

    #[test]
    fn file_predicates() {
        assert!(Reg::x(5).is_int());
        assert!(!Reg::x(5).is_fp());
        assert!(Reg::f(5).is_fp());
        assert!(!Reg::f(5).is_int());
    }

    #[test]
    fn abi_constants_match_names() {
        assert_eq!(abi::A0, Reg::X(10));
        assert_eq!(abi::FT11, Reg::F(31));
        assert_eq!(abi::SP.to_string(), "sp");
    }
}
