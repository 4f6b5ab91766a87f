//! Core address and identifier newtypes shared across the TIFS workspace.
//!
//! Following C-NEWTYPE, byte addresses, cache-block addresses, and core
//! identifiers are distinct types so they cannot be confused: the TIFS
//! hardware operates almost entirely on *block* addresses (the paper's IMLs
//! log block addresses), while the fetch unit and branch predictors operate
//! on instruction *byte* addresses.

use std::fmt;

/// Cache-block size in bytes (64 B throughout the paper, Table II).
pub const BLOCK_BYTES: u64 = 64;

/// Instruction size in bytes (fixed-width ISA, as in the paper's
/// UltraSPARC III).
pub const INSTR_BYTES: u64 = 4;

/// Instructions per cache block.
pub const INSTRS_PER_BLOCK: u64 = BLOCK_BYTES / INSTR_BYTES;

/// A byte address in the simulated physical address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache block containing this address.
    #[inline]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 / BLOCK_BYTES)
    }

    /// The address `count` instructions after this one.
    #[inline]
    pub fn add_instrs(self, count: u64) -> Addr {
        Addr(self.0 + count * INSTR_BYTES)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Addr {
        Addr(v)
    }
}

/// A cache-block address (byte address divided by [`BLOCK_BYTES`]).
///
/// This is the unit the TIFS structures operate on: Instruction Miss Logs
/// record block addresses, and the Index Table maps block addresses to IML
/// pointers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// First byte address of this block.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * BLOCK_BYTES)
    }

    /// The block immediately following this one.
    #[inline]
    pub fn next(self) -> BlockAddr {
        BlockAddr(self.0 + 1)
    }

    /// The block `n` after this one.
    #[inline]
    pub fn offset(self, n: u64) -> BlockAddr {
        BlockAddr(self.0 + n)
    }

    /// Returns `true` if `other` is the block immediately after `self`
    /// (i.e. a next-line prefetcher covers the transition).
    #[inline]
    pub fn is_sequential_successor(self, other: BlockAddr) -> bool {
        other.0 == self.0 + 1
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockAddr({:#x})", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(v: u64) -> BlockAddr {
        BlockAddr(v)
    }
}

/// A processor core identifier in the simulated CMP (0..num_cores).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Index usable for per-core arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A simulation cycle count.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The cycle `n` cycles later.
    #[inline]
    pub fn plus(self, n: u64) -> Cycle {
        Cycle(self.0 + n)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping() {
        assert_eq!(Addr(0).block(), BlockAddr(0));
        assert_eq!(Addr(63).block(), BlockAddr(0));
        assert_eq!(Addr(64).block(), BlockAddr(1));
        assert_eq!(BlockAddr(3).base(), Addr(192));
    }

    #[test]
    fn sequential_successor() {
        assert!(BlockAddr(5).is_sequential_successor(BlockAddr(6)));
        assert!(!BlockAddr(5).is_sequential_successor(BlockAddr(5)));
        assert!(!BlockAddr(5).is_sequential_successor(BlockAddr(7)));
        assert!(!BlockAddr(5).is_sequential_successor(BlockAddr(4)));
    }

    #[test]
    fn instr_arithmetic() {
        let a = Addr(0x1000);
        assert_eq!(a.add_instrs(1), Addr(0x1004));
        assert_eq!(a.add_instrs(INSTRS_PER_BLOCK), Addr(0x1040));
        assert_eq!(a.add_instrs(INSTRS_PER_BLOCK).block(), a.block().next());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Addr(0x40)), "0x40");
        assert_eq!(format!("{}", BlockAddr(0x40)), "b0x40");
        assert_eq!(format!("{}", CoreId(2)), "core2");
        assert_eq!(format!("{}", Cycle(7).plus(3)), "cycle 10");
    }
}
