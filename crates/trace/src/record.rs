//! Per-instruction trace records emitted by the workload executor.
//!
//! A [`FetchRecord`] describes one *retired* instruction: its PC, its
//! control-flow behaviour (for branch predictors and FDIP), and its data
//! memory behaviour (for the back-end timing model). The committed
//! instruction stream of a core is an iterator of these records.

use crate::types::Addr;

/// Control-transfer instruction kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct jump.
    Jump,
    /// Function call (direct or indirect).
    Call,
    /// Function return.
    Return,
}

/// Data-memory behaviour of an instruction, including the latency class its
/// access will resolve in (drawn by the workload model; the timing simulator
/// turns classes into concrete latencies and L2/DRAM traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MemClass {
    /// Not a memory instruction.
    #[default]
    None,
    /// Load that hits in the L1-D cache.
    LoadL1,
    /// Load that misses L1-D and hits in the shared L2.
    LoadL2,
    /// Load that misses on chip and goes to memory.
    LoadMem,
    /// Store (buffered; retires without stalling, but occupies L2 bandwidth
    /// on writeback with some probability).
    Store,
}

impl MemClass {
    /// Returns `true` for loads of any latency class.
    pub fn is_load(self) -> bool {
        matches!(
            self,
            MemClass::LoadL1 | MemClass::LoadL2 | MemClass::LoadMem
        )
    }
}

/// Dynamic branch outcome attached to a branch record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Static kind of the control transfer.
    pub kind: BranchKind,
    /// Whether the branch was taken this execution.
    pub taken: bool,
    /// Target address when taken (for calls, the callee entry; for returns,
    /// the return address).
    pub target: Addr,
    /// Ground truth from the generator: this is the backward branch of an
    /// innermost loop (used by the paper's Figure 10 filter).
    pub inner_loop: bool,
}

/// One retired instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchRecord {
    /// Program counter of the instruction.
    pub pc: Addr,
    /// Branch behaviour, if this is a control-transfer instruction.
    pub branch: Option<BranchInfo>,
    /// Data-memory behaviour.
    pub mem: MemClass,
    /// This instruction was interrupted by a trap: the *next* instruction
    /// executes in a trap handler (an unpredictable fetch discontinuity).
    pub trap: bool,
    /// A context switch fired after this instruction: the core's
    /// prefetcher metadata (TIFS history/index pointers, FDIP and
    /// discontinuity state) is invalidated, and the simulator starts
    /// measuring the metadata-refill cost.
    pub flush: bool,
}

impl FetchRecord {
    /// A plain non-memory instruction at `pc`.
    pub fn plain(pc: Addr) -> FetchRecord {
        FetchRecord {
            pc,
            branch: None,
            mem: MemClass::None,
            trap: false,
            flush: false,
        }
    }

    /// The PC of the next sequential instruction.
    pub fn fall_through(&self) -> Addr {
        self.pc.add_instrs(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_record() {
        let r = FetchRecord::plain(Addr(0x100));
        assert!(r.branch.is_none());
        assert_eq!(r.fall_through(), Addr(0x104));
        assert_eq!(r.mem, MemClass::None);
    }

    #[test]
    fn mem_class_predicates() {
        assert!(MemClass::LoadL1.is_load());
        assert!(MemClass::LoadL2.is_load());
        assert!(MemClass::LoadMem.is_load());
        assert!(!MemClass::Store.is_load());
        assert!(!MemClass::None.is_load());
    }
}
