//! Branch prediction structures (paper Table II: hybrid predictor with
//! 16K-entry gShare and 16K-entry bimodal tables).
//!
//! The core uses a [`HybridPredictor`] for conditional branches, a
//! [`ReturnAddressStack`] for returns, and a [`TargetBuffer`] for indirect
//! targets. Fetch-directed prefetching (FDIP) instantiates the same
//! structures to explore ahead of the fetch unit.

use tifs_trace::Addr;

/// Two-bit saturating counter table indexed by a hash.
#[derive(Clone, Debug)]
struct CounterTable {
    counters: Vec<u8>,
    mask: u64,
}

impl CounterTable {
    fn new(entries: usize) -> CounterTable {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        CounterTable {
            counters: vec![2; entries], // weakly taken
            mask: (entries - 1) as u64,
        }
    }

    #[inline]
    fn predict(&self, index: u64) -> bool {
        self.counters[(index & self.mask) as usize] >= 2
    }

    #[inline]
    fn update(&mut self, index: u64, taken: bool) {
        let c = &mut self.counters[(index & self.mask) as usize];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// Hybrid gShare + bimodal predictor with a chooser (Table II).
///
/// # Example
///
/// ```
/// use tifs_sim::bpred::HybridPredictor;
/// use tifs_trace::Addr;
///
/// let mut bp = HybridPredictor::table2();
/// let pc = Addr(0x4000);
/// for _ in 0..16 {
///     let _ = bp.predict(pc);
///     bp.update(pc, true);
/// }
/// assert!(bp.predict(pc), "strongly-taken branch predicted taken");
/// ```
#[derive(Clone, Debug)]
pub struct HybridPredictor {
    bimodal: CounterTable,
    gshare: CounterTable,
    chooser: CounterTable,
    history: u64,
    history_bits: u32,
}

impl HybridPredictor {
    /// The paper's 16K gShare + 16K bimodal configuration.
    pub fn table2() -> HybridPredictor {
        HybridPredictor::new(16 * 1024, 14)
    }

    /// Custom-sized predictor.
    pub fn new(entries: usize, history_bits: u32) -> HybridPredictor {
        HybridPredictor {
            bimodal: CounterTable::new(entries),
            gshare: CounterTable::new(entries),
            chooser: CounterTable::new(entries),
            history: 0,
            history_bits,
        }
    }

    #[inline]
    fn pc_index(pc: Addr) -> u64 {
        pc.0 >> 2
    }

    #[inline]
    fn gshare_index(&self, pc: Addr) -> u64 {
        Self::pc_index(pc) ^ (self.history & ((1 << self.history_bits) - 1))
    }

    /// Predicts the direction of the conditional branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: Addr) -> bool {
        if self.chooser.predict(Self::pc_index(pc)) {
            self.gshare.predict(self.gshare_index(pc))
        } else {
            self.bimodal.predict(Self::pc_index(pc))
        }
    }

    /// Trains with the resolved outcome and shifts global history.
    #[inline]
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let pi = Self::pc_index(pc);
        let gi = self.gshare_index(pc);
        let bp = self.bimodal.predict(pi);
        let gp = self.gshare.predict(gi);
        // Chooser trains toward whichever component was correct.
        if bp != gp {
            self.chooser.update(pi, gp == taken);
        }
        self.bimodal.update(pi, taken);
        self.gshare.update(gi, taken);
        self.history = (self.history << 1) | u64::from(taken);
    }

    /// Current global history (FDIP snapshots this to explore ahead).
    #[inline]
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Predicts with an explicit speculative history (FDIP lookahead).
    #[inline]
    pub fn predict_with_history(&self, pc: Addr, history: u64) -> bool {
        if self.chooser.predict(Self::pc_index(pc)) {
            let gi = Self::pc_index(pc) ^ (history & ((1 << self.history_bits) - 1));
            self.gshare.predict(gi)
        } else {
            self.bimodal.predict(Self::pc_index(pc))
        }
    }
}

/// Return address stack.
#[derive(Debug)]
pub struct ReturnAddressStack {
    stack: Vec<Addr>,
    capacity: usize,
}

/// Written out so that `clone_from` reuses the stack's allocation.
impl Clone for ReturnAddressStack {
    fn clone(&self) -> ReturnAddressStack {
        ReturnAddressStack {
            stack: self.stack.clone(),
            capacity: self.capacity,
        }
    }

    fn clone_from(&mut self, source: &ReturnAddressStack) {
        self.stack.clone_from(&source.stack);
        self.capacity = source.capacity;
    }
}

impl ReturnAddressStack {
    /// Creates a RAS with the given depth.
    pub fn new(capacity: usize) -> ReturnAddressStack {
        ReturnAddressStack {
            stack: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Pushes a return address (on call); the oldest entry is dropped at
    /// capacity.
    #[inline]
    pub fn push(&mut self, addr: Addr) {
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return target.
    #[inline]
    pub fn pop(&mut self) -> Option<Addr> {
        self.stack.pop()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

/// Branch target buffer for indirect targets: a direct-mapped map from
/// branch PC to its most recent target.
#[derive(Clone, Debug)]
pub struct TargetBuffer {
    entries: Vec<Option<(u64, Addr)>>,
    mask: u64,
}

impl TargetBuffer {
    /// Creates a BTB with `entries` (power of two) slots.
    pub fn new(entries: usize) -> TargetBuffer {
        assert!(entries.is_power_of_two());
        TargetBuffer {
            entries: vec![None; entries],
            mask: (entries - 1) as u64,
        }
    }

    /// Predicted target for the branch at `pc`, if known.
    #[inline]
    pub fn predict(&self, pc: Addr) -> Option<Addr> {
        let idx = ((pc.0 >> 2) & self.mask) as usize;
        match self.entries[idx] {
            Some((tag, target)) if tag == pc.0 => Some(target),
            _ => None,
        }
    }

    /// Records the resolved target.
    #[inline]
    pub fn update(&mut self, pc: Addr, target: Addr) {
        let idx = ((pc.0 >> 2) & self.mask) as usize;
        self.entries[idx] = Some((pc.0, target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_branch_learns() {
        let mut bp = HybridPredictor::table2();
        let pc = Addr(0x1000);
        for _ in 0..8 {
            bp.update(pc, false);
        }
        assert!(!bp.predict(pc));
        for _ in 0..8 {
            bp.update(pc, true);
        }
        assert!(bp.predict(pc));
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        // Pattern T N T N ... is history-predictable; accuracy should far
        // exceed 50% once trained.
        let mut bp = HybridPredictor::table2();
        let pc = Addr(0x2000);
        let mut correct = 0;
        let n = 2000;
        for i in 0..n {
            let taken = i % 2 == 0;
            if bp.predict(pc) == taken {
                correct += 1;
            }
            bp.update(pc, taken);
        }
        let acc = correct as f64 / n as f64;
        assert!(acc > 0.9, "alternating accuracy {acc}");
    }

    #[test]
    fn random_branch_unpredictable() {
        let mut bp = HybridPredictor::table2();
        let pc = Addr(0x3000);
        let mut x = 0x12345678u64;
        let mut correct = 0;
        let n = 4000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 1 == 0;
            if bp.predict(pc) == taken {
                correct += 1;
            }
            bp.update(pc, taken);
        }
        let acc = correct as f64 / n as f64;
        assert!(
            (0.35..0.65).contains(&acc),
            "random branch accuracy should be ~0.5, got {acc}"
        );
    }

    #[test]
    fn ras_lifo_and_overflow() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(Addr(1));
        ras.push(Addr(2));
        ras.push(Addr(3)); // evicts 1
        assert_eq!(ras.pop(), Some(Addr(3)));
        assert_eq!(ras.pop(), Some(Addr(2)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn btb_tags_disambiguate() {
        let mut btb = TargetBuffer::new(16);
        btb.update(Addr(0x40), Addr(0x1000));
        assert_eq!(btb.predict(Addr(0x40)), Some(Addr(0x1000)));
        // Aliasing PC with a different tag must miss, not mispredict.
        assert_eq!(btb.predict(Addr(0x40 + 16 * 4)), None);
        btb.update(Addr(0x40), Addr(0x2000));
        assert_eq!(btb.predict(Addr(0x40)), Some(Addr(0x2000)));
    }
}
