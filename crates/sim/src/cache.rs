//! Set-associative cache with true-LRU replacement.
//!
//! Used for the L1 instruction caches (64 KB, 2-way) and the shared L2
//! presence tracking (8 MB, 16-way). The cache tracks block residency only;
//! data contents are irrelevant to the simulation.

use tifs_trace::BlockAddr;

/// A set-associative cache of block addresses with true-LRU replacement.
///
/// # Example
///
/// ```
/// use tifs_sim::cache::SetAssocCache;
/// use tifs_trace::BlockAddr;
///
/// // Four sets, 2-way: 8 blocks of 64 bytes = 512 B.
/// let mut c = SetAssocCache::new(512, 2);
/// assert!(!c.access(BlockAddr(0)));
/// c.insert(BlockAddr(0));
/// assert!(c.access(BlockAddr(0)));
/// ```
/// Sentinel for an empty way. Unreachable as a real block address: block
/// addresses are byte addresses divided by the 64-byte block size.
const INVALID: BlockAddr = BlockAddr(u64::MAX);

#[derive(Clone, Debug)]
pub struct SetAssocCache {
    /// One contiguous `num_sets × ways` array: set `s` occupies
    /// `slots[s*ways .. (s+1)*ways]`, resident blocks packed MRU-first
    /// with `INVALID` filling the unused tail. A whole set is one cache
    /// line's worth of consecutive words, so the probe-every-access path
    /// touches memory once instead of chasing a per-set `Vec` pointer.
    slots: Vec<BlockAddr>,
    ways: usize,
    set_mask: u64,
    len: usize,
    insertions: u64,
    evictions: u64,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` ways and 64-byte
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics unless the resulting set count is a nonzero power of two.
    pub fn new(capacity_bytes: usize, ways: usize) -> SetAssocCache {
        let blocks = capacity_bytes / tifs_trace::BLOCK_BYTES as usize;
        assert!(ways > 0 && blocks >= ways, "invalid geometry");
        let num_sets = blocks / ways;
        assert!(
            num_sets.is_power_of_two(),
            "set count {num_sets} must be a power of two"
        );
        SetAssocCache {
            slots: vec![INVALID; num_sets * ways],
            ways,
            set_mask: (num_sets - 1) as u64,
            len: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    #[inline]
    fn set_range(&self, block: BlockAddr) -> std::ops::Range<usize> {
        let s = (block.0 & self.set_mask) as usize * self.ways;
        s..s + self.ways
    }

    /// Moves the block in way `pos` of `set` to MRU, shifting the ways
    /// before it down one. Ways 0 and 1 move in line: a `copy_within` of
    /// a runtime length compiles to a call to libc `memmove`, and in the
    /// 2-way L1-I every promotion is from one of those two ways.
    #[inline]
    fn promote(set: &mut [BlockAddr], pos: usize) {
        let block = set[pos];
        match pos {
            0 => return,
            1 => set[1] = set[0],
            _ => set.copy_within(0..pos, 1),
        }
        set[0] = block;
    }

    /// Looks up `block`, promoting it to MRU on hit. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> bool {
        let range = self.set_range(block);
        let set = &mut self.slots[range];
        match set.iter().position(|&b| b == block) {
            Some(pos) => {
                Self::promote(set, pos);
                true
            }
            None => false,
        }
    }

    /// Checks residency without touching LRU state.
    #[inline]
    pub fn peek(&self, block: BlockAddr) -> bool {
        self.slots[self.set_range(block)].contains(&block)
    }

    /// Inserts `block` at MRU (no-op promote if already resident). Returns
    /// the evicted block, if any.
    #[inline]
    pub fn insert(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        debug_assert_ne!(block, INVALID, "reserved sentinel address");
        let range = self.set_range(block);
        let set = &mut self.slots[range];
        // Already MRU: the state a promote would leave. The functional
        // fetch model's overlapping next-line fills re-insert most blocks
        // this way.
        if set[0] == block {
            return None;
        }
        if let Some(pos) = set.iter().position(|&b| b == block) {
            Self::promote(set, pos);
            return None;
        }
        self.insertions += 1;
        // The block replaces the LRU way and is promoted from there.
        let last = set.len() - 1;
        let victim = std::mem::replace(&mut set[last], block);
        Self::promote(set, last);
        if victim == INVALID {
            self.len += 1;
            None
        } else {
            self.evictions += 1;
            Some(victim)
        }
    }

    /// Removes `block` if resident; returns whether it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let range = self.set_range(block);
        let set = &mut self.slots[range];
        match set.iter().position(|&b| b == block) {
            Some(pos) => {
                set.copy_within(pos + 1.., pos);
                *set.last_mut().unwrap() = INVALID;
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Total resident blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.slots.len() / self.ways
    }

    /// Lifetime (insertions, evictions).
    pub fn churn(&self) -> (u64, u64) {
        (self.insertions, self.evictions)
    }

    /// Every resident block, sorted by address (a deterministic snapshot
    /// of the cache's contents, independent of insertion history).
    pub fn resident_blocks(&self) -> Vec<BlockAddr> {
        let mut out: Vec<BlockAddr> = self
            .slots
            .iter()
            .copied()
            .filter(|&b| b != INVALID)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(set: u64, tag: u64, num_sets: u64) -> BlockAddr {
        BlockAddr(tag * num_sets + set)
    }

    #[test]
    fn lru_within_set() {
        // 2-way: after inserting 3 blocks into one set, the first is gone.
        let mut c = SetAssocCache::new(512, 2); // 4 sets
        let (a, b, d) = (block(1, 0, 4), block(1, 1, 4), block(1, 2, 4));
        c.insert(a);
        c.insert(b);
        assert_eq!(c.insert(d), Some(a), "LRU victim is the oldest");
        assert!(c.peek(b) && c.peek(d) && !c.peek(a));
    }

    #[test]
    fn access_promotes() {
        let mut c = SetAssocCache::new(512, 2);
        let (a, b, d) = (block(2, 0, 4), block(2, 1, 4), block(2, 2, 4));
        c.insert(a);
        c.insert(b);
        assert!(c.access(a)); // a becomes MRU
        assert_eq!(c.insert(d), Some(b), "b is now LRU");
    }

    #[test]
    fn insert_existing_promotes_without_eviction() {
        let mut c = SetAssocCache::new(512, 2);
        let (a, b) = (block(0, 0, 4), block(0, 1, 4));
        c.insert(a);
        c.insert(b);
        assert_eq!(c.insert(a), None);
        let d = block(0, 2, 4);
        assert_eq!(c.insert(d), Some(b));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = SetAssocCache::new(512, 2);
        for tag in 0..2 {
            for set in 0..4 {
                assert_eq!(c.insert(block(set, tag, 4)), None);
            }
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = SetAssocCache::new(512, 2);
        let a = block(3, 0, 4);
        c.insert(a);
        assert!(c.invalidate(a));
        assert!(!c.invalidate(a));
        assert!(!c.peek(a));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = SetAssocCache::new(1024, 4); // 16 blocks
        for i in 0..1000u64 {
            c.insert(BlockAddr(i * 7));
            assert!(c.len() <= 16);
        }
        let (ins, ev) = c.churn();
        assert_eq!(ins - ev, c.len() as u64);
    }

    #[test]
    fn l1i_geometry() {
        let c = SetAssocCache::new(64 * 1024, 2);
        assert_eq!(c.num_sets(), 512);
        assert_eq!(c.ways(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        SetAssocCache::new(3 * 64, 1);
    }
}
