//! Instruction Miss Logs (paper Sections 5.1.1 and 5.2.2).
//!
//! Each core owns an IML: an append-only log of the block addresses of its
//! L1-I fetch misses, recorded at instruction retirement. Every entry
//! carries one extra bit — whether the miss was satisfied by the SVB — used
//! for end-of-stream detection. Positions are absolute (monotonically
//! increasing); bounded logs retain only the most recent `capacity`
//! entries, so stale Index-Table pointers naturally die when their target
//! is overwritten.
//!
//! In the virtualized organization the log lives in the L2 data array and
//! is read/written in groups of twelve 38-bit entries per 64-byte block
//! (paper Section 5.2.2); the prefetcher issues that traffic, while this
//! structure models the contents.

use tifs_trace::BlockAddr;

/// Entries per 64-byte L2 block (twelve recorded miss addresses).
pub const ENTRIES_PER_L2_BLOCK: usize = 12;

/// Bits per IML entry (38-bit physical block address + 1 hit bit), used to
/// convert storage budgets into entry counts (paper Section 6.3).
pub const BITS_PER_ENTRY: u64 = 39;

/// Converts a per-chip storage budget in kilobytes to entries per core.
///
/// Clamped to at least one entry: a budget smaller than one 39-bit entry
/// per core still has to yield a usable (if useless) log, not a
/// zero-capacity one that panics downstream. Iso-storage sweeps at
/// extreme shares (e.g. 1/64 of 9.75 KB across many cores) hit this.
pub fn entries_per_core_for_kb(total_kb: f64, cores: usize) -> usize {
    let bits = total_kb * 1024.0 * 8.0;
    (((bits / BITS_PER_ENTRY as f64) / cores as f64) as usize).max(1)
}

/// One logged miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImlEntry {
    /// Missed block address.
    pub block: BlockAddr,
    /// The miss was satisfied by the SVB (correct prior prediction).
    pub svb_hit: bool,
}

/// Consecutive log entries returned by [`Iml::read_group`], borrowed from
/// the log's slab: the entries in `head` and then those in `tail`, which
/// is non-empty only when the group straddles the ring's wrap.
#[derive(Clone, Copy, Debug, Default)]
pub struct ImlGroup<'a> {
    head: &'a [ImlEntry],
    tail: &'a [ImlEntry],
}

impl<'a> ImlGroup<'a> {
    /// Entries in the group.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Returns `true` if the group holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries in log order.
    pub fn iter(&self) -> impl Iterator<Item = &'a ImlEntry> + 'a {
        self.head.iter().chain(self.tail)
    }
}

/// Groups are equal when they hold the same entries in the same order,
/// wherever the ring's wrap splits them.
impl PartialEq for ImlGroup<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// A single core's instruction miss log: a flat ring over a power-of-two
/// slab, indexed by absolute position. The retained window `[base,
/// appended)` never exceeds the slab, so the entry for position `p`
/// always lives at slot `p & mask` — appends are one slot write,
/// [`Iml::evict_oldest`] is one pointer bump, and [`Iml::read_group`]
/// borrows at most two contiguous runs of slots (the group may straddle
/// the wrap).
///
/// The slab starts small and doubles when the window fills it. A bounded
/// log stops doubling at `capacity.next_power_of_two()` slots, so it
/// touches memory only for entries it has held.
#[derive(Clone, Debug)]
pub struct Iml {
    /// Power-of-two slab; position `p` lives at `buf[p & mask]`.
    buf: Vec<ImlEntry>,
    /// Absolute position of the oldest retained entry.
    base: u64,
    /// Total entries ever appended (= absolute position of next append).
    appended: u64,
    /// `None` = unbounded (the paper's TIFS-unbounded configuration).
    capacity: Option<usize>,
}

/// Filler for never-written slots (dead space; `[base, appended)` gates
/// every read).
const VACANT: ImlEntry = ImlEntry {
    block: BlockAddr(0),
    svb_hit: false,
};

/// Slots of a new log's slab (fewer when the capacity is smaller).
const INITIAL_SLOTS: usize = 16;

impl Iml {
    /// Creates a log retaining `capacity` entries (`None` = unbounded).
    pub fn new(capacity: Option<usize>) -> Iml {
        if let Some(c) = capacity {
            // A log shorter than one virtualized group is legal (tiny
            // iso-storage budgets produce them); only a zero-capacity log
            // is meaningless.
            assert!(c >= 1, "capacity too small: {c}");
        }
        let slots = capacity.map_or(INITIAL_SLOTS, |c| c.next_power_of_two().min(INITIAL_SLOTS));
        Iml {
            buf: vec![VACANT; slots],
            base: 0,
            appended: 0,
            capacity,
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        self.buf.len() as u64 - 1
    }

    /// Appends one miss; returns its absolute position.
    pub fn append(&mut self, block: BlockAddr, svb_hit: bool) -> u64 {
        let pos = self.appended;
        // A slab below its limit is smaller than the capacity, so a full
        // window there evicts nothing on this append and must grow.
        if self.len() == self.buf.len() && self.buf.len() < self.max_slots() {
            self.grow();
        }
        let m = self.mask();
        self.buf[(pos & m) as usize] = ImlEntry { block, svb_hit };
        self.appended += 1;
        if let Some(c) = self.capacity {
            // At most one entry falls off per append; overwriting its
            // slot (when the slab is exactly `capacity`) is harmless —
            // it was the one being evicted.
            self.base = self.base.max(self.appended.saturating_sub(c as u64));
        }
        pos
    }

    /// The slab size a bounded log stops doubling at.
    fn max_slots(&self) -> usize {
        self.capacity.map_or(usize::MAX, usize::next_power_of_two)
    }

    fn grow(&mut self) {
        let new_slots = self.buf.len() * 2;
        let mut new_buf = vec![VACANT; new_slots];
        let (old_m, new_m) = (self.mask(), new_slots as u64 - 1);
        for p in self.base..self.appended {
            new_buf[(p & new_m) as usize] = self.buf[(p & old_m) as usize];
        }
        self.buf = new_buf;
    }

    /// The entry at absolute position `pos`, if still retained.
    pub fn get(&self, pos: u64) -> Option<ImlEntry> {
        self.is_valid(pos)
            .then(|| self.buf[(pos & self.mask()) as usize])
    }

    /// Reads up to `n` consecutive entries starting at `pos` (one
    /// virtualized group read), borrowed from the log. Returns fewer when
    /// the log ends, and none when `pos` has been overwritten.
    pub fn read_group(&self, pos: u64, n: usize) -> ImlGroup<'_> {
        if !self.is_valid(pos) {
            return ImlGroup::default();
        }
        let count = ((pos + n as u64).min(self.appended) - pos) as usize;
        let start = (pos & self.mask()) as usize;
        let first = count.min(self.buf.len() - start);
        ImlGroup {
            head: &self.buf[start..start + first],
            tail: &self.buf[..count - first],
        }
    }

    /// Evicts the oldest retained entry, returning it (capacity
    /// enforcement by an external allocator — the shared-pool history
    /// organization evicts the *globally* oldest entry across cores,
    /// which a log's own capacity bound cannot express).
    pub fn evict_oldest(&mut self) -> Option<ImlEntry> {
        if self.base == self.appended {
            return None;
        }
        let e = self.buf[(self.base & self.mask()) as usize];
        self.base += 1;
        Some(e)
    }

    /// Absolute position of the next append.
    pub fn next_pos(&self) -> u64 {
        self.appended
    }

    /// Whether `pos` still refers to a retained entry.
    pub fn is_valid(&self, pos: u64) -> bool {
        pos >= self.base && pos < self.appended
    }

    /// Discards every retained entry without rewinding positions: `base`
    /// jumps to `appended`, so the absolute position space stays
    /// monotonic and any Index-Table pointer into the discarded window is
    /// invalid from now on — exactly the semantics of a context-switch
    /// flush, where the outgoing program's history must not be replayed
    /// into the incoming one.
    pub fn clear(&mut self) {
        self.base = self.appended;
    }

    /// Currently retained entries.
    pub fn len(&self) -> usize {
        (self.appended - self.base) as usize
    }

    /// Returns `true` if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.base == self.appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_get() {
        let mut iml = Iml::new(None);
        let p0 = iml.append(BlockAddr(10), false);
        let p1 = iml.append(BlockAddr(11), true);
        assert_eq!(p0, 0);
        assert_eq!(p1, 1);
        assert_eq!(
            iml.get(0),
            Some(ImlEntry {
                block: BlockAddr(10),
                svb_hit: false
            })
        );
        assert!(iml.get(1).unwrap().svb_hit);
        assert_eq!(iml.get(2), None);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut iml = Iml::new(Some(16));
        for i in 0..40u64 {
            iml.append(BlockAddr(i), false);
        }
        assert_eq!(iml.len(), 16);
        assert!(!iml.is_valid(23), "position 23 overwritten");
        assert!(iml.is_valid(24));
        assert_eq!(iml.get(39).unwrap().block, BlockAddr(39));
        assert_eq!(iml.get(0), None);
    }

    #[test]
    fn read_group_truncates_at_end() {
        let mut iml = Iml::new(None);
        for i in 0..5u64 {
            iml.append(BlockAddr(i), false);
        }
        let g: Vec<ImlEntry> = iml
            .read_group(3, ENTRIES_PER_L2_BLOCK)
            .iter()
            .copied()
            .collect();
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].block, BlockAddr(3));
        assert!(iml.read_group(99, 12).is_empty());
    }

    #[test]
    fn read_group_truncates_at_overwrite() {
        let mut iml = Iml::new(Some(16));
        for i in 0..32u64 {
            iml.append(BlockAddr(i), false);
        }
        // Positions 0..16 are gone.
        assert!(iml.read_group(8, 12).is_empty());
        assert_eq!(iml.read_group(16, 12).len(), 12);
    }

    #[test]
    fn storage_budget_conversion() {
        // Paper Section 6.3: 156 KB total = 8K entries per core on 4 cores.
        let entries = entries_per_core_for_kb(156.0, 4);
        assert!(
            (7800..=8400).contains(&entries),
            "156 KB should be ~8K entries/core, got {entries}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity too small")]
    fn rejects_zero_capacity() {
        Iml::new(Some(0));
    }

    #[test]
    fn sub_group_capacity_works() {
        // Tiny iso-storage budgets legitimately produce logs shorter than
        // one virtualized group; they must still ring correctly.
        let mut iml = Iml::new(Some(4));
        for i in 0..10u64 {
            iml.append(BlockAddr(i), false);
        }
        assert_eq!(iml.len(), 4);
        assert!(iml.is_valid(6) && !iml.is_valid(5));
        assert_eq!(iml.read_group(6, ENTRIES_PER_L2_BLOCK).len(), 4);
    }

    #[test]
    fn budget_grid_never_yields_zero_entries() {
        // Satellite fix: the KB -> entries conversion used to floor to 0
        // when the per-core share fell below one 39-bit entry, and
        // `Iml::new(Some(0))` (or the old >= 12 assert) then panicked
        // inside figure sweeps. Clamp guarantees every (budget, cores)
        // cell is constructible.
        let budgets = [0.001, 0.01, 0.6, 2.4375, 4.875, 9.75, 39.0, 156.0];
        let cores = [1usize, 2, 4, 8, 16, 64];
        for &kb in &budgets {
            for &n in &cores {
                let entries = entries_per_core_for_kb(kb, n);
                assert!(entries >= 1, "{kb} KB / {n} cores yielded 0 entries");
                // Every cell must construct a usable bounded log.
                let mut iml = Iml::new(Some(entries));
                iml.append(BlockAddr(1), false);
                assert_eq!(iml.len(), 1);
            }
        }
        // The clamp must not disturb budgets that were already sane.
        assert_eq!(
            entries_per_core_for_kb(156.0, 4),
            ((156.0f64 * 1024.0 * 8.0 / 39.0) / 4.0) as usize
        );
    }

    #[test]
    fn clear_invalidates_without_rewinding_positions() {
        let mut iml = Iml::new(Some(16));
        for i in 0..5u64 {
            iml.append(BlockAddr(i), false);
        }
        iml.clear();
        assert!(iml.is_empty());
        assert!(!iml.is_valid(4), "pre-flush positions must die");
        // Position space keeps counting: stale pointers can never alias a
        // post-flush entry.
        assert_eq!(iml.append(BlockAddr(99), false), 5);
        assert_eq!(iml.get(5).unwrap().block, BlockAddr(99));
        assert_eq!(iml.len(), 1);
    }

    #[test]
    fn bounded_log_grows_only_as_far_as_its_contents_need() {
        let mut iml = Iml::new(Some(1 << 20));
        for i in 0..100u64 {
            iml.append(BlockAddr(i), false);
        }
        assert!(iml.buf.len() <= 128, "slab of {} slots", iml.buf.len());
        assert_eq!(iml.len(), 100);
        // Once past its capacity, a grown log evicts exactly like a full
        // ring: one oldest entry per append, every later entry readable.
        for cap in [4, 100, 128] {
            let mut iml = Iml::new(Some(cap));
            for i in 0..(cap as u64 * 3) {
                assert_eq!(iml.append(BlockAddr(i), i % 3 == 0), i);
                let oldest = (i + 1).saturating_sub(cap as u64);
                assert_eq!(iml.len() as u64, i + 1 - oldest);
                assert!(oldest == 0 || !iml.is_valid(oldest - 1));
                assert_eq!(iml.get(oldest).unwrap().block, BlockAddr(oldest));
                assert_eq!(iml.get(i).unwrap().block, BlockAddr(i));
            }
            assert_eq!(iml.buf.len(), cap.next_power_of_two());
        }
    }

    #[test]
    fn evict_oldest_advances_base() {
        let mut iml = Iml::new(None);
        for i in 0..3u64 {
            iml.append(BlockAddr(i), false);
        }
        assert_eq!(iml.evict_oldest().unwrap().block, BlockAddr(0));
        assert!(!iml.is_valid(0));
        assert!(iml.is_valid(1));
        assert_eq!(iml.len(), 2);
        // Appends continue at the same absolute positions.
        assert_eq!(iml.append(BlockAddr(9), false), 3);
        assert!(Iml::new(None).evict_oldest().is_none());
    }
}
