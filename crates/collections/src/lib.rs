//! Deterministic, cache-friendly collections for the workspace's hot
//! paths, shared between the cycle-level simulator (`tifs-sim`) and the
//! grammar analyses (`tifs-sequitur`).
//!
//! Three structures live here:
//!
//! * [`FillQueue`] — the pending-fill set used by the next-line engine,
//!   the FDIP and discontinuity prefetchers, and the SVBs. It keeps its
//!   entries sorted so *drain order is structural*: completions pop in
//!   `(ready, block)` order by construction, which is exactly the order
//!   the PR 1-era `HashMap` + sort-before-drain workaround produced.
//!   Draining is a single comparison against the tail when nothing is
//!   ready — the common case every cycle — instead of an allocate,
//!   iterate, and sort over the whole map.
//! * [`BlockMap`] — an open-addressed block-address map (fibonacci
//!   hashing, linear probing, backward-shift deletion, so no tombstones
//!   ever accumulate) for point-lookup tables that are never iterated,
//!   like the TIFS Index Table. Layout is deterministic but iteration
//!   order still is not part of its contract; it deliberately exposes
//!   no iterator.
//! * [`DigramIndex`] — the same open-addressed idiom generalized to
//!   caller-hashed keys with external equality, built for the SEQUITUR
//!   digram index where the key (a pair of grammar symbols) lives in the
//!   caller's arena and only a node id is worth storing per slot.
//!
//! `FillQueue` and `BlockMap` are semantically equivalent to the
//! `HashMap`-based structures they replace (the
//! `fill_queue_matches_hashmap_model` / `block_map_matches_hashmap_model`
//! proptests in `tifs-sim/tests/` pin this); the difference is purely
//! cost and the determinism of drain order. `DigramIndex` is pinned by
//! the grammar-equivalence suite in `tifs-sequitur/tests/`.

#![forbid(unsafe_code)]

use tifs_trace::BlockAddr;

/// A pending-fill set: blocks in flight toward a buffer, each carried
/// with its completion cycle and an optional payload.
///
/// Entries are stored sorted *descending* by `(ready, block)`, so the
/// next completion is always the tail element: [`FillQueue::pop_ready`]
/// is a tail compare (and pop), and successive pops drain completions in
/// ascending `(ready, block)` order — the structural replacement for
/// sorting a drained `HashMap`. Membership operations scan linearly,
/// which beats hashing at the handful-of-entries sizes these queues
/// reach (MSHR-bounded, tens at most).
///
/// # Example
///
/// ```
/// use tifs_collections::FillQueue;
/// use tifs_trace::BlockAddr;
///
/// let mut q: FillQueue = FillQueue::new();
/// q.insert(20, BlockAddr(7), ());
/// q.insert(10, BlockAddr(9), ());
/// assert!(q.contains(BlockAddr(9)));
/// assert_eq!(q.pop_ready(5), None);
/// assert_eq!(q.pop_ready(20), Some((10, BlockAddr(9), ())));
/// assert_eq!(q.pop_ready(20), Some((20, BlockAddr(7), ())));
/// ```
#[derive(Clone, Debug)]
pub struct FillQueue<V = ()> {
    /// Sorted descending by `(ready, block)`; the tail is next to finish.
    entries: Vec<(u64, BlockAddr, V)>,
}

impl<V> Default for FillQueue<V> {
    fn default() -> FillQueue<V> {
        FillQueue::new()
    }
}

impl<V> FillQueue<V> {
    /// Creates an empty queue.
    pub fn new() -> FillQueue<V> {
        FillQueue {
            entries: Vec::new(),
        }
    }

    /// Number of blocks in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `block` is in flight.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.entries.iter().any(|e| e.1 == block)
    }

    /// Inserts `block` completing at `ready`; replaces any existing entry
    /// for the same block (`HashMap::insert` upsert semantics).
    pub fn insert(&mut self, ready: u64, block: BlockAddr, value: V) {
        if let Some(pos) = self.entries.iter().position(|e| e.1 == block) {
            self.entries.remove(pos);
        }
        let at = self
            .entries
            .partition_point(|e| (e.0, e.1) > (ready, block));
        self.entries.insert(at, (ready, block, value));
    }

    /// Removes `block` if in flight, returning its `(ready, value)`.
    pub fn remove(&mut self, block: BlockAddr) -> Option<(u64, V)> {
        let pos = self.entries.iter().position(|e| e.1 == block)?;
        let (ready, _, value) = self.entries.remove(pos);
        Some((ready, value))
    }

    /// Pops the next completed entry: the in-flight block with the
    /// smallest `(ready, block)` whose `ready <= now`, or `None` when no
    /// fill has completed. Calling until `None` drains this cycle's
    /// completions in ascending `(ready, block)` order.
    pub fn pop_ready(&mut self, now: u64) -> Option<(u64, BlockAddr, V)> {
        match self.entries.last() {
            Some(e) if e.0 <= now => self.entries.pop(),
            _ => None,
        }
    }

    /// Iterates the in-flight entries in descending `(ready, block)`
    /// order (a deterministic order, unlike the `HashMap` it replaced).
    pub fn iter(&self) -> impl Iterator<Item = &(u64, BlockAddr, V)> {
        self.entries.iter()
    }
}

/// Sentinel for an empty [`BlockMap`] slot. No simulated block address
/// ever reaches it: block addresses are instruction addresses divided by
/// the 64-byte block size, so the top six bits are always clear.
const EMPTY: u64 = u64::MAX;

/// An open-addressed map over block addresses: fibonacci hashing, linear
/// probing, backward-shift deletion (tombstone-free — deletes restore
/// the layout inserts would have produced, so probe chains never rot).
///
/// Built for point lookups on the per-cycle path (the TIFS Index Table);
/// it exposes no iteration, so callers can never depend on slot order.
///
/// # Example
///
/// ```
/// use tifs_collections::BlockMap;
/// use tifs_trace::BlockAddr;
///
/// let mut m: BlockMap<u32> = BlockMap::new();
/// assert_eq!(m.insert(BlockAddr(3), 7), None);
/// assert_eq!(m.insert(BlockAddr(3), 9), Some(7));
/// assert_eq!(m.get(BlockAddr(3)), Some(9));
/// assert_eq!(m.remove(BlockAddr(3)), Some(9));
/// assert!(m.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct BlockMap<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
    mask: usize,
}

impl<V: Copy + Default> Default for BlockMap<V> {
    fn default() -> BlockMap<V> {
        BlockMap::new()
    }
}

impl<V: Copy + Default> BlockMap<V> {
    /// Creates an empty map with a small initial table.
    pub fn new() -> BlockMap<V> {
        BlockMap::with_capacity(8)
    }

    /// Creates a map that can hold `capacity` entries before growing.
    pub fn with_capacity(capacity: usize) -> BlockMap<V> {
        let slots = slots_for(capacity);
        BlockMap {
            keys: vec![EMPTY; slots],
            vals: vec![V::default(); slots],
            len: 0,
            mask: slots - 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the top bits —
        // strong mixing for the low bits that index the table, and no
        // per-byte hash loop like the std SipHash the map replaces.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    /// Finds the slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The value stored for `block`, if any.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<V> {
        let i = self.probe(block.0);
        (self.keys[i] != EMPTY).then(|| self.vals[i])
    }

    /// Whether `block` has an entry.
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.keys[self.probe(block.0)] != EMPTY
    }

    /// Inserts or replaces the entry for `block`, returning the previous
    /// value if one existed.
    ///
    /// # Panics
    ///
    /// Panics (debug only) on the reserved sentinel address.
    pub fn insert(&mut self, block: BlockAddr, value: V) -> Option<V> {
        debug_assert_ne!(block.0, EMPTY, "BlockMap sentinel address");
        let i = self.probe(block.0);
        if self.keys[i] == block.0 {
            return Some(std::mem::replace(&mut self.vals[i], value));
        }
        self.keys[i] = block.0;
        self.vals[i] = value;
        self.len += 1;
        if self.len * 8 > self.keys.len() * 7 {
            self.grow();
        }
        None
    }

    /// Removes the entry for `block`, returning its value if present.
    pub fn remove(&mut self, block: BlockAddr) -> Option<V> {
        let mut i = self.probe(block.0);
        if self.keys[i] == EMPTY {
            return None;
        }
        let value = self.vals[i];
        self.keys[i] = EMPTY;
        self.len -= 1;
        // Backward-shift: pull every displaced follower in the probe
        // chain back over the hole, leaving the table exactly as if the
        // removed key had never been inserted.
        let mask = self.mask;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.keys[j] == EMPTY {
                break;
            }
            let h = self.home(self.keys[j]);
            // `j`'s entry may fill the hole at `i` iff `i` lies on its
            // probe path, i.e. the hole is no further from its home than
            // its current slot (cyclic distances).
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(i) & mask) {
                self.keys[i] = self.keys[j];
                self.vals[i] = self.vals[j];
                self.keys[j] = EMPTY;
                i = j;
            }
        }
        Some(value)
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_slots]);
        self.mask = new_slots - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(BlockAddr(k), v);
            }
        }
    }

    /// Iterates over all entries in slot order. The order is an artifact
    /// of the table layout — deterministic for a given insertion/removal
    /// history, but not meaningful; callers must not let it decide
    /// anything order-sensitive (collect and sort, or treat as a set).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, V)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|&(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (BlockAddr(k), v))
    }
}

/// Smallest power-of-two slot count that keeps `capacity` entries at or
/// below 7/8 load.
fn slots_for(capacity: usize) -> usize {
    let mut slots = 8usize;
    while slots * 7 < capacity * 8 {
        slots *= 2;
    }
    slots
}

/// Sentinel for an empty [`DigramIndex`] slot: [`DigramIndex::NIL`] is
/// never a valid payload.
const NO_PAYLOAD: u32 = u32::MAX;

/// An open-addressed index over caller-hashed keys: fibonacci hashing,
/// linear probing, backward-shift deletion — [`BlockMap`]'s idiom, with
/// the key replaced by a caller-supplied 64-bit hash plus an equality
/// callback resolved against the caller's own storage.
///
/// Built for the SEQUITUR digram index, where the key (a pair of
/// adjacent grammar symbols) is readable from the arena node the entry
/// points at, so each slot stores only the full hash and a `u32` node
/// id. Distinct keys may share a hash; [`DigramIndex::find`] keeps
/// probing past hash matches the callback rejects, so collisions cost a
/// callback call, never a wrong answer.
///
/// # Example
///
/// ```
/// use tifs_collections::DigramIndex;
///
/// // Keys live outside the table; here, a simple array of pairs.
/// let pairs = [(1u64, 2u64), (3, 4)];
/// let hash = |p: &(u64, u64)| p.0.wrapping_mul(31).wrapping_add(p.1);
/// let mut idx = DigramIndex::with_capacity(8);
/// idx.insert(hash(&pairs[0]), 0);
/// idx.insert(hash(&pairs[1]), 1);
/// assert_eq!(idx.find(hash(&pairs[0]), |i| pairs[i as usize] == pairs[0]), Some(0));
/// assert!(idx.remove(hash(&pairs[0]), 0));
/// assert_eq!(idx.find(hash(&pairs[0]), |i| pairs[i as usize] == pairs[0]), None);
/// ```
#[derive(Clone, Debug)]
pub struct DigramIndex {
    hashes: Vec<u64>,
    payloads: Vec<u32>,
    len: usize,
    mask: usize,
}

impl Default for DigramIndex {
    fn default() -> DigramIndex {
        DigramIndex::new()
    }
}

impl DigramIndex {
    /// Reserved payload marking an empty slot; never store it.
    pub const NIL: u32 = NO_PAYLOAD;

    /// Creates an empty index with a small initial table.
    pub fn new() -> DigramIndex {
        DigramIndex::with_capacity(8)
    }

    /// Creates an index that can hold `capacity` entries before growing.
    pub fn with_capacity(capacity: usize) -> DigramIndex {
        let slots = slots_for(capacity);
        DigramIndex {
            hashes: vec![0; slots],
            payloads: vec![NO_PAYLOAD; slots],
            len: 0,
            mask: slots - 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots in the table; grows only when load passes 7/8.
    /// Exposed so callers can assert a pre-sized build never rehashes.
    pub fn slots(&self) -> usize {
        self.hashes.len()
    }

    #[inline]
    fn home(&self, hash: u64) -> usize {
        let h = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    /// Finds the payload whose slot hash equals `hash` and for which
    /// `eq(payload)` holds. `eq` is only called on hash matches.
    #[inline]
    pub fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut i = self.home(hash);
        loop {
            let p = self.payloads[i];
            if p == NO_PAYLOAD {
                return None;
            }
            if self.hashes[i] == hash && eq(p) {
                return Some(p);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `(hash, payload)`. The caller is responsible for key
    /// uniqueness (the grammar invariant "each digram indexed at most
    /// once"); duplicate hashes from *distinct* keys are fine.
    ///
    /// # Panics
    ///
    /// Panics (debug only) on the reserved [`DigramIndex::NIL`] payload.
    pub fn insert(&mut self, hash: u64, payload: u32) {
        debug_assert_ne!(payload, NO_PAYLOAD, "DigramIndex sentinel payload");
        let mut i = self.home(hash);
        while self.payloads[i] != NO_PAYLOAD {
            i = (i + 1) & self.mask;
        }
        self.hashes[i] = hash;
        self.payloads[i] = payload;
        self.len += 1;
        if self.len * 8 > self.hashes.len() * 7 {
            self.grow();
        }
    }

    /// Removes the entry `(hash, payload)` if present, returning whether
    /// a slot was deleted. Matching on the payload (not just the key)
    /// lets callers express "un-index this exact occurrence".
    pub fn remove(&mut self, hash: u64, payload: u32) -> bool {
        let mut i = self.home(hash);
        loop {
            let p = self.payloads[i];
            if p == NO_PAYLOAD {
                return false;
            }
            if self.hashes[i] == hash && p == payload {
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.payloads[i] = NO_PAYLOAD;
        self.len -= 1;
        // Backward-shift deletion, as in `BlockMap::remove`.
        let mask = self.mask;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.payloads[j] == NO_PAYLOAD {
                break;
            }
            let h = self.home(self.hashes[j]);
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(i) & mask) {
                self.hashes[i] = self.hashes[j];
                self.payloads[i] = self.payloads[j];
                self.payloads[j] = NO_PAYLOAD;
                i = j;
            }
        }
        true
    }

    /// Iterates over the live `(hash, payload)` entries. Slot order is
    /// **not** part of the contract; this exists so callers can run
    /// integrity checks (every entry points at a live occurrence) in
    /// their invariant-assertion paths, not for algorithmic use.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.hashes
            .iter()
            .zip(&self.payloads)
            .filter(|(_, &p)| p != NO_PAYLOAD)
            .map(|(&h, &p)| (h, p))
    }

    fn grow(&mut self) {
        let new_slots = self.hashes.len() * 2;
        let old_hashes = std::mem::replace(&mut self.hashes, vec![0; new_slots]);
        let old_payloads = std::mem::replace(&mut self.payloads, vec![NO_PAYLOAD; new_slots]);
        self.mask = new_slots - 1;
        for (h, p) in old_hashes.into_iter().zip(old_payloads) {
            if p != NO_PAYLOAD {
                let mut i = self.home(h);
                while self.payloads[i] != NO_PAYLOAD {
                    i = (i + 1) & self.mask;
                }
                self.hashes[i] = h;
                self.payloads[i] = p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_queue_pops_in_ready_then_block_order() {
        let mut q: FillQueue = FillQueue::new();
        // Scrambled insertion order; two entries tie on `ready`.
        for (r, b) in [(30, 5), (10, 9), (30, 2), (20, 7)] {
            q.insert(r, BlockAddr(b), ());
        }
        assert_eq!(q.len(), 4);
        let mut drained = Vec::new();
        while let Some((r, b, ())) = q.pop_ready(30) {
            drained.push((r, b.0));
        }
        assert_eq!(drained, vec![(10, 9), (20, 7), (30, 2), (30, 5)]);
    }

    #[test]
    fn fill_queue_pop_ready_respects_now() {
        let mut q: FillQueue = FillQueue::new();
        q.insert(10, BlockAddr(1), ());
        q.insert(20, BlockAddr(2), ());
        assert_eq!(q.pop_ready(9), None);
        assert_eq!(q.pop_ready(10), Some((10, BlockAddr(1), ())));
        assert_eq!(q.pop_ready(10), None);
        assert_eq!(q.pop_ready(25), Some((20, BlockAddr(2), ())));
        assert!(q.is_empty());
    }

    #[test]
    fn fill_queue_insert_is_upsert() {
        let mut q: FillQueue<u8> = FillQueue::new();
        q.insert(10, BlockAddr(1), 1);
        q.insert(30, BlockAddr(1), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.remove(BlockAddr(1)), Some((30, 2)));
        assert_eq!(q.remove(BlockAddr(1)), None);
    }

    #[test]
    fn block_map_basic_ops() {
        let mut m: BlockMap<u64> = BlockMap::new();
        for i in 0..100u64 {
            assert_eq!(m.insert(BlockAddr(i), i * 3), None);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100u64 {
            assert_eq!(m.get(BlockAddr(i)), Some(i * 3));
        }
        assert_eq!(m.get(BlockAddr(100)), None);
        for i in (0..100u64).step_by(2) {
            assert_eq!(m.remove(BlockAddr(i)), Some(i * 3));
        }
        assert_eq!(m.len(), 50);
        for i in 0..100u64 {
            let expect = (i % 2 == 1).then_some(i * 3);
            assert_eq!(m.get(BlockAddr(i)), expect);
        }
    }

    #[test]
    fn block_map_backward_shift_keeps_chains_reachable() {
        // Force one probe cluster: keys that collide modulo the table
        // size after fibonacci mixing are hard to construct by hand, so
        // instead hammer a tiny map with inserts and interleaved removes
        // and check every survivor stays reachable.
        let mut m: BlockMap<u64> = BlockMap::with_capacity(4);
        let keys: Vec<u64> = (0..64).map(|i| i * 0x10_0001 + 7).collect();
        for &k in &keys {
            m.insert(BlockAddr(k), !k);
        }
        for (n, &k) in keys.iter().enumerate() {
            if n % 3 == 0 {
                assert_eq!(m.remove(BlockAddr(k)), Some(!k));
            }
        }
        for (n, &k) in keys.iter().enumerate() {
            let expect = (n % 3 != 0).then_some(!k);
            assert_eq!(m.get(BlockAddr(k)), expect, "key {k:#x}");
        }
    }

    #[test]
    fn block_map_grows_past_initial_capacity() {
        let mut m: BlockMap<u64> = BlockMap::with_capacity(8);
        for i in 0..10_000u64 {
            m.insert(BlockAddr(i * 31), i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(BlockAddr(i * 31)), Some(i));
        }
    }

    #[test]
    fn digram_index_basic_ops() {
        // External key storage: payload i refers to keys[i].
        let keys: Vec<(u64, u64)> = (0..50).map(|i| (i, i * 7 + 1)).collect();
        let hash = |k: &(u64, u64)| k.0.wrapping_mul(0x100_0001).wrapping_add(k.1);
        let mut idx = DigramIndex::new();
        for (i, k) in keys.iter().enumerate() {
            idx.insert(hash(k), i as u32);
        }
        assert_eq!(idx.len(), 50);
        for (i, k) in keys.iter().enumerate() {
            let found = idx.find(hash(k), |p| keys[p as usize] == *k);
            assert_eq!(found, Some(i as u32));
        }
        assert_eq!(idx.find(hash(&(99, 99)), |_| true), None);
    }

    #[test]
    fn digram_index_tolerates_hash_collisions() {
        // Every entry shares one hash; equality must disambiguate and
        // backward-shift deletion must keep the chain reachable.
        let keys: Vec<u64> = (0..16).collect();
        let mut idx = DigramIndex::with_capacity(4);
        for &k in &keys {
            idx.insert(42, k as u32);
        }
        for &k in &keys {
            let found = idx.find(42, |p| p == k as u32);
            assert_eq!(found, Some(k as u32), "key {k}");
        }
        // Remove every other entry, then re-check the survivors.
        for &k in keys.iter().step_by(2) {
            assert!(idx.remove(42, k as u32));
        }
        assert!(!idx.remove(42, 0), "already removed");
        for &k in &keys {
            let expect = (k % 2 == 1).then_some(k as u32);
            assert_eq!(idx.find(42, |p| p == k as u32), expect, "key {k}");
        }
    }

    #[test]
    fn digram_index_presized_never_grows() {
        let mut idx = DigramIndex::with_capacity(1000);
        let slots = idx.slots();
        for i in 0..1000u32 {
            idx.insert((i as u64).wrapping_mul(0x9E37_79B9), i);
        }
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.slots(), slots, "pre-sized table must not rehash");
    }

    #[test]
    fn digram_index_grows_past_initial_capacity() {
        let mut idx = DigramIndex::new();
        for i in 0..10_000u32 {
            idx.insert((i as u64).wrapping_mul(0x1234_5679), i);
        }
        assert_eq!(idx.len(), 10_000);
        for i in 0..10_000u32 {
            let h = (i as u64).wrapping_mul(0x1234_5679);
            assert_eq!(idx.find(h, |p| p == i), Some(i), "entry {i}");
        }
    }
}
