//! The instruction-prefetcher interface the CMP timing model drives.
//!
//! One prefetcher object serves the whole CMP (TIFS shares its Index Table
//! across cores; per-core state lives inside the implementation, keyed by
//! `ctx.core`). The next-line prefetcher is part of the base fetch unit and
//! is *not* expressed through this trait: implementations only see block
//! fetches, and supply blocks the base system would have missed.
//!
//! [`PrefetchBuffer`] is the one model of a prefetch buffer: the TIFS SVBs,
//! FDIP and the discontinuity prefetcher all hold their prefetched blocks
//! in one, [`BUFFER_BLOCKS`] large.

use tifs_collections::FillQueue;
use tifs_trace::{BlockAddr, FetchRecord};

use crate::l2::L2;

/// Outcome of the base system's L1-I lookup for a block transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchKind {
    /// Present in the L1 (includes completed next-line fills).
    L1Hit,
    /// Covered by an in-flight next-line prefetch (counted as an L1 hit in
    /// the paper's accounting); the prefetcher may supply the block
    /// earlier than the fill, but this is not a stream-lookup trigger.
    NextLineInFlight,
    /// A genuine L1-I miss (missed by next-line too).
    Miss,
}

/// Context handed to every prefetcher callback.
pub struct PrefetchCtx<'a> {
    /// Current cycle.
    pub now: u64,
    /// Core performing the access.
    pub core: usize,
    /// The shared L2, for issuing prefetch/IML requests.
    pub l2: &'a mut L2,
}

/// An instruction prefetcher evaluated on top of the base system.
///
/// All methods have defaults so trivial prefetchers implement only
/// [`on_block_fetch`](IPrefetcher::on_block_fetch).
pub trait IPrefetcher {
    /// Short display name ("tifs", "fdip", ...).
    fn name(&self) -> &'static str;

    /// Observes one committed instruction at fetch time (FDIP uses this to
    /// follow/redirect its exploration; TIFS ignores it). Called only if
    /// [`observes_instructions`](IPrefetcher::observes_instructions) says
    /// so.
    fn on_fetch_instr(&mut self, _ctx: &mut PrefetchCtx<'_>, _rec: &FetchRecord) {}

    /// Whether the core must call
    /// [`on_fetch_instr`](IPrefetcher::on_fetch_instr) on every fetched
    /// instruction. [`Cmp::new`](crate::cmp::Cmp::new) asks once; a
    /// prefetcher whose `on_fetch_instr` does nothing returns `false` and
    /// saves a call per instruction. The default is `true`, so a wrapper
    /// that forwards to another prefetcher keeps every call.
    fn observes_instructions(&self) -> bool {
        true
    }

    /// The fetch unit transitioned to `block`; `kind` reports the base
    /// system's outcome. On a miss (or an in-flight next-line cover) the
    /// prefetcher may supply the block by returning the cycle its copy is
    /// (or will be) ready; returning `None` lets the base system proceed.
    fn on_block_fetch(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        kind: FetchKind,
    ) -> Option<u64>;

    /// An instruction retired whose fetch block had missed L1. `supplied`
    /// is true when this prefetcher provided the block (an SVB hit). TIFS
    /// logs misses at retirement (paper Section 5.1.1).
    fn on_retire_fetch_miss(
        &mut self,
        _ctx: &mut PrefetchCtx<'_>,
        _block: BlockAddr,
        _supplied: bool,
    ) {
    }

    /// An instruction block was evicted from L2 (embedded Index-Table
    /// pointers die with their tags).
    fn on_l2_evict(&mut self, _block: BlockAddr) {}

    /// `ctx.core` context-switched to a different program: any prediction
    /// state derived from the outgoing program's fetch stream (history
    /// logs, index pointers, in-flight streams, exploration cursors) must
    /// be invalidated for that core. Cache contents are untouched — a
    /// flush is a metadata event; the L1/L2 arrays keep their blocks and
    /// pay their own (modelled) misses.
    fn on_flush(&mut self, _ctx: &mut PrefetchCtx<'_>) {}

    /// Once-per-cycle housekeeping (stream rate matching, queue draining).
    fn tick(&mut self, _ctx: &mut PrefetchCtx<'_>) {}

    /// Implementation-specific counters for reports (name, value).
    fn counters(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// Zeroes implementation counters, preserving predictor state (used to
    /// discard warmup from measurements).
    fn reset_counters(&mut self) {}
}

/// The base system's "no additional prefetcher": next-line only.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullPrefetcher;

impl IPrefetcher for NullPrefetcher {
    fn name(&self) -> &'static str {
        "next-line"
    }

    fn observes_instructions(&self) -> bool {
        false
    }

    fn on_block_fetch(
        &mut self,
        _ctx: &mut PrefetchCtx<'_>,
        _block: BlockAddr,
        _kind: FetchKind,
    ) -> Option<u64> {
        None
    }
}

/// Blocks in a prefetch buffer: 32 x 64 B = the paper's 2 KB SVB. The
/// SVB of the TIFS presets and the buffers of FDIP and the discontinuity
/// prefetcher all hold this many, so the baselines get the SVB's buffer
/// (the paper grants FDIP a fully associative buffer "as the SVB is
/// fully-associative", Section 6.5).
pub const BUFFER_BLOCKS: usize = 32;

/// One arrived prefetch.
#[derive(Clone, Copy, Debug)]
struct Arrived<T> {
    block: BlockAddr,
    ready: u64,
    tag: T,
}

/// Slots of a buffer's presence counts: a block is counted in slot
/// `block % PRESENCE_SLOTS`.
const PRESENCE_SLOTS: usize = 64;

/// A fully associative LRU buffer of prefetched instruction blocks and the
/// fills still in flight toward it.
///
/// Each block carries the cycle its fill completes and a caller tag (the
/// SVB's stream and generation). A block leaves the buffer by a
/// [`take`](Self::take), which counts a hit, by a
/// [`discard`](Self::discard) or an eviction of a never-used arrival, which
/// count a discard (a wasted prefetch, paper Section 6.4), or by a
/// [`clear`](Self::clear), which counts neither.
///
/// Most lookups ask for a block the buffer does not hold (every L1-hit
/// transition asks the SVB), so the buffer counts its blocks, arrived and
/// in flight, by `block % 64`: a zero count answers at once, and only a
/// nonzero one scans.
#[derive(Clone, Debug)]
pub struct PrefetchBuffer<T: Copy = ()> {
    /// Arrived blocks, most recent first.
    arrived: Vec<Arrived<T>>,
    in_flight: FillQueue<T>,
    /// Entries of `arrived` and `in_flight` per presence slot.
    present: [u32; PRESENCE_SLOTS],
    capacity: usize,
    hits: u64,
    discards: u64,
}

impl<T: Copy> PrefetchBuffer<T> {
    /// Creates a buffer holding `capacity` arrived blocks.
    pub fn new(capacity: usize) -> PrefetchBuffer<T> {
        assert!(capacity > 0, "buffer needs capacity");
        PrefetchBuffer {
            arrived: Vec::with_capacity(capacity),
            in_flight: FillQueue::new(),
            present: [0; PRESENCE_SLOTS],
            capacity,
            hits: 0,
            discards: 0,
        }
    }

    #[inline]
    fn slot(block: BlockAddr) -> usize {
        (block.0 % PRESENCE_SLOTS as u64) as usize
    }

    /// Checks, in debug builds, the presence count of `block`'s slot
    /// against a scan.
    #[inline]
    fn debug_check_slot(&self, block: BlockAddr) {
        if cfg!(debug_assertions) {
            let slot = Self::slot(block);
            let scanned = self
                .arrived
                .iter()
                .filter(|e| Self::slot(e.block) == slot)
                .count()
                + self
                    .in_flight
                    .iter()
                    .filter(|e| Self::slot(e.1) == slot)
                    .count();
            assert_eq!(
                self.present[slot] as usize, scanned,
                "presence count of slot {slot}"
            );
        }
    }

    /// Whether `block` is buffered or in flight (the duplicate-issue
    /// filter every issue site applies).
    #[inline]
    pub fn holds(&self, block: BlockAddr) -> bool {
        self.debug_check_slot(block);
        self.present[Self::slot(block)] != 0 && self.scan_holds(block)
    }

    fn scan_holds(&self, block: BlockAddr) -> bool {
        self.in_flight.contains(block) || self.arrived.iter().any(|e| e.block == block)
    }

    /// Records a prefetch of `block` whose fill completes at `ready`.
    /// Callers filter with [`holds`](Self::holds) first.
    pub fn issue(&mut self, block: BlockAddr, ready: u64, tag: T) {
        debug_assert!(!self.holds(block), "{block:?} issued twice");
        // Counted by the queue's growth: an upsert adds no entry.
        let before = self.in_flight.len();
        self.in_flight.insert(ready, block, tag);
        if self.in_flight.len() > before {
            self.present[Self::slot(block)] += 1;
        }
    }

    /// Removes `block`, buffered first, then in flight.
    #[inline]
    fn remove(&mut self, block: BlockAddr) -> Option<(u64, T)> {
        self.debug_check_slot(block);
        if self.present[Self::slot(block)] == 0 {
            return None;
        }
        self.scan_remove(block)
    }

    fn scan_remove(&mut self, block: BlockAddr) -> Option<(u64, T)> {
        let found = match self.arrived.iter().position(|e| e.block == block) {
            Some(pos) => {
                let e = self.arrived.remove(pos);
                Some((e.ready, e.tag))
            }
            None => self.in_flight.remove(block),
        };
        if found.is_some() {
            self.present[Self::slot(block)] -= 1;
        }
        found
    }

    /// Supplies `block` if buffered or in flight, returning its fill-ready
    /// cycle and tag; counts a hit.
    #[inline]
    pub fn take(&mut self, block: BlockAddr) -> Option<(u64, T)> {
        let found = self.remove(block)?;
        self.hits += 1;
        Some(found)
    }

    /// Drops `block`, which the L1 already holds, returning its tag;
    /// counts a discard.
    #[inline]
    pub fn discard(&mut self, block: BlockAddr) -> Option<T> {
        let (_, tag) = self.remove(block)?;
        self.discards += 1;
        Some(tag)
    }

    /// Moves the fills complete by `now` into the buffer, in `(ready,
    /// block)` order, each to the most-recent end. A full buffer evicts
    /// its oldest arrival, which counts a discard and is handed to
    /// `on_evict` by its tag.
    pub fn drain(&mut self, now: u64, mut on_evict: impl FnMut(T)) {
        while let Some((ready, block, tag)) = self.in_flight.pop_ready(now) {
            if self.arrived.len() == self.capacity {
                let evicted = self.arrived.pop().expect("a full buffer");
                self.present[Self::slot(evicted.block)] -= 1;
                self.discards += 1;
                on_evict(evicted.tag);
            }
            self.arrived.insert(0, Arrived { block, ready, tag });
        }
    }

    /// Cycle at which the earliest in-flight fill completes, if any.
    pub fn next_arrival(&self) -> Option<u64> {
        // The fill queue iterates in descending (ready, block) order.
        self.in_flight.iter().last().map(|&(ready, _, _)| ready)
    }

    /// Blocks, in flight or buffered, whose tag satisfies `pred`.
    pub fn count(&self, pred: impl Fn(T) -> bool) -> usize {
        self.in_flight.iter().filter(|e| pred(e.2)).count()
            + self.arrived.iter().filter(|e| pred(e.tag)).count()
    }

    /// Context-switch flush: drops every buffered and in-flight block
    /// without charging discards (the drop is an external event, not a
    /// wasted prefetch).
    pub fn clear(&mut self) {
        self.arrived.clear();
        self.in_flight = FillQueue::new();
        self.present = [0; PRESENCE_SLOTS];
    }

    /// Successful supplies.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Blocks dropped or evicted without ever being used.
    pub fn discards(&self) -> u64 {
        self.discards
    }

    /// Zeroes the hit and discard counters (warmup discard).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.discards = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    #[test]
    fn null_prefetcher_never_supplies() {
        let mut l2 = L2::new(&SystemConfig::table2());
        let mut ctx = PrefetchCtx {
            now: 0,
            core: 0,
            l2: &mut l2,
        };
        let mut p = NullPrefetcher;
        assert_eq!(
            p.on_block_fetch(&mut ctx, BlockAddr(1), FetchKind::Miss),
            None
        );
        assert_eq!(p.name(), "next-line");
        assert!(p.counters().is_empty());
    }

    fn arrived(b: &mut PrefetchBuffer, blocks: &[u64]) {
        for &block in blocks {
            b.issue(BlockAddr(block), 0, ());
            b.drain(0, |()| {});
        }
    }

    #[test]
    fn take_consumes() {
        let mut b = PrefetchBuffer::new(4);
        b.issue(BlockAddr(1), 10, ());
        b.drain(10, |_| {});
        assert_eq!(b.take(BlockAddr(1)), Some((10, ())));
        assert_eq!(b.take(BlockAddr(1)), None, "consumed");
        assert_eq!(b.hits(), 1);
    }

    #[test]
    fn take_from_flight_counts_a_hit() {
        let mut b = PrefetchBuffer::new(4);
        b.issue(BlockAddr(1), 10, ());
        b.drain(5, |()| {});
        assert_eq!(b.take(BlockAddr(1)), Some((10, ())), "still in flight");
        assert_eq!(b.next_arrival(), None, "the fill no longer arrives");
        assert_eq!((b.hits(), b.discards()), (1, 0));
    }

    #[test]
    fn lru_eviction_counts_discards() {
        let mut b = PrefetchBuffer::new(2);
        arrived(&mut b, &[1, 2, 3]); // 3 evicts 1
        assert!(!b.holds(BlockAddr(1)));
        assert_eq!(b.discards(), 1);
        assert_eq!(b.count(|_| true), 2);
    }

    #[test]
    fn discard_counts_a_discard() {
        let mut b = PrefetchBuffer::new(4);
        b.issue(BlockAddr(1), 10, 7u8);
        b.issue(BlockAddr(2), 10, 8u8);
        b.drain(10, |_| {});
        assert_eq!(b.discard(BlockAddr(2)), Some(8));
        assert_eq!(b.discard(BlockAddr(2)), None, "already dropped");
        b.issue(BlockAddr(3), 20, 9u8);
        assert_eq!(b.discard(BlockAddr(3)), Some(9), "dropped in flight");
        assert_eq!((b.hits(), b.discards()), (0, 2));
        assert_eq!(b.count(|tag| tag == 7), 1);
    }

    #[test]
    fn clear_charges_nothing() {
        let mut b = PrefetchBuffer::new(4);
        arrived(&mut b, &[1]);
        b.issue(BlockAddr(2), 50, ());
        b.clear();
        assert!(!b.holds(BlockAddr(1)) && !b.holds(BlockAddr(2)));
        assert_eq!(b.next_arrival(), None);
        assert_eq!((b.hits(), b.discards()), (0, 0));
    }

    #[test]
    fn drain_goes_in_ready_then_block_order() {
        // Issued out of order; arrivals fill the buffer by (ready, block),
        // so the one-block buffer keeps the last of them and discards the
        // rest in that order.
        let mut b = PrefetchBuffer::new(1);
        for (block, ready) in [(5, 20), (9, 10), (3, 20), (7, 30)] {
            b.issue(BlockAddr(block), ready, block);
        }
        assert_eq!(b.next_arrival(), Some(10));
        let mut evicted = Vec::new();
        b.drain(20, |tag| evicted.push(tag));
        assert_eq!(evicted, [9, 3]);
        assert_eq!(b.discards(), 2, "9 then 3 evicted");
        assert_eq!(b.count(|_| true), 2, "5 buffered, 7 in flight");
        assert!(b.holds(BlockAddr(5)) && !b.holds(BlockAddr(3)));
        assert_eq!(b.next_arrival(), Some(30));
    }
}
